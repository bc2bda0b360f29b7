//! Fixed-bucket HDR-style latency histogram with O(1) record and bounded
//! memory, plus span timers that record stage durations into it.
//!
//! Values below [`SUB_BUCKETS`] get one exact bucket each; every power of
//! two above that is split into [`SUB_BUCKETS`] linear sub-buckets, so the
//! relative bucket width — and therefore the worst-case quantile error —
//! is `1/SUB_BUCKETS` (6.25%) across the whole `u64` range.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// Linear sub-buckets per power of two (the HDR resolution knob).
pub const SUB_BUCKETS: usize = 16;

/// Number of buckets: values `0..16` get one exact bucket each, then each
/// power-of-two range `[2^m, 2^(m+1))` for `m` in `4..=63` is split into 16
/// linear sub-buckets of width `2^(m-4)`. The final bucket (index 975) ends
/// at `u64::MAX`.
pub const NUM_BUCKETS: usize = SUB_BUCKETS + (64 - SUB_BUCKETS.trailing_zeros() as usize) * 16;

/// Bucket index for a value (O(1): one `leading_zeros` and some shifts).
///
/// Public so exporters and scrape parsers can map rendered bucket bounds
/// back to indices without re-encoding the layout.
#[inline]
pub fn bucket_index_for_value(v: u64) -> usize {
    if v < SUB_BUCKETS as u64 {
        v as usize
    } else {
        let major = 63 - v.leading_zeros() as usize; // >= 4
        let sub = ((v >> (major - 4)) & 15) as usize;
        SUB_BUCKETS + (major - 4) * 16 + sub
    }
}

/// Inclusive `[lo, hi]` value range of a bucket. The terminal bucket's upper
/// bound is `u64::MAX` (rendered as `+Inf` by the Prometheus exporter).
pub fn bucket_bounds(i: usize) -> (u64, u64) {
    assert!(i < NUM_BUCKETS, "bucket index {i} out of range");
    if i < SUB_BUCKETS {
        (i as u64, i as u64)
    } else {
        let rel = i - SUB_BUCKETS;
        let major = 4 + rel / 16;
        let sub = (rel % 16) as u64;
        let width = 1u64 << (major - 4);
        let lo = (1u64 << major) + sub * width;
        let hi = lo.saturating_add(width - 1);
        (lo, hi)
    }
}

/// A concurrent latency histogram over `u64` samples (microseconds by
/// convention) with HDR-style sub-bucketed buckets.
///
/// `record` is a handful of relaxed atomic ops — safe to call from every
/// request thread — and memory stays constant no matter how many samples
/// arrive, unlike the unbounded `Vec<u64>` it replaces. Quantiles are exact
/// up to bucket resolution (at most 1/16 = 6.25% relative error), refined
/// by linear interpolation inside the bucket.
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; NUM_BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
        }
    }
}

impl Histogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one sample.
    pub fn record(&self, v: u64) {
        self.buckets[bucket_index_for_value(v)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        // Saturating sum: wrapping would corrupt the mean on pathological
        // inputs (e.g. u64::MAX sentinel samples).
        let _ = self
            .sum
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |s| Some(s.saturating_add(v)));
        self.min.fetch_min(v, Ordering::Relaxed);
        self.max.fetch_max(v, Ordering::Relaxed);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of recorded samples (saturating).
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// Mean sample; `0.0` when empty.
    pub fn mean(&self) -> f64 {
        self.snapshot().mean()
    }

    /// Quantile estimate (`q` in `[0, 1]`); `0` when empty. See
    /// [`HistogramSnapshot::quantile`].
    pub fn quantile(&self, q: f64) -> u64 {
        self.snapshot().quantile(q)
    }

    /// A consistent point-in-time copy of the bucket counts and aggregates.
    ///
    /// Concurrent writers may land between the individual loads, so `count`
    /// is re-derived from the bucket copy to keep the snapshot internally
    /// consistent.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let mut buckets = Vec::new();
        let mut count = 0u64;
        for (i, b) in self.buckets.iter().enumerate() {
            let c = b.load(Ordering::Relaxed);
            if c > 0 {
                buckets.push((i, c));
                count += c;
            }
        }
        let min = self.min.load(Ordering::Relaxed);
        HistogramSnapshot {
            count,
            sum: self.sum.load(Ordering::Relaxed),
            min: if count == 0 { 0 } else { min },
            max: self.max.load(Ordering::Relaxed),
            buckets,
        }
    }

    /// Starts an RAII span that records its elapsed microseconds into this
    /// histogram when dropped (or explicitly via [`Span::finish`]).
    pub fn span(&self) -> Span<'_> {
        Span { hist: self, timer: SpanTimer::start(), armed: true }
    }
}

/// An immutable histogram snapshot: sparse `(bucket index, count)` pairs
/// plus aggregates.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Total samples.
    pub count: u64,
    /// Saturating sum of samples.
    pub sum: u64,
    /// Smallest sample (`0` when empty).
    pub min: u64,
    /// Largest sample (`0` when empty).
    pub max: u64,
    /// Non-empty buckets as `(index, count)`, ascending by index.
    pub buckets: Vec<(usize, u64)>,
}

impl HistogramSnapshot {
    /// Mean sample; `0.0` when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Quantile estimate (`q` clamped to `[0, 1]`): walks the cumulative
    /// bucket counts to the target rank, then linearly interpolates inside
    /// the bucket's `[lo, hi]` range. Monotone in `q` by construction and
    /// never off by more than one bucket width, i.e. at most 6.25% relative
    /// error; values below [`SUB_BUCKETS`] are exact. The estimate is
    /// clamped into `[min, max]`, so the quantiles of a constant stream are
    /// exactly that constant, never a bucket edge.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let q = q.clamp(0.0, 1.0);
        let target = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut cum = 0u64;
        for &(i, c) in &self.buckets {
            if cum + c >= target {
                let (lo, hi) = bucket_bounds(i);
                let frac = (target - cum) as f64 / c as f64;
                let est = lo as f64 + (hi - lo) as f64 * frac;
                // Round (not truncate) inside the bucket, then clamp into
                // the observed range so estimates never exceed the true
                // extremes.
                return (est.round() as u64).clamp(self.min, self.max);
            }
            cum += c;
        }
        self.max
    }

    /// Inclusive upper bound of a bucket index (for Prometheus `le` labels).
    pub fn bucket_upper_bound(i: usize) -> u64 {
        bucket_bounds(i).1
    }

    /// Merges another snapshot into this one, bucket by bucket.
    ///
    /// Merging the snapshots of N histograms is equivalent to having
    /// recorded every sample into a single histogram (the property tests pin
    /// this), which is what makes per-shard histograms aggregatable into a
    /// whole-server view without a shared write path.
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = other.clone();
            return;
        }
        let mut merged: Vec<(usize, u64)> = Vec::with_capacity(self.buckets.len());
        let (mut a, mut b) = (self.buckets.iter().peekable(), other.buckets.iter().peekable());
        while let (Some(&&(ia, ca)), Some(&&(ib, cb))) = (a.peek(), b.peek()) {
            match ia.cmp(&ib) {
                std::cmp::Ordering::Less => {
                    merged.push((ia, ca));
                    a.next();
                }
                std::cmp::Ordering::Greater => {
                    merged.push((ib, cb));
                    b.next();
                }
                std::cmp::Ordering::Equal => {
                    merged.push((ia, ca + cb));
                    a.next();
                    b.next();
                }
            }
        }
        merged.extend(a.copied());
        merged.extend(b.copied());
        self.buckets = merged;
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

/// A manually driven stopwatch for staged request handling.
///
/// ```
/// use intellitag_obs::{Histogram, SpanTimer};
/// let recall = Histogram::new();
/// let t = SpanTimer::start();
/// // ... do the recall stage ...
/// let us = t.record(&recall);
/// assert_eq!(recall.count(), 1);
/// assert!(us < 1_000_000);
/// ```
#[derive(Debug, Clone, Copy)]
pub struct SpanTimer {
    start: Instant,
}

impl SpanTimer {
    /// Starts timing now.
    pub fn start() -> Self {
        SpanTimer { start: Instant::now() }
    }

    /// Microseconds elapsed so far.
    pub fn elapsed_us(&self) -> u64 {
        self.start.elapsed().as_micros().min(u64::MAX as u128) as u64
    }

    /// Stops the timer, records the elapsed microseconds into `hist`, and
    /// returns them.
    pub fn record(self, hist: &Histogram) -> u64 {
        let us = self.elapsed_us();
        hist.record(us);
        us
    }
}

/// RAII stage span from [`Histogram::span`]: records elapsed microseconds
/// once, at [`Span::finish`] or on drop.
#[derive(Debug)]
pub struct Span<'a> {
    hist: &'a Histogram,
    timer: SpanTimer,
    armed: bool,
}

impl Span<'_> {
    /// Records now and returns the elapsed microseconds.
    pub fn finish(mut self) -> u64 {
        self.armed = false;
        self.timer.record(self.hist)
    }
}

impl Drop for Span<'_> {
    fn drop(&mut self) {
        if self.armed {
            self.timer.record(self.hist);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn bucket_boundaries() {
        // Exact buckets below SUB_BUCKETS.
        for v in 0..16u64 {
            assert_eq!(bucket_index_for_value(v), v as usize);
            assert_eq!(bucket_bounds(v as usize), (v, v));
        }
        // First sub-bucketed major stays continuous with the exact range.
        assert_eq!(bucket_index_for_value(16), 16);
        assert_eq!(bucket_index_for_value(31), 31);
        assert_eq!(bucket_index_for_value(32), 32);
        assert_eq!(bucket_bounds(32), (32, 33));
        // 1023 lands in the last sub-bucket of major 9: [992, 1023].
        assert_eq!(bucket_index_for_value(1023), 111);
        assert_eq!(bucket_bounds(111), (992, 1023));
        assert_eq!(bucket_index_for_value(1024), 112);
        assert_eq!(bucket_index_for_value(u64::MAX), NUM_BUCKETS - 1);
        assert_eq!(bucket_bounds(NUM_BUCKETS - 1).1, u64::MAX);
        assert_eq!(NUM_BUCKETS, 976);
    }

    #[test]
    fn every_value_lands_inside_its_bucket_bounds() {
        let mut x = 0x0123_4567_89AB_CDEF_u64;
        for _ in 0..20_000 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            // Exercise every magnitude, not just the xorshift high range.
            let v = x >> (x % 64);
            let i = bucket_index_for_value(v);
            let (lo, hi) = bucket_bounds(i);
            assert!(lo <= v && v <= hi, "value {v} outside bucket {i} [{lo}, {hi}]");
            // Relative bucket width is the advertised 6.25% bound.
            if lo >= 16 {
                assert!((hi - lo) as f64 <= lo as f64 / 16.0, "bucket {i} too wide");
            }
        }
        // Buckets tile the axis: each hi + 1 is the next lo.
        for i in 0..NUM_BUCKETS - 1 {
            assert_eq!(bucket_bounds(i).1 + 1, bucket_bounds(i + 1).0, "gap after bucket {i}");
        }
    }

    #[test]
    fn extreme_values_land_in_terminal_buckets() {
        let h = Histogram::new();
        h.record(0);
        h.record(1);
        h.record(u64::MAX);
        let s = h.snapshot();
        assert_eq!(s.count, 3);
        assert_eq!(s.min, 0);
        assert_eq!(s.max, u64::MAX);
        assert_eq!(s.buckets, vec![(0, 1), (1, 1), (NUM_BUCKETS - 1, 1)]);
        // Saturating sum must not wrap past u64::MAX.
        assert_eq!(s.sum, u64::MAX);
    }

    #[test]
    fn empty_histogram_is_zeroed() {
        let h = Histogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.mean(), 0.0);
        assert_eq!(h.quantile(0.5), 0);
        let s = h.snapshot();
        assert_eq!(s.min, 0);
        assert_eq!(s.max, 0);
        assert!(s.buckets.is_empty());
    }

    #[test]
    fn quantiles_are_monotone_and_bounded() {
        let h = Histogram::new();
        // Deterministic pseudo-random samples (no external RNG available).
        let mut x = 88172645463325252u64;
        for _ in 0..10_000 {
            // xorshift64
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            h.record(x % 200_000);
        }
        let s = h.snapshot();
        let (p50, p90, p99) = (s.quantile(0.5), s.quantile(0.9), s.quantile(0.99));
        assert!(p50 <= p90 && p90 <= p99, "{p50} {p90} {p99}");
        assert!(p99 <= s.max);
        assert!(s.quantile(0.0) >= s.min);
        assert_eq!(s.quantile(1.0), s.max);
    }

    #[test]
    fn quantile_interpolates_within_bucket_resolution() {
        let h = Histogram::new();
        for v in 1..=1000u64 {
            h.record(v);
        }
        // True p50 is 500; HDR sub-buckets guarantee 6.25% relative error.
        let p50 = h.quantile(0.5);
        assert!((469..=531).contains(&p50), "p50 estimate {p50}");
        assert!((h.mean() - 500.5).abs() < 1e-9);
    }

    #[test]
    fn constant_stream_quantiles_equal_the_constant() {
        // Satellite fix: a constant stream must report the constant at every
        // quantile, not the upper edge of its (16-wide) bucket.
        let h = Histogram::new();
        for _ in 0..1000 {
            h.record(907);
        }
        let s = h.snapshot();
        for q in [0.0, 0.5, 0.9, 0.99, 0.999, 1.0] {
            assert_eq!(s.quantile(q), 907, "q={q}");
        }
        // Small constants sit in exact buckets even when mixed with
        // outliers: the p50 of 99 fives and one large value is exactly 5.
        let h = Histogram::new();
        for _ in 0..99 {
            h.record(5);
        }
        h.record(10_000);
        assert_eq!(h.quantile(0.5), 5);
    }

    #[test]
    fn quantiles_stay_within_advertised_relative_error() {
        // Synthetic long-tailed distribution with an exact reference: every
        // quantile estimate must land within 6.25% of the true order
        // statistic (acceptance criterion for the HDR upgrade).
        let h = Histogram::new();
        let mut samples = Vec::new();
        let mut x = 0x9E37_79B9u64;
        for _ in 0..50_000 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            // Skewed tail: squares of a uniform draw up to ~10^8.
            let v = (x % 10_000) * (x % 10_000);
            samples.push(v);
            h.record(v);
        }
        samples.sort_unstable();
        let s = h.snapshot();
        for q in [0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 0.999] {
            let target = ((q * samples.len() as f64).ceil() as usize).clamp(1, samples.len());
            let truth = samples[target - 1];
            let est = s.quantile(q);
            let err = (est as f64 - truth as f64).abs();
            let bound = (truth as f64 / 16.0).max(1.0);
            assert!(err <= bound, "q={q}: est {est} vs true {truth} (err {err} > {bound})");
        }
    }

    #[test]
    fn concurrent_records_are_all_counted() {
        let h = Arc::new(Histogram::new());
        let mut handles = Vec::new();
        for t in 0..8u64 {
            let h = Arc::clone(&h);
            handles.push(std::thread::spawn(move || {
                for i in 0..500u64 {
                    h.record(t * 1000 + i);
                }
            }));
        }
        for th in handles {
            th.join().unwrap();
        }
        assert_eq!(h.count(), 4000);
        assert_eq!(h.snapshot().count, 4000);
    }

    #[test]
    fn merge_equals_concat_recording() {
        let (a, b, all) = (Histogram::new(), Histogram::new(), Histogram::new());
        for v in [0u64, 1, 7, 900, 1_000_000] {
            a.record(v);
            all.record(v);
        }
        for v in [3u64, 7, u64::MAX] {
            b.record(v);
            all.record(v);
        }
        let mut merged = a.snapshot();
        merged.merge(&b.snapshot());
        assert_eq!(merged, all.snapshot());
        // Merging an empty snapshot is the identity, both ways.
        let mut id = a.snapshot();
        id.merge(&Histogram::new().snapshot());
        assert_eq!(id, a.snapshot());
        let mut from_empty = Histogram::new().snapshot();
        from_empty.merge(&a.snapshot());
        assert_eq!(from_empty, a.snapshot());
    }

    #[test]
    fn span_records_on_drop_and_discard_skips() {
        let h = Histogram::new();
        {
            let _s = h.span();
        }
        assert_eq!(h.count(), 1);
        // A finished span records once: its drop is skipped.
        let us = h.span().finish();
        assert_eq!(h.count(), 2);
        assert!(us < 1_000_000);
    }
}
