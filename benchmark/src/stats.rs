//! Exact order statistics over collected samples.

/// The `q`-quantile (0 ≤ q ≤ 1) of `sorted` by the nearest-rank rule: the
/// smallest sample with at least `q` of the samples at or below it. Exact —
/// no buckets, no interpolation — so a reported p99 is a latency some request
/// really had.
pub fn quantile_sorted(sorted: &[u64], q: f64) -> u64 {
    assert!(!sorted.is_empty(), "quantile of no samples");
    assert!((0.0..=1.0).contains(&q), "quantile {q} outside [0, 1]");
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Sorts `samples` in place and returns the `q`-quantile, 0 when empty.
pub fn quantile(samples: &mut [u64], q: f64) -> u64 {
    if samples.is_empty() {
        return 0;
    }
    samples.sort_unstable();
    quantile_sorted(samples, q)
}

/// Nanosecond samples → the `q`-quantile in microseconds, with decimals.
pub fn quantile_us(samples_ns: &mut [u64], q: f64) -> f64 {
    quantile(samples_ns, q) as f64 / 1e3
}

/// The `q`-quantile of each consecutive block of `block` samples (a short
/// tail joins the block before it), then the median of those, in
/// microseconds. One stall lands in one block, so it moves this far less
/// than it moves the quantile of the whole run; a stall that recurs in most
/// blocks still shows in full.
pub fn blocked_quantile_us(samples_ns: &[u64], block: usize, q: f64) -> f64 {
    assert!(block > 0, "block size must be positive");
    if samples_ns.is_empty() {
        return 0.0;
    }
    let blocks = (samples_ns.len() / block).max(1);
    let per_block: Vec<f64> = (0..blocks)
        .map(|b| {
            let end = if b + 1 == blocks { samples_ns.len() } else { (b + 1) * block };
            quantile_us(&mut samples_ns[b * block..end].to_vec(), q)
        })
        .collect();
    median(&per_block)
}

/// Median of floats (mean of the middle pair for even counts), 0 when empty.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// First and third quartile by the exclusive method — the same numbers
/// Python's `statistics.quantiles(values, n=4)` returns, which is what the
/// acceptance check is stated in.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    assert!(values.len() >= 2, "quartiles need at least two values");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let at = |k: usize| {
        // Position k*(n+1)/4 on a 1-based axis, clamped into the data.
        let pos = k as f64 * (n as f64 + 1.0) / 4.0;
        let j = (pos.floor() as usize).clamp(1, n - 1);
        let frac = pos - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * frac
    };
    (at(1), at(3))
}

/// Interquartile distance as a share of the median — the spread the
/// acceptance rule compares with a metric's bound.
pub fn spread(values: &[f64]) -> f64 {
    let m = median(values);
    if values.len() < 2 || m == 0.0 {
        return 0.0;
    }
    let (q1, q3) = quartiles(values);
    (q3 - q1) / m.abs()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles_are_exact() {
        let mut v: Vec<u64> = (1..=100).rev().collect();
        assert_eq!(quantile(&mut v, 0.5), 50);
        assert_eq!(quantile(&mut v, 0.99), 99);
        assert_eq!(quantile(&mut v, 1.0), 100);
        assert_eq!(quantile(&mut v, 0.0), 1);
        let mut one = vec![7];
        assert_eq!(quantile(&mut one, 0.99), 7);
        assert_eq!(quantile(&mut [], 0.5), 0);
        // p99 of 1000 samples has exactly ten samples beyond it.
        let mut k: Vec<u64> = (1..=1000).collect();
        let p99 = quantile(&mut k, 0.99);
        assert_eq!(k.iter().filter(|&&x| x > p99).count(), 10);
    }

    #[test]
    fn blocked_quantile_shrugs_off_one_stall_but_not_a_recurring_one() {
        // Five blocks of 1000 samples at 1 ms; one block holds a 200-request
        // stall at 100 ms.
        let mut ns = vec![1_000_000u64; 5_300];
        for s in &mut ns[2_100..2_300] {
            *s = 100_000_000;
        }
        assert_eq!(quantile_us(&mut ns.clone(), 0.99), 100_000.0);
        assert_eq!(blocked_quantile_us(&ns, 1_000, 0.99), 1_000.0);
        // The 300-sample tail joined the fifth block instead of standing alone.
        assert_eq!(blocked_quantile_us(&ns[5_000..], 1_000, 0.5), 1_000.0);
        // The same stall in every block is the p99 of every block.
        for b in 0..5 {
            for s in &mut ns[b * 1_000..b * 1_000 + 20] {
                *s = 100_000_000;
            }
        }
        assert_eq!(blocked_quantile_us(&ns, 1_000, 0.99), 100_000.0);
        assert_eq!(blocked_quantile_us(&[], 1_000, 0.99), 0.0);
    }

    #[test]
    fn quantile_us_keeps_decimals() {
        let mut v = vec![1_500, 2_250, 3_125];
        assert_eq!(quantile_us(&mut v, 0.5), 2.25);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q3) = quartiles(&v);
        assert!((q1 - 2.75).abs() < 1e-12 && (q3 - 8.25).abs() < 1e-12, "{q1} {q3}");
        assert_eq!(median(&v), 5.5);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        let (q1, q3) = quartiles(&[3.0, 1.0, 2.0]);
        assert_eq!((q1, q3), (1.0, 3.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        let (q1, q3) = quartiles(&[1.0, 2.0]);
        assert!((q1 - 0.75).abs() < 1e-12 && (q3 - 2.25).abs() < 1e-12);
    }

    #[test]
    fn spread_is_iqr_over_median() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((spread(&v) - 1.0).abs() < 1e-12);
        assert_eq!(spread(&[4.0]), 0.0);
    }
}
