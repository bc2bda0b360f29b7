//! End-to-end request tracing: per-request span lists, a tail-retaining
//! collector, and JSON-lines export.
//!
//! A [`TraceCtx`] rides along with one request from the moment the gateway
//! (or a bench harness) admits it: every stage the request passes through —
//! gateway handling, shard queueing, batch drains, recall / rerank / score /
//! cache inside the model server — appends a [`TraceSpan`] stamped in
//! microseconds since the trace's origin. Handles are cheap to clone
//! ([`TraceHandle`] is an `Arc<Mutex<..>>`) so the same trace can be written
//! to from the calling thread and from a shard worker that scored the
//! request inside a multi-request batch drain.
//!
//! Finished traces are offered to a [`TraceCollector`], which keeps a
//! bounded set using *tail-based retention*: within every window of
//! completed traces it always keeps the K slowest (the tail you actually
//! debug) plus an unbiased 1-in-N sample of the rest. Everything else is
//! dropped and counted on `obs.trace.dropped`; current occupancy is
//! published on the `obs.trace.retained` gauge.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use crate::metric::{Counter, Gauge};
use crate::registry::MetricsRegistry;

/// One timed stage inside a request trace. Times are microseconds since the
/// owning trace's origin, so spans from different threads share a clock.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceSpan {
    /// Stage name (`"gateway"`, `"shard.queue"`, `"drain"`, `"score"`, ...).
    pub name: &'static str,
    /// Stage start, microseconds since the trace origin.
    pub start_us: u64,
    /// Stage end, microseconds since the trace origin.
    pub end_us: u64,
    /// Shard that executed the stage, when the stage is shard-bound.
    pub shard: Option<u32>,
    /// Number of requests in the batch drain this span belongs to, when the
    /// stage ran as part of a multi-request batch.
    pub batch_rows: Option<u32>,
}

impl TraceSpan {
    /// The span's duration in microseconds.
    pub fn duration_us(&self) -> u64 {
        self.end_us.saturating_sub(self.start_us)
    }
}

/// A single request's trace: an id, an origin instant, and the spans
/// recorded so far.
#[derive(Debug)]
pub struct TraceCtx {
    /// The request's trace id (propagated on the wire as 16 hex digits).
    pub trace_id: u64,
    origin: Instant,
    /// Recorded stages, in recording order.
    pub spans: Vec<TraceSpan>,
}

impl TraceCtx {
    /// Starts an empty trace with the given id; the origin is "now".
    pub fn new(trace_id: u64) -> Self {
        TraceCtx { trace_id, origin: Instant::now(), spans: Vec::with_capacity(8) }
    }

    /// Microseconds elapsed since the trace origin.
    pub fn now_us(&self) -> u64 {
        self.origin.elapsed().as_micros() as u64
    }

    /// Appends a span covering `[start_us, end_us]`.
    pub fn record(&mut self, name: &'static str, start_us: u64, end_us: u64) {
        self.spans.push(TraceSpan { name, start_us, end_us, shard: None, batch_rows: None });
    }

    /// Appends a span with shard / batch annotations.
    pub fn record_annotated(
        &mut self,
        name: &'static str,
        start_us: u64,
        end_us: u64,
        shard: Option<u32>,
        batch_rows: Option<u32>,
    ) {
        self.spans.push(TraceSpan { name, start_us, end_us, shard, batch_rows });
    }

    /// End-to-end duration: the latest span end (0 when empty).
    pub fn total_us(&self) -> u64 {
        self.spans.iter().map(|s| s.end_us).max().unwrap_or(0)
    }
}

/// Cheaply cloneable, thread-safe handle to one request's [`TraceCtx`].
///
/// Clones share the trace: the sharded front clones the handle into its mpsc
/// job envelope so shard workers annotate the same trace the gateway started.
/// Lock scope is a handful of instructions per record — traces are per
/// request, so contention is between at most the caller and one worker.
#[derive(Debug, Clone)]
pub struct TraceHandle(Arc<Mutex<TraceCtx>>);

impl TraceHandle {
    /// Starts a new trace with the given id.
    pub fn new(trace_id: u64) -> Self {
        TraceHandle(Arc::new(Mutex::new(TraceCtx::new(trace_id))))
    }

    /// Microseconds since the trace origin — use as span start/end stamps.
    pub fn now_us(&self) -> u64 {
        self.lock().now_us()
    }

    /// Records a plain span (see [`TraceCtx::record`]).
    pub fn record(&self, name: &'static str, start_us: u64, end_us: u64) {
        self.lock().record(name, start_us, end_us);
    }

    /// Records an annotated span (see [`TraceCtx::record_annotated`]).
    pub fn record_annotated(
        &self,
        name: &'static str,
        start_us: u64,
        end_us: u64,
        shard: Option<u32>,
        batch_rows: Option<u32>,
    ) {
        self.lock().record_annotated(name, start_us, end_us, shard, batch_rows);
    }

    /// Copies out the finished form (id, total, spans) for retention.
    pub fn finish(&self) -> FinishedTrace {
        let ctx = self.lock();
        FinishedTrace { trace_id: ctx.trace_id, total_us: ctx.total_us(), spans: ctx.spans.clone() }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, TraceCtx> {
        self.0.lock().unwrap_or_else(|e| e.into_inner())
    }
}

/// An immutable, completed trace as retained by the collector.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FinishedTrace {
    /// The trace id.
    pub trace_id: u64,
    /// End-to-end duration (latest span end).
    pub total_us: u64,
    /// The recorded spans.
    pub spans: Vec<TraceSpan>,
}

impl FinishedTrace {
    /// Renders the trace as one JSON object (no trailing newline).
    /// `trace_id` is the 16-hex-digit wire form.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(64 + self.spans.len() * 64);
        out.push_str(&format!(
            "{{\"trace_id\":\"{:016x}\",\"total_us\":{},\"spans\":[",
            self.trace_id, self.total_us
        ));
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"name\":\"{}\",\"start_us\":{},\"end_us\":{}",
                s.name, s.start_us, s.end_us
            ));
            if let Some(shard) = s.shard {
                out.push_str(&format!(",\"shard\":{shard}"));
            }
            if let Some(rows) = s.batch_rows {
                out.push_str(&format!(",\"batch_rows\":{rows}"));
            }
            out.push('}');
        }
        out.push_str("]}");
        out
    }
}

/// Retention policy for a [`TraceCollector`].
#[derive(Debug, Clone, Copy)]
pub struct TraceConfig {
    /// Max number of retained traces; the oldest are evicted beyond this.
    pub capacity: usize,
    /// Window size over which "the K slowest" is decided.
    pub window: usize,
    /// Number of slowest traces kept per window.
    pub keep_slowest: usize,
    /// Every N-th completed trace is kept regardless of speed (1 = all).
    pub sample_every: u64,
}

impl Default for TraceConfig {
    fn default() -> Self {
        TraceConfig { capacity: 256, window: 64, keep_slowest: 4, sample_every: 16 }
    }
}

struct CollectorInner {
    /// Retained traces, oldest first (bounded by `capacity`).
    retained: VecDeque<FinishedTrace>,
    /// The window currently being accumulated: `(sampled, trace)`.
    window: Vec<(bool, FinishedTrace)>,
    seen: u64,
}

/// Bounded store of completed traces with tail-based retention.
///
/// [`TraceCollector::offer`] is the only hot-path entry point: one short
/// mutex hold to push into the current window, plus (once per `window`
/// completions) a selection pass keeping the `keep_slowest` slowest and the
/// 1-in-`sample_every` sampled traces. Dropped traces bump
/// `obs.trace.dropped`; the `obs.trace.retained` gauge tracks occupancy.
pub struct TraceCollector {
    inner: Mutex<CollectorInner>,
    cfg: TraceConfig,
    dropped: Arc<Counter>,
    occupancy: Arc<Gauge>,
}

impl TraceCollector {
    /// Creates a collector publishing its counters into `registry`.
    pub fn new(registry: &MetricsRegistry, cfg: TraceConfig) -> Self {
        assert!(cfg.capacity > 0, "trace capacity must be positive");
        assert!(cfg.window > 0, "trace window must be positive");
        assert!(cfg.sample_every > 0, "sample_every must be positive");
        TraceCollector {
            inner: Mutex::new(CollectorInner {
                retained: VecDeque::with_capacity(cfg.capacity.min(1024)),
                window: Vec::with_capacity(cfg.window),
                seen: 0,
            }),
            cfg,
            dropped: registry.counter("obs.trace.dropped"),
            occupancy: registry.gauge("obs.trace.retained"),
        }
    }

    /// Offers a completed trace for retention.
    pub fn offer(&self, trace: FinishedTrace) {
        let mut inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        inner.seen += 1;
        let sampled = inner.seen.is_multiple_of(self.cfg.sample_every);
        inner.window.push((sampled, trace));
        if inner.window.len() >= self.cfg.window {
            self.seal_window(&mut inner);
        }
        self.occupancy.set((inner.retained.len() + inner.window.len()) as f64);
    }

    /// Folds the accumulated window into the retained ring: keep the K
    /// slowest plus the sampled ones, drop (and count) the rest.
    fn seal_window(&self, inner: &mut CollectorInner) {
        let mut window = std::mem::take(&mut inner.window);
        // Find the duration cutoff for "K slowest" without a full sort.
        let mut durations: Vec<u64> = window.iter().map(|(_, t)| t.total_us).collect();
        durations.sort_unstable_by(|a, b| b.cmp(a));
        let cutoff = durations.get(self.cfg.keep_slowest.saturating_sub(1)).copied();
        let mut slow_budget = self.cfg.keep_slowest;
        let mut dropped = 0u64;
        for (sampled, trace) in window.drain(..) {
            let slow = match cutoff {
                Some(c) if slow_budget > 0 && trace.total_us >= c => {
                    slow_budget -= 1;
                    true
                }
                _ => false,
            };
            if slow || sampled {
                if inner.retained.len() >= self.cfg.capacity {
                    inner.retained.pop_front();
                    dropped += 1;
                }
                inner.retained.push_back(trace);
            } else {
                dropped += 1;
            }
        }
        if dropped > 0 {
            self.dropped.add(dropped);
        }
    }

    /// All currently held traces, oldest first — retained ones followed by
    /// the still-open window (so fresh traces are visible immediately, which
    /// keeps short smoke runs and `/debug/traces` deterministic).
    pub fn traces(&self) -> Vec<FinishedTrace> {
        let inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        inner.retained.iter().cloned().chain(inner.window.iter().map(|(_, t)| t.clone())).collect()
    }

    /// The `n` slowest held traces, slowest first.
    pub fn slowest(&self, n: usize) -> Vec<FinishedTrace> {
        let mut all = self.traces();
        all.sort_by_key(|t| std::cmp::Reverse(t.total_us));
        all.truncate(n);
        all
    }

    /// Total traces offered so far.
    pub fn seen(&self) -> u64 {
        self.inner.lock().unwrap_or_else(|e| e.into_inner()).seen
    }

    /// JSON-lines export: one [`FinishedTrace::to_json`] object per line.
    pub fn export_json_lines(&self) -> String {
        let mut out = String::new();
        for t in self.traces() {
            out.push_str(&t.to_json());
            out.push('\n');
        }
        out
    }
}

impl std::fmt::Debug for TraceCollector {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TraceCollector").field("cfg", &self.cfg).finish_non_exhaustive()
    }
}

/// Deterministic trace-id source: a seeded splitmix64 stream, so ids are
/// unique within a process and reproducible under a fixed seed.
#[derive(Debug)]
pub struct TraceIdGen {
    state: AtomicU64,
}

impl TraceIdGen {
    /// Creates a generator from a seed.
    pub fn new(seed: u64) -> Self {
        TraceIdGen { state: AtomicU64::new(seed) }
    }

    /// The next trace id (never 0, so 0 can mean "untraced").
    pub fn next_id(&self) -> u64 {
        loop {
            let z = self.state.fetch_add(0x9E37_79B9_7F4A_7C15, Ordering::Relaxed);
            let mut x = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
            x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            x ^= x >> 31;
            if x != 0 {
                return x;
            }
        }
    }
}

/// Parses a wire trace id: 1–16 hex digits (the inverse of the
/// `{:016x}` rendering used by [`FinishedTrace::to_json`] and the
/// `X-Trace-Id` header). Returns `None` for malformed or zero ids.
pub fn parse_trace_id(s: &str) -> Option<u64> {
    let s = s.trim();
    if s.is_empty() || s.len() > 16 {
        return None;
    }
    match u64::from_str_radix(s, 16) {
        Ok(0) | Err(_) => None,
        Ok(id) => Some(id),
    }
}

/// Renders a trace id in the wire form used by the `X-Trace-Id` header.
pub fn format_trace_id(id: u64) -> String {
    format!("{id:016x}")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn trace(id: u64, total: u64) -> FinishedTrace {
        FinishedTrace {
            trace_id: id,
            total_us: total,
            spans: vec![TraceSpan {
                name: "stage",
                start_us: 0,
                end_us: total,
                shard: None,
                batch_rows: None,
            }],
        }
    }

    #[test]
    fn spans_accumulate_and_total_is_latest_end() {
        let h = TraceHandle::new(7);
        h.record("gateway", 0, 10);
        h.record_annotated("score", 2, 8, Some(1), Some(4));
        let done = h.finish();
        assert_eq!(done.trace_id, 7);
        assert_eq!(done.total_us, 10);
        assert_eq!(done.spans.len(), 2);
        assert_eq!(done.spans[1].shard, Some(1));
        assert_eq!(done.spans[1].batch_rows, Some(4));
        assert_eq!(done.spans[1].duration_us(), 6);
    }

    #[test]
    fn handle_clones_share_the_trace() {
        let h = TraceHandle::new(1);
        let h2 = h.clone();
        h.record("a", 0, 1);
        h2.record("b", 1, 2);
        assert_eq!(h.finish().spans.len(), 2);
    }

    #[test]
    fn now_us_is_monotone() {
        let h = TraceHandle::new(1);
        let a = h.now_us();
        let b = h.now_us();
        assert!(b >= a);
    }

    #[test]
    fn collector_keeps_slowest_and_sampled() {
        let r = MetricsRegistry::new();
        let cfg = TraceConfig { capacity: 64, window: 10, keep_slowest: 2, sample_every: 5 };
        let c = TraceCollector::new(&r, cfg);
        // One full window: durations 1..=10; every 5th offer is sampled.
        for i in 1..=10u64 {
            c.offer(trace(i, i * 100));
        }
        let kept = c.traces();
        let ids: Vec<u64> = kept.iter().map(|t| t.trace_id).collect();
        // Slowest two are 9 and 10; sampled are the 5th and 10th offers.
        assert!(ids.contains(&10) && ids.contains(&9), "slowest kept: {ids:?}");
        assert!(ids.contains(&5), "sampled kept: {ids:?}");
        assert_eq!(ids.len(), 3, "{ids:?}"); // 10 is both slow and sampled
        assert_eq!(r.counter("obs.trace.dropped").get(), 7);
        assert_eq!(r.gauge("obs.trace.retained").get(), 3.0);
        assert_eq!(c.seen(), 10);
    }

    #[test]
    fn open_window_traces_are_visible_immediately() {
        let r = MetricsRegistry::new();
        let c = TraceCollector::new(&r, TraceConfig::default());
        c.offer(trace(42, 5));
        assert_eq!(c.traces().len(), 1);
        assert_eq!(c.traces()[0].trace_id, 42);
        assert_eq!(r.counter("obs.trace.dropped").get(), 0);
    }

    #[test]
    fn capacity_evicts_oldest_and_counts_drops() {
        let r = MetricsRegistry::new();
        // window 1 + keep_slowest 1 => every trace is retained until the
        // ring overflows its capacity of 2.
        let cfg = TraceConfig { capacity: 2, window: 1, keep_slowest: 1, sample_every: 1 };
        let c = TraceCollector::new(&r, cfg);
        for i in 0..5u64 {
            c.offer(trace(i, 10));
        }
        let ids: Vec<u64> = c.traces().iter().map(|t| t.trace_id).collect();
        assert_eq!(ids, vec![3, 4]);
        assert_eq!(r.counter("obs.trace.dropped").get(), 3);
    }

    #[test]
    fn slowest_orders_by_duration() {
        let r = MetricsRegistry::new();
        let c = TraceCollector::new(&r, TraceConfig::default());
        for (id, us) in [(1, 50), (2, 500), (3, 5)] {
            c.offer(trace(id, us));
        }
        let top: Vec<u64> = c.slowest(2).iter().map(|t| t.trace_id).collect();
        assert_eq!(top, vec![2, 1]);
    }

    #[test]
    fn json_export_shape() {
        let t = FinishedTrace {
            trace_id: 0xabc,
            total_us: 9,
            spans: vec![
                TraceSpan {
                    name: "gateway",
                    start_us: 0,
                    end_us: 9,
                    shard: None,
                    batch_rows: None,
                },
                TraceSpan {
                    name: "drain",
                    start_us: 2,
                    end_us: 7,
                    shard: Some(1),
                    batch_rows: Some(4),
                },
            ],
        };
        let json = t.to_json();
        assert!(json.starts_with("{\"trace_id\":\"0000000000000abc\",\"total_us\":9,"), "{json}");
        assert!(json.contains("{\"name\":\"gateway\",\"start_us\":0,\"end_us\":9}"), "{json}");
        assert!(
            json.contains(
                "{\"name\":\"drain\",\"start_us\":2,\"end_us\":7,\"shard\":1,\"batch_rows\":4}"
            ),
            "{json}"
        );
    }

    #[test]
    fn trace_ids_are_unique_nonzero_and_reproducible() {
        let g = TraceIdGen::new(42);
        let ids: Vec<u64> = (0..1000).map(|_| g.next_id()).collect();
        let unique: std::collections::HashSet<u64> = ids.iter().copied().collect();
        assert_eq!(unique.len(), ids.len());
        assert!(ids.iter().all(|&i| i != 0));
        let g2 = TraceIdGen::new(42);
        assert_eq!(g2.next_id(), ids[0]);
    }

    #[test]
    fn wire_ids_round_trip() {
        for id in [1u64, 0xdead_beef, u64::MAX] {
            assert_eq!(parse_trace_id(&format_trace_id(id)), Some(id));
        }
        assert_eq!(parse_trace_id("0"), None);
        assert_eq!(parse_trace_id(""), None);
        assert_eq!(parse_trace_id("xyz"), None);
        assert_eq!(parse_trace_id("11112222333344445"), None); // 17 digits
    }
}
