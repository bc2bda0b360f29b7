//! # intellitag-obs
//!
//! Observability primitives for the IntelliTag serving stack. The paper's
//! online evaluation (§VI) is driven by operational metrics — CTR, HIR and a
//! hard "respond in under 150 ms" latency budget (Table VI) — and a system
//! serving heavy traffic needs to know *where* a request spends its time
//! (ES recall vs. Q&A rerank vs. model scoring), not just
//! the end-to-end number.
//!
//! Everything here is `std`-only (the build environment is offline) and
//! cheap enough for hot paths:
//!
//! * [`Counter`] / [`Gauge`] — lock-free atomics.
//! * [`Histogram`] — HDR-style buckets (16 linear sub-buckets per power of
//!   two): O(1) record, bounded memory ([`NUM_BUCKETS`] buckets regardless
//!   of sample count), p50/p90/p99 estimates within 6.25% relative error.
//! * [`SpanTimer`] / [`Span`] — per-stage wall-clock timing that records
//!   into a histogram on drop.
//! * [`MetricsRegistry`] — a cloneable handle mapping names to metrics,
//!   with Prometheus text exposition
//!   ([`MetricsRegistry::render_prometheus`]).
//! * Labeled series — [`labeled`] encodes `base{k="v"}` names so per-shard
//!   metrics (`sharded.request_us{shard="3"}`) render as proper Prometheus
//!   label sets; [`parse_prometheus`] is the scrape-side inverse and
//!   [`HistogramSnapshot::merge`] aggregates per-shard histograms into a
//!   whole-server view.
//! * Request tracing — [`TraceCtx`] / [`TraceHandle`] carry a per-request
//!   span list (stage name + start/end micros + shard/batch annotations)
//!   through the whole serving spine; [`TraceCollector`] retains the K
//!   slowest traces per window plus a 1-in-N sample and exports JSON lines.
//! * Continuous-training names — the WAL / trainer / hot-swap series
//!   ([`MODEL_VERSION_METRIC`], [`WAL_APPENDS_METRIC`], …) shared by the
//!   serving, gateway and online crates.

#![warn(missing_docs)]

mod export;
mod histogram;
mod metric;
mod online;
mod registry;
mod trace;

pub use export::{labeled, parse_prometheus, render_prometheus, MetricSample};
pub use histogram::{
    bucket_bounds, bucket_index_for_value, Histogram, HistogramSnapshot, Span, SpanTimer,
    NUM_BUCKETS, SUB_BUCKETS,
};
pub use metric::{Counter, Gauge};
pub use online::{
    MODEL_SWAPS_METRIC, MODEL_VERSION_METRIC, SNAPSHOT_VERSION_METRIC, TRAINER_EVENTS_METRIC,
    TRAINER_INCREMENTS_METRIC, WAL_APPENDS_METRIC, WAL_APPEND_ERRORS_METRIC, WAL_BYTES_METRIC,
    WAL_FSYNCS_METRIC, WAL_TRUNCATED_BYTES_METRIC,
};
pub use registry::{Metric, MetricsRegistry};
pub use trace::{
    format_trace_id, parse_trace_id, FinishedTrace, TraceCollector, TraceConfig, TraceCtx,
    TraceHandle, TraceIdGen, TraceSpan,
};
