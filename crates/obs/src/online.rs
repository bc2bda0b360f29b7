//! Metric names for the continuous-training loop (WAL → incremental
//! trainer → snapshot registry → hot-swap).
//!
//! The loop spans three crates — `intellitag-core` (serving replicas apply
//! swaps), `intellitag-gateway` (event ingestion) and `intellitag-online`
//! (WAL, trainer, registry) — all publishing into one shared
//! [`crate::MetricsRegistry`]. Naming the series here keeps producers and
//! dashboards agreeing on spelling without cross-crate string literals.

/// Gauge: snapshot version currently installed in the serving replicas
/// (0 until a published snapshot has been swapped in).
pub const MODEL_VERSION_METRIC: &str = "serving.model_version";

/// Counter: model hot-swaps applied by serving replicas at drain
/// boundaries (one tick per replica per applied snapshot).
pub const MODEL_SWAPS_METRIC: &str = "serving.swaps";

/// Counter: records appended to the click-event WAL.
pub const WAL_APPENDS_METRIC: &str = "wal.appends";

/// Counter: bytes appended to the WAL (framing included).
pub const WAL_BYTES_METRIC: &str = "wal.bytes";

/// Counter: fsync batches flushed by the WAL writer.
pub const WAL_FSYNCS_METRIC: &str = "wal.fsyncs";

/// Counter: torn/corrupt tail bytes truncated during WAL recovery.
pub const WAL_TRUNCATED_BYTES_METRIC: &str = "wal.truncated_bytes";

/// Counter: WAL appends dropped because the log could not be written (the
/// serving path never blocks on a failing disk).
pub const WAL_APPEND_ERRORS_METRIC: &str = "wal.append_errors";

/// Counter: training increments completed by the online trainer.
pub const TRAINER_INCREMENTS_METRIC: &str = "trainer.increments";

/// Counter: WAL events consumed by the online trainer.
pub const TRAINER_EVENTS_METRIC: &str = "trainer.events_consumed";

/// Gauge: latest snapshot version published to the registry (leads
/// [`MODEL_VERSION_METRIC`] until every replica has crossed its next drain
/// boundary).
pub const SNAPSHOT_VERSION_METRIC: &str = "trainer.snapshot_version";
