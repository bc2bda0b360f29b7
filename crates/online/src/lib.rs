//! # intellitag-online
//!
//! The continuous-training subsystem: the loop that closes
//! simulator → gateway → event log → trainer → serving, so the model a
//! tenant talks to this minute was trained on clicks from the last one —
//! the "online learning" half of the paper's deployment story that the
//! offline T+1 pipeline (`tests/t_plus_one.rs`) leaves open.
//!
//! Four pieces, one per module:
//!
//! * [`wal`] — an append-only, checksummed click/question event log
//!   ([`WalWriter`] / [`recover`]). Records reuse the gateway wire
//!   protocol's LEB128 varints; appends are fsync-batched; recovery
//!   truncates torn tails to the longest valid prefix (pinned at every
//!   byte offset by `tests/wal_recovery.rs`).
//! * [`sink`] — [`WalSink`], the gateway [`EventSink`] that feeds the log
//!   from the serving path, best-effort and non-blocking.
//! * [`trainer`] — [`OnlineTrainer`], which tails the WAL in batches and
//!   folds them into the model with deterministic increments.
//! * [`snapshot`] — versioned, checksummed model snapshots
//!   ([`ModelSnapshot`]) and the [`SnapshotRegistry`] that assigns
//!   monotonic versions; each snapshot converts to a
//!   [`SwapPayload`](intellitag_core::SwapPayload) published to the
//!   sharded front's epoch-fenced [`ModelSwap`](intellitag_core::ModelSwap)
//!   mailbox for zero-downtime hot-swap (pinned by
//!   `tests/hot_swap_parity.rs`).
//!
//! Everything publishes into the shared `MetricsRegistry`: `wal.*`
//! (appends, bytes, fsyncs, truncated bytes, append errors), `trainer.*`
//! (increments, events consumed, snapshot version) and the serving side's
//! `serving.model_version` / `serving.swaps`.
//!
//! [`EventSink`]: intellitag_gateway::EventSink

#![warn(missing_docs)]

pub mod sink;
pub mod snapshot;
pub mod temp_dir;
pub mod trainer;
pub mod wal;

pub use sink::WalSink;
pub use snapshot::{ModelSnapshot, SnapshotRegistry, SNAPSHOT_MAGIC};
pub use temp_dir::TempDir;
pub use trainer::{OnlineTrainer, TrainerConfig};
pub use wal::{
    click_sessions, crc32, decode_all, decode_records, recover, Recovered, WalEvent, WalWriter,
    MAX_RECORD_BYTES, WAL_MAGIC,
};
