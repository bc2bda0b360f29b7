//! # intellitag-core
//!
//! The paper's primary contribution and serving system:
//!
//! * [`IntelliTag`] — the hierarchical TagRec model (§IV): shared graph
//!   layers (neighbor attention, Eq. 4-5; metapath attention, Eq. 6-7)
//!   feeding sequential Transformer layers with contextual attention
//!   (Eq. 8-11), trained end-to-end or step-by-step (`IntelliTag_st`).
//! * [`TagRecConfig`] — hyperparameters plus the Table V ablation switches.
//! * [`evaluate_offline`] — the 49-negative ranking protocol (§VI-A2)
//!   behind Tables IV/V and Fig. 6.
//! * [`ModelServer`] — the online request path of §V: BM25 recall + model
//!   re-rank, precomputed tag embeddings, cold-start fallbacks, and
//!   per-stage observability through `intellitag-obs` (span timing for
//!   recall/rerank/score/cache, error and cold-start counters, bounded
//!   latency histograms).
//! * [`ShardedServer`] — the sharded, batched serving front: N worker
//!   threads each owning a `ModelServer` replica, bounded request queues
//!   with overload shedding, per-shard labeled metrics, and response parity
//!   with the single-process server (pinned by `tests/sharded_parity.rs`).
//! * [`ModelSwap`] / [`SwapPayload`] — the epoch-fenced hot-swap mailbox:
//!   the online trainer publishes versioned snapshots and every shard
//!   worker installs them at a drain boundary, so no drain mixes model
//!   versions and serving never pauses (pinned by
//!   `tests/hot_swap_parity.rs`).
//! * [`TagService`] — the request surface both fronts implement: one
//!   [`Request`] type through one `submit`, with blocking calls on top, so
//!   the simulator, benches and examples swap fronts with one line.
//! * [`simulate_online`] — A/B traffic buckets measuring CTR (Fig. 7),
//!   HIR and latency (Table VI) against the simulated user population,
//!   publishing rolling `online.*` gauges into the shared registry.

#![warn(missing_docs)]

mod cache;
mod config;
mod experiment;
mod governor;
mod graph_layers;
mod model;
mod plan;
mod qa_matcher;
mod serving;
mod sharded;
mod simulator;

pub use cache::ResponseCache;
pub use config::{TagRecConfig, TrainConfig};
pub use experiment::{evaluate_offline, ProtocolConfig};
pub use governor::{Decision, Governor, GovernorConfig, GovernorRuntime, KnobBounds, Observation};
pub use graph_layers::GraphLayers;
pub use model::IntelliTag;
pub use qa_matcher::{QaMatcher, QaMatcherConfig};
pub use serving::{
    Admission, Completion, CompletionQueue, ModelServer, QuestionResponse, Reply, Request,
    TagClickResponse, TagService, RECENT_LATENCY_WINDOW,
};
pub use sharded::{ModelSwap, RuntimeKnobs, ShardConfig, ShardedServer, ShedReason, SwapPayload};
pub use simulator::{simulate_online, DayMetrics, SimConfig, SimOutcome};
