//! # intellitag
//!
//! A from-scratch Rust reproduction of **"IntelliTag: An Intelligent Cloud
//! Customer Service System Based on Tag Recommendation"** (Yang et al.,
//! ICDE 2021, Ant Group).
//!
//! This facade crate re-exports the whole workspace:
//!
//! | module | contents |
//! |---|---|
//! | [`tensor`] | tape-based autograd engine (Matrix/Tensor/Param/AdamW) |
//! | [`nn`] | Linear, Embedding, MultiHeadAttention, Transformer, GRU |
//! | [`text`] | tokenizer, TF/IDF/PMI stats, DBSCAN, hashed embeddings |
//! | [`graph`] | the T/Q/E heterogeneous graph and its four metapaths |
//! | [`search`] | BM25 inverted index + KB warehouse (ElasticSearch stand-in) |
//! | [`datagen`] | the synthetic customer-service world and user simulator |
//! | [`mining`] | multi-task tag miner, rules, distillation, Q&A collection |
//! | [`baselines`] | GRU4Rec, SR-GNN, metapath2vec, BERT4Rec |
//! | [`eval`] | MRR/NDCG/HR, P/R/F1, CTR, HIR, latency accumulators |
//! | [`obs`] | metrics registry, latency histograms, span timing, exporters |
//! | [`core`] | the IntelliTag TagRec model, model server and A/B simulator |
//! | [`gateway`] | std-only HTTP/1.1 serving gateway, JSON codec, client |
//! | [`online`] | continuous training: click WAL, incremental trainer, snapshots, hot-swap |
//!
//! ## Quickstart
//!
//! ```no_run
//! use intellitag::prelude::*;
//!
//! // 1. A synthetic tenant/tag/session world (the proprietary-data stand-in).
//! let world = World::generate(WorldConfig::small(42));
//! let graph = world.build_graph();
//!
//! // 2. Train the paper's model on the click sessions.
//! let split = split_sessions(&world.sessions, 0);
//! let train: Vec<Vec<usize>> = split.train.iter().map(|s| s.clicks.clone()).collect();
//! let texts: Vec<String> = world.tags.iter().map(|t| t.text()).collect();
//! let model = IntelliTag::train(&graph, &texts, &train, TagRecConfig::default());
//!
//! // 3. Evaluate with the paper's 49-negative ranking protocol.
//! let test = sequence_examples(&split.test);
//! let report = evaluate_offline(&model, &test, &world, &ProtocolConfig::default());
//! println!("{}", report.table_row("IntelliTag"));
//! ```
//!
//! See `examples/` for runnable end-to-end scenarios and `crates/bench` for
//! the harnesses that regenerate every table and figure of the paper.

pub use intellitag_baselines as baselines;
pub use intellitag_core as core;
pub use intellitag_datagen as datagen;
pub use intellitag_eval as eval;
pub use intellitag_gateway as gateway;
pub use intellitag_graph as graph;
pub use intellitag_mining as mining;
pub use intellitag_nn as nn;
pub use intellitag_obs as obs;
pub use intellitag_online as online;
pub use intellitag_search as search;
pub use intellitag_tensor as tensor;
pub use intellitag_text as text;

/// One-stop imports for the common workflow.
pub mod prelude {
    pub use intellitag_baselines::{
        Bert4Rec, Gru4Rec, M2vConfig, Metapath2Vec, Popularity, SequenceRecommender, SrGnn,
        TrainConfig,
    };
    pub use intellitag_core::{
        evaluate_offline, simulate_online, Admission, Catalog, IntelliTag, ModelServer, ModelSwap,
        ProtocolConfig, Reply, Request, ShardConfig, ShardedServer, ShedReason, SimConfig,
        SwapPayload, TagRecConfig, TagService,
    };
    pub use intellitag_datagen::{
        labeled_sentences, sequence_examples, split_sessions, Session, UserModel, World,
        WorldConfig,
    };
    pub use intellitag_eval::{RankingAccumulator, RankingReport};
    pub use intellitag_gateway::{
        Completion, ErrorCode, ErrorFrame, EventSink, Gateway, GatewayClient, GatewayConfig,
        GatewayHandle, PipelinedClient, RecommendRequest, RecommendResponse, ReplyPayload,
    };
    pub use intellitag_graph::{HetGraph, Metapath, ALL_METAPATHS};
    pub use intellitag_mining::{
        evaluate_extractor, Extractor, MinerConfig, MiningTask, RuleFilter, TagMiner,
    };
    pub use intellitag_obs::{
        format_trace_id, parse_prometheus, parse_trace_id, render_prometheus, tenant_tier,
        FinishedTrace, Histogram, HistogramSnapshot, MetricsRegistry, SloReport, SpanTimer,
        TraceCollector, TraceConfig, TraceHandle, TraceIdGen,
    };
    pub use intellitag_online::{
        click_sessions, recover, ModelSnapshot, OnlineTrainer, SnapshotRegistry, TrainerConfig,
        WalEvent, WalSink, WalWriter,
    };
    pub use intellitag_search::KbWarehouse;
}
