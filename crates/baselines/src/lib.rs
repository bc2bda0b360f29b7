//! # intellitag-baselines
//!
//! The four baseline recommenders the paper compares against (§VI-A4), all
//! implemented from scratch on the project's autograd engine:
//!
//! * [`Gru4Rec`] — GRU sequence model (Jannach & Ludewig, 2017).
//! * [`SrGnn`] — session-graph gated GNN (Wu et al., 2019).
//! * [`Metapath2Vec`] — unsupervised heterogeneous-graph embeddings
//!   (Dong et al., 2017); scores by last-click similarity only.
//! * [`Bert4Rec`] — bidirectional Transformer with cloze training
//!   (Sun et al., 2019).
//!
//! Everything implements [`SequenceRecommender`], the interface the offline
//! evaluation (Table IV), the ablations (Table V) and the online simulator
//! (Fig. 7 / Table VI) consume. [`Popularity`] is the deployed cold-start
//! fallback.

#![warn(missing_docs)]

mod bert4rec;
mod gru4rec;
mod metapath2vec;
mod recommender;
mod srgnn;

pub use bert4rec::Bert4Rec;
pub use gru4rec::Gru4Rec;
pub use metapath2vec::{M2vConfig, Metapath2Vec};
pub use recommender::{Popularity, SequenceRecommender, TrainConfig};
pub use srgnn::SrGnn;
