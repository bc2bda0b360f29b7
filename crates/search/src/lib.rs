//! # intellitag-search
//!
//! The retrieval substrate of the IntelliTag reproduction — the offline
//! stand-in for ElasticSearch and the KB document warehouse of the deployed
//! system (paper §V-A):
//!
//! * [`InvertedIndex`] — an in-memory inverted index with BM25 ranking
//!   (ES-default `k1 = 1.2`, `b = 0.75`).
//! * [`KbWarehouse`] — the Q&A pair store with tenant-scoped recall, used by
//!   the model server for both the Q&A dialogue path and the predicted-
//!   question path after tag clicks.

#![warn(missing_docs)]

mod index;
mod warehouse;

pub use index::{Hit, InvertedIndex};
pub use warehouse::{KbWarehouse, QaPair};
