//! Offline stand-in for `serde`: the trait names and the derive names, so
//! `use serde::{Deserialize, Serialize}` plus `#[derive(..)]` compiles.
//! Nothing in the benchmarked build serialises through serde.

pub use serde_derive::{Deserialize, Serialize};

/// Marker with serde's name; the no-op derive does not implement it.
pub trait Serialize {}

/// Marker with serde's name; the no-op derive does not implement it.
pub trait Deserialize<'de>: Sized {}
