//! # intellitag-nn
//!
//! Neural-network layers built on [`intellitag_tensor`]'s autograd tape:
//!
//! * [`Linear`] — affine layers.
//! * [`Embedding`] / [`PositionEmbedding`] — sparse-gradient lookup tables.
//! * [`MultiHeadAttention`], [`TransformerLayer`], [`TransformerEncoder`] —
//!   the sequence backbone used by BERT4Rec, the tag-mining model and
//!   IntelliTag's contextual attention (paper Eq. 8-11).
//! * [`Gru`] — the recurrent backbone of the GRU4Rec baseline.
//!
//! Layers register their parameters in a [`intellitag_tensor::ParamSet`]
//! (AdamW + linear decay, matching the paper's §VI-A4 training setup) and are
//! applied by building a fresh [`intellitag_tensor::Tape`] per forward pass.

#![warn(missing_docs)]

mod attention;
mod embedding;
mod gru;
mod linear;
mod transformer;

pub use attention::MultiHeadAttention;
pub use embedding::{Embedding, PositionEmbedding};
pub use gru::Gru;
pub use linear::Linear;
pub use transformer::{TransformerEncoder, TransformerLayer, LAYER_NORM_EPS};
