//! # intellitag-tensor
//!
//! A small, auditable tape-based autograd engine written for the IntelliTag
//! (ICDE 2021) reproduction. The paper's models were implemented in PyTorch;
//! no deep-learning crates are available offline, so this crate provides the
//! numeric substrate from scratch:
//!
//! * [`Matrix`] — dense row-major `f32` matrices with the raw kernels
//!   (matmul, softmax, layer-norm statistics, ...).
//! * [`Tape`] / [`Tensor`] — an eager autograd tape. Build one tape per
//!   forward pass; call [`Tensor::backward`] on a scalar loss.
//! * [`Param`] / [`ParamSet`] — trainable parameters living outside the tape,
//!   updated with AdamW + linear learning-rate decay (the paper's optimizer
//!   configuration, §VI-A4).
//! * [`gradcheck`] — numeric gradient checking used throughout the test
//!   suites.
//! * [`kernel`] — the packed, cache-blocked, register-tiled GEMM engine
//!   every matmul variant (NN/TN/NT) funnels through: one micro-kernel,
//!   variants expressed as packing-order differences, AVX2+FMA
//!   multiversioned via `#[target_feature]` with a portable fallback.
//!
//! Every kernel runs on the thread that calls it; the crate spawns no
//! thread. Serving scales by shards, each running its own forwards.
//!
//! ## Example
//!
//! ```
//! use intellitag_tensor::{Matrix, Param, ParamSet, Tape};
//!
//! // Fit y = 2x with a single weight.
//! let w = Param::new("w", Matrix::row(vec![0.0]));
//! let mut opt = ParamSet::new(0.05);
//! opt.weight_decay = 0.0;
//! opt.register(w.clone());
//! for _ in 0..200 {
//!     let tape = Tape::new();
//!     let x = tape.constant(Matrix::row(vec![3.0]));
//!     let y = x.mul(&tape.param(&w));
//!     let loss = y.mse(&Matrix::row(vec![6.0]));
//!     loss.backward();
//!     opt.step(1.0);
//! }
//! assert!((w.value().get(0, 0) - 2.0).abs() < 1e-2);
//! ```

#![warn(missing_docs)]

mod gelu;
mod io;
mod matrix;
mod ops;
mod param;
mod tape;

pub mod gradcheck;
pub mod kernel;

pub use gelu::gelu_in_place;
pub use io::{read_matrix, write_matrix, Snapshot};
pub use kernel::{
    fma_enabled, gemm, gemm_packed, gemm_serial, naive_gemm, set_gemm_axis, PackedB, ParAxis,
    Variant,
};
pub use matrix::{dot, leaky_relu, row_mean_inv_std, sigmoid, softmax_in_place, Matrix};
pub use param::{Param, ParamSet};
pub use tape::{Tape, Tensor};

/// Threads a kernel runs on: always 1.
/// Kept for the frozen benchmark until ROADMAP item 2(a) re-points its walk.
pub fn pool_threads() -> usize {
    1
}

/// Work above which a kernel would fork: never.
/// Kept for the frozen benchmark until ROADMAP item 2(a) re-points its walk.
pub fn par_threshold() -> usize {
    usize::MAX
}

/// `(parallel, serial)` pool dispatches: always `(0, 0)`.
/// Kept for the frozen benchmark until ROADMAP item 2(a) re-points its walk.
pub fn pool_dispatch_stats() -> (usize, usize) {
    (0, 0)
}
