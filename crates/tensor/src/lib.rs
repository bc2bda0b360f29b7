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
//! * [`pool`] — a std-only persistent worker pool behind the hot kernels.
//!   Work splits over disjoint row chunks ([`pool::par_rows`]) or disjoint
//!   output tiles ([`pool::par_tiles`], the GEMM column axis); every
//!   element keeps a fixed serial reduction order, so results are
//!   bit-identical to the serial kernels for every pool size.
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
pub mod pool;

pub use gelu::gelu_in_place;
pub use io::{read_matrix, write_matrix, Snapshot};
pub use kernel::{
    fma_enabled, gemm, gemm_packed, gemm_par_threshold, gemm_plan, gemm_serial, naive_gemm,
    set_gemm_axis, PackedB, ParAxis, Plan, Variant,
};
pub use matrix::{dot, row_mean_inv_std, softmax_in_place, Matrix};
pub use param::{Param, ParamSet};
pub use pool::{
    hardware_threads, par_rows, par_rows_mut, par_threshold, par_tiles, pool_dispatch_stats,
    pool_threads, set_par_threshold, set_pool_threads, DEFAULT_PAR_THRESHOLD,
};
pub use tape::{Tape, Tensor};
