//! The tape-free serving forward of the sequential layers (Eq. 8-11).
//!
//! [`ServingPlan`] is to the sequence parameters what the z-table is to the
//! graph layers: everything that depends on the model version and not on the
//! request, computed once when the version is installed. Every weight sits
//! in the GEMM micro-kernel's packed panels (Q/K/V fused into one), the mask
//! embedding is pre-added to each position it can land on, and a click is
//! then gathers, a handful of `gemm_packed` calls and per-sequence attention
//! over buffers that live in a grow-only thread-local arena.
//!
//! The forward runs on the calling thread only — shards are serving's
//! parallel axis — and reproduces the autograd forward in eval mode bit for
//! bit (DESIGN.md §11 "Serving forward" gives the argument; the parity
//! property in `model.rs` is the judge).

use std::cell::RefCell;

use intellitag_nn::{Linear, PositionEmbedding, TransformerEncoder, LAYER_NORM_EPS};
use intellitag_tensor::{
    gelu_in_place, gemm_packed, gemm_serial, row_mean_inv_std, softmax_in_place, Matrix, PackedB,
    Param, Variant,
};

use crate::config::TagRecConfig;

/// `y = x·W + b` with `W` packed once; several layers that read the same
/// input can share one panel set (their columns side by side).
struct PackedLinear {
    w: PackedB,
    b: Vec<f32>,
}

impl PackedLinear {
    fn pack(layers: &[&Linear]) -> Self {
        let fused = match layers {
            [one] => one.w.value(),
            many => {
                let weights: Vec<Matrix> = many.iter().map(|l| l.w.value()).collect();
                Matrix::concat_cols(&weights.iter().collect::<Vec<_>>())
            }
        };
        let b = layers
            .iter()
            .flat_map(|l| {
                let bias =
                    l.b.as_ref().expect("the sequence model builds every linear with a bias");
                bias.value().into_vec()
            })
            .collect();
        PackedLinear { w: PackedB::pack(fused.rows(), fused.cols(), fused.data()), b }
    }

    /// Overwrites `out` (`rows x n`, dense) with `x·W + b` for the first
    /// `rows` rows of the dense `x`.
    fn apply(&self, rows: usize, x: &[f32], out: &mut [f32]) {
        let n = self.w.n();
        gemm_packed(rows, x, self.w.k(), &self.w, out, n);
        for row in out[..rows * n].chunks_exact_mut(n) {
            for (o, &b) in row.iter_mut().zip(&self.b) {
                *o += b;
            }
        }
    }
}

struct LayerPlan {
    /// `dim x 3·dim`: `[Wq | Wk | Wv]`.
    qkv: PackedLinear,
    wo: PackedLinear,
    ff1: PackedLinear,
    ff2: PackedLinear,
    /// `(gamma, beta)` after attention and after the feed-forward block.
    norms: [(Vec<f32>, Vec<f32>); 2],
}

/// Buffers one forward writes; each only ever grows, so a thread that has
/// served its largest drain allocates nothing afterwards.
#[derive(Default)]
struct Scratch {
    /// Row offset of every sequence in the stacked batch, plus the total.
    starts: Vec<usize>,
    x: Vec<f32>,
    qkv: Vec<f32>,
    scores: Vec<f32>,
    attn: Vec<f32>,
    proj: Vec<f32>,
    ff: Vec<f32>,
    logits: Vec<f32>,
}

thread_local! {
    static SCRATCH: RefCell<Scratch> = RefCell::new(Scratch::default());
}

/// The first `len` elements of `buf`, growing it if it has never been that
/// long (contents are unspecified: every caller overwrites them).
fn grown(buf: &mut Vec<f32>, len: usize) -> &mut [f32] {
    if buf.len() < len {
        buf.resize(len, 0.0);
    }
    &mut buf[..len]
}

/// `x[r] = LayerNorm(x[r] + delta[r])` for dense `dim`-wide rows.
fn add_and_norm(x: &mut [f32], delta: &[f32], dim: usize, (gamma, beta): &(Vec<f32>, Vec<f32>)) {
    for (row, drow) in x.chunks_exact_mut(dim).zip(delta.chunks_exact(dim)) {
        for (v, &d) in row.iter_mut().zip(drow) {
            *v += d;
        }
        let (mean, inv) = row_mean_inv_std(row, LAYER_NORM_EPS);
        for ((v, &g), &b) in row.iter_mut().zip(gamma).zip(beta) {
            *v = g * ((*v - mean) * inv) + b;
        }
    }
}

/// Moves the given `dim`-wide rows of `x` (ascending) to rows `0, 1, ..`.
fn keep_rows(x: &mut [f32], dim: usize, rows: impl Iterator<Item = usize>) {
    for (to, from) in rows.enumerate() {
        x.copy_within(from * dim..(from + 1) * dim, to * dim);
    }
}

/// Per-version constants of the sequential layers, ready for the
/// micro-kernel. Built wherever the z-table is refreshed.
pub(crate) struct ServingPlan {
    dim: usize,
    heads: usize,
    /// Ablation w/o ca: skip the encoder, predict from the last click's row.
    contextual: bool,
    /// `max_positions x dim` position table.
    pos: Matrix,
    /// Row `n` is `mask_emb + pos[n]`: the prediction slot after `n` clicks.
    mask_at: Matrix,
    layers: Vec<LayerPlan>,
    out: PackedLinear,
}

impl ServingPlan {
    pub(crate) fn build(
        cfg: &TagRecConfig,
        pos: &PositionEmbedding,
        mask_emb: &Param,
        encoder: &TransformerEncoder,
        out: &Linear,
    ) -> Self {
        let pos = pos.snapshot();
        let mask = mask_emb.value();
        let mut mask_at = pos.clone();
        for r in 0..mask_at.rows() {
            for (slot, &m) in mask_at.row_slice_mut(r).iter_mut().zip(mask.data()) {
                *slot += m;
            }
        }
        let layers = encoder
            .layers()
            .iter()
            .map(|layer| {
                let [wq, wk, wv, wo] = layer.attention().projections();
                let (ff1, ff2) = layer.feed_forward();
                LayerPlan {
                    qkv: PackedLinear::pack(&[wq, wk, wv]),
                    wo: PackedLinear::pack(&[wo]),
                    ff1: PackedLinear::pack(&[ff1]),
                    ff2: PackedLinear::pack(&[ff2]),
                    norms: layer.norms().map(|(g, b)| (g.value().into_vec(), b.value().into_vec())),
                }
            })
            .collect();
        ServingPlan {
            dim: cfg.dim,
            heads: cfg.heads,
            contextual: cfg.use_contextual_attention,
            pos,
            mask_at,
            layers,
            out: PackedLinear::pack(&[out]),
        }
    }

    /// Scores every tag for each context (non-empty, already clipped to the
    /// position table) and hands `read` the `contexts x num_tags` logits,
    /// one dense row per context in order.
    pub(crate) fn with_logits<'a, R>(
        &self,
        z: &Matrix,
        contexts: impl Iterator<Item = &'a [usize]>,
        read: impl FnOnce(&[f32]) -> R,
    ) -> R {
        SCRATCH.with(|scratch| {
            let s = &mut *scratch.borrow_mut();
            let batch = self.forward(z, contexts, s);
            read(&s.logits[..batch * self.out.w.n()])
        })
    }

    /// Leaves the logits in `s.logits`; returns the number of contexts.
    fn forward<'a>(
        &self,
        z: &Matrix,
        contexts: impl Iterator<Item = &'a [usize]>,
        s: &mut Scratch,
    ) -> usize {
        let d = self.dim;
        // Gather `[z[ctx] + pos; mask + pos[n]]` per context, row-stacked.
        s.starts.clear();
        let mut rows = 0;
        for ctx in contexts {
            let n = ctx.len();
            assert!(n > 0 && n < self.pos.rows(), "contexts must be non-empty and pre-clipped");
            s.starts.push(rows);
            let block = &mut grown(&mut s.x, (rows + n + 1) * d)[rows * d..];
            for ((dst, &tag), j) in block.chunks_exact_mut(d).zip(ctx).zip(0..) {
                for ((o, &zv), &pv) in
                    dst.iter_mut().zip(z.row_slice(tag)).zip(self.pos.row_slice(j))
                {
                    *o = zv + pv;
                }
            }
            block[n * d..].copy_from_slice(self.mask_at.row_slice(n));
            rows += n + 1;
        }
        s.starts.push(rows);
        let batch = s.starts.len() - 1;

        // Only one row per context predicts: the mask slot, or (w/o ca,
        // where no information flows between positions) the last click. The
        // last encoder layer moves those rows to the front of `s.x`.
        if self.contextual {
            for (l, layer) in self.layers.iter().enumerate() {
                self.layer_forward(layer, l + 1 == self.layers.len(), s);
            }
        } else {
            keep_rows(&mut s.x, d, s.starts.windows(2).map(|w| w[1] - 2));
        }
        self.out.apply(batch, &s.x[..batch * d], grown(&mut s.logits, batch * self.out.w.n()));
        batch
    }

    /// One post-norm encoder layer over the stacked rows in `s.x`. Row-local
    /// work runs over the whole stack so the 8-row tiles fill; attention
    /// runs per sequence block, so no score ever crosses a sequence and no
    /// mask is needed. Nothing reads the `last` layer's non-predicting rows,
    /// so there only each sequence's mask slot queries, and the row-local
    /// work after attention runs on those rows alone.
    fn layer_forward(&self, layer: &LayerPlan, last: bool, s: &mut Scratch) {
        let (d, dh) = (self.dim, self.dim / self.heads);
        let scale = 1.0 / (dh as f32).sqrt();
        let batch = s.starts.len() - 1;
        let mut rows = s.starts[batch];

        let qkv = grown(&mut s.qkv, rows * 3 * d);
        layer.qkv.apply(rows, &s.x[..rows * d], qkv);
        let attn = grown(&mut s.attn, rows * d);
        for (i, w) in s.starts.windows(2).enumerate() {
            let (first, m) = (w[0], w[1] - w[0]);
            // Query rows of this block, and where their output rows go.
            let (q_first, q_rows, out_first) =
                if last { (w[1] - 1, 1, i) } else { (first, m, first) };
            let scores = grown(&mut s.scores, q_rows * m);
            for h in 0..self.heads {
                // Head `h` of Q, K or V: a `len x dh` window into the fused
                // projection, row stride `3·dim`.
                let head = |part: usize, row: usize, len: usize| {
                    let at = row * 3 * d + part * d + h * dh;
                    &qkv[at..at + (len - 1) * 3 * d + dh]
                };
                let (q, k, v) = (head(0, q_first, q_rows), head(1, first, m), head(2, first, m));
                gemm_serial(Variant::NT, q_rows, dh, m, q, 3 * d, k, 3 * d, scores, m);
                for v in scores.iter_mut() {
                    *v *= scale;
                }
                for row in scores.chunks_exact_mut(m) {
                    softmax_in_place(row);
                }
                let out = &mut attn[out_first * d + h * dh..(out_first + q_rows) * d];
                gemm_serial(Variant::NN, q_rows, m, dh, scores, m, v, 3 * d, out, d);
            }
        }
        if last {
            keep_rows(&mut s.x, d, s.starts.windows(2).map(|w| w[1] - 1));
            rows = batch;
        }
        let (x, attn) = (&mut s.x[..rows * d], &attn[..rows * d]);
        let proj = grown(&mut s.proj, rows * d);
        layer.wo.apply(rows, attn, proj);
        add_and_norm(x, proj, d, &layer.norms[0]);

        let ff = grown(&mut s.ff, rows * layer.ff1.w.n());
        layer.ff1.apply(rows, x, ff);
        gelu_in_place(ff);
        layer.ff2.apply(rows, ff, proj);
        add_and_norm(x, proj, d, &layer.norms[1]);
    }
}
