//! The tape-free forwards: the serving forward of the sequential layers
//! (Eq. 8-11) and the z-table refresh of the graph layers (Eq. 4-7).
//!
//! [`ServingPlan`] is to the sequence parameters what the z-table is to the
//! graph layers: everything that depends on the model version and not on the
//! request, computed once when the version is installed. Every weight sits
//! in the GEMM micro-kernel's packed panels (Q/K/V fused into one), the mask
//! embedding is pre-added to each position it can land on, and a click is
//! then gathers, a handful of `gemm_packed` calls and per-sequence attention
//! over buffers that live in a grow-only thread-local arena.
//!
//! [`GraphPlan`] builds the z-table itself: the graph parameters packed
//! once per refresh, tags embedded a fixed-size block at a time, so the
//! refresh's working set does not grow with the tag count.
//!
//! Both run on the calling thread only — shards are serving's parallel
//! axis — and reproduce the autograd forward in eval mode bit for bit
//! (DESIGN.md §11 "Serving forward" and "Graph refresh" give the argument;
//! the parity properties in `model.rs` and `graph_layers.rs` are the judge).

use std::cell::RefCell;

use intellitag_nn::{Linear, PositionEmbedding, TransformerEncoder, LAYER_NORM_EPS};
use intellitag_tensor::{
    gelu_in_place, gemm_packed, gemm_serial, leaky_relu, row_mean_inv_std, sigmoid,
    softmax_in_place, Matrix, PackedB, Param, Variant,
};

use crate::config::TagRecConfig;
use crate::graph_layers::LEAKY_SLOPE;

/// `y = x·W + b` with `W` packed once; several layers that read the same
/// input can share one panel set (their columns side by side).
struct PackedLinear {
    w: PackedB,
    b: Vec<f32>,
}

impl PackedLinear {
    /// One weight and its bias, as separate parameters.
    fn new(w: &Param, b: &Param) -> Self {
        let w = w.value();
        PackedLinear { w: PackedB::pack(w.rows(), w.cols(), w.data()), b: b.value().into_vec() }
    }

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
                let bias = l.b.as_ref().expect("the model builds every linear with a bias");
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

/// Tags one block of the graph refresh embeds together. Every buffer is
/// sized for one block, so the refresh's working set is the same at any tag
/// count; only the `tags x dim` table it returns grows.
const GRAPH_BLOCK: usize = 32;

/// The graph layers' parameters as the z-table refresh reads them, packed
/// once per refresh.
pub(crate) struct GraphPlan {
    dim: usize,
    heads: usize,
    /// Per metapath, the `2·dim x heads` neighbour-attention weights with
    /// head `h`'s `W_n` in column `h`. Empty w/o na.
    w_n: Vec<PackedB>,
    /// `h·W_p + b_p` and `v_p` (Eq. 6). `None` w/o ma.
    metapath: Option<(PackedLinear, PackedB)>,
    /// The `heads·dim -> dim` fusion (Eq. 7).
    out: PackedLinear,
    /// Longest neighbour list a tag can have on one metapath.
    max_neighbors: usize,
}

/// One block's buffers. Allocated per refresh at their largest size, so a
/// refresh's peak does not depend on which tags share a block.
struct GraphScratch {
    /// One row `[x_t | x_n]` per neighbour `n` of every tag in the block.
    pairs: Vec<f32>,
    /// `pairs · W_n`: one attention logit per neighbour and head.
    scores: Vec<f32>,
    /// One tag's attention weights, `heads x neighbours`.
    alpha: Vec<f32>,
    /// The metapath aggregates `h_ρ`, row `4·i + ρ` for the block's tag `i`.
    h: Vec<f32>,
    /// `tanh(h·W_p + b_p)`, row for row.
    proj: Vec<f32>,
    /// The four metapath weights of every tag.
    beta: Vec<f32>,
    /// The weighted sum of each tag's four aggregates.
    fused: Vec<f32>,
}

impl GraphPlan {
    /// `w_n` is `None` w/o na and `metapath` (`W_p`, `b_p`, `v_p`) is
    /// `None` w/o ma.
    pub(crate) fn build(
        dim: usize,
        heads: usize,
        w_n: Option<&[Vec<Param>]>,
        metapath: Option<(&Param, &Param, &Param)>,
        out: &Linear,
        max_neighbors: usize,
    ) -> Self {
        let w_n = w_n
            .into_iter()
            .flatten()
            .map(|per_head| {
                let cols: Vec<Matrix> = per_head.iter().map(Param::value).collect();
                let w = Matrix::concat_cols(&cols.iter().collect::<Vec<_>>());
                PackedB::pack(w.rows(), w.cols(), w.data())
            })
            .collect();
        let metapath = metapath.map(|(w_p, b_p, v_p)| {
            let v_p = v_p.value();
            (PackedLinear::new(w_p, b_p), PackedB::pack(v_p.rows(), v_p.cols(), v_p.data()))
        });
        GraphPlan { dim, heads, w_n, metapath, out: PackedLinear::pack(&[out]), max_neighbors }
    }

    /// The z-table: row `t` is `z_t` for the features `x` (one row per tag)
    /// and `neighbors[t]`, the tag's neighbour list per metapath.
    pub(crate) fn embed_all(&self, x: &Matrix, neighbors: &[[Vec<usize>; 4]]) -> Matrix {
        self.embed_blocks(x, neighbors, GRAPH_BLOCK)
    }

    /// [`GraphPlan::embed_all`] over blocks of `block` tags; tests vary it.
    pub(crate) fn embed_blocks(
        &self,
        x: &Matrix,
        neighbors: &[[Vec<usize>; 4]],
        block: usize,
    ) -> Matrix {
        let (d, md) = (self.dim, self.heads * self.dim);
        let rows = block * self.max_neighbors;
        let na = !self.w_n.is_empty();
        let mut s = GraphScratch {
            pairs: vec![0.0; if na { rows * 2 * d } else { 0 }],
            scores: vec![0.0; if na { rows * self.heads } else { 0 }],
            alpha: vec![0.0; if na { self.heads * self.max_neighbors } else { 0 }],
            h: vec![0.0; block * 4 * md],
            proj: vec![0.0; if self.metapath.is_some() { block * 4 * md } else { 0 }],
            beta: vec![0.0; block * 4],
            fused: vec![0.0; block * md],
        };
        let mut z = Matrix::zeros(neighbors.len(), d);
        for first in (0..neighbors.len()).step_by(block) {
            let tags = first..(first + block).min(neighbors.len());
            let n = tags.len();
            for mp in 0..4 {
                if na {
                    self.attend(x, neighbors, tags.clone(), mp, &mut s);
                } else {
                    self.average(x, neighbors, tags.clone(), mp, &mut s);
                }
            }

            // Eq. 6: β_ρ = softmax_ρ(v_p·tanh(W_p·h_ρ + b_p)), or uniform.
            let beta = &mut s.beta[..n * 4];
            match &self.metapath {
                Some((w_p, v_p)) => {
                    let proj = &mut s.proj[..n * 4 * md];
                    w_p.apply(n * 4, &s.h[..n * 4 * md], proj);
                    for v in proj.iter_mut() {
                        *v = v.tanh();
                    }
                    gemm_packed(n * 4, proj, md, v_p, beta, 1);
                    for row in beta.chunks_exact_mut(4) {
                        softmax_in_place(row);
                    }
                }
                None => beta.fill(0.25),
            }
            // Eq. 7: each tag's weights times its own four aggregates.
            for i in 0..n {
                let (w, h) = (&beta[i * 4..][..4], &s.h[i * 4 * md..][..4 * md]);
                gemm_serial(Variant::NN, 1, 4, md, w, 4, h, md, &mut s.fused[i * md..][..md], md);
            }
            // The fusion, then the residual from the tag's own features.
            let out = &mut z.data_mut()[first * d..(first + n) * d];
            self.out.apply(n, &s.fused[..n * md], out);
            for (row, t) in out.chunks_exact_mut(d).zip(tags) {
                for (o, &xv) in row.iter_mut().zip(x.row_slice(t)) {
                    *o += xv;
                }
            }
        }
        z
    }

    /// Eq. 4-5 for metapath `mp` of every tag in the block: per head,
    /// softmax-weighted neighbour features through a sigmoid, the heads
    /// side by side in `h`.
    fn attend(
        &self,
        x: &Matrix,
        neighbors: &[[Vec<usize>; 4]],
        tags: std::ops::Range<usize>,
        mp: usize,
        s: &mut GraphScratch,
    ) {
        let (d, heads, md) = (self.dim, self.heads, self.heads * self.dim);
        let mut rows = 0;
        for t in tags.clone() {
            for &nb in neighbor_ids(neighbors, &t, mp, self.max_neighbors) {
                let pair = &mut s.pairs[rows * 2 * d..][..2 * d];
                pair[..d].copy_from_slice(x.row_slice(t));
                pair[d..].copy_from_slice(x.row_slice(nb));
                rows += 1;
            }
        }
        gemm_packed(rows, &s.pairs, 2 * d, &self.w_n[mp], &mut s.scores[..rows * heads], heads);

        let mut first = 0;
        for (i, t) in tags.enumerate() {
            let k = neighbor_ids(neighbors, &t, mp, self.max_neighbors).len();
            let alpha = &mut s.alpha[..heads * k];
            for (h, weights) in alpha.chunks_exact_mut(k).enumerate() {
                for (j, w) in weights.iter_mut().enumerate() {
                    *w = leaky_relu(s.scores[(first + j) * heads + h], LEAKY_SLOPE);
                }
                softmax_in_place(weights);
            }
            // `heads x k` weights times the `k x d` neighbour half of the
            // pairs: head `h`'s output lands in columns `h·d..(h+1)·d`.
            let out = &mut s.h[(i * 4 + mp) * md..][..md];
            let x_nb = &s.pairs[first * 2 * d + d..];
            gemm_serial(Variant::NN, heads, k, d, alpha, k, x_nb, 2 * d, out, d);
            for v in out.iter_mut() {
                *v = sigmoid(*v);
            }
            first += k;
        }
    }

    /// The w/o-na ablation: the sigmoid of the neighbours' mean feature
    /// row, repeated once per head.
    fn average(
        &self,
        x: &Matrix,
        neighbors: &[[Vec<usize>; 4]],
        tags: std::ops::Range<usize>,
        mp: usize,
        s: &mut GraphScratch,
    ) {
        let (d, md) = (self.dim, self.heads * self.dim);
        for (i, t) in tags.enumerate() {
            let ids = neighbor_ids(neighbors, &t, mp, self.max_neighbors);
            let (mean, copies) = s.h[(i * 4 + mp) * md..][..md].split_at_mut(d);
            mean.fill(0.0);
            for &nb in ids {
                for (o, &v) in mean.iter_mut().zip(x.row_slice(nb)) {
                    *o += v;
                }
            }
            // `mean_rows` is `sum_rows` then `scale(1/k)`.
            let scale = 1.0 / ids.len() as f32;
            for v in mean.iter_mut() {
                *v = sigmoid(*v * scale);
            }
            for copy in copies.chunks_exact_mut(d) {
                copy.copy_from_slice(mean);
            }
        }
    }
}

/// The tags `t` aggregates along metapath `mp`: its neighbour list, or `t`
/// alone when the list is empty (the tape's self-loop fallback).
fn neighbor_ids<'a>(
    neighbors: &'a [[Vec<usize>; 4]],
    t: &'a usize,
    mp: usize,
    max: usize,
) -> &'a [usize] {
    let list = &neighbors[*t][mp];
    assert!(
        list.len() <= max,
        "tag {t} has {} neighbours on metapath {mp}, over {max}",
        list.len()
    );
    if list.is_empty() {
        std::slice::from_ref(t)
    } else {
        list
    }
}
