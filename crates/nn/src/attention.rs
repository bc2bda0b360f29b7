//! Multi-head scaled-dot-product self-attention (paper Eq. 9's `MultiHead`).

use intellitag_tensor::{Matrix, ParamSet, Tape, Tensor};
use rand::Rng;

use crate::linear::Linear;

/// Multi-head self-attention over an `N x d` sequence.
pub struct MultiHeadAttention {
    wq: Linear,
    wk: Linear,
    wv: Linear,
    wo: Linear,
    heads: usize,
    dim: usize,
    /// Dropout applied to the attention probabilities during training.
    pub attn_dropout: f32,
}

impl MultiHeadAttention {
    /// Creates the four projection layers.
    ///
    /// # Panics
    /// Panics unless `dim` is divisible by `heads`.
    pub fn new<R: Rng>(
        name: &str,
        dim: usize,
        heads: usize,
        params: &mut ParamSet,
        rng: &mut R,
    ) -> Self {
        assert!(heads > 0 && dim.is_multiple_of(heads), "dim {dim} must divide into {heads} heads");
        MultiHeadAttention {
            wq: Linear::new(&format!("{name}.wq"), dim, dim, true, params, rng),
            wk: Linear::new(&format!("{name}.wk"), dim, dim, true, params, rng),
            wv: Linear::new(&format!("{name}.wv"), dim, dim, true, params, rng),
            wo: Linear::new(&format!("{name}.wo"), dim, dim, true, params, rng),
            heads,
            dim,
            attn_dropout: 0.1,
        }
    }

    /// Self-attention; returns the output and per-head attention matrices
    /// (`N x N`, rows = query positions) for inspection (Fig. 5c/d).
    pub fn forward_with_attn(&self, tape: &Tape, x: &Tensor) -> (Tensor, Vec<Matrix>) {
        let mut maps = Vec::with_capacity(self.heads);
        let out = self.forward_inner(tape, x, None, Some(&mut maps));
        (out, maps)
    }

    /// Self-attention with an additive score mask (`N x N`): `0.0` where a
    /// query may attend, `-inf` where it may not. With a block-diagonal mask
    /// this makes a row-stacked batch of independent sequences bit-identical
    /// to running each sequence through [`Self::forward`] on its own: adding
    /// `0.0` leaves finite scores untouched, `exp(-inf)` contributes exactly
    /// `0.0` to softmax sums, and the GEMM engine's continuous ascending-k
    /// accumulation makes each exactly-zero probability a bit-preserving
    /// no-op in the probs-times-values product (whether the engine routes
    /// the mostly-zero stacked operand to its packed or its zero-skipping
    /// kernel — both share the accumulation order).
    pub fn forward_masked(&self, tape: &Tape, x: &Tensor, mask: &Tensor) -> Tensor {
        self.forward_inner(tape, x, Some(mask), None)
    }

    /// The shared body. Attention maps are copied out of the tape only when
    /// the caller passes somewhere to put them: a training step or a masked
    /// batch would throw an `N x N` clone per head per layer away.
    fn forward_inner(
        &self,
        tape: &Tape,
        x: &Tensor,
        mask: Option<&Tensor>,
        mut maps: Option<&mut Vec<Matrix>>,
    ) -> Tensor {
        assert_eq!(x.cols(), self.dim, "input width mismatch");
        let n = x.rows();
        if let Some(m) = mask {
            assert_eq!(m.shape(), (n, n), "mask must be N x N");
        }
        let dh = self.dim / self.heads;
        let q = self.wq.forward(tape, x);
        let k = self.wk.forward(tape, x);
        let v = self.wv.forward(tape, x);
        let scale = 1.0 / (dh as f32).sqrt();

        let mut head_outputs = Vec::with_capacity(self.heads);
        for h in 0..self.heads {
            let (lo, hi) = (h * dh, (h + 1) * dh);
            let qh = q.slice_cols(lo, hi);
            let kh = k.slice_cols(lo, hi);
            let vh = v.slice_cols(lo, hi);
            // Fused Q*K^T: one kernel, no materialized transpose.
            let mut scores = qh.matmul_nt(&kh).scale(scale); // N x N
            if let Some(m) = mask {
                scores = scores.add(m);
            }
            let probs = scores.softmax_rows();
            if let Some(maps) = maps.as_deref_mut() {
                maps.push(probs.value());
            }
            let probs = probs.dropout(self.attn_dropout);
            head_outputs.push(probs.matmul(&vh)); // N x dh
        }
        let concat = Tensor::concat_cols(&head_outputs);
        debug_assert_eq!(concat.shape(), (n, self.dim));
        self.wo.forward(tape, &concat)
    }

    /// Self-attention output only.
    pub fn forward(&self, tape: &Tape, x: &Tensor) -> Tensor {
        self.forward_inner(tape, x, None, None)
    }

    /// The query, key, value and output projections, in that order — what a
    /// tape-free forward needs to pack this layer's weights.
    pub fn projections(&self) -> [&Linear; 4] {
        [&self.wq, &self.wk, &self.wv, &self.wo]
    }

    /// Number of attention heads.
    pub fn heads(&self) -> usize {
        self.heads
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use intellitag_tensor::Matrix;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn mha(dim: usize, heads: usize) -> (MultiHeadAttention, ParamSet) {
        let mut rng = StdRng::seed_from_u64(3);
        let mut ps = ParamSet::new(1e-3);
        let m = MultiHeadAttention::new("attn", dim, heads, &mut ps, &mut rng);
        (m, ps)
    }

    #[test]
    fn output_shape_and_attention_rows() {
        let (m, _) = mha(8, 2);
        let tape = Tape::new();
        let mut rng = StdRng::seed_from_u64(9);
        let x = tape.constant(Matrix::uniform(5, 8, 1.0, &mut rng));
        let (y, attn) = m.forward_with_attn(&tape, &x);
        assert_eq!(y.shape(), (5, 8));
        assert_eq!(attn.len(), 2);
        for a in &attn {
            assert_eq!(a.shape(), (5, 5));
            for r in 0..5 {
                let s: f32 = a.row_slice(r).iter().sum();
                assert!((s - 1.0).abs() < 1e-4);
            }
        }
    }

    #[test]
    #[should_panic(expected = "must divide")]
    fn indivisible_heads_panics() {
        let _ = mha(7, 2);
    }

    #[test]
    fn gradients_flow_to_all_projections() {
        let (m, ps) = mha(4, 2);
        let tape = Tape::new();
        let mut rng = StdRng::seed_from_u64(1);
        let x = tape.constant(Matrix::uniform(3, 4, 1.0, &mut rng));
        let loss = m.forward(&tape, &x).mul(&m.forward(&tape, &x)).mean_all();
        loss.backward();
        for p in ps.params() {
            assert!(p.grad().norm() > 0.0, "no gradient reached {}", p.name());
        }
    }

    #[test]
    fn single_position_attends_to_itself() {
        let (m, _) = mha(4, 1);
        let tape = Tape::new();
        let x = tape.constant(Matrix::row(vec![0.3, -0.2, 0.5, 0.1]));
        let (_, attn) = m.forward_with_attn(&tape, &x);
        assert!((attn[0].get(0, 0) - 1.0).abs() < 1e-6);
    }
}
