//! Transformer encoder layers (paper Eq. 9-10).
//!
//! Each layer computes, exactly as the paper writes it:
//!
//! ```text
//! A      = Norm(X + Dropout(MultiHead(X)))        (Eq. 9)
//! X_next = Norm(A + Dropout(FFN(A)))              (Eq. 10)
//! ```

use intellitag_tensor::{Matrix, Param, ParamSet, Tape, Tensor};
use rand::Rng;

use crate::attention::MultiHeadAttention;
use crate::linear::Linear;

/// The variance floor both layer norms of a [`TransformerLayer`] use.
pub const LAYER_NORM_EPS: f32 = 1e-5;

/// One post-norm Transformer encoder layer.
pub struct TransformerLayer {
    attn: MultiHeadAttention,
    ff1: Linear,
    ff2: Linear,
    norm1_gamma: Param,
    norm1_beta: Param,
    norm2_gamma: Param,
    norm2_beta: Param,
    /// Residual-path dropout probability.
    pub dropout: f32,
}

impl TransformerLayer {
    /// Creates a layer with an FFN expansion factor of 4 (standard BERT).
    pub fn new<R: Rng>(
        name: &str,
        dim: usize,
        heads: usize,
        params: &mut ParamSet,
        rng: &mut R,
    ) -> Self {
        TransformerLayer {
            attn: MultiHeadAttention::new(&format!("{name}.attn"), dim, heads, params, rng),
            ff1: Linear::new(&format!("{name}.ff1"), dim, dim * 4, true, params, rng),
            ff2: Linear::new(&format!("{name}.ff2"), dim * 4, dim, true, params, rng),
            norm1_gamma: params
                .register(Param::new(format!("{name}.n1g"), Matrix::full(1, dim, 1.0))),
            norm1_beta: params.register(Param::zeros(format!("{name}.n1b"), 1, dim)),
            norm2_gamma: params
                .register(Param::new(format!("{name}.n2g"), Matrix::full(1, dim, 1.0))),
            norm2_beta: params.register(Param::zeros(format!("{name}.n2b"), 1, dim)),
            dropout: 0.1,
        }
    }

    /// Applies the layer.
    pub fn forward(&self, tape: &Tape, x: &Tensor) -> Tensor {
        let attn_out = self.attn.forward(tape, x);
        self.post_attention(tape, x, &attn_out)
    }

    /// Applies the layer; also returns the per-head attention matrices.
    pub fn forward_with_attn(&self, tape: &Tape, x: &Tensor) -> (Tensor, Vec<Matrix>) {
        let (attn_out, attn_w) = self.attn.forward_with_attn(tape, x);
        (self.post_attention(tape, x, &attn_out), attn_w)
    }

    /// Applies the layer with an additive attention mask (see
    /// [`MultiHeadAttention::forward_masked`]). Everything outside attention
    /// is row-local, so a block-diagonal mask keeps stacked sequences
    /// bit-identical to serial per-sequence forwards.
    pub fn forward_masked(&self, tape: &Tape, x: &Tensor, mask: &Tensor) -> Tensor {
        let attn_out = self.attn.forward_masked(tape, x, mask);
        self.post_attention(tape, x, &attn_out)
    }

    fn post_attention(&self, tape: &Tape, x: &Tensor, attn_out: &Tensor) -> Tensor {
        let a = x.add(&attn_out.dropout(self.dropout)).layer_norm(
            &tape.param(&self.norm1_gamma),
            &tape.param(&self.norm1_beta),
            LAYER_NORM_EPS,
        );
        let ffn = self.ff2.forward(tape, &self.ff1.forward(tape, &a).gelu());
        a.add(&ffn.dropout(self.dropout)).layer_norm(
            &tape.param(&self.norm2_gamma),
            &tape.param(&self.norm2_beta),
            LAYER_NORM_EPS,
        )
    }

    /// The attention block.
    pub fn attention(&self) -> &MultiHeadAttention {
        &self.attn
    }

    /// The feed-forward block's expansion and contraction layers.
    pub fn feed_forward(&self) -> (&Linear, &Linear) {
        (&self.ff1, &self.ff2)
    }

    /// `(gamma, beta)` of the post-attention and post-FFN layer norms.
    pub fn norms(&self) -> [(&Param, &Param); 2] {
        [(&self.norm1_gamma, &self.norm1_beta), (&self.norm2_gamma, &self.norm2_beta)]
    }
}

/// A stack of [`TransformerLayer`]s.
pub struct TransformerEncoder {
    layers: Vec<TransformerLayer>,
    dim: usize,
}

impl TransformerEncoder {
    /// Builds `num_layers` layers of width `dim` with `heads` heads each.
    pub fn new<R: Rng>(
        name: &str,
        num_layers: usize,
        dim: usize,
        heads: usize,
        params: &mut ParamSet,
        rng: &mut R,
    ) -> Self {
        let layers = (0..num_layers)
            .map(|l| TransformerLayer::new(&format!("{name}.layer{l}"), dim, heads, params, rng))
            .collect();
        TransformerEncoder { layers, dim }
    }

    /// Encodes an `N x dim` sequence.
    pub fn forward(&self, tape: &Tape, x: &Tensor) -> Tensor {
        assert_eq!(x.cols(), self.dim, "input width mismatch");
        self.layers.iter().fold(x.clone(), |h, layer| layer.forward(tape, &h))
    }

    /// Encodes and returns attention matrices per layer, per head
    /// (used to draw the paper's Fig. 5c/d heat maps).
    pub fn forward_with_attn(&self, tape: &Tape, x: &Tensor) -> (Tensor, Vec<Vec<Matrix>>) {
        assert_eq!(x.cols(), self.dim, "input width mismatch");
        let mut h = x.clone();
        let mut all = Vec::with_capacity(self.layers.len());
        for layer in &self.layers {
            let (next, attn) = layer.forward_with_attn(tape, &h);
            all.push(attn);
            h = next;
        }
        (h, all)
    }

    /// Encodes `N x dim` input under an additive `N x N` attention mask.
    ///
    /// With `Matrix::block_diag_mask`, this runs a row-stacked batch of
    /// independent sequences through one forward while keeping every output
    /// row bit-identical to the corresponding serial [`Self::forward`].
    pub fn forward_masked(&self, tape: &Tape, x: &Tensor, mask: &Tensor) -> Tensor {
        assert_eq!(x.cols(), self.dim, "input width mismatch");
        let mut h = x.clone();
        for layer in &self.layers {
            h = layer.forward_masked(tape, &h, mask);
        }
        h
    }

    /// The stacked layers, first to last.
    pub fn layers(&self) -> &[TransformerLayer] {
        &self.layers
    }

    /// Number of stacked layers.
    pub fn num_layers(&self) -> usize {
        self.layers.len()
    }

    /// Model width.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Sets the dropout probability on every layer and its attention.
    pub fn set_dropout(&mut self, p: f32) {
        for l in &mut self.layers {
            l.dropout = p;
            l.attn.attn_dropout = p;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn encoder_shapes_and_attn_structure() {
        let mut rng = StdRng::seed_from_u64(4);
        let mut ps = ParamSet::new(1e-3);
        let enc = TransformerEncoder::new("enc", 2, 8, 4, &mut ps, &mut rng);
        let tape = Tape::new();
        let x = tape.constant(Matrix::uniform(6, 8, 1.0, &mut rng));
        let (y, attn) = enc.forward_with_attn(&tape, &x);
        assert_eq!(y.shape(), (6, 8));
        assert_eq!(attn.len(), 2); // layers
        assert_eq!(attn[0].len(), 4); // heads
        assert_eq!(attn[0][0].shape(), (6, 6));
    }

    #[test]
    fn encoder_output_is_normalized_rows() {
        let mut rng = StdRng::seed_from_u64(5);
        let mut ps = ParamSet::new(1e-3);
        let enc = TransformerEncoder::new("enc", 1, 8, 2, &mut ps, &mut rng);
        let tape = Tape::new();
        let x = tape.constant(Matrix::uniform(3, 8, 2.0, &mut rng));
        let y = enc.forward(&tape, &x).value();
        for r in 0..3 {
            let mean: f32 = y.row_slice(r).iter().sum::<f32>() / 8.0;
            assert!(mean.abs() < 1e-4, "post-norm output rows should be centered");
        }
    }

    #[test]
    fn gradients_reach_every_parameter() {
        let mut rng = StdRng::seed_from_u64(6);
        let mut ps = ParamSet::new(1e-3);
        let enc = TransformerEncoder::new("enc", 2, 4, 2, &mut ps, &mut rng);
        let tape = Tape::new();
        let x = tape.constant(Matrix::uniform(4, 4, 1.0, &mut rng));
        let y = enc.forward(&tape, &x);
        let loss = y.mul(&y).mean_all();
        loss.backward();
        let dead: Vec<String> =
            ps.params().iter().filter(|p| p.grad().norm() == 0.0).map(|p| p.name()).collect();
        assert!(dead.is_empty(), "parameters with zero gradient: {dead:?}");
    }

    #[test]
    fn block_diag_masked_batch_is_bit_exact_with_serial() {
        // The whole point of the batched scoring path: stacking independent
        // sequences under a block-diagonal mask must reproduce each serial
        // forward *bitwise*, not just approximately.
        let mut rng = StdRng::seed_from_u64(11);
        let mut ps = ParamSet::new(1e-3);
        let enc = TransformerEncoder::new("enc", 2, 8, 2, &mut ps, &mut rng);
        let lens = [3usize, 1, 5, 2];
        let blocks: Vec<Matrix> =
            lens.iter().map(|&n| Matrix::uniform(n, 8, 1.0, &mut rng)).collect();

        let tape = Tape::new();
        let stacked = Matrix::concat_rows(&blocks.iter().collect::<Vec<_>>());
        let mask = tape.constant(Matrix::block_diag_mask(&lens));
        let batched = enc.forward_masked(&tape, &tape.constant(stacked), &mask).value();

        let mut offset = 0;
        for b in &blocks {
            let serial_tape = Tape::new();
            let serial = enc.forward(&serial_tape, &serial_tape.constant(b.clone())).value();
            for r in 0..b.rows() {
                assert_eq!(
                    batched.row_slice(offset + r),
                    serial.row_slice(r),
                    "row {r} of block at offset {offset} diverged from serial"
                );
            }
            offset += b.rows();
        }
    }

    #[test]
    fn overfits_tiny_regression() {
        // The encoder should be able to memorize a fixed mapping.
        let mut rng = StdRng::seed_from_u64(7);
        let mut ps = ParamSet::new(0.01);
        ps.weight_decay = 0.0;
        let enc = TransformerEncoder::new("enc", 1, 4, 2, &mut ps, &mut rng);
        let x = Matrix::uniform(3, 4, 1.0, &mut rng);
        let target = Matrix::uniform(3, 4, 1.0, &mut rng);
        let mut last = f32::INFINITY;
        for _ in 0..300 {
            let tape = Tape::new();
            let xt = tape.constant(x.clone());
            let y = enc.forward(&tape, &xt);
            let loss = y.mse(&target);
            last = loss.scalar();
            loss.backward();
            ps.step(1.0);
        }
        assert!(last < 0.5, "loss failed to decrease: {last}");
    }
}
