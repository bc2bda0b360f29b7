//! Embedding tables with sparse-gradient lookups.

use intellitag_tensor::{Matrix, Param, ParamSet, Tape, Tensor};
use rand::Rng;

/// A `vocab x dim` embedding table. Lookups gather rows; gradients
/// scatter-add back into the table, so only touched rows pay optimizer cost.
pub struct Embedding {
    table: Param,
}

impl Embedding {
    /// Creates a uniformly-initialized table and registers it.
    pub fn new<R: Rng>(
        name: &str,
        vocab: usize,
        dim: usize,
        params: &mut ParamSet,
        rng: &mut R,
    ) -> Self {
        let limit = (1.0 / dim as f32).sqrt();
        let table = params.register(Param::uniform(name, vocab, dim, limit, rng));
        Embedding { table }
    }

    /// Wraps an existing parameter as an embedding (used for weight tying and
    /// for feeding precomputed tag embeddings into the sequence layers).
    pub fn from_param(table: Param) -> Self {
        Embedding { table }
    }

    /// Looks up `ids`, producing a `len(ids) x dim` tensor.
    pub fn forward(&self, tape: &Tape, ids: &[usize]) -> Tensor {
        tape.gather(&self.table, ids)
    }

    /// Vocabulary size.
    pub fn vocab(&self) -> usize {
        self.table.shape().0
    }

    /// Embedding width.
    pub fn dim(&self) -> usize {
        self.table.shape().1
    }

    /// The underlying parameter.
    pub fn param(&self) -> &Param {
        &self.table
    }

    /// A copy of one row (inference helper).
    pub fn row(&self, id: usize) -> Vec<f32> {
        self.table.value().row_slice(id).to_vec()
    }

    /// A copy of the whole table (inference helper).
    pub fn snapshot(&self) -> Matrix {
        self.table.value()
    }
}

/// Learned absolute position embeddings, as used by BERT-style models
/// (paper Eq. 8 adds `p_i` to every tag embedding `z_i`).
pub struct PositionEmbedding {
    inner: Embedding,
}

impl PositionEmbedding {
    /// Creates a table covering positions `0..max_len`.
    pub fn new<R: Rng>(
        name: &str,
        max_len: usize,
        dim: usize,
        params: &mut ParamSet,
        rng: &mut R,
    ) -> Self {
        PositionEmbedding { inner: Embedding::new(name, max_len, dim, params, rng) }
    }

    /// Position embeddings for `0..len`, as a `len x dim` tensor.
    pub fn forward(&self, tape: &Tape, len: usize) -> Tensor {
        assert!(
            len <= self.inner.vocab(),
            "sequence length {len} exceeds max positions {}",
            self.inner.vocab()
        );
        let ids: Vec<usize> = (0..len).collect();
        self.inner.forward(tape, &ids)
    }

    /// Position embeddings for arbitrary position ids, as a
    /// `len(ids) x dim` tensor. Lets a row-stacked batch of sequences gather
    /// each sequence's `0..=n_i` positions in one lookup.
    pub fn forward_ids(&self, tape: &Tape, ids: &[usize]) -> Tensor {
        for &id in ids {
            assert!(
                id < self.inner.vocab(),
                "position {id} exceeds max positions {}",
                self.inner.vocab()
            );
        }
        self.inner.forward(tape, ids)
    }

    /// A copy of the whole `max_len x dim` table (inference helper).
    pub fn snapshot(&self) -> Matrix {
        self.inner.snapshot()
    }

    /// Maximum supported sequence length.
    pub fn max_len(&self) -> usize {
        self.inner.vocab()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn lookup_returns_table_rows() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut ps = ParamSet::new(1e-3);
        let emb = Embedding::new("e", 5, 3, &mut ps, &mut rng);
        let tape = Tape::new();
        let x = emb.forward(&tape, &[4, 1]);
        assert_eq!(x.shape(), (2, 3));
        assert_eq!(x.value().row_slice(0), emb.row(4).as_slice());
        assert_eq!(x.value().row_slice(1), emb.row(1).as_slice());
    }

    #[test]
    fn only_touched_rows_get_gradient() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut ps = ParamSet::new(1e-3);
        let emb = Embedding::new("e", 4, 2, &mut ps, &mut rng);
        let tape = Tape::new();
        let loss = emb.forward(&tape, &[2]).sum_all();
        loss.backward();
        let g = emb.param().grad();
        assert_eq!(g.row_slice(2), &[1.0, 1.0]);
        for r in [0usize, 1, 3] {
            assert_eq!(g.row_slice(r), &[0.0, 0.0]);
        }
    }

    #[test]
    fn position_embedding_len_guard() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut ps = ParamSet::new(1e-3);
        let pos = PositionEmbedding::new("p", 8, 4, &mut ps, &mut rng);
        let tape = Tape::new();
        assert_eq!(pos.forward(&tape, 5).shape(), (5, 4));
        assert_eq!(pos.max_len(), 8);
    }

    #[test]
    fn position_embedding_forward_ids_matches_ranges() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut ps = ParamSet::new(1e-3);
        let pos = PositionEmbedding::new("p", 8, 4, &mut ps, &mut rng);
        let tape = Tape::new();
        // Two stacked sequences' worth of positions in one gather.
        let batched = pos.forward_ids(&tape, &[0, 1, 2, 0, 1]).value();
        let a = pos.forward(&tape, 3).value();
        let b = pos.forward(&tape, 2).value();
        assert_eq!(batched.row_slice(0), a.row_slice(0));
        assert_eq!(batched.row_slice(2), a.row_slice(2));
        assert_eq!(batched.row_slice(3), b.row_slice(0));
        assert_eq!(batched.row_slice(4), b.row_slice(1));
    }

    #[test]
    #[should_panic(expected = "exceeds max positions")]
    fn position_embedding_ids_overflow_panics() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut ps = ParamSet::new(1e-3);
        let pos = PositionEmbedding::new("p", 4, 2, &mut ps, &mut rng);
        let tape = Tape::new();
        let _ = pos.forward_ids(&tape, &[0, 4]);
    }

    #[test]
    #[should_panic(expected = "exceeds max positions")]
    fn position_embedding_overflow_panics() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut ps = ParamSet::new(1e-3);
        let pos = PositionEmbedding::new("p", 4, 2, &mut ps, &mut rng);
        let tape = Tape::new();
        let _ = pos.forward(&tape, 5);
    }
}
