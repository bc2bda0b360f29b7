//! The inner graph-based layers of the TagRec model: neighbor attention
//! (paper Eq. 4-5) followed by metapath attention (Eq. 6-7), producing the
//! structural tag embedding `z_t` consumed by the sequential layers.

use intellitag_graph::{metapath_neighbors, HetGraph, ALL_METAPATHS};
use intellitag_nn::{Embedding, Linear};
use intellitag_tensor::{Matrix, Param, ParamSet, Tape, Tensor};
use rand::prelude::*;
use rand::rngs::StdRng;

use crate::plan::GraphPlan;

/// Negative slope used by the paper's LeakyReLU on attention scores.
pub(crate) const LEAKY_SLOPE: f32 = 0.2;

/// The shared graph layers: one set of parameters reused for every tag
/// (paper §IV-D: "the trainable parameters in the inner graph-based layer
/// are shared").
pub struct GraphLayers {
    /// Tag feature table `x_t`, initialized from text features (§VI-A3) and
    /// fine-tuned when training end-to-end.
    features: Embedding,
    /// Neighbor-attention weights `W_n`, per metapath, per head (`2d x 1`).
    w_n: Vec<Vec<Param>>,
    /// Metapath-attention parameters (Eq. 6): `W_p (Md x Md)`, `b_p`, `v_p`.
    w_p: Param,
    b_p: Param,
    v_p: Param,
    /// Final linear fusion (Eq. 7): `Md -> d`.
    out: Linear,
    /// Precomputed capped neighbor lists: `[tag][metapath]`, each the tag
    /// itself plus at most `neighbor_cap` others.
    neighbors: Vec<[Vec<usize>; 4]>,
    neighbor_cap: usize,
    dim: usize,
    heads: usize,
    use_neighbor_attention: bool,
    use_metapath_attention: bool,
}

impl GraphLayers {
    /// Builds the layers over a frozen heterogeneous graph.
    ///
    /// * `init_features` — `num_tags x dim` initial tag features (text-derived).
    /// * `neighbor_cap` — sampled neighborhood size per metapath.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        graph: &HetGraph,
        init_features: Matrix,
        heads: usize,
        neighbor_cap: usize,
        use_neighbor_attention: bool,
        use_metapath_attention: bool,
        params: &mut ParamSet,
        rng: &mut StdRng,
    ) -> Self {
        let num_tags = graph.num_tags();
        assert_eq!(init_features.rows(), num_tags, "one feature row per tag");
        let dim = init_features.cols();
        let md = heads * dim;

        let features =
            Embedding::from_param(params.register(Param::new("tagrec.features", init_features)));

        let mut w_n = Vec::with_capacity(4);
        for mp in ALL_METAPATHS {
            let mut per_head = Vec::with_capacity(heads);
            for h in 0..heads {
                per_head.push(params.register(Param::xavier(
                    format!("tagrec.wn.{}.{h}", mp.name()),
                    2 * dim,
                    1,
                    rng,
                )));
            }
            w_n.push(per_head);
        }

        let w_p = params.register(Param::xavier("tagrec.wp", md, md, rng));
        let b_p = params.register(Param::zeros("tagrec.bp", 1, md));
        let v_p = params.register(Param::xavier("tagrec.vp", md, 1, rng));
        let out = Linear::new("tagrec.fuse", md, dim, true, params, rng);

        // Precompute capped neighborhoods once; sampling happens here (with
        // the model seed) rather than per step, which keeps evaluation
        // deterministic and mirrors the offline-precomputation deployment.
        // Following GAT practice, every neighborhood includes the tag itself
        // (self-loop): without it, same-topic tags share near-identical
        // neighborhoods and their embeddings collapse together.
        let mut neighbors = Vec::with_capacity(num_tags);
        for t in 0..num_tags {
            let mut per_mp: [Vec<usize>; 4] = Default::default();
            for (i, mp) in ALL_METAPATHS.into_iter().enumerate() {
                let mut pool = metapath_neighbors(graph, t, mp, neighbor_cap * 4);
                if pool.len() > neighbor_cap {
                    pool.shuffle(rng);
                    pool.truncate(neighbor_cap);
                }
                pool.insert(0, t);
                per_mp[i] = pool;
            }
            neighbors.push(per_mp);
        }

        GraphLayers {
            features,
            w_n,
            w_p,
            b_p,
            v_p,
            out,
            neighbors,
            neighbor_cap,
            dim,
            heads,
            use_neighbor_attention,
            use_metapath_attention,
        }
    }

    /// Embedding width `d`.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Number of tags covered.
    pub fn num_tags(&self) -> usize {
        self.neighbors.len()
    }

    /// Aggregates one metapath's neighborhood of `t` with multi-head
    /// neighbor attention (Eq. 4-5), returning a `1 x (M*d)` tensor.
    fn aggregate_metapath(&self, tape: &Tape, t: usize, mp_index: usize) -> Tensor {
        let nbrs = &self.neighbors[t][mp_index];
        // An isolated tag aggregates itself (self-loop fallback), keeping the
        // output well-defined for cold tags.
        let nbr_ids: &[usize] = if nbrs.is_empty() { std::slice::from_ref(&t) } else { nbrs };
        let k = nbr_ids.len();
        let x_t = self.features.forward(tape, &[t]); // 1 x d
        let x_nb = self.features.forward(tape, nbr_ids); // k x d

        if !self.use_neighbor_attention {
            // Ablation: uniform aggregation, replicated across heads.
            let mean = x_nb.mean_rows().sigmoid(); // 1 x d
            let copies: Vec<Tensor> = (0..self.heads).map(|_| mean.clone()).collect();
            return Tensor::concat_cols(&copies);
        }

        let pairs = Tensor::concat_cols(&[x_t.repeat_rows(k), x_nb.clone()]); // k x 2d
        let mut head_outputs = Vec::with_capacity(self.heads);
        for h in 0..self.heads {
            let w = tape.param(&self.w_n[mp_index][h]); // 2d x 1
            let scores = pairs.matmul(&w).leaky_relu(LEAKY_SLOPE).transpose(); // 1 x k
            let alpha = scores.softmax_rows();
            head_outputs.push(alpha.matmul(&x_nb).sigmoid()); // 1 x d
        }
        Tensor::concat_cols(&head_outputs) // 1 x M*d
    }

    /// Computes the structural embedding `z_t` (Eq. 7) of one tag.
    pub fn embed_tag(&self, tape: &Tape, t: usize) -> Tensor {
        let h: Vec<Tensor> = (0..4).map(|mp| self.aggregate_metapath(tape, t, mp)).collect();

        let weights = if self.use_metapath_attention {
            // β_ρ = v_p^T tanh(W_p h_ρ + b_p), softmaxed over ρ.
            let betas: Vec<Tensor> = h
                .iter()
                .map(|h_mp| {
                    h_mp.matmul(&tape.param(&self.w_p))
                        .add_row_broadcast(&tape.param(&self.b_p))
                        .tanh()
                        .matmul(&tape.param(&self.v_p)) // 1 x 1
                })
                .collect();
            Tensor::concat_cols(&betas).softmax_rows() // 1 x 4
        } else {
            tape.constant(Matrix::full(1, 4, 0.25))
        };

        let stacked = Tensor::concat_rows(&h); // 4 x M*d
        let fused = weights.matmul(&stacked); // 1 x M*d
                                              // Residual from the raw tag features: the paper starts from strong
                                              // pretrained 100-d text vectors, which keep tags separable through
                                              // the sigmoid aggregation; with from-scratch features the residual
                                              // restores that direct path (gradients reach x_t without passing
                                              // through the attention stack).
        let x_t = self.features.forward(tape, &[t]);
        self.out.forward(tape, &fused).add(&x_t) // 1 x d
    }

    /// Embeds a list of tags into a `len x d` tensor (shared parameters).
    pub fn embed_tags(&self, tape: &Tape, tags: &[usize]) -> Tensor {
        assert!(!tags.is_empty(), "embed_tags needs at least one tag");
        let rows: Vec<Tensor> = tags.iter().map(|&t| self.embed_tag(tape, t)).collect();
        Tensor::concat_rows(&rows)
    }

    /// Precomputes `z_t` for every tag in inference mode — exactly what the
    /// deployed system uploads to the online model servers (§V-B). Runs on
    /// the tape-free [`GraphPlan`], whose table is bit-identical to
    /// [`GraphLayers::embed_tag`]'s on a fresh tape.
    pub fn precompute_all(&self) -> Matrix {
        let plan = self.plan();
        self.features.param().with_value(|x| plan.embed_all(x, &self.neighbors))
    }

    /// The current parameters, packed for one refresh.
    pub(crate) fn plan(&self) -> GraphPlan {
        GraphPlan::build(
            self.dim,
            self.heads,
            self.use_neighbor_attention.then_some(&self.w_n[..]),
            self.use_metapath_attention.then_some((&self.w_p, &self.b_p, &self.v_p)),
            &self.out,
            self.neighbor_cap + 1,
        )
    }

    /// The tape refresh the plan replaced, kept as its test oracle: each tag
    /// on a tape of its own, or (`shared`) every tag on one tape.
    #[cfg(test)]
    fn precompute_on_tapes(&self, shared: bool) -> Matrix {
        let shared_tape = Tape::new();
        let mut out = Matrix::zeros(self.num_tags(), self.dim);
        for t in 0..self.num_tags() {
            let own = if shared { None } else { Some(Tape::new()) };
            let z = self.embed_tag(own.as_ref().unwrap_or(&shared_tape), t).value();
            out.row_slice_mut(t).copy_from_slice(z.row_slice(0));
        }
        out
    }

    /// Neighbor-attention weights of `t` along a metapath, head-averaged —
    /// the data behind the paper's Fig. 5a heat map.
    pub fn neighbor_attention(&self, t: usize, mp_index: usize) -> Vec<(usize, f32)> {
        let nbrs = &self.neighbors[t][mp_index];
        if nbrs.is_empty() || !self.use_neighbor_attention {
            return nbrs.iter().map(|&n| (n, 1.0 / nbrs.len().max(1) as f32)).collect();
        }
        let tape = Tape::new();
        let k = nbrs.len();
        let x_t = self.features.forward(&tape, &[t]);
        let x_nb = self.features.forward(&tape, nbrs);
        let pairs = Tensor::concat_cols(&[x_t.repeat_rows(k), x_nb]);
        let mut avg = vec![0.0f32; k];
        for h in 0..self.heads {
            let w = tape.param(&self.w_n[mp_index][h]);
            let alpha = pairs.matmul(&w).leaky_relu(LEAKY_SLOPE).transpose().softmax_rows().value();
            for (a, &v) in avg.iter_mut().zip(alpha.row_slice(0)) {
                *a += v / self.heads as f32;
            }
        }
        nbrs.iter().copied().zip(avg).collect()
    }

    /// Metapath-attention distribution of `t` over `{TT, TQT, TQQT, TQEQT}`
    /// — the data behind Fig. 5b.
    pub fn metapath_attention(&self, t: usize) -> [f32; 4] {
        if !self.use_metapath_attention {
            return [0.25; 4];
        }
        let tape = Tape::new();
        let betas: Vec<Tensor> = (0..4)
            .map(|mp| {
                let h = self.aggregate_metapath(&tape, t, mp);
                h.matmul(&tape.param(&self.w_p))
                    .add_row_broadcast(&tape.param(&self.b_p))
                    .tanh()
                    .matmul(&tape.param(&self.v_p))
            })
            .collect();
        let w = Tensor::concat_cols(&betas).softmax_rows().value();
        let mut out = [0.0; 4];
        out.copy_from_slice(&w.row_slice(0)[..4]);
        out
    }

    /// The precomputed (capped) neighbor list used for `t` along a metapath.
    pub fn neighbor_list(&self, t: usize, mp_index: usize) -> &[usize] {
        &self.neighbors[t][mp_index]
    }

    /// Direct access to the feature table parameter (used by the
    /// step-by-step pretraining objective).
    pub fn feature_param(&self) -> &Param {
        self.features.param()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::TagRecConfig;
    use intellitag_datagen::{World, WorldConfig};
    use intellitag_graph::HetGraphBuilder;

    fn small_graph() -> HetGraph {
        let mut b = HetGraphBuilder::new(5, 4, 2);
        b.add_asc(0, 0).add_asc(1, 0).add_asc(2, 1).add_asc(3, 2).add_asc(4, 3);
        b.add_clk(0, 1).add_clk(1, 2).add_clk(2, 3);
        b.add_cst(0, 1).add_cst(2, 3);
        b.set_tenant(0, 0).set_tenant(1, 0).set_tenant(2, 1).set_tenant(3, 1);
        b.build()
    }

    fn layers(use_na: bool, use_ma: bool) -> (GraphLayers, ParamSet) {
        let g = small_graph();
        let mut rng = StdRng::seed_from_u64(0);
        let mut params = ParamSet::new(1e-3);
        let feats = Matrix::uniform(5, 8, 0.5, &mut rng);
        let gl = GraphLayers::new(&g, feats, 2, 4, use_na, use_ma, &mut params, &mut rng);
        (gl, params)
    }

    #[test]
    fn embed_shapes() {
        let (gl, _) = layers(true, true);
        let tape = Tape::new();
        assert_eq!(gl.embed_tag(&tape, 0).shape(), (1, 8));
        assert_eq!(gl.embed_tags(&tape, &[0, 3, 3]).shape(), (3, 8));
        assert_eq!(gl.precompute_all().shape(), (5, 8));
    }

    #[test]
    fn precompute_matches_per_tag_embedding() {
        let (gl, _) = layers(true, true);
        let all = gl.precompute_all();
        let tape = Tape::new();
        for t in 0..5 {
            let z = gl.embed_tag(&tape, t).value();
            for (a, b) in all.row_slice(t).iter().zip(z.row_slice(0)) {
                assert!((a - b).abs() < 1e-6);
            }
        }
    }

    /// Panics at the first element whose bits differ, naming its tag.
    fn assert_same_bits(got: &Matrix, want: &Matrix, what: &str) {
        assert_eq!(got.shape(), want.shape(), "{what}: shape");
        let first =
            got.data().iter().zip(want.data()).position(|(a, b)| a.to_bits() != b.to_bits());
        if let Some(i) = first {
            let (t, c) = (i / want.cols(), i % want.cols());
            panic!("{what}: z[{t}][{c}] is {} against {}", got.data()[i], want.data()[i]);
        }
    }

    /// Layers over a generated world at the default architecture. `seed`
    /// draws the features, the weights, the neighbour samples and non-zero
    /// biases, so every term of Eq. 4-7 is live.
    fn world_layers(world: WorldConfig, seed: u64, use_na: bool, use_ma: bool) -> GraphLayers {
        let cfg = TagRecConfig::default();
        let graph = World::generate(world).build_graph();
        let mut rng = StdRng::seed_from_u64(seed);
        let mut params = ParamSet::new(1e-3);
        let feats = Matrix::uniform(graph.num_tags(), cfg.dim, 0.5, &mut rng);
        let gl = GraphLayers::new(
            &graph,
            feats,
            cfg.heads,
            cfg.neighbor_cap,
            use_na,
            use_ma,
            &mut params,
            &mut rng,
        );
        for bias in [&gl.b_p, gl.out.b.as_ref().expect("fusion bias")] {
            let (rows, cols) = bias.shape();
            bias.set_value(Matrix::uniform(rows, cols, 0.2, &mut rng));
        }
        gl
    }

    #[test]
    fn plan_refresh_is_bitwise_the_tape_refresh() {
        let ablations = [("default", true, true), ("w/o na", false, true), ("w/o ma", true, false)];
        for seed in [11u64, 12, 13] {
            for (name, use_na, use_ma) in ablations {
                let gl = world_layers(WorldConfig::tiny(seed), seed, use_na, use_ma);
                let tape_per_tag = gl.precompute_on_tapes(false);
                let what = format!("{name}, seed {seed}");
                let shared = gl.precompute_on_tapes(true);
                assert_same_bits(&shared, &tape_per_tag, &format!("{what}: shared tape"));
                assert_same_bits(&gl.precompute_all(), &tape_per_tag, &format!("{what}: plan"));
                // Block edges fall on every tag, mid-table and not at all.
                let plan = gl.plan();
                for block in [1, 5, gl.num_tags() + 1] {
                    let z = gl
                        .features
                        .param()
                        .with_value(|x| plan.embed_blocks(x, &gl.neighbors, block));
                    assert_same_bits(&z, &tape_per_tag, &format!("{what}: blocks of {block}"));
                }
            }
        }
        // More tags than one block of the plan holds.
        let gl = world_layers(WorldConfig::small(14), 14, true, true);
        assert!(gl.num_tags() > 64, "{} tags", gl.num_tags());
        assert_same_bits(&gl.precompute_all(), &gl.precompute_on_tapes(false), "small world");
    }

    #[test]
    fn neighbor_attention_is_a_distribution() {
        let (gl, _) = layers(true, true);
        for mp in 0..4 {
            let attn = gl.neighbor_attention(1, mp);
            if attn.is_empty() {
                continue;
            }
            let sum: f32 = attn.iter().map(|(_, a)| a).sum();
            assert!((sum - 1.0).abs() < 1e-4, "metapath {mp}: sum {sum}");
            assert!(attn.iter().all(|&(_, a)| a >= 0.0));
        }
    }

    #[test]
    fn metapath_attention_is_a_distribution() {
        let (gl, _) = layers(true, true);
        let w = gl.metapath_attention(2);
        let sum: f32 = w.iter().sum();
        assert!((sum - 1.0).abs() < 1e-4);
        let (gl_ab, _) = layers(true, false);
        assert_eq!(gl_ab.metapath_attention(2), [0.25; 4]);
    }

    #[test]
    fn gradients_flow_into_graph_parameters() {
        let (gl, params) = layers(true, true);
        let tape = Tape::new();
        let z = gl.embed_tags(&tape, &[0, 1, 2, 3, 4]);
        let loss = z.mul(&z).mean_all();
        loss.backward();
        // The fused output and feature table must receive gradient; attention
        // params can have zero grad only in degenerate cases.
        let got: usize = params.params().iter().filter(|p| p.grad().norm() > 0.0).count();
        assert!(got >= params.params().len() - 2, "{got}/{}", params.params().len());
    }

    #[test]
    fn isolated_tag_uses_self_loop() {
        let mut b = HetGraphBuilder::new(2, 1, 1);
        b.add_asc(0, 0);
        b.set_tenant(0, 0);
        let g = b.build();
        let mut rng = StdRng::seed_from_u64(1);
        let mut params = ParamSet::new(1e-3);
        let gl = GraphLayers::new(
            &g,
            Matrix::uniform(2, 4, 0.5, &mut rng),
            2,
            4,
            true,
            true,
            &mut params,
            &mut rng,
        );
        let tape = Tape::new();
        // Tag 1 has no neighbors on any metapath but must still embed.
        let z = gl.embed_tag(&tape, 1).value();
        assert!(!z.has_non_finite());
    }

    #[test]
    fn ablation_without_na_ignores_attention_params() {
        let (gl, _) = layers(false, true);
        let attn = gl.neighbor_attention(1, 0);
        // uniform weights in ablation mode
        if attn.len() > 1 {
            let first = attn[0].1;
            assert!(attn.iter().all(|&(_, a)| (a - first).abs() < 1e-6));
        }
    }
}
