//! The IntelliTag TagRec model (paper §IV): hierarchical attention over the
//! heterogeneous graph (inner, shared) feeding Transformer layers over the
//! click sequence (outer), trained end-to-end or step-by-step.

use std::time::Instant;

use intellitag_baselines::SequenceRecommender;
use intellitag_graph::{HetGraph, ALL_METAPATHS};
use intellitag_nn::{Linear, PositionEmbedding, TransformerEncoder};
use intellitag_obs::MetricsRegistry;
use intellitag_tensor::{Matrix, Param, ParamSet, Tape, Tensor};
use intellitag_text::HashedEmbedder;
use rand::prelude::*;
use rand::rngs::StdRng;

use crate::config::TagRecConfig;
use crate::graph_layers::GraphLayers;
use crate::plan::ServingPlan;

/// Maximum clicks kept as context (sessions cap at 12, plus the mask slot).
const MAX_CTX: usize = 15;

/// The trained IntelliTag model.
pub struct IntelliTag {
    cfg: TagRecConfig,
    graph_layers: GraphLayers,
    pos: PositionEmbedding,
    mask_emb: Param,
    encoder: TransformerEncoder,
    out: Linear,
    num_tags: usize,
    /// Tag embeddings precomputed after training — what the deployed system
    /// uploads to online model servers instead of running GNN layers
    /// per request (§V-B).
    z_table: Matrix,
    /// The sequence parameters as the serving forward reads them: packed
    /// once per model version, refreshed together with `z_table`.
    plan: ServingPlan,
    /// Graph-layer parameters (kept for T+1 snapshot upload, §V-B).
    graph_params: ParamSet,
    /// Sequence-layer parameters (kept for T+1 snapshot upload, §V-B).
    seq_params: ParamSet,
}

impl IntelliTag {
    /// Builds an untrained model with the architecture implied by `cfg`
    /// (deterministic in `cfg.train.seed`, including the sampled
    /// neighborhoods). Used by [`IntelliTag::train`] and
    /// [`IntelliTag::load`].
    fn build(graph: &HetGraph, tag_texts: &[String], cfg: TagRecConfig) -> Self {
        cfg.validate().expect("invalid TagRecConfig");
        let num_tags = graph.num_tags();
        assert_eq!(tag_texts.len(), num_tags, "one text per tag");
        let mut rng = StdRng::seed_from_u64(cfg.train.seed);

        // Text-derived initial features. Hashed embeddings are unit-norm
        // (entries ~ d^-1/2); the paper's learned text features have
        // entry-scale variance, so scale up to keep Eq. 5's sigmoid out of
        // its flat region — otherwise every tag aggregates to ~0.5 and the
        // embeddings collapse.
        let embedder = HashedEmbedder::new(cfg.dim);
        let feature_scale = 4.0;
        let mut init = Matrix::zeros(num_tags, cfg.dim);
        for (t, text) in tag_texts.iter().enumerate() {
            let v = embedder.embed(text);
            for (dst, src) in init.row_slice_mut(t).iter_mut().zip(&v) {
                *dst = src * feature_scale;
            }
        }

        let mut graph_params = ParamSet::new(cfg.train.lr);
        let graph_layers = GraphLayers::new(
            graph,
            init,
            cfg.heads,
            cfg.neighbor_cap,
            cfg.use_neighbor_attention,
            cfg.use_metapath_attention,
            &mut graph_params,
            &mut rng,
        );

        let mut seq_params = ParamSet::new(cfg.train.lr);
        let pos =
            PositionEmbedding::new("tagrec.pos", MAX_CTX + 1, cfg.dim, &mut seq_params, &mut rng);
        let mask_emb = seq_params.register(Param::uniform(
            "tagrec.mask",
            1,
            cfg.dim,
            (1.0 / cfg.dim as f32).sqrt(),
            &mut rng,
        ));
        let encoder = TransformerEncoder::new(
            "tagrec.enc",
            cfg.seq_layers,
            cfg.dim,
            cfg.heads,
            &mut seq_params,
            &mut rng,
        );
        let out = Linear::new("tagrec.out", cfg.dim, num_tags, true, &mut seq_params, &mut rng);

        let plan = ServingPlan::build(&cfg, &pos, &mask_emb, &encoder, &out);
        IntelliTag {
            cfg,
            graph_layers,
            pos,
            mask_emb,
            encoder,
            out,
            num_tags,
            z_table: Matrix::zeros(num_tags, cfg.dim),
            plan,
            graph_params,
            seq_params,
        }
    }

    /// Installs the serving state of the current parameters: the frozen tag
    /// embeddings and the packed sequence weights. Every path that changes
    /// parameters and then serves (`train`, `train_increment`, `load`) ends
    /// here, so the two can never describe different model versions.
    /// `z_table` is `None` where the graph layers cannot have moved since
    /// the installed table was computed: the table stays, the plan is
    /// rebuilt.
    fn freeze_for_serving(&mut self, z_table: Option<Matrix>) {
        if let Some(z_table) = z_table {
            self.z_table = z_table;
        }
        self.plan =
            ServingPlan::build(&self.cfg, &self.pos, &self.mask_emb, &self.encoder, &self.out);
    }

    /// A fresh z-table when sequence training also moved the graph layers
    /// (end-to-end); `None` for the step-by-step variant, whose table was
    /// computed from the same graph parameters before sequence training.
    fn refreshed_z_table(&self) -> Option<Matrix> {
        self.cfg.end_to_end.then(|| self.graph_layers.precompute_all())
    }

    /// Trains the model.
    ///
    /// * `graph` — the TagRec heterogeneous graph.
    /// * `tag_texts` — surface text per tag (initializes `x_t` with hashed
    ///   text features, the paper's "tag features from a text perspective").
    /// * `sessions` — training sessions (ordered clicked-tag lists).
    pub fn train(
        graph: &HetGraph,
        tag_texts: &[String],
        sessions: &[Vec<usize>],
        cfg: TagRecConfig,
    ) -> Self {
        Self::train_with_metrics(graph, tag_texts, sessions, cfg, &MetricsRegistry::new())
    }

    /// Like [`IntelliTag::train`], but publishes per-epoch training gauges
    /// (`train.{model}.graph.loss`, `train.{model}.seq.loss`, throughput in
    /// examples/s, and an epoch counter) into a shared registry — the
    /// offline T+1 trainer's visibility into whether a nightly refresh is
    /// converging.
    pub fn train_with_metrics(
        graph: &HetGraph,
        tag_texts: &[String],
        sessions: &[Vec<usize>],
        cfg: TagRecConfig,
        metrics: &MetricsRegistry,
    ) -> Self {
        let mut model = Self::build(graph, tag_texts, cfg);
        let mut rng = StdRng::seed_from_u64(cfg.train.seed ^ 0x7261_696E); // "rain"

        // Both modes first learn the structural objective over the graph
        // (metapath neighbors rank above random tags). They differ in what
        // happens next — §IV-D: the step-by-step variant freezes the
        // resulting tag embeddings, while the end-to-end mode "further
        // adjusts the values of tag embeddings and propagates gradient
        // errors to the sharable graph-based layers" during sequence
        // training.
        let mut graph_params = ParamSet::new(cfg.train.lr);
        graph_params.extend(&model.graph_params);
        let mut seq_params = ParamSet::new(cfg.train.lr);
        seq_params.extend(&model.seq_params);
        model.pretrain_graph(&mut graph_params, &mut rng, metrics);
        if cfg.end_to_end {
            let mut params = ParamSet::new(cfg.train.lr);
            params.extend(&graph_params);
            params.extend(&seq_params);
            model.train_sequence(sessions, &mut params, true, true, &mut rng, metrics);
        } else {
            model.z_table = model.graph_layers.precompute_all();
            model.train_sequence(sessions, &mut seq_params, false, true, &mut rng, metrics);
        }

        // Final offline inference pass: freeze tag embeddings for serving.
        let z_table = model.refreshed_z_table();
        model.freeze_for_serving(z_table);
        model
    }

    /// One online training increment: continues sequence training from the
    /// *current* parameters on a fresh batch of sessions (harvested from
    /// the click-event WAL), then refreshes the frozen serving table.
    ///
    /// Unlike [`IntelliTag::train`] this does not rebuild or re-pretrain
    /// the model — the graph structure is unchanged between increments, so
    /// only the sequential objective (and, in end-to-end mode, the shared
    /// graph layers behind it) moves. `epochs` bounds the passes over this
    /// increment's sessions independently of the offline
    /// `cfg.train.epochs`, and `increment_seed` keys all randomness
    /// (shuffling, masking, dropout tapes) so the result is a pure
    /// function of `(parameters, sessions, epochs, increment_seed)` — the
    /// property the hot-swap parity tests lean on.
    pub fn train_increment(
        &mut self,
        sessions: &[Vec<usize>],
        epochs: usize,
        increment_seed: u64,
        metrics: &MetricsRegistry,
    ) {
        if epochs == 0 || sessions.iter().all(|s| s.len() < 2) {
            return; // nothing to learn from — keep the model bit-stable
        }
        // train_sequence reads epochs and the tape seed from `self.cfg`;
        // swap in the increment's values and restore the offline config
        // afterwards so `save`/`load` round-trips stay architecture-stable.
        let saved = self.cfg.train;
        self.cfg.train.epochs = epochs;
        self.cfg.train.seed = saved.seed ^ increment_seed ^ 0x6F6E_6C69; // "onli"
        let mut rng = StdRng::seed_from_u64(self.cfg.train.seed);
        let mut params = ParamSet::new(self.cfg.train.lr);
        if self.cfg.end_to_end {
            params.extend(&self.graph_params);
        }
        params.extend(&self.seq_params);
        // Adam moments are hidden per-Param state that `save` does not
        // persist; resetting them makes the increment a pure function of
        // the parameter *values*, so a trainer resumed from a snapshot
        // produces bit-identical increments to one that never restarted.
        params.reset_moments();
        // Constant learning rate: the offline linear-decay schedule reaches
        // zero at the end of a run, and an increment small enough to fit in
        // one optimizer step would otherwise train at lr 0 and change
        // nothing. Increments are fine-tuning, not a fresh schedule.
        self.train_sequence(sessions, &mut params, self.cfg.end_to_end, false, &mut rng, metrics);
        self.cfg.train = saved;
        // Re-freeze tag embeddings for serving, exactly like the tail of
        // offline training (the step-by-step variant keeps its table: its
        // graph layers did not move).
        let z_table = self.refreshed_z_table();
        self.freeze_for_serving(z_table);
    }

    /// Serializes the trained model's parameters and precomputed tag
    /// embeddings — the artifact the offline T+1 trainer uploads to the
    /// online model servers (§V-B).
    pub fn save<W: std::io::Write>(&self, w: &mut W) -> std::io::Result<()> {
        let mut all = ParamSet::new(0.0);
        all.extend(&self.graph_params);
        all.extend(&self.seq_params);
        intellitag_tensor::Snapshot::capture(&all).write_to(w)?;
        intellitag_tensor::write_matrix(w, &self.z_table)
    }

    /// Loads a model saved by [`IntelliTag::save`]. The graph, tag texts and
    /// configuration must match the training-time ones (the architecture is
    /// rebuilt from them; parameter names and shapes are verified).
    pub fn load<R: std::io::Read>(
        graph: &HetGraph,
        tag_texts: &[String],
        cfg: TagRecConfig,
        r: &mut R,
    ) -> std::io::Result<Self> {
        let mut model = Self::build(graph, tag_texts, cfg);
        let snapshot = intellitag_tensor::Snapshot::read_from(r)?;
        let mut all = ParamSet::new(0.0);
        all.extend(&model.graph_params);
        all.extend(&model.seq_params);
        snapshot.restore(&all)?;
        let z_table = intellitag_tensor::read_matrix(r)?;
        if z_table.shape() != (model.num_tags, model.cfg.dim) {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                "z table shape mismatch",
            ));
        }
        model.freeze_for_serving(Some(z_table));
        Ok(model)
    }

    /// Structural pretraining for the step-by-step variant: metapath
    /// neighbors should score higher than random tags (skip-gram-style
    /// ranking over the learned `z`).
    fn pretrain_graph(&self, params: &mut ParamSet, rng: &mut StdRng, metrics: &MetricsRegistry) {
        let prefix = format!("train.{}", self.cfg.model_name());
        let loss_gauge = metrics.gauge(&format!("{prefix}.graph.loss"));
        let rate_gauge = metrics.gauge(&format!("{prefix}.graph.examples_per_sec"));
        let epoch_counter = metrics.counter(&format!("{prefix}.epochs"));
        let num_tags = self.num_tags;
        let epochs = self.cfg.train.epochs.max(1);
        params.total_steps = Some((num_tags * epochs).div_ceil(self.cfg.train.batch_size).max(1));
        let negatives = 4;
        let mut order: Vec<usize> = (0..num_tags).collect();
        for _ in 0..epochs {
            let epoch_start = Instant::now();
            let mut epoch_loss = 0.0f64;
            let mut seen = 0u64;
            order.shuffle(rng);
            let mut in_batch = 0;
            for (i, &t) in order.iter().enumerate() {
                // A positive from any metapath neighborhood (excluding the
                // self-loop entry, which would make the objective trivial).
                let mut pos = None;
                for mp in 0..ALL_METAPATHS.len() {
                    let list: Vec<usize> = self
                        .graph_layers
                        .neighbor_list(t, mp)
                        .iter()
                        .copied()
                        .filter(|&n| n != t)
                        .collect();
                    if !list.is_empty() {
                        pos = list.choose(rng).copied();
                        break;
                    }
                }
                let Some(pos) = pos else { continue };
                let mut cands = vec![pos];
                while cands.len() < 1 + negatives {
                    let n = rng.gen_range(0..num_tags);
                    if n != t && n != pos {
                        cands.push(n);
                    }
                }
                let tape = Tape::training(rng.gen());
                let z_t = self.graph_layers.embed_tag(&tape, t); // 1 x d
                let z_c = self.graph_layers.embed_tags(&tape, &cands); // (1+neg) x d
                let logits = z_t.matmul(&z_c.transpose()); // 1 x (1+neg)
                let loss = logits.cross_entropy_logits(&[0]);
                epoch_loss += loss.scalar() as f64;
                seen += 1;
                loss.backward();
                in_batch += 1;
                if in_batch == self.cfg.train.batch_size || i + 1 == order.len() {
                    params.step(1.0 / in_batch as f32);
                    in_batch = 0;
                }
            }
            loss_gauge.set(epoch_loss / seen.max(1) as f64);
            rate_gauge.set(seen as f64 / epoch_start.elapsed().as_secs_f64().max(1e-9));
            epoch_counter.inc();
        }
    }

    /// Cloze training of the sequential layers (Eq. 8-12). When
    /// `end_to_end`, the context embeddings come from the live graph layers;
    /// otherwise from the frozen z table.
    fn train_sequence(
        &self,
        sessions: &[Vec<usize>],
        params: &mut ParamSet,
        end_to_end: bool,
        decay_lr: bool,
        rng: &mut StdRng,
        metrics: &MetricsRegistry,
    ) {
        let prefix = format!("train.{}", self.cfg.model_name());
        let loss_gauge = metrics.gauge(&format!("{prefix}.seq.loss"));
        let rate_gauge = metrics.gauge(&format!("{prefix}.seq.examples_per_sec"));
        let epoch_counter = metrics.counter(&format!("{prefix}.epochs"));
        let mut examples: Vec<(&[usize], usize)> = Vec::new();
        for s in sessions {
            for k in 1..s.len() {
                let lo = k.saturating_sub(MAX_CTX);
                examples.push((&s[lo..k], s[k]));
            }
        }
        let cfg = &self.cfg.train;
        params.total_steps = if decay_lr {
            Some((examples.len() * cfg.epochs).div_ceil(cfg.batch_size.max(1)).max(1))
        } else {
            None
        };

        let mut order: Vec<usize> = (0..examples.len()).collect();
        for epoch in 0..cfg.epochs {
            let epoch_start = Instant::now();
            order.shuffle(rng);
            let mut epoch_loss = 0.0f64;
            let mut in_batch = 0;
            for (i, &ex) in order.iter().enumerate() {
                let (ctx, target) = examples[ex];
                let tape = Tape::training(cfg.seed ^ (epoch as u64) << 32 ^ ex as u64);
                let z_seq = if end_to_end {
                    self.graph_layers.embed_tags(&tape, ctx)
                } else {
                    self.gather_frozen(&tape, ctx)
                };
                // Cloze regularization (§VI-A4, mask proportion 0.2): replace
                // random context embeddings with the mask embedding.
                let z_seq = self.apply_context_masking(&tape, z_seq, cfg.mask_prob, rng);
                let logits = self.seq_logits(&tape, &z_seq);
                let loss = logits.cross_entropy_logits(&[target]);
                epoch_loss += loss.scalar() as f64;
                loss.backward();
                in_batch += 1;
                if in_batch == cfg.batch_size || i + 1 == order.len() {
                    params.step(1.0 / in_batch as f32);
                    in_batch = 0;
                }
            }
            loss_gauge.set(epoch_loss / examples.len().max(1) as f64);
            rate_gauge.set(examples.len() as f64 / epoch_start.elapsed().as_secs_f64().max(1e-9));
            epoch_counter.inc();
            if cfg.verbose {
                println!(
                    "{} epoch {epoch}: loss {:.4}",
                    self.cfg.model_name(),
                    epoch_loss / examples.len().max(1) as f64
                );
            }
        }
    }

    fn apply_context_masking(
        &self,
        tape: &Tape,
        z_seq: Tensor,
        mask_prob: f64,
        rng: &mut StdRng,
    ) -> Tensor {
        if mask_prob <= 0.0 || z_seq.rows() <= 1 {
            return z_seq;
        }
        let mut rows: Vec<Tensor> = Vec::with_capacity(z_seq.rows());
        let mut changed = false;
        for r in 0..z_seq.rows() {
            if rng.gen_bool(mask_prob) {
                rows.push(tape.param(&self.mask_emb));
                changed = true;
            } else {
                rows.push(z_seq.row(r));
            }
        }
        if changed {
            Tensor::concat_rows(&rows)
        } else {
            z_seq
        }
    }

    /// Looks up frozen tag embeddings as constants (no gradient to graph).
    fn gather_frozen(&self, tape: &Tape, tags: &[usize]) -> Tensor {
        tape.constant(self.z_table.gather_rows(tags))
    }

    /// Sequential forward (Eq. 8-11): append the mask embedding, add
    /// positions, run the Transformer stack, project the mask position.
    fn seq_logits(&self, tape: &Tape, z_seq: &Tensor) -> Tensor {
        let n = z_seq.rows();
        let mask = tape.param(&self.mask_emb);
        let x = Tensor::concat_rows(&[z_seq.clone(), mask]); // (n+1) x d
        let x = x.add(&self.pos.forward(tape, n + 1));
        let last = if self.cfg.use_contextual_attention {
            let h = self.encoder.forward(tape, &x);
            h.row(n)
        } else {
            // Ablation w/o ca: without attention no information can flow
            // between positions, so the prediction slot sees only the most
            // recent click (the degenerate Markov behaviour the paper's
            // large w/o-ca drop reflects).
            x.row(n.saturating_sub(1))
        };
        self.out.forward(tape, &last) // 1 x |T|
    }

    /// The model's configuration.
    pub fn config(&self) -> &TagRecConfig {
        &self.cfg
    }

    /// The inner graph layers (attention introspection, Fig. 5a/b).
    pub fn graph_layers(&self) -> &GraphLayers {
        &self.graph_layers
    }

    /// The precomputed tag-embedding table uploaded to serving.
    pub fn z_table(&self) -> &Matrix {
        &self.z_table
    }

    /// Contextual attention matrices (per layer, per head) for a context —
    /// the data behind Fig. 5c/d. The final row/column is the mask position.
    pub fn contextual_attention(&self, context: &[usize]) -> Vec<Vec<Matrix>> {
        assert!(!context.is_empty(), "context must be non-empty");
        let ctx = clip_context(context);
        let tape = Tape::new();
        let z_seq = self.gather_frozen(&tape, ctx);
        let n = z_seq.rows();
        let mask = tape.param(&self.mask_emb);
        let x = Tensor::concat_rows(&[z_seq, mask]);
        let x = x.add(&self.pos.forward(&tape, n + 1));
        self.encoder.forward_with_attn(&tape, &x).1
    }
}

fn clip_context(context: &[usize]) -> &[usize] {
    let lo = context.len().saturating_sub(MAX_CTX);
    &context[lo..]
}

impl SequenceRecommender for IntelliTag {
    fn name(&self) -> &str {
        self.cfg.model_name()
    }

    fn score_all(&self, context: &[usize]) -> Vec<f32> {
        if context.is_empty() {
            return vec![0.0; self.num_tags];
        }
        let ctx = std::iter::once(clip_context(context));
        self.plan.with_logits(&self.z_table, ctx, |logits| logits.to_vec())
    }

    fn score_candidates(&self, context: &[usize], candidates: &[usize]) -> Vec<f32> {
        // Serial scoring is a batch of one.
        self.score_candidates_batch(&[(context, candidates)]).pop().expect("one row per request")
    }

    fn score_candidates_batch(&self, reqs: &[(&[usize], &[usize])]) -> Vec<Vec<f32>> {
        // Empty contexts keep `score_all`'s all-zero scores; everything else
        // rides one stacked forward, whose logits rows come back in order.
        let live = reqs.iter().filter(|(ctx, _)| !ctx.is_empty()).map(|(ctx, _)| clip_context(ctx));
        self.plan.with_logits(&self.z_table, live, |logits| {
            let mut rows = logits.chunks_exact(self.num_tags);
            reqs.iter()
                .map(|&(ctx, cands)| {
                    if ctx.is_empty() {
                        return vec![0.0; cands.len()];
                    }
                    let all = rows.next().expect("one logits row per live context");
                    cands.iter().map(|&c| all[c]).collect()
                })
                .collect()
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use intellitag_baselines::TrainConfig;
    use intellitag_graph::HetGraphBuilder;

    /// A cyclic world: tag t co-clicked with t+1; sessions walk the cycle.
    fn cyclic_world(n: usize) -> (HetGraph, Vec<String>, Vec<Vec<usize>>) {
        let mut b = HetGraphBuilder::new(n, n, 1);
        for t in 0..n {
            b.add_asc(t, t);
            b.set_tenant(t, 0);
            b.add_clk(t, (t + 1) % n);
            b.add_cst(t, (t + 1) % n);
        }
        let g = b.build();
        let texts: Vec<String> = (0..n).map(|t| format!("tag {t}")).collect();
        let sessions: Vec<Vec<usize>> = (0..n * 12)
            .map(|i| {
                let s = i % n;
                vec![s, (s + 1) % n, (s + 2) % n]
            })
            .collect();
        (g, texts, sessions)
    }

    fn quick_cfg() -> TagRecConfig {
        TagRecConfig {
            dim: 16,
            heads: 2,
            seq_layers: 1,
            neighbor_cap: 4,
            train: TrainConfig {
                epochs: 40,
                lr: 0.01,
                batch_size: 16,
                seed: 7,
                mask_prob: 0.0,
                ..Default::default()
            },
            ..Default::default()
        }
    }

    #[test]
    fn end_to_end_learns_cycle() {
        let n = 6;
        let (g, texts, sessions) = cyclic_world(n);
        let m = IntelliTag::train(&g, &texts, &sessions, quick_cfg());
        let mut correct = 0;
        for s in 0..n {
            let scores = m.score_all(&[s, (s + 1) % n]);
            let pred =
                scores.iter().enumerate().max_by(|a, b| a.1.partial_cmp(b.1).unwrap()).unwrap().0;
            if pred == (s + 2) % n {
                correct += 1;
            }
        }
        assert!(correct >= n - 2, "learned {correct}/{n} transitions");
    }

    #[test]
    fn training_publishes_metrics() {
        let (g, texts, sessions) = cyclic_world(5);
        let mut cfg = quick_cfg();
        cfg.train.epochs = 2;
        let registry = MetricsRegistry::new();
        let m = IntelliTag::train_with_metrics(&g, &texts, &sessions, cfg, &registry);
        let prefix = format!("train.{}", m.name());
        // Graph pretraining and sequence training each ran 2 epochs.
        assert_eq!(registry.counter(&format!("{prefix}.epochs")).get(), 4);
        assert!(registry.gauge(&format!("{prefix}.graph.loss")).get() > 0.0);
        assert!(registry.gauge(&format!("{prefix}.seq.loss")).get() > 0.0);
        assert!(registry.gauge(&format!("{prefix}.seq.examples_per_sec")).get() > 0.0);
        assert!(registry.gauge(&format!("{prefix}.graph.examples_per_sec")).get() > 0.0);
    }

    #[test]
    fn step_by_step_variant_trains_and_scores() {
        let (g, texts, sessions) = cyclic_world(5);
        let m = IntelliTag::train(&g, &texts, &sessions, quick_cfg().step_by_step());
        assert_eq!(m.name(), "IntelliTag_st");
        let scores = m.score_all(&[0]);
        assert_eq!(scores.len(), 5);
        assert!(scores.iter().all(|s| s.is_finite()));
    }

    #[test]
    fn ablations_train_and_score() {
        let (g, texts, sessions) = cyclic_world(5);
        let mut cfg = quick_cfg();
        cfg.train.epochs = 2;
        for variant in [
            cfg.without_neighbor_attention(),
            cfg.without_metapath_attention(),
            cfg.without_contextual_attention(),
        ] {
            let m = IntelliTag::train(&g, &texts, &sessions, variant);
            let scores = m.score_all(&[1, 2]);
            assert_eq!(scores.len(), 5);
            assert!(scores.iter().all(|s| s.is_finite()), "{}", m.name());
        }
    }

    #[test]
    fn train_increment_is_deterministic_and_moves_the_model() {
        let (g, texts, sessions) = cyclic_world(6);
        let mut cfg = quick_cfg();
        cfg.train.epochs = 2;
        let (day1, day2) = sessions.split_at(sessions.len() / 2);
        let registry = MetricsRegistry::new();

        let run = || {
            let mut m = IntelliTag::train(&g, &texts, day1, cfg);
            m.train_increment(day2, 2, 1, &registry);
            let mut bytes = Vec::new();
            m.save(&mut bytes).unwrap();
            (m, bytes)
        };
        let (m_a, bytes_a) = run();
        let (_m_b, bytes_b) = run();
        assert_eq!(bytes_a, bytes_b, "increment must be a pure function of its inputs");

        // The increment actually learns: parameters moved off the base
        // checkpoint, and the restored config still matches the offline one.
        let mut base = IntelliTag::train(&g, &texts, day1, cfg);
        let mut base_bytes = Vec::new();
        base.save(&mut base_bytes).unwrap();
        assert_ne!(bytes_a, base_bytes, "increment left the model unchanged");
        assert_eq!(m_a.cfg.train.epochs, cfg.train.epochs);
        assert_eq!(m_a.cfg.train.seed, cfg.train.seed);

        // Different increment seeds diverge; zero epochs is a strict no-op.
        let mut other = IntelliTag::train(&g, &texts, day1, cfg);
        other.train_increment(day2, 2, 2, &registry);
        let mut other_bytes = Vec::new();
        other.save(&mut other_bytes).unwrap();
        assert_ne!(bytes_a, other_bytes);
        base.train_increment(day2, 0, 1, &registry);
        let mut noop_bytes = Vec::new();
        base.save(&mut noop_bytes).unwrap();
        assert_eq!(noop_bytes, base_bytes);

        // And the incremented model round-trips through save/load like any
        // offline artifact (the snapshot registry depends on this).
        let loaded = IntelliTag::load(&g, &texts, cfg, &mut &bytes_a[..]).unwrap();
        let ctx = [0usize, 1];
        assert_eq!(m_a.score_all(&ctx), loaded.score_all(&ctx));
    }

    #[test]
    fn batched_scoring_is_bit_exact_with_serial() {
        let n = 6;
        let (g, texts, sessions) = cyclic_world(n);
        let mut cfg = quick_cfg();
        cfg.train.epochs = 2;
        let m = IntelliTag::train(&g, &texts, &sessions, cfg);
        // Mixed lengths, duplicates, an empty context, an over-long context
        // (clipped to MAX_CTX), and differing candidate pools.
        let long: Vec<usize> = (0..MAX_CTX + 4).map(|i| i % n).collect();
        let contexts: Vec<Vec<usize>> =
            vec![vec![0, 1], vec![3], vec![0, 1], vec![], vec![2, 3, 4, 5], long];
        let pools: Vec<Vec<usize>> = vec![
            (0..n).collect(),
            vec![5, 0, 2],
            vec![1],
            (0..n).collect(),
            vec![4, 4, 1],
            (0..n).rev().collect(),
        ];
        let reqs: Vec<(&[usize], &[usize])> =
            contexts.iter().zip(&pools).map(|(c, p)| (c.as_slice(), p.as_slice())).collect();
        let batched = m.score_candidates_batch(&reqs);
        for (i, &(ctx, pool)) in reqs.iter().enumerate() {
            let serial = m.score_candidates(ctx, pool);
            // Bitwise equality, not approximate: the serving front treats the
            // two paths as interchangeable.
            assert_eq!(batched[i], serial, "request {i} diverged");
        }
    }

    /// The autograd forward in eval mode — the training graph with dropout
    /// off. The serving forward must reproduce it bit for bit.
    fn tape_score_all(m: &IntelliTag, context: &[usize]) -> Vec<f32> {
        let tape = Tape::new();
        let z_seq = m.gather_frozen(&tape, clip_context(context));
        m.seq_logits(&tape, &z_seq).value().into_vec()
    }

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// splitmix64: the seeded stream the property tests draw cases from.
    struct Cases(u64);

    impl Cases {
        fn below(&mut self, n: usize) -> usize {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            ((z ^ (z >> 31)) % n as u64) as usize
        }

        /// A context of 1..=MAX_CTX+6 clicks (so some clip), tags drawn
        /// from a small range (so some repeat).
        fn context(&mut self, num_tags: usize) -> Vec<usize> {
            let len = 1 + self.below(MAX_CTX + 6);
            let span = 1 + self.below(num_tags);
            (0..len).map(|_| self.below(span)).collect()
        }
    }

    #[test]
    fn serving_forward_is_bitwise_the_tape_forward_and_batch_is_serial() {
        let n = 11;
        let (g, texts, sessions) = cyclic_world(n);
        let mut cfg = quick_cfg();
        cfg.train.epochs = 2;
        cfg.seq_layers = 2;
        cfg.dim = 24; // 12-wide heads: every panel has a zero-padded tail
        for (v, variant) in
            [cfg, cfg.without_contextual_attention(), cfg.step_by_step()].into_iter().enumerate()
        {
            let m = IntelliTag::train(&g, &texts, &sessions, variant);
            // Three case streams per variant.
            for salt in [1u64, 2, 4] {
                let seed = 0x5EED ^ (v as u64) << 8 ^ salt;
                let mut cases = Cases(seed);
                for case in 0..40 {
                    let ctx = cases.context(n);
                    let want = tape_score_all(&m, &ctx);
                    assert_eq!(
                        bits(&m.score_all(&ctx)),
                        bits(&want),
                        "{} seed {seed:#x} case {case}: context {ctx:?}",
                        m.name()
                    );
                }
                for case in 0..25 {
                    // A drain of 0..=9 requests, about one in five with an
                    // empty context, each with its own candidate list.
                    let drain: Vec<(Vec<usize>, Vec<usize>)> = (0..cases.below(10))
                        .map(|_| {
                            let ctx =
                                if cases.below(5) == 0 { Vec::new() } else { cases.context(n) };
                            let pool = (0..cases.below(n + 3)).map(|_| cases.below(n)).collect();
                            (ctx, pool)
                        })
                        .collect();
                    let reqs: Vec<(&[usize], &[usize])> =
                        drain.iter().map(|(c, p)| (c.as_slice(), p.as_slice())).collect();
                    let batched = m.score_candidates_batch(&reqs);
                    assert_eq!(batched.len(), reqs.len());
                    for (i, &(ctx, pool)) in reqs.iter().enumerate() {
                        let what = format!("{} seed {seed:#x} drain {case} request {i}", m.name());
                        assert_eq!(
                            bits(&batched[i]),
                            bits(&m.score_candidates(ctx, pool)),
                            "{what}: batch vs serial"
                        );
                        let want: Vec<f32> = if ctx.is_empty() {
                            vec![0.0; pool.len()]
                        } else {
                            let all = tape_score_all(&m, ctx);
                            pool.iter().map(|&c| all[c]).collect()
                        };
                        assert_eq!(bits(&batched[i]), bits(&want), "{what}: batch vs tape");
                    }
                }
            }
        }
    }

    #[test]
    fn serving_plan_follows_every_parameter_change() {
        // A plan left over from before an increment, or not rebuilt from
        // loaded parameters, would still score — with the old weights.
        let (g, texts, sessions) = cyclic_world(6);
        let mut cfg = quick_cfg();
        cfg.train.epochs = 2;
        let (day1, day2) = sessions.split_at(sessions.len() / 2);
        let mut m = IntelliTag::train(&g, &texts, day1, cfg);
        let ctx = [0usize, 1, 2];
        let before = m.score_all(&ctx);
        assert_eq!(bits(&before), bits(&tape_score_all(&m, &ctx)));

        m.train_increment(day2, 2, 1, &MetricsRegistry::new());
        let after = m.score_all(&ctx);
        assert_ne!(bits(&after), bits(&before), "the increment moved nothing");
        assert_eq!(bits(&after), bits(&tape_score_all(&m, &ctx)), "plan is stale after increment");

        let mut bytes = Vec::new();
        m.save(&mut bytes).unwrap();
        let loaded = IntelliTag::load(&g, &texts, cfg, &mut &bytes[..]).unwrap();
        assert_eq!(
            bits(&loaded.score_all(&ctx)),
            bits(&tape_score_all(&loaded, &ctx)),
            "plan is stale after load"
        );
        assert_eq!(bits(&loaded.score_all(&ctx)), bits(&after));
    }

    #[test]
    fn step_by_step_increment_keeps_the_z_table_and_rebuilds_the_plan() {
        // Step-by-step training moves only the sequence layers, so the
        // increment keeps its table; the packed sequence weights must still
        // follow the increment.
        let (g, texts, sessions) = cyclic_world(6);
        let mut cfg = quick_cfg().step_by_step();
        cfg.train.epochs = 2;
        let (day1, day2) = sessions.split_at(sessions.len() / 2);
        let mut m = IntelliTag::train(&g, &texts, day1, cfg);
        let z_before = m.z_table().clone();
        assert_eq!(
            bits(z_before.data()),
            bits(m.graph_layers.precompute_all().data()),
            "the kept table is what the graph layers produce"
        );
        let ctx = [0usize, 1, 2];
        let before = m.score_all(&ctx);

        m.train_increment(day2, 2, 1, &MetricsRegistry::new());
        assert_eq!(bits(m.z_table().data()), bits(z_before.data()), "the z-table moved");
        let after = m.score_all(&ctx);
        assert_ne!(bits(&after), bits(&before), "the increment moved nothing");
        assert_eq!(bits(&after), bits(&tape_score_all(&m, &ctx)), "plan is stale after increment");
    }

    #[test]
    fn batched_scoring_without_contextual_attention_matches_serial() {
        let (g, texts, sessions) = cyclic_world(5);
        let mut cfg = quick_cfg();
        cfg.train.epochs = 2;
        let m = IntelliTag::train(&g, &texts, &sessions, cfg.without_contextual_attention());
        let contexts: Vec<Vec<usize>> = vec![vec![1, 2], vec![4], vec![0, 1, 2, 3]];
        let pool: Vec<usize> = (0..5).collect();
        let reqs: Vec<(&[usize], &[usize])> =
            contexts.iter().map(|c| (c.as_slice(), pool.as_slice())).collect();
        let batched = m.score_candidates_batch(&reqs);
        for (i, &(ctx, pool)) in reqs.iter().enumerate() {
            assert_eq!(batched[i], m.score_candidates(ctx, pool), "request {i} diverged");
        }
    }

    #[test]
    fn batched_scoring_all_empty_contexts_is_zero() {
        let (g, texts, sessions) = cyclic_world(4);
        let mut cfg = quick_cfg();
        cfg.train.epochs = 1;
        let m = IntelliTag::train(&g, &texts, &sessions, cfg);
        let pool = [0usize, 2];
        let reqs: Vec<(&[usize], &[usize])> = vec![(&[], &pool), (&[], &pool)];
        assert_eq!(m.score_candidates_batch(&reqs), vec![vec![0.0; 2]; 2]);
    }

    #[test]
    fn empty_context_is_safe() {
        let (g, texts, sessions) = cyclic_world(4);
        let mut cfg = quick_cfg();
        cfg.train.epochs = 1;
        let m = IntelliTag::train(&g, &texts, &sessions, cfg);
        assert_eq!(m.score_all(&[]), vec![0.0; 4]);
    }

    #[test]
    fn z_table_is_finite_and_sized() {
        let (g, texts, sessions) = cyclic_world(4);
        let mut cfg = quick_cfg();
        cfg.train.epochs = 1;
        let m = IntelliTag::train(&g, &texts, &sessions, cfg);
        assert_eq!(m.z_table().shape(), (4, 16));
        assert!(!m.z_table().has_non_finite());
    }

    #[test]
    fn contextual_attention_has_mask_row() {
        let (g, texts, sessions) = cyclic_world(4);
        let mut cfg = quick_cfg();
        cfg.train.epochs = 1;
        let m = IntelliTag::train(&g, &texts, &sessions, cfg);
        let attn = m.contextual_attention(&[0, 1]);
        assert_eq!(attn.len(), 1); // layers
        assert_eq!(attn[0].len(), 2); // heads
        assert_eq!(attn[0][0].shape(), (3, 3)); // 2 clicks + mask
                                                // Rows are distributions.
        for h in &attn[0] {
            for r in 0..3 {
                let s: f32 = h.row_slice(r).iter().sum();
                assert!((s - 1.0).abs() < 1e-4);
            }
        }
    }

    #[test]
    fn save_load_roundtrip_preserves_scores() {
        let (g, texts, sessions) = cyclic_world(5);
        let mut cfg = quick_cfg();
        cfg.train.epochs = 2;
        let m = IntelliTag::train(&g, &texts, &sessions, cfg);
        let mut buf = Vec::new();
        m.save(&mut buf).unwrap();
        let loaded = IntelliTag::load(&g, &texts, cfg, &mut buf.as_slice()).unwrap();
        assert_eq!(m.z_table(), loaded.z_table());
        for ctx in [vec![0usize], vec![1, 2], vec![0, 3, 4]] {
            assert_eq!(m.score_all(&ctx), loaded.score_all(&ctx));
        }
    }

    #[test]
    fn load_rejects_mismatched_architecture() {
        let (g, texts, sessions) = cyclic_world(5);
        let mut cfg = quick_cfg();
        cfg.train.epochs = 1;
        let m = IntelliTag::train(&g, &texts, &sessions, cfg);
        let mut buf = Vec::new();
        m.save(&mut buf).unwrap();
        let mut other = cfg;
        other.dim = 8; // different width -> shape mismatch
        assert!(IntelliTag::load(&g, &texts, other, &mut buf.as_slice()).is_err());
    }

    #[test]
    fn long_context_is_clipped() {
        let (g, texts, sessions) = cyclic_world(4);
        let mut cfg = quick_cfg();
        cfg.train.epochs = 1;
        let m = IntelliTag::train(&g, &texts, &sessions, cfg);
        let long: Vec<usize> = (0..50).map(|i| i % 4).collect();
        assert_eq!(m.score_all(&long).len(), 4);
    }
}
