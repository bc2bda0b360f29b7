//! Online A/B simulation (paper §VI-F): traffic buckets replaying the same
//! latent-intent user population against different recommenders, measuring
//! daily macro-averaged CTR (Fig. 7), HIR and response latency (Table VI).
//!
//! The simulator publishes rolling `online.*` gauges (macro/micro CTR, HIR,
//! sessions) into the server's metrics registry after every simulated day,
//! so a dashboard scraping the registry sees the same series as Fig. 7.

use intellitag_datagen::{UserModel, World};
use intellitag_eval::{CtrAccumulator, HirAccumulator};
use rand::distributions::WeightedIndex;
use rand::prelude::*;
use rand::rngs::StdRng;

use crate::serving::{Catalog, TagService};

impl Catalog {
    /// The catalog a world's replicas serve from: its KB, tag texts, `asc`
    /// tags per RQ, tenant tag pools and click counts. The one place these
    /// tables are derived from a [`World`]; build it once per world and
    /// hand every replica an `Arc` clone.
    pub fn from_world(world: &World) -> Self {
        Catalog::new(
            world.build_kb(),
            world.tags.iter().map(|t| t.text()).collect(),
            world.rqs.iter().map(|r| r.tags.clone()).collect(),
            (0..world.tenants.len()).map(|t| world.tenant_tag_pool(t)).collect(),
            world.click_frequency(),
        )
    }
}

/// Simulation parameters.
#[derive(Debug, Clone, Copy)]
pub struct SimConfig {
    /// Number of simulated days (the paper monitors 10).
    pub days: usize,
    /// Sessions per day in this traffic bucket.
    pub sessions_per_day: usize,
    /// Maximum tag-recommendation rounds before the user gives up.
    pub max_steps: usize,
    /// How many predicted questions the user scans (top-k acceptance).
    pub accept_top_k: usize,
    /// RNG seed; use the same seed across buckets so they face the same
    /// intent stream (proper A/B bucketing).
    pub seed: u64,
    /// Whether sessions open with a typed question (the paper's Fig. 1
    /// flow: question → answer + recommended tags → clicks). When false,
    /// sessions start from cold-start tags only.
    pub ask_question_first: bool,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            days: 10,
            sessions_per_day: 300,
            max_steps: 4,
            accept_top_k: 3,
            seed: 0,
            ask_question_first: true,
        }
    }
}

/// One day's CTR numbers.
#[derive(Debug, Clone, Copy)]
pub struct DayMetrics {
    /// Day index (0-based).
    pub day: usize,
    /// Macro-averaged (per-tenant) CTR — the paper's Fig. 7 metric.
    pub macro_ctr: f64,
    /// Micro-averaged CTR.
    pub micro_ctr: f64,
}

/// Full outcome of one policy's bucket.
#[derive(Debug, Clone)]
pub struct SimOutcome {
    /// Policy (model) name.
    pub policy: String,
    /// Per-day CTR series (Fig. 7).
    pub daily: Vec<DayMetrics>,
    /// Human intervention rate over the whole run (Table VI).
    pub hir: f64,
    /// Mean per-request model-server latency in ms (Table VI).
    pub mean_latency_ms: f64,
    /// 99th-percentile latency in ms.
    pub p99_latency_ms: f64,
    /// Sessions simulated.
    pub sessions: u64,
}

impl SimOutcome {
    /// Mean macro CTR across days.
    pub fn mean_macro_ctr(&self) -> f64 {
        if self.daily.is_empty() {
            return 0.0;
        }
        self.daily.iter().map(|d| d.macro_ctr).sum::<f64>() / self.daily.len() as f64
    }
}

/// Runs one traffic bucket of the A/B test.
///
/// Generic over [`TagService`], so the same bucket can be driven through
/// the single-process [`crate::ModelServer`] or the sharded
/// [`crate::ShardedServer`] front — the parity guarantee makes the two
/// produce identical CTR/HIR series for the same seed.
pub fn simulate_online<S: TagService>(
    server: &S,
    world: &World,
    user: &UserModel,
    cfg: &SimConfig,
) -> SimOutcome {
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let tenant_dist =
        WeightedIndex::new(world.tenants.iter().map(|t| t.weight)).expect("tenant weights");

    let mut daily = Vec::with_capacity(cfg.days);
    let mut hir = HirAccumulator::new();
    for day in 0..cfg.days {
        let mut ctr = CtrAccumulator::new();
        for _ in 0..cfg.sessions_per_day {
            let tenant = loop {
                let t = tenant_dist.sample(&mut rng);
                if !world.rqs_by_tenant[t].is_empty() {
                    break t;
                }
            };
            let intent = *world.rqs_by_tenant[tenant].choose(&mut rng).expect("rqs");
            let solved = run_session(server, world, user, tenant, intent, cfg, &mut ctr, &mut rng);
            hir.record(!solved);
        }
        // Rolling online gauges: the day's CTR and the run-so-far HIR land
        // in the shared registry right after each simulated day.
        ctr.publish(server.metrics(), "online");
        hir.publish(server.metrics(), "online");
        server.metrics().gauge("online.day").set((day + 1) as f64);
        daily.push(DayMetrics { day, macro_ctr: ctr.macro_ctr(), micro_ctr: ctr.micro_ctr() });
    }

    // Whole-run latency from the server's bounded histogram (exact mean,
    // bucket-resolution p99) — no unbounded raw-sample log required.
    let lat = server.latency_snapshot();
    SimOutcome {
        policy: server.policy(),
        daily,
        hir: hir.hir(),
        mean_latency_ms: lat.mean() / 1000.0,
        p99_latency_ms: lat.quantile(0.99) as f64 / 1000.0,
        sessions: hir.sessions(),
    }
}

/// One session (Fig. 1): typed question → answer + tags → clicks →
/// predicted questions, until the intent surfaces (solved) or the user
/// bails (human intervention).
#[allow(clippy::too_many_arguments)]
fn run_session<S: TagService>(
    server: &S,
    world: &World,
    user: &UserModel,
    tenant: usize,
    intent: usize,
    cfg: &SimConfig,
    ctr: &mut CtrAccumulator,
    rng: &mut StdRng,
) -> bool {
    let mut clicks: Vec<usize> = Vec::new();
    // Fig. 1 flow: the session opens with the user's typed question. A good
    // enough match solves the session outright; otherwise the matched RQ's
    // asc tags seed the tag-recommendation loop (§V-B).
    let mut shown = if cfg.ask_question_first {
        let question = world.paraphrase_question(intent, rng);
        let resp = server.handle_question(tenant, &question);
        if let Some(rq) = resp.rq {
            if user.accepts_equivalent(world, intent, &[rq], 1) {
                return true;
            }
        }
        if resp.recommended_tags.is_empty() {
            server.cold_start_tags(tenant)
        } else {
            resp.recommended_tags
        }
    } else {
        server.cold_start_tags(tenant)
    };
    for _ in 0..cfg.max_steps {
        if shown.is_empty() {
            break;
        }
        let choice = user.click(world, intent, &shown, &clicks, rng);
        // CTR bookkeeping: every shown tag is an impression; the chosen one
        // (if any) is the click.
        for (pos, _) in shown.iter().enumerate() {
            ctr.record(tenant, Some(pos) == choice);
        }
        let Some(pos) = choice else {
            return false; // user gave up scanning -> human intervention
        };
        clicks.push(shown[pos]);
        let resp = server.handle_tag_click(tenant, &clicks);
        if user.accepts_equivalent(world, intent, &resp.predicted_questions, cfg.accept_top_k) {
            return true;
        }
        shown = resp.recommended_tags;
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::serving::ModelServer;
    use intellitag_baselines::Popularity;
    use intellitag_datagen::WorldConfig;
    use std::sync::Arc;

    fn popularity(world: &World) -> Popularity {
        let sessions: Vec<Vec<usize>> = world.sessions.iter().map(|s| s.clicks.clone()).collect();
        Popularity::from_sessions(&sessions, world.tags.len())
    }

    #[test]
    fn simulation_produces_sane_metrics() {
        let world = World::generate(WorldConfig::tiny(9));
        let server =
            ModelServer::with_catalog(popularity(&world), Arc::new(Catalog::from_world(&world)));
        let cfg = SimConfig { days: 3, sessions_per_day: 40, ..Default::default() };
        let out = simulate_online(&server, &world, &UserModel::default(), &cfg);
        assert_eq!(out.daily.len(), 3);
        assert_eq!(out.sessions, 120);
        for d in &out.daily {
            assert!((0.0..=1.0).contains(&d.macro_ctr));
            assert!((0.0..=1.0).contains(&d.micro_ctr));
        }
        assert!((0.0..=1.0).contains(&out.hir));
        assert!(out.mean_latency_ms >= 0.0);
        assert!(out.p99_latency_ms >= out.mean_latency_ms / 10.0);
    }

    #[test]
    fn same_seed_same_intent_stream() {
        let world = World::generate(WorldConfig::tiny(9));
        let server =
            ModelServer::with_catalog(popularity(&world), Arc::new(Catalog::from_world(&world)));
        let cfg = SimConfig { days: 2, sessions_per_day: 30, seed: 5, ..Default::default() };
        let a = simulate_online(&server, &world, &UserModel::default(), &cfg);
        let b = simulate_online(&server, &world, &UserModel::default(), &cfg);
        assert_eq!(a.hir, b.hir);
        for (x, y) in a.daily.iter().zip(&b.daily) {
            assert_eq!(x.macro_ctr, y.macro_ctr);
        }
    }

    #[test]
    fn sharded_front_reproduces_single_process_series() {
        use crate::sharded::{ShardConfig, ShardedServer};
        use intellitag_obs::MetricsRegistry;

        let world = World::generate(WorldConfig::tiny(9));
        let cfg = SimConfig { days: 2, sessions_per_day: 30, seed: 7, ..Default::default() };
        let catalog = Arc::new(Catalog::from_world(&world));
        let model = popularity(&world);
        let single = ModelServer::with_catalog(model.clone(), Arc::clone(&catalog));
        let a = simulate_online(&single, &world, &UserModel::default(), &cfg);

        // Every worker builds its replica over the same catalog.
        let front = ShardedServer::spawn(
            ShardConfig { shards: 3, batch_max: 4, ..Default::default() },
            MetricsRegistry::new(),
            move |_shard| ModelServer::with_catalog(model.clone(), Arc::clone(&catalog)),
        );
        let b = simulate_online(&front, &world, &UserModel::default(), &cfg);
        // Same seed, same responses: the whole observable series coincides.
        assert_eq!(a.policy, b.policy);
        assert_eq!(a.hir, b.hir);
        assert_eq!(a.sessions, b.sessions);
        for (x, y) in a.daily.iter().zip(&b.daily) {
            assert_eq!(x.macro_ctr, y.macro_ctr);
            assert_eq!(x.micro_ctr, y.micro_ctr);
        }
        front.shutdown();
    }

    #[test]
    fn simulation_publishes_rolling_gauges() {
        let world = World::generate(WorldConfig::tiny(9));
        let server =
            ModelServer::with_catalog(popularity(&world), Arc::new(Catalog::from_world(&world)));
        let cfg = SimConfig { days: 2, sessions_per_day: 20, ..Default::default() };
        let out = simulate_online(&server, &world, &UserModel::default(), &cfg);
        let m = server.metrics();
        assert_eq!(m.gauge("online.day").get(), 2.0);
        assert_eq!(m.gauge("online.hir").get(), out.hir);
        assert_eq!(m.gauge("online.sessions").get(), out.sessions as f64);
        let last = out.daily.last().unwrap();
        assert_eq!(m.gauge("online.macro_ctr").get(), last.macro_ctr);
        assert_eq!(m.gauge("online.micro_ctr").get(), last.micro_ctr);
    }

    #[test]
    fn irrelevant_recommendations_drive_hir_up() {
        let world = World::generate(WorldConfig::tiny(9));
        let server =
            ModelServer::with_catalog(popularity(&world), Arc::new(Catalog::from_world(&world)));
        // A user who clicks nothing can never be solved (question-first off
        // so the Q&A path cannot solve the session either).
        let blind = UserModel { p_intent: 0.0, p_topic: 0.0, p_other: 0.0, position_bias: false };
        let cfg = SimConfig {
            days: 1,
            sessions_per_day: 25,
            ask_question_first: false,
            ..Default::default()
        };
        let out = simulate_online(&server, &world, &blind, &cfg);
        assert_eq!(out.hir, 1.0);
        assert_eq!(out.mean_macro_ctr(), 0.0);
    }
}
