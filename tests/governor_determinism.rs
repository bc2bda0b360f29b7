//! The governor's determinism contract, end to end.
//!
//! Three pins:
//!
//! 1. **Byte-identical replay** — a canned observation trace replayed
//!    through [`Governor::replay`] twice (and through a hand-stepped
//!    governor) yields the same decision log, byte for byte.
//! 2. **Bounds** — property-tested: for arbitrary observation sequences,
//!    every decision and every live knob value stays inside the declared
//!    [`KnobBounds`], and `par_threshold` only ever takes its two
//!    configured values.
//! 3. **Parity under stepping** — the serving front keeps byte-identical
//!    responses while a live [`GovernorRuntime`] (plus an adversarial
//!    knob-flipper) changes `batch_max` / `shed_depth` / pool knobs in the
//!    middle of drains; afterwards, replaying the runtime's recorded
//!    observation trace reproduces its decision log.

use std::sync::Arc;
use std::time::Duration;

use intellitag::core::{
    Governor, GovernorConfig, GovernorRuntime, KnobBounds, Observation, TagClickResponse,
};
use intellitag::obs::DecisionLog;
use intellitag::prelude::*;
use proptest::prelude::*;

/// An observation with every field the step rules read, cumulative
/// counters included. `drains`/`rows` accumulate across calls via the
/// running totals the caller threads through.
fn obs(qmax: u64, cum_drains: u64, cum_rows: u64, burn_x100: u64) -> Observation {
    Observation {
        queue_depth_max: qmax,
        queue_depth_sum: qmax,
        shards: 2,
        batch_count: cum_drains,
        batch_rows_sum: cum_rows,
        batch_rows_max: 8,
        budget_used_max_x100: burn_x100,
        ..Default::default()
    }
}

/// A canned trace exercising every step rule at least once: warm-up,
/// backlog growth + deep-queue pool shrink + blown budget, saturation
/// with large drains, then a long idle tail that walks everything back.
fn canned_trace() -> Vec<Observation> {
    vec![
        // Warm-up: anchors counters, must never step.
        obs(0, 0, 0, 60),
        // Backlog: qmax 32 >= 2*batch_max(8) doubles batch_max; deep
        // queues shrink the pool is already at min; budget blown shrinks
        // shed_depth.
        obs(32, 4, 40, 140),
        // Still backlogged: batch_max doubles again, budget still blown.
        obs(64, 10, 200, 160),
        // Saturation drains are large (mean 8 rows = 800 x100): with the
        // pool above 1 par_threshold would drop; pool is at min here so
        // the small/large rules exercise the serial branch instead.
        obs(2, 20, 280, 90),
        // Empty queues, small drains: idle tick 1 + pool grow tick 1.
        obs(0, 24, 284, 60),
        // Idle tick 2: batch_max halves, pool doubles, shed relaxes.
        obs(0, 28, 288, 30),
        // More idle: the walk-back continues deterministically.
        obs(0, 32, 292, 20),
        obs(0, 36, 296, 10),
    ]
}

fn test_config() -> GovernorConfig {
    GovernorConfig {
        batch_bounds: KnobBounds { min: 1, max: 64 },
        // Pin the pool bounds so the canned expectations do not depend on
        // the host's core count.
        pool_bounds: KnobBounds { min: 1, max: 8 },
        shed_bounds: KnobBounds { min: 8, max: 256 },
        initial_batch_max: 8,
        initial_pool_threads: 1,
        initial_shed_depth: 256,
        ..Default::default()
    }
}

#[test]
fn canned_trace_replays_byte_identically() {
    let trace = canned_trace();
    let first = Governor::replay(test_config(), &trace);
    let second = Governor::replay(test_config(), &trace);
    assert!(!first.is_empty(), "the canned trace must trigger decisions");
    assert_eq!(first, second, "replaying the same trace must be byte-identical");

    // A hand-stepped governor renders the same log, and its live knob
    // values agree with the decision lines' `new=` values.
    let mut gov = Governor::new(test_config());
    let mut lines = Vec::new();
    for o in &trace {
        for d in gov.step(o) {
            lines.push(d.line());
        }
    }
    assert_eq!(lines, first);

    // The trace exercised every knob and both directions of batch_max.
    for knob in ["batch_max", "pool_threads", "shed_depth"] {
        assert!(
            first.iter().any(|l| l.contains(&format!("knob={knob}"))),
            "canned trace never stepped {knob}:\n{first:?}"
        );
    }
    assert!(first.iter().any(|l| l.contains("signal=backlog:")));
    assert!(first.iter().any(|l| l.contains("signal=idle:")));
    assert!(first.iter().any(|l| l.contains("signal=budget_blown:")));
    assert!(first.iter().any(|l| l.contains("signal=budget_ok:")));
}

#[test]
fn warmup_observation_never_steps() {
    // Even the most alarming first observation only anchors counters.
    let alarming = obs(10_000, 500, 50_000, 10_000);
    assert!(Governor::replay(test_config(), &[alarming]).is_empty());
}

/// Strategy: one raw observation tick — deltas, not cumulative values;
/// the property test integrates them so counters are monotone like the
/// real registry's.
fn tick_strategy() -> impl Strategy<Value = (u64, u64, u64, u64)> {
    (0u64..512, 0u64..32, 0u64..1024, 0u64..20_000)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn decisions_and_knobs_stay_within_declared_bounds(
        ticks in proptest::collection::vec(tick_strategy(), 1..80)
    ) {
        let cfg = test_config();
        let mut gov = Governor::new(cfg.clone());
        let (mut cum_drains, mut cum_rows) = (0u64, 0u64);
        for (qmax, d_drains, d_rows, burn) in ticks {
            cum_drains += d_drains;
            cum_rows += d_rows;
            for d in gov.step(&obs(qmax, cum_drains, cum_rows, burn)) {
                let bounds = match d.knob {
                    "batch_max" => Some(cfg.batch_bounds),
                    "pool_threads" => Some(cfg.pool_bounds),
                    "shed_depth" => Some(cfg.shed_bounds),
                    "par_threshold" => None,
                    other => panic!("unknown knob in decision: {other}"),
                };
                if let Some(b) = bounds {
                    prop_assert!(
                        (b.min as u64..=b.max as u64).contains(&d.new),
                        "decision left bounds: {}", d.line()
                    );
                } else {
                    prop_assert!(
                        d.new == cfg.par_threshold_low as u64
                            || d.new == cfg.initial_par_threshold as u64,
                        "par_threshold took a third value: {}", d.line()
                    );
                }
                prop_assert!(d.new != d.old, "no-op decision emitted: {}", d.line());
            }
            // The live values the runtime would apply also stay bounded.
            prop_assert!(gov.batch_max() >= cfg.batch_bounds.min);
            prop_assert!(gov.batch_max() <= cfg.batch_bounds.max);
            prop_assert!(gov.pool_threads() >= cfg.pool_bounds.min);
            prop_assert!(gov.pool_threads() <= cfg.pool_bounds.max);
            prop_assert!(gov.shed_depth() >= cfg.shed_bounds.min);
            prop_assert!(gov.shed_depth() <= cfg.shed_bounds.max);
        }
    }

    #[test]
    fn replay_matches_stepping_for_any_trace(
        ticks in proptest::collection::vec(tick_strategy(), 1..60)
    ) {
        let (mut cum_drains, mut cum_rows) = (0u64, 0u64);
        let trace: Vec<Observation> = ticks
            .into_iter()
            .map(|(qmax, d_drains, d_rows, burn)| {
                cum_drains += d_drains;
                cum_rows += d_rows;
                obs(qmax, cum_drains, cum_rows, burn)
            })
            .collect();
        let a = Governor::replay(test_config(), &trace);
        let b = Governor::replay(test_config(), &trace);
        prop_assert_eq!(a, b);
    }
}

/// Everything a `ModelServer` replica needs, cloneable into factories.
#[derive(Clone)]
struct ServerParts {
    kb: KbWarehouse,
    tag_texts: Vec<String>,
    rq_tags: Vec<Vec<usize>>,
    tenant_tags: Vec<Vec<usize>>,
    counts: Vec<usize>,
    model: Popularity,
}

impl ServerParts {
    fn from_world(world: &World) -> Self {
        let train: Vec<Vec<usize>> = world.sessions.iter().map(|s| s.clicks.clone()).collect();
        ServerParts {
            kb: world.build_kb(),
            tag_texts: world.tags.iter().map(|t| t.text()).collect(),
            rq_tags: world.rqs.iter().map(|r| r.tags.clone()).collect(),
            tenant_tags: (0..world.tenants.len()).map(|t| world.tenant_tag_pool(t)).collect(),
            counts: world.click_frequency(),
            model: Popularity::from_sessions(&train, world.tags.len()),
        }
    }

    fn build(&self) -> ModelServer<Popularity> {
        ModelServer::new(
            self.model.clone(),
            self.kb.clone(),
            self.tag_texts.clone(),
            self.rq_tags.clone(),
            self.tenant_tags.clone(),
            self.counts.clone(),
        )
    }
}

#[test]
fn parity_holds_while_governor_steps_mid_drain() {
    let world = World::generate(WorldConfig::tiny(37));
    let parts = ServerParts::from_world(&world);
    let single = parts.build();

    // Clicks-only stream: every request takes the batched drain path that
    // re-reads `batch_max` at each drain top.
    let mut rng = 0x5eedu64;
    let mut next = move || {
        rng = rng.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = rng;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    };
    let tenants = world.tenants.len();
    let stream: Vec<(usize, Vec<usize>)> = (0..400)
        .map(|_| {
            let tenant = (next() % tenants as u64) as usize;
            let pool = world.tenant_tag_pool(tenant);
            let n = 1 + (next() % 3) as usize;
            let clicks = (0..n).map(|_| pool[(next() % pool.len() as u64) as usize]).collect();
            (tenant, clicks)
        })
        .collect();
    let expected: Vec<TagClickResponse> =
        stream.iter().map(|(t, c)| single.handle_tag_click(*t, c)).collect();

    let registry = MetricsRegistry::new();
    let factory_parts = parts.clone();
    let front = Arc::new(ShardedServer::spawn(
        ShardConfig { shards: 2, batch_max: 8, queue_capacity: 64 },
        registry.clone(),
        move |_shard| factory_parts.build(),
    ));

    let cfg = test_config();
    let log = DecisionLog::new(4096);
    let governor = GovernorRuntime::spawn(
        cfg.clone(),
        registry.clone(),
        front.knobs(),
        log.clone(),
        Duration::from_millis(1),
    );

    // An adversarial flipper guarantees knob changes land mid-drain even
    // if the governor itself sees nothing to do: parity must be invariant
    // to ANY knob schedule, governed or not.
    let knobs = front.knobs();
    let flip_stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
    let flip_stop2 = Arc::clone(&flip_stop);
    let flipper = std::thread::spawn(move || {
        let mut i = 0usize;
        while !flip_stop2.load(std::sync::atomic::Ordering::Acquire) {
            knobs.set_batch_max([1, 4, 16, 8][i % 4]);
            knobs.set_shed_depth([64, 256, 32, 128][i % 4]);
            i += 1;
            std::thread::sleep(Duration::from_micros(200));
        }
    });

    // Concurrent clients: blocking sends (never shed), interleaved so
    // drains batch multiple requests while the knobs move underneath.
    let clients = 6;
    std::thread::scope(|scope| {
        for c in 0..clients {
            let (front, stream, expected) = (&front, &stream, &expected);
            scope.spawn(move || {
                for (i, (tenant, clicks)) in stream.iter().enumerate().skip(c).step_by(clients) {
                    let got = TagService::handle_tag_click(front.as_ref(), *tenant, clicks);
                    assert!(
                        got.same_content(&expected[i]),
                        "response {i} diverged under a stepping governor"
                    );
                }
            });
        }
    });
    flip_stop.store(true, std::sync::atomic::Ordering::Release);
    flipper.join().unwrap();

    // Replaying the runtime's recorded trace reproduces its decision log.
    // (Read the log before the trace: the loop is still ticking, so the
    // log is a prefix of what the later-read trace replays to.)
    let lines = governor.decision_log().lines();
    let trace = governor.observations();
    let replayed = Governor::replay(cfg, &trace);
    assert!(
        replayed.len() >= lines.len(),
        "replay lost decisions: {} < {}",
        replayed.len(),
        lines.len()
    );
    assert_eq!(
        &replayed[..lines.len()],
        &lines[..],
        "live decision log diverged from its trace replay"
    );
    governor.stop();
    drop(front);
}
