//! Table VI — online HIR and response latency for the three A/B bucket
//! policies: metapath2vec, BERT4Rec and IntelliTag.
//!
//! Expected shape (paper): IntelliTag has the lowest HIR; metapath2vec is
//! much faster to serve (last-click lookup); the Transformer models cost a
//! comparable, ~order-of-magnitude higher latency that remains acceptable.
//!
//! Beyond the end-to-end latency column, each bucket now prints its
//! per-stage breakdown from the server's `serving.stage.*` histograms —
//! where a request's time goes (ES recall vs. rerank vs. model scoring) is
//! what makes the paper's "respond in under 150 ms" budget actionable.
//! A fourth bucket drives the same traffic through the sharded, batched
//! `ShardedServer` front, demonstrating Table VI through the front: same
//! HIR (responses are parity-pinned), plus queue/batch observability.

use criterion::{criterion_group, criterion_main, Criterion};
use intellitag_baselines::{Bert4Rec, M2vConfig, Metapath2Vec, Popularity, SequenceRecommender};
use intellitag_bench::{
    baseline_train_cfg, intellitag_cfg, Experiment, MODEL_DIM, MODEL_HEADS, MODEL_LAYERS,
};
use intellitag_core::{
    simulate_online, IntelliTag, ModelServer, ShardConfig, ShardedServer, SimConfig, SimOutcome,
    TagService,
};
use intellitag_datagen::{UserModel, World};
use intellitag_obs::MetricsRegistry;

fn make_server<M: SequenceRecommender>(world: &World, model: M) -> ModelServer<M> {
    ModelServer::new(
        model,
        world.build_kb(),
        world.tags.iter().map(|t| t.text()).collect(),
        world.rqs.iter().map(|r| r.tags.clone()).collect(),
        (0..world.tenants.len()).map(|e| world.tenant_tag_pool(e)).collect(),
        world.click_frequency(),
    )
}

fn run_bucket<M: SequenceRecommender>(
    world: &World,
    model: M,
    sim: &SimConfig,
) -> (ModelServer<M>, SimOutcome) {
    let server = make_server(world, model);
    let outcome = simulate_online(&server, world, &UserModel::default(), sim);
    (server, outcome)
}

/// Prints the per-stage serving-time breakdown a bucket accumulated during
/// its simulation (µs; p50/p99/mean per stage). This is the ROADMAP's
/// "wire the obs stage histograms into the latency benches" item: the
/// stage split explains *why* the policies' Table VI latency columns
/// differ (metapath2vec pays recall, the Transformers pay scoring).
fn print_stage_breakdown(policy: &str, registry: &MetricsRegistry) {
    println!("  {policy}: stage breakdown (us)");
    for stage in ["recall", "rerank", "score", "cache"] {
        let snap = registry.histogram(&format!("serving.stage.{stage}_us")).snapshot();
        if snap.count == 0 {
            continue;
        }
        let mean = snap.sum as f64 / snap.count as f64;
        println!(
            "    {:<8} p50 {:>8} p99 {:>8} mean {:>10.1} (n={})",
            stage,
            snap.quantile(0.5),
            snap.quantile(0.99),
            mean,
            snap.count
        );
    }
}

fn bench(c: &mut Criterion) {
    let exp = Experiment::standard(1);
    let n_tags = exp.world.tags.len();
    let sim = SimConfig { days: 5, sessions_per_day: 200, seed: 3, ..Default::default() };

    println!("\n=== Table VI: online HIR and response latency ===");

    let m2v = Metapath2Vec::train(&exp.graph, &M2vConfig { dim: MODEL_DIM, ..Default::default() });
    let (m2v_server, m2v_out) = run_bucket(&exp.world, m2v, &sim);

    let bert = Bert4Rec::train(
        &exp.train_sessions,
        n_tags,
        MODEL_DIM,
        MODEL_LAYERS,
        MODEL_HEADS,
        &baseline_train_cfg(),
    );
    let (bert_server, bert_out) = run_bucket(&exp.world, bert, &sim);

    let it = IntelliTag::train(&exp.graph, &exp.tag_texts, &exp.train_sessions, intellitag_cfg());
    let (it_server, it_out) = run_bucket(&exp.world, it, &sim);

    // --- the sharded bucket: same traffic, served through the front ------
    let pop = Popularity::from_sessions(&exp.train_sessions, n_tags);
    let (pop_server, pop_out) = run_bucket(&exp.world, pop.clone(), &sim);
    let front_registry = MetricsRegistry::new();
    let front = {
        let (world, pop) = (&exp.world, pop);
        let kb = world.build_kb();
        let tag_texts: Vec<String> = world.tags.iter().map(|t| t.text()).collect();
        let rq_tags: Vec<Vec<usize>> = world.rqs.iter().map(|r| r.tags.clone()).collect();
        let tenant_tags: Vec<Vec<usize>> =
            (0..world.tenants.len()).map(|e| world.tenant_tag_pool(e)).collect();
        let counts = world.click_frequency();
        ShardedServer::spawn(
            ShardConfig { shards: 4, batch_max: 8, queue_capacity: 256 },
            front_registry.clone(),
            move |_shard| {
                ModelServer::new(
                    pop.clone(),
                    kb.clone(),
                    tag_texts.clone(),
                    rq_tags.clone(),
                    tenant_tags.clone(),
                    counts.clone(),
                )
            },
        )
    };
    let front_out = simulate_online(&front, &exp.world, &UserModel::default(), &sim);
    assert_eq!(
        front_out.hir, pop_out.hir,
        "sharded front must reproduce the single-process bucket's HIR"
    );

    println!(
        "{:<24} {:>8} {:>16} {:>14} {:>10}",
        "Policy", "HIR", "latency(mean)", "latency(p99)", "sessions"
    );
    for o in [&m2v_out, &bert_out, &it_out, &pop_out] {
        println!(
            "{:<24} {:>8.3} {:>13.3} ms {:>11.3} ms {:>10}",
            o.policy, o.hir, o.mean_latency_ms, o.p99_latency_ms, o.sessions
        );
    }
    println!(
        "{:<24} {:>8.3} {:>13.3} ms {:>11.3} ms {:>10}",
        format!("{} (sharded x4)", front_out.policy),
        front_out.hir,
        front_out.mean_latency_ms,
        front_out.p99_latency_ms,
        front_out.sessions
    );
    println!(
        "(paper: HIR 0.218 / 0.214 / 0.212; latency 50.8 / 106.2 / 109.8 ms on the deployed stack)"
    );

    println!("\n--- per-stage serving time (from the obs stage histograms) ---");
    print_stage_breakdown(&m2v_out.policy, m2v_server.metrics());
    print_stage_breakdown(&bert_out.policy, bert_server.metrics());
    print_stage_breakdown(&it_out.policy, it_server.metrics());
    print_stage_breakdown(&format!("{} (sharded x4)", front_out.policy), &front_registry);

    // Front-specific observability: client-observed latency (queue wait +
    // batching delay + processing) and the drained batch sizes.
    let front_lat = front.front_latency_snapshot();
    let batches = front_registry.merged_histogram("sharded.batch");
    if front_lat.count > 0 && batches.count > 0 {
        println!(
            "  front: client-observed p50 {} us p99 {} us; mean batch {:.2} (max {})",
            front_lat.quantile(0.5),
            front_lat.quantile(0.99),
            batches.sum as f64 / batches.count as f64,
            batches.max
        );
    }

    // Criterion: per-request latency of the tag-click path, per policy —
    // this is the quantity Table VI's latency column measures. The sharded
    // entry measures the same request through the front, so the delta over
    // `tag_click_popularity` is the queue + dispatch overhead.
    let tenant =
        (0..exp.world.tenants.len()).max_by_key(|&e| exp.world.rqs_by_tenant[e].len()).unwrap();
    let clicks = vec![exp.world.tenant_tag_pool(tenant)[0]];
    c.bench_function("tag_click_metapath2vec", |b| {
        b.iter(|| m2v_server.handle_tag_click(tenant, &clicks))
    });
    c.bench_function("tag_click_bert4rec", |b| {
        b.iter(|| bert_server.handle_tag_click(tenant, &clicks))
    });
    c.bench_function("tag_click_intellitag", |b| {
        b.iter(|| it_server.handle_tag_click(tenant, &clicks))
    });
    c.bench_function("question_path_bm25", |b| {
        b.iter(|| it_server.handle_question(tenant, "how to change my password please"))
    });
    c.bench_function("tag_click_popularity", |b| {
        b.iter(|| pop_server.handle_tag_click(tenant, &clicks))
    });
    c.bench_function("tag_click_sharded_front", |b| {
        b.iter(|| front.handle_tag_click(tenant, &clicks))
    });
    front.shutdown();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(50);
    targets = bench
}
criterion_main!(benches);
