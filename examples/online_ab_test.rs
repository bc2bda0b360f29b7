//! Online A/B simulation (paper §VI-F): three traffic buckets —
//! metapath2vec, BERT4Rec and IntelliTag — serve the same simulated user
//! population; daily macro-averaged CTR (Fig. 7), HIR and response latency
//! (Table VI) are reported.
//!
//! ```sh
//! cargo run --release --example online_ab_test
//! ```

use std::sync::Arc;

use intellitag::core::SimOutcome;
use intellitag::prelude::*;

/// Runs one traffic bucket on a metrics registry of its own: each server
/// publishes its per-stage latency histograms and counters into its own
/// scrape surface.
fn bucket<M: SequenceRecommender>(
    name: &str,
    model: M,
    catalog: &Arc<Catalog>,
    world: &World,
    user: &UserModel,
    sim: &SimConfig,
) -> (SimOutcome, MetricsRegistry) {
    println!("bucket: {name}");
    let registry = MetricsRegistry::new();
    let server =
        ModelServer::with_catalog(model, Arc::clone(catalog)).with_metrics(registry.clone());
    (simulate_online(&server, world, user, sim), registry)
}

fn main() {
    // The sparse regime: many long-tail tags and small tenants, where the
    // paper's online findings (macro-CTR, HIR) live.
    let world = World::generate(WorldConfig::sparse_eval(23));
    let graph = world.build_graph();
    let split = split_sessions(&world.sessions, 0);
    let train: Vec<Vec<usize>> = split.train.iter().map(|s| s.clicks.clone()).collect();
    let texts: Vec<String> = world.tags.iter().map(|t| t.text()).collect();

    println!("training the three bucket policies ...");
    let m2v = Metapath2Vec::train(&graph, &M2vConfig::default());
    let tc = TrainConfig { epochs: 3, lr: 3e-3, ..Default::default() };
    let bert = Bert4Rec::train(&train, world.tags.len(), 64, 2, 4, &tc);
    let intellitag =
        IntelliTag::train(&graph, &texts, &train, TagRecConfig { train: tc, ..Default::default() });

    let sim = SimConfig { days: 10, sessions_per_day: 150, ..Default::default() };
    let user = UserModel::default();
    // Every bucket answers from the same catalog; only the policy differs.
    let catalog = Arc::new(Catalog::from_world(&world));
    let (outcomes, registries): (Vec<_>, Vec<_>) = [
        bucket("metapath2vec", m2v, &catalog, &world, &user, &sim),
        bucket("BERT4Rec", bert, &catalog, &world, &user, &sim),
        bucket("IntelliTag", intellitag, &catalog, &world, &user, &sim),
    ]
    .into_iter()
    .unzip();

    println!("\n== Fig 7: daily macro-averaged CTR ==");
    print!("{:<14}", "day");
    for o in &outcomes {
        print!(" {:>13}", o.policy);
    }
    println!();
    for d in 0..sim.days {
        print!("{:<14}", d + 1);
        for o in &outcomes {
            print!(" {:>13.4}", o.daily[d].macro_ctr);
        }
        println!();
    }

    println!("\n== Table VI: HIR and response latency ==");
    println!(
        "{:<14} {:>8} {:>14} {:>14} {:>10}",
        "Policy", "HIR", "latency(mean)", "latency(p99)", "sessions"
    );
    for o in &outcomes {
        println!(
            "{:<14} {:>8.3} {:>11.3} ms {:>11.3} ms {:>10}",
            o.policy, o.hir, o.mean_latency_ms, o.p99_latency_ms, o.sessions
        );
    }

    println!("\n== per-stage p99 latency (µs, from each bucket's metrics registry) ==");
    println!(
        "{:<14} {:>10} {:>10} {:>10} {:>12} {:>10}",
        "Policy", "recall", "rerank", "score", "cold-starts", "requests"
    );
    for (o, registry) in outcomes.iter().zip(&registries) {
        println!(
            "{:<14} {:>10} {:>10} {:>10} {:>12} {:>10}",
            o.policy,
            registry.histogram("serving.stage.recall_us").quantile(0.99),
            registry.histogram("serving.stage.rerank_us").quantile(0.99),
            registry.histogram("serving.stage.score_us").quantile(0.99),
            registry.counter("serving.cold_start_fallback").get(),
            registry.histogram("serving.request_us").count(),
        );
    }
}
