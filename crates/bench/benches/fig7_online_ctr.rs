//! Fig. 7 — online CTR over simulated days, IntelliTag vs BERT4Rec vs
//! metapath2vec (A/B buckets over the same intent stream, macro-averaged
//! CTR per tenant).
//!
//! Expected shape (paper): IntelliTag consistently highest; BERT4Rec lands
//! *below* metapath2vec on the macro average because its quality varies
//! sharply across (small) tenants.

use criterion::{criterion_group, criterion_main, Criterion};
use intellitag_baselines::{Bert4Rec, M2vConfig, Metapath2Vec, SequenceRecommender};
use intellitag_bench::{
    baseline_train_cfg, intellitag_cfg, Experiment, MODEL_DIM, MODEL_HEADS, MODEL_LAYERS,
};
use intellitag_core::{simulate_online, Catalog, IntelliTag, ModelServer, SimConfig, SimOutcome};
use intellitag_datagen::{UserModel, World};
use std::sync::Arc;

fn bucket<M: SequenceRecommender>(
    world: &World,
    catalog: &Arc<Catalog>,
    model: M,
    sim: &SimConfig,
) -> SimOutcome {
    let server = ModelServer::with_catalog(model, Arc::clone(catalog));
    simulate_online(&server, world, &UserModel::default(), sim)
}

fn run_fig7() {
    let exp = Experiment::standard(1);
    let n_tags = exp.world.tags.len();
    // Same seed for every bucket: proper A/B bucketing over one intent
    // stream, 10 monitored days as in the paper (2020/3/19 - 2020/3/28).
    // The question-first path is disabled: Fig. 7 measures the CTR of the
    // *recommended tags*, so every impression must come from the policy
    // under test rather than the shared BM25 question path.
    let sim = SimConfig {
        days: 10,
        sessions_per_day: 200,
        seed: 7,
        ask_question_first: false,
        ..Default::default()
    };

    let m2v = Metapath2Vec::train(&exp.graph, &M2vConfig { dim: MODEL_DIM, ..Default::default() });
    let bert = Bert4Rec::train(
        &exp.train_sessions,
        n_tags,
        MODEL_DIM,
        MODEL_LAYERS,
        MODEL_HEADS,
        &baseline_train_cfg(),
    );
    let it = IntelliTag::train(&exp.graph, &exp.tag_texts, &exp.train_sessions, intellitag_cfg());

    let catalog = Arc::new(Catalog::from_world(&exp.world));
    let outcomes = [
        bucket(&exp.world, &catalog, m2v, &sim),
        bucket(&exp.world, &catalog, bert, &sim),
        bucket(&exp.world, &catalog, it, &sim),
    ];

    println!("\n=== Fig 7: online CTR (macro-averaged over tenants) ===");
    print!("{:<6}", "day");
    for o in &outcomes {
        print!(" {:>14}", o.policy);
    }
    println!();
    for d in 0..sim.days {
        print!("{:<6}", d + 1);
        for o in &outcomes {
            print!(" {:>14.4}", o.daily[d].macro_ctr);
        }
        println!();
    }
    print!("{:<6}", "mean");
    for o in &outcomes {
        print!(" {:>14.4}", o.mean_macro_ctr());
    }
    println!();
}

fn bench(c: &mut Criterion) {
    run_fig7();
    // Criterion target: one full simulated day for the cheapest policy.
    let exp = Experiment::standard(1);
    let m2v = Metapath2Vec::train(&exp.graph, &M2vConfig { dim: MODEL_DIM, ..Default::default() });
    let server = ModelServer::with_catalog(m2v, Arc::new(Catalog::from_world(&exp.world)));
    let day = SimConfig { days: 1, sessions_per_day: 50, seed: 1, ..Default::default() };
    c.bench_function("simulate_one_day_m2v_50_sessions", |b| {
        b.iter(|| simulate_online(&server, &exp.world, &UserModel::default(), &day))
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench
}
criterion_main!(benches);
