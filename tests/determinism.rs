//! Seed determinism across the whole stack: identical seeds must produce
//! bit-identical models, metrics and simulations.

use std::sync::Arc;

use intellitag::prelude::*;

#[test]
fn world_and_graph_are_deterministic() {
    let a = World::generate(WorldConfig::tiny(123));
    let b = World::generate(WorldConfig::tiny(123));
    assert_eq!(a.tags.len(), b.tags.len());
    for (x, y) in a.tags.iter().zip(&b.tags) {
        assert_eq!(x.words, y.words);
    }
    let (ga, gb) = (a.build_graph(), b.build_graph());
    assert_eq!(ga.relation_counts(), gb.relation_counts());
}

#[test]
fn trained_models_are_deterministic() {
    let world = World::generate(WorldConfig::tiny(9));
    let split = split_sessions(&world.sessions, 0);
    let train: Vec<Vec<usize>> = split.train.iter().map(|s| s.clicks.clone()).collect();
    let cfg = TrainConfig { epochs: 2, ..Default::default() };

    let m1 = Gru4Rec::train(&train, world.tags.len(), 16, &cfg);
    let m2 = Gru4Rec::train(&train, world.tags.len(), 16, &cfg);
    let ctx = vec![train[0][0]];
    assert_eq!(m1.score_all(&ctx), m2.score_all(&ctx), "GRU4Rec must be deterministic");

    let graph = world.build_graph();
    let m2v_cfg = M2vConfig { epochs: 1, ..Default::default() };
    let v1 = Metapath2Vec::train(&graph, &m2v_cfg);
    let v2 = Metapath2Vec::train(&graph, &m2v_cfg);
    assert_eq!(v1.score_all(&ctx), v2.score_all(&ctx), "metapath2vec must be deterministic");
}

#[test]
fn intellitag_is_deterministic_end_to_end() {
    let world = World::generate(WorldConfig::tiny(9));
    let graph = world.build_graph();
    let split = split_sessions(&world.sessions, 0);
    let train: Vec<Vec<usize>> = split.train.iter().map(|s| s.clicks.clone()).collect();
    let texts: Vec<String> = world.tags.iter().map(|t| t.text()).collect();
    let cfg = TagRecConfig {
        dim: 16,
        heads: 2,
        seq_layers: 1,
        neighbor_cap: 4,
        train: TrainConfig { epochs: 1, ..Default::default() },
        ..Default::default()
    };
    let m1 = IntelliTag::train(&graph, &texts, &train, cfg);
    let m2 = IntelliTag::train(&graph, &texts, &train, cfg);
    assert_eq!(m1.z_table(), m2.z_table(), "z tables must match bit-for-bit");
    let ctx = vec![0usize, 1];
    assert_eq!(m1.score_all(&ctx), m2.score_all(&ctx));
}

#[test]
fn evaluation_and_simulation_are_deterministic() {
    let world = World::generate(WorldConfig::tiny(2));
    let split = split_sessions(&world.sessions, 0);
    let train: Vec<Vec<usize>> = split.train.iter().map(|s| s.clicks.clone()).collect();
    let test = sequence_examples(&split.test);
    let pop = Popularity::from_sessions(&train, world.tags.len());

    let r1 = evaluate_offline(&pop, &test, &world, &ProtocolConfig::default());
    let r2 = evaluate_offline(&pop, &test, &world, &ProtocolConfig::default());
    assert_eq!(r1.mrr, r2.mrr);
    assert_eq!(r1.ndcg10, r2.ndcg10);

    let server = ModelServer::with_catalog(pop, Arc::new(Catalog::from_world(&world)));
    let sim = SimConfig { days: 2, sessions_per_day: 25, seed: 11, ..Default::default() };
    let o1 = simulate_online(&server, &world, &UserModel::default(), &sim);
    let o2 = simulate_online(&server, &world, &UserModel::default(), &sim);
    assert_eq!(o1.hir, o2.hir);
    for (a, b) in o1.daily.iter().zip(&o2.daily) {
        assert_eq!(a.macro_ctr, b.macro_ctr);
    }
}

#[test]
fn different_seeds_change_the_world() {
    let a = World::generate(WorldConfig::tiny(1));
    let b = World::generate(WorldConfig::tiny(2));
    let differing =
        a.sessions.iter().zip(&b.sessions).filter(|(x, y)| x.clicks != y.clicks).count();
    assert!(differing > 0, "different seeds must differ");
}
