//! Cross-crate integration: the full IntelliTag pipeline on a tiny world —
//! generate → mine tags → build graph → train models → evaluate → serve.

use std::sync::Arc;

use intellitag::mining::{mine_tag_inventory, TagMiner};
use intellitag::prelude::*;

fn tiny_experiment() -> (World, Vec<Vec<usize>>, Vec<intellitag::datagen::SeqExample>) {
    let world = World::generate(WorldConfig::tiny(77));
    let split = split_sessions(&world.sessions, 0);
    let train: Vec<Vec<usize>> = split.train.iter().map(|s| s.clicks.clone()).collect();
    let test = sequence_examples(&split.test);
    (world, train, test)
}

#[test]
fn full_pipeline_smoke() {
    let (world, train, test) = tiny_experiment();
    let graph = world.build_graph();

    // 1. Tag mining produces a non-empty inventory overlapping ground truth.
    let sentences = labeled_sentences(&world);
    let miner = TagMiner::train(
        &sentences[..150],
        MinerConfig {
            dim: 24,
            layers: 1,
            heads: 2,
            train: intellitag::mining::TrainConfig { epochs: 3, lr: 5e-3, ..Default::default() },
            ..Default::default()
        },
    );
    let extractor = Extractor::multi_task(&miner);
    let inventory = mine_tag_inventory(&extractor, &sentences[150..]);
    assert!(!inventory.is_empty(), "mining must produce tags");
    let truth: Vec<String> = world.tags.iter().map(|t| t.text()).collect();
    let hits = inventory.iter().filter(|t| truth.contains(&t.text())).count();
    assert!(
        hits * 2 >= inventory.len(),
        "at least half of mined tags should be real tags ({hits}/{})",
        inventory.len()
    );

    // 2. TagRec training and evaluation beat the random floor.
    let texts: Vec<String> = world.tags.iter().map(|t| t.text()).collect();
    let cfg = TagRecConfig {
        dim: 16,
        heads: 2,
        seq_layers: 1,
        neighbor_cap: 4,
        train: TrainConfig { epochs: 3, lr: 5e-3, ..Default::default() },
        ..Default::default()
    };
    let model = IntelliTag::train(&graph, &texts, &train, cfg);
    let report = evaluate_offline(&model, &test, &world, &ProtocolConfig::default());
    // Random over 50 candidates gives MRR ~0.09.
    assert!(report.mrr > 0.12, "IntelliTag MRR {} must beat chance", report.mrr);

    // 3. The served system answers questions and recommends tags.
    let server = ModelServer::with_catalog(model, Arc::new(Catalog::from_world(&world)));
    let tenant = (0..world.tenants.len()).max_by_key(|&e| world.rqs_by_tenant[e].len()).unwrap();
    let rq = &world.rqs[world.rqs_by_tenant[tenant][0]];
    let q = server.handle_question(tenant, &rq.text());
    assert!(q.answer.is_some(), "a known question must be answered");
    assert!(!q.recommended_tags.is_empty());
    let click = q.recommended_tags[0];
    let r = server.handle_tag_click(tenant, &[click]);
    assert!(!r.predicted_questions.is_empty());
    assert!(!r.recommended_tags.contains(&click), "clicked tag excluded");
}

#[test]
fn online_simulation_closes_the_loop() {
    let (world, train, _) = tiny_experiment();
    let pop = Popularity::from_sessions(&train, world.tags.len());
    let server = ModelServer::with_catalog(pop, Arc::new(Catalog::from_world(&world)));
    let sim = SimConfig { days: 2, sessions_per_day: 50, ..Default::default() };
    let out = simulate_online(&server, &world, &UserModel::default(), &sim);
    assert_eq!(out.sessions, 100);
    // Some sessions must resolve without human help for a popularity policy
    // on a tiny topical world.
    assert!(out.hir < 1.0, "HIR {} should not be total failure", out.hir);
    assert!(out.mean_macro_ctr() > 0.0, "users should click sometimes");
}

#[test]
fn kb_and_graph_views_are_consistent() {
    let world = World::generate(WorldConfig::tiny(5));
    let graph = world.build_graph();
    let kb = world.build_kb();
    assert_eq!(kb.len(), graph.num_rqs());
    // Every RQ's tenant agrees between views.
    for (rq, pair) in kb.iter() {
        assert_eq!(Some(pair.tenant), graph.tenant_of_rq(rq));
    }
    // asc adjacency matches the world's ground truth.
    for (qid, rq) in world.rqs.iter().enumerate() {
        let mut graph_tags = graph.tags_of_rq(qid).to_vec();
        graph_tags.sort_unstable();
        assert_eq!(graph_tags, rq.tags);
    }
}
