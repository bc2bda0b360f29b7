//! The paper's T+1 deployment cycle (§V-B): retrain offline on the data
//! accumulated through yesterday, serialize the artifacts, upload them to a
//! fresh model server, and keep serving — all without the server ever
//! running GNN layers online.

use intellitag::online::TempDir;
use intellitag::prelude::*;

fn make_server(world: &World, model: IntelliTag) -> ModelServer<IntelliTag> {
    ModelServer::new(
        model,
        world.build_kb(),
        world.tags.iter().map(|t| t.text()).collect(),
        world.rqs.iter().map(|r| r.tags.clone()).collect(),
        (0..world.tenants.len()).map(|e| world.tenant_tag_pool(e)).collect(),
        world.click_frequency(),
    )
}

#[test]
fn t_plus_one_retrain_upload_serve() {
    let world = World::generate(WorldConfig::tiny(55));
    let graph = world.build_graph();
    let texts: Vec<String> = world.tags.iter().map(|t| t.text()).collect();
    let split = split_sessions(&world.sessions, 0);
    let all_train: Vec<Vec<usize>> = split.train.iter().map(|s| s.clicks.clone()).collect();
    let test = sequence_examples(&split.test);

    let cfg = TagRecConfig {
        dim: 16,
        heads: 2,
        seq_layers: 1,
        neighbor_cap: 4,
        train: TrainConfig { epochs: 3, lr: 5e-3, ..Default::default() },
        ..Default::default()
    };

    // Day T: train on the first half of the log and deploy.
    let day1 = &all_train[..all_train.len() / 2];
    let model_day1 = IntelliTag::train(&graph, &texts, day1, cfg);
    let eval_day1 = evaluate_offline(&model_day1, &test, &world, &ProtocolConfig::default());
    let server = make_server(&world, model_day1);
    let tenant = (0..world.tenants.len()).max_by_key(|&e| world.rqs_by_tenant[e].len()).unwrap();
    let first_tag = world.tenant_tag_pool(tenant)[0];
    let resp_day1 = server.handle_tag_click(tenant, &[first_tag]);
    assert!(!resp_day1.recommended_tags.is_empty());

    // Day T+1: retrain offline on the full accumulated log...
    let model_day2 = IntelliTag::train(&graph, &texts, &all_train, cfg);
    let eval_day2 = evaluate_offline(&model_day2, &test, &world, &ProtocolConfig::default());
    // ...serialize the artifacts (what the trainer uploads)...
    let mut artifact = Vec::new();
    model_day2.save(&mut artifact).unwrap();
    // ...and bring up a fresh server from the uploaded bytes.
    let uploaded = IntelliTag::load(&graph, &texts, cfg, &mut artifact.as_slice()).unwrap();
    let server2 = make_server(&world, uploaded);
    let resp_day2 = server2.handle_tag_click(tenant, &[first_tag]);
    assert!(!resp_day2.recommended_tags.is_empty());

    // The uploaded model is byte-identical in behaviour to the retrained one.
    let direct = make_server(&world, model_day2);
    let resp_direct = direct.handle_tag_click(tenant, &[first_tag]);
    assert_eq!(resp_day2.recommended_tags, resp_direct.recommended_tags);
    assert_eq!(resp_day2.predicted_questions, resp_direct.predicted_questions);

    // More accumulated data should not make the model much worse (it
    // usually improves it; tolerate noise on the tiny world).
    assert!(
        eval_day2.mrr >= eval_day1.mrr - 0.05,
        "day2 MRR {} fell too far below day1 {}",
        eval_day2.mrr,
        eval_day1.mrr
    );
}

#[test]
fn wal_replay_agrees_with_the_offline_t_plus_one_pipeline() {
    // The continuous-training loop must be a faithful transport for the
    // T+1 pipeline: logging a day's click traffic through the WAL, crash-
    // recovering it, and training on the replayed sessions produces an
    // artifact byte-identical to the offline trainer fed the same sessions
    // directly. (Questions ride the same log but feed the Q&A side, not
    // sequence training — they must not perturb the replayed sessions.)
    let world = World::generate(WorldConfig::tiny(55));
    let graph = world.build_graph();
    let texts: Vec<String> = world.tags.iter().map(|t| t.text()).collect();
    let split = split_sessions(&world.sessions, 0);
    let day2: Vec<&Session> = split.train.iter().skip(split.train.len() / 2).collect();
    let day2_sessions: Vec<Vec<usize>> = day2.iter().map(|s| s.clicks.clone()).collect();

    // Serving logs the day's traffic: one TagClick per session trail,
    // interleaved with the questions users actually asked.
    let metrics = MetricsRegistry::new();
    let dir = TempDir::new("t1").unwrap();
    let path = dir.path().join("day2.wal");
    let (mut writer, _) = WalWriter::open(&path, 4, &metrics).unwrap();
    for s in &day2 {
        writer.append(&WalEvent::TagClick { tenant: s.tenant, clicks: s.clicks.clone() }).unwrap();
        if let Some(&rq) = s.consulted.first() {
            writer
                .append(&WalEvent::Question { tenant: s.tenant, text: world.rqs[rq].text() })
                .unwrap();
        }
    }
    drop(writer); // final fsync

    // A crash appends garbage after the last record; recovery must shrug
    // it off and replay exactly the logged day.
    let mut bytes = std::fs::read(&path).unwrap();
    bytes.extend_from_slice(&[0x07, 0x99]);
    std::fs::write(&path, &bytes).unwrap();
    let recovered = recover(&path).unwrap();
    assert_eq!(recovered.truncated, 2);
    let replayed = click_sessions(&recovered.events);
    assert_eq!(replayed, day2_sessions, "WAL replay must reproduce the day's sessions exactly");

    // Offline and WAL-replayed training agree to the byte.
    let cfg = TagRecConfig {
        dim: 16,
        heads: 2,
        seq_layers: 1,
        neighbor_cap: 4,
        train: TrainConfig { epochs: 1, lr: 5e-3, ..Default::default() },
        ..Default::default()
    };
    let offline = IntelliTag::train(&graph, &texts, &day2_sessions, cfg);
    let online = IntelliTag::train(&graph, &texts, &replayed, cfg);
    let (mut a, mut b) = (Vec::new(), Vec::new());
    offline.save(&mut a).unwrap();
    online.save(&mut b).unwrap();
    assert_eq!(a, b, "offline and WAL-replayed artifacts must be byte-identical");
}
