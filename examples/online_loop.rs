//! The full continuous-training loop, closed over a real TCP socket:
//!
//! ```text
//! clients ──HTTP──▶ gateway ──▶ sharded IntelliTag front
//!                      │ (EventSink)            ▲ epoch-fenced swap
//!                      ▼                        │
//!                  click WAL ──▶ incremental trainer ──▶ versioned snapshot
//! ```
//!
//! Every accepted click/question is appended to the write-ahead event log
//! by the gateway's [`WalSink`]; the trainer tails that log, folds each
//! full batch into the model with a deterministic one-shot increment, and
//! publishes the resulting snapshot through the [`SnapshotRegistry`] into
//! the serving front's [`ModelSwap`]. The front applies it at a drain
//! boundary — zero downtime, no mixed-version batch — and the very next
//! HTTP reply carries the bumped `X-Model-Version` header.
//!
//! The run asserts, per wave of traffic: the WAL grew, the trainer
//! produced exactly one new snapshot version, `/healthz` and the reply
//! headers report it, and (at the end) the front's answers are
//! byte-identical to a fresh server built directly from the latest
//! snapshot bytes.
//!
//! ```sh
//! cargo run --release --example online_loop            # 4 waves
//! cargo run --release --example online_loop -- --smoke # 2 waves (CI-sized)
//! ```

use std::sync::Arc;

use intellitag::online::TempDir;
use intellitag::prelude::*;

fn quick_cfg() -> TagRecConfig {
    TagRecConfig {
        dim: 16,
        heads: 2,
        seq_layers: 1,
        neighbor_cap: 4,
        train: TrainConfig {
            epochs: 1,
            lr: 0.01,
            batch_size: 16,
            seed: 7,
            mask_prob: 0.0,
            ..Default::default()
        },
        ..Default::default()
    }
}

/// The world-derived serving data every replica shares; only the model
/// bytes differ across versions.
struct Stack {
    world: World,
    graph: HetGraph,
    texts: Vec<String>,
    cfg: TagRecConfig,
}

impl Stack {
    fn load(&self, bytes: &[u8]) -> IntelliTag {
        IntelliTag::load(&self.graph, &self.texts, self.cfg, &mut &bytes[..])
            .expect("snapshot bytes load")
    }

    fn server(&self, model: IntelliTag) -> ModelServer<IntelliTag> {
        ModelServer::new(
            model,
            self.world.build_kb(),
            self.texts.clone(),
            self.world.rqs.iter().map(|r| r.tags.clone()).collect(),
            (0..self.world.tenants.len()).map(|t| self.world.tenant_tag_pool(t)).collect(),
            self.world.click_frequency(),
        )
    }
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let (waves, per_wave) = if smoke { (2u64, 12usize) } else { (4u64, 24usize) };

    // ---- offline day-zero: world + base model ---------------------------
    let world = World::generate(WorldConfig::tiny(91));
    let graph = world.build_graph();
    let texts: Vec<String> = world.tags.iter().map(|t| t.text()).collect();
    let train: Vec<Vec<usize>> = world.sessions.iter().map(|s| s.clicks.clone()).collect();
    println!("training the day-zero IntelliTag checkpoint ...");
    let base = IntelliTag::train(&graph, &texts, &train, quick_cfg());
    let mut base_bytes = Vec::new();
    base.save(&mut base_bytes).expect("in-memory save");
    let stack = Arc::new(Stack { world, graph, texts, cfg: quick_cfg() });

    // ---- serving side: swappable sharded front behind the gateway -------
    let metrics = MetricsRegistry::new();
    let swap = ModelSwap::new();
    let base_bytes = Arc::new(base_bytes);
    let (stack_f, stack_l, boot) =
        (Arc::clone(&stack), Arc::clone(&stack), Arc::clone(&base_bytes));
    let front = Arc::new(ShardedServer::spawn_swappable(
        ShardConfig { shards: 2, batch_max: 4, queue_capacity: 256 },
        metrics.clone(),
        move |_shard| stack_f.server(stack_f.load(&boot)),
        swap.clone(),
        move |_shard, payload| stack_l.load(&payload.bytes),
    ));

    let wal_dir = TempDir::new("online-loop").expect("temp dir");
    let wal_path = wal_dir.path().join("clicks.wal");
    let (writer, recovered) = WalWriter::open(&wal_path, 8, &metrics).expect("wal open");
    assert!(recovered.events.is_empty(), "fresh log starts empty");
    let sink = Arc::new(WalSink::new(writer, &metrics));

    let share = Arc::clone(&front);
    let gateway = Gateway::spawn_with_sink(
        "127.0.0.1:0",
        GatewayConfig { workers: 2, ..Default::default() },
        &metrics,
        move |_worker| Arc::clone(&share),
        Some(Arc::clone(&sink) as Arc<dyn EventSink>),
    )
    .expect("gateway binds an ephemeral port");
    let addr = gateway.addr();
    println!("gateway listening on http://{addr}, logging events to {}", wal_path.display());

    // ---- training side: trainer tailing the very same log ---------------
    let registry = Arc::new(SnapshotRegistry::new(8, &metrics));
    let mut trainer = OnlineTrainer::new(
        stack.load(&base_bytes),
        &wal_path,
        TrainerConfig { batch_events: per_wave, epochs: 1 },
        Arc::clone(&registry),
        Some(swap.clone()),
        &metrics,
    );

    // ---- waves of live traffic ------------------------------------------
    let mut client = GatewayClient::new(addr);
    let tenants = stack.world.tenants.len();
    for wave in 1..=waves {
        let wal_before = metrics.counter("wal.appends").get();
        for i in 0..per_wave {
            let tenant = (wave as usize * 7 + i) % tenants;
            let pool = stack.world.tenant_tag_pool(tenant);
            if i % 6 == 5 {
                // Questions ride the same log; they feed the Q&A side, not
                // sequence training, so they must not perturb increments.
                let rq = &stack.world.rqs_by_tenant[tenant];
                let question = stack.world.rqs[rq[i % rq.len()]].text();
                let req = RecommendRequest { tenant, question: Some(question), clicks: vec![] };
                client.recommend(&req).expect("question answered");
            } else {
                let n = 2 + i % 2.min(pool.len().saturating_sub(2)).max(1);
                let clicks = (0..n).map(|k| pool[(i + k * 3) % pool.len()]).collect();
                let req = RecommendRequest { tenant, question: None, clicks };
                let (_, version) = client.click_versioned(&req).expect("click answered");
                assert_eq!(
                    version,
                    Some(wave - 1),
                    "wave {wave}: replies must carry the previous wave's model version"
                );
            }
        }
        sink.sync(); // flush the wave to disk before the trainer looks

        let appended = metrics.counter("wal.appends").get() - wal_before;
        assert_eq!(appended, per_wave as u64, "every accepted request logs exactly one event");
        let snapshot = trainer
            .poll()
            .expect("trainer polls the log")
            .expect("a full batch must produce a snapshot");
        assert_eq!(snapshot.version, wave, "one snapshot per wave");

        // The swap applies at the next drain boundary: the very next reply
        // and the health endpoint both report the new version.
        let pool = stack.world.tenant_tag_pool(0);
        let (_, version) = client
            .click_versioned(&RecommendRequest {
                tenant: 0,
                question: None,
                clicks: pool[..2.min(pool.len())].to_vec(),
            })
            .expect("post-swap click answered");
        assert_eq!(version, Some(wave), "the swap lands before the next drain");
        let health = client.healthz().expect("healthz");
        assert!(
            health.contains(&format!("\"model_version\":{wave}")),
            "healthz must report v{wave}, got: {health}"
        );
        println!(
            "wave {wave}: {per_wave} events logged -> snapshot v{} ({} events folded) -> live",
            snapshot.version,
            trainer.events_consumed(),
        );
    }

    // ---- parity: the front serves exactly the latest snapshot -----------
    let latest = registry.latest().expect("registry holds the latest snapshot");
    assert_eq!(latest.version, waves);
    let oracle = stack.server(stack.load(&latest.bytes));
    for tenant in 0..tenants {
        let pool = stack.world.tenant_tag_pool(tenant);
        let clicks: Vec<usize> = pool.iter().copied().take(2).collect();
        let expect = oracle.handle_tag_click(tenant, &clicks);
        let req = RecommendRequest { tenant, question: None, clicks };
        let got = client.click(&req).expect("parity click answered");
        assert_eq!(got.recommended_tags, expect.recommended_tags, "tenant {tenant} parity");
        assert_eq!(got.predicted_questions, expect.predicted_questions, "tenant {tenant} parity");
    }
    println!(
        "\nparity: all {tenants} tenants byte-identical to a fresh server from snapshot v{}",
        latest.version
    );

    println!(
        "wal: {} appends / {} bytes / {} fsyncs | trainer: {} increments over {} events | \
         serving: v{:.0} after {} swaps",
        metrics.counter("wal.appends").get(),
        metrics.counter("wal.bytes").get(),
        metrics.counter("wal.fsyncs").get(),
        metrics.counter("trainer.increments").get(),
        metrics.counter("trainer.events_consumed").get(),
        metrics.gauge("serving.model_version").get(),
        metrics.counter("serving.swaps").get(),
    );

    client.close();
    gateway.shutdown();
    drop(front);
    println!("closed loop verified: serve -> log -> train -> snapshot -> swap -> serve");
}
