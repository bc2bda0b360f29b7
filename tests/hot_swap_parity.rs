//! Zero-downtime, epoch-fenced hot-swap with the real IntelliTag model.
//!
//! The continuous-training loop's serving-side guarantee, end to end: a
//! sharded front under concurrent load receives a new model snapshot
//! mid-stream and
//!
//! 1. loses no request — every submission is answered;
//! 2. never mixes versions inside a drain — each response matches either
//!    the old or the new model's oracle byte-for-byte, nothing in between;
//! 3. after the swap settles, serves responses byte-identical to a fresh
//!    server built directly from the published snapshot bytes;
//! 4. surfaces the live version (`ShardedServer::model_version`, the
//!    `serving.model_version` gauge) and never rolls back to a stale one.

use intellitag::prelude::*;
use std::sync::Arc;

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

/// Everything needed to (re)build a serving replica around any model
/// image — the world's catalog is identical across versions and shared by
/// every replica, only the model bytes change.
struct Fixture {
    world: World,
    graph: HetGraph,
    texts: Vec<String>,
    catalog: Arc<Catalog>,
    cfg: TagRecConfig,
}

impl Fixture {
    fn new(seed: u64) -> Fixture {
        let world = World::generate(WorldConfig::tiny(seed));
        let graph = world.build_graph();
        let texts: Vec<String> = world.tags.iter().map(|t| t.text()).collect();
        let catalog = Arc::new(Catalog::from_world(&world));
        Fixture { world, graph, texts, catalog, cfg: quick_cfg() }
    }

    fn train_base(&self) -> IntelliTag {
        let train: Vec<Vec<usize>> = self.world.sessions.iter().map(|s| s.clicks.clone()).collect();
        IntelliTag::train(&self.graph, &self.texts, &train, self.cfg)
    }

    fn load(&self, bytes: &[u8]) -> IntelliTag {
        IntelliTag::load(&self.graph, &self.texts, self.cfg, &mut &bytes[..])
            .expect("snapshot bytes must load")
    }

    fn server(&self, model: IntelliTag) -> ModelServer<IntelliTag> {
        ModelServer::with_catalog(model, Arc::clone(&self.catalog))
    }
}

fn save(model: &IntelliTag) -> Vec<u8> {
    let mut bytes = Vec::new();
    model.save(&mut bytes).expect("in-memory save");
    bytes
}

/// Clicks-only request stream (the batched, model-scoring path) over every
/// tenant's real tag pool.
fn click_stream(world: &World, len: usize) -> Vec<(usize, Vec<usize>)> {
    let tenants = world.tenants.len();
    (0..len)
        .map(|i| {
            let tenant = i % tenants;
            let pool = world.tenant_tag_pool(tenant);
            let n = 1 + i % 2.min(pool.len().max(1)).max(1);
            let clicks = (0..n).map(|k| pool[(i + k * 3) % pool.len()]).collect();
            (tenant, clicks)
        })
        .collect()
}

fn answers<S: TagService>(
    server: &S,
    stream: &[(usize, Vec<usize>)],
) -> Vec<(Vec<usize>, Vec<usize>)> {
    stream
        .iter()
        .map(|(tenant, clicks)| {
            let r = server.handle_tag_click(*tenant, clicks);
            (r.recommended_tags, r.predicted_questions)
        })
        .collect()
}

#[test]
fn hot_swap_under_concurrent_load_loses_nothing_and_reaches_snapshot_parity() {
    let fx = Arc::new(Fixture::new(61));
    let metrics = MetricsRegistry::new();

    // The continuous-training side: base model, one WAL-batch increment,
    // published as snapshot v1 through the registry.
    let mut model = fx.train_base();
    let base_bytes = save(&model);
    let increment: Vec<Vec<usize>> = fx
        .world
        .sessions
        .iter()
        .map(|s| s.clicks.clone())
        .filter(|c| c.len() >= 2)
        .take(6)
        .collect();
    model.train_increment(&increment, 1, 1, &metrics);
    let v1_bytes = save(&model);
    assert_ne!(base_bytes, v1_bytes, "the increment must move the model");

    let registry = SnapshotRegistry::new(4, &metrics);
    let snapshot = registry.publish(v1_bytes, increment.len() as u64, 1, 0);
    assert_eq!(snapshot.version, 1);

    // Serving side: a 2-shard swappable front booted on the base model.
    let swap = ModelSwap::new();
    let stream = click_stream(&fx.world, 40);
    let expected_base = answers(&fx.server(fx.load(&base_bytes)), &stream);
    let expected_v1 = answers(&fx.server(fx.load(&snapshot.bytes)), &stream);
    assert_ne!(expected_base, expected_v1, "oracles must be distinguishable");

    let (fx_f, fx_l) = (Arc::clone(&fx), Arc::clone(&fx));
    let base_for_factory = Arc::new(base_bytes);
    let front = ShardedServer::spawn_swappable(
        ShardConfig { shards: 2, batch_max: 4, queue_capacity: 256 },
        metrics.clone(),
        move |_shard| fx_f.server(fx_f.load(&base_for_factory)),
        swap.clone(),
        move |_shard, payload| fx_l.load(&payload.bytes),
    );
    assert_eq!(front.model_version(), 0, "boots on the base (unversioned) model");

    // Concurrent clients hammer the front while the snapshot lands
    // mid-stream. Every reply must match one oracle exactly — the epoch
    // fence means there is no third possibility — and none may be lost.
    let rounds = 6usize;
    std::thread::scope(|scope| {
        for client in 0..3usize {
            let (front, stream) = (&front, &stream);
            let (expected_base, expected_v1) = (&expected_base, &expected_v1);
            scope.spawn(move || {
                for round in 0..rounds {
                    for (i, (tenant, clicks)) in stream.iter().enumerate() {
                        let r = TagService::handle_tag_click(front, *tenant, clicks);
                        let got = (r.recommended_tags, r.predicted_questions);
                        assert!(
                            got == expected_base[i] || got == expected_v1[i],
                            "client {client} round {round} request {i}: reply from a \
                             version that never existed: {got:?}"
                        );
                    }
                }
            });
        }
        std::thread::sleep(std::time::Duration::from_millis(5));
        assert!(swap.publish(snapshot.to_swap_payload()), "first publish accepted");
        assert!(!swap.publish(snapshot.to_swap_payload()), "duplicate version rejected");
    });

    // Settled: the front reports v1 and serves byte-identical responses to
    // a fresh single-process server built from the snapshot bytes.
    assert_eq!(front.model_version(), 1);
    assert_eq!(answers(&front, &stream), expected_v1, "post-swap parity with the snapshot");
    assert_eq!(metrics.gauge("serving.model_version").get(), 1.0);
    assert!(metrics.counter("serving.swaps").get() >= 1);

    // A stale republish (same version) must not roll anything back.
    assert!(!swap.publish(SwapPayload { version: 1, bytes: Arc::clone(&snapshot.bytes) }));
    assert_eq!(answers(&front, &stream), expected_v1);
    front.shutdown();
}

#[test]
fn snapshot_artifact_survives_disk_and_swaps_into_a_booted_front() {
    // The full artifact path: increment → registry → serialized snapshot →
    // read back from "disk" → published to a front that booted *before*
    // ever hearing of v1 — pre-published payloads apply before the first
    // drain, so even the first request is served by the new model.
    let fx = Arc::new(Fixture::new(33));
    let metrics = MetricsRegistry::new();
    let mut model = fx.train_base();
    let sessions: Vec<Vec<usize>> = fx
        .world
        .sessions
        .iter()
        .map(|s| s.clicks.clone())
        .filter(|c| c.len() >= 2)
        .take(4)
        .collect();
    model.train_increment(&sessions, 1, 9, &metrics);

    let registry = SnapshotRegistry::new(2, &metrics);
    let snapshot = registry.publish(save(&model), sessions.len() as u64, 1, 0);
    let mut wire = Vec::new();
    snapshot.write_to(&mut wire).unwrap();
    let restored = ModelSnapshot::read_from(&mut &wire[..]).unwrap();
    assert_eq!(restored.version, snapshot.version);
    assert_eq!(*restored.bytes, *snapshot.bytes, "disk round trip is bit-exact");

    let swap = ModelSwap::new();
    swap.publish(restored.to_swap_payload());

    let stream = click_stream(&fx.world, 12);
    let expected = answers(&fx.server(fx.load(&restored.bytes)), &stream);
    let (fx_f, fx_l) = (Arc::clone(&fx), Arc::clone(&fx));
    let front = ShardedServer::spawn_swappable(
        ShardConfig { shards: 1, batch_max: 2, queue_capacity: 64 },
        metrics.clone(),
        move |_shard| fx_f.server(fx_f.train_base()),
        swap.clone(),
        move |_shard, payload| fx_l.load(&payload.bytes),
    );
    assert_eq!(
        answers(&front, &stream),
        expected,
        "a pre-published snapshot must be serving from the very first drain"
    );
    assert_eq!(front.model_version(), 1);
    front.shutdown();
}
