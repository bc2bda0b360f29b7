//! Response parity between the sharded front and the single-process server.
//!
//! The headline guarantee of `ShardedServer` is that shard count and batch
//! size are pure performance knobs: for any request stream, the front must
//! return responses with identical content to a `ModelServer` built from
//! the same data. These tests replay one seeded, mixed request stream —
//! questions, tag clicks, cold starts, plus degraded inputs (unknown
//! tenants, empty click lists, out-of-range tag ids) — against both fronts
//! for every shard count in {1, 2, 4} crossed with batch sizes {1, 8}.

use intellitag::obs::MetricSample;
use intellitag::prelude::*;

/// Minimal deterministic RNG (splitmix64) so the stream generator needs no
/// external crate and every run sees the same traffic.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n.max(1) as u64) as usize
    }
}

/// One request of the replayed stream.
#[derive(Debug, Clone)]
enum Request {
    Question { tenant: usize, text: String },
    TagClick { tenant: usize, clicks: Vec<usize> },
    ColdStart { tenant: usize },
}

/// A seeded mixed-traffic stream over the world's tenants: RQ questions
/// (verbatim and lightly paraphrased), click subsets of each tenant's pool,
/// cold starts, and a sprinkle of malformed requests that must degrade
/// identically on both fronts.
fn request_stream(world: &World, seed: u64, len: usize) -> Vec<Request> {
    let mut rng = Rng(seed);
    let tenants = world.tenants.len();
    let mut stream = Vec::with_capacity(len);
    for i in 0..len {
        let tenant = rng.below(tenants);
        let req = match rng.below(10) {
            0..=3 => {
                let rq = &world.rqs[rng.below(world.rqs.len())];
                let mut text = rq.text();
                if rng.below(2) == 0 {
                    text = format!("please tell me {text} thanks");
                }
                Request::Question { tenant, text }
            }
            4..=7 => {
                let pool = world.tenant_tag_pool(tenant);
                let n = 1 + rng.below(3.min(pool.len().max(1)));
                let clicks = (0..n).map(|_| pool[rng.below(pool.len())]).collect();
                Request::TagClick { tenant, clicks }
            }
            8 => Request::ColdStart { tenant },
            // Degraded and edge traffic: bad tenants, empty clicks, bogus
            // tag ids, and oversized click histories (longer than the
            // model's context window — must clip identically on both paths).
            _ => match i % 4 {
                0 => Request::Question { tenant: tenants + 7, text: "lost".into() },
                1 => Request::TagClick { tenant, clicks: vec![] },
                2 => Request::TagClick { tenant, clicks: vec![usize::MAX / 2, 1_000_000] },
                _ => {
                    let pool = world.tenant_tag_pool(tenant);
                    let clicks = (0..24).map(|_| pool[rng.below(pool.len())]).collect();
                    Request::TagClick { tenant, clicks }
                }
            },
        };
        stream.push(req);
    }
    stream
}

/// Everything a `ModelServer` replica needs, cloneable into the per-shard
/// factory closure.
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

/// The replayed stream's responses, latency stripped (latency is the one
/// field that legitimately differs across fronts).
#[derive(Debug, PartialEq)]
enum Answer {
    Question { rq: Option<usize>, answer: Option<String>, tags: Vec<usize> },
    TagClick { tags: Vec<usize>, questions: Vec<usize> },
    ColdStart(Vec<usize>),
}

fn replay<S: TagService>(server: &S, stream: &[Request]) -> Vec<Answer> {
    stream
        .iter()
        .map(|req| match req {
            Request::Question { tenant, text } => {
                let r = server.handle_question(*tenant, text);
                Answer::Question { rq: r.rq, answer: r.answer, tags: r.recommended_tags }
            }
            Request::TagClick { tenant, clicks } => {
                let r = server.handle_tag_click(*tenant, clicks);
                Answer::TagClick { tags: r.recommended_tags, questions: r.predicted_questions }
            }
            Request::ColdStart { tenant } => Answer::ColdStart(server.cold_start_tags(*tenant)),
        })
        .collect()
}

#[test]
fn sharded_front_matches_single_process_across_knobs() {
    let world = World::generate(WorldConfig::tiny(41));
    let parts = ServerParts::from_world(&world);
    let stream = request_stream(&world, 2024, 160);

    let single = parts.build();
    let expected = replay(&single, &stream);
    // The stream exercised every request kind, including degraded ones.
    assert!(expected.iter().any(|a| matches!(a, Answer::Question { rq: Some(_), .. })));
    assert!(expected
        .iter()
        .any(|a| matches!(a, Answer::TagClick { tags, .. } if !tags.is_empty())));
    assert!(expected.iter().any(|a| matches!(a, Answer::ColdStart(t) if !t.is_empty())));
    assert!(expected.iter().any(|a| matches!(a, Answer::TagClick { tags, .. } if tags.is_empty())));

    for shards in [1usize, 2, 4] {
        for batch_max in [1usize, 8] {
            let registry = MetricsRegistry::new();
            let cfg = ShardConfig { shards, batch_max, queue_capacity: 64 };
            let factory_parts = parts.clone();
            let front =
                ShardedServer::spawn(cfg, registry.clone(), move |_shard| factory_parts.build());
            let got = replay(&front, &stream);
            assert_eq!(
                got, expected,
                "response parity broke at shards={shards} batch_max={batch_max}"
            );
            front.shutdown();
        }
    }
}

#[test]
fn same_content_parity_holds_per_response() {
    // The struct-level `same_content` comparisons (what downstream users
    // call) must agree with the stripped-answer equality above.
    let world = World::generate(WorldConfig::tiny(17));
    let parts = ServerParts::from_world(&world);
    let single = parts.build();
    let registry = MetricsRegistry::new();
    let factory_parts = parts.clone();
    let front = ShardedServer::spawn(
        ShardConfig { shards: 4, batch_max: 8, queue_capacity: 32 },
        registry,
        move |_shard| factory_parts.build(),
    );
    for req in request_stream(&world, 7, 80) {
        match req {
            Request::Question { tenant, text } => {
                let a = single.handle_question(tenant, &text);
                let b = TagService::handle_question(&front, tenant, &text);
                assert!(a.same_content(&b), "question diverged: {a:?} vs {b:?}");
            }
            Request::TagClick { tenant, clicks } => {
                let a = single.handle_tag_click(tenant, &clicks);
                let b = TagService::handle_tag_click(&front, tenant, &clicks);
                assert!(a.same_content(&b), "tag click diverged: {a:?} vs {b:?}");
            }
            Request::ColdStart { tenant } => {
                assert_eq!(single.cold_start_tags(tenant), front.cold_start_tags(tenant));
            }
        }
    }
    front.shutdown();
}

/// A `ModelServer` over the real IntelliTag model, retrained from scratch.
///
/// IntelliTag holds `Rc`-based parameters, so replicas cannot be cloned
/// across worker threads; each shard's factory retrains deterministically
/// from the same world — which is also the sharded deployment story for
/// the real model (same checkpoint loaded per replica).
fn build_intellitag_server(world: &World) -> ModelServer<IntelliTag> {
    let graph = world.build_graph();
    let texts: Vec<String> = world.tags.iter().map(|t| t.text()).collect();
    let train: Vec<Vec<usize>> = world.sessions.iter().map(|s| s.clicks.clone()).collect();
    let cfg = TagRecConfig {
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
    };
    let model = IntelliTag::train(&graph, &texts, &train, cfg);
    ModelServer::new(
        model,
        world.build_kb(),
        texts,
        world.rqs.iter().map(|r| r.tags.clone()).collect(),
        (0..world.tenants.len()).map(|t| world.tenant_tag_pool(t)).collect(),
        world.click_frequency(),
    )
}

#[test]
fn intellitag_replicas_match_single_process_across_knobs() {
    // The batched scoring path runs one stacked transformer forward per
    // drain; parity here pins that the real model — contextual attention,
    // context clipping at MAX_CTX (the stream includes 24-click histories),
    // z-table gathers — returns byte-identical responses through the
    // sharded front at every batch knob.
    let world = World::generate(WorldConfig::tiny(61));
    let stream = request_stream(&world, 4242, 60);
    let single = build_intellitag_server(&world);
    let expected = replay(&single, &stream);
    assert!(expected
        .iter()
        .any(|a| matches!(a, Answer::TagClick { tags, .. } if !tags.is_empty())));

    let world = std::sync::Arc::new(world);
    for shards in [1usize, 2] {
        for batch_max in [1usize, 8] {
            let registry = MetricsRegistry::new();
            let cfg = ShardConfig { shards, batch_max, queue_capacity: 64 };
            let w = std::sync::Arc::clone(&world);
            let front =
                ShardedServer::spawn(cfg, registry, move |_shard| build_intellitag_server(&w));
            let got = replay(&front, &stream);
            assert_eq!(
                got, expected,
                "IntelliTag parity broke at shards={shards} batch_max={batch_max}"
            );
            front.shutdown();
        }
    }
}

#[test]
fn concurrent_clients_keep_parity_and_fill_batches() {
    // Serial replay hands the worker one job at a time, so every drain is a
    // singleton. Real batching only happens under concurrent submission:
    // interleaved client threads must still get byte-identical responses,
    // and at least one drain must carry multiple click rows through
    // `handle_tag_click_batch`.
    let world = World::generate(WorldConfig::tiny(23));
    let parts = ServerParts::from_world(&world);
    let single = parts.build();
    // Clicks-only stream so every request takes the batched tag-click path.
    let stream: Vec<Request> = request_stream(&world, 313, 600)
        .into_iter()
        .filter(|r| matches!(r, Request::TagClick { .. }))
        .collect();
    let expected = replay(&single, &stream);

    // Multi-row drains under concurrency are overwhelmingly likely but not
    // guaranteed on any single run; retry a few rounds (parity must hold on
    // every round regardless).
    let mut max_rows = 0;
    for _round in 0..5 {
        let registry = MetricsRegistry::new();
        let factory_parts = parts.clone();
        let front = ShardedServer::spawn(
            ShardConfig { shards: 1, batch_max: 8, queue_capacity: 256 },
            registry.clone(),
            move |_shard| factory_parts.build(),
        );
        let clients = 6;
        std::thread::scope(|scope| {
            for c in 0..clients {
                let (front, stream, expected) = (&front, &stream, &expected);
                scope.spawn(move || {
                    for (i, req) in stream.iter().enumerate().skip(c).step_by(clients) {
                        let Request::TagClick { tenant, clicks } = req else { unreachable!() };
                        let got = TagService::handle_tag_click(front, *tenant, clicks);
                        let Answer::TagClick { tags, questions } = &expected[i] else {
                            unreachable!()
                        };
                        assert_eq!(&got.recommended_tags, tags, "tags diverged at request {i}");
                        assert_eq!(
                            &got.predicted_questions, questions,
                            "questions diverged at request {i}"
                        );
                    }
                });
            }
        });
        front.shutdown();
        let rows = registry.histogram_labeled("sharded.batch_rows", &[("shard", "0")]).snapshot();
        assert_eq!(rows.sum, stream.len() as u64, "every click scored in exactly one drain");
        max_rows = max_rows.max(rows.max);
        if max_rows >= 2 {
            break;
        }
    }
    assert!(max_rows >= 2, "concurrent clients never produced a multi-row drain");
}

#[test]
fn all_question_stream_records_no_click_batches() {
    // A 100%-question stream through a batched front: full response parity,
    // and the click-batch machinery must stay completely idle.
    let world = World::generate(WorldConfig::tiny(9));
    let parts = ServerParts::from_world(&world);
    let single = parts.build();
    let stream: Vec<Request> = world
        .rqs
        .iter()
        .take(40)
        .enumerate()
        .map(|(i, rq)| Request::Question { tenant: i % world.tenants.len(), text: rq.text() })
        .collect();
    let expected = replay(&single, &stream);
    assert!(expected.iter().any(|a| matches!(a, Answer::Question { rq: Some(_), .. })));

    let shards = 2usize;
    let registry = MetricsRegistry::new();
    let factory_parts = parts.clone();
    let front = ShardedServer::spawn(
        ShardConfig { shards, batch_max: 8, queue_capacity: 64 },
        registry.clone(),
        move |_shard| factory_parts.build(),
    );
    assert_eq!(replay(&front, &stream), expected);
    front.shutdown();
    for shard in 0..shards {
        let rows = registry
            .histogram_labeled("sharded.batch_rows", &[("shard", &shard.to_string())])
            .snapshot();
        assert_eq!(rows.count, 0, "question-only traffic ticked batch_rows on shard {shard}");
    }
}

#[test]
fn per_shard_series_render_in_prometheus_output() {
    // Acceptance criterion: after traffic, the shared registry's Prometheus
    // rendering carries one labeled series per shard, and the merged view
    // agrees with the sum.
    let world = World::generate(WorldConfig::tiny(5));
    let parts = ServerParts::from_world(&world);
    let registry = MetricsRegistry::new();
    let shards = 3usize;
    let factory_parts = parts.clone();
    let front = ShardedServer::spawn(
        ShardConfig { shards, batch_max: 4, queue_capacity: 64 },
        registry.clone(),
        move |_shard| factory_parts.build(),
    );
    let stream = request_stream(&world, 99, 90);
    let n = stream.len() as u64;
    let _ = replay(&front, &stream);

    let text = registry.render_prometheus();
    let mut per_shard_total = 0;
    for shard in 0..shards {
        let needle = format!("sharded_request_us_count{{shard=\"{shard}\"}}");
        assert!(text.contains(&needle), "missing per-shard series {needle} in:\n{text}");
        per_shard_total += registry
            .histogram_labeled("sharded.request_us", &[("shard", &shard.to_string())])
            .count();
    }
    assert_eq!(per_shard_total, n, "every request recorded on exactly one shard");
    assert_eq!(front.front_latency_snapshot().count, n, "merged view covers all shards");

    // The scrape round-trips: parsing the rendering recovers the same
    // per-shard series (base name sanitized, label block preserved).
    let parsed = parse_prometheus(&text).expect("rendered output must parse");
    for shard in 0..shards {
        let name = format!("sharded_request_us{{shard=\"{shard}\"}}");
        let snap = parsed
            .iter()
            .find_map(|s| match s {
                MetricSample::Histogram { name: n, snapshot } if *n == name => Some(snapshot),
                _ => None,
            })
            .unwrap_or_else(|| panic!("parsed scrape lost series {name}"));
        assert!(snap.count > 0, "parsed series {name} is empty");
    }
    front.shutdown();
}
