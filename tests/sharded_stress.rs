//! Concurrency stress for the sharded front: many client threads, tiny
//! queues, overload shedding — and at the end every request is accounted
//! for exactly once, with the shared metrics registry reconciling against
//! the clients' own counts.

use std::sync::atomic::{AtomicU64, Ordering};

use intellitag::prelude::*;

/// Splitmix64 — a per-thread deterministic request mixer.
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

fn build_front(world: &World, cfg: ShardConfig, registry: MetricsRegistry) -> ShardedServer {
    let kb = world.build_kb();
    let tag_texts: Vec<String> = world.tags.iter().map(|t| t.text()).collect();
    let rq_tags: Vec<Vec<usize>> = world.rqs.iter().map(|r| r.tags.clone()).collect();
    let tenant_tags: Vec<Vec<usize>> =
        (0..world.tenants.len()).map(|t| world.tenant_tag_pool(t)).collect();
    let counts = world.click_frequency();
    let train: Vec<Vec<usize>> = world.sessions.iter().map(|s| s.clicks.clone()).collect();
    let model = Popularity::from_sessions(&train, world.tags.len());
    ShardedServer::spawn(cfg, registry, move |_shard| {
        ModelServer::new(
            model.clone(),
            kb.clone(),
            tag_texts.clone(),
            rq_tags.clone(),
            tenant_tags.clone(),
            counts.clone(),
        )
    })
}

#[test]
fn stress_answers_every_request_exactly_once() {
    let world = World::generate(WorldConfig::tiny(13));
    let registry = MetricsRegistry::new();
    let shards = 2usize;
    // A deliberately tiny queue so the non-blocking senders hit Overloaded.
    let front = build_front(
        &world,
        ShardConfig { shards, batch_max: 4, queue_capacity: 2 },
        registry.clone(),
    );

    let clients = 8usize;
    let per_client = 150usize;
    let questions: Vec<String> = world.rqs.iter().take(16).map(|r| r.text()).collect();
    let tenants = world.tenants.len();
    let num_tags = world.tags.len();

    let answered_q = AtomicU64::new(0);
    let answered_c = AtomicU64::new(0);
    let shed = AtomicU64::new(0);

    std::thread::scope(|scope| {
        for client in 0..clients {
            let front = &front;
            let questions = &questions;
            let (answered_q, answered_c, shed) = (&answered_q, &answered_c, &shed);
            scope.spawn(move || {
                let mut rng =
                    Rng(0xC11Eu64.wrapping_add(client as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
                for _ in 0..per_client {
                    let tenant = rng.below(tenants);
                    // Half the traffic is non-blocking (may shed), half
                    // blocking (applies backpressure, never sheds).
                    match rng.below(4) {
                        0 => match front.call(
                            Request::Question {
                                tenant,
                                text: questions[rng.below(questions.len())].clone(),
                            },
                            None,
                            Admission::Shed,
                        ) {
                            Ok(_) => {
                                answered_q.fetch_add(1, Ordering::Relaxed);
                            }
                            Err(ShedReason::Overloaded) => {
                                shed.fetch_add(1, Ordering::Relaxed);
                            }
                            Err(ShedReason::ShuttingDown) => panic!("front is live"),
                        },
                        1 => match front.call(
                            Request::TagClick { tenant, clicks: vec![rng.below(num_tags)] },
                            None,
                            Admission::Shed,
                        ) {
                            Ok(_) => {
                                answered_c.fetch_add(1, Ordering::Relaxed);
                            }
                            Err(ShedReason::Overloaded) => {
                                shed.fetch_add(1, Ordering::Relaxed);
                            }
                            Err(ShedReason::ShuttingDown) => panic!("front is live"),
                        },
                        2 => {
                            let _ = front
                                .handle_question(tenant, &questions[rng.below(questions.len())]);
                            answered_q.fetch_add(1, Ordering::Relaxed);
                        }
                        _ => {
                            let clicks = vec![rng.below(num_tags), rng.below(num_tags)];
                            let _ = front.handle_tag_click(tenant, &clicks);
                            answered_c.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                }
            });
        }
    });

    let sent = (clients * per_client) as u64;
    let answered_q = answered_q.into_inner();
    let answered_c = answered_c.into_inner();
    let shed_seen = shed.into_inner();
    let answered = answered_q + answered_c;

    // Exactly-once accounting on the client side.
    assert_eq!(answered + shed_seen, sent, "every request answered or shed, never both");

    // The front's own shed counter agrees with what the clients observed.
    assert_eq!(front.shed_count(), shed_seen);

    // Every accepted request was processed by exactly one shard worker.
    let processed: u64 = (0..shards)
        .map(|s| registry.counter_labeled("sharded.processed", &[("shard", &s.to_string())]).get())
        .sum();
    assert_eq!(processed, answered, "worker-side processed == client-side answered");

    // The inner servers' shared histograms reconcile per request kind.
    assert_eq!(registry.histogram("serving.question_us").count(), answered_q);
    assert_eq!(registry.histogram("serving.tag_click_us").count(), answered_c);
    assert_eq!(registry.histogram("serving.request_us").count(), answered);

    // Client-observed front latency was recorded once per answered request.
    assert_eq!(front.front_latency_snapshot().count, answered);

    // The tiny queue under 8 writers actually shed something — otherwise
    // this test exercises nothing.
    assert!(shed_seen > 0, "expected overload shedding with queue_capacity=2");
    let rendered = registry.render_prometheus();
    assert!(rendered.contains("sharded_shed_total"), "shed counter must be scrapable");

    front.shutdown();
}

#[test]
fn per_shard_shed_counters_sum_to_total() {
    // Overload one front hard with non-blocking traffic only, then check
    // the labeled per-shard shed series sum exactly to the front's total —
    // no shed event is lost or double-counted across shards.
    let world = World::generate(WorldConfig::tiny(3));
    let registry = MetricsRegistry::new();
    let shards = 4usize;
    let front = build_front(
        &world,
        ShardConfig { shards, batch_max: 1, queue_capacity: 1 },
        registry.clone(),
    );
    let tenants = world.tenants.len();

    std::thread::scope(|scope| {
        for client in 0..6 {
            let front = &front;
            scope.spawn(move || {
                let mut rng = Rng(0xBEEF ^ (client as u64) << 17);
                for _ in 0..100 {
                    let request = Request::TagClick {
                        tenant: rng.below(tenants),
                        clicks: vec![rng.below(8)],
                    };
                    let _ = front.call(request, None, Admission::Shed);
                }
            });
        }
    });

    let per_shard: u64 = (0..shards)
        .map(|s| registry.counter_labeled("sharded.shed", &[("shard", &s.to_string())]).get())
        .sum();
    assert_eq!(per_shard, front.shed_count(), "per-shard shed series must sum to the total");
    assert_eq!(per_shard, registry.counter("sharded.shed_total").get());

    // No worker was lost: shedding is load management, not failure.
    assert_eq!(registry.counter("sharded.error.worker_lost").get(), 0);
    front.shutdown();
}
