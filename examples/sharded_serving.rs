//! The sharded, batched serving front end-to-end: spawn `ShardedServer`
//! over per-shard `ModelServer` replicas, drive mixed tenant traffic,
//! demonstrate overload shedding on a deliberately tiny queue, and dump the
//! per-shard observability (labeled Prometheus series, batch sizes, merged
//! front latency).
//!
//! ```sh
//! cargo run --release --example sharded_serving
//! ```

use intellitag::prelude::*;

/// Splitmix64: a tiny deterministic traffic mixer.
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

fn spawn_front(world: &World, cfg: ShardConfig, registry: MetricsRegistry) -> ShardedServer {
    // Everything a replica needs, cloned into the factory: the factory runs
    // once inside each worker thread (models are not Send — replicas are
    // built where they serve).
    let kb = world.build_kb();
    let tag_texts: Vec<String> = world.tags.iter().map(|t| t.text()).collect();
    let rq_tags: Vec<Vec<usize>> = world.rqs.iter().map(|r| r.tags.clone()).collect();
    let tenant_tags: Vec<Vec<usize>> =
        (0..world.tenants.len()).map(|e| world.tenant_tag_pool(e)).collect();
    let counts = world.click_frequency();
    let train: Vec<Vec<usize>> = world.sessions.iter().map(|s| s.clicks.clone()).collect();
    let model = Popularity::from_sessions(&train, world.tags.len());
    ShardedServer::spawn(cfg, registry, move |shard| {
        println!("  shard {shard}: replica built");
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

fn main() {
    let world = World::generate(WorldConfig::tiny(77));
    let tenants = world.tenants.len();
    let questions: Vec<String> = world.rqs.iter().take(12).map(|r| r.text()).collect();

    // ---- a 4-shard front under normal load ------------------------------
    println!("spawning a 4-shard front (batch_max 8, queue 256) ...");
    let registry = MetricsRegistry::new();
    let cfg = ShardConfig { shards: 4, batch_max: 8, queue_capacity: 256 };
    let front = spawn_front(&world, cfg, registry.clone());
    println!("policy: {} | tenant t is served by shard t % {}", front.policy(), cfg.shards);

    let requests = 600;
    println!("driving {requests} mixed requests from 4 client threads ...");
    std::thread::scope(|scope| {
        for client in 0..4u64 {
            let front = &front;
            let questions = &questions;
            let world = &world;
            scope.spawn(move || {
                let mut rng = Rng(client.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ 42);
                for _ in 0..requests / 4 {
                    let tenant = rng.below(tenants);
                    match rng.below(3) {
                        0 => {
                            let q = &questions[rng.below(questions.len())];
                            let r = front.handle_question(tenant, q);
                            assert!(r.latency_us > 0);
                        }
                        1 => {
                            let pool = world.tenant_tag_pool(tenant);
                            let clicks = vec![pool[rng.below(pool.len())]];
                            let _ = front.handle_tag_click(tenant, &clicks);
                        }
                        _ => {
                            let _ = front.cold_start_tags(tenant);
                        }
                    }
                }
            });
        }
    });

    println!("\nper-shard stats:");
    println!(
        "{:<8} {:>10} {:>12} {:>12} {:>12}",
        "shard", "processed", "front p50", "front p99", "mean batch"
    );
    for shard in 0..cfg.shards {
        let label = [("shard", shard.to_string())];
        let label: Vec<(&str, &str)> = label.iter().map(|(k, v)| (*k, v.as_str())).collect();
        let processed = registry.counter_labeled("sharded.processed", &label).get();
        let lat = registry.histogram_labeled("sharded.request_us", &label).snapshot();
        let batch = registry.histogram_labeled("sharded.batch", &label).snapshot();
        let mean_batch = if batch.count > 0 { batch.sum as f64 / batch.count as f64 } else { 0.0 };
        println!(
            "{:<8} {:>10} {:>9} us {:>9} us {:>12.2}",
            shard,
            processed,
            lat.quantile(0.5),
            lat.quantile(0.99),
            mean_batch
        );
    }
    let merged = front.front_latency_snapshot();
    println!(
        "merged front latency: n={} p50={} us p99={} us (server-side: n={})",
        merged.count,
        merged.quantile(0.5),
        merged.quantile(0.99),
        registry.histogram("serving.request_us").count(),
    );
    front.shutdown();
    println!("front drained and joined cleanly");

    // ---- overload: a tiny queue sheds instead of blocking ----------------
    println!("\noverloading a 1-shard front (batch_max 1, queue 1) with shedding traffic ...");
    let overload_registry = MetricsRegistry::new();
    let small = ShardConfig { shards: 1, batch_max: 1, queue_capacity: 1 };
    let overloaded = spawn_front(&world, small, overload_registry.clone());
    let (mut ok, mut shed) = (0u64, 0u64);
    std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for client in 0..6u64 {
            let front = &overloaded;
            handles.push(scope.spawn(move || {
                let mut rng = Rng(client ^ 0xBEEF);
                let (mut ok, mut shed) = (0u64, 0u64);
                for _ in 0..100 {
                    let request = Request::TagClick {
                        tenant: rng.below(tenants),
                        clicks: vec![rng.below(4)],
                    };
                    match front.call(request, None, Admission::Shed) {
                        Ok(_) => ok += 1,
                        Err(ShedReason::Overloaded) => shed += 1,
                        Err(ShedReason::ShuttingDown) => unreachable!("front is live"),
                    }
                }
                (ok, shed)
            }));
        }
        for h in handles {
            let (o, s) = h.join().unwrap();
            ok += o;
            shed += s;
        }
    });
    println!(
        "answered {ok}, shed {shed} (front counted {}), total {}",
        overloaded.shed_count(),
        ok + shed
    );
    overloaded.shutdown();

    // ---- the scrape surface ---------------------------------------------
    println!("\nPrometheus exposition (sharded.* series only):");
    for line in registry.render_prometheus().lines() {
        if line.contains("sharded_") && !line.contains("_bucket") {
            println!("  {line}");
        }
    }

    println!(
        "\noverloaded front's shed series ({} events):",
        overload_registry.counter("sharded.shed_total").get()
    );
    for line in overload_registry.render_prometheus().lines() {
        if line.contains("sharded_shed") {
            println!("  {line}");
        }
    }
}
