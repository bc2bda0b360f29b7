//! Load-generate against the gateway over a real TCP socket: a sharded
//! `ShardedServer` of real IntelliTag replicas behind `Gateway`, hammered
//! by N client threads of click-heavy mixed traffic, with a mid-run
//! `/metrics` scrape and a wire-level latency report (p50/p90/p99 from
//! the shared obs histograms).
//!
//! `--binary` switches the client threads from the blocking JSON
//! `GatewayClient` to the pipelined binary `PipelinedClient` (16
//! correlated frames in flight per socket); the mid-run scrape and the
//! end-of-run traced probe still ride HTTP on the same port, proving the
//! sniffer serves both protocols side by side.
//!
//! Because IntelliTag forwards cost real time, concurrent clients outpace
//! the workers and micro-batch drains actually fill: the run asserts the
//! merged `sharded.batch_rows` mean lands above 1 (amortized forwards).
//!
//! Every request is accounted for: answered + shed == sent, or the run
//! fails. Shed responses (`503` / shed error frames) are load management,
//! not loss.
//!
//! ```sh
//! cargo run --release --example http_loadgen                      # 8 JSON clients
//! cargo run --release --example http_loadgen -- --smoke           # small CI-sized run
//! cargo run --release --example http_loadgen -- --binary --smoke  # pipelined binary clients
//! ```

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use intellitag::gateway::ClientError;
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

/// Retrain the deterministic IntelliTag checkpoint (fixed seeds → identical
/// weights per replica) and wrap it in a fresh `ModelServer`.
fn build_replica(world: &World) -> ModelServer<IntelliTag> {
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

/// Pull `(name, duration_us)` out of one `/debug/traces` JSON line.
fn span_durations(trace_line: &str) -> Vec<(String, u64)> {
    let field = |obj: &str, key: &str| -> Option<u64> {
        let pat = format!("\"{key}\":");
        let at = obj.find(&pat)? + pat.len();
        let rest = &obj[at..];
        let end = rest.find([',', '}']).unwrap_or(rest.len());
        rest[..end].trim().parse().ok()
    };
    let spans_at = trace_line.find("\"spans\":[").expect("spans array") + "\"spans\":[".len();
    let body = &trace_line[spans_at..trace_line.rfind(']').expect("array close")];
    body.split("},")
        .filter(|s| !s.trim().is_empty())
        .map(|obj| {
            let name_at = obj.find("\"name\":\"").expect("span name") + "\"name\":\"".len();
            let name = obj[name_at..].split('"').next().expect("name close").to_string();
            let start = field(obj, "start_us").expect("start_us");
            let end = field(obj, "end_us").expect("end_us");
            (name, end - start)
        })
        .collect()
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let binary = std::env::args().any(|a| a == "--binary");
    let (clients, per_client) = if smoke { (8usize, 40usize) } else { (8usize, 200usize) };
    let in_flight = 16usize;

    // ---- the stack: world -> sharded IntelliTag front -> HTTP gateway ----
    let world = Arc::new(World::generate(WorldConfig::tiny(77)));
    let tenants = world.tenants.len();
    let questions: Vec<String> = world.rqs.iter().take(12).map(|r| r.text()).collect();

    let registry = MetricsRegistry::new();
    let shards = if smoke { 2usize } else { 4usize };
    println!("spawning a {shards}-shard IntelliTag front ...");
    let factory_world = Arc::clone(&world);
    let front = Arc::new(ShardedServer::spawn(
        ShardConfig { shards, batch_max: 8, queue_capacity: 256 },
        registry.clone(),
        move |shard| {
            let server = build_replica(&factory_world);
            println!("  shard {shard}: IntelliTag replica trained");
            server
        },
    ));

    let share = Arc::clone(&front);
    let gateway = Gateway::spawn(
        "127.0.0.1:0",
        // One gateway worker per client: the gateway must not be the
        // concurrency bottleneck, or shard queues never build depth and
        // micro-batches stay singletons. A binary connection holds its
        // worker for the connection's lifetime, so binary mode adds two
        // spares for the mid-run HTTP scraper and the traced probe.
        GatewayConfig { workers: if binary { clients + 2 } else { clients }, ..Default::default() },
        &registry,
        move |_worker| Arc::clone(&share),
    )
    .expect("gateway binds an ephemeral port");
    let addr = gateway.addr();
    println!(
        "gateway listening on http://{addr} ({clients} {} clients x {per_client} requests)\n",
        if binary { "pipelined binary" } else { "blocking JSON" }
    );

    // ---- drive mixed traffic over the wire -------------------------------
    let answered = AtomicU64::new(0);
    let shed = AtomicU64::new(0);
    // Sheds suffered by the mid-run scraper, tracked separately: they
    // increment `gateway.shed` but are not part of the load accounting.
    let scrape_shed = AtomicU64::new(0);
    let started = Instant::now();
    std::thread::scope(|scope| {
        for client in 0..clients {
            let questions = &questions;
            let world = &world;
            let registry = &registry;
            let (answered, shed) = (&answered, &shed);
            scope.spawn(move || {
                let mut rng = Rng((client as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ 0x10AD);
                let wire = registry.histogram("loadgen.wire_us");
                // Click-heavy mix (4/6 clicks): the tag-click path is the
                // one the workers micro-batch, so it carries the load.
                let reqs: Vec<RecommendRequest> = (0..per_client)
                    .map(|_| {
                        let tenant = rng.below(tenants);
                        match rng.below(6) {
                            0 => RecommendRequest {
                                tenant,
                                question: Some(questions[rng.below(questions.len())].clone()),
                                clicks: vec![],
                            },
                            1 => RecommendRequest { tenant, question: None, clicks: vec![] },
                            _ => {
                                let pool = world.tenant_tag_pool(tenant);
                                let n = 1 + rng.below(3.min(pool.len().max(1)));
                                RecommendRequest {
                                    tenant,
                                    question: None,
                                    clicks: (0..n).map(|_| pool[rng.below(pool.len())]).collect(),
                                }
                            }
                        }
                    })
                    .collect();
                if binary {
                    // Pipelined binary frames: up to `in_flight` correlated
                    // requests ride one socket, completing out of order.
                    let mut gw = PipelinedClient::new(addr, 1, in_flight)
                        .with_timeout(Duration::from_secs(10));
                    let mut started: HashMap<u64, Instant> = HashMap::new();
                    let absorb = |c: Completion, started: &HashMap<u64, Instant>| {
                        let t0 = started[&c.corr_id];
                        match &c.payload {
                            ReplyPayload::Response(_) => {
                                wire.record(t0.elapsed().as_micros() as u64);
                                answered.fetch_add(1, Ordering::Relaxed);
                            }
                            _ if c.payload.is_shed() => {
                                shed.fetch_add(1, Ordering::Relaxed);
                            }
                            ReplyPayload::Error(e) => {
                                panic!("client {client}: frame lost: {:?} `{}`", e.code, e.message)
                            }
                        }
                    };
                    for req in &reqs {
                        let corr = gw.submit(req, 0).expect("submit");
                        started.insert(corr, Instant::now());
                        while gw.in_flight() >= in_flight {
                            absorb(gw.next_completion().expect("completion"), &started);
                        }
                    }
                    for c in gw.drain().expect("drain") {
                        absorb(c, &started);
                    }
                } else {
                    let mut gw =
                        GatewayClient::new(addr).with_timeout(Duration::from_millis(10_000));
                    for req in &reqs {
                        let timer = SpanTimer::start();
                        let result =
                            if req.clicks.is_empty() { gw.recommend(req) } else { gw.click(req) };
                        match result {
                            Ok(_) => {
                                wire.record(timer.elapsed_us());
                                answered.fetch_add(1, Ordering::Relaxed);
                            }
                            Err(ClientError::Shed) => {
                                shed.fetch_add(1, Ordering::Relaxed);
                            }
                            Err(e) => panic!("client {client}: request lost: {e}"),
                        }
                    }
                }
            });
        }

        // One live scrape while the load is in flight — the registry is
        // served over the same gateway the load rides. A saturated gateway
        // may shed the scrape connection too; count each shed attempt so
        // the run-end `gateway.shed` accounting stays exact, and retry.
        scope.spawn(|| {
            std::thread::sleep(Duration::from_millis(10));
            let mut scraper = GatewayClient::new(addr);
            for attempt in 1..=20 {
                match scraper.scrape_metrics() {
                    Ok(text) => {
                        let parsed = parse_prometheus(&text).expect("mid-run scrape must parse");
                        println!(
                            "mid-run /metrics scrape: {} bytes, {} samples, parses cleanly",
                            text.len(),
                            parsed.len()
                        );
                        return;
                    }
                    Err(ClientError::Shed) => {
                        scrape_shed.fetch_add(1, Ordering::Relaxed);
                        println!("mid-run scrape attempt {attempt} shed (gateway saturated)");
                        std::thread::sleep(Duration::from_millis(5));
                    }
                    Err(e) => panic!("mid-run scrape failed: {e}"),
                }
            }
            println!("mid-run scrape gave up: gateway saturated for all attempts");
        });
    });
    let elapsed = started.elapsed();

    // ---- accounting: nothing lost ----------------------------------------
    let sent = (clients * per_client) as u64;
    let answered = answered.into_inner();
    let shed_seen = shed.into_inner();
    let scrape_shed = scrape_shed.into_inner();
    assert_eq!(
        answered + shed_seen,
        sent,
        "lost requests: answered {answered} + shed {shed_seen} != sent {sent}"
    );
    if binary {
        // Frame-level accounting: every 200/503 the gateway counted on the
        // binary routes is one a client absorbed as a completion.
        let count = |route: &str, status: &str| {
            registry
                .counter_labeled("gateway.requests", &[("route", route), ("status", status)])
                .get()
        };
        let served_srv = count("recommend_bin", "200") + count("click_bin", "200");
        let shed_srv = count("recommend_bin", "503") + count("click_bin", "503");
        assert_eq!(served_srv, answered, "gateway 200 counters must match answered frames");
        assert_eq!(shed_srv, shed_seen, "gateway 503 counters must match shed frames");
        // Queue sheds ride error frames, not the accept path, so the only
        // accept-level sheds possible here are the scraper's.
        assert_eq!(registry.counter("gateway.shed").get(), scrape_shed);
    } else {
        // Every shed the gateway counted is one a client observed — load
        // traffic or the scraper, nothing unaccounted.
        assert_eq!(registry.counter("gateway.shed").get(), shed_seen + scrape_shed);
    }
    println!(
        "\nsent {sent} | answered {answered} | shed {shed_seen} | zero lost | {:.0} req/s",
        answered as f64 / elapsed.as_secs_f64()
    );

    // ---- the latency ladder, all from one registry -----------------------
    let wire = registry.histogram("loadgen.wire_us").snapshot();
    let gw_us = registry.merged_histogram("gateway.request_us");
    let shard_us = registry.merged_histogram("sharded.request_us");
    let model_us = registry.histogram("serving.request_us").snapshot();
    println!("\n{:<26} {:>8} {:>10} {:>10} {:>10}", "stage", "n", "p50", "p90", "p99");
    for (stage, h) in [
        ("client wire round-trip", &wire),
        ("gateway handling", &gw_us),
        ("sharded front", &shard_us),
        ("model serving", &model_us),
    ] {
        println!(
            "{:<26} {:>8} {:>7} us {:>7} us {:>7} us",
            stage,
            h.count,
            h.quantile(0.5),
            h.quantile(0.9),
            h.quantile(0.99)
        );
    }

    // ---- micro-batch fill: the whole point of the batched path -----------
    let drains = registry.merged_histogram("sharded.batch");
    let rows = registry.merged_histogram("sharded.batch_rows");
    let rows_mean = rows.mean();
    println!(
        "\nmicro-batching: {} drains | {} click batches | rows mean {:.2} | rows max {}",
        drains.count, rows.count, rows_mean, rows.max
    );
    assert!(
        rows_mean > 1.0,
        "click batches never filled: sharded.batch_rows mean {rows_mean:.2} <= 1 \
         (clients should outpace IntelliTag forwards)"
    );

    println!("\ngateway route counters:");
    for line in registry.render_prometheus().lines() {
        if line.starts_with("gateway_requests{") {
            println!("  {line}");
        }
    }

    // ---- per-tenant-tier SLO view, against the paper's 150 ms budget ------
    let slo = SloReport::from_registry(&registry, 150_000);
    println!("\n{}", slo.render_text());

    // ---- trace e2e: one traced click, then read it back off the wire -----
    // A client-supplied X-Trace-Id must come back in /debug/traces with a
    // span decomposition that fits inside the measured wire latency.
    let mut prober = GatewayClient::new(addr).with_timeout(Duration::from_millis(10_000));
    let probe_id = 0x10ad_6e11u64;
    let pool = world.tenant_tag_pool(0);
    let probe = RecommendRequest { tenant: 0, question: None, clicks: vec![pool[0]] };
    let timer = SpanTimer::start();
    let (_, echoed) = prober.click_traced(&probe, probe_id).expect("traced probe answered");
    let wall_us = timer.elapsed_us().max(1);
    assert_eq!(echoed, Some(probe_id), "gateway must echo the client's X-Trace-Id");
    let traces = prober.debug_traces().expect("debug traces served");
    let retained = traces.lines().count();
    assert!(retained >= 1, "/debug/traces retained no traces after the run");
    let wanted = format!("\"trace_id\":\"{}\"", format_trace_id(probe_id));
    let line = traces
        .lines()
        .find(|l| l.contains(&wanted))
        .expect("probe trace retained (tail-based retention keeps the newest window)");
    let spans = span_durations(line);
    let dur = |name: &str| {
        spans.iter().find(|(n, _)| n == name).map(|(_, d)| *d).unwrap_or_else(|| {
            panic!("span `{name}` missing from probe trace: {spans:?}");
        })
    };
    // shard.queue + drain partition the in-front time; both they and the
    // gateway span must fit inside what the client measured on the wire.
    let decomposed = dur("shard.queue") + dur("drain");
    assert!(
        decomposed <= wall_us && dur("gateway") <= wall_us,
        "trace spans exceed wire latency: queue+drain {decomposed} us, \
         gateway {} us, wire {wall_us} us",
        dur("gateway")
    );
    println!(
        "trace e2e: {retained} retained traces | probe {} | queue+drain {decomposed} us \
         <= wire {wall_us} us",
        format_trace_id(probe_id)
    );

    gateway.shutdown();
    drop(front);
    println!("\ngateway drained and joined cleanly{}", if smoke { " (smoke run)" } else { "" });
}
