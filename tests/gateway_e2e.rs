//! End-to-end tests for the HTTP gateway: a real TCP listener, the
//! blocking [`GatewayClient`], and both serving fronts behind it — a
//! per-worker `ModelServer` replica and a shared `Arc<ShardedServer>`.
//!
//! The headline guarantee mirrors the sharded-parity suite one layer up:
//! putting HTTP between the client and the service must not change a
//! single response. A seeded mixed stream (questions, clicks, cold
//! starts, degraded traffic) replayed over the wire must match the direct
//! in-process `TagService` answers content-identically, while a mid-run
//! `/metrics` scrape stays parseable and the request accounting
//! reconciles: answered + shed == sent.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use intellitag::gateway::ClientError;
use intellitag::obs::MetricSample;
use intellitag::prelude::*;

/// Splitmix64 — deterministic stream generator, no external crates.
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

/// A replica factory for `world`: session popularity over one shared
/// catalog, cloneable into shard and gateway factories.
fn replicas(
    world: &World,
) -> impl Fn(usize) -> ModelServer<Popularity> + Clone + Send + Sync + 'static {
    let catalog = Arc::new(Catalog::from_world(world));
    let train: Vec<Vec<usize>> = world.sessions.iter().map(|s| s.clicks.clone()).collect();
    let model = Popularity::from_sessions(&train, world.tags.len());
    move |_| ModelServer::with_catalog(model.clone(), Arc::clone(&catalog))
}

/// One wire request of the replayed stream: the route plus its payload.
#[derive(Debug, Clone)]
enum WireCall {
    Recommend(RecommendRequest),
    Click(RecommendRequest),
}

/// A seeded mixed stream: RQ questions (some paraphrased), click trails,
/// cold starts (recommend without a question), and degraded traffic
/// (unknown tenants, empty clicks, bogus tag ids) that must degrade
/// identically over the wire and in process.
fn wire_stream(world: &World, seed: u64, len: usize) -> Vec<WireCall> {
    let mut rng = Rng(seed);
    let tenants = world.tenants.len();
    (0..len)
        .map(|i| {
            let tenant = rng.below(tenants);
            match rng.below(10) {
                0..=3 => {
                    let rq = &world.rqs[rng.below(world.rqs.len())];
                    let mut text = rq.text();
                    if rng.below(2) == 0 {
                        text = format!("please tell me {text} thanks");
                    }
                    WireCall::Recommend(RecommendRequest {
                        tenant,
                        question: Some(text),
                        clicks: vec![],
                    })
                }
                4..=6 => {
                    let pool = world.tenant_tag_pool(tenant);
                    let n = 1 + rng.below(3.min(pool.len().max(1)));
                    let clicks = (0..n).map(|_| pool[rng.below(pool.len())]).collect();
                    WireCall::Click(RecommendRequest { tenant, question: None, clicks })
                }
                7..=8 => {
                    // Cold start: recommend without a question.
                    WireCall::Recommend(RecommendRequest { tenant, question: None, clicks: vec![] })
                }
                _ => match i % 3 {
                    0 => WireCall::Recommend(RecommendRequest {
                        tenant: tenants + 7,
                        question: Some("lost".into()),
                        clicks: vec![],
                    }),
                    1 => {
                        WireCall::Click(RecommendRequest { tenant, question: None, clicks: vec![] })
                    }
                    _ => WireCall::Click(RecommendRequest {
                        tenant,
                        question: None,
                        clicks: vec![usize::MAX / 2, 1_000_000],
                    }),
                },
            }
        })
        .collect()
}

/// The direct (no HTTP) answer for one call, as the wire type.
fn direct_answer<S: TagService>(service: &S, call: &WireCall) -> RecommendResponse {
    match call {
        WireCall::Recommend(req) => match &req.question {
            Some(q) => RecommendResponse::from_question(&service.handle_question(req.tenant, q)),
            None => RecommendResponse::from_cold_start(service.cold_start_tags(req.tenant), 0),
        },
        WireCall::Click(req) => {
            RecommendResponse::from_click(&service.handle_tag_click(req.tenant, &req.clicks))
        }
    }
}

fn wire_answer(
    client: &mut GatewayClient,
    call: &WireCall,
) -> Result<RecommendResponse, ClientError> {
    match call {
        WireCall::Recommend(req) => client.recommend(req),
        WireCall::Click(req) => client.click(req),
    }
}

#[test]
fn gateway_over_model_server_matches_direct_responses() {
    let world = World::generate(WorldConfig::tiny(29));
    let replica = replicas(&world);
    let stream = wire_stream(&world, 404, 120);

    // Direct answers from one in-process replica.
    let direct = replica(0);
    let expected: Vec<RecommendResponse> =
        stream.iter().map(|c| direct_answer(&direct, c)).collect();
    // The stream exercised every route, including degraded traffic.
    assert!(stream.iter().any(|c| matches!(c, WireCall::Recommend(r) if r.question.is_some())));
    assert!(stream.iter().any(|c| matches!(c, WireCall::Recommend(r) if r.question.is_none())));
    assert!(stream.iter().any(|c| matches!(c, WireCall::Click(r) if r.clicks.is_empty())));

    // Two workers, each with its own deterministic replica: whichever
    // worker picks up the connection must produce the same bytes.
    let registry = MetricsRegistry::new();
    let factory_registry = registry.clone();
    let handle = Gateway::spawn(
        "127.0.0.1:0",
        GatewayConfig { workers: 2, ..Default::default() },
        &registry,
        // Rebind each replica onto the shared registry so the gateway's
        // wire counters and the replicas' serving.* series reconcile in
        // one scrape.
        move |worker| replica(worker).with_metrics(factory_registry.clone()),
    )
    .expect("gateway binds an ephemeral port");

    let mut client = GatewayClient::new(handle.addr());
    assert!(client.healthz().expect("healthz").contains("\"ok\""));
    for (i, call) in stream.iter().enumerate() {
        let got = wire_answer(&mut client, call).unwrap_or_else(|e| panic!("call {i} failed: {e}"));
        assert!(
            got.same_content(&expected[i]),
            "wire answer {i} diverged:\n  wire   {got:?}\n  direct {:?}",
            expected[i]
        );
    }

    // Every wire request was counted under its route with status 200.
    let n200 = |route: &str| {
        registry.counter_labeled("gateway.requests", &[("route", route), ("status", "200")]).get()
    };
    let recommends = stream.iter().filter(|c| matches!(c, WireCall::Recommend(_))).count() as u64;
    let clicks = stream.len() as u64 - recommends;
    assert_eq!(n200("recommend"), recommends);
    assert_eq!(n200("click"), clicks);
    assert_eq!(n200("healthz"), 1);
    assert_eq!(registry.counter("gateway.shed").get(), 0);
    // The inner replicas ticked one serving.requests per wire request.
    assert_eq!(registry.counter("serving.requests").get(), stream.len() as u64);

    handle.shutdown();
}

#[test]
fn gateway_over_sharded_front_reconciles_under_concurrency() {
    let world = World::generate(WorldConfig::tiny(61));
    let replica = replicas(&world);
    let direct = replica(0);

    let registry = MetricsRegistry::new();
    let shards = 4usize;
    let front = Arc::new(ShardedServer::spawn(
        ShardConfig { shards, batch_max: 4, queue_capacity: 64 },
        registry.clone(),
        replica,
    ));
    // All gateway workers share the one sharded front via `Arc`.
    let share = Arc::clone(&front);
    let handle = Gateway::spawn(
        "127.0.0.1:0",
        GatewayConfig { workers: 3, ..Default::default() },
        &registry,
        move |_worker| Arc::clone(&share),
    )
    .expect("gateway binds");
    let addr = handle.addr();

    let clients = 6usize;
    let per_client = 40usize;
    // `ModelServer` is not `Send` (Rc-based parameters), so compute each
    // client's expected answers up front on this thread; the client
    // threads then only compare.
    let plans: Vec<Vec<(WireCall, RecommendResponse)>> = (0..clients)
        .map(|c| {
            wire_stream(&world, 0x5EED ^ (c as u64) << 13, per_client)
                .into_iter()
                .map(|call| {
                    let want = direct_answer(&direct, &call);
                    (call, want)
                })
                .collect()
        })
        .collect();
    let answered = AtomicU64::new(0);
    let shed = AtomicU64::new(0);
    let stop_scraper = AtomicBool::new(false);
    let scrapes = AtomicU64::new(0);

    std::thread::scope(|scope| {
        // A scraper hammers GET /metrics *while* traffic flows; every
        // scrape must parse.
        scope.spawn(|| {
            let mut scraper = GatewayClient::new(addr).with_timeout(Duration::from_millis(5_000));
            while !stop_scraper.load(Ordering::Relaxed) {
                let text = scraper.scrape_metrics().expect("mid-run scrape succeeds");
                let samples = parse_prometheus(&text).expect("mid-run scrape parses");
                assert!(!samples.is_empty());
                scrapes.fetch_add(1, Ordering::Relaxed);
                std::thread::sleep(Duration::from_millis(2));
            }
        });

        let mut client_threads = Vec::new();
        for plan in &plans {
            let (answered, shed) = (&answered, &shed);
            client_threads.push(scope.spawn(move || {
                let mut client =
                    GatewayClient::new(addr).with_timeout(Duration::from_millis(5_000));
                for (call, want) in plan {
                    match wire_answer(&mut client, call) {
                        Ok(got) => {
                            answered.fetch_add(1, Ordering::Relaxed);
                            assert!(
                                got.same_content(want),
                                "sharded wire answer diverged:\n  wire   {got:?}\n  direct {want:?}"
                            );
                        }
                        Err(ClientError::Shed) => {
                            shed.fetch_add(1, Ordering::Relaxed);
                        }
                        Err(e) => panic!("unexpected client error: {e}"),
                    }
                }
            }));
        }
        // Join the traffic threads (propagating any client panic), then
        // release the scraper so the scope can close.
        for t in client_threads {
            if let Err(p) = t.join() {
                stop_scraper.store(true, Ordering::Relaxed);
                std::panic::resume_unwind(p);
            }
        }
        stop_scraper.store(true, Ordering::Relaxed);
    });

    let sent = (clients * per_client) as u64;
    let answered = answered.into_inner();
    let shed_seen = shed.into_inner();
    assert_eq!(answered + shed_seen, sent, "every request answered or shed, never both");
    assert!(scrapes.into_inner() > 0, "the mid-run scraper must have scraped");

    // Gateway-side accounting agrees with the clients': every 200 is an
    // answer and every 503 a shed one of them saw. JSON sheds happen at
    // accept (route `shed`); the model routes never 503 while serving.
    let count = |route: &str, status: &str| {
        registry.counter_labeled("gateway.requests", &[("route", route), ("status", status)]).get()
    };
    assert_eq!(count("recommend", "200") + count("click", "200"), answered);
    assert_eq!(count("recommend", "503") + count("click", "503"), 0);
    assert_eq!(count("shed", "503"), shed_seen);
    assert_eq!(registry.counter("gateway.shed").get(), shed_seen);

    // One scrape carries all three stages: gateway wire, per-shard
    // routing, and the model-serving layer, in one registry.
    let mut tail = GatewayClient::new(addr);
    let text = tail.scrape_metrics().expect("final scrape");
    handle.shutdown();
    let samples = parse_prometheus(&text).expect("final scrape parses");
    let has = |needle: &str| {
        samples.iter().any(|s| match s {
            MetricSample::Counter { name, .. }
            | MetricSample::Gauge { name, .. }
            | MetricSample::Histogram { name, .. } => name.contains(needle),
        })
    };
    assert!(has("gateway_requests"), "gateway series missing from scrape:\n{text}");
    assert!(has("gateway_request_us"), "gateway latency series missing");
    assert!(has("shard=\"0\""), "per-shard series missing from scrape");
    assert!(has("serving_request_us"), "model-serving series missing");
    // Per-shard request counts sum to the answered total (each accepted
    // request was routed to exactly one shard).
    let per_shard: u64 = (0..shards)
        .map(|s| registry.counter_labeled("sharded.processed", &[("shard", &s.to_string())]).get())
        .sum();
    assert_eq!(per_shard, answered);

    drop(front);
}

/// A minimal reader for `/debug/traces` JSON lines: the spans of one trace
/// as `(name, duration_us, shard, batch_rows)` tuples.
fn spans_of(trace_line: &str) -> Vec<(String, u64, Option<u64>, Option<u64>)> {
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
            (name, end - start, field(obj, "shard"), field(obj, "batch_rows"))
        })
        .collect()
}

#[test]
fn client_trace_ids_round_trip_with_full_span_decomposition() {
    let world = World::generate(WorldConfig::tiny(83));
    let registry = MetricsRegistry::new();
    // One shard with room to batch: concurrent clicks below pile up behind
    // the worker, so some drains carry several requests.
    let front = Arc::new(ShardedServer::spawn(
        ShardConfig { shards: 1, batch_max: 8, queue_capacity: 64 },
        registry.clone(),
        replicas(&world),
    ));
    let share = Arc::clone(&front);
    let handle = Gateway::spawn(
        "127.0.0.1:0",
        GatewayConfig { workers: 3, ..Default::default() },
        &registry,
        move |_worker| Arc::clone(&share),
    )
    .expect("gateway binds");
    let addr = handle.addr();

    // 1. A client-supplied X-Trace-Id round-trips end to end.
    let mut client = GatewayClient::new(addr);
    let click = RecommendRequest { tenant: 0, question: None, clicks: vec![0] };
    let wall = std::time::Instant::now();
    let (resp, echoed) = client.click_traced(&click, 0xabc123).expect("traced click");
    let wall_us = wall.elapsed().as_micros() as u64;
    assert!(!resp.recommended_tags.is_empty() || !resp.predicted_questions.is_empty());
    assert_eq!(echoed, Some(0xabc123), "gateway must echo the client's trace id");

    let traces = client.debug_traces().expect("debug traces");
    let line = traces
        .lines()
        .find(|l| l.contains("\"trace_id\":\"0000000000abc123\""))
        .unwrap_or_else(|| panic!("trace 0xabc123 not in /debug/traces:\n{traces}"));
    let spans = spans_of(line);
    let names: Vec<&str> = spans.iter().map(|(n, ..)| n.as_str()).collect();
    // Gateway, shard-queue, drain, and per-stage model spans all present.
    for expected in ["gateway", "shard.queue", "drain", "score"] {
        assert!(names.contains(&expected), "missing span {expected}: {names:?}");
    }
    let queue = spans.iter().find(|(n, ..)| n == "shard.queue").expect("queue span");
    assert_eq!(queue.2, Some(0), "queue span must name the serving shard");
    // The disjoint server-side stages (queue wait + drain processing) sum
    // to within the client's measured wall time; the `gateway` span nests
    // them and itself fits the wall time.
    let server_side: u64 =
        spans.iter().filter(|(n, ..)| n == "shard.queue" || n == "drain").map(|s| s.1).sum();
    let gateway_us = spans.iter().find(|(n, ..)| n == "gateway").expect("gateway span").1;
    assert!(server_side <= wall_us, "queue+drain {server_side}us exceeds wall {wall_us}us");
    assert!(gateway_us <= wall_us, "gateway span {gateway_us}us exceeds wall {wall_us}us");
    // Model stages run inside the drain: their sum cannot exceed it.
    let stages: u64 = spans
        .iter()
        .filter(|(n, ..)| ["recall", "rerank", "score"].contains(&n.as_str()))
        .map(|s| s.1)
        .sum();
    let drain_us = spans.iter().find(|(n, ..)| n == "drain").expect("drain span").1;
    assert!(stages <= drain_us, "stage spans {stages}us exceed their drain {drain_us}us");

    // 2. Batched drains: hammer the single shard from several threads
    // until a multi-request drain happens, then check that a trace from a
    // batched drain carries the drain size on its drain span.
    let batch_hist =
        || registry.histogram_labeled("sharded.batch_rows", &[("shard", "0")]).snapshot().max;
    let mut next_id = 0xba7c_0001u64;
    for _attempt in 0..50 {
        if batch_hist() >= 2 {
            break;
        }
        std::thread::scope(|scope| {
            for t in 0..4u64 {
                let base = next_id + t * 100;
                scope.spawn(move || {
                    let mut c = GatewayClient::new(addr);
                    let req = RecommendRequest { tenant: 0, question: None, clicks: vec![0] };
                    for i in 0..8 {
                        let _ = c.click_traced(&req, base + i);
                    }
                });
            }
        });
        next_id += 1000;
    }
    assert!(batch_hist() >= 2, "no multi-request drain after 50 concurrent bursts");
    let traces = client.debug_traces().expect("debug traces after burst");
    let batched = traces.lines().find_map(|l| {
        if !l.contains("\"trace_id\"") {
            return None;
        }
        let spans = spans_of(l);
        spans
            .iter()
            .any(|(n, _, _, rows)| n == "drain" && rows.is_some_and(|r| r >= 2))
            .then_some(spans)
    });
    let spans = batched.expect("a retained trace from a multi-request drain");
    let names: Vec<&str> = spans.iter().map(|(n, ..)| n.as_str()).collect();
    for expected in ["gateway", "shard.queue", "drain", "score"] {
        assert!(names.contains(&expected), "batched trace missing {expected}: {names:?}");
    }

    // 3. The SLO series saw every completed request, split by tier.
    let report = SloReport::from_registry(&registry, 150_000);
    assert!(!report.tiers.is_empty(), "slo.latency_us series missing");
    let total: u64 = report.tiers.iter().map(|t| t.count).sum();
    assert_eq!(total, registry.counter("serving.requests").get());

    handle.shutdown();
    drop(front);
}

#[test]
fn gateway_error_paths_are_clean_json_statuses() {
    let world = World::generate(WorldConfig::tiny(7));
    let registry = MetricsRegistry::new();
    let handle = Gateway::spawn(
        "127.0.0.1:0",
        GatewayConfig { workers: 1, ..Default::default() },
        &registry,
        replicas(&world),
    )
    .expect("gateway binds");

    let mut client = GatewayClient::new(handle.addr());
    // Unknown route → 404; wrong method on a known route → 405. The
    // public client only speaks the real routes, so drive these through
    // a raw request with an empty body.
    let recommend_on_get = RecommendRequest { tenant: 0, question: None, clicks: vec![] };
    let err = client.click(&RecommendRequest { tenant: 0, question: None, clicks: vec![] });
    assert!(err.is_ok(), "empty click degrades to popularity, not an error: {err:?}");
    let _ = recommend_on_get; // routes below are exercised over raw sockets

    use std::io::{Read as _, Write as _};
    let raw = |wire: &str| -> String {
        let mut s = std::net::TcpStream::connect(handle.addr()).unwrap();
        s.write_all(wire.as_bytes()).unwrap();
        let mut out = String::new();
        let _ = s.read_to_string(&mut out);
        out
    };
    let r404 =
        raw("GET /nope HTTP/1.1\r\nhost: x\r\nconnection: close\r\ncontent-length: 0\r\n\r\n");
    assert!(r404.starts_with("HTTP/1.1 404"), "got: {r404}");
    let r405 = raw(
        "GET /v1/recommend HTTP/1.1\r\nhost: x\r\nconnection: close\r\ncontent-length: 0\r\n\r\n",
    );
    assert!(r405.starts_with("HTTP/1.1 405"), "got: {r405}");
    assert!(r405.contains("Allow: POST"), "405 must name the allowed method: {r405}");
    // Any method outside GET/POST on a known route is still a 405, not a
    // misleading 404; the Allow header names what the route speaks.
    let r405_put = raw(
        "PUT /v1/recommend HTTP/1.1\r\nhost: x\r\nconnection: close\r\ncontent-length: 0\r\n\r\n",
    );
    assert!(r405_put.starts_with("HTTP/1.1 405"), "got: {r405_put}");
    assert!(r405_put.contains("Allow: POST"), "got: {r405_put}");
    let r405_head =
        raw("HEAD /healthz HTTP/1.1\r\nhost: x\r\nconnection: close\r\ncontent-length: 0\r\n\r\n");
    assert!(r405_head.starts_with("HTTP/1.1 405"), "got: {r405_head}");
    assert!(r405_head.contains("Allow: GET"), "got: {r405_head}");
    let r400 = raw(
        "POST /v1/click HTTP/1.1\r\nhost: x\r\nconnection: close\r\ncontent-length: 9\r\n\r\nnot-json!",
    );
    assert!(r400.starts_with("HTTP/1.1 400"), "got: {r400}");
    // Protocol garbage gets a 400 too (malformed request line).
    let bad = raw("TOTAL GARBAGE\r\n\r\n");
    assert!(bad.starts_with("HTTP/1.1 400"), "got: {bad}");

    // Unroutable traffic (bad route, bad method, protocol garbage) counts
    // under route=invalid; a bad body on a real route counts under that
    // route with status 400.
    let labeled = |route: &str, status: &str| {
        registry.counter_labeled("gateway.requests", &[("route", route), ("status", status)]).get()
    };
    assert_eq!(labeled("invalid", "404"), 1);
    assert_eq!(labeled("invalid", "405"), 3);
    assert_eq!(labeled("invalid", "400"), 1, "protocol garbage counts as invalid/400");
    assert_eq!(labeled("click", "400"), 1, "bad JSON counts under its route with 400");
    handle.shutdown();
}

/// The span names of trace `id` in a `/debug/traces` export, in recorded
/// order.
fn span_names_of(traces: &str, id: u64) -> Vec<String> {
    let needle = format!("\"trace_id\":\"{}\"", format_trace_id(id));
    let line = traces
        .lines()
        .find(|l| l.contains(&needle))
        .unwrap_or_else(|| panic!("trace {id:#x} not in /debug/traces:\n{traces}"));
    spans_of(line).into_iter().map(|(name, ..)| name).collect()
}

/// A sharded front behind a gateway — the deployed stack.
fn sharded_stack(world: &World, registry: &MetricsRegistry) -> GatewayHandle {
    let front = Arc::new(ShardedServer::spawn(
        ShardConfig { shards: 2, batch_max: 8, queue_capacity: 256 },
        registry.clone(),
        replicas(world),
    ));
    Gateway::spawn(
        "127.0.0.1:0",
        GatewayConfig { workers: 2, ..Default::default() },
        registry,
        move |_worker| Arc::clone(&front),
    )
    .expect("gateway binds")
}

#[test]
fn both_codecs_trace_the_same_request_with_the_same_spans() {
    let world = World::generate(WorldConfig::tiny(47));
    let registry = MetricsRegistry::new();
    let handle = sharded_stack(&world, &registry);
    let mut json = GatewayClient::new(handle.addr());
    let mut bin = PipelinedClient::new(handle.addr(), 1, 1).with_timeout(Duration::from_secs(5));
    let cases = [
        RecommendRequest { tenant: 0, question: Some(world.rqs[0].text()), clicks: vec![] },
        RecommendRequest { tenant: 1, question: None, clicks: vec![world.tenant_tag_pool(1)[0]] },
        RecommendRequest { tenant: 0, question: None, clicks: vec![] },
    ];
    for (i, req) in cases.iter().enumerate() {
        let (json_id, bin_id) = (0x5a11_0000 + i as u64, 0x5a12_0000 + i as u64);
        let (_, echoed) = if req.clicks.is_empty() {
            json.recommend_traced(req, json_id)
        } else {
            json.click_traced(req, json_id)
        }
        .expect("json answered");
        assert_eq!(echoed, Some(json_id));
        assert!(bin.round_trip(req, bin_id).expect("binary answered").payload.is_response());
        let traces = json.debug_traces().expect("debug traces");
        let via_json = span_names_of(&traces, json_id);
        assert_eq!(via_json, span_names_of(&traces, bin_id), "case {i}: {req:?}");
        assert_eq!(via_json.first().map(String::as_str), Some("shard.queue"), "case {i}");
        assert_eq!(via_json.last().map(String::as_str), Some("gateway"), "case {i}");
    }
    // The cold start's lookup is a model stage, whichever codec carried it.
    let traces = json.debug_traces().expect("debug traces");
    let cold = span_names_of(&traces, 0x5a12_0002);
    assert_eq!(cold, ["shard.queue", "cold_start", "drain", "gateway"]);
    handle.shutdown();
}

#[test]
fn out_of_range_tenants_over_the_wire_mint_no_metric_series() {
    // Tenant ids are whatever a client sends: 10 000 distinct unknown ones
    // must leave the registry — and so `/metrics` — exactly as large.
    let world = World::generate(WorldConfig::tiny(53));
    let registry = MetricsRegistry::new();
    let handle = sharded_stack(&world, &registry);
    let mut bin = PipelinedClient::new(handle.addr(), 1, 64).with_timeout(Duration::from_secs(5));
    let unknown = world.tenants.len();
    let request = |i: usize| {
        let tenant = unknown + i;
        match i % 3 {
            0 => RecommendRequest { tenant, question: Some("lost".into()), clicks: vec![] },
            1 => RecommendRequest { tenant, question: None, clicks: vec![0] },
            _ => RecommendRequest { tenant, question: None, clicks: vec![] },
        }
    };
    // One request of each kind first, so every series these routes touch
    // exists before counting.
    for i in 0..3 {
        assert!(bin.round_trip(&request(i), 0).expect("answered").payload.is_response());
    }
    let series = registry.names().len();
    for i in 3..10_003 {
        bin.submit(&request(i), 0).expect("submit");
    }
    let done = bin.drain().expect("every frame answered");
    assert!(done.iter().all(|c| c.payload.is_response()));
    assert_eq!(done.len(), 10_000);
    assert_eq!(registry.names().len(), series);
    assert_eq!(registry.counter("serving.error.bad_tenant").get(), 10_003);
    handle.shutdown();
}
