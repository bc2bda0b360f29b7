//! Stress and drain tests for the binary wire protocol end to end: 8
//! pipelined clients × 16 in-flight correlated frames against a 4-shard
//! front with shedding enabled, a mid-pipeline server shutdown, the
//! blocking client's stale-connection retry, and the wake-on-completion
//! serve loop (replies leave when the shard finishes them, with no further
//! client bytes and no timer tick).
//!
//! The invariants pinned here are the ones the pipelining layer exists to
//! uphold:
//!
//! * **conservation** — answered + shed == sent, client-side counts and
//!   the gateway's `gateway.requests{route=..,status=..}` counters agree;
//! * **correlation** — every reply maps back (by the echoed correlation
//!   id) to exactly the request that caused it, verified against
//!   precomputed direct answers;
//! * **out-of-order completion** — the whole point of pipelining: at
//!   least one reply overtakes an earlier submission;
//! * **bounded drain** — frames in flight when the server shuts down get
//!   replies or typed `ShuttingDown` errors (or a clean EOF), never a
//!   hang;
//! * **wake on completion** — a reply is written the moment its shard
//!   finishes it: a quiet connection needs no further bytes to get it, an
//!   idle round trip costs no timer tick, the in-flight cap holds the
//!   reader back until a completion frees a permit, and a half-closed
//!   connection is still owed every reply.

use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::{Shutdown, TcpStream};
use std::sync::{Arc, Condvar, Mutex};
use std::thread;
use std::time::{Duration, Instant};

use intellitag::gateway::codec::{
    decode_error_payload, decode_frame, encode_error_frame, encode_request_frame, Decoded, Frame,
    FrameType, MAX_PAYLOAD,
};
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

/// Everything a `ModelServer` replica needs, cloneable into factories.
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
        self.build_with(self.model.clone())
    }

    fn build_with<M: SequenceRecommender>(&self, model: M) -> ModelServer<M> {
        ModelServer::new(
            model,
            self.kb.clone(),
            self.tag_texts.clone(),
            self.rq_tags.clone(),
            self.tenant_tags.clone(),
            self.counts.clone(),
        )
    }
}

/// A seeded mixed request stream: questions, click trails and cold starts.
fn request_stream(world: &World, seed: u64, len: usize) -> Vec<RecommendRequest> {
    let mut rng = Rng(seed);
    let tenants = world.tenants.len();
    (0..len)
        .map(|_| {
            let tenant = rng.below(tenants);
            match rng.below(5) {
                0 | 1 => {
                    let rq = &world.rqs[rng.below(world.rqs.len())];
                    RecommendRequest { tenant, question: Some(rq.text()), clicks: vec![] }
                }
                2 | 3 => {
                    let pool = world.tenant_tag_pool(tenant);
                    let n = 1 + rng.below(3.min(pool.len().max(1)));
                    let clicks = (0..n).map(|_| pool[rng.below(pool.len())]).collect();
                    RecommendRequest { tenant, question: None, clicks }
                }
                _ => RecommendRequest { tenant, question: None, clicks: vec![] },
            }
        })
        .collect()
}

/// The direct (no wire) answer for one request, mirroring the server's
/// frame-type routing: clicks without a question → TagRec path, question →
/// dialogue path, neither → cold start.
fn direct_answer<S: TagService>(service: &S, req: &RecommendRequest) -> RecommendResponse {
    if req.question.is_none() && !req.clicks.is_empty() {
        RecommendResponse::from_click(&service.handle_tag_click(req.tenant, &req.clicks))
    } else {
        match &req.question {
            Some(q) => RecommendResponse::from_question(&service.handle_question(req.tenant, q)),
            None => RecommendResponse::from_cold_start(service.cold_start_tags(req.tenant), 0),
        }
    }
}

/// 8 pipelined clients × 16 in-flight frames each, hammering a 4-shard
/// front with small queues so shedding genuinely happens. Conservation,
/// correlation and out-of-order completion are all asserted.
#[test]
fn pipelined_clients_saturate_a_shedding_sharded_front_and_reconcile() {
    let world = World::generate(WorldConfig::tiny(83));
    let parts = ServerParts::from_world(&world);
    let direct = parts.build();

    let registry = MetricsRegistry::new();
    let factory_parts = parts.clone();
    let front = Arc::new(ShardedServer::spawn(
        ShardConfig {
            shards: 4,
            batch_max: 4,
            // Small queues: 8 clients × 16 in flight = 128 outstanding
            // against 4×8 queue slots, so overload shedding must trigger.
            queue_capacity: 8,
        },
        registry.clone(),
        move |_shard| factory_parts.build(),
    ));
    let share = Arc::clone(&front);
    let handle = Gateway::spawn(
        "127.0.0.1:0",
        // One worker per client: a binary connection holds its worker for
        // the connection's lifetime.
        GatewayConfig { workers: 8, ..Default::default() },
        &registry,
        move |_worker| Arc::clone(&share),
    )
    .expect("gateway binds");
    let addr = handle.addr();

    let clients = 8usize;
    let in_flight = 16usize;
    let per_client = 150usize;
    // Precompute expected answers on this thread (`ModelServer` replicas
    // are not `Send`); client threads only compare.
    let plans: Vec<Vec<(RecommendRequest, RecommendResponse)>> = (0..clients)
        .map(|c| {
            request_stream(&world, 0xB17A ^ ((c as u64) << 17), per_client)
                .into_iter()
                .map(|req| {
                    let want = direct_answer(&direct, &req);
                    (req, want)
                })
                .collect()
        })
        .collect();

    struct ClientOutcome {
        sent: u64,
        answered: u64,
        shed: u64,
        inversions: u64,
        mismatches: Vec<String>,
    }

    let outcomes: Vec<ClientOutcome> = thread::scope(|scope| {
        let handles: Vec<_> = plans
            .iter()
            .map(|plan| {
                scope.spawn(move || {
                    let mut client = PipelinedClient::new(addr, 1, in_flight)
                        .with_timeout(Duration::from_secs(30));
                    let mut by_corr: HashMap<u64, usize> = HashMap::new();
                    let mut completions = Vec::new();
                    for (i, (req, _)) in plan.iter().enumerate() {
                        let corr = client.submit(req, 0).expect("submit");
                        assert!(by_corr.insert(corr, i).is_none(), "correlation id {corr} reused");
                        // Absorb whatever completed while submitting.
                        while client.in_flight() >= in_flight {
                            completions.push(client.next_completion().expect("completion"));
                        }
                    }
                    completions.extend(client.drain().expect("drain"));

                    let mut answered = 0u64;
                    let mut shed = 0u64;
                    let mut mismatches = Vec::new();
                    for c in &completions {
                        let &idx = by_corr
                            .get(&c.corr_id)
                            .unwrap_or_else(|| panic!("unknown correlation id {}", c.corr_id));
                        match &c.payload {
                            ReplyPayload::Response(resp) => {
                                answered += 1;
                                let (req, want) = &plan[idx];
                                if !resp.same_content(want) {
                                    mismatches.push(format!(
                                        "corr {} for {req:?}: got {resp:?} want {want:?}",
                                        c.corr_id
                                    ));
                                }
                            }
                            ReplyPayload::Error(e) if c.payload.is_shed() => {
                                let _ = e;
                                shed += 1;
                            }
                            ReplyPayload::Error(e) => {
                                mismatches.push(format!(
                                    "corr {}: unexpected error {:?} `{}`",
                                    c.corr_id, e.code, e.message
                                ));
                            }
                        }
                    }
                    // Completions arrive ordered by complete_seq (that is
                    // how the client numbers them); an inversion is any
                    // adjacent pair whose submit order disagrees.
                    let inversions = completions
                        .windows(2)
                        .filter(|w| w[0].submit_seq > w[1].submit_seq)
                        .count() as u64;
                    assert_eq!(
                        completions.len(),
                        plan.len(),
                        "every submission must complete exactly once"
                    );
                    ClientOutcome {
                        sent: plan.len() as u64,
                        answered,
                        shed,
                        inversions,
                        mismatches,
                    }
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("client thread")).collect()
    });

    let sent: u64 = outcomes.iter().map(|o| o.sent).sum();
    let answered: u64 = outcomes.iter().map(|o| o.answered).sum();
    let shed: u64 = outcomes.iter().map(|o| o.shed).sum();
    let inversions: u64 = outcomes.iter().map(|o| o.inversions).sum();
    let mismatches: Vec<&String> = outcomes.iter().flat_map(|o| &o.mismatches).collect();

    assert!(mismatches.is_empty(), "correlation/content failures:\n{mismatches:#?}");
    assert_eq!(answered + shed, sent, "conservation: answered + shed must equal sent");
    assert!(answered > 0, "the front must have served some of the load");
    assert!(shed > 0, "the tiny queues must have shed under 128 in-flight frames");
    assert!(
        inversions >= 1,
        "pipelining across 4 shards must complete at least one reply out of order"
    );

    // Server-side accounting agrees with the clients' view.
    let count = |route: &str, status: &str| {
        registry.counter_labeled("gateway.requests", &[("route", route), ("status", status)]).get()
    };
    let served_srv = count("recommend_bin", "200") + count("click_bin", "200");
    let shed_srv = count("recommend_bin", "503") + count("click_bin", "503");
    assert_eq!(served_srv, answered, "gateway 200 counters must match client-observed answers");
    assert_eq!(shed_srv, shed, "gateway 503 counters must match client-observed sheds");

    handle.shutdown();
}

/// Shutting the gateway down with frames in flight must resolve every one
/// of them — a real reply, a typed `ShuttingDown` error frame, or a clean
/// EOF mapped to the same — within a bounded drain, never a hang.
#[test]
fn mid_pipeline_shutdown_drains_inflight_without_hanging() {
    let world = World::generate(WorldConfig::tiny(97));
    let parts = ServerParts::from_world(&world);

    let registry = MetricsRegistry::new();
    let factory_parts = parts.clone();
    let front = Arc::new(ShardedServer::spawn(
        ShardConfig { shards: 2, batch_max: 2, queue_capacity: 64 },
        registry.clone(),
        move |_shard| factory_parts.build(),
    ));
    let share = Arc::clone(&front);
    let handle = Gateway::spawn(
        "127.0.0.1:0",
        GatewayConfig { workers: 2, ..Default::default() },
        &registry,
        move |_worker| Arc::clone(&share),
    )
    .expect("gateway binds");
    let addr = handle.addr();

    let stream = request_stream(&world, 0xD_8A14, 48);
    let mut client = PipelinedClient::new(addr, 1, 48).with_timeout(Duration::from_secs(10));
    for req in &stream {
        client.submit(req, 0).expect("submit");
    }
    // Shut down while those frames ride the pipeline. `shutdown()` blocks
    // until workers drained, so run it on a side thread while the client
    // collects.
    let shutter = thread::spawn(move || handle.shutdown());

    let completions = client.drain().expect("drain must resolve, not hang");
    assert_eq!(completions.len(), stream.len(), "every in-flight frame must resolve");
    let mut served = 0u64;
    let mut drained = 0u64;
    for c in &completions {
        match &c.payload {
            ReplyPayload::Response(_) => served += 1,
            ReplyPayload::Error(e)
                if matches!(e.code, ErrorCode::ShuttingDown | ErrorCode::Shed) =>
            {
                drained += 1
            }
            ReplyPayload::Error(e) => {
                panic!("corr {}: unexpected error {:?} `{}`", c.corr_id, e.code, e.message)
            }
        }
    }
    assert_eq!(served + drained, stream.len() as u64);
    shutter.join().expect("shutdown thread");
}

/// The blocking JSON client must survive the server closing its pooled
/// keep-alive connection between requests (stale-connection retry).
#[test]
fn gateway_client_retries_a_stale_pooled_connection() {
    let world = World::generate(WorldConfig::tiny(31));
    let parts = ServerParts::from_world(&world);
    let registry = MetricsRegistry::new();
    let factory_parts = parts.clone();
    let handle = Gateway::spawn(
        "127.0.0.1:0",
        GatewayConfig {
            workers: 1,
            // Aggressively short idle deadline so the server hangs up on
            // the pooled connection between our two requests.
            read_timeout: Duration::from_millis(100),
            ..Default::default()
        },
        &registry,
        move |_worker| factory_parts.build(),
    )
    .expect("gateway binds");

    let mut client = GatewayClient::new(handle.addr());
    let req = RecommendRequest { tenant: 0, question: None, clicks: vec![] };
    let first = client.recommend(&req).expect("first request");
    // Let the server's idle deadline close the pooled connection.
    thread::sleep(Duration::from_millis(400));
    let second = client
        .recommend(&req)
        .expect("client must transparently retry its stale pooled connection");
    assert!(first.same_content(&second), "cold-start answers are deterministic");
    handle.shutdown();
}

/// What the gated tests observe, in the order it happened.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Event {
    /// The gateway accepted (dispatched) a request frame.
    Dispatched,
    /// A gated model finished scoring — logged before its reply is released.
    Scored,
}

/// A shut gate the gated shard's model waits at, plus the event log.
#[derive(Default)]
struct Gate {
    open: Mutex<bool>,
    opened: Condvar,
    log: Mutex<Vec<Event>>,
    logged: Condvar,
}

impl Gate {
    fn open(&self) {
        *self.open.lock().unwrap() = true;
        self.opened.notify_all();
    }

    fn wait_open(&self) {
        let mut open = self.open.lock().unwrap();
        while !*open {
            open = self.opened.wait(open).unwrap();
        }
    }

    fn log(&self, event: Event) {
        self.log.lock().unwrap().push(event);
        self.logged.notify_all();
    }

    /// Blocks until `n` frames have been dispatched.
    fn wait_dispatched(&self, n: usize) {
        let mut log = self.log.lock().unwrap();
        while log.iter().filter(|&&e| e == Event::Dispatched).count() < n {
            log = self.logged.wait(log).unwrap();
        }
    }
}

impl EventSink for Gate {
    fn tag_click(&self, _tenant: usize, _clicks: &[usize]) {
        self.log(Event::Dispatched);
    }

    fn question(&self, _tenant: usize, _text: &str) {
        self.log(Event::Dispatched);
    }
}

/// `Popularity`, except that the replica on shard 0 scores nothing until
/// the gate opens.
struct Gated {
    inner: Popularity,
    gate: Option<Arc<Gate>>,
}

impl SequenceRecommender for Gated {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn score_all(&self, context: &[usize]) -> Vec<f32> {
        if let Some(gate) = &self.gate {
            gate.wait_open();
            gate.log(Event::Scored);
        }
        self.inner.score_all(context)
    }
}

/// A 2-shard front (tenant 0 → the gated shard 0, tenant 1 → the free shard
/// 1; one request per drain) behind a one-worker gateway with
/// `binary_inflight` frames allowed in flight per connection.
fn gated_stack(
    world: &World,
    binary_inflight: usize,
) -> (Arc<Gate>, GatewayHandle, Arc<ShardedServer>) {
    gated_stack_with(world, GatewayConfig { workers: 1, binary_inflight, ..Default::default() })
}

fn gated_stack_with(
    world: &World,
    cfg: GatewayConfig,
) -> (Arc<Gate>, GatewayHandle, Arc<ShardedServer>) {
    let parts = ServerParts::from_world(world);
    let gate = Arc::new(Gate::default());
    let registry = MetricsRegistry::new();
    let factory_gate = Arc::clone(&gate);
    let front = Arc::new(ShardedServer::spawn(
        ShardConfig { shards: 2, batch_max: 1, queue_capacity: 64 },
        registry.clone(),
        move |shard| {
            let gate = (shard == 0).then(|| Arc::clone(&factory_gate));
            parts.build_with(Gated { inner: parts.model.clone(), gate })
        },
    ));
    let share = Arc::clone(&front);
    let handle = Gateway::spawn_with_sink(
        "127.0.0.1:0",
        cfg,
        &registry,
        move |_worker| Arc::clone(&share),
        Some(Arc::clone(&gate) as Arc<dyn EventSink>),
    )
    .expect("gateway binds");
    (gate, handle, front)
}

/// Everything the server sends until it closes the connection, as frames.
fn read_frames_to_eof(stream: &mut TcpStream) -> Vec<Frame> {
    let mut bytes = Vec::new();
    stream.read_to_end(&mut bytes).expect("replies, then a clean EOF");
    let mut frames = Vec::new();
    let mut rest = &bytes[..];
    while !rest.is_empty() {
        match decode_frame(rest, MAX_PAYLOAD) {
            Decoded::Frame(frame, used) => {
                frames.push(frame);
                rest = &rest[used..];
            }
            other => panic!("reply stream broke: {other:?}"),
        }
    }
    frames
}

/// A scoring (non-degraded) click for `tenant`.
fn click_for(world: &World, tenant: usize) -> RecommendRequest {
    RecommendRequest { tenant, question: None, clicks: vec![world.tenant_tag_pool(tenant)[0]] }
}

/// One at a time over a quiet connection, a binary round trip is bounded by
/// the work, not by a timer: before the wake-on-completion loop every such
/// trip cost two 4 ms kernel ticks.
#[test]
fn idle_binary_round_trips_do_not_wait_for_a_timer_tick() {
    let world = World::generate(WorldConfig::tiny(41));
    let parts = ServerParts::from_world(&world);
    let registry = MetricsRegistry::new();
    let front = Arc::new(ShardedServer::spawn(
        ShardConfig { shards: 2, ..Default::default() },
        registry.clone(),
        move |_shard| parts.build(),
    ));
    let share = Arc::clone(&front);
    let handle = Gateway::spawn(
        "127.0.0.1:0",
        GatewayConfig { workers: 1, ..Default::default() },
        &registry,
        move |_worker| Arc::clone(&share),
    )
    .expect("gateway binds");

    let mut client = PipelinedClient::new(handle.addr(), 1, 1);
    let mut trips: Vec<Duration> = (0..32)
        .map(|i| {
            let start = Instant::now();
            let done = client.round_trip(&click_for(&world, i % 2), 0).expect("round trip");
            assert!(done.payload.is_response(), "{:?}", done.payload);
            start.elapsed()
        })
        .collect();
    trips.sort();
    let median = trips[trips.len() / 2];
    assert!(median < Duration::from_millis(2), "median idle round trip {median:?}: {trips:?}");
    drop(client);
    handle.shutdown();
}

/// Frame A waits at the gated shard; frame B, sent after it on the same
/// quiet connection, is answered by the free shard — and must reach the
/// client while the gate is still shut, with no further bytes from the
/// client to prod the serve loop.
#[test]
fn a_finished_reply_leaves_without_further_client_bytes() {
    let world = World::generate(WorldConfig::tiny(43));
    let (gate, handle, _front) = gated_stack(&world, 128);
    let mut client =
        PipelinedClient::new(handle.addr(), 1, 8).with_timeout(Duration::from_secs(10));
    let a = client.submit(&click_for(&world, 0), 0).expect("submit A");
    let b = client.submit(&click_for(&world, 1), 0).expect("submit B");

    let first = client.next_completion().expect("B completes while A is gated");
    assert_eq!(first.corr_id, b, "the free shard's reply must not wait for the gated one");
    assert!(first.payload.is_response());
    assert_eq!(client.in_flight(), 1, "A is still in flight");

    gate.open();
    let second = client.next_completion().expect("A completes once the gate opens");
    assert_eq!(second.corr_id, a);
    assert!(second.payload.is_response());
    drop(client);
    handle.shutdown();
}

/// With `binary_inflight = 4` and the gate shut, the reader dispatches four
/// frames and then waits for a permit: the fifth goes out only after a
/// completion has freed one. Nothing is lost either way.
#[test]
fn the_inflight_cap_is_a_permit_freed_by_completions() {
    let cap = 4;
    let sent = 12;
    let world = World::generate(WorldConfig::tiny(47));
    let (gate, handle, _front) = gated_stack(&world, cap);
    let mut client =
        PipelinedClient::new(handle.addr(), 1, sent).with_timeout(Duration::from_secs(10));
    for _ in 0..sent {
        client.submit(&click_for(&world, 0), 0).expect("submit");
    }
    // `submit` only corks; the first wait flushes. Nothing can complete
    // while the gate is shut, so wait from a side thread.
    let collector = thread::spawn(move || client.drain().expect("every frame resolves"));

    gate.wait_dispatched(cap);
    // A negative check cannot be forced, only given time to fail.
    thread::sleep(Duration::from_millis(100));
    let dispatched = |log: &[Event]| log.iter().filter(|&&e| e == Event::Dispatched).count();
    assert_eq!(dispatched(&gate.log.lock().unwrap()), cap, "a fifth frame slipped past the cap");

    gate.open();
    let completions = collector.join().expect("collector");
    let answered = completions.iter().filter(|c| c.payload.is_response()).count();
    let shed = completions.iter().filter(|c| c.payload.is_shed()).count();
    assert_eq!(answered + shed, sent, "conservation: answered + shed must equal sent");
    assert_eq!(shed, 0, "a 64-deep queue behind a 4-frame cap never sheds");

    // The cap, stated over the whole run: when the n-th frame was
    // dispatched, at least n - cap earlier ones had been scored (a reply is
    // scored before it is released, released before it frees a permit).
    let log = gate.log.lock().unwrap();
    let (mut n, mut scored) = (0, 0);
    for event in log.iter() {
        match event {
            Event::Scored => scored += 1,
            Event::Dispatched => {
                n += 1;
                assert!(scored + cap >= n, "frame {n} dispatched with {scored} scored: {log:?}");
            }
        }
    }
    assert_eq!((n, scored), (sent, sent));
    drop(log);
    handle.shutdown();
}

/// A client that half-closes its socket with frames in flight is still owed
/// — and gets — every reply, then a clean EOF.
#[test]
fn a_half_closed_connection_still_receives_every_reply() {
    let world = World::generate(WorldConfig::tiny(53));
    let (gate, handle, _front) = gated_stack(&world, 128);
    let mut stream = TcpStream::connect(handle.addr()).expect("connect");
    stream.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    let sent = 3u64;
    for corr in 1..=sent {
        stream.write_all(&encode_request_frame(corr, 0, &click_for(&world, 0))).expect("write");
    }
    gate.wait_dispatched(sent as usize);
    stream.shutdown(Shutdown::Write).expect("half-close");
    // Give the server's reader time to see the EOF with all three gated.
    thread::sleep(Duration::from_millis(50));
    gate.open();

    let mut corrs: Vec<u64> = read_frames_to_eof(&mut stream)
        .iter()
        .map(|frame| {
            assert_eq!(frame.frame_type, FrameType::Response, "corr {}", frame.corr_id);
            frame.corr_id
        })
        .collect();
    corrs.sort_unstable();
    assert_eq!(corrs, (1..=sent).collect::<Vec<_>>(), "every in-flight frame is answered");
    handle.shutdown();
}

/// The end of a connection races its last completion: the client half-closes
/// the instant its frames are written, so the reader's EOF and the shard's
/// reply land together, hundreds of times over. Every frame is answered,
/// and the gateway's single worker — which a slip in the reader/writer
/// hand-over would kill — serves every later connection and ends idle.
#[test]
fn eof_racing_the_last_completion_never_loses_a_reply_or_the_worker() {
    let world = World::generate(WorldConfig::tiny(59));
    let parts = ServerParts::from_world(&world);
    let registry = MetricsRegistry::new();
    let front = Arc::new(ShardedServer::spawn(
        ShardConfig { shards: 2, ..Default::default() },
        registry.clone(),
        move |_shard| parts.build(),
    ));
    let share = Arc::clone(&front);
    let handle = Gateway::spawn(
        "127.0.0.1:0",
        GatewayConfig { workers: 1, ..Default::default() },
        &registry,
        move |_worker| Arc::clone(&share),
    )
    .expect("gateway binds");

    for round in 0..300u64 {
        let sent = 1 + round % 3;
        let mut stream = TcpStream::connect(handle.addr()).expect("connect");
        stream.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        let mut burst = Vec::new();
        for corr in 1..=sent {
            let tenant = ((round + corr) % 2) as usize;
            burst.extend(encode_request_frame(corr, 0, &click_for(&world, tenant)));
        }
        stream.write_all(&burst).expect("write");
        stream.shutdown(Shutdown::Write).expect("half-close");
        let mut corrs: Vec<u64> = read_frames_to_eof(&mut stream)
            .iter()
            .map(|frame| {
                assert_eq!(frame.frame_type, FrameType::Response, "round {round}");
                frame.corr_id
            })
            .collect();
        corrs.sort_unstable();
        assert_eq!(corrs, (1..=sent).collect::<Vec<_>>(), "round {round}");
    }
    // The worker lets go of a connection just after its client sees EOF.
    let settled = Instant::now() + Duration::from_secs(5);
    let live = registry.gauge("gateway.connections");
    while live.get() != 0.0 && Instant::now() < settled {
        thread::sleep(Duration::from_millis(1));
    }
    assert_eq!(live.get(), 0.0, "a connection leaked");
    handle.shutdown();
}

/// A frame the gateway refuses holds an in-flight permit like any request:
/// with the cap's four permits held by gated requests, a refused fifth frame
/// is not even answered until a completion frees one — so a client that
/// streams refusable frames without reading is backpressured, not buffered
/// without bound.
#[test]
fn a_refused_frame_waits_for_a_permit_like_a_request() {
    let cap = 4u64;
    let world = World::generate(WorldConfig::tiny(61));
    let (gate, handle, _front) = gated_stack(&world, cap as usize);
    let mut stream = TcpStream::connect(handle.addr()).expect("connect");
    for corr in 1..=cap {
        stream.write_all(&encode_request_frame(corr, 0, &click_for(&world, 0))).expect("write");
    }
    // An error frame flows server → client only: refused as `BadFrameType`.
    stream.write_all(&encode_error_frame(cap + 1, 0, ErrorCode::Shed, "")).expect("write");
    gate.wait_dispatched(cap as usize);

    // A negative check cannot be forced, only given time to fail.
    stream.set_read_timeout(Some(Duration::from_millis(100))).unwrap();
    let early = stream.read(&mut [0u8; 64]);
    gate.open();
    assert!(early.is_err(), "the refusal jumped the cap: {early:?}");

    stream.shutdown(Shutdown::Write).expect("half-close");
    stream.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    let frames = read_frames_to_eof(&mut stream);
    let mut answered: Vec<u64> = Vec::new();
    for frame in &frames {
        if frame.frame_type == FrameType::Response {
            answered.push(frame.corr_id);
        } else {
            let refusal = decode_error_payload(&frame.payload).expect("error payload");
            assert_eq!((frame.corr_id, refusal.code), (cap + 1, ErrorCode::BadFrameType));
        }
    }
    answered.sort_unstable();
    assert_eq!(answered, (1..=cap).collect::<Vec<_>>());
    assert_eq!(frames.len() as u64, cap + 1, "answered + refused == sent");
    handle.shutdown();
}

/// Shutdown seen while the reader waits for a permit: the frame it had
/// already decoded is answered with a typed `ShuttingDown` frame and counted
/// like any other answer — not dropped — and the requests still gated at the
/// drain deadline get the same.
#[test]
fn a_frame_held_at_the_cap_through_shutdown_is_answered_not_dropped() {
    let cap = 4u64;
    let sent = cap + 1;
    let world = World::generate(WorldConfig::tiny(67));
    let (gate, handle, _front) = gated_stack_with(
        &world,
        GatewayConfig {
            workers: 1,
            binary_inflight: cap as usize,
            read_timeout: Duration::from_millis(300),
            ..Default::default()
        },
    );
    let registry = handle.registry().clone();
    let mut stream = TcpStream::connect(handle.addr()).expect("connect");
    stream.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    for corr in 1..=sent {
        stream.write_all(&encode_request_frame(corr, 0, &click_for(&world, 0))).expect("write");
    }
    gate.wait_dispatched(cap as usize);
    // The fifth frame is decoded and waiting for a permit (or about to be).
    thread::sleep(Duration::from_millis(50));
    let shutter = thread::spawn(move || handle.shutdown());

    let frames = read_frames_to_eof(&mut stream);
    shutter.join().expect("shutdown thread");
    // Let the gated shard finish so the front can be torn down, whatever
    // the checks below find.
    gate.open();

    let mut corrs: Vec<u64> = frames
        .iter()
        .map(|frame| {
            assert_eq!(frame.frame_type, FrameType::Error, "the gate was shut throughout");
            let error = decode_error_payload(&frame.payload).expect("error payload");
            assert_eq!(error.code, ErrorCode::ShuttingDown, "corr {}", frame.corr_id);
            frame.corr_id
        })
        .collect();
    corrs.sort_unstable();
    assert_eq!(corrs, (1..=sent).collect::<Vec<_>>(), "answered + shed == sent");
    let drained = registry
        .counter_labeled("gateway.requests", &[("route", "click_bin"), ("status", "503")])
        .get();
    assert_eq!(drained, sent, "every ShuttingDown answer is counted on its route");
}
