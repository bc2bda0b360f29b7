//! One run of one workload: set the stack up, drive the timed window, check
//! every reply, and work the metrics out.

use std::collections::HashMap;
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::layers::{self, Answer, Oracle, Reply};
use crate::loadgen::{self, LoadResult};
use crate::proc;
use crate::report::{put, Metrics};
use crate::stack::{self, Reference, Stack};
use crate::stats;
use crate::workload::{self, Kind, Req, Workload};

/// Open-loop arrival rates, requests per second: r1, r2 = 2·r1, r3 = 4·r1.
/// Calibrated once on the reference box (2 hardware threads) so that r2 is
/// about 40 % of what the stack sustains on the session mix in a closed loop
/// at 16 in flight per connection (3500-4000 replies/s, bound by the
/// gateway's timer tick; 7400/s at 64 in flight); see README.md.
pub const RATE_R1_RPS: f64 = 750.0;
pub const RATES_RPS: [f64; 3] = [RATE_R1_RPS, 2.0 * RATE_R1_RPS, 4.0 * RATE_R1_RPS];
/// Share of a `session_open` window each rung gets. The bounded metrics are
/// read on r2, so it gets most of the window; r1 and r3 place the knee.
const RUNG_SHARES: [f64; 3] = [0.2, 0.6, 0.2];
/// Index of r2 in [`RATES_RPS`]: the rung `p50_us`, `p99_us` and
/// `throughput_rps` are read on, and the one rate `session_online` runs at.
const R2: usize = 1;
/// A request not answered within this long of its due time misses the
/// service-level objective: ten times the reference box's median at r1.
pub const LIMIT_US: f64 = 28_000.0;
/// A rung passes with at most this share of misses...
const OK_MISS_SHARE: f64 = 0.01;
/// ...and no more than this many seconds' worth of arrivals still
/// unanswered when it ends.
const OK_BACKLOG_S: f64 = 1.0;

/// `p50_us` and `p99_us` are medians over consecutive blocks of this many
/// answered requests, in sending order: enough that a block's 99th
/// percentile has ten samples beyond it, few enough that a run has many
/// blocks and one stall cannot decide the number.
const LATENCY_BLOCK: usize = 1_000;

/// Segments an untraced run's window is split into, each on a stack of its
/// own; every bounded metric, `setup_s` included, takes the median segment.
const SEGMENTS: usize = 3;
/// Requests served before any clock starts (connections open, Q&A memo and
/// pack scratch warm).
const WARMUP_REQUESTS: usize = 256;
const WARMUP_SALT: u64 = 0x5EED_0FA1;
/// Requests each binary closed-loop connection keeps in flight (the gateway
/// allows 128). The gateway's binary loop releases replies on a timer tick
/// of about 4 ms, so a closed loop's latency is a whole number of ticks and
/// its throughput `in flight / (ticks x 4 ms)`: at 16 in flight that is
/// 2000, 1600 or 1333 replies a second and nothing in between, and a host a
/// few per cent slower flips a run from one step to the next. At 64 the
/// steps are 6 % apart and the numbers follow the host smoothly.
const CLOSED_DEPTH: usize = 64;
/// Requests generated per second of closed-loop window: above what the
/// reference box serves, so the stream outlasts the window.
fn closed_stream_rps(workload: Workload) -> usize {
    match workload {
        Workload::QuestionJsonClosed => 24_000,
        _ => 10_000,
    }
}
/// The oracle answers at most this many distinct requests per run (it is one
/// thread, and slower than the stack it checks). Beyond it, every k-th
/// distinct request is answered, k the smallest stride that fits.
const ORACLE_MAX_DISTINCT: usize = 8_000;
/// Passes over the probes before giving up on a quiet learning loop.
const PROBE_PASSES: usize = 3;
/// Requests of each kind the layer walk samples from the workload's list.
const WALK_SAMPLES: usize = 96;
/// How often a traced run reads the shard queue depths.
const QUEUE_SAMPLE_EVERY: Duration = Duration::from_millis(1);
/// Click requests re-asked after the learning loop has stopped, and
/// compared with a fresh server built from the latest snapshot.
const QUIESCE_PROBES: usize = 64;

/// What a run is asked to do.
#[derive(Debug, Clone)]
pub struct RunArgs {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Smoke mode: tiny world, one bring-up, no layer walk repetitions.
    pub check: bool,
}

/// What a run found.
pub struct RunOutput {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    /// Every metric the run measured, end-to-end and per-layer alike.
    pub metrics: Metrics,
    /// Why replies failed, a few examples.
    pub failures: Vec<String>,
}

/// The rungs `(rate, seconds)` of an open-loop window of `seconds`.
fn rungs(workload: Workload, seconds: f64) -> Vec<(f64, f64)> {
    match workload {
        Workload::SessionOpen => {
            RATES_RPS.iter().zip(RUNG_SHARES).map(|(&r, share)| (r, seconds * share)).collect()
        }
        Workload::SessionOnline => vec![(RATES_RPS[R2], seconds)],
        _ => Vec::new(),
    }
}

/// The connections a workload drives, and the frames for a request list.
struct Driver {
    workload: Workload,
    conns: Vec<TcpStream>,
    epoch: Instant,
}

/// Requests as the workload's wire format carries them; a binary frame's
/// correlation id is the request's index.
fn encode(workload: Workload, reqs: &[Req]) -> Vec<Vec<u8>> {
    if workload.speaks_json() {
        reqs.iter().map(layers::http_request).collect()
    } else {
        reqs.iter().enumerate().map(|(i, r)| layers::binary_request(i as u64, r)).collect()
    }
}

impl Driver {
    /// Closed loop at depth 1 over every connection: warm-up and probes.
    fn round_trips(&self, reqs: &[Req]) -> LoadResult {
        let frames = encode(self.workload, reqs);
        if self.workload.speaks_json() {
            loadgen::closed_http(&self.conns, &frames, self.epoch, u64::MAX)
        } else {
            loadgen::closed_binary(&self.conns, &frames, 1, self.epoch, u64::MAX)
        }
    }

    /// The workload's own loop over pre-encoded `frames`, for `seconds`.
    /// Returns the result and, for open loops, the due times and rung ranges.
    fn drive(&self, frames: &[Vec<u8>], plan: &Plan, seconds: f64) -> (LoadResult, Vec<u64>) {
        let start_ns = self.epoch.elapsed().as_nanos() as u64;
        if self.workload.is_open() {
            let due: Vec<u64> = plan.offsets_ns.iter().map(|&o| start_ns + o).collect();
            return (loadgen::open_binary(&self.conns, frames, &due, self.epoch), due);
        }
        let deadline = start_ns + (seconds * 1e9) as u64;
        let result = if self.workload.speaks_json() {
            loadgen::closed_http(&self.conns, frames, self.epoch, deadline)
        } else {
            loadgen::closed_binary(&self.conns, frames, CLOSED_DEPTH, self.epoch, deadline)
        };
        (result, Vec::new())
    }
}

/// A phase's request list and, for open loops, its schedule.
struct Plan {
    reqs: Vec<Req>,
    /// Due time of each request, as an offset from the phase's start.
    offsets_ns: Vec<u64>,
    /// Index range and `(rate, seconds)` of each rung.
    rungs: Vec<(std::ops::Range<usize>, f64, f64)>,
}

fn plan(reference: &Reference, workload: Workload, seed: u64, seconds: f64) -> Plan {
    if workload.is_open() {
        let rung_list = rungs(workload, seconds);
        // The schedule has its own generator so that the request list for a
        // seed does not depend on the run length.
        let mut rng = StdRng::seed_from_u64(seed ^ 0x5C4E_D01E);
        let (offsets_ns, ranges) = loadgen::schedule(&rung_list, &mut rng);
        let reqs = workload::generate(reference, workload, seed, offsets_ns.len());
        let rungs = ranges.into_iter().zip(rung_list).map(|(r, (rate, s))| (r, rate, s)).collect();
        Plan { reqs, offsets_ns, rungs }
    } else {
        let n = (closed_stream_rps(workload) as f64 * seconds).ceil() as usize;
        Plan {
            reqs: workload::generate(reference, workload, seed, n),
            offsets_ns: vec![],
            rungs: vec![],
        }
    }
}

/// The verdict on each request of a phase.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Verdict {
    NotSent,
    Answered,
    Shed,
    /// Error frame or status, undecodable reply, or no reply at all.
    Error,
    /// Answered, but not with what the oracle says.
    Mismatch,
}

struct Checked {
    verdicts: Vec<Verdict>,
    /// Replies compared with the oracle's content hash.
    hash_checked: usize,
    failures: Vec<String>,
}

/// Structural rules every answer obeys whatever the model version: tags from
/// the tenant's own pool, none of them already clicked, at most five.
fn structurally_sound(reference: &Reference, req: &Req, a: &Answer) -> Result<(), String> {
    let pool = &reference.pools[req.tenant];
    if a.recommended_tags.len() > 5 {
        return Err(format!("{} tags recommended", a.recommended_tags.len()));
    }
    if let Some(t) = a.recommended_tags.iter().find(|t| !pool.contains(t)) {
        return Err(format!("tag {t} is not in tenant {}'s pool", req.tenant));
    }
    if let Some(t) = a.recommended_tags.iter().find(|t| req.clicks.contains(t)) {
        return Err(format!("tag {t} was already clicked"));
    }
    Ok(())
}

/// Decodes and checks every reply. `versioned` marks runs where the model
/// changes under the stream: click answers are then checked structurally
/// only (questions and cold starts do not depend on the model).
fn check(
    reference: &Reference,
    oracle: &Oracle,
    reqs: &[Req],
    result: &LoadResult,
    versioned: bool,
) -> Checked {
    let mut verdicts = vec![Verdict::NotSent; reqs.len()];
    let mut failures = Vec::new();
    let mut fail = |i: usize, why: String| {
        if failures.len() < 8 {
            failures.push(format!("request {i} ({:?}): {why}", reqs[i].kind()));
        }
    };
    let mut answers: Vec<Option<Answer>> = vec![None; reqs.len()];
    for i in 0..reqs.len() {
        if result.sent_ns[i] == 0 {
            continue;
        }
        verdicts[i] = match result.replies[i].as_ref().map(layers::decode_reply) {
            None => {
                fail(i, "no reply".into());
                Verdict::Error
            }
            Some(Reply::Shed) => Verdict::Shed,
            Some(Reply::Error(why)) => {
                fail(i, why);
                Verdict::Error
            }
            Some(Reply::Answer(a)) => match structurally_sound(reference, &reqs[i], &a) {
                Ok(()) => {
                    answers[i] = Some(a);
                    Verdict::Answered
                }
                Err(why) => {
                    fail(i, why);
                    Verdict::Mismatch
                }
            },
        };
    }

    // The oracle answers each distinct request once, in first-seen order.
    let comparable = |r: &Req| !(versioned && r.kind() == Kind::Click);
    let mut distinct: Vec<&Req> = Vec::new();
    let mut slot_of: HashMap<&Req, usize> = HashMap::new();
    for (i, req) in reqs.iter().enumerate() {
        if answers[i].is_some() && comparable(req) && !slot_of.contains_key(req) {
            slot_of.insert(req, distinct.len());
            distinct.push(req);
        }
    }
    let stride = distinct.len().div_ceil(ORACLE_MAX_DISTINCT).max(1);
    let asked: Vec<&Req> = distinct.iter().copied().step_by(stride).collect();
    let expected: Vec<u64> = oracle.answers(&asked).iter().map(Answer::content_hash).collect();
    let mut hash_checked = 0;
    for (i, req) in reqs.iter().enumerate() {
        let (Some(answer), Some(&slot)) = (&answers[i], slot_of.get(req)) else { continue };
        if slot % stride != 0 {
            continue;
        }
        hash_checked += 1;
        if answer.content_hash() != expected[slot / stride] {
            verdicts[i] = Verdict::Mismatch;
            fail(i, "content differs from the oracle's".into());
        }
    }
    Checked { verdicts, hash_checked, failures }
}

/// Counts per verdict over a range of requests, with the conservation rule
/// `sent = answered + shed + errors` asserted (a mismatch is an answer that
/// failed its check, so it sits with the errors).
#[derive(Debug, Default, Clone, Copy)]
struct Tally {
    sent: u64,
    answered: u64,
    shed: u64,
    errors: u64,
    mismatch: u64,
}

impl Tally {
    fn of(verdicts: &[Verdict]) -> Tally {
        let mut t = Tally::default();
        for v in verdicts {
            match v {
                Verdict::NotSent => continue,
                Verdict::Answered => t.answered += 1,
                Verdict::Shed => t.shed += 1,
                Verdict::Error => t.errors += 1,
                Verdict::Mismatch => t.mismatch += 1,
            }
            t.sent += 1;
        }
        assert_eq!(t.sent, t.answered + t.shed + t.errors + t.mismatch, "requests leaked");
        t
    }

    fn failed(&self) -> u64 {
        self.sent - self.answered
    }
}

/// Latency of each answered request in `range`, from its due time (open
/// loop) or its send time (closed loop).
fn latencies_ns(
    range: std::ops::Range<usize>,
    verdicts: &[Verdict],
    from_ns: &[u64],
    done_ns: &[u64],
) -> Vec<u64> {
    range
        .filter(|&i| verdicts[i] == Verdict::Answered)
        .map(|i| done_ns[i].saturating_sub(from_ns[i]))
        .collect()
}

/// The numbers of one open-loop rung.
struct Rung {
    rate_rps: f64,
    tally: Tally,
    p50_us: f64,
    p99_us: f64,
    /// The plain 99th percentile of the whole rung, stalls and all.
    whole_p99_us: f64,
    miss_share: f64,
    backlog_end: u64,
    answered_per_s: f64,
}

impl Rung {
    fn ok(&self) -> bool {
        self.miss_share <= OK_MISS_SHARE
            && (self.backlog_end as f64) <= OK_BACKLOG_S * self.rate_rps
    }
}

fn rung_stats(
    range: std::ops::Range<usize>,
    rate_rps: f64,
    seconds: f64,
    verdicts: &[Verdict],
    due_ns: &[u64],
    done_ns: &[u64],
) -> Rung {
    let tally = Tally::of(&verdicts[range.clone()]);
    let mut lat = latencies_ns(range.clone(), verdicts, due_ns, done_ns);
    let in_time = lat.iter().filter(|&&ns| ns as f64 / 1e3 <= LIMIT_US).count() as u64;
    // The rung ends when the next one's first request is due.
    let rung_end = due_ns[range.start] + (seconds * 1e9) as u64;
    let backlog_end = range
        .clone()
        .filter(|&i| verdicts[i] != Verdict::NotSent && (done_ns[i] == 0 || done_ns[i] > rung_end))
        .count() as u64;
    Rung {
        rate_rps,
        tally,
        p50_us: stats::blocked_quantile_us(&lat, LATENCY_BLOCK, 0.5),
        p99_us: stats::blocked_quantile_us(&lat, LATENCY_BLOCK, 0.99),
        whole_p99_us: stats::quantile_us(&mut lat, 0.99),
        miss_share: if tally.sent == 0 { 0.0 } else { 1.0 - in_time as f64 / tally.sent as f64 },
        backlog_end,
        answered_per_s: tally.answered as f64 / seconds,
    }
}

/// Median client-observed latency of the requests of a phase that got a
/// reply.
fn phase_p50_us(from_ns: &[u64], done_ns: &[u64]) -> f64 {
    let mut lat: Vec<u64> = from_ns
        .iter()
        .zip(done_ns)
        .filter(|&(_, &done)| done != 0)
        .map(|(&from, &done)| done.saturating_sub(from))
        .collect();
    stats::quantile_us(&mut lat, 0.5)
}

/// What one segment of the window left behind, gathered while its stack
/// was up.
struct Measured {
    plan: Plan,
    result: LoadResult,
    due_ns: Vec<u64>,
    bring_up_s: f64,
    window_s: f64,
    cpu_us: u64,
    /// The process's peak resident set when the window closed.
    peak_rss_mb: f64,
    group_shares: std::collections::BTreeMap<&'static str, f64>,
    par_dispatch_share: f64,
    queue_depth_max: f64,
    /// Values copied out of the program's registry and retained traces.
    program: Metrics,
    events_seen_before: u64,
    increments: Vec<stack::Increment>,
    applies: Vec<stack::Apply>,
    shards: usize,
    /// The after-quiesce probe replies and the snapshot they must match.
    probes: Option<(LoadResult, Arc<Vec<u8>>)>,
    /// Traced runs: the untraced base phase, and the layer walk.
    base: Option<(LoadResult, Vec<u64>)>,
    walked: Option<layers::Walked>,
}

/// Everything a segment needs that is prepared before any clock starts.
struct Prepared<'a> {
    reference: &'a Arc<Reference>,
    args: &'a RunArgs,
    warmup: &'a [Req],
    probes: &'a [Req],
    epoch: Instant,
}

/// Brings a stack up, warms it, drives one segment of the window through it,
/// quiesces and probes the learning loop, walks the layers on a traced run,
/// and tears the stack down.
fn measure(prep: &Prepared, plan: Plan, base_plan: Option<Plan>, seconds: f64) -> Measured {
    let Prepared { reference, args, warmup, probes, epoch } = *prep;
    let workload = args.workload;
    let online = workload.is_online();
    let connections = stack::nproc();
    let frames = encode(workload, &plan.reqs);
    let base_frames = base_plan.as_ref().map(|p| encode(workload, &p.reqs));

    let started = Instant::now();
    let mut stack = Stack::spawn(reference, connections, online, epoch);
    let conns = loadgen::connect(stack.addr(), connections).expect("connect to the gateway");
    let driver = Driver { workload, conns, epoch };
    let warm = driver.round_trips(warmup);
    assert!(warm.broken.is_empty(), "warm-up failed: {:?}", warm.broken);
    let bring_up_s = started.elapsed().as_secs_f64();

    // ---- the timed window ------------------------------------------------
    let base = base_plan.zip(base_frames).map(|(p, f)| driver.drive(&f, &p, seconds / 2.0));
    let events_seen_before = stack.online.as_ref().map_or(0, |o| o.events_seen());
    let cpu_before = proc::process_cpu_us();
    let groups_before = proc::thread_group_cpu_us();
    let dispatch_before = layers::pool_dispatch();
    let window = Instant::now();
    // Only a traced run samples queue depths (a thread waking every
    // millisecond is part of what the overhead ratio states).
    let stop_sampling = AtomicBool::new(false);
    let ((result, due_ns), queue_depth_max) = std::thread::scope(|scope| {
        let sampler = args.trace.then(|| {
            scope.spawn(|| {
                let mut deepest = 0.0f64;
                while !stop_sampling.load(Ordering::Acquire) {
                    deepest = deepest.max(layers::queue_depth_now(&stack.registry));
                    std::thread::sleep(QUEUE_SAMPLE_EVERY);
                }
                deepest
            })
        });
        let driven = driver.drive(&frames, &plan, seconds);
        stop_sampling.store(true, Ordering::Release);
        (driven, sampler.map_or(0.0, |s| s.join().expect("queue sampler panicked")))
    });
    let window_s = window.elapsed().as_secs_f64();
    let cpu_us = proc::process_cpu_us().saturating_sub(cpu_before);
    let peak_rss_mb = proc::peak_rss_mb();
    let mut group_shares = proc::group_shares(&groups_before, &proc::thread_group_cpu_us(), cpu_us);
    group_shares.insert("loadgen", result.cpu_us as f64 / cpu_us.max(1) as f64);
    let dispatch = layers::pool_dispatch();
    let (par, serial) = (dispatch.0 - dispatch_before.0, dispatch.1 - dispatch_before.1);
    let program_traces = if args.trace {
        loadgen::http_get(stack.addr(), "/debug/traces")
            .map(|body| String::from_utf8_lossy(&body).into_owned())
            .expect("fetch /debug/traces")
    } else {
        String::new()
    };

    // ---- quiesce, probe, walk, tear down -----------------------------------
    if let Some(online) = stack.online.as_mut() {
        online.stop();
    }
    // The gateway closes a connection that stays idle, and stopping the
    // trainer can outlast that: probes go over connections of their own.
    drop(driver);
    // A trainer still inside a long poll may publish while the probes run;
    // they are asked again until one whole pass saw a single version.
    let mut probed = None;
    if let Some(online) = &stack.online {
        for _ in 0..PROBE_PASSES {
            let latest = online.snapshots.latest();
            let conns = loadgen::connect(stack.addr(), connections).expect("reconnect for probes");
            let pass = Driver { workload, conns, epoch }.round_trips(probes);
            let quiet = online.latest_version() == latest.as_ref().map_or(0, |s| s.version);
            let bytes =
                latest.map_or_else(|| Arc::clone(&reference.snapshot), |s| Arc::clone(&s.bytes));
            probed = Some((pass, bytes));
            if quiet {
                break;
            }
        }
    }
    let walked = args.trace.then(|| {
        layers::walk(layers::WalkInput {
            reference: Arc::clone(reference),
            addr: stack.addr(),
            front: Arc::clone(&stack.front),
            registry: stack.registry.clone(),
            reqs: plan.reqs.clone(),
            json: workload.speaks_json(),
            online,
            samples: if args.check { 8 } else { WALK_SAMPLES },
            epoch,
        })
    });
    let (applies, increments) = stack.online.as_ref().map_or_else(Default::default, |o| {
        (
            o.applies.lock().expect("apply log poisoned").clone(),
            o.increments.lock().expect("increment log poisoned").clone(),
        )
    });
    let measured = Measured {
        plan,
        result,
        due_ns,
        bring_up_s,
        window_s,
        cpu_us,
        peak_rss_mb,
        group_shares,
        par_dispatch_share: if par + serial == 0 {
            0.0
        } else {
            par as f64 / (par + serial) as f64
        },
        queue_depth_max,
        program: layers::program_metrics(&stack.registry, &program_traces),
        events_seen_before,
        increments,
        applies,
        shards: stack.shards,
        probes: probed,
        base,
        walked,
    };
    stack.shutdown();
    measured
}

/// Checks one segment's replies and works its metrics out. Returns the
/// metrics, `(attempted, failed)` with the probes counted in, and the first
/// few failures.
fn judge_segment(
    reference: &Reference,
    oracle: &Oracle,
    workload: Workload,
    probes: &[Req],
    seg: &mut Measured,
) -> (Metrics, (u64, u64), Vec<String>) {
    let online = workload.is_online();
    let checked = check(reference, oracle, &seg.plan.reqs, &seg.result, online);
    let mut failures = checked.failures.clone();
    failures.extend(seg.result.broken.iter().map(|b| format!("connection: {b}")));
    let tally = Tally::of(&checked.verdicts);
    let (mut attempted, mut failed) = (tally.sent, tally.failed());
    if !seg.result.broken.is_empty() {
        failed = failed.max(1);
    }
    if let Some((probe_result, bytes)) = &seg.probes {
        let fresh = Oracle::new(reference, bytes);
        let probed = check(reference, &fresh, probes, probe_result, false);
        attempted += probes.len() as u64;
        failed += probed.verdicts.iter().filter(|v| **v != Verdict::Answered).count() as u64;
        failures.extend(probed.failures.iter().map(|f| format!("after quiesce: {f}")));
        failures.extend(probe_result.broken.iter().map(|b| format!("after quiesce: {b}")));
    }

    let mut m = Metrics::new();
    let open = workload.is_open();
    let from_ns: &[u64] = if open { &seg.due_ns } else { &seg.result.sent_ns };
    let rung_list: Vec<Rung> = seg
        .plan
        .rungs
        .iter()
        .map(|(range, rate, s)| {
            rung_stats(
                range.clone(),
                *rate,
                *s,
                &checked.verdicts,
                &seg.due_ns,
                &seg.result.done_ns,
            )
        })
        .collect();
    // Open loops read latency and throughput on the r2 rung.
    let headline = match workload {
        Workload::SessionOpen => Some(R2),
        Workload::SessionOnline => Some(0),
        _ => None,
    };
    let (p50_us, p99_us, throughput_rps) = match headline {
        Some(r) => (rung_list[r].p50_us, rung_list[r].p99_us, rung_list[r].answered_per_s),
        None => {
            let lat = latencies_ns(
                0..seg.plan.reqs.len(),
                &checked.verdicts,
                from_ns,
                &seg.result.done_ns,
            );
            let span_s = (seg.result.end_ns - seg.result.start_ns) as f64 / 1e9;
            (
                stats::blocked_quantile_us(&lat, LATENCY_BLOCK, 0.5),
                stats::blocked_quantile_us(&lat, LATENCY_BLOCK, 0.99),
                tally.answered as f64 / span_s.max(1e-9),
            )
        }
    };
    put(&mut m, "throughput_rps", throughput_rps, "1/s");
    put(&mut m, "p50_us", p50_us, "us");
    put(&mut m, "p99_us", p99_us, "us");
    put(&mut m, "cpu_us_per_req", seg.cpu_us as f64 / tally.answered.max(1) as f64, "us");

    let whole_miss = rung_list.iter().map(|r| r.miss_share * r.tally.sent as f64).sum::<f64>()
        / tally.sent.max(1) as f64;
    put(&mut m, "slo_miss_share", if open { whole_miss } else { 0.0 }, "share");
    let max_ok = rung_list.iter().filter(|r| r.ok()).map(|r| r.rate_rps).fold(0.0, f64::max);
    put(
        &mut m,
        "max_ok_rate_rps",
        if workload == Workload::SessionOpen { max_ok } else { 0.0 },
        "1/s",
    );

    put(&mut m, "loadgen.sent", tally.sent as f64, "count");
    put(&mut m, "loadgen.answered", tally.answered as f64, "count");
    put(&mut m, "loadgen.shed", tally.shed as f64, "count");
    put(&mut m, "loadgen.errors", tally.errors as f64, "count");
    put(&mut m, "loadgen.mismatch", tally.mismatch as f64, "count");
    let mut late = match headline {
        Some(r) => {
            let range = seg.plan.rungs[r].0.clone();
            loadgen::lateness_ns(&seg.due_ns[range.clone()], &seg.result.sent_ns[range])
        }
        None => Vec::new(),
    };
    put(&mut m, "loadgen.late_p99_us", stats::quantile_us(&mut late, 0.99), "us");
    put(
        &mut m,
        "loadgen.backlog_end",
        rung_list.last().map_or(0.0, |r| r.backlog_end as f64),
        "count",
    );
    for (name, idx) in [("rate_r1", 0usize), ("rate_r3", 2)] {
        let rung = (workload == Workload::SessionOpen).then(|| &rung_list[idx]);
        put(&mut m, &format!("loadgen.{name}.p99_us"), rung.map_or(0.0, |r| r.p99_us), "us");
        put(
            &mut m,
            &format!("loadgen.{name}.miss_share"),
            rung.map_or(0.0, |r| r.miss_share),
            "share",
        );
    }
    for (group, share) in &seg.group_shares {
        put(&mut m, &format!("proc.cpu_share.{group}"), *share, "share");
    }
    put(&mut m, "tensor.pool.par_dispatch_share", seg.par_dispatch_share, "share");
    put(&mut m, "core.sharded.queue_depth_max", seg.queue_depth_max, "count");
    online_metrics(&mut m, seg, &checked.verdicts);
    m.append(&mut seg.program);

    if let Some(walked) = seg.walked.take() {
        // Both phases count every request that got a reply, checked or not:
        // the ratio compares the two phases, not the replies.
        let traced_p50 = phase_p50_us(from_ns, &seg.result.done_ns);
        let base_p50 = seg.base.as_ref().map_or(0.0, |(result, due)| {
            phase_p50_us(if open { due } else { &result.sent_ns }, &result.done_ns)
        });
        put(
            &mut m,
            "obs.trace.overhead_share",
            if base_p50 > 0.0 { traced_p50 / base_p50 } else { 0.0 },
            "ratio",
        );
        let layers::Walked { mut spans, mut metrics } = walked;
        for (i, verdict) in checked.verdicts.iter().enumerate() {
            if *verdict == Verdict::Answered {
                spans.record("loadgen.request", from_ns[i], seg.result.done_ns[i], None, i as u64);
            }
        }
        let path = stack::out_dir().join(format!("trace_{workload}.jsonl"));
        spans.write_jsonl(&path).expect("write the span file");
        m.append(&mut metrics);
    }

    println!(
        "{workload}: sent {} answered {} shed {} errors {} mismatch {} | hash-checked {} | \
         window {:.2} s after a {:.2} s bring-up",
        tally.sent,
        tally.answered,
        tally.shed,
        tally.errors,
        tally.mismatch,
        checked.hash_checked,
        seg.window_s,
        seg.bring_up_s,
    );
    // Replies per second of the window: tells a slow host apart from a slow
    // second when two runs disagree.
    let mut per_second = vec![0u32; seg.window_s.ceil() as usize + 1];
    let last = per_second.len() - 1;
    for (i, &done) in seg.result.done_ns.iter().enumerate() {
        if checked.verdicts[i] == Verdict::Answered {
            let second = (done.saturating_sub(seg.result.start_ns) / 1_000_000_000) as usize;
            per_second[second.min(last)] += 1;
        }
    }
    println!("  answered in each second: {per_second:?}");
    if !seg.increments.is_empty() {
        let list: Vec<String> = seg
            .increments
            .iter()
            .take(12)
            .map(|i| {
                format!(
                    "v{}:{}ev/{:.0}ms",
                    i.version,
                    i.events,
                    (i.end_ns - i.start_ns) as f64 / 1e6
                )
            })
            .collect();
        println!("  increments ({} in all, the first): {}", seg.increments.len(), list.join(" "));
    }
    for r in &rung_list {
        println!(
            "  rung {:>6.0}/s: sent {} answered {} shed {} errors {} | p50 {:.1} us p99 {:.1} us \
             (whole rung {:.1} us) | miss {:.4} backlog {} | {}",
            r.rate_rps,
            r.tally.sent,
            r.tally.answered,
            r.tally.shed,
            r.tally.errors + r.tally.mismatch,
            r.p50_us,
            r.p99_us,
            r.whole_p99_us,
            r.miss_share,
            r.backlog_end,
            if r.ok() { "ok" } else { "not ok" },
        );
    }
    (m, (attempted, failed), failures)
}

/// Counts add up over a run's segments and maxima take the largest; every
/// other metric takes the median segment.
const SUMMED: [&str; 9] = [
    "loadgen.sent",
    "loadgen.answered",
    "loadgen.shed",
    "loadgen.errors",
    "loadgen.mismatch",
    "online.swap.count",
    "core.sharded.shed",
    "gateway.shed",
    "gateway.wire_err",
];
const MAXED: [&str; 3] =
    ["online.trainer.lag_events_max", "core.sharded.queue_depth_max", "loadgen.backlog_end"];

fn combine(per_segment: &[Metrics]) -> Metrics {
    let mut out = Metrics::new();
    for (name, (_, unit)) in &per_segment[0] {
        let values: Vec<f64> =
            per_segment.iter().filter_map(|m| m.get(name)).map(|v| v.0).collect();
        let value = if SUMMED.contains(&name.as_str()) {
            values.iter().sum()
        } else if MAXED.contains(&name.as_str()) {
            values.iter().copied().fold(0.0, f64::max)
        } else {
            stats::median(&values)
        };
        put(&mut out, name, value, unit);
    }
    out
}

/// Runs one workload once. An untraced run splits its window into
/// [`SEGMENTS`] segments, each on a stack brought up afresh, and reports the
/// median segment: how the program's threads happen to settle differs from
/// one bring-up to the next by more than anything else on the reference
/// box, and it stays put for a stack's lifetime. A traced run (and the smoke
/// mode) has one segment: a quarter of the window untraced as the base of
/// the overhead ratio, half traced, the rest for the layer walk.
pub fn run(args: &RunArgs, process_start: Instant) -> RunOutput {
    let workload = args.workload;
    let reference = Arc::new(Reference::build(args.check));
    let warmup = workload::generate(&reference, workload, args.seed ^ WARMUP_SALT, WARMUP_REQUESTS);
    let probes: Vec<Req> = {
        let mut seen = std::collections::HashSet::new();
        warmup
            .iter()
            .filter(|r| r.kind() == Kind::Click && seen.insert(*r))
            .take(QUIESCE_PROBES)
            .cloned()
            .collect()
    };
    let prep = Prepared {
        reference: &reference,
        args,
        warmup: &warmup,
        probes: &probes,
        epoch: process_start,
    };

    let mut segments: Vec<Measured> = if args.trace {
        let base = plan(&reference, workload, args.seed ^ 0xBA5E, args.seconds / 4.0);
        let main = plan(&reference, workload, args.seed, args.seconds / 2.0);
        vec![measure(&prep, main, Some(base), args.seconds / 2.0)]
    } else {
        let count = if args.check { 1 } else { SEGMENTS };
        let seconds = args.seconds / count as f64;
        (0..count as u64)
            .map(|k| {
                // A seed of its own per segment, shared with no other run's.
                let seed = args.seed.wrapping_mul(SEGMENTS as u64).wrapping_add(k);
                measure(&prep, plan(&reference, workload, seed, seconds), None, seconds)
            })
            .collect()
    };
    let oracle = Oracle::new(&reference, &reference.snapshot);
    let (mut per_segment, mut failures) = (Vec::new(), Vec::new());
    let (mut attempted, mut failed) = (0, 0);
    for seg in &mut segments {
        let (metrics, (a, f), why) = judge_segment(&reference, &oracle, workload, &probes, seg);
        per_segment.push(metrics);
        attempted += a;
        failed += f;
        failures.extend(why);
    }
    let mut m = combine(&per_segment);
    let bring_ups: Vec<f64> = segments.iter().map(|s| s.bring_up_s).collect();
    put(&mut m, "setup_s", reference.offline_s + stats::median(&bring_ups), "s");
    // Read when the *first* segment's window closed: what one stack and its
    // load need. Later segments sit on whatever the allocator kept from the
    // stacks before them, which says nothing about the program.
    put(&mut m, "peak_rss_mb", segments[0].peak_rss_mb, "MiB");
    let (sent, answered) = (m["loadgen.sent"].0, m["loadgen.answered"].0);
    put(&mut m, "failed_share", (sent - answered) / sent.max(1.0), "share");
    println!(
        "  set-up: {:.2} s offline (world + training, once) + bring-ups {:?} s",
        reference.offline_s,
        bring_ups.iter().map(|s| (s * 100.0).round() / 100.0).collect::<Vec<_>>(),
    );
    failures.truncate(12);
    RunOutput { correct: failed == 0, attempted, failed, metrics: m, failures }
}

/// The learning loop's numbers: zero on workloads that run without it.
fn online_metrics(m: &mut Metrics, seg: &Measured, verdicts: &[Verdict]) {
    let (reqs, result) = (&seg.plan.reqs, &seg.result);
    // Acknowledgement times of the window's event-carrying requests,
    // ascending: the k-th is (nearly) when the k-th event the sampler saw in
    // the window was acknowledged.
    let mut acks: Vec<u64> = (0..reqs.len())
        .filter(|&i| verdicts[i] == Verdict::Answered && reqs[i].kind() != Kind::ColdStart)
        .map(|i| result.done_ns[i])
        .collect();
    acks.sort_unstable();
    // When each version (or a later one) had reached every shard.
    let everywhere = |version: u64| -> Option<u64> {
        (0..seg.shards)
            .map(|s| {
                seg.applies
                    .iter()
                    .filter(|a| a.shard == s && a.version >= version)
                    .map(|a| a.end_ns)
                    .min()
            })
            .collect::<Option<Vec<u64>>>()
            .and_then(|per_shard| per_shard.into_iter().max())
    };
    let mut fresh_ms = Vec::new();
    for inc in &seg.increments {
        // The increment's last WAL record is the sampler's
        // `events_consumed * WAL_SAMPLE_EVERY`-th event since start-up.
        let last_seen = inc.events_consumed * stack::WAL_SAMPLE_EVERY;
        let Some(k) = last_seen.checked_sub(seg.events_seen_before + 1) else { continue };
        let (Some(&ack), Some(applied)) = (acks.get(k as usize), everywhere(inc.version)) else {
            continue;
        };
        fresh_ms.push(applied.saturating_sub(ack) as f64 / 1e6);
    }
    let med = |v: Vec<f64>| stats::median(&v);
    let increments = &seg.increments;
    put(m, "freshness_ms", med(fresh_ms), "ms");
    put(
        m,
        "online.trainer.increment_ms",
        med(increments.iter().map(|i| (i.end_ns - i.start_ns) as f64 / 1e6).collect()),
        "ms",
    );
    put(
        m,
        "online.trainer.events_per_increment",
        med(increments.iter().map(|i| i.events as f64).collect()),
        "count",
    );
    put(
        m,
        "online.trainer.lag_events_max",
        increments.iter().map(|i| i.lag_events).max().unwrap_or(0) as f64,
        "count",
    );
    put(
        m,
        "online.snapshot.bytes",
        increments.last().map_or(0.0, |i| i.snapshot_bytes as f64),
        "B",
    );
    put(
        m,
        "online.swap.apply_ms",
        med(seg.applies.iter().map(|a| (a.end_ns - a.start_ns) as f64 / 1e6).collect()),
        "ms",
    );
    put(m, "online.swap.count", seg.applies.len() as f64, "count");
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::Contract;

    /// `BENCHMARK.json` and the runner must name the same things: every
    /// workload runs, a traced smoke run measures every per-layer name, an
    /// untraced one every end-to-end name, neither measures a name the
    /// contract lacks, and every name is made of `[A-Za-z0-9_.-]`.
    #[test]
    fn contract_names_are_the_names_the_runner_measures() {
        let contract = Contract::load().expect("BENCHMARK.json parses");
        assert_eq!(contract.workloads, Workload::LISTED.map(Workload::name));
        let mut known: Vec<&str> = Vec::new();
        for spec in contract.end_to_end.iter().chain(&contract.per_layer) {
            let ok = |c: char| c.is_ascii_alphanumeric() || "_.-".contains(c);
            assert!(spec.name.chars().all(ok) && !spec.name.is_empty(), "bad name {:?}", spec.name);
            assert!(spec.name.len() <= 64 && spec.unit.len() <= 16, "{} is too long", spec.name);
            assert!(!known.contains(&spec.name.as_str()), "{} is listed twice", spec.name);
            known.push(&spec.name);
        }
        assert!(contract.end_to_end.iter().any(|s| s.name == "setup_s" && s.unit == "s"));
        assert!(contract.end_to_end.iter().all(|s| s.bound.is_some_and(|b| b > 0.0 && b <= 0.25)));

        for workload in Workload::LISTED {
            for trace in [false, true] {
                let args = RunArgs { workload, seed: 5, seconds: 1.0, trace, check: true };
                let out = run(&args, Instant::now());
                assert!(out.correct, "{workload} (trace {trace}): {:?}", out.failures);
                assert!(out.attempted > 0 && out.failed == 0);
                let wanted = if trace { &contract.per_layer } else { &contract.end_to_end };
                for spec in wanted {
                    let (value, unit) = out.metrics.get(&spec.name).unwrap_or_else(|| {
                        panic!("{workload} (trace {trace}) lacks {}", spec.name)
                    });
                    assert_eq!(unit, &spec.unit, "unit of {}", spec.name);
                    assert!(value.is_finite(), "{} is {value}", spec.name);
                }
                for name in out.metrics.keys() {
                    assert!(known.contains(&name.as_str()), "{name} is not in BENCHMARK.json");
                }
                if trace {
                    let spans = crate::trace::SpanLog::read_jsonl(
                        &stack::out_dir().join(format!("trace_{workload}.jsonl")),
                    )
                    .expect("the traced run wrote its span file");
                    assert!(spans.spans.iter().any(|s| s.name == "gateway.wire"));
                    assert!(spans.spans.iter().any(|s| s.name == "loadgen.request"));
                }
            }
        }
    }

    #[test]
    fn conservation_holds_and_failures_count_every_unanswered_request() {
        use Verdict::*;
        let t = Tally::of(&[Answered, Shed, Error, Mismatch, NotSent, Answered]);
        assert_eq!((t.sent, t.answered, t.shed, t.errors, t.mismatch), (5, 2, 1, 1, 1));
        assert_eq!(t.failed(), 3);
    }

    #[test]
    fn a_rung_is_judged_on_misses_and_backlog() {
        // Ten requests due 1 ms apart at 1000/s for 10 ms; the last two are
        // answered after the rung has ended, one of them past the limit.
        let due: Vec<u64> = (0..10).map(|i| 1_000_000 + i * 1_000_000).collect();
        let mut done: Vec<u64> = due.iter().map(|d| d + 500_000).collect();
        done[8] = due[0] + 11_000_000;
        done[9] = due[9] + (LIMIT_US * 1e3) as u64 + 1;
        let verdicts = vec![Verdict::Answered; 10];
        let r = rung_stats(0..10, 1_000.0, 0.010, &verdicts, &due, &done);
        assert_eq!(r.tally.sent, 10);
        assert_eq!(r.backlog_end, 2);
        assert!((r.miss_share - 0.1).abs() < 1e-12, "{}", r.miss_share);
        assert!(!r.ok(), "10 % of requests missed the limit");
        // A shed request is a miss too.
        let mut shed = verdicts.clone();
        shed[0] = Verdict::Shed;
        done[9] = due[9] + 1;
        let r = rung_stats(0..10, 1_000.0, 0.010, &shed, &due, &done);
        assert!((r.miss_share - 0.1).abs() < 1e-12);
    }
}
