//! Every call into the program other than building the stack: the wire
//! formats the generators speak, the oracle, and (in `walk`) the timed calls
//! into each layer's public functions. An API refactor re-points this file.

use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Cursor, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::Instant;

use intellitag::baselines::SequenceRecommender;
use intellitag::core::{IntelliTag, ModelServer, ShardedServer, TagService};
use intellitag::gateway::codec::{self, Decoded, FrameType};
use intellitag::gateway::http::{read_request, read_response, HttpLimits, Response};
use intellitag::gateway::{ErrorCode, RecommendRequest, RecommendResponse};
use intellitag::nn::TransformerEncoder;
use intellitag::obs::{Histogram, Metric, MetricsRegistry};
use intellitag::online::{WalEvent, WalWriter};
use intellitag::tensor::kernel::{self, ParAxis, Variant};
use intellitag::tensor::{Matrix, ParamSet, Tape};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::json::{self, Json};
use crate::loadgen;
use crate::report::{put, Metrics};
use crate::stack::{self, Reference};
use crate::stats;
use crate::trace::{Span, SpanLog};
use crate::workload::{Kind, Req};

// ---------------------------------------------------------------------------
// Wire formats
// ---------------------------------------------------------------------------

fn to_wire(req: &Req) -> RecommendRequest {
    RecommendRequest {
        tenant: req.tenant,
        question: req.question.clone(),
        clicks: req.clicks.clone(),
    }
}

/// One binary request frame; the correlation id is echoed in the reply.
pub fn binary_request(corr_id: u64, req: &Req) -> Vec<u8> {
    codec::encode_request_frame(corr_id, 0, &to_wire(req))
}

/// One HTTP/1.1 keep-alive request with a JSON body, as a single write.
pub fn http_request(req: &Req) -> Vec<u8> {
    let path = if req.kind() == Kind::Click { "/v1/click" } else { "/v1/recommend" };
    let body = to_wire(req).to_json();
    format!(
        "POST {path} HTTP/1.1\r\nhost: benchmark\r\ncontent-type: application/json\r\n\
         content-length: {}\r\n\r\n{body}",
        body.len()
    )
    .into_bytes()
}

/// A `GET` on the gateway's spare worker (`/metrics`, `/debug/traces`).
pub fn http_get(path: &str) -> Vec<u8> {
    format!("GET {path} HTTP/1.1\r\nhost: benchmark\r\n\r\n").into_bytes()
}

/// A reply as it came off the socket, decoded after the timed window.
#[derive(Debug, Clone)]
pub enum RawReply {
    Binary { error: bool, payload: Vec<u8> },
    Http { status: u16, body: Vec<u8> },
}

/// What a reply turned out to be.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Reply {
    Answer(Answer),
    Shed,
    Error(String),
}

/// The content of a served response (the server's own latency field is
/// measurement, not content).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Answer {
    pub rq: Option<usize>,
    pub answer: Option<String>,
    pub recommended_tags: Vec<usize>,
    pub predicted_questions: Vec<usize>,
}

impl Answer {
    fn of(resp: RecommendResponse) -> Answer {
        Answer {
            rq: resp.rq,
            answer: resp.answer,
            recommended_tags: resp.recommended_tags,
            predicted_questions: resp.predicted_questions,
        }
    }

    /// FNV-1a over the content fields, lists length-prefixed.
    pub fn content_hash(&self) -> u64 {
        let mut h = Fnv::default();
        h.opt(self.rq.map(|r| r as u64));
        match &self.answer {
            Some(a) => {
                h.u64(1);
                h.u64(a.len() as u64);
                h.bytes(a.as_bytes());
            }
            None => h.u64(0),
        }
        for list in [&self.recommended_tags, &self.predicted_questions] {
            h.u64(list.len() as u64);
            for &id in list {
                h.u64(id as u64);
            }
        }
        h.0
    }
}

struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn u64(&mut self, n: u64) {
        self.bytes(&n.to_le_bytes());
    }

    fn opt(&mut self, n: Option<u64>) {
        match n {
            Some(n) => {
                self.u64(1);
                self.u64(n);
            }
            None => self.u64(0),
        }
    }
}

/// One step of reading binary reply frames off an accumulating buffer.
pub enum BinaryStep {
    NeedMore,
    /// A reply frame: its correlation id, the raw reply, bytes to drop.
    Frame(u64, RawReply, usize),
    /// The stream cannot be read any further.
    Broken(String),
}

/// Tries to take one reply frame from the front of `buf`.
pub fn next_binary_reply(buf: &[u8]) -> BinaryStep {
    match codec::decode_frame(buf, codec::MAX_PAYLOAD) {
        Decoded::NeedMore => BinaryStep::NeedMore,
        Decoded::Frame(frame, consumed) => {
            let error = frame.frame_type != FrameType::Response;
            BinaryStep::Frame(
                frame.corr_id,
                RawReply::Binary { error, payload: frame.payload },
                consumed,
            )
        }
        Decoded::Rejected { error, .. } => BinaryStep::Broken(error.to_string()),
        Decoded::Fatal(error) => BinaryStep::Broken(error.to_string()),
    }
}

/// Reads one HTTP response from a keep-alive connection.
pub fn read_http_reply(reader: &mut impl BufRead) -> Result<RawReply, String> {
    read_response(reader, &HttpLimits::default())
        .map(|r| RawReply::Http { status: r.status, body: r.body })
        .map_err(|e| e.to_string())
}

/// Decodes a raw reply (outside the timed window).
pub fn decode_reply(raw: &RawReply) -> Reply {
    match raw {
        RawReply::Binary { error: false, payload } => {
            match codec::decode_response_payload(payload) {
                Ok(resp) => Reply::Answer(Answer::of(resp)),
                Err(e) => Reply::Error(e.to_string()),
            }
        }
        RawReply::Binary { error: true, payload } => match codec::decode_error_payload(payload) {
            Ok(e) if e.code == ErrorCode::Shed => Reply::Shed,
            Ok(e) => Reply::Error(format!("{:?}: {}", e.code, e.message)),
            Err(e) => Reply::Error(e.to_string()),
        },
        RawReply::Http { status: 200, body } => match RecommendResponse::from_json(body) {
            Ok(resp) => Reply::Answer(Answer::of(resp)),
            Err(e) => Reply::Error(e),
        },
        RawReply::Http { status: 503, .. } => Reply::Shed,
        RawReply::Http { status, body } => {
            Reply::Error(format!("status {status}: {}", String::from_utf8_lossy(body)))
        }
    }
}

// ---------------------------------------------------------------------------
// The oracle
// ---------------------------------------------------------------------------

/// A single-threaded server over the same checkpoint bytes the shards load,
/// answering the same requests outside the timed window.
pub struct Oracle {
    server: ModelServer<IntelliTag>,
}

/// Clicks the oracle scores per stacked forward (bit-exact with one at a
/// time; it only makes checking cheaper).
const ORACLE_BATCH: usize = 32;

impl Oracle {
    pub fn new(reference: &Reference, bytes: &[u8]) -> Oracle {
        Oracle { server: reference.replica(bytes) }
    }

    /// The content every request in `reqs` must be answered with.
    pub fn answers(&self, reqs: &[&Req]) -> Vec<Answer> {
        let mut out: Vec<Option<Answer>> = vec![None; reqs.len()];
        let mut clicks: Vec<usize> = Vec::new();
        for (i, req) in reqs.iter().enumerate() {
            match req.kind() {
                Kind::Click => clicks.push(i),
                Kind::Question | Kind::ColdStart => {
                    out[i] = Some(Answer::of(respond(&self.server, req)));
                }
            }
        }
        for chunk in clicks.chunks(ORACLE_BATCH) {
            let batch: Vec<(usize, Vec<usize>)> =
                chunk.iter().map(|&i| (reqs[i].tenant, reqs[i].clicks.clone())).collect();
            for (&i, r) in chunk.iter().zip(self.server.handle_tag_click_batch(&batch)) {
                out[i] = Some(Answer::of(RecommendResponse::from_click(&r)));
            }
        }
        out.into_iter().map(|a| a.expect("every request was answered")).collect()
    }
}

// ---------------------------------------------------------------------------
// The layer walk
// ---------------------------------------------------------------------------
//
// Timed calls into each layer's public functions, on requests taken from the
// workload's own list, bottom-up. Each sampled request leaves one span per
// layer, children naming their parent, so a layer's self time is its span
// minus its children's. The layers are separate calls one after another (no
// span is inside the program), so the nesting is by cause, not by clock.

/// What the walk needs from the run that hosts it.
pub struct WalkInput {
    pub reference: Arc<Reference>,
    /// The live, idle stack: its gateway address and its front.
    pub addr: SocketAddr,
    pub front: Arc<ShardedServer>,
    pub registry: MetricsRegistry,
    /// The workload's own request list.
    pub reqs: Vec<Req>,
    /// Whether the workload speaks JSON over HTTP (else binary frames).
    pub json: bool,
    /// Whether the learning loop's layers are walked too.
    pub online: bool,
    /// Requests sampled per kind.
    pub samples: usize,
    pub epoch: Instant,
}

pub struct Walked {
    pub spans: SpanLog,
    pub metrics: Metrics,
}

/// Lifetime `(parallel, serial)` dispatch counts of the tensor pool.
pub fn pool_dispatch() -> (usize, usize) {
    intellitag::tensor::pool_dispatch_stats()
}

/// Median nanoseconds per call of `f` over `inputs`, timed one input at a
/// time (for calls of a microsecond or more).
fn median_ns<T, R>(inputs: &[T], mut f: impl FnMut(&T) -> R) -> f64 {
    let mut ns: Vec<u64> = inputs
        .iter()
        .map(|x| {
            let t = Instant::now();
            std::hint::black_box(f(std::hint::black_box(x)));
            t.elapsed().as_nanos() as u64
        })
        .collect();
    stats::quantile(&mut ns, 0.5) as f64
}

/// Nanoseconds per call of `f`, timed over whole passes through `inputs`
/// (for calls too short to time singly); the median pass decides.
fn per_call_ns<T, R>(inputs: &[T], passes: usize, mut f: impl FnMut(&T) -> R) -> f64 {
    if inputs.is_empty() {
        return 0.0;
    }
    let mut ns: Vec<u64> = (0..passes)
        .map(|_| {
            let t = Instant::now();
            for x in inputs {
                std::hint::black_box(f(std::hint::black_box(x)));
            }
            t.elapsed().as_nanos() as u64
        })
        .collect();
    stats::quantile(&mut ns, 0.5) as f64 / inputs.len() as f64
}

/// GFLOP/s of one GEMM shape, best-of-passes excluded: the median pass.
fn gemm_gflops(variant: Variant, m: usize, k: usize, n: usize) -> f64 {
    let (a_len, b_len) = match variant {
        Variant::NN => (m * k, k * n),
        Variant::TN => (k * m, k * n),
        Variant::NT => (m * k, n * k),
    };
    let a: Vec<f32> = (0..a_len).map(|i| ((i % 13) as f32 - 6.0) / 7.0).collect();
    let b: Vec<f32> = (0..b_len).map(|i| ((i % 11) as f32 - 5.0) / 6.0).collect();
    let mut out = vec![0.0f32; m * n];
    let flops = 2.0 * (m * k * n) as f64;
    // Enough repetitions per pass that a pass is tens of microseconds.
    let reps = ((2e6 / flops).ceil() as usize).max(1);
    let ns =
        per_call_ns(&vec![(); reps], 15, |()| kernel::gemm(variant, m, k, n, &a, &b, &mut out));
    flops / ns.max(1.0)
}

/// Multiply-adds and bytes one click costs the sequence model, worked out
/// from tensor sizes (not measured): a context of `ctx` clicks plus the mask
/// slot is `r` rows; each layer projects them four times, attends head by
/// head, and runs a 4x feed-forward; the mask row is scored against every
/// tag. Bytes count each operand and result once, at 4 bytes a value.
fn model_cost(ctx: usize, dim: usize, layers: usize, tags: usize) -> (f64, f64) {
    let (r, d, t) = ((ctx + 1) as f64, dim as f64, tags as f64);
    let proj = 4.0 * 2.0 * r * d * d;
    let attn = 2.0 * 2.0 * r * r * d;
    let ffn = 2.0 * 2.0 * r * d * 4.0 * d;
    let flops = layers as f64 * (proj + attn + ffn) + 2.0 * d * t;
    let proj_b = 4.0 * (r * d + d * d + r * d);
    let attn_b = 2.0 * (2.0 * r * d + r * r);
    let ffn_b = 2.0 * (r * d + 4.0 * d * d + 4.0 * r * d);
    let bytes = 4.0 * (layers as f64 * (proj_b + attn_b + ffn_b) + d + d * t + t);
    (flops, bytes)
}

fn to_ms(ns: f64) -> f64 {
    ns / 1e6
}

fn to_us(ns: f64) -> f64 {
    ns / 1e3
}

/// One idle round trip per request over `conn`, in the given wire format.
fn wire_round_trips(
    conn: &TcpStream,
    reqs: &[&Req],
    json: bool,
    epoch: Instant,
) -> Result<Vec<(u64, u64)>, String> {
    let mut writer = conn;
    let mut reader = BufReader::new(conn);
    let mut acc: Vec<u8> = Vec::new();
    let mut chunk = vec![0u8; 16 * 1024];
    let mut out = Vec::with_capacity(reqs.len());
    for (i, req) in reqs.iter().enumerate() {
        let bytes = if json { http_request(req) } else { binary_request(i as u64, req) };
        let start = epoch.elapsed().as_nanos() as u64;
        writer.write_all(&bytes).map_err(|e| format!("write: {e}"))?;
        if json {
            read_http_reply(&mut reader)?;
        } else {
            loop {
                match next_binary_reply(&acc) {
                    BinaryStep::Frame(_, _, used) => {
                        acc.drain(..used);
                        break;
                    }
                    BinaryStep::Broken(why) => return Err(why),
                    BinaryStep::NeedMore => {
                        let n = reader.read(&mut chunk).map_err(|e| format!("read: {e}"))?;
                        if n == 0 {
                            return Err("server closed the connection".into());
                        }
                        acc.extend_from_slice(&chunk[..n]);
                    }
                }
            }
        }
        out.push((start, epoch.elapsed().as_nanos() as u64));
    }
    Ok(out)
}

/// Serves one request through any front, blocking, and shapes the answer
/// the way the gateway does.
fn respond<S: TagService>(service: &S, req: &Req) -> RecommendResponse {
    match req.kind() {
        Kind::Click => {
            RecommendResponse::from_click(&service.handle_tag_click(req.tenant, &req.clicks))
        }
        Kind::Question => RecommendResponse::from_question(
            &service.handle_question(req.tenant, req.question.as_deref().expect("a question")),
        ),
        Kind::ColdStart => {
            RecommendResponse::from_cold_start(service.cold_start_tags(req.tenant), 0)
        }
    }
}

/// Walks the layers. The stack must be idle.
pub fn walk(input: WalkInput) -> Walked {
    let WalkInput { reference, addr, front, registry, reqs, json, online, samples, epoch } = input;
    let mut m = Metrics::new();
    let mut spans = SpanLog::default();
    let now = || epoch.elapsed().as_nanos() as u64;

    let of_kind = |kind: Kind| -> Vec<&Req> {
        reqs.iter().filter(|r| r.kind() == kind).take(samples).collect()
    };
    let (clicks, questions, colds) =
        (of_kind(Kind::Click), of_kind(Kind::Question), of_kind(Kind::ColdStart));
    let model = reference.load_model(&reference.snapshot);
    let server = reference.replica(&reference.snapshot);
    let kb = reference.world.build_kb();
    let matcher = reference.matcher();
    matcher.prewarm((0..kb.len()).map(|rq| kb.pair(rq).question.as_str()));
    // Prewarming encodes the whole KB; only what the walk's own reranks do
    // counts towards the hit share.
    let (hits_before, encodes_before) = (matcher.cache_hits(), matcher.encode_calls());
    let cfg = reference.model_config();
    let tags = reference.tag_texts().len();

    // ---- tensor -----------------------------------------------------------
    // Rows a stacked batch of eight of this workload's clicks puts through
    // the encoder; falls back to one short context when it has no clicks.
    let ctx_len = |r: &Req| r.clicks.len().min(15);
    let batch: Vec<&Req> = clicks.iter().copied().take(8).collect();
    let batch_rows: usize = batch.iter().map(|r| ctx_len(r) + 1).sum::<usize>().max(2);
    let median_ctx = {
        let mut lens: Vec<u64> = clicks.iter().map(|r| ctx_len(r) as u64).collect();
        stats::quantile(&mut lens, 0.5) as usize
    };
    if clicks.is_empty() {
        // No click in the workload, so no forward to size the shapes by.
        for (name, unit) in [
            ("tensor.gemm.gflops.batch_proj", "GFLOP/s"),
            ("tensor.gemm.gflops.attn_qkt", "GFLOP/s"),
            ("tensor.gemm.gflops.score_pool", "GFLOP/s"),
            ("tensor.gemm.peak_share", "share"),
            ("tensor.gemm.flops_per_req", "count"),
            ("tensor.gemm.bytes_per_req", "B"),
        ] {
            put(&mut m, name, 0.0, unit);
        }
    } else {
        kernel::set_gemm_axis(ParAxis::Serial);
        let peak = gemm_gflops(Variant::NN, 256, 256, 256);
        kernel::set_gemm_axis(ParAxis::Auto);
        let head_dim = cfg.dim / cfg.heads;
        let proj = gemm_gflops(Variant::NN, batch_rows, cfg.dim, cfg.dim);
        let qkt = gemm_gflops(Variant::NT, batch_rows, head_dim, batch_rows);
        let pool = gemm_gflops(Variant::NN, batch.len().max(1), cfg.dim, tags);
        put(&mut m, "tensor.gemm.gflops.batch_proj", proj, "GFLOP/s");
        put(&mut m, "tensor.gemm.gflops.attn_qkt", qkt, "GFLOP/s");
        put(&mut m, "tensor.gemm.gflops.score_pool", pool, "GFLOP/s");
        put(&mut m, "tensor.gemm.peak_share", proj / peak.max(1e-9), "share");
        let (flops, bytes) = model_cost(median_ctx, cfg.dim, cfg.seq_layers, tags);
        put(&mut m, "tensor.gemm.flops_per_req", flops, "count");
        put(&mut m, "tensor.gemm.bytes_per_req", bytes, "B");
    }

    // ---- nn ---------------------------------------------------------------
    // The model keeps its encoder private; one of the same shape stands in
    // (forward time does not depend on the weights).
    let mut encoder_ns = [0.0f64; 2];
    if !clicks.is_empty() {
        let mut rng = StdRng::seed_from_u64(7);
        let mut params = ParamSet::new(1e-3);
        let encoder = TransformerEncoder::new(
            "walk.enc",
            cfg.seq_layers,
            cfg.dim,
            cfg.heads,
            &mut params,
            &mut rng,
        );
        let forward = |lens: &Vec<usize>| {
            let rows: usize = lens.iter().sum();
            let tape = Tape::new();
            let x =
                tape.constant(Matrix::uniform(rows, cfg.dim, 1.0, &mut StdRng::seed_from_u64(3)));
            let mask = tape.constant(Matrix::block_diag_mask(lens));
            let t = Instant::now();
            std::hint::black_box(encoder.forward_masked(&tape, &x, &mask).value());
            t.elapsed().as_nanos() as u64
        };
        let one = vec![median_ctx + 1];
        let eight: Vec<usize> = batch.iter().map(|r| ctx_len(r) + 1).collect();
        for (slot, lens) in [(0, &one), (1, &eight)] {
            let mut ns: Vec<u64> = (0..samples.max(8)).map(|_| forward(lens)).collect();
            encoder_ns[slot] = stats::quantile(&mut ns, 0.5) as f64;
        }
    }
    put(&mut m, "nn.encoder.forward_us.b1", to_us(encoder_ns[0]), "us");
    put(&mut m, "nn.encoder.forward_us.b8", to_us(encoder_ns[1]), "us");
    put(
        &mut m,
        "nn.encoder.rows_per_s",
        if encoder_ns[1] > 0.0 { batch_rows as f64 / (encoder_ns[1] / 1e9) } else { 0.0 },
        "1/s",
    );

    // ---- core.model -------------------------------------------------------
    let pool_of = |r: &Req| reference.pools[r.tenant].as_slice();
    let score_b1 = median_ns(&clicks, |r| model.score_candidates(&r.clicks, pool_of(r)));
    let eights: Vec<Vec<(&[usize], &[usize])>> = clicks
        .chunks(8)
        .filter(|c| c.len() == 8)
        .map(|c| c.iter().map(|r| (r.clicks.as_slice(), pool_of(r))).collect())
        .collect();
    let score_b8 = median_ns(&eights, |b| model.score_candidates_batch(b));
    put(&mut m, "core.model.score_us.b1", to_us(score_b1), "us");
    put(&mut m, "core.model.score_us.b8", to_us(score_b8), "us");
    put(
        &mut m,
        "core.model.rows_per_s.b8",
        if score_b8 > 0.0 { 8.0 / (score_b8 / 1e9) } else { 0.0 },
        "1/s",
    );
    put(
        &mut m,
        "core.model.batch_gain",
        if score_b8 > 0.0 { 8.0 * score_b1 / score_b8 } else { 0.0 },
        "ratio",
    );

    // ---- per-request spans, bottom-up ---------------------------------------
    let click_query = |r: &Req| {
        r.clicks.iter().map(|&t| reference.tag_texts()[t].as_str()).collect::<Vec<_>>().join(" ")
    };
    let wire_conn = loadgen::connect(addr, 1).expect("connect for the walk");
    let mut hits_total = 0usize;
    let mut recalls = 0usize;
    let mut walk_kind = |kind_reqs: &[&Req], spans: &mut SpanLog| -> Result<(), String> {
        let wire = wire_round_trips(&wire_conn[0], kind_reqs, json, epoch)?;
        for (req, (w0, w1)) in kind_reqs.iter().zip(wire) {
            let id = spans.spans.len() as u64;
            let root = spans.record("gateway.wire", w0, w1, None, id);
            // core.sharded: the same request through the front, in process.
            let t0 = now();
            std::hint::black_box(respond(&*front, req));
            let sharded = spans.record("core.sharded", t0, now(), Some(root), id);
            // core.serving: the same request on a replica, on this thread.
            let t0 = now();
            std::hint::black_box(respond(&server, req));
            let serving = spans.record("core.serving", t0, now(), Some(sharded), id);
            match req.kind() {
                Kind::Click => {
                    let t0 = now();
                    std::hint::black_box(model.score_candidates(&req.clicks, pool_of(req)));
                    spans.record("core.model", t0, now(), Some(serving), id);
                    let query = click_query(req);
                    let t0 = now();
                    let hits = kb.recall_for_tenant(&query, req.tenant, 20);
                    spans.record("search", t0, now(), Some(serving), id);
                    hits_total += hits.len();
                    recalls += 1;
                }
                Kind::Question => {
                    let q = req.question.as_deref().expect("a question request");
                    let t0 = now();
                    let hits = kb.recall_for_tenant(q, req.tenant, 10);
                    spans.record("search", t0, now(), Some(serving), id);
                    hits_total += hits.len();
                    recalls += 1;
                    let t0 = now();
                    std::hint::black_box(matcher.rerank_top1(
                        q,
                        hits.iter().map(|h| (h.doc, kb.pair(h.doc).question.as_str())),
                    ));
                    spans.record("core.qa_matcher", t0, now(), Some(serving), id);
                }
                Kind::ColdStart => {}
            }
        }
        Ok(())
    };
    let mut first = [0usize; 3];
    for (slot, kind_reqs) in [&clicks, &questions, &colds].into_iter().enumerate() {
        first[slot] = spans.spans.len();
        if let Err(why) = walk_kind(kind_reqs, &mut spans) {
            panic!("the layer walk lost its connection: {why}");
        }
    }
    drop(wire_conn);
    let end = spans.spans.len();
    let bounds = [first[0]..first[1], first[1]..first[2], first[2]..end];
    // Median duration and median self time of `name` within one kind's spans.
    let slice_log = |range: &std::ops::Range<usize>| {
        // Parent indices are global; rebase them so the slice stands alone.
        let spans = spans.spans[range.clone()]
            .iter()
            .map(|s| Span { parent: s.parent.map(|p| p - range.start), ..s.clone() })
            .collect();
        SpanLog { spans }
    };
    let logs: Vec<SpanLog> = bounds.iter().map(slice_log).collect();
    let own: Vec<_> = logs.iter().map(SpanLog::median_ns_by_name).collect();
    let selfs: Vec<_> = logs.iter().map(SpanLog::median_self_ns_by_name).collect();
    let get = |map: &BTreeMap<String, f64>, k: &str| map.get(k).copied().unwrap_or(0.0);
    // The workload's main kind decides which round trip the headline
    // hand-off numbers describe.
    let main = if !clicks.is_empty() && !json {
        0
    } else if !questions.is_empty() {
        1
    } else {
        2
    };

    put(&mut m, "search.recall_us", to_us(get(&own[main.min(1)], "search")), "us");
    put(
        &mut m,
        "search.hits_per_query",
        if recalls == 0 { 0.0 } else { hits_total as f64 / recalls as f64 },
        "count",
    );
    put(&mut m, "core.qa.rerank_us", to_us(get(&own[1], "core.qa_matcher")), "us");
    let hits = matcher.cache_hits() - hits_before;
    let encodes = matcher.encode_calls() - encodes_before;
    put(
        &mut m,
        "core.qa.encode_hit_share",
        if hits + encodes == 0 { 0.0 } else { hits as f64 / (hits + encodes) as f64 },
        "share",
    );

    put(&mut m, "core.serving.click_us", to_us(get(&own[0], "core.serving")), "us");
    put(&mut m, "core.serving.question_us", to_us(get(&own[1], "core.serving")), "us");
    put(&mut m, "core.serving.cold_start_us", to_us(get(&own[2], "core.serving")), "us");
    put(&mut m, "core.serving.self_us", to_us(get(&selfs[main], "core.serving")), "us");
    let batches: Vec<Vec<(usize, Vec<usize>)>> = clicks
        .chunks(8)
        .filter(|c| c.len() == 8)
        .map(|c| c.iter().map(|r| (r.tenant, r.clicks.clone())).collect())
        .collect();
    put(
        &mut m,
        "core.serving.click_batch_us_per_row",
        to_us(median_ns(&batches, |b| server.handle_tag_click_batch(b))) / 8.0,
        "us",
    );
    // The response cache is off by default: nothing to report until a
    // default turns it on.
    put(&mut m, "core.serving.cache_hit_share", server.cache_hit_rate().unwrap_or(0.0), "share");

    put(&mut m, "core.sharded.rtt_us", to_us(get(&own[main], "core.sharded")), "us");
    put(&mut m, "core.sharded.handoff_us", to_us(get(&selfs[main], "core.sharded")), "us");

    // ---- gateway codecs -----------------------------------------------------
    let sample: Vec<&Req> = clicks.iter().chain(&questions).chain(&colds).copied().collect();
    let wire_reqs: Vec<RecommendRequest> = sample.iter().map(|r| to_wire(r)).collect();
    let responses: Vec<RecommendResponse> = sample.iter().map(|r| respond(&server, r)).collect();
    const PASSES: usize = 31;
    let req_frames: Vec<Vec<u8>> =
        wire_reqs.iter().map(|r| codec::encode_request_frame(1, 0, r)).collect();
    let resp_frames: Vec<Vec<u8>> =
        responses.iter().map(|r| codec::encode_response_frame(1, 0, r)).collect();
    let decode = |frame: &Vec<u8>| match codec::decode_frame(frame, codec::MAX_PAYLOAD) {
        Decoded::Frame(f, _) => f.payload,
        _ => unreachable!("a frame this file just encoded"),
    };
    let mean_len =
        |v: &[Vec<u8>]| v.iter().map(Vec::len).sum::<usize>() as f64 / v.len().max(1) as f64;
    put(
        &mut m,
        "gateway.codec.encode_req_ns",
        per_call_ns(&wire_reqs, PASSES, |r| codec::encode_request_frame(1, 0, r)),
        "ns",
    );
    put(
        &mut m,
        "gateway.codec.decode_req_ns",
        per_call_ns(&req_frames, PASSES, |f| codec::decode_request_payload(&decode(f))),
        "ns",
    );
    put(
        &mut m,
        "gateway.codec.encode_resp_ns",
        per_call_ns(&responses, PASSES, |r| codec::encode_response_frame(1, 0, r)),
        "ns",
    );
    put(
        &mut m,
        "gateway.codec.decode_resp_ns",
        per_call_ns(&resp_frames, PASSES, |f| codec::decode_response_payload(&decode(f))),
        "ns",
    );
    put(&mut m, "gateway.codec.frame_bytes", mean_len(&req_frames) + mean_len(&resp_frames), "B");

    let req_bodies: Vec<Vec<u8>> = wire_reqs.iter().map(|r| r.to_json().into_bytes()).collect();
    let resp_bodies: Vec<Vec<u8>> = responses.iter().map(|r| r.to_json().into_bytes()).collect();
    put(
        &mut m,
        "gateway.json.encode_ns",
        per_call_ns(&responses, PASSES, RecommendResponse::to_json),
        "ns",
    );
    put(
        &mut m,
        "gateway.json.decode_ns",
        per_call_ns(&req_bodies, PASSES, |b| RecommendRequest::from_json(b)),
        "ns",
    );
    put(&mut m, "gateway.json.body_bytes", mean_len(&req_bodies) + mean_len(&resp_bodies), "B");
    let http_reqs: Vec<Vec<u8>> = sample.iter().map(|r| http_request(r)).collect();
    put(
        &mut m,
        "gateway.http.parse_ns",
        per_call_ns(&http_reqs, PASSES, |b| {
            read_request(&mut Cursor::new(b.as_slice()), &HttpLimits::default())
        }),
        "ns",
    );
    put(
        &mut m,
        "gateway.http.write_ns",
        per_call_ns(&resp_bodies, PASSES, |b| {
            let mut out = Vec::with_capacity(256 + b.len());
            Response::json(200, String::from_utf8_lossy(b).into_owned()).write_to(&mut out, true)
        }),
        "ns",
    );

    // ---- gateway.server -------------------------------------------------------
    // An idle round trip in each wire format, on the workload's main kind.
    let main_reqs: &[&Req] = [&clicks, &questions, &colds][main];
    for (name, as_json) in
        [("gateway.wire.rtt_us.binary", false), ("gateway.wire.rtt_us.json", true)]
    {
        let conn = loadgen::connect(addr, 1).expect("connect for the walk");
        let mut ns: Vec<u64> = wire_round_trips(&conn[0], main_reqs, as_json, epoch)
            .unwrap_or_default()
            .into_iter()
            .map(|(a, b)| b - a)
            .collect();
        put(&mut m, name, stats::quantile_us(&mut ns, 0.5), "us");
    }
    let codec_us = if json {
        to_us(
            [
                "gateway.json.encode_ns",
                "gateway.json.decode_ns",
                "gateway.http.parse_ns",
                "gateway.http.write_ns",
            ]
            .iter()
            .map(|k| m[*k].0)
            .sum(),
        )
    } else {
        to_us(
            [
                "gateway.codec.encode_req_ns",
                "gateway.codec.decode_req_ns",
                "gateway.codec.encode_resp_ns",
                "gateway.codec.decode_resp_ns",
            ]
            .iter()
            .map(|k| m[*k].0)
            .sum(),
        )
    };
    let wire_us = to_us(get(&own[main], "gateway.wire"));
    let overhead_us = (wire_us - to_us(get(&own[main], "core.sharded")) - codec_us).max(0.0);
    put(&mut m, "gateway.wire.overhead_us", overhead_us, "us");
    // What no layer's own call accounts for: the root's remainder.
    put(
        &mut m,
        "trace.unaccounted_share",
        if wire_us > 0.0 { overhead_us / wire_us } else { 0.0 },
        "share",
    );

    // ---- online -----------------------------------------------------------------
    let mut wal = [0.0f64; 4];
    if online {
        let path = stack::out_dir().join(format!("walk-{}.wal", std::process::id()));
        let _ = std::fs::remove_file(&path);
        let scratch = MetricsRegistry::new();
        // `usize::MAX` never group-commits: appends and syncs time apart.
        let (mut writer, _) =
            WalWriter::open(&path, usize::MAX, &scratch).expect("open a scratch WAL");
        let events: Vec<WalEvent> = sample
            .iter()
            .filter(|r| r.kind() != Kind::ColdStart)
            .map(|r| match &r.question {
                Some(q) => WalEvent::Question { tenant: r.tenant, text: q.clone() },
                None => WalEvent::TagClick { tenant: r.tenant, clicks: r.clicks.clone() },
            })
            .collect();
        wal[0] = median_ns(&events, |e| writer.append(e).expect("append to the scratch WAL"));
        let mut syncs: Vec<u64> = events
            .iter()
            .take(32)
            .map(|e| {
                writer.append(e).expect("append to the scratch WAL");
                let t = Instant::now();
                writer.sync().expect("sync the scratch WAL");
                t.elapsed().as_nanos() as u64
            })
            .collect();
        wal[1] = stats::quantile(&mut syncs, 0.5) as f64;
        let appends = scratch.counter("wal.appends").get().max(1);
        wal[2] = scratch.counter("wal.bytes").get() as f64 / appends as f64;
        wal[3] = median_ns(&[(); 5], |()| {
            let mut bytes = Vec::new();
            model.save(&mut bytes).expect("in-memory save");
            bytes
        });
        drop(writer);
        let _ = std::fs::remove_file(&path);
    }
    put(&mut m, "online.wal.append_us", to_us(wal[0]), "us");
    put(&mut m, "online.wal.sync_us", to_us(wal[1]), "us");
    put(&mut m, "online.wal.bytes_per_event", wal[2], "B");
    put(&mut m, "online.snapshot.encode_ms", to_ms(wal[3]), "ms");

    // ---- obs ----------------------------------------------------------------------
    let hist = Histogram::new();
    let values: Vec<u64> = (1..=512).map(|i| i * 37 % 5_000).collect();
    put(&mut m, "obs.hist.record_ns", per_call_ns(&values, PASSES, |&v| hist.record(v)), "ns");
    put(
        &mut m,
        "obs.render_prometheus_ms",
        to_ms(median_ns(&[(); 5], |()| registry.render_prometheus())),
        "ms",
    );

    Walked { spans, metrics: m }
}

/// Median of a labelled span's duration among the program's retained traces
/// (`/debug/traces`, one JSON object per line). The collector keeps the
/// slowest few of every window plus one in sixteen, so this leans slow.
fn program_span_median_us(traces: &str, span: &str) -> f64 {
    let mut us = Vec::new();
    for line in traces.lines() {
        let Ok(trace) = json::parse(line) else { continue };
        for s in trace.get("spans").and_then(Json::as_arr).unwrap_or(&[]) {
            if s.get("name").and_then(Json::as_str) == Some(span) {
                let at = |k: &str| s.get(k).and_then(Json::as_f64).unwrap_or(0.0);
                us.push((at("end_us") - at("start_us")).max(0.0) as u64);
            }
        }
    }
    stats::quantile(&mut us, 0.5) as f64
}

/// Values the program itself exposes, copied out after the load (source:
/// program — its timers floor to whole microseconds). `traces` is the body
/// of `/debug/traces`.
pub fn program_metrics(registry: &MetricsRegistry, traces: &str) -> Metrics {
    let mut m = Metrics::new();
    let p50 = |name: &str| registry.merged_histogram(name).quantile(0.5) as f64;
    put(&mut m, "core.serving.stage.score_us", p50("serving.stage.score_us"), "us");
    put(&mut m, "core.serving.stage.recall_us", p50("serving.stage.recall_us"), "us");
    put(&mut m, "core.serving.stage.rerank_us", p50("serving.stage.rerank_us"), "us");
    put(
        &mut m,
        "core.sharded.batch_rows_mean",
        registry.merged_histogram("sharded.batch_rows").mean(),
        "count",
    );
    put(&mut m, "core.sharded.queue_wait_us", program_span_median_us(traces, "shard.queue"), "us");
    put(&mut m, "core.sharded.drain_us", program_span_median_us(traces, "drain"), "us");
    put(&mut m, "core.sharded.shed", registry.counter("sharded.shed_total").get() as f64, "count");
    put(&mut m, "gateway.shed", registry.counter("gateway.shed").get() as f64, "count");
    let wire_err: u64 = registry
        .names()
        .iter()
        .filter(|n| n.starts_with("gateway.wire_err"))
        .filter_map(|n| match registry.get(n) {
            Some(Metric::Counter(c)) => Some(c.get()),
            _ => None,
        })
        .sum();
    put(&mut m, "gateway.wire_err", wire_err as f64, "count");
    m
}

/// The deepest any shard's queue is right now (`sharded.queue_depth{..}`).
pub fn queue_depth_now(registry: &MetricsRegistry) -> f64 {
    registry
        .names()
        .iter()
        .filter(|n| n.starts_with("sharded.queue_depth"))
        .filter_map(|n| match registry.get(n) {
            Some(Metric::Gauge(g)) => Some(g.get()),
            _ => None,
        })
        .fold(0.0, f64::max)
}

/// Whether the tensor kernels fuse multiply-adds on this host.
pub fn fma_kernels() -> bool {
    kernel::fma_enabled()
}

/// The tensor pool's size and its parallel-dispatch threshold, as shipped.
pub fn pool_threads() -> usize {
    intellitag::tensor::pool_threads()
}

pub fn par_threshold() -> usize {
    intellitag::tensor::par_threshold()
}
