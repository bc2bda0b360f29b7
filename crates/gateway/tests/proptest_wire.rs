//! Property/fuzz tests for the gateway's wire layer: the HTTP/1.1 parser
//! must never panic or allocate unboundedly on hostile bytes, the JSON
//! codec must round-trip every value it can represent, and the binary
//! frame protocol must be **semantically identical** to JSON — proven
//! differentially against a live server — while surviving adversarial
//! frames (truncations, mutated length prefixes, wrong magic/version,
//! oversized varints, garbage interleaved with valid frames) with typed
//! error frames or clean closes, never a panic, and with every refusal
//! accounted in `gateway.wire_err{kind=..}`.
//!
//! Two layers of coverage: `proptest!` properties (strategy-driven), plus
//! deterministic splitmix-seeded fuzz loops over the same properties so
//! each case set is reproducible from its printed seed.

use std::io::{Cursor, Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

use intellitag_core::{
    Admission, Completion, CompletionQueue, QuestionResponse, Reply, Request, ShedReason,
    TagClickResponse, TagService,
};
use intellitag_gateway::codec::{self, Decoded, ErrorCode, Frame, FrameType};
use intellitag_gateway::http::{read_request, read_response, HttpError, HttpLimits, Response};
use intellitag_gateway::json::{self, JsonValue, RecommendRequest, RecommendResponse};
use intellitag_gateway::{
    Gateway, GatewayClient, GatewayConfig, GatewayHandle, PipelinedClient, ReplyPayload,
};
use intellitag_obs::{Histogram, HistogramSnapshot, MetricsRegistry, TraceHandle};
use proptest::prelude::*;

/// Splitmix64 — deterministic fuzz driver.
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

/// A random string mixing ASCII, escapes-in-waiting, controls and unicode.
fn random_string(rng: &mut Rng, max_len: usize) -> String {
    let pool: &[char] = &[
        'a', 'b', 'z', 'Z', '0', '9', ' ', '"', '\\', '/', '\n', '\t', '\r', '\u{1}', '{', '}',
        '[', ']', ':', ',', 'é', '中', '🦀', '\u{7f}', '\u{2028}',
    ];
    (0..rng.below(max_len + 1)).map(|_| pool[rng.below(pool.len())]).collect()
}

/// A random JSON value. Numbers are restricted to shapes whose rendering
/// parses back to the same variant: full-range `u64`s stay `Int`, floats
/// carry a fraction or a sign so they stay `Num`.
fn random_json(rng: &mut Rng, depth: usize) -> JsonValue {
    let top = if depth >= 3 { 5 } else { 7 };
    match rng.below(top) {
        0 => JsonValue::Null,
        1 => JsonValue::Bool(rng.next().is_multiple_of(2)),
        2 => JsonValue::Int(rng.next()),
        3 => {
            let whole = (rng.next() % 2_000_000) as f64 - 1_000_000.0;
            JsonValue::Num(whole + 0.5)
        }
        4 => JsonValue::Str(random_string(rng, 12)),
        5 => JsonValue::Arr((0..rng.below(4)).map(|_| random_json(rng, depth + 1)).collect()),
        _ => JsonValue::Obj(
            (0..rng.below(4))
                .map(|i| (format!("k{i}_{}", random_string(rng, 4)), random_json(rng, depth + 1)))
                .collect(),
        ),
    }
}

fn parse_one(bytes: &[u8]) -> Result<intellitag_gateway::Request, HttpError> {
    read_request(&mut Cursor::new(bytes.to_vec()), &HttpLimits::default())
}

// ---------------------------------------------------------------------------
// Deterministic fuzz loops (always executed).
// ---------------------------------------------------------------------------

#[test]
fn json_round_trips_random_values() {
    let mut rng = Rng(0x1A6);
    for case in 0..300 {
        let v = random_json(&mut rng, 0);
        let text = v.render();
        let back = json::parse(&text)
            .unwrap_or_else(|e| panic!("case {case}: render produced unparseable `{text}`: {e}"));
        assert_eq!(back, v, "case {case}: round trip changed the value for `{text}`");
    }
}

#[test]
fn wire_types_round_trip_random_values() {
    let mut rng = Rng(0xBEEF);
    for case in 0..200 {
        let req = RecommendRequest {
            tenant: rng.next() as usize,
            question: if rng.next().is_multiple_of(2) {
                Some(random_string(&mut rng, 24))
            } else {
                None
            },
            clicks: (0..rng.below(6)).map(|_| rng.next() as usize).collect(),
        };
        let back = RecommendRequest::from_json(req.to_json().as_bytes())
            .unwrap_or_else(|e| panic!("case {case}: request failed to decode: {e}"));
        assert_eq!(back, req, "case {case}");

        let resp = RecommendResponse {
            rq: if rng.next().is_multiple_of(2) { Some(rng.next() as usize) } else { None },
            answer: if rng.next().is_multiple_of(2) {
                Some(random_string(&mut rng, 24))
            } else {
                None
            },
            recommended_tags: (0..rng.below(6)).map(|_| rng.next() as usize).collect(),
            predicted_questions: (0..rng.below(4)).map(|_| rng.next() as usize).collect(),
            latency_us: rng.next(),
        };
        let back = RecommendResponse::from_json(resp.to_json().as_bytes())
            .unwrap_or_else(|e| panic!("case {case}: response failed to decode: {e}"));
        assert_eq!(back, resp, "case {case}");
    }
}

#[test]
fn json_parser_survives_garbage_and_mutations() {
    let mut rng = Rng(0xFADE);
    for _ in 0..400 {
        // Pure garbage bytes (valid UTF-8 via lossy) — must error, not panic.
        let garbage: Vec<u8> = (0..rng.below(40)).map(|_| rng.next() as u8).collect();
        let _ = json::parse_bytes(&garbage);
        // Mutations of valid documents — any outcome but a panic is fine.
        let mut text = random_json(&mut rng, 0).render().into_bytes();
        if !text.is_empty() {
            let at = rng.below(text.len());
            match rng.below(3) {
                0 => text[at] = rng.next() as u8,
                1 => text.truncate(at),
                _ => text.insert(at, rng.next() as u8),
            }
        }
        let _ = json::parse_bytes(&text);
    }
}

/// A valid POST request wire image with a body of `body_len` bytes.
fn valid_post(body_len: usize) -> Vec<u8> {
    let body: String = "x".repeat(body_len);
    format!(
        "POST /v1/click HTTP/1.1\r\nhost: fuzz\r\ncontent-type: application/json\r\ncontent-length: {body_len}\r\n\r\n{body}"
    )
    .into_bytes()
}

#[test]
fn every_strict_prefix_of_a_request_is_an_error_not_a_panic() {
    let wire = valid_post(19);
    assert!(parse_one(&wire).is_ok());
    for cut in 0..wire.len() {
        match parse_one(&wire[..cut]) {
            Ok(r) => panic!("prefix of {cut} bytes parsed as a full request: {r:?}"),
            Err(
                HttpError::Closed
                | HttpError::Truncated
                | HttpError::Malformed(_)
                | HttpError::Io(_),
            ) => {}
            Err(e) => panic!("prefix of {cut} bytes gave unexpected error {e:?}"),
        }
    }
}

#[test]
fn http_parser_survives_mutated_wire_bytes() {
    let mut rng = Rng(0x5EED);
    for _ in 0..400 {
        let mut wire = valid_post(rng.below(32));
        let flips = 1 + rng.below(4);
        for _ in 0..flips {
            let at = rng.below(wire.len());
            match rng.below(3) {
                0 => wire[at] = rng.next() as u8,
                1 => {
                    wire.truncate(at);
                    break;
                }
                _ => wire.insert(at, rng.next() as u8),
            }
        }
        let _ = parse_one(&wire); // must not panic or hang
        let _ = read_response(&mut Cursor::new(wire.clone()), &HttpLimits::default());
    }
}

#[test]
fn oversized_headers_and_bodies_are_rejected_with_bounded_memory() {
    let limits = HttpLimits { max_header_bytes: 256, max_body_bytes: 128 };
    let mut rng = Rng(0xB16);
    for _ in 0..50 {
        // Headers that keep growing: the parser must give up at the cap, so
        // even a "10 GB header" input costs at most the cap in memory. The
        // cursor only materializes a few KB here; the declared sizes probe
        // the accounting.
        let huge_header =
            format!("GET / HTTP/1.1\r\nx: {}\r\n\r\n", "h".repeat(300 + rng.below(4096)));
        assert!(matches!(
            read_request(&mut Cursor::new(huge_header.into_bytes()), &limits),
            Err(HttpError::HeadersTooLarge)
        ));
        // A declared body over the cap is rejected *before* allocation.
        let declared = 129 + rng.below(1_000_000);
        let big_body = format!("POST / HTTP/1.1\r\ncontent-length: {declared}\r\n\r\n");
        assert!(matches!(
            read_request(&mut Cursor::new(big_body.into_bytes()), &limits),
            Err(HttpError::BodyTooLarge(n)) if n == declared
        ));
    }
}

#[test]
fn pipelined_random_requests_parse_back_to_back() {
    let mut rng = Rng(0x9999);
    for _ in 0..50 {
        let count = 1 + rng.below(5);
        let mut wire = Vec::new();
        let mut expected = Vec::new();
        for i in 0..count {
            let body = RecommendRequest {
                tenant: rng.below(50),
                question: None,
                clicks: (0..rng.below(4)).map(|_| rng.below(100)).collect(),
            }
            .to_json();
            let path = format!("/v1/click?i={i}");
            wire.extend_from_slice(
                format!("POST {path} HTTP/1.1\r\ncontent-length: {}\r\n\r\n{body}", body.len())
                    .as_bytes(),
            );
            expected.push((path, body));
        }
        let mut cur = Cursor::new(wire);
        let limits = HttpLimits::default();
        for (path, body) in &expected {
            let req = read_request(&mut cur, &limits).expect("pipelined request parses");
            assert_eq!(&req.path, path);
            assert_eq!(req.body, body.as_bytes());
            assert!(req.keep_alive());
        }
        assert!(matches!(read_request(&mut cur, &limits), Err(HttpError::Closed)));
    }
}

#[test]
fn invalid_utf8_is_rejected_in_headers_and_json_bodies() {
    let mut rng = Rng(0x0F8 + 7);
    for _ in 0..100 {
        // Continuation bytes with no lead byte are never valid UTF-8.
        let bad: Vec<u8> =
            (0..1 + rng.below(8)).map(|_| 0x80 | (rng.next() as u8 & 0x3f)).collect();
        let mut header_wire = b"GET / HTTP/1.1\r\nx: ".to_vec();
        header_wire.extend_from_slice(&bad);
        header_wire.extend_from_slice(b"\r\n\r\n");
        assert!(matches!(parse_one(&header_wire), Err(HttpError::Malformed(_))));
        assert!(json::parse_bytes(&bad).is_err());
        assert!(RecommendRequest::from_json(&bad).is_err());
    }
}

#[test]
fn responses_round_trip_through_the_client_parser() {
    let mut rng = Rng(0x4E5 + 0x52);
    for _ in 0..100 {
        let body = random_json(&mut rng, 0).render();
        let status = [200u16, 400, 404, 413, 431, 500, 503][rng.below(7)];
        let keep_alive = rng.next().is_multiple_of(2);
        let mut wire = Vec::new();
        Response::json(status, body.clone()).write_to(&mut wire, keep_alive).unwrap();
        let parsed = read_response(&mut Cursor::new(wire), &HttpLimits::default()).unwrap();
        assert_eq!(parsed.status, status);
        assert_eq!(parsed.body, body.as_bytes());
        assert_eq!(parsed.keep_alive, keep_alive);
    }
}

// ---------------------------------------------------------------------------
// Strategy-driven properties (proptest).
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn arbitrary_bytes_never_panic_the_request_parser(bytes in proptest::collection::vec(any::<u8>(), 0..512)) {
        let _ = parse_one(&bytes);
        let _ = read_response(&mut Cursor::new(bytes.clone()), &HttpLimits::default());
    }

    #[test]
    fn arbitrary_strings_never_panic_the_json_parser(text in ".{0,256}") {
        let _ = json::parse(&text);
    }

    #[test]
    fn strings_round_trip_through_escaping(s in ".{0,64}") {
        let v = JsonValue::Str(s.clone());
        prop_assert_eq!(json::parse(&v.render()).unwrap(), v);
    }

    #[test]
    fn u64_ints_round_trip_exactly(n in any::<u64>()) {
        let v = JsonValue::Int(n);
        prop_assert_eq!(json::parse(&v.render()).unwrap(), v);
    }

    #[test]
    fn wire_request_round_trips(tenant in any::<usize>(),
                                question in proptest::option::of(".{0,48}"),
                                clicks in proptest::collection::vec(any::<usize>(), 0..8)) {
        let req = RecommendRequest { tenant, question, clicks };
        prop_assert_eq!(RecommendRequest::from_json(req.to_json().as_bytes()).unwrap(), req);
    }

    #[test]
    fn binary_and_json_request_codecs_are_semantically_identical(
        tenant in any::<usize>(),
        question in proptest::option::of(".{0,48}"),
        clicks in proptest::collection::vec(any::<usize>(), 0..8),
    ) {
        let req = RecommendRequest { tenant, question, clicks };
        let via_json = RecommendRequest::from_json(req.to_json().as_bytes()).unwrap();
        let via_binary = codec::decode_request_payload(&codec::encode_request_payload(&req)).unwrap();
        prop_assert_eq!(&via_json, &via_binary);
        prop_assert_eq!(&via_binary, &req);
    }

    #[test]
    fn binary_and_json_response_codecs_are_semantically_identical(
        rq in proptest::option::of(any::<usize>()),
        answer in proptest::option::of(".{0,48}"),
        recommended_tags in proptest::collection::vec(any::<usize>(), 0..8),
        predicted_questions in proptest::collection::vec(any::<usize>(), 0..8),
        latency_us in any::<u64>(),
    ) {
        let resp = RecommendResponse { rq, answer, recommended_tags, predicted_questions, latency_us };
        let via_json = RecommendResponse::from_json(resp.to_json().as_bytes()).unwrap();
        let via_binary = codec::decode_response_payload(&codec::encode_response_payload(&resp)).unwrap();
        prop_assert_eq!(&via_json, &via_binary);
        prop_assert_eq!(&via_binary, &resp);
    }

    #[test]
    fn arbitrary_bytes_never_panic_the_frame_decoder(bytes in proptest::collection::vec(any::<u8>(), 0..256)) {
        let _ = codec::decode_frame(&bytes, codec::MAX_PAYLOAD);
        let _ = codec::decode_request_payload(&bytes);
        let _ = codec::decode_response_payload(&bytes);
        let _ = codec::decode_error_payload(&bytes);
    }
}

// ---------------------------------------------------------------------------
// Live-server differential + adversarial coverage for the binary protocol.
// ---------------------------------------------------------------------------

/// A deterministic [`TagService`] whose answers are pure functions of the
/// request, so the JSON and binary paths against a *live* gateway must
/// produce identical decoded responses if (and only if) the two wire
/// stacks are semantically equivalent.
struct EchoService {
    registry: MetricsRegistry,
    latency: Arc<Histogram>,
}

impl EchoService {
    fn new(registry: MetricsRegistry) -> Self {
        EchoService { registry, latency: Arc::new(Histogram::new()) }
    }
}

fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl EchoService {
    fn answer(&self, request: Request) -> Reply {
        match request {
            Request::Question { tenant, text } => {
                let h = text.bytes().fold(mix(tenant as u64), |a, b| mix(a ^ b as u64));
                Reply::Question(QuestionResponse {
                    rq: if h % 3 == 0 { None } else { Some((h % 977) as usize) },
                    answer: if h % 4 == 0 {
                        None
                    } else {
                        Some(format!("echo:{tenant}:{}", text.chars().rev().collect::<String>()))
                    },
                    recommended_tags: (0..(h % 5) as usize)
                        .map(|i| ((h >> i) % 100) as usize)
                        .collect(),
                    latency_us: 7,
                })
            }
            Request::TagClick { tenant, clicks } => {
                let h = clicks.iter().fold(mix(tenant as u64 ^ 0xC11C), |a, &c| mix(a ^ c as u64));
                Reply::TagClick(TagClickResponse {
                    recommended_tags: clicks.iter().map(|&c| c.wrapping_add(tenant)).collect(),
                    predicted_questions: (0..(h % 4) as usize)
                        .map(|i| ((h >> (2 * i)) % 50) as usize)
                        .collect(),
                    latency_us: 9,
                })
            }
            Request::ColdStart { tenant } => {
                Reply::ColdStart((0..tenant % 7).map(|i| tenant.wrapping_add(i)).collect())
            }
        }
    }
}

impl TagService for EchoService {
    fn submit(
        &self,
        request: Request,
        _trace: Option<&TraceHandle>,
        _admission: Admission,
        queue: &CompletionQueue,
        token: u64,
    ) -> Result<(), ShedReason> {
        let _ = queue.send(Completion { token, reply: Some(self.answer(request)) });
        Ok(())
    }

    fn metrics(&self) -> &MetricsRegistry {
        &self.registry
    }

    fn latency_snapshot(&self) -> HistogramSnapshot {
        self.latency.snapshot()
    }

    fn policy(&self) -> String {
        "echo".into()
    }
}

fn spawn_echo(cfg: GatewayConfig) -> GatewayHandle {
    let registry = MetricsRegistry::new();
    let reg = registry.clone();
    Gateway::spawn("127.0.0.1:0", cfg, &registry, move |_| EchoService::new(reg.clone()))
        .expect("gateway binds")
}

/// The shared request generator both differential directions draw from.
fn random_wire_request(rng: &mut Rng) -> RecommendRequest {
    RecommendRequest {
        tenant: (rng.next() % 1_000_000) as usize,
        question: match rng.below(3) {
            0 => None,
            _ => Some(random_string(rng, 24)),
        },
        clicks: (0..rng.below(6)).map(|_| rng.next() as usize).collect(),
    }
}

/// Reads framed replies off a raw socket until `want` frames arrived, EOF,
/// or the deadline — used by the adversarial tests, which speak raw bytes.
fn read_reply_frames(stream: &mut TcpStream, want: usize, deadline_ms: u64) -> (Vec<Frame>, bool) {
    let deadline = Instant::now() + Duration::from_millis(deadline_ms);
    stream.set_read_timeout(Some(Duration::from_millis(20))).unwrap();
    let mut buf = Vec::new();
    let mut frames = Vec::new();
    let mut chunk = [0u8; 4096];
    let mut eof = false;
    while frames.len() < want && Instant::now() < deadline {
        match stream.read(&mut chunk) {
            Ok(0) => {
                eof = true;
                break;
            }
            Ok(n) => buf.extend_from_slice(&chunk[..n]),
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) => {}
            Err(_) => {
                eof = true;
                break;
            }
        }
        while let Decoded::Frame(frame, consumed) = codec::decode_frame(&buf, codec::MAX_PAYLOAD) {
            buf.drain(..consumed);
            frames.push(frame);
        }
    }
    (frames, eof)
}

/// ≥ 256 generated requests through BOTH wire stacks against one live
/// server: the decoded responses must be identical (latency aside), and
/// trace-id handling must match the HTTP rule (propagate, else mint).
#[test]
fn differential_json_and_binary_agree_on_a_live_server() {
    let handle = spawn_echo(GatewayConfig {
        workers: 2,
        read_timeout: Duration::from_millis(500),
        ..Default::default()
    });
    let mut json_client = GatewayClient::new(handle.addr());
    let mut bin_client =
        PipelinedClient::new(handle.addr(), 1, 8).with_timeout(Duration::from_secs(5));
    let mut rng = Rng(0xD1FF);
    for case in 0..300u32 {
        let req = random_wire_request(&mut rng);
        // Route choice mirrors the frame-type choice in the codec: clicks
        // without a question go to /v1/click, everything else /v1/recommend.
        let json_resp = if req.question.is_none() && !req.clicks.is_empty() {
            json_client.click(&req)
        } else {
            json_client.recommend(&req)
        }
        .unwrap_or_else(|e| panic!("case {case}: json path failed: {e:?}"));

        let trace_id = if case % 2 == 0 { 0 } else { 0x7AC3_0000 + case as u64 };
        let completion = bin_client
            .round_trip(&req, trace_id)
            .unwrap_or_else(|e| panic!("case {case}: binary path failed: {e}"));
        let bin_resp = match completion.payload {
            ReplyPayload::Response(r) => r,
            other => panic!("case {case}: binary path returned {other:?}"),
        };
        assert!(
            json_resp.same_content(&bin_resp),
            "case {case}: codecs disagree for {req:?}\n json: {json_resp:?}\n  bin: {bin_resp:?}"
        );
        // Propagate-never-mint: a supplied trace id is echoed verbatim; a
        // zero trace id comes back minted (non-zero).
        if trace_id != 0 {
            assert_eq!(completion.trace_id, trace_id, "case {case}: trace id not propagated");
        } else {
            assert_ne!(completion.trace_id, 0, "case {case}: server failed to mint a trace id");
        }
    }
    assert_eq!(bin_client.in_flight(), 0);
    handle.shutdown();
}

/// Truncating a valid frame at EVERY byte offset and closing must never
/// panic or wedge the server: each truncated connection ends in a clean
/// close (no reply owed), and the server still answers afterwards.
#[test]
fn truncated_frames_at_every_offset_close_cleanly() {
    let handle = spawn_echo(GatewayConfig {
        workers: 2,
        read_timeout: Duration::from_millis(200),
        ..Default::default()
    });
    let req =
        RecommendRequest { tenant: 3, question: Some("truncate me".into()), clicks: vec![1, 2] };
    let wire = codec::encode_request_frame(11, 0, &req);
    for cut in 0..wire.len() {
        let mut s = TcpStream::connect(handle.addr()).expect("connect");
        s.write_all(&wire[..cut]).expect("partial write");
        // Half-close our side; the server sees EOF mid-frame.
        let _ = s.shutdown(std::net::Shutdown::Write);
        let (frames, _) = read_reply_frames(&mut s, 1, 500);
        assert!(
            frames.is_empty(),
            "truncation at {cut} bytes produced an unexpected reply: {frames:?}"
        );
    }
    // Liveness: a full frame still round-trips.
    let mut bin = PipelinedClient::new(handle.addr(), 1, 1).with_timeout(Duration::from_secs(5));
    let c = bin.round_trip(&req, 0).expect("server still serves after truncation storm");
    assert!(c.payload.is_response());
    handle.shutdown();
}

/// The deterministic adversarial catalogue: wrong magic, wrong version,
/// unknown frame type, oversized length prefix, oversized varint, a
/// reply-type frame sent client→server, and garbage interleaved with valid
/// frames. Every case yields a typed error frame (with the right
/// correlation id) or a clean close — and at the end the
/// `gateway.wire_err{kind=..}` counters reconcile exactly.
#[test]
fn adversarial_frames_get_typed_errors_and_counters_reconcile() {
    let handle = spawn_echo(GatewayConfig {
        workers: 2,
        read_timeout: Duration::from_millis(300),
        ..Default::default()
    });
    let addr = handle.addr();
    let registry = handle.registry().clone();
    let wire_err =
        |kind: &str| registry.counter_labeled("gateway.wire_err", &[("kind", kind)]).get();
    let valid_req = RecommendRequest { tenant: 1, question: None, clicks: vec![4, 2] };
    let valid = codec::encode_request_frame(7, 0, &valid_req);

    // 1. Wrong second magic byte: fatal — one error frame (corr 0), close.
    {
        let mut s = TcpStream::connect(addr).unwrap();
        s.write_all(&[codec::MAGIC0, 0x00, 0x01, 0x01]).unwrap();
        let (frames, eof) = read_reply_frames(&mut s, 1, 1_000);
        assert_eq!(frames.len(), 1, "bad magic must be answered");
        assert_eq!(frames[0].frame_type, FrameType::Error);
        assert_eq!(frames[0].corr_id, 0, "stream-fatal errors carry correlation 0");
        let err = codec::decode_error_payload(&frames[0].payload).unwrap();
        assert_eq!(err.code, ErrorCode::BadMagic);
        let (more, eof2) = read_reply_frames(&mut s, 1, 500);
        assert!(more.is_empty() && (eof || eof2), "connection must close after fatal");
    }

    // 2. Unknown version: typed error echoing the corr id, connection
    // keeps serving — the valid frame sent afterwards is answered.
    {
        let mut bad = valid.clone();
        bad[2] = 0x7E;
        bad[4..12].copy_from_slice(&99u64.to_le_bytes());
        let mut s = TcpStream::connect(addr).unwrap();
        s.write_all(&bad).unwrap();
        s.write_all(&valid).unwrap();
        let (frames, _) = read_reply_frames(&mut s, 2, 2_000);
        assert_eq!(frames.len(), 2, "expected error + response, got {frames:?}");
        assert_eq!(frames[0].frame_type, FrameType::Error);
        assert_eq!(frames[0].corr_id, 99);
        assert_eq!(
            codec::decode_error_payload(&frames[0].payload).unwrap().code,
            ErrorCode::BadVersion
        );
        assert_eq!(frames[1].frame_type, FrameType::Response);
        assert_eq!(frames[1].corr_id, 7);
    }

    // 3. Unknown frame type: same recoverable posture.
    {
        let mut bad = valid.clone();
        bad[3] = 0x5A;
        bad[4..12].copy_from_slice(&44u64.to_le_bytes());
        let mut s = TcpStream::connect(addr).unwrap();
        s.write_all(&bad).unwrap();
        s.write_all(&valid).unwrap();
        let (frames, _) = read_reply_frames(&mut s, 2, 2_000);
        assert_eq!(frames.len(), 2);
        assert_eq!(frames[0].corr_id, 44);
        assert_eq!(
            codec::decode_error_payload(&frames[0].payload).unwrap().code,
            ErrorCode::BadFrameType
        );
        assert_eq!(frames[1].corr_id, 7);
    }

    // 4. Mutated length prefix far beyond the cap: fatal.
    {
        let mut bad = valid.clone();
        bad[20..24].copy_from_slice(&u32::MAX.to_le_bytes());
        let mut s = TcpStream::connect(addr).unwrap();
        s.write_all(&bad).unwrap();
        let (frames, _) = read_reply_frames(&mut s, 1, 1_000);
        assert_eq!(frames.len(), 1);
        assert_eq!(frames[0].corr_id, 0);
        assert_eq!(
            codec::decode_error_payload(&frames[0].payload).unwrap().code,
            ErrorCode::Oversized
        );
    }

    // 5. Oversized varint in the payload (11 continuation bytes as the
    // tenant): BadPayload error with the frame's corr id; conn survives.
    {
        let mut payload = vec![0x00u8]; // flags: no question
        payload.extend_from_slice(&[0x80u8; 11]); // varint that never ends
        let bad = codec::encode_frame(FrameType::Recommend, 55, 0, &payload);
        let mut s = TcpStream::connect(addr).unwrap();
        s.write_all(&bad).unwrap();
        s.write_all(&valid).unwrap();
        let (frames, _) = read_reply_frames(&mut s, 2, 2_000);
        assert_eq!(frames.len(), 2, "expected error + response, got {frames:?}");
        assert_eq!(frames[0].corr_id, 55);
        assert_eq!(
            codec::decode_error_payload(&frames[0].payload).unwrap().code,
            ErrorCode::BadPayload
        );
        assert_eq!(frames[1].corr_id, 7);
    }

    // 6. A reply-type frame sent client→server: refused, typed, non-fatal.
    {
        let resp = RecommendResponse {
            rq: None,
            answer: None,
            recommended_tags: vec![],
            predicted_questions: vec![],
            latency_us: 1,
        };
        let bad = codec::encode_response_frame(66, 0, &resp);
        let mut s = TcpStream::connect(addr).unwrap();
        s.write_all(&bad).unwrap();
        s.write_all(&valid).unwrap();
        let (frames, _) = read_reply_frames(&mut s, 2, 2_000);
        assert_eq!(frames.len(), 2);
        assert_eq!(frames[0].corr_id, 66);
        assert_eq!(
            codec::decode_error_payload(&frames[0].payload).unwrap().code,
            ErrorCode::BadFrameType
        );
        assert_eq!(frames[1].corr_id, 7);
    }

    // 7. Valid frame followed by garbage: the valid one is answered before
    // the stream dies on the garbage.
    {
        let mut s = TcpStream::connect(addr).unwrap();
        let mut bytes = valid.clone();
        bytes.extend_from_slice(&[0xB1, 0xFF, 0xDE, 0xAD]);
        s.write_all(&bytes).unwrap();
        let (frames, _) = read_reply_frames(&mut s, 2, 2_000);
        assert_eq!(frames.len(), 2, "response then fatal error, got {frames:?}");
        assert_eq!(frames[0].frame_type, FrameType::Response);
        assert_eq!(frames[0].corr_id, 7);
        assert_eq!(frames[1].frame_type, FrameType::Error);
        assert_eq!(frames[1].corr_id, 0);
    }

    // Reconcile: every refusal above — and nothing else — is counted.
    assert_eq!(wire_err("bad_magic"), 2, "cases 1 and 7");
    assert_eq!(wire_err("bad_version"), 1, "case 2");
    assert_eq!(wire_err("bad_frame_type"), 1, "case 3");
    assert_eq!(wire_err("oversized"), 1, "case 4");
    assert_eq!(wire_err("malformed"), 1, "case 5");
    assert_eq!(wire_err("unexpected_type"), 1, "case 6");

    // Liveness after the whole catalogue.
    let mut bin = PipelinedClient::new(addr, 1, 1).with_timeout(Duration::from_secs(5));
    assert!(bin.round_trip(&valid_req, 0).unwrap().payload.is_response());
    handle.shutdown();
}

/// Randomized mutation storm: flip/truncate/insert bytes across valid
/// frame images and hurl them at the live server. Any outcome is legal
/// except a panic or a hang — and the server must still answer afterwards.
#[test]
fn mutated_frame_storm_never_panics_the_server() {
    let handle = spawn_echo(GatewayConfig {
        workers: 2,
        read_timeout: Duration::from_millis(100),
        ..Default::default()
    });
    let mut rng = Rng(0xF8A43);
    for _ in 0..60 {
        let req = random_wire_request(&mut rng);
        let mut wire = codec::encode_request_frame(rng.next(), rng.next(), &req);
        for _ in 0..1 + rng.below(4) {
            if wire.is_empty() {
                break;
            }
            let at = rng.below(wire.len());
            match rng.below(3) {
                0 => wire[at] = rng.next() as u8,
                1 => wire.truncate(at),
                _ => wire.insert(at, rng.next() as u8),
            }
        }
        let mut s = TcpStream::connect(handle.addr()).expect("connect");
        let _ = s.write_all(&wire);
        let _ = s.shutdown(std::net::Shutdown::Write);
        // Absorb whatever comes back (error frames, a response, or EOF);
        // the deadline bounds the test, the server must not hang us.
        let _ = read_reply_frames(&mut s, 4, 300);
    }
    let mut bin = PipelinedClient::new(handle.addr(), 1, 1).with_timeout(Duration::from_secs(5));
    let probe = RecommendRequest { tenant: 2, question: None, clicks: vec![8] };
    assert!(bin.round_trip(&probe, 0).unwrap().payload.is_response());
    handle.shutdown();
}
