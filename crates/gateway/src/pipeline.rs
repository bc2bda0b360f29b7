//! The connection-pooled, pipelined binary client.
//!
//! [`GatewayClient`](crate::GatewayClient) blocks one request per
//! connection, so a single client process tops out far below what the
//! sharded front can drain. [`PipelinedClient`] speaks the
//! [`codec`](crate::codec) frame protocol instead: it keeps up to
//! `max_inflight` correlated request frames in flight **per socket**
//! across a small pool of connections, and surfaces replies as they
//! complete — in whatever order the server finishes them.
//!
//! Every submission gets a client-chosen correlation id (the server
//! echoes it verbatim, never mints its own), a monotonically increasing
//! `submit_seq`, and — once its reply lands — a `complete_seq`. Comparing
//! the two sequences is how the stress tests prove out-of-order
//! completion actually happened.
//!
//! Degraded-server conditions all surface as typed completions or errors,
//! never hangs: an accept-level shed (the gateway writes an HTTP `503`
//! before sniffing) is detected by its ASCII preamble and maps every
//! frame on that socket to a [`codec::ErrorCode::Shed`] completion; a
//! mid-pipeline server drain delivers `ShuttingDown` error frames or a
//! clean EOF, which maps the remainder the same way; and every wait is
//! bounded by the client timeout.

use std::collections::VecDeque;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

use crate::codec::{self, Decoded, ErrorCode, ErrorFrame, FrameType};
use crate::json::{RecommendRequest, RecommendResponse};

/// What a completed frame carried back.
#[derive(Debug, Clone, PartialEq)]
pub enum ReplyPayload {
    /// The request was served.
    Response(RecommendResponse),
    /// The server refused or failed the request (shed, drain, malformed…).
    Error(ErrorFrame),
}

impl ReplyPayload {
    /// True when the reply is a served response.
    pub fn is_response(&self) -> bool {
        matches!(self, ReplyPayload::Response(_))
    }

    /// True when the reply is a shed/drain refusal rather than an answer.
    pub fn is_shed(&self) -> bool {
        matches!(
            self,
            ReplyPayload::Error(ErrorFrame { code: ErrorCode::Shed | ErrorCode::ShuttingDown, .. })
        )
    }
}

/// One finished request: identity, ordering evidence, and the payload.
#[derive(Debug, Clone)]
pub struct Completion {
    /// The correlation id chosen at submit time.
    pub corr_id: u64,
    /// Trace id echoed by the server (minted server-side if we sent 0).
    pub trace_id: u64,
    /// Order this request was submitted in (0, 1, 2…).
    pub submit_seq: u64,
    /// Order the reply was observed in (0, 1, 2…).
    pub complete_seq: u64,
    /// The reply itself.
    pub payload: ReplyPayload,
}

/// Why the client gave up.
#[derive(Debug)]
pub enum PipelineError {
    /// Socket-level failure (connect, read, write).
    Io(io::Error),
    /// The server broke the frame protocol.
    Protocol(String),
    /// No reply arrived within the client timeout.
    Timeout,
}

impl std::fmt::Display for PipelineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PipelineError::Io(e) => write!(f, "io error: {e}"),
            PipelineError::Protocol(msg) => write!(f, "protocol error: {msg}"),
            PipelineError::Timeout => write!(f, "timed out waiting for a reply"),
        }
    }
}

/// One pooled socket plus its in-flight bookkeeping.
struct Conn {
    stream: TcpStream,
    /// Unparsed reply bytes.
    buf: Vec<u8>,
    /// Request frames corked since the last flush: submits accumulate
    /// here and hit the socket in one write, either when the cork fills
    /// ([`CORK_BYTES`]) or right before the client waits for replies.
    out: Vec<u8>,
    /// `(corr_id, submit_seq)` of frames accepted but not yet answered.
    inflight: Vec<(u64, u64)>,
    /// The socket read timeout last set, so the round-robin (which always
    /// wants [`POLL_TIMEOUT`]) does not pay a `setsockopt` per visit.
    read_timeout: Option<Duration>,
}

/// A connection-pooled binary client keeping `max_inflight` correlated
/// requests in flight per socket. See the module docs.
pub struct PipelinedClient {
    addr: SocketAddr,
    conns: Vec<Option<Conn>>,
    next_conn: usize,
    max_inflight: usize,
    timeout: Duration,
    next_corr: u64,
    next_submit: u64,
    next_complete: u64,
    done: VecDeque<Completion>,
}

/// Reply-poll granularity while **several** connections owe replies: a
/// read on one with nothing buffered must not sit on replies waiting on
/// another. (The kernel rounds a socket timeout up to its timer tick, so
/// each visit costs a tick, not 200 µs — which is why a lone connection is
/// read with the whole remaining deadline instead.)
const POLL_TIMEOUT: Duration = Duration::from_micros(200);

/// Cork size: a burst of small request frames goes out in one write
/// instead of one syscall each. Flushed unconditionally before any wait.
const CORK_BYTES: usize = 8 * 1024;

impl PipelinedClient {
    /// A client over `pool` lazily-opened connections, each allowed
    /// `max_inflight` outstanding frames.
    pub fn new(addr: SocketAddr, pool: usize, max_inflight: usize) -> Self {
        assert!(pool > 0, "pool must hold at least one connection");
        assert!(max_inflight > 0, "max_inflight must be at least 1");
        PipelinedClient {
            addr,
            conns: (0..pool).map(|_| None).collect(),
            next_conn: 0,
            max_inflight,
            timeout: Duration::from_secs(10),
            next_corr: 1,
            next_submit: 0,
            next_complete: 0,
            done: VecDeque::new(),
        }
    }

    /// Overrides the per-wait deadline (default 10 s).
    pub fn with_timeout(mut self, timeout: Duration) -> Self {
        self.timeout = timeout;
        self
    }

    /// Requests submitted so far.
    pub fn submitted(&self) -> u64 {
        self.next_submit
    }

    /// Frames currently awaiting replies across the pool.
    pub fn in_flight(&self) -> usize {
        self.conns.iter().flatten().map(|c| c.inflight.len()).sum()
    }

    /// Submits one request without waiting for its reply; returns the
    /// frame's correlation id. `trace_id` of 0 lets the server mint one.
    ///
    /// When every pooled connection is at `max_inflight`, blocks until a
    /// completion frees a slot (the completion is queued for
    /// [`Self::next_completion`]).
    pub fn submit(&mut self, req: &RecommendRequest, trace_id: u64) -> Result<u64, PipelineError> {
        loop {
            if let Some(slot) = self.pick_conn()? {
                let corr_id = self.next_corr;
                self.next_corr += 1;
                let submit_seq = self.next_submit;
                let frame = codec::encode_request_frame(corr_id, trace_id, req);
                let write_res = {
                    let conn = self.conns[slot].as_mut().expect("picked conn exists");
                    // Cork: the frame joins the conn's pending burst; the
                    // socket only sees a write when the cork fills here or
                    // when the client next waits for replies.
                    conn.out.extend_from_slice(&frame);
                    if conn.out.len() >= CORK_BYTES {
                        let r = conn.stream.write_all(&conn.out).and_then(|_| conn.stream.flush());
                        if r.is_ok() {
                            conn.out.clear();
                        }
                        r
                    } else {
                        Ok(())
                    }
                };
                if let Err(e) = write_res {
                    // The socket died under us; fail its in-flight frames
                    // (queued as completions) and retry on a fresh one.
                    if let Some(c) =
                        self.fail_conn(slot, ErrorCode::ShuttingDown, &format!("write failed: {e}"))
                    {
                        self.done.push_back(c);
                    }
                    continue;
                }
                let conn = self.conns[slot].as_mut().expect("picked conn exists");
                conn.inflight.push((corr_id, submit_seq));
                self.next_submit += 1;
                return Ok(corr_id);
            }
            // Pool saturated: progress requires absorbing a reply.
            let c = self.wait_any_completion()?;
            self.done.push_back(c);
        }
    }

    /// The next finished request, in completion order. Returns queued
    /// completions first, then waits (bounded by the client timeout).
    pub fn next_completion(&mut self) -> Result<Completion, PipelineError> {
        if let Some(c) = self.done.pop_front() {
            return Ok(c);
        }
        self.wait_any_completion()
    }

    /// Collects completions until nothing is left in flight.
    pub fn drain(&mut self) -> Result<Vec<Completion>, PipelineError> {
        let mut out = Vec::new();
        while self.in_flight() > 0 || !self.done.is_empty() {
            out.push(self.next_completion()?);
        }
        Ok(out)
    }

    /// Submits `req` and blocks for **its** reply; replies to other
    /// outstanding frames are queued, not lost.
    pub fn round_trip(
        &mut self,
        req: &RecommendRequest,
        trace_id: u64,
    ) -> Result<Completion, PipelineError> {
        let corr_id = self.submit(req, trace_id)?;
        if let Some(at) = self.done.iter().position(|c| c.corr_id == corr_id) {
            return Ok(self.done.remove(at).expect("position just found"));
        }
        let deadline = Instant::now() + self.timeout;
        loop {
            let c = self.wait_any_completion()?;
            if c.corr_id == corr_id {
                return Ok(c);
            }
            self.done.push_back(c);
            if Instant::now() >= deadline {
                return Err(PipelineError::Timeout);
            }
        }
    }

    /// Index of a connection with spare in-flight budget, opening one if a
    /// slot in the pool is vacant. `None` when the whole pool is saturated.
    fn pick_conn(&mut self) -> Result<Option<usize>, PipelineError> {
        let pool = self.conns.len();
        for step in 0..pool {
            let slot = (self.next_conn + step) % pool;
            if self.conns[slot].is_none() {
                let stream = TcpStream::connect(self.addr).map_err(PipelineError::Io)?;
                stream.set_nodelay(true).ok();
                stream.set_write_timeout(Some(self.timeout)).map_err(PipelineError::Io)?;
                self.conns[slot] = Some(Conn {
                    stream,
                    buf: Vec::with_capacity(4 * 1024),
                    out: Vec::with_capacity(CORK_BYTES),
                    inflight: Vec::new(),
                    read_timeout: None,
                });
            }
            let conn = self.conns[slot].as_ref().expect("just ensured");
            if conn.inflight.len() < self.max_inflight {
                self.next_conn = (slot + 1) % pool;
                return Ok(Some(slot));
            }
        }
        Ok(None)
    }

    /// Blocks until any connection yields a completion (or the timeout
    /// expires). With one connection owing replies it blocks in `read` on
    /// that socket until the deadline; with several it round-robins short
    /// reads across them.
    fn wait_any_completion(&mut self) -> Result<Completion, PipelineError> {
        if self.in_flight() == 0 {
            return Err(PipelineError::Protocol("nothing in flight to wait for".into()));
        }
        // Uncork first: a reply can only arrive for a frame the server has
        // actually seen.
        self.flush_corks();
        if let Some(c) = self.done.pop_front() {
            return Ok(c);
        }
        let deadline = Instant::now() + self.timeout;
        let mut chunk = [0u8; 16 * 1024];
        loop {
            let owing = self.conns.iter().flatten().filter(|c| !c.inflight.is_empty()).count();
            for slot in 0..self.conns.len() {
                // Parse anything already buffered before touching the socket.
                if let Some(c) = self.parse_conn(slot)? {
                    return Ok(c);
                }
                let Some(conn) = self.conns[slot].as_mut() else { continue };
                if conn.inflight.is_empty() {
                    continue;
                }
                let wait = if owing == 1 {
                    deadline.saturating_duration_since(Instant::now()).max(POLL_TIMEOUT)
                } else {
                    POLL_TIMEOUT
                };
                if conn.read_timeout != Some(wait) {
                    conn.stream.set_read_timeout(Some(wait)).map_err(PipelineError::Io)?;
                    conn.read_timeout = Some(wait);
                }
                match conn.stream.read(&mut chunk) {
                    Ok(0) => {
                        // Clean EOF with frames outstanding: the server
                        // drained mid-pipeline. Surface each as a typed
                        // ShuttingDown completion.
                        if let Some(c) = self.fail_conn(
                            slot,
                            ErrorCode::ShuttingDown,
                            "connection closed with frames in flight",
                        ) {
                            return Ok(c);
                        }
                    }
                    Ok(n) => {
                        conn.buf.extend_from_slice(&chunk[..n]);
                        if let Some(c) = self.parse_conn(slot)? {
                            return Ok(c);
                        }
                    }
                    Err(e)
                        if matches!(
                            e.kind(),
                            io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                        ) => {}
                    Err(e) => {
                        if let Some(c) = self.fail_conn(
                            slot,
                            ErrorCode::ShuttingDown,
                            &format!("read failed: {e}"),
                        ) {
                            return Ok(c);
                        }
                    }
                }
            }
            if let Some(c) = self.done.pop_front() {
                return Ok(c);
            }
            if Instant::now() >= deadline {
                return Err(PipelineError::Timeout);
            }
        }
    }

    /// Decodes buffered reply frames on `slot`. Returns the first
    /// completion produced (extras are queued on `self.done`).
    fn parse_conn(&mut self, slot: usize) -> Result<Option<Completion>, PipelineError> {
        let mut first: Option<Completion> = None;
        loop {
            let Some(conn) = self.conns[slot].as_mut() else { return Ok(first) };
            if conn.buf.is_empty() {
                return Ok(first);
            }
            // An accept-level shed beats the sniffer: the gateway wrote an
            // ASCII HTTP 503 on what we treat as a binary socket. Map every
            // frame on this connection to a Shed completion.
            if conn.buf[0] != codec::MAGIC0 {
                let preamble =
                    String::from_utf8_lossy(&conn.buf[..conn.buf.len().min(32)]).into_owned();
                if preamble.starts_with("HTTP/") {
                    let c = self.fail_conn(slot, ErrorCode::Shed, "gateway saturated (HTTP 503)");
                    return Ok(first.or(c));
                }
                return Err(PipelineError::Protocol(format!(
                    "reply stream is not framed (starts with {preamble:?})"
                )));
            }
            match codec::decode_frame(&conn.buf, codec::MAX_PAYLOAD) {
                Decoded::NeedMore => return Ok(first),
                Decoded::Fatal(e) => {
                    return Err(PipelineError::Protocol(format!("server sent {e}")));
                }
                Decoded::Rejected { error, .. } => {
                    return Err(PipelineError::Protocol(format!("server sent {error}")));
                }
                Decoded::Frame(frame, consumed) => {
                    conn.buf.drain(..consumed);
                    let payload = match frame.frame_type {
                        FrameType::Response => {
                            match codec::decode_response_payload(&frame.payload) {
                                Ok(resp) => ReplyPayload::Response(resp),
                                Err(e) => {
                                    return Err(PipelineError::Protocol(format!(
                                        "bad response payload: {e}"
                                    )))
                                }
                            }
                        }
                        FrameType::Error => match codec::decode_error_payload(&frame.payload) {
                            Ok(err) => {
                                if frame.corr_id == 0 {
                                    // Correlation 0 = the server condemned
                                    // the whole stream, not one request.
                                    let c = self.fail_conn(
                                        slot,
                                        err.code,
                                        &format!("stream error: {}", err.message),
                                    );
                                    return Ok(first.or(c));
                                }
                                ReplyPayload::Error(err)
                            }
                            Err(e) => {
                                return Err(PipelineError::Protocol(format!(
                                    "bad error payload: {e}"
                                )))
                            }
                        },
                        FrameType::Recommend | FrameType::Click => {
                            return Err(PipelineError::Protocol(
                                "server sent a request frame".into(),
                            ));
                        }
                    };
                    let conn = self.conns[slot].as_mut().expect("conn still present");
                    let at = conn
                        .inflight
                        .iter()
                        .position(|&(corr, _)| corr == frame.corr_id)
                        .ok_or_else(|| {
                            PipelineError::Protocol(format!(
                                "reply for unknown correlation id {}",
                                frame.corr_id
                            ))
                        })?;
                    let (corr_id, submit_seq) = conn.inflight.remove(at);
                    let completion = Completion {
                        corr_id,
                        trace_id: frame.trace_id,
                        submit_seq,
                        complete_seq: self.next_complete,
                        payload,
                    };
                    self.next_complete += 1;
                    if first.is_none() {
                        first = Some(completion);
                    } else {
                        self.done.push_back(completion);
                    }
                }
            }
        }
    }

    /// Writes every conn's corked request frames in one syscall each. A
    /// conn whose write fails is torn down; its in-flight frames queue on
    /// `done` as error completions.
    fn flush_corks(&mut self) {
        for slot in 0..self.conns.len() {
            let res = match self.conns[slot].as_mut() {
                Some(conn) if !conn.out.is_empty() => {
                    let r = conn.stream.write_all(&conn.out).and_then(|_| conn.stream.flush());
                    if r.is_ok() {
                        conn.out.clear();
                    }
                    r
                }
                _ => continue,
            };
            if let Err(e) = res {
                if let Some(c) =
                    self.fail_conn(slot, ErrorCode::ShuttingDown, &format!("write failed: {e}"))
                {
                    self.done.push_back(c);
                }
            }
        }
    }

    /// Tears down connection `slot`, converting each of its in-flight
    /// frames into an error completion with `code`. Returns the first such
    /// completion (extras queue on `self.done`); `None` if none were in
    /// flight.
    fn fail_conn(&mut self, slot: usize, code: ErrorCode, message: &str) -> Option<Completion> {
        let conn = self.conns[slot].take()?;
        let mut first = None;
        for (corr_id, submit_seq) in conn.inflight {
            let completion = Completion {
                corr_id,
                trace_id: 0,
                submit_seq,
                complete_seq: self.next_complete,
                payload: ReplyPayload::Error(ErrorFrame { code, message: message.to_string() }),
            };
            self.next_complete += 1;
            if first.is_none() {
                first = Some(completion);
            } else {
                self.done.push_back(completion);
            }
        }
        first
    }
}
