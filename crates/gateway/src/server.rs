//! The gateway itself: a thread-pool HTTP/1.1 front over any [`TagService`].
//!
//! Architecture (mirrors the replica-per-worker idiom of
//! `ShardedServer`): an accept thread runs a non-blocking poll loop and
//! feeds accepted sockets into a bounded queue; `workers` threads each
//! build their **own** service instance via the caller's factory (so
//! non-`Send` fronts like `ModelServer` work) and serve keep-alive
//! connections off the queue. When the queue is full the accept thread
//! sheds the connection with an immediate `503` instead of letting it
//! queue unboundedly — the same explicit-shed discipline the sharded
//! front uses.
//!
//! The same port also speaks the binary frame protocol of
//! [`crate::codec`]: the worker sniffs the first byte of each accepted
//! connection (the frame magic `0xB1` collides with no HTTP method), and
//! a binary connection is served by two halves that never poll: the worker
//! blocks in `read`, dispatching request frames through
//! [`TagService::submit`] with the connection's completion queue, and the
//! writer half (a scoped `gw-writer-N` thread started with the connection)
//! blocks on that queue, writing replies
//! **out of order** the moment the sharded front finishes them, matched to
//! their requests by the client-chosen correlation id.
//!
//! Everything the gateway observes lands in the shared
//! [`MetricsRegistry`]: `gateway.requests{route=..,status=..}` counters,
//! `gateway.request_us{route=..}` handling-latency histograms,
//! `gateway.connections` / `gateway.pending_connections` gauges, the
//! `gateway.shed` counter and the `gateway.wire_err{kind=..}` frame-error
//! counters, so one `/metrics` scrape shows the wire, routing and model
//! stages side by side.

use std::io::{self, BufRead, BufReader, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{self, Receiver, SyncSender, TrySendError};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use intellitag_core::{
    Admission, Completion, CompletionQueue, Reply, Request, ShedReason, TagService,
};
use intellitag_obs::{
    parse_trace_id, MetricsRegistry, SpanTimer, TraceCollector, TraceConfig, TraceHandle,
    TraceIdGen,
};

use crate::codec::{self, Decoded, ErrorCode, FrameType};
use crate::http::{self, read_request, HttpLimits, Response};
use crate::json::{RecommendRequest, RecommendResponse};

/// Tuning knobs for [`Gateway::spawn`].
#[derive(Debug, Clone)]
pub struct GatewayConfig {
    /// Worker threads; each builds its own service replica.
    pub workers: usize,
    /// Accepted-but-unserved connections the gateway will queue before
    /// shedding with `503`.
    pub pending_connections: usize,
    /// Per-connection socket read deadline (also bounds how long a worker
    /// lingers on an idle keep-alive connection during shutdown).
    pub read_timeout: Duration,
    /// Per-connection socket write deadline.
    pub write_timeout: Duration,
    /// HTTP parser size limits (`max_body_bytes` also caps binary frame
    /// payloads).
    pub limits: HttpLimits,
    /// Most request frames a single binary connection may have in flight
    /// before the serve loop stops reading and applies backpressure.
    pub binary_inflight: usize,
}

impl Default for GatewayConfig {
    fn default() -> Self {
        GatewayConfig {
            workers: 2,
            pending_connections: 64,
            read_timeout: Duration::from_millis(2_000),
            write_timeout: Duration::from_millis(2_000),
            limits: HttpLimits::default(),
            binary_inflight: 128,
        }
    }
}

/// Observer of served model-route requests — the feed into the
/// continuous-training loop (the `intellitag-online` crate's WAL sink
/// implements this). The gateway calls it once per *accepted* request —
/// HTTP requests that parsed, binary frames the front accepted — never for
/// rejected, shed or cold-start traffic, so the event stream matches what
/// the models actually served.
///
/// Implementations must be cheap and non-blocking: they run on the serving
/// threads — after request handling and before the response write on the
/// HTTP path, on the connection's reader right after the front accepts the
/// frame on the binary path (its reply may already be on its way out).
pub trait EventSink: Send + Sync {
    /// A served tag-click trail.
    fn tag_click(&self, tenant: usize, clicks: &[usize]);
    /// A served free-text question.
    fn question(&self, tenant: usize, text: &str);
}

/// The sink as it travels through the serving loops.
type SharedSink = Option<Arc<dyn EventSink>>;

/// The core request a decoded wire request asks for — shared by both
/// codecs. The click route serves `clicks`; the recommend route serves the
/// `question` when there is one and the tenant's cold-start tags otherwise.
/// The payload moves; nothing is copied.
fn to_request(click: bool, req: RecommendRequest) -> Request {
    let tenant = req.tenant;
    match (click, req.question) {
        (true, _) => Request::TagClick { tenant, clicks: req.clicks },
        (false, Some(text)) => Request::Question { tenant, text },
        (false, None) => Request::ColdStart { tenant },
    }
}

/// Logs a request the front accepted to its sink, if any. Cold starts
/// carry no signal (no clicks, no question) and are not logged.
fn log_event(event: Option<(&Arc<dyn EventSink>, Request)>) {
    match event {
        Some((sink, Request::TagClick { tenant, clicks })) => sink.tag_click(tenant, &clicks),
        Some((sink, Request::Question { tenant, text })) => sink.question(tenant, &text),
        _ => {}
    }
}

/// The wire body for a front's reply — shared by both codecs. A cold start
/// carries no latency of its own; it reports the gateway's `elapsed_us`.
fn wire_response(reply: Reply, elapsed_us: u64) -> RecommendResponse {
    match reply {
        Reply::Question(r) => RecommendResponse::from_question(&r),
        Reply::TagClick(r) => RecommendResponse::from_click(&r),
        Reply::ColdStart(tags) => RecommendResponse::from_cold_start(tags, elapsed_us),
    }
}

/// Gateway-side metric handles, all living in the shared registry.
struct GatewayMetrics {
    registry: MetricsRegistry,
    conns_active: Arc<intellitag_obs::Gauge>,
    conns_total: Arc<intellitag_obs::Counter>,
    pending: Arc<intellitag_obs::Gauge>,
    shed: Arc<intellitag_obs::Counter>,
    /// Tail-based retention of finished request traces, served at
    /// `GET /debug/traces` as JSON lines.
    traces: TraceCollector,
    /// Trace ids minted for requests arriving without an `X-Trace-Id`.
    trace_ids: TraceIdGen,
}

impl GatewayMetrics {
    fn bind(registry: &MetricsRegistry) -> Self {
        GatewayMetrics {
            registry: registry.clone(),
            conns_active: registry.gauge("gateway.connections"),
            conns_total: registry.counter("gateway.connections_total"),
            pending: registry.gauge("gateway.pending_connections"),
            shed: registry.counter("gateway.shed"),
            traces: TraceCollector::new(registry, TraceConfig::default()),
            trace_ids: TraceIdGen::new(0x17e1_117a_6000_0001),
        }
    }

    fn request(&self, route: &str, status: u16, latency_us: u64) {
        self.registry
            .counter_labeled(
                "gateway.requests",
                &[("route", route), ("status", &status.to_string())],
            )
            .inc();
        self.registry
            .histogram_labeled("gateway.request_us", &[("route", route)])
            .record(latency_us);
    }

    /// Counts one refused/damaged binary frame under its error kind.
    fn wire_err(&self, kind: &str) {
        self.registry.counter_labeled("gateway.wire_err", &[("kind", kind)]).inc();
    }
}

/// The std-only HTTP front. Construct with [`Gateway::spawn`].
pub struct Gateway;

/// Handle to a running gateway: the bound address, the shared registry,
/// and a graceful [`GatewayHandle::shutdown`].
pub struct GatewayHandle {
    addr: SocketAddr,
    registry: MetricsRegistry,
    shutdown: Arc<AtomicBool>,
    accept_thread: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

impl Gateway {
    /// Binds `addr` (use port 0 for an ephemeral port) and spawns the
    /// accept loop plus `cfg.workers` serving threads. `factory(i)` runs
    /// **inside** worker `i`'s thread, so services that are not `Send`
    /// (e.g. `ModelServer`, whose matcher holds `Rc`-based parameters)
    /// can still be served; to share one concurrent service across all
    /// workers, return clones of an `Arc<ShardedServer<_>>` instead.
    ///
    /// Returns once every worker has built its replica, surfacing factory
    /// panics as an error instead of a half-alive gateway.
    pub fn spawn<S, F>(
        addr: &str,
        cfg: GatewayConfig,
        registry: &MetricsRegistry,
        factory: F,
    ) -> io::Result<GatewayHandle>
    where
        S: TagService + 'static,
        F: Fn(usize) -> S + Send + Sync + 'static,
    {
        Self::spawn_with_sink(addr, cfg, registry, factory, None)
    }

    /// [`Gateway::spawn`] plus an [`EventSink`] that observes every served
    /// model-route request — the hook the continuous-training WAL hangs
    /// off. The sink is shared across all workers and both protocols.
    pub fn spawn_with_sink<S, F>(
        addr: &str,
        cfg: GatewayConfig,
        registry: &MetricsRegistry,
        factory: F,
        sink: SharedSink,
    ) -> io::Result<GatewayHandle>
    where
        S: TagService + 'static,
        F: Fn(usize) -> S + Send + Sync + 'static,
    {
        assert!(cfg.workers > 0, "gateway needs at least one worker");
        assert!(cfg.pending_connections > 0, "pending_connections must be positive");
        let listener = TcpListener::bind(addr)?;
        let local_addr = listener.local_addr()?;
        listener.set_nonblocking(true)?;

        let metrics = Arc::new(GatewayMetrics::bind(registry));
        let shutdown = Arc::new(AtomicBool::new(false));
        let (conn_tx, conn_rx) = mpsc::sync_channel::<TcpStream>(cfg.pending_connections);
        let conn_rx = Arc::new(Mutex::new(conn_rx));
        let factory = Arc::new(factory);
        let (ready_tx, ready_rx) = mpsc::channel::<usize>();

        let mut workers = Vec::with_capacity(cfg.workers);
        for worker_id in 0..cfg.workers {
            let factory = Arc::clone(&factory);
            let conn_rx = Arc::clone(&conn_rx);
            let metrics = Arc::clone(&metrics);
            let shutdown = Arc::clone(&shutdown);
            let ready_tx = ready_tx.clone();
            let cfg = cfg.clone();
            let sink = sink.clone();
            workers.push(thread::Builder::new().name(format!("gw-worker-{worker_id}")).spawn(
                move || {
                    let service = factory(worker_id);
                    let _ = ready_tx.send(worker_id);
                    drop(ready_tx);
                    worker_loop(service, conn_rx, metrics, shutdown, cfg, sink);
                },
            )?);
        }
        drop(ready_tx);
        for _ in 0..cfg.workers {
            if ready_rx.recv().is_err() {
                // A factory panicked before signalling ready; stop the
                // accept path so the surviving workers exit, then fail.
                shutdown.store(true, Ordering::SeqCst);
                drop(conn_tx);
                return Err(io::Error::other(
                    "gateway worker failed to initialise its service replica",
                ));
            }
        }

        let accept_thread = {
            let metrics = Arc::clone(&metrics);
            let shutdown = Arc::clone(&shutdown);
            let cfg = cfg.clone();
            thread::Builder::new()
                .name("gw-accept".to_string())
                .spawn(move || accept_loop(listener, conn_tx, metrics, shutdown, cfg))?
        };

        Ok(GatewayHandle {
            addr: local_addr,
            registry: registry.clone(),
            shutdown,
            accept_thread: Some(accept_thread),
            workers,
        })
    }
}

impl GatewayHandle {
    /// The address the gateway is listening on.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The shared metrics registry (also served at `GET /metrics`).
    pub fn registry(&self) -> &MetricsRegistry {
        &self.registry
    }

    /// Graceful shutdown: stop accepting, drain queued and in-flight
    /// requests, then join every thread. Idle keep-alive connections are
    /// released when their read deadline expires, so shutdown takes at
    /// most roughly `read_timeout` after the last request.
    pub fn shutdown(mut self) {
        self.shutdown_inner();
    }

    fn shutdown_inner(&mut self) {
        self.shutdown.store(true, Ordering::SeqCst);
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
        for t in self.workers.drain(..) {
            let _ = t.join();
        }
    }
}

impl Drop for GatewayHandle {
    fn drop(&mut self) {
        self.shutdown_inner();
    }
}

fn accept_loop(
    listener: TcpListener,
    conn_tx: SyncSender<TcpStream>,
    metrics: Arc<GatewayMetrics>,
    shutdown: Arc<AtomicBool>,
    cfg: GatewayConfig,
) {
    while !shutdown.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((stream, _peer)) => {
                metrics.conns_total.inc();
                // The listener is non-blocking, and on some platforms
                // (macOS/BSD) accepted streams inherit that flag; workers
                // need blocking reads with deadlines, not WouldBlock spam.
                let _ = stream.set_nonblocking(false);
                let _ = stream.set_read_timeout(Some(cfg.read_timeout));
                let _ = stream.set_write_timeout(Some(cfg.write_timeout));
                // Request/response traffic is latency-bound small writes;
                // leaving Nagle on costs a delayed-ACK round trip per hop.
                let _ = stream.set_nodelay(true);
                match conn_tx.try_send(stream) {
                    Ok(()) => metrics.pending.add(1.0),
                    Err(TrySendError::Full(mut stream)) => {
                        // Saturated: shed explicitly rather than queue
                        // unboundedly. The client sees a clean 503.
                        metrics.shed.inc();
                        metrics.request("shed", 503, 0);
                        let resp = Response::json(503, "{\"error\":\"gateway saturated\"}".into());
                        let _ = resp.write_to(&mut stream, false);
                        let _ = stream.flush();
                    }
                    Err(TrySendError::Disconnected(_)) => break,
                }
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                thread::sleep(Duration::from_millis(1));
            }
            Err(_) => thread::sleep(Duration::from_millis(1)),
        }
    }
    // Dropping conn_tx lets workers drain what's queued and then exit.
}

fn worker_loop<S: TagService>(
    service: S,
    conn_rx: Arc<Mutex<Receiver<TcpStream>>>,
    metrics: Arc<GatewayMetrics>,
    shutdown: Arc<AtomicBool>,
    cfg: GatewayConfig,
    sink: SharedSink,
) {
    loop {
        // Hold the lock only for the dequeue, never while serving.
        let stream = {
            let rx = conn_rx.lock().unwrap_or_else(|e| e.into_inner());
            rx.recv()
        };
        match stream {
            Ok(stream) => {
                metrics.pending.add(-1.0);
                serve_connection(&service, stream, &metrics, &shutdown, &cfg, &sink);
            }
            // Sender dropped: accept loop is gone and the queue is fully
            // drained — in-flight work is done, exit.
            Err(_) => return,
        }
    }
}

/// Serves one connection. The first byte decides the protocol: the frame
/// magic (`0xB1`, not a byte any HTTP method starts with) routes to the
/// pipelined binary loop, anything else to the HTTP/1.1 loop. HTTP
/// connections are served keep-alive until the client closes, an error
/// occurs, or shutdown is requested (in-flight request still completes,
/// answered with `Connection: close`).
fn serve_connection<S: TagService>(
    service: &S,
    stream: TcpStream,
    metrics: &GatewayMetrics,
    shutdown: &AtomicBool,
    cfg: &GatewayConfig,
    sink: &SharedSink,
) {
    metrics.conns_active.add(1.0);
    let mut writer = match stream.try_clone() {
        Ok(w) => w,
        Err(_) => {
            metrics.conns_active.add(-1.0);
            return;
        }
    };
    let mut reader = BufReader::new(stream);
    // Sniff without consuming: the bytes stay buffered for whichever
    // protocol loop takes over.
    let first = match reader.fill_buf() {
        Ok(b) if !b.is_empty() => b[0],
        _ => {
            // EOF before any bytes, or the idle deadline expired.
            metrics.conns_active.add(-1.0);
            return;
        }
    };
    if first == codec::MAGIC0 {
        serve_binary_connection(service, reader, writer, metrics, shutdown, cfg, sink);
        metrics.conns_active.add(-1.0);
        return;
    }
    loop {
        let request = match read_request(&mut reader, &cfg.limits) {
            Ok(r) => r,
            Err(e) => {
                // Protocol violations get a status; transport conditions
                // (clean close, timeout, truncation) just end the
                // connection.
                if let Some(status) = e.status() {
                    metrics.request("invalid", status, 0);
                    let body = format!(
                        "{{\"error\":{}}}",
                        crate::json::JsonValue::Str(e.to_string()).render()
                    );
                    let _ = Response::json(status, body).write_to(&mut writer, false);
                }
                break;
            }
        };
        let timer = SpanTimer::start();
        let (route, response) = handle(service, metrics, &request, sink);
        // Count before writing: a client that has the response in hand must
        // already see it reflected in a scrape.
        metrics.request(route, response.status, timer.elapsed_us());
        let keep_alive = request.keep_alive() && !shutdown.load(Ordering::SeqCst);
        let write_ok = response.write_to(&mut writer, keep_alive).is_ok() && writer.flush().is_ok();
        if !keep_alive || !write_ok {
            break;
        }
    }
    metrics.conns_active.add(-1.0);
}

/// One accepted-but-unanswered binary request: everything needed to emit
/// its reply frame when the front completes it, in whatever order that
/// happens.
struct Inflight {
    corr_id: u64,
    trace_id: u64,
    route: &'static str,
    trace: TraceHandle,
    timer: SpanTimer,
}

impl Inflight {
    /// Accounts for the request and appends its reply frame to `out`: the
    /// front's reply as a response frame, or — when the front dropped it or
    /// the drain deadline passed — a typed `ShuttingDown` error frame. The
    /// route counter, latency histogram and trace are all closed out here,
    /// before the bytes can reach the socket.
    fn answer(self, reply: Result<Reply, &str>, metrics: &GatewayMetrics, out: &mut Vec<u8>) {
        let (elapsed, corr, tid) = (self.timer.elapsed_us(), self.corr_id, self.trace_id);
        let (status, frame) = match reply {
            Ok(reply) => {
                (200, codec::encode_response_frame(corr, tid, &wire_response(reply, elapsed)))
            }
            Err(why) => (503, codec::encode_error_frame(corr, tid, ErrorCode::ShuttingDown, why)),
        };
        metrics.request(self.route, status, elapsed);
        self.trace.record("gateway", 0, self.trace.now_us());
        metrics.traces.offer(self.trace.finish());
        out.extend_from_slice(&frame);
    }
}

/// What a completion token stands for on a binary connection.
enum Parked {
    /// A request riding the front, answered when its completion arrives.
    Request(Inflight),
    /// A reply frame the reader produced itself (a refusal, a malformed
    /// frame). It takes its turn on the completion queue like any reply,
    /// so the socket keeps one writer and frames leave in event order.
    Frame(Vec<u8>),
}

impl Parked {
    /// Appends the entry's reply frame to `out`; `reply` is the front's
    /// answer to a request, or why there is none.
    fn write(self, reply: Result<Reply, &str>, metrics: &GatewayMetrics, out: &mut Vec<u8>) {
        match self {
            Parked::Request(fl) => fl.answer(reply, metrics, out),
            Parked::Frame(frame) => out.extend_from_slice(&frame),
        }
    }
}

/// What the two halves of a binary connection share.
#[derive(Default)]
struct ConnState {
    /// The slab of parked entries; an entry's index is its token.
    slots: Vec<Option<Parked>>,
    free: Vec<usize>,
    /// Set when the reader stops dispatching: the single deadline by which
    /// the writer gives up on whatever is still in flight.
    drain_by: Option<Instant>,
    /// The writer exited (the socket broke): nothing more can be answered.
    writer_gone: bool,
}

impl ConnState {
    fn in_flight(&self) -> usize {
        self.slots.len() - self.free.len()
    }

    fn insert(&mut self, parked: Parked) -> u64 {
        let token = self.free.pop().unwrap_or_else(|| {
            self.slots.push(None);
            self.slots.len() - 1
        });
        self.slots[token] = Some(parked);
        token as u64
    }

    /// Removes a parked entry (its completion arrived, or it was refused).
    fn take(&mut self, token: u64) -> Option<Parked> {
        let parked = self.slots.get_mut(token as usize)?.take()?;
        self.free.push(token as usize);
        Some(parked)
    }
}

/// A binary connection's shared state plus the in-flight permit.
#[derive(Default)]
struct BinaryConn {
    state: Mutex<ConnState>,
    permit: Condvar,
}

impl BinaryConn {
    fn lock(&self) -> MutexGuard<'_, ConnState> {
        // Every update leaves the slab consistent, so a poisoned lock (a
        // panicking half) is safe to keep using for the other half's exit.
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }
}

/// Serves one binary-framed connection as two halves. This thread reads:
/// it **blocks in `read`** (idle deadline only), decodes request frames and
/// dispatches them through [`TagService::submit`], so the sharded front's
/// queue admission — and its shedding — applies per frame. The writer half
/// runs on a scoped `gw-writer-N` thread started as soon as the connection
/// sniffs as binary: it **blocks on the connection's completion queue** and
/// is the only writer of reply frames, each written the moment the front
/// finishes it, in completion order, matched to its request by the echoed
/// correlation id. When that thread cannot be started, the connection is
/// closed unread.
fn serve_binary_connection<S: TagService>(
    service: &S,
    reader: BufReader<TcpStream>,
    socket: TcpStream,
    metrics: &GatewayMetrics,
    shutdown: &AtomicBool,
    cfg: &GatewayConfig,
    sink: &SharedSink,
) {
    let conn = &BinaryConn::default();
    let (queue, completions) = mpsc::channel();
    let writer = WriterHalf { completions, conn, socket, metrics, out: Vec::new() };
    let name = thread::current().name().unwrap_or("gw-worker").replace("worker", "writer");
    thread::scope(|scope| {
        if thread::Builder::new().name(name).spawn_scoped(scope, || writer.run()).is_err() {
            return;
        }
        let half = ReaderHalf { service, conn, queue, metrics, shutdown, cfg, sink };
        half.read_requests(reader);
        // Done reading (EOF, idle, shutdown, or a fatal frame): start the
        // drain clock and park an empty wake-up frame under the same lock,
        // so a writer that sees the deadline also sees the wake-up owed.
        // The scope then joins the writer once it has drained.
        let mut st = conn.lock();
        st.drain_by = Some(Instant::now() + cfg.read_timeout);
        half.complete_locally(st, Vec::new());
    });
}

/// The writer half: the completion queue's receiver, the socket's writer.
struct WriterHalf<'a> {
    completions: Receiver<Completion>,
    conn: &'a BinaryConn,
    socket: TcpStream,
    metrics: &'a GatewayMetrics,
    out: Vec<u8>,
}

impl WriterHalf<'_> {
    /// Takes `first` and everything else already completed, frees their
    /// permits, encodes the batch and issues one write. Returns how many
    /// entries are still parked and the drain deadline, as of the lock the
    /// batch was taken under.
    fn flush(&mut self, first: Completion) -> io::Result<(usize, Option<Instant>)> {
        let mut st = self.conn.lock();
        let batch = std::iter::once(first).chain(self.completions.try_iter());
        let done: Vec<_> = batch.filter_map(|c| Some((st.take(c.token)?, c.reply))).collect();
        let state = (st.in_flight(), st.drain_by);
        drop(st);
        self.conn.permit.notify_one();
        for (parked, reply) in done {
            // No reply to a request: the serving worker dropped it — the
            // front is tearing down under us.
            parked.write(reply.ok_or("service reply lost"), self.metrics, &mut self.out);
        }
        let wrote = self.socket.write_all(&self.out);
        self.out.clear();
        if wrote.is_err() {
            // Broken pipe mid-conversation: nothing more can be written.
            // Release the reader, blocked in `read` or on a permit.
            self.conn.lock().writer_gone = true;
            self.conn.permit.notify_one();
            let _ = self.socket.shutdown(Shutdown::Both);
        }
        wrote.map(|()| state)
    }

    /// Blocks in `recv` on the completion queue and flushes on every wake.
    /// While the reader is live it waits without a deadline; once the
    /// reader is done (`drain_by` set) the whole drain shares that **one**
    /// deadline. It ends with nothing left in flight, or at the deadline
    /// with a typed `ShuttingDown` frame for whatever still is.
    fn run(mut self) {
        let mut drain_by: Option<Instant> = None;
        loop {
            let first = match drain_by {
                None => self.completions.recv().ok(),
                Some(by) => {
                    self.completions.recv_timeout(by.saturating_duration_since(Instant::now())).ok()
                }
            };
            let Some(first) = first else { break };
            match self.flush(first) {
                Err(_) => return,
                Ok((0, Some(_))) => break,
                Ok((_, by)) => drain_by = by,
            }
        }
        let mut st = self.conn.lock();
        st.writer_gone = true;
        let unanswered: Vec<_> = (0..st.slots.len() as u64).filter_map(|t| st.take(t)).collect();
        drop(st);
        for parked in unanswered {
            parked.write(Err("server draining"), self.metrics, &mut self.out);
        }
        let _ = self.socket.write_all(&self.out);
    }
}

/// The reader half: what a request frame needs on its way to the front.
struct ReaderHalf<'a, S> {
    service: &'a S,
    conn: &'a BinaryConn,
    queue: CompletionQueue,
    metrics: &'a GatewayMetrics,
    shutdown: &'a AtomicBool,
    cfg: &'a GatewayConfig,
    sink: &'a SharedSink,
}

impl<S: TagService> ReaderHalf<'_, S> {
    /// Parks an entry and returns its completion token, blocking while
    /// `binary_inflight` entries are already parked — ordinary TCP
    /// backpressure, since the reader is not reading meanwhile. `None` when
    /// the connection is ending (writer gone, or shutdown seen at the cap):
    /// the entry is answered past the cap — a request with a typed
    /// `ShuttingDown` frame, accounted as usual — and the reader must stop.
    fn park(&self, parked: Parked) -> Option<u64> {
        let cap = self.cfg.binary_inflight;
        let mut st = self.conn.lock();
        while st.in_flight() >= cap && !st.writer_gone && !self.shutdown.load(Ordering::SeqCst) {
            let wait = self.conn.permit.wait_timeout(st, self.cfg.read_timeout);
            st = wait.unwrap_or_else(|e| e.into_inner()).0;
        }
        if st.in_flight() < cap && !st.writer_gone {
            return Some(st.insert(parked));
        }
        let mut frame = Vec::new();
        parked.write(Err("server draining"), self.metrics, &mut frame);
        self.complete_locally(st, frame);
        None
    }

    /// Parks a frame the reader produced itself, permit or not, and queues
    /// its completion behind the replies already completed.
    fn complete_locally(&self, mut st: MutexGuard<'_, ConnState>, frame: Vec<u8>) {
        let token = st.insert(Parked::Frame(frame));
        drop(st);
        let _ = self.queue.send(Completion { token, reply: None });
    }

    /// Counts and answers a frame the wire layer refuses. The answer holds
    /// a permit like a request, so a client that streams refusable frames
    /// without reading its replies is backpressured the same way. `false`
    /// when the connection is ending.
    fn refuse(&self, kind: &str, ids: (u64, u64), code: ErrorCode, why: &str) -> bool {
        self.metrics.wire_err(kind);
        self.metrics.request("invalid_bin", 400, 0);
        let frame = codec::encode_error_frame(ids.0, ids.1, code, why);
        let Some(token) = self.park(Parked::Frame(frame)) else { return false };
        self.queue.send(Completion { token, reply: None }).is_ok()
    }

    /// Decode, dispatch, read more — until the client is done sending
    /// (EOF), idles past the read deadline with nothing owed, breaks the
    /// frame stream, or the gateway shuts down.
    fn read_requests(&self, mut reader: BufReader<TcpStream>) {
        let mut buf: Vec<u8> = Vec::with_capacity(4 * 1024);
        loop {
            // Decode and dispatch every complete frame in the buffer.
            loop {
                let live = match codec::decode_frame(&buf, self.cfg.limits.max_body_bytes) {
                    Decoded::NeedMore => break,
                    Decoded::Fatal(err) => {
                        // No trustworthy frame boundary remains: report,
                        // answer what we already accepted, and close.
                        self.refuse(err.kind(), (0, 0), err.code(), &err.to_string());
                        false
                    }
                    Decoded::Rejected { corr_id, trace_id, error, consumed } => {
                        buf.drain(..consumed);
                        let ids = (corr_id, trace_id);
                        self.refuse(error.kind(), ids, error.code(), &error.to_string())
                    }
                    Decoded::Frame(frame, consumed) => {
                        buf.drain(..consumed);
                        self.dispatch_frame(frame)
                    }
                };
                if !live {
                    return;
                }
            }
            if self.shutdown.load(Ordering::SeqCst) {
                return;
            }
            // Block for more bytes. The only deadline is the idle one: past
            // it a connection with nothing owed is closed just like an idle
            // HTTP keep-alive, and one with replies still owed keeps
            // listening.
            let consumed = match reader.fill_buf() {
                // Clean EOF: the client is done sending; the drain answers
                // the rest.
                Ok([]) => return,
                Ok(chunk) => {
                    buf.extend_from_slice(chunk);
                    chunk.len()
                }
                Err(e)
                    if matches!(e.kind(), io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut) =>
                {
                    if self.conn.lock().in_flight() == 0 {
                        return;
                    }
                    0
                }
                Err(_) => return,
            };
            reader.consume(consumed);
        }
    }

    /// Decodes and dispatches one well-formed request frame: its metadata
    /// is parked under a fresh token (blocking for an in-flight permit),
    /// then the request is submitted with the connection's completion
    /// queue, so the reply — inline or from a shard — reaches the writer
    /// the moment it exists. Returns `false` when the connection is ending.
    fn dispatch_frame(&self, frame: codec::Frame) -> bool {
        let ids = (frame.corr_id, frame.trace_id);
        let (route, click) = match frame.frame_type {
            FrameType::Recommend => ("recommend_bin", false),
            FrameType::Click => ("click_bin", true),
            // Response/Error frames flow server → client only.
            FrameType::Response | FrameType::Error => {
                let why = "server accepts request frames only";
                return self.refuse("unexpected_type", ids, ErrorCode::BadFrameType, why);
            }
        };
        let req = match codec::decode_request_payload(&frame.payload) {
            Ok(r) => r,
            Err(e) => return self.refuse(e.kind(), ids, ErrorCode::BadPayload, &e.to_string()),
        };
        // Propagate the client's trace id, mint only when absent (zero) —
        // the binary twin of the X-Trace-Id header rule.
        let trace_id =
            if frame.trace_id != 0 { frame.trace_id } else { self.metrics.trace_ids.next_id() };
        let trace = TraceHandle::new(trace_id);
        let parked = Inflight {
            corr_id: frame.corr_id,
            trace_id,
            route,
            trace: trace.clone(),
            timer: SpanTimer::start(),
        };
        let Some(token) = self.park(Parked::Request(parked)) else { return false };
        let request = to_request(click, req);
        let event = self.sink.as_ref().map(|sink| (sink, request.clone()));
        match self.service.submit(request, Some(&trace), Admission::Shed, &self.queue, token) {
            // Log the event for the continuous-training loop once the
            // request is *accepted* (answered inline or riding the sharded
            // front) — shed frames never reached a model and must not train
            // one.
            Ok(()) => log_event(event),
            Err(reason) => {
                // Refused: no completion will come, so the reader completes
                // the permit itself, the refusal in the request's place.
                let mut st = self.conn.lock();
                let Some(Parked::Request(fl)) = st.take(token) else { return false };
                self.metrics.request(route, 503, fl.timer.elapsed_us());
                let (code, msg) = match reason {
                    ShedReason::ShuttingDown => (ErrorCode::ShuttingDown, "server draining"),
                    _ => (ErrorCode::Shed, "overloaded"),
                };
                let frame = codec::encode_error_frame(fl.corr_id, fl.trace_id, code, msg);
                self.complete_locally(st, frame);
            }
        }
        true
    }
}

/// Routes one parsed request; returns the route label (for metrics) and
/// the response.
fn handle<S: TagService>(
    service: &S,
    metrics: &GatewayMetrics,
    request: &http::Request,
    sink: &SharedSink,
) -> (&'static str, Response) {
    match (request.method.as_str(), request.path.as_str()) {
        ("POST", "/v1/recommend") => (
            "recommend",
            traced(metrics, request, |t| model_route(service, request, false, t, sink)),
        ),
        ("POST", "/v1/click") => {
            ("click", traced(metrics, request, |t| model_route(service, request, true, t, sink)))
        }
        ("GET", "/healthz") => (
            "healthz",
            Response::json(
                200,
                format!(
                    "{{\"status\":\"ok\",\"policy\":{},\"model_version\":{}}}",
                    crate::json::JsonValue::Str(service.policy()).render(),
                    service.model_version(),
                ),
            ),
        ),
        ("GET", "/metrics") => {
            let body = metrics.registry.render_prometheus();
            ("metrics", Response::text(200, &body))
        }
        ("GET", "/debug/traces") => {
            // Retained traces (K slowest per window + 1-in-N sample, plus
            // the still-open window) as JSON lines.
            let body = metrics.traces.export_json_lines();
            ("debug_traces", Response::text(200, &body))
        }
        // Known path, wrong method (any method, not just the two we
        // speak): 405 naming the allowed method, never a misleading 404.
        (_, "/v1/recommend" | "/v1/click") => ("invalid", Response::method_not_allowed("POST")),
        (_, "/healthz" | "/metrics" | "/debug/traces") => {
            ("invalid", Response::method_not_allowed("GET"))
        }
        _ => ("invalid", Response::json(404, "{\"error\":\"no such route\"}".into())),
    }
}

/// Runs a model route with end-to-end tracing: the request's `X-Trace-Id`
/// (or a freshly minted id) becomes the trace, the whole handler runs under
/// a `gateway` span, the finished trace is offered to the collector, and
/// the id is echoed back in the response's `X-Trace-Id` header.
fn traced(
    metrics: &GatewayMetrics,
    request: &http::Request,
    f: impl FnOnce(&TraceHandle) -> Response,
) -> Response {
    let trace = match request.header("x-trace-id") {
        Some(raw) => match parse_trace_id(raw) {
            Some(id) => TraceHandle::new(id),
            None => return bad_request(&format!("bad x-trace-id `{raw}`")),
        },
        None => TraceHandle::new(metrics.trace_ids.next_id()),
    };
    let response = f(&trace);
    trace.record("gateway", 0, trace.now_us());
    let finished = trace.finish();
    let id = finished.trace_id;
    metrics.traces.offer(finished);
    response.with_trace_id(id)
}

fn bad_request(msg: &str) -> Response {
    Response::json(
        400,
        format!("{{\"error\":{}}}", crate::json::JsonValue::Str(msg.to_string()).render()),
    )
}

/// `POST /v1/recommend` (with a `question`, the Q&A dialogue path; without
/// one, the tenant's cold-start tags, §V-B of the paper) and `POST
/// /v1/click` (the TagRec path over the clicked-tag trail), blocking on the
/// front. A front that cannot serve the request (shutting down) answers
/// `503`, as the binary codec does.
fn model_route<S: TagService>(
    service: &S,
    request: &http::Request,
    click: bool,
    trace: &TraceHandle,
    sink: &SharedSink,
) -> Response {
    let req = match RecommendRequest::from_json(&request.body) {
        Ok(r) => r,
        Err(e) => return bad_request(&e),
    };
    let request = to_request(click, req);
    let event = sink.as_ref().map(|sink| (sink, request.clone()));
    let timer = SpanTimer::start();
    match service.call(request, Some(trace), Admission::Block) {
        Ok(reply) => {
            log_event(event);
            let wire = wire_response(reply, timer.elapsed_us());
            Response::json(200, wire.to_json()).with_model_version(service.model_version())
        }
        Err(_) => Response::json(503, "{\"error\":\"server draining\"}".into()),
    }
}
