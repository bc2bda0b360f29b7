//! The sharded, batched serving front: N worker threads, each owning a
//! [`ModelServer`] replica (its own model, the world's shared
//! [`crate::Catalog`]), multiplexing tenant traffic over bounded
//! `std::sync::mpsc` request queues.
//!
//! This is the ROADMAP's "next scaling step" for the paper's online system
//! (§V): the deployed stack serves heavy tenant traffic with strict latency
//! SLOs (Table VI), which a single synchronous server cannot absorb. The
//! front routes each request to its tenant's shard (`tenant % shards`,
//! keeping a tenant's counters shard-local), micro-batches queue
//! drains (up to `batch_max` requests per wakeup, amortizing scheduler round
//! trips), and degrades gracefully under overload: queues are bounded,
//! [`Admission::Shed`] submissions shed with a counter instead of blocking,
//! and shutdown drains every in-flight request before the workers exit.
//!
//! The headline guarantee — enforced by `tests/sharded_parity.rs` — is that
//! for any request stream the front returns responses identical to a
//! single-process [`ModelServer`] built from the same data: shard count and
//! batch size are pure performance knobs. This holds because every model in
//! the workspace is deterministic and each shard owns a whole model over the
//! same read-only catalog, so no request's answer depends on scheduling.
//!
//! Every shard publishes labeled series into the shared
//! [`MetricsRegistry`]: `sharded.request_us{shard="i"}` (front entry to
//! reply release: queue wait + batching delay + processing, recorded by the
//! worker as it releases each reply), `sharded.batch{shard="i"}` (drain sizes),
//! `sharded.queue_depth{shard="i"}` gauges, and `sharded.processed` /
//! `sharded.shed` counters, while the inner servers' `serving.*` metrics
//! aggregate across shards in the same registry.

use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::mpsc::{self, Receiver, SyncSender, TrySendError};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;

use intellitag_baselines::SequenceRecommender;
use intellitag_obs::{
    tenant_tier, tier_index, Counter, Gauge, Histogram, HistogramSnapshot, MetricsRegistry,
    SpanTimer, TraceHandle, SLO_SHED_METRIC, SLO_TIER_LABEL,
};

use crate::serving::{
    Admission, CompletionQueue, ModelServer, Reply, ReplyTo, Request, TagService,
};

/// Tuning knobs of the sharded front. Parity with the single-process server
/// holds for every setting; these trade latency against throughput only.
#[derive(Debug, Clone, Copy)]
pub struct ShardConfig {
    /// Worker threads, each owning one `ModelServer` replica. Tenants are
    /// partitioned as `tenant % shards`.
    pub shards: usize,
    /// Maximum requests drained per worker wakeup (micro-batch size). `1`
    /// disables batching.
    pub batch_max: usize,
    /// Bounded per-shard queue capacity. [`Admission::Block`] waits when
    /// the queue is full; [`Admission::Shed`] sheds instead.
    pub queue_capacity: usize,
}

impl Default for ShardConfig {
    fn default() -> Self {
        ShardConfig { shards: 4, batch_max: 8, queue_capacity: 256 }
    }
}

/// A published model snapshot in transit to the shard workers: a monotonic
/// version id plus the serialized artifact bytes (for the learned models,
/// the `IntelliTag::save` format; the front treats them as opaque). The
/// bytes ride an `Arc` so S shards share one buffer instead of S copies.
#[derive(Debug, Clone)]
pub struct SwapPayload {
    /// Monotonic snapshot version (the trainer/registry's published id).
    pub version: u64,
    /// Serialized model artifact the per-shard loader rebuilds from.
    pub bytes: Arc<Vec<u8>>,
}

/// The hot-swap mailbox between a trainer and a [`ShardedServer`]'s
/// workers. A publisher (the online trainer, a deploy script, a test)
/// [`publish`](ModelSwap::publish)es versioned payloads; every worker polls
/// the mailbox at its drain boundaries and rebuilds its replica from the
/// newest payload it has not applied yet. Intermediate versions may be
/// skipped — workers always jump to the latest — but versions never
/// regress, and because the poll sits *between* drains, no drain is ever
/// served by two model versions (the epoch fence
/// `tests/hot_swap_parity.rs` pins).
///
/// Clone freely: clones share the mailbox.
#[derive(Clone, Default)]
pub struct ModelSwap {
    inner: Arc<SwapInner>,
}

#[derive(Default)]
struct SwapInner {
    /// Version of the payload in `slot` (0 = nothing published). Read
    /// lock-free on the per-drain fast path; written under the slot lock.
    version: AtomicU64,
    slot: Mutex<Option<SwapPayload>>,
}

impl ModelSwap {
    /// An empty mailbox (version 0, nothing to apply).
    pub fn new() -> Self {
        Self::default()
    }

    /// Publishes a snapshot for the workers to pick up. Returns `false`
    /// (dropping the payload) unless `payload.version` is strictly newer
    /// than the currently published one — versions are monotonic, so a
    /// late or duplicate publish can never roll a replica back.
    pub fn publish(&self, payload: SwapPayload) -> bool {
        let mut slot = self.inner.slot.lock().expect("swap slot poisoned");
        if payload.version <= self.inner.version.load(Ordering::Acquire) {
            return false;
        }
        self.inner.version.store(payload.version, Ordering::Release);
        *slot = Some(payload);
        true
    }

    /// The most recently published version (0 before the first publish).
    pub fn latest_version(&self) -> u64 {
        self.inner.version.load(Ordering::Acquire)
    }

    /// The published payload if it is newer than `seen` — the workers'
    /// per-drain poll. Lock-free when nothing new is pending (the steady
    /// state), so idle polling costs one atomic load per drain.
    fn newer_than(&self, seen: u64) -> Option<SwapPayload> {
        if self.inner.version.load(Ordering::Acquire) <= seen {
            return None;
        }
        self.inner.slot.lock().expect("swap slot poisoned").clone()
    }
}

/// The shard-side loader: rebuilds a (non-`Send`) model from snapshot
/// payload bytes *inside* the worker thread that will serve it.
type ModelLoader<M> = Arc<dyn Fn(usize, &SwapPayload) -> M + Send + Sync>;

/// Per-worker swap state: the shared mailbox, the loader that rebuilds a
/// (non-`Send`) model from payload bytes *inside* the worker thread, and
/// this worker's high-water mark of applied versions.
struct WorkerSwap<M> {
    swap: ModelSwap,
    loader: ModelLoader<M>,
    /// Front-wide maximum applied version (what `/healthz` reports).
    applied: Arc<AtomicU64>,
    shard: usize,
    /// Last version this worker applied (or started from).
    seen: u64,
}

impl<M: SequenceRecommender> WorkerSwap<M> {
    /// The epoch fence. Called between drains — after a batch is collected
    /// but before any of it is served — so every request in a drain is
    /// answered by exactly one model version, and no post-swap request can
    /// observe a score computed by the previous version.
    fn apply_pending(&mut self, server: &mut ModelServer<M>) {
        let Some(payload) = self.swap.newer_than(self.seen) else { return };
        let model = (self.loader)(self.shard, &payload);
        server.install_model(model, payload.version);
        self.seen = payload.version;
        self.applied.fetch_max(payload.version, Ordering::AcqRel);
    }
}

/// Why a front refused a request without serving it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShedReason {
    /// The shard's bounded queue was full (overload shedding; counted in
    /// `sharded.shed`).
    Overloaded,
    /// The shard's worker has exited (the front is shutting down).
    ShuttingDown,
}

/// A request's trace riding the queue: the shared handle plus the trace-
/// relative enqueue stamp, so the worker can close the `shard.queue` span.
type JobTrace = Option<(TraceHandle, u64)>;

/// One request in flight to a shard worker: what to serve, where its reply
/// goes, and the clock its client-observed latency is read from.
struct Job {
    request: Request,
    reply: ReplyTo,
    trace: JobTrace,
    /// Started when the caller entered the front.
    timer: SpanTimer,
}

/// Client-side handle to one shard: the bounded queue plus the metric
/// handles both sides of the queue share.
struct Shard {
    tx: SyncSender<Job>,
    /// Requests currently enqueued or being drained (mirrored into the
    /// `sharded.queue_depth{shard=..}` gauge by whichever side moved last).
    depth: Arc<AtomicI64>,
    depth_gauge: Arc<Gauge>,
    shed: Arc<Counter>,
}

/// Per-shard state the worker thread updates while draining.
struct WorkerMetrics {
    /// The shard this worker serves — annotated onto `shard.queue` and
    /// `drain` trace spans so a trace names the shard that handled it.
    shard: u32,
    depth: Arc<AtomicI64>,
    depth_gauge: Arc<Gauge>,
    batch_sizes: Arc<Histogram>,
    /// Effective rows per batched score call — the size of each drain's
    /// tag-click partition (`sharded.batch_rows{shard=..}`). Mean > 1 means
    /// the one-forward-per-drain path is actually amortizing forwards.
    batch_rows: Arc<Histogram>,
    processed: Arc<Counter>,
    /// Client-observed latency (queue wait + batching delay + processing),
    /// recorded as each reply is released.
    front_latency: Arc<Histogram>,
}

impl WorkerMetrics {
    /// Accounts for one served reply and releases it. `processed` and the
    /// front latency are recorded first, so once a caller holds a reply the
    /// registry already reflects it — and so does the trace: the `drain`
    /// span (dequeue -> reply-ready, annotated with the shard and the
    /// drain's size) is closed before the reply is sent.
    fn release(&self, reply: ReplyTo, answer: Reply, timer: SpanTimer, trace: JobTrace, rows: u32) {
        if let Some((t, deq)) = trace {
            t.record_annotated("drain", deq, t.now_us(), Some(self.shard), Some(rows));
        }
        self.processed.inc();
        self.front_latency.record(timer.elapsed_us());
        reply.send(answer);
    }
}

/// The sharded, batched front over per-shard [`ModelServer`] replicas.
///
/// Construction goes through [`ShardedServer::spawn`], which runs the
/// factory once *inside* each worker thread — the models in this workspace
/// hold `Rc`-based autograd parameters and are not `Send`, so replicas must
/// be built where they will serve, exactly like the deployed one-replica-
/// per-worker layout. Dropping the front (or calling
/// [`ShardedServer::shutdown`]) closes the queues, drains every accepted
/// request, and joins the workers.
pub struct ShardedServer {
    shards: Vec<Shard>,
    workers: Vec<JoinHandle<()>>,
    registry: MetricsRegistry,
    policy: String,
    config: ShardConfig,
    shed_total: Arc<Counter>,
    /// Per-tenant-tier shed counters (`slo.shed{tenant_tier=..}`), bound
    /// once and indexed by [`tier_index`] so the shed path never formats
    /// names.
    slo_shed: [Arc<Counter>; 3],
    worker_lost: Arc<Counter>,
    /// Highest snapshot version any worker has applied (workers fence swaps
    /// at their own drain boundaries, so individual replicas may trail this
    /// for one drain during a rollout).
    applied_version: Arc<AtomicU64>,
}

impl ShardedServer {
    /// Spawns `cfg.shards` worker threads, building one server replica per
    /// shard via `factory(shard_id)` inside the worker. Every replica is
    /// rebound onto the shared `registry`, so `serving.*` metrics aggregate
    /// across shards while `sharded.*{shard="i"}` series stay per shard.
    ///
    /// # Panics
    /// Panics when any knob in `cfg` is zero, or when a factory panics
    /// during startup (the spawn surfaces worker construction failures
    /// instead of serving into the void).
    pub fn spawn<M, F>(cfg: ShardConfig, registry: MetricsRegistry, factory: F) -> Self
    where
        M: SequenceRecommender + 'static,
        F: Fn(usize) -> ModelServer<M> + Send + Sync + 'static,
    {
        Self::spawn_inner(cfg, registry, factory, None)
    }

    /// [`ShardedServer::spawn`] with live model hot-swap: on top of the
    /// per-shard `factory`, every worker polls `swap` at its drain
    /// boundaries and, when a newer [`SwapPayload`] has been published,
    /// rebuilds its replica's model via `loader(shard_id, payload)` and
    /// installs it atomically between drains — the epoch fence. `loader`
    /// runs inside the worker thread (models are not `Send`), must be
    /// deterministic in the payload bytes, and is expected to be the
    /// inverse of however the payload was serialized (e.g.
    /// `IntelliTag::load` over an `IntelliTag::save` artifact).
    ///
    /// Swapping never loses requests: requests already drained are served
    /// by the old version, later drains by the new one.
    pub fn spawn_swappable<M, F, L>(
        cfg: ShardConfig,
        registry: MetricsRegistry,
        factory: F,
        swap: ModelSwap,
        loader: L,
    ) -> Self
    where
        M: SequenceRecommender + 'static,
        F: Fn(usize) -> ModelServer<M> + Send + Sync + 'static,
        L: Fn(usize, &SwapPayload) -> M + Send + Sync + 'static,
    {
        Self::spawn_inner(cfg, registry, factory, Some((swap, Arc::new(loader) as _)))
    }

    fn spawn_inner<M, F>(
        cfg: ShardConfig,
        registry: MetricsRegistry,
        factory: F,
        swap: Option<(ModelSwap, ModelLoader<M>)>,
    ) -> Self
    where
        M: SequenceRecommender + 'static,
        F: Fn(usize) -> ModelServer<M> + Send + Sync + 'static,
    {
        assert!(cfg.shards >= 1, "need at least one shard");
        assert!(cfg.batch_max >= 1, "batch_max must be at least 1");
        assert!(cfg.queue_capacity >= 1, "queue_capacity must be at least 1");
        let factory = Arc::new(factory);
        let (ready_tx, ready_rx) = mpsc::channel::<(String, u64)>();
        let applied_version = Arc::new(AtomicU64::new(0));
        // A drain takes at most one queue's worth of requests.
        let batch_max = cfg.batch_max.min(cfg.queue_capacity);
        let mut shards = Vec::with_capacity(cfg.shards);
        let mut workers = Vec::with_capacity(cfg.shards);
        for shard_id in 0..cfg.shards {
            let (tx, rx) = mpsc::sync_channel::<Job>(cfg.queue_capacity);
            let sid = shard_id.to_string();
            let labels = [("shard", sid.as_str())];
            let depth = Arc::new(AtomicI64::new(0));
            let shard = Shard {
                tx,
                depth: Arc::clone(&depth),
                depth_gauge: registry.gauge_labeled("sharded.queue_depth", &labels),
                shed: registry.counter_labeled("sharded.shed", &labels),
            };
            let worker_metrics = WorkerMetrics {
                shard: shard_id as u32,
                depth,
                depth_gauge: Arc::clone(&shard.depth_gauge),
                batch_sizes: registry.histogram_labeled("sharded.batch", &labels),
                batch_rows: registry.histogram_labeled("sharded.batch_rows", &labels),
                processed: registry.counter_labeled("sharded.processed", &labels),
                front_latency: registry.histogram_labeled("sharded.request_us", &labels),
            };
            let (factory, registry, ready_tx) =
                (Arc::clone(&factory), registry.clone(), ready_tx.clone());
            let worker_swap = swap.as_ref().map(|(s, l)| WorkerSwap {
                swap: s.clone(),
                loader: Arc::clone(l),
                applied: Arc::clone(&applied_version),
                shard: shard_id,
                seen: 0,
            });
            let handle = std::thread::Builder::new()
                .name(format!("intellitag-shard-{shard_id}"))
                .spawn(move || {
                    let server = factory(shard_id).with_metrics(registry);
                    let _ = ready_tx.send((server.policy(), server.model_version()));
                    drop(ready_tx);
                    let mut worker_swap = worker_swap;
                    if let Some(ctx) = worker_swap.as_mut() {
                        // The factory's checkpoint is this worker's floor;
                        // only strictly newer snapshots swap in.
                        ctx.seen = server.model_version();
                    }
                    worker_loop(server, rx, worker_metrics, batch_max, worker_swap);
                })
                .expect("spawn shard worker");
            shards.push(shard);
            workers.push(handle);
        }
        drop(ready_tx);
        // Wait for every replica to finish building; a factory panic shows
        // up here as a truncated ready stream.
        let ready: Vec<(String, u64)> = ready_rx.iter().take(cfg.shards).collect();
        assert_eq!(ready.len(), cfg.shards, "a shard worker died during startup");
        // fetch_max, not store: a worker may already have fenced in a newer
        // snapshot before spawn finished collecting ready messages.
        let base_version = ready.iter().map(|&(_, v)| v).max().unwrap_or(0);
        applied_version.fetch_max(base_version, Ordering::AcqRel);
        ShardedServer {
            shards,
            workers,
            policy: ready.into_iter().next().map(|(p, _)| p).unwrap_or_default(),
            shed_total: registry.counter("sharded.shed_total"),
            slo_shed: [0u64, 1, 2].map(|t| {
                registry.counter_labeled(SLO_SHED_METRIC, &[(SLO_TIER_LABEL, tenant_tier(t))])
            }),
            worker_lost: registry.counter("sharded.error.worker_lost"),
            registry,
            config: cfg,
            applied_version,
        }
    }

    /// The shard that serves a tenant: `tenant % shards`, the front's one
    /// routing rule.
    pub fn shard_for(&self, tenant: usize) -> usize {
        tenant % self.shards.len()
    }

    /// The front's configuration.
    pub fn config(&self) -> &ShardConfig {
        &self.config
    }

    /// Total requests shed across all shards.
    pub fn shed_count(&self) -> u64 {
        self.shed_total.get()
    }

    /// Merged client-observed front latency across every shard's
    /// `sharded.request_us{shard=..}` series.
    pub fn front_latency_snapshot(&self) -> HistogramSnapshot {
        self.registry.merged_histogram("sharded.request_us")
    }

    /// Shuts the front down: closes every queue, drains all accepted
    /// requests, and joins the workers. Dropping the front does the same.
    pub fn shutdown(mut self) {
        self.join_workers();
    }

    fn join_workers(&mut self) {
        self.shards.clear(); // drop senders: workers drain, then exit
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }

    /// Hands a job to a shard's queue. [`Admission::Block`] waits for room
    /// (backpressure) and fails only when the worker is gone;
    /// [`Admission::Shed`] never waits — it sheds when the shard's queue is
    /// full. A refused job's reply half is disarmed: the caller learns the
    /// outcome from the `Err` alone.
    fn admit(&self, admission: Admission, shard: usize, job: Job) -> Result<(), ShedReason> {
        let shard = &self.shards[shard];
        let depth = shard.depth.fetch_add(1, Ordering::Relaxed) + 1;
        let sent = match admission {
            Admission::Shed => shard.tx.try_send(job),
            Admission::Block => shard.tx.send(job).map_err(|e| TrySendError::Disconnected(e.0)),
        };
        let (job, reason) = match sent {
            Ok(()) => {
                shard.depth_gauge.set(depth as f64);
                return Ok(());
            }
            Err(TrySendError::Full(job)) => {
                shard.shed.inc();
                self.shed_total.inc();
                (job, ShedReason::Overloaded)
            }
            Err(TrySendError::Disconnected(job)) => {
                self.worker_lost.inc();
                (job, ShedReason::ShuttingDown)
            }
        };
        shard.depth.fetch_sub(1, Ordering::Relaxed);
        job.reply.disarm();
        Err(reason)
    }
}

impl TagService for ShardedServer {
    /// Enqueues the request on its tenant's shard; its reply lands on
    /// `queue` tagged `token` when the shard finishes it, however drains
    /// batch or reorder work. The trace rides the queue: the worker closes
    /// a `shard.queue` span at dequeue, wraps the serving in a `drain`
    /// span, and the replica records per-stage spans in between. A shed
    /// ticks the tenant tier's `slo.shed{tenant_tier=..}` counter.
    fn submit(
        &self,
        request: Request,
        trace: Option<&TraceHandle>,
        admission: Admission,
        queue: &CompletionQueue,
        token: u64,
    ) -> Result<(), ShedReason> {
        let timer = SpanTimer::start();
        let tenant = request.tenant();
        let trace = trace.map(|t| (t.clone(), t.now_us()));
        let job = Job { request, reply: ReplyTo::new(queue.clone(), token), trace, timer };
        self.admit(admission, self.shard_for(tenant), job).inspect_err(|&reason| {
            if reason == ShedReason::Overloaded {
                self.slo_shed[tier_index(tenant as u64)].inc();
            }
        })
    }

    fn metrics(&self) -> &MetricsRegistry {
        &self.registry
    }

    fn latency_snapshot(&self) -> HistogramSnapshot {
        // The shards' inner servers all publish into the shared registry,
        // so the plain `serving.request_us` histogram already aggregates
        // every shard's server-side latency.
        self.registry.histogram("serving.request_us").snapshot()
    }

    fn policy(&self) -> String {
        self.policy.clone()
    }

    /// Highest snapshot version any shard worker has applied (0 until a
    /// versioned checkpoint is installed). During a rollout individual
    /// replicas may trail by at most one drain — each worker fences at its
    /// own drain boundary — so this is the front's "serving at least
    /// version N" watermark, mirrored by the gateway's `/healthz` field and
    /// `X-Model-Version` reply header.
    fn model_version(&self) -> u64 {
        self.applied_version.load(Ordering::Acquire)
    }
}

impl Drop for ShardedServer {
    fn drop(&mut self) {
        self.join_workers();
    }
}

/// The worker loop: block for one request, then drain up to `batch_max - 1`
/// more without blocking, record the batch size, and serve the batch
/// through the shard's replica. Each drain is partitioned: questions and
/// cold starts are answered one by one, while the drain's tag clicks ride
/// one batched score call — one model forward per drain instead of one per
/// click, with the effective batch size recorded in
/// `sharded.batch_rows{shard=..}`. Batched and serial scoring are
/// bit-exact, so this changes latency only, never answers.
///
/// A traced job gets its `shard.queue` span closed at dequeue and a `drain`
/// span recorded before its reply is released; the replica adds per-stage
/// spans in between.
///
/// Exits when every client handle is gone and the queue is empty —
/// `std::sync::mpsc` delivers buffered messages after sender drop, which is
/// what makes shutdown drain instead of abort.
fn worker_loop<M: SequenceRecommender>(
    mut server: ModelServer<M>,
    rx: Receiver<Job>,
    metrics: WorkerMetrics,
    batch_max: usize,
    mut swap: Option<WorkerSwap<M>>,
) {
    let mut batch = Vec::with_capacity(batch_max);
    while let Ok(first) = rx.recv() {
        batch.push(first);
        while batch.len() < batch_max {
            match rx.try_recv() {
                Ok(job) => batch.push(job),
                Err(_) => break,
            }
        }
        // The epoch fence: a pending snapshot swaps in here — after the
        // drain is collected, before any of it is served — so every drain
        // is answered by exactly one model version.
        if let Some(ctx) = swap.as_mut() {
            ctx.apply_pending(&mut server);
        }
        let remaining =
            metrics.depth.fetch_sub(batch.len() as i64, Ordering::Relaxed) - batch.len() as i64;
        metrics.depth_gauge.set(remaining.max(0) as f64);
        metrics.batch_sizes.record(batch.len() as u64);
        let rows = batch.len() as u32;
        // A drain's click replies leave together, back to back after the one
        // batched forward that produced them, so a caller with several
        // requests in the drain wakes for the first and finds the rest
        // queued.
        let mut clicks: Vec<(usize, Vec<usize>)> = Vec::new();
        let mut click_jobs: Vec<(ReplyTo, SpanTimer, JobTrace)> = Vec::new();
        for Job { request, reply, trace, timer } in batch.drain(..) {
            // Dequeue closes the `shard.queue` span; its end stamp doubles
            // as the `drain` span's start.
            let trace = trace.map(|(t, enq)| {
                let deq = t.now_us();
                t.record_annotated("shard.queue", enq, deq, Some(metrics.shard), None);
                (t, deq)
            });
            match request {
                Request::TagClick { tenant, clicks: trail } => {
                    clicks.push((tenant, trail));
                    click_jobs.push((reply, timer, trace));
                }
                request => {
                    let answer = server.serve(request, trace.as_ref().map(|(t, _)| t));
                    metrics.release(reply, answer, timer, trace, rows);
                }
            }
        }
        if clicks.is_empty() {
            continue;
        }
        metrics.batch_rows.record(clicks.len() as u64);
        let traces: Vec<Option<&TraceHandle>> =
            click_jobs.iter().map(|(_, _, trace)| trace.as_ref().map(|(t, _)| t)).collect();
        let responses = server.click_drain(&clicks, &traces);
        for (resp, (reply, timer, trace)) in responses.into_iter().zip(click_jobs) {
            metrics.release(reply, Reply::TagClick(resp), timer, trace, rows);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::serving::tests::{toy_catalog, TOY_CLICKS};
    use crate::serving::{Completion, TagClickResponse};
    use intellitag_baselines::Popularity;

    fn server_with<M: SequenceRecommender>(model: M) -> ModelServer<M> {
        ModelServer::with_catalog(model, toy_catalog())
    }

    fn replica() -> ModelServer<Popularity> {
        server_with(Popularity::from_counts(&TOY_CLICKS))
    }

    /// A job whose reply lands on a queue of its own (token 0), the way the
    /// blocking calls build one.
    fn job(request: Request, trace: Option<&TraceHandle>) -> (Job, Receiver<Completion>) {
        let (queue, completions) = mpsc::channel();
        let reply = ReplyTo::new(queue, 0);
        let trace = trace.map(|t| (t.clone(), t.now_us()));
        (Job { request, reply, trace, timer: SpanTimer::start() }, completions)
    }

    fn click_job(tenant: usize, clicks: &[usize]) -> (Job, Receiver<Completion>) {
        job(Request::TagClick { tenant, clicks: clicks.to_vec() }, None)
    }

    fn click_reply(completions: &Receiver<Completion>) -> TagClickResponse {
        match completions.recv().expect("request drained, not dropped").reply {
            Some(Reply::TagClick(resp)) => resp,
            other => panic!("expected a tag-click reply, got {other:?}"),
        }
    }

    fn front(cfg: ShardConfig) -> (ShardedServer, MetricsRegistry) {
        let registry = MetricsRegistry::new();
        let front = ShardedServer::spawn(cfg, registry.clone(), |_shard| replica());
        (front, registry)
    }

    #[test]
    fn front_matches_single_process_server() {
        let single = replica();
        let (front, _) = front(ShardConfig { shards: 2, ..Default::default() });
        for tenant in 0..2 {
            let q = front.handle_question(tenant, "how to change password");
            assert!(q.same_content(&single.handle_question(tenant, "how to change password")));
            let c = front.handle_tag_click(tenant, &[4 * tenant]);
            assert!(c.same_content(&single.handle_tag_click(tenant, &[4 * tenant])));
            assert_eq!(front.cold_start_tags(tenant), single.cold_start_tags(tenant));
        }
    }

    #[test]
    fn per_shard_series_land_in_shared_registry() {
        let (front, registry) = front(ShardConfig { shards: 2, ..Default::default() });
        let _ = front.handle_tag_click(0, &[0]); // shard 0
        let _ = front.handle_tag_click(1, &[4]); // shard 1
        for shard in ["0", "1"] {
            let h = registry.histogram_labeled("sharded.request_us", &[("shard", shard)]);
            assert_eq!(h.count(), 1, "shard {shard} front latency not recorded");
        }
        assert_eq!(front.front_latency_snapshot().count, 2);
        // Inner servers aggregate into the plain serving histograms.
        assert_eq!(registry.histogram("serving.request_us").count(), 2);
        let text = registry.render_prometheus();
        assert!(text.contains("sharded_request_us_count{shard=\"0\"} 1"), "{text}");
        assert!(text.contains("sharded_request_us_count{shard=\"1\"} 1"), "{text}");
    }

    #[test]
    fn shutdown_drains_accepted_requests() {
        // One slow shard with a deep queue: enqueue from a helper thread,
        // then drop the front while requests are still queued — every reply
        // channel must still resolve.
        let (front, registry) = front(ShardConfig { shards: 1, batch_max: 2, queue_capacity: 64 });
        let n = 32;
        let replies: Vec<_> = (0..n)
            .map(|i| {
                let (job, rx) = click_job(0, &[i % 4]);
                front.admit(Admission::Shed, 0, job).expect("queue has room");
                rx
            })
            .collect();
        front.shutdown();
        for rx in replies {
            let resp = click_reply(&rx);
            assert!(!resp.recommended_tags.is_empty() || !resp.predicted_questions.is_empty());
        }
        assert_eq!(
            registry.counter_labeled("sharded.processed", &[("shard", "0")]).get(),
            n as u64
        );
    }

    #[test]
    fn batching_is_observable_and_bounded() {
        let (front, registry) = front(ShardConfig { shards: 1, batch_max: 4, queue_capacity: 64 });
        for _ in 0..3 {
            let _ = front.handle_tag_click(0, &[0]);
        }
        front.shutdown();
        let batches = registry.histogram_labeled("sharded.batch", &[("shard", "0")]).snapshot();
        assert!(batches.count >= 1);
        assert!(batches.max <= 4, "batch exceeded batch_max: {}", batches.max);
    }

    /// Runs one `worker_loop` to completion over a preloaded queue on the
    /// current thread — deterministic drain composition, no racing worker.
    fn run_worker(jobs: Vec<Job>, batch_max: usize) -> MetricsRegistry {
        let registry = MetricsRegistry::new();
        let server = replica().with_metrics(registry.clone());
        let (tx, rx) = mpsc::sync_channel(jobs.len().max(1));
        for job in jobs {
            tx.try_send(job).expect("preload fits the queue");
        }
        drop(tx);
        let labels = [("shard", "0")];
        let metrics = WorkerMetrics {
            shard: 0,
            depth: Arc::new(AtomicI64::new(0)),
            depth_gauge: registry.gauge_labeled("sharded.queue_depth", &labels),
            batch_sizes: registry.histogram_labeled("sharded.batch", &labels),
            batch_rows: registry.histogram_labeled("sharded.batch_rows", &labels),
            processed: registry.counter_labeled("sharded.processed", &labels),
            front_latency: registry.histogram_labeled("sharded.request_us", &labels),
        };
        worker_loop(server, rx, metrics, batch_max, None);
        registry
    }

    #[test]
    fn full_drain_scores_clicks_as_one_batch() {
        // A queue preloaded with 5 clicks drains as one batch of 5: one
        // batch_rows record, answers identical to a single-process server.
        let single = replica();
        let clicks: Vec<Vec<usize>> = vec![vec![0], vec![1, 0], vec![2], vec![0], vec![3, 2]];
        let (jobs, replies): (Vec<Job>, Vec<_>) = clicks.iter().map(|c| click_job(0, c)).unzip();
        let registry = run_worker(jobs, 8);
        for (c, rx) in clicks.iter().zip(replies) {
            let resp = click_reply(&rx);
            assert!(resp.same_content(&single.handle_tag_click(0, c)), "clicks {c:?} diverged");
        }
        let rows = registry.histogram_labeled("sharded.batch_rows", &[("shard", "0")]).snapshot();
        assert_eq!(rows.count, 1, "5 preloaded clicks must drain as one batch");
        assert_eq!(rows.max, 5);
        assert_eq!(registry.counter_labeled("sharded.processed", &[("shard", "0")]).get(), 5);
        // One batched score call served 4 unique click histories; stage
        // accounting stays per-request.
        assert_eq!(registry.histogram("serving.stage.score_us").count(), 5);
    }

    #[test]
    fn all_question_drain_records_no_batch_rows() {
        // A drain that is 100% questions has an empty click partition: the
        // batched path must not run (no batch_rows samples, no empty-batch
        // score call) and every question still answers.
        let single = replica();
        let questions = ["how to change password", "how to apply for etc card"];
        let (jobs, replies): (Vec<Job>, Vec<_>) = questions
            .iter()
            .map(|q| job(Request::Question { tenant: 0, text: q.to_string() }, None))
            .unzip();
        let registry = run_worker(jobs, 8);
        for (q, rx) in questions.iter().zip(replies) {
            match rx.recv().expect("drained").reply {
                Some(Reply::Question(resp)) => {
                    assert!(resp.same_content(&single.handle_question(0, q)))
                }
                other => panic!("expected a question reply, got {other:?}"),
            }
        }
        let rows = registry.histogram_labeled("sharded.batch_rows", &[("shard", "0")]).snapshot();
        assert_eq!(rows.count, 0, "question-only drains must not tick batch_rows");
        assert_eq!(registry.histogram("serving.stage.score_us").count(), 0);
    }

    #[test]
    fn batch_max_one_disables_batching() {
        let single = replica();
        let (front, registry) = front(ShardConfig { shards: 1, batch_max: 1, queue_capacity: 64 });
        for i in 0..6usize {
            let c = front.handle_tag_click(0, &[i % 4]);
            assert!(c.same_content(&single.handle_tag_click(0, &[i % 4])));
        }
        front.shutdown();
        let batches = registry.histogram_labeled("sharded.batch", &[("shard", "0")]).snapshot();
        assert_eq!(batches.max, 1, "batch_max=1 must never drain more than one");
        let rows = registry.histogram_labeled("sharded.batch_rows", &[("shard", "0")]).snapshot();
        assert!(rows.count >= 1);
        assert_eq!(rows.max, 1);
    }

    #[test]
    fn mixed_drain_with_degraded_and_oversized_requests() {
        // Force one drain holding questions, cold starts, valid clicks,
        // degraded clicks, and an oversized click history — the partitioned
        // worker must answer each exactly like the single-process server.
        let single = replica();
        let (front, _) = front(ShardConfig { shards: 1, batch_max: 16, queue_capacity: 64 });
        let oversized: Vec<usize> = (0..40).map(|i| i % 4).collect();
        let (q_job, q_rx) =
            job(Request::Question { tenant: 0, text: "cancel the order".into() }, None);
        front.admit(Admission::Shed, 0, q_job).unwrap();
        let (cs_job, cs_rx) = job(Request::ColdStart { tenant: 1 }, None);
        front.admit(Admission::Shed, 0, cs_job).unwrap();
        let click_cases: Vec<(usize, Vec<usize>)> = vec![
            (0, vec![0, 1]),
            (0, vec![]),    // degraded: empty
            (99, vec![0]),  // degraded: bad tenant
            (0, vec![999]), // degraded: bad tag
            (0, oversized.clone()),
            (1, vec![4, 5]),
        ];
        let click_replies: Vec<_> = click_cases
            .iter()
            .map(|(tenant, clicks)| {
                let (job, rx) = click_job(*tenant, clicks);
                front.admit(Admission::Shed, 0, job).unwrap();
                rx
            })
            .collect();
        match q_rx.recv().unwrap().reply {
            Some(Reply::Question(resp)) => {
                assert!(resp.same_content(&single.handle_question(0, "cancel the order")))
            }
            other => panic!("expected a question reply, got {other:?}"),
        }
        match cs_rx.recv().unwrap().reply {
            Some(Reply::ColdStart(tags)) => assert_eq!(tags, single.cold_start_tags(1)),
            other => panic!("expected a cold-start reply, got {other:?}"),
        }
        for ((tenant, clicks), rx) in click_cases.iter().zip(click_replies) {
            let resp = click_reply(&rx);
            assert!(
                resp.same_content(&single.handle_tag_click(*tenant, clicks)),
                "tenant {tenant} clicks {clicks:?} diverged"
            );
        }
        front.shutdown();
    }

    #[test]
    fn policy_and_service_trait_surface() {
        let (front, _) = front(ShardConfig { shards: 1, ..Default::default() });
        assert_eq!(TagService::policy(&front), replica().policy());
        let svc: &dyn TagService = &front;
        let r = svc.handle_question(0, "how to change password");
        assert_eq!(r.rq, Some(0));
        assert_eq!(svc.latency_snapshot().count, 1);
    }

    #[test]
    fn traced_request_gets_queue_drain_and_stage_spans() {
        let single = replica();
        let (front, _) = front(ShardConfig { shards: 1, ..Default::default() });

        let trace = TraceHandle::new(7);
        let request = Request::TagClick { tenant: 0, clicks: vec![0, 1] };
        let Ok(Reply::TagClick(resp)) = front.call(request, Some(&trace), Admission::Block) else {
            panic!("a click answers with a click reply")
        };
        assert!(resp.same_content(&single.handle_tag_click(0, &[0, 1])), "tracing changed answers");
        let finished = trace.finish();
        let names: Vec<&str> = finished.spans.iter().map(|s| s.name).collect();
        for expected in ["shard.queue", "drain", "recall", "score", "rerank"] {
            assert!(names.contains(&expected), "missing span {expected}: {names:?}");
        }
        let queue = finished.spans.iter().find(|s| s.name == "shard.queue").unwrap();
        assert_eq!(queue.shard, Some(0), "queue span must name the serving shard");
        let drain = finished.spans.iter().find(|s| s.name == "drain").unwrap();
        assert_eq!(drain.shard, Some(0));
        assert!(drain.batch_rows.is_some(), "drain span must carry the drain size");
        // Spans nest sanely: every span closed before the trace finished.
        for s in &finished.spans {
            assert!(s.start_us <= s.end_us, "span {} runs backwards", s.name);
            assert!(s.end_us <= finished.total_us, "span {} outlives the trace", s.name);
        }

        let qtrace = TraceHandle::new(8);
        let request = Request::Question { tenant: 0, text: "how to change password".into() };
        let Ok(Reply::Question(q)) = front.call(request, Some(&qtrace), Admission::Block) else {
            panic!("a question answers with a question reply")
        };
        assert!(q.same_content(&single.handle_question(0, "how to change password")));
        let qnames: Vec<&str> = qtrace.finish().spans.iter().map(|s| s.name).collect();
        for expected in ["shard.queue", "drain", "recall"] {
            assert!(qnames.contains(&expected), "missing span {expected}: {qnames:?}");
        }
        front.shutdown();
    }

    #[test]
    fn batched_drain_links_one_drain_span_to_every_member_trace() {
        // Preload 4 traced clicks so they drain as one batch: every member
        // trace must see shard.queue + amortized score + a drain span
        // annotated with the full drain size.
        let clicks: Vec<Vec<usize>> = vec![vec![0], vec![1, 0], vec![2], vec![3]];
        let traces: Vec<TraceHandle> =
            (0..clicks.len()).map(|i| TraceHandle::new(i as u64 + 1)).collect();
        let (jobs, replies): (Vec<Job>, Vec<_>) = clicks
            .iter()
            .zip(&traces)
            .map(|(c, t)| job(Request::TagClick { tenant: 0, clicks: c.clone() }, Some(t)))
            .unzip();
        let registry = run_worker(jobs, 8);
        for rx in replies {
            click_reply(&rx);
        }
        let rows = registry.histogram_labeled("sharded.batch_rows", &[("shard", "0")]).snapshot();
        assert_eq!((rows.count, rows.max), (1, 4), "must drain as one batch of 4");
        for t in &traces {
            let finished = t.finish();
            let names: Vec<&str> = finished.spans.iter().map(|s| s.name).collect();
            for expected in ["shard.queue", "drain", "score"] {
                assert!(names.contains(&expected), "missing span {expected}: {names:?}");
            }
            let drain = finished.spans.iter().find(|s| s.name == "drain").unwrap();
            assert_eq!(drain.batch_rows, Some(4), "drain span must carry the drain size");
            assert_eq!(drain.shard, Some(0));
        }
    }

    #[test]
    fn overload_sheds_tick_the_tenant_tiers_slo_counter() {
        // A one-deep queue with a tight client loop: enqueueing is orders of
        // magnitude faster than serving, so sheds appear within a few tries.
        let (front, registry) = front(ShardConfig { shards: 1, batch_max: 1, queue_capacity: 1 });
        // A shedding `call` waits for its reply, so one client can never fill
        // the queue on its own: stuff it with raw sends (replies parked),
        // then shed a real request while the worker is still backed up.
        // Filling is ~ns and serving is ~µs, so a few attempts suffice.
        let mut parked = Vec::new();
        let mut shed = false;
        for _ in 0..10_000 {
            loop {
                let (job, rx) = click_job(1, &[0]);
                match front.admit(Admission::Shed, 0, job) {
                    Ok(()) => parked.push(rx),
                    Err(_) => break, // queue full
                }
            }
            let request = Request::TagClick { tenant: 1, clicks: vec![0] };
            if matches!(front.call(request, None, Admission::Shed), Err(ShedReason::Overloaded)) {
                shed = true;
                break;
            }
        }
        assert!(shed, "no shed observed after 10k full-queue attempts");
        // Tenant 1 is the silver tier; the shed must land on its counter
        // (raw `admit` sheds bypass the tier accounting by design).
        let silver = registry.counter_labeled(SLO_SHED_METRIC, &[(SLO_TIER_LABEL, "silver")]);
        assert!(silver.get() >= 1, "silver slo.shed not ticked");
        let gold = registry.counter_labeled(SLO_SHED_METRIC, &[(SLO_TIER_LABEL, "gold")]);
        assert_eq!(gold.get(), 0);
        drop(parked);
        front.shutdown();
    }

    #[test]
    fn submitted_requests_complete_with_correct_correlation_and_latency() {
        let single = replica();
        let (front, _registry) = front(ShardConfig { shards: 2, ..Default::default() });
        // Submit a burst to one queue without waiting, then block on the
        // queue: each completion's token must lead back to the answer the
        // single-process server gives for *that* request, whatever order
        // the two shards finish in.
        let cases: Vec<(usize, Vec<usize>)> =
            vec![(0, vec![0]), (1, vec![4, 5]), (0, vec![1, 0]), (1, vec![5]), (0, vec![2])];
        let (queue, completions) = mpsc::channel();
        for (token, (tenant, clicks)) in cases.iter().enumerate() {
            let request = Request::TagClick { tenant: *tenant, clicks: clicks.clone() };
            front
                .submit(request, None, Admission::Shed, &queue, token as u64)
                .expect("submit with room in the queue is accepted");
        }
        let mut seen = vec![false; cases.len()];
        for _ in &cases {
            let done = completions.recv().expect("every accepted submission completes");
            let (tenant, clicks) = &cases[done.token as usize];
            assert!(!std::mem::replace(&mut seen[done.token as usize], true), "token repeated");
            match done.reply {
                Some(Reply::TagClick(resp)) => assert!(
                    resp.same_content(&single.handle_tag_click(*tenant, clicks)),
                    "submitted reply diverged for tenant {tenant} clicks {clicks:?}"
                ),
                other => panic!("expected a tag-click reply, got {other:?}"),
            }
        }
        // Release recorded the client-observed front latency — before the
        // caller could see the reply.
        assert_eq!(front.front_latency_snapshot().count, cases.len() as u64);
        // Question and cold-start submissions resolve on the same queue.
        let question = Request::Question { tenant: 0, text: "how to change password".into() };
        front.submit(question, None, Admission::Shed, &queue, 70).unwrap();
        front.submit(Request::ColdStart { tenant: 1 }, None, Admission::Shed, &queue, 71).unwrap();
        for _ in 0..2 {
            match completions.recv().expect("completes") {
                Completion { token: 70, reply: Some(Reply::Question(q)) } => {
                    assert!(q.same_content(&single.handle_question(0, "how to change password")))
                }
                Completion { token: 71, reply: Some(Reply::ColdStart(tags)) } => {
                    assert_eq!(tags, single.cold_start_tags(1))
                }
                other => panic!("unexpected completion {other:?}"),
            }
        }
        front.shutdown();
        assert!(completions.try_recv().is_err(), "exactly one completion per submission");
    }

    #[test]
    fn a_request_dropped_unserved_completes_with_no_reply() {
        // The worker dies with a job still queued: the job's reply half must
        // wake the caller with `reply: None` instead of leaving it blocked.
        let (job, completions) = click_job(0, &[0]);
        let (tx, rx) = mpsc::sync_channel::<Job>(1);
        tx.try_send(job).expect("room for one");
        drop(rx);
        let done = completions.recv().expect("a dropped job still completes");
        assert!(done.reply.is_none());
        // A refused job, by contrast, stays silent: `Err` is the whole answer.
        let (front, _) = front(ShardConfig { shards: 1, batch_max: 1, queue_capacity: 1 });
        let (queue, completions) = mpsc::channel();
        let mut refused = 0;
        let mut accepted = 0;
        for token in 0..64 {
            let request = Request::TagClick { tenant: 0, clicks: vec![0] };
            match front.submit(request, None, Admission::Shed, &queue, token) {
                Ok(()) => accepted += 1,
                Err(reason) => {
                    assert_eq!(reason, ShedReason::Overloaded);
                    refused += 1;
                }
            }
        }
        front.shutdown();
        drop(queue);
        assert!(refused > 0, "a one-deep queue must refuse part of a 64-burst");
        assert_eq!(completions.iter().count(), accepted, "one completion per accepted submit");
    }

    #[test]
    fn submit_sheds_on_a_full_queue_instead_of_blocking() {
        let (front, registry) = front(ShardConfig { shards: 1, batch_max: 1, queue_capacity: 1 });
        let (queue, _completions) = mpsc::channel();
        // Park raw sends until the queue is full, then a submit must shed
        // (never block) and tick the tenant tier's slo.shed counter.
        let mut parked = Vec::new();
        let mut shed = false;
        for _ in 0..10_000 {
            loop {
                let (job, rx) = click_job(1, &[0]);
                match front.admit(Admission::Shed, 0, job) {
                    Ok(()) => parked.push(rx),
                    Err(_) => break,
                }
            }
            let request = Request::TagClick { tenant: 1, clicks: vec![0] };
            if front.submit(request, None, Admission::Shed, &queue, 0)
                == Err(ShedReason::Overloaded)
            {
                shed = true;
                break;
            }
        }
        assert!(shed, "no shed observed after 10k full-queue submits");
        let silver = registry.counter_labeled(SLO_SHED_METRIC, &[(SLO_TIER_LABEL, "silver")]);
        assert!(silver.get() >= 1, "submit shed must tick the tier's slo.shed");
        drop(parked);
        front.shutdown();
    }

    #[test]
    fn tenant_hash_routing_is_static() {
        let (front, _) = front(ShardConfig { shards: 2, ..Default::default() });
        for tenant in 0..8 {
            assert_eq!(front.shard_for(tenant), tenant % 2);
        }
    }

    /// [`Popularity`] wrapper stamping every scoring call with this
    /// replica's `(shard, installed version)` into a shared log — the
    /// instrument that turns "no drain mixes versions" into an observable:
    /// each shard's logged version sequence must be monotone.
    struct VersionedModel {
        inner: Popularity,
        version: u64,
        shard: usize,
        log: Arc<Mutex<Vec<(usize, u64)>>>,
    }

    impl SequenceRecommender for VersionedModel {
        fn name(&self) -> &str {
            self.inner.name()
        }

        fn score_all(&self, context: &[usize]) -> Vec<f32> {
            self.log.lock().unwrap().push((self.shard, self.version));
            self.inner.score_all(context)
        }
    }

    /// Encodes popularity counts one byte each — the test's stand-in for a
    /// serialized checkpoint riding a [`SwapPayload`].
    fn payload(version: u64, counts: &[usize]) -> SwapPayload {
        SwapPayload { version, bytes: Arc::new(counts.iter().map(|&c| c as u8).collect()) }
    }

    fn decode_counts(payload: &SwapPayload) -> Vec<usize> {
        payload.bytes.iter().map(|&b| b as usize).collect()
    }

    #[test]
    fn hot_swap_is_epoch_fenced_under_concurrent_load() {
        let v1 = vec![5usize, 9, 3, 7, 2, 4];
        let v2 = vec![9usize, 2, 7, 3, 5, 4];
        let log: Arc<Mutex<Vec<(usize, u64)>>> = Arc::new(Mutex::new(Vec::new()));
        let registry = MetricsRegistry::new();
        let swap = ModelSwap::new();
        let (factory_log, loader_log) = (Arc::clone(&log), Arc::clone(&log));
        let v1_factory = v1.clone();
        let front = ShardedServer::spawn_swappable(
            ShardConfig { shards: 2, batch_max: 4, queue_capacity: 64 },
            registry.clone(),
            move |shard| {
                server_with(VersionedModel {
                    inner: Popularity::from_counts(&v1_factory),
                    version: 1,
                    shard,
                    log: Arc::clone(&factory_log),
                })
                .with_model_version(1)
            },
            swap.clone(),
            move |shard, payload| VersionedModel {
                inner: Popularity::from_counts(&decode_counts(payload)),
                version: payload.version,
                shard,
                log: Arc::clone(&loader_log),
            },
        );
        assert_eq!(front.model_version(), 1);

        // Two client threads hammer repeated keys while the publisher swaps
        // mid-stream: every reply must be whole and must match one of the
        // two versions exactly — a blend (a drain that mixed versions)
        // matches neither. Oracles are built per thread: `ModelServer` is
        // deliberately not `Sync`.
        std::thread::scope(|s| {
            let front = &front;
            for tenant in 0..2usize {
                let (v1, v2) = (v1.clone(), v2.clone());
                s.spawn(move || {
                    let oracle_v1 = server_with(Popularity::from_counts(&v1));
                    let oracle_v2 = server_with(Popularity::from_counts(&v2));
                    // Keys leave headroom in the tenant's tag pool so a
                    // served reply always carries recommendations — an
                    // empty reply can then only mean a dropped request.
                    let keys: [&[usize]; 2] =
                        if tenant == 0 { [&[0], &[1, 0]] } else { [&[4], &[5]] };
                    for i in 0..120 {
                        let clicks = keys[i % 2];
                        let resp = front.handle_tag_click(tenant, clicks);
                        assert!(!resp.recommended_tags.is_empty(), "request lost during swap");
                        let matches_v1 =
                            resp.same_content(&oracle_v1.handle_tag_click(tenant, clicks));
                        let matches_v2 =
                            resp.same_content(&oracle_v2.handle_tag_click(tenant, clicks));
                        assert!(
                            matches_v1 || matches_v2,
                            "tenant {tenant} clicks {clicks:?}: reply matches neither version"
                        );
                    }
                });
            }
            std::thread::sleep(std::time::Duration::from_millis(2));
            assert!(swap.publish(payload(2, &v2)));
            assert!(!swap.publish(payload(2, &v2)), "duplicate version must be rejected");
        });

        // One request per shard forces a post-publish drain: the fence runs
        // before the drain is served, so these replies are already v2: a
        // repeated key answered by the old model would fail the oracle.
        let oracle_v2 = server_with(Popularity::from_counts(&v2));
        for tenant in 0..2usize {
            let key: &[usize] = if tenant == 0 { &[0] } else { &[4] };
            let resp = front.handle_tag_click(tenant, key);
            assert!(
                resp.same_content(&oracle_v2.handle_tag_click(tenant, key)),
                "post-publish drain served the old version"
            );
        }
        assert_eq!(front.model_version(), 2);
        assert_eq!(TagService::model_version(&front), 2);
        assert_eq!(registry.counter("serving.swaps").get(), 2, "each shard swaps exactly once");
        assert_eq!(registry.gauge("serving.model_version").get(), 2.0);

        front.shutdown();
        // The fence guarantee, observed: per shard, installed versions only
        // ever move forward (an interleaved drain would show 2,1,2,...).
        let log = log.lock().unwrap();
        for shard in 0..2usize {
            let seq: Vec<u64> = log.iter().filter(|&&(s, _)| s == shard).map(|&(_, v)| v).collect();
            assert!(!seq.is_empty(), "shard {shard} never scored");
            assert!(
                seq.windows(2).all(|w| w[0] <= w[1]),
                "shard {shard} version sequence regressed: {seq:?}"
            );
        }
    }

    #[test]
    fn pre_published_snapshot_applies_before_the_first_drain_is_served() {
        let v1 = vec![5usize, 9, 3, 7, 2, 4];
        let v2 = vec![9usize, 2, 7, 3, 5, 4];
        let swap = ModelSwap::new();
        assert!(swap.publish(payload(2, &v2)));
        assert!(!swap.publish(payload(1, &v1)), "stale publish must be rejected");
        assert_eq!(swap.latest_version(), 2);

        let registry = MetricsRegistry::new();
        let v1_factory = v1.clone();
        let front = ShardedServer::spawn_swappable(
            ShardConfig { shards: 1, ..Default::default() },
            registry,
            move |_shard| server_with(Popularity::from_counts(&v1_factory)).with_model_version(1),
            swap,
            |_shard, p| Popularity::from_counts(&decode_counts(p)),
        );
        // The worker starts on v1 but fences the pending snapshot in before
        // serving its first drain — no request is ever answered by v1.
        let resp = front.handle_tag_click(0, &[0]);
        let oracle_v2 = server_with(Popularity::from_counts(&v2));
        assert!(resp.same_content(&oracle_v2.handle_tag_click(0, &[0])));
        assert_eq!(front.model_version(), 2);
        front.shutdown();
    }

    #[test]
    #[should_panic(expected = "at least one shard")]
    fn zero_shards_is_rejected() {
        let registry = MetricsRegistry::new();
        let _ =
            ShardedServer::spawn(ShardConfig { shards: 0, ..Default::default() }, registry, |_| {
                replica()
            });
    }
}
