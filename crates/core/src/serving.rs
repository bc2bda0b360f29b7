//! The online model server (paper §V-A): request handling for Q&A dialogue
//! and tag recommendation, with the deployment strategy of §V-B — tag
//! embeddings precomputed offline, only sequence layers run per request,
//! popularity fallback for cold start, `asc`-relation tags after a question.
//!
//! Every request is instrumented through [`intellitag_obs`]: per-stage span
//! timing (ES recall, Q&A-matcher rerank, model scoring, cache lookup),
//! cache hit/miss and cold-start counters, per-tenant request counters, and
//! bounded log2 latency histograms replacing the old unbounded latency log —
//! the paper's §VI latency budget ("respond in under 150 ms", Table VI) is
//! only actionable when you can see where the time goes.

use std::sync::{mpsc, Arc};

use intellitag_baselines::SequenceRecommender;
use intellitag_obs::{
    tenant_tier, Counter, Gauge, Histogram, HistogramSnapshot, MetricsRegistry, SampleRing,
    SpanTimer, TraceHandle, MODEL_SWAPS_METRIC, MODEL_VERSION_METRIC, SLO_LATENCY_METRIC,
    SLO_TIER_LABEL,
};
use intellitag_search::{Hit, KbWarehouse};

use crate::cache::{LruCache, ResponseCache};
use crate::qa_matcher::QaMatcher;
use crate::ShedReason;

/// How many recent raw latency samples the server retains for
/// [`ModelServer::latencies_us`]. Aggregate statistics come from the
/// bounded histograms; the ring only serves debugging and the benches.
pub const RECENT_LATENCY_WINDOW: usize = 1024;

/// One served reply, whichever request kind asked for it — the single
/// reply representation every front releases and every caller receives.
#[derive(Debug)]
pub enum Reply {
    /// Answer to a typed question.
    Question(QuestionResponse),
    /// Answer to a tag click.
    TagClick(TagClickResponse),
    /// A tenant's cold-start tags.
    ColdStart(Vec<usize>),
}

/// A finished submission as it lands on its caller's completion queue.
#[derive(Debug)]
pub struct Completion {
    /// The caller-chosen token passed at submit time, echoed verbatim — the
    /// caller's key back to whatever it remembers about the request.
    pub token: u64,
    /// The reply; `None` when the front dropped the request unserved (its
    /// worker died or was torn down mid-request) and no reply will come.
    pub reply: Option<Reply>,
}

/// A caller's completion queue: every request a caller submits names the
/// queue its reply goes to, so one thread can keep many requests in flight
/// against a concurrent front and **block** on the receiving end for
/// whichever finishes first (the gateway's binary connections hold one
/// queue per connection; the blocking `handle_*` calls a queue of one).
pub type CompletionQueue = mpsc::Sender<Completion>;

/// The reply half riding an accepted request: delivers exactly one
/// [`Completion`] to the caller's queue — the reply when the request is
/// served, or `reply: None` if it is dropped unserved — so a caller blocked
/// on its queue always wakes.
#[derive(Debug)]
pub(crate) struct ReplyTo {
    /// `None` once the completion is delivered (or the request refused).
    queue: Option<CompletionQueue>,
    token: u64,
}

impl ReplyTo {
    pub(crate) fn new(queue: CompletionQueue, token: u64) -> Self {
        ReplyTo { queue: Some(queue), token }
    }

    fn complete(&mut self, reply: Option<Reply>) {
        if let Some(queue) = self.queue.take() {
            // A send error means the caller stopped listening (e.g. its
            // connection closed); the request was still served.
            let _ = queue.send(Completion { token: self.token, reply });
        }
    }

    /// Releases the reply to the caller's queue.
    pub(crate) fn send(mut self, reply: Reply) {
        self.complete(Some(reply));
    }

    /// Drops the reply half without completing: for a request the front
    /// refused, whose caller is told so synchronously instead.
    pub(crate) fn disarm(mut self) {
        self.queue = None;
    }
}

impl Drop for ReplyTo {
    fn drop(&mut self) {
        self.complete(None);
    }
}

/// The request surface shared by every serving front — the single-process
/// [`ModelServer`] and the sharded/batched [`crate::ShardedServer`] alike.
/// The simulator, benches and examples drive traffic through this trait, so
/// swapping fronts is a one-line change and the parity tests can pin that
/// both fronts answer identically.
pub trait TagService {
    /// Handles a typed question (the Q&A dialogue path).
    fn handle_question(&self, tenant: usize, question: &str) -> QuestionResponse;

    /// Handles a tag click (the TagRec path).
    fn handle_tag_click(&self, tenant: usize, clicks: &[usize]) -> TagClickResponse;

    /// Cold-start tags for a tenant (most frequently clicked, §V-B).
    fn cold_start_tags(&self, tenant: usize) -> Vec<usize>;

    /// The metrics registry this front publishes into.
    fn metrics(&self) -> &MetricsRegistry;

    /// Snapshot of the end-to-end request latency histogram (µs).
    fn latency_snapshot(&self) -> HistogramSnapshot;

    /// The served policy's (model's) name, as printed in the paper's tables.
    fn policy(&self) -> String;

    /// The version id of the model snapshot currently serving (0 when the
    /// front was built directly rather than from a published snapshot).
    /// Fronts that support hot-swapping report the version their replicas
    /// last applied at a drain boundary.
    fn model_version(&self) -> u64 {
        0
    }

    /// [`TagService::handle_question`] with request tracing: fronts that
    /// support per-stage spans record them into `trace`. The default ignores
    /// the trace and delegates, so existing fronts keep working untraced.
    fn handle_question_traced(
        &self,
        tenant: usize,
        question: &str,
        trace: &TraceHandle,
    ) -> QuestionResponse {
        let _ = trace;
        self.handle_question(tenant, question)
    }

    /// [`TagService::handle_tag_click`] with request tracing (see
    /// [`TagService::handle_question_traced`]).
    fn handle_tag_click_traced(
        &self,
        tenant: usize,
        clicks: &[usize],
        trace: &TraceHandle,
    ) -> TagClickResponse {
        let _ = trace;
        self.handle_tag_click(tenant, clicks)
    }

    /// Submits a question without waiting for the answer: exactly one
    /// [`Completion`] carrying `token` lands on `queue` when it is served.
    /// `Err` means the front refused the request (queue full →
    /// [`ShedReason::Overloaded`], worker gone → [`ShedReason::ShuttingDown`])
    /// and nothing will arrive. The default answers inline (synchronous
    /// fronts have nowhere to park a request) and the reply is already on
    /// the queue on return; concurrent fronts enqueue instead, so one caller
    /// can keep many requests in flight and block on its queue for
    /// whichever completes first.
    fn submit_question(
        &self,
        tenant: usize,
        question: &str,
        trace: Option<&TraceHandle>,
        queue: &CompletionQueue,
        token: u64,
    ) -> Result<(), ShedReason> {
        let resp = match trace {
            Some(t) => self.handle_question_traced(tenant, question, t),
            None => self.handle_question(tenant, question),
        };
        let _ = queue.send(Completion { token, reply: Some(Reply::Question(resp)) });
        Ok(())
    }

    /// Submits a tag click without waiting (see
    /// [`TagService::submit_question`]).
    fn submit_tag_click(
        &self,
        tenant: usize,
        clicks: &[usize],
        trace: Option<&TraceHandle>,
        queue: &CompletionQueue,
        token: u64,
    ) -> Result<(), ShedReason> {
        let resp = match trace {
            Some(t) => self.handle_tag_click_traced(tenant, clicks, t),
            None => self.handle_tag_click(tenant, clicks),
        };
        let _ = queue.send(Completion { token, reply: Some(Reply::TagClick(resp)) });
        Ok(())
    }

    /// Submits a cold-start lookup without waiting (see
    /// [`TagService::submit_question`]).
    fn submit_cold_start(
        &self,
        tenant: usize,
        queue: &CompletionQueue,
        token: u64,
    ) -> Result<(), ShedReason> {
        let tags = self.cold_start_tags(tenant);
        let _ = queue.send(Completion { token, reply: Some(Reply::ColdStart(tags)) });
        Ok(())
    }
}

/// Shared ownership serves transparently: a `Send + Sync` front (e.g.
/// [`crate::ShardedServer`]) wrapped in an [`Arc`] is itself a
/// [`TagService`], so multi-threaded callers like the HTTP gateway can
/// hand every worker a clone of one fleet instead of building a fleet
/// per worker.
impl<S: TagService> TagService for Arc<S> {
    fn handle_question(&self, tenant: usize, question: &str) -> QuestionResponse {
        (**self).handle_question(tenant, question)
    }

    fn handle_tag_click(&self, tenant: usize, clicks: &[usize]) -> TagClickResponse {
        (**self).handle_tag_click(tenant, clicks)
    }

    fn cold_start_tags(&self, tenant: usize) -> Vec<usize> {
        (**self).cold_start_tags(tenant)
    }

    fn metrics(&self) -> &MetricsRegistry {
        (**self).metrics()
    }

    fn latency_snapshot(&self) -> HistogramSnapshot {
        (**self).latency_snapshot()
    }

    fn policy(&self) -> String {
        (**self).policy()
    }

    fn model_version(&self) -> u64 {
        (**self).model_version()
    }

    fn handle_question_traced(
        &self,
        tenant: usize,
        question: &str,
        trace: &TraceHandle,
    ) -> QuestionResponse {
        (**self).handle_question_traced(tenant, question, trace)
    }

    fn submit_question(
        &self,
        tenant: usize,
        question: &str,
        trace: Option<&TraceHandle>,
        queue: &CompletionQueue,
        token: u64,
    ) -> Result<(), ShedReason> {
        (**self).submit_question(tenant, question, trace, queue, token)
    }

    fn submit_tag_click(
        &self,
        tenant: usize,
        clicks: &[usize],
        trace: Option<&TraceHandle>,
        queue: &CompletionQueue,
        token: u64,
    ) -> Result<(), ShedReason> {
        (**self).submit_tag_click(tenant, clicks, trace, queue, token)
    }

    fn submit_cold_start(
        &self,
        tenant: usize,
        queue: &CompletionQueue,
        token: u64,
    ) -> Result<(), ShedReason> {
        (**self).submit_cold_start(tenant, queue, token)
    }

    fn handle_tag_click_traced(
        &self,
        tenant: usize,
        clicks: &[usize],
        trace: &TraceHandle,
    ) -> TagClickResponse {
        (**self).handle_tag_click_traced(tenant, clicks, trace)
    }
}

/// Response to a user question (the Q&A dialogue path).
#[derive(Debug, Clone)]
pub struct QuestionResponse {
    /// Best-matching RQ id, if any cleared recall.
    pub rq: Option<usize>,
    /// The answer shown to the user.
    pub answer: Option<String>,
    /// Tags recommended next (from the matched RQ's `asc` relation, §V-B).
    pub recommended_tags: Vec<usize>,
    /// Server-side processing latency in microseconds.
    pub latency_us: u64,
}

impl QuestionResponse {
    /// Content equality ignoring the measured latency — the quantity the
    /// parity tests pin across serving fronts (shard count and batch size
    /// must never change what a request returns, only how fast).
    pub fn same_content(&self, other: &Self) -> bool {
        self.rq == other.rq
            && self.answer == other.answer
            && self.recommended_tags == other.recommended_tags
    }
}

/// Response to a tag click (the TagRec path).
#[derive(Debug, Clone)]
pub struct TagClickResponse {
    /// Next recommended tags, ranked.
    pub recommended_tags: Vec<usize>,
    /// Predicted questions (re-ranked RQ recall for the click query).
    pub predicted_questions: Vec<usize>,
    /// Server-side processing latency in microseconds.
    pub latency_us: u64,
}

impl TagClickResponse {
    /// Content equality ignoring the measured latency (see
    /// [`QuestionResponse::same_content`]).
    pub fn same_content(&self, other: &Self) -> bool {
        self.recommended_tags == other.recommended_tags
            && self.predicted_questions == other.predicted_questions
    }
}

/// Metric handles bound once at construction so the hot path never touches
/// the registry's name map (except for the dynamic per-tenant counters).
struct ServerMetrics {
    registry: MetricsRegistry,
    /// Total requests served by this front, every path included — degraded
    /// and empty responses too (`serving.requests`). Gateways reconcile
    /// their own per-route counts against this.
    requests: Arc<Counter>,
    /// End-to-end latency across both request kinds (`serving.request_us`).
    request_latency: Arc<Histogram>,
    /// Q&A path latency (`serving.question_us`).
    question_latency: Arc<Histogram>,
    /// Tag-click path latency (`serving.tag_click_us`).
    click_latency: Arc<Histogram>,
    /// Top-level cold-start lookup latency (`serving.cold_start_us`).
    cold_start_latency: Arc<Histogram>,
    /// BM25/ES recall stage (`serving.stage.recall_us`).
    stage_recall: Arc<Histogram>,
    /// Q&A-matcher / overlap rerank stage (`serving.stage.rerank_us`).
    stage_rerank: Arc<Histogram>,
    /// Sequence-model scoring stage (`serving.stage.score_us`).
    stage_score: Arc<Histogram>,
    /// Response-cache lookup stage (`serving.stage.cache_us`).
    stage_cache: Arc<Histogram>,
    cache_hit: Arc<Counter>,
    cache_miss: Arc<Counter>,
    /// Cross-drain score-row LRU accounting
    /// (`serving.score_lru.{hits,misses}`).
    score_lru_hit: Arc<Counter>,
    score_lru_miss: Arc<Counter>,
    /// Live hit ratio in `[0, 1]` (`serving.score_lru.hit_ratio`) — the
    /// cache-health gauge the governor and humans read without having to
    /// divide counters themselves.
    score_lru_hit_ratio: Arc<Gauge>,
    cold_start: Arc<Counter>,
    err_bad_tenant: Arc<Counter>,
    err_bad_tag: Arc<Counter>,
    err_empty_clicks: Arc<Counter>,
    /// Per-tenant-tier latency series (`slo.latency_us{tenant_tier=..}`),
    /// indexed by `tenant % 3` to match [`tenant_tier`]. Bound once so the
    /// hot path never formats a labeled name.
    slo_latency: [Arc<Histogram>; 3],
    /// Snapshot version currently installed (`serving.model_version`).
    model_version: Arc<Gauge>,
    /// Hot-swaps applied by this replica (`serving.swaps`).
    swaps: Arc<Counter>,
}

impl ServerMetrics {
    fn bind(registry: MetricsRegistry) -> Self {
        // Publish the tensor compute-pool size so scrapes show what the
        // kernels under this server are configured to use (a pure
        // performance knob: pooled kernels are bit-identical to serial).
        registry.gauge("tensor.pool_threads").set(intellitag_tensor::pool_threads() as f64);
        ServerMetrics {
            requests: registry.counter("serving.requests"),
            request_latency: registry.histogram("serving.request_us"),
            question_latency: registry.histogram("serving.question_us"),
            click_latency: registry.histogram("serving.tag_click_us"),
            cold_start_latency: registry.histogram("serving.cold_start_us"),
            stage_recall: registry.histogram("serving.stage.recall_us"),
            stage_rerank: registry.histogram("serving.stage.rerank_us"),
            stage_score: registry.histogram("serving.stage.score_us"),
            stage_cache: registry.histogram("serving.stage.cache_us"),
            cache_hit: registry.counter("serving.cache.hit"),
            cache_miss: registry.counter("serving.cache.miss"),
            score_lru_hit: registry.counter("serving.score_lru.hits"),
            score_lru_miss: registry.counter("serving.score_lru.misses"),
            score_lru_hit_ratio: registry.gauge("serving.score_lru.hit_ratio"),
            cold_start: registry.counter("serving.cold_start_fallback"),
            err_bad_tenant: registry.counter("serving.error.bad_tenant"),
            err_bad_tag: registry.counter("serving.error.bad_tag"),
            err_empty_clicks: registry.counter("serving.error.empty_clicks"),
            slo_latency: [0u64, 1, 2].map(|t| {
                registry.histogram_labeled(SLO_LATENCY_METRIC, &[(SLO_TIER_LABEL, tenant_tier(t))])
            }),
            model_version: registry.gauge(MODEL_VERSION_METRIC),
            swaps: registry.counter(MODEL_SWAPS_METRIC),
            registry,
        }
    }

    fn tenant_requests(&self, tenant: usize) -> Arc<Counter> {
        self.registry.counter(&format!("serving.requests.tenant_{tenant}"))
    }

    /// Ticks one score-LRU lookup and refreshes the hit-ratio gauge from
    /// the lifetime counters (shared-registry safe: with several replicas
    /// the gauge converges on the aggregate ratio).
    fn record_score_lru(&self, hit: bool) {
        if hit {
            self.score_lru_hit.inc();
        } else {
            self.score_lru_miss.inc();
        }
        let (h, m) = (self.score_lru_hit.get(), self.score_lru_miss.get());
        self.score_lru_hit_ratio.set(h as f64 / (h + m) as f64);
    }

    /// The SLO latency series for a tenant's tier.
    fn slo_latency(&self, tenant: usize) -> &Histogram {
        &self.slo_latency[tenant % 3]
    }
}

/// Score rows memoized across drains, keyed by `(tenant, clicks)`.
type ScoreLru = LruCache<(usize, Vec<usize>), Vec<f32>>;

/// The model server: one recommender + the searchable KB + per-tenant
/// metadata, fully instrumented through a shared [`MetricsRegistry`].
pub struct ModelServer<M: SequenceRecommender> {
    model: M,
    /// Version of the snapshot `model` was loaded from (0 = built directly,
    /// never published). Bumped by [`ModelServer::install_model`].
    model_version: u64,
    kb: KbWarehouse,
    /// Surface text per tag (builds the ES query from clicked tags).
    tag_texts: Vec<String>,
    /// Ground-truth tags per RQ (`asc` relation, drives re-ranking and the
    /// after-question tag recommendation).
    rq_tags: Vec<Vec<usize>>,
    /// Tag inventory per tenant (results never cross tenants).
    tenant_tags: Vec<Vec<usize>>,
    /// Global click counts (cold-start popularity, §V-B).
    click_counts: Vec<usize>,
    /// Tags shown per response.
    pub tags_per_response: usize,
    /// Predicted questions shown per response.
    pub questions_per_response: usize,
    /// Recent raw latencies — bounded, unlike the old `Vec<u64>` log.
    recent_latencies: SampleRing,
    obs: ServerMetrics,
    /// Optional response cache over `(tenant, clicks)` — the paper's §VII
    /// future-work extension ("cache high-frequency data to decrease system
    /// latency").
    cache: Option<ResponseCache<(usize, Vec<usize>), TagClickResponse>>,
    /// Optional cross-drain score-row LRU keyed by `(tenant, clicks)`.
    /// Distinct from the response cache: it memoizes the *model scoring
    /// stage only* (the score row over the tenant's candidate pool), so a
    /// hot tenant repeating the same click prefix across consecutive
    /// micro-batch drains skips the transformer forward while recall and
    /// rerank still run fresh per request.
    score_lru: Option<ScoreLru>,
    /// Optional Q&A matching model re-ranking question recall (the deployed
    /// system's RoBERTa matcher, §V-A).
    qa_matcher: Option<QaMatcher>,
}

impl<M: SequenceRecommender> ModelServer<M> {
    /// Assembles a server with its own private metrics registry; use
    /// [`ModelServer::with_metrics`] to share one across components.
    pub fn new(
        model: M,
        kb: KbWarehouse,
        tag_texts: Vec<String>,
        rq_tags: Vec<Vec<usize>>,
        tenant_tags: Vec<Vec<usize>>,
        click_counts: Vec<usize>,
    ) -> Self {
        assert_eq!(kb.len(), rq_tags.len(), "one tag list per RQ");
        assert_eq!(tag_texts.len(), click_counts.len(), "one count per tag");
        ModelServer {
            model,
            model_version: 0,
            kb,
            tag_texts,
            rq_tags,
            tenant_tags,
            click_counts,
            tags_per_response: 5,
            questions_per_response: 3,
            recent_latencies: SampleRing::new(RECENT_LATENCY_WINDOW),
            obs: ServerMetrics::bind(MetricsRegistry::new()),
            cache: None,
            score_lru: None,
            qa_matcher: None,
        }
    }

    /// Rebinds the server onto a shared metrics registry (e.g. one also fed
    /// by the training loops and the online simulator). Call before serving
    /// traffic — metrics recorded so far stay in the old registry.
    pub fn with_metrics(mut self, registry: MetricsRegistry) -> Self {
        self.obs = ServerMetrics::bind(registry);
        self.obs.model_version.set(self.model_version as f64);
        self
    }

    /// Tags this replica with the version of the snapshot its model was
    /// loaded from, so `serving.model_version` and the gateway's
    /// `X-Model-Version` header are truthful from the first request.
    pub fn with_model_version(mut self, version: u64) -> Self {
        self.model_version = version;
        self.obs.model_version.set(version as f64);
        self
    }

    /// The version of the snapshot currently serving (0 = unversioned).
    pub fn model_version(&self) -> u64 {
        self.model_version
    }

    /// Installs a freshly loaded model at a drain boundary (the epoch-fenced
    /// hot-swap path — [`crate::ShardedServer::spawn_swappable`] calls this
    /// strictly between micro-batch drains).
    ///
    /// Besides replacing the scoring model, this invalidates both the
    /// response cache and the cross-drain score-row LRU: their entries embed
    /// the *old* model's output, and serving them after the swap would
    /// silently mix versions — exactly the staleness the epoch fence exists
    /// to rule out. Post-swap responses are therefore byte-identical to a
    /// server freshly built from the installed snapshot.
    pub fn install_model(&mut self, model: M, version: u64) {
        self.model = model;
        self.model_version = version;
        if let Some(cache) = &self.cache {
            cache.clear();
        }
        if let Some(lru) = &self.score_lru {
            lru.clear();
        }
        self.obs.model_version.set(version as f64);
        self.obs.swaps.inc();
    }

    /// Attaches a trained Q&A matcher; question recall is then re-ranked by
    /// match score instead of raw BM25 order. The KB's RQ texts are encoded
    /// into the matcher's memo here, once — no request pays a first-touch
    /// encode, and the question path never re-encodes the KB.
    pub fn with_qa_matcher(mut self, matcher: QaMatcher) -> Self {
        matcher.prewarm((0..self.kb.len()).map(|rq| self.kb.pair(rq).question.as_str()));
        self.qa_matcher = Some(matcher);
        self
    }

    /// Enables the tag-click response cache (§VII future work). Call after
    /// construction; a model refresh should recreate the server (or the
    /// cache) since cached responses embed model output.
    pub fn with_cache(mut self, capacity: usize) -> Self {
        self.cache = Some(ResponseCache::new(capacity));
        self
    }

    /// Enables the cross-drain score-row LRU. Scores are a deterministic
    /// function of `(tenant, clicks)` for a fixed checkpoint, so serving a
    /// cached row is bit-identical to recomputing it — repeat click
    /// prefixes from hot tenants skip the model forward entirely. Like the
    /// response cache, a model refresh must recreate the server (or call
    /// the LRU's `clear`) since rows embed model output.
    pub fn with_score_lru(mut self, capacity: usize) -> Self {
        self.score_lru = Some(LruCache::new(capacity));
        self
    }

    /// Cache hit rate so far, if the cache is enabled.
    pub fn cache_hit_rate(&self) -> Option<f64> {
        self.cache.as_ref().map(ResponseCache::hit_rate)
    }

    /// `(hits, misses)` of the score-row LRU, if enabled.
    pub fn score_lru_stats(&self) -> Option<(u64, u64)> {
        self.score_lru.as_ref().map(LruCache::stats)
    }

    /// The wrapped recommender.
    pub fn model(&self) -> &M {
        &self.model
    }

    /// The server's metrics registry (counters, gauges, stage histograms).
    pub fn metrics(&self) -> &MetricsRegistry {
        &self.obs.registry
    }

    /// Snapshot of the end-to-end request latency histogram (µs) — the
    /// bounded replacement for aggregating over a raw latency log.
    pub fn latency_snapshot(&self) -> HistogramSnapshot {
        self.obs.request_latency.snapshot()
    }

    /// The most recent request latencies (µs), capped at
    /// [`RECENT_LATENCY_WINDOW`] samples. Long-running simulations no
    /// longer grow memory with request count; use
    /// [`ModelServer::latency_snapshot`] for whole-run statistics.
    pub fn latencies_us(&self) -> Vec<u64> {
        self.recent_latencies.snapshot()
    }

    /// Records the end of a request on both the per-path and the combined
    /// histograms plus the recent-sample ring, and ticks the
    /// `serving.requests` total; returns the latency in µs. Every public
    /// handler exit — including degraded and empty responses — funnels
    /// through here, so the counter reconciles exactly against whatever
    /// front (gateway, sharded queue) is driving this server.
    fn finish_request(&self, tenant: usize, timer: SpanTimer, path: &Histogram) -> u64 {
        self.finish_request_us(tenant, timer.elapsed_us(), path)
    }

    /// [`Self::finish_request`] for callers that already measured the
    /// latency — the batched click path finishes many requests off one
    /// shared timer.
    fn finish_request_us(&self, tenant: usize, us: u64, path: &Histogram) -> u64 {
        path.record(us);
        self.obs.request_latency.record(us);
        self.obs.slo_latency(tenant).record(us);
        self.obs.requests.inc();
        self.recent_latencies.push(us);
        us
    }

    /// Cold-start tags for a tenant: most frequently clicked (§V-B),
    /// counted as a `serving.cold_start_fallback`. An out-of-range tenant
    /// degrades to an empty result (plus an error counter) instead of
    /// panicking. As a top-level request path it ticks `serving.requests`
    /// and records into `serving.cold_start_us` / `serving.request_us` —
    /// the in-question fallback uses [`Self::cold_start_inner`] and is
    /// accounted once, as a question.
    pub fn cold_start_tags(&self, tenant: usize) -> Vec<usize> {
        let timer = SpanTimer::start();
        self.obs.tenant_requests(tenant).inc();
        let tags = self.cold_start_inner(tenant);
        self.finish_request(tenant, timer, &self.obs.cold_start_latency);
        tags
    }

    /// The cold-start lookup without request-level accounting.
    fn cold_start_inner(&self, tenant: usize) -> Vec<usize> {
        let Some(pool) = self.tenant_tags.get(tenant) else {
            self.obs.err_bad_tenant.inc();
            return Vec::new();
        };
        self.obs.cold_start.inc();
        self.popularity_tags(pool)
    }

    /// The popularity ranking behind the cold-start fallback, without the
    /// fallback counter — also used to top up short tag lists on answered
    /// questions, which is not a cold start.
    fn popularity_tags(&self, pool: &[usize]) -> Vec<usize> {
        let mut pool = pool.to_vec();
        pool.sort_by(|&a, &b| {
            let count = |t: usize| self.click_counts.get(t).copied().unwrap_or(0);
            count(b).cmp(&count(a)).then(a.cmp(&b))
        });
        pool.truncate(self.tags_per_response);
        pool
    }

    /// Handles a typed question: recall + best match + `asc` tags. With a
    /// Q&A matcher attached, the BM25 recall set is re-ranked by match score
    /// (recall-then-rerank, exactly the deployed §V-A pipeline).
    pub fn handle_question(&self, tenant: usize, question: &str) -> QuestionResponse {
        self.handle_question_inner(tenant, question, None)
    }

    /// [`Self::handle_question`] recording per-stage spans into `trace`.
    pub fn handle_question_traced(
        &self,
        tenant: usize,
        question: &str,
        trace: &TraceHandle,
    ) -> QuestionResponse {
        self.handle_question_inner(tenant, question, Some(trace))
    }

    fn handle_question_inner(
        &self,
        tenant: usize,
        question: &str,
        trace: Option<&TraceHandle>,
    ) -> QuestionResponse {
        let timer = SpanTimer::start();
        self.obs.tenant_requests(tenant).inc();
        if tenant >= self.tenant_tags.len() {
            self.obs.err_bad_tenant.inc();
            let latency_us = self.finish_request(tenant, timer, &self.obs.question_latency);
            return QuestionResponse {
                rq: None,
                answer: None,
                recommended_tags: Vec::new(),
                latency_us,
            };
        }
        let best = match &self.qa_matcher {
            Some(matcher) => {
                let recall_span = self.obs.stage_recall.span();
                let recall = trace_stage(trace, "recall", || {
                    self.kb.recall_for_tenant(question, tenant, 10)
                });
                recall_span.finish();
                let rerank_span = self.obs.stage_rerank.span();
                // Only the top match is served, so skip the full sort.
                let top = trace_stage(trace, "rerank", || {
                    matcher.rerank_top1(
                        question,
                        recall.iter().map(|h| (h.doc, self.kb.pair(h.doc).question.as_str())),
                    )
                });
                rerank_span.finish();
                top.map(|rq| (rq, self.kb.pair(rq)))
            }
            None => {
                let recall_span = self.obs.stage_recall.span();
                let best = trace_stage(trace, "recall", || self.kb.best_match(question, tenant));
                recall_span.finish();
                best
            }
        };
        let (rq, answer, recommended_tags) = match best {
            Some((rq, pair)) => {
                // Recommend the matched question's own tags (asc relation),
                // backfilled with cold-start popularity.
                let mut tags = self.rq_tags[rq].clone();
                for t in self.popularity_tags(&self.tenant_tags[tenant]) {
                    if tags.len() >= self.tags_per_response {
                        break;
                    }
                    if !tags.contains(&t) {
                        tags.push(t);
                    }
                }
                tags.truncate(self.tags_per_response);
                (Some(rq), Some(pair.answer.clone()), tags)
            }
            None => (None, None, self.cold_start_inner(tenant)),
        };
        let latency_us = self.finish_request(tenant, timer, &self.obs.question_latency);
        QuestionResponse { rq, answer, recommended_tags, latency_us }
    }

    /// An empty tag-click response for degraded requests (bad tenant, no
    /// usable clicks) — the serving path never panics on malformed input.
    fn degraded_click_response(&self, tenant: usize, timer: SpanTimer) -> TagClickResponse {
        let latency_us = self.finish_request(tenant, timer, &self.obs.click_latency);
        TagClickResponse {
            recommended_tags: Vec::new(),
            predicted_questions: Vec::new(),
            latency_us,
        }
    }

    /// Handles a tag click: the model ranks next tags (restricted to the
    /// tenant's inventory) and the click history becomes an ES query whose
    /// recall is re-ranked by tag overlap (§V-A).
    ///
    /// Malformed requests degrade gracefully: empty click lists, unknown
    /// tenants and unknown tag ids produce an empty response (and error
    /// counters) rather than a panic in the hot serving path.
    pub fn handle_tag_click(&self, tenant: usize, clicks: &[usize]) -> TagClickResponse {
        self.handle_tag_click_inner(tenant, clicks, None)
    }

    /// [`Self::handle_tag_click`] recording per-stage spans into `trace`.
    pub fn handle_tag_click_traced(
        &self,
        tenant: usize,
        clicks: &[usize],
        trace: &TraceHandle,
    ) -> TagClickResponse {
        self.handle_tag_click_inner(tenant, clicks, Some(trace))
    }

    fn handle_tag_click_inner(
        &self,
        tenant: usize,
        clicks: &[usize],
        trace: Option<&TraceHandle>,
    ) -> TagClickResponse {
        let timer = SpanTimer::start();
        self.obs.tenant_requests(tenant).inc();
        if clicks.is_empty() {
            self.obs.err_empty_clicks.inc();
            return self.degraded_click_response(tenant, timer);
        }
        if tenant >= self.tenant_tags.len() {
            self.obs.err_bad_tenant.inc();
            return self.degraded_click_response(tenant, timer);
        }
        // Unknown tag ids can't be looked up in the tag-text table; drop
        // them (counted) and serve from the remaining clicks.
        let valid: Vec<usize> =
            clicks.iter().copied().filter(|&t| t < self.tag_texts.len()).collect();
        if valid.len() < clicks.len() {
            self.obs.err_bad_tag.add((clicks.len() - valid.len()) as u64);
            if valid.is_empty() {
                return self.degraded_click_response(tenant, timer);
            }
        }
        let clicks = &valid[..];

        if let Some(cache) = &self.cache {
            let cache_span = self.obs.stage_cache.span();
            let key = (tenant, clicks.to_vec());
            let cached = trace_stage(trace, "cache", || cache.get(&key));
            cache_span.finish();
            if let Some(mut resp) = cached {
                self.obs.cache_hit.inc();
                resp.latency_us = self.finish_request(tenant, timer, &self.obs.click_latency);
                return resp;
            }
            self.obs.cache_miss.inc();
        }

        // One sorted lookup set per request: membership checks drop from
        // O(clicks) scans per candidate to O(log clicks).
        let click_set = sorted_click_set(clicks);

        // --- next-tag recommendation (model scoring stage) ----------------
        let pool = &self.tenant_tags[tenant];
        let score_span = self.obs.stage_score.span();
        let scores = trace_stage(trace, "score", || self.scored_row(tenant, clicks, pool));
        score_span.finish();
        let recommended_tags = self.recommend_from_scores(&click_set, pool, scores);

        // --- predicted questions (recall stage + overlap rerank stage) ----
        // Query = concatenated clicked-tag texts (paper: "the user's
        // successive clicked tags are composed as a query").
        let query = self.click_query(clicks);
        let recall_span = self.obs.stage_recall.span();
        let recall = trace_stage(trace, "recall", || self.kb.recall_for_tenant(&query, tenant, 20));
        recall_span.finish();
        let rerank_span = self.obs.stage_rerank.span();
        let predicted_questions =
            trace_stage(trace, "rerank", || self.rerank_recall(&click_set, &recall));
        rerank_span.finish();

        let latency_us = self.finish_request(tenant, timer, &self.obs.click_latency);
        let resp = TagClickResponse { recommended_tags, predicted_questions, latency_us };
        if let Some(cache) = &self.cache {
            cache.put((tenant, clicks.to_vec()), resp.clone());
        }
        resp
    }

    /// One score row for `(tenant, clicks)` over the tenant's pool, via the
    /// score-row LRU when enabled. Scores are deterministic for a fixed
    /// checkpoint, so a cached row is bit-identical to a fresh forward.
    fn scored_row(&self, tenant: usize, clicks: &[usize], pool: &[usize]) -> Vec<f32> {
        let Some(lru) = &self.score_lru else {
            return self.model.score_candidates(clicks, pool);
        };
        let key = (tenant, clicks.to_vec());
        if let Some(row) = lru.get(&key) {
            self.obs.record_score_lru(true);
            return row;
        }
        self.obs.record_score_lru(false);
        let row = self.model.score_candidates(clicks, pool);
        lru.put(key, row.clone());
        row
    }

    /// The ES query for a click history: concatenated clicked-tag texts
    /// (paper: "the user's successive clicked tags are composed as a query").
    fn click_query(&self, clicks: &[usize]) -> String {
        clicks.iter().map(|&t| self.tag_texts[t].as_str()).collect::<Vec<_>>().join(" ")
    }

    /// Ranks a candidate pool by model score, dropping already-clicked tags.
    /// Shared by the serial and batched click paths so both rank identically.
    fn recommend_from_scores(
        &self,
        click_set: &[usize],
        pool: &[usize],
        scores: Vec<f32>,
    ) -> Vec<usize> {
        let clicked = |t: usize| click_set.binary_search(&t).is_ok();
        let mut ranked: Vec<(usize, f32)> =
            pool.iter().copied().zip(scores).filter(|&(t, _)| !clicked(t)).collect();
        ranked.sort_by(|a, b| {
            b.1.partial_cmp(&a.1).unwrap_or(std::cmp::Ordering::Equal).then(a.0.cmp(&b.0))
        });
        ranked.into_iter().take(self.tags_per_response).map(|(t, _)| t).collect()
    }

    /// Overlap-reranks BM25 recall for a click history (§V-A). Shared by
    /// the serial and batched click paths so both rerank identically.
    fn rerank_recall(&self, click_set: &[usize], recall: &[Hit]) -> Vec<usize> {
        let clicked = |t: usize| click_set.binary_search(&t).is_ok();
        let max_bm25 = recall.first().map_or(1.0, |h| h.score.max(1e-6));
        let mut rescored: Vec<(usize, f32)> = recall
            .iter()
            .map(|h| {
                let overlap = self.rq_tags[h.doc].iter().filter(|&&t| clicked(t)).count() as f32;
                (h.doc, h.score / max_bm25 + 2.0 * overlap)
            })
            .collect();
        rescored.sort_by(|a, b| {
            b.1.partial_cmp(&a.1).unwrap_or(std::cmp::Ordering::Equal).then(a.0.cmp(&b.0))
        });
        rescored.into_iter().take(self.questions_per_response).map(|(q, _)| q).collect()
    }

    /// Handles a micro-batch of tag clicks with one batched score call.
    ///
    /// Per request this is bit-exact with [`Self::handle_tag_click`]
    /// (`same_content`-identical responses): validation, cache lookups and
    /// ranking run per request exactly as in the serial path, while the
    /// model forward is issued once via
    /// [`SequenceRecommender::score_candidates_batch`] over the deduplicated
    /// `(tenant, clicks)` set and BM25 recall is shared across requests that
    /// produce the same query. Per-request counters and the per-path
    /// histograms tick once per request, so registry reconciliation
    /// (`serving.requests` == requests served) is unchanged; stage
    /// histograms record the amortized per-request share of the shared
    /// stages.
    pub fn handle_tag_click_batch(&self, reqs: &[(usize, Vec<usize>)]) -> Vec<TagClickResponse> {
        self.handle_tag_click_batch_inner(reqs, &[])
    }

    /// [`Self::handle_tag_click_batch`] with per-request tracing: `traces`
    /// runs parallel to `reqs` (missing/short entries mean "untraced").
    /// Traced requests get per-stage spans; the shared batched forward is
    /// recorded per request as its amortized share, mirroring the
    /// `serving.stage.score_us` accounting.
    pub fn handle_tag_click_batch_traced(
        &self,
        reqs: &[(usize, Vec<usize>)],
        traces: &[Option<TraceHandle>],
    ) -> Vec<TagClickResponse> {
        self.handle_tag_click_batch_inner(reqs, traces)
    }

    fn handle_tag_click_batch_inner(
        &self,
        reqs: &[(usize, Vec<usize>)],
        traces: &[Option<TraceHandle>],
    ) -> Vec<TagClickResponse> {
        use std::collections::HashMap;

        struct Pending {
            idx: usize,
            tenant: usize,
            clicks: Vec<usize>,
            timer: SpanTimer,
            score_row: usize,
            trace: Option<TraceHandle>,
        }

        let trace_for = |idx: usize| traces.get(idx).and_then(Option::as_ref);
        let mut out: Vec<Option<TagClickResponse>> = reqs.iter().map(|_| None).collect();
        let mut pending: Vec<Pending> = Vec::new();
        // Identical (tenant, clicks) requests share one scored row: the
        // forward is deterministic, so one row serves them all.
        let mut score_rows: HashMap<(usize, Vec<usize>), usize> = HashMap::new();
        let mut uniq: Vec<(usize, Vec<usize>)> = Vec::new();

        // --- per-request validation + cache, exactly as the serial path ---
        for (idx, (tenant, raw_clicks)) in reqs.iter().enumerate() {
            let tenant = *tenant;
            let timer = SpanTimer::start();
            self.obs.tenant_requests(tenant).inc();
            if raw_clicks.is_empty() {
                self.obs.err_empty_clicks.inc();
                out[idx] = Some(self.degraded_click_response(tenant, timer));
                continue;
            }
            if tenant >= self.tenant_tags.len() {
                self.obs.err_bad_tenant.inc();
                out[idx] = Some(self.degraded_click_response(tenant, timer));
                continue;
            }
            let valid: Vec<usize> =
                raw_clicks.iter().copied().filter(|&t| t < self.tag_texts.len()).collect();
            if valid.len() < raw_clicks.len() {
                self.obs.err_bad_tag.add((raw_clicks.len() - valid.len()) as u64);
                if valid.is_empty() {
                    out[idx] = Some(self.degraded_click_response(tenant, timer));
                    continue;
                }
            }
            if let Some(cache) = &self.cache {
                let cache_span = self.obs.stage_cache.span();
                let cached =
                    trace_stage(trace_for(idx), "cache", || cache.get(&(tenant, valid.clone())));
                cache_span.finish();
                if let Some(mut resp) = cached {
                    self.obs.cache_hit.inc();
                    resp.latency_us = self.finish_request(tenant, timer, &self.obs.click_latency);
                    out[idx] = Some(resp);
                    continue;
                }
                self.obs.cache_miss.inc();
            }
            let score_row = *score_rows.entry((tenant, valid.clone())).or_insert_with(|| {
                uniq.push((tenant, valid.clone()));
                uniq.len() - 1
            });
            pending.push(Pending {
                idx,
                tenant,
                clicks: valid,
                timer,
                score_row,
                trace: trace_for(idx).cloned(),
            });
        }

        // --- one batched forward over every unique (clicks, pool) ---------
        // The score-row LRU is consulted first: rows remembered from earlier
        // drains (or the serial path — both forwards are bit-identical) drop
        // out of the stacked forward entirely, so a hot tenant repeating its
        // click prefix shrinks the batch instead of re-deriving known rows.
        let mut uniq_scores: Vec<Option<Vec<f32>>> = vec![None; uniq.len()];
        if !pending.is_empty() {
            let score_timer = SpanTimer::start();
            // Per-trace origin offsets at the start of the shared forward;
            // each member's "score" span covers its amortized share.
            let trace_starts: Vec<Option<u64>> =
                pending.iter().map(|p| p.trace.as_ref().map(TraceHandle::now_us)).collect();
            if let Some(lru) = &self.score_lru {
                for (row, key) in uniq.iter().enumerate() {
                    if let Some(scores) = lru.get(key) {
                        self.obs.record_score_lru(true);
                        uniq_scores[row] = Some(scores);
                    } else {
                        self.obs.record_score_lru(false);
                    }
                }
            }
            let missing: Vec<usize> =
                (0..uniq.len()).filter(|&r| uniq_scores[r].is_none()).collect();
            if !missing.is_empty() {
                let batch: Vec<(&[usize], &[usize])> = missing
                    .iter()
                    .map(|&r| {
                        let (tenant, clicks) = &uniq[r];
                        (clicks.as_slice(), self.tenant_tags[*tenant].as_slice())
                    })
                    .collect();
                let fresh = self.model.score_candidates_batch(&batch);
                for (&r, row) in missing.iter().zip(fresh) {
                    if let Some(lru) = &self.score_lru {
                        lru.put(uniq[r].clone(), row.clone());
                    }
                    uniq_scores[r] = Some(row);
                }
            }
            let share = score_timer.elapsed_us() / pending.len() as u64;
            for (p, start) in pending.iter().zip(trace_starts) {
                self.obs.stage_score.record(share);
                if let (Some(trace), Some(t0)) = (&p.trace, start) {
                    trace.record("score", t0, t0 + share);
                }
            }
        }

        // --- assemble responses, sharing recall across equal queries ------
        let mut recall_memo: HashMap<(usize, String), Vec<Hit>> = HashMap::new();
        for p in pending {
            let click_set = sorted_click_set(&p.clicks);
            let pool = &self.tenant_tags[p.tenant];
            let scores = uniq_scores[p.score_row]
                .clone()
                .expect("every pending request's score row was resolved");
            let recommended_tags = self.recommend_from_scores(&click_set, pool, scores);

            let query = self.click_query(&p.clicks);
            let recall_span = self.obs.stage_recall.span();
            let recall = trace_stage(p.trace.as_ref(), "recall", || {
                recall_memo.entry((p.tenant, query)).or_insert_with_key(|(tenant, query)| {
                    self.kb.recall_for_tenant(query, *tenant, 20)
                })
            });
            recall_span.finish();
            let rerank_span = self.obs.stage_rerank.span();
            let predicted_questions =
                trace_stage(p.trace.as_ref(), "rerank", || self.rerank_recall(&click_set, recall));
            rerank_span.finish();

            let latency_us = self.finish_request(p.tenant, p.timer, &self.obs.click_latency);
            let resp = TagClickResponse { recommended_tags, predicted_questions, latency_us };
            if let Some(cache) = &self.cache {
                cache.put((p.tenant, p.clicks), resp.clone());
            }
            out[p.idx] = Some(resp);
        }
        out.into_iter().map(|r| r.expect("every request produced a response")).collect()
    }
}

/// Sorted click list for O(log n) membership checks during ranking.
fn sorted_click_set(clicks: &[usize]) -> Vec<usize> {
    let mut set = clicks.to_vec();
    set.sort_unstable();
    set
}

/// Runs `f`, recording it as a named span on `trace` when one is attached.
/// The untraced path pays a single `Option` branch — no clock reads.
fn trace_stage<R>(trace: Option<&TraceHandle>, name: &'static str, f: impl FnOnce() -> R) -> R {
    match trace {
        None => f(),
        Some(t) => {
            let t0 = t.now_us();
            let out = f();
            t.record(name, t0, t.now_us());
            out
        }
    }
}

impl<M: SequenceRecommender> TagService for ModelServer<M> {
    fn handle_question(&self, tenant: usize, question: &str) -> QuestionResponse {
        ModelServer::handle_question(self, tenant, question)
    }

    fn handle_tag_click(&self, tenant: usize, clicks: &[usize]) -> TagClickResponse {
        ModelServer::handle_tag_click(self, tenant, clicks)
    }

    fn cold_start_tags(&self, tenant: usize) -> Vec<usize> {
        ModelServer::cold_start_tags(self, tenant)
    }

    fn metrics(&self) -> &MetricsRegistry {
        ModelServer::metrics(self)
    }

    fn latency_snapshot(&self) -> HistogramSnapshot {
        ModelServer::latency_snapshot(self)
    }

    fn policy(&self) -> String {
        self.model.name().to_string()
    }

    fn model_version(&self) -> u64 {
        ModelServer::model_version(self)
    }

    fn handle_question_traced(
        &self,
        tenant: usize,
        question: &str,
        trace: &TraceHandle,
    ) -> QuestionResponse {
        ModelServer::handle_question_traced(self, tenant, question, trace)
    }

    fn handle_tag_click_traced(
        &self,
        tenant: usize,
        clicks: &[usize],
        trace: &TraceHandle,
    ) -> TagClickResponse {
        ModelServer::handle_tag_click_traced(self, tenant, clicks, trace)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use intellitag_baselines::Popularity;

    fn server() -> ModelServer<Popularity> {
        let mut kb = KbWarehouse::new();
        kb.add_pair("how to change password", "settings > security", 0);
        kb.add_pair("how to apply for etc card", "apply in the etc menu", 0);
        kb.add_pair("where to cancel the order", "orders > cancel", 1);
        // tags: 0 change, 1 password, 2 apply, 3 etc card, 4 cancel, 5 order
        let tag_texts = vec![
            "change".into(),
            "password".into(),
            "apply".into(),
            "etc card".into(),
            "cancel".into(),
            "order".into(),
        ];
        let rq_tags = vec![vec![0, 1], vec![2, 3], vec![4, 5]];
        let tenant_tags = vec![vec![0, 1, 2, 3], vec![4, 5]];
        let clicks = vec![5, 9, 3, 7, 2, 4];
        let model = Popularity::from_counts(&clicks);
        ModelServer::new(model, kb, tag_texts, rq_tags, tenant_tags, clicks)
    }

    fn counter_value(s: &ModelServer<Popularity>, name: &str) -> u64 {
        s.metrics().counter(name).get()
    }

    #[test]
    fn question_path_returns_answer_and_asc_tags() {
        let s = server();
        let r = s.handle_question(0, "i need to change my password");
        assert_eq!(r.rq, Some(0));
        assert!(r.answer.unwrap().contains("security"));
        // asc tags of RQ 0 come first
        assert_eq!(&r.recommended_tags[..2], &[0, 1]);
    }

    #[test]
    fn unknown_question_falls_back_to_cold_start() {
        let s = server();
        let r = s.handle_question(0, "zzz qqq completely unknown");
        assert_eq!(r.rq, None);
        assert!(r.answer.is_none());
        assert_eq!(r.recommended_tags, s.cold_start_tags(0));
        assert!(counter_value(&s, "serving.cold_start_fallback") >= 1);
    }

    #[test]
    fn cold_start_ranks_by_click_frequency() {
        let s = server();
        // Tenant 0 pool {0,1,2,3} with counts {5,9,3,7} -> 1,3,0,2
        assert_eq!(s.cold_start_tags(0), vec![1, 3, 0, 2]);
    }

    #[test]
    fn tag_click_restricts_to_tenant_and_excludes_clicked() {
        let s = server();
        let r = s.handle_tag_click(0, &[1]);
        assert!(!r.recommended_tags.contains(&1), "clicked tag excluded");
        assert!(r.recommended_tags.iter().all(|t| [0, 2, 3].contains(t)));
    }

    #[test]
    fn tag_click_predicts_matching_question() {
        let s = server();
        let r = s.handle_tag_click(0, &[0, 1]); // "change password"
        assert_eq!(r.predicted_questions.first(), Some(&0));
    }

    #[test]
    fn cache_serves_repeated_clicks() {
        let s = server().with_cache(16);
        let a = s.handle_tag_click(0, &[0, 1]);
        let b = s.handle_tag_click(0, &[0, 1]);
        assert_eq!(a.recommended_tags, b.recommended_tags);
        assert_eq!(a.predicted_questions, b.predicted_questions);
        assert_eq!(s.cache_hit_rate(), Some(0.5));
        assert_eq!(counter_value(&s, "serving.cache.hit"), 1);
        assert_eq!(counter_value(&s, "serving.cache.miss"), 1);
        // Different key misses.
        let _ = s.handle_tag_click(0, &[1]);
        assert!(s.cache_hit_rate().unwrap() < 0.5);
        assert_eq!(counter_value(&s, "serving.cache.miss"), 2);
    }

    #[test]
    fn qa_matcher_reranks_question_recall() {
        use crate::qa_matcher::{QaMatcher, QaMatcherConfig};
        // Train a matcher whose pairs bind "passphrase" queries to RQ 0.
        let corpus = vec![
            "how to change password".to_string(),
            "how to apply for etc card".to_string(),
            "where to cancel the order".to_string(),
        ];
        let pairs = vec![
            ("change my password now".to_string(), corpus[0].clone()),
            ("password change how".to_string(), corpus[0].clone()),
            ("apply etc card".to_string(), corpus[1].clone()),
            ("etc card application".to_string(), corpus[1].clone()),
            ("cancel order please".to_string(), corpus[2].clone()),
            ("order cancel where".to_string(), corpus[2].clone()),
        ];
        let matcher = QaMatcher::train(
            &pairs,
            &corpus,
            QaMatcherConfig {
                train: crate::TrainConfig { epochs: 20, lr: 1e-2, ..Default::default() },
                ..Default::default()
            },
        );
        let s = server().with_qa_matcher(matcher);
        let r = s.handle_question(0, "password change how please");
        assert_eq!(r.rq, Some(0), "matcher should pick the password RQ");
        assert!(r.answer.unwrap().contains("security"));
        // The rerank stage ran and was timed.
        assert_eq!(s.metrics().histogram("serving.stage.rerank_us").count(), 1);
    }

    #[test]
    fn batched_clicks_match_serial_responses() {
        // Same server, same requests: the batched path must produce
        // `same_content`-identical responses to one-at-a-time serving,
        // including degraded requests mixed into the batch.
        let reqs: Vec<(usize, Vec<usize>)> = vec![
            (0, vec![0, 1]),
            (1, vec![4]),
            (0, vec![]),       // degraded: empty clicks
            (99, vec![0]),     // degraded: bad tenant
            (0, vec![1, 999]), // bad tag dropped, still served
            (0, vec![0, 1]),   // duplicate of the first request
            (0, vec![999]),    // degraded: all clicks invalid
            (1, vec![5, 4]),
        ];
        let serial_server = server();
        let serial: Vec<TagClickResponse> =
            reqs.iter().map(|(t, c)| serial_server.handle_tag_click(*t, c)).collect();
        let batch_server = server();
        let batched = batch_server.handle_tag_click_batch(&reqs);
        assert_eq!(batched.len(), serial.len());
        for (i, (b, s)) in batched.iter().zip(&serial).enumerate() {
            assert!(b.same_content(s), "request {i}: batched {b:?} != serial {s:?}");
        }
        // Request accounting is per-request, not per-batch.
        assert_eq!(counter_value(&batch_server, "serving.requests"), reqs.len() as u64);
        assert_eq!(
            batch_server.metrics().histogram("serving.tag_click_us").count(),
            reqs.len() as u64
        );
        assert_eq!(counter_value(&batch_server, "serving.error.empty_clicks"), 1);
        assert_eq!(counter_value(&batch_server, "serving.error.bad_tenant"), 1);
        assert_eq!(counter_value(&batch_server, "serving.error.bad_tag"), 2);
        // Served (non-degraded) requests each tick the shared stages.
        assert_eq!(batch_server.metrics().histogram("serving.stage.score_us").count(), 5);
        assert_eq!(batch_server.metrics().histogram("serving.stage.recall_us").count(), 5);
        assert_eq!(batch_server.metrics().histogram("serving.stage.rerank_us").count(), 5);
    }

    #[test]
    fn batched_clicks_with_cache_hit_and_fill() {
        let s = server().with_cache(16);
        let warm = s.handle_tag_click(0, &[0, 1]);
        let batched = s.handle_tag_click_batch(&[(0, vec![0, 1]), (0, vec![2])]);
        // First request hits the warm cache entry; second misses and fills.
        assert!(batched[0].same_content(&warm));
        assert_eq!(counter_value(&s, "serving.cache.hit"), 1);
        assert_eq!(counter_value(&s, "serving.cache.miss"), 2);
        let again = s.handle_tag_click(0, &[2]);
        assert!(again.same_content(&batched[1]), "batch-computed responses are cached");
        assert_eq!(counter_value(&s, "serving.cache.hit"), 2);
    }

    #[test]
    fn empty_batch_is_a_no_op() {
        let s = server();
        assert!(s.handle_tag_click_batch(&[]).is_empty());
        assert_eq!(counter_value(&s, "serving.requests"), 0);
        assert_eq!(s.metrics().histogram("serving.stage.score_us").count(), 0);
    }

    #[test]
    fn question_path_does_not_reencode_kb_per_request() {
        use crate::qa_matcher::{QaMatcher, QaMatcherConfig};
        let corpus = vec![
            "how to change password".to_string(),
            "how to apply for etc card".to_string(),
            "where to cancel the order".to_string(),
        ];
        let pairs = vec![
            ("change my password now".to_string(), corpus[0].clone()),
            ("apply etc card".to_string(), corpus[1].clone()),
            ("cancel order please".to_string(), corpus[2].clone()),
        ];
        let matcher = QaMatcher::train(&pairs, &corpus, QaMatcherConfig::default());
        let s = server().with_qa_matcher(matcher);
        // with_qa_matcher prewarmed all 3 KB RQs.
        let prewarmed = s.qa_matcher.as_ref().unwrap().encode_calls();
        assert_eq!(prewarmed, 3);
        let questions = 5u64;
        for i in 0..questions {
            let _ = s.handle_question(0, &format!("change password please {i}"));
        }
        // Exactly one encode per question (the query side); the KB candidates
        // all come from the memo.
        assert_eq!(s.qa_matcher.as_ref().unwrap().encode_calls(), prewarmed + questions);
        assert!(s.qa_matcher.as_ref().unwrap().cache_hits() > 0);
    }

    /// Popularity wrapper that counts how many rows the model actually
    /// scored — the quantity the score-row LRU exists to reduce.
    struct CountingModel {
        inner: Popularity,
        scored_rows: std::cell::Cell<usize>,
    }

    impl CountingModel {
        fn new(inner: Popularity) -> Self {
            CountingModel { inner, scored_rows: std::cell::Cell::new(0) }
        }
    }

    impl intellitag_baselines::SequenceRecommender for CountingModel {
        fn name(&self) -> &str {
            self.inner.name()
        }

        fn score_all(&self, context: &[usize]) -> Vec<f32> {
            self.inner.score_all(context)
        }

        fn score_candidates(&self, context: &[usize], candidates: &[usize]) -> Vec<f32> {
            self.scored_rows.set(self.scored_rows.get() + 1);
            self.inner.score_candidates(context, candidates)
        }

        fn score_candidates_batch(&self, reqs: &[(&[usize], &[usize])]) -> Vec<Vec<f32>> {
            self.scored_rows.set(self.scored_rows.get() + reqs.len());
            self.inner.score_candidates_batch(reqs)
        }
    }

    fn counting_server() -> ModelServer<CountingModel> {
        let plain = server();
        let mut kb = KbWarehouse::new();
        kb.add_pair("how to change password", "settings > security", 0);
        kb.add_pair("how to apply for etc card", "apply in the etc menu", 0);
        kb.add_pair("where to cancel the order", "orders > cancel", 1);
        let clicks = vec![5, 9, 3, 7, 2, 4];
        ModelServer::new(
            CountingModel::new(Popularity::from_counts(&clicks)),
            kb,
            plain.tag_texts.clone(),
            plain.rq_tags.clone(),
            plain.tenant_tags.clone(),
            clicks,
        )
    }

    #[test]
    fn score_lru_skips_repeat_forwards_across_drains() {
        // Hot-tenant skew: one tenant repeats the same short click prefixes
        // drain after drain. With the score-row LRU, the second drain's
        // stacked forward must shrink to only the unseen rows.
        let hot: Vec<(usize, Vec<usize>)> =
            vec![(0, vec![0, 1]), (0, vec![1]), (0, vec![0, 1]), (1, vec![4]), (0, vec![1])];
        let s = counting_server().with_score_lru(16);

        let first = s.handle_tag_click_batch(&hot);
        let after_first = s.model().scored_rows.get();
        assert_eq!(after_first, 3, "first drain scores each unique (tenant, clicks) once");
        assert_eq!(s.score_lru_stats(), Some((0, 3)));

        let second = s.handle_tag_click_batch(&hot);
        let after_second = s.model().scored_rows.get();
        assert_eq!(after_second, after_first, "repeat drain must not re-run any forward");
        assert_eq!(s.score_lru_stats(), Some((3, 3)));
        assert_eq!(s.metrics().counter("serving.score_lru.hits").get(), 3);
        assert_eq!(s.metrics().counter("serving.score_lru.misses").get(), 3);
        assert_eq!(s.metrics().gauge("serving.score_lru.hit_ratio").get(), 0.5);

        // Cached rows must not change the answers.
        for (i, (a, b)) in first.iter().zip(&second).enumerate() {
            assert!(a.same_content(b), "request {i} diverged when served from the score LRU");
        }

        // A drain mixing old and new prefixes scores only the new ones.
        let mixed: Vec<(usize, Vec<usize>)> = vec![(0, vec![0, 1]), (0, vec![2]), (1, vec![5])];
        let _ = s.handle_tag_click_batch(&mixed);
        assert_eq!(s.model().scored_rows.get(), after_second + 2, "only unseen rows forwarded");
    }

    #[test]
    fn score_lru_serves_serial_path_and_matches_uncached() {
        let cached = counting_server().with_score_lru(8);
        let plain = counting_server();
        let a1 = cached.handle_tag_click(0, &[0, 1]);
        let a2 = cached.handle_tag_click(0, &[0, 1]);
        let b1 = plain.handle_tag_click(0, &[0, 1]);
        let b2 = plain.handle_tag_click(0, &[0, 1]);
        assert!(a1.same_content(&a2));
        assert!(a1.same_content(&b1), "LRU-served response must match the uncached server");
        assert!(a2.same_content(&b2));
        assert_eq!(cached.model().scored_rows.get(), 1, "second click reused the cached row");
        assert_eq!(plain.model().scored_rows.get(), 2, "without the LRU every repeat re-scores");
        assert_eq!(cached.score_lru_stats(), Some((1, 1)));
        // Serial and batched paths share one LRU: a batch drain containing
        // the same prefix also skips its forward.
        let _ = cached.handle_tag_click_batch(&[(0, vec![0, 1])]);
        assert_eq!(cached.model().scored_rows.get(), 1);
    }

    #[test]
    fn score_lru_disabled_by_default() {
        let s = counting_server();
        let _ = s.handle_tag_click(0, &[0, 1]);
        let _ = s.handle_tag_click(0, &[0, 1]);
        assert_eq!(s.score_lru_stats(), None);
        assert_eq!(s.model().scored_rows.get(), 2);
        assert_eq!(s.metrics().counter("serving.score_lru.hits").get(), 0);
    }

    #[test]
    fn traced_click_records_stage_spans_and_matches_untraced() {
        use intellitag_obs::TraceHandle;
        let s = server().with_cache(8);
        let trace = TraceHandle::new(0xfeed);
        let traced = s.handle_tag_click_traced(0, &[0, 1], &trace);
        let plain = s.handle_tag_click(0, &[0, 1]);
        assert!(traced.same_content(&plain), "tracing must not change the answer");
        let done = trace.finish();
        assert_eq!(done.trace_id, 0xfeed);
        let names: Vec<&str> = done.spans.iter().map(|sp| sp.name).collect();
        assert_eq!(names, vec!["cache", "score", "recall", "rerank"]);
        for sp in &done.spans {
            assert!(sp.end_us >= sp.start_us);
        }
        // Span durations sum to no more than the request wall time.
        let span_sum: u64 = done.spans.iter().map(|sp| sp.duration_us()).sum();
        assert!(span_sum <= traced.latency_us.max(done.total_us) + 1);
    }

    #[test]
    fn traced_question_records_recall_span() {
        use intellitag_obs::TraceHandle;
        let s = server();
        let trace = TraceHandle::new(1);
        let traced = s.handle_question_traced(0, "change password", &trace);
        let plain = s.handle_question(0, "change password");
        assert!(traced.same_content(&plain));
        let names: Vec<&str> = trace.finish().spans.iter().map(|sp| sp.name).collect();
        assert_eq!(names, vec!["recall"]);
    }

    #[test]
    fn traced_batch_records_amortized_score_spans() {
        use intellitag_obs::TraceHandle;
        let reqs: Vec<(usize, Vec<usize>)> = vec![(0, vec![0, 1]), (1, vec![4]), (0, vec![2])];
        let traces: Vec<Option<TraceHandle>> =
            (0..reqs.len()).map(|i| Some(TraceHandle::new(i as u64 + 1))).collect();
        let batch_server = server();
        let batched = batch_server.handle_tag_click_batch_traced(&reqs, &traces);
        let serial_server = server();
        for (i, (b, (t, c))) in batched.iter().zip(&reqs).enumerate() {
            assert!(
                b.same_content(&serial_server.handle_tag_click(*t, c)),
                "request {i} diverged under tracing"
            );
            let done = traces[i].as_ref().unwrap().finish();
            let names: Vec<&str> = done.spans.iter().map(|sp| sp.name).collect();
            assert_eq!(names, vec!["score", "recall", "rerank"], "request {i}: {names:?}");
        }
        // Untraced requests in a traced drain are fine (short traces slice).
        let out = batch_server.handle_tag_click_batch_traced(&reqs, &[]);
        assert_eq!(out.len(), reqs.len());
    }

    #[test]
    fn slo_series_record_per_tier_latency() {
        use intellitag_obs::SloReport;
        let s = server();
        let _ = s.handle_tag_click(0, &[0]); // tenant 0 -> gold
        let _ = s.handle_tag_click(1, &[4]); // tenant 1 -> silver
        let _ = s.handle_question(0, "change password"); // gold again
        let gold =
            s.metrics().histogram_labeled("slo.latency_us", &[("tenant_tier", "gold")]).snapshot();
        assert_eq!(gold.count, 2);
        let silver = s
            .metrics()
            .histogram_labeled("slo.latency_us", &[("tenant_tier", "silver")])
            .snapshot();
        assert_eq!(silver.count, 1);
        let report = SloReport::from_registry(s.metrics(), 150_000);
        let tiers: Vec<&str> = report.tiers.iter().map(|t| t.tier.as_str()).collect();
        assert!(tiers.contains(&"gold") && tiers.contains(&"silver"), "{tiers:?}");
    }

    #[test]
    fn pool_threads_gauge_is_published() {
        let s = server();
        let rendered = s.metrics().render_prometheus();
        assert!(
            rendered.contains("tensor_pool_threads"),
            "tensor.pool_threads gauge missing from scrape:\n{rendered}"
        );
    }

    #[test]
    fn install_model_invalidates_caches_and_bumps_version() {
        // The latent stale-cache bug the hot-swap exposes: both the response
        // cache and the score-row LRU hold *old-model* output, so a swap
        // that kept them would answer repeated keys from the previous
        // version. install_model must clear both.
        let s = server().with_cache(16).with_score_lru(16);
        let mut s = s;
        let pre = s.handle_tag_click(0, &[1]);
        let _ = s.handle_tag_click(0, &[1]); // warm both caches
        assert_eq!(counter_value(&s, "serving.cache.hit"), 1);
        assert_eq!(s.model_version(), 0);
        assert_eq!(s.metrics().gauge("serving.model_version").get(), 0.0);

        // New model with an inverted popularity order — same key must now
        // rank differently.
        let flipped = Popularity::from_counts(&[9, 2, 7, 3, 5, 4]);
        s.install_model(flipped, 7);
        assert_eq!(s.model_version(), 7);
        assert_eq!(s.metrics().gauge("serving.model_version").get(), 7.0);
        assert_eq!(counter_value(&s, "serving.swaps"), 1);
        assert_eq!(s.cache_hit_rate(), Some(0.0), "response cache cleared");
        assert_eq!(s.score_lru_stats(), Some((0, 0)), "score LRU cleared");

        // A fresh server built directly from the new model is the oracle:
        // the swapped server must answer repeated keys identically to it.
        let mut fresh = server();
        fresh.install_model(Popularity::from_counts(&[9, 2, 7, 3, 5, 4]), 7);
        let post = s.handle_tag_click(0, &[1]);
        let oracle = fresh.handle_tag_click(0, &[1]);
        assert!(post.same_content(&oracle), "post-swap response must come from the new model");
        assert!(
            !post.same_content(&pre),
            "probe key must distinguish the versions for this test to bite"
        );
    }

    #[test]
    fn with_model_version_tags_replica_and_gauge() {
        let registry = MetricsRegistry::new();
        let s = server().with_metrics(registry.clone()).with_model_version(3);
        assert_eq!(s.model_version(), 3);
        assert_eq!(TagService::model_version(&s), 3);
        assert_eq!(registry.gauge("serving.model_version").get(), 3.0);
    }

    #[test]
    fn cache_disabled_by_default() {
        let s = server();
        let _ = s.handle_tag_click(0, &[0]);
        assert_eq!(s.cache_hit_rate(), None);
        assert_eq!(s.metrics().histogram("serving.stage.cache_us").count(), 0);
    }

    #[test]
    fn latency_is_recorded() {
        let s = server();
        let _ = s.handle_question(0, "change password");
        let _ = s.handle_tag_click(0, &[0]);
        assert_eq!(s.latencies_us().len(), 2);
        assert_eq!(s.latency_snapshot().count, 2);
        assert_eq!(s.metrics().histogram("serving.question_us").count(), 1);
        assert_eq!(s.metrics().histogram("serving.tag_click_us").count(), 1);
    }

    #[test]
    fn recent_latency_log_is_bounded() {
        let s = server();
        for i in 0..(RECENT_LATENCY_WINDOW + 50) {
            let _ = s.handle_tag_click(i % 2, &[if i % 2 == 0 { 0 } else { 4 }]);
        }
        assert_eq!(s.latencies_us().len(), RECENT_LATENCY_WINDOW);
        assert_eq!(s.latency_snapshot().count, (RECENT_LATENCY_WINDOW + 50) as u64);
    }

    #[test]
    fn unknown_tenant_degrades_gracefully() {
        let s = server();
        assert_eq!(s.cold_start_tags(99), Vec::<usize>::new());
        let q = s.handle_question(99, "change password");
        assert_eq!(q.rq, None);
        assert!(q.recommended_tags.is_empty());
        let c = s.handle_tag_click(99, &[0]);
        assert!(c.recommended_tags.is_empty());
        assert!(c.predicted_questions.is_empty());
        assert_eq!(counter_value(&s, "serving.error.bad_tenant"), 3);
        // Degraded requests still count toward latency and request
        // accounting — a fronting gateway's 200s reconcile exactly.
        assert_eq!(s.latency_snapshot().count, 3);
        assert_eq!(counter_value(&s, "serving.requests"), 3);
    }

    #[test]
    fn every_path_ticks_the_request_total() {
        let s = server();
        let _ = s.handle_question(0, "change password"); // answered
        let _ = s.handle_question(0, "zz qq xx"); // cold-start fallback
        let _ = s.handle_tag_click(0, &[0]); // answered
        let _ = s.handle_tag_click(0, &[]); // degraded: empty clicks
        let _ = s.cold_start_tags(0); // top-level cold start
        assert_eq!(counter_value(&s, "serving.requests"), 5);
        assert_eq!(s.latency_snapshot().count, 5);
        // The in-question fallback is accounted once (as a question), the
        // top-level lookup once (as a cold start).
        assert_eq!(s.metrics().histogram("serving.question_us").count(), 2);
        assert_eq!(s.metrics().histogram("serving.cold_start_us").count(), 1);
    }

    #[test]
    fn empty_clicks_do_not_panic() {
        let s = server();
        let r = s.handle_tag_click(0, &[]);
        assert!(r.recommended_tags.is_empty());
        assert!(r.predicted_questions.is_empty());
        assert_eq!(counter_value(&s, "serving.error.empty_clicks"), 1);
    }

    #[test]
    fn unknown_tag_ids_are_dropped_not_fatal() {
        let s = server();
        // 999 is out of range; the valid click 1 still drives the response.
        let r = s.handle_tag_click(0, &[1, 999]);
        assert!(!r.recommended_tags.contains(&1));
        assert_eq!(counter_value(&s, "serving.error.bad_tag"), 1);
        // All-invalid clicks degrade to the empty response.
        let r = s.handle_tag_click(0, &[999, 1000]);
        assert!(r.recommended_tags.is_empty());
        assert_eq!(counter_value(&s, "serving.error.bad_tag"), 3);
    }

    #[test]
    fn per_stage_histograms_populate() {
        let s = server().with_cache(8);
        let _ = s.handle_tag_click(0, &[0, 1]);
        let m = s.metrics();
        for stage in ["recall", "rerank", "score", "cache"] {
            let h = m.histogram(&format!("serving.stage.{stage}_us"));
            assert_eq!(h.count(), 1, "stage {stage} not timed");
        }
        // Per-tenant request counter.
        assert_eq!(counter_value(&s, "serving.requests.tenant_0"), 1);
    }

    #[test]
    fn shared_registry_receives_server_metrics() {
        let registry = MetricsRegistry::new();
        let s = server().with_metrics(registry.clone());
        let _ = s.handle_tag_click(0, &[0]);
        assert_eq!(registry.histogram("serving.tag_click_us").count(), 1);
        let text = registry.render_prometheus();
        assert!(text.contains("serving_tag_click_us_count 1"));
    }

    #[test]
    fn concurrent_clicks_are_all_accounted() {
        // The deployment shape: one server shard per worker thread, all
        // publishing into one shared scrape registry. `ModelServer` itself
        // is not `Sync` (the optional QA matcher holds `Rc`-based params),
        // but the registry is, and every shard's requests must land in it.
        let registry = MetricsRegistry::new();
        let threads = 4;
        let per_thread = 50;
        std::thread::scope(|scope| {
            for t in 0..threads {
                let registry = registry.clone();
                scope.spawn(move || {
                    let s = server().with_metrics(registry);
                    for i in 0..per_thread {
                        let clicks = if (t + i) % 2 == 0 { vec![0] } else { vec![1, 0] };
                        let r = s.handle_tag_click(0, &clicks);
                        assert!(!r.recommended_tags.is_empty());
                    }
                });
            }
        });
        let total = (threads * per_thread) as u64;
        let snap = registry.histogram("serving.request_us").snapshot();
        assert_eq!(snap.count, total, "histogram count == request count");
        assert_eq!(registry.histogram("serving.tag_click_us").count(), total);
        assert_eq!(registry.counter("serving.requests.tenant_0").get(), total);
        let (p50, p90, p99) = (snap.quantile(0.5), snap.quantile(0.9), snap.quantile(0.99));
        assert!(p50 <= p90 && p90 <= p99, "monotone quantiles: {p50} {p90} {p99}");
        assert!(snap.quantile(1.0) == snap.max);
    }
}
