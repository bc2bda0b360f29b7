//! The online model server (paper §V-A): request handling for Q&A dialogue
//! and tag recommendation, with the deployment strategy of §V-B — tag
//! embeddings precomputed offline, only sequence layers run per request,
//! popularity fallback for cold start, `asc`-relation tags after a question.
//!
//! Every request is instrumented through [`intellitag_obs`]: per-stage span
//! timing (ES recall, Q&A-matcher rerank, model scoring), cold-start
//! counters, per-tenant request counters, and
//! bounded log2 latency histograms replacing the old unbounded latency log —
//! the paper's §VI latency budget ("respond in under 150 ms", Table VI) is
//! only actionable when you can see where the time goes.

use std::sync::{mpsc, Arc};

use intellitag_baselines::SequenceRecommender;
use intellitag_obs::{
    Counter, Gauge, Histogram, HistogramSnapshot, MetricsRegistry, SpanTimer, TraceHandle,
    MODEL_SWAPS_METRIC, MODEL_VERSION_METRIC,
};
use intellitag_search::{Hit, KbWarehouse};

use crate::qa_matcher::QaMatcher;
use crate::ShedReason;

/// Tags shown per response.
const TAGS_PER_RESPONSE: usize = 5;
/// Predicted questions shown per response.
const QUESTIONS_PER_RESPONSE: usize = 3;

/// One request to a serving front — the three kinds of §V, each owning its
/// payload so it can ride a queue to whichever thread serves it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request {
    /// A typed question (the Q&A dialogue path).
    Question {
        /// Tenant (enterprise) the request belongs to.
        tenant: usize,
        /// The user's question.
        text: String,
    },
    /// A tag click (the TagRec path).
    TagClick {
        /// Tenant (enterprise) the request belongs to.
        tenant: usize,
        /// The session's clicked tags, oldest first.
        clicks: Vec<usize>,
    },
    /// A tenant's cold-start tags (most frequently clicked, §V-B).
    ColdStart {
        /// Tenant (enterprise) the request belongs to.
        tenant: usize,
    },
}

impl Request {
    /// The tenant the request belongs to — what a front routes on.
    pub(crate) fn tenant(&self) -> usize {
        match *self {
            Request::Question { tenant, .. }
            | Request::TagClick { tenant, .. }
            | Request::ColdStart { tenant } => tenant,
        }
    }
}

/// Whether a front with no room for a request makes its caller wait or
/// turns it away.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Admission {
    /// Backpressure: wait until the request is accepted.
    Block,
    /// Refuse with [`ShedReason::Overloaded`] instead of waiting.
    Shed,
}

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
/// queue per connection; [`TagService::call`] a queue of one).
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
/// A front implements one request method, [`TagService::submit`]; the
/// blocking calls are built on it. The simulator, benches and examples
/// drive traffic through this trait, so swapping fronts is a one-line
/// change and the parity tests can pin that both fronts answer identically.
pub trait TagService {
    /// Submits a request without waiting for the answer: exactly one
    /// [`Completion`] carrying `token` lands on `queue` when it is served,
    /// with the front's spans recorded into `trace` on the way. `Err` means
    /// the front refused it (no room under [`Admission::Shed`] →
    /// [`ShedReason::Overloaded`], worker gone → [`ShedReason::ShuttingDown`])
    /// and nothing will arrive. A synchronous front answers inline, so the
    /// reply is already on the queue on return; a concurrent front enqueues,
    /// so one caller can keep many requests in flight and block on its queue
    /// for whichever completes first.
    fn submit(
        &self,
        request: Request,
        trace: Option<&TraceHandle>,
        admission: Admission,
        queue: &CompletionQueue,
        token: u64,
    ) -> Result<(), ShedReason>;

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

    /// One request's round trip: [`TagService::submit`] to a queue of one,
    /// then wait on it. A request the front dropped unserved is
    /// `Err(ShuttingDown)`.
    fn call(
        &self,
        request: Request,
        trace: Option<&TraceHandle>,
        admission: Admission,
    ) -> Result<Reply, ShedReason> {
        let (queue, completions) = mpsc::channel();
        self.submit(request, trace, admission, &queue, 0)?;
        completions.recv().ok().and_then(|done| done.reply).ok_or(ShedReason::ShuttingDown)
    }

    /// Answers a typed question, blocking under backpressure; a front that
    /// cannot serve it (shutting down) answers with an empty response.
    fn handle_question(&self, tenant: usize, question: &str) -> QuestionResponse {
        let request = Request::Question { tenant, text: question.into() };
        match self.call(request, None, Admission::Block) {
            Ok(Reply::Question(resp)) => resp,
            _ => QuestionResponse::default(),
        }
    }

    /// Answers a tag click (see [`TagService::handle_question`]).
    fn handle_tag_click(&self, tenant: usize, clicks: &[usize]) -> TagClickResponse {
        let request = Request::TagClick { tenant, clicks: clicks.to_vec() };
        match self.call(request, None, Admission::Block) {
            Ok(Reply::TagClick(resp)) => resp,
            _ => TagClickResponse::default(),
        }
    }

    /// A tenant's cold-start tags (see [`TagService::handle_question`]).
    fn cold_start_tags(&self, tenant: usize) -> Vec<usize> {
        match self.call(Request::ColdStart { tenant }, None, Admission::Block) {
            Ok(Reply::ColdStart(tags)) => tags,
            _ => Vec::new(),
        }
    }
}

/// Shared ownership serves transparently: a `Send + Sync` front (e.g.
/// [`crate::ShardedServer`]) wrapped in an [`Arc`] is itself a
/// [`TagService`], so multi-threaded callers like the HTTP gateway can
/// hand every worker a clone of one fleet instead of building a fleet
/// per worker.
impl<S: TagService> TagService for Arc<S> {
    fn submit(
        &self,
        request: Request,
        trace: Option<&TraceHandle>,
        admission: Admission,
        queue: &CompletionQueue,
        token: u64,
    ) -> Result<(), ShedReason> {
        (**self).submit(request, trace, admission, queue, token)
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
}

/// Response to a user question (the Q&A dialogue path).
#[derive(Debug, Clone, Default)]
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
#[derive(Debug, Clone, Default)]
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

/// Metric handles bound once at construction, so the request path never
/// touches the registry's name map and no request can mint a series.
struct ServerMetrics {
    registry: MetricsRegistry,
    /// Total requests served by this front, every path included — degraded
    /// and empty responses too (`serving.requests`). Gateways reconcile
    /// their own per-route counts against this.
    requests: Arc<Counter>,
    /// Per-tenant request counters (`serving.requests.tenant_{N}`), one per
    /// known tenant; an out-of-range tenant has none.
    tenant_requests: Vec<Arc<Counter>>,
    /// End-to-end latency across every request kind (`serving.request_us`).
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
    cold_start: Arc<Counter>,
    err_bad_tenant: Arc<Counter>,
    err_bad_tag: Arc<Counter>,
    err_empty_clicks: Arc<Counter>,
    /// Snapshot version currently installed (`serving.model_version`).
    model_version: Arc<Gauge>,
    /// Hot-swaps applied by this replica (`serving.swaps`).
    swaps: Arc<Counter>,
}

impl ServerMetrics {
    fn bind(registry: MetricsRegistry, tenants: usize) -> Self {
        ServerMetrics {
            requests: registry.counter("serving.requests"),
            tenant_requests: (0..tenants)
                .map(|t| registry.counter(&format!("serving.requests.tenant_{t}")))
                .collect(),
            request_latency: registry.histogram("serving.request_us"),
            question_latency: registry.histogram("serving.question_us"),
            click_latency: registry.histogram("serving.tag_click_us"),
            cold_start_latency: registry.histogram("serving.cold_start_us"),
            stage_recall: registry.histogram("serving.stage.recall_us"),
            stage_rerank: registry.histogram("serving.stage.rerank_us"),
            stage_score: registry.histogram("serving.stage.score_us"),
            cold_start: registry.counter("serving.cold_start_fallback"),
            err_bad_tenant: registry.counter("serving.error.bad_tenant"),
            err_bad_tag: registry.counter("serving.error.bad_tag"),
            err_empty_clicks: registry.counter("serving.error.empty_clicks"),
            model_version: registry.gauge(MODEL_VERSION_METRIC),
            swaps: registry.counter(MODEL_SWAPS_METRIC),
            registry,
        }
    }

    /// Ticks a known tenant's request counter (unknown tenants are counted
    /// as `serving.error.bad_tenant` where they are rejected).
    fn tenant_request(&self, tenant: usize) {
        if let Some(counter) = self.tenant_requests.get(tenant) {
            counter.inc();
        }
    }
}

/// What a replica answers from that no model version changes (§V-B: the
/// servers load precomputed data and never rebuild it): the searchable KB,
/// the tag texts, the `asc` tags per RQ, the tenant tag pools, and each
/// tenant's cold-start ranking, computed once from the click counts. Every
/// replica of a world holds the same catalog through an [`Arc`].
#[derive(Debug)]
pub struct Catalog {
    kb: KbWarehouse,
    /// Surface text per tag (builds the ES query from clicked tags).
    tag_texts: Vec<String>,
    /// Ground-truth tags per RQ (`asc` relation, drives re-ranking and the
    /// after-question tag recommendation).
    rq_tags: Vec<Vec<usize>>,
    /// Tag inventory per tenant (results never cross tenants).
    tenant_tags: Vec<Vec<usize>>,
    /// Per tenant, the pool's most-clicked tags, most first and ties by id
    /// (cold-start popularity, §V-B).
    cold_start: Vec<Vec<usize>>,
}

impl Catalog {
    /// Takes the tables a replica serves from. `click_counts` are global
    /// per-tag click counts; only each tenant's popularity ranking is kept.
    pub fn new(
        kb: KbWarehouse,
        tag_texts: Vec<String>,
        rq_tags: Vec<Vec<usize>>,
        tenant_tags: Vec<Vec<usize>>,
        click_counts: Vec<usize>,
    ) -> Self {
        assert_eq!(kb.len(), rq_tags.len(), "one tag list per RQ");
        assert_eq!(tag_texts.len(), click_counts.len(), "one count per tag");
        let count = |t: usize| click_counts.get(t).copied().unwrap_or(0);
        let cold_start = tenant_tags
            .iter()
            .map(|pool| {
                let mut pool = pool.clone();
                pool.sort_by(|&a, &b| count(b).cmp(&count(a)).then(a.cmp(&b)));
                pool.truncate(TAGS_PER_RESPONSE);
                pool
            })
            .collect();
        Catalog { kb, tag_texts, rq_tags, tenant_tags, cold_start }
    }
}

/// The model server: one recommender over a shared [`Catalog`], fully
/// instrumented through a shared [`MetricsRegistry`].
pub struct ModelServer<M: SequenceRecommender> {
    model: M,
    /// Version of the snapshot `model` was loaded from (0 = built directly,
    /// never published). Bumped by [`ModelServer::install_model`].
    model_version: u64,
    catalog: Arc<Catalog>,
    obs: ServerMetrics,
    /// Optional Q&A matching model re-ranking question recall (the deployed
    /// system's RoBERTa matcher, §V-A).
    qa_matcher: Option<QaMatcher>,
}

impl<M: SequenceRecommender> ModelServer<M> {
    /// Assembles a server over a shared catalog, with its own private
    /// metrics registry; use [`ModelServer::with_metrics`] to share one
    /// across components.
    pub fn with_catalog(model: M, catalog: Arc<Catalog>) -> Self {
        ModelServer {
            model,
            model_version: 0,
            obs: ServerMetrics::bind(MetricsRegistry::new(), catalog.tenant_tags.len()),
            catalog,
            qa_matcher: None,
        }
    }

    /// [`ModelServer::with_catalog`] over a catalog of its own. Kept only
    /// because the frozen benchmark calls it (`benchmark/src/stack.rs`);
    /// goes with ROADMAP item 2, like [`ModelServer::cache_hit_rate`].
    pub fn new(
        model: M,
        kb: KbWarehouse,
        tag_texts: Vec<String>,
        rq_tags: Vec<Vec<usize>>,
        tenant_tags: Vec<Vec<usize>>,
        click_counts: Vec<usize>,
    ) -> Self {
        Self::with_catalog(
            model,
            Arc::new(Catalog::new(kb, tag_texts, rq_tags, tenant_tags, click_counts)),
        )
    }

    /// Rebinds the server onto a shared metrics registry (e.g. one also fed
    /// by the training loops and the online simulator). Call before serving
    /// traffic — metrics recorded so far stay in the old registry.
    pub fn with_metrics(mut self, registry: MetricsRegistry) -> Self {
        self.obs = ServerMetrics::bind(registry, self.catalog.tenant_tags.len());
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

    /// Installs a freshly loaded model at a drain boundary (the epoch-fenced
    /// hot-swap path — [`crate::ShardedServer::spawn_swappable`] calls this
    /// strictly between micro-batch drains).
    ///
    /// The replica keeps no other state derived from the model, so post-swap
    /// responses are byte-identical to a server freshly built from the
    /// installed snapshot.
    pub fn install_model(&mut self, model: M, version: u64) {
        self.model = model;
        self.model_version = version;
        self.obs.model_version.set(version as f64);
        self.obs.swaps.inc();
    }

    /// Attaches a trained Q&A matcher; question recall is then re-ranked by
    /// match score instead of raw BM25 order. The KB's RQ texts are encoded
    /// into the matcher's memo here, once — no request pays a first-touch
    /// encode, and the question path never re-encodes the KB.
    pub fn with_qa_matcher(mut self, matcher: QaMatcher) -> Self {
        let kb = &self.catalog.kb;
        matcher.prewarm((0..kb.len()).map(|rq| kb.pair(rq).question.as_str()));
        self.qa_matcher = Some(matcher);
        self
    }

    /// Always `None`: there is no response cache. Kept only because the
    /// frozen benchmark reads it; goes with ROADMAP item 2(a)'s removals.
    pub fn cache_hit_rate(&self) -> Option<f64> {
        None
    }

    /// Serves one request — the path every front and every blocking call
    /// reaches a replica through. A tag click is a drain of one.
    pub(crate) fn serve(&self, request: Request, trace: Option<&TraceHandle>) -> Reply {
        match request {
            Request::Question { tenant, text } => {
                Reply::Question(self.question(tenant, &text, trace))
            }
            Request::TagClick { tenant, clicks } => {
                let mut one = self.click_drain(&[(tenant, clicks)], &[trace]);
                Reply::TagClick(one.pop().expect("a drain of one answers once"))
            }
            Request::ColdStart { tenant } => Reply::ColdStart(self.cold_start(tenant, trace)),
        }
    }

    /// Records the end of a request on both the per-path and the combined
    /// histograms, and ticks the
    /// `serving.requests` total; returns the latency in µs. Every request
    /// exit — including degraded and empty responses — funnels through
    /// here, so the counter reconciles exactly against whatever front
    /// (gateway, sharded queue) is driving this server.
    fn finish_request(&self, timer: SpanTimer, path: &Histogram) -> u64 {
        let us = timer.elapsed_us();
        path.record(us);
        self.obs.request_latency.record(us);
        self.obs.requests.inc();
        us
    }

    /// Cold-start tags for a tenant as a top-level request: the `cold_start`
    /// stage, accounted in `serving.cold_start_us` / `serving.request_us`.
    /// The in-question fallback uses [`Self::cold_start_inner`] and is
    /// accounted once, as a question.
    fn cold_start(&self, tenant: usize, trace: Option<&TraceHandle>) -> Vec<usize> {
        let timer = SpanTimer::start();
        self.obs.tenant_request(tenant);
        let tags = trace_stage(trace, "cold_start", || self.cold_start_inner(tenant));
        self.finish_request(timer, &self.obs.cold_start_latency);
        tags
    }

    /// The most frequently clicked tags of a tenant (§V-B), counted as a
    /// `serving.cold_start_fallback`. An out-of-range tenant degrades to an
    /// empty result (plus an error counter) instead of panicking.
    fn cold_start_inner(&self, tenant: usize) -> Vec<usize> {
        let Some(tags) = self.catalog.cold_start.get(tenant) else {
            self.obs.err_bad_tenant.inc();
            return Vec::new();
        };
        self.obs.cold_start.inc();
        tags.clone()
    }

    /// A typed question: recall + best match + `asc` tags. With a Q&A
    /// matcher attached, the BM25 recall set is re-ranked by match score
    /// (recall-then-rerank, exactly the deployed §V-A pipeline).
    fn question(
        &self,
        tenant: usize,
        question: &str,
        trace: Option<&TraceHandle>,
    ) -> QuestionResponse {
        let timer = SpanTimer::start();
        self.obs.tenant_request(tenant);
        let catalog = &*self.catalog;
        if tenant >= catalog.tenant_tags.len() {
            self.obs.err_bad_tenant.inc();
            let latency_us = self.finish_request(timer, &self.obs.question_latency);
            return QuestionResponse { latency_us, ..Default::default() };
        }
        let best = match &self.qa_matcher {
            Some(matcher) => {
                let recall_span = self.obs.stage_recall.span();
                let recall = trace_stage(trace, "recall", || {
                    catalog.kb.recall_for_tenant(question, tenant, 10)
                });
                recall_span.finish();
                let rerank_span = self.obs.stage_rerank.span();
                // Only the top match is served, so skip the full sort.
                let top = trace_stage(trace, "rerank", || {
                    matcher.rerank_top1(
                        question,
                        recall.iter().map(|h| (h.doc, catalog.kb.pair(h.doc).question.as_str())),
                    )
                });
                rerank_span.finish();
                top.map(|rq| (rq, catalog.kb.pair(rq)))
            }
            None => {
                let recall_span = self.obs.stage_recall.span();
                let best = trace_stage(trace, "recall", || catalog.kb.best_match(question, tenant));
                recall_span.finish();
                best
            }
        };
        let (rq, answer, recommended_tags) = match best {
            Some((rq, pair)) => {
                // Recommend the matched question's own tags (asc relation),
                // backfilled with cold-start popularity.
                let mut tags = catalog.rq_tags[rq].clone();
                for &t in &catalog.cold_start[tenant] {
                    if tags.len() >= TAGS_PER_RESPONSE {
                        break;
                    }
                    if !tags.contains(&t) {
                        tags.push(t);
                    }
                }
                tags.truncate(TAGS_PER_RESPONSE);
                (Some(rq), Some(pair.answer.clone()), tags)
            }
            None => (None, None, self.cold_start_inner(tenant)),
        };
        let latency_us = self.finish_request(timer, &self.obs.question_latency);
        QuestionResponse { rq, answer, recommended_tags, latency_us }
    }

    /// The usable part of a click trail, or `None` when nothing is left to
    /// serve — empty clicks, an unknown tenant, only unknown tag ids — so
    /// malformed requests degrade to an empty response (plus error
    /// counters) rather than a panic in the hot serving path. Unknown tag
    /// ids can't be looked up in the tag-text table; they are dropped
    /// (counted) and the rest served.
    fn valid_clicks(&self, tenant: usize, clicks: &[usize]) -> Option<Vec<usize>> {
        if clicks.is_empty() {
            self.obs.err_empty_clicks.inc();
            return None;
        }
        if tenant >= self.catalog.tenant_tags.len() {
            self.obs.err_bad_tenant.inc();
            return None;
        }
        let valid: Vec<usize> =
            clicks.iter().copied().filter(|&t| t < self.catalog.tag_texts.len()).collect();
        if valid.len() < clicks.len() {
            self.obs.err_bad_tag.add((clicks.len() - valid.len()) as u64);
        }
        (!valid.is_empty()).then_some(valid)
    }

    /// The ES query for a click history: concatenated clicked-tag texts
    /// (paper: "the user's successive clicked tags are composed as a query").
    fn click_query(&self, clicks: &[usize]) -> String {
        clicks.iter().map(|&t| self.catalog.tag_texts[t].as_str()).collect::<Vec<_>>().join(" ")
    }

    /// Ranks a candidate pool by model score, dropping already-clicked tags.
    fn recommend_from_scores(
        &self,
        click_set: &[usize],
        pool: &[usize],
        scores: &[f32],
    ) -> Vec<usize> {
        let clicked = |t: usize| click_set.binary_search(&t).is_ok();
        let mut ranked: Vec<(usize, f32)> = pool
            .iter()
            .copied()
            .zip(scores.iter().copied())
            .filter(|&(t, _)| !clicked(t))
            .collect();
        ranked.sort_by(|a, b| {
            b.1.partial_cmp(&a.1).unwrap_or(std::cmp::Ordering::Equal).then(a.0.cmp(&b.0))
        });
        ranked.into_iter().take(TAGS_PER_RESPONSE).map(|(t, _)| t).collect()
    }

    /// Overlap-reranks BM25 recall for a click history (§V-A).
    fn rerank_recall(&self, click_set: &[usize], recall: &[Hit]) -> Vec<usize> {
        let clicked = |t: usize| click_set.binary_search(&t).is_ok();
        let max_bm25 = recall.first().map_or(1.0, |h| h.score.max(1e-6));
        let mut rescored: Vec<(usize, f32)> = recall
            .iter()
            .map(|h| {
                let overlap =
                    self.catalog.rq_tags[h.doc].iter().filter(|&&t| clicked(t)).count() as f32;
                (h.doc, h.score / max_bm25 + 2.0 * overlap)
            })
            .collect();
        rescored.sort_by(|a, b| {
            b.1.partial_cmp(&a.1).unwrap_or(std::cmp::Ordering::Equal).then(a.0.cmp(&b.0))
        });
        rescored.into_iter().take(QUESTIONS_PER_RESPONSE).map(|(q, _)| q).collect()
    }

    /// Handles a micro-batch of untraced tag clicks, answering each exactly
    /// as a lone [`TagService::handle_tag_click`] would (`same_content`).
    pub fn handle_tag_click_batch(&self, reqs: &[(usize, Vec<usize>)]) -> Vec<TagClickResponse> {
        self.click_drain(reqs, &[])
    }

    /// The tag-click path (§V-A), for a whole drain at once: the model ranks
    /// next tags (restricted to the tenant's inventory) and the click
    /// history becomes an ES query whose recall is re-ranked by tag overlap.
    /// `traces` runs parallel to `reqs`; a missing entry means untraced.
    ///
    /// Validation, ranking and BM25 recall run per request, while the model
    /// forward is issued once via
    /// [`SequenceRecommender::score_candidates_batch`] with one row per
    /// valid request. Counters and
    /// the per-path histograms tick once per request, so registry
    /// reconciliation (`serving.requests` == requests served) holds; the
    /// `serving.stage.score_us` samples and each traced request's `score`
    /// span are its amortized share of the shared forward.
    pub(crate) fn click_drain(
        &self,
        reqs: &[(usize, Vec<usize>)],
        traces: &[Option<&TraceHandle>],
    ) -> Vec<TagClickResponse> {
        /// A request past validation, still to be answered.
        struct Pending<'t> {
            idx: usize,
            tenant: usize,
            clicks: Vec<usize>,
            timer: SpanTimer,
            trace: Option<&'t TraceHandle>,
        }

        let mut out: Vec<Option<TagClickResponse>> = reqs.iter().map(|_| None).collect();
        let mut pending: Vec<Pending> = Vec::new();
        for (idx, (tenant, raw)) in reqs.iter().enumerate() {
            let (tenant, trace) = (*tenant, traces.get(idx).copied().flatten());
            let timer = SpanTimer::start();
            self.obs.tenant_request(tenant);
            let Some(clicks) = self.valid_clicks(tenant, raw) else {
                let latency_us = self.finish_request(timer, &self.obs.click_latency);
                out[idx] = Some(TagClickResponse { latency_us, ..Default::default() });
                continue;
            };
            pending.push(Pending { idx, tenant, clicks, timer, trace });
        }

        // --- one forward, one row per request -------------------------------
        let batch: Vec<(&[usize], &[usize])> = pending
            .iter()
            .map(|p| (&p.clicks[..], &self.catalog.tenant_tags[p.tenant][..]))
            .collect();
        let forward = SpanTimer::start();
        let scores =
            if batch.is_empty() { Vec::new() } else { self.model.score_candidates_batch(&batch) };
        let elapsed = forward.elapsed_us();
        let share = elapsed / pending.len().max(1) as u64;
        for p in &pending {
            self.obs.stage_score.record(share);
            if let Some(t) = p.trace {
                let t0 = t.now_us().saturating_sub(elapsed);
                t.record("score", t0, t0 + share);
            }
        }

        // --- rank, recall and rerank per request ----------------------------
        for (p, scores) in pending.into_iter().zip(&scores) {
            // One sorted lookup set per request: membership checks drop
            // from O(clicks) scans per candidate to O(log clicks).
            let click_set = sorted_click_set(&p.clicks);
            let pool = &self.catalog.tenant_tags[p.tenant];
            let recommended_tags = self.recommend_from_scores(&click_set, pool, scores);
            let recall_span = self.obs.stage_recall.span();
            let recall = trace_stage(p.trace, "recall", || {
                self.catalog.kb.recall_for_tenant(&self.click_query(&p.clicks), p.tenant, 20)
            });
            recall_span.finish();
            let rerank_span = self.obs.stage_rerank.span();
            let predicted_questions =
                trace_stage(p.trace, "rerank", || self.rerank_recall(&click_set, &recall));
            rerank_span.finish();

            let latency_us = self.finish_request(p.timer, &self.obs.click_latency);
            out[p.idx] =
                Some(TagClickResponse { recommended_tags, predicted_questions, latency_us });
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

/// A synchronous front: every request is answered inline on the caller's
/// thread, and nothing is ever shed.
impl<M: SequenceRecommender> TagService for ModelServer<M> {
    fn submit(
        &self,
        request: Request,
        trace: Option<&TraceHandle>,
        _admission: Admission,
        queue: &CompletionQueue,
        token: u64,
    ) -> Result<(), ShedReason> {
        let _ = queue.send(Completion { token, reply: Some(self.serve(request, trace)) });
        Ok(())
    }

    fn metrics(&self) -> &MetricsRegistry {
        &self.obs.registry
    }

    fn latency_snapshot(&self) -> HistogramSnapshot {
        self.obs.request_latency.snapshot()
    }

    fn policy(&self) -> String {
        self.model.name().to_string()
    }

    fn model_version(&self) -> u64 {
        self.model_version
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use intellitag_baselines::Popularity;
    use intellitag_obs::TraceHandle;

    /// Global click counts of the toy catalog's six tags.
    pub(crate) const TOY_CLICKS: [usize; 6] = [5, 9, 3, 7, 2, 4];

    /// Three RQs over six tags in two tenants — tags: 0 change,
    /// 1 password, 2 apply, 3 etc card, 4 cancel, 5 order.
    pub(crate) fn toy_catalog() -> Arc<Catalog> {
        let mut kb = KbWarehouse::new();
        kb.add_pair("how to change password", "settings > security", 0);
        kb.add_pair("how to apply for etc card", "apply in the etc menu", 0);
        kb.add_pair("where to cancel the order", "orders > cancel", 1);
        let tag_texts = ["change", "password", "apply", "etc card", "cancel", "order"];
        Arc::new(Catalog::new(
            kb,
            tag_texts.map(String::from).to_vec(),
            vec![vec![0, 1], vec![2, 3], vec![4, 5]],
            vec![vec![0, 1, 2, 3], vec![4, 5]],
            TOY_CLICKS.to_vec(),
        ))
    }

    fn server() -> ModelServer<Popularity> {
        ModelServer::with_catalog(Popularity::from_counts(&TOY_CLICKS), toy_catalog())
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

    /// Serves one request through [`TagService::call`], recording its
    /// spans into `trace`.
    fn traced(s: &ModelServer<Popularity>, request: Request, trace: &TraceHandle) -> Reply {
        s.call(request, Some(trace), Admission::Block).expect("a synchronous front never sheds")
    }

    fn span_names(trace: &TraceHandle) -> Vec<&'static str> {
        trace.finish().spans.iter().map(|sp| sp.name).collect()
    }

    #[test]
    fn traced_click_records_stage_spans_and_matches_untraced() {
        let s = server();
        let trace = TraceHandle::new(0xfeed);
        let Reply::TagClick(traced) =
            traced(&s, Request::TagClick { tenant: 0, clicks: vec![0, 1] }, &trace)
        else {
            panic!("a click answers with a click reply")
        };
        let plain = s.handle_tag_click(0, &[0, 1]);
        assert!(traced.same_content(&plain), "tracing must not change the answer");
        let done = trace.finish();
        assert_eq!(done.trace_id, 0xfeed);
        let names: Vec<&str> = done.spans.iter().map(|sp| sp.name).collect();
        assert_eq!(names, vec!["score", "recall", "rerank"]);
        for sp in &done.spans {
            assert!(sp.end_us >= sp.start_us);
        }
        // Span durations sum to no more than the request wall time.
        let span_sum: u64 = done.spans.iter().map(|sp| sp.duration_us()).sum();
        assert!(span_sum <= traced.latency_us.max(done.total_us) + 1);
    }

    #[test]
    fn traced_question_records_recall_span() {
        let s = server();
        let trace = TraceHandle::new(1);
        let request = Request::Question { tenant: 0, text: "change password".into() };
        let Reply::Question(traced) = traced(&s, request, &trace) else {
            panic!("a question answers with a question reply")
        };
        assert!(traced.same_content(&s.handle_question(0, "change password")));
        assert_eq!(span_names(&trace), vec!["recall"]);
    }

    #[test]
    fn traced_cold_start_records_its_stage_span() {
        let s = server();
        let trace = TraceHandle::new(2);
        let Reply::ColdStart(tags) = traced(&s, Request::ColdStart { tenant: 0 }, &trace) else {
            panic!("a cold start answers with tags")
        };
        assert_eq!(tags, s.cold_start_tags(0));
        assert_eq!(span_names(&trace), vec!["cold_start"]);
    }

    #[test]
    fn a_lone_click_is_a_drain_of_one() {
        // The blocking call and a one-request drain are the same path: the
        // same answer, the same stage spans, the same stage accounting.
        let (lone, drained) = (server(), server());
        let reply = lone.handle_tag_click(0, &[0, 1]);
        let batch = drained.handle_tag_click_batch(&[(0, vec![0, 1])]);
        assert!(reply.same_content(&batch[0]));
        for s in [&lone, &drained] {
            for stage in ["score", "recall", "rerank"] {
                let h = s.metrics().histogram(&format!("serving.stage.{stage}_us"));
                assert_eq!(h.count(), 1, "stage {stage}");
            }
        }
        let (a, b) = (TraceHandle::new(3), TraceHandle::new(4));
        let _ = traced(&lone, Request::TagClick { tenant: 0, clicks: vec![0, 1] }, &a);
        let _ = drained.click_drain(&[(0, vec![0, 1])], &[Some(&b)]);
        let names = span_names(&a);
        assert_eq!(names, ["score", "recall", "rerank"]);
        assert_eq!(span_names(&b), names);
    }

    #[test]
    fn traced_batch_records_amortized_score_spans() {
        let reqs: Vec<(usize, Vec<usize>)> = vec![(0, vec![0, 1]), (1, vec![4]), (0, vec![2])];
        let traces: Vec<TraceHandle> =
            (0..reqs.len()).map(|i| TraceHandle::new(i as u64 + 1)).collect();
        let batch_server = server();
        let batched = batch_server.click_drain(&reqs, &traces.iter().map(Some).collect::<Vec<_>>());
        let serial_server = server();
        for (i, (b, (t, c))) in batched.iter().zip(&reqs).enumerate() {
            assert!(
                b.same_content(&serial_server.handle_tag_click(*t, c)),
                "request {i} diverged under tracing"
            );
            let names = span_names(&traces[i]);
            assert_eq!(names, vec!["score", "recall", "rerank"], "request {i}: {names:?}");
        }
        // Untraced requests in a traced drain are fine (short traces slice).
        let out = batch_server.click_drain(&reqs, &[]);
        assert_eq!(out.len(), reqs.len());
    }

    #[test]
    fn install_model_invalidates_caches_and_bumps_version() {
        // No answer derived from the old model may survive a swap: a
        // repeated key must be answered by the installed version.
        let mut s = server();
        let pre = s.handle_tag_click(0, &[1]);
        assert_eq!(s.model_version(), 0);
        assert_eq!(s.metrics().gauge("serving.model_version").get(), 0.0);

        // New model with an inverted popularity order — same key must now
        // rank differently.
        let flipped = Popularity::from_counts(&[9, 2, 7, 3, 5, 4]);
        s.install_model(flipped, 7);
        assert_eq!(s.model_version(), 7);
        assert_eq!(s.metrics().gauge("serving.model_version").get(), 7.0);
        assert_eq!(counter_value(&s, "serving.swaps"), 1);

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
    fn latency_is_recorded() {
        let s = server();
        let _ = s.handle_question(0, "change password");
        let _ = s.handle_tag_click(0, &[0]);
        assert_eq!(s.latency_snapshot().count, 2);
        assert_eq!(s.metrics().histogram("serving.question_us").count(), 1);
        assert_eq!(s.metrics().histogram("serving.tag_click_us").count(), 1);
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
    fn out_of_range_tenants_mint_no_metric_series() {
        // Tenant ids come straight off the wire: however many distinct bad
        // ones arrive, the registry — and so `/metrics` — must not grow.
        let s = server();
        let kinds = |tenant: usize| {
            let _ = s.handle_question(tenant, "change password");
            let _ = s.handle_tag_click(tenant, &[0]);
            let _ = s.cold_start_tags(tenant);
        };
        kinds(0);
        kinds(99);
        let series = s.metrics().names().len();
        for tenant in 1_000..11_000 {
            let request = match tenant % 3 {
                0 => Request::Question { tenant, text: "change password".into() },
                1 => Request::TagClick { tenant, clicks: vec![0] },
                _ => Request::ColdStart { tenant },
            };
            let _ = s.call(request, None, Admission::Block);
        }
        assert_eq!(s.metrics().names().len(), series);
        assert_eq!(counter_value(&s, "serving.error.bad_tenant"), 3 + 10_000);
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
        let s = server();
        let _ = s.handle_tag_click(0, &[0, 1]);
        let m = s.metrics();
        for stage in ["recall", "rerank", "score"] {
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
