//! The reference stack, built in one place from the program's defaults.
//!
//! world → one trained checkpoint saved to bytes → per-shard replicas loaded
//! from those bytes → sharded front → gateway (→ WAL sink + trainer thread +
//! hot-swap when the learning loop is on). No cache, governor or routing
//! option is switched on here: the benchmark measures what the defaults
//! ship, so a later change to a default is measured without touching this
//! file. Every value below that is *not* a program default is a named
//! constant with its reason.

use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use intellitag::core::{QaMatcher, QaMatcherConfig};
use intellitag::graph::HetGraph;
use intellitag::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Seed of the synthetic world. A constant: `--seed` drives only the request
/// stream, so every run serves the same corpus with the same model.
pub const WORLD_SEED: u64 = 2021;
/// Seed of the paraphrase pairs the Q&A matcher trains on.
const MATCHER_SEED: u64 = 0x9A11;
/// Sessions the day-zero checkpoint trains on (one epoch). Serving cost does
/// not depend on how well the model ranks, only on its shape, and the full
/// 3000-session epoch would spend 10 s of every run's set-up on training.
const TRAIN_SESSIONS: usize = 400;
/// The sharded front never gets more workers than this, whatever the box.
const MAX_SHARDS: usize = 4;
/// WAL group-commit size. `WalWriter::open` has no default; 8 is what every
/// example in the repository passes.
const WAL_SYNC_EVERY: usize = 8;
/// The learning loop is fed every this-many-th accepted event. Fed every
/// event at rate r2 the shipped trainer falls behind without bound (an
/// increment costs about 3.7 ms per event on the reference box, r2 brings
/// 1300 events a second; see README.md), which leaves a run with two or
/// three hot-swaps at unpredictable times. One in ten keeps it at roughly
/// half its capacity, so versions arrive several times a second and a cost
/// paid per version shows.
pub const WAL_SAMPLE_EVERY: u64 = 10;
/// How long the trainer thread sleeps when a poll finds too few events.
const TRAINER_IDLE_POLL: Duration = Duration::from_millis(10);
/// How long stopping the learning loop waits for a poll in progress.
const TRAINER_STOP_WAIT: Duration = Duration::from_secs(2);
/// Snapshots the registry retains (older ones are evicted).
const SNAPSHOT_CAPACITY: usize = 4;

/// Hardware threads available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// Directory for everything a run writes (span files, results, the WAL).
pub fn out_dir() -> PathBuf {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    std::fs::create_dir_all(&dir).expect("create benchmark/out");
    dir
}

/// The data every replica shares; only the model bytes differ by version.
pub struct Reference {
    pub world: World,
    graph: HetGraph,
    texts: Vec<String>,
    cfg: TagRecConfig,
    /// Tag pool per tenant.
    pub pools: Vec<Vec<usize>>,
    /// `(paraphrase, RQ text)` pairs and the RQ corpus the matcher trains on.
    qa_pairs: Vec<(String, String)>,
    corpus: Vec<String>,
    /// The day-zero checkpoint, `IntelliTag::save` format.
    pub snapshot: Arc<Vec<u8>>,
    /// Wall time of world generation plus the one training run.
    pub offline_s: f64,
}

impl Reference {
    /// Generates the world and trains the one checkpoint. `check` swaps in
    /// the tiny world for the smoke mode.
    pub fn build(check: bool) -> Reference {
        let started = Instant::now();
        let world = World::generate(if check {
            WorldConfig::tiny(WORLD_SEED)
        } else {
            WorldConfig::small(WORLD_SEED)
        });
        let graph = world.build_graph();
        let texts: Vec<String> = world.tags.iter().map(|t| t.text()).collect();
        let sessions: Vec<Vec<usize>> = world
            .sessions
            .iter()
            .take(if check { 60 } else { TRAIN_SESSIONS })
            .map(|s| s.clicks.clone())
            .collect();
        let mut cfg = TagRecConfig::default();
        cfg.train.epochs = 1;
        let model = IntelliTag::train(&graph, &texts, &sessions, cfg);
        let mut snapshot = Vec::new();
        model.save(&mut snapshot).expect("in-memory save");

        let mut rng = StdRng::seed_from_u64(MATCHER_SEED);
        let corpus: Vec<String> = world.rqs.iter().map(|r| r.text()).collect();
        let qa_pairs = (0..world.rqs.len())
            .map(|rq| (world.paraphrase_question(rq, &mut rng), corpus[rq].clone()))
            .collect();
        let pools = (0..world.tenants.len()).map(|t| world.tenant_tag_pool(t)).collect();
        Reference {
            world,
            graph,
            texts,
            cfg,
            pools,
            qa_pairs,
            corpus,
            snapshot: Arc::new(snapshot),
            offline_s: started.elapsed().as_secs_f64(),
        }
    }

    pub fn tag_texts(&self) -> &[String] {
        &self.texts
    }

    pub fn model_config(&self) -> TagRecConfig {
        self.cfg
    }

    /// Rebuilds a model from checkpoint bytes.
    pub fn load_model(&self, bytes: &[u8]) -> IntelliTag {
        IntelliTag::load(&self.graph, &self.texts, self.cfg, &mut &bytes[..])
            .expect("checkpoint bytes load")
    }

    /// The Q&A matcher has no save format, so each replica trains its own;
    /// fixed pairs and seed make every replica's matcher identical.
    pub fn matcher(&self) -> QaMatcher {
        QaMatcher::train(&self.qa_pairs, &self.corpus, QaMatcherConfig::default())
    }

    /// One serving replica over `bytes` — also how the oracle is built.
    pub fn replica(&self, bytes: &[u8]) -> ModelServer<IntelliTag> {
        ModelServer::new(
            self.load_model(bytes),
            self.world.build_kb(),
            self.texts.clone(),
            self.world.rqs.iter().map(|r| r.tags.clone()).collect(),
            self.pools.clone(),
            self.world.click_frequency(),
        )
        .with_qa_matcher(self.matcher())
    }
}

/// A model version reaching one shard: the loader ran from `start_ns` to
/// `end_ns` (since the run's epoch) inside that shard's worker, which
/// installs the model immediately after.
#[derive(Debug, Clone, Copy)]
pub struct Apply {
    pub shard: usize,
    pub version: u64,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// One training increment the trainer thread completed.
#[derive(Debug, Clone, Copy)]
pub struct Increment {
    pub version: u64,
    /// Events folded into the model up to and including this increment.
    pub events_consumed: u64,
    /// Events this increment folded.
    pub events: u64,
    /// `wal.appends` minus events consumed when the poll began.
    pub lag_events: u64,
    pub start_ns: u64,
    pub end_ns: u64,
    pub snapshot_bytes: usize,
}

/// Passes every [`WAL_SAMPLE_EVERY`]-th served event on to the WAL.
struct SampledSink {
    wal: Arc<WalSink>,
    seen: AtomicU64,
}

impl SampledSink {
    fn sampled(&self) -> bool {
        self.seen.fetch_add(1, Ordering::Relaxed) % WAL_SAMPLE_EVERY == WAL_SAMPLE_EVERY - 1
    }
}

impl EventSink for SampledSink {
    fn tag_click(&self, tenant: usize, clicks: &[usize]) {
        if self.sampled() {
            self.wal.tag_click(tenant, clicks);
        }
    }

    fn question(&self, tenant: usize, text: &str) {
        if self.sampled() {
            self.wal.question(tenant, text);
        }
    }
}

/// The learning loop beside a running stack.
pub struct OnlineLoop {
    stop: Arc<AtomicBool>,
    trainer: Option<JoinHandle<()>>,
    sampler: Arc<SampledSink>,
    pub snapshots: Arc<SnapshotRegistry>,
    pub applies: Arc<Mutex<Vec<Apply>>>,
    pub increments: Arc<Mutex<Vec<Increment>>>,
    wal_path: PathBuf,
}

impl OnlineLoop {
    /// Flushes the WAL and tells the trainer to stop after the poll it is
    /// in. A poll folds everything pending, so when the trainer has fallen
    /// behind the stream that poll can run for many seconds: this waits
    /// [`TRAINER_STOP_WAIT`] for it and then leaves the thread to end with
    /// the process. Returns whether the trainer has stopped.
    pub fn stop(&mut self) -> bool {
        self.sampler.wal.sync();
        self.stop.store(true, Ordering::Release);
        let Some(trainer) = self.trainer.take() else { return true };
        let deadline = Instant::now() + TRAINER_STOP_WAIT;
        while !trainer.is_finished() && Instant::now() < deadline {
            std::thread::sleep(TRAINER_IDLE_POLL);
        }
        if trainer.is_finished() {
            trainer.join().expect("trainer thread panicked");
            return true;
        }
        false
    }

    /// Served events the gateway has offered the sampler so far; the WAL's
    /// k-th record is the `k * WAL_SAMPLE_EVERY`-th of them.
    pub fn events_seen(&self) -> u64 {
        self.sampler.seen.load(Ordering::Relaxed)
    }

    /// The version of the newest snapshot the trainer has published.
    pub fn latest_version(&self) -> u64 {
        self.snapshots.latest().map_or(0, |s| s.version)
    }
}

impl Drop for OnlineLoop {
    fn drop(&mut self) {
        self.stop();
        // A trainer still in its poll finds the file gone next time it
        // looks, which it reads as "nothing logged yet".
        let _ = std::fs::remove_file(&self.wal_path);
    }
}

/// A running stack: sharded front behind the gateway, one shared registry.
pub struct Stack {
    pub registry: MetricsRegistry,
    pub front: Arc<ShardedServer>,
    gateway: Option<GatewayHandle>,
    pub online: Option<OnlineLoop>,
    pub shards: usize,
}

impl Stack {
    /// Brings the stack up for `connections` client connections. With
    /// `online`, the front is swappable, the gateway logs every accepted
    /// event to a WAL and a trainer thread tails it; `epoch` is the zero of
    /// the timestamps the learning loop records.
    pub fn spawn(
        reference: &Arc<Reference>,
        connections: usize,
        online: bool,
        epoch: Instant,
    ) -> Stack {
        let registry = MetricsRegistry::new();
        let shards = nproc().min(MAX_SHARDS);
        let shard_cfg = ShardConfig { shards, ..Default::default() };
        let gateway_cfg = GatewayConfig { workers: connections + 1, ..Default::default() };
        let factory = {
            let reference = Arc::clone(reference);
            move |_shard: usize| reference.replica(&reference.snapshot)
        };
        if !online {
            let front = Arc::new(ShardedServer::spawn(shard_cfg, registry.clone(), factory));
            let share = Arc::clone(&front);
            let gateway =
                Gateway::spawn("127.0.0.1:0", gateway_cfg, &registry, move |_| Arc::clone(&share))
                    .expect("gateway binds an ephemeral port");
            return Stack { registry, front, gateway: Some(gateway), online: None, shards };
        }

        let swap = ModelSwap::new();
        let applies = Arc::new(Mutex::new(Vec::new()));
        let loader = {
            let (reference, applies) = (Arc::clone(reference), Arc::clone(&applies));
            move |shard: usize, payload: &SwapPayload| {
                let start_ns = epoch.elapsed().as_nanos() as u64;
                let model = reference.load_model(&payload.bytes);
                let end_ns = epoch.elapsed().as_nanos() as u64;
                applies.lock().expect("apply log poisoned").push(Apply {
                    shard,
                    version: payload.version,
                    start_ns,
                    end_ns,
                });
                model
            }
        };
        let front = Arc::new(ShardedServer::spawn_swappable(
            shard_cfg,
            registry.clone(),
            factory,
            swap.clone(),
            loader,
        ));

        // A name of its own per bring-up: a trainer left running by an
        // earlier one (see `OnlineLoop::stop`) must not find this log.
        static BRING_UPS: AtomicUsize = AtomicUsize::new(0);
        let wal_path = out_dir().join(format!(
            "events-{}-{}.wal",
            std::process::id(),
            BRING_UPS.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = std::fs::remove_file(&wal_path);
        let (writer, _) =
            WalWriter::open(&wal_path, WAL_SYNC_EVERY, &registry).expect("open the WAL");
        let sampler = Arc::new(SampledSink {
            wal: Arc::new(WalSink::new(writer, &registry)),
            seen: AtomicU64::new(0),
        });
        let share = Arc::clone(&front);
        let gateway = Gateway::spawn_with_sink(
            "127.0.0.1:0",
            gateway_cfg,
            &registry,
            move |_| Arc::clone(&share),
            Some(Arc::clone(&sampler) as Arc<dyn EventSink>),
        )
        .expect("gateway binds an ephemeral port");

        let snapshots = Arc::new(SnapshotRegistry::new(SNAPSHOT_CAPACITY, &registry));
        let stop = Arc::new(AtomicBool::new(false));
        let increments = Arc::new(Mutex::new(Vec::new()));
        let trainer = {
            let (reference, registry, snapshots, stop, wal_path, increments) = (
                Arc::clone(reference),
                registry.clone(),
                Arc::clone(&snapshots),
                Arc::clone(&stop),
                wal_path.clone(),
                Arc::clone(&increments),
            );
            std::thread::Builder::new()
                .name("bench-trainer".into())
                .spawn(move || {
                    // The model is not `Send`: load it inside this thread.
                    let mut trainer = OnlineTrainer::new(
                        reference.load_model(&reference.snapshot),
                        &wal_path,
                        TrainerConfig::default(),
                        snapshots,
                        Some(swap),
                        &registry,
                    );
                    let appends = registry.counter("wal.appends");
                    while !stop.load(Ordering::Acquire) {
                        let before = trainer.events_consumed();
                        let lag_events = appends.get().saturating_sub(before);
                        let start_ns = epoch.elapsed().as_nanos() as u64;
                        match trainer.poll().expect("trainer reads the WAL") {
                            Some(snap) => {
                                increments.lock().expect("increment log poisoned").push(Increment {
                                    version: snap.version,
                                    events_consumed: snap.events_consumed,
                                    events: snap.events_consumed - before,
                                    lag_events,
                                    start_ns,
                                    end_ns: epoch.elapsed().as_nanos() as u64,
                                    snapshot_bytes: snap.bytes.len(),
                                })
                            }
                            None => std::thread::sleep(TRAINER_IDLE_POLL),
                        }
                    }
                })
                .expect("spawn trainer thread")
        };
        Stack {
            registry,
            front,
            gateway: Some(gateway),
            online: Some(OnlineLoop {
                stop,
                trainer: Some(trainer),
                sampler,
                snapshots,
                applies,
                increments,
                wal_path,
            }),
            shards,
        }
    }

    pub fn addr(&self) -> SocketAddr {
        self.gateway.as_ref().expect("gateway is up").addr()
    }

    /// Stops the trainer, the gateway and the shard workers, in that order,
    /// and waits for each. Client connections must already be closed, or the
    /// gateway waits out its read deadline on them.
    pub fn shutdown(mut self) {
        self.online.take();
        if let Some(g) = self.gateway.take() {
            g.shutdown();
        }
        // The last `Arc` drops here; the front's `Drop` drains and joins.
    }
}
