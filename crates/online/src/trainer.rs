//! The incremental trainer: tails the WAL, folds click batches into the
//! model, and publishes versioned snapshots to the hot-swap mailbox.
//!
//! One [`OnlineTrainer`] owns the live copy of the model (models hold
//! `Rc`-based autograd parameters and are not `Send`, so the trainer is
//! *built inside* its thread via [`OnlineTrainer::spawn`]'s constructor
//! closure — the same pattern the sharded server uses for its replicas).
//! Each [`OnlineTrainer::poll`]:
//!
//! 1. re-reads the WAL and decodes records past its cursor (the log is
//!    append-only, so a plain byte offset is a complete resume token);
//! 2. once at least `batch_events` events are pending, runs one
//!    deterministic training increment over their click sessions;
//! 3. serializes the model, registers it with the [`SnapshotRegistry`]
//!    (which assigns the next version), and publishes the payload to the
//!    [`ModelSwap`] mailbox, where shard workers install it at their next
//!    drain boundary.
//!
//! Determinism: the increment seed is the increment ordinal, so a given
//! base model + WAL prefix always produces bit-identical snapshots — the
//! property `tests/t_plus_one.rs` pins against the offline trainer.

use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use intellitag_core::{IntelliTag, ModelSwap};
use intellitag_obs::{Counter, MetricsRegistry, TRAINER_EVENTS_METRIC, TRAINER_INCREMENTS_METRIC};

use crate::snapshot::{ModelSnapshot, SnapshotRegistry};
use crate::wal::{click_sessions, decode_records, WalEvent, WAL_MAGIC};

/// Knobs for the incremental training loop.
#[derive(Debug, Clone, Copy)]
pub struct TrainerConfig {
    /// Minimum pending WAL events before an increment runs. Smaller =
    /// fresher model, more snapshot churn.
    pub batch_events: usize,
    /// Epochs per increment (passed to `IntelliTag::train_increment`).
    pub epochs: usize,
}

impl Default for TrainerConfig {
    /// 64 events per increment. Each published version costs every serving
    /// shard a full model reload (~7 ms on a 2-thread x86-64 box). At 8, a
    /// trainer fed ~150 events/s republished every ~150 ms, and the reloads
    /// raised the serving p99 by about a third; at 64 it publishes about a
    /// quarter as often.
    fn default() -> Self {
        TrainerConfig { batch_events: 64, epochs: 1 }
    }
}

/// The consuming half of the continuous-training loop.
pub struct OnlineTrainer {
    model: IntelliTag,
    wal_path: PathBuf,
    cursor: usize,
    pending: Vec<WalEvent>,
    cfg: TrainerConfig,
    registry: Arc<SnapshotRegistry>,
    swap: Option<ModelSwap>,
    increments: u64,
    events_consumed: u64,
    increments_metric: Arc<Counter>,
    events_metric: Arc<Counter>,
    metrics: MetricsRegistry,
}

impl OnlineTrainer {
    /// A trainer starting from `model` (the T+1 offline artifact), tailing
    /// the WAL at `wal_path` from the first record. Snapshots go to
    /// `registry`; pass a [`ModelSwap`] to also push each one to serving.
    pub fn new(
        model: IntelliTag,
        wal_path: &Path,
        cfg: TrainerConfig,
        registry: Arc<SnapshotRegistry>,
        swap: Option<ModelSwap>,
        metrics: &MetricsRegistry,
    ) -> OnlineTrainer {
        assert!(cfg.batch_events >= 1, "batch_events must be at least 1");
        OnlineTrainer {
            model,
            wal_path: wal_path.to_path_buf(),
            cursor: WAL_MAGIC.len(),
            pending: Vec::new(),
            cfg,
            registry,
            swap,
            increments: 0,
            events_consumed: 0,
            increments_metric: metrics.counter(TRAINER_INCREMENTS_METRIC),
            events_metric: metrics.counter(TRAINER_EVENTS_METRIC),
            metrics: metrics.clone(),
        }
    }

    /// A trainer resuming from a published snapshot after a restart:
    /// `model` must be the `IntelliTag::load` of `snapshot.bytes`, and the
    /// trainer seeks straight to the snapshot's WAL cursor instead of
    /// refolding the whole log. Restoring `increments` keeps the
    /// deterministic per-increment seed chain intact, so the resumed
    /// trainer's next snapshot is byte-identical to the one a
    /// never-restarted trainer would have published; `registry` is advanced
    /// past the snapshot's version so serving never sees a version reused.
    #[allow(clippy::too_many_arguments)]
    pub fn resume_from(
        model: IntelliTag,
        snapshot: &ModelSnapshot,
        wal_path: &Path,
        cfg: TrainerConfig,
        registry: Arc<SnapshotRegistry>,
        swap: Option<ModelSwap>,
        metrics: &MetricsRegistry,
    ) -> OnlineTrainer {
        registry.advance_to(snapshot.version);
        let mut trainer = OnlineTrainer::new(model, wal_path, cfg, registry, swap, metrics);
        trainer.cursor = (snapshot.wal_cursor as usize).max(WAL_MAGIC.len());
        trainer.events_consumed = snapshot.events_consumed;
        trainer.increments = snapshot.increments;
        trainer
    }

    /// Events decoded but not yet folded into the model.
    pub fn pending_events(&self) -> usize {
        self.pending.len()
    }

    /// Total events folded into the model so far.
    pub fn events_consumed(&self) -> u64 {
        self.events_consumed
    }

    /// Reads any new WAL records, and if the pending batch is full, runs
    /// one increment and publishes the resulting snapshot (also returned).
    /// `Ok(None)` means "nothing to do yet". A WAL that does not exist yet
    /// is not an error — serving may simply not have logged anything.
    pub fn poll(&mut self) -> io::Result<Option<ModelSnapshot>> {
        match std::fs::read(&self.wal_path) {
            Ok(bytes) => {
                let (fresh, valid) = decode_records(&bytes, self.cursor);
                self.pending.extend(fresh);
                self.cursor = valid;
            }
            Err(e) if e.kind() == io::ErrorKind::NotFound => {}
            Err(e) => return Err(e),
        }
        if self.pending.len() < self.cfg.batch_events {
            return Ok(None);
        }
        let batch = std::mem::take(&mut self.pending);
        let sessions = click_sessions(&batch);
        self.increments += 1;
        self.events_consumed += batch.len() as u64;
        self.model.train_increment(&sessions, self.cfg.epochs, self.increments, &self.metrics);
        self.increments_metric.inc();
        self.events_metric.add(batch.len() as u64);
        let mut bytes = Vec::new();
        self.model.save(&mut bytes)?;
        // `pending` is empty here, so the read cursor doubles as the exact
        // "everything below this offset is in the model" resume token.
        let snap =
            self.registry.publish(bytes, self.events_consumed, self.increments, self.cursor as u64);
        if let Some(swap) = &self.swap {
            swap.publish(snap.to_swap_payload());
        }
        Ok(Some(snap))
    }

    /// Runs a trainer on its own thread, polling every `poll_interval`
    /// until `stop` flips, then draining one final poll. The constructor
    /// closure runs *inside* the thread because models are not `Send`.
    pub fn spawn<B>(
        build: B,
        poll_interval: Duration,
        stop: Arc<AtomicBool>,
    ) -> JoinHandle<io::Result<()>>
    where
        B: FnOnce() -> io::Result<OnlineTrainer> + Send + 'static,
    {
        std::thread::spawn(move || {
            let mut trainer = build()?;
            while !stop.load(Ordering::Acquire) {
                trainer.poll()?;
                std::thread::sleep(poll_interval);
            }
            trainer.poll()?;
            Ok(())
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wal::WalWriter;
    use intellitag_core::TagRecConfig;
    use intellitag_datagen::{World, WorldConfig};
    use intellitag_obs::SNAPSHOT_VERSION_METRIC;

    fn quick_cfg() -> TagRecConfig {
        let mut cfg =
            TagRecConfig { dim: 8, heads: 2, seq_layers: 1, neighbor_cap: 4, ..Default::default() };
        cfg.train.epochs = 1;
        cfg.train.batch_size = 8;
        cfg
    }

    fn base_model() -> (IntelliTag, Vec<Vec<usize>>) {
        let world = World::generate(WorldConfig::tiny(17));
        let graph = world.build_graph();
        let texts: Vec<String> = world.tags.iter().map(|t| t.text()).collect();
        // Only trails with ≥2 clicks yield training examples; keeping the
        // test sessions that long means every increment really moves
        // parameters.
        let sessions: Vec<Vec<usize>> = world
            .sessions
            .iter()
            .map(|s| s.clicks.clone())
            .filter(|c| c.len() >= 2)
            .take(12)
            .collect();
        let model = IntelliTag::train(&graph, &texts, &sessions, quick_cfg());
        (model, sessions)
    }

    fn tmp_wal(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("itag-trainer-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("{tag}.wal"));
        let _ = std::fs::remove_file(&path);
        path
    }

    #[test]
    fn trainer_batches_trains_and_publishes_versions() {
        let (model, sessions) = base_model();
        let metrics = MetricsRegistry::new();
        let registry = Arc::new(SnapshotRegistry::new(4, &metrics));
        let swap = ModelSwap::new();
        let path = tmp_wal("loop");
        let cfg = TrainerConfig { batch_events: 3, epochs: 1 };
        let mut trainer = OnlineTrainer::new(
            model,
            &path,
            cfg,
            Arc::clone(&registry),
            Some(swap.clone()),
            &metrics,
        );

        // No WAL file yet: a poll is a clean no-op.
        assert!(trainer.poll().unwrap().is_none());

        let (mut w, _) = WalWriter::open(&path, 1, &metrics).unwrap();
        w.append(&WalEvent::TagClick { tenant: 0, clicks: sessions[0].clone() }).unwrap();
        w.append(&WalEvent::Question { tenant: 0, text: "billing".into() }).unwrap();
        assert!(trainer.poll().unwrap().is_none(), "below batch_events");
        assert_eq!(trainer.pending_events(), 2);

        w.append(&WalEvent::TagClick { tenant: 1, clicks: sessions[1].clone() }).unwrap();
        let snap = trainer.poll().unwrap().expect("batch full: must publish");
        assert_eq!(snap.version, 1);
        assert_eq!(snap.events_consumed, 3);
        assert_eq!(snap.increments, 1);
        assert_eq!(trainer.pending_events(), 0);
        assert_eq!(trainer.events_consumed(), 3);
        assert_eq!(swap.latest_version(), 1, "payload pushed to the mailbox");
        assert_eq!(metrics.counter(TRAINER_INCREMENTS_METRIC).get(), 1);
        assert_eq!(metrics.counter(TRAINER_EVENTS_METRIC).get(), 3);
        assert_eq!(metrics.gauge(SNAPSHOT_VERSION_METRIC).get(), 1.0);

        // Second batch bumps the version; the model keeps moving.
        for s in sessions.iter().skip(2).take(3) {
            w.append(&WalEvent::TagClick { tenant: 0, clicks: s.clone() }).unwrap();
        }
        let snap2 = trainer.poll().unwrap().expect("second batch");
        assert_eq!(snap2.version, 2);
        assert_eq!(snap2.events_consumed, 6);
        assert_ne!(*snap2.bytes, *snap.bytes, "an increment moves the parameters");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn identical_wal_prefixes_produce_identical_snapshots() {
        let metrics = MetricsRegistry::new();
        let path = tmp_wal("determinism");
        let (mut w, _) = WalWriter::open(&path, 1, &metrics).unwrap();
        let (model_a, sessions) = base_model();
        for s in sessions.iter().take(4) {
            w.append(&WalEvent::TagClick { tenant: 0, clicks: s.clone() }).unwrap();
        }
        drop(w);

        let run = |model: IntelliTag| {
            let metrics = MetricsRegistry::new();
            let registry = Arc::new(SnapshotRegistry::new(2, &metrics));
            let mut t = OnlineTrainer::new(
                model,
                &path,
                TrainerConfig { batch_events: 4, epochs: 1 },
                registry,
                None,
                &metrics,
            );
            t.poll().unwrap().expect("one full batch")
        };
        let (model_b, _) = base_model();
        let snap_a = run(model_a);
        let snap_b = run(model_b);
        assert_eq!(*snap_a.bytes, *snap_b.bytes, "same base + same WAL = same snapshot");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn killed_trainer_resumes_at_cursor_and_matches_uninterrupted_run() {
        let world = World::generate(WorldConfig::tiny(17));
        let graph = world.build_graph();
        let texts: Vec<String> = world.tags.iter().map(|t| t.text()).collect();
        let sessions: Vec<Vec<usize>> = world
            .sessions
            .iter()
            .map(|s| s.clicks.clone())
            .filter(|c| c.len() >= 2)
            .take(12)
            .collect();
        let trained = IntelliTag::train(&graph, &texts, &sessions, quick_cfg());
        let mut base = Vec::new();
        trained.save(&mut base).unwrap();
        let load =
            |bytes: &[u8]| IntelliTag::load(&graph, &texts, quick_cfg(), &mut &bytes[..]).unwrap();
        let cfg = TrainerConfig { batch_events: 3, epochs: 1 };
        let path = tmp_wal("restart");
        let metrics = MetricsRegistry::new();
        let (mut w, _) = WalWriter::open(&path, 1, &metrics).unwrap();
        for s in sessions.iter().take(3) {
            w.append(&WalEvent::TagClick { tenant: 0, clicks: s.clone() }).unwrap();
        }

        // Reference trainer: never restarted, consumes both batches.
        let reg_a = Arc::new(SnapshotRegistry::new(4, &metrics));
        let mut trainer_a =
            OnlineTrainer::new(load(&base), &path, cfg, Arc::clone(&reg_a), None, &metrics);
        // Victim trainer: consumes the first batch, then is "killed" (its
        // snapshot survives only as serialized bytes, like on disk).
        let reg_b = Arc::new(SnapshotRegistry::new(4, &metrics));
        let mut trainer_b =
            OnlineTrainer::new(load(&base), &path, cfg, Arc::clone(&reg_b), None, &metrics);
        let snap_a1 = trainer_a.poll().unwrap().expect("first batch (reference)");
        let snap_b1 = trainer_b.poll().unwrap().expect("first batch (victim)");
        assert_eq!(*snap_a1.bytes, *snap_b1.bytes);
        let mut durable = Vec::new();
        snap_b1.write_to(&mut durable).unwrap();
        drop(trainer_b);

        for s in sessions.iter().skip(3).take(3) {
            w.append(&WalEvent::TagClick { tenant: 0, clicks: s.clone() }).unwrap();
        }
        let snap_a2 = trainer_a.poll().unwrap().expect("second batch (reference)");

        // Restart: fresh process state — new registry, new metrics — with
        // only the durable snapshot and the WAL on disk.
        let metrics2 = MetricsRegistry::new();
        let reg2 = Arc::new(SnapshotRegistry::new(4, &metrics2));
        let recovered = ModelSnapshot::read_from(&mut &durable[..]).unwrap();
        let mut resumed = OnlineTrainer::resume_from(
            load(&recovered.bytes),
            &recovered,
            &path,
            cfg,
            Arc::clone(&reg2),
            None,
            &metrics2,
        );
        assert_eq!(resumed.events_consumed(), 3, "provenance restored from the snapshot");

        let snap_b2 = resumed.poll().unwrap().expect("resumed trainer sees only the new batch");
        assert_eq!(snap_b2.version, 2, "version line continues past the resumed snapshot");
        assert_eq!(snap_b2.events_consumed, 6);
        assert_eq!(snap_b2.increments, 2);
        assert_eq!(snap_b2.wal_cursor, snap_a2.wal_cursor);
        assert_eq!(
            metrics2.counter(TRAINER_EVENTS_METRIC).get(),
            3,
            "resume must fold only events past the cursor, not refold the whole WAL"
        );
        assert_eq!(
            *snap_b2.bytes, *snap_a2.bytes,
            "restarted trainer's snapshot must be byte-identical to the uninterrupted run"
        );
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn spawned_trainer_drains_on_stop() {
        let metrics = MetricsRegistry::new();
        let registry = Arc::new(SnapshotRegistry::new(2, &metrics));
        let path = tmp_wal("spawned");
        let (mut w, _) = WalWriter::open(&path, 1, &metrics).unwrap();
        let (model, sessions) = base_model();
        for s in sessions.iter().take(2) {
            w.append(&WalEvent::TagClick { tenant: 0, clicks: s.clone() }).unwrap();
        }
        drop(w);

        drop(model); // models are not Send: the spawned trainer builds its own
        let stop = Arc::new(AtomicBool::new(false));
        let reg2 = Arc::clone(&registry);
        let metrics2 = metrics.clone();
        let path2 = path.clone();
        let handle = OnlineTrainer::spawn(
            move || {
                let (model, _) = base_model();
                Ok(OnlineTrainer::new(
                    model,
                    &path2,
                    TrainerConfig { batch_events: 2, epochs: 1 },
                    reg2,
                    None,
                    &metrics2,
                ))
            },
            Duration::from_millis(1),
            Arc::clone(&stop),
        );
        // The final drain poll after `stop` flips must still consume the
        // batch even if the thread never saw it while running.
        stop.store(true, Ordering::Release);
        handle.join().unwrap().unwrap();
        assert_eq!(registry.latest().expect("drained batch published").version, 1);
        let _ = std::fs::remove_file(&path);
    }
}
