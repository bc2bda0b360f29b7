//! A std-only persistent worker pool for row-parallel tensor kernels.
//!
//! ## Design
//!
//! The pool owns `threads - 1` long-lived worker threads (the calling thread
//! acts as worker 0, so `pool_threads() == 1` means "no extra threads at
//! all"). Kernels submit one scoped job at a time through
//! [`par_rows`]: the half-open row range `[0, rows)` is split into at most
//! `threads` contiguous chunks, each worker runs the job closure on its own
//! chunk, and `par_rows` does not return until every chunk has finished —
//! so the closure may safely borrow from the caller's stack.
//!
//! ## Determinism
//!
//! Parallelism is only ever introduced *across* disjoint output regions —
//! row chunks ([`par_rows`]) or tile ranges ([`par_tiles`], the
//! column-blocked second axis the GEMM engine uses for short-wide shapes) —
//! never within one output element. Every output element is accumulated by
//! exactly one thread, iterating the reduction index in the same ascending
//! order as the serial kernel, so the floating-point result is
//! **bit-identical** for every pool size and either parallel axis
//! (including the serial fallback). That invariant is what lets the serving
//! layer treat `pool_threads` as a pure performance knob; the parity suites
//! in `crates/tensor/tests/pool_parity.rs` and `tests/sharded_parity.rs`
//! pin it.
//!
//! ## Dispatch latency
//!
//! Workers park on a blocking channel, but a blocking wake costs a few
//! microseconds — comparable to an entire packed GEMM at serving shapes.
//! On multi-core hosts both sides therefore spin briefly first: a worker
//! polls its job channel (and the caller polls the completion channel) for
//! [`SPIN_ITERS`] iterations before falling back to a blocking `recv`, so
//! back-to-back kernel dispatches hand over in nanoseconds. Single-core
//! hosts skip the spin entirely — there, burning the timeslice another
//! thread needs only adds latency.
//!
//! ## Knobs
//!
//! * [`set_pool_threads`] / [`pool_threads`] — process-global thread count.
//!   Defaults to the `INTELLITAG_POOL_THREADS` environment variable, falling
//!   back to [`std::thread::available_parallelism`].
//! * [`set_par_threshold`] / [`par_threshold`] — minimum *work estimate*
//!   (roughly scalar multiply-adds) below which kernels stay serial, so
//!   singleton requests never pay job-dispatch synchronization.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender, TryRecvError};
use std::sync::{Mutex, OnceLock};
use std::thread;

/// Work-estimate floor (≈ scalar multiply-adds) below which [`par_rows`]
/// runs serially. Chosen so a singleton request's small GEMMs stay on the
/// calling thread while batched drains cross it comfortably.
pub const DEFAULT_PAR_THRESHOLD: usize = 64 * 1024;

/// Spin iterations on a job/completion channel before blocking. At ~10 ns
/// per empty `try_recv` this is a ~20 µs spin window — long enough to keep
/// a bench or batched-drain loop's kernel cadence entirely inside the spin
/// path, short enough that an idle pool parks almost immediately.
pub const SPIN_ITERS: usize = 2_000;

/// Whether the spin phase is worth it at all: only on hosts with more than
/// one hardware thread (on a single core a spinning worker steals the
/// exact timeslice the other side needs to make progress).
fn spin_enabled() -> bool {
    static MULTI: OnceLock<bool> = OnceLock::new();
    *MULTI.get_or_init(|| thread::available_parallelism().map(|n| n.get()).unwrap_or(1) > 1)
}

/// `try_recv` in a bounded spin loop, then fall back to a blocking `recv`.
/// Returns `None` when the channel disconnects.
fn recv_spin<T>(rx: &Receiver<T>) -> Option<T> {
    if spin_enabled() {
        for _ in 0..SPIN_ITERS {
            match rx.try_recv() {
                Ok(v) => return Some(v),
                Err(TryRecvError::Disconnected) => return None,
                Err(TryRecvError::Empty) => std::hint::spin_loop(),
            }
        }
    }
    rx.recv().ok()
}

/// Explicit thread-count override; 0 means "auto" (env var, then hardware).
static THREADS_OVERRIDE: AtomicUsize = AtomicUsize::new(0);

/// Serial-fallback threshold, in work-estimate units.
static PAR_THRESHOLD: AtomicUsize = AtomicUsize::new(DEFAULT_PAR_THRESHOLD);

/// Lifetime count of [`par_rows`]/[`par_tiles`] dispatches that fanned out
/// to the pool. Relaxed — it feeds an observability snapshot, not control
/// flow inside the kernel.
static DISPATCH_PARALLEL: AtomicUsize = AtomicUsize::new(0);

/// Lifetime count of dispatches that took the serial fallback (pool size 1,
/// below [`par_threshold`], nested job, or fewer than 2 rows).
static DISPATCH_SERIAL: AtomicUsize = AtomicUsize::new(0);

/// `(parallel, serial)` lifetime dispatch counts. The ratio is the pool's
/// *utilization signal*: at pool size 1 the parallel count stops moving,
/// and lowering [`par_threshold`] converts serial dispatches to parallel
/// ones.
pub fn pool_dispatch_stats() -> (usize, usize) {
    (DISPATCH_PARALLEL.load(Ordering::Relaxed), DISPATCH_SERIAL.load(Ordering::Relaxed))
}

/// The host's hardware thread count (cached), the natural upper bound for
/// [`set_pool_threads`]. Falls back to 1 when the platform cannot say.
pub fn hardware_threads() -> usize {
    static HW: OnceLock<usize> = OnceLock::new();
    *HW.get_or_init(|| thread::available_parallelism().map(|n| n.get()).unwrap_or(1))
}

/// Live pools keyed by thread count. Pools are cheap (a few parked threads)
/// and tests toggle sizes repeatedly, so old sizes are kept warm rather
/// than torn down on every [`set_pool_threads`] call.
static POOLS: Mutex<Vec<(usize, &'static PoolImpl)>> = Mutex::new(Vec::new());

thread_local! {
    /// Set while a pool worker (or the caller acting as worker 0) is inside
    /// a job closure; nested `par_rows` calls then run serially instead of
    /// re-entering the pool and deadlocking on their own job slots.
    static IN_POOL_JOB: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

/// Sets the process-global pool size. `0` restores the default (the
/// `INTELLITAG_POOL_THREADS` environment variable if set, otherwise
/// [`std::thread::available_parallelism`]). Thread-safe; results are
/// bit-identical across sizes, so flipping this mid-flight only changes
/// speed, never answers.
pub fn set_pool_threads(threads: usize) {
    THREADS_OVERRIDE.store(threads, Ordering::SeqCst);
}

/// The pool size kernels will use: the [`set_pool_threads`] override when
/// non-zero, else `INTELLITAG_POOL_THREADS`, else the hardware parallelism.
pub fn pool_threads() -> usize {
    let o = THREADS_OVERRIDE.load(Ordering::SeqCst);
    if o != 0 {
        return o;
    }
    static DEFAULT: OnceLock<usize> = OnceLock::new();
    *DEFAULT.get_or_init(|| {
        std::env::var("INTELLITAG_POOL_THREADS")
            .ok()
            .and_then(|v| v.parse::<usize>().ok())
            .filter(|&n| n > 0)
            .unwrap_or_else(|| thread::available_parallelism().map(|n| n.get()).unwrap_or(1))
    })
}

/// Sets the serial-fallback work threshold (see [`par_threshold`]).
pub fn set_par_threshold(threshold: usize) {
    PAR_THRESHOLD.store(threshold, Ordering::SeqCst);
}

/// Minimum kernel work estimate (≈ scalar multiply-adds) required before
/// [`par_rows`] dispatches to the pool instead of running serially.
pub fn par_threshold() -> usize {
    PAR_THRESHOLD.load(Ordering::SeqCst)
}

/// One job chunk handed to a worker: a borrowed closure (lifetime-erased —
/// safe because [`par_rows`] blocks until the chunk reports done), the row
/// range, and a completion channel.
struct Packet {
    job: &'static (dyn Fn(usize, usize) + Sync),
    lo: usize,
    hi: usize,
    done: Sender<bool>,
}

struct PoolImpl {
    /// One dedicated channel per worker: chunk `c` of a job always goes to
    /// worker `c - 1`, which keeps dispatch allocation-free and fair.
    workers: Vec<Sender<Packet>>,
}

impl PoolImpl {
    fn new(threads: usize) -> &'static PoolImpl {
        let mut workers = Vec::with_capacity(threads - 1);
        for w in 1..threads {
            let (tx, rx): (Sender<Packet>, Receiver<Packet>) = channel();
            thread::Builder::new()
                .name(format!("intellitag-pool-{w}"))
                .spawn(move || {
                    while let Some(p) = recv_spin(&rx) {
                        let ok = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                            IN_POOL_JOB.with(|f| f.set(true));
                            (p.job)(p.lo, p.hi);
                            IN_POOL_JOB.with(|f| f.set(false));
                        }))
                        .is_ok();
                        let _ = p.done.send(ok);
                    }
                })
                .expect("spawn intellitag pool worker");
            workers.push(tx);
        }
        Box::leak(Box::new(PoolImpl { workers }))
    }

    /// Runs `job` over `[0, rows)` split into `chunks` contiguous ranges;
    /// the caller executes chunk 0 and blocks until the rest finish.
    fn run(&self, rows: usize, chunks: usize, job: &(dyn Fn(usize, usize) + Sync)) {
        debug_assert!(chunks >= 2 && chunks <= self.workers.len() + 1);
        // Erase the borrow's lifetime so it can cross the channel. Sound
        // because this function does not return until every chunk has
        // reported completion (the `Drain` guard waits even on panic).
        let job_static: &'static (dyn Fn(usize, usize) + Sync) =
            unsafe { std::mem::transmute(job) };
        let (done_tx, done_rx) = channel::<bool>();
        let base = rows / chunks;
        let rem = rows % chunks;
        let mut lo = 0;
        for c in 0..chunks {
            let hi = lo + base + usize::from(c < rem);
            if c == 0 {
                lo = hi; // caller's chunk; dispatched after the sends below
                continue;
            }
            self.workers[c - 1]
                .send(Packet { job: job_static, lo, hi, done: done_tx.clone() })
                .expect("intellitag pool worker exited");
            lo = hi;
        }
        drop(done_tx);

        // Wait for all outstanding chunks even if the caller's own chunk
        // panics — workers still hold the lifetime-erased borrow until then.
        struct Drain<'a>(&'a Receiver<bool>, usize);
        impl Drop for Drain<'_> {
            fn drop(&mut self) {
                let mut ok = true;
                for _ in 0..self.1 {
                    ok &= recv_spin(self.0).unwrap_or(false);
                }
                if !ok && !thread::panicking() {
                    panic!("intellitag pool worker panicked inside a kernel job");
                }
            }
        }
        let drain = Drain(&done_rx, chunks - 1);

        let own_hi = base + usize::from(rem > 0);
        IN_POOL_JOB.with(|f| f.set(true));
        let caller = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| job(0, own_hi)));
        IN_POOL_JOB.with(|f| f.set(false));
        drop(drain);
        if let Err(payload) = caller {
            std::panic::resume_unwind(payload);
        }
    }
}

/// Returns the warm pool for the current [`pool_threads`] size, or `None`
/// when the configured size is 1 (pure serial).
fn handle() -> Option<&'static PoolImpl> {
    let want = pool_threads();
    if want <= 1 {
        return None;
    }
    let mut pools = POOLS.lock().expect("tensor pool registry poisoned");
    if let Some((_, p)) = pools.iter().find(|(n, _)| *n == want) {
        return Some(p);
    }
    let p = PoolImpl::new(want);
    pools.push((want, p));
    Some(p)
}

/// Row-parallel scoped execution: splits `[0, rows)` into contiguous chunks
/// and calls `job(lo, hi)` once per chunk, concurrently, returning only when
/// all chunks are done. Falls back to a single inline `job(0, rows)` call
/// when the pool size is 1, `work < par_threshold()`, `rows < 2`, or when
/// already running inside a pool job (nested kernels stay serial).
///
/// `work` is the kernel's scalar-op estimate (e.g. `m * k * n` for a GEMM)
/// used for the serial-fallback decision.
///
/// Chunks are disjoint, so a job that writes only to rows in its own
/// `[lo, hi)` range — the contract every caller in this crate follows — is
/// race-free, and each output row is produced by exactly one thread in
/// serial order, making results bit-identical across pool sizes.
pub fn par_rows(rows: usize, work: usize, job: impl Fn(usize, usize) + Sync) {
    if rows == 0 {
        return;
    }
    let nested = IN_POOL_JOB.with(|f| f.get());
    if rows < 2 || nested || work < par_threshold() {
        DISPATCH_SERIAL.fetch_add(1, Ordering::Relaxed);
        job(0, rows);
        return;
    }
    match handle() {
        Some(pool) => {
            let chunks = (pool.workers.len() + 1).min(rows);
            if chunks < 2 {
                DISPATCH_SERIAL.fetch_add(1, Ordering::Relaxed);
                job(0, rows);
            } else {
                DISPATCH_PARALLEL.fetch_add(1, Ordering::Relaxed);
                pool.run(rows, chunks, &job);
            }
        }
        None => {
            DISPATCH_SERIAL.fetch_add(1, Ordering::Relaxed);
            job(0, rows);
        }
    }
}

/// Tile-parallel scoped execution: the second parallel axis. Splits the
/// half-open *tile index* range `[0, tiles)` into contiguous chunks and
/// calls `job(lo, hi)` once per chunk, concurrently, with the same serial
/// fallbacks as [`par_rows`] (pool size 1, nested jobs, `work` below
/// [`par_threshold`], fewer than 2 tiles).
///
/// A "tile" is whatever disjoint output region the caller chooses — the
/// packed GEMM engine maps tile indices to column blocks (`NR`-wide panel
/// groups) so short-wide shapes with too few rows for [`par_rows`] still
/// get a parallel dimension. The caller must guarantee tiles are disjoint
/// output regions; because every output element is still produced by
/// exactly one thread in the kernel's fixed reduction order, results stay
/// bit-identical across pool sizes and across the choice of axis.
pub fn par_tiles(tiles: usize, work: usize, job: impl Fn(usize, usize) + Sync) {
    // Tile ranges and row ranges partition identically; par_rows' contract
    // ("contiguous chunks of [0, n), caller runs chunk 0") is exactly what
    // tiles need, so the two axes share one dispatch path.
    par_rows(tiles, work, job);
}

/// Like [`par_rows`], but hands each chunk a mutable slice of its own rows
/// of `out` (row width `width`), which is the safe-Rust shape most kernels
/// want: `job(first_row, rows_chunk)` where `rows_chunk` covers rows
/// `first_row ..` of the output.
///
/// # Panics
/// Panics if `out.len()` is not a multiple of `width` (for `width > 0`).
pub fn par_rows_mut(
    out: &mut [f32],
    width: usize,
    work: usize,
    job: impl Fn(usize, &mut [f32]) + Sync,
) {
    if width == 0 || out.is_empty() {
        return;
    }
    assert_eq!(
        out.len() % width,
        0,
        "par_rows_mut: length {} not a multiple of row width {width}",
        out.len()
    );
    let rows = out.len() / width;
    let base = out.as_mut_ptr() as usize;
    par_rows(rows, work, move |lo, hi| {
        // Disjoint [lo, hi) chunks over one &mut borrow → non-overlapping
        // mutable slices; sound for the same reason split_at_mut is.
        let chunk = unsafe {
            std::slice::from_raw_parts_mut((base as *mut f32).add(lo * width), (hi - lo) * width)
        };
        job(lo, chunk);
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU32;

    /// Serialize tests that mutate the global knobs.
    static KNOBS: Mutex<()> = Mutex::new(());

    fn with_pool<T>(threads: usize, threshold: usize, f: impl FnOnce() -> T) -> T {
        let _g = KNOBS.lock().unwrap_or_else(|e| e.into_inner());
        set_pool_threads(threads);
        set_par_threshold(threshold);
        let out = f();
        set_pool_threads(0);
        set_par_threshold(DEFAULT_PAR_THRESHOLD);
        out
    }

    #[test]
    fn par_rows_covers_every_row_exactly_once() {
        for threads in [1, 2, 4] {
            for rows in [1usize, 2, 3, 7, 37, 64] {
                with_pool(threads, 1, || {
                    let hits: Vec<AtomicU32> = (0..rows).map(|_| AtomicU32::new(0)).collect();
                    par_rows(rows, usize::MAX, |lo, hi| {
                        for h in &hits[lo..hi] {
                            h.fetch_add(1, Ordering::SeqCst);
                        }
                    });
                    for (r, h) in hits.iter().enumerate() {
                        assert_eq!(h.load(Ordering::SeqCst), 1, "row {r} threads {threads}");
                    }
                });
            }
        }
    }

    #[test]
    fn par_rows_mut_chunks_are_disjoint_and_complete() {
        for threads in [1, 2, 4] {
            with_pool(threads, 1, || {
                let mut out = vec![0.0f32; 7 * 3];
                par_rows_mut(&mut out, 3, usize::MAX, |lo, chunk| {
                    for (d, row) in chunk.chunks_exact_mut(3).enumerate() {
                        row.fill((lo + d) as f32);
                    }
                });
                for r in 0..7 {
                    assert!(out[r * 3..(r + 1) * 3].iter().all(|&v| v == r as f32));
                }
            });
        }
    }

    #[test]
    fn below_threshold_stays_serial() {
        with_pool(4, usize::MAX, || {
            let caller = std::thread::current().id();
            par_rows(64, 1000, |_, _| {
                assert_eq!(std::thread::current().id(), caller);
            });
        });
    }

    #[test]
    fn nested_par_rows_runs_serially_without_deadlock() {
        with_pool(4, 1, || {
            let outer_chunks = AtomicUsize::new(0);
            par_rows(8, usize::MAX, |lo, hi| {
                outer_chunks.fetch_add(1, Ordering::SeqCst);
                // Nested call must not re-enter the pool.
                par_rows(hi - lo, usize::MAX, |a, b| {
                    assert_eq!((a, b), (0, hi - lo));
                });
            });
            assert!(outer_chunks.load(Ordering::SeqCst) >= 2);
        });
    }

    #[test]
    fn worker_panic_propagates_to_caller() {
        let r = with_pool(2, 1, || {
            std::panic::catch_unwind(|| {
                par_rows(8, usize::MAX, |lo, _| {
                    if lo > 0 {
                        panic!("boom");
                    }
                });
            })
        });
        assert!(r.is_err(), "worker panic must surface in the caller");
        // The pool must remain usable afterwards.
        with_pool(2, 1, || {
            let n = AtomicUsize::new(0);
            par_rows(8, usize::MAX, |lo, hi| {
                n.fetch_add(hi - lo, Ordering::SeqCst);
            });
            assert_eq!(n.load(Ordering::SeqCst), 8);
        });
    }

    #[test]
    fn pool_threads_override_roundtrip() {
        let _g = KNOBS.lock().unwrap_or_else(|e| e.into_inner());
        set_pool_threads(3);
        assert_eq!(pool_threads(), 3);
        set_pool_threads(0);
        assert!(pool_threads() >= 1);
    }
}
