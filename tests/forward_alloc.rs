//! The serving forward allocates nothing once its scratch has grown.
//!
//! `score_candidates_batch` gathers, runs the packed GEMMs and per-sequence
//! attention, and projects — all over a thread-local grow-only arena (plus
//! the GEMM engine's thread-local pack buffers). After one warm-up drain at
//! the largest shape, the only heap allocations a call may make are the
//! ones it returns: the outer `Vec` and one score row per request. A
//! std-only counting `#[global_allocator]` checks exactly that. (ROADMAP
//! item 3(a) wants this counter in the frozen `benchmark/`; until then this
//! is where a stray `Vec` in the forward gets caught.)

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use intellitag::prelude::*;

thread_local! {
    /// Allocations made by *this* thread, so the test harness's own threads
    /// cannot disturb the count.
    static ALLOCATIONS: Cell<usize> = const { Cell::new(0) };
}

struct Counting;

fn count() {
    // `try_with`: the allocator also runs while a thread's locals are torn
    // down, when the counter may already be gone.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every method forwards to `System` unchanged; counting touches only
// a const-initialised thread-local `Cell`, which never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: as above.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        // SAFETY: as above; `ptr` came from this allocator, i.e. from `System`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: as above.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

fn allocations_during<R>(f: impl FnOnce() -> R) -> (usize, R) {
    let before = ALLOCATIONS.with(Cell::get);
    let out = f();
    (ALLOCATIONS.with(Cell::get) - before, out)
}

#[test]
fn warm_forward_allocates_only_the_rows_it_returns() {
    let world = World::generate(WorldConfig::tiny(91));
    let graph = world.build_graph();
    let texts: Vec<String> = world.tags.iter().map(|t| t.text()).collect();
    let sessions: Vec<Vec<usize>> = world.sessions.iter().map(|s| s.clicks.clone()).collect();
    let cfg = TagRecConfig {
        dim: 16,
        heads: 2,
        seq_layers: 2,
        neighbor_cap: 4,
        train: TrainConfig { epochs: 1, ..Default::default() },
        ..Default::default()
    };
    let model = IntelliTag::train(&graph, &texts, &sessions, cfg);
    let tags = texts.len();

    let mut state = 0xA110Cu64;
    let mut below = move |n: usize| {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        ((state >> 33) % n as u64) as usize
    };
    let pool: Vec<usize> = (0..tags).collect();
    // Warm-up: eight contexts, each longer than the model keeps.
    let longest: Vec<Vec<usize>> = (0..8).map(|_| (0..24).map(|_| below(tags)).collect()).collect();
    let warm: Vec<(&[usize], &[usize])> =
        longest.iter().map(|c| (c.as_slice(), pool.as_slice())).collect();
    std::hint::black_box(model.score_candidates_batch(&warm));

    for call in 0..100 {
        // 1..=8 requests; contexts of 0..=24 clicks (empty ones skip the
        // forward, long ones clip); a candidate list of 1..=tags entries.
        let drain: Vec<(Vec<usize>, Vec<usize>)> = (0..1 + below(8))
            .map(|_| {
                let ctx = (0..below(25)).map(|_| below(tags)).collect();
                let cands = (0..1 + below(tags)).map(|_| below(tags)).collect();
                (ctx, cands)
            })
            .collect();
        let reqs: Vec<(&[usize], &[usize])> =
            drain.iter().map(|(c, p)| (c.as_slice(), p.as_slice())).collect();
        let (allocations, rows) = allocations_during(|| model.score_candidates_batch(&reqs));
        assert_eq!(rows.len(), reqs.len());
        // The outer Vec plus one row per request: nothing inside the forward.
        assert_eq!(
            allocations,
            1 + reqs.len(),
            "call {call}: a drain of {} requests allocated {allocations} times",
            reqs.len()
        );
    }

    // The serial entry is a batch of one: its two returned Vecs, no more.
    let (allocations, _) = allocations_during(|| model.score_candidates(&longest[0], &pool));
    assert_eq!(allocations, 2);
    let (allocations, _) = allocations_during(|| model.score_all(&longest[0]));
    assert_eq!(allocations, 1);
}
