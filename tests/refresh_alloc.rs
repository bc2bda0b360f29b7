//! One z-table refresh holds the same working set at any tag count.
//!
//! `GraphLayers::precompute_all` packs the graph weights once and embeds
//! tags a fixed-size block at a time, so the only allocation that grows
//! with the tag count is the `tags x dim` table it returns. A std-only
//! thread-local counting `#[global_allocator]` tracks live and peak-live
//! bytes; the refresh's peak above its starting point, less that table,
//! must be one constant for the tiny and the small world, and the same on
//! every run.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use intellitag::core::GraphLayers;
use intellitag::prelude::*;
use intellitag::tensor::{Matrix, ParamSet};
use rand::rngs::StdRng;
use rand::SeedableRng;

thread_local! {
    /// Bytes this thread has allocated and not freed (frees of another
    /// thread's blocks count too, so it can dip below zero).
    static LIVE: Cell<isize> = const { Cell::new(0) };
    /// The highest `LIVE` since the last reset.
    static PEAK: Cell<isize> = const { Cell::new(0) };
}

struct Counting;

fn track(delta: isize) {
    // `try_with`: the allocator also runs while a thread's locals are torn
    // down, when the counters may already be gone.
    let _ = LIVE.try_with(|live| {
        live.set(live.get() + delta);
        let _ = PEAK.try_with(|peak| peak.set(peak.get().max(live.get())));
    });
}

// SAFETY: every method forwards to `System` unchanged; tracking touches
// only const-initialised thread-local `Cell`s, which never allocate.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        track(layout.size() as isize);
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        track(layout.size() as isize);
        // SAFETY: as above.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        track(new_size as isize - layout.size() as isize);
        // SAFETY: as above; `ptr` came from this allocator, i.e. from `System`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        track(-(layout.size() as isize));
        // SAFETY: as above.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Peak bytes `f` holds above what was live when it started.
fn peak_during<R>(f: impl FnOnce() -> R) -> (usize, R) {
    let start = LIVE.with(Cell::get);
    PEAK.with(|peak| peak.set(start));
    let out = f();
    ((PEAK.with(Cell::get) - start) as usize, out)
}

/// Graph layers at the default architecture over `world`, then one refresh
/// measured on a thread of its own: `(tags, peak bytes less the table)`.
fn refresh_working_set(world: WorldConfig) -> (usize, usize) {
    std::thread::spawn(move || {
        let cfg = TagRecConfig::default();
        let graph = World::generate(world).build_graph();
        let mut rng = StdRng::seed_from_u64(5);
        let mut params = ParamSet::new(1e-3);
        let layers = GraphLayers::new(
            &graph,
            Matrix::uniform(graph.num_tags(), cfg.dim, 0.5, &mut rng),
            cfg.heads,
            cfg.neighbor_cap,
            cfg.use_neighbor_attention,
            cfg.use_metapath_attention,
            &mut params,
            &mut rng,
        );
        // Warm-up: the GEMM engine's per-thread pack buffers grow once, to
        // the block's largest operand, and are reused after that.
        std::hint::black_box(layers.precompute_all());
        let (peak, z) = peak_during(|| layers.precompute_all());
        let table = z.rows() * z.cols() * std::mem::size_of::<f32>();
        (z.rows(), peak - table)
    })
    .join()
    .expect("refresh thread")
}

#[test]
fn refresh_working_set_does_not_grow_with_the_tag_count() {
    let (tiny_tags, tiny) = refresh_working_set(WorldConfig::tiny(3));
    let (small_tags, small) = refresh_working_set(WorldConfig::small(3));
    assert!(small_tags > 3 * tiny_tags, "{tiny_tags} vs {small_tags} tags");
    assert!(tiny > 0);
    assert_eq!(
        tiny, small,
        "a refresh over {tiny_tags} tags held {tiny} bytes besides its table, over \
         {small_tags} tags {small}"
    );
    assert_eq!(refresh_working_set(WorldConfig::tiny(3)).1, tiny, "not deterministic");
}
