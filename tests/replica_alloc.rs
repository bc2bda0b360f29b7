//! Replicas share their catalog, and a torn-down stack gives back what it
//! held.
//!
//! A process-wide counting `#[global_allocator]` tracks live heap bytes
//! across every thread (shard workers, gateway workers, connections), and
//! the counts are the same on every run.
//!
//! - Three shards more than a one-shard front, all over one
//!   `Arc<Catalog>`, cost less than one catalog: no shard copies the KB or
//!   the tag tables.
//! - Bringing a sharded front up behind a loopback gateway, serving HTTP
//!   and binary requests, and shutting it all down leaves live bytes where
//!   the first round left them, round after round.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicIsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

use intellitag::prelude::*;

/// Bytes allocated and not yet freed, summed over every thread.
static LIVE: AtomicIsize = AtomicIsize::new(0);

struct Counting;

// SAFETY: every method forwards to `System` unchanged; tracking is one
// atomic add, which never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LIVE.fetch_add(layout.size() as isize, Ordering::Relaxed);
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        LIVE.fetch_add(layout.size() as isize, Ordering::Relaxed);
        // SAFETY: as above.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LIVE.fetch_add(new_size as isize - layout.size() as isize, Ordering::Relaxed);
        // SAFETY: as above; `ptr` came from this allocator, i.e. from `System`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size() as isize, Ordering::Relaxed);
        // SAFETY: as above.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

fn live() -> isize {
    LIVE.load(Ordering::SeqCst)
}

/// Live bytes once they have held still for 50 ms. A shard worker frees
/// its drain's buffers after it has released the last reply, so a running
/// front is read only once its workers have parked on their queues.
fn settled_live() -> isize {
    let mut last = live();
    let mut still = 0;
    while still < 5 {
        std::thread::sleep(Duration::from_millis(10));
        let now = live();
        still = if now == last { still + 1 } else { 0 };
        last = now;
    }
    last
}

fn popularity(world: &World) -> Popularity {
    let train: Vec<Vec<usize>> = world.sessions.iter().map(|s| s.clicks.clone()).collect();
    Popularity::from_sessions(&train, world.tags.len())
}

/// A front of `shards` popularity replicas over `catalog`, publishing into
/// `registry`, with one request answered by every shard.
fn front(
    shards: usize,
    catalog: &Arc<Catalog>,
    model: &Popularity,
    registry: &MetricsRegistry,
) -> ShardedServer {
    let (catalog, model) = (Arc::clone(catalog), model.clone());
    let front = ShardedServer::spawn(
        ShardConfig { shards, ..Default::default() },
        registry.clone(),
        move |_| ModelServer::with_catalog(model.clone(), Arc::clone(&catalog)),
    );
    for tenant in 0..shards {
        let _ = front.cold_start_tags(tenant);
    }
    front
}

/// Live bytes a front of `shards` replicas holds while idle, over a
/// `registry` that already holds every metric name the front registers.
fn front_bytes(
    shards: usize,
    catalog: &Arc<Catalog>,
    model: &Popularity,
    registry: &MetricsRegistry,
) -> isize {
    let before = live();
    let front = front(shards, catalog, model, registry);
    let held = settled_live() - before;
    front.shutdown();
    held
}

/// One stack's life: a two-shard front behind a loopback gateway serves
/// JSON and binary requests of every kind, then everything shuts down.
fn serve_one_round(world: &World, catalog: &Arc<Catalog>, model: &Popularity) {
    let registry = MetricsRegistry::new();
    let (catalog, model) = (Arc::clone(catalog), model.clone());
    let front = Arc::new(ShardedServer::spawn(
        ShardConfig { shards: 2, batch_max: 4, queue_capacity: 64 },
        registry.clone(),
        move |_| ModelServer::with_catalog(model.clone(), Arc::clone(&catalog)),
    ));
    let share = Arc::clone(&front);
    let handle = Gateway::spawn(
        "127.0.0.1:0",
        GatewayConfig { workers: 2, ..Default::default() },
        &registry,
        move |_| Arc::clone(&share),
    )
    .expect("gateway binds");
    let requests: Vec<RecommendRequest> = (0..world.tenants.len())
        .filter(|&tenant| !world.rqs_by_tenant[tenant].is_empty())
        .take(4)
        .flat_map(|tenant| {
            let question = world.rqs[world.rqs_by_tenant[tenant][0]].text();
            let clicks = vec![world.tenant_tag_pool(tenant)[0]];
            [
                RecommendRequest { tenant, question: Some(question), clicks: vec![] },
                RecommendRequest { tenant, question: None, clicks },
                RecommendRequest { tenant, question: None, clicks: vec![] },
            ]
        })
        .collect();
    {
        let mut json = GatewayClient::new(handle.addr());
        let mut binary =
            PipelinedClient::new(handle.addr(), 1, 4).with_timeout(Duration::from_secs(5));
        for req in &requests {
            let answer = if req.clicks.is_empty() { json.recommend(req) } else { json.click(req) };
            answer.expect("json answered");
            binary.submit(req, 0).expect("binary submit");
        }
        let done = binary.drain().expect("every frame answered");
        assert_eq!(done.len(), requests.len());
        assert!(done.iter().all(|c| c.payload.is_response()));
    }
    handle.shutdown();
    drop(front);
}

#[test]
fn replicas_share_one_catalog_and_torn_down_stacks_give_memory_back() {
    let world = World::generate(WorldConfig::small(7));
    let model = popularity(&world);

    let before = live();
    let catalog = Arc::new(Catalog::from_world(&world));
    let catalog_bytes = live() - before;
    // Shard workers register their metric names concurrently, and the
    // registry's B-tree grows one more node or one fewer depending on the
    // order they land in. Registering them once up front keeps that out of
    // the readings, so they are the same on every run.
    let registry = MetricsRegistry::new();
    front(4, &catalog, &model, &registry).shutdown();
    let one = front_bytes(1, &catalog, &model, &registry);
    let four = front_bytes(4, &catalog, &model, &registry);
    drop(registry);
    println!("catalog {catalog_bytes} B, 1-shard front {one} B, 4-shard front {four} B");
    assert!(one > 0 && four > one, "a front holds memory: 1 shard {one} B, 4 shards {four} B");
    assert!(
        four - one < catalog_bytes,
        "three more shards held {} B, more than the {catalog_bytes} B catalog they share",
        four - one
    );

    let world = World::generate(WorldConfig::tiny(7));
    let (catalog, model) = (Arc::new(Catalog::from_world(&world)), popularity(&world));
    // Every thread of a round is joined by the time it returns. The
    // readings live on the stack, so taking them allocates nothing.
    serve_one_round(&world, &catalog, &model);
    let mut after = [0isize; 4];
    let floor = live();
    for reading in &mut after {
        serve_one_round(&world, &catalog, &model);
        *reading = live();
    }
    println!("live after the first stack {floor} B, after each later one {after:?}");
    assert!(
        after.iter().all(|&live| live <= floor),
        "a torn-down stack kept memory: {floor} B after the first round, then {after:?}"
    );
}
