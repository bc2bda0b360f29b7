//! Extension bench — response caching (the paper's §VII future work:
//! "cache high-frequency data to decrease system latency").
//!
//! Replays a Zipf-like click-prefix stream against the same model server
//! with and without the cache, and reports hit rate and mean latency.

use criterion::{criterion_group, criterion_main, Criterion};
use intellitag_baselines::Popularity;
use intellitag_bench::Experiment;
use intellitag_core::{ModelServer, TagService};
use intellitag_datagen::World;
use rand::distributions::WeightedIndex;
use rand::prelude::*;
use rand::rngs::StdRng;

fn make_server(world: &World, cached: bool) -> ModelServer<Popularity> {
    let sessions: Vec<Vec<usize>> = world.sessions.iter().map(|s| s.clicks.clone()).collect();
    let server = ModelServer::new(
        Popularity::from_sessions(&sessions, world.tags.len()),
        world.build_kb(),
        world.tags.iter().map(|t| t.text()).collect(),
        world.rqs.iter().map(|r| r.tags.clone()).collect(),
        (0..world.tenants.len()).map(|e| world.tenant_tag_pool(e)).collect(),
        world.click_frequency(),
    );
    if cached {
        server.with_cache(512)
    } else {
        server
    }
}

/// A heavy-tailed request stream: most requests repeat popular one-click
/// prefixes from a big tenant.
fn request_stream(world: &World, n: usize) -> Vec<(usize, Vec<usize>)> {
    let tenant = (0..world.tenants.len()).max_by_key(|&e| world.rqs_by_tenant[e].len()).unwrap();
    let pool = world.tenant_tag_pool(tenant);
    let dist =
        WeightedIndex::new((0..pool.len()).map(|r| 1.0 / ((r + 1) as f64).powf(1.2))).unwrap();
    let mut rng = StdRng::seed_from_u64(42);
    (0..n)
        .map(|_| {
            let a = pool[dist.sample(&mut rng)];
            if rng.gen_bool(0.4) {
                let b = pool[dist.sample(&mut rng)];
                (tenant, vec![a, b])
            } else {
                (tenant, vec![a])
            }
        })
        .collect()
}

fn run_comparison(world: &World) {
    println!("\n=== Extension: response cache (paper §VII future work) ===");
    let stream = request_stream(world, 4000);
    for cached in [false, true] {
        let server = make_server(world, cached);
        for (tenant, clicks) in &stream {
            let _ = server.handle_tag_click(*tenant, clicks);
        }
        let lat = server.latencies_us();
        let mean_us = lat.iter().sum::<u64>() as f64 / lat.len() as f64;
        match server.cache_hit_rate() {
            Some(hr) => {
                println!("cached:   mean latency {mean_us:>8.1} us  hit rate {:.1}%", hr * 100.0)
            }
            None => println!("uncached: mean latency {mean_us:>8.1} us"),
        }
    }
}

fn bench(c: &mut Criterion) {
    let exp = Experiment::standard(1);
    run_comparison(&exp.world);

    let uncached = make_server(&exp.world, false);
    let cached = make_server(&exp.world, true);
    let tenant =
        (0..exp.world.tenants.len()).max_by_key(|&e| exp.world.rqs_by_tenant[e].len()).unwrap();
    let clicks = vec![exp.world.tenant_tag_pool(tenant)[0]];
    // Warm the cache once so the cached bench measures the hit path.
    let _ = cached.handle_tag_click(tenant, &clicks);
    c.bench_function("tag_click_uncached", |b| {
        b.iter(|| uncached.handle_tag_click(tenant, &clicks))
    });
    c.bench_function("tag_click_cached_hit", |b| {
        b.iter(|| cached.handle_tag_click(tenant, &clicks))
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(50);
    targets = bench
}
criterion_main!(benches);
