//! End-to-end observability demo: serve simulated traffic through a
//! `ModelServer` wired to a shared `intellitag-obs` registry, then print the
//! stage-by-stage latency picture the paper summarises in Table VI —
//! p50/p90/p99 per serving stage (ES recall, matcher rerank, model scoring,
//! cache lookup) plus cache-hit, cold-start and error counters — and finally
//! the same registry in both export formats (Prometheus text + JSON lines),
//! and the top-5 slowest retained request traces as per-stage waterfalls.
//!
//! ```sh
//! cargo run --release --example metrics_dashboard
//! ```

use intellitag::prelude::*;

fn stage_row(name: &str, snap: &HistogramSnapshot) {
    println!(
        "{:<22} {:>8} {:>9} {:>9} {:>9} {:>9.1}",
        name,
        snap.count,
        snap.quantile(0.50),
        snap.quantile(0.90),
        snap.quantile(0.99),
        snap.mean(),
    );
}

/// One trace as a per-stage waterfall: each span drawn as a bar positioned
/// at its start/end offsets on a shared time axis scaled to the trace total.
fn waterfall(trace: &FinishedTrace) {
    const WIDTH: u64 = 48;
    let total = trace.total_us.max(1);
    println!(
        "trace {}  total {} us  ({} spans)",
        format_trace_id(trace.trace_id),
        trace.total_us,
        trace.spans.len()
    );
    for span in &trace.spans {
        let s = (span.start_us * WIDTH / total).min(WIDTH - 1) as usize;
        let e = ((span.end_us * WIDTH).div_ceil(total) as usize).clamp(s + 1, WIDTH as usize);
        let bar: String =
            (0..WIDTH as usize).map(|i| if (s..e).contains(&i) { '#' } else { '·' }).collect();
        let mut notes = String::new();
        if let Some(shard) = span.shard {
            notes.push_str(&format!("  shard {shard}"));
        }
        if let Some(rows) = span.batch_rows {
            notes.push_str(&format!("  rows {rows}"));
        }
        println!("  {:<10} {bar} {:>6} us{notes}", span.name, span.end_us - span.start_us);
    }
}

fn main() {
    let world = World::generate(WorldConfig::small(7));
    let train: Vec<Vec<usize>> = world.sessions.iter().map(|s| s.clicks.clone()).collect();
    let texts: Vec<String> = world.tags.iter().map(|t| t.text()).collect();

    // One registry shared by the model wrapper and the server, so model
    // forward-pass time and per-stage serving time land side by side.
    let registry = MetricsRegistry::new();
    let model = Instrumented::new(Popularity::from_sessions(&train, world.tags.len()), &registry);
    let server = ModelServer::new(
        model,
        world.build_kb(),
        texts,
        world.rqs.iter().map(|r| r.tags.clone()).collect(),
        (0..world.tenants.len()).map(|e| world.tenant_tag_pool(e)).collect(),
        world.click_frequency(),
    )
    .with_cache(512)
    .with_metrics(registry.clone());

    // Plain traffic: every session replayed as incremental tag clicks, plus
    // the underlying question. Repeated prefixes exercise the cache. Every
    // request is traced; the collector tail-retains the slowest per window.
    let traces = TraceCollector::new(&registry, TraceConfig::default());
    let trace_ids = TraceIdGen::new(0xda5b_0a2d_0000_0001);
    let trace_request = |f: &mut dyn FnMut(&TraceHandle)| {
        let t = TraceHandle::new(trace_ids.next_id());
        f(&t);
        t.record("request", 0, t.now_us());
        traces.offer(t.finish());
    };
    println!("serving {} sessions ...", world.sessions.len());
    for session in &world.sessions {
        let tenant = session.tenant;
        trace_request(&mut |t| {
            let text = world.rqs[session.intent_rq].text();
            let _ = server.call(Request::Question { tenant, text }, Some(t), Admission::Block);
        });
        for len in 1..=session.clicks.len() {
            trace_request(&mut |t| {
                let clicks = session.clicks[..len].to_vec();
                let _ =
                    server.call(Request::TagClick { tenant, clicks }, Some(t), Admission::Block);
            });
        }
    }

    // Degraded traffic: the paths that used to panic now only move counters.
    let _ = server.handle_question(0, "zzz qqq nothing the kb knows"); // cold start
    let _ = server.handle_question(usize::MAX, "who am i"); // bad tenant
    let _ = server.handle_tag_click(0, &[]); // empty clicks
    let _ = server.handle_tag_click(1, &[usize::MAX]); // bad tag id

    let hist = |name: &str| registry.histogram(name).snapshot();
    let count = |name: &str| registry.counter(name).get();

    println!("\n== per-stage latency (µs) ==");
    println!("{:<22} {:>8} {:>9} {:>9} {:>9} {:>9}", "stage", "count", "p50", "p90", "p99", "mean");
    stage_row("recall (BM25)", &hist("serving.stage.recall_us"));
    stage_row("rerank (QA match)", &hist("serving.stage.rerank_us"));
    stage_row("score (model)", &hist("serving.stage.score_us"));
    stage_row("cache lookup", &hist("serving.stage.cache_us"));
    stage_row("model forward pass", &hist("model.Popularity.score_us"));
    stage_row("question end-to-end", &hist("serving.question_us"));
    stage_row("tag click end-to-end", &hist("serving.tag_click_us"));

    println!("\n== counters ==");
    println!("cache hits            {}", count("serving.cache.hit"));
    println!("cache misses          {}", count("serving.cache.miss"));
    println!("cold-start fallbacks  {}", count("serving.cold_start_fallback"));
    println!("bad-tenant requests   {}", count("serving.error.bad_tenant"));
    println!("bad-tag clicks        {}", count("serving.error.bad_tag"));
    println!("empty-click requests  {}", count("serving.error.empty_clicks"));
    if let Some(rate) = server.cache_hit_rate() {
        println!("cache hit rate        {rate:.3}");
    }

    // What a scraper would fetch from this process.
    println!("\n== Prometheus exposition (serving.* series) ==");
    for line in registry.render_prometheus().lines() {
        if line.contains("serving_") {
            println!("{line}");
        }
    }

    println!("\n== JSON lines (counters and gauges) ==");
    for line in registry.render_json_lines().lines() {
        if line.contains("\"counter\"") || line.contains("\"gauge\"") {
            println!("{line}");
        }
    }

    // The tail the collector kept: the 5 slowest retained traces, each as a
    // per-stage waterfall on a shared time axis.
    println!(
        "\n== top-5 slowest retained traces ({} offered, {} retained) ==",
        traces.seen(),
        traces.traces().len()
    );
    for trace in traces.slowest(5) {
        waterfall(&trace);
    }
}
