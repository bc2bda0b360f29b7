//! Quickstart: generate a synthetic cloud customer-service world, train the
//! IntelliTag model, evaluate it offline, and serve a few requests.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use std::sync::Arc;

use intellitag::prelude::*;

fn main() {
    // ----- 1. The world (substitute for the paper's proprietary dataset) ---
    let world = World::generate(WorldConfig::small(42));
    let graph = world.build_graph();
    let counts = graph.relation_counts();
    println!("== Synthetic world (Table II analogue) ==");
    println!(
        "T(tags)={}  Q(RQs)={}  E(tenants)={}",
        world.tags.len(),
        world.rqs.len(),
        world.tenants.len()
    );
    println!("asc={}  clk={}  cst={}  crl={}", counts.asc, counts.clk, counts.cst, counts.crl);
    println!(
        "sessions={}  tag clicks={}  average clicks={:.1}\n",
        world.sessions.len(),
        world.total_clicks(),
        world.avg_clicks()
    );

    // ----- 2. Train IntelliTag on the session log -------------------------
    let split = split_sessions(&world.sessions, 0);
    let train: Vec<Vec<usize>> = split.train.iter().map(|s| s.clicks.clone()).collect();
    let texts: Vec<String> = world.tags.iter().map(|t| t.text()).collect();
    let cfg = TagRecConfig {
        train: TrainConfig { epochs: 3, lr: 3e-3, ..Default::default() },
        ..Default::default()
    };
    println!("training {} on {} sessions ...", cfg.model_name(), train.len());
    let model = IntelliTag::train(&graph, &texts, &train, cfg);

    // ----- 3. Offline evaluation (the paper's §VI-A2 protocol) ------------
    let test = sequence_examples(&split.test);
    let report = evaluate_offline(&model, &test, &world, &ProtocolConfig::default());
    println!("\n== Offline evaluation ({} test examples) ==", test.len());
    println!("{:<16} MRR    N@1    N@5    N@10   HR@5   HR@10", "Model");
    println!("{}", report.table_row("IntelliTag"));

    // ----- 4. Serve requests (the paper's Fig. 1 interaction) -------------
    let server = ModelServer::with_catalog(model, Arc::new(Catalog::from_world(&world)));
    // Pick a tenant with a healthy corpus for the demo.
    let tenant = (0..world.tenants.len()).max_by_key(|&e| world.rqs_by_tenant[e].len()).unwrap();
    let rq = &world.rqs[world.rqs_by_tenant[tenant][0]];

    println!("\n== Serving demo (tenant {tenant}) ==");
    println!("user asks: {:?}", rq.text());
    let q = server.handle_question(tenant, &rq.text());
    println!("answer:    {:?}", q.answer.as_deref().unwrap_or("<none>"));
    println!(
        "suggested tags: {:?}  ({} us)",
        q.recommended_tags.iter().map(|&t| texts[t].clone()).collect::<Vec<_>>(),
        q.latency_us
    );

    let first_click = q.recommended_tags[0];
    println!("\nuser clicks tag {:?}", texts[first_click]);
    let r = server.handle_tag_click(tenant, &[first_click]);
    println!(
        "next tags:  {:?}",
        r.recommended_tags.iter().map(|&t| texts[t].clone()).collect::<Vec<_>>()
    );
    println!("predicted questions ({} us):", r.latency_us);
    for &pq in &r.predicted_questions {
        println!("  - {}", world.rqs[pq].text());
    }
    println!(
        "\ncold-start tags: {:?}",
        server.cold_start_tags(tenant).iter().map(|&t| texts[t].clone()).collect::<Vec<_>>()
    );
}
