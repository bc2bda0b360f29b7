//! The repository's benchmark: four workloads over the serving spine, the
//! end-to-end metrics a tenant's users would feel, and a traced run that
//! walks the layers. `README.md` has the catalogue; `../BENCHMARK.json` the
//! contract the names and bounds come from.
//!
//! ```text
//! benchmark run --workload W --seed N --seconds S --trace 0|1   one run; last line is the result JSON
//! benchmark all [--seed N] [--repeat K] [--reverse] [--out FILE] [--check]
//!                                                                every workload, untraced, K times
//! benchmark trace --workload W [--seed N]                        the traced run (per-layer metrics)
//! benchmark compare A.json B.json                                two commits, same host
//! benchmark agree A.json B.json                                  one commit twice: the acceptance check
//! benchmark calibrate                                            closed-loop capacity on the session mix
//! ```

mod json;
mod layers;
mod loadgen;
mod proc;
mod report;
mod run;
mod stack;
mod stats;
mod trace;
mod workload;

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;

use json::Json;
use report::{Contract, Judgement, ResultSet, RunRecord};
use workload::Workload;

/// Seconds per workload in the smoke mode.
const CHECK_SECONDS: f64 = 2.0;

struct Args(Vec<String>);

impl Args {
    fn value(&self, flag: &str) -> Option<&str> {
        self.0.iter().position(|a| a == flag).and_then(|i| self.0.get(i + 1)).map(String::as_str)
    }

    fn parsed<T: std::str::FromStr>(&self, flag: &str) -> Result<Option<T>, String> {
        self.value(flag)
            .map(|v| v.parse().map_err(|_| format!("bad value `{v}` for {flag}")))
            .transpose()
    }

    fn has(&self, flag: &str) -> bool {
        self.0.iter().any(|a| a == flag)
    }

    fn positional(&self, n: usize) -> Result<&str, String> {
        self.0.get(n).map(String::as_str).ok_or_else(|| "missing file argument".to_string())
    }
}

fn fingerprint() -> Json {
    report::fingerprint(&[
        ("fma_kernels", Json::Bool(layers::fma_kernels())),
        ("pool_threads", Json::Num(layers::pool_threads() as f64)),
        ("par_threshold", Json::Num(layers::par_threshold() as f64)),
        ("rate_rungs_rps", Json::Arr(run::RATES_RPS.iter().map(|&r| Json::Num(r)).collect())),
        ("limit_us", Json::Num(run::LIMIT_US)),
    ])
}

/// One run in this process. Prints every metric, then the driver's line.
/// A run that finished is a success of the *command* whatever it found: its
/// line says whether every reply was right (`all` is what fails on that).
fn run_here(args: &Args, process_start: Instant) -> Result<bool, String> {
    let contract = Contract::load()?;
    let name = args.value("--workload").ok_or("run needs --workload")?;
    let workload = Workload::parse(name)
        .ok_or_else(|| format!("unknown workload `{name}` (have {:?})", contract.workloads))?;
    let run_args = run::RunArgs {
        workload,
        seed: args.parsed("--seed")?.unwrap_or(1),
        seconds: args.parsed("--seconds")?.unwrap_or(contract.run_seconds),
        trace: args.value("--trace") == Some("1"),
        check: args.has("--check"),
    };
    if run_args.seconds.is_nan() || run_args.seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    let out = run::run(&run_args, process_start);
    let record = RunRecord {
        workload: run_args.workload.name().to_string(),
        seed: run_args.seed,
        trace: run_args.trace,
        correct: out.correct,
        attempted: out.attempted,
        failed: out.failed,
        metrics: out.metrics,
    };
    for (name, (value, unit)) in &record.metrics {
        println!("  {name} = {value} {unit}");
    }
    for failure in &out.failures {
        println!("  FAILED {failure}");
    }
    println!("  fingerprint = {}", fingerprint().render());
    println!("  commit = {} seed = {}", env!("BENCH_GIT_COMMIT"), run_args.seed);
    let specs = if run_args.trace { &contract.per_layer } else { &contract.end_to_end };
    println!("{}", report::result_line(&record, specs));
    if let Some(path) = args.value("--record") {
        std::fs::write(path, record.to_json().render()).map_err(|e| format!("{path}: {e}"))?;
    }
    Ok(true)
}

/// Runs `run` in a child process (its own peak memory, CPU time and set-up),
/// passing its report through, and reads its record back.
fn run_child(
    workload: &str,
    seed: u64,
    seconds: f64,
    trace: bool,
    check: bool,
) -> Result<RunRecord, String> {
    let record_path = stack::out_dir().join(format!("run-{}.json", std::process::id()));
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["run", "--workload", workload, "--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string(), "--trace", if trace { "1" } else { "0" }])
        .arg("--record")
        .arg(&record_path)
        .stdin(Stdio::null());
    if check {
        cmd.arg("--check");
    }
    let status = cmd.status().map_err(|e| format!("spawn: {e}"))?;
    let text = std::fs::read_to_string(&record_path)
        .map_err(|_| format!("{workload} (seed {seed}) left no record; exit {status}"))?;
    let _ = std::fs::remove_file(&record_path);
    RunRecord::from_json(&json::parse(&text)?)
}

/// `all`: every workload, untraced, `--repeat` times with consecutive seeds;
/// with `--check`, the smoke mode (tiny world, traced run too, no timing
/// judgement).
fn all(args: &Args) -> Result<bool, String> {
    let contract = Contract::load()?;
    let check = args.has("--check");
    let seed: u64 = args.parsed("--seed")?.unwrap_or(1);
    let repeat: u64 = args.parsed("--repeat")?.unwrap_or(1);
    let seconds = if check {
        CHECK_SECONDS
    } else {
        args.parsed("--seconds")?.unwrap_or(contract.run_seconds)
    };
    let mut set = ResultSet {
        fingerprint: fingerprint(),
        commit: env!("BENCH_GIT_COMMIT").to_string(),
        runs: Vec::new(),
    };
    // Repetitions are the outer loop, so a drift of the host over the set's
    // duration lands on every workload alike; `--reverse` lets a second set
    // take the workloads in the other order.
    let mut order: Vec<&String> = contract.workloads.iter().collect();
    if args.has("--reverse") {
        order.reverse();
    }
    for rep in 0..repeat {
        for workload in &order {
            set.runs.push(run_child(workload, seed + rep, seconds, false, check)?);
            if check {
                set.runs.push(run_child(workload, seed + rep, seconds, true, check)?);
            }
        }
    }
    let correct = set.runs.iter().all(|r| r.correct);
    println!(
        "\n{:<22} {:<16} {:>14} {:>14} {:>14}  {:<6} {:>7} {:>6}",
        "workload", "metric", "q1", "median", "q3", "unit", "spread", "bound"
    );
    for workload in &contract.workloads {
        for spec in &contract.end_to_end {
            let values = set.values(workload, &spec.name);
            let m = stats::median(&values);
            let (q1, q3) = if values.len() >= 2 { stats::quartiles(&values) } else { (m, m) };
            println!(
                "{workload:<22} {:<16} {q1:>14.4} {m:>14.4} {q3:>14.4}  {:<6} {:>6.1}% {:>5.0}%",
                spec.name,
                spec.unit,
                stats::spread(&values) * 100.0,
                spec.bound.unwrap_or(0.0) * 100.0
            );
        }
    }
    let out = args.value("--out").map_or_else(
        || stack::out_dir().join(if check { "check.json" } else { "results.json" }),
        PathBuf::from,
    );
    std::fs::write(&out, set.to_json().render()).map_err(|e| format!("{}: {e}", out.display()))?;
    println!(
        "\n{} runs written to {}; every reply correct: {correct}",
        set.runs.len(),
        out.display()
    );
    Ok(correct)
}

/// `compare` refuses sets from different hosts or settings; `agree` also
/// wants the same commit, and exempts `setup_s` from the spread rule.
fn judge_files(args: &Args, same_commit: bool) -> Result<bool, String> {
    let contract = Contract::load()?;
    let a = ResultSet::read(Path::new(args.positional(1)?))?;
    let b = ResultSet::read(Path::new(args.positional(2)?))?;
    if a.fingerprint != b.fingerprint {
        return Err(format!(
            "fingerprints differ; these sets cannot be compared\n  {}\n  {}",
            a.fingerprint.render(),
            b.fingerprint.render()
        ));
    }
    if same_commit && a.commit != b.commit {
        return Err(format!("agree wants one commit twice, got {} and {}", a.commit, b.commit));
    }
    if let Some(bad) = a.runs.iter().chain(&b.runs).find(|r| !r.correct) {
        return Err(format!(
            "{} (seed {}) had {} failed replies",
            bad.workload, bad.seed, bad.failed
        ));
    }
    let rows = report::judge(&a, &b, &contract);
    report::print_rows(&rows);
    let count = |j: Judgement| rows.iter().filter(|r| r.judgement == j).count();
    println!(
        "\n{} rows: {} within bound, {} worse, {} unresolved, {} missing",
        rows.len(),
        count(Judgement::Within),
        count(Judgement::Worse),
        count(Judgement::Unresolved),
        count(Judgement::Missing)
    );
    Ok(count(Judgement::Within) == rows.len())
}

fn dispatch(args: &Args, process_start: Instant) -> Result<bool, String> {
    match args.0.first().map(String::as_str) {
        Some("run") => run_here(args, process_start),
        Some("trace") => {
            let mut traced = args.0.clone();
            traced.extend(["--trace".to_string(), "1".to_string()]);
            run_here(&Args(traced), process_start)
        }
        Some("all") => all(args),
        Some("compare") => judge_files(args, false),
        Some("agree") => judge_files(args, true),
        Some("calibrate") => {
            let rec = run_child("session_closed", 1, 10.0, false, false)?;
            let capacity = rec.metrics.get("throughput_rps").map_or(0.0, |m| m.0);
            let shares: Vec<String> =
                run::RATES_RPS.iter().map(|r| format!("{:.0} %", 100.0 * r / capacity)).collect();
            println!(
                "closed-loop capacity on the session mix: {capacity:.0}/s; the rungs {:?}/s are {} of it",
                run::RATES_RPS,
                shares.join(", ")
            );
            Ok(rec.correct)
        }
        _ => Err("usage: benchmark run|all|trace|compare|agree|calibrate (see src/main.rs)".into()),
    }
}

fn main() -> ExitCode {
    let process_start = Instant::now();
    match dispatch(&Args(std::env::args().skip(1).collect()), process_start) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(why) => {
            eprintln!("benchmark: {why}");
            ExitCode::from(2)
        }
    }
}
