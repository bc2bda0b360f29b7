//! Results as files: the host fingerprint, one run's JSON, sets of runs, and
//! the two judgements over sets — `compare` (two commits) and `agree` (one
//! commit twice).

use std::collections::BTreeMap;
use std::path::Path;

use crate::json::{self, Json};
use crate::stats;

/// A measured value with its unit, by metric name.
pub type Metrics = BTreeMap<String, (f64, String)>;

pub fn put(m: &mut Metrics, name: &str, value: f64, unit: &str) {
    m.insert(name.to_string(), (value, unit.to_string()));
}

/// One metric's entry in `BENCHMARK.json`.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricSpec {
    pub name: String,
    pub unit: String,
    pub higher_is_better: bool,
    /// Share of the median by which the metric may worsen; end-to-end only.
    pub bound: Option<f64>,
}

/// The parts of `BENCHMARK.json` the runner reads back.
#[derive(Debug, Clone)]
pub struct Contract {
    pub workloads: Vec<String>,
    pub end_to_end: Vec<MetricSpec>,
    pub per_layer: Vec<MetricSpec>,
    pub run_seconds: f64,
}

impl Contract {
    /// Reads `BENCHMARK.json` from the repository root (the directory above
    /// this package).
    pub fn load() -> Result<Contract, String> {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let text =
            std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        Contract::parse(&text)
    }

    pub fn parse(text: &str) -> Result<Contract, String> {
        let doc = json::parse(text)?;
        let list = |key: &str| {
            doc.get(key)
                .and_then(Json::as_arr)
                .ok_or_else(|| format!("BENCHMARK.json lacks `{key}`"))
        };
        let field = |v: &Json, key: &str| {
            v.get(key)
                .and_then(Json::as_str)
                .map(str::to_string)
                .ok_or_else(|| format!("an entry lacks `{key}`"))
        };
        let specs = |key: &str| -> Result<Vec<MetricSpec>, String> {
            list(key)?
                .iter()
                .map(|v| {
                    Ok(MetricSpec {
                        name: field(v, "name")?,
                        unit: field(v, "unit")?,
                        higher_is_better: field(v, "better")? == "higher",
                        bound: v.get("bound").and_then(Json::as_f64),
                    })
                })
                .collect()
        };
        Ok(Contract {
            workloads: list("workloads")?
                .iter()
                .map(|w| field(w, "name"))
                .collect::<Result<_, _>>()?,
            end_to_end: specs("end_to_end")?,
            per_layer: specs("per_layer")?,
            run_seconds: doc
                .get("run_seconds")
                .and_then(Json::as_f64)
                .ok_or("BENCHMARK.json lacks `run_seconds`")?,
        })
    }
}

/// What must match before two result sets may be compared. The commit and
/// the workload seed are recorded beside it but are not part of it.
pub fn fingerprint(extra: &[(&str, Json)]) -> Json {
    let cpuinfo = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
    let line = |key: &str| {
        cpuinfo
            .lines()
            .find(|l| l.starts_with(key))
            .and_then(|l| l.split_once(':'))
            .map_or_else(String::new, |(_, v)| v.trim().to_string())
    };
    let flags = line("flags");
    let has = |flag: &str| flags.split_ascii_whitespace().any(|f| f == flag);
    let mut fields: Vec<(String, Json)> = vec![
        ("nproc".into(), Json::Num(crate::stack::nproc() as f64)),
        ("cpu_model".into(), Json::str(line("model name"))),
        ("avx2".into(), Json::Bool(has("avx2"))),
        ("fma".into(), Json::Bool(has("fma"))),
        ("rustc".into(), Json::str(env!("BENCH_RUSTC_VERSION"))),
    ];
    fields.extend(extra.iter().map(|(k, v)| (k.to_string(), v.clone())));
    Json::obj(fields)
}

/// One finished run, as written to a result file and read back.
#[derive(Debug, Clone)]
pub struct RunRecord {
    pub workload: String,
    pub seed: u64,
    pub trace: bool,
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Metrics,
}

impl RunRecord {
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("workload", Json::str(&*self.workload)),
            ("seed", Json::Num(self.seed as f64)),
            ("trace", Json::Bool(self.trace)),
            ("correct", Json::Bool(self.correct)),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            ("metrics", metrics_json(&self.metrics, None)),
        ])
    }

    pub fn from_json(v: &Json) -> Result<RunRecord, String> {
        let num =
            |k: &str| v.get(k).and_then(Json::as_f64).ok_or_else(|| format!("run lacks `{k}`"));
        let flag = |k: &str| matches!(v.get(k), Some(Json::Bool(true)));
        let mut metrics = Metrics::new();
        for (name, entry) in v.get("metrics").and_then(Json::as_obj).ok_or("run lacks `metrics`")? {
            let value = entry.get("value").and_then(Json::as_f64).unwrap_or(f64::NAN);
            let unit = entry.get("unit").and_then(Json::as_str).unwrap_or("");
            metrics.insert(name.clone(), (value, unit.to_string()));
        }
        Ok(RunRecord {
            workload: v
                .get("workload")
                .and_then(Json::as_str)
                .ok_or("run lacks `workload`")?
                .to_string(),
            seed: num("seed")? as u64,
            trace: flag("trace"),
            correct: flag("correct"),
            attempted: num("attempted")? as u64,
            failed: num("failed")? as u64,
            metrics,
        })
    }
}

/// `{"name": {"value": v, "unit": u}}`, restricted to `only` when given (and
/// then in no case missing a name: an absent metric reads 0).
pub fn metrics_json(metrics: &Metrics, only: Option<&[MetricSpec]>) -> Json {
    let entry = |value: f64, unit: &str| {
        Json::obj([("value", Json::Num(value)), ("unit", Json::str(unit))])
    };
    match only {
        None => Json::obj(metrics.iter().map(|(k, (v, u))| (k.clone(), entry(*v, u)))),
        Some(specs) => Json::obj(specs.iter().map(|s| {
            let value = metrics.get(&s.name).map_or(0.0, |(v, _)| *v);
            (s.name.clone(), entry(value, &s.unit))
        })),
    }
}

/// The line the driver reads: exactly `correct`, `attempted`, `failed` and
/// `metrics`.
pub fn result_line(run: &RunRecord, specs: &[MetricSpec]) -> String {
    Json::obj([
        ("correct", Json::Bool(run.correct)),
        ("attempted", Json::Num(run.attempted as f64)),
        ("failed", Json::Num(run.failed as f64)),
        ("metrics", metrics_json(&run.metrics, Some(specs))),
    ])
    .render()
}

/// A set of runs of one commit on one host.
#[derive(Debug, Clone)]
pub struct ResultSet {
    pub fingerprint: Json,
    pub commit: String,
    pub runs: Vec<RunRecord>,
}

impl ResultSet {
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("fingerprint", self.fingerprint.clone()),
            ("commit", Json::str(&*self.commit)),
            ("runs", Json::Arr(self.runs.iter().map(RunRecord::to_json).collect())),
        ])
    }

    pub fn read(path: &Path) -> Result<ResultSet, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
        let doc = json::parse(&text)?;
        Ok(ResultSet {
            fingerprint: doc.get("fingerprint").cloned().ok_or("result set lacks `fingerprint`")?,
            commit: doc.get("commit").and_then(Json::as_str).unwrap_or("unknown").to_string(),
            runs: doc
                .get("runs")
                .and_then(Json::as_arr)
                .ok_or("result set lacks `runs`")?
                .iter()
                .map(RunRecord::from_json)
                .collect::<Result<_, _>>()?,
        })
    }

    /// The values of `metric` over the untraced runs of `workload`.
    pub fn values(&self, workload: &str, metric: &str) -> Vec<f64> {
        self.runs
            .iter()
            .filter(|r| r.workload == workload && !r.trace)
            .filter_map(|r| r.metrics.get(metric).map(|(v, _)| *v))
            .collect()
    }
}

/// How one `(metric, workload)` row came out.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Judgement {
    /// Not worse than the base by more than the bound.
    Within,
    /// Worse by more than the bound.
    Worse,
    /// A spread wider than the bound: the runs cannot tell.
    Unresolved,
    /// One side has no values for the row.
    Missing,
}

/// One row of a comparison.
#[derive(Debug, Clone)]
pub struct Row {
    pub metric: String,
    pub workload: String,
    pub base: (f64, f64, f64),
    pub other: (f64, f64, f64),
    /// By what share of the base median the other median is worse.
    pub worse_by: f64,
    pub bound: f64,
    pub judgement: Judgement,
}

fn summary(values: &[f64]) -> (f64, f64, f64) {
    let m = stats::median(values);
    if values.len() < 2 {
        return (m, m, m);
    }
    let (q1, q3) = stats::quartiles(values);
    (q1, m, q3)
}

/// The one metric whose spread alone never makes a row unresolved: set-up
/// time's spread is the host's, and the acceptance rule exempts it.
const SPREAD_EXEMPT: &str = "setup_s";

/// Judges `other` against `base` on every end-to-end row.
pub fn judge(base: &ResultSet, other: &ResultSet, contract: &Contract) -> Vec<Row> {
    let mut rows = Vec::new();
    for spec in &contract.end_to_end {
        let bound = spec.bound.unwrap_or(0.0);
        for workload in &contract.workloads {
            let (a, b) = (base.values(workload, &spec.name), other.values(workload, &spec.name));
            let (sa, sb) = (summary(&a), summary(&b));
            let worse_by = if sa.1 == 0.0 {
                0.0
            } else if spec.higher_is_better {
                (sa.1 - sb.1) / sa.1.abs()
            } else {
                (sb.1 - sa.1) / sa.1.abs()
            };
            let judgement = if a.is_empty() || b.is_empty() {
                Judgement::Missing
            } else if worse_by > bound {
                Judgement::Worse
            } else if spec.name != SPREAD_EXEMPT
                && (stats::spread(&a) > bound || stats::spread(&b) > bound)
            {
                Judgement::Unresolved
            } else {
                Judgement::Within
            };
            rows.push(Row {
                metric: spec.name.clone(),
                workload: workload.clone(),
                base: sa,
                other: sb,
                worse_by,
                bound,
                judgement,
            });
        }
    }
    rows
}

pub fn print_rows(rows: &[Row]) {
    println!(
        "{:<16} {:<22} {:>36} {:>36} {:>9} {:>6}  verdict",
        "metric",
        "workload",
        "base q1 / median / q3",
        "other q1 / median / q3",
        "worse by",
        "bound"
    );
    for r in rows {
        let three = |(q1, m, q3): (f64, f64, f64)| format!("{q1:.4} / {m:.4} / {q3:.4}");
        println!(
            "{:<16} {:<22} {:>36} {:>36} {:>+8.2}% {:>5.0}%  {}",
            r.metric,
            r.workload,
            three(r.base),
            three(r.other),
            r.worse_by * 100.0,
            r.bound * 100.0,
            match r.judgement {
                Judgement::Within => "within bound",
                Judgement::Worse => "WORSE",
                Judgement::Unresolved => "unresolved",
                Judgement::Missing => "missing",
            }
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const CONTRACT: &str = r#"{
        "command": ["x"], "paths": ["benchmark"], "run_seconds": 15,
        "workloads": [{"name": "w1", "why": "a"}, {"name": "w2", "why": "b"}],
        "end_to_end": [
            {"name": "p50_us", "unit": "us", "better": "lower", "bound": 0.1},
            {"name": "throughput_rps", "unit": "1/s", "better": "higher", "bound": 0.1},
            {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25}],
        "per_layer": [{"name": "x.y", "unit": "ns", "better": "lower"}]
    }"#;

    fn set(p50: &[f64], rps: &[f64], setup: &[f64]) -> ResultSet {
        let runs = (0..p50.len())
            .flat_map(|i| {
                ["w1", "w2"].map(|w| {
                    let mut metrics = Metrics::new();
                    put(&mut metrics, "p50_us", p50[i], "us");
                    put(&mut metrics, "throughput_rps", rps[i], "1/s");
                    put(&mut metrics, "setup_s", setup[i], "s");
                    RunRecord {
                        workload: w.into(),
                        seed: i as u64,
                        trace: false,
                        correct: true,
                        attempted: 10,
                        failed: 0,
                        metrics,
                    }
                })
            })
            .collect();
        ResultSet { fingerprint: Json::Null, commit: "c".into(), runs }
    }

    #[test]
    fn contract_parses_names_bounds_and_directions() {
        let c = Contract::parse(CONTRACT).unwrap();
        assert_eq!(c.workloads, ["w1", "w2"]);
        assert_eq!(c.end_to_end[1].name, "throughput_rps");
        assert!(c.end_to_end[1].higher_is_better && !c.end_to_end[0].higher_is_better);
        assert_eq!(c.end_to_end[0].bound, Some(0.1));
        assert_eq!(c.per_layer[0].bound, None);
        assert_eq!(c.run_seconds, 15.0);
    }

    #[test]
    fn judge_applies_bounds_in_each_metrics_direction() {
        let c = Contract::parse(CONTRACT).unwrap();
        let base =
            set(&[100.0, 101.0, 99.0, 100.0], &[50.0, 50.5, 49.5, 50.0], &[2.0, 2.0, 3.0, 2.0]);
        // Latency 5 % worse (within 10 %), throughput 20 % lower (worse),
        // set-up noisy but its median unmoved (spread exempt).
        let other =
            set(&[105.0, 106.0, 104.0, 105.0], &[40.0, 40.4, 39.6, 40.0], &[2.0, 3.0, 2.0, 1.0]);
        let rows = judge(&base, &other, &c);
        let row = |m: &str| rows.iter().find(|r| r.metric == m && r.workload == "w1").unwrap();
        assert_eq!(row("p50_us").judgement, Judgement::Within);
        assert!((row("p50_us").worse_by - 0.05).abs() < 1e-9);
        assert_eq!(row("throughput_rps").judgement, Judgement::Worse);
        assert_eq!(row("setup_s").judgement, Judgement::Within);
        // A wide spread on a bounded metric is unresolved, not unchanged.
        let noisy = set(&[80.0, 120.0, 100.0, 130.0], &[50.0, 50.5, 49.5, 50.0], &[2.0; 4]);
        let rows = judge(&base, &noisy, &c);
        assert_eq!(rows[0].judgement, Judgement::Unresolved);
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys_and_names() {
        let c = Contract::parse(CONTRACT).unwrap();
        let run = &set(&[1.5], &[2.5], &[3.5]).runs[0];
        let line = result_line(run, &c.end_to_end);
        let v = json::parse(&line).unwrap();
        let keys: Vec<&String> = v.as_obj().unwrap().keys().collect();
        assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
        let names: Vec<&String> = v.get("metrics").unwrap().as_obj().unwrap().keys().collect();
        assert_eq!(names, ["p50_us", "setup_s", "throughput_rps"]);
        // A per-layer name the run did not measure still prints, as 0.
        let line = result_line(run, &c.per_layer);
        assert!(line.contains(r#""x.y":{"unit":"ns","value":0}"#), "{line}");
        // Records survive the round trip through a file's JSON.
        let back = RunRecord::from_json(&run.to_json()).unwrap();
        assert_eq!(back.metrics, run.metrics);
    }
}
