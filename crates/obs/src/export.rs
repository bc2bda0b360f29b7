//! Export format: Prometheus text exposition, dependency-free by design
//! (the build environment is offline). [`parse_prometheus`] is the
//! scrape-side inverse the tests use for round-trip checks.

use crate::histogram::{bucket_bounds, bucket_index_for_value, HistogramSnapshot};

/// A point-in-time sample of one named metric.
#[derive(Debug, Clone, PartialEq)]
pub enum MetricSample {
    /// Counter value.
    Counter {
        /// Registered name.
        name: String,
        /// Current total.
        value: u64,
    },
    /// Gauge value.
    Gauge {
        /// Registered name.
        name: String,
        /// Current value.
        value: f64,
    },
    /// Histogram state.
    Histogram {
        /// Registered name.
        name: String,
        /// Bucket counts and aggregates.
        snapshot: HistogramSnapshot,
    },
}

impl MetricSample {
    /// The metric's registered name.
    pub fn name(&self) -> &str {
        match self {
            MetricSample::Counter { name, .. }
            | MetricSample::Gauge { name, .. }
            | MetricSample::Histogram { name, .. } => name,
        }
    }
}

/// Builds a labeled metric name: `base{k1="v1",k2="v2"}` with keys sorted
/// for a canonical form. Registered under this full string, the Prometheus
/// renderer emits the label block verbatim (merging `le` for histogram
/// buckets), so per-shard series like `sharded.request_us{shard="3"}` come
/// out as proper labeled time series instead of name-mangled metrics.
///
/// Label values are escaped per the exposition format (`\\`, `\"`, `\n`);
/// keys should already be exposition-safe identifiers.
pub fn labeled(base: &str, labels: &[(&str, &str)]) -> String {
    if labels.is_empty() {
        return base.to_string();
    }
    let mut pairs: Vec<(&str, &str)> = labels.to_vec();
    pairs.sort_by_key(|&(k, _)| k);
    let body: Vec<String> =
        pairs.iter().map(|(k, v)| format!("{k}=\"{}\"", escape_label_value(v))).collect();
    format!("{base}{{{}}}", body.join(","))
}

fn escape_label_value(v: &str) -> String {
    let mut out = String::with_capacity(v.len());
    for ch in v.chars() {
        match ch {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

/// Splits a registered name into its base and an optional `{...}` label
/// block (as produced by [`labeled`]).
fn split_labels(name: &str) -> (&str, Option<&str>) {
    match (name.find('{'), name.ends_with('}')) {
        (Some(i), true) => (&name[..i], Some(&name[i + 1..name.len() - 1])),
        _ => (name, None),
    }
}

/// Maps a metric name onto the Prometheus exposition charset
/// (`[a-zA-Z0-9_:]`, not starting with a digit).
fn sanitize(name: &str) -> String {
    let mut out = String::with_capacity(name.len());
    for (i, ch) in name.chars().enumerate() {
        let ok = ch.is_ascii_alphanumeric() || ch == '_' || ch == ':';
        if i == 0 && ch.is_ascii_digit() {
            out.push('_');
        }
        out.push(if ok { ch } else { '_' });
    }
    out
}

fn render_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else if v.is_nan() {
        "NaN".to_string()
    } else if v > 0.0 {
        "+Inf".to_string()
    } else {
        "-Inf".to_string()
    }
}

/// Renders `body` (the interior of a label block) plus an optional extra
/// pair as a `{...}` suffix, or nothing when both are absent.
fn label_block(body: Option<&str>, extra: Option<&str>) -> String {
    match (body, extra) {
        (None, None) => String::new(),
        (Some(b), None) => format!("{{{b}}}"),
        (None, Some(e)) => format!("{{{e}}}"),
        (Some(b), Some(e)) => format!("{{{b},{e}}}"),
    }
}

/// Renders samples in the Prometheus text exposition format.
///
/// Names carrying a `{...}` suffix (see [`labeled`]) are emitted as labeled
/// series: the base name is sanitized, the label block passes through, and a
/// family's `# TYPE` header is emitted once no matter how many labeled
/// series it has. Histograms emit cumulative `_bucket{le="..."}` lines for
/// their non-empty HDR buckets (inclusive upper bounds, which always lie
/// inside the bucket they bound so the parser can invert them) plus the
/// mandatory `+Inf` bucket, `_sum` and `_count`, with `le` merged into any
/// existing labels.
pub fn render_prometheus(samples: &[MetricSample]) -> String {
    let mut out = String::new();
    let mut typed: std::collections::BTreeSet<String> = std::collections::BTreeSet::new();
    let mut type_line = |out: &mut String, family: &str, kind: &str| {
        if typed.insert(family.to_string()) {
            out.push_str(&format!("# TYPE {family} {kind}\n"));
        }
    };
    for s in samples {
        let (base, labels) = split_labels(s.name());
        let n = sanitize(base);
        match s {
            MetricSample::Counter { value, .. } => {
                type_line(&mut out, &n, "counter");
                out.push_str(&format!("{n}{} {value}\n", label_block(labels, None)));
            }
            MetricSample::Gauge { value, .. } => {
                type_line(&mut out, &n, "gauge");
                out.push_str(&format!("{n}{} {}\n", label_block(labels, None), render_f64(*value)));
            }
            MetricSample::Histogram { snapshot, .. } => {
                type_line(&mut out, &n, "histogram");
                let mut cum = 0u64;
                for &(i, c) in &snapshot.buckets {
                    cum += c;
                    let le = HistogramSnapshot::bucket_upper_bound(i);
                    if le == u64::MAX {
                        continue; // terminal bucket: covered by +Inf
                    }
                    let block = label_block(labels, Some(&format!("le=\"{le}\"")));
                    out.push_str(&format!("{n}_bucket{block} {cum}\n"));
                }
                let inf = label_block(labels, Some("le=\"+Inf\""));
                out.push_str(&format!("{n}_bucket{inf} {}\n", snapshot.count));
                let plain = label_block(labels, None);
                out.push_str(&format!("{n}_sum{plain} {}\n", snapshot.sum));
                out.push_str(&format!("{n}_count{plain} {}\n", snapshot.count));
            }
        }
    }
    out
}

/// Splits a label-block body into `(key, unescaped value)` pairs.
fn parse_label_pairs(body: &str) -> Result<Vec<(String, String)>, String> {
    let mut pairs = Vec::new();
    let mut rest = body.trim();
    while !rest.is_empty() {
        let eq = rest.find('=').ok_or_else(|| format!("missing `=` in labels `{body}`"))?;
        let key = rest[..eq].trim().to_string();
        let after = rest[eq + 1..]
            .trim_start()
            .strip_prefix('"')
            .ok_or_else(|| format!("unquoted label value in `{body}`"))?;
        // Scan for the closing quote, escape-aware.
        let bytes = after.as_bytes();
        let mut esc = false;
        let mut end = None;
        for (i, &b) in bytes.iter().enumerate() {
            if esc {
                esc = false;
            } else if b == b'\\' {
                esc = true;
            } else if b == b'"' {
                end = Some(i);
                break;
            }
        }
        let end = end.ok_or_else(|| format!("unterminated label value in `{body}`"))?;
        let mut value = String::new();
        let mut chars = after[..end].chars();
        while let Some(ch) = chars.next() {
            if ch != '\\' {
                value.push(ch);
                continue;
            }
            match chars.next() {
                Some('\\') => value.push('\\'),
                Some('"') => value.push('"'),
                Some('n') => value.push('\n'),
                other => return Err(format!("bad label escape `\\{other:?}` in `{body}`")),
            }
        }
        pairs.push((key, value));
        rest = after[end + 1..].trim_start();
        rest = rest.strip_prefix(',').unwrap_or(rest).trim_start();
    }
    Ok(pairs)
}

/// Rebuilds a canonical registered name from a base and parsed label pairs.
fn canonical_name(base: &str, pairs: &[(String, String)]) -> String {
    let borrowed: Vec<(&str, &str)> = pairs.iter().map(|(k, v)| (k.as_str(), v.as_str())).collect();
    labeled(base, &borrowed)
}

/// Splits a sample line into `(name-with-labels, value)`. The label block's
/// closing brace is located with an escape- and quote-aware scan so label
/// values containing `{`, `}` or spaces don't derail the parse.
fn split_sample_line(line: &str) -> Result<(&str, &str), String> {
    let Some(open) = line.find('{') else {
        let sp = line.rfind(' ').ok_or_else(|| format!("no value in `{line}`"))?;
        return Ok((line[..sp].trim(), line[sp..].trim()));
    };
    let bytes = line.as_bytes();
    let (mut in_str, mut esc) = (false, false);
    for i in open + 1..bytes.len() {
        let b = bytes[i];
        if in_str {
            if esc {
                esc = false;
            } else if b == b'\\' {
                esc = true;
            } else if b == b'"' {
                in_str = false;
            }
        } else if b == b'"' {
            in_str = true;
        } else if b == b'}' {
            return Ok((line[..=i].trim(), line[i + 1..].trim()));
        }
    }
    Err(format!("unterminated label block in `{line}`"))
}

/// One histogram series being reassembled from its exposition lines.
struct PendingHistogram {
    /// Canonical name (base + labels minus `le`).
    name: String,
    /// `(bucket index, cumulative count)` for the finite buckets, in order.
    cum: Vec<(usize, u64)>,
    /// Cumulative count at `le="+Inf"` (the total).
    total: Option<u64>,
    sum: Option<u64>,
}

impl PendingHistogram {
    fn finalize(self, count: u64) -> Result<MetricSample, String> {
        let total = self.total.unwrap_or(count);
        if total != count {
            return Err(format!("histogram `{}`: +Inf bucket {total} != count {count}", self.name));
        }
        let mut buckets = Vec::with_capacity(self.cum.len() + 1);
        let mut prev = 0u64;
        for (i, c) in self.cum {
            if c < prev {
                return Err(format!("histogram `{}`: non-monotone cumulative buckets", self.name));
            }
            if c > prev {
                buckets.push((i, c - prev));
            }
            prev = c;
        }
        if count < prev {
            return Err(format!("histogram `{}`: count below last bucket", self.name));
        }
        if count > prev {
            // Samples beyond the last finite bound live in the terminal
            // bucket (the renderer folds it into +Inf).
            buckets.push((crate::histogram::NUM_BUCKETS - 1, count - prev));
        }
        let (min, max) = match (buckets.first(), buckets.last()) {
            (Some(&(lo, _)), Some(&(hi, _))) => {
                (bucket_bounds(lo).0, HistogramSnapshot::bucket_upper_bound(hi))
            }
            _ => (0, 0),
        };
        Ok(MetricSample::Histogram {
            name: self.name,
            snapshot: HistogramSnapshot { count, sum: self.sum.unwrap_or(0), min, max, buckets },
        })
    }
}

fn parse_u64(v: &str) -> Result<u64, String> {
    v.parse::<u64>().map_err(|_| format!("expected integer, got `{v}`"))
}

/// Parses Prometheus text exposition produced by [`render_prometheus`] back
/// into samples — the scrape-side inverse used by the round-trip property
/// tests and by anything consuming a scraped snapshot.
///
/// Counters and gauges round-trip exactly (modulo name sanitization, which
/// is lossy by design). Histograms recover their count, sum, per-bucket
/// counts and label sets exactly; `min`/`max` are not part of the
/// exposition format and come back as the enclosing bucket bounds.
pub fn parse_prometheus(text: &str) -> Result<Vec<MetricSample>, String> {
    use std::collections::HashMap;
    let mut kinds: HashMap<String, String> = HashMap::new();
    let mut pending: Option<PendingHistogram> = None;
    let mut out = Vec::new();
    for (lineno, raw) in text.lines().enumerate() {
        let line = raw.trim();
        let fail = |e: String| format!("line {}: {e}", lineno + 1);
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix('#') {
            let mut it = rest.split_whitespace();
            if it.next() == Some("TYPE") {
                let fam = it.next().ok_or_else(|| fail("TYPE without a name".into()))?;
                let kind = it.next().ok_or_else(|| fail("TYPE without a kind".into()))?;
                kinds.insert(fam.to_string(), kind.to_string());
            }
            continue; // comments and other directives
        }
        // `name{labels} value` — the closing brace is found with a
        // quote-aware scan, since label values may contain `{`/`}`.
        let (name_part, value_part) = split_sample_line(line).map_err(fail)?;
        let (base, label_body) = split_labels(name_part);
        let mut pairs =
            label_body.map(parse_label_pairs).transpose().map_err(fail)?.unwrap_or_default();

        // Histogram component lines (`_bucket` / `_sum` / `_count`)?
        let hist_family = ["_bucket", "_sum", "_count"].iter().find_map(|suffix| {
            let fam = base.strip_suffix(suffix)?;
            (kinds.get(fam).map(String::as_str) == Some("histogram")).then_some((fam, *suffix))
        });
        if let Some((fam, suffix)) = hist_family {
            let le = pairs.iter().position(|(k, _)| k == "le").map(|i| pairs.remove(i).1);
            let series = canonical_name(fam, &pairs);
            let h = pending.get_or_insert_with(|| PendingHistogram {
                name: series.clone(),
                cum: Vec::new(),
                total: None,
                sum: None,
            });
            if h.name != series {
                return Err(fail(format!(
                    "interleaved histogram series `{series}` inside `{}`",
                    h.name
                )));
            }
            match suffix {
                "_bucket" => {
                    let le = le.ok_or_else(|| fail("bucket line without `le`".into()))?;
                    let cum = parse_u64(value_part).map_err(fail)?;
                    if le == "+Inf" {
                        h.total = Some(cum);
                    } else {
                        // Rendered `le` bounds lie inside their own bucket,
                        // so the value->index map recovers the bucket index.
                        // (The pre-HDR renderer's `2^k - 1` bounds are each
                        // the last sub-bucket of their power of two, so old
                        // exposition text still lands on the right bucket.)
                        let bound = parse_u64(&le).map_err(fail)?;
                        h.cum.push((bucket_index_for_value(bound), cum));
                    }
                }
                "_sum" => h.sum = Some(parse_u64(value_part).map_err(fail)?),
                _ => {
                    let count = parse_u64(value_part).map_err(fail)?;
                    let done = pending.take().expect("pending histogram");
                    out.push(done.finalize(count).map_err(fail)?);
                }
            }
            continue;
        }
        if pending.is_some() {
            return Err(fail(format!("unterminated histogram before `{line}`")));
        }
        let name = canonical_name(base, &pairs);
        match kinds.get(base).map(String::as_str) {
            Some("counter") => out
                .push(MetricSample::Counter { name, value: parse_u64(value_part).map_err(fail)? }),
            Some("gauge") => {
                let value = match value_part {
                    "NaN" => f64::NAN,
                    "+Inf" => f64::INFINITY,
                    "-Inf" => f64::NEG_INFINITY,
                    v => v.parse::<f64>().map_err(|_| fail(format!("bad gauge value `{v}`")))?,
                };
                out.push(MetricSample::Gauge { name, value });
            }
            other => return Err(fail(format!("sample `{base}` has unknown type {other:?}"))),
        }
    }
    if let Some(h) = pending {
        return Err(format!("histogram `{}` missing its _count line", h.name));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::MetricsRegistry;

    fn sample_registry() -> MetricsRegistry {
        let r = MetricsRegistry::new();
        r.counter("serving.requests").add(7);
        r.gauge("online.macro_ctr").set(0.4375);
        let h = r.histogram("serving.stage.recall_us");
        for v in [0, 1, 3, 900, 1_000_000] {
            h.record(v);
        }
        r
    }

    #[test]
    fn prometheus_exposition_shape() {
        let text = sample_registry().render_prometheus();
        assert!(text.contains("# TYPE serving_requests counter\nserving_requests 7\n"));
        assert!(text.contains("# TYPE online_macro_ctr gauge\nonline_macro_ctr 0.4375\n"));
        assert!(text.contains("# TYPE serving_stage_recall_us histogram\n"));
        // Cumulative buckets: sub-16 values get exact buckets; 900 lands in
        // the HDR sub-bucket [896, 927] and 1_000_000 in [983040, 1015807].
        assert!(text.contains("serving_stage_recall_us_bucket{le=\"0\"} 1\n"));
        assert!(text.contains("serving_stage_recall_us_bucket{le=\"1\"} 2\n"));
        assert!(text.contains("serving_stage_recall_us_bucket{le=\"3\"} 3\n"));
        assert!(text.contains("serving_stage_recall_us_bucket{le=\"927\"} 4\n"));
        assert!(text.contains("serving_stage_recall_us_bucket{le=\"1015807\"} 5\n"));
        assert!(text.contains("serving_stage_recall_us_bucket{le=\"+Inf\"} 5\n"));
        assert!(text.contains("serving_stage_recall_us_sum 1000904\n"));
        assert!(text.contains("serving_stage_recall_us_count 5\n"));
    }

    #[test]
    fn prometheus_sanitizes_names() {
        let samples = vec![MetricSample::Counter { name: "9a.b-c d".into(), value: 1 }];
        let text = render_prometheus(&samples);
        assert!(text.contains("_9a_b_c_d 1\n"), "{text}");
    }

    #[test]
    fn labeled_builds_canonical_names() {
        assert_eq!(labeled("x", &[]), "x");
        assert_eq!(labeled("x.y", &[("shard", "3")]), "x.y{shard=\"3\"}");
        // Keys sort; values escape.
        assert_eq!(
            labeled("x", &[("b", "q\"uote"), ("a", "back\\slash")]),
            "x{a=\"back\\\\slash\",b=\"q\\\"uote\"}"
        );
    }

    #[test]
    fn labeled_series_render_with_label_blocks() {
        let r = MetricsRegistry::new();
        r.counter_labeled("sharded.shed", &[("shard", "0")]).add(2);
        r.counter_labeled("sharded.shed", &[("shard", "1")]).add(3);
        r.histogram_labeled("sharded.request_us", &[("shard", "0")]).record(7);
        let text = r.render_prometheus();
        assert!(text.contains("sharded_shed{shard=\"0\"} 2\n"), "{text}");
        assert!(text.contains("sharded_shed{shard=\"1\"} 3\n"), "{text}");
        // One TYPE header per family, not per labeled series.
        assert_eq!(text.matches("# TYPE sharded_shed counter").count(), 1);
        // Histogram buckets merge `le` into the label set.
        assert!(text.contains("sharded_request_us_bucket{shard=\"0\",le=\"7\"} 1\n"), "{text}");
        assert!(text.contains("sharded_request_us_bucket{shard=\"0\",le=\"+Inf\"} 1\n"), "{text}");
        assert!(text.contains("sharded_request_us_sum{shard=\"0\"} 7\n"), "{text}");
        assert!(text.contains("sharded_request_us_count{shard=\"0\"} 1\n"), "{text}");
    }

    #[test]
    fn prometheus_round_trips_counters_and_gauges() {
        let r = MetricsRegistry::new();
        r.counter("a_hits").add(7);
        r.counter_labeled("a_hits", &[("shard", "2")]).add(9);
        r.gauge("b_ctr").set(0.4375);
        r.gauge("c_nan").set(f64::NAN);
        r.gauge("d_inf").set(f64::INFINITY);
        let back = parse_prometheus(&r.render_prometheus()).expect("parse");
        let snap = r.snapshot();
        assert_eq!(back.len(), snap.len());
        for (b, s) in back.iter().zip(&snap) {
            match (b, s) {
                (MetricSample::Gauge { value: vb, .. }, MetricSample::Gauge { value: vs, .. })
                    if vs.is_nan() =>
                {
                    assert!(vb.is_nan())
                }
                _ => assert_eq!(b, s),
            }
        }
    }

    #[test]
    fn prometheus_round_trips_histogram_buckets() {
        let r = MetricsRegistry::new();
        let h = r.histogram_labeled("lat_us", &[("shard", "1")]);
        for v in [0u64, 1, 3, 900, 1_000_000, u64::MAX] {
            h.record(v);
        }
        let back = parse_prometheus(&r.render_prometheus()).expect("parse");
        assert_eq!(back.len(), 1);
        let MetricSample::Histogram { name, snapshot } = &back[0] else {
            panic!("expected histogram, got {back:?}");
        };
        assert_eq!(name, "lat_us{shard=\"1\"}");
        let orig = r.histogram_labeled("lat_us", &[("shard", "1")]).snapshot();
        // count, sum and every per-bucket count survive the text format;
        // min/max degrade to bucket bounds.
        assert_eq!(snapshot.count, orig.count);
        assert_eq!(snapshot.sum, orig.sum);
        assert_eq!(snapshot.buckets, orig.buckets);
        assert!(snapshot.min <= orig.min && snapshot.max >= orig.max);
    }

    #[test]
    fn parse_prometheus_rejects_garbage() {
        assert!(parse_prometheus("no_type_line 3").is_err());
        assert!(parse_prometheus("# TYPE x counter\nx notanumber").is_err());
        // Unterminated histogram (missing _count).
        let text = "# TYPE h histogram\nh_bucket{le=\"+Inf\"} 1\nh_sum 5\n";
        assert!(parse_prometheus(text).is_err());
    }

    #[test]
    fn merged_histogram_aggregates_labeled_series() {
        let r = MetricsRegistry::new();
        r.histogram_labeled("front_us", &[("shard", "0")]).record(5);
        r.histogram_labeled("front_us", &[("shard", "1")]).record(900);
        r.histogram("front_us_other").record(1); // different family untouched
        let merged = r.merged_histogram("front_us");
        assert_eq!(merged.count, 2);
        assert_eq!(merged.sum, 905);
        assert_eq!(merged.min, 5);
        assert_eq!(merged.max, 900);
    }

    #[test]
    fn empty_input_parses_to_nothing() {
        assert_eq!(MetricsRegistry::new().render_prometheus(), "");
        assert_eq!(parse_prometheus("").unwrap(), Vec::new());
        assert_eq!(parse_prometheus("\n  \n").unwrap(), Vec::new());
    }
}
