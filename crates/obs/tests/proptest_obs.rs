//! Property tests for the observability primitives: histogram quantile
//! monotonicity and HDR relative-error bounds, merge-equals-concat
//! recording, and Prometheus round-trips on arbitrary sample sets.

use intellitag_obs::{labeled, parse_prometheus, render_prometheus, Histogram, MetricSample};
use proptest::collection::vec;
use proptest::prelude::*;

/// Records every sample into a fresh histogram.
fn hist_from(samples: &[u64]) -> Histogram {
    let h = Histogram::new();
    for &v in samples {
        h.record(v);
    }
    h
}

/// Builds a mixed sample set: counters, gauges and histograms, some carrying
/// a per-shard label, with unique names by construction.
fn sample_set(
    counters: &[u64],
    gauges: &[f64],
    hists: &[Vec<u64>],
    label_value: &str,
) -> Vec<MetricSample> {
    let mut out = Vec::new();
    for (i, &value) in counters.iter().enumerate() {
        let base = format!("c{i}.total");
        let name = if i % 2 == 0 { base } else { labeled(&base, &[("shard", label_value)]) };
        out.push(MetricSample::Counter { name, value });
    }
    for (i, &value) in gauges.iter().enumerate() {
        out.push(MetricSample::Gauge { name: format!("g{i}.level"), value });
    }
    for (i, samples) in hists.iter().enumerate() {
        let base = format!("h{i}.lat_us");
        let name = if i % 2 == 0 { base } else { labeled(&base, &[("shard", label_value)]) };
        out.push(MetricSample::Histogram { name, snapshot: hist_from(samples).snapshot() });
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn quantiles_are_monotone_in_q(samples in vec(0u64..5_000_000, 1..300),
                                   qa in 0.0f64..1.0, qb in 0.0f64..1.0) {
        let s = hist_from(&samples).snapshot();
        let (lo, hi) = if qa <= qb { (qa, qb) } else { (qb, qa) };
        prop_assert!(s.quantile(lo) <= s.quantile(hi),
                     "q{lo} > q{hi}: {} > {}", s.quantile(lo), s.quantile(hi));
        // The headline SLO triple in particular.
        let (p50, p90, p99) = (s.quantile(0.5), s.quantile(0.9), s.quantile(0.99));
        prop_assert!(p50 <= p90 && p90 <= p99, "{p50} {p90} {p99}");
        // Quantiles stay inside the observed range.
        prop_assert!(s.quantile(0.0) >= s.min);
        prop_assert_eq!(s.quantile(1.0), s.max);
    }

    #[test]
    fn merge_equals_concat_recording(a in vec(0u64..u64::MAX, 0..200),
                                     b in vec(0u64..u64::MAX, 0..200)) {
        let concat: Vec<u64> = a.iter().chain(&b).copied().collect();
        let mut merged = hist_from(&a).snapshot();
        merged.merge(&hist_from(&b).snapshot());
        prop_assert_eq!(&merged, &hist_from(&concat).snapshot());
        // Merge is commutative.
        let mut flipped = hist_from(&b).snapshot();
        flipped.merge(&hist_from(&a).snapshot());
        prop_assert_eq!(&flipped, &merged);
    }

    #[test]
    fn prometheus_export_round_trips(counters in vec(0u64..u64::MAX, 0..6),
                                     gauges in vec(-1e12f64..1e12, 0..6),
                                     hists in vec(vec(0u64..10_000_000, 0..80), 0..5),
                                     label in "[a-zA-Z0-9 {}=,\\\\\"_-]{0,12}") {
        let samples = sample_set(&counters, &gauges, &hists, &label);
        let back = parse_prometheus(&render_prometheus(&samples));
        prop_assert!(back.is_ok(), "parse failed: {:?}", back.err());
        let back = back.unwrap();
        prop_assert_eq!(back.len(), samples.len());
        for (b, s) in back.iter().zip(&samples) {
            match (b, s) {
                // Metric names use the exposition charset already, so they
                // survive sanitization apart from `.` becoming `_`.
                (MetricSample::Counter { name, value },
                 MetricSample::Counter { name: n0, value: v0 }) => {
                    prop_assert_eq!(name, &n0.replace('.', "_"));
                    prop_assert_eq!(value, v0);
                }
                (MetricSample::Gauge { value, .. }, MetricSample::Gauge { value: v0, .. }) => {
                    prop_assert!((value - v0).abs() <= v0.abs() * 1e-12,
                                 "gauge {value} != {v0}");
                }
                (MetricSample::Histogram { snapshot, .. },
                 MetricSample::Histogram { snapshot: s0, .. }) => {
                    // count, sum and per-bucket counts are lossless; min/max
                    // degrade to the enclosing bucket bounds.
                    prop_assert_eq!(snapshot.count, s0.count);
                    prop_assert_eq!(snapshot.sum, s0.sum);
                    prop_assert_eq!(&snapshot.buckets, &s0.buckets);
                    prop_assert!(snapshot.min <= s0.min && snapshot.max >= s0.max);
                }
                other => prop_assert!(false, "kind mismatch: {other:?}"),
            }
        }
    }

    #[test]
    fn hdr_quantiles_stay_within_relative_error(samples in vec(0u64..50_000_000, 1..400),
                                                raw_q in 0.0f64..1.0) {
        // The advertised HDR guarantee: every quantile estimate is within
        // 6.25% (1/SUB_BUCKETS) of the true order statistic — and survives
        // record -> snapshot -> merge of a split recording.
        let q = raw_q.clamp(0.001, 0.999);
        let mid = samples.len() / 2;
        let mut merged = hist_from(&samples[..mid]).snapshot();
        merged.merge(&hist_from(&samples[mid..]).snapshot());
        let mut sorted = samples.clone();
        sorted.sort_unstable();
        let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
        let truth = sorted[rank - 1];
        let est = merged.quantile(q);
        let err = est.abs_diff(truth) as f64;
        prop_assert!(err <= (truth as f64 / 16.0).max(1.0),
                     "q={q}: est {est} vs truth {truth} (err {err})");
    }
}
