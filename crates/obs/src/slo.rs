//! Per-tenant-tier SLO accounting on top of the labeled metric series.
//!
//! The paper's online deployment promises a hard latency budget (respond in
//! under 150 ms, Table VI); a multi-tenant serving stack needs to know *per
//! tier* how much of that budget is burnt. The serving layer records one
//! labeled histogram `slo.latency_us{tenant_tier="..."}` per tier plus a
//! shed counter `slo.shed{tenant_tier="..."}`; [`SloReport::from_registry`]
//! folds those series into per-tier p50/p99, shed fraction, and the error
//! budget consumed against a target p99.

use crate::registry::MetricsRegistry;

/// Histogram family for per-tier request latency (microseconds).
pub const SLO_LATENCY_METRIC: &str = "slo.latency_us";
/// Counter family for per-tier shed (rejected) requests.
pub const SLO_SHED_METRIC: &str = "slo.shed";
/// Label key carrying the tenant tier.
pub const SLO_TIER_LABEL: &str = "tenant_tier";

/// Maps a tenant id onto the index of its service tier (`0..3`) — the one
/// tier rule; per-tier series bound as `[_; 3]` arrays are indexed by it.
/// The seed workload has no real billing data, so tiers are assigned
/// round-robin — the point is that the *pipeline* (labeled series ->
/// report) is tier-aware end to end.
pub fn tier_index(tenant_id: u64) -> usize {
    (tenant_id % 3) as usize
}

/// The name of a tenant's service tier (the [`tier_index`]-th of `gold`,
/// `silver`, `bronze`).
pub fn tenant_tier(tenant_id: u64) -> &'static str {
    ["gold", "silver", "bronze"][tier_index(tenant_id)]
}

/// SLO summary for one tenant tier.
#[derive(Debug, Clone, PartialEq)]
pub struct TierSlo {
    /// Tier name (`gold` / `silver` / `bronze`).
    pub tier: String,
    /// Completed requests observed.
    pub count: u64,
    /// Median latency, microseconds.
    pub p50_us: u64,
    /// 99th-percentile latency, microseconds.
    pub p99_us: u64,
    /// Requests shed (rejected before scoring).
    pub shed: u64,
    /// Shed requests as a fraction of all offered requests.
    pub shed_fraction: f64,
    /// Fraction of the 1% error budget consumed: a request violates the SLO
    /// when it exceeds the target p99 *or* is shed; 1.0 means exactly 1% of
    /// offered requests violated, >1.0 means the budget is blown.
    pub budget_used: f64,
}

/// Per-tier SLO report derived from a registry's `slo.*` series.
#[derive(Debug, Clone, PartialEq)]
pub struct SloReport {
    /// The latency target the budget is measured against (microseconds).
    pub target_p99_us: u64,
    /// Per-tier summaries, sorted by tier name.
    pub tiers: Vec<TierSlo>,
}

/// Extracts the tier value from a canonical labeled name like
/// `slo.latency_us{tenant_tier="gold"}`.
fn tier_of(name: &str, base: &str) -> Option<String> {
    let rest = name.strip_prefix(base)?;
    let body = rest.strip_prefix('{')?.strip_suffix('}')?;
    // Canonical names from `labeled` quote values and sort keys; the SLO
    // series carry exactly one label.
    let value = body.strip_prefix(&format!("{SLO_TIER_LABEL}=\""))?.strip_suffix('"')?;
    Some(value.to_string())
}

impl SloReport {
    /// Builds the report by scanning `registry` for per-tier SLO series.
    /// Tiers appear if they have latency samples, shed counts, or both.
    pub fn from_registry(registry: &MetricsRegistry, target_p99_us: u64) -> Self {
        use std::collections::BTreeMap;
        let mut tiers: BTreeMap<String, TierSlo> = BTreeMap::new();
        let blank = |tier: &str| TierSlo {
            tier: tier.to_string(),
            count: 0,
            p50_us: 0,
            p99_us: 0,
            shed: 0,
            shed_fraction: 0.0,
            budget_used: 0.0,
        };
        for name in registry.names() {
            if let Some(tier) = tier_of(&name, SLO_LATENCY_METRIC) {
                if let Some(crate::Metric::Histogram(h)) = registry.get(&name) {
                    let snap = h.snapshot();
                    let entry = tiers.entry(tier.clone()).or_insert_with(|| blank(&tier));
                    entry.count = snap.count;
                    entry.p50_us = snap.quantile(0.50);
                    entry.p99_us = snap.quantile(0.99);
                    // Stash the over-target fraction in budget_used; the
                    // final budget math happens once shed is known.
                    entry.budget_used = snap.fraction_above(target_p99_us);
                }
            } else if let Some(tier) = tier_of(&name, SLO_SHED_METRIC) {
                if let Some(crate::Metric::Counter(c)) = registry.get(&name) {
                    let entry = tiers.entry(tier.clone()).or_insert_with(|| blank(&tier));
                    entry.shed = c.get();
                }
            }
        }
        let mut tiers: Vec<TierSlo> = tiers.into_values().collect();
        for t in &mut tiers {
            let offered = t.count + t.shed;
            if offered == 0 {
                t.shed_fraction = 0.0;
                t.budget_used = 0.0;
                continue;
            }
            let slow = t.budget_used * t.count as f64; // violations from latency
            let violations = slow + t.shed as f64;
            t.shed_fraction = t.shed as f64 / offered as f64;
            // 1% error budget: budget_used = violation fraction / 0.01.
            t.budget_used = (violations / offered as f64) / 0.01;
        }
        SloReport { target_p99_us, tiers }
    }

    /// Renders the report as one JSON object (no trailing newline).
    pub fn to_json(&self) -> String {
        let mut out = format!("{{\"target_p99_us\":{},\"tiers\":[", self.target_p99_us);
        for (i, t) in self.tiers.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"tier\":\"{}\",\"count\":{},\"p50_us\":{},\"p99_us\":{},\"shed\":{},\
                 \"shed_fraction\":{:.6},\"budget_used\":{:.4}}}",
                t.tier, t.count, t.p50_us, t.p99_us, t.shed, t.shed_fraction, t.budget_used
            ));
        }
        out.push_str("]}");
        out
    }

    /// Renders a fixed-width text table for CLI output.
    pub fn render_text(&self) -> String {
        let mut out = format!(
            "SLO report (target p99 <= {} us, 1% error budget)\n\
             {:<8} {:>9} {:>9} {:>9} {:>7} {:>8} {:>8}\n",
            self.target_p99_us, "tier", "count", "p50_us", "p99_us", "shed", "shed%", "budget"
        );
        for t in &self.tiers {
            out.push_str(&format!(
                "{:<8} {:>9} {:>9} {:>9} {:>7} {:>7.2}% {:>7.2}x\n",
                t.tier,
                t.count,
                t.p50_us,
                t.p99_us,
                t.shed,
                t.shed_fraction * 100.0,
                t.budget_used
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tenant_tiers_are_stable() {
        assert_eq!(tenant_tier(0), "gold");
        assert_eq!(tenant_tier(1), "silver");
        assert_eq!(tenant_tier(2), "bronze");
        assert_eq!(tenant_tier(3), "gold");
        assert_eq!((tier_index(4), tier_index(u64::MAX)), (1, 0));
    }

    #[test]
    fn report_folds_latency_and_shed_series() {
        let r = MetricsRegistry::new();
        let gold = r.histogram_labeled(SLO_LATENCY_METRIC, &[(SLO_TIER_LABEL, "gold")]);
        for _ in 0..99 {
            gold.record(1_000);
        }
        gold.record(50_000); // one sample far over target
        r.counter_labeled(SLO_SHED_METRIC, &[(SLO_TIER_LABEL, "gold")]).add(0);
        let silver = r.histogram_labeled(SLO_LATENCY_METRIC, &[(SLO_TIER_LABEL, "silver")]);
        for _ in 0..90 {
            silver.record(2_000);
        }
        r.counter_labeled(SLO_SHED_METRIC, &[(SLO_TIER_LABEL, "silver")]).add(10);

        let report = SloReport::from_registry(&r, 10_000);
        assert_eq!(report.tiers.len(), 2);
        let g = report.tiers.iter().find(|t| t.tier == "gold").expect("gold tier");
        assert_eq!(g.count, 100);
        assert!((900..=1100).contains(&g.p50_us), "p50 {}", g.p50_us);
        assert_eq!(g.shed, 0);
        // 1 of 100 offered over target => exactly the 1% budget.
        assert!((g.budget_used - 1.0).abs() < 0.05, "budget {}", g.budget_used);
        let s = report.tiers.iter().find(|t| t.tier == "silver").expect("silver tier");
        assert_eq!(s.count, 90);
        assert_eq!(s.shed, 10);
        assert!((s.shed_fraction - 0.1).abs() < 1e-9);
        // 10 shed of 100 offered => 10x the 1% budget.
        assert!((s.budget_used - 10.0).abs() < 0.05, "budget {}", s.budget_used);
    }

    #[test]
    fn empty_registry_yields_empty_report() {
        let r = MetricsRegistry::new();
        let report = SloReport::from_registry(&r, 150_000);
        assert!(report.tiers.is_empty());
        assert_eq!(report.to_json(), "{\"target_p99_us\":150000,\"tiers\":[]}");
    }

    #[test]
    fn json_and_text_render_every_tier() {
        let r = MetricsRegistry::new();
        r.histogram_labeled(SLO_LATENCY_METRIC, &[(SLO_TIER_LABEL, "bronze")]).record(5_000);
        let report = SloReport::from_registry(&r, 150_000);
        let json = report.to_json();
        assert!(json.contains("\"tier\":\"bronze\""), "{json}");
        assert!(json.contains("\"count\":1"), "{json}");
        let text = report.render_text();
        assert!(text.contains("bronze"), "{text}");
        assert!(text.contains("budget"), "{text}");
    }
}
