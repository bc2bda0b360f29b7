//! The named-metric registry: a cloneable handle shared by every component
//! of the serving/training/simulation stack.

use std::collections::BTreeMap;
use std::sync::{Arc, RwLock};

use crate::export::{self, MetricSample};
use crate::histogram::Histogram;
use crate::metric::{Counter, Gauge};

/// One registered metric.
#[derive(Debug, Clone)]
pub enum Metric {
    /// A monotone counter.
    Counter(Arc<Counter>),
    /// A last-value gauge.
    Gauge(Arc<Gauge>),
    /// A log2 latency histogram.
    Histogram(Arc<Histogram>),
}

impl Metric {
    fn kind(&self) -> &'static str {
        match self {
            Metric::Counter(_) => "counter",
            Metric::Gauge(_) => "gauge",
            Metric::Histogram(_) => "histogram",
        }
    }
}

/// A registry of named metrics.
///
/// Cloning is cheap (an `Arc` bump) and every clone sees the same metrics,
/// so a single registry can be threaded through the model server, training
/// loops and the online simulator. Handles returned by
/// [`MetricsRegistry::counter`] & co. are `Arc`s — callers should grab them
/// once (outside hot loops) and record through the handle.
///
/// Names are free-form dotted paths (`serving.stage.recall_us`); the
/// Prometheus renderer sanitizes them to the exposition charset.
#[derive(Debug, Clone, Default)]
pub struct MetricsRegistry {
    metrics: Arc<RwLock<BTreeMap<String, Metric>>>,
}

impl MetricsRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    fn get_or_insert<T, F, G>(&self, name: &str, wrap: F, unwrap: G) -> Arc<T>
    where
        F: FnOnce(Arc<T>) -> Metric,
        G: Fn(&Metric) -> Option<Arc<T>>,
        T: Default,
    {
        if let Some(m) = self.metrics.read().unwrap_or_else(|e| e.into_inner()).get(name) {
            return unwrap(m)
                .unwrap_or_else(|| panic!("metric `{name}` already registered as a {}", m.kind()));
        }
        let mut w = self.metrics.write().unwrap_or_else(|e| e.into_inner());
        match w.get(name) {
            // Lost the race to another thread registering the same name.
            Some(m) => unwrap(m)
                .unwrap_or_else(|| panic!("metric `{name}` already registered as a {}", m.kind())),
            None => {
                let handle = Arc::new(T::default());
                w.insert(name.to_string(), wrap(Arc::clone(&handle)));
                handle
            }
        }
    }

    /// Returns the counter `name`, creating it on first use.
    ///
    /// # Panics
    /// Panics when `name` is already registered as a different metric kind.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        self.get_or_insert(name, Metric::Counter, |m| match m {
            Metric::Counter(c) => Some(Arc::clone(c)),
            _ => None,
        })
    }

    /// Returns the gauge `name`, creating it on first use.
    ///
    /// # Panics
    /// Panics when `name` is already registered as a different metric kind.
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        self.get_or_insert(name, Metric::Gauge, |m| match m {
            Metric::Gauge(g) => Some(Arc::clone(g)),
            _ => None,
        })
    }

    /// Returns the histogram `name`, creating it on first use.
    ///
    /// # Panics
    /// Panics when `name` is already registered as a different metric kind.
    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        self.get_or_insert(name, Metric::Histogram, |m| match m {
            Metric::Histogram(h) => Some(Arc::clone(h)),
            _ => None,
        })
    }

    /// Returns the labeled counter `base{k="v",...}`, creating it on first
    /// use (see [`crate::labeled`] for the name encoding).
    pub fn counter_labeled(&self, base: &str, labels: &[(&str, &str)]) -> Arc<Counter> {
        self.counter(&export::labeled(base, labels))
    }

    /// Returns the labeled gauge `base{k="v",...}`, creating it on first use.
    pub fn gauge_labeled(&self, base: &str, labels: &[(&str, &str)]) -> Arc<Gauge> {
        self.gauge(&export::labeled(base, labels))
    }

    /// Returns the labeled histogram `base{k="v",...}`, creating it on first
    /// use.
    pub fn histogram_labeled(&self, base: &str, labels: &[(&str, &str)]) -> Arc<Histogram> {
        self.histogram(&export::labeled(base, labels))
    }

    /// Merged snapshot over every histogram named `base` or a labeled
    /// variant `base{...}` — the aggregate view over per-shard series,
    /// equivalent to having recorded every sample into one histogram.
    pub fn merged_histogram(&self, base: &str) -> crate::HistogramSnapshot {
        let metrics = self.metrics.read().unwrap_or_else(|e| e.into_inner());
        let mut merged =
            crate::HistogramSnapshot { count: 0, sum: 0, min: 0, max: 0, buckets: Vec::new() };
        for (name, m) in metrics.iter() {
            let matches =
                name == base || name.strip_prefix(base).is_some_and(|rest| rest.starts_with('{'));
            if let (true, Metric::Histogram(h)) = (matches, m) {
                merged.merge(&h.snapshot());
            }
        }
        merged
    }

    /// Looks up a metric without creating it.
    pub fn get(&self, name: &str) -> Option<Metric> {
        self.metrics.read().unwrap_or_else(|e| e.into_inner()).get(name).cloned()
    }

    /// Registered names, sorted.
    pub fn names(&self) -> Vec<String> {
        self.metrics.read().unwrap_or_else(|e| e.into_inner()).keys().cloned().collect()
    }

    /// Number of registered metrics.
    pub fn len(&self) -> usize {
        self.metrics.read().unwrap_or_else(|e| e.into_inner()).len()
    }

    /// True when nothing has been registered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// A point-in-time sample of every metric, sorted by name.
    pub fn snapshot(&self) -> Vec<MetricSample> {
        let metrics = self.metrics.read().unwrap_or_else(|e| e.into_inner());
        metrics
            .iter()
            .map(|(name, m)| match m {
                Metric::Counter(c) => MetricSample::Counter { name: name.clone(), value: c.get() },
                Metric::Gauge(g) => MetricSample::Gauge { name: name.clone(), value: g.get() },
                Metric::Histogram(h) => {
                    MetricSample::Histogram { name: name.clone(), snapshot: h.snapshot() }
                }
            })
            .collect()
    }

    /// Prometheus text exposition of the current snapshot.
    pub fn render_prometheus(&self) -> String {
        export::render_prometheus(&self.snapshot())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn get_or_create_returns_same_handle() {
        let r = MetricsRegistry::new();
        let a = r.counter("requests");
        let b = r.counter("requests");
        assert!(Arc::ptr_eq(&a, &b));
        a.inc();
        assert_eq!(b.get(), 1);
        assert_eq!(r.len(), 1);
    }

    #[test]
    fn clones_share_metrics() {
        let r = MetricsRegistry::new();
        let r2 = r.clone();
        r.gauge("loss").set(0.25);
        assert_eq!(r2.gauge("loss").get(), 0.25);
        assert_eq!(r2.names(), vec!["loss".to_string()]);
    }

    #[test]
    #[should_panic(expected = "already registered as a counter")]
    fn kind_mismatch_panics() {
        let r = MetricsRegistry::new();
        r.counter("x");
        let _ = r.histogram("x");
    }

    #[test]
    fn snapshot_is_sorted_and_typed() {
        let r = MetricsRegistry::new();
        r.histogram("b.lat").record(5);
        r.counter("a.hits").add(2);
        r.gauge("c.ctr").set(0.5);
        let snap = r.snapshot();
        assert_eq!(snap.len(), 3);
        assert!(matches!(&snap[0], MetricSample::Counter { name, value: 2 } if name == "a.hits"));
        assert!(
            matches!(&snap[1], MetricSample::Histogram { name, snapshot } if name == "b.lat" && snapshot.count == 1)
        );
        assert!(
            matches!(&snap[2], MetricSample::Gauge { name, value } if name == "c.ctr" && *value == 0.5)
        );
    }
}
