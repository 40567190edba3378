//! The unified metrics snapshot: counters, gauges and histogram
//! summaries under one sorted-key structure.
//!
//! Every layer of the stack keeps its own native stats struct (they
//! are part of each crate's API); what this module unifies is the
//! *reporting* surface: a [`MetricsSnapshot`] holds every metric under
//! a namespaced key (`fs.ops`, `cache.hits`, `lock.ns.wait_ms`,
//! `disk.service_ms`, ...) in a `BTreeMap`, so iteration order — and
//! therefore the serialized bytes — is deterministic. Two identical
//! seeded runs print byte-identical snapshots.

use std::collections::BTreeMap;

use crate::histogram::Histogram;
// Callers reach the escape through this module too.
pub use crate::json::json_escape;
use crate::json::Json;

/// One named metric's value in a snapshot.
#[derive(Debug, Clone, PartialEq)]
pub enum Metric {
    /// A monotonically increasing count.
    Counter(u64),
    /// A point-in-time or time-averaged level.
    Gauge(f64),
    /// A distribution summary (count + moments + quantiles).
    Summary {
        /// Number of samples.
        count: u64,
        /// Mean sample.
        mean: f64,
        /// Median.
        p50: f64,
        /// 90th percentile.
        p90: f64,
        /// 99th percentile.
        p99: f64,
        /// Smallest sample (0 if empty).
        min: f64,
        /// Largest sample (0 if empty).
        max: f64,
    },
}

impl Metric {
    /// Builds a [`Metric::Summary`] from a histogram.
    pub fn summary_of(h: &Histogram) -> Metric {
        let empty = h.count() == 0;
        Metric::Summary {
            count: h.count(),
            mean: h.mean(),
            p50: h.quantile(0.5),
            p90: h.quantile(0.9),
            p99: h.quantile(0.99),
            min: if empty { 0.0 } else { h.min() },
            max: if empty { 0.0 } else { h.max() },
        }
    }
}

/// A sorted-key snapshot of every registered metric.
///
/// Keys are dotted paths; serialization iterates the underlying
/// `BTreeMap`, so the emitted bytes are a pure function of the
/// contents — the property every `--json` report in the tree relies
/// on.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsSnapshot {
    entries: BTreeMap<String, Metric>,
}

impl MetricsSnapshot {
    /// Creates an empty snapshot.
    pub fn new() -> Self {
        MetricsSnapshot::default()
    }

    /// Sets a counter.
    pub fn counter(&mut self, name: &str, v: u64) {
        self.entries.insert(name.to_string(), Metric::Counter(v));
    }

    /// Sets a gauge.
    pub fn gauge(&mut self, name: &str, v: f64) {
        self.entries.insert(name.to_string(), Metric::Gauge(v));
    }

    /// Sets a histogram summary.
    pub fn histogram(&mut self, name: &str, h: &Histogram) {
        self.entries.insert(name.to_string(), Metric::summary_of(h));
    }

    /// Looks a metric up by name.
    pub fn get(&self, name: &str) -> Option<&Metric> {
        self.entries.get(name)
    }

    /// The counter value under `name` (0 if absent or not a counter).
    pub fn counter_value(&self, name: &str) -> u64 {
        match self.entries.get(name) {
            Some(Metric::Counter(v)) => *v,
            _ => 0,
        }
    }

    /// The gauge value under `name` (0.0 if absent or not a gauge).
    pub fn gauge_value(&self, name: &str) -> f64 {
        match self.entries.get(name) {
            Some(Metric::Gauge(v)) => *v,
            _ => 0.0,
        }
    }

    /// Absorbs every entry of `other` under `prefix.` (stripe roll-up
    /// for multi-filesystem topologies: counters sum, gauges and
    /// summaries are keeps-last).
    pub fn absorb(&mut self, prefix: &str, other: &MetricsSnapshot) {
        for (k, v) in &other.entries {
            let key = if prefix.is_empty() { k.clone() } else { format!("{prefix}.{k}") };
            match (self.entries.get_mut(&key), v) {
                (Some(Metric::Counter(a)), Metric::Counter(b)) => *a += b,
                (slot, _) => {
                    let _ = slot;
                    self.entries.insert(key, v.clone());
                }
            }
        }
    }

    /// Serializes as a JSON object with `indent` leading spaces on each
    /// entry line (stable bytes: sorted keys, fixed float precision).
    pub fn to_json(&self, indent: usize) -> String {
        Json::from(self).render(indent)
    }

    /// Formats as an aligned two-column table (stable bytes).
    pub fn to_table(&self) -> String {
        let width = self.entries.keys().map(|k| k.len()).max().unwrap_or(0);
        let mut s = String::new();
        for (k, v) in &self.entries {
            match v {
                Metric::Counter(c) => s.push_str(&format!("{k:<width$}  {c}\n")),
                Metric::Gauge(g) => s.push_str(&format!("{k:<width$}  {g:.3}\n")),
                Metric::Summary { count, mean, p50, p99, max, .. } => s.push_str(&format!(
                    "{k:<width$}  n={count} mean={mean:.3} p50={p50:.3} p99={p99:.3} max={max:.3}\n"
                )),
            }
        }
        s
    }
}

impl From<&MetricsSnapshot> for Json {
    /// One member per metric, in key order; a summary is a one-line
    /// object.
    fn from(m: &MetricsSnapshot) -> Json {
        let value = |v: &Metric| match *v {
            Metric::Counter(c) => c.into(),
            Metric::Gauge(g) => g.into(),
            Metric::Summary { count, mean, p50, p90, p99, min, max } => Json::line([
                ("count", count.into()),
                ("mean", mean.into()),
                ("p50", p50.into()),
                ("p90", p90.into()),
                ("p99", p99.into()),
                ("min", min.into()),
                ("max", max.into()),
            ]),
        };
        Json::Block(m.entries.iter().map(|(k, v)| (k.clone(), value(v))).collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_serialization_is_sorted_and_stable() {
        let mut m = MetricsSnapshot::new();
        m.gauge("zz.last", 1.25);
        m.counter("aa.first", 7);
        m.counter("mm.mid", 3);
        let a = m.to_json(0);
        let b = m.clone().to_json(0);
        assert_eq!(a, b);
        let ka = a.find("aa.first").unwrap();
        let km = a.find("mm.mid").unwrap();
        let kz = a.find("zz.last").unwrap();
        assert!(ka < km && km < kz, "keys must serialize sorted: {a}");
    }

    #[test]
    fn absorb_sums_counters_and_prefixes() {
        let mut a = MetricsSnapshot::new();
        a.counter("fs0.ops", 5);
        let mut fsm = MetricsSnapshot::new();
        fsm.counter("ops", 7);
        fsm.gauge("queue", 2.0);
        a.absorb("fs0", &fsm);
        assert_eq!(a.counter_value("fs0.ops"), 12);
        assert!((a.gauge_value("fs0.queue") - 2.0).abs() < 1e-12);
    }

    #[test]
    fn table_lists_every_metric() {
        let mut m = MetricsSnapshot::new();
        m.counter("ops", 10);
        m.gauge("queue", 1.5);
        let t = m.to_table();
        assert!(t.contains("ops") && t.contains("queue"));
    }
}
