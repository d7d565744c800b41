//! The metrics registry: named counters, gauges, and histograms.
//!
//! This is the single collection point that `sim::probe` utilization
//! series, `cluster::metrics` speedup reports, controller solve timings,
//! and RPC statistics all export into, replacing the per-crate ad-hoc
//! collectors. Export is deterministic (BTreeMap iteration order); any
//! metric derived from wall-clock time is named under the `wall.`
//! prefix by convention so deterministic consumers can skip it.

use crate::histogram::Histogram;
use crate::json::{write_f64, JsonValue};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Named counters, gauges, and log-linear histograms.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct Registry {
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, f64>,
    histograms: BTreeMap<String, Histogram>,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds `by` to the named counter (no allocation once it exists:
    /// counters sit on per-request paths).
    pub fn inc(&mut self, name: &str, by: u64) {
        match self.counters.get_mut(name) {
            Some(v) => *v += by,
            None => drop(self.counters.insert(name.to_string(), by)),
        }
    }

    /// Sets the named gauge.
    pub fn set_gauge(&mut self, name: &str, value: f64) {
        self.gauges.insert(name.to_string(), value);
    }

    /// Records a sample into the named histogram.
    pub fn observe(&mut self, name: &str, value: f64) {
        self.histograms
            .entry(name.to_string())
            .or_default()
            .record(value);
    }

    /// Merges a whole histogram into the named slot (used to absorb
    /// histograms kept by components, e.g. controller solve timing).
    pub fn merge_histogram(&mut self, name: &str, hist: &Histogram) {
        self.histograms
            .entry(name.to_string())
            .or_default()
            .merge(hist);
    }

    /// Reads a counter (0 when absent).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Reads a gauge.
    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.gauges.get(name).copied()
    }

    /// Reads a histogram.
    pub fn histogram(&self, name: &str) -> Option<&Histogram> {
        self.histograms.get(name)
    }

    /// All counter names (sorted).
    pub fn counter_names(&self) -> impl Iterator<Item = &str> {
        self.counters.keys().map(String::as_str)
    }

    /// All gauge names (sorted).
    pub fn gauge_names(&self) -> impl Iterator<Item = &str> {
        self.gauges.keys().map(String::as_str)
    }

    /// All histogram names (sorted).
    pub fn histogram_names(&self) -> impl Iterator<Item = &str> {
        self.histograms.keys().map(String::as_str)
    }

    /// Merges another registry into this one: counters add, gauges take
    /// the other's value, histograms merge bucket-exact.
    pub fn merge(&mut self, other: &Registry) {
        for (k, v) in &other.counters {
            *self.counters.entry(k.clone()).or_insert(0) += v;
        }
        for (k, v) in &other.gauges {
            self.gauges.insert(k.clone(), *v);
        }
        for (k, h) in &other.histograms {
            self.histograms.entry(k.clone()).or_default().merge(h);
        }
    }

    /// Deterministic JSON export: counters and gauges verbatim,
    /// histograms as `{count, mean, p50, p90, p99, max}` summaries.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"counters\":{");
        for (i, (k, v)) in self.counters.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "{}:{v}", JsonValue::Str(k.clone()).to_json());
        }
        out.push_str("},\"gauges\":{");
        for (i, (k, v)) in self.gauges.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "{}:", JsonValue::Str(k.clone()).to_json());
            write_f64(*v, &mut out);
        }
        out.push_str("},\"histograms\":{");
        for (i, (k, h)) in self.histograms.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{}:{{\"count\":{}",
                JsonValue::Str(k.clone()).to_json(),
                h.count()
            );
            for (stat, v) in [
                ("mean", h.mean()),
                ("p50", h.p50()),
                ("p90", h.p90()),
                ("p99", h.p99()),
                ("max", h.max()),
            ] {
                let _ = write!(out, ",\"{stat}\":");
                match v {
                    Some(x) => write_f64(x, &mut out),
                    None => out.push_str("null"),
                }
            }
            out.push('}');
        }
        out.push_str("}}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;

    #[test]
    fn counters_gauges_histograms_round_trip() {
        let mut r = Registry::new();
        r.inc("rpc.retries", 3);
        r.inc("rpc.retries", 2);
        r.set_gauge("run.makespan", 12.5);
        for v in [1e-3, 2e-3, 4e-3] {
            r.observe("solve", v);
        }
        assert_eq!(r.counter("rpc.retries"), 5);
        assert_eq!(r.gauge("run.makespan"), Some(12.5));
        assert_eq!(r.histogram("solve").unwrap().count(), 3);
        assert_eq!(r.counter("absent"), 0);
    }

    #[test]
    fn export_is_valid_deterministic_json() {
        let mut r = Registry::new();
        r.inc("b", 1);
        r.inc("a", 2);
        r.set_gauge("g", 0.25);
        r.observe("h", 1.0);
        let text = r.to_json();
        assert_eq!(text, r.to_json());
        let v = json::parse(&text).unwrap();
        assert_eq!(
            v.get("counters").unwrap().get("a").unwrap().as_u64(),
            Some(2)
        );
        assert_eq!(
            v.get("gauges").unwrap().get("g").unwrap().as_f64(),
            Some(0.25)
        );
        let h = v.get("histograms").unwrap().get("h").unwrap();
        assert_eq!(h.get("count").unwrap().as_u64(), Some(1));
        assert_eq!(h.get("max").unwrap().as_f64(), Some(1.0));
    }

    #[test]
    fn empty_histogram_summary_is_null() {
        let mut r = Registry::new();
        r.merge_histogram("empty", &Histogram::new());
        let v = json::parse(&r.to_json()).unwrap();
        let h = v.get("histograms").unwrap().get("empty").unwrap();
        assert_eq!(h.get("p50").unwrap(), &json::JsonValue::Null);
    }

    #[test]
    fn merge_adds_counters_and_histograms() {
        let mut a = Registry::new();
        let mut b = Registry::new();
        a.inc("c", 1);
        b.inc("c", 2);
        a.observe("h", 1.0);
        b.observe("h", 3.0);
        b.set_gauge("g", 9.0);
        a.merge(&b);
        assert_eq!(a.counter("c"), 3);
        assert_eq!(a.histogram("h").unwrap().count(), 2);
        assert_eq!(a.gauge("g"), Some(9.0));
    }
}
