//! Prometheus-style text exposition of a [`Registry`].
//!
//! Registry names follow the `family/k=v,k2=v2` convention — the part
//! before the first `/` is the metric family, the rest are labels
//! (e.g. `service.register_latency/tenant=3`). The renderer splits
//! those into `family{k="3"}` series, rewrites dots to underscores
//! (Prometheus names cannot contain `.`), suffixes counters with
//! `_total`, and renders histograms as `summary` series: one
//! `{quantile="…"}` sample per exported quantile plus `_count` and
//! `_sum`. Output order follows the registry's BTreeMap iteration, so
//! identical registries render byte-identical pages.

use crate::metrics::Registry;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Exported summary quantiles, in render order.
const QUANTILES: [(&str, f64); 3] = [("0.5", 0.50), ("0.9", 0.90), ("0.99", 0.99)];

/// Splits a registry name into `(family, label_pairs)`.
fn split_name(name: &str) -> (String, String) {
    let (family, labels) = match name.split_once('/') {
        Some((f, l)) => (f, l),
        None => (name, ""),
    };
    let family = family.replace('.', "_");
    let mut rendered = String::new();
    for (i, pair) in labels.split(',').filter(|p| !p.is_empty()).enumerate() {
        if i > 0 {
            rendered.push(',');
        }
        match pair.split_once('=') {
            Some((k, v)) => {
                let _ = write!(rendered, "{}=\"{}\"", k.replace('.', "_"), escape_label(v));
            }
            None => {
                let _ = write!(rendered, "label=\"{}\"", escape_label(pair));
            }
        }
    }
    (family, rendered)
}

fn escape_label(v: &str) -> String {
    v.replace('\\', "\\\\")
        .replace('"', "\\\"")
        .replace('\n', "\\n")
}

/// Appends one sample line: `name{labels,extra} value`.
fn sample(out: &mut String, name: &str, labels: &str, extra: &str, value: &str) {
    out.push_str(name);
    if !labels.is_empty() || !extra.is_empty() {
        out.push('{');
        out.push_str(labels);
        if !labels.is_empty() && !extra.is_empty() {
            out.push(',');
        }
        out.push_str(extra);
        out.push('}');
    }
    out.push(' ');
    out.push_str(value);
    out.push('\n');
}

fn fmt_f64(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else if x.is_nan() {
        "NaN".to_string()
    } else if x > 0.0 {
        "+Inf".to_string()
    } else {
        "-Inf".to_string()
    }
}

/// Renders the registry as a Prometheus text-format page.
pub fn expose(reg: &Registry) -> String {
    let mut out = String::new();

    // Counters: grouped by family, `_total`-suffixed.
    let mut counter_families: BTreeMap<String, Vec<(String, u64)>> = BTreeMap::new();
    for name in reg.counter_names() {
        let (family, labels) = split_name(name);
        counter_families
            .entry(format!("{family}_total"))
            .or_default()
            .push((labels, reg.counter(name)));
    }
    for (family, series) in &counter_families {
        let _ = writeln!(out, "# TYPE {family} counter");
        for (labels, v) in series {
            sample(&mut out, family, labels, "", &v.to_string());
        }
    }

    // Gauges.
    let mut gauge_families: BTreeMap<String, Vec<(String, f64)>> = BTreeMap::new();
    for name in reg.gauge_names() {
        let (family, labels) = split_name(name);
        if let Some(v) = reg.gauge(name) {
            gauge_families.entry(family).or_default().push((labels, v));
        }
    }
    for (family, series) in &gauge_families {
        let _ = writeln!(out, "# TYPE {family} gauge");
        for (labels, v) in series {
            sample(&mut out, family, labels, "", &fmt_f64(*v));
        }
    }

    // Histograms as summaries: quantiles + _count + _sum.
    let mut hist_families: BTreeMap<String, Vec<(String, String)>> = BTreeMap::new();
    for name in reg.histogram_names() {
        let (family, labels) = split_name(name);
        hist_families
            .entry(family)
            .or_default()
            .push((labels, name.to_string()));
    }
    for (family, series) in &hist_families {
        let _ = writeln!(out, "# TYPE {family} summary");
        for (labels, name) in series {
            let h = reg.histogram(name).expect("name from histogram_names");
            for (qname, q) in QUANTILES {
                let v = h.quantile(q).unwrap_or(f64::NAN);
                sample(
                    &mut out,
                    family,
                    labels,
                    &format!("quantile=\"{qname}\""),
                    &fmt_f64(v),
                );
            }
            sample(
                &mut out,
                &format!("{family}_count"),
                labels,
                "",
                &h.count().to_string(),
            );
            sample(
                &mut out,
                &format!("{family}_sum"),
                labels,
                "",
                &fmt_f64(h.sum()),
            );
        }
    }
    out
}

/// The value of a label-free `family value` sample line of a page.
pub fn sample_value(page: &str, family: &str) -> Option<f64> {
    page.lines()
        .find_map(|l| l.strip_prefix(family)?.strip_prefix(' ')?.parse().ok())
}

/// The scrape contract over two pages taken in order: every `required`
/// `# TYPE` line is on the last page, and every `monotone` counter
/// strictly grew between them.
pub fn check_scrapes(
    first: &str,
    last: &str,
    required: &[&str],
    monotone: &[&str],
) -> Result<(), String> {
    if let Some(family) = required.iter().find(|f| !last.contains(**f)) {
        return Err(format!("last scrape is missing '{family}':\n{last}"));
    }
    for counter in monotone {
        let a = sample_value(first, counter)
            .ok_or_else(|| format!("first scrape has no '{counter}' sample"))?;
        let b = sample_value(last, counter)
            .ok_or_else(|| format!("last scrape has no '{counter}' sample"))?;
        if b <= a {
            return Err(format!(
                "'{counter}' is not strictly monotone across scrapes: {a} then {b}"
            ));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_counters_gauges_and_summaries() {
        let mut r = Registry::new();
        r.inc("service.requests", 42);
        r.inc("service.rate_limited/tenant=3", 2);
        r.set_gauge("service.shards", 4.0);
        for v in [1.0, 2.0, 3.0] {
            r.observe("service.register_latency/tenant=3", v);
        }
        let page = expose(&r);
        assert!(page.contains("# TYPE service_requests_total counter\n"));
        assert!(page.contains("service_requests_total 42\n"));
        assert!(page.contains("service_rate_limited_total{tenant=\"3\"} 2\n"));
        assert!(page.contains("# TYPE service_shards gauge\nservice_shards 4\n"));
        assert!(page.contains("# TYPE service_register_latency summary\n"));
        assert!(page.contains("service_register_latency{tenant=\"3\",quantile=\"0.5\"}"));
        assert!(page.contains("service_register_latency_count{tenant=\"3\"} 3\n"));
        assert!(page.contains("service_register_latency_sum{tenant=\"3\"} 6\n"));
    }

    #[test]
    fn one_type_line_per_family_across_label_sets() {
        let mut r = Registry::new();
        r.inc("rpc.calls/tenant=1", 1);
        r.inc("rpc.calls/tenant=2", 5);
        let page = expose(&r);
        assert_eq!(page.matches("# TYPE rpc_calls_total counter").count(), 1);
        assert!(page.contains("rpc_calls_total{tenant=\"1\"} 1\n"));
        assert!(page.contains("rpc_calls_total{tenant=\"2\"} 5\n"));
    }

    #[test]
    fn rendering_is_deterministic() {
        let mut r = Registry::new();
        r.inc("b.z", 1);
        r.inc("a.y/k=v", 2);
        r.observe("h.x", 0.5);
        r.set_gauge("g.w", -1.25);
        let page = expose(&r);
        assert_eq!(page, expose(&r));
        // BTreeMap order: counters a before b.
        let a = page.find("a_y_total").unwrap();
        let b = page.find("b_z_total").unwrap();
        assert!(a < b);
    }

    #[test]
    fn label_values_are_escaped() {
        let mut r = Registry::new();
        r.inc("m/k=a\"b", 1);
        let page = expose(&r);
        assert!(page.contains("m_total{k=\"a\\\"b\"} 1\n"));
    }

    #[test]
    fn scrape_contract_checks_families_and_monotone_counters() {
        let mut r = Registry::new();
        r.inc("service.requests", 3);
        r.inc("service.requests/tenant=1", 9);
        let first = expose(&r);
        assert_eq!(sample_value(&first, "service_requests_total"), Some(3.0));
        assert_eq!(sample_value(&first, "service_requests"), None);
        let required = ["# TYPE service_requests_total counter"];
        let monotone = ["service_requests_total"];
        assert!(check_scrapes(&first, &first, &required, &monotone).is_err());
        r.inc("service.requests", 1);
        let last = expose(&r);
        assert_eq!(check_scrapes(&first, &last, &required, &monotone), Ok(()));
        let absent = ["# TYPE wal_fsyncs gauge"];
        assert!(check_scrapes(&first, &last, &absent, &[]).is_err());
    }
}
