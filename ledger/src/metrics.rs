//! The ledger's metric and workload names — the same lists
//! `BENCHMARK.json` declares (a unit test holds the two together) —
//! and the one-line JSON result every run ends with.

use saba_telemetry::json::JsonValue;

/// Which direction of a metric is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

#[cfg(test)]
impl Better {
    /// The word `BENCHMARK.json` uses.
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// A named metric with its unit.
#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn lower(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better: Better::Lower,
    }
}

const fn higher(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better: Better::Higher,
    }
}

/// Workloads and why each exists.
pub const WORKLOADS: &[(&str, &str)] = &[
    (
        "svc_durable",
        "in-process calls paced at 400 req/s: the durable-ack path (shard, WAL fsync, controller) without a transport",
    ),
    (
        "svc_wire",
        "the same load over loopback TCP: adds codec, service::net and two thread hops; isolates the transport",
    ),
    (
        "epoch_cold",
        "cold full recompute on the 1944-server fabric: nearly all Eq. 2 solves, every cache misses",
    ),
    (
        "epoch_churn",
        "1% churn events on a warm 1944-server controller: few warm solves, caches and diff dominate",
    ),
    (
        "sim_corun",
        "288-server Saba co-run in the fluid simulator: allocator-heavy, controller a small share",
    ),
];

/// End-to-end metrics, reported by every workload with tracing off. An
/// "op" is the workload's unit of user-visible work (see the README).
pub const END_TO_END: &[MetricDef] = &[
    lower("op_cpu_us", "us"),
    lower("peak_rss_mb", "MB"),
    lower("setup_s", "s"),
];

/// Per-layer metrics, reported by the traced run. A workload reports 0
/// for a layer it does not exercise.
pub const PER_LAYER: &[MetricDef] = &[
    // -- svc_durable / svc_wire: layer replay of the op stream
    lower("core.rpc.encode_ns", "ns"),
    lower("core.rpc.decode_ns", "ns"),
    lower("core.rpc.frame_bytes", "B"),
    lower("service.wal.append_us", "us"),
    lower("service.wal.sync_us", "us"),
    lower("service.wal.sync_p99_us", "us"),
    lower("service.wal.bytes_per_op", "B"),
    lower("service.shard.batch1_us", "us"),
    lower("service.shard.batch32_us_per_op", "us"),
    lower("core.controller.event_us", "us"),
    lower("service.shard.self_us", "us"),
    lower("service.runtime.call_1c_us", "us"),
    lower("service.runtime.hop_us", "us"),
    lower("service.runtime.wait_us", "us"),
    lower("service.net.overhead_us", "us"),
    lower("service.runtime.ack_p50_us", "us"),
    lower("service.runtime.ack_p99_us", "us"),
    higher("service.runtime.acks_per_s", "1/s"),
    higher("service.runtime.closed_acks_per_s", "1/s"),
    lower("service.runtime.closed_ack_p50_us", "us"),
    // -- svc: counts from the runtime's public hub and report
    lower("service.wal.fsyncs_per_op", "count"),
    higher("service.wal.group_commit_mean", "count"),
    lower("service.runtime.batches_per_op", "count"),
    lower("service.runtime.shard_busy", "count"),
    lower("service.runtime.retryable_errors", "count"),
    lower("service.shard.dedup_hits", "count"),
    // -- svc: recovery of the log the run wrote
    lower("service.shard.recover_ms", "ms"),
    lower("service.wal.scan_ms", "ms"),
    lower("service.wal.replay_ms", "ms"),
    lower("service.shard.scratch_solve_ms", "ms"),
    lower("service.wal.log_bytes", "B"),
    lower("telemetry.scrape_us", "us"),
    lower("bench.gen_late_p99_us", "us"),
    lower("bench.ledger_residual_pct", "%"),
    // -- epoch_cold
    lower("core.epoch.cold_t1_s", "s"),
    lower("core.epoch.cold_tn_s", "s"),
    higher("math.parallel.speedup", "x"),
    lower("core.epoch.residue_s", "s"),
    higher("core.epoch.solve_share", "ratio"),
    lower("core.epoch.eq2_solves", "count"),
    higher("core.epoch.solves_skipped", "count"),
    lower("core.epoch.ports_reconfigured", "count"),
    lower("core.epoch.updates_emitted", "count"),
    lower("core.weights.port_solve_us", "us"),
    lower("core.weights.port_solve_total_s", "s"),
    lower("sim.routing.compute_s", "s"),
    lower("sim.routing.path_ns", "ns"),
    lower("sim.routing.memory_mb", "MB"),
    // -- epoch_churn
    lower("core.churn.solves_per_event", "count"),
    higher("core.churn.cache_hit_ratio", "ratio"),
    lower("core.churn.dirty_ports_per_event", "count"),
    lower("core.churn.updates_per_event", "count"),
    higher("core.churn.diffed_per_event", "count"),
    lower("core.churn.scratch_divergence", "ratio"),
    lower("core.churn.event_p50_us", "us"),
    lower("core.churn.event_p99_us", "us"),
    higher("core.churn.events_per_s", "1/s"),
    lower("core.churn.create_p50_us", "us"),
    lower("core.churn.destroy_p50_us", "us"),
    lower("core.dist.event_p50_us", "us"),
    lower("core.dist.event_p99_us", "us"),
    higher("core.dist.events_per_s", "1/s"),
    lower("core.dist.warm_sweep_s", "s"),
    lower("core.dist.scratch_divergence", "ratio"),
    // -- sim_corun
    lower("sim.host_s", "s"),
    lower("sim.fabric.allocate_s", "s"),
    lower("sim.fabric.allocate_calls", "count"),
    lower("sim.fabric.allocate_us", "us"),
    lower("sim.fabric.flows_per_call", "count"),
    lower("sim.fabric.flow_epoch_ns", "ns"),
    lower("core.controller.on_event_s", "s"),
    lower("core.controller.on_event_calls", "count"),
    lower("sim.engine.self_s", "s"),
    lower("sim.engine.allocations", "count"),
    lower("sim.engine.flows_completed", "count"),
    higher("sim.engine.events_per_s", "1/s"),
    lower("cluster.baseline_host_s", "s"),
    higher("sim.saba_speedup", "x"),
    lower("sim.jct_mismatch_jobs", "count"),
    // -- all
    lower("bench.trace_overhead_pct", "%"),
    lower("bench.spans", "count"),
];

/// Whether `name` may be used as a metric or workload name.
pub fn valid_name(name: &str) -> bool {
    let mut chars = name.chars();
    chars.next().is_some_and(|c| c.is_ascii_alphanumeric())
        && name.len() <= 64
        && chars.all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// Checks a metric list against the contract's caps and naming rule.
pub fn validate(defs: &[MetricDef], cap: usize) -> Result<(), String> {
    if defs.is_empty() || defs.len() > cap {
        return Err(format!("{} metrics, allowed 1 to {cap}", defs.len()));
    }
    for (i, d) in defs.iter().enumerate() {
        if !valid_name(d.name) {
            return Err(format!("bad metric name {:?}", d.name));
        }
        if defs[..i].iter().any(|e| e.name == d.name) {
            return Err(format!("metric {:?} is listed twice", d.name));
        }
    }
    Ok(())
}

/// What one run measured.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    /// Every correctness check of the workload passed.
    pub correct: bool,
    /// Operations attempted in the timed regions.
    pub attempted: u64,
    /// Operations refused, errored or timed out.
    pub failed: u64,
    /// Measured values by metric name.
    pub values: Vec<(&'static str, f64)>,
}

impl Outcome {
    /// Sets `name` (must be one of the declared metrics).
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            END_TO_END.iter().chain(PER_LAYER).any(|d| d.name == name),
            "undeclared metric {name}"
        );
        self.values.push((name, value));
    }

    /// The value reported for `name`, if any.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.values
            .iter()
            .rev()
            .find(|(n, _)| *n == name)
            .map(|&(_, v)| v)
    }

    /// The result object: every metric of `defs`, in order, unmeasured
    /// ones as 0.
    pub fn to_json(&self, defs: &[MetricDef]) -> JsonValue {
        let metrics = defs
            .iter()
            .map(|d| {
                let value = self.get(d.name).unwrap_or(0.0);
                let cell = JsonValue::obj(vec![
                    ("value", JsonValue::Num(value)),
                    ("unit", JsonValue::Str(d.unit.into())),
                ]);
                (d.name.to_string(), cell)
            })
            .collect();
        JsonValue::obj(vec![
            ("correct", JsonValue::Bool(self.correct)),
            ("attempted", JsonValue::Num(self.attempted as f64)),
            ("failed", JsonValue::Num(self.failed as f64)),
            ("metrics", JsonValue::Obj(metrics)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metric_names_follow_the_contract() {
        for ok in ["op_p50_us", "core.rpc.encode_ns", "a", "9lives", "x-y_z.0"] {
            assert!(valid_name(ok), "{ok}");
        }
        let long = "a".repeat(65);
        for bad in ["", ".hidden", "_x", "has space", "µs", "a/b", long.as_str()] {
            assert!(!valid_name(bad), "{bad}");
        }
    }

    #[test]
    fn declared_lists_respect_the_caps() {
        validate(END_TO_END, 16).unwrap();
        validate(PER_LAYER, 128).unwrap();
        assert!(END_TO_END
            .iter()
            .any(|d| d.name == "setup_s" && d.unit == "s"));
        assert!((2..=8).contains(&WORKLOADS.len()));
        for (name, why) in WORKLOADS {
            assert!(valid_name(name));
            assert!(why.len() <= 200 && !why.contains('\n'));
        }
        // The caps themselves reject.
        let many: Vec<MetricDef> = (0..17).map(|_| lower("m", "s")).collect();
        assert!(validate(&many, 16).is_err());
        assert!(validate(&[], 16).is_err());
        assert!(validate(&[lower("twice", "s"), lower("twice", "s")], 16).is_err());
        assert!(validate(&[lower("bad name", "s")], 16).is_err());
    }

    #[test]
    fn benchmark_json_declares_the_same_names_and_units() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = saba_telemetry::json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        let listed = |key: &str| -> Vec<(String, String, String)> {
            let JsonValue::Arr(items) = doc.get(key).unwrap() else {
                panic!("{key} is not a list")
            };
            let text = |item: &JsonValue, k: &str| {
                item.get(k)
                    .and_then(JsonValue::as_str)
                    .unwrap_or("")
                    .to_string()
            };
            items
                .iter()
                .map(|i| (text(i, "name"), text(i, "unit"), text(i, "better")))
                .collect()
        };
        let declared = |defs: &[MetricDef]| -> Vec<(String, String, String)> {
            defs.iter()
                .map(|d| (d.name.into(), d.unit.into(), d.better.as_str().into()))
                .collect()
        };
        assert_eq!(listed("end_to_end"), declared(END_TO_END));
        assert_eq!(listed("per_layer"), declared(PER_LAYER));
        let names: Vec<String> = listed("workloads").into_iter().map(|w| w.0).collect();
        let ours: Vec<&str> = WORKLOADS.iter().map(|w| w.0).collect();
        assert_eq!(names, ours);
        let run_seconds = doc.get("run_seconds").and_then(JsonValue::as_f64);
        assert_eq!(run_seconds, Some(crate::DEFAULT_SECONDS));
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let mut o = Outcome {
            correct: true,
            attempted: 1000,
            ..Default::default()
        };
        o.set("setup_s", 0.8127);
        let json = o.to_json(END_TO_END);
        let JsonValue::Obj(pairs) = &json else {
            panic!()
        };
        let keys: Vec<&str> = pairs.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert!(json.to_json().contains("\"attempted\":1000,\"failed\":0"));
        let setup = json.get("metrics").unwrap().get("setup_s").unwrap();
        assert_eq!(setup.get("value").unwrap().as_f64(), Some(0.8127));
        assert_eq!(setup.get("unit").unwrap().as_str(), Some("s"));
    }
}
