//! Observability dump — the saba-telemetry stack end to end.
//!
//! Runs one faulted co-run with the full telemetry recorder attached
//! (trace ring + metrics registry + flight recorder) and exports the
//! whole story under `results/`:
//!
//! * `observe_trace.jsonl` — the event trace (simulated time only).
//! * `observe_trace.csv` — the same trace as CSV.
//! * `observe_metrics.json` — counters, gauges and histograms;
//!   wall-clock readings live only under `wall.`-prefixed names.
//! * `observe_flight.json` — crash-time flight-recorder snapshots.
//!
//! `--smoke` re-runs the identical scenario and asserts the telemetry
//! contract CI relies on: byte-identical traces and flight snapshots
//! across identically-seeded runs, a schema-valid JSONL export, and a
//! null-sink run whose results the recorder did not perturb.
//!
//! `--service` runs the same contract against the service tier: a
//! seeded churn stream into the deterministic two-shard
//! [`AllocationService`], asserting a byte-identical span-tree export
//! across identically-seeded runs, a schema-valid trace with per-RPC
//! spans, a scrapeable `MetricsDump` page with monotone counters, and
//! an untraced twin whose programmed switch state and counters match
//! the traced run exactly.
//!
//! Usage: `observe [--smoke] [--service] [--severity N]`

use saba_bench::{print_table, results_dir, write_csv};
use saba_cluster::corun_faults::{execute_with_faults, execute_with_faults_traced, plan_jobs};
use saba_cluster::metrics::per_workload_speedups;
use saba_cluster::policy::Policy;
use saba_core::controller::ControllerConfig;
use saba_core::profiler::{Profiler, ProfilerConfig};
use saba_core::rpc::{Envelope, Request, Response};
use saba_core::sensitivity::SensitivityTable;
use saba_faults::schedule::{FaultKind, FaultSchedule, FaultSpec, ScheduleConfig};
use saba_service::service::{AllocationService, ServiceConfig, ServiceStats};
use saba_service::shard::{Flavour, ShardSpec};
use saba_service::{MONOTONE_COUNTERS, REQUIRED_FAMILIES};
use saba_sim::topology::{SpineLeafConfig, Topology};
use saba_telemetry::{check_scrapes, validate_jsonl, Recorder, SharedRecorder};
use saba_workload::catalog;
use saba_workload::churn::{ChurnTrace, ChurnTraceConfig};
use std::collections::BTreeMap;
use std::fs;

fn flag(name: &str) -> bool {
    std::env::args().any(|a| a == name)
}

/// A small, fast sensitivity table (4 bandwidth points, degree 2).
fn quick_table() -> SensitivityTable {
    Profiler::new(ProfilerConfig {
        noise_sigma: 0.0,
        bw_points: vec![0.25, 0.5, 0.75, 1.0],
        degree: 2,
        ..Default::default()
    })
    .profile_all(&catalog())
    .expect("catalog profiling succeeds")
}

/// The scenario: two cross-rack jobs on the tiny spine-leaf under a
/// generated network-fault schedule plus one controller crash window.
fn scenario(
    table: &SensitivityTable,
    severity: u32,
) -> (
    Topology,
    Vec<saba_cluster::corun::PlannedJob>,
    FaultSchedule,
) {
    let topo = Topology::spine_leaf(&SpineLeafConfig::tiny(2));
    let jobs = plan_jobs(
        &topo,
        &[
            ("LR".to_string(), 1.0, vec![0, 2, 4, 6]),
            ("Sort".to_string(), 1.0, vec![1, 3, 5, 7]),
        ],
        &catalog(),
        0.0,
        0x5aba,
    )
    .expect("plannable jobs");
    // Horizon from a healthy run, so fault windows land inside it.
    let healthy = saba_cluster::corun::execute(topo.clone(), jobs.clone(), &Policy::saba(), table)
        .expect("healthy co-run");
    let horizon = healthy.iter().map(|r| r.completion).fold(0.0, f64::max);
    let mut schedule = FaultSchedule::generate(
        &topo,
        &ScheduleConfig {
            severity,
            horizon,
            num_shards: 0,
        },
        0x0B5E,
    );
    schedule.faults.push(FaultSpec {
        kind: FaultKind::CrashController,
        start: 0.3 * horizon,
        duration: 0.4 * horizon,
    });
    (topo, jobs, schedule)
}

fn run_traced(table: &SensitivityTable, severity: u32) -> Recorder {
    let (topo, jobs, schedule) = scenario(table, severity);
    let (_, recorder) = execute_with_faults_traced(topo, jobs, &Policy::saba(), table, &schedule)
        .expect("traced co-run completes");
    recorder
}

fn summarize(rec: &Recorder) {
    let mut by_kind: BTreeMap<&str, u64> = BTreeMap::new();
    for ev in rec.trace.events() {
        *by_kind.entry(ev.kind.name()).or_insert(0) += 1;
    }
    let rows: Vec<Vec<String>> = by_kind
        .iter()
        .map(|(k, n)| vec![k.to_string(), n.to_string()])
        .collect();
    print_table("Trace events by kind", &["event", "count"], &rows);
    println!(
        "trace: {} events retained ({} total, {} dropped); flight snapshots: {}",
        rec.trace.len(),
        rec.trace.total(),
        rec.trace.dropped(),
        rec.flight.snapshots().len()
    );
}

fn smoke(table: &SensitivityTable, severity: u32) {
    // 1. Determinism: identically-seeded runs are byte-identical.
    let a = run_traced(table, severity);
    let b = run_traced(table, severity);
    assert_eq!(
        a.trace.to_jsonl(),
        b.trace.to_jsonl(),
        "identically-seeded traces must be byte-identical"
    );
    assert_eq!(
        a.flight.to_json(),
        b.flight.to_json(),
        "identically-seeded flight snapshots must be byte-identical"
    );
    assert!(!a.trace.is_empty(), "smoke run must record events");
    assert!(
        !a.flight.snapshots().is_empty(),
        "the controller crash must snapshot"
    );

    // 2. Schema: the JSONL export round-trips the validator.
    let n = validate_jsonl(&a.trace.to_jsonl()).expect("schema-valid JSONL");
    assert_eq!(n, a.trace.len(), "one JSONL line per retained event");

    // 3. Null-sink no-regression: the recorder must not perturb the
    //    run — the untraced (NullSink) run yields identical results.
    let (topo, jobs, schedule) = scenario(table, severity);
    let plain = execute_with_faults(
        topo.clone(),
        jobs.clone(),
        &Policy::saba(),
        table,
        &schedule,
    )
    .expect("plain co-run");
    let (traced, _) = execute_with_faults_traced(topo, jobs, &Policy::saba(), table, &schedule)
        .expect("traced co-run");
    assert_eq!(
        plain.results, traced.results,
        "telemetry must not change job completions"
    );
    assert_eq!(plain.sim_stats, traced.sim_stats);
    let speedup = per_workload_speedups(&plain.results, &traced.results).average;
    assert!(
        (speedup - 1.0).abs() < 1e-12,
        "traced/untraced speedup must be exactly 1.0, got {speedup}"
    );
    println!("observe --smoke: determinism, schema, and null-sink checks passed");
}

/// One deterministic service-tier drill: a seeded churn stream into a
/// two-shard logical-clock [`AllocationService`], scraped twice.
/// Returns the span-tree JSONL (empty when untraced), the two
/// exposition pages, the per-shard programmed state, and the counters.
fn service_drill(
    table: &SensitivityTable,
    traced: bool,
    tag: &str,
) -> (String, (String, String), Vec<String>, ServiceStats) {
    const SERVERS: usize = 8;
    const OPS: usize = 400;
    let dir = std::env::temp_dir().join(format!("saba-observe-svc-{}-{tag}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    let spec = ShardSpec {
        cfg: ControllerConfig::default(),
        table: table.clone(),
        topo: Topology::single_switch(SERVERS, 100.0),
        flavour: Flavour::Central,
    };
    let servers = spec.topo.servers().to_vec();
    let cfg = ServiceConfig {
        shards: 2,
        ..ServiceConfig::new(&dir)
    };
    let mut svc = AllocationService::open(spec, cfg).expect("service opens");
    let sink = if traced {
        SharedRecorder::on(Recorder::default())
    } else {
        SharedRecorder::off()
    };
    svc.set_sink(sink.clone());

    let scrape = |svc: &mut AllocationService, id: u64| -> String {
        match svc.submit(&Envelope::new(id, Request::MetricsDump)) {
            Response::Metrics { text } => text,
            other => panic!("scrape: unexpected reply {other:?}"),
        }
    };

    let trace = ChurnTrace::new(
        ChurnTraceConfig {
            tenants: 6,
            servers: SERVERS as u32,
            conns_per_tenant: 4,
            ..ChurnTraceConfig::default()
        },
        0x0B5E_5ABA,
    );
    let mut page1 = String::new();
    let mut clock = 0.0;
    for (step, op) in trace.take(OPS).enumerate() {
        let req = Request::from_churn(&op, &servers).expect("demand_shift disabled here");
        let resp = svc.submit(&Envelope::new(step as u64, req));
        assert!(
            !matches!(resp, Response::Error { .. }),
            "step {step}: unexpected rejection {resp:?}"
        );
        if step % 4 == 3 {
            clock += 0.25;
            svc.tick(clock).expect("tick");
        }
        if step == OPS / 2 {
            page1 = scrape(&mut svc, 1_000_000);
        }
    }
    svc.tick(clock + 1.0).expect("final tick");
    let page2 = scrape(&mut svc, 1_000_001);

    let jsonl = sink
        .extract()
        .map(|r| r.trace.to_jsonl())
        .unwrap_or_default();
    let programmed = (0..2)
        .map(|s| format!("{:?}", svc.shard(s).programmed()))
        .collect();
    let stats = svc.stats();
    let _ = fs::remove_dir_all(&dir);
    (jsonl, (page1, page2), programmed, stats)
}

/// The service-path telemetry contract, in smoke form.
fn service_smoke(table: &SensitivityTable) {
    // 1. Determinism: identically-seeded service runs export
    //    byte-identical span trees and exposition pages.
    let (jsonl_a, pages_a, programmed_a, stats_a) = service_drill(table, true, "svc-a");
    let (jsonl_b, pages_b, _, _) = service_drill(table, true, "svc-b");
    assert_eq!(
        jsonl_a, jsonl_b,
        "identically-seeded service traces must be byte-identical"
    );
    assert_eq!(
        pages_a, pages_b,
        "identically-seeded exposition pages must be byte-identical"
    );
    assert!(!jsonl_a.is_empty(), "service smoke must record spans");

    // 2. Schema: the export round-trips the validator, and every RPC
    //    minted a root span.
    validate_jsonl(&jsonl_a).expect("schema-valid service trace");
    let roots = jsonl_a
        .lines()
        .filter(|l| l.contains("\"op\":\"rpc.request\""))
        .count();
    assert!(roots > 0, "service trace carries rpc.request root spans");

    // 3. Exposition: required families present, counters monotone
    //    across the two scrapes.
    let (p1, p2) = &pages_a;
    check_scrapes(p1, p2, &REQUIRED_FAMILIES, &MONOTONE_COUNTERS).unwrap_or_else(|e| panic!("{e}"));

    // 4. Null-sink no-regression: the untraced twin ends in the exact
    //    same programmed state with the same counters.
    let (_, _, programmed_off, stats_off) = service_drill(table, false, "svc-off");
    assert_eq!(
        programmed_a, programmed_off,
        "tracing must not change the programmed switch state"
    );
    assert_eq!(
        stats_a, stats_off,
        "tracing must not change the service counters"
    );
    println!("observe --service: determinism, schema, exposition, and null-sink checks passed");
}

fn main() {
    let severity = saba_bench::arg_usize("--severity", 2) as u32;
    let table = quick_table();
    if flag("--smoke") {
        smoke(&table, severity);
        return;
    }
    if flag("--service") {
        service_smoke(&table);
        return;
    }

    let rec = run_traced(&table, severity);
    summarize(&rec);

    let jsonl = rec.trace.to_jsonl();
    validate_jsonl(&jsonl).expect("exported trace is schema-valid");
    let dir = results_dir();
    fs::write(dir.join("observe_trace.jsonl"), &jsonl).expect("trace written");
    let csv = rec.trace.to_csv();
    let mut lines = csv.lines();
    let header = lines.next().expect("csv header").to_string();
    let rows: Vec<String> = lines.map(str::to_string).collect();
    write_csv("observe_trace.csv", &header, &rows);
    fs::write(dir.join("observe_metrics.json"), rec.registry.to_json()).expect("metrics written");
    fs::write(dir.join("observe_flight.json"), rec.flight.to_json()).expect("flight written");
    println!(
        "wrote observe_trace.jsonl, observe_trace.csv, observe_metrics.json, observe_flight.json to {}",
        dir.display()
    );
}
