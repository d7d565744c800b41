//! `resilience` — how much of Saba's speedup survives faults.
//!
//! Re-runs the Fig. 8-style co-run (Saba vs the FECN baseline on a
//! spine-leaf fabric) under deterministic fault schedules of increasing
//! severity (see `saba-faults`):
//!
//! * severity 0 — healthy fabric (the reference speedup);
//! * severity 1 — link degradation + lossy control-plane RPC;
//! * severity 2 — + cable failure and a full controller crash;
//! * severity 3 — + switch failure and (distributed flavour) a shard
//!   crash.
//!
//! Both policies experience the *same* network schedule; only Saba has
//! a control plane to lose. Reported per severity: the retained
//! average speedup, the retention ratio vs severity 0, and the
//! degradation/recovery counters. A second table soaks the RPC stack
//! (`ReliableTransport`) against rising loss rates.
//!
//! Wall-clock recovery latency is printed to stdout only — the CSVs
//! contain exclusively deterministic values, so two runs with the same
//! seed produce byte-identical files (verified in `--smoke` mode).
//!
//! Usage: `resilience [--quick|--smoke] [--severities N] [--rounds N]`

use saba_bench::{catalog_table, print_table, write_csv};
use saba_cluster::corun_faults::{execute_with_faults, plan_jobs, FaultRunOutcome};
use saba_cluster::metrics::per_workload_speedups;
use saba_cluster::policy::Policy;
use saba_core::controller::central::CentralController;
use saba_core::controller::ControllerConfig;
use saba_core::library::{InProcTransport, SabaLib};
use saba_core::sensitivity::SensitivityTable;
use saba_faults::schedule::{FaultSchedule, ScheduleConfig};
use saba_faults::transport::{ReliableTransport, RetryPolicy, RpcFaultConfig};
use saba_sim::ids::AppId;
use saba_sim::topology::{SpineLeafConfig, Topology};
use std::cell::RefCell;
use std::rc::Rc;

const SCHEDULE_SEED: u64 = 0xFA17;
const DISTRIBUTED_SHARDS: usize = 4;

fn flag(name: &str) -> bool {
    std::env::args().any(|a| a == name)
}

fn topo(quick: bool) -> Topology {
    // 8 servers for smoke runs, 16 for the full experiment.
    Topology::spine_leaf(&SpineLeafConfig::tiny(if quick { 2 } else { 4 }))
}

/// Jobs interleaved across ToRs so every job sends cross-rack traffic
/// through the leaf/spine tiers the schedules break.
fn job_specs(quick: bool) -> Vec<(String, f64, Vec<usize>)> {
    if quick {
        vec![
            ("LR".to_string(), 1.0, vec![0, 2, 4, 6]),
            ("Sort".to_string(), 1.0, vec![1, 3, 5, 7]),
        ]
    } else {
        vec![
            ("LR".to_string(), 1.0, (0..16).step_by(4).collect()),
            ("Sort".to_string(), 1.0, (1..16).step_by(4).collect()),
            ("PR".to_string(), 1.0, (2..16).step_by(4).collect()),
            ("SQL".to_string(), 1.0, (3..16).step_by(4).collect()),
        ]
    }
}

struct SeverityRow {
    severity: u32,
    policy_name: &'static str,
    faults: usize,
    speedup: f64,
    retention: f64,
    outcome: FaultRunOutcome,
}

impl SeverityRow {
    fn csv(&self) -> String {
        let s = &self.outcome.sim_stats;
        let i = &self.outcome.injector_stats;
        let r = self.outcome.resilience.as_ref().expect("saba flavour");
        format!(
            "{},{},{},{:.6},{:.6},{},{},{},{},{},{},{},{},{}",
            self.severity,
            self.policy_name,
            self.faults,
            self.speedup,
            self.retention,
            s.route_recomputes,
            i.rerouted,
            i.parked,
            i.resumed,
            r.stale_events,
            r.updates_suppressed,
            r.crashes,
            r.shard_crashes,
            r.recoveries,
        )
    }
}

/// Runs baseline + one Saba flavour under the same schedule, returning
/// the row (retention is filled in by the caller once severity 0 is
/// known).
#[allow(clippy::too_many_arguments)]
fn run_severity(
    quick: bool,
    severity: u32,
    policy: &Policy,
    policy_name: &'static str,
    num_shards: usize,
    horizon: f64,
    table: &SensitivityTable,
    catalog: &[saba_workload::spec::WorkloadSpec],
) -> SeverityRow {
    let topo = topo(quick);
    let jobs = plan_jobs(&topo, &job_specs(quick), catalog, 0.0, 0x5aba).expect("plannable jobs");
    let schedule = FaultSchedule::generate(
        &topo,
        &ScheduleConfig {
            severity,
            horizon,
            num_shards,
        },
        SCHEDULE_SEED ^ u64::from(severity),
    );
    let base = execute_with_faults(
        topo.clone(),
        jobs.clone(),
        &Policy::baseline(),
        table,
        &schedule,
    )
    .expect("baseline co-run completes under faults");
    let saba = execute_with_faults(topo, jobs, policy, table, &schedule)
        .expect("saba co-run completes under faults");
    let speedup = per_workload_speedups(&base.results, &saba.results).average;
    SeverityRow {
        severity,
        policy_name,
        faults: schedule.faults.len(),
        speedup,
        retention: 1.0,
        outcome: saba,
    }
}

fn severity_rows(
    quick: bool,
    max_severity: u32,
    table: &SensitivityTable,
    catalog: &[saba_workload::spec::WorkloadSpec],
) -> Vec<SeverityRow> {
    // Horizon: the healthy Saba run's makespan, so fault windows land
    // inside the co-run instead of after it.
    let healthy = {
        let topo = topo(quick);
        let jobs = plan_jobs(&topo, &job_specs(quick), catalog, 0.0, 0x5aba).unwrap();
        execute_with_faults(
            topo,
            jobs,
            &Policy::saba(),
            table,
            &FaultSchedule::default(),
        )
        .expect("healthy co-run completes")
    };
    let horizon = healthy
        .results
        .iter()
        .map(|r| r.completion)
        .fold(0.0, f64::max);

    let flavours: [(Policy, &'static str, usize); 2] = [
        (Policy::saba(), "saba", 0),
        (
            Policy::SabaDistributed(ControllerConfig::default(), DISTRIBUTED_SHARDS),
            "saba-distributed",
            DISTRIBUTED_SHARDS,
        ),
    ];
    let mut rows = Vec::new();
    for (policy, name, shards) in &flavours {
        let mut reference = None;
        for severity in 0..=max_severity {
            let mut row = run_severity(
                quick, severity, policy, name, *shards, horizon, table, catalog,
            );
            let r = *reference.get_or_insert(row.speedup);
            row.retention = row.speedup / r;
            rows.push(row);
        }
    }
    rows
}

/// Soaks the Fig. 7 lifecycle through `ReliableTransport` at one loss
/// rate; returns a deterministic CSV row.
fn rpc_soak_row(drop: f64, rounds: usize, table: &SensitivityTable) -> String {
    let topo = Topology::single_switch(4, saba_sim::LINK_56G_BPS);
    let servers = topo.servers().to_vec();
    let ctl = Rc::new(RefCell::new(CentralController::new(
        ControllerConfig::default(),
        table.clone(),
        &topo,
    )));
    let transport = ReliableTransport::new(
        InProcTransport::new(Rc::clone(&ctl)),
        RpcFaultConfig::lossy(drop, drop / 2.0),
        RetryPolicy {
            max_attempts: 32,
            ..RetryPolicy::default()
        },
        0x5aba ^ drop.to_bits(),
    );
    let mut lib = SabaLib::new(AppId(0), transport);
    lib.saba_app_register("LR").expect("register survives loss");
    for round in 0..rounds {
        let a = lib
            .saba_conn_create(servers[round % 4], servers[(round + 1) % 4])
            .expect("create survives loss");
        lib.saba_conn_destroy(a).expect("destroy survives loss");
    }
    lib.saba_app_deregister().expect("deregister survives loss");
    assert_eq!(ctl.borrow().num_conns(), 0, "lossy churn must not leak");
    let s = lib.transport().stats();
    format!(
        "{:.2},{},{},{},{},{},{},{:.6}",
        drop,
        s.calls,
        s.attempts,
        s.retries,
        s.duplicates,
        s.dedup_hits,
        s.exhausted,
        lib.transport().simulated_delay()
    )
}

fn main() {
    let smoke = flag("--smoke");
    let quick = smoke || flag("--quick");
    let max_severity = saba_bench::arg_usize("--severities", 3) as u32;
    let rounds = saba_bench::arg_usize("--rounds", if quick { 25 } else { 200 });

    let table = catalog_table(3);
    let catalog = saba_workload::catalog();

    let rows = severity_rows(quick, max_severity, &table, &catalog);
    let csv_rows: Vec<String> = rows.iter().map(SeverityRow::csv).collect();
    if smoke {
        // Acceptance: a seeded schedule replays bit-identically — the
        // whole ladder twice must produce byte-identical CSV rows.
        let again: Vec<String> = severity_rows(quick, max_severity, &table, &catalog)
            .iter()
            .map(SeverityRow::csv)
            .collect();
        assert_eq!(csv_rows, again, "resilience CSV must be deterministic");
        println!("smoke: severity ladder replayed bit-identically");
    }
    let header = "severity,policy,faults,avg_speedup,retention,route_recomputes,\
                  rerouted,parked,resumed,stale_events,updates_suppressed,crashes,\
                  shard_crashes,recoveries"
        .replace(' ', "");
    let path = write_csv("resilience.csv", &header, &csv_rows);

    print_table(
        "Speedup retention under faults (Saba vs FECN)",
        &[
            "sev",
            "policy",
            "faults",
            "speedup",
            "retention",
            "reroutes",
            "parked",
            "resumed",
            "stale",
            "crashes",
        ],
        &rows
            .iter()
            .map(|r| {
                let res = r.outcome.resilience.as_ref().unwrap();
                vec![
                    r.severity.to_string(),
                    r.policy_name.to_string(),
                    r.faults.to_string(),
                    format!("{:.2}x", r.speedup),
                    format!("{:.0}%", r.retention * 100.0),
                    r.outcome.injector_stats.rerouted.to_string(),
                    r.outcome.injector_stats.parked.to_string(),
                    r.outcome.injector_stats.resumed.to_string(),
                    res.stale_events.to_string(),
                    (res.crashes + res.shard_crashes).to_string(),
                ]
            })
            .collect::<Vec<_>>(),
    );
    // Wall-clock recovery latency: stdout only, never the CSV.
    for r in &rows {
        let res = r.outcome.resilience.as_ref().unwrap();
        if res.recoveries > 0 {
            println!(
                "severity {} ({}): last recovery took {} us wall-clock ({} registrations, {} connections replayed)",
                r.severity,
                r.policy_name,
                res.last_recovery_micros,
                res.replayed_registrations,
                res.replayed_connections
            );
        }
    }

    let soak_rows: Vec<String> = [0.0, 0.1, 0.3]
        .iter()
        .map(|&d| rpc_soak_row(d, rounds, &table))
        .collect();
    let soak_path = write_csv(
        "resilience_rpc.csv",
        "drop_rate,calls,attempts,retries,duplicates,dedup_hits,exhausted,simulated_delay_s",
        &soak_rows,
    );
    print_table(
        "Control-plane RPC soak (retry + idempotent ids)",
        &["drop", "calls", "attempts", "retries", "dedup", "delay_s"],
        &soak_rows
            .iter()
            .map(|r| {
                let f: Vec<&str> = r.split(',').collect();
                vec![
                    f[0].to_string(),
                    f[1].to_string(),
                    f[2].to_string(),
                    f[3].to_string(),
                    f[5].to_string(),
                    f[7].to_string(),
                ]
            })
            .collect::<Vec<_>>(),
    );

    println!("\nwrote {} and {}", path.display(), soak_path.display());
    println!(
        "paper anchor: Saba's gains come from reallocation, so they must survive \
         reallocation-under-failure; FECN has no control plane to lose but also \
         nothing to recover."
    );
}
