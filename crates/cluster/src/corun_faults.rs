//! The one Fig. 7 co-run loop, under a fault schedule and a telemetry
//! sink.
//!
//! Every co-run in the crate is `run`: a [`FaultInjector`] armed in
//! the simulation's timer queue (network faults hit the fabric
//! directly; control-plane faults come back as [`ControlAction`]s), and
//! a [`ResilientController`] around the policy's controller so crashes
//! degrade to stale weights instead of aborting the run. Fault-free is
//! the empty schedule — an empty injector arms nothing, and with
//! nothing down the wrapper passes the controller's updates through
//! unfiltered — and untraced is [`saba_telemetry::NullSink`], under
//! which every trace-only step is skipped. [`crate::corun::execute`],
//! [`execute_with_faults`] and [`execute_with_faults_traced`] are its
//! three entry points.
//!
//! Baseline policies run with no controller: network faults still hit
//! their traffic, but control-plane faults are no-ops for them — which
//! is exactly the asymmetry the resilience experiment measures (Saba
//! has a control plane to lose; FECN does not).
//!
//! [`ControlAction`]: saba_faults::injector::ControlAction

use crate::corun::{JobResult, PlannedJob};
use crate::policy::{AnyFabric, Policy};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use saba_core::controller::SwitchUpdate;
use saba_core::sensitivity::SensitivityTable;
use saba_faults::control::{ResilienceStats, ResilientController};
use saba_faults::injector::FaultInjector;
use saba_faults::schedule::FaultSchedule;
use saba_faults::InjectorStats;
use saba_sim::engine::{SimStats, Simulation};
use saba_sim::ids::{AppId, NodeId, ServiceLevel};
use saba_sim::topology::Topology;
use saba_telemetry::{EventKind, NullSink, Recorder, SharedRecorder, TelemetrySink};
use saba_workload::runtime::{run_jobs_with, ConnEvent, JobRuntime};
use saba_workload::spec::WorkloadSpec;
use std::cell::RefCell;
use std::collections::HashMap;

/// Everything a faulted co-run produces.
#[derive(Debug, Clone)]
pub struct FaultRunOutcome {
    /// Per-job results, aligned with the input job order.
    pub results: Vec<JobResult>,
    /// Simulation counters (reroutes, parks, resumes, recomputes).
    pub sim_stats: SimStats,
    /// Injector counters (events applied, flow impact).
    pub injector_stats: InjectorStats,
    /// Controller resilience counters (Saba policies only).
    pub resilience: Option<ResilienceStats>,
}

/// Plans `(workload, dataset_scale, server_indices)` specs into
/// [`PlannedJob`]s over `topo`, with deterministic per-job jitter
/// seeding (`seed ^ i·0x9E37`).
pub fn plan_jobs(
    topo: &Topology,
    specs: &[(String, f64, Vec<usize>)],
    catalog: &[WorkloadSpec],
    compute_jitter: f64,
    seed: u64,
) -> Result<Vec<PlannedJob>, String> {
    let by_name: HashMap<&str, &WorkloadSpec> =
        catalog.iter().map(|w| (w.name.as_str(), w)).collect();
    let mut jobs = Vec::with_capacity(specs.len());
    for (i, (workload, scale, servers)) in specs.iter().enumerate() {
        let spec = by_name
            .get(workload.as_str())
            .ok_or_else(|| format!("workload {workload:?} not in catalog"))?;
        let mut rng = ChaCha8Rng::seed_from_u64(seed ^ (i as u64).wrapping_mul(0x9E37));
        let plan = spec
            .plan(*scale, servers.len())
            .with_compute_jitter(compute_jitter, &mut rng);
        let nodes: Vec<NodeId> = servers.iter().map(|&s| topo.servers()[s]).collect();
        jobs.push(PlannedJob {
            workload: workload.clone(),
            dataset_scale: *scale,
            plan,
            nodes,
        });
    }
    Ok(jobs)
}

/// What one pass of the loop leaves behind: the outcome, plus the parts
/// the traced entry point exports its registry from.
pub(crate) struct Finished<S: TelemetrySink> {
    pub(crate) outcome: FaultRunOutcome,
    sim: Simulation<AnyFabric, S>,
    controller: Option<ResilientController>,
}

/// Executes `jobs` over `topo` under `policy` while `schedule` replays,
/// recording into `sink`.
pub(crate) fn run<S: TelemetrySink>(
    topo: Topology,
    jobs: Vec<PlannedJob>,
    policy: &Policy,
    table: &SensitivityTable,
    schedule: &FaultSchedule,
    sink: S,
) -> Result<Finished<S>, String> {
    let traced = sink.enabled();
    let fabric = policy.build_fabric(&topo);
    let controller = policy
        .controller(table, &topo)
        .map(|c| RefCell::new(ResilientController::new(c)));
    if let (true, Some(c)) = (traced, &controller) {
        c.borrow_mut().enable_solve_timing();
    }

    // Registration at launch (Fig. 7 ①–③): every job gets its SL before
    // any traffic flows and before any fault can fire.
    let mut runtimes = Vec::with_capacity(jobs.len());
    for (i, job) in jobs.iter().enumerate() {
        let app = AppId(i as u32);
        let sl = match &controller {
            Some(c) => c.borrow_mut().register(app, &job.workload)?,
            None => ServiceLevel(0),
        };
        // Pipelining floors stay on in co-runs: the spill/pipeline side
        // channels that cap a workload's degradation under administrative
        // throttling cap it under congestion too — and the profiler's
        // models are only valid if runtime behaviour matches profile-time
        // behaviour at low effective bandwidth.
        runtimes.push(JobRuntime::new(
            app,
            sl,
            job.nodes.clone(),
            job.plan.clone(),
            (i as u64) << 32,
        ));
    }

    let mut sim = Simulation::with_telemetry(topo, fabric, sink);
    let injector = RefCell::new(FaultInjector::new(schedule.clone()));
    injector.borrow().arm(&mut sim);

    let times = run_jobs_with(
        &mut sim,
        &mut runtimes,
        |sim, ev| {
            let t = sim.now();
            if traced {
                sim.sink_mut().record(t, conn_event_kind(ev));
            }
            if let Some(c) = &controller {
                let updates = c.borrow_mut().on_event(ev, t, sim.sink_mut());
                apply(sim, updates);
            }
        },
        |sim, key, _at| {
            assert!(
                FaultInjector::owns_key(key),
                "timer key {key:#x} belongs to no job and no fault"
            );
            let action = injector.borrow_mut().on_timer(sim, key);
            if let (Some(action), Some(c)) = (action, &controller) {
                let t = sim.now();
                let updates = c.borrow_mut().apply(&action, t, sim.sink_mut());
                apply(sim, updates);
            }
        },
    )
    .map_err(|e| e.to_string())?;

    let results = jobs
        .iter()
        .zip(times)
        .map(|(j, completion)| JobResult {
            workload: j.workload.clone(),
            dataset_scale: j.dataset_scale,
            nodes: j.nodes.len(),
            completion,
        })
        .collect();
    let controller = controller.map(RefCell::into_inner);
    let outcome = FaultRunOutcome {
        results,
        sim_stats: sim.stats(),
        injector_stats: injector.borrow().stats(),
        resilience: controller.as_ref().map(ResilientController::stats),
    };
    Ok(Finished {
        outcome,
        sim,
        controller,
    })
}

/// The trace event mirroring one Fig. 7 connection-lifecycle callback.
fn conn_event_kind(ev: &ConnEvent) -> EventKind {
    match ev {
        ConnEvent::Created { app, tag, .. } => EventKind::ConnCreated {
            app: app.0,
            tag: *tag,
        },
        ConnEvent::Destroyed { app, tag, .. } => EventKind::ConnDestroyed {
            app: app.0,
            tag: *tag,
        },
        ConnEvent::JobCompleted { app, .. } => EventKind::JobCompleted { app: app.0 },
    }
}

/// Applies switch updates to the Saba fabric, tracing one
/// `queue_reprogram` event per reprogrammed port.
fn apply<S: TelemetrySink>(sim: &mut Simulation<AnyFabric, S>, updates: Vec<SwitchUpdate>) {
    if updates.is_empty() {
        return;
    }
    if sim.sink().enabled() {
        let t = sim.now();
        for u in &updates {
            let kind = EventKind::QueueReprogram {
                link: u.link.0,
                queues: u.config.weights.len() as u32,
            };
            sim.sink_mut().record(t, kind);
        }
    }
    sim.model_mut().saba_mut().apply(updates);
}

/// Executes `jobs` over `topo` under `policy` while `schedule` replays.
///
/// Guarantees of the fault model:
/// * flows crossing a failed element are rerouted when a path survives
///   and parked (resumed at repair) otherwise, so jobs always finish;
/// * a crashed controller stops emitting switch updates (the fabric
///   runs on stale weights) but the run continues, and recovery
///   replays state and reprograms every port;
/// * the same `(jobs, policy, schedule)` triple reproduces the same
///   results bit-for-bit.
pub fn execute_with_faults(
    topo: Topology,
    jobs: Vec<PlannedJob>,
    policy: &Policy,
    table: &SensitivityTable,
    schedule: &FaultSchedule,
) -> Result<FaultRunOutcome, String> {
    Ok(run(topo, jobs, policy, table, schedule, NullSink)?.outcome)
}

/// [`execute_with_faults`] with full telemetry: the same run, plus a
/// [`Recorder`] holding the trace (sim epochs, flow lifecycle, fault
/// edges, controller crash/recovery, queue reprogramming, conn churn),
/// the metrics registry, and any crash-time flight snapshots.
///
/// The trace and flight snapshots carry only simulated time, so the
/// same `(jobs, policy, schedule)` triple yields byte-identical
/// `to_jsonl()` / flight `to_json()` output on every run. Wall-clock
/// readings (controller solve latency, recovery latency) land only
/// under `wall.`-prefixed registry names.
pub fn execute_with_faults_traced(
    topo: Topology,
    jobs: Vec<PlannedJob>,
    policy: &Policy,
    table: &SensitivityTable,
    schedule: &FaultSchedule,
) -> Result<(FaultRunOutcome, Recorder), String> {
    let rec = SharedRecorder::on(Recorder::default());
    let run = run(topo, jobs, policy, table, schedule, rec.clone())?;
    let mut recorder = rec.extract().expect("recorder was attached");
    run.sim.export_probes(&mut recorder.registry);
    export_outcome_metrics(&run.outcome, &mut recorder);
    if let Some(c) = &run.controller {
        let reg = &mut recorder.registry;
        reg.merge_histogram("wall.controller_solve_secs", &c.solve_histogram());
        let e = c.epoch_counters();
        reg.inc("controller.ports_dirty", e.ports_dirty);
        reg.inc("controller.solves_skipped", e.solves_skipped);
        reg.inc("controller.queue_updates_diffed", e.queue_updates_diffed);
    }
    Ok((run.outcome, recorder))
}

/// Folds a finished run's counters into the recorder's registry, and
/// derives the stale-weight windows (crash→recovery spans, simulated
/// seconds) from the trace.
fn export_outcome_metrics(outcome: &FaultRunOutcome, rec: &mut Recorder) {
    let reg = &mut rec.registry;
    let s = outcome.sim_stats;
    reg.inc("sim.flows_started", s.flows_started);
    reg.inc("sim.flows_completed", s.flows_completed);
    reg.inc("sim.allocations", s.allocations);
    reg.inc("sim.route_recomputes", s.route_recomputes);
    reg.inc("sim.flows_rerouted", s.flows_rerouted);
    reg.inc("sim.flows_parked", s.flows_parked);
    reg.inc("sim.flows_resumed", s.flows_resumed);
    let i = outcome.injector_stats;
    reg.inc("injector.network_events", i.network_events);
    reg.inc("injector.control_events", i.control_events);
    reg.inc("injector.rerouted", i.rerouted);
    reg.inc("injector.parked", i.parked);
    reg.inc("injector.resumed", i.resumed);
    if let Some(r) = outcome.resilience {
        reg.inc("controller.crashes", r.crashes);
        reg.inc("controller.shard_crashes", r.shard_crashes);
        reg.inc("controller.recoveries", r.recoveries);
        reg.inc("controller.stale_events", r.stale_events);
        reg.inc("controller.updates_suppressed", r.updates_suppressed);
        reg.inc(
            "controller.replayed_registrations",
            r.replayed_registrations,
        );
        reg.inc("controller.replayed_connections", r.replayed_connections);
    }
    for job in &outcome.results {
        reg.observe("jobs.completion_secs", job.completion);
    }
    // Stale-weight windows: pair each crash edge with its recovery.
    let mut open: HashMap<i64, f64> = HashMap::new();
    let mut windows = Vec::new();
    for ev in rec.trace.events() {
        match &ev.kind {
            EventKind::ControllerCrash { shard } => {
                open.entry(*shard).or_insert(ev.t);
            }
            EventKind::ControllerRecover { shard, .. } => {
                if let Some(start) = open.remove(shard) {
                    windows.push(ev.t - start);
                }
            }
            _ => {}
        }
    }
    for w in windows {
        rec.registry.observe("controller.stale_window_secs", w);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::corun::execute;
    use saba_core::profiler::{Profiler, ProfilerConfig};
    use saba_faults::schedule::{FaultKind, FaultSpec, ScheduleConfig};
    use saba_sim::topology::SpineLeafConfig;
    use saba_workload::catalog;

    fn quick_table() -> SensitivityTable {
        Profiler::new(ProfilerConfig {
            noise_sigma: 0.0,
            bw_points: vec![0.25, 0.5, 0.75, 1.0],
            degree: 2,
            ..Default::default()
        })
        .profile_all(&catalog())
        .unwrap()
    }

    /// Two cross-rack jobs on the tiny spine-leaf (8 servers).
    fn cross_rack_jobs(topo: &Topology, table_catalog: &[WorkloadSpec]) -> Vec<PlannedJob> {
        plan_jobs(
            topo,
            &[
                ("LR".to_string(), 1.0, vec![0, 2, 4, 6]),
                ("Sort".to_string(), 1.0, vec![1, 3, 5, 7]),
            ],
            table_catalog,
            0.0,
            0x5aba,
        )
        .unwrap()
    }

    fn max_completion(results: &[JobResult]) -> f64 {
        results.iter().map(|r| r.completion).fold(0.0, f64::max)
    }

    #[test]
    fn empty_schedule_matches_plain_corun() {
        let table = quick_table();
        let cat = catalog();
        for policy in [Policy::baseline(), Policy::saba()] {
            let topo = Topology::spine_leaf(&SpineLeafConfig::tiny(2));
            let jobs = cross_rack_jobs(&topo, &cat);
            let plain = execute(topo.clone(), jobs.clone(), &policy, &table).unwrap();
            let faulted =
                execute_with_faults(topo, jobs, &policy, &table, &FaultSchedule::default())
                    .unwrap();
            assert_eq!(plain, faulted.results, "{}", policy.name());
            assert_eq!(faulted.injector_stats, InjectorStats::default());
        }
    }

    #[test]
    fn generated_network_faults_complete_every_job() {
        let table = quick_table();
        let cat = catalog();
        let topo = Topology::spine_leaf(&SpineLeafConfig::tiny(2));
        let jobs = cross_rack_jobs(&topo, &cat);
        let clean = execute(topo.clone(), jobs.clone(), &Policy::saba(), &table).unwrap();
        let horizon = max_completion(&clean);
        assert!(horizon > 0.0);
        let schedule = FaultSchedule::generate(
            &topo,
            &ScheduleConfig {
                severity: 3,
                horizon,
                num_shards: 0,
            },
            0xFA17,
        );
        let out = execute_with_faults(topo, jobs, &Policy::saba(), &table, &schedule).unwrap();
        assert_eq!(out.results.len(), 2);
        for r in &out.results {
            assert!(r.completion > 0.0, "{r:?}");
        }
        assert!(out.injector_stats.network_events > 0);
        assert!(out.sim_stats.route_recomputes > 0);
    }

    #[test]
    fn controller_crash_window_completes_with_stale_weights() {
        let table = quick_table();
        let cat = catalog();
        let topo = Topology::spine_leaf(&SpineLeafConfig::tiny(2));
        let jobs = cross_rack_jobs(&topo, &cat);
        let clean = execute(topo.clone(), jobs.clone(), &Policy::saba(), &table).unwrap();
        let t = max_completion(&clean);
        let schedule = FaultSchedule {
            seed: 0,
            faults: vec![FaultSpec {
                kind: FaultKind::CrashController,
                start: 0.2 * t,
                duration: 0.5 * t,
            }],
        };
        let out = execute_with_faults(topo, jobs, &Policy::saba(), &table, &schedule).unwrap();
        let res = out.resilience.expect("saba policy has a controller");
        assert_eq!(res.crashes, 1);
        assert_eq!(res.recoveries, 1);
        for r in &out.results {
            assert!(r.completion > 0.0, "{r:?}");
        }
    }

    #[test]
    fn shard_crash_window_completes_for_distributed() {
        let table = quick_table();
        let cat = catalog();
        let topo = Topology::spine_leaf(&SpineLeafConfig::tiny(2));
        let jobs = cross_rack_jobs(&topo, &cat);
        let policy = Policy::SabaDistributed(saba_core::controller::ControllerConfig::default(), 3);
        let clean = execute(topo.clone(), jobs.clone(), &policy, &table).unwrap();
        let t = max_completion(&clean);
        let schedule = FaultSchedule {
            seed: 0,
            faults: vec![FaultSpec {
                kind: FaultKind::CrashShard { shard: 1 },
                start: 0.1 * t,
                duration: 0.6 * t,
            }],
        };
        let out = execute_with_faults(topo, jobs, &policy, &table, &schedule).unwrap();
        let res = out.resilience.unwrap();
        assert_eq!(res.shard_crashes, 1);
        assert_eq!(res.recoveries, 1);
        for r in &out.results {
            assert!(r.completion > 0.0, "{r:?}");
        }
    }

    #[test]
    fn traced_run_matches_untraced_and_captures_the_story() {
        let table = quick_table();
        let cat = catalog();
        let topo = Topology::spine_leaf(&SpineLeafConfig::tiny(2));
        let jobs = cross_rack_jobs(&topo, &cat);
        let clean = execute(topo.clone(), jobs.clone(), &Policy::saba(), &table).unwrap();
        let t = max_completion(&clean);
        let schedule = FaultSchedule {
            seed: 0,
            faults: vec![FaultSpec {
                kind: FaultKind::CrashController,
                start: 0.2 * t,
                duration: 0.5 * t,
            }],
        };
        let plain = execute_with_faults(
            topo.clone(),
            jobs.clone(),
            &Policy::saba(),
            &table,
            &schedule,
        )
        .unwrap();
        let (out, rec) =
            execute_with_faults_traced(topo, jobs, &Policy::saba(), &table, &schedule).unwrap();
        // Telemetry must not perturb the run.
        assert_eq!(plain.results, out.results);
        assert_eq!(plain.sim_stats, out.sim_stats);

        let count =
            |name: &str| rec.trace.events().filter(|e| e.kind.name() == name).count() as u64;
        assert_eq!(count("fault_edge"), 2, "crash + repair edges");
        assert_eq!(count("controller_crash"), 1);
        assert_eq!(count("controller_recover"), 1);
        assert!(count("epoch_allocated") > 0);
        assert!(count("queue_reprogram") > 0);
        assert!(count("epoch_scope") > 0, "controller epochs are scoped");
        assert!(count("conn_created") > 0);
        assert_eq!(count("job_completed"), 2);
        assert_eq!(rec.flight.snapshots().len(), 1, "one crash snapshot");

        // Registry mirrors the outcome counters and derives the
        // stale-weight window from the trace.
        assert_eq!(
            rec.registry.counter("sim.flows_completed"),
            out.sim_stats.flows_completed
        );
        assert_eq!(rec.registry.counter("controller.crashes"), 1);
        let stale = rec
            .registry
            .histogram("controller.stale_window_secs")
            .unwrap();
        assert_eq!(stale.count(), 1);
        let w = stale.max().unwrap();
        assert!(
            (w - 0.5 * t).abs() < 0.35 * t,
            "window {w} vs duration {}",
            0.5 * t
        );
        // Wall-clock solve latency lands under a wall.-prefixed name.
        assert!(rec
            .registry
            .histogram("wall.controller_solve_secs")
            .is_some());
        // The incremental-epoch counters land in the registry: every
        // epoch visits at least its dirty ports, and on this churn-free
        // single-connection-per-port workload the diff suppresses the
        // occasional no-op reprogram.
        assert!(rec.registry.counter("controller.ports_dirty") > 0);
    }

    #[test]
    fn identically_seeded_traced_runs_are_byte_identical() {
        let table = quick_table();
        let cat = catalog();
        let run = || {
            let topo = Topology::spine_leaf(&SpineLeafConfig::tiny(2));
            let jobs = cross_rack_jobs(&topo, &cat);
            let clean = execute(topo.clone(), jobs.clone(), &Policy::saba(), &table).unwrap();
            let t = max_completion(&clean);
            let mut schedule = FaultSchedule::generate(
                &topo,
                &ScheduleConfig {
                    severity: 2,
                    horizon: t,
                    num_shards: 0,
                },
                7,
            );
            schedule.faults.push(FaultSpec {
                kind: FaultKind::CrashController,
                start: 0.3 * t,
                duration: 0.4 * t,
            });
            execute_with_faults_traced(topo, jobs, &Policy::saba(), &table, &schedule).unwrap()
        };
        let (_, rec_a) = run();
        let (_, rec_b) = run();
        // The full trace and the crash-time flight snapshots round-trip
        // byte-identically: simulated time only, no wall clock.
        assert_eq!(rec_a.trace.to_jsonl(), rec_b.trace.to_jsonl());
        assert!(!rec_a.trace.to_jsonl().is_empty());
        assert_eq!(rec_a.flight.to_json(), rec_b.flight.to_json());
        assert!(!rec_a.flight.snapshots().is_empty());
        // The export is schema-valid, one JSONL line per retained event.
        let lines = saba_telemetry::validate_jsonl(&rec_a.trace.to_jsonl()).unwrap();
        assert_eq!(lines, rec_a.trace.len());
    }

    #[test]
    fn faulted_runs_are_deterministic() {
        let table = quick_table();
        let cat = catalog();
        let run = || {
            let topo = Topology::spine_leaf(&SpineLeafConfig::tiny(2));
            let jobs = cross_rack_jobs(&topo, &cat);
            let schedule = FaultSchedule::generate(
                &topo,
                &ScheduleConfig {
                    severity: 2,
                    horizon: 10.0,
                    num_shards: 0,
                },
                7,
            );
            execute_with_faults(topo, jobs, &Policy::saba(), &table, &schedule).unwrap()
        };
        let (a, b) = (run(), run());
        assert_eq!(a.results, b.results);
        assert_eq!(a.sim_stats, b.sim_stats);
        assert_eq!(a.injector_stats, b.injector_stats);
        // Resilience counters are deterministic except the wall-clock
        // recovery latency, which is diagnostics-only by design.
        let scrub = |mut s: ResilienceStats| {
            s.last_recovery_micros = 0;
            s
        };
        assert_eq!(scrub(a.resilience.unwrap()), scrub(b.resilience.unwrap()));
    }
}
