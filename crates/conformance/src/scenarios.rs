//! Workload-diversity scenarios: coflows and streaming re-profiling.
//!
//! [`crate::scenario`] covers the allocator, the engine, and controller
//! churn; this module extends the seeded-scenario corpus to the two
//! workload families of the diversity suite:
//!
//! - [`CoflowScenario`] — randomized coflow sets (grouped flows with
//!   all-or-nothing completion, per Sincronia, arXiv 1812.06898) run
//!   through the coflow-granular scheduler under a random network-fault
//!   schedule. The oracle pins the CCT semantic: a coflow completes
//!   exactly when its **slowest** constituent does, never before, and
//!   has no completion time while any constituent is unfinished. When
//!   the scenario degenerates to one coflow per application, the
//!   coflow-granular fabric must collapse to the per-app Sincronia
//!   approximation flow-for-flow.
//! - [`ReprofileScript`] — seeded streaming workloads whose demand
//!   drifts over time (§4.2). Live slowdown samples from the drifted
//!   plans feed the online [`Reprofiler`]; the oracles pin that (a)
//!   samples matching the profiled model are a **no-op** — no refits,
//!   and pushing a bit-identical model through either controller
//!   flavour emits zero updates — (b) every accepted refit stays
//!   monotone in bandwidth and explains the live window better than
//!   the frozen model, and (c) after every re-profiling event the
//!   incrementally accumulated switch state of **both** flavours
//!   matches a from-scratch replay at
//!   [`crate::incremental::INCREMENTAL_RTOL`].
//!
//! [`reprofile_demo`] runs the headline experiment once per driver
//! invocation: streaming drift on the paper's 1,944-server fabric,
//! refits reducing prediction error, and the incremental-vs-scratch
//! diff clean on both flavours.

use crate::incremental::{apply_updates, diff_switch_states};
use crate::oracles::{check_model_monotonicity, check_weight_budget};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use saba_baselines::{CoflowSincroniaFabric, SincroniaFabric};
use saba_cluster::reprofile::{Refit, Reprofiler, ReprofilerConfig};
use saba_core::controller::central::CentralController;
use saba_core::controller::distributed::{DistributedController, MappingDb};
use saba_core::controller::epoch::{Controller, Policy};
use saba_core::controller::ControllerConfig;
use saba_core::fabric::PortQueueConfig;
use saba_core::profiler::{to_slowdowns, Profiler, ProfilerConfig};
use saba_core::sensitivity::{SensitivityModel, SensitivityTable};
use saba_faults::injector::FaultInjector;
use saba_sim::engine::{Event, FabricModel, FlowSpec, Simulation};
use saba_sim::ids::{AppId, NodeId, ServiceLevel};
use saba_sim::topology::{SpineLeafConfig, Topology};
use saba_telemetry::Recorder;
use saba_workload::synthetic::SyntheticConfig;
use saba_workload::{streaming_workloads, CoflowFlow, CoflowSpec, StreamingSpec};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// One generated coflow: owning app, tag-high id, and constituent
/// transfers as `(src server index, dst server index, bytes)`.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CoflowDesc {
    /// Owning application.
    pub app: u32,
    /// Coflow id, unique within the application.
    pub id: u64,
    /// Constituent transfers.
    pub flows: Vec<(usize, usize, f64)>,
}

/// A seeded coflow scenario on the tiny spine-leaf fabric, with a
/// network-fault schedule borrowed from [`crate::scenario::NetFault`].
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CoflowScenario {
    /// The generating seed.
    pub seed: u64,
    /// The coflows.
    pub coflows: Vec<CoflowDesc>,
    /// Network faults as `(fault, start, duration)`.
    pub faults: Vec<(crate::scenario::NetFault, f64, f64)>,
}

impl CoflowScenario {
    /// Generates the coflow scenario for `seed`: 1–3 applications with
    /// 1–3 coflows each of 1–4 constituents, plus 0–2 recoverable
    /// link/cable faults.
    pub fn generate(seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x5ABA_C0F1);
        let topo = Self::topology();
        let servers = topo.servers().len();
        let napps = rng.gen_range(1..=3usize);
        let mut coflows = Vec::new();
        for app in 0..napps as u32 {
            let nc = rng.gen_range(1..=3usize);
            for id in 0..nc as u64 {
                let nf = rng.gen_range(1..=4usize);
                let flows = (0..nf)
                    .map(|_| {
                        let src = rng.gen_range(0..servers);
                        let mut dst = rng.gen_range(0..servers);
                        if dst == src {
                            dst = (dst + 1) % servers;
                        }
                        (src, dst, rng.gen_range(200.0..20_000.0))
                    })
                    .collect();
                coflows.push(CoflowDesc { app, id, flows });
            }
        }
        let nfaults = rng.gen_range(0..=2usize);
        let faults = (0..nfaults)
            .map(|_| {
                let fault = if rng.gen_bool(0.5) {
                    crate::scenario::NetFault::Degrade {
                        link: rng.gen_range(0..topo.num_links() as u32),
                        fraction: rng.gen_range(0.3..0.9),
                    }
                } else {
                    crate::scenario::NetFault::Cable {
                        link: rng.gen_range(0..topo.num_links() as u32),
                    }
                };
                (fault, rng.gen_range(0.5..30.0), rng.gen_range(0.5..20.0))
            })
            .collect();
        Self {
            seed,
            coflows,
            faults,
        }
    }

    /// The scenario's topology (the tiny spine-leaf fabric at 100 B/s,
    /// so multi-second transfers are in flight when faults land).
    pub fn topology() -> Topology {
        Topology::spine_leaf(&SpineLeafConfig {
            link_capacity: 100.0,
            ..SpineLeafConfig::tiny(2)
        })
    }

    /// The workload-crate coflow specs, server indices resolved.
    pub fn specs(&self) -> Vec<CoflowSpec> {
        let topo = Self::topology();
        let servers = topo.servers().to_vec();
        self.coflows
            .iter()
            .map(|c| CoflowSpec {
                id: c.id,
                app: AppId(c.app),
                flows: c
                    .flows
                    .iter()
                    .enumerate()
                    .map(|(k, &(s, d, b))| CoflowFlow {
                        src: servers[s],
                        dst: servers[d],
                        bytes: b,
                        index: k as u64,
                    })
                    .collect(),
            })
            .collect()
    }

    /// Runs every constituent through `fabric` with the fault schedule
    /// armed, returning `(app, tag, finish time)` per flow plus the
    /// telemetry recorder (the replay artifact of a failing scenario).
    pub fn run_recorded<M: FabricModel>(&self, fabric: M) -> (Vec<(u32, u64, f64)>, Recorder) {
        let topo = Self::topology();
        let mut sim = Simulation::with_telemetry(topo, fabric, Recorder::new(1 << 14, 64));
        // All constituents of all coflows arrive together at t = 0 (one
        // timer key per flow), the coflow-scheduling worst case.
        let specs = self.specs();
        let mut flows = Vec::new();
        for spec in &specs {
            for f in &spec.flows {
                flows.push(FlowSpec {
                    src: f.src,
                    dst: f.dst,
                    bytes: f.bytes,
                    sl: ServiceLevel(0),
                    app: spec.app,
                    tag: spec.tag_for(f.index),
                    rate_cap: f64::INFINITY,
                    min_rate: 0.0,
                });
            }
        }
        for k in 0..flows.len() {
            sim.schedule(0.0, k as u64);
        }
        let schedule = crate::scenario::EngineScenario {
            seed: self.seed,
            link_capacity: 100.0,
            queue_weights: vec![1.0],
            flows: Vec::new(),
            faults: self.faults.clone(),
        }
        .fault_schedule();
        let mut injector = FaultInjector::new(schedule);
        injector.arm(&mut sim);

        let mut completions = Vec::new();
        loop {
            match sim.next_event() {
                Event::Timer { key, .. } => {
                    if FaultInjector::owns_key(key) {
                        let action = injector.on_timer(&mut sim, key);
                        debug_assert!(action.is_none());
                    } else {
                        sim.start_flow(flows[key as usize].clone());
                    }
                }
                Event::FlowsCompleted { flows, at } => {
                    for c in flows {
                        completions.push((c.spec.app.0, c.spec.tag, at));
                    }
                }
                Event::Idle => break,
            }
        }
        (completions, sim.into_sink())
    }
}

/// **CCT == max constituent FCT**: runs the scenario through the
/// coflow-granular Sincronia fabric and checks the all-or-nothing
/// completion semantic of every coflow, plus the collapse differential
/// against per-app Sincronia when each application has exactly one
/// coflow.
pub fn check_coflow_cct(sc: &CoflowScenario) -> Result<(), String> {
    let (completions, _) = sc.run_recorded(CoflowSincroniaFabric::new());
    let specs = sc.specs();
    let total: usize = specs.iter().map(|s| s.flows.len()).sum();
    if completions.len() != total {
        return Err(format!(
            "{} of {total} constituents completed (fault schedule must be recoverable)",
            completions.len()
        ));
    }
    // Constituent FCTs keyed by (app, coflow id) then constituent index.
    let mut fcts: BTreeMap<(u32, u64), BTreeMap<u64, f64>> = BTreeMap::new();
    for &(app, tag, at) in &completions {
        fcts.entry((app, tag >> saba_workload::coflow::COFLOW_TAG_SHIFT))
            .or_default()
            .insert(tag & 0xFFFF_FFFF, at);
    }
    for spec in &specs {
        let key = (spec.app.0, spec.id);
        let group = fcts
            .get(&key)
            .ok_or_else(|| format!("coflow {key:?}: no constituent completed"))?;
        let cct = spec
            .completion_time(group)
            .ok_or_else(|| format!("coflow {key:?}: complete group has no CCT"))?;
        let slowest = group.values().fold(f64::NEG_INFINITY, |a, &b| a.max(b));
        if cct != slowest {
            return Err(format!(
                "coflow {key:?}: CCT {cct} != slowest constituent FCT {slowest}"
            ));
        }
        for (&idx, &fct) in group {
            if cct < fct {
                return Err(format!(
                    "coflow {key:?}: CCT {cct} precedes constituent {idx} at {fct}"
                ));
            }
        }
        // All-or-nothing: withholding the slowest constituent's FCT
        // must leave the coflow incomplete.
        let slowest_idx = *group
            .iter()
            .max_by(|a, b| a.1.total_cmp(b.1))
            .expect("non-empty group")
            .0;
        let mut partial = group.clone();
        partial.remove(&slowest_idx);
        if let Some(t) = spec.completion_time(&partial) {
            return Err(format!(
                "coflow {key:?}: completed at {t} without constituent {slowest_idx}"
            ));
        }
    }

    // Collapse differential: one coflow per app ⇒ the (app, coflow id)
    // refinement is the identity and the coflow-granular fabric must
    // reproduce the per-app approximation exactly.
    let mut per_app: BTreeMap<u32, usize> = BTreeMap::new();
    for c in &sc.coflows {
        *per_app.entry(c.app).or_default() += 1;
    }
    if per_app.values().all(|&n| n == 1) {
        let (approx, _) = sc.run_recorded(SincroniaFabric::new());
        let fine: BTreeMap<(u32, u64), f64> =
            completions.iter().map(|&(a, t, at)| ((a, t), at)).collect();
        let coarse: BTreeMap<(u32, u64), f64> =
            approx.iter().map(|&(a, t, at)| ((a, t), at)).collect();
        if fine.keys().ne(coarse.keys()) {
            return Err("collapse: completed flow sets diverge".into());
        }
        for (k, &ta) in &fine {
            let tb = coarse[k];
            if (ta - tb).abs() > 1e-9 + 1e-9 * ta.abs().max(tb.abs()) {
                return Err(format!(
                    "collapse: flow {k:?} at {ta} coflow-granular vs {tb} per-app"
                ));
            }
        }
    }
    Ok(())
}

/// A seeded streaming-drift re-profiling script: streaming workloads
/// (derived from the seed via [`streaming_workloads`]), a connection
/// layout on a single-switch testbed, and the times at which live
/// drifted samples are taken.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ReprofileScript {
    /// The generating seed.
    pub seed: u64,
    /// Number of streaming applications.
    pub napps: usize,
    /// Servers on the testbed switch.
    pub servers: usize,
    /// Connections as `(app, src server, dst server)`.
    pub conns: Vec<(u32, usize, usize)>,
    /// Times (seconds since profiling) at which live samples are drawn
    /// from the drifted specs, increasing.
    pub times: Vec<f64>,
}

impl ReprofileScript {
    /// Generates the script for `seed`.
    pub fn generate(seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x5ABA_2EF1);
        let napps = rng.gen_range(2..=3usize);
        let servers = rng.gen_range(4..=6usize);
        let nconns = rng.gen_range(napps..=2 * napps);
        let mut conns = Vec::with_capacity(nconns);
        for c in 0..nconns {
            let app = if c < napps {
                c as u32
            } else {
                rng.gen_range(0..napps as u32)
            };
            let src = rng.gen_range(0..servers);
            let mut dst = rng.gen_range(0..servers);
            if dst == src {
                dst = (dst + 1) % servers;
            }
            conns.push((app, src, dst));
        }
        let ntimes = rng.gen_range(1..=2usize);
        let mut times: Vec<f64> = (0..ntimes)
            .map(|_| rng.gen_range(500.0..20_000.0))
            .collect();
        times.sort_by(f64::total_cmp);
        Self {
            seed,
            napps,
            servers,
            conns,
            times,
        }
    }

    /// The script's streaming workloads (drift processes included).
    pub fn streams(&self) -> Vec<StreamingSpec> {
        streaming_workloads(
            &SyntheticConfig {
                count: self.napps,
                profile_nodes: 4,
                stages: (2, 3),
                compute_secs: (2.0, 6.0),
                ..Default::default()
            },
            self.seed,
        )
    }
}

fn scenario_profiler() -> Profiler {
    Profiler::new(ProfilerConfig {
        noise_sigma: 0.0,
        bw_points: vec![0.25, 0.5, 0.75, 1.0],
        degree: 2,
        ..Default::default()
    })
}

fn scenario_reprofiler() -> Reprofiler {
    Reprofiler::new(ReprofilerConfig {
        tolerance: 0.05,
        min_samples: 4,
        degree: 2,
        window: 64,
    })
}

/// One controller flavour absorbing re-profiling rounds: registers
/// `workloads` (application `i` runs `workloads[i]`), loads `conns`
/// (`(app, src, dst, tag)`), requires a bit-identical model push to
/// emit zero updates (the no-op epoch), then pushes each round's refits
/// through the incremental path and diffs the accumulated switch state
/// against a from-scratch replay of the same logical history —
/// original table, same registrations, the refit history replayed, the
/// connections preloaded, one recompute.
fn absorb_refits<P: Policy>(
    flavour: &str,
    fresh: impl Fn() -> Controller<P>,
    workloads: &[&str],
    table: &SensitivityTable,
    conns: &[(u32, NodeId, NodeId, u64)],
    rounds: &[Vec<SensitivityModel>],
) -> Result<(), String> {
    let registered = |what: &str| -> Result<Controller<P>, String> {
        let mut c = fresh();
        for (i, name) in workloads.iter().enumerate() {
            c.register(AppId(i as u32), name)
                .map_err(|e| format!("{flavour} {what} register {i}: {e:?}"))?;
        }
        Ok(c)
    };
    let mut inc = registered("incremental")?;
    let c_saba = inc.config().c_saba;
    let mut programmed: BTreeMap<u32, PortQueueConfig> = BTreeMap::new();
    for &(app, src, dst, tag) in conns {
        let updates = inc
            .conn_create(AppId(app), src, dst, tag)
            .map_err(|e| format!("{flavour} conn {tag}: {e:?}"))?;
        apply_updates(&mut programmed, &updates);
    }
    for name in workloads {
        let model = table.get(name).expect("profiled");
        let updates = inc.update_model(model);
        if !updates.is_empty() {
            return Err(format!(
                "{flavour} emitted {} update(s) for an identical {name} model",
                updates.len()
            ));
        }
    }
    let mut history: Vec<&SensitivityModel> = Vec::new();
    for (step, refits) in rounds.iter().enumerate() {
        for model in refits {
            let updates = inc.update_model(model);
            check_weight_budget(&updates, c_saba)?;
            apply_updates(&mut programmed, &updates);
            history.push(model);
        }
        let mut scratch = registered("scratch")?;
        for model in &history {
            scratch.update_model(model);
        }
        for &(app, src, dst, tag) in conns {
            scratch.preload_connection(AppId(app), src, dst, tag);
        }
        diff_switch_states(
            &format!("{flavour}-reprofile"),
            step,
            &programmed,
            &scratch.recompute_all(),
        )?;
    }
    Ok(())
}

/// Runs [`absorb_refits`] over both controller flavours (`shards`
/// link shards on the distributed one).
fn absorb_refits_on_both(
    topo: &Topology,
    shards: usize,
    workloads: &[&str],
    table: &SensitivityTable,
    conns: &[(u32, NodeId, NodeId, u64)],
    rounds: &[Vec<SensitivityModel>],
) -> Result<(), String> {
    let cfg = ControllerConfig::default();
    let db = MappingDb::build(table, cfg.num_pls, cfg.seed);
    absorb_refits(
        "central",
        || CentralController::new(cfg.clone(), table.clone(), topo),
        workloads,
        table,
        conns,
        rounds,
    )?;
    absorb_refits(
        "distributed",
        || DistributedController::new(cfg.clone(), db.clone(), topo, shards),
        workloads,
        table,
        conns,
        rounds,
    )
}

/// Checks one accepted refit: it must explain the live window better
/// than the frozen model and stay monotone in bandwidth.
fn check_refit(refit: &Refit) -> Result<(), String> {
    if refit.refit_error >= refit.error {
        return Err(format!(
            "refit of {} worsens the live error ({} -> {})",
            refit.model.workload, refit.error, refit.refit_error
        ));
    }
    check_model_monotonicity(&refit.model).map_err(|e| format!("refit model not monotone: {e}"))
}

/// **Re-profiling invariants**: no-op under tolerance (bit-identical
/// epochs), monotone improving refits, and incremental-vs-scratch at
/// [`crate::incremental::INCREMENTAL_RTOL`] on both controller
/// flavours after every re-profiling event.
pub fn check_reprofile(sc: &ReprofileScript) -> Result<(), String> {
    let streams = sc.streams();
    let profiler = scenario_profiler();
    let bases: Vec<_> = streams.iter().map(|s| s.base.clone()).collect();
    let table = profiler
        .profile_all(&bases)
        .map_err(|e| format!("profiling failed: {e:?}"))?;

    // (a) No-op under tolerance: the profiled samples themselves must
    // not trip a refit (and, in `absorb_refits`, pushing a bit-identical
    // model through either flavour must emit zero updates).
    let mut quiet = scenario_reprofiler();
    for s in &streams {
        let model = table.get(s.name()).expect("just profiled");
        quiet.observe_series(s.name(), &model.samples);
    }
    let spurious = quiet.poll(&table);
    if !spurious.is_empty() {
        return Err(format!(
            "re-profiler refit {} undrifted workload(s) from their own profiled samples",
            spurious.len()
        ));
    }

    // (b) Drift rounds: live samples from the drifted specs feed the
    // re-profiler; every accepted refit is checked.
    let mut live_table = table.clone();
    let mut rp = scenario_reprofiler();
    let mut rounds: Vec<Vec<SensitivityModel>> = Vec::new();
    for (step, &t) in sc.times.iter().enumerate() {
        for s in &streams {
            let live =
                to_slowdowns(&profiler.measure_samples(s.name(), &s.spec_at(t).profile_plan()));
            rp.observe_series(s.name(), &live);
        }
        let mut round = Vec::new();
        for refit in rp.poll(&live_table) {
            check_refit(&refit).map_err(|e| format!("step {step}: {e}"))?;
            live_table.insert(refit.model.clone());
            round.push(refit.model);
        }
        rounds.push(round);
    }

    // (c) Both flavours absorb the rounds through their incremental
    // paths and match a from-scratch replay after each.
    let topo = Topology::single_switch(sc.servers, 100.0);
    let servers = topo.servers();
    let conns: Vec<(u32, NodeId, NodeId, u64)> = sc
        .conns
        .iter()
        .enumerate()
        .map(|(i, &(app, src, dst))| (app, servers[src], servers[dst], i as u64))
        .collect();
    let names: Vec<&str> = streams.iter().map(|s| s.name()).collect();
    absorb_refits_on_both(&topo, 2, &names, &table, &conns, &rounds)
}

/// The headline re-profiling experiment, run once per driver
/// invocation: streaming demand drift on the paper's 1,944-server
/// spine-leaf fabric degrades the frozen sensitivity models; the
/// re-profiler refits them from live samples; both controller flavours
/// absorb the refits through their incremental paths; and the
/// accumulated switch state matches a from-scratch replay at
/// [`crate::incremental::INCREMENTAL_RTOL`]. Returns a summary line.
pub fn reprofile_demo() -> Result<String, String> {
    let syn = SyntheticConfig {
        count: 4,
        profile_nodes: 4,
        stages: (2, 3),
        compute_secs: (2.0, 6.0),
        ..Default::default()
    };
    let streams = streaming_workloads(&syn, 7);
    let profiler = scenario_profiler();
    let bases: Vec<_> = streams.iter().map(|s| s.base.clone()).collect();
    let table = profiler
        .profile_all(&bases)
        .map_err(|e| format!("profiling failed: {e:?}"))?;

    let topo = Topology::spine_leaf(&SpineLeafConfig::paper());
    let servers = topo.servers();
    let n = servers.len();
    // Six connections per app, scattered across pods with a fixed
    // stride so paths cross leaf and spine tiers.
    let mut conns: Vec<(u32, NodeId, NodeId, u64)> = Vec::new();
    for i in 0..streams.len() {
        for k in 0..6usize {
            let src = (i * 487 + k * 211) % n;
            let mut dst = (i * 131 + k * 613 + 997) % n;
            if dst == src {
                dst = (dst + 1) % n;
            }
            conns.push((i as u32, servers[src], servers[dst], (i * 100 + k) as u64));
        }
    }

    // Drifted demand at t = 5000 s since profiling.
    let mut rp = scenario_reprofiler();
    for s in &streams {
        let live =
            to_slowdowns(&profiler.measure_samples(s.name(), &s.spec_at(5000.0).profile_plan()));
        rp.observe_series(s.name(), &live);
    }
    let refits = rp.poll(&table);
    if refits.is_empty() {
        return Err("seeded streaming drift tripped no refit".into());
    }
    for refit in &refits {
        check_refit(refit)?;
    }
    let mean = |f: fn(&Refit) -> f64| refits.iter().map(f).sum::<f64>() / refits.len() as f64;
    let (err_before, err_after) = (mean(|r| r.error), mean(|r| r.refit_error));

    let names: Vec<&str> = streams.iter().map(|s| s.name()).collect();
    let round: Vec<SensitivityModel> = refits.iter().map(|r| r.model.clone()).collect();
    absorb_refits_on_both(&topo, 8, &names, &table, &conns, &[round])?;

    Ok(format!(
        "reprofile demo: {} servers, {} refit(s), mean live error {:.3} -> {:.3}, \
         incremental == scratch on both flavours",
        n,
        refits.len(),
        err_before,
        err_after
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn coflow_scenarios_are_deterministic() {
        let a = CoflowScenario::generate(31);
        let b = CoflowScenario::generate(31);
        assert_eq!(format!("{a:?}"), format!("{b:?}"));
    }

    #[test]
    fn reprofile_scripts_are_deterministic() {
        let a = ReprofileScript::generate(13);
        let b = ReprofileScript::generate(13);
        assert_eq!(format!("{a:?}"), format!("{b:?}"));
    }

    #[test]
    fn cct_oracle_passes_small_seeds() {
        for seed in 0..6 {
            check_coflow_cct(&CoflowScenario::generate(seed))
                .unwrap_or_else(|e| panic!("seed {seed}: {e}"));
        }
    }

    #[test]
    fn reprofile_oracle_passes_small_seeds() {
        for seed in 0..3 {
            check_reprofile(&ReprofileScript::generate(seed))
                .unwrap_or_else(|e| panic!("seed {seed}: {e}"));
        }
    }

    #[test]
    fn cct_oracle_catches_a_planted_min_semantics_bug() {
        // A coflow "completing" at its *fastest* constituent violates
        // the all-or-nothing semantic the oracle pins; fake it by
        // checking the oracle's own max computation against a planted
        // completion map.
        let sc = CoflowScenario::generate(2);
        let spec = &sc.specs()[0];
        if spec.flows.len() >= 2 {
            let mut fcts = BTreeMap::new();
            for f in &spec.flows {
                fcts.insert(f.index, 1.0 + f.index as f64);
            }
            let cct = spec.completion_time(&fcts).unwrap();
            assert_eq!(cct, spec.flows.len() as f64, "CCT must be the slowest");
        }
    }
}
