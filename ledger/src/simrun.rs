//! `sim_corun`: the paper's evaluation vehicle — 20 synthetic workloads
//! co-running under Saba on a 288-server spine-leaf in the fluid
//! simulator. The allocator does most of the work here and the
//! controller little, the opposite of `epoch_cold`.
//!
//! The run is composed from the public parts `cluster::datacenter`
//! itself uses, with the benchmark's own `FabricModel` wrapper around
//! `SabaFabric`, so calls into the allocator and the controller can be
//! counted (and, traced, timed) from outside; every composition must
//! reproduce `run_datacenter`'s completion times bit for bit.

use crate::metrics::Outcome;
use crate::span::Tracer;
use crate::stats;
use crate::{median_setup, overhead_pct, report, slice, E2e};
use rand::seq::SliceRandom;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use saba_cluster::datacenter::{run_datacenter, DatacenterConfig};
use saba_cluster::Policy;
use saba_core::controller::central::CentralController;
use saba_core::controller::ControllerConfig;
use saba_core::fabric::SabaFabric;
use saba_core::profiler::{Profiler, ProfilerConfig};
use saba_core::sensitivity::SensitivityTable;
use saba_sim::engine::{ActiveFlow, FabricModel, SimStats, Simulation};
use saba_sim::ids::AppId;
use saba_sim::topology::{SpineLeafConfig, Topology};
use saba_workload::runtime::{run_jobs, ConnEvent, JobRuntime};
use saba_workload::spec::WorkloadSpec;
use saba_workload::synthetic::{synthetic_workloads, SyntheticConfig};
use std::time::Instant;

const INSTANCES: usize = 14;

fn controller_config() -> ControllerConfig {
    ControllerConfig {
        protect_fraction: 0.55,
        ..Default::default()
    }
}

/// The generated inputs of one co-run.
struct Scenario {
    workloads: Vec<WorkloadSpec>,
    table: SensitivityTable,
    dc: DatacenterConfig,
}

impl Scenario {
    /// Scenario `k` of `seed`: its own workload family, profile table,
    /// placement and compute jitter.
    fn new(seed: u64, k: u64) -> Self {
        let sub = seed.wrapping_add(k.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        let workloads = synthetic_workloads(&SyntheticConfig::default(), sub);
        let table = Profiler::new(ProfilerConfig::default())
            .profile_all(&workloads)
            .expect("synthetic workloads profile");
        let dc = DatacenterConfig {
            topo: SpineLeafConfig {
                spines: 12,
                leaves: 24,
                tors: 16,
                servers_per_tor: 18,
                leaf_uplinks_per_tor: 6,
                link_capacity: saba_sim::LINK_56G_BPS,
            },
            instances_per_workload: INSTANCES,
            placement_seed: sub,
            compute_jitter: 0.02,
        };
        Self {
            workloads,
            table,
            dc,
        }
    }

    /// Completion times of the product's own entry point under `policy`.
    fn reference(&self, policy: &Policy) -> Result<Vec<f64>, String> {
        let results = run_datacenter(&self.workloads, policy, &self.table, &self.dc)?;
        Ok(results.iter().map(|r| r.completion).collect())
    }
}

/// `SabaFabric` with the calls into it counted and, traced, timed.
struct CountingFabric {
    inner: SabaFabric,
    calls: u64,
    /// Flows whose rate was assigned, summed over calls.
    flow_epochs: u64,
    spans: Option<Vec<(Instant, Instant)>>,
}

impl FabricModel for CountingFabric {
    fn allocate(&mut self, topo: &Topology, flows: &[ActiveFlow], rates: &mut Vec<f64>) {
        self.calls += 1;
        self.flow_epochs += flows.len() as u64;
        match &mut self.spans {
            None => self.inner.allocate(topo, flows, rates),
            Some(spans) => {
                let start = Instant::now();
                self.inner.allocate(topo, flows, rates);
                spans.push((start, Instant::now()));
            }
        }
    }
}

/// One composed co-run.
struct Corun {
    completions: Vec<f64>,
    start: Instant,
    end: Instant,
    calls: u64,
    flow_epochs: u64,
    allocate_spans: Vec<(Instant, Instant)>,
    event_spans: Vec<(Instant, Instant)>,
    sim: SimStats,
}

impl Corun {
    fn host_s(&self) -> f64 {
        (self.end - self.start).as_secs_f64()
    }
}

/// The same experiment `run_datacenter` runs under `Policy::Saba`,
/// assembled here: placement, plans, controller in the loop.
fn corun(scn: &Scenario, timed: bool) -> Result<Corun, String> {
    let start = Instant::now();
    let topo = Topology::spine_leaf(&scn.dc.topo);
    let mut deck = topo.servers().to_vec();
    deck.shuffle(&mut ChaCha8Rng::seed_from_u64(scn.dc.placement_seed));
    let mut ctl = CentralController::new(controller_config(), scn.table.clone(), &topo);
    let mut jobs = Vec::with_capacity(scn.workloads.len());
    for (i, w) in scn.workloads.iter().enumerate() {
        let nodes = deck[i * INSTANCES..(i + 1) * INSTANCES].to_vec();
        let mut jitter = ChaCha8Rng::seed_from_u64(scn.dc.placement_seed ^ ((i as u64) << 8));
        let plan = w
            .plan(1.0, INSTANCES)
            .with_compute_jitter(scn.dc.compute_jitter, &mut jitter);
        let app = AppId(i as u32);
        let sl = ctl.register(app, &w.name).map_err(|e| e.to_string())?;
        jobs.push(JobRuntime::new(app, sl, nodes, plan, (i as u64) << 32));
    }
    let fabric = CountingFabric {
        inner: SabaFabric::for_topology(&topo),
        calls: 0,
        flow_epochs: 0,
        spans: timed.then(Vec::new),
    };
    let mut sim = Simulation::new(topo, fabric);
    let mut event_spans = Vec::new();
    let completions = run_jobs(&mut sim, &mut jobs, |sim, ev| {
        let t0 = timed.then(Instant::now);
        let updates = match ev {
            ConnEvent::Created { app, src, dst, tag } => ctl.conn_create(*app, *src, *dst, *tag),
            ConnEvent::Destroyed { app, tag, .. } => ctl.conn_destroy(*app, *tag),
            ConnEvent::JobCompleted { app, .. } => ctl.deregister(*app),
        }
        .expect("controller accepts events of registered jobs");
        if let Some(t0) = t0 {
            event_spans.push((t0, Instant::now()));
        }
        if !updates.is_empty() {
            sim.model_mut().inner.apply(updates);
        }
    })
    .map_err(|e| e.to_string())?;
    let end = Instant::now();
    let stats = sim.stats();
    let fabric = sim.model_mut();
    Ok(Corun {
        completions,
        start,
        end,
        calls: fabric.calls,
        flow_epochs: fabric.flow_epochs,
        allocate_spans: fabric.spans.take().unwrap_or_default(),
        event_spans,
        sim: stats,
    })
}

/// Relative completion-time difference the checks tolerate between two
/// runs of one scenario. They should be bit-identical, but the seed
/// code's `run_jobs` hands a batch of completed flows to the jobs in
/// `HashMap` order, so when flows of two jobs finish in the same event
/// the controller sees their events in a per-process random order and
/// completion times move by up to ~1e-3. Bitwise mismatches are counted
/// (`sim.jct_mismatch_jobs`) instead of failing the run.
const JCT_RTOL: f64 = 1e-2;

/// Checks two completion-time vectors against [`JCT_RTOL`] and returns
/// how many jobs differ bitwise.
fn same_completions(what: &str, a: &[f64], b: &[f64]) -> (bool, usize) {
    let close = a.len() == b.len()
        && a.iter()
            .zip(b)
            .all(|(x, y)| (x - y).abs() <= JCT_RTOL * x.abs().max(y.abs()));
    let mismatched = a
        .iter()
        .zip(b)
        .filter(|(x, y)| x.to_bits() != y.to_bits())
        .count();
    if close && mismatched > 0 {
        eprintln!("warning ({what}): {mismatched} completion times differ bitwise");
    }
    let ok = report(
        what,
        if close {
            Ok(())
        } else {
            Err(format!("completion times differ: {a:?} vs {b:?}"))
        },
    );
    (ok, mismatched)
}

pub fn e2e(seed: u64, seconds: f64) -> E2e {
    let (setup_s, first) = median_setup(15, || Scenario::new(seed, 0));

    // One scenario after another until the time is spent. An op is one
    // flow-epoch — one active flow given its rate in one allocation
    // epoch — so scenarios of different size weigh in by their work.
    let (mut lat_us, mut busy, mut flow_epochs) = (Vec::new(), 0.0, 0u64);
    let (mut attempted, mut failed, mut correct) = (0u64, 0u64, true);
    let mut first_completions = None;
    let mut k = 0;
    let mut slices = Vec::new();
    while busy < seconds {
        let later;
        let s = if k == 0 {
            &first
        } else {
            later = Scenario::new(seed, k);
            &later
        };
        attempted += s.workloads.len() as u64;
        let run = slice(&mut slices, || {
            let run = corun(s, false);
            (run.as_ref().map_or(0, |r| r.flow_epochs), run)
        });
        match run {
            Ok(run) => {
                busy += run.host_s();
                flow_epochs += run.flow_epochs;
                lat_us.push(run.host_s() * 1e6 / run.flow_epochs as f64);
                eprintln!(
                    "scenario {k}: {:.3} s host, {} allocation epochs, {} flow-epochs",
                    run.host_s(),
                    run.calls,
                    run.flow_epochs
                );
                if k == 0 {
                    first_completions = Some(run.completions);
                }
            }
            Err(e) => {
                failed += s.workloads.len() as u64;
                correct = report("all jobs complete", Err(e));
                break;
            }
        }
        k += 1;
    }
    if let Some(ours) = first_completions {
        match first.reference(&Policy::Saba(controller_config())) {
            Ok(theirs) => {
                correct &= same_completions("composition == run_datacenter", &ours, &theirs).0
            }
            Err(e) => correct = report("run_datacenter completes", Err(e)),
        }
    }
    E2e {
        setup_s,
        slices,
        wall_ops_per_s: flow_epochs as f64 / busy,
        attempted,
        failed,
        lat_us,
        correct,
    }
}

pub fn traced(seed: u64, tracer: &mut Tracer, out: &mut Outcome) {
    let scn = Scenario::new(seed, 0);
    out.attempted = scn.workloads.len() as u64;
    let (plain, traced) = match (corun(&scn, false), corun(&scn, true)) {
        (Ok(p), Ok(t)) => (p, t),
        (Err(e), _) | (_, Err(e)) => {
            out.failed = out.attempted;
            out.correct = report("all jobs complete", Err(e));
            return;
        }
    };
    let root = tracer.push("cluster.corun", 0, None, traced.start, traced.end);
    for (i, &(start, end)) in traced.allocate_spans.iter().enumerate() {
        tracer.push("sim.fabric.allocate", i as u64, Some(root), start, end);
    }
    for (i, &(start, end)) in traced.event_spans.iter().enumerate() {
        tracer.push("core.controller.on_event", i as u64, Some(root), start, end);
    }
    let allocate = tracer.durations("sim.fabric.allocate");
    let on_event = tracer.durations("core.controller.on_event");

    let t0 = Instant::now();
    let baseline = scn.reference(&Policy::baseline());
    let baseline_host_s = t0.elapsed().as_secs_f64();
    let saba = scn.reference(&Policy::Saba(controller_config()));
    let (ok, mut mismatched) = same_completions(
        "traced == untraced",
        &traced.completions,
        &plain.completions,
    );
    out.correct = ok;
    match (&baseline, &saba) {
        (Ok(base), Ok(saba)) => {
            let (ok, n) =
                same_completions("composition == run_datacenter", &plain.completions, saba);
            out.correct &= ok;
            mismatched = mismatched.max(n);
            let speedups: Vec<f64> = base.iter().zip(saba).map(|(b, s)| b / s).collect();
            out.set(
                "sim.saba_speedup",
                speedups.iter().sum::<f64>() / speedups.len() as f64,
            );
        }
        (Err(e), _) | (_, Err(e)) => {
            out.correct = report("run_datacenter completes", Err(e.clone()))
        }
    }

    let host_s = traced.host_s();
    out.set("sim.jct_mismatch_jobs", mismatched as f64);
    out.set(
        "sim.fabric.flow_epoch_ns",
        host_s * 1e9 / traced.flow_epochs as f64,
    );
    out.set("sim.host_s", host_s);
    out.set("sim.fabric.allocate_s", allocate.iter().sum());
    out.set("sim.fabric.allocate_calls", traced.calls as f64);
    out.set("sim.fabric.allocate_us", stats::median(&allocate) * 1e6);
    out.set(
        "sim.fabric.flows_per_call",
        traced.flow_epochs as f64 / traced.calls as f64,
    );
    out.set("core.controller.on_event_s", on_event.iter().sum());
    out.set("core.controller.on_event_calls", on_event.len() as f64);
    out.set("sim.engine.self_s", tracer.self_secs(root));
    out.set("sim.engine.allocations", traced.sim.allocations as f64);
    out.set(
        "sim.engine.flows_completed",
        traced.sim.flows_completed as f64,
    );
    out.set(
        "sim.engine.events_per_s",
        traced.sim.allocations as f64 / host_s,
    );
    out.set("cluster.baseline_host_s", baseline_host_s);
    out.set(
        "bench.trace_overhead_pct",
        overhead_pct(host_s, plain.host_s()),
    );
}
