//! The co-run loop is pinned bit for bit across commits.
//!
//! `execute`, `execute_with_faults` and `execute_with_faults_traced`
//! are three entry points of one Fig. 7 loop; goldens, `repro
//! resilience`, `repro observe` and the ledger's `composition ==
//! run_datacenter` check all rest on that loop not moving a completion
//! time by one ulp from run to run, build to build or entry point to
//! entry point (empty schedule = `execute`, traced = untraced: asserted
//! below on every run), and the trace it exports not moving by a byte.
//! The two Saba rows were first recorded from the three separate loops
//! of PR 15 (`6f613e1`), before they were merged, and held until PR 20,
//! which let the progressive-filling kernel refill only the bundles
//! that can still gain (the contract that replaced "the PR 16 kernel's
//! bits" is in `sim/tests/fill_bits.rs` and DESIGN.md §5.1): they are
//! **re-recorded at PR 20 from a release build** — every completion
//! time within 3 ulps of the old row, the traces the same events in the
//! same order with numbers within 8e-16 of the old ones. The
//! distributed row was re-recorded once more, from a release build
//! (debug agrees), when PL centroids stopped being solved raw by the
//! warm-seeded iterative solver and took the central flavour's convex
//! surrogate and exact dual solve: different weights on contended
//! ports, so completion times within 4 % of the old row and a shorter
//! trace; the central row did not move. The fabrics
//! that reach `sim::sharing` without a controller — FECN, and the two
//! with more than one strict-priority class — did not move: their row
//! is still the one recorded at PR 16 (`3432349`), before the flat
//! kernel.

use saba_baselines::HomaConfig;
use saba_cluster::corun::{execute, PlannedJob};
use saba_cluster::corun_faults::{execute_with_faults, execute_with_faults_traced, plan_jobs};
use saba_cluster::Policy;
use saba_core::controller::central::CentralController;
use saba_core::controller::ControllerConfig;
use saba_core::fabric::SabaFabric;
use saba_core::profiler::{Profiler, ProfilerConfig};
use saba_core::sensitivity::SensitivityTable;
use saba_faults::schedule::{FaultKind, FaultSchedule, FaultSpec, ScheduleConfig};
use saba_sim::engine::Simulation;
use saba_sim::ids::AppId;
use saba_sim::topology::{SpineLeafConfig, Topology};
use saba_workload::catalog;
use saba_workload::runtime::{run_jobs, JobRuntime};
use std::sync::OnceLock;

/// Cubic fits: both flavours solve convex surrogates of curves that are
/// not quadratics themselves.
fn table() -> &'static SensitivityTable {
    static TABLE: OnceLock<SensitivityTable> = OnceLock::new();
    TABLE.get_or_init(|| {
        Profiler::new(ProfilerConfig {
            noise_sigma: 0.0,
            bw_points: vec![0.1, 0.25, 0.5, 0.75, 1.0],
            degree: 3,
            ..Default::default()
        })
        .profile_all(&catalog())
        .unwrap()
    })
}

/// Four overlapping cross-rack jobs on the 8-server spine-leaf.
fn world() -> (Topology, Vec<PlannedJob>) {
    let topo = Topology::spine_leaf(&SpineLeafConfig::tiny(2));
    let specs = [
        ("LR", 1.0, vec![0, 2, 4, 6]),
        ("Sort", 1.0, vec![1, 3, 5, 7]),
        ("PR", 0.5, vec![0, 1, 4, 5]),
        ("SVM", 1.0, vec![2, 3, 6, 7]),
    ]
    .map(|(w, scale, servers)| (w.to_string(), scale, servers));
    let jobs = plan_jobs(&topo, &specs, &catalog(), 0.02, 0x5aba).unwrap();
    (topo, jobs)
}

/// The severity-2 ladder rung (degraded link, lossy RPC, failed cable,
/// controller crash) over a run `horizon` seconds long, plus a shard
/// crash so the distributed flavour's second recovery arm runs too.
fn schedule(topo: &Topology, horizon: f64) -> FaultSchedule {
    let cfg = ScheduleConfig {
        severity: 2,
        horizon,
        num_shards: 3,
    };
    let mut schedule = FaultSchedule::generate(topo, &cfg, 7);
    schedule.faults.push(FaultSpec {
        kind: FaultKind::CrashShard { shard: 1 },
        start: 0.75 * horizon,
        duration: 0.1 * horizon,
    });
    schedule
}

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// What one policy's three runs produced.
#[derive(Debug, PartialEq)]
struct Pins {
    clean: Vec<u64>,
    faulted: Vec<u64>,
    trace_len: usize,
    trace_fnv: u64,
}

fn pins(policy: &Policy) -> Pins {
    let bits = |results: &[saba_cluster::JobResult]| -> Vec<u64> {
        results.iter().map(|r| r.completion.to_bits()).collect()
    };
    let (topo, jobs) = world();
    let clean = execute(topo.clone(), jobs.clone(), policy, table()).unwrap();
    let empty = execute_with_faults(
        topo.clone(),
        jobs.clone(),
        policy,
        table(),
        &FaultSchedule::default(),
    )
    .unwrap();
    assert_eq!(clean, empty.results, "empty schedule == execute");

    let horizon = clean.iter().map(|r| r.completion).fold(0.0, f64::max);
    let schedule = schedule(&topo, horizon);
    let faulted =
        execute_with_faults(topo.clone(), jobs.clone(), policy, table(), &schedule).unwrap();
    let (traced, rec) = execute_with_faults_traced(topo, jobs, policy, table(), &schedule).unwrap();
    assert_eq!(faulted.results, traced.results, "traced == untraced");
    assert_eq!(faulted.sim_stats, traced.sim_stats);
    assert_eq!(faulted.injector_stats, traced.injector_stats);
    let res = faulted.resilience.expect("saba policies have a controller");
    assert_eq!((res.crashes, res.recoveries > 0), (1, true));

    let jsonl = rec.trace.to_jsonl();
    Pins {
        clean: bits(&clean),
        faulted: bits(&faulted.results),
        trace_len: jsonl.len(),
        trace_fnv: fnv1a(jsonl.as_bytes()),
    }
}

#[test]
fn central_loop_is_bit_identical_to_the_pre_merge_loops() {
    let expected = Pins {
        clean: vec![
            0x4077_6678_5895_fa52,
            0x4075_6dd4_20bb_b718,
            0x4073_d487_d64e_02d9,
            0x407a_1285_c3cf_e259,
        ],
        faulted: vec![
            0x4079_138f_5b76_5666,
            0x4075_959f_c357_596e,
            0x4073_3598_2560_defd,
            0x407b_7fd9_e207_0218,
        ],
        trace_len: 327_654,
        trace_fnv: 0x55b0_f24e_71da_75e6,
    };
    assert_eq!(pins(&Policy::saba()), expected);
}

#[test]
fn distributed_loop_is_bit_identical_to_the_pre_merge_loops() {
    let expected = Pins {
        clean: vec![
            0x4078_5a9a_5242_c794,
            0x4075_a825_7822_30d6,
            0x4072_68bb_bce1_9ec4,
            0x407a_ce46_980c_cfad,
        ],
        faulted: vec![
            0x4077_e870_d61a_9f50,
            0x4075_922d_6d21_4294,
            0x4072_6787_46d3_13cd,
            0x4079_16c2_b315_200e,
        ],
        trace_len: 319_564,
        trace_fnv: 0x6504_b7f9_a5b4_60c0,
    };
    let policy = Policy::SabaDistributed(ControllerConfig::default(), 3);
    assert_eq!(pins(&policy), expected);
}

/// The Tier-1 twin of the ledger's `composition == run_datacenter`
/// check: with nothing down, the crash wrapper the loop drives is
/// transparent — a bare `CentralController` wired to the fabric by hand
/// yields the same completion times.
#[test]
fn fault_free_wrapper_equals_a_bare_controller_composed_by_hand() {
    let (topo, jobs) = world();
    let via_loop = execute(topo.clone(), jobs.clone(), &Policy::saba(), table()).unwrap();

    let mut ctl = CentralController::new(ControllerConfig::default(), table().clone(), &topo);
    let mut runtimes: Vec<JobRuntime> = jobs
        .iter()
        .enumerate()
        .map(|(i, job)| {
            let app = AppId(i as u32);
            let sl = ctl.register(app, &job.workload).unwrap();
            JobRuntime::new(
                app,
                sl,
                job.nodes.clone(),
                job.plan.clone(),
                (i as u64) << 32,
            )
        })
        .collect();
    let fabric = SabaFabric::for_topology(&topo);
    let mut sim = Simulation::new(topo, fabric);
    let by_hand = run_jobs(&mut sim, &mut runtimes, |sim, ev| {
        let updates = ctl.on_event(ev).unwrap();
        if !updates.is_empty() {
            sim.model_mut().apply(updates);
        }
    })
    .unwrap();

    let via_loop: Vec<u64> = via_loop.iter().map(|r| r.completion.to_bits()).collect();
    let by_hand: Vec<u64> = by_hand.iter().map(|t| t.to_bits()).collect();
    assert_eq!(via_loop, by_hand);
}

/// The other users of the progressive-filling kernel: the FECN baseline
/// (one class, efficiency-scaled caps) and the only fabrics that fill
/// more than one strict-priority class per epoch.
#[test]
fn controllerless_fabrics_are_bit_identical_to_pr16() {
    let expected: [(Policy, [u64; 4]); 3] = [
        (
            Policy::baseline(),
            [
                0x407e_0b68_7324_cbb0,
                0x4075_f4d6_d635_4147,
                0x4073_fbef_cad8_4985,
                0x407d_c0ad_73c2_7864,
            ],
        ),
        (
            Policy::Homa(HomaConfig::default()),
            [
                0x4079_e17c_fb70_3ee5,
                0x4074_5e08_821d_b48d,
                0x4071_beeb_da48_afb4,
                0x407a_5679_15c3_152d,
            ],
        ),
        (
            Policy::Sincronia,
            [
                0x4077_8d8e_c2f6_8f46,
                0x4075_494f_4bde_f02c,
                0x4071_9bdc_0829_d42e,
                0x4074_a1f3_9c46_0efb,
            ],
        ),
    ];
    for (policy, want) in expected {
        let (topo, jobs) = world();
        let got: Vec<u64> = execute(topo, jobs, &policy, table())
            .unwrap()
            .iter()
            .map(|r| r.completion.to_bits())
            .collect();
        assert_eq!(got, want, "{}", policy.name());
    }
}
