//! The co-run engine: executes a set of jobs under a policy, with the
//! full Saba control loop wired in when the policy calls for it.
//!
//! For Saba policies the sequence follows Fig. 7: every job registers
//! at launch (§3: "Saba expects compliant applications to be registered
//! at launch") and receives its PL; each connection create/destroy goes
//! to the controller, whose switch updates are applied to the fabric
//! mid-run; completion triggers deregistration.
//!
//! There is one such loop, [`crate::corun_faults`]'s: a fault-free,
//! untraced co-run is that loop under the empty fault schedule with the
//! null telemetry sink, and [`execute`] is exactly that.

use crate::corun_faults::{plan_jobs, run};
use crate::policy::Policy;
use crate::setup::ClusterSetup;
use saba_core::sensitivity::SensitivityTable;
use saba_faults::schedule::FaultSchedule;
use saba_sim::ids::NodeId;
use saba_sim::topology::Topology;
use saba_telemetry::NullSink;
use saba_workload::spec::{JobPlan, WorkloadSpec};
use serde::{Deserialize, Serialize};

/// Execution parameters shared by all experiments.
#[derive(Debug, Clone)]
pub struct CorunConfig {
    /// NIC line rate in bytes/s.
    pub nic_rate: f64,
    /// Lognormal sigma of per-stage compute jitter (run-to-run
    /// variance). The same seed produces the same jitter, so paired
    /// policy/baseline runs see identical workloads.
    pub compute_jitter: f64,
    /// Jitter seed.
    pub seed: u64,
}

impl Default for CorunConfig {
    fn default() -> Self {
        Self {
            nic_rate: saba_sim::LINK_56G_BPS,
            compute_jitter: 0.02,
            seed: 0x5aba,
        }
    }
}

/// Outcome of one job in a co-run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct JobResult {
    /// Workload name.
    pub workload: String,
    /// Dataset scale the job ran with.
    pub dataset_scale: f64,
    /// Number of instances (nodes).
    pub nodes: usize,
    /// Completion time in seconds.
    pub completion: f64,
}

/// A fully described job: its plan plus the concrete servers.
#[derive(Debug, Clone)]
pub struct PlannedJob {
    /// Workload name.
    pub workload: String,
    /// Dataset scale (metadata for results).
    pub dataset_scale: f64,
    /// The instantiated plan.
    pub plan: JobPlan,
    /// Host servers.
    pub nodes: Vec<NodeId>,
}

/// Runs one §8.2 cluster setup on a single-switch testbed topology.
///
/// Returns per-job results aligned with `setup.jobs`.
pub fn run_setup(
    setup: &ClusterSetup,
    servers: usize,
    policy: &Policy,
    table: &SensitivityTable,
    catalog: &[WorkloadSpec],
    cfg: &CorunConfig,
) -> Result<Vec<JobResult>, String> {
    let topo = Topology::single_switch(servers, cfg.nic_rate);
    let specs: Vec<(String, f64, Vec<usize>)> = setup
        .jobs
        .iter()
        .map(|j| (j.workload.clone(), j.dataset_scale, j.servers.clone()))
        .collect();
    let jobs = plan_jobs(&topo, &specs, catalog, cfg.compute_jitter, cfg.seed)?;
    execute(topo, jobs, policy, table)
}

/// Executes `jobs` over `topo` under `policy`, returning per-job
/// results in order.
pub fn execute(
    topo: Topology,
    jobs: Vec<PlannedJob>,
    policy: &Policy,
    table: &SensitivityTable,
) -> Result<Vec<JobResult>, String> {
    let schedule = FaultSchedule::default();
    Ok(run(topo, jobs, policy, table, &schedule, NullSink)?
        .outcome
        .results)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::setup::{generate_setup, SetupConfig};
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use saba_core::profiler::{Profiler, ProfilerConfig};
    use saba_workload::catalog;

    fn quick_table() -> SensitivityTable {
        Profiler::new(ProfilerConfig {
            noise_sigma: 0.0,
            bw_points: vec![0.1, 0.25, 0.5, 0.75, 1.0],
            degree: 3,
            ..Default::default()
        })
        .profile_all(&catalog())
        .unwrap()
    }

    fn small_setup(seed: u64) -> ClusterSetup {
        let cfg = SetupConfig {
            servers: 8,
            jobs: 4,
            node_choices: vec![4, 8],
            ..Default::default()
        };
        generate_setup(&catalog(), &cfg, &mut StdRng::seed_from_u64(seed))
    }

    #[test]
    fn baseline_and_saba_both_complete() {
        let table = quick_table();
        let setup = small_setup(1);
        let cat = catalog();
        let cfg = CorunConfig {
            compute_jitter: 0.0,
            ..Default::default()
        };
        for policy in [Policy::baseline(), Policy::saba(), Policy::IdealMaxMin] {
            let results = run_setup(&setup, 8, &policy, &table, &cat, &cfg).unwrap();
            assert_eq!(results.len(), 4, "{}", policy.name());
            for r in &results {
                assert!(r.completion > 0.0, "{}: {r:?}", policy.name());
            }
        }
    }

    #[test]
    fn saba_beats_baseline_on_a_skewed_mix() {
        // One very sensitive job (LR) and one insensitive (Sort), fully
        // overlapping: Saba must cut LR's time at a small Sort cost.
        let table = quick_table();
        let cat = catalog();
        let setup = ClusterSetup {
            jobs: vec![
                crate::setup::JobSpec {
                    workload: "LR".into(),
                    dataset_scale: 1.0,
                    servers: (0..8).collect(),
                },
                crate::setup::JobSpec {
                    workload: "Sort".into(),
                    dataset_scale: 1.0,
                    servers: (0..8).collect(),
                },
            ],
        };
        let cfg = CorunConfig {
            compute_jitter: 0.0,
            ..Default::default()
        };
        let base = run_setup(&setup, 8, &Policy::baseline(), &table, &cat, &cfg).unwrap();
        let saba = run_setup(&setup, 8, &Policy::saba(), &table, &cat, &cfg).unwrap();
        let lr_speedup = base[0].completion / saba[0].completion;
        let sort_speedup = base[1].completion / saba[1].completion;
        assert!(lr_speedup > 1.1, "LR speedup {lr_speedup}");
        assert!(
            sort_speedup > 0.85,
            "Sort must not collapse: {sort_speedup}"
        );
    }

    #[test]
    fn paired_runs_are_deterministic() {
        let table = quick_table();
        let setup = small_setup(7);
        let cat = catalog();
        let cfg = CorunConfig::default();
        let a = run_setup(&setup, 8, &Policy::baseline(), &table, &cat, &cfg).unwrap();
        let b = run_setup(&setup, 8, &Policy::baseline(), &table, &cat, &cfg).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn distributed_controller_also_runs() {
        let table = quick_table();
        let setup = small_setup(3);
        let cat = catalog();
        let cfg = CorunConfig {
            compute_jitter: 0.0,
            ..Default::default()
        };
        let policy = Policy::SabaDistributed(saba_core::controller::ControllerConfig::default(), 3);
        let results = run_setup(&setup, 8, &policy, &table, &cat, &cfg).unwrap();
        assert_eq!(results.len(), 4);
    }

    #[test]
    fn unknown_workload_is_reported() {
        let table = quick_table();
        let cat = catalog();
        let setup = ClusterSetup {
            jobs: vec![crate::setup::JobSpec {
                workload: "Mystery".into(),
                dataset_scale: 1.0,
                servers: vec![0, 1],
            }],
        };
        let err = run_setup(
            &setup,
            8,
            &Policy::saba(),
            &table,
            &cat,
            &CorunConfig::default(),
        )
        .unwrap_err();
        assert!(err.contains("Mystery"));
    }
}
