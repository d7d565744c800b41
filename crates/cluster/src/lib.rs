//! Cluster-scale experiment harness for the Saba evaluation (§8).
//!
//! This crate glues everything together: it generates randomized
//! cluster setups (§8.2's 500 setups of 16 jobs over 32 servers),
//! executes them under any allocation [`policy::Policy`] — the FECN
//! baseline, ideal max-min, Homa, Sincronia, or Saba with a centralized
//! or distributed controller — and aggregates the paper's speedup
//! metrics.
//!
//! - [`policy`] — the policy enum, what it builds — the
//!   [`policy::AnyFabric`] dispatcher implementing
//!   [`saba_sim::engine::FabricModel`], and for Saba policies the
//!   controller of the matching flavour ([`Policy::controller`]).
//! - [`setup`] — random cluster-setup generation with the §8.2
//!   placement constraints.
//! - [`corun_faults`] — the one co-run loop (Fig. 7): registration at
//!   launch, connection events wired to the controller, switch updates
//!   applied to the fabric — under a deterministic fault schedule
//!   (`saba-faults`: link/switch failures hit the fabric, controller
//!   crashes degrade to stale weights and recover by replay) and a
//!   telemetry sink.
//! - [`corun`] — job and result types, and the fault-free entry points
//!   ([`corun::execute`], [`run_setup`]): that loop under the empty
//!   schedule with the null sink.
//! - [`datacenter`] — the 1,944-server spine-leaf experiment of §8.4.
//! - [`metrics`] — per-workload speedups, geometric means, CDFs.
//! - [`reprofile`] — the online re-profiler: watches live slowdown
//!   samples for sensitivity-model drift (§4.2) and re-fits past
//!   tolerance, feeding both controller flavours' incremental
//!   `update_model` paths.
//! - [`runner`] — a thread-parallel map over independent setups.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod corun;
pub mod corun_faults;
pub mod datacenter;
pub mod metrics;
pub mod policy;
pub mod reprofile;
pub mod runner;
pub mod setup;

pub use corun::{run_setup, JobResult};
pub use corun_faults::{execute_with_faults, plan_jobs, FaultRunOutcome};
pub use datacenter::{run_datacenter, DatacenterConfig};
pub use metrics::{per_workload_speedups, SpeedupReport};
pub use policy::Policy;
pub use reprofile::{record_refits, Refit, Reprofiler, ReprofilerConfig};
pub use setup::{generate_setup, ClusterSetup, JobSpec, SetupConfig};
