//! Coflow-granular Sincronia: BSSI at true coflow granularity.
//!
//! [`crate::sincronia::SincroniaFabric`] approximates a coflow as "an
//! application's concurrently active flows" — exact for the paper's
//! bulk-synchronous workloads, which run one stage at a time, but
//! wrong the moment one application keeps several coflows in flight
//! (e.g. pipelined stages, or a framework multiplexing independent
//! shuffles). This fabric keys BSSI by `(app, coflow id)` instead,
//! where the coflow id travels in the high bits of the flow tag per
//! the [`saba_workload::coflow::CoflowSpec::tag_for`] encoding, so
//! each flow group is selected, scaled, and iterated as its own
//! coflow — the granularity of Agarwal et al. [SIGCOMM'18].
//!
//! With one coflow per app the two fabrics order identically (the key
//! refinement collapses), which the conformance differential pins;
//! the hand-solved fixtures then demonstrate the divergence when one
//! app carries two coflows of different sizes.

use crate::sincronia::bssi_order_by;
use saba_sim::engine::{ActiveFlow, FabricModel, FlowRater};
use saba_sim::ids::AppId;
use saba_sim::topology::Topology;

/// Number of low tag bits carrying the constituent index; bits above
/// identify the coflow. Matches
/// [`saba_workload::coflow::COFLOW_TAG_SHIFT`] without taking a
/// dependency on the workload crate.
pub const TAG_SHIFT: u32 = 32;

/// A coflow's identity: owning application plus the tag-high coflow
/// id.
pub type CoflowKey = (AppId, u64);

/// The coflow-granular Sincronia comparator fabric.
#[derive(Debug, Clone, Default)]
pub struct CoflowSincroniaFabric {
    /// Number of priority classes the transport exposes (8 queues on
    /// datacenter switches; 0 disables capping). Coflow ranks beyond
    /// this share the lowest class.
    pub priority_classes: u8,
    rater: FlowRater,
    priorities: Vec<u8>,
}

impl CoflowSincroniaFabric {
    /// Creates a coflow-granular Sincronia fabric with 8 priority
    /// classes.
    pub fn new() -> Self {
        Self {
            priority_classes: 8,
            ..Self::default()
        }
    }

    /// The coflow a flow belongs to.
    pub fn coflow_key(f: &ActiveFlow) -> CoflowKey {
        (f.spec.app, f.spec.tag >> TAG_SHIFT)
    }
}

impl FabricModel for CoflowSincroniaFabric {
    fn allocate(&mut self, topo: &Topology, flows: &[ActiveFlow], rates: &mut Vec<f64>) {
        let rank = bssi_order_by(flows, Self::coflow_key);
        let cap = if self.priority_classes == 0 {
            u8::MAX
        } else {
            self.priority_classes - 1
        };
        self.priorities.clear();
        self.priorities.extend(
            flows
                .iter()
                .map(|f| (rank[&Self::coflow_key(f)] as u8).min(cap)),
        );
        self.rater.rate(topo, flows, Some(&self.priorities), rates);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sincronia::SincroniaFabric;
    use saba_sim::engine::{FlowSpec, Simulation};
    use saba_sim::ids::{NodeId, ServiceLevel};

    fn spec(src: NodeId, dst: NodeId, bytes: f64, app: u32, tag: u64) -> FlowSpec {
        FlowSpec {
            src,
            dst,
            bytes,
            sl: ServiceLevel(0),
            app: AppId(app),
            tag,
            rate_cap: f64::INFINITY,
            min_rate: 0.0,
        }
    }

    /// Tag for coflow `c`, constituent `k`.
    fn tag(c: u64, k: u64) -> u64 {
        (c << TAG_SHIFT) | k
    }

    #[test]
    fn two_coflows_of_one_app_are_serialized_srpt_style() {
        // One app, two coflows on the same NIC: a 100 B coflow and a
        // 10 000 B coflow. Per-app Sincronia fair-shares them (one
        // rank); coflow-granular Sincronia runs the small one first.
        let topo = Topology::single_switch(3, 100.0);
        let mut sim = Simulation::new(topo, CoflowSincroniaFabric::new());
        let s = sim.topo().servers().to_vec();
        sim.start_flow(spec(s[0], s[1], 100.0, 0, tag(0, 0)));
        sim.start_flow(spec(s[0], s[2], 10_000.0, 0, tag(1, 0)));
        let done = sim.run_to_idle();
        let small = done.iter().find(|d| d.spec.tag == tag(0, 0)).unwrap();
        let big = done.iter().find(|d| d.spec.tag == tag(1, 0)).unwrap();
        assert!(
            (small.finished - 1.0).abs() < 1e-3,
            "small CCT {}",
            small.finished
        );
        assert!(
            (big.finished - 101.0).abs() < 0.1,
            "big CCT {}",
            big.finished
        );
    }

    #[test]
    fn per_app_fabric_cannot_separate_them() {
        // The same scenario under the app-granular approximation: both
        // flows share one coflow rank, so they fair-share the NIC and
        // the small transfer finishes at ~2 s, not ~1 s.
        let topo = Topology::single_switch(3, 100.0);
        let mut sim = Simulation::new(topo, SincroniaFabric::new());
        let s = sim.topo().servers().to_vec();
        sim.start_flow(spec(s[0], s[1], 100.0, 0, tag(0, 0)));
        sim.start_flow(spec(s[0], s[2], 10_000.0, 0, tag(1, 0)));
        let done = sim.run_to_idle();
        let small = done.iter().find(|d| d.spec.tag == tag(0, 0)).unwrap();
        assert!(
            small.finished > 1.5,
            "fair-shared small at {}",
            small.finished
        );
    }

    #[test]
    fn collapses_to_per_app_with_one_coflow_per_app() {
        // Two apps, one coflow each: the refinement is the identity and
        // both fabrics must produce the same completion order/times.
        fn run<M: FabricModel>(fabric: M) -> Vec<(u64, f64)> {
            let topo = Topology::single_switch(4, 100.0);
            let mut sim = Simulation::new(topo, fabric);
            let s = sim.topo().servers().to_vec();
            sim.start_flow(spec(s[0], s[1], 3_000.0, 0, tag(0, 0)));
            sim.start_flow(spec(s[0], s[2], 500.0, 1, tag(0, 0)));
            sim.start_flow(spec(s[3], s[2], 1_500.0, 1, tag(0, 1)));
            let mut done = sim.run_to_idle();
            done.sort_by_key(|a| (a.spec.app.0, a.spec.tag));
            done.iter().map(|d| (d.spec.tag, d.finished)).collect()
        }
        let a = run(CoflowSincroniaFabric::new());
        let b = run(SincroniaFabric::new());
        assert_eq!(a.len(), b.len());
        for ((ta, fa), (tb, fb)) in a.iter().zip(&b) {
            assert_eq!(ta, tb);
            assert!((fa - fb).abs() < 1e-9, "tag {ta}: {fa} vs {fb}");
        }
    }
}
