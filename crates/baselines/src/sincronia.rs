//! Sincronia, the clairvoyant coflow scheduler (§8.4 study 6).
//!
//! Sincronia orders all unfinished coflows with the **BSSI**
//! (Bottleneck-Select-Scale-Iterate) primal-dual greedy of Agarwal et
//! al. [SIGCOMM'18]: repeatedly pick the most-bottlenecked port and
//! place the coflow with the largest remaining bytes on that port
//! *last*; then simply assign flow priorities by coflow order and let a
//! priority-enabled transport enforce them. Sincronia is clairvoyant —
//! it "requires flow sizes to be known a priori" — which our simulator
//! grants it for free (remaining bytes are exact).
//!
//! Coflows here are one per application: the paper's workloads run one
//! bulk-synchronous stage at a time, so an application's concurrently
//! active flows form exactly one coflow.

use saba_sim::engine::{ActiveFlow, FabricModel, FlowRater};
use saba_sim::ids::AppId;
use saba_sim::topology::Topology;
use std::collections::HashMap;
use std::hash::Hash;

/// BSSI ordering over active coflows, where a flow's coflow is
/// whatever `coflow_of` extracts from it: repeatedly pick the
/// most-bottlenecked port and place the coflow with the largest
/// remaining bytes on it *last*. Returns each coflow's rank, 0 =
/// scheduled first (highest priority).
///
/// [`SincroniaFabric`] keys by application (one coflow per app);
/// [`crate::coflow::CoflowSincroniaFabric`] keys by `(app, coflow
/// id)`, recovering the paper's per-coflow granularity when one app
/// runs several coflows concurrently.
pub(crate) fn bssi_order_by<K, F>(flows: &[ActiveFlow], coflow_of: F) -> HashMap<K, usize>
where
    K: Copy + Eq + Hash,
    F: Fn(&ActiveFlow) -> K,
{
    // Per-port remaining load per coflow.
    let mut load: HashMap<u32, HashMap<K, f64>> = HashMap::new();
    let mut coflows: Vec<K> = Vec::new();
    for f in flows {
        let c = coflow_of(f);
        if !coflows.contains(&c) {
            coflows.push(c);
        }
        for &l in &f.path {
            *load.entry(l.0).or_default().entry(c).or_insert(0.0) += f.remaining;
        }
    }
    let n = coflows.len();
    let mut rank: HashMap<K, usize> = HashMap::new();
    let mut unplaced = coflows;
    // Place from last to first.
    for place in (0..n).rev() {
        // The most-bottlenecked port w.r.t. unplaced coflows.
        let bottleneck = load
            .iter()
            .map(|(l, per)| {
                let total: f64 = per
                    .iter()
                    .filter(|(c, _)| unplaced.contains(c))
                    .map(|(_, b)| b)
                    .sum();
                (*l, total)
            })
            .max_by(|a, b| a.1.partial_cmp(&b.1).expect("finite loads"))
            .map(|(l, _)| l);
        let chosen = match bottleneck {
            Some(l) => {
                let per = &load[&l];
                unplaced
                    .iter()
                    .copied()
                    .max_by(|a, b| {
                        let la = per.get(a).copied().unwrap_or(0.0);
                        let lb = per.get(b).copied().unwrap_or(0.0);
                        la.partial_cmp(&lb).expect("finite loads")
                    })
                    .expect("unplaced is non-empty")
            }
            None => *unplaced.last().expect("unplaced is non-empty"),
        };
        rank.insert(chosen, place);
        unplaced.retain(|c| *c != chosen);
    }
    rank
}

/// The Sincronia comparator fabric.
#[derive(Debug, Clone, Default)]
pub struct SincroniaFabric {
    /// Number of priority classes the transport exposes (8 queues on
    /// datacenter switches; 0 disables capping). Coflow ranks beyond
    /// this share the lowest class.
    pub priority_classes: u8,
    rater: FlowRater,
    priorities: Vec<u8>,
}

impl SincroniaFabric {
    /// Creates a Sincronia fabric with 8 priority classes.
    pub fn new() -> Self {
        Self {
            priority_classes: 8,
            ..Self::default()
        }
    }

    /// BSSI ordering over the active coflows (one per application).
    /// Returns each coflow's rank, 0 = scheduled first (highest
    /// priority).
    fn bssi_order(_topo: &Topology, flows: &[ActiveFlow]) -> HashMap<AppId, usize> {
        bssi_order_by(flows, |f| f.spec.app)
    }
}

impl FabricModel for SincroniaFabric {
    fn allocate(&mut self, topo: &Topology, flows: &[ActiveFlow], rates: &mut Vec<f64>) {
        let rank = Self::bssi_order(topo, flows);
        let cap = if self.priority_classes == 0 {
            u8::MAX
        } else {
            self.priority_classes - 1
        };
        self.priorities.clear();
        self.priorities
            .extend(flows.iter().map(|f| (rank[&f.spec.app] as u8).min(cap)));
        self.rater.rate(topo, flows, Some(&self.priorities), rates);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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

    #[test]
    fn smaller_coflow_is_scheduled_first() {
        // Two coflows on one NIC: A needs 100 B, B needs 10 000 B.
        // Sincronia (SRPT at coflow granularity) runs A first: A's CCT is
        // its solo time, B barely delayed.
        let topo = Topology::single_switch(3, 100.0);
        let mut sim = Simulation::new(topo, SincroniaFabric::new());
        let s = sim.topo().servers().to_vec();
        sim.start_flow(spec(s[0], s[1], 100.0, 0, 1));
        sim.start_flow(spec(s[0], s[2], 10_000.0, 1, 2));
        let done = sim.run_to_idle();
        let a = done.iter().find(|d| d.spec.app == AppId(0)).unwrap();
        let b = done.iter().find(|d| d.spec.app == AppId(1)).unwrap();
        assert!((a.finished - 1.0).abs() < 1e-3, "A at {}", a.finished);
        assert!((b.finished - 101.0).abs() < 0.1, "B at {}", b.finished);
    }

    #[test]
    fn average_coflow_completion_beats_fair_sharing() {
        let run_fair = || {
            let topo = Topology::single_switch(3, 100.0);
            let mut sim = Simulation::new(topo, crate::ideal::IdealMaxMin::default());
            let s = sim.topo().servers().to_vec();
            sim.start_flow(spec(s[0], s[1], 5_000.0, 0, 1));
            sim.start_flow(spec(s[0], s[2], 5_000.0, 1, 2));
            let done = sim.run_to_idle();
            done.iter().map(|d| d.finished).sum::<f64>() / 2.0
        };
        let run_sincronia = || {
            let topo = Topology::single_switch(3, 100.0);
            let mut sim = Simulation::new(topo, SincroniaFabric::new());
            let s = sim.topo().servers().to_vec();
            sim.start_flow(spec(s[0], s[1], 5_000.0, 0, 1));
            sim.start_flow(spec(s[0], s[2], 5_000.0, 1, 2));
            let done = sim.run_to_idle();
            done.iter().map(|d| d.finished).sum::<f64>() / 2.0
        };
        // Fair: both at 100 s (avg 100). Serial: 50 and 100 (avg 75).
        assert!(run_sincronia() < run_fair() - 10.0);
    }

    #[test]
    fn coflows_of_one_app_share_a_rank() {
        let topo = Topology::single_switch(4, 100.0);
        let flows = [
            spec(topo.servers()[0], topo.servers()[1], 500.0, 7, 1),
            spec(topo.servers()[2], topo.servers()[3], 700.0, 7, 2),
            spec(topo.servers()[0], topo.servers()[2], 900.0, 9, 3),
        ];
        let active: Vec<ActiveFlow> = flows
            .iter()
            .enumerate()
            .map(|(i, f)| ActiveFlow {
                id: saba_sim::ids::FlowId(i as u64),
                spec: f.clone(),
                path: vec![],
                remaining: f.bytes,
                started: 0.0,
            })
            .collect();
        let rank = SincroniaFabric::bssi_order(&topo, &active);
        assert_eq!(rank.len(), 2);
        assert!(rank.contains_key(&AppId(7)));
        assert!(rank.contains_key(&AppId(9)));
    }

    #[test]
    fn rank_capped_by_priority_classes() {
        // 12 coflows but only 8 classes: allocation must still work and
        // the lowest class absorbs the tail.
        let topo = Topology::single_switch(13, 100.0);
        let mut sim = Simulation::new(topo, SincroniaFabric::new());
        let s = sim.topo().servers().to_vec();
        for i in 0..12 {
            sim.start_flow(spec(
                s[i],
                s[12],
                1000.0 * (i as f64 + 1.0),
                i as u32,
                i as u64,
            ));
        }
        let done = sim.run_to_idle();
        assert_eq!(done.len(), 12);
    }
}
