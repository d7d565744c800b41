//! A flow-level approximation of Homa (§8.4 study 5).
//!
//! Homa is a receiver-driven transport that "prioritizes short flows to
//! achieve optimal flow-level completion time" using the switches'
//! priority queues. The behaviours that matter at job-completion
//! granularity, and which this model keeps:
//!
//! - **Size-based priorities**: flows are mapped onto 8 priority
//!   classes by *remaining* bytes (SRPT-style). Per §8.4, "Homa assigns
//!   all flows longer than a certain size (10 KB) to the same priority
//!   queue, without differentiating their associated workloads" — so
//!   every bulk flow of the paper's workloads shares the lowest class
//!   and application sensitivity is invisible to it.
//! - **Receiver-driven overcommitment**: Homa keeps several senders
//!   granted simultaneously to hide RTT; under high incast degree some
//!   granted packets are wasted, costing a small amount of goodput.
//!   Modeled as a receiver-downlink efficiency `1/(1 + γ·(m−1))` for
//!   `m` concurrent senders to one receiver, which is why Homa lands
//!   slightly *below* ideal max-min on bulk workloads (1.12× vs 1.14×
//!   in Fig. 10).

use saba_sim::engine::{ActiveFlow, FabricModel, FlowRater};
use saba_sim::ids::NodeId;
use saba_sim::topology::Topology;
use std::collections::HashMap;

/// Homa model configuration.
#[derive(Debug, Clone)]
pub struct HomaConfig {
    /// Priority-class size cutoffs in bytes, ascending; a flow with
    /// remaining bytes ≤ `cutoffs[i]` gets class `i`. Anything above
    /// the last cutoff gets the lowest class. Default mirrors the
    /// §8.4 setup: everything over 10 KB shares one queue.
    pub cutoffs: Vec<f64>,
    /// Overcommitment goodput penalty per extra concurrent sender at a
    /// receiver.
    pub overcommit_gamma: f64,
}

impl Default for HomaConfig {
    fn default() -> Self {
        Self {
            // 7 unscheduled classes for short flows, lowest class for
            // everything over 10 KB.
            cutoffs: vec![300.0, 800.0, 1_500.0, 3_000.0, 5_000.0, 7_500.0, 10_000.0],
            overcommit_gamma: 0.002,
        }
    }
}

impl HomaConfig {
    /// Priority class (0 = highest) for a flow with `remaining` bytes.
    pub fn class_of(&self, remaining: f64) -> u8 {
        for (i, &cut) in self.cutoffs.iter().enumerate() {
            if remaining <= cut {
                return i as u8;
            }
        }
        self.cutoffs.len() as u8
    }
}

/// The Homa comparator fabric.
#[derive(Debug, Clone, Default)]
pub struct HomaFabric {
    /// Model configuration.
    pub config: HomaConfig,
    rater: FlowRater,
    priorities: Vec<u8>,
    senders_at: HashMap<NodeId, usize>,
}

impl HomaFabric {
    /// Creates a fabric with the given configuration.
    pub fn new(config: HomaConfig) -> Self {
        Self {
            config,
            ..Self::default()
        }
    }
}

impl FabricModel for HomaFabric {
    fn allocate(&mut self, topo: &Topology, flows: &[ActiveFlow], rates: &mut Vec<f64>) {
        // SRPT-style classes depend on remaining bytes, so they are
        // recomputed (into a reused buffer) every epoch.
        self.priorities.clear();
        self.priorities
            .extend(flows.iter().map(|f| self.config.class_of(f.remaining)));
        self.rater.rate(topo, flows, Some(&self.priorities), rates);

        // Overcommitment waste at receivers with many concurrent senders.
        if self.config.overcommit_gamma > 0.0 {
            let senders_at = &mut self.senders_at;
            senders_at.clear();
            for f in flows {
                if !f.path.is_empty() {
                    *senders_at.entry(f.spec.dst).or_insert(0) += 1;
                }
            }
            for (f, r) in flows.iter().zip(rates.iter_mut()) {
                if f.path.is_empty() {
                    continue;
                }
                let m = senders_at.get(&f.spec.dst).copied().unwrap_or(1);
                if m > 1 {
                    *r /= 1.0 + self.config.overcommit_gamma * (m as f64 - 1.0);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use saba_sim::engine::{FlowSpec, Simulation};
    use saba_sim::ids::{AppId, ServiceLevel};

    fn spec(src: NodeId, dst: NodeId, bytes: f64, tag: u64) -> FlowSpec {
        FlowSpec {
            src,
            dst,
            bytes,
            sl: ServiceLevel(0),
            app: AppId(0),
            tag,
            rate_cap: f64::INFINITY,
            min_rate: 0.0,
        }
    }

    #[test]
    fn class_cutoffs_are_srpt_like() {
        let c = HomaConfig::default();
        assert_eq!(c.class_of(100.0), 0);
        assert_eq!(c.class_of(1_000.0), 2);
        assert_eq!(c.class_of(10_000.0), 6);
        assert_eq!(c.class_of(10_001.0), 7);
        assert_eq!(c.class_of(1e9), 7);
    }

    #[test]
    fn short_flow_preempts_long_flow() {
        // A 1 MB bulk flow and a 5 KB short flow share a NIC; the short
        // flow must finish at (almost exactly) its solo time.
        let topo = Topology::single_switch(3, 1000.0);
        let mut sim = Simulation::new(topo, HomaFabric::default());
        let s = sim.topo().servers().to_vec();
        sim.start_flow(spec(s[0], s[1], 1_000_000.0, 1));
        sim.start_flow(spec(s[0], s[2], 5_000.0, 2));
        let done = sim.run_to_idle();
        let short = done.iter().find(|d| d.spec.tag == 2).unwrap();
        // Solo time 5 s, plus the tiny overcommit penalty.
        assert!(short.finished < 5.1, "short finished at {}", short.finished);
    }

    #[test]
    fn bulk_flows_share_the_lowest_class_equally() {
        let topo = Topology::single_switch(3, 100.0);
        let mut sim = Simulation::new(
            topo,
            HomaFabric::new(HomaConfig {
                overcommit_gamma: 0.0,
                ..Default::default()
            }),
        );
        let s = sim.topo().servers().to_vec();
        sim.start_flow(spec(s[0], s[1], 100_000.0, 1));
        sim.start_flow(spec(s[0], s[2], 100_000.0, 2));
        let done = sim.run_to_idle();
        let times: Vec<f64> = done.iter().map(|d| d.finished).collect();
        // Both bulk: near-equal sharing until the SRPT tail, so both
        // complete at ≈2000 s.
        for t in &times {
            assert!((t - 2000.0).abs() / 2000.0 < 0.02, "{t}");
        }
    }

    #[test]
    fn incast_costs_goodput() {
        let run = |gamma: f64| {
            let topo = Topology::single_switch(5, 100.0);
            let mut sim = Simulation::new(
                topo,
                HomaFabric::new(HomaConfig {
                    overcommit_gamma: gamma,
                    ..Default::default()
                }),
            );
            let s = sim.topo().servers().to_vec();
            // 4-to-1 incast.
            for i in 1..5 {
                sim.start_flow(spec(s[i], s[0], 50_000.0, i as u64));
            }
            sim.run_to_idle()
                .iter()
                .map(|d| d.finished)
                .fold(0.0, f64::max)
        };
        assert!(run(0.01) > run(0.0) * 1.01);
    }
}
