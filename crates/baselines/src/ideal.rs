//! Ideal per-flow max-min fairness (§8.4 study 4).
//!
//! "In the ideal implementation of max-min fairness, each workload is
//! assigned to a dedicated queue, and packets from queues are serviced
//! using the Round-Robin algorithm. … it achieves the upper bound of
//! max-min fairness [Hahne]." In the fluid model, round-robin over
//! per-flow queues with equal packet sizes *is* equal-weight
//! progressive filling, so this policy is exact.

use saba_sim::engine::FairShareFabric;

/// The idealized max-min fairness comparator: per-flow max-min over the
/// fabric, which is what the engine's [`FairShareFabric`] computes.
pub type IdealMaxMin = FairShareFabric;

#[cfg(test)]
mod tests {
    use super::*;
    use saba_sim::engine::{FlowSpec, Simulation};
    use saba_sim::ids::{AppId, ServiceLevel};
    use saba_sim::topology::Topology;

    #[test]
    fn equal_split_regardless_of_app_or_sl() {
        let topo = Topology::single_switch(3, 100.0);
        let mut sim = Simulation::new(topo, IdealMaxMin::default());
        let s = sim.topo().servers().to_vec();
        for (i, &dst) in [s[1], s[2]].iter().enumerate() {
            sim.start_flow(FlowSpec {
                src: s[0],
                dst,
                bytes: 1000.0,
                sl: ServiceLevel(i as u8),
                app: AppId(i as u32),
                tag: i as u64,
                rate_cap: f64::INFINITY,
                min_rate: 0.0,
            });
        }
        let done = sim.run_to_idle();
        // Both share the NIC equally: 20 s each.
        for d in &done {
            assert!((d.finished - 20.0).abs() < 0.01, "{}", d.finished);
        }
    }
}
