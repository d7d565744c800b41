//! Bandwidth enforcement: the WFQ switch fabric (§5.2, §7.2).
//!
//! Every output port (link) carries a [`PortQueueConfig`]: a Service
//! Level → Virtual Lane (queue) map plus per-queue WFQ weights — the
//! exact knobs InfiniBand exposes ("a table that maps SLs with their
//! associated weights to VLs … configurable at every switch and NIC",
//! §7.2). The [`SabaFabric`] implements
//! [`saba_sim::engine::FabricModel`], flattening queue weights into
//! per-flow weights (`W_q / n_q`) for the fluid allocator; WFQ's work
//! conservation and starvation freedom follow from the allocator's
//! refill semantics.

use saba_sim::engine::{ActiveFlow, ActiveFlowViews, FabricModel, FlowNames};
use saba_sim::ids::{LinkId, ServiceLevel};
use saba_sim::sharing::{compute_rates_into, SharingScratch};
use saba_sim::topology::Topology;
use serde::{Deserialize, Serialize};

/// Queue configuration of one output port.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PortQueueConfig {
    /// SL → queue index map (16 entries, one per InfiniBand SL).
    pub sl_to_queue: [u8; ServiceLevel::COUNT],
    /// WFQ weight per queue. Length is the port's queue count; entries
    /// must be positive.
    pub weights: Vec<f64>,
}

impl Default for PortQueueConfig {
    /// A single best-effort queue: all SLs share one queue of weight 1 —
    /// per-flow max-min fairness, the state before Saba programs the
    /// port.
    fn default() -> Self {
        Self {
            sl_to_queue: [0; ServiceLevel::COUNT],
            weights: vec![1.0],
        }
    }
}

impl PortQueueConfig {
    /// Builds a config, validating invariants.
    ///
    /// # Panics
    ///
    /// Panics if `weights` is empty, a weight is not positive/finite, or
    /// an SL maps to a queue index out of range.
    pub fn new(sl_to_queue: [u8; ServiceLevel::COUNT], weights: Vec<f64>) -> Self {
        assert!(!weights.is_empty(), "a port needs at least one queue");
        for (q, &w) in weights.iter().enumerate() {
            assert!(
                w.is_finite() && w > 0.0,
                "queue {q} weight must be positive, got {w}"
            );
        }
        for (sl, &q) in sl_to_queue.iter().enumerate() {
            assert!(
                (q as usize) < weights.len(),
                "SL {sl} maps to queue {q}, but the port has {} queues",
                weights.len()
            );
        }
        Self {
            sl_to_queue,
            weights,
        }
    }

    /// Number of queues this port uses.
    pub fn num_queues(&self) -> usize {
        self.weights.len()
    }

    /// The queue serving `sl`.
    pub fn queue_of(&self, sl: ServiceLevel) -> usize {
        self.sl_to_queue[sl.value() as usize] as usize
    }
}

/// The enforcement fabric: per-port queue configurations over a
/// topology, implementing the fluid rate allocation of WFQ.
///
/// Between calls it keeps what the flattening needs — the active flows
/// per (link, SL), and every flow's flattened weights, carried forward
/// with the flow while it keeps its name ([`FlowNames`], the SL as its
/// class) — so a call counts only the flows that arrived, left or were
/// rerouted, and re-derives only the weights on links whose counts
/// moved or whose port was reprogrammed. A flow whose weights moved
/// takes a new name, so the allocator keeps every other flow prepared
/// without reading it.
#[derive(Debug, Clone)]
pub struct SabaFabric {
    ports: Vec<PortQueueConfig>,
    scratch: SharingScratch,
    caps: Vec<f64>,
    counts: Counts,
    names: FlowNames,
    /// Per hop of this call's flows, laid out as the names lay them, the
    /// flattened weight `W_q / n_q`; and the last call's.
    weights: Vec<f64>,
    last_weights: Vec<f64>,
}

/// Active flows per (link, SL) — `n_q` of a queue is the sum over the
/// SLs it serves — and the links whose counts moved or whose port was
/// reprogrammed since the weights were last derived, flagged and listed.
#[derive(Debug, Clone)]
struct Counts {
    per_sl: Vec<[u32; ServiceLevel::COUNT]>,
    stale: Vec<bool>,
    stale_links: Vec<u32>,
}

impl Counts {
    fn new(num_links: usize) -> Self {
        Self {
            per_sl: vec![[0; ServiceLevel::COUNT]; num_links],
            stale: vec![false; num_links],
            stale_links: Vec::new(),
        }
    }

    fn mark_stale(&mut self, link: LinkId) {
        if !std::mem::replace(&mut self.stale[link.0 as usize], true) {
            self.stale_links.push(link.0);
        }
    }

    /// Adds `delta` flows of `sl` to every link of `path`.
    fn add(&mut self, path: &[LinkId], sl: ServiceLevel, delta: i32) {
        for &l in path {
            let n = &mut self.per_sl[l.0 as usize][sl.value() as usize];
            *n = n.wrapping_add_signed(delta);
            self.mark_stale(l);
        }
    }

    /// `W_q / n_q` of the queue serving `sl` on `port`, link `l`.
    fn flattened_weight(&self, port: &PortQueueConfig, l: usize, sl: ServiceLevel) -> f64 {
        let q = port.queue_of(sl);
        let n: u32 = port
            .sl_to_queue
            .iter()
            .zip(&self.per_sl[l])
            .filter(|&(&queue, _)| usize::from(queue) == q)
            .map(|(_, &n)| n)
            .sum();
        port.weights[q] / f64::from(n)
    }

    fn clear_stale(&mut self) {
        for l in self.stale_links.drain(..) {
            self.stale[l as usize] = false;
        }
    }
}

impl SabaFabric {
    /// Creates a fabric with `num_links` default (single-queue) ports.
    pub fn new(num_links: usize) -> Self {
        Self::with_scratch(num_links, SharingScratch::default())
    }

    /// [`Self::new`] rating on `scratch`: the conformance differential
    /// passes a [`SharingScratch::unbundled`] one, the reference that
    /// bundling is held to.
    pub fn with_scratch(num_links: usize, scratch: SharingScratch) -> Self {
        Self {
            ports: vec![PortQueueConfig::default(); num_links],
            scratch,
            caps: Vec::new(),
            counts: Counts::new(num_links),
            names: FlowNames::default(),
            weights: Vec::new(),
            last_weights: Vec::new(),
        }
    }

    /// Creates a fabric sized for `topo`.
    pub fn for_topology(topo: &Topology) -> Self {
        Self::new(topo.num_links())
    }

    /// Number of ports (== links).
    pub fn num_ports(&self) -> usize {
        self.ports.len()
    }

    /// Reads a port's configuration.
    ///
    /// # Panics
    ///
    /// Panics if `link` is out of range.
    pub fn port(&self, link: LinkId) -> &PortQueueConfig {
        &self.ports[link.0 as usize]
    }

    /// Programs one port (a controller `enforcement` step, Fig. 7 ⑦/⑪).
    ///
    /// # Panics
    ///
    /// Panics if `link` is out of range.
    pub fn set_port(&mut self, link: LinkId, config: PortQueueConfig) {
        self.ports[link.0 as usize] = config;
        self.counts.mark_stale(link);
    }

    /// Applies a batch of controller updates.
    pub fn apply(&mut self, updates: Vec<crate::controller::SwitchUpdate>) {
        for u in updates {
            self.set_port(u.link, u.config);
        }
    }
}

impl FabricModel for SabaFabric {
    fn allocate(&mut self, topo: &Topology, flows: &[ActiveFlow], rates: &mut Vec<f64>) {
        let Self {
            ports,
            counts,
            names,
            weights,
            last_weights,
            ..
        } = self;
        names.name(flows, |i| flows[i].spec.sl.value());
        // Flows whose key went take themselves off their links' counts. A
        // flow that kept its key carries its weights forward, and any
        // other is counted afresh, its weights still to derive.
        for (path, sl) in names.left() {
            counts.add(path, ServiceLevel(sl), -1);
        }
        std::mem::swap(weights, last_weights);
        weights.clear();
        for (i, f) in flows.iter().enumerate() {
            match names.kept_hops(i) {
                Some(hops) => weights.extend_from_slice(&last_weights[hops]),
                None => {
                    counts.add(&f.path, f.spec.sl, 1);
                    weights.resize(weights.len() + f.path.len(), f64::NAN);
                }
            }
        }
        // Every hop on a stale link takes its weight anew (a new flow's
        // links all are), and a flow whose weights moved takes a new name
        // for its key.
        for (i, f) in flows.iter().enumerate() {
            let mut moved = false;
            for (h, l) in names.hops(i).zip(&f.path) {
                let l = l.0 as usize;
                if counts.stale[l] {
                    let w = counts.flattened_weight(&ports[l], l, f.spec.sl);
                    moved |= w.to_bits() != weights[h].to_bits();
                    weights[h] = w;
                }
            }
            if moved {
                names.rename(i);
            }
        }
        counts.clear_stale();

        topo.capacities_into(&mut self.caps);
        compute_rates_into(
            &self.caps,
            &ActiveFlowViews::weighted(flows, Some(&self.weights), &self.names),
            &mut self.scratch,
            rates,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use saba_sim::engine::{FlowSpec, Simulation};
    use saba_sim::ids::AppId;

    fn flow(src: usize, dst: usize, sl: u8, topo: &Topology, tag: u64) -> FlowSpec {
        let s = topo.servers();
        FlowSpec {
            src: s[src],
            dst: s[dst],
            bytes: 1000.0,
            sl: ServiceLevel(sl),
            app: AppId(sl as u32),
            tag,
            rate_cap: f64::INFINITY,
            min_rate: 0.0,
        }
    }

    #[test]
    fn default_port_is_single_queue() {
        let p = PortQueueConfig::default();
        assert_eq!(p.num_queues(), 1);
        for sl in 0..16 {
            assert_eq!(p.queue_of(ServiceLevel(sl)), 0);
        }
    }

    #[test]
    #[should_panic(expected = "maps to queue")]
    fn bad_sl_map_rejected() {
        let mut map = [0u8; 16];
        map[3] = 5;
        let _ = PortQueueConfig::new(map, vec![1.0, 1.0]);
    }

    #[test]
    #[should_panic(expected = "weight must be positive")]
    fn zero_weight_rejected() {
        let _ = PortQueueConfig::new([0; 16], vec![1.0, 0.0]);
    }

    #[test]
    fn wfq_weights_shape_rates() {
        // Two flows, SL0 and SL1, sharing a NIC; SL0's queue gets 3x weight.
        let topo = Topology::single_switch(3, 100.0);
        let mut fabric = SabaFabric::for_topology(&topo);
        let mut map = [0u8; 16];
        map[1] = 1;
        let cfg = PortQueueConfig::new(map, vec![3.0, 1.0]);
        for l in 0..topo.num_links() {
            fabric.set_port(LinkId(l as u32), cfg.clone());
        }
        let mut sim = Simulation::new(topo, fabric);
        let topo_ref = sim.topo().clone();
        sim.start_flow(flow(0, 1, 0, &topo_ref, 1));
        sim.start_flow(flow(0, 2, 1, &topo_ref, 2));
        // SL0 at 75 B/s finishes 1000 B in 13.33 s; SL1 then speeds up.
        let done = sim.run_to_idle();
        let t0 = done
            .iter()
            .find(|d| d.spec.sl == ServiceLevel(0))
            .unwrap()
            .finished;
        let t1 = done
            .iter()
            .find(|d| d.spec.sl == ServiceLevel(1))
            .unwrap()
            .finished;
        assert!((t0 - 1000.0 / 75.0).abs() < 0.05, "t0 = {t0}");
        // SL1: 13.33 s at 25 B/s -> 333 B done; 667 B at 100 B/s -> 20 s total.
        assert!((t1 - 20.0).abs() < 0.1, "t1 = {t1}");
    }

    #[test]
    fn flows_within_a_queue_share_equally() {
        let topo = Topology::single_switch(3, 100.0);
        let fabric = SabaFabric::for_topology(&topo);
        let mut sim = Simulation::new(topo, fabric);
        let topo_ref = sim.topo().clone();
        // Two same-SL flows from server 0.
        sim.start_flow(flow(0, 1, 0, &topo_ref, 1));
        sim.start_flow(flow(0, 2, 0, &topo_ref, 2));
        let done = sim.run_to_idle();
        for d in &done {
            assert!((d.finished - 20.0).abs() < 0.01, "t = {}", d.finished);
        }
    }

    #[test]
    fn work_conservation_when_queue_is_idle() {
        // SL1's queue has tiny weight but is alone on the port: it still
        // gets the full link (WFQ is work-conserving, §5.2).
        let topo = Topology::single_switch(2, 100.0);
        let mut fabric = SabaFabric::for_topology(&topo);
        let mut map = [0u8; 16];
        map[1] = 1;
        let cfg = PortQueueConfig::new(map, vec![99.0, 1.0]);
        for l in 0..topo.num_links() {
            fabric.set_port(LinkId(l as u32), cfg.clone());
        }
        let mut sim = Simulation::new(topo, fabric);
        let topo_ref = sim.topo().clone();
        sim.start_flow(flow(0, 1, 1, &topo_ref, 1));
        let done = sim.run_to_idle();
        assert!(
            (done[0].finished - 10.0).abs() < 1e-3,
            "t = {}",
            done[0].finished
        );
    }

    #[test]
    fn apply_updates_batch() {
        let mut fabric = SabaFabric::new(4);
        let cfg = PortQueueConfig::new([0; 16], vec![2.0]);
        fabric.apply(vec![
            crate::controller::SwitchUpdate {
                link: LinkId(1),
                config: cfg.clone(),
            },
            crate::controller::SwitchUpdate {
                link: LinkId(3),
                config: cfg.clone(),
            },
        ]);
        assert_eq!(fabric.port(LinkId(1)).weights, vec![2.0]);
        assert_eq!(fabric.port(LinkId(0)).weights, vec![1.0]);
    }
}
