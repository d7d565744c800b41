//! A fabric model carries its prepared problem from one allocation
//! epoch to the next — the flows per (link, SL) and their flattened
//! weights in `SabaFabric`, the bundles, hops and link lists in the
//! sharing scratch — and re-derives only what changed. The contract is
//! that this is invisible: at every epoch of a churned run, the model
//! rates the active flows exactly as a fresh model with the same ports
//! and an empty scratch rates them, bit for bit.
//!
//! The churn is a seeded random run of the engine that covers every way
//! the active slice or the ports move: arrivals (bursts of identical
//! flows, so bundles form and completions batch), completions removed in
//! `swap_remove` order, port reprogramming through `apply` (with ports
//! set back to their default), link failures that reroute and park
//! flows, repairs that resume them, link degradation — and one model
//! reused by a second `Simulation`, whose `FlowId`s restart at 0 on
//! different paths. A third model draws every flow's priority class
//! afresh at every epoch, as Homa's and Sincronia's do, so flows keep
//! their path and cap while their class moves.

use saba_core::controller::SwitchUpdate;
use saba_core::fabric::{PortQueueConfig, SabaFabric};
use saba_sim::engine::{
    ActiveFlow, ActiveFlowViews, Event, FabricModel, FairShareFabric, FlowNames, FlowSpec,
    Simulation,
};
use saba_sim::ids::{AppId, LinkId, ServiceLevel};
use saba_sim::sharing::{compute_rates_into, SharingScratch};
use saba_sim::topology::{SpineLeafConfig, Topology};
use std::collections::HashMap;

/// The unit tests' LCG: deterministic draws without a crate.
struct Lcg(u64);

impl Lcg {
    fn next(&mut self) -> usize {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (self.0 >> 33) as usize
    }

    /// A draw in `[lo, hi)` on a 1/1024 grid.
    fn real(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * (self.next() % 1024) as f64 / 1024.0
    }
}

/// A model that can be rebuilt fresh — same configuration, nothing
/// carried over — and whose ports, if it has any, can be reprogrammed.
trait Churned: FabricModel {
    fn fresh(&self) -> Self;
    /// Reprograms a few ports; returns how many went back to default.
    fn reprogram(&mut self, rng: &mut Lcg) -> usize;
}

impl Churned for SabaFabric {
    fn fresh(&self) -> Self {
        let mut fresh = SabaFabric::new(self.num_ports());
        for l in 0..self.num_ports() as u32 {
            fresh.set_port(LinkId(l), self.port(LinkId(l)).clone());
        }
        fresh
    }

    fn reprogram(&mut self, rng: &mut Lcg) -> usize {
        let mut defaults = 0;
        let updates = (0..1 + rng.next() % 6)
            .map(|_| {
                let link = LinkId((rng.next() % self.num_ports()) as u32);
                let config = if rng.next().is_multiple_of(4) {
                    defaults += 1;
                    PortQueueConfig::default()
                } else {
                    let queues = 1 + rng.next() % 4;
                    let weights = (0..queues).map(|_| rng.real(0.05, 4.0)).collect();
                    let mut map = [0u8; ServiceLevel::COUNT];
                    for q in &mut map {
                        *q = (rng.next() % queues) as u8;
                    }
                    PortQueueConfig::new(map, weights)
                };
                SwitchUpdate { link, config }
            })
            .collect();
        self.apply(updates);
        defaults
    }
}

impl Churned for FairShareFabric {
    fn fresh(&self) -> Self {
        FairShareFabric::default()
    }

    fn reprogram(&mut self, _rng: &mut Lcg) -> usize {
        0
    }
}

/// Strict priorities redrawn at every epoch: a flow's class is a hash of
/// its id and its remaining bytes, which move at every epoch but stay
/// the same for a fresh model rating the same flows. It counts the flows
/// that kept their id from one epoch to the next but not their class.
#[derive(Default)]
struct Reclassed {
    scratch: SharingScratch,
    names: FlowNames,
    caps: Vec<f64>,
    priorities: Vec<u8>,
    last_class: HashMap<u64, u8>,
    moved: usize,
}

impl FabricModel for Reclassed {
    fn allocate(&mut self, topo: &Topology, flows: &[ActiveFlow], rates: &mut Vec<f64>) {
        self.priorities.clear();
        self.priorities.extend(flows.iter().map(|f| {
            let mut rng = Lcg(f.id.0 ^ f.remaining.to_bits());
            (rng.next() % 3) as u8
        }));
        for (f, &class) in flows.iter().zip(&self.priorities) {
            let last = self.last_class.insert(f.id.0, class);
            self.moved += usize::from(last.is_some_and(|c| c != class));
        }
        topo.capacities_into(&mut self.caps);
        compute_rates_into(
            &self.caps,
            &ActiveFlowViews::with_priorities(flows, &self.priorities, &mut self.names),
            &mut self.scratch,
            rates,
        );
    }
}

impl Churned for Reclassed {
    fn fresh(&self) -> Self {
        Self::default()
    }

    fn reprogram(&mut self, _rng: &mut Lcg) -> usize {
        0
    }
}

/// A model under test and what its churn went through.
struct Rig<M> {
    model: M,
    cov: Coverage,
    /// The flows of the last epoch, to see a new simulation's ids meet
    /// them.
    last: Vec<ActiveFlow>,
}

/// A simulation's hold on the rig: every epoch is checked against a
/// fresh copy of the model.
struct Checked<'a, M> {
    rig: &'a mut Rig<M>,
    first_epoch: bool,
}

impl<M: Churned> FabricModel for Checked<'_, M> {
    fn allocate(&mut self, topo: &Topology, flows: &[ActiveFlow], rates: &mut Vec<f64>) {
        let Rig { model, cov, last } = &mut *self.rig;
        model.allocate(topo, flows, rates);
        let mut fresh = Vec::new();
        model.fresh().allocate(topo, flows, &mut fresh);
        let bits = |r: &[f64]| r.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(
            bits(rates),
            bits(&fresh),
            "epoch {}: {} flows rated apart from a fresh model",
            cov.epochs,
            flows.len()
        );
        if std::mem::take(&mut self.first_epoch) {
            for f in flows {
                if let Some(old) = last.iter().find(|old| old.id == f.id) {
                    if old.path != f.path {
                        cov.ids_met_on_new_paths += 1;
                    } else if old.spec.rate_cap != f.spec.rate_cap {
                        cov.ids_met_with_new_caps += 1;
                    }
                }
            }
        }
        last.clear();
        last.extend_from_slice(flows);
        cov.epochs += 1;
        cov.flows_rated += flows.len();
    }
}

/// What a churned run went through.
#[derive(Debug, Default)]
struct Coverage {
    epochs: usize,
    flows_rated: usize,
    arrivals: u64,
    batched_completions: usize,
    reprogrammed: usize,
    set_to_default: usize,
    rerouted: u64,
    parked: u64,
    resumed: u64,
    degraded: usize,
    /// Flows of a new simulation whose `FlowId` the model still held
    /// for a flow of the last one, on another path or with another cap.
    ids_met_on_new_paths: usize,
    ids_met_with_new_caps: usize,
}

/// One simulation of `steps` churn steps over the rig's model, its
/// finite caps scaled by `cap_scale`; dropped with its flows active.
fn churn<M: Churned>(rig: &mut Rig<M>, seed: u64, steps: usize, cap_scale: f64) {
    let topo = Topology::spine_leaf(&SpineLeafConfig::tiny(4));
    let servers = topo.servers().to_vec();
    let num_links = topo.num_links();
    let checked = Checked {
        rig,
        first_epoch: true,
    };
    let mut sim = Simulation::new(topo, checked);
    let mut rng = Lcg(seed);
    let mut failed: Vec<LinkId> = Vec::new();
    let (mut batched, mut reprogrammed, mut set_to_default, mut degraded) = (0, 0, 0, 0);
    for step in 0..steps {
        match rng.next() % 10 {
            // A burst of identical transfers from one server.
            0..=3 => {
                let src = servers[rng.next() % servers.len()];
                let dst = servers[rng.next() % servers.len()];
                let sl = ServiceLevel((rng.next() % 4) as u8);
                let bytes = (1 + rng.next() % 8) as f64 * 1e7;
                let rate_cap = match rng.next() % 4 {
                    0 => rng.real(1e8, 4e9) * cap_scale,
                    _ => f64::INFINITY,
                };
                let tag = rng.next() as u64;
                for _ in 0..1 + rng.next() % 3 {
                    sim.start_flow(FlowSpec {
                        src,
                        dst,
                        bytes,
                        sl,
                        app: AppId(u32::from(sl.value())),
                        tag,
                        rate_cap,
                        min_rate: 0.0,
                    });
                }
            }
            4 | 5 => {
                set_to_default += sim.model_mut().rig.model.reprogram(&mut rng);
                reprogrammed += 1;
            }
            6 if failed.len() < 2 => {
                let link = LinkId((rng.next() % num_links) as u32);
                if !failed.contains(&link) {
                    sim.fail_link(link);
                    failed.push(link);
                }
            }
            6 | 7 if !failed.is_empty() => {
                let link = failed.swap_remove(rng.next() % failed.len());
                sim.restore_link(link);
            }
            8 => {
                let link = LinkId((rng.next() % num_links) as u32);
                let fraction = if rng.next().is_multiple_of(3) {
                    1.0
                } else {
                    rng.real(0.25, 1.0)
                };
                sim.degrade_link(link, fraction);
                degraded += 1;
            }
            _ => {}
        }
        // Run a millisecond: every completion batch on the way is an epoch.
        sim.schedule(sim.now() + 1e-3, step as u64);
        loop {
            match sim.next_event() {
                Event::Timer { .. } => break,
                Event::FlowsCompleted { flows, .. } => batched += usize::from(flows.len() > 1),
                Event::Idle => unreachable!("the step's timer is pending"),
            }
        }
    }
    let stats = sim.stats();
    let cov = &mut sim.model_mut().rig.cov;
    cov.arrivals += stats.flows_started;
    cov.batched_completions += batched;
    cov.reprogrammed += reprogrammed;
    cov.set_to_default += set_to_default;
    cov.rerouted += stats.flows_rerouted;
    cov.parked += stats.flows_parked;
    cov.resumed += stats.flows_resumed;
    cov.degraded += degraded;
}

/// One model through many simulations: a long one, then short ones
/// whose `FlowId`s restart at 0 while the model still holds the last
/// one's low ids — on another seed's paths, or on the same paths with
/// other caps — and a long one again.
fn churn_many<M: Churned>(model: M, seed: u64) -> (Coverage, M) {
    let mut rig = Rig {
        model,
        cov: Coverage::default(),
        last: Vec::new(),
    };
    churn(&mut rig, seed, 300, 1.0);
    for k in 0..30 {
        let steps = 4 + (k % 3) as usize;
        churn(&mut rig, seed + k, steps, 1.0);
        churn(&mut rig, seed + k, steps, 0.5);
    }
    churn(&mut rig, seed ^ 0x9e37_79b9, 300, 1.0);
    (rig.cov, rig.model)
}

#[test]
fn a_churned_saba_fabric_rates_every_epoch_as_a_fresh_one() {
    let topo = Topology::spine_leaf(&SpineLeafConfig::tiny(4));
    for seed in [1, 2, 3] {
        let (cov, _) = churn_many(SabaFabric::for_topology(&topo), seed);
        assert!(
            cov.epochs > 600 && cov.flows_rated > 20 * cov.epochs,
            "{cov:?}"
        );
        assert!(
            cov.arrivals > 300 && cov.batched_completions > 20,
            "{cov:?}"
        );
        assert!(cov.reprogrammed > 50 && cov.set_to_default > 10, "{cov:?}");
        assert!(
            cov.rerouted > 0 && cov.parked > 0 && cov.resumed > 0,
            "{cov:?}"
        );
        assert!(cov.degraded > 20, "{cov:?}");
        assert!(
            cov.ids_met_on_new_paths > 0 && cov.ids_met_with_new_caps > 0,
            "{cov:?}"
        );
    }
}

#[test]
fn a_churned_fair_share_fabric_rates_every_epoch_as_a_fresh_one() {
    for seed in [4, 5, 6] {
        let (cov, _) = churn_many(FairShareFabric::default(), seed);
        assert!(
            cov.epochs > 600 && cov.flows_rated > 20 * cov.epochs,
            "{cov:?}"
        );
        assert!(
            cov.arrivals > 300 && cov.batched_completions > 20,
            "{cov:?}"
        );
        assert!(
            cov.rerouted > 0 && cov.parked > 0 && cov.resumed > 0,
            "{cov:?}"
        );
        assert!(cov.ids_met_on_new_paths > 0, "{cov:?}");
    }
}

#[test]
fn a_churned_fabric_with_per_epoch_priorities_rates_every_epoch_as_a_fresh_one() {
    for seed in [7, 8, 9] {
        let (cov, model) = churn_many(Reclassed::default(), seed);
        assert!(
            cov.epochs > 600 && cov.flows_rated > 20 * cov.epochs,
            "{cov:?}"
        );
        assert!(
            cov.rerouted > 0 && cov.parked > 0 && cov.resumed > 0,
            "{cov:?}"
        );
        assert!(cov.ids_met_on_new_paths > 0, "{cov:?}");
        assert!(
            model.moved > cov.flows_rated / 10,
            "{} moved, {cov:?}",
            model.moved
        );
    }
}
