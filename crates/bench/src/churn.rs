//! Shared scenario builder for the churn-epoch benchmarks: the §8.1
//! spine-leaf fabric (1,944 servers) under steady-state connection
//! churn, used by `benches/churn_epoch.rs` and `src/bin/churn.rs`.
//!
//! The measured quantity is *epoch latency*: how long the controller
//! takes to restore correct per-port allocations after a batch of
//! connection events. The incremental controller handles each event by
//! touching only the ports whose application set changed; the
//! from-scratch comparison rebuilds every Saba-carrying port the way a
//! periodic full recompute (the Fig. 12 overhead model) would.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use saba_core::controller::central::CentralController;
use saba_core::controller::ControllerConfig;
use saba_core::sensitivity::{SensitivityModel, SensitivityTable};
use saba_sim::ids::{AppId, NodeId};
use saba_sim::topology::{SpineLeafConfig, Topology};

/// Distinct workload models in the synthetic profile table.
pub const NUM_WORKLOADS: usize = 16;

/// Applications registered with the controller (workloads reused
/// round-robin, several applications per PL — the §8.1 density).
pub const NUM_APPS: usize = 64;

/// A live connection: `(app, src, dst, tag)`.
pub type Conn = (u32, NodeId, NodeId, u64);

/// One churn event to apply to a warmed controller.
#[derive(Debug, Clone)]
pub enum ChurnOp {
    /// `conn_create(app, src, dst, tag)`.
    Create(Conn),
    /// `conn_destroy(app, tag)`.
    Destroy(u32, u64),
}

/// The fixed fabric + workload scenario behind every churn benchmark.
pub struct ChurnBench {
    /// The §8.1 spine-leaf fabric.
    pub topo: Topology,
    /// Synthetic degree-2 sensitivity models, `wl0..wl15`.
    pub table: SensitivityTable,
    /// Server nodes of the fabric.
    pub servers: Vec<NodeId>,
    /// The steady-state live connection set.
    pub live: Vec<Conn>,
    next_tag: u64,
}

impl ChurnBench {
    /// Builds the scenario: the paper fabric, [`NUM_APPS`] applications
    /// over [`NUM_WORKLOADS`] synthetic models, and `nconns` live
    /// connections between random server pairs.
    pub fn new(nconns: usize, seed: u64) -> Self {
        let topo = Topology::spine_leaf(&SpineLeafConfig::paper());
        let mut table = SensitivityTable::new();
        for i in 0..NUM_WORKLOADS {
            let steep = 0.3 + 3.0 * (i as f64 / NUM_WORKLOADS as f64);
            let samples: Vec<(f64, f64)> = [0.05f64, 0.1, 0.25, 0.5, 0.75, 0.9, 1.0]
                .iter()
                .map(|&b| (b, 1.0 + steep * (1.0 / b.max(0.15) - 1.0) / 9.0))
                .collect();
            table.insert(SensitivityModel::fit(&format!("wl{i}"), &samples, 2).expect("fit"));
        }
        let servers = topo.servers().to_vec();
        let mut rng = StdRng::seed_from_u64(seed ^ 0x5ABA_CBE7);
        let mut live = Vec::with_capacity(nconns);
        for tag in 0..nconns as u64 {
            live.push((Self::random_pair(&mut rng, &servers, tag), tag));
        }
        let live = live
            .into_iter()
            .map(|((a, s, d), t)| (a, s, d, t))
            .collect();
        Self {
            topo,
            table,
            servers,
            live,
            next_tag: nconns as u64,
        }
    }

    fn random_pair(rng: &mut StdRng, servers: &[NodeId], _tag: u64) -> (u32, NodeId, NodeId) {
        let app = rng.gen_range(0..NUM_APPS as u32);
        let src = rng.gen_range(0..servers.len());
        let mut dst = rng.gen_range(0..servers.len());
        if dst == src {
            dst = (dst + 1) % servers.len();
        }
        (app, servers[src], servers[dst])
    }

    /// A controller with every application registered and the live set
    /// preloaded, warmed by one full recompute (programmed state and
    /// memo caches populated — the steady state an epoch starts from).
    pub fn warm_controller(&self) -> CentralController {
        let mut c = self.cold_controller(&self.live);
        c.recompute_all();
        c
    }

    /// A freshly built controller over an arbitrary live set, *not* yet
    /// recomputed — the from-scratch side times `recompute_all` on it.
    pub fn cold_controller(&self, live: &[Conn]) -> CentralController {
        let mut c =
            CentralController::new(ControllerConfig::default(), self.table.clone(), &self.topo);
        for app in 0..NUM_APPS as u32 {
            c.register(AppId(app), &format!("wl{}", app as usize % NUM_WORKLOADS))
                .expect("registers");
        }
        for &(app, src, dst, tag) in live {
            c.preload_connection(AppId(app), src, dst, tag);
        }
        c
    }

    /// Plans one churn epoch touching `fraction` of the live set: that
    /// many destroys of random live connections interleaved with as
    /// many creates of fresh ones. Returns the ops plus the live set
    /// after the epoch (for building the from-scratch comparison).
    pub fn plan(&mut self, fraction: f64, seed: u64) -> (Vec<ChurnOp>, Vec<Conn>) {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x5ABA_0B5E);
        let n = ((self.live.len() as f64 * fraction).round() as usize).clamp(1, self.live.len());
        let mut post = self.live.clone();
        let mut ops = Vec::with_capacity(2 * n);
        for _ in 0..n {
            let victim = post.swap_remove(rng.gen_range(0..post.len()));
            ops.push(ChurnOp::Destroy(victim.0, victim.3));
            let tag = self.next_tag;
            self.next_tag += 1;
            let (app, src, dst) = Self::random_pair(&mut rng, &self.servers, tag);
            post.push((app, src, dst, tag));
            ops.push(ChurnOp::Create((app, src, dst, tag)));
        }
        (ops, post)
    }
}

/// Applies a planned epoch to a (warmed) controller, returning the
/// number of `SwitchUpdate`s emitted across all events.
pub fn apply_ops(c: &mut CentralController, ops: &[ChurnOp]) -> usize {
    let mut emitted = 0;
    for op in ops {
        emitted += match *op {
            ChurnOp::Create((app, src, dst, tag)) => c
                .conn_create(AppId(app), src, dst, tag)
                .expect("create succeeds")
                .len(),
            ChurnOp::Destroy(app, tag) => c
                .conn_destroy(AppId(app), tag)
                .expect("destroy succeeds")
                .len(),
        };
    }
    emitted
}
