//! Seeded input generators. Everything a workload feeds the program is
//! made here from `--seed`; the program never sees the seed itself.

use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use saba_core::rpc::Request;
use saba_core::sensitivity::{SensitivityModel, SensitivityTable};
use saba_sim::ids::{AppId, NodeId};
use saba_workload::churn::{ChurnOp, ChurnTrace, ChurnTraceConfig};

/// The default `--seed`.
pub const DEFAULT_SEED: u64 = 0x5aba;

/// A live connection: `(app, src, dst, tag)`.
pub type Conn = (u32, NodeId, NodeId, u64);

/// Name of synthetic workload model `i`.
pub fn model_name(i: usize) -> String {
    format!("wl{i}")
}

/// `n` synthetic degree-2 sensitivity models `wl0..`, steepness spread
/// evenly from bandwidth-insensitive to steep. This is the profiled
/// catalog the controllers are configured with, not a request input, so
/// it does not depend on the seed: a solve's cost follows its models,
/// and a seeded catalog made `epoch_cold` swing ±13 % between seeds.
pub fn degree2_table(n: usize) -> SensitivityTable {
    let mut table = SensitivityTable::new();
    for i in 0..n {
        let steep = 0.25 + 3.2 * (i as f64 / n as f64);
        let samples: Vec<(f64, f64)> = [0.05f64, 0.1, 0.25, 0.5, 0.75, 0.9, 1.0]
            .iter()
            .map(|&b| (b, 1.0 + steep * (1.0 / b.max(0.15) - 1.0) / 9.0))
            .collect();
        let model = SensitivityModel::fit(&model_name(i), &samples, 2).expect("7 points fit");
        table.insert(model);
    }
    table
}

/// A connection of a random app between two distinct random servers.
pub fn random_conn(rng: &mut ChaCha8Rng, servers: &[NodeId], apps: u32, tag: u64) -> Conn {
    let app = rng.gen_range(0..apps);
    let src = rng.gen_range(0..servers.len());
    let mut dst = rng.gen_range(0..servers.len() - 1);
    if dst >= src {
        dst += 1;
    }
    (app, servers[src], servers[dst], tag)
}

/// One churn event against a controller.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FabricEvent {
    Create(Conn),
    Destroy(u32, u64),
}

/// The fabric-churn stream: each round destroys `per_round` random live
/// connections and creates as many fresh ones (a 1 % churn epoch when
/// `per_round` is 1 % of the live set). Tracks the live set, so the
/// post-churn population is known without asking the program.
pub struct FabricChurn {
    rng: ChaCha8Rng,
    servers: Vec<NodeId>,
    apps: u32,
    /// The live set after every event handed out so far.
    pub live: Vec<Conn>,
    next_tag: u64,
}

impl FabricChurn {
    /// `conns` preloaded connections of `apps` apps over `servers`.
    pub fn new(seed: u64, servers: Vec<NodeId>, apps: u32, conns: usize) -> Self {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let live = (0..conns as u64)
            .map(|tag| random_conn(&mut rng, &servers, apps, tag))
            .collect();
        Self {
            rng,
            servers,
            apps,
            live,
            next_tag: conns as u64,
        }
    }

    /// The next round's events, destroys and creates interleaved.
    pub fn round(&mut self, per_round: usize) -> Vec<FabricEvent> {
        let mut events = Vec::with_capacity(2 * per_round);
        for _ in 0..per_round {
            let victim = self
                .live
                .swap_remove(self.rng.gen_range(0..self.live.len()));
            events.push(FabricEvent::Destroy(victim.0, victim.3));
            let fresh = random_conn(&mut self.rng, &self.servers, self.apps, self.next_tag);
            self.next_tag += 1;
            self.live.push(fresh);
            events.push(FabricEvent::Create(fresh));
        }
        events
    }
}

/// Tenants, servers and models of the service workloads.
pub const SVC_TENANTS: usize = 64;
pub const SVC_SERVERS: usize = 32;
pub const SVC_MODELS: usize = 8;

/// The service workloads' request stream: `saba-workload`'s control-plane
/// churn (64 tenants, 16 connections each, tenant churn 1e-3) mapped
/// onto the 32-server switch.
pub struct ServiceOps {
    trace: ChurnTrace,
    servers: Vec<NodeId>,
}

impl ServiceOps {
    pub fn new(seed: u64, servers: Vec<NodeId>) -> Self {
        let cfg = ChurnTraceConfig {
            tenants: SVC_TENANTS,
            servers: SVC_SERVERS as u32,
            workloads: (0..SVC_MODELS).map(model_name).collect(),
            conns_per_tenant: 16,
            tenant_churn: 1e-3,
            demand_shift: 0.0,
        };
        Self {
            trace: ChurnTrace::new(cfg, seed),
            servers,
        }
    }
}

impl Iterator for ServiceOps {
    type Item = Request;

    fn next(&mut self) -> Option<Request> {
        let server = |i: u32| self.servers[i as usize % self.servers.len()];
        Some(match self.trace.next()? {
            ChurnOp::Register { app, workload } => Request::AppRegister {
                app: AppId(app),
                workload,
            },
            ChurnOp::ConnCreate { app, src, dst, tag } => Request::ConnCreate {
                app: AppId(app),
                src: server(src),
                dst: server(dst),
                tag,
            },
            ChurnOp::ConnDestroy { app, tag } => Request::ConnDestroy {
                app: AppId(app),
                tag,
            },
            ChurnOp::Deregister { app } => Request::AppDeregister { app: AppId(app) },
            ChurnOp::DemandShift { .. } => unreachable!("demand_shift is 0"),
        })
    }
}

/// The tenant a request belongs to.
pub fn tenant(req: &Request) -> u32 {
    match req {
        Request::AppRegister { app, .. }
        | Request::ConnCreate { app, .. }
        | Request::ConnDestroy { app, .. }
        | Request::AppDeregister { app } => app.0,
        Request::MetricsDump => 0,
    }
}

/// Generator `client`'s share of the request stream: the requests of
/// the tenants with `tenant % clients == client`, in stream order, so
/// each tenant's requests stay ordered within one generator. Every
/// generator walks its own copy of the whole stream and skips the rest,
/// which keeps the stream out of memory however long the run.
pub fn tenant_ops(
    seed: u64,
    servers: Vec<NodeId>,
    client: usize,
    clients: usize,
) -> impl Iterator<Item = Request> + Send {
    ServiceOps::new(seed, servers).filter(move |op| tenant(op) as usize % clients == client)
}

#[cfg(test)]
mod tests {
    use super::*;
    use saba_sim::topology::Topology;

    fn servers() -> Vec<NodeId> {
        Topology::single_switch(SVC_SERVERS, 100.0)
            .servers()
            .to_vec()
    }

    #[test]
    fn same_seed_same_streams_other_seed_other_streams() {
        let ops = |seed| {
            ServiceOps::new(seed, servers())
                .take(3_000)
                .collect::<Vec<_>>()
        };
        assert_eq!(ops(7), ops(7));
        assert_ne!(ops(7), ops(8));

        let rounds = |seed| {
            let mut churn = FabricChurn::new(seed, servers(), 10, 200);
            (churn.round(5), churn.round(5), churn.live.clone())
        };
        assert_eq!(rounds(7), rounds(7));
        assert_ne!(rounds(7), rounds(8));
    }

    #[test]
    fn fabric_churn_keeps_the_live_set_consistent() {
        let mut churn = FabricChurn::new(3, servers(), 10, 100);
        let mut live: std::collections::BTreeMap<(u32, u64), Conn> =
            churn.live.iter().map(|c| ((c.0, c.3), *c)).collect();
        for _ in 0..20 {
            for ev in churn.round(3) {
                match ev {
                    FabricEvent::Destroy(app, tag) => {
                        assert!(live.remove(&(app, tag)).is_some(), "destroy of a dead conn");
                    }
                    FabricEvent::Create(c) => {
                        assert_ne!(c.1, c.2, "self-loop");
                        assert!(live.insert((c.0, c.3), c).is_none(), "tag reused");
                    }
                }
            }
        }
        let mut want: Vec<Conn> = live.into_values().collect();
        let mut got = churn.live.clone();
        want.sort_by_key(|c| (c.0, c.3));
        got.sort_by_key(|c| (c.0, c.3));
        assert_eq!(got, want);
    }

    #[test]
    fn generators_split_the_stream_by_tenant_and_keep_its_order() {
        let whole: Vec<Request> = ServiceOps::new(1, servers()).take(2_000).collect();
        let mut shares: Vec<_> = (0..2).map(|c| tenant_ops(1, servers(), c, 2)).collect();
        // Walking the stream, each request is the next one of the
        // generator that owns its tenant.
        for op in &whole {
            assert_eq!(shares[tenant(op) as usize % 2].next().as_ref(), Some(op));
        }
    }
}
