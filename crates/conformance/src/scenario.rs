//! Deterministic scenario generation and execution.
//!
//! Every conformance suite runs over *scenarios* derived entirely from
//! a `u64` seed — topologies, workload mixes, fault schedules, and
//! connection churn are all sampled from a seeded [`StdRng`], so a
//! failing seed reproduces bit-identically on any machine and shrinks
//! to a minimal counterexample (see [`crate::shrink`]).
//!
//! Three scenario families cover the stack:
//!
//! - [`FlowSetScenario`] — raw capacities + flows for the rate
//!   allocator ([`saba_sim::sharing`]), diffed against the textbook
//!   reference solver.
//! - [`EngineScenario`] — a spine-leaf fabric, WFQ port programs,
//!   timed flow arrivals, and a network-fault schedule, executed by the
//!   full event engine with telemetry attached.
//! - [`ControlScenario`] — a synthetic sensitivity table plus a
//!   register/connect/destroy churn sequence, replayed against both
//!   controller designs.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use saba_core::fabric::{PortQueueConfig, SabaFabric};
use saba_core::sensitivity::{SensitivityModel, SensitivityTable};
use saba_faults::injector::FaultInjector;
use saba_faults::schedule::{FaultKind, FaultSchedule, FaultSpec};
use saba_sim::engine::{Event, FlowSpec, SimStats, Simulation};
use saba_sim::ids::{AppId, LinkId, NodeId, ServiceLevel};
use saba_sim::sharing::{SharingFlow, SharingScratch};
use saba_sim::topology::{NodeKind, SpineLeafConfig, Topology};
use saba_telemetry::Recorder;
use serde::{Deserialize, Serialize};

/// Capacities plus flows for one allocator conformance check.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FlowSetScenario {
    /// The generating seed.
    pub seed: u64,
    /// Per-link capacities (`capacities[l]` is `LinkId(l)`).
    pub capacities: Vec<f64>,
    /// The flows (serializable mirror of [`SharingFlow`]).
    pub flows: Vec<FlowDesc>,
}

/// A serializable [`SharingFlow`] (for replay artifacts).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FlowDesc {
    /// Link ids traversed, in order.
    pub path: Vec<u32>,
    /// Per-hop weights (same length as `path`).
    pub weights: Vec<f64>,
    /// Strict-priority class.
    pub priority: u8,
    /// Rate cap in bytes/s; `None` means unbounded.
    pub rate_cap: Option<f64>,
}

impl FlowDesc {
    /// The allocator-facing flow.
    pub fn to_sharing(&self) -> SharingFlow {
        SharingFlow {
            path: self.path.iter().map(|&l| LinkId(l)).collect(),
            weights: self.weights.clone(),
            priority: self.priority,
            rate_cap: self.rate_cap.unwrap_or(f64::INFINITY),
        }
    }
}

impl FlowSetScenario {
    /// Generates the flow set for `seed`: 1–10 links, up to 50 flows
    /// with random paths, weights, priorities and caps, and a fraction
    /// of exact duplicates to exercise bundling.
    pub fn generate(seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x5ABA_F10A);
        let nl = rng.gen_range(1..=10usize);
        let capacities: Vec<f64> = (0..nl).map(|_| rng.gen_range(10.0..1000.0)).collect();
        let nf = rng.gen_range(1..=50usize);
        let mut flows: Vec<FlowDesc> = Vec::with_capacity(nf);
        let mut links: Vec<u32> = (0..nl as u32).collect();
        for _ in 0..nf {
            // A fifth of the flows duplicate an earlier one exactly, so
            // the allocator's bundling path sees real aggregates.
            if !flows.is_empty() && rng.gen_bool(0.2) {
                let i = rng.gen_range(0..flows.len());
                let dup = flows[i].clone();
                flows.push(dup);
                continue;
            }
            links.shuffle(&mut rng);
            let hops = rng.gen_range(1..=4usize.min(nl));
            let path: Vec<u32> = links[..hops].to_vec();
            let weights: Vec<f64> = (0..hops).map(|_| rng.gen_range(0.25..4.0)).collect();
            let priority = if rng.gen_bool(0.75) {
                0
            } else {
                rng.gen_range(1..=3u8) // u8 range
            };
            let rate_cap = if rng.gen_bool(0.7) {
                None
            } else {
                Some(rng.gen_range(5.0..300.0))
            };
            flows.push(FlowDesc {
                path,
                weights,
                priority,
                rate_cap,
            });
        }
        Self {
            seed,
            capacities,
            flows,
        }
    }

    /// The allocator-facing flow list.
    pub fn sharing_flows(&self) -> Vec<SharingFlow> {
        self.flows.iter().map(FlowDesc::to_sharing).collect()
    }
}

/// One timed flow arrival of an [`EngineScenario`].
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FlowArrival {
    /// Source server index (into `Topology::servers()`).
    pub src: usize,
    /// Destination server index.
    pub dst: usize,
    /// Transfer size in bytes.
    pub bytes: f64,
    /// Service level stamped on the flow.
    pub sl: u8,
    /// Owning application.
    pub app: u32,
    /// Arrival time.
    pub start: f64,
}

/// One network fault of an [`EngineScenario`] (serializable subset of
/// [`FaultKind`]: control-plane faults need a controller in the loop
/// and are exercised by the cluster-level suites instead).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub enum NetFault {
    /// Degrade a link to `fraction` of nominal capacity.
    Degrade {
        /// Link index.
        link: u32,
        /// Remaining capacity fraction.
        fraction: f64,
    },
    /// Fail a full-duplex cable.
    Cable {
        /// Link index (one direction; the injector fails both).
        link: u32,
    },
    /// Fail a switch.
    Switch {
        /// Node index.
        node: u32,
    },
}

/// A full-engine scenario: topology, WFQ port programs, timed flows,
/// and a deterministic network-fault schedule.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct EngineScenario {
    /// The generating seed.
    pub seed: u64,
    /// Link capacity (B/s) — slowed far below line rate so flows are
    /// in flight when faults land.
    pub link_capacity: f64,
    /// WFQ weight per queue; SL `s` maps to queue `s % weights.len()`.
    pub queue_weights: Vec<f64>,
    /// The flow arrivals.
    pub flows: Vec<FlowArrival>,
    /// Network faults as `(fault, start, duration)`.
    pub faults: Vec<(NetFault, f64, f64)>,
}

/// Outcome of one engine run, in a directly comparable form.
#[derive(Debug, Clone, PartialEq)]
pub struct EngineRun {
    /// `(flow tag, completion time)` in completion order.
    pub completions: Vec<(u64, f64)>,
    /// Engine counters.
    pub stats: SimStats,
    /// Fault-replay counters.
    pub rerouted: u64,
    /// Flows parked by faults.
    pub parked: u64,
    /// Parked flows later resumed.
    pub resumed: u64,
    /// The telemetry trace, formatted (bit-comparable across runs).
    pub trace: Vec<String>,
}

impl EngineScenario {
    /// Generates the engine scenario for `seed` on the tiny spine-leaf
    /// fabric (2 spines, 4 leaves, 4 ToRs, 8 servers).
    pub fn generate(seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x5ABA_E261);
        let link_capacity = rng.gen_range(100.0..400.0);
        let nq = rng.gen_range(2..=4usize);
        let queue_weights: Vec<f64> = (0..nq).map(|_| rng.gen_range(1.0..4.0)).collect();

        let topo = Self::topology(link_capacity);
        let servers = topo.servers().len();
        let nf = rng.gen_range(2..=12usize);
        let mut flows = Vec::with_capacity(nf);
        for _ in 0..nf {
            let src = rng.gen_range(0..servers);
            let mut dst = rng.gen_range(0..servers);
            if dst == src {
                dst = (dst + 1) % servers;
            }
            flows.push(FlowArrival {
                src,
                dst,
                bytes: rng.gen_range(200.0..20_000.0),
                sl: rng.gen_range(0..4u8), // u8 range
                app: rng.gen_range(0..4u32),
                start: rng.gen_range(0.0..3.0),
            });
        }

        let switches: Vec<u32> = (0..topo.num_nodes() as u32)
            .filter(|&n| topo.node(NodeId(n)).kind == NodeKind::Switch)
            .collect();
        let nfaults = rng.gen_range(0..=3usize);
        let mut faults = Vec::with_capacity(nfaults);
        for _ in 0..nfaults {
            let start = rng.gen_range(0.5..6.0);
            let duration = rng.gen_range(0.5..4.0);
            let fault = match rng.gen_range(0..3u8) {
                0 => NetFault::Degrade {
                    link: rng.gen_range(0..topo.num_links() as u32),
                    fraction: rng.gen_range(0.3..0.9),
                },
                1 => NetFault::Cable {
                    link: rng.gen_range(0..topo.num_links() as u32),
                },
                _ => NetFault::Switch {
                    node: switches[rng.gen_range(0..switches.len())],
                },
            };
            faults.push((fault, start, duration));
        }
        Self {
            seed,
            link_capacity,
            queue_weights,
            flows,
            faults,
        }
    }

    /// The scenario's topology.
    pub fn topology(link_capacity: f64) -> Topology {
        Topology::spine_leaf(&SpineLeafConfig {
            link_capacity,
            ..SpineLeafConfig::tiny(2)
        })
    }

    /// The injector-facing fault schedule.
    pub fn fault_schedule(&self) -> FaultSchedule {
        FaultSchedule {
            seed: self.seed,
            faults: self
                .faults
                .iter()
                .map(|(f, start, duration)| FaultSpec {
                    kind: match *f {
                        NetFault::Degrade { link, fraction } => FaultKind::DegradeLink {
                            link: LinkId(link),
                            fraction,
                        },
                        NetFault::Cable { link } => FaultKind::FailCable { link: LinkId(link) },
                        NetFault::Switch { node } => FaultKind::FailSwitch { node: NodeId(node) },
                    },
                    start: *start,
                    duration: *duration,
                })
                .collect(),
        }
    }

    /// Executes the scenario with the given bundling setting, faults
    /// armed, and a live telemetry recorder attached.
    pub fn run(&self, bundling: bool) -> EngineRun {
        self.run_recorded(bundling).0
    }

    /// Like [`Self::run`], also returning the telemetry recorder — the
    /// harness dumps its trace and a flight snapshot as the replay
    /// artifact of a failing scenario.
    pub fn run_recorded(&self, bundling: bool) -> (EngineRun, Recorder) {
        let topo = Self::topology(self.link_capacity);
        let scratch = if bundling {
            SharingScratch::default()
        } else {
            SharingScratch::unbundled()
        };
        let mut fabric = SabaFabric::with_scratch(topo.num_links(), scratch);
        // Program every port with the scenario's WFQ map: SL s on
        // queue s % nq, so different SLs genuinely compete by weight.
        let mut sl_to_queue = [0u8; ServiceLevel::COUNT];
        for (s, q) in sl_to_queue.iter_mut().enumerate() {
            *q = (s % self.queue_weights.len()) as u8;
        }
        let port = PortQueueConfig::new(sl_to_queue, self.queue_weights.clone());
        for l in 0..topo.num_links() {
            fabric.set_port(LinkId(l as u32), port.clone());
        }

        let servers = topo.servers().to_vec();
        let mut sim = Simulation::with_telemetry(topo, fabric, Recorder::new(1 << 16, 64));
        // Flow arrivals ride the engine's own timer queue (keys are the
        // flow indices, far below the injector's key namespace).
        for (k, f) in self.flows.iter().enumerate() {
            sim.schedule(f.start, k as u64);
        }
        let mut injector = FaultInjector::new(self.fault_schedule());
        injector.arm(&mut sim);

        let mut completions = Vec::new();
        loop {
            match sim.next_event() {
                Event::Timer { key, .. } => {
                    if FaultInjector::owns_key(key) {
                        // Network faults only: no control actions here.
                        let action = injector.on_timer(&mut sim, key);
                        debug_assert!(action.is_none());
                    } else {
                        let f = &self.flows[key as usize];
                        sim.start_flow(FlowSpec {
                            src: servers[f.src],
                            dst: servers[f.dst],
                            bytes: f.bytes,
                            sl: ServiceLevel(f.sl),
                            app: AppId(f.app),
                            tag: key,
                            rate_cap: f64::INFINITY,
                            min_rate: 0.0,
                        });
                    }
                }
                Event::FlowsCompleted { flows, at } => {
                    for c in flows {
                        completions.push((c.spec.tag, at));
                    }
                }
                Event::Idle => break,
            }
        }
        let stats = sim.stats();
        let inj = injector.stats();
        let recorder = sim.into_sink();
        let trace = recorder
            .trace
            .events()
            .map(|e| format!("{:.9}|{:?}", e.t, e.kind))
            .collect();
        (
            EngineRun {
                completions,
                stats,
                rerouted: inj.rerouted,
                parked: inj.parked,
                resumed: inj.resumed,
                trace,
            },
            recorder,
        )
    }
}

/// A controller churn scenario: synthetic sensitivity models plus a
/// register/connect/destroy sequence on a single-switch testbed.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ControlScenario {
    /// The generating seed.
    pub seed: u64,
    /// Number of applications (kept at or below the queue budget so
    /// each application maps to its own queue in both designs).
    pub napps: usize,
    /// Per-application sensitivity steepness (model generator input).
    pub steepness: Vec<f64>,
    /// Servers on the testbed switch.
    pub servers: usize,
    /// Connections as `(app, src server, dst server)`.
    pub conns: Vec<(u32, usize, usize)>,
    /// Indices into `conns` destroyed after creation (connection
    /// churn).
    pub destroys: Vec<usize>,
}

impl ControlScenario {
    /// Generates the churn scenario for `seed`.
    pub fn generate(seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x5ABA_C041);
        let napps = rng.gen_range(2..=6usize);
        // Well-separated steepness values keep the models distinct, so
        // clustering gives every application its own PL in both the
        // online (central) and offline-kmeans (distributed) designs.
        let mut steepness: Vec<f64> = (0..napps)
            .map(|i| 0.3 + i as f64 * 0.9 + rng.gen_range(0.0..0.3))
            .collect();
        steepness.shuffle(&mut rng);
        let servers = rng.gen_range(4..=8usize);
        let nconns = rng.gen_range(napps..=3 * napps);
        let mut conns = Vec::with_capacity(nconns);
        for c in 0..nconns {
            // Every app gets at least one connection.
            let app = if c < napps {
                c as u32
            } else {
                rng.gen_range(0..napps as u32)
            };
            let src = rng.gen_range(0..servers);
            let mut dst = rng.gen_range(0..servers);
            if dst == src {
                dst = (dst + 1) % servers;
            }
            conns.push((app, src, dst));
        }
        // Destroy a random subset (but keep each app's first conn so
        // no app goes idle and drops out of every port set).
        let destroys: Vec<usize> = (napps..nconns).filter(|_| rng.gen_bool(0.3)).collect();
        Self {
            seed,
            napps,
            steepness,
            servers,
            conns,
            destroys,
        }
    }

    /// The scenario's synthetic sensitivity table: one degree-2 model
    /// per application, steeper models suffering more at low
    /// bandwidth (the fig12 generator's shape).
    pub fn table(&self) -> SensitivityTable {
        let mut table = SensitivityTable::new();
        for (i, &steep) in self.steepness.iter().enumerate() {
            let samples: Vec<(f64, f64)> = [0.05, 0.1, 0.25, 0.5, 0.75, 0.9, 1.0]
                .iter()
                .map(|&b: &f64| (b, 1.0 + steep * (1.0 / b.max(0.1) - 1.0) / 9.0))
                .collect();
            table.insert(SensitivityModel::fit(&Self::workload_name(i), &samples, 2).expect("fit"));
        }
        table
    }

    /// The workload name of application `i`.
    pub fn workload_name(i: usize) -> String {
        format!("wl{i}")
    }

    /// The testbed topology.
    pub fn topology(&self) -> Topology {
        Topology::single_switch(self.servers, 100.0)
    }

    /// The connections alive after churn.
    pub fn live_conns(&self) -> Vec<(u32, usize, usize, u64)> {
        self.conns
            .iter()
            .enumerate()
            .filter(|(i, _)| !self.destroys.contains(i))
            .map(|(i, &(app, src, dst))| (app, src, dst, i as u64))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flow_sets_are_deterministic() {
        let a = FlowSetScenario::generate(17);
        let b = FlowSetScenario::generate(17);
        assert_eq!(a.capacities, b.capacities);
        assert_eq!(a.flows.len(), b.flows.len());
        for (x, y) in a.flows.iter().zip(&b.flows) {
            assert_eq!(x.path, y.path);
            assert_eq!(x.weights, y.weights);
        }
    }

    #[test]
    fn engine_scenarios_are_deterministic() {
        let a = EngineScenario::generate(23);
        let b = EngineScenario::generate(23);
        assert_eq!(format!("{a:?}"), format!("{b:?}"));
    }

    #[test]
    fn control_scenarios_cover_every_app() {
        for seed in 0..20 {
            let sc = ControlScenario::generate(seed);
            for app in 0..sc.napps as u32 {
                assert!(
                    sc.live_conns().iter().any(|&(a, ..)| a == app),
                    "seed {seed}: app {app} lost every connection"
                );
            }
        }
    }

    #[test]
    fn engine_run_completes_every_flow() {
        let sc = EngineScenario::generate(3);
        let run = sc.run(true);
        assert_eq!(run.completions.len(), sc.flows.len());
        assert_eq!(run.stats.flows_completed as usize, sc.flows.len());
    }
}
