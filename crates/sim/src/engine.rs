//! The discrete-event simulation engine.
//!
//! The engine advances between *allocation epochs*: whenever the active
//! flow set (or the fabric configuration) changes, the installed
//! [`FabricModel`] recomputes every flow's rate; between changes, flow
//! progress is integrated analytically. Drivers pull [`Event`]s in a
//! loop — there are no callbacks:
//!
//! ```
//! use saba_sim::engine::{Event, FairShareFabric, FlowSpec, Simulation};
//! use saba_sim::ids::{AppId, ServiceLevel};
//! use saba_sim::topology::Topology;
//!
//! let topo = Topology::single_switch(2, 100.0);
//! let mut sim = Simulation::new(topo, FairShareFabric::default());
//! let servers: Vec<_> = sim.topo().servers().to_vec();
//! sim.start_flow(FlowSpec {
//!     src: servers[0],
//!     dst: servers[1],
//!     bytes: 1000.0,
//!     sl: ServiceLevel(0),
//!     app: AppId(0),
//!     tag: 1,
//!     rate_cap: f64::INFINITY,
//!     min_rate: 0.0,
//! });
//! match sim.next_event() {
//!     Event::FlowsCompleted { at, flows } => {
//!         assert_eq!(flows.len(), 1);
//!         assert!((at - 10.0).abs() < 1e-6); // 1000 B at 100 B/s.
//!     }
//!     other => panic!("unexpected event {other:?}"),
//! }
//! ```

use crate::ids::{AppId, FlowId, LinkId, NodeId, ServiceLevel};
use crate::probe::LinkProbe;
use crate::routing::Routes;
use crate::sharing::{
    compute_rates_into, FlowMatch, FlowSource, FlowView, FlowWeights, SharingScratch,
};
use crate::topology::Topology;
use saba_telemetry::{EventKind, NullSink, Registry, TelemetrySink};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Specification of a flow to start.
#[derive(Debug, Clone, PartialEq)]
pub struct FlowSpec {
    /// Source node (must be a server for NIC semantics to apply).
    pub src: NodeId,
    /// Destination node.
    pub dst: NodeId,
    /// Transfer size in bytes.
    pub bytes: f64,
    /// InfiniBand Service Level carried by the connection's packets.
    pub sl: ServiceLevel,
    /// Owning application, as registered with the controller.
    pub app: AppId,
    /// Caller-chosen tag: ECMP hash input and correlation id.
    pub tag: u64,
    /// Maximum delivery rate in bytes/s (`f64::INFINITY` for none).
    /// Bulk frameworks *pace* transfers that overlap computation —
    /// producers emit shuffle data as it is generated — so an
    /// overlapped transfer occupies its whole window at moderate rate
    /// rather than bursting at line rate (the continuously-busy network
    /// of the paper's Fig. 2b). Fabric models must honour this cap.
    pub rate_cap: f64,
    /// Minimum delivery rate in bytes/s (0 for none). Models the
    /// portion of a bulk transfer that bypasses the constrained NIC
    /// path — framework-level pipelining through spill/local channels —
    /// which keeps severely-throttled workloads from slowing without
    /// bound (the saturating low-bandwidth behaviour of the paper's
    /// Fig. 5 curves). The floor is applied *after* fair sharing and
    /// does not consume fabric capacity.
    pub min_rate: f64,
}

/// A flow currently in the fabric.
#[derive(Debug, Clone)]
pub struct ActiveFlow {
    /// Engine-assigned id.
    pub id: FlowId,
    /// The originating spec.
    pub spec: FlowSpec,
    /// Links traversed (empty for same-host transfers).
    pub path: Vec<LinkId>,
    /// Bytes still to transfer.
    pub remaining: f64,
    /// Simulation time the flow started.
    pub started: f64,
}

/// A completed flow, as reported by [`Event::FlowsCompleted`].
#[derive(Debug, Clone)]
pub struct CompletedFlow {
    /// Engine-assigned id.
    pub id: FlowId,
    /// The originating spec.
    pub spec: FlowSpec,
    /// Start time.
    pub started: f64,
    /// Completion time.
    pub finished: f64,
}

/// Events returned by [`Simulation::next_event`].
#[derive(Debug)]
pub enum Event {
    /// A timer scheduled via [`Simulation::schedule`] fired.
    Timer {
        /// The caller-supplied key.
        key: u64,
        /// Firing time.
        at: f64,
    },
    /// One or more flows completed (flows finishing within the
    /// completion-slack window are batched into one event).
    FlowsCompleted {
        /// The completed flows.
        flows: Vec<CompletedFlow>,
        /// Completion time.
        at: f64,
    },
    /// No timers pending and no active flows: the simulation is done.
    Idle,
}

/// A fabric model computes per-flow rates whenever the epoch changes.
///
/// Implementations encode an allocation policy: plain per-flow max-min
/// (this crate's [`FairShareFabric`]), Saba's WFQ weights, Homa's or
/// Sincronia's priorities, or the FECN baseline's imperfect max-min.
pub trait FabricModel {
    /// Writes the rate (bytes/s) of each flow in `flows` into `rates`
    /// (cleared and refilled, aligned by index). Implementations must
    /// not produce negative rates and must not oversubscribe links.
    ///
    /// The engine calls this once per allocation epoch with a reused
    /// buffer; implementations should likewise keep their working state
    /// (sharing scratch, capacity and weight buffers) across calls so
    /// steady-state epochs perform no heap allocations.
    fn allocate(&mut self, topo: &Topology, flows: &[ActiveFlow], rates: &mut Vec<f64>);
}

/// The names of the engine's active flows' keys, for a kept
/// [`SharingScratch`] ([`FlowSource::key_id`]): the one naming rule of
/// every fabric model.
///
/// A call matches its flows to the last call's by `FlowId`, and a flow
/// keeps its name while its key — path, class and cap — holds; a flow
/// that arrived, or whose key moved, takes a new name. The class is the
/// caller's: a strict-priority class, or whatever else decides the
/// flow's weights (a Saba flow's SL). The check reads the stored key,
/// not only the id, so a model reused by a second [`Simulation`], whose
/// ids restart at 0, stays sound. A caller whose weights are not
/// functions of the key alone renames a flow when they move
/// ([`FlowNames::rename`]).
#[derive(Debug, Clone, Default)]
pub struct FlowNames {
    /// The last call's flows and this call's, matched by `FlowId`.
    matching: FlowMatch,
    /// The last call's keys, and this call's.
    last: Keys,
    keys: Keys,
    /// The last call's flows whose key went: departed, or moved.
    left: Vec<u32>,
    /// The next name: names are never reused.
    next: u64,
}

/// Flows' keys in flow order: a record per flow, their paths back to
/// back.
#[derive(Debug, Clone, Default)]
struct Keys {
    records: Vec<KeyRecord>,
    links: Vec<LinkId>,
}

/// One flow's key, its name, and where it was in the last call.
#[derive(Debug, Clone, Copy)]
struct KeyRecord {
    class: u8,
    rate_cap: f64,
    name: u64,
    /// The flow's range of [`Keys::links`].
    hops: (u32, u32),
    /// The flow's index in the last call if it kept its key there.
    kept: Option<u32>,
}

impl Keys {
    fn hops(&self, i: usize) -> std::ops::Range<usize> {
        let (first, end) = self.records[i].hops;
        first as usize..end as usize
    }

    /// Whether flow `i` still has `f`'s key, `f` of `class`: same path,
    /// class and cap.
    fn holds(&self, i: usize, f: &ActiveFlow, class: u8) -> bool {
        let record = &self.records[i];
        record.class == class
            && record.rate_cap.to_bits() == f.spec.rate_cap.to_bits()
            && self.links[self.hops(i)] == *f.path
    }
}

impl FlowNames {
    /// Names this call's `flows`, flow `i` of class `class(i)`.
    pub fn name(&mut self, flows: &[ActiveFlow], class: impl Fn(usize) -> u8) {
        self.matching.update(flows.len(), |i| flows[i].id.0);
        std::mem::swap(&mut self.last, &mut self.keys);
        self.keys.records.clear();
        self.keys.links.clear();
        self.left.clear();
        self.left.extend_from_slice(self.matching.departed());
        self.keys.records.reserve(flows.len());
        for (i, f) in flows.iter().enumerate() {
            let class = class(i);
            let mut kept = None;
            if let Some(j) = self.matching.previous(i) {
                if self.last.holds(j, f, class) {
                    kept = Some(j);
                } else {
                    // Found by id, its key moved: the old key leaves.
                    self.left.push(j as u32);
                }
            }
            let name = kept.map_or_else(|| new_name(&mut self.next), |j| self.last.records[j].name);
            let first = self.keys.links.len() as u32;
            self.keys.links.extend_from_slice(&f.path);
            self.keys.records.push(KeyRecord {
                class,
                rate_cap: f.spec.rate_cap,
                name,
                hops: (first, self.keys.links.len() as u32),
                kept: kept.map(|j| j as u32),
            });
        }
    }

    /// Gives flow `i` a new name: its weights moved.
    pub fn rename(&mut self, i: usize) {
        self.keys.records[i].name = new_name(&mut self.next);
    }

    /// The path and class of each flow of the last call whose key went:
    /// departed, or rerouted, re-classed or re-capped.
    pub fn left(&self) -> impl Iterator<Item = (&[LinkId], u8)> + '_ {
        self.left.iter().map(|&j| {
            let j = j as usize;
            (
                &self.last.links[self.last.hops(j)],
                self.last.records[j].class,
            )
        })
    }

    /// Flow `i`'s range of this call's hops, laid back to back in flow
    /// order — where a caller keeps per-hop state beside the names.
    pub fn hops(&self, i: usize) -> std::ops::Range<usize> {
        self.keys.hops(i)
    }

    /// If flow `i` kept its key, its range of the last call's hops.
    pub fn kept_hops(&self, i: usize) -> Option<std::ops::Range<usize>> {
        let j = self.keys.records[i].kept?;
        Some(self.last.hops(j as usize))
    }
}

/// Hands out the next name.
fn new_name(next: &mut u64) -> u64 {
    *next += 1;
    *next - 1
}

/// Zero-copy [`FlowSource`] over the engine's active flows, named by
/// the model's [`FlowNames`].
///
/// Flows get their spec's rate cap, unit weights unless the model
/// flattened its own, and one priority class unless a `priorities`
/// slice (aligned with `flows`) supplies per-flow strict-priority
/// classes for policies like Homa or Sincronia. Paths are borrowed,
/// never cloned.
#[derive(Debug, Clone, Copy)]
pub struct ActiveFlowViews<'a> {
    flows: &'a [ActiveFlow],
    priorities: Option<&'a [u8]>,
    weights: Option<&'a [f64]>,
    names: &'a FlowNames,
}

impl<'a> ActiveFlowViews<'a> {
    /// Views with a single priority class (0) for every flow, named by
    /// `names`.
    pub fn uniform(flows: &'a [ActiveFlow], names: &'a mut FlowNames) -> Self {
        names.name(flows, |_| 0);
        Self::weighted(flows, None, names)
    }

    /// Views with per-flow priorities, named by `names`; `priorities`
    /// must be aligned with `flows`.
    pub fn with_priorities(
        flows: &'a [ActiveFlow],
        priorities: &'a [u8],
        names: &'a mut FlowNames,
    ) -> Self {
        assert_eq!(flows.len(), priorities.len());
        names.name(flows, |i| priorities[i]);
        Self {
            priorities: Some(priorities),
            ..Self::weighted(flows, None, names)
        }
    }

    /// Views of the flows `names` named last, in one priority class,
    /// flow `i` weighing `weights[names.hops(i)]` (unit weights for
    /// `None`).
    pub fn weighted(
        flows: &'a [ActiveFlow],
        weights: Option<&'a [f64]>,
        names: &'a FlowNames,
    ) -> Self {
        Self {
            flows,
            priorities: None,
            weights,
            names,
        }
    }
}

impl FlowSource for ActiveFlowViews<'_> {
    fn flow_count(&self) -> usize {
        self.flows.len()
    }

    fn flow_view(&self, i: usize) -> FlowView<'_> {
        let f = &self.flows[i];
        FlowView {
            path: &f.path,
            weights: self.weights.map_or(FlowWeights::Uniform(1.0), |w| {
                FlowWeights::PerLink(&w[self.names.hops(i)])
            }),
            priority: self.priorities.map_or(0, |p| p[i]),
            rate_cap: f.spec.rate_cap,
        }
    }

    fn key_id(&self, i: usize) -> u64 {
        self.names.keys.records[i].name
    }
}

/// What a fabric model that rates [`ActiveFlowViews`] keeps from one
/// epoch to the next: the sharing scratch with its prepared problem, the
/// flows' names and the capacity buffer.
#[derive(Debug, Clone, Default)]
pub struct FlowRater {
    scratch: SharingScratch,
    names: FlowNames,
    caps: Vec<f64>,
}

impl FlowRater {
    /// Rates `flows` over `topo`'s link capacities into `rates` with unit
    /// weights, flow `i` in strict-priority class `priorities[i]` (all in
    /// class 0 for `None`).
    pub fn rate(
        &mut self,
        topo: &Topology,
        flows: &[ActiveFlow],
        priorities: Option<&[u8]>,
        rates: &mut Vec<f64>,
    ) {
        topo.capacities_into(&mut self.caps);
        let views = match priorities {
            Some(p) => ActiveFlowViews::with_priorities(flows, p, &mut self.names),
            None => ActiveFlowViews::uniform(flows, &mut self.names),
        };
        compute_rates_into(&self.caps, &views, &mut self.scratch, rates);
    }
}

/// Per-flow max-min fairness over the fabric — the idealized behaviour
/// congestion control aims for (used as the engine's default model and
/// refined by `saba-baselines`).
#[derive(Debug, Clone, Default)]
pub struct FairShareFabric {
    rater: FlowRater,
}

impl FabricModel for FairShareFabric {
    fn allocate(&mut self, topo: &Topology, flows: &[ActiveFlow], rates: &mut Vec<f64>) {
        self.rater.rate(topo, flows, None, rates);
    }
}

/// Aggregate statistics of an engine run.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SimStats {
    /// Flows started.
    pub flows_started: u64,
    /// Flows completed.
    pub flows_completed: u64,
    /// Rate allocations performed (epoch changes).
    pub allocations: u64,
    /// Routing re-convergences triggered by faults or repairs.
    pub route_recomputes: u64,
    /// Flows moved to an alternate path after a fault.
    pub flows_rerouted: u64,
    /// Flows parked (no surviving route) by a fault.
    pub flows_parked: u64,
    /// Parked flows resumed after a repair restored a route.
    pub flows_resumed: u64,
}

/// What a fault (or repair) did to the active flow set.
///
/// Returned by the [`Simulation`] fault hooks so drivers can account
/// for disruption: `rerouted` flows continue on a new path, `parked`
/// flows lost every route and wait (with their remaining bytes intact)
/// until a repair resumes them, `resumed` flows just came back.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultImpact {
    /// Flows whose path was re-resolved around the fault.
    pub rerouted: Vec<FlowId>,
    /// Flows with no surviving route, now parked.
    pub parked: Vec<FlowId>,
    /// Previously parked flows that found a route again.
    pub resumed: Vec<FlowId>,
}

impl FaultImpact {
    /// True when the event disturbed no flow.
    pub fn is_empty(&self) -> bool {
        self.rerouted.is_empty() && self.parked.is_empty() && self.resumed.is_empty()
    }
}

/// The discrete-event fluid simulator.
///
/// Generic over a [`TelemetrySink`] `S`; the default [`NullSink`]
/// compiles every telemetry hook to a no-op, so untraced simulations
/// (`Simulation::new`) pay nothing for the instrumentation.
#[derive(Debug)]
pub struct Simulation<M, S = NullSink> {
    topo: Topology,
    routes: Routes,
    model: M,
    now: f64,
    next_flow_id: u64,
    active: Vec<ActiveFlow>,
    /// Flows with no currently-live route: they hold their remaining
    /// bytes at zero rate until a repair resumes them.
    parked: Vec<ActiveFlow>,
    /// Paths of completed flows, for new flows to start in: a flow's
    /// start allocates nothing once enough flows have ended.
    spare_paths: Vec<Vec<LinkId>>,
    rates: Vec<f64>,
    timers: BinaryHeap<Reverse<(TimeKey, u64, u64)>>,
    timer_seq: u64,
    dirty: bool,
    completion_slack: f64,
    probes: Vec<LinkProbe>,
    stats: SimStats,
    sink: S,
}

/// Total-order wrapper for finite times in the timer heap.
#[derive(Debug, Clone, Copy, PartialEq)]
struct TimeKey(f64);

impl Eq for TimeKey {}

impl PartialOrd for TimeKey {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for TimeKey {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0
            .partial_cmp(&other.0)
            .expect("timer times must be finite")
    }
}

impl<M: FabricModel> Simulation<M> {
    /// Creates an untraced simulation over `topo` driven by `model`
    /// (telemetry hooks compile to no-ops via [`NullSink`]).
    ///
    /// Routing tables are computed once here; topology link *capacities*
    /// may change later (throttling), but the graph structure must not.
    pub fn new(topo: Topology, model: M) -> Self {
        Self::with_telemetry(topo, model, NullSink)
    }
}

impl<M: FabricModel, S: TelemetrySink> Simulation<M, S> {
    /// Creates a simulation whose lifecycle (flow arrivals/completions,
    /// allocation epochs, fault re-convergences) is recorded into `sink`
    /// at simulated time.
    pub fn with_telemetry(topo: Topology, model: M, sink: S) -> Self {
        let routes = Routes::compute(&topo);
        Self {
            topo,
            routes,
            model,
            now: 0.0,
            next_flow_id: 0,
            active: Vec::new(),
            parked: Vec::new(),
            spare_paths: Vec::new(),
            rates: Vec::new(),
            timers: BinaryHeap::new(),
            timer_seq: 0,
            dirty: false,
            completion_slack: 1e-4,
            probes: Vec::new(),
            stats: SimStats::default(),
            sink,
        }
    }

    /// The telemetry sink (read-only).
    pub fn sink(&self) -> &S {
        &self.sink
    }

    /// Mutable sink access, e.g. for drivers recording [`EventKind::Mark`]
    /// annotations. Does not mark the epoch dirty.
    pub fn sink_mut(&mut self) -> &mut S {
        &mut self.sink
    }

    /// Consumes the simulation and returns its sink (trace retrieval
    /// at the end of a run).
    pub fn into_sink(self) -> S {
        self.sink
    }

    /// Exports every installed probe's utilization series and byte
    /// total into `registry` under `port.l<id>.*` names, normalized by
    /// each link's nominal capacity.
    pub fn export_probes(&self, registry: &mut Registry) {
        for p in &self.probes {
            p.export_to(registry, self.topo.link(p.link()).nominal_capacity);
        }
    }

    /// Current simulation time (seconds).
    pub fn now(&self) -> f64 {
        self.now
    }

    /// The topology (read-only).
    pub fn topo(&self) -> &Topology {
        &self.topo
    }

    /// Mutable topology access (e.g. NIC throttling). Marks the epoch
    /// dirty so rates are recomputed before the next event.
    pub fn topo_mut(&mut self) -> &mut Topology {
        self.dirty = true;
        &mut self.topo
    }

    /// The routing tables.
    pub fn routes(&self) -> &Routes {
        &self.routes
    }

    /// The fabric model (read-only).
    pub fn model(&self) -> &M {
        &self.model
    }

    /// Mutable fabric-model access (e.g. the controller reprogramming
    /// switch queue weights). Marks the epoch dirty.
    pub fn model_mut(&mut self) -> &mut M {
        self.dirty = true;
        &mut self.model
    }

    /// Run statistics so far.
    pub fn stats(&self) -> SimStats {
        self.stats
    }

    /// Currently active flows.
    pub fn active_flows(&self) -> &[ActiveFlow] {
        &self.active
    }

    /// Sets the completion batching window: flows projected to finish
    /// within `slack` seconds of the earliest completion are completed
    /// together, in one event and one re-allocation.
    ///
    /// # Panics
    ///
    /// Panics if `slack` is negative or not finite.
    pub fn set_completion_slack(&mut self, slack: f64) {
        assert!(
            slack.is_finite() && slack >= 0.0,
            "slack must be non-negative"
        );
        self.completion_slack = slack;
    }

    /// Installs a utilization probe on `link` with the given bucket
    /// width (seconds). Returns the probe's index for retrieval.
    pub fn add_probe(&mut self, link: LinkId, bucket_width: f64) -> usize {
        self.probes.push(LinkProbe::new(link, bucket_width));
        self.probes.len() - 1
    }

    /// Access a previously installed probe.
    pub fn probe(&self, index: usize) -> &LinkProbe {
        &self.probes[index]
    }

    /// Schedules a timer at absolute time `at` with a caller-chosen key.
    ///
    /// # Panics
    ///
    /// Panics if `at` is before the current time or not finite.
    pub fn schedule(&mut self, at: f64, key: u64) {
        assert!(at.is_finite(), "timer time must be finite");
        assert!(
            at >= self.now - 1e-12,
            "timer at {at} is in the past (now {})",
            self.now
        );
        self.timer_seq += 1;
        self.timers
            .push(Reverse((TimeKey(at.max(self.now)), self.timer_seq, key)));
    }

    /// Starts a flow; its path is resolved via ECMP on `spec.tag`.
    ///
    /// If the destination is temporarily unreachable because of an
    /// injected fault, the flow is *parked* (it waits, whole, until a
    /// repair restores a route) rather than rejected — transports retry
    /// through outages.
    ///
    /// # Panics
    ///
    /// Panics if the destination is unreachable on a healthy topology
    /// (a wiring error, not a fault) or `bytes` is negative/non-finite.
    pub fn start_flow(&mut self, spec: FlowSpec) -> FlowId {
        assert!(
            spec.bytes.is_finite() && spec.bytes >= 0.0,
            "flow bytes must be non-negative"
        );
        let id = FlowId(self.next_flow_id);
        self.next_flow_id += 1;
        self.stats.flows_started += 1;
        let mut path = self.spare_paths.pop().unwrap_or_default();
        let parked = !self
            .routes
            .path_into(&self.topo, spec.src, spec.dst, spec.tag, &mut path);
        let flow = ActiveFlow {
            id,
            remaining: spec.bytes,
            path,
            started: self.now,
            spec,
        };
        if parked {
            assert!(
                self.topo.has_failures(),
                "no route from {} to {}",
                flow.spec.src,
                flow.spec.dst
            );
            self.stats.flows_parked += 1;
            self.parked.push(flow);
        } else {
            self.active.push(flow);
            self.dirty = true;
        }
        if self.sink.enabled() {
            let pool = if parked { &self.parked } else { &self.active };
            let f = pool.last().expect("flow was just pushed");
            self.sink.record(
                self.now,
                EventKind::FlowStarted {
                    flow: id.0,
                    app: f.spec.app.0,
                    src: f.spec.src.0,
                    dst: f.spec.dst.0,
                    bytes: f.spec.bytes,
                    parked,
                },
            );
        }
        id
    }

    /// Flows currently parked by faults (no live route).
    pub fn parked_flows(&self) -> &[ActiveFlow] {
        &self.parked
    }

    /// Fails a directed link and re-converges. Flows crossing it are
    /// rerouted where a path survives and parked otherwise.
    pub fn fail_link(&mut self, link: LinkId) -> FaultImpact {
        self.topo.set_link_up(link, false);
        self.reconverge()
    }

    /// Restores a previously failed link and re-converges; parked flows
    /// whose endpoints are reachable again resume.
    pub fn restore_link(&mut self, link: LinkId) -> FaultImpact {
        self.topo.set_link_up(link, true);
        self.reconverge()
    }

    /// Fails a node (switch): every incident link goes down with it.
    pub fn fail_node(&mut self, node: NodeId) -> FaultImpact {
        self.topo.set_node_up(node, false);
        self.reconverge()
    }

    /// Restores a previously failed node and re-converges.
    pub fn restore_node(&mut self, node: NodeId) -> FaultImpact {
        self.topo.set_node_up(node, true);
        self.reconverge()
    }

    /// Degrades a link to `fraction` of nominal capacity (1.0 restores
    /// it). Routing is unaffected; rates are recomputed.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < fraction <= 1`.
    pub fn degrade_link(&mut self, link: LinkId, fraction: f64) {
        self.topo.throttle_link(link, fraction);
        self.dirty = true;
    }

    /// Re-converges routing after a topology change and repairs the
    /// active flow set: reroute where possible, park otherwise, resume
    /// parked flows that have a route again.
    fn reconverge(&mut self) -> FaultImpact {
        self.routes.recompute(&self.topo);
        self.stats.route_recomputes += 1;
        let mut impact = FaultImpact::default();
        let mut i = 0;
        while i < self.active.len() {
            let broken = self.active[i]
                .path
                .iter()
                .any(|&l| !self.topo.link_is_up(l));
            if !broken {
                i += 1;
                continue;
            }
            let f = &self.active[i];
            match self
                .routes
                .path(&self.topo, f.spec.src, f.spec.dst, f.spec.tag)
            {
                Some(path) => {
                    impact.rerouted.push(f.id);
                    self.stats.flows_rerouted += 1;
                    self.active[i].path = path;
                    i += 1;
                }
                None => {
                    let mut f = self.active.swap_remove(i);
                    f.path.clear();
                    impact.parked.push(f.id);
                    self.stats.flows_parked += 1;
                    self.parked.push(f);
                }
            }
        }
        let mut j = 0;
        while j < self.parked.len() {
            let f = &self.parked[j];
            match self
                .routes
                .path(&self.topo, f.spec.src, f.spec.dst, f.spec.tag)
            {
                Some(path) => {
                    let mut f = self.parked.swap_remove(j);
                    f.path = path;
                    impact.resumed.push(f.id);
                    self.stats.flows_resumed += 1;
                    self.active.push(f);
                }
                None => j += 1,
            }
        }
        // Rates are stale against the rebuilt active set; drop them and
        // let the next refresh recompute from scratch.
        self.rates.clear();
        self.rates.resize(self.active.len(), 0.0);
        self.dirty = true;
        if self.sink.enabled() {
            self.sink.record(
                self.now,
                EventKind::Reconverged {
                    rerouted: impact.rerouted.len() as u32,
                    parked: impact.parked.len() as u32,
                    resumed: impact.resumed.len() as u32,
                },
            );
        }
        impact
    }

    /// Returns the next event, advancing simulation time to it.
    pub fn next_event(&mut self) -> Event {
        self.refresh_rates();

        let next_completion = self.earliest_completion();
        let next_timer = self.timers.peek().map(|Reverse((t, _, _))| t.0);

        match (next_completion, next_timer) {
            (None, None) => Event::Idle,
            (Some(tc), Some(tt)) if tt <= tc => self.fire_timer(tt),
            (None, Some(tt)) => self.fire_timer(tt),
            (Some(tc), _) => self.complete_batch(tc),
        }
    }

    /// Drains events until [`Event::Idle`], returning all completions.
    /// Convenience for tests and simple drivers with no timers.
    pub fn run_to_idle(&mut self) -> Vec<CompletedFlow> {
        let mut all = Vec::new();
        loop {
            match self.next_event() {
                Event::FlowsCompleted { mut flows, .. } => all.append(&mut flows),
                Event::Timer { .. } => {}
                Event::Idle => return all,
            }
        }
    }

    fn refresh_rates(&mut self) {
        if !self.dirty {
            return;
        }
        if self.active.is_empty() {
            self.rates.clear();
        } else if self.sink.enabled() {
            // Wall-clock epoch duration is a registry metric only — it
            // never enters the (deterministic) event trace.
            let t0 = std::time::Instant::now();
            self.model
                .allocate(&self.topo, &self.active, &mut self.rates);
            self.sink
                .observe("wall.epoch_alloc_secs", t0.elapsed().as_secs_f64());
        } else {
            self.model
                .allocate(&self.topo, &self.active, &mut self.rates);
        }
        debug_assert_eq!(self.rates.len(), self.active.len());
        // Pipelining floors: bytes moving through the floor path do not
        // traverse the constrained fabric, so raising the rate here does
        // not oversubscribe links.
        for (f, r) in self.active.iter().zip(self.rates.iter_mut()) {
            if f.spec.min_rate > 0.0 && *r < f.spec.min_rate {
                *r = f.spec.min_rate;
            }
        }
        self.stats.allocations += 1;
        if self.sink.enabled() {
            let mut paths: Vec<&[LinkId]> = self.active.iter().map(|f| f.path.as_slice()).collect();
            paths.sort_unstable();
            paths.dedup();
            let bundles = paths.len() as u32;
            let flows = self.active.len() as u32;
            self.sink
                .record(self.now, EventKind::EpochAllocated { flows, bundles });
        }
        self.dirty = false;
    }

    /// Earliest projected flow completion, if any flow can complete.
    fn earliest_completion(&self) -> Option<f64> {
        let mut best: Option<f64> = None;
        for (f, &r) in self.active.iter().zip(&self.rates) {
            let t = if f.remaining <= 0.0 || r.is_infinite() {
                self.now
            } else if r > 0.0 {
                self.now + f.remaining / r
            } else {
                continue; // Starved flow: no projected completion.
            };
            best = Some(best.map_or(t, |b: f64| b.min(t)));
        }
        best
    }

    /// Integrates flow progress (and probes) from `now` to `t`.
    fn advance_to(&mut self, t: f64) {
        let dt = t - self.now;
        if dt > 0.0 {
            // Probes first: they need the rates over the elapsed epoch.
            for probe in &mut self.probes {
                let link = probe.link();
                let rate: f64 = self
                    .active
                    .iter()
                    .zip(&self.rates)
                    .filter(|(f, _)| f.path.contains(&link))
                    .map(|(_, &r)| if r.is_finite() { r } else { 0.0 })
                    .sum();
                probe.record(self.now, t, rate);
            }
            for (f, &r) in self.active.iter_mut().zip(&self.rates) {
                if r.is_infinite() {
                    f.remaining = 0.0;
                } else if r > 0.0 {
                    f.remaining = (f.remaining - r * dt).max(0.0);
                }
            }
        }
        self.now = t;
    }

    fn fire_timer(&mut self, at: f64) -> Event {
        self.advance_to(at);
        let Reverse((_, _, key)) = self.timers.pop().expect("peeked timer must exist");
        Event::Timer { key, at }
    }

    fn complete_batch(&mut self, tc: f64) -> Event {
        self.advance_to(tc);
        // Complete every flow projected to finish within the slack window —
        // one event, one re-allocation, instead of a cascade. The tiny
        // epsilon absorbs floating-point residue left by `advance_to`.
        let slack = self.completion_slack + 1e-9;
        let finishes = |f: &ActiveFlow, r: f64| {
            f.remaining <= 0.0 || r.is_infinite() || (r > 0.0 && f.remaining / r <= slack)
        };
        let every = self
            .active
            .iter()
            .zip(&self.rates)
            .all(|(f, &r)| finishes(f, r));
        let mut done = Vec::with_capacity(if every { self.active.len() } else { 0 });
        let mut complete = |f: ActiveFlow| {
            self.spare_paths.push(f.path);
            done.push(CompletedFlow {
                id: f.id,
                spec: f.spec,
                started: f.started,
                finished: tc,
            });
        };
        if every {
            // Every flow ends: take them where they are, which for
            // flows started together is already the sort's id order.
            self.rates.clear();
            self.active.drain(..).for_each(complete);
        } else {
            let mut i = 0;
            while i < self.active.len() {
                if finishes(&self.active[i], self.rates[i]) {
                    self.rates.swap_remove(i);
                    complete(self.active.swap_remove(i));
                } else {
                    i += 1;
                }
            }
        }
        debug_assert!(!done.is_empty(), "completion event with no completed flows");
        self.stats.flows_completed += done.len() as u64;
        self.dirty = true;
        // Ids are unique, so an unstable sort is the stable order.
        done.sort_unstable_by_key(|f| f.id);
        if self.sink.enabled() {
            for f in &done {
                self.sink.record(
                    tc,
                    EventKind::FlowCompleted {
                        flow: f.id.0,
                        app: f.spec.app.0,
                        started: f.started,
                    },
                );
            }
        }
        Event::FlowsCompleted {
            flows: done,
            at: tc,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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

    fn two_server_sim() -> Simulation<FairShareFabric> {
        Simulation::new(
            Topology::single_switch(2, 100.0),
            FairShareFabric::default(),
        )
    }

    #[test]
    fn single_flow_completion_time() {
        let mut sim = two_server_sim();
        let s = sim.topo().servers().to_vec();
        sim.start_flow(spec(s[0], s[1], 500.0, 1));
        let done = sim.run_to_idle();
        assert_eq!(done.len(), 1);
        assert!((done[0].finished - 5.0).abs() < 1e-6);
        assert_eq!(sim.stats().flows_completed, 1);
    }

    #[test]
    fn two_flows_share_the_nic() {
        // Both flows leave server 0: the NIC link is the bottleneck.
        let mut sim = Simulation::new(
            Topology::single_switch(3, 100.0),
            FairShareFabric::default(),
        );
        let s = sim.topo().servers().to_vec();
        sim.start_flow(spec(s[0], s[1], 500.0, 1));
        sim.start_flow(spec(s[0], s[2], 500.0, 2));
        let done = sim.run_to_idle();
        assert_eq!(done.len(), 2);
        // 50 B/s each => 10 s (completions batch together).
        for d in &done {
            assert!((d.finished - 10.0).abs() < 1e-3, "{:?}", d.finished);
        }
    }

    #[test]
    fn second_flow_speeds_up_after_first_completes() {
        let mut sim = two_server_sim();
        let s = sim.topo().servers().to_vec();
        // Same src and dst: share the 100 B/s NIC. Flow A 100 B, flow B 300 B.
        sim.start_flow(spec(s[0], s[1], 100.0, 1));
        sim.start_flow(spec(s[0], s[1], 300.0, 2));
        let done = sim.run_to_idle();
        // A completes at 2 s (50 B/s), B has 200 B left, then runs at 100 B/s: 2 + 2 = 4 s.
        let a = done.iter().find(|d| d.spec.tag == 1).unwrap();
        let b = done.iter().find(|d| d.spec.tag == 2).unwrap();
        assert!((a.finished - 2.0).abs() < 1e-3, "a={}", a.finished);
        assert!((b.finished - 4.0).abs() < 1e-3, "b={}", b.finished);
    }

    #[test]
    fn a_new_flow_takes_a_completed_flows_path_buffer() {
        let mut sim = Simulation::new(
            Topology::single_switch(3, 100.0),
            FairShareFabric::default(),
        );
        let s = sim.topo().servers().to_vec();
        sim.start_flow(spec(s[0], s[1], 100.0, 1));
        let buffer = sim.active_flows()[0].path.as_ptr();
        assert_eq!(sim.run_to_idle().len(), 1);
        sim.start_flow(spec(s[2], s[0], 100.0, 2));
        let f = &sim.active_flows()[0];
        assert_eq!(f.path.as_ptr(), buffer);
        assert_eq!(
            Some(&f.path),
            sim.routes().path(sim.topo(), s[2], s[0], 2).as_ref()
        );
    }

    #[test]
    fn timers_interleave_with_completions() {
        let mut sim = two_server_sim();
        let s = sim.topo().servers().to_vec();
        sim.start_flow(spec(s[0], s[1], 1000.0, 1)); // Completes at 10 s.
        sim.schedule(5.0, 77);
        match sim.next_event() {
            Event::Timer { key, at } => {
                assert_eq!(key, 77);
                assert!((at - 5.0).abs() < 1e-12);
            }
            other => panic!("expected timer, got {other:?}"),
        }
        match sim.next_event() {
            Event::FlowsCompleted { at, .. } => assert!((at - 10.0).abs() < 1e-6),
            other => panic!("expected completion, got {other:?}"),
        }
    }

    #[test]
    fn timer_ordering_is_stable_for_equal_times() {
        let mut sim = two_server_sim();
        sim.schedule(1.0, 1);
        sim.schedule(1.0, 2);
        sim.schedule(1.0, 3);
        let mut keys = Vec::new();
        for _ in 0..3 {
            match sim.next_event() {
                Event::Timer { key, .. } => keys.push(key),
                other => panic!("expected timer, got {other:?}"),
            }
        }
        assert_eq!(keys, vec![1, 2, 3]);
    }

    #[test]
    fn zero_byte_flow_completes_immediately() {
        let mut sim = two_server_sim();
        let s = sim.topo().servers().to_vec();
        sim.start_flow(spec(s[0], s[1], 0.0, 9));
        match sim.next_event() {
            Event::FlowsCompleted { at, flows } => {
                assert_eq!(flows.len(), 1);
                assert_eq!(at, 0.0);
            }
            other => panic!("expected completion, got {other:?}"),
        }
    }

    #[test]
    fn same_host_flow_is_instant() {
        let mut sim = two_server_sim();
        let s = sim.topo().servers().to_vec();
        sim.start_flow(spec(s[0], s[0], 1e9, 1));
        let done = sim.run_to_idle();
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].finished, 0.0);
    }

    #[test]
    fn idle_when_nothing_scheduled() {
        let mut sim = two_server_sim();
        assert!(matches!(sim.next_event(), Event::Idle));
    }

    #[test]
    fn throttling_mid_run_slows_flows() {
        let mut sim = two_server_sim();
        let s = sim.topo().servers().to_vec();
        sim.start_flow(spec(s[0], s[1], 1000.0, 1));
        sim.schedule(5.0, 0);
        // Run to the timer: 500 B transferred.
        assert!(matches!(sim.next_event(), Event::Timer { .. }));
        // Throttle the NIC to 25%: remaining 500 B at 25 B/s = 20 s more.
        let nic = sim.topo().nic_link(s[0]);
        sim.topo_mut().throttle_link(nic, 0.25);
        match sim.next_event() {
            Event::FlowsCompleted { at, .. } => assert!((at - 25.0).abs() < 1e-6, "at={at}"),
            other => panic!("expected completion, got {other:?}"),
        }
    }

    #[test]
    fn probe_records_epoch_rates() {
        let mut sim = two_server_sim();
        let s = sim.topo().servers().to_vec();
        let nic = sim.topo().nic_link(s[0]);
        let p = sim.add_probe(nic, 1.0);
        sim.start_flow(spec(s[0], s[1], 300.0, 1));
        sim.run_to_idle();
        let series = sim.probe(p).throughput_series();
        assert_eq!(series.len(), 3);
        for v in series {
            assert!((v - 100.0).abs() < 1e-6);
        }
    }

    #[test]
    fn completion_slack_batches_near_simultaneous_finishes() {
        let mut sim = Simulation::new(
            Topology::single_switch(4, 100.0),
            FairShareFabric::default(),
        );
        sim.set_completion_slack(0.01);
        let s = sim.topo().servers().to_vec();
        // Three independent pairs with nearly equal sizes.
        sim.start_flow(spec(s[0], s[1], 100.0, 1));
        sim.start_flow(spec(s[2], s[3], 100.05, 2));
        match sim.next_event() {
            Event::FlowsCompleted { flows, .. } => assert_eq!(flows.len(), 2),
            other => panic!("expected batch, got {other:?}"),
        }
        assert_eq!(sim.stats().allocations, 1);
    }

    #[test]
    fn link_failure_parks_and_repair_resumes() {
        let mut sim = two_server_sim();
        let s = sim.topo().servers().to_vec();
        let id = sim.start_flow(spec(s[0], s[1], 1000.0, 1));
        sim.schedule(5.0, 0);
        assert!(matches!(sim.next_event(), Event::Timer { .. }));
        // At t=5 the flow has 500 B left; the NIC fails — no alternate
        // path on a single switch, so the flow parks whole.
        let nic = sim.topo().nic_link(s[0]);
        let impact = sim.fail_link(nic);
        assert_eq!(impact.parked, vec![id]);
        assert!(sim.active_flows().is_empty());
        assert_eq!(sim.parked_flows().len(), 1);
        assert!((sim.parked_flows()[0].remaining - 500.0).abs() < 1e-9);
        // Repair at t=10: the flow resumes and finishes its 500 B by 15.
        sim.schedule(10.0, 1);
        assert!(matches!(sim.next_event(), Event::Timer { .. }));
        let impact = sim.restore_link(nic);
        assert_eq!(impact.resumed, vec![id]);
        let done = sim.run_to_idle();
        assert_eq!(done.len(), 1);
        assert!(
            (done[0].finished - 15.0).abs() < 1e-6,
            "{}",
            done[0].finished
        );
        assert_eq!(sim.stats().flows_parked, 1);
        assert_eq!(sim.stats().flows_resumed, 1);
    }

    #[test]
    fn redundant_fabric_reroutes_around_failed_uplink() {
        use crate::topology::SpineLeafConfig;
        let topo = Topology::spine_leaf(&SpineLeafConfig::tiny(2));
        let mut sim = Simulation::new(topo, FairShareFabric::default());
        let s = sim.topo().servers().to_vec();
        let (a, b) = (s[0], s[s.len() - 1]);
        let id = sim.start_flow(spec(a, b, 1e6, 42));
        // Fail the first hop past the NIC (a ToR uplink) in both
        // directions; the second uplink keeps the pair connected.
        let uplink = sim.active_flows()[0].path[1];
        let reverse = sim.topo().reverse_of(uplink).unwrap();
        let impact = sim.fail_link(uplink);
        let _ = sim.fail_link(reverse);
        assert_eq!(impact.rerouted, vec![id]);
        assert!(impact.parked.is_empty());
        let new_path = sim.active_flows()[0].path.clone();
        assert!(!new_path.contains(&uplink) && !new_path.contains(&reverse));
        let done = sim.run_to_idle();
        assert_eq!(done.len(), 1);
        assert_eq!(sim.stats().flows_rerouted, 1);
        assert!(sim.stats().route_recomputes >= 2);
    }

    #[test]
    fn flow_started_during_outage_parks_then_runs() {
        let mut sim = two_server_sim();
        let s = sim.topo().servers().to_vec();
        let nic = sim.topo().nic_link(s[0]);
        sim.fail_link(nic);
        let id = sim.start_flow(spec(s[0], s[1], 200.0, 3));
        assert_eq!(sim.parked_flows().len(), 1);
        sim.schedule(4.0, 0);
        assert!(matches!(sim.next_event(), Event::Timer { .. }));
        let impact = sim.restore_link(nic);
        assert_eq!(impact.resumed, vec![id]);
        let done = sim.run_to_idle();
        assert!(
            (done[0].finished - 6.0).abs() < 1e-6,
            "{}",
            done[0].finished
        );
    }

    #[test]
    fn switch_failure_parks_everything_until_repair() {
        let mut sim = Simulation::new(
            Topology::single_switch(4, 100.0),
            FairShareFabric::default(),
        );
        let s = sim.topo().servers().to_vec();
        sim.start_flow(spec(s[0], s[1], 100.0, 1));
        sim.start_flow(spec(s[2], s[3], 100.0, 2));
        let sw = NodeId(0);
        let impact = sim.fail_node(sw);
        assert_eq!(impact.parked.len(), 2);
        // Parked flows produce no events: the sim is idle (drivers see
        // this as "stuck" if no repair is scheduled).
        assert!(matches!(sim.next_event(), Event::Idle));
        let impact = sim.restore_node(sw);
        assert_eq!(impact.resumed.len(), 2);
        let done = sim.run_to_idle();
        assert_eq!(done.len(), 2);
    }

    #[test]
    fn degrade_link_slows_flows_without_rerouting() {
        let mut sim = two_server_sim();
        let s = sim.topo().servers().to_vec();
        sim.start_flow(spec(s[0], s[1], 1000.0, 1));
        let nic = sim.topo().nic_link(s[0]);
        sim.degrade_link(nic, 0.5);
        let done = sim.run_to_idle();
        assert!((done[0].finished - 20.0).abs() < 1e-6);
        assert_eq!(sim.stats().route_recomputes, 0);
    }

    #[test]
    #[should_panic(expected = "no route")]
    fn unreachable_on_healthy_topology_still_panics() {
        let mut topo = Topology::new();
        let a = topo.add_node(crate::topology::NodeKind::Server, "a");
        let b = topo.add_node(crate::topology::NodeKind::Server, "b");
        let sw = topo.add_node(crate::topology::NodeKind::Switch, "sw");
        topo.add_link(a, sw, 1.0);
        let mut sim = Simulation::new(topo, FairShareFabric::default());
        sim.start_flow(spec(a, b, 1.0, 1));
    }

    #[test]
    #[should_panic(expected = "in the past")]
    fn past_timer_rejected() {
        let mut sim = two_server_sim();
        let s = sim.topo().servers().to_vec();
        sim.start_flow(spec(s[0], s[1], 100.0, 1));
        sim.run_to_idle(); // now == 1 s.
        sim.schedule(0.5, 0);
    }

    #[test]
    fn traced_run_records_the_flow_lifecycle() {
        use saba_telemetry::Tracer;
        let mut sim = Simulation::with_telemetry(
            Topology::single_switch(2, 100.0),
            FairShareFabric::default(),
            Tracer::new(64),
        );
        let s = sim.topo().servers().to_vec();
        sim.start_flow(spec(s[0], s[1], 500.0, 1));
        sim.run_to_idle();
        let trace = sim.into_sink();
        let kinds: Vec<_> = trace.events().map(|e| e.kind.name()).collect();
        // The final epoch is the empty re-allocation after the last
        // completion (it counts in `SimStats::allocations` too).
        assert_eq!(
            kinds,
            vec![
                "flow_started",
                "epoch_allocated",
                "flow_completed",
                "epoch_allocated"
            ]
        );
        let completed = trace
            .events()
            .find(|e| e.kind.name() == "flow_completed")
            .unwrap();
        assert_eq!(completed.t, 5.0);
        assert!(saba_telemetry::validate_jsonl(&trace.to_jsonl()).is_ok());
    }

    #[test]
    fn traced_fault_run_records_reconvergence() {
        use saba_telemetry::{EventKind, Tracer};
        let mut sim = Simulation::with_telemetry(
            Topology::single_switch(2, 100.0),
            FairShareFabric::default(),
            Tracer::new(64),
        );
        let s = sim.topo().servers().to_vec();
        sim.start_flow(spec(s[0], s[1], 1000.0, 1));
        let nic = sim.topo().nic_link(s[0]);
        sim.fail_link(nic);
        sim.restore_link(nic);
        sim.run_to_idle();
        let trace = sim.into_sink();
        let reconverged: Vec<_> = trace
            .events()
            .filter_map(|e| match &e.kind {
                EventKind::Reconverged {
                    parked, resumed, ..
                } => Some((*parked, *resumed)),
                _ => None,
            })
            .collect();
        assert_eq!(reconverged, vec![(1, 0), (0, 1)]);
    }

    #[test]
    fn traced_epochs_report_bundles() {
        use saba_telemetry::{EventKind, Tracer};
        let mut sim = Simulation::with_telemetry(
            Topology::single_switch(3, 100.0),
            FairShareFabric::default(),
            Tracer::new(64),
        );
        let s = sim.topo().servers().to_vec();
        // Two flows on the same path (one bundle) plus one distinct.
        sim.start_flow(spec(s[0], s[1], 100.0, 1));
        sim.start_flow(spec(s[0], s[1], 100.0, 1));
        sim.start_flow(spec(s[2], s[1], 100.0, 2));
        sim.next_event();
        let trace = sim.into_sink();
        let epoch = trace
            .events()
            .find_map(|e| match e.kind {
                EventKind::EpochAllocated { flows, bundles } => Some((flows, bundles)),
                _ => None,
            })
            .unwrap();
        assert_eq!(epoch, (3, 2));
    }

    #[test]
    fn null_and_traced_runs_agree_exactly() {
        use saba_telemetry::{TelemetrySink, Tracer};
        // The NullSink and Tracer instantiations must integrate
        // identical trajectories: telemetry observes, never perturbs.
        fn drive<S: TelemetrySink>(mut sim: Simulation<FairShareFabric, S>) -> Vec<(FlowId, f64)> {
            let s = sim.topo().servers().to_vec();
            sim.start_flow(spec(s[0], s[1], 500.0, 1));
            sim.start_flow(spec(s[2], s[3], 750.0, 2));
            sim.run_to_idle()
                .iter()
                .map(|d| (d.id, d.finished))
                .collect()
        }
        let plain = drive(Simulation::new(
            Topology::single_switch(4, 100.0),
            FairShareFabric::default(),
        ));
        let traced = drive(Simulation::with_telemetry(
            Topology::single_switch(4, 100.0),
            FairShareFabric::default(),
            Tracer::new(1024),
        ));
        assert_eq!(plain, traced);
    }

    #[test]
    fn probes_export_into_the_registry() {
        use saba_telemetry::Registry;
        let mut sim = two_server_sim();
        let s = sim.topo().servers().to_vec();
        let nic = sim.topo().nic_link(s[0]);
        sim.add_probe(nic, 1.0);
        sim.start_flow(spec(s[0], s[1], 300.0, 1));
        sim.run_to_idle();
        let mut registry = Registry::new();
        sim.export_probes(&mut registry);
        let name = format!("port.l{}.utilization", nic.0);
        let h = registry.histogram(&name).unwrap();
        assert_eq!(h.count(), 3); // Three 1-second buckets at 100%.
        assert_eq!(h.max(), Some(1.0));
        assert_eq!(
            registry.gauge(&format!("port.l{}.total_bytes", nic.0)),
            Some(300.0)
        );
    }
}
