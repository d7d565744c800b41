//! The epoch engine (§5.4): one controller, two policies.
//!
//! Eq. 2 is separable per output port, so both of the paper's designs
//! run the same per-port computation; they differ only in *where the
//! state comes from*. [`Controller`] owns everything they share — the
//! connection table and §7.2 path detection, the refcounted
//! link → member index and its dirty set, the parallel prewarm, the
//! serial sweep, the PL → queue aggregation, the (occupancy, config)
//! diff, the counters and the solve timing — and a statically
//! dispatched [`Policy`] supplies the rest:
//!
//! | seam | [`Central`](super::central::Central) | [`Distributed`](super::distributed::Distributed) |
//! |---|---|---|
//! | member on a port | `AppId` with its sticky PL | PL |
//! | memo key → solve | none — the exact dual solve of every port, at any width, writes into the visit's weight buffer (one app: `[C_saba]`, no solve) | PL set → the same exact solve over the PLs' centroid surrogates |
//! | PL and queue mapper | online `PlAssigner` (deferred full sweep when the published centroids move) | offline `MappingDb` |
//! | partition | one domain | link shards |
//! | memo purge | none: there is no memo (a refit rewrites its workload's surrogate slot) | entries naming a PL whose centroid moved (its surrogate is refit) |
//!
//! A port visit costs O(members) and allocates only what it emits,
//! whether or not the controller ever saw the port's members before. It
//! copies the link's sorted member row and the members' PLs into
//! buffers the engine keeps; gets the port's Eq. 2 solution into its
//! weight buffer — a memoized one through a borrowed slice, a memo miss
//! solved and stored, and a port the policy does not memoize
//! ([`Policy::key`] is `None`) solved in place by
//! [`Policy::solve_into`]; folds the PLs into a `u16` set and walks the
//! §5.3.2 hierarchy for that set's queue table
//! ([`QueueMapper::queues_for`], over bit sets on the stack, nothing
//! remembered); sums each member's
//! weight into its PL's queue in member order; and diffs the result
//! against a dense per-link table of what the port runs. Same member
//! order ⇒ same solve input ⇒ same queue table ⇒ same summation order:
//! which containers hold the state, and whether a solution was
//! remembered or recomputed, cannot reach an emitted bit
//! (`tests/sweep_bits.rs`), and `tests/sweep_allocs.rs` counts the
//! allocations.
//!
//! Path detection mirrors §7.2: the controller holds its own copy of
//! the fabric's forwarding tables (`Routes`, the stand-in for reading
//! switch forwarding tables via `infiniband-diags`) and resolves each
//! connection's path from them.

use crate::controller::queuemap::QueueMapper;
use crate::controller::{ControllerConfig, ControllerError, EpochInfo, SwitchUpdate};
use crate::fabric::PortQueueConfig;
use crate::sensitivity::SensitivityModel;
use saba_math::SolveScratch;
use saba_sim::ids::{AppId, LinkId, NodeId, ServiceLevel};
use saba_sim::routing::{LinkMembers, Routes};
use saba_sim::topology::Topology;
use saba_telemetry::{EventKind, Histogram, TelemetrySink};
use saba_workload::runtime::ConnEvent;
use std::collections::{HashMap, HashSet};
use std::fmt::Debug;
use std::hash::Hash;
use std::sync::Arc;

/// Running counters of one controller, used by the Fig. 12 overhead
/// study, the service tier's gauges and tests.
///
/// Every visit to an occupied port lands in exactly one of
/// [`Self::eq2_solves`] and [`Self::solves_skipped`]; a vacated port
/// (visited, no members left) lands in neither. So
/// `eq2_solves + solves_skipped + vacated visits == ports_dirty`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EpochStats {
    /// Applications registered over the lifetime.
    pub registrations: u64,
    /// Connections created.
    pub conns_created: u64,
    /// Connections destroyed.
    pub conns_destroyed: u64,
    /// Connection requests forwarded between link shards (§5.4
    /// "communicating with the next controller on the path"); always 0
    /// on the one-domain centralized flavour.
    pub forwards: u64,
    /// Ports reprogrammed.
    pub ports_reconfigured: u64,
    /// Occupied-port visits for which an Eq. 2 problem was solved: a
    /// memo miss (the parallel prewarm's solves included) or the direct
    /// solve of a port the policy does not memoize.
    pub eq2_solves: u64,
    /// Ports visited across all epochs (dirty-set sizes summed).
    pub ports_dirty: u64,
    /// Occupied-port visits for which none was: a memo hit, or a port
    /// with a single member, whose answer is `[C_saba]`.
    pub solves_skipped: u64,
    /// `SwitchUpdate`s suppressed because the recomputed configuration
    /// matched what the port already runs.
    pub queue_updates_diffed: u64,
}

impl EpochStats {
    /// Fraction of occupied-port visits that solved no Eq. 2 problem
    /// (`skipped / (skipped + solved)`: memo hits and single-member
    /// ports), the service tier's `controller.prewarm_hit_rate` gauge.
    /// `None` before any visit. On the centralized flavour, which solves
    /// every port rather than remembering any, this is the single-member
    /// share — a low value there says ports are contended, not that a
    /// cache is cold.
    pub fn cache_hit_rate(&self) -> Option<f64> {
        let total = self.solves_skipped + self.eq2_solves;
        (total > 0).then(|| self.solves_skipped as f64 / total as f64)
    }
}

impl std::ops::AddAssign for EpochStats {
    fn add_assign(&mut self, o: Self) {
        self.registrations += o.registrations;
        self.conns_created += o.conns_created;
        self.conns_destroyed += o.conns_destroyed;
        self.forwards += o.forwards;
        self.ports_reconfigured += o.ports_reconfigured;
        self.eq2_solves += o.eq2_solves;
        self.ports_dirty += o.ports_dirty;
        self.solves_skipped += o.solves_skipped;
        self.queue_updates_diffed += o.queue_updates_diffed;
    }
}

/// What a controller flavour supplies to the shared epoch engine.
///
/// A policy owns the application registry, the application → PL
/// mapping and, if it keeps one, the Eq. 2 memo — and decides, per
/// port, whether the memo is worth asking ([`Self::key`]); a port it
/// does not memoize is solved in place by [`Self::solve_into`], which
/// is how the central policy answers every port. [`Self::solve`] must
/// be a pure function of `&self` and the key: the parallel prewarm
/// calls it from worker threads and relies on that for bit-identity
/// with the serial sweep. A port's solution is one weight per member,
/// in member order.
pub trait Policy: Clone + Debug + Sync {
    /// What a port's membership set is made of.
    type Member: Copy + Ord + Hash + Debug + Send + Sync;
    /// What an Eq. 2 solution is memoized under.
    type Key: Clone + Eq + Hash + Send + Sync;

    /// Admits `app` and returns its PL.
    fn register(
        &mut self,
        cfg: &ControllerConfig,
        app: AppId,
        workload: &str,
    ) -> Result<usize, ControllerError>;

    /// Forgets a registered `app`, purging whatever memoized solutions
    /// its departure invalidates.
    fn unregister(&mut self, app: AppId);

    /// Absorbs a re-fitted sensitivity model and returns the members
    /// whose ports must be revisited (empty: nothing changed).
    fn update_model(
        &mut self,
        cfg: &ControllerConfig,
        model: &SensitivityModel,
    ) -> Vec<Self::Member>;

    /// The member `app`'s connections are charged as; `None` if `app`
    /// is not registered.
    fn member(&self, app: AppId) -> Option<Self::Member>;

    /// The PL of a member present on some port.
    fn pl(&self, member: Self::Member) -> usize;

    /// The PL hierarchy the current mapping was built against.
    fn mapper(&self) -> &QueueMapper;

    /// Called once before every epoch (`force`: a full recompute).
    /// Returns whether the dirty set must widen to every occupied port.
    fn begin_epoch(&mut self, _force: bool) -> bool {
        false
    }

    /// The memoized solution for a port with these members (and their
    /// PLs, index-aligned), if any. A policy that memoizes nothing
    /// keeps the default, like the three methods below.
    fn cached(&self, _members: &[Self::Member], _pls: &[usize]) -> Option<&[f64]> {
        None
    }

    /// The memo key [`Self::cached`] looked up, or `None` for a port
    /// the policy does not memoize — solving it costs less than
    /// remembering it — which [`Self::solve_into`] answers instead.
    fn key(&self, _members: &[Self::Member], _pls: &[usize]) -> Option<Self::Key> {
        None
    }

    /// Solves Eq. 2 for `key`. Never called on a policy whose
    /// [`Self::key`] is always `None`.
    fn solve(
        &self,
        _cfg: &ControllerConfig,
        _key: &Self::Key,
        _scratch: &mut SolveScratch,
    ) -> Vec<f64> {
        unreachable!("this policy memoizes no port")
    }

    /// Memoizes a solution.
    fn store(&mut self, _key: Self::Key, _weights: Vec<f64>) {
        unreachable!("this policy memoizes no port")
    }

    /// Solves a port without a memo key, appending its solution to
    /// `weights`; returns whether an Eq. 2 problem was solved (a lone
    /// member's answer needs none). Never called on a policy whose
    /// [`Self::key`] is always `Some`.
    fn solve_into(
        &self,
        _cfg: &ControllerConfig,
        _members: &[Self::Member],
        _scratch: &mut SolveScratch,
        _weights: &mut Vec<f64>,
    ) -> bool {
        unreachable!("this policy memoizes every port")
    }

    /// Number of link shards the fabric is partitioned into.
    fn num_shards(&self) -> usize {
        1
    }

    /// The shard owning `link`.
    fn shard_of(&self, _link: LinkId) -> usize {
        0
    }
}

/// A Saba controller: the shared epoch engine over one [`Policy`].
///
/// On every register / deregister / `conn_create` / `conn_destroy` it
/// re-solves Eq. 2 for the ports whose membership set changed and emits
/// [`SwitchUpdate`]s (Fig. 7).
#[derive(Debug, Clone)]
pub struct Controller<P: Policy> {
    cfg: ControllerConfig,
    /// The fabric and its forwarding tables are only read once built,
    /// so a clone shares them — lazily derived distance fields included.
    topo: Arc<Topology>,
    routes: Arc<Routes>,
    pub(super) policy: P,
    conns: HashMap<(AppId, u64), Vec<LinkId>>,
    /// Reference-counted link → member reverse index; the source of
    /// dirty-port decisions (membership-set transitions only).
    pub(super) members: LinkMembers<P::Member>,
    /// Last configuration emitted per link, `None` while the switch
    /// still runs its factory default. Event-path epochs diff against
    /// this to suppress no-op updates.
    programmed: Vec<Option<PortQueueConfig>>,
    /// Worker threads for independent per-port Eq. 2 solves (1 = serial).
    solver_threads: usize,
    scratch: SolveScratch,
    /// What the port visit under way reads, in buffers that outlive it
    /// (a visit allocates nothing but the configuration it emits): the
    /// port's members, ascending; their PLs, index-aligned; the port's
    /// Eq. 2 solution, then one weight per member.
    row: Vec<P::Member>,
    pls: Vec<usize>,
    weights: Vec<f64>,
    last_epoch: EpochInfo,
    stats: EpochStats,
    solve_timing: bool,
    last_solve_secs: f64,
    solve_secs_total: f64,
    solve_hist: Histogram,
}

impl<P: Policy> Controller<P> {
    /// The engine over `policy`, with forwarding tables computed from
    /// `topo` — the §7.2 path-detection step.
    pub(super) fn with_policy(cfg: ControllerConfig, topo: &Topology, policy: P) -> Self {
        Self {
            cfg,
            topo: Arc::new(topo.clone()),
            routes: Arc::new(Routes::compute(topo)),
            policy,
            conns: HashMap::new(),
            members: LinkMembers::new(topo.num_links()),
            programmed: vec![None; topo.num_links()],
            solver_threads: 1,
            scratch: SolveScratch::new(),
            row: Vec::new(),
            pls: Vec::new(),
            weights: Vec::new(),
            last_epoch: EpochInfo::default(),
            stats: EpochStats::default(),
            solve_timing: false,
            last_solve_secs: 0.0,
            solve_secs_total: 0.0,
            solve_hist: Histogram::new(),
        }
    }

    /// Enables wall-clock timing of every reprogramming batch: each
    /// epoch then lands one sample in [`Self::solve_histogram`] (a
    /// sharded [`Self::recompute_all`]: one per shard) — the
    /// measurement behind the Fig. 12 controller-overhead study. Off by
    /// default: timing calls the OS clock, which the null-telemetry
    /// fast path must not.
    pub fn enable_solve_timing(&mut self) {
        self.solve_timing = true;
    }

    /// Wall-clock seconds of the most recent timed reprogramming batch.
    pub fn last_solve_secs(&self) -> f64 {
        self.last_solve_secs
    }

    /// Total wall-clock seconds across all timed batches; diff around a
    /// call sequence to time it (e.g. one `recompute_all`).
    pub fn solve_secs_total(&self) -> f64 {
        self.solve_secs_total
    }

    /// Distribution of per-batch solve times (empty until
    /// [`Self::enable_solve_timing`]).
    pub fn solve_histogram(&self) -> &Histogram {
        &self.solve_hist
    }

    /// Sets the number of worker threads used for the independent
    /// per-port Eq. 2 solves of a reprogramming batch (clamped to at
    /// least 1; 1 — the default — keeps the fully serial path).
    ///
    /// The parallel path is *bit-identical* to the serial one: each
    /// missing memo entry is an independent solve, workers fill a
    /// per-thread [`SolveScratch`], and results are merged into the
    /// memo in the deterministic first-occurrence order the serial
    /// sweep would have produced. Stats counters also match exactly.
    /// Only memoized ports are prewarmed, so the central flavour, which
    /// memoizes none, has nothing to prewarm: its epochs are the serial
    /// ones whatever the thread count.
    pub fn set_solver_threads(&mut self, threads: usize) {
        self.solver_threads = threads.max(1);
    }

    /// The configuration.
    pub fn config(&self) -> &ControllerConfig {
        &self.cfg
    }

    /// The fabric the controller programs.
    pub fn topology(&self) -> &Topology {
        &self.topo
    }

    /// Counters.
    pub fn stats(&self) -> EpochStats {
        self.stats
    }

    /// Number of live connections.
    pub fn num_conns(&self) -> usize {
        self.conns.len()
    }

    /// Live connection keys, sorted (the backing map is unordered).
    pub fn conn_keys(&self) -> Vec<(AppId, u64)> {
        let mut keys: Vec<_> = self.conns.keys().copied().collect();
        keys.sort_unstable();
        keys
    }

    /// Whether `(app, tag)` is a live connection.
    pub fn has_conn(&self, app: AppId, tag: u64) -> bool {
        self.conns.contains_key(&(app, tag))
    }

    /// The PL / Service Level currently assigned to `app`.
    pub fn sl_of(&self, app: AppId) -> Option<ServiceLevel> {
        let member = self.policy.member(app)?;
        Some(ServiceLevel(self.policy.pl(member) as u8))
    }

    /// Number of link shards (1 for the centralized flavour).
    pub fn num_shards(&self) -> usize {
        self.policy.num_shards()
    }

    /// The shard owning `link`.
    pub fn shard_of_link(&self, link: LinkId) -> usize {
        self.policy.shard_of(link)
    }

    /// The scope of the most recent reprogramming epoch (for a sharded
    /// [`Self::recompute_all`], the last shard's batch).
    pub fn last_epoch(&self) -> EpochInfo {
        self.last_epoch
    }

    /// Records the most recent epoch's scope into a telemetry sink:
    /// one [`EventKind::EpochScope`] trace event at simulated time `t`.
    /// Guarded on [`TelemetrySink::enabled`], so a [`NullSink`] caller
    /// pays nothing.
    ///
    /// [`NullSink`]: saba_telemetry::NullSink
    pub fn record_epoch<S: TelemetrySink>(&self, t: f64, sink: &mut S) {
        if !sink.enabled() {
            return;
        }
        let e = self.last_epoch;
        sink.record(
            t,
            EventKind::EpochScope {
                full: e.full,
                dirty: u64::from(e.dirty),
                emitted: u64::from(e.emitted),
            },
        );
    }

    /// Registers an application (`app_register`, Fig. 7 ②): assigns a
    /// PL and returns the Service Level its connections must carry
    /// (Fig. 7 ③).
    pub fn register(
        &mut self,
        app: AppId,
        workload: &str,
    ) -> Result<ServiceLevel, ControllerError> {
        if self.policy.member(app).is_some() {
            return Err(ControllerError::AlreadyRegistered(app));
        }
        let pl = self.policy.register(&self.cfg, app, workload)?;
        self.stats.registrations += 1;
        Ok(ServiceLevel(pl as u8))
    }

    /// Deregisters an application (`app_deregister`, Fig. 7 ⑬),
    /// dropping any connections it still holds. All affected ports are
    /// reprogrammed in one epoch, so a port crossed by several of the
    /// application's connections is visited once.
    pub fn deregister(&mut self, app: AppId) -> Result<Vec<SwitchUpdate>, ControllerError> {
        let member = self
            .policy
            .member(app)
            .ok_or(ControllerError::UnknownApp(app))?;
        let leftover: Vec<(AppId, u64)> = self
            .conns
            .keys()
            .filter(|(a, _)| *a == app)
            .copied()
            .collect();
        let mut dirty = Vec::new();
        for key in leftover {
            let links = self.conns.remove(&key).expect("key just enumerated");
            self.release(member, &links, &mut dirty);
        }
        self.policy.unregister(app);
        Ok(self.epoch(dirty, false))
    }

    /// Replaces a workload's sensitivity model at runtime — the online
    /// re-profiler's push path (§4.2 drift). Every application keeps
    /// its PL (the §6 sticky-SL invariant); memoized solutions the
    /// refit invalidates are purged and only the ports the policy names
    /// as affected are revisited, in one incremental epoch. A refit
    /// that changes nothing runs no epoch at all.
    pub fn update_model(&mut self, model: &SensitivityModel) -> Vec<SwitchUpdate> {
        let touched = self.policy.update_model(&self.cfg, model);
        if touched.is_empty() {
            return Vec::new();
        }
        let dirty: Vec<LinkId> = self
            .members
            .occupied_links()
            .filter(|&l| self.members.members(l).any(|m| touched.contains(&m)))
            .collect();
        self.epoch(dirty, false)
    }

    /// Registers a new connection (`conn_create`, Fig. 7 ⑤): detects its
    /// path, performs a new allocation for the ports whose membership
    /// set changed (⑥), and returns the enforcement updates (⑦). On the
    /// sharded flavour the request travels shard to shard along the
    /// path (§5.4), each shard configuring the links it owns.
    pub fn conn_create(
        &mut self,
        app: AppId,
        src: NodeId,
        dst: NodeId,
        tag: u64,
    ) -> Result<Vec<SwitchUpdate>, ControllerError> {
        let dirty = self.charge(app, src, dst, tag)?;
        Ok(self.epoch(dirty, false))
    }

    /// Registers a connection *without* reprogramming any switch — bulk
    /// state loading for warm starts and for the Fig. 12 overhead study,
    /// which times one [`Self::recompute_all`] over a pre-built state.
    ///
    /// # Panics
    ///
    /// Panics if the app is unregistered, the tag is already live, or
    /// the route does not exist.
    pub fn preload_connection(&mut self, app: AppId, src: NodeId, dst: NodeId, tag: u64) {
        self.charge(app, src, dst, tag)
            .unwrap_or_else(|e| panic!("preload of connection {tag} failed: {e}"));
    }

    /// Removes a connection (`conn_destroy`, Fig. 7 ⑨), triggering a new
    /// allocation (⑩/⑪) for ports whose membership set changed.
    pub fn conn_destroy(
        &mut self,
        app: AppId,
        tag: u64,
    ) -> Result<Vec<SwitchUpdate>, ControllerError> {
        let links = self
            .conns
            .remove(&(app, tag))
            .ok_or(ControllerError::UnknownConnection(tag))?;
        self.stats.conns_destroyed += 1;
        let member = self
            .policy
            .member(app)
            .expect("connection implies registration");
        let mut dirty = Vec::new();
        self.release(member, &links, &mut dirty);
        Ok(self.epoch(dirty, false))
    }

    /// Feeds one runtime connection event through the controller.
    pub fn on_event(&mut self, ev: &ConnEvent) -> Result<Vec<SwitchUpdate>, ControllerError> {
        match *ev {
            ConnEvent::Created { app, src, dst, tag } => self.conn_create(app, src, dst, tag),
            ConnEvent::Destroyed { app, tag, .. } => self.conn_destroy(app, tag),
            ConnEvent::JobCompleted { app, .. } => self.deregister(app),
        }
    }

    /// Recomputes the configuration of every Saba-carrying port owned
    /// by `shard` — a recovered shard re-deriving its switch state from
    /// its connection counts (its peers kept serving; only its links
    /// went stale).
    ///
    /// # Panics
    ///
    /// Panics if `shard` is out of range.
    pub fn recompute_shard(&mut self, shard: usize) -> Vec<SwitchUpdate> {
        assert!(
            shard < self.policy.num_shards(),
            "shard {shard} out of range"
        );
        let links: Vec<LinkId> = self
            .members
            .occupied_links()
            .filter(|&l| self.policy.shard_of(l) == shard)
            .collect();
        self.epoch(links, true)
    }

    /// Recomputes the configuration of *every* port that carries Saba
    /// traffic, shard by shard — the whole-fabric calculation the
    /// Fig. 12 overhead study times, and the re-derivation after a
    /// total outage.
    pub fn recompute_all(&mut self) -> Vec<SwitchUpdate> {
        let mut all = self.recompute_shard(0);
        for shard in 1..self.policy.num_shards() {
            all.extend(self.recompute_shard(shard));
        }
        all
    }

    /// Detects the connection's path and charges it to the member
    /// index; returns the links whose membership set changed.
    fn charge(
        &mut self,
        app: AppId,
        src: NodeId,
        dst: NodeId,
        tag: u64,
    ) -> Result<Vec<LinkId>, ControllerError> {
        let member = self
            .policy
            .member(app)
            .ok_or(ControllerError::UnknownApp(app))?;
        if self.conns.contains_key(&(app, tag)) {
            return Err(ControllerError::DuplicateConnection(tag));
        }
        // Path detection (§7.2): the single static-ECMP path, or — with
        // multipath enabled — every link on any equal-cost shortest path.
        let links = if self.cfg.multipath {
            let links = self.routes.all_shortest_path_links(&self.topo, src, dst);
            if links.is_empty() && src != dst {
                return Err(ControllerError::Unreachable { src, dst });
            }
            links
        } else {
            self.routes
                .path(&self.topo, src, dst, tag)
                .ok_or(ControllerError::Unreachable { src, dst })?
        };
        // One inter-shard forward per shard transition on the path.
        self.stats.forwards += links
            .windows(2)
            .filter(|w| self.policy.shard_of(w[0]) != self.policy.shard_of(w[1]))
            .count() as u64;
        let dirty = links
            .iter()
            .copied()
            .filter(|&l| self.members.add(l, member))
            .collect();
        self.conns.insert((app, tag), links);
        self.stats.conns_created += 1;
        Ok(dirty)
    }

    /// Drops one connection's refcounts, appending the links whose
    /// membership set changed to `dirty`.
    fn release(&mut self, member: P::Member, links: &[LinkId], dirty: &mut Vec<LinkId>) {
        for &l in links {
            if self.members.remove(l, member) {
                dirty.push(l);
            }
        }
    }

    /// Runs one epoch over `links`, timed when timing is on. The policy
    /// may widen an event epoch to every occupied port (the deferred
    /// full sweep) — the diff still suppresses ports left unchanged.
    fn epoch(&mut self, mut links: Vec<LinkId>, force: bool) -> Vec<SwitchUpdate> {
        if self.policy.begin_epoch(force) {
            links.extend(self.members.occupied_links());
        }
        if !self.solve_timing {
            return self.reprogram_batch(links, force);
        }
        let t0 = std::time::Instant::now();
        let updates = self.reprogram_batch(links, force);
        let secs = t0.elapsed().as_secs_f64();
        self.last_solve_secs = secs;
        self.solve_secs_total += secs;
        self.solve_hist.record(secs);
        updates
    }

    /// Computes configurations for `links` (deduplicated, in id order)
    /// and returns the updates. With `force` (the recovery-style
    /// recompute paths) every port's configuration is emitted
    /// unconditionally; otherwise the diff against the last programmed
    /// state suppresses no-op updates.
    fn reprogram_batch(&mut self, mut links: Vec<LinkId>, force: bool) -> Vec<SwitchUpdate> {
        links.sort_unstable_by_key(|l| l.0);
        links.dedup();
        self.last_epoch = EpochInfo {
            full: force,
            dirty: links.len() as u32,
            emitted: 0,
        };
        self.stats.ports_dirty += links.len() as u64;
        // Parallel phase: solve every missing memo entry up front, so
        // the serial per-port sweep below finds every memoized port's
        // solution (ports the policy does not memoize are solved in the
        // sweep either way). Each prewarmed key is hit at least once in
        // the sweep (by the port that requested it), where the serial
        // path would have counted a solve instead of a skip — the
        // compensation below keeps the counters bit-identical to a
        // single-threaded run.
        let prewarmed = if self.solver_threads > 1 {
            self.prewarm(&links)
        } else {
            0
        };
        let mut updates = Vec::with_capacity(links.len());
        for link in links {
            let config = self.port_config(link);
            // A Saba-occupied port is programmed even when its computed
            // configuration happens to equal the factory default (one
            // application at C_saba = 1.0 computes exactly that), so the
            // diff keys on the (occupancy, config) pair: `programmed`
            // holds every occupied port's last emitted configuration,
            // and `None` means the switch still runs its default.
            let occupied = !self.members.is_empty(link);
            let programmed = &mut self.programmed[link.0 as usize];
            if !force {
                let unchanged = if occupied {
                    programmed.as_ref() == Some(&config)
                } else {
                    programmed.is_none()
                };
                if unchanged {
                    self.stats.queue_updates_diffed += 1;
                    continue;
                }
            }
            *programmed = occupied.then(|| config.clone());
            self.stats.ports_reconfigured += 1;
            updates.push(SwitchUpdate { link, config });
        }
        if prewarmed > 0 {
            debug_assert!(self.stats.solves_skipped >= prewarmed);
            self.stats.solves_skipped -= prewarmed;
            self.stats.eq2_solves += prewarmed;
        }
        self.last_epoch.emitted = updates.len() as u32;
        updates
    }

    /// Gathers the memo misses of one batch and solves them
    /// concurrently: the member set of every dirty port the policy
    /// memoizes is collected serially, the solves for keys not yet
    /// memoized run on
    /// [`saba_math::parallel_map_with`] workers with per-thread
    /// [`SolveScratch`] pools, and results land in the memo in
    /// first-occurrence order. Returns the number of solves performed
    /// so the caller can reconcile the hit/solve counters.
    ///
    /// Determinism: [`Policy::solve`] is a pure function of the key, so
    /// values are independent of scheduling.
    fn prewarm(&mut self, links: &[LinkId]) -> u64 {
        let mut jobs: Vec<P::Key> = Vec::new();
        let mut queued: HashSet<P::Key> = HashSet::new();
        for &link in links {
            if !self.read_row(link) {
                continue;
            }
            if self.policy.cached(&self.row, &self.pls).is_some() {
                continue;
            }
            let Some(key) = self.policy.key(&self.row, &self.pls) else {
                continue;
            };
            if queued.insert(key.clone()) {
                jobs.push(key);
            }
        }
        if jobs.is_empty() {
            return 0;
        }
        let (policy, cfg) = (&self.policy, &self.cfg);
        let solved: Vec<Vec<f64>> = saba_math::parallel_map_with(
            jobs.len(),
            self.solver_threads,
            SolveScratch::new,
            |scratch, j| policy.solve(cfg, &jobs[j], scratch),
        );
        let n = jobs.len() as u64;
        for (key, w) in jobs.into_iter().zip(solved) {
            self.policy.store(key, w);
        }
        n
    }

    /// Reads `link`'s members and their PLs into the visit buffers;
    /// `false` if the port is unoccupied.
    fn read_row(&mut self, link: LinkId) -> bool {
        self.row.clear();
        self.row.extend(self.members.members(link));
        self.pls.clear();
        self.pls.extend(self.row.iter().map(|&m| self.policy.pl(m)));
        !self.row.is_empty()
    }

    /// Builds the queue configuration for one port from the members
    /// currently crossing it (§5.1 weight calculation + §5.3 mapping).
    fn port_config(&mut self, link: LinkId) -> PortQueueConfig {
        if !self.read_row(link) {
            return PortQueueConfig::default();
        }
        let (members, pls, weights) = (&self.row, &self.pls, &mut self.weights);
        let (cfg, scratch) = (&self.cfg, &mut self.scratch);
        weights.clear();
        let solved = match self.policy.cached(members, pls) {
            Some(w) => {
                weights.extend_from_slice(w);
                false
            }
            None => match self.policy.key(members, pls) {
                Some(key) => {
                    let w = self.policy.solve(cfg, &key, scratch);
                    weights.extend_from_slice(&w);
                    self.policy.store(key, w);
                    true
                }
                None => self.policy.solve_into(cfg, members, scratch, weights),
            },
        };
        self.stats.eq2_solves += u64::from(solved);
        self.stats.solves_skipped += u64::from(!solved);

        // The hierarchy level at which the PLs present fit the queue
        // budget; a reserved non-Saba share (§3 co-existence) takes one
        // queue of that budget for itself.
        let reserved = self.cfg.c_saba < 1.0;
        let present = pls.iter().fold(0u16, |set, &pl| set | 1 << pl);
        let mapper = self.policy.mapper();
        let map = mapper.queues_for(present, self.cfg.queues_per_port - usize::from(reserved));

        // Queue weight = sum of the weights of its members (§5.3.2:
        // "assigns the sum of the bandwidth allocated to applications
        // associated with each queue as the weight of that queue"),
        // accumulated in member order.
        let mut qweights = vec![0.0; map.queues + usize::from(reserved)];
        for (&pl, &w) in pls.iter().zip(weights.iter()) {
            qweights[usize::from(map.sl_to_queue[pl])] += w;
        }
        // The reserved share sits on the last queue, which unmapped SLs
        // fall back to.
        let mut sl_to_queue = map.sl_to_queue;
        if reserved {
            qweights[map.queues] = 1.0 - self.cfg.c_saba;
            let active = mapper.pls();
            for (sl, q) in sl_to_queue.iter_mut().enumerate() {
                if !active.contains(&sl) {
                    *q = map.queues as u8;
                }
            }
        }
        for w in &mut qweights {
            *w = w.max(1e-6); // Guard against a zero queue weight.
        }
        PortQueueConfig::new(sl_to_queue, qweights)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::controller::central::CentralController;
    use crate::controller::distributed::{DistributedController, MappingDb};
    use crate::profiler::{Profiler, ProfilerConfig};
    use crate::sensitivity::SensitivityTable;
    use saba_sim::topology::SpineLeafConfig;
    use saba_workload::catalog;

    fn table() -> SensitivityTable {
        Profiler::new(ProfilerConfig {
            noise_sigma: 0.0,
            bw_points: vec![0.25, 0.5, 0.75, 1.0],
            degree: 2,
            ..Default::default()
        })
        .profile_all(&catalog())
        .unwrap()
    }

    fn central(topo: &Topology) -> CentralController {
        CentralController::new(ControllerConfig::default(), table(), topo)
    }

    fn distributed(topo: &Topology) -> DistributedController {
        let db = MappingDb::build(&table(), 16, 1);
        DistributedController::new(ControllerConfig::default(), db, topo, 4)
    }

    fn switch() -> Topology {
        Topology::single_switch(8, saba_sim::LINK_56G_BPS)
    }

    /// A sink that claims to be disabled but counts any event that
    /// reaches it anyway — the probe for the zero-cost guarantee.
    struct DisabledProbe {
        records: u32,
    }

    impl TelemetrySink for DisabledProbe {
        fn enabled(&self) -> bool {
            false
        }
        fn record(&mut self, _t: f64, _kind: EventKind) {
            self.records += 1;
        }
    }

    fn epoch_record_is_zero_cost<P: Policy>(mk: fn(&Topology) -> Controller<P>) {
        let topo = switch();
        let mut c = mk(&topo);
        c.register(AppId(0), "LR").unwrap();
        let s = topo.servers();
        c.conn_create(AppId(0), s[0], s[1], 1).unwrap();

        let mut probe = DisabledProbe { records: 0 };
        c.record_epoch(1.0, &mut probe);
        assert_eq!(probe.records, 0, "disabled sinks must see no payload");
        let mut null = saba_telemetry::NullSink;
        c.record_epoch(1.0, &mut null);

        // An enabled sink receives the last epoch's scope.
        let mut rec = saba_telemetry::Recorder::default();
        c.record_epoch(2.0, &mut rec);
        let events: Vec<_> = rec.trace.events().collect();
        assert_eq!(events.len(), 1);
        assert_eq!(
            events[0].kind,
            EventKind::EpochScope {
                full: false,
                dirty: 2,
                emitted: 2,
            }
        );
    }

    #[test]
    fn epoch_record_is_zero_cost_on_a_disabled_sink() {
        epoch_record_is_zero_cost(central);
        epoch_record_is_zero_cost(distributed);
    }

    fn second_conn_does_not_reprogram<P: Policy>(mk: fn(&Topology) -> Controller<P>) {
        let topo = switch();
        let mut c = mk(&topo);
        c.register(AppId(0), "LR").unwrap();
        let s = topo.servers();
        assert!(!c.conn_create(AppId(0), s[0], s[1], 1).unwrap().is_empty());
        // Same app, same path: the membership set at every port is
        // unchanged, so the epoch has an empty dirty set and emits
        // nothing.
        let updates = c.conn_create(AppId(0), s[0], s[1], 2).unwrap();
        assert!(updates.is_empty());
        assert_eq!(c.last_epoch(), EpochInfo::default());
        assert_eq!(c.num_conns(), 2);
    }

    #[test]
    fn second_conn_of_same_app_does_not_reprogram() {
        second_conn_does_not_reprogram(central);
        second_conn_does_not_reprogram(distributed);
    }

    fn solve_timing_samples_per_batch<P: Policy>(mk: fn(&Topology) -> Controller<P>) {
        let topo = switch();
        let mut c = mk(&topo);
        c.register(AppId(0), "LR").unwrap();
        let s = topo.servers();
        c.conn_create(AppId(0), s[0], s[1], 1).unwrap();
        assert_eq!(c.solve_histogram().count(), 0, "timing defaults off");
        assert_eq!(c.solve_secs_total(), 0.0);

        c.enable_solve_timing();
        c.recompute_all();
        // recompute_all reprograms shard by shard: one sample each.
        assert_eq!(c.solve_histogram().count(), c.num_shards() as u64);
        c.conn_create(AppId(0), s[0], s[2], 2).unwrap();
        // Plus one per event epoch.
        assert_eq!(c.solve_histogram().count(), c.num_shards() as u64 + 1);
        assert!(c.solve_secs_total() > 0.0);
        assert!(c.last_solve_secs() <= c.solve_secs_total());
    }

    #[test]
    fn solve_timing_is_off_by_default_and_samples_when_enabled() {
        solve_timing_samples_per_batch(central);
        solve_timing_samples_per_batch(distributed);
    }

    /// Drives a serial and an 8-thread controller in lockstep and
    /// returns the serial one.
    fn parallel_matches_serial<P: Policy>(mk: fn(&Topology) -> Controller<P>) -> Controller<P> {
        let topo = Topology::spine_leaf(&SpineLeafConfig::tiny(2));
        let (mut serial, mut par) = (mk(&topo), mk(&topo));
        par.set_solver_threads(8);
        let s = topo.servers();
        let workloads = catalog();
        // Spread connections over cross-pod paths (several shards per
        // batch), then funnel every app through one server pair so its
        // ports carry 40 members — wide ports must be bit-identical too.
        for i in 0..40u32 {
            let w = &workloads[i as usize % workloads.len()].name;
            assert_eq!(
                serial.register(AppId(i), w).unwrap(),
                par.register(AppId(i), w).unwrap()
            );
            let (a, b) = (
                s[i as usize % s.len()],
                s[s.len() - 1 - (i as usize % (s.len() / 2))],
            );
            let tag = u64::from(i) + 1;
            assert_eq!(
                serial.conn_create(AppId(i), a, b, tag).unwrap(),
                par.conn_create(AppId(i), a, b, tag).unwrap(),
                "spread conn {i}"
            );
        }
        for i in 0..40u32 {
            let tag = u64::from(i) + 100;
            assert_eq!(
                serial.conn_create(AppId(i), s[0], s[1], tag).unwrap(),
                par.conn_create(AppId(i), s[0], s[1], tag).unwrap(),
                "funnel conn {i}"
            );
        }
        // Churn back down, including full deregistrations (the funnel
        // stays wide through the forced recomputes below).
        for i in (0..40u32).step_by(3) {
            assert_eq!(
                serial.conn_destroy(AppId(i), u64::from(i) + 1).unwrap(),
                par.conn_destroy(AppId(i), u64::from(i) + 1).unwrap()
            );
        }
        for i in (0..40u32).step_by(7) {
            assert_eq!(
                serial.deregister(AppId(i)).unwrap(),
                par.deregister(AppId(i)).unwrap()
            );
        }
        // Forced recomputes, per shard and whole-fabric, exercise the
        // prewarm under `force`.
        for shard in 0..serial.num_shards() {
            assert_eq!(serial.recompute_shard(shard), par.recompute_shard(shard));
        }
        assert_eq!(serial.recompute_all(), par.recompute_all());
        let (ss, ps) = (serial.stats(), par.stats());
        assert_eq!(ss, ps, "stats must match the serial path exactly");
        // Skips are memo hits on what a flavour memoizes (the
        // distributed PL sets) and single-member ports — no central
        // port is ever a hit.
        assert!(ss.eq2_solves > 0 && ss.solves_skipped > 0);
        serial
    }

    #[test]
    fn parallel_solver_matches_serial_bit_for_bit() {
        let mut c = parallel_matches_serial(central);
        let widest = (0..c.members.num_links() as u32)
            .map(|l| c.apps_at(LinkId(l)).len())
            .max()
            .unwrap();
        assert!(widest > 32, "the funnel port is wide: {widest}");
        // Wide central ports are exact too, so the prewarm gathers
        // nothing on the central flavour.
        let occupied: Vec<LinkId> = c.members.occupied_links().collect();
        assert_eq!(c.prewarm(&occupied), 0);
        let d = parallel_matches_serial(distributed);
        assert!(d.stats().forwards > 0, "paths should span shards");
    }

    /// Every occupied-port visit is a solve or a skip, never both,
    /// never neither; a vacated port is neither. Checked per epoch over
    /// a forced sweep and a 400-event stream (no preloads, so a port is
    /// only ever vacated after it was programmed, and its visit emits).
    fn counters_partition_occupied_visits<P: Policy>(
        mk: fn(&Topology) -> Controller<P>,
        threads: usize,
    ) {
        let topo = Topology::spine_leaf(&SpineLeafConfig::tiny(2));
        let s = topo.servers();
        let workloads = catalog();
        let mut c = mk(&topo);
        c.set_solver_threads(threads);
        for app in 0..40u32 {
            let w = &workloads[app as usize % workloads.len()].name;
            c.register(AppId(app), w).unwrap();
        }
        use rand::{Rng, SeedableRng};
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(0x5aba_0019);
        let mut below = |n: usize| rng.gen_range(0..n);
        let mut live: Vec<(AppId, u64)> = Vec::new();
        let (mut vacated, mut single) = (0, 0);
        for tag in 0..401u64 {
            let before = c.stats();
            let updates = if tag == 200 {
                c.recompute_all()
            } else if live.len() < 30 || below(100) < 55 {
                let app = AppId(below(40) as u32);
                // Every application also funnels through one server
                // pair, so wide ports are in the stream.
                let (src, dst) = match below(3) {
                    0 => (0, 1),
                    _ => (below(s.len()), below(s.len())),
                };
                live.push((app, tag));
                c.conn_create(app, s[src], s[dst], tag).unwrap()
            } else {
                let (app, tag) = live.swap_remove(below(live.len()));
                c.conn_destroy(app, tag).unwrap()
            };
            let after = c.stats();
            let left = updates
                .iter()
                .filter(|u| c.members.is_empty(u.link))
                .count() as u64;
            vacated += left;
            single += updates
                .iter()
                .filter(|u| c.members.num_members(u.link) == 1)
                .count();
            assert_eq!(
                (after.eq2_solves - before.eq2_solves)
                    + (after.solves_skipped - before.solves_skipped)
                    + left,
                after.ports_dirty - before.ports_dirty,
                "event {tag}: solves + skips + vacated visits = visits"
            );
        }
        assert!(
            vacated > 10 && single > 20,
            "{vacated} vacated, {single} lone"
        );
        let st = c.stats();
        assert_eq!(st.eq2_solves + st.solves_skipped + vacated, st.ports_dirty);
    }

    #[test]
    fn every_occupied_visit_is_one_solve_or_one_skip() {
        for threads in [1, 8] {
            counters_partition_occupied_visits(central, threads);
            counters_partition_occupied_visits(distributed, threads);
        }
    }

    /// Regression: a second create on a live `(app, tag)` used to charge
    /// a second path and overwrite the first entry, whose refcounts were
    /// then never released — the application haunted those ports.
    fn duplicate_tag_is_rejected<P: Policy>(mk: fn(&Topology) -> Controller<P>) {
        let topo = switch();
        let s = topo.servers();
        let mut c = mk(&topo);
        let mut fresh = mk(&topo);
        for ctl in [&mut c, &mut fresh] {
            ctl.register(AppId(0), "LR").unwrap();
            ctl.register(AppId(1), "PR").unwrap();
            ctl.conn_create(AppId(0), s[0], s[1], 1).unwrap();
        }
        c.conn_create(AppId(1), s[0], s[1], 5).unwrap();
        assert_eq!(
            c.conn_create(AppId(1), s[2], s[3], 5).unwrap_err(),
            ControllerError::DuplicateConnection(5)
        );
        assert_eq!(c.num_conns(), 2, "the rejected create charged nothing");
        c.conn_destroy(AppId(1), 5).unwrap();
        // PR holds no connection any more: every port programs what a
        // controller that only ever saw LR's connection programs.
        assert_eq!(c.recompute_all(), fresh.recompute_all());
    }

    #[test]
    fn duplicate_connection_tag_is_rejected_and_leaks_nothing() {
        duplicate_tag_is_rejected(central);
        duplicate_tag_is_rejected(distributed);
    }
}
