//! The epoch engine (§5.4): one controller, two policies.
//!
//! Eq. 2 is separable per output port, so both of the paper's designs
//! run the same per-port computation; they differ only in *where the
//! state comes from*. [`Controller`] owns everything they share — the
//! connection table and §7.2 path detection, the refcounted
//! link → member index and its dirty set, the serial sweep, the
//! PL → queue aggregation, the (occupancy, config) diff, the counters
//! and the solve timing — and a statically dispatched [`Policy`]
//! supplies the rest:
//!
//! | seam | [`Central`](super::central::Central) | [`Distributed`](super::distributed::Distributed) |
//! |---|---|---|
//! | member on a port | `AppId` with its sticky PL | PL |
//! | [`Policy::weights_into`] | the exact dual solve of every port, at any width, into the visit's weight buffer (one app: `[C_saba]`, no solve); no memo | the same exact solve over the PLs' centroid surrogates, memoized by the port's `u16` PL set |
//! | PL and queue mapper | online `PlAssigner` (deferred full sweep when the published centroids move) | offline `MappingDb` |
//! | partition | one domain | link shards |
//! | memo purge | none: there is no memo (a refit rewrites its workload's surrogate slot) | the sets holding a PL whose centroid moved (its surrogate is refit) |
//!
//! A port visit costs O(members) and allocates only what it emits,
//! whether or not the controller ever saw the port's members before. It
//! copies the link's sorted member row and the members' PLs into
//! buffers the engine keeps; folds the PLs into a `u16` set; gets the
//! port's Eq. 2 solution into its weight buffer through
//! [`Policy::weights_into`] (remembered or solved in place, as the
//! policy chooses); walks the §5.3.2 hierarchy for that set's queue
//! table ([`QueueMapper::queues_for`], over bit sets on the stack,
//! nothing remembered); sums each member's weight into its PL's queue
//! in member order; and diffs the result against a dense per-link table
//! of what the port runs. Same member order ⇒ same solve input ⇒ same
//! queue table ⇒ same summation order: which containers hold the state,
//! and whether a solution was remembered or recomputed, cannot reach an
//! emitted bit (`tests/sweep_bits.rs`), and `tests/sweep_allocs.rs`
//! counts the allocations.
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
use std::collections::HashMap;
use std::fmt::Debug;
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
    /// memo miss, or the in-place solve of a contended port on a policy
    /// that keeps no memo.
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
    /// ports), the service tier's `controller.solve_skip_ratio` gauge.
    /// `None` before any visit. On the centralized flavour, which solves
    /// every port rather than remembering any, this is the single-member
    /// share — a low value there says ports are contended, not that a
    /// cache is cold.
    pub fn solve_skip_ratio(&self) -> Option<f64> {
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
/// mapping and, if it keeps one, the Eq. 2 memo, and answers every port
/// visit's Eq. 2 problem through [`Self::weights_into`]: one weight per
/// member, in member order.
pub trait Policy: Clone + Debug {
    /// What a port's membership set is made of.
    type Member: Copy + Ord + Debug;

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

    /// Appends the Eq. 2 solution of a port to `weights`, one weight
    /// per member in member order: remembered, or solved in place.
    /// `members` are the port's members, ascending; `pls` their PLs,
    /// index-aligned; `set` those PLs folded into a bit set. Returns
    /// whether an Eq. 2 problem was solved ([`EpochStats::eq2_solves`])
    /// or none was ([`EpochStats::solves_skipped`]: a memo hit, or a
    /// lone member's `[C_saba]` on a policy that keeps no memo).
    fn weights_into(
        &mut self,
        cfg: &ControllerConfig,
        members: &[Self::Member],
        pls: &[usize],
        set: u16,
        scratch: &mut SolveScratch,
        weights: &mut Vec<f64>,
    ) -> bool;

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

    /// Does nothing: every Eq. 2 solve runs on the calling thread, in
    /// the serial sweep. Kept only while the performance ledger
    /// (`ledger/src/epoch.rs`) still calls it.
    pub fn set_solver_threads(&mut self, _threads: usize) {}

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
        // A node outside the fabric has no route: refused before any
        // lookup indexes routing's tables with it, `src == dst` too.
        let nodes = self.topo.num_nodes();
        if src.0 as usize >= nodes || dst.0 as usize >= nodes {
            return Err(ControllerError::Unreachable { src, dst });
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
        self.last_epoch.emitted = updates.len() as u32;
        updates
    }

    /// Builds the queue configuration for one port from the members
    /// currently crossing it (§5.1 weight calculation + §5.3 mapping).
    fn port_config(&mut self, link: LinkId) -> PortQueueConfig {
        self.row.clear();
        self.row.extend(self.members.members(link));
        if self.row.is_empty() {
            return PortQueueConfig::default();
        }
        self.pls.clear();
        self.pls.extend(self.row.iter().map(|&m| self.policy.pl(m)));
        let (members, pls, weights) = (&self.row, &self.pls, &mut self.weights);
        let present = pls.iter().fold(0u16, |set, &pl| set | 1 << pl);
        weights.clear();
        let solved =
            self.policy
                .weights_into(&self.cfg, members, pls, present, &mut self.scratch, weights);
        self.stats.eq2_solves += u64::from(solved);
        self.stats.solves_skipped += u64::from(!solved);

        // The hierarchy level at which the PLs present fit the queue
        // budget; a reserved non-Saba share (§3 co-existence) takes one
        // queue of that budget for itself.
        let reserved = self.cfg.c_saba < 1.0;
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

    /// Every occupied-port visit is a solve or a skip, never both,
    /// never neither; a vacated port is neither. Checked per epoch over
    /// a forced sweep and a 400-event stream (no preloads, so a port is
    /// only ever vacated after it was programmed, and its visit emits).
    fn counters_partition_occupied_visits<P: Policy>(mk: fn(&Topology) -> Controller<P>) {
        let topo = Topology::spine_leaf(&SpineLeafConfig::tiny(2));
        let s = topo.servers();
        let workloads = catalog();
        let mut c = mk(&topo);
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
        counters_partition_occupied_visits(central);
        counters_partition_occupied_visits(distributed);
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
