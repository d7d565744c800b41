//! Controller crash, stale-weight degradation, and replay recovery.
//!
//! [`ResilientController`] is the simulator's crash model: it wraps a
//! [`ControllerHandle`] of either flavour and models what the paper's
//! §6 deployment would survive. (The allocation service does not use
//! it — a service shard recovers from its durable log.) Its two
//! recovery arms:
//!
//! * **Centralized crash** — the controller process dies and loses all
//!   in-memory state. Switches keep forwarding on their last-programmed
//!   (now *stale*) WFQ weights, applications keep running, and
//!   connection churn simply goes unanswered. On restart the controller
//!   replays the applications' re-registrations in their original
//!   order (the PL assigner is deterministic, so surviving apps get
//!   their PLs back), preloads the connections that are still alive,
//!   and reprograms every port from scratch.
//! * **Distributed crash** — the workload→PL mapping database is
//!   offline-replicated and the per-shard state survives, so recovery
//!   reconciles the controller with the churn it missed and re-derives
//!   port programs. When a single shard crashes only its links stop
//!   receiving weight updates; every other shard keeps allocating, and
//!   recovery is just [`ControllerHandle::recompute_shard`].
//!
//! Crash and recovery edges are traced into the sink the caller passes
//! with the simulated time of the call. Recovery wall-clock latency is
//! measured and reported through [`ResilienceStats`] and `wall.`
//! metrics for humans; it must never enter experiment CSVs or the trace
//! (it is nondeterministic).

use crate::injector::ControlAction;
use saba_core::controller::epoch::EpochStats;
use saba_core::controller::{ControllerHandle, SwitchUpdate};
use saba_sim::ids::{AppId, NodeId, ServiceLevel};
use saba_telemetry::{EventKind, Histogram, JsonValue, TelemetrySink};
use saba_workload::runtime::ConnEvent;
use std::collections::{BTreeMap, BTreeSet};
use std::time::Instant;

/// Counters describing how a run degraded and recovered.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ResilienceStats {
    /// Full controller crashes.
    pub crashes: u64,
    /// Distributed shard crashes.
    pub shard_crashes: u64,
    /// Recoveries completed (controller or shard).
    pub recoveries: u64,
    /// Connection events that arrived while the controller was down
    /// (absorbed by stale weights, replayed logically at recovery).
    pub stale_events: u64,
    /// Switch updates suppressed because their link's shard was down.
    pub updates_suppressed: u64,
    /// Registrations replayed during controller recoveries.
    pub replayed_registrations: u64,
    /// Live connections replayed during controller recoveries.
    pub replayed_connections: u64,
    /// Wall-clock duration of the most recent recovery, in
    /// microseconds. Diagnostics only — nondeterministic, never to be
    /// written into experiment CSVs.
    pub last_recovery_micros: u64,
}

/// A crash-survivable facade over either controller flavour.
///
/// Drives the inner controller exactly like a bare one — with nothing
/// down, [`Self::on_event`] returns the inner controller's updates
/// unfiltered — but additionally tracks the ground truth needed for
/// recovery: the ordered registration log and the set of live
/// connections.
pub struct ResilientController {
    inner: ControllerHandle,
    down: bool,
    down_shards: BTreeSet<usize>,
    /// Registration log in arrival order — replay order must match the
    /// original order for the deterministic PL assigner to reproduce
    /// the same PLs.
    registrations: Vec<(AppId, String)>,
    live_conns: BTreeMap<(AppId, u64), (NodeId, NodeId)>,
    stats: ResilienceStats,
    solve_timing: bool,
    /// Solve samples from controller incarnations that a crash
    /// replaced; [`Self::solve_histogram`] merges the live one in.
    solve_hist_archive: Histogram,
    /// Counters from replaced incarnations (a central recovery rebuilds
    /// the controller cold — same lifecycle as the solve histogram);
    /// [`Self::epoch_counters`] adds the live ones in.
    epoch_archive: EpochStats,
}

impl ResilientController {
    /// Wraps a controller of either flavour.
    pub fn new(inner: ControllerHandle) -> Self {
        Self {
            inner,
            down: false,
            down_shards: BTreeSet::new(),
            registrations: Vec::new(),
            live_conns: BTreeMap::new(),
            stats: ResilienceStats::default(),
            solve_timing: false,
            solve_hist_archive: Histogram::new(),
            epoch_archive: EpochStats::default(),
        }
    }

    /// Starts wall-clock timing of every inner controller solve batch.
    /// Survives crash/recovery: the replacement incarnation is timed
    /// too, and [`Self::solve_histogram`] spans all incarnations.
    pub fn enable_solve_timing(&mut self) {
        self.solve_timing = true;
        self.inner.enable_solve_timing();
    }

    /// Wall-clock solve durations across all controller incarnations.
    /// Diagnostics only (`wall.` metrics) — nondeterministic.
    pub fn solve_histogram(&self) -> Histogram {
        let mut hist = self.solve_hist_archive.clone();
        hist.merge(self.inner.solve_histogram());
        hist
    }

    /// The controller's counters (dirty ports visited, Eq. 2 solves
    /// skipped by the memo caches, updates suppressed by the
    /// programmed-state diff, …) summed across all incarnations.
    pub fn epoch_counters(&self) -> EpochStats {
        let mut e = self.epoch_archive;
        e += self.inner.stats();
        e
    }

    /// The recovery state a flight-recorder snapshot captures at a
    /// crash edge: what a post-mortem needs to judge whether replay
    /// could have reconstructed the controller.
    fn snapshot_state(&self) -> JsonValue {
        JsonValue::obj(vec![
            ("down", JsonValue::Bool(self.down)),
            (
                "down_shards",
                JsonValue::Arr(
                    self.down_shards
                        .iter()
                        .map(|&s| JsonValue::Num(s as f64))
                        .collect(),
                ),
            ),
            (
                "registrations",
                JsonValue::Num(self.registrations.len() as f64),
            ),
            ("live_conns", JsonValue::Num(self.live_conns.len() as f64)),
            ("crashes", JsonValue::Num(self.stats.crashes as f64)),
            (
                "shard_crashes",
                JsonValue::Num(self.stats.shard_crashes as f64),
            ),
            ("recoveries", JsonValue::Num(self.stats.recoveries as f64)),
            (
                "stale_events",
                JsonValue::Num(self.stats.stale_events as f64),
            ),
        ])
    }

    /// True while the whole controller is crashed.
    pub fn is_down(&self) -> bool {
        self.down
    }

    /// Counters so far.
    pub fn stats(&self) -> ResilienceStats {
        self.stats
    }

    /// The SL assigned to `app`, if it is registered.
    pub fn sl_of(&self, app: AppId) -> Option<ServiceLevel> {
        self.inner.sl_of(app)
    }

    /// Registers an application. Fails while the controller is down —
    /// callers are expected to retry after recovery (register-at-launch
    /// co-runs never hit this; it exists for completeness and tests).
    pub fn register(&mut self, app: AppId, workload: &str) -> Result<ServiceLevel, String> {
        if self.down {
            return Err("controller is down".to_string());
        }
        let sl = self
            .inner
            .register(app, workload)
            .map_err(|e| e.to_string())?;
        self.registrations.push((app, workload.to_string()));
        Ok(sl)
    }

    /// Feeds one connection event through the controller at simulated
    /// time `t`.
    ///
    /// While crashed, the event is only logged (the returned update set
    /// is empty — switches stay on stale weights); the log keeps the
    /// recovery ground truth current. While a shard is crashed, updates
    /// for its links are suppressed.
    pub fn on_event<S: TelemetrySink>(
        &mut self,
        ev: &ConnEvent,
        t: f64,
        sink: &mut S,
    ) -> Vec<SwitchUpdate> {
        self.log_event(ev);
        if self.down {
            self.stats.stale_events += 1;
            return Vec::new();
        }
        let updates = self
            .inner
            .on_event(ev)
            .expect("controller accepts events for registered jobs");
        self.inner.record_epoch(t, sink);
        self.filter_updates(updates)
    }

    /// Mirrors `ev` into the registration log and live-connection set.
    fn log_event(&mut self, ev: &ConnEvent) {
        match ev {
            ConnEvent::Created { app, src, dst, tag } => {
                self.live_conns.insert((*app, *tag), (*src, *dst));
            }
            ConnEvent::Destroyed { app, tag, .. } => {
                self.live_conns.remove(&(*app, *tag));
            }
            ConnEvent::JobCompleted { app, .. } => {
                self.registrations.retain(|(a, _)| a != app);
                self.live_conns.retain(|(a, _), _| a != app);
            }
        }
    }

    /// Drops updates addressed to links owned by a crashed shard.
    fn filter_updates(&mut self, mut updates: Vec<SwitchUpdate>) -> Vec<SwitchUpdate> {
        if !self.down_shards.is_empty() {
            let before = updates.len();
            let (inner, down) = (&self.inner, &self.down_shards);
            updates.retain(|u| !down.contains(&inner.shard_of_link(u.link)));
            self.stats.updates_suppressed += (before - updates.len()) as u64;
        }
        updates
    }

    /// Crashes the whole controller: in-memory state is lost, switches
    /// keep their current (soon stale) weights.
    pub fn crash<S: TelemetrySink>(&mut self, t: f64, sink: &mut S) {
        if !self.down {
            self.down = true;
            self.stats.crashes += 1;
            if sink.enabled() {
                sink.record(t, EventKind::ControllerCrash { shard: -1 });
                sink.snapshot(t, "controller-crash", self.snapshot_state());
            }
        }
    }

    /// Restarts the controller and returns the updates that re-program
    /// the fabric from the recovered state.
    ///
    /// The centralized flavour is rebuilt cold and replays the ordered
    /// registration log plus the still-live connections. The
    /// distributed flavour's state is replicated (offline mapping DB +
    /// per-shard logs), so recovery only reconciles it with the outage
    /// and re-derives port programs.
    pub fn recover<S: TelemetrySink>(&mut self, t: f64, sink: &mut S) -> Vec<SwitchUpdate> {
        if !self.down {
            return Vec::new();
        }
        let started = Instant::now();
        self.down = false;
        let apps_before = self.stats.replayed_registrations;
        let conns_before = self.stats.replayed_connections;
        let updates = match &mut self.inner {
            ControllerHandle::Central(old) => {
                let mut fresh = old.restarted();
                self.epoch_archive += old.stats();
                if self.solve_timing {
                    self.solve_hist_archive.merge(old.solve_histogram());
                    fresh.enable_solve_timing();
                }
                for (app, workload) in &self.registrations {
                    fresh
                        .register(*app, workload)
                        .expect("replay of a previously accepted registration");
                    self.stats.replayed_registrations += 1;
                }
                for (&(app, tag), &(src, dst)) in &self.live_conns {
                    fresh.preload_connection(app, src, dst, tag);
                    self.stats.replayed_connections += 1;
                }
                **old = fresh;
                old.recompute_all()
            }
            ControllerHandle::Distributed(c) => {
                // The distributed flavour's solver state survives the
                // crash (replicated mapping DB + per-shard logs), but
                // events that arrived while down were only recorded in
                // the ground-truth log, never applied. Reconcile the
                // inner controller with the log before re-deriving
                // port programs: drop apps whose jobs completed during
                // the outage (their connections go with them), drop
                // connections destroyed during it, then replay the
                // registrations and connections it never saw.
                for app in c.apps() {
                    if !self.registrations.iter().any(|(a, _)| *a == app) {
                        c.deregister(app).expect("app enumerated from inner");
                    }
                }
                for (app, tag) in c.conn_keys() {
                    if !self.live_conns.contains_key(&(app, tag)) {
                        c.conn_destroy(app, tag)
                            .expect("conn enumerated from inner");
                    }
                }
                for (app, workload) in &self.registrations {
                    if c.sl_of(*app).is_none() {
                        c.register(*app, workload)
                            .expect("replay of a previously accepted registration");
                        self.stats.replayed_registrations += 1;
                    }
                }
                for (&(app, tag), &(src, dst)) in &self.live_conns {
                    if !c.has_conn(app, tag) {
                        c.conn_create(app, src, dst, tag)
                            .expect("replay of a logged connection");
                        self.stats.replayed_connections += 1;
                    }
                }
                c.recompute_all()
            }
        };
        let replayed = (
            self.stats.replayed_registrations - apps_before,
            self.stats.replayed_connections - conns_before,
        );
        self.recovered(-1, replayed, started, t, sink);
        self.filter_updates(updates)
    }

    /// Counts one finished recovery and traces its edge.
    fn recovered<S: TelemetrySink>(
        &mut self,
        shard: i64,
        (replayed_apps, replayed_conns): (u64, u64),
        started: Instant,
        t: f64,
        sink: &mut S,
    ) {
        self.stats.recoveries += 1;
        self.stats.last_recovery_micros = started.elapsed().as_micros() as u64;
        if sink.enabled() {
            let kind = EventKind::ControllerRecover {
                shard,
                replayed_apps,
                replayed_conns,
            };
            sink.record(t, kind);
            let micros = self.stats.last_recovery_micros;
            sink.observe("wall.recovery_micros", micros as f64);
        }
    }

    /// The inner shard a schedule's `shard` index lands on — modulo the
    /// shard count, so schedules written for other tier sizes still
    /// land — or `None` on the centralized flavour, which has no shards.
    fn shard_index(&self, shard: usize) -> Option<usize> {
        match &self.inner {
            ControllerHandle::Central(_) => None,
            ControllerHandle::Distributed(c) => Some(shard % c.num_shards()),
        }
    }

    /// Crashes one shard of the distributed flavour (no-op for the
    /// centralized flavour).
    pub fn crash_shard<S: TelemetrySink>(&mut self, shard: usize, t: f64, sink: &mut S) {
        let Some(shard) = self.shard_index(shard) else {
            return;
        };
        if self.down_shards.insert(shard) {
            self.stats.shard_crashes += 1;
            if sink.enabled() {
                let shard = shard as i64;
                sink.record(t, EventKind::ControllerCrash { shard });
                sink.snapshot(t, "shard-crash", self.snapshot_state());
            }
        }
    }

    /// Restarts a crashed shard, re-deriving its port programs.
    pub fn recover_shard<S: TelemetrySink>(
        &mut self,
        shard: usize,
        t: f64,
        sink: &mut S,
    ) -> Vec<SwitchUpdate> {
        let Some(shard) = self.shard_index(shard) else {
            return Vec::new();
        };
        if !self.down_shards.remove(&shard) {
            return Vec::new();
        }
        let started = Instant::now();
        let updates = self.inner.recompute_shard(shard);
        self.recovered(shard as i64, (0, 0), started, t, sink);
        self.filter_updates(updates)
    }

    /// Applies one control-plane fault action at simulated time `t`,
    /// returning any updates recovery produced. RPC-window actions are
    /// not the controller's concern and return nothing.
    pub fn apply<S: TelemetrySink>(
        &mut self,
        action: &ControlAction,
        t: f64,
        sink: &mut S,
    ) -> Vec<SwitchUpdate> {
        match action {
            ControlAction::CrashController => {
                self.crash(t, sink);
                Vec::new()
            }
            ControlAction::RecoverController => self.recover(t, sink),
            ControlAction::CrashShard(s) => {
                self.crash_shard(*s, t, sink);
                Vec::new()
            }
            ControlAction::RecoverShard(s) => self.recover_shard(*s, t, sink),
            ControlAction::RpcDegradeStart { .. } | ControlAction::RpcDegradeEnd => Vec::new(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use saba_core::controller::{ControllerConfig, Flavour};
    use saba_core::profiler::{Profiler, ProfilerConfig};
    use saba_core::sensitivity::SensitivityTable;
    use saba_sim::topology::Topology;
    use saba_telemetry::{NullSink, Recorder};
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

    fn wrap(flavour: Flavour, topo: &Topology) -> ResilientController {
        let inner = ControllerHandle::new(flavour, ControllerConfig::default(), &table(), topo);
        ResilientController::new(inner)
    }

    fn central(topo: &Topology) -> ResilientController {
        wrap(Flavour::Central, topo)
    }

    fn distributed(topo: &Topology, shards: usize) -> ResilientController {
        wrap(Flavour::Distributed(shards), topo)
    }

    /// An untraced event at t = 0.
    fn feed(c: &mut ResilientController, ev: &ConnEvent) -> Vec<SwitchUpdate> {
        c.on_event(ev, 0.0, &mut NullSink)
    }

    fn created(app: u32, src: NodeId, dst: NodeId, tag: u64) -> ConnEvent {
        ConnEvent::Created {
            app: AppId(app),
            src,
            dst,
            tag,
        }
    }

    #[test]
    fn central_crash_recovery_replays_registrations_and_connections() {
        let topo = Topology::single_switch(4, 100.0);
        let servers = topo.servers().to_vec();
        let mut c = central(&topo);
        let sl_lr = c.register(AppId(0), "LR").unwrap();
        let sl_sort = c.register(AppId(1), "Sort").unwrap();
        let before = feed(&mut c, &created(0, servers[0], servers[1], 1));
        assert!(!before.is_empty());
        feed(&mut c, &created(1, servers[2], servers[3], (1 << 32) | 1));

        c.crash(0.0, &mut NullSink);
        assert!(c.is_down());
        // Churn during the outage: one new connection, one teardown.
        assert!(feed(&mut c, &created(0, servers[1], servers[2], 2)).is_empty());
        assert!(feed(
            &mut c,
            &ConnEvent::Destroyed {
                app: AppId(1),
                src: servers[2],
                dst: servers[3],
                tag: (1 << 32) | 1,
            }
        )
        .is_empty());
        assert!(
            c.register(AppId(2), "PR").is_err(),
            "down controller rejects"
        );

        let updates = c.recover(0.0, &mut NullSink);
        assert!(!updates.is_empty(), "recovery reprograms the fabric");
        let s = c.stats();
        assert_eq!(s.crashes, 1);
        assert_eq!(s.recoveries, 1);
        assert_eq!(s.stale_events, 2);
        assert_eq!(s.replayed_registrations, 2);
        assert_eq!(s.replayed_connections, 2, "conns 0/1 and 0/2 are live");
        // Same apps, same order, deterministic assigner: same SLs.
        assert_eq!(c.sl_of(AppId(0)), Some(sl_lr));
        assert_eq!(c.sl_of(AppId(1)), Some(sl_sort));
        // The recovered controller accepts post-recovery churn for
        // connections created before *and during* the outage.
        assert!(!feed(
            &mut c,
            &ConnEvent::Destroyed {
                app: AppId(0),
                src: servers[0],
                dst: servers[1],
                tag: 1,
            }
        )
        .is_empty());
        feed(
            &mut c,
            &ConnEvent::Destroyed {
                app: AppId(0),
                src: servers[1],
                dst: servers[2],
                tag: 2,
            },
        );
    }

    /// Regression: a full crash of the *distributed* flavour used to
    /// recover by re-deriving port programs only — events that arrived
    /// during the outage were logged but never applied to the inner
    /// controller, so the post-recovery destroy of a connection created
    /// while down panicked with `UnknownConnection` (first seen as a
    /// severity-2 crash of the resilience experiment at smoke scale).
    #[test]
    fn distributed_crash_recovery_reconciles_outage_events() {
        let topo = Topology::single_switch(4, 100.0);
        let servers = topo.servers().to_vec();
        let mut c = distributed(&topo, 2);
        c.register(AppId(0), "LR").unwrap();
        c.register(AppId(1), "Sort").unwrap();
        feed(&mut c, &created(0, servers[0], servers[1], 1));
        feed(&mut c, &created(1, servers[2], servers[3], (1 << 32) | 1));

        c.crash(0.0, &mut NullSink);
        // Outage churn: a new connection, a teardown of a pre-crash
        // connection, and a whole job completing.
        assert!(feed(&mut c, &created(0, servers[1], servers[2], 2)).is_empty());
        assert!(feed(
            &mut c,
            &ConnEvent::Destroyed {
                app: AppId(1),
                src: servers[2],
                dst: servers[3],
                tag: (1 << 32) | 1,
            }
        )
        .is_empty());
        assert!(feed(
            &mut c,
            &ConnEvent::JobCompleted {
                app: AppId(1),
                at: 1.0,
            }
        )
        .is_empty());

        let updates = c.recover(0.0, &mut NullSink);
        assert!(!updates.is_empty(), "recovery reprograms the fabric");
        let s = c.stats();
        assert_eq!(s.replayed_connections, 1, "the conn created while down");
        // Post-recovery churn on both the pre-crash and the outage-born
        // connection must be accepted (this is the line that panicked).
        assert!(!feed(
            &mut c,
            &ConnEvent::Destroyed {
                app: AppId(0),
                src: servers[1],
                dst: servers[2],
                tag: 2,
            }
        )
        .is_empty());
        feed(
            &mut c,
            &ConnEvent::Destroyed {
                app: AppId(0),
                src: servers[0],
                dst: servers[1],
                tag: 1,
            },
        );
    }

    #[test]
    fn crash_while_idle_recovers_to_empty_state() {
        let topo = Topology::single_switch(2, 100.0);
        let mut c = central(&topo);
        c.crash(0.0, &mut NullSink);
        let updates = c.recover(0.0, &mut NullSink);
        assert!(updates.is_empty(), "nothing to reprogram");
        assert_eq!(c.stats().recoveries, 1);
    }

    #[test]
    fn shard_crash_suppresses_only_its_links() {
        let topo = Topology::single_switch(4, 100.0);
        let servers = topo.servers().to_vec();
        let mut c = distributed(&topo, 2);
        c.register(AppId(0), "LR").unwrap();
        c.register(AppId(1), "Sort").unwrap();
        let full = feed(&mut c, &created(0, servers[0], servers[1], 1));
        assert!(!full.is_empty());

        fn shard_of(c: &ResilientController, u: &SwitchUpdate) -> usize {
            c.inner.shard_of_link(u.link)
        }

        c.crash_shard(0, 0.0, &mut NullSink);
        let filtered = feed(&mut c, &created(1, servers[1], servers[2], (1 << 32) | 1));
        for u in &filtered {
            assert_eq!(shard_of(&c, u), 1, "shard-0 updates must be suppressed");
        }
        assert!(c.stats().updates_suppressed > 0);

        let recovered = c.recover_shard(0, 0.0, &mut NullSink);
        assert!(!recovered.is_empty(), "shard 0 owns programmed links");
        for u in &recovered {
            assert_eq!(shard_of(&c, u), 0);
        }
        assert_eq!(c.stats().shard_crashes, 1);
        assert_eq!(c.stats().recoveries, 1);
    }

    #[test]
    fn crash_and_recovery_are_traced_with_a_flight_snapshot() {
        let topo = Topology::single_switch(4, 100.0);
        let servers = topo.servers().to_vec();
        let mut c = central(&topo);
        let mut rec = Recorder::default();
        c.register(AppId(0), "LR").unwrap();
        c.on_event(&created(0, servers[0], servers[1], 1), 0.0, &mut rec);

        c.crash(3.5, &mut rec);
        c.crash(3.5, &mut rec); // idempotent: no second event
        c.recover(7.25, &mut rec);

        let kinds: Vec<(f64, EventKind)> =
            rec.trace.events().map(|e| (e.t, e.kind.clone())).collect();
        assert_eq!(
            kinds,
            vec![
                // The pre-crash conn_create epoch: both path ports newly
                // occupied, both programmed.
                (
                    0.0,
                    EventKind::EpochScope {
                        full: false,
                        dirty: 2,
                        emitted: 2,
                    }
                ),
                (3.5, EventKind::ControllerCrash { shard: -1 }),
                (
                    7.25,
                    EventKind::ControllerRecover {
                        shard: -1,
                        replayed_apps: 1,
                        replayed_conns: 1,
                    }
                ),
            ]
        );
        // The crash captured one flight snapshot with the recovery
        // ground truth in its state.
        assert_eq!(rec.flight.snapshots().len(), 1);
        let snap = &rec.flight.snapshots()[0];
        assert_eq!(snap.reason, "controller-crash");
        assert_eq!(snap.t, 3.5);
        let json = snap.to_json();
        assert!(json.contains("\"registrations\":1"), "{json}");
        assert!(json.contains("\"live_conns\":1"), "{json}");
        // Recovery wall clock lands only under a wall.-prefixed metric,
        // never in the trace.
        assert_eq!(
            rec.registry
                .histogram("wall.recovery_micros")
                .map(|h| h.count()),
            Some(1)
        );
    }

    #[test]
    fn shard_crash_and_recovery_are_traced() {
        let topo = Topology::single_switch(4, 100.0);
        let mut c = distributed(&topo, 2);
        let mut rec = Recorder::default();
        c.crash_shard(1, 1.0, &mut rec);
        c.recover_shard(1, 2.0, &mut rec);
        c.recover_shard(1, 2.0, &mut rec); // already up: no event

        let kinds: Vec<EventKind> = rec.trace.events().map(|e| e.kind.clone()).collect();
        assert_eq!(
            kinds,
            vec![
                EventKind::ControllerCrash { shard: 1 },
                EventKind::ControllerRecover {
                    shard: 1,
                    replayed_apps: 0,
                    replayed_conns: 0,
                },
            ]
        );
        assert_eq!(rec.flight.snapshots().len(), 1);
        assert_eq!(rec.flight.snapshots()[0].reason, "shard-crash");
    }

    #[test]
    fn apply_maps_actions_to_transitions() {
        let topo = Topology::single_switch(2, 100.0);
        let mut c = central(&topo);
        assert!(c
            .apply(&ControlAction::CrashController, 0.0, &mut NullSink)
            .is_empty());
        assert!(c.is_down());
        c.apply(&ControlAction::RecoverController, 0.0, &mut NullSink);
        assert!(!c.is_down());
        // RPC windows and shard actions are no-ops for central.
        let rpc = ControlAction::RpcDegradeStart {
            drop: 0.5,
            duplicate: 0.1,
        };
        assert!(c.apply(&rpc, 0.0, &mut NullSink).is_empty());
        c.apply(&ControlAction::CrashShard(0), 0.0, &mut NullSink);
        assert_eq!(c.stats().shard_crashes, 0);
    }

    /// Regression: the shard index of a `CrashShard` comes from outside
    /// (a serde `FaultSchedule`, or `ScheduleConfig::num_shards`, which
    /// is independent of the policy's shard count). An out-of-range
    /// index used to be counted as a crash and then hit
    /// `recompute_shard`'s range assert on recovery.
    #[test]
    fn out_of_range_shard_actions_land_modulo_the_shard_count() {
        let topo = Topology::single_switch(4, 100.0);
        let mut c = distributed(&topo, 2);
        let mut rec = Recorder::default();
        c.apply(&ControlAction::CrashShard(3), 1.0, &mut rec);
        assert_eq!(c.down_shards.iter().collect::<Vec<_>>(), [&1]);
        c.apply(&ControlAction::RecoverShard(3), 2.0, &mut rec);
        assert!(c.down_shards.is_empty());
        assert_eq!((c.stats().shard_crashes, c.stats().recoveries), (1, 1));
        let kinds: Vec<EventKind> = rec.trace.events().map(|e| e.kind.clone()).collect();
        assert_eq!(kinds[0], EventKind::ControllerCrash { shard: 1 });
        assert!(matches!(
            kinds[1],
            EventKind::ControllerRecover { shard: 1, .. }
        ));
    }
}
