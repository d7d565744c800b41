//! The service's one driver.
//!
//! [`ServiceRuntime`] drives [`crate::front::Front`] and starts no
//! thread: every call runs on its caller's, at the time its caller
//! names. [`ServiceRuntime::call_at`] is the one request path, and time
//! is an argument, not a mode: [`ServiceRuntime::call`] passes the
//! seconds since the runtime started, and a drill passes logical
//! seconds of its own, so one envelope sequence is served, logged and
//! traced the same on every run.
//!
//! Each shard sits in a slot behind a mutex. A caller that finds its
//! shard free takes it and **leads** it: it handles its own envelope,
//! then whatever queued behind it meanwhile, up to `batch_max`
//! envelopes per [`Shard::handle_batch`] — one group commit, one fsync —
//! posting each waiting caller's reply once its batch is durable, and
//! puts the shard back when nothing is left waiting. A caller that
//! finds its shard led waits in the slot's queue: at most `queue_depth`
//! wait (one more reads [`ErrorCode::ShardBusy`]), each up to
//! `REPLY_TIMEOUT` (then [`ErrorCode::Timeout`]).
//!
//! Failover is in place, on the call path: a healthy shard serves, a
//! dead one is taken over first. A shard dies when
//! [`ServiceRuntime::kill_shard`] marks it dead, when its batch panics
//! or a thread panics holding its slot, or when its log fails a write
//! ([`Shard::handle_batch`]). The next call for it finds it dead and, at
//! that call's time, records the crash, [`Shard::take_over`]s the
//! durable log on the same slot and records the recovery before it
//! serves, so the shard's tenants keep their acked state. A take-over
//! that cannot open the log leaves the shard dead: that call's batch
//! reads [`ErrorCode::FailingOver`], retryable, and the next call tries
//! again. A leader that blocks is not replaced; its shard's callers read
//! `Timeout` or `ShardBusy` until it returns (DESIGN §13).
//!
//! The front counts into its metrics [`Registry`], always, and the
//! shards' WAL families land there too. Spans, per-tenant SLO latencies
//! and crash events go to a trace recorder only once
//! [`ServiceRuntime::set_sink`] attaches one; until then the trace pass
//! mints nothing and takes no lock. Wall-clock measurements are
//! reported under `wall.*` metric names only, per the repo's
//! determinism convention.

use crate::front::{Front, Route, ServiceStats};
use crate::shard::{Shard, ShardMap, ShardSpec, ShardStats};
use saba_core::rpc::{Envelope, ErrorCode, Response};
use saba_telemetry::{Registry, SharedRecorder};
use std::collections::{HashMap, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

/// Deployment knobs of the runtime: the shared service config.
pub use crate::front::ServiceConfig as RuntimeConfig;

/// How long a caller waits for the leader of its shard to answer it.
const REPLY_TIMEOUT: Duration = Duration::from_secs(2);

/// How long [`ServiceRuntime::shutdown`] and the shard accessors wait
/// for a leader to put its shard back.
const IDLE_WAIT: Duration = Duration::from_secs(10);

/// A shard's lifetime summary.
#[derive(Debug, Clone)]
pub struct ShardReport {
    /// The shard.
    pub shard: usize,
    /// Shard counters at shutdown.
    pub stats: ShardStats,
    /// Batches applied (each is one group commit).
    pub batches: u64,
}

/// One shard's slot.
struct Slot {
    state: Mutex<SlotState>,
    /// Signalled when a leader posts replies or puts the shard back.
    posted: Condvar,
    /// `wall.op_latency/shard=N`.
    latency_name: String,
}

#[derive(Default)]
struct SlotState {
    /// The shard; `None` while a caller leads it.
    shard: Option<Shard>,
    /// Set when the shard is killed while led: its leader kills it
    /// after the batch it is running.
    kill: bool,
    /// Set by [`ServiceRuntime::shutdown`]: calls are refused.
    closed: bool,
    /// Calls waiting for the leader, by ticket; a leader's own call
    /// passes through too.
    queue: VecDeque<(u64, Envelope)>,
    /// Each queued call's reply, `None` until posted. A call that gives
    /// up removes its entry, and a late reply for it is dropped.
    replies: HashMap<u64, Option<Response>>,
    /// The latest time a call queued here named: the next batch is
    /// served at it.
    now: f64,
    next_ticket: u64,
    batches: u64,
}

impl SlotState {
    /// Kills the shard now or, while it is led, after its batch.
    fn kill(&mut self) {
        match self.shard.as_mut() {
            Some(shard) => shard.kill(),
            None => self.kill = true,
        }
    }
}

impl Slot {
    fn new(shard: Shard) -> Self {
        Self {
            latency_name: format!("wall.op_latency/shard={}", shard.id),
            state: Mutex::new(SlotState {
                shard: Some(shard),
                ..SlotState::default()
            }),
            posted: Condvar::new(),
        }
    }

    /// The slot, also after a thread panicked holding it: what that
    /// thread did to the shard is suspect, so the shard dies, and the
    /// next call takes it over from its log.
    fn lock(&self) -> MutexGuard<'_, SlotState> {
        self.state
            .lock()
            .unwrap_or_else(|e| self.recover(e.into_inner()))
    }

    /// Waits up to `timeout` for the slot to be signalled.
    fn wait<'a>(
        &'a self,
        state: MutexGuard<'a, SlotState>,
        timeout: Duration,
    ) -> MutexGuard<'a, SlotState> {
        match self.posted.wait_timeout(state, timeout) {
            Ok((state, _)) => state,
            Err(e) => self.recover(e.into_inner().0),
        }
    }

    /// Waits up to [`IDLE_WAIT`] for no caller to lead the shard.
    fn idle<'a>(&'a self, mut state: MutexGuard<'a, SlotState>) -> MutexGuard<'a, SlotState> {
        let deadline = Instant::now() + IDLE_WAIT;
        while state.shard.is_none() {
            let Some(left) = deadline.checked_duration_since(Instant::now()) else {
                break;
            };
            state = self.wait(state, left);
        }
        state
    }

    fn recover<'a>(&'a self, mut state: MutexGuard<'a, SlotState>) -> MutexGuard<'a, SlotState> {
        self.state.clear_poison();
        state.kill();
        state
    }
}

/// A call's refusal, naming its shard.
fn refused(shard: usize, code: ErrorCode, what: &str) -> Response {
    Response::Error {
        code,
        message: format!("shard {shard} {what}"),
    }
}

/// The front and what it counts across shards, behind one lock.
struct Shared {
    /// The front: its registry is the metrics hub, deterministic counts
    /// under their service names and wall-derived ones under `wall.*`.
    front: Front,
    /// Shards taken over so far, in take-over order.
    replaced: Vec<usize>,
}

/// The running service.
pub struct ServiceRuntime {
    cfg: RuntimeConfig,
    spec: ShardSpec,
    started: Instant,
    shared: Mutex<Shared>,
    slots: Vec<Slot>,
    /// Leaders pass it before each batch; a test holds it shut to keep
    /// a leader inside its batch.
    #[cfg(test)]
    gate: std::sync::RwLock<()>,
}

/// Final runtime summary returned by [`ServiceRuntime::shutdown`].
#[derive(Debug)]
pub struct RuntimeReport {
    /// One report per shard, in shard order.
    pub workers: Vec<ShardReport>,
    /// In-place take-overs.
    pub failovers: u64,
}

impl ServiceRuntime {
    /// Opens every shard, replaying its log.
    ///
    /// # Errors
    ///
    /// [`std::io::ErrorKind::InvalidInput`] for a config the front
    /// refuses, and the first error opening a shard meets
    /// ([`Shard::open`]: I/O, or a logged record the controller
    /// refuses).
    pub fn start(spec: ShardSpec, cfg: RuntimeConfig) -> std::io::Result<Self> {
        let front = Front::new(cfg.shards, cfg.admission)?;
        std::fs::create_dir_all(&cfg.log_dir)?;
        let slots = (0..cfg.shards)
            .map(|id| {
                Ok(Slot::new(
                    Shard::open(id, spec.clone(), &cfg.log_dir, cfg.sync_every)?.0,
                ))
            })
            .collect::<std::io::Result<_>>()?;
        Ok(Self {
            shared: Mutex::new(Shared {
                front,
                replaced: Vec::new(),
            }),
            slots,
            started: Instant::now(),
            spec,
            cfg,
            #[cfg(test)]
            gate: std::sync::RwLock::new(()),
        })
    }

    /// The shared state, also after a thread panicked holding it. What
    /// the lock guards — counters, gauges, the take-over list — is valid
    /// between any two of its updates, so a panic loses at most part of
    /// one pass's counts.
    fn shared(&self) -> MutexGuard<'_, Shared> {
        self.shared.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Slot `id` once no caller leads its shard (see [`Slot::idle`]).
    /// A shut-down slot is returned at once: its shard is gone.
    fn idle(&self, id: usize) -> MutexGuard<'_, SlotState> {
        let slot = &self.slots[id];
        let state = slot.lock();
        if state.closed {
            return state;
        }
        slot.idle(state)
    }

    /// The tenant→shard map.
    pub fn shard_map(&self) -> ShardMap {
        self.shared().front.shard_map()
    }

    /// In-place take-overs so far.
    pub fn failovers(&self) -> u64 {
        self.shared().front.failovers()
    }

    /// The service's counters: the front's totals, read without
    /// touching a shard.
    pub fn stats(&self) -> ServiceStats {
        self.shared().front.stats()
    }

    /// Attaches a trace recorder: the front's spans, SLO latencies,
    /// crash and recovery events and failover snapshot, and every
    /// shard's spans and epoch scopes, stamped with each call's time.
    /// Waits for each shard's leader to put it back.
    pub fn set_sink(&self, sink: SharedRecorder) {
        self.shared().front.trace = sink.clone();
        for id in 0..self.slots.len() {
            if let Some(shard) = self.idle(id).shard.as_mut() {
                shard.set_sink(sink.clone());
            }
        }
    }

    /// Runs `f` on shard `id` once no caller leads it, waiting as
    /// [`Self::shutdown`] does; `None` if it is still led after that,
    /// or the runtime was shut down.
    pub fn with_shard<R>(&self, id: usize, f: impl FnOnce(&Shard) -> R) -> Option<R> {
        self.idle(id).shard.as_ref().map(f)
    }

    /// Marks shard `s` dead, crash-style: now, or after the batch its
    /// leader is running. The next call for it takes it over.
    pub fn kill_shard(&self, s: usize) {
        self.slots[s].lock().kill();
    }

    /// [`Self::call_at`] the seconds since the runtime started.
    pub fn call(&self, env: Envelope) -> Response {
        self.call_at(env, self.started.elapsed().as_secs_f64())
    }

    /// One request/response round trip at time `now`: edge admission
    /// and token refill, the trace's timestamps and a take-over's all
    /// read it. Backpressure and failover surface as retryable errors;
    /// the caller owns backoff policy. Scrapes are answered by the
    /// front and never reach a shard, so a blocked leader cannot block
    /// observability.
    pub fn call_at(&self, env: Envelope, now: f64) -> Response {
        let id = match self.shared().front.admit(&env, now) {
            Route::Reply(resp) => return resp,
            Route::Shard(id) => id,
        };
        let slot = &self.slots[id];
        let mut state = slot.lock();
        if state.closed {
            return refused(id, ErrorCode::FailingOver, "is shut down");
        }
        if state.shard.is_none() && state.queue.len() >= self.cfg.queue_depth {
            drop(state);
            self.shared().front.registry.inc("service.shard_busy", 1);
            return refused(id, ErrorCode::ShardBusy, "admission queue is full");
        }
        let ticket = state.next_ticket;
        state.next_ticket += 1;
        state.now = state.now.max(now);
        state.queue.push_back((ticket, env));
        state.replies.insert(ticket, None);
        if let Some(shard) = state.shard.take() {
            return self.lead(id, shard, ticket, state);
        }
        let deadline = Instant::now() + REPLY_TIMEOUT;
        while let Some(left) = deadline.checked_duration_since(Instant::now()) {
            state = slot.wait(state, left);
            if let Some(resp) = state.replies.get_mut(&ticket).and_then(Option::take) {
                state.replies.remove(&ticket);
                return resp;
            }
        }
        state.replies.remove(&ticket);
        state.queue.retain(|&(t, _)| t != ticket);
        refused(id, ErrorCode::Timeout, "did not reply in time")
    }

    /// Leads shard `id` (see the module docs): serves the queue — the
    /// call `own` first — a batch at a time, and puts the shard back
    /// once the queue is empty.
    fn lead<'a>(
        &'a self,
        id: usize,
        mut shard: Shard,
        own: u64,
        mut state: MutexGuard<'a, SlotState>,
    ) -> Response {
        let slot = &self.slots[id];
        loop {
            if std::mem::take(&mut state.kill) {
                shard.kill();
            }
            let next = state.queue.len().min(self.cfg.batch_max);
            if next == 0 {
                state.shard = Some(shard);
                slot.posted.notify_all();
                let reply = state.replies.remove(&own).flatten();
                return reply.unwrap_or_else(|| refused(id, ErrorCode::Timeout, "lost the reply"));
            }
            let (tickets, envs): (Vec<u64>, Vec<Envelope>) = state.queue.drain(..next).unzip();
            let now = state.now;
            drop(state);
            shard.set_clock(now);
            if shard.is_dead() {
                self.take_over(id, &mut shard, now);
            }
            #[cfg(test)]
            drop(self.gate.read());
            let before = shard.stats();
            let t0 = Instant::now();
            let resps = catch_unwind(AssertUnwindSafe(|| shard.handle_batch(&envs)))
                .unwrap_or_else(|_| {
                    shard.kill();
                    vec![refused(id, ErrorCode::FailingOver, "died mid-request"); envs.len()]
                });
            let per_op = t0.elapsed().as_secs_f64() / envs.len() as f64;
            // The trace pass reads the replies after they are posted.
            let traced = shard.traced().then(|| resps.clone());
            state = slot.lock();
            state.batches += 1;
            for (ticket, resp) in tickets.into_iter().zip(resps) {
                // No entry: its caller gave up.
                if let Some(reply) = state.replies.get_mut(&ticket) {
                    *reply = Some(resp);
                }
            }
            slot.posted.notify_all();
            drop(state);
            // Publish after the acks — a scrape must never delay a
            // caller.
            let mut shared = self.shared();
            shared.front.batch_done(&mut shard, before);
            for _ in 0..envs.len() {
                shared.front.registry.observe(&slot.latency_name, per_op);
            }
            if let Some(resps) = traced {
                shared.front.answered(&envs, &resps, now);
            }
            drop(shared);
            state = slot.lock();
        }
    }

    /// Takes the dead shard `id` over in place at `now`: records the
    /// crash, re-opens its log and replays it, and records the
    /// recovery. One that cannot open stays dead, and its batch reads
    /// `FailingOver`.
    fn take_over(&self, id: usize, shard: &mut Shard, now: f64) {
        self.shared().front.crashed(id, now);
        let found = Instant::now();
        let Ok(takeover) = shard.take_over() else {
            return;
        };
        // MTTR: from finding the shard dead to its replay done.
        let mttr = found.elapsed().as_secs_f64();
        let mut shared = self.shared();
        shared.front.registry.observe("wall.failover_mttr", mttr);
        shared.front.promoted(id, now, takeover);
        shared.replaced.push(id);
    }

    /// Renders the metrics hub as a Prometheus text page.
    pub fn dump_metrics(&self) -> Response {
        self.shared().front.dump_metrics()
    }

    /// A point-in-time snapshot of the metrics hub.
    pub fn metrics_registry(&self) -> Registry {
        self.shared().front.registry.clone()
    }

    /// Refuses further calls, waits for each shard's leader to put it
    /// back, and returns the shards' reports. Idempotent: a second call
    /// finds every slot closed and returns an empty report.
    pub fn shutdown(&self) -> RuntimeReport {
        let mut workers = Vec::new();
        for slot in &self.slots {
            let mut state = slot.lock();
            if std::mem::replace(&mut state.closed, true) {
                continue;
            }
            let mut state = slot.idle(state);
            if let Some(shard) = state.shard.take() {
                workers.push(ShardReport {
                    shard: shard.id,
                    stats: shard.stats(),
                    batches: state.batches,
                });
            }
        }
        RuntimeReport {
            workers,
            failovers: self.failovers(),
        }
    }

    /// The shard build spec.
    pub fn spec(&self) -> &ShardSpec {
        &self.spec
    }

    /// Shards taken over so far, in take-over order.
    pub fn replaced_shards(&self) -> Vec<usize> {
        self.shared().replaced.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shard::Flavour;
    use crate::wal::{scan, ReplayState};
    use saba_core::controller::ControllerConfig;
    use saba_core::library::{SabaLib, Transport};
    use saba_core::profiler::{Profiler, ProfilerConfig};
    use saba_core::rpc::Request;
    use saba_core::sensitivity::SensitivityTable;
    use saba_sim::ids::{AppId, NodeId};
    use saba_sim::topology::Topology;
    use saba_telemetry::{Histogram, Recorder};
    use saba_workload::catalog;

    impl ServiceRuntime {
        /// Makes the next sync of shard `s`'s log fail.
        pub(crate) fn fail_next_sync(&self, s: usize) {
            self.slots[s]
                .lock()
                .shard
                .as_mut()
                .unwrap()
                .fail_next_sync();
        }
    }

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

    fn spec() -> ShardSpec {
        ShardSpec {
            cfg: ControllerConfig::default(),
            table: table(),
            topo: Topology::single_switch(8, 100.0),
            flavour: Flavour::Central,
        }
    }

    fn fresh_cfg(name: &str) -> RuntimeConfig {
        let dir = std::env::temp_dir().join(format!("saba-rt-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        RuntimeConfig::new(dir)
    }

    fn env(id: u64, request: Request) -> Envelope {
        Envelope::new(id, request)
    }

    fn register(rt: &ServiceRuntime, id: u64, app: AppId) -> Response {
        rt.call(env(
            id,
            Request::AppRegister {
                app,
                workload: "LR".into(),
            },
        ))
    }

    /// Tenant 0's connection `tag` between the first two servers.
    fn create(rt: &ServiceRuntime, id: u64, tag: u64) -> Envelope {
        let servers = rt.spec().topo.servers();
        env(
            id,
            Request::ConnCreate {
                app: AppId(0),
                src: servers[0],
                dst: servers[1],
                tag,
            },
        )
    }

    fn code(resp: &Response) -> Option<ErrorCode> {
        match resp {
            Response::Error { code, .. } => Some(*code),
            _ => None,
        }
    }

    /// Spins until `done` holds; panics after 10 s.
    fn until(mut done: impl FnMut() -> bool) {
        let t0 = Instant::now();
        while !done() {
            assert!(t0.elapsed() < Duration::from_secs(10), "timed out");
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    /// True while a caller leads shard `s`.
    fn led(rt: &ServiceRuntime, s: usize) -> bool {
        rt.slots[s].lock().shard.is_none()
    }

    #[test]
    fn concurrent_clients_register_and_create_connections() {
        let rt = ServiceRuntime::start(spec(), fresh_cfg("conc")).unwrap();
        let servers = rt.spec().topo.servers();
        std::thread::scope(|s| {
            for app in 0..8u32 {
                let rt = &rt;
                s.spawn(move || {
                    let base = (app as u64) << 32;
                    let r = register(rt, base, AppId(app));
                    assert!(matches!(r, Response::Registered { .. }), "{r:?}");
                    for i in 0..16u64 {
                        let r = rt.call(env(
                            base + 1 + i,
                            Request::ConnCreate {
                                app: AppId(app),
                                src: servers[(app as usize) % servers.len()],
                                dst: servers[(app as usize + 1) % servers.len()],
                                tag: i,
                            },
                        ));
                        assert_eq!(r, Response::Ack, "app {app} conn {i}");
                    }
                });
            }
        });
        let hub = rt.metrics_registry();
        let report = rt.shutdown();
        let total_regs: u64 = report
            .workers
            .iter()
            .map(|w| w.stats.registrations_acked)
            .sum();
        let total_conns: u64 = report
            .workers
            .iter()
            .map(|w| w.stats.conn_creates_acked)
            .sum();
        assert_eq!(total_regs, 8);
        assert_eq!(total_conns, 8 * 16);
        for w in &report.workers {
            let acked = w.stats.registrations_acked + w.stats.conn_creates_acked;
            let latency = hub.histogram(&format!("wall.op_latency/shard={}", w.shard));
            assert_eq!(latency.map(Histogram::count), Some(acked));
        }
    }

    /// The first call after a kill takes the shard over in place: the
    /// standby replays the log, so the destroy of the *pre-crash*
    /// connection lands at once.
    #[test]
    fn killed_worker_is_replaced_and_acked_state_survives() {
        let rt = ServiceRuntime::start(spec(), fresh_cfg("failover")).unwrap();
        let shard = rt.shard_map().shard_of(AppId(0));
        assert!(matches!(
            register(&rt, 1, AppId(0)),
            Response::Registered { .. }
        ));
        assert_eq!(rt.call(create(&rt, 2, 7)), Response::Ack);

        rt.kill_shard(shard);
        let r = rt.call(env(
            3,
            Request::ConnDestroy {
                app: AppId(0),
                tag: 7,
            },
        ));
        assert_eq!(r, Response::Ack);
        assert_eq!(rt.failovers(), 1);
        assert_eq!(rt.replaced_shards(), vec![shard]);
        let mttr = rt.metrics_registry();
        assert_eq!(
            mttr.histogram("wall.failover_mttr").map(Histogram::count),
            Some(1)
        );
        rt.shutdown();
    }

    /// A shard log the controller refuses on replay stops the start
    /// with the shard's error, instead of a runtime that serves without
    /// that shard.
    #[test]
    fn a_log_the_controller_refuses_fails_the_start() {
        let cfg = fresh_cfg("refused");
        let rt = ServiceRuntime::start(spec(), cfg.clone()).unwrap();
        assert!(matches!(
            register(&rt, 1, AppId(0)),
            Response::Registered { .. }
        ));
        rt.shutdown();

        let mut without_lr = spec();
        let full = std::mem::replace(&mut without_lr.table, SensitivityTable::new());
        for model in full.iter().filter(|m| m.workload != "LR") {
            without_lr.table.insert(model.clone());
        }
        let Err(e) = ServiceRuntime::start(without_lr, cfg) else {
            panic!("a log naming a workload the table lacks must not start");
        };
        assert_eq!(e.kind(), std::io::ErrorKind::InvalidData);
        assert!(e.to_string().contains("record 0"), "{e}");
    }

    /// Leaders publish each batch after its acks and before their own
    /// call returns, so a scrape after a call sees that call counted.
    #[test]
    fn workers_publish_wall_and_wal_families_into_the_scraped_hub() {
        let rt = ServiceRuntime::start(spec(), fresh_cfg("scrape")).unwrap();
        assert!(matches!(
            register(&rt, 1, AppId(0)),
            Response::Registered { .. }
        ));
        for i in 0..8u64 {
            assert_eq!(rt.call(create(&rt, 2 + i, i)), Response::Ack);
        }
        let page = match rt.call(env(100, Request::MetricsDump)) {
            Response::Metrics { text } => text,
            other => panic!("expected a metrics page, got {other:?}"),
        };
        assert!(page.contains("# TYPE wall_op_latency summary"), "{page}");
        assert!(page.contains("# TYPE wal_group_commit_size summary"));
        assert!(page.contains("# TYPE wal_bytes_appended gauge"));
        assert!(page.contains("service_requests_total 9\n"), "{page}");
        assert!(page.contains("service_registrations_acked_total 1\n"));
        assert!(page.contains("service_conn_creates_acked_total 8\n"));
        // The registry snapshot agrees with the rendered page.
        let reg = rt.metrics_registry();
        assert_eq!(reg.counter("service.metrics_dumps"), 1);
        assert_eq!(reg.counter("service.requests"), 9);
        rt.shutdown();
    }

    /// A leader held inside its batch: one call may wait behind it
    /// (`queue_depth` 1), the next is refused `ShardBusy`, retryably,
    /// and both waiting calls land once the leader moves on.
    #[test]
    fn full_queue_pushes_back_with_shard_busy() {
        let mut cfg = fresh_cfg("busy");
        cfg.shards = 1;
        cfg.queue_depth = 1;
        let rt = ServiceRuntime::start(spec(), cfg).unwrap();
        assert!(matches!(
            register(&rt, 1, AppId(0)),
            Response::Registered { .. }
        ));
        let held = rt.gate.write().unwrap();
        std::thread::scope(|s| {
            let leader = s.spawn(|| rt.call(create(&rt, 10, 0)));
            until(|| led(&rt, 0));
            let follower = s.spawn(|| rt.call(create(&rt, 11, 1)));
            until(|| rt.slots[0].lock().queue.len() == 1);
            let busy = rt.call(create(&rt, 12, 2));
            assert_eq!(code(&busy), Some(ErrorCode::ShardBusy), "{busy:?}");
            assert!(ErrorCode::ShardBusy.is_retryable());
            drop(held);
            assert_eq!(leader.join().unwrap(), Response::Ack);
            assert_eq!(follower.join().unwrap(), Response::Ack);
        });
        assert_eq!(rt.call(create(&rt, 12, 2)), Response::Ack);
        assert_eq!(rt.metrics_registry().counter("service.shard_busy"), 1);
        rt.shutdown();
    }

    /// Calls that queue while a leader runs its batch are served as one
    /// following batch — one fsync for all three — not one apiece, as a
    /// shard behind a plain mutex would serve them.
    #[test]
    fn calls_queued_behind_a_leader_share_one_group_commit() {
        let mut cfg = fresh_cfg("combine");
        cfg.shards = 1;
        let rt = ServiceRuntime::start(spec(), cfg).unwrap();
        assert!(matches!(
            register(&rt, 1, AppId(0)),
            Response::Registered { .. }
        ));
        let commits = || {
            let reg = rt.metrics_registry();
            let groups = reg.histogram("wal.group_commit_size/shard=0").unwrap();
            let fsyncs = reg.gauge("wal.fsyncs/shard=0").unwrap();
            (fsyncs, groups.count(), groups.sum())
        };
        let (fsyncs, groups, grouped) = commits();
        let held = rt.gate.write().unwrap();
        let rt = &rt;
        std::thread::scope(|s| {
            let leader = s.spawn(|| rt.call(create(rt, 10, 0)));
            until(|| led(rt, 0));
            let followers: Vec<_> = (1..=3)
                .map(|tag| s.spawn(move || rt.call(create(rt, 10 + tag, tag))))
                .collect();
            until(|| rt.slots[0].lock().queue.len() == 3);
            drop(held);
            for call in std::iter::once(leader).chain(followers) {
                assert_eq!(call.join().unwrap(), Response::Ack);
            }
        });
        // The leader's own batch, then the three that queued behind it.
        assert_eq!(commits(), (fsyncs + 2.0, groups + 2, grouped + 4.0));
        let report = rt.shutdown();
        assert_eq!(report.workers[0].batches, 3);
    }

    /// A thread that panics holding the front's lock poisons it; the
    /// callers after it still get the lock, and a failover still
    /// completes.
    #[test]
    fn a_poisoned_service_lock_panics_neither_callers_nor_the_supervisor() {
        let rt = ServiceRuntime::start(spec(), fresh_cfg("poison")).unwrap();
        let panicked = std::thread::scope(|s| {
            s.spawn(|| {
                let _held = rt.shared();
                panic!("injected panic under the service lock");
            })
            .join()
        });
        assert!(panicked.is_err() && rt.shared.is_poisoned());
        let app = AppId(0);
        assert!(matches!(register(&rt, 1, app), Response::Registered { .. }));
        rt.kill_shard(rt.shard_map().shard_of(app));
        let r = rt.call(env(2, Request::AppDeregister { app }));
        assert_eq!(r, Response::Ack, "the call failed the shard over");
        assert_eq!(rt.shutdown().failovers, 1);
    }

    /// A thread that panics holding a shard's slot leaves that shard
    /// suspect: the next call takes it over from its log, and the
    /// tenant keeps the service level it was acked with.
    #[test]
    fn a_thread_that_panics_holding_a_slot_leaves_the_next_call_to_take_over() {
        let rt = ServiceRuntime::start(spec(), fresh_cfg("slot-poison")).unwrap();
        let app = AppId(0);
        let acked = register(&rt, 1, app);
        assert!(matches!(acked, Response::Registered { .. }), "{acked:?}");
        let s = rt.shard_map().shard_of(app);
        let panicked = std::thread::scope(|scope| {
            scope
                .spawn(|| {
                    let _held = rt.slots[s].lock();
                    panic!("injected panic holding a slot");
                })
                .join()
        });
        assert!(panicked.is_err() && rt.slots[s].state.is_poisoned());
        assert_eq!(register(&rt, 2, app), acked);
        assert_eq!(rt.failovers(), 1);
        assert!(!rt.slots[s].state.is_poisoned());
        rt.shutdown();
    }

    /// A standby that cannot open its log — the directory is gone —
    /// leaves its shard answering `FailingOver`, retryable; the next
    /// call, with the directory back, takes it over.
    #[test]
    fn a_standby_that_cannot_open_answers_failing_over_and_the_next_call_retries() {
        let cfg = fresh_cfg("standby");
        let away = cfg.log_dir.with_extension("away");
        let _ = std::fs::remove_dir_all(&away);
        let rt = ServiceRuntime::start(spec(), cfg.clone()).unwrap();
        let app = AppId(0);
        assert!(matches!(register(&rt, 1, app), Response::Registered { .. }));
        rt.kill_shard(rt.shard_map().shard_of(app));
        std::fs::rename(&cfg.log_dir, &away).unwrap();
        let r = register(&rt, 2, app);
        assert_eq!(code(&r), Some(ErrorCode::FailingOver), "{r:?}");
        assert_eq!(rt.failovers(), 0);
        std::fs::rename(&away, &cfg.log_dir).unwrap();
        let r = rt.call(env(3, Request::AppDeregister { app }));
        assert_eq!(r, Response::Ack, "the standby replayed the registration");
        assert_eq!(rt.failovers(), 1);
        rt.shutdown();
    }

    /// A create whose group commit failed is not acked, and its shard
    /// dies: the retry, under a new id, is acked only by a take-over,
    /// which left the shard holding exactly what its log replays.
    #[test]
    fn a_failed_sync_kills_the_shard_and_its_retry_is_acked_after_a_take_over() {
        let cfg = fresh_cfg("sync-fail");
        let rt = ServiceRuntime::start(spec(), cfg.clone()).unwrap();
        assert!(matches!(
            register(&rt, 1, AppId(0)),
            Response::Registered { .. }
        ));
        let s = rt.shard_map().shard_of(AppId(0));
        rt.fail_next_sync(s);
        let r = rt.call(create(&rt, 2, 7));
        assert_eq!(code(&r), Some(ErrorCode::Internal), "{r:?}");
        assert_eq!(rt.failovers(), 0);
        assert_eq!(rt.call(create(&rt, 3, 7)), Response::Ack);
        assert_eq!(rt.failovers(), 1, "only a take-over acks the retry");
        let state = rt.with_shard(s, |shard| shard.state().clone()).unwrap();
        let log = std::fs::read(Shard::log_path(&cfg.log_dir, s)).unwrap();
        assert_eq!(ReplayState::replay(&scan(&log).records), state);
        assert_eq!(state.live_conns.len(), 1);
        rt.shutdown();
    }

    /// The first call after a kill is served by the standby: at that
    /// call's time it records the crash, takes the shard over, records
    /// the recovery and the failover snapshot, and then serves, so the
    /// destroy of the *pre-crash* connection lands at once.
    #[test]
    fn the_call_that_finds_its_shard_dead_traces_the_take_over_at_its_time() {
        let rt = ServiceRuntime::start(spec(), fresh_cfg("traced-takeover")).unwrap();
        let sink = SharedRecorder::on(Recorder::default());
        rt.set_sink(sink.clone());
        let app = AppId(0);
        let s = rt.shard_map().shard_of(app);
        let acked = rt.call_at(
            env(
                1,
                Request::AppRegister {
                    app,
                    workload: "LR".into(),
                },
            ),
            1.0,
        );
        assert!(matches!(acked, Response::Registered { .. }), "{acked:?}");
        assert_eq!(rt.call_at(create(&rt, 2, 7), 2.0), Response::Ack);
        rt.kill_shard(s);
        assert_eq!(rt.failovers(), 0, "a kill only marks the shard dead");
        let destroy = env(3, Request::ConnDestroy { app, tag: 7 });
        assert_eq!(rt.call_at(destroy, 5.0), Response::Ack);
        assert_eq!(rt.failovers(), 1);
        assert_eq!(rt.stats().failovers, 1);

        let rec = sink.extract().unwrap();
        let at = |name: &str| -> Vec<f64> {
            let events = rec.trace.events().filter(|e| e.kind.name() == name);
            events.map(|e| e.t).collect()
        };
        assert_eq!(at("controller_crash"), [5.0]);
        assert_eq!(at("controller_recover"), [5.0]);
        assert_eq!(at("ops_snapshot"), [5.0]);
        assert_eq!(rec.flight.snapshots().len(), 1);
        let spans = rec.trace.events().filter(|e| e.kind.name() == "span");
        let times: Vec<f64> = spans.map(|e| e.t).collect();
        assert!(times.contains(&1.0) && times.contains(&2.0) && times.contains(&5.0));
        let slo = format!("service.op_latency/op=conn_destroy,shard={s},tenant=0");
        assert!(rt.metrics_registry().histogram(&slo).is_some());
        let live = rt.with_shard(s, |shard| shard.state().live_conns.len());
        assert_eq!(live, Some(0));
        rt.shutdown();
        assert_eq!(rt.with_shard(s, Shard::stats), None, "shut down");
    }

    /// A create naming a node outside the topology is a typed,
    /// non-retryable `Unreachable` on both flavours — also when source
    /// and destination are the same unknown node — and costs no
    /// take-over and no log record.
    #[test]
    fn a_create_naming_a_node_outside_the_topology_is_unreachable() {
        for flavour in [Flavour::Central, Flavour::Distributed(2)] {
            let cfg = fresh_cfg(&format!("unknown-node-{flavour:?}"));
            let rt = ServiceRuntime::start(ShardSpec { flavour, ..spec() }, cfg.clone()).unwrap();
            let app = AppId(0);
            assert!(matches!(register(&rt, 1, app), Response::Registered { .. }));
            let s = rt.shard_map().shard_of(app);
            let records = || {
                let log = std::fs::read(Shard::log_path(&cfg.log_dir, s)).unwrap();
                scan(&log).records.len()
            };
            let logged = records();
            let server = rt.spec().topo.servers()[0];
            let far = NodeId(9999);
            let ends = [(far, server), (server, far), (far, far)];
            for (tag, (src, dst)) in ends.into_iter().enumerate() {
                let r = rt.call(env(
                    2 + tag as u64,
                    Request::ConnCreate {
                        app,
                        src,
                        dst,
                        tag: tag as u64,
                    },
                ));
                assert_eq!(code(&r), Some(ErrorCode::Unreachable), "{flavour:?}: {r:?}");
            }
            assert!(!ErrorCode::Unreachable.is_retryable());
            assert_eq!(rt.failovers(), 0, "{flavour:?}");
            assert_eq!(
                records(),
                logged,
                "{flavour:?}: a refused create is not logged"
            );
            rt.shutdown();
        }
    }

    /// A `Transport` over the runtime, so an unmodified `SabaLib` runs
    /// its Fig. 7 lifecycle against the whole service stack.
    struct Local<'a> {
        rt: &'a ServiceRuntime,
        next_id: u64,
    }

    impl Transport for Local<'_> {
        fn call(&mut self, req: Request) -> Response {
            self.next_id += 1;
            self.rt.call(Envelope::new(self.next_id, req))
        }
    }

    #[test]
    fn saba_lib_runs_fig7_against_the_service() {
        let rt = ServiceRuntime::start(spec(), fresh_cfg("lib")).unwrap();
        let servers = rt.spec().topo.servers();
        let transport = Local {
            rt: &rt,
            next_id: 4 << 32,
        };
        let mut lib = SabaLib::new(AppId(4), transport);
        let sl = lib.saba_app_register("LR").unwrap();
        let conn = lib.saba_conn_create(servers[0], servers[1]).unwrap();
        assert_eq!(lib.sl(), Some(sl));
        lib.saba_conn_destroy(conn).unwrap();
        lib.saba_app_deregister().unwrap();
        let stats = rt.stats();
        assert_eq!(
            (stats.registrations_acked, stats.conn_creates_acked),
            (1, 1)
        );
        rt.shutdown();
    }
}
