//! The threaded (wall-clock) driver of the service front.
//!
//! [`ServiceRuntime`] drives [`crate::front::Front`] on wall time — the
//! seconds since it started — with one OS thread per shard, each
//! owning its [`Shard`] outright (the shard is built *inside* the
//! worker thread — nothing crosses the boundary but messages).
//! Admitted requests reach a worker over a bounded channel, so a
//! saturated worker pushes back with [`ErrorCode::ShardBusy`] instead
//! of queueing unboundedly; the worker drains its queue into batches,
//! so one fsync covers every request that arrived while the previous
//! batch was being applied (group commit under load).
//!
//! A supervisor thread probes every worker each [`PROBE`] interval and
//! reports what it saw to the front. A *crashed* worker is seen at
//! once — its thread has finished — and replaced on the spot.
//! Otherwise a worker shows life by applying a batch, and only one
//! that applied none since the last probe is sent a `Beat` to echo
//! (so under load the supervisor wakes no worker; probes are FIFO
//! behind queued requests, and a full queue means busy, not dead); the
//! front's supervisor declares dead only a worker that showed none
//! for the whole window — genuinely wedged. Either way a dead shard
//! gets a **standby worker** that opens the same durable log, and the
//! service keeps answering for that shard's tenants with zero acked
//! registrations lost.
//!
//! The front's sink here is a bare metrics [`Registry`] — the recording
//! sink of the logical driver is `!Send` — so the front's counters and
//! the shards' WAL families land on the scraped page, while its trace
//! pass (spans, per-tenant SLO latencies, crash events) has nothing to
//! record into and is not driven. Wall-clock measurements are reported
//! under `wall.*` metric names only, per the repo's determinism
//! convention.

use crate::front::{Front, Route};
use crate::heartbeat::HeartbeatConfig;
use crate::shard::{Shard, ShardMap, ShardSpec, ShardStats, TakeoverReport};
use saba_core::library::Transport;
use saba_core::rpc::{Envelope, ErrorCode, Request, Response};
use saba_telemetry::{Histogram, Registry};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{Receiver, RecvTimeoutError, Sender, SyncSender, TrySendError};
use std::sync::{mpsc, Arc, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Deployment knobs of the threaded runtime: the shared service config.
pub use crate::front::ServiceConfig as RuntimeConfig;

/// The wall-clock probe cadence and silence window: a worker is probed
/// every 20 ms and declared wedged after 1.35 s without a sign of life.
const PROBE: HeartbeatConfig = HeartbeatConfig {
    interval: 0.02,
    window: 1.35,
};

/// How long a caller waits for its shard's reply.
const REPLY_TIMEOUT: Duration = Duration::from_secs(2);

enum WorkerMsg {
    /// A request; the worker replies on the provided channel once the
    /// operation is durable.
    Call(Envelope, Sender<Response>),
    /// Health probe of a quiet worker; a live one echoes by bumping
    /// its pulse.
    Beat,
    /// Fault injection: die without cleanup, exactly like a crash —
    /// queued requests and the dedup cache are lost with the thread.
    Kill,
    /// Clean shutdown; the worker replies with its final report.
    Shutdown(Sender<WorkerReport>),
}

/// A worker's lifetime summary.
#[derive(Debug, Clone)]
pub struct WorkerReport {
    /// The shard this worker served.
    pub shard: usize,
    /// Shard counters at exit.
    pub stats: ShardStats,
    /// What this worker's opening replay found (empty log → zeros).
    pub takeover: TakeoverReport,
    /// Wall-clock per-request latency inside the worker (seconds),
    /// request arrival at the shard to durable ack.
    pub wall_latency: Histogram,
    /// Batches applied (each is one group commit).
    pub batches: u64,
}

/// Who hears how a worker's opening replay went.
enum Opening {
    /// One of the first workers: [`ServiceRuntime::start`] waits for
    /// every one's result and fails with the first error.
    First(Sender<std::io::Result<()>>),
    /// A standby: it reports its promotion to the front; one that
    /// cannot open exits, and the supervisor respawns it.
    Standby,
}

/// A shard's worker as the rest of the runtime holds it.
struct Worker {
    tx: SyncSender<WorkerMsg>,
    thread: JoinHandle<()>,
}

/// What callers, workers and the supervisor share behind one lock.
struct Shared {
    /// The front, its sink the metrics hub: deterministic counts under
    /// the names the logical driver uses, wall-derived ones under
    /// `wall.*`.
    front: Front<Registry>,
    workers: Vec<Worker>,
    /// Shards promoted so far, in promotion order.
    replaced: Vec<usize>,
}

struct Hub {
    cfg: RuntimeConfig,
    spec: ShardSpec,
    started: Instant,
    shared: Mutex<Shared>,
    /// Signs of life per shard — batches applied plus probes echoed —
    /// bumped by the owning worker. Lets the supervisor tell *busy*
    /// (progressing, echo stuck in the queue) from *wedged*.
    pulse: Vec<AtomicU64>,
    /// While set, worker spawns fail as if the OS refused a thread.
    #[cfg(test)]
    spawn_fails: AtomicBool,
    /// While set, so does the supervisor's.
    #[cfg(test)]
    supervisor_spawn_fails: AtomicBool,
}

impl Hub {
    /// The hub of a runtime not started yet: the log directory made,
    /// the front built, no thread running.
    fn new(spec: ShardSpec, cfg: RuntimeConfig) -> std::io::Result<Arc<Self>> {
        std::fs::create_dir_all(&cfg.log_dir)?;
        let front = Front::new(cfg.shards, PROBE, cfg.admission, Registry::new())
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidInput, e))?;
        Ok(Arc::new(Self {
            pulse: (0..cfg.shards).map(|_| AtomicU64::new(0)).collect(),
            shared: Mutex::new(Shared {
                front,
                workers: Vec::new(),
                replaced: Vec::new(),
            }),
            started: Instant::now(),
            spec,
            cfg,
            #[cfg(test)]
            spawn_fails: AtomicBool::new(false),
            #[cfg(test)]
            supervisor_spawn_fails: AtomicBool::new(false),
        }))
    }

    /// The driver's clock: seconds since the runtime started.
    fn now(&self) -> f64 {
        self.started.elapsed().as_secs_f64()
    }

    /// The shared state, also after a thread panicked holding it. What
    /// the lock guards — counters, gauges, liveness marks, worker
    /// handles — is valid between any two of its updates, so a panic
    /// loses at most part of one pass's counts; a worker that panicked
    /// has finished, and the supervisor replaces it.
    fn shared(&self) -> MutexGuard<'_, Shared> {
        self.shared.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Spawns a worker for `shard` on the shard's durable log.
    fn spawn_worker(self: &Arc<Self>, shard: usize, opening: Opening) -> std::io::Result<Worker> {
        #[cfg(test)]
        if self.spawn_fails.load(Ordering::Relaxed) {
            return Err(std::io::Error::other("injected spawn failure"));
        }
        let (tx, rx) = mpsc::sync_channel(self.cfg.queue_depth);
        let hub = self.clone();
        let thread = std::thread::Builder::new()
            .name(format!("saba-shard-{shard}"))
            .spawn(move || hub.worker_loop(shard, opening, rx))?;
        Ok(Worker { tx, thread })
    }

    /// Spawns the supervisor, which runs until `stop` is set.
    fn spawn_supervisor(
        self: &Arc<Self>,
        stop: &Arc<AtomicBool>,
    ) -> std::io::Result<JoinHandle<()>> {
        #[cfg(test)]
        if self.supervisor_spawn_fails.load(Ordering::Relaxed) {
            return Err(std::io::Error::other("injected supervisor spawn failure"));
        }
        let (hub, stop) = (self.clone(), stop.clone());
        std::thread::Builder::new()
            .name("saba-supervisor".into())
            .spawn(move || hub.supervise(&stop))
    }

    fn worker_loop(&self, shard_id: usize, opening: Opening, rx: Receiver<WorkerMsg>) {
        let cfg = &self.cfg;
        let opened = Shard::open(shard_id, self.spec.clone(), &cfg.log_dir, cfg.sync_every);
        let (mut shard, takeover) = match (opened, opening) {
            (Ok(opened), Opening::First(tx)) => {
                let _ = tx.send(Ok(()));
                opened
            }
            (Ok(opened), Opening::Standby) => {
                let mut shared = self.shared();
                shared
                    .front
                    .promoted(shard_id, self.now(), opened.1.clone(), &[]);
                shared.replaced.push(shard_id);
                opened
            }
            (Err(e), Opening::First(tx)) => {
                let _ = tx.send(Err(e));
                return;
            }
            (Err(_), Opening::Standby) => return,
        };
        let latency_name = format!("wall.op_latency/shard={shard_id}");
        let mut wall_latency = Histogram::new();
        let mut batches = 0u64;
        let mut pending_ctrl: Option<WorkerMsg> = None;
        loop {
            let first = match pending_ctrl.take() {
                Some(msg) => msg,
                None => match rx.recv() {
                    Ok(msg) => msg,
                    Err(_) => return, // runtime dropped: exit quietly
                },
            };
            match first {
                WorkerMsg::Kill => return,
                WorkerMsg::Shutdown(tx) => {
                    // Every batch already group-committed; nothing to sync.
                    let _ = tx.send(WorkerReport {
                        shard: shard_id,
                        stats: shard.stats(),
                        takeover,
                        wall_latency,
                        batches,
                    });
                    return;
                }
                WorkerMsg::Beat => {
                    self.pulse[shard_id].fetch_add(1, Ordering::Relaxed);
                }
                WorkerMsg::Call(env, tx) => {
                    // Drain whatever arrived behind this call into one
                    // batch (one fsync); control messages wait their turn.
                    let (mut envs, mut replies) = (vec![env], vec![tx]);
                    while envs.len() < cfg.batch_max {
                        match rx.try_recv() {
                            Ok(WorkerMsg::Call(e, t)) => {
                                envs.push(e);
                                replies.push(t);
                            }
                            Ok(ctrl) => {
                                pending_ctrl = Some(ctrl);
                                break;
                            }
                            Err(_) => break,
                        }
                    }
                    let before = shard.stats();
                    let t0 = Instant::now();
                    let resps = shard.handle_batch(&envs);
                    let per_op = t0.elapsed().as_secs_f64() / envs.len() as f64;
                    batches += 1;
                    self.pulse[shard_id].fetch_add(1, Ordering::Relaxed);
                    for (tx, resp) in replies.into_iter().zip(resps) {
                        let _ = tx.send(resp); // caller may have timed out
                    }
                    // Publish after the acks — a scrape must never
                    // delay a caller.
                    let mut shared = self.shared();
                    shared.front.batch_done(&mut shard, before);
                    for _ in 0..envs.len() {
                        wall_latency.record(per_op);
                        shared.front.sink.observe(&latency_name, per_op);
                    }
                }
            }
        }
    }

    /// The supervisor: every probe interval, gather each worker's sign
    /// of life, replace the crashed ones at once and the ones the
    /// front declares wedged.
    fn supervise(self: &Arc<Self>, stop: &AtomicBool) {
        let mut seen: Vec<u64> = vec![0; self.pulse.len()];
        loop {
            std::thread::sleep(Duration::from_secs_f64(PROBE.interval));
            if stop.load(Ordering::Relaxed) {
                return;
            }
            let (now, t0) = (self.now(), Instant::now());
            let mut shared = self.shared();
            let (mut alive, mut dead) = (Vec::new(), Vec::new());
            for (shard, seen) in seen.iter_mut().enumerate() {
                let pulse = self.pulse[shard].load(Ordering::Relaxed);
                let worker = &shared.workers[shard];
                if worker.thread.is_finished() {
                    dead.push(shard); // the thread is gone: a crash
                } else if pulse != *seen {
                    // Applied a batch or echoed since the last probe:
                    // alive, and under load never woken to say so.
                    alive.push(shard);
                } else {
                    // Quiet: ask. The echo shows in the next pulse.
                    match worker.tx.try_send(WorkerMsg::Beat) {
                        Ok(()) => {}
                        // A full queue is a *busy* worker, not a dead one.
                        Err(TrySendError::Full(_)) => alive.push(shard),
                        Err(TrySendError::Disconnected(_)) => dead.push(shard),
                    }
                }
                *seen = pulse;
            }
            dead.extend(shared.front.tick(now, alive, &[]));
            for shard in dead {
                // Route new traffic to a standby on the same log.
                match self.spawn_worker(shard, Opening::Standby) {
                    Ok(worker) => {
                        shared.workers[shard] = worker;
                        // MTTR as this loop sees it: from the fatal
                        // probe to new traffic being routed at the
                        // standby.
                        let mttr = t0.elapsed().as_secs_f64();
                        shared.front.sink.observe("wall.failover_mttr", mttr);
                    }
                    Err(_) => {
                        // No standby yet. A disconnected queue answers
                        // callers `FailingOver`, and the next probe
                        // finds it dead and tries again.
                        shared.workers[shard].tx = mpsc::sync_channel(0).0;
                        shared.front.sink.inc("service.standby_spawn_failures", 1);
                    }
                }
            }
        }
    }
}

/// The running threaded service.
pub struct ServiceRuntime {
    hub: Arc<Hub>,
    supervisor: Mutex<Option<JoinHandle<()>>>,
    stop: Arc<AtomicBool>,
}

/// Final runtime summary returned by [`ServiceRuntime::shutdown`].
#[derive(Debug)]
pub struct RuntimeReport {
    /// Per-worker reports from the final (surviving) workers.
    pub workers: Vec<WorkerReport>,
    /// Standby takeovers the supervisor performed.
    pub failovers: u64,
}

impl ServiceRuntime {
    /// Starts the workers and, once every one has replayed its shard's
    /// log, the supervisor.
    ///
    /// # Errors
    ///
    /// A worker or supervisor thread the OS would not start, or the
    /// first error a worker met opening its shard ([`Shard::open`]: I/O,
    /// or a logged record the controller refuses); the runtime then
    /// does not start, and no worker it started is left running.
    pub fn start(spec: ShardSpec, cfg: RuntimeConfig) -> std::io::Result<Self> {
        Self::launch(Hub::new(spec, cfg)?)
    }

    /// [`Self::start`] on a built hub.
    fn launch(hub: Arc<Hub>) -> std::io::Result<Self> {
        let (tx, rx) = mpsc::channel();
        let (mut workers, mut spawned) = (Vec::new(), Ok(()));
        for id in 0..hub.cfg.shards {
            match hub.spawn_worker(id, Opening::First(tx.clone())) {
                Ok(worker) => workers.push(worker),
                Err(e) => {
                    spawned = Err(e);
                    break;
                }
            }
        }
        drop(tx);
        let opened = rx.iter().collect::<std::io::Result<()>>();
        if let Err(e) = spawned.and(opened) {
            kill_all(workers);
            return Err(e);
        }
        hub.shared().workers = workers;
        let stop = Arc::new(AtomicBool::new(false));
        let supervisor = match hub.spawn_supervisor(&stop) {
            Ok(supervisor) => supervisor,
            Err(e) => {
                kill_all(std::mem::take(&mut hub.shared().workers));
                return Err(e);
            }
        };
        Ok(Self {
            hub,
            supervisor: Mutex::new(Some(supervisor)),
            stop,
        })
    }

    /// The tenant→shard map.
    pub fn shard_map(&self) -> ShardMap {
        self.hub.shared().front.shard_map()
    }

    /// Standby takeovers so far.
    pub fn failovers(&self) -> u64 {
        self.hub.shared().front.failovers()
    }

    /// Kills shard `s`'s worker thread, crash-style. The supervisor
    /// will notice at its next probe and spawn a standby.
    pub fn kill_shard(&self, s: usize) {
        let sender = self.hub.shared().workers[s].tx.clone();
        let _ = sender.send(WorkerMsg::Kill);
    }

    /// One request/response round trip. Backpressure and failover
    /// surface as retryable errors; the caller owns backoff policy
    /// (or uses [`Self::call_with_retries`]). Scrapes are answered by
    /// the front and never enter a shard queue, so a wedged worker
    /// cannot block observability.
    pub fn call(&self, env: Envelope) -> Response {
        let (shard, sender) = {
            let mut shared = self.hub.shared();
            match shared.front.admit(&env, self.hub.now()) {
                Route::Reply(resp) => return resp,
                Route::Shard(shard) => (shard, shared.workers[shard].tx.clone()),
            }
        };
        let (tx, rx) = mpsc::channel();
        let (code, message) = match sender.try_send(WorkerMsg::Call(env, tx)) {
            Ok(()) => match rx.recv_timeout(REPLY_TIMEOUT) {
                Ok(resp) => return resp,
                Err(RecvTimeoutError::Timeout) => (ErrorCode::Timeout, "did not reply in time"),
                Err(RecvTimeoutError::Disconnected) => (ErrorCode::FailingOver, "died mid-request"),
            },
            Err(TrySendError::Full(_)) => {
                self.hub.shared().front.sink.inc("service.shard_busy", 1);
                (ErrorCode::ShardBusy, "admission queue is full")
            }
            Err(TrySendError::Disconnected(_)) => {
                (ErrorCode::FailingOver, "is down, standby coming up")
            }
        };
        Response::Error {
            code,
            message: format!("shard {shard} {message}"),
        }
    }

    /// Renders the metrics hub as a Prometheus text page.
    pub fn dump_metrics(&self) -> Response {
        self.hub.shared().front.dump_metrics()
    }

    /// A point-in-time snapshot of the metrics hub.
    pub fn metrics_registry(&self) -> Registry {
        self.hub.shared().front.sink.clone()
    }

    /// [`Self::call`] with client-side retry: retryable errors back
    /// off (doubling from `backoff`) up to `attempts` tries. Fatal
    /// errors and successes return immediately.
    pub fn call_with_retries(&self, env: Envelope, attempts: usize, backoff: Duration) -> Response {
        let mut wait = backoff;
        let mut last = Response::Error {
            code: ErrorCode::Timeout,
            message: "no attempts made".into(),
        };
        for attempt in 0..attempts.max(1) {
            if attempt > 0 {
                std::thread::sleep(wait);
                wait *= 2;
            }
            last = self.call(env.clone());
            match &last {
                Response::Error { code, .. } if code.is_retryable() => continue,
                _ => return last,
            }
        }
        last
    }

    /// A [`Transport`] handle for one application client.
    pub fn client(self: &Arc<Self>, base_id: u64) -> RuntimeClient {
        RuntimeClient {
            runtime: self.clone(),
            next_id: base_id,
        }
    }

    /// Stops the supervisor, shuts every worker down cleanly, and
    /// returns their reports. Idempotent: a second call finds the
    /// workers already gone and returns an empty report.
    pub fn shutdown(&self) -> RuntimeReport {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(h) = self.supervisor.lock().unwrap().take() {
            let _ = h.join();
        }
        let senders: Vec<_> = (self.hub.shared().workers.iter())
            .map(|w| w.tx.clone())
            .collect();
        let mut workers = Vec::new();
        for sender in senders {
            let (tx, rx) = mpsc::channel();
            if sender.send(WorkerMsg::Shutdown(tx)).is_ok() {
                if let Ok(report) = rx.recv_timeout(Duration::from_secs(10)) {
                    workers.push(report);
                }
            }
        }
        RuntimeReport {
            workers,
            failovers: self.failovers(),
        }
    }

    /// The runtime's config (tests size their traffic from it).
    pub fn cfg(&self) -> &RuntimeConfig {
        &self.hub.cfg
    }

    /// The shard build spec.
    pub fn spec(&self) -> &ShardSpec {
        &self.hub.spec
    }

    /// Shards replaced by the supervisor so far, in replacement order.
    pub fn replaced_shards(&self) -> Vec<usize> {
        self.hub.shared().replaced.clone()
    }
}

/// Kills `workers` and waits for their threads to end.
fn kill_all(workers: Vec<Worker>) {
    for worker in workers {
        let _ = worker.tx.send(WorkerMsg::Kill);
        let _ = worker.thread.join();
    }
}

/// A per-application [`Transport`] over the threaded runtime, with
/// monotonic request ids and built-in retry (the runtime is wall
/// clock, so sleeping between retries is meaningful here).
pub struct RuntimeClient {
    runtime: Arc<ServiceRuntime>,
    next_id: u64,
}

impl Transport for RuntimeClient {
    fn call(&mut self, req: Request) -> Response {
        let env = Envelope::new(self.next_id, req);
        self.next_id += 1;
        self.runtime
            .call_with_retries(env, 8, Duration::from_millis(25))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shard::Flavour;
    use saba_core::controller::ControllerConfig;
    use saba_core::profiler::{Profiler, ProfilerConfig};
    use saba_core::sensitivity::SensitivityTable;
    use saba_sim::ids::AppId;
    use saba_sim::topology::Topology;
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

    #[test]
    fn concurrent_clients_register_and_create_connections() {
        let rt = Arc::new(ServiceRuntime::start(spec(), fresh_cfg("conc")).unwrap());
        let servers = rt.spec().topo.servers().to_vec();
        let mut handles = Vec::new();
        for app in 0..8u32 {
            let rt = rt.clone();
            let servers = servers.clone();
            handles.push(std::thread::spawn(move || {
                let base = (app as u64) << 32;
                let r = rt.call_with_retries(
                    env(
                        base,
                        Request::AppRegister {
                            app: AppId(app),
                            workload: "LR".into(),
                        },
                    ),
                    8,
                    Duration::from_millis(10),
                );
                assert!(matches!(r, Response::Registered { .. }), "{r:?}");
                for i in 0..16u64 {
                    let r = rt.call_with_retries(
                        env(
                            base + 1 + i,
                            Request::ConnCreate {
                                app: AppId(app),
                                src: servers[(app as usize) % servers.len()],
                                dst: servers[(app as usize + 1) % servers.len()],
                                tag: i,
                            },
                        ),
                        8,
                        Duration::from_millis(10),
                    );
                    assert_eq!(r, Response::Ack, "app {app} conn {i}");
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
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
        assert!(report.workers.iter().all(|w| w.wall_latency.count() > 0));
    }

    #[test]
    fn killed_worker_is_replaced_and_acked_state_survives() {
        let rt = Arc::new(ServiceRuntime::start(spec(), fresh_cfg("failover")).unwrap());
        let servers = rt.spec().topo.servers().to_vec();
        let app = AppId(0);
        let shard = rt.shard_map().shard_of(app);
        let r = rt.call(env(
            1,
            Request::AppRegister {
                app,
                workload: "LR".into(),
            },
        ));
        assert!(matches!(r, Response::Registered { .. }));
        let r = rt.call(env(
            2,
            Request::ConnCreate {
                app,
                src: servers[0],
                dst: servers[1],
                tag: 7,
            },
        ));
        assert_eq!(r, Response::Ack);

        rt.kill_shard(shard);
        // The retrying path rides through the failover window: the
        // standby replays the log, so the destroy of the *pre-crash*
        // connection must succeed.
        let r = rt.call_with_retries(
            env(3, Request::ConnDestroy { app, tag: 7 }),
            40,
            Duration::from_millis(25),
        );
        assert_eq!(r, Response::Ack);
        assert!(rt.failovers() >= 1);
        assert!(rt.replaced_shards().contains(&shard));
        rt.shutdown();
    }

    /// A shard log the controller refuses on replay stops the start
    /// with the worker's error, instead of a worker that dies at birth
    /// and a supervisor that respawns it forever.
    #[test]
    fn a_log_the_controller_refuses_fails_the_start() {
        let cfg = fresh_cfg("refused");
        let rt = ServiceRuntime::start(spec(), cfg.clone()).unwrap();
        let r = rt.call(env(
            1,
            Request::AppRegister {
                app: AppId(0),
                workload: "LR".into(),
            },
        ));
        assert!(matches!(r, Response::Registered { .. }), "{r:?}");
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

    /// Only a quiet worker is asked to echo, and an echo every other
    /// probe is life enough: idling past the silence window must not
    /// fail anything over.
    #[test]
    fn an_idle_runtime_outlives_the_silence_window() {
        let rt = ServiceRuntime::start(spec(), fresh_cfg("idle")).unwrap();
        std::thread::sleep(Duration::from_secs_f64(PROBE.window + 0.25));
        assert_eq!(rt.failovers(), 0);
        let r = rt.call(env(
            1,
            Request::AppRegister {
                app: AppId(0),
                workload: "LR".into(),
            },
        ));
        assert!(matches!(r, Response::Registered { .. }), "{r:?}");
        assert_eq!(rt.shutdown().failovers, 0);
    }

    /// Workers publish per batch, after the acks: by the time a call
    /// returns its shard's batch may still be unpublished, but the
    /// next call on the same shard queues behind that publication.
    #[test]
    fn workers_publish_wall_and_wal_families_into_the_scraped_hub() {
        let rt = Arc::new(ServiceRuntime::start(spec(), fresh_cfg("scrape")).unwrap());
        let servers = rt.spec().topo.servers().to_vec();
        let r = rt.call(env(
            1,
            Request::AppRegister {
                app: AppId(0),
                workload: "LR".into(),
            },
        ));
        assert!(matches!(r, Response::Registered { .. }));
        for i in 0..8u64 {
            let r = rt.call(env(
                2 + i,
                Request::ConnCreate {
                    app: AppId(0),
                    src: servers[0],
                    dst: servers[1],
                    tag: i,
                },
            ));
            assert_eq!(r, Response::Ack);
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
        // The registry snapshot agrees with the rendered page.
        let reg = rt.metrics_registry();
        assert_eq!(reg.counter("service.metrics_dumps"), 1);
        assert_eq!(reg.counter("service.requests"), 9);
        rt.shutdown();
    }

    #[test]
    fn full_queue_pushes_back_with_shard_busy() {
        // One shard, tiny queue, and we never start a consumer fast
        // enough: saturate from many threads and require at least one
        // ShardBusy *or* all acks (the worker may drain fast) — but a
        // queue_depth of 1 with a blocked worker must reject.
        let mut cfg = fresh_cfg("busy");
        cfg.shards = 1;
        cfg.queue_depth = 1;
        cfg.batch_max = 1;
        let rt = Arc::new(ServiceRuntime::start(spec(), cfg).unwrap());
        rt.call(env(
            1,
            Request::AppRegister {
                app: AppId(0),
                workload: "LR".into(),
            },
        ));
        let servers = rt.spec().topo.servers().to_vec();
        let mut handles = Vec::new();
        for i in 0..16u64 {
            let rt = rt.clone();
            let servers = servers.clone();
            handles.push(std::thread::spawn(move || {
                rt.call(env(
                    10 + i,
                    Request::ConnCreate {
                        app: AppId(0),
                        src: servers[0],
                        dst: servers[1],
                        tag: i,
                    },
                ))
            }));
        }
        let resps: Vec<Response> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        let busy = resps
            .iter()
            .filter(|r| {
                matches!(
                    r,
                    Response::Error {
                        code: ErrorCode::ShardBusy,
                        ..
                    }
                )
            })
            .count();
        let acked = resps.iter().filter(|r| matches!(r, Response::Ack)).count();
        // Everything either lands or pushes back retryably — never a
        // fatal rejection (a slow worker may also time a reply out).
        for r in &resps {
            if let Response::Error { code, .. } = r {
                assert!(code.is_retryable(), "{r:?}");
            }
        }
        assert!(
            acked >= 1,
            "some requests must land: {busy} busy / {acked} acked"
        );
        rt.shutdown();
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

    /// Waits, up to 10 s, for `done` to hold.
    fn eventually(mut done: impl FnMut() -> bool) -> bool {
        let t0 = Instant::now();
        while !done() {
            if t0.elapsed() > Duration::from_secs(10) {
                return false;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        true
    }

    /// A thread that panics holding the service lock poisons it; the
    /// callers after it and the supervisor still get the lock, and a
    /// failover still completes.
    #[test]
    fn a_poisoned_service_lock_panics_neither_callers_nor_the_supervisor() {
        let rt = ServiceRuntime::start(spec(), fresh_cfg("poison")).unwrap();
        let hub = rt.hub.clone();
        let panicked = std::thread::spawn(move || {
            let _held = hub.shared();
            panic!("injected panic under the service lock");
        })
        .join();
        assert!(panicked.is_err() && rt.hub.shared.is_poisoned());
        let app = AppId(0);
        assert!(matches!(register(&rt, 1, app), Response::Registered { .. }));
        rt.kill_shard(rt.shard_map().shard_of(app));
        let r = rt.call_with_retries(
            env(2, Request::AppDeregister { app }),
            40,
            Duration::from_millis(25),
        );
        assert_eq!(r, Response::Ack, "the supervisor failed the shard over");
        assert!(rt.shutdown().failovers >= 1);
    }

    /// A supervisor the OS will not start fails the start with the
    /// spawn's error, after every worker started for it has ended: none
    /// holds the hub any more.
    #[test]
    fn a_refused_supervisor_fails_the_start_and_ends_its_workers() {
        let mut cfg = fresh_cfg("supervisor");
        cfg.shards = 3;
        let hub = Hub::new(spec(), cfg).unwrap();
        hub.supervisor_spawn_fails.store(true, Ordering::Relaxed);
        let Err(e) = ServiceRuntime::launch(hub.clone()) else {
            panic!("a start without a supervisor must fail");
        };
        assert!(e.to_string().contains("supervisor"), "{e}");
        assert!(hub.shared().workers.is_empty());
        assert_eq!(Arc::strong_count(&hub), 1, "a worker outlived the start");
    }

    /// A standby the OS will not start leaves its shard answering
    /// `FailingOver` — retryable — and the supervisor retrying, until
    /// one starts; nothing panics on the way.
    #[test]
    fn a_failed_standby_spawn_fails_over_once_a_spawn_succeeds() {
        let rt = ServiceRuntime::start(spec(), fresh_cfg("spawnfail")).unwrap();
        let app = AppId(0);
        assert!(matches!(register(&rt, 1, app), Response::Registered { .. }));
        rt.hub.spawn_fails.store(true, Ordering::Relaxed);
        rt.kill_shard(rt.shard_map().shard_of(app));
        let failures = || (rt.metrics_registry()).counter("service.standby_spawn_failures");
        assert!(eventually(|| failures() >= 2), "the supervisor retries");
        let r = register(&rt, 2, app);
        assert!(
            matches!(
                r,
                Response::Error {
                    code: ErrorCode::FailingOver,
                    ..
                }
            ),
            "{r:?}"
        );
        assert_eq!(rt.failovers(), 0);
        rt.hub.spawn_fails.store(false, Ordering::Relaxed);
        assert!(eventually(|| rt.failovers() == 1), "a standby started");
        let r = rt.call_with_retries(
            env(3, Request::AppDeregister { app }),
            40,
            Duration::from_millis(25),
        );
        assert_eq!(r, Response::Ack, "the standby replayed the registration");
        rt.shutdown();
    }
}
