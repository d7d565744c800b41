//! `svc_durable` and `svc_wire`: the allocation service under
//! control-plane churn — request in, durable ack out.
//!
//! Both drive the same 2-shard `ServiceRuntime` (central flavour, 64
//! tenants on a 32-server switch) from two generator threads, paced at
//! a fixed rate and timed from each request's due time. `svc_durable`
//! calls the runtime in process; `svc_wire` goes through
//! `TcpServiceServer` over loopback, so the pair isolates the transport.

use crate::gen::{self, ServiceOps, SVC_MODELS, SVC_SERVERS};
use crate::metrics::Outcome;
use crate::span::Tracer;
use crate::stats;
use crate::{median_setup, overhead_pct, report, slice, E2e, SLICES};
use saba_core::controller::central::CentralController;
use saba_core::controller::ControllerConfig;
use saba_core::library::Transport;
use saba_core::rpc::{decode_envelope, encode_envelope, Envelope, Request, Response};
use saba_service::net::{TcpServiceServer, TcpTransport};
use saba_service::runtime::{RuntimeConfig, RuntimeReport, ServiceRuntime};
use saba_service::shard::{Flavour, Shard, ShardSpec};
use saba_service::wal::{self, DurableLog, ReplayState};
use saba_sim::topology::Topology;
use std::collections::{BTreeMap, BTreeSet};
use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Generator threads (and TCP connections): the host has two cores.
const CLIENTS: usize = 2;
const SHARDS: usize = 2;
/// Offered rate, both generators together: about a quarter of what the
/// disk-backed service sustains closed loop, so requests do not queue
/// unless the disk stalls. (Closed loop, the CPU cost per request
/// followed the disk's speed and swung ±15 % between runs; paced, ±3 %.)
const OFFERED_OPS_PER_S: f64 = 400.0;
/// Requests each layer sees in the layer replay.
const REPLAY_OPS: usize = 10_000;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// In-process `ServiceRuntime::call`.
    Durable,
    /// `TcpTransport::call` over loopback.
    Wire,
}

impl Mode {
    /// The service workload called `workload`, if it is one.
    pub fn of(workload: &str) -> Option<Self> {
        match workload {
            "svc_durable" => Some(Mode::Durable),
            "svc_wire" => Some(Mode::Wire),
            _ => None,
        }
    }

    fn warmup_ops(self) -> usize {
        match self {
            Mode::Durable => 2_000,
            Mode::Wire => 1_000,
        }
    }
}

/// Gap between one generator's due times at the offered rate.
fn pace() -> Option<Duration> {
    Some(Duration::from_secs_f64(CLIENTS as f64 / OFFERED_OPS_PER_S))
}

/// Acks per second of a phase, which ends with its last ack.
fn acks_per_s(log: &PhaseLog) -> f64 {
    let acked = log.lat_us.len() as u64 - log.failed;
    acked as f64 / log.done_s.iter().cloned().fold(0.0, f64::max)
}

fn shard_spec() -> ShardSpec {
    ShardSpec {
        cfg: ControllerConfig::default(),
        table: gen::degree2_table(SVC_MODELS),
        topo: Topology::single_switch(SVC_SERVERS, 100.0),
        flavour: Flavour::Central,
    }
}

fn runtime_config(log_dir: &Path) -> RuntimeConfig {
    RuntimeConfig {
        shards: SHARDS,
        queue_depth: 512,
        batch_max: 128,
        ..RuntimeConfig::new(log_dir)
    }
}

/// One generator's connection to the service.
enum Client {
    InProc(Arc<ServiceRuntime>, u64),
    Tcp(TcpTransport),
}

impl Client {
    fn call(&mut self, req: Request) -> Response {
        match self {
            Client::InProc(rt, next_id) => {
                *next_id += 1;
                rt.call(Envelope::new(*next_id, req))
            }
            Client::Tcp(t) => t.call(req),
        }
    }
}

/// The benchmark's own record of what the service acked.
#[derive(Debug, Default, PartialEq)]
struct Mirror {
    registered: BTreeMap<u32, String>,
    live: BTreeSet<(u32, u64)>,
}

impl Mirror {
    fn absorb(&mut self, req: &Request) {
        match req {
            Request::AppRegister { app, workload } => {
                self.registered.insert(app.0, workload.clone());
            }
            Request::ConnCreate { app, tag, .. } => {
                self.live.insert((app.0, *tag));
            }
            Request::ConnDestroy { app, tag } => {
                self.live.remove(&(app.0, *tag));
            }
            Request::AppDeregister { app } => {
                self.registered.remove(&app.0);
                self.live.retain(|(a, _)| *a != app.0);
            }
            Request::MetricsDump => {}
        }
    }

    fn merge(&mut self, other: Mirror) {
        self.registered.extend(other.registered);
        self.live.extend(other.live);
    }

    /// What the shard logs under `dir` hold, read back from disk.
    fn from_logs(dir: &Path) -> std::io::Result<Self> {
        let mut mirror = Mirror::default();
        for shard in 0..SHARDS {
            let bytes = std::fs::read(Shard::log_path(dir, shard))?;
            let state = ReplayState::replay(&wal::scan(&bytes).records);
            mirror
                .registered
                .extend(state.registrations.into_iter().map(|(a, w)| (a.0, w)));
            mirror
                .live
                .extend(state.live_conns.into_keys().map(|(a, t)| (a.0, t)));
        }
        Ok(mirror)
    }
}

/// One generator thread's state across the phases of a run.
struct Generator {
    client: Client,
    /// This generator's tenants' requests, endless.
    ops: Box<dyn Iterator<Item = Request> + Send>,
    mirror: Mirror,
}

/// What one generator measured in one phase.
#[derive(Default)]
struct PhaseLog {
    /// Request → ack, µs (from the due time when paced).
    lat_us: Vec<f64>,
    /// Ack times, seconds since the phase began.
    done_s: Vec<f64>,
    /// How late each send ran behind its due time, µs (paced only).
    late_us: Vec<f64>,
    /// `(send or due, ack)` per request, kept only when tracing.
    spans: Vec<(Instant, Instant)>,
    failed: u64,
    retryable: u64,
}

impl PhaseLog {
    fn merge(logs: Vec<PhaseLog>) -> PhaseLog {
        let mut all = PhaseLog::default();
        for l in logs {
            all.lat_us.extend(l.lat_us);
            all.done_s.extend(l.done_s);
            all.late_us.extend(l.late_us);
            all.spans.extend(l.spans);
            all.failed += l.failed;
            all.retryable += l.retryable;
        }
        all
    }
}

/// When a phase ends.
#[derive(Clone, Copy)]
enum Until {
    /// After this many requests per generator.
    Ops(usize),
    /// When the next request would start (paced: be due) this many
    /// seconds into the phase.
    Seconds(f64),
}

impl Generator {
    /// Sends requests until `until`, each after the previous ack (and,
    /// when paced, not before its due time `begin + i × pace`).
    fn drive(
        &mut self,
        begin: Instant,
        until: Until,
        pace: Option<Duration>,
        keep_spans: bool,
    ) -> PhaseLog {
        let mut log = PhaseLog::default();
        let mut sent = 0usize;
        loop {
            let now = Instant::now();
            let due = pace.map(|gap| begin + gap * sent as u32);
            let from = due.unwrap_or(now);
            let done = match until {
                Until::Ops(n) => sent >= n,
                Until::Seconds(s) => from >= begin + Duration::from_secs_f64(s),
            };
            if done {
                break;
            }
            if let Some(due) = due {
                if let Some(wait) = due.checked_duration_since(now) {
                    std::thread::sleep(wait);
                }
                let late = Instant::now().saturating_duration_since(due);
                log.late_us.push(late.as_secs_f64() * 1e6);
            }
            let req = self.ops.next().expect("the churn stream is endless");
            let resp = self.client.call(req.clone());
            let acked = Instant::now();
            sent += 1;
            match resp {
                Response::Error { code, message } => {
                    eprintln!("request failed ({code}): {message}");
                    log.failed += 1;
                    log.retryable += code.is_retryable() as u64;
                }
                _ => self.mirror.absorb(&req),
            }
            log.lat_us.push((acked - from).as_secs_f64() * 1e6);
            log.done_s.push((acked - begin).as_secs_f64());
            if keep_spans {
                log.spans.push((from, acked));
            }
        }
        log
    }
}

/// Drives every generator on its own thread through one phase.
fn phase(
    gens: &mut [Generator],
    until: Until,
    pace: Option<Duration>,
    keep_spans: bool,
) -> PhaseLog {
    let begin = Instant::now();
    let logs = std::thread::scope(|s| {
        let handles: Vec<_> = gens
            .iter_mut()
            .map(|g| s.spawn(move || g.drive(begin, until, pace, keep_spans)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("generator thread"))
            .collect()
    });
    PhaseLog::merge(logs)
}

/// A started service with its generators attached.
struct Service {
    dir: PathBuf,
    spec: ShardSpec,
    rt: Arc<ServiceRuntime>,
    server: Option<TcpServiceServer>,
    gens: Vec<Generator>,
}

impl Service {
    fn start(mode: Mode, seed: u64, dir: PathBuf) -> Self {
        let _ = std::fs::remove_dir_all(&dir);
        let spec = shard_spec();
        let rt = ServiceRuntime::start(spec.clone(), runtime_config(&dir)).expect("runtime starts");
        let rt = Arc::new(rt);
        let server = (mode == Mode::Wire)
            .then(|| TcpServiceServer::bind(rt.clone(), "127.0.0.1:0").expect("loopback binds"));
        let gens = (0..CLIENTS)
            .map(|c| Generator {
                client: match &server {
                    None => Client::InProc(rt.clone(), (c as u64) << 40),
                    Some(s) => Client::Tcp(
                        TcpTransport::connect(s.addr(), (c as u64) << 40).expect("client connects"),
                    ),
                },
                ops: Box::new(gen::tenant_ops(
                    seed,
                    spec.topo.servers().to_vec(),
                    c,
                    CLIENTS,
                )),
                mirror: Mirror::default(),
            })
            .collect();
        Self {
            dir,
            spec,
            rt,
            server,
            gens,
        }
    }

    /// Closed-loop warm-up requests: tenants register and build their
    /// connection working sets before anything is timed.
    fn warm_up(&mut self, mode: Mode) {
        let warm = phase(
            &mut self.gens,
            Until::Ops(mode.warmup_ops() / CLIENTS),
            None,
            false,
        );
        assert_eq!(warm.failed, 0, "warm-up requests must all be acked");
    }

    /// Hangs up, stops the server and the workers, and returns the
    /// acked-state mirror with the runtime's final report. A second
    /// call (from `drop`) finds nothing left to stop.
    fn stop(&mut self) -> (Mirror, RuntimeReport) {
        let mut mirror = Mirror::default();
        for g in std::mem::take(&mut self.gens) {
            mirror.merge(g.mirror);
        }
        if let Some(server) = self.server.take() {
            server.stop();
        }
        (mirror, self.rt.shutdown())
    }
}

impl Drop for Service {
    /// A discarded set-up repetition must not leave its worker and
    /// supervisor threads running beside the measurement.
    fn drop(&mut self) {
        self.stop();
    }
}

/// Logical durability: the logs, read back, hold exactly what was acked.
fn logs_match_acks(dir: &Path, mirror: &Mirror) -> bool {
    report(
        "shard logs replay to the acked state",
        match Mirror::from_logs(dir) {
            Ok(logged) if &logged == mirror => Ok(()),
            Ok(logged) => Err(format!(
                "logs hold {} tenants / {} conns, acks say {} / {}",
                logged.registered.len(),
                logged.live.len(),
                mirror.registered.len(),
                mirror.live.len()
            )),
            Err(e) => Err(format!("cannot read the logs back: {e}")),
        },
    )
}

pub fn e2e(mode: Mode, seed: u64, seconds: f64, scratch: &Path) -> E2e {
    let mut round = 0;
    let (setup_s, mut svc) = median_setup(3, || {
        round += 1;
        let mut svc = Service::start(mode, seed, scratch.join(format!("wal-{round}")));
        svc.warm_up(mode);
        svc
    });
    let (mut logs, mut slices, mut rates) = (Vec::new(), Vec::new(), Vec::new());
    for _ in 0..SLICES {
        let log = slice(&mut slices, || {
            let until = Until::Seconds(seconds / SLICES as f64);
            let log = phase(&mut svc.gens, until, pace(), false);
            (log.lat_us.len() as u64 - log.failed, log)
        });
        rates.push(acks_per_s(&log));
        logs.push(log);
    }
    let log = PhaseLog::merge(logs);
    let dir = svc.dir.clone();
    let (mirror, _) = svc.stop();
    let correct = logs_match_acks(&dir, &mirror);
    E2e {
        setup_s,
        slices,
        wall_ops_per_s: stats::median(&rates),
        attempted: log.lat_us.len() as u64,
        failed: log.failed,
        lat_us: log.lat_us,
        correct,
    }
}

pub fn traced(
    mode: Mode,
    seed: u64,
    seconds: f64,
    scratch: &Path,
    tracer: &mut Tracer,
    out: &mut Outcome,
) {
    let mut svc = Service::start(mode, seed, scratch.join("wal-traced"));
    svc.warm_up(mode);

    // End to end at the offered rate, untraced then traced, a fifth of
    // the run each; then closed loop (each generator sends again as soon
    // as it is acked) for the throughput the two generators can draw.
    let fifth = Until::Seconds(0.2 * seconds);
    let plain = phase(&mut svc.gens, fifth, pace(), false);
    let mut e2e = phase(&mut svc.gens, fifth, pace(), true);
    let closed = phase(&mut svc.gens, Until::Seconds(0.1 * seconds), None, false);
    for (i, &(start, end)) in e2e.spans.iter().enumerate() {
        tracer.push("service.ack", i as u64, None, start, end);
    }
    stats::sort(&mut e2e.lat_us);
    stats::sort(&mut e2e.late_us);
    let e2e_p50 = stats::percentile(&e2e.lat_us, 0.5);

    // Scrape cost while the service is up, then its counters.
    let mut scrape = Vec::new();
    for i in 0..50 {
        let (_, secs) = tracer.time("telemetry.dump_metrics", i, None, || {
            black_box(svc.rt.dump_metrics())
        });
        scrape.push(secs * 1e6);
    }
    let hub = svc.rt.metrics_registry();
    let per_shard = |family: &str| -> f64 {
        (0..SHARDS)
            .filter_map(|s| hub.gauge(&format!("{family}/shard={s}")))
            .sum()
    };
    let (mut commits, mut committed) = (0.0, 0.0);
    for s in 0..SHARDS {
        if let Some(h) = hub.histogram(&format!("wal.group_commit_size/shard={s}")) {
            commits += h.count() as f64;
            committed += h.sum();
        }
    }
    let requests = hub.counter("service.requests") as f64;
    let records = per_shard("wal.records_appended");
    out.set(
        "service.wal.fsyncs_per_op",
        per_shard("wal.fsyncs") / records,
    );
    out.set("service.wal.group_commit_mean", committed / commits);
    out.set(
        "service.runtime.shard_busy",
        hub.counter("service.shard_busy") as f64,
    );
    out.set(
        "service.wal.bytes_per_op",
        per_shard("wal.bytes_appended") / records,
    );

    let (spec, dir) = (svc.spec.clone(), svc.dir.clone());
    let (mirror, rt_report) = svc.stop();
    let batches: u64 = rt_report.workers.iter().map(|w| w.batches).sum();
    let dedup: u64 = rt_report.workers.iter().map(|w| w.stats.dedup_hits).sum();
    out.set("service.runtime.batches_per_op", batches as f64 / requests);
    out.set("service.shard.dedup_hits", dedup as f64);
    out.correct = logs_match_acks(&dir, &mirror);

    // Recovery of shard 0 from the log the run just wrote, and its parts.
    let log_path = Shard::log_path(&dir, 0);
    let mut recover = Vec::new();
    for i in 0..5 {
        let (opened, secs) = tracer.time("service.shard.open", i, None, || {
            Shard::open(0, spec.clone(), &dir, 32)
        });
        opened.expect("shard 0 re-opens");
        recover.push(secs * 1e3);
    }
    let bytes = std::fs::read(&log_path).expect("shard 0 log reads back");
    let (scan, scan_s) = tracer.time("service.wal.scan", 0, None, || wal::scan(&bytes));
    let (_, replay_s) = tracer.time("service.wal.replay", 0, None, || {
        black_box(ReplayState::replay(&scan.records))
    });
    let (_, solve_s) = tracer.time("service.shard.scratch_solve", 0, None, || {
        black_box(spec.scratch_solve(&scan.records))
    });
    out.set("service.shard.recover_ms", stats::median(&recover));
    out.set("service.wal.scan_ms", scan_s * 1e3);
    out.set("service.wal.replay_ms", replay_s * 1e3);
    out.set("service.shard.scratch_solve_ms", solve_s * 1e3);
    out.set("service.wal.log_bytes", bytes.len() as f64);

    let layers = layer_replay(mode, &spec, seed, &dir, 0.3 * seconds, tracer);
    let call_1c = layers.call_1c_us;
    let shard_self = layers.batch1_us - layers.append_us - layers.sync_us - layers.event_us;
    let net = layers.tcp_call_us.map_or(0.0, |tcp| tcp - call_1c);
    // The layers (append, sync, event, shard self, hop, net) add up to
    // call_1c + net by construction; what is left of the ack waited.
    let wait = e2e_p50 - call_1c - net;
    out.attempted = (plain.lat_us.len() + e2e.lat_us.len() + closed.lat_us.len()) as u64;
    out.failed = plain.failed + e2e.failed + closed.failed;
    out.set("core.rpc.encode_ns", layers.encode_ns);
    out.set("core.rpc.decode_ns", layers.decode_ns);
    out.set("core.rpc.frame_bytes", layers.frame_bytes);
    out.set("service.wal.append_us", layers.append_us);
    out.set("service.wal.sync_us", layers.sync_us);
    out.set("service.wal.sync_p99_us", layers.sync_p99_us);
    out.set("service.shard.batch1_us", layers.batch1_us);
    out.set("service.shard.batch32_us_per_op", layers.batch32_us_per_op);
    out.set("core.controller.event_us", layers.event_us);
    out.set("service.shard.self_us", shard_self);
    out.set("service.runtime.call_1c_us", call_1c);
    out.set("service.runtime.hop_us", call_1c - layers.batch1_us);
    out.set("service.runtime.wait_us", wait);
    out.set("service.net.overhead_us", net);
    out.set("service.runtime.ack_p50_us", e2e_p50);
    out.set(
        "service.runtime.ack_p99_us",
        stats::percentile(&e2e.lat_us, 0.99),
    );
    out.set("service.runtime.acks_per_s", acks_per_s(&e2e));
    out.set("service.runtime.closed_acks_per_s", acks_per_s(&closed));
    out.set(
        "service.runtime.closed_ack_p50_us",
        stats::median(&closed.lat_us),
    );
    out.set(
        "service.runtime.retryable_errors",
        (plain.retryable + e2e.retryable + closed.retryable) as f64,
    );
    out.set("telemetry.scrape_us", stats::median(&scrape));
    if !e2e.late_us.is_empty() {
        out.set(
            "bench.gen_late_p99_us",
            stats::percentile(&e2e.late_us, 0.99),
        );
    }
    out.set("bench.ledger_residual_pct", 100.0 * wait / e2e_p50);
    out.set(
        "bench.trace_overhead_pct",
        overhead_pct(e2e_p50, stats::median(&plain.lat_us)),
    );
}

/// Median cost of each layer's public entry point on the head of the
/// request stream (µs unless named otherwise).
struct Layers {
    encode_ns: f64,
    decode_ns: f64,
    frame_bytes: f64,
    append_us: f64,
    sync_us: f64,
    sync_p99_us: f64,
    batch1_us: f64,
    batch32_us_per_op: f64,
    event_us: f64,
    call_1c_us: f64,
    tcp_call_us: Option<f64>,
}

/// Drives the first requests of the stream, single-threaded and in
/// request order, through each layer's public entry point — one span
/// per call, all spans of a request sharing its index. The cheap layers
/// (codec, buffered append, bare controller) see all `REPLAY_OPS`. The
/// fsync-bound ones (log sync, shard, runtime, TCP) take each request
/// in turn inside one loop, so disk drift hits them alike and their
/// differences mean something; that loop runs for `seconds`.
fn layer_replay(
    mode: Mode,
    spec: &ShardSpec,
    seed: u64,
    dir: &Path,
    seconds: f64,
    tracer: &mut Tracer,
) -> Layers {
    let envs: Vec<Envelope> = ServiceOps::new(seed, spec.topo.servers().to_vec())
        .take(REPLAY_OPS)
        .enumerate()
        .map(|(i, r)| Envelope::new(i as u64, r))
        .collect();
    let p50_us = |secs: &[f64]| stats::median(secs) * 1e6;
    let acked = |resp: &Response| assert!(!matches!(resp, Response::Error { .. }), "{resp:?}");

    // core::rpc — the wire codec.
    let (mut encode, mut decode, mut frame_bytes) = (Vec::new(), Vec::new(), 0usize);
    for env in &envs {
        let (frame, secs) = tracer.time("core.rpc.encode_envelope", env.request_id, None, || {
            encode_envelope(env)
        });
        encode.push(secs);
        frame_bytes += frame.len();
        let (decoded, secs) = tracer.time("core.rpc.decode_envelope", env.request_id, None, || {
            decode_envelope(&frame).map(|(e, _)| e)
        });
        decode.push(secs);
        assert_eq!(decoded.as_ref(), Ok(env), "codec round trip");
    }

    // service::wal — buffered appends (no sync).
    let (mut log, _) =
        DurableLog::open(&dir.join("replay-wal.log"), usize::MAX).expect("replay log opens");
    let mut append = Vec::new();
    for env in &envs {
        let (res, secs) = tracer.time("service.wal.append", env.request_id, None, || {
            log.append(&env.request)
        });
        res.expect("append");
        append.push(secs);
    }
    log.sync().expect("sync");

    // core::controller — the same events on a bare controller.
    let mut ctl = CentralController::new(spec.cfg.clone(), spec.table.clone(), &spec.topo);
    let mut event = Vec::new();
    for env in &envs {
        let (ok, secs) = tracer.time("core.controller.event", env.request_id, None, || match &env
            .request
        {
            Request::AppRegister { app, workload } => ctl.register(*app, workload).is_ok(),
            Request::ConnCreate { app, src, dst, tag } => ctl
                .conn_create(*app, *src, *dst, *tag)
                .map(black_box)
                .is_ok(),
            Request::ConnDestroy { app, tag } => {
                ctl.conn_destroy(*app, *tag).map(black_box).is_ok()
            }
            Request::AppDeregister { app } => ctl.deregister(*app).map(black_box).is_ok(),
            Request::MetricsDump => true,
        });
        assert!(ok, "controller refused {:?}", env.request);
        event.push(secs);
    }

    // The fsync-bound layers, each on its own log under the workload's
    // directory: a one-record group commit, a bare shard, a runtime with
    // one uncontended client and (svc_wire) a second one behind TCP.
    let open_shard = |name: &str| {
        std::fs::create_dir_all(dir.join(name)).expect("replay dir");
        let (shard, _) = Shard::open(0, spec.clone(), &dir.join(name), 32).expect("shard opens");
        shard
    };
    let start_runtime = |name: &str| {
        let rt = ServiceRuntime::start(spec.clone(), runtime_config(&dir.join(name)));
        Arc::new(rt.expect("replay runtime starts"))
    };
    let mut shard = open_shard("replay-shard1");
    let rt = start_runtime("replay-rt");
    let wire = (mode == Mode::Wire).then(|| {
        let rt = start_runtime("replay-rt-tcp");
        let server = TcpServiceServer::bind(rt.clone(), "127.0.0.1:0").expect("loopback binds");
        let tcp = TcpTransport::connect(server.addr(), 1 << 40).expect("client connects");
        (rt, server, tcp)
    });
    let (mut wire_rt, mut tcp) = match wire {
        Some((rt, server, tcp)) => (Some((rt, server)), Some(tcp)),
        None => (None, None),
    };
    let (mut sync, mut batch1, mut call, mut tcp_call) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let t0 = Instant::now();
    for env in &envs {
        if t0.elapsed().as_secs_f64() >= seconds {
            break;
        }
        let id = env.request_id;
        log.append(&env.request).expect("append");
        let (res, secs) = tracer.time("service.wal.sync", id, None, || log.sync());
        res.expect("sync");
        sync.push(secs);
        let (resps, secs) = tracer.time("service.shard.handle_batch", id, None, || {
            shard.handle_batch(std::slice::from_ref(env))
        });
        acked(&resps[0]);
        batch1.push(secs);
        let (resp, secs) = tracer.time("service.runtime.call", id, None, || rt.call(env.clone()));
        acked(&resp);
        call.push(secs);
        if let Some(tcp) = tcp.as_mut() {
            let (resp, secs) = tracer.time("service.net.call", id, None, || {
                tcp.call(env.request.clone())
            });
            acked(&resp);
            tcp_call.push(secs);
        }
    }
    drop(tcp);
    if let Some((wire_rt, server)) = wire_rt.take() {
        server.stop();
        wire_rt.shutdown();
    }
    rt.shutdown();
    stats::sort(&mut sync);

    // service::shard again, 32 requests per group commit.
    let mut shard = open_shard("replay-shard32");
    let mut batch32 = Vec::new();
    let t0 = Instant::now();
    for batch in envs.chunks_exact(32) {
        if t0.elapsed().as_secs_f64() >= 0.25 * seconds {
            break;
        }
        let id = batch[0].request_id;
        let (_, secs) = tracer.time("service.shard.handle_batch32", id, None, || {
            black_box(shard.handle_batch(batch))
        });
        batch32.push(secs / 32.0);
    }

    Layers {
        encode_ns: stats::median(&encode) * 1e9,
        decode_ns: stats::median(&decode) * 1e9,
        frame_bytes: frame_bytes as f64 / envs.len() as f64,
        append_us: p50_us(&append),
        sync_us: stats::percentile(&sync, 0.5) * 1e6,
        sync_p99_us: stats::percentile(&sync, 0.99) * 1e6,
        batch1_us: p50_us(&batch1),
        batch32_us_per_op: p50_us(&batch32),
        event_us: p50_us(&event),
        call_1c_us: p50_us(&call),
        tcp_call_us: (!tcp_call.is_empty()).then(|| p50_us(&tcp_call)),
    }
}
