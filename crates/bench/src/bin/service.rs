//! `service` — the allocation-service tier under synthetic churn.
//!
//! Two stages, both driven by `saba-workload`'s seeded churn stream:
//!
//! 1. **Deterministic failover drill** (always runs): the
//!    logical-clock [`AllocationService`] absorbs a seeded churn
//!    trace, loses a shard mid-stream, and fails over to a standby
//!    replaying the durable log. Verified: exactly one failover, zero
//!    acked operations lost (against an independent ack mirror), and
//!    a byte-identical telemetry export across two identically-seeded
//!    runs — the determinism contract CI gates on in `--smoke` mode.
//! 2. **Threaded soak**: the real [`ServiceRuntime`] — worker threads,
//!    group-committed fsyncs, supervisor probes — absorbs the trace
//!    from concurrent clients, with a worker killed mid-soak. Reported:
//!    registrations/sec, overall ops/sec, and the p50/p99 wall-clock
//!    re-allocation latency from the workers' telemetry histograms
//!    (request arrival at the shard to durable ack). `--long` scales
//!    this to the million-connection-event soak. The ledger's `svc_*`
//!    workloads are where this path is timed across commits.
//!
//! The drill repeats across Eq. 2 solver-thread counts (1/2/8) and
//! asserts a byte-identical telemetry export at every count, then
//! writes the span-tree JSONL artifact to `results/service_spans.jsonl`
//! (the nightly workflow uploads it). `--scrape` runs only the
//! exposition check: a TCP server is stood up, churned, and scraped
//! twice via the `MetricsDump` RPC — required metric families must be
//! present and counters monotone between the scrapes.
//!
//! Wall-clock figures go to stdout only; the CSV under `results/`
//! carries exclusively deterministic counters and is written by
//! `--long` alone.
//!
//! Usage: `service [--smoke|--quick] [--long] [--scrape] [--ops N] [--shards N] [--clients N]`

use saba_bench::{arg_usize, catalog_table, print_table, results_dir, write_csv};
use saba_core::controller::ControllerConfig;
use saba_core::rpc::{Envelope, ErrorCode, Request, Response};
use saba_core::sensitivity::SensitivityTable;
use saba_service::heartbeat::HeartbeatConfig;
use saba_service::net::{TcpServiceServer, TcpTransport};
use saba_service::runtime::{RuntimeConfig, ServiceRuntime};
use saba_service::service::{AllocationService, ServiceConfig};
use saba_service::shard::{Flavour, ShardSpec};
use saba_service::{MONOTONE_COUNTERS, REQUIRED_FAMILIES};
use saba_sim::ids::{AppId, NodeId};
use saba_sim::topology::Topology;
use saba_telemetry::{check_scrapes, Recorder, SharedRecorder};
use saba_workload::churn::{ChurnOp, ChurnTrace, ChurnTraceConfig};
use std::collections::{BTreeMap, BTreeSet};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn flag(name: &str) -> bool {
    std::env::args().any(|a| a == name)
}

fn spec(table: &SensitivityTable, servers: usize) -> ShardSpec {
    ShardSpec {
        cfg: ControllerConfig::default(),
        table: table.clone(),
        topo: Topology::single_switch(servers, 100.0),
        flavour: Flavour::Central,
    }
}

fn tmpdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("saba-bench-service-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn to_request(op: &ChurnOp, servers: &[NodeId]) -> Request {
    Request::from_churn(op, servers).expect("demand_shift disabled in service drives")
}

/// One deterministic drill pass: seeded churn, a mid-stream shard
/// crash, standby takeover, loss accounting. Returns the telemetry
/// export (trace JSONL + metrics JSON) and the final service stats.
fn drill_once(
    table: &SensitivityTable,
    ops: usize,
    threads: usize,
    tag: &str,
) -> (String, String, u64, u64) {
    const SERVERS: usize = 8;
    let dir = tmpdir(tag);
    let cfg = ServiceConfig {
        shards: 3,
        sync_every: 8,
        heartbeat: HeartbeatConfig {
            interval: 0.5,
            window: 2.0,
        },
        ..ServiceConfig::new(&dir)
    };
    let spec = spec(table, SERVERS);
    let servers = spec.topo.servers().to_vec();
    let mut svc = AllocationService::open(spec, cfg).expect("service opens");
    let sink = SharedRecorder::on(Recorder::default());
    svc.set_sink(sink.clone());
    svc.set_solver_threads(threads);

    let trace = ChurnTrace::new(
        ChurnTraceConfig {
            tenants: 9,
            servers: SERVERS as u32,
            conns_per_tenant: 5,
            tenant_churn: 5e-3,
            ..ChurnTraceConfig::default()
        },
        0x5aba,
    );

    let mut acked_regs: BTreeSet<u32> = BTreeSet::new();
    let mut acked_live: BTreeMap<(u32, u64), ()> = BTreeMap::new();
    let mut pending: Vec<Envelope> = Vec::new();
    let mut clock = 0.0;
    let kill_at = ops / 2;
    for (step, op) in trace.take(ops).enumerate() {
        if step % 4 == 0 {
            clock += 0.25;
            let reports = svc.tick(clock).expect("tick");
            if !reports.is_empty() {
                for env in pending.drain(..) {
                    let resp = svc.submit(&env);
                    assert!(
                        !matches!(resp, Response::Error { .. }),
                        "post-failover retry failed: {resp:?}"
                    );
                    absorb(&env.request, &mut acked_regs, &mut acked_live);
                }
            }
        }
        if step == kill_at {
            let victim = svc.shard_of(op.app());
            svc.kill_shard(victim);
        }
        let env = Envelope::new(step as u64, to_request(&op, &servers));
        match svc.submit(&env) {
            Response::Error { code, message } => {
                assert_eq!(
                    code,
                    ErrorCode::FailingOver,
                    "unexpected rejection: {message}"
                );
                pending.push(env);
            }
            _ => absorb(&env.request, &mut acked_regs, &mut acked_live),
        }
    }
    assert!(
        pending.is_empty(),
        "bounced requests must retry within the drill"
    );

    // Zero-loss accounting: the union of the shards' durable states
    // must carry exactly what was acked.
    let mut regs = BTreeSet::new();
    let mut live = BTreeSet::new();
    for s in 0..3 {
        let state = svc.shard(s).state();
        regs.extend(state.registrations.iter().map(|(a, _)| a.0));
        live.extend(state.live_conns.keys().map(|&(a, t)| (a.0, t)));
    }
    assert_eq!(regs, acked_regs, "registration loss in the failover drill");
    assert_eq!(
        live,
        acked_live.keys().copied().collect::<BTreeSet<_>>(),
        "connection loss in the failover drill"
    );

    let stats = svc.stats();
    let rec = sink.extract().expect("live recorder");
    let _ = std::fs::remove_dir_all(&dir);
    (
        rec.trace.to_jsonl(),
        rec.registry.to_json(),
        stats.failovers,
        stats.registrations_acked,
    )
}

fn absorb(req: &Request, regs: &mut BTreeSet<u32>, live: &mut BTreeMap<(u32, u64), ()>) {
    match req {
        Request::AppRegister { app, .. } => {
            regs.insert(app.0);
        }
        Request::ConnCreate { app, tag, .. } => {
            live.insert((app.0, *tag), ());
        }
        Request::ConnDestroy { app, tag } => {
            live.remove(&(app.0, *tag));
        }
        Request::AppDeregister { app } => {
            regs.remove(&app.0);
            live.retain(|(a, _), _| a != &app.0);
        }
        Request::MetricsDump => {}
    }
}

struct SoakOutcome {
    ops: usize,
    elapsed: f64,
    registrations: u64,
    conn_creates: u64,
    failovers: u64,
    p50_us: f64,
    p99_us: f64,
    batches: u64,
}

/// The threaded soak: per-tenant-ordered churn streams from `clients`
/// concurrent submitters into the worker pool, one worker killed at
/// the halfway mark.
fn soak(table: &SensitivityTable, ops: usize, shards: usize, clients: usize) -> SoakOutcome {
    const SERVERS: usize = 32;
    let dir = tmpdir("soak");
    let cfg = RuntimeConfig {
        shards,
        queue_depth: 512,
        batch_max: 128,
        ..RuntimeConfig::new(&dir)
    };
    let spec = spec(table, SERVERS);
    let servers = spec.topo.servers().to_vec();
    let rt = Arc::new(ServiceRuntime::start(spec, cfg).expect("runtime starts"));

    // Partition the stream by tenant so each tenant's ops stay ordered
    // within one client thread.
    let trace = ChurnTrace::new(
        ChurnTraceConfig {
            tenants: 64,
            servers: SERVERS as u32,
            conns_per_tenant: 16,
            tenant_churn: 1e-3,
            ..ChurnTraceConfig::default()
        },
        0x5aba,
    );
    let mut per_client: Vec<Vec<ChurnOp>> = vec![Vec::new(); clients];
    for op in trace.take(ops) {
        per_client[op.app() as usize % clients].push(op);
    }

    let done = Arc::new(AtomicU64::new(0));
    let regs = Arc::new(AtomicU64::new(0));
    let creates = Arc::new(AtomicU64::new(0));
    let ambiguous = Arc::new(AtomicU64::new(0));
    let t0 = Instant::now();
    let handles: Vec<_> = per_client
        .into_iter()
        .enumerate()
        .map(|(c, ops)| {
            let rt = rt.clone();
            let servers = servers.clone();
            let (done, regs, creates) = (done.clone(), regs.clone(), creates.clone());
            let ambiguous = ambiguous.clone();
            std::thread::spawn(move || {
                for (i, op) in ops.iter().enumerate() {
                    let env =
                        Envelope::new(((c as u64) << 40) | i as u64, to_request(op, &servers));
                    // At-least-once submission with client-side
                    // backoff. Register/create/destroy retries are
                    // idempotent server-side; a deregister whose ack
                    // was lost with a killed worker can resurface as
                    // `UnknownApp` on retry — that is the ambiguous
                    // "already applied" outcome, counted, not fatal.
                    let mut bounced = false;
                    let mut wait = Duration::from_millis(5);
                    let resp = loop {
                        match rt.call(env.clone()) {
                            Response::Error { code, .. } if code.is_retryable() => {
                                bounced = true;
                                std::thread::sleep(wait);
                                wait = (wait * 2).min(Duration::from_millis(200));
                            }
                            resp => break resp,
                        }
                    };
                    match resp {
                        Response::Registered { .. } => {
                            regs.fetch_add(1, Ordering::Relaxed);
                        }
                        Response::Ack => {
                            if matches!(op, ChurnOp::ConnCreate { .. }) {
                                creates.fetch_add(1, Ordering::Relaxed);
                            }
                        }
                        Response::Error { code, message } => {
                            let applied_before_crash = bounced
                                && code == ErrorCode::UnknownApp
                                && matches!(op, ChurnOp::Deregister { .. });
                            if applied_before_crash {
                                ambiguous.fetch_add(1, Ordering::Relaxed);
                            } else {
                                panic!("client {c} op {i} failed fatally ({code}): {message}")
                            }
                        }
                        Response::Metrics { .. } => {
                            panic!("client {c} op {i}: unexpected metrics page")
                        }
                    }
                    done.fetch_add(1, Ordering::Relaxed);
                }
            })
        })
        .collect();

    // Kill a worker once half the stream has been durably acked; the
    // supervisor must promote a standby while clients keep submitting.
    let half = (ops / 2) as u64;
    while done.load(Ordering::Relaxed) < half {
        std::thread::sleep(Duration::from_millis(2));
    }
    rt.kill_shard(0);

    for h in handles {
        h.join().expect("client thread");
    }
    let elapsed = t0.elapsed().as_secs_f64();
    let report = rt.shutdown();
    assert_eq!(
        report.failovers, 1,
        "the killed worker must fail over exactly once"
    );
    let ambiguous = ambiguous.load(Ordering::Relaxed);
    if ambiguous > 0 {
        println!("soak: {ambiguous} deregister ack(s) lost to the crash, confirmed applied");
    }

    let mut wall = saba_telemetry::Histogram::new();
    let mut batches = 0;
    for w in &report.workers {
        wall.merge(&w.wall_latency);
        batches += w.batches;
    }
    let _ = std::fs::remove_dir_all(&dir);
    SoakOutcome {
        ops,
        elapsed,
        registrations: regs.load(Ordering::Relaxed),
        conn_creates: creates.load(Ordering::Relaxed),
        failovers: report.failovers,
        p50_us: wall.p50().unwrap_or(0.0) * 1e6,
        p99_us: wall.p99().unwrap_or(0.0) * 1e6,
        batches,
    }
}

/// The exposition check CI's scrape step runs: a real TCP server over
/// the threaded runtime, a burst of churn, then two `MetricsDump`
/// scrapes over the wire. Required families must be present and the
/// request/dump counters strictly monotone between the scrapes.
fn scrape_check(table: &SensitivityTable) {
    const SERVERS: usize = 8;
    let dir = tmpdir("scrape");
    let spec = spec(table, SERVERS);
    let servers = spec.topo.servers().to_vec();
    let rt =
        Arc::new(ServiceRuntime::start(spec, RuntimeConfig::new(&dir)).expect("runtime starts"));
    let server = TcpServiceServer::bind(rt.clone(), "127.0.0.1:0").expect("server binds");
    let mut client = TcpTransport::connect(server.addr(), 1).expect("client connects");

    let churn = |client: &mut TcpTransport, base: u64, n: u64| {
        use saba_core::library::Transport;
        let r = client.call(Request::AppRegister {
            app: AppId(base as u32),
            workload: "LR".into(),
        });
        assert!(matches!(r, Response::Registered { .. }), "{r:?}");
        for i in 0..n {
            let r = client.call(Request::ConnCreate {
                app: AppId(base as u32),
                src: servers[0],
                dst: servers[1],
                tag: i,
            });
            assert_eq!(r, Response::Ack);
        }
    };

    churn(&mut client, 0, 8);
    let page1 = client.dump_metrics().expect("first scrape");
    churn(&mut client, 1, 8);
    let page2 = client.dump_metrics().expect("second scrape");
    // Both drivers' families, plus the threaded one's wall latency.
    let mut required = REQUIRED_FAMILIES.to_vec();
    required.push("# TYPE wall_op_latency summary");
    check_scrapes(&page1, &page2, &required, &MONOTONE_COUNTERS).unwrap_or_else(|e| panic!("{e}"));
    server.stop();
    rt.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
    println!("scrape: exposition families present, counters monotone across two scrapes");
}

fn main() {
    let smoke = flag("--smoke") || flag("--quick");
    let long = flag("--long");
    let table = catalog_table(3);

    if flag("--scrape") {
        scrape_check(&table);
        return;
    }

    // Stage 1: deterministic failover drill + telemetry determinism,
    // repeated across solver-thread counts: same bytes at every count.
    let drill_ops = arg_usize("--drill-ops", 1_200);
    let (trace_a, reg_a, failovers, regs_acked) = drill_once(&table, drill_ops, 1, "drill-a");
    println!("drill: {drill_ops} ops, {failovers} failover(s), {regs_acked} registrations acked");
    assert_eq!(failovers, 1, "the drill must fail over exactly once");
    let (trace_b, reg_b, _, _) = drill_once(&table, drill_ops, 1, "drill-b");
    assert_eq!(
        trace_a, trace_b,
        "identically-seeded telemetry traces must be byte-identical"
    );
    assert_eq!(
        reg_a, reg_b,
        "identically-seeded metric exports must be byte-identical"
    );
    for threads in [2usize, 8] {
        let (trace_t, reg_t, _, _) = drill_once(&table, drill_ops, threads, "drill-t");
        assert_eq!(
            trace_t, trace_a,
            "solver_threads={threads} changed the telemetry trace"
        );
        assert_eq!(
            reg_t, reg_a,
            "solver_threads={threads} changed the metric export"
        );
    }
    println!("drill: telemetry export replayed bit-identically (solver threads 1/2/8)");

    // The span-tree JSONL artifact (validated + uploaded by nightly CI).
    saba_telemetry::validate_jsonl(&trace_a).expect("drill trace validates");
    let spans_path = results_dir().join("service_spans.jsonl");
    std::fs::write(&spans_path, &trace_a).expect("write span artifact");
    println!("wrote {}", spans_path.display());

    // Stage 2: threaded soak. A million connection events in --long.
    let ops = arg_usize(
        "--ops",
        if long {
            1_000_000
        } else if smoke {
            8_000
        } else {
            60_000
        },
    );
    let shards = arg_usize("--shards", 4);
    let clients = arg_usize("--clients", 8);
    let out = soak(&table, ops, shards, clients);
    let regs_per_sec = out.registrations as f64 / out.elapsed;
    let ops_per_sec = out.ops as f64 / out.elapsed;
    println!(
        "soak: {} ops over {} shards from {} clients in {:.2} s ({:.0} ops/s, \
         {:.0} registrations/s), {} group commits, re-allocation wall latency \
         p50 {:.1} us / p99 {:.1} us",
        out.ops,
        shards,
        clients,
        out.elapsed,
        ops_per_sec,
        regs_per_sec,
        out.batches,
        out.p50_us,
        out.p99_us
    );

    print_table(
        "allocation service under churn",
        &[
            "stage",
            "ops",
            "registrations",
            "conn_creates",
            "failovers",
            "p50_us",
            "p99_us",
        ],
        &[vec![
            if long { "long" } else { "soak" }.to_string(),
            format!("{}", out.ops),
            format!("{}", out.registrations),
            format!("{}", out.conn_creates),
            format!("{}", out.failovers),
            format!("{:.1}", out.p50_us),
            format!("{:.1}", out.p99_us),
        ]],
    );

    // The CSV holds only deterministic counters (wall numbers are
    // stdout material), and only the million-event soak writes it:
    // shorter runs never touch the tracked file.
    if long {
        let csv = write_csv(
            "service_soak.csv",
            "stage,ops,registrations,conn_creates,failovers",
            &[format!(
                "long,{},{},{},{}",
                out.ops, out.registrations, out.conn_creates, out.failovers
            )],
        );
        println!("wrote {}", csv.display());
    }
}
