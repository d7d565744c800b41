//! End-to-end: the full paper-facing stack over real sockets.
//!
//! `SabaLib` (Fig. 7 software interface) → length-prefixed RPC over a
//! real `TcpStream` → accept loop → shards led by their callers →
//! durable log → controller. Five scenarios:
//!
//! 1. concurrent tenants each run the Fig. 7 lifecycle over their own
//!    TCP connection and every operation lands durably, while the
//!    `MetricsDump` page scraped over the wire keeps every required
//!    family and counts monotonically;
//! 2. a shard is killed mid-session; the tenant's next call — over the
//!    same TCP connection — takes it over from its log and succeeds
//!    against the replayed state;
//! 3. concurrent clients churn through a shard kill with retry and
//!    backoff, and every operation ends acked;
//! 4. wire hygiene: a version-mismatched frame is answered with a
//!    typed `VersionMismatch` error, not a hang or a crash;
//! 5. shutdown: `stop` returns promptly even when no client ever
//!    connected, and a connection made before it keeps being answered.

use saba_core::controller::ControllerConfig;
use saba_core::library::SabaLib;
use saba_core::profiler::{Profiler, ProfilerConfig};
use saba_core::rpc::{decode_response, encode_envelope, Envelope, ErrorCode, Request, Response};
use saba_core::sensitivity::SensitivityTable;
use saba_service::runtime::{RuntimeConfig, ServiceRuntime};
use saba_service::shard::{Flavour, ShardSpec};
use saba_service::{TcpServiceServer, TcpTransport, MONOTONE_COUNTERS, REQUIRED_FAMILIES};
use saba_sim::ids::{AppId, NodeId};
use saba_sim::topology::Topology;
use saba_telemetry::check_scrapes;
use saba_workload::catalog;
use saba_workload::churn::{ChurnOp, ChurnTrace, ChurnTraceConfig};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};
use std::sync::Arc;
use std::time::{Duration, Instant};

const SERVERS: usize = 8;

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
        topo: Topology::single_switch(SERVERS, 100.0),
        flavour: Flavour::Central,
    }
}

fn tmpdir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("saba-e2e-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn start(name: &str) -> (Arc<ServiceRuntime>, TcpServiceServer, PathBuf) {
    let dir = tmpdir(name);
    let cfg = RuntimeConfig {
        shards: 2,
        ..RuntimeConfig::new(&dir)
    };
    let rt = Arc::new(ServiceRuntime::start(spec(), cfg).unwrap());
    let server = TcpServiceServer::bind(rt.clone(), "127.0.0.1:0").unwrap();
    (rt, server, dir)
}

/// Retries a library call while the shard is busy or failing over.
fn with_retries<T>(
    mut call: impl FnMut() -> Result<T, saba_core::library::LibError>,
) -> Result<T, saba_core::library::LibError> {
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        match call() {
            Err(e) if e.is_retryable() && Instant::now() < deadline => {
                std::thread::sleep(Duration::from_millis(25));
            }
            other => return other,
        }
    }
}

/// Tenants `apps`, each on its own TCP connection and thread, run the
/// Fig. 7 lifecycle: register, four connections, tear down.
fn run_tenants(addr: SocketAddr, servers: &[NodeId], apps: std::ops::Range<u32>) {
    let handles: Vec<_> = apps
        .map(|app| {
            let servers = servers.to_vec();
            std::thread::spawn(move || {
                let transport = TcpTransport::connect(addr, u64::from(app) << 32).unwrap();
                let mut lib = SabaLib::new(AppId(app), transport);
                let workload = ["LR", "RF", "GBT"][app as usize % 3];
                let sl = with_retries(|| lib.saba_app_register(workload)).unwrap();
                assert!((sl.0 as usize) < 16, "PL out of InfiniBand SL range");
                let mut conns = Vec::new();
                for i in 0..4 {
                    let src = servers[(app as usize + i) % SERVERS];
                    let dst = servers[(app as usize + i + 1) % SERVERS];
                    conns.push(with_retries(|| lib.saba_conn_create(src, dst)).unwrap());
                }
                assert!(conns.iter().all(|c| c.sl == sl));
                for conn in conns {
                    with_retries(|| lib.saba_conn_destroy(conn)).unwrap();
                }
                with_retries(|| lib.saba_app_deregister()).unwrap();
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
}

#[test]
fn concurrent_tenants_run_fig7_over_tcp() {
    let (rt, server, dir) = start("fig7");
    let addr = server.addr();
    let servers = rt.spec().topo.servers().to_vec();

    // Two waves of tenants, the exposition page scraped over the wire
    // after each: every family present (both drivers' plus the threaded
    // one's wall-clock latency), counters strictly monotone.
    let mut scraper = TcpTransport::connect(addr, 1 << 40).unwrap();
    run_tenants(addr, &servers, 0..3);
    let first = scraper.dump_metrics().unwrap();
    run_tenants(addr, &servers, 3..6);
    let last = scraper.dump_metrics().unwrap();
    let mut required = REQUIRED_FAMILIES.to_vec();
    required.push("# TYPE wall_op_latency summary");
    check_scrapes(&first, &last, &required, &MONOTONE_COUNTERS).unwrap_or_else(|e| panic!("{e}"));

    server.stop();
    let report = rt.shutdown();
    assert_eq!(report.failovers, 0);
    let acked: u64 = report
        .workers
        .iter()
        .map(|w| w.stats.registrations_acked)
        .sum();
    assert_eq!(acked, 6, "every tenant registration must be durably acked");
    let creates: u64 = report
        .workers
        .iter()
        .map(|w| w.stats.conn_creates_acked)
        .sum();
    assert_eq!(creates, 6 * 4);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn killed_worker_fails_over_under_a_live_tcp_session() {
    let (rt, server, dir) = start("failover");
    let addr = server.addr();
    let servers = rt.spec().topo.servers().to_vec();

    // A tenant builds up state on its shard...
    let app = 7u32;
    let victim = rt.shard_map().shard_of(AppId(app));
    let transport = TcpTransport::connect(addr, 1).unwrap();
    let mut lib = SabaLib::new(AppId(app), transport);
    let sl = with_retries(|| lib.saba_app_register("LR")).unwrap();
    let first = with_retries(|| lib.saba_conn_create(servers[0], servers[1])).unwrap();

    // ...the shard dies...
    rt.kill_shard(victim);
    assert_eq!(rt.failovers(), 0);

    // ...and the tenant's next call, over the SAME TCP session, fails
    // it over and succeeds against the standby's replayed state: the
    // registration and the first connection both survived the crash.
    let second = with_retries(|| lib.saba_conn_create(servers[2], servers[3])).unwrap();
    assert_eq!(rt.failovers(), 1, "the next call failed the shard over");
    assert_eq!(second.sl, sl, "replayed registration must keep its PL");
    with_retries(|| lib.saba_conn_destroy(first)).unwrap();
    with_retries(|| lib.saba_conn_destroy(second)).unwrap();
    with_retries(|| lib.saba_app_deregister()).unwrap();

    server.stop();
    let report = rt.shutdown();
    assert_eq!(report.failovers, 1);
    assert_eq!(rt.replaced_shards(), vec![victim]);
    let _ = std::fs::remove_dir_all(&dir);
}

/// The threaded runtime under seeded churn with a shard killed halfway:
/// 8 clients submit 8,000 ops over 4 shards, retrying retryable errors
/// with exponential backoff. A client owns every tenant `app % 8` maps
/// to, so each tenant's ops stay ordered. Every op ends acked — or, for a
/// deregister whose ack died with the shard, as `UnknownApp` on the
/// retry: applied before the crash, ambiguous to the client, counted.
#[test]
fn concurrent_clients_ride_through_a_worker_kill() {
    const OPS: usize = 8_000;
    const CLIENTS: usize = 8;
    let dir = tmpdir("soak");
    let cfg = RuntimeConfig {
        shards: 4,
        queue_depth: 512,
        batch_max: 128,
        ..RuntimeConfig::new(&dir)
    };
    let spec = ShardSpec {
        topo: Topology::single_switch(32, 100.0),
        ..spec()
    };
    let servers = spec.topo.servers().to_vec();
    let rt = Arc::new(ServiceRuntime::start(spec, cfg).unwrap());

    let trace = ChurnTrace::new(
        ChurnTraceConfig {
            tenants: 64,
            servers: 32,
            conns_per_tenant: 16,
            tenant_churn: 1e-3,
            ..ChurnTraceConfig::default()
        },
        0x5aba,
    );
    let mut per_client: Vec<Vec<ChurnOp>> = vec![Vec::new(); CLIENTS];
    for op in trace.take(OPS) {
        per_client[op.app() as usize % CLIENTS].push(op);
    }
    let done = Arc::new(AtomicUsize::new(0));
    let ambiguous = Arc::new(AtomicUsize::new(0));
    let handles: Vec<_> = per_client
        .into_iter()
        .enumerate()
        .map(|(c, ops)| {
            let (rt, servers) = (rt.clone(), servers.clone());
            let (done, ambiguous) = (done.clone(), ambiguous.clone());
            std::thread::spawn(move || {
                for (i, op) in ops.iter().enumerate() {
                    let req = Request::from_churn(op, &servers).expect("demand shifts are off");
                    let env = Envelope::new(((c as u64) << 40) | i as u64, req);
                    let (mut bounced, mut wait) = (false, Duration::from_millis(5));
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
                        Response::Registered { .. } | Response::Ack => {}
                        Response::Error {
                            code: ErrorCode::UnknownApp,
                            ..
                        } if bounced && matches!(op, ChurnOp::Deregister { .. }) => {
                            ambiguous.fetch_add(1, Relaxed);
                        }
                        other => panic!("client {c} op {i} ({op:?}) failed: {other:?}"),
                    }
                    done.fetch_add(1, Relaxed);
                }
            })
        })
        .collect();

    // Kill a shard once half the stream is acked; the next call for it
    // takes it over while the clients keep submitting.
    let deadline = Instant::now() + Duration::from_secs(60);
    while done.load(Relaxed) < OPS / 2 {
        assert!(Instant::now() < deadline, "half the stream never acked");
        std::thread::sleep(Duration::from_millis(2));
    }
    rt.kill_shard(0);
    for h in handles {
        h.join().unwrap();
    }
    let report = rt.shutdown();
    assert_eq!(report.failovers, 1, "one kill, one failover");
    assert_eq!(done.load(Relaxed), OPS);
    println!(
        "{} deregister ack(s) lost to the kill",
        ambiguous.load(Relaxed)
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn version_mismatched_frames_get_a_typed_error() {
    let (rt, server, dir) = start("version");

    let mut raw = TcpStream::connect(server.addr()).unwrap();
    raw.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    let mut frame =
        encode_envelope(&Envelope::new(1, Request::AppDeregister { app: AppId(1) })).to_vec();
    frame[4] = 0x7f; // clobber the protocol version byte
    raw.write_all(&frame).unwrap();

    let mut buf = Vec::new();
    let mut chunk = [0u8; 1024];
    let resp = loop {
        match decode_response(&buf) {
            Ok((resp, _)) => break resp,
            Err(saba_core::rpc::RpcError::Incomplete) => {}
            Err(e) => panic!("undecodable reply: {e}"),
        }
        let n = raw.read(&mut chunk).unwrap();
        assert!(n > 0, "server hung up without answering");
        buf.extend_from_slice(&chunk[..n]);
    };
    match resp {
        Response::Error { code, .. } => assert_eq!(code, ErrorCode::VersionMismatch),
        other => panic!("expected a version error, got {other:?}"),
    }

    server.stop();
    rt.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn stop_returns_promptly_on_a_server_no_client_reached() {
    let (rt, server, dir) = start("idle-stop");
    // Stopped on a thread of its own, so a stop that never returns
    // fails the test instead of hanging it.
    let (done, stopped) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        server.stop();
        let _ = done.send(());
    });
    stopped
        .recv_timeout(Duration::from_secs(1))
        .expect("stop returns within 1 s");
    rt.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_client_connected_before_stop_is_still_answered() {
    let (rt, server, dir) = start("stop-live");
    let mut client = TcpTransport::connect(server.addr(), 1 << 40).unwrap();
    client.dump_metrics().expect("answered before stop");
    server.stop();
    client.dump_metrics().expect("answered after stop");
    drop(client);
    rt.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}
