//! Driver parity: the logical-clock `AllocationService` and the
//! threaded `ServiceRuntime` are two drivers of one front, and must
//! not drift. One seeded script through both — same shard count, one
//! closed-loop client — must leave identical responses, byte-identical
//! shard logs, and identical values for every metric that does not
//! measure time. Second case: the edge rate limiter answers on both.

use saba_core::controller::ControllerConfig;
use saba_core::profiler::{Profiler, ProfilerConfig};
use saba_core::rpc::{Envelope, ErrorCode, Request, Response};
use saba_service::runtime::ServiceRuntime;
use saba_service::service::AllocationService;
use saba_service::shard::{Flavour, Shard, ShardSpec};
use saba_service::wal::{scan, ReplayState};
use saba_service::{ServiceConfig, TokenBucketCfg};
use saba_sim::topology::Topology;
use saba_telemetry::{Recorder, Registry, SharedRecorder};
use saba_workload::catalog;
use saba_workload::churn::{ChurnTrace, ChurnTraceConfig};
use std::path::Path;

const SHARDS: usize = 2;
const SERVERS: usize = 8;

fn spec() -> ShardSpec {
    let table = Profiler::new(ProfilerConfig {
        noise_sigma: 0.0,
        bw_points: vec![0.25, 0.5, 0.75, 1.0],
        degree: 2,
        ..Default::default()
    })
    .profile_all(&catalog())
    .unwrap();
    ShardSpec {
        cfg: ControllerConfig::default(),
        table,
        topo: Topology::single_switch(SERVERS, 100.0),
        flavour: Flavour::Central,
    }
}

fn config(tag: &str, admission: Option<TokenBucketCfg>) -> ServiceConfig {
    let dir = std::env::temp_dir().join(format!("saba-parity-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    ServiceConfig {
        shards: SHARDS,
        admission,
        ..ServiceConfig::new(dir)
    }
}

/// Registers, connection churn and tenant departures from the seeded
/// trace, plus a re-sent envelope (same idempotency id) and a scrape.
fn script() -> Vec<Envelope> {
    let servers = spec().topo.servers().to_vec();
    let cfg = ChurnTraceConfig {
        tenants: 6,
        servers: SERVERS as u32,
        conns_per_tenant: 3,
        tenant_churn: 2e-2,
        ..ChurnTraceConfig::default()
    };
    let mut envs: Vec<Envelope> = ChurnTrace::new(cfg, 0x5aba)
        .take(240)
        .map(|op| Request::from_churn(&op, &servers).expect("demand shifts are off"))
        .enumerate()
        .map(|(i, req)| Envelope::new(i as u64, req))
        .collect();
    let departures = envs
        .iter()
        .filter(|e| matches!(e.request, Request::AppDeregister { .. }));
    assert!(departures.count() > 0, "the script must deregister");
    envs.insert(100, envs[99].clone());
    envs.insert(150, Envelope::new(1 << 32, Request::MetricsDump));
    envs
}

/// A response with the one part that legitimately differs — the text
/// of a scraped page — blanked.
fn comparable(resp: Response) -> Response {
    match resp {
        Response::Metrics { .. } => Response::Metrics {
            text: String::new(),
        },
        other => other,
    }
}

fn logs(dir: &Path) -> Vec<Vec<u8>> {
    (0..SHARDS)
        .map(|s| std::fs::read(Shard::log_path(dir, s)).unwrap())
        .collect()
}

/// Every metric family whose value is a count of what was served, not
/// a measurement of how long it took.
fn clock_free(reg: &Registry) -> Vec<(String, f64)> {
    let mut out = Vec::new();
    for name in [
        "service.requests",
        "service.admitted",
        "service.registrations_acked",
        "service.conn_creates_acked",
        "service.metrics_dumps",
    ] {
        out.push((name.to_string(), reg.counter(name) as f64));
    }
    for s in 0..SHARDS {
        for family in ["wal.records_appended", "wal.bytes_appended", "wal.fsyncs"] {
            let name = format!("{family}/shard={s}");
            let value = reg.gauge(&name).unwrap_or(f64::NAN);
            out.push((name, value));
        }
        let name = format!("wal.group_commit_size/shard={s}");
        let h = reg.histogram(&name).expect("group commits published");
        out.push((format!("{name}:count"), h.count() as f64));
        out.push((format!("{name}:sum"), h.sum()));
    }
    out
}

#[test]
fn both_drivers_serve_one_script_identically() {
    let script = script();

    let twin_cfg = config("twin", None);
    let mut twin = AllocationService::open(spec(), twin_cfg.clone()).unwrap();
    twin.set_sink(SharedRecorder::on(Recorder::default()));
    let twin_resps: Vec<Response> = script
        .iter()
        .map(|env| comparable(twin.submit(env)))
        .collect();

    let rt_cfg = config("threads", None);
    let rt = ServiceRuntime::start(spec(), rt_cfg.clone()).unwrap();
    let rt_resps: Vec<Response> = script
        .iter()
        .map(|env| comparable(rt.call(env.clone())))
        .collect();
    // Workers publish after they ack; a clean shutdown drains that.
    let report = rt.shutdown();
    assert_eq!(report.failovers, 0);

    assert_eq!(rt_resps, twin_resps, "the drivers answered differently");
    assert!(
        twin_resps.contains(&Response::Metrics {
            text: String::new()
        }),
        "the scrape was answered"
    );
    let (twin_logs, rt_logs) = (logs(&twin_cfg.log_dir), logs(&rt_cfg.log_dir));
    assert!(twin_logs == rt_logs, "shard logs differ byte for byte");
    for (s, bytes) in rt_logs.iter().enumerate() {
        let records = scan(bytes).records;
        assert!(!records.is_empty(), "shard {s} served part of the script");
        let replayed = ReplayState::replay(&records);
        assert_eq!(&replayed, twin.shard(s).state(), "shard {s} replay");
    }
    assert_eq!(
        clock_free(&rt.metrics_registry()),
        clock_free(&twin.metrics_registry()),
        "a count of what was served depends on the driver"
    );
    for dir in [twin_cfg.log_dir, rt_cfg.log_dir] {
        let _ = std::fs::remove_dir_all(dir);
    }
}

#[test]
fn the_edge_rate_limit_answers_on_both_drivers() {
    // Two tokens, refilled far too slowly to matter within the test.
    let bucket = Some(TokenBucketCfg {
        rate: 1e-3,
        burst: 2.0,
    });
    // One tenant's first three requests, back to back.
    let script = script();
    let tenant = script[0].request.tenant();
    let of_tenant = script.into_iter().filter(|e| e.request.tenant() == tenant);
    let burst: Vec<Envelope> = of_tenant.take(3).collect();
    let limited = |resps: &[Response], driver: &str| {
        assert!(
            resps[..2]
                .iter()
                .all(|r| !matches!(r, Response::Error { .. })),
            "[{driver}] the burst is admitted: {resps:?}"
        );
        match &resps[2] {
            Response::Error { code, .. } => assert_eq!(*code, ErrorCode::RateLimited, "{driver}"),
            other => panic!("[{driver}] the third back-to-back request got {other:?}"),
        }
    };

    let cfg = config("limit-twin", bucket);
    let mut twin = AllocationService::open(spec(), cfg.clone()).unwrap();
    limited(&twin.submit_batch(&burst), "logical");
    assert_eq!(twin.stats().rate_limited, 1);
    let _ = std::fs::remove_dir_all(cfg.log_dir);

    let cfg = config("limit-threads", bucket);
    let rt = ServiceRuntime::start(spec(), cfg.clone()).unwrap();
    let resps: Vec<Response> = burst.iter().map(|env| rt.call(env.clone())).collect();
    limited(&resps, "threaded");
    assert_eq!(rt.metrics_registry().counter("service.rate_limited"), 1);
    rt.shutdown();
    let _ = std::fs::remove_dir_all(cfg.log_dir);
}
