//! Replay parity: the service serves what it is sent, not when. The
//! runtime is driven two ways — on wall time (`call`) and on logical
//! seconds a drill names (`call_at`) — and one seeded script through
//! each, same shard count, one closed-loop client, must leave identical
//! responses, byte-identical shard logs that replay to the acked state,
//! and identical values for every metric that does not measure time.
//! Second case: the edge rate limiter answers on both, refilling on the
//! caller's clock.

use saba_core::controller::ControllerConfig;
use saba_core::profiler::{Profiler, ProfilerConfig};
use saba_core::rpc::{Envelope, ErrorCode, Request, Response};
use saba_service::runtime::ServiceRuntime;
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

/// One script through `call` and through `call_at`: the two ways a
/// caller drives the runtime.
#[test]
fn both_drivers_serve_one_script_identically() {
    let script = script();

    let wall_cfg = config("wall", None);
    let wall = ServiceRuntime::start(spec(), wall_cfg.clone()).unwrap();
    let wall_resps: Vec<Response> = script
        .iter()
        .map(|env| comparable(wall.call(env.clone())))
        .collect();

    let logical_cfg = config("logical", None);
    let logical = ServiceRuntime::start(spec(), logical_cfg.clone()).unwrap();
    logical.set_sink(SharedRecorder::on(Recorder::default()));
    let logical_resps: Vec<Response> = script
        .iter()
        .enumerate()
        .map(|(i, env)| comparable(logical.call_at(env.clone(), i as f64)))
        .collect();

    assert_eq!(wall_resps, logical_resps, "the clocks answered differently");
    assert!(
        wall_resps.contains(&Response::Metrics {
            text: String::new()
        }),
        "the scrape was answered"
    );
    let (wall_logs, logical_logs) = (logs(&wall_cfg.log_dir), logs(&logical_cfg.log_dir));
    assert!(wall_logs == logical_logs, "shard logs differ byte for byte");
    for (s, bytes) in wall_logs.iter().enumerate() {
        let records = scan(bytes).records;
        assert!(!records.is_empty(), "shard {s} served part of the script");
        let replayed = ReplayState::replay(&records);
        for rt in [&wall, &logical] {
            let acked = rt.with_shard(s, |shard| shard.state().clone());
            assert_eq!(Some(&replayed), acked.as_ref(), "shard {s} replay");
        }
    }
    assert_eq!(
        clock_free(&wall.metrics_registry()),
        clock_free(&logical.metrics_registry()),
        "a count of what was served depends on the clock"
    );
    for rt in [&wall, &logical] {
        assert_eq!(rt.stats().dedup_hits, 1, "the re-sent envelope");
        assert_eq!(rt.shutdown().failovers, 0);
    }
    for dir in [wall_cfg.log_dir, logical_cfg.log_dir] {
        let _ = std::fs::remove_dir_all(dir);
    }
}

/// The burst-2 bucket refuses the third back-to-back request on both
/// clocks, and refills on the caller's: a logical second later, the
/// fourth request is admitted.
#[test]
fn the_edge_rate_limit_answers_on_both_drivers() {
    // Two tokens, refilled at one per second of the caller's clock.
    let bucket = Some(TokenBucketCfg {
        rate: 1.0,
        burst: 2.0,
    });
    // One tenant's first four requests.
    let script = script();
    let tenant = script[0].request.tenant();
    let of_tenant = script.into_iter().filter(|e| e.request.tenant() == tenant);
    let burst: Vec<Envelope> = of_tenant.take(4).collect();
    let ok = |r: &Response| !matches!(r, Response::Error { .. });
    for (clock, at) in [("wall", None), ("logical", Some([0.0, 0.0, 0.0, 1.0]))] {
        let cfg = config(&format!("limit-{clock}"), bucket);
        let rt = ServiceRuntime::start(spec(), cfg.clone()).unwrap();
        let resps: Vec<Response> = match at {
            None => burst[..3].iter().map(|env| rt.call(env.clone())).collect(),
            Some(at) => (burst.iter().zip(at))
                .map(|(env, now)| rt.call_at(env.clone(), now))
                .collect(),
        };
        assert!(
            ok(&resps[0]) && ok(&resps[1]),
            "[{clock}] the burst is admitted: {resps:?}"
        );
        match &resps[2] {
            Response::Error { code, .. } => assert_eq!(*code, ErrorCode::RateLimited, "{clock}"),
            other => panic!("[{clock}] the third back-to-back request got {other:?}"),
        }
        if let Some(refilled) = resps.get(3) {
            assert!(ok(refilled), "[{clock}] a refilled token admits: {resps:?}");
        }
        assert_eq!(rt.stats().rate_limited, 1);
        assert_eq!(rt.metrics_registry().counter("service.rate_limited"), 1);
        rt.shutdown();
        let _ = std::fs::remove_dir_all(cfg.log_dir);
    }
}
