//! Compaction followed by failover must not reshuffle service levels.
//!
//! The central flavour's PL assigner hands a newcomer the first free
//! slot, so the SL a tenant is acked with depends on who came and went
//! before it. A standby replaying a snapshot of only the *live*
//! registrations re-derives different SLs than the tenants were acked
//! with — each keeps tagging with its own, and gets the other's
//! share. So the snapshot keeps the register/deregister history; this
//! pins that, on both flavours.

use saba_conformance::incremental::diff_switch_states;
use saba_core::controller::ControllerConfig;
use saba_core::profiler::{Profiler, ProfilerConfig};
use saba_core::rpc::{Envelope, Request, Response};
use saba_service::shard::{Flavour, Shard, ShardSpec};
use saba_service::wal::scan;
use saba_sim::ids::AppId;
use saba_sim::topology::Topology;
use saba_workload::catalog;

fn spec(flavour: Flavour) -> ShardSpec {
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
        topo: Topology::single_switch(4, 100.0),
        flavour,
    }
}

fn register(app: u32, workload: &str) -> Request {
    Request::AppRegister {
        app: AppId(app),
        workload: workload.into(),
    }
}

fn acked_sl(resp: &Response) -> saba_sim::ids::ServiceLevel {
    match resp {
        Response::Registered { sl } => *sl,
        other => panic!("registration must ack, got {other:?}"),
    }
}

fn compact_kill_takeover_keeps_every_promise(flavour: Flavour, name: &str) {
    let dir = std::env::temp_dir().join(format!("saba-compaction-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let spec = spec(flavour);
    let (mut shard, _) = Shard::open(0, spec.clone(), &dir, 1).unwrap();
    let servers = spec.topo.servers().to_vec();
    let connect = |app: u32| Request::ConnCreate {
        app: AppId(app),
        src: servers[0],
        dst: servers[1],
        tag: u64::from(app),
    };

    // Tenant 1 takes the first slot and leaves; 2 and 3 outlive it.
    // Tenant 2 also churns a connection the snapshot can forget.
    let history = [
        register(1, "LR"),
        register(2, "PR"),
        connect(2),
        Request::ConnCreate {
            app: AppId(2),
            src: servers[0],
            dst: servers[1],
            tag: 99,
        },
        Request::AppDeregister { app: AppId(1) },
        register(3, "Sort"),
        Request::ConnDestroy {
            app: AppId(2),
            tag: 99,
        },
        connect(3),
    ];
    let envs: Vec<Envelope> = (0u64..)
        .zip(history)
        .map(|(id, req)| Envelope::new(id, req))
        .collect();
    let resps = shard.handle_batch(&envs);
    assert!(
        resps.iter().all(|r| !matches!(r, Response::Error { .. })),
        "{resps:?}"
    );
    let (sl2, sl3) = (acked_sl(&resps[1]), acked_sl(&resps[5]));
    let before = shard.programmed().clone();
    assert!(!before.is_empty(), "the connections programmed ports");

    assert!(shard.maybe_compact(1).unwrap(), "compaction must run");
    shard.kill();
    let report = shard.take_over().unwrap();
    assert_eq!((report.registrations, report.live_conns), (2, 2));

    // Re-sent registrations (the dedup cache died with the worker)
    // repeat the SLs the tenants are tagging with.
    let again = shard.handle_batch(&[
        Envelope::new(100, register(2, "PR")),
        Envelope::new(101, register(3, "Sort")),
    ]);
    assert_eq!(
        (acked_sl(&again[0]), acked_sl(&again[1])),
        (sl2, sl3),
        "[{name}] takeover from a compacted log re-derived different SLs"
    );
    // The switches are programmed as before, and as a from-scratch
    // solve of the compacted log programs them.
    assert_eq!(shard.programmed(), &before, "[{name}] ports reprogrammed");
    let logged = scan(&std::fs::read(Shard::log_path(&dir, 0)).unwrap()).records;
    diff_switch_states(name, 0, shard.programmed(), &spec.scratch_solve(&logged))
        .unwrap_or_else(|e| panic!("[{name}] standby diverged from the compacted log: {e}"));
    assert_eq!(
        report.records, 6,
        "connection churn collapses (8 → 6), the 4 tenant records stay"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn compaction_then_failover_keeps_acked_service_levels_central() {
    compact_kill_takeover_keeps_every_promise(Flavour::Central, "central");
}

#[test]
fn compaction_then_failover_keeps_acked_service_levels_distributed() {
    compact_kill_takeover_keeps_every_promise(Flavour::Distributed(2), "distributed");
}
