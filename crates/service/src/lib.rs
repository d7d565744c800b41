//! `saba-service`: the Saba control plane as a long-running,
//! multi-tenant allocation **service** (DESIGN.md §13).
//!
//! The in-sim library/RPC layer of `saba-core` answers one question —
//! *what should the fabric do right now* — but a datacenter control
//! plane must also survive its own churn: shard crashes, torn log
//! tails, tenants that hammer the registration path. This crate wraps
//! the existing incremental-epoch controllers in the production shape
//! that SNIPPETS.md's ADR-0010 (dark_tower) sketches:
//!
//! * [`wal`] — a durable registration log: append-only, CRC-framed
//!   records (the wire form of each acked operation), fsync batching
//!   (group commit), torn-write-tolerant recovery, and compaction to
//!   snapshots that keep the tenant history.
//! * [`shard`] — the sharded service tier: tenants are consistently
//!   assigned to shards, each shard drives one incremental-epoch
//!   [`saba_core::controller::ControllerHandle`] (either flavour),
//!   speaks the hardened `saba_core::rpc` protocol, and owns its log's
//!   I/O — group commit, compaction, recovery by replay.
//! * [`front`] — the one I/O-free core every request crosses: the
//!   pre-admission scrape answer, edge admission, shard routing, the
//!   post-batch metrics/trace pass and failover accounting.
//! * [`runtime`] — the one driver, on its callers' threads and at the
//!   time each call names: wall seconds in service, logical seconds in
//!   the deterministic drills. The caller that finds a shard free leads
//!   it, serving the calls queued behind it as one group commit (a
//!   bounded queue — backpressure → `ShardBusy`), and the call that
//!   finds a shard dead takes it over in place from its durable log
//!   before it serves.
//! * [`admission`] — the front's edge admission: per-tenant token
//!   buckets push back with *retryable* error codes before overload
//!   reaches a shard.
//! * [`net`] — a real `std::net` TCP front door for [`runtime`],
//!   speaking the same length-prefixed frames as the in-process path.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod admission;
pub mod front;
pub mod net;
pub mod runtime;
pub mod shard;
pub mod wal;

pub use admission::{Admission, AdmissionCfgError, Admit, TokenBucketCfg};
pub use front::{Front, ServiceConfig, ServiceStats, MONOTONE_COUNTERS, REQUIRED_FAMILIES};
pub use net::{TcpServiceServer, TcpTransport};
pub use runtime::{RuntimeConfig, RuntimeReport, ServiceRuntime};
pub use shard::{Flavour, Shard, ShardMap, ShardSpec, TakeoverReport};
pub use wal::{DurableLog, ReplayState, ScanReport};

/// Whole-service drills through the runtime's public surface (and its
/// failed-sync test hook), on both controller flavours and at the
/// logical times each call names.
#[cfg(test)]
mod service {
    mod tests {
        use crate::wal::{scan, ReplayState};
        use crate::{Flavour, RuntimeConfig, ServiceRuntime, Shard, ShardSpec};
        use saba_core::controller::ControllerConfig;
        use saba_core::profiler::{Profiler, ProfilerConfig};
        use saba_core::rpc::{Envelope, ErrorCode, Request, Response};
        use saba_core::sensitivity::SensitivityTable;
        use saba_sim::ids::AppId;
        use saba_sim::topology::Topology;
        use saba_telemetry::{EventKind, Recorder, SharedRecorder};
        use saba_workload::catalog;

        const FLAVOURS: [Flavour; 2] = [Flavour::Central, Flavour::Distributed(2)];

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

        fn spec(flavour: Flavour) -> ShardSpec {
            ShardSpec {
                cfg: ControllerConfig::default(),
                table: table(),
                topo: Topology::single_switch(8, 100.0),
                flavour,
            }
        }

        fn fresh_cfg(name: &str) -> RuntimeConfig {
            let dir = std::env::temp_dir().join(format!("saba-svc-{}-{name}", std::process::id()));
            let _ = std::fs::remove_dir_all(&dir);
            RuntimeConfig::new(dir)
        }

        fn env(id: u64, request: Request) -> Envelope {
            Envelope::new(id, request)
        }

        fn register(app: AppId) -> Request {
            Request::AppRegister {
                app,
                workload: "LR".into(),
            }
        }

        /// `app`'s connection `tag` between the first two servers.
        fn create(rt: &ServiceRuntime, app: AppId, tag: u64) -> Request {
            let servers = rt.spec().topo.servers();
            Request::ConnCreate {
                app,
                src: servers[0],
                dst: servers[1],
                tag,
            }
        }

        fn code(resp: &Response) -> Option<ErrorCode> {
            match resp {
                Response::Error { code, .. } => Some(*code),
                _ => None,
            }
        }

        /// The `(replayed_apps, replayed_conns)` of each take-over traced.
        fn recoveries(sink: &SharedRecorder) -> Vec<(f64, u64, u64)> {
            let rec = sink.extract().unwrap();
            let events = rec.trace.events().filter_map(|e| match e.kind {
                EventKind::ControllerRecover {
                    replayed_apps,
                    replayed_conns,
                    ..
                } => Some((e.t, replayed_apps, replayed_conns)),
                _ => None,
            });
            events.collect()
        }

        /// Sixteen tenants, interleaved over four shards, each submit a
        /// sequence of refusals, acks and repeated acks; every caller
        /// gets back its own replies, in the order it submitted them.
        #[test]
        fn batch_responses_come_back_in_submission_order() {
            let rt = ServiceRuntime::start(spec(Flavour::Central), fresh_cfg("order")).unwrap();
            let shards: std::collections::BTreeSet<usize> =
                (0..16).map(|i| rt.shard_map().shard_of(AppId(i))).collect();
            assert!(shards.len() > 1, "the tenants span shards");
            std::thread::scope(|s| {
                for i in 0..16u32 {
                    let rt = &rt;
                    s.spawn(move || {
                        let app = AppId(i);
                        let base = u64::from(i) << 32;
                        let destroy = Request::ConnDestroy { app, tag: 0 };
                        let calls = [
                            destroy.clone(),
                            create(rt, app, 0),
                            register(app),
                            Request::AppRegister {
                                app,
                                workload: "BFS".into(),
                            },
                            create(rt, app, 0),
                            destroy,
                        ];
                        let resps: Vec<Response> = calls
                            .into_iter()
                            .enumerate()
                            .map(|(k, req)| rt.call(env(base + k as u64, req)))
                            .collect();
                        let expected = [
                            Some(ErrorCode::UnknownConnection),
                            Some(ErrorCode::UnknownApp),
                            None,
                            Some(ErrorCode::AlreadyRegistered),
                            None,
                            None,
                        ];
                        let codes: Vec<_> = resps.iter().map(code).collect();
                        assert_eq!(codes, expected, "{resps:?}");
                        assert!(matches!(resps[2], Response::Registered { .. }), "{resps:?}");
                        assert_eq!(resps[4..], [Response::Ack, Response::Ack], "{resps:?}");
                    });
                }
            });
            let after = rt.call(env(100, create(&rt, AppId(3), 1)));
            assert_eq!(after, Response::Ack);
            let stats = rt.stats();
            assert_eq!(stats.registrations_acked, 16);
            assert_eq!(stats.conn_creates_acked, 17);
            rt.shutdown();
        }

        /// A shard killed at t = 5 is taken over by the first call for
        /// it after the kill, at that call's time, with no call bounced;
        /// the standby holds exactly the acked state the dead shard held.
        #[test]
        fn killed_shard_fails_over_within_the_window_and_loses_nothing() {
            for flavour in FLAVOURS {
                let rt = ServiceRuntime::start(
                    spec(flavour),
                    fresh_cfg(&format!("failover-{flavour:?}")),
                )
                .unwrap();
                let sink = SharedRecorder::on(Recorder::default());
                rt.set_sink(sink.clone());
                let app = AppId(0);
                let victim = rt.shard_map().shard_of(app);
                let acked = rt.call_at(env(1, register(app)), 1.0);
                assert!(matches!(acked, Response::Registered { .. }), "{acked:?}");
                assert_eq!(rt.call_at(env(2, create(&rt, app, 7)), 2.0), Response::Ack);
                let before = rt.with_shard(victim, |s| s.state().clone()).unwrap();

                rt.kill_shard(victim);
                let after = rt.with_shard(victim, |s| s.state().clone()).unwrap();
                assert_eq!(after, before, "{flavour:?}: a kill loses nothing acked");
                let repeat = rt.call_at(env(1, register(app)), 5.5);
                assert_eq!(
                    repeat, acked,
                    "{flavour:?}: the standby repeats the acked SL"
                );
                assert_eq!(rt.failovers(), 1, "{flavour:?}");
                assert_eq!(recoveries(&sink), [(5.5, 1, 1)], "{flavour:?}");
                let taken = rt.with_shard(victim, |s| s.state().clone()).unwrap();
                assert_eq!(taken, before, "{flavour:?}");

                let destroy = Request::ConnDestroy { app, tag: 7 };
                assert_eq!(rt.call_at(env(3, destroy), 6.0), Response::Ack);
                assert_eq!(rt.stats().failovers, 1, "{flavour:?}");
                rt.shutdown();
            }
        }

        /// A create whose group commit failed is not acked, nor counted,
        /// and its shard dies: the retry, under a new id, is served and
        /// counted by the take-over it triggers at its own time, which
        /// left the shard holding exactly what its log replays. A
        /// register is counted the same way.
        #[test]
        fn a_failed_sync_kills_the_shard_and_its_retry_is_acked_after_a_take_over() {
            for flavour in FLAVOURS {
                let cfg = fresh_cfg(&format!("sync-fail-{flavour:?}"));
                let rt = ServiceRuntime::start(spec(flavour), cfg.clone()).unwrap();
                let sink = SharedRecorder::on(Recorder::default());
                rt.set_sink(sink.clone());
                let app = AppId(0);
                let acked = rt.call_at(env(1, register(app)), 1.0);
                assert!(matches!(acked, Response::Registered { .. }), "{acked:?}");
                let s = rt.shard_map().shard_of(app);
                rt.fail_next_sync(s);
                let failed = rt.call_at(env(2, create(&rt, app, 7)), 2.0);
                assert_eq!(
                    code(&failed),
                    Some(ErrorCode::Internal),
                    "{flavour:?}: {failed:?}"
                );
                assert_eq!(rt.failovers(), 0, "{flavour:?}");
                assert_eq!(rt.stats().conn_creates_acked, 0, "{flavour:?}");

                let retry = rt.call_at(env(3, create(&rt, app, 7)), 3.0);
                assert_eq!(retry, Response::Ack, "{flavour:?}");
                assert_eq!(rt.stats().conn_creates_acked, 1, "{flavour:?}");
                let traced = recoveries(&sink);
                let taken_over = traced.iter().map(|&(t, apps, _)| (t, apps));
                assert_eq!(taken_over.collect::<Vec<_>>(), [(3.0, 1)], "{flavour:?}");
                assert_eq!(rt.stats().failovers, 1, "{flavour:?}");
                let state = rt.with_shard(s, |shard| shard.state().clone()).unwrap();
                let log = std::fs::read(Shard::log_path(&cfg.log_dir, s)).unwrap();
                assert_eq!(
                    ReplayState::replay(&scan(&log).records),
                    state,
                    "{flavour:?}"
                );
                assert_eq!(state.live_conns.len(), 1, "{flavour:?}");

                // The same for a register, of a second tenant on `s`.
                let other = (1..).map(AppId).find(|&a| rt.shard_map().shard_of(a) == s);
                let other = other.unwrap();
                assert_eq!(rt.stats().registrations_acked, 1, "{flavour:?}");
                rt.fail_next_sync(s);
                let failed = rt.call_at(env(4, register(other)), 4.0);
                assert_eq!(
                    code(&failed),
                    Some(ErrorCode::Internal),
                    "{flavour:?}: {failed:?}"
                );
                assert_eq!(rt.stats().registrations_acked, 1, "{flavour:?}");
                let retry = rt.call_at(env(5, register(other)), 5.0);
                assert!(matches!(retry, Response::Registered { .. }), "{retry:?}");
                assert_eq!(rt.stats().registrations_acked, 2, "{flavour:?}");
                assert_eq!(rt.stats().failovers, 2, "{flavour:?}");
                rt.shutdown();
            }
        }
    }
}
