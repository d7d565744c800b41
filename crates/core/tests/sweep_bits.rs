//! The per-port sweep is pinned bit for bit.
//!
//! A change that only makes the epoch engine cheaper — how a port's
//! members are stored, how the PL → queue map is found, where scratch
//! lives — must emit the same `SwitchUpdate`s in the same order and
//! count the same work. Expected values were recorded from the sweep as
//! of PR 17 (`b326544`: one `BTreeMap` per link, `QueueMapper::map_port`
//! re-derived per visit, weights cloned out of the memo): per case the
//! length of a forced `recompute_all` and an FNV-1a over every update's
//! `link`, `sl_to_queue` bytes and `weights` bit patterns, the same over
//! every update of a seeded 400-event create / destroy / deregister
//! stream, and the final [`EpochStats`]. Cubic models, so both
//! flavours' convex surrogates are fitted to curves that are not
//! quadratics themselves.
//!
//! Three re-recordings since. Twice in the six central rows only: when
//! the central flavour stopped memoizing its exact (≤ 32 application)
//! ports, their `eq2_solves` / `solves_skipped` columns moved — a visit
//! that used to hit the memo now solves, and a single-application port
//! counts as skipped from its first visit — with their sum, every other
//! counter and all twelve digest pairs as recorded at `b326544`; and
//! when it stopped solving its > 32 application ports over PL clusters
//! and solved them exactly instead, the central digests moved (the
//! funnel ports carry different weights) and 15 visits per row that hit
//! the clustered memo became solves, with update counts,
//! `ports_reconfigured`, `ports_dirty`, `queue_updates_diffed` and the
//! solve + skip sum as recorded. Then in the six distributed rows only:
//! when PL centroids stopped being solved raw by the warm-seeded
//! iterative solver and took the central flavour's convex surrogate
//! and exact dual solve, their digests moved (different weights on
//! every contended port) while every update count and every counter
//! stayed as recorded, and the six central rows did not move at all.
//!
//! A second test pins that no history reaches a bit: after the stream,
//! a forced `recompute_all` is bit-identical to a fresh controller's
//! that saw the same registrations and only the surviving connections.

use saba_core::controller::central::CentralController;
use saba_core::controller::distributed::{DistributedController, MappingDb};
use saba_core::controller::epoch::{Controller, EpochStats, Policy};
use saba_core::controller::{ControllerConfig, SwitchUpdate};
use saba_core::profiler::{Profiler, ProfilerConfig};
use saba_core::sensitivity::SensitivityTable;
use saba_sim::ids::AppId;
use saba_sim::topology::{SpineLeafConfig, Topology};
use saba_workload::catalog;

const APPS: u32 = 40;
const EVENTS: usize = 400;

fn table() -> SensitivityTable {
    Profiler::new(ProfilerConfig {
        noise_sigma: 0.0,
        bw_points: vec![0.1, 0.25, 0.5, 0.75, 1.0],
        degree: 3,
        ..Default::default()
    })
    .profile_all(&catalog())
    .expect("profiling succeeds")
}

/// `fill_bits.rs`'s LCG: deterministic draws without a crate.
struct Lcg(u64);

impl Lcg {
    fn below(&mut self, n: usize) -> usize {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (self.0 >> 33) as usize % n
    }
}

/// Length and FNV-1a of a stream of updates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Digest {
    updates: u64,
    fnv: u64,
}

impl Digest {
    fn new() -> Self {
        Self {
            updates: 0,
            fnv: 0xcbf29ce484222325,
        }
    }

    fn byte(&mut self, b: u8) {
        self.fnv = (self.fnv ^ u64::from(b)).wrapping_mul(0x100000001b3);
    }

    fn absorb(&mut self, updates: &[SwitchUpdate]) {
        self.updates += updates.len() as u64;
        for u in updates {
            for b in u.link.0.to_le_bytes() {
                self.byte(b);
            }
            for &q in &u.config.sl_to_queue {
                self.byte(q);
            }
            for w in &u.config.weights {
                for b in w.to_bits().to_le_bytes() {
                    self.byte(b);
                }
            }
        }
    }
}

fn counters(s: EpochStats) -> [u64; 9] {
    [
        s.registrations,
        s.conns_created,
        s.conns_destroyed,
        s.forwards,
        s.ports_reconfigured,
        s.eq2_solves,
        s.ports_dirty,
        s.solves_skipped,
        s.queue_updates_diffed,
    ]
}

/// What [`drive`] did and left behind.
struct Driven<P: Policy> {
    forced: Digest,
    stream: Digest,
    stats: [u64; 9],
    controller: Controller<P>,
    /// Applications deregistered during the stream, in order.
    deregistered: Vec<u32>,
    /// Every connection created: `(app, tag, src, dst)` server indices.
    created: Vec<(u32, u64, usize, usize)>,
}

/// Spread connections, a funnel that puts every application on one
/// server pair's ports (40 applications wide), a forced recompute, then
/// the event stream.
fn drive<P: Policy>(mut c: Controller<P>, topo: &Topology, seed: u64) -> Driven<P> {
    let s = topo.servers();
    for app in 0..APPS {
        c.register(AppId(app), &workload(app))
            .expect("catalog workloads are profiled");
    }
    let mut rng = Lcg(seed);
    let mut stream = Digest::new();
    let mut live: Vec<(u32, u64)> = Vec::new();
    let mut created = Vec::new();
    let mut deregistered = Vec::new();
    let mut tag = 0u64;
    for app in 0..APPS {
        let src = rng.below(s.len());
        let dst = (src + 1 + rng.below(s.len() - 1)) % s.len();
        tag += 1;
        stream.absorb(&c.conn_create(AppId(app), s[src], s[dst], tag).unwrap());
        live.push((app, tag));
        created.push((app, tag, src, dst));
    }
    // Funnel connections are never destroyed one by one, so the wide
    // ports only shrink through deregistrations.
    for app in 0..APPS {
        let funnel = 1_000_000 + u64::from(app);
        stream.absorb(&c.conn_create(AppId(app), s[0], s[1], funnel).unwrap());
        created.push((app, funnel, 0, 1));
    }
    let mut forced = Digest::new();
    forced.absorb(&c.recompute_all());

    let mut registered: Vec<u32> = (0..APPS).collect();
    for _ in 0..EVENTS {
        let updates = match rng.below(100) {
            0..=1 if registered.len() > APPS as usize - 5 => {
                let app = registered.swap_remove(rng.below(registered.len()));
                live.retain(|&(a, _)| a != app);
                deregistered.push(app);
                c.deregister(AppId(app)).unwrap()
            }
            0..=54 => {
                let app = registered[rng.below(registered.len())];
                let src = rng.below(s.len());
                let dst = (src + 1 + rng.below(s.len() - 1)) % s.len();
                tag += 1;
                live.push((app, tag));
                created.push((app, tag, src, dst));
                c.conn_create(AppId(app), s[src], s[dst], tag).unwrap()
            }
            _ if live.is_empty() => continue,
            _ => {
                let (app, tag) = live.swap_remove(rng.below(live.len()));
                c.conn_destroy(AppId(app), tag).unwrap()
            }
        };
        stream.absorb(&updates);
    }
    Driven {
        forced,
        stream,
        stats: counters(c.stats()),
        controller: c,
        deregistered,
        created,
    }
}

impl<P: Policy> Driven<P> {
    fn digests(&self) -> (Digest, Digest, [u64; 9]) {
        (self.forced, self.stream, self.stats)
    }
}

/// The catalog workload application `app` runs.
fn workload(app: u32) -> String {
    let names: Vec<String> = catalog().into_iter().map(|w| w.name).collect();
    names[app as usize % names.len()].clone()
}

/// After the stream: a forced recompute of the driven controller, and
/// one of `fresh` once it has seen the same registrations and
/// deregistrations, in the same order, and only the surviving
/// connections, preloaded.
fn after_stream_and_fresh<P: Policy>(
    mut driven: Driven<P>,
    mut fresh: Controller<P>,
    topo: &Topology,
) -> (Digest, Digest) {
    let s = topo.servers();
    for app in 0..APPS {
        fresh.register(AppId(app), &workload(app)).unwrap();
    }
    for &app in &driven.deregistered {
        fresh.deregister(AppId(app)).unwrap();
    }
    for &(app, tag, src, dst) in &driven.created {
        if driven.controller.has_conn(AppId(app), tag) {
            fresh.preload_connection(AppId(app), s[src], s[dst], tag);
        }
    }
    assert_eq!(fresh.num_conns(), driven.controller.num_conns());
    let (mut after, mut scratch) = (Digest::new(), Digest::new());
    after.absorb(&driven.controller.recompute_all());
    scratch.absorb(&fresh.recompute_all());
    (after, scratch)
}

/// `(central, queues_per_port, multipath)` → forced recompute, event
/// stream, final counters.
type Pin = ((bool, usize, bool), (u64, u64), (u64, u64), [u64; 9]);

const EXPECTED: &[Pin] = &[
    (
        (true, 2, false),
        (55, 0xe13ffa71b9d9ec6d),
        (1971, 0xd51bfe3cefbf9863),
        [40, 287, 188, 0, 2026, 2019, 2218, 185, 192],
    ),
    (
        (true, 2, true),
        (55, 0x45fe857d19e3a52),
        (3402, 0xf12e69a38795297c),
        [40, 287, 188, 0, 3457, 3646, 3780, 124, 323],
    ),
    (
        (true, 4, false),
        (56, 0xac2790d214d0df19),
        (1830, 0x61a463facb6e6296),
        [40, 299, 176, 0, 1886, 2006, 2156, 141, 270],
    ),
    (
        (true, 4, true),
        (56, 0xec782527cbc6c533),
        (2944, 0x71f01df94b4a8948),
        [40, 299, 176, 0, 3000, 3375, 3462, 83, 462],
    ),
    (
        (true, 8, false),
        (54, 0xd2bdc13d4eda5ee0),
        (1750, 0xe1fb1d53f2d4f738),
        [40, 328, 147, 0, 1804, 1896, 1993, 94, 189],
    ),
    (
        (true, 8, true),
        (55, 0x137ddad4e1eafb40),
        (2620, 0xf7fd2b418870a315),
        [40, 328, 147, 0, 2675, 2800, 2876, 75, 201],
    ),
    (
        (false, 2, false),
        (55, 0xebe5806702384988),
        (1467, 0x66222d3628203b1),
        [40, 287, 188, 702, 1522, 487, 1522, 1021, 0],
    ),
    (
        (false, 2, true),
        (55, 0x7ac6e6212006c185),
        (1879, 0x1c29d30f105972ad),
        [40, 287, 188, 1575, 1934, 470, 1934, 1454, 0],
    ),
    (
        (false, 4, false),
        (56, 0xc2bd9d5ba3722607),
        (1272, 0xdac46ef58385e7e8),
        [40, 299, 176, 671, 1328, 530, 1328, 789, 0],
    ),
    (
        (false, 4, true),
        (56, 0xff1a79af9bdb1af),
        (1526, 0x9248ef99f2a1528c),
        [40, 299, 176, 1587, 1582, 439, 1582, 1139, 0],
    ),
    (
        (false, 8, false),
        (54, 0xd0dbd2c274be4355),
        (982, 0x6b4303264a1e7792),
        [40, 328, 147, 774, 1036, 519, 1036, 514, 0],
    ),
    (
        (false, 8, true),
        (55, 0x645df9bee16635e8),
        (996, 0xfbca8440f623cf41),
        [40, 328, 147, 1709, 1051, 370, 1051, 680, 0],
    ),
];

#[test]
fn sweep_matches_the_recorded_bits() {
    let topo = Topology::spine_leaf(&SpineLeafConfig::tiny(3));
    let table = table();
    let mut actual: Vec<Pin> = Vec::new();
    for central in [true, false] {
        for queues_per_port in [2, 4, 8] {
            for multipath in [false, true] {
                let cfg = ControllerConfig {
                    queues_per_port,
                    multipath,
                    ..Default::default()
                };
                let seed = 0x5aba_0018 + queues_per_port as u64;
                let (forced, stream, stats) = if central {
                    let c = CentralController::new(cfg, table.clone(), &topo);
                    drive(c, &topo, seed).digests()
                } else {
                    let db = MappingDb::build(&table, cfg.num_pls, cfg.seed);
                    let c = DistributedController::new(cfg, db, &topo, 4);
                    drive(c, &topo, seed).digests()
                };
                actual.push((
                    (central, queues_per_port, multipath),
                    (forced.updates, forced.fnv),
                    (stream.updates, stream.fnv),
                    stats,
                ));
            }
        }
    }
    if actual != EXPECTED {
        for (case, forced, stream, stats) in &actual {
            println!(
                "    ({case:?}, ({}, {:#x}), ({}, {:#x}), {stats:?}),",
                forced.0, forced.1, stream.0, stream.1
            );
        }
        for (a, e) in actual.iter().zip(EXPECTED) {
            assert_eq!(a, e, "(central, queues_per_port, multipath) = {:?}", a.0);
        }
        panic!("{} cases ran, {} are pinned", actual.len(), EXPECTED.len());
    }
}

/// No history reaches an emitted bit, on either flavour: after the
/// 400-event stream — memo hits, vacated ports, deregistrations — a
/// forced `recompute_all` is what a fresh controller holding only the
/// surviving connections computes.
#[test]
fn a_forced_recompute_after_the_stream_matches_a_fresh_controller() {
    let topo = Topology::spine_leaf(&SpineLeafConfig::tiny(3));
    let table = table();
    for queues_per_port in [2, 4, 8] {
        for multipath in [false, true] {
            let cfg = ControllerConfig {
                queues_per_port,
                multipath,
                ..Default::default()
            };
            let seed = 0x5aba_0018 + queues_per_port as u64;
            let case = format!("{queues_per_port} queues, multipath {multipath}");

            let central = || CentralController::new(cfg.clone(), table.clone(), &topo);
            let driven = drive(central(), &topo, seed);
            let (after, fresh) = after_stream_and_fresh(driven, central(), &topo);
            assert!(after.updates > 0);
            assert_eq!(after, fresh, "central, {case}");

            let db = MappingDb::build(&table, cfg.num_pls, cfg.seed);
            let distributed = || DistributedController::new(cfg.clone(), db.clone(), &topo, 4);
            let driven = drive(distributed(), &topo, seed);
            let (after, fresh) = after_stream_and_fresh(driven, distributed(), &topo);
            assert!(after.updates > 0);
            assert_eq!(after, fresh, "distributed, {case}");
        }
    }
}
