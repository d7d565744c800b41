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
//! stream, and the final [`EpochStats`]. Cubic models, so the
//! distributed flavour's warm-seeded solves (where a port's history
//! enters the bits) are on the pinned path.
//!
//! Two re-recordings since, both in the six central rows only. When the
//! central flavour stopped memoizing its exact (≤ 32 application) ports,
//! their `eq2_solves` / `solves_skipped` columns moved — a visit that
//! used to hit the memo now solves, and a single-application port counts
//! as skipped from its first visit — with their sum, every other counter
//! and all twelve digest pairs as recorded at `b326544`. When it stopped
//! solving its > 32 application ports over PL clusters and solved them
//! exactly instead, the central digests moved (the funnel ports carry
//! different weights) and 15 visits per row that hit the clustered memo
//! became solves; update counts, `ports_reconfigured`,
//! `ports_dirty`, `queue_updates_diffed` and the solve + skip sum stayed
//! as recorded, and the six distributed rows did not move at all.

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

/// Spread connections, a funnel that puts every application on one
/// server pair's ports (40 applications wide), a forced recompute, then
/// the event stream, with `threads` Eq. 2 solver threads.
fn drive<P: Policy>(
    mut c: Controller<P>,
    topo: &Topology,
    seed: u64,
    threads: usize,
) -> (Digest, Digest, [u64; 9]) {
    c.set_solver_threads(threads);
    let s = topo.servers();
    let names: Vec<String> = catalog().into_iter().map(|w| w.name).collect();
    for app in 0..APPS {
        c.register(AppId(app), &names[app as usize % names.len()])
            .expect("catalog workloads are profiled");
    }
    let mut rng = Lcg(seed);
    let mut stream = Digest::new();
    let mut live: Vec<(u32, u64)> = Vec::new();
    let mut tag = 0u64;
    for app in 0..APPS {
        let src = rng.below(s.len());
        let dst = (src + 1 + rng.below(s.len() - 1)) % s.len();
        tag += 1;
        stream.absorb(&c.conn_create(AppId(app), s[src], s[dst], tag).unwrap());
        live.push((app, tag));
    }
    // Funnel connections are never destroyed one by one, so the wide
    // ports only shrink through deregistrations.
    for app in 0..APPS {
        let funnel = 1_000_000 + u64::from(app);
        stream.absorb(&c.conn_create(AppId(app), s[0], s[1], funnel).unwrap());
    }
    let mut forced = Digest::new();
    forced.absorb(&c.recompute_all());

    let mut registered: Vec<u32> = (0..APPS).collect();
    for _ in 0..EVENTS {
        let updates = match rng.below(100) {
            0..=1 if registered.len() > APPS as usize - 5 => {
                let app = registered.swap_remove(rng.below(registered.len()));
                live.retain(|&(a, _)| a != app);
                c.deregister(AppId(app)).unwrap()
            }
            0..=54 => {
                let app = registered[rng.below(registered.len())];
                let src = rng.below(s.len());
                let dst = (src + 1 + rng.below(s.len() - 1)) % s.len();
                tag += 1;
                live.push((app, tag));
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
    (forced, stream, counters(c.stats()))
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
        (55, 0x67591a90bd26774c),
        (1467, 0xf6fd34150e20b0a2),
        [40, 287, 188, 702, 1522, 487, 1522, 1021, 0],
    ),
    (
        (false, 2, true),
        (55, 0x972b181abb358924),
        (1879, 0xd645bba26031bd11),
        [40, 287, 188, 1575, 1934, 470, 1934, 1454, 0],
    ),
    (
        (false, 4, false),
        (56, 0x1ebed248e949bad),
        (1272, 0xf0251a152f8c24e9),
        [40, 299, 176, 671, 1328, 530, 1328, 789, 0],
    ),
    (
        (false, 4, true),
        (56, 0x162965cd17f0325c),
        (1526, 0x39ba9442677077d1),
        [40, 299, 176, 1587, 1582, 439, 1582, 1139, 0],
    ),
    (
        (false, 8, false),
        (54, 0x24dd342cb908de5e),
        (982, 0xc0da4aad6b6e2b9c),
        [40, 328, 147, 774, 1036, 519, 1036, 514, 0],
    ),
    (
        (false, 8, true),
        (55, 0x32359f86656a9106),
        (996, 0xac63102b0266e30),
        [40, 328, 147, 1709, 1051, 370, 1051, 680, 0],
    ),
];

/// The pins hold at one solver thread and at four: workers' prewarmed
/// solves merge in the serial sweep's order, so a thread count moves no
/// bit and no counter.
#[test]
fn sweep_matches_the_recorded_bits() {
    let topo = Topology::spine_leaf(&SpineLeafConfig::tiny(3));
    let table = table();
    for threads in [1, 4] {
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
                        drive(
                            CentralController::new(cfg, table.clone(), &topo),
                            &topo,
                            seed,
                            threads,
                        )
                    } else {
                        let db = MappingDb::build(&table, cfg.num_pls, cfg.seed);
                        let c = DistributedController::new(cfg, db, &topo, 4);
                        drive(c, &topo, seed, threads)
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
                assert_eq!(
                    a, e,
                    "{threads} solver threads, (central, queues_per_port, multipath) = {:?}",
                    a.0
                );
            }
            panic!("{} cases ran, {} are pinned", actual.len(), EXPECTED.len());
        }
    }
}
