//! Property-based tests of the controller: arbitrary interleavings of
//! registration and connection events must preserve the enforcement
//! invariants.

use proptest::prelude::*;
use saba_core::controller::central::CentralController;
use saba_core::controller::queuemap::{PortMap, QueueMapper};
use saba_core::controller::ControllerConfig;
use saba_core::profiler::{Profiler, ProfilerConfig};
use saba_core::sensitivity::SensitivityTable;
use saba_sim::ids::AppId;
use saba_sim::topology::Topology;
use saba_workload::catalog;

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

/// An abstract controller action.
#[derive(Debug, Clone)]
enum Action {
    Register(u8),
    ConnCreate { app: u8, src: u8, dst: u8 },
    ConnDestroyNewest { app: u8 },
    Deregister(u8),
}

fn arb_action() -> impl Strategy<Value = Action> {
    prop_oneof![
        (0u8..6).prop_map(Action::Register),
        (0u8..6, 0u8..8, 0u8..8).prop_map(|(app, src, dst)| Action::ConnCreate { app, src, dst }),
        (0u8..6).prop_map(|app| Action::ConnDestroyNewest { app }),
        (0u8..6).prop_map(Action::Deregister),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Under any action interleaving: the controller never panics, every
    /// emitted port config has positive weights summing to ~C_saba (plus
    /// the reserved share), queue counts respect the budget, and every
    /// SL maps to a valid queue.
    #[test]
    fn controller_invariants_under_random_events(
        actions in prop::collection::vec(arb_action(), 1..60),
        queues in 2usize..9,
        c_saba_pct in 50u32..=100,
    ) {
        let topo = Topology::single_switch(8, saba_sim::LINK_56G_BPS);
        let cfg = ControllerConfig {
            queues_per_port: queues,
            c_saba: c_saba_pct as f64 / 100.0,
            ..Default::default()
        };
        let mut ctl = CentralController::new(cfg.clone(), table(), &topo);
        let names = ["LR", "RF", "PR", "SQL", "WC", "Sort"];
        let servers = topo.servers().to_vec();
        let mut live_conns: Vec<Vec<u64>> = vec![Vec::new(); 6];
        let mut next_tag = 0u64;

        for action in actions {
            let updates = match action {
                Action::Register(a) => {
                    let _ = ctl.register(AppId(a as u32), names[a as usize]);
                    Vec::new()
                }
                Action::ConnCreate { app, src, dst } => {
                    if src == dst {
                        continue;
                    }
                    next_tag += 1;
                    match ctl.conn_create(
                        AppId(app as u32),
                        servers[src as usize],
                        servers[dst as usize],
                        next_tag,
                    ) {
                        Ok(u) => {
                            live_conns[app as usize].push(next_tag);
                            u
                        }
                        Err(_) => Vec::new(), // Unregistered app: fine.
                    }
                }
                Action::ConnDestroyNewest { app } => {
                    match live_conns[app as usize].pop() {
                        Some(tag) => ctl
                            .conn_destroy(AppId(app as u32), tag)
                            .expect("live connection destroys cleanly"),
                        None => Vec::new(),
                    }
                }
                Action::Deregister(a) => {
                    live_conns[a as usize].clear();
                    ctl.deregister(AppId(a as u32)).unwrap_or_default()
                }
            };
            for u in &updates {
                let total: f64 = u.config.weights.iter().sum();
                prop_assert!(u.config.weights.iter().all(|&w| w > 0.0),
                    "non-positive weight in {:?}", u.config.weights);
                // Ports that lost their last app fall back to the default
                // single-queue config (weight 1.0); otherwise the budget
                // applies and weights sum to ~1 (C_saba + reserve).
                if u.config.num_queues() > 1 || !ctl.apps_at(u.link).is_empty() {
                    prop_assert!(u.config.num_queues() <= queues,
                        "queue budget exceeded: {}", u.config.num_queues());
                }
                prop_assert!((0.9..=1.1).contains(&total) || u.config.num_queues() == 1,
                    "weights sum {total}");
                for sl in 0..16u8 {
                    let q = u.config.queue_of(saba_sim::ids::ServiceLevel(sl));
                    prop_assert!(q < u.config.num_queues());
                }
            }
        }
    }

    /// Register/deregister cycles never leak state.
    #[test]
    fn register_deregister_is_clean(rounds in 1usize..12) {
        let topo = Topology::single_switch(4, saba_sim::LINK_56G_BPS);
        let mut ctl = CentralController::new(ControllerConfig::default(), table(), &topo);
        let s = topo.servers().to_vec();
        for r in 0..rounds {
            let app = AppId((r % 3) as u32);
            ctl.register(app, "LR").expect("fresh registration succeeds");
            ctl.conn_create(app, s[0], s[1], r as u64).expect("conn creates");
            ctl.deregister(app).expect("deregister succeeds");
            prop_assert_eq!(ctl.num_conns(), 0);
            prop_assert_eq!(ctl.num_apps(), 0);
        }
    }

    /// The one §5.3.2 walk — behind `map_port` and `queues_for` alike
    /// — is `saba_math`'s search: for any hierarchy (1–16 leaves,
    /// non-contiguous PL ids, leaves in any order), any set of its PLs
    /// and any budget it picks `Dendrogram::best_level`, partitions and
    /// numbers the queues as `Dendrogram::group_subset` does, and routes
    /// every active SL with its cluster, in ascending and in rotated PL
    /// order, and over a second hierarchy as over the first.
    #[test]
    fn the_queue_walk_is_saba_maths_search(
        hierarchies in prop::collection::vec(
            prop::collection::vec(
                (any::<bool>(), any::<u32>(), prop::collection::vec(-2.0f64..2.0, 3)),
                16,
            ),
            2,
        ),
        asks in prop::collection::vec((any::<u16>(), 1usize..10), 1..40),
    ) {
        for slots in hierarchies {
            // PL `i` is active where the flag is set (PL 0 always is);
            // the drawn keys shuffle which leaf each PL becomes.
            let mut centroids: Vec<(u32, usize, Vec<f64>)> = slots
                .into_iter()
                .enumerate()
                .filter(|(pl, (active, ..))| *active || *pl == 0)
                .map(|(pl, (_, key, centroid))| (key, pl, centroid))
                .collect();
            centroids.sort_by_key(|&(key, pl, _)| (key, pl));
            let centroids: Vec<(usize, Vec<f64>)> =
                centroids.into_iter().map(|(_, pl, c)| (pl, c)).collect();
            let active = centroids.iter().fold(0u16, |set, (pl, _)| set | 1 << pl);
            let mapper = &QueueMapper::build(&centroids).expect("PL 0 is active");
            for &(set, budget) in &asks {
                let present = (set & active).max(1);
                let mut pls: Vec<usize> = (0..16).filter(|pl| present >> pl & 1 == 1).collect();
                let want = reference_map(mapper, &pls, budget);
                prop_assert_eq!(&mapper.map_port(&pls, budget), &want);
                let got = mapper.queues_for(present, budget);
                prop_assert_eq!(got.sl_to_queue, want.sl_to_queue);
                prop_assert_eq!(got.queues, want.groups.len());
                for &pl in &pls {
                    let group = want.groups.iter().position(|g| g.contains(&pl));
                    prop_assert_eq!(Some(usize::from(got.sl_to_queue[pl])), group);
                }
                // Caller order reaches the queue numbering (a group
                // sits where its first-listed member's leaf sorts).
                let by = budget % pls.len();
                pls.rotate_left(by);
                prop_assert_eq!(mapper.map_port(&pls, budget), reference_map(mapper, &pls, budget));
            }
        }
    }
}

/// §5.3.2 over `saba_math`'s own search — `map_port` as it was derived
/// before the controller grew its allocation-free walk, kept here as
/// the independent reference.
fn reference_map(mapper: &QueueMapper, present_pls: &[usize], max_queues: usize) -> PortMap {
    let (d, pls) = (mapper.dendrogram(), mapper.pls());
    let leaf_of = |pl: &usize| pls.iter().position(|p| p == pl).expect("an active PL");
    let leaves: Vec<usize> = present_pls.iter().map(leaf_of).collect();
    let level = d.best_level(&leaves, max_queues);
    let mut sl_to_queue = [0u8; 16];
    let mut groups = Vec::new();
    for (q, cluster) in d.group_subset(&leaves, max_queues).iter().enumerate() {
        groups.push(cluster.leaves.iter().map(|&l| pls[l]).collect());
        for (leaf, &pl) in pls.iter().enumerate() {
            if d.cluster_of(level, leaf) == cluster.id {
                sl_to_queue[pl] = q as u8;
            }
        }
    }
    PortMap {
        level,
        groups,
        sl_to_queue,
    }
}

#[test]
#[should_panic(expected = "PL 3 is not active")]
fn an_inactive_pl_in_the_mask_is_rejected() {
    let centroids = [(0, vec![0.0]), (2, vec![1.0]), (5, vec![4.0])];
    let mapper = QueueMapper::build(&centroids).unwrap();
    mapper.queues_for(0b10_1100, 4);
}
