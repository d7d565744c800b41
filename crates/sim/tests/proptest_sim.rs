//! Property-based tests for the network simulator: conservation laws,
//! oversubscription safety, routing validity, and engine monotonicity.

use proptest::prelude::*;
use saba_sim::engine::{Event, FairShareFabric, FlowSpec, Simulation};
use saba_sim::ids::{AppId, LinkId, NodeId, ServiceLevel};
use saba_sim::routing::{LinkMembers, Routes};
use saba_sim::sharing::{
    compute_rates, compute_rates_into, FlowSource, FlowView, SharingFlow, SharingScratch,
};
use saba_sim::topology::{SpineLeafConfig, Topology};

/// Flows named by their index: sound while every call on a scratch
/// passes the same flows, so a name always meets its own key.
struct Named<'a>(&'a [SharingFlow]);

impl FlowSource for Named<'_> {
    fn flow_count(&self) -> usize {
        self.0.len()
    }

    fn flow_view(&self, i: usize) -> FlowView<'_> {
        self.0[i].view()
    }

    fn key_id(&self, i: usize) -> u64 {
        i as u64
    }
}

/// `Routes::path`'s contract, built from the topology and `distance`
/// alone — not from the forwarding table `path` scans: at each hop, the
/// live out-links (in `out_links` order) whose far end is one hop nearer
/// to `dst`, indexed by the same hash of `(tag, hop)`.
fn next_hops_then_pick(
    topo: &Topology,
    routes: &Routes,
    src: NodeId,
    dst: NodeId,
    tag: u64,
) -> Option<Vec<LinkId>> {
    fn splitmix64(mut z: u64) -> u64 {
        z = z.wrapping_add(0x9E3779B97F4A7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
        z ^ (z >> 31)
    }
    let mut path = Vec::new();
    let (mut here, mut hop) = (src, 0u64);
    while here != dst {
        let to_go = routes.distance(here, dst)?;
        let hops: Vec<LinkId> = topo
            .out_links(here)
            .iter()
            .copied()
            .filter(|&l| {
                topo.link_is_up(l) && routes.distance(topo.link(l).to, dst) == Some(to_go - 1)
            })
            .collect();
        if hops.is_empty() {
            return None;
        }
        let pick =
            splitmix64(tag.wrapping_add(hop.wrapping_mul(0x9E3779B97F4A7C15))) % hops.len() as u64;
        let link = hops[pick as usize];
        path.push(link);
        here = topo.link(link).to;
        hop += 1;
    }
    Some(path)
}

/// Strategy: a set of random flows over `n_links` links.
fn arb_flows(n_links: usize, max_flows: usize) -> impl Strategy<Value = Vec<SharingFlow>> {
    prop::collection::vec(
        (
            prop::collection::vec(0..n_links as u32, 1..4),
            1.0f64..8.0,
            0u8..3,
            prop::option::of(10.0f64..500.0),
        ),
        1..max_flows,
    )
    .prop_map(|raw| {
        raw.into_iter()
            .map(|(mut path, w, prio, cap)| {
                path.sort_unstable();
                path.dedup();
                let weights = vec![w; path.len()];
                SharingFlow {
                    path: path.into_iter().map(LinkId).collect(),
                    weights,
                    priority: prio,
                    rate_cap: cap.unwrap_or(f64::INFINITY),
                }
            })
            .collect()
    })
}

proptest! {
    /// No link is ever oversubscribed, and no rate is negative or above
    /// its cap.
    #[test]
    fn sharing_never_oversubscribes(
        flows in arb_flows(8, 40),
        caps in prop::collection::vec(10.0f64..1000.0, 8),
    ) {
        let rates = compute_rates(&caps, &flows);
        let mut load = vec![0.0; caps.len()];
        for (f, &r) in flows.iter().zip(&rates) {
            prop_assert!(r >= 0.0);
            prop_assert!(r <= f.rate_cap + 1e-6 * f.rate_cap.min(1e12));
            if !f.path.is_empty() {
                prop_assert!(r.is_finite());
                for &l in &f.path {
                    load[l.0 as usize] += r;
                }
            }
        }
        for (l, (&used, &cap)) in load.iter().zip(&caps).enumerate() {
            prop_assert!(used <= cap * (1.0 + 1e-9) + 1e-6, "link {l}: {used} > {cap}");
        }
    }

    /// Flow bundling is exact: allocation with bundling enabled matches
    /// the unbundled allocator within 1e-9 relative on arbitrary flow
    /// sets (both modes process flows in the same canonical order, so
    /// merging identical flows must not change any rate).
    #[test]
    fn bundling_is_exact(
        flows in arb_flows(8, 60),
        caps in prop::collection::vec(10.0f64..1000.0, 8),
    ) {
        let mut bundled = Vec::new();
        let mut unbundled = Vec::new();
        compute_rates_into(&caps, &Named(&flows), &mut SharingScratch::default(), &mut bundled);
        compute_rates_into(&caps, &Named(&flows), &mut SharingScratch::unbundled(), &mut unbundled);
        for (i, (a, b)) in bundled.iter().zip(&unbundled).enumerate() {
            if a.is_infinite() && b.is_infinite() {
                continue;
            }
            let tol = 1e-9 * a.abs().max(b.abs()).max(1.0);
            prop_assert!((a - b).abs() <= tol, "flow {i}: bundled {a} vs unbundled {b}");
        }
    }

    /// Single-link work conservation: with uncapped flows all crossing
    /// one link, the link is fully utilized.
    #[test]
    fn sharing_single_link_work_conserving(
        weights in prop::collection::vec(0.5f64..8.0, 1..20),
        cap in 10.0f64..1000.0,
    ) {
        let flows: Vec<SharingFlow> = weights
            .iter()
            .map(|&w| SharingFlow {
                path: vec![LinkId(0)],
                weights: vec![w],
                priority: 0,
                rate_cap: f64::INFINITY,
            })
            .collect();
        let rates = compute_rates(&[cap], &flows);
        let total: f64 = rates.iter().sum();
        prop_assert!((total - cap).abs() < 1e-6 * cap, "total {total} cap {cap}");
        // Rates are weight-proportional.
        let level = rates[0] / weights[0];
        for (r, w) in rates.iter().zip(&weights) {
            prop_assert!((r / w - level).abs() < 1e-6 * level.max(1.0));
        }
    }

    /// Adding a flow to a single shared link never increases any existing
    /// flow's rate (monotonicity of fair sharing under contention).
    #[test]
    fn sharing_monotone_under_contention(
        weights in prop::collection::vec(1.0f64..4.0, 2..10),
        cap in 100.0f64..500.0,
    ) {
        let make = |ws: &[f64]| -> Vec<SharingFlow> {
            ws.iter()
                .map(|&w| SharingFlow {
                    path: vec![LinkId(0)],
                    weights: vec![w],
                    priority: 0,
                    rate_cap: f64::INFINITY,
                })
                .collect()
        };
        let base = compute_rates(&[cap], &make(&weights[..weights.len() - 1]));
        let more = compute_rates(&[cap], &make(&weights));
        for i in 0..weights.len() - 1 {
            prop_assert!(more[i] <= base[i] + 1e-6, "flow {i}: {} -> {}", base[i], more[i]);
        }
    }

    /// Higher strict-priority classes are never hurt by lower ones.
    #[test]
    fn strict_priority_isolation(
        hi_weights in prop::collection::vec(1.0f64..4.0, 1..6),
        lo_count in 1usize..6,
        cap in 50.0f64..500.0,
    ) {
        let mk = |w: f64, p: u8| SharingFlow {
            path: vec![LinkId(0)],
            weights: vec![w],
            priority: p,
            rate_cap: f64::INFINITY,
        };
        let hi_only: Vec<SharingFlow> = hi_weights.iter().map(|&w| mk(w, 0)).collect();
        let mut mixed = hi_only.clone();
        for _ in 0..lo_count {
            mixed.push(mk(1.0, 1));
        }
        let base = compute_rates(&[cap], &hi_only);
        let with_lo = compute_rates(&[cap], &mixed);
        for i in 0..hi_only.len() {
            prop_assert!((with_lo[i] - base[i]).abs() < 1e-6,
                "hi flow {i} changed: {} -> {}", base[i], with_lo[i]);
        }
    }

    /// Every server pair in a spine-leaf fabric has a valid, contiguous,
    /// loop-free path for any ECMP tag.
    #[test]
    fn routing_paths_always_valid(servers_per_tor in 1usize..4, tag in 0u64..1000) {
        let topo = Topology::spine_leaf(&SpineLeafConfig::tiny(servers_per_tor));
        let routes = Routes::compute(&topo);
        let servers = topo.servers();
        for &a in servers.iter().take(4) {
            for &b in servers.iter().rev().take(4) {
                if a == b {
                    continue;
                }
                let p = routes.path(&topo, a, b, tag).unwrap();
                prop_assert!(!p.is_empty());
                prop_assert_eq!(topo.link(p[0]).from, a);
                prop_assert_eq!(topo.link(*p.last().unwrap()).to, b);
                for w in p.windows(2) {
                    prop_assert_eq!(topo.link(w[0]).to, topo.link(w[1]).from);
                }
                // Loop-free: no node repeats.
                let mut visited = vec![a];
                for &l in &p {
                    let to = topo.link(l).to;
                    prop_assert!(!visited.contains(&to), "loop at {to}");
                    visited.push(to);
                }
            }
        }
    }

    /// Engine conservation: total bytes delivered equals total bytes
    /// requested, and completions never precede starts.
    #[test]
    fn engine_conserves_bytes(
        sizes in prop::collection::vec(1.0f64..10_000.0, 1..15),
        seed in 0u64..500,
    ) {
        let topo = Topology::single_switch(6, 1000.0);
        let mut sim = Simulation::new(topo, FairShareFabric::default());
        sim.set_completion_slack(0.0);
        let servers = sim.topo().servers().to_vec();
        for (i, &bytes) in sizes.iter().enumerate() {
            let src = servers[(seed as usize + i) % servers.len()];
            let dst = servers[(seed as usize + i * 3 + 1) % servers.len()];
            if src == dst {
                continue;
            }
            sim.start_flow(FlowSpec {
                src,
                dst,
                bytes,
                sl: ServiceLevel(0),
                app: AppId(i as u32),
                tag: seed + i as u64,
                rate_cap: f64::INFINITY,
                min_rate: 0.0,
            });
        }
        let started = sim.stats().flows_started;
        let done = sim.run_to_idle();
        prop_assert_eq!(done.len() as u64, started);
        for d in &done {
            prop_assert!(d.finished >= d.started);
        }
        prop_assert_eq!(sim.stats().flows_completed, started);
    }

    /// Time monotonicity: events come out in non-decreasing time order.
    #[test]
    fn engine_time_monotone(
        sizes in prop::collection::vec(10.0f64..5000.0, 1..10),
        timer_times in prop::collection::vec(0.1f64..20.0, 0..5),
    ) {
        let topo = Topology::single_switch(4, 100.0);
        let mut sim = Simulation::new(topo, FairShareFabric::default());
        let servers = sim.topo().servers().to_vec();
        for (i, &bytes) in sizes.iter().enumerate() {
            sim.start_flow(FlowSpec {
                src: servers[i % 2],
                dst: servers[2 + i % 2],
                bytes,
                sl: ServiceLevel(0),
                app: AppId(0),
                tag: i as u64,
                rate_cap: f64::INFINITY,
                min_rate: 0.0,
            });
        }
        for &t in &timer_times {
            sim.schedule(t, 0);
        }
        let mut last = 0.0f64;
        loop {
            let at = match sim.next_event() {
                Event::Timer { at, .. } => at,
                Event::FlowsCompleted { at, .. } => at,
                Event::Idle => break,
            };
            prop_assert!(at >= last - 1e-12, "time went backwards: {last} -> {at}");
            last = at;
            prop_assert!((sim.now() - at).abs() < 1e-12);
        }
    }

    /// Fat-tree routing: every server pair is reachable, paths are
    /// loop-free, and same-pod traffic never crosses the core.
    #[test]
    fn fat_tree_routing_valid(k in prop::sample::select(vec![2usize, 4, 6]), tag in 0u64..200) {
        let topo = Topology::fat_tree(k, 100.0);
        let routes = Routes::compute(&topo);
        let servers = topo.servers();
        let a = servers[0];
        for &b in servers.iter().rev().take(3) {
            if a == b {
                continue;
            }
            let p = routes.path(&topo, a, b, tag).unwrap();
            prop_assert!(!p.is_empty() && p.len() <= 6);
            let mut visited = vec![a];
            for &l in &p {
                let to = topo.link(l).to;
                prop_assert!(!visited.contains(&to));
                visited.push(to);
            }
            prop_assert_eq!(*visited.last().unwrap(), b);
        }
        // Same-edge pair: exactly two hops.
        if k >= 4 {
            let p = routes.path(&topo, servers[0], servers[1], tag).unwrap();
            prop_assert_eq!(p.len(), 2);
        }
    }

    /// A paced (rate-capped) flow finishes no earlier than its pacing
    /// allows and no later than the uncapped run under no contention.
    #[test]
    fn rate_caps_bound_completion(bytes in 1_000.0f64..1e6, cap_frac in 0.1f64..1.0) {
        let topo = Topology::single_switch(2, 1000.0);
        let mut sim = Simulation::new(topo, FairShareFabric::default());
        let s = sim.topo().servers().to_vec();
        let cap = 1000.0 * cap_frac;
        sim.start_flow(FlowSpec {
            src: s[0],
            dst: s[1],
            bytes,
            sl: ServiceLevel(0),
            app: AppId(0),
            tag: 0,
            rate_cap: cap,
            min_rate: 0.0,
        });
        let done = sim.run_to_idle();
        let expected = bytes / cap;
        prop_assert!((done[0].finished - expected).abs() < 1e-6 * expected + 1e-6,
            "finished {} vs expected {}", done[0].finished, expected);
    }

    /// Throttling a NIC to a fraction scales a lone flow's completion
    /// time by exactly the inverse fraction.
    #[test]
    fn throttle_scales_completion_linearly(frac_pct in 5u32..100) {
        let frac = frac_pct as f64 / 100.0;
        let mk = |f: f64| {
            let mut topo = Topology::single_switch(2, 1000.0);
            topo.throttle_all_nics(f);
            let mut sim = Simulation::new(topo, FairShareFabric::default());
            let s = sim.topo().servers().to_vec();
            sim.start_flow(FlowSpec {
                src: s[0],
                dst: s[1],
                bytes: 10_000.0,
                sl: ServiceLevel(0),
                app: AppId(0),
                tag: 0,
                rate_cap: f64::INFINITY,
                min_rate: 0.0,
            });
            sim.run_to_idle()[0].finished
        };
        let full = mk(1.0);
        let throttled = mk(frac);
        prop_assert!((throttled * frac - full).abs() < 1e-6 * full,
            "full {full}, throttled {throttled}, frac {frac}");
    }

    /// `Routes::path` picks its hops in place off the forwarding table;
    /// the reference (`next_hops_then_pick`) collects every hop's
    /// equal-cost candidates from the topology and `distance` and
    /// indexes them with the same hash. Same candidate order, same pick,
    /// same path — on healthy fabrics and around failed cables, whether
    /// or not the tables have re-converged since the failure — and
    /// `next_hops` lists the reference's candidates.
    #[test]
    fn path_is_next_hops_then_pick(
        servers_per_tor in 1usize..4,
        pairs in prop::collection::vec((0usize..64, 0usize..64, any::<u64>()), 1..12),
        failed in prop::collection::vec(0usize..4096, 0..4),
        reconverge in any::<bool>(),
    ) {
        let mut topo = Topology::spine_leaf(&SpineLeafConfig::tiny(servers_per_tor));
        let mut routes = Routes::compute(&topo);
        for f in failed {
            topo.set_link_up(LinkId((f % topo.num_links()) as u32), false);
        }
        if reconverge {
            routes.recompute(&topo);
        }
        let s = topo.servers().to_vec();
        for (a, b, tag) in pairs {
            let (src, dst) = (s[a % s.len()], s[b % s.len()]);
            prop_assert_eq!(
                routes.path(&topo, src, dst, tag),
                next_hops_then_pick(&topo, &routes, src, dst, tag)
            );
            // The first hop's candidates, as `next_hops` lists them.
            let want: Vec<LinkId> = match routes.distance(src, dst) {
                Some(d) if d > 0 => topo
                    .out_links(src)
                    .iter()
                    .copied()
                    .filter(|&l| {
                        topo.link_is_up(l)
                            && routes.distance(topo.link(l).to, dst) == Some(d - 1)
                    })
                    .collect(),
                _ => Vec::new(),
            };
            prop_assert_eq!(routes.next_hops(&topo, src, dst), want);
        }
    }

    /// A node fed by a single live link answers from its feeder's
    /// distance field; every node must still report the hop count a
    /// plain BFS over the live links finds — on arbitrary digraphs
    /// (single-fed, multi-fed and unfed nodes alike), before and after
    /// links fail and the tables re-converge.
    #[test]
    fn distances_are_plain_bfs_hop_counts(
        nodes in 2usize..9,
        edges in prop::collection::vec((0usize..9, 0usize..9), 1..24),
        failed in prop::collection::vec(0usize..24, 0..6),
    ) {
        use saba_sim::topology::NodeKind;
        let mut topo = Topology::new();
        let ids: Vec<_> = (0..nodes)
            .map(|i| topo.add_node(NodeKind::Switch, format!("n{i}")))
            .collect();
        for (a, b) in edges {
            let (a, b) = (a % nodes, b % nodes);
            if a != b {
                topo.add_link(ids[a], ids[b], 1.0);
            }
        }
        prop_assume!(topo.num_links() > 0);
        let mut routes = Routes::compute(&topo);
        for round in 0..2 {
            // Plain BFS from every source over the live links.
            for &src in &ids {
                let mut want = vec![None; nodes];
                want[src.0 as usize] = Some(0u32);
                let mut frontier = vec![src];
                while let Some(u) = frontier.pop() {
                    // Relax until no distance improves (tiny graphs).
                    for &l in topo.out_links(u) {
                        let v = topo.link(l).to;
                        let via = want[u.0 as usize].expect("reached") + 1;
                        if topo.link_is_up(l) && want[v.0 as usize].is_none_or(|d| via < d) {
                            want[v.0 as usize] = Some(via);
                            frontier.push(v);
                        }
                    }
                }
                for &dst in &ids {
                    prop_assert_eq!(
                        routes.distance(src, dst), want[dst.0 as usize],
                        "round {}: {} -> {}", round, src, dst
                    );
                }
            }
            for &f in &failed {
                topo.set_link_up(LinkId((f % topo.num_links()) as u32), false);
            }
            routes.recompute(&topo);
        }
    }

    /// The flat sorted rows against the obvious model, one refcount map
    /// per link: the same dirty bit from every `add` / `remove`, and the
    /// same sorted members and counts after each.
    #[test]
    fn link_members_match_a_btreemap_model(
        script in prop::collection::vec((any::<bool>(), 0u32..3, 0u16..12), 1..200),
    ) {
        let mut flat: LinkMembers<u16> = LinkMembers::new(3);
        let mut model = vec![std::collections::BTreeMap::<u16, u32>::new(); 3];
        for (add, link, member) in script {
            let row = &mut model[link as usize];
            let dirty = if add {
                let count = row.entry(member).or_insert(0);
                *count += 1;
                *count == 1
            } else {
                match row.get_mut(&member) {
                    Some(count) if *count > 1 => {
                        *count -= 1;
                        false
                    }
                    Some(_) => row.remove(&member).is_some(),
                    None => false,
                }
            };
            let link = LinkId(link);
            if add {
                prop_assert_eq!(flat.add(link, member), dirty);
            } else {
                prop_assert_eq!(flat.remove(link, member), dirty);
            }
            prop_assert_eq!(
                flat.members(link).collect::<Vec<_>>(),
                row.keys().copied().collect::<Vec<_>>()
            );
            prop_assert_eq!(flat.num_members(link), row.len());
            prop_assert_eq!(flat.count(link, member), row.get(&member).copied().unwrap_or(0));
            let occupied: Vec<LinkId> = (0..3)
                .filter(|&l| !model[l as usize].is_empty())
                .map(LinkId)
                .collect();
            prop_assert_eq!(flat.occupied_links().collect::<Vec<_>>(), occupied);
        }
    }
}

/// A ~4096-flow all-to-all epoch (23 hosts, 8 duplicate flows per pair
/// = 4048 flows) produces bit-identical rates through the allocating
/// wrapper and through `compute_rates_into` with a scratch reused
/// across epochs — the engine's steady-state calling pattern.
#[test]
fn all_to_all_epoch_matches_with_reused_scratch() {
    let hosts = 23usize;
    let dup = 8usize;
    let caps = vec![56.0e9_f64; 2 * hosts];
    let mut flows = Vec::with_capacity(hosts * (hosts - 1) * dup);
    for s in 0..hosts {
        for d in 0..hosts {
            if s == d {
                continue;
            }
            for _ in 0..dup {
                flows.push(SharingFlow {
                    path: vec![LinkId(s as u32), LinkId((hosts + d) as u32)],
                    weights: vec![1.0, 1.0],
                    priority: 0,
                    rate_cap: f64::INFINITY,
                });
            }
        }
    }
    assert_eq!(flows.len(), 4048);
    let reference = compute_rates(&caps, &flows);
    let mut scratch = SharingScratch::default();
    let mut rates = Vec::new();
    for epoch in 0..3 {
        compute_rates_into(&caps, &Named(&flows), &mut scratch, &mut rates);
        assert_eq!(rates.len(), reference.len());
        for (i, (&r, &want)) in rates.iter().zip(&reference).enumerate() {
            assert_eq!(r, want, "epoch {epoch}, flow {i}: {r} != {want}");
        }
    }
}

/// A node with more equal-cost next hops than `Routes::path` keeps on
/// the stack (64): `src` reaches `dst` through any of 150 parallel
/// switches, so most picks land past the buffer and take the re-scan.
/// Every tag still routes exactly like the reference, healthy, with
/// middles cut while the tables are stale, and after they re-converge.
#[test]
fn a_wider_fanout_than_the_stack_buffer_routes_like_the_reference() {
    use saba_sim::topology::NodeKind;
    let mut topo = Topology::new();
    let src = topo.add_node(NodeKind::Switch, "src");
    let dst = topo.add_node(NodeKind::Switch, "dst");
    for i in 0..150 {
        let mid = topo.add_node(NodeKind::Switch, format!("mid{i}"));
        topo.add_cable(src, mid, 1.0);
        topo.add_cable(mid, dst, 1.0);
    }
    let mut routes = Routes::compute(&topo);
    let check = |topo: &Topology, routes: &Routes| {
        let mut past_the_buffer = 0;
        for tag in 0..400u64 {
            let got = routes.path(topo, src, dst, tag).expect("connected");
            assert_eq!(
                Some(&got),
                next_hops_then_pick(topo, routes, src, dst, tag).as_ref(),
                "tag {tag}"
            );
            let candidates = routes.next_hops(topo, src, dst);
            let pick = candidates.iter().position(|&l| l == got[0]);
            past_the_buffer += usize::from(pick.expect("a candidate") >= 64);
        }
        assert!(
            past_the_buffer > 100,
            "{past_the_buffer} picks past the buffer"
        );
    };
    check(&topo, &routes);
    // Cut every third link from `src` into a middle: 100 candidates.
    for i in (0..150).step_by(3) {
        let cut = topo.out_links(src)[i];
        assert_eq!(topo.link(cut).to, NodeId(2 + i as u32));
        topo.set_link_up(cut, false);
    }
    check(&topo, &routes);
    routes.recompute(&topo);
    check(&topo, &routes);
}
