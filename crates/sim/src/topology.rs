//! Network topologies: nodes, directed links, and the builders for the
//! paper's two evaluation fabrics.
//!
//! Links are *directed*; a physical cable is two links. Each link is one
//! output port of its source node, carrying that port's queues. Servers
//! have a single NIC: one egress link (server → switch) whose capacity
//! doubles as the NIC token-bucket rate limit used by the profiler
//! (§7.1).

use crate::ids::{LinkId, NodeId};
use serde::{Deserialize, Serialize};

/// Whether a node is an end host or a switch.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum NodeKind {
    /// An end host (runs workload instances, has one NIC).
    Server,
    /// A switch (ToR, leaf, or spine).
    Switch,
}

/// A node in the fabric.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Node {
    /// Server or switch.
    pub kind: NodeKind,
    /// Human-readable name for diagnostics (e.g. `"tor3"`, `"srv17"`).
    pub name: String,
    /// Whether the node is operational. A failed switch takes every
    /// incident link down with it (fault injection).
    #[serde(default = "default_up")]
    pub up: bool,
}

/// A directed link (output port).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Link {
    /// Source node (the port lives here).
    pub from: NodeId,
    /// Destination node.
    pub to: NodeId,
    /// Capacity in bytes per second. May be lowered at runtime to model
    /// NIC token-bucket throttling (§7.1).
    pub capacity: f64,
    /// Nominal (design) capacity in bytes per second; `capacity` can be
    /// throttled below this but never above.
    pub nominal_capacity: f64,
    /// Whether the link itself is operational (administrative state;
    /// the *effective* state also requires both endpoints up — see
    /// [`Topology::link_is_up`]).
    #[serde(default = "default_up")]
    pub up: bool,
}

fn default_up() -> bool {
    true
}

/// Parameters for the three-tier spine-leaf fabric of §8.1.
///
/// The paper simulates 54 spine, 102 leaf, and 108 top-of-rack switches,
/// 18 servers per ToR — 1,944 servers. ToRs connect to a *pod* of leaf
/// switches; every leaf connects to every spine.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SpineLeafConfig {
    /// Number of spine switches.
    pub spines: usize,
    /// Number of leaf switches.
    pub leaves: usize,
    /// Number of top-of-rack switches.
    pub tors: usize,
    /// Servers attached to each ToR.
    pub servers_per_tor: usize,
    /// Number of leaf switches each ToR uplinks to (round-robin pods).
    pub leaf_uplinks_per_tor: usize,
    /// Link capacity in bytes per second (all tiers).
    pub link_capacity: f64,
}

impl SpineLeafConfig {
    /// The paper's §8.1 configuration: 54 spine, 102 leaf, 108 ToR,
    /// 18 servers per ToR (1,944 servers), 56 Gb/s links.
    pub fn paper() -> Self {
        Self {
            spines: 54,
            leaves: 102,
            tors: 108,
            servers_per_tor: 18,
            leaf_uplinks_per_tor: 6,
            link_capacity: crate::LINK_56G_BPS,
        }
    }

    /// A scaled-down configuration for tests: 2 spine, 4 leaf, 4 ToR,
    /// `servers_per_tor` servers each.
    pub fn tiny(servers_per_tor: usize) -> Self {
        Self {
            spines: 2,
            leaves: 4,
            tors: 4,
            servers_per_tor,
            leaf_uplinks_per_tor: 2,
            link_capacity: crate::LINK_56G_BPS,
        }
    }
}

/// A directed-graph network topology.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
#[serde(from = "Parts")]
pub struct Topology {
    nodes: Vec<Node>,
    links: Vec<Link>,
    /// Outgoing link ids per node.
    out_links: Vec<Vec<LinkId>>,
    /// Server node ids, in creation order.
    servers: Vec<NodeId>,
    /// Links and nodes administratively down, kept by every state
    /// transition so that [`Self::has_failures`] is one load. Derived,
    /// so not serialized: deserialization recounts it.
    #[serde(skip)]
    down: usize,
}

/// A [`Topology`] as serialized: everything but the down count.
#[derive(Deserialize)]
struct Parts {
    nodes: Vec<Node>,
    links: Vec<Link>,
    out_links: Vec<Vec<LinkId>>,
    servers: Vec<NodeId>,
}

impl From<Parts> for Topology {
    fn from(p: Parts) -> Self {
        let mut t = Self::default();
        (t.nodes, t.links) = (p.nodes, p.links);
        (t.out_links, t.servers) = (p.out_links, p.servers);
        t.down =
            t.nodes.iter().filter(|n| !n.up).count() + t.links.iter().filter(|l| !l.up).count();
        t
    }
}

impl Topology {
    /// Creates an empty topology.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a node, returning its id.
    pub fn add_node(&mut self, kind: NodeKind, name: impl Into<String>) -> NodeId {
        let id = NodeId(self.nodes.len() as u32);
        self.nodes.push(Node {
            kind,
            name: name.into(),
            up: true,
        });
        self.out_links.push(Vec::new());
        if kind == NodeKind::Server {
            self.servers.push(id);
        }
        id
    }

    /// Adds a directed link (one output port), returning its id.
    ///
    /// # Panics
    ///
    /// Panics if either endpoint does not exist, the endpoints coincide,
    /// or the capacity is not finite and positive.
    pub fn add_link(&mut self, from: NodeId, to: NodeId, capacity: f64) -> LinkId {
        assert!((from.0 as usize) < self.nodes.len(), "unknown source node");
        assert!(
            (to.0 as usize) < self.nodes.len(),
            "unknown destination node"
        );
        assert_ne!(from, to, "self links are not allowed");
        assert!(
            capacity.is_finite() && capacity > 0.0,
            "capacity must be positive"
        );
        let id = LinkId(self.links.len() as u32);
        self.links.push(Link {
            from,
            to,
            capacity,
            nominal_capacity: capacity,
            up: true,
        });
        self.out_links[from.0 as usize].push(id);
        id
    }

    /// Adds a bidirectional cable as two directed links, returning
    /// `(forward, reverse)`.
    pub fn add_cable(&mut self, a: NodeId, b: NodeId, capacity: f64) -> (LinkId, LinkId) {
        (self.add_link(a, b, capacity), self.add_link(b, a, capacity))
    }

    /// Number of nodes.
    pub fn num_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// Number of directed links.
    pub fn num_links(&self) -> usize {
        self.links.len()
    }

    /// Node metadata.
    pub fn node(&self, id: NodeId) -> &Node {
        &self.nodes[id.0 as usize]
    }

    /// Link metadata.
    pub fn link(&self, id: LinkId) -> &Link {
        &self.links[id.0 as usize]
    }

    /// Outgoing links (output ports) of `node`.
    pub fn out_links(&self, node: NodeId) -> &[LinkId] {
        &self.out_links[node.0 as usize]
    }

    /// All server nodes, in creation order.
    pub fn servers(&self) -> &[NodeId] {
        &self.servers
    }

    /// All link capacities, indexed by `LinkId`. Effectively-down links
    /// (failed link or failed endpoint) report zero capacity.
    pub fn capacities(&self) -> Vec<f64> {
        let mut out = Vec::new();
        self.capacities_into(&mut out);
        out
    }

    /// Writes all link capacities into `out` (cleared and refilled),
    /// indexed by `LinkId`. Allocation-free once `out` has capacity.
    /// Effectively-down links report zero capacity.
    pub fn capacities_into(&self, out: &mut Vec<f64>) {
        out.clear();
        out.extend(self.links.iter().map(|l| {
            if l.up && self.nodes[l.from.0 as usize].up && self.nodes[l.to.0 as usize].up {
                l.capacity
            } else {
                0.0
            }
        }));
    }

    /// Whether a link is *effectively* up: administratively up and both
    /// its endpoints operational.
    pub fn link_is_up(&self, id: LinkId) -> bool {
        let l = &self.links[id.0 as usize];
        l.up && self.nodes[l.from.0 as usize].up && self.nodes[l.to.0 as usize].up
    }

    /// Whether a node is operational.
    pub fn node_is_up(&self, id: NodeId) -> bool {
        self.nodes[id.0 as usize].up
    }

    /// Sets a link's administrative state (fault injection). Returns the
    /// previous state.
    pub fn set_link_up(&mut self, id: LinkId, up: bool) -> bool {
        let was = std::mem::replace(&mut self.links[id.0 as usize].up, up);
        self.down = self.down + usize::from(was) - usize::from(up);
        was
    }

    /// Sets a node's operational state (switch failure). Returns the
    /// previous state.
    pub fn set_node_up(&mut self, id: NodeId, up: bool) -> bool {
        let was = std::mem::replace(&mut self.nodes[id.0 as usize].up, up);
        self.down = self.down + usize::from(was) - usize::from(up);
        was
    }

    /// Number of links and nodes currently down (administratively; a
    /// link down only through a failed endpoint is not counted).
    pub fn down_count(&self) -> usize {
        self.down
    }

    /// Whether any link or node is currently down. When not, every link
    /// is effectively up.
    pub fn has_failures(&self) -> bool {
        self.down != 0
    }

    /// The reverse direction of `id`'s cable, if one exists: the first
    /// link running `to → from`.
    pub fn reverse_of(&self, id: LinkId) -> Option<LinkId> {
        let l = &self.links[id.0 as usize];
        self.out_links(l.to)
            .iter()
            .copied()
            .find(|&r| self.links[r.0 as usize].to == l.from)
    }

    /// The egress (NIC) link of a server: its unique outgoing link.
    ///
    /// # Panics
    ///
    /// Panics if the node is not a server with exactly one egress link.
    pub fn nic_link(&self, server: NodeId) -> LinkId {
        assert_eq!(
            self.node(server).kind,
            NodeKind::Server,
            "{server} is not a server"
        );
        let out = self.out_links(server);
        assert_eq!(
            out.len(),
            1,
            "server {server} must have exactly one NIC egress link"
        );
        out[0]
    }

    /// Throttles a link to `fraction` of its nominal capacity — the
    /// profiler's token-bucket rate limiter (§7.1).
    ///
    /// # Panics
    ///
    /// Panics unless `0 < fraction <= 1`.
    pub fn throttle_link(&mut self, link: LinkId, fraction: f64) {
        assert!(
            fraction > 0.0 && fraction <= 1.0,
            "fraction must be in (0, 1]"
        );
        let l = &mut self.links[link.0 as usize];
        l.capacity = l.nominal_capacity * fraction;
    }

    /// Throttles every server NIC egress link to `fraction` of nominal
    /// capacity — how the profiler "limits the bandwidth of NICs of all
    /// nodes to a certain percentage of link capacity" (§4.1).
    pub fn throttle_all_nics(&mut self, fraction: f64) {
        for &s in &self.servers.clone() {
            let nic = self.nic_link(s);
            self.throttle_link(nic, fraction);
        }
    }

    /// Builds the §8.1 testbed shape: `n` servers attached to one switch.
    ///
    /// Link layout per server: one uplink (NIC egress) and one downlink
    /// (switch output port toward the server).
    pub fn single_switch(n: usize, link_capacity: f64) -> Self {
        let mut t = Self::new();
        let sw = t.add_node(NodeKind::Switch, "sw0");
        for i in 0..n {
            let s = t.add_node(NodeKind::Server, format!("srv{i}"));
            t.add_cable(s, sw, link_capacity);
        }
        t
    }

    /// Builds a three-tier spine-leaf fabric (§8.1 simulation topology).
    ///
    /// ToR `i` uplinks to `leaf_uplinks_per_tor` leaves starting at
    /// `i * leaf_uplinks_per_tor mod leaves` (wrap-around pods); every
    /// leaf connects to every spine. All cables are bidirectional.
    ///
    /// # Panics
    ///
    /// Panics if any tier count is zero or `leaf_uplinks_per_tor`
    /// exceeds the number of leaves.
    pub fn spine_leaf(cfg: &SpineLeafConfig) -> Self {
        assert!(
            cfg.spines > 0 && cfg.leaves > 0 && cfg.tors > 0,
            "tier counts must be positive"
        );
        assert!(cfg.servers_per_tor > 0, "need at least one server per ToR");
        assert!(
            cfg.leaf_uplinks_per_tor >= 1 && cfg.leaf_uplinks_per_tor <= cfg.leaves,
            "leaf uplinks per ToR must be in 1..=leaves"
        );
        let mut t = Self::new();
        let spines: Vec<NodeId> = (0..cfg.spines)
            .map(|i| t.add_node(NodeKind::Switch, format!("spine{i}")))
            .collect();
        let leaves: Vec<NodeId> = (0..cfg.leaves)
            .map(|i| t.add_node(NodeKind::Switch, format!("leaf{i}")))
            .collect();
        let tors: Vec<NodeId> = (0..cfg.tors)
            .map(|i| t.add_node(NodeKind::Switch, format!("tor{i}")))
            .collect();

        // Leaf <-> spine: full mesh.
        for &leaf in &leaves {
            for &spine in &spines {
                t.add_cable(leaf, spine, cfg.link_capacity);
            }
        }
        // ToR <-> leaf: wrap-around pods.
        for (i, &tor) in tors.iter().enumerate() {
            for k in 0..cfg.leaf_uplinks_per_tor {
                let leaf = leaves[(i * cfg.leaf_uplinks_per_tor + k) % cfg.leaves];
                t.add_cable(tor, leaf, cfg.link_capacity);
            }
        }
        // Servers <-> ToR.
        for (i, &tor) in tors.iter().enumerate() {
            for j in 0..cfg.servers_per_tor {
                let s = t.add_node(
                    NodeKind::Server,
                    format!("srv{}", i * cfg.servers_per_tor + j),
                );
                t.add_cable(s, tor, cfg.link_capacity);
            }
        }
        t
    }
}

impl Topology {
    /// Builds a three-tier k-ary **fat tree** (Al-Fares et al.): `k`
    /// pods, each with `k/2` edge and `k/2` aggregation switches;
    /// `(k/2)²` core switches; `k/2` servers per edge switch — `k³/4`
    /// servers total, with full bisection bandwidth.
    ///
    /// Useful as a contrast to the paper's oversubscribed spine-leaf
    /// fabric: under a rearrangeably non-blocking core, Saba's
    /// contention points collapse to the edge links.
    ///
    /// # Panics
    ///
    /// Panics unless `k` is even and at least 2.
    pub fn fat_tree(k: usize, link_capacity: f64) -> Self {
        assert!(
            k >= 2 && k.is_multiple_of(2),
            "fat tree requires an even k >= 2"
        );
        let half = k / 2;
        let mut t = Self::new();

        let cores: Vec<NodeId> = (0..half * half)
            .map(|i| t.add_node(NodeKind::Switch, format!("core{i}")))
            .collect();
        for pod in 0..k {
            let aggs: Vec<NodeId> = (0..half)
                .map(|a| t.add_node(NodeKind::Switch, format!("agg{pod}_{a}")))
                .collect();
            let edges: Vec<NodeId> = (0..half)
                .map(|e| t.add_node(NodeKind::Switch, format!("edge{pod}_{e}")))
                .collect();
            // Aggregation a connects to cores [a*half, (a+1)*half).
            for (a, &agg) in aggs.iter().enumerate() {
                for c in 0..half {
                    t.add_cable(agg, cores[a * half + c], link_capacity);
                }
                for &edge in &edges {
                    t.add_cable(agg, edge, link_capacity);
                }
            }
            for (e, &edge) in edges.iter().enumerate() {
                for srv in 0..half {
                    let s = t.add_node(
                        NodeKind::Server,
                        format!("srv{}", pod * half * half + e * half + srv),
                    );
                    t.add_cable(s, edge, link_capacity);
                }
            }
        }
        t
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_switch_counts() {
        let t = Topology::single_switch(8, 100.0);
        assert_eq!(t.num_nodes(), 9);
        assert_eq!(t.num_links(), 16);
        assert_eq!(t.servers().len(), 8);
    }

    #[test]
    fn nic_link_is_server_egress() {
        let t = Topology::single_switch(3, 100.0);
        for &s in t.servers() {
            let nic = t.nic_link(s);
            assert_eq!(t.link(nic).from, s);
        }
    }

    #[test]
    fn throttle_scales_capacity_and_is_reversible() {
        let mut t = Topology::single_switch(2, 100.0);
        let nic = t.nic_link(t.servers()[0]);
        t.throttle_link(nic, 0.25);
        assert!((t.link(nic).capacity - 25.0).abs() < 1e-9);
        t.throttle_link(nic, 1.0);
        assert!((t.link(nic).capacity - 100.0).abs() < 1e-9);
    }

    #[test]
    fn throttle_all_nics_spares_switch_ports() {
        let mut t = Topology::single_switch(4, 100.0);
        t.throttle_all_nics(0.5);
        for &s in t.servers() {
            assert!((t.link(t.nic_link(s)).capacity - 50.0).abs() < 1e-9);
        }
        // Switch downlinks keep their full capacity.
        let sw = NodeId(0);
        for &l in t.out_links(sw) {
            assert!((t.link(l).capacity - 100.0).abs() < 1e-9);
        }
    }

    #[test]
    fn paper_spine_leaf_has_1944_servers() {
        let t = Topology::spine_leaf(&SpineLeafConfig::paper());
        assert_eq!(t.servers().len(), 1944);
        assert_eq!(t.num_nodes(), 54 + 102 + 108 + 1944);
        // Leaf-spine full mesh: 102*54 cables; ToR uplinks: 108*6; server links: 1944.
        let cables = 102 * 54 + 108 * 6 + 1944;
        assert_eq!(t.num_links(), cables * 2);
    }

    #[test]
    fn tiny_spine_leaf_is_connected_enough() {
        let t = Topology::spine_leaf(&SpineLeafConfig::tiny(2));
        assert_eq!(t.servers().len(), 8);
        for &s in t.servers() {
            assert_eq!(t.out_links(s).len(), 1);
        }
    }

    #[test]
    fn fat_tree_counts() {
        // k = 4: 16 servers, 4 core + 8 agg + 8 edge switches.
        let t = Topology::fat_tree(4, 100.0);
        assert_eq!(t.servers().len(), 16);
        assert_eq!(t.num_nodes(), 16 + 4 + 8 + 8);
        // Cables: core-agg 4*2*2=16, agg-edge 4*2*2=16, server-edge 16.
        assert_eq!(t.num_links(), (16 + 16 + 16) * 2);
        for &s in t.servers() {
            assert_eq!(t.out_links(s).len(), 1, "one NIC per server");
        }
    }

    #[test]
    fn fat_tree_has_full_bisection_paths() {
        let t = Topology::fat_tree(4, 100.0);
        let r = crate::routing::Routes::compute(&t);
        let s = t.servers();
        // Cross-pod pairs route in exactly 6 hops (srv-edge-agg-core-agg-edge-srv).
        let p = r.path(&t, s[0], s[s.len() - 1], 1).expect("reachable");
        assert_eq!(p.len(), 6);
        // Same-edge pairs use 2 hops.
        let p = r.path(&t, s[0], s[1], 1).expect("reachable");
        assert_eq!(p.len(), 2);
    }

    #[test]
    #[should_panic(expected = "even k")]
    fn fat_tree_rejects_odd_k() {
        let _ = Topology::fat_tree(3, 100.0);
    }

    #[test]
    #[should_panic(expected = "self links")]
    fn self_link_rejected() {
        let mut t = Topology::new();
        let a = t.add_node(NodeKind::Switch, "a");
        t.add_link(a, a, 1.0);
    }

    #[test]
    fn link_failure_zeroes_capacity_and_is_reversible() {
        let mut t = Topology::single_switch(2, 100.0);
        let nic = t.nic_link(t.servers()[0]);
        assert!(t.link_is_up(nic));
        assert!(!t.has_failures());
        t.set_link_up(nic, false);
        assert!(!t.link_is_up(nic));
        assert!(t.has_failures());
        assert_eq!(t.capacities()[nic.0 as usize], 0.0);
        // Nominal capacity survives the outage.
        t.set_link_up(nic, true);
        assert!(t.link_is_up(nic));
        assert_eq!(t.capacities()[nic.0 as usize], 100.0);
    }

    #[test]
    fn node_failure_downs_incident_links() {
        let mut t = Topology::single_switch(3, 100.0);
        let sw = NodeId(0);
        t.set_node_up(sw, false);
        for l in 0..t.num_links() {
            assert!(!t.link_is_up(LinkId(l as u32)), "link {l} should be down");
        }
        assert!(t.capacities().iter().all(|&c| c == 0.0));
        t.set_node_up(sw, true);
        assert!(t.capacities().iter().all(|&c| c == 100.0));
    }

    #[test]
    fn reverse_of_finds_cable_pair() {
        let mut t = Topology::new();
        let a = t.add_node(NodeKind::Switch, "a");
        let b = t.add_node(NodeKind::Switch, "b");
        let (f, r) = t.add_cable(a, b, 10.0);
        assert_eq!(t.reverse_of(f), Some(r));
        assert_eq!(t.reverse_of(r), Some(f));
        let c = t.add_node(NodeKind::Switch, "c");
        let one_way = t.add_link(b, c, 10.0);
        assert_eq!(t.reverse_of(one_way), None);
    }

    #[test]
    fn down_count_follows_every_transition() {
        let mut t = Topology::single_switch(3, 100.0);
        let (nic, sw) = (t.nic_link(t.servers()[0]), NodeId(0));
        assert!(t.set_link_up(nic, false));
        assert!(
            !t.set_link_up(nic, false),
            "a repeated fault is no transition"
        );
        assert!(t.set_node_up(sw, false));
        assert_eq!((t.down_count(), t.has_failures()), (2, true));
        assert!(!t.set_link_up(nic, true));
        assert!(t.set_link_up(nic, true));
        assert_eq!(t.down_count(), 1);
        assert!(!t.set_node_up(sw, true));
        assert_eq!((t.down_count(), t.has_failures()), (0, false));
    }

    #[test]
    fn serde_round_trip_recounts_what_is_down() {
        let mut t = Topology::spine_leaf(&SpineLeafConfig::tiny(2));
        let r = crate::routing::Routes::compute(&t);
        let s = t.servers().to_vec();
        t.set_link_up(t.nic_link(s[1]), false);
        t.set_node_up(NodeId(0), false);
        let json = serde_json::to_string(&t).unwrap();
        assert!(!json.contains("down"), "the count is derived, not stored");
        let back: Topology = serde_json::from_str(&json).unwrap();
        assert_eq!(back.down_count(), 2);
        assert!(back.has_failures());
        // Same liveness everywhere, so the same paths through the same
        // (stale) tables, and the same after re-convergence.
        let mut fresh = crate::routing::Routes::compute(&t);
        for (i, &a) in s.iter().enumerate() {
            for &b in &s {
                let tag = i as u64 * 7919;
                assert_eq!(r.path(&t, a, b, tag), r.path(&back, a, b, tag));
                assert_eq!(fresh.path(&t, a, b, tag), fresh.path(&back, a, b, tag));
            }
        }
        fresh.recompute(&back);
        assert_eq!(fresh.path(&back, s[1], s[0], 3), None, "s1's NIC is down");
        // A healthy payload loads healthy.
        let healthy: Topology =
            serde_json::from_str(&serde_json::to_string(&Topology::single_switch(2, 1.0)).unwrap())
                .unwrap();
        assert!(!healthy.has_failures());
    }

    #[test]
    fn serde_defaults_up_for_legacy_payloads() {
        // Payloads written before the fault fields existed must load as
        // fully operational.
        let json = r#"{"kind":"Switch","name":"sw0"}"#;
        let n: Node = serde_json::from_str(json).unwrap();
        assert!(n.up);
        let json = r#"{"from":0,"to":1,"capacity":5.0,"nominal_capacity":10.0}"#;
        let l: Link = serde_json::from_str(json).unwrap();
        assert!(l.up);
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_rejected() {
        let mut t = Topology::new();
        let a = t.add_node(NodeKind::Switch, "a");
        let b = t.add_node(NodeKind::Switch, "b");
        t.add_link(a, b, 0.0);
    }
}
