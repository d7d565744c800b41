//! Destination-based shortest-path routing with deterministic ECMP.
//!
//! InfiniBand fabrics use destination-routed forwarding tables computed
//! by the subnet manager; Saba's controller reads those tables to detect
//! flow paths (§7.2, via `infiniband-diags`). We reproduce the same
//! structure: per-destination BFS distance fields over the topology,
//! next-hop sets derived from them, and a deterministic hash of the flow
//! tag selecting among equal-cost next hops (so a given connection is
//! always routed identically, as a subnet manager's static tables would).
//!
//! Distance fields are a controller's largest resident state, so they
//! are kept small two ways. A cell is a `u16` hop count: a shortest path
//! may have at most 65,534 hops ([`UNREACHABLE`] is the one reserved
//! value), which is asserted where a larger count would arise. And a
//! node fed by a single live link — every server — keeps no field of
//! its own: from anywhere else it is one hop past its feeder, so it
//! answers from the feeder's field, and a fabric holds one field per
//! switch it routes through rather than one per server it routes to.
//!
//! Path detection runs on a flat forwarding table: each hop is one pass
//! over a contiguous slice of far ends, read against the destination
//! field's cells, with the equal-cost candidates kept on the stack and
//! no liveness load at all while the topology reports nothing down. It
//! allocates the path it returns and nothing else.

use crate::ids::{LinkId, NodeId};
use crate::topology::Topology;
use std::ops::Range;
use std::sync::{Mutex, OnceLock};

/// The distance-field cell of a node that cannot reach the destination.
const UNREACHABLE: u16 = u16::MAX;
const HOP_LIMIT: &str = "shortest paths are limited to 65,534 hops";
/// Equal-cost candidates one hop of [`Routes::path`] keeps on the stack
/// (the paper fabric's leaves have 54); a pick past them re-scans.
const ECMP_BUF: usize = 64;

/// Routing state with lazily materialized BFS distance fields.
///
/// A dense all-pairs table costs `n² × 2` bytes and `n` BFS passes up
/// front — ~300 MB and seconds of work at a 10k-server tier, almost all
/// of it for destinations nothing ever routes to. Instead we keep flat
/// adjacencies (the forwarding table and the reversed live links) and
/// compute each per-destination (and, for multipath detection,
/// per-source) distance field on first use, caching it in a
/// [`OnceLock`]. Memory scales with the switches that feed the
/// destinations actually routed; [`Routes::recompute`] invalidates every
/// cached field so the next query re-derives it against the post-fault
/// topology. A clone keeps the fields already materialized.
#[derive(Debug, Clone, Default)]
pub struct Routes {
    /// The forwarding table: every node's out-links, down ones included,
    /// in `Topology::out_links` order — `topo.out_links(u)[i]` leads to
    /// `out_to[out_start[u] + i]`, so a hop reads one contiguous slice
    /// and never a `Link`.
    out_start: Vec<u32>,
    out_to: Vec<u32>,
    /// Whether the out-link of `out_to[e]` was up at the last recompute:
    /// the live forward adjacency the source fields walk.
    out_live: Vec<bool>,
    /// The links up at the last recompute, reversed and flattened the
    /// same way: `in_from[in_start[v]..in_start[v + 1]]` are the sources
    /// of `v`'s live in-links. The destination fields walk it.
    in_start: Vec<u32>,
    in_from: Vec<u32>,
    /// Nodes whose only live out-link and every live in-link join them
    /// to one neighbour — every server: reached from it by a reverse
    /// BFS, they lead nowhere new, so it does not queue them.
    spur: Vec<bool>,
    /// `dist_to[dst][node]` = hop count from `node` to `dst`
    /// ([`UNREACHABLE`] if there is none). Computed lazily, BFS on the
    /// reversed graph from `dst`; never for a `dst` that answers from
    /// its feeder's field (see `dist_to_field`).
    dist_to: Vec<OnceLock<Box<[u16]>>>,
    /// `dist_from[src][node]` = hop count from `src` to `node`.
    /// Computed lazily, BFS on the forward graph from `src`.
    dist_from: Vec<OnceLock<Box<[u16]>>>,
    scratch: Scratch,
    num_nodes: usize,
}

/// The buffers the lazy BFS passes reuse, so the fault/repair path
/// allocates nothing in steady state — behind a lock because fields are
/// materialized from `&self` query paths. A clone starts without any.
#[derive(Debug, Default)]
struct Scratch(Mutex<Buffers>);

#[derive(Debug, Default)]
struct Buffers {
    /// Field allocations recycled by `recompute`.
    spare: Vec<Box<[u16]>>,
    /// The BFS queue.
    queue: Vec<u32>,
}

impl Clone for Scratch {
    fn clone(&self) -> Self {
        Self::default()
    }
}

/// Hop counts to one destination, read through the field that answers
/// for it (see [`Routes::dist_to_field`]).
#[derive(Clone, Copy)]
struct Field<'a> {
    /// Hop counts to the destination, or to its only feeder.
    cells: &'a [u16],
    dst: usize,
    /// 1 when `cells` is the feeder's field, else 0.
    past: u16,
}

impl Field<'_> {
    /// Hops from `node` to the destination ([`UNREACHABLE`] if none).
    fn at(&self, node: NodeId) -> u16 {
        match self.cells[node.0 as usize] {
            _ if node.0 as usize == self.dst => 0,
            UNREACHABLE => UNREACHABLE,
            d => {
                assert!(d < UNREACHABLE - self.past, "{HOP_LIMIT}");
                d + self.past
            }
        }
    }

    /// Whether `node` is exactly `hops` (< [`UNREACHABLE`]) from the
    /// destination — `at(node) == hops`, read straight off the cell.
    fn holds(&self, node: u32, hops: u16) -> bool {
        if node as usize == self.dst {
            hops == 0
        } else {
            u32::from(self.cells[node as usize]) + u32::from(self.past) == u32::from(hops)
        }
    }
}

/// Node `u`'s entries in a flat adjacency indexed by `start`.
fn span(start: &[u32], u: usize) -> Range<usize> {
    start[u] as usize..start[u + 1] as usize
}

impl Routes {
    /// Builds routing state for the topology. No distance field is
    /// computed yet — each is derived on first use. Links that are
    /// effectively down (failed link or failed endpoint) are excluded,
    /// so routes never traverse them.
    pub fn compute(topo: &Topology) -> Self {
        let mut routes = Self::default();
        routes.recompute(topo);
        routes
    }

    /// Recomputes routing state in place — the subnet manager's
    /// re-convergence sweep after a fault or repair. The adjacencies are
    /// rebuilt inside their existing allocations and every cached
    /// distance field is invalidated (its buffer recycled for the lazy
    /// re-derivation); after this call every route provably avoids
    /// links that are down in `topo`.
    pub fn recompute(&mut self, topo: &Topology) {
        let n = topo.num_nodes();
        let resized = n != self.num_nodes;
        self.num_nodes = n;

        // The forwarding table, and each node's live in-degree counted
        // at `in_start[v + 2]`, so that after the prefix sum the fill
        // below advances `in_start[v + 1]` from `v`'s first slot to its
        // end — `v + 1`'s first.
        self.out_start.clear();
        self.out_to.clear();
        self.out_live.clear();
        self.in_start.clear();
        self.in_start.resize(n + 2, 0);
        for u in 0..n {
            self.out_start.push(self.out_to.len() as u32);
            for &l in topo.out_links(NodeId(u as u32)) {
                let (to, up) = (topo.link(l).to.0, topo.link_is_up(l));
                self.in_start[to as usize + 2] += u32::from(up);
                self.out_to.push(to);
                self.out_live.push(up);
            }
        }
        self.out_start.push(self.out_to.len() as u32);
        for v in 1..n + 2 {
            self.in_start[v] += self.in_start[v - 1];
        }
        self.in_from.clear();
        self.in_from.resize(self.in_start[n + 1] as usize, 0);
        for u in 0..n {
            for e in span(&self.out_start, u).filter(|&e| self.out_live[e]) {
                let slot = &mut self.in_start[self.out_to[e] as usize + 1];
                self.in_from[*slot as usize] = u as u32;
                *slot += 1;
            }
        }
        self.in_start.pop();
        self.spur.clear();
        for v in 0..n {
            let live = span(&self.out_start, v).filter(|&e| self.out_live[e]);
            let mut ends = live.map(|e| self.out_to[e]);
            let only = ends.next().filter(|_| ends.next().is_none());
            let ins = &self.in_from[span(&self.in_start, v)];
            let spur = only.is_some_and(|u| ins.iter().all(|&w| w == u));
            self.spur.push(spur);
        }

        // Invalidate every cached field, recycling right-sized buffers
        // through the spare pool for later lazy computes.
        let spare = &mut self.scratch.0.get_mut().expect("lock poisoned").spare;
        if resized {
            spare.clear();
        }
        let fields = self.dist_to.iter_mut().chain(&mut self.dist_from);
        spare.extend(fields.filter_map(OnceLock::take).filter(|f| f.len() == n));
        self.dist_to.truncate(n);
        self.dist_to.resize_with(n, OnceLock::new);
        self.dist_from.truncate(n);
        self.dist_from.resize_with(n, OnceLock::new);
    }

    /// BFS distance field from `root` over the links up at the last
    /// recompute: reversed for a destination field, along the
    /// forwarding table's live entries for a source field (`FORWARD`).
    fn bfs_field<const FORWARD: bool>(&self, root: usize) -> Box<[u16]> {
        // Slices, not `&Vec`s: held in registers across the queue's pushes.
        let spur: &[bool] = &self.spur;
        let (start, adj, live): (&[u32], &[u32], &[bool]) = match FORWARD {
            true => (&self.out_start, &self.out_to, &self.out_live),
            false => (&self.in_start, &self.in_from, &[]),
        };
        let (spare, mut queue) = {
            let mut b = self.scratch.0.lock().expect("lock poisoned");
            (b.spare.pop(), std::mem::take(&mut b.queue))
        };
        let mut d = spare.unwrap_or_else(|| vec![0u16; self.num_nodes].into_boxed_slice());
        d.fill(UNREACHABLE);
        d[root] = 0;
        queue.clear();
        queue.push(root as u32);
        let mut head = 0;
        while let Some(&u) = queue.get(head) {
            head += 1;
            let du = d[u as usize];
            for e in span(start, u as usize) {
                let v = adj[e] as usize;
                if d[v] == UNREACHABLE && (!FORWARD || live[e]) {
                    assert!(du < UNREACHABLE - 1, "{HOP_LIMIT}");
                    d[v] = du + 1;
                    if FORWARD || !spur[v] {
                        queue.push(v as u32);
                    }
                }
            }
        }
        self.scratch.0.lock().expect("lock poisoned").queue = queue;
        d
    }

    /// The destination field for `dst`, materializing it on first use.
    /// A node fed by a single live link is one hop past its feeder from
    /// everywhere else, so it answers from the feeder's field: servers
    /// share their switch's, and a fabric keeps one field per switch
    /// routed through, not one per server routed to.
    fn dist_to_field(&self, dst: usize) -> Field<'_> {
        let (root, past) = match self.in_from[span(&self.in_start, dst)] {
            [feeder] => (feeder as usize, 1),
            _ => (dst, 0),
        };
        let cells = self.dist_to[root].get_or_init(|| self.bfs_field::<false>(root));
        Field { cells, dst, past }
    }

    /// The source field for `src`, materializing it on first use.
    fn dist_from_field(&self, src: usize) -> &[u16] {
        self.dist_from[src].get_or_init(|| self.bfs_field::<true>(src))
    }

    /// Hop distance from `from` to `to`, or `None` if unreachable.
    pub fn distance(&self, from: NodeId, to: NodeId) -> Option<u32> {
        let d = self.dist_to_field(to.0 as usize).at(from);
        (d != UNREACHABLE).then_some(u32::from(d))
    }

    /// Number of distance fields currently materialized:
    /// `(destination_fields, source_fields)`.
    pub fn cached_fields(&self) -> (usize, usize) {
        let to = self.dist_to.iter().filter(|l| l.get().is_some()).count();
        let from = self.dist_from.iter().filter(|l| l.get().is_some()).count();
        (to, from)
    }

    /// Approximate heap bytes held by the routing state: materialized
    /// distance fields, the recycled-field pool, the flat adjacencies
    /// and the BFS queue.
    pub fn memory_bytes(&self) -> usize {
        let field_bytes = self.num_nodes * std::mem::size_of::<u16>();
        let (to, from) = self.cached_fields();
        let b = self.scratch.0.lock().expect("lock poisoned");
        let ends = self.out_to.capacity() + self.in_from.capacity() + b.queue.capacity();
        let starts = self.out_start.capacity() + self.in_start.capacity();
        let flags = self.out_live.capacity() + self.spur.capacity();
        (to + from + b.spare.len()) * field_bytes + (ends + starts) * 4 + flags
    }

    /// The slots `i` of `node`'s out-links (`topo.out_links(node)[i]`)
    /// that lie on a shortest path under the destination field `d`, in
    /// order: their far end is one hop nearer than `node`'s `here`
    /// (≥ 1), and — unless `healthy` says nothing is down — their link
    /// is up.
    fn equal_cost_slots<'a>(
        &'a self,
        topo: &'a Topology,
        d: Field<'a>,
        node: NodeId,
        here: u16,
        healthy: bool,
    ) -> impl Iterator<Item = usize> + Clone + 'a {
        let tos = &self.out_to[span(&self.out_start, node.0 as usize)];
        let links = topo.out_links(node);
        debug_assert_eq!(tos.len(), links.len(), "topology reshaped since recompute");
        (0..tos.len())
            .filter(move |&i| d.holds(tos[i], here - 1) && (healthy || topo.link_is_up(links[i])))
    }

    /// All equal-cost next-hop links from `node` toward `dst`.
    pub fn next_hops(&self, topo: &Topology, node: NodeId, dst: NodeId) -> Vec<LinkId> {
        let d = self.dist_to_field(dst.0 as usize);
        let here = d.at(node);
        if here == UNREACHABLE || here == 0 {
            return Vec::new();
        }
        let (links, healthy) = (topo.out_links(node), !topo.has_failures());
        let slots = self.equal_cost_slots(topo, d, node, here, healthy);
        slots.map(|i| links[i]).collect()
    }

    /// The full path (sequence of links) from `src` to `dst`, selecting
    /// among equal-cost hops with a deterministic hash of `tag` — the
    /// fluid equivalent of static ECMP placement by the subnet manager.
    /// Each hop scans its forwarding-table slice once, keeping the
    /// candidates on the stack, and takes the hashed one: the returned
    /// path is the only allocation.
    ///
    /// Returns `None` if `dst` is unreachable from `src`. An empty path
    /// is returned when `src == dst`.
    pub fn path(&self, topo: &Topology, src: NodeId, dst: NodeId, tag: u64) -> Option<Vec<LinkId>> {
        let mut path = Vec::new();
        self.path_into(topo, src, dst, tag, &mut path)
            .then_some(path)
    }

    /// [`Self::path`] written into `path` (cleared first), so a caller
    /// that recycles its paths allocates nothing once the buffer is
    /// long enough. Returns `false`, leaving `path` empty, if `dst` is
    /// unreachable from `src`.
    pub fn path_into(
        &self,
        topo: &Topology,
        src: NodeId,
        dst: NodeId,
        tag: u64,
        path: &mut Vec<LinkId>,
    ) -> bool {
        path.clear();
        if src == dst {
            return true;
        }
        let d = self.dist_to_field(dst.0 as usize);
        let mut here_d = d.at(src);
        if here_d == UNREACHABLE {
            return false;
        }
        path.reserve_exact(usize::from(here_d));
        let healthy = !topo.has_failures();
        let mut slots = [0u32; ECMP_BUF];
        let mut here = src;
        while here != dst {
            let mut candidates = self.equal_cost_slots(topo, d, here, here_d, healthy);
            // One pass: stack the first candidates, count the rest.
            let mut n = 0;
            for i in candidates.clone() {
                if let Some(slot) = slots.get_mut(n) {
                    *slot = i as u32;
                }
                n += 1;
            }
            // No candidate is a path cut mid-way: cannot happen while
            // the distances are consistent with the topology.
            let hop = path.len() as u64;
            let pick = match n {
                0 => {
                    path.clear();
                    return false;
                }
                // Any hash picks the one candidate.
                1 => 0,
                _ => splitmix64(tag.wrapping_add(hop.wrapping_mul(0x9E3779B97F4A7C15))) % n as u64,
            };
            let i = match slots.get(pick as usize) {
                Some(&i) => i as usize,
                None => candidates.nth(pick as usize).expect("pick < n"),
            };
            path.push(topo.out_links(here)[i]);
            here = NodeId(self.out_to[self.out_start[here.0 as usize] as usize + i]);
            here_d -= 1;
        }
        true
    }

    /// Every link lying on *any* shortest path from `src` to `dst` —
    /// the multipath variant of path detection (paper §5, footnote 2:
    /// "If the underlying network layer supports multipathing, the
    /// controller determines switches along all paths between the
    /// source and destination").
    ///
    /// A link `(u, v)` qualifies iff
    /// `dist(src→u) + 1 + dist(v→dst) = dist(src→dst)`.
    ///
    /// Returns an empty vector when `dst` is unreachable or `src == dst`.
    pub fn all_shortest_path_links(
        &self,
        topo: &Topology,
        src: NodeId,
        dst: NodeId,
    ) -> Vec<LinkId> {
        // One forward field from `src` and one destination field for
        // `dst` answer every per-link distance query below. (Probing
        // `distance(src, link.from)` per link would lazily materialize a
        // destination field for nearly every node — an accidental n².)
        let df = self.dist_from_field(src.0 as usize);
        let total = df[dst.0 as usize];
        if total == UNREACHABLE || total == 0 {
            return Vec::new();
        }
        let dt = self.dist_to_field(dst.0 as usize);
        let mut out = Vec::new();
        for l in 0..topo.num_links() {
            let id = LinkId(l as u32);
            if !topo.link_is_up(id) {
                continue;
            }
            let link = topo.link(id);
            let (to_u, from_v) = (df[link.from.0 as usize], dt.at(link.to));
            if to_u == UNREACHABLE || from_v == UNREACHABLE {
                continue;
            }
            if u32::from(to_u) + 1 + u32::from(from_v) == u32::from(total) {
                out.push(id);
            }
        }
        out
    }

    /// Number of nodes the table was computed for.
    pub fn num_nodes(&self) -> usize {
        self.num_nodes
    }
}

/// Reverse index from link to the reference-counted set of *members*
/// whose connections traverse it — applications for the central
/// controller, priority levels for the distributed shards.
///
/// This is where dirty-port tracking is derived from the routing layer:
/// charging a connection's path marks a link dirty exactly when a member
/// lands on it for the first time (count 0 → 1), and releasing marks it
/// dirty when the last reference leaves (1 → 0). Those are the only
/// transitions that change the link's membership set, and the membership
/// set — not the connection count — is what the Eq. 2 weight solve and
/// the PL-to-queue mapping depend on. Everything in between (a second
/// connection of an already-present member) provably cannot change the
/// port's configuration and never reaches the solver.
#[derive(Debug, Clone, Default)]
pub struct LinkMembers<K: Ord + Copy> {
    /// `rows[link]` = `(member, connections of member charged to link)`,
    /// ascending by member: a port carries a handful of members, so one
    /// sorted row is a binary search to update and a slice to read, and
    /// its order keeps derived cache keys and solve inputs stable.
    rows: Vec<Vec<(K, u32)>>,
}

impl<K: Ord + Copy> LinkMembers<K> {
    /// An empty index over `num_links` links.
    pub fn new(num_links: usize) -> Self {
        Self {
            rows: vec![Vec::new(); num_links],
        }
    }

    /// Charges one connection of `member` to `link`. Returns `true`
    /// when the link's membership *set* changed (the member was not
    /// present before) — i.e. the link is now dirty.
    pub fn add(&mut self, link: LinkId, member: K) -> bool {
        let row = &mut self.rows[link.0 as usize];
        let at = row.binary_search_by_key(&member, |e| e.0);
        match at {
            Ok(i) => row[i].1 += 1,
            Err(i) => row.insert(i, (member, 1)),
        }
        at.is_err()
    }

    /// Releases one connection of `member` from `link`. Returns `true`
    /// when the membership set changed (last reference gone — dirty).
    /// No-op (returning `false`) if the member was not charged.
    pub fn remove(&mut self, link: LinkId, member: K) -> bool {
        let row = &mut self.rows[link.0 as usize];
        let Ok(i) = row.binary_search_by_key(&member, |e| e.0) else {
            return false;
        };
        row[i].1 -= 1;
        let last = row[i].1 == 0;
        if last {
            row.remove(i);
        }
        last
    }

    /// The link's current members, in sorted order.
    pub fn members(&self, link: LinkId) -> impl Iterator<Item = K> + '_ {
        self.rows[link.0 as usize].iter().map(|e| e.0)
    }

    /// Number of distinct members on the link.
    pub fn num_members(&self, link: LinkId) -> usize {
        self.rows[link.0 as usize].len()
    }

    /// Reference count of `member` on `link` (0 when absent).
    pub fn count(&self, link: LinkId, member: K) -> u32 {
        let row = &self.rows[link.0 as usize];
        row.binary_search_by_key(&member, |e| e.0)
            .map_or(0, |i| row[i].1)
    }

    /// Whether the link carries no members.
    pub fn is_empty(&self, link: LinkId) -> bool {
        self.rows[link.0 as usize].is_empty()
    }

    /// All links with a non-empty membership set, in id order.
    pub fn occupied_links(&self) -> impl Iterator<Item = LinkId> + '_ {
        self.rows
            .iter()
            .enumerate()
            .filter(|(_, m)| !m.is_empty())
            .map(|(i, _)| LinkId(i as u32))
    }

    /// Number of links the index covers.
    pub fn num_links(&self) -> usize {
        self.rows.len()
    }
}

/// SplitMix64: a tiny, high-quality deterministic mixer for ECMP hashing.
fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E3779B97F4A7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::{NodeKind, SpineLeafConfig};

    #[test]
    fn single_switch_paths_have_two_hops() {
        let t = Topology::single_switch(4, 100.0);
        let r = Routes::compute(&t);
        let s = t.servers();
        let p = r.path(&t, s[0], s[3], 7).unwrap();
        assert_eq!(p.len(), 2);
        assert_eq!(t.link(p[0]).from, s[0]);
        assert_eq!(t.link(p[1]).to, s[3]);
    }

    #[test]
    fn path_to_self_is_empty() {
        let t = Topology::single_switch(2, 100.0);
        let r = Routes::compute(&t);
        assert_eq!(r.path(&t, t.servers()[0], t.servers()[0], 0), Some(vec![]));
    }

    #[test]
    fn unreachable_destination_is_none() {
        let mut t = Topology::new();
        let a = t.add_node(NodeKind::Server, "a");
        let b = t.add_node(NodeKind::Server, "b");
        let sw = t.add_node(NodeKind::Switch, "sw");
        // Only a -> sw; b is isolated.
        t.add_link(a, sw, 1.0);
        let r = Routes::compute(&t);
        assert_eq!(r.path(&t, a, b, 0), None);
        assert_eq!(r.distance(a, b), None);
    }

    #[test]
    fn spine_leaf_paths_are_valid_and_contiguous() {
        let t = Topology::spine_leaf(&SpineLeafConfig::tiny(2));
        let r = Routes::compute(&t);
        let servers = t.servers();
        for (i, &a) in servers.iter().enumerate() {
            for &b in &servers[i + 1..] {
                let p = r.path(&t, a, b, (i as u64) * 31 + 1).unwrap();
                assert!(!p.is_empty());
                // Contiguity: each link starts where the previous ended.
                assert_eq!(t.link(p[0]).from, a);
                for w in p.windows(2) {
                    assert_eq!(t.link(w[0]).to, t.link(w[1]).from);
                }
                assert_eq!(t.link(*p.last().unwrap()).to, b);
                // Max 6 hops: srv->tor->leaf->spine->leaf->tor->srv.
                assert!(p.len() <= 6, "path length {}", p.len());
            }
        }
    }

    #[test]
    fn path_into_a_used_buffer_is_path() {
        let t = Topology::spine_leaf(&SpineLeafConfig::tiny(2));
        let r = Routes::compute(&t);
        let s = t.servers();
        let mut buf = vec![LinkId(u32::MAX); 9];
        for (i, &a) in s.iter().enumerate() {
            for (j, &b) in s.iter().enumerate() {
                let tag = (i * 97 + j) as u64;
                assert!(r.path_into(&t, a, b, tag, &mut buf));
                assert_eq!(Some(&buf), r.path(&t, a, b, tag).as_ref());
            }
        }
        let mut t = Topology::new();
        let a = t.add_node(NodeKind::Server, "a");
        let b = t.add_node(NodeKind::Server, "b");
        let sw = t.add_node(NodeKind::Switch, "sw");
        t.add_link(a, sw, 1.0);
        let r = Routes::compute(&t);
        assert!(!r.path_into(&t, a, b, 0, &mut buf), "b is unreachable");
        assert!(buf.is_empty());
    }

    #[test]
    fn same_rack_paths_avoid_the_core() {
        let cfg = SpineLeafConfig::tiny(3);
        let t = Topology::spine_leaf(&cfg);
        let r = Routes::compute(&t);
        // Servers 0,1,2 share ToR 0 (creation order groups by ToR).
        let s = t.servers();
        let p = r.path(&t, s[0], s[1], 5).unwrap();
        assert_eq!(p.len(), 2, "same-rack should be srv->tor->srv");
    }

    #[test]
    fn ecmp_is_deterministic_per_tag() {
        let t = Topology::spine_leaf(&SpineLeafConfig::tiny(2));
        let r = Routes::compute(&t);
        let s = t.servers();
        // Pick a cross-pod pair (first and last server).
        let a = s[0];
        let b = s[s.len() - 1];
        let p1 = r.path(&t, a, b, 42).unwrap();
        let p2 = r.path(&t, a, b, 42).unwrap();
        assert_eq!(p1, p2);
    }

    #[test]
    fn ecmp_spreads_across_tags() {
        let t = Topology::spine_leaf(&SpineLeafConfig::paper());
        let r = Routes::compute(&t);
        let s = t.servers();
        let a = s[0];
        let b = s[s.len() - 1];
        let distinct: std::collections::HashSet<Vec<LinkId>> =
            (0..64).map(|tag| r.path(&t, a, b, tag).unwrap()).collect();
        assert!(
            distinct.len() > 1,
            "ECMP should use multiple equal-cost paths"
        );
    }

    #[test]
    fn multipath_links_superset_of_any_ecmp_path() {
        let t = Topology::spine_leaf(&SpineLeafConfig::tiny(2));
        let r = Routes::compute(&t);
        let s = t.servers();
        let (a, b) = (s[0], s[s.len() - 1]);
        let all = r.all_shortest_path_links(&t, a, b);
        for tag in 0..32 {
            let p = r.path(&t, a, b, tag).unwrap();
            for l in p {
                assert!(
                    all.contains(&l),
                    "ECMP path link {l} missing from multipath set"
                );
            }
        }
        // Cross-pod in a 2-spine fabric: both spines are reachable, so
        // the multipath set must exceed one single path (6 hops).
        assert!(all.len() > 6, "only {} links", all.len());
    }

    #[test]
    fn multipath_of_same_rack_pair_is_the_two_hop_path() {
        let t = Topology::spine_leaf(&SpineLeafConfig::tiny(3));
        let r = Routes::compute(&t);
        let s = t.servers();
        let all = r.all_shortest_path_links(&t, s[0], s[1]);
        assert_eq!(all.len(), 2);
    }

    #[test]
    fn link_members_dirty_only_on_set_transitions() {
        let mut lm: LinkMembers<u32> = LinkMembers::new(3);
        let l = LinkId(1);
        assert!(lm.add(l, 7), "first reference makes the link dirty");
        assert!(!lm.add(l, 7), "second reference of same member is clean");
        assert!(lm.add(l, 9), "a new member is dirty again");
        assert_eq!(lm.count(l, 7), 2);
        assert_eq!(lm.members(l).collect::<Vec<_>>(), vec![7, 9]);
        assert!(!lm.remove(l, 7), "refcount 2 -> 1 is clean");
        assert!(lm.remove(l, 7), "last reference out is dirty");
        assert!(!lm.remove(l, 7), "removing an absent member is a no-op");
        assert_eq!(lm.num_members(l), 1);
        assert!(lm.is_empty(LinkId(0)));
        assert_eq!(lm.occupied_links().collect::<Vec<_>>(), vec![l]);
        assert_eq!(lm.num_links(), 3);
    }

    #[test]
    fn multipath_to_self_is_empty() {
        let t = Topology::single_switch(2, 100.0);
        let r = Routes::compute(&t);
        assert!(r
            .all_shortest_path_links(&t, t.servers()[0], t.servers()[0])
            .is_empty());
    }

    #[test]
    fn recompute_after_link_failure_never_routes_through_it() {
        // Regression: after a link fails and routes re-converge, path()
        // must never return a route containing the failed link — for any
        // tag and any server pair.
        let mut t = Topology::spine_leaf(&SpineLeafConfig::tiny(2));
        let mut r = Routes::compute(&t);
        let s = t.servers().to_vec();
        // Fail one ToR→leaf uplink cable (both directions); ToRs have
        // two uplinks, so everything stays reachable.
        let tor0 = t.link(t.nic_link(s[0])).to;
        let uplink = *t
            .out_links(tor0)
            .iter()
            .find(|&&l| t.link(l).to != s[0] && t.link(l).to != s[1])
            .expect("tor has a leaf uplink");
        let reverse = t.reverse_of(uplink).expect("cables are bidirectional");
        t.set_link_up(uplink, false);
        t.set_link_up(reverse, false);
        r.recompute(&t);
        for (i, &a) in s.iter().enumerate() {
            for &b in &s[i + 1..] {
                for tag in 0..16u64 {
                    let p = r
                        .path(&t, a, b, tag)
                        .expect("redundant fabric stays connected");
                    assert!(
                        !p.contains(&uplink) && !p.contains(&reverse),
                        "path {a}->{b} tag {tag} crosses the failed link"
                    );
                }
            }
        }
        // Repair re-admits the link into the shortest-path set.
        t.set_link_up(uplink, true);
        t.set_link_up(reverse, true);
        r.recompute(&t);
        let far = *s.last().unwrap();
        let all = r.all_shortest_path_links(&t, s[0], far);
        assert!(
            all.contains(&uplink),
            "repaired uplink should rejoin the multipath set"
        );
    }

    #[test]
    fn switch_failure_disconnects_when_no_redundancy() {
        let mut t = Topology::single_switch(3, 100.0);
        let mut r = Routes::compute(&t);
        let s = t.servers().to_vec();
        t.set_node_up(crate::ids::NodeId(0), false);
        r.recompute(&t);
        assert_eq!(r.path(&t, s[0], s[1], 1), None);
        assert_eq!(r.distance(s[0], s[1]), None);
        // Repair restores full reachability.
        t.set_node_up(crate::ids::NodeId(0), true);
        r.recompute(&t);
        assert!(r.path(&t, s[0], s[1], 1).is_some());
    }

    #[test]
    fn multipath_set_excludes_down_links() {
        let mut t = Topology::spine_leaf(&SpineLeafConfig::tiny(2));
        let mut r = Routes::compute(&t);
        let s = t.servers().to_vec();
        let (a, b) = (s[0], s[s.len() - 1]);
        let before = r.all_shortest_path_links(&t, a, b);
        // Fail one spine: all its links drop out of the multipath set.
        let spine = crate::ids::NodeId(0);
        assert!(t.node(spine).name.starts_with("spine"));
        t.set_node_up(spine, false);
        r.recompute(&t);
        let after = r.all_shortest_path_links(&t, a, b);
        assert!(!after.is_empty(), "second spine keeps the pair connected");
        for &l in &after {
            let link = t.link(l);
            assert!(link.from != spine && link.to != spine);
        }
        assert!(before.len() > after.len());
    }

    #[test]
    fn consecutive_recomputes_identical_on_paper_fabric() {
        // Regression: `recompute` used to allocate a fresh reverse
        // adjacency on every call despite its doc promising reuse. The
        // scratch is now hoisted into `Routes`; two consecutive
        // recomputes on the full 1,944-server fabric must produce
        // identical tables (distances, ECMP paths, multipath sets).
        let t = Topology::spine_leaf(&SpineLeafConfig::paper());
        let mut r = Routes::compute(&t);
        let s = t.servers().to_vec();
        let pairs: Vec<_> = (0..24)
            .map(|i| (s[i * 71 % s.len()], s[(i * 137 + 5) % s.len()]))
            .collect();
        let snapshot = |r: &Routes| {
            pairs
                .iter()
                .map(|&(a, b)| {
                    (
                        r.distance(a, b),
                        r.path(&t, a, b, 9),
                        r.all_shortest_path_links(&t, a, b),
                    )
                })
                .collect::<Vec<_>>()
        };
        let before = snapshot(&r);
        r.recompute(&t);
        let after_one = snapshot(&r);
        r.recompute(&t);
        let after_two = snapshot(&r);
        assert_eq!(before, after_one);
        assert_eq!(after_one, after_two);
    }

    #[test]
    fn distance_fields_are_lazy_and_recycled() {
        let t = Topology::spine_leaf(&SpineLeafConfig::paper());
        let mut r = Routes::compute(&t);
        assert_eq!(r.cached_fields(), (0, 0), "nothing materialized up front");
        let s = t.servers();
        let (a, b) = (s[0], s[s.len() - 1]);
        r.path(&t, a, b, 3).unwrap();
        let (to, from) = r.cached_fields();
        assert_eq!((to, from), (1, 0), "one destination field for path()");
        r.all_shortest_path_links(&t, a, b);
        assert_eq!(r.cached_fields(), (1, 1), "multipath adds one source field");
        // The O(links) flat adjacencies dominate the two cached fields
        // here; even so the total sits an order of magnitude under a
        // dense all-pairs matrix of the same cells, `n² × 2` bytes.
        let dense = t.num_nodes() * t.num_nodes() * std::mem::size_of::<u16>();
        assert!(
            r.memory_bytes() < dense / 10,
            "lazy cache ({} B) should be far under the dense matrix ({dense} B)",
            r.memory_bytes()
        );
        // Recompute invalidates the cache; queries re-derive on demand.
        r.recompute(&t);
        assert_eq!(r.cached_fields(), (0, 0));
        assert!(r.path(&t, a, b, 3).is_some());
        assert_eq!(r.cached_fields(), (1, 0));
    }

    #[test]
    fn cloned_routes_answer_identically() {
        let t = Topology::spine_leaf(&SpineLeafConfig::tiny(2));
        let r = Routes::compute(&t);
        let s = t.servers();
        let (a, b) = (s[0], s[s.len() - 1]);
        r.path(&t, a, b, 1).unwrap(); // materialize a field pre-clone
        let c = r.clone();
        assert_eq!(r.distance(a, b), c.distance(a, b));
        assert_eq!(r.path(&t, a, b, 7), c.path(&t, a, b, 7));
        assert_eq!(
            r.all_shortest_path_links(&t, a, b),
            c.all_shortest_path_links(&t, a, b)
        );
    }

    #[test]
    fn next_hops_at_destination_are_empty() {
        let t = Topology::single_switch(2, 100.0);
        let r = Routes::compute(&t);
        let s = t.servers()[0];
        assert!(r.next_hops(&t, s, s).is_empty());
    }

    /// A one-way chain of `hops` links; returns its two ends.
    fn chain(hops: usize) -> (Topology, NodeId, NodeId) {
        let mut t = Topology::new();
        let first = t.add_node(NodeKind::Switch, "n0");
        let mut last = first;
        for i in 1..=hops {
            let next = t.add_node(NodeKind::Switch, format!("n{i}"));
            t.add_link(last, next, 1.0);
            last = next;
        }
        (t, first, last)
    }

    #[test]
    fn the_longest_representable_path_routes() {
        let (t, first, last) = chain(65_534);
        let r = Routes::compute(&t);
        assert_eq!(r.distance(first, last), Some(65_534));
        assert_eq!(r.path(&t, first, last, 3).unwrap().len(), 65_534);
        assert_eq!(r.distance(last, first), None);
    }

    #[test]
    #[should_panic(expected = "limited to 65,534 hops")]
    fn a_shortest_path_past_the_cell_width_is_refused() {
        let (t, first, last) = chain(65_535);
        let _ = Routes::compute(&t).distance(first, last);
    }
}
