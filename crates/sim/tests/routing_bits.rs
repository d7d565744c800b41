//! The paths path detection produces today, pinned at fabric scale.
//!
//! `Routes::path` is what the controller charges a connection to and
//! what the simulator routes a flow on, so every allocation downstream
//! rests on its exact answers. This file pins them over a fixed stream
//! of 20,000 `(src, dst, tag)` triples — any node to any node, switches
//! included — on the paper's 1,944-server fabric and on `tiny(3)`, in
//! three states: healthy; with a fixed set of links and one spine
//! downed while the tables still describe the healthy fabric (no
//! `recompute`, so stale distances meet live liveness tests); and the
//! same faults after the tables re-converged. Each state is pinned by
//! `(answers that found a path, FNV-1a)` over every answer — a `None`
//! as one marker byte, a path as its length and its link ids.
//!
//! The pins were recorded at `8102241`, before path detection moved
//! onto a flat forwarding table, and hold unchanged on both sides of
//! that change; on a mismatch the assertion prints the actual pins.

use saba_sim::ids::{LinkId, NodeId};
use saba_sim::routing::Routes;
use saba_sim::topology::{SpineLeafConfig, Topology};

const TRIPLES: usize = 20_000;

/// A fixed stream of draws (a 64-bit LCG; no crate).
struct Lcg(u64);

impl Lcg {
    fn next(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        self.0
    }
}

/// FNV-1a, folded in one byte at a time.
struct Fnv(u64);

impl Fnv {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

/// `(answers with a path, FNV-1a over every answer)` for the stream.
fn pin(topo: &Topology, routes: &Routes, seed: u64) -> (usize, u64) {
    let n = topo.num_nodes() as u64;
    let mut draw = Lcg(seed);
    let (mut found, mut fnv) = (0, Fnv(0xcbf2_9ce4_8422_2325));
    for _ in 0..TRIPLES {
        let src = NodeId(((draw.next() >> 33) % n) as u32);
        let dst = NodeId(((draw.next() >> 33) % n) as u32);
        match routes.path(topo, src, dst, draw.next()) {
            None => fnv.write(&[0xff]),
            Some(path) => {
                found += 1;
                fnv.write(&(path.len() as u32).to_le_bytes());
                for LinkId(l) in path {
                    fnv.write(&l.to_le_bytes());
                }
            }
        }
    }
    (found, fnv.0)
}

/// The pins of the three states: healthy, faulted with the tables still
/// healthy, faulted after `recompute`.
fn three_states(cfg: &SpineLeafConfig, link_stride: usize, seed: u64) -> [(usize, u64); 3] {
    let mut topo = Topology::spine_leaf(cfg);
    let mut routes = Routes::compute(&topo);
    let healthy = pin(&topo, &routes, seed);
    for l in (link_stride / 2..topo.num_links()).step_by(link_stride) {
        topo.set_link_up(LinkId(l as u32), false);
    }
    // Node 1 is the second spine (`spine_leaf` creates the spines first).
    assert!(topo.node(NodeId(1)).name.starts_with("spine"));
    topo.set_node_up(NodeId(1), false);
    let stale = pin(&topo, &routes, seed);
    routes.recompute(&topo);
    let reconverged = pin(&topo, &routes, seed);
    [healthy, stale, reconverged]
}

#[test]
fn paper_fabric_paths_are_pinned() {
    let got = three_states(&SpineLeafConfig::paper(), 97, 0x5aba_0001);
    let want = [
        (20_000, 0xffa0_cf48_100c_e762),
        (19_452, 0x3264_2dcb_b7ac_633e),
        (19_641, 0xc0fe_4f7f_84a5_df98),
    ];
    assert_eq!(got, want, "paper-fabric paths moved: {got:#x?}");
}

#[test]
fn tiny_fabric_paths_are_pinned() {
    let got = three_states(&SpineLeafConfig::tiny(3), 7, 0x5aba_0002);
    let want = [
        (20_000, 0xb28c_4de6_263b_2f61),
        (13_566, 0x513d_c5b3_c5dc_e5c6),
        (15_963, 0x8ef2_0934_407f_8eaa),
    ];
    assert_eq!(got, want, "tiny-fabric paths moved: {got:#x?}");
}
