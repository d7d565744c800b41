//! Fill problems shared by `tests/fill_bits.rs`, which pins the bits
//! the allocator gives them, and the allocator's own unit tests, which
//! run the refill rule on them with the pass count the allocator keeps
//! private. Each includes this file as a module beside its own imports
//! of `LinkId` and `SharingFlow`.

use super::{LinkId, SharingFlow};

/// The unit tests' LCG: deterministic draws without a crate.
pub struct Lcg(pub u64);

impl Lcg {
    pub fn next(&mut self) -> usize {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (self.0 >> 33) as usize
    }

    /// A draw in `[lo, hi)` on a 1/1024 grid.
    pub fn real(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * (self.next() % 1024) as f64 / 1024.0
    }

    /// A duplicate-free path of up to `max_len` of the first `links` links.
    pub fn path(&mut self, links: usize, max_len: usize) -> Vec<LinkId> {
        let len = 1 + self.next() % max_len;
        let mut path = Vec::new();
        for _ in 0..len {
            let l = LinkId((self.next() % links) as u32);
            if !path.contains(&l) {
                path.push(l);
            }
        }
        path
    }
}

pub fn flow(path: Vec<LinkId>, weights: Vec<f64>, priority: u8, rate_cap: f64) -> SharingFlow {
    SharingFlow {
        path,
        weights,
        priority,
        rate_cap,
    }
}

/// A cap-bound mix on a chain of links of falling capacity: each refill
/// pass frees share for the next, so the third pass still adds rate
/// (the allocator's unit tests hold it against two passes).
pub fn cap_bound_three_refills() -> (Vec<f64>, Vec<SharingFlow>) {
    let mut rng = Lcg(0x5abc_3006);
    let caps = (0..10).map(|i| 1000.0 / (1.0 + i as f64)).collect();
    let flows = (0..40)
        .map(|k| {
            let first = rng.next() % 8;
            let len = 1 + rng.next() % 5;
            let path: Vec<LinkId> = (first..(first + len).min(10))
                .map(|l| LinkId(l as u32))
                .collect();
            let weights = path.iter().map(|_| rng.real(0.25, 4.0)).collect();
            let cap = if k % 2 == 0 {
                rng.real(2.0, 80.0)
            } else {
                f64::INFINITY
            };
            flow(path, weights, 0, cap)
        })
        .collect();
    (caps, flows)
}

/// The `sim_corun` shape: 256 distinct 4-hop flows (server up, ToR up,
/// ToR down, server down) on a 1,100-link fabric of 56 Gb/s links — a
/// third of which carry nothing — in one class with no caps, and
/// WFQ-flattened weights that make every flow its own bundle.
pub fn spine_leaf_shape() -> (Vec<f64>, Vec<SharingFlow>) {
    const SERVERS: usize = 288;
    const TORS: usize = 16;
    const UPLINKS: usize = 6;
    let mut rng = Lcg(0x5aba_0007);
    let caps = vec![7.0e9; 1100];
    let flows = (0..256)
        .map(|_| {
            let src = rng.next() % SERVERS;
            let dst = (src + 1 + rng.next() % (SERVERS - 1)) % SERVERS;
            let (src_tor, dst_tor) = (src / (SERVERS / TORS), dst / (SERVERS / TORS));
            let up = 2 * SERVERS + src_tor * UPLINKS + rng.next() % UPLINKS;
            let down = 2 * SERVERS + (TORS + dst_tor) * UPLINKS + rng.next() % UPLINKS;
            let path = [src, up, down, SERVERS + dst]
                .map(|l| LinkId(l as u32))
                .to_vec();
            let weights = (0..4)
                .map(|_| rng.real(0.05, 1.0) / (1 + rng.next() % 6) as f64)
                .collect();
            flow(path, weights, 0, f64::INFINITY)
        })
        .collect();
    (caps, flows)
}
