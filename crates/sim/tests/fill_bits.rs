//! What the progressive-filling kernel promises, and the bits it
//! produces today.
//!
//! Progressive filling is order dependent (DESIGN.md §5.1): which link
//! drains first, and which bundle on it freezes first, decides the last
//! bits of every rate, and completion times, goldens and the ledger's
//! `composition == run_datacenter` check all rest on those bits being
//! the same on every run. Until PR 20 the kernel was held to the bits of
//! the PR 16 kernel (`3432349`); since PR 20 a fill pass takes in only
//! the bundles that can still gain, which sums the weights of the
//! survivors instead of subtracting the departed and no longer re-deals
//! the last 1e-9 of a link, and the contract is a stated one:
//!
//! (a) the conformance oracles (feasibility, work conservation,
//!     allocator vs reference within 1e-6, bundled and unbundled) —
//!     `conformance --smoke` / `--long`, not this file;
//! (b) the bit pins below, **recorded at PR 20 from a release build**:
//!     they pin that debug and release builds, `Uniform` and `PerLink`
//!     views and a reused scratch all produce one answer — a kernel change that moves them re-records them on
//!     purpose, in one reviewed step;
//! (c) every rate of the problems pinned rate by rate stays within 1e-9
//!     (relative) of the PR 16 kernel's, whose vectors stay in `pr16`;
//! (d) `sim.saba_speedup` of the ledger's `sim_corun` does not move.
//!
//! The refill rule itself is tested from its definition in the
//! allocator's unit tests (`sharing::tests`), which keep the pass count
//! the allocator keeps private; the problems both run on are shared in
//! `fill_problems`.
//! Rate vectors longer than 64 are pinned by their length and an FNV-1a
//! over every rate's bits.

mod fill_problems;

use fill_problems::{cap_bound_three_refills, flow, spine_leaf_shape, Lcg};
use saba_sim::ids::LinkId;
use saba_sim::sharing::{
    compute_rates, compute_rates_into, ByIndex, FlowSource, FlowView, FlowWeights, SharingFlow,
    SharingScratch,
};

/// Sixty flows in three strict-priority classes over 12 links, a third
/// of them capped, per-hop weights all different.
fn three_classes_with_caps() -> (Vec<f64>, Vec<SharingFlow>) {
    let mut rng = Lcg(0x5aba_0001);
    let caps = (0..12).map(|i| 400.0 + 35.0 * i as f64).collect();
    let flows = (0..60)
        .map(|_| {
            let path = rng.path(12, 4);
            let weights = path.iter().map(|_| rng.real(0.25, 4.0)).collect();
            let priority = (rng.next() % 3) as u8;
            let cap = if matches!(rng.next() % 3, 0) {
                rng.real(5.0, 120.0)
            } else {
                f64::INFINITY
            };
            flow(path, weights, priority, cap)
        })
        .collect();
    (caps, flows)
}

/// Links 2 and 5 are throttled to zero: every flow crossing one starves
/// and the others pick up what it leaves elsewhere.
fn zero_capacity_link() -> (Vec<f64>, Vec<SharingFlow>) {
    let mut rng = Lcg(0x5aba_0002);
    let mut caps: Vec<f64> = (0..8).map(|i| 90.0 + 7.0 * i as f64).collect();
    caps[2] = 0.0;
    caps[5] = 0.0;
    let flows = (0..24)
        .map(|_| {
            let path = rng.path(8, 3);
            let weights = path.iter().map(|_| rng.real(0.5, 3.0)).collect();
            flow(path, weights, 0, f64::INFINITY)
        })
        .collect();
    (caps, flows)
}

/// Same-host transfers (empty paths), capped and uncapped, in two
/// classes, beside flows that do cross the fabric.
fn empty_paths() -> (Vec<f64>, Vec<SharingFlow>) {
    let mut rng = Lcg(0x5aba_0003);
    let caps = vec![100.0, 60.0, 250.0];
    let mut flows = Vec::new();
    for k in 0..16 {
        let priority = (k % 2) as u8;
        flows.push(match k % 4 {
            0 => flow(vec![], vec![], priority, f64::INFINITY),
            1 => flow(vec![], vec![], priority, 12.5 + k as f64),
            _ => {
                let path = rng.path(3, 3);
                let weights = path.iter().map(|_| rng.real(0.25, 2.0)).collect();
                flow(path, weights, priority, rng.real(20.0, 90.0))
            }
        });
    }
    (caps, flows)
}

/// 8-way duplicates of 20 distinct flows, interleaved: real bundles,
/// some of them capped, in two classes.
fn eightfold_duplicates() -> (Vec<f64>, Vec<SharingFlow>) {
    let mut rng = Lcg(0x5aba_0004);
    let caps = (0..10).map(|i| 1000.0 + 90.0 * i as f64).collect();
    let distinct: Vec<SharingFlow> = (0..20)
        .map(|k| {
            let path = rng.path(10, 3);
            let weights = path.iter().map(|_| rng.real(0.5, 2.5)).collect();
            let cap = if k % 4 == 0 {
                rng.real(10.0, 60.0)
            } else {
                f64::INFINITY
            };
            flow(path, weights, (k % 2) as u8, cap)
        })
        .collect();
    let flows = (0..160).map(|i| distinct[i % 20].clone()).collect();
    (caps, flows)
}

/// Flows with one weight on every hop, to be offered once as `PerLink`
/// slices and once as `Uniform` views.
fn same_weight_per_hop() -> (Vec<f64>, Vec<SharingFlow>) {
    let mut rng = Lcg(0x5aba_0005);
    let caps = (0..9).map(|i| 300.0 + 11.0 * i as f64).collect();
    let flows = (0..30)
        .map(|k| {
            let path = rng.path(9, 4);
            let w = rng.real(0.25, 3.0);
            // Class 0 is capped so that class 1 has leftovers to share.
            let (priority, cap) = if k % 2 == 0 {
                (0, rng.real(10.0, 70.0))
            } else {
                (1, f64::INFINITY)
            };
            flow(path.clone(), vec![w; path.len()], priority, cap)
        })
        .collect();
    (caps, flows)
}

/// 200 strict-priority classes (the coflow fabric's shape) of 5 flows
/// each on 5,000 links: a class touches a handful of links, never the
/// fabric.
fn two_hundred_classes() -> (Vec<f64>, Vec<SharingFlow>) {
    let mut rng = Lcg(0x5aba_0008);
    let caps = (0..5000).map(|i| 500.0 + (i % 17) as f64).collect();
    let flows = (0..1000)
        .map(|k| {
            // Paths cluster on 40 links so classes do contend.
            let path: Vec<LinkId> = rng
                .path(40, 3)
                .into_iter()
                .map(|l| LinkId(l.0 * 125))
                .collect();
            let weights = path.iter().map(|_| rng.real(0.5, 2.0)).collect();
            let cap = if k % 7 == 0 { 9.0 } else { f64::INFINITY };
            flow(path, weights, (k % 200) as u8, cap)
        })
        .collect();
    (caps, flows)
}

fn fnv1a(rates: &[f64]) -> u64 {
    rates
        .iter()
        .flat_map(|r| r.to_bits().to_le_bytes())
        .fold(0xcbf2_9ce4_8422_2325, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
        })
}

/// What a problem is pinned to: every rate's bits, or — for the long
/// vectors — their count and an FNV-1a over all of them.
#[derive(Debug, PartialEq)]
enum Pin {
    Bits(Vec<u64>),
    Fnv(usize, u64),
}

fn pin(rates: &[f64]) -> Pin {
    if rates.len() <= 64 {
        Pin::Bits(rates.iter().map(|r| r.to_bits()).collect())
    } else {
        Pin::Fnv(rates.len(), fnv1a(rates))
    }
}

/// The pin of `flows` rated on a fresh scratch: bundled, or the
/// unbundled reference.
fn solve(caps: &[f64], flows: &[SharingFlow], bundled: bool) -> Pin {
    if bundled {
        return pin(&compute_rates(caps, flows));
    }
    let mut rates = Vec::new();
    let mut unbundled = SharingScratch::unbundled();
    compute_rates_into(caps, &ByIndex(flows), &mut unbundled, &mut rates);
    pin(&rates)
}

/// Every pinned problem, by name.
fn solved() -> Vec<(&'static str, Pin)> {
    let mut all = Vec::new();
    let mut add = |name, (caps, flows): (Vec<f64>, Vec<SharingFlow>), bundled| {
        all.push((name, solve(&caps, &flows, bundled)));
    };
    add("three_classes_with_caps", three_classes_with_caps(), true);
    add("zero_capacity_link", zero_capacity_link(), true);
    add("empty_paths", empty_paths(), true);
    add("eightfold_duplicates", eightfold_duplicates(), true);
    add("eightfold_unbundled", eightfold_duplicates(), false);
    add("same_weight_per_hop", same_weight_per_hop(), true);
    add("cap_bound_three_refills", cap_bound_three_refills(), true);
    add("spine_leaf_shape", spine_leaf_shape(), true);
    add("two_hundred_classes", two_hundred_classes(), true);
    all
}

/// The rates of the PR 16 kernel (recorded at `3432349`) on the problems
/// pinned rate by rate: what contract (c) is measured against.
#[rustfmt::skip]
fn pr16(name: &str) -> Vec<u64> {
    match name {
        "three_classes_with_caps" => vec![
            0x4042266771c691f5, 0x0000000000000000, 0x0000000000000000, 0x0000000000000000,
            0x0000000000000000, 0x0000000000000000, 0x4029b90000000000, 0x40363d26b6d5bce4,
            0x0000000000000000, 0x4071a0e002a1eb84, 0x0000000000000000, 0x405907d000000000,
            0x0000000000000000, 0x0000000000000000, 0x0000000000000000, 0x4059a5f000000000,
            0x0000000000000000, 0x0000000000000000, 0x0000000000000000, 0x4054bc2000000000,
            0x0000000000000000, 0x403fe9882356eaf2, 0x0000000000000000, 0x4050621000000000,
            0x0000000000000000, 0x4067bb4de0906b26, 0x0000000000000000, 0x4056400c4aa3ea17,
            0x4057c71d3c5dc145, 0x0000000000000000, 0x4049a28000000000, 0x0000000000000000,
            0x4076e1a082356eaf, 0x0000000000000000, 0x0000000000000000, 0x4070bf00ed57057a,
            0x0000000000000000, 0x4075ce5f7dca9151, 0x4049212000000000, 0x406532e2c06867de,
            0x4056b131e23dec3a, 0x0000000000000000, 0x0000000000000000, 0x40752e0f7dca9151,
            0x4031d917fd4a74ec, 0x0000000000000000, 0x0000000000000000, 0x404b184000000000,
            0x0000000000000000, 0x0000000000000000, 0x404fe0bfeaf0a3e4, 0x0000000000000000,
            0x0000000000000000, 0x0000000000000000, 0x0000000000000000, 0x0000000000000000,
            0x4068fc966ae849be, 0x40507985b4bfe586, 0x0000000000000000, 0x40561f3922ed24c5,
        ],
        "zero_capacity_link" => vec![
            0x4035a31cae844b84, 0x0000000000000000, 0x402a12deb33c2c66, 0x0000000000000000,
            0x4020931a85e6874e, 0x402a8228dce987be, 0x0000000000000000, 0x0000000000000000,
            0x4058dbbb7c777246, 0x404864d8d5ec7d98, 0x40338d45eed1f1bb, 0x0000000000000000,
            0x4053c423fcba7aaf, 0x403cc4d7485c03b1, 0x402a61bceed30416, 0x0000000000000000,
            0x0000000000000000, 0x402d4efc24ec0524, 0x40234bc59445a33a, 0x0000000000000000,
            0x40385bd667858ccc, 0x0000000000000000, 0x401b4bb69f9b0c80, 0x4056142b770fc60c,
        ],
        "empty_paths" => vec![
            0x7ff0000000000000, 0x402b000000000000, 0x4041b98000000000, 0x4043ba954f5a01b0,
            0x7ff0000000000000, 0x4031800000000000, 0x403917d5614bfca2, 0x0000000000000000,
            0x7ff0000000000000, 0x4035800000000000, 0x4040414000000000, 0x0000000000000000,
            0x7ff0000000000000, 0x4039800000000000, 0x404174154f5a01af, 0x0000000000000000,
        ],
        "same_weight_per_hop" => vec![
            0x40480b0000000000, 0x4055bdb89f595632, 0x405093c000000000, 0x400a7386725ad897,
            0x4044e10000000000, 0x404a575fb466e43a, 0x4045608000000000, 0x4043361899455614,
            0x4033d80000000000, 0x4032a82297b1714d, 0x404c430000000000, 0x40415ce6bf9a6055,
            0x4046760000000000, 0x404f74885fa63f48, 0x40508c4000000000, 0x4016e91133b1aa41,
            0x4036210000000000, 0x40132eb050e9fea2, 0x404e410000000000, 0x40213bc63af44a89,
            0x40514f4000000000, 0x40398acb208ff297, 0x4030270000000000, 0x40319cee33ded4c6,
            0x4027de0000000000, 0x406082238c44e7cd, 0x4031e90000000000, 0x40592543d929e2da,
            0x404ce80000000000, 0x406edc2812e646f3,
        ],
        "cap_bound_three_refills" => vec![
            0x401c340729a3bf0d, 0x40171f99fbbcf147, 0x402b033a4d9ff4ee, 0x401ba84f90e8aeaa,
            0x40457d8000000000, 0x401ca67af12c7e7d, 0x402cfc0000000000, 0x402fcc6436132461,
            0x400b46c424bae962, 0x401a29316d939137, 0x401eda0000000000, 0x40309b7985e95260,
            0x402c4c8b7727a602, 0x401a15788ad11cd4, 0x402da12edc307e22, 0x40201d577fce4d31,
            0x40030c0000000000, 0x4049473d495fe01e, 0x4034ec8d299d3c3d, 0x40496d4b27d2e920,
            0x40292d0000000000, 0x408caa09f1d69213, 0x4021680000000000, 0x400265aa15655b26,
            0x403d6fec39eed040, 0x4012f8d17d810c93, 0x4037ab487842ac30, 0x4023a1705465372d,
            0x400a5c0000000000, 0x400cdebafccbce20, 0x401604a769a7dfed, 0x40217c95c4b8c8d6,
            0x4026f01082eeed42, 0x402a7239f9771c96, 0x400d184413e2a0ca, 0x4020bf280edf5876,
            0x40500b0f712d717d, 0x40072dd33d8cb401, 0x4018eea8ecdc3f70, 0x4033f89e15566bc4,
        ],
        _ => panic!("{name} is not pinned rate by rate"),
    }
}

/// Recorded at PR 20 from a release build; a debug build and both weight
/// views reproduce them. Six of the nine are the PR 16 kernel's bits
/// still; `zero_capacity_link` (one rate, by one ulp),
/// `spine_leaf_shape` and `two_hundred_classes` moved.
#[rustfmt::skip]
fn expected() -> Vec<(&'static str, Pin)> {
    let unmoved = |name| (name, Pin::Bits(pr16(name)));
    vec![
        unmoved("three_classes_with_caps"),
        ("zero_capacity_link", Pin::Bits(vec![
            0x4035a31cae844b84, 0x0000000000000000, 0x402a12deb33c2c66, 0x0000000000000000,
            0x4020931a85e6874e, 0x402a8228dce987be, 0x0000000000000000, 0x0000000000000000,
            0x4058dbbb7c777245, 0x404864d8d5ec7d98, 0x40338d45eed1f1bb, 0x0000000000000000,
            0x4053c423fcba7aaf, 0x403cc4d7485c03b1, 0x402a61bceed30416, 0x0000000000000000,
            0x0000000000000000, 0x402d4efc24ec0524, 0x40234bc59445a33a, 0x0000000000000000,
            0x40385bd667858ccc, 0x0000000000000000, 0x401b4bb69f9b0c80, 0x4056142b770fc60c,
        ])),
        unmoved("empty_paths"),
        ("eightfold_duplicates", Pin::Fnv(160, 0xd66db96040db2e95)),
        ("eightfold_unbundled", Pin::Fnv(160, 0xdc94fc5d671d32aa)),
        unmoved("same_weight_per_hop"),
        unmoved("cap_bound_three_refills"),
        ("spine_leaf_shape", Pin::Fnv(256, 0x9ea7a23b72e5bfe8)),
        ("two_hundred_classes", Pin::Fnv(1000, 0x32973fa85d2ccd40)),
    ]
}

/// Contract (b). On a mismatch every moved problem is printed with its
/// actual pin, so a re-recording is one run.
#[test]
fn kernel_reproduces_the_bits_recorded_at_pr20() {
    let expected = expected();
    let solved = solved();
    assert_eq!(solved.len(), expected.len());
    let mut moved = Vec::new();
    for ((name, got), (pinned, want)) in solved.iter().zip(&expected) {
        assert_eq!(name, pinned);
        if got != want {
            println!("{name}: {got:#x?}");
            moved.push(*name);
        }
    }
    assert!(moved.is_empty(), "moved (actual pins above): {moved:?}");
}

/// Contract (c): where a rate left the PR 16 kernel's bits it stayed
/// within 1e-9 of them (run with `--nocapture` for the largest
/// difference).
#[test]
fn pruned_refill_stays_within_1e_9_of_the_pr16_kernel() {
    let mut largest: f64 = 0.0;
    for (name, got) in solved() {
        let Pin::Bits(got) = got else { continue };
        let want = pr16(name);
        assert_eq!(got.len(), want.len(), "{name}");
        for (i, (&g, &w)) in got.iter().zip(&want).enumerate() {
            if g == w {
                continue;
            }
            let (g, w) = (f64::from_bits(g), f64::from_bits(w));
            let relative = (g - w).abs() / g.abs().max(w.abs());
            assert!(relative <= 1e-9, "{name} flow {i}: {g} vs {w}");
            largest = largest.max(relative);
        }
    }
    println!("largest relative difference from the PR 16 kernel: {largest:e}");
}

/// Views named by their index, for a fresh scratch.
struct Views<'a>(&'a [FlowView<'a>]);

impl FlowSource for Views<'_> {
    fn flow_count(&self) -> usize {
        self.0.len()
    }

    fn flow_view(&self, i: usize) -> FlowView<'_> {
        self.0[i]
    }

    fn key_id(&self, i: usize) -> u64 {
        i as u64
    }
}

/// `Uniform(w)` and `PerLink(&[w; n])` views of the same flows are the
/// same problem, down to the bits pinned above.
#[test]
fn uniform_and_per_link_views_agree_bit_for_bit() {
    let (caps, flows) = same_weight_per_hop();
    let views: Vec<FlowView<'_>> = flows
        .iter()
        .map(|f| FlowView {
            path: &f.path,
            weights: FlowWeights::Uniform(f.weights[0]),
            priority: f.priority,
            rate_cap: f.rate_cap,
        })
        .collect();
    let mut rates = Vec::new();
    compute_rates_into(
        &caps,
        &Views(&views),
        &mut SharingScratch::default(),
        &mut rates,
    );
    let (_, want) = expected()
        .into_iter()
        .find(|(name, _)| *name == "same_weight_per_hop")
        .expect("pinned");
    assert_eq!(pin(&rates), want);
}
