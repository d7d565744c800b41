//! Weighted max-min rate allocation with strict-priority classes.
//!
//! This is the fluid model of the fabric's packet scheduling:
//!
//! - **WFQ queue weights** (§5.2) are flattened by the caller into a
//!   per-flow, per-link weight `φ_f(l) = W_q / n_q(l)` (queue weight over
//!   the queue's flow population on the link). With every competing flow
//!   bottlenecked at the same port this flattening is *exact*; when some
//!   flows bottleneck elsewhere, the work-conserving refill passes
//!   redistribute the freed share, approximating WFQ's excess
//!   redistribution.
//! - **Strict priorities** (Homa's and Sincronia's enforcement) run the
//!   filling per priority class over the remaining capacities, highest
//!   class first.
//! - **Per-flow rate caps** model congestion-control or token-bucket
//!   throttling below the fair share.
//!
//! The core is weighted progressive filling: repeatedly pick the link
//! with the lowest *fill level* (`residual capacity / Σ weights`) and
//! freeze every still-unassigned flow crossing it at the minimum of its
//! weighted share across its whole path. Frozen rates never oversubscribe
//! any link. A flow frozen below its share (by its cap, or by a link
//! elsewhere on its path) leaves capacity behind on the links it did not
//! fill; refill passes hand that back, in weight proportion, to the
//! flows that can still gain — those below their cap with no saturated
//! link on their path — so the allocation is work-conserving up to a
//! configurable tolerance. A flow behind a saturated link is decided:
//! its bottleneck's fair share already is its rate.
//!
//! # The kernel
//!
//! A fill pass runs on flat arrays that `flatten_class` prepares once per
//! priority class and the class's up to `1 + refill_passes` passes
//! share: every bundle's hops as contiguous `(link, weight · mult)`
//! pairs, its `rate_cap · mult` product, per link the bundles crossing
//! it (CSR layout, ascending bundle index — the order they freeze in
//! when the link drains), the list of links the class crosses at all,
//! and the class's **live list**: the bundles that can still gain rate.
//! A pass resets, sums and drains only those links, so a class costs
//! what its own bundles cross, never the size of the fabric.
//!
//! Every pass starts by pruning the live list. A bundle leaves it, for
//! good, when it has no path (a same-host transfer: it takes its cap),
//! has reached its cap, or crosses a *saturated* link — one with no more
//! than `1e-9` of the capacity the call was given for it left, which a
//! zero-capacity link is from the start. Leaving is permanent because
//! within a class residuals only fall and rates only rise. Only live
//! bundles add their weights to the links' sums and can be frozen; the
//! refill stops when a pass adds less than the tolerance, when the
//! passes run out, or when nothing is live. In exact arithmetic pruning
//! changes nothing — the saturated links would drain first, at level
//! zero, and freeze exactly these bundles at a share of zero, taking
//! their weights off every other link before any link with capacity
//! drains — but it skips that work, which on all-to-all traffic is most
//! of the refill: after the base pass nearly every bundle is behind a
//! link that pass filled. The floor is relative to the link because
//! what a saturating subtraction leaves behind is: a few hundred ulps of
//! the capacity (≈ 1e-13 of it), which lands on `0.0` or on `1e-7` B/s
//! of a 7 GB/s link by accident of rounding. `1e-9` sits four orders
//! above that residue and three below the default `refill_epsilon`.
//!
//! The pass holds **one live entry per link** in an indexed 4-ary
//! min-heap keyed `(fill level, hops frozen on the link so far, link
//! id)`, with each link knowing its entry's position. A freeze re-keys
//! the links on the bundle's path in place (sifting either way; rounding
//! can lower a level by an ulp) and drops a link whose weight sum has
//! run out; the link being drained leaves the heap for good, since after
//! its list every bundle crossing it is frozen. The fill level is the
//! one number per link that weighted max-min needs.
//!
//! Progressive filling is order dependent: which link drains next, and
//! which bundle on it freezes first, decide the last bits of every rate
//! (and so of every completion time). Keys are distinct and totally
//! ordered, so the sequence in which links drain is a function of the
//! live keys alone, not of how a heap stores them: the same problem
//! gives the same bits in every build profile, at every thread count,
//! from a fresh or a reused scratch. That — not the bits of an earlier
//! kernel — is what `tests/fill_bits.rs` pins, beside the conformance
//! suite's feasibility, work-conservation and 1e-6 reference oracles;
//! DESIGN.md §5.1 states the whole contract.
//!
//! # The epoch fast path
//!
//! The allocator runs at every allocation epoch — each flow arrival,
//! completion, or queue reprogramming — so the entry point used by the
//! engine is allocation-free in steady state:
//!
//! - [`compute_rates_into`] writes into a caller-owned rates buffer and
//!   keeps all working state in a reusable [`SharingScratch`];
//! - flows are consumed through the borrowed, zero-copy [`FlowView`]
//!   (via the [`FlowSource`] trait), so callers never clone paths;
//! - flows with identical (path, per-link weights, priority, rate cap)
//!   are aggregated into *bundles* carrying a multiplicity before
//!   filling, and the bundle's rate is divided back over its members
//!   afterwards. With `m` members per bundle this turns an epoch from
//!   `O(flows·pathlen)` into `O(bundles·pathlen)` heap work — the §5.1
//!   scalability device for the 1,944-server runs, where all-to-all
//!   shuffles produce many identical (path, SL, app) flows. Bundling is
//!   exact: identical flows receive identical rates under progressive
//!   filling, and an aggregate of weight `m·w` and cap `m·c` freezes at
//!   exactly `m` times the member share at every fill level.
//!
//! [`compute_rates`] remains as a thin convenience wrapper that
//! allocates fresh buffers on every call.

use crate::ids::LinkId;
use std::cmp::Ordering;
use std::ops::Range;

/// The allocator's absolute weight resolution: the smallest per-hop
/// weight [`compute_rates_into`] accepts.
///
/// The kernel treats a link whose remaining weight sum has fallen to
/// `1e-12` or below as drained (that much is floating-point residue of
/// the weights already subtracted), so a weight near that threshold
/// would be dropped while its flow still waits for a rate. Three orders
/// of magnitude of headroom keep every accepted weight visible; every
/// caller in this workspace stays above `1e-7` (flattened WFQ weights
/// are at least `min_weight · 0.9 / n_q`). The floor is absolute, not
/// relative: weights on one link that are some 18 orders of magnitude
/// apart still round the small one out of the link's sum. That costs
/// the small flow its share, never feasibility: a bundle reads every
/// fill level over a sum that holds at least its own weight, so it is
/// handed no more than the link has left (nothing, once the large flow
/// has taken it) — not the unbounded `0/0` level it used to read.
pub const MIN_WEIGHT: f64 = 1e-9;

/// A link with no more than this fraction of its capacity left is
/// saturated: the bundles crossing it are decided and take no part in a
/// later fill pass. Relative to the link, because the residue a
/// saturating subtraction leaves is (≈ 1e-13 of the capacity); three
/// orders below the default `refill_epsilon`, so it gives up nothing a
/// refill pass would have been run for.
const SATURATED: f64 = 1e-9;

/// A flow as seen by the rate allocator.
#[derive(Debug, Clone)]
pub struct SharingFlow {
    /// Links traversed, in order. An empty path (same-host transfer)
    /// gets `rate_cap` (or effectively unbounded throughput).
    pub path: Vec<LinkId>,
    /// Allocation weight at each link of `path` (same length). Weights
    /// must be finite and at least [`MIN_WEIGHT`].
    pub weights: Vec<f64>,
    /// Strict-priority class; `0` is served first. Flows of class `p`
    /// only see capacity left over by classes `< p`.
    pub priority: u8,
    /// Upper bound on this flow's rate (bytes/s); use `f64::INFINITY`
    /// for no cap.
    pub rate_cap: f64,
}

impl SharingFlow {
    /// A best-effort flow with unit weights on every hop of `path`.
    pub fn best_effort(path: Vec<LinkId>) -> Self {
        let weights = vec![1.0; path.len()];
        Self {
            path,
            weights,
            priority: 0,
            rate_cap: f64::INFINITY,
        }
    }
}

/// Per-hop allocation weights of a [`FlowView`].
///
/// Most fabric models use the same weight at every hop (best-effort
/// flows, priority-only policies); `Uniform` lets them avoid
/// materializing a weights vector per flow.
#[derive(Debug, Clone, Copy)]
pub enum FlowWeights<'a> {
    /// The same weight at every hop of the path.
    Uniform(f64),
    /// One weight per hop (same length as the path).
    PerLink(&'a [f64]),
}

impl FlowWeights<'_> {
    /// The weight at hop `hop` of the path.
    #[inline]
    pub fn at(&self, hop: usize) -> f64 {
        match self {
            FlowWeights::Uniform(w) => *w,
            FlowWeights::PerLink(ws) => ws[hop],
        }
    }
}

/// A borrowed, zero-copy view of one flow, as consumed by
/// [`compute_rates_into`]. Fabric models construct views directly over
/// their flow storage instead of cloning paths into [`SharingFlow`]s.
#[derive(Debug, Clone, Copy)]
pub struct FlowView<'a> {
    /// Links traversed, in order (borrowed from the owner).
    pub path: &'a [LinkId],
    /// Per-hop allocation weights.
    pub weights: FlowWeights<'a>,
    /// Strict-priority class; `0` is served first.
    pub priority: u8,
    /// Upper bound on the flow's rate (`f64::INFINITY` for none).
    pub rate_cap: f64,
}

/// A source of [`FlowView`]s: anything the allocator can iterate flows
/// from without copying. Implemented for `[SharingFlow]`, `[FlowView]`,
/// and the engine's active-flow adapters.
pub trait FlowSource {
    /// Number of flows.
    fn flow_count(&self) -> usize;
    /// A borrowed view of flow `i` (`i < flow_count()`).
    fn flow_view(&self, i: usize) -> FlowView<'_>;
}

impl FlowSource for [SharingFlow] {
    fn flow_count(&self) -> usize {
        self.len()
    }

    fn flow_view(&self, i: usize) -> FlowView<'_> {
        let f = &self[i];
        FlowView {
            path: &f.path,
            weights: FlowWeights::PerLink(&f.weights),
            priority: f.priority,
            rate_cap: f.rate_cap,
        }
    }
}

impl FlowSource for [FlowView<'_>] {
    fn flow_count(&self) -> usize {
        self.len()
    }

    fn flow_view(&self, i: usize) -> FlowView<'_> {
        self[i]
    }
}

/// Tuning knobs for [`compute_rates`] / [`compute_rates_into`].
#[derive(Debug, Clone)]
pub struct SharingConfig {
    /// Upper bound on the work-conservation refill passes after the base
    /// filling of a priority class. A refill pass takes in only the
    /// flows that can still gain (below their cap, no saturated link on
    /// their path), and the refill ends early when there are none.
    pub refill_passes: usize,
    /// Stop refilling a class when a pass adds no more than this
    /// fraction of the total link capacity — of the whole fabric the
    /// call was given, so the rule loosens as the fabric grows.
    pub refill_epsilon: f64,
    /// Aggregate flows with identical (path, weights, priority, cap)
    /// into bundles before filling (exact; see the module docs). Only
    /// disabled by equivalence tests.
    pub bundling: bool,
}

impl Default for SharingConfig {
    fn default() -> Self {
        Self {
            refill_passes: 3,
            refill_epsilon: 1e-6,
            bundling: true,
        }
    }
}

/// An aggregate of `mult` identical flows, represented by one of them,
/// with its filling state.
#[derive(Debug, Clone, Copy)]
struct Bundle {
    /// Index of the representative flow in the source.
    rep: u32,
    /// Number of member flows.
    mult: u32,
    /// The members' (shared) priority class.
    priority: u8,
    /// Frozen in the current fill pass.
    assigned: bool,
    /// The bundle's range of [`SharingScratch::hops`] (empty for a
    /// same-host transfer).
    hops: (u32, u32),
    /// `rate_cap · mult`.
    cap: f64,
    /// Accumulated rate of the whole bundle.
    rate: f64,
}

/// One hop of a bundle's path.
#[derive(Debug, Clone, Copy)]
struct Hop {
    link: u32,
    /// `weight · mult` at this hop.
    w: f64,
}

/// "Not in the heap" in [`Link::heap_pos`].
const ABSENT: u32 = u32::MAX;

/// A link's filling state.
#[derive(Debug, Clone, Copy)]
struct Link {
    /// Residual capacity across priority classes.
    residual: f64,
    /// Sum of unassigned-bundle weights (one fill pass).
    sumw: f64,
    /// Hops frozen on this link so far (one fill pass): the tie-break
    /// between links at equal fill level.
    version: u32,
    /// Index of the link's entry in the fill heap, or [`ABSENT`].
    heap_pos: u32,
    /// The link's range of [`SharingScratch::crossing`], `first..first +
    /// count`, within the current priority class (`count` is zero
    /// outside the class's links).
    first: u32,
    count: u32,
}

impl Link {
    /// The fill level: residual capacity per unit of unassigned weight.
    #[inline]
    fn level(&self) -> f64 {
        self.residual.max(0.0) / self.sumw
    }

    /// The heap entry link `l` should have in this state.
    #[inline]
    fn entry(&self, l: u32) -> HeapEntry {
        HeapEntry {
            level: self.level(),
            version: self.version,
            link: l,
        }
    }
}

/// A link's live heap entry. Entries are ordered by `(level, version,
/// link)`, lowest first — the order links drain in.
#[derive(Debug, Clone, Copy)]
struct HeapEntry {
    level: f64,
    version: u32,
    link: u32,
}

impl HeapEntry {
    #[inline]
    fn before(&self, other: &HeapEntry) -> bool {
        self.level < other.level
            || (self.level == other.level
                && (self.version, self.link) < (other.version, other.link))
    }
}

/// Reusable working state for [`compute_rates_into`].
///
/// Holds every buffer the progressive filling needs — the per-link
/// state, the current class's flattened hops and link → bundle lists,
/// the fill heap, and the bundling tables — so that repeated allocation
/// epochs perform no heap allocations once the buffers have grown to
/// the topology's and flow set's sizes.
#[derive(Debug, Clone, Default)]
pub struct SharingScratch {
    /// Per-link state, rebuilt from the capacities on every call.
    links: Vec<Link>,
    /// Links crossed by a bundle of the current class.
    active: Vec<u32>,
    /// Hops of the current class's bundles, bundle after bundle.
    hops: Vec<Hop>,
    /// Per link (see [`Link::first`]), the class-relative indices of the
    /// bundles crossing it, ascending: the order they freeze in when the
    /// link drains.
    crossing: Vec<u32>,
    /// The fill heap: a 4-ary min-heap holding one entry per link that
    /// still has unassigned weight, located through [`Link::heap_pos`].
    heap: Vec<HeapEntry>,
    /// The current class's bundles (class-relative indices, ascending)
    /// that can still gain rate: each fill pass starts by dropping those
    /// that no longer can, for good.
    live: Vec<u32>,
    /// (priority, bundle-key hash, flow index) triples sorted by bundle
    /// key. The hash is a cheap sort prefix; ties are broken by the full
    /// key comparison, so collisions cost time, never correctness.
    order: Vec<(u8, u64, u32)>,
    /// The bundles, sorted by (priority, key).
    bundles: Vec<Bundle>,
    /// Flow index → bundle index.
    bundle_of: Vec<u32>,
}

/// Computes per-flow rates (bytes/s), aligned with `flows`.
///
/// `capacities[l]` is the capacity of `LinkId(l)`. See the module docs
/// for semantics. This is a convenience wrapper over
/// [`compute_rates_into`] that allocates fresh buffers; epoch-driven
/// callers should hold a [`SharingScratch`] and call the `_into` form.
///
/// # Panics
///
/// Panics if a capacity is negative or not finite, or if a flow
/// references an out-of-range link, has mismatched `path`/`weights`
/// lengths, or a weight that is not finite or below [`MIN_WEIGHT`].
///
/// # Examples
///
/// ```
/// use saba_sim::ids::LinkId;
/// use saba_sim::sharing::{compute_rates, SharingConfig, SharingFlow};
///
/// // Two equal flows through one 100 B/s link split it evenly.
/// let caps = [100.0];
/// let f = SharingFlow::best_effort(vec![LinkId(0)]);
/// let rates = compute_rates(&caps, &[f.clone(), f], &SharingConfig::default());
/// assert!((rates[0] - 50.0).abs() < 1e-6);
/// assert!((rates[1] - 50.0).abs() < 1e-6);
/// ```
pub fn compute_rates(capacities: &[f64], flows: &[SharingFlow], cfg: &SharingConfig) -> Vec<f64> {
    let mut scratch = SharingScratch::default();
    let mut out = Vec::new();
    compute_rates_into(capacities, flows, cfg, &mut scratch, &mut out);
    out
}

/// Computes per-flow rates into `out` (cleared and refilled, aligned
/// with the source), reusing `scratch` across calls.
///
/// This is the engine's epoch fast path: after warm-up it performs no
/// heap allocations. Flows are read through [`FlowView`]s, so `flows`
/// may be a `[SharingFlow]` slice, a `[FlowView]` slice, or any
/// zero-copy adapter over a fabric model's own storage.
///
/// # Panics
///
/// As [`compute_rates`].
pub fn compute_rates_into<F: FlowSource + ?Sized>(
    capacities: &[f64],
    flows: &F,
    cfg: &SharingConfig,
    scratch: &mut SharingScratch,
    out: &mut Vec<f64>,
) {
    validate(capacities, flows);
    let n = flows.flow_count();
    out.clear();
    out.resize(n, 0.0);
    if n == 0 {
        return;
    }

    bundle_flows(flows, cfg.bundling, scratch);

    scratch.links.clear();
    scratch
        .links
        .extend(capacities.iter().map(|&residual| Link {
            residual,
            sumw: 0.0,
            version: 0,
            heap_pos: ABSENT,
            first: 0,
            count: 0,
        }));
    scratch.heap.clear();

    // Strict-priority classes, highest (numerically lowest) first. The
    // bundle sort key starts with the priority, so classes are
    // contiguous ranges of `scratch.bundles`.
    let total_capacity: f64 = capacities.iter().sum();
    let nb = scratch.bundles.len();
    let mut start = 0;
    while start < nb {
        let class = scratch.bundles[start].priority;
        let mut end = start;
        while end < nb && scratch.bundles[end].priority == class {
            end += 1;
        }
        flatten_class(flows, start..end, scratch);
        fill_once(capacities, start..end, scratch);
        for _ in 0..cfg.refill_passes {
            let added = fill_once(capacities, start..end, scratch);
            if added <= cfg.refill_epsilon * total_capacity.max(1.0) {
                break;
            }
        }
        for &l in &scratch.active {
            scratch.links[l as usize].count = 0;
        }
        start = end;
    }

    // Divide each bundle's rate back over its members. Members are
    // identical, so each gets exactly a `1/mult` share.
    for (i, r) in out.iter_mut().enumerate() {
        let bundle = &scratch.bundles[scratch.bundle_of[i] as usize];
        *r = if bundle.rate.is_infinite() {
            f64::INFINITY
        } else {
            bundle.rate / f64::from(bundle.mult)
        };
    }
}

fn validate<F: FlowSource + ?Sized>(capacities: &[f64], flows: &F) {
    for (l, &c) in capacities.iter().enumerate() {
        assert!(
            c.is_finite() && c >= 0.0,
            "link l{l}: capacity must be finite and non-negative, got {c}"
        );
    }
    for i in 0..flows.flow_count() {
        let f = flows.flow_view(i);
        if let FlowWeights::PerLink(ws) = f.weights {
            assert_eq!(
                f.path.len(),
                ws.len(),
                "flow {i}: path and weights must have equal length"
            );
        }
        for (hop, &l) in f.path.iter().enumerate() {
            let w = f.weights.at(hop);
            assert!(
                (l.0 as usize) < capacities.len(),
                "flow {i}: link {l} out of range"
            );
            assert!(
                w.is_finite() && w >= MIN_WEIGHT,
                "flow {i}: weight must be positive and at least {MIN_WEIGHT:e}, got {w}"
            );
        }
        assert!(f.rate_cap >= 0.0, "flow {i}: negative rate cap");
    }
}

/// FNV-1a hash of a flow's bundle key (path, per-hop weights, cap).
/// Uniform and per-link weights hash identically, so equal flows always
/// share a hash regardless of representation.
fn hash_bundle_key(v: &FlowView<'_>) -> u64 {
    const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut mix = |x: u64| {
        h ^= x;
        h = h.wrapping_mul(FNV_PRIME);
    };
    mix(v.path.len() as u64);
    for (hop, &l) in v.path.iter().enumerate() {
        mix(u64::from(l.0));
        mix(v.weights.at(hop).to_bits());
    }
    mix(v.rate_cap.to_bits());
    h
}

/// Total order over bundle keys: (priority, path, per-hop weights,
/// rate cap). Flows comparing equal are aggregated into one bundle;
/// leading with the priority keeps each strict-priority class a
/// contiguous range of the sorted bundle list.
fn cmp_bundle_key(a: &FlowView<'_>, b: &FlowView<'_>) -> Ordering {
    a.priority
        .cmp(&b.priority)
        .then_with(|| a.path.len().cmp(&b.path.len()))
        .then_with(|| a.path.cmp(b.path))
        .then_with(|| {
            for hop in 0..a.path.len() {
                let ord = a.weights.at(hop).total_cmp(&b.weights.at(hop));
                if ord != Ordering::Equal {
                    return ord;
                }
            }
            Ordering::Equal
        })
        .then_with(|| a.rate_cap.total_cmp(&b.rate_cap))
}

/// Groups flows into bundles (`scratch.bundles`, sorted by priority)
/// and fills the flow → bundle map. With `bundling == false` every flow
/// is its own bundle (still sorted by priority so classes stay
/// contiguous).
fn bundle_flows<F: FlowSource + ?Sized>(flows: &F, bundling: bool, scratch: &mut SharingScratch) {
    let n = flows.flow_count();
    scratch.order.clear();
    scratch.order.extend((0..n).map(|i| {
        let v = flows.flow_view(i);
        (v.priority, hash_bundle_key(&v), i as u32)
    }));
    // Both modes process flows in the same canonical order; `bundling`
    // only controls whether adjacent identical flows are merged. This
    // keeps bundled and unbundled allocation bit-comparable (freezing
    // order within a heap pop affects cap-bound allocations beyond the
    // refill tolerance). The (priority, hash) prefix keeps the common
    // comparison to two integers in contiguous memory; the full key
    // comparison breaks hash ties (and the index makes the unstable
    // sort deterministic).
    scratch.order.sort_unstable_by(|a, b| {
        a.0.cmp(&b.0)
            .then_with(|| a.1.cmp(&b.1))
            .then_with(|| {
                cmp_bundle_key(
                    &flows.flow_view(a.2 as usize),
                    &flows.flow_view(b.2 as usize),
                )
            })
            .then_with(|| a.2.cmp(&b.2))
    });
    scratch.bundles.clear();
    scratch.bundle_of.clear();
    scratch.bundle_of.resize(n, 0);
    for k in 0..n {
        let (priority, hash, i) = scratch.order[k];
        let v = flows.flow_view(i as usize);
        if bundling && k > 0 {
            let (prev_priority, prev_hash, _) = scratch.order[k - 1];
            if (prev_priority, prev_hash) == (priority, hash) {
                let last = scratch.bundles.last_mut().expect("bundle exists for k > 0");
                if cmp_bundle_key(&flows.flow_view(last.rep as usize), &v) == Ordering::Equal {
                    last.mult += 1;
                    scratch.bundle_of[i as usize] = (scratch.bundles.len() - 1) as u32;
                    continue;
                }
            }
        }
        scratch.bundle_of[i as usize] = scratch.bundles.len() as u32;
        scratch.bundles.push(Bundle {
            rep: i,
            mult: 1,
            priority,
            assigned: false,
            hops: (0, 0),
            cap: 0.0,
            rate: 0.0,
        });
    }
}

/// Flattens the bundles of one priority class for its fill passes:
/// every hop with its `weight · mult` product into `scratch.hops`, the
/// cap product into the bundle, the links crossed into `scratch.active`
/// and, per such link, the bundles crossing it into `scratch.crossing`.
/// Touches no link outside the class.
fn flatten_class<F: FlowSource + ?Sized>(
    flows: &F,
    class: Range<usize>,
    scratch: &mut SharingScratch,
) {
    let SharingScratch {
        links,
        active,
        hops,
        crossing,
        live,
        bundles,
        ..
    } = scratch;
    let bundles = &mut bundles[class];
    hops.clear();
    active.clear();
    live.clear();
    live.extend(0..bundles.len() as u32);
    for bundle in bundles.iter_mut() {
        let mult = f64::from(bundle.mult);
        let f = flows.flow_view(bundle.rep as usize);
        bundle.cap = f.rate_cap * mult;
        let first = hops.len() as u32;
        for (hop, &l) in f.path.iter().enumerate() {
            let link = &mut links[l.0 as usize];
            if link.count == 0 {
                active.push(l.0);
            }
            link.count += 1;
            hops.push(Hop {
                link: l.0,
                w: f.weights.at(hop) * mult,
            });
        }
        bundle.hops = (first, hops.len() as u32);
    }
    // Versions and `crossing` offsets count hops in 32 bits.
    let total = u32::try_from(hops.len()).expect("fewer than 2^32 hops per priority class");

    // Carve `crossing` into one range per link, then drop the bundles
    // in: ascending bundle order within each link, the order in which
    // they freeze when that link drains.
    let mut next = 0;
    for &l in active.iter() {
        let link = &mut links[l as usize];
        link.first = next;
        next += link.count;
        link.count = 0;
    }
    crossing.clear();
    crossing.resize(total as usize, 0);
    for (b, bundle) in bundles.iter().enumerate() {
        for hop in &hops[bundle.hops.0 as usize..bundle.hops.1 as usize] {
            let link = &mut links[hop.link as usize];
            crossing[(link.first + link.count) as usize] = b as u32;
            link.count += 1;
        }
    }
}

/// Children per heap node.
const ARITY: usize = 4;

/// Moves the entry at `i` towards the root until its parent orders
/// before it; returns where it lands.
fn sift_up(heap: &mut [HeapEntry], links: &mut [Link], mut i: usize) -> usize {
    let entry = heap[i];
    while i > 0 {
        let parent = (i - 1) / ARITY;
        if !entry.before(&heap[parent]) {
            break;
        }
        heap[i] = heap[parent];
        links[heap[i].link as usize].heap_pos = i as u32;
        i = parent;
    }
    heap[i] = entry;
    links[entry.link as usize].heap_pos = i as u32;
    i
}

/// Moves the entry at `i` towards the leaves until it orders before
/// every child.
fn sift_down(heap: &mut [HeapEntry], links: &mut [Link], mut i: usize) {
    let entry = heap[i];
    loop {
        let first = ARITY * i + 1;
        if first >= heap.len() {
            break;
        }
        let mut least = first;
        for child in first + 1..(first + ARITY).min(heap.len()) {
            if heap[child].before(&heap[least]) {
                least = child;
            }
        }
        if !heap[least].before(&entry) {
            break;
        }
        heap[i] = heap[least];
        links[heap[i].link as usize].heap_pos = i as u32;
        i = least;
    }
    heap[i] = entry;
    links[entry.link as usize].heap_pos = i as u32;
}

/// Gives link `l` the key of its current state, inserting it if it has
/// no entry. The level may move either way (rounding can lower it by an
/// ulp), so the entry sifts both ways.
fn heap_upsert(heap: &mut Vec<HeapEntry>, links: &mut [Link], l: u32) {
    let link = &links[l as usize];
    let entry = link.entry(l);
    debug_assert!(!entry.level.is_nan(), "levels must be ordered");
    let i = if link.heap_pos == ABSENT {
        heap.push(entry);
        heap.len() - 1
    } else {
        heap[link.heap_pos as usize] = entry;
        link.heap_pos as usize
    };
    let i = sift_up(heap, links, i);
    sift_down(heap, links, i);
}

/// Drops link `l`'s entry, if it has one.
fn heap_remove(heap: &mut Vec<HeapEntry>, links: &mut [Link], l: u32) {
    let pos = std::mem::replace(&mut links[l as usize].heap_pos, ABSENT);
    if pos == ABSENT {
        return;
    }
    let i = pos as usize;
    let last = heap.pop().expect("a link with a position is in the heap");
    if i < heap.len() {
        heap[i] = last;
        let i = sift_up(heap, links, i);
        sift_down(heap, links, i);
    }
}

/// One progressive-filling pass over the live bundles of the class
/// [`flatten_class`] prepared (`class` is its range of the bundles),
/// *adding* allocated rate to the bundles and subtracting it from the
/// links' residuals. Returns the total rate added — zero when nothing
/// is live any more.
fn fill_once(capacities: &[f64], class: Range<usize>, scratch: &mut SharingScratch) -> f64 {
    let SharingScratch {
        links,
        active,
        hops,
        crossing,
        heap,
        live,
        bundles,
        ..
    } = scratch;
    let bundles = &mut bundles[class];
    for &l in active.iter() {
        let link = &mut links[l as usize];
        link.sumw = 0.0;
        link.version = 0;
    }

    // Only a bundle that can still gain takes part: one below its cap
    // with no saturated link on its path. The others stay `assigned`,
    // which is how the link → bundle lists skip them.
    live.retain(|&b| {
        let bundle = &mut bundles[b as usize];
        let path = &hops[bundle.hops.0 as usize..bundle.hops.1 as usize];
        if path.is_empty() {
            // Same-host transfer: not limited by the fabric.
            bundle.rate = bundle.cap;
        }
        let gains = bundle.rate < bundle.cap
            && path.iter().all(|hop| {
                let l = hop.link as usize;
                links[l].residual > SATURATED * capacities[l]
            });
        bundle.assigned = !gains;
        if gains {
            for hop in path {
                links[hop.link as usize].sumw += hop.w;
            }
        }
        gains
    });
    if live.is_empty() {
        return 0.0;
    }

    debug_assert!(heap.is_empty());
    for &l in active.iter() {
        let link = &mut links[l as usize];
        if link.sumw > 0.0 {
            link.heap_pos = heap.len() as u32;
            heap.push(link.entry(l));
        }
    }
    for i in (0..heap.len().div_ceil(ARITY)).rev() {
        sift_down(heap, links, i);
    }

    let mut added = 0.0;
    while let Some(&HeapEntry { link: l, .. }) = heap.first() {
        // Out of the heap for good: after its list every bundle crossing
        // this link is assigned, so no later freeze can touch it.
        heap_remove(heap, links, l);
        let Link { first, count, .. } = links[l as usize];
        // Freeze every unassigned bundle crossing this link at the
        // minimum of its weighted share over its path (capped by its
        // headroom).
        for &b in &crossing[first as usize..(first + count) as usize] {
            let bundle = &mut bundles[b as usize];
            if bundle.assigned {
                continue;
            }
            let path = &hops[bundle.hops.0 as usize..bundle.hops.1 as usize];
            let mut share = bundle.cap - bundle.rate;
            for hop in path {
                // The bundle's own weight is part of every sum it is
                // charged against, even where rounding lost it.
                let link = &links[hop.link as usize];
                let s = hop.w * (link.residual.max(0.0) / link.sumw.max(hop.w));
                if s < share {
                    share = s;
                }
            }
            let share = share.max(0.0);
            bundle.assigned = true;
            bundle.rate += share;
            added += share;
            for hop in path {
                let link = &mut links[hop.link as usize];
                link.residual = (link.residual - share).max(0.0);
                link.sumw -= hop.w;
                link.version += 1;
                if hop.link == l {
                    continue;
                }
                if link.sumw > 1e-12 {
                    heap_upsert(heap, links, hop.link);
                } else {
                    link.sumw = 0.0;
                    heap_remove(heap, links, hop.link);
                }
            }
        }
    }
    added
}

// ---------------------------------------------------------------------
// Pod-partitioned allocation
// ---------------------------------------------------------------------

/// Pod id marking a link as shared fabric core (leaf/spine tiers): such
/// links belong to no pod, and any flow crossing one is handled by the
/// cross-pod reconciliation pass.
pub const CORE_POD: u32 = u32::MAX;

/// A [`FlowSource`] over a subset of another source's flows.
struct SubsetSource<'a, F: FlowSource + ?Sized> {
    src: &'a F,
    idx: &'a [u32],
}

impl<F: FlowSource + ?Sized> FlowSource for SubsetSource<'_, F> {
    fn flow_count(&self) -> usize {
        self.idx.len()
    }

    fn flow_view(&self, i: usize) -> FlowView<'_> {
        self.src.flow_view(self.idx[i] as usize)
    }
}

/// A [`FlowSource`] re-offering every flow with its remaining headroom
/// (`rate_cap − already allocated`) as the cap — the reconciliation
/// top-up input.
struct TopUpSource<'a, F: FlowSource + ?Sized> {
    src: &'a F,
    allocated: &'a [f64],
}

impl<F: FlowSource + ?Sized> FlowSource for TopUpSource<'_, F> {
    fn flow_count(&self) -> usize {
        self.allocated.len()
    }

    fn flow_view(&self, i: usize) -> FlowView<'_> {
        let mut v = self.src.flow_view(i);
        let got = self.allocated[i];
        v.rate_cap = if got.is_infinite() {
            0.0 // Already unbounded (same-host transfer): nothing to add.
        } else {
            (v.rate_cap - got).max(0.0)
        };
        v
    }
}

/// Reusable working state for [`compute_rates_pods`]: the residual
/// capacity buffer, the flow/pod grouping tables, and one
/// [`SharingScratch`] per worker thread (retained across epochs so the
/// grouping and the solves themselves stay allocation-free once warm).
#[derive(Debug, Default)]
pub struct PodScratch {
    /// Capacities left for the per-pod solves after the cross-pod pass.
    residual: Vec<f64>,
    /// Flow index → pod id (`CORE_POD` for cross-pod flows).
    flow_pod: Vec<u32>,
    /// Flow indices handled by the reconciliation pass.
    cross: Vec<u32>,
    /// Rates of the reconciliation pass, aligned with `cross`.
    cross_rates: Vec<f64>,
    /// Pod-local flow indices sorted by (pod, flow): pods in id order
    /// (the deterministic merge order), each pod's flows contiguous.
    local: Vec<u32>,
    /// `local[pod_start[k]..pod_start[k + 1]]` are the flows of the
    /// `k`-th pod that has any.
    pod_start: Vec<u32>,
    /// The reconciliation pass's solver scratch.
    base: SharingScratch,
    /// Per-worker solver scratches, recycled across epochs.
    pools: Vec<SharingScratch>,
}

/// Pod-partitioned weighted max-min allocation: flows whose whole path
/// stays inside one pod are solved per pod, concurrently across up to
/// `threads` worker threads; flows touching a core link (or more than
/// one pod) are then solved in a serial **cross-pod reconciliation
/// pass** over whatever capacity the pods left behind, followed by a
/// work-conservation top-up.
///
/// `link_pod[l]` assigns `LinkId(l)` to a pod, with [`CORE_POD`]
/// marking shared core links (see [`Topology::edge_pods`] for the
/// rack-granularity mapping of the built-in fabrics). Pods share no
/// links, so the per-pod solves are independent: the result is
/// **bit-identical for any `threads` value**, and when every flow is
/// pod-local it matches the global [`compute_rates_into`] solve up to
/// refill-termination tolerance (the per-pass work-conservation
/// epsilon is measured against a slightly different capacity basis).
/// With cross-pod traffic the split is an approximation that favours
/// pod-local flows: they see full capacity first, spine-crossing flows
/// divide what remains, and a final serial top-up pass re-offers
/// stranded slack to every flow with headroom — so the allocation
/// stays work-conserving and every link stays feasible.
///
/// Once `scratch` is warm the grouping and every solve run without
/// allocating; what still allocates per call is the worker threads
/// themselves and, per worker, the two vectors its pods' rates travel
/// back in.
///
/// [`Topology::edge_pods`]: crate::topology::Topology::edge_pods
///
/// # Panics
///
/// As [`compute_rates`], and if `link_pod` is not exactly one pod id
/// per capacity entry or `threads == 0`.
pub fn compute_rates_pods<F: FlowSource + Sync + ?Sized>(
    capacities: &[f64],
    flows: &F,
    cfg: &SharingConfig,
    link_pod: &[u32],
    threads: usize,
    scratch: &mut PodScratch,
    out: &mut Vec<f64>,
) {
    assert_eq!(link_pod.len(), capacities.len(), "need one pod id per link");
    assert!(threads >= 1, "need at least one thread");
    let n = flows.flow_count();
    out.clear();
    out.resize(n, 0.0);
    if n == 0 {
        return;
    }

    // Classify: a flow belongs to pod p iff every link of its path does.
    // Empty-path flows have no fabric footprint; the reconciliation pass
    // prices them (at zero capacity cost).
    scratch.flow_pod.clear();
    scratch.cross.clear();
    scratch.local.clear();
    for i in 0..n {
        let f = flows.flow_view(i);
        let mut pod = CORE_POD;
        for (hop, &l) in f.path.iter().enumerate() {
            let p = link_pod[l.0 as usize];
            pod = if hop == 0 {
                p
            } else if p == pod {
                pod
            } else {
                CORE_POD
            };
            if pod == CORE_POD {
                break;
            }
        }
        scratch.flow_pod.push(pod);
        if pod == CORE_POD {
            scratch.cross.push(i as u32);
        } else {
            scratch.local.push(i as u32);
        }
    }

    // Group pod-local flows by sorting their indices by (pod, flow):
    // pods come out in id order (the merge order), and each pod's
    // flows contiguous and ascending.
    let flow_pod = &scratch.flow_pod;
    scratch
        .local
        .sort_unstable_by_key(|&i| (flow_pod[i as usize], i));
    scratch.pod_start.clear();
    for (k, &i) in scratch.local.iter().enumerate() {
        if k == 0 || flow_pod[i as usize] != flow_pod[scratch.local[k - 1] as usize] {
            scratch.pod_start.push(k as u32);
        }
    }
    let npods = scratch.pod_start.len();
    scratch.pod_start.push(scratch.local.len() as u32);
    let (local, pod_start) = (&scratch.local, &scratch.pod_start);
    let pod_flows = |k: usize| &local[pod_start[k] as usize..pod_start[k + 1] as usize];

    // Per-pod solves first, round-robin over the worker threads. Pods
    // share no links, so they can all run on the full capacities — and
    // any interleaving yields the same rates, making the result
    // thread-count independent. The static pod → worker assignment
    // keeps each worker's scratch reuse deterministic; results merge
    // in pod-id order.
    scratch.pools.resize_with(threads, SharingScratch::default);
    let pool = std::sync::Mutex::new(std::mem::take(&mut scratch.pools));
    // One worker's output: the rates of its pods' flows, pod after pod,
    // plus its reusable solver scratch, returned to the pool.
    type WorkerSolve = (Vec<f64>, SharingScratch);
    let solved: Vec<WorkerSolve> =
        saba_math::parallel::parallel_map(threads.min(npods.max(1)), threads, |tid| {
            let mut solver = pool
                .lock()
                .expect("scratch pool lock poisoned")
                .pop()
                .unwrap_or_default();
            let (mut mine, mut rates) = (Vec::new(), Vec::new());
            for k in (tid..npods).step_by(threads) {
                let src = SubsetSource {
                    src: flows,
                    idx: pod_flows(k),
                };
                compute_rates_into(capacities, &src, cfg, &mut solver, &mut rates);
                mine.extend_from_slice(&rates);
            }
            (mine, solver)
        });
    for (tid, (mine, solver)) in solved.into_iter().enumerate() {
        scratch.pools.push(solver);
        let flows_of = (tid..npods).step_by(threads).flat_map(pod_flows);
        for (&i, r) in flows_of.zip(mine) {
            out[i as usize] = r;
        }
    }
    // Recover pool entries no worker claimed (fewer tasks than threads).
    scratch
        .pools
        .append(&mut pool.into_inner().expect("scratch pool lock poisoned"));

    // Cross-pod reconciliation: price the spine-crossing flows over
    // what the pods left behind.
    scratch.residual.clear();
    scratch.residual.extend_from_slice(capacities);
    for (i, &r) in out.iter().enumerate() {
        if scratch.flow_pod[i] != CORE_POD && r > 0.0 && r.is_finite() {
            for &l in flows.flow_view(i).path {
                let res = &mut scratch.residual[l.0 as usize];
                *res = (*res - r).max(0.0);
            }
        }
    }
    let cross_src = SubsetSource {
        src: flows,
        idx: &scratch.cross,
    };
    compute_rates_into(
        &scratch.residual,
        &cross_src,
        cfg,
        &mut scratch.base,
        &mut scratch.cross_rates,
    );
    for (k, &i) in scratch.cross.iter().enumerate() {
        let rate = scratch.cross_rates[k];
        out[i as usize] = rate;
        if rate > 0.0 && rate.is_finite() {
            for &l in flows.flow_view(i as usize).path {
                let r = &mut scratch.residual[l.0 as usize];
                *r = (*r - rate).max(0.0);
            }
        }
    }

    // Reconciliation top-up: the phased split can strand slack (a pod
    // flow frozen below the share the global solve would give it once
    // cross-pod flows bottleneck elsewhere, say). One more max-min pass
    // re-offers every flow its remaining headroom over the leftover
    // capacity, restoring work conservation.
    let leftovers: f64 = scratch.residual.iter().sum();
    if leftovers > 0.0 {
        let topup_src = TopUpSource {
            src: flows,
            allocated: out.as_slice(),
        };
        let mut topup = std::mem::take(&mut scratch.cross_rates);
        compute_rates_into(
            &scratch.residual,
            &topup_src,
            cfg,
            &mut scratch.base,
            &mut topup,
        );
        for (r, t) in out.iter_mut().zip(&topup) {
            if t.is_finite() {
                *r += t;
            }
        }
        scratch.cross_rates = topup;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> SharingConfig {
        SharingConfig::default()
    }

    fn flow(path: &[u32], weights: &[f64]) -> SharingFlow {
        SharingFlow {
            path: path.iter().map(|&l| LinkId(l)).collect(),
            weights: weights.to_vec(),
            priority: 0,
            rate_cap: f64::INFINITY,
        }
    }

    #[test]
    fn single_flow_takes_whole_link() {
        let rates = compute_rates(&[100.0], &[flow(&[0], &[1.0])], &cfg());
        assert!((rates[0] - 100.0).abs() < 1e-9);
    }

    #[test]
    fn weights_split_proportionally() {
        let flows = [flow(&[0], &[3.0]), flow(&[0], &[1.0])];
        let rates = compute_rates(&[100.0], &flows, &cfg());
        assert!((rates[0] - 75.0).abs() < 1e-6, "{rates:?}");
        assert!((rates[1] - 25.0).abs() < 1e-6);
    }

    #[test]
    fn multi_link_bottleneck_is_respected() {
        // Flow A spans links 0 (cap 100) and 1 (cap 10): bottleneck 10.
        // Flow B uses only link 0 and picks up the slack.
        let flows = [flow(&[0, 1], &[1.0, 1.0]), flow(&[0], &[1.0])];
        let rates = compute_rates(&[100.0, 10.0], &flows, &cfg());
        assert!((rates[0] - 10.0).abs() < 1e-6, "{rates:?}");
        assert!((rates[1] - 90.0).abs() < 1e-6, "{rates:?}");
    }

    #[test]
    fn classic_parking_lot() {
        // Three links in a row; one long flow plus one short flow per link.
        // Max-min: long flow gets 50, each short flow gets 50.
        let flows = [
            flow(&[0, 1, 2], &[1.0, 1.0, 1.0]),
            flow(&[0], &[1.0]),
            flow(&[1], &[1.0]),
            flow(&[2], &[1.0]),
        ];
        let rates = compute_rates(&[100.0, 100.0, 100.0], &flows, &cfg());
        for (i, r) in rates.iter().enumerate() {
            assert!((r - 50.0).abs() < 1e-6, "flow {i}: {rates:?}");
        }
    }

    #[test]
    fn unequal_parking_lot_is_max_min() {
        // Link 0 has 3 flows (the long one + 2 locals), link 1 has 2.
        // Max-min: long flow limited by link 0 => 100/3 each there; link 1
        // local flow gets the remainder 100 - 100/3.
        let flows = [
            flow(&[0, 1], &[1.0, 1.0]),
            flow(&[0], &[1.0]),
            flow(&[0], &[1.0]),
            flow(&[1], &[1.0]),
        ];
        let rates = compute_rates(&[100.0, 100.0], &flows, &cfg());
        let third = 100.0 / 3.0;
        assert!((rates[0] - third).abs() < 1e-6, "{rates:?}");
        assert!((rates[1] - third).abs() < 1e-6);
        assert!((rates[2] - third).abs() < 1e-6);
        assert!((rates[3] - (100.0 - third)).abs() < 1e-6);
    }

    #[test]
    fn rate_cap_is_honoured_and_slack_redistributed() {
        let mut capped = flow(&[0], &[1.0]);
        capped.rate_cap = 10.0;
        let flows = [capped, flow(&[0], &[1.0])];
        let rates = compute_rates(&[100.0], &flows, &cfg());
        assert!((rates[0] - 10.0).abs() < 1e-6, "{rates:?}");
        assert!((rates[1] - 90.0).abs() < 1e-6, "{rates:?}");
    }

    #[test]
    fn strict_priority_starves_lower_class() {
        let mut hi = flow(&[0], &[1.0]);
        hi.priority = 0;
        let mut lo = flow(&[0], &[1.0]);
        lo.priority = 1;
        let rates = compute_rates(&[100.0], &[lo.clone(), hi.clone()], &cfg());
        assert!((rates[1] - 100.0).abs() < 1e-6, "{rates:?}");
        assert!(rates[0].abs() < 1e-6);
    }

    #[test]
    fn strict_priority_passes_down_leftovers() {
        let mut hi = flow(&[0], &[1.0]);
        hi.rate_cap = 30.0;
        let mut lo = flow(&[0], &[1.0]);
        lo.priority = 1;
        let rates = compute_rates(&[100.0], &[hi, lo], &cfg());
        assert!((rates[0] - 30.0).abs() < 1e-6, "{rates:?}");
        assert!((rates[1] - 70.0).abs() < 1e-6, "{rates:?}");
    }

    #[test]
    fn empty_path_flow_is_unbounded() {
        let f = SharingFlow::best_effort(vec![]);
        let rates = compute_rates(&[10.0], &[f], &cfg());
        assert!(rates[0].is_infinite());
    }

    #[test]
    fn empty_path_flow_respects_cap() {
        let mut f = SharingFlow::best_effort(vec![]);
        f.rate_cap = 5.0;
        let rates = compute_rates(&[10.0], &[f], &cfg());
        assert!((rates[0] - 5.0).abs() < 1e-9);
    }

    #[test]
    fn no_link_oversubscription_on_random_mesh() {
        // Deterministic pseudo-random flows over 10 links.
        let caps: Vec<f64> = (0..10).map(|i| 50.0 + 10.0 * i as f64).collect();
        let mut flows = Vec::new();
        let mut state = 12345u64;
        let mut next = || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) as usize
        };
        for _ in 0..60 {
            let len = 1 + next() % 4;
            let mut path = Vec::new();
            for _ in 0..len {
                let l = next() % 10;
                if !path.contains(&(l as u32)) {
                    path.push(l as u32);
                }
            }
            let w: Vec<f64> = path.iter().map(|_| 1.0 + (next() % 4) as f64).collect();
            flows.push(flow(&path, &w));
        }
        let rates = compute_rates(&caps, &flows, &cfg());
        let mut load = [0.0; 10];
        for (f, &r) in flows.iter().zip(&rates) {
            assert!(r >= 0.0);
            for &l in &f.path {
                load[l.0 as usize] += r;
            }
        }
        for (l, (&used, &cap)) in load.iter().zip(&caps).enumerate() {
            assert!(used <= cap + 1e-6, "link {l}: {used} > {cap}");
        }
    }

    #[test]
    fn work_conserving_on_shared_bottleneck() {
        // All flows cross link 0: it must be fully used.
        let flows = [
            flow(&[0], &[1.0]),
            flow(&[0], &[2.0]),
            flow(&[0, 1], &[1.0, 1.0]),
        ];
        let rates = compute_rates(&[120.0, 1000.0], &flows, &cfg());
        let total: f64 = rates.iter().sum();
        assert!((total - 120.0).abs() < 1e-6, "{rates:?}");
    }

    #[test]
    fn hierarchical_flattening_matches_wfq_single_port() {
        // Queue A (weight 3) has 2 flows, queue B (weight 1) has 1 flow.
        // Flattened: φ_A = 1.5 each, φ_B = 1. Shares: 45, 45, 30 on 120.
        let flows = [flow(&[0], &[1.5]), flow(&[0], &[1.5]), flow(&[0], &[1.0])];
        let rates = compute_rates(&[120.0], &flows, &cfg());
        assert!((rates[0] - 45.0).abs() < 1e-6, "{rates:?}");
        assert!((rates[1] - 45.0).abs() < 1e-6);
        assert!((rates[2] - 30.0).abs() < 1e-6);
    }

    #[test]
    fn refill_recovers_work_conservation() {
        // Flow 0 is stuck at 1 B/s on link 1; flow 1 shares link 0 with it.
        // Without refill flow 1 would be frozen at 50; refill tops it up to 99.
        let flows = [flow(&[0, 1], &[1.0, 1.0]), flow(&[0], &[1.0])];
        let rates = compute_rates(&[100.0, 1.0], &flows, &cfg());
        assert!((rates[0] - 1.0).abs() < 1e-6, "{rates:?}");
        assert!((rates[1] - 99.0).abs() < 1e-6, "{rates:?}");
    }

    #[test]
    #[should_panic(expected = "weight must be positive")]
    fn zero_weight_rejected() {
        let _ = compute_rates(&[1.0], &[flow(&[0], &[0.0])], &cfg());
    }

    #[test]
    #[should_panic(expected = "at least 1e-9")]
    fn weight_below_the_allocator_resolution_rejected() {
        // Both weights sit under the kernel's 1e-12 "drained" threshold:
        // freezing the first zeroes the link's weight sum with the second
        // still waiting, which then read a fill level of 50/0 and was
        // handed an infinite rate on a 100 B/s link.
        let flows = [flow(&[0], &[6e-13]), flow(&[0], &[5e-13])];
        let _ = compute_rates(&[100.0], &flows, &cfg());
    }

    #[test]
    fn weight_at_the_allocator_resolution_is_served() {
        let flows = [flow(&[0], &[MIN_WEIGHT]), flow(&[0], &[3.0 * MIN_WEIGHT])];
        let rates = compute_rates(&[100.0], &flows, &cfg());
        assert!((rates[0] - 25.0).abs() < 1e-6, "{rates:?}");
        assert!((rates[1] - 75.0).abs() < 1e-6, "{rates:?}");
    }

    #[test]
    fn a_weight_rounded_out_of_the_sum_never_reads_an_unbounded_share() {
        // The floor is absolute, so a weight far enough above another on
        // the same link rounds it out of the link's sum: when the large
        // flow freezes the sum reaches zero with the small one still
        // waiting. Several small weights, because the bundle order (a
        // hash) decides which of the two freezes first.
        let caps = [100.0, 50.0];
        for ratio in [1e18, 1e15, 1e13] {
            for small in [1.0, 2.0, 3.0, 5.0].map(|k| k * MIN_WEIGHT) {
                let problems = [
                    // Both on one link.
                    vec![flow(&[0], &[small * ratio]), flow(&[0], &[small])],
                    // The small one also behind a link it shares with a
                    // third flow, whose level it must not fall back on.
                    vec![
                        flow(&[0], &[small * ratio]),
                        flow(&[0, 1], &[small, 1.0]),
                        flow(&[1], &[1.0]),
                    ],
                ];
                for flows in problems {
                    let rates = compute_rates(&caps, &flows, &cfg());
                    let mut load = [0.0; 2];
                    for (f, &r) in flows.iter().zip(&rates) {
                        assert!(r.is_finite() && r >= 0.0, "{ratio:e} {small:e}: {rates:?}");
                        for &l in &f.path {
                            load[l.0 as usize] += r;
                        }
                    }
                    for (used, cap) in load.iter().zip(&caps) {
                        assert!(
                            *used <= cap * (1.0 + 1e-9),
                            "{ratio:e} {small:e}: {rates:?}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bad_link_rejected() {
        let _ = compute_rates(&[1.0], &[flow(&[5], &[1.0])], &cfg());
    }

    #[test]
    #[should_panic(expected = "capacity must be finite and non-negative")]
    fn negative_capacity_rejected() {
        let _ = compute_rates(&[100.0, -1.0], &[flow(&[0], &[1.0])], &cfg());
    }

    #[test]
    #[should_panic(expected = "capacity must be finite and non-negative")]
    fn nan_capacity_rejected() {
        let _ = compute_rates(&[f64::NAN], &[flow(&[0], &[1.0])], &cfg());
    }

    #[test]
    #[should_panic(expected = "capacity must be finite and non-negative")]
    fn infinite_capacity_rejected() {
        let _ = compute_rates(&[f64::INFINITY], &[flow(&[0], &[1.0])], &cfg());
    }

    #[test]
    fn zero_capacity_is_allowed_and_starves() {
        // A throttled-to-zero link is valid; flows crossing it starve.
        let rates = compute_rates(&[0.0], &[flow(&[0], &[1.0])], &cfg());
        assert_eq!(rates[0], 0.0);
    }

    // --- scratch / view / bundling tests ---

    fn rand_flows(
        count: usize,
        links: usize,
        distinct_paths: usize,
        seed: u64,
    ) -> Vec<SharingFlow> {
        let mut state = seed;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) as usize
        };
        // A pool of distinct paths; flows draw from it so bundles form.
        let paths: Vec<Vec<u32>> = (0..distinct_paths)
            .map(|_| {
                let len = 1 + next() % 3;
                let mut p = Vec::new();
                for _ in 0..len {
                    let l = (next() % links) as u32;
                    if !p.contains(&l) {
                        p.push(l);
                    }
                }
                p
            })
            .collect();
        (0..count)
            .map(|_| {
                let p = &paths[next() % paths.len()];
                let w = 1.0 + (next() % 4) as f64;
                let mut f = flow(p, &vec![w; p.len()]);
                f.priority = (next() % 3) as u8;
                if next() % 4 == 0 {
                    f.rate_cap = 10.0 + (next() % 5) as f64 * 25.0;
                }
                f
            })
            .collect()
    }

    #[test]
    fn bundled_matches_unbundled_on_shared_paths() {
        let caps: Vec<f64> = (0..12).map(|i| 100.0 + 10.0 * i as f64).collect();
        for seed in 0..20 {
            let flows = rand_flows(200, 12, 6, 0x5aba + seed);
            let bundled = compute_rates(&caps, &flows, &cfg());
            let unbundled = compute_rates(
                &caps,
                &flows,
                &SharingConfig {
                    bundling: false,
                    ..cfg()
                },
            );
            for (i, (a, b)) in bundled.iter().zip(&unbundled).enumerate() {
                let tol = 1e-9 * a.abs().max(b.abs()).max(1.0);
                assert!((a - b).abs() <= tol, "seed {seed} flow {i}: {a} vs {b}");
            }
        }
    }

    #[test]
    fn scratch_reuse_is_stable() {
        // Re-running with a reused scratch must give identical rates,
        // including after interleaving a differently-shaped problem.
        let caps: Vec<f64> = (0..8).map(|i| 100.0 + i as f64).collect();
        let flows = rand_flows(64, 8, 4, 7);
        let small = rand_flows(3, 8, 2, 9);
        let mut scratch = SharingScratch::default();
        let mut a = Vec::new();
        let mut b = Vec::new();
        let mut c = Vec::new();
        compute_rates_into(&caps, flows.as_slice(), &cfg(), &mut scratch, &mut a);
        compute_rates_into(&caps, small.as_slice(), &cfg(), &mut scratch, &mut b);
        compute_rates_into(&caps, flows.as_slice(), &cfg(), &mut scratch, &mut c);
        assert_eq!(a, c);
        assert_eq!(b.len(), small.len());
        assert_eq!(a, compute_rates(&caps, &flows, &cfg()));
    }

    #[test]
    fn scratch_reuse_across_fabric_and_class_shapes_is_stable() {
        // The per-link state, the class's link → bundle ranges, the
        // active-link list, the live-bundle list and the heap positions
        // are sized by links or by the class and rebuilt per class: one
        // scratch driven through a small three-class fabric, a large
        // one-class one, no flows at all, and a large three-class one
        // must match a fresh scratch bitwise.
        let big: Vec<f64> = (0..1200).map(|i| 100.0 + (i % 13) as f64).collect();
        let small: Vec<f64> = (0..8).map(|i| 100.0 + i as f64).collect();
        let mut one_class = rand_flows(300, 1200, 150, 21);
        for f in &mut one_class {
            f.priority = 0;
        }
        let steps = [
            (&small, rand_flows(64, 8, 4, 22)),
            (&big, one_class),
            (&small, Vec::new()),
            (&big, rand_flows(300, 1200, 150, 23)),
        ];
        let mut scratch = SharingScratch::default();
        let mut reused = Vec::new();
        for (step, (caps, flows)) in steps.iter().enumerate() {
            compute_rates_into(caps, flows.as_slice(), &cfg(), &mut scratch, &mut reused);
            let fresh = compute_rates(caps, flows, &cfg());
            let bits = |rates: &[f64]| rates.iter().map(|r| r.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&reused), bits(&fresh), "step {step}");
        }
    }

    #[test]
    fn flows_behind_a_zero_capacity_link_starve_and_weigh_on_nobody() {
        // A zero-capacity link is saturated from the start: in every
        // class the flows crossing it get exactly 0.0 and never enter a
        // weight sum, so the others fare as if they were not there.
        let mut caps: Vec<f64> = (0..12).map(|i| 100.0 + 10.0 * i as f64).collect();
        caps[3] = 0.0;
        caps[7] = 0.0;
        let mut starved = [0; 3];
        for seed in 0..20 {
            let flows = rand_flows(200, 12, 24, 0xdead + seed);
            let dead = |f: &SharingFlow| f.path.iter().any(|l| caps[l.0 as usize] == 0.0);
            let others: Vec<SharingFlow> = flows.iter().filter(|f| !dead(f)).cloned().collect();
            let rates = compute_rates(&caps, &flows, &cfg());
            let mut alone = compute_rates(&caps, &others, &cfg()).into_iter();
            for (i, (f, &r)) in flows.iter().zip(&rates).enumerate() {
                if dead(f) {
                    assert_eq!(r.to_bits(), 0, "seed {seed} flow {i}");
                    starved[f.priority as usize] += 1;
                } else {
                    let a = alone.next().expect("one rate per other flow");
                    assert!(
                        (r - a).abs() <= 1e-12 * a,
                        "seed {seed} flow {i}: {r} vs {a}"
                    );
                }
            }
        }
        assert!(starved.iter().all(|&n| n > 0), "{starved:?}");
    }

    #[test]
    fn views_match_owned_flows() {
        let caps = [120.0, 80.0];
        let flows = [
            flow(&[0, 1], &[2.0, 2.0]),
            flow(&[0], &[1.0]),
            flow(&[1], &[3.0]),
        ];
        let views: Vec<FlowView<'_>> = (0..flows.len())
            .map(|i| flows.as_slice().flow_view(i))
            .collect();
        let from_owned = compute_rates(&caps, &flows, &cfg());
        let mut scratch = SharingScratch::default();
        let mut from_views = Vec::new();
        compute_rates_into(
            &caps,
            views.as_slice(),
            &cfg(),
            &mut scratch,
            &mut from_views,
        );
        assert_eq!(from_owned, from_views);
    }

    #[test]
    fn uniform_weights_bundle_with_per_link_weights() {
        // A Uniform(1.0) view and a PerLink[1.0] flow on the same path
        // must land in the same bundle and split the link evenly.
        let caps = [100.0];
        let path = [LinkId(0)];
        let views = [
            FlowView {
                path: &path,
                weights: FlowWeights::Uniform(1.0),
                priority: 0,
                rate_cap: f64::INFINITY,
            },
            FlowView {
                path: &path,
                weights: FlowWeights::PerLink(&[1.0]),
                priority: 0,
                rate_cap: f64::INFINITY,
            },
        ];
        let mut scratch = SharingScratch::default();
        let mut rates = Vec::new();
        compute_rates_into(&caps, views.as_slice(), &cfg(), &mut scratch, &mut rates);
        assert!((rates[0] - 50.0).abs() < 1e-9, "{rates:?}");
        assert!((rates[1] - 50.0).abs() < 1e-9, "{rates:?}");
    }

    #[test]
    fn bundles_preserve_caps_and_priorities() {
        // 10 identical capped flows + 1 uncapped low-priority flow.
        let mut flows: Vec<SharingFlow> = (0..10)
            .map(|_| {
                let mut f = flow(&[0], &[1.0]);
                f.rate_cap = 5.0;
                f
            })
            .collect();
        let mut lo = flow(&[0], &[1.0]);
        lo.priority = 1;
        flows.push(lo);
        let rates = compute_rates(&[100.0], &flows, &cfg());
        for r in &rates[..10] {
            assert!((r - 5.0).abs() < 1e-9, "{rates:?}");
        }
        // Leftover 50 goes to the low-priority flow.
        assert!((rates[10] - 50.0).abs() < 1e-6, "{rates:?}");
    }

    #[test]
    fn empty_path_flows_bundle_correctly() {
        let mut capped = SharingFlow::best_effort(vec![]);
        capped.rate_cap = 5.0;
        let flows = [
            capped.clone(),
            capped,
            SharingFlow::best_effort(vec![]),
            SharingFlow::best_effort(vec![]),
        ];
        let rates = compute_rates(&[10.0], &flows, &cfg());
        assert!((rates[0] - 5.0).abs() < 1e-9);
        assert!((rates[1] - 5.0).abs() < 1e-9);
        assert!(rates[2].is_infinite());
        assert!(rates[3].is_infinite());
    }

    // --- pod-partitioned allocation tests ---

    /// A synthetic 3-pod fabric: links 0..3 pod 0, 3..6 pod 1, 6..9
    /// pod 2, links 9..12 core.
    fn pod_map() -> Vec<u32> {
        let mut m = vec![0, 0, 0, 1, 1, 1, 2, 2, 2];
        m.extend([CORE_POD; 3]);
        m
    }

    fn pod_local_flows(seed: u64) -> Vec<SharingFlow> {
        let mut state = seed;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) as usize
        };
        (0..90)
            .map(|_| {
                let pod = next() % 3;
                let len = 1 + next() % 2;
                let mut path = Vec::new();
                for _ in 0..len {
                    let l = (pod * 3 + next() % 3) as u32;
                    if !path.contains(&l) {
                        path.push(l);
                    }
                }
                let w: Vec<f64> = path.iter().map(|_| 1.0 + (next() % 3) as f64).collect();
                let mut f = flow(&path, &w);
                f.priority = (next() % 2) as u8;
                if next() % 5 == 0 {
                    f.rate_cap = 20.0 + (next() % 4) as f64 * 15.0;
                }
                f
            })
            .collect()
    }

    #[test]
    fn pods_match_global_when_traffic_is_local() {
        let caps: Vec<f64> = (0..12).map(|i| 80.0 + 5.0 * i as f64).collect();
        let pods = pod_map();
        for seed in 0..10 {
            let flows = pod_local_flows(0x90d ^ (seed * 7 + 1));
            let global = compute_rates(&caps, &flows, &cfg());
            let mut scratch = PodScratch::default();
            let mut partitioned = Vec::new();
            compute_rates_pods(
                &caps,
                flows.as_slice(),
                &cfg(),
                &pods,
                4,
                &mut scratch,
                &mut partitioned,
            );
            for (i, (a, b)) in global.iter().zip(&partitioned).enumerate() {
                let tol = 1e-6 * a.abs().max(b.abs()).max(1.0);
                assert!((a - b).abs() <= tol, "seed {seed} flow {i}: {a} vs {b}");
            }
        }
    }

    #[test]
    fn pods_bit_identical_across_thread_counts() {
        let caps: Vec<f64> = (0..12).map(|i| 100.0 + 3.0 * i as f64).collect();
        let pods = pod_map();
        let mut flows = pod_local_flows(0xabc1);
        // Mix in cross-pod flows spanning two pods through the core.
        for k in 0..20u32 {
            flows.push(flow(
                &[k % 3, 9 + k % 3, 3 + k % 3],
                &[1.0 + (k % 2) as f64; 3],
            ));
        }
        let solve = |threads: usize| {
            let mut scratch = PodScratch::default();
            let mut out = Vec::new();
            compute_rates_pods(
                &caps,
                flows.as_slice(),
                &cfg(),
                &pods,
                threads,
                &mut scratch,
                &mut out,
            );
            out
        };
        let one = solve(1);
        assert_eq!(one, solve(2), "1 vs 2 threads");
        assert_eq!(one, solve(8), "1 vs 8 threads");
    }

    #[test]
    fn pods_with_cross_traffic_stay_feasible() {
        let caps: Vec<f64> = (0..12).map(|i| 60.0 + 4.0 * i as f64).collect();
        let pods = pod_map();
        let mut flows = pod_local_flows(0xfeed);
        for k in 0..30u32 {
            // Cross-pod: pod link → core link → other pod link.
            flows.push(flow(&[k % 9, 9 + k % 3, (k + 4) % 9], &[1.0, 1.0, 1.0]));
        }
        let mut scratch = PodScratch::default();
        let mut rates = Vec::new();
        compute_rates_pods(
            &caps,
            flows.as_slice(),
            &cfg(),
            &pods,
            4,
            &mut scratch,
            &mut rates,
        );
        let mut load = vec![0.0; caps.len()];
        for (f, &r) in flows.iter().zip(&rates) {
            assert!(r >= 0.0 && r.is_finite());
            for &l in &f.path {
                load[l.0 as usize] += r;
            }
        }
        for (l, (&used, &cap)) in load.iter().zip(&caps).enumerate() {
            assert!(used <= cap + 1e-6, "link {l}: {used} > {cap}");
        }
        // The two-phase split stays work-conserving in aggregate: at
        // least as much throughput as 90% of the global solve.
        let global: f64 = compute_rates(&caps, &flows, &cfg()).iter().sum();
        let total: f64 = rates.iter().sum();
        assert!(
            total >= 0.9 * global,
            "partitioned {total} vs global {global}"
        );
    }

    #[test]
    fn pod_scratch_reuse_across_epochs_is_stable() {
        let caps: Vec<f64> = (0..12).map(|i| 70.0 + 2.0 * i as f64).collect();
        let pods = pod_map();
        let a_flows = pod_local_flows(0x11);
        let b_flows = pod_local_flows(0x22);
        let mut scratch = PodScratch::default();
        let mut first = Vec::new();
        let mut other = Vec::new();
        let mut again = Vec::new();
        compute_rates_pods(
            &caps,
            a_flows.as_slice(),
            &cfg(),
            &pods,
            3,
            &mut scratch,
            &mut first,
        );
        compute_rates_pods(
            &caps,
            b_flows.as_slice(),
            &cfg(),
            &pods,
            3,
            &mut scratch,
            &mut other,
        );
        compute_rates_pods(
            &caps,
            a_flows.as_slice(),
            &cfg(),
            &pods,
            3,
            &mut scratch,
            &mut again,
        );
        assert_eq!(first, again);
        assert_eq!(other.len(), b_flows.len());
    }

    #[test]
    fn all_to_all_duplicate_flows_bundle_exactly() {
        // 16 hosts, 8 identical flows per (src, dst) pair: 2048 flows in
        // 240 bundles. Every flow must get cap / (flows per NIC) as if
        // unbundled.
        let hosts = 16usize;
        let dup = 8usize;
        let caps = vec![1000.0; hosts];
        let mut flows = Vec::new();
        for s in 0..hosts {
            for d in 0..hosts {
                if s == d {
                    continue;
                }
                for _ in 0..dup {
                    flows.push(flow(&[s as u32], &[1.0]));
                }
            }
        }
        let rates = compute_rates(&caps, &flows, &cfg());
        let per_flow = 1000.0 / ((hosts - 1) * dup) as f64;
        for (i, r) in rates.iter().enumerate() {
            assert!(
                (r - per_flow).abs() < 1e-9 * per_flow.max(1.0),
                "flow {i}: {r} vs {per_flow}"
            );
        }
    }
}
