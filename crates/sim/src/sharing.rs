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
//! fixed tolerance. A flow behind a saturated link is decided:
//! its bottleneck's fair share already is its rate.
//!
//! # The kernel
//!
//! A fill pass runs on flat arrays the prepared problem carries across
//! calls and the class's up to `1 + REFILL_PASSES` passes share: every
//! bundle's hops as contiguous `(link, weight)` pairs (a bundle of
//! `mult` flows weighs `weight · mult` at each), its `rate_cap · mult`
//! product, and per link the bundles crossing it in canonical order (the
//! order they freeze in when the link drains; classes come first to
//! last). Per priority class the passes share the list of links the
//! class crosses at all and each link's range of its list (a lone class
//! has them up front, each class of several counts them in its base
//! pass), beside the class's **live list**: the bundles that can still
//! gain rate. A pass resets, sums and drains only those links, so a
//! class costs what its own bundles cross, never the size of the fabric.
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
//! above that residue and three below `REFILL_EPSILON`.
//!
//! The pass holds **one live entry per link** in an indexed 4-ary
//! min-heap keyed `(fill level, hops frozen on the link so far, link
//! id)`, packed into one `u128` compared with `<`, with each link
//! knowing its entry's position. A freeze re-keys
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
//! The fill's policy — the refill passes, their tolerance, bundling —
//! is fixed here, not configured: [`SharingScratch::unbundled`] is the
//! one way to rate every flow on its own, the exactness reference that
//! bundling is tested against.
//!
//! # The prepared problem persists
//!
//! What the fill passes run on — the bundles in canonical order, their
//! hops and caps, and per link the bundles crossing it — is kept in the
//! scratch from one call to the next, beside the capacities the call
//! was given and their checked sum. Every source names its flows' keys
//! ([`FlowSource::key_id`]; every fabric model takes the names from
//! `engine::FlowNames`, which follows the engine's stable `FlowId` and
//! hands out a new name when a flow's path, class or cap moves), and
//! each flow is matched to the previous call's by name: a flow found
//! again keeps its bundle without its key being read, and only flows
//! under a new name — arrived, or their key changed — are validated,
//! hashed, sorted and spliced into the order, the link lists and the
//! hop pool; only bundles that lost their last member leave them. When
//! no name is found again, the lists of the emptied problem are laid
//! out in one go once its bundles are made. The canonical order is a
//! function of the bundle keys alone, and the hops and lists are
//! functions of the order and the keys, so a patched problem is the
//! problem a fresh scratch builds — the same bits, not an
//! approximation.
//!
//! [`compute_rates`] remains as a thin convenience wrapper that
//! allocates fresh buffers on every call; with nothing kept, it names
//! the flows by their index.

use crate::ids::LinkId;
use std::cmp::Ordering;

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
/// orders below [`REFILL_EPSILON`], so it gives up nothing a refill
/// pass would have been run for.
const SATURATED: f64 = 1e-9;

/// Work-conservation refill passes after the base pass of a priority
/// class. A refill pass takes in only the bundles that can still gain
/// (below their cap, no saturated link on their path), and the refill
/// ends early when there are none.
const REFILL_PASSES: usize = 3;

/// A refill pass that adds no more than this fraction of the total link
/// capacity ends its class's refill — of the whole fabric the call was
/// given, so the rule loosens as the fabric grows.
const REFILL_EPSILON: f64 = 1e-6;

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

    /// A borrowed view of this flow.
    pub fn view(&self) -> FlowView<'_> {
        FlowView {
            path: &self.path,
            weights: FlowWeights::PerLink(&self.weights),
            priority: self.priority,
            rate_cap: self.rate_cap,
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

/// A source of named [`FlowView`]s: anything the allocator can iterate
/// flows from without copying, such as the engine's `ActiveFlowViews`.
pub trait FlowSource {
    /// Number of flows.
    fn flow_count(&self) -> usize;
    /// A borrowed view of flow `i` (`i < flow_count()`).
    fn flow_view(&self, i: usize) -> FlowView<'_>;
    /// A name for flow `i` *and its key* — its path, per-hop weights,
    /// priority and cap: unique among the source's flows, and a name
    /// seen by a [`SharingScratch`] promises the key it had then, so a
    /// flow must take a new name whenever its key changes. The scratch
    /// keeps every flow whose name it saw in the previous call prepared
    /// without reading its key again (see the module docs).
    fn key_id(&self, i: usize) -> u64;
}

/// Owned flows named by their index: sound for a fresh scratch only,
/// which has seen no name. [`compute_rates`] rates through it, and so
/// do the checks that rate owned flows on a fresh
/// [`SharingScratch::unbundled`].
pub struct ByIndex<'a>(pub &'a [SharingFlow]);

impl FlowSource for ByIndex<'_> {
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

/// An aggregate of `mult` flows sharing one key: the filling state the
/// kernel reads. Bundles live in a slab whose slots keep their index
/// while the bundle lives, so the link lists and the flow → bundle map
/// stay valid while the order changes around them; the key each was
/// formed under sits in a parallel slab of [`BundleKey`]s.
#[derive(Debug, Clone, Copy)]
struct Bundle {
    /// The bundle's range of [`SharingScratch::hops`] (empty for a
    /// same-host transfer).
    hops: (u32, u32),
    /// `rate_cap · mult`.
    cap: f64,
    /// Accumulated rate of the whole bundle.
    rate: f64,
    /// Number of member flows (zero in a free slot).
    mult: u32,
    /// Frozen in the current fill pass.
    assigned: bool,
}

/// The key a [`Bundle`] was formed under, beside its hops in the pool.
#[derive(Debug, Clone, Copy)]
struct BundleKey {
    /// The members' (shared) priority class.
    priority: u8,
    /// Membership changed this call: `cap` waits for the new `mult`.
    resized: bool,
    /// FNV-1a hash of the key: the canonical order after the priority.
    hash: u64,
    /// In an unbundled scratch, the member's name, which orders flows
    /// with identical keys; zero in a bundling one, where keys are
    /// distinct.
    tie: u64,
    /// The members' rate cap.
    rate_cap: f64,
}

/// A flow to be bundled under a new name: arrived, or its key moved.
#[derive(Debug, Clone, Copy)]
struct Pending {
    priority: u8,
    hash: u64,
    /// Index in the source.
    flow: u32,
}

/// "No bundle yet" in the flow → bundle map under construction.
const UNSET: u32 = u32::MAX;

/// One hop of a bundle's path.
#[derive(Debug, Clone, Copy)]
struct Hop {
    link: u32,
    /// The key's weight at this hop; the bundle weighs `w · mult`.
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
    /// The current priority class's part of the link's list, as a range
    /// of [`SharingScratch::crossing`]'s slots, `first..first + count`
    /// (`count` is zero outside the class's links). Classes go in list
    /// order, so once one is done `first` moves past its part: to where
    /// the next class's part starts.
    first: u32,
    count: u32,
}

impl Link {
    /// The fill level: residual capacity per unit of unassigned weight.
    #[inline]
    fn level(&self) -> f64 {
        self.residual.max(0.0) / self.sumw
    }

    /// The heap key link `l` should have in this state.
    #[inline]
    fn key(&self, l: u32) -> HeapKey {
        heap_key(self.level(), self.version, l)
    }
}

/// A link's live heap entry: `(level, version, link)` packed as
/// `level bits · 2^64 + version · 2^32 + link`. Keys are ordered with
/// `<`, lowest first — the order links drain in.
type HeapKey = u128;

/// The key of link `link` at fill level `level` after `version` freezes.
///
/// A level is never negative or NaN, and `+ 0.0` folds a `-0.0` into
/// `0.0`; the bits of the non-negative floats, infinity included, order
/// as the floats do, so the integer order is the order of the tuples.
#[inline]
fn heap_key(level: f64, version: u32, link: u32) -> HeapKey {
    debug_assert!(level >= 0.0, "levels are ordered and non-negative: {level}");
    (u128::from((level + 0.0).to_bits()) << 64) | (u128::from(version) << 32) | u128::from(link)
}

/// The link a heap key belongs to.
#[inline]
fn key_link(key: HeapKey) -> u32 {
    key as u32
}

/// Matches each call's flows to the previous call's by id: the
/// bookkeeping that lets the allocator, or a fabric model, carry
/// per-flow state from one epoch to the next.
///
/// A flow is looked for at its old index first — the engine only
/// appends and swap-removes, so nearly every flow is found there — and
/// the ids left over on both sides are sorted and merged, so a call
/// costs `O(flows)` plus the sort of what moved.
#[derive(Debug, Clone, Default)]
pub(crate) struct FlowMatch {
    /// This call's ids, in flow order.
    ids: Vec<u64>,
    /// The previous call's ids (a buffer between calls).
    before: Vec<u64>,
    /// Per flow of this call, its index in the previous call or
    /// [`UNSET`].
    previous: Vec<u32>,
    /// Indices in the previous call of the flows that are gone.
    departed: Vec<u32>,
    /// How many of this call's flows were in the previous call.
    found: usize,
    /// (id, index) of this call's flows not at their old index, and of
    /// the previous call's flows not found at theirs.
    loose: Vec<(u64, u32)>,
    gone: Vec<(u64, u32)>,
}

impl FlowMatch {
    /// Matches this call's `n` flows, flow `i` with id `id(i)`, to the
    /// previous call's. Ids must be unique within a call.
    pub fn update(&mut self, n: usize, id: impl FnMut(usize) -> u64) {
        std::mem::swap(&mut self.ids, &mut self.before);
        self.ids.clear();
        self.ids.extend((0..n).map(id));
        self.previous.clear();
        self.previous.resize(n, UNSET);
        self.departed.clear();
        self.found = 0;
        let prev = self.before.len();
        // Ids handed out in increasing order (the engine's, a counter's
        // names) put a call that replaced every flow above the last: no
        // flow to look for.
        if self.ids.iter().min() > self.before.iter().max() {
            self.departed.extend(0..prev as u32);
            return;
        }
        self.loose.clear();
        for (i, &x) in self.ids.iter().enumerate() {
            if i < prev && self.before[i] == x {
                self.previous[i] = i as u32;
                self.found += 1;
            } else {
                self.loose.push((x, i as u32));
            }
        }
        if self.found == prev {
            return;
        }
        self.gone.clear();
        for (j, &x) in self.before.iter().enumerate() {
            if self.ids.get(j) != Some(&x) {
                self.gone.push((x, j as u32));
            }
        }
        self.loose.sort_unstable();
        self.gone.sort_unstable();
        let mut g = 0;
        for &(x, i) in &self.loose {
            while g < self.gone.len() && self.gone[g].0 < x {
                self.departed.push(self.gone[g].1);
                g += 1;
            }
            if g < self.gone.len() && self.gone[g].0 == x {
                self.previous[i as usize] = self.gone[g].1;
                self.found += 1;
                g += 1;
            }
        }
        self.departed.extend(self.gone[g..].iter().map(|&(_, j)| j));
    }

    /// This call's ids, in flow order.
    pub fn ids(&self) -> &[u64] {
        &self.ids
    }

    /// Flow `i`'s index in the previous call, if it was there.
    pub fn previous(&self, i: usize) -> Option<usize> {
        let j = self.previous[i];
        (j != UNSET).then_some(j as usize)
    }

    /// How many of this call's flows were in the previous call.
    pub fn found(&self) -> usize {
        self.found
    }

    /// The previous call's indices of the flows that are gone.
    pub fn departed(&self) -> &[u32] {
        &self.departed
    }
}

/// Per link, a list of bundles, all in one flat array: link `l`'s list
/// is `slots[first..first + len]`, at the start of a region of `room`
/// slots it grows into. The lists of an emptied problem are laid out
/// back to back in one go ([`LinkLists::build`]); after that a full list
/// moves to a region twice the size at the end of the array, and once
/// most of the array is abandoned regions, [`LinkLists::pack`] closes the
/// gaps.
#[derive(Debug, Clone, Default)]
struct LinkLists {
    slots: Vec<u32>,
    spans: Vec<Span>,
    /// The links whose list is not empty, in no particular order.
    used: Vec<u32>,
    /// The links with a region, in no particular order: an emptied
    /// problem resets these, not every link.
    owned: Vec<u32>,
    /// Slots in abandoned regions.
    garbage: usize,
}

/// One link's list in [`LinkLists`].
#[derive(Debug, Clone, Copy, Default)]
struct Span {
    first: u32,
    len: u32,
    room: u32,
    /// The link's index in [`LinkLists::used`] while its list is not
    /// empty.
    at: u32,
}

impl LinkLists {
    /// An empty list, with no region, per link of `num_links`.
    fn reset(&mut self, num_links: usize) {
        for &l in &self.owned {
            self.spans[l as usize] = Span::default();
        }
        self.owned.clear();
        self.used.clear();
        self.slots.clear();
        self.garbage = 0;
        self.spans.resize(num_links, Span::default());
    }

    /// Lays out the lists of an emptied problem: per link, the bundles
    /// of `order` crossing it, in that order, each list in a region of
    /// its own size, back to back. `hops` holds exactly the bundles'
    /// hops.
    fn build(&mut self, order: &[u32], bundles: &[Bundle], hops: &[Hop]) {
        debug_assert!(self.slots.is_empty(), "only an emptied problem is built");
        for hop in hops {
            let span = &mut self.spans[hop.link as usize];
            if span.len == 0 {
                span.at = self.used.len() as u32;
                self.used.push(hop.link);
            }
            span.len += 1;
        }
        let mut next = 0;
        for &l in &self.used {
            let span = &mut self.spans[l as usize];
            span.first = next;
            span.room = span.len;
            span.len = 0;
            next += span.room;
        }
        self.owned.extend_from_slice(&self.used);
        self.slots.resize(next as usize, 0);
        for &b in order {
            let (first, end) = bundles[b as usize].hops;
            for hop in &hops[first as usize..end as usize] {
                let span = &mut self.spans[hop.link as usize];
                self.slots[(span.first + span.len) as usize] = b;
                span.len += 1;
            }
        }
    }

    /// Takes link `l`, whose list just emptied, off the used links.
    fn unuse(&mut self, l: u32) {
        let at = self.spans[l as usize].at;
        self.used.swap_remove(at as usize);
        if let Some(&moved) = self.used.get(at as usize) {
            self.spans[moved as usize].at = at;
        }
    }

    /// Inserts `b` into link `l`'s list after the entries `before` holds
    /// for (a prefix of the list).
    fn insert_sorted(&mut self, l: u32, b: u32, before: impl Fn(u32) -> bool) {
        let span = &mut self.spans[l as usize];
        let list = &self.slots[span.first as usize..(span.first + span.len) as usize];
        let pos = match list.last() {
            Some(&x) if !before(x) => list.partition_point(|&x| before(x)),
            _ => list.len(),
        };
        if span.len == span.room {
            if span.room == 0 {
                self.owned.push(l);
            }
            let first = self.slots.len();
            let room = (2 * span.room).max(4);
            self.slots
                .extend_from_within(span.first as usize..(span.first + span.len) as usize);
            self.slots.resize(first + room as usize, 0);
            self.garbage += span.room as usize;
            span.first = u32::try_from(first).expect("fewer than 2^32 list slots");
            span.room = room;
        }
        let at = span.first as usize + pos;
        let end = (span.first + span.len) as usize;
        if at < end {
            self.slots.copy_within(at..end, at + 1);
        }
        self.slots[at] = b;
        span.len += 1;
        if span.len == 1 {
            span.at = self.used.len() as u32;
            self.used.push(l);
        }
    }

    /// Removes `b` from link `l`'s list.
    fn remove(&mut self, l: u32, b: u32) {
        let span = &mut self.spans[l as usize];
        let list = &mut self.slots[span.first as usize..(span.first + span.len) as usize];
        let pos = list
            .iter()
            .position(|&x| x == b)
            .expect("a bundle is on the list of every link it crosses");
        list.copy_within(pos + 1.., pos);
        span.len -= 1;
        if span.len == 0 {
            self.unuse(l);
        }
    }

    /// Closes the gaps once most of the array is abandoned regions,
    /// sliding the regions down in array order (sorted in `by_first`).
    fn pack(&mut self, by_first: &mut Vec<(u32, u32)>) {
        if self.garbage <= self.slots.len() / 2 {
            return;
        }
        by_first.clear();
        by_first.extend(
            self.owned
                .iter()
                .map(|&l| (self.spans[l as usize].first, l)),
        );
        by_first.sort_unstable();
        let mut to = 0;
        for &(first, l) in by_first.iter() {
            let span = &mut self.spans[l as usize];
            self.slots
                .copy_within(first as usize..(first + span.len) as usize, to as usize);
            span.first = to;
            to += span.room;
        }
        self.slots.truncate(to as usize);
        self.garbage = 0;
    }
}

/// Reusable working state for [`compute_rates_into`].
///
/// Holds the prepared problem — the bundles in canonical order, their
/// hops and keys, and per link the bundles crossing it — which persists
/// from one call to the next (see the module docs), and every buffer the
/// progressive filling needs, so that repeated allocation epochs perform
/// no heap allocations once the buffers have grown to the topology's and
/// flow set's sizes.
#[derive(Debug, Clone, Default)]
pub struct SharingScratch {
    /// The capacities of the last call, checked, and their sum.
    capacities: Vec<f64>,
    total_capacity: f64,
    /// Per-link state, reset from the capacities on every call for the
    /// links some bundle crosses.
    links: Vec<Link>,
    /// Links crossed by a bundle of the current class.
    active: Vec<u32>,
    /// The fill heap: a 4-ary min-heap holding one entry per link that
    /// still has unassigned weight, located through [`Link::heap_pos`].
    heap: Vec<HeapKey>,
    /// The current class's bundles (canonical order) that can still gain
    /// rate: each fill pass starts by dropping those that no longer can,
    /// for good.
    live: Vec<u32>,
    /// The bundle slab, and the key each bundle was formed under.
    bundles: Vec<Bundle>,
    bundle_keys: Vec<BundleKey>,
    /// Free slots of the slab.
    free: Vec<u32>,
    /// The bundles, sorted by (priority, key hash, key, tie): the
    /// canonical order. The hash is a cheap sort prefix; ties are broken
    /// by the full key comparison, so collisions cost time, never
    /// correctness.
    order: Vec<u32>,
    /// The hop pool: each bundle's hops, contiguous.
    hops: Vec<Hop>,
    /// Hops in the pool that no bundle owns any more.
    garbage: usize,
    /// Per link, the bundles crossing it in canonical order: the order
    /// they freeze in when the link drains.
    crossing: LinkLists,
    /// The flows of the last call and this one, matched by the names of
    /// their keys.
    matching: FlowMatch,
    /// Flow index → bundle.
    bundle_of: Vec<u32>,
    /// Rates every flow on its own, never bundling: for the whole life
    /// of the scratch ([`SharingScratch::unbundled`]).
    unbundled: bool,
    /// The link count the problem was prepared for.
    num_links: usize,
    /// [`prepare`]'s per-call buffers.
    work: Work,
}

/// [`prepare`]'s per-call buffers.
#[derive(Debug, Clone, Default)]
struct Work {
    /// This call's flow → bundle map, swapped into the scratch at the end.
    bundle_of: Vec<u32>,
    /// The flows to bundle under a new name.
    pending: Vec<Pending>,
    /// Bundles whose membership changed.
    touched: Vec<u32>,
    /// New bundles, in canonical order.
    fresh: Vec<u32>,
    /// The buffer the order is rebuilt into.
    order: Vec<u32>,
    /// (offset, bundle or link) pairs: the pools' and the link lists'
    /// live ranges in the order they sit, to close the gaps between.
    by_offset: Vec<(u32, u32)>,
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
/// use saba_sim::sharing::{compute_rates, SharingFlow};
///
/// // Two equal flows through one 100 B/s link split it evenly.
/// let caps = [100.0];
/// let f = SharingFlow::best_effort(vec![LinkId(0)]);
/// let rates = compute_rates(&caps, &[f.clone(), f]);
/// assert!((rates[0] - 50.0).abs() < 1e-6);
/// assert!((rates[1] - 50.0).abs() < 1e-6);
/// ```
pub fn compute_rates(capacities: &[f64], flows: &[SharingFlow]) -> Vec<f64> {
    let mut scratch = SharingScratch::default();
    let mut out = Vec::new();
    compute_rates_into(capacities, &ByIndex(flows), &mut scratch, &mut out);
    out
}

/// Computes per-flow rates into `out` (cleared and refilled, aligned
/// with the source), reusing `scratch` across calls.
///
/// This is the engine's epoch fast path: after warm-up it performs no
/// heap allocations, and only the flows under a name
/// ([`FlowSource::key_id`]) new since the previous call on the same
/// scratch are prepared again. Flows are read through [`FlowView`]s, so
/// `flows` may be any zero-copy adapter over a fabric model's own
/// storage.
///
/// # Panics
///
/// As [`compute_rates`]; capacities are checked when they differ from
/// the previous call's, a flow when its name is new to the scratch.
pub fn compute_rates_into<F: FlowSource + ?Sized>(
    capacities: &[f64],
    flows: &F,
    scratch: &mut SharingScratch,
    out: &mut Vec<f64>,
) {
    scratch.check_capacities(capacities);
    let n = flows.flow_count();
    out.clear();
    out.resize(n, 0.0);
    if n == 0 {
        return;
    }
    prepare(capacities.len(), flows, scratch);
    fill(capacities, REFILL_PASSES, scratch, out);
}

/// Rates the prepared problem in `scratch` over `capacities` into `out`
/// (sized to the flows): per class a base pass and up to
/// `refill_passes` refill passes ([`REFILL_PASSES`] but in the tests of
/// the refill rule), then each bundle's rate divided over its members.
fn fill(capacities: &[f64], refill_passes: usize, scratch: &mut SharingScratch, out: &mut [f64]) {
    // Strict-priority classes, highest (numerically lowest) first. The
    // canonical order starts with the priority, so classes are
    // contiguous ranges of it, and of every link's list. Only the links
    // some bundle crosses take part, each from its capacity. A problem
    // of one class (every WFQ fabric's) opens each such link's whole
    // list here, so its base pass need not count them ([`Pass::Base`]);
    // a class of several opens its links as its base pass meets them
    // ([`Pass::Open`]), so it costs what its own bundles cross.
    let priority = |s: &SharingScratch, k: usize| s.bundle_keys[s.order[k] as usize].priority;
    let nb = scratch.order.len();
    let one_class = priority(scratch, 0) == priority(scratch, nb - 1);
    let SharingScratch {
        links,
        active,
        heap,
        crossing,
        ..
    } = scratch;
    let idle = Link {
        residual: 0.0,
        sumw: 0.0,
        version: 0,
        heap_pos: ABSENT,
        first: 0,
        count: 0,
    };
    links.resize(capacities.len(), idle);
    for &l in &crossing.used {
        let span = crossing.spans[l as usize];
        links[l as usize] = Link {
            residual: capacities[l as usize],
            first: span.first,
            count: if one_class { span.len } else { 0 },
            ..idle
        };
    }
    active.clear();
    if one_class {
        active.extend_from_slice(&crossing.used);
    }
    heap.clear();

    let mut start = 0;
    while start < nb {
        let class = priority(scratch, start);
        let keys = &scratch.bundle_keys;
        let end =
            start + scratch.order[start..].partition_point(|&b| keys[b as usize].priority == class);
        scratch.live.clear();
        scratch.live.extend_from_slice(&scratch.order[start..end]);
        if !one_class {
            scratch.active.clear();
        }
        let base = if one_class { Pass::Base } else { Pass::Open };
        fill_once(capacities, base, scratch);
        for _ in 0..refill_passes {
            let added = fill_once(capacities, Pass::Refill, scratch);
            if added <= REFILL_EPSILON * scratch.total_capacity.max(1.0) {
                break;
            }
        }
        for &l in &scratch.active {
            let link = &mut scratch.links[l as usize];
            link.first += link.count;
            link.count = 0;
        }
        start = end;
    }

    // Divide each bundle's rate back over its members. Members are
    // identical, so each gets exactly a `1/mult` share.
    for (r, &b) in out.iter_mut().zip(&scratch.bundle_of) {
        let bundle = &scratch.bundles[b as usize];
        *r = if bundle.rate.is_infinite() {
            f64::INFINITY
        } else {
            bundle.rate / f64::from(bundle.mult)
        };
    }
}

/// Checks one flow against the allocator's input contract.
fn validate(num_links: usize, i: usize, f: &FlowView<'_>) {
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
            (l.0 as usize) < num_links,
            "flow {i}: link {l} out of range"
        );
        assert!(
            w.is_finite() && w >= MIN_WEIGHT,
            "flow {i}: weight must be positive and at least {MIN_WEIGHT:e}, got {w}"
        );
    }
    assert!(f.rate_cap >= 0.0, "flow {i}: negative rate cap");
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

/// What the canonical key order reads of a flow's view or of a
/// bundle's stored key.
trait KeyRead {
    fn priority(&self) -> u8;
    fn hops(&self) -> usize;
    fn link(&self, hop: usize) -> u32;
    fn weight(&self, hop: usize) -> f64;
    fn rate_cap(&self) -> f64;
}

impl KeyRead for FlowView<'_> {
    fn priority(&self) -> u8 {
        self.priority
    }
    fn hops(&self) -> usize {
        self.path.len()
    }
    fn link(&self, hop: usize) -> u32 {
        self.path[hop].0
    }
    fn weight(&self, hop: usize) -> f64 {
        self.weights.at(hop)
    }
    fn rate_cap(&self) -> f64 {
        self.rate_cap
    }
}

/// A bundle's key as the scratch holds it.
struct StoredKey<'a> {
    key: &'a BundleKey,
    hops: &'a [Hop],
}

impl KeyRead for StoredKey<'_> {
    fn priority(&self) -> u8 {
        self.key.priority
    }
    fn hops(&self) -> usize {
        self.hops.len()
    }
    fn link(&self, hop: usize) -> u32 {
        self.hops[hop].link
    }
    fn weight(&self, hop: usize) -> f64 {
        self.hops[hop].w
    }
    fn rate_cap(&self) -> f64 {
        self.key.rate_cap
    }
}

/// Total order over bundle keys: (priority, path, per-hop weights,
/// rate cap). Flows comparing equal are aggregated into one bundle;
/// leading with the priority keeps each strict-priority class a
/// contiguous range of the sorted bundle list.
fn cmp_bundle_key(a: &impl KeyRead, b: &impl KeyRead) -> Ordering {
    let hops = a.hops();
    let links = || (0..hops).map(|h| a.link(h).cmp(&b.link(h)));
    let weights = || (0..hops).map(|h| a.weight(h).total_cmp(&b.weight(h)));
    a.priority()
        .cmp(&b.priority())
        .then_with(|| hops.cmp(&b.hops()))
        .then_with(|| {
            links()
                .chain(weights())
                .find(|o| o.is_ne())
                .unwrap_or(Ordering::Equal)
        })
        .then_with(|| a.rate_cap().total_cmp(&b.rate_cap()))
}

/// The canonical order of two flows to bundle. Unbundled, `ties` (the
/// flows' names) orders flows with identical keys.
#[inline]
fn cmp_pending<F: FlowSource + ?Sized>(
    flows: &F,
    ties: Option<&[u64]>,
    a: &Pending,
    b: &Pending,
) -> Ordering {
    match (a.priority, a.hash).cmp(&(b.priority, b.hash)) {
        Ordering::Equal => cmp_pending_keys(flows, ties, a, b),
        ord => ord,
    }
}

/// [`cmp_pending`] past the hash: the full keys, then the ties.
#[inline(never)]
fn cmp_pending_keys<F: FlowSource + ?Sized>(
    flows: &F,
    ties: Option<&[u64]>,
    a: &Pending,
    b: &Pending,
) -> Ordering {
    cmp_bundle_key(
        &flows.flow_view(a.flow as usize),
        &flows.flow_view(b.flow as usize),
    )
    .then_with(|| {
        ties.map_or(Ordering::Equal, |ids| {
            ids[a.flow as usize].cmp(&ids[b.flow as usize])
        })
    })
}

/// The bundles' stored keys, borrowed apart from the structures ordered
/// by them.
#[derive(Clone, Copy)]
struct Keys<'a> {
    bundles: &'a [Bundle],
    keys: &'a [BundleKey],
    hops: &'a [Hop],
}

impl<'a> Keys<'a> {
    /// Bundle `b`'s key.
    fn stored(&self, b: u32) -> StoredKey<'a> {
        let (first, end) = self.bundles[b as usize].hops;
        StoredKey {
            key: &self.keys[b as usize],
            hops: &self.hops[first as usize..end as usize],
        }
    }

    /// Whether flow `v` has exactly bundle `b`'s key — what
    /// [`cmp_bundle_key`] calls equal: the promise a flow's name makes,
    /// checked in debug builds.
    fn holds(&self, b: u32, v: &FlowView<'_>) -> bool {
        let stored = self.stored(b);
        if v.path.len() != stored.hops.len()
            || v.priority != stored.key.priority
            || v.rate_cap.to_bits() != stored.key.rate_cap.to_bits()
        {
            return false;
        }
        if let FlowWeights::PerLink(ws) = v.weights {
            if ws.len() != v.path.len() {
                return false;
            }
        }
        v.path
            .iter()
            .zip(stored.hops)
            .enumerate()
            .all(|(h, (l, hop))| l.0 == hop.link && v.weights.at(h).to_bits() == hop.w.to_bits())
    }

    /// The canonical order of bundles `a` and `b`.
    #[inline]
    fn cmp(&self, a: u32, b: u32) -> Ordering {
        let (x, y) = (&self.keys[a as usize], &self.keys[b as usize]);
        match (x.priority, x.hash).cmp(&(y.priority, y.hash)) {
            Ordering::Equal => {
                cmp_bundle_key(&self.stored(a), &self.stored(b)).then_with(|| x.tie.cmp(&y.tie))
            }
            ord => ord,
        }
    }

    /// Bundle `b`'s key against that of flow `p`, to bundle.
    fn cmp_pending<F: FlowSource + ?Sized>(&self, b: u32, flows: &F, p: &Pending) -> Ordering {
        let x = &self.keys[b as usize];
        (x.priority, x.hash)
            .cmp(&(p.priority, p.hash))
            .then_with(|| cmp_bundle_key(&self.stored(b), &flows.flow_view(p.flow as usize)))
    }
}

impl SharingScratch {
    /// A scratch that never bundles: every flow is rated on its own, a
    /// bundle of one, in the canonical order with its name breaking ties
    /// between identical keys. The exactness reference bundling is held
    /// to (bundled and unbundled rates agree within 1e-9); production
    /// callers use [`SharingScratch::default`], which bundles.
    pub fn unbundled() -> Self {
        Self {
            unbundled: true,
            ..Self::default()
        }
    }

    /// Checks `capacities` and takes their sum, unless they are the last
    /// call's.
    fn check_capacities(&mut self, capacities: &[f64]) {
        if capacities == self.capacities.as_slice() {
            return;
        }
        self.total_capacity = capacities
            .iter()
            .enumerate()
            .map(|(l, &c)| {
                assert!(
                    c.is_finite() && c >= 0.0,
                    "link l{l}: capacity must be finite and non-negative, got {c}"
                );
                c
            })
            .sum();
        self.capacities.clear();
        self.capacities.extend_from_slice(capacities);
    }

    fn keys(&self) -> Keys<'_> {
        Keys {
            bundles: &self.bundles,
            keys: &self.bundle_keys,
            hops: &self.hops,
        }
    }

    /// Drops every bundle: its slot, its hops and the link lists.
    fn discard_bundles(&mut self) {
        self.crossing.reset(self.num_links);
        self.bundles.clear();
        self.bundle_keys.clear();
        self.free.clear();
        self.order.clear();
        self.hops.clear();
        self.garbage = 0;
    }

    /// A new bundle of `mult` flows with view `v`'s key, `key`, its hops
    /// at the end of the pool, put on its links' lists unless the problem
    /// is `appending` (an emptied problem's lists are laid out once all
    /// its bundles are made).
    fn add_bundle(&mut self, v: &FlowView<'_>, key: BundleKey, mult: u32, appending: bool) -> u32 {
        let first = self.hops.len();
        self.hops
            .extend(v.path.iter().enumerate().map(|(hop, l)| Hop {
                link: l.0,
                w: v.weights.at(hop),
            }));
        // Versions and list offsets count hops in 32 bits.
        let hops = (
            u32::try_from(first).expect("fewer than 2^32 hops"),
            u32::try_from(self.hops.len()).expect("fewer than 2^32 hops"),
        );
        let bundle = Bundle {
            hops,
            cap: v.rate_cap * f64::from(mult),
            rate: 0.0,
            mult,
            assigned: false,
        };
        let b = match self.free.pop() {
            Some(b) => {
                self.bundles[b as usize] = bundle;
                self.bundle_keys[b as usize] = key;
                b
            }
            None => {
                self.bundles.push(bundle);
                self.bundle_keys.push(key);
                (self.bundles.len() - 1) as u32
            }
        };
        if !appending {
            let keys = Keys {
                bundles: &self.bundles,
                keys: &self.bundle_keys,
                hops: &self.hops,
            };
            for hop in &self.hops[first..] {
                self.crossing
                    .insert_sorted(hop.link, b, |x| keys.cmp(x, b) == Ordering::Less);
            }
        }
        b
    }

    /// Membership of bundle `b` changed by `delta`.
    fn resize(&mut self, work: &mut Work, b: u32, delta: i64) {
        let bundle = &mut self.bundles[b as usize];
        bundle.mult = (i64::from(bundle.mult) + delta) as u32;
        let key = &mut self.bundle_keys[b as usize];
        if !key.resized {
            key.resized = true;
            work.touched.push(b);
        }
    }
}

/// Brings the prepared problem in `s` up to `flows`, over `num_links`
/// links, bundled unless the scratch is [`SharingScratch::unbundled`].
///
/// Flows are matched to the last call's by the name of their key
/// ([`FlowMatch`]), and a flow found again keeps its bundle. The others
/// are validated, hashed and sorted, and join the bundle with their key
/// or make a new one, spliced into the order, the link lists and the hop
/// pool; a bundle left without members leaves them. A new link count
/// starts from an empty problem.
fn prepare<F: FlowSource + ?Sized>(num_links: usize, flows: &F, s: &mut SharingScratch) {
    let n = flows.flow_count();
    let bundling = !s.unbundled;
    if s.num_links != num_links {
        s.num_links = num_links;
        s.discard_bundles();
        // Forget the previous call: every flow of this one is new.
        s.matching = FlowMatch::default();
    }
    s.matching.update(n, |i| flows.key_id(i));
    let mut w = std::mem::take(&mut s.work);

    // A flow found again keeps its bundle: its name promises its key.
    // The others are checked and keyed, to be bundled below.
    let key = |i: usize| {
        let v = flows.flow_view(i);
        validate(num_links, i, &v);
        Pending {
            priority: v.priority,
            hash: hash_bundle_key(&v),
            flow: i as u32,
        }
    };
    w.bundle_of.clear();
    w.bundle_of.resize(n, UNSET);
    w.pending.clear();
    if s.matching.found() == 0 {
        w.pending.extend((0..n).map(key));
    } else {
        for i in 0..n {
            match s.matching.previous(i) {
                Some(j) => {
                    let b = s.bundle_of[j];
                    debug_assert!(
                        s.keys().holds(b, &flows.flow_view(i)),
                        "flow {i} kept the name of its key but not the key"
                    );
                    w.bundle_of[i] = b;
                }
                None => w.pending.push(key(i)),
            }
        }
    }

    retire(s, &mut w);

    // The keyed flows in canonical order.
    let ties = (!bundling).then_some(s.matching.ids());
    w.pending
        .sort_unstable_by(|a, b| cmp_pending(flows, ties, a, b));

    // Each run of equal keys joins the live bundle with that key if there
    // is one, or makes a new bundle.
    let appending = s.order.is_empty();
    w.fresh.clear();
    if appending {
        w.fresh.reserve(w.pending.len());
        s.bundles.reserve(w.pending.len());
        s.bundle_keys.reserve(w.pending.len());
    }
    let mut k = 0;
    while k < w.pending.len() {
        let p = w.pending[k];
        let mut end = k + 1;
        if bundling {
            while end < w.pending.len()
                && cmp_pending(flows, None, &p, &w.pending[end]) == Ordering::Equal
            {
                end += 1;
            }
        }
        let mult = (end - k) as u32;
        let members = &w.pending[k..end];
        k = end;
        if bundling && !appending {
            let keys = s.keys();
            if let Ok(pos) = s
                .order
                .binary_search_by(|&b| keys.cmp_pending(b, flows, &p))
            {
                let b = s.order[pos];
                for m in members {
                    w.bundle_of[m.flow as usize] = b;
                }
                s.resize(&mut w, b, i64::from(mult));
                continue;
            }
        }
        let v = flows.flow_view(p.flow as usize);
        let key = BundleKey {
            priority: p.priority,
            resized: false,
            hash: p.hash,
            tie: if bundling {
                0
            } else {
                s.matching.ids()[p.flow as usize]
            },
            rate_cap: v.rate_cap,
        };
        let b = s.add_bundle(&v, key, mult, appending);
        for m in members {
            w.bundle_of[m.flow as usize] = b;
        }
        w.fresh.push(b);
    }

    settle(s, &mut w, appending);
    s.work = w;
}

/// The departed flows leave their bundles. A bundle left without
/// members leaves its links' lists and the order, and frees its slot
/// (its hops turn garbage) for the new bundles. When no flow kept its
/// bundle, every bundle goes at once.
fn retire(s: &mut SharingScratch, w: &mut Work) {
    w.touched.clear();
    if s.matching.found() == 0 {
        s.discard_bundles();
        return;
    }
    for k in 0..s.matching.departed().len() {
        let b = s.bundle_of[s.matching.departed()[k] as usize];
        s.resize(w, b, -1);
    }
    let mut dead = false;
    for &b in &w.touched {
        let bundle = &s.bundles[b as usize];
        if bundle.mult == 0 {
            dead = true;
            s.bundle_keys[b as usize].resized = false;
            s.garbage += (bundle.hops.1 - bundle.hops.0) as usize;
            s.free.push(b);
            for hop in &s.hops[bundle.hops.0 as usize..bundle.hops.1 as usize] {
                s.crossing.remove(hop.link, b);
            }
        }
    }
    if dead {
        let bundles = &s.bundles;
        s.order.retain(|&b| bundles[b as usize].mult > 0);
        w.touched.retain(|&b| bundles[b as usize].mult > 0);
    }
}

/// The rest of [`prepare`], past the flows: survivors take their new
/// multiplicity, the new bundles (`w.fresh`, in canonical order) their
/// places in the order and the lists of an emptied (`appending`)
/// problem are laid out, the pools are packed once mostly garbage, and
/// `w.bundle_of` becomes the flow → bundle map.
fn settle(s: &mut SharingScratch, w: &mut Work, appending: bool) {
    // Survivors whose membership changed take their new multiplicity.
    for &b in &w.touched {
        let bundle = &mut s.bundles[b as usize];
        s.bundle_keys[b as usize].resized = false;
        bundle.cap = s.bundle_keys[b as usize].rate_cap * f64::from(bundle.mult);
    }

    // The new bundles take their places in the order.
    if appending {
        std::mem::swap(&mut s.order, &mut w.fresh);
        s.crossing.build(&s.order, &s.bundles, &s.hops);
    } else if !w.fresh.is_empty() {
        let keys = s.keys();
        w.order.clear();
        let mut a = 0;
        for &f in &w.fresh {
            let at = a + s.order[a..].partition_point(|&x| keys.cmp(x, f) == Ordering::Less);
            w.order.extend_from_slice(&s.order[a..at]);
            w.order.push(f);
            a = at;
        }
        w.order.extend_from_slice(&s.order[a..]);
        std::mem::swap(&mut s.order, &mut w.order);
    }

    // Once most of the pool is garbage, slide the live ranges down over
    // it, in pool order.
    if s.garbage > s.hops.len() / 2 {
        w.by_offset.clear();
        w.by_offset
            .extend(s.order.iter().map(|&b| (s.bundles[b as usize].hops.0, b)));
        w.by_offset.sort_unstable();
        let mut to = 0;
        for &(first, b) in &w.by_offset {
            let bundle = &mut s.bundles[b as usize];
            let len = bundle.hops.1 - first;
            s.hops
                .copy_within(first as usize..bundle.hops.1 as usize, to as usize);
            bundle.hops = (to, to + len);
            to += len;
        }
        s.hops.truncate(to as usize);
        s.garbage = 0;
    }
    s.crossing.pack(&mut w.by_offset);

    debug_assert!(!w.bundle_of.contains(&UNSET), "every flow is bundled");
    std::mem::swap(&mut s.bundle_of, &mut w.bundle_of);
}

/// Which of a class's fill passes [`fill_once`] runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Pass {
    /// The base pass of a class whose links are open.
    Base,
    /// The base pass of a class that opens its links as it goes: the
    /// first bundle of the class to cross a link puts it into
    /// `scratch.active`, and every one counts itself into the link's
    /// part of its list, which starts at the link's `first`.
    Open,
    /// A refill pass.
    Refill,
}

/// Children per heap node.
const ARITY: usize = 4;

/// Moves the entry at `i` towards the root until its parent orders
/// before it; returns where it lands.
fn sift_up(heap: &mut [HeapKey], links: &mut [Link], mut i: usize) -> usize {
    let key = heap[i];
    while i > 0 {
        let parent = (i - 1) / ARITY;
        if key >= heap[parent] {
            break;
        }
        heap[i] = heap[parent];
        links[key_link(heap[i]) as usize].heap_pos = i as u32;
        i = parent;
    }
    heap[i] = key;
    links[key_link(key) as usize].heap_pos = i as u32;
    i
}

/// Moves the entry at `i` towards the leaves until it orders before
/// every child.
fn sift_down(heap: &mut [HeapKey], links: &mut [Link], mut i: usize) {
    let key = heap[i];
    loop {
        let first = ARITY * i + 1;
        if first >= heap.len() {
            break;
        }
        let mut least = first;
        for child in first + 1..(first + ARITY).min(heap.len()) {
            if heap[child] < heap[least] {
                least = child;
            }
        }
        if heap[least] >= key {
            break;
        }
        heap[i] = heap[least];
        links[key_link(heap[i]) as usize].heap_pos = i as u32;
        i = least;
    }
    heap[i] = key;
    links[key_link(key) as usize].heap_pos = i as u32;
}

/// Gives link `l` the key of its current state, inserting it if it has
/// no entry. The level may move either way (rounding can lower it by an
/// ulp), so the entry sifts both ways.
fn heap_upsert(heap: &mut Vec<HeapKey>, links: &mut [Link], l: u32) {
    let link = &links[l as usize];
    let key = link.key(l);
    let i = if link.heap_pos == ABSENT {
        heap.push(key);
        heap.len() - 1
    } else {
        heap[link.heap_pos as usize] = key;
        link.heap_pos as usize
    };
    let i = sift_up(heap, links, i);
    sift_down(heap, links, i);
}

/// Drops link `l`'s entry, if it has one.
fn heap_remove(heap: &mut Vec<HeapKey>, links: &mut [Link], l: u32) {
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

/// One progressive-filling pass over the live bundles of the current
/// class (`scratch.live`), *adding* allocated rate to the bundles and
/// subtracting it from the links' residuals; a base pass starts every
/// bundle from zero. Returns the total rate added — zero when nothing
/// is live any more.
fn fill_once(capacities: &[f64], pass: Pass, scratch: &mut SharingScratch) -> f64 {
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
        if pass == Pass::Open {
            for hop in path {
                let link = &mut links[hop.link as usize];
                if link.count == 0 {
                    active.push(hop.link);
                    link.sumw = 0.0;
                    link.version = 0;
                }
                link.count += 1;
            }
        }
        if path.is_empty() {
            // Same-host transfer: not limited by the fabric.
            bundle.rate = bundle.cap;
        } else if pass != Pass::Refill {
            bundle.rate = 0.0;
        }
        let gains = bundle.rate < bundle.cap
            && path.iter().all(|hop| {
                let l = hop.link as usize;
                links[l].residual > SATURATED * capacities[l]
            });
        bundle.assigned = !gains;
        if gains {
            let m = f64::from(bundle.mult);
            for hop in path {
                links[hop.link as usize].sumw += hop.w * m;
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
            heap.push(link.key(l));
        }
    }
    for i in (0..heap.len().div_ceil(ARITY)).rev() {
        sift_down(heap, links, i);
    }

    let mut added = 0.0;
    while let Some(&key) = heap.first() {
        let l = key_link(key);
        // Out of the heap for good: after its list every bundle crossing
        // this link is assigned, so no later freeze can touch it.
        heap_remove(heap, links, l);
        let Link { first, count, .. } = links[l as usize];
        // Freeze every unassigned bundle crossing this link at the
        // minimum of its weighted share over its path (capped by its
        // headroom).
        for &b in &crossing.slots[first as usize..(first + count) as usize] {
            let bundle = &mut bundles[b as usize];
            if bundle.assigned {
                continue;
            }
            let path = &hops[bundle.hops.0 as usize..bundle.hops.1 as usize];
            let m = f64::from(bundle.mult);
            let mut share = bundle.cap - bundle.rate;
            for hop in path {
                // The bundle's own weight is part of every sum it is
                // charged against, even where rounding lost it.
                let link = &links[hop.link as usize];
                let w = hop.w * m;
                let s = w * (link.residual.max(0.0) / link.sumw.max(w));
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
                link.sumw -= hop.w * m;
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

#[cfg(test)]
#[path = "../tests/fill_problems/mod.rs"]
mod fill_problems;

#[cfg(test)]
mod tests {
    use super::fill_problems::{self, cap_bound_three_refills, spine_leaf_shape, Lcg};
    use super::*;
    use proptest::prelude::*;

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
        let rates = compute_rates(&[100.0], &[flow(&[0], &[1.0])]);
        assert!((rates[0] - 100.0).abs() < 1e-9);
    }

    #[test]
    fn weights_split_proportionally() {
        let flows = [flow(&[0], &[3.0]), flow(&[0], &[1.0])];
        let rates = compute_rates(&[100.0], &flows);
        assert!((rates[0] - 75.0).abs() < 1e-6, "{rates:?}");
        assert!((rates[1] - 25.0).abs() < 1e-6);
    }

    #[test]
    fn multi_link_bottleneck_is_respected() {
        // Flow A spans links 0 (cap 100) and 1 (cap 10): bottleneck 10.
        // Flow B uses only link 0 and picks up the slack.
        let flows = [flow(&[0, 1], &[1.0, 1.0]), flow(&[0], &[1.0])];
        let rates = compute_rates(&[100.0, 10.0], &flows);
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
        let rates = compute_rates(&[100.0, 100.0, 100.0], &flows);
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
        let rates = compute_rates(&[100.0, 100.0], &flows);
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
        let rates = compute_rates(&[100.0], &flows);
        assert!((rates[0] - 10.0).abs() < 1e-6, "{rates:?}");
        assert!((rates[1] - 90.0).abs() < 1e-6, "{rates:?}");
    }

    #[test]
    fn strict_priority_starves_lower_class() {
        let mut hi = flow(&[0], &[1.0]);
        hi.priority = 0;
        let mut lo = flow(&[0], &[1.0]);
        lo.priority = 1;
        let rates = compute_rates(&[100.0], &[lo.clone(), hi.clone()]);
        assert!((rates[1] - 100.0).abs() < 1e-6, "{rates:?}");
        assert!(rates[0].abs() < 1e-6);
    }

    #[test]
    fn strict_priority_passes_down_leftovers() {
        let mut hi = flow(&[0], &[1.0]);
        hi.rate_cap = 30.0;
        let mut lo = flow(&[0], &[1.0]);
        lo.priority = 1;
        let rates = compute_rates(&[100.0], &[hi, lo]);
        assert!((rates[0] - 30.0).abs() < 1e-6, "{rates:?}");
        assert!((rates[1] - 70.0).abs() < 1e-6, "{rates:?}");
    }

    #[test]
    fn empty_path_flow_is_unbounded() {
        let f = SharingFlow::best_effort(vec![]);
        let rates = compute_rates(&[10.0], &[f]);
        assert!(rates[0].is_infinite());
    }

    #[test]
    fn empty_path_flow_respects_cap() {
        let mut f = SharingFlow::best_effort(vec![]);
        f.rate_cap = 5.0;
        let rates = compute_rates(&[10.0], &[f]);
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
        let rates = compute_rates(&caps, &flows);
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
        let rates = compute_rates(&[120.0, 1000.0], &flows);
        let total: f64 = rates.iter().sum();
        assert!((total - 120.0).abs() < 1e-6, "{rates:?}");
    }

    #[test]
    fn hierarchical_flattening_matches_wfq_single_port() {
        // Queue A (weight 3) has 2 flows, queue B (weight 1) has 1 flow.
        // Flattened: φ_A = 1.5 each, φ_B = 1. Shares: 45, 45, 30 on 120.
        let flows = [flow(&[0], &[1.5]), flow(&[0], &[1.5]), flow(&[0], &[1.0])];
        let rates = compute_rates(&[120.0], &flows);
        assert!((rates[0] - 45.0).abs() < 1e-6, "{rates:?}");
        assert!((rates[1] - 45.0).abs() < 1e-6);
        assert!((rates[2] - 30.0).abs() < 1e-6);
    }

    #[test]
    fn refill_recovers_work_conservation() {
        // Flow 0 is stuck at 1 B/s on link 1; flow 1 shares link 0 with it.
        // Without refill flow 1 would be frozen at 50; refill tops it up to 99.
        let flows = [flow(&[0, 1], &[1.0, 1.0]), flow(&[0], &[1.0])];
        let rates = compute_rates(&[100.0, 1.0], &flows);
        assert!((rates[0] - 1.0).abs() < 1e-6, "{rates:?}");
        assert!((rates[1] - 99.0).abs() < 1e-6, "{rates:?}");
    }

    #[test]
    #[should_panic(expected = "weight must be positive")]
    fn zero_weight_rejected() {
        let _ = compute_rates(&[1.0], &[flow(&[0], &[0.0])]);
    }

    #[test]
    #[should_panic(expected = "at least 1e-9")]
    fn weight_below_the_allocator_resolution_rejected() {
        // Both weights sit under the kernel's 1e-12 "drained" threshold:
        // freezing the first zeroes the link's weight sum with the second
        // still waiting, which then read a fill level of 50/0 and was
        // handed an infinite rate on a 100 B/s link.
        let flows = [flow(&[0], &[6e-13]), flow(&[0], &[5e-13])];
        let _ = compute_rates(&[100.0], &flows);
    }

    #[test]
    fn weight_at_the_allocator_resolution_is_served() {
        let flows = [flow(&[0], &[MIN_WEIGHT]), flow(&[0], &[3.0 * MIN_WEIGHT])];
        let rates = compute_rates(&[100.0], &flows);
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
                    let rates = compute_rates(&caps, &flows);
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
        let _ = compute_rates(&[1.0], &[flow(&[5], &[1.0])]);
    }

    #[test]
    #[should_panic(expected = "capacity must be finite and non-negative")]
    fn negative_capacity_rejected() {
        let _ = compute_rates(&[100.0, -1.0], &[flow(&[0], &[1.0])]);
    }

    #[test]
    #[should_panic(expected = "capacity must be finite and non-negative")]
    fn nan_capacity_rejected() {
        let _ = compute_rates(&[f64::NAN], &[flow(&[0], &[1.0])]);
    }

    #[test]
    #[should_panic(expected = "capacity must be finite and non-negative")]
    fn infinite_capacity_rejected() {
        let _ = compute_rates(&[f64::INFINITY], &[flow(&[0], &[1.0])]);
    }

    #[test]
    fn zero_capacity_is_allowed_and_starves() {
        // A throttled-to-zero link is valid; flows crossing it starve.
        let rates = compute_rates(&[0.0], &[flow(&[0], &[1.0])]);
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
            let bundled = compute_rates(&caps, &flows);
            let mut unbundled = Vec::new();
            compute_rates_into(
                &caps,
                &ByIndex(&flows),
                &mut SharingScratch::unbundled(),
                &mut unbundled,
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
        let (named_flows, named_small) = (named(&flows, 0), named(&small, 1000));
        let mut scratch = SharingScratch::default();
        let mut a = Vec::new();
        let mut b = Vec::new();
        let mut c = Vec::new();
        compute_rates_into(&caps, &Named(&named_flows), &mut scratch, &mut a);
        compute_rates_into(&caps, &Named(&named_small), &mut scratch, &mut b);
        compute_rates_into(&caps, &Named(&named_flows), &mut scratch, &mut c);
        assert_eq!(a, c);
        assert_eq!(b.len(), small.len());
        assert_eq!(a, compute_rates(&caps, &flows));
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
            let flows_named = named(flows, 1000 * step as u64);
            compute_rates_into(caps, &Named(&flows_named), &mut scratch, &mut reused);
            let fresh = compute_rates(caps, flows);
            let bits = |rates: &[f64]| rates.iter().map(|r| r.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&reused), bits(&fresh), "step {step}");
        }
    }

    /// Flows that name their keys: a name is never reused for another
    /// key.
    struct Named<'a>(&'a [(u64, SharingFlow)]);

    impl FlowSource for Named<'_> {
        fn flow_count(&self) -> usize {
            self.0.len()
        }

        fn flow_view(&self, i: usize) -> FlowView<'_> {
            self.0[i].1.view()
        }

        fn key_id(&self, i: usize) -> u64 {
            self.0[i].0
        }
    }

    /// `flows` named `first`, `first + 1`, … in order.
    fn named(flows: &[SharingFlow], first: u64) -> Vec<(u64, SharingFlow)> {
        (first..).zip(flows.iter().cloned()).collect()
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

    #[test]
    fn a_scratch_kept_across_churn_rates_as_a_fresh_one() {
        // Arrivals, departures in swap-remove order, keys moved under new
        // names, calls with no flows and moved capacities, over three
        // classes with caps and duplicate keys: every call on the kept
        // scratch gives the bits of a fresh one, bundled or not.
        let pool = rand_flows(300, 12, 10, 0xc0ffee);
        for bundling in [true, false] {
            let new = || {
                if bundling {
                    SharingScratch::default()
                } else {
                    SharingScratch::unbundled()
                }
            };
            let mut caps: Vec<f64> = (0..12).map(|i| 100.0 + 10.0 * i as f64).collect();
            let mut state = 0x5eed_u64;
            let mut next = move || {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                (state >> 33) as usize
            };
            let mut flows: Vec<(u64, SharingFlow)> = Vec::new();
            let mut names = 0u64;
            let mut scratch = new();
            let (mut kept, mut fresh) = (Vec::new(), Vec::new());
            for call in 0..600 {
                for _ in 0..next() % 5 {
                    flows.push((names, pool[next() % pool.len()].clone()));
                    names += 1;
                }
                for _ in 0..next() % 4 {
                    if !flows.is_empty() {
                        let i = next() % flows.len();
                        flows.swap_remove(i);
                    }
                }
                if !flows.is_empty() && next() % 2 == 0 {
                    let i = next() % flows.len();
                    flows[i] = (names, pool[next() % pool.len()].clone());
                    names += 1;
                }
                if next() % 50 == 0 {
                    flows.clear();
                }
                if next() % 20 == 0 {
                    caps[next() % 12] = (next() % 200) as f64;
                }
                compute_rates_into(&caps, &Named(&flows), &mut scratch, &mut kept);
                compute_rates_into(&caps, &Named(&flows), &mut new(), &mut fresh);
                let bits = |rates: &[f64]| rates.iter().map(|r| r.to_bits()).collect::<Vec<_>>();
                assert_eq!(
                    bits(&kept),
                    bits(&fresh),
                    "bundling {bundling}, call {call}"
                );
            }
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
            let rates = compute_rates(&caps, &flows);
            let mut alone = compute_rates(&caps, &others).into_iter();
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
        let views: Vec<FlowView<'_>> = flows.iter().map(SharingFlow::view).collect();
        let from_owned = compute_rates(&caps, &flows);
        let mut scratch = SharingScratch::default();
        let mut from_views = Vec::new();
        compute_rates_into(&caps, &Views(&views), &mut scratch, &mut from_views);
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
        compute_rates_into(&caps, &Views(&views), &mut scratch, &mut rates);
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
        let rates = compute_rates(&[100.0], &flows);
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
        let rates = compute_rates(&[10.0], &flows);
        assert!((rates[0] - 5.0).abs() < 1e-9);
        assert!((rates[1] - 5.0).abs() < 1e-9);
        assert!(rates[2].is_infinite());
        assert!(rates[3].is_infinite());
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
        let rates = compute_rates(&caps, &flows);
        let per_flow = 1000.0 / ((hosts - 1) * dup) as f64;
        for (i, r) in rates.iter().enumerate() {
            assert!(
                (r - per_flow).abs() < 1e-9 * per_flow.max(1.0),
                "flow {i}: {r} vs {per_flow}"
            );
        }
    }

    // --- the packed heap key ---

    /// Fill levels as the kernel meets them and at the edges of the
    /// packing: both zeros, the smallest normal, infinity, subnormals,
    /// and any non-negative finite float.
    fn level() -> impl Strategy<Value = f64> {
        prop_oneof![
            prop::sample::select(vec![
                0.0,
                -0.0,
                f64::MIN_POSITIVE,
                1.0,
                7.0e9,
                f64::INFINITY
            ]),
            (1u64..1 << 52).prop_map(f64::from_bits),
            (0u64..0x7ff0_0000_0000_0000).prop_map(f64::from_bits),
        ]
    }

    /// Versions and links, the largest ones included.
    fn id() -> impl Strategy<Value = u32> {
        prop_oneof![
            prop::sample::select(vec![0, 1, u32::MAX - 1, u32::MAX]),
            any::<u32>(),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(4096))]

        /// One `u128` comparison orders heap keys as the `(level,
        /// version, link)` tuples they pack, levels compared as floats,
        /// and the link comes back out of the key.
        #[test]
        fn the_packed_heap_key_orders_as_its_tuple(
            a in (level(), id(), id()),
            b in (level(), id(), id()),
            share in 0u8..3,
        ) {
            let b = match share {
                0 => b,
                // The same level: the tie falls to the version, then
                // the link.
                1 => (a.0, b.1, b.2),
                // The other zero (or the same level) and the same
                // version: the tie falls to the link.
                _ => (if a.0 == 0.0 { -a.0 } else { a.0 }, a.1, b.2),
            };
            let tuple_before =
                |x: (f64, u32, u32), y: (f64, u32, u32)| {
                    x.0 < y.0 || (x.0 == y.0 && (x.1, x.2) < (y.1, y.2))
                };
            let (ka, kb) = (heap_key(a.0, a.1, a.2), heap_key(b.0, b.1, b.2));
            prop_assert_eq!(ka < kb, tuple_before(a, b), "{:?} vs {:?}", a, b);
            prop_assert_eq!(kb < ka, tuple_before(b, a), "{:?} vs {:?}", b, a);
            prop_assert_eq!(key_link(ka), a.2);
        }
    }

    // --- the refill rule, from its definition ---

    /// `flows` rated with `refill_passes` refill passes per class in
    /// place of [`REFILL_PASSES`].
    fn refilled(caps: &[f64], flows: &[SharingFlow], refill_passes: usize) -> Vec<f64> {
        let mut scratch = SharingScratch::default();
        scratch.check_capacities(caps);
        prepare(caps.len(), &ByIndex(flows), &mut scratch);
        let mut rates = vec![0.0; flows.len()];
        fill(caps, refill_passes, &mut scratch, &mut rates);
        rates
    }

    /// The refill rule is part of what `tests/fill_bits.rs` pins: on the
    /// cap-bound mix the last of the fill's refill passes still hands
    /// out rate, and one more would not.
    #[test]
    fn cap_bound_mix_needs_all_three_refill_passes() {
        let (caps, flows) = cap_bound_three_refills();
        let with = |refill_passes| refilled(&caps, &flows, refill_passes);
        assert_eq!(REFILL_PASSES, 3);
        assert_eq!(with(REFILL_PASSES), compute_rates(&caps, &flows));
        assert_ne!(with(REFILL_PASSES - 1), with(REFILL_PASSES));
        assert_eq!(with(REFILL_PASSES), with(REFILL_PASSES + 1));
    }

    /// One class of 40 flows over 10 links, every other flow capped: LCG
    /// mix `seed`.
    fn lcg_mix(seed: u64) -> (Vec<f64>, Vec<SharingFlow>) {
        let mut rng = Lcg(0x5aba_2000 + seed);
        let caps = (0..10).map(|_| rng.real(100.0, 1000.0)).collect();
        let flows = (0..40)
            .map(|k| {
                let path = rng.path(10, 4);
                let weights = path.iter().map(|_| rng.real(0.25, 4.0)).collect();
                let cap = if k % 2 == 0 {
                    rng.real(2.0, 80.0)
                } else {
                    f64::INFINITY
                };
                fill_problems::flow(path, weights, 0, cap)
            })
            .collect();
        (caps, flows)
    }

    /// Per link, the capacity `rates` leave unused: capacity − Σ rates.
    fn unused(caps: &[f64], flows: &[SharingFlow], rates: &[f64]) -> Vec<f64> {
        let mut load = vec![0.0; caps.len()];
        for (f, r) in flows.iter().zip(rates) {
            for l in &f.path {
                load[l.0 as usize] += r;
            }
        }
        caps.iter().zip(load).map(|(c, used)| c - used).collect()
    }

    /// A flow that crosses a link the base pass filled is decided:
    /// refills leave its rate alone, bit for bit. And a refill only ever
    /// adds.
    #[test]
    fn refill_leaves_flows_behind_a_full_link_alone_and_lowers_no_rate() {
        let mut problems = vec![cap_bound_three_refills(), spine_leaf_shape()];
        problems.extend((0..200).map(lcg_mix));
        let (mut decided, mut topped_up) = (0, 0);
        for (p, (caps, flows)) in problems.iter().enumerate() {
            let by_passes: Vec<Vec<f64>> = (0..=REFILL_PASSES)
                .map(|n| refilled(caps, flows, n))
                .collect();
            let left = unused(caps, flows, &by_passes[0]);
            for (i, f) in flows.iter().enumerate() {
                let (base, last) = (by_passes[0][i], by_passes[REFILL_PASSES][i]);
                let full = |l: &LinkId| left[l.0 as usize] <= 1e-12 * caps[l.0 as usize];
                if f.path.iter().any(full) {
                    assert_eq!(base.to_bits(), last.to_bits(), "problem {p} flow {i}");
                    decided += 1;
                }
                topped_up += usize::from(last > base);
                for pair in by_passes.windows(2) {
                    assert!(pair[1][i] >= pair[0][i], "problem {p} flow {i}");
                }
            }
        }
        assert!(decided > 1000 && topped_up > 1000, "{decided} {topped_up}");
    }

    /// Residue counts as saturation: in LCG mix 30 the base pass leaves
    /// link 9 (capacity ≈ 710) 2.3e-13 B/s unused — positive, and an
    /// accident of rounding — and the refill re-deals none of it. What a
    /// link has to keep to be topped up from is a share of its capacity
    /// that means something: 1e-6 of it is plenty.
    #[test]
    fn residue_is_saturation_and_a_millionth_of_a_link_is_not() {
        let (caps, flows) = lcg_mix(30);
        let base = refilled(&caps, &flows, 0);
        let left = unused(&caps, &flows, &base)[9];
        assert!(left > 0.0 && left <= 1e-12 * caps[9], "{left:e}");
        let last = refilled(&caps, &flows, REFILL_PASSES);
        let behind = |f: &&SharingFlow| f.path.contains(&LinkId(9));
        assert_eq!(flows.iter().filter(behind).count(), 8);
        for (i, _) in flows.iter().enumerate().filter(|(_, f)| behind(f)) {
            assert_eq!(base[i].to_bits(), last[i].to_bits(), "flow {i}");
        }

        // One 100 B/s link. The capped flow freezes second (the bundle
        // order is a hash of the key, hence these very numbers) and takes
        // 1e-4 less than the half the first was frozen at.
        let caps = [100.0];
        let flows = [
            fill_problems::flow(vec![LinkId(0)], vec![1.0], 0, f64::INFINITY),
            fill_problems::flow(vec![LinkId(0)], vec![1.0], 0, 50.0 - 1e-4),
        ];
        let base = refilled(&caps, &flows, 0);
        assert_eq!(base, [50.0, 50.0 - 1e-4]);
        let last = refilled(&caps, &flows, REFILL_PASSES);
        assert!((last[0] - (50.0 + 1e-4)).abs() < 1e-9, "{last:?}");
        assert_eq!(last[1], 50.0 - 1e-4);
    }
}
