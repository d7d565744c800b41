//! The per-port sweep's heap traffic, counted.
//!
//! A port visit reads its members and their PLs through buffers the
//! engine keeps, gets its Eq. 2 solution into another — copied from a
//! memo, or, on the central flavour, solved in place at any width —
//! and walks the PL → queue hierarchy on the stack; what it must
//! allocate is what it hands out — the emitted configuration's
//! `weights` — and the copy of it the diff keeps in `programmed`. That
//! holds whether or not the controller ever saw the port's members
//! before: a first visit costs, beyond those two, only the growth of
//! the buffers. This binary installs a
//! counting allocator (per thread, so the harness may run the tests
//! side by side) and holds the sweep, the queue-map walk and path
//! detection to that.

use saba_core::controller::central::CentralController;
use saba_core::controller::distributed::{DistributedController, MappingDb};
use saba_core::controller::epoch::{Controller, Policy};
use saba_core::controller::queuemap::QueueMapper;
use saba_core::controller::ControllerConfig;
use saba_core::profiler::{Profiler, ProfilerConfig};
use saba_core::sensitivity::{SensitivityModel, SensitivityTable};
use saba_sim::ids::AppId;
use saba_sim::routing::Routes;
use saba_sim::topology::{SpineLeafConfig, Topology};
use saba_workload::catalog;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    /// Allocations (`alloc`, `alloc_zeroed`, `realloc`) made by this thread.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

struct Counting;

fn count() {
    // `try_with`: a thread being torn down may allocate after its
    // thread-locals are gone.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every operation is the system allocator's, called with the
// arguments this one was given; counting touches no allocator state.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller upholds `GlobalAlloc::dealloc`'s contract.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Runs `f` and returns its result with the allocations it made.
fn counted<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = ALLOCATIONS.with(Cell::get);
    let out = f();
    (out, ALLOCATIONS.with(Cell::get) - before)
}

fn table() -> SensitivityTable {
    Profiler::new(ProfilerConfig {
        noise_sigma: 0.0,
        bw_points: vec![0.25, 0.5, 0.75, 1.0],
        degree: 2,
        ..Default::default()
    })
    .profile_all(&catalog())
    .expect("profiling succeeds")
}

fn central(topo: &Topology) -> CentralController {
    CentralController::new(ControllerConfig::default(), table(), topo)
}

fn distributed(topo: &Topology) -> DistributedController {
    let db = MappingDb::build(&table(), 16, 1);
    DistributedController::new(ControllerConfig::default(), db, topo, 4)
}

/// `apps` applications spread over the fabric and, with `funnel`, all
/// sent through one server pair as well, so a port as wide as the
/// population is swept too.
fn loaded<P: Policy>(
    mut c: Controller<P>,
    topo: &Topology,
    apps: u32,
    funnel: bool,
) -> Controller<P> {
    let s = topo.servers();
    let names: Vec<String> = catalog().into_iter().map(|w| w.name).collect();
    for app in 0..apps {
        c.register(AppId(app), &names[app as usize % names.len()])
            .unwrap();
        let (a, b) = (app as usize % s.len(), (7 * app as usize + 3) % s.len());
        if a != b {
            c.preload_connection(AppId(app), s[a], s[b], u64::from(app));
        }
        if funnel {
            c.preload_connection(AppId(app), s[0], s[1], 1_000 + u64::from(app));
        }
    }
    c
}

/// The per-run constant: the dirty list (collected from a filter, so it
/// grows by doubling) and the update list.
const PER_EPOCH: u64 = 8;

/// Reallocations a buffer (or hash table) that grows by doubling makes
/// on its way from empty to `n` entries, at most.
fn doublings(n: usize) -> u64 {
    u64::from(usize::BITS - n.leading_zeros()) + 1
}

/// `memoizes_every_port`: whether the flavour answers a repeated sweep
/// from its Eq. 2 memo (distributed) or solves every contended port
/// again (central, which remembers none).
fn warm_forced_sweep_allocates_two_per_port<P: Policy>(
    mk: fn(&Topology) -> Controller<P>,
    memoizes_every_port: bool,
) {
    let topo = Topology::spine_leaf(&SpineLeafConfig::tiny(3));
    let mut c = loaded(mk(&topo), &topo, 40, true);
    let cold = c.recompute_all();
    let solves = c.stats().eq2_solves;
    let (warm, allocations) = counted(|| c.recompute_all());
    assert_eq!(warm, cold);
    let solved_again = c.stats().eq2_solves - solves;
    if memoizes_every_port {
        assert_eq!(solved_again, 0, "the PL-set memo answers the second sweep");
    } else {
        // No memo exists to make the second sweep "warm": it solves
        // every contended port again, into the same buffer.
        assert!(solved_again > 40, "{solved_again} ports solved again");
    }
    let ports = warm.len() as u64;
    assert!(ports > 40, "{ports} occupied ports");
    assert!(
        allocations <= 2 * ports + PER_EPOCH * c.num_shards() as u64,
        "{allocations} allocations over {ports} ports"
    );
}

#[test]
fn a_warm_forced_sweep_allocates_only_what_it_emits_and_keeps() {
    warm_forced_sweep_allocates_two_per_port(central, false);
    warm_forced_sweep_allocates_two_per_port(distributed, true);
}

#[test]
fn a_cold_forced_sweep_over_exact_ports_allocates_only_what_it_emits_and_keeps() {
    let topo = Topology::spine_leaf(&SpineLeafConfig::tiny(3));
    let mut c = loaded(central(&topo), &topo, 120, true);
    // The controller has never swept: no solution and no buffer
    // capacity exists yet. The funnel's ports carry all 120
    // applications, solved exactly like every other port.
    let (cold, allocations) = counted(|| c.recompute_all());
    let ports = cold.len() as u64;
    assert!(ports > 40, "{ports} occupied ports");
    let widths = cold.iter().map(|u| c.apps_at(u.link).len());
    let widest = widths.max().expect("occupied ports");
    assert!(
        widest >= 100,
        "a funnel port of every application: {widest}"
    );
    let stats = c.stats();
    assert_eq!(stats.eq2_solves + stats.solves_skipped, ports);
    assert!(stats.eq2_solves > 20, "contended ports were solved");
    // Beyond two per port: the growth of the visit's three buffers and
    // the dual solve's two (its break list holds three entries per
    // member) to the widest port.
    let growth = 4 * doublings(widest) + doublings(3 * widest);
    assert!(
        allocations <= 2 * ports + growth + PER_EPOCH,
        "{allocations} allocations over {ports} ports, widest {widest}"
    );
}

#[test]
fn an_exact_port_event_allocates_only_what_it_emits_and_keeps() {
    let topo = Topology::spine_leaf(&SpineLeafConfig::tiny(3));
    let mut c = loaded(central(&topo), &topo, 40, true);
    c.recompute_all();
    let s = topo.servers();
    let (src, dst) = (s[2], s[s.len() - 1]);
    // Sending another application of the same PL down the path first
    // grows the buffers to what the event will meet, and nothing else:
    // no exact solution and no queue map is remembered anywhere.
    let twin = (0..40)
        .map(AppId)
        .find(|&a| a != AppId(5) && c.sl_of(a) == c.sl_of(AppId(5)));
    let twin = twin.expect("40 applications share 16 PLs");
    c.conn_create(twin, src, dst, 76).unwrap();
    c.conn_destroy(twin, 76).unwrap();
    let solves = c.stats().eq2_solves;
    let (unseen, first) = counted(|| c.conn_create(AppId(5), src, dst, 77).unwrap());
    let solved = c.stats().eq2_solves - solves;
    c.conn_destroy(AppId(5), 77).unwrap();
    let solves = c.stats().eq2_solves;
    let (seen, second) = counted(|| c.conn_create(AppId(5), src, dst, 77).unwrap());
    assert_eq!(seen, unseen);
    assert!(solved >= 4, "a cross-pod path of contended ports: {solved}");
    assert_eq!(
        c.stats().eq2_solves - solves,
        solved,
        "member sets met before are solved again: there is no exact-set memo to hit"
    );
    assert!(seen.len() >= 4, "a cross-pod path: {} ports", seen.len());
    // Beyond two per emitted port: the path, the dirty list (up to two
    // growth steps), the connection-table entry, the update list —
    // whether or not the ports' member sets were ever visited before.
    for allocations in [first, second] {
        assert!(
            allocations <= 2 * seen.len() as u64 + 6,
            "{allocations} allocations for {} emitted ports",
            seen.len()
        );
    }
}

#[test]
fn every_queue_map_ask_allocates_nothing() {
    let centroids: Vec<(usize, Vec<f64>)> = (0..12usize)
        .map(|pl| {
            let x = (pl * pl) as f64;
            (pl + pl / 5, vec![0.3 * x, 7.0 - x, (x * 0.37).sin()])
        })
        .collect();
    let active = centroids.iter().fold(0u16, |set, (pl, _)| set | 1 << pl);
    let mapper = QueueMapper::build(&centroids).unwrap();
    let mut asked = 0;
    for seed in 1..400u16 {
        let present = seed.wrapping_mul(0x9e37) & active;
        if present == 0 {
            continue;
        }
        for budget in [1, 3, 8] {
            let (_, allocations) = counted(|| mapper.queues_for(present, budget));
            assert_eq!(allocations, 0, "set {present:#06x}, budget {budget}");
            asked += 1;
        }
    }
    assert!(asked > 600, "{asked} asks");
}

#[test]
fn steady_state_path_detection_allocates_the_path() {
    let topo = Topology::spine_leaf(&SpineLeafConfig::tiny(3));
    let routes = Routes::compute(&topo);
    let s = topo.servers();
    let (src, dst) = (s[0], s[s.len() - 1]);
    // The first lookup materializes the destination's distance field.
    let first = routes.path(&topo, src, dst, 9).unwrap();
    for tag in 0..32 {
        let (path, allocations) = counted(|| routes.path(&topo, src, dst, tag).unwrap());
        assert_eq!(path.len(), first.len());
        assert_eq!(allocations, 1, "tag {tag}");
    }
}

#[test]
fn path_detection_past_the_candidate_buffer_allocates_the_path() {
    use saba_sim::topology::NodeKind;
    // 150 equal-cost middles: more than `Routes::path` keeps on the
    // stack, so most picks re-scan the hop for the picked candidate.
    let mut topo = Topology::new();
    let src = topo.add_node(NodeKind::Switch, "src");
    let dst = topo.add_node(NodeKind::Switch, "dst");
    for i in 0..150 {
        let mid = topo.add_node(NodeKind::Switch, format!("mid{i}"));
        topo.add_cable(src, mid, 1.0);
        topo.add_cable(mid, dst, 1.0);
    }
    let routes = Routes::compute(&topo);
    routes.path(&topo, src, dst, 0).unwrap();
    for tag in 0..64 {
        let (path, allocations) = counted(|| routes.path(&topo, src, dst, tag).unwrap());
        assert_eq!(path.len(), 2);
        assert_eq!(allocations, 1, "tag {tag}");
    }
}

/// The distributed memo is keyed by a port's PL set, a `u16`: asking it
/// allocates nothing, and a miss stores a copy of its answer and no key.
#[test]
fn a_distributed_event_allocates_no_memo_key() {
    let topo = Topology::spine_leaf(&SpineLeafConfig::tiny(3));
    let mut c = loaded(distributed(&topo), &topo, 40, true);
    c.recompute_all();
    let s = topo.servers();
    let (app, src, dst) = (AppId(5), s[2], s[s.len() - 1]);
    // The first pass grows every buffer and member row the event meets
    // and memoizes the path's PL sets.
    c.conn_create(app, src, dst, 77).unwrap();
    c.conn_destroy(app, 77).unwrap();
    let solves = c.stats().eq2_solves;
    let (hit, hits) = counted(|| c.conn_create(app, src, dst, 77).unwrap());
    assert_eq!(c.stats().eq2_solves, solves, "every set was met before");
    assert!(hit.len() >= 4, "a cross-pod path: {} ports", hit.len());
    // Beyond two per emitted port: the path, the dirty list (up to two
    // growth steps), the connection-table entry, the update list.
    assert!(hits <= 2 * hit.len() as u64 + 6, "{hits} allocations");
    c.conn_destroy(app, 77).unwrap();

    // A refit of the application's workload purges every set holding
    // its PL; the memo keeps its capacity, so the sets the event meets
    // again are misses that cost their stored copy and nothing else.
    let names: Vec<String> = catalog().into_iter().map(|w| w.name).collect();
    let flat: Vec<(f64, f64)> = [0.25, 0.5, 0.75, 1.0]
        .iter()
        .map(|&b| (b, 1.0 + 0.05 * (1.0 - b)))
        .collect();
    let refit = SensitivityModel::fit(&names[5 % names.len()], &flat, 2).unwrap();
    assert!(!c.update_model(&refit).is_empty());
    let solves = c.stats().eq2_solves;
    let (miss, misses) = counted(|| c.conn_create(app, src, dst, 77).unwrap());
    let missed = c.stats().eq2_solves - solves;
    assert!(missed >= 2, "{missed} of the path's sets were purged");
    assert_eq!(
        misses - 2 * miss.len() as u64,
        hits - 2 * hit.len() as u64 + missed,
        "{misses} allocations, {missed} misses"
    );
}
