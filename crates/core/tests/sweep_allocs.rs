//! The per-port sweep's heap traffic, counted.
//!
//! A port visit reads its members, their PLs and the memoized solution
//! through buffers the engine keeps, and finds the PL → queue map in the
//! mapper's memo; what it must allocate is what it hands out — the
//! emitted configuration's `weights` — and the copy of it the diff keeps
//! in `programmed`. This binary installs a counting allocator (per
//! thread, so the harness may run the tests side by side) and holds the
//! sweep and path detection to that.

use saba_core::controller::central::CentralController;
use saba_core::controller::distributed::{DistributedController, MappingDb};
use saba_core::controller::epoch::{Controller, Policy};
use saba_core::controller::ControllerConfig;
use saba_core::profiler::{Profiler, ProfilerConfig};
use saba_core::sensitivity::SensitivityTable;
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

/// Forty applications spread over the fabric and all funnelled through
/// one server pair, so a clustered (> 32 applications) port is swept too.
fn loaded<P: Policy>(mut c: Controller<P>, topo: &Topology) -> Controller<P> {
    let s = topo.servers();
    let names: Vec<String> = catalog().into_iter().map(|w| w.name).collect();
    for app in 0..40u32 {
        c.register(AppId(app), &names[app as usize % names.len()])
            .unwrap();
        let (a, b) = (app as usize % s.len(), (7 * app as usize + 3) % s.len());
        if a != b {
            c.preload_connection(AppId(app), s[a], s[b], u64::from(app));
        }
        c.preload_connection(AppId(app), s[0], s[1], 1_000 + u64::from(app));
    }
    c
}

/// The per-run constant: the dirty list (collected from a filter, so it
/// grows by doubling) and the update list.
const PER_EPOCH: u64 = 8;

fn warm_forced_sweep_allocates_two_per_port<P: Policy>(mk: fn(&Topology) -> Controller<P>) {
    let topo = Topology::spine_leaf(&SpineLeafConfig::tiny(3));
    let mut c = loaded(mk(&topo), &topo);
    let cold = c.recompute_all();
    let solves = c.stats().eq2_solves;
    let (warm, allocations) = counted(|| c.recompute_all());
    assert_eq!(warm, cold);
    assert_eq!(c.stats().eq2_solves, solves, "the second sweep is warm");
    let ports = warm.len() as u64;
    assert!(ports > 40, "{ports} occupied ports");
    assert!(
        allocations <= 2 * ports + PER_EPOCH * c.num_shards() as u64,
        "{allocations} allocations over {ports} ports"
    );
}

#[test]
fn a_warm_forced_sweep_allocates_only_what_it_emits_and_keeps() {
    warm_forced_sweep_allocates_two_per_port(central);
    warm_forced_sweep_allocates_two_per_port(distributed);
}

#[test]
fn a_memo_hit_event_allocates_only_what_it_emits_and_keeps() {
    let topo = Topology::spine_leaf(&SpineLeafConfig::tiny(3));
    let mut c = loaded(central(&topo), &topo);
    c.recompute_all();
    let s = topo.servers();
    let (src, dst) = (s[2], s[s.len() - 1]);
    // Create and destroy once: both membership states of every port on
    // the path are memoized now (as are their PL sets' queue maps).
    let first = c.conn_create(AppId(5), src, dst, 77).unwrap();
    c.conn_destroy(AppId(5), 77).unwrap();
    let solves = c.stats().eq2_solves;
    let (again, allocations) = counted(|| c.conn_create(AppId(5), src, dst, 77).unwrap());
    assert_eq!(again, first);
    assert_eq!(c.stats().eq2_solves, solves, "every port was a memo hit");
    assert!(again.len() >= 4, "a cross-pod path: {} ports", again.len());
    // Beyond two per emitted port: the path, the dirty list (up to two
    // growth steps), the connection-table entry, the update list.
    assert!(
        allocations <= 2 * again.len() as u64 + 6,
        "{allocations} allocations for {} emitted ports",
        again.len()
    );
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
