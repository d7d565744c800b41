//! Thread-parallel map over an index range.
//!
//! Lives at the bottom of the crate graph, so any layer above can shard
//! independent work across cores (the cluster harness runs its
//! experiment setups on it, the profiler its isolated runs). The caller
//! works a share itself, and the threads it spawns are leased from one
//! process-wide budget of `default_threads() − 1`: a call nested inside
//! another's `f`, or made while other calls hold the budget, spawns only
//! what is left and, when nothing is, runs serially on its caller. So
//! at most one thread per core besides the callers is ever inside an
//! `f`, however calls nest.
//!
//! Participants pull indices from a shared atomic counter (work
//! stealing), accumulate `(index, value)` pairs locally, and the results
//! are merged once at join in index order — no per-item locks, and the
//! output is independent of how indices were interleaved across threads.

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

/// Runs `f(i)` for every `i` in `0..n` on the caller and up to
/// `threads − 1` spawned workers, returning results in index order.
///
/// Workers come from the process-wide budget (see the module doc): a
/// call gets what is free, and a spawn the system refuses just means one
/// worker fewer. `f` must be `Sync` (it is shared by reference).
///
/// # Panics
///
/// Panics if `threads` is 0. Re-raises the first panic with its
/// **original payload** (via [`std::panic::resume_unwind`]) — the
/// caller's own share's, else the first worker's in spawn order — so an
/// assertion message from inside `f` survives to the caller's panic
/// hook.
pub fn parallel_map<T, F>(n: usize, threads: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    assert!(threads >= 1, "need at least one thread");
    let mut lease = Lease::take(threads.min(n).saturating_sub(1));
    if lease.0 == 0 {
        // Serial: no spawn, no unwind trampoline.
        return (0..n).map(f).collect();
    }

    // Work-stealing over a shared counter: every participant pulls the
    // next index until the range is drained, accumulating results
    // locally.
    let next = AtomicUsize::new(0);
    let work = || {
        let mut local = Vec::new();
        loop {
            let i = next.fetch_add(1, Ordering::Relaxed);
            if i >= n {
                return local;
            }
            local.push((i, f(i)));
        }
    };
    let (own, joined) = std::thread::scope(|s| {
        let handles: Vec<_> = (0..lease.0)
            .map_while(|_| std::thread::Builder::new().spawn_scoped(s, work).ok())
            .collect();
        lease.shrink_to(handles.len());
        let own = catch_unwind(AssertUnwindSafe(work));
        // Join every handle before surfacing a panic so no worker is
        // left running when we unwind out of the scope.
        let joined: Vec<_> = handles.into_iter().map(|h| h.join()).collect();
        (own, joined)
    });
    drop(lease);

    let mut collected = Vec::with_capacity(joined.len() + 1);
    for r in std::iter::once(own).chain(joined) {
        match r {
            Ok(local) => collected.push(local),
            Err(payload) => resume_unwind(payload),
        }
    }

    // Merge: move every value into its slot, in index order.
    let mut slots: Vec<Option<T>> = Vec::with_capacity(n);
    slots.resize_with(n, || None);
    for (i, value) in collected.into_iter().flatten() {
        slots[i] = Some(value);
    }
    slots
        .into_iter()
        .map(|v| v.expect("every index was processed"))
        .collect()
}

/// Spawned workers alive in the process, every call together.
static LEASED: AtomicUsize = AtomicUsize::new(0);

/// Workers leased from the budget; dropping the lease (on unwind too)
/// hands them back.
struct Lease(usize);

impl Lease {
    /// Leases up to `want` workers: fewer, or none, when the budget is
    /// short.
    fn take(want: usize) -> Self {
        // One spawned worker per core besides a caller.
        let cap = default_threads() - 1;
        let grant = |used: usize| want.min(cap.saturating_sub(used));
        let taken = LEASED.fetch_update(Ordering::AcqRel, Ordering::Acquire, |used| {
            (grant(used) > 0).then(|| used + grant(used))
        });
        Lease(taken.map_or(0, grant))
    }

    /// Hands back every leased worker past the first `kept`.
    fn shrink_to(&mut self, kept: usize) {
        if kept < self.0 {
            LEASED.fetch_sub(self.0 - kept, Ordering::AcqRel);
            self.0 = kept;
        }
    }
}

impl Drop for Lease {
    fn drop(&mut self) {
        self.shrink_to(0);
    }
}

/// A sensible worker count: the available parallelism, capped, read
/// once per process (the read parses cgroup files on every call).
pub fn default_threads() -> usize {
    static THREADS: OnceLock<usize> = OnceLock::new();
    *THREADS.get_or_init(|| {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(4)
            .min(32)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    /// The panic message a caught payload carries.
    fn message(payload: &(dyn std::any::Any + Send)) -> &str {
        payload
            .downcast_ref::<&str>()
            .copied()
            .or_else(|| payload.downcast_ref::<String>().map(|s| s.as_str()))
            .expect("payload must be the original panic message")
    }

    #[test]
    fn results_are_in_order() {
        let out = parallel_map(100, 8, |i| i * i);
        for (i, v) in out.iter().enumerate() {
            assert_eq!(*v, i * i);
        }
    }

    #[test]
    fn single_thread_works() {
        assert_eq!(parallel_map(5, 1, |i| i), vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn zero_tasks_is_empty() {
        let out: Vec<usize> = parallel_map(0, 4, |i| i);
        assert!(out.is_empty());
    }

    #[test]
    fn more_threads_than_tasks() {
        assert_eq!(parallel_map(2, 16, |i| i + 1), vec![1, 2]);
    }

    #[test]
    fn worker_panic_payload_survives() {
        // Regression: `h.join().expect(...)` used to replace the worker's
        // panic message with a generic "worker threads must not panic",
        // making scale-bench assertion failures undiagnosable. The original
        // payload must be re-raised verbatim.
        let caught = std::panic::catch_unwind(|| {
            parallel_map(8, 4, |i| {
                if i == 3 {
                    panic!("boom");
                }
                i
            })
        });
        let payload = caught.expect_err("worker panic must propagate");
        assert_eq!(message(&*payload), "boom");
    }

    #[test]
    fn worker_panic_payload_survives_serial_path() {
        let caught = std::panic::catch_unwind(|| {
            parallel_map(4, 1, |i| {
                if i == 2 {
                    panic!("boom");
                }
                i
            })
        });
        let payload = caught.expect_err("worker panic must propagate");
        assert_eq!(message(&*payload), "boom");
    }

    #[test]
    fn non_clone_values_are_returned() {
        // T only needs Send: values are moved, never cloned or locked.
        let out = parallel_map(10, 4, Box::new);
        for (i, v) in out.iter().enumerate() {
            assert_eq!(**v, i);
        }
    }

    #[test]
    fn nested_and_concurrent_calls_stay_within_the_budget() {
        // Every outer item makes a nested call, so the outer call's
        // participants make theirs concurrently; without the budget this
        // would put 3 × 3 threads inside `leaf` at once. The sleep makes
        // participants overlap.
        let inside = AtomicUsize::new(0);
        let high = AtomicUsize::new(0);
        let leaf = |j: usize| {
            let now = inside.fetch_add(1, Ordering::SeqCst) + 1;
            high.fetch_max(now, Ordering::SeqCst);
            std::thread::sleep(Duration::from_millis(2));
            inside.fetch_sub(1, Ordering::SeqCst);
            j
        };
        let out = parallel_map(3, 3, |i| {
            let inner = parallel_map(3, 3, |j| leaf(10 * i + j));
            let deeper = parallel_map(2, 3, leaf);
            (inner, deeper)
        });
        for (i, (inner, deeper)) in out.into_iter().enumerate() {
            assert_eq!(inner, [10 * i, 10 * i + 1, 10 * i + 2]);
            assert_eq!(deeper, [0, 1]);
        }
        let high = high.load(Ordering::SeqCst);
        assert!(
            (1..=default_threads()).contains(&high),
            "{high} threads inside f at once, {} cores",
            default_threads()
        );
    }

    #[test]
    fn a_panic_on_the_callers_share_keeps_its_payload() {
        // The caller takes part whether or not the budget lends it a
        // worker, and the sleep keeps a worker from draining the range
        // before the caller pulls its first index.
        let caller = std::thread::current().id();
        let caught = std::panic::catch_unwind(|| {
            parallel_map(8, 2, |i| {
                std::thread::sleep(Duration::from_millis(1));
                if std::thread::current().id() == caller {
                    panic!("caller {i}");
                }
                i
            })
        });
        let payload = caught.expect_err("the caller's panic must propagate");
        assert!(
            message(&*payload).starts_with("caller "),
            "{}",
            message(&*payload)
        );
    }
}
