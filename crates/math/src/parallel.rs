//! Thread-parallel map over an index range.
//!
//! Lives at the bottom of the crate graph, so any layer above can shard
//! independent work across cores (the cluster harness runs its
//! experiment setups on it). Workers pull indices from a shared atomic
//! counter (work stealing), accumulate `(index, value)` pairs locally,
//! and the results are merged once at join in index order — no per-item
//! locks, and the output is independent of how indices were interleaved
//! across threads.

use std::sync::atomic::{AtomicUsize, Ordering};

/// Runs `f(i)` for every `i` in `0..n` across up to `threads` worker
/// threads, returning results in index order.
///
/// `f` must be `Sync` (it is shared by reference across workers).
///
/// # Panics
///
/// Re-raises the first worker panic with its **original payload**
/// (via [`std::panic::resume_unwind`]), so an assertion message from
/// inside a worker survives to the caller's panic hook.
pub fn parallel_map<T, F>(n: usize, threads: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    parallel_map_with(n, threads, || (), |(), i| f(i))
}

/// [`parallel_map`]'s body: each worker thread first builds private
/// mutable state with `init()` and every `f(&mut state, i)` call on that
/// thread reuses it.
///
/// `f` must not let results depend on the per-thread state's history:
/// which indices share a state is nondeterministic. Scratch buffers are
/// fine; accumulators are not.
fn parallel_map_with<S, T, I, F>(n: usize, threads: usize, init: I, f: F) -> Vec<T>
where
    T: Send,
    I: Fn() -> S + Sync,
    F: Fn(&mut S, usize) -> T + Sync,
{
    assert!(threads >= 1, "need at least one thread");
    let workers = threads.min(n.max(1));

    if workers == 1 {
        // Serial fast path: no thread spawn, no unwind trampoline.
        let mut state = init();
        return (0..n).map(|i| f(&mut state, i)).collect();
    }

    let next = AtomicUsize::new(0);

    let joined: Vec<std::thread::Result<Vec<(usize, T)>>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                s.spawn(|| {
                    // Work-stealing over a shared counter: workers pull the
                    // next index until the range is drained, accumulating
                    // results locally.
                    let mut state = init();
                    let mut local = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= n {
                            return local;
                        }
                        local.push((i, f(&mut state, i)));
                    }
                })
            })
            .collect();
        // Join every handle before surfacing a panic so no worker is
        // left running when we unwind out of the scope.
        handles.into_iter().map(|h| h.join()).collect()
    });

    let mut collected = Vec::with_capacity(joined.len());
    let mut panic_payload = None;
    for r in joined {
        match r {
            Ok(local) => collected.push(local),
            Err(payload) => {
                if panic_payload.is_none() {
                    panic_payload = Some(payload);
                }
            }
        }
    }
    if let Some(payload) = panic_payload {
        std::panic::resume_unwind(payload);
    }

    // Merge: move every value into its slot, in index order.
    let mut slots: Vec<Option<T>> = Vec::with_capacity(n);
    slots.resize_with(n, || None);
    for (i, value) in collected.drain(..).flatten() {
        slots[i] = Some(value);
    }
    slots
        .into_iter()
        .map(|v| v.expect("every index was processed"))
        .collect()
}

/// A sensible worker count: the available parallelism, capped.
pub fn default_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4)
        .min(32)
}

#[cfg(test)]
mod tests {
    use super::*;

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
    fn per_thread_state_is_reused_not_shared() {
        // Each worker's scratch buffer grows once and is reused; results
        // must still be a pure function of the index.
        let out = parallel_map_with(64, 4, Vec::<u64>::new, |scratch, i| {
            scratch.clear();
            scratch.extend((0..=i as u64).map(|k| k * k));
            scratch.iter().sum::<u64>()
        });
        let serial: Vec<u64> = (0..64u64).map(|i| (0..=i).map(|k| k * k).sum()).collect();
        assert_eq!(out, serial);
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
        let msg = payload
            .downcast_ref::<&str>()
            .copied()
            .or_else(|| payload.downcast_ref::<String>().map(|s| s.as_str()))
            .expect("payload must be the original panic message");
        assert_eq!(msg, "boom");
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
        let msg = payload
            .downcast_ref::<&str>()
            .copied()
            .expect("payload must be the original panic message");
        assert_eq!(msg, "boom");
    }

    #[test]
    fn non_clone_values_are_returned() {
        // T only needs Send: values are moved, never cloned or locked.
        let out = parallel_map(10, 4, Box::new);
        for (i, v) in out.iter().enumerate() {
            assert_eq!(**v, i);
        }
    }
}
