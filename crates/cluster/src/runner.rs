//! Thread-parallel experiment execution.
//!
//! The §8.2 experiment runs 500 independent cluster setups twice each;
//! setups share nothing, so they parallelize trivially across cores.
//! The implementation lives in [`saba_math::parallel`] (the bottom of
//! the crate graph); this module re-exports it for the
//! experiment-harness callers.

pub use saba_math::parallel::{default_threads, parallel_map};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reexported_parallel_map_is_in_order() {
        let out = parallel_map(100, default_threads(), |i| i * 3);
        for (i, v) in out.iter().enumerate() {
            assert_eq!(*v, i * 3);
        }
    }
}
