//! Pins the bytes a verified full run allocates per node. A warmed
//! `Problem::LargestId.run_on_session` keeps, per node, one compact probe
//! slot (16 bytes for a `bool` output), the output (1 byte) and the radius
//! (8 bytes), and the radius profile takes ownership of the radii instead of
//! copying them: about 25 bytes per node. An inline `RuntimeError` per slot
//! (48 bytes) or a copied radius vector (8 more) breaks the 32-byte budget.
//!
//! The whole binary holds exactly this one test so the counting allocator
//! observes nothing but the measured window.

use avglocal::prelude::*;
use avglocal_integration_tests::alloc_count::{allocated_bytes, CountingAllocator};
use avglocal_integration_tests::shuffled_ring;

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

#[test]
fn verified_full_run_allocates_at_most_32_bytes_per_node() {
    const BUDGET: f64 = 32.0;
    for n in [2048usize, 8192] {
        let session = FrozenExecutor::new(&shuffled_ring(n, 3));
        // Warm-up: starts the worker pool and parks one grown scratch per
        // participant in the session's pool.
        let warm = Problem::LargestId.run_on_session(&session, None).expect("largest-ID verifies");
        assert_eq!(warm.len(), n);

        // The minimum over a few runs: the pool's per-run bookkeeping varies
        // with how the participants meet the job, the per-node cost does not.
        let per_node = (0..3)
            .map(|_| {
                let before = allocated_bytes();
                let profile =
                    Problem::LargestId.run_on_session(&session, None).expect("largest-ID verifies");
                let bytes = allocated_bytes() - before;
                assert_eq!(profile.len(), n);
                bytes as f64 / n as f64
            })
            .fold(f64::INFINITY, f64::min);
        assert!(
            per_node <= BUDGET,
            "a verified full run over {n} nodes allocates {per_node:.2} bytes per node \
             (budget {BUDGET})"
        );
    }
}
