// Seeded atomic-ordering violations for the analyzer's self-test.
//
// Not compiled by cargo (see panic_sites.rs). Fixture files all live
// in one synthetic crate, so per-crate receiver aggregation works the
// same way it does in the workspace.

use std::sync::atomic::{AtomicU64, Ordering};

struct Fixture {
    // Integer atomic accessed with mixed orderings below.
    seq: AtomicU64,
    // Deliberately-Relaxed statistics counter: never flagged.
    hits: AtomicU64,
}

impl Fixture {
    // Flagged: Relaxed store on `seq`, which is read with Acquire in
    // `reader` — the lone Relaxed site opts out of the protocol.
    fn flagged_mixed_store(&self) {
        self.seq.store(1, Ordering::Relaxed);
    }

    fn reader(&self) -> u64 {
        self.seq.load(Ordering::Acquire)
    }

    // Clean: an all-Relaxed counter is a deliberate choice, not a mix.
    fn clean_counter(&self) {
        self.hits.fetch_add(1, Ordering::Relaxed);
    }

    // Waived: a justified marker silences the site.
    fn waived(&self) -> u64 {
        // analyzer: allow(ordering, "monotonic hint only; the slow path re-reads under the lock")
        self.seq.load(Ordering::Relaxed)
    }
}
