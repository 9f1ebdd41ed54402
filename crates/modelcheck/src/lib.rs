//! `labflow-modelcheck` — a deterministic interleaving explorer for
//! concurrency protocols, in the style of `loom`.
//!
//! A protocol under test is written as a miniature against the modules
//! here in place of `std::sync::atomic` / `std::sync::Mutex` /
//! `std::thread` (see `tests/protocol.rs`). Every synchronization
//! operation then becomes a *scheduling point* managed
//! by a cooperative scheduler: model threads are carried by OS threads
//! but exactly one runs at a time, and a stateless DFS replays recorded
//! schedules to enumerate every interleaving within a bounded number of
//! preemptive context switches.
//!
//! Beyond schedules, the model explores **weak-memory visibility**: each
//! atomic records its modification order, and a `Relaxed` load is a
//! choice point that may observe any write the loading thread has not
//! yet passed (its coherence floor). It also tracks raw allocations
//! ([`heap`]) so epoch-reclamation mistakes surface as reported
//! `use-after-reclaim` / `double-free` / `leak` violations — with the
//! full interleaving trace — instead of undefined behaviour.
//!
//! ```
//! use std::sync::Arc;
//! use labflow_modelcheck::{atomic::AtomicU64, atomic::Ordering, thread, Builder};
//!
//! let report = Builder::new().preemptions(2).check(|| {
//!     let a = Arc::new(AtomicU64::new(0));
//!     let a2 = a.clone();
//!     let t = thread::spawn(move || a2.fetch_add(1, Ordering::SeqCst));
//!     a.fetch_add(1, Ordering::SeqCst);
//!     t.join();
//!     assert_eq!(a.load(Ordering::SeqCst), 2);
//! });
//! report.assert_ok();
//! ```
//!
//! Scope: the model is sequentially consistent for `SeqCst`/`Acquire`/
//! `Release` accesses and exact for `Relaxed` load visibility. That is
//! conservative (it can miss reorderings a real weak machine performs
//! on non-`SeqCst` accesses) but sound for miniatures that are `SeqCst`
//! at every cross-thread edge and use `Relaxed` only where staleness is
//! claimed harmless — exactly the claim the explorer checks.
//!
//! No production protocol is modelled here: the storage heap reclaims
//! under its object-table shard locks, not an epoch (DESIGN.md, "Memory
//! model & reclamation"). The epoch-reclamation miniature in
//! `tests/protocol.rs` is the checker's own seeded-bug self-test, and
//! `tests/litmus.rs` pins its memory model.

mod runtime;

pub mod atomic;
pub mod heap;
pub mod sync;
pub mod thread;

pub use runtime::{Builder, Report, Violation};

/// Explore `f` with the default bounds and panic (with the violating
/// interleaving) if anything is wrong; returns the [`Report`] so the
/// caller can log how many interleavings were covered.
pub fn model<F>(f: F) -> Report
where
    F: Fn() + Send + Sync + 'static,
{
    Builder::new().check(f).assert_ok()
}
