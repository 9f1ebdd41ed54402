//! Modeled atomics, API-compatible with `std::sync::atomic` for the
//! subset the protocol miniatures use.
//!
//! Each atomic keeps its real value in a `std` atomic (so free-running
//! code outside an execution behaves normally) and, inside a model
//! execution, additionally records its **modification order** with the
//! runtime. Every access is a scheduling point. `SeqCst` and `Acquire`
//! loads observe the newest entry; a `Relaxed` load is a *choice point*
//! that may observe any entry at or after the loading thread's
//! coherence floor — so `Relaxed` vs `SeqCst` visibility differences
//! are actually explored, not assumed away. Read-modify-write ops
//! always act on the newest entry, as the memory model requires.

pub use std::sync::atomic::Ordering;
use std::sync::atomic::{AtomicPtr as StdAtomicPtr, AtomicU64 as StdAtomicU64};

use crate::runtime;

/// The `SeqCst` std ordering used for the backing cell: the cell always
/// holds the newest value in modification order; staleness is modeled
/// at the runtime layer, not in the cell.
const CELL: Ordering = Ordering::SeqCst;

/// A modeled `u64` atomic.
#[derive(Debug, Default)]
pub struct AtomicU64 {
    cell: StdAtomicU64,
}

impl AtomicU64 {
    /// A new atomic holding `v`.
    pub fn new(v: u64) -> AtomicU64 {
        AtomicU64 { cell: StdAtomicU64::new(v) }
    }

    fn addr(&self) -> usize {
        self as *const AtomicU64 as usize
    }

    /// Load; `Relaxed` may observe stale values inside a model run.
    pub fn load(&self, ord: Ordering) -> u64 {
        if runtime::stale_reads(ord) {
            if let Some(v) = runtime::atomic_op(
                self.addr(),
                self.cell.load(CELL),
                "load (Relaxed)",
                true,
                |latest| (latest, None),
            ) {
                return v;
            }
            return self.cell.load(ord);
        }
        runtime::atomic_op(self.addr(), self.cell.load(CELL), "load", false, |latest| {
            (latest, None)
        })
        .unwrap_or_else(|| self.cell.load(ord))
    }

    /// Store.
    pub fn store(&self, v: u64, _ord: Ordering) {
        runtime::atomic_op(self.addr(), self.cell.load(CELL), "store", false, |_latest| {
            (0, Some(v))
        });
        self.cell.store(v, CELL);
    }

    /// Fetch-add, returning the previous value.
    pub fn fetch_add(&self, n: u64, _ord: Ordering) -> u64 {
        match runtime::atomic_op(
            self.addr(),
            self.cell.load(CELL),
            "fetch_add",
            false,
            |latest| (latest, Some(latest.wrapping_add(n))),
        ) {
            Some(prev) => {
                self.cell.store(prev.wrapping_add(n), CELL);
                prev
            }
            None => self.cell.fetch_add(n, CELL),
        }
    }

    /// Fetch-max, returning the previous value.
    pub fn fetch_max(&self, n: u64, _ord: Ordering) -> u64 {
        match runtime::atomic_op(
            self.addr(),
            self.cell.load(CELL),
            "fetch_max",
            false,
            |latest| (latest, Some(latest.max(n))),
        ) {
            Some(prev) => {
                self.cell.store(prev.max(n), CELL);
                prev
            }
            None => self.cell.fetch_max(n, CELL),
        }
    }
}

/// A modeled pointer atomic.
#[derive(Debug)]
pub struct AtomicPtr<T> {
    cell: StdAtomicPtr<T>,
}

impl<T> AtomicPtr<T> {
    /// A new atomic holding `p`.
    pub fn new(p: *mut T) -> AtomicPtr<T> {
        AtomicPtr { cell: StdAtomicPtr::new(p) }
    }

    fn addr(&self) -> usize {
        self as *const AtomicPtr<T> as usize
    }

    /// Load; `Relaxed` may observe stale pointers inside a model run.
    pub fn load(&self, ord: Ordering) -> *mut T {
        if runtime::stale_reads(ord) {
            if let Some(v) = runtime::atomic_op(
                self.addr(),
                self.cell.load(CELL) as usize as u64,
                "ptr load (Relaxed)",
                true,
                |latest| (latest, None),
            ) {
                return v as usize as *mut T;
            }
            return self.cell.load(ord);
        }
        runtime::atomic_op(
            self.addr(),
            self.cell.load(CELL) as usize as u64,
            "ptr load",
            false,
            |latest| (latest, None),
        )
        .map(|v| v as usize as *mut T)
        .unwrap_or_else(|| self.cell.load(ord))
    }

    /// Swap, returning the previous pointer.
    pub fn swap(&self, p: *mut T, _ord: Ordering) -> *mut T {
        match runtime::atomic_op(
            self.addr(),
            self.cell.load(CELL) as usize as u64,
            "ptr swap",
            false,
            |latest| (latest, Some(p as usize as u64)),
        ) {
            Some(prev) => {
                self.cell.store(p, CELL);
                prev as usize as *mut T
            }
            None => self.cell.swap(p, CELL),
        }
    }

    /// Exclusive non-modeled access. `&mut self` proves no other thread
    /// can observe the atomic, so this is not a scheduling point —
    /// teardown code (`Drop` with `&mut`) uses it to avoid flooding the
    /// trace with uncontended loads.
    pub fn get_mut(&mut self) -> &mut *mut T {
        self.cell.get_mut()
    }

    /// Compare-exchange on the newest value in modification order.
    pub fn compare_exchange(
        &self,
        current: *mut T,
        new: *mut T,
        _success: Ordering,
        _failure: Ordering,
    ) -> Result<*mut T, *mut T> {
        match runtime::atomic_op(
            self.addr(),
            self.cell.load(CELL) as usize as u64,
            "ptr compare_exchange",
            false,
            |latest| {
                if latest == current as usize as u64 {
                    (latest, Some(new as usize as u64))
                } else {
                    (latest, None)
                }
            },
        ) {
            Some(prev) => {
                if prev == current as usize as u64 {
                    self.cell.store(new, CELL);
                    Ok(current)
                } else {
                    Err(prev as usize as *mut T)
                }
            }
            None => self.cell.compare_exchange(current, new, CELL, CELL),
        }
    }
}
