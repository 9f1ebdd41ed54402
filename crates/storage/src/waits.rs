//! Per-thread wait attribution: where did a session's latency go?
//!
//! A handful of thread-local nanosecond counters, cheap enough to keep
//! on in release builds: time spent blocked in the lock manager, time
//! spent parked in `Wal::group_commit` waiting for the log-writer to
//! cover a ticket (a commit, or a page write the write-ahead gate is
//! holding back), time spent *performing* a physical log force on this
//! thread (only the log-writer does), and time spent blocked on heap
//! metadata locks (object-table shards, segment placement state).
//! Worker threads — which the multi-client driver maps 1:1 to clients —
//! snapshot the counters around a span of work and report the delta, so
//! throughput tables can say not just *how fast* but *what each client
//! was waiting on*.

use std::cell::Cell;

thread_local! {
    static LOCK_WAIT_NANOS: Cell<u64> = const { Cell::new(0) };
    static COMMIT_WAIT_NANOS: Cell<u64> = const { Cell::new(0) };
    static COMMIT_FORCE_NANOS: Cell<u64> = const { Cell::new(0) };
    static HEAP_WAIT_NANOS: Cell<u64> = const { Cell::new(0) };
    static LOCK_CONDVAR_WAITS: Cell<u64> = const { Cell::new(0) };
    static NAME_INDEX_WAIT_NANOS: Cell<u64> = const { Cell::new(0) };
}

/// A point-in-time copy of this thread's wait counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct WaitSnapshot {
    /// Nanoseconds spent blocked waiting for object locks (including
    /// waits that ended in a lock timeout).
    pub lock_wait_nanos: u64,
    /// Nanoseconds spent parked in WAL group commit, waiting for the
    /// log-writer thread to cover this thread's ticket — a commit's, or
    /// that of a page fault that found every evictable frame dirty and
    /// ahead of the durable log. Pure queue wait: the physical force
    /// runs elsewhere and is charged to `commit_force_nanos` on
    /// whichever thread performs it.
    pub commit_wait_nanos: u64,
    /// Nanoseconds this thread spent *inside* a physical log force
    /// (write-out or sync). Zero on every client thread: the log-writer
    /// does all the forcing.
    pub commit_force_nanos: u64,
    /// Nanoseconds spent blocked on contended heap metadata locks
    /// (object-table shards and segment placement state). Uncontended
    /// acquisitions cost nothing here.
    pub heap_wait_nanos: u64,
    /// Number of times a lock-manager acquisition actually parked on the
    /// shard condvar (a count, not a duration: paired with
    /// `lock_wait_nanos` it separates many short sleeps from few long
    /// ones — the shape of a convoy vs. a single hot object).
    pub lock_condvar_waits: u64,
    /// Nanoseconds spent waiting on (or rebuilding) the labbase
    /// material name index during `find_material`. Storage knows nothing
    /// about that index; labbase reports into this slot via
    /// [`add_name_index_wait`].
    pub name_index_wait_nanos: u64,
}

impl WaitSnapshot {
    /// Counter-wise difference `self - earlier` (saturating).
    pub fn delta(&self, earlier: &WaitSnapshot) -> WaitSnapshot {
        WaitSnapshot {
            lock_wait_nanos: self.lock_wait_nanos.saturating_sub(earlier.lock_wait_nanos),
            commit_wait_nanos: self.commit_wait_nanos.saturating_sub(earlier.commit_wait_nanos),
            commit_force_nanos: self.commit_force_nanos.saturating_sub(earlier.commit_force_nanos),
            heap_wait_nanos: self.heap_wait_nanos.saturating_sub(earlier.heap_wait_nanos),
            lock_condvar_waits: self.lock_condvar_waits.saturating_sub(earlier.lock_condvar_waits),
            name_index_wait_nanos: self
                .name_index_wait_nanos
                .saturating_sub(earlier.name_index_wait_nanos),
        }
    }
}

/// Snapshot the calling thread's accumulated wait counters.
pub fn snapshot() -> WaitSnapshot {
    WaitSnapshot {
        lock_wait_nanos: LOCK_WAIT_NANOS.with(|c| c.get()),
        commit_wait_nanos: COMMIT_WAIT_NANOS.with(|c| c.get()),
        commit_force_nanos: COMMIT_FORCE_NANOS.with(|c| c.get()),
        heap_wait_nanos: HEAP_WAIT_NANOS.with(|c| c.get()),
        lock_condvar_waits: LOCK_CONDVAR_WAITS.with(|c| c.get()),
        name_index_wait_nanos: NAME_INDEX_WAIT_NANOS.with(|c| c.get()),
    }
}

pub(crate) fn add_lock_wait(nanos: u64) {
    LOCK_WAIT_NANOS.with(|c| c.set(c.get().saturating_add(nanos)));
}

pub(crate) fn add_commit_wait(nanos: u64) {
    COMMIT_WAIT_NANOS.with(|c| c.set(c.get().saturating_add(nanos)));
}

pub(crate) fn add_commit_force(nanos: u64) {
    COMMIT_FORCE_NANOS.with(|c| c.set(c.get().saturating_add(nanos)));
}

pub(crate) fn add_heap_wait(nanos: u64) {
    HEAP_WAIT_NANOS.with(|c| c.set(c.get().saturating_add(nanos)));
}

pub(crate) fn add_lock_condvar_wait() {
    LOCK_CONDVAR_WAITS.with(|c| c.set(c.get().saturating_add(1)));
}

/// Attribute `nanos` of name-index wait to the calling thread. Public:
/// the name index lives in labbase, which owns no wait counters of its
/// own — it reports into the shared per-thread profile here.
pub fn add_name_index_wait(nanos: u64) {
    NAME_INDEX_WAIT_NANOS.with(|c| c.set(c.get().saturating_add(nanos)));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_per_thread() {
        let before = snapshot();
        add_lock_wait(100);
        add_commit_wait(40);
        add_commit_force(13);
        add_heap_wait(9);
        add_lock_wait(1);
        add_lock_condvar_wait();
        add_lock_condvar_wait();
        add_name_index_wait(33);
        let d = snapshot().delta(&before);
        assert_eq!(d.lock_wait_nanos, 101);
        assert_eq!(d.commit_wait_nanos, 40);
        assert_eq!(d.commit_force_nanos, 13);
        assert_eq!(d.heap_wait_nanos, 9);
        assert_eq!(d.lock_condvar_waits, 2);
        assert_eq!(d.name_index_wait_nanos, 33);

        // Another thread's counters are independent.
        let handle = std::thread::spawn(|| {
            let t0 = snapshot();
            add_lock_wait(7);
            snapshot().delta(&t0)
        });
        let other = handle.join().unwrap_or_default();
        assert_eq!(other.lock_wait_nanos, 7);
        let here = snapshot().delta(&before);
        assert_eq!(here.lock_wait_nanos, 101, "other thread must not bleed in");
    }

    #[test]
    fn delta_saturates() {
        let a = WaitSnapshot {
            lock_wait_nanos: 10,
            commit_wait_nanos: 10,
            commit_force_nanos: 4,
            heap_wait_nanos: 10,
            lock_condvar_waits: 2,
            name_index_wait_nanos: 5,
        };
        let b = WaitSnapshot::default();
        assert_eq!(b.delta(&a), WaitSnapshot::default());
    }
}
