//! A striped, exclusive-only two-phase lock manager for the
//! ObjectStore-like profile and the `OStore-mm` store.
//!
//! ObjectStore mediated all access through a page server with lock-based
//! concurrency control; the Texas store was single-user. We reproduce the
//! distinction at object granularity: transactions of the
//! [`Profile::ostore`](crate::Profile::ostore) engine take exclusive
//! object locks — on every write, and explicitly through
//! [`StorageManager::lock_exclusive`](crate::StorageManager::lock_exclusive)
//! — held until commit/abort, with a timeout as deadlock avoidance.
//! There is no shared mode: readers go through version chains
//! (committed state, a snapshot, or their own transaction's view) and
//! never lock, so a lock is only ever wanted by a writer.
//!
//! Waiters block on a per-shard condition variable and are woken when any
//! lock in the shard is released, so contended acquisition costs no
//! spinning; the timeout bounds the wait and doubles as deadlock
//! avoidance (a timed-out transaction aborts and retries, the classic
//! alternative to a waits-for graph).

use std::collections::HashMap;
use std::sync::{Condvar, Mutex as StdMutex, MutexGuard};
use std::time::{Duration, Instant};

use parking_lot::Mutex;

use crate::error::{Result, StorageError};
use crate::ids::{Oid, TxnId};
use crate::lock_order::{self, Ranked};

struct Shard {
    /// Locked oid → the transaction holding it.
    holders: StdMutex<HashMap<u64, u64>>,
    /// Signalled whenever a lock in this shard is released.
    released: Condvar,
}

impl Shard {
    /// Lock the shard with rank tracking, recovering from poisoning: a
    /// committer that panicked while holding the shard must not wedge
    /// every later transaction hashing to it.
    fn lock(&self) -> Ranked<MutexGuard<'_, HashMap<u64, u64>>> {
        lock_order::ranked(lock_order::LOCK_SHARD, || self.raw_lock())
    }

    /// Poison-recovering lock without a rank token, for callers that
    /// must hand the bare guard to a condvar wait (the token is then
    /// managed explicitly alongside).
    fn raw_lock(&self) -> MutexGuard<'_, HashMap<u64, u64>> {
        self.holders.lock().unwrap_or_else(|e| e.into_inner())
    }
}

const SHARDS: usize = 32;

/// The lock manager.
pub struct LockManager {
    shards: Vec<Shard>,
    /// Per-transaction set of held locks, for release-at-end.
    held: Mutex<HashMap<u64, Vec<Oid>>>,
    timeout: Duration,
}

impl LockManager {
    /// Create a lock manager with the given deadlock-avoidance timeout.
    pub fn new(timeout: Duration) -> Self {
        LockManager {
            shards: (0..SHARDS)
                .map(|_| Shard { holders: StdMutex::new(HashMap::new()), released: Condvar::new() })
                .collect(),
            held: Mutex::new(HashMap::new()),
            timeout,
        }
    }

    fn shard(&self, oid: Oid) -> &Shard {
        &self.shards[(oid.raw() as usize) % SHARDS]
    }

    /// Acquire the lock on `oid` for `txn`, blocking up to the timeout.
    /// Re-acquisition by the holder is granted at once.
    pub fn acquire(&self, txn: TxnId, oid: Oid) -> Result<()> {
        let deadline = Instant::now() + self.timeout;
        let t = txn.raw();
        let shard = self.shard(oid);
        // Explicit token: the guard below is consumed and re-produced by
        // the condvar wait, so it cannot carry the rank itself.
        let _rank = lock_order::acquire(lock_order::LOCK_SHARD);
        let mut holders = shard.raw_lock();
        // Wait attribution: timing starts only when the request actually
        // blocks, so uncontended acquisitions stay free of clock reads.
        let mut waited: Option<Instant> = None;
        let result = loop {
            match holders.get(&oid.raw()) {
                Some(&holder) if holder == t => break Ok(()),
                Some(_) => {}
                None => {
                    holders.insert(oid.raw(), t);
                    self.note_held(t, oid);
                    break Ok(());
                }
            }
            let now = Instant::now();
            if now >= deadline {
                break Err(StorageError::LockTimeout(oid));
            }
            waited.get_or_insert(now);
            crate::waits::add_lock_condvar_wait();
            let (guard, _) = shard
                .released
                .wait_timeout(holders, deadline - now)
                .unwrap_or_else(|e| e.into_inner());
            holders = guard;
        };
        if let Some(start) = waited {
            crate::waits::add_lock_wait(start.elapsed().as_nanos() as u64);
        }
        result
    }

    fn note_held(&self, txn: u64, oid: Oid) {
        let mut held = lock_order::ranked(lock_order::LOCK_HELD, || self.held.lock());
        held.entry(txn).or_default().push(oid);
    }

    /// Release every lock held by `txn` (commit or abort) and wake any
    /// waiters in the affected shards.
    pub fn release_all(&self, txn: TxnId) {
        let t = txn.raw();
        let oids = {
            let mut held = lock_order::ranked(lock_order::LOCK_HELD, || self.held.lock());
            held.remove(&t).unwrap_or_default()
        };
        for oid in oids {
            let shard = self.shard(oid);
            let holder = shard.lock().remove(&oid.raw());
            debug_assert_eq!(holder, Some(t), "a held lock belongs to its transaction");
            shard.released.notify_all();
        }
    }

    /// Number of objects currently locked (diagnostics).
    pub fn locked_objects(&self) -> usize {
        self.shards.iter().map(|s| s.lock().len()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    fn mk() -> LockManager {
        LockManager::new(Duration::from_millis(200))
    }

    /// Locks on distinct oids never conflict: two transactions each
    /// hold one, and both release cleanly.
    #[test]
    fn shared_locks_coexist() {
        let lm = mk();
        let (a, b) = (Oid::from_raw(1), Oid::from_raw(2));
        lm.acquire(TxnId::from_raw(1), a).unwrap();
        lm.acquire(TxnId::from_raw(2), b).unwrap();
        assert_eq!(lm.locked_objects(), 2);
        lm.release_all(TxnId::from_raw(1));
        lm.release_all(TxnId::from_raw(2));
        assert_eq!(lm.locked_objects(), 0);
    }

    #[test]
    fn exclusive_blocks_others_until_release() {
        let lm = Arc::new(mk());
        let o = Oid::from_raw(7);
        lm.acquire(TxnId::from_raw(1), o).unwrap();
        // Second writer times out while txn 1 holds the lock.
        let err = lm.acquire(TxnId::from_raw(2), o).unwrap_err();
        assert!(matches!(err, StorageError::LockTimeout(_)));
        lm.release_all(TxnId::from_raw(1));
        lm.acquire(TxnId::from_raw(2), o).unwrap();
        lm.release_all(TxnId::from_raw(2));
    }

    /// Re-acquisition by the holder is idempotent: granted at once,
    /// recorded once, released by one `release_all`.
    #[test]
    fn reacquire_and_upgrade_as_sole_holder() {
        let lm = mk();
        let o = Oid::from_raw(3);
        let t = TxnId::from_raw(1);
        for _ in 0..3 {
            lm.acquire(t, o).unwrap();
        }
        assert_eq!(lm.locked_objects(), 1);
        assert_eq!(lm.held.lock()[&t.raw()], vec![o]);
        lm.release_all(t);
        assert_eq!(lm.locked_objects(), 0);
    }

    /// A second transaction waits for the holder: while it is blocked
    /// the holder can still re-acquire, and the waiter is granted the
    /// lock only once the holder releases it.
    #[test]
    fn upgrade_blocked_by_other_reader() {
        let lm = Arc::new(LockManager::new(Duration::from_secs(10)));
        let o = Oid::from_raw(4);
        let holder = TxnId::from_raw(1);
        lm.acquire(holder, o).unwrap();
        let lm2 = lm.clone();
        let waiter = std::thread::spawn(move || {
            lm2.acquire(TxnId::from_raw(2), o).unwrap();
            let held = lm2.held.lock().get(&2).cloned();
            lm2.release_all(TxnId::from_raw(2));
            held
        });
        std::thread::sleep(Duration::from_millis(30));
        lm.acquire(holder, o).unwrap();
        assert_eq!(lm.held.lock().get(&2), None, "the waiter must not hold the lock yet");
        lm.release_all(holder);
        assert_eq!(waiter.join().unwrap(), Some(vec![o]));
        assert_eq!(lm.locked_objects(), 0);
    }

    #[test]
    fn writer_released_from_another_thread_unblocks_waiter() {
        let lm = Arc::new(LockManager::new(Duration::from_secs(2)));
        let o = Oid::from_raw(9);
        lm.acquire(TxnId::from_raw(1), o).unwrap();
        let lm2 = lm.clone();
        let handle = std::thread::spawn(move || {
            lm2.acquire(TxnId::from_raw(2), o).unwrap();
            lm2.release_all(TxnId::from_raw(2));
        });
        std::thread::sleep(Duration::from_millis(30));
        lm.release_all(TxnId::from_raw(1));
        handle.join().unwrap();
    }

    #[test]
    fn release_wakes_blocked_writer_promptly() {
        // With condvar-based waits, a blocked writer should acquire the
        // lock well before its timeout once the holder releases.
        let lm = Arc::new(LockManager::new(Duration::from_secs(10)));
        let o = Oid::from_raw(11);
        lm.acquire(TxnId::from_raw(1), o).unwrap();
        let lm2 = lm.clone();
        let start = Instant::now();
        let handle = std::thread::spawn(move || {
            lm2.acquire(TxnId::from_raw(2), o).unwrap();
            lm2.release_all(TxnId::from_raw(2));
        });
        std::thread::sleep(Duration::from_millis(50));
        lm.release_all(TxnId::from_raw(1));
        handle.join().unwrap();
        assert!(
            start.elapsed() < Duration::from_secs(5),
            "waiter should wake on release, not ride out the timeout"
        );
    }

    #[test]
    fn opposite_order_acquisition_times_out_instead_of_deadlocking() {
        // Classic deadlock shape: txn 1 holds A and wants B, txn 2 holds
        // B and wants A. With timeout-based avoidance both cross
        // acquisitions must fail with LockTimeout rather than hang, and
        // after release the objects are free again.
        let lm = Arc::new(mk());
        let a = Oid::from_raw(100);
        let b = Oid::from_raw(101);
        let t1 = TxnId::from_raw(1);
        let t2 = TxnId::from_raw(2);
        lm.acquire(t1, a).unwrap();
        lm.acquire(t2, b).unwrap();
        let lm1 = lm.clone();
        let lm2 = lm.clone();
        let h1 = std::thread::spawn(move || lm1.acquire(t1, b));
        let h2 = std::thread::spawn(move || lm2.acquire(t2, a));
        let r1 = h1.join().unwrap();
        let r2 = h2.join().unwrap();
        assert!(matches!(r1, Err(StorageError::LockTimeout(o)) if o == b));
        assert!(matches!(r2, Err(StorageError::LockTimeout(o)) if o == a));
        lm.release_all(t1);
        lm.release_all(t2);
        lm.acquire(t1, b).unwrap();
        lm.acquire(t2, a).unwrap();
        lm.release_all(t1);
        lm.release_all(t2);
        assert_eq!(lm.locked_objects(), 0);
    }

    #[test]
    fn contended_counter_under_many_threads() {
        // N threads repeatedly lock the same object exclusively; every
        // acquisition must be serialized (no lost updates on a plain
        // non-atomic counter guarded only by the lock manager).
        let lm = Arc::new(LockManager::new(Duration::from_secs(30)));
        let o = Oid::from_raw(42);
        let counter = Arc::new(StdMutex::new(0u64));
        let mut handles = Vec::new();
        for t in 0..8u64 {
            let lm = lm.clone();
            let counter = counter.clone();
            handles.push(std::thread::spawn(move || {
                for i in 0..50 {
                    let txn = TxnId::from_raw(1 + t * 1000 + i);
                    lm.acquire(txn, o).unwrap();
                    {
                        let mut c = counter.lock().unwrap();
                        let v = *c;
                        std::thread::yield_now();
                        *c = v + 1;
                    }
                    lm.release_all(txn);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(*counter.lock().unwrap(), 8 * 50);
        assert_eq!(lm.locked_objects(), 0);
    }
}
