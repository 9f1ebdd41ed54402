//! Primary-side replication bookkeeping.
//!
//! The primary does not push: followers pull WAL chunks with
//! `ReplSubscribe` and report durably applied offsets with `ReplAck`.
//! All the primary keeps is this ack table — follower id → the
//! connection that subscribed it and its highest acked WAL offset —
//! plus a condvar so commit handlers can wait for a
//! configured ack quorum ([`ServerConfig::ack_quorum`]) before
//! answering the client. An ack counts only from the connection that
//! subscribed its follower, so no other connection can make one up, and
//! a closed connection's followers leave the table.
//!
//! The table is a leaf latch at rank [`lock_order::REPL_ACKS`], held
//! with the same explicit-token pattern as the WAL's group-commit state
//! (the guard is consumed and re-produced by the condvar wait, so the
//! rank token lives alongside it). It is never held across a storage or
//! socket call.
//!
//! [`ServerConfig::ack_quorum`]: crate::server::ServerConfig::ack_quorum

use std::collections::HashMap;
use std::sync::{Condvar, Mutex};
use std::time::{Duration, Instant};

use labflow_storage::lock_order;

/// One subscribed follower: the connection its `ReplSubscribe` came
/// on, and the highest WAL offset it has acked.
struct Sub {
    conn: u64,
    acked: u64,
}

/// Per-follower acked LSNs plus the quorum condvar.
pub(crate) struct AckTable {
    acks: Mutex<HashMap<u64, Sub>>,
    cv: Condvar,
}

impl AckTable {
    pub(crate) fn new() -> AckTable {
        AckTable { acks: Mutex::new(HashMap::new()), cv: Condvar::new() }
    }

    /// Bind `follower` to connection `conn`, so status reports list it
    /// even before its first ack and only `conn` may ack for it. A
    /// follower that resubscribes from a new connection (its pump
    /// reconnected) moves there and keeps its acked offset.
    pub(crate) fn subscribe(&self, follower: u64, conn: u64) {
        let _rank = lock_order::acquire(lock_order::REPL_ACKS);
        let mut g = self.acks.lock().unwrap_or_else(|e| e.into_inner());
        g.entry(follower).or_insert(Sub { conn, acked: 0 }).conn = conn;
    }

    /// Record that `follower` has durably applied the WAL up to `lsn`,
    /// if `follower` is subscribed on `conn`; returns whether it is.
    /// Acks only move forward: a stale or reordered ack never lowers
    /// the recorded offset.
    pub(crate) fn ack(&self, follower: u64, conn: u64, lsn: u64) -> bool {
        {
            let _rank = lock_order::acquire(lock_order::REPL_ACKS);
            let mut g = self.acks.lock().unwrap_or_else(|e| e.into_inner());
            match g.get_mut(&follower) {
                Some(sub) if sub.conn == conn => sub.acked = sub.acked.max(lsn),
                _ => return false,
            }
        }
        self.cv.notify_all();
        true
    }

    /// Forget the followers bound to `conn` (it closed): a follower
    /// that is gone no longer counts toward a quorum.
    pub(crate) fn drop_conn(&self, conn: u64) {
        let _rank = lock_order::acquire(lock_order::REPL_ACKS);
        let mut g = self.acks.lock().unwrap_or_else(|e| e.into_inner());
        g.retain(|_, sub| sub.conn != conn);
    }

    /// A point-in-time copy of the table, sorted by follower id.
    pub(crate) fn snapshot(&self) -> Vec<(u64, u64)> {
        let mut rows: Vec<(u64, u64)> = {
            let _rank = lock_order::acquire(lock_order::REPL_ACKS);
            let g = self.acks.lock().unwrap_or_else(|e| e.into_inner());
            g.iter().map(|(f, sub)| (*f, sub.acked)).collect()
        };
        rows.sort_unstable();
        rows
    }

    /// Block until at least `quorum` followers have acked `lsn` or
    /// `timeout` elapses; returns whether the quorum was reached. The
    /// commit this waits for is already durable locally — a timeout
    /// means replication lag, not data loss, and is reported as such.
    pub(crate) fn wait_quorum(&self, lsn: u64, quorum: u32, timeout: Duration) -> bool {
        let _rank = lock_order::acquire(lock_order::REPL_ACKS);
        let mut g = self.acks.lock().unwrap_or_else(|e| e.into_inner());
        let deadline = Instant::now() + timeout;
        loop {
            let reached = g.values().filter(|sub| sub.acked >= lsn).count() as u32;
            if reached >= quorum {
                return true;
            }
            let now = Instant::now();
            if now >= deadline {
                return false;
            }
            let (ng, _) = self
                .cv
                .wait_timeout(g, deadline - now)
                .unwrap_or_else(|e| e.into_inner());
            g = ng;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn acks_never_move_backwards() {
        let t = AckTable::new();
        t.subscribe(1, 5);
        assert!(t.ack(1, 5, 100));
        assert!(t.ack(1, 5, 40)); // reordered stale ack
        assert_eq!(t.snapshot(), vec![(1, 100)]);
    }

    #[test]
    fn subscribe_registers_at_zero() {
        let t = AckTable::new();
        t.subscribe(7, 1);
        assert_eq!(t.snapshot(), vec![(7, 0)]);
    }

    #[test]
    fn only_the_subscribing_connection_acks_and_its_close_drops_it() {
        let t = AckTable::new();
        t.subscribe(1, 10);
        assert!(!t.ack(1, 11, 50), "another connection must not ack for follower 1");
        assert!(!t.ack(2, 10, 50), "an id never subscribed must not ack");
        assert_eq!(t.snapshot(), vec![(1, 0)]);
        // The pump reconnected: the follower moves with its offset.
        assert!(t.ack(1, 10, 50));
        t.subscribe(1, 12);
        assert!(!t.ack(1, 10, 60));
        assert!(t.ack(1, 12, 60));
        t.drop_conn(10); // the old connection's close drops nothing now
        assert_eq!(t.snapshot(), vec![(1, 60)]);
        t.drop_conn(12);
        assert_eq!(t.snapshot(), vec![]);
    }

    #[test]
    fn quorum_wait_blocks_until_enough_acks() {
        let t = std::sync::Arc::new(AckTable::new());
        t.subscribe(1, 1);
        t.subscribe(2, 2);
        t.ack(1, 1, 50);
        // One follower at 50: quorum of 2 at lsn 50 not reached yet.
        assert!(!t.wait_quorum(50, 2, Duration::from_millis(10)));
        let waiter = {
            let t = std::sync::Arc::clone(&t);
            std::thread::spawn(move || t.wait_quorum(50, 2, Duration::from_secs(5)))
        };
        t.ack(2, 2, 60);
        assert!(waiter.join().unwrap_or(false), "second ack must release the quorum wait");
    }
}
