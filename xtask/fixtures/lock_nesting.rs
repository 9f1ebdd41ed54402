// Seeded lock-discipline violations for the analyzer's self-test.
//
// Not compiled by cargo (see panic_sites.rs). The lock-order pass keys
// on `lock_order::ranked(..)` / `lock_order::acquire(..)` call shapes,
// which work in any file regardless of the rank table's crate scoping.

struct Fixture;

impl Fixture {
    /// Direct rank inversion: WAL writer (50) held while taking the
    /// buffer pool (40).
    fn inverted(&self) {
        let _w = lock_order::ranked(lock_order::WAL_WRITER, || self.writer.lock());
        let _p = lock_order::ranked(lock_order::BUFFER_POOL, || self.pool.lock());
    }

    /// A guard held across a blocking call.
    fn held_across_sleep(&self) {
        let _g = lock_order::ranked(lock_order::LOCK_SHARD, || self.m.lock());
        std::thread::sleep(std::time::Duration::from_millis(1));
    }

    /// Cross-function inversion: holds the WAL log-writer request queue
    /// (55) while calling a helper that takes the WAL writer (50).
    fn outer(&self) {
        let _g = lock_order::ranked(lock_order::WAL_QUEUE, || self.queue.lock());
        self.inner_acquire();
    }

    fn inner_acquire(&self) {
        let _w = lock_order::ranked(lock_order::WAL_WRITER, || self.writer.lock());
    }

    /// The log-writer's cardinal sin: forcing the log (WAL writer, 50)
    /// while still holding its request queue (55). The writer loop
    /// claims under the queue, *releases it*, and only then forces —
    /// nesting them would park every committer behind the disk.
    fn wal_force_under_queue_inverted(&self) {
        let _q = lock_order::ranked(lock_order::WAL_QUEUE, || self.queue.lock());
        let _w = lock_order::ranked(lock_order::WAL_WRITER, || self.writer.lock());
    }

    /// Heap-shard inversion: a segment placement lock (32) held while
    /// taking an object-table shard (30) — the mistake the sharded heap's
    /// protocols are written to avoid (table shard first, then segment).
    fn heap_shards_inverted(&self) {
        let _s = lock_order::ranked(lock_order::HEAP_SEGMENT, || self.place.lock());
        let _t = lock_order::ranked(lock_order::HEAP_TABLE, || self.table.lock());
    }

    /// Heap quiesce inversion: taking the heap's global shard (28) while
    /// already inside a segment (32) would deadlock against the
    /// checkpoint quiesce.
    fn heap_global_inverted(&self) {
        let _s = lock_order::ranked(lock_order::HEAP_SEGMENT, || self.place.lock());
        let _g = lock_order::ranked(lock_order::HEAP_GLOBAL, || self.global.read());
    }

    /// Reclamation inversion: the heap's global shard (28) taken while
    /// holding an object-table shard (30). GC drains each shard's
    /// condemned list under the global shard it already holds shared,
    /// never by reaching for the global shard from inside a table shard.
    fn global_under_table_inverted(&self) {
        let _t = lock_order::ranked(lock_order::HEAP_TABLE, || self.table.lock());
        let _g = lock_order::ranked(lock_order::HEAP_GLOBAL, || self.global.read());
    }

    /// Snapshot-registry inversion: the commit-visibility flip (12)
    /// taken while holding the open-snapshot registry (14). Commit flips
    /// visibility first and consults the registry's low-water mark after.
    fn vis_under_snaps_inverted(&self) {
        let _s = lock_order::ranked(lock_order::ENGINE_SNAPSHOTS, || self.snaps.lock());
        let _v = lock_order::ranked(lock_order::ENGINE_COMMIT_VIS, || self.vis.lock());
    }

    /// Correctly ordered MVCC nesting: visibility flip, then snapshot
    /// registry, then the heap's global shard — must NOT be flagged.
    fn mvcc_well_ordered(&self) {
        let _v = lock_order::ranked(lock_order::ENGINE_COMMIT_VIS, || self.vis.lock());
        let _s = lock_order::ranked(lock_order::ENGINE_SNAPSHOTS, || self.snaps.lock());
        let _g = lock_order::ranked(lock_order::HEAP_GLOBAL, || self.global.read());
    }

    /// Correctly ordered nesting: must NOT be flagged.
    fn well_ordered(&self) {
        let _g = lock_order::ranked(lock_order::HEAP_GLOBAL, || self.global.read());
        let _t = lock_order::ranked(lock_order::HEAP_TABLE, || self.table.lock());
        let _p = lock_order::ranked(lock_order::BUFFER_POOL, || self.pool.lock());
    }

    /// Server inversion: the tenant registry (70) taken while holding
    /// the connection table (72). Admission decisions never run under
    /// the connection table; the accept loop registers first, admits
    /// later.
    fn srv_tenants_under_conns_inverted(&self) {
        let _c = lock_order::ranked(lock_order::SRV_CONNS, || self.conns.lock());
        let _t = lock_order::ranked(lock_order::SRV_TENANTS, || self.tenants.lock());
    }

    /// Server drain inversion: the connection table (72) taken while
    /// holding the drain latch (74). Drain flips its flag, releases,
    /// and only then walks connections.
    fn srv_conns_under_drain_inverted(&self) {
        let _d = lock_order::ranked(lock_order::SRV_DRAIN, || self.drain.lock());
        let _c = lock_order::ranked(lock_order::SRV_CONNS, || self.conns.lock());
    }

    /// Cross-layer inversion: a storage lock (engine active-transaction
    /// table, 10) acquired while holding a server latch (70). Server
    /// latches rank above the whole storage engine precisely so that
    /// holding one across any database call is flagged.
    fn srv_storage_under_tenants_inverted(&self) {
        let _t = lock_order::ranked(lock_order::SRV_TENANTS, || self.tenants.lock());
        let _a = lock_order::ranked(lock_order::ENGINE_ACTIVE, || self.active.lock());
    }

    /// Correctly ordered server nesting — tenants, connections, drain —
    /// must NOT be flagged.
    fn srv_well_ordered(&self) {
        let _t = lock_order::ranked(lock_order::SRV_TENANTS, || self.tenants.lock());
        let _c = lock_order::ranked(lock_order::SRV_CONNS, || self.conns.lock());
        let _d = lock_order::ranked(lock_order::SRV_DRAIN, || self.drain.lock());
    }

    /// Replication inversion: the follower state lock (78) held while
    /// taking an engine lock (10) — i.e. held across
    /// `replica_apply_commit`. The follower's ingest is three-phase
    /// (check under lock, apply unlocked, advance under lock) exactly to
    /// avoid this.
    fn repl_follower_across_apply_inverted(&self) {
        let _f = lock_order::ranked(lock_order::REPL_FOLLOWER, || self.state.lock());
        let _a = lock_order::ranked(lock_order::ENGINE_ACTIVE, || self.active.lock());
    }

    /// Replication inversion: the ack table (76) taken while holding
    /// the follower state lock (78). Acks are reported after ingest
    /// returns, never from under it.
    fn repl_acks_under_follower_inverted(&self) {
        let _f = lock_order::ranked(lock_order::REPL_FOLLOWER, || self.state.lock());
        let _a = lock_order::ranked(lock_order::REPL_ACKS, || self.acks.lock());
    }

    /// Correctly ordered replication nesting — ack table, then follower
    /// state — must NOT be flagged.
    fn repl_well_ordered(&self) {
        let _a = lock_order::ranked(lock_order::REPL_ACKS, || self.acks.lock());
        let _f = lock_order::ranked(lock_order::REPL_FOLLOWER, || self.state.lock());
    }

    /// Waived inversion: the allow marker suppresses the finding.
    fn waived(&self) {
        let _p = lock_order::ranked(lock_order::BUFFER_POOL, || self.pool.lock());
        // analyzer: allow(lock_order, "fixture: demonstrates the escape hatch")
        let _t = lock_order::ranked(lock_order::HEAP_TABLE, || self.table.lock());
    }
}
