// Seeded buffer-pool lock-discipline violations for the analyzer's
// self-test.
//
// Not compiled by cargo (see panic_sites.rs). The pool has two locks —
// the page table (40) and a per-frame latch (42) — and one rule the
// whole design hangs on: the page table is never held across page-file
// I/O or a wait on the log. Each function below breaks one thing.

struct Fixture;

impl Fixture {
    /// The bug this PR removed: a fault reads the page file while still
    /// holding the page table, so every other page access in the
    /// process queues behind one disk read.
    fn pool_table_lock_across_page_io(&self, pid: PageId, out: &mut [u8]) {
        let table = lock_order::ranked(lock_order::BUFFER_POOL, || self.table.lock());
        self.file.read_page(pid, out);
        drop(table);
    }

    /// The same, for the eviction write.
    fn pool_table_lock_across_page_write(&self, pid: PageId, data: &[u8]) {
        let _table = lock_order::ranked(lock_order::BUFFER_POOL, || self.table.lock());
        self.file.write_page(pid, data);
    }

    /// Waiting for the log to sync under the page table: the old steal
    /// guard's stall, by another name.
    fn pool_table_lock_across_log_wait(&self, mark: u64) {
        let _table = lock_order::ranked(lock_order::BUFFER_POOL, || self.table.lock());
        self.wal.wait_synced(mark);
    }

    /// Frame-latch inversion: the page table (40) taken while a frame
    /// latch (42) is held. A fault that fails must drop its latch before
    /// it goes back to unmap the frame.
    fn frame_latch_then_table_inverted(&self) {
        let _buf = lock_order::ranked(lock_order::BUFFER_FRAME, || self.frame.lock());
        let _table = lock_order::ranked(lock_order::BUFFER_POOL, || self.table.lock());
    }

    /// Frame-latch inversion from above: a heap segment lock (32) taken
    /// under a frame latch (42) — a page closure calling back into the
    /// heap.
    fn heap_under_frame_latch_inverted(&self) {
        let _buf = lock_order::ranked(lock_order::BUFFER_FRAME, || self.frame.lock());
        let _seg = lock_order::ranked(lock_order::HEAP_SEGMENT, || self.place.lock());
    }

    /// What the pool actually does — latch a known-free frame under the
    /// table, release the table, and only then do the I/O, under the
    /// latch's marker — must NOT be flagged.
    fn pool_well_ordered(&self, pid: PageId) {
        let table = lock_order::ranked(lock_order::BUFFER_POOL, || self.table.lock());
        let mut buf = lock_order::ranked(lock_order::BUFFER_FRAME, || self.frame.lock());
        drop(table);
        // analyzer: allow(blocking, "fixture: the frame latch is the I/O latch")
        self.file.read_page(pid, &mut buf.data);
    }
}
