//! The declared lock-rank table and acquisition-site rules.
//!
//! The runtime half of this table lives in
//! `crates/storage/src/lock_order.rs`; the constants here MUST stay in
//! sync with it (the analyzer cross-checks names it sees in
//! `lock_order::ranked(..)` / `lock_order::acquire(..)` calls against
//! this list and fails on unknown names, so drift is caught).
//!
//! Ranks are a total order: a thread may only acquire a lock whose rank
//! is strictly greater than every lock it already holds. LabBase's cache
//! locks rank below all storage locks because the state-index build path
//! holds `build_lock` across storage reads.

/// `(constant name in lock_order, rank, human-readable lock name)`.
pub const RANK_CONSTS: &[(&str, u16, &str)] = &[
    ("ENGINE_ACTIVE", 10, "engine active-transaction table"),
    ("ENGINE_COMMIT_VIS", 12, "engine commit-visibility flip"),
    ("ENGINE_SNAPSHOTS", 14, "engine open-snapshot registry"),
    ("ENGINE_META", 16, "engine meta-file writer"),
    ("LOCK_SHARD", 20, "lock-manager shard"),
    ("LOCK_HELD", 25, "lock-manager held-locks map"),
    ("HEAP_GLOBAL", 28, "heap global shard (quiesce / segment roster)"),
    ("HEAP_TABLE", 30, "heap object-table shard"),
    ("HEAP_SEGMENT", 32, "heap segment placement state"),
    ("BUFFER_POOL", 40, "buffer-pool page table"),
    ("BUFFER_FRAME", 42, "buffer-pool frame latch"),
    ("PAGE_FILE", 45, "page file handle"),
    ("WAL_WRITER", 50, "WAL append buffer"),
    ("WAL_FILE", 52, "WAL file handle"),
    ("WAL_QUEUE", 55, "WAL log-writer request queue"),
    ("SIM_VFS", 60, "simulated disk state"),
    // Network front end (crates/server): leaf latches ranked above every
    // storage lock, so holding one across a database call is itself an
    // inversion.
    ("SRV_TENANTS", 70, "server tenant registry"),
    ("SRV_CONNS", 72, "server connection table"),
    ("SRV_DRAIN", 74, "server drain latch"),
    // Replication (crates/server ack table, crates/repl follower state):
    // leaf latches like the server's — never held across a storage call.
    // The follower state lock outranks everything precisely so that
    // holding it across `replica_apply_commit` (which acquires engine
    // locks at ranks 10–55) is a caught inversion.
    ("REPL_ACKS", 76, "replication ack table"),
    ("REPL_FOLLOWER", 78, "replication follower state"),
];

// LabBase cache locks are not runtime-instrumented (labbase has no
// dependency on storage's lock_order); they participate in the static
// order only. All rank below ENGINE_ACTIVE.
pub const LAB_STATE_BUILD: u16 = 1;
pub const LAB_CATALOG: u16 = 2;
pub const LAB_SETS: u16 = 3;
pub const LAB_NAME_INDEX: u16 = 4;
pub const LAB_STATE_SHARD: u16 = 5;
pub const LAB_STATELESS: u16 = 6;

/// Resolve a `lock_order::<CONST>` name to its rank.
pub fn rank_of_const(name: &str) -> Option<u16> {
    RANK_CONSTS.iter().find(|(n, _, _)| *n == name).map(|(_, r, _)| *r)
}

/// Human-readable name for a rank (for diagnostics).
pub fn name_of_rank(rank: u16) -> String {
    if let Some((_, _, n)) = RANK_CONSTS.iter().find(|(_, r, _)| *r == rank) {
        return (*n).to_string();
    }
    match rank {
        LAB_STATE_BUILD => "labbase state-index build lock".to_string(),
        LAB_CATALOG => "labbase catalog cache".to_string(),
        LAB_SETS => "labbase sets directory cache".to_string(),
        LAB_NAME_INDEX => "labbase name index".to_string(),
        LAB_STATE_SHARD => "labbase state-index shard".to_string(),
        LAB_STATELESS => "labbase stateless set".to_string(),
        r => format!("rank {r}"),
    }
}

/// How an acquisition site is recognised.
pub enum RuleKind {
    /// A zero-argument method whose name alone identifies the lock
    /// (rank-wrapping helpers like `table_lock()`).
    Helper(&'static str),
    /// `recv.method()` where `recv` is the lock field's name and
    /// `method` is a zero-argument `lock`/`read`/`write`.
    Receiver { recv: &'static str, methods: &'static [&'static str] },
}

/// An acquisition-site rule, scoped to a crate directory name (the
/// component after `crates/`; empty = any file).
pub struct LockRule {
    pub crate_dir: &'static str,
    pub kind: RuleKind,
    pub rank: u16,
}

/// The declared acquisition-site table.
///
/// Storage locks that use the explicit-token pattern (`lock_order::
/// acquire` alongside a raw guard handed to a condvar — `Shard::raw_lock`
/// in lock.rs, `queue` in wal.rs) are intentionally ABSENT here: the
/// token call is the static marker, and a receiver rule would double-
/// count the same lock as two nested acquisitions.
pub fn rules() -> Vec<LockRule> {
    use RuleKind::*;
    vec![
        // -- storage: rank-wrapping helpers ------------------------------
        // The heap's oid-keyed shard helpers (`table_read(oid)`,
        // `table_write(oid)`) and `seg_lock(&g, idx)` take arguments, so
        // they resolve through the name-based call graph rather than a
        // Helper rule; only the zero-arg global-shard helpers are listed.
        LockRule { crate_dir: "storage", kind: Helper("global_read"), rank: 28 },
        LockRule { crate_dir: "storage", kind: Helper("global_write"), rank: 28 },
        LockRule { crate_dir: "storage", kind: Helper("table_read"), rank: 30 },
        LockRule { crate_dir: "storage", kind: Helper("table_write"), rank: 30 },
        // The buffer pool's two locks: the page table, and a frame's
        // latch (`frame.latch()`), which is what page-file I/O runs under.
        LockRule { crate_dir: "storage", kind: Helper("table_lock"), rank: 40 },
        LockRule { crate_dir: "storage", kind: Helper("latch"), rank: 42 },
        LockRule { crate_dir: "storage", kind: Helper("writer_lock"), rank: 50 },
        LockRule { crate_dir: "storage", kind: Helper("log_file_lock"), rank: 52 },
        LockRule { crate_dir: "storage", kind: Helper("sim_lock"), rank: 60 },
        // Engine's active-table accessor and Shard::lock are helpers too.
        LockRule { crate_dir: "storage", kind: Helper("active"), rank: 10 },
        // MVCC additions: the commit-visibility flip and the open-snapshot
        // registry.
        LockRule { crate_dir: "storage", kind: Helper("vis_lock"), rank: 12 },
        LockRule { crate_dir: "storage", kind: Helper("snaps_lock"), rank: 14 },
        LockRule { crate_dir: "storage", kind: Helper("meta_lock"), rank: 16 },
        LockRule {
            crate_dir: "storage",
            kind: Receiver { recv: "shard", methods: &["lock"] },
            rank: 20,
        },
        // The page file's handle mutex (not runtime-instrumented: it is
        // the innermost lock and is only ever acquired last).
        LockRule {
            crate_dir: "storage",
            kind: Receiver { recv: "file", methods: &["lock"] },
            rank: 45,
        },
        // -- labbase: cache locks (static order only) ---------------------
        LockRule {
            crate_dir: "labbase",
            kind: Receiver { recv: "build_lock", methods: &["lock"] },
            rank: LAB_STATE_BUILD,
        },
        LockRule {
            crate_dir: "labbase",
            kind: Receiver { recv: "catalog", methods: &["read", "write"] },
            rank: LAB_CATALOG,
        },
        LockRule {
            crate_dir: "labbase",
            kind: Receiver { recv: "sets", methods: &["read", "write"] },
            rank: LAB_SETS,
        },
        LockRule {
            crate_dir: "labbase",
            kind: Receiver { recv: "name_index", methods: &["read", "write"] },
            rank: LAB_NAME_INDEX,
        },
        LockRule {
            crate_dir: "labbase",
            kind: Receiver { recv: "shards", methods: &["read", "write"] },
            rank: LAB_STATE_SHARD,
        },
        LockRule {
            crate_dir: "labbase",
            kind: Receiver { recv: "shard", methods: &["read", "write"] },
            rank: LAB_STATE_SHARD,
        },
        LockRule {
            crate_dir: "labbase",
            kind: Receiver { recv: "stateless", methods: &["read", "write"] },
            rank: LAB_STATELESS,
        },
    ]
}

/// Function names that block (or force the WAL): holding any guard
/// across one of these is a violation unless the guard IS the thing
/// being waited on / synced (receiver-root and first-argument
/// exemptions in the checker), or an `allow(blocking)` marker applies.
///
/// `read_page` / `write_page` are the page file's I/O: listing them is
/// what makes "no file I/O under the buffer pool's page-table lock"
/// machine-checked. The two sites that run them under a *frame latch*
/// (the I/O latch, by design) carry the marker; `wait_synced` is the
/// pool's wait on the log.
pub const BLOCKING_FNS: &[&str] = &[
    "wait",
    "wait_timeout",
    "wait_while",
    "sleep",
    "sync_data",
    "sync_all",
    "flush",
    "force",
    "group_commit",
    "wait_synced",
    "read_page",
    "write_page",
    "join",
    "recv",
    "recv_timeout",
    "park",
];
