//! The LabBase database facade.
//!
//! LabBase is the paper's "workflow wrapper" (Architecture C): it
//! provides event histories, most-recent views, workflow states, and
//! dynamic schema evolution on top of an object storage manager that has
//! none of those things. The same LabBase code runs over every
//! [`StorageManager`] backend, which is what makes the benchmark a
//! storage-manager comparison.
//!
//! ## Segment map
//!
//! Per the paper's Section 5.1 (footnote 21), LabBase uses four
//! placement segments — "three of which contain relatively small amounts
//! of frequently accessed data and one of which contains a relatively
//! large amount of infrequently accessed data":
//!
//! | segment | contents | temperature |
//! |---|---|---|
//! | 0 | root, catalog, extent records, material sets | hot |
//! | 1 | `sm_material` + most-recent records | hot |
//! | 2 | history-list nodes | hot |
//! | 3 | `sm_step` payloads | **cold, large** |
//!
//! Backends without placement control (Texas) ignore the segment ids —
//! and pay for it, which is the experiment.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::RwLock;

use labflow_storage::{
    ClusterHint, Oid, SegmentId, StatsSnapshot, StorageManager, TxnId, Visibility,
};

use crate::error::{LabError, Result};
use crate::ids::{ClassId, MaterialId, StepId, ValidTime};
use crate::schema::{decode_extent, encode_extent, AttrDef, Catalog};
use crate::session::Footprint;
use crate::smrecord::{RecentRecord, SmMaterial, SmStep};
use crate::state::StateIndex;
use crate::value::Value;

/// Segment for root, catalog, and material sets (hot, tiny).
pub const SEG_CATALOG: SegmentId = SegmentId(0);
/// Segment for `sm_material` and most-recent records (hot).
pub const SEG_MATERIAL: SegmentId = SegmentId(1);
/// Segment for history-list nodes (hot).
pub const SEG_HISTORY: SegmentId = SegmentId(2);
/// Segment for `sm_step` payloads (cold, large).
pub const SEG_STEP: SegmentId = SegmentId(3);

/// The database root lives at the first oid the store assigns.
const ROOT_OID: Oid = Oid::from_raw(1);
/// "LB1" and the store format: 1 keeps each material class's extent in
/// its own record. A store of another format is refused; there is no
/// compatibility reader.
const ROOT_MAGIC: u32 = 0x4C_42_31_01;

/// Decoded material information for callers.
#[derive(Clone, Debug, PartialEq)]
pub struct MaterialInfo {
    /// The material id.
    pub id: MaterialId,
    /// Class name.
    pub class: String,
    /// Class id.
    pub class_id: ClassId,
    /// External name.
    pub name: String,
    /// Valid time of creation.
    pub created: ValidTime,
    /// Current workflow state (`None` if unset).
    pub state: Option<String>,
    /// Valid time of the last state change.
    pub state_time: ValidTime,
}

/// Decoded step information for callers.
#[derive(Clone, Debug, PartialEq)]
pub struct StepInfo {
    /// The step id.
    pub id: StepId,
    /// Class name.
    pub class: String,
    /// Class version in force when the step was recorded.
    pub version: u32,
    /// Valid time of the event.
    pub valid_time: ValidTime,
    /// Involved materials.
    pub materials: Vec<MaterialId>,
    /// Result attributes.
    pub attrs: Vec<(String, Value)>,
}

pub(crate) struct SetsDir {
    pub by_name: HashMap<String, Oid>,
}

impl SetsDir {
    fn encode(&self) -> Vec<u8> {
        let mut w = crate::enc::Writer::new();
        let mut entries: Vec<(&String, &Oid)> = self.by_name.iter().collect();
        entries.sort();
        w.u32(entries.len() as u32);
        for (name, oid) in entries {
            w.str(name);
            w.u64(oid.raw());
        }
        w.finish()
    }

    pub(crate) fn decode(data: &[u8]) -> Result<SetsDir> {
        let mut r = crate::enc::Reader::new(data);
        // An entry is at least a name length and an oid.
        let n = r.count(12)?;
        let mut by_name = HashMap::with_capacity(n);
        for _ in 0..n {
            let name = r.str()?;
            by_name.insert(name, Oid::from_raw(r.u64()?));
        }
        Ok(SetsDir { by_name })
    }
}

/// The lazy material-name index.
///
/// `map` is built on first use by [`LabBase::find_material`] from a scan
/// of the committed class extents, then kept fresh incrementally by
/// creations and footprint aborts. The scan cannot see materials whose
/// creating transaction is still open — and a concurrently *committing*
/// creation can land after the scan sampled the catalog but before the
/// map is installed, which would hide that name from lookups forever.
/// So creations that run while `map` is unbuilt park their name in
/// `pending` (tagged with the creating transaction, so an abort that
/// has no footprint can still withdraw exactly its own entries), and
/// the builder merges `pending` into its scanned map under the same
/// write lock before installing. Invariant: whenever `map` is `Some`,
/// `pending` is empty.
#[derive(Default)]
pub(crate) struct NameIndex {
    pub(crate) map: Option<HashMap<String, Oid>>,
    pub(crate) pending: Vec<(String, Oid, TxnId)>,
}

impl NameIndex {
    /// Note a (possibly still uncommitted) material creation by `txn`.
    /// Mirrors the paper-facing behavior: once noted, the name resolves
    /// even before commit; an abort withdraws it via [`note_aborted`].
    ///
    /// [`note_aborted`]: NameIndex::note_aborted
    pub(crate) fn note_created(&mut self, name: &str, oid: Oid, txn: TxnId) {
        match self.map.as_mut() {
            Some(map) => {
                map.insert(name.to_string(), oid);
            }
            None => self.pending.push((name.to_string(), oid, txn)),
        }
    }

    /// Withdraw a name after its creating transaction aborted.
    pub(crate) fn note_aborted(&mut self, name: &str) {
        if let Some(map) = self.map.as_mut() {
            map.remove(name);
        }
        self.pending.retain(|(n, _, _)| n != name);
    }
}

/// The LabBase database.
pub struct LabBase {
    pub(crate) store: Arc<dyn StorageManager>,
    pub(crate) catalog: RwLock<Catalog>,
    pub(crate) catalog_oid: Oid,
    pub(crate) sets_oid: Oid,
    pub(crate) sets: RwLock<SetsDir>,
    pub(crate) state_index: StateIndex,
    pub(crate) name_index: RwLock<NameIndex>,
    /// Sessions begun and not yet resolved (committed/aborted/dropped).
    /// The network front end asserts this gauge drains to zero on
    /// graceful shutdown.
    pub(crate) sessions_open: AtomicU64,
    /// When set, this database is a replication follower: shipped
    /// transactions are applied through the storage layer directly, and
    /// local write transactions ([`begin`]/[`session`]) are refused with
    /// [`LabError::ReadOnly`] until promotion clears the flag. Reads
    /// ([`view`]) stay available throughout.
    ///
    /// [`begin`]: LabBase::begin
    /// [`session`]: LabBase::session
    /// [`view`]: LabBase::view
    pub(crate) read_only: AtomicBool,
}

impl LabBase {
    /// Initialize a LabBase database in a **fresh** store.
    pub fn create(store: Arc<dyn StorageManager>) -> Result<LabBase> {
        let txn = store.begin()?;
        // Root must be the store's first allocation.
        let root = store.allocate(txn, SEG_CATALOG, ClusterHint::NONE, &[])?;
        if root != ROOT_OID {
            return Err(LabError::BadRoot(format!(
                "expected root at {ROOT_OID}, store assigned {root}; is the store empty?"
            )));
        }
        let catalog = Catalog::new();
        let catalog_oid = store.allocate(txn, SEG_CATALOG, ClusterHint::NONE, &catalog.encode())?;
        let sets = SetsDir { by_name: HashMap::new() };
        let sets_oid = store.allocate(txn, SEG_CATALOG, ClusterHint::NONE, &sets.encode())?;
        let mut w = crate::enc::Writer::new();
        w.u32(ROOT_MAGIC);
        w.u64(catalog_oid.raw());
        w.u64(sets_oid.raw());
        store.update(txn, root, &w.finish())?;
        store.commit(txn)?;
        Ok(LabBase {
            store,
            catalog: RwLock::new(catalog),
            catalog_oid,
            sets_oid,
            sets: RwLock::new(sets),
            state_index: StateIndex::new(),
            name_index: RwLock::new(NameIndex::default()),
            sessions_open: AtomicU64::new(0),
            read_only: AtomicBool::new(false),
        })
    }

    /// Open a LabBase database in an existing store.
    pub fn open(store: Arc<dyn StorageManager>) -> Result<LabBase> {
        let root = store.read(ROOT_OID).map_err(|e| match e {
            labflow_storage::StorageError::UnknownObject(_) => {
                LabError::BadRoot("no root object; not a LabBase store".into())
            }
            e => LabError::Storage(e),
        })?;
        let mut r = crate::enc::Reader::new(&root);
        let magic = r.u32()?;
        if magic != ROOT_MAGIC {
            return Err(LabError::BadRoot(format!(
                "root magic {magic:#010x}, expected {ROOT_MAGIC:#010x}"
            )));
        }
        let catalog_oid = Oid::from_raw(r.u64()?);
        let sets_oid = Oid::from_raw(r.u64()?);
        let catalog = load_catalog(|oid| store.read(oid), catalog_oid)?;
        let sets = SetsDir::decode(&store.read(sets_oid)?)?;
        Ok(LabBase {
            store,
            catalog: RwLock::new(catalog),
            catalog_oid,
            sets_oid,
            sets: RwLock::new(sets),
            state_index: StateIndex::new(),
            name_index: RwLock::new(NameIndex::default()),
            sessions_open: AtomicU64::new(0),
            read_only: AtomicBool::new(false),
        })
    }

    /// The underlying storage manager.
    pub fn store(&self) -> &Arc<dyn StorageManager> {
        &self.store
    }

    /// Number of [`Session`](crate::Session)s currently open (begun and
    /// not yet committed, aborted, or dropped).
    pub fn open_sessions(&self) -> u64 {
        self.sessions_open.load(Ordering::Acquire)
    }

    /// Mark (or unmark) this database as a read-only replication
    /// follower. While set, [`begin`](LabBase::begin) and
    /// [`session`](LabBase::session) fail with [`LabError::ReadOnly`];
    /// views keep working. Promotion flips the flag back off.
    pub fn set_read_only(&self, on: bool) {
        self.read_only.store(on, Ordering::Release);
    }

    /// Whether this database is currently refusing local writes.
    pub fn is_read_only(&self) -> bool {
        self.read_only.load(Ordering::Acquire)
    }

    /// Refuse local write transactions while in follower mode.
    pub(crate) fn check_writable(&self) -> Result<()> {
        if self.is_read_only() {
            return Err(LabError::ReadOnly);
        }
        Ok(())
    }

    /// Drop every derived in-memory cache and reload the schema-level
    /// ones from committed storage truth. A replication follower calls
    /// this after applying shipped transactions: the apply path writes
    /// through the storage engine directly, so the catalog / sets /
    /// state / name caches this wrapper keeps would otherwise go stale.
    /// Mirrors the cache-repair half of [`abort`](LabBase::abort).
    pub fn refresh_replica_caches(&self) -> Result<()> {
        let catalog = self.read_catalog(Visibility::Latest)?;
        *self.catalog.write() = catalog;
        let sets = SetsDir::decode(&self.store.read(self.sets_oid)?)?;
        *self.sets.write() = sets;
        self.state_index.invalidate();
        let mut names = self.name_index.write();
        names.map = None;
        // A follower has no local writers, so no parked names to keep.
        names.pending.clear();
        Ok(())
    }

    /// Begin a transaction.
    pub fn begin(&self) -> Result<TxnId> {
        self.check_writable()?;
        Ok(self.store.begin()?)
    }

    /// Commit a transaction.
    pub fn commit(&self, txn: TxnId) -> Result<()> {
        Ok(self.store.commit(txn)?)
    }

    /// Abort a transaction. NOTE: in-memory indexes (state, names,
    /// catalog cache) are rebuilt conservatively after an abort since the
    /// store rolled back underneath them. [`Session`](crate::Session)
    /// tracks its own footprint and aborts selectively instead.
    pub fn abort(&self, txn: TxnId) -> Result<()> {
        // Re-load shared caches from committed storage truth *before*
        // the abort releases this transaction's locks. `Visibility::Latest`
        // skips the transaction's own pending writes, so it reads
        // exactly the state rollback restores — repairing afterwards
        // leaves a window where a writer blocked on our storage locks
        // acquires them and reads our uncommitted mutations out of the
        // shared cache (e.g. an extent head pointing at a material the
        // rollback is about to erase, breaking the committed chain).
        // With no footprint, what this transaction wrote is what its
        // own-writes view reads differently from the committed one.
        let wrote =
            |oid| self.store.read_vis(Visibility::In(txn), oid).ok() != self.store.read(oid).ok();
        let extents: Vec<ClassId> = self.with_catalog(|c| {
            c.material_classes().iter().filter(|mc| wrote(mc.extent)).map(|mc| mc.id).collect()
        });
        self.restore_catalog(wrote(self.catalog_oid), &extents)?;
        let sets = SetsDir::decode(&self.store.read(self.sets_oid)?)?;
        *self.sets.write() = sets;
        self.state_index.invalidate();
        {
            // Drop the derived map, but keep names other in-flight
            // transactions parked while it was unbuilt: the rebuild's
            // committed-extent scan cannot see their still-uncommitted
            // materials, so discarding `pending` here would reintroduce
            // the lost-name race the park/merge protocol exists to
            // close. Only this transaction's own entries are withdrawn
            // — its creations roll back with the abort.
            let mut names = self.name_index.write();
            names.map = None;
            names.pending.retain(|(_, _, t)| *t != txn);
        }
        self.store.abort(txn)?;
        Ok(())
    }

    /// Abort a transaction, undoing only the in-memory cache entries the
    /// aborting session touched (its [`Footprint`]). Unlike [`abort`],
    /// this never discards the whole state or name index, so other
    /// sessions keep their warm caches.
    ///
    /// [`abort`]: LabBase::abort
    pub(crate) fn abort_with_footprint(&self, txn: TxnId, fp: &Footprint) -> Result<()> {
        // Every cache repair happens *before* `store.abort` — the abort
        // releases this transaction's storage locks, and a writer that
        // was blocked on them (lock-first discipline) must never see
        // this transaction's uncommitted mutations in the shared
        // caches. A stale extent head in the catalog cache, for
        // example, would chain the next committed material onto an
        // object the rollback erases, leaving a dangling pointer in
        // the committed extent chain.
        //
        self.undo_footprint_caches(fp)?;
        self.store.abort(txn)?;
        Ok(())
    }

    /// Roll the shared in-memory caches back to committed state for
    /// everything `fp` touched. Used on abort (before the storage locks
    /// release) and after a failed commit (the engine has already
    /// discarded the pending versions like an abort by then).
    pub(crate) fn undo_footprint_caches(&self, fp: &Footprint) -> Result<()> {
        // Reverse state transitions newest-first so a material that moved
        // several times lands back in its pre-transaction state.
        for (oid, old, new) in fp.state_changes.iter().rev() {
            self.state_index.note_state(*oid, new.as_deref(), old.as_deref());
        }
        // Materials created in the transaction vanish from the caches.
        if !fp.created.is_empty() {
            self.state_index.forget(fp.created.iter().map(|(oid, _)| *oid));
            let mut names = self.name_index.write();
            for (_, name) in &fp.created {
                names.note_aborted(name);
            }
        }
        // `Visibility::Latest` skips this transaction's own pending writes, so
        // it reads exactly what rollback restores.
        if fp.catalog_dirty || !fp.extents.is_empty() {
            self.restore_catalog(fp.catalog_dirty, &fp.extents)?;
        }
        if fp.sets_dirty {
            *self.sets.write() = SetsDir::decode(&self.store.read(self.sets_oid)?)?;
        }
        Ok(())
    }

    /// Put the cached catalog back to committed storage truth for what
    /// one transaction wrote: its schema changes when `schema` is set,
    /// and the extents of `classes`. Every other class keeps its cached
    /// extent — creators do not hold the catalog lock, so another
    /// transaction may have a creation in flight there. Callers run this
    /// while the transaction still holds its locks.
    pub(crate) fn restore_catalog(&self, schema: bool, classes: &[ClassId]) -> Result<()> {
        if schema {
            let mut fresh = self.read_catalog(Visibility::Latest)?;
            let mut cached = self.catalog.write();
            for mc in fresh.material_classes_mut() {
                if let Ok(old) = cached.material_class_by_id(mc.id) {
                    if !classes.contains(&mc.id) {
                        (mc.extent_head, mc.count) = (old.extent_head, old.count);
                    }
                }
            }
            *cached = fresh;
            return Ok(());
        }
        for &id in classes {
            let Ok(ext) = self.with_catalog(|c| c.material_class_by_id(id).map(|mc| mc.extent))
            else {
                continue;
            };
            let (head, count) = decode_extent(&self.store.read(ext)?)?;
            if let Ok(mc) = self.catalog.write().material_class_mut(id) {
                (mc.extent_head, mc.count) = (head, count);
            }
        }
        Ok(())
    }

    /// Checkpoint the underlying store.
    pub fn checkpoint(&self) -> Result<()> {
        Ok(self.store.checkpoint()?)
    }

    /// Storage statistics snapshot.
    pub fn stats(&self) -> StatsSnapshot {
        self.store.stats()
    }

    // ---- schema -----------------------------------------------------------

    /// Define a material class, with its empty extent record.
    pub fn define_material_class(
        &self,
        txn: TxnId,
        name: &str,
        parent: Option<&str>,
    ) -> Result<ClassId> {
        self.change_schema(txn, |catalog| {
            let id = catalog.define_material_class(name, parent)?;
            let extent = encode_extent(Oid::NIL, 0);
            catalog.material_class_mut(id)?.extent =
                self.store.allocate(txn, SEG_CATALOG, ClusterHint::NONE, &extent)?;
            Ok(id)
        })
    }

    /// Define a step class (version 1).
    pub fn define_step_class(
        &self,
        txn: TxnId,
        name: &str,
        attrs: Vec<AttrDef>,
    ) -> Result<ClassId> {
        self.change_schema(txn, |catalog| catalog.define_step_class(name, attrs))
    }

    /// Redefine a step class, returning the new version number. This is
    /// the paper's schema-evolution operation: constant-time, touching
    /// only the catalog object; no instance data is migrated.
    pub fn redefine_step_class(
        &self,
        txn: TxnId,
        name: &str,
        attrs: Vec<AttrDef>,
    ) -> Result<u32> {
        self.change_schema(txn, |catalog| catalog.redefine_step_class(name, attrs))
    }

    /// Apply the schema change `f` to the cached catalog and write the
    /// catalog object — the only writes it gets. On failure (e.g. a
    /// wounded store) the change rolls back with the transaction, so the
    /// cache goes back to `before` while the catalog lock is still held.
    /// The latch is held throughout, so no creator moved an extent in
    /// between.
    fn change_schema<R>(
        &self,
        txn: TxnId,
        f: impl FnOnce(&mut Catalog) -> Result<R>,
    ) -> Result<R> {
        self.lock_catalog(txn)?;
        let mut catalog = self.catalog.write();
        let before = catalog.clone();
        let changed = f(&mut catalog).and_then(|out| {
            self.store.update(txn, self.catalog_oid, &catalog.encode())?;
            Ok(out)
        });
        if changed.is_err() {
            *catalog = before;
        }
        changed
    }

    /// Run `f` with read access to the catalog.
    pub fn with_catalog<R>(&self, f: impl FnOnce(&Catalog) -> R) -> R {
        f(&self.catalog.read())
    }

    // ---- record I/O helpers ------------------------------------------------

    /// The catalog under the visibility rule `vis`, with every class's
    /// extent record overlaid at the same `vis`.
    pub(crate) fn read_catalog(&self, vis: Visibility) -> Result<Catalog> {
        load_catalog(|oid| self.store.read_vis(vis, oid), self.catalog_oid)
    }

    pub(crate) fn read_material_rec_vis(&self, vis: Visibility, oid: Oid) -> Result<SmMaterial> {
        let bytes = self.store.read_vis(vis, oid).map_err(|e| match e {
            labflow_storage::StorageError::UnknownObject(o) => {
                LabError::UnknownMaterial(MaterialId::from(o))
            }
            e => LabError::Storage(e),
        })?;
        SmMaterial::decode(&bytes)
    }

    pub(crate) fn read_material_rec(&self, oid: Oid) -> Result<SmMaterial> {
        self.read_material_rec_vis(Visibility::Latest, oid)
    }

    pub(crate) fn write_material_rec(&self, txn: TxnId, oid: Oid, rec: &SmMaterial) -> Result<()> {
        Ok(self.store.update(txn, oid, &rec.encode())?)
    }

    pub(crate) fn read_step_rec_vis(&self, vis: Visibility, oid: Oid) -> Result<SmStep> {
        let bytes = self.store.read_vis(vis, oid).map_err(|e| match e {
            labflow_storage::StorageError::UnknownObject(o) => {
                LabError::UnknownStep(StepId::from(o))
            }
            e => LabError::Storage(e),
        })?;
        SmStep::decode(&bytes)
    }

    pub(crate) fn read_step_rec(&self, oid: Oid) -> Result<SmStep> {
        self.read_step_rec_vis(Visibility::Latest, oid)
    }

    pub(crate) fn read_recent_rec_vis(&self, vis: Visibility, oid: Oid) -> Result<RecentRecord> {
        if oid.is_nil() {
            return Ok(RecentRecord::default());
        }
        RecentRecord::decode(&self.store.read_vis(vis, oid)?)
    }

    #[cfg(test)]
    pub(crate) fn read_recent_rec(&self, oid: Oid) -> Result<RecentRecord> {
        self.read_recent_rec_vis(Visibility::Latest, oid)
    }

    pub(crate) fn persist_sets_dir(&self, txn: TxnId) -> Result<()> {
        let dir = self.sets.read();
        self.store.update(txn, self.sets_oid, &dir.encode())?;
        Ok(())
    }

    /// Take `txn`'s exclusive storage lock on the catalog object.
    ///
    /// Every schema change calls this *before* touching the in-memory
    /// catalog latch: a transaction that blocked on the storage lock
    /// while holding the latch would stall every concurrent catalog
    /// *read* for the whole lock timeout — a cross-lock convoy in which
    /// each contention event costs a failed transaction. Lock-first,
    /// latch-second makes the wait happen with no latch held, so writers
    /// serialize cleanly and readers never stall behind a waiter.
    /// Material creation follows the same rule on its class's extent
    /// record.
    pub(crate) fn lock_catalog(&self, txn: TxnId) -> Result<()> {
        Ok(self.store.lock_exclusive(txn, self.catalog_oid)?)
    }

    /// Take `txn`'s exclusive storage lock on the sets directory —
    /// same lock-first discipline as [`lock_catalog`](Self::lock_catalog).
    pub(crate) fn lock_sets(&self, txn: TxnId) -> Result<()> {
        Ok(self.store.lock_exclusive(txn, self.sets_oid)?)
    }

    // ---- materials ---------------------------------------------------------

    /// Create a material of class `class` named `name` at valid time
    /// `created`.
    pub fn create_material(
        &self,
        txn: TxnId,
        class: &str,
        name: &str,
        created: ValidTime,
    ) -> Result<MaterialId> {
        Ok(self.create_material_in(txn, class, name, created)?.0)
    }

    /// [`create_material`](Self::create_material), also returning the
    /// class whose extent the creation moved.
    ///
    /// The extent record's storage lock comes first, the catalog latch
    /// second, as for schema changes ([`lock_catalog`](Self::lock_catalog)).
    /// Only that lock's holder moves the class's cached extent, so it is
    /// read, written through to storage and only then updated in the
    /// cache — a failed write leaves nothing to restore.
    pub(crate) fn create_material_in(
        &self,
        txn: TxnId,
        class: &str,
        name: &str,
        created: ValidTime,
    ) -> Result<(MaterialId, ClassId)> {
        let find = |c: &Catalog| {
            c.material_class(class).map(|mc| (mc.id, mc.extent, mc.extent_head, mc.count))
        };
        let (class_id, extent, ext_next, count) = loop {
            let (_, extent, ..) = self.with_catalog(find)?;
            self.store.lock_exclusive(txn, extent)?;
            // While this waited, an aborting definer may have taken the
            // class out of the cache, and another defined the name anew.
            let found = self.with_catalog(find)?;
            if found.1 == extent {
                break found;
            }
        };
        let rec = SmMaterial {
            class: class_id,
            name: name.to_string(),
            created,
            state: String::new(),
            state_time: created,
            history_head: Oid::NIL,
            recent: Oid::NIL,
            ext_next,
        };
        let oid = self.store.allocate(txn, SEG_MATERIAL, ClusterHint::NONE, &rec.encode())?;
        self.store.update(txn, extent, &encode_extent(oid, count + 1))?;
        {
            let mut catalog = self.catalog.write();
            let mc = catalog.material_class_mut(class_id)?;
            (mc.extent_head, mc.count) = (oid, count + 1);
        }
        self.name_index.write().note_created(name, oid, txn);
        self.state_index.note_created(oid);
        Ok((MaterialId::from(oid), class_id))
    }

    /// Decoded material info.
    pub fn material(&self, mat: MaterialId) -> Result<MaterialInfo> {
        let rec = self.read_material_rec(mat.oid())?;
        let catalog = self.catalog.read();
        let class = catalog.material_class_by_id(rec.class)?;
        Ok(MaterialInfo {
            id: mat,
            class: class.name.clone(),
            class_id: rec.class,
            name: rec.name,
            created: rec.created,
            state: if rec.state.is_empty() { None } else { Some(rec.state) },
            state_time: rec.state_time,
        })
    }

    /// Whether a material exists.
    pub fn material_exists(&self, mat: MaterialId) -> bool {
        self.store.exists_vis(Visibility::Latest, mat.oid())
    }

    // ---- steps (workflow tracking: the paper's Section 8.3) ----------------

    /// Record a workflow step: the core benchmark operation. Creates an
    /// `sm_step` event, links it into every involved material's history,
    /// and refreshes their most-recent caches — all inside `txn`.
    pub fn record_step(
        &self,
        txn: TxnId,
        class: &str,
        valid_time: ValidTime,
        materials: &[MaterialId],
        attrs: Vec<(String, Value)>,
    ) -> Result<StepId> {
        if materials.is_empty() {
            return Err(LabError::NoMaterials);
        }
        let (class_id, version) = {
            let catalog = self.catalog.read();
            let sc = catalog.step_class(class)?;
            let ver = sc.current();
            ver.validate(class, &attrs)?;
            (sc.id, ver.version)
        };
        // Verify the materials exist before touching anything. Materials
        // created earlier in this same transaction are still pending, so
        // the check must go through the transaction's own view.
        for m in materials {
            if !self.store.exists_vis(Visibility::In(txn), m.oid()) {
                return Err(LabError::UnknownMaterial(*m));
            }
        }
        let rec = SmStep {
            class: class_id,
            version,
            valid_time,
            materials: materials.iter().map(|m| m.oid()).collect(),
            attrs,
        };
        // Step payloads go to the big cold segment, clustered near the
        // first involved material for the backends that can.
        let step_oid = self.store.allocate(
            txn,
            SEG_STEP,
            ClusterHint::near(materials[0].oid()),
            &rec.encode(),
        )?;
        for m in materials {
            self.link_event(txn, m.oid(), step_oid, valid_time)?;
            self.absorb_recent(txn, m.oid(), step_oid, valid_time, &rec.attrs)?;
        }
        Ok(StepId::from(step_oid))
    }

    /// Decoded step info.
    pub fn step(&self, step: StepId) -> Result<StepInfo> {
        let rec = self.read_step_rec(step.oid())?;
        let catalog = self.catalog.read();
        let class = catalog.step_class_by_id(rec.class)?;
        Ok(StepInfo {
            id: step,
            class: class.name.clone(),
            version: rec.version,
            valid_time: rec.valid_time,
            materials: rec.materials.into_iter().map(MaterialId::from).collect(),
            attrs: rec.attrs,
        })
    }

    /// The attribute set a step instance was created under (its class
    /// *version's* schema) — old instances keep old schemas forever.
    pub fn step_schema(&self, step: StepId) -> Result<Vec<AttrDef>> {
        let rec = self.read_step_rec(step.oid())?;
        let catalog = self.catalog.read();
        let class = catalog.step_class_by_id(rec.class)?;
        let ver = class.version(rec.version).ok_or_else(|| {
            LabError::Decode(format!("step {step} references missing version {}", rec.version))
        })?;
        Ok(ver.attrs.clone())
    }
}

/// Decode the catalog at `catalog_oid` and overlay every class's extent
/// record, each object read through `read`.
fn load_catalog(
    read: impl Fn(Oid) -> labflow_storage::Result<Vec<u8>>,
    catalog_oid: Oid,
) -> Result<Catalog> {
    let mut catalog = Catalog::decode(&read(catalog_oid)?)?;
    for mc in catalog.material_classes_mut() {
        (mc.extent_head, mc.count) = decode_extent(&read(mc.extent)?)?;
    }
    Ok(catalog)
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::schema::attrs;
    use crate::value::AttrType;
    use labflow_storage::MemStore;

    pub(crate) fn mem_db() -> LabBase {
        let store: Arc<dyn StorageManager> = Arc::new(MemStore::ostore_mm());
        let db = LabBase::create(store).unwrap();
        let t = db.begin().unwrap();
        db.define_material_class(t, "material", None).unwrap();
        db.define_material_class(t, "clone", Some("material")).unwrap();
        db.define_step_class(
            t,
            "determine_sequence",
            attrs(&[("sequence", AttrType::Dna), ("quality", AttrType::Real)]),
        )
        .unwrap();
        db.commit(t).unwrap();
        db
    }

    #[test]
    fn a_corrupt_set_count_is_a_typed_error() {
        let mut w = crate::enc::Writer::new();
        w.u32(u32::MAX);
        w.str("set");
        assert!(matches!(SetsDir::decode(&w.finish()), Err(LabError::Decode(_))));
    }

    #[test]
    fn create_open_round_trip() {
        let store: Arc<dyn StorageManager> = Arc::new(MemStore::ostore_mm());
        let db = LabBase::create(store.clone()).unwrap();
        let t = db.begin().unwrap();
        db.define_material_class(t, "clone", None).unwrap();
        db.commit(t).unwrap();
        drop(db);
        let db = LabBase::open(store).unwrap();
        db.with_catalog(|c| {
            assert!(c.material_class("clone").is_ok());
        });
    }

    #[test]
    fn open_non_labbase_store_fails() {
        let store: Arc<dyn StorageManager> = Arc::new(MemStore::ostore_mm());
        assert!(matches!(LabBase::open(store), Err(LabError::BadRoot(_))));
    }

    #[test]
    fn open_refuses_an_older_store_format() {
        let store: Arc<dyn StorageManager> = Arc::new(MemStore::ostore_mm());
        drop(LabBase::create(store.clone()).unwrap());
        // The format before per-class extent records: "LB1\0".
        let mut root = store.read(ROOT_OID).unwrap();
        root[..4].copy_from_slice(&0x4C_42_31_00u32.to_le_bytes());
        let t = store.begin().unwrap();
        store.update(t, ROOT_OID, &root).unwrap();
        store.commit(t).unwrap();
        assert!(matches!(LabBase::open(store), Err(LabError::BadRoot(_))));
    }

    #[test]
    fn create_material_and_read_back() {
        let db = mem_db();
        let t = db.begin().unwrap();
        let m = db.create_material(t, "clone", "clone-1", 10).unwrap();
        db.commit(t).unwrap();
        let info = db.material(m).unwrap();
        assert_eq!(info.class, "clone");
        assert_eq!(info.name, "clone-1");
        assert_eq!(info.created, 10);
        assert_eq!(info.state, None);
        assert!(db.material_exists(m));
    }

    #[test]
    fn create_material_unknown_class_fails() {
        let db = mem_db();
        let t = db.begin().unwrap();
        assert!(matches!(
            db.create_material(t, "gel", "g1", 0),
            Err(LabError::UnknownClass(_))
        ));
        db.commit(t).unwrap();
    }

    #[test]
    fn record_step_validates() {
        let db = mem_db();
        let t = db.begin().unwrap();
        let m = db.create_material(t, "clone", "c1", 0).unwrap();
        // Unknown attr rejected.
        assert!(matches!(
            db.record_step(t, "determine_sequence", 5, &[m], vec![("lane".into(), 1i64.into())]),
            Err(LabError::UnknownAttr { .. })
        ));
        // Type mismatch rejected.
        assert!(matches!(
            db.record_step(
                t,
                "determine_sequence",
                5,
                &[m],
                vec![("quality".into(), Value::Bool(true))]
            ),
            Err(LabError::TypeMismatch { .. })
        ));
        // Empty material list rejected.
        assert!(matches!(
            db.record_step(t, "determine_sequence", 5, &[], vec![]),
            Err(LabError::NoMaterials)
        ));
        // Ghost material rejected.
        let ghost = MaterialId::from(Oid::from_raw(9999));
        assert!(matches!(
            db.record_step(t, "determine_sequence", 5, &[ghost], vec![]),
            Err(LabError::UnknownMaterial(_))
        ));
        // And a good one works.
        let s = db
            .record_step(
                t,
                "determine_sequence",
                5,
                &[m],
                vec![
                    ("sequence".into(), Value::dna("ACGT").unwrap()),
                    ("quality".into(), Value::Real(0.9)),
                ],
            )
            .unwrap();
        db.commit(t).unwrap();
        let info = db.step(s).unwrap();
        assert_eq!(info.class, "determine_sequence");
        assert_eq!(info.version, 1);
        assert_eq!(info.materials, vec![m]);
    }

    #[test]
    fn record_step_refuses_values_too_deep_to_decode() {
        let db = mem_db();
        let t = db.begin().unwrap();
        db.define_step_class(t, "pool", attrs(&[("lanes", AttrType::List)])).unwrap();
        let m = db.create_material(t, "clone", "c1", 0).unwrap();
        let mut v = Value::Null;
        for _ in 0..crate::value::MAX_NESTING {
            v = Value::List(vec![v]);
        }
        // One level past the decode limit is refused before anything is
        // stored…
        let deep = Value::List(vec![v.clone()]);
        let err = db.record_step(t, "pool", 5, &[m], vec![("lanes".into(), deep)]).unwrap_err();
        assert!(matches!(err, LabError::TypeMismatch { .. }), "{err:?}");
        assert!(err.to_string().contains(&crate::value::MAX_NESTING.to_string()), "{err}");
        // …while the limit itself records and reads back.
        let s = db.record_step(t, "pool", 5, &[m], vec![("lanes".into(), v.clone())]).unwrap();
        db.commit(t).unwrap();
        assert_eq!(db.step(s).unwrap().attrs, vec![("lanes".to_string(), v)]);
    }

    #[test]
    fn step_schema_pins_old_version() {
        let db = mem_db();
        let t = db.begin().unwrap();
        let m = db.create_material(t, "clone", "c1", 0).unwrap();
        let s1 = db
            .record_step(
                t,
                "determine_sequence",
                1,
                &[m],
                vec![("quality".into(), Value::Real(0.5))],
            )
            .unwrap();
        let v2 = db
            .redefine_step_class(
                t,
                "determine_sequence",
                attrs(&[("sequence", AttrType::Dna), ("machine", AttrType::Str)]),
            )
            .unwrap();
        assert_eq!(v2, 2);
        let s2 = db
            .record_step(
                t,
                "determine_sequence",
                2,
                &[m],
                vec![("machine".into(), "ABI-377".into())],
            )
            .unwrap();
        // Old attribute now rejected at the *current* version...
        assert!(matches!(
            db.record_step(
                t,
                "determine_sequence",
                3,
                &[m],
                vec![("quality".into(), Value::Real(0.1))]
            ),
            Err(LabError::UnknownAttr { .. })
        ));
        db.commit(t).unwrap();
        // ...but the old instance still decodes under its own schema.
        let schema1: Vec<String> =
            db.step_schema(s1).unwrap().into_iter().map(|a| a.name).collect();
        assert!(schema1.contains(&"quality".to_string()));
        let schema2: Vec<String> =
            db.step_schema(s2).unwrap().into_iter().map(|a| a.name).collect();
        assert!(schema2.contains(&"machine".to_string()));
        assert!(!schema2.contains(&"quality".to_string()));
        assert_eq!(db.step(s1).unwrap().version, 1);
        assert_eq!(db.step(s2).unwrap().version, 2);
    }

    /// Guard against the catalog rewrite coming back: a creation writes
    /// its class's 16-byte extent record, so what it logs does not grow
    /// with the schema. The schema here carries 40 step-class versions,
    /// about 3 KB encoded — rewriting it would log twice that per
    /// creation.
    #[test]
    fn a_creation_logs_no_catalog_image() {
        use labflow_storage::{Engine, Options, Profile, SimVfs};
        let vfs = Arc::new(SimVfs::new(11));
        let store: Arc<dyn StorageManager> = Arc::new(
            Engine::create_with(vfs, "/sim/guard".as_ref(), Profile::ostore(), Options::default())
                .unwrap(),
        );
        let db = LabBase::create(store.clone()).unwrap();
        let t = db.begin().unwrap();
        db.define_material_class(t, "clone", None).unwrap();
        let lanes: Vec<(String, AttrType)> =
            (0..8).map(|i| (format!("lane_attribute_{i}"), AttrType::Real)).collect();
        let lanes: Vec<(&str, AttrType)> = lanes.iter().map(|(n, t)| (n.as_str(), *t)).collect();
        db.define_step_class(t, "assay", attrs(&lanes)).unwrap();
        for _ in 1..40 {
            db.redefine_step_class(t, "assay", attrs(&lanes)).unwrap();
        }
        db.commit(t).unwrap();
        assert!(store.read(db.catalog_oid).unwrap().len() > 2500, "a realistic schema");

        const CREATIONS: u64 = 1000;
        let before = store.stats().wal_bytes;
        for i in 0..CREATIONS {
            let t = db.begin().unwrap();
            db.create_material(t, "clone", &format!("c-{i}"), i as i64).unwrap();
            db.commit(t).unwrap();
        }
        let per_creation = (store.stats().wal_bytes - before) / CREATIONS;
        assert!(per_creation < 300, "a creation logged {per_creation} B");
        assert_eq!(db.count_class("clone", false).unwrap(), CREATIONS);
    }

    #[test]
    fn abort_reloads_caches() {
        let db = mem_db();
        let t = db.begin().unwrap();
        db.define_material_class(t, "gel", None).unwrap();
        db.abort(t).unwrap();
        db.with_catalog(|c| {
            assert!(c.material_class("gel").is_err(), "aborted class must vanish");
            assert!(c.material_class("clone").is_ok());
        });
    }
}
