//! Per-client sessions: one open transaction plus the in-memory cache
//! footprint it has accumulated.
//!
//! The raw [`LabBase::begin`]/[`LabBase::abort`] API is safe but blunt:
//! because the shared caches (state index, name index, catalog) may have
//! absorbed updates from the aborting transaction, `abort` invalidates
//! them wholesale and every session pays to rebuild. A [`Session`]
//! instead records which cache entries *its own* transaction touched —
//! materials created and the class extents they moved, state transitions
//! made, catalog/sets-directory rewrites — and on abort undoes exactly
//! that footprint, leaving other sessions' warm cache entries intact.
//! This is what makes abort-and-retry affordable under multi-client lock
//! contention.

use labflow_storage::{wait_snapshot, Oid, Snapshot, TxnId, WaitSnapshot};

use crate::db::LabBase;
use crate::error::Result;
use crate::history::HistoryEntry;
use crate::ids::{ClassId, MaterialId, StepId, ValidTime};
use crate::recent::Recent;
use crate::schema::AttrDef;
use crate::value::Value;
use crate::view::View;

/// The in-memory cache entries one transaction has touched.
#[derive(Default)]
pub(crate) struct Footprint {
    /// Materials created: `(oid, external name)`. On abort these are
    /// removed from the state and name indexes.
    pub created: Vec<(Oid, String)>,
    /// Material classes whose extent record the creations moved, each
    /// once. On abort their cached extents go back to committed state.
    pub extents: Vec<ClassId>,
    /// State transitions `(material, old, new)` in execution order. On
    /// abort they are replayed in reverse against the state index.
    pub state_changes: Vec<(Oid, Option<String>, Option<String>)>,
    /// The catalog object was rewritten (schema change).
    pub catalog_dirty: bool,
    /// The sets directory was rewritten (set created/dropped).
    pub sets_dirty: bool,
}

/// One client's open transaction on a [`LabBase`].
///
/// Dropping an unfinished session aborts it (best-effort); call
/// [`Session::commit`] or [`Session::abort`] explicitly to observe
/// errors. Reads do not need the session — use the [`LabBase`] query API
/// directly.
pub struct Session<'a> {
    db: &'a LabBase,
    txn: TxnId,
    /// The snapshot pinned when the session began: the committed state
    /// the session's transaction started from. Queries through
    /// [`Session::view`] read this stable cut; released on
    /// commit/abort/drop so version GC can move past it.
    snap: Snapshot,
    footprint: Footprint,
    finished: bool,
    waits_at_begin: WaitSnapshot,
}

impl LabBase {
    /// Begin a transaction wrapped in a footprint-tracking session. Also
    /// pins a snapshot of the committed state at session start, so the
    /// session can run consistent reads against its starting point.
    pub fn session(&self) -> Result<Session<'_>> {
        self.check_writable()?;
        let txn = self.store.begin()?;
        let snap = match self.store.begin_snapshot() {
            Ok(s) => s,
            Err(e) => {
                let _ = self.store.abort(txn);
                return Err(e.into());
            }
        };
        self.sessions_open.fetch_add(1, std::sync::atomic::Ordering::AcqRel);
        Ok(Session {
            db: self,
            txn,
            snap,
            footprint: Footprint::default(),
            finished: false,
            waits_at_begin: wait_snapshot(),
        })
    }
}

impl<'a> Session<'a> {
    /// The underlying transaction id.
    pub fn txn(&self) -> TxnId {
        self.txn
    }

    /// The database this session runs against.
    pub fn db(&self) -> &'a LabBase {
        self.db
    }

    /// The snapshot pinned when this session began.
    pub fn snapshot(&self) -> Snapshot {
        self.snap
    }

    /// A read view at the session's begin snapshot: the committed state
    /// the transaction started from, unaffected by concurrent commits
    /// *and* by this session's own uncommitted writes. The view borrows
    /// the session (not just the database), so the borrow checker keeps
    /// it from outliving the snapshot pin that commit/abort/drop
    /// release — a view can never read at an unpinned LSN that version
    /// GC may already have trimmed.
    pub fn view(&self) -> Result<View<'_>> {
        self.db.view_at(self.snap)
    }

    // ---- own-writes reads --------------------------------------------------
    //
    // Conveniences that read through the open transaction, so the
    // session observes objects it created or modified moments earlier.

    /// The material's history as this session sees it (see
    /// [`LabBase::view_in`]).
    pub fn history(&self, mat: MaterialId) -> Result<Vec<HistoryEntry>> {
        self.db.view_in(self.txn).history(mat)
    }

    /// Most-recent value of `attr` as this session sees it.
    pub fn recent(&self, mat: MaterialId, attr: &str) -> Result<Option<Recent>> {
        self.db.view_in(self.txn).recent(mat, attr)
    }

    /// The material's workflow state as this session sees it.
    pub fn state_of(&self, mat: MaterialId) -> Result<Option<String>> {
        self.db.view_in(self.txn).state_of(mat)
    }

    /// Whether the material exists as this session sees it.
    pub fn material_exists(&self, mat: MaterialId) -> bool {
        self.db.view_in(self.txn).material_exists(mat)
    }

    /// The set's members as this session sees it (see
    /// [`LabBase::set_members_in`]).
    pub fn set_members(&self, name: &str) -> Result<Vec<MaterialId>> {
        self.db.set_members_in(self.txn, name)
    }

    /// Where this session's latency has gone so far: nanoseconds the
    /// calling thread spent blocked on object locks and in WAL group
    /// commit since the session began. Meaningful when the thread runs
    /// one session at a time (as the multi-client driver does).
    pub fn wait_profile(&self) -> WaitSnapshot {
        wait_snapshot().delta(&self.waits_at_begin)
    }

    /// Create a material (see [`LabBase::create_material`]).
    pub fn create_material(
        &mut self,
        class: &str,
        name: &str,
        created: ValidTime,
    ) -> Result<MaterialId> {
        let (mat, class) = self.db.create_material_in(self.txn, class, name, created)?;
        self.footprint.created.push((mat.oid(), name.to_string()));
        if !self.footprint.extents.contains(&class) {
            self.footprint.extents.push(class);
        }
        Ok(mat)
    }

    /// Record a workflow step (see [`LabBase::record_step`]). Steps touch
    /// only persistent objects, so they leave no cache footprint.
    pub fn record_step(
        &mut self,
        class: &str,
        valid_time: ValidTime,
        materials: &[MaterialId],
        attrs: Vec<(String, Value)>,
    ) -> Result<StepId> {
        self.db.record_step(self.txn, class, valid_time, materials, attrs)
    }

    /// Set a material's workflow state (see [`LabBase::set_state`]).
    pub fn set_state(&mut self, mat: MaterialId, state: &str, vt: ValidTime) -> Result<()> {
        let (old, new) = self.db.set_state_recording(self.txn, mat, state, vt)?;
        self.footprint.state_changes.push((mat.oid(), old, new));
        Ok(())
    }

    /// Clear a material's workflow state.
    pub fn clear_state(&mut self, mat: MaterialId, vt: ValidTime) -> Result<()> {
        self.set_state(mat, "", vt)
    }

    /// Define a material class (see [`LabBase::define_material_class`]).
    pub fn define_material_class(&mut self, name: &str, parent: Option<&str>) -> Result<ClassId> {
        let id = self.db.define_material_class(self.txn, name, parent)?;
        self.footprint.catalog_dirty = true;
        Ok(id)
    }

    /// Define a step class (see [`LabBase::define_step_class`]).
    pub fn define_step_class(&mut self, name: &str, attrs: Vec<AttrDef>) -> Result<ClassId> {
        let id = self.db.define_step_class(self.txn, name, attrs)?;
        self.footprint.catalog_dirty = true;
        Ok(id)
    }

    /// Redefine a step class (see [`LabBase::redefine_step_class`]).
    pub fn redefine_step_class(&mut self, name: &str, attrs: Vec<AttrDef>) -> Result<u32> {
        let version = self.db.redefine_step_class(self.txn, name, attrs)?;
        self.footprint.catalog_dirty = true;
        Ok(version)
    }

    /// Create a material set (see [`LabBase::create_set`]).
    pub fn create_set(&mut self, name: &str) -> Result<()> {
        self.db.create_set(self.txn, name)?;
        self.footprint.sets_dirty = true;
        Ok(())
    }

    /// Drop a material set (see [`LabBase::drop_set`]).
    pub fn drop_set(&mut self, name: &str) -> Result<()> {
        self.db.drop_set(self.txn, name)?;
        self.footprint.sets_dirty = true;
        Ok(())
    }

    /// Add a material to a set (rewrites only the persistent set object).
    pub fn add_to_set(&mut self, name: &str, mat: MaterialId) -> Result<()> {
        self.db.add_to_set(self.txn, name, mat)
    }

    /// Commit the transaction. The footprint is discarded — committed
    /// cache updates are correct as applied.
    pub fn commit(mut self) -> Result<()> {
        self.finished = true;
        self.resolve();
        let fp = std::mem::take(&mut self.footprint);
        self.db.commit(self.txn).inspect_err(|_| {
            // A failed commit (e.g. an exhausted WAL-force retry budget)
            // discards the pending versions like an abort, so the shared
            // caches must be rolled back the same way — otherwise the
            // next writer reads this transaction's dead mutations (a
            // stale extent head, a phantom state) out of the cache.
            let _ = self.db.undo_footprint_caches(&fp);
        })
    }

    /// Abort the transaction, undoing only this session's cache
    /// footprint instead of invalidating the shared indexes.
    pub fn abort(mut self) -> Result<()> {
        self.finished = true;
        self.resolve();
        let fp = std::mem::take(&mut self.footprint);
        self.db.abort_with_footprint(self.txn, &fp)
    }

    /// Release the snapshot pin and tick the open-sessions gauge down.
    /// Called exactly once per session, on commit/abort/drop.
    fn resolve(&self) {
        self.db.store.release_snapshot(self.snap);
        self.db.sessions_open.fetch_sub(1, std::sync::atomic::Ordering::AcqRel);
    }
}

impl Drop for Session<'_> {
    fn drop(&mut self) {
        if !self.finished {
            self.resolve();
            let fp = std::mem::take(&mut self.footprint);
            let _ = self.db.abort_with_footprint(self.txn, &fp);
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::db::tests::mem_db;
    use crate::value::Value;

    /// Regression: an aborting creator must repair the shared catalog
    /// cache *before* its storage locks release. Repairing after left a
    /// window where a racing creator (blocked on the catalog lock) read
    /// the aborted transaction's extent head out of the cache and
    /// chained its committed material onto an object the rollback
    /// erased — a dangling pointer in the committed extent chain, seen
    /// as `unknown material` errors from extent scans under the
    /// concurrent server workload.
    #[test]
    fn aborting_creator_never_leaks_extent_heads_to_racing_creators() {
        const ROUNDS: i64 = 200;
        let db = mem_db();
        std::thread::scope(|scope| {
            scope.spawn(|| {
                for i in 0..ROUNDS {
                    let mut s = db.session().unwrap();
                    if s.create_material("clone", &format!("ghost-{i}"), i).is_ok() {
                        s.abort().unwrap();
                    }
                }
            });
            scope.spawn(|| {
                for i in 0..ROUNDS {
                    // Retry on contention outcomes (wound-wait may kill
                    // one side); every name must commit exactly once.
                    loop {
                        let mut s = db.session().unwrap();
                        if s.create_material("clone", &format!("kept-{i}"), i).is_ok() {
                            s.commit().unwrap();
                            break;
                        }
                    }
                }
            });
        });
        // The committed extent chain must be fully walkable and contain
        // exactly the committed materials.
        let ext = db.class_extent("clone", false).unwrap();
        assert_eq!(ext.len(), ROUNDS as usize, "extent chain intact");
        for i in 0..ROUNDS {
            assert!(
                db.find_material(&format!("kept-{i}")).unwrap().is_some(),
                "committed kept-{i} resolvable"
            );
            assert_eq!(db.find_material(&format!("ghost-{i}")).unwrap(), None);
        }
    }

    #[test]
    fn session_commit_behaves_like_plain_txn() {
        let db = mem_db();
        let mut s = db.session().unwrap();
        let m = s.create_material("clone", "c1", 0).unwrap();
        s.set_state(m, "queued", 1).unwrap();
        s.record_step(
            "determine_sequence",
            2,
            &[m],
            vec![("quality".into(), Value::Real(0.5))],
        )
        .unwrap();
        s.commit().unwrap();
        assert_eq!(db.state_of(m).unwrap().as_deref(), Some("queued"));
        assert_eq!(db.count_in_state("queued").unwrap(), 1);
        assert_eq!(db.find_material("c1").unwrap(), Some(m));
    }

    #[test]
    fn session_abort_undoes_created_material_in_caches() {
        let db = mem_db();
        // Warm the indexes first so the abort has something to undo.
        let mut s = db.session().unwrap();
        let keep = s.create_material("clone", "keep", 0).unwrap();
        s.set_state(keep, "ready", 1).unwrap();
        s.commit().unwrap();
        assert_eq!(db.count_in_state("ready").unwrap(), 1);
        db.find_material("keep").unwrap().unwrap();

        let mut s = db.session().unwrap();
        let gone = s.create_material("clone", "gone", 2).unwrap();
        s.set_state(gone, "ready", 3).unwrap();
        s.abort().unwrap();

        assert_eq!(db.count_in_state("ready").unwrap(), 1);
        assert_eq!(db.find_material("gone").unwrap(), None);
        assert_eq!(db.find_material("keep").unwrap(), Some(keep));
        assert!(!db.material_exists(gone));
    }

    #[test]
    fn session_abort_restores_prior_state_through_chained_transitions() {
        let db = mem_db();
        let mut s = db.session().unwrap();
        let m = s.create_material("clone", "m", 0).unwrap();
        s.set_state(m, "start", 1).unwrap();
        s.commit().unwrap();
        assert_eq!(db.count_in_state("start").unwrap(), 1);

        let mut s = db.session().unwrap();
        s.set_state(m, "middle", 2).unwrap();
        s.set_state(m, "end", 3).unwrap();
        s.clear_state(m, 4).unwrap();
        s.abort().unwrap();

        assert_eq!(db.state_of(m).unwrap().as_deref(), Some("start"));
        assert_eq!(db.count_in_state("start").unwrap(), 1);
        assert_eq!(db.count_in_state("middle").unwrap(), 0);
        assert_eq!(db.count_in_state("end").unwrap(), 0);
    }

    #[test]
    fn dropped_session_aborts() {
        let db = mem_db();
        {
            let mut s = db.session().unwrap();
            s.create_material("clone", "phantom", 0).unwrap();
            // Dropped without commit.
        }
        assert_eq!(db.find_material("phantom").unwrap(), None);
    }

    #[test]
    fn session_abort_reloads_dirty_catalog_and_sets() {
        let db = mem_db();
        let mut s = db.session().unwrap();
        s.define_material_class("gel", None).unwrap();
        s.create_set("queue").unwrap();
        s.abort().unwrap();
        db.with_catalog(|c| {
            assert!(c.material_class("gel").is_err(), "aborted class must vanish");
            assert!(c.material_class("clone").is_ok());
        });
        assert!(db.set_names().is_empty());
    }
}
