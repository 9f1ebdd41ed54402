//! Read-only views over a fixed visibility rule — the analytical read
//! path of the MVCC refactor.
//!
//! A [`View`] bundles a visibility rule ([`Visibility`]) with the catalog and
//! sets directory *as seen under that rule*, so every traversal it runs
//! (extent scans, history walks, most-recent lookups) observes one
//! consistent cut of the database. The interesting case is the
//! snapshot-pinned view: the catalog object is itself versioned, so
//! decoding it at [`Visibility::At`] yields extent heads that only reference
//! materials committed at or before the snapshot LSN — a full-history
//! analytical scan can run while writers commit, without ever seeing a
//! half-applied transaction and without taking a single object lock.

use labflow_storage::{Oid, Snapshot, TxnId, Visibility};

use crate::db::{LabBase, MaterialInfo, SetsDir, StepInfo};
use crate::error::{LabError, Result};
use crate::history::HistoryEntry;
use crate::ids::{MaterialId, StepId, ValidTime};
use crate::recent::Recent;
use crate::schema::{AttrDef, Catalog};
use crate::value::Value;

/// A read-only view of the database under one visibility rule.
///
/// Obtained from [`LabBase::view`] (pinned snapshot, released on drop),
/// [`LabBase::view_in`] (an open transaction's read-your-own-writes
/// view), or [`Session::view`](crate::Session::view) (the session's
/// pinned snapshot). All methods are lock-free on the object store.
pub struct View<'a> {
    db: &'a LabBase,
    vis: Visibility,
    /// Snapshot-pinned views carry the catalog decoded *at* the
    /// snapshot; `None` means "use the live in-memory catalog".
    catalog: Option<Catalog>,
    /// Likewise for the sets directory.
    sets: Option<SetsDir>,
    /// A snapshot this view opened itself and must release on drop.
    owned: Option<Snapshot>,
}

impl LabBase {
    /// Open a snapshot-pinned read view. Everything the view reads comes
    /// from the single commit LSN the snapshot was opened at; concurrent
    /// writers neither block it nor appear in it. The snapshot is
    /// released (unpinning version GC) when the view is dropped.
    pub fn view(&self) -> Result<View<'_>> {
        let snap = self.store.begin_snapshot()?;
        match self.view_at(snap) {
            Ok(mut v) => {
                v.owned = Some(snap);
                Ok(v)
            }
            Err(e) => {
                self.store.release_snapshot(snap);
                Err(e)
            }
        }
    }

    /// A read view at an externally managed snapshot (e.g. a
    /// [`Session`](crate::Session)'s). The caller keeps ownership: the
    /// snapshot is *not* released when the view drops.
    pub fn view_at(&self, snap: Snapshot) -> Result<View<'_>> {
        let vis = Visibility::At(snap);
        let catalog = self.read_catalog(vis)?;
        let sets = SetsDir::decode(&self.store.read_vis(vis, self.sets_oid)?)?;
        Ok(View { db: self, vis, catalog: Some(catalog), sets: Some(sets), owned: None })
    }

    /// A read view through an open transaction: committed state plus the
    /// transaction's own pending writes, with the live catalog (which
    /// already reflects the transaction's schema changes).
    pub fn view_in(&self, txn: TxnId) -> View<'_> {
        View { db: self, vis: Visibility::In(txn), catalog: None, sets: None, owned: None }
    }
}

impl<'a> View<'a> {
    /// The commit LSN this view reads at, if it is snapshot-pinned.
    pub fn lsn(&self) -> Option<u64> {
        match self.vis {
            Visibility::At(snap) => Some(snap.lsn),
            _ => None,
        }
    }

    /// The snapshot this view reads at, if it is snapshot-pinned.
    pub fn snapshot(&self) -> Option<Snapshot> {
        match self.vis {
            Visibility::At(snap) => Some(snap),
            _ => None,
        }
    }

    /// Run `f` with read access to this view's catalog: the catalog *as
    /// of the snapshot* for pinned views, the live catalog otherwise.
    pub fn with_catalog<R>(&self, f: impl FnOnce(&Catalog) -> R) -> R {
        match &self.catalog {
            Some(c) => f(c),
            None => self.db.with_catalog(f),
        }
    }

    fn with_cat<R>(&self, f: impl FnOnce(&Catalog) -> R) -> R {
        self.with_catalog(f)
    }

    fn set_oid(&self, name: &str) -> Result<Oid> {
        let oid = match &self.sets {
            Some(dir) => dir.by_name.get(name).copied(),
            None => self.db.sets.read().by_name.get(name).copied(),
        };
        oid.ok_or_else(|| LabError::UnknownSet(name.to_string()))
    }

    // ---- materials ---------------------------------------------------------

    /// Decoded material info (see [`LabBase::material`]).
    pub fn material(&self, mat: MaterialId) -> Result<MaterialInfo> {
        let rec = self.db.read_material_rec_vis(self.vis, mat.oid())?;
        self.with_cat(|c| {
            let class = c.material_class_by_id(rec.class)?;
            Ok(MaterialInfo {
                id: mat,
                class: class.name.clone(),
                class_id: rec.class,
                name: rec.name.clone(),
                created: rec.created,
                state: if rec.state.is_empty() { None } else { Some(rec.state.clone()) },
                state_time: rec.state_time,
            })
        })
    }

    /// Whether the material exists in this view.
    pub fn material_exists(&self, mat: MaterialId) -> bool {
        self.db.store.exists_vis(self.vis, mat.oid())
    }

    /// The material's current workflow state, if any.
    pub fn state_of(&self, mat: MaterialId) -> Result<Option<String>> {
        self.db.state_of_vis(self.vis, mat)
    }

    /// All materials of `class`, newest-created first, walking extent
    /// heads as recorded in this view's catalog.
    pub fn class_extent(&self, class: &str, include_subclasses: bool) -> Result<Vec<MaterialId>> {
        let heads: Vec<Oid> = self.with_cat(|c| -> Result<Vec<Oid>> {
            let target = c.material_class(class)?.id;
            Ok(c.material_classes()
                .iter()
                .filter(|mc| {
                    if include_subclasses {
                        c.is_a(mc.id, target)
                    } else {
                        mc.id == target
                    }
                })
                .map(|mc| mc.extent_head)
                .collect())
        })?;
        let mut out = Vec::new();
        for head in heads {
            out.extend(self.db.walk_extent(self.vis, head)?);
        }
        Ok(out)
    }

    /// Cached instance count for `class` from this view's catalog.
    pub fn count_class(&self, class: &str, include_subclasses: bool) -> Result<u64> {
        self.with_cat(|c| {
            let target = c.material_class(class)?.id;
            Ok(c.material_classes()
                .iter()
                .filter(|mc| {
                    if include_subclasses {
                        c.is_a(mc.id, target)
                    } else {
                        mc.id == target
                    }
                })
                .map(|mc| mc.count)
                .sum())
        })
    }

    // ---- histories ---------------------------------------------------------

    /// The material's full history, newest first.
    pub fn history(&self, mat: MaterialId) -> Result<Vec<HistoryEntry>> {
        self.db.history_vis(self.vis, mat)
    }

    /// Number of events in the material's history.
    pub fn history_len(&self, mat: MaterialId) -> Result<usize> {
        Ok(self.history(mat)?.len())
    }

    /// History entries with valid time in `[from, to]`, newest first.
    pub fn history_between(
        &self,
        mat: MaterialId,
        from: ValidTime,
        to: ValidTime,
    ) -> Result<Vec<HistoryEntry>> {
        self.db.history_between_vis(self.vis, mat, from, to)
    }

    /// The value of `attr` **as of** valid time `at`.
    pub fn as_of(
        &self,
        mat: MaterialId,
        attr: &str,
        at: ValidTime,
    ) -> Result<Option<(ValidTime, Value)>> {
        self.db.as_of_vis(self.vis, mat, attr, at)
    }

    /// Every attribute's value **as of** valid time `at`.
    pub fn recent_all_at(
        &self,
        mat: MaterialId,
        at: ValidTime,
    ) -> Result<Vec<(String, ValidTime, Value)>> {
        self.db.recent_all_at_vis(self.vis, mat, at)
    }

    // ---- most-recent views -------------------------------------------------

    /// The most-recent value of `attr` for `mat`, from the cache.
    pub fn recent(&self, mat: MaterialId, attr: &str) -> Result<Option<Recent>> {
        self.db.recent_vis(self.vis, mat, attr)
    }

    /// All most-recent values for `mat`, sorted by attribute name.
    pub fn recent_all(&self, mat: MaterialId) -> Result<Vec<(String, Recent)>> {
        self.db.recent_all_vis(self.vis, mat)
    }

    /// Reference implementation of [`recent`](View::recent) that derives
    /// the value by walking the history.
    pub fn recent_uncached(&self, mat: MaterialId, attr: &str) -> Result<Option<Recent>> {
        self.db.recent_uncached_vis(self.vis, mat, attr)
    }

    // ---- steps -------------------------------------------------------------

    /// Decoded step info (see [`LabBase::step`]).
    pub fn step(&self, step: StepId) -> Result<StepInfo> {
        let rec = self.db.read_step_rec_vis(self.vis, step.oid())?;
        self.with_cat(|c| {
            let class = c.step_class_by_id(rec.class)?;
            Ok(StepInfo {
                id: step,
                class: class.name.clone(),
                version: rec.version,
                valid_time: rec.valid_time,
                materials: rec.materials.iter().map(|&o| MaterialId::from(o)).collect(),
                attrs: rec.attrs.clone(),
            })
        })
    }

    /// The attribute set the step instance was created under.
    pub fn step_schema(&self, step: StepId) -> Result<Vec<AttrDef>> {
        let rec = self.db.read_step_rec_vis(self.vis, step.oid())?;
        self.with_cat(|c| {
            let class = c.step_class_by_id(rec.class)?;
            let ver = class.version(rec.version).ok_or_else(|| {
                LabError::Decode(format!(
                    "step {step} references missing version {}",
                    rec.version
                ))
            })?;
            Ok(ver.attrs.clone())
        })
    }

    // ---- sets --------------------------------------------------------------

    /// The set's members in insertion order.
    pub fn set_members(&self, name: &str) -> Result<Vec<MaterialId>> {
        let oid = self.set_oid(name)?;
        let rec = crate::smrecord::MaterialSetRec::decode(&self.db.store.read_vis(self.vis, oid)?)?;
        Ok(rec.members.into_iter().map(MaterialId::from).collect())
    }

    /// Membership test.
    pub fn set_contains(&self, name: &str, mat: MaterialId) -> Result<bool> {
        let oid = self.set_oid(name)?;
        let rec = crate::smrecord::MaterialSetRec::decode(&self.db.store.read_vis(self.vis, oid)?)?;
        Ok(rec.members.contains(&mat.oid()))
    }

    /// All set names in this view, sorted.
    pub fn set_names(&self) -> Vec<String> {
        let mut names: Vec<String> = match &self.sets {
            Some(dir) => dir.by_name.keys().cloned().collect(),
            None => self.db.sets.read().by_name.keys().cloned().collect(),
        };
        names.sort();
        names
    }
}

impl Drop for View<'_> {
    fn drop(&mut self) {
        if let Some(snap) = self.owned.take() {
            self.db.store.release_snapshot(snap);
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::db::tests::mem_db;
    use crate::value::Value;

    fn q(v: f64) -> Vec<(String, Value)> {
        vec![("quality".into(), Value::Real(v))]
    }

    #[test]
    fn view_is_a_stable_cut() {
        let db = mem_db();
        let t = db.begin().unwrap();
        let a = db.create_material(t, "clone", "a", 0).unwrap();
        db.record_step(t, "determine_sequence", 10, &[a], q(0.1)).unwrap();
        db.commit(t).unwrap();

        let view = db.view().unwrap();
        assert_eq!(view.class_extent("clone", false).unwrap(), vec![a]);
        assert_eq!(view.recent(a, "quality").unwrap().unwrap().value, Value::Real(0.1));

        // A later commit is invisible to the pinned view...
        let t = db.begin().unwrap();
        let b = db.create_material(t, "clone", "b", 0).unwrap();
        db.record_step(t, "determine_sequence", 20, &[a], q(0.2)).unwrap();
        db.commit(t).unwrap();

        assert_eq!(view.class_extent("clone", false).unwrap(), vec![a]);
        assert!(!view.material_exists(b));
        assert_eq!(view.recent(a, "quality").unwrap().unwrap().value, Value::Real(0.1));
        assert_eq!(view.history(a).unwrap().len(), 1);
        assert_eq!(view.count_class("clone", false).unwrap(), 1);

        // ...while a fresh view sees it.
        let fresh = db.view().unwrap();
        assert_eq!(fresh.class_extent("clone", false).unwrap(), vec![b, a]);
        assert_eq!(fresh.recent(a, "quality").unwrap().unwrap().value, Value::Real(0.2));
        assert!(fresh.lsn().unwrap() > view.lsn().unwrap());
    }

    #[test]
    fn view_in_sees_own_pending_writes() {
        let db = mem_db();
        let t = db.begin().unwrap();
        let a = db.create_material(t, "clone", "a", 0).unwrap();
        db.record_step(t, "determine_sequence", 10, &[a], q(0.1)).unwrap();
        let view = db.view_in(t);
        assert!(view.material_exists(a));
        assert_eq!(view.history(a).unwrap().len(), 1);
        assert_eq!(view.recent(a, "quality").unwrap().unwrap().value, Value::Real(0.1));
        drop(view);
        db.commit(t).unwrap();
    }

    #[test]
    fn view_snapshot_of_sets() {
        let db = mem_db();
        let t = db.begin().unwrap();
        let a = db.create_material(t, "clone", "a", 0).unwrap();
        db.create_set(t, "q").unwrap();
        db.add_to_set(t, "q", a).unwrap();
        db.commit(t).unwrap();

        let view = db.view().unwrap();
        let t = db.begin().unwrap();
        let b = db.create_material(t, "clone", "b", 0).unwrap();
        db.add_to_set(t, "q", b).unwrap();
        db.create_set(t, "r").unwrap();
        db.commit(t).unwrap();

        assert_eq!(view.set_members("q").unwrap(), vec![a]);
        assert_eq!(view.set_names(), vec!["q"]);
        assert!(view.set_contains("q", a).unwrap());
        assert!(!view.set_contains("q", b).unwrap());
        assert_eq!(db.set_members("q").unwrap(), vec![a, b]);
    }
}
