//! The most-recent-value access structure (paper Section 7).
//!
//! A material's *current* attributes are a view over its history: for
//! each attribute, the value recorded by the newest step (by valid time)
//! that carries it. Deriving this by walking histories would make the
//! hottest query in the lab linear in history length, so LabBase
//! maintains a per-material [`RecentRecord`] cache — "special access
//! structures to quickly retrieve most-recent results" — updated
//! incrementally as steps arrive (in any order) and repaired when steps
//! are retracted.

use labflow_storage::{ClusterHint, Oid, TxnId, Visibility};

use crate::db::{LabBase, SEG_MATERIAL};
use crate::error::Result;
use crate::ids::{MaterialId, StepId, ValidTime};
use crate::smrecord::{RecentEntry, RecentRecord};
use crate::value::Value;

/// A most-recent value returned to callers.
#[derive(Clone, Debug, PartialEq)]
pub struct Recent {
    /// The value.
    pub value: Value,
    /// Valid time it was recorded at.
    pub valid_time: ValidTime,
    /// The step that recorded it.
    pub step: StepId,
}

impl From<&RecentEntry> for Recent {
    fn from(e: &RecentEntry) -> Self {
        Recent { value: e.value.clone(), valid_time: e.valid_time, step: StepId::from(e.step) }
    }
}

impl LabBase {
    /// Fold a new step's attributes into `mat`'s most-recent cache,
    /// creating the cache object on first use.
    pub(crate) fn absorb_recent(
        &self,
        txn: TxnId,
        mat: Oid,
        step: Oid,
        valid_time: ValidTime,
        attrs: &[(String, Value)],
    ) -> Result<()> {
        if attrs.is_empty() {
            return Ok(());
        }
        let vis = Visibility::In(txn);
        let mut mrec = self.read_material_rec_vis(vis, mat)?;
        if mrec.recent.is_nil() {
            let mut rec = RecentRecord::default();
            rec.absorb(step, valid_time, attrs);
            let oid = self.store.allocate(
                txn,
                SEG_MATERIAL,
                ClusterHint::near(mat),
                &rec.encode(),
            )?;
            mrec.recent = oid;
            return self.write_material_rec(txn, mat, &mrec);
        }
        let mut rec = self.read_recent_rec_vis(vis, mrec.recent)?;
        if rec.absorb(step, valid_time, attrs) {
            self.store.update(txn, mrec.recent, &rec.encode())?;
        }
        Ok(())
    }

    /// After retracting `step`, recompute any most-recent entries it was
    /// providing for `mat` by walking the (already-unlinked) history.
    pub(crate) fn recompute_after_retract(&self, txn: TxnId, mat: Oid, step: Oid) -> Result<()> {
        let vis = Visibility::In(txn);
        let mrec = self.read_material_rec_vis(vis, mat)?;
        if mrec.recent.is_nil() {
            return Ok(());
        }
        let mut rec = self.read_recent_rec_vis(vis, mrec.recent)?;
        let mut missing = rec.evict_step(step);
        if missing.is_empty() {
            return Ok(());
        }
        // Walk newest-first; the first occurrence of each missing attr is
        // its new most-recent value.
        for entry in self.history_vis(vis, MaterialId::from(mat))? {
            if missing.is_empty() {
                break;
            }
            let srec = self.read_step_rec_vis(vis, entry.step.oid())?;
            missing.retain(|attr| {
                if let Some(v) = srec.attr(attr) {
                    rec.absorb(
                        entry.step.oid(),
                        entry.valid_time,
                        &[(attr.clone(), v.clone())],
                    );
                    false
                } else {
                    true
                }
            });
        }
        self.store.update(txn, mrec.recent, &rec.encode())?;
        Ok(())
    }

    pub(crate) fn recent_vis(
        &self,
        vis: Visibility,
        mat: MaterialId,
        attr: &str,
    ) -> Result<Option<Recent>> {
        let mrec = self.read_material_rec_vis(vis, mat.oid())?;
        if mrec.recent.is_nil() {
            return Ok(None);
        }
        let rec = self.read_recent_rec_vis(vis, mrec.recent)?;
        Ok(rec.get(attr).map(Recent::from))
    }

    /// The most-recent value of `attr` for `mat` — the benchmark's
    /// hottest query, served from the cache in O(1) object reads.
    pub fn recent(&self, mat: MaterialId, attr: &str) -> Result<Option<Recent>> {
        self.recent_vis(Visibility::Latest, mat, attr)
    }

    pub(crate) fn recent_all_vis(
        &self,
        vis: Visibility,
        mat: MaterialId,
    ) -> Result<Vec<(String, Recent)>> {
        let mrec = self.read_material_rec_vis(vis, mat.oid())?;
        if mrec.recent.is_nil() {
            return Ok(Vec::new());
        }
        let rec = self.read_recent_rec_vis(vis, mrec.recent)?;
        let mut out: Vec<(String, Recent)> =
            rec.entries.iter().map(|e| (e.attr.clone(), Recent::from(e))).collect();
        out.sort_by(|a, b| a.0.cmp(&b.0));
        Ok(out)
    }

    /// All most-recent values for `mat`, as `(attr, Recent)` pairs sorted
    /// by attribute name.
    pub fn recent_all(&self, mat: MaterialId) -> Result<Vec<(String, Recent)>> {
        self.recent_all_vis(Visibility::Latest, mat)
    }

    /// Reference implementation of `recent` that derives the value by
    /// walking the history (no cache). Used by tests and the benchmark's
    /// self-check to validate the access structure.
    pub fn recent_uncached(&self, mat: MaterialId, attr: &str) -> Result<Option<Recent>> {
        self.recent_uncached_vis(Visibility::Latest, mat, attr)
    }

    pub(crate) fn recent_uncached_vis(
        &self,
        vis: Visibility,
        mat: MaterialId,
        attr: &str,
    ) -> Result<Option<Recent>> {
        for entry in self.history_vis(vis, mat)? {
            let srec = self.read_step_rec_vis(vis, entry.step.oid())?;
            if let Some(v) = srec.attr(attr) {
                return Ok(Some(Recent {
                    value: v.clone(),
                    valid_time: entry.valid_time,
                    step: entry.step,
                }));
            }
        }
        Ok(None)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::db::tests::mem_db;

    fn q(v: f64) -> Vec<(String, Value)> {
        vec![("quality".into(), Value::Real(v))]
    }

    #[test]
    fn recent_follows_valid_time_not_arrival_order() {
        let db = mem_db();
        let t = db.begin().unwrap();
        let m = db.create_material(t, "clone", "m", 0).unwrap();
        db.record_step(t, "determine_sequence", 20, &[m], q(0.2)).unwrap();
        // Arrives later but is older in valid time: must not win.
        db.record_step(t, "determine_sequence", 10, &[m], q(0.1)).unwrap();
        db.commit(t).unwrap();
        let r = db.recent(m, "quality").unwrap().unwrap();
        assert_eq!(r.value, Value::Real(0.2));
        assert_eq!(r.valid_time, 20);
    }

    #[test]
    fn recent_none_for_unknown_attr_or_fresh_material() {
        let db = mem_db();
        let t = db.begin().unwrap();
        let m = db.create_material(t, "clone", "m", 0).unwrap();
        db.commit(t).unwrap();
        assert_eq!(db.recent(m, "quality").unwrap(), None);
        assert!(db.recent_all(m).unwrap().is_empty());
    }

    #[test]
    fn recent_all_sorted_by_attr() {
        let db = mem_db();
        let t = db.begin().unwrap();
        let m = db.create_material(t, "clone", "m", 0).unwrap();
        db.record_step(
            t,
            "determine_sequence",
            5,
            &[m],
            vec![
                ("sequence".into(), Value::dna("ACGT").unwrap()),
                ("quality".into(), Value::Real(0.7)),
            ],
        )
        .unwrap();
        db.commit(t).unwrap();
        let all = db.recent_all(m).unwrap();
        let names: Vec<&str> = all.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(names, vec!["quality", "sequence"]);
    }

    #[test]
    fn cache_matches_uncached_reference_under_random_order() {
        let db = mem_db();
        let t = db.begin().unwrap();
        let m = db.create_material(t, "clone", "m", 0).unwrap();
        // A deterministic scramble of valid times.
        let times = [40, 10, 70, 20, 60, 30, 50, 15, 65, 45];
        for (i, &vt) in times.iter().enumerate() {
            db.record_step(t, "determine_sequence", vt, &[m], q(i as f64)).unwrap();
        }
        db.commit(t).unwrap();
        let cached = db.recent(m, "quality").unwrap().unwrap();
        let derived = db.recent_uncached(m, "quality").unwrap().unwrap();
        assert_eq!(cached.value, derived.value);
        assert_eq!(cached.valid_time, derived.valid_time);
        assert_eq!(cached.valid_time, 70);
    }

    #[test]
    fn retract_recomputes_recent() {
        let db = mem_db();
        let t = db.begin().unwrap();
        let m = db.create_material(t, "clone", "m", 0).unwrap();
        db.record_step(t, "determine_sequence", 10, &[m], q(0.1)).unwrap();
        let newest = db.record_step(t, "determine_sequence", 20, &[m], q(0.2)).unwrap();
        // Uncommitted, so the check reads the transaction's own view.
        assert_eq!(db.view_in(t).recent(m, "quality").unwrap().unwrap().value, Value::Real(0.2));
        db.retract_step(t, newest).unwrap();
        db.commit(t).unwrap();
        let r = db.recent(m, "quality").unwrap().unwrap();
        assert_eq!(r.value, Value::Real(0.1), "cache repaired from history");
        assert_eq!(r.valid_time, 10);
        let derived = db.recent_uncached(m, "quality").unwrap().unwrap();
        assert_eq!(r.value, derived.value);
    }

    #[test]
    fn retract_only_provider_clears_attr() {
        let db = mem_db();
        let t = db.begin().unwrap();
        let m = db.create_material(t, "clone", "m", 0).unwrap();
        let s = db.record_step(t, "determine_sequence", 10, &[m], q(0.1)).unwrap();
        db.retract_step(t, s).unwrap();
        db.commit(t).unwrap();
        assert_eq!(db.recent(m, "quality").unwrap(), None);
    }

    #[test]
    fn shared_step_updates_all_materials_recents() {
        let db = mem_db();
        let t = db.begin().unwrap();
        let a = db.create_material(t, "clone", "a", 0).unwrap();
        let b = db.create_material(t, "clone", "b", 0).unwrap();
        db.record_step(t, "determine_sequence", 7, &[a, b], q(0.9)).unwrap();
        db.commit(t).unwrap();
        assert_eq!(db.recent(a, "quality").unwrap().unwrap().value, Value::Real(0.9));
        assert_eq!(db.recent(b, "quality").unwrap().unwrap().value, Value::Real(0.9));
    }
}
