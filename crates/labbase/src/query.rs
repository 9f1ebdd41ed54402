//! Read-side query operations: extent scans, counting, name lookup, and
//! report generation — the paper's Section 8 query families that are not
//! already covered by `recent`/`history`/`state`.

use std::collections::{HashMap, HashSet};

use labflow_storage::{Oid, Visibility};

use crate::db::LabBase;
use crate::error::Result;
use crate::ids::{ClassId, MaterialId, ValidTime};
use crate::value::Value;

impl LabBase {
    /// All materials of `class` (optionally including subclasses),
    /// newest-created first (extent lists are prepend-ordered).
    pub fn class_extent(&self, class: &str, include_subclasses: bool) -> Result<Vec<MaterialId>> {
        let target = self.with_catalog(|c| c.material_class(class).map(|mc| mc.id))?;
        let heads: Vec<(ClassId, Oid)> = self.with_catalog(|c| {
            c.material_classes().iter().map(|mc| (mc.id, mc.extent_head)).collect()
        });
        let classes: Vec<(ClassId, Oid)> = if include_subclasses {
            self.with_catalog(|c| {
                heads
                    .iter()
                    .filter(|(id, _)| c.is_a(*id, target))
                    .copied()
                    .collect()
            })
        } else {
            heads.into_iter().filter(|(id, _)| *id == target).collect()
        };
        let mut out = Vec::new();
        for (_, head) in classes {
            out.extend(self.walk_extent(Visibility::Latest, head)?);
        }
        Ok(out)
    }

    /// Walk one extent list from `head`, reading material records through
    /// `vis` so snapshot views traverse a consistent cut.
    pub(crate) fn walk_extent(&self, vis: Visibility, head: Oid) -> Result<Vec<MaterialId>> {
        let mut out = Vec::new();
        let mut cur = head;
        while !cur.is_nil() {
            let rec = self.read_material_rec_vis(vis, cur)?;
            out.push(MaterialId::from(cur));
            cur = rec.ext_next;
        }
        Ok(out)
    }

    /// Cached instance count for `class` (O(1), from the catalog).
    pub fn count_class(&self, class: &str, include_subclasses: bool) -> Result<u64> {
        self.with_catalog(|c| {
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

    /// Instance count derived by scanning the extent — the benchmark's
    /// counting query, which actually touches every material record.
    pub fn count_class_scan(&self, class: &str) -> Result<u64> {
        Ok(self.class_extent(class, false)?.len() as u64)
    }

    /// Count step instances of `step_class` by scanning material
    /// histories (steps shared between materials are counted once).
    /// Deliberately heavy: this is the paper's `setof`-style counting
    /// over the event history.
    pub fn count_steps_scan(&self, step_class: &str) -> Result<u64> {
        let class_id = self.with_catalog(|c| c.step_class(step_class).map(|s| s.id))?;
        let mut seen: HashSet<u64> = HashSet::new();
        for class in self.with_catalog(|c| {
            c.material_classes().iter().map(|mc| mc.name.clone()).collect::<Vec<_>>()
        }) {
            for mat in self.class_extent(&class, false)? {
                for entry in self.history(mat)? {
                    if seen.contains(&entry.step.oid().raw()) {
                        continue;
                    }
                    let srec = self.read_step_rec(entry.step.oid())?;
                    if srec.class == class_id {
                        seen.insert(entry.step.oid().raw());
                    }
                }
            }
        }
        Ok(seen.len() as u64)
    }

    /// Find a material by its external name (lazy name index).
    pub fn find_material(&self, name: &str) -> Result<Option<MaterialId>> {
        {
            let index = self.name_index.read();
            if let Some(map) = index.map.as_ref() {
                return Ok(map.get(name).map(|&o| MaterialId::from(o)));
            }
        }
        // Build the index from every extent of the committed catalog —
        // the live catalog's heads can point at materials still pending
        // in open transactions, which a committed-state scan cannot
        // read. (Creations after the build keep the map fresh
        // incrementally, so pending materials appear once noted.)
        // The scan can be long on a populated database, so charge it to
        // the per-session wait profile.
        let build_start = std::time::Instant::now();
        let mut map: HashMap<String, Oid> = HashMap::new();
        let cat = self.read_catalog(Visibility::Latest)?;
        for mc in cat.material_classes() {
            let mut cur = mc.extent_head;
            while !cur.is_nil() {
                let rec = self.read_material_rec_vis(Visibility::Latest, cur)?;
                let next = rec.ext_next;
                map.insert(rec.name, cur);
                cur = next;
            }
        }
        labflow_storage::add_name_index_wait(build_start.elapsed().as_nanos() as u64);
        let mut index = self.name_index.write();
        if index.map.is_none() {
            // Materials created while the map was unbuilt parked their
            // names in `pending` — the committed-extent scan cannot see
            // them (they may still be uncommitted), and without this
            // merge a name whose creation raced the scan would be
            // missing from the installed map forever. Merging mirrors
            // the incremental insert a built map receives at creation
            // time; an abort removes the entry again via its footprint.
            for (pname, poid, _) in index.pending.drain(..) {
                map.insert(pname, poid);
            }
            index.map = Some(map);
        }
        // A racing builder may have installed a fresher map while this
        // scan ran; resolve against whichever map won installation.
        let found =
            index.map.as_ref().and_then(|m| m.get(name)).map(|&o| MaterialId::from(o));
        Ok(found)
    }

    /// The most-recent `attr` value for every material of `class` that
    /// has one — the "set and list generation" report (e.g. collect every
    /// clone's assembled sequence).
    pub fn collect_attr(&self, class: &str, attr: &str) -> Result<Vec<(MaterialId, Value)>> {
        let mut out = Vec::new();
        for mat in self.class_extent(class, false)? {
            if let Some(recent) = self.recent(mat, attr)? {
                out.push((mat, recent.value));
            }
        }
        Ok(out)
    }

    /// Materials of `class` whose state changed at or after `since` —
    /// the "what finished this week" report.
    pub fn changed_since(
        &self,
        class: &str,
        state: &str,
        since: ValidTime,
    ) -> Result<Vec<MaterialId>> {
        let mut out = Vec::new();
        for mat in self.class_extent(class, false)? {
            let rec = self.read_material_rec(mat.oid())?;
            if rec.state == state && rec.state_time >= since {
                out.push(mat);
            }
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::db::tests::mem_db;

    #[test]
    fn extent_and_counts() {
        let db = mem_db();
        let t = db.begin().unwrap();
        for i in 0..5 {
            db.create_material(t, "clone", &format!("c{i}"), i).unwrap();
        }
        db.create_material(t, "material", "raw-1", 0).unwrap();
        db.commit(t).unwrap();

        assert_eq!(db.count_class("clone", false).unwrap(), 5);
        assert_eq!(db.count_class_scan("clone").unwrap(), 5);
        assert_eq!(db.count_class("material", false).unwrap(), 1);
        assert_eq!(db.count_class("material", true).unwrap(), 6, "clone is-a material");
        assert_eq!(db.class_extent("material", true).unwrap().len(), 6);
        // Extent is newest-first.
        let ext = db.class_extent("clone", false).unwrap();
        let first = db.material(ext[0]).unwrap();
        assert_eq!(first.name, "c4");
    }

    #[test]
    fn count_steps_scan_dedupes_shared_steps() {
        let db = mem_db();
        let t = db.begin().unwrap();
        let a = db.create_material(t, "clone", "a", 0).unwrap();
        let b = db.create_material(t, "clone", "b", 0).unwrap();
        db.record_step(t, "determine_sequence", 1, &[a, b], vec![]).unwrap();
        db.record_step(t, "determine_sequence", 2, &[a], vec![]).unwrap();
        db.commit(t).unwrap();
        assert_eq!(db.count_steps_scan("determine_sequence").unwrap(), 2);
    }

    #[test]
    fn find_material_by_name() {
        let db = mem_db();
        let t = db.begin().unwrap();
        let m = db.create_material(t, "clone", "clone-xyz", 0).unwrap();
        db.commit(t).unwrap();
        assert_eq!(db.find_material("clone-xyz").unwrap(), Some(m));
        assert_eq!(db.find_material("missing").unwrap(), None);
        // Index stays fresh for creations after it is built.
        let t = db.begin().unwrap();
        let n = db.create_material(t, "clone", "clone-new", 9).unwrap();
        db.commit(t).unwrap();
        assert_eq!(db.find_material("clone-new").unwrap(), Some(n));
    }

    /// Regression: a creation that runs while the name index is unbuilt
    /// must survive an index build that scans only committed state.
    /// Before the `pending` merge, the build would install a map missing
    /// the in-flight name, hiding the material from lookups forever once
    /// its transaction committed (seen as a lost `find_material` under
    /// the concurrent server workload).
    #[test]
    fn name_index_build_keeps_creations_that_raced_the_scan() {
        let db = mem_db();
        let t0 = db.begin().unwrap();
        db.create_material(t0, "clone", "seed", 0).unwrap();
        db.commit(t0).unwrap();

        // Index is unbuilt; this creation parks its name in `pending`.
        let t1 = db.begin().unwrap();
        let late = db.create_material(t1, "clone", "late", 1).unwrap();

        // Build the index mid-transaction: the committed-extent scan
        // cannot see `late`, so only the pending merge can save it.
        assert_eq!(db.find_material("missing").unwrap(), None);
        assert_eq!(db.find_material("late").unwrap(), Some(late), "pending name noted");

        db.commit(t1).unwrap();
        assert_eq!(db.find_material("late").unwrap(), Some(late), "committed name kept");
    }

    /// The pending-name path also unwinds: a session abort withdraws a
    /// name parked before the index was built.
    #[test]
    fn name_index_pending_names_withdrawn_on_session_abort() {
        let db = mem_db();
        let t0 = db.begin().unwrap();
        db.create_material(t0, "clone", "seed", 0).unwrap();
        db.commit(t0).unwrap();

        let mut session = db.session().unwrap();
        session.create_material("clone", "ghost", 1).unwrap();
        // Build the index while `ghost` is pending, then abort.
        assert!(db.find_material("ghost").unwrap().is_some(), "pending name visible");
        session.abort().unwrap();
        assert_eq!(db.find_material("ghost").unwrap(), None, "aborted name withdrawn");
        // A fresh creation still lands in the installed map.
        let t2 = db.begin().unwrap();
        let again = db.create_material(t2, "clone", "ghost", 2).unwrap();
        db.commit(t2).unwrap();
        assert_eq!(db.find_material("ghost").unwrap(), Some(again));
    }

    /// Regression: the plain-txn abort's full invalidation must not
    /// discard names *other* in-flight transactions parked while the
    /// index was unbuilt — the rebuild's committed-extent scan cannot
    /// see their materials, so a dropped entry is lost forever once
    /// they commit.
    #[test]
    fn name_index_plain_abort_preserves_other_txns_pending_names() {
        let db = mem_db();
        let t0 = db.begin().unwrap();
        db.create_material(t0, "clone", "seed", 0).unwrap();
        db.commit(t0).unwrap();

        // Index unbuilt: this in-flight creation parks its name.
        let t1 = db.begin().unwrap();
        let kept = db.create_material(t1, "clone", "kept", 1).unwrap();

        // An unrelated plain transaction aborts; its conservative cache
        // invalidation must keep t1's parked name.
        let t2 = db.begin().unwrap();
        db.abort(t2).unwrap();

        // Build before t1 commits: only a preserved pending entry can
        // make `kept` resolve.
        assert_eq!(db.find_material("kept").unwrap(), Some(kept), "parked name preserved");
        db.commit(t1).unwrap();
        assert_eq!(db.find_material("kept").unwrap(), Some(kept));
    }

    /// The aborting plain transaction's *own* parked names roll back
    /// with it: keeping them would resolve to an erased object.
    #[test]
    fn name_index_plain_abort_withdraws_its_own_pending_names() {
        let db = mem_db();
        let t0 = db.begin().unwrap();
        db.create_material(t0, "clone", "seed", 0).unwrap();
        db.commit(t0).unwrap();

        // Index unbuilt: the creation parks, then the same transaction
        // aborts via the footprint-less plain API.
        let t1 = db.begin().unwrap();
        db.create_material(t1, "clone", "gone", 1).unwrap();
        db.abort(t1).unwrap();
        assert_eq!(db.find_material("gone").unwrap(), None, "own parked name withdrawn");
    }

    #[test]
    fn collect_attr_reports_only_materials_with_value() {
        let db = mem_db();
        let t = db.begin().unwrap();
        let a = db.create_material(t, "clone", "a", 0).unwrap();
        let _b = db.create_material(t, "clone", "b", 0).unwrap();
        db.record_step(
            t,
            "determine_sequence",
            3,
            &[a],
            vec![("sequence".into(), Value::dna("ACGT").unwrap())],
        )
        .unwrap();
        db.commit(t).unwrap();
        let rows = db.collect_attr("clone", "sequence").unwrap();
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].0, a);
    }

    #[test]
    fn changed_since_filters_state_and_time() {
        let db = mem_db();
        let t = db.begin().unwrap();
        let a = db.create_material(t, "clone", "a", 0).unwrap();
        let b = db.create_material(t, "clone", "b", 0).unwrap();
        let c = db.create_material(t, "clone", "c", 0).unwrap();
        db.set_state(t, a, "finished", 100).unwrap();
        db.set_state(t, b, "finished", 50).unwrap();
        db.set_state(t, c, "failed", 120).unwrap();
        db.commit(t).unwrap();
        let recent = db.changed_since("clone", "finished", 80).unwrap();
        assert_eq!(recent, vec![a]);
    }
}
