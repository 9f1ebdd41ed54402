//! Material sets — the third class of the fixed storage schema
//! (`material_set`, paper Table 1).
//!
//! The lab uses named sets as work queues and query results ("the set of
//! tclones whose sequence matched a BLAST hit"). Sets are first-class
//! persistent objects; the directory mapping names to set objects lives
//! in the catalog segment.

use labflow_storage::{ClusterHint, TxnId, Visibility};

use crate::db::{LabBase, SEG_CATALOG};
use crate::error::{LabError, Result};
use crate::ids::MaterialId;
use crate::smrecord::MaterialSetRec;

impl LabBase {
    /// Create an empty material set named `name`.
    pub fn create_set(&self, txn: TxnId, name: &str) -> Result<()> {
        // Lock-first: serialize on the sets directory's storage lock
        // before touching the in-memory latch (see `lock_catalog`).
        self.lock_sets(txn)?;
        {
            let sets = self.sets.read();
            if sets.by_name.contains_key(name) {
                return Err(LabError::DuplicateSet(name.to_string()));
            }
        }
        let rec = MaterialSetRec { name: name.to_string(), members: Vec::new() };
        let oid = self.store.allocate(txn, SEG_CATALOG, ClusterHint::NONE, &rec.encode())?;
        self.sets.write().by_name.insert(name.to_string(), oid);
        if let Err(e) = self.persist_sets_dir(txn) {
            // Failed store write (e.g. wounded): the allocation rolls
            // back with the transaction, so the name must not stay in
            // the shared directory cache pointing at an erased object.
            self.sets.write().by_name.remove(name);
            return Err(e);
        }
        Ok(())
    }

    /// Delete a material set (the materials themselves are unaffected).
    pub fn drop_set(&self, txn: TxnId, name: &str) -> Result<()> {
        self.lock_sets(txn)?;
        let oid = {
            let mut sets = self.sets.write();
            sets.by_name.remove(name).ok_or_else(|| LabError::UnknownSet(name.to_string()))?
        };
        if let Err(e) = self.store.free(txn, oid).map_err(LabError::from).and_then(|()| {
            self.persist_sets_dir(txn)
        }) {
            // Failed store write: the free rolls back with the
            // transaction, so the directory cache keeps the set.
            self.sets.write().by_name.insert(name.to_string(), oid);
            return Err(e);
        }
        Ok(())
    }

    fn set_oid(&self, name: &str) -> Result<labflow_storage::Oid> {
        self.sets
            .read()
            .by_name
            .get(name)
            .copied()
            .ok_or_else(|| LabError::UnknownSet(name.to_string()))
    }

    /// Append `mat` to the set (duplicates are ignored).
    pub fn add_to_set(&self, txn: TxnId, name: &str, mat: MaterialId) -> Result<()> {
        let oid = self.set_oid(name)?;
        let mut rec = MaterialSetRec::decode(&self.store.read_vis(Visibility::In(txn), oid)?)?;
        if !rec.members.contains(&mat.oid()) {
            rec.members.push(mat.oid());
            self.store.update(txn, oid, &rec.encode())?;
        }
        Ok(())
    }

    /// Append many materials at once (one object rewrite).
    pub fn add_all_to_set(&self, txn: TxnId, name: &str, mats: &[MaterialId]) -> Result<()> {
        let oid = self.set_oid(name)?;
        let mut rec = MaterialSetRec::decode(&self.store.read_vis(Visibility::In(txn), oid)?)?;
        let mut changed = false;
        for mat in mats {
            if !rec.members.contains(&mat.oid()) {
                rec.members.push(mat.oid());
                changed = true;
            }
        }
        if changed {
            self.store.update(txn, oid, &rec.encode())?;
        }
        Ok(())
    }

    /// Remove `mat` from the set. Returns `true` if it was a member.
    pub fn remove_from_set(&self, txn: TxnId, name: &str, mat: MaterialId) -> Result<bool> {
        let oid = self.set_oid(name)?;
        let mut rec = MaterialSetRec::decode(&self.store.read_vis(Visibility::In(txn), oid)?)?;
        let before = rec.members.len();
        rec.members.retain(|&m| m != mat.oid());
        if rec.members.len() != before {
            self.store.update(txn, oid, &rec.encode())?;
            Ok(true)
        } else {
            Ok(false)
        }
    }

    /// The set's members in insertion order (committed state).
    pub fn set_members(&self, name: &str) -> Result<Vec<MaterialId>> {
        self.set_members_vis(Visibility::Latest, name)
    }

    /// The set's members as seen by the open transaction `txn`,
    /// including its own uncommitted additions and removals.
    pub fn set_members_in(&self, txn: TxnId, name: &str) -> Result<Vec<MaterialId>> {
        self.set_members_vis(Visibility::In(txn), name)
    }

    pub(crate) fn set_members_vis(&self, vis: Visibility, name: &str) -> Result<Vec<MaterialId>> {
        let oid = self.set_oid(name)?;
        let rec = MaterialSetRec::decode(&self.store.read_vis(vis, oid)?)?;
        Ok(rec.members.into_iter().map(MaterialId::from).collect())
    }

    /// Membership test.
    pub fn set_contains(&self, name: &str, mat: MaterialId) -> Result<bool> {
        let oid = self.set_oid(name)?;
        let rec = MaterialSetRec::decode(&self.store.read(oid)?)?;
        Ok(rec.members.contains(&mat.oid()))
    }

    /// All set names, sorted.
    pub fn set_names(&self) -> Vec<String> {
        let mut names: Vec<String> = self.sets.read().by_name.keys().cloned().collect();
        names.sort();
        names
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::db::tests::mem_db;
    use crate::db::LabBase;
    use labflow_storage::{MemStore, StorageManager};
    use std::sync::Arc;

    #[test]
    fn set_lifecycle() {
        let db = mem_db();
        let t = db.begin().unwrap();
        let a = db.create_material(t, "clone", "a", 0).unwrap();
        let b = db.create_material(t, "clone", "b", 0).unwrap();
        db.create_set(t, "queue").unwrap();
        db.add_to_set(t, "queue", a).unwrap();
        db.add_to_set(t, "queue", b).unwrap();
        db.add_to_set(t, "queue", a).unwrap(); // duplicate ignored
        db.commit(t).unwrap();
        assert_eq!(db.set_members("queue").unwrap(), vec![a, b]);
        assert!(db.set_contains("queue", a).unwrap());

        let t = db.begin().unwrap();
        assert!(db.remove_from_set(t, "queue", a).unwrap());
        assert!(!db.remove_from_set(t, "queue", a).unwrap());
        db.commit(t).unwrap();
        assert_eq!(db.set_members("queue").unwrap(), vec![b]);

        let t = db.begin().unwrap();
        db.drop_set(t, "queue").unwrap();
        db.commit(t).unwrap();
        assert!(matches!(db.set_members("queue"), Err(LabError::UnknownSet(_))));
    }

    #[test]
    fn duplicate_and_unknown_sets_rejected() {
        let db = mem_db();
        let t = db.begin().unwrap();
        db.create_set(t, "s").unwrap();
        assert!(matches!(db.create_set(t, "s"), Err(LabError::DuplicateSet(_))));
        assert!(matches!(db.drop_set(t, "nope"), Err(LabError::UnknownSet(_))));
        let a = db.create_material(t, "clone", "a", 0).unwrap();
        assert!(matches!(db.add_to_set(t, "nope", a), Err(LabError::UnknownSet(_))));
        db.commit(t).unwrap();
    }

    #[test]
    fn add_all_is_one_write() {
        let db = mem_db();
        let t = db.begin().unwrap();
        db.create_set(t, "bulk").unwrap();
        let mats: Vec<_> =
            (0..20).map(|i| db.create_material(t, "clone", &format!("c{i}"), 0).unwrap()).collect();
        let before = db.stats().updates;
        db.add_all_to_set(t, "bulk", &mats).unwrap();
        let after = db.stats().updates;
        db.commit(t).unwrap();
        assert_eq!(after - before, 1, "bulk add must rewrite the set once");
        assert_eq!(db.set_members("bulk").unwrap().len(), 20);
    }

    #[test]
    fn sets_survive_reopen() {
        let store: Arc<dyn StorageManager> = Arc::new(MemStore::ostore_mm());
        let db = LabBase::create(store.clone()).unwrap();
        let t = db.begin().unwrap();
        db.define_material_class(t, "clone", None).unwrap();
        let a = db.create_material(t, "clone", "a", 0).unwrap();
        db.create_set(t, "persisted").unwrap();
        db.add_to_set(t, "persisted", a).unwrap();
        db.commit(t).unwrap();
        drop(db);
        let db = LabBase::open(store).unwrap();
        assert_eq!(db.set_names(), vec!["persisted"]);
        assert_eq!(db.set_members("persisted").unwrap(), vec![a]);
    }
}
