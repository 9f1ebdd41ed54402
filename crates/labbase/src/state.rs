//! Workflow states (the `state(M, S)` predicate of the paper's Section 8)
//! and the in-memory state index that serves the workload's driver query
//! ("give me materials waiting in state S").
//!
//! The authoritative state lives in each `sm_material` record; the index
//! is a cache, built lazily by scanning class extents after open and
//! maintained incrementally afterwards.

use std::collections::{BTreeSet, HashMap};
use std::sync::atomic::{AtomicBool, Ordering};

use parking_lot::{Mutex, RwLock};

use labflow_storage::{Oid, TxnId, Visibility};

use crate::db::LabBase;
use crate::error::Result;
use crate::ids::{MaterialId, ValidTime};

/// Number of state-name shards. Sized so concurrent sessions working in
/// different workflow states rarely contend on the same lock.
const STATE_SHARDS: usize = 16;

fn shard_of(state: &str) -> usize {
    // FNV-1a over the state atom.
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in state.as_bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    (h as usize) % STATE_SHARDS
}

/// In-memory map: state atom → set of material oids (BTreeSet for
/// deterministic iteration, which keeps benchmark runs reproducible).
///
/// Sharded by a hash of the state name so concurrent sessions updating
/// disjoint states take disjoint locks; readers take only the shard they
/// query. Stateless materials live in their own lock. The `built` flag
/// is the usual lazy-build latch: mutators no-op until the first query
/// forces a full extent scan.
pub(crate) struct StateIndex {
    built: AtomicBool,
    /// Serializes build/invalidate so only one thread scans extents.
    build_lock: Mutex<()>,
    shards: Vec<RwLock<HashMap<String, BTreeSet<u64>>>>,
    /// Materials known to exist but with no state set.
    stateless: RwLock<BTreeSet<u64>>,
}

impl StateIndex {
    pub(crate) fn new() -> StateIndex {
        StateIndex {
            built: AtomicBool::new(false),
            build_lock: Mutex::new(()),
            shards: (0..STATE_SHARDS).map(|_| RwLock::new(HashMap::new())).collect(),
            stateless: RwLock::new(BTreeSet::new()),
        }
    }

    pub(crate) fn is_built(&self) -> bool {
        self.built.load(Ordering::Acquire)
    }

    pub(crate) fn invalidate(&self) {
        let _g = self.build_lock.lock();
        self.built.store(false, Ordering::Release);
        for shard in &self.shards {
            shard.write().clear();
        }
        self.stateless.write().clear();
    }

    /// Replace the whole index with a freshly scanned snapshot.
    fn install(&self, by_state: HashMap<String, BTreeSet<u64>>, stateless: BTreeSet<u64>) {
        for shard in &self.shards {
            shard.write().clear();
        }
        for (state, set) in by_state {
            self.shards[shard_of(&state)].write().insert(state, set);
        }
        *self.stateless.write() = stateless;
        self.built.store(true, Ordering::Release);
    }

    pub(crate) fn note_created(&self, mat: Oid) {
        if self.is_built() {
            self.stateless.write().insert(mat.raw());
        }
    }

    pub(crate) fn note_state(&self, mat: Oid, old: Option<&str>, new: Option<&str>) {
        if !self.is_built() {
            return;
        }
        match old {
            Some(s) => {
                if let Some(set) = self.shards[shard_of(s)].write().get_mut(s) {
                    set.remove(&mat.raw());
                }
            }
            None => {
                self.stateless.write().remove(&mat.raw());
            }
        }
        match new {
            Some(s) => {
                self.shards[shard_of(s)]
                    .write()
                    .entry(s.to_string())
                    .or_default()
                    .insert(mat.raw());
            }
            None => {
                self.stateless.write().insert(mat.raw());
            }
        }
    }

    /// Drop materials from the index entirely (their creation aborted).
    /// Callers reverse any state transitions first, so the oids sit in
    /// the stateless set — but sweep the state shards too in case a
    /// transition was recorded before the index was built.
    pub(crate) fn forget<I: Iterator<Item = Oid>>(&self, oids: I) {
        if !self.is_built() {
            return;
        }
        let raws: Vec<u64> = oids.map(|o| o.raw()).collect();
        if raws.is_empty() {
            return;
        }
        {
            let mut stateless = self.stateless.write();
            for raw in &raws {
                stateless.remove(raw);
            }
        }
        for shard in &self.shards {
            let mut shard = shard.write();
            for set in shard.values_mut() {
                for raw in &raws {
                    set.remove(raw);
                }
            }
        }
    }

    fn members_of(&self, state: &str, limit: usize) -> Vec<MaterialId> {
        self.shards[shard_of(state)]
            .read()
            .get(state)
            .map(|set| {
                set.iter().take(limit).map(|&o| MaterialId::from(Oid::from_raw(o))).collect()
            })
            .unwrap_or_default()
    }

    fn count_of(&self, state: &str) -> usize {
        self.shards[shard_of(state)].read().get(state).map_or(0, |s| s.len())
    }

    fn census(&self) -> Vec<(String, usize)> {
        let mut out = Vec::new();
        for shard in &self.shards {
            let shard = shard.read();
            out.extend(
                shard.iter().filter(|(_, s)| !s.is_empty()).map(|(k, s)| (k.clone(), s.len())),
            );
        }
        out.sort();
        out
    }
}

impl LabBase {
    fn ensure_state_index(&self) -> Result<()> {
        self.ensure_state_index_vis(Visibility::Latest)
    }

    fn ensure_state_index_vis(&self, vis: Visibility) -> Result<()> {
        if self.state_index.is_built() {
            return Ok(());
        }
        // Serialize builders; losers of the race find the index ready.
        let _build = self.state_index.build_lock.lock();
        if self.state_index.is_built() {
            return Ok(());
        }
        // Scan every class extent from the builder's own consistent
        // view: the committed catalog for `Latest`, the transaction's
        // view for `In(txn)`. The live in-memory catalog can run ahead
        // of both (extent heads prepended by still-open transactions),
        // and those heads would not be readable here.
        let cat = self.read_catalog(vis)?;
        let heads: Vec<Oid> =
            cat.material_classes().iter().map(|mc| mc.extent_head).collect();
        let mut by_state: HashMap<String, BTreeSet<u64>> = HashMap::new();
        let mut stateless = BTreeSet::new();
        for head in heads {
            let mut cur = head;
            while !cur.is_nil() {
                let rec = self.read_material_rec_vis(vis, cur)?;
                if rec.state.is_empty() {
                    stateless.insert(cur.raw());
                } else {
                    by_state.entry(rec.state.clone()).or_default().insert(cur.raw());
                }
                cur = rec.ext_next;
            }
        }
        self.state_index.install(by_state, stateless);
        Ok(())
    }

    /// Set `mat`'s workflow state at valid time `vt`, returning the
    /// `(old, new)` pair so sessions can undo the index update on abort.
    pub(crate) fn set_state_recording(
        &self,
        txn: TxnId,
        mat: MaterialId,
        state: &str,
        vt: ValidTime,
    ) -> Result<(Option<String>, Option<String>)> {
        let mut rec = self.read_material_rec_vis(Visibility::In(txn), mat.oid())?;
        let old = if rec.state.is_empty() { None } else { Some(rec.state.clone()) };
        rec.state = state.to_string();
        rec.state_time = vt;
        self.write_material_rec(txn, mat.oid(), &rec)?;
        let new = if state.is_empty() { None } else { Some(state.to_string()) };
        self.state_index.note_state(mat.oid(), old.as_deref(), new.as_deref());
        Ok((old, new))
    }

    /// Set `mat`'s workflow state at valid time `vt` (the
    /// `retract(state(M,s1)), assert(state(M,s2))` transition of the
    /// paper's workflow rules).
    pub fn set_state(
        &self,
        txn: TxnId,
        mat: MaterialId,
        state: &str,
        vt: ValidTime,
    ) -> Result<()> {
        self.set_state_recording(txn, mat, state, vt)?;
        Ok(())
    }

    /// Clear `mat`'s workflow state (material leaves the workflow).
    pub fn clear_state(&self, txn: TxnId, mat: MaterialId, vt: ValidTime) -> Result<()> {
        self.set_state(txn, mat, "", vt)
    }

    /// The material's current state, if any (committed state).
    pub fn state_of(&self, mat: MaterialId) -> Result<Option<String>> {
        self.state_of_vis(Visibility::Latest, mat)
    }

    pub(crate) fn state_of_vis(&self, vis: Visibility, mat: MaterialId) -> Result<Option<String>> {
        let rec = self.read_material_rec_vis(vis, mat.oid())?;
        Ok(if rec.state.is_empty() { None } else { Some(rec.state) })
    }

    /// Up to `limit` materials currently in `state`, in deterministic
    /// (oid) order. This is the workload driver: "pick the next batch of
    /// materials waiting for step X".
    pub fn in_state(&self, state: &str, limit: usize) -> Result<Vec<MaterialId>> {
        self.ensure_state_index()?;
        Ok(self.state_index.members_of(state, limit))
    }

    /// [`in_state`](Self::in_state) from inside an open transaction: if
    /// the lazy index build is forced here, it scans through `txn`'s
    /// view so the transaction's own uncommitted materials are indexed.
    pub fn in_state_in(&self, txn: TxnId, state: &str, limit: usize) -> Result<Vec<MaterialId>> {
        self.ensure_state_index_vis(Visibility::In(txn))?;
        Ok(self.state_index.members_of(state, limit))
    }

    /// Number of materials currently in `state`.
    pub fn count_in_state(&self, state: &str) -> Result<usize> {
        self.ensure_state_index()?;
        Ok(self.state_index.count_of(state))
    }

    /// [`count_in_state`](Self::count_in_state) from inside an open
    /// transaction (see [`in_state_in`](Self::in_state_in)).
    pub fn count_in_state_in(&self, txn: TxnId, state: &str) -> Result<usize> {
        self.ensure_state_index_vis(Visibility::In(txn))?;
        Ok(self.state_index.count_of(state))
    }

    /// All states with at least one material, with counts, sorted by
    /// state name. (The paper's workflow-monitoring report.)
    pub fn state_census(&self) -> Result<Vec<(String, usize)>> {
        self.ensure_state_index()?;
        Ok(self.state_index.census())
    }

    /// [`state_census`](Self::state_census) from inside an open
    /// transaction (see [`in_state_in`](Self::in_state_in)).
    pub fn state_census_in(&self, txn: TxnId) -> Result<Vec<(String, usize)>> {
        self.ensure_state_index_vis(Visibility::In(txn))?;
        Ok(self.state_index.census())
    }
}

#[cfg(test)]
mod tests {
    use crate::db::tests::mem_db;
    use crate::db::LabBase;
    use labflow_storage::{MemStore, StorageManager};
    use std::sync::Arc;

    #[test]
    fn set_and_query_state() {
        let db = mem_db();
        let t = db.begin().unwrap();
        let a = db.create_material(t, "clone", "a", 0).unwrap();
        let b = db.create_material(t, "clone", "b", 0).unwrap();
        db.set_state(t, a, "waiting_for_sequencing", 5).unwrap();
        db.set_state(t, b, "waiting_for_sequencing", 6).unwrap();
        db.commit(t).unwrap();
        assert_eq!(db.state_of(a).unwrap().as_deref(), Some("waiting_for_sequencing"));
        assert_eq!(db.count_in_state("waiting_for_sequencing").unwrap(), 2);
        let picked = db.in_state("waiting_for_sequencing", 1).unwrap();
        assert_eq!(picked.len(), 1);
        assert_eq!(db.in_state("nonexistent", 10).unwrap().len(), 0);
    }

    #[test]
    fn transition_moves_between_states() {
        let db = mem_db();
        let t = db.begin().unwrap();
        let a = db.create_material(t, "clone", "a", 0).unwrap();
        db.set_state(t, a, "waiting_for_sequencing", 1).unwrap();
        db.set_state(t, a, "waiting_for_incorporation", 2).unwrap();
        db.commit(t).unwrap();
        assert_eq!(db.count_in_state("waiting_for_sequencing").unwrap(), 0);
        assert_eq!(db.count_in_state("waiting_for_incorporation").unwrap(), 1);
        assert_eq!(db.state_of(a).unwrap().as_deref(), Some("waiting_for_incorporation"));
        let info = db.material(a).unwrap();
        assert_eq!(info.state_time, 2);
    }

    #[test]
    fn clear_state_removes_from_census() {
        let db = mem_db();
        let t = db.begin().unwrap();
        let a = db.create_material(t, "clone", "a", 0).unwrap();
        db.set_state(t, a, "ready", 1).unwrap();
        db.clear_state(t, a, 2).unwrap();
        db.commit(t).unwrap();
        assert_eq!(db.state_of(a).unwrap(), None);
        assert_eq!(db.count_in_state("ready").unwrap(), 0);
    }

    #[test]
    fn census_counts_all_states() {
        let db = mem_db();
        let t = db.begin().unwrap();
        for i in 0..5 {
            let m = db.create_material(t, "clone", &format!("c{i}"), 0).unwrap();
            let state = if i < 3 { "s_early" } else { "s_late" };
            db.set_state(t, m, state, 1).unwrap();
        }
        db.commit(t).unwrap();
        assert_eq!(
            db.state_census().unwrap(),
            vec![("s_early".to_string(), 3), ("s_late".to_string(), 2)]
        );
    }

    #[test]
    fn index_rebuilds_after_reopen() {
        let store: Arc<dyn StorageManager> = Arc::new(MemStore::ostore_mm());
        let db = LabBase::create(store.clone()).unwrap();
        let t = db.begin().unwrap();
        db.define_material_class(t, "clone", None).unwrap();
        let a = db.create_material(t, "clone", "a", 0).unwrap();
        let b = db.create_material(t, "clone", "b", 0).unwrap();
        db.set_state(t, a, "queued", 1).unwrap();
        db.set_state(t, b, "queued", 1).unwrap();
        db.commit(t).unwrap();
        drop(db);
        // Fresh LabBase over the same (memory) store: index must rebuild
        // from the material records via the extent walk.
        let db = LabBase::open(store).unwrap();
        assert_eq!(db.count_in_state("queued").unwrap(), 2);
        let t = db.begin().unwrap();
        db.set_state(t, a, "done", 2).unwrap();
        db.commit(t).unwrap();
        assert_eq!(db.count_in_state("queued").unwrap(), 1);
        assert_eq!(db.count_in_state("done").unwrap(), 1);
    }
}
