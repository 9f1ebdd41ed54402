//! Event-history maintenance: newest-first per-material history lists,
//! ordered by **valid time** (paper Section 7).
//!
//! "Steps can be entered into the database in any order, and there is no
//! guarantee that a step being entered is the most recent" — so insertion
//! walks from the head to the correct valid-time position, and the
//! most-recent cache ([`crate::smrecord::RecentRecord`]) only absorbs
//! values with newer-or-equal valid times.

use labflow_storage::{ClusterHint, Oid, TxnId, Visibility};

use crate::db::{LabBase, SEG_HISTORY};
use crate::error::{LabError, Result};
use crate::ids::{MaterialId, StepId, ValidTime};
use crate::smrecord::HistoryNode;

/// One entry of a material's history, newest first.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct HistoryEntry {
    /// The step instance.
    pub step: StepId,
    /// Its valid time.
    pub valid_time: ValidTime,
}

impl LabBase {
    pub(crate) fn read_node(&self, vis: Visibility, oid: Oid) -> Result<HistoryNode> {
        HistoryNode::decode(&self.store.read_vis(vis, oid)?)
    }

    fn write_node(&self, txn: TxnId, oid: Oid, node: &HistoryNode) -> Result<()> {
        Ok(self.store.update(txn, oid, &node.encode())?)
    }

    /// Link `step` into `mat`'s history at the position its valid time
    /// demands. Newest-first; ties go before existing equal-time nodes.
    pub(crate) fn link_event(
        &self,
        txn: TxnId,
        mat: Oid,
        step: Oid,
        valid_time: ValidTime,
    ) -> Result<()> {
        let vis = Visibility::In(txn);
        let mut mrec = self.read_material_rec_vis(vis, mat)?;
        let hint = ClusterHint::near(mat);
        if mrec.history_head.is_nil() {
            let node = HistoryNode { step, valid_time, next: Oid::NIL };
            let node_oid = self.store.allocate(txn, SEG_HISTORY, hint, &node.encode())?;
            mrec.history_head = node_oid;
            return self.write_material_rec(txn, mat, &mrec);
        }
        let head = self.read_node(vis, mrec.history_head)?;
        if valid_time >= head.valid_time {
            // Common case: the new event is the most recent.
            let node = HistoryNode { step, valid_time, next: mrec.history_head };
            let node_oid = self.store.allocate(txn, SEG_HISTORY, hint, &node.encode())?;
            mrec.history_head = node_oid;
            return self.write_material_rec(txn, mat, &mrec);
        }
        // Out-of-order arrival: walk to the insertion point.
        let mut prev_oid = mrec.history_head;
        let mut prev = head;
        loop {
            if prev.next.is_nil() {
                let node = HistoryNode { step, valid_time, next: Oid::NIL };
                let node_oid = self.store.allocate(txn, SEG_HISTORY, hint, &node.encode())?;
                prev.next = node_oid;
                return self.write_node(txn, prev_oid, &prev);
            }
            let next_oid = prev.next;
            let next = self.read_node(vis, next_oid)?;
            if valid_time >= next.valid_time {
                let node = HistoryNode { step, valid_time, next: next_oid };
                let node_oid = self.store.allocate(txn, SEG_HISTORY, hint, &node.encode())?;
                prev.next = node_oid;
                return self.write_node(txn, prev_oid, &prev);
            }
            prev_oid = next_oid;
            prev = next;
        }
    }

    pub(crate) fn history_vis(
        &self,
        vis: Visibility,
        mat: MaterialId,
    ) -> Result<Vec<HistoryEntry>> {
        let mrec = self.read_material_rec_vis(vis, mat.oid())?;
        let mut out = Vec::new();
        let mut cur = mrec.history_head;
        while !cur.is_nil() {
            let node = self.read_node(vis, cur)?;
            out.push(HistoryEntry { step: StepId::from(node.step), valid_time: node.valid_time });
            cur = node.next;
        }
        Ok(out)
    }

    /// The material's full history, newest first (committed state).
    pub fn history(&self, mat: MaterialId) -> Result<Vec<HistoryEntry>> {
        self.history_vis(Visibility::Latest, mat)
    }

    /// Number of events in the material's history.
    pub fn history_len(&self, mat: MaterialId) -> Result<usize> {
        Ok(self.history(mat)?.len())
    }

    /// The value of `attr` for `mat` **as of** valid time `at`: the value
    /// recorded by the newest step with `valid_time <= at` that carries
    /// the attribute. Walks the history and faults in step payloads —
    /// the historical-query path of the benchmark.
    pub fn as_of(
        &self,
        mat: MaterialId,
        attr: &str,
        at: ValidTime,
    ) -> Result<Option<(ValidTime, crate::value::Value)>> {
        self.as_of_vis(Visibility::Latest, mat, attr, at)
    }

    pub(crate) fn as_of_vis(
        &self,
        vis: Visibility,
        mat: MaterialId,
        attr: &str,
        at: ValidTime,
    ) -> Result<Option<(ValidTime, crate::value::Value)>> {
        let mrec = self.read_material_rec_vis(vis, mat.oid())?;
        let mut cur = mrec.history_head;
        while !cur.is_nil() {
            let node = self.read_node(vis, cur)?;
            if node.valid_time <= at {
                let step = self.read_step_rec_vis(vis, node.step)?;
                if let Some(v) = step.attr(attr) {
                    return Ok(Some((node.valid_time, v.clone())));
                }
            }
            cur = node.next;
        }
        Ok(None)
    }

    /// Every attribute's value **as of** valid time `at`: the full
    /// material snapshot the lab would have seen then. Walks the history
    /// once, newest-first, taking the first (= most recent ≤ `at`)
    /// occurrence of each attribute.
    pub fn recent_all_at(
        &self,
        mat: MaterialId,
        at: ValidTime,
    ) -> Result<Vec<(String, ValidTime, crate::value::Value)>> {
        self.recent_all_at_vis(Visibility::Latest, mat, at)
    }

    pub(crate) fn recent_all_at_vis(
        &self,
        vis: Visibility,
        mat: MaterialId,
        at: ValidTime,
    ) -> Result<Vec<(String, ValidTime, crate::value::Value)>> {
        let mrec = self.read_material_rec_vis(vis, mat.oid())?;
        let mut out: Vec<(String, ValidTime, crate::value::Value)> = Vec::new();
        let mut cur = mrec.history_head;
        while !cur.is_nil() {
            let node = self.read_node(vis, cur)?;
            if node.valid_time <= at {
                let step = self.read_step_rec_vis(vis, node.step)?;
                for (name, value) in &step.attrs {
                    if !out.iter().any(|(n, _, _)| n == name) {
                        out.push((name.clone(), node.valid_time, value.clone()));
                    }
                }
            }
            cur = node.next;
        }
        out.sort_by(|a, b| a.0.cmp(&b.0));
        Ok(out)
    }

    /// History entries with valid time in `[from, to]`, newest first —
    /// the audit-trail range query behind "what happened to M last week".
    pub fn history_between(
        &self,
        mat: MaterialId,
        from: ValidTime,
        to: ValidTime,
    ) -> Result<Vec<HistoryEntry>> {
        self.history_between_vis(Visibility::Latest, mat, from, to)
    }

    pub(crate) fn history_between_vis(
        &self,
        vis: Visibility,
        mat: MaterialId,
        from: ValidTime,
        to: ValidTime,
    ) -> Result<Vec<HistoryEntry>> {
        let mrec = self.read_material_rec_vis(vis, mat.oid())?;
        let mut out = Vec::new();
        let mut cur = mrec.history_head;
        while !cur.is_nil() {
            let node = self.read_node(vis, cur)?;
            if node.valid_time < from {
                break; // sorted newest-first: nothing older qualifies
            }
            if node.valid_time <= to {
                out.push(HistoryEntry {
                    step: StepId::from(node.step),
                    valid_time: node.valid_time,
                });
            }
            cur = node.next;
        }
        Ok(out)
    }

    /// Retract a step instance: unlink it from every involved material's
    /// history, recompute any most-recent entries it provided, and free
    /// the event object. The inverse of
    /// [`record_step`](LabBase::record_step).
    pub fn retract_step(&self, txn: TxnId, step: StepId) -> Result<()> {
        let rec = self.read_step_rec_vis(Visibility::In(txn), step.oid())?;
        for &mat in &rec.materials {
            self.unlink_event(txn, mat, step.oid())?;
            self.recompute_after_retract(txn, mat, step.oid())?;
        }
        self.store.free(txn, step.oid())?;
        Ok(())
    }

    fn unlink_event(&self, txn: TxnId, mat: Oid, step: Oid) -> Result<()> {
        let vis = Visibility::In(txn);
        let mut mrec = self.read_material_rec_vis(vis, mat)?;
        if mrec.history_head.is_nil() {
            return Err(LabError::UnknownStep(StepId::from(step)));
        }
        let head = self.read_node(vis, mrec.history_head)?;
        if head.step == step {
            let dead = mrec.history_head;
            mrec.history_head = head.next;
            self.write_material_rec(txn, mat, &mrec)?;
            self.store.free(txn, dead)?;
            return Ok(());
        }
        let mut prev_oid = mrec.history_head;
        let mut prev = head;
        while !prev.next.is_nil() {
            let next_oid = prev.next;
            let next = self.read_node(vis, next_oid)?;
            if next.step == step {
                prev.next = next.next;
                self.write_node(txn, prev_oid, &prev)?;
                self.store.free(txn, next_oid)?;
                return Ok(());
            }
            prev_oid = next_oid;
            prev = next;
        }
        Err(LabError::UnknownStep(StepId::from(step)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::db::tests::mem_db;
    use crate::value::Value;

    fn seq_attrs(q: f64) -> Vec<(String, Value)> {
        vec![("quality".into(), Value::Real(q))]
    }

    #[test]
    fn history_is_newest_first() {
        let db = mem_db();
        let t = db.begin().unwrap();
        let m = db.create_material(t, "clone", "c1", 0).unwrap();
        let s1 = db.record_step(t, "determine_sequence", 10, &[m], seq_attrs(0.1)).unwrap();
        let s2 = db.record_step(t, "determine_sequence", 20, &[m], seq_attrs(0.2)).unwrap();
        let s3 = db.record_step(t, "determine_sequence", 30, &[m], seq_attrs(0.3)).unwrap();
        db.commit(t).unwrap();
        let h = db.history(m).unwrap();
        assert_eq!(
            h.iter().map(|e| e.step).collect::<Vec<_>>(),
            vec![s3, s2, s1],
            "newest first"
        );
        assert_eq!(h.iter().map(|e| e.valid_time).collect::<Vec<_>>(), vec![30, 20, 10]);
        assert_eq!(db.history_len(m).unwrap(), 3);
    }

    #[test]
    fn out_of_order_insertion_lands_in_valid_time_position() {
        let db = mem_db();
        let t = db.begin().unwrap();
        let m = db.create_material(t, "clone", "c1", 0).unwrap();
        db.record_step(t, "determine_sequence", 10, &[m], seq_attrs(0.1)).unwrap();
        db.record_step(t, "determine_sequence", 30, &[m], seq_attrs(0.3)).unwrap();
        // Arrives last, belongs in the middle.
        db.record_step(t, "determine_sequence", 20, &[m], seq_attrs(0.2)).unwrap();
        // Arrives last, belongs at the very end.
        db.record_step(t, "determine_sequence", 5, &[m], seq_attrs(0.05)).unwrap();
        db.commit(t).unwrap();
        let times: Vec<_> = db.history(m).unwrap().iter().map(|e| e.valid_time).collect();
        assert_eq!(times, vec![30, 20, 10, 5]);
    }

    #[test]
    fn as_of_walks_valid_time() {
        let db = mem_db();
        let t = db.begin().unwrap();
        let m = db.create_material(t, "clone", "c1", 0).unwrap();
        db.record_step(t, "determine_sequence", 10, &[m], seq_attrs(0.1)).unwrap();
        db.record_step(t, "determine_sequence", 20, &[m], seq_attrs(0.2)).unwrap();
        db.record_step(t, "determine_sequence", 30, &[m], seq_attrs(0.3)).unwrap();
        db.commit(t).unwrap();
        assert_eq!(db.as_of(m, "quality", 25).unwrap(), Some((20, Value::Real(0.2))));
        assert_eq!(db.as_of(m, "quality", 30).unwrap(), Some((30, Value::Real(0.3))));
        assert_eq!(db.as_of(m, "quality", 9).unwrap(), None);
        assert_eq!(db.as_of(m, "sequence", 100).unwrap(), None, "attr never recorded");
    }

    #[test]
    fn shared_step_appears_in_every_material_history() {
        let db = mem_db();
        let t = db.begin().unwrap();
        let a = db.create_material(t, "clone", "a", 0).unwrap();
        let b = db.create_material(t, "clone", "b", 0).unwrap();
        let s = db.record_step(t, "determine_sequence", 5, &[a, b], seq_attrs(0.5)).unwrap();
        db.commit(t).unwrap();
        assert_eq!(db.history(a).unwrap()[0].step, s);
        assert_eq!(db.history(b).unwrap()[0].step, s);
    }

    #[test]
    fn retract_step_unlinks_everywhere_and_frees() {
        let db = mem_db();
        let t = db.begin().unwrap();
        let a = db.create_material(t, "clone", "a", 0).unwrap();
        let b = db.create_material(t, "clone", "b", 0).unwrap();
        let s1 = db.record_step(t, "determine_sequence", 10, &[a, b], seq_attrs(0.1)).unwrap();
        let s2 = db.record_step(t, "determine_sequence", 20, &[a], seq_attrs(0.2)).unwrap();
        db.retract_step(t, s1).unwrap();
        db.commit(t).unwrap();
        assert_eq!(db.history(a).unwrap().iter().map(|e| e.step).collect::<Vec<_>>(), vec![s2]);
        assert!(db.history(b).unwrap().is_empty());
        assert!(matches!(db.step(s1), Err(LabError::UnknownStep(_))));
    }

    #[test]
    fn retract_middle_and_head_of_list() {
        let db = mem_db();
        let t = db.begin().unwrap();
        let m = db.create_material(t, "clone", "m", 0).unwrap();
        let s1 = db.record_step(t, "determine_sequence", 10, &[m], seq_attrs(0.1)).unwrap();
        let s2 = db.record_step(t, "determine_sequence", 20, &[m], seq_attrs(0.2)).unwrap();
        let s3 = db.record_step(t, "determine_sequence", 30, &[m], seq_attrs(0.3)).unwrap();
        // The transaction's own splices are pending until commit, so the
        // mid-transaction checks go through the read-your-own-writes view.
        db.retract_step(t, s2).unwrap(); // middle
        assert_eq!(
            db.view_in(t).history(m).unwrap().iter().map(|e| e.step).collect::<Vec<_>>(),
            vec![s3, s1]
        );
        db.retract_step(t, s3).unwrap(); // head
        assert_eq!(
            db.view_in(t).history(m).unwrap().iter().map(|e| e.step).collect::<Vec<_>>(),
            vec![s1]
        );
        db.retract_step(t, s1).unwrap(); // last
        assert!(db.view_in(t).history(m).unwrap().is_empty());
        db.commit(t).unwrap();
        assert!(db.history(m).unwrap().is_empty());
    }

    #[test]
    fn recent_all_at_snapshots_every_attribute() {
        let db = mem_db();
        let t = db.begin().unwrap();
        let m = db.create_material(t, "clone", "m", 0).unwrap();
        db.record_step(
            t,
            "determine_sequence",
            10,
            &[m],
            vec![
                ("quality".into(), Value::Real(0.1)),
                ("sequence".into(), Value::dna("AAAA").unwrap()),
            ],
        )
        .unwrap();
        db.record_step(t, "determine_sequence", 20, &[m], seq_attrs(0.2)).unwrap();
        db.commit(t).unwrap();
        // At t=15: both attrs from the t=10 step.
        let snap = db.recent_all_at(m, 15).unwrap();
        assert_eq!(snap.len(), 2);
        assert_eq!(snap[0].0, "quality");
        assert_eq!(snap[0].1, 10);
        // At t=25: quality refreshed at 20, sequence still from 10.
        let snap = db.recent_all_at(m, 25).unwrap();
        let quality = snap.iter().find(|(n, _, _)| n == "quality").unwrap();
        let sequence = snap.iter().find(|(n, _, _)| n == "sequence").unwrap();
        assert_eq!(quality.1, 20);
        assert_eq!(sequence.1, 10);
        // Before anything happened: empty.
        assert!(db.recent_all_at(m, 5).unwrap().is_empty());
    }

    #[test]
    fn history_between_respects_bounds() {
        let db = mem_db();
        let t = db.begin().unwrap();
        let m = db.create_material(t, "clone", "m", 0).unwrap();
        for vt in [10, 20, 30, 40] {
            db.record_step(t, "determine_sequence", vt, &[m], seq_attrs(vt as f64)).unwrap();
        }
        db.commit(t).unwrap();
        let mid = db.history_between(m, 15, 35).unwrap();
        assert_eq!(mid.iter().map(|e| e.valid_time).collect::<Vec<_>>(), vec![30, 20]);
        let all = db.history_between(m, 0, 100).unwrap();
        assert_eq!(all.len(), 4);
        assert!(db.history_between(m, 50, 100).unwrap().is_empty());
        assert!(db.history_between(m, 35, 15).unwrap().is_empty(), "inverted range");
        // Inclusive bounds.
        let exact = db.history_between(m, 20, 30).unwrap();
        assert_eq!(exact.iter().map(|e| e.valid_time).collect::<Vec<_>>(), vec![30, 20]);
    }

    #[test]
    fn empty_history_reads_fine() {
        let db = mem_db();
        let t = db.begin().unwrap();
        let m = db.create_material(t, "clone", "m", 0).unwrap();
        db.commit(t).unwrap();
        assert!(db.history(m).unwrap().is_empty());
        assert_eq!(db.as_of(m, "quality", 100).unwrap(), None);
    }
}
