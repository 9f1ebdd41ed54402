//! The **fixed storage schema** — the paper's Table 1.
//!
//! "In our implementation, the storage manager has a fixed schema. It
//! consists of exactly three classes, `sm_step`, `sm_material`, and
//! `material_set`." Schema evolution at the user level never changes
//! these record shapes; a user-level step class is *data* (a catalog
//! entry), and each `sm_step` instance carries the class version that
//! created it.
//!
//! Two auxiliary record types implement the paper's "structures for
//! rapid access into history lists": [`HistoryNode`] (one link in a
//! material's newest-first event list) and [`RecentRecord`] (the tagged
//! most-recent-value cache, Section 7).

use labflow_storage::Oid;

use crate::enc::{Reader, Writer};
use crate::error::Result;
use crate::ids::{ClassId, ValidTime};
use crate::value::Value;

/// An `sm_material` record: one material instance.
#[derive(Clone, Debug, PartialEq)]
pub struct SmMaterial {
    /// Material class (user schema).
    pub class: ClassId,
    /// External name, e.g. `"clone-000123"`.
    pub name: String,
    /// Valid time of creation.
    pub created: ValidTime,
    /// Current workflow state atom; empty string = no state.
    pub state: String,
    /// Valid time of the last state change.
    pub state_time: ValidTime,
    /// Head of the newest-first history list ([`Oid::NIL`] if empty).
    pub history_head: Oid,
    /// The material's [`RecentRecord`] ([`Oid::NIL`] until first step).
    pub recent: Oid,
    /// Next material in this class's extent list.
    pub ext_next: Oid,
}

impl SmMaterial {
    /// Encode to bytes.
    pub fn encode(&self) -> Vec<u8> {
        let mut w = Writer::new();
        w.u32(self.class.0);
        w.str(&self.name);
        w.i64(self.created);
        w.str(&self.state);
        w.i64(self.state_time);
        w.u64(self.history_head.raw());
        w.u64(self.recent.raw());
        w.u64(self.ext_next.raw());
        w.finish()
    }

    /// Decode from bytes.
    pub fn decode(data: &[u8]) -> Result<SmMaterial> {
        let mut r = Reader::new(data);
        Ok(SmMaterial {
            class: ClassId(r.u32()?),
            name: r.str()?,
            created: r.i64()?,
            state: r.str()?,
            state_time: r.i64()?,
            history_head: Oid::from_raw(r.u64()?),
            recent: Oid::from_raw(r.u64()?),
            ext_next: Oid::from_raw(r.u64()?),
        })
    }
}

/// An `sm_step` record: one step instance (event) in the audit trail.
#[derive(Clone, Debug, PartialEq)]
pub struct SmStep {
    /// Step class (user schema).
    pub class: ClassId,
    /// The class *version* in force when this instance was created.
    pub version: u32,
    /// Valid time of the event.
    pub valid_time: ValidTime,
    /// Materials this step `involves`.
    pub materials: Vec<Oid>,
    /// Result attributes.
    pub attrs: Vec<(String, Value)>,
}

impl SmStep {
    /// Encode to bytes.
    pub fn encode(&self) -> Vec<u8> {
        let mut w = Writer::new();
        w.u32(self.class.0);
        w.u32(self.version);
        w.i64(self.valid_time);
        w.u32(self.materials.len() as u32);
        for m in &self.materials {
            w.u64(m.raw());
        }
        w.u32(self.attrs.len() as u32);
        for (name, value) in &self.attrs {
            w.str(name);
            value.encode(&mut w);
        }
        w.finish()
    }

    /// Decode from bytes.
    pub fn decode(data: &[u8]) -> Result<SmStep> {
        let mut r = Reader::new(data);
        let class = ClassId(r.u32()?);
        let version = r.u32()?;
        let valid_time = r.i64()?;
        let nmat = r.count(8)?;
        let mut materials = Vec::with_capacity(nmat);
        for _ in 0..nmat {
            materials.push(Oid::from_raw(r.u64()?));
        }
        // An attribute is at least a name length and a value tag.
        let nattr = r.count(5)?;
        let mut attrs = Vec::with_capacity(nattr);
        for _ in 0..nattr {
            let name = r.str()?;
            let value = Value::decode(&mut r)?;
            attrs.push((name, value));
        }
        Ok(SmStep { class, version, valid_time, materials, attrs })
    }

    /// Look up an attribute value by name.
    pub fn attr(&self, name: &str) -> Option<&Value> {
        self.attrs.iter().find(|(n, _)| n == name).map(|(_, v)| v)
    }
}

/// One link in a material's newest-first history list.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct HistoryNode {
    /// The step instance this link points at.
    pub step: Oid,
    /// Valid time of that step (duplicated here so list maintenance does
    /// not have to fault in the step payload — the access-structure trick
    /// that keeps hot traffic out of the big cold segment).
    pub valid_time: ValidTime,
    /// Next (older) link, or [`Oid::NIL`].
    pub next: Oid,
}

impl HistoryNode {
    /// Encode to bytes.
    pub fn encode(&self) -> Vec<u8> {
        let mut w = Writer::new();
        w.u64(self.step.raw());
        w.i64(self.valid_time);
        w.u64(self.next.raw());
        w.finish()
    }

    /// Decode from bytes.
    pub fn decode(data: &[u8]) -> Result<HistoryNode> {
        let mut r = Reader::new(data);
        Ok(HistoryNode {
            step: Oid::from_raw(r.u64()?),
            valid_time: r.i64()?,
            next: Oid::from_raw(r.u64()?),
        })
    }
}

/// One tagged most-recent value.
#[derive(Clone, Debug, PartialEq)]
pub struct RecentEntry {
    /// Attribute name.
    pub attr: String,
    /// Valid time of the providing step.
    pub valid_time: ValidTime,
    /// The providing step.
    pub step: Oid,
    /// The value.
    pub value: Value,
}

/// The per-material most-recent cache: attribute name → newest (by valid
/// time) value across the material's history.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct RecentRecord {
    /// Entries, unordered.
    pub entries: Vec<RecentEntry>,
}

impl RecentRecord {
    /// Look up an entry.
    pub fn get(&self, attr: &str) -> Option<&RecentEntry> {
        self.entries.iter().find(|e| e.attr == attr)
    }

    /// Merge a step's attributes: each attribute wins only if its valid
    /// time is `>=` the cached one (later arrivals with earlier valid
    /// times — out-of-order entry — must not clobber newer values).
    /// Returns `true` if anything changed.
    pub fn absorb(
        &mut self,
        step: Oid,
        valid_time: ValidTime,
        attrs: &[(String, Value)],
    ) -> bool {
        let mut changed = false;
        for (name, value) in attrs {
            match self.entries.iter_mut().find(|e| &e.attr == name) {
                Some(entry) => {
                    if valid_time >= entry.valid_time {
                        entry.valid_time = valid_time;
                        entry.step = step;
                        entry.value = value.clone();
                        changed = true;
                    }
                }
                None => {
                    self.entries.push(RecentEntry {
                        attr: name.clone(),
                        valid_time,
                        step,
                        value: value.clone(),
                    });
                    changed = true;
                }
            }
        }
        changed
    }

    /// Drop every entry provided by `step` (used when a step is
    /// retracted); returns the names of the dropped attributes, which the
    /// caller must recompute from the history.
    pub fn evict_step(&mut self, step: Oid) -> Vec<String> {
        let mut dropped = Vec::new();
        self.entries.retain(|e| {
            if e.step == step {
                dropped.push(e.attr.clone());
                false
            } else {
                true
            }
        });
        dropped
    }

    /// Encode to bytes.
    pub fn encode(&self) -> Vec<u8> {
        let mut w = Writer::new();
        w.u32(self.entries.len() as u32);
        for e in &self.entries {
            w.str(&e.attr);
            w.i64(e.valid_time);
            w.u64(e.step.raw());
            e.value.encode(&mut w);
        }
        w.finish()
    }

    /// Decode from bytes.
    pub fn decode(data: &[u8]) -> Result<RecentRecord> {
        let mut r = Reader::new(data);
        // An entry is at least attribute name length, valid time, step
        // and value tag: 4 + 8 + 8 + 1 bytes.
        let n = r.count(21)?;
        let mut entries = Vec::with_capacity(n);
        for _ in 0..n {
            let attr = r.str()?;
            let valid_time = r.i64()?;
            let step = Oid::from_raw(r.u64()?);
            let value = Value::decode(&mut r)?;
            entries.push(RecentEntry { attr, valid_time, step, value });
        }
        Ok(RecentRecord { entries })
    }
}

/// A `material_set` record: a named collection of materials.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct MaterialSetRec {
    /// Set name.
    pub name: String,
    /// Member materials, in insertion order.
    pub members: Vec<Oid>,
}

impl MaterialSetRec {
    /// Encode to bytes.
    pub fn encode(&self) -> Vec<u8> {
        let mut w = Writer::new();
        w.str(&self.name);
        w.u32(self.members.len() as u32);
        for m in &self.members {
            w.u64(m.raw());
        }
        w.finish()
    }

    /// Decode from bytes.
    pub fn decode(data: &[u8]) -> Result<MaterialSetRec> {
        let mut r = Reader::new(data);
        let name = r.str()?;
        let n = r.count(8)?;
        let mut members = Vec::with_capacity(n);
        for _ in 0..n {
            members.push(Oid::from_raw(r.u64()?));
        }
        Ok(MaterialSetRec { name, members })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_corrupt_material_count_is_a_typed_error() {
        let mut w = Writer::new();
        w.u32(3);
        w.u32(1);
        w.i64(100);
        w.u32(u32::MAX);
        w.u64(7);
        assert!(matches!(SmStep::decode(&w.finish()), Err(crate::error::LabError::Decode(_))));
    }

    #[test]
    fn sm_material_round_trip() {
        let m = SmMaterial {
            class: ClassId(3),
            name: "clone-000042".into(),
            created: 100,
            state: "waiting_for_sequencing".into(),
            state_time: 250,
            history_head: Oid::from_raw(9),
            recent: Oid::from_raw(10),
            ext_next: Oid::from_raw(11),
        };
        assert_eq!(SmMaterial::decode(&m.encode()).unwrap(), m);
    }

    #[test]
    fn sm_step_round_trip_and_attr_lookup() {
        let s = SmStep {
            class: ClassId(7),
            version: 3,
            valid_time: 777,
            materials: vec![Oid::from_raw(1), Oid::from_raw(2)],
            attrs: vec![
                ("sequence".into(), Value::dna("ACGTACGT").unwrap()),
                ("quality".into(), Value::Real(0.97)),
            ],
        };
        let d = SmStep::decode(&s.encode()).unwrap();
        assert_eq!(d, s);
        assert_eq!(d.attr("quality"), Some(&Value::Real(0.97)));
        assert_eq!(d.attr("nope"), None);
    }

    #[test]
    fn history_node_round_trip() {
        let n = HistoryNode { step: Oid::from_raw(5), valid_time: -3, next: Oid::NIL };
        assert_eq!(HistoryNode::decode(&n.encode()).unwrap(), n);
    }

    #[test]
    fn recent_absorb_respects_valid_time() {
        let mut rec = RecentRecord::default();
        let s1 = Oid::from_raw(1);
        let s2 = Oid::from_raw(2);
        let s3 = Oid::from_raw(3);
        assert!(rec.absorb(s1, 100, &[("q".into(), Value::Int(1))]));
        // Later valid time wins.
        assert!(rec.absorb(s2, 200, &[("q".into(), Value::Int(2))]));
        assert_eq!(rec.get("q").unwrap().value, Value::Int(2));
        // Out-of-order arrival (earlier valid time) must NOT clobber.
        assert!(!rec.absorb(s3, 150, &[("q".into(), Value::Int(3))]));
        assert_eq!(rec.get("q").unwrap().value, Value::Int(2));
        assert_eq!(rec.get("q").unwrap().step, s2);
        // Equal valid time: newest write wins (>=).
        assert!(rec.absorb(s3, 200, &[("q".into(), Value::Int(4))]));
        assert_eq!(rec.get("q").unwrap().value, Value::Int(4));
    }

    #[test]
    fn recent_evict_step_reports_dropped_attrs() {
        let mut rec = RecentRecord::default();
        let s1 = Oid::from_raw(1);
        let s2 = Oid::from_raw(2);
        rec.absorb(s1, 10, &[("a".into(), Value::Int(1)), ("b".into(), Value::Int(2))]);
        rec.absorb(s2, 20, &[("b".into(), Value::Int(3))]);
        let mut dropped = rec.evict_step(s1);
        dropped.sort();
        assert_eq!(dropped, vec!["a"]);
        assert!(rec.get("a").is_none());
        assert_eq!(rec.get("b").unwrap().value, Value::Int(3));
    }

    #[test]
    fn recent_record_round_trip() {
        let mut rec = RecentRecord::default();
        rec.absorb(
            Oid::from_raw(4),
            9,
            &[("seq".into(), Value::dna("ACGT").unwrap()), ("n".into(), Value::Int(2))],
        );
        assert_eq!(RecentRecord::decode(&rec.encode()).unwrap(), rec);
    }

    #[test]
    fn material_set_round_trip() {
        let s = MaterialSetRec {
            name: "blast_hits".into(),
            members: vec![Oid::from_raw(3), Oid::from_raw(1)],
        };
        assert_eq!(MaterialSetRec::decode(&s.encode()).unwrap(), s);
    }

    #[test]
    fn decode_garbage_fails_cleanly() {
        assert!(SmMaterial::decode(&[1]).is_err());
        assert!(SmStep::decode(&[2, 0]).is_err());
        assert!(HistoryNode::decode(&[]).is_err());
        assert!(RecentRecord::decode(&[9, 9, 9]).is_err());
        assert!(MaterialSetRec::decode(&[1, 0]).is_err());
    }
}
