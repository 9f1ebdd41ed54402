//! The user-level schema: material classes (with is-a inheritance, per
//! the paper's two-level EER diagram of Figure 1) and *versioned* step
//! classes (the paper's schema-evolution mechanism, Section 5.1).
//!
//! Redefining a step class creates a new version; existing step instances
//! keep the version that created them forever, so "a schema change does
//! not result in a re-organization or migration of old data". The whole
//! user schema is itself data: one catalog object in the storage manager,
//! written only by schema changes. What material creation moves — a
//! class's extent head and instance count — lives beside it in one
//! 16-byte extent record per material class, which the catalog names.

use std::collections::HashMap;

use labflow_storage::Oid;

use crate::enc::{Reader, Writer};
use crate::error::{LabError, Result};
use crate::ids::ClassId;
use crate::value::{AttrType, Value};

/// One attribute declaration.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct AttrDef {
    /// Attribute name.
    pub name: String,
    /// Declared type.
    pub ty: AttrType,
}

/// One immutable version of a step class's attribute set.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct StepClassVersion {
    /// Version number, starting at 1.
    pub version: u32,
    /// The attribute set of this version.
    pub attrs: Vec<AttrDef>,
}

impl StepClassVersion {
    /// Look up an attribute by name.
    pub fn attr(&self, name: &str) -> Option<&AttrDef> {
        self.attrs.iter().find(|a| a.name == name)
    }

    /// Validate `(name, value)` pairs against this version.
    pub fn validate(&self, class: &str, attrs: &[(String, Value)]) -> Result<()> {
        for (name, value) in attrs {
            let def = self.attr(name).ok_or_else(|| LabError::UnknownAttr {
                class: class.to_string(),
                attr: name.clone(),
            })?;
            if !value.conforms(def.ty) {
                return Err(LabError::TypeMismatch {
                    attr: name.clone(),
                    expected: def.ty.name(),
                    got: value.to_string(),
                });
            }
            // Stored steps must decode again (`value::MAX_NESTING`).
            if value.nests_too_deep() {
                return Err(LabError::TypeMismatch {
                    attr: name.clone(),
                    expected: "lists nested at most 64 deep",
                    got: "deeper lists".to_string(),
                });
            }
        }
        Ok(())
    }
}

/// A step class: a name plus the full version history of its attribute
/// sets.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct StepClass {
    /// Class id (shared id space with material classes).
    pub id: ClassId,
    /// Class name.
    pub name: String,
    /// All versions, oldest first. Never empty.
    pub versions: Vec<StepClassVersion>,
}

impl StepClass {
    /// The current (latest) version.
    pub fn current(&self) -> &StepClassVersion {
        // analyzer: allow(panic, "constructors create version 1 and versions are append-only, so the vec is never empty; the accessor is deliberately infallible")
        self.versions.last().expect("step class always has >= 1 version")
    }

    /// A specific version, if it exists.
    pub fn version(&self, v: u32) -> Option<&StepClassVersion> {
        self.versions.iter().find(|ver| ver.version == v)
    }
}

/// A material class, with optional is-a parent.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MaterialClass {
    /// Class id (shared id space with step classes).
    pub id: ClassId,
    /// Class name.
    pub name: String,
    /// is-a parent, if any.
    pub parent: Option<ClassId>,
    /// The class's extent record: the object that stores `extent_head`
    /// and `count`, so a creation writes 16 bytes, not the catalog.
    pub extent: Oid,
    /// Head of the class extent (linked list through `sm_material`
    /// records); [`Oid::NIL`] when empty. Cached from the extent record.
    pub extent_head: Oid,
    /// Number of direct instances. Cached from the extent record.
    pub count: u64,
}

/// Encode an extent record: the class extent's head and instance count.
pub(crate) fn encode_extent(head: Oid, count: u64) -> Vec<u8> {
    let mut w = Writer::new();
    w.u64(head.raw());
    w.u64(count);
    w.finish()
}

/// Decode an extent record into `(head, count)`.
pub(crate) fn decode_extent(data: &[u8]) -> Result<(Oid, u64)> {
    let mut r = Reader::new(data);
    Ok((Oid::from_raw(r.u64()?), r.u64()?))
}

/// The whole user-level schema.
#[derive(Clone, Debug, Default)]
pub struct Catalog {
    materials: Vec<MaterialClass>,
    steps: Vec<StepClass>,
    mat_by_name: HashMap<String, usize>,
    step_by_name: HashMap<String, usize>,
    next_class: u32,
}

impl Catalog {
    /// An empty catalog.
    pub fn new() -> Self {
        Catalog { next_class: 1, ..Default::default() }
    }

    fn name_taken(&self, name: &str) -> bool {
        self.mat_by_name.contains_key(name) || self.step_by_name.contains_key(name)
    }

    /// Define a material class, optionally a subclass of `parent`. Its
    /// extent record is [`Oid::NIL`] until the caller allocates one.
    pub fn define_material_class(&mut self, name: &str, parent: Option<&str>) -> Result<ClassId> {
        if self.name_taken(name) {
            return Err(LabError::DuplicateClass(name.to_string()));
        }
        let parent_id = match parent {
            Some(p) => Some(self.material_class(p)?.id),
            None => None,
        };
        let id = ClassId(self.next_class);
        self.next_class += 1;
        self.mat_by_name.insert(name.to_string(), self.materials.len());
        self.materials.push(MaterialClass {
            id,
            name: name.to_string(),
            parent: parent_id,
            extent: Oid::NIL,
            extent_head: Oid::NIL,
            count: 0,
        });
        Ok(id)
    }

    /// Define a step class with its initial attribute set (version 1).
    pub fn define_step_class(&mut self, name: &str, attrs: Vec<AttrDef>) -> Result<ClassId> {
        if self.name_taken(name) {
            return Err(LabError::DuplicateClass(name.to_string()));
        }
        Self::check_attr_names(&attrs)?;
        let id = ClassId(self.next_class);
        self.next_class += 1;
        self.step_by_name.insert(name.to_string(), self.steps.len());
        self.steps.push(StepClass {
            id,
            name: name.to_string(),
            versions: vec![StepClassVersion { version: 1, attrs }],
        });
        Ok(id)
    }

    /// Redefine a step class: appends a new version with `attrs` and
    /// returns its version number. Old instances keep their version —
    /// the paper's no-migration schema evolution.
    pub fn redefine_step_class(&mut self, name: &str, attrs: Vec<AttrDef>) -> Result<u32> {
        Self::check_attr_names(&attrs)?;
        let idx = *self
            .step_by_name
            .get(name)
            .ok_or_else(|| LabError::UnknownClass(name.to_string()))?;
        let class = &mut self.steps[idx];
        let version = class.current().version + 1;
        class.versions.push(StepClassVersion { version, attrs });
        Ok(version)
    }

    fn check_attr_names(attrs: &[AttrDef]) -> Result<()> {
        for (i, a) in attrs.iter().enumerate() {
            if attrs[..i].iter().any(|b| b.name == a.name) {
                return Err(LabError::DuplicateClass(format!("duplicate attribute '{}'", a.name)));
            }
        }
        Ok(())
    }

    /// Material class by name.
    pub fn material_class(&self, name: &str) -> Result<&MaterialClass> {
        self.mat_by_name
            .get(name)
            .map(|&i| &self.materials[i])
            .ok_or_else(|| LabError::UnknownClass(name.to_string()))
    }

    /// Mutable material class by id.
    pub fn material_class_mut(&mut self, id: ClassId) -> Result<&mut MaterialClass> {
        self.materials
            .iter_mut()
            .find(|c| c.id == id)
            .ok_or_else(|| LabError::UnknownClass(id.to_string()))
    }

    /// Material class by id.
    pub fn material_class_by_id(&self, id: ClassId) -> Result<&MaterialClass> {
        self.materials
            .iter()
            .find(|c| c.id == id)
            .ok_or_else(|| LabError::UnknownClass(id.to_string()))
    }

    /// Step class by name.
    pub fn step_class(&self, name: &str) -> Result<&StepClass> {
        self.step_by_name
            .get(name)
            .map(|&i| &self.steps[i])
            .ok_or_else(|| LabError::UnknownClass(name.to_string()))
    }

    /// Step class by id.
    pub fn step_class_by_id(&self, id: ClassId) -> Result<&StepClass> {
        self.steps
            .iter()
            .find(|c| c.id == id)
            .ok_or_else(|| LabError::UnknownClass(id.to_string()))
    }

    /// All material classes.
    pub fn material_classes(&self) -> &[MaterialClass] {
        &self.materials
    }

    /// All material classes, to overlay their extent records.
    pub(crate) fn material_classes_mut(&mut self) -> &mut [MaterialClass] {
        &mut self.materials
    }

    /// All step classes.
    pub fn step_classes(&self) -> &[StepClass] {
        &self.steps
    }

    /// Whether material class `child` is `ancestor` or inherits from it.
    pub fn is_a(&self, child: ClassId, ancestor: ClassId) -> bool {
        let mut cur = Some(child);
        while let Some(id) = cur {
            if id == ancestor {
                return true;
            }
            cur = self.materials.iter().find(|c| c.id == id).and_then(|c| c.parent);
        }
        false
    }

    // ---- persistence ------------------------------------------------------

    /// Encode the catalog. Extent heads and counts are not part of it:
    /// they live in the extent records.
    pub fn encode(&self) -> Vec<u8> {
        let mut w = Writer::new();
        w.u32(self.next_class);
        w.u32(self.materials.len() as u32);
        for m in &self.materials {
            w.u32(m.id.0);
            w.str(&m.name);
            w.u32(m.parent.map_or(0, |p| p.0));
            w.u64(m.extent.raw());
        }
        w.u32(self.steps.len() as u32);
        for s in &self.steps {
            w.u32(s.id.0);
            w.str(&s.name);
            w.u32(s.versions.len() as u32);
            for v in &s.versions {
                w.u32(v.version);
                w.u32(v.attrs.len() as u32);
                for a in &v.attrs {
                    w.str(&a.name);
                    a.ty.encode(&mut w);
                }
            }
        }
        w.finish()
    }

    /// Decode a catalog. Every class's extent reads empty until its
    /// extent record is overlaid.
    pub fn decode(data: &[u8]) -> Result<Catalog> {
        let mut r = Reader::new(data);
        let next_class = r.u32()?;
        // A material class is at least id, name length, parent and
        // extent record: 4 + 4 + 4 + 8 bytes.
        let nmat = r.count(20)?;
        let mut materials = Vec::with_capacity(nmat);
        let mut mat_by_name = HashMap::with_capacity(nmat);
        for i in 0..nmat {
            let id = ClassId(r.u32()?);
            let name = r.str()?;
            let parent_raw = r.u32()?;
            let parent = if parent_raw == 0 { None } else { Some(ClassId(parent_raw)) };
            let extent = Oid::from_raw(r.u64()?);
            mat_by_name.insert(name.clone(), i);
            materials.push(MaterialClass {
                id,
                name,
                parent,
                extent,
                extent_head: Oid::NIL,
                count: 0,
            });
        }
        // A step class is at least id, name length and version count.
        let nstep = r.count(12)?;
        let mut steps = Vec::with_capacity(nstep);
        let mut step_by_name = HashMap::with_capacity(nstep);
        for i in 0..nstep {
            let id = ClassId(r.u32()?);
            let name = r.str()?;
            // A version is at least its number and attribute count.
            let nver = r.count(8)?;
            let mut versions = Vec::with_capacity(nver);
            for _ in 0..nver {
                let version = r.u32()?;
                // An attribute is at least a name length and a type tag.
                let nattr = r.count(5)?;
                let mut attrs = Vec::with_capacity(nattr);
                for _ in 0..nattr {
                    let name = r.str()?;
                    let ty = AttrType::decode(&mut r)?;
                    attrs.push(AttrDef { name, ty });
                }
                versions.push(StepClassVersion { version, attrs });
            }
            if versions.is_empty() {
                return Err(LabError::Decode(format!("step class '{name}' has no versions")));
            }
            step_by_name.insert(name.clone(), i);
            steps.push(StepClass { id, name, versions });
        }
        Ok(Catalog { materials, steps, mat_by_name, step_by_name, next_class })
    }
}

/// Shorthand for building attribute lists.
pub fn attrs(defs: &[(&str, AttrType)]) -> Vec<AttrDef> {
    defs.iter().map(|(n, t)| AttrDef { name: n.to_string(), ty: *t }).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_corrupt_class_count_is_a_typed_error() {
        let mut w = Writer::new();
        w.u32(1);
        w.u32(u32::MAX);
        w.u32(0);
        assert!(matches!(Catalog::decode(&w.finish()), Err(LabError::Decode(_))));
    }

    fn sample() -> Catalog {
        let mut c = Catalog::new();
        c.define_material_class("material", None).unwrap();
        c.define_material_class("clone", Some("material")).unwrap();
        c.define_material_class("tclone", Some("clone")).unwrap();
        c.define_step_class(
            "determine_sequence",
            attrs(&[("sequence", AttrType::Dna), ("quality", AttrType::Real)]),
        )
        .unwrap();
        c
    }

    #[test]
    fn define_and_lookup() {
        let c = sample();
        assert_eq!(c.material_class("clone").unwrap().name, "clone");
        assert_eq!(c.step_class("determine_sequence").unwrap().current().version, 1);
        assert!(c.material_class("gel").is_err());
        assert!(c.step_class("clone").is_err(), "material names are not step names");
    }

    #[test]
    fn duplicate_names_rejected_across_kinds() {
        let mut c = sample();
        assert!(matches!(
            c.define_material_class("clone", None),
            Err(LabError::DuplicateClass(_))
        ));
        assert!(matches!(
            c.define_step_class("clone", vec![]),
            Err(LabError::DuplicateClass(_))
        ));
        assert!(matches!(
            c.define_material_class("determine_sequence", None),
            Err(LabError::DuplicateClass(_))
        ));
    }

    #[test]
    fn is_a_walks_parent_chain() {
        let c = sample();
        let mat = c.material_class("material").unwrap().id;
        let clone = c.material_class("clone").unwrap().id;
        let tclone = c.material_class("tclone").unwrap().id;
        assert!(c.is_a(tclone, tclone));
        assert!(c.is_a(tclone, clone));
        assert!(c.is_a(tclone, mat));
        assert!(!c.is_a(mat, tclone));
    }

    #[test]
    fn evolution_appends_versions_and_preserves_old() {
        let mut c = sample();
        let v2 = c
            .redefine_step_class(
                "determine_sequence",
                attrs(&[
                    ("sequence", AttrType::Dna),
                    ("quality", AttrType::Real),
                    ("machine", AttrType::Str),
                ]),
            )
            .unwrap();
        assert_eq!(v2, 2);
        let class = c.step_class("determine_sequence").unwrap();
        assert_eq!(class.current().version, 2);
        assert!(class.current().attr("machine").is_some());
        let v1 = class.version(1).unwrap();
        assert!(v1.attr("machine").is_none(), "old version untouched");
        assert!(class.version(3).is_none());
    }

    #[test]
    fn redefine_unknown_class_fails() {
        let mut c = sample();
        assert!(matches!(c.redefine_step_class("nope", vec![]), Err(LabError::UnknownClass(_))));
    }

    #[test]
    fn validation_catches_unknown_attr_and_type() {
        let c = sample();
        let v = c.step_class("determine_sequence").unwrap().current();
        v.validate(
            "determine_sequence",
            &[("sequence".into(), Value::dna("ACGT").unwrap()), ("quality".into(), Value::Int(9))],
        )
        .unwrap();
        assert!(matches!(
            v.validate("determine_sequence", &[("lane".into(), Value::Int(1))]),
            Err(LabError::UnknownAttr { .. })
        ));
        assert!(matches!(
            v.validate("determine_sequence", &[("quality".into(), Value::Bool(true))]),
            Err(LabError::TypeMismatch { .. })
        ));
    }

    #[test]
    fn duplicate_attrs_rejected() {
        let mut c = Catalog::new();
        let err = c
            .define_step_class("s", attrs(&[("a", AttrType::Int), ("a", AttrType::Str)]))
            .unwrap_err();
        assert!(matches!(err, LabError::DuplicateClass(_)));
    }

    #[test]
    fn catalog_encode_decode_round_trip() {
        let mut c = sample();
        c.redefine_step_class(
            "determine_sequence",
            attrs(&[("sequence", AttrType::Dna), ("machine", AttrType::Str)]),
        )
        .unwrap();
        // Extent bookkeeping lives in the extent record, not the catalog.
        let clone_id = c.material_class("clone").unwrap().id;
        let m = c.material_class_mut(clone_id).unwrap();
        m.extent = Oid::from_raw(11);
        m.extent_head = Oid::from_raw(77);
        m.count = 12;

        let bytes = c.encode();
        let d = Catalog::decode(&bytes).unwrap();
        assert_eq!(d.material_classes().len(), 3);
        assert_eq!(d.step_classes().len(), 1);
        assert_eq!(d.material_class("clone").unwrap().extent, Oid::from_raw(11));
        assert_eq!(d.material_class("clone").unwrap().extent_head, Oid::NIL);
        assert_eq!(d.material_class("clone").unwrap().count, 0);
        assert_eq!(
            decode_extent(&encode_extent(Oid::from_raw(77), 12)).unwrap(),
            (Oid::from_raw(77), 12)
        );
        assert_eq!(d.step_class("determine_sequence").unwrap().versions.len(), 2);
        // Ids keep being unique after reload.
        let mut d = d;
        let new_id = d.define_material_class("gel", None).unwrap();
        assert!(d.material_classes().iter().filter(|c| c.id == new_id).count() == 1);
        assert!(!c.material_classes().iter().any(|c| c.id == new_id));
    }

    #[test]
    fn decode_rejects_garbage() {
        assert!(Catalog::decode(&[1, 2, 3]).is_err());
    }
}
