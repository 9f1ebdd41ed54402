//! Attribute values stored in step instances.
//!
//! LabFlow-1's attribute values span the mix a genome lab records:
//! scalars (lane numbers, quality scores), timestamps, references to
//! other objects, DNA sequence text, and *lists* (e.g. the BLAST hit
//! lists of the paper's "set and list generation" queries).

use std::fmt;

use labflow_storage::Oid;

use crate::enc::{Reader, Writer};
use crate::error::{LabError, Result};

/// Deepest list nesting a stored value may have. Decoding recurses
/// once per level, and so does dropping the value, so a frame of nested
/// one-element lists would otherwise overflow the connection thread's
/// stack. [`Value::decode`] refuses deeper lists, and so does recording
/// a step, so nothing is stored that cannot be read back. No workload
/// value nests more than two deep.
pub(crate) const MAX_NESTING: usize = 64;

/// Declared type of an attribute in a step-class version.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum AttrType {
    /// Boolean flag (e.g. `passed_qc`).
    Bool,
    /// 64-bit integer (lane numbers, read lengths, counts).
    Int,
    /// 64-bit float (quality scores, concentrations).
    Real,
    /// UTF-8 text (operator names, protocol notes).
    Str,
    /// Valid-time timestamp.
    Time,
    /// Reference to another material or step.
    Ref,
    /// DNA sequence text (A/C/G/T/N).
    Dna,
    /// Heterogeneous list (BLAST hit lists, tclone collections).
    List,
    /// Any value accepted (the schema-evolution escape hatch).
    Any,
}

impl AttrType {
    /// Stable wire tag.
    fn tag(self) -> u8 {
        match self {
            AttrType::Bool => 1,
            AttrType::Int => 2,
            AttrType::Real => 3,
            AttrType::Str => 4,
            AttrType::Time => 5,
            AttrType::Ref => 6,
            AttrType::Dna => 7,
            AttrType::List => 8,
            AttrType::Any => 9,
        }
    }

    fn from_tag(tag: u8) -> Result<AttrType> {
        Ok(match tag {
            1 => AttrType::Bool,
            2 => AttrType::Int,
            3 => AttrType::Real,
            4 => AttrType::Str,
            5 => AttrType::Time,
            6 => AttrType::Ref,
            7 => AttrType::Dna,
            8 => AttrType::List,
            9 => AttrType::Any,
            t => return Err(LabError::Decode(format!("unknown attr type tag {t}"))),
        })
    }

    /// Human-readable name (used in type errors).
    pub fn name(self) -> &'static str {
        match self {
            AttrType::Bool => "bool",
            AttrType::Int => "int",
            AttrType::Real => "real",
            AttrType::Str => "str",
            AttrType::Time => "time",
            AttrType::Ref => "ref",
            AttrType::Dna => "dna",
            AttrType::List => "list",
            AttrType::Any => "any",
        }
    }

    /// Encode into `w`.
    pub fn encode(self, w: &mut Writer) {
        w.u8(self.tag());
    }

    /// Decode from `r`.
    pub fn decode(r: &mut Reader<'_>) -> Result<AttrType> {
        AttrType::from_tag(r.u8()?)
    }
}

impl fmt::Display for AttrType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// An attribute value.
#[derive(Clone, PartialEq, Debug)]
pub enum Value {
    /// Explicit null (attribute recorded with no value).
    Null,
    /// Boolean.
    Bool(bool),
    /// Integer.
    Int(i64),
    /// Float.
    Real(f64),
    /// Text.
    Str(String),
    /// Valid-time timestamp.
    Time(i64),
    /// Reference to another object.
    Ref(Oid),
    /// DNA sequence (validated alphabet).
    Dna(String),
    /// Heterogeneous list.
    List(Vec<Value>),
}

impl Value {
    /// Construct a DNA value, validating the alphabet.
    pub fn dna(seq: impl Into<String>) -> Result<Value> {
        let seq = seq.into();
        if seq.bytes().all(|b| matches!(b, b'A' | b'C' | b'G' | b'T' | b'N')) {
            Ok(Value::Dna(seq))
        } else {
            Err(LabError::TypeMismatch {
                attr: "<dna literal>".into(),
                expected: "dna",
                got: format!("{:?}", seq.chars().take(12).collect::<String>()),
            })
        }
    }

    /// Whether this value conforms to `ty`.
    pub fn conforms(&self, ty: AttrType) -> bool {
        match (self, ty) {
            (_, AttrType::Any) | (Value::Null, _) => true,
            (Value::Bool(_), AttrType::Bool) => true,
            (Value::Int(_), AttrType::Int) => true,
            (Value::Real(_), AttrType::Real) => true,
            (Value::Int(_), AttrType::Real) => true, // int widens to real
            (Value::Str(_), AttrType::Str) => true,
            (Value::Time(_), AttrType::Time) => true,
            (Value::Int(_), AttrType::Time) => true,
            (Value::Ref(_), AttrType::Ref) => true,
            (Value::Dna(_), AttrType::Dna) => true,
            (Value::Str(_), AttrType::Dna) => true,
            (Value::List(_), AttrType::List) => true,
            _ => false,
        }
    }

    /// Whether lists nest more than [`MAX_NESTING`] levels deep in this
    /// value, so that [`Value::decode`] would refuse its encoding.
    /// Recurses at most `MAX_NESTING + 1` levels.
    pub(crate) fn nests_too_deep(&self) -> bool {
        fn past(v: &Value, levels: usize) -> bool {
            match v {
                Value::List(vs) => levels == 0 || vs.iter().any(|v| past(v, levels - 1)),
                _ => false,
            }
        }
        past(self, MAX_NESTING)
    }

    /// Approximate in-memory footprint in bytes (used by the workload's
    /// size accounting).
    pub fn weight(&self) -> usize {
        match self {
            Value::Null | Value::Bool(_) => 1,
            Value::Int(_) | Value::Real(_) | Value::Time(_) | Value::Ref(_) => 8,
            Value::Str(s) | Value::Dna(s) => s.len() + 4,
            Value::List(vs) => 4 + vs.iter().map(Value::weight).sum::<usize>(),
        }
    }

    /// Encode into `w`.
    pub fn encode(&self, w: &mut Writer) {
        match self {
            Value::Null => w.u8(0),
            Value::Bool(b) => {
                w.u8(1);
                w.u8(*b as u8);
            }
            Value::Int(v) => {
                w.u8(2);
                w.i64(*v);
            }
            Value::Real(v) => {
                w.u8(3);
                w.f64(*v);
            }
            Value::Str(s) => {
                w.u8(4);
                w.str(s);
            }
            Value::Time(t) => {
                w.u8(5);
                w.i64(*t);
            }
            Value::Ref(oid) => {
                w.u8(6);
                w.u64(oid.raw());
            }
            Value::Dna(s) => {
                w.u8(7);
                w.str(s);
            }
            Value::List(vs) => {
                w.u8(8);
                w.u32(vs.len() as u32);
                for v in vs {
                    v.encode(w);
                }
            }
        }
    }

    /// Decode from `r`. Lists nested more than 64 levels deep are a
    /// decode error.
    pub fn decode(r: &mut Reader<'_>) -> Result<Value> {
        Self::decode_nested(r, 0)
    }

    /// [`Value::decode`] of a value nested `depth` lists deep.
    fn decode_nested(r: &mut Reader<'_>, depth: usize) -> Result<Value> {
        Ok(match r.u8()? {
            0 => Value::Null,
            1 => Value::Bool(r.u8()? != 0),
            2 => Value::Int(r.i64()?),
            3 => Value::Real(r.f64()?),
            4 => Value::Str(r.str()?),
            5 => Value::Time(r.i64()?),
            6 => Value::Ref(Oid::from_raw(r.u64()?)),
            7 => Value::Dna(r.str()?),
            8 => {
                if depth >= MAX_NESTING {
                    return Err(LabError::Decode(format!(
                        "lists nest deeper than {MAX_NESTING} levels"
                    )));
                }
                // An item is at least its tag byte.
                let n = r.count(1)?;
                let mut vs = Vec::with_capacity(n);
                for _ in 0..n {
                    vs.push(Value::decode_nested(r, depth + 1)?);
                }
                Value::List(vs)
            }
            t => return Err(LabError::Decode(format!("unknown value tag {t}"))),
        })
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => write!(f, "null"),
            Value::Bool(b) => write!(f, "{b}"),
            Value::Int(v) => write!(f, "{v}"),
            Value::Real(v) => write!(f, "{v}"),
            Value::Str(s) => write!(f, "{s:?}"),
            Value::Time(t) => write!(f, "@{t}"),
            Value::Ref(oid) => write!(f, "{oid}"),
            Value::Dna(s) => {
                if s.len() > 16 {
                    write!(f, "dna({}…,{} bp)", &s[..16], s.len())
                } else {
                    write!(f, "dna({s})")
                }
            }
            Value::List(vs) => {
                write!(f, "[")?;
                for (i, v) in vs.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{v}")?;
                }
                write!(f, "]")
            }
        }
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Int(v)
    }
}
impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::Real(v)
    }
}
impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}
impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::Str(v.to_string())
    }
}
impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Str(v)
    }
}
impl From<Oid> for Value {
    fn from(v: Oid) -> Self {
        Value::Ref(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip(v: &Value) -> Value {
        let mut w = Writer::new();
        v.encode(&mut w);
        let buf = w.finish();
        let mut r = Reader::new(&buf);
        let out = Value::decode(&mut r).unwrap();
        assert_eq!(r.remaining(), 0);
        out
    }

    #[test]
    fn deeply_nested_lists_are_a_decode_error() {
        // 20,000 one-element lists around a null: ~100 KB, well inside
        // a frame, and deep enough to overflow the stack if decoding
        // recursed once per level without a limit.
        let depth = 20_000;
        let mut buf = Vec::new();
        for _ in 0..depth {
            buf.push(8);
            buf.extend_from_slice(&1u32.to_le_bytes());
        }
        buf.push(0);
        let err = Value::decode(&mut Reader::new(&buf)).unwrap_err();
        assert!(matches!(err, LabError::Decode(_)), "{err:?}");

        // The limit itself still decodes, and is the deepest value the
        // write side accepts.
        let mut v = Value::Null;
        for _ in 0..MAX_NESTING {
            v = Value::List(vec![v]);
        }
        assert!(!v.nests_too_deep());
        assert_eq!(round_trip(&v), v);
        let deeper = Value::List(vec![Value::Int(1), v]);
        assert!(deeper.nests_too_deep());
        let mut w = Writer::new();
        deeper.encode(&mut w);
        let err = Value::decode(&mut Reader::new(&w.finish())).unwrap_err();
        assert!(matches!(err, LabError::Decode(_)), "{err:?}");
    }

    #[test]
    fn all_variants_round_trip() {
        let values = vec![
            Value::Null,
            Value::Bool(true),
            Value::Int(-7),
            Value::Real(2.25),
            Value::Str("lane 4".into()),
            Value::Time(1_000_000),
            Value::Ref(Oid::from_raw(88)),
            Value::dna("ACGTN").unwrap(),
            Value::List(vec![Value::Int(1), Value::Str("hit".into()), Value::List(vec![])]),
        ];
        for v in &values {
            assert_eq!(&round_trip(v), v);
        }
    }

    #[test]
    fn dna_alphabet_validated() {
        assert!(Value::dna("ACGT").is_ok());
        assert!(Value::dna("ACGU").is_err());
        assert!(Value::dna("").is_ok());
    }

    #[test]
    fn conformance_rules() {
        assert!(Value::Int(3).conforms(AttrType::Int));
        assert!(Value::Int(3).conforms(AttrType::Real), "int widens to real");
        assert!(Value::Int(3).conforms(AttrType::Time));
        assert!(!Value::Real(3.0).conforms(AttrType::Int));
        assert!(Value::Null.conforms(AttrType::Dna), "null conforms to anything");
        assert!(Value::Str("ACGT".into()).conforms(AttrType::Dna));
        assert!(Value::List(vec![]).conforms(AttrType::List));
        assert!(!Value::Bool(true).conforms(AttrType::Str));
        assert!(Value::Bool(true).conforms(AttrType::Any));
    }

    #[test]
    fn attr_type_round_trip() {
        for ty in [
            AttrType::Bool,
            AttrType::Int,
            AttrType::Real,
            AttrType::Str,
            AttrType::Time,
            AttrType::Ref,
            AttrType::Dna,
            AttrType::List,
            AttrType::Any,
        ] {
            let mut w = Writer::new();
            ty.encode(&mut w);
            let buf = w.finish();
            assert_eq!(AttrType::decode(&mut Reader::new(&buf)).unwrap(), ty);
        }
    }

    #[test]
    fn corrupt_list_length_rejected() {
        let mut w = Writer::new();
        w.u8(8); // list tag
        w.u32(1_000_000); // absurd length
        let buf = w.finish();
        assert!(matches!(Value::decode(&mut Reader::new(&buf)), Err(LabError::Decode(_))));
    }

    #[test]
    fn display_is_compact() {
        assert_eq!(Value::Int(5).to_string(), "5");
        assert!(Value::dna("ACGTACGTACGTACGTACGT").unwrap().to_string().contains("20 bp"));
        assert_eq!(Value::List(vec![Value::Int(1), Value::Int(2)]).to_string(), "[1, 2]");
    }

    #[test]
    fn weight_tracks_size() {
        assert!(Value::Str("x".repeat(100)).weight() > Value::Int(1).weight());
        let l = Value::List(vec![Value::Int(1); 10]);
        assert_eq!(l.weight(), 4 + 80);
    }
}
