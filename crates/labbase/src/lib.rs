//! # labbase
//!
//! A Rust reimplementation of **LabBase**, the workflow DBMS of the
//! Whitehead/MIT Center for Genome Research, as specified by the
//! LabFlow-1 benchmark paper (Bonner, Shrufi & Rozen, EDBT 1996).
//!
//! LabBase is the paper's "workflow wrapper" (Architecture C): it runs on
//! top of an object storage manager with a **fixed** three-class storage
//! schema (`sm_step`, `sm_material`, `material_set` — Table 1) and
//! provides, at the user level:
//!
//! * **Event histories** — every workflow step is an immutable event
//!   linked into each involved material's newest-first history list;
//! * **Most-recent views** — a material's current attributes are derived
//!   from its history by *valid time*, served from a per-material cache
//!   (Section 7's "structures for rapid access into history lists");
//! * **Workflow states** — the `state(M, S)` predicate, with an index
//!   that answers "which materials are waiting in state S";
//! * **Dynamic schema evolution** — step classes are versioned data, not
//!   storage schema; redefinition is constant-time and never migrates
//!   old instances;
//! * **Material sets** — named persistent collections used as work
//!   queues and report outputs.
//!
//! All of this works identically over every
//! [`StorageManager`](labflow_storage::StorageManager) backend, which is
//! what lets the LabFlow-1 benchmark compare storage managers while
//! holding the DBMS constant.
//!
//! ## Example
//!
//! ```
//! use std::sync::Arc;
//! use labbase::{LabBase, Value, AttrType, schema::attrs};
//! use labflow_storage::{MemStore, StorageManager};
//!
//! let store: Arc<dyn StorageManager> = Arc::new(MemStore::ostore_mm());
//! let db = LabBase::create(store).unwrap();
//! let t = db.begin().unwrap();
//! db.define_material_class(t, "clone", None).unwrap();
//! db.define_step_class(t, "determine_sequence",
//!     attrs(&[("sequence", AttrType::Dna), ("quality", AttrType::Real)])).unwrap();
//! let m = db.create_material(t, "clone", "clone-001", 0).unwrap();
//! db.record_step(t, "determine_sequence", 10, &[m], vec![
//!     ("sequence".into(), Value::dna("ACGTACGT").unwrap()),
//!     ("quality".into(), Value::Real(0.98)),
//! ]).unwrap();
//! db.commit(t).unwrap();
//!
//! let q = db.recent(m, "quality").unwrap().unwrap();
//! assert_eq!(q.value, Value::Real(0.98));
//! ```

#![warn(missing_docs)]

mod check;
mod db;
pub mod enc;
mod error;
mod history;
mod ids;
mod query;
mod recent;
pub mod schema;
mod session;
pub mod smrecord;
mod sets;
mod state;
mod value;
mod view;

pub use check::IntegrityReport;
pub use db::{LabBase, MaterialInfo, StepInfo, SEG_CATALOG, SEG_HISTORY, SEG_MATERIAL, SEG_STEP};
pub use error::{LabError, Result};
pub use history::HistoryEntry;
pub use ids::{ClassId, MaterialId, StepId, ValidTime};
pub use recent::Recent;
pub use session::Session;
pub use value::{AttrType, Value};
pub use view::View;
