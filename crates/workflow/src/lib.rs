//! # labflow-workflow
//!
//! Workflow graphs for the LabFlow-1 benchmark (Bonner, Shrufi & Rozen,
//! EDBT 1996): states, weighted step outcomes, spawns, validation, a
//! text renderer for the paper's Appendix-B figure, and an execution
//! engine that applies graph steps to a LabBase database.
//!
//! "The workflow graph largely determines the workload for the DBMS.
//! Appendix B gives an example of a workflow graph, one that forms the
//! basis of the workload for the LabFlow-1 benchmark." —
//! [`genome::genome_workflow`] reconstructs that graph.
//!
//! ## Example
//!
//! ```
//! use std::sync::Arc;
//! use labbase::LabBase;
//! use labflow_storage::{MemStore, StorageManager};
//! use labflow_workflow::{genome, WorkflowEngine};
//!
//! let graph = genome::genome_workflow();
//! assert!(graph.validate().is_empty());
//!
//! let store: Arc<dyn StorageManager> = Arc::new(MemStore::ostore_mm());
//! let db = LabBase::create(store).unwrap();
//! let engine = WorkflowEngine::new(&graph).unwrap();
//! let t = db.begin().unwrap();
//! engine.setup(&db, t).unwrap();
//! let c = engine.inject(&db, t, "clone", "clone-1", genome::RECEIVED, 0).unwrap();
//! engine.execute(&db, t, "prep_clone", &[c], "ok", vec![], &[], 1).unwrap();
//! db.commit(t).unwrap();
//! assert_eq!(db.state_of(c).unwrap().as_deref(), Some(genome::READY_FOR_TRANSPOSITION));
//! ```

#![warn(missing_docs)]

mod engine;
pub mod genome;
mod graph;

pub use engine::{CoInvolved, Result, WorkflowEngine, WorkflowError};
pub use graph::{Outcome, Spawn, StateDef, StepDef, WorkflowGraph};
