//! The workflow execution engine: applies graph-declared steps to a
//! LabBase database, enforcing state discipline.
//!
//! The engine is the glue the paper leaves implicit: "the ordering of
//! workflow steps is made explicit in workflow graphs, while data
//! dependencies are implicit in application programs." Here the
//! application program (the benchmark workload) calls
//! [`WorkflowEngine::execute`], and the engine enforces the graph.

use std::fmt;

use labbase::{LabBase, LabError, MaterialId, StepId, ValidTime, Value};
use labflow_storage::TxnId;

use crate::graph::{StepDef, WorkflowGraph};

/// Errors from the workflow engine.
#[derive(Debug)]
pub enum WorkflowError {
    /// The graph failed validation.
    InvalidGraph(Vec<String>),
    /// No such step kind in the graph.
    UnknownStep(String),
    /// No such outcome label on the step.
    UnknownOutcome {
        /// Step name.
        step: String,
        /// Offending label.
        outcome: String,
    },
    /// A material was not in the step's source state.
    WrongState {
        /// The material.
        material: MaterialId,
        /// State required by the step.
        expected: String,
        /// State the material is actually in.
        actual: Option<String>,
    },
    /// An error from LabBase.
    Lab(LabError),
}

impl fmt::Display for WorkflowError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WorkflowError::InvalidGraph(problems) => {
                write!(f, "invalid workflow graph: {}", problems.join("; "))
            }
            WorkflowError::UnknownStep(s) => write!(f, "unknown workflow step '{s}'"),
            WorkflowError::UnknownOutcome { step, outcome } => {
                write!(f, "step '{step}' has no outcome '{outcome}'")
            }
            WorkflowError::WrongState { material, expected, actual } => write!(
                f,
                "material {material} must be in state '{expected}' but is in {actual:?}"
            ),
            WorkflowError::Lab(e) => write!(f, "labbase: {e}"),
        }
    }
}

impl std::error::Error for WorkflowError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            WorkflowError::Lab(e) => Some(e),
            _ => None,
        }
    }
}

impl From<LabError> for WorkflowError {
    fn from(e: LabError) -> Self {
        WorkflowError::Lab(e)
    }
}

/// Convenience alias.
pub type Result<T> = std::result::Result<T, WorkflowError>;

/// Secondary materials involved in a step execution, each with an
/// optional state transition (e.g. `assemble_sequence` involves the
/// clone's incorporated tclones and moves them to `incorporated`).
#[derive(Clone, Debug)]
pub struct CoInvolved {
    /// The material.
    pub material: MaterialId,
    /// New state, if the step moves it.
    pub to_state: Option<String>,
}

/// The execution engine. Cheap to construct; borrows the graph.
pub struct WorkflowEngine<'g> {
    graph: &'g WorkflowGraph,
}

impl<'g> WorkflowEngine<'g> {
    /// Create an engine over a **validated** graph.
    pub fn new(graph: &'g WorkflowGraph) -> Result<WorkflowEngine<'g>> {
        let problems = graph.validate();
        if problems.is_empty() {
            Ok(WorkflowEngine { graph })
        } else {
            Err(WorkflowError::InvalidGraph(problems))
        }
    }

    /// The graph driving this engine.
    pub fn graph(&self) -> &WorkflowGraph {
        self.graph
    }

    /// Register the graph's schema into `db` (classes and step classes).
    pub fn setup(&self, db: &LabBase, txn: TxnId) -> Result<()> {
        self.graph.register(db, txn)?;
        Ok(())
    }

    fn step_def(&self, name: &str) -> Result<&StepDef> {
        self.graph.step(name).ok_or_else(|| WorkflowError::UnknownStep(name.to_string()))
    }

    /// Materials currently waiting for `step`, up to its batch size.
    pub fn pick_batch(&self, db: &LabBase, step: &str) -> Result<Vec<MaterialId>> {
        let def = self.step_def(step)?;
        Ok(db.in_state(&def.from, def.batch)?)
    }

    /// Materials waiting for `step`, up to `limit`.
    pub fn pick(&self, db: &LabBase, step: &str, limit: usize) -> Result<Vec<MaterialId>> {
        let def = self.step_def(step)?;
        Ok(db.in_state(&def.from, limit)?)
    }

    /// Create a material and place it in `state` — used both for
    /// workflow arrivals (initial states) and step spawns.
    pub fn inject(
        &self,
        db: &LabBase,
        txn: TxnId,
        class: &str,
        name: &str,
        state: &str,
        vt: ValidTime,
    ) -> Result<MaterialId> {
        if self.graph.state(state).is_none() {
            return Err(WorkflowError::UnknownStep(format!("state '{state}'")));
        }
        let m = db.create_material(txn, class, name, vt)?;
        db.set_state(txn, m, state, vt)?;
        Ok(m)
    }

    /// Execute one step: verify every primary material is in the step's
    /// source state, record the event (with the outcome label as an
    /// attribute), and transition primaries to the outcome's target
    /// state and co-involved materials to their given states.
    #[allow(clippy::too_many_arguments)]
    pub fn execute(
        &self,
        db: &LabBase,
        txn: TxnId,
        step: &str,
        materials: &[MaterialId],
        outcome: &str,
        mut attrs: Vec<(String, Value)>,
        co_involved: &[CoInvolved],
        vt: ValidTime,
    ) -> Result<StepId> {
        let def = self.step_def(step)?;
        let out = def
            .outcomes
            .iter()
            .find(|o| o.label == outcome)
            .ok_or_else(|| WorkflowError::UnknownOutcome {
                step: step.to_string(),
                outcome: outcome.to_string(),
            })?;
        for &m in materials {
            // Prior transitions inside this same transaction (e.g. from
            // `inject`) are still pending, so check through the txn view.
            let actual = db.view_in(txn).state_of(m)?;
            if actual.as_deref() != Some(def.from.as_str()) {
                return Err(WorkflowError::WrongState {
                    material: m,
                    expected: def.from.clone(),
                    actual,
                });
            }
        }
        attrs.push(("outcome".to_string(), Value::Str(outcome.to_string())));
        let mut involved: Vec<MaterialId> = materials.to_vec();
        involved.extend(co_involved.iter().map(|c| c.material));
        let sid = db.record_step(txn, step, vt, &involved, attrs)?;
        for &m in materials {
            db.set_state(txn, m, &out.to, vt)?;
        }
        for c in co_involved {
            if let Some(to) = &c.to_state {
                db.set_state(txn, c.material, to, vt)?;
            }
        }
        Ok(sid)
    }

    /// Weighted outcome choice for `step` given a uniform sample in
    /// `[0, 1)`. Deterministic for a given sample — the workload drives
    /// this from its seeded RNG.
    pub fn choose_outcome(&self, step: &str, sample: f64) -> Result<&str> {
        let def = self.step_def(step)?;
        let total: f64 = def.outcomes.iter().map(|o| o.weight).sum();
        let mut x = sample.clamp(0.0, 0.999_999) * total;
        for o in &def.outcomes {
            if x < o.weight {
                return Ok(&o.label);
            }
            x -= o.weight;
        }
        // Graph validation rejects steps with no outcomes, so this is
        // only reachable through float rounding on the last weight.
        let last = def.outcomes.last().ok_or_else(|| WorkflowError::InvalidGraph(
            vec![format!("step `{step}` has no outcomes")],
        ))?;
        Ok(&last.label)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::genome::{self, genome_workflow};
    use labflow_storage::{MemStore, StorageManager};
    use std::sync::Arc;

    fn setup() -> (LabBase, WorkflowGraph) {
        let store: Arc<dyn StorageManager> = Arc::new(MemStore::ostore_mm());
        let db = LabBase::create(store).unwrap();
        let graph = genome_workflow();
        let engine = WorkflowEngine::new(&graph).unwrap();
        let t = db.begin().unwrap();
        engine.setup(&db, t).unwrap();
        db.commit(t).unwrap();
        (db, graph)
    }

    #[test]
    fn invalid_graph_rejected() {
        let mut g = genome_workflow();
        g.steps[0].outcomes.clear();
        assert!(matches!(WorkflowEngine::new(&g), Err(WorkflowError::InvalidGraph(_))));
    }

    #[test]
    fn inject_execute_transition_cycle() {
        let (db, graph) = setup();
        let engine = WorkflowEngine::new(&graph).unwrap();
        let t = db.begin().unwrap();
        let c = engine.inject(&db, t, "clone", "clone-1", genome::RECEIVED, 0).unwrap();
        db.commit(t).unwrap();

        assert_eq!(engine.pick_batch(&db, "prep_clone").unwrap(), vec![c]);

        let t = db.begin().unwrap();
        let sid = engine
            .execute(
                &db,
                t,
                "prep_clone",
                &[c],
                "ok",
                vec![("concentration".into(), Value::Real(120.0))],
                &[],
                5,
            )
            .unwrap();
        db.commit(t).unwrap();
        assert_eq!(db.state_of(c).unwrap().as_deref(), Some(genome::READY_FOR_TRANSPOSITION));
        let info = db.step(sid).unwrap();
        assert_eq!(info.class, "prep_clone");
        assert_eq!(
            info.attrs.iter().find(|(n, _)| n == "outcome").unwrap().1,
            Value::Str("ok".into())
        );
        // Batch for prep_clone is now empty.
        assert!(engine.pick_batch(&db, "prep_clone").unwrap().is_empty());
    }

    #[test]
    fn wrong_state_is_rejected() {
        let (db, graph) = setup();
        let engine = WorkflowEngine::new(&graph).unwrap();
        let t = db.begin().unwrap();
        let c = engine.inject(&db, t, "clone", "c", genome::RECEIVED, 0).unwrap();
        let err = engine
            .execute(&db, t, "determine_sequence", &[c], "ok", vec![], &[], 1)
            .unwrap_err();
        assert!(matches!(err, WorkflowError::WrongState { .. }));
        db.commit(t).unwrap();
    }

    #[test]
    fn unknown_step_and_outcome_rejected() {
        let (db, graph) = setup();
        let engine = WorkflowEngine::new(&graph).unwrap();
        let t = db.begin().unwrap();
        let c = engine.inject(&db, t, "clone", "c", genome::RECEIVED, 0).unwrap();
        assert!(matches!(
            engine.execute(&db, t, "no_step", &[c], "ok", vec![], &[], 1),
            Err(WorkflowError::UnknownStep(_))
        ));
        assert!(matches!(
            engine.execute(&db, t, "prep_clone", &[c], "no_outcome", vec![], &[], 1),
            Err(WorkflowError::UnknownOutcome { .. })
        ));
        db.commit(t).unwrap();
    }

    #[test]
    fn co_involved_materials_transition_too() {
        let (db, graph) = setup();
        let engine = WorkflowEngine::new(&graph).unwrap();
        let t = db.begin().unwrap();
        let clone =
            engine.inject(&db, t, "clone", "c", genome::WAITING_FOR_ASSEMBLY, 0).unwrap();
        let tc1 = engine
            .inject(&db, t, "tclone", "t1", genome::WAITING_FOR_INCORPORATION, 0)
            .unwrap();
        let tc2 = engine
            .inject(&db, t, "tclone", "t2", genome::WAITING_FOR_INCORPORATION, 0)
            .unwrap();
        let sid = engine
            .execute(
                &db,
                t,
                "assemble_sequence",
                &[clone],
                "complete",
                vec![("n_reads".into(), Value::Int(2))],
                &[
                    CoInvolved { material: tc1, to_state: Some(genome::INCORPORATED.into()) },
                    CoInvolved { material: tc2, to_state: Some(genome::INCORPORATED.into()) },
                ],
                9,
            )
            .unwrap();
        db.commit(t).unwrap();
        assert_eq!(db.state_of(clone).unwrap().as_deref(), Some(genome::WAITING_FOR_BLAST));
        assert_eq!(db.state_of(tc1).unwrap().as_deref(), Some(genome::INCORPORATED));
        // The step appears in every involved material's history.
        assert_eq!(db.history(tc2).unwrap()[0].step, sid);
        assert_eq!(db.step(sid).unwrap().materials.len(), 3);
    }

    #[test]
    fn choose_outcome_is_weight_proportional() {
        let (_db, graph) = setup();
        let engine = WorkflowEngine::new(&graph).unwrap();
        // determine_sequence: ok 0.80, fail 0.15, off_target 0.05.
        assert_eq!(engine.choose_outcome("determine_sequence", 0.0).unwrap(), "ok");
        assert_eq!(engine.choose_outcome("determine_sequence", 0.79).unwrap(), "ok");
        assert_eq!(engine.choose_outcome("determine_sequence", 0.81).unwrap(), "fail");
        assert_eq!(engine.choose_outcome("determine_sequence", 0.96).unwrap(), "off_target");
        assert_eq!(engine.choose_outcome("determine_sequence", 1.0).unwrap(), "off_target");
    }

    #[test]
    fn full_tclone_lifecycle() {
        let (db, graph) = setup();
        let engine = WorkflowEngine::new(&graph).unwrap();
        let t = db.begin().unwrap();
        let clone = engine.inject(&db, t, "clone", "c", genome::WAITING_FOR_ASSEMBLY, 0).unwrap();
        let tc = engine.inject(&db, t, "tclone", "t", genome::PICKED, 0).unwrap();
        engine
            .execute(
                &db,
                t,
                "associate_tclone",
                &[tc],
                "ok",
                vec![("parent".into(), Value::Ref(clone.oid()))],
                &[],
                1,
            )
            .unwrap();
        engine
            .execute(&db, t, "prep_tclone", &[tc], "ok", vec![("gel_lane".into(), 3i64.into())], &[], 2)
            .unwrap();
        engine
            .execute(
                &db,
                t,
                "determine_sequence",
                &[tc],
                "fail",
                vec![("quality".into(), Value::Real(0.1))],
                &[],
                3,
            )
            .unwrap();
        // Retry succeeds.
        engine
            .execute(
                &db,
                t,
                "determine_sequence",
                &[tc],
                "ok",
                vec![
                    ("sequence".into(), Value::dna("ACGTAACC").unwrap()),
                    ("quality".into(), Value::Real(0.93)),
                ],
                &[],
                4,
            )
            .unwrap();
        db.commit(t).unwrap();
        assert_eq!(
            db.state_of(tc).unwrap().as_deref(),
            Some(genome::WAITING_FOR_INCORPORATION)
        );
        assert_eq!(db.history_len(tc).unwrap(), 4);
        // Most-recent quality reflects the retry, not the failure.
        assert_eq!(db.recent(tc, "quality").unwrap().unwrap().value, Value::Real(0.93));
    }
}
