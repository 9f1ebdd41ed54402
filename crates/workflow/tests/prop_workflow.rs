//! Property-based tests for the workflow engine: outcome selection is
//! weight-faithful, state discipline is never violated, and random
//! graph mutations are caught by validation.

use std::sync::Arc;

use proptest::prelude::*;

use labbase::LabBase;
use labflow_storage::{MemStore, StorageManager};
use labflow_workflow::{genome, WorkflowEngine, WorkflowError};

fn db_with_schema() -> LabBase {
    let store: Arc<dyn StorageManager> = Arc::new(MemStore::ostore_mm());
    let db = LabBase::create(store).unwrap();
    let graph = genome::genome_workflow();
    let engine = WorkflowEngine::new(&graph).unwrap();
    let t = db.begin().unwrap();
    engine.setup(&db, t).unwrap();
    db.commit(t).unwrap();
    db
}

proptest! {
    /// choose_outcome always returns a declared outcome label, for any
    /// sample in [0, 1] and any step of the genome graph.
    #[test]
    fn choose_outcome_always_valid(sample in 0.0f64..=1.0, step_idx in 0usize..7) {
        let graph = genome::genome_workflow();
        let engine = WorkflowEngine::new(&graph).unwrap();
        let step = &graph.steps[step_idx % graph.steps.len()];
        let label = engine.choose_outcome(&step.name, sample).unwrap();
        prop_assert!(step.outcomes.iter().any(|o| o.label == label));
    }

    /// Empirical outcome frequencies converge to the declared weights.
    #[test]
    fn choose_outcome_frequencies_track_weights(seed in any::<u64>()) {
        use rand::{Rng, SeedableRng};
        let graph = genome::genome_workflow();
        let engine = WorkflowEngine::new(&graph).unwrap();
        let step = graph.step("determine_sequence").unwrap();
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let n = 4000;
        let mut counts = std::collections::HashMap::new();
        for _ in 0..n {
            let label = engine.choose_outcome("determine_sequence", rng.gen()).unwrap();
            *counts.entry(label.to_string()).or_insert(0usize) += 1;
        }
        let total: f64 = step.outcomes.iter().map(|o| o.weight).sum();
        for o in &step.outcomes {
            let expected = o.weight / total;
            let got = *counts.get(&o.label).unwrap_or(&0) as f64 / n as f64;
            prop_assert!(
                (got - expected).abs() < 0.04,
                "outcome {} frequency {:.3} vs weight {:.3}", o.label, got, expected
            );
        }
    }

    /// A random walk of execute() calls never leaves a material in a
    /// state its class does not declare, and never accepts a step from
    /// the wrong state.
    #[test]
    fn state_discipline_holds_under_random_driving(
        choices in proptest::collection::vec((0usize..7, 0.0f64..1.0), 1..60)
    ) {
        let db = db_with_schema();
        let graph = genome::genome_workflow();
        let engine = WorkflowEngine::new(&graph).unwrap();
        let t = db.begin().unwrap();
        let tc = engine.inject(&db, t, "tclone", "t0", genome::PICKED, 0).unwrap();
        for (vt, (step_idx, sample)) in (1i64..).zip(choices.iter()) {
            let step = &graph.steps[step_idx % graph.steps.len()];
            let outcome = engine.choose_outcome(&step.name, *sample).unwrap().to_string();
            match engine.execute(&db, t, &step.name, &[tc], &outcome, vec![], &[], vt) {
                Ok(_) => {
                    // Accepted: tc must now be in the declared outcome
                    // state. All of this is uncommitted, so read the
                    // transaction's own view.
                    let now = db.view_in(t).state_of(tc).unwrap().unwrap();
                    let declared = step.outcomes.iter().find(|o| o.label == outcome).unwrap();
                    prop_assert_eq!(&now, &declared.to);
                    prop_assert!(graph.state(&now).is_some());
                    prop_assert_eq!(&graph.state(&now).unwrap().class, "tclone");
                }
                Err(WorkflowError::WrongState { expected, actual, .. }) => {
                    // Rejected: the engine must be telling the truth.
                    prop_assert_eq!(actual, db.view_in(t).state_of(tc).unwrap());
                    prop_assert_eq!(&expected, &step.from);
                }
                Err(other) => return Err(TestCaseError::fail(format!("unexpected: {other}"))),
            }
        }
        db.commit(t).unwrap();
    }

    /// Randomly corrupting the genome graph is caught by validate().
    #[test]
    fn random_corruptions_fail_validation(which in 0usize..5, idx in any::<usize>()) {
        let mut g = genome::genome_workflow();
        match which {
            0 => {
                // Break an outcome target.
                let s = idx % g.steps.len();
                if let Some(o) = g.steps[s].outcomes.first_mut() {
                    o.to = "no_such_state".into();
                }
            }
            1 => {
                // Rename a state out from under its steps.
                let s = idx % g.states.len();
                g.states[s].name = "renamed_away".into();
            }
            2 => {
                // Negative weight.
                let s = idx % g.steps.len();
                if let Some(o) = g.steps[s].outcomes.first_mut() {
                    o.weight = -1.0;
                }
            }
            3 => {
                // Duplicate step name.
                let s = idx % g.steps.len();
                let dup = g.steps[s].clone();
                g.steps.push(dup);
            }
            _ => {
                // Zero batch.
                let s = idx % g.steps.len();
                g.steps[s].batch = 0;
            }
        }
        prop_assert!(!g.validate().is_empty(), "corruption {} slipped through", which);
    }
}
