//! # lql
//!
//! LQL is the deductive (Datalog/Prolog-style) query language of
//! LabBase, as specified by the LabFlow-1 benchmark (Bonner, Shrufi &
//! Rozen, EDBT 1996, Sections 6–8). "It is a deductive language in the
//! tradition of Datalog and Prolog, and is very similar to the query
//! language used at the Genome Center."
//!
//! The crate provides:
//!
//! * a parser for clauses and queries ([`parse_program`],
//!   [`parse_query`]);
//! * an SLD evaluator with negation-as-failure, `setof` (duplicates
//!   eliminated, per the paper), `findall`, `count`, and arithmetic
//!   ([`Session`]);
//! * LabBase-backed base predicates (`state/2`, `recent/3`,
//!   `history_event/3`, `involves/2`, class predicates, …) and the
//!   Section-8 update predicates (`assert`/`retract` of `state` facts,
//!   `create_material`, `record_step`, …);
//! * the LabFlow-1 standard view library ([`stdlib::LABFLOW_RULES`]),
//!   including the paper's quoted workflow-transition rule.
//!
//! ## Example
//!
//! ```
//! use std::sync::Arc;
//! use labbase::{LabBase, AttrType, schema::attrs};
//! use labflow_storage::{MemStore, StorageManager};
//! use lql::{Session, stdlib::labflow_program};
//!
//! let store: Arc<dyn StorageManager> = Arc::new(MemStore::ostore_mm());
//! let db = LabBase::create(store).unwrap();
//! let t = db.begin().unwrap();
//! db.define_material_class(t, "clone", None).unwrap();
//! db.define_step_class(t, "determine_sequence",
//!     attrs(&[("sequence", labbase::AttrType::Dna)])).unwrap();
//! db.commit(t).unwrap();
//!
//! let program = labflow_program();
//! let txn = db.begin().unwrap();
//! let session = Session::with_txn(&db, &program, txn);
//! // Create a material and move it through the paper's transition.
//! session.query(r#"create_material(clone, "c1", 0, M),
//!                  assert(state(M, waiting_for_sequencing))"#).unwrap();
//! let moved = session.query("move(M)").unwrap();
//! assert_eq!(moved.len(), 1);
//! db.commit(txn).unwrap();
//! assert_eq!(db.count_in_state("waiting_for_incorporation").unwrap(), 1);
//! # let _ = AttrType::Dna;
//! ```

#![warn(missing_docs)]

mod ast;
mod dbpred;
mod error;
mod eval;
mod parser;
pub mod stdlib;
mod token;
mod unify;

pub use ast::{Rule, Term};
pub use error::{LqlError, Result};
pub use eval::{Bindings, Program, Session, PRELUDE};
pub use parser::{parse_program, parse_query};
pub use unify::{cmp_terms, Subst};

#[cfg(test)]
mod tests {
    use super::*;
    use labbase::schema::attrs;
    use labbase::{AttrType, LabBase, Value};
    use labflow_storage::{MemStore, StorageManager};
    use std::sync::Arc;

    fn db() -> LabBase {
        let store: Arc<dyn StorageManager> = Arc::new(MemStore::ostore_mm());
        let db = LabBase::create(store).unwrap();
        let t = db.begin().unwrap();
        db.define_material_class(t, "material", None).unwrap();
        db.define_material_class(t, "clone", Some("material")).unwrap();
        db.define_material_class(t, "tclone", Some("clone")).unwrap();
        db.define_step_class(
            t,
            "determine_sequence",
            attrs(&[("sequence", AttrType::Dna), ("quality", AttrType::Real)]),
        )
        .unwrap();
        db.define_step_class(t, "assemble_sequence", attrs(&[("sequence", AttrType::Dna)]))
            .unwrap();
        db.commit(t).unwrap();
        db
    }

    fn seed(db: &LabBase) -> (labbase::MaterialId, labbase::MaterialId) {
        let t = db.begin().unwrap();
        let a = db.create_material(t, "clone", "clone-a", 0).unwrap();
        let b = db.create_material(t, "tclone", "tclone-b", 1).unwrap();
        db.record_step(
            t,
            "determine_sequence",
            10,
            &[a],
            vec![
                ("sequence".into(), Value::dna("ACGT").unwrap()),
                ("quality".into(), Value::Real(0.95)),
            ],
        )
        .unwrap();
        db.record_step(
            t,
            "determine_sequence",
            20,
            &[b],
            vec![
                ("sequence".into(), Value::dna("GGCC").unwrap()),
                ("quality".into(), Value::Real(0.5)),
            ],
        )
        .unwrap();
        db.set_state(t, a, "waiting_for_sequencing", 10).unwrap();
        db.set_state(t, b, "done", 20).unwrap();
        db.commit(t).unwrap();
        (a, b)
    }

    #[test]
    fn pure_logic_without_db_predicates() {
        let d = db();
        let mut p = Program::new();
        p.load(
            "anc(X, Y) :- parent(X, Y).\n\
             anc(X, Z) :- parent(X, Y), anc(Y, Z).\n\
             parent(a, b). parent(b, c). parent(c, d).",
        )
        .unwrap();
        let s = Session::new(&d, &p);
        let rows = s.query("anc(a, X)").unwrap();
        let xs: Vec<String> = rows.iter().map(|r| r[0].1.to_string()).collect();
        assert_eq!(xs, vec!["b", "c", "d"]);
        assert!(s.prove("anc(a, d)").unwrap());
        assert!(!s.prove("anc(d, a)").unwrap());
    }

    #[test]
    fn member_append_prelude() {
        let d = db();
        let p = Program::new();
        let s = Session::new(&d, &p);
        assert_eq!(s.query("member(X, [1, 2, 3])").unwrap().len(), 3);
        let rows = s.query("append([1, 2], [3], L)").unwrap();
        assert_eq!(rows[0][0].1.to_string(), "[1, 2, 3]");
        let rows = s.query("append(X, Y, [1, 2])").unwrap();
        assert_eq!(rows.len(), 3, "all splits of a 2-list");
        assert!(s.prove("last([1, 2, 3], 3)").unwrap());
    }

    #[test]
    fn arithmetic_and_comparison() {
        let d = db();
        let p = Program::new();
        let s = Session::new(&d, &p);
        let rows = s.query("X is 2 + 3 * 4, X > 10, Y is X mod 5").unwrap();
        assert_eq!(rows[0][0].1, Term::Int(14));
        assert_eq!(rows[0][1].1, Term::Int(4));
        assert!(s.query("X is 1 / 0").is_err());
        assert!(!s.prove("1 > 2").unwrap());
        assert!(s.prove("1.5 < 2").unwrap());
    }

    #[test]
    fn negation_as_failure() {
        let d = db();
        let mut p = Program::new();
        p.load("p(1). p(2). q(2).").unwrap();
        let s = Session::new(&d, &p);
        let rows = s.query("p(X), \\+ q(X)").unwrap();
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0][0].1, Term::Int(1));
    }

    #[test]
    fn disjunction() {
        let d = db();
        let mut p = Program::new();
        p.load("p(1). q(2).").unwrap();
        let s = Session::new(&d, &p);
        let rows = s.query("(p(X) ; q(X))").unwrap();
        assert_eq!(rows.len(), 2);
    }

    #[test]
    fn db_state_and_class_predicates() {
        let d = db();
        let (a, _b) = seed(&d);
        let p = Program::new();
        let s = Session::new(&d, &p);
        let rows = s.query("state(M, waiting_for_sequencing)").unwrap();
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0][0].1, Term::Oid(a.oid()));
        assert_eq!(s.query("clone(M)").unwrap().len(), 2, "clone + tclone");
        assert_eq!(s.query("tclone(M)").unwrap().len(), 1);
        assert_eq!(s.query("material(M)").unwrap().len(), 2);
        let rows = s.query("tclone(M), state(M, S)").unwrap();
        assert_eq!(rows[0][1].1, Term::Atom("done".into()));
    }

    #[test]
    fn recent_and_history_predicates() {
        let d = db();
        seed(&d);
        let p = Program::new();
        let s = Session::new(&d, &p);
        let rows = s.query("material_name(M, \"clone-a\"), recent(M, quality, Q)").unwrap();
        assert_eq!(rows[0][1].1, Term::Real(0.95));
        let rows = s
            .query("material_name(M, \"clone-a\"), history_event(M, S, T), attr(S, sequence, V)")
            .unwrap();
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0][3].1, Term::Str("ACGT".into()));
        let rows = s.query("material_name(M, \"clone-a\"), involves(S, M)").unwrap();
        assert_eq!(rows.len(), 1);
        // recent_at: as-of query.
        let rows =
            s.query("material_name(M, \"clone-a\"), recent_at(M, quality, 15, V)").unwrap();
        assert_eq!(rows[0][1].1, Term::Real(0.95));
        let rows = s.query("material_name(M, \"clone-a\"), recent_at(M, quality, 5, V)").unwrap();
        assert!(rows.is_empty(), "no value before valid time 10");
    }

    #[test]
    fn setof_and_count() {
        let d = db();
        seed(&d);
        let mut p = Program::new();
        p.load("quality_of(M, Q) :- clone(M), recent(M, quality, Q).").unwrap();
        let s = Session::new(&d, &p);
        let rows = s.query("setof(Q, quality_of(_, Q), Set)").unwrap();
        // Q is the template variable (stays unbound); Set carries the answer.
        let set = rows[0].iter().find(|(n, _)| n == "Set").unwrap();
        assert_eq!(set.1.to_string(), "[0.5, 0.95]");
        let rows = s.query("count(quality_of(_, _), N)").unwrap();
        let n = rows[0].iter().find(|(v, _)| v == "N").unwrap();
        assert_eq!(n.1, Term::Int(2));
        let rows = s.query("findall(Q, quality_of(_, Q), L), length(L, N)").unwrap();
        let n = rows[0].iter().find(|(v, _)| v == "N").unwrap();
        assert_eq!(n.1, Term::Int(2));
    }

    #[test]
    fn paper_transition_rule_moves_material() {
        let d = db();
        let (a, _) = seed(&d);
        let program = stdlib::labflow_program();
        let txn = d.begin().unwrap();
        let s = Session::with_txn(&d, &program, txn);
        s.set_now(30);
        let rows = s.query("move(M)").unwrap();
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0][0].1, Term::Oid(a.oid()));
        d.commit(txn).unwrap();
        assert_eq!(d.state_of(a).unwrap().as_deref(), Some("waiting_for_incorporation"));
        let txn = d.begin().unwrap();
        let s = Session::with_txn(&d, &program, txn);
        assert_eq!(s.query("move(M)").unwrap().len(), 0);
        d.commit(txn).unwrap();
    }

    #[test]
    fn updates_require_txn() {
        let d = db();
        seed(&d);
        let p = Program::new();
        let s = Session::new(&d, &p);
        assert!(matches!(
            s.query("create_material(clone, \"x\", 0, M)"),
            Err(LqlError::NoTransaction)
        ));
        assert!(matches!(
            s.query("material(M), assert(state(M, s))"),
            Err(LqlError::NoTransaction)
        ));
    }

    #[test]
    fn create_and_record_via_lql() {
        let d = db();
        let p = Program::new();
        let txn = d.begin().unwrap();
        let s = Session::with_txn(&d, &p, txn);
        let rows = s
            .query(
                r#"create_material(clone, "c9", 5, M),
                   record_step(determine_sequence, 6, [M],
                               [sequence = "ACGTAA", quality = 0.7], S),
                   recent(M, quality, Q)"#,
            )
            .unwrap();
        assert_eq!(rows.len(), 1);
        let q = rows[0].iter().find(|(n, _)| n == "Q").unwrap();
        assert_eq!(q.1, Term::Real(0.7));
        d.commit(txn).unwrap();
        assert_eq!(d.count_class("clone", false).unwrap(), 1);
    }

    #[test]
    fn sets_via_lql() {
        let d = db();
        seed(&d);
        let p = Program::new();
        let txn = d.begin().unwrap();
        let s = Session::with_txn(&d, &p, txn);
        s.query("create_set(hits)").unwrap();
        s.query("clone(M), assert(in_set(hits, M))").unwrap();
        d.commit(txn).unwrap();
        assert_eq!(d.set_members("hits").unwrap().len(), 2);
        let s = Session::new(&d, &p);
        assert_eq!(s.query("in_set(hits, M)").unwrap().len(), 2);
        // retract one.
        let txn = d.begin().unwrap();
        let s = Session::with_txn(&d, &p, txn);
        assert_eq!(s.query("in_set(hits, M), retract(in_set(hits, M))").unwrap().len(), 2);
        d.commit(txn).unwrap();
        assert!(d.set_members("hits").unwrap().is_empty());
    }

    #[test]
    fn stdlib_views_work_end_to_end() {
        let d = db();
        seed(&d);
        let program = stdlib::labflow_program();
        let s = Session::new(&d, &program);
        let rows = s.query("good_quality(M, Q)").unwrap();
        assert_eq!(rows.len(), 1);
        let rows = s.query("count_in_state(clone, done, N)").unwrap();
        assert_eq!(rows[0][0].1, Term::Int(1), "N is the only variable");
        let rows = s.query("material_name(M, \"clone-a\"), history_size(M, N)").unwrap();
        assert_eq!(rows[0][1].1, Term::Int(1));
        let rows = s.query("material_name(M, \"tclone-b\"), sequences_of(M, Set)").unwrap();
        assert_eq!(rows[0][1].1.to_string(), "[\"GGCC\"]");
    }

    #[test]
    fn unknown_predicate_is_an_error() {
        let d = db();
        let p = Program::new();
        let s = Session::new(&d, &p);
        assert!(matches!(s.query("no_such_thing(X)"), Err(LqlError::Eval(_))));
    }

    #[test]
    fn query_limit_stops_early() {
        let d = db();
        seed(&d);
        let p = Program::new();
        let s = Session::new(&d, &p);
        assert_eq!(s.query_limit("clone(M)", 1).unwrap().len(), 1);
        assert_eq!(s.query_limit("clone(M)", 0).unwrap().len(), 0);
    }

    #[test]
    fn depth_limit_guards_runaway_recursion() {
        let d = db();
        let mut p = Program::empty();
        p.load("loop(X) :- loop(X).").unwrap();
        let s = Session::new(&d, &p);
        assert!(matches!(s.query("loop(1)"), Err(LqlError::DepthLimit(_))));
    }

    #[test]
    fn once_commits_to_first_solution() {
        let d = db();
        let mut p = Program::new();
        p.load("p(1). p(2). p(3).").unwrap();
        let s = Session::new(&d, &p);
        let rows = s.query("once(p(X))").unwrap();
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0][0].1, Term::Int(1));
    }
}

#[cfg(test)]
mod builtin_tests {
    use super::*;
    use labbase::{AttrType, LabBase, Value};
    use labflow_storage::{MemStore, StorageManager};
    use std::sync::Arc;

    fn session_db() -> LabBase {
        let store: Arc<dyn StorageManager> = Arc::new(MemStore::ostore_mm());
        LabBase::create(store).unwrap()
    }

    #[test]
    fn aggregates_sum_min_max() {
        let d = session_db();
        let mut p = Program::new();
        p.load("score(a, 3). score(b, 10). score(c, 5).").unwrap();
        let s = Session::new(&d, &p);
        let rows = s.query("sum(V, score(_, V), Total)").unwrap();
        let total = rows[0].iter().find(|(v, _)| v == "Total").unwrap();
        assert_eq!(total.1, Term::Int(18));
        let rows = s.query("min_of(V, score(_, V), M), max_of(V, score(_, V), X)").unwrap();
        let m = rows[0].iter().find(|(v, _)| v == "M").unwrap();
        let x = rows[0].iter().find(|(v, _)| v == "X").unwrap();
        assert_eq!(m.1, Term::Int(3));
        assert_eq!(x.1, Term::Int(10));
        // Sum over nothing is 0; min over nothing fails.
        let rows = s.query("sum(V, score(z, V), T)").unwrap();
        assert_eq!(rows[0].iter().find(|(v, _)| v == "T").unwrap().1, Term::Int(0));
        assert!(s.query("min_of(V, score(z, V), _)").unwrap().is_empty());
    }

    #[test]
    fn between_generates_and_checks() {
        let d = session_db();
        let p = Program::new();
        let s = Session::new(&d, &p);
        let rows = s.query("between(2, 5, X)").unwrap();
        let got: Vec<Term> = rows.into_iter().map(|mut r| r.remove(0).1).collect();
        assert_eq!(got, vec![Term::Int(2), Term::Int(3), Term::Int(4), Term::Int(5)]);
        assert!(s.prove("between(1, 10, 7)").unwrap());
        assert!(!s.prove("between(1, 10, 11)").unwrap());
        assert!(s.query("between(5, 1, X)").unwrap().is_empty(), "empty range");
    }

    #[test]
    fn nth0_both_modes() {
        let d = session_db();
        let p = Program::new();
        let s = Session::new(&d, &p);
        let rows = s.query("nth0(1, [a, b, c], X)").unwrap();
        assert_eq!(rows[0].iter().find(|(v, _)| v == "X").unwrap().1, Term::Atom("b".into()));
        let rows = s.query("nth0(N, [a, b, c], b)").unwrap();
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0][0].1, Term::Int(1));
        assert_eq!(s.query("nth0(N, [a, b, a], a)").unwrap().len(), 2);
    }

    #[test]
    fn sort_and_msort() {
        let d = session_db();
        let p = Program::new();
        let s = Session::new(&d, &p);
        let rows = s.query("msort([3, 1, 2, 1], L)").unwrap();
        assert_eq!(rows[0][0].1.to_string(), "[1, 1, 2, 3]");
        let rows = s.query("sort([3, 1, 2, 1], L)").unwrap();
        assert_eq!(rows[0][0].1.to_string(), "[1, 2, 3]");
    }

    #[test]
    fn reverse_and_forall_prelude() {
        let d = session_db();
        let mut p = Program::new();
        p.load("even(2). even(4). num(2). num(4). num(5).").unwrap();
        let s = Session::new(&d, &p);
        let rows = s.query("reverse([1, 2, 3], R)").unwrap();
        assert_eq!(rows[0][0].1.to_string(), "[3, 2, 1]");
        assert!(s.prove("forall(even(X), num(X))").unwrap());
        assert!(!s.prove("forall(num(X), even(X))").unwrap(), "5 is not even");
    }

    #[test]
    fn aggregate_over_db_predicates() {
        // sum the history sizes of all materials via the db predicates.
        let d = session_db();
        let t = d.begin().unwrap();
        d.define_material_class(t, "clone", None).unwrap();
        d.define_step_class(t, "s", labbase::schema::attrs(&[("v", AttrType::Int)]))
            .unwrap();
        let a = d.create_material(t, "clone", "a", 0).unwrap();
        let b = d.create_material(t, "clone", "b", 0).unwrap();
        d.record_step(t, "s", 1, &[a], vec![("v".into(), Value::Int(10))]).unwrap();
        d.record_step(t, "s", 2, &[a], vec![("v".into(), Value::Int(20))]).unwrap();
        d.record_step(t, "s", 3, &[b], vec![("v".into(), Value::Int(5))]).unwrap();
        d.commit(t).unwrap();
        let mut p = Program::new();
        p.load("val(M, V) :- clone(M), recent(M, v, V).").unwrap();
        let s = Session::new(&d, &p);
        let rows = s.query("sum(V, val(_, V), T)").unwrap();
        assert_eq!(rows[0].iter().find(|(v, _)| v == "T").unwrap().1, Term::Int(25));
        let rows = s.query("max_of(V, val(_, V), X)").unwrap();
        assert_eq!(rows[0].iter().find(|(v, _)| v == "X").unwrap().1, Term::Int(20));
    }
}

#[cfg(test)]
mod range_tests {
    use super::*;
    use labbase::{schema::attrs, AttrType, LabBase, Value};
    use labflow_storage::{MemStore, StorageManager};
    use std::sync::Arc;

    #[test]
    fn history_between_predicate() {
        let store: Arc<dyn StorageManager> = Arc::new(MemStore::ostore_mm());
        let d = LabBase::create(store).unwrap();
        let t = d.begin().unwrap();
        d.define_material_class(t, "clone", None).unwrap();
        d.define_step_class(t, "s", attrs(&[("v", AttrType::Int)])).unwrap();
        let m = d.create_material(t, "clone", "m", 0).unwrap();
        for vt in [10i64, 20, 30] {
            d.record_step(t, "s", vt, &[m], vec![("v".into(), Value::Int(vt))]).unwrap();
        }
        d.commit(t).unwrap();
        let p = Program::new();
        let sess = Session::new(&d, &p);
        let rows = sess
            .query("material_name(M, \"m\"), history_between(M, 15, 30, S, T)")
            .unwrap();
        let times: Vec<&Term> =
            rows.iter().map(|r| &r.iter().find(|(v, _)| v == "T").unwrap().1).collect();
        assert_eq!(times, vec![&Term::Int(30), &Term::Int(20)]);
        // Count events in a window via the aggregate.
        let rows = sess
            .query("material_name(M, \"m\"), count(history_between(M, 0, 100, _, _), N)")
            .unwrap();
        assert_eq!(rows[0].iter().find(|(v, _)| v == "N").unwrap().1, Term::Int(3));
    }
}
