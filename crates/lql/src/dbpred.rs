//! LabBase-backed base predicates and the Section-8 update predicates.
//!
//! Reads (the paper's query families):
//!
//! | predicate | modes | meaning |
//! |---|---|---|
//! | `material(M)` | both | M is a material |
//! | `<mat-class>(M)` | both | M is an instance (incl. subclasses) |
//! | `<step-class>(S)` | check | S is a step instance of the class |
//! | `state(M, S)` | all | workflow state (the paper's `state/2`) |
//! | `recent(M, A, V)` | M bound | most-recent value of attribute A |
//! | `recent_at(M, A, T, V)` | M,A,T bound | value as of valid time T |
//! | `history_event(M, S, T)` | M bound | S at valid time T in M's history |
//! | `history_between(M, F, U, S, T)` | M,F,U bound | history restricted to `[F, U]` |
//! | `attr(S, A, V)` | S bound | step attribute |
//! | `involves(S, M)` | either bound | the `involves` relationship |
//! | `valid_time(S, T)` | S bound | event time |
//! | `class_of(M, C)` | M or C bound | material class |
//! | `material_name(M, N)` | all | external name (enumerates when free) |
//! | `step_class(S, C)` | S bound | step class name |
//! | `in_set(Set, M)` | Set bound | set membership |
//! | `set_name(Set)` | both | existing set names |
//! | `state_count(S, N)` | S bound | materials currently in state S |
//!
//! Updates (require a session transaction; paper Section 8):
//! `assert(state(M,S))`, `retract(state(M,S))`, `assert(in_set(Set,M))`,
//! `retract(in_set(Set,M))`, `create_material(Class, Name, T, M)`,
//! `record_step(Class, T, Materials, Attrs, S)`, `retract_step(S)`,
//! `create_set(Name)`.

use labbase::{MaterialId, StepId, Value};
use labflow_storage::Oid;

use crate::ast::Term;
use crate::error::{LqlError, Result};
use crate::eval::Session;

type Tuples = Vec<Vec<Term>>;

fn text(t: &Term) -> Option<&str> {
    match t {
        Term::Atom(s) | Term::Str(s) => Some(s),
        _ => None,
    }
}

fn oid(t: &Term) -> Option<Oid> {
    match t {
        Term::Oid(o) => Some(*o),
        _ => None,
    }
}

fn int(t: &Term) -> Option<i64> {
    match t {
        Term::Int(i) => Some(*i),
        _ => None,
    }
}

fn ok(tuples: Tuples) -> Result<Option<Tuples>> {
    Ok(Some(tuples))
}

fn succeed(args: &[Term]) -> Result<Option<Tuples>> {
    Ok(Some(vec![args.to_vec()]))
}

fn fail() -> Result<Option<Tuples>> {
    Ok(Some(Vec::new()))
}

/// Try to answer `name/arity` as a database predicate. Returns
/// `Ok(None)` if the functor is not a database predicate at all.
pub(crate) fn try_db(
    session: &Session<'_>,
    name: &str,
    arity: usize,
    args: &[Term],
) -> Result<Option<Tuples>> {
    let db = session.db();
    // Record reads go through the session's pinned view so one query
    // evaluates against one consistent cut; index-backed lookups
    // (`in_state`, `state_count`, `find_material`, set-name listing)
    // stay on the live in-memory indexes.
    let view = session.view()?;
    match (name, arity) {
        ("material", 1) => match oid(&args[0]) {
            Some(o) => {
                if view.material_exists(MaterialId::from(o))
                    && view.material(MaterialId::from(o)).is_ok()
                {
                    succeed(args)
                } else {
                    fail()
                }
            }
            None => {
                let mut tuples = Vec::new();
                let classes: Vec<String> = view.with_catalog(|c| {
                    c.material_classes().iter().map(|mc| mc.name.clone()).collect()
                });
                for class in classes {
                    for m in view.class_extent(&class, false)? {
                        tuples.push(vec![Term::Oid(m.oid())]);
                    }
                }
                ok(tuples)
            }
        },
        ("state", 2) => {
            let m = oid(&args[0]);
            let s = text(&args[1]);
            match (m, s) {
                (Some(m), _) => match view.state_of(MaterialId::from(m))? {
                    Some(state) => ok(vec![vec![Term::Oid(m), Term::Atom(state)]]),
                    None => fail(),
                },
                (None, Some(state)) => {
                    let mats = match session.txn() {
                        Some(t) => db.in_state_in(t, state, usize::MAX)?,
                        None => db.in_state(state, usize::MAX)?,
                    };
                    ok(mats
                        .into_iter()
                        .map(|m| vec![Term::Oid(m.oid()), Term::Atom(state.to_string())])
                        .collect())
                }
                (None, None) => {
                    let census = match session.txn() {
                        Some(t) => db.state_census_in(t)?,
                        None => db.state_census()?,
                    };
                    let mut tuples = Vec::new();
                    for (state, _) in census {
                        let mats = match session.txn() {
                            Some(t) => db.in_state_in(t, &state, usize::MAX)?,
                            None => db.in_state(&state, usize::MAX)?,
                        };
                        for m in mats {
                            tuples.push(vec![Term::Oid(m.oid()), Term::Atom(state.clone())]);
                        }
                    }
                    ok(tuples)
                }
            }
        }
        ("state_count", 2) => {
            let state = text(&args[0]).ok_or_else(|| {
                LqlError::Eval("state_count/2: state must be bound".into())
            })?;
            let n = match session.txn() {
                Some(t) => db.count_in_state_in(t, state)?,
                None => db.count_in_state(state)?,
            } as i64;
            ok(vec![vec![Term::Atom(state.to_string()), Term::Int(n)]])
        }
        ("recent", 3) => {
            let m = oid(&args[0]).ok_or_else(|| {
                LqlError::Eval("recent/3: material must be bound".into())
            })?;
            let mid = MaterialId::from(m);
            match text(&args[1]) {
                Some(attr) => match view.recent(mid, attr)? {
                    Some(r) => ok(vec![vec![
                        Term::Oid(m),
                        Term::Atom(attr.to_string()),
                        Term::from_value(&r.value),
                    ]]),
                    None => fail(),
                },
                None => {
                    let all = view.recent_all(mid)?;
                    ok(all
                        .into_iter()
                        .map(|(attr, r)| {
                            vec![Term::Oid(m), Term::Atom(attr), Term::from_value(&r.value)]
                        })
                        .collect())
                }
            }
        }
        ("recent_at", 4) => {
            let m = oid(&args[0])
                .ok_or_else(|| LqlError::Eval("recent_at/4: material must be bound".into()))?;
            let attr = text(&args[1])
                .ok_or_else(|| LqlError::Eval("recent_at/4: attribute must be bound".into()))?;
            let at = int(&args[2])
                .ok_or_else(|| LqlError::Eval("recent_at/4: time must be bound".into()))?;
            match view.as_of(MaterialId::from(m), attr, at)? {
                Some((_t, v)) => ok(vec![vec![
                    Term::Oid(m),
                    Term::Atom(attr.to_string()),
                    Term::Int(at),
                    Term::from_value(&v),
                ]]),
                None => fail(),
            }
        }
        ("history_between", 5) => {
            let m = oid(&args[0]).ok_or_else(|| {
                LqlError::Eval("history_between/5: material must be bound".into())
            })?;
            let from = int(&args[1])
                .ok_or_else(|| LqlError::Eval("history_between/5: from must be bound".into()))?;
            let to = int(&args[2])
                .ok_or_else(|| LqlError::Eval("history_between/5: to must be bound".into()))?;
            let entries = view.history_between(MaterialId::from(m), from, to)?;
            ok(entries
                .into_iter()
                .map(|e| {
                    vec![
                        Term::Oid(m),
                        Term::Int(from),
                        Term::Int(to),
                        Term::Oid(e.step.oid()),
                        Term::Int(e.valid_time),
                    ]
                })
                .collect())
        }
        ("history_event", 3) => {
            let m = oid(&args[0]).ok_or_else(|| {
                LqlError::Eval("history_event/3: material must be bound".into())
            })?;
            let entries = view.history(MaterialId::from(m))?;
            ok(entries
                .into_iter()
                .map(|e| vec![Term::Oid(m), Term::Oid(e.step.oid()), Term::Int(e.valid_time)])
                .collect())
        }
        ("attr", 3) => {
            let s = oid(&args[0])
                .ok_or_else(|| LqlError::Eval("attr/3: step must be bound".into()))?;
            let info = view.step(StepId::from(s))?;
            let tuples = info
                .attrs
                .iter()
                .filter(|(n, _)| text(&args[1]).is_none_or(|want| want == n))
                .map(|(n, v)| vec![Term::Oid(s), Term::Atom(n.clone()), Term::from_value(v)])
                .collect();
            ok(tuples)
        }
        ("involves", 2) => {
            if let Some(s) = oid(&args[0]) {
                let info = view.step(StepId::from(s))?;
                return ok(info
                    .materials
                    .into_iter()
                    .map(|m| vec![Term::Oid(s), Term::Oid(m.oid())])
                    .collect());
            }
            if let Some(m) = oid(&args[1]) {
                let entries = view.history(MaterialId::from(m))?;
                return ok(entries
                    .into_iter()
                    .map(|e| vec![Term::Oid(e.step.oid()), Term::Oid(m)])
                    .collect());
            }
            Err(LqlError::Eval("involves/2: step or material must be bound".into()))
        }
        ("valid_time", 2) => {
            let s = oid(&args[0])
                .ok_or_else(|| LqlError::Eval("valid_time/2: step must be bound".into()))?;
            let info = view.step(StepId::from(s))?;
            ok(vec![vec![Term::Oid(s), Term::Int(info.valid_time)]])
        }
        ("class_of", 2) => {
            if let Some(m) = oid(&args[0]) {
                let info = view.material(MaterialId::from(m))?;
                return ok(vec![vec![Term::Oid(m), Term::Atom(info.class)]]);
            }
            if let Some(class) = text(&args[1]) {
                let mats = view.class_extent(class, true)?;
                return ok(mats
                    .into_iter()
                    .map(|m| vec![Term::Oid(m.oid()), Term::Atom(class.to_string())])
                    .collect());
            }
            Err(LqlError::Eval("class_of/2: material or class must be bound".into()))
        }
        ("material_name", 2) => {
            if let Some(m) = oid(&args[0]) {
                let info = view.material(MaterialId::from(m))?;
                return ok(vec![vec![Term::Oid(m), Term::Str(info.name)]]);
            }
            if let Some(n) = text(&args[1]) {
                return match db.find_material(n)? {
                    Some(m) => ok(vec![vec![Term::Oid(m.oid()), Term::Str(n.to_string())]]),
                    None => fail(),
                };
            }
            // Both free: enumerate every material with its name.
            let mut tuples = Vec::new();
            let classes: Vec<String> = view.with_catalog(|c| {
                c.material_classes().iter().map(|mc| mc.name.clone()).collect()
            });
            for class in classes {
                for m in view.class_extent(&class, false)? {
                    let info = view.material(m)?;
                    tuples.push(vec![Term::Oid(m.oid()), Term::Str(info.name)]);
                }
            }
            ok(tuples)
        }
        ("step_class", 2) => {
            let s = oid(&args[0])
                .ok_or_else(|| LqlError::Eval("step_class/2: step must be bound".into()))?;
            let info = view.step(StepId::from(s))?;
            ok(vec![vec![Term::Oid(s), Term::Atom(info.class)]])
        }
        ("in_set", 2) => {
            let set = text(&args[0])
                .ok_or_else(|| LqlError::Eval("in_set/2: set name must be bound".into()))?;
            match view.set_members(set) {
                Ok(members) => {
                    let tuples = members
                        .into_iter()
                        .filter(|m| oid(&args[1]).is_none_or(|want| want == m.oid()))
                        .map(|m| vec![Term::Atom(set.to_string()), Term::Oid(m.oid())])
                        .collect();
                    ok(tuples)
                }
                Err(labbase::LabError::UnknownSet(_)) => fail(),
                Err(e) => Err(e.into()),
            }
        }
        ("set_name", 1) => {
            let names = view.set_names();
            ok(names.into_iter().map(|n| vec![Term::Atom(n)]).collect())
        }

        // ---- updates (paper Section 8) ---------------------------------
        ("assert", 1) => apply_assert(session, &args[0], true),
        ("retract", 1) => apply_assert(session, &args[0], false),
        ("create_material", 4) => {
            let txn = session.require_txn()?;
            let class = text(&args[0]).ok_or_else(|| {
                LqlError::Eval("create_material/4: class must be bound".into())
            })?;
            let mname = text(&args[1]).ok_or_else(|| {
                LqlError::Eval("create_material/4: name must be bound".into())
            })?;
            let t = int(&args[2])
                .ok_or_else(|| LqlError::Eval("create_material/4: time must be bound".into()))?;
            let m = db.create_material(txn, class, mname, t)?;
            ok(vec![vec![
                Term::Atom(class.to_string()),
                Term::Str(mname.to_string()),
                Term::Int(t),
                Term::Oid(m.oid()),
            ]])
        }
        ("record_step", 5) => {
            let txn = session.require_txn()?;
            let class = text(&args[0])
                .ok_or_else(|| LqlError::Eval("record_step/5: class must be bound".into()))?;
            let t = int(&args[1])
                .ok_or_else(|| LqlError::Eval("record_step/5: time must be bound".into()))?;
            let mats = list_of_materials(&args[2])?;
            let attrs = attr_list(&args[3])?;
            let s = db.record_step(txn, class, t, &mats, attrs)?;
            let mut tuple = args.to_vec();
            tuple[4] = Term::Oid(s.oid());
            ok(vec![tuple])
        }
        ("retract_step", 1) => {
            let txn = session.require_txn()?;
            let s = oid(&args[0])
                .ok_or_else(|| LqlError::Eval("retract_step/1: step must be bound".into()))?;
            db.retract_step(txn, StepId::from(s))?;
            succeed(args)
        }
        ("create_set", 1) => {
            let txn = session.require_txn()?;
            let set = text(&args[0])
                .ok_or_else(|| LqlError::Eval("create_set/1: name must be bound".into()))?;
            db.create_set(txn, set)?;
            succeed(args)
        }

        // Material / step class predicates by name.
        (class_name, 1) => {
            enum Kind {
                Material,
                Step,
            }
            let kind = view.with_catalog(|c| {
                if c.material_class(class_name).is_ok() {
                    Some(Kind::Material)
                } else if c.step_class(class_name).is_ok() {
                    Some(Kind::Step)
                } else {
                    None
                }
            });
            match kind {
                Some(Kind::Material) => match oid(&args[0]) {
                    Some(o) => {
                        let is = view
                            .material(MaterialId::from(o))
                            .map(|info| {
                                view.with_catalog(|c| {
                                    c.material_class(class_name)
                                        .map(|target| c.is_a(info.class_id, target.id))
                                        .unwrap_or(false)
                                })
                            })
                            .unwrap_or(false);
                        if is {
                            succeed(args)
                        } else {
                            fail()
                        }
                    }
                    None => {
                        let mats = view.class_extent(class_name, true)?;
                        ok(mats.into_iter().map(|m| vec![Term::Oid(m.oid())]).collect())
                    }
                },
                Some(Kind::Step) => match oid(&args[0]) {
                    Some(o) => {
                        let is = view
                            .step(StepId::from(o))
                            .map(|info| info.class == class_name)
                            .unwrap_or(false);
                        if is {
                            succeed(args)
                        } else {
                            fail()
                        }
                    }
                    None => Err(LqlError::Eval(format!(
                        "{class_name}/1: step instances cannot be enumerated; \
                         use history_event/3"
                    ))),
                },
                None => Ok(None),
            }
        }
        _ => Ok(None),
    }
}

fn apply_assert(session: &Session<'_>, fact: &Term, assert: bool) -> Result<Option<Tuples>> {
    let db = session.db();
    let txn = session.require_txn()?;
    let now = session.now();
    match fact {
        Term::Compound(f, fargs) if f == "state" && fargs.len() == 2 => {
            let m = oid(&fargs[0])
                .ok_or_else(|| LqlError::Eval("state/2: material must be bound".into()))?;
            let s = text(&fargs[1])
                .ok_or_else(|| LqlError::Eval("state/2: state must be bound".into()))?;
            let mid = MaterialId::from(m);
            if assert {
                db.set_state(txn, mid, s, now)?;
                succeed(std::slice::from_ref(fact))
            } else {
                // retract(state(M,S)) fails unless M is currently in S —
                // this is how the paper's transition rules guard moves.
                // Read through the transaction so a transition made
                // earlier in the same update rule is observed.
                match db.view_in(txn).state_of(mid)? {
                    Some(cur) if cur == s => {
                        db.clear_state(txn, mid, now)?;
                        succeed(std::slice::from_ref(fact))
                    }
                    _ => fail(),
                }
            }
        }
        Term::Compound(f, fargs) if f == "in_set" && fargs.len() == 2 => {
            let set = text(&fargs[0])
                .ok_or_else(|| LqlError::Eval("in_set/2: set must be bound".into()))?;
            let m = oid(&fargs[1])
                .ok_or_else(|| LqlError::Eval("in_set/2: material must be bound".into()))?;
            if assert {
                db.add_to_set(txn, set, MaterialId::from(m))?;
                succeed(std::slice::from_ref(fact))
            } else if db.remove_from_set(txn, set, MaterialId::from(m))? {
                succeed(std::slice::from_ref(fact))
            } else {
                fail()
            }
        }
        other => Err(LqlError::Eval(format!(
            "assert/retract supports state/2 and in_set/2 facts, got {other}"
        ))),
    }
}

fn list_of_materials(t: &Term) -> Result<Vec<MaterialId>> {
    match t {
        Term::List(items, None) => items
            .iter()
            .map(|i| {
                oid(i)
                    .map(MaterialId::from)
                    .ok_or_else(|| LqlError::Eval(format!("not a material reference: {i}")))
            })
            .collect(),
        other => Err(LqlError::Eval(format!("expected a list of materials, got {other}"))),
    }
}

fn attr_list(t: &Term) -> Result<Vec<(String, Value)>> {
    let items = match t {
        Term::List(items, None) => items,
        other => return Err(LqlError::Eval(format!("expected an attribute list, got {other}"))),
    };
    let mut out = Vec::with_capacity(items.len());
    for item in items {
        match item {
            Term::Compound(f, fargs) if (f == "=" || f == "attr") && fargs.len() == 2 => {
                let name = text(&fargs[0]).ok_or_else(|| {
                    LqlError::Eval(format!("attribute name must be an atom: {}", fargs[0]))
                })?;
                let value = fargs[1].to_value().ok_or_else(|| {
                    LqlError::Eval(format!("attribute value must be ground: {}", fargs[1]))
                })?;
                out.push((name.to_string(), value));
            }
            other => {
                return Err(LqlError::Eval(format!(
                    "attribute entries must be name = value, got {other}"
                )))
            }
        }
    }
    Ok(out)
}
