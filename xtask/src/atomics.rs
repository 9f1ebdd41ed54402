//! Atomic-ordering lint.
//!
//! Memory-ordering bugs don't crash in tests — they surface years
//! later on weaker hardware. This pass flags the `Relaxed` shape that
//! is almost never right in this codebase: a `Relaxed` access to an
//! atomic that the same crate elsewhere accesses with
//! Acquire/Release/AcqRel/SeqCst. A deliberately-Relaxed counter is
//! all-Relaxed; one stray Relaxed among stronger accesses usually means
//! a site quietly opted out of the protocol's synchronisation.
//!
//! Surviving sites carry `// analyzer: allow(ordering, "why this
//! Relaxed access is safe")`. The pass is token-level, not type-aware:
//! the *receiver* of `expr.load(..)` is the last identifier before the
//! dot (walking back over `?`, `[..]`, and `(..)` groups), aggregated
//! per crate by name. That is deliberately coarse — same-named fields
//! in one crate merge — but every real mixed-ordering bug this was
//! built against is in reach of exactly this shape
//! (`xtask/fixtures/atomic_orderings.rs` seeds one).

use std::collections::{HashMap, HashSet};

use crate::lexer::allowed;
use crate::{Finding, SourceFile};

/// Methods whose argument list carries an `Ordering`.
const ATOMIC_METHODS: &[&str] = &[
    "load",
    "store",
    "swap",
    "compare_exchange",
    "compare_exchange_weak",
    "fetch_add",
    "fetch_sub",
    "fetch_and",
    "fetch_or",
    "fetch_xor",
    "fetch_max",
    "fetch_min",
    "fetch_update",
];

const ORDERINGS: &[&str] = &["Relaxed", "Acquire", "Release", "AcqRel", "SeqCst"];

/// One `Ordering::X` observed inside an atomic method call.
struct Use {
    file: usize,
    line: u32,
    krate: String,
    receiver: String,
    method: String,
    ordering: &'static str,
}

pub fn analyze(files: &[SourceFile]) -> Vec<Finding> {
    let mut uses: Vec<Use> = Vec::new();
    for (fi, file) in files.iter().enumerate() {
        collect_uses(fi, file, &mut uses);
    }

    // Orderings seen per (crate, receiver), across every file of the crate.
    let mut seen: HashMap<(String, String), HashSet<&'static str>> = HashMap::new();
    for u in &uses {
        seen.entry((u.krate.clone(), u.receiver.clone())).or_default().insert(u.ordering);
    }

    let mut findings = Vec::new();
    for u in &uses {
        if u.ordering != "Relaxed" {
            continue;
        }
        let file = &files[u.file];
        if allowed(&file.comments, u.line, "ordering") {
            continue;
        }
        let key = (u.krate.clone(), u.receiver.clone());
        let stronger: Vec<&str> = ORDERINGS
            .iter()
            .copied()
            .filter(|o| *o != "Relaxed" && seen[&key].contains(o))
            .collect();
        if !stronger.is_empty() {
            findings.push(Finding {
                file: file.rel.clone(),
                line: u.line,
                pass: "atomic-ordering",
                msg: format!(
                    "Relaxed `{}` on `{}`, which this crate also accesses with {} — \
                     one Relaxed access among stronger ones usually opts out of the \
                     protocol's synchronisation; align the orderings or justify with \
                     `// analyzer: allow(ordering, \"..\")`",
                    u.method,
                    u.receiver,
                    stronger.join("/")
                ),
            });
        }
    }
    findings
}

/// Record every `Ordering::X` inside the argument list of an atomic
/// method call, attributed to the call's receiver.
fn collect_uses(fi: usize, file: &SourceFile, out: &mut Vec<Use>) {
    let toks = &file.tokens;
    for i in 1..toks.len() {
        let Some(method) = toks[i].ident() else { continue };
        if !ATOMIC_METHODS.contains(&method)
            || !toks[i - 1].is_punct('.')
            || !toks.get(i + 1).is_some_and(|t| t.is_punct('('))
        {
            continue;
        }
        let Some(receiver) = receiver_of(toks, i - 2) else { continue };
        // Walk the balanced argument list for `Ordering :: X`.
        let mut depth = 1u32;
        let mut k = i + 2;
        while k < toks.len() && depth > 0 {
            let t = &toks[k];
            if ['(', '[', '{'].iter().any(|c| t.is_punct(*c)) {
                depth += 1;
            } else if [')', ']', '}'].iter().any(|c| t.is_punct(*c)) {
                depth -= 1;
            } else if t.is_ident("Ordering") {
                let mut j = k + 1;
                while toks.get(j).is_some_and(|t| t.is_punct(':')) {
                    j += 1;
                }
                if let Some(ord) = toks
                    .get(j)
                    .and_then(|t| t.ident())
                    .and_then(|o| ORDERINGS.iter().find(|c| **c == o))
                {
                    out.push(Use {
                        file: fi,
                        line: toks[j].line,
                        krate: file.crate_dir.clone(),
                        receiver: receiver.clone(),
                        method: method.to_string(),
                        ordering: ord,
                    });
                    k = j;
                }
            }
            k += 1;
        }
    }
}

/// The last identifier before the method's dot, walking back over `?`
/// and balanced `(..)` / `[..]` groups, so `table.slots[i].swap(..)`
/// attributes to `slots` and `self.epoch.load(..)` to `epoch`.
/// Chains through accessors stop at the nearest call (`..get(i)?.load`
/// attributes to `get`) — coarse, but stable and crate-local.
fn receiver_of(toks: &[crate::lexer::Token], mut j: usize) -> Option<String> {
    loop {
        let t = toks.get(j)?;
        if t.is_punct('?') {
            j = j.checked_sub(1)?;
        } else if t.is_punct(')') || t.is_punct(']') {
            let mut depth = 1u32;
            while depth > 0 {
                j = j.checked_sub(1)?;
                let t = toks.get(j)?;
                if t.is_punct(')') || t.is_punct(']') {
                    depth += 1;
                } else if t.is_punct('(') || t.is_punct('[') {
                    depth -= 1;
                }
            }
            j = j.checked_sub(1)?;
        } else {
            return t.ident().filter(|s| !crate::locks::is_keyword(s)).map(str::to_string);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer;

    fn file(src: &str, krate: &str) -> SourceFile {
        let lexed = lexer::lex(src);
        SourceFile {
            rel: format!("{krate}/test.rs"),
            crate_dir: krate.to_string(),
            tokens: lexer::strip_test_regions(lexed.tokens),
            comments: lexed.comments,
        }
    }

    #[test]
    fn mixed_orderings_flag_the_relaxed_site_only() {
        let f = file(
            "fn f(a: &AtomicU64) {\n\
             a.store(1, Ordering::Release);\n\
             let x = a.load(Ordering::Relaxed);\n\
             }\n",
            "k",
        );
        let findings = analyze(&[f]);
        assert_eq!(findings.len(), 1);
        assert_eq!(findings[0].line, 3);
        assert!(findings[0].msg.contains("Release"));
    }

    #[test]
    fn all_relaxed_counter_is_clean() {
        let f = file(
            "fn f(c: &AtomicU64) {\n\
             c.fetch_add(1, Ordering::Relaxed);\n\
             let x = c.load(Ordering::Relaxed);\n\
             }\n",
            "k",
        );
        assert!(analyze(&[f]).is_empty());
    }

    #[test]
    fn allow_marker_waives_a_site() {
        let f = file(
            "fn f(a: &AtomicU64) {\n\
             a.store(1, Ordering::SeqCst);\n\
             // analyzer: allow(ordering, \"own-slot read; racing writers re-check\")\n\
             let x = a.load(Ordering::Relaxed);\n\
             }\n",
            "k",
        );
        assert!(analyze(&[f]).is_empty());
    }

    #[test]
    fn aggregation_spans_files_within_a_crate_but_not_across_crates() {
        let f1 = file("fn f(a: &AtomicU64) { a.store(1, Ordering::Release); }\n", "k1");
        let f2 = file("fn g(a: &AtomicU64) { a.load(Ordering::Relaxed); }\n", "k1");
        let f3 = file("fn h(a: &AtomicU64) { a.load(Ordering::Relaxed); }\n", "k2");
        let findings = analyze(&[f1, f2, f3]);
        assert_eq!(findings.len(), 1, "k1's mix fires; k2's all-Relaxed `a` does not");
        assert_eq!(findings[0].file, "k1/test.rs");
    }

    #[test]
    fn receiver_walks_back_over_index_and_call_groups() {
        let f = file(
            "fn f(t: &T) {\n\
             t.slots[i].swap(p, Ordering::SeqCst);\n\
             t.slots[j].load(Ordering::Relaxed);\n\
             }\n",
            "k",
        );
        let findings = analyze(&[f]);
        assert_eq!(findings.len(), 1, "slots mixes SeqCst and Relaxed through `[..]`");
        assert!(findings[0].msg.contains("`slots`"));
    }

    #[test]
    fn ordering_outside_a_call_is_not_a_use() {
        let f = file(
            "const DEFAULT: Ordering = Ordering::Relaxed;\n\
             fn f(a: &AtomicU64) { a.load(Ordering::SeqCst); }\n",
            "k",
        );
        assert!(analyze(&[f]).is_empty());
    }

    #[test]
    fn full_path_ordering_is_recognised() {
        let f = file(
            "fn f(a: &AtomicU64) {\n\
             a.store(1, std::sync::atomic::Ordering::Release);\n\
             a.load(std::sync::atomic::Ordering::Relaxed);\n\
             }\n",
            "k",
        );
        assert_eq!(analyze(&[f]).len(), 1);
    }
}
