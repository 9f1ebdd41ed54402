//! Allow-marker audit.
//!
//! `// analyzer: allow(kind, "reason")` markers are the analyzer's
//! escape hatch, so they get their own pass:
//!
//! * **malformed**: a marker missing its closing paren, naming no
//!   kind, or carrying no quoted justification. These silently fail to
//!   waive anything (`lexer::allowed` ignores them), which surfaces as
//!   a confusing downstream finding — flag the marker itself instead.
//! * **unknown kind**: not one of the kinds a pass actually consults.
//!   Usually a typo (`allow(panics, ..)`), which also silently waives
//!   nothing.
//! * **stale**: a well-formed marker with no waivable construct on its
//!   own line or the next — the code it excused was refactored away
//!   and the marker (plus its justification) now misleads readers.
//!   Detection is token-based per kind (a `panic` marker wants an
//!   `unwrap` or the like nearby, an `ordering` marker a `Relaxed`, ..); a
//!   marker whose two lines carry no tokens at all (e.g. inside a
//!   stripped `#[cfg(test)]` region) is skipped, not flagged.
//!
//! The pass also prints a per-crate marker census to stderr, so a
//! review can see at a glance where the waivers concentrate.

use std::collections::HashMap;

use crate::ranks;
use crate::{Finding, SourceFile};

/// Every kind some pass actually consults via `lexer::allowed`.
const KNOWN_KINDS: &[&str] = &["panic", "index", "blocking", "lock_order", "ordering"];

/// Idents whose presence near a marker of the given kind shows the
/// marker still waives something.
fn triggers(kind: &str) -> &'static [&'static str] {
    match kind {
        "panic" => &["unwrap", "expect", "panic", "unreachable", "todo", "unimplemented"],
        "ordering" => &["Relaxed"],
        "blocking" => ranks::BLOCKING_FNS,
        // Acquisition shapes are varied (helpers, receivers, tokens);
        // accept any lock-ish call.
        "lock_order" => &["ranked", "acquire", "lock", "read", "write"],
        _ => &[],
    }
}

pub fn analyze(files: &[SourceFile]) -> Vec<Finding> {
    let mut findings = Vec::new();
    // crate -> kind -> count, for the census.
    let mut census: HashMap<&str, HashMap<String, u32>> = HashMap::new();

    for file in files {
        let mut lines: Vec<&u32> = file.comments.keys().collect();
        lines.sort();
        for &line in lines {
            let text = &file.comments[&line];
            let Some(pos) = text.find("analyzer: allow(") else { continue };
            let rest = &text[pos + "analyzer: allow(".len()..];
            let Some(end) = rest.find(')') else {
                findings.push(malformed(file, line, "the marker never closes its paren"));
                continue;
            };
            let args = &rest[..end];
            let mut parts = args.splitn(2, ',');
            let kind = parts.next().map(str::trim).unwrap_or_default();
            let reason = parts.next();
            if kind.is_empty() {
                findings.push(malformed(file, line, "the marker names no kind"));
                continue;
            }
            if !reason.is_some_and(|r| r.contains('"')) {
                findings.push(malformed(
                    file,
                    line,
                    "a quoted justification is mandatory — a bare kind waives nothing",
                ));
                continue;
            }
            if !KNOWN_KINDS.contains(&kind) {
                findings.push(Finding {
                    file: file.rel.clone(),
                    line,
                    pass: "allow-audit",
                    msg: format!(
                        "unknown allow kind `{kind}` — no pass consults it, so the \
                         marker waives nothing (known: {})",
                        KNOWN_KINDS.join(", ")
                    ),
                });
                continue;
            }
            *census
                .entry(file.crate_dir.as_str())
                .or_default()
                .entry(kind.to_string())
                .or_default() += 1;
            // Staleness: the marker waives `line` and `line + 1`.
            let near: Vec<&crate::lexer::Token> = file
                .tokens
                .iter()
                .filter(|t| t.line == line || t.line == line + 1)
                .collect();
            if near.is_empty() {
                continue; // stripped test region or detached comment block
            }
            let live = near
                .iter()
                .any(|t| t.ident().is_some_and(|s| triggers(kind).contains(&s)))
                // `index` waives slice indexing: any bracket will do.
                || (kind == "index" && near.iter().any(|t| t.is_punct('[')));
            if !live {
                findings.push(Finding {
                    file: file.rel.clone(),
                    line,
                    pass: "allow-audit",
                    msg: format!(
                        "stale `allow({kind})` — no matching construct on this line \
                         or the next; the waived code was refactored away, delete \
                         the marker"
                    ),
                });
            }
        }
    }

    if !census.is_empty() {
        let mut crates: Vec<&&str> = census.keys().collect();
        crates.sort();
        for krate in crates {
            let per = &census[*krate];
            let mut kinds: Vec<&String> = per.keys().collect();
            kinds.sort();
            let detail: Vec<String> =
                kinds.iter().map(|k| format!("{k} {}", per[*k])).collect();
            let total: u32 = per.values().sum();
            eprintln!(
                "analyze: note: crate `{krate}` carries {total} allow marker{}: {}",
                if total == 1 { "" } else { "s" },
                detail.join(", ")
            );
        }
    }
    findings
}

fn malformed(file: &SourceFile, line: u32, why: &str) -> Finding {
    Finding {
        file: file.rel.clone(),
        line,
        pass: "allow-audit",
        msg: format!("malformed allow marker — {why}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer;

    fn file(src: &str) -> SourceFile {
        let lexed = lexer::lex(src);
        SourceFile {
            rel: "test.rs".to_string(),
            crate_dir: "fixtures".to_string(),
            tokens: lexer::strip_test_regions(lexed.tokens),
            comments: lexed.comments,
        }
    }

    #[test]
    fn well_formed_live_markers_are_clean() {
        let f = file(
            "// analyzer: allow(panic, \"checked above\")\n\
             let x = v.unwrap();\n\
             // analyzer: allow(ordering, \"a counter\") — trailing prose\n\
             n.fetch_add(1, Relaxed);\n",
        );
        assert!(analyze(&[f]).is_empty());
    }

    #[test]
    fn missing_reason_and_unknown_kind_are_flagged() {
        let f = file(
            "// analyzer: allow(panic)\n\
             let x = v.unwrap();\n\
             // analyzer: allow(panics, \"typo in the kind\")\n\
             let y = w.unwrap();\n",
        );
        let findings = analyze(&[f]);
        assert_eq!(findings.len(), 2);
        assert!(findings[0].msg.contains("justification is mandatory"));
        assert!(findings[1].msg.contains("unknown allow kind `panics`"));
    }

    #[test]
    fn stale_marker_is_flagged() {
        let f = file(
            "// analyzer: allow(panic, \"this unwrap was deleted long ago\")\n\
             let x = safe_helper();\n",
        );
        let findings = analyze(&[f]);
        assert_eq!(findings.len(), 1);
        assert!(findings[0].msg.contains("stale `allow(panic)`"));
    }

    #[test]
    fn marker_in_stripped_test_region_is_not_stale() {
        let f = file(
            "fn real() {}\n\
             #[cfg(test)]\n\
             mod tests {\n\
             // analyzer: allow(panic, \"tests may panic\")\n\
             fn t() { v.unwrap(); }\n\
             }\n",
        );
        assert!(analyze(&[f]).is_empty());
    }

    #[test]
    fn index_marker_accepts_a_bracket() {
        let f = file(
            "// analyzer: allow(index, \"len checked\")\n\
             let x = v[0];\n",
        );
        assert!(analyze(&[f]).is_empty());
    }
}
