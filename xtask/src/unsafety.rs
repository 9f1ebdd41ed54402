//! Unsafe-code pass.
//!
//! No crate in the workspace uses `unsafe`, and none may: every
//! `unsafe` keyword token in the test-stripped stream (so
//! `unsafe impl Send`, `unsafe fn`, and `unsafe { .. }` are one site
//! each, while `unsafe_op_in_unsafe_fn` in a lint attribute is none) is
//! a finding unless it carries an
//! `// analyzer: allow(unsafe, "safety argument")` marker on its own
//! line or the one above.

use crate::lexer::allowed;
use crate::{Finding, SourceFile};

/// Scan one file: one finding per unwaived `unsafe` site.
pub fn scan(file: &SourceFile) -> Vec<Finding> {
    file.tokens
        .iter()
        .filter(|t| t.ident() == Some("unsafe") && !allowed(&file.comments, t.line, "unsafe"))
        .map(|t| Finding {
            file: file.rel.clone(),
            line: t.line,
            pass: "unsafe-budget",
            msg: "`unsafe` site, and the unsafe budget is zero — use a safe API, or \
                  waive this site with `// analyzer: allow(unsafe, \"safety argument\")`"
                .to_string(),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer;
    use crate::SourceFile;

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
    fn every_unsafe_form_counts_once() {
        let f = file(
            "unsafe impl Send for X {}\n\
             unsafe fn f() {}\n\
             fn g() { unsafe { f() } }\n",
        );
        assert_eq!(scan(&f).len(), 3);
    }

    #[test]
    fn allow_marker_waives_and_uncounts() {
        let f = file(
            "// analyzer: allow(unsafe, \"ffi contract upheld by caller\")\n\
             fn g() { unsafe { f() } }\n\
             fn h() { unsafe { f() } }\n",
        );
        let findings = scan(&f);
        assert_eq!(findings.len(), 1, "only the unmarked site is flagged");
        assert_eq!(findings[0].line, 3);
    }

    #[test]
    fn lint_attribute_and_strings_are_not_sites() {
        let f = file(
            "#![deny(unsafe_op_in_unsafe_fn)]\n\
             fn f() { let s = \"unsafe\"; } // unsafe here too\n",
        );
        assert!(scan(&f).is_empty());
    }

    #[test]
    fn test_regions_are_exempt() {
        let f = file(
            "fn real() { unsafe { f() } }\n\
             #[cfg(test)]\n\
             mod tests {\n\
             fn t() { unsafe { g() } }\n\
             }\n",
        );
        let findings = scan(&f);
        assert_eq!(findings.len(), 1);
        assert_eq!(findings[0].line, 1);
    }
}
