//! Lock-discipline checker.
//!
//! Builds a static lock-acquisition-order graph and checks it against
//! the declared rank table (`ranks.rs`):
//!
//! 1. **Acquisition sites** are recognised three ways: explicit
//!    `lock_order::ranked(..)` / `lock_order::acquire(..)` calls (the
//!    rank constant names the lock), declared helper/receiver rules from
//!    the rank table, and — unranked, for the blocking rule only — any
//!    zero-argument `.lock()` / `.read()` / `.write()`.
//! 2. **Guard liveness** is approximated per function: a `let`-bound
//!    guard lives to the end of its block or an explicit `drop(name)`;
//!    a temporary lives to the end of its statement. Acquiring a lock
//!    while another is live adds an order edge.
//! 3. **Cross-function nesting** is found by a call-graph fixpoint over
//!    functions whose names are unique in the analysed set: holding a
//!    guard across a call adds edges to everything the callee
//!    (transitively) acquires. Common names (`read`, `new`, ...) are
//!    skipped — conservative, but never wrong about order.
//! 4. Every edge must strictly increase rank, and the observed graph
//!    must be acyclic. Holding any real guard across a blocking call
//!    (condvar wait, sleep, fsync, WAL force) is an error unless the
//!    guard is itself the thing being waited on or synced.

use std::collections::{BTreeSet, HashMap};

use crate::lexer::{allowed, Tok, Token};
use crate::ranks::{self, RuleKind};
use crate::{Finding, SourceFile};

#[derive(Clone)]
struct Guard {
    name: Option<String>,
    rank: Option<u16>,
    /// `lock_order::acquire` rank tokens order-check but are exempt from
    /// the blocking rule (holding one across a wait for the same lock is
    /// exactly the explicit-token pattern).
    is_token: bool,
    depth: i32,
    temp: bool,
    /// Token index of the acquisition, for same-chain exemption.
    tok_idx: usize,
}

struct CallSite {
    callee: String,
    /// Ranks held at the call (named + temporary, including tokens).
    held: Vec<u16>,
    line: u32,
    file_idx: usize,
}

#[derive(Clone, PartialEq, Eq, Hash)]
struct Edge {
    from: u16,
    to: u16,
}

struct FnInfo {
    name: String,
    direct_acquires: BTreeSet<u16>,
    calls: Vec<CallSite>,
}

/// Run the lock pass over every file, returning findings.
pub fn analyze(files: &[SourceFile]) -> Vec<Finding> {
    let rules = ranks::rules();
    let mut findings = Vec::new();
    let mut fns: Vec<FnInfo> = Vec::new();
    // Edges observed directly (same-function nesting), with location.
    let mut edges: Vec<(Edge, usize, u32)> = Vec::new();

    for (fi, file) in files.iter().enumerate() {
        for (name, body) in functions(&file.tokens) {
            let info = scan_body(file, fi, name, body, &rules, &mut edges, &mut findings);
            fns.push(info);
        }
    }

    // Unique-name call resolution: a callee name maps to a function only
    // if exactly one analysed function bears it.
    let mut by_name: HashMap<&str, Vec<usize>> = HashMap::new();
    for (i, f) in fns.iter().enumerate() {
        by_name.entry(f.name.as_str()).or_default().push(i);
    }
    let unique: HashMap<&str, usize> = by_name
        .iter()
        .filter(|(_, v)| v.len() == 1)
        .map(|(k, v)| (*k, v[0]))
        .collect();

    // Fixpoint: transitive acquisition sets.
    let mut trans: Vec<BTreeSet<u16>> = fns.iter().map(|f| f.direct_acquires.clone()).collect();
    loop {
        let mut changed = false;
        for i in 0..fns.len() {
            for call in &fns[i].calls {
                if let Some(&j) = unique.get(call.callee.as_str()) {
                    if i == j {
                        continue;
                    }
                    let add: Vec<u16> =
                        trans[j].iter().filter(|r| !trans[i].contains(r)).copied().collect();
                    if !add.is_empty() {
                        trans[i].extend(add);
                        changed = true;
                    }
                }
            }
        }
        if !changed {
            break;
        }
    }

    // Propagated edges: held rank -> everything the callee transitively
    // acquires.
    for f in &fns {
        for call in &f.calls {
            if let Some(&j) = unique.get(call.callee.as_str()) {
                for &h in &call.held {
                    for &a in &trans[j] {
                        edges.push((Edge { from: h, to: a }, call.file_idx, call.line));
                    }
                }
            }
        }
    }

    // Rank check: every edge must strictly increase.
    let mut seen: BTreeSet<(u16, u16, usize, u32)> = BTreeSet::new();
    for (e, fi, line) in &edges {
        if e.from >= e.to && seen.insert((e.from, e.to, *fi, *line)) {
            let file = &files[*fi];
            if !allowed(&file.comments, *line, "lock_order") {
                findings.push(Finding {
                    file: file.rel.clone(),
                    line: *line,
                    pass: "lock-order",
                    msg: format!(
                        "acquires {} (rank {}) while holding {} (rank {}) — \
                         rank must strictly increase",
                        ranks::name_of_rank(e.to),
                        e.to,
                        ranks::name_of_rank(e.from),
                        e.from
                    ),
                });
            }
        }
    }

    // Cycle check over the whole observed graph (belt and braces: with
    // strictly increasing ranks a cycle is impossible, but suppressed
    // edges still participate here).
    if let Some(cycle) = find_cycle(&edges) {
        let names: Vec<String> =
            cycle.iter().map(|r| format!("{} ({})", ranks::name_of_rank(*r), r)).collect();
        findings.push(Finding {
            file: "(graph)".to_string(),
            line: 0,
            pass: "lock-order",
            msg: format!("acquisition-order cycle: {}", names.join(" -> ")),
        });
    }

    findings
}

/// DFS cycle detection over the rank graph; returns one cycle if found.
fn find_cycle(edges: &[(Edge, usize, u32)]) -> Option<Vec<u16>> {
    let mut adj: HashMap<u16, BTreeSet<u16>> = HashMap::new();
    for (e, _, _) in edges {
        if e.from != e.to {
            adj.entry(e.from).or_default().insert(e.to);
        } else {
            return Some(vec![e.from, e.to]);
        }
    }
    let nodes: Vec<u16> = adj.keys().copied().collect();
    let mut state: HashMap<u16, u8> = HashMap::new(); // 1 = on stack, 2 = done
    let mut stack = Vec::new();
    fn dfs(
        v: u16,
        adj: &HashMap<u16, BTreeSet<u16>>,
        state: &mut HashMap<u16, u8>,
        stack: &mut Vec<u16>,
    ) -> Option<Vec<u16>> {
        state.insert(v, 1);
        stack.push(v);
        if let Some(next) = adj.get(&v) {
            for &w in next {
                match state.get(&w) {
                    Some(1) => {
                        let pos = stack.iter().position(|&x| x == w).unwrap_or(0);
                        let mut cycle = stack[pos..].to_vec();
                        cycle.push(w);
                        return Some(cycle);
                    }
                    Some(_) => {}
                    None => {
                        if let Some(c) = dfs(w, adj, state, stack) {
                            return Some(c);
                        }
                    }
                }
            }
        }
        stack.pop();
        state.insert(v, 2);
        None
    }
    for v in nodes {
        if !state.contains_key(&v) {
            if let Some(c) = dfs(v, &adj, &mut state, &mut stack) {
                return Some(c);
            }
        }
    }
    None
}

/// Extract `(name, body_tokens)` for every `fn` in the stream.
fn functions(tokens: &[Token]) -> Vec<(String, &[Token])> {
    let mut out = Vec::new();
    let mut i = 0usize;
    while i < tokens.len() {
        if tokens[i].is_ident("fn") {
            if let Some(Tok::Ident(name)) = tokens.get(i + 1).map(|t| &t.tok) {
                // Find the body `{` at paren depth 0 (or `;` for a
                // bodyless trait method).
                let mut j = i + 2;
                let mut pd = 0i32;
                let mut body_start = None;
                while j < tokens.len() {
                    match &tokens[j].tok {
                        Tok::Punct('(') => pd += 1,
                        Tok::Punct(')') => pd -= 1,
                        Tok::Punct('{') if pd == 0 => {
                            body_start = Some(j + 1);
                            break;
                        }
                        Tok::Punct(';') if pd == 0 => break,
                        _ => {}
                    }
                    j += 1;
                }
                if let Some(start) = body_start {
                    let mut depth = 1i32;
                    let mut k = start;
                    while k < tokens.len() && depth > 0 {
                        if tokens[k].is_punct('{') {
                            depth += 1;
                        } else if tokens[k].is_punct('}') {
                            depth -= 1;
                        }
                        k += 1;
                    }
                    out.push((name.clone(), &tokens[start..k.saturating_sub(1)]));
                    // Continue scanning *inside* the body so nested fns
                    // (closur-free helper fns) are found too.
                    i = start;
                    continue;
                }
            }
        }
        i += 1;
    }
    out
}

/// Keywords that can precede `(` without being calls, or precede `[`
/// without being indexing.
pub fn is_keyword(s: &str) -> bool {
    matches!(
        s,
        "let" | "in" | "return" | "match" | "if" | "else" | "mut" | "ref" | "move" | "break"
            | "continue" | "unsafe" | "as" | "where" | "impl" | "dyn" | "for" | "while" | "loop"
            | "crate" | "pub" | "use" | "mod" | "enum" | "struct" | "trait" | "type" | "const"
            | "static" | "fn" | "box" | "await" | "yield"
    )
}

/// Walk a function body, tracking guard liveness; record acquisitions,
/// direct nesting edges, call sites, and blocking-call violations.
#[allow(clippy::too_many_arguments)]
fn scan_body(
    file: &SourceFile,
    file_idx: usize,
    name: String,
    body: &[Token],
    rules: &[ranks::LockRule],
    edges: &mut Vec<(Edge, usize, u32)>,
    findings: &mut Vec<Finding>,
) -> FnInfo {
    let mut guards: Vec<Guard> = Vec::new();
    let mut info =
        FnInfo { name, direct_acquires: BTreeSet::new(), calls: Vec::new() };
    let mut depth = 0i32;
    let mut pending_let: Option<String> = None;

    let mut i = 0usize;
    while i < body.len() {
        let t = &body[i];
        match &t.tok {
            Tok::Punct('{') => depth += 1,
            Tok::Punct('}') => {
                depth -= 1;
                guards.retain(|g| g.depth <= depth);
            }
            Tok::Punct(';') => {
                pending_let = None;
                guards.retain(|g| !(g.temp && g.depth >= depth));
            }
            Tok::Ident(id) => {
                if id == "let" {
                    pending_let = binding_name(body, i + 1);
                    i += 1;
                    continue;
                }
                if id == "drop"
                    && body.get(i + 1).is_some_and(|t| t.is_punct('('))
                    && body.get(i + 3).is_some_and(|t| t.is_punct(')'))
                {
                    if let Some(Tok::Ident(victim)) = body.get(i + 2).map(|t| &t.tok) {
                        guards.retain(|g| g.name.as_deref() != Some(victim.as_str()));
                    }
                }
                // Acquisition?
                if let Some((rank, is_token, consumed)) =
                    acquisition(file, body, i, rules, findings)
                {
                    if let Some(r) = rank {
                        info.direct_acquires.insert(r);
                        for g in &guards {
                            if let Some(h) = g.rank {
                                edges.push((Edge { from: h, to: r }, file_idx, t.line));
                            }
                        }
                    }
                    let name = pending_let.take();
                    let temp = name.is_none();
                    guards.push(Guard { name, rank, is_token, depth, temp, tok_idx: i });
                    i += consumed;
                    continue;
                }
                // Plain call?
                if body.get(i + 1).is_some_and(|t| t.is_punct('!')) {
                    // Macro, not a call.
                } else if body.get(i + 1).is_some_and(|t| t.is_punct('('))
                    && !is_keyword(id)
                    && !body.get(i.wrapping_sub(1)).is_some_and(|t| t.is_ident("fn"))
                {
                    // Only calls rooted at `self` (or bare path calls)
                    // resolve through the name-based call graph: a method
                    // on a local (`inner.map.clear()`) is almost always a
                    // std container op that merely shares a name with
                    // some workspace function.
                    let (root, _) = chain_root(body, i);
                    if root.is_none() || root.as_deref() == Some("self") {
                        let held: Vec<u16> = guards.iter().filter_map(|g| g.rank).collect();
                        info.calls.push(CallSite {
                            callee: id.clone(),
                            held,
                            line: t.line,
                            file_idx,
                        });
                    }
                    if ranks::BLOCKING_FNS.contains(&id.as_str()) {
                        check_blocking(file, body, i, id, &guards, findings);
                    }
                }
            }
            _ => {}
        }
        i += 1;
    }
    info
}

/// `let` binding name: skips `mut` and capitalised pattern constructors
/// (`Some`, `Ok`), takes the first lower-case identifier (the first
/// binding receives the guard in every pattern this codebase uses).
fn binding_name(body: &[Token], mut i: usize) -> Option<String> {
    let mut depth = 0i32;
    while let Some(t) = body.get(i) {
        match &t.tok {
            Tok::Ident(s) if s == "mut" || s == "ref" => {}
            Tok::Ident(s) if s.chars().next().is_some_and(|c| c.is_uppercase()) => {}
            Tok::Ident(s) => return Some(s.clone()),
            Tok::Punct('(') | Tok::Punct('[') => depth += 1,
            Tok::Punct(')') | Tok::Punct(']') => depth -= 1,
            Tok::Punct('=') | Tok::Punct(';') if depth == 0 => return None,
            _ => {}
        }
        i += 1;
    }
    None
}

/// Try to match an acquisition at token `i`. Returns
/// `(rank, is_token, tokens_consumed)`; rank `None` means an unranked
/// guard (blocking rule only).
fn acquisition(
    file: &SourceFile,
    body: &[Token],
    i: usize,
    rules: &[ranks::LockRule],
    findings: &mut Vec<Finding>,
) -> Option<(Option<u16>, bool, usize)> {
    let t = &body[i];
    let id = t.ident()?;

    // lock_order::ranked(lock_order::CONST, ..) / lock_order::acquire(..)
    if id == "lock_order"
        && body.get(i + 1).is_some_and(|t| t.is_punct(':'))
        && body.get(i + 2).is_some_and(|t| t.is_punct(':'))
    {
        if let Some(Tok::Ident(method)) = body.get(i + 3).map(|t| &t.tok) {
            if (method == "ranked" || method == "acquire")
                && body.get(i + 4).is_some_and(|t| t.is_punct('('))
                && body.get(i + 5).is_some_and(|t| t.is_ident("lock_order"))
                && body.get(i + 6).is_some_and(|t| t.is_punct(':'))
                && body.get(i + 7).is_some_and(|t| t.is_punct(':'))
            {
                if let Some(Tok::Ident(konst)) = body.get(i + 8).map(|t| &t.tok) {
                    let rank = ranks::rank_of_const(konst);
                    if rank.is_none() {
                        // The analyzer's table drifted from lock_order.rs.
                        findings.push(Finding {
                            file: file.rel.clone(),
                            line: t.line,
                            pass: "lock-order",
                            msg: format!(
                                "unknown rank constant `lock_order::{konst}` — \
                                 update xtask/src/ranks.rs to match \
                                 crates/storage/src/lock_order.rs"
                            ),
                        });
                    }
                    return Some((Some(rank.unwrap_or(0)), method == "acquire", 9));
                }
            }
        }
        return None;
    }

    // Zero-argument method call `.m()`?
    let zero_arg = i >= 1
        && body[i - 1].is_punct('.')
        && body.get(i + 1).is_some_and(|t| t.is_punct('('))
        && body.get(i + 2).is_some_and(|t| t.is_punct(')'));
    if !zero_arg {
        return None;
    }

    // Declared helper rule?
    for rule in rules {
        if rule.crate_dir != file.crate_dir {
            continue;
        }
        if let RuleKind::Helper(h) = rule.kind {
            if h == id {
                return Some((Some(rule.rank), false, 2));
            }
        }
    }

    // Declared receiver rule?
    let recv = receiver_of(body, i);
    for rule in rules {
        if rule.crate_dir != file.crate_dir {
            continue;
        }
        if let RuleKind::Receiver { recv: r, methods } = &rule.kind {
            if methods.contains(&id) && recv.as_deref() == Some(*r) {
                return Some((Some(rule.rank), false, 2));
            }
        }
    }

    // Generic guard-producing method: unranked, blocking rule only.
    if matches!(id, "lock" | "read" | "write") {
        return Some((None, false, 2));
    }
    None
}

/// The receiver identifier of `recv.method(` at `i` (method position):
/// the ident before the dot, looking through one `[...]` index.
fn receiver_of(body: &[Token], i: usize) -> Option<String> {
    if i < 2 || !body[i - 1].is_punct('.') {
        return None;
    }
    let mut j = i - 2;
    if body[j].is_punct(']') {
        // Look through an index expression: `self.shards[k].write()`.
        let mut depth = 1i32;
        while j > 0 && depth > 0 {
            j -= 1;
            if body[j].is_punct(']') {
                depth += 1;
            } else if body[j].is_punct('[') {
                depth -= 1;
            }
        }
        if j == 0 {
            return None;
        }
        j -= 1;
    }
    match &body[j].tok {
        Tok::Ident(s) => Some(s.clone()),
        _ => None,
    }
}

/// Root identifier and starting token index of the dotted chain ending
/// in the method at `i`: for `w.get_ref().sync_data()` with `i` at
/// `sync_data`, returns `("w", index_of_w)`.
fn chain_root(body: &[Token], i: usize) -> (Option<String>, usize) {
    let mut j = i;
    let mut root = None;
    while j >= 1 && body[j - 1].is_punct('.') {
        let mut k = j - 2;
        loop {
            let Some(t) = body.get(k) else { return (root, j) };
            match &t.tok {
                Tok::Punct(')') | Tok::Punct(']') => {
                    // Skip a balanced group backwards.
                    let open = if body[k].is_punct(')') { '(' } else { '[' };
                    let close = if open == '(' { ')' } else { ']' };
                    let mut depth = 1i32;
                    while k > 0 && depth > 0 {
                        k -= 1;
                        if body[k].is_punct(close) {
                            depth += 1;
                        } else if body[k].is_punct(open) {
                            depth -= 1;
                        }
                    }
                    if k == 0 {
                        return (root, 0);
                    }
                    k -= 1;
                }
                Tok::Ident(s) => {
                    root = Some(s.clone());
                    j = k;
                    break;
                }
                _ => return (root, j),
            }
        }
    }
    (root, j)
}

/// A blocking function is called at `i` while `guards` are held: flag
/// unless every held real guard is exempt (it is the receiver root, the
/// first argument, or a rank token) or an allow marker applies.
fn check_blocking(
    file: &SourceFile,
    body: &[Token],
    i: usize,
    callee: &str,
    guards: &[Guard],
    findings: &mut Vec<Finding>,
) {
    let real: Vec<&Guard> = guards.iter().filter(|g| !g.is_token).collect();
    if real.is_empty() {
        return;
    }
    let (root, chain_start) = chain_root(body, i);
    let first_arg = match body.get(i + 2).map(|t| &t.tok) {
        Some(Tok::Ident(s)) => Some(s.clone()),
        _ => None,
    };
    let offending: Vec<&&Guard> = real
        .iter()
        .filter(|g| {
            let n = g.name.as_deref();
            if n.is_some() && (n == root.as_deref() || n == first_arg.as_deref()) {
                return false;
            }
            // A temporary produced inside this very chain is the thing
            // being waited on / synced (`self.file.lock().sync_data()`).
            !(g.temp && g.tok_idx >= chain_start && g.tok_idx < i)
        })
        .collect();
    if offending.is_empty() {
        return;
    }
    let line = body[i].line;
    if allowed(&file.comments, line, "blocking") {
        return;
    }
    let held: Vec<String> = offending
        .iter()
        .map(|g| match (g.name.as_deref(), g.rank) {
            (Some(n), Some(r)) => format!("`{n}` ({})", ranks::name_of_rank(r)),
            (Some(n), None) => format!("`{n}`"),
            (None, Some(r)) => ranks::name_of_rank(r).to_string(),
            (None, None) => "a temporary guard".to_string(),
        })
        .collect();
    findings.push(Finding {
        file: file.rel.clone(),
        line,
        pass: "blocking",
        msg: format!(
            "guard{} {} held across blocking call `{callee}(..)`",
            if held.len() == 1 { "" } else { "s" },
            held.join(", ")
        ),
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer;
    use std::path::Path;

    fn load_fixture(name: &str) -> SourceFile {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("fixtures").join(name);
        let src = std::fs::read_to_string(&path).expect("fixture exists");
        let lexed = lexer::lex(&src);
        SourceFile {
            rel: name.to_string(),
            crate_dir: "fixtures".to_string(),
            tokens: lexer::strip_test_regions(lexed.tokens),
            comments: lexed.comments,
        }
    }

    #[test]
    fn fixture_direct_inversion_is_flagged() {
        let findings = analyze(&[load_fixture("lock_nesting.rs")]);
        assert!(
            findings.iter().any(|f| f.pass == "lock-order"
                && f.msg.contains("buffer-pool page table (rank 40)")
                && f.msg.contains("WAL append buffer (rank 50)")),
            "WAL_WRITER -> BUFFER_POOL inversion must be flagged"
        );
    }

    #[test]
    fn fixture_blocking_call_is_flagged() {
        let findings = analyze(&[load_fixture("lock_nesting.rs")]);
        assert!(
            findings.iter().any(|f| f.pass == "blocking" && f.msg.contains("sleep")),
            "guard held across sleep must be flagged"
        );
    }

    #[test]
    fn fixture_cross_function_inversion_is_flagged() {
        let findings = analyze(&[load_fixture("lock_nesting.rs")]);
        assert!(
            findings.iter().any(|f| f.pass == "lock-order"
                && f.msg.contains("WAL append buffer (rank 50)")
                && f.msg.contains("WAL log-writer request queue (rank 55)")),
            "inversion through the call graph (outer -> inner_acquire) must be flagged"
        );
    }

    #[test]
    fn fixture_wal_force_under_queue_inversion_is_flagged() {
        // Two distinct sites seed the queue(55) -> writer(50) edge: the
        // cross-function one (outer -> inner_acquire) and the direct
        // force-under-queue one. Both must be flagged individually.
        let findings = analyze(&[load_fixture("lock_nesting.rs")]);
        let edge_sites = findings
            .iter()
            .filter(|f| f.pass == "lock-order"
                && f.msg.contains("WAL append buffer (rank 50)")
                && f.msg.contains("WAL log-writer request queue (rank 55)"))
            .count();
        assert!(
            edge_sites >= 2,
            "forcing the log while holding the request queue must be flagged \
             at both seeded sites, found {edge_sites}"
        );
    }

    #[test]
    fn fixture_cycle_is_reported() {
        // well_ordered (30 -> 40) plus the waived edge (40 -> 30) form a
        // cycle; the per-edge finding is suppressed by the allow marker
        // but the cycle check still sees the edge.
        let findings = analyze(&[load_fixture("lock_nesting.rs")]);
        assert!(findings
            .iter()
            .any(|f| f.pass == "lock-order" && f.msg.contains("acquisition-order cycle")));
    }

    #[test]
    fn fixture_well_ordered_and_waived_sites_are_not_flagged() {
        let findings = analyze(&[load_fixture("lock_nesting.rs")]);
        // well_ordered: HEAP_GLOBAL, HEAP_TABLE, then BUFFER_POOL all
        // increase rank.
        assert!(
            !findings.iter().any(|f| f.pass == "lock-order"
                && f.msg.starts_with("acquires buffer-pool page table")
                && f.msg.contains("heap object-table shard (rank 30)")),
            "correctly ordered nesting must not be flagged"
        );
        assert!(
            !findings.iter().any(|f| f.pass == "lock-order"
                && f.msg.starts_with("acquires heap object-table shard")
                && f.msg.contains("heap global shard (quiesce / segment roster) (rank 28)")),
            "global shard before a table shard is the documented order"
        );
        // waived: the inversion on the marked line is suppressed.
        assert!(
            !findings.iter().any(|f| f.pass == "lock-order"
                && f.msg.starts_with("acquires heap object-table shard")
                && f.msg.contains("buffer-pool page table (rank 40)")),
            "allow(lock_order) marker must suppress the per-edge finding"
        );
    }

    #[test]
    fn fixture_heap_shard_inversions_are_flagged() {
        // The two heap-specific seeded inversions: a table shard taken
        // under a segment lock, and the global quiesce shard taken under
        // a segment lock. Both must be flagged with the sharded heap's
        // rank names so a regression in the rank table (or the rules)
        // cannot silently stop covering the new locks.
        let findings = analyze(&[load_fixture("lock_nesting.rs")]);
        assert!(
            findings.iter().any(|f| f.pass == "lock-order"
                && f.msg.contains("heap object-table shard (rank 30)")
                && f.msg.contains("heap segment placement state (rank 32)")),
            "HEAP_SEGMENT -> HEAP_TABLE inversion must be flagged"
        );
        assert!(
            findings.iter().any(|f| f.pass == "lock-order"
                && f.msg.contains("heap global shard (quiesce / segment roster) (rank 28)")
                && f.msg.contains("heap segment placement state (rank 32)")),
            "HEAP_SEGMENT -> HEAP_GLOBAL inversion must be flagged"
        );
    }

    #[test]
    fn fixture_mvcc_inversions_are_flagged() {
        // The MVCC-era seeded inversions: the heap's global shard under
        // a table shard, and the commit-visibility flip under the
        // snapshot registry. The well-ordered MVCC nesting must stay
        // silent.
        let findings = analyze(&[load_fixture("lock_nesting.rs")]);
        assert!(
            findings.iter().any(|f| f.pass == "lock-order"
                && f.msg.starts_with("acquires heap global shard (quiesce / segment roster)")
                && f.msg.contains("heap object-table shard (rank 30)")),
            "HEAP_TABLE -> HEAP_GLOBAL inversion must be flagged"
        );
        assert!(
            findings.iter().any(|f| f.pass == "lock-order"
                && f.msg.contains("engine commit-visibility flip (rank 12)")
                && f.msg.contains("engine open-snapshot registry (rank 14)")),
            "ENGINE_SNAPSHOTS -> ENGINE_COMMIT_VIS inversion must be flagged"
        );
        assert!(
            !findings.iter().any(|f| f.pass == "lock-order"
                && f.msg.starts_with("acquires heap global shard (quiesce / segment roster)")
                && f.msg.contains("engine open-snapshot registry (rank 14)")),
            "vis -> snaps -> global is the documented order and must not be flagged"
        );
    }

    #[test]
    fn fixture_server_rank_inversions_are_flagged() {
        // The network front end's seeded inversions: the tenant
        // registry under the connection table, the connection table
        // under the drain latch, and — the one the ranks exist for — a
        // storage lock acquired while holding a server latch. The
        // documented tenants -> conns -> drain nesting must stay silent.
        let findings = analyze(&[load_fixture("lock_nesting.rs")]);
        assert!(
            findings.iter().any(|f| f.pass == "lock-order"
                && f.msg.contains("server tenant registry (rank 70)")
                && f.msg.contains("server connection table (rank 72)")),
            "SRV_CONNS -> SRV_TENANTS inversion must be flagged"
        );
        assert!(
            findings.iter().any(|f| f.pass == "lock-order"
                && f.msg.contains("server connection table (rank 72)")
                && f.msg.contains("server drain latch (rank 74)")),
            "SRV_DRAIN -> SRV_CONNS inversion must be flagged"
        );
        assert!(
            findings.iter().any(|f| f.pass == "lock-order"
                && f.msg.contains("engine active-transaction table (rank 10)")
                && f.msg.contains("server tenant registry (rank 70)")),
            "a storage lock under a server latch must be flagged"
        );
        assert!(
            !findings.iter().any(|f| f.pass == "lock-order"
                && f.msg.starts_with("acquires server drain latch")
                && f.msg.contains("server connection table (rank 72)")),
            "tenants -> conns -> drain is the documented order and must not be flagged"
        );
    }

    #[test]
    fn fixture_repl_rank_inversions_are_flagged() {
        // The replication-era seeded inversions: an engine lock under
        // the follower state lock (the lock held across
        // `replica_apply_commit` mistake), and the ack table under the
        // follower state. The documented acks -> follower nesting must
        // stay silent.
        let findings = analyze(&[load_fixture("lock_nesting.rs")]);
        assert!(
            findings.iter().any(|f| f.pass == "lock-order"
                && f.msg.contains("engine active-transaction table (rank 10)")
                && f.msg.contains("replication follower state (rank 78)")),
            "REPL_FOLLOWER -> ENGINE_ACTIVE inversion must be flagged"
        );
        assert!(
            findings.iter().any(|f| f.pass == "lock-order"
                && f.msg.contains("replication ack table (rank 76)")
                && f.msg.contains("replication follower state (rank 78)")),
            "REPL_FOLLOWER -> REPL_ACKS inversion must be flagged"
        );
        assert!(
            !findings.iter().any(|f| f.pass == "lock-order"
                && f.msg.starts_with("acquires replication follower state")
                && f.msg.contains("replication ack table (rank 76)")),
            "acks -> follower is the documented order and must not be flagged"
        );
    }

    #[test]
    fn fixture_pool_table_lock_across_io_is_flagged() {
        // The buffer pool's rule: the page table is never held across
        // page-file I/O or a wait on the log. All three seeded sites
        // must be flagged, each naming the page table; the pool's real
        // shape (I/O under the frame latch alone, with its marker) must
        // stay silent.
        let findings = analyze(&[load_fixture("pool_latches.rs")]);
        for callee in ["read_page", "write_page", "wait_synced"] {
            assert!(
                findings.iter().any(|f| f.pass == "blocking"
                    && f.msg.contains("buffer-pool page table")
                    && f.msg.contains(&format!("`{callee}(..)`"))),
                "page table held across `{callee}` must be flagged"
            );
        }
        let blocking = findings.iter().filter(|f| f.pass == "blocking").count();
        assert_eq!(blocking, 3, "the marked I/O under a frame latch must not be flagged");
    }

    #[test]
    fn fixture_frame_latch_inversions_are_flagged() {
        let findings = analyze(&[load_fixture("pool_latches.rs")]);
        assert!(
            findings.iter().any(|f| f.pass == "lock-order"
                && f.msg.starts_with("acquires buffer-pool page table (rank 40)")
                && f.msg.contains("buffer-pool frame latch (rank 42)")),
            "BUFFER_FRAME -> BUFFER_POOL inversion must be flagged"
        );
        assert!(
            findings.iter().any(|f| f.pass == "lock-order"
                && f.msg.starts_with("acquires heap segment placement state (rank 32)")
                && f.msg.contains("buffer-pool frame latch (rank 42)")),
            "BUFFER_FRAME -> HEAP_SEGMENT inversion must be flagged"
        );
        assert!(
            !findings.iter().any(|f| f.pass == "lock-order"
                && f.msg.starts_with("acquires buffer-pool frame latch")),
            "page table, then frame latch is the documented order"
        );
    }

    #[test]
    fn real_tree_lock_rules_match_runtime_constants() {
        // Drift check: every rank constant referenced from the storage
        // crate sources must exist in the analyzer's table (an unknown
        // one produces a finding).
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../crates/storage/src");
        let mut files = Vec::new();
        for entry in std::fs::read_dir(&root).expect("storage src exists") {
            let path = entry.expect("dir entry").path();
            if path.extension().is_some_and(|e| e == "rs") {
                let src = std::fs::read_to_string(&path).expect("readable");
                let lexed = lexer::lex(&src);
                files.push(SourceFile {
                    rel: path.display().to_string(),
                    crate_dir: "storage".to_string(),
                    tokens: lexer::strip_test_regions(lexed.tokens),
                    comments: lexed.comments,
                });
            }
        }
        let findings = analyze(&files);
        let drift: Vec<_> =
            findings.iter().filter(|f| f.msg.contains("unknown rank constant")).collect();
        assert!(drift.is_empty(), "rank table drifted: {}", drift.len());
    }
}
