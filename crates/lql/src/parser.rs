//! Recursive-descent parser with operator precedence for goals and
//! arithmetic expressions.
//!
//! Grammar (simplified):
//!
//! ```text
//! program := clause*
//! clause  := term ( ":-" goals )? "."
//! goals   := goal ( "," goal )*
//! goal    := "\+" goal | disjunct
//! disjunct:= expr ( ";" expr )*          % parsed into ';'/2 terms
//! expr    := arith ( cmp-op arith )?     % =, \=, ==, \==, <, =<, >, >=, is
//! arith   := mul ( (+|-) mul )*
//! mul     := primary ( (*|/|mod) primary )*
//! primary := var | atom( args? ) | number | string | list | "(" goal ")"
//! ```

use crate::ast::{Rule, Term};
use crate::error::{LqlError, Result};
use crate::token::{tokenize, Token};

/// Deepest term the parser builds. Parsing recurses once per nested
/// goal and unary minus, and an operator chain or a parenthesised
/// ','/';' group folds into a term one level deeper per operator;
/// dropping, printing and evaluating a term all recurse once per level.
/// Without a limit a query of a few thousand nested parentheses
/// overflows the connection thread's stack.
const MAX_NESTING: usize = 128;

struct Parser {
    toks: Vec<Token>,
    at: usize,
    /// Counter making each `_` a distinct anonymous variable.
    anon: usize,
    /// Nesting level of the term being parsed. Restored on the way out
    /// of each level; an error abandons the parse, so it is not
    /// restored on error paths.
    depth: usize,
}

impl Parser {
    fn fresh_anon(&mut self) -> String {
        self.anon += 1;
        format!("_G{}", self.anon)
    }

    fn peek(&self) -> Option<&Token> {
        self.toks.get(self.at)
    }

    fn next(&mut self) -> Option<Token> {
        let t = self.toks.get(self.at).cloned();
        if t.is_some() {
            self.at += 1;
        }
        t
    }

    fn expect(&mut self, tok: &Token, what: &str) -> Result<()> {
        match self.next() {
            Some(t) if &t == tok => Ok(()),
            other => Err(LqlError::Parse(format!("expected {what}, found {other:?}"))),
        }
    }

    /// Go one nesting level deeper, refusing past [`MAX_NESTING`].
    fn descend(&mut self) -> Result<()> {
        self.depth += 1;
        if self.depth > MAX_NESTING {
            return Err(LqlError::Parse(format!("terms nest deeper than {MAX_NESTING} levels")));
        }
        Ok(())
    }

    fn eat(&mut self, tok: &Token) -> bool {
        if self.peek() == Some(tok) {
            self.at += 1;
            true
        } else {
            false
        }
    }

    // goal := "\+" goal | cmp_expr
    // Disjunction requires parentheses: (a, b ; c).
    fn goal(&mut self) -> Result<Term> {
        let base = self.depth;
        self.descend()?;
        let goal = if self.eat(&Token::Naf) {
            Term::Compound("\\+".into(), vec![self.goal()?])
        } else {
            self.cmp_expr()?
        };
        self.depth = base;
        Ok(goal)
    }

    fn cmp_expr(&mut self) -> Result<Term> {
        let left = self.arith()?;
        if let Some(Token::Op(op)) = self.peek() {
            let op = op.clone();
            if matches!(op.as_str(), "=" | "\\=" | "==" | "\\==" | "<" | "=<" | ">" | ">=" | "is")
            {
                self.next();
                let right = self.arith()?;
                return Ok(Term::Compound(op, vec![left, right]));
            }
        }
        Ok(left)
    }

    fn arith(&mut self) -> Result<Term> {
        let base = self.depth;
        let mut left = self.mul()?;
        loop {
            match self.peek() {
                Some(Token::Op(op)) if op == "+" || op == "-" => {
                    let op = op.clone();
                    self.next();
                    self.descend()?;
                    let right = self.mul()?;
                    left = Term::Compound(op, vec![left, right]);
                }
                _ => break,
            }
        }
        self.depth = base;
        Ok(left)
    }

    fn mul(&mut self) -> Result<Term> {
        let base = self.depth;
        let mut left = self.primary()?;
        loop {
            match self.peek() {
                Some(Token::Op(op)) if op == "*" || op == "/" || op == "mod" => {
                    let op = op.clone();
                    self.next();
                    self.descend()?;
                    let right = self.primary()?;
                    left = Term::Compound(op, vec![left, right]);
                }
                _ => break,
            }
        }
        self.depth = base;
        Ok(left)
    }

    fn primary(&mut self) -> Result<Term> {
        match self.next() {
            Some(Token::Var(v)) => {
                if v == "_" {
                    Ok(Term::Var(self.fresh_anon()))
                } else {
                    Ok(Term::Var(v))
                }
            }
            Some(Token::Int(i)) => Ok(Term::Int(i)),
            Some(Token::Real(r)) => Ok(Term::Real(r)),
            Some(Token::Str(s)) => Ok(Term::Str(s)),
            Some(Token::Atom(name)) => {
                if self.eat(&Token::LParen) {
                    let mut args = Vec::new();
                    if !self.eat(&Token::RParen) {
                        loop {
                            args.push(self.goal()?);
                            if self.eat(&Token::RParen) {
                                break;
                            }
                            self.expect(&Token::Comma, "',' or ')' in argument list")?;
                        }
                    }
                    Ok(Term::Compound(name, args))
                } else {
                    Ok(Term::Atom(name))
                }
            }
            Some(Token::LBracket) => {
                if self.eat(&Token::RBracket) {
                    return Ok(Term::nil());
                }
                let mut items = Vec::new();
                let mut tail = None;
                loop {
                    items.push(self.goal()?);
                    if self.eat(&Token::RBracket) {
                        break;
                    }
                    if self.eat(&Token::Bar) {
                        tail = Some(Box::new(self.goal()?));
                        self.expect(&Token::RBracket, "']' after list tail")?;
                        break;
                    }
                    self.expect(&Token::Comma, "',' '|' or ']' in list")?;
                }
                Ok(Term::List(items, tail))
            }
            Some(Token::LParen) => {
                // Parenthesized goal group. Standard precedence: ','
                // binds tighter than ';', so (a, b ; c) is ;(,(a,b), c).
                // Each further group folds one level deeper.
                let base = self.depth;
                let mut groups = vec![self.conjunction()?];
                while self.eat(&Token::Semicolon) {
                    self.descend()?;
                    groups.push(self.conjunction()?);
                }
                self.depth = base;
                self.expect(&Token::RParen, "')'")?;
                let mut it = groups.into_iter().rev();
                let mut acc = it.next().expect("at least one group");
                for g in it {
                    acc = Term::Compound(";".into(), vec![g, acc]);
                }
                Ok(acc)
            }
            Some(Token::Op(op)) if op == "-" => {
                // Unary minus over a primary.
                self.descend()?;
                let inner = self.primary()?;
                self.depth -= 1;
                match inner {
                    Term::Int(i) => Ok(Term::Int(-i)),
                    Term::Real(r) => Ok(Term::Real(-r)),
                    other => Ok(Term::Compound("-".into(), vec![Term::Int(0), other])),
                }
            }
            other => Err(LqlError::Parse(format!("unexpected token {other:?}"))),
        }
    }

    /// goal (',' goal)* folded right-associatively into ','/2, one
    /// level deeper per further goal.
    fn conjunction(&mut self) -> Result<Term> {
        let base = self.depth;
        let mut goals = vec![self.goal()?];
        while self.eat(&Token::Comma) {
            self.descend()?;
            goals.push(self.goal()?);
        }
        self.depth = base;
        let mut it = goals.into_iter().rev();
        let mut acc = it.next().expect("at least one goal");
        for g in it {
            acc = Term::Compound(",".into(), vec![g, acc]);
        }
        Ok(acc)
    }

    fn clause(&mut self) -> Result<Rule> {
        let head = self.goal()?;
        if head.functor().is_none() {
            return Err(LqlError::Parse(format!("clause head must be callable, got {head}")));
        }
        let mut body = Vec::new();
        if self.eat(&Token::Neck) {
            loop {
                body.push(self.goal()?);
                if !self.eat(&Token::Comma) {
                    break;
                }
            }
        }
        self.expect(&Token::Dot, "'.' at end of clause")?;
        Ok(Rule { head, body })
    }
}

/// Parse a full program (sequence of clauses).
pub fn parse_program(src: &str) -> Result<Vec<Rule>> {
    let toks = tokenize(src)?;
    let mut p = Parser { toks, at: 0, anon: 0, depth: 0 };
    let mut rules = Vec::new();
    while p.peek().is_some() {
        // Allow an optional leading `?-` to be nice about pasted queries.
        p.eat(&Token::Query);
        rules.push(p.clause()?);
    }
    Ok(rules)
}

/// Parse a query: a comma-separated goal list, optional `?-` prefix and
/// trailing `.`.
pub fn parse_query(src: &str) -> Result<Vec<Term>> {
    let toks = tokenize(src)?;
    let mut p = Parser { toks, at: 0, anon: 0, depth: 0 };
    p.eat(&Token::Query);
    let mut goals = vec![p.goal()?];
    while p.eat(&Token::Comma) {
        goals.push(p.goal()?);
    }
    p.eat(&Token::Dot);
    if let Some(t) = p.peek() {
        return Err(LqlError::Parse(format!("trailing input after query: {t:?}")));
    }
    Ok(goals)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fact_and_rule() {
        let rules = parse_program("parent(a, b).\nanc(X, Y) :- parent(X, Y).").unwrap();
        assert_eq!(rules.len(), 2);
        assert!(rules[0].body.is_empty());
        assert_eq!(rules[1].body.len(), 1);
        assert_eq!(rules[1].head.functor(), Some(("anc", 2)));
    }

    #[test]
    fn paper_rule_parses() {
        // The exact transition rule quoted in the paper (Section 8), with
        // `:-` for the report's arrow.
        let src = "move(M) :- state(M, waiting_for_sequencing), test_sequencing_ok(M), \
                   retract(state(M, waiting_for_sequencing)), \
                   assert(state(M, waiting_for_incorporation)).";
        let rules = parse_program(src).unwrap();
        assert_eq!(rules[0].body.len(), 4);
        assert_eq!(rules[0].body[2].functor(), Some(("retract", 1)));
    }

    #[test]
    fn arithmetic_precedence() {
        let q = parse_query("X is 1 + 2 * 3 - 4 mod 2").unwrap();
        // is(X, -(+(1, *(2,3)), mod(4,2)))
        let Term::Compound(is, args) = &q[0] else { panic!() };
        assert_eq!(is, "is");
        let Term::Compound(minus, margs) = &args[1] else { panic!() };
        assert_eq!(minus, "-");
        assert_eq!(margs[0].to_string(), "+(1, *(2, 3))");
        assert_eq!(margs[1].to_string(), "mod(4, 2)");
    }

    #[test]
    fn comparison_and_negation() {
        let q = parse_query("\\+ state(M, done), T >= 10").unwrap();
        assert_eq!(q.len(), 2);
        assert_eq!(q[0].functor(), Some(("\\+", 1)));
        assert_eq!(q[1].functor(), Some((">=", 2)));
    }

    #[test]
    fn lists_with_tails() {
        let q = parse_query("append([1, 2|T], X)").unwrap();
        let Term::Compound(_, args) = &q[0] else { panic!() };
        let Term::List(items, tail) = &args[0] else { panic!() };
        assert_eq!(items.len(), 2);
        assert!(tail.is_some());
    }

    #[test]
    fn disjunction_and_parens() {
        let q = parse_query("(a ; b), c").unwrap();
        assert_eq!(q.len(), 2);
        assert_eq!(q[0].functor(), Some((";", 2)));
        let q = parse_query("(a, b ; c)").unwrap();
        // conjunction binds inside parens before ;
        assert_eq!(q[0].to_string(), ";(,(a, b), c)");
    }

    #[test]
    fn setof_shape() {
        let q = parse_query("setof(S, recent(M, sequence, S), Set)").unwrap();
        assert_eq!(q[0].functor(), Some(("setof", 3)));
    }

    #[test]
    fn errors_are_reported() {
        assert!(matches!(parse_query("f(,"), Err(LqlError::Parse(_))));
        assert!(matches!(parse_program("3 :- a."), Err(LqlError::Parse(_))));
        assert!(matches!(parse_program("f(a)"), Err(LqlError::Parse(_))), "missing dot");
        assert!(matches!(parse_query("f(a) g(b)"), Err(LqlError::Parse(_))), "trailing input");
    }

    #[test]
    fn deep_nesting_is_a_parse_error() {
        // 5,000 nested parentheses: 10 KB of query, deep enough to
        // overflow the stack if the parser recursed without a limit.
        let deep = format!("{}a{}", "(".repeat(5_000), ")".repeat(5_000));
        assert!(matches!(parse_query(&deep), Err(LqlError::Parse(_))));
        // An operator chain parses without recursing, but the term it
        // folds into is one level deeper per operator, and dropping a
        // 100,000-deep term (400 KB of query) overflows the stack too.
        let chain = format!("X is 1{}", " + 1".repeat(100_000));
        assert!(matches!(parse_query(&chain), Err(LqlError::Parse(_))), "operator chain");
        let minus = format!("X is {}1", "- ".repeat(5_000));
        assert!(matches!(parse_query(&minus), Err(LqlError::Parse(_))), "unary minus");
        // So do a parenthesised conjunction and disjunction: 100,000
        // goals fold into ','/2 and ';'/2 terms 100,000 deep.
        let and = format!("(a{})", ", a".repeat(100_000));
        assert!(matches!(parse_query(&and), Err(LqlError::Parse(_))), "conjunction");
        let or = format!("(a{})", "; a".repeat(100_000));
        assert!(matches!(parse_query(&or), Err(LqlError::Parse(_))), "disjunction");
        // Nesting well inside the limit still parses.
        let ok = format!("{}a{}", "(".repeat(40), ")".repeat(40));
        assert_eq!(parse_query(&ok).unwrap()[0].to_string(), "a");
    }

    #[test]
    fn unary_minus() {
        let q = parse_query("X is -Y + 1").unwrap();
        assert_eq!(q[0].to_string(), "is(X, +(-(0, Y), 1))");
    }
}
