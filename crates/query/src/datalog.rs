//! Positive Datalog with semi-naive evaluation — the stand-in for
//! AllegroGraph's Prolog reasoning.
//!
//! "AllegroGraph supports reasoning via its Prolog implementation"
//! (Table V, "Reasoning"). The logical capability the paper probes is
//! rule-based inference over the stored graph; positive Datalog covers
//! it: facts come from triples (`pred(subject, object)`), rules derive
//! new facts, and queries retrieve bindings against the fixpoint.
//!
//! Syntax (variables start uppercase, constants lowercase or quoted):
//!
//! ```text
//! rule  := head ':-' atom (',' atom)* '.' | fact '.'
//! atom  := pred '(' term (',' term)* ')'
//! ```

use crate::lex::{Cursor, TokenKind};
use gdm_core::{FxHashMap, FxHashSet, GdmError, Result};
use gdm_graphs::rdf::RdfGraph;

const DIALECT: &str = "datalog";

/// A Datalog term.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum DlTerm {
    /// A variable (uppercase initial).
    Var(String),
    /// A constant.
    Const(String),
}

/// A predicate applied to terms.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct DlAtom {
    /// Predicate name.
    pub pred: String,
    /// Argument terms.
    pub args: Vec<DlTerm>,
}

/// A rule: `head :- body` (facts have an empty body).
#[derive(Debug, Clone, PartialEq)]
pub struct Rule {
    /// Derived atom.
    pub head: DlAtom,
    /// Conditions.
    pub body: Vec<DlAtom>,
}

/// A ground fact.
pub type Fact = (String, Vec<String>);

/// A Datalog program: rules plus a fact base, evaluated to fixpoint.
#[derive(Debug, Default, Clone)]
pub struct Program {
    rules: Vec<Rule>,
    facts: FxHashSet<Fact>,
}

impl Program {
    /// An empty program.
    pub fn new() -> Self {
        Self::default()
    }

    /// Parses and adds rules (and/or facts) from source text.
    pub fn add_rules(&mut self, src: &str) -> Result<()> {
        for rule in parse_rules(src)? {
            if rule.body.is_empty() {
                let fact = ground_fact(&rule.head)?;
                self.facts.insert(fact);
            } else {
                validate_rule(&rule)?;
                self.rules.push(rule);
            }
        }
        Ok(())
    }

    /// Imports every triple of `g` as `predicate(subject, object)`.
    pub fn load_rdf(&mut self, g: &RdfGraph) {
        for (s, p, o) in g.match_terms(None, None, None) {
            self.facts.insert((p.text(), vec![s.text(), o.text()]));
        }
    }

    /// Computes the fixpoint by semi-naive evaluation: each round only
    /// joins against facts newly derived in the previous round.
    pub fn evaluate(&mut self) {
        let mut delta: FxHashSet<Fact> = self.facts.clone();
        while !delta.is_empty() {
            let mut fresh: FxHashSet<Fact> = FxHashSet::default();
            for rule in &self.rules {
                // Semi-naive: at least one body atom must match a
                // delta fact; try each position as the delta slot.
                for delta_slot in 0..rule.body.len() {
                    derive(rule, delta_slot, &self.facts, &delta, &mut fresh);
                }
            }
            fresh.retain(|f| !self.facts.contains(f));
            for f in &fresh {
                self.facts.insert(f.clone());
            }
            delta = fresh;
        }
    }

    /// Queries the fact base (call [`Program::evaluate`] first).
    /// Variables in `goal` bind; returns one row per match with values
    /// in argument order for the variables, deduplicated and sorted.
    pub fn query(&self, goal: &DlAtom) -> Vec<Vec<String>> {
        let mut rows: Vec<Vec<String>> = Vec::new();
        for (pred, args) in &self.facts {
            if *pred != goal.pred || args.len() != goal.args.len() {
                continue;
            }
            let mut bind: FxHashMap<&str, &str> = FxHashMap::default();
            let mut row = Vec::new();
            let mut ok = true;
            for (pat, actual) in goal.args.iter().zip(args.iter()) {
                match pat {
                    DlTerm::Const(c) => {
                        if c != actual {
                            ok = false;
                            break;
                        }
                    }
                    DlTerm::Var(v) => match bind.get(v.as_str()) {
                        Some(&prev) if prev != actual.as_str() => {
                            ok = false;
                            break;
                        }
                        Some(_) => {}
                        None => {
                            bind.insert(v, actual);
                            row.push(actual.clone());
                        }
                    },
                }
            }
            if ok {
                rows.push(row);
            }
        }
        rows.sort();
        rows.dedup();
        rows
    }

    /// Convenience: parse `goal` (e.g. `ancestor(X, cleo)`) and query.
    pub fn query_str(&self, goal: &str) -> Result<Vec<Vec<String>>> {
        let mut c = Cursor::lex(DIALECT, goal, false)?;
        let atom = parse_atom(&mut c)?;
        if !c.at_eof() {
            return Err(c.error("unexpected trailing input after goal"));
        }
        Ok(self.query(&atom))
    }
}

fn ground_fact(atom: &DlAtom) -> Result<Fact> {
    let mut args = Vec::with_capacity(atom.args.len());
    for t in &atom.args {
        match t {
            DlTerm::Const(c) => args.push(c.clone()),
            DlTerm::Var(v) => {
                return Err(GdmError::InvalidArgument(format!(
                    "fact contains variable {v}"
                )))
            }
        }
    }
    Ok((atom.pred.clone(), args))
}

fn validate_rule(rule: &Rule) -> Result<()> {
    // Range restriction: every head variable must occur in the body.
    for t in &rule.head.args {
        if let DlTerm::Var(v) = t {
            let bound = rule.body.iter().any(|a| {
                a.args
                    .iter()
                    .any(|bt| matches!(bt, DlTerm::Var(bv) if bv == v))
            });
            if !bound {
                return Err(GdmError::InvalidArgument(format!(
                    "head variable {v} does not occur in the rule body"
                )));
            }
        }
    }
    Ok(())
}

/// Tries all ways to satisfy `rule` where the atom at `delta_slot`
/// matches a delta fact and the rest match any facts.
fn derive(
    rule: &Rule,
    delta_slot: usize,
    all: &FxHashSet<Fact>,
    delta: &FxHashSet<Fact>,
    out: &mut FxHashSet<Fact>,
) {
    fn go(
        rule: &Rule,
        idx: usize,
        delta_slot: usize,
        all: &FxHashSet<Fact>,
        delta: &FxHashSet<Fact>,
        binding: &mut FxHashMap<String, String>,
        out: &mut FxHashSet<Fact>,
    ) {
        if idx == rule.body.len() {
            let args: Vec<String> = rule
                .head
                .args
                .iter()
                .map(|t| match t {
                    DlTerm::Const(c) => c.clone(),
                    DlTerm::Var(v) => binding[v].clone(),
                })
                .collect();
            out.insert((rule.head.pred.clone(), args));
            return;
        }
        let atom = &rule.body[idx];
        let source = if idx == delta_slot { delta } else { all };
        for (pred, args) in source {
            if *pred != atom.pred || args.len() != atom.args.len() {
                continue;
            }
            let mut added: Vec<String> = Vec::new();
            let mut ok = true;
            for (pat, actual) in atom.args.iter().zip(args.iter()) {
                match pat {
                    DlTerm::Const(c) => {
                        if c != actual {
                            ok = false;
                            break;
                        }
                    }
                    DlTerm::Var(v) => match binding.get(v) {
                        Some(prev) if prev != actual => {
                            ok = false;
                            break;
                        }
                        Some(_) => {}
                        None => {
                            binding.insert(v.clone(), actual.clone());
                            added.push(v.clone());
                        }
                    },
                }
            }
            if ok {
                go(rule, idx + 1, delta_slot, all, delta, binding, out);
            }
            for v in added {
                binding.remove(&v);
            }
        }
    }
    let mut binding = FxHashMap::default();
    go(rule, 0, delta_slot, all, delta, &mut binding, out);
}

// ---------------------------------------------------------------------
// Parsing
// ---------------------------------------------------------------------

/// Parses a rule/fact list.
pub fn parse_rules(src: &str) -> Result<Vec<Rule>> {
    let mut c = Cursor::lex(DIALECT, src, false)?;
    let mut rules = Vec::new();
    while !c.at_eof() {
        let head = parse_atom(&mut c)?;
        let mut body = Vec::new();
        if c.eat_punct(":-") {
            loop {
                body.push(parse_atom(&mut c)?);
                if !c.eat_punct(",") {
                    break;
                }
            }
        }
        c.expect_punct(".")?;
        rules.push(Rule { head, body });
    }
    Ok(rules)
}

fn parse_atom(c: &mut Cursor) -> Result<DlAtom> {
    let pred = match c.bump() {
        TokenKind::Ident(s) => s,
        TokenKind::Str(s) => s,
        other => return Err(c.error(format!("expected predicate, found {other:?}"))),
    };
    c.expect_punct("(")?;
    let mut args = Vec::new();
    loop {
        let term = match c.bump() {
            TokenKind::Ident(s) => {
                if s.chars().next().is_some_and(char::is_uppercase) {
                    DlTerm::Var(s)
                } else {
                    DlTerm::Const(s)
                }
            }
            TokenKind::Str(s) => DlTerm::Const(s),
            TokenKind::Int(i) => DlTerm::Const(i.to_string()),
            other => return Err(c.error(format!("expected term, found {other:?}"))),
        };
        args.push(term);
        if !c.eat_punct(",") {
            break;
        }
    }
    c.expect_punct(")")?;
    Ok(DlAtom { pred, args })
}

#[cfg(test)]
mod tests {
    use super::*;
    use gdm_graphs::rdf::Term;

    fn ancestors() -> Program {
        let mut p = Program::new();
        p.add_rules(
            "parent(ana, ben). parent(ben, cleo). parent(cleo, dan).\n\
             ancestor(X, Y) :- parent(X, Y).\n\
             ancestor(X, Z) :- parent(X, Y), ancestor(Y, Z).",
        )
        .unwrap();
        p.evaluate();
        p
    }

    #[test]
    fn transitive_closure() {
        let p = ancestors();
        let rows = p.query_str("ancestor(ana, X)").unwrap();
        let descendants: Vec<&str> = rows.iter().map(|r| r[0].as_str()).collect();
        assert_eq!(descendants, vec!["ben", "cleo", "dan"]);
    }

    #[test]
    fn ground_queries() {
        let p = ancestors();
        assert_eq!(p.query_str("ancestor(ana, dan)").unwrap().len(), 1);
        assert_eq!(p.query_str("ancestor(dan, ana)").unwrap().len(), 0);
    }

    #[test]
    fn repeated_variables_in_goal() {
        let mut p = Program::new();
        p.add_rules("likes(a, a). likes(a, b).").unwrap();
        p.evaluate();
        // likes(X, X) must only match the reflexive fact.
        let rows = p.query_str("likes(X, X)").unwrap();
        assert_eq!(rows, vec![vec!["a".to_string()]]);
    }

    #[test]
    fn join_rule() {
        let mut p = Program::new();
        p.add_rules(
            "knows(a, b). knows(b, c). knows(c, a).\n\
             triangle(X, Y, Z) :- knows(X, Y), knows(Y, Z), knows(Z, X).",
        )
        .unwrap();
        p.evaluate();
        assert_eq!(p.query_str("triangle(X, Y, Z)").unwrap().len(), 3);
    }

    #[test]
    fn rdf_facts_feed_rules() {
        let mut g = RdfGraph::new();
        let p = Term::iri("parent");
        g.add(&Term::iri("ana"), &p, &Term::iri("ben")).unwrap();
        g.add(&Term::iri("ben"), &p, &Term::iri("cleo")).unwrap();
        let mut prog = Program::new();
        prog.load_rdf(&g);
        prog.add_rules("grandparent(X, Z) :- parent(X, Y), parent(Y, Z).")
            .unwrap();
        prog.evaluate();
        let rows = prog.query_str("grandparent(X, Y)").unwrap();
        assert_eq!(rows, vec![vec!["ana".to_string(), "cleo".to_string()]]);
    }

    #[test]
    fn unsafe_rules_rejected() {
        let mut p = Program::new();
        let err = p.add_rules("broken(X, Y) :- parent(X, X2).").unwrap_err();
        assert!(err.to_string().contains("does not occur"));
    }

    #[test]
    fn facts_with_variables_rejected() {
        let mut p = Program::new();
        assert!(p.add_rules("parent(X, ben).").is_err());
    }

    #[test]
    fn parse_errors() {
        assert!(parse_rules("parent(a, b)").is_err(), "missing period");
        assert!(parse_rules("parent a, b).").is_err());
        assert!(parse_rules("p() .").is_err());
    }

    #[test]
    fn semi_naive_handles_cycles() {
        let mut p = Program::new();
        p.add_rules(
            "edge(a, b). edge(b, c). edge(c, a).\n\
             reach(X, Y) :- edge(X, Y).\n\
             reach(X, Z) :- reach(X, Y), edge(Y, Z).",
        )
        .unwrap();
        p.evaluate();
        // Full 3x3 reachability on the cycle.
        assert_eq!(p.query_str("reach(X, Y)").unwrap().len(), 9);
    }
}
