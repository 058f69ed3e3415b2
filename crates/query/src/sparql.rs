//! A SPARQL-like query language over RDF graphs (AllegroGraph).
//!
//! "AllegroGraph supports SPARQL, the standard query language for
//! RDF. SPARQL is based on graph pattern matching but is not oriented
//! to querying the graph structure of RDF data" — which is why Table V
//! marks its query language `◦`. This front-end implements the
//! pattern-matching core: basic graph patterns, `FILTER`, `DISTINCT`,
//! `ORDER BY`, `LIMIT`, and `COUNT`. A basic graph pattern is lowered
//! to a homomorphic [`Pattern`] over [`RdfGraph`]'s view, where a
//! triple is an edge labelled by its predicate, and matched by
//! [`match_pattern_seeded`] (DESIGN.md §10).
//!
//! ```text
//! query  := SELECT [DISTINCT] (?var+ | '*' | '(' COUNT '(' '*' ')' AS ?var ')')
//!           WHERE '{' tp ('.' tp)* (FILTER '(' cond ')')* '}'
//!           [ORDER BY ?var] [LIMIT n]
//! tp     := term term term
//! term   := <iri> | ident (bare IRI) | 'literal' | ?var
//! cond   := operand (=|!=|<=|>=|>) operand [AND / OR conds]
//! ```

use crate::eval::ResultSet;
use crate::lex::{Cursor, TokenKind};
use gdm_algo::pattern::{Pattern, PatternNode};
use gdm_algo::planned::{match_pattern_seeded, Domains};
use gdm_core::{GdmError, NodeId, Result, Value};
use gdm_govern::ExecutionGuard;
use gdm_graphs::rdf::{RdfGraph, Term};

const DIALECT: &str = "sparql";

/// A position in a triple pattern.
#[derive(Debug, Clone, PartialEq)]
pub enum TermPat {
    /// A bound term.
    Const(Term),
    /// A variable.
    Var(String),
}

/// A triple pattern.
#[derive(Debug, Clone, PartialEq)]
pub struct TriplePattern {
    /// Subject position.
    pub s: TermPat,
    /// Predicate position.
    pub p: TermPat,
    /// Object position.
    pub o: TermPat,
}

/// Filter conditions.
#[derive(Debug, Clone, PartialEq)]
pub enum Cond {
    /// Comparison between two operands.
    Cmp(&'static str, TermPat, TermPat),
    /// Conjunction.
    And(Box<Cond>, Box<Cond>),
    /// Disjunction.
    Or(Box<Cond>, Box<Cond>),
}

/// A parsed SPARQL query.
#[derive(Debug, Clone)]
pub struct SparqlQuery {
    /// Projected variables; empty = `*` (all, sorted).
    pub vars: Vec<String>,
    /// `COUNT(*)` projection with the output variable name.
    pub count: Option<String>,
    /// Basic graph pattern.
    pub patterns: Vec<TriplePattern>,
    /// Filters.
    pub filters: Vec<Cond>,
    /// Remove duplicate rows.
    pub distinct: bool,
    /// Sort variable.
    pub order_by: Option<String>,
    /// Row cap.
    pub limit: Option<usize>,
}

/// Parses a SPARQL query.
pub fn parse(src: &str) -> Result<SparqlQuery> {
    let mut c = Cursor::lex(DIALECT, src, true)?;
    c.expect_keyword("select")?;
    let mut q = SparqlQuery {
        vars: Vec::new(),
        count: None,
        patterns: Vec::new(),
        filters: Vec::new(),
        distinct: false,
        order_by: None,
        limit: None,
    };
    if c.eat_keyword("distinct") {
        q.distinct = true;
    }
    let mut star = false;
    loop {
        match c.peek().clone() {
            TokenKind::QVar(v) => {
                c.bump();
                q.vars.push(v);
            }
            TokenKind::Punct("*") => {
                c.bump();
                star = true;
                break;
            }
            TokenKind::Punct("(") => {
                c.bump();
                c.expect_keyword("count")?;
                c.expect_punct("(")?;
                c.expect_punct("*")?;
                c.expect_punct(")")?;
                c.expect_keyword("as")?;
                let TokenKind::QVar(v) = c.bump() else {
                    return Err(c.error("expected ?var after AS"));
                };
                c.expect_punct(")")?;
                q.count = Some(v);
            }
            _ => break,
        }
    }
    if q.vars.is_empty() && q.count.is_none() && !star {
        return Err(c.error("SELECT needs ?vars, *, or (COUNT(*) AS ?v)"));
    }
    c.expect_keyword("where")?;
    c.expect_punct("{")?;
    loop {
        if c.eat_punct("}") {
            break;
        }
        if c.at_eof() {
            return Err(c.error("unterminated graph pattern"));
        }
        if c.eat_keyword("filter") {
            c.expect_punct("(")?;
            let cond = parse_cond(&mut c)?;
            c.expect_punct(")")?;
            q.filters.push(cond);
            c.eat_punct(".");
            continue;
        }
        let s = parse_term(&mut c)?;
        let p = parse_term(&mut c)?;
        let o = parse_term(&mut c)?;
        q.patterns.push(TriplePattern { s, p, o });
        c.eat_punct(".");
    }
    if c.eat_keyword("order") {
        c.expect_keyword("by")?;
        let TokenKind::QVar(v) = c.bump() else {
            return Err(c.error("expected ?var after ORDER BY"));
        };
        q.order_by = Some(v);
    }
    if c.eat_keyword("limit") {
        match c.bump() {
            TokenKind::Int(i) if i >= 0 => q.limit = Some(i as usize),
            other => return Err(c.error(format!("expected limit count, found {other:?}"))),
        }
    }
    if !c.at_eof() {
        return Err(c.error(format!("unexpected trailing input: {:?}", c.peek())));
    }
    if q.patterns.is_empty() {
        return Err(c.error("empty graph pattern"));
    }
    Ok(q)
}

fn parse_term(c: &mut Cursor) -> Result<TermPat> {
    match c.bump() {
        TokenKind::QVar(v) => Ok(TermPat::Var(v)),
        TokenKind::AngleQuoted(iri) => Ok(TermPat::Const(Term::Iri(iri))),
        TokenKind::Ident(name) => Ok(TermPat::Const(Term::Iri(name))),
        TokenKind::Str(s) => Ok(TermPat::Const(Term::Literal(s))),
        TokenKind::Int(i) => Ok(TermPat::Const(Term::Literal(i.to_string()))),
        TokenKind::Float(f) => Ok(TermPat::Const(Term::Literal(f.to_string()))),
        other => Err(c.error(format!("expected term, found {other:?}"))),
    }
}

fn parse_cond(c: &mut Cursor) -> Result<Cond> {
    let mut lhs = parse_cmp(c)?;
    loop {
        if c.eat_keyword("and") {
            lhs = Cond::And(Box::new(lhs), Box::new(parse_cmp(c)?));
        } else if c.eat_keyword("or") {
            lhs = Cond::Or(Box::new(lhs), Box::new(parse_cmp(c)?));
        } else {
            return Ok(lhs);
        }
    }
}

fn parse_cmp(c: &mut Cursor) -> Result<Cond> {
    let lhs = parse_term(c)?;
    let op: &'static str = if c.eat_punct("=") {
        "="
    } else if c.eat_punct("!=") {
        "!="
    } else if c.eat_punct("<=") {
        "<="
    } else if c.eat_punct(">=") {
        ">="
    } else if c.eat_punct(">") {
        ">"
    } else if c.eat_punct("<") {
        "<"
    } else {
        return Err(c.error("expected comparison operator (=, !=, <, <=, >=, >)"));
    };
    let rhs = parse_term(c)?;
    Ok(Cond::Cmp(op, lhs, rhs))
}

// ---------------------------------------------------------------------
// Evaluation
// ---------------------------------------------------------------------

/// Matches a basic graph pattern (module docs). Returns what each
/// column stands for — the pattern's nodes, then the variables seen
/// only as predicates — and one row of term ids per solution.
fn solve<'q>(
    g: &RdfGraph,
    patterns: &'q [TriplePattern],
    guard: &ExecutionGuard,
) -> Result<(Vec<&'q TermPat>, Vec<Vec<u32>>)> {
    let mut keys: Vec<&TermPat> = Vec::new();
    let mut pattern = Pattern::new();
    pattern.homomorphic = true;
    let mut domains = Domains::new();
    for tp in patterns {
        let [s, o] = [&tp.s, &tp.o].map(|at| {
            if let Some(column) = keys.iter().position(|k| *k == at) {
                return column;
            }
            keys.push(at);
            let id = match at {
                TermPat::Var(_) => None,
                TermPat::Const(t) => Some(g.term_id(t)),
            };
            domains.push(id.map(|id| id.map(|id| NodeId(id.into())).into_iter().collect()));
            // Named by column, so that no executor folds two together.
            pattern.node(PatternNode::var((keys.len() - 1).to_string()))
        });
        let label = match &tp.p {
            TermPat::Const(t @ Term::Iri(iri)) if g.term_id(t).is_some() => Some(iri.as_str()),
            TermPat::Const(_) => return Ok((Vec::new(), Vec::new())),
            TermPat::Var(_) => None,
        };
        pattern.edge(s, o, label)?;
    }
    // With no constant subject or object the planner would seed from
    // every node; seed the object of the first constant predicate from
    // that predicate's index instead, as a triple store reads it.
    if domains.iter().all(Option::is_none) {
        let first = patterns
            .iter()
            .zip(&pattern.edges)
            .find_map(|(tp, e)| match &tp.p {
                TermPat::Const(p) => Some((p, e.to)),
                TermPat::Var(_) => None,
            });
        if let Some((p, o)) = first {
            // The index lists a predicate's triples by object.
            let triples = g.match_pattern(None, Some(p), None);
            let mut objects: Vec<NodeId> = triples.iter().map(|t| NodeId(t.2.into())).collect();
            objects.dedup();
            domains[o] = Some(objects);
        }
    }
    // A predicate variable takes a column once every node has one.
    let mut predicates = Vec::new();
    for (tp, e) in patterns.iter().zip(&pattern.edges) {
        if let TermPat::Var(_) = tp.p {
            let p = keys.iter().position(|k| **k == tp.p).unwrap_or_else(|| {
                keys.push(&tp.p);
                keys.len() - 1
            });
            predicates.push([e.from, e.to, p]);
        }
    }
    let mut solutions = Vec::new();
    for matched in match_pattern_seeded(g, &pattern, &domains, guard)?.rows() {
        // The view's node ids are term ids. A predicate column holds
        // `u32::MAX`, which no term has, until it is bound.
        let mut rows = vec![matched.iter().map(|n| n.raw() as u32).collect::<Vec<_>>()];
        rows[0].resize(keys.len(), u32::MAX);
        for &[s, o, p] in &predicates {
            let mut bound = Vec::new();
            for row in rows {
                for t in g.predicates_between(row[s], row[o]) {
                    if row[p] == u32::MAX || row[p] == t {
                        let mut next = row.clone();
                        next[p] = t;
                        bound.push(next);
                    }
                }
            }
            rows = bound;
        }
        solutions.extend(rows);
    }
    Ok((keys, solutions))
}

/// Executes `query` against `g` under `guard`: its basic graph pattern
/// is matched by [`match_pattern_seeded`], which charges the guard and
/// returns [`GdmError::Interrupted`] when a limit trips.
pub fn evaluate(g: &RdfGraph, query: &SparqlQuery, guard: &ExecutionGuard) -> Result<ResultSet> {
    let (keys, mut solutions) = solve(g, &query.patterns, guard)?;
    let var_name = |k: &&TermPat| match k {
        TermPat::Var(v) => Some(v.clone()),
        TermPat::Const(_) => None,
    };
    let value = |row: &[u32], var: &str| {
        let c = keys
            .iter()
            .position(|k| matches!(k, TermPat::Var(v) if v == var))?;
        Some(
            g.term(row[c])
                .expect("a solution binds interned terms")
                .value(),
        )
    };
    for f in &query.filters {
        solutions.retain(|row| eval_cond(&|var| value(row, var), f));
    }
    if let Some(cv) = &query.count {
        return Ok(ResultSet {
            columns: vec![cv.clone()],
            rows: vec![vec![Value::Int(solutions.len() as i64)]],
        });
    }
    let mut columns = query.vars.clone();
    if columns.is_empty() && !solutions.is_empty() {
        columns = keys.iter().filter_map(var_name).collect();
        columns.sort();
    }
    let mut rows: Vec<Vec<Value>> = solutions
        .iter()
        .map(|row| {
            columns
                .iter()
                .map(|c| value(row, c).unwrap_or(Value::Null))
                .collect()
        })
        .collect();
    // Deterministic base order.
    rows.sort_by_cached_key(|r| format!("{r:?}"));
    if query.distinct {
        let mut seen = std::collections::BTreeSet::new();
        rows.retain(|r| seen.insert(format!("{r:?}")));
    }
    if let Some(ov) = &query.order_by {
        let idx = columns.iter().position(|c| c == ov).ok_or_else(|| {
            GdmError::InvalidArgument(format!("ORDER BY variable ?{ov} is not projected"))
        })?;
        rows.sort_by(|a, b| a[idx].total_cmp(&b[idx]));
    }
    if let Some(limit) = query.limit {
        rows.truncate(limit);
    }
    Ok(ResultSet { columns, rows })
}

/// Evaluates a filter condition, reading variables through `var`.
fn eval_cond(var: &dyn Fn(&str) -> Option<Value>, cond: &Cond) -> bool {
    match cond {
        Cond::And(l, r) => eval_cond(var, l) && eval_cond(var, r),
        Cond::Or(l, r) => eval_cond(var, l) || eval_cond(var, r),
        Cond::Cmp(op, lhs, rhs) => {
            let operand = |pat: &TermPat| match pat {
                TermPat::Const(t) => Some(t.value()),
                TermPat::Var(v) => var(v),
            };
            let (Some(lv), Some(rv)) = (operand(lhs), operand(rhs)) else {
                return false;
            };
            match *op {
                "=" => lv.loose_eq(&rv),
                "!=" => !lv.loose_eq(&rv),
                _ => lv.compare(&rv).is_some_and(|ord| match *op {
                    "<" => ord.is_lt(),
                    "<=" => ord.is_le(),
                    ">" => ord.is_gt(),
                    ">=" => ord.is_ge(),
                    _ => false,
                }),
            }
        }
    }
}

/// Parses and evaluates in one step, unbounded: no limit of an
/// [`ExecutionGuard`] applies.
pub fn query(g: &RdfGraph, src: &str) -> Result<ResultSet> {
    evaluate(g, &parse(src)?, &ExecutionGuard::unlimited())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn family() -> RdfGraph {
        let mut g = RdfGraph::new();
        let parent = Term::iri("parent");
        let age = Term::iri("age");
        for (a, b) in [("ana", "ben"), ("ana", "bea"), ("ben", "cleo")] {
            g.add(&Term::iri(a), &parent, &Term::iri(b)).unwrap();
        }
        g.add(&Term::iri("ana"), &age, &Term::lit("62")).unwrap();
        g.add(&Term::iri("ben"), &age, &Term::lit("35")).unwrap();
        g
    }

    #[test]
    fn single_pattern() {
        let g = family();
        let rs = query(&g, "SELECT ?c WHERE { <ana> <parent> ?c }").unwrap();
        assert_eq!(rs.len(), 2);
        let kids: Vec<&str> = rs.rows.iter().filter_map(|r| r[0].as_str()).collect();
        assert_eq!(kids, vec!["bea", "ben"]);
    }

    #[test]
    fn join_two_patterns() {
        let g = family();
        let rs = query(
            &g,
            "SELECT ?g ?gc WHERE { ?g <parent> ?c . ?c <parent> ?gc }",
        )
        .unwrap();
        assert_eq!(rs.len(), 1);
        assert_eq!(rs.get(0, "g").unwrap().as_str(), Some("ana"));
        assert_eq!(rs.get(0, "gc").unwrap().as_str(), Some("cleo"));
    }

    #[test]
    fn filters_numeric() {
        let g = family();
        let rs = query(&g, "SELECT ?p WHERE { ?p <age> ?a . FILTER(?a > 40) }").unwrap();
        assert_eq!(rs.len(), 1);
        assert_eq!(rs.rows[0][0].as_str(), Some("ana"));
    }

    #[test]
    fn filter_inequality_on_terms() {
        let g = family();
        let rs = query(
            &g,
            "SELECT ?a ?b WHERE { ?x <parent> ?a . ?x <parent> ?b . FILTER(?a != ?b) }",
        )
        .unwrap();
        assert_eq!(rs.len(), 2, "(ben,bea) and (bea,ben)");
    }

    #[test]
    fn count_star() {
        let g = family();
        let rs = query(&g, "SELECT (COUNT(*) AS ?n) WHERE { ?x <parent> ?y }").unwrap();
        assert_eq!(rs.get(0, "n"), Some(&Value::Int(3)));
    }

    #[test]
    fn select_star_orders_columns() {
        let g = family();
        let rs = query(&g, "SELECT * WHERE { ?x <parent> ?y }").unwrap();
        assert_eq!(rs.columns, vec!["x", "y"]);
        assert_eq!(rs.len(), 3);
    }

    #[test]
    fn distinct_and_limit() {
        let g = family();
        let rs = query(
            &g,
            "SELECT DISTINCT ?x WHERE { ?x <parent> ?y } ORDER BY ?x LIMIT 1",
        )
        .unwrap();
        assert_eq!(rs.len(), 1);
        assert_eq!(rs.rows[0][0].as_str(), Some("ana"));
    }

    #[test]
    fn literal_constants_match() {
        let g = family();
        let rs = query(&g, "SELECT ?p WHERE { ?p <age> '35' }").unwrap();
        assert_eq!(rs.len(), 1);
        assert_eq!(rs.rows[0][0].as_str(), Some("ben"));
    }

    #[test]
    fn bare_idents_are_iris() {
        let g = family();
        let rs = query(&g, "SELECT ?c WHERE { ana parent ?c }").unwrap();
        assert_eq!(rs.len(), 2);
    }

    #[test]
    fn filter_conjunction() {
        let g = family();
        let rs = query(
            &g,
            "SELECT ?p WHERE { ?p <age> ?a . FILTER(?a > 30 AND ?a <= 35) }",
        )
        .unwrap();
        assert_eq!(rs.len(), 1);
        assert_eq!(rs.rows[0][0].as_str(), Some("ben"));
    }

    #[test]
    fn parse_errors() {
        assert!(parse("SELECT WHERE { ?x <p> ?y }").is_err());
        assert!(parse("SELECT ?x { ?x <p> ?y }").is_err());
        assert!(parse("SELECT ?x WHERE { }").is_err());
        assert!(parse("SELECT ?x WHERE { ?x <p> }").is_err());
        assert!(parse("SELECT ?x WHERE { ?x <p> ?y").is_err());
    }

    #[test]
    fn unbound_order_by_is_an_error() {
        let g = family();
        assert!(query(&g, "SELECT ?x WHERE { ?x <parent> ?y } ORDER BY ?z").is_err());
    }
}
