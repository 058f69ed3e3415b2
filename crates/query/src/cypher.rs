//! A Cypher-like query language (Neo4j).
//!
//! The paper records Neo4j's query language as *in development* and
//! marks it `◦` (partial support) in Table V: "Neo4j is developing
//! Cypher, a query language for property graphs." This front-end
//! matches that status deliberately: the core read/create forms parse
//! and run, while the larger language surface (`WITH`, `OPTIONAL
//! MATCH`, `MERGE`, `UNION`, subqueries) is rejected with a parse
//! error naming the unsupported form — exactly the partial-support
//! story the comparison harness probes.
//!
//! Supported grammar:
//!
//! ```text
//! query   := MATCH pattern (',' pattern)* [WHERE expr]
//!            RETURN [DISTINCT] proj (',' proj)*
//!            [ORDER BY expr [ASC|DESC]] [SKIP n] [LIMIT n]
//!          | CREATE node-pat (',' node-pat)*
//! pattern := node-pat (edge node-pat)*
//! node-pat:= '(' [var] [':' label] [props] ')'
//! edge    := '-[' [':' type] [hops] ']->' | '<-[...]-' | '-[...]-'
//! hops    := '*' min '..' max | '*' '..' max | '*' n      (an upper bound is required)
//! props   := '{' key ':' literal (',' key ':' literal)* '}'
//! proj    := expr [AS name] | count '(' '*' | expr ')' | sum/avg/min/max '(' expr ')'
//! ```

use crate::ast::{BinOp, Expr, Projection, SelectQuery, VarLengthEdge};
use crate::lex::{Cursor, TokenKind};
use gdm_algo::pattern::PatternNode;
use gdm_algo::summary::parse_aggregate;
use gdm_core::{Direction, PropertyMap, Result, Value};

const DIALECT: &str = "cypher";

/// A parsed Cypher statement.
#[derive(Debug, Clone)]
pub enum CypherStatement {
    /// A read query lowered to the shared algebra.
    Select(Box<SelectQuery>),
    /// `CREATE (...)` — nodes (optionally connected) to insert.
    Create(Vec<CreateItem>),
}

/// One element of a `CREATE` clause.
#[derive(Debug, Clone)]
pub struct CreateItem {
    /// Nodes in the created chain: `(var?, label, properties)`.
    pub nodes: Vec<(Option<String>, String, PropertyMap)>,
    /// Edges between consecutive nodes: `(rel type, properties)`.
    pub edges: Vec<(String, PropertyMap)>,
}

/// Keywords the full language has but this partial dialect does not.
const UNSUPPORTED: &[&str] = &[
    "with", "optional", "merge", "union", "unwind", "call", "foreach", "set", "delete", "remove",
];

/// Parses one Cypher statement.
pub fn parse(src: &str) -> Result<CypherStatement> {
    let mut c = Cursor::lex(DIALECT, src, false)?;
    for kw in UNSUPPORTED {
        if c.at_keyword(kw) {
            return Err(c.error(format!(
                "{} is not supported by this partial Cypher implementation \
                 (the paper marks Neo4j's query language as partial)",
                kw.to_uppercase()
            )));
        }
    }
    if c.at_keyword("create") {
        c.bump();
        let stmt = parse_create(&mut c)?;
        expect_eof(&c)?;
        return Ok(CypherStatement::Create(stmt));
    }
    c.expect_keyword("match")?;
    let mut query = SelectQuery::default();
    loop {
        parse_path_pattern(&mut c, &mut query)?;
        if !c.eat_punct(",") {
            break;
        }
    }
    for kw in UNSUPPORTED {
        if c.at_keyword(kw) {
            return Err(c.error(format!(
                "{} is not supported by this partial Cypher implementation",
                kw.to_uppercase()
            )));
        }
    }
    if c.eat_keyword("where") {
        query.filter = Some(parse_expr(&mut c)?);
    }
    c.expect_keyword("return")?;
    if c.eat_keyword("distinct") {
        query.distinct = true;
    }
    loop {
        query.projections.push(parse_projection(&mut c)?);
        if !c.eat_punct(",") {
            break;
        }
    }
    // Cypher's implicit grouping: when RETURN mixes aggregates with
    // plain items, the plain items become the grouping keys.
    let has_agg = query.projections.iter().any(Projection::is_aggregate);
    if has_agg {
        query.group_by = query
            .projections
            .iter()
            .filter_map(|p| match p {
                Projection::Expr { expr, .. } => Some(expr.clone()),
                Projection::Aggregate { .. } => None,
            })
            .collect();
    }
    if c.eat_keyword("order") {
        c.expect_keyword("by")?;
        let key = parse_expr(&mut c)?;
        let asc = if c.eat_keyword("desc") {
            false
        } else {
            c.eat_keyword("asc");
            true
        };
        query.order_by = Some((key, asc));
    }
    if c.eat_keyword("skip") {
        query.skip = parse_usize(&mut c)?;
    }
    if c.eat_keyword("limit") {
        query.limit = Some(parse_usize(&mut c)?);
    }
    expect_eof(&c)?;
    query.validate()?;
    Ok(CypherStatement::Select(Box::new(query)))
}

fn expect_eof(c: &Cursor) -> Result<()> {
    if c.at_eof() {
        Ok(())
    } else {
        Err(c.error(format!("unexpected trailing input: {:?}", c.peek())))
    }
}

fn parse_usize(c: &mut Cursor) -> Result<usize> {
    match c.bump() {
        TokenKind::Int(i) if i >= 0 => Ok(i as usize),
        other => Err(c.error(format!("expected non-negative integer, found {other:?}"))),
    }
}

// ---- MATCH patterns --------------------------------------------------

fn parse_path_pattern(c: &mut Cursor, query: &mut SelectQuery) -> Result<()> {
    let mut prev = parse_node_pattern(c, query)?;
    loop {
        // Edge?
        let (direction_left, has_edge) = if c.eat_punct("<-") {
            (true, true)
        } else if c.eat_punct("-") {
            (false, true)
        } else {
            (false, false)
        };
        if !has_edge {
            return Ok(());
        }
        let mut label = None;
        let mut var_len: Option<(usize, usize)> = None;
        if c.eat_punct("[") {
            if c.eat_punct(":") {
                label = Some(c.expect_ident()?);
            }
            if c.eat_punct("*") {
                // `*min..max`, `*..max` (from 1) or `*n` (exactly n).
                let bound = |c: &mut Cursor| match c.peek() {
                    TokenKind::Int(_) => parse_usize(c).map(Some),
                    _ => Ok(None),
                };
                let min = bound(c)?;
                let max = if c.eat_punct("..") { bound(c)? } else { min };
                let Some(max) = max else {
                    return Err(c.error(
                        "a variable-length relationship requires an upper bound: \
                         write `*1..N`, `*..N` or `*N` (unbounded `*` is not supported)",
                    ));
                };
                var_len = Some((min.unwrap_or(1).max(1), max));
            }
            c.expect_punct("]")?;
        }
        // Closing arrow.
        let direction = if direction_left {
            c.expect_punct("-")?;
            Direction::Incoming
        } else if c.eat_punct("->") {
            Direction::Outgoing
        } else if c.eat_punct("-") {
            Direction::Both
        } else {
            return Err(c.error("expected '->' or '-' to close the relationship"));
        };
        let next = parse_node_pattern(c, query)?;
        match var_len {
            Some((min, max)) => query.var_paths.push(VarLengthEdge {
                from: prev.clone(),
                to: next.clone(),
                label,
                direction,
                min,
                max,
            }),
            None => {
                let from_idx = var_index(query, &prev);
                let to_idx = var_index(query, &next);
                let (a, b) = match direction {
                    Direction::Incoming => (to_idx, from_idx),
                    _ => (from_idx, to_idx),
                };
                if direction == Direction::Both {
                    query.pattern.edge_undirected(a, b, label.as_deref())?;
                } else {
                    query.pattern.edge(a, b, label.as_deref())?;
                }
            }
        }
        prev = next;
    }
}

fn var_index(query: &SelectQuery, var: &str) -> usize {
    query
        .pattern
        .nodes
        .iter()
        .position(|n| n.var == var)
        .expect("node patterns register variables before edges use them")
}

/// Counter for anonymous node variables.
fn fresh_var(query: &SelectQuery) -> String {
    format!("_anon{}", query.pattern.nodes.len())
}

fn parse_node_pattern(c: &mut Cursor, query: &mut SelectQuery) -> Result<String> {
    c.expect_punct("(")?;
    let var = match c.peek().clone() {
        TokenKind::Ident(name) => {
            c.bump();
            name
        }
        _ => fresh_var(query),
    };
    // Re-reference of an existing variable: `(a)` after it was declared.
    let existing = query.pattern.nodes.iter().any(|n| n.var == var);
    let mut node = PatternNode::var(var.clone());
    if c.eat_punct(":") {
        node = node.with_label(c.expect_ident()?);
    }
    if matches!(c.peek(), TokenKind::Punct("{")) {
        for (k, v) in parse_props(c)? {
            node = node.with_prop(k, v);
        }
    }
    c.expect_punct(")")?;
    if existing {
        if node.label.is_some() || !node.props.is_empty() {
            return Err(c.error(format!(
                "variable {var:?} was already declared; re-references take no constraints"
            )));
        }
    } else {
        query.pattern.node(node);
    }
    Ok(var)
}

fn parse_props(c: &mut Cursor) -> Result<Vec<(String, Value)>> {
    c.expect_punct("{")?;
    let mut out = Vec::new();
    if !c.eat_punct("}") {
        loop {
            let key = c.expect_ident()?;
            c.expect_punct(":")?;
            let value = parse_literal(c)?;
            out.push((key, value));
            if !c.eat_punct(",") {
                break;
            }
        }
        c.expect_punct("}")?;
    }
    Ok(out)
}

fn parse_literal(c: &mut Cursor) -> Result<Value> {
    match c.bump() {
        TokenKind::Str(s) => Ok(Value::Str(s)),
        TokenKind::Int(i) => Ok(Value::Int(i)),
        TokenKind::Float(f) => Ok(Value::Float(f)),
        TokenKind::Punct("-") => match c.bump() {
            TokenKind::Int(i) => Ok(Value::Int(-i)),
            TokenKind::Float(f) => Ok(Value::Float(-f)),
            other => Err(c.error(format!("expected number after '-', found {other:?}"))),
        },
        TokenKind::Ident(s) if s.eq_ignore_ascii_case("true") => Ok(Value::Bool(true)),
        TokenKind::Ident(s) if s.eq_ignore_ascii_case("false") => Ok(Value::Bool(false)),
        TokenKind::Ident(s) if s.eq_ignore_ascii_case("null") => Ok(Value::Null),
        other => Err(c.error(format!("expected literal, found {other:?}"))),
    }
}

// ---- expressions -----------------------------------------------------

/// Entry point shared with the GQL dialect, whose expression grammar
/// is token-for-token identical.
pub fn parse_expr_for_dialect(c: &mut Cursor) -> Result<Expr> {
    parse_expr(c)
}

fn parse_expr(c: &mut Cursor) -> Result<Expr> {
    parse_or(c)
}

fn parse_or(c: &mut Cursor) -> Result<Expr> {
    let mut lhs = parse_and(c)?;
    while c.eat_keyword("or") {
        let rhs = parse_and(c)?;
        lhs = Expr::bin(BinOp::Or, lhs, rhs);
    }
    Ok(lhs)
}

fn parse_and(c: &mut Cursor) -> Result<Expr> {
    let mut lhs = parse_not(c)?;
    while c.eat_keyword("and") {
        let rhs = parse_not(c)?;
        lhs = Expr::bin(BinOp::And, lhs, rhs);
    }
    Ok(lhs)
}

fn parse_not(c: &mut Cursor) -> Result<Expr> {
    if c.eat_keyword("not") {
        Ok(Expr::Not(Box::new(parse_not(c)?)))
    } else {
        parse_cmp(c)
    }
}

fn parse_cmp(c: &mut Cursor) -> Result<Expr> {
    let lhs = parse_additive(c)?;
    let op = if c.eat_punct("<=") {
        Some(BinOp::Le)
    } else if c.eat_punct(">=") {
        Some(BinOp::Ge)
    } else if c.eat_punct("<>") || c.eat_punct("!=") {
        Some(BinOp::Ne)
    } else if c.eat_punct("=") {
        Some(BinOp::Eq)
    } else if c.eat_punct("<") {
        Some(BinOp::Lt)
    } else if c.eat_punct(">") {
        Some(BinOp::Gt)
    } else {
        None
    };
    match op {
        Some(op) => {
            let rhs = parse_additive(c)?;
            Ok(Expr::bin(op, lhs, rhs))
        }
        None => Ok(lhs),
    }
}

fn parse_additive(c: &mut Cursor) -> Result<Expr> {
    let mut lhs = parse_multiplicative(c)?;
    loop {
        if c.eat_punct("+") {
            lhs = Expr::bin(BinOp::Add, lhs, parse_multiplicative(c)?);
        } else if c.eat_punct("-") {
            lhs = Expr::bin(BinOp::Sub, lhs, parse_multiplicative(c)?);
        } else {
            return Ok(lhs);
        }
    }
}

fn parse_multiplicative(c: &mut Cursor) -> Result<Expr> {
    let mut lhs = parse_primary(c)?;
    loop {
        if c.eat_punct("*") {
            lhs = Expr::bin(BinOp::Mul, lhs, parse_primary(c)?);
        } else if c.eat_punct("/") {
            lhs = Expr::bin(BinOp::Div, lhs, parse_primary(c)?);
        } else {
            return Ok(lhs);
        }
    }
}

fn parse_primary(c: &mut Cursor) -> Result<Expr> {
    if c.eat_punct("(") {
        let inner = parse_expr(c)?;
        c.expect_punct(")")?;
        return Ok(inner);
    }
    match c.peek().clone() {
        TokenKind::Ident(name)
            if !name.eq_ignore_ascii_case("true")
                && !name.eq_ignore_ascii_case("false")
                && !name.eq_ignore_ascii_case("null") =>
        {
            c.bump();
            if c.eat_punct(".") {
                let key = c.expect_ident()?;
                Ok(Expr::Prop(name, key))
            } else {
                Ok(Expr::Var(name))
            }
        }
        _ => Ok(Expr::Lit(parse_literal(c)?)),
    }
}

// ---- projections -----------------------------------------------------

fn parse_projection(c: &mut Cursor) -> Result<Projection> {
    // Aggregate function?
    if let TokenKind::Ident(name) = c.peek().clone() {
        if let Some(agg) = parse_aggregate(&name) {
            // Aggregates use call syntax; bump the name and check for
            // '(' — when absent, the name was an ordinary variable.
            c.bump();
            if c.eat_punct("(") {
                let expr = if c.eat_punct("*") {
                    None
                } else {
                    Some(parse_expr(c)?)
                };
                c.expect_punct(")")?;
                let col = if c.eat_keyword("as") {
                    c.expect_ident()?
                } else {
                    name.to_lowercase()
                };
                return Ok(Projection::Aggregate {
                    name: col,
                    agg,
                    expr,
                });
            }
            // Not a call: treat as variable reference.
            let expr = if c.eat_punct(".") {
                let key = c.expect_ident()?;
                Expr::Prop(name.clone(), key)
            } else {
                Expr::Var(name.clone())
            };
            let col = if c.eat_keyword("as") {
                c.expect_ident()?
            } else {
                name
            };
            return Ok(Projection::Expr { name: col, expr });
        }
    }
    let expr = parse_expr(c)?;
    let col = if c.eat_keyword("as") {
        c.expect_ident()?
    } else {
        default_name(&expr)
    };
    Ok(Projection::Expr { name: col, expr })
}

fn default_name(expr: &Expr) -> String {
    match expr {
        Expr::Var(v) => v.clone(),
        Expr::Prop(v, k) => format!("{v}.{k}"),
        _ => "expr".to_owned(),
    }
}

// ---- CREATE ----------------------------------------------------------

fn parse_create(c: &mut Cursor) -> Result<Vec<CreateItem>> {
    let mut items = Vec::new();
    loop {
        let mut item = CreateItem {
            nodes: Vec::new(),
            edges: Vec::new(),
        };
        parse_create_node(c, &mut item)?;
        loop {
            if c.eat_punct("-") {
                c.expect_punct("[")?;
                c.expect_punct(":")?;
                let rel = c.expect_ident()?;
                let props = if matches!(c.peek(), TokenKind::Punct("{")) {
                    props_to_map(parse_props(c)?)
                } else {
                    PropertyMap::new()
                };
                c.expect_punct("]")?;
                c.expect_punct("->")?;
                item.edges.push((rel, props));
                parse_create_node(c, &mut item)?;
            } else {
                break;
            }
        }
        items.push(item);
        if !c.eat_punct(",") {
            break;
        }
    }
    Ok(items)
}

fn parse_create_node(c: &mut Cursor, item: &mut CreateItem) -> Result<()> {
    c.expect_punct("(")?;
    let var = match c.peek().clone() {
        TokenKind::Ident(name) => {
            c.bump();
            Some(name)
        }
        _ => None,
    };
    c.expect_punct(":")?;
    let label = c.expect_ident()?;
    let props = if matches!(c.peek(), TokenKind::Punct("{")) {
        props_to_map(parse_props(c)?)
    } else {
        PropertyMap::new()
    };
    c.expect_punct(")")?;
    item.nodes.push((var, label, props));
    Ok(())
}

fn props_to_map(pairs: Vec<(String, Value)>) -> PropertyMap {
    pairs.into_iter().collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::evaluate_select;
    use gdm_core::props;
    use gdm_graphs::PropertyGraph;

    fn social() -> PropertyGraph {
        let mut g = PropertyGraph::new();
        let ada = g.add_node("person", props! { "name" => "ada", "age" => 36 });
        let bob = g.add_node("person", props! { "name" => "bob", "age" => 25 });
        let cleo = g.add_node("person", props! { "name" => "cleo", "age" => 41 });
        let acme = g.add_node("company", props! { "name" => "acme" });
        g.add_edge(ada, bob, "knows", props! { "since" => 2001 })
            .unwrap();
        g.add_edge(bob, cleo, "knows", props! {}).unwrap();
        g.add_edge(ada, acme, "works_at", props! {}).unwrap();
        g
    }

    fn run(g: &PropertyGraph, src: &str) -> crate::eval::ResultSet {
        match parse(src).unwrap() {
            CypherStatement::Select(q) => evaluate_select(g, &q).unwrap(),
            CypherStatement::Create(_) => panic!("expected select"),
        }
    }

    #[test]
    fn match_label_return_property() {
        let g = social();
        let rs = run(&g, "MATCH (p:person) RETURN p.name");
        assert_eq!(rs.columns, vec!["p.name"]);
        assert_eq!(rs.len(), 3);
    }

    #[test]
    fn match_with_inline_props_and_where() {
        let g = social();
        let rs = run(
            &g,
            "MATCH (p:person) WHERE p.age > 30 AND p.name <> 'cleo' RETURN p.name AS who",
        );
        assert_eq!(rs.columns, vec!["who"]);
        assert_eq!(rs.len(), 1);
        assert_eq!(rs.rows[0][0], Value::from("ada"));
    }

    #[test]
    fn relationship_pattern() {
        let g = social();
        let rs = run(
            &g,
            "MATCH (a:person {name: 'ada'})-[:knows]->(b) RETURN b.name",
        );
        assert_eq!(rs.len(), 1);
        assert_eq!(rs.rows[0][0], Value::from("bob"));
    }

    #[test]
    fn incoming_relationship() {
        let g = social();
        let rs = run(&g, "MATCH (a)<-[:knows]-(b) RETURN a.name, b.name");
        assert_eq!(rs.len(), 2);
    }

    #[test]
    fn variable_length_path() {
        let g = social();
        let rs = run(
            &g,
            "MATCH (a:person {name: 'ada'})-[:knows*1..2]->(b:person) RETURN b.name ORDER BY b.name",
        );
        let names: Vec<&str> = rs.rows.iter().map(|r| r[0].as_str().unwrap()).collect();
        assert_eq!(names, vec!["bob", "cleo"]);
    }

    #[test]
    fn variable_length_path_honours_the_relationship_direction() {
        // d -> a -> b -> c
        let mut g = PropertyGraph::new();
        let [d, a, b, c] = ["d", "a", "b", "c"].map(|n| g.add_node("n", props! { "name" => n }));
        for (from, to) in [(d, a), (a, b), (b, c)] {
            g.add_edge(from, to, "knows", props! {}).unwrap();
        }
        let reached = |edge: &str| -> Vec<String> {
            let query = format!("MATCH (x {{name: 'a'}}){edge}(y) RETURN y.name ORDER BY y.name");
            let rows = run(&g, &query).rows;
            rows.iter()
                .map(|r| r[0].as_str().unwrap().to_owned())
                .collect()
        };
        assert_eq!(reached("-[:knows*1..2]->"), ["b", "c"]);
        assert_eq!(reached("<-[:knows*1..2]-"), ["d"]);
        // Undirected: either orientation per hop, so `d` is one hop away.
        assert_eq!(reached("-[:knows*1..2]-"), ["b", "c", "d"]);
    }

    #[test]
    fn variable_length_bounds_spellings() {
        let hops = |edge: &str| {
            let stmt = parse(&format!("MATCH (a)-[:knows{edge}]->(b) RETURN b"));
            stmt.map(|stmt| match stmt {
                CypherStatement::Select(q) => (q.var_paths[0].min, q.var_paths[0].max),
                CypherStatement::Create(_) => panic!("expected select"),
            })
        };
        assert_eq!(hops("*1..3").unwrap(), (1, 3));
        assert_eq!(hops("*2..3").unwrap(), (2, 3));
        assert_eq!(hops("*..3").unwrap(), (1, 3));
        assert_eq!(hops("*3").unwrap(), (3, 3));
        // Cypher's unbounded forms are refused, not read as one hop.
        for unbounded in ["*", "*2.."] {
            let err = hops(unbounded).unwrap_err().to_string();
            assert!(
                err.contains("requires an upper bound"),
                "{unbounded}: {err}"
            );
        }
    }

    #[test]
    fn aggregates_and_count_star() {
        let g = social();
        let rs = run(&g, "MATCH (p:person) RETURN count(*) AS n, avg(p.age) AS a");
        assert_eq!(rs.get(0, "n"), Some(&Value::from(3)));
        assert_eq!(rs.get(0, "a"), Some(&Value::from(34.0)));
    }

    #[test]
    fn order_skip_limit() {
        let g = social();
        let rs = run(
            &g,
            "MATCH (p:person) RETURN p.name ORDER BY p.age DESC SKIP 1 LIMIT 1",
        );
        assert_eq!(rs.rows[0][0], Value::from("ada"));
    }

    #[test]
    fn unsupported_forms_fail_loudly() {
        for q in [
            "MATCH (a) WITH a RETURN a",
            "MERGE (a:person) RETURN a",
            "MATCH (a) OPTIONAL MATCH (a)-[:x]->(b) RETURN a",
        ] {
            let err = parse(q).unwrap_err();
            assert!(err.to_string().contains("not supported"), "{q}: {err}");
        }
    }

    #[test]
    fn parse_errors() {
        assert!(parse("MATCH (a RETURN a").is_err());
        assert!(parse("MATCH (a) RETURN").is_err());
        assert!(parse("RETURN 1").is_err());
        assert!(parse("MATCH (a)-[:x*3..1]->(b) RETURN a").is_err());
    }

    #[test]
    fn create_statement_shape() {
        let stmt = parse(
            "CREATE (a:person {name: 'dan'})-[:knows {since: 2020}]->(b:person {name: 'eve'})",
        )
        .unwrap();
        match stmt {
            CypherStatement::Create(items) => {
                assert_eq!(items.len(), 1);
                assert_eq!(items[0].nodes.len(), 2);
                assert_eq!(items[0].edges.len(), 1);
                assert_eq!(items[0].edges[0].0, "knows");
                assert_eq!(items[0].nodes[0].2.get("name"), Some(&Value::from("dan")));
            }
            CypherStatement::Select(_) => panic!("expected create"),
        }
    }

    #[test]
    fn undirected_match() {
        let g = social();
        let rs = run(
            &g,
            "MATCH (a:person {name: 'bob'})-[:knows]-(b) RETURN b.name ORDER BY b.name",
        );
        let names: Vec<&str> = rs.rows.iter().map(|r| r[0].as_str().unwrap()).collect();
        assert_eq!(names, vec!["ada", "cleo"]);
    }

    #[test]
    fn implicit_grouping_cypher_style() {
        let mut g = social();
        // A second company to make groups interesting.
        let n = g.add_node("company", props! { "name" => "orga" });
        let ada = g.nodes_with_label("person")[0];
        g.add_edge(ada, n, "works_at", props! {}).unwrap();
        // Count knows-edges per person label bucket — implicit GROUP BY
        // a.label, the defining Cypher aggregation behaviour.
        let rs = run(
            &g,
            "MATCH (a)-[:knows]->(b) RETURN a.name AS who, count(*) AS n ORDER BY who",
        );
        assert_eq!(rs.columns, vec!["who", "n"]);
        assert_eq!(rs.len(), 2);
        assert_eq!(rs.get(0, "who"), Some(&Value::from("ada")));
        assert_eq!(rs.get(0, "n"), Some(&Value::from(1)));
        assert_eq!(rs.get(1, "who"), Some(&Value::from("bob")));
    }

    #[test]
    fn grouped_aggregates_per_key() {
        let mut g = PropertyGraph::new();
        for (team, score) in [("red", 1), ("red", 3), ("blue", 10)] {
            g.add_node("player", props! { "team" => team, "score" => score });
        }
        let rs = run(
            &g,
            "MATCH (p:player) RETURN p.team AS team, sum(p.score) AS total, count(*) AS n \
             ORDER BY team",
        );
        assert_eq!(rs.len(), 2);
        assert_eq!(rs.get(0, "team"), Some(&Value::from("blue")));
        assert_eq!(rs.get(0, "total"), Some(&Value::from(10)));
        assert_eq!(rs.get(1, "team"), Some(&Value::from("red")));
        assert_eq!(rs.get(1, "total"), Some(&Value::from(4)));
        assert_eq!(rs.get(1, "n"), Some(&Value::from(2)));
    }

    #[test]
    fn reused_variable_joins() {
        let g = social();
        // Triangle query: nobody knows someone who knows them back.
        let rs = run(&g, "MATCH (a)-[:knows]->(b), (b)-[:knows]->(a) RETURN a");
        assert!(rs.is_empty());
    }
}
