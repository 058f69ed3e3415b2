//! Evaluates the shared logical algebra over any attributed graph.
//!
//! The pipeline: match the pattern — variable-length edges included,
//! they are pattern edges the matcher expands (`gdm-algo`) — then, over
//! the rows of the matcher's flat table, filter, project (row,
//! aggregate or grouped), order, skip, limit.
//! Bare variables project as node ids; `var.key` projects the bound
//! node's property; the pseudo-properties `id`, `label`, and `degree`
//! are always available (the paper's engines all expose them through
//! their APIs).

use crate::ast::{BinOp, Expr, Projection, SelectQuery};
use gdm_algo::pattern::{match_pattern, within_hops};
use gdm_algo::summary::{aggregate, Aggregate};
use gdm_algo::MatchTable;
use gdm_core::{AttributedView, FxHashMap, FxHashSet, GdmError, NodeId, Result, Value};
use gdm_govern::ExecutionGuard;
use std::cmp::Ordering;
use std::collections::hash_map::DefaultHasher;
use std::hash::Hasher;

/// A tabular query result.
#[derive(Debug, Clone, PartialEq)]
pub struct ResultSet {
    /// Column names, in projection order.
    pub columns: Vec<String>,
    /// Rows of values.
    pub rows: Vec<Vec<Value>>,
}

impl ResultSet {
    /// Number of rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True when no rows were produced.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// The value at `(row, column-name)`, if present.
    pub fn get(&self, row: usize, column: &str) -> Option<&Value> {
        let idx = self.columns.iter().position(|c| c == column)?;
        self.rows.get(row)?.get(idx)
    }

    /// Renders the result as simple aligned text.
    pub fn to_text(&self) -> String {
        let mut widths: Vec<usize> = self.columns.iter().map(String::len).collect();
        let rendered: Vec<Vec<String>> = self
            .rows
            .iter()
            .map(|r| r.iter().map(ToString::to_string).collect())
            .collect();
        for row in &rendered {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        for (i, c) in self.columns.iter().enumerate() {
            out.push_str(&format!("{:<width$}  ", c, width = widths[i]));
        }
        out.push('\n');
        for row in &rendered {
            for (i, cell) in row.iter().enumerate() {
                out.push_str(&format!("{:<width$}  ", cell, width = widths[i]));
            }
            out.push('\n');
        }
        out
    }
}

/// Executes `query` against `g` through the cost-based planner:
/// equality predicates are pushed into the pattern, each variable is
/// seeded from the view's indexes when they can bound its candidates,
/// and variables are matched smallest-domain first. Result rows are
/// identical to [`evaluate_select_unplanned`]'s.
pub fn evaluate_select<G: AttributedView + ?Sized>(
    g: &G,
    query: &SelectQuery,
) -> Result<ResultSet> {
    crate::plan::evaluate_select_planned(g, query).map(|(rs, _)| rs)
}

/// Executes `query` without planning: full VF2 over all nodes, each
/// variable-length path constraint checked per binding with the
/// reference predicate, the WHERE clause applied only after matching.
/// Kept as the reference path the property tests compare the planner
/// against.
pub fn evaluate_select_unplanned<G: AttributedView + ?Sized>(
    g: &G,
    query: &SelectQuery,
) -> Result<ResultSet> {
    query.validate()?;
    let mut bindings = match_pattern(g, &query.pattern, &ExecutionGuard::unlimited())?;
    for vp in &query.var_paths {
        let label = vp.label.as_deref();
        bindings.retain(|b| {
            within_hops(
                g,
                b[&vp.from],
                b[&vp.to],
                label,
                vp.direction,
                vp.min,
                vp.max,
            )
        });
    }
    let table = MatchTable::from_bindings(&query.pattern, &bindings);
    finish_select(g, query, &table)
}

/// Everything after the match, shared by the planned and unplanned
/// paths, read straight from the match table's rows: filter,
/// deterministic sort, projection (row, aggregate or grouped), distinct,
/// order, skip/limit. The deterministic sort guarantees both paths
/// produce byte-identical row order regardless of how the matches were
/// found.
pub(crate) fn finish_select<'q, G: AttributedView + ?Sized>(
    g: &G,
    query: &'q SelectQuery,
    table: &MatchTable,
) -> Result<ResultSet> {
    // Every expression is resolved to table columns once, up front.
    let col = |e: &'q Expr| ColExpr::resolve(e, table.vars());
    let filter = query.filter.as_ref().map(col).transpose()?;
    let group_by: Vec<ColExpr> = query.group_by.iter().map(col).collect::<Result<_>>()?;
    let outputs: Vec<Output> = query
        .projections
        .iter()
        .map(|p| {
            Ok(match p {
                Projection::Expr { expr, .. } => Output::Expr(col(expr)?),
                Projection::Aggregate { agg, expr, .. } => {
                    Output::Aggregate(*agg, expr.as_ref().map(col).transpose()?)
                }
            })
        })
        .collect::<Result<_>>()?;
    let columns: Vec<String> = query
        .projections
        .iter()
        .map(|p| p.name().to_owned())
        .collect();
    let is_aggregate = query.projections.iter().any(Projection::is_aggregate);
    // `ORDER BY alias` sorts by a projected column after projection;
    // any other key is evaluated per row (per group representative)
    // and travels with the row it was computed from. A lone aggregate
    // row has nothing to order.
    let order_column: Option<usize> = match &query.order_by {
        Some((Expr::Var(name), _)) => columns.iter().position(|c| c == name),
        _ => None,
    };
    let order_key = match &query.order_by {
        Some((key, _)) if order_column.is_none() && !(is_aggregate && group_by.is_empty()) => {
            Some(col(key)?)
        }
        _ => None,
    };
    let eval = |row: usize, e: &ColExpr| eval_expr(g, table.row(row), e);

    // 1. Filter: the surviving rows, as indexes into the table.
    let mut kept: Vec<usize> = Vec::with_capacity(table.len());
    for row in 0..table.len() {
        let keep = match &filter {
            Some(f) => eval(row, f)?.as_bool().unwrap_or(false),
            None => true,
        };
        if keep {
            kept.push(row);
        }
    }
    // 2. Deterministic row order before projection: by node id, column
    // by column in variable-name order (what sorting binding maps by
    // their sorted entries amounts to).
    let mut by_name: Vec<usize> = (0..table.vars().len()).collect();
    by_name.sort_by_key(|&c| &table.vars()[c]);
    let sort_key = |row: usize| by_name.iter().map(move |&c| table.row(row)[c].raw());
    kept.sort_unstable_by(|&a, &b| sort_key(a).cmp(sort_key(b)));

    // 3. One output row per member set — every kept row on its own, all
    // of them at once, or one set per group — paired with its non-alias
    // ORDER BY key, evaluated on the set's first row (for a group that
    // is valid for grouping-key expressions).
    let project = |members: &[usize]| -> Result<(Value, Vec<Value>)> {
        let mut out = Vec::with_capacity(outputs.len());
        for output in &outputs {
            out.push(match output {
                // A row projection, or a grouping key: constant within
                // the group (validated).
                Output::Expr(e) => eval(members[0], e)?,
                Output::Aggregate(Aggregate::Count, None) => Value::Int(members.len() as i64),
                Output::Aggregate(agg, None) => {
                    aggregate(*agg, &vec![Value::Int(1); members.len()])?
                }
                Output::Aggregate(agg, Some(e)) => {
                    let values: Vec<Value> = members
                        .iter()
                        .map(|&row| eval(row, e))
                        .collect::<Result<_>>()?;
                    aggregate(*agg, &values)?
                }
            });
        }
        let key = match &order_key {
            Some(key) => eval(members[0], key)?,
            None => Value::Null,
        };
        Ok((key, out))
    };
    let mut rows: Vec<(Value, Vec<Value>)> = if !is_aggregate {
        kept.iter()
            .map(|row| project(std::slice::from_ref(row)))
            .collect::<Result<_>>()?
    } else if group_by.is_empty() {
        vec![project(&kept)?]
    } else {
        let (group_of, groups) = group_rows(g, table, &kept, &group_by)?;
        // Counting sort of the kept rows by group: each group's members
        // become one slice, still in the deterministic row order.
        let mut ends = vec![0usize; groups + 1];
        for &gid in &group_of {
            ends[gid + 1] += 1;
        }
        for gid in 0..groups {
            ends[gid + 1] += ends[gid];
        }
        let mut starts = ends.clone();
        let mut members = vec![0usize; kept.len()];
        for (&row, &gid) in kept.iter().zip(&group_of) {
            members[starts[gid]] = row;
            starts[gid] += 1;
        }
        (0..groups)
            .map(|gid| project(&members[ends[gid]..ends[gid + 1]]))
            .collect::<Result<_>>()?
    };

    // 4. Distinct: a surviving row is its first occurrence, key included.
    if query.distinct {
        let mut seen: FxHashSet<String> = FxHashSet::default();
        rows.retain(|(_, r)| seen.insert(format!("{r:?}")));
    }
    // 5. Order by: stable, descending = the ascending order reversed.
    if let Some((_, asc)) = &query.order_by {
        match order_column {
            Some(idx) => rows.sort_by(|a, b| a.1[idx].total_cmp(&b.1[idx])),
            None => rows.sort_by(|a, b| a.0.total_cmp(&b.0)),
        }
        if !asc {
            rows.reverse();
        }
    }
    // 6. Skip / limit.
    let rows = rows
        .into_iter()
        .skip(query.skip)
        .take(query.limit.unwrap_or(usize::MAX))
        .map(|(_, row)| row)
        .collect();
    Ok(ResultSet { columns, rows })
}

/// One projected column, resolved.
enum Output<'q> {
    /// A row projection or a grouping key.
    Expr(ColExpr<'q>),
    /// An aggregate over an expression, or (`*`) over the rows themselves.
    Aggregate(Aggregate, Option<ColExpr<'q>>),
}

/// Assigns each of `rows` a group id in first-appearance order of its
/// `group_by` key tuple, returning the ids and the number of groups. Two
/// tuples share a group when they are [`Value::loose_eq`] position by
/// position, and a row joins the *first* group it equals — exactly what
/// a linear scan over the groups finds, because [`hash_key`] sends
/// `loose_eq` values to one hash and the groups of one hash are chained
/// in the order they appeared.
fn group_rows<G: AttributedView + ?Sized>(
    g: &G,
    table: &MatchTable,
    rows: &[usize],
    group_by: &[ColExpr],
) -> Result<(Vec<usize>, usize)> {
    const END: usize = usize::MAX;
    let mut keys: Vec<Vec<Value>> = Vec::new();
    let mut next: Vec<usize> = Vec::new(); // per group: the next one with its hash
    let mut heads: FxHashMap<u64, usize> = FxHashMap::default();
    let mut group_of = Vec::with_capacity(rows.len());
    let mut key = Vec::with_capacity(group_by.len()); // reused row to row
    for &row in rows {
        key.clear();
        for e in group_by {
            key.push(eval_expr(g, table.row(row), e)?);
        }
        // SipHash, not Fx: the `f64` bits of small integers are zero in
        // their low 40-odd bits, which a multiplicative hash keeps zero —
        // and the low bits are what picks the bucket.
        let mut hasher = DefaultHasher::new();
        key.iter().for_each(|v| hash_key(v, &mut hasher));
        let mut gid = *heads.entry(hasher.finish()).or_insert(keys.len());
        while gid < keys.len() && !keys[gid].iter().zip(&key).all(|(a, b)| a.loose_eq(b)) {
            if next[gid] == END {
                next[gid] = keys.len();
            }
            gid = next[gid];
        }
        if gid == keys.len() {
            keys.push(key.clone());
            next.push(END);
        }
        group_of.push(gid);
    }
    Ok((group_of, keys.len()))
}

/// Feeds `v` to `hasher` so that values equal under [`Value::loose_eq`]
/// hash alike: a number hashes by its `f64` image — the one `loose_eq`
/// compares an `Int` with a `Float` by — with `-0.0` folded into `0.0`
/// (they are equal; adding `0.0` does it). `NaN` equals nothing, so any
/// hash will do.
fn hash_key(v: &Value, hasher: &mut impl Hasher) {
    match v {
        Value::Null => hasher.write_u8(0),
        Value::Bool(b) => hasher.write_u8(1 + u8::from(*b)),
        Value::Int(i) => hasher.write_u64((*i as f64).to_bits()),
        Value::Float(f) => hasher.write_u64((*f + 0.0).to_bits()),
        Value::Str(s) => hasher.write(s.as_bytes()),
        Value::List(items) => items.iter().for_each(|item| hash_key(item, hasher)),
    }
}

/// An [`Expr`] with its variables resolved to match-table columns and
/// its pseudo-properties told apart, so evaluating it per row compares
/// no strings.
#[derive(Debug)]
pub enum ColExpr<'q> {
    /// A literal.
    Lit(&'q Value),
    /// The id of the node in a column (`var`, `var.id`).
    Id(usize),
    /// The label text of the node in a column (`var.label`).
    Label(usize),
    /// The degree of the node in a column (`var.degree`).
    Degree(usize),
    /// A stored property of the node in a column.
    Prop(usize, &'q str),
    /// Logical negation.
    Not(Box<ColExpr<'q>>),
    /// A binary operation.
    Bin(BinOp, Box<ColExpr<'q>>, Box<ColExpr<'q>>),
}

impl<'q> ColExpr<'q> {
    /// Resolves `expr` against a match table's column names.
    pub fn resolve(expr: &'q Expr, vars: &[String]) -> Result<Self> {
        let column = |var: &String| {
            vars.iter()
                .position(|v| v == var)
                .ok_or_else(|| GdmError::InvalidArgument(format!("unbound variable {var:?}")))
        };
        Ok(match expr {
            Expr::Lit(v) => ColExpr::Lit(v),
            Expr::Var(var) => ColExpr::Id(column(var)?),
            Expr::Prop(var, key) => match key.as_str() {
                "id" => ColExpr::Id(column(var)?),
                "label" => ColExpr::Label(column(var)?),
                "degree" => ColExpr::Degree(column(var)?),
                _ => ColExpr::Prop(column(var)?, key),
            },
            Expr::Not(inner) => ColExpr::Not(Box::new(Self::resolve(inner, vars)?)),
            Expr::Bin(op, lhs, rhs) => ColExpr::Bin(
                *op,
                Box::new(Self::resolve(lhs, vars)?),
                Box::new(Self::resolve(rhs, vars)?),
            ),
        })
    }
}

/// Evaluates `expr` on one match-table `row`.
pub fn eval_expr<G: AttributedView + ?Sized>(
    g: &G,
    row: &[NodeId],
    expr: &ColExpr,
) -> Result<Value> {
    match expr {
        ColExpr::Lit(v) => Ok((*v).clone()),
        ColExpr::Id(c) => Ok(Value::Int(row[*c].raw() as i64)),
        ColExpr::Label(c) => Ok(g
            .node_label(row[*c])
            .and_then(|s| g.label_text(s))
            .map(|t| Value::Str(t.to_owned()))
            .unwrap_or(Value::Null)),
        ColExpr::Degree(c) => Ok(Value::Int(g.degree(row[*c]) as i64)),
        ColExpr::Prop(c, key) => Ok(g.node_property(row[*c], key).unwrap_or(Value::Null)),
        ColExpr::Not(inner) => {
            let v = eval_expr(g, row, inner)?;
            match v.as_bool() {
                Some(b) => Ok(Value::Bool(!b)),
                None => Err(GdmError::Type {
                    expected: "bool",
                    got: v.type_name().to_owned(),
                }),
            }
        }
        ColExpr::Bin(op, lhs, rhs) => {
            let l = eval_expr(g, row, lhs)?;
            // Short-circuit logic.
            match op {
                BinOp::And => {
                    if !l.as_bool().unwrap_or(false) {
                        return Ok(Value::Bool(false));
                    }
                    let r = eval_expr(g, row, rhs)?;
                    return Ok(Value::Bool(r.as_bool().unwrap_or(false)));
                }
                BinOp::Or => {
                    if l.as_bool().unwrap_or(false) {
                        return Ok(Value::Bool(true));
                    }
                    let r = eval_expr(g, row, rhs)?;
                    return Ok(Value::Bool(r.as_bool().unwrap_or(false)));
                }
                _ => {}
            }
            let r = eval_expr(g, row, rhs)?;
            match op {
                BinOp::Eq => Ok(Value::Bool(l.loose_eq(&r))),
                BinOp::Ne => Ok(Value::Bool(!l.loose_eq(&r))),
                // Comparisons involving nulls are false, SQL-style.
                BinOp::Lt => Ok(Value::Bool(l.compare(&r).is_some_and(Ordering::is_lt))),
                BinOp::Le => Ok(Value::Bool(l.compare(&r).is_some_and(Ordering::is_le))),
                BinOp::Gt => Ok(Value::Bool(l.compare(&r).is_some_and(Ordering::is_gt))),
                BinOp::Ge => Ok(Value::Bool(l.compare(&r).is_some_and(Ordering::is_ge))),
                BinOp::Add => l.add(&r),
                BinOp::Sub => l.sub(&r),
                BinOp::Mul => l.mul(&r),
                BinOp::Div => l.div(&r),
                BinOp::And | BinOp::Or => unreachable!("handled above"),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gdm_algo::pattern::PatternNode;
    use gdm_algo::summary::Aggregate;
    use gdm_core::props;
    use gdm_graphs::PropertyGraph;
    use proptest::prelude::*;

    fn social() -> PropertyGraph {
        let mut g = PropertyGraph::new();
        let ada = g.add_node("person", props! { "name" => "ada", "age" => 36 });
        let bob = g.add_node("person", props! { "name" => "bob", "age" => 25 });
        let cleo = g.add_node("person", props! { "name" => "cleo", "age" => 41 });
        let acme = g.add_node("company", props! { "name" => "acme" });
        g.add_edge(ada, bob, "knows", props! {}).unwrap();
        g.add_edge(bob, cleo, "knows", props! {}).unwrap();
        g.add_edge(ada, acme, "works_at", props! {}).unwrap();
        g
    }

    fn select_people() -> SelectQuery {
        let mut q = SelectQuery::default();
        q.pattern.node(PatternNode::var("p").with_label("person"));
        q.projections.push(Projection::Expr {
            name: "name".into(),
            expr: Expr::Prop("p".into(), "name".into()),
        });
        q
    }

    #[test]
    fn project_properties() {
        let g = social();
        let rs = evaluate_select(&g, &select_people()).unwrap();
        assert_eq!(rs.columns, vec!["name"]);
        let names: Vec<String> = rs
            .rows
            .iter()
            .map(|r| r[0].as_str().unwrap().to_owned())
            .collect();
        assert_eq!(names, vec!["ada", "bob", "cleo"]);
    }

    #[test]
    fn filter_rows() {
        let g = social();
        let mut q = select_people();
        q.filter = Some(Expr::bin(
            BinOp::Gt,
            Expr::Prop("p".into(), "age".into()),
            Expr::Lit(Value::from(30)),
        ));
        let rs = evaluate_select(&g, &q).unwrap();
        assert_eq!(rs.len(), 2);
    }

    #[test]
    fn aggregates() {
        let g = social();
        let mut q = select_people();
        q.projections = vec![
            Projection::Aggregate {
                name: "n".into(),
                agg: Aggregate::Count,
                expr: None,
            },
            Projection::Aggregate {
                name: "avg_age".into(),
                agg: Aggregate::Avg,
                expr: Some(Expr::Prop("p".into(), "age".into())),
            },
        ];
        let rs = evaluate_select(&g, &q).unwrap();
        assert_eq!(rs.len(), 1);
        assert_eq!(rs.get(0, "n"), Some(&Value::from(3)));
        assert_eq!(rs.get(0, "avg_age"), Some(&Value::from(34.0)));
    }

    #[test]
    fn order_limit_skip() {
        let g = social();
        let mut q = select_people();
        q.order_by = Some((Expr::Prop("p".into(), "age".into()), false));
        q.limit = Some(2);
        let rs = evaluate_select(&g, &q).unwrap();
        let names: Vec<&str> = rs.rows.iter().map(|r| r[0].as_str().unwrap()).collect();
        assert_eq!(names, vec!["cleo", "ada"]);

        q.skip = 1;
        q.limit = Some(1);
        let rs = evaluate_select(&g, &q).unwrap();
        assert_eq!(rs.rows[0][0], Value::from("ada"));
    }

    #[test]
    fn pattern_join() {
        let g = social();
        let mut q = SelectQuery::default();
        let a = q.pattern.node(PatternNode::var("a").with_label("person"));
        let b = q.pattern.node(PatternNode::var("b").with_label("person"));
        q.pattern.edge(a, b, Some("knows")).unwrap();
        q.projections.push(Projection::Expr {
            name: "pair".into(),
            expr: Expr::bin(
                BinOp::Add,
                Expr::Prop("a".into(), "name".into()),
                Expr::Prop("b".into(), "name".into()),
            ),
        });
        let rs = evaluate_select(&g, &q).unwrap();
        let mut pairs: Vec<String> = rs
            .rows
            .iter()
            .map(|r| r[0].as_str().unwrap().to_owned())
            .collect();
        pairs.sort();
        assert_eq!(pairs, vec!["adabob", "bobcleo"]);
    }

    #[test]
    fn variable_length_paths() {
        let g = social();
        let mut q = SelectQuery::default();
        q.pattern
            .node(PatternNode::var("a").with_prop("name", "ada"));
        q.pattern.node(PatternNode::var("b").with_label("person"));
        q.var_paths.push(crate::ast::VarLengthEdge {
            from: "a".into(),
            to: "b".into(),
            label: Some("knows".into()),
            direction: gdm_core::Direction::Outgoing,
            min: 1,
            max: 2,
        });
        q.projections.push(Projection::Expr {
            name: "name".into(),
            expr: Expr::Prop("b".into(), "name".into()),
        });
        let rs = evaluate_select(&g, &q).unwrap();
        let mut names: Vec<&str> = rs.rows.iter().map(|r| r[0].as_str().unwrap()).collect();
        names.sort();
        assert_eq!(names, vec!["bob", "cleo"]);

        // Narrow the range to exactly 2 hops.
        q.var_paths[0].min = 2;
        let rs = evaluate_select(&g, &q).unwrap();
        assert_eq!(rs.rows[0][0], Value::from("cleo"));
    }

    #[test]
    fn pseudo_properties() {
        let g = social();
        let mut q = select_people();
        q.projections = vec![
            Projection::Expr {
                name: "label".into(),
                expr: Expr::Prop("p".into(), "label".into()),
            },
            Projection::Expr {
                name: "degree".into(),
                expr: Expr::Prop("p".into(), "degree".into()),
            },
        ];
        let rs = evaluate_select(&g, &q).unwrap();
        assert_eq!(rs.rows[0][0], Value::from("person"));
        assert_eq!(rs.rows[0][1], Value::from(2)); // ada: knows + works_at
    }

    #[test]
    fn distinct_removes_duplicates() {
        let g = social();
        let mut q = select_people();
        q.projections = vec![Projection::Expr {
            name: "label".into(),
            expr: Expr::Prop("p".into(), "label".into()),
        }];
        q.distinct = true;
        let rs = evaluate_select(&g, &q).unwrap();
        assert_eq!(rs.len(), 1);
    }

    #[test]
    fn missing_property_is_null() {
        let g = social();
        let mut q = select_people();
        q.projections = vec![Projection::Expr {
            name: "x".into(),
            expr: Expr::Prop("p".into(), "salary".into()),
        }];
        let rs = evaluate_select(&g, &q).unwrap();
        assert!(rs.rows.iter().all(|r| r[0].is_null()));
        // Comparisons with null are false, so filtering drops all rows.
        let mut q2 = select_people();
        q2.filter = Some(Expr::bin(
            BinOp::Gt,
            Expr::Prop("p".into(), "salary".into()),
            Expr::Lit(Value::from(0)),
        ));
        assert!(evaluate_select(&g, &q2).unwrap().is_empty());
    }

    #[test]
    fn result_text_rendering() {
        let g = social();
        let rs = evaluate_select(&g, &select_people()).unwrap();
        let text = rs.to_text();
        assert!(text.contains("name"));
        assert!(text.contains("ada"));
    }

    /// `DISTINCT` with a non-projected `ORDER BY` key: a surviving row
    /// is sorted by the key of its first occurrence. (The keys used to
    /// be computed from all matches and zipped onto the deduplicated
    /// rows, so `Y` was sorted by `b`'s age.)
    #[test]
    fn distinct_rows_keep_the_order_key_of_their_first_occurrence() {
        let mut g = PropertyGraph::new();
        for (name, city, age) in [
            ("a", "X", 50),
            ("b", "X", 10),
            ("c", "Y", 30),
            ("d", "Z", 20),
        ] {
            g.add_node(
                "person",
                props! { "name" => name, "city" => city, "age" => age },
            );
        }
        let cities = |text: &str| -> Vec<String> {
            let crate::cypher::CypherStatement::Select(q) = crate::cypher::parse(text).unwrap()
            else {
                panic!("expected a MATCH query");
            };
            let rs = evaluate_select(&g, &q).unwrap();
            assert_eq!(rs, evaluate_select_unplanned(&g, &q).unwrap());
            rs.rows
                .iter()
                .map(|r| r[0].as_str().unwrap().to_owned())
                .collect()
        };
        let text = "MATCH (p:person) RETURN DISTINCT p.city ORDER BY p.age";
        assert_eq!(cities(text), ["Z", "Y", "X"]);
        assert_eq!(cities(&format!("{text} DESC")), ["X", "Y", "Z"]);
    }

    /// The finisher this module had before it read the match table in
    /// place — one hash map per match, string-keyed lookups, a linear
    /// scan over the groups — kept as the naive reference for
    /// [`finisher_equals_the_binding_map_reference`]. Its one change:
    /// `DISTINCT` drops a row's `ORDER BY` key with the row.
    mod reference {
        use super::super::*;
        use gdm_algo::pattern::Binding;
        use gdm_core::GraphView;
        use gdm_graphs::PropertyGraph;

        pub fn finish_select(
            g: &PropertyGraph,
            query: &SelectQuery,
            mut bindings: Vec<Binding>,
        ) -> Result<ResultSet> {
            if let Some(filter) = &query.filter {
                let mut kept = Vec::with_capacity(bindings.len());
                for b in bindings {
                    if eval_expr(g, &b, filter)?.as_bool().unwrap_or(false) {
                        kept.push(b);
                    }
                }
                bindings = kept;
            }
            bindings.sort_by_key(|b| {
                let mut key: Vec<(String, u64)> =
                    b.iter().map(|(k, v)| (k.clone(), v.raw())).collect();
                key.sort();
                key
            });
            let columns: Vec<String> = query
                .projections
                .iter()
                .map(|p| p.name().to_owned())
                .collect();
            let is_aggregate = query.projections.iter().any(Projection::is_aggregate);
            let order_column_idx: Option<usize> = match &query.order_by {
                Some((Expr::Var(name), _)) => columns.iter().position(|c| c == name),
                _ => None,
            };
            let mut group_order_keys: Vec<Value> = Vec::new();
            let mut rows: Vec<Vec<Value>> = if is_aggregate && !query.group_by.is_empty() {
                let mut groups: Vec<(Vec<Value>, Vec<&Binding>)> = Vec::new();
                for b in &bindings {
                    let key: Vec<Value> = query
                        .group_by
                        .iter()
                        .map(|e| eval_expr(g, b, e))
                        .collect::<Result<_>>()?;
                    match groups.iter_mut().find(|(k, _)| {
                        k.len() == key.len() && k.iter().zip(&key).all(|(a, c)| a.loose_eq(c))
                    }) {
                        Some((_, members)) => members.push(b),
                        None => groups.push((key, vec![b])),
                    }
                }
                let mut out = Vec::with_capacity(groups.len());
                for (_, members) in &groups {
                    let representative = members[0];
                    if order_column_idx.is_none() {
                        if let Some((key_expr, _)) = &query.order_by {
                            group_order_keys.push(eval_expr(g, representative, key_expr)?);
                        }
                    }
                    let mut row = Vec::with_capacity(query.projections.len());
                    for p in &query.projections {
                        match p {
                            Projection::Expr { expr, .. } => {
                                row.push(eval_expr(g, representative, expr)?);
                            }
                            Projection::Aggregate { agg, expr, .. } => {
                                let values: Vec<Value> = match expr {
                                    None => vec![Value::Int(1); members.len()],
                                    Some(e) => members
                                        .iter()
                                        .map(|b| eval_expr(g, b, e))
                                        .collect::<Result<_>>()?,
                                };
                                row.push(aggregate(*agg, &values)?);
                            }
                        }
                    }
                    out.push(row);
                }
                out
            } else if is_aggregate {
                let mut row = Vec::with_capacity(query.projections.len());
                for p in &query.projections {
                    let Projection::Aggregate { agg, expr, .. } = p else {
                        unreachable!("validate() rejects mixed projections");
                    };
                    let values: Vec<Value> = match expr {
                        None => vec![Value::Int(1); bindings.len()],
                        Some(e) => bindings
                            .iter()
                            .map(|b| eval_expr(g, b, e))
                            .collect::<Result<_>>()?,
                    };
                    row.push(aggregate(*agg, &values)?);
                }
                vec![row]
            } else {
                let mut out = Vec::with_capacity(bindings.len());
                for b in &bindings {
                    let mut row = Vec::with_capacity(query.projections.len());
                    for p in &query.projections {
                        let Projection::Expr { expr, .. } = p else {
                            unreachable!("validate() rejects mixed projections");
                        };
                        row.push(eval_expr(g, b, expr)?);
                    }
                    out.push(row);
                }
                out
            };
            // Non-alias ORDER BY keys, one per row, before DISTINCT.
            let mut keys: Option<Vec<Value>> = match &query.order_by {
                Some((key_expr, _)) if order_column_idx.is_none() => {
                    if !is_aggregate {
                        Some(
                            bindings
                                .iter()
                                .map(|b| eval_expr(g, b, key_expr))
                                .collect::<Result<_>>()?,
                        )
                    } else if !query.group_by.is_empty() {
                        Some(group_order_keys)
                    } else {
                        None
                    }
                }
                _ => None,
            };
            if query.distinct {
                let mut seen: FxHashSet<String> = FxHashSet::default();
                let keep: Vec<bool> = rows.iter().map(|r| seen.insert(format!("{r:?}"))).collect();
                let mut kept = keep.iter();
                rows.retain(|_| *kept.next().unwrap());
                if let Some(keys) = &mut keys {
                    let mut kept = keep.iter();
                    keys.retain(|_| *kept.next().unwrap());
                }
            }
            if let Some((_, asc)) = &query.order_by {
                if let Some(idx) = order_column_idx {
                    rows.sort_by(|a, b| a[idx].total_cmp(&b[idx]));
                    if !asc {
                        rows.reverse();
                    }
                } else if let Some(keys) = keys {
                    let mut paired: Vec<(Value, Vec<Value>)> = keys.into_iter().zip(rows).collect();
                    paired.sort_by(|a, b| a.0.total_cmp(&b.0));
                    if !asc {
                        paired.reverse();
                    }
                    rows = paired.into_iter().map(|(_, r)| r).collect();
                }
            }
            if query.skip > 0 {
                rows.drain(..query.skip.min(rows.len()));
            }
            if let Some(limit) = query.limit {
                rows.truncate(limit);
            }
            Ok(ResultSet { columns, rows })
        }

        fn eval_expr(g: &PropertyGraph, binding: &Binding, expr: &Expr) -> Result<Value> {
            let lookup = |var: &str| {
                binding
                    .get(var)
                    .copied()
                    .ok_or_else(|| GdmError::InvalidArgument(format!("unbound variable {var:?}")))
            };
            match expr {
                Expr::Lit(v) => Ok(v.clone()),
                Expr::Var(var) => Ok(Value::Int(lookup(var)?.raw() as i64)),
                Expr::Prop(var, key) => {
                    let node = lookup(var)?;
                    Ok(match key.as_str() {
                        "id" => Value::Int(node.raw() as i64),
                        "label" => g
                            .node_label(node)
                            .and_then(|s| g.label_text(s))
                            .map(|t| Value::Str(t.to_owned()))
                            .unwrap_or(Value::Null),
                        "degree" => Value::Int(g.degree(node) as i64),
                        _ => g.node_property(node, key).unwrap_or(Value::Null),
                    })
                }
                Expr::Not(inner) => {
                    let v = eval_expr(g, binding, inner)?;
                    match v.as_bool() {
                        Some(b) => Ok(Value::Bool(!b)),
                        None => Err(GdmError::Type {
                            expected: "bool",
                            got: v.type_name().to_owned(),
                        }),
                    }
                }
                Expr::Bin(op, lhs, rhs) => {
                    let l = eval_expr(g, binding, lhs)?;
                    match op {
                        BinOp::And => {
                            if !l.as_bool().unwrap_or(false) {
                                return Ok(Value::Bool(false));
                            }
                            let r = eval_expr(g, binding, rhs)?;
                            return Ok(Value::Bool(r.as_bool().unwrap_or(false)));
                        }
                        BinOp::Or => {
                            if l.as_bool().unwrap_or(false) {
                                return Ok(Value::Bool(true));
                            }
                            let r = eval_expr(g, binding, rhs)?;
                            return Ok(Value::Bool(r.as_bool().unwrap_or(false)));
                        }
                        _ => {}
                    }
                    let r = eval_expr(g, binding, rhs)?;
                    match op {
                        BinOp::Eq => Ok(Value::Bool(l.loose_eq(&r))),
                        BinOp::Ne => Ok(Value::Bool(!l.loose_eq(&r))),
                        BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge => {
                            let Some(ord) = l.compare(&r) else {
                                return Ok(Value::Bool(false));
                            };
                            Ok(Value::Bool(match op {
                                BinOp::Lt => ord.is_lt(),
                                BinOp::Le => ord.is_le(),
                                BinOp::Gt => ord.is_gt(),
                                _ => ord.is_ge(),
                            }))
                        }
                        BinOp::Add => l.add(&r),
                        BinOp::Sub => l.sub(&r),
                        BinOp::Mul => l.mul(&r),
                        BinOp::Div => l.div(&r),
                        BinOp::And | BinOp::Or => unreachable!("handled above"),
                    }
                }
            }
        }
    }

    /// Both finishers on one table; results compared through their
    /// `Debug` text (`NaN` is not `==` itself), errors by presence.
    fn assert_same_as_reference(g: &PropertyGraph, q: &SelectQuery, table: &MatchTable) {
        q.validate().unwrap();
        let new = finish_select(g, q, table);
        let old = reference::finish_select(g, q, table.to_bindings());
        match (&new, &old) {
            (Ok(new), Ok(old)) => assert_eq!(format!("{new:?}"), format!("{old:?}"), "{q:?}"),
            (Err(_), Err(_)) => {}
            _ => panic!("one finisher failed: {new:?} vs {old:?} for {q:?}"),
        }
    }

    fn prop(var: &str, key: &str) -> Expr {
        Expr::Prop(var.into(), key.into())
    }

    /// Group keys whose equal numbers mix `Int` and `Float`, signed
    /// zeros, `NaN`, `Null`, a missing property, strings; values that
    /// make `sum` a type error now and then.
    fn dice_graph(nodes: &[(u8, u8, u8)]) -> PropertyGraph {
        let mut g = PropertyGraph::new();
        for &(k, v, w) in nodes {
            let mut props = props! { "w" => i64::from(w) };
            match k {
                0 => {}
                1 => drop(props.set("k", Value::Null)),
                2 => drop(props.set("k", 0)),
                3 => drop(props.set("k", 0.0)),
                4 => drop(props.set("k", -0.0)),
                5 => drop(props.set("k", 3)),
                6 => drop(props.set("k", 3.0)),
                7 => drop(props.set("k", f64::NAN)),
                8 => drop(props.set("k", "a")),
                _ => drop(props.set("k", "3")),
            }
            match v {
                0 => {}
                1 => drop(props.set("v", 2)),
                2 => drop(props.set("v", 0.5)),
                3 => drop(props.set("v", -1)),
                4 => drop(props.set("v", 2.25)),
                _ => drop(props.set("v", "x")),
            }
            g.add_node("n", props);
        }
        g
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// The table-reading finisher and the binding-map reference
        /// return the same `ResultSet`, byte for byte, on random tables
        /// (column names in an order that is not their lexical one,
        /// rows in random order) under random queries of every shape.
        #[test]
        fn finisher_equals_the_binding_map_reference(
            nodes in prop::collection::vec((0u8..10, 0u8..24, 0u8..3), 1..20),
            rows in prop::collection::vec((0usize..20, 0usize..20, 0usize..20), 0..50),
            width in 1usize..4,
            dice in prop::collection::vec(0usize..1000, 64),
        ) {
            let g = dice_graph(&nodes.iter().map(|&(k, v, w)| (k, v.min(5), w)).collect::<Vec<_>>());
            let mut dice = dice.into_iter();
            let mut roll = |n: usize| dice.next().unwrap() % n;
            let names = [["z", "a", "m"], ["b", "c", "a"], ["m", "z", "a"]][roll(3)];
            let vars = &names[..width];
            let mut q = SelectQuery::default();
            for var in vars {
                q.pattern.node(PatternNode::var(*var));
            }
            let bindings: Vec<_> = rows
                .iter()
                .map(|&(a, b, c)| {
                    vars.iter()
                        .zip([a, b, c])
                        .map(|(var, i)| ((*var).to_owned(), NodeId((i % nodes.len()) as u64)))
                        .collect()
                })
                .collect();
            let table = MatchTable::from_bindings(&q.pattern, &bindings);

            let expr = |roll: &mut dyn FnMut(usize) -> usize| {
                let var = vars[roll(width)];
                match roll(8) {
                    0 | 1 => prop(var, "k"),
                    2 => prop(var, "v"),
                    3 => prop(var, "w"),
                    4 => prop(var, "missing"),
                    5 => Expr::Var(var.into()),
                    6 => prop(var, ["id", "label", "degree"][roll(3)]),
                    _ => Expr::bin(BinOp::Add, prop(var, "w"), Expr::Lit(Value::from(0.5))),
                }
            };
            q.filter = match roll(7) {
                0 => Some(Expr::bin(BinOp::Lt, prop(vars[0], "v"), Expr::Lit(Value::from(2)))),
                1 => Some(Expr::bin(BinOp::Eq, prop(vars[0], "k"), Expr::Lit(Value::from(3)))),
                2 => Some(Expr::bin(BinOp::Eq, prop(vars[0], "missing"), Expr::Lit(Value::Null))),
                3 => Some(Expr::bin(BinOp::Ge, prop(vars[0], "k"), Expr::Lit(Value::Null))),
                4 => Some(Expr::bin(
                    BinOp::Or,
                    Expr::Not(Box::new(Expr::bin(
                        BinOp::Eq,
                        prop(vars[width - 1], "w"),
                        Expr::Lit(Value::from(1)),
                    ))),
                    Expr::bin(BinOp::Ne, prop(vars[0], "k"), Expr::Lit(Value::from(0.0))),
                )),
                _ => None,
            };
            let aggregate_of = |roll: &mut dyn FnMut(usize) -> usize, i: usize| {
                let agg = [
                    Aggregate::Count,
                    Aggregate::Sum,
                    Aggregate::Avg,
                    Aggregate::Min,
                    Aggregate::Max,
                ][roll(5)];
                let expr = match roll(4) {
                    0 => None,
                    1 => Some(prop(vars[roll(width)], "k")),
                    _ => Some(prop(vars[roll(width)], "v")),
                };
                Projection::Aggregate { name: format!("agg{i}"), agg, expr }
            };
            let shape = roll(3);
            if shape == 0 {
                for i in 0..1 + roll(2) {
                    q.projections.push(Projection::Expr { name: format!("c{i}"), expr: expr(&mut roll) });
                }
                q.distinct = roll(2) == 0;
            } else {
                if shape == 2 {
                    for i in 0..1 + roll(2) {
                        let key = expr(&mut roll);
                        q.group_by.push(key.clone());
                        if roll(4) > 0 {
                            q.projections.push(Projection::Expr { name: format!("c{i}"), expr: key });
                        }
                    }
                }
                for i in 0..1 + roll(3) {
                    q.projections.push(aggregate_of(&mut roll, i));
                }
            }
            q.order_by = match roll(4) {
                0 => None,
                // An alias of a projected column.
                1 => Some(Expr::Var(q.projections[roll(q.projections.len())].name().to_owned())),
                // A key that is (or may be) no projected column.
                _ if shape == 2 => Some(q.group_by[roll(q.group_by.len())].clone()),
                _ => Some(expr(&mut roll)),
            }
            .map(|key| (key, roll(2) == 0));
            q.skip = [0, 0, 1, 3][roll(4)];
            q.limit = [None, None, Some(0), Some(2), Some(7)][roll(5)];
            assert_same_as_reference(&g, &q, &table);
        }
    }

    /// 2 400 rows in 1 200 groups: each group holds its key once as an
    /// `Int` and once as the `Float` of equal value, and the rows arrive
    /// in reverse id order.
    #[test]
    fn a_thousand_groups_match_the_reference() {
        let mut g = PropertyGraph::new();
        for i in 0..2_400i64 {
            let key = if i < 1_200 {
                Value::from(i)
            } else {
                Value::from((i - 1_200) as f64)
            };
            g.add_node("n", props! { "k" => key, "w" => i % 7 });
        }
        let mut q = SelectQuery::default();
        q.pattern.node(PatternNode::var("q"));
        let bindings: Vec<_> = (0..2_400u64)
            .rev()
            .map(|i| [("q".to_owned(), NodeId(i))].into_iter().collect())
            .collect();
        let table = MatchTable::from_bindings(&q.pattern, &bindings);
        q.group_by.push(prop("q", "k"));
        q.projections = vec![
            Projection::Expr {
                name: "k".into(),
                expr: prop("q", "k"),
            },
            Projection::Aggregate {
                name: "n".into(),
                agg: Aggregate::Count,
                expr: None,
            },
            Projection::Aggregate {
                name: "w".into(),
                agg: Aggregate::Sum,
                expr: Some(prop("q", "w")),
            },
        ];
        let rs = finish_select(&g, &q, &table).unwrap();
        assert_eq!(rs.len(), 1_200);
        assert!(rs.rows.iter().all(|r| r[1] == Value::Int(2)));
        assert_same_as_reference(&g, &q, &table);
    }
}
