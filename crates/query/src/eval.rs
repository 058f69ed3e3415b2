//! Evaluates the shared logical algebra over any attributed graph.
//!
//! The pipeline: match the pattern — variable-length edges included,
//! they are pattern edges the matcher expands (`gdm-algo`) — then
//! filter, project (row or aggregate), order, skip, limit.
//! Bare variables project as node ids; `var.key` projects the bound
//! node's property; the pseudo-properties `id`, `label`, and `degree`
//! are always available (the paper's engines all expose them through
//! their APIs).

use crate::ast::{BinOp, Expr, Projection, SelectQuery};
use gdm_algo::pattern::{match_pattern, within_hops, Binding};
use gdm_algo::summary::aggregate;
use gdm_core::{AttributedView, FxHashSet, GdmError, NodeId, Result, Value};

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
    let mut bindings = match_pattern(g, &query.pattern);
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
    finish_select(g, query, bindings)
}

/// Everything after the match, shared by the planned and unplanned
/// paths: filter, deterministic sort, projection, distinct, order,
/// skip/limit. The deterministic sort guarantees both paths produce
/// byte-identical row order regardless of how the bindings were found.
pub(crate) fn finish_select<G: AttributedView + ?Sized>(
    g: &G,
    query: &SelectQuery,
    mut bindings: Vec<Binding>,
) -> Result<ResultSet> {
    // 1. Filter.
    if let Some(filter) = &query.filter {
        let mut kept = Vec::with_capacity(bindings.len());
        for b in bindings {
            if eval_expr(g, &b, filter)?.as_bool().unwrap_or(false) {
                kept.push(b);
            }
        }
        bindings = kept;
    }
    // Deterministic row order before projection.
    bindings.sort_by_key(|b| {
        let mut key: Vec<(String, u64)> = b.iter().map(|(k, v)| (k.clone(), v.raw())).collect();
        key.sort();
        key
    });

    let columns: Vec<String> = query
        .projections
        .iter()
        .map(|p| p.name().to_owned())
        .collect();

    // 2. Aggregate, grouped, or row projection.
    let is_aggregate = query.projections.iter().any(Projection::is_aggregate);
    // `ORDER BY alias` sorts by a projected column after projection;
    // detect it up front so group keys are not evaluated for it.
    let order_column_idx: Option<usize> = match &query.order_by {
        Some((Expr::Var(name), _)) => columns.iter().position(|c| c == name),
        _ => None,
    };
    let mut group_order_keys: Vec<Value> = Vec::new();
    let mut rows: Vec<Vec<Value>> = if is_aggregate && !query.group_by.is_empty() {
        // Group bindings by the grouping-key tuple (order-preserving
        // over the sorted bindings, so output order is deterministic).
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
                        // Validated to be a grouping key: constant
                        // within the group.
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

    // 3. Distinct.
    if query.distinct {
        let mut seen: FxHashSet<String> = FxHashSet::default();
        rows.retain(|r| seen.insert(format!("{r:?}")));
    }

    // 4. Order by (only meaningful for row projections, but harmless
    // otherwise). The sort key is evaluated against bindings for row
    // queries; for simplicity we sort rows by the projected columns
    // when the key expression equals a projection, else re-evaluate.
    if let Some((key_expr, asc)) = &query.order_by {
        // Ordering by a projected column's alias (`ORDER BY total`)
        // sorts the output rows directly — this also covers ordering
        // by aggregate results.
        if let Some(idx) = order_column_idx {
            rows.sort_by(|a, b| a[idx].total_cmp(&b[idx]));
            if !asc {
                rows.reverse();
            }
        } else {
            let keys: Option<Vec<Value>> = if !is_aggregate {
                // Pair rows with their source binding to evaluate the key.
                Some(
                    bindings
                        .iter()
                        .map(|b| eval_expr(g, b, key_expr))
                        .collect::<Result<_>>()?,
                )
            } else if !query.group_by.is_empty() {
                // Grouped: keys were computed per group representative
                // (valid for grouping-key expressions).
                Some(group_order_keys)
            } else {
                None // single aggregate row: nothing to order
            };
            if let Some(keys) = keys {
                let mut paired: Vec<(Value, Vec<Value>)> = keys.into_iter().zip(rows).collect();
                paired.sort_by(|a, b| a.0.total_cmp(&b.0));
                if !asc {
                    paired.reverse();
                }
                rows = paired.into_iter().map(|(_, r)| r).collect();
            }
        }
    }

    // 5. Skip / limit.
    if query.skip > 0 {
        rows.drain(..query.skip.min(rows.len()));
    }
    if let Some(limit) = query.limit {
        rows.truncate(limit);
    }

    Ok(ResultSet { columns, rows })
}

/// Evaluates `expr` under `binding`.
pub fn eval_expr<G: AttributedView + ?Sized>(
    g: &G,
    binding: &Binding,
    expr: &Expr,
) -> Result<Value> {
    match expr {
        Expr::Lit(v) => Ok(v.clone()),
        Expr::Var(var) => {
            let node = lookup(binding, var)?;
            Ok(Value::Int(node.raw() as i64))
        }
        Expr::Prop(var, key) => {
            let node = lookup(binding, var)?;
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
            // Short-circuit logic.
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
                    // Comparisons involving nulls are false, SQL-style.
                    let Some(ord) = l.compare(&r) else {
                        return Ok(Value::Bool(false));
                    };
                    let b = match op {
                        BinOp::Lt => ord.is_lt(),
                        BinOp::Le => ord.is_le(),
                        BinOp::Gt => ord.is_gt(),
                        BinOp::Ge => ord.is_ge(),
                        _ => unreachable!(),
                    };
                    Ok(Value::Bool(b))
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

fn lookup(binding: &Binding, var: &str) -> Result<NodeId> {
    binding
        .get(var)
        .copied()
        .ok_or_else(|| GdmError::InvalidArgument(format!("unbound variable {var:?}")))
}

#[cfg(test)]
mod tests {
    use super::*;
    use gdm_algo::pattern::PatternNode;
    use gdm_algo::summary::Aggregate;
    use gdm_core::props;
    use gdm_graphs::PropertyGraph;

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
}
