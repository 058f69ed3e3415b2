//! Cost-based planning for the shared logical algebra.
//!
//! Every dialect lowers to the same [`SelectQuery`], so one planner
//! speeds all of them up. Planning happens in three moves:
//!
//! 1. **Path lowering.** Every variable-length path constraint becomes
//!    a variable-length edge of the pattern
//!    ([`gdm_algo::Pattern::edge_hops`]), so the matcher orders,
//!    expands and governs it like any other edge; the planned query
//!    carries no `var_paths`.
//! 2. **Predicate pushdown.** The WHERE clause is split into its
//!    top-level AND conjuncts; every conjunct of the form
//!    `var.key = literal` (either operand order) becomes a property
//!    constraint on that pattern variable, and `var.label = "text"`
//!    becomes a label constraint. What cannot be pushed stays behind
//!    as the residual filter, range comparisons (`<`, `<=`, `>`, `>=`)
//!    included: they seed no domain on any view. `NULL` literals are
//!    never pushed: in a filter a missing property compares as
//!    `NULL = NULL` (true), while a pattern constraint requires the
//!    property to exist — pushing would change results.
//! 3. **Access selection + ordering.** For each pattern variable the
//!    view's [`AttributedView::candidate_estimate`] reports whether an
//!    index can bound its candidates. A variable with property
//!    constraints an index covers gets its candidates materialised as a
//!    domain ([`AttributedView::candidates`]); a variable constrained
//!    by label alone is index access too, but keeps no domain — the
//!    executors read the view's label index in place, so the plan holds
//!    nothing proportional to the label's population. Everything else
//!    scans. [`gdm_algo::planned_order`] then eliminates variables
//!    smallest estimate first, connectivity as the tiebreak.
//!
//! The chosen plan is recorded as an [`ExplainPlan`] whose
//! [`ExplainPlan::render`]/[`ExplainPlan::parse`] round-trip gives
//! engines a machine-checkable `EXPLAIN` output.

use crate::ast::{BinOp, Expr, SelectQuery};
use crate::eval::{finish_select, ResultSet};
use gdm_algo::planned::{
    domain_estimates, generating_edges, match_pattern_seeded, planned_order, Domains,
};
use gdm_algo::Pattern;
use gdm_core::{AttributedView, GdmError, Result, Value};
use gdm_govern::ExecutionGuard;

/// How a pattern variable's candidate set is produced.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Access {
    /// Seeded from a label/property index lookup.
    Index,
    /// Full scan (or neighbor expansion from an already-bound
    /// variable at match time).
    Scan,
}

impl Access {
    fn as_str(self) -> &'static str {
        match self {
            Access::Index => "index",
            Access::Scan => "scan",
        }
    }
}

/// One variable's slot in the elimination order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PlanStep {
    /// The pattern variable.
    pub var: String,
    /// Index seeding vs scanning.
    pub access: Access,
    /// Estimated candidate count: index cardinality, or the graph's
    /// node count for scans — capped, at either end of a
    /// variable-length edge, by what its walks can reach from the
    /// other end.
    pub estimate: usize,
    /// Number of property constraints on the variable after pushdown.
    pub props: usize,
    /// Label constraint after pushdown, if any.
    pub label: Option<String>,
    /// `Some((min, max))` when the variable is reached by expanding a
    /// variable-length edge of that hop range from an earlier step.
    pub hops: Option<(u32, u32)>,
}

/// The recorded plan: what was pushed down and how each variable is
/// accessed, in elimination order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExplainPlan {
    /// Number of pattern variables.
    pub nodes: usize,
    /// WHERE conjuncts pushed into the pattern.
    pub pushed: usize,
    /// WHERE conjuncts left in the residual filter.
    pub residual: usize,
    /// Variables in the order the matcher binds them.
    pub steps: Vec<PlanStep>,
}

impl ExplainPlan {
    /// Renders the plan as line-oriented text that [`Self::parse`]
    /// reads back. Labels containing whitespace are not supported by
    /// the text form.
    pub fn render(&self) -> String {
        let mut out = format!(
            "plan nodes={} pushed={} residual={}\n",
            self.nodes, self.pushed, self.residual
        );
        for s in &self.steps {
            out.push_str(&format!(
                "step var={} access={} estimate={} props={}",
                s.var,
                s.access.as_str(),
                s.estimate,
                s.props
            ));
            if let Some(label) = &s.label {
                out.push_str(&format!(" label={label}"));
            }
            // Absent unless the step has it.
            if let Some((min, max)) = s.hops {
                out.push_str(&format!(" hops={min}..{max}"));
            }
            out.push('\n');
        }
        out
    }

    /// Parses [`Self::render`]'s output back into a plan.
    pub fn parse(text: &str) -> Result<Self> {
        let mut lines = text.lines().filter(|l| !l.trim().is_empty());
        let head = lines
            .next()
            .ok_or_else(|| invalid("empty explain text".to_owned()))?;
        let mut toks = head.split_whitespace();
        if toks.next() != Some("plan") {
            return Err(invalid(format!(
                "explain header must start with `plan`: {head:?}"
            )));
        }
        let (mut nodes, mut pushed, mut residual) = (None, None, None);
        for tok in toks {
            let (k, v) = split_kv(tok)?;
            let v = parse_count(k, v)?;
            match k {
                "nodes" => nodes = Some(v),
                "pushed" => pushed = Some(v),
                "residual" => residual = Some(v),
                other => return Err(invalid(format!("unknown plan field {other:?}"))),
            }
        }
        let mut steps = Vec::new();
        for line in lines {
            let mut toks = line.split_whitespace();
            if toks.next() != Some("step") {
                return Err(invalid(format!("expected `step` line, got {line:?}")));
            }
            let (mut var, mut access, mut estimate, mut props, mut label, mut hops) =
                (None, None, None, None, None, None);
            for tok in toks {
                let (k, v) = split_kv(tok)?;
                match k {
                    "var" => var = Some(v.to_owned()),
                    "access" => {
                        access = Some(match v {
                            "index" => Access::Index,
                            "scan" => Access::Scan,
                            other => return Err(invalid(format!("unknown access kind {other:?}"))),
                        });
                    }
                    "estimate" => estimate = Some(parse_count(k, v)?),
                    "props" => props = Some(parse_count(k, v)?),
                    "label" => label = Some(v.to_owned()),
                    "hops" => {
                        let bounds = v
                            .split_once("..")
                            .and_then(|(min, max)| Some((min.parse().ok()?, max.parse().ok()?)));
                        hops =
                            Some(bounds.ok_or_else(|| {
                                invalid(format!("hops must be min..max, got {v:?}"))
                            })?);
                    }
                    other => return Err(invalid(format!("unknown step field {other:?}"))),
                }
            }
            steps.push(PlanStep {
                var: var.ok_or_else(|| invalid("step missing var".to_owned()))?,
                access: access.ok_or_else(|| invalid("step missing access".to_owned()))?,
                estimate: estimate.ok_or_else(|| invalid("step missing estimate".to_owned()))?,
                props: props.ok_or_else(|| invalid("step missing props".to_owned()))?,
                label,
                hops,
            });
        }
        Ok(Self {
            nodes: nodes.ok_or_else(|| invalid("plan missing nodes".to_owned()))?,
            pushed: pushed.ok_or_else(|| invalid("plan missing pushed".to_owned()))?,
            residual: residual.ok_or_else(|| invalid("plan missing residual".to_owned()))?,
            steps,
        })
    }
}

fn invalid(msg: String) -> GdmError {
    GdmError::InvalidArgument(msg)
}

fn split_kv(tok: &str) -> Result<(&str, &str)> {
    tok.split_once('=')
        .ok_or_else(|| invalid(format!("expected key=value, got {tok:?}")))
}

fn parse_count(key: &str, v: &str) -> Result<usize> {
    v.parse()
        .map_err(|_| invalid(format!("{key} must be an integer, got {v:?}")))
}

/// A query rewritten for execution: pushed-down pattern, per-variable
/// candidate domains, and the recorded plan.
#[derive(Debug, Clone)]
pub struct PlannedSelect {
    /// The rewritten query (constraints pushed into the pattern, the
    /// residual left as the filter).
    pub query: SelectQuery,
    /// Per-variable candidate domains, aligned with the rewritten
    /// pattern's nodes.
    pub domains: Domains,
    /// The recorded plan.
    pub explain: ExplainPlan,
}

/// Plans `query` against `g`: validates, lowers variable-length paths
/// into pattern edges, pushes equality predicates into the pattern,
/// seeds index-coverable variables with candidate domains, and records
/// the elimination order.
pub fn plan_select<G: AttributedView + ?Sized>(
    g: &G,
    query: &SelectQuery,
) -> Result<PlannedSelect> {
    query.validate()?;
    let mut query = query.clone();
    for vp in std::mem::take(&mut query.var_paths) {
        let index = |var: &str| {
            let found = query.pattern.nodes.iter().position(|n| n.var == var);
            found.expect("validate() checked path variables")
        };
        let (from, to) = (index(&vp.from), index(&vp.to));
        let label = vp.label.as_deref();
        query
            .pattern
            .edge_hops(from, to, label, vp.direction, vp.min, vp.max)?;
    }
    let mut pushed = 0usize;
    let mut residual = Vec::new();
    if let Some(filter) = query.filter.take() {
        for c in conjuncts(filter) {
            if push_conjunct(&mut query.pattern, &c) {
                pushed += 1;
            } else {
                residual.push(c);
            }
        }
    }
    let residual_count = residual.len();
    let domains = gdm_algo::planned::auto_domains(g, &query.pattern);
    query.filter = residual
        .into_iter()
        .reduce(|a, b| Expr::bin(BinOp::And, a, b));

    let estimates = domain_estimates(g, &query.pattern, &domains);
    let order = planned_order(&query.pattern, &estimates);
    let generators = generating_edges(&query.pattern, &order, &domains);
    let steps = order
        .iter()
        .zip(&generators)
        .map(|(&i, generator)| {
            let pn = &query.pattern.nodes[i];
            let label_indexed = || {
                let label = pn.label.as_deref();
                label.is_some() && g.candidate_estimate(label, &[]).is_some()
            };
            PlanStep {
                var: pn.var.clone(),
                access: if domains[i].is_some() || label_indexed() {
                    Access::Index
                } else {
                    Access::Scan
                },
                estimate: estimates[i],
                props: pn.props.len(),
                label: pn.label.clone(),
                hops: generator.and_then(|ei| query.pattern.edges[ei].hops),
            }
        })
        .collect();
    let explain = ExplainPlan {
        nodes: query.pattern.nodes.len(),
        pushed,
        residual: residual_count,
        steps,
    };
    Ok(PlannedSelect {
        query,
        domains,
        explain,
    })
}

/// Plans and executes `query` ungoverned, returning the rows
/// (identical to [`crate::eval::evaluate_select_unplanned`]'s) plus the
/// plan.
pub fn evaluate_select_planned<G: AttributedView + ?Sized>(
    g: &G,
    query: &SelectQuery,
) -> Result<(ResultSet, ExplainPlan)> {
    let planned = plan_select(g, query)?;
    let rs = execute_planned_governed(g, &planned, &ExecutionGuard::unlimited())?;
    Ok((rs, planned.explain))
}

/// Executes an already-planned query under an [`ExecutionGuard`] — the
/// entry point for plan-cache consumers (a query server) that plan
/// once and execute many times against an immutable snapshot.
///
/// The plan is logical: how the pattern runs is
/// [`match_pattern_seeded`]'s decision, taken from `g` at execution
/// time. That includes its degradation ladder — the cached domains are
/// re-probed against `g` and, if any candidate id dangles (the plan
/// was made against a different or since-mutated graph), discarded in
/// favour of the governed reference matcher: slower, never wrong.
pub fn execute_planned_governed<G: AttributedView + ?Sized>(
    g: &G,
    planned: &PlannedSelect,
    guard: &ExecutionGuard,
) -> Result<ResultSet> {
    let table = match_pattern_seeded(g, &planned.query.pattern, &planned.domains, guard)?;
    finish_select(g, &planned.query, &table)
}

/// Splits `expr` into its top-level AND conjuncts.
fn conjuncts(expr: Expr) -> Vec<Expr> {
    let mut out = Vec::new();
    split_and(expr, &mut out);
    out
}

fn split_and(expr: Expr, out: &mut Vec<Expr>) {
    match expr {
        Expr::Bin(BinOp::And, lhs, rhs) => {
            split_and(*lhs, out);
            split_and(*rhs, out);
        }
        other => out.push(other),
    }
}

/// Tries to turn one conjunct into a pattern constraint. Returns true
/// when the conjunct was absorbed and must leave the filter.
fn push_conjunct(pattern: &mut Pattern, expr: &Expr) -> bool {
    let Expr::Bin(BinOp::Eq, lhs, rhs) = expr else {
        return false;
    };
    let (var, key, value) = match (&**lhs, &**rhs) {
        (Expr::Prop(v, k), Expr::Lit(val)) | (Expr::Lit(val), Expr::Prop(v, k)) => (v, k, val),
        _ => return false,
    };
    // `NULL = missing-property` is true in a filter but unmatchable as
    // a pattern constraint; keep NULL comparisons in the residual.
    if matches!(value, Value::Null) {
        return false;
    }
    let Some(pn) = pattern.nodes.iter_mut().find(|n| n.var == *var) else {
        return false;
    };
    match key.as_str() {
        // Pseudo-properties computed at eval time; nothing stored to
        // constrain on.
        "id" | "degree" => false,
        // The label pseudo-property maps onto the pattern's label slot
        // when it is free (an already-labelled variable keeps the
        // conjunct in the residual — if the labels differ the filter
        // correctly empties the result).
        "label" => match (&pn.label, value) {
            (None, Value::Str(want)) => {
                pn.label = Some(want.clone());
                true
            }
            _ => false,
        },
        _ => {
            pn.props.push((key.clone(), value.clone()));
            true
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::Projection;
    use crate::eval::evaluate_select_unplanned;
    use gdm_algo::PatternNode;
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

    fn name_query(filter: Option<Expr>) -> SelectQuery {
        let mut q = SelectQuery::default();
        q.pattern.node(PatternNode::var("p").with_label("person"));
        q.projections.push(Projection::Expr {
            name: "name".into(),
            expr: Expr::Prop("p".into(), "name".into()),
        });
        q.filter = filter;
        q
    }

    #[test]
    fn equality_predicates_are_pushed() {
        let g = social();
        let q = name_query(Some(Expr::bin(
            BinOp::And,
            Expr::bin(
                BinOp::Eq,
                Expr::Prop("p".into(), "age".into()),
                Expr::Lit(Value::from(36)),
            ),
            Expr::bin(
                BinOp::Gt,
                Expr::Prop("p".into(), "age".into()),
                Expr::Lit(Value::from(0)),
            ),
        )));
        let planned = plan_select(&g, &q).unwrap();
        assert_eq!(planned.explain.pushed, 1);
        assert_eq!(planned.explain.residual, 1);
        assert!(planned.query.filter.is_some(), "residual survives");
        assert_eq!(planned.query.pattern.nodes[0].props.len(), 1);
        let (rs, _) = evaluate_select_planned(&g, &q).unwrap();
        assert_eq!(rs, evaluate_select_unplanned(&g, &q).unwrap());
        assert_eq!(rs.len(), 1);
        assert_eq!(rs.rows[0][0], Value::from("ada"));
    }

    #[test]
    fn reversed_operands_and_label_pseudo_prop_push() {
        let g = social();
        let mut q = SelectQuery::default();
        q.pattern.node(PatternNode::var("p"));
        q.projections.push(Projection::Expr {
            name: "id".into(),
            expr: Expr::Prop("p".into(), "id".into()),
        });
        q.filter = Some(Expr::bin(
            BinOp::Eq,
            Expr::Lit(Value::from("company")),
            Expr::Prop("p".into(), "label".into()),
        ));
        let planned = plan_select(&g, &q).unwrap();
        assert_eq!(planned.explain.pushed, 1);
        assert_eq!(planned.explain.residual, 0);
        assert_eq!(
            planned.query.pattern.nodes[0].label.as_deref(),
            Some("company")
        );
        assert!(planned.query.filter.is_none());
        let (rs, _) = evaluate_select_planned(&g, &q).unwrap();
        assert_eq!(rs, evaluate_select_unplanned(&g, &q).unwrap());
        assert_eq!(rs.len(), 1);
    }

    #[test]
    fn null_and_pseudo_predicates_stay_in_residual() {
        let g = social();
        let q = name_query(Some(Expr::bin(
            BinOp::And,
            Expr::bin(
                BinOp::Eq,
                Expr::Prop("p".into(), "salary".into()),
                Expr::Lit(Value::Null),
            ),
            Expr::bin(
                BinOp::Eq,
                Expr::Prop("p".into(), "degree".into()),
                Expr::Lit(Value::from(2)),
            ),
        )));
        let planned = plan_select(&g, &q).unwrap();
        assert_eq!(planned.explain.pushed, 0);
        assert_eq!(planned.explain.residual, 2);
        // The NULL conjunct is true for every person (no salary
        // property), so only the degree filter bites — and unplanned
        // agrees.
        let (rs, _) = evaluate_select_planned(&g, &q).unwrap();
        assert_eq!(rs, evaluate_select_unplanned(&g, &q).unwrap());
        assert_eq!(rs.len(), 2); // ada (degree 2) and bob (degree 2)
    }

    #[test]
    fn plan_uses_property_indexes_on_property_graphs() {
        let g = social();
        let q = name_query(Some(Expr::bin(
            BinOp::Eq,
            Expr::Prop("p".into(), "name".into()),
            Expr::Lit(Value::from("bob")),
        )));
        let planned = plan_select(&g, &q).unwrap();
        assert_eq!(planned.explain.steps.len(), 1);
        let step = &planned.explain.steps[0];
        assert_eq!(step.access, Access::Index);
        assert_eq!(step.props, 1);
        assert_eq!(step.label.as_deref(), Some("person"));
        assert!(step.estimate <= 1, "name index is near-unique");
        assert_eq!(
            planned.domains[0].as_ref().map(Vec::len),
            Some(step.estimate.min(1))
        );
    }

    #[test]
    fn explain_render_parse_round_trips() {
        let g = social();
        let mut q = SelectQuery::default();
        let a = q.pattern.node(PatternNode::var("a").with_label("person"));
        let b = q.pattern.node(PatternNode::var("b"));
        q.pattern.edge(a, b, Some("knows")).unwrap();
        q.projections.push(Projection::Expr {
            name: "x".into(),
            expr: Expr::Var("a".into()),
        });
        q.filter = Some(Expr::bin(
            BinOp::Eq,
            Expr::Prop("a".into(), "name".into()),
            Expr::Lit(Value::from("ada")),
        ));
        let planned = plan_select(&g, &q).unwrap();
        let text = planned.explain.render();
        assert!(text.starts_with("plan nodes=2 pushed=1 residual=0"));
        let back = ExplainPlan::parse(&text).unwrap();
        assert_eq!(back, planned.explain);
    }

    #[test]
    fn variable_length_paths_lower_into_the_pattern_and_explain_as_hops() {
        let g = social();
        let mut q = name_query(None);
        q.pattern
            .node(PatternNode::var("a").with_prop("name", "ada"));
        q.var_paths.push(crate::ast::VarLengthEdge {
            from: "a".into(),
            to: "p".into(),
            label: Some("knows".into()),
            direction: gdm_core::Direction::Outgoing,
            min: 1,
            max: 2,
        });
        let planned = plan_select(&g, &q).unwrap();
        assert!(planned.query.var_paths.is_empty());
        assert_eq!(planned.query.pattern.edges[0].hops, Some((1, 2)));
        // `p` is constrained by label alone: index access by estimate,
        // nothing materialised.
        assert!(planned.domains[0].is_none());
        let text = planned.explain.render();
        assert_eq!(
            text,
            "plan nodes=2 pushed=0 residual=0\n\
             step var=a access=index estimate=1 props=1\n\
             step var=p access=index estimate=2 props=0 label=person hops=1..2\n"
        );
        assert_eq!(ExplainPlan::parse(&text).unwrap(), planned.explain);
        assert!(ExplainPlan::parse(&text.replace("1..2", "1-2")).is_err());
        let (rs, _) = evaluate_select_planned(&g, &q).unwrap();
        assert_eq!(rs, evaluate_select_unplanned(&g, &q).unwrap());
        assert_eq!(rs.len(), 2);
    }

    #[test]
    fn explain_parse_rejects_garbage() {
        assert!(ExplainPlan::parse("").is_err());
        assert!(ExplainPlan::parse("nope nodes=1").is_err());
        assert!(ExplainPlan::parse("plan nodes=x pushed=0 residual=0").is_err());
        assert!(ExplainPlan::parse("plan nodes=0 pushed=0 residual=0\nstep var=a").is_err());
    }

    #[test]
    fn frozen_snapshot_plans_render_like_the_live_graph() {
        let g = social();
        let fz = gdm_algo::FrozenGraph::freeze(&g);
        let q = name_query(Some(Expr::bin(
            BinOp::Eq,
            Expr::Prop("p".into(), "name".into()),
            Expr::Lit(Value::from("bob")),
        )));
        // The plan is logical: which executor runs is decided from the
        // view at execution time, so freezing changes no byte of it.
        let live = plan_select(&g, &q).unwrap();
        let frozen = plan_select(&fz, &q).unwrap();
        assert_eq!(frozen.explain.render(), live.explain.render());
        assert_eq!(
            live.explain.render(),
            "plan nodes=1 pushed=1 residual=0\n\
             step var=p access=index estimate=1 props=1 label=person\n"
        );
        // Both executors return identical rows.
        let (rows_live, _) = evaluate_select_planned(&g, &q).unwrap();
        let (rows_frozen, _) = evaluate_select_planned(&fz, &q).unwrap();
        assert_eq!(rows_live, rows_frozen);
        assert_eq!(rows_frozen.len(), 1);
    }

    #[test]
    fn edge_ranges_filter_rows_on_live_and_frozen_views() {
        let mut g = PropertyGraph::new();
        let mut people = Vec::new();
        for i in 0..10i64 {
            people.push(g.add_node("person", props! { "i" => i }));
        }
        for i in 0..10usize {
            let j = (i + 1) % 10;
            g.add_edge(
                people[i],
                people[j],
                "knows",
                props! { "since" => 2000 + i as i64 },
            )
            .unwrap();
        }
        let mut q = SelectQuery::default();
        let a = q.pattern.node(PatternNode::var("a"));
        let b = q.pattern.node(PatternNode::var("b"));
        q.pattern.edge(a, b, Some("knows")).unwrap();
        q.pattern
            .edge_range("since", Some(Value::from(2003)), Some(Value::from(2005)))
            .unwrap();
        q.projections.push(Projection::Expr {
            name: "i".into(),
            expr: Expr::Prop("a".into(), "i".into()),
        });
        // The range stays on the pattern edge, which every matcher
        // re-checks per edge: it seeds no endpoint domain.
        let planned = plan_select(&g, &q).unwrap();
        assert!(planned.domains.iter().all(Option::is_none));
        let (rs, _) = evaluate_select_planned(&g, &q).unwrap();
        assert_eq!(rs, evaluate_select_unplanned(&g, &q).unwrap());
        assert_eq!(rs.len(), 3);
        // The frozen snapshot answers identically through the batch
        // executor.
        let fz = gdm_algo::FrozenGraph::freeze(&g);
        let (rs_fz, _) = evaluate_select_planned(&fz, &q).unwrap();
        assert_eq!(rs_fz, rs);
    }

    /// A re-freeze that deletes a node swap-removes it, so dense order
    /// stops being id order; a snapshot's `{key: value}` candidates must
    /// still ascend by id, as [`AttributedView::candidates`] promises,
    /// and a planned edge-range query over them must answer like the
    /// live graph. (Its name is from when an edge range seeded a domain
    /// that these candidates were intersected with.)
    #[test]
    fn snapshot_domains_intersect_after_a_swap_remove() {
        use gdm_core::DeltaTracker;
        let mut g = PropertyGraph::new();
        let people: Vec<_> = (0..10i64)
            .map(|i| g.add_node("person", props! { "c" => i % 2, "i" => i }))
            .collect();
        for i in 0..10usize {
            let since = props! { "since" => 2000 + i as i64 };
            g.add_edge(people[i], people[(i + 1) % 10], "knows", since)
                .unwrap();
        }
        let prev = gdm_algo::FrozenGraph::freeze(&g);
        let mut tracker = DeltaTracker::new();
        tracker.reset(prev.epoch());
        g.remove_node(people[2]).unwrap();
        tracker.remove_node(people[2].raw());
        let fz = gdm_algo::incremental_refreeze(&g, &prev, tracker.peek());

        let odd = fz.candidates(Some("person"), &[("c".into(), Value::from(1))]);
        let ids: Vec<u64> = odd.iter().map(|n| n.raw()).collect();
        assert_eq!(ids, [1, 3, 5, 7, 9].map(|i| people[i].raw()));

        let mut q = SelectQuery::default();
        let a = q
            .pattern
            .node(PatternNode::var("a").with_label("person").with_prop("c", 1));
        let b = q.pattern.node(PatternNode::var("b"));
        q.pattern.edge(a, b, Some("knows")).unwrap();
        q.pattern
            .edge_range("since", Some(Value::from(2000)), Some(Value::from(2100)))
            .unwrap();
        q.projections.push(Projection::Expr {
            name: "i".into(),
            expr: Expr::Prop("a".into(), "i".into()),
        });
        let (rs, _) = evaluate_select_planned(&fz, &q).unwrap();
        assert_eq!(rs, evaluate_select_unplanned(&g, &q).unwrap());
        assert_eq!(rs.len(), 4);
    }

    #[test]
    fn planned_join_matches_unplanned() {
        let g = social();
        let mut q = SelectQuery::default();
        let a = q.pattern.node(PatternNode::var("a"));
        let b = q.pattern.node(PatternNode::var("b"));
        q.pattern.edge(a, b, Some("knows")).unwrap();
        q.projections.push(Projection::Expr {
            name: "to".into(),
            expr: Expr::Prop("b".into(), "name".into()),
        });
        q.filter = Some(Expr::bin(
            BinOp::Eq,
            Expr::Prop("a".into(), "label".into()),
            Expr::Lit(Value::from("person")),
        ));
        let (rs, explain) = evaluate_select_planned(&g, &q).unwrap();
        assert_eq!(rs, evaluate_select_unplanned(&g, &q).unwrap());
        assert_eq!(explain.nodes, 2);
        assert_eq!(explain.steps.len(), 2);
    }
}
