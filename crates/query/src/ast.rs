//! The logical query algebra every dialect lowers to.
//!
//! A [`SelectQuery`] is a graph pattern (reusing
//! [`gdm_algo::pattern::Pattern`]) plus optional variable-length path
//! constraints, a filter expression, projections (possibly aggregate),
//! ordering, and limits. Dialect parsers build this; [`crate::eval`]
//! executes it.

use gdm_algo::pattern::Pattern;
use gdm_algo::summary::Aggregate;
use gdm_core::{Direction, GdmError, Result, Value};

/// Binary operators in filter and projection expressions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BinOp {
    /// Loose equality (int/float coercion).
    Eq,
    /// Negated loose equality.
    Ne,
    /// Less-than.
    Lt,
    /// Less-or-equal.
    Le,
    /// Greater-than.
    Gt,
    /// Greater-or-equal.
    Ge,
    /// Logical and.
    And,
    /// Logical or.
    Or,
    /// Addition / concatenation.
    Add,
    /// Subtraction.
    Sub,
    /// Multiplication.
    Mul,
    /// Division.
    Div,
}

/// A scalar expression over one binding.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// Literal value.
    Lit(Value),
    /// `var.key` — a property of the node bound to `var`.
    Prop(String, String),
    /// Bare variable — evaluates to the bound node's id.
    Var(String),
    /// Logical negation.
    Not(Box<Expr>),
    /// Binary operation.
    Bin(BinOp, Box<Expr>, Box<Expr>),
}

impl Expr {
    /// Convenience: `lhs op rhs`.
    pub fn bin(op: BinOp, lhs: Expr, rhs: Expr) -> Expr {
        Expr::Bin(op, Box::new(lhs), Box::new(rhs))
    }
}

/// A projected column.
#[derive(Debug, Clone, PartialEq)]
pub enum Projection {
    /// A scalar expression with an output column name.
    Expr {
        /// Column name.
        name: String,
        /// Expression to evaluate per row.
        expr: Expr,
    },
    /// An aggregate over an expression (or `COUNT(*)` when `expr` is
    /// `None`).
    Aggregate {
        /// Column name.
        name: String,
        /// Which aggregate.
        agg: Aggregate,
        /// Aggregated expression; `None` = count rows.
        expr: Option<Expr>,
    },
}

impl Projection {
    /// The output column name.
    pub fn name(&self) -> &str {
        match self {
            Projection::Expr { name, .. } | Projection::Aggregate { name, .. } => name,
        }
    }

    /// True for aggregate projections.
    pub fn is_aggregate(&self) -> bool {
        matches!(self, Projection::Aggregate { .. })
    }
}

/// A variable-length path constraint between two pattern variables
/// (Cypher's `-[:T*min..max]->`): a walk of `min..=max` hops leads
/// from `from` to `to`.
#[derive(Debug, Clone, PartialEq)]
pub struct VarLengthEdge {
    /// Variable the walk starts at.
    pub from: String,
    /// Variable the walk ends at.
    pub to: String,
    /// Required edge label, if any.
    pub label: Option<String>,
    /// How each hop follows its edge, relative to the walk: `Outgoing`
    /// for `-[*]->`, `Incoming` for `<-[*]-`, `Both` for `-[*]-`.
    pub direction: Direction,
    /// Minimum hops (≥ 1).
    pub min: usize,
    /// Maximum hops.
    pub max: usize,
}

/// A complete read query in the shared algebra.
#[derive(Debug, Clone, Default)]
pub struct SelectQuery {
    /// The fixed graph pattern (variables + single-hop edges).
    pub pattern: Pattern,
    /// Variable-length path constraints between pattern variables. The
    /// planner lowers them into `pattern` as variable-length edges.
    pub var_paths: Vec<VarLengthEdge>,
    /// Row filter.
    pub filter: Option<Expr>,
    /// Projected columns (at least one).
    pub projections: Vec<Projection>,
    /// Grouping keys. With groups, every per-row projection must be
    /// one of these expressions; aggregates run per group. Cypher sets
    /// this implicitly (its RETURN groups by the non-aggregate items),
    /// GQL via an explicit `GROUP BY`.
    pub group_by: Vec<Expr>,
    /// Remove duplicate rows.
    pub distinct: bool,
    /// Sort key and ascending flag.
    pub order_by: Option<(Expr, bool)>,
    /// Skip this many rows after sorting.
    pub skip: usize,
    /// Keep at most this many rows.
    pub limit: Option<usize>,
}

impl SelectQuery {
    /// Validates internal consistency: projections present, variables
    /// referenced by paths/filter/projections exist in the pattern,
    /// and aggregates are not mixed with row projections.
    pub fn validate(&self) -> Result<()> {
        if self.projections.is_empty() {
            return Err(GdmError::InvalidArgument(
                "query projects no columns".into(),
            ));
        }
        let has_agg = self.projections.iter().any(Projection::is_aggregate);
        let has_row = self.projections.iter().any(|p| !p.is_aggregate());
        if has_agg && has_row && self.group_by.is_empty() {
            return Err(GdmError::InvalidArgument(
                "mixing aggregate and per-row projections requires GROUP BY".into(),
            ));
        }
        if !self.group_by.is_empty() {
            for p in &self.projections {
                if let Projection::Expr { expr, name } = p {
                    if !self.group_by.contains(expr) {
                        return Err(GdmError::InvalidArgument(format!(
                            "projected column {name:?} is neither aggregated nor a grouping key"
                        )));
                    }
                }
            }
        }
        let known = |var: &str| self.pattern.nodes.iter().any(|n| n.var == var);
        for vp in &self.var_paths {
            for v in [&vp.from, &vp.to] {
                if !known(v) {
                    return Err(GdmError::InvalidArgument(format!(
                        "path references unknown variable {v:?}"
                    )));
                }
            }
            if vp.min == 0 {
                return Err(GdmError::InvalidArgument(
                    "variable-length paths require min >= 1".into(),
                ));
            }
            if vp.min > vp.max {
                return Err(GdmError::InvalidArgument(format!(
                    "path range {}..{} is empty",
                    vp.min, vp.max
                )));
            }
        }
        let mut exprs: Vec<&Expr> = Vec::new();
        exprs.extend(self.group_by.iter());
        if let Some(f) = &self.filter {
            exprs.push(f);
        }
        if let Some((e, _)) = &self.order_by {
            // `ORDER BY alias` names a projected column, not a pattern
            // variable; only non-alias order keys are variable-checked.
            let is_alias = matches!(
                e,
                Expr::Var(name) if self.projections.iter().any(|p| p.name() == name)
            );
            if !is_alias {
                exprs.push(e);
            }
        }
        for p in &self.projections {
            match p {
                Projection::Expr { expr, .. } => exprs.push(expr),
                Projection::Aggregate { expr: Some(e), .. } => exprs.push(e),
                Projection::Aggregate { expr: None, .. } => {}
            }
        }
        for e in exprs {
            check_vars(e, &known)?;
        }
        Ok(())
    }
}

fn check_vars(expr: &Expr, known: &impl Fn(&str) -> bool) -> Result<()> {
    match expr {
        Expr::Lit(_) => Ok(()),
        Expr::Prop(var, _) | Expr::Var(var) => {
            if known(var) {
                Ok(())
            } else {
                Err(GdmError::InvalidArgument(format!(
                    "expression references unknown variable {var:?}"
                )))
            }
        }
        Expr::Not(inner) => check_vars(inner, known),
        Expr::Bin(_, l, r) => {
            check_vars(l, known)?;
            check_vars(r, known)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gdm_algo::pattern::PatternNode;

    fn base_query() -> SelectQuery {
        let mut q = SelectQuery::default();
        q.pattern.node(PatternNode::var("a"));
        q.projections.push(Projection::Expr {
            name: "a".into(),
            expr: Expr::Var("a".into()),
        });
        q
    }

    #[test]
    fn valid_minimal_query() {
        assert!(base_query().validate().is_ok());
    }

    #[test]
    fn missing_projection_rejected() {
        let mut q = base_query();
        q.projections.clear();
        assert!(q.validate().is_err());
    }

    #[test]
    fn unknown_variables_rejected() {
        let mut q = base_query();
        q.filter = Some(Expr::Prop("ghost".into(), "x".into()));
        assert!(q.validate().is_err());

        let mut q2 = base_query();
        q2.var_paths.push(VarLengthEdge {
            from: "a".into(),
            to: "ghost".into(),
            label: None,
            direction: Direction::Outgoing,
            min: 1,
            max: 2,
        });
        assert!(q2.validate().is_err());
    }

    #[test]
    fn bad_path_ranges_rejected() {
        let mut q = base_query();
        q.pattern.node(PatternNode::var("b"));
        q.var_paths.push(VarLengthEdge {
            from: "a".into(),
            to: "b".into(),
            label: None,
            direction: Direction::Outgoing,
            min: 0,
            max: 2,
        });
        assert!(q.validate().is_err());
        q.var_paths[0].min = 3;
        q.var_paths[0].max = 2;
        assert!(q.validate().is_err());
    }

    #[test]
    fn aggregate_row_mix_rejected() {
        let mut q = base_query();
        q.projections.push(Projection::Aggregate {
            name: "c".into(),
            agg: Aggregate::Count,
            expr: None,
        });
        assert!(q.validate().is_err());
    }
}
