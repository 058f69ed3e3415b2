//! # gdm-schema
//!
//! Graph schemas and the integrity constraints of the paper's Table VI.
//!
//! "Integrity constraints are general statements and rules that define
//! the set of consistent database states, or changes of state, or
//! both." The paper finds constraints "poorly studied in graph
//! databases" and catalogs six kinds; all six are implemented here as
//! checkers over any [`gdm_core::AttributedView`]:
//!
//! | Table VI column | Implementation |
//! |---|---|
//! | Types checking | [`Constraint::TypeChecking`] against a [`Schema`] |
//! | Node/edge identity | [`Constraint::Identity`] (unique key property per type) |
//! | Referential integrity | [`Constraint::ReferentialIntegrity`] |
//! | Cardinality checking | [`Constraint::Cardinality`] via [`Cardinality`] on edge types |
//! | Functional dependency | [`Constraint::FunctionalDependency`] |
//! | Graph pattern constraints | [`Constraint::GraphPattern`] (forbidden / required patterns) |
//!
//! The paper also argues that an evolving schema is compatible with
//! constraints "by allowing flexible structures in the schema (as in
//! semi-structure data models). For example, the definition of a
//! relation type as optional" — reproduced by
//! [`PropertyType::required`] and [`EdgeTypeDef::optional`].

pub mod constraints;
pub mod schema;

pub use constraints::{check, validate, Constraint, PatternKind, Violation};
pub use schema::{Cardinality, EdgeTypeDef, NodeTypeDef, PropertyType, Schema, ValueType};
