//! # gdm-core
//!
//! Core vocabulary for the graph-database-model comparison library, the
//! executable reproduction of *"A Comparison of Current Graph Database
//! Models"* (Angles, ICDE/GDM 2012).
//!
//! This crate holds the types every other crate speaks:
//!
//! * [`NodeId`] / [`EdgeId`] / [`GraphId`] — opaque identifiers,
//! * [`Value`] and [`PropertyMap`] — the attribute value model,
//! * [`Symbol`] and [`Interner`] — interned labels and property keys,
//! * [`GraphView`] — the minimal read abstraction all essential-query
//!   algorithms are generic over,
//! * [`GdmError`] — the shared error type, including the
//!   [`GdmError::Unsupported`] variant the comparison harness probes for,
//! * [`Support`] — the `•` / `◦` / blank cell values of the paper's tables,
//! * [`fxhash`] — an in-tree Fx-style hasher so hot maps keyed by ids do
//!   not pay SipHash costs (see DESIGN.md §6).

pub mod delta;
pub mod error;
pub mod fxhash;
pub mod id;
pub mod intern;
pub mod property;
pub mod support;
pub mod value;
pub mod view;

pub use delta::{DeltaTracker, FreezeDelta};
pub use error::{GdmError, InterruptReason, Result};
pub use fxhash::{FxHashMap, FxHashSet};
pub use id::{EdgeId, GraphId, NodeId};
pub use intern::{Interner, Symbol};
pub use property::PropertyMap;
pub use support::Support;
pub use value::Value;
pub use view::{AttributedView, Direction, EdgeRef, GraphView};
