//! # gdm-compare
//!
//! The comparison harness that regenerates the paper's Tables I–VIII.
//!
//! Two ingredients per table:
//!
//! 1. [`cells`] — the cell values the paper records (with the
//!    reconstruction caveats documented in EXPERIMENTS.md: the source
//!    PDF's checkmark alignment is partially mangled, so some cells are
//!    reconstructed from the prose).
//! 2. [`probes`] — executable probes against the running engine
//!    emulations. Every probeable claim is *verified by execution*:
//!    a `•` cell must correspond to a facade call that succeeds, a
//!    blank cell to one that returns `Unsupported`. Table builders in
//!    [`tables`] run the probes and fail loudly on any mismatch, so a
//!    regenerated table is evidence, not transcription.
//!
//! [`matrix::SupportMatrix`] renders tables in the paper's visual
//! format (`•` / `◦` / blank) plus markdown and CSV.

pub mod cells;
pub mod matrix;
pub mod past_languages;
pub mod probes;
pub mod tables;

pub use matrix::SupportMatrix;
pub use tables::{all_tables, TableId};
