//! # gdm-algo
//!
//! The essential graph queries of the paper's Section IV, implemented
//! once, generically over [`gdm_core::GraphView`], so that every data
//! model in `gdm-graphs` — and therefore every engine emulation —
//! answers the same queries through the same code:
//!
//! 1. **Adjacency queries** ([`adjacency`]): node/edge adjacency tests
//!    and k-neighborhood listing.
//! 2. **Reachability queries** ([`paths`], [`regular`]): fixed-length
//!    simple paths, regular paths over edge-label regular expressions
//!    (walks and simple paths), and unweighted shortest paths and
//!    distances.
//! 3. **Pattern matching queries** ([`pattern`]): subgraph isomorphism
//!    (VF2-style backtracking) with a brute-force oracle for testing.
//! 4. **Summarization queries** ([`summary`]): aggregation functions
//!    plus the structural functions the paper lists — order, degree,
//!    minimum/maximum/average degree, path length, distance between
//!    nodes, diameter.
//!
//! [`traverse`] holds the one level-walk kernel every breadth-first
//! search here runs through — the regular-path walk included, over
//! `(node, automaton state)` keys — and a Neo4j-style fluent traversal
//! description (the "framework for graph traversals" of the paper's
//! Neo4j description); [`analysis`] adds the analysis functions Table V
//! probes (connected components, triangle counting, clustering
//! coefficients). The one exception to the kernel rule is
//! [`within_hops`], the reference predicate the variable-length edge is
//! tested against: it keeps its own breadth-first search so that the
//! oracle does not share the code it checks.
//!
//! For read-heavy workloads, [`frozen`] compiles any view into a
//! point-in-time CSR snapshot ([`FrozenGraph`]) that answers the same
//! queries identically but at array speed, and [`parallel`] holds the
//! fan-out driver of the pattern pipeline: the calling thread runs a
//! match in morsels and scoped helpers, capped process-wide, join it
//! when the match is big enough to pay for a thread.
//!
//! Every search whose cost grows with the graph — the matchers, the
//! path and reachability searches, components, eccentricity, diameter
//! and k-neighborhood — exists once, takes an [`ExecutionGuard`] and
//! returns a `Result`; it charges the guard only through a per-thread
//! `gdm_govern::Meter`, and ungoverned callers pass
//! [`ExecutionGuard::unlimited`].
//!
//! Pattern matching has two public matchers: the reference oracle
//! [`match_pattern`] and the planned entry point
//! [`match_pattern_seeded`], which picks its executor from the input
//! view — the [`vectorized`] batch pipeline for snapshots (inline on
//! the calling thread unless its estimated work admits it to the
//! driver, then on at most [`executor_workers`] threads); a
//! row-at-a-time search for live views.

pub mod adjacency;
pub mod analysis;
pub mod frozen;
pub mod parallel;
pub mod paths;
pub mod pattern;
pub mod planned;
pub mod refreeze;
pub mod regular;
pub mod summary;
pub mod traverse;
pub mod vectorized;

pub use adjacency::{edges_adjacent, k_neighborhood, nodes_adjacent};
pub use frozen::FrozenGraph;
pub use parallel::{default_threads, executor_workers, set_executor_workers};
pub use paths::{distance, fixed_length_paths, shortest_path, Path};
pub use pattern::{match_pattern, within_hops, Pattern, PatternEdge, PatternNode};
pub use planned::{
    auto_domains, domain_estimates, domains_consistent, generating_edges, match_pattern_seeded,
    planned_order, Domains, MatchTable,
};
pub use refreeze::incremental_refreeze;
pub use regular::{regular_path_exists, regular_simple_paths, LabelRegex};
pub use summary::{aggregate, degree_stats, diameter, graph_order, graph_size, Aggregate};
pub use traverse::Traversal;

/// The guard every governed search here takes, re-exported so a caller
/// can pass `ExecutionGuard::unlimited()` without its own `gdm-govern`
/// dependency.
pub use gdm_govern::ExecutionGuard;
