//! # gdm-algo
//!
//! The essential graph queries of the paper's Section IV, implemented
//! once, generically over [`gdm_core::GraphView`], so that every data
//! model in `gdm-graphs` — and therefore every engine emulation —
//! answers the same queries through the same code:
//!
//! 1. **Adjacency queries** ([`adjacency`]): node/edge adjacency tests
//!    and k-neighborhood listing.
//! 2. **Reachability queries** ([`paths`], [`regular`]): reachability,
//!    fixed-length paths, regular (simple) paths over edge-label
//!    regular expressions, shortest paths (unweighted and weighted).
//! 3. **Pattern matching queries** ([`pattern`]): subgraph isomorphism
//!    (VF2-style backtracking) with a brute-force oracle for testing.
//! 4. **Summarization queries** ([`summary`]): aggregation functions
//!    plus the structural functions the paper lists — order, degree,
//!    minimum/maximum/average degree, path length, distance between
//!    nodes, diameter.
//!
//! [`traverse`] provides the BFS/DFS machinery and a Neo4j-style
//! fluent traversal description (the "framework for graph traversals"
//! of the paper's Neo4j description); [`analysis`] adds the analysis
//! functions Table V probes (connected components, triangle counting,
//! clustering coefficients).
//!
//! For read-heavy workloads, [`frozen`] compiles any view into a
//! point-in-time CSR snapshot ([`FrozenGraph`]) that answers the same
//! queries identically but at array speed, and [`parallel`] holds the
//! one fan-out driver: the calling thread runs the work in morsels and
//! scoped helpers, capped process-wide, join it — for the expensive
//! analyses (diameter, components, triangles) and for pattern queries
//! big enough to pay for a thread.
//!
//! The searches whose cost the paper calls unbounded — [`match_pattern`],
//! [`match_pattern_seeded`], [`shortest_path`], [`regular_path_exists`]
//! and [`diameter`] — each exist once, take an [`ExecutionGuard`] and
//! return a `Result`; they charge it only through a per-thread
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
pub use parallel::{
    default_threads, executor_workers, par_connected_components, par_diameter, par_eccentricities,
    par_triangle_count, set_executor_workers,
};
pub use paths::{
    bidirectional_shortest_path, dijkstra, distance, fixed_length_path_exists, fixed_length_paths,
    is_reachable, shortest_path, Path,
};
pub use pattern::{match_pattern, within_hops, Pattern, PatternEdge, PatternNode};
pub use planned::{
    auto_domains, domain_estimates, domains_consistent, generating_edges, match_pattern_seeded,
    planned_order, Domains, MatchTable,
};
pub use refreeze::{incremental_refreeze, incremental_refreeze_structural};
pub use regular::{regular_path_exists, regular_simple_paths, LabelRegex};
pub use summary::{aggregate, degree_stats, diameter, graph_order, graph_size, Aggregate};
pub use traverse::{bfs_order, dfs_order, Traversal};

/// The guard every governed search here takes, re-exported so a caller
/// can pass `ExecutionGuard::unlimited()` without its own `gdm-govern`
/// dependency.
pub use gdm_govern::ExecutionGuard;
