//! The [`GraphEngine`] facade and the engine factory.
//!
//! The facade's method set is chosen so that `gdm-compare` can derive
//! the paper's tables **by execution**: each table column corresponds
//! to one or more facade calls, and an engine that lacks the feature
//! returns [`gdm_core::GdmError::Unsupported`]. Catalog-only facts the
//! paper records but that have no executable form here (shipping a
//! GUI, a graphical query language) live in [`EngineDescriptor`].

use crate::engine::Profile;
use gdm_algo::pattern::Pattern;
use gdm_algo::summary::Aggregate;
use gdm_core::{EdgeId, NodeId, PropertyMap, Result, Support, Value};
use gdm_govern::Limits;
use gdm_query::eval::ResultSet;
use gdm_schema::Constraint;
use std::path::{Path, PathBuf};

/// Catalog facts about an engine that have no executable probe.
#[derive(Debug, Clone)]
pub struct EngineDescriptor {
    /// Engine name as the paper spells it.
    pub name: &'static str,
    /// Shipped a graphical user interface (Table II "GUI").
    pub gui: Support,
    /// Shipped a graphical query language (Table V "Graphical Q.L.").
    pub graphical_ql: Support,
    /// Storage sits on a generic key/value or external backend
    /// (Table I "Backend storage") — an architecture fact.
    pub backend_storage: Support,
    /// One-line description quoted from / paraphrasing the paper.
    pub blurb: &'static str,
}

/// Structural summarization functions (Section IV.4's list).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SummaryFunc {
    /// Number of vertices.
    Order,
    /// Number of edges.
    Size,
    /// Degree of one node.
    Degree(NodeId),
    /// Minimum degree over the graph.
    MinDegree,
    /// Maximum degree over the graph.
    MaxDegree,
    /// Average degree over the graph.
    AvgDegree,
    /// Length of the shortest path between two nodes.
    Distance(NodeId, NodeId),
    /// Greatest distance between any two connected nodes.
    Diameter,
    /// Aggregate over a node property (label filter optional).
    PropertyAggregate(Aggregate, &'static str),
}

/// Analysis functions (Table V's "Analysis" column).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AnalysisFunc {
    /// Number of weakly connected components.
    ConnectedComponents,
    /// Number of triangles.
    Triangles,
    /// Average clustering coefficient.
    AverageClustering,
    /// Highest-degree node.
    TopDegreeNode,
}

/// What a serving layer (the `gdm-server` crate) takes from an engine
/// at startup: an immutable, thread-shareable snapshot of its graph,
/// the engine's identity, and its default governed-execution limits.
/// See [`GraphEngine::serving_snapshot`].
#[derive(Debug, Clone)]
pub struct ServingSnapshot {
    /// Engine name as the paper spells it.
    pub engine: &'static str,
    /// The point-in-time CSR snapshot queries are answered from.
    pub frozen: gdm_algo::FrozenGraph,
    /// The engine's default per-query limits (servers combine these
    /// with their own deadlines/budgets).
    pub limits: Limits,
}

/// The engine facade: every probe the comparison harness runs.
pub trait GraphEngine {
    /// Engine name as the paper spells it.
    fn name(&self) -> &'static str;

    /// Catalog facts (see [`EngineDescriptor`]).
    fn descriptor(&self) -> EngineDescriptor;

    // ---- data model (Tables III & IV probes) -----------------------

    /// Creates a node. `label` is the node type; engines whose model
    /// has no node labels accept `None` and reject `Some`.
    fn create_node(&mut self, label: Option<&str>, props: PropertyMap) -> Result<NodeId>;

    /// Creates a binary edge.
    fn create_edge(
        &mut self,
        from: NodeId,
        to: NodeId,
        label: Option<&str>,
        props: PropertyMap,
    ) -> Result<EdgeId>;

    /// Creates a hyperedge over ≥ 2 targets (hypergraph engines only).
    fn create_hyperedge(
        &mut self,
        label: &str,
        targets: &[NodeId],
        props: PropertyMap,
    ) -> Result<EdgeId>;

    /// Creates an edge whose source is another edge — Table III's
    /// "edges between edges".
    fn create_edge_on_edge(&mut self, from: EdgeId, to: NodeId, label: &str) -> Result<EdgeId>;

    /// Nests a subgraph inside a node (no surveyed engine supports
    /// this; present so Table III's "nested graphs" column is probed,
    /// not assumed).
    fn nest_subgraph(&mut self, node: NodeId) -> Result<()>;

    /// Sets a node attribute.
    fn set_node_attribute(&mut self, n: NodeId, key: &str, value: Value) -> Result<()>;

    /// Sets an edge attribute.
    fn set_edge_attribute(&mut self, e: EdgeId, key: &str, value: Value) -> Result<()>;

    /// Reads a node attribute.
    fn node_attribute(&self, n: NodeId, key: &str) -> Result<Option<Value>>;

    /// Deletes a node (and, where the model requires it, its edges).
    fn delete_node(&mut self, n: NodeId) -> Result<()>;

    /// Deletes an edge.
    fn delete_edge(&mut self, e: EdgeId) -> Result<()>;

    /// Number of nodes.
    fn node_count(&self) -> usize;

    /// Number of edges (hyperedges count once).
    fn edge_count(&self) -> usize;

    // ---- schema & constraints (Tables IV & VI probes) --------------

    /// Declares a node type in the engine's schema.
    fn define_node_type(&mut self, def: gdm_schema::NodeTypeDef) -> Result<()>;

    /// Declares an edge type in the engine's schema.
    fn define_edge_type(&mut self, def: gdm_schema::EdgeTypeDef) -> Result<()>;

    /// Installs an integrity constraint; future mutations violating it
    /// are rejected.
    fn install_constraint(&mut self, constraint: Constraint) -> Result<()>;

    // ---- languages (Tables II & V probes) ---------------------------

    /// Executes a DDL statement in the engine's own dialect.
    fn execute_ddl(&mut self, statement: &str) -> Result<()>;

    /// Executes a DML statement in the engine's own dialect.
    fn execute_dml(&mut self, statement: &str) -> Result<()>;

    /// Executes a read query in the engine's own dialect.
    fn execute_query(&mut self, query: &str) -> Result<ResultSet>;

    /// Renders the execution plan the engine would use for `query`
    /// without running it: predicate pushdown counts plus per-variable
    /// access method (index vs scan) and selectivity estimates, in the
    /// text form [`gdm_query::ExplainPlan::parse`] reads back.
    /// Engines whose dialect does not lower to the shared algebra
    /// refuse.
    fn explain(&self, query: &str) -> Result<String> {
        let _ = query;
        Err(gdm_core::GdmError::unsupported(
            self.name(),
            "explain".to_owned(),
        ))
    }

    /// Loads inference rules and answers `goal` (Table V "Reasoning").
    fn reason(&mut self, rules: &str, goal: &str) -> Result<Vec<Vec<String>>>;

    /// Runs an analysis function (Table V "Analysis").
    fn analyze(&self, func: AnalysisFunc) -> Result<Value>;

    // ---- essential queries (Table VII probes) -----------------------

    /// Are two nodes adjacent?
    fn adjacent(&self, a: NodeId, b: NodeId) -> Result<bool>;

    /// The k-neighborhood of `n`.
    fn k_neighborhood(&self, n: NodeId, k: usize) -> Result<Vec<NodeId>>;

    /// Number of simple paths of exactly `len` edges from `a` to `b`.
    fn fixed_length_paths(&self, a: NodeId, b: NodeId, len: usize) -> Result<usize>;

    /// Is there a walk from `a` to `b` whose labels match `expr`
    /// (label regular expression)?
    fn regular_path(&self, a: NodeId, b: NodeId, expr: &str) -> Result<bool>;

    /// Shortest path between two nodes, as the node sequence.
    fn shortest_path(&self, a: NodeId, b: NodeId) -> Result<Option<Vec<NodeId>>>;

    /// Number of matches of a structural pattern.
    fn pattern_match(&self, pattern: &Pattern) -> Result<usize>;

    /// A structural summarization function.
    fn summarize(&self, func: SummaryFunc) -> Result<Value>;

    /// Freezes the engine's current graph into a point-in-time CSR
    /// snapshot ([`gdm_algo::FrozenGraph`]) that answers every
    /// essential query identically but at array speed, and that the
    /// parallel executor ([`gdm_algo::parallel`]) can fan out over.
    /// Later mutations of the engine are invisible to the snapshot.
    fn snapshot(&self) -> Result<gdm_algo::FrozenGraph>;

    /// Refreshes a previously taken snapshot to the engine's current
    /// state: the engine records its mutations in a
    /// [`gdm_core::DeltaTracker`] and runs the O(changes) incremental
    /// re-freeze ([`gdm_algo::incremental_refreeze`]), patching only
    /// the CSR rows and index segments the delta touches and sharing
    /// the rest with `prev`. The result is content-identical to a
    /// fresh full snapshot — incrementality is a cost property, never
    /// a semantic one — and carries a new epoch, so serving layers can
    /// swap it in and key caches off it.
    fn refreeze(&self, prev: &gdm_algo::FrozenGraph) -> Result<gdm_algo::FrozenGraph>;

    /// How many mutations the engine's [`gdm_core::DeltaTracker`] has
    /// recorded since its snapshot was last (re-)frozen — what the
    /// engine's owning thread reports to the serving layer's
    /// auto-refresh policy (`gdm-server`'s `ServerHandle::refresh_if_due`,
    /// called with `|prev| engine.refreeze(prev)`). `u64::MAX`
    /// means the delta degraded to "everything changed" (untracked
    /// mutation or spill) and the next re-freeze will rebuild fully.
    fn pending_changes(&self) -> u64;

    /// Everything a network serving layer needs to answer read queries
    /// for this engine from worker threads: the point-in-time CSR
    /// snapshot plus the engine's identity and default limits.
    ///
    /// Engines themselves are deliberately not `Send` (several emulate
    /// 2012 storage managers with interior caches), so a server never
    /// holds the engine — it takes one `ServingSnapshot` per engine at
    /// startup and shares the immutable snapshot across sessions.
    /// Refuses exactly when [`GraphEngine::snapshot`] refuses.
    fn serving_snapshot(&self) -> Result<ServingSnapshot> {
        Ok(ServingSnapshot {
            engine: self.name(),
            frozen: self.snapshot()?,
            limits: self.default_limits(),
        })
    }

    // ---- governed execution (robustness) -----------------------------

    /// The engine's default resource limits for governed execution —
    /// what an operator would configure as this engine's query
    /// timeout/budget. Callers combine these with their own limits via
    /// the [`Limits`] builders before constructing an
    /// [`gdm_govern::ExecutionGuard`].
    fn default_limits(&self) -> Limits;

    // ---- transactions (the paper's database-vs-store split) ----------
    //
    // Section II: "We assume that a graph database must provide most of
    // the major components in database management systems, being them:
    // ... transaction engine ..." — the six systems it classes as
    // *graph databases* get snapshot transactions; the three *graph
    // stores* (Filament, G-Store, VertexDB) refuse.

    /// Begins a transaction. Graph *stores* refuse (no transaction
    /// engine — the paper's category distinction).
    fn begin_transaction(&mut self) -> Result<()>;

    /// Commits the open transaction.
    fn commit_transaction(&mut self) -> Result<()>;

    /// Rolls the open transaction back, restoring the pre-transaction
    /// state.
    fn rollback_transaction(&mut self) -> Result<()>;

    // ---- storage (Table I probes) ------------------------------------

    /// Flushes state to durable storage. Pure main-memory engines
    /// return `Unsupported` (Table I "External memory" blank).
    fn persist(&mut self) -> Result<()>;

    /// Creates a secondary index on a node property.
    fn create_index(&mut self, property: &str) -> Result<()>;

    /// Point lookup by property value; routes through an index when
    /// one exists.
    fn lookup_by_property(&self, key: &str, value: &Value) -> Result<Vec<NodeId>>;
}

/// The nine surveyed engines.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EngineKind {
    /// AllegroGraph.
    Allegro,
    /// DEX.
    Dex,
    /// Filament.
    Filament,
    /// G-Store.
    GStore,
    /// HyperGraphDB.
    HyperGraphDb,
    /// InfiniteGraph.
    InfiniteGraph,
    /// Neo4j.
    Neo4j,
    /// Sones.
    Sones,
    /// VertexDB.
    VertexDb,
}

impl EngineKind {
    /// All engines in the paper's table order.
    pub fn all() -> [EngineKind; 9] {
        [
            EngineKind::Allegro,
            EngineKind::Dex,
            EngineKind::Filament,
            EngineKind::GStore,
            EngineKind::HyperGraphDb,
            EngineKind::InfiniteGraph,
            EngineKind::Neo4j,
            EngineKind::Sones,
            EngineKind::VertexDb,
        ]
    }

    /// The engine as data: its row of the paper's tables.
    pub fn profile(self) -> &'static Profile {
        match self {
            EngineKind::Allegro => &crate::allegro::PROFILE,
            EngineKind::Dex => &crate::dex::PROFILE,
            EngineKind::Filament => &crate::filament::PROFILE,
            EngineKind::GStore => &crate::gstore::PROFILE,
            EngineKind::HyperGraphDb => &crate::hypergraphdb::PROFILE,
            EngineKind::InfiniteGraph => &crate::infinitegraph::PROFILE,
            EngineKind::Neo4j => &crate::neo4j::PROFILE,
            EngineKind::Sones => &crate::sones::PROFILE,
            EngineKind::VertexDb => &crate::vertexdb::PROFILE,
        }
    }

    /// The paper's spelling.
    pub fn label(self) -> &'static str {
        self.profile().descriptor.name
    }
}

/// Builds an engine. `dir` is where disk-capable engines keep files;
/// engines that persist reload existing data from it.
pub fn make_engine(kind: EngineKind, dir: &Path) -> Result<Box<dyn GraphEngine>> {
    Ok(match kind {
        EngineKind::Allegro => Box::new(crate::allegro::open(dir)?),
        EngineKind::Dex => Box::new(crate::dex::open(dir)?),
        EngineKind::Filament => Box::new(crate::filament::open(dir)?),
        EngineKind::GStore => Box::new(crate::gstore::open(dir)?),
        EngineKind::HyperGraphDb => Box::new(crate::hypergraphdb::open(dir)?),
        EngineKind::InfiniteGraph => Box::new(crate::infinitegraph::open(dir)?),
        EngineKind::Neo4j => Box::new(crate::neo4j::open(dir)?),
        EngineKind::Sones => Box::new(crate::sones::open()),
        EngineKind::VertexDb => Box::new(crate::vertexdb::open(dir)?),
    })
}

/// Builds every engine into per-engine subdirectories of `dir`.
pub fn all_engines(dir: &Path) -> Result<Vec<Box<dyn GraphEngine>>> {
    EngineKind::all()
        .into_iter()
        .map(|kind| {
            let sub: PathBuf = dir.join(kind.label().to_lowercase().replace('-', "_"));
            std::fs::create_dir_all(&sub)?;
            make_engine(kind, &sub)
        })
        .collect()
}
