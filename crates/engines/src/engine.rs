//! An engine is a [`Profile`] plus a [`Model`].
//!
//! The paper compares its nine systems "strictly at the logical
//! level": each is a row of capabilities (Tables I–VII) over a data
//! model. [`Engine`] makes that literal. The [`Profile`] is the row —
//! name, catalog facts, default limits, and for every facade
//! [`Capability`] either "supported" or the refusal text — and the
//! [`Model`] is the substrate that does what the row allows. The one
//! implementation of the facade, on [`Engine`], owns everything that is
//! the same for all engines: refusing from the profile, feeding the
//! [`DeltaTracker`], freezing and re-freezing snapshots, the read
//! probes over the model's view, secondary indexes, transactions, and
//! the validate-then-undo step of constraint-checked mutations. Every
//! write is one arm of [`GraphEngine::apply`]'s `match` on its
//! [`LogicalOp`], and each arm takes the same steps in the same order:
//! gate → model write → `validate` with its exact undo → index upkeep →
//! delta touches. Every model's view is an [`AttributedView`], so every
//! engine's snapshot is the one [`FrozenGraph::freeze`] and its
//! re-freeze the one [`gdm_algo::incremental_refreeze`]; a graph
//! store's view reports no attributes, and its snapshot holds none. A
//! new cross-cutting hook goes here, once; a new write is one
//! `LogicalOp` variant, its codec arm and one `apply` arm; a tenth
//! engine is a new `Profile` and, unless an existing substrate fits
//! (Filament and VertexDB share [`KvGraph`](crate::kvgraph::KvGraph)),
//! a new `Model`.

use crate::facade::{AnalysisFunc, EngineDescriptor, GraphEngine, SummaryFunc};
use crate::op::{Created, LogicalOp};
use gdm_algo::pattern::Pattern;
use gdm_algo::{analysis, summary, FrozenGraph};
use gdm_core::{
    AttributedView, DeltaTracker, Direction, EdgeId, FxHashMap, GdmError, GraphView, NodeId,
    PropertyMap, Result, Value,
};
use gdm_govern::{ExecutionGuard, Limits};
use gdm_query::eval::ResultSet;
use gdm_schema::{Constraint, EdgeTypeDef, NodeTypeDef};
use gdm_storage::ValueIndex;
use std::cell::RefCell;

/// Node-visit budget of a simple-path enumeration: the facade's
/// `fixed_length_paths` and G-Store's GSQL `FixedPaths` both run under
/// `Limits::none().with_node_visits(PATH_BUDGET)`.
pub(crate) const PATH_BUDGET: u64 = 1_000_000;

/// Declares [`Capability`] and [`Capability::ALL`] from one list.
macro_rules! capabilities {
    ($($(#[$doc:meta])* $name:ident,)*) => {
        /// A facade capability that at least one surveyed engine lacks.
        /// What every engine has (adjacency, structural summaries,
        /// deletion, snapshots) needs no entry.
        #[derive(Debug, Clone, Copy, PartialEq, Eq)]
        pub enum Capability {
            $($(#[$doc])* $name,)*
        }

        impl Capability {
            /// Every capability, in declaration order.
            pub const ALL: &'static [Capability] = &[$(Capability::$name,)*];
        }
    };
}

capabilities! {
    /// `create_node` with a label.
    NodeLabels,
    /// `create_node` with attributes.
    NodeProperties,
    /// `create_edge` with a label.
    EdgeLabels,
    /// `create_edge` with attributes.
    EdgeProperties,
    /// `create_hyperedge`.
    Hyperedges,
    /// `create_edge_on_edge`.
    EdgesOnEdges,
    /// `nest_subgraph`.
    NestedGraphs,
    /// `set_node_attribute`.
    SetNodeAttribute,
    /// `set_edge_attribute`.
    SetEdgeAttribute,
    /// `node_attribute`.
    ReadNodeAttribute,
    /// `define_node_type`.
    NodeTypes,
    /// `define_edge_type`.
    EdgeTypes,
    /// `install_constraint(TypeChecking)`.
    TypeChecking,
    /// `install_constraint(Identity)`.
    Identity,
    /// `install_constraint(ReferentialIntegrity)`.
    ReferentialIntegrity,
    /// `install_constraint(Cardinality)`.
    Cardinality,
    /// `install_constraint(FunctionalDependency)`.
    FunctionalDependency,
    /// `install_constraint(GraphPattern)`.
    PatternConstraints,
    /// `execute_ddl`.
    Ddl,
    /// `execute_dml`.
    Dml,
    /// `execute_query`.
    QueryLanguage,
    /// `explain`.
    Explain,
    /// `reason`.
    Reasoning,
    /// `analyze`.
    Analysis,
    /// `k_neighborhood`.
    KNeighborhood,
    /// `fixed_length_paths`.
    FixedLengthPaths,
    /// `regular_path`.
    RegularPaths,
    /// `shortest_path`.
    ShortestPath,
    /// `pattern_match`.
    PatternMatching,
    /// `summarize(PropertyAggregate)`.
    PropertyAggregation,
    /// `begin_transaction` / `commit_transaction` / `rollback_transaction`.
    Transactions,
    /// `persist`.
    Persistence,
    /// `create_index`.
    Indexes,
    /// `lookup_by_property`.
    PropertyLookup,
}

impl Capability {
    /// The six `install_constraint` kinds, for profiles that refuse
    /// them all with one text.
    pub const CONSTRAINTS: [Capability; 6] = [
        Capability::TypeChecking,
        Capability::Identity,
        Capability::ReferentialIntegrity,
        Capability::Cardinality,
        Capability::FunctionalDependency,
        Capability::PatternConstraints,
    ];

    fn of_constraint(constraint: &Constraint) -> Capability {
        match constraint {
            Constraint::TypeChecking(_) => Capability::TypeChecking,
            Constraint::Identity { .. } => Capability::Identity,
            Constraint::ReferentialIntegrity => Capability::ReferentialIntegrity,
            Constraint::Cardinality(_) => Capability::Cardinality,
            Constraint::FunctionalDependency { .. } => Capability::FunctionalDependency,
            Constraint::GraphPattern { .. } => Capability::PatternConstraints,
        }
    }
}

/// One surveyed engine as data: the paper's row for it.
#[derive(Debug)]
pub struct Profile {
    /// Name and catalog facts (Tables I, II and V cells with no
    /// executable probe).
    pub descriptor: EngineDescriptor,
    /// What an operator would configure as this engine's per-query
    /// timeout and budgets.
    pub limits: Limits,
    refusals: [Option<&'static str>; Capability::ALL.len()],
}

impl Profile {
    /// A profile that supports everything except `refused`: groups of
    /// capabilities, each with the text its `Unsupported` errors carry.
    pub const fn new(
        descriptor: EngineDescriptor,
        limits: Limits,
        refused: &[(&[Capability], &'static str)],
    ) -> Self {
        let mut refusals = [None; Capability::ALL.len()];
        let mut group = 0;
        while group < refused.len() {
            let (capabilities, text) = refused[group];
            let mut i = 0;
            while i < capabilities.len() {
                refusals[capabilities[i] as usize] = Some(text);
                i += 1;
            }
            group += 1;
        }
        Profile {
            descriptor,
            limits,
            refusals,
        }
    }

    /// The refusal text for `capability`, or `None` when the engine
    /// supports it.
    pub fn refusal(&self, capability: Capability) -> Option<&'static str> {
        self.refusals[capability as usize]
    }
}

/// The error of a hook the profile lets callers reach but the model
/// does not override — a profile/model mismatch, never a paper cell.
pub(crate) fn no_hook(operation: &str) -> GdmError {
    GdmError::InvalidArgument(format!(
        "the profile allows {operation}, but the model does not implement it"
    ))
}

/// Visits every node of `g` that has property `key`, with its value.
fn visit_property<G: AttributedView>(g: &G, key: &str, f: &mut dyn FnMut(NodeId, Value)) {
    g.visit_nodes(&mut |n| {
        if let Some(v) = g.node_property(n, key) {
            f(n, v);
        }
    });
}

/// The substrate under an [`Engine`]: what is genuinely one system's
/// own. Required methods are what every surveyed model has; the rest
/// default to a profile/model-mismatch error and are overridden by the
/// models whose profile supports the capability.
pub trait Model: Sized {
    /// The read view every probe, snapshot and index build runs over.
    type Graph: AttributedView;
    /// The secondary index this system builds per property.
    type Index: ValueIndex + Default;
    /// What a transaction saves at `begin` and puts back on rollback.
    type Saved;

    /// The read view.
    fn graph(&self) -> &Self::Graph;

    /// Whether `n` is part of the view. Differs from `contains_node`
    /// only where nodes exist by incidence (RDF).
    fn is_visible(&self, n: NodeId) -> bool {
        self.graph().contains_node(n)
    }

    /// Number of edges as the system counts them: a hyperedge is one
    /// edge however many pairs the view projects it onto.
    fn count_edges(&self) -> usize {
        self.graph().edge_count()
    }

    /// Creates a node.
    fn create_node(&mut self, label: Option<&str>, props: PropertyMap) -> Result<NodeId>;

    /// Creates a binary edge.
    fn create_edge(
        &mut self,
        from: NodeId,
        to: NodeId,
        label: Option<&str>,
        props: PropertyMap,
    ) -> Result<EdgeId>;

    /// Creates a hyperedge.
    fn create_hyperedge(
        &mut self,
        _label: &str,
        _targets: &[NodeId],
        _props: PropertyMap,
    ) -> Result<EdgeId> {
        Err(no_hook("create_hyperedge"))
    }

    /// Creates an edge whose source is an edge.
    fn create_edge_on_edge(&mut self, _from: EdgeId, _to: NodeId, _label: &str) -> Result<EdgeId> {
        Err(no_hook("create_edge_on_edge"))
    }

    /// Sets a node attribute; returns the value it replaced.
    fn set_node_property(
        &mut self,
        _n: NodeId,
        _key: &str,
        _value: Value,
    ) -> Result<Option<Value>> {
        Err(no_hook("set_node_attribute"))
    }

    /// Removes a node attribute — how a rejected first write of a key
    /// is undone, so only models with [`Model::validate`] need it.
    fn remove_node_property(&mut self, _n: NodeId, _key: &str) -> Result<()> {
        Err(no_hook("undoing a constraint-rejected attribute"))
    }

    /// Sets an edge attribute.
    fn set_edge_property(&mut self, _e: EdgeId, _key: &str, _value: Value) -> Result<()> {
        Err(no_hook("set_edge_attribute"))
    }

    /// Deletes a node and, where the model requires it, its edges.
    fn delete_node(&mut self, n: NodeId) -> Result<()>;

    /// Deletes an edge.
    fn delete_edge(&mut self, e: EdgeId) -> Result<()>;

    /// Declares a node type.
    fn define_node_type(&mut self, _def: NodeTypeDef) -> Result<()> {
        Err(no_hook("define_node_type"))
    }

    /// Declares an edge type.
    fn define_edge_type(&mut self, _def: EdgeTypeDef) -> Result<()> {
        Err(no_hook("define_edge_type"))
    }

    /// Installs a constraint of a kind the profile supports.
    fn install_constraint(&mut self, _constraint: Constraint) -> Result<()> {
        Err(no_hook("install_constraint"))
    }

    /// Checks the installed constraints against the current data. The
    /// engine calls it after a mutation and undoes the mutation on
    /// `Err`; models that check before they write leave it alone.
    fn validate(&self) -> Result<()> {
        Ok(())
    }

    /// A DDL statement in the engine's own dialect. Dialect hooks take
    /// the engine, not the model: statements that create data call the
    /// facade (`engine.create_node(..)`, which re-enters
    /// [`GraphEngine::apply`]) and are gated, checked and tracked like
    /// API calls; statements that write the substrate
    /// directly go through the crate-private `Engine::model_mut`, which
    /// degrades the next re-freeze to a full one.
    fn execute_ddl(_engine: &mut Engine<Self>, _statement: &str) -> Result<()> {
        Err(no_hook("execute_ddl"))
    }

    /// A DML statement in the engine's own dialect.
    fn execute_dml(_engine: &mut Engine<Self>, _statement: &str) -> Result<()> {
        Err(no_hook("execute_dml"))
    }

    /// A query in the engine's own dialect.
    fn execute_query(_engine: &mut Engine<Self>, _query: &str) -> Result<ResultSet> {
        Err(no_hook("execute_query"))
    }

    /// The plan `query` would run with, rendered.
    fn explain(&self, _query: &str) -> Result<String> {
        Err(no_hook("explain"))
    }

    /// Loads `rules` and answers `goal`.
    fn reason(&self, _rules: &str, _goal: &str) -> Result<Vec<Vec<String>>> {
        Err(no_hook("reason"))
    }

    /// The values of node property `key`, for property aggregates.
    fn property_values(&self, key: &str) -> Vec<Value> {
        let mut values = Vec::new();
        visit_property(self.graph(), key, &mut |_, v| values.push(v));
        values
    }

    /// The nodes whose property `key` equals `value`, found without a
    /// secondary index.
    fn scan_property(&self, key: &str, value: &Value) -> Vec<NodeId> {
        let mut out = Vec::new();
        visit_property(self.graph(), key, &mut |n, v| {
            if v == *value {
                out.push(n);
            }
        });
        out
    }

    /// A secondary index over node property `key`, or `None` where
    /// the substrate indexes every property permanently.
    fn build_index(&self, key: &str) -> Option<Self::Index> {
        let mut index = Self::Index::default();
        visit_property(self.graph(), key, &mut |n, v| index.insert(&v, n.raw()));
        Some(index)
    }

    /// Captures the state a rollback restores.
    fn save(&self) -> Self::Saved;

    /// Puts saved state back, derived structures included.
    fn restore(&mut self, saved: Self::Saved);

    /// Flushes to durable storage.
    fn persist(&mut self) -> Result<()> {
        Err(no_hook("persist"))
    }
}

/// One engine emulation: a [`Profile`] over a [`Model`].
pub struct Engine<M: Model> {
    profile: &'static Profile,
    model: M,
    indexes: FxHashMap<String, M::Index>,
    tx: Option<M::Saved>,
    /// Mutations since the last snapshot, for the O(changes)
    /// incremental re-freeze (`RefCell`: snapshots reset it through
    /// `&self`; engines are not `Send`, so access is uncontended).
    delta: RefCell<DeltaTracker>,
}

impl<M: Model> Engine<M> {
    /// Puts `model` behind the facade with `profile`'s capabilities.
    pub fn new(profile: &'static Profile, model: M) -> Self {
        Engine {
            profile,
            model,
            indexes: FxHashMap::default(),
            tx: None,
            delta: RefCell::new(DeltaTracker::new()),
        }
    }

    /// The model, for its system-specific read API.
    pub fn model(&self) -> &M {
        &self.model
    }

    /// The model, for writes the facade has no call for (statement
    /// dialects over the raw substrate, storage reorganisation). They
    /// bypass the facade's bookkeeping, so the next re-freeze is a full
    /// one and the secondary indexes are dropped (lookups scan until
    /// the index is created again).
    pub(crate) fn model_mut(&mut self) -> &mut M {
        self.delta.get_mut().mark_all();
        self.indexes.clear();
        &mut self.model
    }

    /// The model's read view.
    pub fn view(&self) -> &M::Graph {
        self.model.graph()
    }

    fn gate(&self, capability: Capability) -> Result<()> {
        match self.profile.refusal(capability) {
            Some(feature) => Err(GdmError::unsupported(self.profile.descriptor.name, feature)),
            None => Ok(()),
        }
    }
}

impl<M: Model> GraphEngine for Engine<M> {
    fn name(&self) -> &'static str {
        self.profile.descriptor.name
    }

    fn descriptor(&self) -> EngineDescriptor {
        self.profile.descriptor.clone()
    }

    /// One arm per write, each in the same order: gate from the
    /// profile → model write → `validate`, with the write's exact undo
    /// on a violation → index upkeep → `DeltaTracker` touches.
    fn apply(&mut self, op: LogicalOp) -> Result<Created> {
        Ok(match op {
            LogicalOp::CreateNode { label, props } => {
                if label.is_some() {
                    self.gate(Capability::NodeLabels)?;
                }
                if !props.is_empty() {
                    self.gate(Capability::NodeProperties)?;
                }
                let n = self.model.create_node(label.as_deref(), props)?;
                if let Err(violation) = self.model.validate() {
                    self.model.delete_node(n)?;
                    return Err(violation);
                }
                let g = self.model.graph();
                for (key, index) in &mut self.indexes {
                    if let Some(v) = g.node_property(n, key) {
                        index.insert(&v, n.raw());
                    }
                }
                if self.model.is_visible(n) {
                    self.delta.get_mut().touch_node(n.raw());
                }
                Created::Node(n)
            }
            LogicalOp::CreateEdge {
                from,
                to,
                label,
                props,
            } => {
                if label.is_some() {
                    self.gate(Capability::EdgeLabels)?;
                }
                if !props.is_empty() {
                    self.gate(Capability::EdgeProperties)?;
                }
                let e = self.model.create_edge(from, to, label.as_deref(), props)?;
                if let Err(violation) = self.model.validate() {
                    self.model.delete_edge(e)?;
                    return Err(violation);
                }
                let tracker = self.delta.get_mut();
                tracker.touch_node(from.raw());
                tracker.touch_node(to.raw());
                Created::Edge(e)
            }
            LogicalOp::CreateHyperedge {
                label,
                targets,
                props,
            } => {
                self.gate(Capability::Hyperedges)?;
                let e = self.model.create_hyperedge(&label, &targets, props)?;
                // The view projects a hyperedge onto pairwise edges among
                // its targets, so every target's row changes.
                for t in targets {
                    self.delta.get_mut().touch_node(t.raw());
                }
                Created::Edge(e)
            }
            LogicalOp::CreateEdgeOnEdge { from, to, label } => {
                self.gate(Capability::EdgesOnEdges)?;
                let e = self.model.create_edge_on_edge(from, to, &label)?;
                // An edge over an edge projects onto the view in ways the
                // per-node tracker cannot attribute.
                self.delta.get_mut().mark_all();
                Created::Edge(e)
            }
            LogicalOp::SetNodeAttr {
                node: n,
                key,
                value,
            } => {
                self.gate(Capability::SetNodeAttribute)?;
                let indexed = self.indexes.contains_key(&key).then(|| value.clone());
                let old = self.model.set_node_property(n, &key, value)?;
                if let Err(violation) = self.model.validate() {
                    match old {
                        Some(v) => {
                            self.model.set_node_property(n, &key, v)?;
                        }
                        None => self.model.remove_node_property(n, &key)?,
                    }
                    return Err(violation);
                }
                if let (Some(index), Some(new)) = (self.indexes.get_mut(&key), indexed) {
                    if let Some(v) = old {
                        index.remove(&v, n.raw());
                    }
                    index.insert(&new, n.raw());
                }
                self.delta.get_mut().touch_node(n.raw());
                Created::Nothing
            }
            LogicalOp::SetEdgeAttr { edge, key, value } => {
                self.gate(Capability::SetEdgeAttribute)?;
                self.model.set_edge_property(edge, &key, value)?;
                self.delta.get_mut().touch_edge_props(edge.raw());
                Created::Nothing
            }
            LogicalOp::DeleteNode { node: n } => {
                let g = self.model.graph();
                let mut around = Vec::new();
                g.visit_out_edges(n, &mut |e| around.push(e.to));
                g.visit_in_edges(n, &mut |e| around.push(e.to));
                let indexed: Vec<Option<Value>> = self
                    .indexes
                    .keys()
                    .map(|key| g.node_property(n, key))
                    .collect();
                self.model.delete_node(n)?;
                for (index, old) in self.indexes.values_mut().zip(indexed) {
                    if let Some(v) = old {
                        index.remove(&v, n.raw());
                    }
                }
                // The re-freeze re-reads the previous neighbours of a
                // removed node, which covers the edges the deletion
                // cascaded to. A neighbour that left the view with `n`
                // (RDF resources exist by incidence) must be recorded as
                // removed itself.
                let tracker = self.delta.get_mut();
                tracker.remove_node(n.raw());
                for b in around {
                    if b != n && !self.model.is_visible(b) {
                        tracker.remove_node(b.raw());
                    }
                }
                Created::Nothing
            }
            LogicalOp::DeleteEdge { edge } => {
                self.model.delete_edge(edge)?;
                self.delta.get_mut().remove_edge(edge.raw());
                Created::Nothing
            }
            LogicalOp::Ddl { statement } => {
                self.gate(Capability::Ddl)?;
                M::execute_ddl(self, &statement)?;
                Created::Nothing
            }
            LogicalOp::Dml { statement } => {
                self.gate(Capability::Dml)?;
                M::execute_dml(self, &statement)?;
                Created::Nothing
            }
            LogicalOp::CreateIndex { property } => {
                self.gate(Capability::Indexes)?;
                if let Some(index) = self.model.build_index(&property) {
                    self.indexes.insert(property, index);
                }
                Created::Nothing
            }
        })
    }

    fn nest_subgraph(&mut self, _node: NodeId) -> Result<()> {
        self.gate(Capability::NestedGraphs)?;
        Err(no_hook("nest_subgraph"))
    }

    fn node_attribute(&self, n: NodeId, key: &str) -> Result<Option<Value>> {
        self.gate(Capability::ReadNodeAttribute)?;
        let g = self.model.graph();
        if !g.contains_node(n) {
            return Err(GdmError::NotFound(format!("node {n}")));
        }
        Ok(g.node_property(n, key))
    }

    fn node_count(&self) -> usize {
        self.model.graph().node_count()
    }

    fn edge_count(&self) -> usize {
        self.model.count_edges()
    }

    fn define_node_type(&mut self, def: NodeTypeDef) -> Result<()> {
        self.gate(Capability::NodeTypes)?;
        self.model.define_node_type(def)
    }

    fn define_edge_type(&mut self, def: EdgeTypeDef) -> Result<()> {
        self.gate(Capability::EdgeTypes)?;
        self.model.define_edge_type(def)
    }

    fn install_constraint(&mut self, constraint: Constraint) -> Result<()> {
        self.gate(Capability::of_constraint(&constraint))?;
        self.model.install_constraint(constraint)
    }

    fn execute_query(&mut self, query: &str) -> Result<ResultSet> {
        self.gate(Capability::QueryLanguage)?;
        M::execute_query(self, query)
    }

    fn explain(&self, query: &str) -> Result<String> {
        self.gate(Capability::Explain)?;
        self.model.explain(query)
    }

    fn reason(&mut self, rules: &str, goal: &str) -> Result<Vec<Vec<String>>> {
        self.gate(Capability::Reasoning)?;
        self.model.reason(rules, goal)
    }

    fn analyze(&self, func: AnalysisFunc) -> Result<Value> {
        self.gate(Capability::Analysis)?;
        let g = self.model.graph();
        Ok(match func {
            AnalysisFunc::ConnectedComponents => Value::Int(
                analysis::connected_components(g, &ExecutionGuard::unlimited())?.len() as i64,
            ),
            AnalysisFunc::Triangles => Value::Int(analysis::triangle_count(g) as i64),
            AnalysisFunc::AverageClustering => analysis::average_clustering(g)
                .map(Value::Float)
                .unwrap_or(Value::Null),
            AnalysisFunc::TopDegreeNode => analysis::degree_centrality(g, 1)
                .first()
                .map(|(n, _)| Value::Int(n.raw() as i64))
                .unwrap_or(Value::Null),
        })
    }

    fn adjacent(&self, a: NodeId, b: NodeId) -> Result<bool> {
        Ok(gdm_algo::nodes_adjacent(self.model.graph(), a, b))
    }

    fn k_neighborhood(&self, n: NodeId, k: usize) -> Result<Vec<NodeId>> {
        self.gate(Capability::KNeighborhood)?;
        let unlimited = ExecutionGuard::unlimited();
        gdm_algo::k_neighborhood(self.model.graph(), n, k, Direction::Outgoing, &unlimited)
    }

    fn fixed_length_paths(&self, a: NodeId, b: NodeId, len: usize) -> Result<usize> {
        self.gate(Capability::FixedLengthPaths)?;
        let guard = ExecutionGuard::new(Limits::none().with_node_visits(PATH_BUDGET));
        Ok(gdm_algo::fixed_length_paths(self.model.graph(), a, b, len, &guard)?.len())
    }

    fn regular_path(&self, a: NodeId, b: NodeId, expr: &str) -> Result<bool> {
        self.gate(Capability::RegularPaths)?;
        let regex = gdm_algo::LabelRegex::compile(expr)?;
        gdm_algo::regular_path_exists(
            self.model.graph(),
            a,
            b,
            &regex,
            &ExecutionGuard::unlimited(),
        )
    }

    fn shortest_path(&self, a: NodeId, b: NodeId) -> Result<Option<Vec<NodeId>>> {
        self.gate(Capability::ShortestPath)?;
        let path = gdm_algo::shortest_path(self.model.graph(), a, b, &ExecutionGuard::unlimited())?;
        Ok(path.map(|p| p.nodes))
    }

    fn pattern_match(&self, pattern: &Pattern) -> Result<usize> {
        self.gate(Capability::PatternMatching)?;
        let g = self.model.graph();
        let domains = gdm_algo::auto_domains(g, pattern);
        let guard = ExecutionGuard::unlimited();
        Ok(gdm_algo::match_pattern_seeded(g, pattern, &domains, &guard)?.len())
    }

    fn summarize(&self, func: SummaryFunc) -> Result<Value> {
        let g = self.model.graph();
        let int = |n: Option<usize>| n.map_or(Value::Null, |n| Value::Int(n as i64));
        Ok(match func {
            SummaryFunc::Order => int(Some(g.node_count())),
            SummaryFunc::Size => int(Some(self.model.count_edges())),
            SummaryFunc::Degree(n) => int(Some(g.degree(n))),
            SummaryFunc::MinDegree => int(summary::degree_stats(g).map(|(min, _, _)| min)),
            SummaryFunc::MaxDegree => int(summary::degree_stats(g).map(|(_, max, _)| max)),
            SummaryFunc::AvgDegree => {
                summary::degree_stats(g).map_or(Value::Null, |(_, _, avg)| Value::Float(avg))
            }
            SummaryFunc::Distance(a, b) => int(gdm_algo::distance(g, a, b)),
            SummaryFunc::Diameter => int(summary::diameter(
                g,
                Direction::Outgoing,
                &ExecutionGuard::unlimited(),
            )?),
            SummaryFunc::PropertyAggregate(agg, key) => {
                self.gate(Capability::PropertyAggregation)?;
                summary::aggregate(agg, &self.model.property_values(key))?
            }
        })
    }

    fn snapshot(&self) -> Result<FrozenGraph> {
        let fz = FrozenGraph::freeze(self.model.graph());
        self.delta.borrow_mut().reset(fz.epoch());
        Ok(fz)
    }

    fn refreeze(&self, prev: &FrozenGraph) -> Result<FrozenGraph> {
        let mut tracker = self.delta.borrow_mut();
        let next = gdm_algo::incremental_refreeze(self.model.graph(), prev, tracker.peek());
        tracker.reset(next.epoch());
        Ok(next)
    }

    fn pending_changes(&self) -> u64 {
        self.delta.borrow().peek().pending_hint()
    }

    fn default_limits(&self) -> Limits {
        self.profile.limits
    }

    fn begin_transaction(&mut self) -> Result<()> {
        self.gate(Capability::Transactions)?;
        if self.tx.is_some() {
            return Err(GdmError::InvalidArgument("transaction already open".into()));
        }
        self.tx = Some(self.model.save());
        Ok(())
    }

    fn commit_transaction(&mut self) -> Result<()> {
        self.gate(Capability::Transactions)?;
        self.tx
            .take()
            .map(|_| ())
            .ok_or_else(|| GdmError::InvalidArgument("no open transaction".into()))
    }

    fn rollback_transaction(&mut self) -> Result<()> {
        self.gate(Capability::Transactions)?;
        let saved = self
            .tx
            .take()
            .ok_or_else(|| GdmError::InvalidArgument("no open transaction".into()))?;
        self.model.restore(saved);
        for (key, index) in &mut self.indexes {
            if let Some(fresh) = self.model.build_index(key) {
                *index = fresh;
            }
        }
        // The rollback rewinds past everything tracked in the open
        // transaction; the tracker cannot un-record, so degrade.
        self.delta.get_mut().mark_all();
        Ok(())
    }

    fn persist(&mut self) -> Result<()> {
        self.gate(Capability::Persistence)?;
        self.model.persist()
    }

    fn lookup_by_property(&self, key: &str, value: &Value) -> Result<Vec<NodeId>> {
        self.gate(Capability::PropertyLookup)?;
        Ok(match self.indexes.get(key) {
            Some(index) => index.lookup(value).into_iter().map(NodeId).collect(),
            None => self.model.scan_property(key, value),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::facade::{make_engine, EngineKind};
    use gdm_core::InterruptReason;

    /// On a complete digraph of 12 nodes, the simple paths of length 11
    /// from one node to another are the 10! Hamiltonian paths between
    /// them: the search needs far more than `PATH_BUDGET` steps, so the
    /// facade and G-Store's GSQL both report a budget interruption.
    #[test]
    fn fixed_length_paths_past_the_budget_are_interrupted() {
        const N: u64 = 12;
        let dir = std::env::temp_dir().join(format!("gdm-path-budget-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        for kind in ["neo4j", "gstore"] {
            std::fs::create_dir_all(dir.join(kind)).unwrap();
        }

        let mut neo = make_engine(EngineKind::Neo4j, &dir.join("neo4j")).unwrap();
        let nodes: Vec<NodeId> = (0..N)
            .map(|_| neo.create_node(Some("v"), PropertyMap::new()).unwrap())
            .collect();
        for &a in &nodes {
            for &b in nodes.iter().filter(|&&b| b != a) {
                neo.create_edge(a, b, Some("e"), PropertyMap::new())
                    .unwrap();
            }
        }
        let err = neo.fixed_length_paths(nodes[0], nodes[11], 11).unwrap_err();
        assert_eq!(
            err.interrupt_reason(),
            Some(InterruptReason::Budget),
            "{err}"
        );

        let mut gstore = make_engine(EngineKind::GStore, &dir.join("gstore")).unwrap();
        for _ in 0..N {
            gstore.execute_ddl("CREATE NODE 'v'").unwrap();
        }
        for a in 0..N {
            for b in (0..N).filter(|&b| b != a) {
                gstore.execute_ddl(&format!("CREATE EDGE {a} {b}")).unwrap();
            }
        }
        let err = gstore
            .execute_query("SELECT PATHS FROM 0 TO 11 LENGTH 11")
            .unwrap_err();
        assert_eq!(
            err.interrupt_reason(),
            Some(InterruptReason::Budget),
            "{err}"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// What `snapshot` and `refreeze` hold for a graph store: every
    /// node with no label and no property, and both CSR directions
    /// replaying the live view's adjacency, edge labels included.
    fn assert_structure_only<M: Model>(db: &Engine<M>, fz: &FrozenGraph) {
        let live = db.model.graph();
        assert_eq!(fz.node_count(), live.node_count());
        assert_eq!(fz.edge_count(), live.edge_count());
        let listed = |g: &dyn GraphView, edges: Vec<gdm_core::EdgeRef>| {
            let text =
                |e: &gdm_core::EdgeRef| e.label.and_then(|s| g.label_text(s)).map(str::to_owned);
            edges
                .iter()
                .map(|e| (e.id, e.to, text(e)))
                .collect::<Vec<_>>()
        };
        live.visit_nodes(&mut |n| {
            assert_eq!(fz.node_label(n), None);
            fz.visit_node_properties(n, &mut |k, _| panic!("node {n} holds property {k}"));
            assert_eq!(listed(fz, fz.out_edges(n)), listed(live, live.out_edges(n)));
            assert_eq!(listed(fz, fz.in_edges(n)), listed(live, live.in_edges(n)));
            for e in fz.out_edges(n) {
                fz.visit_edge_properties(e.id, &mut |k, _| panic!("edge {} holds {k}", e.id));
            }
        });
    }

    fn store_snapshots_hold_structure_only<M: Model>(mut db: Engine<M>) {
        let allowed = |c| db.profile.refusal(c).is_none();
        let (node_label, edge_label) = (
            allowed(Capability::NodeLabels).then_some("person"),
            allowed(Capability::EdgeLabels).then_some("knows"),
        );
        let nodes: Vec<NodeId> = (0..200)
            .map(|_| db.create_node(node_label, PropertyMap::new()).unwrap())
            .collect();
        for i in 0..nodes.len() {
            for step in [1, 2] {
                let to = nodes[(i + step) % nodes.len()];
                db.create_edge(nodes[i], to, edge_label, PropertyMap::new())
                    .unwrap();
            }
        }
        let fz = db.snapshot().unwrap();
        assert_structure_only(&db, &fz);
        let late = db.create_node(node_label, PropertyMap::new()).unwrap();
        db.create_edge(late, nodes[0], edge_label, PropertyMap::new())
            .unwrap();
        db.delete_node(nodes[3]).unwrap();
        let next = db.refreeze(&fz).unwrap();
        // Patched, not frozen anew.
        assert!(next.freeze_work() < fz.freeze_work() / 4);
        assert_structure_only(&db, &next);
    }

    /// Filament, VertexDB and G-Store freeze as every engine does, and
    /// their views report no attributes, so their snapshots keep the
    /// content the graph stores have always served. G-Store labels its
    /// vertices; the two key-value stores label their edges.
    #[test]
    fn graph_store_snapshots_hold_structure_only() {
        let dir = std::env::temp_dir().join(format!("gdm-store-freeze-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        for kind in ["filament", "vertexdb", "gstore"] {
            std::fs::create_dir_all(dir.join(kind)).unwrap();
        }
        store_snapshots_hold_structure_only(crate::filament::open(&dir.join("filament")).unwrap());
        store_snapshots_hold_structure_only(crate::vertexdb::open(&dir.join("vertexdb")).unwrap());
        let gstore = crate::gstore::open(&dir.join("gstore")).unwrap();
        assert_eq!(gstore.profile.refusal(Capability::NodeLabels), None);
        store_snapshots_hold_structure_only(gstore);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
