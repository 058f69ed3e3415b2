//! A compressed-sparse-row (CSR) snapshot of any [`GraphView`].
//!
//! Every essential query in this crate walks the live stores through
//! dynamic visitor callbacks, paying a hash lookup and a virtual call
//! per edge hop. [`FrozenGraph`] freezes a point-in-time copy of a
//! view into contiguous arrays — offsets, targets, edge ids, labels —
//! so traversal becomes pointer arithmetic over dense `u32` indices
//! (DESIGN.md §9).
//!
//! The snapshot is built by *recording*: the forward CSR stores, per
//! node, exactly the sequence [`GraphView::visit_out_edges`] produced,
//! and the reverse CSR the [`GraphView::visit_in_edges`] sequence.
//! Replaying a recording is trivially behaviour-equivalent to the
//! live view — whatever convention a structure uses for self-loops,
//! parallel edges, or undirected incidence is preserved verbatim, and
//! every algorithm in this crate returns identical answers on the
//! frozen graph (`tests/frozen_equiv.rs` proves this by property
//! testing). Semantics are point-in-time, not transactional: later
//! mutations of the source are invisible to the snapshot.
//!
//! **Slabbed layout.** Each CSR direction is chopped into fixed-size
//! *slabs* of [`SLAB_NODES`] consecutive dense rows, each slab an
//! independently `Arc`-shared block of offsets/targets/edge-ids/labels.
//! Queries never notice —
//! [`Csr::run`] hands out the same contiguous per-row slices as a flat
//! layout — but the incremental re-freeze path
//! ([`crate::refreeze`]) can now share every untouched slab with the
//! previous snapshot by bumping a reference count instead of copying,
//! which is what makes re-freezing O(changes) rather than O(graph).
//!
//! Beyond the plain CSR the snapshot carries two acceleration
//! structures:
//!
//! * **cached degrees** — run lengths read off the offset arrays in
//!   O(1), overriding the counting defaults;
//! * **a node-label index** (`nodes_with_label`) — the candidate
//!   prefilter the batch pattern pipeline seeds labelled variables
//!   from.
//!
//! Everything else — regular paths, shortest paths, diameter — runs the
//! crate's one generic implementation over the snapshot's
//! [`GraphView`] impl.
//!
//! Every snapshot is stamped with a process-unique, monotonically
//! increasing **epoch** ([`FrozenGraph::epoch`]); the serving layer
//! keys plan caches and session pinning on it.
//!
//! `FrozenGraph` owns all its data (its own [`Interner`], no borrows),
//! so it is `Send + Sync` and shareable across the scoped threads of
//! [`crate::parallel`].

use gdm_core::{
    AttributedView, EdgeId, EdgeRef, FxHashMap, GraphView, Interner, NodeId, Symbol, Value,
    WeightedView,
};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

/// Dense rows per CSR slab. Small enough that one dirty node only
/// forces a 64-row copy; large enough that slab bookkeeping stays
/// negligible next to the edge arrays.
pub(crate) const SLAB_NODES: u32 = 64;

/// Process-global epoch source: every freeze (full or incremental)
/// draws a fresh value, so two distinct snapshots never share an epoch
/// and a delta recorded against one can never be misapplied to another.
static NEXT_EPOCH: AtomicU64 = AtomicU64::new(1);

/// Draws the next snapshot epoch.
pub(crate) fn next_epoch() -> u64 {
    NEXT_EPOCH.fetch_add(1, Ordering::Relaxed)
}

/// The shared empty property list: prop-less nodes all point at one
/// allocation, so cloning a snapshot's property column is pure
/// refcount traffic.
pub(crate) fn empty_props() -> Arc<Vec<(String, Value)>> {
    static EMPTY: OnceLock<Arc<Vec<(String, Value)>>> = OnceLock::new();
    EMPTY.get_or_init(|| Arc::new(Vec::new())).clone()
}

/// One edge-attribute index row: `(value, from_dense, to_dense,
/// edge_raw)`.
pub(crate) type RangeRow = (Value, u32, u32, u64);

/// An `Arc`-shared, value-sorted run of index rows for one key.
pub(crate) type RangeRun = Arc<Vec<RangeRow>>;

/// The copy-on-write edge-property map: edge raw id → property list.
pub(crate) type EdgePropsMap = Arc<FxHashMap<u64, Arc<Vec<(String, Value)>>>>;

/// One slab: [`SLAB_NODES`] consecutive dense rows of a CSR direction.
/// `offsets` are slab-local (`offsets[0] == 0`, length `rows + 1`);
/// `targets` remain global dense positions.
#[derive(Debug, Default)]
pub(crate) struct CsrSlab {
    pub(crate) offsets: Vec<u32>,
    pub(crate) targets: Vec<u32>,
    pub(crate) edge_ids: Vec<EdgeId>,
    pub(crate) labels: Vec<Option<Symbol>>,
}

impl CsrSlab {
    /// Number of dense rows this slab covers.
    pub(crate) fn rows(&self) -> usize {
        self.offsets.len().saturating_sub(1)
    }

    /// Slab-local position range of `row`.
    #[inline]
    pub(crate) fn local_range(&self, row: usize) -> std::ops::Range<usize> {
        self.offsets[row] as usize..self.offsets[row + 1] as usize
    }
}

/// One adjacency direction as a sequence of `Arc`-shared slabs. Row
/// `i` lives in slab `i / SLAB_NODES` at local row `i % SLAB_NODES`.
#[derive(Debug, Clone, Default)]
pub(crate) struct Csr {
    /// Total dense rows (same for fwd and rev of one snapshot).
    pub(crate) n: usize,
    pub(crate) slabs: Vec<Arc<CsrSlab>>,
}

/// A borrowed view of one node's adjacency run: three parallel slices.
pub(crate) struct Run<'a> {
    pub(crate) targets: &'a [u32],
    pub(crate) edge_ids: &'a [EdgeId],
    pub(crate) labels: &'a [Option<Symbol>],
}

impl Csr {
    /// Chops flat recording arrays (global offsets of length `n + 1`)
    /// into slabs.
    pub(crate) fn from_flat(
        n: usize,
        offsets: &[u32],
        targets: &[u32],
        edge_ids: &[EdgeId],
        labels: &[Option<Symbol>],
    ) -> Self {
        debug_assert_eq!(offsets.len(), n + 1);
        let mut slabs = Vec::with_capacity(n.div_ceil(SLAB_NODES as usize));
        let mut lo = 0usize;
        while lo < n {
            let hi = (lo + SLAB_NODES as usize).min(n);
            let base = offsets[lo];
            let end = offsets[hi] as usize;
            slabs.push(Arc::new(CsrSlab {
                offsets: offsets[lo..=hi].iter().map(|&o| o - base).collect(),
                targets: targets[base as usize..end].to_vec(),
                edge_ids: edge_ids[base as usize..end].to_vec(),
                labels: labels[base as usize..end].to_vec(),
            }));
            lo = hi;
        }
        Self { n, slabs }
    }

    /// Slab and slab-local row of dense position `dense`.
    #[inline]
    pub(crate) fn locate(&self, dense: u32) -> (&CsrSlab, usize) {
        debug_assert!((dense as usize) < self.n);
        (
            &self.slabs[(dense / SLAB_NODES) as usize],
            (dense % SLAB_NODES) as usize,
        )
    }

    /// The adjacency run of `dense` as parallel slices.
    #[inline]
    pub(crate) fn run(&self, dense: u32) -> Run<'_> {
        let (slab, row) = self.locate(dense);
        let range = slab.local_range(row);
        Run {
            targets: &slab.targets[range.clone()],
            edge_ids: &slab.edge_ids[range.clone()],
            labels: &slab.labels[range],
        }
    }

    /// Target slice of `dense`'s run.
    #[inline]
    pub(crate) fn targets(&self, dense: u32) -> &[u32] {
        let (slab, row) = self.locate(dense);
        &slab.targets[slab.local_range(row)]
    }

    /// Run length of `dense` in O(1).
    #[inline]
    pub(crate) fn degree(&self, dense: u32) -> usize {
        let (slab, row) = self.locate(dense);
        (slab.offsets[row + 1] - slab.offsets[row]) as usize
    }

    /// Total recorded edge slots across all slabs.
    pub(crate) fn edge_slots(&self) -> usize {
        self.slabs.iter().map(|s| s.targets.len()).sum()
    }
}

/// An immutable point-in-time CSR snapshot of a graph view. See the
/// module docs for layout and equivalence guarantees.
#[derive(Debug, Clone)]
pub struct FrozenGraph {
    pub(crate) directed: bool,
    pub(crate) edge_count: usize,
    /// Process-unique snapshot epoch (see [`next_epoch`]).
    pub(crate) epoch: u64,
    /// How much work producing this snapshot cost, in node+edge visit
    /// units — full freezes charge O(V+E), incremental re-freezes only
    /// what they re-read. The serving layer bills refreshes with this.
    pub(crate) freeze_work: u64,
    /// Dense position → original node id, in source visit order.
    pub(crate) nodes: Vec<NodeId>,
    /// Original node id → dense position.
    pub(crate) index: FxHashMap<u64, u32>,
    pub(crate) fwd: Csr,
    pub(crate) rev: Csr,
    pub(crate) interner: Interner,
    pub(crate) node_labels: Vec<Option<Symbol>>,
    pub(crate) node_props: Vec<Arc<Vec<(String, Value)>>>,
    /// Edge raw id → property list, for edges carrying at least one
    /// property. `Arc`-wrapped as a whole so an incremental re-freeze
    /// with no edge-property churn shares the map by reference count
    /// instead of cloning O(E) entries ([`Arc::make_mut`] restores
    /// copy-on-write semantics at the mutation sites).
    pub(crate) edge_props: EdgePropsMap,
    /// Node label → dense positions carrying it, ascending.
    pub(crate) label_index: FxHashMap<Symbol, Vec<u32>>,
    /// Edge property key → `(value, from_dense, to_dense, edge_raw)`
    /// rows sorted by [`Value::total_cmp`] — the ordered edge-attribute
    /// index behind [`AttributedView::edge_range_candidates`]. Built by
    /// [`FrozenGraph::freeze_attributed`] from the forward CSR, so
    /// undirected snapshots carry both orientations of each edge. The
    /// edge id tag lets the incremental re-freeze retire exactly the
    /// rows of re-read edges instead of rebuilding the index. Each run
    /// is `Arc`-wrapped so a re-freeze clones only the keys it patches
    /// and shares untouched runs by reference count.
    pub(crate) edge_ranges: FxHashMap<String, RangeRun>,
}

impl FrozenGraph {
    /// Freezes the structure (nodes, edges, edge labels) of `g`. Node
    /// labels and properties are not captured — use
    /// [`FrozenGraph::freeze_attributed`] when the source has them.
    pub fn freeze<G: GraphView + ?Sized>(g: &G) -> Self {
        Self::build(g)
    }

    /// Freezes structure plus node labels and node/edge properties.
    /// Property capture relies on the source implementing the
    /// [`AttributedView::visit_node_properties`] /
    /// [`AttributedView::visit_edge_properties`] enumeration hooks;
    /// sources keeping the default (non-enumerable) hooks freeze with
    /// labels but without property values.
    pub fn freeze_attributed<G: AttributedView + ?Sized>(g: &G) -> Self {
        let mut fz = Self::build(g);
        let mut cache: FxHashMap<u32, Option<Symbol>> = FxHashMap::default();
        for (dense, &n) in fz.nodes.iter().enumerate() {
            let label = g.node_label(n).and_then(|sym| {
                *cache
                    .entry(sym.raw())
                    .or_insert_with(|| g.label_text(sym).map(|t| fz.interner.intern(t)))
            });
            fz.node_labels[dense] = label;
            if let Some(sym) = label {
                fz.label_index.entry(sym).or_default().push(dense as u32);
            }
            let mut props = Vec::new();
            g.visit_node_properties(n, &mut |k, v| props.push((k.to_owned(), v.clone())));
            if !props.is_empty() {
                fz.node_props[dense] = Arc::new(props);
            }
        }
        let mut edge_props: FxHashMap<u64, Arc<Vec<(String, Value)>>> = FxHashMap::default();
        for slab in fz.fwd.slabs.iter().chain(fz.rev.slabs.iter()) {
            for &id in &slab.edge_ids {
                edge_props.entry(id.raw()).or_insert_with(|| {
                    let mut props = Vec::new();
                    g.visit_edge_properties(id, &mut |k, v| props.push((k.to_owned(), v.clone())));
                    Arc::new(props)
                });
            }
        }
        edge_props.retain(|_, v| !v.is_empty());
        // Ordered edge-attribute index: one sorted run per key over
        // the forward CSR (so endpoint pairs come out in from-dense
        // order before sorting by value).
        let mut edge_ranges: FxHashMap<String, Vec<RangeRow>> = FxHashMap::default();
        for dense in 0..fz.nodes.len() as u32 {
            let run = fz.fwd.run(dense);
            for i in 0..run.targets.len() {
                let raw = run.edge_ids[i].raw();
                let Some(props) = edge_props.get(&raw) else {
                    continue;
                };
                for (k, v) in props.iter() {
                    edge_ranges.entry(k.clone()).or_default().push((
                        v.clone(),
                        dense,
                        run.targets[i],
                        raw,
                    ));
                }
            }
        }
        for run in edge_ranges.values_mut() {
            run.sort_by(|a, b| a.0.total_cmp(&b.0));
        }
        fz.edge_props = Arc::new(edge_props);
        fz.edge_ranges = edge_ranges
            .into_iter()
            .map(|(k, v)| (k, Arc::new(v)))
            .collect();
        fz
    }

    fn build<G: GraphView + ?Sized>(g: &G) -> Self {
        let mut nodes = Vec::with_capacity(g.node_count());
        g.visit_nodes(&mut |n| nodes.push(n));
        let mut index = FxHashMap::default();
        index.reserve(nodes.len());
        for (i, n) in nodes.iter().enumerate() {
            let dense = u32::try_from(i).expect("frozen graph limited to u32 nodes");
            index.insert(n.raw(), dense);
        }

        let mut interner = Interner::new();
        // Source symbol → re-interned symbol, so each label resolves once.
        let mut relabel: FxHashMap<u32, Option<Symbol>> = FxHashMap::default();
        let (mut fwd, mut rev) = (
            FlatCsr::with_nodes(nodes.len()),
            FlatCsr::with_nodes(nodes.len()),
        );
        for &n in &nodes {
            for (csr, incoming) in [(&mut fwd, false), (&mut rev, true)] {
                let mut record = |e: EdgeRef| {
                    let dense = *index
                        .get(&e.to.raw())
                        .expect("edge endpoint not yielded by visit_nodes");
                    csr.targets.push(dense);
                    csr.edge_ids.push(e.id);
                    let label = e.label.and_then(|sym| {
                        *relabel
                            .entry(sym.raw())
                            .or_insert_with(|| g.label_text(sym).map(|t| interner.intern(t)))
                    });
                    csr.labels.push(label);
                };
                if incoming {
                    g.visit_in_edges(n, &mut record);
                } else {
                    g.visit_out_edges(n, &mut record);
                }
                let len = u32::try_from(csr.targets.len()).expect("frozen graph u32 edge limit");
                csr.offsets.push(len);
            }
        }

        let n = nodes.len();
        let fwd = Csr::from_flat(n, &fwd.offsets, &fwd.targets, &fwd.edge_ids, &fwd.labels);
        let rev = Csr::from_flat(n, &rev.offsets, &rev.targets, &rev.edge_ids, &rev.labels);
        let freeze_work = (n + fwd.edge_slots() + rev.edge_slots()) as u64;
        Self {
            directed: g.is_directed(),
            edge_count: g.edge_count(),
            epoch: next_epoch(),
            freeze_work,
            nodes,
            index,
            fwd,
            rev,
            interner,
            node_labels: vec![None; n],
            node_props: vec![empty_props(); n],
            edge_props: Arc::new(FxHashMap::default()),
            label_index: FxHashMap::default(),
            edge_ranges: FxHashMap::default(),
        }
    }

    // ---- dense accessors (the parallel executor's fast path) --------

    /// Number of nodes.
    #[inline]
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True when the snapshot has no nodes.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// This snapshot's epoch: process-unique, monotonically increasing
    /// across freezes. Serving layers key caches and session pinning
    /// on it.
    #[inline]
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Node+edge visit units spent producing this snapshot: O(V+E) for
    /// a full freeze, O(changes) for an incremental re-freeze.
    #[inline]
    pub fn freeze_work(&self) -> u64 {
        self.freeze_work
    }

    /// Original id of the node at dense position `dense`.
    #[inline]
    pub fn node_at(&self, dense: u32) -> NodeId {
        self.nodes[dense as usize]
    }

    /// Dense position of original node `n`, if it was frozen.
    #[inline]
    pub fn dense_of(&self, n: NodeId) -> Option<u32> {
        self.index.get(&n.raw()).copied()
    }

    /// Forward-neighbor dense positions of `dense` (with duplicates
    /// from parallel edges, exactly as the source visited them).
    #[inline]
    pub fn out_targets(&self, dense: u32) -> &[u32] {
        self.fwd.targets(dense)
    }

    /// Reverse-neighbor dense positions of `dense`.
    #[inline]
    pub fn in_targets(&self, dense: u32) -> &[u32] {
        self.rev.targets(dense)
    }

    /// Cached out-degree (forward run length).
    #[inline]
    pub fn out_degree_dense(&self, dense: u32) -> usize {
        self.fwd.degree(dense)
    }

    /// Cached in-degree (reverse run length).
    #[inline]
    pub fn in_degree_dense(&self, dense: u32) -> usize {
        self.rev.degree(dense)
    }

    /// Cached total degree, with the same convention as
    /// [`GraphView::degree`]: in + out when directed, incident count
    /// when undirected.
    #[inline]
    pub fn degree_dense(&self, dense: u32) -> usize {
        if self.directed {
            self.fwd.degree(dense) + self.rev.degree(dense)
        } else {
            self.fwd.degree(dense)
        }
    }

    /// Unweighted BFS distance over the dense forward arrays — the
    /// sequential CSR fast path for [`crate::distance`], with which it
    /// agrees exactly (BFS follows out-edges, which for an undirected
    /// snapshot already hold both incidences).
    pub fn frozen_distance(&self, a: NodeId, b: NodeId) -> Option<usize> {
        let (src, dst) = (self.dense_of(a)?, self.dense_of(b)?);
        if src == dst {
            return Some(0);
        }
        let mut dist = vec![u32::MAX; self.len()];
        let mut queue = std::collections::VecDeque::new();
        dist[src as usize] = 0;
        queue.push_back(src);
        while let Some(u) = queue.pop_front() {
            let next = dist[u as usize] + 1;
            for &v in self.out_targets(u) {
                if dist[v as usize] == u32::MAX {
                    if v == dst {
                        return Some(next as usize);
                    }
                    dist[v as usize] = next;
                    queue.push_back(v);
                }
            }
        }
        None
    }

    /// The snapshot's symbol for label text, if any frozen edge or
    /// node carries it.
    pub fn label_symbol(&self, text: &str) -> Option<Symbol> {
        self.interner.get(text)
    }

    /// Dense positions of the nodes labelled `sym`, ascending. Empty
    /// for labels no node carries.
    pub fn nodes_with_label(&self, sym: Symbol) -> &[u32] {
        self.label_index.get(&sym).map_or(&[], Vec::as_slice)
    }

    // ---- columnar accessors (the vectorized executor's fast path) ---

    /// Interned label of the node at dense position `dense`.
    #[inline]
    pub(crate) fn node_label_dense(&self, dense: u32) -> Option<Symbol> {
        self.node_labels[dense as usize]
    }

    /// Property list of the node at dense position `dense`.
    #[inline]
    pub(crate) fn node_props_dense(&self, dense: u32) -> &[(String, Value)] {
        &self.node_props[dense as usize]
    }

    /// Property list of edge `id` (raw), if the edge carries any.
    #[inline]
    pub(crate) fn edge_props_raw(&self, id: u64) -> Option<&[(String, Value)]> {
        self.edge_props.get(&id).map(|p| p.as_slice())
    }
}

/// Flat recording buffers used while building, before chopping into
/// slabs: global offsets over three parallel arrays.
struct FlatCsr {
    offsets: Vec<u32>,
    targets: Vec<u32>,
    edge_ids: Vec<EdgeId>,
    labels: Vec<Option<Symbol>>,
}

impl FlatCsr {
    fn with_nodes(n: usize) -> Self {
        let mut offsets = Vec::with_capacity(n + 1);
        offsets.push(0);
        Self {
            offsets,
            targets: Vec::new(),
            edge_ids: Vec::new(),
            labels: Vec::new(),
        }
    }
}

impl GraphView for FrozenGraph {
    fn is_directed(&self) -> bool {
        self.directed
    }

    fn node_count(&self) -> usize {
        self.nodes.len()
    }

    fn edge_count(&self) -> usize {
        self.edge_count
    }

    fn contains_node(&self, n: NodeId) -> bool {
        self.index.contains_key(&n.raw())
    }

    fn visit_nodes(&self, f: &mut dyn FnMut(NodeId)) {
        for &n in &self.nodes {
            f(n);
        }
    }

    fn visit_out_edges(&self, n: NodeId, f: &mut dyn FnMut(EdgeRef)) {
        let Some(dense) = self.dense_of(n) else {
            return;
        };
        let run = self.fwd.run(dense);
        for i in 0..run.targets.len() {
            f(EdgeRef {
                id: run.edge_ids[i],
                from: n,
                to: self.nodes[run.targets[i] as usize],
                label: run.labels[i],
            });
        }
    }

    fn visit_in_edges(&self, n: NodeId, f: &mut dyn FnMut(EdgeRef)) {
        let Some(dense) = self.dense_of(n) else {
            return;
        };
        let run = self.rev.run(dense);
        for i in 0..run.targets.len() {
            f(EdgeRef {
                id: run.edge_ids[i],
                from: n,
                to: self.nodes[run.targets[i] as usize],
                label: run.labels[i],
            });
        }
    }

    fn label_text(&self, sym: Symbol) -> Option<&str> {
        self.interner.resolve(sym)
    }

    // O(1) degree overrides reading the cached offset arrays.

    fn out_degree(&self, n: NodeId) -> usize {
        self.dense_of(n).map_or(0, |d| self.fwd.degree(d))
    }

    fn in_degree(&self, n: NodeId) -> usize {
        self.dense_of(n).map_or(0, |d| self.rev.degree(d))
    }

    fn degree(&self, n: NodeId) -> usize {
        self.dense_of(n).map_or(0, |d| self.degree_dense(d))
    }
}

impl AttributedView for FrozenGraph {
    fn node_label(&self, n: NodeId) -> Option<Symbol> {
        self.node_labels[self.dense_of(n)? as usize]
    }

    fn node_property(&self, n: NodeId, key: &str) -> Option<Value> {
        let dense = self.dense_of(n)?;
        self.node_props[dense as usize]
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.clone())
    }

    fn edge_property(&self, e: EdgeId, key: &str) -> Option<Value> {
        self.edge_props
            .get(&e.raw())?
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.clone())
    }

    fn visit_node_properties(&self, n: NodeId, f: &mut dyn FnMut(&str, &Value)) {
        if let Some(dense) = self.dense_of(n) {
            for (k, v) in self.node_props[dense as usize].iter() {
                f(k, v);
            }
        }
    }

    fn visit_edge_properties(&self, e: EdgeId, f: &mut dyn FnMut(&str, &Value)) {
        if let Some(props) = self.edge_props.get(&e.raw()) {
            for (k, v) in props.iter() {
                f(k, v);
            }
        }
    }

    /// Seeds from the frozen label index when a label constraint is
    /// present (property constraints post-filtered over that run, in
    /// place over the property columns); label-less requests scan, same
    /// as the default.
    fn candidates(&self, label: Option<&str>, props: &[(String, Value)]) -> Vec<NodeId> {
        let matches = |dense: &u32| {
            let have = self.node_props_dense(*dense);
            props.iter().all(|(key, want)| {
                have.iter()
                    .find(|(k, _)| k == key)
                    .is_some_and(|(_, got)| got.loose_eq(want))
            })
        };
        let node = |dense: u32| self.nodes[dense as usize];
        match label {
            Some(want) => self.label_symbol(want).map_or_else(Vec::new, |sym| {
                let labelled = self.nodes_with_label(sym).iter();
                labelled.filter(|d| matches(d)).map(|&d| node(d)).collect()
            }),
            None => (0..self.len() as u32).filter(matches).map(node).collect(),
        }
    }

    /// The label run length bounds the candidate count; the snapshot
    /// carries no property value index, so label-less constraints
    /// still require a scan.
    fn candidate_estimate(&self, label: Option<&str>, props: &[(String, Value)]) -> Option<usize> {
        let _ = props;
        label.map(|want| {
            self.label_symbol(want)
                .map_or(0, |sym| self.nodes_with_label(sym).len())
        })
    }

    /// Binary search over the freeze-time ordered edge-attribute runs.
    /// Bounds are [`Value::total_cmp`]-inclusive, which unifies the
    /// number family exactly like the live `BTreeIndex` encoding does.
    fn edge_range_candidates(
        &self,
        key: &str,
        low: Option<&Value>,
        high: Option<&Value>,
    ) -> Option<Vec<(NodeId, NodeId)>> {
        let run = self.edge_ranges.get(key)?;
        let start = match low {
            Some(lo) => run.partition_point(|(v, ..)| v.total_cmp(lo) == std::cmp::Ordering::Less),
            None => 0,
        };
        let end = match high {
            Some(hi) => {
                run.partition_point(|(v, ..)| v.total_cmp(hi) != std::cmp::Ordering::Greater)
            }
            None => run.len(),
        };
        Some(
            run[start..end.max(start)]
                .iter()
                .map(|&(_, f, t, _)| (self.nodes[f as usize], self.nodes[t as usize]))
                .collect(),
        )
    }

    /// The CSR snapshot is the columnar backend the vectorized
    /// pipeline runs on.
    fn batch_backend(&self) -> Option<&dyn std::any::Any> {
        Some(self)
    }
}

impl WeightedView for FrozenGraph {
    /// Same convention as `PropertyGraph`: the `"weight"` property
    /// when numeric, else 1.0.
    fn edge_weight(&self, e: &EdgeRef) -> f64 {
        self.edge_property(e.id, "weight")
            .and_then(|v| v.as_f64())
            .unwrap_or(1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gdm_core::props;
    use gdm_graphs::{PropertyGraph, SimpleGraph};

    fn labeled_chain() -> (SimpleGraph, Vec<NodeId>) {
        // 0 -a-> 1 -a-> 2 -b-> 3, shortcut 0 -b-> 3, cycle 1 -a-> 0.
        let mut g = SimpleGraph::directed();
        let n: Vec<NodeId> = (0..4).map(|_| g.add_node()).collect();
        g.add_labeled_edge(n[0], n[1], "a").unwrap();
        g.add_labeled_edge(n[1], n[2], "a").unwrap();
        g.add_labeled_edge(n[2], n[3], "b").unwrap();
        g.add_labeled_edge(n[0], n[3], "b").unwrap();
        g.add_labeled_edge(n[1], n[0], "a").unwrap();
        (g, n)
    }

    #[test]
    fn freeze_preserves_counts_and_degrees() {
        let (g, n) = labeled_chain();
        let fz = FrozenGraph::freeze(&g);
        assert_eq!(fz.node_count(), g.node_count());
        assert_eq!(fz.edge_count(), g.edge_count());
        for &node in &n {
            assert_eq!(fz.out_degree(node), g.out_degree(node));
            assert_eq!(fz.in_degree(node), g.in_degree(node));
            assert_eq!(fz.degree(node), g.degree(node));
        }
    }

    #[test]
    fn freeze_replays_visit_order_and_labels() {
        let (g, n) = labeled_chain();
        let fz = FrozenGraph::freeze(&g);
        for &node in &n {
            let live: Vec<(u64, u64, Option<String>)> = g
                .out_edges(node)
                .into_iter()
                .map(|e| {
                    (
                        e.id.raw(),
                        e.to.raw(),
                        e.label.and_then(|s| g.label_text(s)).map(str::to_owned),
                    )
                })
                .collect();
            let frozen: Vec<(u64, u64, Option<String>)> = fz
                .out_edges(node)
                .into_iter()
                .map(|e| {
                    (
                        e.id.raw(),
                        e.to.raw(),
                        e.label.and_then(|s| fz.label_text(s)).map(str::to_owned),
                    )
                })
                .collect();
            assert_eq!(live, frozen);
        }
    }

    #[test]
    fn freeze_attributed_captures_labels_and_props() {
        let mut g = PropertyGraph::new();
        let a = g.add_node("person", props! { "age" => 30 });
        let b = g.add_node("person", props! { "age" => 40 });
        let e = g
            .add_edge(a, b, "knows", props! { "since" => 1999 })
            .unwrap();
        let fz = FrozenGraph::freeze_attributed(&g);
        assert_eq!(
            fz.node_label(a).and_then(|s| fz.label_text(s)),
            Some("person")
        );
        assert_eq!(fz.node_property(b, "age"), Some(Value::from(40)));
        assert_eq!(fz.edge_property(e, "since"), Some(Value::from(1999)));
        let sym = fz.label_symbol("person").unwrap();
        assert_eq!(fz.nodes_with_label(sym).len(), 2);
    }

    #[test]
    fn unknown_nodes_are_absent() {
        let (g, _) = labeled_chain();
        let fz = FrozenGraph::freeze(&g);
        let ghost = NodeId(99);
        assert!(!fz.contains_node(ghost));
        assert_eq!(fz.degree(ghost), 0);
        assert!(fz.out_edges(ghost).is_empty());
    }

    #[test]
    fn undirected_snapshot_keeps_incidence() {
        let mut g = SimpleGraph::undirected();
        let a = g.add_node();
        let b = g.add_node();
        g.add_edge(a, b).unwrap();
        g.add_edge(a, a).unwrap(); // self-loop, stored once
        let fz = FrozenGraph::freeze(&g);
        assert!(!fz.is_directed());
        assert_eq!(fz.degree(a), g.degree(a));
        assert_eq!(fz.degree(b), g.degree(b));
    }

    #[test]
    fn epochs_are_unique_and_increasing() {
        let (g, _) = labeled_chain();
        let a = FrozenGraph::freeze(&g);
        let b = FrozenGraph::freeze(&g);
        assert!(b.epoch() > a.epoch());
        assert!(a.freeze_work() >= (a.node_count() + a.edge_count()) as u64);
    }

    #[test]
    fn slabbed_layout_spans_slab_boundaries() {
        // More nodes than one slab, star-shaped so one run crosses
        // into targets stored in other slabs.
        let mut g = SimpleGraph::directed();
        let hub = g.add_node();
        let spokes: Vec<NodeId> = (0..(SLAB_NODES as usize * 2 + 7))
            .map(|_| g.add_node())
            .collect();
        for &s in &spokes {
            g.add_labeled_edge(hub, s, "spoke").unwrap();
        }
        let fz = FrozenGraph::freeze(&g);
        assert!(fz.fwd.slabs.len() > 2);
        assert_eq!(fz.out_degree(hub), spokes.len());
        let hub_dense = fz.dense_of(hub).unwrap();
        assert_eq!(fz.out_targets(hub_dense).len(), spokes.len());
        for &s in &spokes {
            assert_eq!(fz.in_degree(s), 1);
            assert_eq!(fz.frozen_distance(hub, s), Some(1));
        }
    }
}
