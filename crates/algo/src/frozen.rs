//! A compressed-sparse-row (CSR) snapshot of any [`AttributedView`].
//!
//! Every essential query in this crate walks the live stores through
//! dynamic visitor callbacks, paying a hash lookup and a virtual call
//! per edge hop. [`FrozenGraph::freeze`] copies a view at one point in
//! time into contiguous arrays — offsets, targets, edge ids, labels —
//! so traversal becomes pointer arithmetic over dense `u32` indices
//! (DESIGN.md §9). It is the one full freeze: it captures node labels
//! and properties too, and a view that reports none (a graph store's)
//! freezes with none. [`crate::incremental_refreeze`] is its one
//! incremental counterpart.
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
//! Beyond the plain CSR the snapshot carries three acceleration
//! structures:
//!
//! * **cached degrees** — run lengths read off the offset arrays in
//!   O(1), overriding the counting defaults;
//! * **a node-label index** (`nodes_with_label`) — the candidate
//!   prefilter the batch pattern pipeline seeds labelled variables
//!   from;
//! * **a node-property equality index** — per key, the
//!   `(loose-eq hash, dense)` pairs of every node carrying it, sorted
//!   by hash, so `{key: value}` candidates are a binary search and a
//!   re-check instead of a scan of the label's population
//!   ([`AttributedView::candidates`]).
//!
//! Everything else — regular paths, shortest paths, diameter — runs the
//! crate's one generic implementation over the snapshot's
//! [`GraphView`] impl.
//!
//! **Property storage.** Node and edge property lists share one type,
//! [`Props`]: an exact-size `Arc<[(Symbol, Value)]>` whose keys are
//! interned in the snapshot's own key interner — apart from the label
//! interner, so a property key never makes
//! [`FrozenGraph::label_symbol`] report a label. A property-less node
//! points at one shared empty list, and the edge-property map holds only
//! the edges that carry properties. [`AttributedView::candidates`]
//! resolves its keys once per call and the batch pipeline once per
//! plan, then both compare symbols; a point lookup
//! ([`AttributedView::node_property`]) compares the list's few keys as
//! text through the interner instead, which costs less than a hash
//! resolution per call. A re-freeze clones and extends the previous
//! snapshot's key interner, so every list it shares keeps reading back
//! the same keys.
//!
//! Every snapshot is stamped with a process-unique, monotonically
//! increasing **epoch** ([`FrozenGraph::epoch`]); the serving layer
//! keys plan caches and session pinning on it.
//!
//! `FrozenGraph` owns all its data (its own [`Interner`]s, no borrows),
//! so it is `Send + Sync` and shareable across the scoped threads of
//! [`crate::parallel`].

use gdm_core::{
    AttributedView, EdgeId, EdgeRef, FxHashMap, GraphView, Interner, NodeId, Symbol, Value,
};
use std::hash::{DefaultHasher, Hasher};
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

/// One node's or edge's property list: keys are symbols of the owning
/// snapshot's key interner, and the list is exactly as long as it is.
pub(crate) type Props = Arc<[(Symbol, Value)]>;

/// The shared empty property list: prop-less nodes all point at one
/// allocation, so cloning a snapshot's property column is pure
/// refcount traffic.
pub(crate) fn empty_props() -> Props {
    static EMPTY: OnceLock<Props> = OnceLock::new();
    EMPTY.get_or_init(|| Arc::new([])).clone()
}

/// The value `props` holds under `key`.
#[inline]
pub(crate) fn prop(props: &[(Symbol, Value)], key: Symbol) -> Option<&Value> {
    props.iter().find(|(k, _)| *k == key).map(|(_, v)| v)
}

/// Captures the property list a `visit_*_properties` hook enumerates,
/// interning its keys into `keys`. `buf` is scratch the caller reuses,
/// so the list is allocated once, at its exact size, and only when it
/// is not empty.
pub(crate) fn capture_props(
    keys: &mut Interner,
    buf: &mut Vec<(Symbol, Value)>,
    visit: impl FnOnce(&mut dyn FnMut(&str, &Value)),
) -> Option<Props> {
    visit(&mut |k, v| buf.push((keys.intern(k), v.clone())));
    (!buf.is_empty()).then(|| buf.drain(..).collect())
}

/// Captures the properties of the edges `ids` yields into `edge_props`.
/// An edge the map already holds is skipped without a visit, and so is
/// one `fresh` turns down; any other is visited once and inserted only
/// when it has properties (the map is copied on write at the first
/// insert). Returns the work: one unit per visited edge plus one per
/// captured property.
pub(crate) fn capture_edge_props<G: AttributedView + ?Sized>(
    g: &G,
    ids: impl IntoIterator<Item = EdgeId>,
    keys: &mut Interner,
    edge_props: &mut EdgePropsMap,
    mut fresh: impl FnMut(u64) -> bool,
) -> u64 {
    let mut buf = Vec::new();
    let mut work = 0;
    for id in ids {
        let raw = id.raw();
        if edge_props.contains_key(&raw) || !fresh(raw) {
            continue;
        }
        work += 1;
        if let Some(props) = capture_props(keys, &mut buf, |f| g.visit_edge_properties(id, f)) {
            work += props.len() as u64;
            Arc::make_mut(edge_props).insert(raw, props);
        }
    }
    work
}

/// Source label symbol → the snapshot's own, each source symbol
/// resolved and interned once.
#[derive(Default)]
pub(crate) struct Relabel(FxHashMap<u32, Option<Symbol>>);

impl Relabel {
    pub(crate) fn map<G: GraphView + ?Sized>(
        &mut self,
        g: &G,
        interner: &mut Interner,
        sym: Symbol,
    ) -> Option<Symbol> {
        *self
            .0
            .entry(sym.raw())
            .or_insert_with(|| g.label_text(sym).map(|t| interner.intern(t)))
    }
}

/// One node-property equality-index row: `(loose-eq hash of the
/// value, dense position)`.
pub(crate) type EqRow = (u64, u32);

/// An `Arc`-shared, hash-sorted run of equality-index rows for one key.
pub(crate) type EqRun = Arc<Vec<EqRow>>;

/// The equality index's hash of `v`: [`Value::hash_loose`] under the
/// std `SipHash`, which has fixed keys — the same value hashes the same
/// in every snapshot of the process, so a re-freeze can merge new rows
/// into runs an earlier freeze sorted.
pub(crate) fn eq_hash(v: &Value) -> u64 {
    let mut state = DefaultHasher::new();
    v.hash_loose(&mut state);
    state.finish()
}

/// Appends the equality-index rows of one node's properties to the
/// per-key runs being built.
pub(crate) fn push_eq_rows(
    runs: &mut FxHashMap<Symbol, Vec<EqRow>>,
    props: &[(Symbol, Value)],
    dense: u32,
) {
    for (key, value) in props {
        runs.entry(*key).or_default().push((eq_hash(value), dense));
    }
}

/// The copy-on-write edge-property map: edge raw id → property list,
/// for the edges that carry at least one property.
pub(crate) type EdgePropsMap = Arc<FxHashMap<u64, Props>>;

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

/// Builds one CSR direction row by row, straight into slabs: rows
/// collect in a slab-sized buffer that is reused, and every
/// [`SLAB_NODES`] rows it is copied out as one exact-size slab. Rows
/// come from the source ([`SlabRecorder::record_row`]) or from a
/// previous snapshot ([`SlabRecorder::copy_row`]); a whole previous
/// slab can be shared at a slab boundary ([`SlabRecorder::share`]).
pub(crate) struct SlabRecorder {
    csr: Csr,
    buf: CsrSlab,
}

impl SlabRecorder {
    /// A recorder for a direction of `n` rows.
    pub(crate) fn new(n: usize) -> Self {
        Self {
            csr: Csr {
                n,
                slabs: Vec::with_capacity(n.div_ceil(SLAB_NODES as usize)),
            },
            buf: CsrSlab {
                offsets: vec![0],
                ..CsrSlab::default()
            },
        }
    }

    /// Records `n`'s outgoing (or, with `incoming`, incoming) run as
    /// the next row, in the order the source visits it, with endpoints
    /// mapped through `index` and labels through `relabel`. Returns the
    /// run length, or `None` when the source yields an endpoint `index`
    /// does not hold.
    pub(crate) fn record_row<G: GraphView + ?Sized>(
        &mut self,
        g: &G,
        n: NodeId,
        incoming: bool,
        index: &FxHashMap<u64, u32>,
        interner: &mut Interner,
        relabel: &mut Relabel,
    ) -> Option<usize> {
        let start = self.buf.targets.len();
        let mut known = true;
        let buf = &mut self.buf;
        let mut record = |e: EdgeRef| {
            let Some(&dense) = index.get(&e.to.raw()) else {
                known = false;
                return;
            };
            buf.targets.push(dense);
            buf.edge_ids.push(e.id);
            buf.labels
                .push(e.label.and_then(|sym| relabel.map(g, interner, sym)));
        };
        if incoming {
            g.visit_in_edges(n, &mut record);
        } else {
            g.visit_out_edges(n, &mut record);
        }
        let len = self.buf.targets.len() - start;
        self.end_row();
        known.then_some(len)
    }

    /// Copies a previous snapshot's run as the next row, relocating
    /// the targets `moves` lists.
    pub(crate) fn copy_row(&mut self, run: Run<'_>, moves: &FxHashMap<u32, u32>) {
        self.buf.targets.extend(
            run.targets
                .iter()
                .map(|&t| moves.get(&t).copied().unwrap_or(t)),
        );
        self.buf.edge_ids.extend_from_slice(run.edge_ids);
        self.buf.labels.extend_from_slice(run.labels);
        self.end_row();
    }

    /// Takes a previous snapshot's slab whole, by reference count. Only
    /// at a slab boundary.
    pub(crate) fn share(&mut self, slab: &Arc<CsrSlab>) {
        debug_assert_eq!(self.buf.rows(), 0, "a slab is shared at a slab boundary");
        self.csr.slabs.push(Arc::clone(slab));
    }

    /// The recorded direction.
    pub(crate) fn finish(mut self) -> Csr {
        if self.buf.rows() > 0 {
            self.flush();
        }
        debug_assert_eq!(
            self.csr.slabs.iter().map(|s| s.rows()).sum::<usize>(),
            self.csr.n
        );
        self.csr
    }

    fn end_row(&mut self) {
        let len = u32::try_from(self.buf.targets.len()).expect("frozen graph u32 edge limit");
        self.buf.offsets.push(len);
        if self.buf.rows() == SLAB_NODES as usize {
            self.flush();
        }
    }

    /// Copies the buffered rows out as one exact-size slab and empties
    /// the buffer.
    fn flush(&mut self) {
        let buf = &mut self.buf;
        self.csr.slabs.push(Arc::new(CsrSlab {
            offsets: buf.offsets.clone(),
            targets: buf.targets.clone(),
            edge_ids: buf.edge_ids.clone(),
            labels: buf.labels.clone(),
        }));
        buf.offsets.truncate(1);
        buf.targets.clear();
        buf.edge_ids.clear();
        buf.labels.clear();
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
    /// Node and edge labels.
    pub(crate) interner: Interner,
    /// Property keys, apart from the labels.
    pub(crate) keys: Interner,
    pub(crate) node_labels: Vec<Option<Symbol>>,
    pub(crate) node_props: Vec<Props>,
    /// Edge raw id → property list, for edges carrying at least one
    /// property. `Arc`-wrapped as a whole so an incremental re-freeze
    /// with no edge-property churn shares the map by reference count
    /// instead of cloning O(E) entries ([`Arc::make_mut`] restores
    /// copy-on-write semantics at the mutation sites).
    pub(crate) edge_props: EdgePropsMap,
    /// Node label → dense positions carrying it, ascending.
    pub(crate) label_index: FxHashMap<Symbol, Vec<u32>>,
    /// Node property key → `(loose-eq hash, dense)` rows sorted by
    /// hash — the equality index behind [`AttributedView::candidates`].
    /// Values loosely equal hash alike, so one binary search finds a
    /// superset of a `{key: value}` constraint's nodes, which lookups
    /// re-check. Each run is `Arc`-wrapped so a re-freeze clones only
    /// the keys it patches and shares untouched runs by reference
    /// count.
    pub(crate) node_eq: FxHashMap<Symbol, EqRun>,
}

impl FrozenGraph {
    /// Freezes `g`: its structure, node labels, and node and edge
    /// properties. Property capture relies on the source implementing
    /// the [`AttributedView::visit_node_properties`] /
    /// [`AttributedView::visit_edge_properties`] enumeration hooks;
    /// sources keeping the default (non-enumerable) hooks freeze with
    /// labels but without property values.
    pub fn freeze<G: AttributedView + ?Sized>(g: &G) -> Self {
        let nodes = g.node_ids();
        let mut index = FxHashMap::default();
        index.reserve(nodes.len());
        for (i, n) in nodes.iter().enumerate() {
            let dense = u32::try_from(i).expect("frozen graph limited to u32 nodes");
            index.insert(n.raw(), dense);
        }

        let n = nodes.len();
        let mut interner = Interner::new();
        let mut relabel = Relabel::default();
        let (mut fwd, mut rev) = (SlabRecorder::new(n), SlabRecorder::new(n));
        for &node in &nodes {
            for (csr, incoming) in [(&mut fwd, false), (&mut rev, true)] {
                csr.record_row(g, node, incoming, &index, &mut interner, &mut relabel)
                    .expect("edge endpoint not yielded by visit_nodes");
            }
        }
        let (fwd, rev) = (fwd.finish(), rev.finish());
        let freeze_work = (n + fwd.edge_slots() + rev.edge_slots()) as u64;

        let mut keys = Interner::new();
        let mut node_labels = Vec::with_capacity(n);
        let mut node_props = Vec::with_capacity(n);
        let mut label_index: FxHashMap<Symbol, Vec<u32>> = FxHashMap::default();
        let mut buf = Vec::new();
        for (dense, &node) in nodes.iter().enumerate() {
            let label = g
                .node_label(node)
                .and_then(|sym| relabel.map(g, &mut interner, sym));
            node_labels.push(label);
            if let Some(sym) = label {
                label_index.entry(sym).or_default().push(dense as u32);
            }
            let props = capture_props(&mut keys, &mut buf, |f| g.visit_node_properties(node, f));
            node_props.push(props.unwrap_or_else(empty_props));
        }
        // A pass of its own, so the growing runs do not interleave
        // with the property lists in the heap.
        let mut node_eq: FxHashMap<Symbol, Vec<EqRow>> = FxHashMap::default();
        for (dense, props) in node_props.iter().enumerate() {
            push_eq_rows(&mut node_eq, props, dense as u32);
        }
        let node_eq = node_eq
            .into_iter()
            .map(|(k, mut run)| {
                run.sort_unstable();
                (k, Arc::new(run))
            })
            .collect();

        // Every edge surfaces in the forward CSR (an undirected view
        // lists it at both ends), so the reverse one adds only repeats.
        let mut edge_props = Arc::new(FxHashMap::default());
        let ids = fwd
            .slabs
            .iter()
            .flat_map(|slab| slab.edge_ids.iter().copied());
        capture_edge_props(g, ids, &mut keys, &mut edge_props, |_| true);
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
            keys,
            node_labels,
            node_props,
            edge_props,
            label_index,
            node_eq,
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

    /// The snapshot's symbol for label text, if any frozen edge or
    /// node carries it. Property keys are interned apart and never
    /// answer here.
    pub fn label_symbol(&self, text: &str) -> Option<Symbol> {
        self.interner.get(text)
    }

    /// Dense positions of the nodes labelled `sym`, ascending. Empty
    /// for labels no node carries.
    pub fn nodes_with_label(&self, sym: Symbol) -> &[u32] {
        self.label_index.get(&sym).map_or(&[], Vec::as_slice)
    }

    /// The snapshot's symbol for property key `key`, if any frozen node
    /// or edge carries it.
    #[inline]
    pub(crate) fn key_symbol(&self, key: &str) -> Option<Symbol> {
        self.keys.get(key)
    }

    /// The value `props` holds under the key spelled `key`. The list's
    /// few key symbols are compared as text through the key interner
    /// (a length check, then the bytes), which costs a point lookup less
    /// than resolving `key` by hash first: the finish calls
    /// `node_property` once per row.
    fn prop_by_text<'p>(&self, props: &'p [(Symbol, Value)], key: &str) -> Option<&'p Value> {
        props
            .iter()
            .find(|(k, _)| self.key_text(*k) == key)
            .map(|(_, v)| v)
    }

    /// The text of property key `key`.
    pub(crate) fn key_text(&self, key: Symbol) -> &str {
        self.keys
            .resolve(key)
            .expect("property keys are interned by their snapshot")
    }

    /// The equality-index rows of `key` whose hash is `value`'s: every
    /// node whose `key` is loosely equal to `value`, plus any whose
    /// value merely collides. Empty when no node carries `key`.
    fn eq_rows(&self, key: Symbol, value: &Value) -> &[EqRow] {
        let Some(run) = self.node_eq.get(&key) else {
            return &[];
        };
        let hash = eq_hash(value);
        let start = run.partition_point(|&(h, _)| h < hash);
        let len = run[start..].partition_point(|&(h, _)| h == hash);
        &run[start..start + len]
    }

    /// `props` with each key resolved to the snapshot's symbol, or
    /// `None` when some key is one no frozen node or edge carries.
    fn resolve_keys<'p>(&self, props: &'p [(String, Value)]) -> Option<Vec<(Symbol, &'p Value)>> {
        props
            .iter()
            .map(|(key, value)| Some((self.key_symbol(key)?, value)))
            .collect()
    }

    /// The equality-index rows of the most selective of `props`' keys
    /// (the fewest equal-hash rows), or `None` when `props` is empty.
    fn narrowest_eq_rows(&self, props: &[(Symbol, &Value)]) -> Option<&[EqRow]> {
        props
            .iter()
            .map(|&(key, value)| self.eq_rows(key, value))
            .min_by_key(|rows| rows.len())
    }

    // ---- columnar accessors (the vectorized executor's fast path) ---

    /// Interned label of the node at dense position `dense`.
    #[inline]
    pub(crate) fn node_label_dense(&self, dense: u32) -> Option<Symbol> {
        self.node_labels[dense as usize]
    }

    /// Property list of the node at dense position `dense`.
    #[inline]
    pub(crate) fn node_props_dense(&self, dense: u32) -> &[(Symbol, Value)] {
        &self.node_props[dense as usize]
    }

    /// Property list of edge `id` (raw); empty when it carries none.
    #[inline]
    pub(crate) fn edge_props_raw(&self, id: u64) -> &[(Symbol, Value)] {
        self.edge_props.get(&id).map_or(&[], |p| p)
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
        let props = &self.node_props[self.dense_of(n)? as usize];
        self.prop_by_text(props, key).cloned()
    }

    fn edge_property(&self, e: EdgeId, key: &str) -> Option<Value> {
        self.prop_by_text(self.edge_props_raw(e.raw()), key)
            .cloned()
    }

    fn visit_node_properties(&self, n: NodeId, f: &mut dyn FnMut(&str, &Value)) {
        if let Some(dense) = self.dense_of(n) {
            for (k, v) in self.node_props[dense as usize].iter() {
                f(self.key_text(*k), v);
            }
        }
    }

    fn visit_edge_properties(&self, e: EdgeId, f: &mut dyn FnMut(&str, &Value)) {
        for (k, v) in self.edge_props_raw(e.raw()) {
            f(self.key_text(*k), v);
        }
    }

    /// Seeds from the equality index when property constraints are
    /// present — the equal-hash rows of the most selective key, each
    /// re-checked against the label and every constraint — and from
    /// the label index otherwise. Ids come back ascending: dense order
    /// stops being id order once a re-freeze swap-removes a node.
    fn candidates(&self, label: Option<&str>, props: &[(String, Value)]) -> Vec<NodeId> {
        let sym = match label {
            Some(want) => match self.label_symbol(want) {
                Some(sym) => Some(sym),
                None => return Vec::new(),
            },
            None => None,
        };
        let Some(props) = self.resolve_keys(props) else {
            return Vec::new();
        };
        let mut ids: Vec<NodeId> = match self.narrowest_eq_rows(&props) {
            Some(rows) => rows
                .iter()
                .map(|&(_, dense)| dense)
                .filter(|&dense| {
                    let have = self.node_props_dense(dense);
                    sym.is_none_or(|sym| self.node_label_dense(dense) == Some(sym))
                        && props.iter().all(|&(key, want)| {
                            prop(have, key).is_some_and(|got| got.loose_eq(want))
                        })
                })
                .map(|dense| self.nodes[dense as usize])
                .collect(),
            None => match sym {
                Some(sym) => self
                    .nodes_with_label(sym)
                    .iter()
                    .map(|&dense| self.nodes[dense as usize])
                    .collect(),
                None => self.nodes.clone(),
            },
        };
        ids.sort_unstable_by_key(|n| n.raw());
        // A node listing one key twice has two rows under it.
        ids.dedup();
        ids
    }

    /// The label run length bounds a label-only request; property
    /// constraints are bounded by the equal-hash row count of the most
    /// selective key (`Some(0)` when no node carries one of them),
    /// capped by the label run. Label-less, constraint-free requests
    /// have no index to answer from.
    fn candidate_estimate(&self, label: Option<&str>, props: &[(String, Value)]) -> Option<usize> {
        let labelled = label.map(|want| {
            self.label_symbol(want)
                .map_or(0, |sym| self.nodes_with_label(sym).len())
        });
        let keyed = match self.resolve_keys(props) {
            Some(props) => self.narrowest_eq_rows(&props).map(<[EqRow]>::len),
            None => Some(0),
        };
        match (labelled, keyed) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        }
    }

    /// The CSR snapshot is the columnar backend the vectorized
    /// pipeline runs on.
    fn batch_backend(&self) -> Option<&dyn std::any::Any> {
        Some(self)
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
    fn freeze_captures_labels_and_props() {
        let mut g = PropertyGraph::new();
        let a = g.add_node("person", props! { "age" => 30 });
        let b = g.add_node("person", props! { "age" => 40 });
        let e = g
            .add_edge(a, b, "knows", props! { "since" => 1999 })
            .unwrap();
        let fz = FrozenGraph::freeze(&g);
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
    fn edge_props_hold_exactly_the_edges_with_properties() {
        // Every third edge carries `w`; the rest carry nothing. Three
        // slabs and a part, so the capture crosses slab boundaries.
        let mut g = PropertyGraph::new();
        let n: Vec<NodeId> = (0..SLAB_NODES as i64 * 3 + 5)
            .map(|i| g.add_node("n", props! { "i" => i }))
            .collect();
        let mut edges = Vec::new();
        for i in 0..n.len() {
            let (a, b) = (n[i], n[(i * 7 + 1) % n.len()]);
            let props = if i % 3 == 0 {
                props! { "w" => i as i64 }
            } else {
                props! {}
            };
            edges.push((g.add_edge(a, b, "e", props).unwrap(), a, b, i));
        }
        let fz = FrozenGraph::freeze(&g);
        assert!(fz.fwd.slabs.len() > 3);
        let mut held: Vec<u64> = fz.edge_props.keys().copied().collect();
        held.sort_unstable();
        let with: Vec<u64> = edges
            .iter()
            .filter(|e| e.3 % 3 == 0)
            .map(|e| e.0.raw())
            .collect();
        assert_eq!(held, with);
        let listed = |v: &dyn AttributedView, e: EdgeId| {
            let mut props = Vec::new();
            v.visit_edge_properties(e, &mut |k, v| props.push((k.to_owned(), v.clone())));
            props
        };
        for &(e, ..) in &edges {
            assert_eq!(fz.edge_property(e, "w"), g.edge_property(e, "w"));
            assert_eq!(fz.edge_property(e, "i"), None);
            assert_eq!(listed(&fz, e), listed(&g, e));
        }
    }

    /// A property graph that counts its edge-property hook calls per
    /// edge, seen as it is or, with every edge listed at both ends,
    /// undirected.
    struct Counted<'a> {
        g: &'a PropertyGraph,
        directed: bool,
        hooks: std::cell::RefCell<FxHashMap<u64, usize>>,
    }

    impl GraphView for Counted<'_> {
        fn is_directed(&self) -> bool {
            self.directed
        }
        fn node_count(&self) -> usize {
            self.g.node_count()
        }
        fn edge_count(&self) -> usize {
            self.g.edge_count()
        }
        fn contains_node(&self, n: NodeId) -> bool {
            self.g.contains_node(n)
        }
        fn visit_nodes(&self, f: &mut dyn FnMut(NodeId)) {
            self.g.visit_nodes(f)
        }
        fn visit_out_edges(&self, n: NodeId, f: &mut dyn FnMut(EdgeRef)) {
            self.g.visit_out_edges(n, f);
            if !self.directed {
                self.g.visit_in_edges(n, f);
            }
        }
        fn visit_in_edges(&self, n: NodeId, f: &mut dyn FnMut(EdgeRef)) {
            if self.directed {
                self.g.visit_in_edges(n, f)
            } else {
                self.visit_out_edges(n, f)
            }
        }
        fn label_text(&self, sym: Symbol) -> Option<&str> {
            self.g.label_text(sym)
        }
    }

    impl AttributedView for Counted<'_> {
        fn node_label(&self, n: NodeId) -> Option<Symbol> {
            AttributedView::node_label(self.g, n)
        }
        fn node_property(&self, n: NodeId, key: &str) -> Option<Value> {
            self.g.node_property(n, key)
        }
        fn edge_property(&self, e: EdgeId, key: &str) -> Option<Value> {
            self.g.edge_property(e, key)
        }
        fn visit_node_properties(&self, n: NodeId, f: &mut dyn FnMut(&str, &Value)) {
            self.g.visit_node_properties(n, f)
        }
        fn visit_edge_properties(&self, e: EdgeId, f: &mut dyn FnMut(&str, &Value)) {
            *self.hooks.borrow_mut().entry(e.raw()).or_default() += 1;
            self.g.visit_edge_properties(e, f)
        }
    }

    #[test]
    fn a_freeze_visits_each_edges_properties_once() {
        // Two edges per node, every third with properties, no
        // self-loops; more than two slabs of nodes.
        let mut g = PropertyGraph::new();
        let n: Vec<NodeId> = (0..SLAB_NODES as usize * 2 + 22)
            .map(|_| g.add_node("n", props! {}))
            .collect();
        let mut edges = Vec::new();
        for i in 0..n.len() {
            for step in [1, 7] {
                let props = if edges.len() % 3 == 0 {
                    props! { "w" => i as i64, "step" => step }
                } else {
                    props! {}
                };
                let to = n[(i + step as usize) % n.len()];
                edges.push(g.add_edge(n[i], to, "e", props).unwrap());
            }
        }
        let listed = |v: &dyn AttributedView, e: EdgeId| {
            let mut props = Vec::new();
            v.visit_edge_properties(e, &mut |k, v| props.push((k.to_owned(), v.clone())));
            props
        };
        let want: Vec<(u64, Vec<(String, Value)>)> = edges
            .iter()
            .map(|&e| (e.raw(), listed(&g, e)))
            .filter(|(_, props)| !props.is_empty())
            .collect();
        for directed in [true, false] {
            let view = Counted {
                g: &g,
                directed,
                hooks: Default::default(),
            };
            let fz = FrozenGraph::freeze(&view);
            let mut held: Vec<(u64, Vec<(String, Value)>)> = fz
                .edge_props
                .iter()
                .map(|(&raw, props)| {
                    let text = props
                        .iter()
                        .map(|(k, v)| (fz.key_text(*k).to_owned(), v.clone()));
                    (raw, text.collect())
                })
                .collect();
            held.sort_by_key(|(raw, _)| *raw);
            assert_eq!(held, want, "directed: {directed}");
            let hooks = view.hooks.into_inner();
            assert_eq!(hooks.len(), edges.len(), "directed: {directed}");
            if directed {
                let repeated = hooks.iter().filter(|(_, &calls)| calls != 1).count();
                assert_eq!(repeated, 0, "edges whose hook ran more than once");
            }
        }
    }

    #[test]
    fn property_keys_are_not_labels() {
        let mut g = PropertyGraph::new();
        let a = g.add_node("city", props! { "person" => 1 });
        let b = g.add_node("city", props! {});
        g.add_edge(a, b, "road", props! { "knows" => 2 }).unwrap();
        let fz = FrozenGraph::freeze(&g);
        assert_eq!(fz.label_symbol("person"), None);
        assert_eq!(fz.label_symbol("knows"), None);
        assert!(fz.label_symbol("city").is_some());
        assert!(fz.candidates(Some("person"), &[]).is_empty());
        assert_eq!(fz.node_property(a, "person"), Some(Value::from(1)));
        assert_eq!(fz.node_property(a, "city"), None);
        assert_eq!(
            fz.candidates(None, &[("person".to_owned(), Value::from(1))]),
            vec![a]
        );
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
            assert_eq!(crate::distance(&fz, hub, s), Some(1));
        }
    }
}
