//! Incremental re-freezing: patch a [`FrozenGraph`] in O(changes).
//!
//! A full [`FrozenGraph::freeze`] re-reads every node and edge of the
//! source — property capture, label and key interning, index sorts,
//! the lot. When an engine has tracked *which* ids changed since the
//! previous snapshot (a [`FreezeDelta`] from
//! [`gdm_core::DeltaTracker`]), [`incremental_refreeze`] — the one
//! re-freeze, for every engine — produces an equivalent new snapshot
//! while touching only the changed neighbourhood:
//!
//! * **Dirty rows are re-read** from the source view (new/modified
//!   nodes, both endpoints of created edges, neighbours of removed
//!   nodes, rows containing deleted or re-propertied edges).
//! * **Clean slabs are shared**: a CSR slab none of whose rows moved,
//!   re-read, or reference a relocated dense id is carried over by
//!   `Arc` clone — no copy, no re-sort.
//! * **Heavy payloads are shared**: per-node and per-edge property
//!   lists are `Arc`-cloned from the previous snapshot; only re-read
//!   rows pay property capture again, and an unchanged edge riding in
//!   a re-read row keeps its shared property list (engines report edge
//!   deletion and re-propertying explicitly, so ride-alongs are known
//!   clean). The node-property equality index is patched: the rows of
//!   removed, re-read and relocated nodes are found by their old
//!   values' hashes and retire, re-read rows and relocated rows at
//!   their new position are merged in, and keys no changed row carries
//!   keep sharing the previous run.
//! * **Integer metadata is rebuilt** (`nodes`, id index, label index):
//!   these are O(V) `memcpy`-class passes with no string or hash work
//!   per element, which keeps the implementation honest without
//!   threatening the O(changes) bound on the expensive parts.
//!
//! Deletions use *swap-remove* on the dense node order: the last node
//! takes the freed position, and every run mentioning a relocated
//! dense id is either copied-with-remap or re-read. The result is
//! therefore **content-equivalent** to a full freeze — same nodes,
//! edges, labels, properties, and query answers — but generally with a
//! different dense ordering, which nothing outside the snapshot
//! observes (`crates/engines/tests/refreeze_equiv.rs` proves the equivalence by
//! property testing over random mutation batches).
//!
//! The function falls back to a full freeze whenever the delta is
//! unusable: `delta.full` (untracked mutation), a base-epoch mismatch
//! (the delta describes a different baseline), or an inconsistency
//! discovered mid-patch (an edge endpoint the delta never mentioned).
//! Falling back is always correct; the delta only ever buys speed.

use crate::frozen::{
    capture_edge_props, capture_props, empty_props, eq_hash, next_epoch, push_eq_rows, Csr, EqRow,
    EqRun, FrozenGraph, Relabel, SlabRecorder, SLAB_NODES,
};
use gdm_core::{
    AttributedView, FreezeDelta, FxHashMap, FxHashSet, GraphView, Interner, NodeId, Symbol,
};
use std::sync::Arc;

/// Sentinel in the `orig` relocation vector: this dense row is new in
/// this snapshot (no previous row to copy from).
const NEW_ROW: u32 = u32::MAX;

/// The settled node relocation and row classification an incremental
/// re-freeze works from.
struct RebuildPlan {
    /// New dense position → node id.
    nodes: Vec<NodeId>,
    /// Node raw id → new dense position.
    index: FxHashMap<u64, u32>,
    /// New dense position → previous dense position ([`NEW_ROW`] for
    /// nodes created since the base snapshot).
    orig: Vec<u32>,
    /// Previous dense position → new dense position, for relocated
    /// survivors only (identity entries are omitted).
    moves: FxHashMap<u32, u32>,
    /// Previous dense positions of the removed nodes.
    removed: Vec<u32>,
    /// New dense rows whose adjacency must be re-read from the source.
    reread: Vec<bool>,
    /// New dense rows whose *forward* run references a relocated dense
    /// id (copy-with-remap; the slab cannot be shared).
    retarget_fwd: Vec<bool>,
    /// Same for the reverse run.
    retarget_rev: Vec<bool>,
    /// Raw edge ids whose previous index/property entries are stale:
    /// deleted edges, re-propertied edges, and the edges of removed
    /// rows. Edges riding along in a re-read row are *not* stale —
    /// their content is unchanged (engines report edge mutations
    /// explicitly), so their property Arcs and index rows survive.
    stale_edges: FxHashSet<u64>,
    /// Node+edge visit units spent planning and patching.
    work: u64,
}

/// Translates a previous dense id to its current position, if the node
/// survived at that identity.
fn relocated(plan_orig: &[u32], moves: &FxHashMap<u32, u32>, prev_dense: u32) -> Option<u32> {
    let cur = moves.get(&prev_dense).copied().unwrap_or(prev_dense);
    ((cur as usize) < plan_orig.len() && plan_orig[cur as usize] == prev_dense).then_some(cur)
}

/// Builds the relocation plan, or `None` when the delta turns out to
/// be inconsistent with the source (fall back to a full freeze).
fn plan_rebuild<G: GraphView + ?Sized>(
    g: &G,
    prev: &FrozenGraph,
    delta: &FreezeDelta,
) -> Option<RebuildPlan> {
    let mut nodes = prev.nodes.clone();
    let mut index = prev.index.clone();
    let mut orig: Vec<u32> = (0..nodes.len() as u32).collect();
    let mut stale_edges: FxHashSet<u64> = FxHashSet::default();
    // Previous dense ids whose rows must be re-read because a removed
    // node's edges ran through them; translated to new positions once
    // the node set settles.
    let mut reread_prev: FxHashSet<u32> = FxHashSet::default();
    let mut removed = Vec::new();
    let mut work = delta.change_count() as u64;

    for &raw in &delta.removed_nodes {
        let Some(d) = index.remove(&raw) else {
            continue; // created and deleted within the batch
        };
        let prev_d = orig[d as usize];
        removed.push(prev_d);
        // Every neighbour's run mentions the removed node: re-read.
        for &t in prev.fwd.targets(prev_d) {
            reread_prev.insert(t);
        }
        for &t in prev.rev.targets(prev_d) {
            reread_prev.insert(t);
        }
        for id in prev
            .fwd
            .run(prev_d)
            .edge_ids
            .iter()
            .chain(prev.rev.run(prev_d).edge_ids.iter())
        {
            stale_edges.insert(id.raw());
        }
        work += 1 + (prev.fwd.degree(prev_d) + prev.rev.degree(prev_d)) as u64;
        nodes.swap_remove(d as usize);
        orig.swap_remove(d as usize);
        if (d as usize) < nodes.len() {
            index.insert(nodes[d as usize].raw(), d);
        }
    }

    for &raw in &delta.dirty_nodes {
        if index.contains_key(&raw) {
            if !g.contains_node(NodeId(raw)) {
                // A deletion the tracker never saw: the delta is not
                // trustworthy.
                return None;
            }
            continue;
        }
        if !g.contains_node(NodeId(raw)) {
            continue; // created and deleted, deletion folded away
        }
        let d = u32::try_from(nodes.len()).ok()?;
        if d == NEW_ROW {
            return None; // u32::MAX rows: out of dense-id space
        }
        nodes.push(NodeId(raw));
        orig.push(NEW_ROW);
        index.insert(raw, d);
    }

    let n_new = nodes.len();
    let mut moves: FxHashMap<u32, u32> = FxHashMap::default();
    for (i, &o) in orig.iter().enumerate() {
        if o != NEW_ROW && o != i as u32 {
            moves.insert(o, i as u32);
        }
    }

    let mut reread = vec![false; n_new];
    for (i, &o) in orig.iter().enumerate() {
        if o == NEW_ROW {
            reread[i] = true;
        }
    }
    for &raw in &delta.dirty_nodes {
        if let Some(&d) = index.get(&raw) {
            reread[d as usize] = true;
        }
    }
    for &p in &reread_prev {
        if let Some(cur) = relocated(&orig, &moves, p) {
            reread[cur as usize] = true;
        }
    }

    // Rows containing structurally deleted or re-propertied edges:
    // one integer scan over the previous slabs, only when needed.
    if !delta.dirty_edges.is_empty() || !delta.dirty_edge_props.is_empty() {
        let hot = |id: u64| delta.dirty_edges.contains(&id) || delta.dirty_edge_props.contains(&id);
        for dir in [&prev.fwd, &prev.rev] {
            for (si, slab) in dir.slabs.iter().enumerate() {
                for row in 0..slab.rows() {
                    let range = slab.local_range(row);
                    if slab.edge_ids[range].iter().any(|id| hot(id.raw())) {
                        let p = (si * SLAB_NODES as usize + row) as u32;
                        if let Some(cur) = relocated(&orig, &moves, p) {
                            reread[cur as usize] = true;
                        }
                    }
                }
            }
        }
        stale_edges.extend(delta.dirty_edges.iter().copied());
        stale_edges.extend(delta.dirty_edge_props.iter().copied());
        work += ((prev.fwd.edge_slots() + prev.rev.edge_slots()) / 64) as u64;
    }

    // Neighbours of relocated survivors: their runs need target remaps
    // (per direction), so their slabs cannot be shared.
    let mut retarget_fwd = vec![false; n_new];
    let mut retarget_rev = vec![false; n_new];
    for &p in moves.keys() {
        for &q in prev.rev.targets(p) {
            if let Some(cur) = relocated(&orig, &moves, q) {
                retarget_fwd[cur as usize] = true;
            }
        }
        for &q in prev.fwd.targets(p) {
            if let Some(cur) = relocated(&orig, &moves, q) {
                retarget_rev[cur as usize] = true;
            }
        }
    }

    Some(RebuildPlan {
        nodes,
        index,
        orig,
        moves,
        removed,
        reread,
        retarget_fwd,
        retarget_rev,
        stale_edges,
        work,
    })
}

/// Rebuilds one CSR direction against the plan: shared slabs are `Arc`
/// clones of the previous snapshot's, dirty rows are re-dispatched to
/// the source, everything else is copied with dense-id remapping.
/// Returns `None` when the source yields an edge endpoint the plan
/// does not know (inconsistent delta → full freeze).
#[allow(clippy::too_many_arguments)]
fn build_dir<G: GraphView + ?Sized>(
    g: &G,
    prev_dir: &Csr,
    plan: &RebuildPlan,
    retarget: &[bool],
    incoming: bool,
    interner: &mut Interner,
    relabel: &mut Relabel,
    work: &mut u64,
) -> Option<Csr> {
    let n_new = plan.nodes.len();
    let mut recorder = SlabRecorder::new(n_new);
    for (slab_idx, lo) in (0..n_new).step_by(SLAB_NODES as usize).enumerate() {
        let hi = (lo + SLAB_NODES as usize).min(n_new);
        let prev_hi = (lo + SLAB_NODES as usize).min(prev_dir.n);
        let shareable = slab_idx < prev_dir.slabs.len()
            && prev_hi == hi
            && (lo..hi).all(|r| plan.orig[r] == r as u32 && !plan.reread[r] && !retarget[r]);
        if shareable {
            recorder.share(&prev_dir.slabs[slab_idx]);
            continue;
        }
        for r in lo..hi {
            if plan.reread[r] {
                let len = recorder.record_row(
                    g,
                    plan.nodes[r],
                    incoming,
                    &plan.index,
                    interner,
                    relabel,
                )?;
                *work += 1 + len as u64;
            } else {
                recorder.copy_row(prev_dir.run(plan.orig[r]), &plan.moves);
            }
        }
    }
    Some(recorder.finish())
}

/// `prev` patched by `delta` to a snapshot content-equivalent to
/// `FrozenGraph::freeze(g)`: CSR slabs, node label and property
/// columns, the node label index, `Arc`-shared edge properties, and a
/// patched (not rebuilt) node equality index.
/// Falls back to a full freeze whenever the delta cannot be applied
/// (see module docs).
pub fn incremental_refreeze<G: AttributedView + ?Sized>(
    g: &G,
    prev: &FrozenGraph,
    delta: &FreezeDelta,
) -> FrozenGraph {
    if delta.is_empty() && delta.base_epoch == prev.epoch {
        let mut fz = prev.clone();
        fz.freeze_work = 1;
        return fz;
    }
    patch(g, prev, delta).unwrap_or_else(|| FrozenGraph::freeze(g))
}

/// The patched snapshot, or `None` when the delta is unusable.
fn patch<G: AttributedView + ?Sized>(
    g: &G,
    prev: &FrozenGraph,
    delta: &FreezeDelta,
) -> Option<FrozenGraph> {
    if delta.full || delta.base_epoch != prev.epoch {
        return None;
    }
    let mut plan = plan_rebuild(g, prev, delta)?;
    let mut interner = prev.interner.clone();
    let mut relabel = Relabel::default();
    let mut work = plan.work;
    let fwd = build_dir(
        g,
        &prev.fwd,
        &plan,
        &plan.retarget_fwd,
        false,
        &mut interner,
        &mut relabel,
        &mut work,
    )?;
    let rev = build_dir(
        g,
        &prev.rev,
        &plan,
        &plan.retarget_rev,
        true,
        &mut interner,
        &mut relabel,
        &mut work,
    )?;

    // Node labels and properties: copy (Arc clone) clean rows from the
    // previous snapshot, re-capture re-read rows from the source. Keys
    // the source adds extend the cloned key interner, so the symbols in
    // every shared list keep their meaning.
    let mut keys = prev.keys.clone();
    let n_new = plan.nodes.len();
    let (mut node_labels, mut node_props) = (Vec::with_capacity(n_new), Vec::with_capacity(n_new));
    let mut buf = Vec::new();
    for (i, &n) in plan.nodes.iter().enumerate() {
        if plan.reread[i] {
            node_labels.push(
                g.node_label(n)
                    .and_then(|sym| relabel.map(g, &mut interner, sym)),
            );
            work += 1;
            let props = capture_props(&mut keys, &mut buf, |f| g.visit_node_properties(n, f));
            work += props.as_ref().map_or(0, |p| p.len() as u64);
            node_props.push(props.unwrap_or_else(empty_props));
        } else {
            let p = plan.orig[i] as usize;
            node_labels.push(prev.node_labels[p]);
            node_props.push(Arc::clone(&prev.node_props[p]));
        }
    }
    let mut label_index: FxHashMap<Symbol, Vec<u32>> = FxHashMap::default();
    for (i, label) in node_labels.iter().enumerate() {
        if let Some(sym) = label {
            label_index.entry(*sym).or_default().push(i as u32);
        }
    }
    let mut fz = FrozenGraph {
        directed: g.is_directed(),
        edge_count: g.edge_count(),
        epoch: next_epoch(),
        freeze_work: 0,
        nodes: std::mem::take(&mut plan.nodes),
        index: std::mem::take(&mut plan.index),
        fwd,
        rev,
        interner,
        keys,
        node_labels,
        node_props,
        edge_props: Arc::new(FxHashMap::default()),
        label_index,
        node_eq: FxHashMap::default(),
    };
    fz.node_eq = patch_node_eq(prev, &fz, &plan);

    // Edge properties: share the previous Arc per edge, retire stale
    // ids, re-capture the ids surfacing in re-read rows that the
    // previous snapshot does not cover (new edges, retired edges). An
    // unchanged edge riding along in a re-read row keeps its shared
    // Arc — its skip costs one hash probe, not a property visit.
    fz.edge_props = prev.edge_props.clone();
    if !plan.stale_edges.is_empty() {
        let ep = Arc::make_mut(&mut fz.edge_props);
        for raw in &plan.stale_edges {
            ep.remove(raw);
        }
    }
    let mut revisited: FxHashSet<u64> = FxHashSet::default();
    let (fwd, rev) = (&fz.fwd, &fz.rev);
    let reread = plan.reread.iter().enumerate().filter(|(_, &r)| r);
    let ids = reread.flat_map(|(i, _)| {
        let (out, inc) = (fwd.run(i as u32).edge_ids, rev.run(i as u32).edge_ids);
        out.iter().chain(inc).copied()
    });
    work += capture_edge_props(g, ids, &mut fz.keys, &mut fz.edge_props, |raw| {
        revisited.insert(raw)
    });

    fz.freeze_work = work.max(1);
    Some(fz)
}

/// The node-property equality index of `fz`, patched from `prev`'s:
/// the rows of removed, re-read and relocated nodes retire, and re-read
/// rows plus relocated nodes' rows at their new position are merged in.
/// Only those rows' values are hashed — old ones to find the rows that
/// retire, new ones to place the rows that enter — and a key none of
/// them carries keeps sharing the previous run. Like the label index
/// this is integer work and is not charged to `freeze_work`.
fn patch_node_eq(
    prev: &FrozenGraph,
    fz: &FrozenGraph,
    plan: &RebuildPlan,
) -> FxHashMap<Symbol, EqRun> {
    // Previous dense positions whose rows retire. `prev`'s key symbols
    // mean the same in `fz`, whose key interner extends `prev`'s.
    let mut retired = plan.removed.clone();
    let mut fresh: FxHashMap<Symbol, Vec<EqRow>> = FxHashMap::default();
    for (i, _) in plan.reread.iter().enumerate().filter(|(_, &r)| r) {
        push_eq_rows(&mut fresh, fz.node_props_dense(i as u32), i as u32);
        if plan.orig[i] != NEW_ROW {
            retired.push(plan.orig[i]);
        }
    }
    for (&p, &i) in &plan.moves {
        if !plan.reread[i as usize] {
            retired.push(p);
            push_eq_rows(&mut fresh, &prev.node_props[p as usize], i);
        }
    }
    let mut stale: FxHashMap<Symbol, Vec<EqRow>> = FxHashMap::default();
    for &p in &retired {
        for (key, value) in prev.node_props[p as usize].iter() {
            stale.entry(*key).or_default().push((eq_hash(value), p));
        }
    }
    let mut runs = prev.node_eq.clone();
    let mut patch = |key: Symbol, stale: &[EqRow], add: Vec<EqRow>| {
        let old = prev.node_eq.get(&key).map_or(&[][..], |run| run.as_slice());
        let run = patch_run(old, stale, add);
        if run.is_empty() {
            runs.remove(&key);
        } else {
            runs.insert(key, Arc::new(run));
        }
    };
    for (key, add) in fresh {
        let rows = stale.remove(&key).unwrap_or_default();
        patch(key, &rows, add);
    }
    for (key, rows) in stale {
        patch(key, &rows, Vec::new());
    }
    runs
}

/// One key's run with the `stale` rows taken out and the `add` rows
/// merged in by hash. Each stale row is found by a binary search on its
/// hash, and the rows between two changes are copied as one slice.
fn patch_run(old: &[EqRow], stale: &[EqRow], mut add: Vec<EqRow>) -> Vec<EqRow> {
    let mut dropped: Vec<usize> = stale
        .iter()
        .flat_map(|&(hash, p)| {
            let start = old.partition_point(|r| r.0 < hash);
            let same_hash = old[start..].iter().take_while(move |r| r.0 == hash);
            same_hash
                .enumerate()
                .filter(move |(_, r)| r.1 == p)
                .map(move |(k, _)| start + k)
        })
        .collect();
    dropped.sort_unstable();
    dropped.dedup();
    add.sort_unstable();
    let mut run = Vec::with_capacity(old.len() + add.len());
    let mut dropped = dropped.into_iter().peekable();
    let mut copied = 0;
    // Copies the kept rows of `old[copied..end]`.
    let mut copy_to = |end: usize, run: &mut Vec<EqRow>| {
        while let Some(d) = dropped.next_if(|&d| d < end) {
            run.extend_from_slice(&old[copied..d]);
            copied = d + 1;
        }
        run.extend_from_slice(&old[copied..end]);
        copied = end;
    };
    for row in add {
        copy_to(old.partition_point(|r| r.0 < row.0), &mut run);
        run.push(row);
    }
    copy_to(old.len(), &mut run);
    run
}

#[cfg(test)]
mod tests {
    use super::*;
    use gdm_core::{props, DeltaTracker, GraphView, Value};
    use gdm_graphs::PropertyGraph;

    /// Content-canonical form of a snapshot: node rows, edge rows and
    /// the node equality index, all independent of dense ordering.
    type Canon = (
        Vec<(u64, Option<String>, Vec<(String, Value)>)>,
        Vec<(u64, u64, u64, Option<String>, Vec<(String, Value)>)>,
        Vec<(String, u64, u64)>,
    );

    fn canon(fz: &FrozenGraph) -> Canon {
        let mut nodes = Vec::new();
        fz.visit_nodes(&mut |n| {
            let label = fz
                .node_label(n)
                .and_then(|s| fz.label_text(s))
                .map(str::to_owned);
            let mut props = Vec::new();
            fz.visit_node_properties(n, &mut |k, v| props.push((k.to_owned(), v.clone())));
            props.sort_by(|a, b| a.0.cmp(&b.0));
            nodes.push((n.raw(), label, props));
        });
        nodes.sort_by_key(|r| r.0);
        let mut edges = Vec::new();
        fz.visit_nodes(&mut |n| {
            fz.visit_out_edges(n, &mut |e| {
                let label = e.label.and_then(|s| fz.label_text(s)).map(str::to_owned);
                let mut props = Vec::new();
                fz.visit_edge_properties(e.id, &mut |k, v| props.push((k.to_owned(), v.clone())));
                props.sort_by(|a, b| a.0.cmp(&b.0));
                edges.push((e.id.raw(), e.from.raw(), e.to.raw(), label, props));
            });
        });
        edges.sort_by_key(|r| (r.0, r.1, r.2));
        let mut eq = Vec::new();
        for (key, run) in &fz.node_eq {
            for &(hash, dense) in run.iter() {
                eq.push((
                    fz.key_text(*key).to_owned(),
                    hash,
                    fz.nodes[dense as usize].raw(),
                ));
            }
        }
        eq.sort();
        (nodes, edges, eq)
    }

    fn base_graph() -> (PropertyGraph, Vec<NodeId>) {
        let mut g = PropertyGraph::new();
        let n: Vec<NodeId> = (0..200)
            .map(|i| g.add_node("person", props! { "age" => i }))
            .collect();
        for i in 0..n.len() {
            g.add_edge(
                n[i],
                n[(i + 1) % n.len()],
                "knows",
                props! { "w" => i as i64 },
            )
            .unwrap();
        }
        (g, n)
    }

    #[test]
    fn incremental_matches_full_after_mixed_batch() {
        let (mut g, n) = base_graph();
        let prev = FrozenGraph::freeze(&g);
        let mut t = DeltaTracker::new();
        t.reset(prev.epoch());

        // Add two nodes and edges touching them.
        let a = g.add_node("robot", props! { "age" => 999 });
        t.touch_node(a.raw());
        let b = g.add_node("person", props! {});
        t.touch_node(b.raw());
        let e1 = g.add_edge(a, n[3], "knows", props! { "w" => -1 }).unwrap();
        t.touch_node(a.raw());
        t.touch_node(n[3].raw());
        let _ = e1;
        g.add_edge(n[5], b, "likes", props! {}).unwrap();
        t.touch_node(n[5].raw());
        t.touch_node(b.raw());
        // Property updates.
        g.set_node_property(n[10], "age", Value::from(1000))
            .unwrap();
        t.touch_node(n[10].raw());
        let eids = g.edge_ids();
        g.set_edge_property(eids[7], "w", Value::from(7000))
            .unwrap();
        t.touch_edge_props(eids[7].raw());
        // Structural edge delete.
        g.remove_edge(eids[20]).unwrap();
        t.remove_edge(eids[20].raw());
        // Node delete (removes incident edges too).
        g.remove_node(n[50]).unwrap();
        t.remove_node(n[50].raw());

        let inc = incremental_refreeze(&g, &prev, t.peek());
        let full = FrozenGraph::freeze(&g);
        assert_eq!(canon(&inc), canon(&full));
        assert!(inc.epoch() > prev.epoch());
        assert!(
            inc.freeze_work() * 4 < full.freeze_work(),
            "incremental work {} should be far below full {}",
            inc.freeze_work(),
            full.freeze_work()
        );
        // Untouched slabs are shared, not copied.
        let shared = inc
            .fwd
            .slabs
            .iter()
            .zip(prev.fwd.slabs.iter())
            .filter(|(a, b)| Arc::ptr_eq(a, b))
            .count();
        assert!(shared > 0, "expected at least one Arc-shared slab");
    }

    #[test]
    fn new_keys_extend_the_shared_key_interner() {
        let (mut g, n) = base_graph();
        let prev = FrozenGraph::freeze(&g);
        let mut t = DeltaTracker::new();
        t.reset(prev.epoch());
        // A node key and an edge key the base snapshot never saw.
        g.set_node_property(n[3], "nick", Value::from("tre"))
            .unwrap();
        t.touch_node(n[3].raw());
        let e = g
            .add_edge(n[4], n[150], "knows", props! { "since" => 2020 })
            .unwrap();
        t.touch_node(n[4].raw());
        t.touch_node(n[150].raw());
        let inc = incremental_refreeze(&g, &prev, t.peek());
        assert_eq!(canon(&inc), canon(&FrozenGraph::freeze(&g)));
        assert_eq!(inc.keys.len(), prev.keys.len() + 2);

        let listed = |v: &FrozenGraph, n: NodeId| {
            let mut props = Vec::new();
            v.visit_node_properties(n, &mut |k, v| props.push((k.to_owned(), v.clone())));
            props
        };
        // A list the re-freeze shares with the base snapshot.
        let shared = (n[100], prev.dense_of(n[100]).unwrap());
        let now = inc.dense_of(shared.0).unwrap();
        assert!(Arc::ptr_eq(
            &inc.node_props[now as usize],
            &prev.node_props[shared.1 as usize]
        ));
        assert_eq!(inc.node_property(shared.0, "age"), Some(Value::from(100)));
        assert_eq!(
            listed(&inc, shared.0),
            vec![("age".into(), Value::from(100))]
        );
        assert_eq!(
            inc.candidates(Some("person"), &[("age".into(), Value::from(100))]),
            vec![shared.0]
        );
        // The list it re-read, which holds the new key.
        assert_eq!(inc.node_property(n[3], "nick"), Some(Value::from("tre")));
        assert_eq!(inc.node_property(n[3], "age"), Some(Value::from(3)));
        assert_eq!(
            listed(&inc, n[3]),
            vec![
                ("age".into(), Value::from(3)),
                ("nick".into(), Value::from("tre"))
            ]
        );
        assert_eq!(
            inc.candidates(None, &[("nick".into(), Value::from("tre"))]),
            vec![n[3]]
        );
        assert_eq!(prev.node_property(n[3], "nick"), None);
        // The new edge key.
        assert_eq!(inc.edge_property(e, "since"), Some(Value::from(2020)));
        assert_eq!(inc.label_symbol("nick"), None);
    }

    #[test]
    fn empty_delta_is_a_cheap_clone() {
        let (g, _) = base_graph();
        let prev = FrozenGraph::freeze(&g);
        let inc = incremental_refreeze(&g, &prev, &FreezeDelta::empty(prev.epoch()));
        assert_eq!(inc.epoch(), prev.epoch());
        assert_eq!(inc.freeze_work(), 1);
        assert_eq!(canon(&inc), canon(&prev));
    }

    #[test]
    fn full_or_mismatched_delta_falls_back() {
        let (mut g, n) = base_graph();
        let prev = FrozenGraph::freeze(&g);
        g.remove_node(n[0]).unwrap();
        // Full flag: rebuilds and still matches.
        let inc = incremental_refreeze(&g, &prev, &FreezeDelta::full(prev.epoch()));
        assert_eq!(canon(&inc), canon(&FrozenGraph::freeze(&g)));
        // Wrong base epoch: also rebuilds rather than mispatching.
        let mut stale = FreezeDelta::empty(prev.epoch() + 100);
        stale.dirty_nodes.insert(n[1].raw());
        let inc2 = incremental_refreeze(&g, &prev, &stale);
        assert_eq!(canon(&inc2), canon(&FrozenGraph::freeze(&g)));
    }

    #[test]
    fn unrecorded_deletion_is_detected() {
        let (mut g, n) = base_graph();
        let prev = FrozenGraph::freeze(&g);
        let mut t = DeltaTracker::new();
        t.reset(prev.epoch());
        // Delete a node but only record a property touch on it — the
        // planner must notice the id is gone and fall back.
        g.remove_node(n[7]).unwrap();
        t.touch_node(n[7].raw());
        let inc = incremental_refreeze(&g, &prev, t.peek());
        assert_eq!(canon(&inc), canon(&FrozenGraph::freeze(&g)));
    }
}
