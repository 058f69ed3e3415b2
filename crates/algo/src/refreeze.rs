//! Incremental re-freezing: patch a [`FrozenGraph`] in O(changes).
//!
//! A full [`FrozenGraph::freeze`] re-reads every node and edge of the
//! source — string property capture, label re-interning, index sorts,
//! the lot. When an engine has tracked *which* ids changed since the
//! previous snapshot (a [`FreezeDelta`] from
//! [`gdm_core::DeltaTracker`]), [`incremental_refreeze`] produces an
//! equivalent new snapshot while touching only the changed
//! neighbourhood:
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
//!   clean). The ordered edge-attribute index is patched — retire the
//!   rows of deleted/re-propertied edges, sort just the freshly
//!   captured rows, and merge them in place from the tail — rather
//!   than rebuilt or re-sorted.
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
//! observes (`tests/refreeze_equiv.rs` proves the equivalence by
//! property testing over random mutation batches).
//!
//! The function falls back to a full freeze whenever the delta is
//! unusable: `delta.full` (untracked mutation), a base-epoch mismatch
//! (the delta describes a different baseline), or an inconsistency
//! discovered mid-patch (an edge endpoint the delta never mentioned).
//! Falling back is always correct; the delta only ever buys speed.

use crate::frozen::{empty_props, next_epoch, Csr, CsrSlab, FrozenGraph, RangeRow, SLAB_NODES};
use gdm_core::{
    AttributedView, FreezeDelta, FxHashMap, FxHashSet, GraphView, Interner, NodeId, Symbol, Value,
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
    let mut work = delta.change_count() as u64;

    for &raw in &delta.removed_nodes {
        let Some(d) = index.remove(&raw) else {
            continue; // created and deleted within the batch
        };
        let prev_d = orig[d as usize];
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
    relabel: &mut FxHashMap<u32, Option<Symbol>>,
    work: &mut u64,
) -> Option<Csr> {
    let n_new = plan.nodes.len();
    let prev_n = prev_dir.n;
    let mut slabs = Vec::with_capacity(n_new.div_ceil(SLAB_NODES as usize));
    let mut lo = 0usize;
    while lo < n_new {
        let hi = (lo + SLAB_NODES as usize).min(n_new);
        let slab_idx = lo / SLAB_NODES as usize;
        let prev_hi = (lo + SLAB_NODES as usize).min(prev_n);
        let shareable = slab_idx < prev_dir.slabs.len()
            && prev_hi == hi
            && (lo..hi).all(|r| plan.orig[r] == r as u32 && !plan.reread[r] && !retarget[r]);
        if shareable {
            slabs.push(Arc::clone(&prev_dir.slabs[slab_idx]));
            lo = hi;
            continue;
        }
        let mut slab = CsrSlab {
            offsets: vec![0],
            ..CsrSlab::default()
        };
        let mut bad = false;
        for r in lo..hi {
            let row_start = slab.targets.len();
            if plan.reread[r] {
                let mut record = |e: gdm_core::EdgeRef| {
                    let Some(&dense) = plan.index.get(&e.to.raw()) else {
                        bad = true;
                        return;
                    };
                    slab.targets.push(dense);
                    slab.edge_ids.push(e.id);
                    let label = e.label.and_then(|sym| {
                        *relabel
                            .entry(sym.raw())
                            .or_insert_with(|| g.label_text(sym).map(|t| interner.intern(t)))
                    });
                    slab.labels.push(label);
                };
                if incoming {
                    g.visit_in_edges(plan.nodes[r], &mut record);
                } else {
                    g.visit_out_edges(plan.nodes[r], &mut record);
                }
                if bad {
                    return None;
                }
                *work += 1 + (slab.targets.len() - row_start) as u64;
            } else {
                let run = prev_dir.run(plan.orig[r]);
                for i in 0..run.targets.len() {
                    let t = run.targets[i];
                    slab.targets.push(plan.moves.get(&t).copied().unwrap_or(t));
                    slab.edge_ids.push(run.edge_ids[i]);
                    slab.labels.push(run.labels[i]);
                }
            }
            let len = u32::try_from(slab.targets.len()).expect("frozen graph u32 edge limit");
            slab.offsets.push(len);
        }
        slabs.push(Arc::new(slab));
        lo = hi;
    }
    Some(Csr { n: n_new, slabs })
}

/// The structural core shared by both re-freeze entry points: node
/// relocation, both CSR directions, and the epoch stamp. Attribute
/// columns start empty (structural-freeze shape) for the caller to
/// fill in.
fn refreeze_structural_core<G: GraphView + ?Sized>(
    g: &G,
    prev: &FrozenGraph,
    delta: &FreezeDelta,
) -> Option<(FrozenGraph, RebuildPlan)> {
    if delta.full || delta.base_epoch != prev.epoch {
        return None;
    }
    let mut plan = plan_rebuild(g, prev, delta)?;
    let mut interner = prev.interner.clone();
    let mut relabel: FxHashMap<u32, Option<Symbol>> = FxHashMap::default();
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
    plan.work = work;
    let n_new = plan.nodes.len();
    let fz = FrozenGraph {
        directed: g.is_directed(),
        edge_count: g.edge_count(),
        epoch: next_epoch(),
        freeze_work: work.max(1),
        nodes: plan.nodes.clone(),
        index: plan.index.clone(),
        fwd,
        rev,
        interner,
        node_labels: vec![None; n_new],
        node_props: vec![empty_props(); n_new],
        edge_props: Arc::new(FxHashMap::default()),
        label_index: FxHashMap::default(),
        edge_ranges: FxHashMap::default(),
    };
    Some((fz, plan))
}

/// Incremental counterpart of [`FrozenGraph::freeze`]: produces a
/// snapshot content-equivalent to `FrozenGraph::freeze(g)` by patching
/// `prev` with the changes `delta` records. Falls back to a full
/// freeze whenever the delta cannot be applied (see module docs).
pub fn incremental_refreeze_structural<G: GraphView + ?Sized>(
    g: &G,
    prev: &FrozenGraph,
    delta: &FreezeDelta,
) -> FrozenGraph {
    if delta.is_empty() && delta.base_epoch == prev.epoch {
        let mut fz = prev.clone();
        fz.freeze_work = 1;
        return fz;
    }
    match refreeze_structural_core(g, prev, delta) {
        Some((fz, _)) => fz,
        None => FrozenGraph::freeze(g),
    }
}

/// Incremental counterpart of [`FrozenGraph::freeze_attributed`]:
/// structural patch plus node label/property columns, the node label
/// index, `Arc`-shared edge properties, and a patched (not rebuilt)
/// ordered edge-attribute index. Content-equivalent to
/// `FrozenGraph::freeze_attributed(g)`; falls back to a full freeze
/// whenever the delta cannot be applied.
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
    let Some((mut fz, plan)) = refreeze_structural_core(g, prev, delta) else {
        return FrozenGraph::freeze_attributed(g);
    };
    let mut work = fz.freeze_work;

    // Node labels and properties: copy (Arc clone) clean rows from the
    // previous snapshot, re-capture re-read rows from the source.
    let mut label_cache: FxHashMap<u32, Option<Symbol>> = FxHashMap::default();
    for i in 0..fz.nodes.len() {
        if plan.reread[i] {
            let n = fz.nodes[i];
            fz.node_labels[i] = g.node_label(n).and_then(|sym| {
                *label_cache
                    .entry(sym.raw())
                    .or_insert_with(|| g.label_text(sym).map(|t| fz.interner.intern(t)))
            });
            let mut props = Vec::new();
            g.visit_node_properties(n, &mut |k, v| props.push((k.to_owned(), v.clone())));
            work += 1 + props.len() as u64;
            if !props.is_empty() {
                fz.node_props[i] = Arc::new(props);
            }
        } else {
            let p = plan.orig[i] as usize;
            fz.node_labels[i] = prev.node_labels[p];
            fz.node_props[i] = Arc::clone(&prev.node_props[p]);
        }
    }
    for (i, label) in fz.node_labels.iter().enumerate() {
        if let Some(sym) = label {
            fz.label_index.entry(*sym).or_default().push(i as u32);
        }
    }

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
    for (i, _) in plan.reread.iter().enumerate().filter(|(_, &r)| r) {
        for dir in [&fz.fwd, &fz.rev] {
            for &id in dir.run(i as u32).edge_ids {
                let raw = id.raw();
                if fz.edge_props.contains_key(&raw) || !revisited.insert(raw) {
                    continue;
                }
                let mut props = Vec::new();
                g.visit_edge_properties(id, &mut |k, v| props.push((k.to_owned(), v.clone())));
                work += 1 + props.len() as u64;
                if !props.is_empty() {
                    Arc::make_mut(&mut fz.edge_props).insert(raw, Arc::new(props));
                }
            }
        }
    }

    // Ordered edge-attribute index: clone, retire stale rows, remap
    // relocated endpoints, then collect the *freshly captured* edges'
    // occurrences per key (`revisited` — new edges plus retired ones
    // whose rows were just re-read; unchanged edges already have their
    // rows in the clone), sort only that appendix, and merge it into
    // the still-sorted survivors — a full re-sort of a touched key
    // would be O(E log E) for a single changed edge on a
    // fully-attributed graph, which is exactly the O(graph) cost this
    // path exists to avoid.
    fz.edge_ranges = prev.edge_ranges.clone();
    if !plan.stale_edges.is_empty() {
        for run in fz.edge_ranges.values_mut() {
            // Probe before make_mut: a run with no stale row keeps
            // sharing the previous snapshot's allocation.
            if run
                .iter()
                .any(|&(_, _, _, raw)| plan.stale_edges.contains(&raw))
            {
                Arc::make_mut(run).retain(|&(_, _, _, raw)| !plan.stale_edges.contains(&raw));
            }
        }
    }
    if !plan.moves.is_empty() {
        for run in fz.edge_ranges.values_mut() {
            if run
                .iter()
                .any(|row| plan.moves.contains_key(&row.1) || plan.moves.contains_key(&row.2))
            {
                for row in Arc::make_mut(run).iter_mut() {
                    row.1 = plan.moves.get(&row.1).copied().unwrap_or(row.1);
                    row.2 = plan.moves.get(&row.2).copied().unwrap_or(row.2);
                }
            }
        }
    }
    let mut appendix: FxHashMap<String, Vec<RangeRow>> = FxHashMap::default();
    let push_row = |appendix: &mut FxHashMap<String, Vec<RangeRow>>,
                    props: &[(String, Value)],
                    from: u32,
                    to: u32,
                    raw: u64| {
        for (k, v) in props {
            appendix
                .entry(k.clone())
                .or_default()
                .push((v.clone(), from, to, raw));
        }
    };
    for (i, _) in plan.reread.iter().enumerate().filter(|(_, &r)| r) {
        let i = i as u32;
        // This row's own forward occurrences of captured edges.
        let run = fz.fwd.run(i);
        for pos in 0..run.targets.len() {
            let raw = run.edge_ids[pos].raw();
            if !revisited.contains(&raw) {
                continue; // unchanged edge: its row survived the clone
            }
            if let Some(props) = fz.edge_props.get(&raw).cloned() {
                push_row(&mut appendix, &props, i, run.targets[pos], raw);
            }
        }
        // Forward occurrences of captured edges whose *source* row is
        // clean, reconstructed from this row's reverse run (a new or
        // re-propertied edge may surface only on its target's side).
        // Re-read counterparts add their own forward occurrences
        // themselves — skip them to avoid double rows.
        let rrun = fz.rev.run(i);
        for pos in 0..rrun.targets.len() {
            let c = rrun.targets[pos];
            if plan.reread[c as usize] {
                continue;
            }
            let raw = rrun.edge_ids[pos].raw();
            if !revisited.contains(&raw) {
                continue;
            }
            if let Some(props) = fz.edge_props.get(&raw).cloned() {
                push_row(&mut appendix, &props, c, i, raw);
            }
        }
    }
    for (key, mut add) in appendix {
        add.sort_by(|a, b| a.0.total_cmp(&b.0));
        let slot = fz.edge_ranges.entry(key).or_default();
        if slot.is_empty() {
            *slot = Arc::new(add);
            continue;
        }
        let run = Arc::make_mut(slot);
        // Survivors kept their order through retain/remap, so a merge
        // restores the key's sorted run. Merge *backwards in place*:
        // append the sorted addendum, then sift from the tail. The
        // loop stops the moment every appendix row is placed — the
        // untouched survivor prefix is already in position — so the
        // cost is O(changes + displaced survivors), not O(run).
        let old_len = run.len();
        run.append(&mut add);
        let mut i = old_len; // one past the last unplaced survivor
        let mut j = run.len(); // one past the last unplaced addendum row
        let mut k = run.len(); // one past the next write slot
        while i > 0 && j > old_len {
            if run[i - 1].0.total_cmp(&run[j - 1].0).is_gt() {
                run.swap(k - 1, i - 1);
                i -= 1;
            } else {
                run.swap(k - 1, j - 1);
                j -= 1;
            }
            k -= 1;
        }
        while j > old_len {
            run.swap(k - 1, j - 1);
            j -= 1;
            k -= 1;
        }
    }
    fz.edge_ranges.retain(|_, run| !run.is_empty());

    fz.freeze_work = work.max(1);
    fz
}

#[cfg(test)]
mod tests {
    use super::*;
    use gdm_core::{props, DeltaTracker, GraphView};
    use gdm_graphs::PropertyGraph;

    /// Content-canonical form of a snapshot: node rows, edge rows, and
    /// the ordered edge index, all independent of dense ordering.
    type Canon = (
        Vec<(u64, Option<String>, Vec<(String, Value)>)>,
        Vec<(u64, u64, u64, Option<String>, Vec<(String, Value)>)>,
        Vec<(String, u64, u64, u64, String)>,
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
        let mut ranges = Vec::new();
        for (key, run) in &fz.edge_ranges {
            for &(ref v, f, t, raw) in run.iter() {
                ranges.push((
                    key.clone(),
                    raw,
                    fz.nodes[f as usize].raw(),
                    fz.nodes[t as usize].raw(),
                    format!("{v:?}"),
                ));
            }
        }
        ranges.sort();
        (nodes, edges, ranges)
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
        let prev = FrozenGraph::freeze_attributed(&g);
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
        let full = FrozenGraph::freeze_attributed(&g);
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
    fn empty_delta_is_a_cheap_clone() {
        let (g, _) = base_graph();
        let prev = FrozenGraph::freeze_attributed(&g);
        let inc = incremental_refreeze(&g, &prev, &FreezeDelta::empty(prev.epoch()));
        assert_eq!(inc.epoch(), prev.epoch());
        assert_eq!(inc.freeze_work(), 1);
        assert_eq!(canon(&inc), canon(&prev));
    }

    #[test]
    fn full_or_mismatched_delta_falls_back() {
        let (mut g, n) = base_graph();
        let prev = FrozenGraph::freeze_attributed(&g);
        g.remove_node(n[0]).unwrap();
        // Full flag: rebuilds and still matches.
        let inc = incremental_refreeze(&g, &prev, &FreezeDelta::full(prev.epoch()));
        assert_eq!(canon(&inc), canon(&FrozenGraph::freeze_attributed(&g)));
        // Wrong base epoch: also rebuilds rather than mispatching.
        let mut stale = FreezeDelta::empty(prev.epoch() + 100);
        stale.dirty_nodes.insert(n[1].raw());
        let inc2 = incremental_refreeze(&g, &prev, &stale);
        assert_eq!(canon(&inc2), canon(&FrozenGraph::freeze_attributed(&g)));
    }

    #[test]
    fn structural_refreeze_matches_structural_freeze() {
        let (mut g, n) = base_graph();
        let prev = FrozenGraph::freeze(&g);
        let mut t = DeltaTracker::new();
        t.reset(prev.epoch());
        let a = g.add_node("x", props! {});
        t.touch_node(a.raw());
        g.add_edge(a, n[0], "z", props! {}).unwrap();
        t.touch_node(a.raw());
        t.touch_node(n[0].raw());
        g.remove_node(n[100]).unwrap();
        t.remove_node(n[100].raw());
        let inc = incremental_refreeze_structural(&g, &prev, t.peek());
        let full = FrozenGraph::freeze(&g);
        assert_eq!(canon(&inc), canon(&full));
        assert_eq!(inc.node_count(), full.node_count());
        assert_eq!(inc.edge_count(), full.edge_count());
    }

    #[test]
    fn unrecorded_deletion_is_detected() {
        let (mut g, n) = base_graph();
        let prev = FrozenGraph::freeze_attributed(&g);
        let mut t = DeltaTracker::new();
        t.reset(prev.epoch());
        // Delete a node but only record a property touch on it — the
        // planner must notice the id is gone and fall back.
        g.remove_node(n[7]).unwrap();
        t.touch_node(n[7].raw());
        let inc = incremental_refreeze(&g, &prev, t.peek());
        assert_eq!(canon(&inc), canon(&FrozenGraph::freeze_attributed(&g)));
    }
}
