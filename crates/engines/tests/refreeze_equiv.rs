//! Incremental re-freeze equivalence across every engine emulation.
//!
//! For each of the nine engines: build a base graph through the typed
//! facade, take a full snapshot, apply a random mutation batch, then
//! check that [`GraphEngine::refreeze`] (which consumes the engine's
//! recorded [`gdm_core::DeltaTracker`] delta) produces a snapshot whose
//! *content* is identical to a from-scratch full freeze of the live
//! graph. Ops an engine refuses (`Unsupported`, constraint errors,
//! stale ids after cascading deletes) are skipped — whatever the engine
//! *did* accept must be reflected in the incremental snapshot — and a
//! second property checks the refusals themselves: an op that returns
//! `Err` must leave counts, snapshot content and the recorded delta
//! exactly as they were.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};

use gdm_algo::FrozenGraph;
use gdm_core::{props, AttributedView, EdgeId, GraphView, NodeId, PropertyMap, Result, Value};
use gdm_engines::{all_engines, GraphEngine};
use gdm_schema::{Constraint, EdgeTypeDef, NodeTypeDef, PropertyType, Schema, ValueType};
use proptest::prelude::*;

/// One abstract mutation; selectors index the live id lists modulo
/// their length so every generated op is applicable to every engine.
#[derive(Debug, Clone)]
enum Op {
    AddNode(u8, i64),
    AddEdge(usize, usize),
    SetNodeAttr(usize, i64),
    SetEdgeAttr(usize, i64),
    DelNode(usize),
    DelEdge(usize),
    /// Makes `age` the identity of one label's nodes, where the engine
    /// has identity constraints; later `age` writes can then collide.
    InstallIdentity(u8),
    /// Declares `rank` an integer on every label, where the engine has
    /// type checking.
    InstallTypes,
    /// Writes `rank` — a key no node starts with — as an integer or,
    /// when the flag is set, as a string the installed types reject.
    SetNodeRank(usize, bool),
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0u8..3, 0i64..100).prop_map(|(l, v)| Op::AddNode(l, v)),
        (0usize..64, 0usize..64).prop_map(|(a, b)| Op::AddEdge(a, b)),
        // Ages come from a small range so that, once an identity
        // constraint is in, sets and creates collide often.
        (0usize..64, 0i64..32).prop_map(|(s, v)| Op::SetNodeAttr(s, v)),
        (0usize..64, 0i64..100).prop_map(|(s, v)| Op::SetEdgeAttr(s, v)),
        (0usize..64).prop_map(Op::DelNode),
        (0usize..64).prop_map(Op::DelEdge),
        (0u8..3).prop_map(Op::InstallIdentity),
        Just(Op::InstallTypes),
        (0usize..64, 0u8..2).prop_map(|(s, bad)| Op::SetNodeRank(s, bad == 1)),
    ]
}

/// The schema [`Op::InstallTypes`] installs: everything the generator
/// creates is declared, so only a string `rank` violates it.
fn rank_schema() -> Schema {
    let mut schema = Schema::new();
    for label in LABELS {
        schema
            .add_node_type(
                NodeTypeDef::new(label)
                    .with(PropertyType::optional("age", ValueType::Int))
                    .with(PropertyType::optional("rank", ValueType::Int)),
            )
            .unwrap();
    }
    schema.add_edge_type(EdgeTypeDef::new("knows")).unwrap();
    schema
}

const LABELS: [&str; 3] = ["person", "place", "thing"];

/// Runs one facade call. With a `baseline` (the snapshot the caller
/// keeps current), a call that returns `Err` — Unsupported, Constraint,
/// NotFound — must have changed nothing: same counts, same snapshot
/// content, and an incremental re-freeze that agrees with a full one.
fn attempt<T>(
    engine: &mut Box<dyn GraphEngine>,
    baseline: &mut Option<FrozenGraph>,
    call: impl FnOnce(&mut dyn GraphEngine) -> Result<T>,
) -> Result<T> {
    let Some(prev) = baseline else {
        return call(engine.as_mut());
    };
    *prev = engine.refreeze(prev).unwrap();
    let counts = (engine.node_count(), engine.edge_count());
    let out = call(engine.as_mut());
    if out.is_err() {
        let name = engine.name();
        assert_eq!(
            (engine.node_count(), engine.edge_count()),
            counts,
            "{name}: a refused op changed the counts"
        );
        let inc = engine.refreeze(prev).unwrap();
        let full = engine.snapshot().unwrap();
        assert_eq!(
            canon(&inc),
            canon(&full),
            "{name}: re-freeze diverged from a full freeze after a refusal"
        );
        assert_eq!(
            canon(&full),
            canon(prev),
            "{name}: a refused op left a trace in the graph"
        );
        *prev = full;
    }
    out
}

/// Applies `ops`, maintaining the live node/edge id lists. Errors are
/// skipped; with a `baseline` each one is first checked by [`attempt`].
fn apply(
    engine: &mut Box<dyn GraphEngine>,
    ops: &[Op],
    nodes: &mut Vec<NodeId>,
    edges: &mut Vec<EdgeId>,
    baseline: &mut Option<FrozenGraph>,
) {
    for op in ops {
        match *op {
            Op::AddNode(l, v) => {
                let label = LABELS[l as usize % LABELS.len()];
                // Degrade towards the engine's capabilities: G-Store
                // refuses attributes, AllegroGraph refuses labels too.
                let made = attempt(engine, baseline, |e| {
                    e.create_node(Some(label), props! { "age" => v })
                })
                .or_else(|_| {
                    attempt(engine, baseline, |e| {
                        e.create_node(Some(label), PropertyMap::new())
                    })
                })
                .or_else(|_| {
                    attempt(engine, baseline, |e| {
                        e.create_node(None, PropertyMap::new())
                    })
                });
                if let Ok(id) = made {
                    nodes.push(id);
                }
            }
            Op::AddEdge(a, b) => {
                if nodes.is_empty() {
                    continue;
                }
                let from = nodes[a % nodes.len()];
                let to = nodes[b % nodes.len()];
                let made = attempt(engine, baseline, |e| {
                    e.create_edge(from, to, Some("knows"), props! { "w" => 1i64 })
                })
                .or_else(|_| {
                    attempt(engine, baseline, |e| {
                        e.create_edge(from, to, Some("knows"), PropertyMap::new())
                    })
                });
                if let Ok(id) = made {
                    edges.push(id);
                }
            }
            Op::SetNodeAttr(s, v) => {
                if nodes.is_empty() {
                    continue;
                }
                let n = nodes[s % nodes.len()];
                let _ = attempt(engine, baseline, |e| {
                    e.set_node_attribute(n, "age", Value::from(v))
                });
            }
            Op::SetEdgeAttr(s, v) => {
                if edges.is_empty() {
                    continue;
                }
                let id = edges[s % edges.len()];
                let _ = attempt(engine, baseline, |e| {
                    e.set_edge_attribute(id, "w", Value::from(v))
                });
            }
            Op::DelNode(s) => {
                if nodes.is_empty() {
                    continue;
                }
                let i = s % nodes.len();
                if attempt(engine, baseline, |e| e.delete_node(nodes[i])).is_ok() {
                    nodes.swap_remove(i);
                }
            }
            Op::DelEdge(s) => {
                if edges.is_empty() {
                    continue;
                }
                let i = s % edges.len();
                if attempt(engine, baseline, |e| e.delete_edge(edges[i])).is_ok() {
                    edges.swap_remove(i);
                }
            }
            Op::InstallTypes => {
                let _ = attempt(engine, baseline, |e| {
                    e.install_constraint(Constraint::TypeChecking(rank_schema()))
                });
            }
            Op::SetNodeRank(s, bad) => {
                if nodes.is_empty() {
                    continue;
                }
                let n = nodes[s % nodes.len()];
                let rank = if bad {
                    Value::from("high")
                } else {
                    Value::from(1i64)
                };
                let _ = attempt(engine, baseline, |e| e.set_node_attribute(n, "rank", rank));
            }
            Op::InstallIdentity(l) => {
                let _ = attempt(engine, baseline, |e| {
                    e.install_constraint(Constraint::Identity {
                        type_name: LABELS[l as usize % LABELS.len()].into(),
                        property: "age".into(),
                    })
                });
            }
        }
    }
}

/// One equality-index probe and its answers: label, key, value (its
/// `Debug` form), the candidate ids and the candidate estimate.
type Probe = (Option<String>, String, String, Vec<u64>, Option<usize>);

/// Content-canonical form of a snapshot: labelled/propertied node rows,
/// edge rows, and the equality index's answers for every (label, key,
/// value) present — with and without the label — independent of dense
/// row ordering.
type Canon = (
    Vec<(u64, Option<String>, Vec<(String, String)>)>,
    Vec<(u64, u64, u64, Option<String>, Vec<(String, String)>)>,
    Vec<Probe>,
);

fn canon(fz: &FrozenGraph) -> Canon {
    let mut nodes = Vec::new();
    fz.visit_nodes(&mut |n| {
        let label = fz
            .node_label(n)
            .and_then(|s| fz.label_text(s))
            .map(str::to_owned);
        let mut ps = Vec::new();
        fz.visit_node_properties(n, &mut |k, v| ps.push((k.to_owned(), format!("{v:?}"))));
        ps.sort();
        nodes.push((n.raw(), label, ps));
    });
    nodes.sort();
    let mut edges = Vec::new();
    fz.visit_nodes(&mut |n| {
        fz.visit_out_edges(n, &mut |e| {
            let label = e.label.and_then(|s| fz.label_text(s)).map(str::to_owned);
            let mut ps = Vec::new();
            fz.visit_edge_properties(e.id, &mut |k, v| ps.push((k.to_owned(), format!("{v:?}"))));
            ps.sort();
            edges.push((e.id.raw(), e.from.raw(), e.to.raw(), label, ps));
        });
    });
    edges.sort();
    // Every (label, key, value) some node carries, and each (key,
    // value) without the label.
    let mut present = BTreeMap::new();
    fz.visit_nodes(&mut |n| {
        let label = fz
            .node_label(n)
            .and_then(|s| fz.label_text(s))
            .map(str::to_owned);
        fz.visit_node_properties(n, &mut |k, v| {
            for label in [None, label.clone()] {
                present.insert((label, k.to_owned(), format!("{v:?}")), v.clone());
            }
        });
    });
    let index = present
        .into_iter()
        .map(|((label, key, shown), value)| {
            let props = [(key.clone(), value)];
            let ids = fz.candidates(label.as_deref(), &props);
            let estimate = fz.candidate_estimate(label.as_deref(), &props);
            let ids = ids.into_iter().map(NodeId::raw).collect();
            (label, key, shown, ids, estimate)
        })
        .collect();
    (nodes, edges, index)
}

/// A deterministic seed batch so the base snapshot is non-trivial.
fn seed_ops() -> Vec<Op> {
    let mut ops = Vec::new();
    for i in 0..24i64 {
        ops.push(Op::AddNode((i % 3) as u8, i));
    }
    // Seed ages are distinct and every seed label is declared, so the
    // engines that have these constraints accept them.
    ops.push(Op::InstallIdentity(0));
    ops.push(Op::InstallTypes);
    for i in 0..32usize {
        ops.push(Op::AddEdge(i, (i * 7 + 3) % 24));
    }
    ops
}

static CASE: AtomicUsize = AtomicUsize::new(0);

fn fresh_dir() -> std::path::PathBuf {
    let n = CASE.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!("gdm-refreeze-{}-{n}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// refreeze ≡ full freeze on every engine, for arbitrary accepted
    /// mutation batches between the two snapshots.
    #[test]
    fn incremental_refreeze_matches_full_freeze(batch in prop::collection::vec(op_strategy(), 1..40)) {
        let dir = fresh_dir();
        for mut engine in all_engines(&dir).unwrap() {
            let mut nodes = Vec::new();
            let mut edges = Vec::new();
            apply(&mut engine, &seed_ops(), &mut nodes, &mut edges, &mut None);
            let prev = engine.snapshot().unwrap();

            apply(&mut engine, &batch, &mut nodes, &mut edges, &mut None);
            let inc = engine.refreeze(&prev).unwrap();
            let full = engine.snapshot().unwrap();

            prop_assert_eq!(
                canon(&inc),
                canon(&full),
                "{}: incremental snapshot diverged from full freeze",
                engine.name()
            );
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// An op that returns `Err` is a no-op on every engine: checked
    /// after each refusal of the batch (see [`attempt`]), with the
    /// identity constraint of the seed making `age` writes collide.
    #[test]
    fn refused_ops_leave_no_trace(batch in prop::collection::vec(op_strategy(), 1..40)) {
        let dir = fresh_dir();
        for mut engine in all_engines(&dir).unwrap() {
            let mut nodes = Vec::new();
            let mut edges = Vec::new();
            apply(&mut engine, &seed_ops(), &mut nodes, &mut edges, &mut None);
            let mut baseline = Some(engine.snapshot().unwrap());
            apply(&mut engine, &batch, &mut nodes, &mut edges, &mut baseline);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// The empty-delta fast path: re-freezing with no interleaved mutations
/// keeps the previous epoch (the snapshot is still exact) on every
/// engine.
#[test]
fn refreeze_without_mutations_keeps_epoch() {
    let dir = fresh_dir();
    for mut engine in all_engines(&dir).unwrap() {
        let mut nodes = Vec::new();
        let mut edges = Vec::new();
        apply(&mut engine, &seed_ops(), &mut nodes, &mut edges, &mut None);
        let prev = engine.snapshot().unwrap();
        let again = engine.refreeze(&prev).unwrap();
        assert_eq!(
            prev.epoch(),
            again.epoch(),
            "{}: unchanged graph must keep its snapshot epoch",
            engine.name()
        );
        assert_eq!(canon(&prev), canon(&again), "{}", engine.name());
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Mutations after a re-freeze advance the epoch: the refreshed
/// snapshot must expose the new data.
#[test]
fn refreeze_exposes_new_data_with_higher_epoch() {
    let dir = fresh_dir();
    for mut engine in all_engines(&dir).unwrap() {
        let mut nodes = Vec::new();
        let mut edges = Vec::new();
        apply(&mut engine, &seed_ops(), &mut nodes, &mut edges, &mut None);
        let prev = engine.snapshot().unwrap();
        let before = nodes.len();
        // Connect the new node (index 24: the seed made exactly 24) so
        // incidence-derived views — RDF counts only terms that appear
        // in triples — see it too.
        apply(
            &mut engine,
            &[Op::AddNode(0, 7), Op::AddEdge(24, 0)],
            &mut nodes,
            &mut edges,
            &mut None,
        );
        assert!(nodes.len() > before, "{}: seed node refused", engine.name());
        let next = engine.refreeze(&prev).unwrap();
        assert!(
            next.epoch() > prev.epoch(),
            "{}: mutated graph must advance the snapshot epoch",
            engine.name()
        );
        assert_eq!(
            next.len(),
            prev.len() + 1,
            "{}: refreshed snapshot must contain the new node",
            engine.name()
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}
