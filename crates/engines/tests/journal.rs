//! The durable journal, pinned from outside the crate.
//!
//! `LogicalOp::encode` of one instance of each variant must equal the
//! bytes logs already on disk hold, so a log written by one build
//! replays under the next. And for every engine kind, a durable engine
//! given every facade write — the ones its profile allows and the ones
//! it refuses — journals exactly the accepted ones: after a crash,
//! replay applies one record per accepted write and rebuilds the graph
//! a plain engine holds after the same calls.

use std::collections::BTreeMap;
use std::fmt::Debug;

use gdm_algo::FrozenGraph;
use gdm_core::{props, AttributedView, EdgeId, GdmError, GraphView, NodeId, PropertyMap, Value};
use gdm_engines::{make_engine, Capability, DurableEngine, EngineKind, GraphEngine, LogicalOp};
use gdm_wal::{FaultFs, WalOptions};

#[test]
fn logical_op_bytes_are_pinned() {
    let cases: Vec<(LogicalOp, &[u8])> = vec![
        (
            LogicalOp::CreateNode {
                label: Some("person".into()),
                props: props! { "name" => "ada" },
            },
            &[
                1, 1, 6, 112, 101, 114, 115, 111, 110, 1, 4, 110, 97, 109, 101, 5, 97, 100, 97, 0,
                0,
            ],
        ),
        (
            LogicalOp::CreateEdge {
                from: NodeId(1),
                to: NodeId(300),
                label: None,
                props: props! { "since" => 2010 },
            },
            &[
                2, 1, 172, 2, 0, 1, 5, 115, 105, 110, 99, 101, 4, 192, 159, 104, 0, 0, 0, 0, 0, 1,
                128, 0, 0, 0, 0, 0, 7, 218,
            ],
        ),
        (
            LogicalOp::CreateHyperedge {
                label: "meeting".into(),
                targets: vec![NodeId(0), NodeId(1), NodeId(2)],
                props: PropertyMap::new(),
            },
            &[3, 7, 109, 101, 101, 116, 105, 110, 103, 3, 0, 1, 2, 0],
        ),
        (
            LogicalOp::CreateEdgeOnEdge {
                from: EdgeId(0),
                to: NodeId(2),
                label: "annotates".into(),
            },
            &[4, 0, 2, 9, 97, 110, 110, 111, 116, 97, 116, 101, 115],
        ),
        (
            LogicalOp::SetNodeAttr {
                node: NodeId(1),
                key: "age".into(),
                value: Value::Int(-3),
            },
            &[
                5, 1, 3, 97, 103, 101, 4, 63, 247, 255, 255, 255, 255, 255, 255, 1, 127, 255, 255,
                255, 255, 255, 255, 253,
            ],
        ),
        (
            LogicalOp::SetEdgeAttr {
                edge: EdgeId(0),
                key: "w".into(),
                value: Value::Float(2.5),
            },
            &[6, 0, 1, 119, 4, 192, 4, 0, 0, 0, 0, 0, 0, 0],
        ),
        (LogicalOp::DeleteNode { node: NodeId(3) }, &[7, 3]),
        (LogicalOp::DeleteEdge { edge: EdgeId(129) }, &[8, 129, 1]),
        (
            LogicalOp::Ddl {
                statement: "CREATE NODE 'v'".into(),
            },
            &[
                9, 15, 67, 82, 69, 65, 84, 69, 32, 78, 79, 68, 69, 32, 39, 118, 39,
            ],
        ),
        (
            LogicalOp::Dml {
                statement: "ADD <a> <r> <b>".into(),
            },
            &[
                10, 15, 65, 68, 68, 32, 60, 97, 62, 32, 60, 114, 62, 32, 60, 98, 62,
            ],
        ),
        (
            LogicalOp::CreateIndex {
                property: "name".into(),
            },
            &[11, 4, 110, 97, 109, 101],
        ),
    ];
    for (op, bytes) in cases {
        assert_eq!(op.encode(), bytes, "{op:?}");
        assert_eq!(LogicalOp::decode(bytes).unwrap(), op);
    }
}

/// Counts the writes an engine accepts and checks each answer against
/// the engine's profile.
struct Tally {
    kind: EngineKind,
    accepted: usize,
}

impl Tally {
    /// A write every engine has: it must succeed.
    fn ok<T: Debug>(&mut self, outcome: Result<T, GdmError>) -> T {
        let value = outcome.unwrap_or_else(|err| panic!("{:?}: {err}", self.kind));
        self.accepted += 1;
        value
    }

    /// A write behind `capability`: accepted exactly when the profile
    /// allows it, refused with the profile's text otherwise.
    fn check<T: Debug>(&mut self, capability: Capability, outcome: Result<T, GdmError>) {
        match (self.kind.profile().refusal(capability), outcome) {
            (None, Ok(_)) => self.accepted += 1,
            (Some(text), Err(GdmError::Unsupported { feature, .. })) => assert_eq!(feature, text),
            (verdict, outcome) => panic!(
                "{:?} {capability:?}: profile says {verdict:?}, engine answered {outcome:?}",
                self.kind
            ),
        }
    }
}

/// A statement in the engine's own DDL and DML dialect, where it has
/// them (refused engines never parse theirs).
fn statements(kind: EngineKind) -> (&'static str, &'static str) {
    match kind {
        EngineKind::Allegro => ("DEFINE PREDICATE <knows>", "ADD <x> <knows> <y>"),
        EngineKind::GStore => ("CREATE NODE 'v'", "PROBE DML"),
        EngineKind::Sones => (
            "CREATE VERTEX TYPE City ATTRIBUTES (String name)",
            "INSERT INTO City VALUES (name = 'oslo')",
        ),
        _ => ("PROBE DDL", "PROBE DML"),
    }
}

/// Every facade write, shaped to what `kind`'s profile allows, plus
/// the refused variants; returns how many were accepted.
fn writes(e: &mut dyn GraphEngine, kind: EngineKind) -> usize {
    use Capability as C;
    let allows = |c| kind.profile().refusal(c).is_none();
    let node_label = allows(C::NodeLabels).then_some("person");
    let edge_label = allows(C::EdgeLabels).then_some("knows");
    let named = |name: &str| match allows(C::NodeProperties) {
        true => props! { "name" => name },
        false => PropertyMap::new(),
    };
    let mut t = Tally { kind, accepted: 0 };

    let a = t.ok(e.create_node(node_label, named("ada")));
    let b = t.ok(e.create_node(node_label, named("bob")));
    let c = t.ok(e.create_node(node_label, named("cy")));
    let gone = t.ok(e.create_node(node_label, PropertyMap::new()));
    let ab = t.ok(e.create_edge(a, b, edge_label, PropertyMap::new()));
    let bc = t.ok(e.create_edge(b, c, edge_label, PropertyMap::new()));
    t.ok(e.create_edge(c, gone, edge_label, PropertyMap::new()));
    t.ok(e.create_edge(gone, a, edge_label, PropertyMap::new()));

    t.check(
        C::NodeLabels,
        e.create_node(Some("city"), PropertyMap::new()),
    );
    t.check(
        C::NodeProperties,
        e.create_node(node_label, props! { "name" => "dee", "age" => 7 }),
    );
    t.check(
        C::EdgeLabels,
        e.create_edge(c, a, Some("likes"), PropertyMap::new()),
    );
    t.check(
        C::EdgeProperties,
        e.create_edge(a, c, edge_label, props! { "since" => 2010 }),
    );
    t.check(
        C::Hyperedges,
        e.create_hyperedge("meeting", &[a, b, c], props! { "room" => 4 }),
    );
    t.check(C::EdgesOnEdges, e.create_edge_on_edge(ab, c, "about"));
    t.check(
        C::SetNodeAttribute,
        e.set_node_attribute(a, "age", Value::Int(36)),
    );
    t.check(
        C::SetEdgeAttribute,
        e.set_edge_attribute(ab, "w", Value::Float(0.5)),
    );
    t.check(C::Indexes, e.create_index("name"));
    t.check(
        C::SetNodeAttribute,
        e.set_node_attribute(b, "name", Value::from("bo")),
    );
    if kind == EngineKind::Allegro {
        // AllegroGraph deletes statements by (s, p, o), through its DML.
        assert!(e.delete_edge(bc).is_err());
    } else {
        t.ok(e.delete_edge(bc));
    }
    t.ok(e.delete_node(gone));
    let (ddl, dml) = statements(kind);
    t.check(C::Ddl, e.execute_ddl(ddl));
    t.check(C::Dml, e.execute_dml(dml));
    t.check(C::NestedGraphs, e.nest_subgraph(a));
    t.accepted
}

#[test]
fn replay_applies_one_record_per_accepted_write() {
    let root = std::env::temp_dir().join(format!("gdm-journal-{}", std::process::id()));
    for kind in EngineKind::all() {
        let dir = root.join(kind.label());
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(dir.join("plain")).unwrap();

        let mut plain = make_engine(kind, &dir.join("plain")).unwrap();
        let expected = writes(plain.as_mut(), kind);

        let fs = FaultFs::new();
        let opts = WalOptions::default();
        let state = dir.join("state");
        let (mut durable, _) = DurableEngine::open(kind, &state, fs.clone(), opts).unwrap();
        assert_eq!(writes(&mut durable, kind), expected, "{kind:?}");
        drop(durable);
        fs.crash();

        let (reopened, report) = DurableEngine::open(kind, &state, fs, opts).unwrap();
        assert_eq!(report.records_applied, expected, "{kind:?}");
        assert_eq!(
            (reopened.node_count(), reopened.edge_count()),
            (plain.node_count(), plain.edge_count()),
            "{kind:?}"
        );
        assert_eq!(
            canon(&reopened.snapshot().unwrap()),
            canon(&plain.snapshot().unwrap()),
            "{kind:?}"
        );
        drop((plain, reopened));
        let _ = std::fs::remove_dir_all(&dir);
    }
    let _ = std::fs::remove_dir_all(&root);
}

/// One equality-index probe and its answers: label, key, value (its
/// `Debug` form), the candidate ids and the candidate estimate.
type Probe = (Option<String>, String, String, Vec<u64>, Option<usize>);

/// Content-canonical form of a snapshot, as `refreeze_equiv.rs` builds
/// it: labelled/propertied node rows, edge rows, and the equality
/// index's answers for every (label, key, value) present.
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
