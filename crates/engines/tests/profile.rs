//! The profile is the engine: for each of the nine emulations, every
//! capability its [`gdm_engines::Profile`] marks refused answers
//! `Unsupported` carrying that engine's name and that refusal text, and
//! every capability it marks supported does not — in plain and in
//! durable mode. Plus the regression tests of the two bugs the nine
//! hand-written copies had drifted into.

use gdm_algo::pattern::Pattern;
use gdm_algo::summary::Aggregate;
use gdm_core::{props, AttributedView, EdgeId, GdmError, NodeId, PropertyMap, Value};
use gdm_engines::{
    make_engine, AnalysisFunc, Capability, DurableEngine, EngineKind, GraphEngine, Profile,
    SummaryFunc,
};
use gdm_schema::{
    Constraint, EdgeTypeDef, NodeTypeDef, PatternKind, PropertyType, Schema, ValueType,
};
use gdm_wal::{FaultFs, WalOptions};

fn temp_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("gdm-profile-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Two nodes and an edge, shaped to what the profile allows.
fn probe_graph(e: &mut dyn GraphEngine, profile: &Profile) -> (NodeId, NodeId, EdgeId) {
    let node_label = node_label(profile);
    let a = e.create_node(node_label, PropertyMap::new()).unwrap();
    let b = e.create_node(node_label, PropertyMap::new()).unwrap();
    let edge = e
        .create_edge(a, b, edge_label(profile), PropertyMap::new())
        .unwrap();
    (a, b, edge)
}

fn node_label(profile: &Profile) -> Option<&'static str> {
    profile
        .refusal(Capability::NodeLabels)
        .is_none()
        .then_some("probe_t")
}

fn edge_label(profile: &Profile) -> Option<&'static str> {
    profile
        .refusal(Capability::EdgeLabels)
        .is_none()
        .then_some("probe_r")
}

/// Runs the facade call behind `capability`; only the error matters.
fn probe(
    e: &mut dyn GraphEngine,
    profile: &Profile,
    capability: Capability,
) -> Result<(), GdmError> {
    let (a, b, edge) = probe_graph(e, profile);
    let schema = || {
        let mut s = Schema::new();
        s.add_node_type(
            NodeTypeDef::new("probe_t").with(PropertyType::optional("probe_x", ValueType::Int)),
        )
        .unwrap();
        s
    };
    match capability {
        Capability::NodeLabels => e.create_node(Some("probe_u"), PropertyMap::new()).map(drop),
        Capability::NodeProperties => e
            .create_node(node_label(profile), props! { "probe_x" => 1 })
            .map(drop),
        Capability::EdgeLabels => e
            .create_edge(a, b, Some("probe_s"), PropertyMap::new())
            .map(drop),
        Capability::EdgeProperties => e
            .create_edge(a, b, edge_label(profile), props! { "probe_w" => 1 })
            .map(drop),
        Capability::Hyperedges => e
            .create_hyperedge("probe_h", &[a, b], PropertyMap::new())
            .map(drop),
        Capability::EdgesOnEdges => e.create_edge_on_edge(edge, a, "probe_on").map(drop),
        Capability::NestedGraphs => e.nest_subgraph(a),
        Capability::SetNodeAttribute => e.set_node_attribute(a, "probe_x", Value::from(1)),
        Capability::SetEdgeAttribute => e.set_edge_attribute(edge, "probe_w", Value::from(1)),
        Capability::ReadNodeAttribute => e.node_attribute(a, "probe_x").map(drop),
        Capability::NodeTypes => e.define_node_type(NodeTypeDef::new("probe_type")),
        Capability::EdgeTypes => e.define_edge_type(EdgeTypeDef::new("probe_rel")),
        Capability::TypeChecking => e.install_constraint(Constraint::TypeChecking(schema())),
        Capability::Identity => e.install_constraint(Constraint::Identity {
            type_name: "probe_t".into(),
            property: "probe_x".into(),
        }),
        Capability::ReferentialIntegrity => e.install_constraint(Constraint::ReferentialIntegrity),
        Capability::Cardinality => e.install_constraint(Constraint::Cardinality(schema())),
        Capability::FunctionalDependency => {
            e.install_constraint(Constraint::FunctionalDependency {
                type_name: "probe_t".into(),
                determinant: "probe_x".into(),
                dependent: "probe_y".into(),
            })
        }
        Capability::PatternConstraints => e.install_constraint(Constraint::GraphPattern {
            name: "probe".into(),
            pattern: Pattern::new(),
            kind: PatternKind::Required,
        }),
        Capability::Ddl => e.execute_ddl("PROBE DDL"),
        Capability::Dml => e.execute_dml("PROBE DML"),
        Capability::QueryLanguage => e.execute_query("PROBE QUERY").map(drop),
        Capability::Explain => e.explain("PROBE QUERY").map(drop),
        Capability::Reasoning => e
            .reason("probe_q(X, Y) :- probe_r(X, Y).", "probe_q(X, Y)")
            .map(drop),
        Capability::Analysis => e.analyze(AnalysisFunc::ConnectedComponents).map(drop),
        Capability::KNeighborhood => e.k_neighborhood(a, 2).map(drop),
        Capability::FixedLengthPaths => e.fixed_length_paths(a, b, 1).map(drop),
        Capability::RegularPaths => e.regular_path(a, b, "probe_r").map(drop),
        Capability::ShortestPath => e.shortest_path(a, b).map(drop),
        Capability::PatternMatching => e.pattern_match(&Pattern::new()).map(drop),
        Capability::PropertyAggregation => e
            .summarize(SummaryFunc::PropertyAggregate(Aggregate::Count, "probe_x"))
            .map(drop),
        Capability::Transactions => {
            // All three calls share the capability.
            let begin = e.begin_transaction();
            let rollback = e.rollback_transaction();
            assert_eq!(begin.is_ok(), rollback.is_ok(), "{}", e.name());
            let commit = e.commit_transaction();
            assert_eq!(
                begin.as_ref().is_err_and(GdmError::is_unsupported),
                commit.is_err_and(|err| err.is_unsupported()),
                "{}",
                e.name()
            );
            begin
        }
        Capability::Persistence => e.persist(),
        Capability::Indexes => e.create_index("probe_x"),
        Capability::PropertyLookup => e.lookup_by_property("probe_x", &Value::from(1)).map(drop),
    }
}

/// Typed schema DDL: the calls the durable journal cannot encode.
fn is_typed_schema_ddl(capability: Capability) -> bool {
    matches!(capability, Capability::NodeTypes | Capability::EdgeTypes)
        || Capability::CONSTRAINTS.contains(&capability)
}

/// Each engine twice, plain and durable over an in-memory journal.
/// Durable mode answers as its profile says, with two documented
/// exceptions: typed schema DDL is refused as `NotJournalable` before
/// the engine is asked, and `persist` succeeds even where the profile
/// refuses persistence, because the journal is the persistence.
#[test]
fn every_engine_refuses_exactly_what_its_profile_says() {
    for kind in EngineKind::all() {
        let profile = kind.profile();
        let name = profile.descriptor.name;
        for durable in [false, true] {
            for &capability in Capability::ALL {
                let dir = temp_dir(&format!("{name}-{capability:?}-{durable}"));
                let mut engine: Box<dyn GraphEngine> = if durable {
                    let opts = WalOptions::default();
                    Box::new(
                        DurableEngine::open(kind, &dir, FaultFs::new(), opts)
                            .unwrap()
                            .0,
                    )
                } else {
                    make_engine(kind, &dir).unwrap()
                };
                assert_eq!(engine.name(), name);
                let outcome = probe(engine.as_mut(), profile, capability);
                let case = format!("{name} (durable: {durable}): {capability:?}");
                match (profile.refusal(capability), outcome) {
                    (_, outcome) if durable && is_typed_schema_ddl(capability) => {
                        assert!(
                            matches!(&outcome, Err(err) if err.is_not_journalable()),
                            "{case} cannot be journaled but answered {outcome:?}"
                        );
                    }
                    (Some(_), Ok(())) if durable && capability == Capability::Persistence => {}
                    (Some(text), Err(GdmError::Unsupported { engine, feature })) => {
                        assert_eq!((engine, feature.as_str()), (name, text), "{case}");
                    }
                    (Some(text), other) => {
                        panic!("{case} is refused ({text}) but answered {other:?}")
                    }
                    (None, Err(err)) if err.is_unsupported() => {
                        panic!("{case} is supported but answered {err}")
                    }
                    (None, _) => {}
                }
                drop(engine);
                let _ = std::fs::remove_dir_all(&dir);
            }
        }
    }
}

/// A constraint-rejected first write of a key is undone: the key is
/// absent again (InfiniteGraph kept the violating value, DEX left
/// `Null`), and the secondary index on it stays empty.
#[test]
fn rejected_first_write_of_a_key_is_undone() {
    for kind in [EngineKind::InfiniteGraph, EngineKind::Dex] {
        let dir = temp_dir(&format!("undo-{kind:?}"));
        let mut e = make_engine(kind, &dir).unwrap();
        let mut schema = Schema::new();
        schema
            .add_node_type(
                NodeTypeDef::new("person").with(PropertyType::optional("age", ValueType::Int)),
            )
            .unwrap();
        e.install_constraint(Constraint::TypeChecking(schema))
            .unwrap();
        let n = e.create_node(Some("person"), PropertyMap::new()).unwrap();
        e.create_index("age").unwrap();
        let before = e.snapshot().unwrap();

        let err = e
            .set_node_attribute(n, "age", Value::from("old"))
            .unwrap_err();
        assert!(matches!(err, GdmError::Constraint(_)), "{err}");
        assert_eq!(e.node_attribute(n, "age").unwrap(), None, "{}", e.name());
        assert!(
            e.lookup_by_property("age", &Value::from("old"))
                .unwrap()
                .is_empty(),
            "{}",
            e.name()
        );
        assert_eq!(e.pending_changes(), 0, "{}", e.name());
        assert_eq!(
            e.refreeze(&before).unwrap().epoch(),
            before.epoch(),
            "{}",
            e.name()
        );
        // An accepted write still lands, index included.
        e.set_node_attribute(n, "age", Value::from(41)).unwrap();
        assert_eq!(
            e.lookup_by_property("age", &Value::from(41)).unwrap(),
            vec![n]
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// Neo4j record ids are 32-bit: a wider edge id names no relationship
/// (it used to alias relationship `id mod 2^32`).
#[test]
fn neo4j_wide_edge_ids_are_not_found() {
    let dir = temp_dir("wide-ids");
    let mut e = gdm_engines::neo4j::open(&dir).unwrap();
    let a = e.create_node(Some("Person"), PropertyMap::new()).unwrap();
    let b = e.create_node(Some("Person"), PropertyMap::new()).unwrap();
    let edge = e
        .create_edge(a, b, Some("KNOWS"), props! { "since" => 2001 })
        .unwrap();
    let alias = EdgeId(edge.raw() + (1 << 32));

    let err = e
        .set_edge_attribute(alias, "since", Value::from(1999))
        .unwrap_err();
    assert!(matches!(err, GdmError::NotFound(_)), "{err}");
    let err = e.delete_edge(alias).unwrap_err();
    assert!(matches!(err, GdmError::NotFound(_)), "{err}");
    assert_eq!(e.edge_count(), 1);
    assert_eq!(
        e.view().edge_property(edge, "since"),
        Some(Value::from(2001))
    );
    assert_eq!(e.view().edge_property(alias, "since"), None);
    let _ = std::fs::remove_dir_all(&dir);
}
