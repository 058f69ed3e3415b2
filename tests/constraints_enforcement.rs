//! Integration tests for Table VI behaviour: engines that advertise a
//! constraint must actually *enforce* it on mutation, with clean
//! rollback, and refuse constraint kinds outside their profile.

use graph_db_models::algo::pattern::{Pattern, PatternNode};
use graph_db_models::core::{props, Value};
use graph_db_models::engines::{make_engine, EngineKind};
use graph_db_models::schema::{
    validate, Cardinality, Constraint, EdgeTypeDef, NodeTypeDef, PatternKind, PropertyType, Schema,
    ValueType,
};

fn dir(tag: &str) -> std::path::PathBuf {
    let d = std::env::temp_dir().join(format!("gdm-constraints-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    std::fs::create_dir_all(&d).unwrap();
    d
}

fn person_schema() -> Schema {
    let mut s = Schema::new();
    s.add_node_type(
        NodeTypeDef::new("person").with(PropertyType::required("name", ValueType::Str)),
    )
    .unwrap();
    s.add_node_type(NodeTypeDef::new("company")).unwrap();
    s.add_edge_type(
        EdgeTypeDef::new("works_at")
            .between("person", "company")
            .cardinality(Cardinality::OneFromSource),
    )
    .unwrap();
    s
}

#[test]
fn dex_type_checking_rejects_and_rolls_back() {
    let mut dex = make_engine(EngineKind::Dex, &dir("dex")).unwrap();
    dex.install_constraint(Constraint::TypeChecking(person_schema()))
        .unwrap();
    let p = dex
        .create_node(Some("person"), props! { "name" => "ada" })
        .unwrap();
    let c = dex.create_node(Some("company"), props! {}).unwrap();
    dex.create_edge(p, c, Some("works_at"), props! {}).unwrap();
    let before = dex.node_count();
    // Undeclared label.
    assert!(dex.create_node(Some("ghost_type"), props! {}).is_err());
    // Missing required property.
    assert!(dex.create_node(Some("person"), props! {}).is_err());
    // Wrong property type.
    assert!(dex
        .create_node(Some("person"), props! { "name" => 42 })
        .is_err());
    // Wrong endpoint direction.
    assert!(dex.create_edge(c, p, Some("works_at"), props! {}).is_err());
    assert_eq!(dex.node_count(), before, "rejections rolled back");
    assert_eq!(dex.edge_count(), 1);
}

#[test]
fn installing_a_constraint_on_dirty_data_fails_upfront() {
    let mut dex = make_engine(EngineKind::Dex, &dir("dex-dirty")).unwrap();
    dex.create_node(Some("alien"), props! {}).unwrap();
    let err = dex
        .install_constraint(Constraint::TypeChecking(person_schema()))
        .unwrap_err();
    assert!(err.to_string().contains("alien"), "{err}");
}

#[test]
fn infinitegraph_identity_is_enforced_through_attribute_updates() {
    let mut ig = make_engine(EngineKind::InfiniteGraph, &dir("ig")).unwrap();
    ig.install_constraint(Constraint::Identity {
        type_name: "device".into(),
        property: "serial".into(),
    })
    .unwrap();
    let a = ig
        .create_node(Some("device"), props! { "serial" => 100 })
        .unwrap();
    let _b = ig
        .create_node(Some("device"), props! { "serial" => 200 })
        .unwrap();
    // Updating a's serial to collide with b's must fail and roll back.
    let err = ig
        .set_node_attribute(a, "serial", Value::from(200))
        .unwrap_err();
    assert!(err.to_string().contains("identity") || err.to_string().contains("share"));
    assert_eq!(
        ig.node_attribute(a, "serial").unwrap(),
        Some(Value::from(100))
    );
}

#[test]
fn sones_cardinality_via_gql_ddl() {
    let mut sones = make_engine(EngineKind::Sones, &dir("sones")).unwrap();
    sones
        .execute_ddl("CREATE VERTEX TYPE Person ATTRIBUTES (String name UNIQUE)")
        .unwrap();
    sones
        .execute_dml("INSERT INTO Person VALUES (name = 'ada')")
        .unwrap();
    // UNIQUE attribute = identity constraint through the DDL path.
    let err = sones
        .execute_dml("INSERT INTO Person VALUES (name = 'ada')")
        .unwrap_err();
    assert!(err.to_string().contains("identity") || err.to_string().contains("taken"));
}

#[test]
fn unsupported_constraints_refuse_uniformly() {
    // FD and pattern constraints: nobody in Table VI supports them.
    let pattern_constraint = || {
        let mut p = Pattern::new();
        p.node(PatternNode::var("x"));
        Constraint::GraphPattern {
            name: "probe".into(),
            pattern: p,
            kind: PatternKind::Required,
        }
    };
    for kind in EngineKind::all() {
        let mut e = make_engine(kind, &dir(&format!("fd-{}", kind.label()))).unwrap();
        assert!(
            e.install_constraint(Constraint::FunctionalDependency {
                type_name: "t".into(),
                determinant: "a".into(),
                dependent: "b".into(),
            })
            .unwrap_err()
            .is_unsupported(),
            "{}",
            kind.label()
        );
        assert!(
            e.install_constraint(pattern_constraint())
                .unwrap_err()
                .is_unsupported(),
            "{}",
            kind.label()
        );
    }
}

#[test]
fn validator_covers_all_six_kinds_on_one_graph() {
    // The standalone validator (usable outside any engine) detects one
    // violation of each Table VI kind on a deliberately broken graph.
    let mut g = graph_db_models::graphs::PropertyGraph::new();
    let p1 = g.add_node(
        "person",
        props! { "name" => "ada", "zip" => 1, "city" => "x" },
    );
    let p2 = g.add_node(
        "person",
        props! { "name" => "ada", "zip" => 1, "city" => "y" },
    );
    let alien = g.add_node("alien", props! {});
    let c = g.add_node("company", props! {});
    g.add_edge(p1, c, "works_at", props! {}).unwrap();
    g.add_edge(p1, c, "works_at", props! {}).unwrap(); // cardinality
    g.add_edge(alien, p2, "works_at", props! {}).unwrap(); // wrong endpoint type

    let mut forbidden = Pattern::new();
    let x = forbidden.node(PatternNode::var("x").with_label("alien"));
    let y = forbidden.node(PatternNode::var("y"));
    forbidden.edge(x, y, None).unwrap();

    let violations = validate(
        &g,
        &[
            Constraint::TypeChecking(person_schema()),
            Constraint::Identity {
                type_name: "person".into(),
                property: "name".into(),
            },
            Constraint::ReferentialIntegrity,
            Constraint::Cardinality(person_schema()),
            Constraint::FunctionalDependency {
                type_name: "person".into(),
                determinant: "zip".into(),
                dependent: "city".into(),
            },
            Constraint::GraphPattern {
                name: "no-alien-edges".into(),
                pattern: forbidden,
                kind: PatternKind::Forbidden,
            },
        ],
    );
    let text = violations
        .iter()
        .map(ToString::to_string)
        .collect::<Vec<_>>()
        .join("\n");
    assert!(text.contains("undeclared type"), "{text}");
    assert!(text.contains("share identity"), "{text}");
    assert!(text.contains("outgoing"), "{text}");
    assert!(text.contains("FD"), "{text}");
    assert!(text.contains("no-alien-edges"), "{text}");
}

// ---- Every write path of every accepted kind ---------------------------
//
// For each engine whose profile accepts a constraint kind, a write that
// would break the installed constraint is refused on every path that
// can introduce the violation, and the refusal leaves the counts (and,
// for attribute writes, the attribute) as they were. Checks run per
// operation, so a node whose type has a mandatory relation cannot be
// created before its edge exists.

use graph_db_models::core::{AttributedView, GdmError, NodeId, PropertyMap, Result};
use graph_db_models::engines::{Capability, GraphEngine};
use std::panic::{catch_unwind, AssertUnwindSafe};

/// The engines whose profile accepts `capability`'s constraint kind.
fn accepting(capability: Capability) -> Vec<EngineKind> {
    EngineKind::all()
        .into_iter()
        .filter(|kind| kind.profile().refusal(capability).is_none())
        .collect()
}

/// Runs `gate` on a fresh engine of every kind that accepts
/// `capability`, and fails with the engines it failed on, so that one
/// engine's failure does not hide another's.
fn on_each_accepting(capability: Capability, gate: fn(&mut dyn GraphEngine)) {
    let failed: Vec<String> = accepting(capability)
        .into_iter()
        .filter(|&kind| {
            let tag = format!("{capability:?}-{}", kind.label());
            let mut e = make_engine(kind, &dir(&tag)).unwrap();
            catch_unwind(AssertUnwindSafe(|| gate(e.as_mut()))).is_err()
        })
        .map(|kind| kind.label().to_owned())
        .collect();
    assert!(failed.is_empty(), "failed on {failed:?} (panics above)");
}

/// Runs `write`, which must be refused by a constraint, and checks that
/// the refusal changed neither count; returns the refusal's text.
fn refused<T: std::fmt::Debug>(
    e: &mut dyn GraphEngine,
    what: &str,
    write: impl FnOnce(&mut dyn GraphEngine) -> Result<T>,
) -> String {
    let counts = (e.node_count(), e.edge_count());
    let name = e.name();
    let err = match write(e) {
        Ok(accepted) => panic!("{name}: {what} was accepted ({accepted:?})"),
        Err(err) => err,
    };
    assert!(
        matches!(err, GdmError::Constraint(_)),
        "{name}: {what} was refused with {err:?}, not by a constraint"
    );
    assert_eq!(
        (e.node_count(), e.edge_count()),
        counts,
        "{name}: the refused {what} changed the counts"
    );
    err.to_string()
}

/// A node attribute write that must be refused and leave the attribute
/// as it was.
fn refused_attribute(e: &mut dyn GraphEngine, n: NodeId, key: &str, value: Value) {
    let before = e.node_attribute(n, key).unwrap();
    refused(e, &format!("setting {key} = {value:?}"), |e| {
        e.set_node_attribute(n, key, value.clone())
    });
    assert_eq!(e.node_attribute(n, key).unwrap(), before, "{}", e.name());
}

/// People must work somewhere: `works_at` is mandatory for every person.
fn employment_schema() -> Schema {
    let mut s = Schema::new();
    s.add_node_type(
        NodeTypeDef::new("person")
            .with(PropertyType::required("name", ValueType::Str))
            .with(PropertyType::optional("age", ValueType::Int)),
    )
    .unwrap();
    s.add_node_type(
        NodeTypeDef::new("company")
            .with(PropertyType::required("name", ValueType::Str))
            .with(PropertyType::optional("size", ValueType::Int)),
    )
    .unwrap();
    s.add_edge_type(
        EdgeTypeDef::new("works_at")
            .between("person", "company")
            .with(PropertyType::optional("since", ValueType::Int))
            .mandatory(),
    )
    .unwrap();
    s.add_edge_type(EdgeTypeDef::new("knows").between("person", "person"))
        .unwrap();
    s
}

/// Ada works at Acme (the mandatory relation exists before the
/// constraint does), then type checking is installed.
fn employed(e: &mut dyn GraphEngine) -> (NodeId, NodeId, graph_db_models::core::EdgeId) {
    let ada = e
        .create_node(Some("person"), props! { "name" => "ada" })
        .unwrap();
    let acme = e
        .create_node(Some("company"), props! { "name" => "acme" })
        .unwrap();
    let job = e
        .create_edge(ada, acme, Some("works_at"), props! {})
        .unwrap();
    e.install_constraint(Constraint::TypeChecking(employment_schema()))
        .unwrap();
    (ada, acme, job)
}

#[test]
fn type_checking_is_accepted_by_dex_hypergraphdb_and_infinitegraph() {
    assert_eq!(
        accepting(Capability::TypeChecking),
        [
            EngineKind::Dex,
            EngineKind::HyperGraphDb,
            EngineKind::InfiniteGraph
        ]
    );
}

#[test]
fn type_checking_refuses_violating_creates() {
    on_each_accepting(Capability::TypeChecking, |e| {
        let (ada, _, _) = employed(e);
        let text = refused(e, "an undeclared node type", |e| {
            e.create_node(Some("ghost"), props! {})
        });
        assert!(text.contains("undeclared type"), "{text}");
        refused(e, "a node without a required property", |e| {
            e.create_node(Some("company"), props! {})
        });
        refused(e, "a node with a mistyped property", |e| {
            e.create_node(Some("company"), props! { "name" => "x", "size" => "big" })
        });
        let text = refused(e, "a person without its mandatory relation", |e| {
            e.create_node(Some("person"), props! { "name" => "bob" })
        });
        assert!(text.contains("mandatory"), "{text}");
        let initech = e
            .create_node(Some("company"), props! { "name" => "initech", "size" => 9 })
            .unwrap();
        refused(e, "an undeclared edge type", |e| {
            e.create_edge(ada, initech, Some("ghost_rel"), props! {})
        });
        refused(e, "an edge between the wrong endpoint types", |e| {
            e.create_edge(initech, ada, Some("works_at"), props! {})
        });
        refused(e, "an edge with a mistyped property", |e| {
            e.create_edge(ada, initech, Some("works_at"), props! { "since" => "now" })
        });
        e.create_edge(ada, initech, Some("works_at"), props! { "since" => 2001 })
            .unwrap();
        assert_eq!((e.node_count(), e.edge_count()), (3, 2));
    });
}

#[test]
fn type_checking_refuses_violating_attribute_writes() {
    on_each_accepting(Capability::TypeChecking, |e| {
        let (ada, acme, job) = employed(e);
        refused_attribute(e, ada, "age", Value::from("old"));
        refused_attribute(e, acme, "name", Value::from(7));
        e.set_node_attribute(ada, "age", Value::from(36)).unwrap();
        refused(e, "a mistyped edge attribute", |e| {
            e.set_edge_attribute(job, "since", Value::from("now"))
        });
        let since = |e: &dyn GraphEngine| e.snapshot().unwrap().edge_property(job, "since");
        assert_eq!(since(e), None);
        e.set_edge_attribute(job, "since", Value::from(2001))
            .unwrap();
        assert_eq!(since(e), Some(Value::from(2001)));
    });
}

#[test]
fn type_checking_refuses_deleting_a_mandatory_relation() {
    on_each_accepting(Capability::TypeChecking, |e| {
        let (ada, acme, job) = employed(e);
        refused(e, "deleting a mandatory relation", |e| e.delete_edge(job));
        refused(e, "deleting the target of a mandatory relation", |e| {
            e.delete_node(acme)
        });
        // Nothing was let in, so an unrelated write still lands.
        let initech = e
            .create_node(Some("company"), props! { "name" => "initech" })
            .unwrap();
        // A second job makes the first one deletable, and then the
        // second is the last.
        let second = e
            .create_edge(ada, initech, Some("works_at"), props! {})
            .unwrap();
        e.delete_edge(job).unwrap();
        refused(e, "deleting the last mandatory relation", |e| {
            e.delete_edge(second)
        });
        e.delete_node(acme).unwrap();
        assert_eq!((e.node_count(), e.edge_count()), (2, 1));
    });
}

#[test]
fn type_checking_installs_only_over_conforming_data() {
    on_each_accepting(Capability::TypeChecking, |e| {
        let ghost = e.create_node(Some("ghost"), props! {}).unwrap();
        let text = refused(e, "installing over an undeclared type", |e| {
            e.install_constraint(Constraint::TypeChecking(employment_schema()))
        });
        assert!(text.contains("ghost"), "{text}");
        e.delete_node(ghost).unwrap();
        e.create_node(Some("person"), props! { "name" => "ada" })
            .unwrap();
        let text = refused(e, "installing over a missing relation", |e| {
            e.install_constraint(Constraint::TypeChecking(employment_schema()))
        });
        assert!(text.contains("mandatory"), "{text}");
    });
}

fn device_identity() -> Constraint {
    Constraint::Identity {
        type_name: "device".into(),
        property: "serial".into(),
    }
}

#[test]
fn identity_is_accepted_by_four_engines() {
    assert_eq!(
        accepting(Capability::Identity),
        [
            EngineKind::Dex,
            EngineKind::HyperGraphDb,
            EngineKind::InfiniteGraph,
            EngineKind::Sones
        ]
    );
}

#[test]
fn identity_refuses_violating_creates() {
    on_each_accepting(Capability::Identity, |e| {
        e.install_constraint(device_identity()).unwrap();
        e.create_node(Some("device"), props! { "serial" => 100 })
            .unwrap();
        let text = refused(e, "a duplicate identity", |e| {
            e.create_node(Some("device"), props! { "serial" => 100 })
        });
        assert!(text.contains("identity"), "{text}");
        let text = refused(e, "a node without its identity", |e| {
            e.create_node(Some("device"), props! {})
        });
        assert!(text.contains("identity"), "{text}");
        e.create_node(Some("gadget"), props! { "serial" => 100 })
            .unwrap();
        e.create_node(Some("device"), props! { "serial" => 200 })
            .unwrap();
        assert_eq!(e.node_count(), 3);
    });
}

#[test]
fn identity_refuses_violating_attribute_writes() {
    on_each_accepting(Capability::Identity, |e| {
        e.install_constraint(device_identity()).unwrap();
        let a = e
            .create_node(Some("device"), props! { "serial" => 100 })
            .unwrap();
        let b = e
            .create_node(Some("device"), props! { "serial" => 200 })
            .unwrap();
        refused_attribute(e, b, "serial", Value::from(100));
        refused_attribute(e, a, "serial", Value::from(200));
        // A node may keep its own value, and take one another gave up.
        e.set_node_attribute(a, "serial", Value::from(100)).unwrap();
        e.set_node_attribute(b, "serial", Value::from(300)).unwrap();
        e.set_node_attribute(a, "serial", Value::from(200)).unwrap();
        assert_eq!(e.node_attribute(a, "serial").unwrap(), Some(200.into()));
    });
}

#[test]
fn identity_installs_only_over_conforming_data() {
    on_each_accepting(Capability::Identity, |e| {
        e.create_node(Some("device"), props! { "serial" => 1 })
            .unwrap();
        e.create_node(Some("device"), props! { "serial" => 1 })
            .unwrap();
        let text = refused(e, "installing over a duplicate", |e| {
            e.install_constraint(device_identity())
        });
        assert!(text.contains("identity"), "{text}");
    });
}

#[test]
fn referential_integrity_refuses_dangling_edges() {
    assert_eq!(
        accepting(Capability::ReferentialIntegrity),
        [EngineKind::Dex]
    );
    on_each_accepting(Capability::ReferentialIntegrity, |e| {
        e.install_constraint(Constraint::ReferentialIntegrity)
            .unwrap();
        let a = e.create_node(Some("v"), props! {}).unwrap();
        let b = e.create_node(Some("v"), props! {}).unwrap();
        e.create_edge(a, b, Some("r"), props! {}).unwrap();
        e.create_edge(b, a, Some("r"), props! {}).unwrap();
        assert!(e
            .create_edge(a, NodeId(1_000), Some("r"), props! {})
            .is_err());
        assert_eq!((e.node_count(), e.edge_count()), (2, 2));
        // Deleting a node takes its edges with it: nothing dangles.
        e.delete_node(b).unwrap();
        assert_eq!((e.node_count(), e.edge_count()), (1, 0));
        e.create_edge(a, a, Some("r"), props! {}).unwrap();
    });
}

/// One job per person, one head per company and one head per person,
/// one founder per company.
fn org_schema() -> Schema {
    let mut s = Schema::new();
    s.add_node_type(NodeTypeDef::new("person")).unwrap();
    s.add_node_type(NodeTypeDef::new("company")).unwrap();
    for (name, cardinality) in [
        ("works_at", Cardinality::OneFromSource),
        ("heads", Cardinality::OneToOne),
        ("founded", Cardinality::OneToTarget),
    ] {
        s.add_edge_type(
            EdgeTypeDef::new(name)
                .between("person", "company")
                .cardinality(cardinality),
        )
        .unwrap();
    }
    s
}

/// Two people and two companies under the cardinalities of
/// [`org_schema`].
fn org(e: &mut dyn GraphEngine) -> [NodeId; 4] {
    e.install_constraint(Constraint::Cardinality(org_schema()))
        .unwrap();
    ["person", "person", "company", "company"]
        .map(|label| e.create_node(Some(label), props! {}).unwrap())
}

fn edge(e: &mut dyn GraphEngine, from: NodeId, to: NodeId, label: &str) -> Result<()> {
    e.create_edge(from, to, Some(label), PropertyMap::new())
        .map(drop)
}

#[test]
fn cardinality_refuses_a_second_edge_at_either_end() {
    assert_eq!(accepting(Capability::Cardinality), [EngineKind::Sones]);
    on_each_accepting(Capability::Cardinality, |e| {
        let [ada, bob, acme, initech] = org(e);
        edge(e, ada, acme, "works_at").unwrap();
        edge(e, bob, acme, "works_at").unwrap();
        let text = refused(e, "a second job", |e| edge(e, ada, initech, "works_at"));
        assert!(text.contains("cardinality"), "{text}");

        edge(e, ada, acme, "heads").unwrap();
        refused(e, "heading two companies", |e| {
            edge(e, ada, initech, "heads")
        });
        let text = refused(e, "a company with two heads", |e| {
            edge(e, bob, acme, "heads")
        });
        assert!(text.contains("cardinality"), "{text}");

        edge(e, ada, acme, "founded").unwrap();
        edge(e, ada, initech, "founded").unwrap();
        refused(e, "a company with two founders", |e| {
            edge(e, bob, acme, "founded")
        });
        assert_eq!(e.edge_count(), 5);
    });
}

#[test]
fn cardinality_counts_hyperedges() {
    on_each_accepting(Capability::Cardinality, |e| {
        let [ada, _, acme, initech] = org(e);
        edge(e, ada, acme, "works_at").unwrap();
        refused(e, "a second job as a hyperedge", |e| {
            e.create_hyperedge("works_at", &[ada, initech], PropertyMap::new())
        });
    });
}

#[test]
fn cardinality_installs_only_over_conforming_data() {
    on_each_accepting(Capability::Cardinality, |e| {
        let ada = e.create_node(Some("person"), props! {}).unwrap();
        for _ in 0..2 {
            let c = e.create_node(Some("company"), props! {}).unwrap();
            edge(e, ada, c, "works_at").unwrap();
        }
        let text = refused(e, "installing over two jobs", |e| {
            e.install_constraint(Constraint::Cardinality(org_schema()))
        });
        assert!(text.contains("cardinality"), "{text}");
    });
}

#[test]
fn hypergraphdb_accepts_edges_of_a_declared_edge_type() {
    let mut e = make_engine(EngineKind::HyperGraphDb, &dir("hgdb-edge-type")).unwrap();
    let mut schema = Schema::new();
    schema.add_node_type(NodeTypeDef::new("person")).unwrap();
    schema
        .add_edge_type(EdgeTypeDef::new("knows").between("person", "person"))
        .unwrap();
    e.install_constraint(Constraint::TypeChecking(schema))
        .unwrap();
    let a = e.create_node(Some("person"), props! {}).unwrap();
    let b = e.create_node(Some("person"), props! {}).unwrap();
    e.create_edge(a, b, Some("knows"), props! {}).unwrap();
    assert_eq!(e.edge_count(), 1);
}

// ---- Self-loops, and the constraints Sones's DDL installs --------------
//
// An atom space projects a link that repeats a target onto a self-loop,
// which the per-write checks see like any other edge. Sones's DDL
// installs constraints of its own, and only over data that meets them.

#[test]
fn type_checking_refuses_an_undeclared_self_loop() {
    on_each_accepting(Capability::TypeChecking, |e| {
        let (ada, _, _) = employed(e);
        let text = refused(e, "an undeclared self-loop", |e| edge(e, ada, ada, "ghost"));
        assert!(text.contains("undeclared type"), "{text}");
    });
}

#[test]
fn cardinality_counts_self_loops() {
    on_each_accepting(Capability::Cardinality, |e| {
        let [ada, _, acme, _] = org(e);
        edge(e, ada, ada, "works_at").unwrap();
        refused(e, "a second self-loop job", |e| {
            edge(e, ada, ada, "works_at")
        });
        let text = refused(e, "a job after a self-loop job", |e| {
            edge(e, ada, acme, "works_at")
        });
        assert!(text.contains("cardinality"), "{text}");
        edge(e, acme, acme, "founded").unwrap();
        refused(e, "a founder after a self-loop founder", |e| {
            edge(e, ada, acme, "founded")
        });
        assert_eq!(e.edge_count(), 2);
    });
}

#[test]
fn sones_ddl_installs_constraints_only_over_conforming_data() {
    let mut e = make_engine(EngineKind::Sones, &dir("sones-ddl")).unwrap();
    for _ in 0..2 {
        e.create_node(Some("Person"), props! { "name" => "ana" })
            .unwrap();
    }
    let text = refused(e.as_mut(), "a UNIQUE attribute over a duplicate", |e| {
        e.execute_ddl("CREATE VERTEX TYPE Person ATTRIBUTES (String name UNIQUE)")
    });
    assert!(text.contains("identity"), "{text}");
    // The refused statement declared nothing and installed nothing.
    e.execute_ddl("CREATE VERTEX TYPE Person ATTRIBUTES (String name)")
        .unwrap();
    let ada = e
        .create_node(Some("Person"), props! { "name" => "ana" })
        .unwrap();

    for _ in 0..2 {
        let c = e.create_node(Some("Company"), props! {}).unwrap();
        edge(e.as_mut(), ada, c, "works_at").unwrap();
    }
    let limited = EdgeTypeDef::new("works_at").cardinality(Cardinality::OneFromSource);
    let text = refused(e.as_mut(), "a limited edge type over two jobs", |e| {
        e.define_edge_type(limited)
    });
    assert!(text.contains("cardinality"), "{text}");
    e.define_edge_type(EdgeTypeDef::new("works_at")).unwrap();
    edge(e.as_mut(), ada, ada, "works_at").unwrap();
    assert_eq!((e.node_count(), e.edge_count()), (5, 3));
}

#[test]
fn identity_covers_the_edges_of_its_type() {
    on_each_accepting(Capability::Identity, |e| {
        let cable_identity = |type_name: &str| Constraint::Identity {
            type_name: type_name.into(),
            property: "serial".into(),
        };
        let a = e.create_node(Some("device"), props! {}).unwrap();
        let b = e.create_node(Some("device"), props! {}).unwrap();
        for _ in 0..2 {
            edge(e, a, b, "old_cable").unwrap();
        }
        let text = refused(e, "installing over edges without identity", |e| {
            e.install_constraint(cable_identity("old_cable"))
        });
        assert!(text.contains("identity"), "{text}");

        e.install_constraint(cable_identity("cable")).unwrap();
        let text = refused(e, "an edge without its identity", |e| {
            edge(e, a, b, "cable")
        });
        assert!(text.contains("identity"), "{text}");
        let first = e
            .create_edge(a, b, Some("cable"), props! { "serial" => 1 })
            .unwrap();
        let text = refused(e, "a duplicate edge identity", |e| {
            e.create_edge(b, a, Some("cable"), props! { "serial" => 1 })
        });
        assert!(text.contains("identity"), "{text}");
        let second = e
            .create_edge(b, a, Some("cable"), props! { "serial" => 2 })
            .unwrap();
        refused(e, "taking another edge's identity", |e| {
            e.set_edge_attribute(second, "serial", Value::from(1))
        });
        e.set_edge_attribute(first, "serial", Value::from(1))
            .unwrap();
        e.set_edge_attribute(second, "serial", Value::from(3))
            .unwrap();
        edge(e, a, a, "wire").unwrap();
        assert_eq!(e.edge_count(), 5);
    });
}
