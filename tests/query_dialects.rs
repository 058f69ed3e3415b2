//! Cross-dialect integration: the paper's point that the 2012
//! languages are incomparable *surfaces* over comparable *logic* —
//! here the same questions asked in Cypher, GQL, SPARQL, GSQL, and
//! Datalog must produce the same answers.

use graph_db_models::core::{props, Value};
use graph_db_models::engines::{make_engine, EngineKind};

fn dir(tag: &str) -> std::path::PathBuf {
    let d = std::env::temp_dir().join(format!("gdm-dialects-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    std::fs::create_dir_all(&d).unwrap();
    d
}

/// The same four-person dataset in every engine's own idiom.
const PEOPLE: [(&str, i64); 4] = [("ana", 30), ("bob", 45), ("cleo", 27), ("dan", 45)];

#[test]
fn cypher_and_gql_agree_on_filters_and_aggregates() {
    // Neo4j via Cypher CREATE.
    let mut neo = make_engine(EngineKind::Neo4j, &dir("neo")).unwrap();
    for (name, age) in PEOPLE {
        neo.execute_query(&format!("CREATE (p:Person {{name: '{name}', age: {age}}})"))
            .unwrap();
    }
    // Sones via GQL DDL + DML.
    let mut sones = make_engine(EngineKind::Sones, &dir("sones")).unwrap();
    sones
        .execute_ddl("CREATE VERTEX TYPE Person ATTRIBUTES (String name, Int age)")
        .unwrap();
    for (name, age) in PEOPLE {
        sones
            .execute_dml(&format!(
                "INSERT INTO Person VALUES (name = '{name}', age = {age})"
            ))
            .unwrap();
    }

    // Same filter, both dialects.
    let from_cypher = neo
        .execute_query("MATCH (p:Person) WHERE p.age > 28 RETURN p.name ORDER BY p.name")
        .unwrap();
    let from_gql = sones
        .execute_query("FROM Person p SELECT p.name WHERE p.age > 28 ORDER BY p.name")
        .unwrap();
    assert_eq!(from_cypher.rows, from_gql.rows);
    assert_eq!(from_cypher.len(), 3);

    // Same aggregate, both dialects.
    let c = neo
        .execute_query("MATCH (p:Person) RETURN count(*) AS n, avg(p.age) AS a")
        .unwrap();
    let g = sones
        .execute_query("FROM Person p SELECT COUNT(*) AS n, AVG(p.age) AS a")
        .unwrap();
    assert_eq!(c.get(0, "n"), g.get(0, "n"));
    assert_eq!(c.get(0, "a"), g.get(0, "a"));
    assert_eq!(c.get(0, "n"), Some(&Value::Int(4)));
}

#[test]
fn sparql_join_matches_cypher_relationship_match() {
    let mut neo = make_engine(EngineKind::Neo4j, &dir("neo-rel")).unwrap();
    let mut ag = make_engine(EngineKind::Allegro, &dir("ag-rel")).unwrap();
    // knows-chain: ana -> bob -> cleo, plus ana -> cleo.
    let pairs = [("ana", "bob"), ("bob", "cleo"), ("ana", "cleo")];
    let mut ids = std::collections::HashMap::new();
    for name in ["ana", "bob", "cleo"] {
        let n = neo
            .create_node(Some("Person"), props! { "name" => name })
            .unwrap();
        ids.insert(name, n);
    }
    for (a, b) in pairs {
        neo.create_edge(ids[a], ids[b], Some("knows"), props! {})
            .unwrap();
        ag.execute_dml(&format!("ADD <{a}> <knows> <{b}>")).unwrap();
    }
    // Two-hop endpoints.
    let cypher = neo
        .execute_query(
            "MATCH (a:Person)-[:knows]->(b:Person)-[:knows]->(c:Person) \
             RETURN a.name, c.name",
        )
        .unwrap();
    let sparql = ag
        .execute_query("SELECT ?a ?c WHERE { ?a <knows> ?b . ?b <knows> ?c }")
        .unwrap();
    assert_eq!(cypher.len(), sparql.len());
    assert_eq!(cypher.len(), 1);
    assert_eq!(cypher.rows[0][0].as_str(), Some("ana"));
    assert_eq!(sparql.rows[0][1].as_str(), Some("cleo"));
}

#[test]
fn datalog_reachability_matches_gsql_reachable() {
    // G-Store answers reachability through its path dialect;
    // AllegroGraph answers the same question through rules.
    let mut gstore = make_engine(EngineKind::GStore, &dir("gstore")).unwrap();
    let mut ag = make_engine(EngineKind::Allegro, &dir("ag-reach")).unwrap();
    // A chain 0 -> 1 -> 2 -> 3 with a shortcut 0 -> 2.
    for _ in 0..4 {
        gstore.execute_ddl("CREATE NODE 'v'").unwrap();
    }
    for (a, b) in [(0, 1), (1, 2), (2, 3), (0, 2)] {
        gstore.execute_ddl(&format!("CREATE EDGE {a} {b}")).unwrap();
        ag.execute_dml(&format!("ADD <n{a}> <next> <n{b}>"))
            .unwrap();
    }
    let rs = gstore.execute_query("SELECT REACHABLE FROM 0").unwrap();
    let gsql_reachable: Vec<i64> = rs
        .rows
        .iter()
        .map(|r| r[0].as_int().expect("node ids"))
        .collect();
    let rows = ag
        .reason(
            "reach(X, Y) :- next(X, Y).\n\
             reach(X, Z) :- reach(X, Y), next(Y, Z).",
            "reach(n0, X)",
        )
        .unwrap();
    let datalog_reachable: Vec<&str> = rows.iter().map(|r| r[0].as_str()).collect();
    // GSQL includes the start node itself; Datalog derives strict
    // successors. 0 reaches {1, 2, 3} either way.
    assert_eq!(gsql_reachable, vec![0, 1, 2, 3]);
    assert_eq!(datalog_reachable, vec!["n1", "n2", "n3"]);
}

#[test]
fn gsql_paths_match_engine_api() {
    let mut gstore = make_engine(EngineKind::GStore, &dir("gstore-paths")).unwrap();
    for _ in 0..5 {
        gstore.execute_ddl("CREATE NODE 'v'").unwrap();
    }
    for (a, b) in [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4)] {
        gstore.execute_ddl(&format!("CREATE EDGE {a} {b}")).unwrap();
    }
    let via_ql = gstore
        .execute_query("SELECT PATHS FROM 0 TO 2 LENGTH 2")
        .unwrap();
    let via_api = gstore
        .fixed_length_paths(
            graph_db_models::core::NodeId(0),
            graph_db_models::core::NodeId(2),
            2,
        )
        .unwrap();
    assert_eq!(via_ql.rows[0][0], Value::Int(via_api as i64));
    assert_eq!(via_api, 1);

    let shortest = gstore
        .execute_query("SELECT SHORTEST PATH FROM 0 TO 4")
        .unwrap();
    assert_eq!(
        shortest.rows[0][0],
        Value::List(vec![
            Value::Int(0),
            Value::Int(2),
            Value::Int(3),
            Value::Int(4)
        ])
    );
}

#[test]
fn implicit_and_explicit_grouping_agree() {
    // Cypher groups implicitly when RETURN mixes aggregates with plain
    // items; GQL uses an explicit GROUP BY. Same data, same answer.
    let mut neo = make_engine(EngineKind::Neo4j, &dir("neo-group")).unwrap();
    let mut sones = make_engine(EngineKind::Sones, &dir("sones-group")).unwrap();
    sones
        .execute_ddl("CREATE VERTEX TYPE Person ATTRIBUTES (String city, Int age)")
        .unwrap();
    for (city, age) in [("scl", 30), ("scl", 40), ("muc", 20), ("muc", 24)] {
        neo.execute_query(&format!("CREATE (p:Person {{city: '{city}', age: {age}}})"))
            .unwrap();
        sones
            .execute_dml(&format!(
                "INSERT INTO Person VALUES (city = '{city}', age = {age})"
            ))
            .unwrap();
    }
    let cypher = neo
        .execute_query(
            "MATCH (p:Person) RETURN p.city AS city, avg(p.age) AS a, count(*) AS n ORDER BY city",
        )
        .unwrap();
    let gql = sones
        .execute_query(
            "FROM Person p SELECT p.city AS city, AVG(p.age) AS a, COUNT(*) AS n \
             GROUP BY p.city ORDER BY city",
        )
        .unwrap();
    assert_eq!(cypher.rows, gql.rows);
    assert_eq!(cypher.len(), 2);
    assert_eq!(cypher.get(0, "city"), Some(&Value::from("muc")));
    assert_eq!(cypher.get(0, "a"), Some(&Value::from(22.0)));
    assert_eq!(cypher.get(1, "n"), Some(&Value::from(2)));
    // Ordering by the aggregate alias also works.
    let by_avg = neo
        .execute_query("MATCH (p:Person) RETURN p.city AS city, avg(p.age) AS a ORDER BY a DESC")
        .unwrap();
    assert_eq!(by_avg.get(0, "city"), Some(&Value::from("scl")));
}

#[test]
fn partial_cypher_refusals_are_loud_and_specific() {
    let mut neo = make_engine(EngineKind::Neo4j, &dir("neo-partial")).unwrap();
    for q in [
        "MATCH (a) WITH a RETURN a",
        "MERGE (a:X) RETURN a",
        "MATCH (a) SET a.x = 1 RETURN a",
    ] {
        let err = neo.execute_query(q).unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("not supported"), "{q}: unexpected error {msg}");
    }
}

/// A SPARQL reply as one line: its columns, then its rows in order,
/// every value with its type, so a pin holds the exact rows and order.
fn sparql_rows(rs: &graph_db_models::query::ResultSet) -> String {
    format!("{:?} {:?}", rs.columns, rs.rows)
}

/// Runs `statements` as AllegroGraph DML, then each query of `pins`,
/// and checks its reply against the pinned line.
fn pin_allegro(tag: &str, statements: &[&str], pins: &[(&str, &str)]) {
    let mut ag = make_engine(EngineKind::Allegro, &dir(tag)).unwrap();
    for s in statements {
        ag.execute_dml(s).unwrap();
    }
    for (query, want) in pins {
        let rs = ag.execute_query(query).unwrap();
        assert_eq!(sparql_rows(&rs), *want, "{query}");
    }
}

/// The SPARQL texts of `examples/semantic_web.rs` and
/// `examples/query_languages.rs` over the examples' own data.
#[test]
fn sparql_example_rows_are_pinned() {
    pin_allegro(
        "pin-semweb",
        &[
            "ADD <socrates> <is_a> <human>",
            "ADD <plato> <is_a> <human>",
            "ADD <human> <subclass_of> <mortal>",
            "ADD <mortal> <subclass_of> <being>",
            "ADD <socrates> <taught> <plato>",
            "ADD <plato> <taught> <aristotle>",
            "ADD <aristotle> <is_a> <human>",
            "ADD <socrates> <age> '70'",
            "ADD <plato> <age> '80'",
        ],
        &[
            (
                "SELECT ?x WHERE { ?x <is_a> <human> } ORDER BY ?x",
                r#"["x"] [[Str("aristotle")], [Str("plato")], [Str("socrates")]]"#,
            ),
            (
                "SELECT ?teacher ?student WHERE { ?teacher <taught> ?student . ?student <is_a> <human> }",
                r#"["teacher", "student"] [[Str("plato"), Str("aristotle")], [Str("socrates"), Str("plato")]]"#,
            ),
            (
                "SELECT ?p WHERE { ?p <age> ?a . FILTER(?a > 75) }",
                r#"["p"] [[Str("plato")]]"#,
            ),
        ],
    );
    let mut languages = Vec::new();
    for (name, age) in [("ana", 30), ("bob", 45), ("cleo", 27), ("dan", 19)] {
        languages.push(format!("ADD <{name}> <age> '{age}'"));
    }
    for (a, b) in [
        ("ana", "bob"),
        ("bob", "cleo"),
        ("ana", "dan"),
        ("dan", "cleo"),
    ] {
        languages.push(format!("ADD <{a}> <knows> <{b}>"));
    }
    let languages: Vec<&str> = languages.iter().map(String::as_str).collect();
    pin_allegro(
        "pin-languages",
        &languages,
        &[(
            "SELECT DISTINCT ?b WHERE { <ana> <knows> ?m . ?m <knows> ?b . ?b <age> ?a . FILTER(?a > 25) }",
            r#"["b"] [[Str("cleo")]]"#,
        )],
    );
}

/// The Table V query-language probe, on the probe graph after the
/// probe's DDL and DML, and the SPARQL texts of AllegroGraph's unit
/// tests.
#[test]
fn sparql_probe_and_engine_test_rows_are_pinned() {
    let mut ag = make_engine(EngineKind::Allegro, &dir("pin-probe")).unwrap();
    graph_db_models::compare::probes::build_probe_graph(ag.as_mut()).unwrap();
    ag.execute_ddl("DEFINE PREDICATE <probe_pred>").unwrap();
    ag.execute_dml("ADD <probe_s> <probe_p> <probe_o>").unwrap();
    let rs = ag
        .execute_query("SELECT (COUNT(*) AS ?n) WHERE { ?x ?p ?y }")
        .unwrap();
    assert_eq!(sparql_rows(&rs), r#"["n"] [[Int(6)]]"#);

    let family = ["ADD <ana> <parent> <ben>", "ADD <ben> <parent> <cleo>"];
    pin_allegro(
        "pin-engine",
        &[family[0], family[1], "ADD <ana> <age> '62'"],
        &[
            (
                "SELECT ?gc WHERE { <ana> <parent> ?c . ?c <parent> ?gc }",
                r#"["gc"] [[Str("cleo")]]"#,
            ),
            (
                "SELECT (COUNT(*) AS ?n) WHERE { ?x <parent> ?y }",
                r#"["n"] [[Int(2)]]"#,
            ),
            (
                "SELECT ?x WHERE { ?x <parent> <ben> }",
                r#"["x"] [[Str("ana")]]"#,
            ),
        ],
    );
    pin_allegro(
        "pin-engine-deleted",
        &[family[0], family[1], "DELETE <ana> <parent> <ben>"],
        &[(
            "SELECT (COUNT(*) AS ?n) WHERE { ?x <parent> ?y }",
            r#"["n"] [[Int(1)]]"#,
        )],
    );
}

/// Basic graph patterns match homomorphically: two variables may bind
/// one term, a variable may meet itself, and a variable predicate
/// lists every predicate between a bound pair.
#[test]
fn sparql_homomorphism_rows_are_pinned() {
    use graph_db_models::graphs::rdf::{RdfGraph, Term};
    use graph_db_models::query::sparql;
    let mut g = RdfGraph::new();
    for (s, p, o) in [
        ("ana", "parent", "ben"),
        ("ana", "parent", "bea"),
        ("ben", "parent", "cleo"),
        ("ana", "mentor", "ben"),
        ("cleo", "likes", "cleo"),
        ("ben", "likes", "bea"),
        ("parent", "kind", "family"),
    ] {
        g.add(&Term::iri(s), &Term::iri(p), &Term::iri(o)).unwrap();
    }
    g.add(&Term::iri("ana"), &Term::iri("age"), &Term::lit("62"))
        .unwrap();
    g.add(&Term::iri("ben"), &Term::iri("age"), &Term::lit("35"))
        .unwrap();
    for (query, want) in [
        // Two variables on one term: (ben, ben), (bea, bea) and (cleo,
        // cleo) are solutions too.
        (
            "SELECT ?a ?b WHERE { ?x <parent> ?a . ?x <parent> ?b }",
            r#"["a", "b"] [[Str("bea"), Str("bea")], [Str("bea"), Str("ben")], [Str("ben"), Str("bea")], [Str("ben"), Str("ben")], [Str("cleo"), Str("cleo")]]"#,
        ),
        (
            "SELECT ?x WHERE { ?x <likes> ?x }",
            r#"["x"] [[Str("cleo")]]"#,
        ),
        (
            "SELECT ?p WHERE { <ana> ?p <ben> }",
            r#"["p"] [[Str("mentor")], [Str("parent")]]"#,
        ),
        (
            "SELECT (COUNT(*) AS ?n) WHERE { <ana> ?p <ben> }",
            r#"["n"] [[Int(2)]]"#,
        ),
        (
            "SELECT * WHERE { ?x ?p ?y . ?p <kind> <family> }",
            r#"["p", "x", "y"] [[Str("parent"), Str("ana"), Str("bea")], [Str("parent"), Str("ana"), Str("ben")], [Str("parent"), Str("ben"), Str("cleo")]]"#,
        ),
        // No solution: no columns either.
        ("SELECT * WHERE { ?x <parent> ?x }", "[] []"),
        ("SELECT ?x WHERE { ?x 'parent' ?y }", r#"["x"] []"#),
        ("SELECT ?y WHERE { <nobody> <parent> ?y }", r#"["y"] []"#),
        (
            "SELECT DISTINCT ?x ?a WHERE { ?x ?p ?y . ?x <age> ?a } ORDER BY ?a",
            r#"["x", "a"] [[Str("ben"), Int(35)], [Str("ana"), Int(62)]]"#,
        ),
    ] {
        let rs = sparql::query(&g, query).unwrap();
        assert_eq!(sparql_rows(&rs), want, "{query}");
    }
}
