//! `explain()` smoke coverage: the engines that lower their dialect to
//! the shared algebra must produce plan text that
//! [`gdm_query::ExplainPlan::parse`] reads back; the rest must refuse
//! with a `GdmError::Unsupported`, never panic.

use gdm_core::{props, GdmError};
use gdm_engines::{all_engines, neo4j, sones, GraphEngine};
use gdm_query::{Access, ExplainPlan};

fn temp_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("gdm-explain-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn neo4j_explain_parses_and_reports_pushdown() {
    let mut e = neo4j::open(&temp_dir("neo")).unwrap();
    for (name, age) in [("ada", 36), ("bob", 25), ("cleo", 41)] {
        e.create_node(Some("Person"), props! { "name" => name, "age" => age })
            .unwrap();
    }
    let text = e
        .explain("MATCH (p:Person) WHERE p.age = 36 RETURN p.name")
        .unwrap();
    let plan = ExplainPlan::parse(&text).unwrap();
    assert_eq!(plan.nodes, 1);
    assert_eq!(plan.pushed, 1, "equality predicate pushed into pattern");
    assert_eq!(plan.residual, 0);
    assert_eq!(plan.steps[0].var, "p");
    assert_eq!(plan.steps[0].label.as_deref(), Some("Person"));

    // Explaining does not execute: results still come from the query.
    let rs = e
        .execute_query("MATCH (p:Person) WHERE p.age = 36 RETURN p.name")
        .unwrap();
    assert_eq!(rs.len(), 1);
}

#[test]
fn sones_explain_parses() {
    let mut e = sones::open();
    e.execute_ddl("CREATE VERTEX TYPE Person ATTRIBUTES (String name, Int age)")
        .unwrap();
    e.execute_dml("INSERT INTO Person VALUES (name = 'ana', age = 30)")
        .unwrap();
    e.execute_dml("INSERT INTO Person VALUES (name = 'bob', age = 45)")
        .unwrap();
    let text = e
        .explain("FROM Person p SELECT p.name WHERE p.age = 45")
        .unwrap();
    let plan = ExplainPlan::parse(&text).unwrap();
    assert_eq!(plan.nodes, 1);
    assert!(plan.pushed >= 1);
    assert!(matches!(plan.steps[0].access, Access::Index | Access::Scan));
}

#[test]
fn every_emulation_answers_or_refuses_explain() {
    let dir = temp_dir("all");
    let mut parsed = 0;
    for engine in all_engines(&dir).unwrap() {
        match engine.explain("MATCH (n) RETURN n") {
            Ok(text) => {
                ExplainPlan::parse(&text)
                    .unwrap_or_else(|e| panic!("{} rendered unparseable plan: {e}", engine.name()));
                parsed += 1;
            }
            // A refusal must be an explicit Unsupported or a dialect
            // parse error — the probe text is Cypher, which most
            // dialects reject before planning.
            Err(GdmError::Unsupported { .. } | GdmError::Parse { .. }) => {}
            Err(other) => panic!("{}: unexpected explain error {other}", engine.name()),
        }
    }
    assert!(parsed >= 1, "at least Neo4j explains the Cypher probe");
}
