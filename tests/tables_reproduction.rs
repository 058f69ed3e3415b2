//! The headline reproduction test: every executable cell of the
//! paper's tables is verified against the running engine emulations,
//! and the rendered tables carry the paper's key findings.

use graph_db_models::compare::probes::verify_all;
use graph_db_models::compare::tables::{build_table_unverified, TableId};
use graph_db_models::core::Support;

fn workdir(tag: &str) -> std::path::PathBuf {
    let d = std::env::temp_dir().join(format!("gdm-tabletest-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    std::fs::create_dir_all(&d).unwrap();
    d
}

#[test]
fn all_recorded_cells_verify_against_running_engines() {
    let dir = workdir("verify");
    let mismatches = verify_all(&dir).unwrap();
    assert!(
        mismatches.is_empty(),
        "emulations diverge from the paper's cells:\n{}",
        mismatches.join("\n")
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn table_i_findings() {
    let t = build_table_unverified(TableId::I);
    // "the support for external memory storage is a main requirement"
    // — most engines have it; Sones and Filament are the exceptions.
    assert_eq!(t.get("Sones", "External memory"), Some(Support::None));
    assert_eq!(t.get("Filament", "External memory"), Some(Support::None));
    assert_eq!(t.get("G-Store", "External memory"), Some(Support::Full));
    // VertexDB sits on TokyoCabinet: backend storage.
    assert_eq!(t.get("VertexDB", "Backend storage"), Some(Support::Full));
}

#[test]
fn table_ii_findings() {
    let t = build_table_unverified(TableId::II);
    // "the most common mechanism in graph databases is the use of APIs"
    for row in &t.rows {
        assert_eq!(t.get(&row.0, "API"), Some(Support::Full), "{}", row.0);
    }
    // Only AllegroGraph and Sones ship all three database languages.
    let full_stack: Vec<&str> = t
        .rows
        .iter()
        .map(|(r, _)| r.as_str())
        .filter(|r| {
            [
                "Data Definition Language",
                "Data Manipulation Language",
                "Query Language",
            ]
            .iter()
            .all(|c| t.get(r, c) == Some(Support::Full))
        })
        .collect();
    assert_eq!(full_stack, vec!["AllegroGraph", "Sones"]);
}

#[test]
fn table_iii_findings() {
    let t = build_table_unverified(TableId::III);
    // "most graph databases are based on simple graphs or attributed
    // graphs. Only two support hypergraphs and no one nested graphs."
    let hyper: Vec<&str> = t
        .rows
        .iter()
        .map(|(r, _)| r.as_str())
        .filter(|r| t.get(r, "Hypergraphs") == Some(Support::Full))
        .collect();
    assert_eq!(hyper, vec!["HyperGraphDB", "Sones"]);
    for (row, _) in &t.rows {
        assert_eq!(t.get(row, "Nested graphs"), Some(Support::None), "{row}");
        assert_eq!(t.get(row, "Directed"), Some(Support::Full), "{row}");
    }
}

#[test]
fn table_iv_findings() {
    let t = build_table_unverified(TableId::IV);
    // "Value nodes and simple relations are supported by all the models."
    for (row, _) in &t.rows {
        assert_eq!(t.get(row, "Value nodes"), Some(Support::Full), "{row}");
        assert_eq!(t.get(row, "Simple relations"), Some(Support::Full), "{row}");
        // Nobody models complex nodes.
        assert_eq!(t.get(row, "Complex nodes"), Some(Support::None), "{row}");
    }
}

#[test]
fn table_v_findings() {
    let t = build_table_unverified(TableId::V);
    // "AllegroGraph supports reasoning via its Prolog implementation."
    assert_eq!(t.get("AllegroGraph", "Reasoning"), Some(Support::Full));
    let reasoners = t
        .rows
        .iter()
        .filter(|(r, _)| t.get(r, "Reasoning") == Some(Support::Full))
        .count();
    assert_eq!(reasoners, 1);
    // Cypher and SPARQL graded partial.
    assert_eq!(t.get("Neo4j", "Query Lang."), Some(Support::Partial));
    assert_eq!(t.get("AllegroGraph", "Query Lang."), Some(Support::Partial));
    // Retrieval is universal.
    for (row, _) in &t.rows {
        assert_eq!(t.get(row, "Retrieval"), Some(Support::Full), "{row}");
    }
}

#[test]
fn table_vi_findings() {
    let t = build_table_unverified(TableId::VI);
    // "integrity constraints are poorly studied in graph databases" —
    // no engine supports FDs or pattern constraints; only 4 rows have
    // anything at all.
    let constrained = t
        .rows
        .iter()
        .filter(|(_, cells)| cells.iter().any(|c| c.is_supported()))
        .count();
    assert_eq!(constrained, 4);
    for (row, _) in &t.rows {
        assert_eq!(
            t.get(row, "Functional dependency"),
            Some(Support::None),
            "{row}"
        );
        assert_eq!(
            t.get(row, "Graph pattern constraints"),
            Some(Support::None),
            "{row}"
        );
    }
}

#[test]
fn table_vii_findings() {
    let t = build_table_unverified(TableId::VII);
    for (row, _) in &t.rows {
        // Adjacency and summarization answerable everywhere.
        assert_eq!(
            t.get(row, "Node/edge adjacency"),
            Some(Support::Full),
            "{row}"
        );
        assert_eq!(t.get(row, "Summarization"), Some(Support::Full), "{row}");
    }
    // Pattern matching through 2012 APIs: only the SPARQL store.
    let pattern: Vec<&str> = t
        .rows
        .iter()
        .map(|(r, _)| r.as_str())
        .filter(|r| t.get(r, "Pattern matching") == Some(Support::Full))
        .collect();
    assert_eq!(pattern, vec!["AllegroGraph"]);
}

#[test]
fn table_viii_is_the_positive_conclusion() {
    let t = build_table_unverified(TableId::VIII);
    // The paper: the prior study "provides a positive conclusion about
    // the feasibility of developing a well-designed graph query
    // language" — i.e., every essential query has full support in at
    // least one past language.
    for (_, name) in &t.columns {
        let covered = t
            .rows
            .iter()
            .any(|(r, _)| t.get(r, name) == Some(Support::Full));
        assert!(covered, "{name} uncovered by every past language");
    }
}

#[test]
fn renderings_are_complete() {
    for id in TableId::all() {
        let t = build_table_unverified(id);
        let text = t.render();
        let md = t.to_markdown();
        let csv = t.to_csv();
        for (row, _) in &t.rows {
            assert!(text.contains(row.as_str()), "{id:?} text missing {row}");
            assert!(md.contains(row.as_str()), "{id:?} md missing {row}");
            assert!(csv.contains(row.as_str()), "{id:?} csv missing {row}");
        }
    }
}

/// The `tables` binary's stdout, byte for byte: each table's text
/// rendering followed by a newline, in `TableId::all()` order. The
/// probe pass that precedes it writes to stderr only. After a
/// deliberate change to a table, regenerate the golden file with
/// `cargo run -q --release -p gdm-bench --bin tables > tests/tables.golden.txt`.
#[test]
fn tables_output_matches_the_golden_file() {
    let printed: String = TableId::all()
        .iter()
        .map(|&id| format!("{}\n", build_table_unverified(id).render()))
        .collect();
    let golden = include_str!("tables.golden.txt");
    // Compared line by line first, so a failure names the first
    // departing line; the final check also catches a trailing change.
    for (i, (got, want)) in printed.lines().zip(golden.lines()).enumerate() {
        assert_eq!(
            got,
            want,
            "tables output departs from tests/tables.golden.txt at line {}",
            i + 1
        );
    }
    assert_eq!(
        printed, golden,
        "tables output departs from tests/tables.golden.txt at its end"
    );
}
