//! Builders for the paper's Tables I–VIII.
//!
//! Every table is rendered from the recorded cells in [`crate::cells`]
//! *after* [`crate::probes::assert_verified`] has confirmed that the
//! running engine emulations reproduce those cells — so a rendered
//! table is backed by execution, not transcription. Table VIII is the
//! bibliographic catalog from [`crate::past_languages`].

use crate::cells::paper_cells;
use crate::matrix::SupportMatrix;
use crate::past_languages;
use crate::probes::assert_verified;
use gdm_core::Result;
use gdm_engines::EngineKind;
use std::path::Path;

/// The paper's eight tables.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TableId {
    /// Table I: data storing features.
    I,
    /// Table II: operation and manipulation features.
    II,
    /// Table III: graph data structures.
    III,
    /// Table IV: representation of entities and relations.
    IV,
    /// Table V: query facilities.
    V,
    /// Table VI: integrity constraints.
    VI,
    /// Table VII: essential-query support in current databases.
    VII,
    /// Table VIII: essential-query support in past query languages.
    VIII,
}

impl TableId {
    /// All tables in order.
    pub fn all() -> [TableId; 8] {
        [
            TableId::I,
            TableId::II,
            TableId::III,
            TableId::IV,
            TableId::V,
            TableId::VI,
            TableId::VII,
            TableId::VIII,
        ]
    }

    /// Parses `1`..`8` or roman numerals.
    pub fn parse(s: &str) -> Option<TableId> {
        match s.trim().to_ascii_uppercase().as_str() {
            "1" | "I" => Some(TableId::I),
            "2" | "II" => Some(TableId::II),
            "3" | "III" => Some(TableId::III),
            "4" | "IV" => Some(TableId::IV),
            "5" | "V" => Some(TableId::V),
            "6" | "VI" => Some(TableId::VI),
            "7" | "VII" => Some(TableId::VII),
            "8" | "VIII" => Some(TableId::VIII),
            _ => None,
        }
    }
}

fn engines() -> [EngineKind; 9] {
    EngineKind::all()
}

/// Builds one table without re-running the probe verification (the
/// caller is responsible for having verified).
pub fn build_table_unverified(id: TableId) -> SupportMatrix {
    match id {
        TableId::I => {
            let mut m = SupportMatrix::new("Table I. Data storing features", "Graph Database");
            m.column("Main memory")
                .column("External memory")
                .column("Backend storage")
                .column("Indexes");
            for kind in engines() {
                let c = paper_cells(kind);
                m.row(
                    kind.label(),
                    vec![
                        c.main_memory,
                        c.external_memory,
                        c.backend_storage,
                        c.indexes,
                    ],
                );
            }
            m
        }
        TableId::II => {
            let mut m = SupportMatrix::new(
                "Table II. Operation and manipulation features",
                "Graph Database",
            );
            m.column("Data Definition Language")
                .column("Data Manipulation Language")
                .column("Query Language")
                .column("API")
                .column("GUI");
            for kind in engines() {
                let c = paper_cells(kind);
                m.row(
                    kind.label(),
                    vec![c.ddl, c.dml, c.query_language, c.api, c.gui],
                );
            }
            m
        }
        TableId::III => {
            let mut m = SupportMatrix::new("Table III. Graph data structures", "Graph Database");
            m.grouped_column("Graphs", "Simple graphs")
                .grouped_column("Graphs", "Hypergraphs")
                .grouped_column("Graphs", "Nested graphs")
                .grouped_column("Graphs", "Attributed graphs")
                .grouped_column("Nodes", "Node labeled")
                .grouped_column("Nodes", "Node attribution")
                .grouped_column("Edges", "Directed")
                .grouped_column("Edges", "Edge labeled")
                .grouped_column("Edges", "Edge attribution");
            for kind in engines() {
                let c = paper_cells(kind);
                m.row(
                    kind.label(),
                    vec![
                        c.simple_graphs,
                        c.hypergraphs,
                        c.nested_graphs,
                        c.attributed_graphs,
                        c.node_labeled,
                        c.node_attributed,
                        c.directed,
                        c.edge_labeled,
                        c.edge_attributed,
                    ],
                );
            }
            m
        }
        TableId::IV => {
            let mut m = SupportMatrix::new(
                "Table IV. Representation of entities and relations",
                "Graph Database",
            );
            m.grouped_column("Schema", "Node types")
                .grouped_column("Schema", "Property types")
                .grouped_column("Schema", "Relation types")
                .grouped_column("Instance", "Object nodes")
                .grouped_column("Instance", "Value nodes")
                .grouped_column("Instance", "Complex nodes")
                .grouped_column("Instance", "Object relations")
                .grouped_column("Instance", "Simple relations")
                .grouped_column("Instance", "Complex relations");
            for kind in engines() {
                let c = paper_cells(kind);
                m.row(
                    kind.label(),
                    vec![
                        c.node_types,
                        c.property_types,
                        c.relation_types,
                        c.object_nodes,
                        c.value_nodes,
                        c.complex_nodes,
                        c.object_relations,
                        c.simple_relations,
                        c.complex_relations,
                    ],
                );
            }
            m
        }
        TableId::V => {
            let mut m = SupportMatrix::new(
                "Table V. Comparison of query facilities (• support, ◦ partial)",
                "Graph Database",
            );
            m.column("Query Lang.")
                .column("API")
                .column("Graphical Q.L.")
                .column("Retrieval")
                .column("Reasoning")
                .column("Analysis");
            for kind in engines() {
                let c = paper_cells(kind);
                m.row(
                    kind.label(),
                    vec![
                        c.ql_grade,
                        c.api_facility,
                        c.graphical_ql,
                        c.retrieval,
                        c.reasoning,
                        c.analysis,
                    ],
                );
            }
            m
        }
        TableId::VI => {
            let mut m = SupportMatrix::new(
                "Table VI. Comparison of integrity constraints",
                "Graph Database",
            );
            m.column("Types checking")
                .column("Node/edge identity")
                .column("Referential integrity")
                .column("Cardinality checking")
                .column("Functional dependency")
                .column("Graph pattern constraints");
            for kind in engines() {
                let c = paper_cells(kind);
                // The paper lists only the four engines with at least
                // one constraint; we keep all rows (blank rows read the
                // same) for diffability.
                m.row(
                    kind.label(),
                    vec![
                        c.types_checking,
                        c.identity,
                        c.referential_integrity,
                        c.cardinality,
                        c.functional_dependency,
                        c.pattern_constraints,
                    ],
                );
            }
            m
        }
        TableId::VII => {
            let mut m = SupportMatrix::new(
                "Table VII. Current graph databases and their support for essential graph queries",
                "Graph Database",
            );
            m.grouped_column("Adjacency", "Node/edge adjacency")
                .grouped_column("Adjacency", "k-neighborhood")
                .grouped_column("Reachability", "Fixed-length paths")
                .grouped_column("Reachability", "Shortest path")
                .column("Pattern matching")
                .column("Summarization");
            for kind in engines() {
                let c = paper_cells(kind);
                m.row(
                    kind.label(),
                    vec![
                        c.q_adjacency,
                        c.q_k_neighborhood,
                        c.q_fixed_length,
                        c.q_shortest_path,
                        c.q_pattern,
                        c.q_summarization,
                    ],
                );
            }
            m
        }
        TableId::VIII => {
            let mut m = SupportMatrix::new(
                "Table VIII. Past graph query languages and their support for essential graph queries (• support, ◦ partial)",
                "Query Language",
            );
            m.column("Node/edge adjacency")
                .column("Fixed-length paths")
                .column("Regular simple paths")
                .column("Shortest path")
                .column("Distance between nodes")
                .column("Pattern matching")
                .column("Summarization");
            for lang in past_languages::catalog() {
                m.row(
                    lang.name,
                    vec![
                        lang.adjacency,
                        lang.fixed_length,
                        lang.regular_simple_paths,
                        lang.shortest_path,
                        lang.distance,
                        lang.pattern_matching,
                        lang.summarization,
                    ],
                );
            }
            m
        }
    }
}

/// Builds all eight tables with one verification pass.
pub fn all_tables(workdir: &Path) -> Result<Vec<SupportMatrix>> {
    assert_verified(workdir)?;
    Ok(TableId::all()
        .into_iter()
        .map(build_table_unverified)
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use gdm_core::Support;

    #[test]
    fn tables_render_the_papers_shape() {
        let t1 = build_table_unverified(TableId::I);
        assert_eq!(t1.rows.len(), 9);
        assert_eq!(t1.columns.len(), 4);
        assert_eq!(t1.get("Neo4j", "Main memory"), Some(Support::Full));
        assert_eq!(t1.get("G-Store", "Main memory"), Some(Support::None));

        let t5 = build_table_unverified(TableId::V);
        assert_eq!(
            t5.get("AllegroGraph", "Query Lang."),
            Some(Support::Partial)
        );
        assert_eq!(t5.get("Neo4j", "Query Lang."), Some(Support::Partial));
        assert_eq!(t5.get("Sones", "Query Lang."), Some(Support::Full));

        let t7 = build_table_unverified(TableId::VII);
        assert_eq!(
            t7.get("HyperGraphDB", "Node/edge adjacency"),
            Some(Support::Full)
        );
        assert_eq!(t7.get("HyperGraphDB", "Shortest path"), Some(Support::None));

        let t8 = build_table_unverified(TableId::VIII);
        assert!(t8.rows.len() >= 8);
    }

    #[test]
    fn table_id_parsing() {
        assert_eq!(TableId::parse("7"), Some(TableId::VII));
        assert_eq!(TableId::parse("iii"), Some(TableId::III));
        assert_eq!(TableId::parse("ix"), None);
    }

    #[test]
    fn verified_build_succeeds() {
        let dir = std::env::temp_dir().join(format!("gdm-tables-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let tables = all_tables(&dir).unwrap();
        assert_eq!(tables.len(), 8);
        for t in &tables {
            let text = t.render();
            assert!(text.contains("Table"));
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
