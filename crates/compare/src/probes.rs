//! Execution probes: verify the paper's recorded cells against the
//! running engine emulations.
//!
//! For every cell with an executable counterpart, [`verify_engine`]
//! runs the corresponding facade call and checks that the outcome
//! (success vs. [`Unsupported`](gdm_core::GdmError::Unsupported))
//! matches the recorded support level. Cells with no executable form
//! (GUI, graphical query language, model-family classification,
//! main-memory/backend architecture, Table IV's representation
//! taxonomy) are catalog facts and are cross-checked against the
//! engine descriptors where those exist.

use crate::cells::paper_cells;
use gdm_algo::pattern::{Pattern, PatternNode};
use gdm_core::{GdmError, NodeId, PropertyMap, Result, Support, Value};
use gdm_engines::{make_engine, AnalysisFunc, EngineKind, GraphEngine, SummaryFunc};
use gdm_schema::{Constraint, NodeTypeDef, PropertyType, Schema, ValueType};
use std::path::Path;

/// Collapses a probe outcome into a support level; any error other
/// than `Unsupported` is a harness bug and is reported as a mismatch.
/// An `Interrupted` error gets its own message: the probe hit a
/// governor limit (deadline/budget/cancellation), which says nothing
/// about the emulated engine's feature support — the harness should be
/// run without limits, so it is still reported as a mismatch, but one
/// distinguishable from a crash.
fn support_of<T>(r: &Result<T>) -> std::result::Result<Support, String> {
    match r {
        Ok(_) => Ok(Support::Full),
        Err(e) if e.is_unsupported() => Ok(Support::None),
        Err(e) if e.is_interrupted() => Err(format!("probe interrupted by governor: {e}")),
        Err(e) => Err(format!("probe crashed: {e}")),
    }
}

/// Builds the standard probe graph through the facade, adapting to the
/// engine's model: labeled nodes/edges where supported, plain ones
/// otherwise. Shape: a → b → c → d plus a → c (two length-2 paths from
/// a to c... one via b, plus direct edge a→c).
pub fn build_probe_graph(e: &mut dyn GraphEngine) -> Result<Vec<NodeId>> {
    let mut nodes = Vec::new();
    for _ in 0..4 {
        let n = match e.create_node(Some("probe_t"), PropertyMap::new()) {
            Ok(n) => n,
            Err(err) if err.is_unsupported() => e.create_node(None, PropertyMap::new())?,
            Err(err) => return Err(err),
        };
        nodes.push(n);
    }
    let edge = |e: &mut dyn GraphEngine, a: NodeId, b: NodeId| -> Result<()> {
        match e.create_edge(a, b, Some("probe_r"), PropertyMap::new()) {
            Ok(_) => Ok(()),
            Err(err) if err.is_unsupported() => {
                e.create_edge(a, b, None, PropertyMap::new()).map(|_| ())
            }
            Err(err) => Err(err),
        }
    };
    edge(e, nodes[0], nodes[1])?;
    edge(e, nodes[1], nodes[2])?;
    edge(e, nodes[0], nodes[2])?;
    edge(e, nodes[2], nodes[3])?;
    Ok(nodes)
}

/// Per-engine language statements used by the DDL/DML/QL probes.
fn language_probes(kind: EngineKind) -> (&'static str, &'static str, &'static str) {
    match kind {
        EngineKind::Allegro => (
            "DEFINE PREDICATE <probe_pred>",
            "ADD <probe_s> <probe_p> <probe_o>",
            "SELECT (COUNT(*) AS ?n) WHERE { ?x ?p ?y }",
        ),
        EngineKind::GStore => (
            "CREATE NODE 'probe'",
            "INSERT SOMETHING",
            "SELECT COUNT NODES",
        ),
        EngineKind::Sones => (
            "CREATE VERTEX TYPE ProbeType ATTRIBUTES (Int probe_x)",
            "INSERT INTO ProbeType VALUES (probe_x = 1)",
            "FROM ProbeType p SELECT COUNT(*)",
        ),
        EngineKind::Neo4j => ("CREATE DDL", "INSERT DML", "MATCH (n) RETURN count(*) AS n"),
        _ => ("CREATE DDL PROBE", "INSERT DML PROBE", "QUERY PROBE"),
    }
}

/// A probe schema used by constraint probes.
fn probe_schema() -> Schema {
    let mut s = Schema::new();
    s.add_node_type(
        NodeTypeDef::new("probe_t").with(PropertyType::optional("probe_x", ValueType::Int)),
    )
    .expect("fresh schema");
    s
}

/// Verifies every executable cell for `kind`, building engines in fresh
/// subdirectories of `workdir`. Returns a human-readable mismatch list
/// (empty = the emulation reproduces the paper's row exactly).
pub fn verify_engine(kind: EngineKind, workdir: &Path) -> Result<Vec<String>> {
    let cells = paper_cells(kind);
    let mut mismatches: Vec<String> = Vec::new();
    fn record(
        mismatches: &mut Vec<String>,
        kind: EngineKind,
        feature: &str,
        expected: Support,
        got: std::result::Result<Support, String>,
    ) {
        match got {
            Ok(actual) => {
                // Partial cells must at least execute.
                let expected_exec = if expected == Support::Partial {
                    Support::Full
                } else {
                    expected
                };
                if actual != expected_exec {
                    mismatches.push(format!(
                        "{}: {feature}: paper records {expected:?}, probe observed {actual:?}",
                        kind.label()
                    ));
                }
            }
            Err(msg) => mismatches.push(format!("{}: {feature}: {msg}", kind.label())),
        }
    }
    macro_rules! check {
        ($feature:expr, $expected:expr, $got:expr $(,)?) => {
            record(&mut mismatches, kind, $feature, $expected, $got)
        };
    }

    let fresh = |tag: &str| -> Result<Box<dyn GraphEngine>> {
        let dir = workdir.join(format!(
            "{}-{tag}",
            kind.label().to_lowercase().replace('-', "_")
        ));
        std::fs::create_dir_all(&dir)?;
        make_engine(kind, &dir)
    };

    // ---- Table III structural probes --------------------------------
    {
        let mut e = fresh("structure")?;
        let nodes = build_probe_graph(e.as_mut())?;
        check!(
            "node labels",
            cells.node_labeled,
            support_of(&e.create_node(Some("probe_label_check"), PropertyMap::new())),
        );
        check!(
            "node attribution",
            cells.node_attributed,
            support_of(&e.set_node_attribute(nodes[0], "probe_x", Value::from(1))),
        );
        let labeled_edge = e.create_edge(
            nodes[0],
            nodes[3],
            Some("probe_labeled"),
            PropertyMap::new(),
        );
        check!("edge labels", cells.edge_labeled, support_of(&labeled_edge));
        if let Ok(edge) = labeled_edge {
            check!(
                "edge attribution",
                cells.edge_attributed,
                support_of(&e.set_edge_attribute(edge, "probe_w", Value::from(1))),
            );
        } else {
            // Engines without edge labels also lack edge attributes in
            // the paper's table; probe via an unlabeled edge.
            let edge = e.create_edge(nodes[0], nodes[3], None, PropertyMap::new())?;
            check!(
                "edge attribution",
                cells.edge_attributed,
                support_of(&e.set_edge_attribute(edge, "probe_w", Value::from(1))),
            );
        }
        check!(
            "hyperedges",
            cells.hypergraphs,
            support_of(&e.create_hyperedge("probe_h", &nodes[0..3], PropertyMap::new())),
        );
        check!(
            "nested graphs",
            cells.nested_graphs,
            support_of(&e.nest_subgraph(nodes[0])),
        );
    }

    // ---- Table I storage probes --------------------------------------
    {
        let mut e = fresh("storage")?;
        build_probe_graph(e.as_mut())?;
        check!(
            "external memory",
            cells.external_memory,
            support_of(&e.persist())
        );
        check!(
            "indexes",
            cells.indexes,
            support_of(&e.create_index("probe_x"))
        );
        // Secondary-index probe row: an engine credited with indexes
        // must also answer a value lookup through one, not merely
        // accept the DDL. Engines without `create_index` short-circuit
        // to the same refusal, so the expectation stays the Table I
        // cell.
        let index_lookup = e
            .create_index("probe_y")
            .and_then(|()| e.lookup_by_property("probe_y", &Value::from(1)));
        check!(
            "secondary index lookup",
            cells.indexes,
            support_of(&index_lookup)
        );
        let desc = e.descriptor();
        if desc.backend_storage != cells.backend_storage {
            mismatches.push(format!(
                "{}: backend storage: descriptor says {:?}, paper records {:?}",
                kind.label(),
                desc.backend_storage,
                cells.backend_storage
            ));
        }
    }

    // ---- Table II language probes ------------------------------------
    {
        let mut e = fresh("languages")?;
        build_probe_graph(e.as_mut())?;
        let (ddl, dml, ql) = language_probes(kind);
        check!("DDL", cells.ddl, support_of(&e.execute_ddl(ddl)));
        check!("DML", cells.dml, support_of(&e.execute_dml(dml)));
        // Query language: Table V's grade establishes executability;
        // Table II's cell records the released language.
        let ql_result = e.execute_query(ql);
        check!("query language", cells.ql_grade, support_of(&ql_result));
        let desc = e.descriptor();
        if desc.gui != cells.gui {
            mismatches.push(format!(
                "{}: GUI: descriptor says {:?}, paper records {:?}",
                kind.label(),
                desc.gui,
                cells.gui
            ));
        }
        if desc.graphical_ql != cells.graphical_ql {
            mismatches.push(format!(
                "{}: graphical QL: descriptor says {:?}, paper records {:?}",
                kind.label(),
                desc.graphical_ql,
                cells.graphical_ql
            ));
        }
    }

    // ---- Table V reasoning / analysis ---------------------------------
    {
        let mut e = fresh("facilities")?;
        build_probe_graph(e.as_mut())?;
        check!(
            "reasoning",
            cells.reasoning,
            support_of(&e.reason("probe_q(X, Y) :- probe_r(X, Y).", "probe_q(X, Y)")),
        );
        check!(
            "analysis",
            cells.analysis,
            support_of(&e.analyze(AnalysisFunc::ConnectedComponents)),
        );
    }

    // ---- CSR snapshot fast path (Table V analysis cross-check) --------
    // Freeze the probe graph and require that the snapshot — serially
    // and through the parallel executor — reproduces the live engine's
    // analysis answers exactly. The `essential_queries` benches time
    // these snapshot analyses against the live engines, so the
    // agreement is checked here, not just in gdm-algo's own tests.
    {
        let mut e = fresh("snapshot")?;
        let nodes = build_probe_graph(e.as_mut())?;
        match e.snapshot() {
            Ok(fz) => {
                let push = |m: &mut Vec<String>, what: &str| {
                    m.push(format!(
                        "{}: snapshot: frozen {what} disagrees with live answer",
                        kind.label()
                    ));
                };
                let comps = gdm_algo::analysis::connected_components(&fz).len();
                if gdm_algo::par_connected_components(&fz, 4).len() != comps {
                    push(&mut mismatches, "parallel components");
                }
                if let Ok(Value::Int(live)) = e.analyze(AnalysisFunc::ConnectedComponents) {
                    if live != comps as i64 {
                        push(&mut mismatches, "connected components");
                    }
                }
                let tris = gdm_algo::analysis::triangle_count(&fz);
                if gdm_algo::par_triangle_count(&fz, 4) != tris {
                    push(&mut mismatches, "parallel triangles");
                }
                if let Ok(Value::Int(live)) = e.analyze(AnalysisFunc::Triangles) {
                    if live != tris as i64 {
                        push(&mut mismatches, "triangle count");
                    }
                }
                if let Ok(live) = e.adjacent(nodes[0], nodes[2]) {
                    if gdm_algo::nodes_adjacent(&fz, nodes[0], nodes[2]) != live {
                        push(&mut mismatches, "adjacency");
                    }
                }
                if let Ok(live) = e.shortest_path(nodes[0], nodes[3]) {
                    let frozen = gdm_algo::distance(&fz, nodes[0], nodes[3]);
                    if frozen != live.map(|p| p.len() - 1) {
                        push(&mut mismatches, "shortest path length");
                    }
                }
            }
            Err(err) if err.is_unsupported() => {}
            Err(err) => {
                mismatches.push(format!("{}: snapshot: probe crashed: {err}", kind.label()))
            }
        }
    }

    // ---- Table VI constraint probes ------------------------------------
    {
        let schema = probe_schema();
        let probes: [(&str, Support, Constraint); 6] = [
            (
                "types checking",
                cells.types_checking,
                Constraint::TypeChecking(schema.clone()),
            ),
            (
                "node/edge identity",
                cells.identity,
                Constraint::Identity {
                    type_name: "probe_t".into(),
                    property: "probe_x".into(),
                },
            ),
            (
                "referential integrity",
                cells.referential_integrity,
                Constraint::ReferentialIntegrity,
            ),
            (
                "cardinality checking",
                cells.cardinality,
                Constraint::Cardinality(schema.clone()),
            ),
            (
                "functional dependency",
                cells.functional_dependency,
                Constraint::FunctionalDependency {
                    type_name: "probe_t".into(),
                    determinant: "probe_x".into(),
                    dependent: "probe_y".into(),
                },
            ),
            (
                "graph pattern constraints",
                cells.pattern_constraints,
                Constraint::GraphPattern {
                    name: "probe".into(),
                    pattern: Pattern::new(),
                    kind: gdm_schema::PatternKind::Required,
                },
            ),
        ];
        for (name, expected, constraint) in probes {
            let mut e = fresh("constraints")?;
            check!(
                name,
                expected,
                support_of(&e.install_constraint(constraint))
            );
        }
    }

    // ---- Table VII essential query probes ------------------------------
    {
        let mut e = fresh("essential")?;
        let n = build_probe_graph(e.as_mut())?;
        check!(
            "adjacency",
            cells.q_adjacency,
            support_of(&e.adjacent(n[0], n[1]))
        );
        check!(
            "k-neighborhood",
            cells.q_k_neighborhood,
            support_of(&e.k_neighborhood(n[0], 2)),
        );
        check!(
            "fixed-length paths",
            cells.q_fixed_length,
            support_of(&e.fixed_length_paths(n[0], n[2], 2)),
        );
        check!(
            "shortest path",
            cells.q_shortest_path,
            support_of(&e.shortest_path(n[0], n[3])),
        );
        let mut pattern = Pattern::new();
        let x = pattern.node(PatternNode::var("x"));
        let y = pattern.node(PatternNode::var("y"));
        pattern.edge(x, y, Some("probe_r"))?;
        check!(
            "pattern matching",
            cells.q_pattern,
            support_of(&e.pattern_match(&pattern))
        );
        check!(
            "summarization",
            cells.q_summarization,
            support_of(&e.summarize(SummaryFunc::Order)),
        );
    }

    Ok(mismatches)
}

/// The paper's Section II classification, probed: a system is a
/// *graph database* when it has a transaction engine, a *graph store*
/// otherwise. Returns `(databases, stores)` in table order.
pub fn classify(workdir: &Path) -> Result<(Vec<&'static str>, Vec<&'static str>)> {
    let mut databases = Vec::new();
    let mut stores = Vec::new();
    for kind in EngineKind::all() {
        let dir = workdir.join(format!("classify-{}", kind.label().to_lowercase()));
        std::fs::create_dir_all(&dir)?;
        let mut engine = make_engine(kind, &dir)?;
        match engine.begin_transaction() {
            Ok(()) => {
                engine.rollback_transaction()?;
                databases.push(kind.label());
            }
            Err(e) if e.is_unsupported() => stores.push(kind.label()),
            Err(e) => return Err(e),
        }
    }
    Ok((databases, stores))
}

/// Verifies every engine; returns all mismatches.
pub fn verify_all(workdir: &Path) -> Result<Vec<String>> {
    let mut all = Vec::new();
    for kind in EngineKind::all() {
        all.extend(verify_engine(kind, workdir)?);
    }
    Ok(all)
}

/// Like [`verify_all`] but fails on the first mismatch — the guard the
/// table builders run before rendering.
pub fn assert_verified(workdir: &Path) -> Result<()> {
    let mismatches = verify_all(workdir)?;
    if mismatches.is_empty() {
        Ok(())
    } else {
        Err(GdmError::InvalidArgument(format!(
            "engine emulations diverge from the paper's recorded cells:\n{}",
            mismatches.join("\n")
        )))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn workdir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("gdm-probes-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn every_engine_matches_its_recorded_row() {
        let dir = workdir("all");
        let mismatches = verify_all(&dir).unwrap();
        assert!(
            mismatches.is_empty(),
            "emulations diverge from the paper:\n{}",
            mismatches.join("\n")
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn section_ii_classification() {
        let dir = workdir("classify");
        let (databases, stores) = classify(&dir).unwrap();
        // The paper: "Among the developments satisfying the above
        // condition, we found AllegroGraph, DEX, HypergraphDB,
        // InfiniteGraph, Neo4J and Sones" — the rest are graph stores.
        assert_eq!(
            databases,
            vec![
                "AllegroGraph",
                "DEX",
                "HyperGraphDB",
                "InfiniteGraph",
                "Neo4j",
                "Sones"
            ]
        );
        assert_eq!(stores, vec!["Filament", "G-Store", "VertexDB"]);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn probe_graph_builds_on_every_engine() {
        let dir = workdir("graph");
        for kind in EngineKind::all() {
            let sub = dir.join(kind.label().to_lowercase().replace('-', "_"));
            std::fs::create_dir_all(&sub).unwrap();
            let mut e = make_engine(kind, &sub).unwrap();
            let nodes = build_probe_graph(e.as_mut()).unwrap();
            assert_eq!(nodes.len(), 4, "{}", kind.label());
            assert!(e.adjacent(nodes[0], nodes[1]).unwrap(), "{}", kind.label());
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
