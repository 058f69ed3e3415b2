//! Bioinformatics — the HyperGraphDB motivation: "a natural
//! representation of higher-order relations ... particularly useful
//! for modeling data of areas like knowledge representation,
//! artificial intelligence and bio-informatics."
//!
//! A metabolic reaction relates an enzyme, substrates, and products
//! *in one relation* — a hyperedge — where a binary model would need
//! reified intermediate nodes. This example models a mini pathway and
//! annotates a relation with provenance (a link on a link, Table III's
//! "edges between edges").
//!
//! ```sh
//! cargo run --example bioinformatics
//! ```

use graph_db_models::core::{props, Result, Value};
use graph_db_models::engines::hypergraphdb;
use graph_db_models::engines::{GraphEngine, SummaryFunc};
use graph_db_models::graphs::hyper::AtomId;

fn main() -> Result<()> {
    let dir = std::env::temp_dir().join(format!("gdm-bio-{}", std::process::id()));
    std::fs::create_dir_all(&dir)?;
    let mut db = hypergraphdb::open(&dir)?;

    // Molecules and enzymes as typed atoms.
    let glucose = db.create_node(Some("metabolite"), props! { "name" => "glucose" })?;
    let g6p = db.create_node(
        Some("metabolite"),
        props! { "name" => "glucose-6-phosphate" },
    )?;
    let f6p = db.create_node(
        Some("metabolite"),
        props! { "name" => "fructose-6-phosphate" },
    )?;
    let atp = db.create_node(Some("cofactor"), props! { "name" => "ATP" })?;
    let adp = db.create_node(Some("cofactor"), props! { "name" => "ADP" })?;
    let hexokinase = db.create_node(Some("enzyme"), props! { "name" => "hexokinase" })?;
    let pgi = db.create_node(
        Some("enzyme"),
        props! { "name" => "phosphoglucose isomerase" },
    )?;

    // Reactions as hyperedges: enzyme + substrates + products in one
    // higher-order relation.
    let r1 = db.create_hyperedge(
        "reaction",
        &[hexokinase, glucose, atp, g6p, adp],
        props! { "ec" => "2.7.1.1", "delta_g" => -16.7 },
    )?;
    let _r2 = db.create_hyperedge(
        "reaction",
        &[pgi, g6p, f6p],
        props! { "ec" => "5.3.1.9", "delta_g" => 1.7 },
    )?;

    // Provenance annotation on the first reaction: a link whose target
    // is itself a link.
    let source = db.create_node(Some("publication"), props! { "doi" => "10.1042/example" })?;
    db.create_edge_on_edge(r1, source, "reported_in")?;

    println!(
        "pathway stored: {} atoms ({} molecules/enzymes, {} relations)\n",
        db.node_count() + db.edge_count(),
        db.node_count(),
        db.edge_count()
    );

    // Queries through the hypergraph API.
    println!(
        "glucose participates with: {:?}",
        db.view()
            .neighbors(AtomId(glucose.raw()))?
            .iter()
            .map(|a| db.view().property(*a, "name").cloned())
            .collect::<Vec<Option<Value>>>()
    );
    println!(
        "g6p is adjacent to f6p (shared reaction): {}",
        db.adjacent(g6p, f6p)?
    );
    println!(
        "hexokinase reaction arity: {}",
        db.view().arity(AtomId(r1.raw()))?
    );
    println!(
        "provenance links on r1: {:?}",
        db.view().incidence(AtomId(r1.raw()))?
    );

    // Identity constraint: metabolite names are unique (Table VI's
    // node/edge identity for HyperGraphDB).
    db.install_constraint(graph_db_models::schema::Constraint::Identity {
        type_name: "metabolite".into(),
        property: "name".into(),
    })?;
    let dup = db.create_node(Some("metabolite"), props! { "name" => "glucose" });
    println!("\nduplicate metabolite rejected: {}", dup.unwrap_err());

    // Property lookup through a hash index.
    db.create_index("name")?;
    let hits = db.lookup_by_property("name", &Value::from("ATP"))?;
    println!("index lookup for ATP: {hits:?}");

    println!(
        "degree stats over the 2-section: max degree = {}",
        db.summarize(SummaryFunc::MaxDegree)?
    );
    db.persist()?;
    Ok(())
}
