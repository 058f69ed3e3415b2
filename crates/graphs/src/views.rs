//! Supplementary view-trait implementations.
//!
//! The essential-query algorithms in `gdm-algo` are generic over
//! [`AttributedView`] (pattern matching). `PropertyGraph` implements
//! it in its own module; the remaining structures pick up their
//! implementations here so every model of Table III can run every
//! essential query.

use crate::hyper::{AtomId, HyperGraph};
use crate::nested::NestedGraph;
use crate::rdf::RdfGraph;
use crate::simple::SimpleGraph;
use gdm_core::{AttributedView, EdgeId, NodeId, Symbol, Value};

impl AttributedView for SimpleGraph {
    fn node_label(&self, n: NodeId) -> Option<Symbol> {
        // SimpleGraph stores labels as interned symbols internally;
        // surface them through the label text lookup.
        self.node_label(n).and_then(|text| self.label_symbol(text))
    }

    fn node_property(&self, _n: NodeId, _key: &str) -> Option<Value> {
        None // simple graphs carry no attributes (Table III)
    }

    fn edge_property(&self, _e: EdgeId, _key: &str) -> Option<Value> {
        None
    }
}

impl AttributedView for NestedGraph {
    fn node_label(&self, n: NodeId) -> Option<Symbol> {
        let text = self.node_label_text(n).ok()?;
        self.label_symbol(text)
    }

    fn node_property(&self, n: NodeId, key: &str) -> Option<Value> {
        self.node_properties(n).ok()?.get(key).cloned()
    }

    fn edge_property(&self, _e: EdgeId, _key: &str) -> Option<Value> {
        None
    }

    fn visit_node_properties(&self, n: NodeId, f: &mut dyn FnMut(&str, &Value)) {
        // Without this hook a frozen snapshot would keep the labels but
        // silently drop the attributes `node_property` can see.
        if let Ok(props) = self.node_properties(n) {
            for (k, v) in props {
                f(k, v);
            }
        }
    }
}

impl AttributedView for HyperGraph {
    fn node_label(&self, n: NodeId) -> Option<Symbol> {
        let text = self.label(AtomId(n.raw())).ok()?;
        self.label_symbol(text)
    }

    fn node_property(&self, n: NodeId, key: &str) -> Option<Value> {
        self.property(AtomId(n.raw()), key).cloned()
    }

    fn edge_property(&self, e: EdgeId, key: &str) -> Option<Value> {
        // Edge ids in the two-section are link atom ids.
        self.property(AtomId(e.raw()), key).cloned()
    }

    // Enumeration hooks: HyperGraphDB and Sones freeze this view for
    // their serving snapshots, so without these the snapshot would
    // carry labels but no attributes — a property predicate that
    // matches live data would silently return nothing when served.
    fn visit_node_properties(&self, n: NodeId, f: &mut dyn FnMut(&str, &Value)) {
        if let Some(props) = self.properties(AtomId(n.raw())) {
            for (k, v) in props {
                f(k, v);
            }
        }
    }

    fn visit_edge_properties(&self, e: EdgeId, f: &mut dyn FnMut(&str, &Value)) {
        if let Some(props) = self.properties(AtomId(e.raw())) {
            for (k, v) in props {
                f(k, v);
            }
        }
    }
}

impl AttributedView for RdfGraph {
    // This profile *legitimately* lacks properties, as opposed to a
    // view that loses them: RDF expresses every value as a triple with
    // a literal object, and literals are nodes of this view, so a
    // frozen snapshot preserves exactly what the live view exposes.
    // (Contrast `HyperGraph`, whose atoms do carry attributes and
    // therefore needs the enumeration hooks above.)
    fn node_label(&self, _n: NodeId) -> Option<Symbol> {
        None // RDF terms are identities, not typed labels
    }

    fn node_property(&self, _n: NodeId, _key: &str) -> Option<Value> {
        None // attribute access happens at the triple level (SPARQL)
    }

    fn edge_property(&self, _e: EdgeId, _key: &str) -> Option<Value> {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gdm_core::props;
    use gdm_core::GraphView;

    #[test]
    fn simple_graph_attributed_view() {
        let mut g = SimpleGraph::directed();
        let a = g.add_labeled_node("city");
        let view: &dyn AttributedView = &g;
        let sym = view.node_label(a).unwrap();
        assert_eq!(g.label_text(sym), Some("city"));
        assert_eq!(view.node_property(a, "x"), None);
    }

    #[test]
    fn nested_graph_attributed_view() {
        let mut g = NestedGraph::new();
        let a = g.add_node("box", props! { "x" => 7 });
        let view: &dyn AttributedView = &g;
        let sym = view.node_label(a).unwrap();
        assert_eq!(g.label_text(sym), Some("box"));
        assert_eq!(view.node_property(a, "x"), Some(Value::from(7)));
    }

    #[test]
    fn two_section_attributed_view() {
        let mut h = crate::hyper::HyperGraph::new();
        let a = h.add_node("gene", props! { "name" => "tp53" });
        let b = h.add_node("gene", props! {});
        h.add_link("binds", &[a, b], props! { "score" => 0.8 })
            .unwrap();
        let view = &h;
        let n = NodeId(a.raw());
        let sym = AttributedView::node_label(view, n).unwrap();
        assert_eq!(GraphView::label_text(view, sym), Some("gene"));
        assert_eq!(
            AttributedView::node_property(view, n, "name"),
            Some(Value::from("tp53"))
        );
        let e = view.out_edges(n)[0];
        assert_eq!(
            AttributedView::edge_property(view, e.id, "score"),
            Some(Value::from(0.8))
        );
    }
}
