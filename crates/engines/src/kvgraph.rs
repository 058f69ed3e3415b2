//! A simple graph layered over any [`KvStore`] — the shared substrate
//! for the "graph store on a key/value backend" engines (Filament on
//! JDB, VertexDB on TokyoCabinet).
//!
//! Layout (all integers big-endian via `gdm_storage::codec`):
//!
//! ```text
//! m/meta            → next_node, next_edge, node_count, edge_count
//! m/syms            → interned label table
//! n/<node>          → label symbol, property map
//! e/<edge>          → from, to, label symbol, property map
//! o/<from><edge>    → to, label symbol      (out adjacency)
//! i/<to><edge>      → from, label symbol    (in adjacency)
//! ```
//!
//! Reads go through a `RefCell` because disk-backed stores mutate
//! their buffer pool on reads; the structure is single-threaded like
//! the embedded stores it models.

use crate::engine::Model;
use gdm_core::{
    AttributedView, EdgeId, EdgeRef, GdmError, GraphView, Interner, NodeId, PropertyMap, Result,
    Symbol, Value,
};
use gdm_storage::codec::{
    decode_value, encode_value, get_bytes, get_u32, get_u64, get_varint, put_bytes, put_u32,
    put_u64, put_varint,
};
use gdm_storage::KvStore;
use std::cell::RefCell;

const NO_LABEL: u32 = u32::MAX;

/// A labeled simple multigraph stored in a KV backend.
pub struct KvGraph {
    kv: RefCell<Box<dyn KvStore>>,
    interner: Interner,
    next_node: u64,
    next_edge: u64,
    node_count: u64,
    edge_count: u64,
}

impl KvGraph {
    /// Opens the graph stored in `kv`, creating it when empty.
    pub fn new(kv: Box<dyn KvStore>) -> Result<Self> {
        let mut g = Self {
            kv: RefCell::new(kv),
            interner: Interner::new(),
            next_node: 0,
            next_edge: 0,
            node_count: 0,
            edge_count: 0,
        };
        let meta = g.kv.borrow_mut().get(b"m/meta")?;
        if let Some(buf) = meta {
            let mut pos = 0;
            g.next_node = get_u64(&buf, &mut pos)?;
            g.next_edge = get_u64(&buf, &mut pos)?;
            g.node_count = get_u64(&buf, &mut pos)?;
            g.edge_count = get_u64(&buf, &mut pos)?;
        }
        if let Some(buf) = g.kv.borrow_mut().get(b"m/syms")? {
            let mut pos = 0;
            let count = get_varint(&buf, &mut pos)?;
            for _ in 0..count {
                let s = get_bytes(&buf, &mut pos)?;
                let text = std::str::from_utf8(s)
                    .map_err(|_| GdmError::Storage("bad symbol table".into()))?;
                g.interner.intern(text);
            }
        }
        Ok(g)
    }

    /// Writes metadata and flushes the backend.
    pub fn flush(&mut self) -> Result<()> {
        let mut meta = Vec::with_capacity(32);
        put_u64(&mut meta, self.next_node);
        put_u64(&mut meta, self.next_edge);
        put_u64(&mut meta, self.node_count);
        put_u64(&mut meta, self.edge_count);
        let mut kv = self.kv.borrow_mut();
        kv.put(b"m/meta", &meta)?;
        let mut syms = Vec::new();
        put_varint(&mut syms, self.interner.len() as u64);
        for (_, text) in self.interner.iter() {
            put_bytes(&mut syms, text.as_bytes());
        }
        kv.put(b"m/syms", &syms)?;
        kv.flush()
    }

    /// Adds a node.
    pub fn add_node(&mut self, label: Option<&str>, props: &PropertyMap) -> Result<NodeId> {
        let sym = match label {
            Some(l) => self.interner.intern(l).raw(),
            None => NO_LABEL,
        };
        let id = self.next_node;
        self.next_node += 1;
        let mut rec = Vec::new();
        put_u32(&mut rec, sym);
        encode_props(&mut rec, props);
        self.kv.borrow_mut().put(&node_key(id), &rec)?;
        self.node_count += 1;
        Ok(NodeId(id))
    }

    /// Adds an edge.
    pub fn add_edge(
        &mut self,
        from: NodeId,
        to: NodeId,
        label: Option<&str>,
        props: &PropertyMap,
    ) -> Result<EdgeId> {
        self.require_node(from)?;
        self.require_node(to)?;
        let sym = match label {
            Some(l) => self.interner.intern(l).raw(),
            None => NO_LABEL,
        };
        let id = self.next_edge;
        self.next_edge += 1;
        let mut rec = Vec::new();
        put_u64(&mut rec, from.raw());
        put_u64(&mut rec, to.raw());
        put_u32(&mut rec, sym);
        encode_props(&mut rec, props);
        let mut adj = Vec::with_capacity(12);
        put_u64(&mut adj, to.raw());
        put_u32(&mut adj, sym);
        let mut radj = Vec::with_capacity(12);
        put_u64(&mut radj, from.raw());
        put_u32(&mut radj, sym);
        let mut kv = self.kv.borrow_mut();
        kv.put(&edge_key(id), &rec)?;
        kv.put(&adj_key(b'o', from.raw(), id), &adj)?;
        kv.put(&adj_key(b'i', to.raw(), id), &radj)?;
        drop(kv);
        self.edge_count += 1;
        Ok(EdgeId(id))
    }

    /// Reads an edge's `(from, to, label)`.
    pub fn edge(&self, e: EdgeId) -> Result<(NodeId, NodeId, Option<Symbol>)> {
        let rec = self
            .kv
            .borrow_mut()
            .get(&edge_key(e.raw()))?
            .ok_or_else(|| GdmError::NotFound(format!("edge {e}")))?;
        let mut pos = 0;
        let from = get_u64(&rec, &mut pos)?;
        let to = get_u64(&rec, &mut pos)?;
        let sym = get_u32(&rec, &mut pos)?;
        Ok((
            NodeId(from),
            NodeId(to),
            (sym != NO_LABEL).then_some(Symbol(sym)),
        ))
    }

    /// Node label text.
    pub fn node_label(&self, n: NodeId) -> Result<Option<String>> {
        let rec = self.node_record(n)?;
        let mut pos = 0;
        let sym = get_u32(&rec, &mut pos)?;
        Ok((sym != NO_LABEL)
            .then(|| self.interner.resolve(Symbol(sym)).map(str::to_owned))
            .flatten())
    }

    /// Node properties.
    pub fn node_props(&self, n: NodeId) -> Result<PropertyMap> {
        let rec = self.node_record(n)?;
        let mut pos = 4;
        decode_props(&rec, &mut pos)
    }

    /// Sets a node property.
    pub fn set_node_prop(&mut self, n: NodeId, key: &str, value: Value) -> Result<()> {
        let rec = self.node_record(n)?;
        let mut pos = 0;
        let sym = get_u32(&rec, &mut pos)?;
        let mut props = decode_props(&rec, &mut pos)?;
        props.set(key, value);
        let mut out = Vec::new();
        put_u32(&mut out, sym);
        encode_props(&mut out, &props);
        self.kv.borrow_mut().put(&node_key(n.raw()), &out)?;
        Ok(())
    }

    /// Edge properties.
    pub fn edge_props(&self, e: EdgeId) -> Result<PropertyMap> {
        let rec = self
            .kv
            .borrow_mut()
            .get(&edge_key(e.raw()))?
            .ok_or_else(|| GdmError::NotFound(format!("edge {e}")))?;
        let mut pos = 20; // from + to + sym
        decode_props(&rec, &mut pos)
    }

    /// Deletes an edge.
    pub fn delete_edge(&mut self, e: EdgeId) -> Result<()> {
        let (from, to, _) = self.edge(e)?;
        let mut kv = self.kv.borrow_mut();
        kv.delete(&edge_key(e.raw()))?;
        kv.delete(&adj_key(b'o', from.raw(), e.raw()))?;
        kv.delete(&adj_key(b'i', to.raw(), e.raw()))?;
        drop(kv);
        self.edge_count -= 1;
        Ok(())
    }

    /// Deletes a node and its incident edges.
    pub fn delete_node(&mut self, n: NodeId) -> Result<()> {
        self.require_node(n)?;
        let mut incident = Vec::new();
        self.visit_out_edges(n, &mut |e| incident.push(e.id));
        self.visit_in_edges(n, &mut |e| incident.push(e.id));
        incident.sort_unstable();
        incident.dedup();
        for e in incident {
            self.delete_edge(e)?;
        }
        self.kv.borrow_mut().delete(&node_key(n.raw()))?;
        self.node_count -= 1;
        Ok(())
    }

    fn node_record(&self, n: NodeId) -> Result<Vec<u8>> {
        self.kv
            .borrow_mut()
            .get(&node_key(n.raw()))?
            .ok_or_else(|| GdmError::NotFound(format!("node {n}")))
    }

    fn require_node(&self, n: NodeId) -> Result<()> {
        self.node_record(n).map(|_| ())
    }

    fn visit_adjacency(&self, tag: u8, n: NodeId, f: &mut dyn FnMut(EdgeRef)) {
        let prefix = adj_prefix(tag, n.raw());
        let entries = self
            .kv
            .borrow_mut()
            .scan_prefix(&prefix)
            .expect("kv scan cannot fail on read");
        for (key, value) in entries {
            let mut pos = prefix.len();
            let Ok(edge) = get_u64(&key, &mut pos) else {
                continue;
            };
            let mut vpos = 0;
            let Ok(other) = get_u64(&value, &mut vpos) else {
                continue;
            };
            let Ok(sym) = get_u32(&value, &mut vpos) else {
                continue;
            };
            f(EdgeRef {
                id: EdgeId(edge),
                from: n,
                to: NodeId(other),
                label: (sym != NO_LABEL).then_some(Symbol(sym)),
            });
        }
    }
}

impl GraphView for KvGraph {
    fn is_directed(&self) -> bool {
        true
    }

    fn node_count(&self) -> usize {
        self.node_count as usize
    }

    fn edge_count(&self) -> usize {
        self.edge_count as usize
    }

    fn contains_node(&self, n: NodeId) -> bool {
        self.node_record(n).is_ok()
    }

    fn visit_nodes(&self, f: &mut dyn FnMut(NodeId)) {
        let entries = self
            .kv
            .borrow_mut()
            .scan_prefix(b"n/")
            .expect("kv scan cannot fail on read");
        for (key, _) in entries {
            let mut pos = 2;
            if let Ok(id) = get_u64(&key, &mut pos) {
                f(NodeId(id));
            }
        }
    }

    fn visit_out_edges(&self, n: NodeId, f: &mut dyn FnMut(EdgeRef)) {
        self.visit_adjacency(b'o', n, f);
    }

    fn visit_in_edges(&self, n: NodeId, f: &mut dyn FnMut(EdgeRef)) {
        self.visit_adjacency(b'i', n, f);
    }

    fn label_text(&self, sym: Symbol) -> Option<&str> {
        self.interner.resolve(sym)
    }
}

/// Both graph-store profiles refuse every read that could see
/// attributes (pattern matching, attribute reads and lookups), so the
/// view reports none and snapshots hold the structure with its edge
/// labels only.
impl AttributedView for KvGraph {
    fn node_label(&self, _n: NodeId) -> Option<Symbol> {
        None
    }

    fn node_property(&self, _n: NodeId, _key: &str) -> Option<Value> {
        None
    }

    fn edge_property(&self, _e: EdgeId, _key: &str) -> Option<Value> {
        None
    }
}

/// The graph-store model: Filament and VertexDB are this substrate
/// over different backends, told apart by their profiles alone.
impl Model for KvGraph {
    type Graph = KvGraph;
    type Index = gdm_storage::HashIndex; // never built: both profiles refuse indexes
    type Saved = (); // never taken: graph stores have no transaction engine

    fn graph(&self) -> &KvGraph {
        self
    }

    fn create_node(&mut self, label: Option<&str>, props: PropertyMap) -> Result<NodeId> {
        self.add_node(label, &props)
    }

    fn create_edge(
        &mut self,
        from: NodeId,
        to: NodeId,
        label: Option<&str>,
        props: PropertyMap,
    ) -> Result<EdgeId> {
        self.add_edge(from, to, label, &props)
    }

    fn delete_node(&mut self, n: NodeId) -> Result<()> {
        KvGraph::delete_node(self, n)
    }

    fn delete_edge(&mut self, e: EdgeId) -> Result<()> {
        KvGraph::delete_edge(self, e)
    }

    fn save(&self) {}

    fn restore(&mut self, (): ()) {}

    fn persist(&mut self) -> Result<()> {
        self.flush()
    }
}

fn node_key(id: u64) -> Vec<u8> {
    let mut k = b"n/".to_vec();
    put_u64(&mut k, id);
    k
}

fn edge_key(id: u64) -> Vec<u8> {
    let mut k = b"e/".to_vec();
    put_u64(&mut k, id);
    k
}

fn adj_prefix(tag: u8, node: u64) -> Vec<u8> {
    let mut k = vec![tag, b'/'];
    put_u64(&mut k, node);
    k
}

fn adj_key(tag: u8, node: u64, edge: u64) -> Vec<u8> {
    let mut k = adj_prefix(tag, node);
    put_u64(&mut k, edge);
    k
}

fn encode_props(out: &mut Vec<u8>, props: &PropertyMap) {
    put_varint(out, props.len() as u64);
    for (k, v) in props {
        put_bytes(out, k.as_bytes());
        encode_value(out, v);
    }
}

fn decode_props(buf: &[u8], pos: &mut usize) -> Result<PropertyMap> {
    let count = get_varint(buf, pos)?;
    let mut props = PropertyMap::new();
    for _ in 0..count {
        let key = std::str::from_utf8(get_bytes(buf, pos)?)
            .map_err(|_| GdmError::Storage("bad property key".into()))?
            .to_owned();
        let value = decode_value(buf, pos)?;
        props.set(key, value);
    }
    Ok(props)
}

#[cfg(test)]
mod tests {
    use super::*;
    use gdm_core::props;
    use gdm_storage::{DiskBTree, MemKv};

    fn mem_graph() -> KvGraph {
        KvGraph::new(Box::new(MemKv::new())).unwrap()
    }

    #[test]
    fn nodes_and_edges_round_trip() {
        let mut g = mem_graph();
        let a = g
            .add_node(Some("doc"), &props! { "title" => "intro" })
            .unwrap();
        let b = g.add_node(None, &props! {}).unwrap();
        let e = g
            .add_edge(a, b, Some("links"), &props! { "rank" => 3 })
            .unwrap();
        assert_eq!(g.node_count(), 2);
        assert_eq!(g.edge_count(), 1);
        assert_eq!(g.node_label(a).unwrap().as_deref(), Some("doc"));
        assert_eq!(g.node_label(b).unwrap(), None);
        assert_eq!(
            g.node_props(a).unwrap().get("title"),
            Some(&Value::from("intro"))
        );
        assert_eq!(g.edge_props(e).unwrap().get("rank"), Some(&Value::from(3)));
        let (f, t, sym) = g.edge(e).unwrap();
        assert_eq!((f, t), (a, b));
        assert_eq!(g.label_text(sym.unwrap()), Some("links"));
    }

    #[test]
    fn adjacency_scans() {
        let mut g = mem_graph();
        let a = g.add_node(None, &props! {}).unwrap();
        let b = g.add_node(None, &props! {}).unwrap();
        let c = g.add_node(None, &props! {}).unwrap();
        g.add_edge(a, b, Some("x"), &props! {}).unwrap();
        g.add_edge(a, c, Some("y"), &props! {}).unwrap();
        g.add_edge(b, c, Some("x"), &props! {}).unwrap();
        assert_eq!(g.out_neighbors(a), vec![b, c]);
        assert_eq!(g.in_degree(c), 2);
        assert_eq!(g.out_degree(c), 0);
    }

    #[test]
    fn deletion_cleans_adjacency() {
        let mut g = mem_graph();
        let a = g.add_node(None, &props! {}).unwrap();
        let b = g.add_node(None, &props! {}).unwrap();
        let e = g.add_edge(a, b, None, &props! {}).unwrap();
        g.delete_edge(e).unwrap();
        assert_eq!(g.edge_count(), 0);
        assert_eq!(g.out_degree(a), 0);
        assert!(g.edge(e).is_err());

        let e2 = g.add_edge(a, b, None, &props! {}).unwrap();
        g.add_edge(b, a, None, &props! {}).unwrap();
        g.delete_node(a).unwrap();
        assert_eq!(g.node_count(), 1);
        assert_eq!(g.edge_count(), 0);
        assert!(g.edge(e2).is_err());
    }

    #[test]
    fn set_node_prop_overwrites() {
        let mut g = mem_graph();
        let a = g.add_node(Some("n"), &props! { "v" => 1 }).unwrap();
        g.set_node_prop(a, "v", Value::from(2)).unwrap();
        g.set_node_prop(a, "w", Value::from("new")).unwrap();
        let p = g.node_props(a).unwrap();
        assert_eq!(p.get("v"), Some(&Value::from(2)));
        assert_eq!(p.get("w"), Some(&Value::from("new")));
        assert_eq!(g.node_label(a).unwrap().as_deref(), Some("n"));
    }

    #[test]
    fn persists_over_disk_btree() {
        let dir = std::env::temp_dir().join(format!("gdm-kvgraph-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("kvgraph.db");
        let _ = std::fs::remove_file(&path);
        let (a, b);
        {
            let tree = DiskBTree::file(&path, 32).unwrap();
            let mut g = KvGraph::new(Box::new(tree)).unwrap();
            a = g.add_node(Some("page"), &props! { "url" => "/" }).unwrap();
            b = g.add_node(Some("page"), &props! {}).unwrap();
            g.add_edge(a, b, Some("links"), &props! {}).unwrap();
            g.flush().unwrap();
        }
        {
            let tree = DiskBTree::file(&path, 32).unwrap();
            let g = KvGraph::new(Box::new(tree)).unwrap();
            assert_eq!(g.node_count(), 2);
            assert_eq!(g.edge_count(), 1);
            assert_eq!(g.node_label(a).unwrap().as_deref(), Some("page"));
            assert_eq!(g.out_neighbors(a), vec![b]);
            let e = g.out_edges(a)[0];
            assert_eq!(g.label_text(e.label.unwrap()), Some("links"));
        }
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn missing_entities_error() {
        let mut g = mem_graph();
        let a = g.add_node(None, &props! {}).unwrap();
        assert!(g.add_edge(a, NodeId(99), None, &props! {}).is_err());
        assert!(g.node_props(NodeId(5)).is_err());
        assert!(g.delete_edge(EdgeId(0)).is_err());
    }
}
