//! G-Store emulation.
//!
//! The paper: "G-Store is a basic storage manager for large
//! vertex-labeled graphs", pure external memory (Table I: external
//! only), with a DDL, an SQL-flavoured query language, and an API
//! (Table II). G-Store's research contribution was *placement*:
//! co-locating neighborhoods on disk pages. The emulation stores node
//! records (label + outgoing adjacency) in the slotted-page
//! [`HeapFile`] and exposes `GStoreEngine::recluster`, which rewrites
//! the heap in BFS order with placement hints — the knob the placement
//! ablation bench measures via buffer-pool fault counts.

use crate::engine::{Capability as C, Engine, Model, Profile};
use crate::facade::{EngineDescriptor, GraphEngine};
use gdm_algo::paths::{fixed_length_paths, shortest_path};
use gdm_core::{
    Direction, EdgeId, EdgeRef, FxHashMap, GdmError, GraphView, Interner, NodeId, PropertyMap,
    Result, Support, Symbol, Value,
};
use gdm_govern::{ExecutionGuard, Limits};
use gdm_query::eval::ResultSet;
use gdm_query::gsql::{self, GsqlStatement};
use gdm_storage::codec::{get_bytes, get_u64, get_varint, put_bytes, put_u64, put_varint};
use gdm_storage::pager::PoolStats;
use gdm_storage::{BufferPool, HeapFile, Rid};
use std::cell::RefCell;
use std::collections::VecDeque;
use std::path::{Path, PathBuf};
use std::time::Duration;

const PATH_BUDGET: usize = 1_000_000;
/// Buffer-pool frames — deliberately small so the external-memory
/// behaviour (page faults) is observable.
const POOL_FRAMES: usize = 64;

/// G-Store's row of the paper's tables.
pub static PROFILE: Profile = Profile::new(
    EngineDescriptor {
        name: "G-Store",
        gui: Support::None,
        graphical_ql: Support::None,
        query_language_grade: Support::Full,
        backend_storage: Support::None,
        blurb: "a basic storage manager for large vertex-labeled graphs on disk pages",
    },
    // A graph *store* without a query governor of its own: tight
    // harness defaults keep a runaway traversal from monopolizing the
    // page-partitioned backend.
    Limits {
        deadline: Some(Duration::from_secs(5)),
        max_node_visits: Some(1_000_000),
        max_edge_visits: None,
        max_rows: None,
    },
    &[
        (
            &[C::NodeProperties],
            "node attributes (vertex-labeled simple graph)",
        ),
        (&[C::EdgeLabels], "edge labels (vertex-labeled model)"),
        (&[C::EdgeProperties, C::SetEdgeAttribute], "edge attributes"),
        (&[C::Hyperedges], "hyperedges"),
        (&[C::EdgesOnEdges], "edges between edges"),
        (&[C::NestedGraphs], "nested graphs"),
        (
            &[C::SetNodeAttribute, C::ReadNodeAttribute],
            "node attributes",
        ),
        (&[C::NodeTypes], "schema definitions beyond vertex labels"),
        (&[C::EdgeTypes], "edge type definitions"),
        (&C::CONSTRAINTS, "integrity constraints"),
        (&[C::Dml], "a data manipulation language"),
        (&[C::Explain], "explain"),
        (&[C::Reasoning], "reasoning"),
        (&[C::Analysis], "analysis functions"),
        (&[C::PatternMatching], "pattern matching queries"),
        (
            &[C::PropertyAggregation],
            "property aggregation (no attributes)",
        ),
        (
            &[C::Transactions],
            "transactions (graph store, not a graph database)",
        ),
        (&[C::Indexes], "secondary indexes"),
        (&[C::PropertyLookup], "property lookups (no attributes)"),
    ],
);

/// The G-Store emulation.
pub type GStoreEngine = Engine<GStore>;

/// Opens (or creates) the store under `dir`.
pub fn open(dir: &Path) -> Result<GStoreEngine> {
    Ok(Engine::new(
        &PROFILE,
        GStore::open_file(&dir.join("gstore.pages"))?,
    ))
}

impl GStoreEngine {
    /// Rewrites the whole heap placing node records in BFS order with
    /// per-page clustering hints (G-Store's contribution). Returns the
    /// number of records moved.
    pub fn recluster(&mut self) -> Result<usize> {
        // Placement changes no answer, but the write is invisible to
        // the facade's bookkeeping all the same.
        let store = self.model_mut();
        // BFS order over all nodes (restarting per component).
        let mut order: Vec<u64> = Vec::with_capacity(store.nodes.len());
        let mut seen: std::collections::HashSet<u64> = std::collections::HashSet::new();
        let mut all: Vec<u64> = store.nodes.keys().copied().collect();
        all.sort_unstable();
        for &root in &all {
            if !seen.insert(root) {
                continue;
            }
            let mut queue = VecDeque::from([root]);
            while let Some(n) = queue.pop_front() {
                order.push(n);
                if let Ok(rec) = store.read_record(n) {
                    for &(_, to) in &rec.out {
                        if seen.insert(to) {
                            queue.push_back(to);
                        }
                    }
                }
            }
        }
        // Rewrite into a fresh heap file, filling pages in BFS order.
        let tmp = store.path.with_extension("recluster");
        let _ = std::fs::remove_file(&tmp);
        let mut fresh = HeapFile::new(BufferPool::file(&tmp, POOL_FRAMES)?)?;
        let mut new_rids: FxHashMap<u64, Rid> = FxHashMap::default();
        let mut last_page = None;
        for &n in &order {
            let rec = store.read_record(n)?;
            let rid = fresh.insert_hint(&rec.encode(), last_page)?;
            last_page = Some(rid.page);
            new_rids.insert(n, rid);
        }
        fresh.flush()?;
        drop(fresh);
        // Swap files and reopen.
        std::fs::rename(&tmp, &store.path)?;
        let heap = HeapFile::new(BufferPool::file(&store.path, POOL_FRAMES)?)?;
        store.heap = RefCell::new(heap);
        for (n, rid) in new_rids {
            if let Some(entry) = store.nodes.get_mut(&n) {
                entry.0 = rid;
            }
        }
        Ok(order.len())
    }
}

/// G-Store's substrate: node records (label + outgoing adjacency) in a
/// slotted-page heap file, read as a vertex-labeled simple graph.
pub struct GStore {
    heap: RefCell<HeapFile>,
    interner: Interner,
    /// node id → (record location, label symbol if labeled).
    nodes: FxHashMap<u64, (Rid, Option<Symbol>)>,
    /// edge id → (from, to).
    edges: FxHashMap<u64, (u64, u64)>,
    /// reverse adjacency, rebuilt on open.
    in_edges: FxHashMap<u64, Vec<(u64, u64)>>,
    next_node: u64,
    next_edge: u64,
    path: PathBuf,
}

impl GStore {
    fn open_file(path: &Path) -> Result<Self> {
        let heap = HeapFile::new(BufferPool::file(path, POOL_FRAMES)?)?;
        let mut store = Self {
            heap: RefCell::new(heap),
            interner: Interner::new(),
            nodes: FxHashMap::default(),
            edges: FxHashMap::default(),
            in_edges: FxHashMap::default(),
            next_node: 0,
            next_edge: 0,
            path: path.to_path_buf(),
        };
        store.rebuild_maps()?;
        Ok(store)
    }

    fn rebuild_maps(&mut self) -> Result<()> {
        let mut records: Vec<(Rid, Vec<u8>)> = Vec::new();
        self.heap
            .borrow_mut()
            .scan(&mut |rid, bytes| records.push((rid, bytes.to_vec())))?;
        for (rid, bytes) in records {
            let rec = NodeRecord::decode(&bytes)?;
            let sym = rec.label.as_deref().map(|l| self.interner.intern(l));
            self.nodes.insert(rec.id, (rid, sym));
            self.next_node = self.next_node.max(rec.id + 1);
            for &(edge, to) in &rec.out {
                self.edges.insert(edge, (rec.id, to));
                self.in_edges.entry(to).or_default().push((edge, rec.id));
                self.next_edge = self.next_edge.max(edge + 1);
            }
        }
        Ok(())
    }

    fn read_record(&self, n: u64) -> Result<NodeRecord> {
        let (rid, _) = self
            .nodes
            .get(&n)
            .ok_or_else(|| GdmError::NotFound(format!("node n{n}")))?;
        let bytes = self.heap.borrow_mut().get(*rid)?;
        NodeRecord::decode(&bytes)
    }

    fn write_record(&mut self, rec: &NodeRecord) -> Result<()> {
        let (rid, sym) = *self
            .nodes
            .get(&rec.id)
            .ok_or_else(|| GdmError::NotFound(format!("node n{}", rec.id)))?;
        let new_rid = self.heap.borrow_mut().update(rid, &rec.encode())?;
        self.nodes.insert(rec.id, (new_rid, sym));
        Ok(())
    }

    /// Buffer-pool statistics — the external-memory cost signal.
    pub fn pool_stats(&self) -> PoolStats {
        self.heap.borrow().pool_stats()
    }

    /// Zeroes buffer-pool statistics.
    pub fn reset_pool_stats(&self) {
        self.heap.borrow_mut().reset_pool_stats();
    }

    /// Runs a read statement of the GSQL dialect.
    fn select(&self, stmt: GsqlStatement) -> Result<ResultSet> {
        let single = |name: &str, v: Value| ResultSet {
            columns: vec![name.to_owned()],
            rows: vec![vec![v]],
        };
        let node_rows = |mut ids: Vec<u64>| {
            ids.sort_unstable();
            ResultSet {
                columns: vec!["node".into()],
                rows: ids
                    .into_iter()
                    .map(|i| vec![Value::Int(i as i64)])
                    .collect(),
            }
        };
        Ok(match stmt {
            GsqlStatement::CreateNode { .. } | GsqlStatement::CreateEdge { .. } => {
                return Err(GdmError::InvalidArgument(
                    "CREATE statements go through the DDL interface".into(),
                ))
            }
            GsqlStatement::SelectNodes { label: None } => {
                node_rows(self.nodes.keys().copied().collect())
            }
            GsqlStatement::SelectNodes { label: Some(l) } => {
                let sym = self.interner.get(&l);
                node_rows(
                    self.nodes
                        .iter()
                        .filter(|(_, (_, s))| *s == sym && sym.is_some())
                        .map(|(&id, _)| id)
                        .collect(),
                )
            }
            GsqlStatement::CountNodes => single("count", Value::Int(self.nodes.len() as i64)),
            GsqlStatement::CountEdges => single("count", Value::Int(self.edges.len() as i64)),
            GsqlStatement::ShortestPath { from, to } => {
                let row = match shortest_path(self, from, to, &ExecutionGuard::unlimited())? {
                    Some(p) => {
                        Value::List(p.nodes.iter().map(|n| Value::Int(n.raw() as i64)).collect())
                    }
                    None => Value::Null,
                };
                single("path", row)
            }
            GsqlStatement::FixedPaths { from, to, length } => {
                let count = fixed_length_paths(self, from, to, length, PATH_BUDGET)?.len();
                single("paths", Value::Int(count as i64))
            }
            GsqlStatement::Reachable { from } => node_rows(
                gdm_algo::paths::reachable_set(self, from, Direction::Outgoing)
                    .into_iter()
                    .collect(),
            ),
        })
    }
}

/// On-disk node record.
struct NodeRecord {
    id: u64,
    label: Option<String>,
    out: Vec<(u64, u64)>, // (edge id, target node)
}

impl NodeRecord {
    fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(32 + self.out.len() * 16);
        put_u64(&mut out, self.id);
        match &self.label {
            Some(l) => {
                out.push(1);
                put_bytes(&mut out, l.as_bytes());
            }
            None => out.push(0),
        }
        put_varint(&mut out, self.out.len() as u64);
        for &(edge, to) in &self.out {
            put_u64(&mut out, edge);
            put_u64(&mut out, to);
        }
        out
    }

    fn decode(buf: &[u8]) -> Result<Self> {
        let mut pos = 0;
        let id = get_u64(buf, &mut pos)?;
        let has_label = buf
            .get(pos)
            .copied()
            .ok_or_else(|| GdmError::Storage("truncated node record".into()))?;
        pos += 1;
        let label = if has_label == 1 {
            let bytes = get_bytes(buf, &mut pos)?;
            Some(
                std::str::from_utf8(bytes)
                    .map_err(|_| GdmError::Storage("bad label".into()))?
                    .to_owned(),
            )
        } else {
            None
        };
        let n = get_varint(buf, &mut pos)? as usize;
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            let edge = get_u64(buf, &mut pos)?;
            let to = get_u64(buf, &mut pos)?;
            out.push((edge, to));
        }
        Ok(Self { id, label, out })
    }
}

impl GraphView for GStore {
    fn is_directed(&self) -> bool {
        true
    }

    fn node_count(&self) -> usize {
        self.nodes.len()
    }

    fn edge_count(&self) -> usize {
        self.edges.len()
    }

    fn contains_node(&self, n: NodeId) -> bool {
        self.nodes.contains_key(&n.raw())
    }

    fn visit_nodes(&self, f: &mut dyn FnMut(NodeId)) {
        let mut ids: Vec<u64> = self.nodes.keys().copied().collect();
        ids.sort_unstable();
        for id in ids {
            f(NodeId(id));
        }
    }

    fn visit_out_edges(&self, n: NodeId, f: &mut dyn FnMut(EdgeRef)) {
        let Ok(rec) = self.read_record(n.raw()) else {
            return;
        };
        for (edge, to) in rec.out {
            f(EdgeRef::new(EdgeId(edge), n, NodeId(to)));
        }
    }

    fn visit_in_edges(&self, n: NodeId, f: &mut dyn FnMut(EdgeRef)) {
        let Some(list) = self.in_edges.get(&n.raw()) else {
            return;
        };
        for &(edge, from) in list {
            f(EdgeRef::new(EdgeId(edge), n, NodeId(from)));
        }
    }

    fn label_text(&self, sym: Symbol) -> Option<&str> {
        self.interner.resolve(sym)
    }
}

impl Model for GStore {
    type Graph = GStore;
    type Index = gdm_storage::HashIndex; // never built: the profile refuses indexes
    type Saved = (); // never taken: graph stores have no transaction engine

    fn graph(&self) -> &GStore {
        self
    }

    fn create_node(&mut self, label: Option<&str>, _props: PropertyMap) -> Result<NodeId> {
        let id = self.next_node;
        self.next_node += 1;
        let rec = NodeRecord {
            id,
            label: label.map(str::to_owned),
            out: Vec::new(),
        };
        let rid = self.heap.borrow_mut().insert(&rec.encode())?;
        let sym = label.map(|l| self.interner.intern(l));
        self.nodes.insert(id, (rid, sym));
        Ok(NodeId(id))
    }

    fn create_edge(
        &mut self,
        from: NodeId,
        to: NodeId,
        _label: Option<&str>,
        _props: PropertyMap,
    ) -> Result<EdgeId> {
        if !self.nodes.contains_key(&to.raw()) {
            return Err(GdmError::NotFound(format!("node {to}")));
        }
        let mut rec = self.read_record(from.raw())?;
        let edge = self.next_edge;
        self.next_edge += 1;
        rec.out.push((edge, to.raw()));
        self.write_record(&rec)?;
        self.edges.insert(edge, (from.raw(), to.raw()));
        self.in_edges
            .entry(to.raw())
            .or_default()
            .push((edge, from.raw()));
        Ok(EdgeId(edge))
    }

    fn delete_node(&mut self, n: NodeId) -> Result<()> {
        let rec = self.read_record(n.raw())?;
        // Remove outgoing edges.
        for (edge, to) in &rec.out {
            self.edges.remove(edge);
            if let Some(list) = self.in_edges.get_mut(to) {
                list.retain(|(e, _)| e != edge);
            }
        }
        // Remove incoming edges from their source records.
        let incoming = self.in_edges.remove(&n.raw()).unwrap_or_default();
        for (edge, from) in incoming {
            let mut source = self.read_record(from)?;
            source.out.retain(|(e, _)| *e != edge);
            self.write_record(&source)?;
            self.edges.remove(&edge);
        }
        let (rid, _) = self.nodes.remove(&n.raw()).expect("checked by read_record");
        self.heap.borrow_mut().delete(rid)?;
        Ok(())
    }

    fn delete_edge(&mut self, e: EdgeId) -> Result<()> {
        let (from, to) = self
            .edges
            .remove(&e.raw())
            .ok_or_else(|| GdmError::NotFound(format!("edge {e}")))?;
        let mut rec = self.read_record(from)?;
        rec.out.retain(|(edge, _)| *edge != e.raw());
        self.write_record(&rec)?;
        if let Some(list) = self.in_edges.get_mut(&to) {
            list.retain(|(edge, _)| *edge != e.raw());
        }
        Ok(())
    }

    fn execute_ddl(engine: &mut GStoreEngine, statement: &str) -> Result<()> {
        match gsql::parse(statement)? {
            GsqlStatement::CreateNode { label } => engine
                .create_node(Some(&label), PropertyMap::new())
                .map(drop),
            GsqlStatement::CreateEdge { from, to } => engine
                .create_edge(from, to, None, PropertyMap::new())
                .map(drop),
            _ => Err(GdmError::InvalidArgument(
                "not a DDL statement (use CREATE NODE / CREATE EDGE)".into(),
            )),
        }
    }

    fn execute_query(engine: &mut GStoreEngine, query: &str) -> Result<ResultSet> {
        engine.model().select(gsql::parse(query)?)
    }

    fn save(&self) {}

    fn restore(&mut self, (): ()) {}

    fn persist(&mut self) -> Result<()> {
        self.heap.borrow_mut().flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_engine(tag: &str) -> (GStoreEngine, PathBuf) {
        let dir = std::env::temp_dir().join(format!("gdm-gstore-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        (open(&dir).unwrap(), dir)
    }

    #[test]
    fn vertex_labeled_graph() {
        let (mut e, _d) = temp_engine("labels");
        let a = e.create_node(Some("gene"), PropertyMap::new()).unwrap();
        let b = e.create_node(Some("protein"), PropertyMap::new()).unwrap();
        e.create_edge(a, b, None, PropertyMap::new()).unwrap();
        assert!(e.adjacent(a, b).unwrap());
        // Edge labels are out of model.
        assert!(e
            .create_edge(a, b, Some("x"), PropertyMap::new())
            .unwrap_err()
            .is_unsupported());
    }

    #[test]
    fn query_language() {
        let (mut e, _d) = temp_engine("gsql");
        e.execute_ddl("CREATE NODE 'v'").unwrap();
        e.execute_ddl("CREATE NODE 'v'").unwrap();
        e.execute_ddl("CREATE NODE 'w'").unwrap();
        e.execute_ddl("CREATE EDGE 0 1").unwrap();
        e.execute_ddl("CREATE EDGE 1 2").unwrap();
        let rs = e.execute_query("SELECT NODES WITH LABEL 'v'").unwrap();
        assert_eq!(rs.len(), 2);
        let rs = e.execute_query("SELECT SHORTEST PATH FROM 0 TO 2").unwrap();
        assert_eq!(
            rs.rows[0][0],
            Value::List(vec![Value::Int(0), Value::Int(1), Value::Int(2)])
        );
        let rs = e
            .execute_query("SELECT PATHS FROM 0 TO 2 LENGTH 2")
            .unwrap();
        assert_eq!(rs.rows[0][0], Value::Int(1));
        let rs = e.execute_query("SELECT COUNT EDGES").unwrap();
        assert_eq!(rs.rows[0][0], Value::Int(2));
        assert!(e.execute_query("CREATE NODE 'v'").is_err());
        assert!(e.execute_dml("whatever").unwrap_err().is_unsupported());
    }

    #[test]
    fn deletion_maintains_records() {
        let (mut e, _d) = temp_engine("del");
        let a = e.create_node(Some("v"), PropertyMap::new()).unwrap();
        let b = e.create_node(Some("v"), PropertyMap::new()).unwrap();
        let c = e.create_node(Some("v"), PropertyMap::new()).unwrap();
        e.create_edge(a, b, None, PropertyMap::new()).unwrap();
        let eb = e.create_edge(b, c, None, PropertyMap::new()).unwrap();
        e.create_edge(c, a, None, PropertyMap::new()).unwrap();
        e.delete_edge(eb).unwrap();
        assert_eq!(GraphEngine::edge_count(&e), 2);
        assert!(!e.adjacent(b, c).unwrap());
        e.delete_node(a).unwrap();
        assert_eq!(GraphEngine::node_count(&e), 2);
        assert_eq!(GraphEngine::edge_count(&e), 0);
    }

    #[test]
    fn persistence_and_reopen() {
        let dir = std::env::temp_dir().join(format!("gdm-gstore-persist-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let (a, b);
        {
            let mut e = open(&dir).unwrap();
            a = e.create_node(Some("v"), PropertyMap::new()).unwrap();
            b = e.create_node(Some("w"), PropertyMap::new()).unwrap();
            e.create_edge(a, b, None, PropertyMap::new()).unwrap();
            e.persist().unwrap();
        }
        {
            let e = open(&dir).unwrap();
            assert_eq!(GraphEngine::node_count(&e), 2);
            assert!(e.adjacent(a, b).unwrap());
            assert_eq!(e.k_neighborhood(a, 1).unwrap(), vec![b]);
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn recluster_preserves_graph() {
        let (mut e, _d) = temp_engine("recluster");
        let nodes: Vec<NodeId> = (0..50)
            .map(|_| e.create_node(Some("v"), PropertyMap::new()).unwrap())
            .collect();
        for i in 0..49 {
            e.create_edge(nodes[i], nodes[i + 1], None, PropertyMap::new())
                .unwrap();
        }
        let before: Vec<NodeId> = e.k_neighborhood(nodes[0], 49).unwrap();
        let moved = e.recluster().unwrap();
        assert_eq!(moved, 50);
        let after: Vec<NodeId> = e.k_neighborhood(nodes[0], 49).unwrap();
        assert_eq!(before, after);
        assert_eq!(GraphEngine::edge_count(&e), 49);
    }
}
