//! Durable mode for the engine facade: logical-operation journaling
//! over the `gdm-wal` subsystem.
//!
//! [`DurableEngine`] wraps any [`GraphEngine`] and records every
//! successful data mutation as a *logical operation* in a write-ahead
//! log. The journal is the log: each operation is one `Put` record
//! whose key is the operation's sequence number (8 bytes, big-endian)
//! and whose value is [`LogicalOp::encode`], appended straight to a
//! [`Wal`], so group commit, segment rotation and torn-tail recovery
//! come from `gdm-wal` unchanged and no copy of the journal is kept in
//! memory. On reopen, [`Wal::open`] streams the committed operations in
//! log order and the wrapper re-applies each to a fresh engine. Engines
//! allocate ids deterministically, and a rollback rewinds the
//! allocators with the rest of the model, so replaying only the
//! committed operations reproduces the exact same `NodeId`/`EdgeId`
//! assignment.
//!
//! Facade transactions map one-to-one onto log transactions:
//! operations inside `begin_transaction`…`commit_transaction` become
//! durable atomically, and a crash before the commit record is synced
//! discards them all.
//!
//! Deliberate limits (returned as the structured
//! [`GdmError::NotJournalable`], recorded in `ROADMAP.md`): schema DDL
//! through the typed API (`define_node_type`, `define_edge_type`,
//! `install_constraint`) is not journaled because the schema
//! definition types have no stable byte encoding yet — the error names
//! that limitation and the workarounds. Textual DDL/DML
//! (`execute_ddl`/`execute_dml`) *is* journaled — the statement text
//! is its own encoding.

use crate::facade::{
    make_engine, AnalysisFunc, EngineDescriptor, EngineKind, GraphEngine, SummaryFunc,
};
use gdm_algo::pattern::Pattern;
use gdm_core::{EdgeId, GdmError, NodeId, PropertyMap, Result, Value};
use gdm_query::eval::ResultSet;
use gdm_schema::Constraint;
use gdm_storage::codec;
use gdm_wal::{Record, RecoveryReport, Wal, WalFs, WalOptions};
use std::path::{Path, PathBuf};

/// One journaled mutation, in facade terms.
#[derive(Debug, Clone, PartialEq)]
pub enum LogicalOp {
    /// `create_node`.
    CreateNode {
        /// Node label, when the model has them.
        label: Option<String>,
        /// Initial properties.
        props: PropertyMap,
    },
    /// `create_edge`.
    CreateEdge {
        /// Source node.
        from: NodeId,
        /// Target node.
        to: NodeId,
        /// Edge label.
        label: Option<String>,
        /// Initial properties.
        props: PropertyMap,
    },
    /// `create_hyperedge`.
    CreateHyperedge {
        /// Hyperedge label.
        label: String,
        /// Connected nodes.
        targets: Vec<NodeId>,
        /// Initial properties.
        props: PropertyMap,
    },
    /// `create_edge_on_edge`.
    CreateEdgeOnEdge {
        /// Source edge.
        from: EdgeId,
        /// Target node.
        to: NodeId,
        /// Edge label.
        label: String,
    },
    /// `set_node_attribute`.
    SetNodeAttr {
        /// The node.
        node: NodeId,
        /// Attribute name.
        key: String,
        /// New value.
        value: Value,
    },
    /// `set_edge_attribute`.
    SetEdgeAttr {
        /// The edge.
        edge: EdgeId,
        /// Attribute name.
        key: String,
        /// New value.
        value: Value,
    },
    /// `delete_node`.
    DeleteNode {
        /// The node.
        node: NodeId,
    },
    /// `delete_edge`.
    DeleteEdge {
        /// The edge.
        edge: EdgeId,
    },
    /// `execute_ddl`.
    Ddl {
        /// Statement text.
        statement: String,
    },
    /// `execute_dml`.
    Dml {
        /// Statement text.
        statement: String,
    },
    /// `create_index`.
    CreateIndex {
        /// Indexed property name.
        property: String,
    },
}

const OP_CREATE_NODE: u8 = 1;
const OP_CREATE_EDGE: u8 = 2;
const OP_CREATE_HYPEREDGE: u8 = 3;
const OP_CREATE_EDGE_ON_EDGE: u8 = 4;
const OP_SET_NODE_ATTR: u8 = 5;
const OP_SET_EDGE_ATTR: u8 = 6;
const OP_DELETE_NODE: u8 = 7;
const OP_DELETE_EDGE: u8 = 8;
const OP_DDL: u8 = 9;
const OP_DML: u8 = 10;
const OP_CREATE_INDEX: u8 = 11;

fn put_str(out: &mut Vec<u8>, s: &str) {
    codec::put_bytes(out, s.as_bytes());
}

fn get_str(buf: &[u8], pos: &mut usize) -> Result<String> {
    let bytes = codec::get_bytes(buf, pos)?;
    String::from_utf8(bytes.to_vec())
        .map_err(|_| GdmError::Storage("non-UTF-8 string in journal".into()))
}

fn put_opt_str(out: &mut Vec<u8>, s: &Option<String>) {
    match s {
        Some(s) => {
            out.push(1);
            put_str(out, s);
        }
        None => out.push(0),
    }
}

fn get_opt_str(buf: &[u8], pos: &mut usize) -> Result<Option<String>> {
    let flag = *buf
        .get(*pos)
        .ok_or_else(|| GdmError::Storage("journal op truncated".into()))?;
    *pos += 1;
    Ok(match flag {
        0 => None,
        _ => Some(get_str(buf, pos)?),
    })
}

fn put_props(out: &mut Vec<u8>, props: &PropertyMap) {
    codec::put_varint(out, props.len() as u64);
    for (k, v) in props.iter() {
        put_str(out, k);
        codec::encode_value(out, v);
    }
}

fn get_props(buf: &[u8], pos: &mut usize) -> Result<PropertyMap> {
    let count = codec::get_varint(buf, pos)?;
    let mut props = PropertyMap::new();
    for _ in 0..count {
        let k = get_str(buf, pos)?;
        let v = codec::decode_value(buf, pos)?;
        props.set(k, v);
    }
    Ok(props)
}

impl LogicalOp {
    /// Encodes the operation for the journal.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        match self {
            LogicalOp::CreateNode { label, props } => {
                out.push(OP_CREATE_NODE);
                put_opt_str(&mut out, label);
                put_props(&mut out, props);
            }
            LogicalOp::CreateEdge {
                from,
                to,
                label,
                props,
            } => {
                out.push(OP_CREATE_EDGE);
                codec::put_varint(&mut out, from.raw());
                codec::put_varint(&mut out, to.raw());
                put_opt_str(&mut out, label);
                put_props(&mut out, props);
            }
            LogicalOp::CreateHyperedge {
                label,
                targets,
                props,
            } => {
                out.push(OP_CREATE_HYPEREDGE);
                put_str(&mut out, label);
                codec::put_varint(&mut out, targets.len() as u64);
                for t in targets {
                    codec::put_varint(&mut out, t.raw());
                }
                put_props(&mut out, props);
            }
            LogicalOp::CreateEdgeOnEdge { from, to, label } => {
                out.push(OP_CREATE_EDGE_ON_EDGE);
                codec::put_varint(&mut out, from.raw());
                codec::put_varint(&mut out, to.raw());
                put_str(&mut out, label);
            }
            LogicalOp::SetNodeAttr { node, key, value } => {
                out.push(OP_SET_NODE_ATTR);
                codec::put_varint(&mut out, node.raw());
                put_str(&mut out, key);
                codec::encode_value(&mut out, value);
            }
            LogicalOp::SetEdgeAttr { edge, key, value } => {
                out.push(OP_SET_EDGE_ATTR);
                codec::put_varint(&mut out, edge.raw());
                put_str(&mut out, key);
                codec::encode_value(&mut out, value);
            }
            LogicalOp::DeleteNode { node } => {
                out.push(OP_DELETE_NODE);
                codec::put_varint(&mut out, node.raw());
            }
            LogicalOp::DeleteEdge { edge } => {
                out.push(OP_DELETE_EDGE);
                codec::put_varint(&mut out, edge.raw());
            }
            LogicalOp::Ddl { statement } => {
                out.push(OP_DDL);
                put_str(&mut out, statement);
            }
            LogicalOp::Dml { statement } => {
                out.push(OP_DML);
                put_str(&mut out, statement);
            }
            LogicalOp::CreateIndex { property } => {
                out.push(OP_CREATE_INDEX);
                put_str(&mut out, property);
            }
        }
        out
    }

    /// Decodes an operation written by [`LogicalOp::encode`].
    pub fn decode(buf: &[u8]) -> Result<LogicalOp> {
        let mut pos = 0usize;
        let tag = *buf
            .first()
            .ok_or_else(|| GdmError::Storage("empty journal op".into()))?;
        pos += 1;
        let op = match tag {
            OP_CREATE_NODE => LogicalOp::CreateNode {
                label: get_opt_str(buf, &mut pos)?,
                props: get_props(buf, &mut pos)?,
            },
            OP_CREATE_EDGE => LogicalOp::CreateEdge {
                from: NodeId(codec::get_varint(buf, &mut pos)?),
                to: NodeId(codec::get_varint(buf, &mut pos)?),
                label: get_opt_str(buf, &mut pos)?,
                props: get_props(buf, &mut pos)?,
            },
            OP_CREATE_HYPEREDGE => {
                let label = get_str(buf, &mut pos)?;
                let count = codec::get_varint(buf, &mut pos)?;
                let mut targets = Vec::with_capacity(count as usize);
                for _ in 0..count {
                    targets.push(NodeId(codec::get_varint(buf, &mut pos)?));
                }
                LogicalOp::CreateHyperedge {
                    label,
                    targets,
                    props: get_props(buf, &mut pos)?,
                }
            }
            OP_CREATE_EDGE_ON_EDGE => LogicalOp::CreateEdgeOnEdge {
                from: EdgeId(codec::get_varint(buf, &mut pos)?),
                to: NodeId(codec::get_varint(buf, &mut pos)?),
                label: get_str(buf, &mut pos)?,
            },
            OP_SET_NODE_ATTR => LogicalOp::SetNodeAttr {
                node: NodeId(codec::get_varint(buf, &mut pos)?),
                key: get_str(buf, &mut pos)?,
                value: codec::decode_value(buf, &mut pos)?,
            },
            OP_SET_EDGE_ATTR => LogicalOp::SetEdgeAttr {
                edge: EdgeId(codec::get_varint(buf, &mut pos)?),
                key: get_str(buf, &mut pos)?,
                value: codec::decode_value(buf, &mut pos)?,
            },
            OP_DELETE_NODE => LogicalOp::DeleteNode {
                node: NodeId(codec::get_varint(buf, &mut pos)?),
            },
            OP_DELETE_EDGE => LogicalOp::DeleteEdge {
                edge: EdgeId(codec::get_varint(buf, &mut pos)?),
            },
            OP_DDL => LogicalOp::Ddl {
                statement: get_str(buf, &mut pos)?,
            },
            OP_DML => LogicalOp::Dml {
                statement: get_str(buf, &mut pos)?,
            },
            OP_CREATE_INDEX => LogicalOp::CreateIndex {
                property: get_str(buf, &mut pos)?,
            },
            other => return Err(GdmError::Storage(format!("unknown journal op tag {other}"))),
        };
        if pos != buf.len() {
            return Err(GdmError::Storage("trailing bytes after journal op".into()));
        }
        Ok(op)
    }

    /// Applies the operation to an engine (the replay path). The return
    /// values are discarded — ids are reproduced by the engine's own
    /// deterministic allocation.
    pub fn apply(&self, engine: &mut dyn GraphEngine) -> Result<()> {
        match self {
            LogicalOp::CreateNode { label, props } => {
                engine.create_node(label.as_deref(), props.clone())?;
            }
            LogicalOp::CreateEdge {
                from,
                to,
                label,
                props,
            } => {
                engine.create_edge(*from, *to, label.as_deref(), props.clone())?;
            }
            LogicalOp::CreateHyperedge {
                label,
                targets,
                props,
            } => {
                engine.create_hyperedge(label, targets, props.clone())?;
            }
            LogicalOp::CreateEdgeOnEdge { from, to, label } => {
                engine.create_edge_on_edge(*from, *to, label)?;
            }
            LogicalOp::SetNodeAttr { node, key, value } => {
                engine.set_node_attribute(*node, key, value.clone())?;
            }
            LogicalOp::SetEdgeAttr { edge, key, value } => {
                engine.set_edge_attribute(*edge, key, value.clone())?;
            }
            LogicalOp::DeleteNode { node } => engine.delete_node(*node)?,
            LogicalOp::DeleteEdge { edge } => engine.delete_edge(*edge)?,
            LogicalOp::Ddl { statement } => engine.execute_ddl(statement)?,
            LogicalOp::Dml { statement } => engine.execute_dml(statement)?,
            LogicalOp::CreateIndex { property } => engine.create_index(property)?,
        }
        Ok(())
    }
}

/// A [`GraphEngine`] whose committed mutations survive crashes.
pub struct DurableEngine<F: WalFs> {
    inner: Box<dyn GraphEngine>,
    kind: EngineKind,
    wal: Wal<F>,
    /// The open facade transaction's log transaction id.
    txn: Option<u64>,
    /// Sequence number of the next journaled operation.
    next_op: u64,
    closed: bool,
}

impl<F: WalFs> DurableEngine<F> {
    /// Opens `kind` in durable mode. `scratch` is the engine's private
    /// state directory: it is **wiped on every open**, because the log
    /// in `fs` is the single durable source of truth and the engine is
    /// rebuilt from it by replay.
    pub fn open(
        kind: EngineKind,
        scratch: &Path,
        fs: F,
        opts: WalOptions,
    ) -> Result<(Self, RecoveryReport)> {
        if scratch.exists() {
            std::fs::remove_dir_all(scratch)?;
        }
        std::fs::create_dir_all(scratch)?;
        let mut inner = make_engine(kind, scratch)?;
        let mut next_op = 0u64;
        let (wal, report) = Wal::open(fs, opts, |key, bytes| {
            LogicalOp::decode(bytes)?.apply(inner.as_mut())?;
            next_op = next_op.max(codec::get_u64(key, &mut 0)? + 1);
            Ok(())
        })?;
        Ok((
            DurableEngine {
                inner,
                kind,
                wal,
                txn: None,
                next_op,
                closed: false,
            },
            report,
        ))
    }

    /// The wrapped engine kind.
    pub fn kind(&self) -> EngineKind {
        self.kind
    }

    /// Clean shutdown: writes and syncs everything buffered in the log.
    ///
    /// Idempotent: a second call (with no intervening mutation) is a
    /// no-op, so shutdown paths can call it defensively. If it fails —
    /// the disk may be refusing writes — the engine stays un-closed and
    /// the call can be retried; dropping instead falls back to the
    /// best-effort flush in `Drop`, and crash recovery remains the true
    /// safety net either way.
    pub fn close(&mut self) -> Result<()> {
        if self.closed {
            return Ok(());
        }
        self.wal.flush()?;
        self.closed = true;
        Ok(())
    }

    /// Appends a logical op to the log: inside the open transaction, or
    /// as its own committed unit.
    fn journal_op(&mut self, op: &LogicalOp) -> Result<()> {
        let seq = self.next_op;
        self.next_op += 1;
        self.closed = false; // new work after a close() re-arms Drop's flush
        self.wal.append(&Record::Put {
            txn: self.txn.unwrap_or(0),
            key: seq.to_be_bytes().to_vec(),
            value: op.encode(),
        });
        if self.txn.is_none() {
            self.wal.commit()?;
        }
        Ok(())
    }

    /// Ends the open log transaction with `end` (a commit or rollback
    /// record); the record is written through before this returns.
    fn end_transaction(&mut self, end: fn(u64) -> Record) -> Result<()> {
        let txn = self
            .txn
            .ok_or_else(|| GdmError::InvalidArgument("no open transaction".into()))?;
        self.wal.append(&end(txn));
        self.wal.commit()?;
        self.txn = None;
        Ok(())
    }

    /// The structured refusal for typed schema DDL: the journal can
    /// only replay operations with a stable byte encoding, and the
    /// `gdm-schema` definition types do not have one yet (tracked in
    /// ROADMAP.md as "schema-on-durable"). [`GdmError::NotJournalable`]
    /// keeps this distinct from [`GdmError::Unsupported`] — the
    /// wrapped engine *does* support the operation; durability is the
    /// limitation.
    fn schema_ddl_not_journalable(&self, op: &str) -> GdmError {
        GdmError::not_journalable(
            self.inner.name(),
            op,
            "typed gdm-schema definitions have no stable wire encoding, so the \
             write-ahead journal could not replay them after a crash; run schema \
             DDL before wrapping the engine in durable mode, or use the textual \
             execute_ddl dialect, which journals the statement text",
        )
    }
}

impl<F: WalFs> Drop for DurableEngine<F> {
    /// Best-effort flush when the engine is dropped without a clean
    /// [`DurableEngine::close`]: buffered log bytes are pushed to the
    /// backend so a plain process exit loses nothing that was
    /// autocommitted. Errors are swallowed (drop may run during
    /// unwind), and records of a still-open transaction are harmless
    /// to write — recovery discards anything without a commit mark.
    /// Genuine kill/power-loss scenarios never run this; for those,
    /// crash recovery is the safety net.
    fn drop(&mut self) {
        if !self.closed {
            let _ = self.wal.flush();
        }
    }
}

impl<F: WalFs> GraphEngine for DurableEngine<F> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn descriptor(&self) -> EngineDescriptor {
        self.inner.descriptor()
    }

    fn create_node(&mut self, label: Option<&str>, props: PropertyMap) -> Result<NodeId> {
        let id = self.inner.create_node(label, props.clone())?;
        self.journal_op(&LogicalOp::CreateNode {
            label: label.map(str::to_owned),
            props,
        })?;
        Ok(id)
    }

    fn create_edge(
        &mut self,
        from: NodeId,
        to: NodeId,
        label: Option<&str>,
        props: PropertyMap,
    ) -> Result<EdgeId> {
        let id = self.inner.create_edge(from, to, label, props.clone())?;
        self.journal_op(&LogicalOp::CreateEdge {
            from,
            to,
            label: label.map(str::to_owned),
            props,
        })?;
        Ok(id)
    }

    fn create_hyperedge(
        &mut self,
        label: &str,
        targets: &[NodeId],
        props: PropertyMap,
    ) -> Result<EdgeId> {
        let id = self.inner.create_hyperedge(label, targets, props.clone())?;
        self.journal_op(&LogicalOp::CreateHyperedge {
            label: label.to_owned(),
            targets: targets.to_vec(),
            props,
        })?;
        Ok(id)
    }

    fn create_edge_on_edge(&mut self, from: EdgeId, to: NodeId, label: &str) -> Result<EdgeId> {
        let id = self.inner.create_edge_on_edge(from, to, label)?;
        self.journal_op(&LogicalOp::CreateEdgeOnEdge {
            from,
            to,
            label: label.to_owned(),
        })?;
        Ok(id)
    }

    fn nest_subgraph(&mut self, node: NodeId) -> Result<()> {
        // No surveyed engine supports this, so there is nothing to
        // journal; delegate so the refusal carries the engine's name.
        self.inner.nest_subgraph(node)
    }

    fn set_node_attribute(&mut self, n: NodeId, key: &str, value: Value) -> Result<()> {
        self.inner.set_node_attribute(n, key, value.clone())?;
        self.journal_op(&LogicalOp::SetNodeAttr {
            node: n,
            key: key.to_owned(),
            value,
        })
    }

    fn set_edge_attribute(&mut self, e: EdgeId, key: &str, value: Value) -> Result<()> {
        self.inner.set_edge_attribute(e, key, value.clone())?;
        self.journal_op(&LogicalOp::SetEdgeAttr {
            edge: e,
            key: key.to_owned(),
            value,
        })
    }

    fn node_attribute(&self, n: NodeId, key: &str) -> Result<Option<Value>> {
        self.inner.node_attribute(n, key)
    }

    fn delete_node(&mut self, n: NodeId) -> Result<()> {
        self.inner.delete_node(n)?;
        self.journal_op(&LogicalOp::DeleteNode { node: n })
    }

    fn delete_edge(&mut self, e: EdgeId) -> Result<()> {
        self.inner.delete_edge(e)?;
        self.journal_op(&LogicalOp::DeleteEdge { edge: e })
    }

    fn node_count(&self) -> usize {
        self.inner.node_count()
    }

    fn edge_count(&self) -> usize {
        self.inner.edge_count()
    }

    fn define_node_type(&mut self, _def: gdm_schema::NodeTypeDef) -> Result<()> {
        Err(self.schema_ddl_not_journalable("define_node_type"))
    }

    fn define_edge_type(&mut self, _def: gdm_schema::EdgeTypeDef) -> Result<()> {
        Err(self.schema_ddl_not_journalable("define_edge_type"))
    }

    fn install_constraint(&mut self, _constraint: Constraint) -> Result<()> {
        Err(self.schema_ddl_not_journalable("install_constraint"))
    }

    fn execute_ddl(&mut self, statement: &str) -> Result<()> {
        self.inner.execute_ddl(statement)?;
        self.journal_op(&LogicalOp::Ddl {
            statement: statement.to_owned(),
        })
    }

    fn execute_dml(&mut self, statement: &str) -> Result<()> {
        self.inner.execute_dml(statement)?;
        self.journal_op(&LogicalOp::Dml {
            statement: statement.to_owned(),
        })
    }

    fn execute_query(&mut self, query: &str) -> Result<ResultSet> {
        self.inner.execute_query(query)
    }

    fn explain(&self, query: &str) -> Result<String> {
        self.inner.explain(query)
    }

    fn reason(&mut self, rules: &str, goal: &str) -> Result<Vec<Vec<String>>> {
        // Rule loading is scoped to the call in every emulation, so
        // there is no persistent state to journal.
        self.inner.reason(rules, goal)
    }

    fn analyze(&self, func: AnalysisFunc) -> Result<Value> {
        self.inner.analyze(func)
    }

    fn adjacent(&self, a: NodeId, b: NodeId) -> Result<bool> {
        self.inner.adjacent(a, b)
    }

    fn k_neighborhood(&self, n: NodeId, k: usize) -> Result<Vec<NodeId>> {
        self.inner.k_neighborhood(n, k)
    }

    fn fixed_length_paths(&self, a: NodeId, b: NodeId, len: usize) -> Result<usize> {
        self.inner.fixed_length_paths(a, b, len)
    }

    fn regular_path(&self, a: NodeId, b: NodeId, expr: &str) -> Result<bool> {
        self.inner.regular_path(a, b, expr)
    }

    fn shortest_path(&self, a: NodeId, b: NodeId) -> Result<Option<Vec<NodeId>>> {
        self.inner.shortest_path(a, b)
    }

    fn pattern_match(&self, pattern: &Pattern) -> Result<usize> {
        self.inner.pattern_match(pattern)
    }

    fn snapshot(&self) -> Result<gdm_algo::FrozenGraph> {
        self.inner.snapshot()
    }

    fn refreeze(&self, prev: &gdm_algo::FrozenGraph) -> Result<gdm_algo::FrozenGraph> {
        // The WAL wrapper mutates only through the inner engine's typed
        // API, so the inner delta tracker has seen every change and its
        // incremental path applies unchanged.
        self.inner.refreeze(prev)
    }

    fn pending_changes(&self) -> u64 {
        self.inner.pending_changes()
    }

    fn default_limits(&self) -> gdm_govern::Limits {
        // Durability does not change the emulated engine's governor
        // profile.
        self.inner.default_limits()
    }

    fn summarize(&self, func: SummaryFunc) -> Result<Value> {
        self.inner.summarize(func)
    }

    fn begin_transaction(&mut self) -> Result<()> {
        // Graph stores refuse here, and the refusal propagates before
        // the log opens a transaction.
        self.inner.begin_transaction()?;
        let txn = self.wal.allocate_txn();
        self.wal.append(&Record::Begin { txn });
        self.txn = Some(txn);
        Ok(())
    }

    fn commit_transaction(&mut self) -> Result<()> {
        self.inner.commit_transaction()?;
        // The true durability point: the commit record syncs.
        self.end_transaction(|txn| Record::Commit { txn })
    }

    fn rollback_transaction(&mut self) -> Result<()> {
        self.inner.rollback_transaction()?;
        self.end_transaction(|txn| Record::Rollback { txn })
    }

    fn persist(&mut self) -> Result<()> {
        // The log IS the persistence layer in durable mode; the
        // engine's own snapshot files are ignored on reopen.
        self.wal.flush()
    }

    fn create_index(&mut self, property: &str) -> Result<()> {
        self.inner.create_index(property)?;
        self.journal_op(&LogicalOp::CreateIndex {
            property: property.to_owned(),
        })
    }

    fn lookup_by_property(&self, key: &str, value: &Value) -> Result<Vec<NodeId>> {
        self.inner.lookup_by_property(key, value)
    }
}

/// Opens `kind` in durable mode with an on-disk log. Layout under
/// `dir`: `wal/` holds the log segments, `state/` is the engine's
/// scratch area (rebuilt from the log on every open).
pub fn make_engine_durable(kind: EngineKind, dir: &Path) -> Result<Box<dyn GraphEngine>> {
    let wal_dir: PathBuf = dir.join("wal");
    let fs = gdm_wal::DiskFs::open(&wal_dir)?;
    let (engine, _report) =
        DurableEngine::open(kind, &dir.join("state"), fs, WalOptions::default())?;
    Ok(Box::new(engine))
}

#[cfg(test)]
mod tests {
    use super::*;
    use gdm_wal::FaultFs;

    fn scratch(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("gdm-durable-engine-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn opts() -> WalOptions {
        WalOptions::default()
    }

    #[test]
    fn logical_ops_roundtrip() {
        let props = PropertyMap::new().with("name", Value::Str("x".into()));
        let ops = vec![
            LogicalOp::CreateNode {
                label: Some("person".into()),
                props: props.clone(),
            },
            LogicalOp::CreateNode {
                label: None,
                props: PropertyMap::new(),
            },
            LogicalOp::CreateEdge {
                from: NodeId(0),
                to: NodeId(1),
                label: Some("knows".into()),
                props,
            },
            LogicalOp::CreateHyperedge {
                label: "meeting".into(),
                targets: vec![NodeId(0), NodeId(1), NodeId(2)],
                props: PropertyMap::new(),
            },
            LogicalOp::CreateEdgeOnEdge {
                from: EdgeId(0),
                to: NodeId(2),
                label: "annotates".into(),
            },
            LogicalOp::SetNodeAttr {
                node: NodeId(1),
                key: "age".into(),
                value: Value::Int(30),
            },
            LogicalOp::SetEdgeAttr {
                edge: EdgeId(0),
                key: "since".into(),
                value: Value::Float(2011.5),
            },
            LogicalOp::DeleteNode { node: NodeId(3) },
            LogicalOp::DeleteEdge { edge: EdgeId(1) },
            LogicalOp::Ddl {
                statement: "CREATE VERTEX TYPE person".into(),
            },
            LogicalOp::Dml {
                statement: "INSERT ...".into(),
            },
            LogicalOp::CreateIndex {
                property: "name".into(),
            },
        ];
        for op in ops {
            let bytes = op.encode();
            assert_eq!(LogicalOp::decode(&bytes).unwrap(), op, "{op:?}");
        }
    }

    #[test]
    fn durable_neo4j_survives_kill_and_reopen() {
        let fs = FaultFs::new();
        let dir = scratch("neo4j");
        let (mut eng, _) =
            DurableEngine::open(EngineKind::Neo4j, &dir, fs.clone(), opts()).unwrap();
        let a = eng
            .create_node(
                Some("person"),
                PropertyMap::new().with("name", Value::Str("ada".into())),
            )
            .unwrap();
        let b = eng.create_node(Some("person"), PropertyMap::new()).unwrap();
        let e = eng
            .create_edge(a, b, Some("knows"), PropertyMap::new())
            .unwrap();
        eng.set_edge_attribute(e, "since", Value::Int(2010))
            .unwrap();
        drop(eng); // kill without shutdown
        fs.crash();
        let (eng2, report) = DurableEngine::open(EngineKind::Neo4j, &dir, fs, opts()).unwrap();
        assert_eq!(report.records_applied, 4);
        assert_eq!(eng2.node_count(), 2);
        assert_eq!(eng2.edge_count(), 1);
        assert_eq!(
            eng2.node_attribute(a, "name").unwrap(),
            Some(Value::Str("ada".into()))
        );
        assert!(eng2.adjacent(a, b).unwrap());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn uncommitted_engine_transaction_discarded_on_crash() {
        let fs = FaultFs::new();
        let dir = scratch("txn");
        let (mut eng, _) =
            DurableEngine::open(EngineKind::Neo4j, &dir, fs.clone(), opts()).unwrap();
        let a = eng.create_node(None, PropertyMap::new()).unwrap();
        eng.begin_transaction().unwrap();
        let b = eng.create_node(None, PropertyMap::new()).unwrap();
        eng.create_edge(a, b, Some("tmp"), PropertyMap::new())
            .unwrap();
        // Crash before commit: the transaction must vanish.
        drop(eng);
        fs.crash();
        let (eng2, _) = DurableEngine::open(EngineKind::Neo4j, &dir, fs, opts()).unwrap();
        assert_eq!(eng2.node_count(), 1);
        assert_eq!(eng2.edge_count(), 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn committed_transaction_is_atomic_across_recovery() {
        let fs = FaultFs::new();
        let dir = scratch("atomic");
        let (mut eng, _) =
            DurableEngine::open(EngineKind::Sones, &dir, fs.clone(), opts()).unwrap();
        eng.begin_transaction().unwrap();
        let a = eng.create_node(Some("t"), PropertyMap::new()).unwrap();
        let b = eng.create_node(Some("t"), PropertyMap::new()).unwrap();
        eng.create_edge(a, b, Some("pair"), PropertyMap::new())
            .unwrap();
        eng.commit_transaction().unwrap();
        drop(eng);
        fs.crash();
        let (eng2, report) = DurableEngine::open(EngineKind::Sones, &dir, fs, opts()).unwrap();
        assert_eq!(report.committed_txns, 1);
        assert_eq!(eng2.node_count(), 2);
        assert_eq!(eng2.edge_count(), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn graph_stores_still_refuse_transactions_in_durable_mode() {
        let fs = FaultFs::new();
        let dir = scratch("store");
        let (mut eng, _) = DurableEngine::open(EngineKind::VertexDb, &dir, fs, opts()).unwrap();
        let err = eng.begin_transaction().unwrap_err();
        assert!(err.is_unsupported());
        // ...but autocommit mutations still journal and work.
        eng.create_node(None, PropertyMap::new()).unwrap();
        assert_eq!(eng.node_count(), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn schema_ddl_refusal_is_structured_and_names_the_journal() {
        let fs = FaultFs::new();
        let dir = scratch("ddl");
        let (mut eng, _) = DurableEngine::open(EngineKind::Sones, &dir, fs, opts()).unwrap();
        let err = eng
            .install_constraint(Constraint::ReferentialIntegrity)
            .unwrap_err();
        // Not a bare Unsupported: the engine supports the operation;
        // durability is the limitation, and the message must say so.
        assert!(err.is_not_journalable());
        assert!(!err.is_unsupported());
        let msg = err.to_string();
        assert!(
            msg.contains("journal") && msg.contains("durable") && msg.contains("wire encoding"),
            "message must name the journaling limitation: {msg}"
        );
        assert!(
            msg.contains("install_constraint"),
            "message must name the refused op: {msg}"
        );
        // All three typed DDL entry points refuse the same way.
        assert!(eng
            .define_node_type(gdm_schema::NodeTypeDef::new("person"))
            .unwrap_err()
            .is_not_journalable());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn close_is_idempotent() {
        let fs = FaultFs::new();
        let dir = scratch("close-idem");
        let (mut eng, _) =
            DurableEngine::open(EngineKind::Neo4j, &dir, fs.clone(), opts()).unwrap();
        eng.create_node(None, PropertyMap::new()).unwrap();
        eng.close().unwrap();
        let syncs = fs.sync_count();
        eng.close().unwrap(); // second close: a no-op, not a second flush
        assert_eq!(fs.sync_count(), syncs);
        drop(eng); // already closed: Drop does not flush again either
        assert_eq!(fs.sync_count(), syncs);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn drop_without_close_flushes_the_journal() {
        let fs = FaultFs::new();
        let dir = scratch("drop-flush");
        let manual = WalOptions {
            sync: gdm_wal::SyncPolicy::Manual,
            ..WalOptions::default()
        };
        let (mut eng, _) =
            DurableEngine::open(EngineKind::Neo4j, &dir, fs.clone(), manual).unwrap();
        eng.create_node(None, PropertyMap::new()).unwrap();
        // Under Manual sync the autocommit is buffered, not durable;
        // dropping without close() still pushes it out best-effort.
        drop(eng);
        fs.crash();
        let (eng2, _) = DurableEngine::open(EngineKind::Neo4j, &dir, fs, manual).unwrap();
        assert_eq!(eng2.node_count(), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn make_engine_durable_uses_disk_layout() {
        let dir = scratch("disk");
        {
            let mut eng = make_engine_durable(EngineKind::Dex, &dir).unwrap();
            eng.create_node(Some("thing"), PropertyMap::new()).unwrap();
            eng.create_node(Some("thing"), PropertyMap::new()).unwrap();
        }
        let eng = make_engine_durable(EngineKind::Dex, &dir).unwrap();
        assert_eq!(eng.node_count(), 2);
        assert!(dir.join("wal").join("wal-0000000000.seg").exists());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn replay_reproduces_ids_assigned_after_a_rollback() {
        use crate::engine::Capability;
        use gdm_core::AttributedView;
        let mut tested = Vec::new();
        for kind in EngineKind::all() {
            let profile = kind.profile();
            if profile.refusal(Capability::NodeLabels).is_some()
                || profile.refusal(Capability::Transactions).is_some()
            {
                continue;
            }
            let fs = FaultFs::new();
            let dir = scratch(&format!("rollback-ids-{}", kind.label()));
            let (mut eng, _) = DurableEngine::open(kind, &dir, fs.clone(), opts()).unwrap();
            let a = eng.create_node(Some("t"), PropertyMap::new()).unwrap();
            eng.begin_transaction().unwrap();
            let b = eng.create_node(Some("t"), PropertyMap::new()).unwrap();
            eng.create_edge(a, b, Some("r"), PropertyMap::new())
                .unwrap();
            eng.rollback_transaction().unwrap();
            // Ids handed out after the rollback are the ones replay
            // must reproduce: only committed ops are in the log.
            let c = eng.create_node(Some("t"), PropertyMap::new()).unwrap();
            let e = eng
                .create_edge(a, c, Some("r"), PropertyMap::new())
                .unwrap();
            eng.set_node_attribute(a, "tag", Value::Str("a".into()))
                .unwrap();
            eng.set_node_attribute(c, "tag", Value::Str("c".into()))
                .unwrap();
            eng.set_edge_attribute(e, "tag", Value::Str("e".into()))
                .unwrap();
            drop(eng);
            fs.crash();
            let (eng, _) = DurableEngine::open(kind, &dir, fs, opts()).unwrap();
            let label = kind.label();
            assert_eq!((eng.node_count(), eng.edge_count()), (2, 1), "{label}");
            assert_eq!(
                eng.node_attribute(a, "tag").unwrap(),
                Some(Value::Str("a".into())),
                "{label}"
            );
            assert_eq!(
                eng.node_attribute(c, "tag").unwrap(),
                Some(Value::Str("c".into())),
                "{label}"
            );
            assert_eq!(
                eng.snapshot().unwrap().edge_property(e, "tag"),
                Some(Value::Str("e".into())),
                "{label}"
            );
            assert!(eng.adjacent(a, c).unwrap(), "{label}");
            drop(eng);
            let _ = std::fs::remove_dir_all(&dir);
            tested.push(kind);
        }
        assert_eq!(
            tested,
            [
                EngineKind::Dex,
                EngineKind::HyperGraphDb,
                EngineKind::InfiniteGraph,
                EngineKind::Neo4j,
                EngineKind::Sones
            ]
        );
    }

    #[test]
    fn refuses_a_log_directory_holding_a_checkpoint() {
        // A segment of one journaled op, as an older build would have
        // left it after pruning what its checkpoint covered.
        let old = FaultFs::new();
        let mut wal = Wal::create(old.clone(), opts()).unwrap();
        wal.append(&Record::Put {
            txn: 0,
            key: 7u64.to_be_bytes().to_vec(),
            value: LogicalOp::CreateNode {
                label: Some("t".into()),
                props: PropertyMap::new(),
            }
            .encode(),
        });
        wal.commit().unwrap();
        let fs = FaultFs::new();
        fs.install("checkpoint-0000000001.ckpt", b"GDMCKPT1");
        fs.install(
            "wal-0000000004.seg",
            &old.snapshot("wal-0000000000.seg").unwrap(),
        );
        let dir = scratch("old-layout");
        let err = DurableEngine::open(EngineKind::Neo4j, &dir, fs.clone(), opts())
            .err()
            .expect("a checkpointed log must be refused");
        assert!(
            matches!(&err, GdmError::Storage(m) if m.contains("checkpoint-0000000001.ckpt")),
            "{err}"
        );
        // Nothing was replayed, repaired or created.
        assert_eq!(
            fs.list().unwrap(),
            vec![
                "checkpoint-0000000001.ckpt".to_owned(),
                "wal-0000000004.seg".to_owned()
            ]
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}
