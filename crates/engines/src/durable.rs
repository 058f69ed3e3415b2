//! Durable mode for the engine facade: logical-operation journaling
//! over the `gdm-wal` subsystem.
//!
//! [`DurableEngine`] wraps any [`GraphEngine`]. Every facade write
//! reaches an engine as one [`LogicalOp`] through
//! [`GraphEngine::apply`], and the wrapper's `apply` is its whole
//! journal: it encodes the op, applies it to the inner engine, and
//! appends the record only once the engine has accepted it. The
//! journal is the log: each operation is one `Put` record whose key is
//! the operation's sequence number (8 bytes, big-endian) and whose
//! value is [`LogicalOp::encode`], appended straight to a [`Wal`], so
//! group commit, segment rotation and torn-tail recovery come from
//! `gdm-wal` unchanged and no copy of the journal is kept in memory.
//! On reopen, [`Wal::open`] streams the committed operations in log
//! order, and each is decoded and applied to a fresh engine through
//! the same `apply` a live write takes. Engines allocate ids
//! deterministically, and a rollback rewinds the allocators with the
//! rest of the model, so replaying only the committed operations
//! reproduces the exact same `NodeId`/`EdgeId` assignment.
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
use crate::op::{Created, LogicalOp};
use gdm_algo::pattern::Pattern;
use gdm_core::{GdmError, NodeId, Result, Value};
use gdm_query::eval::ResultSet;
use gdm_schema::Constraint;
use gdm_storage::codec;
use gdm_wal::{Record, RecoveryReport, Wal, WalFs, WalOptions};
use std::path::{Path, PathBuf};

/// A [`GraphEngine`] whose committed mutations survive crashes.
pub struct DurableEngine<F: WalFs> {
    inner: Box<dyn GraphEngine>,
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
            inner.apply(LogicalOp::decode(bytes)?)?;
            next_op = next_op.max(codec::get_u64(key, &mut 0)? + 1);
            Ok(())
        })?;
        Ok((
            DurableEngine {
                inner,
                wal,
                txn: None,
                next_op,
                closed: false,
            },
            report,
        ))
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

    /// Encodes `op`, applies it to the inner engine, and appends the
    /// record only once the engine accepted it: inside the open
    /// transaction, or as its own committed unit.
    fn apply(&mut self, op: LogicalOp) -> Result<Created> {
        let value = op.encode();
        let created = self.inner.apply(op)?;
        let seq = self.next_op;
        self.next_op += 1;
        self.closed = false; // new work after a close() re-arms Drop's flush
        self.wal.append(&Record::Put {
            txn: self.txn.unwrap_or(0),
            key: seq.to_be_bytes().to_vec(),
            value,
        });
        if self.txn.is_none() {
            self.wal.commit()?;
        }
        Ok(created)
    }

    fn nest_subgraph(&mut self, node: NodeId) -> Result<()> {
        // No surveyed engine supports this, so there is nothing to
        // journal; delegate so the refusal carries the engine's name.
        self.inner.nest_subgraph(node)
    }

    fn node_attribute(&self, n: NodeId, key: &str) -> Result<Option<Value>> {
        self.inner.node_attribute(n, key)
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
        // The wrapper writes only through the inner engine's `apply`,
        // so the inner delta tracker has seen every change and its
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

// The unit tests build ops and graphs by hand.
#[cfg(test)]
use gdm_core::{EdgeId, PropertyMap};

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
