//! The write side: seeded 50-mutation batches applied through the
//! engine facade, each followed by a live snapshot refresh and a
//! freshness check over the wire.
//!
//! The writer owns a community of its own (one past the readers'), and
//! its nodes carry no `age`, so no reader query can see its work: the
//! readers' answers stay fixed while the graph changes under them.
//!
//! The same cycle serves two callers: the `refresh_10k` writer (beside
//! the reader during the timed window, tracing off) and the traced
//! pass's write probe (nothing else running, tracing on, plus the
//! scratch-log `wal.commit` span). Both are paced every 100 ms.

use crate::gen::Rng;
use crate::trace::Tracer;
use crate::verify::{answer_of, Answer};
use crate::world::{wal_options, World, BATCH, TENANT};
use gdm_core::{props, EdgeId, GdmError, NodeId, Result, Value};
use gdm_engines::LogicalOp;
use gdm_server::protocol::Response;
use gdm_server::Client;
use gdm_wal::{DiskFs, Record, Wal};
use std::path::Path;
use std::time::{Duration, Instant};

/// What the write cycles of one run measured.
#[derive(Debug, Default)]
pub struct WriteSamples {
    /// Batch acknowledged → first reply showing it, ms.
    pub refresh_ms: Vec<f64>,
    /// How late each paced cycle started, ms.
    pub late_ms: Vec<f64>,
    /// `pending_changes()` after each batch.
    pub pending: Vec<f64>,
    /// `freeze_work()` of each refreshed snapshot.
    pub refreeze_work: Vec<u64>,
    /// Freshness checks made / failed.
    pub attempted: u64,
    pub failed: u64,
    /// Scratch-log bytes written and files left (traced pass only).
    pub wal_bytes: u64,
    pub wal_segments: u64,
    pub wal_ops: u64,
}

/// The scratch log the traced pass times: the batch's encoded ops
/// appended and committed the way the durable engine's journal does
/// (one autocommit per op), with the same options.
struct WalProbe {
    wal: Wal<DiskFs>,
    dir: std::path::PathBuf,
    next_key: u64,
}

pub struct Writer {
    rng: Rng,
    community: i64,
    nodes: Vec<NodeId>,
    edges: Vec<EdgeId>,
    client: Client,
    count_text: String,
    wal_probe: Option<WalProbe>,
    cycle: u32,
    pub samples: WriteSamples,
}

impl Writer {
    /// `wal_dir`: where to keep the scratch log; `None` skips the
    /// `wal.commit` span (untraced runs).
    pub fn new(world: &World, seed: u64, wal_dir: Option<&Path>) -> Result<Writer> {
        let community = world.graph.communities() as i64;
        let mut client = Client::connect(world.handle().addr())?;
        client.hello(TENANT, None)?;
        let wal_probe = match wal_dir {
            Some(dir) => {
                let _ = std::fs::remove_dir_all(dir);
                Some(WalProbe {
                    wal: Wal::create(DiskFs::open(dir)?, wal_options())?,
                    dir: dir.to_owned(),
                    next_key: 0,
                })
            }
            None => None,
        };
        Ok(Writer {
            rng: Rng::new(seed ^ 0x7772_6974), // "writ"
            community,
            nodes: Vec::new(),
            edges: Vec::new(),
            client,
            count_text: format!("MATCH (w:person {{community:{community}}}) RETURN count(*)"),
            wal_probe,
            cycle: 0,
            samples: WriteSamples::default(),
        })
    }

    /// Applies one seeded batch through the facade: 20 nodes, 15 edges
    /// between the writer's nodes, 10 attribute writes, 5 edge deletes.
    fn mutate(&mut self, world: &mut World) -> Result<Vec<LogicalOp>> {
        let engine = world.engine.as_mut();
        let mut ops = Vec::with_capacity(BATCH);
        for _ in 0..20 {
            let op_props = props! {
                "name" => format!("w{}", self.nodes.len()),
                "community" => self.community,
            };
            self.nodes
                .push(engine.create_node(Some("person"), op_props.clone())?);
            ops.push(LogicalOp::CreateNode {
                label: Some("person".into()),
                props: op_props,
            });
        }
        for _ in 0..15 {
            let from = self.nodes[self.rng.below(self.nodes.len())];
            let to = self.nodes[self.rng.below(self.nodes.len())];
            self.edges
                .push(engine.create_edge(from, to, Some("knows"), props! {})?);
            ops.push(LogicalOp::CreateEdge {
                from,
                to,
                label: Some("knows".into()),
                props: props! {},
            });
        }
        for _ in 0..10 {
            let node = self.nodes[self.rng.below(self.nodes.len())];
            let value = Value::Int(i64::from(self.cycle));
            engine.set_node_attribute(node, "visits", value.clone())?;
            ops.push(LogicalOp::SetNodeAttr {
                node,
                key: "visits".into(),
                value,
            });
        }
        for _ in 0..5 {
            let edge = self.edges.swap_remove(self.rng.below(self.edges.len()));
            engine.delete_edge(edge)?;
            ops.push(LogicalOp::DeleteEdge { edge });
        }
        debug_assert_eq!(ops.len(), BATCH);
        Ok(ops)
    }

    /// One write cycle: mutate → refresh the serving snapshot → ask
    /// for the writer's community count until the reply shows the
    /// batch. `late_ms` is how far behind its due time the cycle
    /// started (0 when unpaced).
    pub fn cycle(&mut self, world: &mut World, tracer: &mut Tracer, late_ms: f64) -> Result<()> {
        let b = self.cycle;
        self.cycle += 1;
        let root = tracer.start(b, "bench.write_cycle", None);

        let span = tracer.start(b, "engines.mutate_batch", Some(root));
        let ops = self.mutate(world)?;
        tracer.end(span);
        let acked = Instant::now();
        self.samples
            .pending
            .push(world.engine.pending_changes() as f64);

        let span = tracer.start(b, "server.refresh_with", Some(root));
        let engine = world.engine.as_ref();
        let mut work = 0;
        world
            .handle()
            .refresh_with(|prev| {
                let inner = tracer.start(b, "algo.refreeze", Some(span));
                let next = engine.refreeze(prev);
                tracer.end(inner);
                if let Ok(fz) = &next {
                    work = fz.freeze_work();
                }
                next
            })
            .map_err(GdmError::Io)?;
        tracer.end(span);

        let span = tracer.start(b, "request", Some(root));
        let reply = self.client.query(&self.count_text)?;
        tracer.end(span);
        let visible = Instant::now();
        let want: Answer = answer_of(&[vec![Value::Int(self.nodes.len() as i64)]]);
        self.samples.attempted += 1;
        match reply {
            Response::Rows(r) if answer_of(&r.rows) == want => {}
            _ => self.samples.failed += 1,
        }

        if let Some(probe) = &mut self.wal_probe {
            let span = tracer.start(b, "wal.commit", Some(root));
            for op in &ops {
                probe.wal.append(&Record::Put {
                    txn: 0,
                    key: probe.next_key.to_be_bytes().to_vec(),
                    value: op.encode(),
                });
                probe.next_key += 1;
                probe.wal.commit()?;
            }
            tracer.end(span);
        }
        tracer.end(root);

        self.samples
            .refresh_ms
            .push((visible - acked).as_secs_f64() * 1e3);
        self.samples.late_ms.push(late_ms);
        self.samples.refreeze_work.push(work);
        Ok(())
    }

    /// Runs cycles until `done()` says stop. With a `period`, cycle `k`
    /// is due at `start + k·period` (open loop: a slow cycle makes the
    /// next one late, it does not move the schedule).
    pub fn run(
        &mut self,
        world: &mut World,
        tracer: &mut Tracer,
        period: Option<Duration>,
        mut done: impl FnMut(u32) -> bool,
    ) -> Result<()> {
        let start = Instant::now();
        let mut k = 0u32;
        while !done(k) {
            let mut late_ms = 0.0;
            if let Some(period) = period {
                let due = start + period * k;
                let now = Instant::now();
                if now < due {
                    std::thread::sleep(due - now);
                }
                late_ms = (Instant::now() - due).as_secs_f64() * 1e3;
            }
            self.cycle(world, tracer, late_ms)?;
            k += 1;
        }
        Ok(())
    }

    /// Records what the scratch log wrote (every commit writes its
    /// frames through to the segment file, so the sizes are final).
    pub fn finish(mut self) -> Result<WriteSamples> {
        if let Some(probe) = self.wal_probe.take() {
            for entry in std::fs::read_dir(&probe.dir)? {
                self.samples.wal_bytes += entry?.metadata()?.len();
                self.samples.wal_segments += 1;
            }
            self.samples.wal_ops = probe.next_key;
            let _ = std::fs::remove_dir_all(&probe.dir);
        }
        let _ = self.client.goodbye();
        Ok(self.samples)
    }
}
