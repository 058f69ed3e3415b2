//! The four workloads, the serving configuration they share, and the
//! set-up that turns a seed into a server answering on loopback.

use crate::gen::{self, PeopleGraph};
use gdm_core::{GdmError, Result};
use gdm_engines::{make_engine, DurableEngine, EngineKind, GraphEngine, ServingSnapshot};
use gdm_server::protocol::Response;
use gdm_server::{serve, Client, ServerConfig, ServerHandle, TenantConfig};
use gdm_wal::{DiskFs, SyncPolicy, WalOptions};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

/// Load connections, each on its own client thread. Closed loop: a
/// connection sends its next request when the previous reply arrived.
/// Two because the reference machine has two cores.
pub const CONNECTIONS: usize = 2;
/// The one tenant every connection authenticates as.
pub const TENANT: &str = "bench";
/// Tenant burst cap and per-interval refill, sized so that nothing
/// throttles: the costliest query today charges ~100 k credits.
pub const BURST_CAP: i64 = 1_000_000_000;
pub const REFILL_CREDITS: u64 = 100_000_000;
/// Flush policy of the durable workload and of the scratch log the
/// traced pass times (`wal.*`): group commit, fsync every 64 commits or
/// 5 ms. Stated here and in `BENCHMARK.json`; the same on both sides of
/// any comparison.
pub const SYNC: SyncPolicy = SyncPolicy::Batch {
    commits: 64,
    window_ms: 5,
};
/// Mutations per write batch, and the writer's open-loop period.
pub const BATCH: usize = 50;
pub const WRITER_PERIOD_MS: u64 = 100;

/// Which request stream a workload's connections walk.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StreamKind {
    /// 48 texts, Zipf(1.0) within class: the plan-cache hit path.
    Pooled,
    /// Every text unique: parse + plan on every request.
    Cold,
}

/// One workload: a set of inputs the benchmark runs.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    /// Also its name in `BENCHMARK.json`, which says why it exists.
    pub name: &'static str,
    pub people: usize,
    pub stream: StreamKind,
    /// Durable engine, and a writer refreshing the snapshot *during*
    /// the timed window on the main thread (one load connection less).
    pub refreshing: bool,
    /// Set-ups per run; `setup_s` is their median.
    pub setup_repeats: usize,
    /// Requests of the traced pass (the first of connection 0's walk).
    pub traced_requests: usize,
    /// Write batches of the write probe (see `write.rs`).
    pub probe_batches: usize,
}

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "mix_1k",
        people: 1_000,
        stream: StreamKind::Pooled,
        refreshing: false,
        setup_repeats: 9,
        traced_requests: 2_000,
        probe_batches: 30,
    },
    Workload {
        name: "mix_100k",
        people: 100_000,
        stream: StreamKind::Pooled,
        refreshing: false,
        setup_repeats: 3,
        traced_requests: 300,
        probe_batches: 30,
    },
    Workload {
        name: "cold_plans_10k",
        people: 10_000,
        stream: StreamKind::Cold,
        refreshing: false,
        setup_repeats: 9,
        traced_requests: 2_000,
        probe_batches: 30,
    },
    Workload {
        name: "refresh_10k",
        people: 10_000,
        stream: StreamKind::Pooled,
        refreshing: true,
        setup_repeats: 3,
        traced_requests: 1_000,
        probe_batches: 30,
    },
];

pub fn workload(name: &str) -> Option<Workload> {
    WORKLOADS.iter().copied().find(|w| w.name == name)
}

/// The server configuration of every workload: the defaults (4
/// workers, 2 slots, queue 8, 64-entry plan cache, auto executor
/// workers) with one generously funded tenant.
pub fn server_config() -> ServerConfig {
    let mut tenant = TenantConfig::new(TENANT, 1);
    tenant.burst_cap = BURST_CAP;
    ServerConfig {
        tenants: vec![tenant],
        refill_credits: REFILL_CREDITS,
        ..ServerConfig::default()
    }
}

pub fn wal_options() -> WalOptions {
    WalOptions {
        sync: SYNC,
        ..WalOptions::default()
    }
}

/// Milliseconds each set-up phase took, and the whole in seconds.
#[derive(Debug, Clone, Copy, Default)]
pub struct Phases {
    pub generate_ms: f64,
    pub load_ms: f64,
    pub freeze_ms: f64,
    pub total_s: f64,
}

/// A served graph: the engine (owned by this thread — engines are not
/// `Send`), the server fronting its snapshot, and the generator data.
pub struct World {
    pub graph: Arc<PeopleGraph>,
    pub engine: Box<dyn GraphEngine>,
    handle: Option<ServerHandle>,
    /// A copy of the snapshot handed to the server, for the traced
    /// pass's in-process replay.
    pub replay: Option<ServingSnapshot>,
    pub phases: Phases,
    /// Declared last: fields drop in order, so the engine (whose drop
    /// flushes its journal) goes before its directory does.
    _scratch: Scratch,
}

/// Removes the directory it names when dropped.
struct Scratch(PathBuf);

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

impl World {
    /// Generate → load through the facade → freeze → serve → first
    /// reply. `dir` is this world's private scratch directory (engine
    /// state and, when durable, the journal); it is removed on drop.
    pub fn set_up(w: &Workload, seed: u64, dir: &Path, keep_replay: bool) -> Result<World> {
        let _ = std::fs::remove_dir_all(dir);
        std::fs::create_dir_all(dir)?;
        let scratch = Scratch(dir.to_owned());
        let t0 = Instant::now();
        let graph = Arc::new(gen::people_graph(w.people, seed));
        let t1 = Instant::now();
        let mut engine: Box<dyn GraphEngine> = if w.refreshing {
            let fs = DiskFs::open(&dir.join("wal"))?;
            let (engine, _) =
                DurableEngine::open(EngineKind::Neo4j, &dir.join("state"), fs, wal_options())?;
            Box::new(engine)
        } else {
            make_engine(EngineKind::Neo4j, dir)?
        };
        gen::load(engine.as_mut(), &graph)?;
        let t2 = Instant::now();
        let snapshot = engine.serving_snapshot()?;
        let t3 = Instant::now();
        let replay = keep_replay.then(|| snapshot.clone());
        let t_clone = t3.elapsed();
        let handle = serve(snapshot, server_config())?;
        let mut client = Client::connect(handle.addr())?;
        client.hello(TENANT, None)?;
        match client.query("MATCH (p:person {name:'person0'}) RETURN p.age")? {
            Response::Rows(r) if r.rows.len() == 1 => {}
            other => {
                return Err(GdmError::InvalidArgument(format!(
                    "set-up probe expected one row, got {other:?}"
                )))
            }
        }
        let answered = Instant::now();
        let _ = client.goodbye();
        let ms = |a: Instant, b: Instant| (b - a).as_secs_f64() * 1e3;
        let phases = Phases {
            generate_ms: ms(t0, t1),
            load_ms: ms(t1, t2),
            freeze_ms: ms(t2, t3),
            total_s: (answered - t0 - t_clone).as_secs_f64(),
        };
        Ok(World {
            graph,
            engine,
            handle: Some(handle),
            replay,
            phases,
            _scratch: scratch,
        })
    }

    pub fn handle(&self) -> &ServerHandle {
        self.handle.as_ref().expect("server runs until drop")
    }
}

impl Drop for World {
    fn drop(&mut self) {
        if let Some(h) = self.handle.take() {
            h.shutdown();
        }
    }
}
