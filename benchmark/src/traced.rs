//! The traced pass: the first N requests of connection 0's walk, over
//! the wire with a client-side `request` span, then replayed
//! in-process with one span per call the server's session makes, then
//! the paced write probe. All per-layer metrics come from here.
//!
//! Wire pass and replay are separate loops on purpose: replaying each
//! request right after its round trip left the server's worker idle
//! and its caches cold for the next one, and inflated the `request`
//! spans of cheap requests by a fifth.
//!
//! The replay calls only what `crates/server/src/session.rs::run_query`
//! and `server.rs` call (`read_frame` / `write_frame`, `Admission::admit`,
//! `cypher::parse`, `PlanCache::{get_epoch, insert_epoch}`,
//! `plan_select`, `ExecutionGuard::with_allowance`,
//! `execute_planned_governed`), on private instances configured like
//! the server's, so it survives the planned executor and engine
//! consolidations.

use crate::load::{connect, reply_is, Ask, Source};
use crate::report::Metric;
use crate::stats::{median, percentile};
use crate::trace::{durations_us, self_times, Tracer};
use crate::verify::answer_of;
use crate::world::{server_config, Workload, World, BURST_CAP, TENANT, WRITER_PERIOD_MS};
use crate::write::Writer;
use gdm_algo::FrozenGraph;
use gdm_core::{GdmError, Result};
use gdm_engines::ServingSnapshot;
use gdm_govern::{BudgetPool, CancelToken, ExecutionGuard, Limits, TenantAllowance};
use gdm_query::cypher::{self, CypherStatement};
use gdm_query::PlanCache;
use gdm_server::protocol::{read_frame, write_frame, QueryReq, Request, Response, Rows};
use gdm_server::Admission;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Layers a replay span can be charged to.
const LAYERS: [&str; 4] = ["server", "query", "algo", "govern"];

/// Counts the replay made where the work happens.
#[derive(Debug, Default)]
struct ReplayCounts {
    rows: u64,
    encode_bytes: u64,
    encode_ns: u64,
    visits: u64,
    units: u64,
    governed_ns: u64,
    unlimited_ns: u64,
    failed: u64,
}

fn invalid(what: impl Into<String>) -> GdmError {
    GdmError::InvalidArgument(what.into())
}

/// What one pass over the wire saw, per request.
struct WirePass {
    /// Round trips, ms.
    ms: Vec<f64>,
    /// Whether the server answered from a cached plan.
    cached_plan: Vec<bool>,
    failed: u64,
}

/// One pass over the wire on one connection, each request a `request`
/// span; a broken connection is re-opened.
fn wire_pass(world: &World, asks: &[Ask], tracer: &mut Tracer) -> Result<WirePass> {
    let mut client = connect(world.handle().addr())?;
    let mut pass = WirePass {
        ms: Vec::with_capacity(asks.len()),
        cached_plan: Vec::with_capacity(asks.len()),
        failed: 0,
    };
    for (n, ask) in asks.iter().enumerate() {
        let span = tracer.start(n as u32, "request", None);
        let t = Instant::now();
        let reply = client.query(&ask.text);
        pass.ms.push(t.elapsed().as_secs_f64() * 1e3);
        tracer.end(span);
        pass.cached_plan
            .push(matches!(&reply, Ok(Response::Rows(r)) if r.cached_plan));
        if !reply_is(&reply, ask.want) {
            pass.failed += 1;
        }
        if reply.is_err() {
            client = connect(world.handle().addr())?;
        }
    }
    let _ = client.goodbye();
    Ok(pass)
}

/// The served path, in-process: private instances of what a session
/// shares, configured like the server's.
struct Replay<'a> {
    graph: &'a FrozenGraph,
    admission: Arc<Admission>,
    cache: PlanCache,
    allowance: Arc<TenantAllowance>,
    limits: Limits,
    frame: Vec<u8>,
    sink: Vec<u8>,
    counts: ReplayCounts,
}

impl<'a> Replay<'a> {
    fn new(snapshot: &'a ServingSnapshot) -> Self {
        let config = server_config();
        let tenant = &config.tenants[0];
        let mut pool = BudgetPool::new();
        Replay {
            graph: &snapshot.frozen,
            admission: Admission::new(
                config.slots,
                config.queue,
                &[(tenant.name.clone(), tenant.max_in_flight)],
            ),
            cache: PlanCache::new(config.plan_cache_capacity),
            allowance: pool.register(TENANT, tenant.weight, BURST_CAP),
            limits: config.query_limits.unwrap_or(snapshot.limits),
            frame: Vec::new(),
            sink: Vec::new(),
            counts: ReplayCounts::default(),
        }
    }

    /// Replays one request, one span per call of the served path.
    fn one(&mut self, n: usize, ask: &Ask, tracer: &mut Tracer) -> Result<()> {
        let req = n as u32;
        let graph = self.graph;
        let epoch = graph.epoch();
        // The client's half of the exchange, outside any span.
        self.frame.clear();
        write_frame(
            &mut self.frame,
            &Request::Query(QueryReq {
                text: ask.text.clone(),
            }),
        )?;

        let root = tracer.start(req, "bench.replay", None);
        let root_id = Some(root);
        let decoded: Option<Request> = tracer.span(req, "server.decode", root_id, || {
            read_frame(&mut std::io::Cursor::new(&self.frame))
        })?;
        let Some(Request::Query(q)) = decoded else {
            return Err(invalid("replayed frame did not decode to a query"));
        };
        let permit = tracer
            .span(req, "server.admit", root_id, || {
                self.admission.admit(TENANT)
            })
            .map_err(|shed| invalid(format!("replay shed: {shed:?}")))?;
        let key = q.text.trim();
        let statement = tracer.span(req, "query.parse", root_id, || cypher::parse(key))?;
        let CypherStatement::Select(select) = statement else {
            return Err(invalid("replayed text is not a MATCH query"));
        };
        let hit = tracer.span(req, "query.cache_get", root_id, || {
            self.cache.get_epoch(key, epoch)
        });
        let cached_plan = hit.is_some();
        let planned = match hit {
            Some(p) => p,
            None => {
                let p = Arc::new(tracer.span(req, "query.plan", root_id, || {
                    gdm_query::plan_select(graph, &select)
                })?);
                tracer.span(req, "query.cache_insert", root_id, || {
                    self.cache.insert_epoch(key, epoch, p.clone())
                });
                p
            }
        };

        // The same plan under the tenant guard (the served path) and
        // under `ExecutionGuard::unlimited()`. Which runs first
        // alternates, so neither side always finds the caches warm.
        let unlimited = |tracer: &mut Tracer| -> Result<u64> {
            let guard = ExecutionGuard::unlimited();
            let span = tracer.start(req, "bench.exec_unlimited", root_id);
            let t = Instant::now();
            let out = gdm_query::execute_planned_governed(graph, &planned, &guard);
            let ns = t.elapsed().as_nanos() as u64;
            tracer.end(span);
            out.map(|_| ns)
        };
        if !n.is_multiple_of(2) {
            self.counts.unlimited_ns += unlimited(tracer)?;
        }
        let charged = self.allowance.charged();
        let guard = tracer.span(req, "govern.guard_new", root_id, || {
            ExecutionGuard::with_allowance(self.limits, CancelToken::new(), self.allowance.clone())
        });
        let span = tracer.start(req, "algo.exec", root_id);
        let t = Instant::now();
        let result = gdm_query::execute_planned_governed(graph, &planned, &guard);
        self.counts.governed_ns += t.elapsed().as_nanos() as u64;
        tracer.end(span);
        let result = result?;
        self.counts.units += self.allowance.charged() - charged;
        self.counts.visits += guard.budget().node_visits() + guard.budget().edge_visits();
        if n.is_multiple_of(2) {
            self.counts.unlimited_ns += unlimited(tracer)?;
        }
        drop(permit);

        if answer_of(&result.rows) != ask.want {
            self.counts.failed += 1;
        }
        self.counts.rows += result.rows.len() as u64;
        let response = Response::Rows(Rows {
            columns: result.columns,
            rows: result.rows,
            cached_plan,
        });
        self.sink.clear();
        let span = tracer.start(req, "server.encode", root_id);
        let t = Instant::now();
        write_frame(&mut self.sink, &response)?;
        self.counts.encode_ns += t.elapsed().as_nanos() as u64;
        tracer.end(span);
        self.counts.encode_bytes += self.sink.len() as u64;
        tracer.end(root);
        Ok(())
    }
}

/// Everything a traced run produced.
pub struct TracedRun {
    pub metrics: Vec<Metric>,
    pub attempted: u64,
    pub failed: u64,
}

fn p50(values: &mut [f64]) -> f64 {
    percentile(values, 0.5)
}

/// Runs the traced pass of `w` over `world`, writes the span file, and
/// derives every per-layer metric.
pub fn run(
    w: &Workload,
    world: &mut World,
    mut source: Source,
    seed: u64,
    out_dir: &Path,
) -> Result<TracedRun> {
    let asks: Vec<Ask> = (0..w.traced_requests).map(|_| source.next()).collect();
    let n = asks.len();

    // Tracing off, then on, over the same requests on one connection:
    // the tracing overhead. The first pass also fills the server's
    // plan cache, as the timed window's warm-up does.
    let plain = wire_pass(world, &asks, &mut Tracer::off())?;
    let mut tracer = Tracer::on();
    let before = world.handle().stats();
    let wire = wire_pass(world, &asks, &mut tracer)?;
    let after = world.handle().stats();

    let snapshot = world
        .replay
        .as_ref()
        .ok_or_else(|| invalid("traced pass needs the replay snapshot"))?;
    let mut replay = Replay::new(snapshot);
    for (n, ask) in asks.iter().enumerate() {
        replay.one(n, ask, &mut tracer)?;
    }
    let counts = replay.counts;
    let read_end = tracer.spans().len();

    let wal_dir = out_dir.join(format!("tmp-walprobe-{}", std::process::id()));
    let mut writer = Writer::new(world, seed, Some(&wal_dir))?;
    let batches = w.probe_batches as u32;
    writer.run(
        world,
        &mut tracer,
        Some(Duration::from_millis(WRITER_PERIOD_MS)),
        |k| k >= batches,
    )?;
    let writes = writer.finish()?;
    let server = world.handle().stats();

    std::fs::create_dir_all(out_dir)?;
    tracer.write_jsonl(&out_dir.join(format!("trace-{}.jsonl", w.name)))?;

    // ---- derive the metrics ------------------------------------------
    let spans = tracer.spans();
    let own = self_times(spans);
    let read_path = &spans[..read_end];

    // Per request: what the replay's layer spans add up to, against
    // the `request` span the same request took over the wire.
    let mut layer_ns = [0u64; LAYERS.len()];
    let mut replay_ns = vec![0u64; n];
    let mut request_ns = vec![0u64; n];
    for (s, &own_ns) in read_path.iter().zip(&own) {
        let req = s.req as usize;
        if s.name == "request" {
            request_ns[req] = s.dur_ns();
        } else if wire.cached_plan[req] && matches!(s.name, "query.plan" | "query.cache_insert") {
            // The replay's private cache starts cold; the server's was
            // filled by the untraced pass. Planning the server did not
            // do is timed (`query.plan_us_p50`) but not held against
            // the request it did not slow.
        } else if let Some(l) = LAYERS.iter().position(|&l| l == s.layer()) {
            layer_ns[l] += own_ns;
            replay_ns[s.req as usize] += own_ns;
        }
    }
    let request_total: u64 = request_ns.iter().sum();
    let mut residual_us: Vec<f64> = request_ns
        .iter()
        .zip(&replay_ns)
        .map(|(&r, &p)| (r as f64 - p as f64) / 1e3)
        .collect();
    let share = |layer: &str| {
        let l = LAYERS.iter().position(|&x| x == layer).expect("layer");
        layer_ns[l] as f64 / request_total as f64
    };

    let mut metrics = Vec::new();
    let mut put = |name: &str, value: f64, unit: &'static str, n: usize| {
        metrics.push(Metric::new(name, value, unit, n));
    };
    let mut put_p50 = |name: &str, span_name: &str, scale: f64, unit: &'static str| {
        let mut d = durations_us(spans, span_name);
        put(name, p50(&mut d) * scale, unit, d.len());
    };

    put_p50("server.decode_us_p50", "server.decode", 1.0, "us");
    put_p50("server.admit_us_p50", "server.admit", 1.0, "us");
    put_p50("server.encode_us_p50", "server.encode", 1.0, "us");
    put_p50("query.parse_us_p50", "query.parse", 1.0, "us");
    put_p50("query.plan_us_p50", "query.plan", 1.0, "us");
    put_p50("query.cache_get_us_p50", "query.cache_get", 1.0, "us");
    put_p50("govern.guard_new_us_p50", "govern.guard_new", 1.0, "us");
    put_p50(
        "engines.mutate_batch_us_p50",
        "engines.mutate_batch",
        1.0,
        "us",
    );
    put_p50("wal.commit_us_p50", "wal.commit", 1.0, "us");
    put_p50("algo.refreeze_ms_p50", "algo.refreeze", 1e-3, "ms");

    for class in crate::gen::Class::ALL {
        let mut d: Vec<f64> = read_path
            .iter()
            .filter(|s| s.name == "algo.exec" && asks[s.req as usize].class == class)
            .map(|s| s.dur_ns() as f64 / 1e3)
            .collect();
        put(
            &format!("algo.exec_us_p50.{}", class.name()),
            p50(&mut d),
            "us",
            d.len(),
        );
    }

    // `refresh_with` minus the refreeze it wraps: pinning the previous
    // snapshot, the swap, the counters.
    let mut swap_us: Vec<f64> = spans
        .iter()
        .zip(&own)
        .filter(|(s, _)| s.name == "server.refresh_with")
        .map(|(_, &ns)| ns as f64 / 1e3)
        .collect();
    put("server.swap_us_p50", p50(&mut swap_us), "us", swap_us.len());

    let rows = counts.rows.max(1) as f64;
    put(
        "server.encode_ns_per_row",
        counts.encode_ns as f64 / rows,
        "ns",
        n,
    );
    put(
        "server.encode_bytes_per_row",
        counts.encode_bytes as f64 / rows,
        "bytes",
        n,
    );
    put(
        "server.wire_residual_us_p50",
        p50(&mut residual_us),
        "us",
        n,
    );
    put("server.share", share("server"), "ratio", n);
    put("query.share", share("query"), "ratio", n);
    put("algo.share", share("algo"), "ratio", n);
    put("govern.share", share("govern"), "ratio", n);

    let shed = server.queue_shed + server.tenants.iter().map(|t| t.shed).sum::<u64>();
    put("server.shed_count", shed as f64, "count", n);
    put(
        "server.frame_errors",
        server.frame_errors as f64,
        "count",
        n,
    );
    let throttled: u64 = server.tenants.iter().map(|t| t.throttled).sum();
    put("govern.throttled_count", throttled as f64, "count", n);
    let hits = after.plan_cache.hits - before.plan_cache.hits;
    let misses = after.plan_cache.misses - before.plan_cache.misses;
    put(
        "query.cache_hit_ratio",
        hits as f64 / (hits + misses).max(1) as f64,
        "ratio",
        (hits + misses) as usize,
    );
    put(
        "query.cache_epoch_evictions",
        server.plan_cache.epoch_evictions as f64,
        "count",
        writes.refresh_ms.len(),
    );

    put(
        "algo.visits_per_row",
        counts.visits as f64 / rows,
        "count",
        n,
    );
    put(
        "govern.units_per_query",
        counts.units as f64 / n as f64,
        "count",
        n,
    );
    put(
        "govern.overhead_ratio",
        counts.governed_ns as f64 / counts.unlimited_ns.max(1) as f64,
        "ratio",
        n,
    );

    let cycles = writes.refresh_ms.len();
    let work: Vec<f64> = writes.refreeze_work.iter().map(|&w| w as f64).collect();
    put("algo.refreeze_work", median(&work), "count", cycles);
    put(
        "engines.pending_changes_p50",
        median(&writes.pending),
        "count",
        cycles,
    );
    put(
        "wal.bytes_per_op",
        writes.wal_bytes as f64 / writes.wal_ops.max(1) as f64,
        "bytes",
        writes.wal_ops as usize,
    );
    put("wal.segments", writes.wal_segments as f64, "count", cycles);
    let mut refresh_ms = writes.refresh_ms.clone();
    put("bench.refresh_ms_p50", p50(&mut refresh_ms), "ms", cycles);
    let mut late = writes.late_ms.clone();
    put(
        "bench.writer_late_ms_p95",
        percentile(&mut late, 0.95),
        "ms",
        cycles,
    );

    put("algo.freeze_ms", world.phases.freeze_ms, "ms", 1);
    put("engines.load_ms", world.phases.load_ms, "ms", 1);
    put("bench.generate_ms", world.phases.generate_ms, "ms", 1);

    // Per request, traced over untraced round trip; the median of
    // those ratios does not care that the requests differ in cost by
    // four orders of magnitude.
    let traced_ms = wire.ms;
    let mut overhead: Vec<f64> = traced_ms
        .iter()
        .zip(&plain.ms)
        .map(|(&traced, &plain)| traced / plain)
        .collect();
    put("bench.trace_overhead_ratio", p50(&mut overhead), "ratio", n);
    // The `request` span by class: one connection, nothing else
    // running — the unloaded round trip, next to `algo.exec_us_p50.*`.
    for class in crate::gen::Class::ALL {
        let mut d: Vec<f64> = traced_ms
            .iter()
            .zip(&asks)
            .filter(|(_, ask)| ask.class == class)
            .map(|(&ms, _)| ms)
            .collect();
        put(
            &format!("bench.request_ms_p50.{}", class.name()),
            p50(&mut d),
            "ms",
            d.len(),
        );
    }
    let mut traced_sorted = traced_ms;
    put("bench.request_ms_p50", p50(&mut traced_sorted), "ms", n);
    put(
        "bench.request_ms_p99",
        percentile(&mut traced_sorted, 0.99),
        "ms",
        n,
    );

    // Every check of the pass: both wire passes, the replay, and the
    // write probe's freshness checks.
    let attempted = 3 * n as u64 + writes.attempted;
    let failed = plain.failed + wire.failed + counts.failed + writes.failed;
    put(
        "bench.fail_ratio",
        failed as f64 / attempted as f64,
        "ratio",
        attempted as usize,
    );

    Ok(TracedRun {
        metrics,
        attempted,
        failed,
    })
}
