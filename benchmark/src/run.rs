//! One run of one workload: repeated set-up, the timed window with
//! tracing off (end-to-end metrics), and the traced pass (per-layer
//! metrics).

use crate::gen::{self, Class, ColdCursor, PooledCursor};
use crate::load::{run_connection, ConnStats, Source};
use crate::report::{Metric, RunResult};
use crate::stats::{median, percentile, percentile_sorted};
use crate::trace::Tracer;
use crate::traced;
use crate::verify::{answer_of, Answer, ColdAnswers};
use crate::world::{StreamKind, Workload, World, CONNECTIONS, WRITER_PERIOD_MS};
use crate::write::Writer;
use gdm_core::{GdmError, Result};
use std::path::Path;
use std::sync::{Arc, Barrier};
use std::time::Duration;

/// Warm-up before the timed window (whole blocks, at least this long).
const WARMUP: Duration = Duration::from_millis(500);

/// The classes whose median round trip is an end-to-end metric. The
/// other two are reported by the traced pass only
/// (`bench.request_ms_p50.<class>`), demoted by the issue's rule that
/// a metric too unsteady for its bound is not given a wider one:
/// summarization's cheapest template fans out to morsel worker threads
/// spawned per query, and on two saturated cores its median moved by
/// 18–31 % from run to run; the triangle's moved by 11–15 % on every
/// workload, too close to the widest bound the contract allows, and
/// says little that adjacency's does not.
const GATED_CLASSES: [Class; 2] = [Class::Adjacency, Class::Reachability];

fn scratch_dir(out_dir: &Path, tag: &str) -> std::path::PathBuf {
    out_dir.join(format!("tmp-{tag}-{}", std::process::id()))
}

/// The answers every reply is checked against, and what the request
/// sources are built from. Made once per run: the same seed gives the
/// same graph in every set-up.
enum Reference {
    Pooled {
        pool: Arc<gen::Pool>,
        answers: Arc<Vec<Answer>>,
    },
    Cold {
        answers: Arc<ColdAnswers>,
        persons: Arc<Vec<u32>>,
    },
}

impl Reference {
    /// Pooled texts are answered here by the engine's own live-graph
    /// query path, which bypasses `FrozenGraph`, the plan cache and the
    /// wire; cold answers come from the generator's data alone.
    fn new(w: &Workload, world: &mut World, seed: u64) -> Result<Reference> {
        Ok(match w.stream {
            StreamKind::Pooled => {
                let pool = Arc::new(gen::pool(w.people, seed));
                let mut answers = Vec::with_capacity(pool.texts.len());
                for text in &pool.texts {
                    answers.push(answer_of(&world.engine.execute_query(text)?.rows));
                }
                Reference::Pooled {
                    pool,
                    answers: Arc::new(answers),
                }
            }
            StreamKind::Cold => Reference::Cold {
                answers: Arc::new(ColdAnswers::new(&world.graph)),
                persons: gen::cold_persons(w.people, seed),
            },
        })
    }

    /// One request source per connection, each at the start of its walk.
    fn sources(&self, world: &World, seed: u64, connections: usize) -> Vec<Source> {
        (0..connections)
            .map(|c| match self {
                Reference::Pooled { pool, answers } => Source::Pooled {
                    cursor: PooledCursor::new(seed, c),
                    pool: pool.clone(),
                    answers: answers.clone(),
                },
                Reference::Cold { answers, persons } => Source::Cold {
                    cursor: ColdCursor::new(seed, c, connections, persons.clone()),
                    graph: world.graph.clone(),
                    answers: answers.clone(),
                },
            })
            .collect()
    }
}

/// `(steal, total)` jiffies of the whole machine so far.
fn cpu_times() -> Option<(f64, f64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let fields: Vec<f64> = stat
        .lines()
        .next()?
        .split_whitespace()
        .skip(1)
        .filter_map(|f| f.parse().ok())
        .collect();
    Some((*fields.get(7)?, fields.iter().sum()))
}

/// Peak resident set of this process (`VmHWM`), MiB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// What one episode measured: `(metric, value, samples)`.
struct Episode {
    values: Vec<(String, f64, usize)>,
    attempted: u64,
    failed: u64,
}

/// One episode over a freshly set-up world: warm-up and timed window
/// with tracing off, beside the paced writer when the workload has one.
fn episode(
    w: &Workload,
    world: &mut World,
    reference: &Reference,
    seed: u64,
    seconds: Duration,
) -> Result<Episode> {
    let connections = CONNECTIONS - usize::from(w.refreshing);
    let sources = reference.sources(world, seed, connections);
    let mut writer = match w.refreshing {
        true => Some(Writer::new(world, seed, None)?),
        false => None,
    };
    let addr = world.handle().addr();
    let start = Barrier::new(connections + usize::from(w.refreshing));
    let stats: Vec<std::io::Result<ConnStats>> = std::thread::scope(|s| {
        let conns: Vec<_> = sources
            .into_iter()
            .map(|source| {
                let start = &start;
                s.spawn(move || run_connection(addr, source, WARMUP, seconds, start))
            })
            .collect();
        let mut written = Ok(());
        if let Some(writer) = &mut writer {
            // The writer is this thread (it owns the engine): paced
            // every 100 ms from the start of the window until the
            // reader's last block ends.
            start.wait();
            written = writer.run(
                world,
                &mut Tracer::off(),
                Some(Duration::from_millis(WRITER_PERIOD_MS)),
                |_| conns.iter().all(|c| c.is_finished()),
            );
        }
        let stats = conns
            .into_iter()
            .map(|c| c.join().expect("connection thread panicked"))
            .collect();
        written.map(|()| stats)
    })?;
    // The writer's freshness checks count like any other reply.
    let (mut attempted, mut failed) = match writer {
        Some(writer) => {
            let writes = writer.finish()?;
            (writes.attempted, writes.failed)
        }
        None => (0, 0),
    };

    let mut lat: Vec<(Class, f64)> = Vec::new();
    let mut qps = 0.0;
    for conn in stats {
        let conn = conn.map_err(GdmError::Io)?;
        qps += (conn.lat_ms.len() as u64 - conn.failed) as f64 / conn.elapsed_s;
        failed += conn.failed;
        lat.extend(conn.lat_ms);
    }
    let mut all: Vec<f64> = lat.iter().map(|&(_, ms)| ms).collect();
    all.sort_by(f64::total_cmp);
    let mut values = vec![
        ("qps".to_owned(), qps, all.len()),
        (
            "lat_p95_ms".to_owned(),
            percentile_sorted(&all, 0.95),
            all.len(),
        ),
    ];
    for class in GATED_CLASSES {
        let mut of_class: Vec<f64> = lat
            .iter()
            .filter(|&&(c, _)| c == class)
            .map(|&(_, ms)| ms)
            .collect();
        values.push((
            format!("{}_p50_ms", class.name()),
            percentile(&mut of_class, 0.5),
            of_class.len(),
        ));
    }
    attempted += lat.len() as u64;
    Ok(Episode {
        values,
        attempted,
        failed,
    })
}

/// The end-to-end metrics: `setup_repeats` episodes, each a fresh
/// set-up (new server threads, new connections, new heap for the
/// graph) and a window of `seconds / setup_repeats`; every metric is
/// the median over the episodes. How threads and memory happen to fall
/// differs from one server instance to the next and stays put for its
/// lifetime, so several short windows agree better from run to run
/// than one long one.
fn untraced(w: &Workload, seed: u64, seconds: Duration, out_dir: &Path) -> Result<RunResult> {
    let episodes = w.setup_repeats.max(1);
    let window = seconds / episodes as u32;
    let mut setups = Vec::with_capacity(episodes);
    let mut per_metric: Vec<(String, Vec<f64>, usize)> = Vec::new();
    let mut reference = None;
    // High-water marks of the first episode only. Later episodes add
    // what the allocator happens to keep of earlier worlds, which does
    // not repeat from run to run.
    let (mut setup_rss, mut peak_rss) = (0.0, 0.0);
    let (mut attempted, mut failed) = (0, 0);
    for r in 0..episodes {
        let dir = scratch_dir(out_dir, &format!("world{r}"));
        let mut world = World::set_up(w, seed, &dir, false)?;
        setups.push(world.phases.total_s);
        if r == 0 {
            setup_rss = peak_rss_mb();
        }
        let reference = match &reference {
            Some(made) => made,
            None => &*reference.insert(Reference::new(w, &mut world, seed)?),
        };
        let ep = episode(w, &mut world, reference, seed, window)?;
        attempted += ep.attempted;
        failed += ep.failed;
        if r == 0 {
            peak_rss = peak_rss_mb();
        }
        for (name, value, n) in ep.values {
            match per_metric.iter_mut().find(|(known, ..)| *known == name) {
                Some((_, values, total)) => {
                    values.push(value);
                    *total += n;
                }
                None => per_metric.push((name, vec![value], n)),
            }
        }
    }
    let mut metrics = vec![Metric::new("setup_s", median(&setups), "s", setups.len())];
    for (name, values, n) in &per_metric {
        let unit = if name == "qps" { "1/s" } else { "ms" };
        metrics.push(Metric::new(name, median(values), unit, *n));
    }
    metrics.push(Metric::new("setup_rss_mb", setup_rss, "MiB", 1));
    metrics.push(Metric::new("peak_rss_mb", peak_rss, "MiB", 1));
    Ok(RunResult {
        seed,
        attempted,
        failed,
        host_steal: 0.0,
        metrics,
    })
}

/// One set-up kept with its replay snapshot, then the traced pass.
fn traced(w: &Workload, seed: u64, out_dir: &Path) -> Result<RunResult> {
    let mut world = World::set_up(w, seed, &scratch_dir(out_dir, "traced"), true)?;
    let source = Reference::new(w, &mut world, seed)?
        .sources(&world, seed, 1)
        .pop()
        .expect("one connection");
    let run = traced::run(w, &mut world, source, seed, out_dir)?;
    Ok(RunResult {
        seed,
        attempted: run.attempted,
        failed: run.failed,
        host_steal: 0.0,
        metrics: run.metrics,
    })
}

/// One pass of one workload, in this process: tracing off (end-to-end
/// metrics) or on (per-layer metrics).
pub fn run_workload(
    w: &Workload,
    seed: u64,
    seconds: Duration,
    trace: bool,
    out_dir: &Path,
) -> Result<RunResult> {
    std::fs::create_dir_all(out_dir)?;
    let cpu_before = cpu_times();
    let mut result = if trace {
        traced(w, seed, out_dir)?
    } else {
        untraced(w, seed, seconds, out_dir)?
    };
    if let (Some((steal0, total0)), Some((steal1, total1))) = (cpu_before, cpu_times()) {
        result.host_steal = (steal1 - steal0) / (total1 - total0).max(1.0);
    }
    Ok(result)
}
