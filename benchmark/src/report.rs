//! Metrics as data: the result files, the `BENCHMARK.json` contract,
//! the console table, and the `compare` gate.

use crate::stats::{highest_supported_percentile, median, spread};
use serde::{Content, DeError, Deserialize, Serialize};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

/// One measured value.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: String,
    /// Samples behind the value.
    pub n: usize,
}

impl Metric {
    pub fn new(name: &str, value: f64, unit: &str, n: usize) -> Self {
        Metric {
            name: name.to_owned(),
            value,
            unit: unit.to_owned(),
            n,
        }
    }
}

/// What one run (one workload, one seed) produced.
#[derive(Debug, Clone)]
pub struct RunResult {
    pub seed: u64,
    pub attempted: u64,
    pub failed: u64,
    /// Share of the machine's CPU time the host took away while the
    /// run lasted (`steal` in `/proc/stat`): above a few percent the
    /// timings say more about the neighbours than about the code.
    pub host_steal: f64,
    pub metrics: Vec<Metric>,
}

impl RunResult {
    pub fn empty(seed: u64) -> Self {
        RunResult {
            seed,
            attempted: 0,
            failed: 0,
            host_steal: 0.0,
            metrics: Vec::new(),
        }
    }

    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    /// Adds another pass of the same run (tracing off + tracing on).
    pub fn absorb(&mut self, part: RunResult) {
        self.attempted += part.attempted;
        self.failed += part.failed;
        self.host_steal = self.host_steal.max(part.host_steal);
        self.metrics.extend(part.metrics);
    }
}

/// Any JSON value, through the vendored serde's content tree.
#[derive(Debug, Clone, PartialEq)]
pub struct Json(pub Content);

impl Serialize for Json {
    fn serialize_content(&self) -> Content {
        self.0.clone()
    }
}

impl Deserialize for Json {
    fn deserialize_content(c: &Content) -> Result<Self, DeError> {
        Ok(Json(c.clone()))
    }
}

fn s(text: &str) -> Content {
    Content::Str(text.to_owned())
}

pub fn obj(entries: Vec<(&str, Content)>) -> Content {
    Content::Map(entries.into_iter().map(|(k, v)| (s(k), v)).collect())
}

impl Json {
    pub fn get(&self, key: &str) -> Option<Json> {
        self.0
            .as_map()?
            .iter()
            .find(|(k, _)| matches!(k, Content::Str(name) if name == key))
            .map(|(_, v)| Json(v.clone()))
    }

    pub fn items(&self) -> Vec<Json> {
        self.0
            .as_seq()
            .map(|seq| seq.iter().cloned().map(Json).collect())
            .unwrap_or_default()
    }

    pub fn entries(&self) -> Vec<(String, Json)> {
        self.0
            .as_map()
            .map(|m| {
                m.iter()
                    .filter_map(|(k, v)| match k {
                        Content::Str(name) => Some((name.clone(), Json(v.clone()))),
                        _ => None,
                    })
                    .collect()
            })
            .unwrap_or_default()
    }

    pub fn str(&self) -> Option<&str> {
        match &self.0 {
            Content::Str(text) => Some(text),
            _ => None,
        }
    }

    pub fn num(&self) -> Option<f64> {
        match self.0 {
            Content::I64(i) => Some(i as f64),
            Content::U64(u) => Some(u as f64),
            Content::F64(f) => Some(f),
            _ => None,
        }
    }
}

pub fn read_json(path: &Path) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    serde_json::from_str(&text).map_err(|e| format!("{}: {e}", path.display()))
}

/// One metric of the contract.
#[derive(Debug, Clone)]
pub struct MetricSpec {
    pub name: String,
    pub unit: String,
    pub lower_is_better: bool,
    /// End-to-end metrics carry the share of the parent's median by
    /// which they may worsen; per-layer metrics have none.
    pub bound: Option<f64>,
}

/// The contract, read from `BENCHMARK.json`.
#[derive(Debug, Clone)]
pub struct Contract {
    /// `(name, why)`.
    pub workloads: Vec<(String, String)>,
    /// End-to-end metrics first, then per-layer, in file order.
    pub metrics: Vec<MetricSpec>,
}

/// The repository's `BENCHMARK.json`, one level above this package.
pub fn contract_path() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json")
}

impl Contract {
    pub fn read(path: &Path) -> Result<Contract, String> {
        let json = read_json(path)?;
        let list = |key: &str| json.get(key).map(|j| j.items()).unwrap_or_default();
        let text = |j: &Json, key: &str| {
            j.get(key)
                .and_then(|v| v.str().map(str::to_owned))
                .ok_or_else(|| format!("{}: entry without `{key}`", path.display()))
        };
        let mut contract = Contract {
            workloads: Vec::new(),
            metrics: Vec::new(),
        };
        for w in list("workloads") {
            contract
                .workloads
                .push((text(&w, "name")?, text(&w, "why")?));
        }
        for (key, bounded) in [("end_to_end", true), ("per_layer", false)] {
            for m in list(key) {
                let bound = m.get("bound").and_then(|b| b.num());
                if bounded && bound.is_none() {
                    return Err(format!(
                        "{}: end_to_end entry without bound",
                        path.display()
                    ));
                }
                contract.metrics.push(MetricSpec {
                    name: text(&m, "name")?,
                    unit: text(&m, "unit")?,
                    lower_is_better: text(&m, "better")? == "lower",
                    bound,
                });
            }
        }
        Ok(contract)
    }
}

fn metrics_json(metrics: &[Metric]) -> Content {
    Content::Map(
        metrics
            .iter()
            .map(|m| {
                (
                    s(&m.name),
                    obj(vec![
                        ("value", Content::F64(m.value)),
                        ("unit", s(&m.unit)),
                        ("n", Content::U64(m.n as u64)),
                    ]),
                )
            })
            .collect(),
    )
}

/// The line the driver reads: exactly `correct`, `attempted`, `failed`
/// and `metrics` (each `{value, unit}`), as one JSON object.
pub fn driver_line(run: &RunResult) -> String {
    let metrics = Content::Map(
        run.metrics
            .iter()
            .map(|m| {
                (
                    s(&m.name),
                    obj(vec![("value", Content::F64(m.value)), ("unit", s(&m.unit))]),
                )
            })
            .collect(),
    );
    let line = obj(vec![
        ("correct", Content::Bool(run.correct())),
        ("attempted", Content::U64(run.attempted)),
        ("failed", Content::U64(run.failed)),
        ("metrics", metrics),
    ]);
    serde_json::to_string(&Json(line)).expect("string keys only")
}

/// Writes `<out_dir>/<workload>.json`: the stamp and every run.
pub fn write_result_file(
    out_dir: &Path,
    workload: &str,
    stamp: &Content,
    runs: &[RunResult],
) -> std::io::Result<PathBuf> {
    let runs = runs
        .iter()
        .map(|r| {
            obj(vec![
                ("seed", Content::U64(r.seed)),
                ("correct", Content::Bool(r.correct())),
                ("attempted", Content::U64(r.attempted)),
                ("failed", Content::U64(r.failed)),
                ("host_steal", Content::F64(r.host_steal)),
                ("metrics", metrics_json(&r.metrics)),
            ])
        })
        .collect();
    let file = obj(vec![
        ("workload", s(workload)),
        ("stamp", stamp.clone()),
        ("runs", Content::Seq(runs)),
    ]);
    std::fs::create_dir_all(out_dir)?;
    let path = out_dir.join(format!("{workload}.json"));
    let text = serde_json::to_string(&Json(file)).expect("string keys only");
    std::fs::write(&path, text + "\n")?;
    Ok(path)
}

/// Reads a result file back: the workload's name and its runs.
pub fn read_result_file(path: &Path) -> Result<(String, Vec<RunResult>), String> {
    let json = read_json(path)?;
    let bad = || format!("{}: not a result file", path.display());
    let workload = json.get("workload").ok_or_else(bad)?;
    let workload = workload.str().ok_or_else(bad)?.to_owned();
    let mut runs = Vec::new();
    for run in json.get("runs").ok_or_else(bad)?.items() {
        let whole = |key: &str| run.get(key).and_then(|v| v.num()).ok_or_else(bad);
        let mut metrics = Vec::new();
        for (name, m) in run.get("metrics").ok_or_else(bad)?.entries() {
            metrics.push(Metric::new(
                &name,
                m.get("value").and_then(|v| v.num()).ok_or_else(bad)?,
                m.get("unit")
                    .as_ref()
                    .and_then(|u| u.str())
                    .ok_or_else(bad)?,
                m.get("n").and_then(|v| v.num()).ok_or_else(bad)? as usize,
            ));
        }
        runs.push(RunResult {
            seed: whole("seed")? as u64,
            attempted: whole("attempted")? as u64,
            failed: whole("failed")? as u64,
            host_steal: whole("host_steal")?,
            metrics,
        });
    }
    Ok((workload, runs))
}

/// Prints every metric of a run by name, with unit and sample count.
pub fn print_table(workload: &str, why: &str, run: &RunResult) {
    println!("== {workload} — {why}");
    println!(
        "   seed {}  attempted {}  failed {}  fail_ratio {}",
        run.seed,
        run.attempted,
        run.failed,
        run.failed as f64 / run.attempted.max(1) as f64
    );
    if run.host_steal > 0.02 {
        println!(
            "   warning: the host stole {:.1}% of the CPU time during this run; its timings are unreliable",
            run.host_steal * 100.0
        );
    }
    for m in &run.metrics {
        println!(
            "  {:<34} {:>16.4} {:<6} n={}{}",
            m.name,
            m.value,
            m.unit,
            m.n,
            unsupported_note(&m.name, m.n)
        );
    }
}

/// The percentile a metric's name quotes (`…_p95…` → 0.95).
fn quoted_percentile(name: &str) -> Option<f64> {
    let digits: String = name
        .split("_p")
        .nth(1)?
        .chars()
        .take_while(char::is_ascii_digit)
        .collect();
    let value: f64 = digits.parse().ok()?;
    Some(value / 10f64.powi(digits.len() as i32))
}

/// Says so when a metric quotes a percentile its sample cannot carry
/// (fewer than ten samples beyond it).
fn unsupported_note(name: &str, n: usize) -> String {
    match (quoted_percentile(name), highest_supported_percentile(n)) {
        (Some(q), Some(top)) if q > top => {
            format!("  (n supports at most p{})", top * 100.0)
        }
        (Some(_), None) => "  (n supports no percentile)".to_owned(),
        _ => String::new(),
    }
}

/// `workload → metric → values over the runs` of a result file or of
/// every `*.json` in a directory.
type RunSet = BTreeMap<String, BTreeMap<String, Vec<f64>>>;

fn load_run_set(path: &Path) -> Result<RunSet, String> {
    let mut files = Vec::new();
    if path.is_dir() {
        for entry in std::fs::read_dir(path).map_err(|e| format!("{}: {e}", path.display()))? {
            let p = entry.map_err(|e| e.to_string())?.path();
            if p.extension().is_some_and(|x| x == "json") {
                files.push(p);
            }
        }
        files.sort();
    } else {
        files.push(path.to_owned());
    }
    let mut set = RunSet::new();
    for file in files {
        let (workload, runs) = read_result_file(&file)?;
        let per_metric = set.entry(workload).or_default();
        for m in runs.into_iter().flat_map(|run| run.metrics) {
            per_metric.entry(m.name).or_default().push(m.value);
        }
    }
    Ok(set)
}

/// How `b` stands against `a` on one bounded metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Better by more than the wider of the two run-to-run spreads.
    Better,
    /// No worse than the bound allows.
    Within,
    /// Worse by more than the bound.
    Worse,
    /// A run-to-run spread wider than the bound: cannot tell.
    Unresolved,
}

impl Verdict {
    pub fn label(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Within => "within",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// The gate's rule for one `(metric, workload)` pair.
pub fn verdict(a: &[f64], b: &[f64], lower_is_better: bool, bound: f64) -> Verdict {
    let (ma, mb) = (median(a), median(b));
    let widest = spread(a).unwrap_or(0.0).max(spread(b).unwrap_or(0.0));
    if widest > bound {
        return Verdict::Unresolved;
    }
    // Positive = b is worse, as a share of a.
    let worse_by = if lower_is_better {
        (mb - ma) / ma.abs()
    } else {
        (ma - mb) / ma.abs()
    };
    if worse_by > bound {
        Verdict::Worse
    } else if -worse_by > widest && worse_by < 0.0 {
        Verdict::Better
    } else {
        Verdict::Within
    }
}

/// Prints one row per `(metric, workload)`: medians of `a` and `b`,
/// their ratio with its base, the bound, the spreads, the verdict.
/// Returns how many bounded rows came out worse or unresolved.
pub fn compare(a: &Path, b: &Path, contract: &Contract) -> Result<usize, String> {
    let (sa, sb) = (load_run_set(a)?, load_run_set(b)?);
    let mut flagged = 0;
    println!(
        "{:<16} {:<34} {:>14} {:>14} {:>9}  {:>6} {:>8} {:>8}  verdict",
        "workload", "metric", "a (median)", "b (median)", "b/a", "bound", "spread a", "spread b"
    );
    let pct = |x: Option<f64>| x.map_or("-".to_owned(), |v| format!("{:.1}%", v * 100.0));
    for (workload, ma) in &sa {
        let Some(mb) = sb.get(workload) else {
            println!("{workload:<16} (absent from b)");
            continue;
        };
        for spec in &contract.metrics {
            let (name, lower, bound) = (&spec.name, spec.lower_is_better, spec.bound);
            let (Some(va), Some(vb)) = (ma.get(name), mb.get(name)) else {
                continue;
            };
            let (meda, medb) = (median(va), median(vb));
            let label = match bound {
                Some(bound) => {
                    let v = verdict(va, vb, lower, bound);
                    if matches!(v, Verdict::Worse | Verdict::Unresolved) {
                        flagged += 1;
                    }
                    v.label()
                }
                // Unbounded rows only say whether an exact count repeats.
                None if va.iter().chain(vb).all(|&x| x == va[0]) => "same",
                None => "-",
            };
            println!(
                "{workload:<16} {name:<34} {meda:>14.4} {medb:>14.4} {:>8.3}x  {:>6} {:>8} {:>8}  {label}",
                medb / meda,
                pct(bound),
                pct(spread(va)),
                pct(spread(vb)),
            );
        }
    }
    println!(
        "ratios are b/a (base a = {}); {flagged} bounded row(s) worse or unresolved",
        a.display()
    );
    Ok(flagged)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdict_follows_bound_spread_and_direction() {
        let steady = |m: f64| vec![m * 0.99, m, m * 1.01, m, m];
        // Lower is better: +20 % is worse at a 10 % bound, +5 % within.
        assert_eq!(
            verdict(&steady(10.0), &steady(12.0), true, 0.10),
            Verdict::Worse
        );
        assert_eq!(
            verdict(&steady(10.0), &steady(10.5), true, 0.10),
            Verdict::Within
        );
        assert_eq!(
            verdict(&steady(10.0), &steady(9.0), true, 0.10),
            Verdict::Better
        );
        // Higher is better flips the sign.
        assert_eq!(
            verdict(&steady(100.0), &steady(80.0), false, 0.10),
            Verdict::Worse
        );
        assert_eq!(
            verdict(&steady(100.0), &steady(120.0), false, 0.10),
            Verdict::Better
        );
        // A spread wider than the bound resolves nothing.
        let noisy = vec![8.0, 10.0, 12.0, 9.0, 11.0];
        assert_eq!(
            verdict(&noisy, &steady(20.0), true, 0.10),
            Verdict::Unresolved
        );
    }

    #[test]
    fn table_flags_percentiles_the_sample_cannot_carry() {
        assert_eq!(quoted_percentile("lat_p95_ms"), Some(0.95));
        assert_eq!(quoted_percentile("algo.exec_us_p50.pattern"), Some(0.5));
        assert_eq!(quoted_percentile("qps"), None);
        assert_eq!(
            unsupported_note("bench.lat_p99_ms", 300),
            "  (n supports at most p95)"
        );
        assert_eq!(unsupported_note("bench.lat_p99_ms", 2000), "");
        assert_eq!(
            unsupported_note("query.plan_us_p50", 12),
            "  (n supports no percentile)"
        );
    }

    #[test]
    fn driver_line_has_exactly_the_contract_keys() {
        let run = RunResult {
            seed: 1,
            attempted: 10,
            failed: 0,
            host_steal: 0.0,
            metrics: vec![Metric::new("qps", 1234.5678, "1/s", 10)],
        };
        assert_eq!(
            driver_line(&run),
            "{\"correct\":true,\"attempted\":10,\"failed\":0,\
             \"metrics\":{\"qps\":{\"value\":1234.5678,\"unit\":\"1/s\"}}}"
        );
    }
}
