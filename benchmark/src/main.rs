//! The repo benchmark: a served essential-query mix at 1 k / 10 k /
//! 100 k people, measured end to end over loopback TCP and attributed
//! to `server` / `query` / `algo` / `govern` / `engines` / `wal`.
//!
//! ```text
//! cargo run --release --manifest-path benchmark/Cargo.toml -- run --seed 2012
//! ```
//!
//! See `README.md` for the metrics, the workloads and the file formats.

mod gen;
mod load;
mod report;
mod run;
mod stats;
mod trace;
mod traced;
mod verify;
mod world;
mod write;

use report::{obj, Contract, RunResult};
use serde::Content;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Duration;
use world::{Workload, WORKLOADS};

const USAGE: &str = "usage:
  gdm-benchmark run [--workload NAME] [--seed N] [--seconds N] [--trace 0|1]
                    [--repeat N] [--out-dir DIR] [--smoke]
  gdm-benchmark compare <a.json|dir> <b.json|dir>

run      every workload (or one), tracing off then on; prints every metric by
         name with unit and sample count and writes <out-dir>/<workload>.json
         and <out-dir>/trace-<workload>.jsonl (default out-dir: benchmark/out).
         With --workload and --trace both given, makes that one pass and ends
         standard output with the one-line JSON result the driver reads.
compare  per (metric, workload): medians, ratio, bound, spreads, verdict.";

struct RunArgs {
    workload: Option<String>,
    seed: u64,
    seconds: u64,
    trace: Option<bool>,
    repeat: usize,
    out_dir: PathBuf,
    smoke: bool,
}

fn parse_run(args: &[String]) -> Result<RunArgs, String> {
    let mut parsed = RunArgs {
        workload: None,
        seed: 2012,
        seconds: 10,
        trace: None,
        repeat: 1,
        out_dir: Path::new(env!("CARGO_MANIFEST_DIR")).join("out"),
        smoke: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if flag == "--smoke" {
            parsed.smoke = true;
            continue;
        }
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} wants a value\n{USAGE}"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag} wants a whole number, got `{value}`"))
        };
        match flag.as_str() {
            "--workload" => parsed.workload = Some(value.clone()),
            "--seed" => parsed.seed = number()?,
            "--seconds" => parsed.seconds = number()?.max(1),
            "--trace" => parsed.trace = Some(number()? != 0),
            "--repeat" => parsed.repeat = number()?.max(1) as usize,
            "--out-dir" => parsed.out_dir = PathBuf::from(value),
            _ => return Err(format!("unknown option {flag}\n{USAGE}")),
        }
    }
    Ok(parsed)
}

fn command_line(program: &str, args: &[&str]) -> String {
    std::process::Command::new(program)
        .args(args)
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".to_owned(), |s| s.trim().to_owned())
}

/// Where and how the numbers were taken; written into every result file.
fn stamp(args: &RunArgs) -> Content {
    let text = |t: &str| Content::Str(t.to_owned());
    let nproc = std::fs::read_to_string("/proc/cpuinfo")
        .map(|c| c.lines().filter(|l| l.starts_with("processor")).count())
        .unwrap_or(0);
    let config = world::server_config();
    let tenant = &config.tenants[0];
    obj(vec![
        ("nproc", Content::U64(nproc as u64)),
        ("available_parallelism", Content::U64(cores() as u64)),
        (
            "executor_workers",
            Content::U64(gdm_algo::executor_workers() as u64),
        ),
        ("rustc", text(&command_line("rustc", &["--version"]))),
        (
            "git_commit",
            text(&command_line("git", &["rev-parse", "HEAD"])),
        ),
        ("seed", Content::U64(args.seed)),
        ("seconds", Content::U64(args.seconds)),
        ("connections", Content::U64(world::CONNECTIONS as u64)),
        (
            "plan_cache_capacity",
            Content::U64(config.plan_cache_capacity as u64),
        ),
        ("server_slots", Content::U64(config.slots as u64)),
        ("server_queue", Content::U64(config.queue as u64)),
        ("tenant_burst_cap", Content::I64(tenant.burst_cap)),
        (
            "tenant_max_in_flight",
            Content::U64(tenant.max_in_flight as u64),
        ),
        ("refill_credits", Content::U64(config.refill_credits)),
        (
            "refill_interval_ms",
            Content::U64(config.refill_interval.as_millis() as u64),
        ),
        ("sync_policy", text(&format!("{:?}", world::SYNC))),
        ("write_batch", Content::U64(world::BATCH as u64)),
        ("writer_period_ms", Content::U64(world::WRITER_PERIOD_MS)),
    ])
}

fn cores() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// The smoke pair: `mix_1k` and a 3-batch `refresh_10k` cut down to
/// 1 000 people, one second each.
fn smoke_workloads() -> Vec<Workload> {
    let mut mix = world::workload("mix_1k").expect("mix_1k");
    let mut refresh = world::workload("refresh_10k").expect("refresh_10k");
    refresh.people = 1_000;
    for w in [&mut mix, &mut refresh] {
        w.setup_repeats = 1;
        w.traced_requests = 200;
        w.probe_batches = 3;
    }
    vec![mix, refresh]
}

/// Every metric of the contract must be there, finite, with its unit
/// and a sample count.
fn check_against_contract(contract: &Contract, workload: &str, run: &RunResult) -> Vec<String> {
    let mut problems = Vec::new();
    for spec in &contract.metrics {
        let name = &spec.name;
        match run.metrics.iter().find(|m| &m.name == name) {
            None => problems.push(format!("{workload}: metric {name} is missing")),
            Some(m) if !m.value.is_finite() => {
                problems.push(format!("{workload}: metric {name} is not finite"))
            }
            Some(m) if m.unit != spec.unit => problems.push(format!(
                "{workload}: metric {name} has unit {}, contract says {}",
                m.unit, spec.unit
            )),
            Some(m) if m.n == 0 => problems.push(format!("{workload}: metric {name} has n = 0")),
            Some(_) => {}
        }
    }
    for m in &run.metrics {
        if !contract.metrics.iter().any(|spec| spec.name == m.name) {
            problems.push(format!(
                "{workload}: metric {} is not in BENCHMARK.json",
                m.name
            ));
        }
    }
    problems
}

/// One pass in a process of its own: re-runs this program the way the
/// driver does and reads the result file the child wrote. Peak memory,
/// allocator state and thread placement then start afresh for every
/// measurement, so a suite's numbers match single runs'.
fn measure_in_child(w: &Workload, args: &RunArgs, trace: bool) -> Result<RunResult, String> {
    let child_dir = args
        .out_dir
        .join(format!("tmp-child-{}", std::process::id()));
    let exe = std::env::current_exe().map_err(|e| format!("own path: {e}"))?;
    let output = std::process::Command::new(exe)
        .arg("run")
        .args(["--workload", w.name])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .arg("--out-dir")
        .arg(&child_dir)
        .stderr(std::process::Stdio::inherit())
        .output()
        .map_err(|e| format!("{}: cannot start the measuring process: {e}", w.name))?;
    // Everything but the child's last line (the driver's JSON).
    let stdout = String::from_utf8_lossy(&output.stdout);
    let lines: Vec<&str> = stdout.lines().collect();
    for line in &lines[..lines.len().saturating_sub(1)] {
        if !line.starts_with("wrote ") {
            println!("{line}");
        }
    }
    let run = report::read_result_file(&child_dir.join(format!("{}.json", w.name)))
        .map_err(|e| format!("{}: measuring process left no result ({e})", w.name))?
        .1
        .pop()
        .ok_or_else(|| format!("{}: measuring process left an empty result", w.name))?;
    if trace {
        let name = format!("trace-{}.jsonl", w.name);
        std::fs::rename(child_dir.join(&name), args.out_dir.join(&name))
            .map_err(|e| format!("{name}: {e}"))?;
    }
    let _ = std::fs::remove_dir_all(&child_dir);
    Ok(run)
}

fn run_command(args: &[String]) -> Result<ExitCode, String> {
    let mut args = parse_run(args)?;
    if cores() < 2 {
        println!(
            "warning: only {} core available — load threads and server share it, and every \
             parallel row measures thread-pool overhead only",
            cores()
        );
    }
    let contract = Contract::read(&report::contract_path())?;
    let why = |name: &str| {
        contract
            .workloads
            .iter()
            .find(|(known, _)| known == name)
            .map_or("", |(_, why)| why.as_str())
    };
    let workloads: Vec<Workload> = if args.smoke {
        // The smoke pair is cut down: one second each, and its files
        // kept apart from real results.
        args.seconds = 1;
        args.out_dir = args.out_dir.join("smoke");
        smoke_workloads()
    } else {
        match &args.workload {
            Some(name) => vec![world::workload(name).ok_or_else(|| {
                let known: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
                format!("unknown workload `{name}`; known: {known:?}")
            })?],
            None => WORKLOADS.to_vec(),
        }
    };
    // What the driver runs: one workload, one pass, in this process.
    let driver_mode = args.workload.is_some() && args.trace.is_some() && !args.smoke;
    let traces: &[bool] = match args.trace {
        Some(false) => &[false],
        Some(true) => &[true],
        None => &[false, true],
    };
    let seconds = Duration::from_secs(args.seconds);
    let stamp = stamp(&args);
    std::fs::create_dir_all(&args.out_dir)
        .map_err(|e| format!("{}: {e}", args.out_dir.display()))?;

    let mut all_correct = true;
    let mut problems = Vec::new();
    let mut last = None;
    for w in &workloads {
        let mut runs = Vec::with_capacity(args.repeat);
        for _ in 0..args.repeat {
            let mut result = RunResult::empty(args.seed);
            for &trace in traces {
                result.absorb(if driver_mode || args.smoke {
                    let part = run::run_workload(w, args.seed, seconds, trace, &args.out_dir)
                        .map_err(|e| format!("{}: {e}", w.name))?;
                    report::print_table(w.name, why(w.name), &part);
                    part
                } else {
                    measure_in_child(w, &args, trace)?
                });
            }
            all_correct &= result.correct();
            if traces.len() == 2 {
                problems.extend(check_against_contract(&contract, w.name, &result));
            }
            runs.push(result);
        }
        let path = report::write_result_file(&args.out_dir, w.name, &stamp, &runs)
            .map_err(|e| format!("{}: {e}", args.out_dir.display()))?;
        println!("wrote {}", path.display());
        last = runs.pop();
    }
    for p in &problems {
        println!("contract: {p}");
    }
    let ok = all_correct && problems.is_empty();
    if driver_mode {
        println!("{}", report::driver_line(&last.expect("one workload ran")));
    } else {
        println!("benchmark: {}", if ok { "OK" } else { "FAILED" });
    }
    Ok(if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn compare_command(args: &[String]) -> Result<ExitCode, String> {
    let [a, b] = args else {
        return Err(format!(
            "compare wants two result files or directories\n{USAGE}"
        ));
    };
    let contract = Contract::read(&report::contract_path())?;
    let flagged = report::compare(Path::new(a), Path::new(b), &contract)?;
    Ok(if flagged == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.split_first() {
        Some((cmd, rest)) if cmd == "run" => run_command(rest),
        Some((cmd, rest)) if cmd == "compare" => compare_command(rest),
        _ => Err(USAGE.to_owned()),
    };
    outcome.unwrap_or_else(|message| {
        eprintln!("{message}");
        ExitCode::from(2)
    })
}
