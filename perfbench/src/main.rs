//! The repository benchmark: labeling cycles, multi-tenant serving and
//! paper-scale planning, end to end and layer by layer.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload cycles-nautilus --seed 1 --seconds 15 --trace 0
//! ```
//!
//! Run from the repository root. The last line of standard output is the
//! result: `{"correct", "attempted", "failed", "metrics"}`, with the
//! end-to-end metrics for `--trace 0` and the per-layer metrics for
//! `--trace 1`. The line before it is the full record: seed, host and
//! revision stamp, and every named metric of the workload. Progress goes
//! to standard error. The process exits 1 when any output check fails and
//! 2 on a usage or set-up error. See `perfbench/README.md` for what each
//! metric means and which end-to-end metric each layer metric should move.

mod cycles;
mod host;
mod jsonread;
mod layers;
mod loadgen;
mod selftime;
mod serving;
mod stats;

use nautilus_util::json::Json;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};

/// The workloads, by name.
const WORKLOADS: [&str; 3] = ["cycles-nautilus", "serve-multitenant", "plan-paper-scale"];

/// A measured value with its unit.
#[derive(Debug, Clone, Copy)]
pub struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
}

impl Metric {
    fn new(name: &'static str, value: f64, unit: &'static str) -> Metric {
        Metric { name, value, unit }
    }
}

/// What one run of a workload measured.
#[derive(Default)]
pub struct Outcome {
    /// Operations attempted: `fit` calls, plans, requests.
    attempted: u64,
    /// Operations that failed or gave a wrong output.
    failed: u64,
    /// Failed checks, for the log.
    problems: Vec<String>,
    /// End-to-end metrics.
    e2e: Vec<Metric>,
    /// The workload's own named metrics (`selection_s`, `serve_max_rps`,
    /// ...), reported in the record line.
    named: Vec<Metric>,
    /// Layer values read from the public API rather than the trace.
    layers: BTreeMap<&'static str, f64>,
    /// Units of work the trace totals are divided by (sessions).
    per: f64,
    /// Free-form facts for the record line.
    details: Vec<(String, Json)>,
    /// Self times of the traced run, taken before any check or direct
    /// planner call adds spans of its own.
    profile: Option<selftime::TraceProfile>,
}

/// One run's settings.
pub struct Ctx {
    seed: u64,
    secs: f64,
    traced: bool,
    /// Scratch directory inside the working directory.
    workdir: PathBuf,
}

/// Exports the trace so far and computes its self times.
pub fn snapshot_trace(ctx: &Ctx) -> Result<selftime::TraceProfile, String> {
    let path = ctx.workdir.join("snapshot.trace.json");
    let t = std::time::Instant::now();
    nautilus_util::telemetry::export_to(&path).map_err(|e| format!("trace export: {e}"))?;
    let bytes = std::fs::read(&path).map_err(|e| format!("trace read: {e}"))?;
    let _ = std::fs::remove_file(&path);
    let profile = selftime::profile(&jsonread::parse(&bytes)?)?;
    eprintln!(
        "trace: {} bytes profiled in {:.2} s; nesting of {} spans checked, {} differ",
        bytes.len(),
        t.elapsed().as_secs_f64(),
        profile.nesting_checked,
        profile.nesting_mismatches
    );
    Ok(profile)
}

struct Args {
    workload: String,
    seed: u64,
    secs: f64,
    trace: bool,
    traced_child: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        secs: 15.0,
        trace: false,
        traced_child: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--traced-child" {
            args.traced_child = true;
            continue;
        }
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => args.secs = value.parse().map_err(|e| bad(&e))?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if args.workload != "all" && !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!("--workload must be all or one of {WORKLOADS:?}"));
    }
    if args.secs.is_nan() || args.secs <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(args)
}

fn run_workload(args: &Args, traced: bool) -> Result<Outcome, String> {
    let workdir = std::env::current_dir()
        .map_err(|e| format!("working directory: {e}"))?
        .join(".bench_work")
        .join(format!("{}-{}", args.workload, std::process::id()));
    std::fs::create_dir_all(&workdir).map_err(|e| format!("{}: {e}", workdir.display()))?;
    let ctx = Ctx {
        seed: args.seed,
        secs: args.secs,
        traced,
        workdir: workdir.clone(),
    };
    let result = match args.workload.as_str() {
        "cycles-nautilus" => cycles::cycles_nautilus(&ctx),
        "serve-multitenant" => serving::serve_multitenant(&ctx),
        _ => cycles::plan_paper_scale(&ctx),
    };
    let _ = std::fs::remove_dir_all(&workdir);
    if let Some(parent) = workdir.parent() {
        // Removes `.bench_work` itself once nothing else uses it.
        let _ = std::fs::remove_dir(parent);
    }
    let out = result?;
    for p in &out.problems {
        eprintln!("check failed: {p}");
    }
    Ok(out)
}

fn metrics_json(metrics: &[Metric]) -> Json {
    Json::obj(metrics.iter().map(|m| {
        (
            m.name,
            Json::obj([
                ("value", Json::Num(m.value)),
                ("unit", Json::Str(m.unit.into())),
            ]),
        )
    }))
}

fn value_of(metrics: &[Metric], name: &str) -> f64 {
    metrics
        .iter()
        .find(|m| m.name == name)
        .map_or(0.0, |m| m.value)
}

/// The traced half of `--trace 1`: runs with `NAUTILUS_TRACE` set and
/// prints its layer metrics as one JSON line.
fn traced_child(args: &Args) -> Result<bool, String> {
    if !nautilus_util::telemetry::init_from_env() {
        return Err("the traced run needs NAUTILUS_TRACE".into());
    }
    let out = run_workload(args, true)?;
    let profile = out
        .profile
        .as_ref()
        .ok_or("the workload took no trace snapshot")?;
    let (layer_metrics, problems) = layers::assemble(&out, profile);
    for p in &problems {
        eprintln!("check failed: {p}");
    }
    let ok = out.problems.is_empty() && problems.is_empty() && out.failed == 0;
    println!(
        "{}",
        Json::obj([
            ("correct", Json::Bool(ok)),
            ("attempted", Json::Int(out.attempted as i128)),
            ("failed", Json::Int(out.failed as i128)),
            ("wait_ms", Json::Num(value_of(&out.named, "wait_ms"))),
            ("metrics", metrics_json(&layer_metrics)),
        ])
    );
    Ok(ok)
}

/// `--workload all`: runs every workload in turn, each in a process of its
/// own so none inherits another's threads, memory peak or telemetry.
fn run_all(args: &Args) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current exe: {e}"))?;
    let mut all_ok = true;
    for workload in WORKLOADS {
        let status = Command::new(&exe)
            .args(["--workload", workload, "--seed", &args.seed.to_string()])
            .args(["--seconds", &args.secs.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .status()
            .map_err(|e| format!("{workload}: {e}"))?;
        match status.code() {
            Some(0) => {}
            Some(1) => all_ok = false,
            _ => return Err(format!("{workload} exited with {status}")),
        }
    }
    Ok(all_ok)
}

/// Runs the traced half in a child process and returns its result line.
fn spawn_traced(args: &Args) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current exe: {e}"))?;
    let trace_dir = std::env::current_dir()
        .map_err(|e| e.to_string())?
        .join(".bench_work");
    std::fs::create_dir_all(&trace_dir).map_err(|e| e.to_string())?;
    let trace_path = trace_dir.join(format!(
        "{}-{}.trace.json",
        args.workload,
        std::process::id()
    ));
    let output = Command::new(exe)
        .args([
            "--workload",
            &args.workload,
            "--seed",
            &args.seed.to_string(),
        ])
        .args(["--seconds", &args.secs.to_string(), "--traced-child"])
        .env("NAUTILUS_TRACE", &trace_path)
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("traced run: {e}"))?;
    let _ = std::fs::remove_file(&trace_path);
    let _ = std::fs::remove_dir(&trace_dir);
    let stdout = String::from_utf8_lossy(&output.stdout);
    let last = stdout.lines().last().unwrap_or("");
    if !output.status.success() && output.status.code() != Some(1) {
        return Err(format!("traced run exited with {}", output.status));
    }
    jsonread::parse(last.as_bytes()).map_err(|e| format!("traced run result: {e}"))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <all|{}> --seed <n> --seconds <s> --trace <0|1>",
                WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    let result = if args.traced_child {
        traced_child(&args)
    } else if args.workload == "all" {
        run_all(&args)
    } else {
        run(&args)
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(2)
        }
    }
}

fn run(args: &Args) -> Result<bool, String> {
    let ticks = host::cpu_ticks();
    let out = run_workload(args, false)?;
    let steal = host::steal_frac(ticks, host::cpu_ticks());
    let mut correct = out.problems.is_empty() && out.failed == 0;
    let (mut attempted, mut failed) = (out.attempted, out.failed);
    let metrics = if args.trace {
        let child = spawn_traced(args)?;
        let field = |k: &str| child.get(k).and_then(Json::as_f64).unwrap_or(0.0);
        correct &= child
            .get("correct")
            .and_then(Json::as_bool)
            .unwrap_or(false);
        attempted += field("attempted") as u64;
        failed += field("failed") as u64;
        let mut m = child.get("metrics").cloned().unwrap_or(Json::Null);
        let untraced = value_of(&out.named, "wait_ms");
        let overhead = if untraced > 0.0 {
            field("wait_ms") / untraced - 1.0
        } else {
            0.0
        };
        if let Json::Obj(fields) = &mut m {
            fields.push((
                "trace.overhead_frac".into(),
                Json::obj([
                    ("value", Json::Num(overhead)),
                    ("unit", Json::Str("ratio".into())),
                ]),
            ));
        }
        m
    } else {
        metrics_json(&out.e2e)
    };
    let mut named = out.named.clone();
    named.extend(out.e2e.iter().copied());
    named.push(Metric::new(
        "fail_frac",
        if attempted > 0 {
            failed as f64 / attempted as f64
        } else {
            0.0
        },
        "ratio",
    ));
    let mut record = vec![
        ("workload".to_string(), Json::Str(args.workload.clone())),
        ("seed".to_string(), Json::Int(args.seed as i128)),
        ("seconds".to_string(), Json::Num(args.secs)),
        ("trace".to_string(), Json::Bool(args.trace)),
        ("host".to_string(), host::stamp()),
        ("cpu_steal_frac".to_string(), Json::Num(steal)),
        ("named".to_string(), metrics_json(&named)),
        (
            "layers_api".to_string(),
            Json::obj(out.layers.iter().map(|(k, v)| (*k, Json::Num(*v)))),
        ),
    ];
    record.extend(out.details);
    println!("{}", Json::Obj(record));
    println!(
        "{}",
        Json::obj([
            ("correct", Json::Bool(correct)),
            ("attempted", Json::Int(attempted.max(1) as i128)),
            ("failed", Json::Int(failed as i128)),
            ("metrics", metrics),
        ])
    );
    Ok(correct)
}
