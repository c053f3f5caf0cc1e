//! Command line: the driver's one-workload runs, and the benchmark's own
//! whole-suite, repeat, smoke and probe modes.

use crate::json::{self, Value};
use crate::metrics::{self, Def};
use crate::runner::{self, RunResult, RunSpec};
use crate::workloads::{Workload, ALLOC_PROBE, THREADS};
use std::path::PathBuf;
use std::process::Command;

const USAGE: &str = "\
usage: run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>   one run, result as the last line
       run.sh [--seed <n>] [--seconds <s>] [--repeat <n>] [--smoke]      every workload, both ways, plus probes
       run.sh --probe [--seed <n>]                                       the per-layer probes alone
       run.sh --print-manifest                                           the contents of BENCHMARK.json
  --spans <file>   with --trace 1: also write every recorded span to <file>
  --smoke          1/50 size, correctness and schema only, no timing claims
  --repeat <n>     run the suite n times; non-zero exit if two sets disagree beyond a metric's bound";

/// Free space the temp dir must have before a run starts.
const MIN_FREE_BYTES: u64 = 4 << 30;

#[derive(Default)]
struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    repeat: usize,
    smoke: bool,
    probe: bool,
    no_probes: bool,
    print_manifest: bool,
    spans: Option<PathBuf>,
}

fn parse_args(raw: &[String]) -> Result<Args, String> {
    let mut args = Args {
        seed: 1,
        seconds: metrics::RUN_SECONDS as f64,
        repeat: 1,
        ..Args::default()
    };
    let mut it = raw.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = Some(value()?.clone()),
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--repeat" => args.repeat = value()?.parse().map_err(|e| format!("--repeat: {e}"))?,
            "--spans" => args.spans = Some(PathBuf::from(value()?)),
            "--smoke" => args.smoke = true,
            "--probe" => args.probe = true,
            "--no-probes" => args.no_probes = true,
            "--print-manifest" => args.print_manifest = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if !(args.seconds > 0.0 && args.seconds <= 60.0) {
        return Err("--seconds must be in (0, 60]".into());
    }
    if args.repeat == 0 {
        return Err("--repeat must be at least 1".into());
    }
    Ok(args)
}

/// What the run depends on besides the code.
struct Env {
    nproc: usize,
    free_bytes: Option<u64>,
}

fn free_bytes(dir: &std::path::Path) -> Option<u64> {
    // POSIX `df -Pk`: second line, fourth column = available KiB.
    let out = Command::new("df").arg("-Pk").arg(dir).output().ok()?;
    let text = String::from_utf8(out.stdout).ok()?;
    let kib: u64 = text
        .lines()
        .nth(1)?
        .split_whitespace()
        .nth(3)?
        .parse()
        .ok()?;
    Some(kib * 1024)
}

/// Refuses to run where the numbers would not mean what they claim.
fn check_env() -> Result<Env, String> {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    if nproc < THREADS {
        return Err(format!(
            "{nproc} core(s): the benchmark drives {THREADS} generator threads and makes no claim on fewer cores"
        ));
    }
    let root = crate::cluster::temp_root().map_err(|e| format!("temp dir: {e}"))?;
    std::fs::create_dir_all(&root).map_err(|e| format!("{}: {e}", root.display()))?;
    let free_bytes = free_bytes(&root);
    if free_bytes.is_some_and(|free| free < MIN_FREE_BYTES) {
        return Err(format!(
            "{} has less than {} GiB free",
            root.display(),
            MIN_FREE_BYTES >> 30
        ));
    }
    Ok(Env { nproc, free_bytes })
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or("unknown".into(), |s| s.trim().to_string())
}

fn result_line(result: &RunResult, defs: &[Def]) -> Result<Value, String> {
    let mut metrics = Vec::new();
    for d in defs {
        let value = result
            .values
            .iter()
            .find(|(name, _)| *name == d.name)
            .map(|(_, v)| *v)
            .ok_or(format!("run did not measure {}", d.name))?;
        if !value.is_finite() {
            return Err(format!("{} is not a number", d.name));
        }
        metrics.push((
            d.name.clone(),
            Value::obj([("value", Value::Num(value)), ("unit", Value::str(d.unit))]),
        ));
    }
    Ok(Value::obj([
        ("correct", Value::Bool(result.failed == 0)),
        ("attempted", Value::Num(result.attempted as f64)),
        ("failed", Value::Num(result.failed as f64)),
        ("metrics", Value::Obj(metrics)),
    ]))
}

fn print_table(title: &str, line: &Value, out: &mut impl std::io::Write) {
    let _ = writeln!(out, "── {title}");
    for (name, m) in line.get("metrics").map_or(&[][..], Value::fields) {
        let value = m.get("value").and_then(Value::as_f64).unwrap_or(f64::NAN);
        let unit = match m.get("unit") {
            Some(Value::Str(u)) => u.as_str(),
            _ => "",
        };
        let _ = writeln!(out, "  {name:<40} {value:>16.4} {unit}");
    }
}

/// One run in this process; the result is the last line of stdout.
fn run_one(args: &Args, env: &Env) -> Result<i32, String> {
    let name = args.workload.as_deref().expect("checked by the caller");
    let workload = Workload::parse(name).ok_or(format!("unknown workload {name}"))?;
    let spec = RunSpec {
        workload,
        seed: args.seed,
        seconds: args.seconds,
        smoke: args.smoke,
    };
    let (result, defs) = if args.trace {
        let mut defs = metrics::per_layer();
        if args.no_probes {
            defs.retain(|d| metrics::probe_unit(&d.name).is_none());
        }
        (
            runner::traced(spec, !args.no_probes, args.spans.as_deref())?,
            defs,
        )
    } else {
        (runner::measured(spec)?, metrics::end_to_end())
    };
    let line = result_line(&result, &defs)?;
    let stdout = &mut std::io::stdout().lock();
    print_table(
        &format!(
            "{name} seed {} seconds {} trace {} nproc {} free_disk_gib {}",
            args.seed,
            args.seconds,
            args.trace as u8,
            env.nproc,
            env.free_bytes
                .map_or("unknown".into(), |b| (b >> 30).to_string()),
        ),
        &line,
        stdout,
    );
    use std::io::Write;
    writeln!(stdout, "{}", line.compact()).map_err(|e| format!("stdout: {e}"))?;
    Ok((result.failed > 0) as i32)
}

/// Runs this program again as a child for one workload and parses its last
/// line. A child per workload gives each its own `peak_rss_mb` and keeps one
/// workload's crash from taking the suite's temp-dir cleanup with it.
fn run_child(args: &Args, workload: Workload, trace: bool) -> Result<Value, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current exe: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload.name()])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .arg("--no-probes");
    if args.smoke {
        cmd.arg("--smoke");
    }
    let out = cmd
        .stderr(std::process::Stdio::inherit())
        .output()
        .map_err(|e| format!("spawn child: {e}"))?;
    let text = String::from_utf8_lossy(&out.stdout);
    let last = text.lines().last().unwrap_or("");
    let line = json::parse(last).map_err(|e| {
        format!(
            "{} trace {}: no result line ({e}); exit {:?}",
            workload.name(),
            trace as u8,
            out.status.code()
        )
    })?;
    Ok(line)
}

/// Runs the probes; their values in the shape of a run's result line.
fn probes_line(seed: u64) -> Result<Value, String> {
    let metrics = crate::probes::run_all(seed)?
        .into_iter()
        .map(|(name, value)| {
            let unit = metrics::probe_unit(name).unwrap_or("");
            (
                name.to_string(),
                Value::obj([("value", Value::Num(value)), ("unit", Value::str(unit))]),
            )
        })
        .collect();
    Ok(Value::obj([("metrics", Value::Obj(metrics))]))
}

/// `name → (unit, values across sets)`, in first-seen order.
#[derive(Default)]
struct Collected(Vec<(String, String, Vec<f64>)>);

impl Collected {
    fn add(&mut self, line: &Value) {
        for (name, m) in line.get("metrics").map_or(&[][..], Value::fields) {
            let value = m.get("value").and_then(Value::as_f64).unwrap_or(f64::NAN);
            let unit = match m.get("unit") {
                Some(Value::Str(u)) => u.clone(),
                _ => String::new(),
            };
            match self.0.iter_mut().find(|(n, _, _)| n == name) {
                Some((_, _, values)) => values.push(value),
                None => self.0.push((name.clone(), unit, vec![value])),
            }
        }
    }

    fn to_json(&self) -> Value {
        Value::Obj(
            self.0
                .iter()
                .map(|(name, unit, values)| {
                    let mut sorted = values.clone();
                    sorted.sort_by(f64::total_cmp);
                    let n = sorted.len();
                    let median = (sorted[(n - 1) / 2] + sorted[n / 2]) / 2.0;
                    (
                        name.clone(),
                        Value::obj([
                            ("unit", Value::str(unit)),
                            ("median", Value::Num(median)),
                            ("min", Value::Num(sorted[0])),
                            ("max", Value::Num(sorted[n - 1])),
                            (
                                "values",
                                Value::Arr(values.iter().map(|v| Value::Num(*v)).collect()),
                            ),
                        ]),
                    )
                })
                .collect(),
        )
    }
}

/// The whole suite, `--repeat` times: every workload measured and traced in
/// its own child process, the probes once per set. Prints a table per run on
/// stderr and one JSON document on stdout.
fn run_suite(args: &Args, env: &Env) -> Result<i32, String> {
    let e2e_defs = metrics::end_to_end();
    let mut per_workload: Vec<(Workload, Collected, Collected, u64, u64)> = Workload::ALL
        .iter()
        .map(|&w| (w, Collected::default(), Collected::default(), 0, 0))
        .collect();
    let mut probes = Collected::default();
    let stderr = &mut std::io::stderr();
    for set in 1..=args.repeat {
        for (w, e2e, layers, attempted, failed) in per_workload.iter_mut() {
            for trace in [false, true] {
                let line = run_child(args, *w, trace)?;
                print_table(
                    &format!("set {set}: {} trace {}", w.name(), trace as u8),
                    &line,
                    stderr,
                );
                *attempted += line.get("attempted").and_then(Value::as_f64).unwrap_or(0.0) as u64;
                *failed += line.get("failed").and_then(Value::as_f64).unwrap_or(0.0) as u64;
                if line.get("correct").and_then(Value::as_bool) != Some(true) {
                    *failed = (*failed).max(1);
                }
                if trace {
                    layers.add(&line)
                } else {
                    e2e.add(&line)
                }
            }
        }
        let line = probes_line(args.seed)?;
        print_table(&format!("set {set}: probes"), &line, stderr);
        probes.add(&line);
    }

    // Schema: every run reported exactly the metrics the manifest lists.
    let mut problems: Vec<String> = Vec::new();
    let layer_names: Vec<String> = metrics::per_layer()
        .into_iter()
        .map(|d| d.name)
        .filter(|n| metrics::probe_unit(n).is_none())
        .collect();
    for (w, e2e, layers, _, failed) in &per_workload {
        let got: Vec<&String> = e2e.0.iter().map(|(n, _, _)| n).collect();
        if got != e2e_defs.iter().map(|d| &d.name).collect::<Vec<_>>() {
            problems.push(format!(
                "{}: end-to-end metric names differ from the manifest",
                w.name()
            ));
        }
        if layers.0.iter().map(|(n, _, _)| n).collect::<Vec<_>>()
            != layer_names.iter().collect::<Vec<_>>()
        {
            problems.push(format!(
                "{}: per-layer metric names differ from the manifest",
                w.name()
            ));
        }
        if *failed > 0 {
            problems.push(format!(
                "{}: {failed} operation(s) failed or answered wrongly",
                w.name()
            ));
        }
        for (name, _, values) in &e2e.0 {
            if values.iter().any(|v| !v.is_finite() || *v <= 0.0) {
                problems.push(format!("{}: {name} is not a positive number", w.name()));
            }
        }
        if let Some((_, _, values)) = layers
            .0
            .iter()
            .find(|(n, _, _)| n == "gen.achieved_rate_share")
        {
            if !args.smoke && values.iter().any(|v| *v < 0.99) {
                problems.push(format!(
                    "{}: the generator fell behind its schedule; the run is invalid",
                    w.name()
                ));
            }
        }
        // Two sets of this commit must agree within each metric's own bound
        // (no timing claims in a smoke run).
        if !args.smoke {
            for (d, (name, _, values)) in e2e_defs.iter().zip(&e2e.0) {
                let (lo, hi) = values.iter().fold((f64::INFINITY, 0.0f64), |(lo, hi), v| {
                    (lo.min(*v), hi.max(*v))
                });
                let bound = d.bound.expect("end-to-end metrics are bounded");
                if (hi - lo) / lo > bound {
                    problems.push(format!(
                        "{}: {name} differs by {:.1} % between sets (bound {:.0} %)",
                        w.name(),
                        (hi - lo) / lo * 100.0,
                        bound * 100.0
                    ));
                }
            }
        }
    }
    let doc = Value::obj([
        (
            "env",
            Value::obj([
                ("nproc", Value::Num(env.nproc as f64)),
                ("rustc", Value::str(command_line("rustc", &["--version"]))),
                (
                    "commit",
                    Value::str(command_line("git", &["rev-parse", "HEAD"])),
                ),
                ("seed", Value::Num(args.seed as f64)),
                ("seconds", Value::Num(args.seconds)),
                ("sets", Value::Num(args.repeat as f64)),
                ("smoke", Value::Bool(args.smoke)),
                (
                    "free_disk_gib",
                    Value::Num(env.free_bytes.map_or(-1.0, |b| (b >> 30) as f64)),
                ),
            ]),
        ),
        (
            "workloads",
            Value::Obj(
                per_workload
                    .iter()
                    .map(|(w, e2e, layers, attempted, failed)| {
                        (
                            w.name().to_string(),
                            Value::obj([
                                ("attempted", Value::Num(*attempted as f64)),
                                ("failed", Value::Num(*failed as f64)),
                                ("end_to_end", e2e.to_json()),
                                ("per_layer", layers.to_json()),
                            ]),
                        )
                    })
                    .collect(),
            ),
        ),
        ("probes", probes.to_json()),
        (
            "problems",
            Value::Arr(problems.iter().map(Value::str).collect()),
        ),
    ]);
    print!("{}", doc.pretty());
    for p in &problems {
        eprintln!("PROBLEM: {p}");
    }
    Ok(!problems.is_empty() as i32)
}

/// The program. `alloc_probe` reads the process-wide allocation counters in
/// the trace binary; the measuring binary passes `None` and hands traced
/// runs to its sibling.
pub fn main(alloc_probe: Option<fn() -> (u64, u64)>) -> i32 {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&raw) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return 2;
        }
    };
    if args.print_manifest {
        print!("{}", metrics::manifest().pretty());
        return 0;
    }
    let env = match check_env() {
        Ok(env) => env,
        Err(e) => {
            eprintln!("refusing to run: {e}");
            return 2;
        }
    };
    let outcome = if args.workload.is_some() && args.trace && alloc_probe.is_none() {
        // Allocation counts need the counting allocator, which is compiled
        // only into the sibling binary.
        std::env::current_exe()
            .map_err(|e| format!("current exe: {e}"))
            .and_then(|exe| {
                Command::new(exe.with_file_name("tcbench-trace"))
                    .args(&raw)
                    .status()
                    .map_err(|e| format!("tcbench-trace: {e}"))
            })
            .map(|status| status.code().unwrap_or(1))
    } else {
        if let Some(probe) = alloc_probe {
            let _ = ALLOC_PROBE.set(probe);
        }
        if args.probe {
            probes_line(args.seed).map(|line| {
                print_table("probes", &line, &mut std::io::stdout());
                0
            })
        } else if args.workload.is_some() {
            run_one(&args, &env)
        } else {
            run_suite(&args, &env)
        }
    };
    match outcome {
        Ok(code) => code,
        Err(e) => {
            eprintln!("benchmark failed: {e}");
            1
        }
    }
}
