//! Diffs two `throughput` bench JSON files with a tolerance — the perf
//! regression gate.
//!
//! ```sh
//! cargo run --release -p timecrypt-bench --bin compare -- \
//!     BENCH_seed.json bench_current.json --tolerance 0.2
//! ```
//!
//! Rows are matched by their configuration fields (`bench` phase plus
//! every integer knob such as `shards`, `query_threads`, `chunks`);
//! throughput metrics (`*_ops_s`) are higher-better and fail
//! the run when the current value drops more than `tolerance` below the
//! baseline. Latency fields are reported but not gated (they are the
//! reciprocal story of the ops/s fields and noisier). Rows present only
//! in the current file (new phases) pass with a note; rows present only
//! in the baseline fail — a silently dropped phase must not pass the
//! gate.
//!
//! The parser handles exactly the flat one-object-per-line JSON the bench
//! bins emit (string/number/bool values, no nesting) — by design, so the
//! gate needs no JSON dependency.

use std::collections::BTreeMap;
use std::process::ExitCode;

/// A flat JSON value.
#[derive(Debug, Clone, PartialEq)]
enum Value {
    Num(f64),
    Str(String),
    Bool(bool),
}

impl Value {
    fn as_num(&self) -> Option<f64> {
        match self {
            Value::Num(n) => Some(*n),
            _ => None,
        }
    }

    fn render(&self) -> String {
        match self {
            Value::Num(n) => format!("{n}"),
            Value::Str(s) => s.clone(),
            Value::Bool(b) => format!("{b}"),
        }
    }
}

/// Parses one flat JSON object line. Returns `None` for lines that are not
/// objects (stderr noise that leaked into a capture, blank lines).
fn parse_line(line: &str) -> Option<BTreeMap<String, Value>> {
    let line = line.trim();
    let body = line.strip_prefix('{')?.strip_suffix('}')?;
    let mut out = BTreeMap::new();
    let mut rest = body.trim();
    while !rest.is_empty() {
        // Key: a quoted string.
        rest = rest.strip_prefix('"')?;
        let key_end = rest.find('"')?;
        let key = rest[..key_end].to_string();
        rest = rest[key_end + 1..]
            .trim_start()
            .strip_prefix(':')?
            .trim_start();
        // Value: quoted string, bool, or number (no nesting in our schema).
        let value;
        if let Some(s) = rest.strip_prefix('"') {
            let end = s.find('"')?;
            value = Value::Str(s[..end].to_string());
            rest = &s[end + 1..];
        } else {
            let end = rest.find(',').unwrap_or(rest.len());
            let token = rest[..end].trim();
            value = match token {
                "true" => Value::Bool(true),
                "false" => Value::Bool(false),
                _ => Value::Num(token.parse().ok()?),
            };
            rest = &rest[end..];
        }
        out.insert(key, value);
        rest = rest.trim_start();
        rest = rest.strip_prefix(',').unwrap_or(rest).trim_start();
    }
    Some(out)
}

/// The identity of a row: its phase plus every non-metric field. Metrics
/// are the measured outputs; everything else is configuration.
fn row_key(row: &BTreeMap<String, Value>) -> String {
    row.iter()
        .filter(|(k, _)| !is_metric(k))
        .map(|(k, v)| format!("{k}={}", v.render()))
        .collect::<Vec<_>>()
        .join(",")
}

/// Measured outputs. `higher_better` ones are gated; the rest reported.
fn is_metric(key: &str) -> bool {
    key.contains("_ops_s")
        || key.contains("_ms")
        || key == "rebuild_chunks_copied"
        || key == "ingest_exhausted"
        || key == "injected_faults"
        || key == "retries"
}

fn is_gated(key: &str) -> bool {
    // `concurrent_ingest_ops_s` is how much ingest *happened to complete*
    // during the mixed phase's query window — when queries get faster the
    // window shrinks and the value legitimately collapses, so gating it
    // would punish query-side wins. Reported, not gated.
    //
    // `faulty_*` (the fault-injection phase) runs under a seeded
    // probabilistic store-fault plan: throughput there measures the *cost
    // of the faults* (retries, injected delays), not a code path whose
    // regression should block a merge. Reported, not gated.
    key.contains("_ops_s") && key != "concurrent_ingest_ops_s" && !key.starts_with("faulty_")
}

fn load(path: &str) -> Vec<BTreeMap<String, Value>> {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
        eprintln!("compare: cannot read {path}: {e}");
        std::process::exit(2);
    });
    text.lines().filter_map(parse_line).collect()
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut files = Vec::new();
    let mut tolerance = 0.20f64;
    let mut i = 0;
    while i < args.len() {
        if args[i] == "--tolerance" {
            tolerance = args
                .get(i + 1)
                .and_then(|v| v.parse().ok())
                .unwrap_or_else(|| {
                    eprintln!("compare: --tolerance needs a fraction, e.g. 0.2");
                    std::process::exit(2);
                });
            i += 2;
        } else {
            files.push(args[i].clone());
            i += 1;
        }
    }
    if files.len() != 2 {
        eprintln!("usage: compare <baseline.json> <current.json> [--tolerance 0.2]");
        return ExitCode::from(2);
    }
    let baseline = load(&files[0]);
    let current = load(&files[1]);
    let base_by_key: BTreeMap<String, &BTreeMap<String, Value>> =
        baseline.iter().map(|r| (row_key(r), r)).collect();
    let cur_keys: Vec<String> = current.iter().map(row_key).collect();

    let mut regressions = 0usize;
    for (row, key) in current.iter().zip(&cur_keys) {
        let Some(base) = base_by_key.get(key) else {
            println!("NEW     {key} (no baseline row; not gated)");
            continue;
        };
        for (metric, value) in row.iter().filter(|(k, _)| is_metric(k)) {
            let (Some(cur), Some(prev)) =
                (value.as_num(), base.get(metric).and_then(Value::as_num))
            else {
                continue;
            };
            let ratio = if prev > 0.0 { cur / prev } else { f64::NAN };
            let gated = is_gated(metric);
            let regressed = gated && prev > 0.0 && cur < prev * (1.0 - tolerance);
            if regressed {
                regressions += 1;
            }
            println!(
                "{} {key} :: {metric}: {prev:.1} -> {cur:.1} ({:+.1}%){}",
                if regressed { "REGRESS" } else { "ok     " },
                (ratio - 1.0) * 100.0,
                if gated { "" } else { " [not gated]" },
            );
        }
    }
    for key in base_by_key.keys() {
        if !cur_keys.iter().any(|k| k == key) {
            println!("MISSING {key} (baseline row absent from current run)");
            regressions += 1;
        }
    }
    if regressions > 0 {
        eprintln!(
            "compare: {regressions} regression(s) beyond {:.0}% tolerance",
            tolerance * 100.0
        );
        return ExitCode::FAILURE;
    }
    println!(
        "compare: no regressions beyond {:.0}% tolerance",
        tolerance * 100.0
    );
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_bench_lines() {
        let row = parse_line(
            r#"{"bench":"service_throughput","shards":2,"ingest_ops_s":3892,"ok":true}"#,
        )
        .unwrap();
        assert_eq!(row["bench"], Value::Str("service_throughput".into()));
        assert_eq!(row["shards"], Value::Num(2.0));
        assert_eq!(row["ingest_ops_s"], Value::Num(3892.0));
        assert_eq!(row["ok"], Value::Bool(true));
        assert!(parse_line("sealing workload ...").is_none());
        assert!(parse_line("").is_none());
    }

    #[test]
    fn key_uses_config_not_metrics() {
        let a =
            parse_line(r#"{"bench":"x","shards":2,"ingest_ops_s":100,"query_ops_s":5}"#).unwrap();
        let b =
            parse_line(r#"{"bench":"x","shards":2,"ingest_ops_s":900,"query_ops_s":1}"#).unwrap();
        assert_eq!(row_key(&a), row_key(&b));
        let c = parse_line(r#"{"bench":"x","shards":4,"ingest_ops_s":100}"#).unwrap();
        assert_ne!(row_key(&a), row_key(&c));
    }

    #[test]
    fn gating_covers_throughput_not_latency() {
        assert!(is_gated("ingest_ops_s"));
        assert!(is_gated("query_ops_s_par"));
        assert!(!is_gated("query_wall_ms"));
        assert!(!is_gated("promotion_ms"));
        assert!(!is_gated("concurrent_ingest_ops_s"));
        assert!(!is_gated("faulty_ingest_ops_s"));
        assert!(!is_gated("faulty_query_ops_s"));
        assert!(is_metric("faulty_ingest_ops_s"));
        assert!(is_metric("concurrent_ingest_ops_s"));
        assert!(is_metric("query_ms_par"));
    }
}
