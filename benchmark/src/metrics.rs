//! The metric registry: every name the benchmark reports, with its unit,
//! direction and — for end-to-end metrics — the share by which it may get
//! worse before a change counts as a regression. `BENCHMARK.json` is
//! generated from this (`--print-manifest`) and a test keeps the committed
//! file equal to it.

use crate::json::Value;
use crate::workloads::{Workload, OP_KINDS};

pub struct Def {
    pub name: String,
    pub unit: &'static str,
    pub lower_is_better: bool,
    /// End-to-end only.
    pub bound: Option<f64>,
}

/// Seconds one run measures (`run_seconds`); the driver passes it back as
/// `--seconds`.
pub const RUN_SECONDS: u64 = 10;

fn def(
    name: impl Into<String>,
    unit: &'static str,
    lower_is_better: bool,
    bound: Option<f64>,
) -> Def {
    Def {
        name: name.into(),
        unit,
        lower_is_better,
        bound,
    }
}

/// What a user of the system sees, gated: every workload reports every one,
/// and each stays within its bound between two sets of runs of one commit on
/// the sandbox that defined the benchmark (README, "Steadiness").
pub fn end_to_end() -> Vec<Def> {
    vec![
        def("setup_s", "s", true, Some(0.25)),
        def("store_bytes_per_user_byte", "ratio", true, Some(0.05)),
        def("peak_rss_mb", "MiB", true, Some(0.10)),
    ]
}

/// What a user sees of each kind of operation, from the same two-thread
/// run. Too unsteady on the sandbox to gate, so reported with the layers.
pub const USER_VIEW: [(&str, &str, bool); 16] = [
    ("primary_ops_per_s", "ops/s", false),
    ("ingest_chunks_per_s", "chunks/s", false),
    ("ingest_p50_us", "us", true),
    ("ingest_p95_us", "us", true),
    ("read_ops_per_s", "ops/s", false),
    ("stat_p50_us", "us", true),
    ("stat_p95_us", "us", true),
    ("range_p50_us", "us", true),
    ("range_p95_us", "us", true),
    ("reopen_s", "s", true),
    ("tail.ingest_p99_us", "us", true),
    ("tail.stat_p99_us", "us", true),
    ("tail.range_p99_us", "us", true),
    ("tail.max_us", "us", true),
    ("gen.late_share", "share", true),
    ("gen.achieved_rate_share", "share", false),
];

/// The client's own row of the ledger is named after what the client does
/// in that kind of operation.
pub const CLIENT_ROWS: [&str; 3] = ["client.seal_us", "client.decrypt_us", "client.open_us"];
/// The other ledger rows, outermost layer first; reported per operation kind
/// as `<row>.<kind>`.
pub const LAYER_ROWS: [&str; 4] = [
    "wire.client_hop_us",
    "service.coord_self_us",
    "server.node_self_us",
    "store.busy_us",
];
/// Exact counts per operation, reported as `<count>.<kind>`.
pub const COUNT_ROWS: [(&str, &str); 9] = [
    ("store.puts_per_op", "count"),
    ("store.gets_per_op", "count"),
    ("store.put_bytes_per_op", "B"),
    ("store.get_bytes_per_op", "B"),
    ("service.node_calls_per_op", "count"),
    ("wire.request_bytes_per_op", "B"),
    ("wire.response_bytes_per_op", "B"),
    ("alloc.count_per_op", "count"),
    ("alloc.bytes_per_op", "B"),
];

/// Probe names with their units; `true` = lower is better.
pub const PROBES: [(&str, &str, bool); 24] = [
    ("crypto.gcm_seal_4k_ns", "ns", true),
    ("crypto.gcm_open_4k_ns", "ns", true),
    ("core.encrypt_digest_w19_ns", "ns", true),
    ("core.decrypt_range_w19_ns", "ns", true),
    ("chunk.seal_500pt_us", "us", true),
    ("chunk.seal_6pt_us", "us", true),
    ("chunk.open_500pt_us", "us", true),
    ("wire.encode_batch16_ns", "ns", true),
    ("wire.decode_batch16_ns", "ns", true),
    ("wire.loopback_ping_us", "us", true),
    ("index.append_us", "us", true),
    ("index.append_batch16_us_per_chunk", "us", true),
    ("index.query_warm_us", "us", true),
    ("index.query_cold_us", "us", true),
    ("index.query_cold_miss_share", "share", true),
    ("server.insert_run16_us_per_chunk", "us", true),
    ("server.stat_range_us", "us", true),
    ("service.local_submit_us_per_chunk", "us", true),
    ("service.local_stat8_us", "us", true),
    ("store.logkv_put_10k_buffered_us", "us", true),
    ("store.logkv_put_10k_flush_us", "us", true),
    ("store.logkv_put_10k_fsync_us", "us", true),
    ("store.logkv_get_10k_us", "us", true),
    ("store.logkv_replay_mb_per_s", "MB/s", false),
];

/// The unit of `name` if it is a probe.
pub fn probe_unit(name: &str) -> Option<&'static str> {
    PROBES.iter().find(|p| p.0 == name).map(|p| p.1)
}

/// Single layers; reported by the traced run, never gated.
pub fn per_layer() -> Vec<Def> {
    let mut defs = Vec::new();
    for kind in OP_KINDS {
        let k = kind.name();
        defs.push(def(format!("op.mean_us.{k}"), "us", true, None));
        defs.push(def(CLIENT_ROWS[kind as usize], "us", true, None));
        for row in LAYER_ROWS {
            defs.push(def(format!("{row}.{k}"), "us", true, None));
        }
        for (row, unit) in COUNT_ROWS {
            defs.push(def(format!("{row}.{k}"), unit, true, None));
        }
    }
    for (name, unit, lower) in USER_VIEW {
        defs.push(def(name, unit, lower, None));
    }
    defs.push(def("trace.overhead_share", "share", true, None));
    for (name, unit, lower) in PROBES {
        defs.push(def(name, unit, lower, None));
    }
    defs
}

fn better(d: &Def) -> Value {
    Value::str(if d.lower_is_better { "lower" } else { "higher" })
}

/// The contents of `BENCHMARK.json`.
pub fn manifest() -> Value {
    Value::obj([
        (
            "command",
            Value::Arr(vec![Value::str("bash"), Value::str("benchmark/run.sh")]),
        ),
        ("paths", Value::Arr(vec![Value::str("benchmark")])),
        ("run_seconds", Value::Num(RUN_SECONDS as f64)),
        (
            "workloads",
            Value::Arr(
                Workload::ALL
                    .iter()
                    .map(|w| {
                        Value::obj([("name", Value::str(w.name())), ("why", Value::str(w.why()))])
                    })
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Value::Arr(
                end_to_end()
                    .iter()
                    .map(|d| {
                        Value::obj([
                            ("name", Value::str(&d.name)),
                            ("unit", Value::str(d.unit)),
                            ("better", better(d)),
                            (
                                "bound",
                                Value::Num(d.bound.expect("end-to-end metrics are bounded")),
                            ),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "per_layer",
            Value::Arr(
                per_layer()
                    .iter()
                    .map(|d| {
                        Value::obj([
                            ("name", Value::str(&d.name)),
                            ("unit", Value::str(d.unit)),
                            ("better", better(d)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn name_ok(name: &str) -> bool {
        name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    #[test]
    fn manifest_is_within_the_contract_limits() {
        let (e2e, layers) = (end_to_end(), per_layer());
        assert!((1..=16).contains(&e2e.len()) && (1..=128).contains(&layers.len()));
        assert!(e2e
            .iter()
            .any(|d| d.name == "setup_s" && d.unit == "s" && d.lower_is_better));
        let mut names: Vec<&str> = e2e.iter().chain(&layers).map(|d| d.name.as_str()).collect();
        names.extend(Workload::ALL.iter().map(|w| w.name()));
        assert!(names.iter().all(|n| name_ok(n)), "{names:?}");
        let unique: std::collections::BTreeSet<&str> = names.iter().copied().collect();
        assert_eq!(unique.len(), names.len(), "a name is used twice");
        for d in e2e.iter().chain(&layers) {
            assert!(
                d.unit.len() <= 16
                    && d.unit
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
            );
            assert!(d.bound.is_none_or(|b| b > 0.0 && b <= 0.25));
        }
        assert!(Workload::ALL
            .iter()
            .all(|w| w.why().len() <= 200 && !w.why().contains('\n')));
        assert!(manifest().pretty().len() <= 64 * 1024);
    }

    #[test]
    fn committed_manifest_is_the_generated_one() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let committed = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert_eq!(
            committed,
            manifest().pretty(),
            "regenerate with `run.sh --print-manifest > BENCHMARK.json`"
        );
    }
}
