//! One run of one workload: the measured run (`--trace 0`, end-to-end
//! metrics) and the traced run (`--trace 1`, per-layer metrics).

use crate::metrics::{CLIENT_ROWS, COUNT_ROWS, LAYER_ROWS};
use crate::spans::{self, OpLedger};
use crate::workloads::{
    KindSamples, OpKind, Plan, ReopenResult, Rig, StageResult, Workload, OP_KINDS, THREADS,
};
use std::time::Instant;

/// Set-ups per measured run; `setup_s` is their median.
const SETUPS: usize = 3;
/// A smoke run is this share of a measured one (operations and loaded data).
pub const SMOKE_SCALE: f64 = 1.0 / 50.0;

/// `(name, value)` pairs in reporting order.
pub type Values = Vec<(String, f64)>;

pub struct RunResult {
    pub attempted: u64,
    pub failed: u64,
    pub values: Values,
}

#[derive(Clone, Copy)]
pub struct RunSpec {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub smoke: bool,
}

impl RunSpec {
    fn plan(&self, threads: usize, share: f64) -> Plan {
        let scale = if self.smoke { SMOKE_SCALE } else { 1.0 };
        Plan::new(
            self.workload,
            self.seed,
            self.seconds * scale * share,
            threads,
            scale,
        )
    }
}

/// The `q`-quantile (nearest rank) of `sorted`, in µs.
fn quantile_us(sorted: &[u64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((sorted.len() as f64 * q).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1] as f64 / 1000.0
}

fn median(values: &mut [f64]) -> f64 {
    values.sort_by(f64::total_cmp);
    let n = values.len();
    if n % 2 == 1 {
        values[n / 2]
    } else {
        (values[n / 2 - 1] + values[n / 2]) / 2.0
    }
}

fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Everything the stages and the reopen check of one set-up rig measured.
struct Measured {
    workload: Workload,
    stages: Vec<StageResult>,
    reopen: ReopenResult,
    store_bytes_per_user_byte: f64,
    peak_rss_mb: f64,
}

fn drive(rig: &mut Rig) -> Result<Measured, String> {
    let stages = (0..rig.stages())
        .map(|i| rig.run_stage(i))
        .collect::<Result<Vec<_>, _>>()?;
    let store_bytes_per_user_byte = rig.store_bytes_per_user_byte();
    // Before reopening: how much of the dropped store's memory the allocator
    // hands to the reopened one differs from process to process.
    let peak_rss_mb = peak_rss_mb();
    let reopen = rig.reopen()?;
    Ok(Measured {
        workload: rig.plan().workload,
        stages,
        reopen,
        store_bytes_per_user_byte,
        peak_rss_mb,
    })
}

/// Slices a stage is cut into; a metric is the median over them, so a
/// burst of outside noise shorter than a tenth of the stage moves nothing.
const SLICES: usize = 10;

/// Median over the stage's [`SLICES`] of the `q`-quantile, in µs, of the
/// slice's `kind` samples (each thread's samples cut in run order, slice `i`
/// of every thread pooled).
fn sliced_quantile_us(stage: &StageResult, kind: OpKind, q: f64) -> f64 {
    let mut per_slice: Vec<f64> = (0..SLICES)
        .filter_map(|i| {
            let mut pool: Vec<u64> = stage
                .threads
                .iter()
                .flat_map(|t| {
                    let v = &t[kind as usize].latencies_ns;
                    v[i * v.len() / SLICES..(i + 1) * v.len() / SLICES]
                        .iter()
                        .copied()
                })
                .collect();
            pool.sort_unstable();
            (!pool.is_empty()).then(|| quantile_us(&pool, q))
        })
        .collect();
    if per_slice.is_empty() {
        return 0.0;
    }
    median(&mut per_slice)
}

/// Median over the stage's [`SLICES`] of the rate, per second, at which the
/// threads together completed operations of `kinds`.
fn sliced_rate(stage: &StageResult, kinds: &[OpKind]) -> f64 {
    let ends: Vec<Vec<u64>> = stage
        .threads
        .iter()
        .map(|t| {
            let mut ends: Vec<u64> = kinds
                .iter()
                .flat_map(|&k| t[k as usize].ends_ns.iter().copied())
                .collect();
            ends.sort_unstable();
            ends
        })
        .collect();
    let mut per_slice: Vec<f64> = (0..SLICES)
        .map(|i| {
            ends.iter()
                .map(|e| {
                    let (from, to) = (i * e.len() / SLICES, (i + 1) * e.len() / SLICES);
                    if to == from {
                        return 0.0;
                    }
                    let began = if from == 0 { 0 } else { e[from - 1] };
                    (to - from) as f64 / ((e[to - 1] - began).max(1) as f64 / 1e9)
                })
                .sum()
        })
        .collect();
    median(&mut per_slice)
}

impl Measured {
    /// The stage that ran operations of `kind` (one stage only, by
    /// construction of the plans).
    fn stage_of(&self, kind: OpKind) -> &StageResult {
        self.stages
            .iter()
            .find(|s| {
                s.threads
                    .iter()
                    .any(|t| !t[kind as usize].latencies_ns.is_empty())
            })
            .unwrap_or(&self.stages[0])
    }

    /// Every sample of `kind`, sorted.
    fn samples(&self, kind: OpKind) -> Vec<u64> {
        let mut all = self.stage_of(kind).pooled(kind).latencies_ns;
        all.sort_unstable();
        all
    }

    fn counts(&self) -> (u64, u64) {
        let kinds = self.stages.iter().flat_map(|s| s.threads.iter().flatten());
        let (attempted, failed) = kinds.fold((0, 0), |(a, f), k: &KindSamples| {
            (a + k.latencies_ns.len() as u64, f + k.failed)
        });
        (attempted + self.reopen.checks, failed + self.reopen.failed)
    }

    /// The end-to-end metrics but `setup_s`, in manifest order.
    fn end_to_end(&self) -> Values {
        vec![
            (
                "store_bytes_per_user_byte".into(),
                self.store_bytes_per_user_byte,
            ),
            ("peak_rss_mb".into(), self.peak_rss_mb),
        ]
    }

    /// What a user sees of each kind of operation in the two-thread run.
    /// Reported, not gated: on this sandbox two sets of runs of one commit
    /// disagree on them by more than a tenth (README, "Steadiness").
    fn user_view(&self) -> Values {
        let ingest = self.stage_of(OpKind::Ingest);
        let ingest_ops: usize = ingest.threads.iter().map(|t| t[0].latencies_ns.len()).sum();
        let chunks_per_op = ingest.chunks_acked as f64 / ingest_ops.max(1) as f64;
        let quantile = |kind, q| sliced_quantile_us(self.stage_of(kind), kind, q);
        let (ingest_all, stat_all, range_all) = (
            self.samples(OpKind::Ingest),
            self.samples(OpKind::Stat),
            self.samples(OpKind::Range),
        );
        let max_ns = [&ingest_all, &stat_all, &range_all]
            .iter()
            .filter_map(|s| s.last().copied())
            .max();
        let (rounds, late, offered, took) = self.stages.iter().filter(|s| s.rounds > 0).fold(
            (0u64, 0u64, 0.0, 0.0),
            |(r, l, o, t), s| {
                (
                    r + s.rounds,
                    l + s.late_rounds,
                    o + s.offered.as_secs_f64(),
                    t + s.window.as_secs_f64(),
                )
            },
        );
        let primary = self.workload.primary();
        vec![
            (
                "primary_ops_per_s".into(),
                sliced_rate(self.stage_of(primary[0]), primary),
            ),
            (
                "ingest_chunks_per_s".into(),
                sliced_rate(ingest, &[OpKind::Ingest]) * chunks_per_op,
            ),
            ("ingest_p50_us".into(), quantile(OpKind::Ingest, 0.50)),
            ("ingest_p95_us".into(), quantile(OpKind::Ingest, 0.95)),
            // Reads per second in the closed-loop stage that holds the range
            // reads (with whatever statistical queries share it).
            (
                "read_ops_per_s".into(),
                sliced_rate(self.stage_of(OpKind::Range), &[OpKind::Stat, OpKind::Range]),
            ),
            ("stat_p50_us".into(), quantile(OpKind::Stat, 0.50)),
            ("stat_p95_us".into(), quantile(OpKind::Stat, 0.95)),
            ("range_p50_us".into(), quantile(OpKind::Range, 0.50)),
            ("range_p95_us".into(), quantile(OpKind::Range, 0.95)),
            ("reopen_s".into(), self.reopen.reopen.as_secs_f64()),
            ("tail.ingest_p99_us".into(), quantile_us(&ingest_all, 0.99)),
            ("tail.stat_p99_us".into(), quantile_us(&stat_all, 0.99)),
            ("tail.range_p99_us".into(), quantile_us(&range_all, 0.99)),
            ("tail.max_us".into(), max_ns.unwrap_or(0) as f64 / 1000.0),
            // Closed-loop workloads have no schedule to be late for.
            (
                "gen.late_share".into(),
                if rounds > 0 {
                    late as f64 / rounds as f64
                } else {
                    0.0
                },
            ),
            (
                "gen.achieved_rate_share".into(),
                if rounds > 0 {
                    (offered / took).min(1.0)
                } else {
                    1.0
                },
            ),
        ]
    }
}

/// The measured run: generator threads on the bare product, end-to-end
/// metrics out. The deployment is set up [`SETUPS`] times; the first is the
/// one driven, so `peak_rss_mb` is one deployment's and not the allocator's
/// memory of earlier ones.
pub fn measured(spec: RunSpec) -> Result<RunResult, String> {
    let mut setup_s = Vec::new();
    let mut timed_set_up = || -> Result<Rig, String> {
        let started = Instant::now();
        let rig = Rig::set_up(spec.plan(THREADS, 1.0), false)?;
        setup_s.push(started.elapsed().as_secs_f64());
        Ok(rig)
    };
    let mut rig = timed_set_up()?;
    let m = drive(&mut rig)?;
    drop(rig);
    for _ in 1..if spec.smoke { 1 } else { SETUPS } {
        drop(timed_set_up()?);
    }

    let (attempted, failed) = m.counts();
    let mut values = vec![("setup_s".to_string(), median(&mut setup_s))];
    values.extend(m.end_to_end());
    eprintln!(
        "{}: stage windows {:?} s; set-ups {:?} s",
        spec.workload.name(),
        m.stages
            .iter()
            .map(|s| s.window.as_secs_f64())
            .collect::<Vec<_>>(),
        setup_s
    );
    Ok(RunResult {
        attempted,
        failed,
        values,
    })
}

/// Per-kind totals of one single-thread pass.
struct Pass {
    stages: Vec<StageResult>,
    ledgers: Vec<(u8, OpLedger)>,
}

fn pass(spec: RunSpec, traced: bool, dump_to: Option<&std::path::Path>) -> Result<Pass, String> {
    // A quarter of the operations on one generator thread: one operation in
    // flight, so the counts repeat exactly and every span has one cause.
    let mut rig = Rig::set_up(spec.plan(1, 0.25), traced)?;
    spans::set_enabled(traced);
    let stages = (0..rig.stages())
        .map(|i| rig.run_stage(i))
        .collect::<Result<Vec<_>, _>>();
    spans::set_enabled(false);
    drop(rig);
    let all = spans::drain();
    if let Some(path) = dump_to {
        let mut out = std::io::BufWriter::new(
            std::fs::File::create(path).map_err(|e| format!("{}: {e}", path.display()))?,
        );
        spans::dump(&all, &mut out)
            .and_then(|()| std::io::Write::flush(&mut out))
            .map_err(|e| format!("{}: {e}", path.display()))?;
    }
    Ok(Pass {
        stages: stages?,
        ledgers: spans::ledgers(&all),
    })
}

/// The traced run: a two-thread run on the bare product for what a user
/// sees of each kind of operation, then the same operations at a quarter of the count on one
/// thread, once bare and once with every seam wrapped.
pub fn traced(
    spec: RunSpec,
    probes: bool,
    dump_to: Option<&std::path::Path>,
) -> Result<RunResult, String> {
    let mut rig = Rig::set_up(spec.plan(THREADS, 1.0), false)?;
    let m = drive(&mut rig)?;
    drop(rig);
    let (mut attempted, mut failed) = m.counts();

    let bare = pass(spec, false, None)?;
    let wrapped = pass(spec, true, dump_to)?;
    let mut values: Values = Vec::new();
    let mut time_bare = 0.0;
    let mut time_wrapped = 0.0;
    for kind in OP_KINDS {
        let k = kind.name();
        let of_kind = |p: &Pass| -> KindSamples {
            let mut all = KindSamples::default();
            for s in &p.stages {
                all.absorb(&s.pooled(kind));
            }
            all
        };
        let (b, w) = (of_kind(&bare), of_kind(&wrapped));
        attempted += (b.latencies_ns.len() + w.latencies_ns.len()) as u64;
        failed += b.failed + w.failed;
        time_bare += b.busy_ns as f64;
        time_wrapped += w.busy_ns as f64;

        let ledgers: Vec<&OpLedger> = wrapped
            .ledgers
            .iter()
            .filter(|(lk, _)| *lk == kind as u8)
            .map(|(_, l)| l)
            .collect();
        let ops = ledgers.len().max(1) as f64;
        let mean =
            |f: &dyn Fn(&OpLedger) -> u64| ledgers.iter().map(|l| f(l)).sum::<u64>() as f64 / ops;
        values.push((format!("op.mean_us.{k}"), mean(&|l| l.total_ns) / 1000.0));
        values.push((
            CLIENT_ROWS[kind as usize].into(),
            mean(&|l| l.self_ns[0]) / 1000.0,
        ));
        for (layer, row) in LAYER_ROWS.iter().enumerate() {
            values.push((
                format!("{row}.{k}"),
                mean(&|l| l.self_ns[layer + 1]) / 1000.0,
            ));
        }
        let bare_ops = b.latencies_ns.len().max(1) as f64;
        let counts: [f64; 9] = [
            mean(&|l| l.puts),
            mean(&|l| l.gets),
            mean(&|l| l.put_bytes),
            mean(&|l| l.get_bytes),
            mean(&|l| l.node_calls),
            mean(&|l| l.request_bytes),
            mean(&|l| l.response_bytes),
            // Allocations are counted in the bare pass: the span buffers of
            // the wrapped one are the benchmark's.
            b.allocs as f64 / bare_ops,
            b.alloc_bytes as f64 / bare_ops,
        ];
        for ((row, _), value) in COUNT_ROWS.iter().zip(counts) {
            values.push((format!("{row}.{k}"), value));
        }
    }
    values.extend(m.user_view());
    values.push((
        "trace.overhead_share".into(),
        (time_wrapped - time_bare) / time_bare.max(1.0),
    ));
    if probes {
        for (name, value) in crate::probes::run_all(spec.seed)? {
            values.push((name.into(), value));
        }
    }
    Ok(RunResult {
        attempted,
        failed,
        values,
    })
}
