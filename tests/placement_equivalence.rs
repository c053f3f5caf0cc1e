//! Placement equivalence by generation: a deployment answers byte for byte
//! as one engine does, however its streams are placed, cached, evicted,
//! replicated or restarted.
//!
//! A seeded generator draws *histories*, sequences of wire requests, and
//! runs each through seven deployments ([`tiers`]): an engine; one that
//! keeps a stream resident under a 4 KiB boundary cache; and, under those
//! caps, a two-shard node, in-process coordinators of 1 and 4 shards, a
//! remote coordinator of two shards on one node and an R=2 one on two.
//! Request `j` enters tier `k` through `Handler::handle` when `j + k` is
//! even and through `handle_frame` when it is odd, so each request takes
//! both entry points and each tier answers through both (the 4-shard and
//! R=2 coordinators take a well-formed `InsertBatch` through
//! `submit_batch` in place of `handle`). Every reply must
//! be the first engine's, byte for byte, and that engine's the [`Model`]'s
//! where the model predicts one. At a history's end each deployment's
//! stores, merged, hold the first engine's records, and the capped engine
//! holds at most one stream resident. A failing history is shrunk, one
//! step dropped at a time while it still fails, and printed with its seed.
//!
//! What a history draws, and what it leaves out, is `common::history`'s
//! doc; the model is `common::model`.
//!
//! The tier-1 run's tallies are `placement_equivalence.*` rows of the root
//! `BENCH_ledger.json`, so a change that shrinks what the generator covers
//! fails with a one-row diff. CI sweeps 10⁴ more histories in release.

use common::history::{checked, kind, Step, EXCLUDED};
use common::model::{batch, Model};
use common::{Deployment, Spec};
use std::collections::{BTreeMap, BTreeSet};
use std::ops::Range;
use timecrypt::chunk::serialize::EncryptedChunk;
use timecrypt::server::ServerConfig;
use timecrypt::wire::messages::{Request, Response};

mod common;

/// Histories the tier-1 run draws.
const HISTORIES: u64 = 1_000;

/// The seven deployments; the first answers for the rest.
fn tiers() -> Vec<(&'static str, Deployment)> {
    let capped = ServerConfig {
        cache_bytes: 4096,
        max_resident_streams: Some(1),
    };
    let specs = [
        ("capped engine", Spec::engine()),
        ("2-shard node", Spec::node(2)),
        ("1-shard coordinator", Spec::coordinator(1)),
        ("4-shard coordinator", Spec::coordinator(4)),
        ("remote coordinator", Spec::remote(2, 1, 1)),
        ("R=2 coordinator", Spec::remote(2, 2, 2)),
    ];
    let capped = specs.map(|(tier, spec)| (tier, spec.engine_cfg(capped.clone())));
    let all = [("engine", Spec::engine())].into_iter().chain(capped);
    all.map(|(tier, spec)| (tier, Deployment::build(&spec)))
        .collect()
}

/// The records of every store of `d`, merged; a key two stores hold with
/// different values is an error.
fn records(d: &Deployment) -> Result<BTreeMap<Vec<u8>, Vec<u8>>, String> {
    let mut merged = BTreeMap::new();
    for (key, value) in (0..d.stores()).flat_map(|i| d.log(i).scan_prefix(b"").unwrap()) {
        if let Some(other) = merged.insert(key.clone(), value.clone()) {
            if other != value {
                return Err(format!(
                    "two stores differ at {key:?}: {other:?}, {value:?}"
                ));
            }
        }
    }
    Ok(merged)
}

/// Runs `steps` through every tier; returns the replies compared, or what
/// differed first.
fn run(steps: &[Step]) -> Result<u64, String> {
    let tiers = tiers();
    let (mut model, mut compared) = (Model::default(), 0);
    for (j, step) in steps.iter().enumerate() {
        let replies: Vec<Response> = match step {
            Step::Restart => {
                for (_, d) in &tiers {
                    (0..d.stores()).for_each(|i| d.restart(i));
                }
                model.apply(step);
                continue;
            }
            Step::Frame(body) => tiers.iter().map(|(_, d)| d.call_frame(body)).collect(),
            Step::Call(req) => {
                let tiers = tiers.iter().enumerate();
                // The 4-shard and R=2 coordinators take a batch whose chunks
                // all parse through `submit_batch` in place of `handle`.
                let reply = |(k, (tier, d)): (usize, &(&str, Deployment))| match (j + k) % 2 {
                    0 => match (req, tier.ends_with("coordinator") && k % 2 == 0) {
                        (Request::InsertBatch { chunks }, true) => {
                            let parsed = chunks.iter().map(|c| EncryptedChunk::from_bytes(c));
                            match parsed.collect::<Result<Vec<_>, _>>() {
                                Ok(parsed) => batch(d.service().submit_batch(parsed).into_iter()),
                                Err(_) => d.call(req.clone()),
                            }
                        }
                        _ => d.call(req.clone()),
                    },
                    _ => d.call_frame(&req.encode()),
                };
                tiers.map(reply).collect()
            }
        };
        let engine = &replies[0];
        for ((tier, _), reply) in tiers.iter().zip(&replies).skip(1) {
            if reply.encode() != engine.encode() {
                return Err(format!(
                    "step {j}: {tier} answered {reply:?}, the engine {engine:?}"
                ));
            }
            compared += 1;
        }
        if let Some(want) = model.apply(step).filter(|want| want != engine) {
            return Err(format!(
                "step {j}: the engine answered {engine:?}, the model {want:?}"
            ));
        }
    }
    let engine = records(&tiers[0].1)?;
    for (tier, d) in &tiers[1..] {
        if records(d)? != engine {
            return Err(format!(
                "{tier}'s stores, merged, are not the engine's store"
            ));
        }
    }
    match tiers[1].1.engine().residency().resident {
        0 | 1 => Ok(compared),
        n => Err(format!("the capped engine holds {n} streams resident")),
    }
}

/// What a run of histories covered: histories, replies compared, request
/// kinds drawn, restarts.
type Tally = (u64, u64, BTreeSet<&'static str>, u64);

/// Runs the histories of `seeds` on two threads; panics with the first
/// failing seed's history, shrunk.
fn histories(seeds: Range<u64>) -> Tally {
    let worker = |first: usize| {
        let mut tally = Tally::default();
        for seed in seeds.clone().skip(first).step_by(2) {
            let (steps, replies) = checked(seed, run);
            tally.0 += 1;
            tally.1 += replies;
            for step in &steps {
                match step {
                    Step::Call(req) => _ = tally.2.insert(kind(req)),
                    Step::Restart => tally.3 += 1,
                    Step::Frame(_) => {}
                }
            }
        }
        tally
    };
    std::thread::scope(|scope| {
        let workers = [0, 1].map(|first| scope.spawn(move || worker(first)));
        let [mut all, other] = workers.map(|w| w.join().unwrap());
        (all.0, all.1, all.3) = (all.0 + other.0, all.1 + other.1, all.3 + other.3);
        all.2.extend(other.2);
        all
    })
}

/// A tally's `placement_equivalence.*` ledger rows.
fn rows((histories, replies, kinds, restarts): &Tally) -> Vec<(String, String)> {
    let kinds = kinds.len() as u64;
    let counts = [("histories", histories), ("replies_compared", replies)];
    let counts = counts
        .into_iter()
        .chain([("request_kinds", &kinds), ("restarts", restarts)]);
    let row = |(what, n): (&str, &u64)| (format!("placement_equivalence.{what}"), n.to_string());
    counts.map(row).collect()
}

#[test]
fn a_thousand_histories_answer_alike_on_every_tier() {
    let tally = histories(0..HISTORIES);
    let kinds = Request::TAGS.iter().map(|(_, kind)| *kind);
    let drawn: BTreeSet<_> = kinds.filter(|kind| !EXCLUDED.contains(kind)).collect();
    assert_eq!(tally.2, drawn, "every request kind but the excluded");
    common::ledger(&rows(&tally));
}

#[test]
#[ignore = "10⁴ histories: run it in release (CI does)"]
fn ten_thousand_more_histories_answer_alike_on_every_tier() {
    let tally = histories(HISTORIES..HISTORIES + 10_000);
    rows(&tally)
        .iter()
        .for_each(|(name, value)| println!("sweep row {name}: {value}"));
}
