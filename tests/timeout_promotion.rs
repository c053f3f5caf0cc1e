//! Timeout-driven failover: a primary that *accepts connections but
//! never replies* is indistinguishable from a dead one to callers — the
//! per-operation socket deadline must convert the hang into strikes, and
//! the strike machinery must promote the in-sync backup within the
//! `promote_after × io_timeout` budget. Mutations whose exchange timed
//! out are ambiguous (the hung node may have applied them) and must be
//! reported as such, never silently duplicated. A scatter-gather query
//! has its own, shorter end-to-end budget on top of the socket deadline,
//! and waits for its slow legs together and on its own thread — never in
//! turn, and never behind another caller's.

use common::{sealed, Deployment, Fault, Spec};
use std::sync::Arc;
use std::time::{Duration, Instant};
use timecrypt::faults::FaultPlan;
use timecrypt::service::{ServiceConfig, ShardSpec, ShardedService};
use timecrypt::store::MemKv;
use timecrypt::wire::messages::{Request, Response};
use timecrypt::wire::pool::PoolConfig;
use timecrypt::wire::transport::Handler;

mod common;

/// A coordinator config with the socket deadline `io_timeout`, dialing
/// `connect_attempts` times 1 ms apart, promoting after `promote_after`
/// strikes.
fn cfg(io_timeout: Duration, connect_attempts: u32, promote_after: u32) -> ServiceConfig {
    ServiceConfig {
        pool: PoolConfig {
            connect_attempts,
            backoff: Duration::from_millis(1),
            io_timeout,
        },
        promote_after,
        ..ServiceConfig::default()
    }
}

/// One shard on node 0, behind a quiet proxy, and its backup on node 1.
fn hung_primary(service: ServiceConfig) -> Deployment {
    let proxy = Fault::Proxy(0, FaultPlan::quiet());
    Deployment::build(&Spec::remote(1, 2, 2).fault(proxy).service(service))
}

/// A coordinator of two shards, built by hand since no `Spec` replicates
/// one shard and not the other: shard 0 unreplicated at `shard_0`, or on
/// node 0 behind a quiet proxy; shard 1 on node 1, its backup on a spare.
fn shard_1_replicated(
    shard_0: Option<String>,
    service: ServiceConfig,
) -> (Deployment, ShardedService) {
    let proxy = Fault::Proxy(0, FaultPlan::quiet());
    let d = Deployment::build(&Spec::remote(2, 2, 1).fault(proxy));
    let backup = d.add_node(1);
    let topology = vec![
        ShardSpec::remote(shard_0.unwrap_or_else(|| d.proxy(0).addr().to_string())),
        ShardSpec::remote(d.addr(1)).with_backup(d.addr(backup)),
    ];
    let svc = ShardedService::open(
        Arc::new(MemKv::new()),
        ServiceConfig {
            topology,
            ..service
        },
    );
    (d, svc.unwrap())
}

/// The hung-primary scenario end to end: black-holing the primary's
/// proxy makes it accept TCP connections and swallow every frame. The
/// socket deadline fires per exchange, each timeout is a strike, and at
/// `promote_after` strikes the in-sync backup takes over — restoring
/// write availability within a budget proportional to
/// `promote_after × io_timeout`. The mutation that timed out is
/// surfaced as ambiguous and is not duplicated by the failover.
#[test]
fn hung_primary_promotes_within_timeout_budget() {
    const IO_TIMEOUT: Duration = Duration::from_millis(150);
    const PROMOTE_AFTER: u32 = 2;

    // Primary is reached through a fault proxy; the backup is direct.
    let d = hung_primary(cfg(IO_TIMEOUT, 2, PROMOTE_AFTER));
    let (svc, proxy) = (d.service(), d.proxy(0));

    // Healthy phase: stream + one chunk through the proxy, mirrored to
    // the backup.
    svc.create_stream(1, 0, 10_000, 2).unwrap();
    svc.insert(&sealed(1, 0, 7)).unwrap();
    let healthy = svc.get_stat_range(&[1], 0, 10_000).unwrap();
    assert!(svc.stats().shards[0].in_sync);

    // The primary hangs: connections still accepted, every frame
    // swallowed, no RST — only the deadline can unwedge callers.
    proxy.black_hole();

    let wedged = Instant::now();
    let mut promoted_after_attempts = 0u32;
    loop {
        promoted_after_attempts += 1;
        match svc.insert(&sealed(1, 1, 8)) {
            Ok(()) => break,
            Err(e) => {
                // Each timed-out attempt is ambiguous: the hung primary
                // may have applied the write.
                assert!(
                    e.to_string().contains("mutation outcome unknown"),
                    "expected ambiguous-ack error, got: {e}"
                );
            }
        }
        assert!(
            promoted_after_attempts <= PROMOTE_AFTER + 1,
            "promotion did not happen within the strike budget"
        );
    }
    let elapsed = wedged.elapsed();
    // Each attempt burns at most one io_timeout on the hung primary
    // (mutations are never retried at the pool level); promotion must
    // land within the strike budget plus slack for dials and mirroring.
    let budget = IO_TIMEOUT * (PROMOTE_AFTER + 1) + Duration::from_secs(2);
    assert!(
        elapsed < budget,
        "promotion took {elapsed:?}, budget {budget:?}"
    );

    let snap = svc.stats();
    assert_eq!(snap.shards[0].promotions, 1, "{snap:?}");

    // No duplication: the stream holds exactly chunks 0 and 1 — the
    // ambiguous attempts did not replay chunk 1 onto the new primary
    // (strict next-index would have rejected a duplicate anyway, but
    // the length proves none slipped through).
    match svc.handle(Request::StreamInfo { stream: 1 }) {
        Response::Info(i) => assert_eq!(i.len, 2, "exactly chunks 0 and 1"),
        other => panic!("unexpected {other:?}"),
    }
    // The promoted primary serves the pre-fault data identically, plus
    // the write that finally landed.
    let after = svc.get_stat_range(&[1], 0, 10_000).unwrap();
    assert_eq!(healthy, after, "chunk 0 survives the promotion");
    let both = svc.get_stat_range(&[1], 0, 20_000).unwrap();
    assert_eq!(both.parts, vec![(1, 0, 2)]);
}

/// Reads against the hung primary fail over to the in-sync backup
/// without waiting for promotion — one deadline expiry, then the backup
/// answers from mirrored data.
#[test]
fn reads_fail_over_from_hung_primary_within_one_deadline() {
    const IO_TIMEOUT: Duration = Duration::from_millis(150);
    // Promotion disabled: this test isolates failover reads.
    let d = hung_primary(cfg(IO_TIMEOUT, 2, 0));
    let (svc, proxy) = (d.service(), d.proxy(0));
    svc.create_stream(1, 0, 10_000, 2).unwrap();
    svc.insert(&sealed(1, 0, 5)).unwrap();
    let healthy = svc.get_stat_range(&[1], 0, 10_000).unwrap();

    proxy.black_hole();
    let t = Instant::now();
    let after = svc.get_stat_range(&[1], 0, 10_000).unwrap();
    let elapsed = t.elapsed();
    assert_eq!(healthy, after, "backup serves identical data");
    // One leg attempt (pooled) + one fresh retry inside the backend can
    // each burn a deadline before the failover kicks in.
    assert!(
        elapsed < IO_TIMEOUT * 2 + Duration::from_secs(2),
        "failover read took {elapsed:?}"
    );
    assert!(svc.stats().shards[0].failovers > 0);
}

const IO_TIMEOUT: Duration = Duration::from_secs(1);
const QUERY_DEADLINE: Duration = Duration::from_millis(200);

/// Two nodes, shard 1's behind a proxy, under a coordinator whose query
/// budget is a fifth of its socket deadline.
fn budget_spec() -> Spec {
    let service = ServiceConfig {
        query_deadline: QUERY_DEADLINE,
        ..cfg(IO_TIMEOUT, 2, 0)
    };
    Spec::remote(2, 2, 1)
        .fault(Fault::Proxy(1, FaultPlan::quiet()))
        .service(service)
}

/// `healthy` streams on shard 0 and `hung` on shard 1, one chunk in each.
fn streams_on_both(svc: &ShardedService, healthy: usize, hung: usize) -> (Vec<u128>, Vec<u128>) {
    let router = svc.router();
    let on = |shard| (1..100u128).filter(move |&id| router.shard_of(id) == shard);
    let healthy: Vec<u128> = on(0).take(healthy).collect();
    let hung: Vec<u128> = on(1).take(hung).collect();
    for &id in healthy.iter().chain(&hung) {
        svc.create_stream(id, 0, 10_000, 2).unwrap();
        svc.insert(&sealed(id, 0, 3)).unwrap();
    }
    (healthy, hung)
}

/// The whole-query budget: a leg stuck behind a hung node is given up on
/// at `query_deadline`, well before its socket deadline would fire, and
/// the caller gets a typed answer instead of a stall. The leg's connection
/// is discarded with it — nothing keeps waiting on the hung node; queries
/// that do not touch the hung shard are unaffected.
#[test]
fn query_deadline_bounds_a_scatter_gather_over_a_hung_leg() {
    // Two streams on the healthy shard and one on the other: the hung leg
    // is the smaller one.
    let d = Deployment::build(&budget_spec());
    let (svc, proxy) = (d.service(), d.proxy(1));
    let (healthy, hung) = streams_on_both(&svc, 2, 1);
    let hung = hung[0];
    let all = [healthy[0], hung, healthy[1]];
    assert_eq!(svc.get_stat_range(&all, 0, 10_000).unwrap().parts.len(), 3);

    proxy.black_hole();
    let timeouts = timecrypt_obs::counters::TIMEOUTS.get();
    let t = Instant::now();
    let err = svc.get_stat_range(&all, 0, 10_000).unwrap_err();
    let elapsed = t.elapsed();
    assert_eq!(
        err.to_string(),
        "service unavailable: query deadline exceeded"
    );
    // The budget, not the socket deadline, released the caller (≈ 200 ms
    // when the box is quiet).
    assert!(elapsed >= QUERY_DEADLINE, "returned early: {elapsed:?}");
    assert!(elapsed < IO_TIMEOUT, "waited out the socket: {elapsed:?}");
    assert!(timecrypt_obs::counters::TIMEOUTS.get() > timeouts);
    let reply = svc.get_stat_range(&healthy, 0, 10_000).unwrap();
    assert_eq!(reply.parts.len(), 2);
}

/// The budget bounds every leg, whichever the caller waits on first: the
/// hung shard owning the query's larger leg, or its only one.
#[test]
fn query_deadline_bounds_the_largest_and_the_only_leg_too() {
    let d = Deployment::build(&budget_spec());
    let (svc, proxy) = (d.service(), d.proxy(1));
    let (healthy, hung) = streams_on_both(&svc, 1, 2);
    let larger_leg_hung = vec![hung[0], healthy[0], hung[1]];
    let only_leg_hung = vec![hung[0]];
    let reply = svc.get_stat_range(&larger_leg_hung, 0, 10_000).unwrap();
    assert_eq!(reply.parts.len(), 3);

    proxy.black_hole();
    for streams in [larger_leg_hung, only_leg_hung] {
        let timeouts = timecrypt_obs::counters::TIMEOUTS.get();
        let t = Instant::now();
        let err = svc.get_stat_range(&streams, 0, 10_000).unwrap_err();
        let elapsed = t.elapsed();
        assert_eq!(
            err.to_string(),
            "service unavailable: query deadline exceeded",
            "{streams:?}"
        );
        assert!(elapsed >= QUERY_DEADLINE, "{streams:?}: early, {elapsed:?}");
        assert!(elapsed < IO_TIMEOUT, "{streams:?}: waited {elapsed:?}");
        assert!(timecrypt_obs::counters::TIMEOUTS.get() > timeouts);
        // A query that avoids the hung shard right afterwards succeeds.
        let reply = svc.get_stat_range(&healthy, 0, 10_000).unwrap();
        assert_eq!(reply.parts.len(), 1);
    }
}

/// A read the budget cuts short is a strike like a socket timeout, so a
/// hung primary is still promoted away when every query gives up on it
/// long before its socket would: `promote_after` queries answer "deadline
/// exceeded" inside their budgets, the next is served by the promoted
/// backup.
#[test]
fn reads_cut_short_by_the_budget_still_promote_a_hung_primary() {
    const PROMOTE_AFTER: u32 = 2;
    let d = hung_primary(ServiceConfig {
        pool: PoolConfig {
            io_timeout: IO_TIMEOUT,
            ..Default::default()
        },
        promote_after: PROMOTE_AFTER,
        query_deadline: QUERY_DEADLINE,
        ..ServiceConfig::default()
    });
    let (svc, proxy) = (d.service(), d.proxy(0));
    svc.create_stream(1, 0, 10_000, 2).unwrap();
    svc.insert(&sealed(1, 0, 7)).unwrap();
    let healthy = svc.get_stat_range(&[1], 0, 10_000).unwrap();

    proxy.black_hole();
    for strike in 1..=PROMOTE_AFTER {
        let t = Instant::now();
        let err = svc.get_stat_range(&[1], 0, 10_000).unwrap_err();
        assert_eq!(
            err.to_string(),
            "service unavailable: query deadline exceeded",
            "strike {strike}"
        );
        assert!(
            t.elapsed() < IO_TIMEOUT,
            "strike {strike}: {:?}",
            t.elapsed()
        );
    }
    assert_eq!(svc.stats().shards[0].promotions, 1);
    assert_eq!(svc.get_stat_range(&[1], 0, 10_000).unwrap(), healthy);
}

/// Legs are finished in shard order, so a hung shard 0 has spent the budget
/// by the time shard 1's replies are read. They arrived in time: shard 1 is
/// not failed for it — no strike, no failover, its primary and in-sync
/// backup stay as they are however many such queries run.
#[test]
fn a_budget_spent_on_a_hung_shard_is_no_strike_against_the_shards_read_after_it() {
    const PROMOTE_AFTER: u32 = 2;
    // Shard 0 unreplicated behind a proxy, shard 1 replicated.
    let service = ServiceConfig {
        pool: PoolConfig {
            io_timeout: IO_TIMEOUT,
            ..Default::default()
        },
        promote_after: PROMOTE_AFTER,
        query_deadline: QUERY_DEADLINE,
        ..ServiceConfig::default()
    };
    let (d, svc) = shard_1_replicated(None, service);
    let proxy = d.proxy(0);
    let router = svc.router();
    let pair = [0, 1].map(|shard| {
        (1..100u128)
            .find(|&id| router.shard_of(id) == shard)
            .unwrap()
    });
    for id in pair {
        svc.create_stream(id, 0, 10_000, 2).unwrap();
        svc.insert(&sealed(id, 0, 3)).unwrap();
    }
    let healthy = svc.get_stat_range(&pair[1..], 0, 10_000).unwrap();

    proxy.black_hole();
    for _ in 0..=PROMOTE_AFTER {
        let err = svc.get_stat_range(&pair, 0, 10_000).unwrap_err();
        assert_eq!(
            err.to_string(),
            "service unavailable: query deadline exceeded"
        );
    }
    proxy.set_plan(FaultPlan::quiet());
    let shard = &svc.stats().shards[1];
    assert_eq!((shard.failovers, shard.promotions), (0, 0), "{shard:?}");
    assert!(shard.in_sync, "{shard:?}");
    assert_eq!(svc.get_stat_range(&pair[1..], 0, 10_000).unwrap(), healthy);
}

/// A scrape begins every node's `Stats` before it reads any, and waits for
/// each until `io_timeout` after its own request: hung nodes cost it one
/// timeout together, however many there are, and what the healthy node
/// answered is still in it.
#[test]
fn a_hung_node_costs_a_scrape_one_io_timeout_however_many_there_are() {
    const IO_TIMEOUT: Duration = Duration::from_millis(200);
    for hung in [1, 3] {
        // Listeners nobody accepts on: the kernel completes the dial and
        // takes the frame, and no reply ever comes.
        let silent: Vec<_> = (0..hung)
            .map(|_| std::net::TcpListener::bind("127.0.0.1:0").unwrap())
            .collect();
        let mut topology: Vec<_> = (silent.iter())
            .map(|l| ShardSpec::remote(l.local_addr().unwrap().to_string()))
            .collect();
        // One node per shard; the silent listeners stand in for the first.
        let d = Deployment::build(&Spec::remote(hung + 1, hung + 1, 1));
        topology.push(ShardSpec::remote(d.addr(hung)));
        let svc = ShardedService::open(
            Arc::new(MemKv::new()),
            ServiceConfig {
                topology,
                pool: PoolConfig {
                    io_timeout: IO_TIMEOUT,
                    ..Default::default()
                },
                promote_after: 0,
                ..ServiceConfig::default()
            },
        )
        .unwrap();
        let router = svc.router();
        let id = (1..).find(|&id| router.shard_of(id) == hung).unwrap();
        svc.create_stream(id, 0, 10_000, 2).unwrap();
        svc.insert(&sealed(id, 0, 3)).unwrap();

        let t = Instant::now();
        let snap = svc.stats();
        let elapsed = t.elapsed();
        assert!(elapsed < IO_TIMEOUT * 2, "{hung} hung: {elapsed:?}");
        assert_eq!(snap.shards[hung].streams, 1, "{snap:?}");
        let healthy = d.node(hung).stats();
        assert!(healthy.store_puts > 0);
        assert_eq!(
            (snap.store_puts, snap.store_bytes_written),
            (healthy.store_puts, healthy.store_bytes_written)
        );
    }
}

/// A node whose dial hangs is asked first and spends more than an
/// `io_timeout` before the scrape reaches the next node: the healthy shard
/// after it is still asked, waited for its full timeout and read — no
/// strike (with `promote_after: 1` that would promote), no failover.
#[test]
#[cfg(target_os = "linux")]
fn a_node_whose_dial_hangs_costs_the_nodes_scraped_after_it_nothing() {
    const IO_TIMEOUT: Duration = Duration::from_millis(200);
    // A listener that never accepts: once its backlog is full Linux drops
    // further SYNs, and each dial waits out its timeout.
    let full = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let full_addr = full.local_addr().unwrap();
    let fill = |_| std::net::TcpStream::connect_timeout(&full_addr, Duration::from_millis(100));
    let held: Vec<_> = (0..900).map_while(|i| fill(i).ok()).collect();
    assert!(held.len() < 900, "the backlog never filled");
    let service = ServiceConfig {
        pool: PoolConfig {
            connect_attempts: 2,
            io_timeout: IO_TIMEOUT,
            ..Default::default()
        },
        promote_after: 1,
        ..ServiceConfig::default()
    };
    let (_d, svc) = shard_1_replicated(Some(full_addr.to_string()), service);
    let router = svc.router();
    let id = (1..).find(|&id| router.shard_of(id) == 1).unwrap();
    svc.create_stream(id, 0, 10_000, 2).unwrap();
    svc.insert(&sealed(id, 0, 3)).unwrap();

    let t = Instant::now();
    let snap = svc.stats();
    assert!(t.elapsed() >= IO_TIMEOUT * 2, "the dial did not hang");
    let shard = &snap.shards[1];
    assert_eq!(shard.streams, 1, "{snap:?}");
    assert_eq!((shard.failovers, shard.promotions), (0, 0), "{shard:?}");
    assert!(shard.in_sync, "{shard:?}");
    assert!(snap.store_puts > 0, "{snap:?}");
}

/// Every caller waits for its own legs, all of them at once: eight
/// two-shard queries whose replies are each held 50 ms on the way back take
/// about one delay — not one per leg, and not one per caller ahead in some
/// shard's queue.
#[test]
fn concurrent_callers_do_not_queue_behind_one_another() {
    use timecrypt::faults::{NetDirection, NetFault, NetRule, Trigger};
    const CALLERS: usize = 8;
    const DELAY: Duration = Duration::from_millis(50);
    let spec = Spec::remote(2, 2, 1)
        .fault(Fault::Proxy(0, FaultPlan::quiet()))
        .fault(Fault::Proxy(1, FaultPlan::quiet()));
    let d = Deployment::build(&spec);
    let (svc, proxies) = (d.service(), [d.proxy(0), d.proxy(1)]);
    let router = svc.router();
    let pair = [0, 1].map(|shard| {
        (1..100u128)
            .find(|&id| router.shard_of(id) == shard)
            .unwrap()
    });
    for id in pair {
        svc.create_stream(id, 0, 10_000, 2).unwrap();
        svc.insert(&sealed(id, 0, 3)).unwrap();
    }
    // One round of `CALLERS` queries released together: each caller's
    // reply and how long it waited for it.
    let round = || {
        let start = std::sync::Barrier::new(CALLERS);
        std::thread::scope(|scope| {
            let callers: Vec<_> = (0..CALLERS)
                .map(|_| {
                    scope.spawn(|| {
                        start.wait();
                        let t = Instant::now();
                        (svc.get_stat_range(&pair, 0, 10_000).unwrap(), t.elapsed())
                    })
                })
                .collect();
            callers
                .into_iter()
                .map(|c| c.join().unwrap())
                .collect::<Vec<_>>()
        })
    };
    // Undelayed first: the replies to compare with, and every caller's
    // two connections dialed.
    let undelayed = round();
    for proxy in proxies {
        proxy.set_plan(FaultPlan::quiet().with_net_rule(NetRule {
            direction: Some(NetDirection::ToClient),
            when: Trigger::EveryNth(1),
            fault: NetFault::Delay(DELAY),
        }));
    }
    for ((reply, waited), (undelayed, _)) in round().into_iter().zip(undelayed) {
        assert_eq!(reply, undelayed);
        assert!(waited >= DELAY, "not delayed: {waited:?}");
        assert!(waited < DELAY * 4, "queued: waited {waited:?}");
    }
}
