//! `/readyz` on a node's metrics listener: `200 ready` while no store log
//! of the process is read-only, `503` while one is. A test binary of its
//! own, because `timecrypt_store_read_only` counts the read-only logs of
//! the whole process, and other test binaries fault their own logs.

use common::{sealed, Deployment, Fault, Spec};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::Duration;
use timecrypt::faults::{FaultPlan, FileCall, FileFault, FileRule, Trigger};
use timecrypt::wire::{RefusalKind, Request, Response};

mod common;

/// `GET /readyz`: the status line and the body.
fn readyz(addr: SocketAddr) -> (String, String) {
    let mut stream = TcpStream::connect(addr).unwrap();
    write!(stream, "GET /readyz HTTP/1.0\r\n\r\n").unwrap();
    let mut response = String::new();
    stream.read_to_string(&mut response).unwrap();
    let (head, body) = response.split_once("\r\n\r\n").unwrap();
    let status = head.lines().next().unwrap();
    (status.to_string(), body.to_string())
}

fn ready() -> (String, String) {
    ("HTTP/1.0 200 OK".into(), "ready\n".into())
}

fn insert(d: &Deployment, index: u64) -> Response {
    let chunk = sealed(11, index, index as i64).to_bytes();
    d.call(Request::Insert { chunk })
}

/// A node over a `FaultyFile`: ready; a short append (a prefix of the
/// record, then `ENOSPC`) turns its log read-only and `/readyz` answers
/// 503; a restart reopens the log over the file and it is ready again.
#[test]
fn readyz_is_503_while_the_log_is_read_only_and_200_after_a_restart() {
    let d = Deployment::build(&Spec::node(1).fault(Fault::File(FaultPlan::quiet())));
    let metrics = d.node(0).serve_metrics("127.0.0.1:0").unwrap();
    assert_eq!(readyz(metrics.addr()), ready());
    let create = Request::CreateStream {
        stream: 11,
        t0: 0,
        delta_ms: 10_000,
        digest_width: 2,
    };
    assert_eq!(d.call(create), Response::Ok);
    assert_eq!(insert(&d, 0), Response::Ok);
    assert_eq!(readyz(metrics.addr()), ready());

    let file = d.faulty(0);
    file.set_plan(FaultPlan::quiet().with_file_rule(FileRule {
        call: FileCall::Append,
        when: Trigger::Nth(file.calls(FileCall::Append)),
        fault: FileFault::ShortAppend,
    }));
    assert!(matches!(insert(&d, 1), Response::Error(_)));
    match insert(&d, 1) {
        Response::Error(refusal) => assert_eq!(refusal.kind, RefusalKind::ReadOnly),
        other => panic!("a write to the read-only log: {other:?}"),
    }
    let not_ready = (
        "HTTP/1.0 503 Service Unavailable".to_string(),
        "not ready: 1 store log(s) read-only after a failed write\n".to_string(),
    );
    assert_eq!(readyz(metrics.addr()), not_ready);

    // The listener holds the node, and the node its read-only log: both
    // go, as they would with the process, before the log is reopened. The
    // listener's last connection thread lets go of the node a moment
    // after its reply.
    let old = Arc::downgrade(&d.node(0));
    drop(metrics);
    d.restart(0);
    for _ in 0..1000 {
        if old.strong_count() == 0 {
            break;
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    let metrics = d.node(0).serve_metrics("127.0.0.1:0").unwrap();
    assert_eq!(readyz(metrics.addr()), ready());
    assert_eq!(insert(&d, 1), Response::Ok, "the reopened log writes");
}
