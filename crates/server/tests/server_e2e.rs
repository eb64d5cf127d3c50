//! End-to-end server tests over real sockets: an in-process
//! [`Server`], real TCP connections, the full wire protocol, and the
//! post-run serializability oracle — the same stack `pr-load` drives,
//! shrunk to test size.

use pr_model::{EntityId, Expr, Op, Value, VarId};
use pr_server::load::oracle_check;
use pr_server::wire::AbortReason;
use pr_server::{run_load, Client, LoadConfig, Reply, Server, ServerConfig};
use pr_sim::report::json_number;
use std::time::Duration;

fn start_server(entities: u32, batch_deadline: Duration) -> (Server, String) {
    let config = ServerConfig { entities, batch_deadline, threads: 2, ..ServerConfig::default() };
    let server = Server::start(config).expect("bind");
    let addr = server.local_addr().to_string();
    (server, addr)
}

/// `LX(e); read; write back +delta; unlock; commit` — a delta-additive
/// increment, the same shape the workload generator emits.
fn increment(entity: u32, delta: i64) -> Vec<Op> {
    let e = EntityId::new(entity);
    vec![
        Op::LockExclusive(e),
        Op::Read { entity: e, into: VarId::new(0) },
        Op::Write {
            entity: e,
            expr: Expr::add(Expr::Var(VarId::new(0)), Expr::Const(Value::new(delta))),
        },
        Op::Unlock(e),
        Op::Commit,
    ]
}

#[test]
fn submit_commit_stats_history_round_trip() {
    let (server, addr) = start_server(16, Duration::from_millis(1));
    let mut c = Client::connect(&addr).expect("connect");

    // Pipeline a few increments, then collect the replies.
    let n = 8u64;
    for i in 0..n {
        c.submit(increment((i % 4) as u32, 1)).expect("submit");
    }
    let mut committed = 0;
    for _ in 0..n {
        match c.recv().expect("recv").expect("decode") {
            Reply::Committed { .. } => committed += 1,
            other => panic!("expected Committed, got {other:?}"),
        }
    }
    assert_eq!(committed, n);

    let stats = c.stats().expect("stats");
    assert!(stats.contains("\"schema\":\"pr-server-metrics-v1\""), "stats: {stats}");
    assert!(stats.contains("\"commits\":8"), "stats: {stats}");

    let (accesses, snapshot) = c.history().expect("history");
    assert_eq!(accesses.len(), n as usize, "one access per single-entity txn");
    // Each of entities 0..4 took two +1 increments on top of init 100.
    let by_entity: std::collections::BTreeMap<u32, i64> =
        snapshot.iter().map(|&(e, v)| (e.raw(), v)).collect();
    for e in 0..4 {
        assert_eq!(by_entity[&e], 102, "entity {e}");
    }

    let commits = c.shutdown().expect("shutdown");
    assert_eq!(commits, n);
    let summary = server.wait().expect("quiescent drain");
    assert_eq!(summary.commits, n);
}

/// The executor publishes a batch's metrics before its replies, so a
/// client that holds its COMMITTED reply never reads a `commits` that lags
/// it.
#[test]
fn stats_never_lag_a_received_commit() {
    let (server, addr) = start_server(16, Duration::from_millis(1));
    let mut c = Client::connect(&addr).expect("connect");
    for i in 0..200u64 {
        c.submit(increment((i % 16) as u32, 1)).expect("submit");
        match c.recv().expect("recv").expect("decode") {
            Reply::Committed { .. } => {}
            other => panic!("expected Committed, got {other:?}"),
        }
        let stats = c.stats().expect("stats");
        assert_eq!(json_number::<u64>(&stats, "commits"), Some(i + 1), "stats: {stats}");
    }
    assert_eq!(c.shutdown().expect("shutdown"), 200);
    server.wait().expect("quiescent drain");
}

#[test]
fn graceful_shutdown_drains_in_flight_transactions() {
    // A long deadline and a large batch keep every submission queued
    // (in flight) when the shutdown request lands behind them.
    let (server, addr) = start_server(16, Duration::from_secs(10));
    let mut c = Client::connect(&addr).expect("connect");

    let n = 20u64;
    for i in 0..n {
        c.submit(increment((i % 8) as u32, 1)).expect("submit");
    }
    // Same connection, so all submissions reach the batcher first: the
    // drain must execute them all, then ack.
    c.send(&pr_server::Request::Shutdown).expect("send shutdown");

    let mut committed = 0;
    let mut acked = false;
    for _ in 0..=n {
        match c.recv().expect("recv").expect("decode") {
            Reply::Committed { .. } => {
                assert!(!acked, "no commit may follow the shutdown ack");
                committed += 1;
            }
            Reply::ShutdownAck { commits } => {
                assert_eq!(commits, n);
                acked = true;
            }
            other => panic!("unexpected reply {other:?}"),
        }
    }
    assert_eq!(committed, n, "every queued submission must drain");
    assert!(acked);

    // wait() returns only after Session::finish() asserted EntitySlab
    // quiescence — a wedged lock queue would surface here as Err.
    let summary = server.wait().expect("slab must be quiescent after drain");
    assert_eq!(summary.commits, n);
}

#[test]
fn one_batch_from_three_connections_replies_per_connection() {
    // The batch flushes only when full, so all nine submissions land in
    // one batch, in the order the submissions counter confirms.
    let n = 9;
    let config = ServerConfig {
        entities: 16,
        batch_deadline: Duration::from_secs(30),
        batch_max: n,
        threads: 2,
        ..ServerConfig::default()
    };
    let server = Server::start(config).expect("bind");
    let addr = server.local_addr().to_string();
    let mut conns: Vec<Client> = (0..3).map(|_| Client::connect(&addr).expect("connect")).collect();
    let mut ctl = Client::connect(&addr).expect("connect");
    let mut stats_replies = 0u64;

    // Interleaved, so no connection's submissions are contiguous.
    let senders = [0usize, 1, 2, 2, 1, 0, 0, 2, 1];
    let mut expected: Vec<Vec<(u64, u32)>> = vec![Vec::new(); 3];
    for (position, &k) in senders.iter().enumerate() {
        let request_id = conns[k].submit(increment(position as u32, 1)).expect("submit");
        // Fresh server: submission `position` commits as txn position + 1.
        expected[k].push((request_id, position as u32 + 1));
        if position + 1 < n {
            let queued = format!("\"submissions\":{},", position + 1);
            while !ctl.stats().expect("stats").contains(&queued) {
                stats_replies += 1;
                std::thread::sleep(Duration::from_millis(1));
            }
            stats_replies += 1;
        }
    }

    for (k, c) in conns.iter_mut().enumerate() {
        let got: Vec<(u64, u32)> = (0..expected[k].len())
            .map(|_| match c.recv().expect("recv").expect("decode") {
                Reply::Committed { request_id, txn } => (request_id, txn.raw()),
                other => panic!("expected Committed, got {other:?}"),
            })
            .collect();
        assert_eq!(got, expected[k], "connection {k}");
    }

    // Nine COMMITTED frames went out in three writes; the counter counts
    // frames (the STATS replies sent so far are frames too). The executor
    // bumps it just after its write returns, so poll briefly.
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    loop {
        let stats = ctl.stats().expect("stats");
        let frames_out = format!("\"frames_out\":{},", n as u64 + stats_replies);
        stats_replies += 1;
        assert!(stats.contains("\"batches\":1,"), "stats: {stats}");
        if stats.contains(&frames_out) {
            break;
        }
        assert!(std::time::Instant::now() < deadline, "want {frames_out} in {stats}");
        std::thread::sleep(Duration::from_millis(1));
    }

    assert_eq!(ctl.shutdown().expect("shutdown"), n as u64);
    server.wait().expect("drain");
}

#[test]
fn submissions_after_shutdown_are_aborted_not_dropped() {
    let (server, addr) = start_server(16, Duration::from_millis(1));
    let mut straggler = Client::connect(&addr).expect("connect");
    let mut closer = Client::connect(&addr).expect("connect");

    assert_eq!(closer.shutdown().expect("shutdown"), 0);

    // The straggler's reader thread is still alive; its submission must
    // draw an explicit shutdown abort, not silence.
    let id = straggler.submit(increment(0, 1)).expect("submit");
    match straggler.recv().expect("recv").expect("decode") {
        Reply::Aborted { request_id, reason } => {
            assert_eq!(request_id, id);
            assert_eq!(reason, AbortReason::Shutdown);
        }
        other => panic!("expected shutdown abort, got {other:?}"),
    }
    server.wait().expect("drain");
}

#[test]
fn invalid_and_out_of_universe_programs_are_rejected() {
    let (server, addr) = start_server(8, Duration::from_millis(1));
    let mut c = Client::connect(&addr).expect("connect");

    // Write without an exclusive lock: fails program validation.
    let id = c
        .submit(vec![
            Op::Write { entity: EntityId::new(0), expr: Expr::Const(Value::new(1)) },
            Op::Commit,
        ])
        .expect("submit");
    match c.recv().expect("recv").expect("decode") {
        Reply::Aborted { request_id, reason } => {
            assert_eq!(request_id, id);
            assert_eq!(reason, AbortReason::Invalid);
        }
        other => panic!("expected invalid abort, got {other:?}"),
    }

    // Well-formed program, but entity 100 is outside the 8-entity
    // universe: rejected at admission, before it can poison a batch.
    let id = c.submit(increment(100, 1)).expect("submit");
    match c.recv().expect("recv").expect("decode") {
        Reply::Aborted { request_id, reason } => {
            assert_eq!(request_id, id);
            assert_eq!(reason, AbortReason::Invalid);
        }
        other => panic!("expected invalid abort, got {other:?}"),
    }

    // The connection survives rejections; a valid submission still lands.
    c.submit(increment(3, 1)).expect("submit");
    assert!(matches!(c.recv().expect("recv").expect("decode"), Reply::Committed { .. }));

    c.shutdown().expect("shutdown");
    server.wait().expect("drain");
}

#[test]
fn malformed_frame_draws_error_and_close() {
    let (server, addr) = start_server(8, Duration::from_millis(1));
    let mut c = Client::connect(&addr).expect("connect");
    c.set_read_timeout(Some(Duration::from_secs(5))).expect("timeout");
    c.send_raw(&[1, 0, 0, 0, 0x7F]).expect("send garbage tag");
    match c.recv().expect("recv") {
        Ok(Reply::Error { code: 2, .. }) => {}
        other => panic!("expected protocol error 2, got {other:?}"),
    }
    match c.recv() {
        Err(e) if e.kind() == std::io::ErrorKind::UnexpectedEof => {}
        other => panic!("expected close after protocol error, got {other:?}"),
    }

    // The server is unaffected: a fresh connection commits normally.
    let mut c2 = Client::connect(&addr).expect("connect");
    c2.submit(increment(0, 1)).expect("submit");
    assert!(matches!(c2.recv().expect("recv").expect("decode"), Reply::Committed { .. }));
    c2.shutdown().expect("shutdown");
    server.wait().expect("drain");
}

/// The whole tentpole in one test: closed-loop load over real sockets,
/// then the differential oracle over the server-reported history.
#[test]
fn closed_loop_load_is_serializable() {
    let (server, addr) = start_server(64, Duration::from_millis(1));
    let cfg = LoadConfig {
        addr,
        clients: 24,
        txns_per_client: 3,
        entities: 64,
        zipf_centi: 120,
        think_us: 100,
        clients_per_conn: 8,
        ..LoadConfig::default()
    };
    let result = run_load(&cfg).expect("load");
    assert_eq!(result.commits, 72);
    assert_eq!(result.aborted, 0);
    assert_eq!(result.latency.count(), 72);

    let mut ctl = Client::connect(&cfg.addr).expect("connect");
    let (accesses, snapshot) = ctl.history().expect("history");
    let report = oracle_check(&cfg, &result.mapping, &accesses, &snapshot).expect("oracle green");
    assert_eq!(report.txns, 72);
    assert!(report.accesses > 0);

    assert_eq!(ctl.shutdown().expect("shutdown"), 72);
    server.wait().expect("drain");
}
