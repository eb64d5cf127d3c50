//! The real-crash end of the durability battery: SIGKILL an actual
//! `pr-server` process mid-load, restart it with `--recover`, and prove
//! over the wire that
//!
//! * every transaction a client saw `COMMITTED` before the kill is in the
//!   recovered state (per-batch flush ⇒ zero loss), and
//! * the recovered server resumes the dead process's txn-id/stamp clocks,
//!   so the union of pre-crash durable history and post-crash load passes
//!   the differential serializability oracle as one history.
//!
//! The WAL's request ids are the bridge: each batch record stores the
//! submitters' request ids (`seq << 32 | global_client_id`), so the test
//! regenerates the exact program behind every durable transaction —
//! including durable-but-unacknowledged ones the kill ate the replies
//! for — without any server cooperation.
//!
//! A second test covers the graceful path: under `--wal-flush off`
//! (no fsync at all during the run) a drain-then-restart still loses
//! nothing, because the drain protocol syncs before `SHUTDOWN_ACK`. A
//! third runs drain-then-recover on a 1<<20-entity database, whose
//! snapshot is an order of magnitude larger than one frame.

use pr_model::{EntityId, Expr, Op, Value, VarId};
use pr_server::load::{client_programs, oracle_check};
use pr_server::{run_load, Client, DurabilityConfig, LoadConfig, Reply, Server, ServerConfig};
use pr_sim::report::json_number;
use pr_storage::wal::{replay, FlushPolicy, FsDir};
use std::collections::HashSet;
use std::io::{BufRead, BufReader};
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

fn temp_wal_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("pr-kill-recover-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Spawns the real pr-server binary and scrapes the bound address from
/// its `pr-server listening on ADDR …` line. The returned reader keeps
/// the stdout pipe open for the child's lifetime.
fn spawn_server(extra: &[&str]) -> (Child, BufReader<std::process::ChildStdout>, String) {
    let mut child = Command::new(env!("CARGO_BIN_EXE_pr-server"))
        .args([
            "--addr",
            "127.0.0.1:0",
            "--entities",
            "64",
            "--init",
            "100",
            "--threads",
            "2",
            "--batch-max",
            "8",
            "--batch-deadline-us",
            "500",
        ])
        .args(extra)
        .stdout(Stdio::piped())
        .spawn()
        .expect("spawn pr-server");
    let mut reader = BufReader::new(child.stdout.take().expect("child stdout"));
    let mut line = String::new();
    let addr = loop {
        line.clear();
        if reader.read_line(&mut line).expect("read pr-server stdout") == 0 {
            panic!("pr-server exited before printing its listening line");
        }
        if let Some(rest) = line.split("listening on ").nth(1) {
            break rest.split_whitespace().next().expect("address token").to_string();
        }
    };
    (child, reader, addr)
}

/// Polls `STATS` until the server has committed at least `want`
/// transactions (or the load has simply finished). Returns the last
/// observed commit count.
fn wait_for_commits(addr: &str, want: u64) -> u64 {
    let mut c = Client::connect(addr).expect("control connect");
    c.set_read_timeout(Some(Duration::from_secs(5))).expect("timeout");
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        let stats = c.stats().expect("stats");
        let commits: u64 = json_number(&stats, "commits").expect("commits in STATS");
        if commits >= want {
            return commits;
        }
        assert!(Instant::now() < deadline, "server never reached {want} commits: {stats}");
        std::thread::sleep(Duration::from_millis(2));
    }
}

/// Decodes the durable prefix straight off the on-disk WAL and returns
/// the oracle mapping `(txn, global client, client-local seq)` for every
/// durable transaction — the request ids logged per batch carry `(g,
/// seq)`, and replies (hence txn ids) are issued in request-id order
/// within each batch.
fn durable_mapping(dir: &PathBuf) -> Vec<(u32, u32, u32)> {
    let fs = FsDir::open(dir).expect("open wal dir");
    let outcome = replay(&fs).expect("replay wal");
    let mut mapping = Vec::new();
    for batch in &outcome.batches {
        for (j, rid) in batch.request_ids.iter().enumerate() {
            let txn = batch.txn_base + 1 + j as u32;
            let g = (rid & 0xFFFF_FFFF) as u32;
            let seq = (rid >> 32) as u32;
            mapping.push((txn, g, seq));
        }
    }
    mapping
}

#[test]
fn sigkill_mid_load_recovers_every_acked_txn() {
    let wal = temp_wal_dir("sigkill");
    let wal_arg = wal.to_str().expect("utf-8 temp path").to_string();

    // --- phase 1: load against a durable server, then SIGKILL it -------
    let (mut child, _out, addr) = spawn_server(&["--wal", &wal_arg, "--wal-flush", "per-batch"]);
    let phase1 = LoadConfig {
        addr: addr.clone(),
        clients: 32,
        txns_per_client: 8,
        entities: 64,
        init: 100,
        zipf_centi: 120,
        think_us: 300,
        clients_per_conn: 16,
        seed: 42,
        client_base: 0,
        tolerate_disconnect: true,
    };
    let load = {
        let cfg = phase1.clone();
        std::thread::spawn(move || run_load(&cfg).expect("tolerant load must not error"))
    };
    wait_for_commits(&addr, 48);
    child.kill().expect("SIGKILL pr-server");
    child.wait().expect("reap");
    let acked = load.join().expect("load thread");
    assert!(acked.commits >= 48, "driver saw {} acks before the kill", acked.commits);

    // --- the durable prefix, read straight off disk --------------------
    let wal_map = durable_mapping(&wal);
    let durable: HashSet<(u32, u32, u32)> = wal_map.iter().copied().collect();
    assert_eq!(durable.len(), wal_map.len(), "wal mapping has duplicates");
    // Per-batch flush: acknowledged ⇒ durable, no exceptions. (The
    // converse can be false — the kill may have eaten COMMITTED replies
    // for durable transactions; the oracle below covers those too.)
    for entry in &acked.mapping {
        assert!(
            durable.contains(entry),
            "txn {} (client {}, seq {}) was acknowledged COMMITTED but is not in the \
             durable log — the write-ahead invariant is broken",
            entry.0,
            entry.1,
            entry.2
        );
    }

    // --- phase 2: recover, serve more load, oracle the union -----------
    let (mut child2, _out2, addr2) =
        spawn_server(&["--recover", &wal_arg, "--wal-flush", "per-batch"]);
    let mut control = Client::connect(&addr2).expect("connect recovered server");
    control.set_read_timeout(Some(Duration::from_secs(10))).expect("timeout");
    let stats = control.stats().expect("stats");
    assert_eq!(
        json_number::<u64>(&stats, "txns_recovered").expect("txns_recovered in STATS"),
        wal_map.len() as u64,
        "recovered txn count must match the durable prefix: {stats}"
    );

    let phase2 = LoadConfig {
        addr: addr2.clone(),
        clients: 16,
        txns_per_client: 8,
        think_us: 0,
        clients_per_conn: 8,
        client_base: 1000, // disjoint global client ids from phase 1
        tolerate_disconnect: false,
        ..phase1.clone()
    };
    let post = run_load(&phase2).expect("post-recovery load");
    assert_eq!(post.commits, 16 * 8, "recovered server must serve a full clean run");

    // Union history over the wire: recovered accesses + phase-2 accesses,
    // one snapshot. The mapping unions the WAL-derived prefix (which
    // includes durable-but-unacked txns) with phase 2's acks; the oracle
    // rejects any gap or overlap in txn ids, so this also proves the
    // recovered server resumed the txn-id clock exactly.
    let (accesses, snapshot) = control.history().expect("history");
    let mut union = wal_map;
    union.extend_from_slice(&post.mapping);
    let report = oracle_check(&phase1, &union, &accesses, &snapshot)
        .expect("union of durable prefix and post-crash load must serialize");
    assert_eq!(report.txns, union.len());

    // Sanity: the regenerated programs behind the durable prefix are the
    // ones the driver actually submitted (same generator, same seed).
    let sample = union[0];
    let regen = client_programs(phase1.seed, phase1.entities, phase1.zipf_centi, sample.1, 1);
    assert!(!regen.is_empty());

    control.shutdown().expect("drain recovered server");
    child2.wait().expect("reap recovered server");
    let _ = std::fs::remove_dir_all(&wal);
}

#[test]
fn graceful_drain_is_durable_even_with_fsync_off() {
    let wal = temp_wal_dir("drain");

    // flush=off: no fsync during the run at all — durability rides
    // entirely on the drain protocol's final sync before SHUTDOWN_ACK.
    let durability = DurabilityConfig {
        dir: Some(wal.clone()),
        flush: FlushPolicy::Off,
        recover: false,
        ..DurabilityConfig::default()
    };
    let config = ServerConfig {
        entities: 32,
        threads: 2,
        batch_max: 8,
        batch_deadline: Duration::from_micros(500),
        durability,
        ..ServerConfig::default()
    };
    let server = Server::start(config.clone()).expect("start");
    let addr = server.local_addr().to_string();

    let load_cfg = LoadConfig {
        addr,
        clients: 16,
        txns_per_client: 4,
        entities: 32,
        zipf_centi: 120,
        think_us: 0,
        clients_per_conn: 8,
        seed: 9,
        ..LoadConfig::default()
    };
    let result = run_load(&load_cfg).expect("load");
    assert_eq!(result.commits, 16 * 4);

    let mut c = Client::connect(&load_cfg.addr).expect("connect");
    let (_, snapshot_before) = c.history().expect("history");
    let commits = c.shutdown().expect("drain");
    assert_eq!(commits, result.commits);
    server.wait().expect("clean shutdown");

    // Restart from the drained log: every acknowledged txn must be back.
    let recovered = Server::start(ServerConfig {
        durability: DurabilityConfig {
            dir: Some(wal.clone()),
            flush: FlushPolicy::Off,
            recover: true,
            ..DurabilityConfig::default()
        },
        ..config
    })
    .expect("recover");
    let summary = recovered.recovery().expect("recovery summary").clone();
    assert_eq!(summary.txns, result.commits, "drain lost acknowledged txns");
    assert!(!summary.torn_tail, "graceful drain must leave a clean tail");

    let mut c2 = Client::connect(&recovered.local_addr().to_string()).expect("connect");
    let (accesses, snapshot_after) = c2.history().expect("history");
    assert_eq!(snapshot_after, snapshot_before, "recovered state diverges from drained state");
    let report = oracle_check(&load_cfg, &result.mapping, &accesses, &snapshot_after)
        .expect("recovered history must still serialize");
    assert_eq!(report.txns, result.commits as usize);

    c2.shutdown().expect("drain again");
    recovered.wait().expect("clean shutdown");
    let _ = std::fs::remove_dir_all(&wal);
}

/// `HISTORY` on a database far beyond one frame: at 1<<20 entities the
/// snapshot alone is ~12 MiB, so it must be paged across chunks. The
/// paged dump must hold every entity with the committed values, and
/// a drain-then-recover must reproduce it exactly.
#[test]
fn million_entity_history_pages_and_survives_recovery() {
    const ENTITIES: u32 = 1 << 20;
    let wal = temp_wal_dir("million");
    let durability = |recover| DurabilityConfig {
        dir: Some(wal.clone()),
        recover,
        ..DurabilityConfig::default()
    };
    let config = ServerConfig {
        entities: ENTITIES,
        threads: 2,
        batch_deadline: Duration::from_micros(500),
        durability: durability(false),
        ..ServerConfig::default()
    };
    // A server that cannot answer HISTORY must fail the test, not hang it.
    let connect = |server: &Server| {
        let c = Client::connect(&server.local_addr().to_string()).expect("connect");
        c.set_read_timeout(Some(Duration::from_secs(120))).expect("timeout");
        c
    };
    let server = Server::start(config.clone()).expect("start");
    let mut c = connect(&server);
    let touched = [0, 1, ENTITIES / 2, ENTITIES - 1];
    for (delta, &entity) in touched.iter().enumerate() {
        let e = EntityId::new(entity);
        c.submit(vec![
            Op::LockExclusive(e),
            Op::Read { entity: e, into: VarId::new(0) },
            Op::Write {
                entity: e,
                expr: Expr::add(
                    Expr::Var(VarId::new(0)),
                    Expr::Const(Value::new(delta as i64 + 1)),
                ),
            },
            Op::Commit,
        ])
        .expect("submit");
    }
    for _ in touched {
        match c.recv().expect("recv").expect("decode") {
            Reply::Committed { .. } => {}
            other => panic!("expected Committed, got {other:?}"),
        }
    }

    let before = c.history().expect("history");
    assert_eq!(before.0.len(), touched.len(), "one access per single-entity txn");
    assert_eq!(before.1.len(), ENTITIES as usize, "the paged snapshot must hold every entity");
    for (i, &(e, v)) in before.1.iter().enumerate() {
        assert_eq!(e.raw(), i as u32, "snapshot pages arrive in id order");
        let want = match touched.iter().position(|&t| t == e.raw()) {
            Some(delta) => 100 + delta as i64 + 1,
            None => 100,
        };
        assert_eq!(v, want, "entity {i}");
    }
    assert_eq!(c.shutdown().expect("drain"), touched.len() as u64);
    server.wait().expect("clean shutdown");

    let recovered =
        Server::start(ServerConfig { durability: durability(true), ..config }).expect("recover");
    assert_eq!(recovered.recovery().expect("recovery summary").txns, touched.len() as u64);
    let mut c2 = connect(&recovered);
    let after = c2.history().expect("history after recovery");
    assert!(after == before, "HISTORY after recovery differs from before the drain");
    c2.shutdown().expect("drain again");
    recovered.wait().expect("clean shutdown");
    let _ = std::fs::remove_dir_all(&wal);
}
