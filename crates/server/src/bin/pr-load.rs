//! The pr-load binary: closed-loop multi-client load against a pr-server,
//! with the post-run serializability oracle, the committed bench grid,
//! the CI perf gate, the malformed-frame probe, and the nightly soak.
//!
//! ```text
//! cargo run -p pr-server --release --bin pr-load -- --clients 12288 --zipf 120
//! cargo run -p pr-server --release --bin pr-load -- --bench
//! cargo run -p pr-server --release --bin pr-load -- --gate-server BENCH_server.json
//! ```
//!
//! Exit codes: 0 success (run clean and oracle green, gate passed, probe
//! contract held), 1 failure, 2 usage error.

use pr_core::{GrantPolicy, LogHistogram, StrategyKind, SystemConfig, VictimPolicyKind};
use pr_model::Value;
use pr_par::{run_parallel, ParConfig};
use pr_server::load::oracle_check;
use pr_server::{Client, LoadConfig, LoadResult, Server, ServerConfig};
use pr_sim::generator::{GeneratorConfig, ProgramGenerator};
use pr_sim::oracle::OracleReport;
use pr_sim::report::{json_number, json_string};
use pr_storage::GlobalStore;
use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::{Duration, Instant};

const USAGE: &str = "\
usage: pr-load [MODE] [OPTIONS]
modes (default: drive one load cell and oracle-check it)
  --bench              run the committed bench grid, write BENCH_server.json
  --gate-server PATH   perf gate: calibrated live re-measure vs the committed grid
  --gate-durability PATH  durability gate: flush-policy rows + live per-batch re-measure
  --crash-soak N       seeded in-process crash-injection battery (N cases)
  --probe-malformed ADDR  malformed-frame protocol probe (exit 0 = contract held)
  --soak               extended randomized soak, multi-process, both policies
  --shutdown ADDR      drain a live server and report its commit count
  --child              internal: one process's share of a --procs run
options
  --connect ADDR       drive an already-running server instead of self-hosting
  --clients N          logical clients (default 512)
  --txns N             transactions per client (default 4)
  --entities N         entity universe size (default 256; must match the server)
  --init V             initial entity value (default 100; must match the server)
  --zipf CENTI         Zipf exponent x100 for entity skew (default 0)
  --think-us N         mean client think time, microseconds (default 500)
  --clients-per-conn N logical clients multiplexed per TCP connection (default 256)
  --seed N             workload seed (default 1)
  --client-base N      first global client id (child mode)
  --procs N            worker processes; >1 self-hosts and fans out (default 1)
  --policy NAME        self-hosted grant policy: barging | fair-queue | ordered
  --strategy NAME      self-hosted rollback strategy:
                       total | mcs | sdg | repair | bounded-K (default mcs)
  --threads N          self-hosted engine threads per batch (default 8)
  --batch-max N        self-hosted group-commit flush threshold (default 256)
  --batch-deadline-us N  self-hosted group-commit deadline (default 2000)
  --out PATH           bench output path (default BENCH_server.json)
  --no-oracle          skip the post-run serializability check
  --wal DIR            self-hosted server writes a redo log to DIR
  --wal-flush POLICY   fsync policy for --wal: per-batch | every-N | off";

enum Mode {
    Run,
    Bench,
    Gate(std::path::PathBuf),
    GateDurability(std::path::PathBuf),
    CrashSoak(usize),
    Probe(String),
    Soak,
    Shutdown(String),
    Child,
}

struct Options {
    mode: Mode,
    connect: Option<String>,
    load: LoadConfig,
    policy: GrantPolicy,
    strategy: StrategyKind,
    threads: usize,
    batch_max: usize,
    batch_deadline_us: u64,
    procs: usize,
    out: std::path::PathBuf,
    oracle: bool,
    durability: pr_server::DurabilityConfig,
}

fn parse_options(args: &[String]) -> Result<Options, String> {
    let mut o = Options {
        mode: Mode::Run,
        connect: None,
        load: LoadConfig::default(),
        policy: GrantPolicy::FairQueue,
        strategy: StrategyKind::Mcs,
        threads: 8,
        batch_max: 256,
        batch_deadline_us: 2_000,
        procs: 1,
        out: std::path::PathBuf::from("BENCH_server.json"),
        oracle: true,
        durability: pr_server::DurabilityConfig::default(),
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |name: &str| {
            it.next().map(String::as_str).ok_or_else(|| format!("{name} needs a value"))
        };
        match arg.as_str() {
            "--bench" => o.mode = Mode::Bench,
            "--gate-server" => o.mode = Mode::Gate(value("--gate-server")?.into()),
            "--gate-durability" => {
                o.mode = Mode::GateDurability(value("--gate-durability")?.into())
            }
            "--crash-soak" => {
                o.mode = Mode::CrashSoak(
                    value("--crash-soak")?.parse().map_err(|_| "--crash-soak needs a count")?,
                )
            }
            "--probe-malformed" => o.mode = Mode::Probe(value("--probe-malformed")?.into()),
            "--soak" => o.mode = Mode::Soak,
            "--shutdown" => o.mode = Mode::Shutdown(value("--shutdown")?.into()),
            "--child" => o.mode = Mode::Child,
            "--connect" => o.connect = Some(value("--connect")?.into()),
            "--clients" => {
                o.load.clients =
                    value("--clients")?.parse().map_err(|_| "--clients needs a count")?
            }
            "--txns" => {
                o.load.txns_per_client =
                    value("--txns")?.parse().map_err(|_| "--txns needs a count")?
            }
            "--entities" => {
                o.load.entities =
                    value("--entities")?.parse().map_err(|_| "--entities needs a count")?
            }
            "--init" => {
                o.load.init = value("--init")?.parse().map_err(|_| "--init needs an integer")?
            }
            "--zipf" => {
                o.load.zipf_centi =
                    value("--zipf")?.parse().map_err(|_| "--zipf needs centi-exponent")?
            }
            "--think-us" => {
                o.load.think_us =
                    value("--think-us")?.parse().map_err(|_| "--think-us needs microseconds")?
            }
            "--clients-per-conn" => {
                o.load.clients_per_conn = value("--clients-per-conn")?
                    .parse()
                    .map_err(|_| "--clients-per-conn needs a count")?
            }
            "--seed" => o.load.seed = value("--seed")?.parse().map_err(|_| "--seed needs a u64")?,
            "--client-base" => {
                o.load.client_base =
                    value("--client-base")?.parse().map_err(|_| "--client-base needs a count")?
            }
            "--procs" => {
                o.procs = value("--procs")?.parse().map_err(|_| "--procs needs a count")?
            }
            "--policy" => {
                o.policy = match value("--policy")? {
                    "barging" => GrantPolicy::Barging,
                    "fair-queue" => GrantPolicy::FairQueue,
                    "ordered" => GrantPolicy::Ordered,
                    other => return Err(format!("unknown grant policy {other:?}")),
                }
            }
            "--strategy" => {
                let name = value("--strategy")?;
                o.strategy = StrategyKind::parse(name)
                    .ok_or_else(|| format!("unknown strategy {name:?}"))?;
            }
            "--threads" => {
                o.threads = value("--threads")?.parse().map_err(|_| "--threads needs a count")?
            }
            "--batch-max" => {
                o.batch_max =
                    value("--batch-max")?.parse().map_err(|_| "--batch-max needs a count")?
            }
            "--batch-deadline-us" => {
                o.batch_deadline_us = value("--batch-deadline-us")?
                    .parse()
                    .map_err(|_| "--batch-deadline-us needs microseconds")?
            }
            "--out" => o.out = value("--out")?.into(),
            "--no-oracle" => o.oracle = false,
            "--wal" => o.durability.dir = Some(value("--wal")?.into()),
            "--wal-flush" => o.durability.flush = value("--wal-flush")?.parse()?,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if o.procs == 0 {
        return Err("--procs needs at least 1".into());
    }
    Ok(o)
}

fn server_config(o: &Options) -> ServerConfig {
    let mut system = SystemConfig::new(o.strategy, VictimPolicyKind::PartialOrder);
    system.grant_policy = o.policy;
    ServerConfig {
        addr: "127.0.0.1:0".into(),
        entities: o.load.entities,
        init: o.load.init,
        threads: o.threads,
        shards: 0,
        system,
        fast_path: true,
        batch_max: o.batch_max,
        batch_deadline: Duration::from_micros(o.batch_deadline_us),
        durability: o.durability.clone(),
    }
}

/// Fans the client range out over `procs` child processes (re-exec of
/// this binary in `--child` mode) and merges their results. Children
/// report their commit mapping and histogram raw parts over stdout —
/// compact, and enough for the parent to run the oracle.
fn run_multiproc(cfg: &LoadConfig, procs: usize) -> Result<LoadResult, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let share = cfg.clients.div_ceil(procs);
    let mut children = Vec::new();
    let mut first = 0usize;
    while first < cfg.clients {
        let count = share.min(cfg.clients - first);
        let child = std::process::Command::new(&exe)
            .args([
                "--child".to_string(),
                "--connect".to_string(),
                cfg.addr.clone(),
                "--clients".to_string(),
                count.to_string(),
                "--client-base".to_string(),
                (cfg.client_base + first).to_string(),
                "--txns".to_string(),
                cfg.txns_per_client.to_string(),
                "--entities".to_string(),
                cfg.entities.to_string(),
                "--init".to_string(),
                cfg.init.to_string(),
                "--zipf".to_string(),
                cfg.zipf_centi.to_string(),
                "--think-us".to_string(),
                cfg.think_us.to_string(),
                "--clients-per-conn".to_string(),
                cfg.clients_per_conn.to_string(),
                "--seed".to_string(),
                cfg.seed.to_string(),
            ])
            .stdout(std::process::Stdio::piped())
            .spawn()
            .map_err(|e| format!("spawn child: {e}"))?;
        children.push(child);
        first += count;
    }
    let mut merged = LoadResult::default();
    for child in children {
        let out = child.wait_with_output().map_err(|e| format!("child wait: {e}"))?;
        if !out.status.success() {
            return Err(format!("child exited with {}", out.status));
        }
        let text = String::from_utf8_lossy(&out.stdout);
        merged.merge(&parse_child_output(&text)?);
    }
    Ok(merged)
}

/// Serialises one child's result for the parent: the commit mapping (one
/// line per commit) and a single summary line carrying the histogram's
/// raw parts.
fn print_child_result(result: &LoadResult) {
    let mut out = String::new();
    for &(txn, g, seq) in &result.mapping {
        let _ = writeln!(out, "map {txn} {g} {seq}");
    }
    let buckets: Vec<String> = result.latency.bucket_counts().iter().map(u64::to_string).collect();
    let _ = writeln!(
        out,
        "child-result commits={} aborted={} elapsed_us={} hist_sum={} hist_max={} hist_buckets={}",
        result.commits,
        result.aborted,
        result.elapsed.as_micros(),
        result.latency.sum(),
        result.latency.max(),
        buckets.join(",")
    );
    print!("{out}");
}

fn kv_field<'a>(line: &'a str, key: &str) -> Result<&'a str, String> {
    let pat = format!("{key}=");
    let at = line.find(&pat).ok_or_else(|| format!("child result missing {key}"))? + pat.len();
    let rest = &line[at..];
    Ok(rest.split_whitespace().next().unwrap_or(rest))
}

fn parse_child_output(text: &str) -> Result<LoadResult, String> {
    let mut result = LoadResult::default();
    let mut summarised = false;
    for line in text.lines() {
        if let Some(rest) = line.strip_prefix("map ") {
            let mut it = rest.split_whitespace();
            let mut next = || {
                it.next()
                    .and_then(|t| t.parse::<u32>().ok())
                    .ok_or_else(|| format!("malformed map line: {line}"))
            };
            let (txn, g, seq) = (next()?, next()?, next()?);
            result.mapping.push((txn, g, seq));
        } else if line.starts_with("child-result ") {
            let int = |key: &str| -> Result<u64, String> {
                kv_field(line, key)?.parse().map_err(|_| format!("bad {key} in child result"))
            };
            result.commits = int("commits")?;
            result.aborted = int("aborted")?;
            result.elapsed = Duration::from_micros(int("elapsed_us")?);
            let sum = int("hist_sum")?;
            let max = int("hist_max")?;
            let buckets: Vec<u64> = kv_field(line, "hist_buckets")?
                .split(',')
                .map(|t| t.parse().map_err(|_| "bad hist bucket".to_string()))
                .collect::<Result<_, _>>()?;
            result.latency = LogHistogram::from_raw_parts(buckets, sum, max);
            summarised = true;
        }
    }
    if !summarised {
        return Err("child produced no result line".into());
    }
    Ok(result)
}

/// What one fully checked cell produced, bench-row shaped.
struct CellOutcome {
    result: LoadResult,
    report: Option<OracleReport>,
    batches: u64,
}

/// Drives one cell end to end: self-host (or connect), run the closed
/// loop, fetch the history, run the oracle, and — when self-hosted —
/// drain the server and assert quiescence.
fn run_cell(o: &Options) -> Result<CellOutcome, String> {
    let mut cfg = o.load.clone();
    let server = match &o.connect {
        Some(addr) => {
            cfg.addr = addr.clone();
            None
        }
        None => {
            let server =
                Server::start(server_config(o)).map_err(|e| format!("server start: {e}"))?;
            cfg.addr = server.local_addr().to_string();
            Some(server)
        }
    };

    let result =
        if o.procs > 1 { run_multiproc(&cfg, o.procs)? } else { pr_server::run_load(&cfg)? };

    let mut ctl = Client::connect(&cfg.addr).map_err(|e| format!("control connect: {e}"))?;
    let report = if o.oracle {
        let (accesses, snapshot) = ctl.history().map_err(|e| format!("history fetch: {e}"))?;
        Some(oracle_check(&cfg, &result.mapping, &accesses, &snapshot)?)
    } else {
        None
    };

    let mut batches = 0;
    if let Some(server) = server {
        let commits = ctl.shutdown().map_err(|e| format!("shutdown: {e}"))?;
        if commits != result.commits {
            return Err(format!(
                "server acked {commits} commits but the driver saw {}",
                result.commits
            ));
        }
        let summary = server.wait().map_err(|e| format!("server drain: {e}"))?;
        batches = summary.batches;
    }
    Ok(CellOutcome { result, report, batches })
}

fn print_cell(o: &Options, cell: &CellOutcome) {
    let r = &cell.result;
    println!(
        "pr-load: {} clients zipf {:.2} policy {}: {} commits, {} aborted in {:.2}s \
         ({:.0} tx/s) latency p50={}us p95={}us p99={}us{}{}",
        o.load.clients,
        f64::from(o.load.zipf_centi) / 100.0,
        o.policy.name(),
        r.commits,
        r.aborted,
        r.elapsed.as_secs_f64(),
        r.throughput(),
        r.latency.p50(),
        r.latency.p95(),
        r.latency.p99(),
        match &cell.report {
            Some(rep) => format!(
                ", oracle green ({} accesses, {} conflict edges)",
                rep.accesses, rep.conflict_edges
            ),
            None => String::new(),
        },
        if cell.batches > 0 { format!(", {} batches", cell.batches) } else { String::new() },
    );
}

fn run_default(o: &Options) -> ExitCode {
    match run_cell(o) {
        Ok(cell) => {
            print_cell(o, &cell);
            let expected = (o.load.clients * o.load.txns_per_client) as u64;
            if cell.result.commits != expected {
                eprintln!(
                    "pr-load: expected {expected} commits, saw {} ({} aborted)",
                    cell.result.commits, cell.result.aborted
                );
                return ExitCode::FAILURE;
            }
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("pr-load: {e}");
            ExitCode::FAILURE
        }
    }
}

// ---------------------------------------------------------------------------
// Bench grid
// ---------------------------------------------------------------------------

/// `(clients, zipf_centi, policy, txns_per_client, clients_per_conn,
/// wal)` — the committed grid. The 12288-client cell is the ISSUE's 10k+
/// bar; it multiplexes wider so connection count stays modest. The last
/// three cells hold the workload fixed and sweep the durability axis:
/// `per-batch` fsyncs once per group commit, `every-8` amortises further,
/// and `per-txn` (batch_max 1, fsync each) is the degenerate ungrouped
/// baseline group commit exists to beat.
const BENCH_CELLS: &[(usize, u16, &str, usize, usize, &str)] = &[
    (512, 0, "fair-queue", 4, 256, "off"),
    (512, 120, "fair-queue", 4, 256, "off"),
    (4096, 0, "fair-queue", 4, 256, "off"),
    (4096, 120, "fair-queue", 4, 256, "off"),
    (12288, 120, "fair-queue", 2, 1024, "off"),
    (512, 120, "ordered", 4, 256, "off"),
    (512, 120, "fair-queue", 4, 256, "per-batch"),
    (512, 120, "fair-queue", 4, 256, "every-8"),
    (512, 120, "fair-queue", 4, 256, "per-txn"),
];

/// Scratch WAL directory for one bench cell (unique per process + cell,
/// removed around each run so stale segments never replay into a bench).
fn bench_wal_dir(wal: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("pr-load-bench-wal-{}-{wal}", std::process::id()))
}

struct BenchRow {
    clients: usize,
    zipf_centi: u16,
    policy: String,
    wal: String,
    txns: u64,
    commits: u64,
    elapsed_us: u128,
    throughput: f64,
    p50_us: u64,
    p95_us: u64,
    p99_us: u64,
    batches: u64,
    oracle_accesses: usize,
    conflict_edges: usize,
}

/// A fixed in-process engine workload whose throughput calibrates this
/// machine against the one that committed the grid: the gate compares
/// server numbers only after normalising by the calibration ratio, so a
/// slower CI box does not read as a regression.
fn calibrate() -> Result<f64, String> {
    // Single-threaded on purpose: an oversubscribed multi-thread run
    // carries scheduler noise larger than the machine-speed signal the
    // calibration exists to capture.
    let config = ParConfig {
        threads: 1,
        shards: 0,
        system: SystemConfig::new(StrategyKind::Mcs, VictimPolicyKind::PartialOrder),
        fast_path: true,
    };
    let gen_config =
        GeneratorConfig { num_entities: 64, skew_centi: 120, ..GeneratorConfig::default() };
    let mut best = 0.0f64;
    for attempt in 0..5u64 {
        let programs = ProgramGenerator::new(gen_config, 7 + attempt).generate_workload(256);
        let store = GlobalStore::with_entities(64, Value::new(100));
        let start = Instant::now();
        let outcome =
            run_parallel(&programs, store, &config).map_err(|e| format!("calibration: {e}"))?;
        let secs = start.elapsed().as_secs_f64();
        if secs > 0.0 {
            best = best.max(outcome.commits() as f64 / secs);
        }
    }
    if best <= 0.0 {
        return Err("calibration produced zero throughput".into());
    }
    Ok(best)
}

fn cell_options(o: &Options, cell: &(usize, u16, &str, usize, usize, &str)) -> Options {
    let &(clients, zipf, policy, txns, per_conn, wal) = cell;
    // The durability axis: "off" disables the journal; "per-txn" is
    // per-batch flushing with group commit disabled (every transaction
    // its own batch and fsync) — the baseline the amortised cells beat.
    let (durability, batch_max) = match wal {
        "off" => (pr_server::DurabilityConfig::default(), o.batch_max),
        _ => {
            let flush = match wal {
                "per-txn" => "per-batch",
                other => other,
            };
            let durability = pr_server::DurabilityConfig {
                dir: Some(bench_wal_dir(wal)),
                flush: flush.parse().expect("bench wal cells carry valid policies"),
                ..pr_server::DurabilityConfig::default()
            };
            (durability, if wal == "per-txn" { 1 } else { o.batch_max })
        }
    };
    Options {
        mode: Mode::Run,
        connect: None,
        load: LoadConfig {
            clients,
            zipf_centi: zipf,
            txns_per_client: txns,
            clients_per_conn: per_conn,
            ..o.load.clone()
        },
        policy: match policy {
            "ordered" => GrantPolicy::Ordered,
            "barging" => GrantPolicy::Barging,
            _ => GrantPolicy::FairQueue,
        },
        strategy: o.strategy,
        threads: o.threads,
        batch_max,
        batch_deadline_us: o.batch_deadline_us,
        procs: 1,
        out: o.out.clone(),
        oracle: true,
        durability,
    }
}

fn bench_row(o: &Options, cell: &CellOutcome, wal: &str) -> BenchRow {
    let r = &cell.result;
    let report = cell.report.as_ref();
    BenchRow {
        clients: o.load.clients,
        zipf_centi: o.load.zipf_centi,
        policy: o.policy.name().to_string(),
        wal: wal.to_string(),
        txns: (o.load.clients * o.load.txns_per_client) as u64,
        commits: r.commits,
        elapsed_us: r.elapsed.as_micros(),
        throughput: r.throughput(),
        p50_us: r.latency.p50(),
        p95_us: r.latency.p95(),
        p99_us: r.latency.p99(),
        batches: cell.batches,
        oracle_accesses: report.map_or(0, |rep| rep.accesses),
        conflict_edges: report.map_or(0, |rep| rep.conflict_edges),
    }
}

/// Serialises the grid as `BENCH_server.json` (hand-rolled JSON, same
/// discipline as `BENCH_parallel.json`: static keys, numeric values, one
/// row per line so the gate can scrape lines).
fn server_json(calib: f64, rows: &[BenchRow]) -> String {
    let mut out = String::from(
        "{\n  \"schema\": \"bench-server-v1\",\n  \"units\": {\
         \"throughput\": \"committed transactions per second, wall clock\", \
         \"latency\": \"end-to-end submit-to-reply, microseconds\", \
         \"calib_throughput\": \"fixed in-process engine workload, tx/s\"},\n",
    );
    let _ = writeln!(out, "  \"calib_throughput\": {calib:.1},");
    out.push_str("  \"rows\": [\n");
    for (i, r) in rows.iter().enumerate() {
        let _ = writeln!(
            out,
            "    {{\"clients\":{},\"zipf_centi\":{},\"policy\":\"{}\",\"wal\":\"{}\",\
             \"txns\":{},\"commits\":{},\"elapsed_us\":{},\
             \"throughput\":{:.1},\"p50_us\":{},\"p95_us\":{},\"p99_us\":{},\
             \"batches\":{},\"oracle_accesses\":{},\"conflict_edges\":{}}}{}",
            r.clients,
            r.zipf_centi,
            r.policy,
            r.wal,
            r.txns,
            r.commits,
            r.elapsed_us,
            r.throughput,
            r.p50_us,
            r.p95_us,
            r.p99_us,
            r.batches,
            r.oracle_accesses,
            r.conflict_edges,
            if i + 1 == rows.len() { "" } else { "," }
        );
    }
    out.push_str("  ]\n}\n");
    out
}

fn run_bench(o: &Options) -> ExitCode {
    let calib = match calibrate() {
        Ok(c) => c,
        Err(e) => {
            eprintln!("pr-load: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!("pr-load: calibration {calib:.0} tx/s (fixed in-process workload)");
    let mut rows = Vec::new();
    for cell in BENCH_CELLS {
        let wal = cell.5;
        if wal != "off" {
            let _ = std::fs::remove_dir_all(bench_wal_dir(wal));
        }
        let cell_o = cell_options(o, cell);
        let outcome = run_cell(&cell_o);
        if wal != "off" {
            let _ = std::fs::remove_dir_all(bench_wal_dir(wal));
        }
        match outcome {
            Ok(out) => {
                print_cell(&cell_o, &out);
                let expected = (cell_o.load.clients * cell_o.load.txns_per_client) as u64;
                if out.result.commits != expected {
                    eprintln!(
                        "pr-load: bench cell lost transactions: expected {expected}, \
                         committed {} ({} aborted)",
                        out.result.commits, out.result.aborted
                    );
                    return ExitCode::FAILURE;
                }
                rows.push(bench_row(&cell_o, &out, wal));
            }
            Err(e) => {
                eprintln!("pr-load: bench cell failed: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    if let Err(e) = std::fs::write(&o.out, server_json(calib, &rows)) {
        eprintln!("pr-load: cannot write {}: {e}", o.out.display());
        return ExitCode::FAILURE;
    }
    println!("wrote {} ({} rows, all oracle-checked)", o.out.display(), rows.len());
    ExitCode::SUCCESS
}

// ---------------------------------------------------------------------------
// Perf gate
// ---------------------------------------------------------------------------

/// The server perf gate: re-measure the committed 4096-client / zipf 1.2
/// / fair-queue cell live and fail on >20% calibrated regression in
/// throughput or p99. Calibration (a fixed in-process engine workload on
/// both sides) normalises out machine speed, so the bar tracks the
/// server stack itself — framing, batching, group commit — not the CI
/// box of the day.
fn run_gate(o: &Options, path: &std::path::Path) -> ExitCode {
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("pr-load: cannot read {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
    };
    // Line-by-line: the units stanza also mentions the key (with a
    // string value that fails to parse), so scan for the numeric line.
    let Some(committed_calib) =
        text.lines().find_map(|l| json_number::<f64>(l, "calib_throughput")).filter(|c| *c > 0.0)
    else {
        eprintln!("pr-load: no calib_throughput in {}", path.display());
        return ExitCode::FAILURE;
    };
    let gate_cell = &BENCH_CELLS[3]; // 4096 clients, zipf 1.2, fair-queue, wal off
    let committed = text.lines().find(|l| {
        json_number(l, "clients") == Some(gate_cell.0)
            && json_number(l, "zipf_centi") == Some(gate_cell.1)
            && json_string(l, "policy").as_deref() == Some(gate_cell.2)
            && json_string(l, "wal").as_deref() == Some(gate_cell.5)
    });
    let Some(committed) = committed else {
        eprintln!("pr-load: gate cell not found in {}", path.display());
        return ExitCode::FAILURE;
    };
    let (Some(committed_thr), Some(committed_p99)) =
        (json_number::<f64>(committed, "throughput"), json_number::<f64>(committed, "p99_us"))
    else {
        eprintln!("pr-load: malformed gate row in {}", path.display());
        return ExitCode::FAILURE;
    };

    let live_calib = match calibrate() {
        Ok(c) => c,
        Err(e) => {
            eprintln!("pr-load: {e}");
            return ExitCode::FAILURE;
        }
    };
    // scale < 1 means this machine is slower than the one that committed
    // the grid: expect proportionally less throughput and more latency.
    // Clamped to at most 1.0 — a faster (or noisily fast-reading) box
    // must never *raise* the bars above the committed numbers — and to
    // at least 0.25 so a bogus near-zero calibration can't wave a real
    // regression through.
    let scale = (live_calib / committed_calib).clamp(0.25, 1.0);
    let need_thr = 0.8 * committed_thr * scale;
    let allow_p99 = 1.2 * committed_p99 / scale;

    // Two attempts, pass on either: single-run server cells on a shared
    // box carry scheduler noise the calibration cannot see.
    let mut last = String::new();
    for attempt in 1..=2 {
        let cell_o = cell_options(o, gate_cell);
        let cell = match run_cell(&cell_o) {
            Ok(c) => c,
            Err(e) => {
                eprintln!("pr-load: gate cell failed: {e}");
                return ExitCode::FAILURE;
            }
        };
        let thr = cell.result.throughput();
        let p99 = cell.result.latency.p99() as f64;
        if thr >= need_thr && p99 <= allow_p99 {
            println!(
                "server gate passed (attempt {attempt}): {thr:.0} tx/s >= {need_thr:.0} \
                 and p99 {p99:.0}us <= {allow_p99:.0}us \
                 (committed {committed_thr:.0} tx/s / {committed_p99:.0}us, \
                 calibration scale {scale:.2})"
            );
            return ExitCode::SUCCESS;
        }
        last = format!(
            "{thr:.0} tx/s (need >= {need_thr:.0}), p99 {p99:.0}us (allow <= {allow_p99:.0}us)"
        );
        eprintln!("pr-load: gate attempt {attempt} outside bars: {last}");
    }
    eprintln!(
        "pr-load: SERVER GATE: live cell regressed vs committed grid \
         (committed {committed_thr:.0} tx/s / p99 {committed_p99:.0}us, \
         calibration scale {scale:.2}, live {last})"
    );
    ExitCode::FAILURE
}

// ---------------------------------------------------------------------------
// Durability gate
// ---------------------------------------------------------------------------

/// The durability arm of the perf gate. Two checks against the committed
/// grid's flush-policy cells (512 clients / zipf 1.2 / fair-queue):
///
/// 1. **Amortisation holds in the committed numbers**: the `per-batch`
///    cell (one fsync per group commit) must out-run the `per-txn` cell
///    (group commit disabled, one fsync per transaction). If it doesn't,
///    group commit stopped paying for itself and the grid must not be
///    committed.
/// 2. **The journalled path hasn't regressed**: re-measure the
///    `per-batch` cell live with the same calibrated bars the server
///    gate uses (≥80% throughput, ≤120% p99 after machine-speed
///    normalisation, best of two attempts).
fn run_gate_durability(o: &Options, path: &std::path::Path) -> ExitCode {
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("pr-load: cannot read {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
    };
    let find_row = |wal: &str| {
        text.lines().find(|l| {
            json_number(l, "clients") == Some(512)
                && json_number(l, "zipf_centi") == Some(120)
                && json_string(l, "policy").as_deref() == Some("fair-queue")
                && json_string(l, "wal").as_deref() == Some(wal)
        })
    };
    let (Some(per_batch), Some(per_txn)) = (find_row("per-batch"), find_row("per-txn")) else {
        eprintln!(
            "pr-load: durability rows (wal per-batch / per-txn) not found in {}",
            path.display()
        );
        return ExitCode::FAILURE;
    };
    let (Some(pb_thr), Some(pb_p99), Some(pt_thr)) = (
        json_number::<f64>(per_batch, "throughput"),
        json_number::<f64>(per_batch, "p99_us"),
        json_number::<f64>(per_txn, "throughput"),
    ) else {
        eprintln!("pr-load: malformed durability rows in {}", path.display());
        return ExitCode::FAILURE;
    };
    if pb_thr <= pt_thr {
        eprintln!(
            "pr-load: DURABILITY GATE: group commit is not amortising fsyncs — \
             committed per-batch {pb_thr:.0} tx/s <= per-txn {pt_thr:.0} tx/s"
        );
        return ExitCode::FAILURE;
    }
    println!(
        "durability grid sane: per-batch {pb_thr:.0} tx/s > per-txn {pt_thr:.0} tx/s \
         ({:.1}x fsync amortisation)",
        pb_thr / pt_thr
    );

    let Some(committed_calib) =
        text.lines().find_map(|l| json_number::<f64>(l, "calib_throughput")).filter(|c| *c > 0.0)
    else {
        eprintln!("pr-load: no calib_throughput in {}", path.display());
        return ExitCode::FAILURE;
    };
    let live_calib = match calibrate() {
        Ok(c) => c,
        Err(e) => {
            eprintln!("pr-load: {e}");
            return ExitCode::FAILURE;
        }
    };
    let scale = (live_calib / committed_calib).clamp(0.25, 1.0);
    let need_thr = 0.8 * pb_thr * scale;
    let allow_p99 = 1.2 * pb_p99 / scale;
    let gate_cell = &BENCH_CELLS[6]; // 512 clients, zipf 1.2, fair-queue, per-batch
    let mut last = String::new();
    for attempt in 1..=2 {
        let _ = std::fs::remove_dir_all(bench_wal_dir(gate_cell.5));
        let cell_o = cell_options(o, gate_cell);
        let cell = run_cell(&cell_o);
        let _ = std::fs::remove_dir_all(bench_wal_dir(gate_cell.5));
        let cell = match cell {
            Ok(c) => c,
            Err(e) => {
                eprintln!("pr-load: durability gate cell failed: {e}");
                return ExitCode::FAILURE;
            }
        };
        let thr = cell.result.throughput();
        let p99 = cell.result.latency.p99() as f64;
        if thr >= need_thr && p99 <= allow_p99 {
            println!(
                "durability gate passed (attempt {attempt}): per-batch {thr:.0} tx/s >= \
                 {need_thr:.0} and p99 {p99:.0}us <= {allow_p99:.0}us \
                 (committed {pb_thr:.0} tx/s / {pb_p99:.0}us, calibration scale {scale:.2})"
            );
            return ExitCode::SUCCESS;
        }
        last = format!(
            "{thr:.0} tx/s (need >= {need_thr:.0}), p99 {p99:.0}us (allow <= {allow_p99:.0}us)"
        );
        eprintln!("pr-load: durability gate attempt {attempt} outside bars: {last}");
    }
    eprintln!(
        "pr-load: DURABILITY GATE: journalled per-batch cell regressed vs committed grid \
         (committed {pb_thr:.0} tx/s / p99 {pb_p99:.0}us, calibration scale {scale:.2}, \
         live {last})"
    );
    ExitCode::FAILURE
}

// ---------------------------------------------------------------------------
// Crash soak
// ---------------------------------------------------------------------------

/// The nightly crash-injection battery: `cases` seeded in-process crash
/// points over the [`pr_server::crashsim`] harness, sweeping flush
/// policy, grant policy, engine threads, page-cache-loss mode, and the
/// crash byte offset. Every case asserts the full durability contract
/// (acknowledged ⇒ replayed within the policy's loss window,
/// all-or-nothing recovery, idempotent replay). A failure writes its
/// reproduction recipe to `crash-soak-failure.txt` for artifact upload.
fn run_crash_soak(o: &Options, cases: usize) -> ExitCode {
    use pr_server::crashsim::{check_crash_case, run_to_crash, SimConfig};
    use pr_storage::wal::MemDir;

    let start = Instant::now();
    let mut crashed = 0usize;
    let mut completed = 0usize;
    for i in 0..cases {
        let seed = o.load.seed.wrapping_add(i as u64);
        let flush =
            ["per-batch", "every-4", "off"][i % 3].parse().expect("soak flush policies are valid");
        let mut system = SystemConfig::new(o.strategy, VictimPolicyKind::PartialOrder);
        system.grant_policy = [GrantPolicy::FairQueue, GrantPolicy::Ordered][(i / 3) % 2];
        let lose_unsynced = (i / 6) % 2 == 1;
        let cfg = SimConfig { seed, flush, system, threads: 1 + i % 2, ..SimConfig::default() };

        // A dry run of the same case shape tells us how many bytes the
        // log grows to, so the seeded crash budget always lands inside
        // (or just past — the run-to-completion case) the real log.
        let fail = |why: String| {
            let body = format!(
                "pr-load crash-soak failure\ncase: {i}\nseed: {seed}\nflush: {flush}\n\
                 policy: {}\nthreads: {}\nlose_unsynced: {lose_unsynced}\nreason: {why}\n\
                 replay: pr-load --crash-soak {} --seed {}\n",
                system.grant_policy.name(),
                1 + i % 2,
                i + 1,
                o.load.seed,
            );
            let path = "crash-soak-failure.txt";
            if std::fs::write(path, &body).is_ok() {
                eprintln!("pr-load: wrote failing case to {path}");
            }
            eprintln!("pr-load: CRASH SOAK FAILED (case {i}): {why}");
            ExitCode::FAILURE
        };
        let dry = MemDir::new();
        if let Err(e) = run_to_crash(&cfg, &dry) {
            return fail(format!("dry run: {e}"));
        }
        let total = dry.persisted_bytes().max(1);
        let budget =
            1 + seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).rotate_left(17) % (total + total / 8);
        match check_crash_case(&cfg, budget, lose_unsynced) {
            Ok(v) if v.crashed => crashed += 1,
            Ok(_) => completed += 1,
            Err(e) => return fail(e),
        }
        if (i + 1) % 32 == 0 {
            println!(
                "crash soak: {}/{cases} cases green ({crashed} crashed, {completed} complete)",
                i + 1
            );
        }
    }
    println!(
        "crash soak passed: {cases} cases green ({crashed} crashed mid-log, {completed} ran \
         to drain) in {:.1}s",
        start.elapsed().as_secs_f64()
    );
    ExitCode::SUCCESS
}

// ---------------------------------------------------------------------------
// Malformed-frame probe
// ---------------------------------------------------------------------------

fn expect_error_and_close(c: &mut Client, want_code: u8, what: &str) -> Result<(), String> {
    match c.recv() {
        Ok(Ok(pr_server::Reply::Error { code, message })) if code == want_code => {
            println!("  {what}: rejected with protocol error {code} ({message})");
        }
        other => return Err(format!("{what}: expected error {want_code}, got {other:?}")),
    }
    // The server must close after a protocol error; a subsequent read
    // sees EOF, not a hang.
    match c.recv() {
        Err(e) if e.kind() == std::io::ErrorKind::UnexpectedEof => Ok(()),
        other => Err(format!("{what}: expected connection close, got {other:?}")),
    }
}

/// Exercises the malformed-input contract against a live server: each
/// probe must draw a typed protocol error (or a clean close), never a
/// hang, and the server must keep serving fresh connections afterwards.
fn run_probe(addr: &str) -> ExitCode {
    let result = (|| -> Result<(), String> {
        let timeout = Some(Duration::from_secs(5));

        // 1. Oversized declaration: 4-byte prefix claiming 2 MiB.
        let mut c = Client::connect(addr).map_err(|e| format!("connect: {e}"))?;
        c.set_read_timeout(timeout).map_err(|e| e.to_string())?;
        c.send_raw(&(2u32 * 1024 * 1024).to_le_bytes()).map_err(|e| e.to_string())?;
        expect_error_and_close(&mut c, 1, "oversized frame")?;

        // 2. Garbage tag inside a well-formed frame.
        let mut c = Client::connect(addr).map_err(|e| format!("connect: {e}"))?;
        c.set_read_timeout(timeout).map_err(|e| e.to_string())?;
        c.send_raw(&[1, 0, 0, 0, 0xEE]).map_err(|e| e.to_string())?;
        expect_error_and_close(&mut c, 2, "garbage tag")?;

        // 3. Truncated frame then half-close: the server must treat the
        // EOF as a clean disconnect (no reply, no hang, no crash).
        let mut c = Client::connect(addr).map_err(|e| format!("connect: {e}"))?;
        c.set_read_timeout(timeout).map_err(|e| e.to_string())?;
        c.send_raw(&[16, 0, 0, 0, 0x01, 0x02, 0x03]).map_err(|e| e.to_string())?;
        c.shutdown_write().map_err(|e| e.to_string())?;
        match c.recv() {
            Err(e) if e.kind() == std::io::ErrorKind::UnexpectedEof => {
                println!("  truncated frame: clean close, no reply");
            }
            other => return Err(format!("truncated frame: expected close, got {other:?}")),
        }

        // 4. The server survived all of it: a fresh connection still
        // answers STATS.
        let mut c = Client::connect(addr).map_err(|e| format!("connect: {e}"))?;
        c.set_read_timeout(timeout).map_err(|e| e.to_string())?;
        let stats = c.stats().map_err(|e| format!("post-probe stats: {e}"))?;
        if !stats.contains("\"protocol_errors\"") {
            return Err(format!("post-probe stats reply malformed: {stats}"));
        }
        println!("  server still serving after probes (stats OK)");
        Ok(())
    })();
    match result {
        Ok(()) => {
            println!("malformed-frame probe passed: all rejections typed, no hangs");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("pr-load: PROBE FAILED: {e}");
            ExitCode::FAILURE
        }
    }
}

// ---------------------------------------------------------------------------
// Soak
// ---------------------------------------------------------------------------

/// The nightly soak: the 10k+-client cell under both grant policies,
/// multi-process, fully oracle-checked. A failure writes the cell's
/// reproduction recipe to `soak-failure-<policy>.txt` for CI artifact
/// upload.
fn run_soak(o: &Options) -> ExitCode {
    let start = Instant::now();
    for policy in [GrantPolicy::FairQueue, GrantPolicy::Ordered] {
        let cell_o = Options {
            mode: Mode::Run,
            connect: None,
            load: LoadConfig {
                clients: 12_288,
                txns_per_client: 2,
                zipf_centi: 120,
                clients_per_conn: 1024,
                ..o.load.clone()
            },
            policy,
            strategy: o.strategy,
            threads: o.threads,
            batch_max: o.batch_max,
            batch_deadline_us: o.batch_deadline_us,
            procs: o.procs.max(2),
            out: o.out.clone(),
            oracle: true,
            durability: o.durability.clone(),
        };
        match run_cell(&cell_o) {
            Ok(cell) => {
                print_cell(&cell_o, &cell);
                let expected = (cell_o.load.clients * cell_o.load.txns_per_client) as u64;
                if cell.result.commits == expected {
                    continue;
                }
                let why = format!(
                    "expected {expected} commits, saw {} ({} aborted)",
                    cell.result.commits, cell.result.aborted
                );
                write_soak_trace(&cell_o, &why);
                eprintln!("pr-load: SOAK FAILED ({}): {why}", policy.name());
                return ExitCode::FAILURE;
            }
            Err(e) => {
                write_soak_trace(&cell_o, &e);
                eprintln!("pr-load: SOAK FAILED ({}): {e}", policy.name());
                return ExitCode::FAILURE;
            }
        }
    }
    println!("soak passed: both policies clean in {:.1}s", start.elapsed().as_secs_f64());
    ExitCode::SUCCESS
}

/// Everything needed to replay a failed soak cell by hand: the workload
/// is regenerable from (seed, entities, zipf, txns), so the recipe IS
/// the trace.
fn write_soak_trace(o: &Options, why: &str) {
    let path = format!("soak-failure-{}.txt", o.policy.name());
    let body = format!(
        "pr-load soak failure\n\
         reason: {why}\n\
         policy: {}\nclients: {}\ntxns_per_client: {}\nentities: {}\ninit: {}\n\
         zipf_centi: {}\nthink_us: {}\nclients_per_conn: {}\nseed: {}\nprocs: {}\n\
         threads: {}\nbatch_max: {}\nbatch_deadline_us: {}\n\
         replay: pr-load --clients {} --txns {} --entities {} --zipf {} --seed {} \
         --policy {} --procs {}\n",
        o.policy.name(),
        o.load.clients,
        o.load.txns_per_client,
        o.load.entities,
        o.load.init,
        o.load.zipf_centi,
        o.load.think_us,
        o.load.clients_per_conn,
        o.load.seed,
        o.procs,
        o.threads,
        o.batch_max,
        o.batch_deadline_us,
        o.load.clients,
        o.load.txns_per_client,
        o.load.entities,
        o.load.zipf_centi,
        o.load.seed,
        o.policy.name(),
        o.procs,
    );
    if let Err(e) = std::fs::write(&path, body) {
        eprintln!("pr-load: cannot write {path}: {e}");
    } else {
        eprintln!("pr-load: wrote failing trace to {path}");
    }
}

// ---------------------------------------------------------------------------

fn run_shutdown(addr: &str) -> ExitCode {
    match Client::connect(addr).and_then(|mut c| c.shutdown()) {
        Ok(commits) => {
            println!("pr-load: server drained after {commits} commits");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("pr-load: shutdown: {e}");
            ExitCode::FAILURE
        }
    }
}

fn run_child(o: &Options) -> ExitCode {
    let Some(addr) = &o.connect else {
        eprintln!("pr-load: --child needs --connect");
        return ExitCode::from(2);
    };
    let mut cfg = o.load.clone();
    cfg.addr = addr.clone();
    match pr_server::run_load(&cfg) {
        Ok(result) => {
            print_child_result(&result);
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("pr-load: child: {e}");
            ExitCode::FAILURE
        }
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let o = match parse_options(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("pr-load: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match &o.mode {
        Mode::Run => run_default(&o),
        Mode::Bench => run_bench(&o),
        Mode::Gate(path) => run_gate(&o, &path.clone()),
        Mode::GateDurability(path) => run_gate_durability(&o, &path.clone()),
        Mode::CrashSoak(cases) => run_crash_soak(&o, *cases),
        Mode::Probe(addr) => run_probe(addr),
        Mode::Soak => run_soak(&o),
        Mode::Shutdown(addr) => run_shutdown(addr),
        Mode::Child => run_child(&o),
    }
}
