//! prbench: the end-to-end and per-layer benchmark of `pr-server`.
//!
//! ```text
//! bash prbench/run.sh --workload hot-rollback --seed 1 --seconds 30 --trace 0
//! ```
//!
//! Starts the real `pr-server` binary, drives it over TCP with a closed
//! loop, checks the run, and prints one line per check and metric, then
//! the result as one JSON object on the last line. With `--trace 1` it
//! also replays the run's submissions in-process through each layer and
//! reports per-layer metrics instead of end-to-end ones. See README.md.

mod check;
mod load;
mod server;
mod trace;
mod workload;

use load::{admission_order, drive, LoadRun, Stop};
use pr_server::wire::{HISTORY_CHUNK_ACCESSES, MAX_PAYLOAD};
use pr_storage::wal::FsDir;
use server::{ServerProc, Stats};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Duration;
use workload::{Pool, Workload, INIT, SERVER_THREADS};

const USAGE: &str = "usage: prbench --workload hot-rollback|big-db|interactive --seed N \
                     --seconds N --trace 0|1 --server-bin PATH";
/// Threads of this process that generate load: one writer, one reader.
const LOAD_THREADS: usize = 2;
/// Servers started on an empty log per run, the oracle, timed and
/// durable runs' own included; `setup_s` is their median.
const SETUP_SAMPLES: usize = 7;
/// `--recover` restarts per run; `recover_s` is their median.
const RECOVER_SAMPLES: usize = 16;
/// Submissions per client in the short run the full oracle checks.
const ORACLE_TXNS_PER_CLIENT: usize = 2;

/// One named measurement with its unit.
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
}

impl Metric {
    pub fn new(name: &'static str, unit: &'static str, value: f64) -> Metric {
        Metric { name, unit, value }
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    server_bin: PathBuf,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace, mut server_bin) =
        (None, None, None, None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || value.parse::<u64>().map_err(|_| format!("{flag} needs a number"));
        match flag.as_str() {
            "--workload" => {
                let w =
                    Workload::by_name(value).ok_or_else(|| format!("unknown workload {value}"))?;
                workload = Some(w);
            }
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?.max(1)),
            "--trace" => trace = Some(number()? != 0),
            "--server-bin" => server_bin = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        server_bin: server_bin.ok_or("--server-bin is required")?,
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&args) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("prbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("prbench: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Prints each check's outcome as it comes and remembers any failure.
#[derive(Default)]
struct Checks {
    failed: bool,
}

impl Checks {
    fn record(&mut self, name: &str, result: Result<String, String>) {
        match result {
            Ok(detail) => println!("check {name}: ok {detail}"),
            Err(e) => {
                println!("check {name}: FAILED {e}");
                self.failed = true;
            }
        }
    }
}

/// The run's log directories, under the working directory, removed when
/// the run ends.
struct RunDir(PathBuf);

impl RunDir {
    fn log(&self, name: &str) -> PathBuf {
        self.0.join(name)
    }
}

impl Drop for RunDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// What one invocation needs to start servers.
struct Bench<'a> {
    bin: &'a Path,
    w: &'a Workload,
    pool: &'a Pool,
}

impl Bench<'_> {
    fn start(&self, log: &Path, recover: bool) -> Result<ServerProc, String> {
        ServerProc::start(self.bin, self.w, log, recover, &self.pool.subs[self.pool.probe()].frame)
    }

    /// `(txn id, pool entry)` of a server's readiness probe.
    fn probe_admission(&self, server: &ServerProc) -> (u32, u32) {
        (server.probe_txn, self.pool.probe() as u32)
    }

    fn recover_log(&self, log: &Path) -> Result<pr_server::Recovery, String> {
        let dir = FsDir::open(log).map_err(|e| e.to_string())?;
        pr_server::recover(&dir, self.w.entities, INIT)
            .map_err(|e| format!("replay {}: {e}", log.display()))
    }
}

/// The timed run and what was measured around it.
struct Timed {
    run: LoadRun,
    stats: Stats,
    setup: Duration,
    /// Admission order of every transaction in the timed run's log.
    order: Result<Vec<usize>, String>,
}

/// The fixed-size run whose log the `--recover` restarts replay.
struct Durable {
    setup: Duration,
    rss_mib: f64,
    /// Transactions committed on it, its server's probe included.
    committed: usize,
}

fn run(args: &Args) -> Result<(), String> {
    let w = &args.workload;
    let nproc = std::thread::available_parallelism().map_err(|e| e.to_string())?.get();
    let needed = LOAD_THREADS.max(SERVER_THREADS);
    if needed > nproc {
        return Err(format!(
            "refusing to oversubscribe: {LOAD_THREADS} load threads and server --threads \
             {SERVER_THREADS} need {needed} CPUs, this machine has {nproc}"
        ));
    }
    println!(
        "workload {} seed {} nproc {nproc} load_threads {LOAD_THREADS} server_threads \
         {SERVER_THREADS} clients {} entities {}",
        w.name, args.seed, w.clients, w.entities
    );
    let pool = Pool::generate(w, args.seed)?;
    let dir = RunDir(Path::new(".bench_run").join(format!(
        "{}-{}-{}",
        w.name,
        args.seed,
        std::process::id()
    )));
    std::fs::create_dir_all(&dir.0).map_err(|e| format!("{}: {e}", dir.0.display()))?;
    let bench = Bench { bin: &args.server_bin, w, pool: &pool };
    let mut checks = Checks::default();

    let mut setups = vec![oracle_run(&bench, &dir.log("oracle"), &mut checks)?];
    let durable_log = dir.log("durable");
    let d = durable_run(&bench, &durable_log, &mut checks)?;
    setups.push(d.setup);
    // The extra set-up servers and the restarts come half before the
    // timed run and half after, so that they meet the machine at two
    // different times.
    let (extra, half) = (SETUP_SAMPLES - 3, RECOVER_SAMPLES / 2);
    setups.extend(empty_starts(&bench, &dir, 0..extra / 2)?);
    let mut recovers = restarts(&bench, &durable_log, d.committed, 0..half, &mut checks)?;
    let log = dir.log("timed");
    let t = timed_run(&bench, &log, Duration::from_secs(args.seconds), &mut checks)?;
    setups.push(t.setup);
    recovers.extend(restarts(
        &bench,
        &durable_log,
        d.committed,
        half..RECOVER_SAMPLES,
        &mut checks,
    )?);
    setups.extend(empty_starts(&bench, &dir, extra / 2..extra)?);

    // Linear checks over the timed run's log.
    match &t.order {
        Err(e) => checks.record("admission", Err(e.clone())),
        Ok(order) => {
            let rec = bench.recover_log(&log)?;
            let none = |r: Result<(), String>| r.map(|()| String::new());
            checks.record("access-sets", none(check::access_sets(&pool, order, &rec)));
            checks.record("serializable", none(check::acyclic(&rec.accesses, order.len())));
            checks.record("final-state", none(check::final_state(&pool, order, &rec)));
        }
    }

    let run = &t.run;
    let failed = run.refused + run.unanswered;
    println!(
        "fail_ratio {} fraction ({failed} of {})",
        failed as f64 / run.attempted as f64,
        run.attempted
    );
    // The tail is printed but not a metric: how many clients miss the
    // open batch follows the shared host's scheduling stalls, and moved
    // p90 and p99 by up to 2x between identical runs (see README.md).
    let latency_us: Vec<f64> = run.latency_ns.iter().map(|&ns| ns as f64 / 1e3).collect();
    let p50 = quantile(latency_us.clone(), 0.5);
    println!(
        "latency samples {} p90_us {} p99_us {}",
        latency_us.len(),
        quantile(latency_us.clone(), 0.9),
        quantile(latency_us, 0.99)
    );
    let batches = t.stats.get(&["batches"])?;
    let metrics = if !args.trace {
        let median_s =
            |d: &[Duration]| quantile(d.iter().map(Duration::as_secs_f64).collect(), 0.5);
        vec![
            Metric::new("throughput_tps", "tx/s", run.throughput()),
            Metric::new("latency_p50_us", "us", p50),
            Metric::new("setup_s", "s", median_s(&setups)),
            Metric::new("recover_s", "s", median_s(&recovers)),
            Metric::new("server_rss_mb", "MiB", d.rss_mib),
        ]
    } else {
        // The log's first txns, probe included, in batches of the run's mean
        // fill: as many as the durable run commits, so that the replay's
        // size, like the log `recover_s` replays, does not follow throughput.
        let mut order = t.order.clone()?;
        order.truncate(w.clients * w.durable_per_client);
        let fill_mean = t.stats.get(&["commits"])? / batches;
        let wall_ns_per_txn = run.wall.as_nanos() as f64 / run.committed as f64;
        let log = dir.log("replay");
        let (layers, spans) =
            trace::replay(w, &pool, &order, fill_mean.round() as usize, &log, wall_ns_per_txn)?;
        print_spans(&spans);
        let mut metrics = vec![
            Metric::new("batch.fill_mean", "txn", fill_mean),
            Metric::new(
                "batch.deadline_flush_frac",
                "fraction",
                t.stats.get(&["flushes_deadline"])? / batches,
            ),
            Metric::new("batch.group_wait_mean_us", "us", t.stats.get(&["group_wait_us", "mean"])?),
        ];
        metrics.extend(layers);
        metrics
    };
    for m in &metrics {
        println!("metric {} {} {}", m.name, m.value, m.unit);
    }
    let reference_fixed_us = match args.trace && w.fixed_cost_dominates {
        true => {
            let hot = Workload::by_name("hot-rollback").expect("hot-rollback is a workload");
            Some(trace::fixed_us_on(&hot, args.seed)?)
        }
        false => None,
    };
    print_stress(w, &t.stats, &metrics, reference_fixed_us)?;
    let json: Vec<String> = metrics
        .iter()
        .map(|m| format!("\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}", m.name, m.value, m.unit))
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        !checks.failed,
        run.attempted,
        json.join(", ")
    );
    Ok(())
}

/// A short run whose whole history the full oracle checks. Returns the
/// server's set-up time.
fn oracle_run(bench: &Bench, log: &Path, checks: &mut Checks) -> Result<Duration, String> {
    let mut server = bench.start(log, false)?;
    let mut admitted = vec![bench.probe_admission(&server)];
    let short = drive(&server.addr, bench.pool, Stop::PerClient(ORACLE_TXNS_PER_CLIENT))?;
    admitted.extend(&short.admitted);
    let stats = server.settled_stats(admitted.len() as u64)?;
    checks.record("answered", check::answered(&short, admitted.len(), stats.get(&["commits"])?));
    let setup = server.ready_after;
    server.shutdown()?;
    let verdict = admission_order(&admitted)
        .and_then(|order| check::full_oracle(bench.pool, &order, &bench.recover_log(log)?));
    checks.record("oracle", verdict);
    Ok(setup)
}

/// The timed run of `seconds`, checked and drained.
fn timed_run(
    bench: &Bench,
    log: &Path,
    seconds: Duration,
    checks: &mut Checks,
) -> Result<Timed, String> {
    let mut server = bench.start(log, false)?;
    let mut admitted = vec![bench.probe_admission(&server)];
    let run = drive(&server.addr, bench.pool, Stop::After(seconds))?;
    admitted.extend(&run.admitted);
    let stats = server.settled_stats(admitted.len() as u64)?;
    checks.record("answered", check::answered(&run, admitted.len(), stats.get(&["commits"])?));
    let setup = server.ready_after;
    server.shutdown()?;
    Ok(Timed { run, stats, setup, order: admission_order(&admitted) })
}

/// A run of `durable_per_client` submissions per client, checked by one
/// `--recover` restart. Its log and history have the same size however
/// fast the server is, so `recover_s` and `server_rss_mb` do not follow
/// throughput.
fn durable_run(bench: &Bench, log: &Path, checks: &mut Checks) -> Result<Durable, String> {
    let mut server = bench.start(log, false)?;
    let setup = server.ready_after;
    let run = drive(&server.addr, bench.pool, Stop::PerClient(bench.w.durable_per_client))?;
    // The probe and every committed submission.
    let committed = 1 + run.admitted.len();
    let stats = server.settled_stats(committed as u64)?;
    let rss_mib = server.peak_rss_mib()?;
    checks.record("answered", check::answered(&run, committed, stats.get(&["commits"])?));
    // The last HISTORY chunk carries the whole snapshot in one frame.
    let history_fits =
        bench.w.entities as usize * 12 + HISTORY_CHUNK_ACCESSES * 17 + 16 <= MAX_PAYLOAD;
    let before = match history_fits {
        true => Some(server.ctl.history().map_err(|e| format!("HISTORY: {e}"))?),
        false => None,
    };
    server.shutdown()?;

    match before {
        Some(before) => {
            let mut server = ServerProc::spawn(bench.bin, bench.w, log, true)?;
            let after = server.ctl.history().map_err(|e| format!("HISTORY: {e}"))?;
            server.shutdown()?;
            checks.record(
                "recovered-history",
                match after == before {
                    true => Ok(format!("({} accesses)", after.0.len())),
                    false => Err("HISTORY after --recover differs from before".into()),
                },
            );
        }
        None => println!(
            "check recovered-history: skipped, a {}-entity snapshot exceeds one HISTORY \
             frame; the log checks of the timed run cover recovery",
            bench.w.entities
        ),
    }
    Ok(Durable { setup, rss_mib, committed })
}

/// Servers numbered `range` started on empty logs of their own and
/// drained; returns each one's spawn-to-ready time.
fn empty_starts(
    bench: &Bench,
    dir: &RunDir,
    range: std::ops::Range<usize>,
) -> Result<Vec<Duration>, String> {
    let mut setups = Vec::new();
    for i in range {
        let server = bench.start(&dir.log(&format!("setup{i}")), false)?;
        setups.push(server.ready_after);
        server.shutdown()?;
    }
    Ok(setups)
}

/// The `--recover` restarts numbered `range` over the durable run's log
/// of `committed` transactions; returns each one's spawn-to-ready time.
fn restarts(
    bench: &Bench,
    log: &Path,
    committed: usize,
    range: std::ops::Range<usize>,
    checks: &mut Checks,
) -> Result<Vec<Duration>, String> {
    let mut recovers = Vec::new();
    for restart in range {
        // Each earlier restart's probe is durable too.
        let acked = committed + restart;
        let mut server = bench.start(log, true)?;
        recovers.push(server.ready_after);
        let replayed = server.stats()?.get(&["txns_recovered"])?;
        checks.record(
            "recovered",
            match replayed == acked as f64 && server.probe_txn as usize == acked + 1 {
                true => Ok(format!("({acked} txns replayed)")),
                false => Err(format!(
                    "{acked} acknowledged, {replayed} replayed, next txn {}",
                    server.probe_txn
                )),
            },
        );
        server.shutdown()?;
    }
    Ok(recovers)
}

/// Prints whether the run stressed the layers its workload claims to.
/// The benchmark reports these without failing the run, since a faster
/// server may fill batches differently without being wrong; the smoke
/// test fails on a missed claim.
fn print_stress(
    w: &Workload,
    stats: &Stats,
    metrics: &[Metric],
    reference_fixed_us: Option<f64>,
) -> Result<(), String> {
    let verdict = |hit: bool| if hit { "ok" } else { "MISSED" };
    let frac = stats.get(&["flushes_deadline"])? / stats.get(&["batches"])?;
    let (bar, hit) = match w.deadline_flushes {
        true => (">= 0.9", frac >= 0.9),
        false => ("<= 0.1", frac <= 0.1),
    };
    println!("stress deadline_flush_frac {frac} {bar}: {}", verdict(hit));
    let get = |name| metrics.iter().find(|m| m.name == name).map(|m| m.value);
    if let (true, Some(deadlocks), Some(partial)) =
        (w.partial_rollbacks, get("engine.deadlocks_per_ktxn"), get("engine.partial_rollback_frac"))
    {
        let hit = deadlocks > 0.0 && partial > 0.0;
        println!("stress deadlocks {deadlocks}/ktxn partial {partial} both > 0: {}", verdict(hit));
    }
    if let (Some(reference), Some(fixed)) = (reference_fixed_us, get("session.fixed_us")) {
        let ratio = fixed / reference;
        println!(
            "stress session.fixed_us {fixed} is {ratio}x hot-rollback's {reference} (>= 10x): {}",
            verdict(ratio >= 10.0)
        );
    }
    Ok(())
}

/// Prints each span name's count and total time.
fn print_spans(spans: &[trace::Span]) {
    let mut totals: std::collections::BTreeMap<&str, (u64, u64)> = Default::default();
    for s in spans {
        let t = totals.entry(s.name).or_default();
        *t = (t.0 + 1, t.1 + s.dur_ns);
    }
    for (name, (count, ns)) in totals {
        println!("span {name} count {count} total_ms {}", ns as f64 / 1e6);
    }
}

/// The `q`-quantile of `values`, interpolated between the two nearest
/// ranks; 0 for no values.
pub fn quantile(mut values: Vec<f64>, q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_unstable_by(f64::total_cmp);
    let pos = q * (values.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    values[lo] + (values[hi] - values[lo]) * (pos - lo as f64)
}
