//! Runs the multi-threaded engine sweep, writes `BENCH_parallel.json`,
//! gates thread scaling (`--gate-scaling`), and (with `--soak`) drives
//! the differential serializability oracle over many seeds.
//!
//! ```text
//! cargo run -p pr-sim --release --bin parallel [-- --quick] [-- --out <path>]
//! cargo run -p pr-sim --release --bin parallel -- --soak 500 --threads 8
//! cargo run -p pr-sim --release --bin parallel -- --gate-scaling BENCH_parallel.json
//! ```
//!
//! The sweep covers worker threads ∈ {1, 2, 4, 8, 16, 32} × Zipf s ∈
//! {0, 1.2} × all three rollback strategies, 64 transactions per cell,
//! three seeds per cell, **best of three attempts** (scheduler noise on a
//! small box would otherwise dominate cell-to-cell deltas). Every cell is
//! oracle-checked (conflict-graph acyclicity over the stamped access
//! history, rollback-accounting reconciliation, and final-snapshot
//! equality against a deterministic single-threaded run of the same
//! workload), and each row records the wall-clock speedup of the parallel
//! engine over that deterministic reference.
//!
//! `--gate-scaling PATH` is the perf gate for the ROADMAP's negative-
//! scaling bug: it fails if the committed grid at PATH has any 2–8-thread
//! cell more than 20% below its own strategy's 1-thread cell (16/32-thread
//! cells face a 60% bar — an oversubscribed box schedules them with far
//! more noise), then re-measures a reduced live grid and applies a
//! collapse tripwire (50%) to the fresh numbers — the bars are
//! self-relative, so the live check is machine-independent.
//!
//! `--soak N` replaces the sweep with N seeded runs rotating through the
//! 3 strategies × 2 grant policies grid, each run oracle-checked; the
//! first violation aborts with a reproduction line. This is the CI
//! `parallel-soak` job's entry point.

use pr_core::{GrantPolicy, StrategyKind, SystemConfig, VictimPolicyKind};
use pr_par::{run_parallel, ParConfig};
use pr_sim::generator::{GeneratorConfig, ProgramGenerator};
use pr_sim::oracle::check_outcome;
use pr_sim::report::{json_number, json_string, Table};
use pr_sim::runner::{run_workload, store_with, SchedulerKind};
use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::Instant;

const USAGE: &str = "\
usage: parallel [OPTIONS]
  --quick            small smoke sweep for CI (adds a 16-thread column)
  --out PATH         where to write the JSON grid (default BENCH_parallel.json)
  --gate-scaling PATH  scaling perf gate: check the committed grid at PATH
                     against the per-strategy 1-thread bars, then
                     re-measure a reduced grid live (no JSON output)
  --soak N           oracle soak: N seeded runs rotating through all
                     3 strategies x 2 grant policies (no JSON output)
  --threads N        worker threads for --soak runs (default 8)
  --txns N           transactions per run (default 64)
  --strategy NAME    restrict sweeps and soaks to one strategy:
                     total | mcs | sdg | repair | bounded-K
                     (default: rotate through all four)
  --no-fast-path     force every request through the shard-mutex path";

const STRATEGIES: [StrategyKind; 4] = StrategyKind::ALL;
const POLICIES: [GrantPolicy; 2] = [GrantPolicy::Barging, GrantPolicy::FairQueue];

/// Any cell below this fraction of its strategy's 1-thread throughput
/// fails the scaling gate (the ISSUE's ">20% drop" bar).
const GATE_RATIO: f64 = 0.8;

struct Options {
    quick: bool,
    out: std::path::PathBuf,
    gate: Option<std::path::PathBuf>,
    soak: Option<usize>,
    threads: usize,
    txns: usize,
    strategy: Option<StrategyKind>,
    fast_path: bool,
}

fn parse_options(args: &[String]) -> Result<Options, String> {
    let mut o = Options {
        quick: false,
        out: std::path::PathBuf::from("BENCH_parallel.json"),
        gate: None,
        soak: None,
        threads: 8,
        txns: 64,
        strategy: None,
        fast_path: true,
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |name: &str| {
            it.next().map(String::as_str).ok_or_else(|| format!("{name} needs a value"))
        };
        match arg.as_str() {
            "--quick" => o.quick = true,
            "--out" => o.out = value("--out")?.into(),
            "--gate-scaling" => o.gate = Some(value("--gate-scaling")?.into()),
            "--soak" => {
                o.soak =
                    Some(value("--soak")?.parse().map_err(|_| "--soak needs a count".to_string())?)
            }
            "--threads" => {
                o.threads = value("--threads")?
                    .parse()
                    .map_err(|_| "--threads needs a count".to_string())?
            }
            "--txns" => {
                o.txns = value("--txns")?.parse().map_err(|_| "--txns needs a count".to_string())?
            }
            "--strategy" => {
                let name = value("--strategy")?;
                o.strategy = Some(
                    StrategyKind::parse(name)
                        .ok_or_else(|| format!("unknown strategy {name:?}"))?,
                );
            }
            "--no-fast-path" => o.fast_path = false,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(o)
}

/// One measured sweep cell (seeds aggregated).
struct Row {
    zipf_centi: u16,
    threads: usize,
    strategy: String,
    txns: usize,
    commits: u64,
    elapsed_us: u128,
    /// Parallel commits per second of wall clock.
    throughput: f64,
    /// Deterministic single-threaded reference, same workloads.
    baseline_us: u128,
    baseline_throughput: f64,
    /// `throughput / baseline_throughput`.
    speedup: f64,
    deadlocks: u64,
    states_lost: u64,
    /// Conflict-graph edges the oracle rebuilt and verified acyclic.
    conflict_edges: usize,
    /// Lock-word fast-path grants (across seeds of the kept attempt).
    fast_grants: u64,
}

fn workload_config(zipf_centi: u16, pad_between: usize) -> GeneratorConfig {
    GeneratorConfig {
        num_entities: 64,
        skew_centi: zipf_centi,
        pad_between,
        ..GeneratorConfig::default()
    }
}

fn system_config(strategy: StrategyKind, policy: GrantPolicy) -> SystemConfig {
    let mut config = SystemConfig::new(strategy, VictimPolicyKind::PartialOrder);
    config.grant_policy = policy;
    config
}

/// Baseline wall-clock cache, keyed by (zipf, strategy, seed, txns). The
/// deterministic reference run does not depend on the thread count or the
/// measurement attempt, so one curve's worth of cells (6 thread counts ×
/// best-of-3) reuses a single baseline measurement — under heavy skew the
/// reference engine is orders of magnitude slower than the parallel one
/// and would otherwise dominate the sweep's runtime 12×.
type BaselineCache = std::collections::BTreeMap<(u16, String, u64, usize), u128>;

/// Runs one cell once: `seeds` workloads through the parallel engine
/// (oracle armed on each) and through the deterministic reference,
/// aggregating wall-clock commits/sec on both sides.
fn run_cell_once(
    zipf_centi: u16,
    threads: usize,
    strategy: StrategyKind,
    txns: usize,
    seeds: u64,
    fast_path: bool,
    baselines: &mut BaselineCache,
) -> Result<Row, String> {
    let mut commits = 0u64;
    let mut elapsed_us = 0u128;
    let mut baseline_us = 0u128;
    let mut deadlocks = 0u64;
    let mut states_lost = 0u64;
    let mut conflict_edges = 0usize;
    let mut fast_grants = 0u64;
    let config = system_config(strategy, GrantPolicy::Barging);
    for seed in 0..seeds {
        let mut generator = ProgramGenerator::new(workload_config(zipf_centi, 2), 1000 + seed);
        let programs = generator.generate_workload(txns);
        let par_config = ParConfig { threads, shards: 0, system: config, fast_path };
        let outcome = run_parallel(&programs, store_with(64, 100), &par_config)
            .map_err(|e| format!("parallel run failed (seed {seed}): {e}"))?;
        let report = check_outcome(&programs, &store_with(64, 100), &config, &outcome)
            .map_err(|e| format!("ORACLE VIOLATION (seed {seed}): {e}"))?;
        commits += outcome.commits() as u64;
        elapsed_us += outcome.elapsed.as_micros();
        deadlocks += outcome.metrics.deadlocks;
        states_lost += outcome.metrics.states_lost;
        conflict_edges += report.conflict_edges;
        fast_grants += outcome.fast.fast_grants;

        // Wall-clock baseline: the deterministic engine over the same
        // workload. Seeded-random interleaving, not round-robin — under
        // heavy skew round-robin's lockstep retries thrash deadlock
        // detection into the step limit, which would time an artifact.
        let key = (zipf_centi, strategy.name(), seed, txns);
        let us = match baselines.get(&key) {
            Some(&us) => us,
            None => {
                let start = Instant::now();
                let reference = run_workload(
                    &programs,
                    store_with(64, 100),
                    config,
                    SchedulerKind::Random { seed: (1000 + seed) ^ 0x5eed },
                )
                .map_err(|e| format!("reference run failed (seed {seed}): {e}"))?;
                let us = start.elapsed().as_micros();
                if !reference.completed {
                    return Err(format!("reference run hit its step limit (seed {seed})"));
                }
                baselines.insert(key, us);
                us
            }
        };
        baseline_us += us;
    }
    let per_sec = |c: u64, us: u128| {
        if us == 0 {
            0.0
        } else {
            c as f64 * 1_000_000.0 / us as f64
        }
    };
    let throughput = per_sec(commits, elapsed_us);
    let baseline_throughput = per_sec(commits, baseline_us);
    Ok(Row {
        zipf_centi,
        threads,
        strategy: strategy.name(),
        txns,
        commits,
        elapsed_us,
        throughput,
        baseline_us,
        baseline_throughput,
        speedup: if baseline_throughput > 0.0 { throughput / baseline_throughput } else { 0.0 },
        deadlocks,
        states_lost,
        conflict_edges,
        fast_grants,
    })
}

/// Best-of-three cell measurement: every attempt is fully oracle-checked;
/// the one with highest parallel throughput is kept. OS scheduling noise
/// on a small box is one-sided (a cell can only be unlucky, never faster
/// than the code allows), so max is the low-variance estimator; three
/// attempts also ride out the occasional barging deadlock storm at high
/// skew, where one badly timed preemption cascade is real work but not
/// representative of the cell.
fn run_cell(
    zipf_centi: u16,
    threads: usize,
    strategy: StrategyKind,
    txns: usize,
    seeds: u64,
    fast_path: bool,
    baselines: &mut BaselineCache,
) -> Result<Row, String> {
    let mut best = run_cell_once(zipf_centi, threads, strategy, txns, seeds, fast_path, baselines)?;
    for _ in 0..2 {
        let next = run_cell_once(zipf_centi, threads, strategy, txns, seeds, fast_path, baselines)?;
        if next.throughput > best.throughput {
            best = next;
        }
    }
    Ok(best)
}

/// Serialises the grid as `BENCH_parallel.json` (hand-rolled JSON; all
/// keys static, all values numeric or fixed identifiers).
///
/// Schema: `{"schema": "bench-parallel-v1", "units": {...}, "rows":
/// [{zipf_centi, threads, strategy, txns, commits, elapsed_us,
/// throughput, baseline_us, baseline_throughput, speedup, deadlocks,
/// states_lost, conflict_edges, fast_grants}, ...]}`.
fn parallel_json(rows: &[Row]) -> String {
    let mut out = String::from(
        "{\n  \"schema\": \"bench-parallel-v1\",\n  \"units\": {\
         \"throughput\": \"committed transactions per second, wall clock\", \
         \"baseline\": \"deterministic single-threaded engine, same workloads\", \
         \"elapsed\": \"microseconds\"},\n  \"rows\": [\n",
    );
    for (i, r) in rows.iter().enumerate() {
        let _ = writeln!(
            out,
            "    {{\"zipf_centi\":{},\"threads\":{},\"strategy\":\"{}\",\
             \"txns\":{},\"commits\":{},\"elapsed_us\":{},\
             \"throughput\":{:.1},\"baseline_us\":{},\
             \"baseline_throughput\":{:.1},\"speedup\":{:.2},\
             \"deadlocks\":{},\"states_lost\":{},\"conflict_edges\":{},\
             \"fast_grants\":{}}}{}",
            r.zipf_centi,
            r.threads,
            r.strategy,
            r.txns,
            r.commits,
            r.elapsed_us,
            r.throughput,
            r.baseline_us,
            r.baseline_throughput,
            r.speedup,
            r.deadlocks,
            r.states_lost,
            r.conflict_edges,
            r.fast_grants,
            if i + 1 == rows.len() { "" } else { "," }
        );
    }
    out.push_str("  ]\n}\n");
    out
}

fn print_rows(rows: &[Row]) {
    let mut t = Table::new([
        "zipf",
        "threads",
        "strategy",
        "txns",
        "commits",
        "thr/s",
        "base/s",
        "speedup",
        "deadlocks",
        "lost",
        "edges",
        "fast",
    ])
    .with_title("Parallel engine vs deterministic reference (wall clock; oracle-checked)");
    for r in rows {
        t.row([
            format!("{:.2}", f64::from(r.zipf_centi) / 100.0),
            r.threads.to_string(),
            r.strategy.clone(),
            r.txns.to_string(),
            r.commits.to_string(),
            format!("{:.0}", r.throughput),
            format!("{:.0}", r.baseline_throughput),
            format!("{:.2}x", r.speedup),
            r.deadlocks.to_string(),
            r.states_lost.to_string(),
            r.conflict_edges.to_string(),
            r.fast_grants.to_string(),
        ]);
    }
    println!("{t}");
}

fn run_sweep(o: &Options) -> ExitCode {
    let (thread_grid, zipf_grid, txns, seeds): (&[usize], &[u16], usize, u64) = if o.quick {
        (&[1, 4, 16], &[0], 16, 1)
    } else {
        (&[1, 2, 4, 8, 16, 32], &[0, 120], o.txns, 3)
    };

    let mut rows = Vec::new();
    let mut baselines = BaselineCache::new();
    for &zipf in zipf_grid {
        for &threads in thread_grid {
            for strategy in STRATEGIES {
                if o.strategy.is_some_and(|only| only != strategy) {
                    continue;
                }
                match run_cell(zipf, threads, strategy, txns, seeds, o.fast_path, &mut baselines) {
                    Ok(row) => rows.push(row),
                    Err(e) => {
                        eprintln!("parallel: {e}");
                        return ExitCode::FAILURE;
                    }
                }
            }
        }
    }

    print_rows(&rows);

    if let Err(e) = std::fs::write(&o.out, parallel_json(&rows)) {
        eprintln!("parallel: cannot write {}: {e}", o.out.display());
        return ExitCode::FAILURE;
    }
    println!("wrote {} ({} rows, all oracle-checked)", o.out.display(), rows.len());
    ExitCode::SUCCESS
}

/// One (zipf, strategy) scaling curve: throughput per thread count.
type Curves = std::collections::BTreeMap<(u16, String), Vec<(usize, f64)>>;

fn curves_of(rows: &[(u16, usize, String, f64)]) -> Curves {
    let mut curves: Curves = Curves::new();
    for (zipf, threads, strategy, thr) in rows {
        curves.entry((*zipf, strategy.clone())).or_default().push((*threads, *thr));
    }
    curves
}

/// Applies the scaling bars to a set of curves: every cell's throughput,
/// as a ratio of its own curve's 1-thread cell, must clear `bar(threads)`.
/// Before the lock-word fast path this ratio collapsed to 0.02–0.21 at
/// high skew — the bars are tripwires for that class of regression, set
/// below the ±15% scheduler noise a 1-CPU box puts on sub-millisecond
/// cells. Returns the violations instead of failing fast so a gate run
/// reports them all.
fn check_scaling(curves: &Curves, bar: &dyn Fn(usize) -> f64, label: &str) -> Vec<String> {
    let mut violations = Vec::new();
    for ((zipf, strategy), cells) in curves {
        let Some(&(_, t1)) = cells.iter().find(|(t, _)| *t == 1) else {
            violations.push(format!("{label}: {strategy} zipf {zipf}: no 1-thread cell"));
            continue;
        };
        if t1 <= 0.0 {
            violations.push(format!("{label}: {strategy} zipf {zipf}: zero 1-thread throughput"));
            continue;
        }
        for &(threads, thr) in cells {
            let ratio = thr / t1;
            let required = bar(threads);
            if ratio < required {
                violations.push(format!(
                    "{label}: {strategy} zipf {zipf}: {threads}-thread throughput {thr:.0}/s \
                     is {:.0}% of its 1-thread cell {t1:.0}/s (bar: {:.0}%)",
                    ratio * 100.0,
                    required * 100.0
                ));
            }
        }
    }
    violations
}

/// The scaling perf gate: static bars over the committed grid, then a
/// reduced live re-measure with the same self-relative 20% bar.
fn run_gate(o: &Options, path: &std::path::Path) -> ExitCode {
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("parallel: cannot read {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
    };
    let mut committed = Vec::new();
    for line in text.lines().filter(|l| l.contains("\"zipf_centi\"")) {
        let (Some(zipf), Some(threads), Some(strategy), Some(thr)) = (
            json_number(line, "zipf_centi"),
            json_number(line, "threads"),
            json_string(line, "strategy"),
            json_number(line, "throughput"),
        ) else {
            eprintln!("parallel: malformed row in {}: {line}", path.display());
            return ExitCode::FAILURE;
        };
        committed.push((zipf, threads, strategy, thr));
    }
    if committed.is_empty() {
        eprintln!("parallel: no rows found in {}", path.display());
        return ExitCode::FAILURE;
    }
    // Committed grid: cells up to 8 threads must stay within 20% of
    // their 1-thread cell; 16/32-thread cells on an oversubscribed box
    // carry more scheduling noise and face a 60% bar.
    let committed_bar = |threads: usize| if threads <= 8 { GATE_RATIO } else { 0.6 };
    let mut violations = check_scaling(&curves_of(&committed), &committed_bar, "committed grid");

    // Live re-measure: the cheapest grid that can still catch a scaling
    // collapse — both skews, all strategies, 1 vs 8 threads. Bars are
    // ratios against the same run's own 1-thread cells, so this holds on
    // any machine regardless of its absolute speed.
    let mut live = Vec::new();
    let mut baselines = BaselineCache::new();
    for &zipf in &[0u16, 120] {
        for &threads in &[1usize, 8] {
            for strategy in STRATEGIES {
                match run_cell(zipf, threads, strategy, 24, 1, o.fast_path, &mut baselines) {
                    Ok(r) => live.push((zipf, threads, r.strategy, r.throughput)),
                    Err(e) => {
                        eprintln!("parallel: gate cell failed: {e}");
                        return ExitCode::FAILURE;
                    }
                }
            }
        }
    }
    // The live grid is a collapse tripwire only: single-seed 24-txn cells
    // are too noisy for the 20% bar, but the regression class this gate
    // exists for dragged cells to 2–21% of their 1-thread throughput —
    // half is comfortably between noise and collapse.
    violations.extend(check_scaling(&curves_of(&live), &|_| 0.5, "live grid"));

    if violations.is_empty() {
        println!(
            "scaling gate passed: {} committed rows within {:.0}% of their 1-thread cells \
             up to 8 threads (60% beyond), live 1v8-thread re-measure clean",
            committed.len(),
            GATE_RATIO * 100.0
        );
        ExitCode::SUCCESS
    } else {
        for v in &violations {
            eprintln!("parallel: SCALING GATE: {v}");
        }
        ExitCode::FAILURE
    }
}

fn run_soak(o: &Options, seeds: usize) -> ExitCode {
    let mut checked_accesses = 0usize;
    let mut checked_edges = 0usize;
    let mut deadlocks_resolved = 0u64;
    let mut fast_grants = 0u64;
    let start = Instant::now();
    for seed in 0..seeds as u64 {
        let strategy = o.strategy.unwrap_or(STRATEGIES[(seed % 4) as usize]);
        let policy = POLICIES[((seed / 4) % 2) as usize];
        let zipf = [0u16, 80, 120][((seed / 8) % 3) as usize];
        // Short transactions finish inside one scheduling quantum and
        // never interleave on a small machine; the padded thirds of the
        // grid stretch the lock-hold windows so OS preemption manufactures
        // real cross-thread deadlocks and the resolver gets soaked too.
        let pad = [2usize, 500, 2_000][((seed / 24) % 3) as usize];
        let config = system_config(strategy, policy);
        let mut generator = ProgramGenerator::new(workload_config(zipf, pad), seed);
        let programs = generator.generate_workload(o.txns);
        let par_config =
            ParConfig { threads: o.threads, shards: 0, system: config, fast_path: o.fast_path };
        let outcome = match run_parallel(&programs, store_with(64, 100), &par_config) {
            Ok(outcome) => outcome,
            Err(e) => {
                eprintln!(
                    "parallel: run failed at seed {seed} \
                     ({} / {} / zipf {zipf}): {e}",
                    strategy.name(),
                    policy.name()
                );
                return ExitCode::FAILURE;
            }
        };
        deadlocks_resolved += outcome.metrics.deadlocks;
        fast_grants += outcome.fast.fast_grants;
        match check_outcome(&programs, &store_with(64, 100), &config, &outcome) {
            Ok(report) => {
                checked_accesses += report.accesses;
                checked_edges += report.conflict_edges;
            }
            Err(v) => {
                eprintln!(
                    "parallel: ORACLE VIOLATION at seed {seed} \
                     ({} / {} / zipf {zipf}, {} threads): {v}",
                    strategy.name(),
                    policy.name(),
                    o.threads
                );
                return ExitCode::FAILURE;
            }
        }
        if (seed + 1) % 50 == 0 {
            println!(
                "  {}/{} seeds clean ({:.1}s)",
                seed + 1,
                seeds,
                start.elapsed().as_secs_f64()
            );
        }
    }
    if seeds >= 72 && deadlocks_resolved == 0 {
        // A full rotation of the grid includes the heavily padded cells;
        // zero deadlocks there means the resolver was never exercised and
        // the soak proved nothing about it.
        eprintln!("parallel: soak resolved no deadlocks — resolver not exercised");
        return ExitCode::FAILURE;
    }
    if o.fast_path && fast_grants == 0 {
        eprintln!("parallel: soak recorded no fast-path grants — fast path not exercised");
        return ExitCode::FAILURE;
    }
    println!(
        "oracle soak passed: {seeds} seeds x {} txns on {} threads, \
         4 strategies x 2 grant policies x 3 skews x 3 paddings; \
         {deadlocks_resolved} deadlocks resolved, {fast_grants} fast-path grants, \
         {checked_accesses} accesses, \
         {checked_edges} conflict edges verified acyclic ({:.1}s)",
        o.txns,
        o.threads,
        start.elapsed().as_secs_f64()
    );
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let o = match parse_options(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("parallel: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if let Some(path) = o.gate.clone() {
        return run_gate(&o, &path);
    }
    match o.soak {
        Some(seeds) => run_soak(&o, seeds),
        None => run_sweep(&o),
    }
}
