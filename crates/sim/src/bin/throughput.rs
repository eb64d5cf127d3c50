//! Runs the high-contention throughput sweep, writes
//! `BENCH_throughput.json`, and (with `--gate`) enforces the perf
//! regression gate against a committed baseline.
//!
//! ```text
//! cargo run -p pr-sim --release --bin throughput [-- --quick] [-- --out <path>]
//! cargo run -p pr-sim --release --bin throughput -- --gate BENCH_throughput.json
//! ```
//!
//! The full sweep covers Zipf s ∈ {0, 0.8, 1.2} × 4–64 concurrent
//! transactions × both grant policies × all three rollback strategies,
//! three seeds per cell. `--quick` shrinks the grid to a CI smoke run.
//! `--gate` re-measures only the gate point (s = 1.2, 64-way — the
//! contention cell the paper's argument lives on) and exits non-zero if
//! any policy × strategy cell lost more than 20% commit throughput
//! against the baseline.
//!
//! `--fight` runs the three-way grant-policy fight instead — barging vs
//! fair-queue vs ordered on the same hot cell over a certifiable
//! (ascending-order) workload — and writes `BENCH_ordered.json`;
//! `--gate-ordered` enforces the same >20% rule against that baseline.

use pr_core::StrategyKind;
use pr_sim::report::Table;
use pr_sim::stress::{
    gate_against_baseline, gate_repair_against_baseline, ordered_fight, parse_throughput_json,
    throughput_json, throughput_sweep_for, BaselineRow, ThroughputRow, GATE_CONCURRENCY,
    GATE_MAX_DROP, GATE_ZIPF_CENTI,
};
use std::process::ExitCode;

const USAGE: &str = "\
usage: throughput [OPTIONS]
  --quick            small smoke sweep for CI
  --out PATH         where to write the JSON grid (default BENCH_throughput.json)
  --strategy NAME    restrict the sweep to one strategy:
                     total | mcs | sdg | repair | bounded-K (default all four)
  --gate BASELINE    compare against a committed BENCH_throughput.json and
                     fail on a >20% throughput drop at the s=1.2/64-way point
  --gate-repair BASELINE
                     repair gate at the same point: >20% throughput rule on
                     the repair rows, plus repair must lose exactly MCS's
                     states and its replayed/reused ledgers must partition
                     them
  --fight            run the barging/fair-queue/ordered three-way fight on the
                     s=1.2/64-way cell (certifiable workload) and write
                     BENCH_ordered.json (or --out PATH)
  --gate-ordered BASELINE
                     same >20% rule against a committed BENCH_ordered.json";

struct Options {
    quick: bool,
    fight: bool,
    out: Option<std::path::PathBuf>,
    strategies: Vec<StrategyKind>,
    gate: Option<std::path::PathBuf>,
    gate_ordered: Option<std::path::PathBuf>,
    gate_repair: Option<std::path::PathBuf>,
}

fn parse_options(args: &[String]) -> Result<Options, String> {
    let mut o = Options {
        quick: false,
        fight: false,
        out: None,
        strategies: StrategyKind::ALL.to_vec(),
        gate: None,
        gate_ordered: None,
        gate_repair: None,
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |name: &str| {
            it.next().map(String::as_str).ok_or_else(|| format!("{name} needs a value"))
        };
        match arg.as_str() {
            "--quick" => o.quick = true,
            "--fight" => o.fight = true,
            "--out" => o.out = Some(value("--out")?.into()),
            "--strategy" => {
                let name = value("--strategy")?;
                let s = StrategyKind::parse(name)
                    .ok_or_else(|| format!("unknown strategy {name:?}"))?;
                o.strategies = vec![s];
            }
            "--gate" => o.gate = Some(value("--gate")?.into()),
            "--gate-ordered" => o.gate_ordered = Some(value("--gate-ordered")?.into()),
            "--gate-repair" => o.gate_repair = Some(value("--gate-repair")?.into()),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(o)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let o = match parse_options(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("throughput: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };

    if let Some(baseline_path) = &o.gate {
        return run_gate(baseline_path, false);
    }
    if let Some(baseline_path) = &o.gate_ordered {
        return run_gate(baseline_path, true);
    }
    if let Some(baseline_path) = &o.gate_repair {
        return run_gate_repair(baseline_path);
    }

    let rows = if o.fight {
        if o.quick {
            ordered_fight(16, 1)
        } else {
            ordered_fight(96, 3)
        }
    } else if o.quick {
        throughput_sweep_for(&[0, 120], &[8], 16, 1, &o.strategies)
    } else {
        throughput_sweep_for(&[0, 80, 120], &[4, 16, 64], 96, 3, &o.strategies)
    };
    let default_out = if o.fight { "BENCH_ordered.json" } else { "BENCH_throughput.json" };
    let out = o.out.unwrap_or_else(|| std::path::PathBuf::from(default_out));

    let mut t = Table::new([
        "zipf",
        "conc",
        "policy",
        "strategy",
        "commits",
        "steps",
        "thr/kstep",
        "p50",
        "p95",
        "p99",
        "grant p99",
        "deadlocks",
        "maxq",
    ])
    .with_title(if o.fight {
        "Grant-policy fight on the hot cell, certifiable workload (latency in engine steps)"
    } else {
        "Throughput under contention (latency in engine steps)"
    });
    for r in &rows {
        t.row([
            format!("{:.2}", f64::from(r.zipf_centi) / 100.0),
            r.concurrency.to_string(),
            r.policy.clone(),
            r.strategy.clone(),
            r.commits.to_string(),
            r.steps.to_string(),
            format!("{:.3}", r.throughput_kilo),
            r.latency_p50.to_string(),
            r.latency_p95.to_string(),
            r.latency_p99.to_string(),
            r.grant_p99.to_string(),
            r.deadlocks.to_string(),
            r.max_queue_depth.to_string(),
        ]);
    }
    println!("{t}");

    if let Err(e) = std::fs::write(&out, throughput_json(&rows)) {
        eprintln!("throughput: cannot write {}: {e}", out.display());
        return ExitCode::FAILURE;
    }
    println!("wrote {} ({} rows)", out.display(), rows.len());
    ExitCode::SUCCESS
}

/// Reads and parses a committed baseline; a missing or malformed file is
/// a usage error (exit 2), reported on stderr.
fn load_baseline(path: &std::path::Path) -> Result<Vec<BaselineRow>, ExitCode> {
    let text = std::fs::read_to_string(path).map_err(|e| {
        eprintln!("throughput: cannot read baseline {}: {e}", path.display());
        ExitCode::from(2)
    })?;
    parse_throughput_json(&text).map_err(|e| {
        eprintln!("throughput: {e}");
        ExitCode::from(2)
    })
}

fn run_gate(baseline_path: &std::path::Path, ordered: bool) -> ExitCode {
    let baseline = match load_baseline(baseline_path) {
        Ok(b) => b,
        Err(code) => return code,
    };
    // Re-measure only the gate cell, at the baseline's full resolution
    // (96 txns × 3 seeds), so noise stays well under the 20% threshold.
    let current: Vec<ThroughputRow> = if ordered {
        ordered_fight(96, 3)
    } else {
        throughput_sweep_for(&[GATE_ZIPF_CENTI], &[GATE_CONCURRENCY], 96, 3, &StrategyKind::ALL)
    };
    let results = match gate_against_baseline(&baseline, &current) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("throughput: {e}");
            return ExitCode::from(2);
        }
    };

    let mut t = Table::new(["policy", "strategy", "baseline", "current", "delta", "gate"])
        .with_title(format!(
            "Perf gate at zipf {:.1} / {}-way (fail below -{:.0}%)",
            f64::from(GATE_ZIPF_CENTI) / 100.0,
            GATE_CONCURRENCY,
            GATE_MAX_DROP * 100.0
        ));
    let mut failed = false;
    for r in &results {
        failed |= r.failed;
        t.row([
            r.policy.clone(),
            r.strategy.clone(),
            format!("{:.3}", r.baseline_kilo),
            format!("{:.3}", r.current_kilo),
            format!("{:+.1}%", r.delta * 100.0),
            if r.failed { "FAIL".into() } else { "ok".into() },
        ]);
    }
    println!("{t}");
    if failed {
        eprintln!("throughput: perf gate FAILED — commit throughput regressed >20%");
        ExitCode::FAILURE
    } else {
        println!("perf gate passed ({} cells)", results.len());
        ExitCode::SUCCESS
    }
}

fn run_gate_repair(baseline_path: &std::path::Path) -> ExitCode {
    let baseline = match load_baseline(baseline_path) {
        Ok(b) => b,
        Err(code) => return code,
    };
    // The accounting invariants compare repair to MCS on the same
    // deterministic cell, so both strategies must be re-measured live.
    let current = throughput_sweep_for(
        &[GATE_ZIPF_CENTI],
        &[GATE_CONCURRENCY],
        96,
        3,
        &[StrategyKind::Repair, StrategyKind::Mcs],
    );
    let results = match gate_repair_against_baseline(&baseline, &current) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("throughput: {e}");
            return ExitCode::from(2);
        }
    };

    let mut t = Table::new([
        "policy", "baseline", "current", "delta", "lost", "mcs lost", "replayed", "reused", "gate",
    ])
    .with_title(format!(
        "Repair gate at zipf {:.1} / {}-way (fail below -{:.0}% or on ledger drift)",
        f64::from(GATE_ZIPF_CENTI) / 100.0,
        GATE_CONCURRENCY,
        GATE_MAX_DROP * 100.0
    ));
    let mut failed = false;
    for r in &results {
        failed |= r.failed();
        t.row([
            r.policy.clone(),
            format!("{:.3}", r.baseline_kilo),
            format!("{:.3}", r.current_kilo),
            format!("{:+.1}%", r.delta * 100.0),
            r.states_lost_repair.to_string(),
            r.states_lost_mcs.to_string(),
            r.ops_replayed.to_string(),
            r.ops_reused.to_string(),
            if r.failed() { "FAIL".into() } else { "ok".into() },
        ]);
        for reason in &r.reasons {
            eprintln!("throughput: REPAIR GATE {}: {reason}", r.policy);
        }
    }
    println!("{t}");
    if failed {
        eprintln!("throughput: repair gate FAILED");
        ExitCode::FAILURE
    } else {
        println!("repair gate passed ({} cells)", results.len());
        ExitCode::SUCCESS
    }
}
