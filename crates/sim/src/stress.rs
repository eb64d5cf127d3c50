//! High-contention stress harness: open/closed-loop workload drivers
//! with Zipf-skewed entity selection, a configurable read/write mix, and
//! end-to-end transaction-latency histograms (p50/p95/p99 in engine
//! steps).
//!
//! Unlike [`crate::runner::run_workload`], which admits a fixed batch up
//! front and drains it, the stress driver models *sustained* load: a
//! closed loop keeps a fixed population of live transactions (each commit
//! admits a replacement), an open loop admits on a fixed step cadence
//! regardless of completions. Sustained load is what exposes the barging
//! starvation pathology: under a steady stream of shared requesters an
//! exclusive waiter's grant latency is unbounded under
//! [`GrantPolicy::Barging`] and bounded under [`GrantPolicy::FairQueue`].
//!
//! [`throughput_sweep`] runs the grid behind `BENCH_throughput.json`
//! (contention × grant policy × rollback strategy), and
//! [`throughput_json`] serialises it by hand — the workspace deliberately
//! carries no serde_json.

use crate::generator::{GeneratorConfig, ProgramGenerator};
use crate::report::{json_string, json_value};
use crate::runner::store_with;
use pr_core::{
    EngineError, EntityOrder, GrantPolicy, LogHistogram, Metrics, StepOutcome, StrategyKind,
    System, SystemConfig, VictimPolicyKind,
};
use pr_model::TxnId;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// How new transactions arrive.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Arrival {
    /// Closed loop: a fixed population of `concurrency` live transactions;
    /// every commit admits a replacement until `total_txns` have entered.
    Closed,
    /// Open loop: one admission every `every_steps` engine steps,
    /// regardless of completions (subject to `concurrency` as a cap on
    /// the live population so a saturated system queues arrivals).
    Open {
        /// Steps between admissions.
        every_steps: u64,
    },
}

/// Knobs for one stress run.
#[derive(Clone, Copy, Debug)]
pub struct StressConfig {
    /// Transactions to admit over the whole run.
    pub total_txns: usize,
    /// Live-transaction population (closed loop) or cap (open loop).
    pub concurrency: usize,
    /// Arrival process.
    pub arrival: Arrival,
    /// Number of entities in the database.
    pub num_entities: u32,
    /// Zipf exponent ×100 for entity selection (0 = uniform).
    pub zipf_centi: u16,
    /// Per-mille of locks taken exclusively — the write mix.
    pub exclusive_per_mille: u16,
    /// Minimum locks per transaction.
    pub min_locks: usize,
    /// Maximum locks per transaction.
    pub max_locks: usize,
    /// Padding computations after each lock.
    pub pad_between: usize,
    /// Generate each transaction's locks in ascending entity order — the
    /// certifiable workload. Under [`GrantPolicy::Ordered`] the driver
    /// installs the identity entity order so every such transaction takes
    /// the certified no-detection fast path (transactions that are not
    /// consistent with it simply fall back to partial rollback).
    pub ordered_locks: bool,
    /// Seed for both program generation and scheduling.
    pub seed: u64,
    /// Engine configuration (strategy, victim policy, grant policy).
    pub system: SystemConfig,
    /// Every Nth admission draws a *long* transaction instead — a fixed
    /// [`Self::long_locks`]-lock program padded by [`Self::long_pad`]
    /// computations per lock. 0 disables the mix. This models the
    /// long-analytic-vs-OLTP workload where partial rollback pays off
    /// most: the long transaction is the natural deadlock victim and the
    /// natural repair beneficiary.
    pub long_every: usize,
    /// Locks per long transaction when the mix is enabled.
    pub long_locks: usize,
    /// Padding computations after each lock of a long transaction.
    pub long_pad: usize,
}

impl Default for StressConfig {
    fn default() -> Self {
        StressConfig {
            total_txns: 48,
            concurrency: 16,
            arrival: Arrival::Closed,
            num_entities: 32,
            zipf_centi: 0,
            exclusive_per_mille: 700,
            min_locks: 2,
            max_locks: 4,
            pad_between: 1,
            ordered_locks: false,
            seed: 1,
            system: SystemConfig::new(StrategyKind::Mcs, VictimPolicyKind::PartialOrder),
            long_every: 0,
            long_locks: 8,
            long_pad: 6,
        }
    }
}

/// The read-write-skew stress shape: a small hot set read under shared
/// locks by almost everyone while a minority of writers upgrade pressure
/// keeps cycles forming. Deterministic in `seed`; deadlock and repair
/// counts for a given seed are asserted by the workload tests.
pub fn read_write_skew(strategy: StrategyKind, seed: u64) -> StressConfig {
    let mut system = SystemConfig::new(strategy, VictimPolicyKind::PartialOrder);
    system.max_steps = 2_000_000;
    StressConfig {
        total_txns: 64,
        concurrency: 16,
        num_entities: 8,
        zipf_centi: 120,
        // Mostly readers; the exclusive minority supplies the write skew.
        exclusive_per_mille: 250,
        min_locks: 2,
        max_locks: 5,
        pad_between: 2,
        seed,
        system,
        ..StressConfig::default()
    }
}

/// The long-transaction-vs-OLTP mix: every fourth admission is a long
/// scan-shaped transaction (8 locks, heavy padding) running against a
/// stream of short writes. Long transactions accumulate the most states,
/// so they dominate the rollback cost — exactly where suffix repair's
/// reuse shows up. Deterministic in `seed`.
pub fn long_vs_oltp(strategy: StrategyKind, seed: u64) -> StressConfig {
    let mut system = SystemConfig::new(strategy, VictimPolicyKind::PartialOrder);
    system.max_steps = 2_000_000;
    StressConfig {
        total_txns: 48,
        concurrency: 12,
        num_entities: 12,
        zipf_centi: 80,
        exclusive_per_mille: 700,
        min_locks: 2,
        max_locks: 3,
        pad_between: 1,
        seed,
        system,
        long_every: 4,
        long_locks: 8,
        long_pad: 6,
        ..StressConfig::default()
    }
}

/// Outcome of one stress run.
#[derive(Clone, Debug)]
pub struct StressReport {
    /// Transactions committed.
    pub commits: u64,
    /// Engine steps taken.
    pub steps: u64,
    /// False if the run hit the step limit before completing.
    pub completed: bool,
    /// Admission-to-commit latency per transaction, in engine steps
    /// (includes time lost to rollbacks and re-execution).
    pub txn_latency: LogHistogram,
    /// Final engine metrics (grant latency, queue depths, resolution
    /// costs, rollback counters).
    pub metrics: Metrics,
}

impl StressReport {
    /// Commits per 1000 engine steps — the harness's throughput measure.
    pub fn throughput_kilo(&self) -> f64 {
        if self.steps == 0 {
            0.0
        } else {
            self.commits as f64 * 1000.0 / self.steps as f64
        }
    }
}

/// Drives one stress run to completion (or the step limit).
pub fn run_stress(cfg: &StressConfig) -> Result<StressReport, EngineError> {
    let gen_cfg = GeneratorConfig {
        num_entities: cfg.num_entities,
        min_locks: cfg.min_locks,
        max_locks: cfg.max_locks,
        exclusive_per_mille: cfg.exclusive_per_mille,
        pad_between: cfg.pad_between,
        skew_centi: cfg.zipf_centi,
        ordered_locks: cfg.ordered_locks,
        ..GeneratorConfig::default()
    };
    let mut generator = ProgramGenerator::new(gen_cfg, cfg.seed);
    let mut long_generator = (cfg.long_every > 0).then(|| {
        let long_cfg = GeneratorConfig {
            min_locks: cfg.long_locks.max(1),
            max_locks: cfg.long_locks.max(1),
            pad_between: cfg.long_pad,
            ..gen_cfg
        };
        ProgramGenerator::new(long_cfg, cfg.seed ^ 0x5bd1_e995)
    });
    let mut sys = System::new(store_with(cfg.num_entities, 100), cfg.system);
    if cfg.system.grant_policy == GrantPolicy::Ordered {
        // The identity order is exactly what the ordered generator is
        // consistent with; non-ascending transactions stay uncovered and
        // keep the paper's partial-rollback machinery.
        sys.install_order(EntityOrder::identity(cfg.num_entities));
    }
    let mut rng =
        SmallRng::seed_from_u64(cfg.seed.wrapping_mul(0x9e37_79b9_7f4a_7c15).wrapping_add(1));
    let total = cfg.total_txns;
    let concurrency = cfg.concurrency.max(1);
    let mut admitted = 0usize;
    let mut commits = 0u64;
    let mut started: BTreeMap<TxnId, u64> = BTreeMap::new();
    let mut latency = LogHistogram::default();
    let mut next_arrival = 0u64;
    let mut completed = true;

    let mut admit_one = |sys: &mut System,
                         started: &mut BTreeMap<TxnId, u64>,
                         admitted: &mut usize|
     -> Result<(), EngineError> {
        let program = match &mut long_generator {
            Some(lg) if (*admitted + 1).is_multiple_of(cfg.long_every) => lg.generate(),
            _ => generator.generate(),
        };
        let id = sys.admit(program)?;
        started.insert(id, sys.metrics().steps);
        *admitted += 1;
        Ok(())
    };

    loop {
        // Arrivals.
        let live = admitted - commits as usize;
        match cfg.arrival {
            Arrival::Closed => {
                for _ in live..concurrency.min(total - admitted + live) {
                    admit_one(&mut sys, &mut started, &mut admitted)?;
                }
            }
            Arrival::Open { every_steps } => {
                while admitted < total
                    && (admitted - commits as usize) < concurrency
                    && sys.metrics().steps >= next_arrival
                {
                    admit_one(&mut sys, &mut started, &mut admitted)?;
                    next_arrival = sys.metrics().steps + every_steps.max(1);
                }
            }
        }
        if commits as usize >= total {
            break;
        }
        if sys.metrics().steps >= cfg.system.max_steps {
            completed = false;
            break;
        }
        let ready = sys.ready();
        if ready.is_empty() {
            if admitted < total {
                // Open loop with everything drained before the next
                // arrival is due: admit immediately (idle fast-forward).
                admit_one(&mut sys, &mut started, &mut admitted)?;
                continue;
            }
            // Nothing runnable and nothing left to admit: the engine
            // resolves deadlocks at block time, so this is unreachable
            // short of an engine bug — surface it.
            return Err(EngineError::Stuck { blocked: sys.blocked() });
        }
        let id = ready[rng.gen_range(0..ready.len())];
        if let StepOutcome::Committed = sys.step(id)? {
            commits += 1;
            if let Some(s0) = started.remove(&id) {
                latency.record(sys.metrics().steps.saturating_sub(s0));
            }
        }
    }

    Ok(StressReport {
        commits,
        steps: sys.metrics().steps,
        completed,
        txn_latency: latency,
        metrics: sys.metrics().clone(),
    })
}

/// One cell of the throughput grid: a (contention, concurrency, grant
/// policy, strategy) combination aggregated over seeds.
#[derive(Clone, Debug)]
pub struct ThroughputRow {
    /// Zipf exponent ×100.
    pub zipf_centi: u16,
    /// Closed-loop concurrency.
    pub concurrency: usize,
    /// Grant policy name.
    pub policy: String,
    /// Rollback strategy name.
    pub strategy: String,
    /// Total commits across seeds.
    pub commits: u64,
    /// Total engine steps across seeds.
    pub steps: u64,
    /// Commits per 1000 steps.
    pub throughput_kilo: f64,
    /// Median transaction latency (steps).
    pub latency_p50: u64,
    /// 95th-percentile transaction latency (steps).
    pub latency_p95: u64,
    /// 99th-percentile transaction latency (steps).
    pub latency_p99: u64,
    /// Worst transaction latency (steps).
    pub latency_max: u64,
    /// 99th-percentile lock grant latency (steps).
    pub grant_p99: u64,
    /// Deadlocks across seeds.
    pub deadlocks: u64,
    /// Deepest wait queue observed.
    pub max_queue_depth: usize,
    /// States discarded by rollbacks across seeds — the §3.1 cost. Under
    /// Repair this is what the next two columns partition, making the
    /// Repair-vs-MCS/SDG comparison readable straight off the gate row.
    pub states_lost: u64,
    /// Suffix ops recomputed during repair replay (0 off-Repair).
    pub ops_replayed: u64,
    /// Suffix ops reused from the replay tape (0 off-Repair).
    pub ops_reused: u64,
}

/// Runs the contention grid: every Zipf level × concurrency × grant
/// policy × rollback strategy, `seeds` runs each, closed loop.
pub fn throughput_sweep(
    zipf_centis: &[u16],
    concurrencies: &[usize],
    txns_per_run: usize,
    seeds: u64,
) -> Vec<ThroughputRow> {
    throughput_sweep_for(zipf_centis, concurrencies, txns_per_run, seeds, &StrategyKind::ALL)
}

/// [`throughput_sweep`] restricted to the given strategies — the
/// `throughput --strategy` CLI path and the repair gate's live
/// re-measure.
pub fn throughput_sweep_for(
    zipf_centis: &[u16],
    concurrencies: &[usize],
    txns_per_run: usize,
    seeds: u64,
    strategies: &[StrategyKind],
) -> Vec<ThroughputRow> {
    let mut rows = Vec::new();
    for &zipf in zipf_centis {
        for &concurrency in concurrencies {
            for policy in GrantPolicy::ALL {
                for &strategy in strategies {
                    let mut latency = LogHistogram::default();
                    let mut grant = LogHistogram::default();
                    let (mut commits, mut steps, mut deadlocks) = (0u64, 0u64, 0u64);
                    let (mut states_lost, mut ops_replayed, mut ops_reused) = (0u64, 0u64, 0u64);
                    let mut max_queue_depth = 0usize;
                    for seed in 0..seeds {
                        let mut system =
                            SystemConfig::new(strategy, VictimPolicyKind::PartialOrder)
                                .with_grant_policy(policy);
                        system.max_steps = 2_000_000;
                        let cfg = StressConfig {
                            total_txns: txns_per_run,
                            concurrency,
                            zipf_centi: zipf,
                            seed: seed * 7 + 1,
                            system,
                            ..StressConfig::default()
                        };
                        let report = run_stress(&cfg).expect("stress run must not get stuck");
                        assert!(report.completed, "partial-order policy always drains");
                        latency.merge(&report.txn_latency);
                        grant.merge(&report.metrics.grant_latency);
                        commits += report.commits;
                        steps += report.steps;
                        deadlocks += report.metrics.deadlocks;
                        states_lost += report.metrics.states_lost;
                        ops_replayed += report.metrics.ops_replayed;
                        ops_reused += report.metrics.ops_reused;
                        max_queue_depth = max_queue_depth.max(report.metrics.max_queue_depth());
                    }
                    rows.push(ThroughputRow {
                        zipf_centi: zipf,
                        concurrency,
                        policy: policy.name().to_string(),
                        strategy: strategy.name(),
                        commits,
                        steps,
                        throughput_kilo: if steps == 0 {
                            0.0
                        } else {
                            commits as f64 * 1000.0 / steps as f64
                        },
                        latency_p50: latency.p50(),
                        latency_p95: latency.p95(),
                        latency_p99: latency.p99(),
                        latency_max: latency.max(),
                        grant_p99: grant.p99(),
                        deadlocks,
                        max_queue_depth,
                        states_lost,
                        ops_replayed,
                        ops_reused,
                    });
                }
            }
        }
    }
    rows
}

/// The three-way grant-policy fight behind `BENCH_ordered.json`: barging
/// vs fair-queue vs ordered on the perf-gate hot cell (Zipf
/// [`GATE_ZIPF_CENTI`], [`GATE_CONCURRENCY`]-way closed loop), every
/// rollback strategy, over a *certifiable* workload (`ordered_locks`).
///
/// All three policies run the identical ascending-order workload, so none
/// of them ever deadlocks — the fight isolates what the certificate
/// actually buys: `Ordered` skips the per-wait deadlock search the other
/// two still pay for.
pub fn ordered_fight(txns_per_run: usize, seeds: u64) -> Vec<ThroughputRow> {
    let mut rows = Vec::new();
    for policy in [GrantPolicy::Barging, GrantPolicy::FairQueue, GrantPolicy::Ordered] {
        for strategy in StrategyKind::ALL {
            let mut latency = LogHistogram::default();
            let mut grant = LogHistogram::default();
            let (mut commits, mut steps, mut deadlocks) = (0u64, 0u64, 0u64);
            let (mut states_lost, mut ops_replayed, mut ops_reused) = (0u64, 0u64, 0u64);
            let mut max_queue_depth = 0usize;
            for seed in 0..seeds {
                let mut system = SystemConfig::new(strategy, VictimPolicyKind::PartialOrder)
                    .with_grant_policy(policy);
                system.max_steps = 2_000_000;
                let cfg = StressConfig {
                    total_txns: txns_per_run,
                    concurrency: GATE_CONCURRENCY,
                    zipf_centi: GATE_ZIPF_CENTI,
                    ordered_locks: true,
                    seed: seed * 7 + 1,
                    system,
                    ..StressConfig::default()
                };
                let report = run_stress(&cfg).expect("ordered fight must not get stuck");
                assert!(report.completed, "{policy:?}/{strategy:?} did not drain");
                assert_eq!(
                    report.metrics.deadlocks, 0,
                    "{policy:?}/{strategy:?}: an ordered workload cannot deadlock"
                );
                latency.merge(&report.txn_latency);
                grant.merge(&report.metrics.grant_latency);
                commits += report.commits;
                steps += report.steps;
                deadlocks += report.metrics.deadlocks;
                states_lost += report.metrics.states_lost;
                ops_replayed += report.metrics.ops_replayed;
                ops_reused += report.metrics.ops_reused;
                max_queue_depth = max_queue_depth.max(report.metrics.max_queue_depth());
            }
            rows.push(ThroughputRow {
                zipf_centi: GATE_ZIPF_CENTI,
                concurrency: GATE_CONCURRENCY,
                policy: policy.name().to_string(),
                strategy: strategy.name(),
                commits,
                steps,
                throughput_kilo: if steps == 0 {
                    0.0
                } else {
                    commits as f64 * 1000.0 / steps as f64
                },
                latency_p50: latency.p50(),
                latency_p95: latency.p95(),
                latency_p99: latency.p99(),
                latency_max: latency.max(),
                grant_p99: grant.p99(),
                deadlocks,
                max_queue_depth,
                states_lost,
                ops_replayed,
                ops_reused,
            });
        }
    }
    rows
}

/// Serialises the grid as `BENCH_throughput.json` (hand-rolled JSON; all
/// keys are static and all values numeric or fixed identifiers, so
/// nothing needs escaping).
///
/// Schema: `{"schema": "bench-throughput-v1", "units": {...},
/// "rows": [{zipf_centi, concurrency, policy, strategy, commits, steps,
/// throughput_kilo, latency_p50, latency_p95, latency_p99, latency_max,
/// grant_p99, deadlocks, max_queue_depth, states_lost, ops_replayed,
/// ops_reused}, ...]}`.
pub fn throughput_json(rows: &[ThroughputRow]) -> String {
    let mut out = String::from(
        "{\n  \"schema\": \"bench-throughput-v1\",\n  \"units\": {\
         \"throughput_kilo\": \"commits per 1000 engine steps\", \
         \"latency\": \"engine steps, admission to commit\", \
         \"grant\": \"engine steps, block to grant\"},\n  \"rows\": [\n",
    );
    for (i, r) in rows.iter().enumerate() {
        let _ = writeln!(
            out,
            "    {{\"zipf_centi\":{},\"concurrency\":{},\"policy\":\"{}\",\
             \"strategy\":\"{}\",\"commits\":{},\"steps\":{},\
             \"throughput_kilo\":{:.3},\"latency_p50\":{},\"latency_p95\":{},\
             \"latency_p99\":{},\"latency_max\":{},\"grant_p99\":{},\
             \"deadlocks\":{},\"max_queue_depth\":{},\"states_lost\":{},\
             \"ops_replayed\":{},\"ops_reused\":{}}}{}",
            r.zipf_centi,
            r.concurrency,
            r.policy,
            r.strategy,
            r.commits,
            r.steps,
            r.throughput_kilo,
            r.latency_p50,
            r.latency_p95,
            r.latency_p99,
            r.latency_max,
            r.grant_p99,
            r.deadlocks,
            r.max_queue_depth,
            r.states_lost,
            r.ops_replayed,
            r.ops_reused,
            if i + 1 == rows.len() { "" } else { "," }
        );
    }
    out.push_str("  ]\n}\n");
    out
}

/// One baseline measurement decoded from `BENCH_throughput.json` — just
/// the cell identity and the number the perf gate compares.
#[derive(Clone, Debug, PartialEq)]
pub struct BaselineRow {
    pub zipf_centi: u16,
    pub concurrency: usize,
    pub policy: String,
    pub strategy: String,
    pub throughput_kilo: f64,
    /// Repair accounting columns (0 when the baseline predates them).
    pub states_lost: u64,
    pub ops_replayed: u64,
    pub ops_reused: u64,
}

/// Decodes the output of [`throughput_json`]. This is not a general JSON
/// parser: it relies on the writer's one-row-per-line layout and flat
/// `"key":value` pairs, which is exactly what we commit as the baseline.
pub fn parse_throughput_json(text: &str) -> Result<Vec<BaselineRow>, String> {
    if !text.contains("\"schema\": \"bench-throughput-v1\"") {
        return Err("baseline is missing the bench-throughput-v1 schema marker".into());
    }
    let mut rows = Vec::new();
    for line in text.lines() {
        if !line.trim_start().starts_with('{') || !line.contains("\"zipf_centi\"") {
            continue;
        }
        let field =
            |key: &str| json_value(line, key).ok_or_else(|| format!("missing {key:?} in: {line}"));
        let bad = || format!("malformed baseline row: {line}");
        // The repair ledgers read 0 in baselines that predate them, but a
        // ledger that is present must parse.
        let ledger = |key: &str| {
            if line.contains(&format!("\"{key}\":")) {
                field(key)?.parse().map_err(|_| bad())
            } else {
                Ok(0)
            }
        };
        rows.push(BaselineRow {
            zipf_centi: field("zipf_centi")?.parse().map_err(|_| bad())?,
            concurrency: field("concurrency")?.parse().map_err(|_| bad())?,
            policy: json_string(line, "policy").ok_or_else(bad)?,
            strategy: json_string(line, "strategy").ok_or_else(bad)?,
            throughput_kilo: field("throughput_kilo")?.parse().map_err(|_| bad())?,
            states_lost: ledger("states_lost")?,
            ops_replayed: ledger("ops_replayed")?,
            ops_reused: ledger("ops_reused")?,
        });
    }
    if rows.is_empty() {
        return Err("baseline contains no rows".into());
    }
    Ok(rows)
}

/// A perf-gate comparison for one (policy, strategy) cell at the gate
/// point.
#[derive(Clone, Debug)]
pub struct GateResult {
    pub policy: String,
    pub strategy: String,
    pub baseline_kilo: f64,
    pub current_kilo: f64,
    /// Negative = slower than baseline (e.g. -0.25 = 25% drop).
    pub delta: f64,
    pub failed: bool,
}

/// The contention point the perf gate compares: Zipf s = 1.2, 64-way.
pub const GATE_ZIPF_CENTI: u16 = 120;
pub const GATE_CONCURRENCY: usize = 64;
/// Fail the gate when commit throughput drops by more than 20%.
pub const GATE_MAX_DROP: f64 = 0.20;

/// Compares fresh measurements against the committed baseline at the
/// gate point. Every baseline cell at that point must be present in
/// `current` and within [`GATE_MAX_DROP`] of its baseline throughput;
/// a missing cell is a failure (it means the sweep grid drifted).
pub fn gate_against_baseline(
    baseline: &[BaselineRow],
    current: &[ThroughputRow],
) -> Result<Vec<GateResult>, String> {
    let at_point = |z: u16, c: usize| z == GATE_ZIPF_CENTI && c == GATE_CONCURRENCY;
    let base: Vec<&BaselineRow> =
        baseline.iter().filter(|r| at_point(r.zipf_centi, r.concurrency)).collect();
    if base.is_empty() {
        return Err(format!(
            "baseline has no rows at the gate point (zipf_centi={GATE_ZIPF_CENTI}, \
             concurrency={GATE_CONCURRENCY}) — regenerate BENCH_throughput.json"
        ));
    }
    let mut results = Vec::new();
    for b in base {
        let cur = current
            .iter()
            .find(|r| {
                at_point(r.zipf_centi, r.concurrency)
                    && r.policy == b.policy
                    && r.strategy == b.strategy
            })
            .ok_or_else(|| {
                format!("current sweep is missing gate cell {}/{}", b.policy, b.strategy)
            })?;
        let delta = if b.throughput_kilo > 0.0 {
            (cur.throughput_kilo - b.throughput_kilo) / b.throughput_kilo
        } else {
            0.0
        };
        results.push(GateResult {
            policy: b.policy.clone(),
            strategy: b.strategy.clone(),
            baseline_kilo: b.throughput_kilo,
            current_kilo: cur.throughput_kilo,
            delta,
            failed: delta < -GATE_MAX_DROP,
        });
    }
    Ok(results)
}

/// A repair-gate comparison for one grant policy at the gate point.
#[derive(Clone, Debug)]
pub struct RepairGateResult {
    pub policy: String,
    pub baseline_kilo: f64,
    pub current_kilo: f64,
    /// Negative = slower than baseline.
    pub delta: f64,
    pub states_lost_repair: u64,
    pub states_lost_mcs: u64,
    pub ops_replayed: u64,
    pub ops_reused: u64,
    /// Every violated invariant, empty when the cell passes.
    pub reasons: Vec<String>,
}

impl RepairGateResult {
    pub fn failed(&self) -> bool {
        !self.reasons.is_empty()
    }
}

/// The Repair-specific perf gate at the s = 1.2 / 64-way point. Beyond
/// the plain >20%-drop rule it checks the equivalence the strategy is
/// sold on: Repair plans exactly like MCS (same victims, same targets),
/// so on the deterministic gate workload its `states_lost` must equal
/// MCS's cell for the same grant policy; and because every gate run
/// commits everything, Repair's two ledgers must partition those states.
pub fn gate_repair_against_baseline(
    baseline: &[BaselineRow],
    current: &[ThroughputRow],
) -> Result<Vec<RepairGateResult>, String> {
    let at_point = |z: u16, c: usize| z == GATE_ZIPF_CENTI && c == GATE_CONCURRENCY;
    let base: Vec<&BaselineRow> = baseline
        .iter()
        .filter(|r| at_point(r.zipf_centi, r.concurrency) && r.strategy == "repair")
        .collect();
    if base.is_empty() {
        return Err(format!(
            "baseline has no repair rows at the gate point (zipf_centi={GATE_ZIPF_CENTI}, \
             concurrency={GATE_CONCURRENCY}) — regenerate BENCH_throughput.json"
        ));
    }
    let mut results = Vec::new();
    for b in base {
        let find = |strategy: &str| {
            current
                .iter()
                .find(|r| {
                    at_point(r.zipf_centi, r.concurrency)
                        && r.policy == b.policy
                        && r.strategy == strategy
                })
                .ok_or_else(|| {
                    format!("current sweep is missing gate cell {}/{strategy}", b.policy)
                })
        };
        let repair = find("repair")?;
        let mcs = find("mcs")?;
        let delta = if b.throughput_kilo > 0.0 {
            (repair.throughput_kilo - b.throughput_kilo) / b.throughput_kilo
        } else {
            0.0
        };
        let mut reasons = Vec::new();
        if delta < -GATE_MAX_DROP {
            reasons.push(format!("throughput dropped {:.1}% vs baseline", -delta * 100.0));
        }
        if repair.states_lost != mcs.states_lost {
            reasons.push(format!(
                "states_lost {} != MCS cell {} — repair stopped planning like MCS",
                repair.states_lost, mcs.states_lost
            ));
        }
        if repair.ops_replayed + repair.ops_reused != repair.states_lost {
            reasons.push(format!(
                "ledgers do not partition the rollback cost: {} replayed + {} reused != {} lost",
                repair.ops_replayed, repair.ops_reused, repair.states_lost
            ));
        }
        results.push(RepairGateResult {
            policy: b.policy.clone(),
            baseline_kilo: b.throughput_kilo,
            current_kilo: repair.throughput_kilo,
            delta,
            states_lost_repair: repair.states_lost,
            states_lost_mcs: mcs.states_lost,
            ops_replayed: repair.ops_replayed,
            ops_reused: repair.ops_reused,
            reasons,
        });
    }
    Ok(results)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn closed_loop_completes_and_is_deterministic() {
        let cfg = StressConfig { total_txns: 24, concurrency: 8, ..Default::default() };
        let a = run_stress(&cfg).unwrap();
        let b = run_stress(&cfg).unwrap();
        assert!(a.completed);
        assert_eq!(a.commits, 24);
        assert_eq!(a.txn_latency.count(), 24);
        assert_eq!(a.metrics, b.metrics);
        assert_eq!(a.txn_latency, b.txn_latency);
        assert!(a.throughput_kilo() > 0.0);
    }

    #[test]
    fn open_loop_admits_on_cadence() {
        let cfg = StressConfig {
            total_txns: 12,
            concurrency: 6,
            arrival: Arrival::Open { every_steps: 5 },
            ..Default::default()
        };
        let report = run_stress(&cfg).unwrap();
        assert!(report.completed);
        assert_eq!(report.commits, 12);
        // A paced system takes at least the arrival spacing per txn.
        assert!(report.steps >= 5 * 11, "steps {} too few for the cadence", report.steps);
    }

    #[test]
    fn contention_raises_latency_and_deadlocks() {
        let quiet = StressConfig {
            total_txns: 32,
            concurrency: 4,
            num_entities: 64,
            zipf_centi: 0,
            ..Default::default()
        };
        let hot = StressConfig {
            total_txns: 32,
            concurrency: 16,
            num_entities: 8,
            zipf_centi: 120,
            ..Default::default()
        };
        let q = run_stress(&quiet).unwrap();
        let h = run_stress(&hot).unwrap();
        assert!(q.completed && h.completed);
        assert!(
            h.metrics.waits > q.metrics.waits,
            "hot workload must wait more: {} vs {}",
            h.metrics.waits,
            q.metrics.waits
        );
        assert!(h.txn_latency.p95() >= q.txn_latency.p95());
    }

    #[test]
    fn both_grant_policies_complete_the_same_hot_workload() {
        for policy in GrantPolicy::ALL {
            let cfg = StressConfig {
                total_txns: 32,
                concurrency: 12,
                num_entities: 8,
                zipf_centi: 120,
                exclusive_per_mille: 300,
                system: SystemConfig::new(StrategyKind::Sdg, VictimPolicyKind::PartialOrder)
                    .with_grant_policy(policy),
                ..Default::default()
            };
            let report = run_stress(&cfg).unwrap();
            assert!(report.completed, "{policy:?}");
            assert_eq!(report.commits, 32, "{policy:?}");
        }
    }

    /// Regression for an undetected-deadlock hang: at high concurrency the
    /// fair queue's full blocker sets make the waits-for graph dense
    /// enough that the budgeted cycle enumeration can exhaust itself
    /// without finding the (real) cycle, and since detection only runs at
    /// block time the deadlock was never seen again — the whole system
    /// wedged with every transaction blocked. The reachability fallback in
    /// `pr_graph::cycles` now guarantees at least one cycle is found.
    /// This configuration (64-deep closed loop, Zipf 0.8, fair queue)
    /// reproduced the hang deterministically.
    #[test]
    fn dense_fair_queue_waits_still_resolve() {
        let mut system = SystemConfig::new(StrategyKind::Total, VictimPolicyKind::PartialOrder)
            .with_grant_policy(GrantPolicy::FairQueue);
        system.max_steps = 2_000_000;
        let cfg = StressConfig {
            total_txns: 96,
            concurrency: 64,
            zipf_centi: 80,
            seed: 1,
            system,
            ..StressConfig::default()
        };
        let report = run_stress(&cfg).unwrap();
        assert!(report.completed);
        assert_eq!(report.commits, 96);
        assert!(report.metrics.deadlocks > 0, "the hot cell must actually hit deadlocks");
    }

    #[test]
    fn ordered_stress_takes_the_fast_path_end_to_end() {
        let cfg = StressConfig {
            total_txns: 48,
            concurrency: 16,
            num_entities: 8,
            zipf_centi: 120,
            ordered_locks: true,
            system: SystemConfig::new(StrategyKind::Mcs, VictimPolicyKind::PartialOrder)
                .with_grant_policy(GrantPolicy::Ordered),
            ..Default::default()
        };
        let report = run_stress(&cfg).unwrap();
        assert!(report.completed);
        assert_eq!(report.commits, 48);
        assert_eq!(report.metrics.deadlocks, 0);
        assert_eq!(report.metrics.rollbacks(), 0);
        assert!(report.metrics.waits > 0, "the hot cell must actually contend");
        assert_eq!(
            report.metrics.certified_waits, report.metrics.waits,
            "every wait of a fully covered workload must skip detection"
        );
    }

    #[test]
    fn unordered_stress_under_ordered_policy_falls_back() {
        // Same hot cell, but the generator ignores the global order: most
        // transactions are uncovered, deadlocks happen, and partial
        // rollback resolves them — Ordered must not wedge or miss them.
        let cfg = StressConfig {
            total_txns: 48,
            concurrency: 16,
            num_entities: 8,
            zipf_centi: 120,
            ordered_locks: false,
            system: SystemConfig::new(StrategyKind::Mcs, VictimPolicyKind::PartialOrder)
                .with_grant_policy(GrantPolicy::Ordered),
            ..Default::default()
        };
        let report = run_stress(&cfg).unwrap();
        assert!(report.completed);
        assert_eq!(report.commits, 48);
        assert!(report.metrics.deadlocks > 0, "the uncovered hot cell must deadlock");
    }

    #[test]
    fn ordered_fight_covers_three_policies_and_never_deadlocks() {
        let rows = ordered_fight(8, 1);
        assert_eq!(rows.len(), 3 * 4);
        for policy in ["barging", "fair-queue", "ordered"] {
            assert_eq!(rows.iter().filter(|r| r.policy == policy).count(), 4, "{policy}");
        }
        assert!(rows.iter().all(|r| r.deadlocks == 0));
        assert!(rows.iter().all(|r| r.zipf_centi == GATE_ZIPF_CENTI));
        let json = throughput_json(&rows);
        let parsed = parse_throughput_json(&json).unwrap();
        assert_eq!(parsed.len(), 12);
        assert!(json.contains("\"policy\":\"ordered\""));
    }

    #[test]
    fn sweep_covers_the_grid_and_serialises() {
        let rows = throughput_sweep(&[0, 120], &[4], 8, 1);
        assert_eq!(rows.len(), 2 * 2 * 4); // zipf × policy × strategy
        let json = throughput_json(&rows);
        assert!(json.contains("\"schema\": \"bench-throughput-v1\""));
        assert!(json.contains("\"policy\":\"barging\""));
        assert!(json.contains("\"policy\":\"fair-queue\""));
        assert!(json.contains("\"strategy\":\"sdg\""));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
    }

    #[test]
    fn baseline_round_trips_through_the_parser() {
        let rows = throughput_sweep(&[120], &[4], 8, 1);
        let parsed = parse_throughput_json(&throughput_json(&rows)).unwrap();
        assert_eq!(parsed.len(), rows.len());
        for (p, r) in parsed.iter().zip(&rows) {
            assert_eq!(p.zipf_centi, r.zipf_centi);
            assert_eq!(p.concurrency, r.concurrency);
            assert_eq!(p.policy, r.policy);
            assert_eq!(p.strategy, r.strategy);
            // The writer rounds to 3 decimals; the parser must agree with
            // what was written, not the pre-rounding value.
            assert!((p.throughput_kilo - r.throughput_kilo).abs() < 0.001);
        }
        assert!(parse_throughput_json("{}").is_err());
        assert!(parse_throughput_json("not json at all").is_err());
    }

    #[test]
    fn perf_gate_trips_only_on_large_drops() {
        let cell = |policy: &str, strategy: &str, thr: f64| BaselineRow {
            zipf_centi: GATE_ZIPF_CENTI,
            concurrency: GATE_CONCURRENCY,
            policy: policy.into(),
            strategy: strategy.into(),
            throughput_kilo: thr,
            states_lost: 0,
            ops_replayed: 0,
            ops_reused: 0,
        };
        let current = |thr: f64| ThroughputRow {
            zipf_centi: GATE_ZIPF_CENTI,
            concurrency: GATE_CONCURRENCY,
            policy: "barging".into(),
            strategy: "mcs".into(),
            commits: 96,
            steps: 1000,
            throughput_kilo: thr,
            latency_p50: 1,
            latency_p95: 1,
            latency_p99: 1,
            latency_max: 1,
            grant_p99: 1,
            deadlocks: 0,
            max_queue_depth: 1,
            states_lost: 0,
            ops_replayed: 0,
            ops_reused: 0,
        };
        let base = vec![cell("barging", "mcs", 10.0)];
        // 10% down: fine. 25% down: gate failure. Faster: fine.
        let ok = gate_against_baseline(&base, &[current(9.0)]).unwrap();
        assert!(!ok[0].failed, "{ok:?}");
        let slow = gate_against_baseline(&base, &[current(7.5)]).unwrap();
        assert!(slow[0].failed, "{slow:?}");
        assert!((slow[0].delta + 0.25).abs() < 1e-9);
        let fast = gate_against_baseline(&base, &[current(12.0)]).unwrap();
        assert!(!fast[0].failed);
        // Missing cell and missing gate point are hard errors.
        assert!(gate_against_baseline(&base, &[]).is_err());
        assert!(gate_against_baseline(&[cell("barging", "mcs", 0.0)], &[]).is_err());
        let off_point = vec![BaselineRow { zipf_centi: 0, ..cell("barging", "mcs", 10.0) }];
        assert!(gate_against_baseline(&off_point, &[current(9.0)]).is_err());
    }

    #[test]
    fn read_write_skew_repairs_deterministically() {
        let cfg = read_write_skew(StrategyKind::Repair, 7);
        let a = run_stress(&cfg).unwrap();
        let b = run_stress(&cfg).unwrap();
        assert_eq!(a.metrics, b.metrics, "the workload must be deterministic in its seed");
        assert!(a.completed);
        assert_eq!(a.commits, 64);
        assert!(a.metrics.deadlocks > 0, "the skewed hot set must deadlock");
        assert_eq!(a.metrics.repairs, a.metrics.rollbacks());
        assert!(a.metrics.repairs > 0);
        assert_eq!(a.metrics.repair_suffix.sum(), a.metrics.states_lost);
        assert_eq!(a.metrics.ops_replayed + a.metrics.ops_reused, a.metrics.states_lost);
    }

    #[test]
    fn long_vs_oltp_mix_repairs_like_mcs() {
        let repair = run_stress(&long_vs_oltp(StrategyKind::Repair, 11)).unwrap();
        let mcs = run_stress(&long_vs_oltp(StrategyKind::Mcs, 11)).unwrap();
        assert!(repair.completed && mcs.completed);
        assert_eq!(repair.commits, 48);
        assert!(repair.metrics.deadlocks > 0, "the mix must deadlock");
        // Repair plans exactly like MCS and the driver is deterministic in
        // its seed, so both runs walk the same schedule step for step.
        assert_eq!(repair.steps, mcs.steps);
        assert_eq!(repair.metrics.deadlocks, mcs.metrics.deadlocks);
        assert_eq!(repair.metrics.states_lost, mcs.metrics.states_lost);
        assert_eq!(
            repair.metrics.ops_replayed + repair.metrics.ops_reused,
            repair.metrics.states_lost
        );
        assert!(repair.metrics.ops_reused > 0, "long victims must reuse suffix work");
        assert_eq!(mcs.metrics.ops_replayed + mcs.metrics.ops_reused, 0);
    }

    #[test]
    fn repair_gate_checks_throughput_and_ledger_invariants() {
        let base = vec![BaselineRow {
            zipf_centi: GATE_ZIPF_CENTI,
            concurrency: GATE_CONCURRENCY,
            policy: "barging".into(),
            strategy: "repair".into(),
            throughput_kilo: 10.0,
            states_lost: 40,
            ops_replayed: 25,
            ops_reused: 15,
        }];
        let row = |strategy: &str, thr: f64, lost: u64, replayed: u64, reused: u64| ThroughputRow {
            zipf_centi: GATE_ZIPF_CENTI,
            concurrency: GATE_CONCURRENCY,
            policy: "barging".into(),
            strategy: strategy.into(),
            commits: 96,
            steps: 1000,
            throughput_kilo: thr,
            latency_p50: 1,
            latency_p95: 1,
            latency_p99: 1,
            latency_max: 1,
            grant_p99: 1,
            deadlocks: 4,
            max_queue_depth: 1,
            states_lost: lost,
            ops_replayed: replayed,
            ops_reused: reused,
        };
        // Healthy: throughput held, ledgers partition, MCS cell matches.
        let ok = gate_repair_against_baseline(
            &base,
            &[row("repair", 9.5, 42, 30, 12), row("mcs", 9.9, 42, 0, 0)],
        )
        .unwrap();
        assert!(!ok[0].failed(), "{:?}", ok[0].reasons);
        // Throughput collapse fails.
        let slow = gate_repair_against_baseline(
            &base,
            &[row("repair", 7.0, 42, 30, 12), row("mcs", 9.9, 42, 0, 0)],
        )
        .unwrap();
        assert!(slow[0].failed());
        // Planner drift (states_lost != MCS cell) fails.
        let drift = gate_repair_against_baseline(
            &base,
            &[row("repair", 9.5, 42, 30, 12), row("mcs", 9.9, 41, 0, 0)],
        )
        .unwrap();
        assert!(drift[0].failed());
        // Ledgers that don't partition the cost fail.
        let leak = gate_repair_against_baseline(
            &base,
            &[row("repair", 9.5, 42, 30, 11), row("mcs", 9.9, 42, 0, 0)],
        )
        .unwrap();
        assert!(leak[0].failed());
        // Missing repair rows (stale baseline or drifted sweep) are errors.
        assert!(gate_repair_against_baseline(&[], &[]).is_err());
        assert!(gate_repair_against_baseline(&base, &[row("mcs", 9.9, 42, 0, 0)]).is_err());
    }
}
