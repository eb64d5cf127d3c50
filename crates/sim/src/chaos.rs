//! Chaos harness: replayable fault schedules against the distributed
//! engine, asserting the **no-wedge invariant**.
//!
//! A chaos run is fully determined by one seed: the workload, the
//! scheduler, and the [`FaultPlan`] (message drops, duplications, delays,
//! site crashes and restarts, clock skew) are all derived from it. The
//! invariant the harness asserts after every run:
//!
//! 1. the run terminates (no `Stuck`, no step-limit blowup),
//! 2. every transaction settles — committed, or aborted by the crash of
//!    its home site (no third way out),
//! 3. the lock table drains (no orphaned grant or waiter),
//! 4. the cross-layer consistency sweep
//!    [`DistributedSystem::check_invariants`] passes.
//!
//! Because the failure history is a pure function of the seed, any
//! violation found by the CI soak is reproduced exactly by re-running its
//! seed — [`run_chaos`] returns the event trace for the artifact.

use crate::generator::{GeneratorConfig, ProgramGenerator};
use crate::runner::{store_with, RandomScheduler};
use pr_core::{EngineError, StrategyKind};
use pr_dist::{CrossSiteScheme, DistConfig, DistMetrics, DistributedSystem, FaultPlan, Partition};

/// Knobs for one chaos run.
#[derive(Clone, Debug)]
pub struct ChaosConfig {
    /// Master seed: workload, scheduler, and (for [`ChaosConfig::seeded`])
    /// the fault plan all derive from it.
    pub seed: u64,
    /// Number of sites (round-robin entity placement).
    pub sites: u16,
    /// Cross-site deadlock scheme.
    pub scheme: CrossSiteScheme,
    /// Rollback strategy.
    pub strategy: StrategyKind,
    /// Transactions in the workload (admitted as one batch).
    pub txns: usize,
    /// Entities in the database.
    pub num_entities: u32,
    /// Step limit (wedge backstop).
    pub max_steps: u64,
    /// The fault schedule.
    pub plan: FaultPlan,
}

impl ChaosConfig {
    /// A fully seed-derived configuration: the fault plan is
    /// [`FaultPlan::chaos`] over a horizon sized to the workload.
    pub fn seeded(
        seed: u64,
        sites: u16,
        scheme: CrossSiteScheme,
        strategy: StrategyKind,
        txns: usize,
        num_entities: u32,
    ) -> Self {
        let horizon = (txns as u64).saturating_mul(40);
        ChaosConfig {
            seed,
            sites,
            scheme,
            strategy,
            txns,
            num_entities,
            max_steps: 2_000_000,
            plan: FaultPlan::chaos(seed, sites, horizon),
        }
    }
}

/// How a chaos run ended.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum ChaosVerdict {
    /// Every transaction settled and every invariant held.
    Settled,
    /// The engine wedged (stuck or step-limit).
    Wedged(String),
    /// A transaction ended the run neither committed nor crash-aborted,
    /// or the lock table kept grants/waiters after quiescence.
    Residue(String),
    /// The cross-layer consistency sweep failed.
    InvariantViolation(String),
}

impl ChaosVerdict {
    /// Whether the no-wedge invariant held.
    pub fn ok(&self) -> bool {
        *self == ChaosVerdict::Settled
    }
}

/// Outcome of one chaos run.
#[derive(Clone, Debug)]
pub struct ChaosReport {
    /// The verdict.
    pub verdict: ChaosVerdict,
    /// Transactions committed.
    pub commits: u64,
    /// Transactions aborted by site crashes.
    pub crash_aborts: u64,
    /// Virtual ticks elapsed.
    pub ticks: u64,
    /// Full distributed metrics.
    pub metrics: DistMetrics,
    /// The network event trace (crashes, restarts, deliveries, drops) —
    /// the byte-exact replay witness.
    pub trace: Vec<String>,
}

impl ChaosReport {
    /// One-line summary for logs and artifacts.
    pub fn summary(&self) -> String {
        format!(
            "{:?} commits={} crash_aborts={} ticks={} msgs={} dropped={} dups_suppressed={} \
             retries={} recoveries={} recovery_rollbacks={} recovery_states_lost={}",
            self.verdict,
            self.commits,
            self.crash_aborts,
            self.ticks,
            self.metrics.messages,
            self.metrics.dropped_messages,
            self.metrics.dups_suppressed,
            self.metrics.retries,
            self.metrics.recoveries,
            self.metrics.recovery_rollbacks,
            self.metrics.recovery_states_lost,
        )
    }
}

/// Runs one chaos configuration to its verdict. Deterministic: the same
/// configuration always yields the same report, trace included.
pub fn run_chaos(cfg: &ChaosConfig) -> ChaosReport {
    let gen_cfg = GeneratorConfig {
        num_entities: cfg.num_entities,
        min_locks: 2,
        max_locks: 4,
        pad_between: 1,
        ..GeneratorConfig::default()
    };
    let mut generator = ProgramGenerator::new(gen_cfg, cfg.seed.wrapping_mul(31).wrapping_add(7));
    let mut dist_cfg = DistConfig::new(cfg.sites, cfg.scheme, cfg.strategy);
    dist_cfg.partition = Partition::RoundRobin { sites: cfg.sites };
    dist_cfg.max_steps = cfg.max_steps;
    let mut sys = DistributedSystem::with_faults(
        store_with(cfg.num_entities, 100),
        dist_cfg,
        cfg.plan.clone(),
    );
    let ids: Vec<_> = generator
        .generate_workload(cfg.txns)
        .into_iter()
        .map(|p| sys.admit(p).expect("generated programs are valid"))
        .collect();
    let mut scheduler = RandomScheduler::new(cfg.seed.wrapping_mul(17).wrapping_add(3));

    let run = sys.run(&mut scheduler);
    let verdict = match run {
        Err(e @ (EngineError::Stuck { .. } | EngineError::StepLimitExceeded { .. })) => {
            ChaosVerdict::Wedged(e.to_string())
        }
        Err(e) => ChaosVerdict::Wedged(format!("engine error: {e}")),
        Ok(()) => {
            if let Err(e) = sys.check_invariants() {
                ChaosVerdict::InvariantViolation(e)
            } else if let Some(t) = ids.iter().find(|&&t| {
                sys.txn(t).is_none_or(|rt| {
                    !matches!(
                        rt.phase,
                        pr_core::runtime::Phase::Committed | pr_core::runtime::Phase::Aborted
                    )
                })
            }) {
                ChaosVerdict::Residue(format!("{t} did not settle"))
            } else {
                ChaosVerdict::Settled
            }
        }
    };
    ChaosReport {
        verdict,
        commits: sys.metrics().commits,
        crash_aborts: sys.metrics().crash_aborts,
        ticks: sys.network().now(),
        metrics: sys.metrics().clone(),
        trace: sys.network().trace().to_vec(),
    }
}

/// Runs seeds `lo..hi` (each against every cross-site scheme) and returns
/// the failures: `(seed, scheme, report)` triples whose verdict is not
/// [`ChaosVerdict::Settled`]. An empty result is a clean soak.
pub fn chaos_sweep(
    lo: u64,
    hi: u64,
    sites: u16,
    strategy: StrategyKind,
    txns: usize,
    num_entities: u32,
) -> Vec<(u64, CrossSiteScheme, ChaosReport)> {
    let mut failures = Vec::new();
    for seed in lo..hi {
        for scheme in CrossSiteScheme::ALL {
            let cfg = ChaosConfig::seeded(seed, sites, scheme, strategy, txns, num_entities);
            let report = run_chaos(&cfg);
            if !report.verdict.ok() {
                failures.push((seed, scheme, report));
            }
        }
    }
    failures
}

/// One row of the fault-rate grid behind `EXPERIMENTS.md` table T2.
#[derive(Clone, Debug)]
pub struct FaultGridRow {
    /// Cross-site scheme.
    pub scheme: String,
    /// Fault level name (`none` / `light` / `heavy`).
    pub level: String,
    /// Transactions admitted across seeds.
    pub txns: u64,
    /// Transactions committed.
    pub commits: u64,
    /// Transactions aborted by site crashes.
    pub crash_aborts: u64,
    /// Survivor grants expired by crashes.
    pub expired_grants: u64,
    /// Partial rollbacks performed by recovery.
    pub recovery_rollbacks: u64,
    /// States lost to recovery rollbacks.
    pub recovery_states_lost: u64,
    /// Inter-site messages.
    pub messages: u64,
    /// Request retries.
    pub retries: u64,
    /// Duplicate deliveries suppressed.
    pub dups_suppressed: u64,
    /// Mean ticks from crash to restart (0 when no crash).
    pub mean_ttr: f64,
}

/// A named deterministic fault level for the grid: identical across
/// schemes so the comparison isolates the scheme, not the schedule.
fn level_plan(level: &str, seed: u64, sites: u16, horizon: u64) -> FaultPlan {
    let mut plan = FaultPlan::none();
    plan.seed = seed;
    match level {
        "none" => {}
        "light" => {
            plan.drop_per_mille = 50;
            plan.dup_per_mille = 50;
            plan.delay_per_mille = 100;
            plan.max_delay_ticks = 3;
            plan.clock_skew_ticks = (0..sites).map(|s| if s % 2 == 0 { 2 } else { -2 }).collect();
        }
        "heavy" => {
            plan.drop_per_mille = 200;
            plan.dup_per_mille = 200;
            plan.delay_per_mille = 300;
            plan.max_delay_ticks = 6;
            plan.clock_skew_ticks = (0..sites).map(|s| if s % 2 == 0 { 8 } else { -8 }).collect();
            // Crash every site once, staggered; the coordinator first so
            // GlobalDetection's degraded mode is always exercised.
            plan.crashes = (0..sites)
                .map(|s| pr_dist::CrashEvent {
                    site: pr_dist::SiteId::new(s),
                    at_tick: horizon / 10 + u64::from(s) * horizon / 8,
                    down_ticks: horizon / 10,
                })
                .collect();
        }
        other => panic!("unknown fault level {other:?}"),
    }
    plan
}

/// Runs the scheme × fault-level grid, `seeds` runs per cell.
pub fn fault_rate_grid(seeds: u64, sites: u16, txns: usize) -> Vec<FaultGridRow> {
    let horizon = (txns as u64).saturating_mul(40);
    let mut rows = Vec::new();
    for scheme in CrossSiteScheme::ALL {
        for level in ["none", "light", "heavy"] {
            let mut agg = DistMetrics::default();
            let mut total_txns = 0u64;
            for seed in 0..seeds {
                let cfg = ChaosConfig {
                    seed: seed * 13 + 5,
                    sites,
                    scheme,
                    strategy: StrategyKind::Mcs,
                    txns,
                    num_entities: 32,
                    max_steps: 2_000_000,
                    plan: level_plan(level, seed * 13 + 5, sites, horizon),
                };
                let report = run_chaos(&cfg);
                assert!(
                    report.verdict.ok(),
                    "grid cell must settle: {scheme:?}/{level} seed {seed}: {}",
                    report.summary()
                );
                total_txns += txns as u64;
                let m = &report.metrics;
                agg.commits += m.commits;
                agg.crash_aborts += m.crash_aborts;
                agg.expired_grants += m.expired_grants;
                agg.recovery_rollbacks += m.recovery_rollbacks;
                agg.recovery_states_lost += m.recovery_states_lost;
                agg.messages += m.messages;
                agg.retries += m.retries;
                agg.dups_suppressed += m.dups_suppressed;
                agg.recoveries += m.recoveries;
                agg.ttr_ticks += m.ttr_ticks;
            }
            rows.push(FaultGridRow {
                scheme: scheme.name().to_string(),
                level: level.to_string(),
                txns: total_txns,
                commits: agg.commits,
                crash_aborts: agg.crash_aborts,
                expired_grants: agg.expired_grants,
                recovery_rollbacks: agg.recovery_rollbacks,
                recovery_states_lost: agg.recovery_states_lost,
                messages: agg.messages,
                retries: agg.retries,
                dups_suppressed: agg.dups_suppressed,
                mean_ttr: if agg.recoveries == 0 {
                    0.0
                } else {
                    agg.ttr_ticks as f64 / agg.recoveries as f64
                },
            });
        }
    }
    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_faultless_chaos_run_commits_everything() {
        let mut cfg =
            ChaosConfig::seeded(1, 3, CrossSiteScheme::GlobalDetection, StrategyKind::Mcs, 12, 24);
        cfg.plan = FaultPlan::none();
        let report = run_chaos(&cfg);
        assert!(report.verdict.ok(), "{}", report.summary());
        assert_eq!(report.commits, 12);
        assert_eq!(report.crash_aborts, 0);
        assert!(report.trace.is_empty(), "a perfect network logs nothing");
    }

    #[test]
    fn chaos_runs_settle_and_replay_identically() {
        for scheme in CrossSiteScheme::ALL {
            let cfg = ChaosConfig::seeded(42, 3, scheme, StrategyKind::Mcs, 16, 24);
            let a = run_chaos(&cfg);
            let b = run_chaos(&cfg);
            assert!(a.verdict.ok(), "{scheme:?}: {}", a.summary());
            assert_eq!(a.trace, b.trace, "{scheme:?}: traces must replay byte-identically");
            assert_eq!(a.metrics, b.metrics, "{scheme:?}");
        }
    }
}
