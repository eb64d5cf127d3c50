//! Deterministic fault schedules for the distributed engine.
//!
//! A [`FaultPlan`] is a complete, seed-derived description of everything
//! that will go wrong during a run: per-message drop/duplication/delay
//! probabilities, a list of site crashes with restart times, and per-site
//! clock skew applied to WoundWait timestamps. Because every random
//! decision is drawn from one PRNG seeded by [`FaultPlan::seed`] in a
//! fixed order, replaying the same plan against the same workload and
//! scheduler reproduces the identical failure history, byte for byte —
//! the property the chaos harness and the determinism proptest rely on.

use crate::site::SiteId;
use rand::{rngs::SmallRng, Rng, SeedableRng};

/// One scheduled site failure: the site goes down at `at_tick` (engine
/// steps are the clock) and comes back `down_ticks` later.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct CrashEvent {
    /// The crashing site.
    pub site: SiteId,
    /// Virtual-clock tick at which the crash happens.
    pub at_tick: u64,
    /// Ticks until the site restarts. Must be finite and non-zero: a site
    /// that never restarts would let transactions stall against it forever
    /// and void the no-wedge invariant.
    pub down_ticks: u64,
}

/// A seeded, replayable fault schedule.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct FaultPlan {
    /// Seed for every per-message random decision.
    pub seed: u64,
    /// Probability (per mille) that a droppable message is lost. Values
    /// above [`FaultPlan::MAX_DROP_PER_MILLE`] are clamped at use: a
    /// certain-loss network can never deliver a retried request and would
    /// wedge every run by construction.
    pub drop_per_mille: u16,
    /// Probability (per mille) that a delivered message is duplicated.
    pub dup_per_mille: u16,
    /// Probability (per mille) that an asynchronous message is delayed.
    pub delay_per_mille: u16,
    /// Maximum delay, in ticks, for a delayed message (uniform in
    /// `1..=max_delay_ticks`). Delays produce genuine reordering: a later
    /// send with a shorter delay overtakes an earlier one.
    pub max_delay_ticks: u64,
    /// Scheduled site failures.
    pub crashes: Vec<CrashEvent>,
    /// Per-site clock skew (ticks) added to WoundWait timestamps of
    /// transactions homed at that site. Sites beyond the vector's length
    /// have zero skew.
    pub clock_skew_ticks: Vec<i64>,
    /// Attempts per request before the sender reports a timeout and backs
    /// off to retry on its next scheduling slot.
    pub rpc_retry_limit: u32,
    /// Base of the bounded exponential backoff between request attempts
    /// (attempt `k` waits `backoff_base_ticks << k`, capped).
    pub backoff_base_ticks: u64,
}

impl FaultPlan {
    /// Hard ceiling on the effective drop probability (999‰): retries must
    /// succeed with non-zero probability or liveness is unprovable.
    pub const MAX_DROP_PER_MILLE: u16 = 999;

    /// The empty plan: a perfect network, immortal sites, no skew.
    pub fn none() -> Self {
        FaultPlan {
            seed: 0,
            drop_per_mille: 0,
            dup_per_mille: 0,
            delay_per_mille: 0,
            max_delay_ticks: 0,
            crashes: Vec::new(),
            clock_skew_ticks: Vec::new(),
            rpc_retry_limit: 8,
            backoff_base_ticks: 1,
        }
    }

    /// Whether the plan injects any fault at all. An inactive plan keeps
    /// the engine on its zero-overhead path, byte-identical to a build
    /// without fault injection.
    pub fn is_active(&self) -> bool {
        self.drop_per_mille > 0
            || self.dup_per_mille > 0
            || self.delay_per_mille > 0
            || !self.crashes.is_empty()
            || self.clock_skew_ticks.iter().any(|&s| s != 0)
    }

    /// The effective (clamped) drop probability.
    pub fn effective_drop_per_mille(&self) -> u16 {
        self.drop_per_mille.min(Self::MAX_DROP_PER_MILLE)
    }

    /// Derives a complete adversarial schedule from `seed` for a system of
    /// `sites` sites and a workload expected to finish within `horizon`
    /// ticks. Every field — including which sites crash and when — is a
    /// pure function of the seed, so the chaos harness can reconstruct a
    /// failing schedule from its seed alone.
    pub fn chaos(seed: u64, sites: u16, horizon: u64) -> Self {
        let mut rng = SmallRng::seed_from_u64(seed ^ 0x9e37_79b9_7f4a_7c15);
        let horizon = horizon.max(40);
        let mut crashes = Vec::new();
        let mut skew = Vec::new();
        for s in 0..sites {
            if rng.gen_bool(0.5) {
                let at_tick = rng.gen_range(horizon / 10..horizon / 2);
                let down_ticks = rng.gen_range(horizon / 20..horizon / 4).max(1);
                crashes.push(CrashEvent { site: SiteId::new(s), at_tick, down_ticks });
            }
            skew.push(rng.gen_range(-16i64..=16));
        }
        FaultPlan {
            seed,
            drop_per_mille: rng.gen_range(0..300),
            dup_per_mille: rng.gen_range(0..300),
            delay_per_mille: rng.gen_range(0..400),
            max_delay_ticks: rng.gen_range(1..8),
            crashes,
            clock_skew_ticks: skew,
            rpc_retry_limit: 8,
            backoff_base_ticks: 1,
        }
    }

    /// Clock skew for `site` (zero if the vector does not cover it).
    pub fn skew_of(&self, site: SiteId) -> i64 {
        self.clock_skew_ticks.get(usize::from(site.raw())).copied().unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_plan_is_inactive() {
        assert!(!FaultPlan::none().is_active());
        let mut p = FaultPlan::none();
        p.dup_per_mille = 1;
        assert!(p.is_active());
    }

    #[test]
    fn chaos_plans_are_seed_deterministic() {
        let a = FaultPlan::chaos(42, 4, 1000);
        let b = FaultPlan::chaos(42, 4, 1000);
        assert_eq!(a, b);
        let c = FaultPlan::chaos(43, 4, 1000);
        assert_ne!(a, c, "different seeds should differ (with overwhelming probability)");
    }

    #[test]
    fn chaos_crashes_respect_the_horizon_and_restart() {
        for seed in 0..32 {
            let p = FaultPlan::chaos(seed, 6, 500);
            for c in &p.crashes {
                assert!(c.at_tick < 250);
                assert!(c.down_ticks >= 1 && c.down_ticks <= 125);
            }
            assert!(p.effective_drop_per_mille() <= FaultPlan::MAX_DROP_PER_MILLE);
        }
    }

    #[test]
    fn skew_defaults_to_zero_beyond_vector() {
        let mut p = FaultPlan::none();
        p.clock_skew_ticks = vec![3, -2];
        assert_eq!(p.skew_of(SiteId::new(0)), 3);
        assert_eq!(p.skew_of(SiteId::new(1)), -2);
        assert_eq!(p.skew_of(SiteId::new(9)), 0);
    }
}
