//! Distributed-system metrics: everything the single-site engine counts,
//! plus the §3.3 quantities — messages and per-scheme rollback causes.

/// Counters accumulated by a [`crate::DistributedSystem`].
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct DistMetrics {
    /// Atomic operations completed.
    pub ops_executed: u64,
    /// Transactions committed.
    pub commits: u64,
    /// Inter-site messages: remote lock/unlock traffic, coordinator graph
    /// maintenance (global detection), wound notifications.
    pub messages: u64,
    /// Deadlocks detected by a (global or per-site) graph.
    pub detected_deadlocks: u64,
    /// Rollbacks performed to break detected deadlocks.
    pub detection_rollbacks: u64,
    /// Wounds performed (wound-wait prevention).
    pub wounds: u64,
    /// Site-order violations resolved by rolling the requester back.
    pub order_violations: u64,
    /// States lost across all rollbacks (the paper's damage measure).
    pub states_lost: u64,
    /// States lost beyond ideal targets (strategy overshoot).
    pub rollback_overshoot: u64,
    /// Wait responses issued.
    pub waits: u64,
    /// Request attempts beyond the first (fault injection only).
    pub retries: u64,
    /// Requests that exhausted their retry budget and stalled the caller.
    pub timeouts: u64,
    /// Scheduling slots burned by transactions stalled on a timed-out or
    /// down-site request.
    pub stall_steps: u64,
    /// Messages lost in transit (dropped by the plan, or addressed to a
    /// site that was down at delivery time).
    pub dropped_messages: u64,
    /// Duplicate deliveries recognized by sequence number and discarded.
    pub dups_suppressed: u64,
    /// Asynchronous graph updates that arrived after their wait had
    /// already resolved, and were discarded as stale.
    pub stale_updates_discarded: u64,
    /// Virtual ticks spent in exponential backoff between attempts.
    pub backoff_ticks: u64,
    /// Deadlocks found by the site-local fallback detector while the
    /// coordinator was unreachable.
    pub local_fallback_detections: u64,
    /// Times the waits-for graphs were rebuilt from lock-table truth
    /// (coordinator recovery, or the run-loop backstop after message loss).
    pub reconciliations: u64,
    /// Site crashes injected.
    pub crashes: u64,
    /// Transactions aborted because their home site crashed.
    pub crash_aborts: u64,
    /// Lock grants expired because their entity's site crashed.
    pub expired_grants: u64,
    /// Partial rollbacks performed to carry survivors past lost lock state.
    pub recovery_rollbacks: u64,
    /// States lost to recovery rollbacks (included in `states_lost`).
    pub recovery_states_lost: u64,
    /// Site restarts completed.
    pub recoveries: u64,
    /// Total ticks from crash to restart, summed over recoveries
    /// (time-to-recover; divide by `recoveries` for the mean).
    pub ttr_ticks: u64,
    /// Coordinator crashes that forced `GlobalDetection` into degraded,
    /// site-local fallback mode.
    pub coordinator_outages: u64,
}

impl DistMetrics {
    /// All rollbacks of any cause.
    pub fn rollbacks(&self) -> u64 {
        self.detection_rollbacks + self.wounds + self.order_violations
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rollbacks_sums_causes() {
        let m = DistMetrics {
            detection_rollbacks: 2,
            wounds: 3,
            order_violations: 4,
            ..Default::default()
        };
        assert_eq!(m.rollbacks(), 9);
    }
}
