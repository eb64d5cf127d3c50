//! Durability: the group-commit journal and crash recovery.
//!
//! This module is the bridge between the engine's batch outcomes and the
//! storage crate's write-ahead log. [`Journal`] turns each executed batch
//! into one redo record (the batch's net entity deltas, the committed
//! access history, and the client request ids as idempotence tokens) plus
//! a commit marker, appended **before** the batch's COMMITTED replies
//! publish. The deltas are the outcome's own:
//! [`pr_par::Session::execute`] reports exactly the entities whose value
//! the batch changed, so logging a batch costs O(batch), never
//! O(database). [`recover`] replays the durable prefix of a log
//! directory into a fresh store and hands back everything a server needs
//! to resume exactly where the dead process stopped: txn and stamp
//! high-water marks, the recovered access history for the HISTORY
//! surface, and the sealed log ready for further appends.
//!
//! The invariant the test battery proves: under the `per-batch` flush
//! policy, **acknowledged ⇒ replayed** — any transaction whose COMMITTED
//! reply was ever observable survives `kill -9`, and recovery is
//! all-or-nothing per batch. `every-N` widens the loss window to at most
//! N−1 *whole* acknowledged batches; `off` leaves durability to graceful
//! drain (which always syncs before SHUTDOWN_ACK).

use pr_model::{EntityId, LockMode, TxnId, Value};
use pr_par::CommittedAccess;
use pr_storage::wal::{replay, seal, FlushPolicy, LogDir, Wal, WalAccess, WalError, WalStats};
use pr_storage::{BatchRecord, GlobalStore, Snapshot};
use std::path::PathBuf;
use std::sync::Arc;

/// Durability knobs, part of the server configuration.
#[derive(Clone, Debug)]
pub struct DurabilityConfig {
    /// Redo-log directory. `None` disables the journal entirely.
    pub dir: Option<PathBuf>,
    /// When appended records are fsynced.
    pub flush: FlushPolicy,
    /// Replay the durable prefix of `dir` before serving.
    pub recover: bool,
    /// Segment size before the writer rolls to a new file.
    pub segment_max: u64,
}

impl Default for DurabilityConfig {
    fn default() -> Self {
        DurabilityConfig {
            dir: None,
            flush: FlushPolicy::PerBatch,
            recover: false,
            segment_max: pr_storage::wal::DEFAULT_SEGMENT_MAX,
        }
    }
}

/// What `recover` replayed out of the log.
#[derive(Clone, Debug, Default)]
pub struct RecoverySummary {
    /// Batches in the durable prefix.
    pub batches: u64,
    /// Transactions in the durable prefix.
    pub txns: u64,
    /// Highest recovered txn id — the resumed session's admission base.
    pub txn_hwm: u32,
    /// Highest recovered grant stamp — the resumed session's clock base.
    pub stamp_hwm: u64,
    /// Highest recovered batch id — the journal continues at `+1`.
    pub last_batch_id: u64,
    /// Whether the scan stopped at a torn tail (sealed away) rather than
    /// the clean end of the log.
    pub torn_tail: bool,
}

/// Full recovery state: the summary plus the rebuilt store and history.
pub struct Recovery {
    /// Counters for logs and metrics.
    pub summary: RecoverySummary,
    /// The store with every durable batch's deltas applied.
    pub store: GlobalStore,
    /// The recovered access history, typed for the HISTORY surface and
    /// the serializability oracle.
    pub accesses: Vec<CommittedAccess>,
}

/// Replays the durable prefix of `dir` over a fresh
/// `GlobalStore::with_entities(entities, init)` and seals the log so a
/// reopened writer appends strictly after valid data.
pub fn recover(dir: &dyn LogDir, entities: u32, init: i64) -> Result<Recovery, WalError> {
    let outcome = replay(dir)?;
    let mut store = GlobalStore::with_entities(entities, Value::new(init));
    outcome.apply(&mut store)?;
    seal(dir, &outcome)?;
    let accesses = outcome
        .batches
        .iter()
        .flat_map(|b| b.accesses.iter())
        .map(|a| CommittedAccess {
            txn: TxnId::new(a.txn),
            entity: EntityId::new(a.entity),
            mode: if a.exclusive { LockMode::Exclusive } else { LockMode::Shared },
            stamp: a.stamp,
        })
        .collect();
    Ok(Recovery {
        summary: RecoverySummary {
            batches: outcome.batches.len() as u64,
            txns: outcome.commits(),
            txn_hwm: outcome.txn_hwm(),
            stamp_hwm: outcome.stamp_hwm(),
            last_batch_id: outcome.last_batch_id(),
            torn_tail: !outcome.tail.is_clean(),
        },
        store,
        accesses,
    })
}

/// The group-commit journal: owns the WAL writer and the batch-id
/// sequence.
pub struct Journal {
    wal: Wal,
    next_batch_id: u64,
}

impl Journal {
    /// Opens the journal for appending. `last_batch_id` continues the
    /// recovered sequence (0 on a fresh start).
    ///
    /// `_baseline` is unused. It remains in the signature only so that
    /// existing callers keep compiling: each batch's deltas come from its
    /// outcome, so the journal needs no copy of the store.
    pub fn open(
        dir: Arc<dyn LogDir>,
        config: &DurabilityConfig,
        _baseline: Snapshot,
        last_batch_id: u64,
    ) -> Result<Journal, WalError> {
        let wal = Wal::open(dir, config.flush, config.segment_max)?;
        Ok(Journal { wal, next_batch_id: last_batch_id + 1 })
    }

    /// Logs one executed batch: redo record + commit marker, flush policy
    /// applied. `deltas` is the batch outcome's snapshot — the entities
    /// whose value the batch changed, with their final values — and is
    /// logged as is. Returns `true` when the marker was fsynced (the acks
    /// that follow are then crash-proof). On error the batch MUST NOT be
    /// acknowledged — the caller treats it like an engine failure.
    pub fn log_batch(
        &mut self,
        txn_base: u32,
        request_ids: &[u64],
        stamp_hwm: u64,
        deltas: &Snapshot,
        accesses: &[CommittedAccess],
    ) -> Result<bool, WalError> {
        let record = BatchRecord {
            batch_id: self.next_batch_id,
            txn_base,
            txn_count: request_ids.len() as u32,
            stamp_hwm,
            request_ids: request_ids.to_vec(),
            deltas: deltas.iter().collect(),
            accesses: accesses
                .iter()
                .map(|a| WalAccess {
                    txn: a.txn.raw(),
                    entity: a.entity.raw(),
                    exclusive: a.mode == LockMode::Exclusive,
                    stamp: a.stamp,
                })
                .collect(),
        };
        self.wal.append_batch(&record)?;
        let synced = self.wal.commit_batch(self.next_batch_id)?;
        self.next_batch_id += 1;
        Ok(synced)
    }

    /// Fsyncs the tail segment unconditionally — the graceful-drain call
    /// that makes SHUTDOWN_ACK imply durability under every policy.
    pub fn sync(&mut self) -> Result<(), WalError> {
        self.wal.sync()
    }

    /// Writer counters, for `ServerMetrics`.
    pub fn stats(&self) -> WalStats {
        self.wal.stats()
    }
}
