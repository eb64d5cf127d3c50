//! Correctness checks over a run's durable history. The linear ones run
//! on every timed run; [`full_oracle`] runs only on a short run.

use crate::load::LoadRun;
use crate::workload::{Pool, INIT};
use pr_core::SystemConfig;
use pr_model::{LockMode, Value};
use pr_par::CommittedAccess;
use pr_server::Recovery;
use pr_storage::GlobalStore;

/// The recovered log holds exactly the acknowledged transactions, each
/// with the lock set of the program it was acknowledged for.
pub fn access_sets(pool: &Pool, order: &[usize], rec: &Recovery) -> Result<(), String> {
    if rec.summary.txns != order.len() as u64 {
        return Err(format!("{} txns acknowledged but {} replayed", order.len(), rec.summary.txns));
    }
    let mut seen: Vec<(u32, u32, bool)> = rec
        .accesses
        .iter()
        .map(|a| (a.txn.raw(), a.entity.raw(), a.mode == LockMode::Exclusive))
        .collect();
    seen.sort_unstable();
    let expected = order.iter().enumerate().flat_map(|(i, &entry)| {
        pool.subs[entry].locks.iter().map(move |&(e, x)| (i as u32 + 1, e, x))
    });
    if !seen.iter().copied().eq(expected) {
        return Err("replayed accesses differ from the acknowledged programs' locks".into());
    }
    Ok(())
}

/// The history is conflict-serializable: the conflict graph, reduced to
/// O(accesses) edges with the same reachability, has no cycle. Per
/// entity in stamp order, each access follows the last write, and each
/// write also follows the reads since that write.
pub fn acyclic(accesses: &[CommittedAccess], txns: usize) -> Result<(), String> {
    let mut by_entity: Vec<&CommittedAccess> = accesses.iter().collect();
    by_entity.sort_unstable_by_key(|a| (a.entity, a.stamp));
    let mut edges: Vec<(u32, u32)> = Vec::new();
    for run in by_entity.chunk_by(|a, b| a.entity == b.entity) {
        let mut last_write: Option<u32> = None;
        let mut reads: Vec<u32> = Vec::new();
        for a in run {
            let t = a.txn.raw();
            edges.extend(last_write.filter(|&w| w != t).map(|w| (w, t)));
            if a.mode == LockMode::Exclusive {
                edges.extend(reads.drain(..).filter(|&r| r != t).map(|r| (r, t)));
                last_write = Some(t);
            } else {
                reads.push(t);
            }
        }
    }
    // Kahn's algorithm over txn ids 1..=txns.
    let mut indegree = vec![0u32; txns + 1];
    let mut out: Vec<Vec<u32>> = vec![Vec::new(); txns + 1];
    for &(from, to) in &edges {
        if from as usize > txns || to as usize > txns {
            return Err(format!("history names txn {} beyond {txns}", from.max(to)));
        }
        out[from as usize].push(to);
        indegree[to as usize] += 1;
    }
    let mut ready: Vec<u32> = (1..=txns as u32).filter(|&t| indegree[t as usize] == 0).collect();
    let mut done = 0;
    while let Some(t) = ready.pop() {
        done += 1;
        for &next in &out[t as usize] {
            indegree[next as usize] -= 1;
            if indegree[next as usize] == 0 {
                ready.push(next);
            }
        }
    }
    if done != txns {
        return Err(format!("conflict graph has a cycle among {} txns", txns - done));
    }
    Ok(())
}

/// The recovered database equals the initial one plus every
/// acknowledged program's deltas (the effects commute).
pub fn final_state(pool: &Pool, order: &[usize], rec: &Recovery) -> Result<(), String> {
    let mut expected = vec![INIT; rec.store.len()];
    for &entry in order {
        for &(e, d) in &pool.subs[entry].deltas {
            expected[e as usize] += d;
        }
    }
    for (id, v) in rec.store.iter() {
        let want = expected.get(id.raw() as usize);
        if want != Some(&v.raw()) {
            return Err(format!("{id} is {} after recovery, expected {want:?}", v.raw()));
        }
    }
    Ok(())
}

/// Every submission was answered `COMMITTED`, and the server counted as
/// many commits as were acknowledged (`acked`, the probe included). The
/// workloads never abort, so a refused submission fails the check.
pub fn answered(run: &LoadRun, acked: usize, server_commits: f64) -> Result<String, String> {
    if run.unanswered + run.refused > 0 {
        return Err(format!(
            "of {} submissions, {} unanswered and {} refused",
            run.attempted, run.unanswered, run.refused
        ));
    }
    if server_commits != acked as f64 {
        return Err(format!("{acked} acknowledged but STATS commits={server_commits}"));
    }
    Ok(format!("({} submissions, {} committed)", run.attempted, run.committed))
}

/// The differential oracle: conflict-serializability over the full
/// conflict graph, plus a serial re-execution of every program.
pub fn full_oracle(pool: &Pool, order: &[usize], rec: &Recovery) -> Result<String, String> {
    let programs: Vec<_> = order.iter().map(|&entry| pool.program(entry)).collect();
    let initial = GlobalStore::with_entities(rec.store.len() as u32, Value::new(INIT));
    let report = pr_sim::oracle::check_server_history(
        &programs,
        &initial,
        &SystemConfig::default(),
        &rec.accesses,
        &rec.store.snapshot(),
    )
    .map_err(|v| format!("oracle violation: {v}"))?;
    Ok(format!(
        "{} txns, {} accesses, {} conflict edges",
        report.txns, report.accesses, report.conflict_edges
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use pr_model::{EntityId, TxnId};

    fn access(txn: u32, entity: u32, exclusive: bool, stamp: u64) -> CommittedAccess {
        let mode = if exclusive { LockMode::Exclusive } else { LockMode::Shared };
        CommittedAccess { txn: TxnId::new(txn), entity: EntityId::new(entity), mode, stamp }
    }

    #[test]
    fn serial_histories_are_acyclic() {
        // T1 writes 0 and reads 1; T2 reads 0 then T3 writes 0 and 1.
        let h = [
            access(1, 0, true, 1),
            access(1, 1, false, 2),
            access(2, 0, false, 3),
            access(3, 0, true, 4),
            access(3, 1, true, 5),
        ];
        assert!(acyclic(&h, 3).is_ok());
    }

    #[test]
    fn write_skew_is_a_cycle() {
        // T1 reads 0 before T2 writes it; T2 reads 1 before T1 writes it.
        let h = [
            access(1, 0, false, 1),
            access(2, 1, false, 2),
            access(2, 0, true, 3),
            access(1, 1, true, 4),
        ];
        assert!(acyclic(&h, 2).is_err());
    }

    #[test]
    fn a_three_cycle_through_reads_is_found() {
        // T1 -> T2 on entity 0, T2 -> T3 on entity 1, T3 -> T1 on entity 2;
        // the read of T4 in between must not break the chain.
        let h = [
            access(1, 0, true, 1),
            access(4, 0, false, 2),
            access(2, 0, true, 3),
            access(2, 1, true, 4),
            access(3, 1, false, 5),
            access(3, 2, true, 6),
            access(1, 2, true, 7),
        ];
        assert!(acyclic(&h, 4).is_err());
    }
}
