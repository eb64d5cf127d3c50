//! The session delta contract.
//!
//! `Session::execute` reports, as its outcome's `snapshot`, exactly the
//! entities whose value the batch changed, with their final values: the
//! diff of the full snapshots taken before and after the batch. The
//! server's journal logs that delta verbatim as the batch's redo record,
//! so an entity it missed would be lost at recovery and one it invented
//! would be harmless but would break the record's "net changes only"
//! content. These tests pin the contract across every strategy, for
//! generated multi-batch sessions and for contended batches whose
//! deadlocks roll back writes that are never published.

use partial_rollback::prelude::*;
use partial_rollback::sim::generator::{GeneratorConfig, ProgramGenerator};
use proptest::prelude::*;

fn par_config(threads: usize, strategy: StrategyKind) -> ParConfig {
    ParConfig {
        threads,
        shards: 4,
        system: SystemConfig::new(strategy, VictimPolicyKind::PartialOrder),
        fast_path: true,
    }
}

/// The entities on which `after` differs from `before`, with their
/// values in `after`.
fn full_diff(before: &Snapshot, after: &Snapshot) -> Snapshot {
    Snapshot::from_pairs(after.iter().filter(|&(id, v)| before.get(id) != Some(v)))
}

/// Executes `batch` and checks its outcome against the full-snapshot
/// diff around it. Returns the batch's deadlock count.
fn execute_checked(session: &mut Session, batch: &[TransactionProgram]) -> Result<u64, String> {
    let before = session.snapshot();
    let out = session.execute(batch).map_err(|e| format!("execute: {e}"))?;
    let expected = full_diff(&before, &session.snapshot());
    if out.snapshot != expected {
        return Err(format!("outcome delta {:?} != full diff {:?}", out.snapshot, expected));
    }
    Ok(out.metrics.deadlocks)
}

/// `LX(first); first += delta; <pad>; LX(second); second -= delta;
/// COMMIT`. Opposite lock orders across transactions deadlock, and the
/// padding keeps both first locks held long enough for that to happen.
fn padded_transfer(first: u32, second: u32, delta: i64, pad: usize) -> TransactionProgram {
    let bump = |entity: u32, var: u16, d: i64| {
        let (entity, var) = (EntityId::new(entity), VarId::new(var));
        vec![
            Op::Read { entity, into: var },
            Op::Assign { var, expr: Expr::add(Expr::var(var), Expr::lit(d)) },
            Op::Write { entity, expr: Expr::var(var) },
        ]
    };
    let mut ops = vec![Op::LockExclusive(EntityId::new(first))];
    ops.extend(bump(first, 0, delta));
    for _ in 0..pad {
        ops.push(Op::Compute(Expr::add(Expr::var(VarId::new(0)), Expr::lit(1))));
    }
    ops.push(Op::LockExclusive(EntityId::new(second)));
    ops.extend(bump(second, 1, -delta));
    ops.push(Op::Commit);
    TransactionProgram::try_from(ops).unwrap()
}

/// Opposed transfers of equal size on entities 0 and 1 cancel out, so
/// those entities are written by every batch yet never change; the pair
/// on 2 and 3 nets `round`. Deadlocks between the opposed transfers roll
/// victims back past writes they never publish. Every outcome must still
/// equal the full diff, and across the strategies the resolver must
/// actually have run.
#[test]
fn contended_batches_report_net_deltas_for_every_strategy() {
    let mut deadlocks = 0;
    for strategy in StrategyKind::ALL {
        let store = GlobalStore::with_entities(4, Value::new(50));
        let mut session = Session::new(&store, par_config(4, strategy));
        for round in 0..4i64 {
            let mut batch = Vec::new();
            for _ in 0..4 {
                batch.push(padded_transfer(0, 1, 5, 1_500));
                batch.push(padded_transfer(1, 0, 5, 1_500));
            }
            batch.push(padded_transfer(2, 3, round + 1, 1_500));
            batch.push(padded_transfer(3, 2, 1, 1_500));
            deadlocks += execute_checked(&mut session, &batch)
                .unwrap_or_else(|e| panic!("{strategy:?} round {round}: {e}"));
        }
        assert_eq!(session.snapshot().get(EntityId::new(0)), Some(Value::new(50)));
        session.finish().unwrap_or_else(|e| panic!("{strategy:?}: {e}"));
    }
    assert!(deadlocks > 0, "no batch deadlocked, so no rolled-back write was exercised");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Random multi-batch sessions over generated workloads, for every
    /// strategy, skew and padding: each batch's outcome is exactly the
    /// full-snapshot diff around it.
    #[test]
    fn session_outcomes_equal_the_full_snapshot_diff(
        workload_seed in 0u64..10_000,
        skew_centi in prop_oneof![Just(0u16), Just(150u16)],
        pad in prop_oneof![Just(0usize), Just(300usize)],
        batch_sizes in prop::collection::vec(0usize..9, 1..5),
        strategy_idx in 0usize..4,
    ) {
        let generator = GeneratorConfig {
            num_entities: 12,
            skew_centi,
            pad_between: pad,
            ..GeneratorConfig::default()
        };
        let mut programs = ProgramGenerator::new(generator, workload_seed);
        let strategy = StrategyKind::ALL[strategy_idx];
        let mut session =
            Session::new(&GlobalStore::with_entities(12, Value::new(100)), par_config(2, strategy));
        for size in batch_sizes {
            let batch = programs.generate_workload(size);
            execute_checked(&mut session, &batch).map_err(TestCaseError::fail)?;
        }
        session.finish().map_err(|e| TestCaseError::fail(e.to_string()))?;
    }
}
