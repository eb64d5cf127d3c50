//! Property-based tests over the core invariants.
//!
//! The crown jewel is **replay equivalence**: executing a transaction,
//! rolling it back to any strategy-reachable lock state, and re-executing
//! must produce exactly the same final values as an uninterrupted run —
//! for both the MCS stacks and the single-copy/SDG workspace. This is the
//! §2/§4 correctness contract of the rollback operation itself.

use partial_rollback::core::runtime::TxnRuntime;
use partial_rollback::core::StrategyKind;
use partial_rollback::graph::articulation::well_defined_by_articulation;
use partial_rollback::model::analysis::{self, WriteEdge};
use partial_rollback::prelude::*;
use partial_rollback::sim::generator::{Clustering, GeneratorConfig, ProgramGenerator};
use proptest::prelude::*;
use std::collections::BTreeMap;

/// A deterministic "global value" for each entity, so replays are
/// comparable.
fn global_of(e: EntityId) -> Value {
    Value::new(1_000 + i64::from(e.raw()))
}

/// Executes ops `[from, to)` of a solo transaction against its runtime
/// (all lock requests trivially granted).
fn execute_range(rt: &mut TxnRuntime, program: &TransactionProgram, from: usize, to: usize) {
    let mut pc = from;
    while pc < to {
        let op = program.op(pc).expect("in range").clone();
        match op {
            Op::LockShared(e) => rt.complete_lock(e, LockMode::Shared, global_of(e)),
            Op::LockExclusive(e) => rt.complete_lock(e, LockMode::Exclusive, global_of(e)),
            Op::Unlock(e) => {
                rt.complete_unlock(e);
            }
            Op::Read { entity, into } => {
                let v = rt.read_entity(entity, global_of(entity));
                rt.assign_var(into, v).unwrap();
            }
            Op::Write { entity, expr } => {
                let v = expr.eval(rt.workspace.vars());
                rt.write_entity(entity, v).unwrap();
            }
            Op::Assign { var, expr } => {
                let v = expr.eval(rt.workspace.vars());
                rt.assign_var(var, v).unwrap();
            }
            Op::Compute(expr) => {
                let _ = expr.eval(rt.workspace.vars());
                rt.advance();
            }
            Op::Commit => rt.advance(),
        }
        pc = rt.pc;
    }
}

/// Snapshot of a runtime's observable data state: every held entity's
/// local view plus all locals.
fn observable(
    rt: &TxnRuntime,
    program: &TransactionProgram,
) -> (Vec<(EntityId, Value)>, Vec<Value>) {
    let mut entities = Vec::new();
    for e in program.locked_entities() {
        if rt.held.contains(&e) {
            entities.push((e, rt.read_entity(e, global_of(e))));
        }
    }
    (entities, rt.workspace.vars().to_vec())
}

fn generator_strategy() -> impl Strategy<Value = (u64, u8, u16)> {
    (0u64..5_000, 0u8..3, 0u16..=1000)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Replay equivalence for MCS: rollback to ANY lock state, then
    /// re-execute — the observable state at every subsequent point matches
    /// an uninterrupted execution.
    #[test]
    fn mcs_rollback_replay_equivalence((seed, _, spread) in generator_strategy()) {
        let cfg = GeneratorConfig {
            num_entities: 8,
            min_locks: 2,
            max_locks: 6,
            writes_per_entity: 2,
            pad_between: 1,
            clustering: Clustering::Spread { spread_per_mille: spread },
            explicit_unlocks: false,
            ..Default::default()
        };
        let program = ProgramGenerator::new(cfg, seed).generate();
        let end = program.len() - 1; // stop before COMMIT

        // Uninterrupted reference run.
        let mut reference = TxnRuntime::new(TxnId::new(1), program.clone(), 0, StrategyKind::Mcs);
        execute_range(&mut reference, &program, 0, end);
        let want = observable(&reference, &program);

        // Interrupted runs: every rollback target.
        let n_locks = program.num_lock_requests();
        for target in 0..n_locks as u32 {
            let mut rt = TxnRuntime::new(TxnId::new(1), program.clone(), 0, StrategyKind::Mcs);
            execute_range(&mut rt, &program, 0, end);
            rt.rollback_to(LockIndex::new(target)).unwrap();
            let resume = rt.pc;
            execute_range(&mut rt, &program, resume, end);
            let got = observable(&rt, &program);
            prop_assert_eq!(&got, &want, "target {}", target);
        }
    }

    /// Replay equivalence for the single-copy workspace: rollback to any
    /// *well-defined* lock state must succeed and replay identically;
    /// rollback to an undefined state must fail without corrupting it.
    #[test]
    fn sdg_rollback_replay_equivalence((seed, _, spread) in generator_strategy()) {
        let cfg = GeneratorConfig {
            num_entities: 8,
            min_locks: 2,
            max_locks: 6,
            writes_per_entity: 2,
            pad_between: 1,
            clustering: Clustering::Spread { spread_per_mille: spread },
            explicit_unlocks: false,
            ..Default::default()
        };
        let program = ProgramGenerator::new(cfg, seed).generate();
        let end = program.len() - 1;
        let a = analysis::analyze(&program);

        let mut reference = TxnRuntime::new(TxnId::new(1), program.clone(), 0, StrategyKind::Sdg);
        execute_range(&mut reference, &program, 0, end);
        let want = observable(&reference, &program);

        for target in 0..program.num_lock_requests() as u32 {
            let mut rt = TxnRuntime::new(TxnId::new(1), program.clone(), 0, StrategyKind::Sdg);
            execute_range(&mut rt, &program, 0, end);
            // The runtime SDG and the static analysis must agree on what
            // is well-defined.
            let runtime_wd = rt.sdg.as_ref().unwrap().is_well_defined(LockIndex::new(target));
            prop_assert_eq!(runtime_wd, a.is_well_defined(target), "wd mismatch at {}", target);
            let result = rt.rollback_to(LockIndex::new(target));
            if a.is_well_defined(target) {
                prop_assert!(result.is_ok(), "well-defined target {} must be reachable", target);
                let resume = rt.pc;
                execute_range(&mut rt, &program, resume, end);
                let got = observable(&rt, &program);
                prop_assert_eq!(&got, &want, "target {}", target);
            } else {
                prop_assert!(result.is_err(), "undefined target {} must be rejected", target);
            }
        }
    }

    /// Replay equivalence for the bounded-copy workspace (the paper's
    /// closing extension): rollback to any state its eviction graph deems
    /// well-defined must replay identically; and a large budget must keep
    /// every lock state well-defined (degenerating to full MCS).
    #[test]
    fn bounded_rollback_replay_equivalence((seed, _, spread) in generator_strategy()) {
        let cfg = GeneratorConfig {
            num_entities: 8,
            min_locks: 2,
            max_locks: 6,
            writes_per_entity: 3,
            pad_between: 1,
            clustering: Clustering::Spread { spread_per_mille: spread },
            explicit_unlocks: false,
            ..Default::default()
        };
        let program = ProgramGenerator::new(cfg, seed).generate();
        let end = program.len() - 1;

        for budget in [1u32, 2, 100] {
            let strategy = StrategyKind::Bounded(budget);
            let mut reference = TxnRuntime::new(TxnId::new(1), program.clone(), 0, strategy);
            execute_range(&mut reference, &program, 0, end);
            let want = observable(&reference, &program);
            if budget == 100 {
                // Nothing evicted: every lock state stays well-defined.
                let wd = reference.sdg.as_ref().unwrap().well_defined_states().len();
                prop_assert_eq!(wd, program.num_lock_requests() + 1);
            }

            for target in 0..program.num_lock_requests() as u32 {
                let mut rt = TxnRuntime::new(TxnId::new(1), program.clone(), 0, strategy);
                execute_range(&mut rt, &program, 0, end);
                if !rt.sdg.as_ref().unwrap().is_well_defined(LockIndex::new(target)) {
                    continue; // evicted interval — the engine never aims here
                }
                rt.rollback_to(LockIndex::new(target)).unwrap();
                let resume = rt.pc;
                execute_range(&mut rt, &program, resume, end);
                let got = observable(&rt, &program);
                prop_assert_eq!(&got, &want, "budget {} target {}", budget, target);
            }
        }
    }

    /// Theorem 4 / Corollary 1: interval and articulation-point
    /// characterisations agree on arbitrary edge sets.
    #[test]
    fn interval_and_articulation_agree(
        n in 1u32..20,
        raw_edges in prop::collection::vec((0u32..20, 0u32..20), 0..12),
    ) {
        let edges: Vec<WriteEdge> = raw_edges
            .iter()
            .map(|&(a, b)| WriteEdge { u: a.min(b) % n, w: (a.max(b) % (n + 1)).max(a.min(b) % n) })
            .collect();
        let interval: Vec<u32> = analysis::well_defined_states(n, &edges);
        let pairs: Vec<(u32, u32)> = edges.iter().map(|e| (e.u, e.w)).collect();
        let artic: Vec<u32> = well_defined_by_articulation(n, &pairs)
            .into_iter()
            .map(LockIndex::raw)
            .collect();
        prop_assert_eq!(interval, artic);
    }

    /// Theorem 3: MCS copy counts never exceed `n(n+1)/2 + n·|L|`.
    #[test]
    fn theorem3_bound_holds_for_random_programs((seed, _, spread) in generator_strategy()) {
        let cfg = GeneratorConfig {
            num_entities: 10,
            min_locks: 2,
            max_locks: 8,
            writes_per_entity: 3,
            clustering: Clustering::Spread { spread_per_mille: spread },
            explicit_unlocks: false,
            ..Default::default()
        };
        let program = ProgramGenerator::new(cfg, seed).generate();
        let mut rt = TxnRuntime::new(TxnId::new(1), program.clone(), 0, StrategyKind::Mcs);
        execute_range(&mut rt, &program, 0, program.len() - 1);
        let n = program.num_lock_requests();
        let l = program.num_vars();
        let bound = n * (n + 1) / 2 + n * l;
        prop_assert!(rt.copies() <= bound, "copies {} > bound {}", rt.copies(), bound);
    }

    /// Generated programs always validate.
    #[test]
    fn generated_programs_validate((seed, cl, spread) in generator_strategy()) {
        let clustering = match cl {
            0 => Clustering::Clustered,
            1 => Clustering::Spread { spread_per_mille: spread },
            _ => Clustering::ThreePhase,
        };
        let cfg = GeneratorConfig { clustering, ..Default::default() };
        let program = ProgramGenerator::new(cfg, seed).generate();
        prop_assert!(partial_rollback::model::validate::is_valid(&program));
    }

    /// The cost function is monotone: deeper rollback targets never cost
    /// less (the assumption the cut-set merge relies on).
    #[test]
    fn rollback_cost_is_monotone_in_depth((seed, _, _) in generator_strategy()) {
        let cfg = GeneratorConfig { min_locks: 3, max_locks: 7, ..Default::default() };
        let program = ProgramGenerator::new(cfg, seed).generate();
        let mut rt = TxnRuntime::new(TxnId::new(1), program.clone(), 0, StrategyKind::Mcs);
        // Execute the growing phase only.
        let first_unlock = program
            .ops()
            .iter()
            .position(|op| matches!(op, Op::Unlock(_)))
            .unwrap_or(program.len() - 1);
        execute_range(&mut rt, &program, 0, first_unlock);
        let mut prev = u32::MAX;
        for k in 0..rt.lock_states.len() as u32 {
            let cost = rt.cost_to_lock_state(LockIndex::new(k));
            prop_assert!(cost <= prev, "cost must not increase with depth");
            prev = cost;
        }
    }
}

/// Deterministic (non-proptest) check that the engine keeps the waits-for
/// graph acyclic at every step of a hot workload — deadlocks are resolved
/// the moment they form — under both grant policies. (The fair queue adds
/// waiter→waiter arcs; the invariant that no cycle survives a step is
/// policy-independent.)
#[test]
fn graph_stays_acyclic_between_steps() {
    let cfg = GeneratorConfig { num_entities: 5, min_locks: 2, max_locks: 4, ..Default::default() };
    for policy in GrantPolicy::ALL {
        for seed in 0..5u64 {
            let mut g = ProgramGenerator::new(cfg, seed);
            let programs = g.generate_workload(10);
            let store = GlobalStore::with_entities(5, Value::new(10));
            let mut sys = System::new(
                store,
                SystemConfig::new(StrategyKind::Mcs, VictimPolicyKind::PartialOrder)
                    .with_grant_policy(policy),
            );
            let mut ids = Vec::new();
            for p in programs {
                ids.push(sys.admit(p).unwrap());
            }
            let mut order = BTreeMap::new();
            for (i, id) in ids.iter().enumerate() {
                order.insert(*id, i);
            }
            let mut rr = RoundRobin::new();
            for _ in 0..100_000 {
                let ready = sys.ready();
                if ready.is_empty() {
                    break;
                }
                let pick = rr.pick(&ready);
                sys.step(pick).unwrap();
                sys.check_invariants().unwrap();
            }
            assert!(sys.all_committed(), "policy {policy:?} seed {seed}");
        }
    }
}
