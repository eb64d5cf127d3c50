//! The benchmark's workloads and the seeded submission pool a run draws
//! from. Everything here happens before any clock starts.

use pr_core::{GrantPolicy, StrategyKind, SystemConfig, VictimPolicyKind};
use pr_model::interpret::run_solo;
use pr_model::{EntityId, LockMode, Op, TransactionProgram, Value};
use pr_par::ParConfig;
use pr_server::wire::{decode_request, encode_request, frame, Request};
use pr_sim::generator::{GeneratorConfig, ProgramGenerator};
use std::collections::BTreeMap;

/// Initial value of every entity, on the server and in every check.
pub const INIT: i64 = 100;
/// Engine worker threads, in `pr-server --threads` and in the replay.
pub const SERVER_THREADS: usize = 2;
/// Distinct programs generated per run; clients cycle through their share.
const POOL_PROGRAMS: usize = 8192;

/// One traffic mix: database shape, program shape and client count.
#[derive(Clone, Debug)]
pub struct Workload {
    pub name: &'static str,
    pub entities: u32,
    pub clients: usize,
    pub generator: GeneratorConfig,
    /// Submissions per client in the fixed-size run that `recover_s` and
    /// `server_rss_mb` are measured on, about 3 s today. The log and the
    /// history they depend on then keep their size whatever the speed.
    pub durable_per_client: usize,
    /// The stress the workload claims: batches flush on the deadline
    /// (else on fill), deadlocks resolve by partial rollback, and a
    /// 1-transaction batch costs at least 10x hot-rollback's.
    pub deadline_flushes: bool,
    pub partial_rollbacks: bool,
    pub fixed_cost_dominates: bool,
}

impl Workload {
    pub fn by_name(name: &str) -> Option<Workload> {
        let base = GeneratorConfig::default();
        let w =
            |name, entities, clients, durable_per_client, generator: GeneratorConfig| Workload {
                name,
                entities,
                clients,
                generator: GeneratorConfig { num_entities: entities, ..generator },
                durable_per_client,
                deadline_flushes: false,
                partial_rollbacks: false,
                fixed_cost_dominates: false,
            };
        let hot = GeneratorConfig { skew_centi: 120, pad_between: 20, ..base };
        let read_mostly = GeneratorConfig { exclusive_per_mille: 200, ..base };
        [
            // Long lock holds on a Zipf-hot set: partial rollback fires.
            Workload { partial_rollbacks: true, ..w("hot-rollback", 256, 1024, 64, hot) },
            // Data far beyond the CPU caches, no contention.
            Workload { fixed_cost_dominates: true, ..w("big-db", 1 << 20, 1024, 4, base) },
            // Too few clients to fill a batch: every flush is a deadline flush.
            Workload { deadline_flushes: true, ..w("interactive", 4096, 32, 1024, read_mostly) },
        ]
        .into_iter()
        .find(|w| w.name == name)
    }

    /// The engine configuration `pr-server` runs with under the flags
    /// [`Workload::server_args`] passes.
    pub fn par_config(&self) -> ParConfig {
        let system = SystemConfig::new(StrategyKind::Mcs, VictimPolicyKind::PartialOrder)
            .with_grant_policy(GrantPolicy::FairQueue);
        ParConfig { threads: SERVER_THREADS, shards: 0, system, fast_path: true }
    }

    /// `pr-server` flags for this workload (address and log excluded).
    pub fn server_args(&self) -> Vec<String> {
        [
            "--entities",
            &self.entities.to_string(),
            "--init",
            &INIT.to_string(),
            "--threads",
            &SERVER_THREADS.to_string(),
            "--strategy",
            "mcs",
            "--victim",
            "partial-order",
            "--policy",
            "fair-queue",
            "--wal-flush",
            "per-batch",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect()
    }
}

/// One pre-encoded submission plus what the checks need to know about it.
pub struct Submission {
    /// The whole `SUBMIT` frame; its request id is the client index.
    pub frame: Vec<u8>,
    /// `(entity, exclusive)` per lock request, sorted by entity.
    pub locks: Vec<(u32, bool)>,
    /// Net change per written entity. The generator's writes are
    /// `read + constant`, so effects commute and the final state of any
    /// serializable execution is the initial state plus every delta.
    pub deltas: Vec<(u32, i64)>,
}

/// Client `c`'s `seq`-th submission is `subs[c * per_client + seq % per_client]`;
/// the last entry is the readiness probe every server commits first.
pub struct Pool {
    pub clients: usize,
    pub per_client: usize,
    pub subs: Vec<Submission>,
}

impl Pool {
    /// Generates every client's programs from `seed` alone.
    pub fn generate(w: &Workload, seed: u64) -> Result<Pool, String> {
        let per_client = (POOL_PROGRAMS / w.clients).max(8);
        let mut subs = Vec::with_capacity(w.clients * per_client + 1);
        for c in 0..=w.clients {
            let client_seed = mix(seed ^ (c as u64).wrapping_mul(0x0100_0193));
            let mut gen = ProgramGenerator::new(w.generator, client_seed);
            let programs = if c == w.clients { 1 } else { per_client };
            for _ in 0..programs {
                subs.push(Submission::new(c as u64, gen.generate())?);
            }
        }
        Ok(Pool { clients: w.clients, per_client, subs })
    }

    pub fn probe(&self) -> usize {
        self.subs.len() - 1
    }

    pub fn entry(&self, client: usize, seq: usize) -> usize {
        client * self.per_client + seq % self.per_client
    }

    /// The program behind pool entry `i`, decoded from the bytes sent.
    pub fn program(&self, i: usize) -> TransactionProgram {
        program_of(&self.subs[i].frame[4..]).expect("pool frames decode to valid programs")
    }
}

impl Submission {
    fn new(request_id: u64, program: TransactionProgram) -> Result<Submission, String> {
        let mut locks: Vec<(u32, bool)> = program
            .lock_requests()
            .into_iter()
            .map(|(_, e, m)| (e.raw(), m == LockMode::Exclusive))
            .collect();
        locks.sort_unstable();
        let deltas = net_deltas(&program)?;
        let frame =
            frame(&encode_request(&Request::Submit { request_id, ops: program.ops().to_vec() }));
        Ok(Submission { frame, locks, deltas })
    }
}

/// Decodes a `SUBMIT` payload into the program the server would admit.
pub fn program_of(payload: &[u8]) -> Result<TransactionProgram, String> {
    match decode_request(payload).map_err(|e| e.to_string())? {
        Request::Submit { ops, .. } => ops_program(ops),
        other => Err(format!("expected SUBMIT, got {other:?}")),
    }
}

pub fn ops_program(ops: Vec<Op>) -> Result<TransactionProgram, String> {
    TransactionProgram::try_from(ops).map_err(|e| e.to_string())
}

/// Per written entity, the program's net change — refused unless the
/// program adds the same constant whatever the entity held before.
fn net_deltas(program: &TransactionProgram) -> Result<Vec<(u32, i64)>, String> {
    let from_zero = run_solo(program, &BTreeMap::new()).entities;
    let base: BTreeMap<EntityId, Value> =
        program.locked_entities().into_iter().map(|e| (e, Value::new(1000))).collect();
    let from_base = run_solo(program, &base).entities;
    from_zero
        .iter()
        .map(|(e, d)| match from_base.get(e) {
            Some(v) if v.raw() - 1000 == d.raw() => Ok((e.raw(), d.raw())),
            _ => Err(format!("program effect on {e} is not a constant delta")),
        })
        .collect()
}

/// splitmix64: derives per-client seeds from the run's seed.
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}
