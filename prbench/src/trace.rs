//! The traced replay: the untraced run's submissions, in its admission
//! order, pushed in-process through each layer's public functions, with
//! every call timed as a span. Nothing inside the crates is instrumented.

use crate::workload::{ops_program, Pool, Workload, INIT};
use crate::Metric;
use pr_core::Metrics;
use pr_model::TxnId;
use pr_par::Session;
use pr_server::wire::{decode_reply, decode_request, encode_reply, encode_request, frame};
use pr_server::wire::{FrameAssembler, Reply, Request};
use pr_server::{recover, DurabilityConfig, Journal};
use pr_sim::generator::ProgramGenerator;
use pr_storage::wal::{FsDir, LogDir};
use pr_storage::{FlushPolicy, GlobalStore};
use std::hint::black_box;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

/// Repetitions of each once-per-run call; its median is reported.
const REPEATS: usize = 3;

/// One timed call.
pub struct Span {
    pub name: &'static str,
    pub dur_ns: u64,
}

#[derive(Default)]
struct Tracer {
    spans: Vec<Span>,
}

impl Tracer {
    fn time<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let start = Instant::now();
        let r = f();
        self.spans.push(Span { name, dur_ns: start.elapsed().as_nanos() as u64 });
        r
    }

    fn durations(&self, name: &str) -> Vec<f64> {
        self.spans.iter().filter(|s| s.name == name).map(|s| s.dur_ns as f64).collect()
    }

    fn total(&self, name: &str) -> f64 {
        self.durations(name).iter().sum()
    }

    fn median(&self, name: &str) -> f64 {
        crate::quantile(self.durations(name), 0.5)
    }
}

/// Replays `order` (pool entries in admission order) in batches of
/// `fill`, logging to `log`. `wall_ns_per_txn` is the untraced run's
/// wall time per commit. Returns the per-layer metrics and every span.
pub fn replay(
    w: &Workload,
    pool: &Pool,
    order: &[usize],
    fill: usize,
    log: &Path,
    wall_ns_per_txn: f64,
) -> Result<(Vec<Metric>, Vec<Span>), String> {
    let mut t = Tracer::default();
    let store = GlobalStore::with_entities(w.entities, pr_model::Value::new(INIT));
    let mut session = Session::new(&store, w.par_config());
    let wal_err = |e: pr_storage::WalError| e.to_string();
    let dir: Arc<dyn LogDir> = Arc::new(FsDir::open(log).map_err(wal_err)?);
    let durability = DurabilityConfig {
        dir: Some(log.to_path_buf()),
        flush: FlushPolicy::PerBatch,
        ..DurabilityConfig::default()
    };
    let mut journal = Journal::open(dir, &durability, store.snapshot(), 0).map_err(wal_err)?;
    drop(store);

    let n = order.len() as f64;
    let mut engine = Metrics::default();
    let mut ops_committed = 0u64;
    let mut wire_bytes = 0u64;
    for chunk in order.chunks(fill.max(1)) {
        let base = session.admitted();
        let mut programs = Vec::with_capacity(chunk.len());
        let mut request_ids = Vec::with_capacity(chunk.len());
        for (i, &entry) in chunk.iter().enumerate() {
            let sent = &pool.subs[entry].frame;
            let request = t.time("wire.decode_request", || {
                let mut asm = FrameAssembler::new();
                asm.feed(sent);
                let payload = asm.next_frame().map_err(|e| e.to_string())?.ok_or("short frame")?;
                decode_request(&payload).map_err(|e| e.to_string())
            })?;
            let again = t.time("wire.encode_request", || frame(&encode_request(&request)));
            if &again != sent {
                return Err("SUBMIT frame does not survive a decode/encode round trip".into());
            }
            let Request::Submit { request_id, ops } = request else {
                return Err("pool frame is not a SUBMIT".into());
            };
            let reply = Reply::Committed { request_id, txn: TxnId::new(base + i as u32 + 1) };
            let bytes = t.time("wire.encode_reply", || frame(&encode_reply(&reply)));
            let back = t.time("wire.decode_reply", || decode_reply(&bytes[4..]));
            if back.as_ref() != Ok(&reply) {
                return Err("COMMITTED reply does not survive an encode/decode round trip".into());
            }
            wire_bytes += (sent.len() + bytes.len()) as u64;
            programs.push(ops_program(ops)?);
            request_ids.push(request_id);
        }
        let outcome = t
            .time("session.execute", || session.execute(&programs))
            .map_err(|e| format!("Session::execute: {e}"))?;
        let stamp = session.stamp();
        t.time("journal.log_batch", || {
            journal.log_batch(base, &request_ids, stamp, &outcome.snapshot, &outcome.accesses)
        })
        .map_err(wal_err)?;
        engine.merge(&outcome.metrics);
        ops_committed += programs.iter().map(|p| p.len() as u64).sum::<u64>();
    }
    let batches = order.len().div_ceil(fill.max(1)) as f64;
    let wal = journal.stats();
    drop(journal);
    let inflations = session.fast_stats().inflations;

    let one = [pool.program(order[0])];
    for _ in 0..REPEATS {
        t.time("session.snapshot", || black_box(session.snapshot()));
        t.time("session.quiescent", || session.check_quiescent())?;
        t.time("session.fixed", || session.execute(&one)).map_err(|e| e.to_string())?;
    }
    drop(session);
    for _ in 0..REPEATS {
        let dir = FsDir::open(log).map_err(wal_err)?;
        let rec = t.time("recover.replay", || recover(&dir, w.entities, INIT)).map_err(wal_err)?;
        let (txns, stamp) = (rec.summary.txn_hwm, rec.summary.stamp_hwm);
        black_box(
            t.time("session.resume", || Session::resume(&rec.store, w.par_config(), txns, stamp)),
        );
    }

    let per_k = |count: u64| count as f64 * 1000.0 / n;
    let rollbacks = engine.partial_rollbacks + engine.total_rollbacks;
    let execute_ns = t.durations("session.execute");
    let encode = t.total("wire.encode_request") + t.total("wire.encode_reply");
    let decode = t.total("wire.decode_request") + t.total("wire.decode_reply");
    let accounted =
        (encode + decode + t.total("session.execute") + t.total("journal.log_batch")) / n;
    let metrics = vec![
        Metric::new("wire.encode_ns_per_txn", "ns", encode / n),
        Metric::new("wire.decode_ns_per_txn", "ns", decode / n),
        Metric::new("wire.bytes_per_txn", "B", wire_bytes as f64 / n),
        Metric::new("session.execute_us_per_txn", "us", t.total("session.execute") / n / 1e3),
        Metric::new("session.execute_p99_us", "us", crate::quantile(execute_ns, 0.99) / 1e3),
        Metric::new("session.fixed_us", "us", t.median("session.fixed") / 1e3),
        Metric::new("session.snapshot_us", "us", t.median("session.snapshot") / 1e3),
        Metric::new("session.quiescent_us", "us", t.median("session.quiescent") / 1e3),
        Metric::new("session.resume_ms", "ms", t.median("session.resume") / 1e6),
        Metric::new("engine.deadlocks_per_ktxn", "1/ktxn", per_k(engine.deadlocks)),
        Metric::new(
            "engine.partial_rollback_frac",
            "fraction",
            if rollbacks == 0 { 0.0 } else { engine.partial_rollbacks as f64 / rollbacks as f64 },
        ),
        Metric::new("engine.states_lost_per_ktxn", "1/ktxn", per_k(engine.states_lost)),
        Metric::new("engine.waits_per_ktxn", "1/ktxn", per_k(engine.waits)),
        Metric::new(
            "engine.useful_op_frac",
            "fraction",
            ops_committed as f64 / engine.ops_executed.max(1) as f64,
        ),
        Metric::new("engine.inflations_per_ktxn", "1/ktxn", per_k(inflations)),
        Metric::new("journal.log_batch_us", "us", t.total("journal.log_batch") / batches / 1e3),
        Metric::new("journal.bytes_per_txn", "B", wal.bytes as f64 / n),
        Metric::new("journal.fsyncs_per_batch", "count", wal.syncs as f64 / batches),
        Metric::new("recover.replay_ms", "ms", t.median("recover.replay") / 1e6),
        Metric::new("trace.accounted_frac", "fraction", accounted / wall_ns_per_txn),
    ];
    Ok((metrics, t.spans))
}

/// `session.fixed_us` as [`replay`] measures it, on a fresh store of
/// `reference`'s size running one of its programs.
pub fn fixed_us_on(reference: &Workload, seed: u64) -> Result<f64, String> {
    let store = GlobalStore::with_entities(reference.entities, pr_model::Value::new(INIT));
    let mut session = Session::new(&store, reference.par_config());
    let one = [ProgramGenerator::new(reference.generator, seed).generate()];
    let mut t = Tracer::default();
    for _ in 0..REPEATS {
        t.time("session.fixed", || session.execute(&one)).map_err(|e| e.to_string())?;
    }
    Ok(t.median("session.fixed") / 1e3)
}
