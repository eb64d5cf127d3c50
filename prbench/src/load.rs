//! The closed-loop load generator: every logical client keeps exactly one
//! submission in flight over one shared TCP connection, with zero think
//! time. One writer thread (the caller's) sends; one reader thread
//! decodes replies and hands them back. Every latency sample is kept.

use crate::workload::Pool;
use pr_server::wire::{decode_reply, FrameAssembler, Reply};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// How long the writer waits for any reply before giving up on the rest.
const REPLY_TIMEOUT: Duration = Duration::from_secs(30);

/// When clients stop sending.
#[derive(Clone, Copy)]
pub enum Stop {
    /// No new submission once this long has passed since the first send.
    After(Duration),
    /// Each client sends exactly this many submissions.
    PerClient(usize),
}

/// What one closed-loop run observed.
pub struct LoadRun {
    pub attempted: u64,
    pub committed: u64,
    /// Answered with anything but `COMMITTED`.
    pub refused: u64,
    /// Never answered.
    pub unanswered: u64,
    /// First send to last reply.
    pub wall: Duration,
    /// Submit-to-`COMMITTED` time of every committed submission.
    pub latency_ns: Vec<u64>,
    /// `(txn id, pool entry)` for every `COMMITTED` reply.
    pub admitted: Vec<(u32, u32)>,
}

impl LoadRun {
    pub fn throughput(&self) -> f64 {
        self.committed as f64 / self.wall.as_secs_f64()
    }
}

/// Pool entries in admission order, from `(txn id, pool entry)` pairs;
/// an error unless the txn ids are exactly `1..=admitted.len()`.
pub fn admission_order(admitted: &[(u32, u32)]) -> Result<Vec<usize>, String> {
    let mut order = vec![usize::MAX; admitted.len()];
    for &(txn, entry) in admitted {
        match (txn as usize).checked_sub(1).and_then(|i| order.get_mut(i)) {
            Some(slot) if *slot == usize::MAX => *slot = entry as usize,
            _ => {
                return Err(format!(
                    "txn ids are not 1..={}: {txn} repeats or is out of range",
                    admitted.len()
                ))
            }
        }
    }
    Ok(order)
}

/// Drives `pool.clients` clients against the server at `addr` until `stop`.
pub fn drive(addr: &str, pool: &Pool, stop: Stop) -> Result<LoadRun, String> {
    let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    stream.set_nodelay(true).map_err(|e| e.to_string())?;
    let read_half = stream.try_clone().map_err(|e| e.to_string())?;
    let (tx, rx) = mpsc::channel();
    std::thread::scope(|scope| {
        scope.spawn(move || read_replies(read_half, tx));
        let run = write_loop(&stream, &rx, pool, stop);
        // Unblocks the reader, which is waiting for replies that will not come.
        let _ = stream.shutdown(std::net::Shutdown::Both);
        run
    })
}

type Replies = Result<(Instant, Vec<Reply>), String>;

/// Reader thread: decodes every reply frame, stamped with its read time.
fn read_replies(mut stream: TcpStream, tx: mpsc::Sender<Replies>) {
    let mut asm = FrameAssembler::new();
    let mut buf = vec![0u8; 64 * 1024];
    loop {
        let n = match stream.read(&mut buf) {
            Ok(0) => return,
            Ok(n) => n,
            Err(e) => {
                let _ = tx.send(Err(format!("read: {e}")));
                return;
            }
        };
        let at = Instant::now();
        asm.feed(&buf[..n]);
        let mut replies = Vec::new();
        loop {
            match asm.next_frame() {
                Ok(Some(payload)) => match decode_reply(&payload) {
                    Ok(reply) => replies.push(reply),
                    Err(e) => {
                        let _ = tx.send(Err(format!("decode reply: {e}")));
                        return;
                    }
                },
                Ok(None) => break,
                Err(e) => {
                    let _ = tx.send(Err(format!("reply frame: {e}")));
                    return;
                }
            }
        }
        if tx.send(Ok((at, replies))).is_err() {
            return;
        }
    }
}

/// Writer: sends each client's next submission as soon as its previous
/// one is answered. Replies that arrive together are answered with one
/// write.
fn write_loop(
    mut stream: &TcpStream,
    rx: &mpsc::Receiver<Replies>,
    pool: &Pool,
    stop: Stop,
) -> Result<LoadRun, String> {
    let clients = pool.clients;
    let mut seq = vec![0usize; clients];
    let mut sent_at = vec![Instant::now(); clients];
    let mut run = LoadRun {
        attempted: 0,
        committed: 0,
        refused: 0,
        unanswered: 0,
        wall: Duration::ZERO,
        latency_ns: Vec::new(),
        admitted: Vec::new(),
    };
    let mut out = Vec::new();
    let mut ready: Vec<usize> = (0..clients).collect();
    let start = Instant::now();
    let mut last_reply = start;
    let mut in_flight = 0u64;
    loop {
        if !ready.is_empty() {
            out.clear();
            for &c in &ready {
                out.extend_from_slice(&pool.subs[pool.entry(c, seq[c])].frame);
            }
            let now = Instant::now();
            for &c in &ready {
                sent_at[c] = now;
            }
            stream.write_all(&out).map_err(|e| format!("write: {e}"))?;
            run.attempted += ready.len() as u64;
            in_flight += ready.len() as u64;
            ready.clear();
        }
        if in_flight == 0 {
            break;
        }
        let (at, replies) = match rx.recv_timeout(REPLY_TIMEOUT) {
            Ok(Ok(batch)) => batch,
            Ok(Err(e)) => {
                eprintln!("prbench: connection lost with {in_flight} in flight: {e}");
                break;
            }
            Err(_) => {
                eprintln!("prbench: no reply for {REPLY_TIMEOUT:?} with {in_flight} in flight");
                break;
            }
        };
        last_reply = at;
        for reply in replies {
            let (c, txn) = match reply {
                Reply::Committed { request_id, txn } => (request_id as usize, Some(txn)),
                Reply::Aborted { request_id, .. } => (request_id as usize, None),
                other => return Err(format!("unexpected reply {other:?}")),
            };
            if c >= clients {
                return Err(format!("reply for unknown client {c}"));
            }
            in_flight -= 1;
            match txn {
                Some(txn) => {
                    run.committed += 1;
                    run.latency_ns.push(at.duration_since(sent_at[c]).as_nanos() as u64);
                    run.admitted.push((txn.raw(), pool.entry(c, seq[c]) as u32));
                }
                None => run.refused += 1,
            }
            seq[c] += 1;
            let more = match stop {
                Stop::After(d) => at.duration_since(start) < d,
                Stop::PerClient(n) => seq[c] < n,
            };
            if more {
                ready.push(c);
            }
        }
    }
    run.unanswered = in_flight;
    run.wall = last_reply.duration_since(start);
    Ok(run)
}
