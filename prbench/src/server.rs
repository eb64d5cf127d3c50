//! Controls one `pr-server` child process: spawn, first STATS, drain.

use crate::workload::Workload;
use pr_server::{Client, Reply};
use std::io::{BufRead, BufReader, Read};
use std::path::Path;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

/// A running `pr-server`. Dropping it without [`ServerProc::shutdown`]
/// kills the process and waits for it.
pub struct ServerProc {
    child: Child,
    stdout: BufReader<ChildStdout>,
    pub addr: String,
    /// The control connection (STATS, HISTORY, SHUTDOWN).
    pub ctl: Client,
    started: Instant,
    /// Spawn to the reply that made the server ready (see [`ServerProc::start`]).
    pub ready_after: Duration,
    /// Txn id the readiness probe committed as (0 without a probe).
    pub probe_txn: u32,
}

impl ServerProc {
    /// Starts the server and commits `probe` (a `SUBMIT` frame) on it.
    /// `pr-server` answers `STATS` before its executor has built the
    /// database, so a committed transaction is the first reply that
    /// shows it ready to serve.
    pub fn start(
        bin: &Path,
        w: &Workload,
        log: &Path,
        recover: bool,
        probe: &[u8],
    ) -> Result<ServerProc, String> {
        let mut proc = Self::spawn(bin, w, log, recover)?;
        proc.ctl.send_raw(probe).map_err(|e| format!("probe: {e}"))?;
        match proc.ctl.recv().map_err(|e| format!("probe: {e}"))? {
            Ok(Reply::Committed { txn, .. }) => proc.probe_txn = txn.raw(),
            other => return Err(format!("probe answered {other:?}")),
        }
        proc.ready_after = proc.started.elapsed();
        Ok(proc)
    }

    /// Starts `bin` for `w` with its log in `log`, replaying it first
    /// when `recover` is set, and waits for the first `STATS` reply.
    pub fn spawn(
        bin: &Path,
        w: &Workload,
        log: &Path,
        recover: bool,
    ) -> Result<ServerProc, String> {
        let start = Instant::now();
        let mut child = Command::new(bin)
            .args(["--addr", "127.0.0.1:0"])
            .args(w.server_args())
            .arg(if recover { "--recover" } else { "--wal" })
            .arg(log)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", bin.display()))?;
        let mut stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        let ready = listening_addr(&mut stdout).and_then(|addr| {
            let mut ctl = Client::connect(&addr).map_err(|e| format!("connect {addr}: {e}"))?;
            ctl.stats().map_err(|e| format!("first STATS: {e}"))?;
            Ok((addr, ctl))
        });
        let ready_after = start.elapsed();
        match ready {
            Ok((addr, ctl)) => {
                let proc = ServerProc {
                    child,
                    stdout,
                    addr,
                    ctl,
                    started: start,
                    ready_after,
                    probe_txn: 0,
                };
                // Bounds every later control read: a hung server fails the run.
                let timeout = Some(Duration::from_secs(60));
                proc.ctl.set_read_timeout(timeout).map_err(|e| e.to_string())?;
                Ok(proc)
            }
            Err(e) => {
                let _ = child.kill();
                let _ = child.wait();
                Err(e)
            }
        }
    }

    pub fn stats(&mut self) -> Result<Stats, String> {
        self.ctl.stats().map(Stats).map_err(|e| format!("STATS: {e}"))
    }

    /// `STATS` once its `commits` reach `commits`, or after 5 s. The
    /// server counts a batch's commits only after sending its replies.
    pub fn settled_stats(&mut self, commits: u64) -> Result<Stats, String> {
        let deadline = Instant::now() + Duration::from_secs(5);
        loop {
            let stats = self.stats()?;
            if stats.get(&["commits"])? == commits as f64 || Instant::now() > deadline {
                return Ok(stats);
            }
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    /// Peak resident memory of the process so far (`VmHWM`), in MiB.
    pub fn peak_rss_mib(&self) -> Result<f64, String> {
        let path = format!("/proc/{}/status", self.child.id());
        let status = std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
        let kib: f64 = status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
            .ok_or_else(|| format!("no VmHWM in {path}"))?;
        Ok(kib / 1024.0)
    }

    /// Drains the server and waits for it to exit. Succeeds only on exit
    /// code 0 after the server reported a quiescent slab.
    pub fn shutdown(mut self) -> Result<(), String> {
        self.ctl.shutdown().map_err(|e| format!("SHUTDOWN: {e}"))?;
        let mut rest = String::new();
        let _ = self.stdout.read_to_string(&mut rest);
        let status = self.child.wait().map_err(|e| e.to_string())?;
        if !status.success() || !rest.contains("shut down cleanly") {
            return Err(format!("pr-server drain failed ({status}): {rest}"));
        }
        Ok(())
    }
}

impl Drop for ServerProc {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

/// Reads stdout up to the `pr-server listening on ADDR …` line.
fn listening_addr(stdout: &mut BufReader<ChildStdout>) -> Result<String, String> {
    let mut line = String::new();
    loop {
        line.clear();
        if stdout.read_line(&mut line).map_err(|e| e.to_string())? == 0 {
            return Err("pr-server exited before listening".into());
        }
        if let Some(rest) = line.strip_prefix("pr-server listening on ") {
            return Ok(rest.split_whitespace().next().unwrap_or_default().to_string());
        }
    }
}

/// A `STATS` reply (`pr-server-metrics-v1` JSON).
pub struct Stats(String);

impl Stats {
    /// The number at `path`, e.g. `["commits"]` or `["batch_fill", "mean"]`.
    pub fn get(&self, path: &[&str]) -> Result<f64, String> {
        let mut rest = self.0.as_str();
        for key in path {
            let tag = format!("\"{key}\":");
            let at = rest.find(&tag).ok_or_else(|| format!("STATS has no {path:?}"))?;
            rest = &rest[at + tag.len()..];
        }
        let end = rest.find([',', '}']).unwrap_or(rest.len());
        rest[..end].trim().parse().map_err(|_| format!("STATS {path:?} is not a number"))
    }
}
