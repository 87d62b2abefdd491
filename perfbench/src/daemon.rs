//! Drives a `cordial-cli serve` process over one `cordial_served::Client`
//! connection, closed loop: each batch waits for its `BatchAck` (the
//! client library retries on `RetryAfter`) before the next one is sent,
//! as a collector does.

use std::collections::BTreeMap;
use std::io::ErrorKind;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::thread::sleep;
use std::time::{Duration, Instant};

use cordial_mcelog::ErrorEvent;
use cordial_served::{Client, PlanRecord, ServedStats};
use cordial_store::FsyncPolicy;

use crate::workload::BATCH_SIZE;

/// How long the daemon may take to come up, or to drain what it acked.
const PATIENCE: Duration = Duration::from_secs(20);

/// Interval between the polls that wait for the daemon to drain.
const POLL: Duration = Duration::from_millis(1);

/// A field of `/proc/<pid>/status`, in kB (`pid` may be `self`).
pub fn proc_status_kb(pid: &str, field: &str) -> Option<u64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    status.lines().find_map(|line| {
        let rest = line.strip_prefix(field)?.strip_prefix(':')?;
        rest.trim().trim_end_matches("kB").trim().parse().ok()
    })
}

/// CPU time process `pid` has run so far, all its threads together
/// (exited ones too), in ns. It reads the kernel's per-process CPU clock,
/// the clock `clock_getcpuclockid(3)` names. The kernel leaves out time
/// the hypervisor stole from the guest, so this clock does not run while
/// other tenants hold the host's cores. Returns 0 when the clock cannot be
/// read.
pub fn proc_cpu_ns(pid: u32) -> u64 {
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
    }
    // Linux's clock id for the whole-process scheduler CPU clock of `pid`:
    // `MAKE_PROCESS_CPUCLOCK(pid, CPUCLOCK_SCHED)`.
    let clock = (!(pid as i32) << 3) | 2;
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is valid and writable for the whole call, and at least
    // as large as the C `struct timespec` (two 64-bit fields on 64-bit
    // Linux, smaller elsewhere), which is all the call writes.
    if unsafe { clock_gettime(clock, &mut ts) } != 0 {
        return 0;
    }
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}

/// How to launch one daemon.
#[derive(Debug, Clone)]
pub struct DaemonSpec {
    /// The `cordial-cli` release binary.
    pub cli: PathBuf,
    /// `--shards`.
    pub shards: usize,
    /// `--store-dir` and `--fsync`, for a journaling daemon.
    pub journal: Option<(PathBuf, FsyncPolicy)>,
    /// Scratch directory for the port file and the daemon's output.
    pub dir: PathBuf,
}

/// Operation counts for `failed_share`: every batch and every RPC.
#[derive(Debug, Default, Clone)]
pub struct Ops {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
    /// Failed operations by how they ended.
    pub failed_by: BTreeMap<&'static str, u64>,
}

impl Ops {
    /// Counts `n` failed operations that ended as `how`.
    pub fn fail(&mut self, how: &'static str, n: u64) {
        self.failed += n;
        *self.failed_by.entry(how).or_default() += n;
    }

    /// Counts one RPC, passing its result through.
    pub fn rpc<T>(&mut self, result: std::io::Result<T>) -> Option<T> {
        self.attempted += 1;
        if result.is_err() {
            self.fail("rpc", 1);
        }
        result.ok()
    }
}

/// A running daemon and the benchmark's connection to it.
pub struct Daemon {
    child: Child,
    /// The connection every request of the run goes through.
    pub client: Client,
    /// CPU seconds the daemon ran, all threads together, from spawn
    /// until it answered `Ping`.
    pub setup_s: f64,
    /// Wall seconds from spawn until the daemon answered `Ping`.
    pub setup_wall_s: f64,
    /// The daemon's `VmRSS` when it first answered `Ping`, in kB.
    pub rss_at_ping_kb: u64,
}

impl Daemon {
    /// Spawns the daemon and waits until it answers `Ping`. The client's
    /// `RetryAfter` back-off is seeded with `retry_seed`.
    ///
    /// # Errors
    ///
    /// A daemon that exits, or does not answer within [`PATIENCE`].
    pub fn spawn(spec: &DaemonSpec, retry_seed: u64, ops: &mut Ops) -> Result<Daemon, String> {
        std::fs::create_dir_all(&spec.dir).map_err(|e| e.to_string())?;
        let port_file = spec.dir.join("port");
        let _ = std::fs::remove_file(&port_file);
        let log = std::fs::File::create(spec.dir.join("daemon.log")).map_err(|e| e.to_string())?;
        let mut command = Command::new(&spec.cli);
        command
            .arg("serve")
            .args(["--shards", &spec.shards.to_string()])
            .arg("--port-file")
            .arg(&port_file);
        if let Some((dir, fsync)) = &spec.journal {
            command
                .arg("--store-dir")
                .arg(dir)
                .args(["--fsync", &fsync.to_string()]);
        }
        let started = Instant::now();
        let mut child = command
            .stdin(Stdio::null())
            .stdout(log.try_clone().map_err(|e| e.to_string())?)
            .stderr(log)
            .spawn()
            .map_err(|e| format!("cannot spawn {}: {e}", spec.cli.display()))?;
        let addr = loop {
            if let Ok(text) = std::fs::read_to_string(&port_file) {
                if let Some(addr) = text.strip_suffix('\n') {
                    break addr.to_string();
                }
            }
            let exited = child.try_wait().ok().flatten();
            if exited.is_some() || started.elapsed() > PATIENCE {
                let _ = child.kill();
                let _ = child.wait();
                ops.attempted += 1;
                ops.fail("spawn", 1);
                return Err(format!("daemon did not come up ({exited:?})"));
            }
            sleep(Duration::from_micros(500));
        };
        let pinged = Client::connect(&addr).and_then(|client| {
            let mut client = client.with_retry_seed(retry_seed);
            client.ping().map(|()| client)
        });
        let setup_wall_s = started.elapsed().as_secs_f64();
        let Some(client) = ops.rpc(pinged) else {
            let _ = child.kill();
            let _ = child.wait();
            return Err("daemon did not answer Ping".into());
        };
        let setup_s = proc_cpu_ns(child.id()) as f64 / 1e9;
        let rss_at_ping_kb = proc_status_kb(&child.id().to_string(), "VmRSS").unwrap_or(0);
        Ok(Daemon {
            child,
            client,
            setup_s,
            setup_wall_s,
            rss_at_ping_kb,
        })
    }

    /// A field of the daemon's `/proc/<pid>/status`, in kB.
    pub fn status_kb(&self, field: &str) -> u64 {
        proc_status_kb(&self.child.id().to_string(), field).unwrap_or(0)
    }

    /// CPU time the daemon's threads have run so far, in ns.
    pub fn cpu_ns(&self) -> u64 {
        proc_cpu_ns(self.child.id())
    }

    /// Waits until the monitors have ingested `events`. Returns the
    /// stats and when the condition was first seen, to within [`POLL`].
    ///
    /// `health()` reads the queue depths under one lock, while `stats()`
    /// locks every shard and sums every monitor, so `stats()` is polled
    /// only once the queues are empty and at most one batch per shard is
    /// still being ingested.
    pub fn await_ingested(&mut self, events: u64, ops: &mut Ops) -> Option<(ServedStats, Instant)> {
        let started = Instant::now();
        loop {
            let health = ops.rpc(self.client.health())?;
            if health.queue_depths.iter().all(|&depth| depth == 0) || started.elapsed() > PATIENCE {
                break;
            }
            sleep(POLL);
        }
        loop {
            let stats = ops.rpc(self.client.stats())?;
            let now = Instant::now();
            if stats.events as u64 >= events || started.elapsed() > PATIENCE {
                return Some((stats, now));
            }
            sleep(POLL);
        }
    }

    /// Sends `Shutdown` and waits for the process to exit; `true` when
    /// the RPC was answered and the daemon exited 0.
    pub fn shutdown(mut self, ops: &mut Ops) -> bool {
        let answered = ops.rpc(self.client.shutdown()).is_some();
        let started = Instant::now();
        loop {
            match self.child.try_wait() {
                Ok(Some(status)) => return answered && status.success(),
                Ok(None) if started.elapsed() < PATIENCE => sleep(Duration::from_millis(5)),
                // Dropping the handle SIGKILLs the daemon.
                _ => return false,
            }
        }
    }

    /// SIGKILLs the daemon and reaps it, as dropping the handle does.
    pub fn kill(self) {}

    /// The daemon's plans, sorted.
    pub fn plans(&mut self, ops: &mut Ops) -> Option<Vec<PlanRecord>> {
        ops.rpc(self.client.plans())
    }
}

impl Drop for Daemon {
    /// No daemon outlives its handle, even when a round bails out early.
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// What sending a stream of batches saw.
#[derive(Debug, Default, Clone)]
pub struct Sent {
    /// Events the daemon acknowledged.
    pub acked_events: u64,
    /// Per acked batch: first send to `BatchAck`, in ms.
    pub ack_ms: Vec<f64>,
    /// Ingest offers, retries included.
    pub offers: u64,
    /// `RetryAfter` replies to acked batches.
    pub retries: u64,
    /// Whether the connection broke (the rest of the stream was not sent).
    pub broken: bool,
}

/// Sends `events` in batches of [`BATCH_SIZE`], closed loop, each through
/// `Client::ingest_retrying`. A batch that is not acknowledged in full
/// counts as a failed operation; a broken connection fails the batch in
/// flight and every batch not yet sent.
pub fn send(client: &mut Client, events: &[ErrorEvent], ops: &mut Ops, sent: &mut Sent) {
    let chunks: Vec<&[ErrorEvent]> = events.chunks(BATCH_SIZE).collect();
    for (index, chunk) in chunks.iter().enumerate() {
        ops.attempted += 1;
        let started = Instant::now();
        let outcome = client.ingest_retrying(chunk);
        let elapsed_ms = started.elapsed().as_secs_f64() * 1e3;
        let err = match outcome {
            Ok((accepted, retries)) => {
                sent.offers += u64::from(retries) + 1;
                sent.retries += u64::from(retries);
                if accepted as usize == chunk.len() {
                    sent.acked_events += u64::from(accepted);
                    sent.ack_ms.push(elapsed_ms);
                } else {
                    ops.fail("partial ack", 1);
                }
                continue;
            }
            Err(err) => err,
        };
        sent.offers += 1;
        match err.kind() {
            ErrorKind::Interrupted => ops.fail("shutting down", 1),
            ErrorKind::InvalidData => ops.fail("unexpected reply", 1),
            ErrorKind::TimedOut => ops.fail("retry budget", 1),
            _ => {
                let unsent = (chunks.len() - index - 1) as u64;
                ops.attempted += unsent;
                ops.fail("transport", 1 + unsent);
                sent.broken = true;
                return;
            }
        }
    }
}

/// Copies a store directory (a flat directory of segment files and a
/// manifest) so a round can restart from a pristine journal.
///
/// # Errors
///
/// I/O failures.
pub fn copy_store(from: &Path, to: &Path) -> std::io::Result<()> {
    let _ = std::fs::remove_dir_all(to);
    std::fs::create_dir_all(to)?;
    for entry in std::fs::read_dir(from)? {
        let entry = entry?;
        std::fs::copy(entry.path(), to.join(entry.file_name()))?;
    }
    Ok(())
}
