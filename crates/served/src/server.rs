//! The cordial-served daemon: a TCP server that shards a fleet of
//! per-device [`CordialMonitor`]s across worker threads.
//!
//! ## Architecture
//!
//! ```text
//!  clients ──frames──► accept thread ──► connection threads
//!                                           │ IngestBatch: split by device,
//!                                           │ all-or-nothing enqueue
//!                                           ▼
//!                      ┌─────────── one bounded queue per shard ──────────┐
//!                      │ worker 0          worker 1   …        worker N-1 │
//!                      │ DeviceId → CordialMonitor maps (BTreeMap)        │
//!                      └───────────────────────────────────────────────────┘
//!  scrapers ──HTTP───► /metrics listener (Prometheus text format)
//! ```
//!
//! Devices are routed to shards by [`DeviceId::salt`] modulo the shard
//! count, so one device's event stream is always serialised through one
//! worker and per-device ingestion order is preserved. Batches that span
//! shards are admitted **all-or-nothing**: if any target shard's queue is
//! full the whole batch is refused with [`Frame::RetryAfter`] and no
//! partial state changes — the client retries the identical batch later.
//!
//! ## Graceful shutdown
//!
//! A [`Frame::Shutdown`] RPC (or [`signal::install`] + SIGTERM in the CLI)
//! flips one atomic flag. The accept loop stops taking connections,
//! workers drain their queues to empty, and [`Server::wait`] then
//! checkpoints every monitor to the configured directory using the same
//! temp-file-plus-rename discipline as the CLI's checkpoint files, so a
//! `kill` mid-stream resumes bit-identically (see the kill-resume
//! acceptance test).
//!
//! ## Durable journal
//!
//! With [`ServeConfig::store_dir`] set, the daemon opens a
//! [`cordial_store::Store`] and journals every admitted batch into it
//! **before** the [`Frame::BatchAck`] is written — under
//! [`FsyncPolicy::Always`] (the default) an acked batch is on disk even
//! if the process dies the next instant. Graceful shutdown appends one
//! checkpoint record per device carrying the journal floor it covers; a
//! restart restores those checkpoints and replays only the journal tail
//! beyond each floor. After an *abrupt* death (no checkpoints) the whole
//! journal replays, so acked batches are never lost — the property the
//! kill-mid-load end-to-end test pins.

use std::collections::BTreeMap;
use std::collections::HashMap;
use std::collections::VecDeque;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use cordial::prelude::{Cordial, CordialMonitor, MonitorCheckpoint, MonitorStats, SparingBudget};
use cordial_fleet::{BreakerConfig, CircuitBreaker, DeviceId};
use cordial_mcelog::ErrorEvent;
use cordial_store::{DeviceKey, FsyncPolicy, Record, ReplayFilter, Store, StoreConfig};
use cordial_topology::{HbmSocket, NodeId, NpuId};
use serde::{Deserialize, Serialize};

use crate::codec::{decode_frame, encode_frame, Decoded, Frame};

/// How long blocked reads and queue waits sleep before re-checking the
/// shutdown flag.
const POLL_INTERVAL: Duration = Duration::from_millis(50);

/// Tuning of one daemon instance.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Worker threads (and therefore shard queues). Clamped to at least 1.
    pub shards: usize,
    /// Batches each shard queue holds before the daemon pushes back with
    /// [`Frame::RetryAfter`].
    pub queue_capacity: usize,
    /// Back-off the daemon suggests to a refused client, in milliseconds.
    pub retry_after_ms: u32,
    /// Where graceful shutdown checkpoints every device monitor (and
    /// where startup looks for checkpoints to resume from). `None`
    /// disables persistence.
    pub checkpoint_dir: Option<PathBuf>,
    /// Directory of the durable event/checkpoint store. When set, every
    /// admitted batch is journaled there before its ack and monitors are
    /// rebuilt from it at startup (superseding `checkpoint_dir` for
    /// restore). `None` disables journaling.
    pub store_dir: Option<PathBuf>,
    /// When the journal flushes to disk. Only meaningful with
    /// [`ServeConfig::store_dir`]; the default [`FsyncPolicy::Always`]
    /// makes every ack imply durability.
    pub fsync: FsyncPolicy,
    /// Sparing budget given to each device's isolation engine.
    pub budget: SparingBudget,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            shards: 4,
            queue_capacity: 64,
            retry_after_ms: 50,
            checkpoint_dir: None,
            store_dir: None,
            fsync: FsyncPolicy::Always,
            budget: SparingBudget::typical(),
        }
    }
}

/// Aggregate statistics over every device monitor, answered to
/// [`Frame::StatsQuery`] as JSON.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ServedStats {
    /// Devices with at least one ingested event.
    pub devices: usize,
    /// Events ingested across all monitors.
    pub events: usize,
    /// Banks that received a mitigation plan.
    pub banks_planned: usize,
    /// Row isolations admitted by sparing budgets.
    pub rows_isolated: usize,
    /// Banks spared wholesale.
    pub banks_spared: usize,
    /// UER events absorbed by earlier isolations.
    pub uers_absorbed: usize,
    /// UER events that reached live data.
    pub uers_missed: usize,
}

impl ServedStats {
    fn absorb(&mut self, stats: &MonitorStats) {
        self.devices += 1;
        self.events += stats.events;
        self.banks_planned += stats.banks_planned;
        self.rows_isolated += stats.rows_isolated;
        self.banks_spared += stats.banks_spared;
        self.uers_absorbed += stats.uers_absorbed;
        self.uers_missed += stats.uers_missed;
    }
}

/// Daemon liveness report, answered to [`Frame::HealthQuery`] as JSON.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct HealthReport {
    /// Shard (worker) count.
    pub shards: usize,
    /// Batches currently queued per shard.
    pub queue_depths: Vec<usize>,
    /// Batches admitted since startup.
    pub accepted_batches: u64,
    /// Batches refused with `RetryAfter` since startup.
    pub rejected_batches: u64,
    /// Whether a shutdown has been requested.
    pub shutting_down: bool,
}

/// One mitigation decision, as reported to [`Frame::PlanQuery`].
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
pub struct PlanRecord {
    /// Owning device, in `node/npu/hbm` display form.
    pub device: String,
    /// Planned bank address.
    pub bank: String,
    /// The plan, in debug form (kind plus rows).
    pub plan: String,
}

/// What a completed graceful shutdown left behind, returned by
/// [`Server::wait`] after every queue has drained.
#[derive(Debug, Clone, PartialEq)]
pub struct ShutdownReport {
    /// Device checkpoints written (0 when no directory is configured).
    pub checkpoints_written: usize,
    /// Final aggregate statistics over every device monitor.
    pub stats: ServedStats,
    /// Every mitigation plan emitted over the daemon's lifetime, sorted.
    pub plans: Vec<PlanRecord>,
}

/// On-disk form of one device's checkpoint: identity plus monitor state,
/// one JSON file per device, always written atomically.
#[derive(Debug, Serialize, Deserialize)]
pub struct DeviceCheckpointFile {
    /// The device this state belongs to.
    pub device: DeviceId,
    /// The monitor's complete mutable state.
    pub state: MonitorCheckpoint,
}

/// Per-shard mutable state: the monitors this worker owns.
struct ShardState {
    monitors: BTreeMap<DeviceId, CordialMonitor>,
}

/// State shared between the accept loop, connection threads and workers.
struct Shared {
    config: ServeConfig,
    /// The one serving model every device monitor shares.
    model: Arc<Cordial>,
    queues: Mutex<Vec<VecDeque<Vec<ErrorEvent>>>>,
    room: Vec<Condvar>,
    shards: Vec<Mutex<ShardState>>,
    plans: Mutex<Vec<PlanRecord>>,
    /// The durable journal, when [`ServeConfig::store_dir`] is set.
    store: Option<Mutex<Store>>,
    shutdown: AtomicBool,
    accepted_batches: AtomicU64,
    rejected_batches: AtomicU64,
    connection_seq: AtomicU64,
}

/// Why [`Shared::enqueue`] refused a batch.
enum EnqueueRefusal {
    /// A target shard queue is full; the client should retry later.
    Full(u16),
    /// The journal append failed; the batch was **not** admitted (an ack
    /// must imply durability, so an unjournalable batch is refused).
    Journal(String),
}

/// The store-side identity of a fleet device (same fields, no fleet
/// dependency inside the store crate).
fn device_key(device: DeviceId) -> DeviceKey {
    DeviceKey {
        node: device.node.index(),
        npu: device.npu.index(),
        hbm: device.hbm.index(),
    }
}

/// Inverse of [`device_key`].
fn device_id(key: DeviceKey) -> DeviceId {
    DeviceId {
        node: NodeId(key.node),
        npu: NpuId(key.npu),
        hbm: HbmSocket(key.hbm),
    }
}

/// Locks a mutex, riding through poisoning: a panicking worker must not
/// wedge shutdown (the panic itself is already surfaced by the harness).
fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

impl Shared {
    fn shutting_down(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst)
    }

    fn request_shutdown(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
        for cv in &self.room {
            cv.notify_all();
        }
    }

    fn shard_of(&self, device: DeviceId) -> usize {
        (device.salt() % self.shards.len() as u64) as usize
    }

    /// Admits a batch to its target shard queues, all-or-nothing.
    ///
    /// Returns the admitted event count, or why the batch was refused.
    /// Capacity is checked for every target shard under one lock before
    /// anything is pushed, so a refusal leaves no partial batch. When a
    /// journal is configured the batch is appended (and, under
    /// [`FsyncPolicy::Always`], fsynced) between the capacity check and
    /// the push, still under the queues lock — journal order is admission
    /// order, and a batch is on disk before its ack can be written.
    fn enqueue(&self, batch: Vec<ErrorEvent>) -> Result<u32, EnqueueRefusal> {
        // First pass: which shards the batch touches (for the capacity
        // check). Shard indices are dense and small, so this is a direct
        // Vec index per event — no ordered-map bookkeeping on the
        // admission path.
        let mut touched = vec![false; self.shards.len()];
        for event in &batch {
            touched[self.shard_of(DeviceId::of(&event.addr.bank))] = true;
        }
        let mut queues = lock(&self.queues);
        for (shard, hit) in touched.into_iter().enumerate() {
            if hit && queues[shard].len() >= self.config.queue_capacity {
                return Err(EnqueueRefusal::Full(shard as u16));
            }
        }
        if let Some(store) = &self.store {
            lock(store)
                .append_events(&batch)
                .map_err(|err| EnqueueRefusal::Journal(err.to_string()))?;
        }
        let mut parts: Vec<Vec<ErrorEvent>> = Vec::new();
        parts.resize_with(self.shards.len(), Vec::new);
        for event in batch {
            let shard = self.shard_of(DeviceId::of(&event.addr.bank));
            parts[shard].push(event);
        }
        let mut total = 0u32;
        for (shard, events) in parts.into_iter().enumerate() {
            if events.is_empty() {
                continue;
            }
            total += events.len() as u32;
            queues[shard].push_back(events);
            self.room[shard].notify_one();
        }
        Ok(total)
    }

    /// Runs one shard's batches through its device monitors.
    ///
    /// Grouping uses a `HashMap` — device monitors are independent, and
    /// every surface that exposes plans sorts them, so the cheaper
    /// unordered grouping changes nothing observable.
    fn process(&self, shard_idx: usize, batch: Vec<ErrorEvent>) {
        let mut by_device: HashMap<DeviceId, Vec<ErrorEvent>> = HashMap::new();
        for event in batch {
            by_device
                .entry(DeviceId::of(&event.addr.bank))
                .or_default()
                .push(event);
        }
        let mut state = lock(&self.shards[shard_idx]);
        for (device, events) in by_device {
            cordial_obs::counter!("served.events").add(events.len() as u64);
            let monitor = state.monitors.entry(device).or_insert_with(|| {
                CordialMonitor::new(Arc::clone(&self.model), self.config.budget)
            });
            let planned = monitor.ingest_all(events);
            if planned.is_empty() {
                continue;
            }
            cordial_obs::counter!("served.plans").add(planned.len() as u64);
            let mut plans = lock(&self.plans);
            for (bank, plan) in planned {
                plans.push(PlanRecord {
                    device: device.to_string(),
                    bank: bank.to_string(),
                    plan: format!("{plan:?}"),
                });
            }
        }
    }

    fn worker_loop(&self, shard_idx: usize) {
        loop {
            let batch = {
                let mut queues = lock(&self.queues);
                loop {
                    if let Some(batch) = queues[shard_idx].pop_front() {
                        break Some(batch);
                    }
                    if self.shutting_down() {
                        // Queue drained and no more producers: done.
                        break None;
                    }
                    let (guard, _timed_out) = self.room[shard_idx]
                        .wait_timeout(queues, POLL_INTERVAL)
                        .unwrap_or_else(|poisoned| poisoned.into_inner());
                    queues = guard;
                }
            };
            match batch {
                Some(batch) => self.process(shard_idx, batch),
                None => return,
            }
        }
    }

    fn aggregate_stats(&self) -> ServedStats {
        let mut total = ServedStats::default();
        for shard in &self.shards {
            let state = lock(shard);
            for monitor in state.monitors.values() {
                total.absorb(&monitor.stats());
            }
        }
        total
    }

    fn health(&self) -> HealthReport {
        HealthReport {
            shards: self.shards.len(),
            queue_depths: lock(&self.queues).iter().map(VecDeque::len).collect(),
            accepted_batches: self.accepted_batches.load(Ordering::Relaxed),
            rejected_batches: self.rejected_batches.load(Ordering::Relaxed),
            shutting_down: self.shutting_down(),
        }
    }

    /// Answers one decoded request frame.
    fn handle_frame(&self, frame: Frame) -> Frame {
        match frame {
            Frame::IngestBatch(events) => {
                if self.shutting_down() {
                    return Frame::ShuttingDown;
                }
                cordial_obs::counter!("served.batches.offered").inc();
                match self.enqueue(events) {
                    Ok(accepted) => {
                        self.accepted_batches.fetch_add(1, Ordering::Relaxed);
                        Frame::BatchAck { accepted }
                    }
                    Err(EnqueueRefusal::Full(shard)) => {
                        self.rejected_batches.fetch_add(1, Ordering::Relaxed);
                        cordial_obs::counter!("served.batches.rejected").inc();
                        Frame::RetryAfter {
                            shard,
                            ms: self.config.retry_after_ms,
                        }
                    }
                    Err(EnqueueRefusal::Journal(why)) => {
                        self.rejected_batches.fetch_add(1, Ordering::Relaxed);
                        cordial_obs::counter!("served.journal.errors").inc();
                        Frame::Error(format!("journal append failed: {why}"))
                    }
                }
            }
            Frame::StatsQuery => Frame::Stats(
                serde_json::to_string(&self.aggregate_stats()).unwrap_or_else(|e| e.to_string()),
            ),
            Frame::HealthQuery => Frame::Health(
                serde_json::to_string(&self.health()).unwrap_or_else(|e| e.to_string()),
            ),
            Frame::PlanQuery => {
                let mut records = lock(&self.plans).clone();
                records.sort();
                Frame::Plans(serde_json::to_string(&records).unwrap_or_else(|e| e.to_string()))
            }
            Frame::Shutdown => {
                self.request_shutdown();
                Frame::ShuttingDown
            }
            Frame::Ping => Frame::Pong,
            // Response frames arriving at the server are a client bug.
            other => Frame::Error(format!("unexpected frame kind {:#04x}", other.kind())),
        }
    }

    /// Per-connection read/decode/respond loop.
    ///
    /// Decode failures feed a per-connection circuit breaker: delimited
    /// bad frames ([`Decoded::Bad`]) are answered with [`Frame::Error`]
    /// and skipped, but a connection whose error rate trips the breaker —
    /// or whose stream is unrecoverable ([`Decoded::Fatal`]) — is dropped.
    fn serve_connection(&self, mut stream: TcpStream) {
        let _ = stream.set_nodelay(true);
        let _ = stream.set_read_timeout(Some(POLL_INTERVAL));
        let seed = self.connection_seq.fetch_add(1, Ordering::Relaxed);
        let mut breaker = CircuitBreaker::new(
            BreakerConfig {
                window: 8,
                trip_error_rate: 0.5,
                min_events: 2,
                backoff_base_ms: 1_000,
                backoff_jitter_ms: 0,
                max_retries: 3,
                half_open_probe: 1,
            },
            seed,
        );
        let started = Instant::now();
        let mut buf: Vec<u8> = Vec::new();
        let mut chunk = [0u8; 64 * 1024];
        loop {
            match stream.read(&mut chunk) {
                Ok(0) => return,
                Ok(n) => buf.extend_from_slice(&chunk[..n]),
                Err(err)
                    if err.kind() == io::ErrorKind::WouldBlock
                        || err.kind() == io::ErrorKind::TimedOut =>
                {
                    if self.shutting_down() {
                        return;
                    }
                    continue;
                }
                Err(_) => return,
            }
            let mut consumed = 0usize;
            loop {
                let now_ms = started.elapsed().as_millis() as u64;
                match decode_frame(&buf[consumed..]) {
                    Decoded::Incomplete => break,
                    Decoded::Frame(frame, n) => {
                        consumed += n;
                        breaker.record(now_ms, false);
                        let shutdown_after = matches!(frame, Frame::Shutdown);
                        let reply = self.handle_frame(frame);
                        if stream.write_all(&encode_frame(&reply)).is_err() {
                            return;
                        }
                        if shutdown_after {
                            return;
                        }
                    }
                    Decoded::Bad(err, n) => {
                        consumed += n;
                        cordial_obs::counter!("served.frames.bad").inc();
                        let _ = stream.write_all(&encode_frame(&Frame::Error(err.to_string())));
                        if breaker.record(now_ms, true) {
                            // Too many bad frames in the window: this peer
                            // is speaking garbage; cut it off.
                            cordial_obs::counter!("served.breaker.opens").inc();
                            return;
                        }
                    }
                    Decoded::Fatal(err) => {
                        cordial_obs::counter!("served.frames.fatal").inc();
                        let _ = stream.write_all(&encode_frame(&Frame::Error(err.to_string())));
                        return;
                    }
                }
            }
            buf.drain(..consumed);
        }
    }
}

/// Serialises `value` to `path` via a durable temp file + fsync + atomic
/// rename, so neither a crash mid-write nor a power loss leaves a torn
/// checkpoint.
fn write_json_atomic<T: Serialize>(path: &Path, value: &T) -> io::Result<()> {
    let json = serde_json::to_string_pretty(value)
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
    cordial_obs::fsio::durable_write(path, json.as_bytes())
}

/// A running daemon: listeners bound, workers live.
pub struct Server {
    shared: Arc<Shared>,
    addr: SocketAddr,
    metrics_addr: Option<SocketAddr>,
    accept_thread: Option<JoinHandle<()>>,
    metrics_thread: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

impl Server {
    /// Binds the wire listener (and optionally a `/metrics` HTTP listener),
    /// restores any checkpoints found in `config.checkpoint_dir`, and
    /// starts the shard workers plus accept loop.
    ///
    /// Bind to port 0 to let the OS pick; the chosen address is reported
    /// by [`Server::addr`] / [`Server::metrics_addr`]. `model` is the one
    /// [`Cordial`] every device monitor the daemon creates or
    /// restores shares.
    ///
    /// # Errors
    ///
    /// Propagates listener bind failures and unreadable checkpoint files
    /// (a missing checkpoint directory is created, not an error).
    pub fn bind(
        model: impl Into<Arc<Cordial>>,
        config: ServeConfig,
        addr: &str,
        metrics_addr: Option<&str>,
    ) -> io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let local_addr = listener.local_addr()?;
        let metrics_listener = match metrics_addr {
            Some(addr) => {
                let l = TcpListener::bind(addr)?;
                l.set_nonblocking(true)?;
                Some(l)
            }
            None => None,
        };
        let metrics_local = metrics_listener
            .as_ref()
            .map(TcpListener::local_addr)
            .transpose()?;

        let shards = config.shards.max(1);
        let store = match config.store_dir.as_deref() {
            Some(dir) => {
                let store = Store::open(
                    dir,
                    StoreConfig {
                        fsync: config.fsync,
                        ..StoreConfig::default()
                    },
                )
                .map_err(io::Error::other)?;
                if let Some(what) = &store.recovery().corruption {
                    cordial_obs::counter!("served.journal.recoveries").inc();
                    cordial_obs::warn!("served: journal recovered from crash damage: {what}");
                }
                Some(Mutex::new(store))
            }
            None => None,
        };
        let shared = Arc::new(Shared {
            queues: Mutex::new(vec![VecDeque::new(); shards]),
            room: (0..shards).map(|_| Condvar::new()).collect(),
            shards: (0..shards)
                .map(|_| {
                    Mutex::new(ShardState {
                        monitors: BTreeMap::new(),
                    })
                })
                .collect(),
            plans: Mutex::new(Vec::new()),
            store,
            shutdown: AtomicBool::new(false),
            accepted_batches: AtomicU64::new(0),
            rejected_batches: AtomicU64::new(0),
            connection_seq: AtomicU64::new(0),
            model: model.into(),
            config,
        });
        if shared.store.is_some() {
            restore_from_store(&shared)?;
        } else {
            restore_checkpoints(&shared)?;
        }

        let workers = (0..shards)
            .map(|idx| {
                let shared = Arc::clone(&shared);
                thread::Builder::new()
                    .name(format!("served-shard-{idx}"))
                    .spawn(move || shared.worker_loop(idx))
            })
            .collect::<io::Result<Vec<_>>>()?;

        let accept_shared = Arc::clone(&shared);
        let accept_thread = thread::Builder::new()
            .name("served-accept".into())
            .spawn(move || accept_loop(&accept_shared, &listener))?;

        let metrics_thread = match metrics_listener {
            Some(listener) => {
                let shared = Arc::clone(&shared);
                Some(
                    thread::Builder::new()
                        .name("served-metrics".into())
                        .spawn(move || metrics_loop(&shared, &listener))?,
                )
            }
            None => None,
        };

        Ok(Server {
            shared,
            addr: local_addr,
            metrics_addr: metrics_local,
            accept_thread: Some(accept_thread),
            metrics_thread,
            workers,
        })
    }

    /// The bound wire-protocol address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The bound `/metrics` address, when enabled.
    pub fn metrics_addr(&self) -> Option<SocketAddr> {
        self.metrics_addr
    }

    /// Whether a shutdown has been requested (RPC or
    /// [`Server::trigger_shutdown`]).
    pub fn is_shutting_down(&self) -> bool {
        self.shared.shutting_down()
    }

    /// Requests a graceful shutdown, as the SIGTERM handler path does.
    pub fn trigger_shutdown(&self) {
        self.shared.request_shutdown();
    }

    /// Aggregate statistics across every device monitor.
    pub fn stats(&self) -> ServedStats {
        self.shared.aggregate_stats()
    }

    /// Blocks until the daemon has shut down: workers drained and joined,
    /// then every device monitor checkpointed (when a checkpoint directory
    /// is configured).
    ///
    /// # Errors
    ///
    /// Propagates checkpoint-write I/O failures.
    pub fn wait(mut self) -> io::Result<ShutdownReport> {
        if let Some(handle) = self.accept_thread.take() {
            let _ = handle.join();
        }
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
        if let Some(handle) = self.metrics_thread.take() {
            let _ = handle.join();
        }
        let checkpoints_written = write_checkpoints(&self.shared)?;
        let mut plans = lock(&self.shared.plans).clone();
        plans.sort();
        Ok(ShutdownReport {
            checkpoints_written,
            stats: self.shared.aggregate_stats(),
            plans,
        })
    }

    /// Stops the daemon **without** checkpointing — the crash-simulation
    /// path the kill-mid-load tests use. Threads are stopped and joined
    /// (so the process can rebind the same store directory), but no
    /// checkpoint file or store checkpoint record is written: everything
    /// a restart recovers comes from the journal alone, exactly as after
    /// a `kill -9`.
    pub fn kill(mut self) {
        self.shared.request_shutdown();
        if let Some(handle) = self.accept_thread.take() {
            let _ = handle.join();
        }
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
        if let Some(handle) = self.metrics_thread.take() {
            let _ = handle.join();
        }
    }
}

/// Restores every `DeviceCheckpointFile` under the checkpoint directory
/// into its shard, creating the directory if absent. Checkpoint payloads
/// go through the [`cordial::checkpoint`] migration registry, so files
/// written by an older release upgrade instead of erroring.
fn restore_checkpoints(shared: &Shared) -> io::Result<()> {
    let Some(dir) = shared.config.checkpoint_dir.as_deref() else {
        return Ok(());
    };
    std::fs::create_dir_all(dir)?;
    let mut restored = 0u64;
    for entry in std::fs::read_dir(dir)? {
        let path = entry?.path();
        if path.extension().and_then(|e| e.to_str()) != Some("json") {
            continue;
        }
        let bad_data = |what: String| io::Error::new(io::ErrorKind::InvalidData, what);
        let json = std::fs::read_to_string(&path)?;
        let value = serde_json::parse_value_str(&json)
            .map_err(|e| bad_data(format!("{}: {e}", path.display())))?;
        let device: DeviceId = value
            .get("device")
            .ok_or_else(|| bad_data(format!("{}: no `device` field", path.display())))
            .and_then(|v| {
                Deserialize::from_value(v).map_err(|e| bad_data(format!("{}: {e}", path.display())))
            })?;
        let state = value
            .get("state")
            .cloned()
            .ok_or_else(|| bad_data(format!("{}: no `state` field", path.display())))?;
        let (state, _was_version) = cordial::checkpoint::load_checkpoint_value(state)
            .map_err(|e| bad_data(format!("{}: {e}", path.display())))?;
        let monitor = CordialMonitor::restore(Arc::clone(&shared.model), state)
            .map_err(|e| bad_data(format!("{}: {e}", path.display())))?;
        let shard = shared.shard_of(device);
        lock(&shared.shards[shard]).monitors.insert(device, monitor);
        restored += 1;
    }
    cordial_obs::gauge!("served.checkpoints.restored").set(restored as f64);
    Ok(())
}

/// Rebuilds the fleet from the durable store: each device's latest
/// checkpoint (migrated to the current schema) plus a replay of the
/// journal tail beyond its checkpoint's journal floor. Devices that never
/// reached a checkpoint replay from the beginning of the journal, so an
/// abrupt death loses no acked batch.
fn restore_from_store(shared: &Shared) -> io::Result<()> {
    let Some(store_mutex) = &shared.store else {
        return Ok(());
    };
    let bad_data = |what: String| io::Error::new(io::ErrorKind::InvalidData, what);
    let mut floors: HashMap<DeviceId, u64> = HashMap::new();
    let mut restored = 0u64;
    let events = {
        let store = lock(store_mutex);
        for (key, ckpt) in store.latest_checkpoints().map_err(io::Error::other)? {
            let device = device_id(key);
            let value = serde_json::parse_value_str(&ckpt.payload)
                .map_err(|e| bad_data(format!("checkpoint for {key}: {e}")))?;
            let (state, _was_version) = cordial::checkpoint::load_checkpoint_value(value)
                .map_err(|e| bad_data(format!("checkpoint for {key}: {e}")))?;
            let monitor = CordialMonitor::restore(Arc::clone(&shared.model), state)
                .map_err(|e| bad_data(format!("checkpoint for {key}: {e}")))?;
            lock(&shared.shards[shared.shard_of(device)])
                .monitors
                .insert(device, monitor);
            floors.insert(device, ckpt.journal_seq);
            restored += 1;
        }
        store
            .replay(&ReplayFilter {
                events_only: true,
                ..ReplayFilter::default()
            })
            .map_err(io::Error::other)?
    };
    // Group the tail per device (monitors are independent; per-device
    // order is the order that matters) and run it through the same
    // ingestion path live batches take, plans included.
    let mut by_device: BTreeMap<DeviceId, Vec<ErrorEvent>> = BTreeMap::new();
    for record in events {
        let Record::Event { seq, event } = record else {
            continue;
        };
        let device = DeviceId::of(&event.addr.bank);
        if floors.get(&device).is_some_and(|floor| seq <= *floor) {
            continue;
        }
        by_device.entry(device).or_default().push(event);
    }
    let mut replayed = 0u64;
    for (device, events) in by_device {
        replayed += events.len() as u64;
        shared.process(shared.shard_of(device), events);
    }
    cordial_obs::gauge!("served.checkpoints.restored").set(restored as f64);
    cordial_obs::counter!("served.journal.replayed").add(replayed);
    Ok(())
}

/// Checkpoints every device monitor: one atomic JSON file per device
/// under `checkpoint_dir` (when set), and one checkpoint record per
/// device in the durable store (when set). Returns how many devices were
/// checkpointed to at least one destination.
fn write_checkpoints(shared: &Shared) -> io::Result<usize> {
    let dir = shared.config.checkpoint_dir.as_deref();
    let store = shared.store.as_ref();
    if dir.is_none() && store.is_none() {
        return Ok(0);
    }
    if let Some(dir) = dir {
        std::fs::create_dir_all(dir)?;
    }
    // Every journaled event has been drained through its monitor by the
    // time shutdown checkpoints run, so the store's current tail is the
    // journal floor each checkpoint covers.
    let journal_floor = store.map(|s| lock(s).last_seq().unwrap_or(0));
    let mut written = 0usize;
    for shard in &shared.shards {
        let mut state = lock(shard);
        for (device, monitor) in state.monitors.iter_mut() {
            // Flush any guard-buffered events so the checkpoint holds the
            // complete stream, then capture.
            let flushed = monitor.flush_guarded();
            if !flushed.is_empty() {
                let mut plans = lock(&shared.plans);
                for (event, outcome) in flushed {
                    if let cordial::prelude::IngestOutcome::Planned { plan, .. } = outcome {
                        plans.push(PlanRecord {
                            device: device.to_string(),
                            bank: event.addr.bank.to_string(),
                            plan: format!("{plan:?}"),
                        });
                    }
                }
            }
            let checkpoint = monitor.checkpoint();
            if let (Some(store_mutex), Some(floor)) = (store, journal_floor) {
                let payload = serde_json::to_string(&checkpoint)
                    .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
                lock(store_mutex)
                    .append_checkpoint(device_key(*device), floor, &payload)
                    .map_err(io::Error::other)?;
            }
            if let Some(dir) = dir {
                let file = DeviceCheckpointFile {
                    device: *device,
                    state: checkpoint,
                };
                let name = format!(
                    "dev-node{}-npu{}-hbm{}.json",
                    device.node.index(),
                    device.npu.index(),
                    device.hbm.index()
                );
                write_json_atomic(&dir.join(name), &file)?;
            }
            written += 1;
        }
    }
    if let Some(store_mutex) = store {
        lock(store_mutex).sync().map_err(io::Error::other)?;
    }
    cordial_obs::gauge!("served.checkpoints.written").set(written as f64);
    Ok(written)
}

/// Accepts wire connections until shutdown, one thread per connection.
fn accept_loop(shared: &Arc<Shared>, listener: &TcpListener) {
    loop {
        match listener.accept() {
            Ok((stream, _peer)) => {
                cordial_obs::counter!("served.connections").inc();
                let shared = Arc::clone(shared);
                let _ = thread::Builder::new()
                    .name("served-conn".into())
                    .spawn(move || shared.serve_connection(stream));
            }
            Err(err)
                if err.kind() == io::ErrorKind::WouldBlock
                    || err.kind() == io::ErrorKind::TimedOut =>
            {
                if shared.shutting_down() {
                    return;
                }
                thread::sleep(Duration::from_millis(5));
            }
            Err(_) => {
                if shared.shutting_down() {
                    return;
                }
                thread::sleep(Duration::from_millis(5));
            }
        }
    }
}

/// Minimal HTTP/1.1 responder for Prometheus scrapes of the process-wide
/// cordial-obs registry.
fn metrics_loop(shared: &Arc<Shared>, listener: &TcpListener) {
    loop {
        match listener.accept() {
            Ok((mut stream, _peer)) => {
                let _ = stream.set_read_timeout(Some(POLL_INTERVAL));
                let mut request = [0u8; 4096];
                let n = stream.read(&mut request).unwrap_or(0);
                let line = std::str::from_utf8(&request[..n]).unwrap_or("");
                let (status, body) = if line.starts_with("GET /metrics") {
                    let text = cordial_obs::export::to_prometheus(&cordial_obs::snapshot());
                    ("200 OK", text)
                } else {
                    ("404 Not Found", String::from("only /metrics is served\n"))
                };
                let response = format!(
                    "HTTP/1.1 {status}\r\nContent-Type: text/plain; version=0.0.4\r\n\
                     Content-Length: {}\r\nConnection: close\r\n\r\n{body}",
                    body.len()
                );
                let _ = stream.write_all(response.as_bytes());
            }
            Err(err)
                if err.kind() == io::ErrorKind::WouldBlock
                    || err.kind() == io::ErrorKind::TimedOut =>
            {
                if shared.shutting_down() {
                    return;
                }
                thread::sleep(Duration::from_millis(5));
            }
            Err(_) => {
                if shared.shutting_down() {
                    return;
                }
                thread::sleep(Duration::from_millis(5));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::Client;
    use cordial::prelude::{split_banks, Cordial, CordialConfig};
    use cordial_faultsim::{generate_fleet_dataset, FleetDatasetConfig};

    fn trained(seed: u64) -> (Vec<ErrorEvent>, Cordial) {
        let dataset = generate_fleet_dataset(&FleetDatasetConfig::small(), seed);
        let split = split_banks(&dataset, 0.7, seed);
        let cordial = Cordial::fit(&dataset, &split.train, &CordialConfig::default()).unwrap();
        (dataset.log.events().to_vec(), cordial)
    }

    fn scratch_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("cordial-served-unit-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    /// Sends `events` over the wire and waits until the shards have
    /// ingested all of them.
    fn feed(server: &Server, events: &[ErrorEvent]) {
        let before = server.stats().events;
        let mut client = Client::connect(&server.addr().to_string()).unwrap();
        for batch in events.chunks(256) {
            client.ingest_retrying(batch).unwrap();
        }
        let deadline = Instant::now() + Duration::from_secs(60);
        while server.stats().events < before + events.len() {
            assert!(Instant::now() < deadline, "shards never drained");
            thread::sleep(Duration::from_millis(5));
        }
    }

    /// Asserts that every monitor of every shard points at the daemon's
    /// one model, and returns how many monitors there are.
    fn monitors_sharing_the_model(server: &Server) -> usize {
        let mut monitors = 0;
        for shard in &server.shared.shards {
            for (device, monitor) in &lock(shard).monitors {
                assert!(
                    Arc::ptr_eq(monitor.model(), &server.shared.model),
                    "device {device} holds its own model"
                );
                monitors += 1;
            }
        }
        monitors
    }

    #[test]
    fn monitors_created_and_restored_from_checkpoints_share_the_daemon_model() {
        let (events, pipeline) = trained(71);
        let half = events.len() / 2;
        let dir = scratch_dir("ckpt");
        let config = ServeConfig {
            shards: 2,
            checkpoint_dir: Some(dir.clone()),
            ..ServeConfig::default()
        };
        let first = Server::bind(pipeline.clone(), config.clone(), "127.0.0.1:0", None).unwrap();
        feed(&first, &events[..half]);
        let created = monitors_sharing_the_model(&first);
        assert!(created > 1, "the stream must reach several devices");
        first.trigger_shutdown();
        assert_eq!(first.wait().unwrap().checkpoints_written, created);

        let second = Server::bind(pipeline, config, "127.0.0.1:0", None).unwrap();
        assert_eq!(monitors_sharing_the_model(&second), created);
        feed(&second, &events[half..]);
        assert!(monitors_sharing_the_model(&second) >= created);
        second.kill();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn monitors_rebuilt_from_the_store_share_the_daemon_model() {
        let (events, pipeline) = trained(73);
        let third = events.len() / 3;
        let dir = scratch_dir("store");
        let config = ServeConfig {
            shards: 2,
            store_dir: Some(dir.clone()),
            fsync: FsyncPolicy::Never,
            ..ServeConfig::default()
        };
        // Graceful shutdown leaves a store checkpoint per device...
        let first = Server::bind(pipeline.clone(), config.clone(), "127.0.0.1:0", None).unwrap();
        feed(&first, &events[..third]);
        let created = monitors_sharing_the_model(&first);
        assert!(created > 1, "the stream must reach several devices");
        first.trigger_shutdown();
        first.wait().unwrap();

        // ...which the next boot restores; a kill then leaves only the
        // journal tail for the boot after it to replay.
        let second = Server::bind(pipeline.clone(), config.clone(), "127.0.0.1:0", None).unwrap();
        assert_eq!(monitors_sharing_the_model(&second), created);
        feed(&second, &events[third..2 * third]);
        let grown = monitors_sharing_the_model(&second);
        second.kill();

        let last = Server::bind(pipeline, config, "127.0.0.1:0", None).unwrap();
        assert_eq!(monitors_sharing_the_model(&last), grown);
        last.kill();
        let _ = std::fs::remove_dir_all(&dir);
    }
}
