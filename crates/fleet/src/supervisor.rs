//! The fleet supervisor: N per-device monitors behind circuit breakers,
//! with checkpoint-based restart, an ingest watchdog, and canary-style
//! model promotion/rollback.
//!
//! Determinism contract: the supervisor never reads the wall clock — all
//! deadlines and backoffs run on *stream time* (event timestamps), and all
//! jitter comes from seeded per-device RNG streams. Routing the same event
//! sequence through the same config always produces bit-identical device
//! stats, breaker histories and `fleet.*` telemetry.

use std::cell::Cell;
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Once};

use cordial::monitor::{
    CordialMonitor, GuardConfig, IngestOutcome, MonitorCheckpoint, MonitorStats,
};
use cordial::pipeline::{Cordial, ServingModel};
use cordial_faultsim::{FleetDataset, SparingBudget};
use cordial_mcelog::ErrorEvent;
use cordial_store::Store;
use cordial_topology::BankAddress;

use cordial_relearn::{
    build_job, RefitCompletion, RefitScheduler, RefitWorker, RelearnConfig, TrainingWindow,
};

use crate::breaker::{BreakerConfig, BreakerState, CircuitBreaker};
use crate::device::DeviceId;
use crate::registry::{clears_gate, shadow_score, GateConfig, ModelRegistry, PromotionDecision};

/// Bucket bounds for the per-device availability histogram.
pub const AVAILABILITY_BOUNDS: &[f64] = &[0.5, 0.75, 0.9, 0.95, 0.99, 0.999, 1.0];

/// How often (in routed events) the supervisor runs its periodic sweeps
/// (watchdog scan, canary precision check).
const SWEEP_EVERY: u64 = 256;

static PANIC_HOOK: Once = Once::new();

thread_local! {
    /// Set while a supervised ingest runs under `catch_unwind`: the panic
    /// hook stays silent for panics we contain by design.
    static QUIET_PANICS: Cell<bool> = const { Cell::new(false) };
}

/// Installs (once per process) a forwarding panic hook that suppresses the
/// default "thread panicked" noise for panics the supervisor contains.
fn install_quiet_hook() {
    PANIC_HOOK.call_once(|| {
        let previous = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if !QUIET_PANICS.with(Cell::get) {
                previous(info);
            }
        }));
    });
}

/// Runs `f` under `catch_unwind` with the quiet panic hook engaged.
fn contain_panic<T>(f: impl FnOnce() -> T) -> Result<T, ()> {
    QUIET_PANICS.with(|q| q.set(true));
    let result = catch_unwind(AssertUnwindSafe(f));
    QUIET_PANICS.with(|q| q.set(false));
    result.map_err(|_| ())
}

/// Supervisor tuning.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SupervisorConfig {
    /// Seed for every per-device RNG stream (breaker jitter).
    pub seed: u64,
    /// Per-device circuit-breaker tuning.
    pub breaker: BreakerConfig,
    /// Promotion-gate margins.
    pub gate: GateConfig,
    /// Live-precision floor: once a promoted model's precision (measured
    /// since promotion) drops below this with enough samples, the
    /// supervisor rolls back to last-known-good.
    pub precision_floor: f64,
    /// Plans required since promotion before precision is judged.
    pub min_planned: usize,
    /// Events between per-device checkpoint refreshes (the restart token).
    pub checkpoint_every: usize,
    /// Watchdog deadline in stream milliseconds: a registered device whose
    /// last event trails the fleet watermark by more than this is tripped.
    /// `0` disables the watchdog.
    pub watchdog_deadline_ms: u64,
    /// Spare capacity granted to each device's isolation engine.
    pub budget: SparingBudget,
    /// Degraded-stream guard in front of each monitor.
    pub guard: GuardConfig,
    /// Continuous-learning loop: `Some` maintains a sliding training
    /// window over accepted events (journaled into the attached store),
    /// runs scheduled / drift-triggered warm-start refits, and routes
    /// every candidate through the promotion gate. `None` (default)
    /// keeps the model one-shot.
    pub relearn: Option<RelearnConfig>,
}

impl Default for SupervisorConfig {
    fn default() -> Self {
        Self {
            seed: 0,
            breaker: BreakerConfig::default(),
            gate: GateConfig::default(),
            precision_floor: 0.05,
            min_planned: 8,
            checkpoint_every: 64,
            watchdog_deadline_ms: 0,
            budget: SparingBudget::typical(),
            guard: GuardConfig {
                reorder_bound_ms: 300_000,
            },
            relearn: None,
        }
    }
}

/// What happened to one routed event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RouteOutcome {
    /// The device's monitor accepted the event (possibly buffering it).
    Accepted,
    /// The device is quarantined or evicted; the event was shed.
    Shed,
    /// Ingesting this event tripped the device's breaker (panic or
    /// rejection-rate threshold); the monitor was restored from its last
    /// checkpoint.
    Tripped,
}

/// A point-in-time view of one supervised device.
#[derive(Debug, Clone)]
pub struct DeviceStatus {
    /// The device.
    pub id: DeviceId,
    /// Breaker state.
    pub state: BreakerState,
    /// Events routed to the device (including shed ones).
    pub routed: u64,
    /// Events shed while quarantined/evicted.
    pub shed: u64,
    /// Lifetime breaker trips.
    pub trips: u64,
    /// Checkpoint restores performed.
    pub restores: u64,
    /// Panics contained while ingesting.
    pub panics: u64,
    /// The monitor's stats as of now.
    pub stats: MonitorStats,
}

struct DeviceSlot {
    monitor: CordialMonitor,
    breaker: CircuitBreaker,
    checkpoint: MonitorCheckpoint,
    since_checkpoint: usize,
    routed: u64,
    shed: u64,
    panics: u64,
    restores: u64,
    /// Chaos hook: every ingest at/after this routed count panics.
    panic_after: Option<u64>,
    last_seen_ms: u64,
}

/// Baseline for canary precision: fleet totals at promotion time.
#[derive(Debug, Clone, Copy)]
struct PrecisionBaseline {
    banks_planned: usize,
    plans_absorbing: usize,
}

/// Lifetime refit outcome counters for the continuous-learning loop
/// (mirrored into the `obs.relearn.*` telemetry family).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RelearnOutcomes {
    /// Refits started (scheduled, drift-escalated or operator-begun).
    pub started: u64,
    /// Candidates that cleared the promotion gate and now serve.
    pub promoted: u64,
    /// Candidates the gate turned away (incumbent kept serving).
    pub rejected: u64,
    /// Refits that failed or panicked during training (contained).
    pub failed: u64,
    /// Background refits abandoned past their stream-time budget.
    pub timed_out: u64,
    /// Relearn-promoted models the live-precision canary rolled back.
    pub rolled_back: u64,
}

/// The supervisor-side half of the continuous-learning loop.
struct RelearnState {
    config: RelearnConfig,
    window: TrainingWindow,
    scheduler: RefitScheduler,
    inflight: Option<RefitWorker>,
    outcomes: RelearnOutcomes,
    /// Fleet-wide drift-watchdog alert total at the last sweep; any
    /// increase escalates the scheduler to an immediate refit.
    last_drift_alerts: u64,
    /// Whether the currently serving model came from a relearn refit
    /// (canary rollbacks of such models are attributed to relearn).
    promoted_by_relearn: bool,
    /// Chaos hook: the next refit job panics mid-fit.
    panic_next_refit: bool,
}

impl RelearnState {
    fn new(config: RelearnConfig) -> Self {
        Self {
            window: TrainingWindow::new(config.window_span_ms, config.max_window_events),
            scheduler: RefitScheduler::new(&config),
            inflight: None,
            outcomes: RelearnOutcomes::default(),
            last_drift_alerts: 0,
            promoted_by_relearn: false,
            panic_next_refit: false,
            config,
        }
    }
}

/// Registers the whole `obs.relearn.*` counter family up front so
/// telemetry digests cover it deterministically even on runs where no
/// refit ever fires.
fn touch_relearn_counters() {
    cordial_obs::counter!("obs.relearn.refits_started").add(0);
    cordial_obs::counter!("obs.relearn.refits_promoted").add(0);
    cordial_obs::counter!("obs.relearn.refits_rejected").add(0);
    cordial_obs::counter!("obs.relearn.refits_failed").add(0);
    cordial_obs::counter!("obs.relearn.refits_timed_out").add(0);
    cordial_obs::counter!("obs.relearn.refits_rolled_back").add(0);
    cordial_obs::counter!("obs.relearn.refits_skipped").add(0);
    cordial_obs::counter!("obs.relearn.drift_triggers").add(0);
    cordial_obs::counter!("obs.relearn.journal.events").add(0);
    cordial_obs::counter!("obs.relearn.journal.errors").add(0);
}

/// Owns the per-device monitors and the model registry; routes interleaved
/// multi-device streams and self-heals at the device and model level.
pub struct FleetSupervisor {
    config: SupervisorConfig,
    registry: ModelRegistry,
    devices: BTreeMap<DeviceId, DeviceSlot>,
    watermark_ms: u64,
    routed_total: u64,
    shed_total: u64,
    baseline: Option<PrecisionBaseline>,
    rolled_back: bool,
    /// Durable checkpoint store, when attached via
    /// [`FleetSupervisor::with_store`].
    store: Option<Store>,
    /// Continuous-learning loop, when enabled via
    /// [`SupervisorConfig::relearn`].
    relearn: Option<RelearnState>,
}

/// Appends one device checkpoint to the durable store. Failures are
/// counted, not propagated — the supervisor's contract is to degrade, and
/// the in-memory checkpoint still covers restarts within this process.
fn persist_checkpoint(store: &mut Store, id: DeviceId, checkpoint: &MonitorCheckpoint) {
    let payload = match serde_json::to_string(checkpoint) {
        Ok(payload) => payload,
        Err(_) => {
            cordial_obs::counter!("fleet.store.checkpoint_errors").inc();
            return;
        }
    };
    let floor = store.last_seq().unwrap_or(0);
    match store.append_checkpoint(id.store_key(), floor, &payload) {
        Ok(_) => cordial_obs::counter!("fleet.store.checkpoints").inc(),
        Err(_) => cordial_obs::counter!("fleet.store.checkpoint_errors").inc(),
    }
}

impl FleetSupervisor {
    /// A supervisor serving `model` on every pre-registered device; all
    /// device monitors share it. Devices not listed are auto-registered on
    /// their first event.
    pub fn new(
        config: SupervisorConfig,
        model: impl Into<Arc<ServingModel>>,
        devices: impl IntoIterator<Item = DeviceId>,
    ) -> Self {
        install_quiet_hook();
        let registry = ModelRegistry::new(model);
        let relearn = config.relearn.map(|relearn_config| {
            touch_relearn_counters();
            RelearnState::new(relearn_config)
        });
        let mut supervisor = Self {
            config,
            registry,
            devices: BTreeMap::new(),
            watermark_ms: 0,
            routed_total: 0,
            shed_total: 0,
            baseline: None,
            rolled_back: false,
            store: None,
            relearn,
        };
        for id in devices {
            supervisor.register_device(id);
        }
        supervisor
    }

    /// Attaches a durable checkpoint store (builder style): devices
    /// registered from now on restore from the store's newest checkpoint
    /// for them, periodic and [`FleetSupervisor::finish`] checkpoints are
    /// persisted into it, and [`FleetSupervisor::rebuild_from_store`] can
    /// resurrect evicted devices from it across process restarts.
    pub fn with_store(mut self, store: Store) -> Self {
        self.store = Some(store);
        // Devices pre-registered before the store was attached got fresh
        // monitors; re-seed any that haven't served yet from their newest
        // store checkpoint, exactly as post-attach registration would.
        let idle: Vec<DeviceId> = self
            .devices
            .iter()
            .filter(|(_, slot)| slot.routed == 0)
            .map(|(id, _)| *id)
            .collect();
        for id in idle {
            if let Some((monitor, checkpoint)) = self.monitor_from_store(id) {
                if let Some(slot) = self.devices.get_mut(&id) {
                    slot.monitor = monitor;
                    slot.checkpoint = checkpoint;
                    slot.since_checkpoint = 0;
                }
            }
        }
        if let (Some(state), Some(store)) = (self.relearn.as_mut(), self.store.as_ref()) {
            // The training window rebuilds from the event journal so a
            // restarted supervisor resumes retraining where the killed one
            // left off; the refit cadence resumes at the journal's depth
            // instead of restarting from zero.
            match TrainingWindow::rebuild_from_store(
                store,
                state.config.window_span_ms,
                state.config.max_window_events,
            ) {
                Ok(window) => {
                    state.scheduler.resume_at(window.len() as u64);
                    state.window = window;
                }
                Err(_) => cordial_obs::counter!("obs.relearn.journal.errors").inc(),
            }
        }
        self
    }

    /// Read access to the attached store, when one is configured.
    pub fn store(&self) -> Option<&Store> {
        self.store.as_ref()
    }

    /// Restores a monitor for `id` from the attached store's newest
    /// checkpoint. `None` when there is no store, no checkpoint, or the
    /// payload cannot be used (counted, then degraded to a fresh monitor
    /// by the caller — the supervisor never refuses to serve).
    fn monitor_from_store(&self, id: DeviceId) -> Option<(CordialMonitor, MonitorCheckpoint)> {
        let store = self.store.as_ref()?;
        let record = match store.latest_checkpoint(id.store_key()) {
            Ok(found) => found?,
            Err(_) => {
                cordial_obs::counter!("fleet.store.restore_errors").inc();
                return None;
            }
        };
        let loaded = serde_json::parse_value_str(&record.payload)
            .map_err(|e| e.to_string())
            .and_then(|value| {
                cordial::checkpoint::load_checkpoint_value(value).map_err(|e| e.to_string())
            });
        let state = match loaded {
            Ok((state, _was_version)) => state,
            Err(_) => {
                cordial_obs::counter!("fleet.store.restore_errors").inc();
                return None;
            }
        };
        match CordialMonitor::restore(Arc::clone(self.registry.incumbent()), state.clone()) {
            Ok(monitor) => {
                cordial_obs::counter!("fleet.store.restores").inc();
                Some((monitor, state))
            }
            Err(_) => {
                cordial_obs::counter!("fleet.store.restore_errors").inc();
                None
            }
        }
    }

    /// A fresh slot for `id`: a store-restored monitor when available,
    /// otherwise a new monitor on the incumbent model. Returns the slot
    /// and whether the store seeded it.
    fn fresh_slot(&self, id: DeviceId) -> (DeviceSlot, bool) {
        let (monitor, checkpoint, from_store) = match self.monitor_from_store(id) {
            Some((monitor, checkpoint)) => (monitor, checkpoint, true),
            None => {
                let monitor =
                    CordialMonitor::new(Arc::clone(self.registry.incumbent()), self.config.budget)
                        .with_guard_config(self.config.guard);
                let checkpoint = monitor.checkpoint();
                (monitor, checkpoint, false)
            }
        };
        let breaker = CircuitBreaker::new(
            self.config.breaker,
            self.config.seed ^ id.salt().wrapping_mul(0x9E37_79B9_7F4A_7C15),
        );
        (
            DeviceSlot {
                monitor,
                breaker,
                checkpoint,
                since_checkpoint: 0,
                routed: 0,
                shed: 0,
                panics: 0,
                restores: 0,
                panic_after: None,
                last_seen_ms: 0,
            },
            from_store,
        )
    }

    /// Registers a device (idempotent): a monitor restored from the
    /// attached store's newest checkpoint when one exists, otherwise a
    /// fresh monitor on the incumbent model — behind a closed breaker.
    pub fn register_device(&mut self, id: DeviceId) {
        if self.devices.contains_key(&id) {
            return;
        }
        let (slot, _from_store) = self.fresh_slot(id);
        self.devices.insert(id, slot);
        cordial_obs::gauge!("fleet.devices.total").set(self.devices.len() as f64);
    }

    /// Rebuilds `id` from the durable store: the slot is replaced by a
    /// monitor restored from the store's newest checkpoint for the device
    /// (a fresh monitor when none is usable) behind a fresh closed
    /// breaker, clearing any quarantine, eviction or injected fault. The
    /// operator path for bringing an evicted device back once its
    /// underlying fault is fixed. Returns whether a store checkpoint
    /// seeded the rebuild.
    pub fn rebuild_from_store(&mut self, id: DeviceId) -> bool {
        let (slot, from_store) = self.fresh_slot(id);
        let previous = self.devices.insert(id, slot);
        if let Some(previous) = previous {
            // Lifetime routing totals survive the rebuild; only monitor
            // state and breaker history reset.
            if let Some(slot) = self.devices.get_mut(&id) {
                slot.routed = previous.routed;
                slot.shed = previous.shed;
                slot.panics = previous.panics;
                slot.restores = previous.restores + 1;
                slot.last_seen_ms = previous.last_seen_ms;
            }
        }
        cordial_obs::counter!("fleet.store.rebuilds").inc();
        cordial_obs::gauge!("fleet.devices.total").set(self.devices.len() as f64);
        self.update_health_gauges();
        from_store
    }

    /// Chaos hook: from the `nth` routed event on, every ingest on `id`
    /// panics (contained by the supervisor). Registers the device if
    /// needed. Models a hard device fault, so the panic is sticky and the
    /// device rides its breaker into eviction.
    pub fn inject_panic_after(&mut self, id: DeviceId, nth: u64) {
        if cordial_obs::recorder::enabled() {
            cordial_obs::recorder::instant(
                "chaos",
                "inject_panic",
                format!("device {id} will panic at routed event {nth}"),
            );
        }
        self.register_device(id);
        if let Some(slot) = self.devices.get_mut(&id) {
            slot.panic_after = Some(nth.max(1));
        }
    }

    /// Routes one event to its device's monitor through the breaker.
    pub fn route(&mut self, event: ErrorEvent) -> RouteOutcome {
        let id = DeviceId::of(&event.addr.bank);
        self.register_device(id);
        let now_ms = event.time.as_millis();
        self.watermark_ms = self.watermark_ms.max(now_ms);
        self.routed_total += 1;
        cordial_obs::counter!("fleet.events.routed").inc();

        let outcome = self.route_to_slot(id, event, now_ms);
        if outcome == RouteOutcome::Accepted {
            self.note_accepted_for_relearn(event);
        }

        if self.routed_total.is_multiple_of(SWEEP_EVERY) {
            if self.config.watchdog_deadline_ms > 0 {
                self.check_watchdogs();
            }
            self.maybe_rollback();
            self.poll_relearn(now_ms);
        }
        outcome
    }

    /// Journals an accepted event (journal-before-train: the durable log
    /// must cover everything the window will learn from) and feeds the
    /// training window and refit cadence.
    fn note_accepted_for_relearn(&mut self, event: ErrorEvent) {
        let Some(state) = self.relearn.as_mut() else {
            return;
        };
        if let Some(store) = self.store.as_mut() {
            match store.append_events(std::slice::from_ref(&event)) {
                Ok(_) => cordial_obs::counter!("obs.relearn.journal.events").inc(),
                Err(_) => cordial_obs::counter!("obs.relearn.journal.errors").inc(),
            }
        }
        state.window.push(event);
        state.scheduler.observe_accept();
    }

    /// One relearn sweep: settle any finished (or overdue) refit, escalate
    /// on new drift-watchdog alerts, start a refit when one is due.
    fn poll_relearn(&mut self, now_ms: u64) {
        // The state moves out of `self` for the sweep so the settle path
        // can route the candidate through `consider_candidate` (&mut self)
        // without aliasing it.
        let Some(mut state) = self.relearn.take() else {
            return;
        };
        if let Some(worker) = state.inflight.as_mut() {
            if let Some(completion) = worker.try_take(now_ms, state.config.refit_timeout_ms) {
                state.inflight = None;
                self.settle_refit(&mut state, completion);
            }
        }
        let alerts = self.total_drift_alerts();
        if alerts > state.last_drift_alerts {
            state.last_drift_alerts = alerts;
            cordial_obs::counter!("obs.relearn.drift_triggers").inc();
            if cordial_obs::recorder::enabled() {
                cordial_obs::recorder::instant(
                    "relearn",
                    "drift_escalation",
                    format!("{alerts} fleet drift alerts at t={now_ms}ms"),
                );
            }
            state.scheduler.note_drift();
        }
        if state.inflight.is_none() && state.scheduler.due() {
            self.start_refit(&mut state, now_ms);
        }
        self.relearn = Some(state);
    }

    /// Fleet-wide drift-watchdog alert total (pattern-mix and lead-time
    /// families over every registered device).
    fn total_drift_alerts(&self) -> u64 {
        self.devices
            .values()
            .map(|slot| {
                let health = slot.monitor.health();
                health.pattern_mix().alerts() + health.lead_time().alerts()
            })
            .sum()
    }

    /// Builds a refit job from the current window and launches it
    /// (inline jobs also settle here; background jobs settle at a later
    /// sweep). Thin windows count as skipped and wait out one cadence.
    fn start_refit(&mut self, state: &mut RelearnState, now_ms: u64) {
        let incumbent = self.registry.incumbent().pipeline();
        let job = build_job(&state.window, &state.config, incumbent.config(), incumbent);
        state.scheduler.note_started();
        let Some(mut job) = job else {
            cordial_obs::counter!("obs.relearn.refits_skipped").inc();
            return;
        };
        job.inject_panic = std::mem::take(&mut state.panic_next_refit);
        state.outcomes.started += 1;
        cordial_obs::counter!("obs.relearn.refits_started").inc();
        if cordial_obs::recorder::enabled() {
            cordial_obs::recorder::instant(
                "relearn",
                "refit_start",
                format!(
                    "{} window events, {} train / {} calibration banks at t={now_ms}ms",
                    state.window.len(),
                    job.train.len(),
                    job.calibration.len()
                ),
            );
        }
        let mut worker = RefitWorker::start(job, state.config.background, now_ms);
        if state.config.background {
            state.inflight = Some(worker);
        } else if let Some(completion) = worker.try_take(now_ms, 0) {
            self.settle_refit(state, completion);
        }
    }

    /// Applies one refit completion: failures and timeouts feed the
    /// scheduler's backoff, candidates go through the promotion gate.
    fn settle_refit(&mut self, state: &mut RelearnState, completion: RefitCompletion) {
        if completion.timed_out {
            state.outcomes.timed_out += 1;
            cordial_obs::counter!("obs.relearn.refits_timed_out").inc();
            state.scheduler.note_failure();
            return;
        }
        let panicked = completion.panicked;
        let (Some(candidate), Some(job)) = (completion.candidate, completion.job) else {
            state.outcomes.failed += 1;
            cordial_obs::counter!("obs.relearn.refits_failed").inc();
            if panicked {
                cordial_obs::blackbox::trigger(
                    "refit_panic_contained",
                    "background refit panicked during training (contained)",
                );
            }
            state.scheduler.note_failure();
            return;
        };
        match self.consider_candidate(*candidate, &job.dataset, &job.calibration) {
            PromotionDecision::Promoted { .. } => {
                state.outcomes.promoted += 1;
                cordial_obs::counter!("obs.relearn.refits_promoted").inc();
                state.promoted_by_relearn = true;
            }
            PromotionDecision::Rejected { .. } => {
                state.outcomes.rejected += 1;
                cordial_obs::counter!("obs.relearn.refits_rejected").inc();
            }
        }
        state.scheduler.note_success();
    }

    /// Operator/test trigger: starts a refit right now from the current
    /// window (ignoring cadence and backoff). Returns whether a job
    /// actually launched — `false` when relearn is disabled, a refit is
    /// already in flight, or the window is too thin to train from.
    pub fn begin_refit(&mut self) -> bool {
        let now_ms = self.watermark_ms;
        let Some(mut state) = self.relearn.take() else {
            return false;
        };
        let before = state.outcomes;
        if state.inflight.is_none() {
            self.start_refit(&mut state, now_ms);
        }
        let started = state.outcomes.started > before.started;
        self.relearn = Some(state);
        started
    }

    /// Lifetime refit outcome counters (`None` when relearn is disabled).
    pub fn relearn_outcomes(&self) -> Option<RelearnOutcomes> {
        self.relearn.as_ref().map(|state| state.outcomes)
    }

    /// The sliding training window (`None` when relearn is disabled).
    pub fn training_window(&self) -> Option<&TrainingWindow> {
        self.relearn.as_ref().map(|state| &state.window)
    }

    /// Whether a background refit is currently in flight.
    pub fn refit_in_flight(&self) -> bool {
        self.relearn
            .as_ref()
            .is_some_and(|state| state.inflight.is_some())
    }

    /// Chaos hook: the next refit job panics mid-fit (contained; counted
    /// as a failed refit and backed off like any other failure).
    pub fn inject_refit_panic(&mut self) {
        if let Some(state) = self.relearn.as_mut() {
            state.panic_next_refit = true;
        }
    }

    fn route_to_slot(&mut self, id: DeviceId, event: ErrorEvent, now_ms: u64) -> RouteOutcome {
        let incumbent = self.registry.incumbent();
        let config = self.config;
        let Some(slot) = self.devices.get_mut(&id) else {
            return RouteOutcome::Shed;
        };
        slot.routed += 1;
        slot.last_seen_ms = now_ms;

        if slot.breaker.poll(now_ms) {
            // Quarantine expired: probe on a monitor restored from the last
            // good checkpoint.
            if cordial_obs::recorder::enabled() {
                cordial_obs::recorder::instant("breaker", "probe", format!("device {id}"));
            }
            Self::restore_slot(slot, incumbent, &config);
        }
        if !slot.breaker.state().is_serving() {
            slot.shed += 1;
            self.shed_total += 1;
            cordial_obs::counter!("fleet.events.shed").inc();
            return RouteOutcome::Shed;
        }

        let must_panic = slot.panic_after.is_some_and(|nth| slot.routed >= nth);
        let monitor = &mut slot.monitor;
        let ingested = contain_panic(|| {
            if must_panic {
                panic!("injected device fault");
            }
            monitor.ingest_guarded(event)
        });
        let outcomes = match ingested {
            Ok(outcomes) => outcomes,
            Err(()) => {
                slot.panics += 1;
                cordial_obs::counter!("fleet.breaker.panics").inc();
                // Black-box the contained panic before state is discarded:
                // the dump carries the last events from every thread's
                // recorder ring plus a metrics snapshot.
                cordial_obs::blackbox::trigger(
                    "panic_contained",
                    &format!("device {id} panicked during ingest at t={now_ms}ms"),
                );
                Self::trip_slot(slot, id, incumbent, &config, now_ms, "panic");
                self.update_health_gauges();
                return RouteOutcome::Tripped;
            }
        };

        cordial_obs::counter!("fleet.events.accepted").inc();
        for (_, outcome) in &outcomes {
            let failure = matches!(outcome, IngestOutcome::Rejected { .. });
            if slot.breaker.record(now_ms, failure) {
                Self::trip_slot(slot, id, incumbent, &config, now_ms, "failure_rate");
                self.update_health_gauges();
                return RouteOutcome::Tripped;
            }
        }

        slot.since_checkpoint += 1;
        if slot.since_checkpoint >= config.checkpoint_every.max(1) {
            slot.checkpoint = slot.monitor.checkpoint();
            slot.since_checkpoint = 0;
            cordial_obs::counter!("fleet.checkpoints").inc();
            if let Some(store) = self.store.as_mut() {
                persist_checkpoint(store, id, &slot.checkpoint);
            }
        }
        RouteOutcome::Accepted
    }

    /// Quarantines `slot` and discards possibly-poisoned monitor state by
    /// restoring from the last checkpoint.
    fn trip_slot(
        slot: &mut DeviceSlot,
        id: DeviceId,
        incumbent: &Arc<ServingModel>,
        config: &SupervisorConfig,
        now_ms: u64,
        cause: &'static str,
    ) {
        slot.breaker.trip(now_ms);
        cordial_obs::counter!("fleet.breaker.trips").inc();
        let evicted = slot.breaker.state() == BreakerState::Evicted;
        if evicted {
            cordial_obs::counter!("fleet.breaker.evictions").inc();
        }
        if cordial_obs::recorder::enabled() {
            cordial_obs::recorder::instant(
                "breaker",
                if evicted { "evict" } else { "trip" },
                format!("device {id} cause={cause} at t={now_ms}ms"),
            );
        }
        // A breaker opening is a post-mortem moment: snapshot the recorder
        // rings and metrics to the black-box dump directory (no-op when no
        // directory is configured). Panic containment already dumped with
        // the richer `panic_contained` reason.
        if cause != "panic" {
            cordial_obs::blackbox::trigger(
                "breaker_open",
                &format!("device {id} cause={cause} at t={now_ms}ms"),
            );
        }
        Self::restore_slot(slot, incumbent, config);
    }

    fn restore_slot(
        slot: &mut DeviceSlot,
        incumbent: &Arc<ServingModel>,
        config: &SupervisorConfig,
    ) {
        slot.monitor = match CordialMonitor::restore(Arc::clone(incumbent), slot.checkpoint.clone())
        {
            Ok(monitor) => monitor,
            // Unreachable (the checkpoint was minted by this build), but a
            // fresh monitor is the safe degraded fallback.
            Err(_) => CordialMonitor::new(Arc::clone(incumbent), config.budget)
                .with_guard_config(config.guard),
        };
        slot.since_checkpoint = 0;
        slot.restores += 1;
        cordial_obs::counter!("fleet.breaker.restores").inc();
        if cordial_obs::recorder::enabled() {
            cordial_obs::recorder::instant(
                "breaker",
                "restore",
                format!(
                    "monitor restored from checkpoint ({} restores)",
                    slot.restores
                ),
            );
        }
    }

    /// Trips every registered device whose stream has silently stalled:
    /// no event for `watchdog_deadline_ms` of stream time while the fleet
    /// watermark kept advancing.
    fn check_watchdogs(&mut self) {
        let deadline = self.config.watchdog_deadline_ms;
        let watermark = self.watermark_ms;
        let incumbent = self.registry.incumbent();
        let config = self.config;
        for (id, slot) in self.devices.iter_mut() {
            if slot.breaker.state() == BreakerState::Closed
                && watermark.saturating_sub(slot.last_seen_ms) > deadline
            {
                cordial_obs::counter!("fleet.watchdog.trips").inc();
                Self::trip_slot(slot, *id, incumbent, &config, watermark, "watchdog_stall");
            }
        }
        self.update_health_gauges();
    }

    /// Shadow-scores `candidate` against the incumbent on a calibration
    /// bank set; swaps it into every monitor only if it clears the gate.
    pub fn consider_candidate(
        &mut self,
        candidate: impl Into<Arc<ServingModel>>,
        dataset: &FleetDataset,
        calibration: &[BankAddress],
    ) -> PromotionDecision {
        let candidate = candidate.into();
        let budget = self.config.budget;
        let guard = self.config.guard;
        let candidate_score = shadow_score(&candidate, dataset, calibration, budget, guard);
        let incumbent_score = shadow_score(
            self.registry.incumbent(),
            dataset,
            calibration,
            budget,
            guard,
        );
        match clears_gate(&candidate_score, &incumbent_score, &self.config.gate) {
            Ok(()) => {
                cordial_obs::counter!("fleet.model.promotions").inc();
                if cordial_obs::recorder::enabled() {
                    cordial_obs::recorder::instant(
                        "model",
                        "promote",
                        format!("candidate [{candidate_score}] vs incumbent [{incumbent_score}]"),
                    );
                }
                self.adopt(candidate);
                PromotionDecision::Promoted {
                    candidate: candidate_score,
                    incumbent: incumbent_score,
                }
            }
            Err(reason) => {
                cordial_obs::counter!("fleet.model.rejections").inc();
                if cordial_obs::recorder::enabled() {
                    cordial_obs::recorder::instant("model", "reject", reason.to_string());
                }
                self.registry.note_rejection();
                PromotionDecision::Rejected {
                    candidate: candidate_score,
                    incumbent: incumbent_score,
                    reason,
                }
            }
        }
    }

    /// Installs `candidate` bypassing the gate — an operator override (and
    /// the chaos hook that lets tests exercise rollback).
    pub fn force_promote(&mut self, candidate: impl Into<Arc<ServingModel>>) {
        cordial_obs::counter!("fleet.model.forced").inc();
        if cordial_obs::recorder::enabled() {
            cordial_obs::recorder::instant("model", "force_promote", "operator override");
        }
        self.adopt(candidate.into());
    }

    fn adopt(&mut self, candidate: Arc<ServingModel>) {
        for slot in self.devices.values_mut() {
            slot.monitor.swap_model(Arc::clone(&candidate));
        }
        self.registry.promote(candidate);
        self.baseline = Some(PrecisionBaseline {
            banks_planned: self.total_banks_planned(),
            plans_absorbing: self.total_plans_absorbing(),
        });
        self.rolled_back = false;
        // Attribution resets on every adoption; the relearn settle path
        // re-marks its own promotions after `consider_candidate` returns.
        if let Some(state) = self.relearn.as_mut() {
            state.promoted_by_relearn = false;
        }
    }

    /// The canary's current evidence: plans made since the last promotion
    /// and the live precision over them (`None` before any promotion; a
    /// plan-free sample reads as perfect precision).
    pub fn canary_sample(&self) -> Option<(usize, f64)> {
        let baseline = self.baseline?;
        let planned = self
            .total_banks_planned()
            .saturating_sub(baseline.banks_planned);
        let absorbing = self
            .total_plans_absorbing()
            .saturating_sub(baseline.plans_absorbing);
        if planned == 0 {
            return Some((0, 1.0));
        }
        Some((planned, absorbing as f64 / planned as f64))
    }

    /// Canary check: live precision measured *since the last promotion*
    /// (new plans that went on to absorb / new plans made). Rolls back to
    /// last-known-good and returns the failing precision when it sinks
    /// below the floor with at least `min_planned` samples.
    pub fn maybe_rollback(&mut self) -> Option<f64> {
        let baseline = self.baseline?;
        if self.rolled_back {
            return None;
        }
        let planned = self
            .total_banks_planned()
            .saturating_sub(baseline.banks_planned);
        let absorbing = self
            .total_plans_absorbing()
            .saturating_sub(baseline.plans_absorbing);
        if planned < self.config.min_planned.max(1) {
            return None;
        }
        let precision = absorbing as f64 / planned as f64;
        cordial_obs::gauge!("fleet.model.live_precision").set(precision);
        if precision >= self.config.precision_floor {
            return None;
        }
        cordial_obs::counter!("fleet.model.rollbacks").inc();
        if cordial_obs::recorder::enabled() {
            cordial_obs::recorder::instant(
                "model",
                "rollback",
                format!(
                    "live precision {precision:.4} below floor {:.4} over {planned} plans",
                    self.config.precision_floor
                ),
            );
        }
        let good = self.registry.rollback();
        for slot in self.devices.values_mut() {
            slot.monitor.swap_model(Arc::clone(&good));
        }
        self.rolled_back = true;
        if let Some(state) = self.relearn.as_mut() {
            if state.promoted_by_relearn {
                state.promoted_by_relearn = false;
                state.outcomes.rolled_back += 1;
                cordial_obs::counter!("obs.relearn.refits_rolled_back").inc();
            }
        }
        Some(precision)
    }

    /// Flushes every serving monitor's reorder buffer, persists a final
    /// checkpoint per serving device into the attached store (when one is
    /// configured), and publishes the end-of-run health gauges and the
    /// per-device availability histogram.
    pub fn finish(&mut self) {
        for (id, slot) in self.devices.iter_mut() {
            if slot.breaker.state().is_serving() {
                slot.monitor.flush_guarded();
                if let Some(store) = self.store.as_mut() {
                    persist_checkpoint(store, *id, &slot.monitor.checkpoint());
                }
            }
            if slot.routed > 0 {
                let availability = (slot.routed - slot.shed) as f64 / slot.routed as f64;
                cordial_obs::histogram!("fleet.device.availability", AVAILABILITY_BOUNDS)
                    .observe(availability);
            }
        }
        if let Some(store) = self.store.as_mut() {
            if store.sync().is_err() {
                cordial_obs::counter!("fleet.store.checkpoint_errors").inc();
            }
        }
        self.update_health_gauges();
    }

    fn update_health_gauges(&self) {
        let mut healthy = 0u64;
        let mut quarantined = 0u64;
        let mut evicted = 0u64;
        for slot in self.devices.values() {
            match slot.breaker.state() {
                BreakerState::Closed => healthy += 1,
                BreakerState::Open | BreakerState::HalfOpen => quarantined += 1,
                BreakerState::Evicted => evicted += 1,
            }
        }
        cordial_obs::gauge!("fleet.devices.healthy").set(healthy as f64);
        cordial_obs::gauge!("fleet.devices.quarantined").set(quarantined as f64);
        cordial_obs::gauge!("fleet.devices.evicted").set(evicted as f64);
    }

    fn total_banks_planned(&self) -> usize {
        self.devices
            .values()
            .map(|s| s.monitor.stats().banks_planned)
            .sum()
    }

    fn total_plans_absorbing(&self) -> usize {
        self.devices
            .values()
            .map(|s| s.monitor.stats().plans_absorbing)
            .sum()
    }

    /// The model currently serving on every healthy device.
    pub fn incumbent(&self) -> &Cordial {
        self.registry.incumbent().pipeline()
    }

    /// Lifecycle counters (promotions / rejections / rollbacks).
    pub fn registry(&self) -> &ModelRegistry {
        &self.registry
    }

    /// All registered devices in address order.
    pub fn device_ids(&self) -> Vec<DeviceId> {
        self.devices.keys().copied().collect()
    }

    /// The monitor serving one device.
    pub fn monitor(&self, id: DeviceId) -> Option<&CordialMonitor> {
        self.devices.get(&id).map(|slot| &slot.monitor)
    }

    /// A snapshot of one device.
    pub fn status(&self, id: DeviceId) -> Option<DeviceStatus> {
        self.devices.get(&id).map(|slot| DeviceStatus {
            id,
            state: slot.breaker.state(),
            routed: slot.routed,
            shed: slot.shed,
            trips: slot.breaker.trips(),
            restores: slot.restores,
            panics: slot.panics,
            stats: slot.monitor.stats(),
        })
    }

    /// Snapshots of every device, in address order.
    pub fn statuses(&self) -> Vec<DeviceStatus> {
        self.devices
            .keys()
            .copied()
            .filter_map(|id| self.status(id))
            .collect()
    }

    /// Devices whose breaker has ever tripped, in address order.
    pub fn tripped_devices(&self) -> Vec<DeviceId> {
        self.devices
            .iter()
            .filter(|(_, slot)| slot.breaker.trips() > 0)
            .map(|(id, _)| *id)
            .collect()
    }

    /// Permanently evicted devices, in address order.
    pub fn evicted_devices(&self) -> Vec<DeviceId> {
        self.devices
            .iter()
            .filter(|(_, slot)| slot.breaker.state() == BreakerState::Evicted)
            .map(|(id, _)| *id)
            .collect()
    }

    /// Fraction of routed events that were actually served (not shed).
    pub fn availability(&self) -> f64 {
        if self.routed_total == 0 {
            1.0
        } else {
            (self.routed_total - self.shed_total) as f64 / self.routed_total as f64
        }
    }

    /// Total events routed so far.
    pub fn events_routed(&self) -> u64 {
        self.routed_total
    }

    /// Total events shed so far.
    pub fn events_shed(&self) -> u64 {
        self.shed_total
    }

    /// The highest event timestamp seen, in stream milliseconds.
    pub fn watermark_ms(&self) -> u64 {
        self.watermark_ms
    }
}
