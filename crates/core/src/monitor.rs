//! Online fleet monitor: the deployment-side wrapper around a trained
//! [`Cordial`] pipeline.
//!
//! Production BMCs deliver error records one at a time. [`CordialMonitor`]
//! keeps incremental per-bank state, decides the moment a bank crosses the
//! k-distinct-UER observation threshold, plans exactly once per bank, and
//! applies the plan against a hardware [`IsolationEngine`] — everything the
//! paper's Fig. 5 pipeline needs to run as a service rather than a batch
//! job.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Duration;

use serde::{Deserialize, Serialize};

use cordial_faultsim::{CoarsePattern, IsolationEngine, IsolationSnapshot, SparingBudget};
use cordial_mcelog::{BankErrorHistory, ErrorEvent, ErrorType, ObservedWindow, Timestamp};
use cordial_obs::{BurnConfig, BurnRate, DriftConfig, MixDriftDetector};
use cordial_topology::{BankAddress, CellAddress, RowId};

use crate::incremental::{FeatureCaps, IncrementalBankFeatures};
use crate::isolation::apply_plan;
use crate::pipeline::{Cordial, MitigationPlan, PlanRequest};

/// Version of the [`MonitorCheckpoint`] wire format this build writes.
///
/// Bumped whenever the checkpoint layout changes incompatibly (new stats
/// fields, guard-buffer shape, …). [`CordialMonitor::restore`] refuses a
/// checkpoint whose version differs instead of silently deserializing an
/// incompatible token; checkpoints written before versioning existed read
/// back as version 0.
pub const CHECKPOINT_SCHEMA_VERSION: u32 = 1;

/// A checkpoint was produced by an incompatible build: its schema version
/// does not match [`CHECKPOINT_SCHEMA_VERSION`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CheckpointVersionMismatch {
    /// The version recorded in the checkpoint (0 for pre-versioning
    /// checkpoints that lack the field).
    pub found: u32,
    /// The version this build reads and writes.
    pub expected: u32,
}

impl std::fmt::Display for CheckpointVersionMismatch {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "checkpoint schema version {} is incompatible with this build (expects {})",
            self.found, self.expected
        )
    }
}

impl std::error::Error for CheckpointVersionMismatch {}

/// Why the degraded-stream guard refused an event.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum RejectReason {
    /// An identical event (same cell, timestamp and severity) is already
    /// in flight within the reorder window.
    Duplicate,
    /// The event's timestamp is older than the guard's reorder bound
    /// allows; admitting it would break the ordered release guarantee.
    LateArrival,
}

/// What happened when the monitor ingested one event.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum IngestOutcome {
    /// The event was recorded; no action triggered.
    Recorded,
    /// The event hit a region an earlier plan had isolated: the spare
    /// absorbed the error before it reached live data.
    AbsorbedByIsolation,
    /// This event completed a bank's observation window and triggered a
    /// mitigation plan.
    Planned {
        /// The plan that was produced and applied.
        plan: MitigationPlan,
        /// How many of the plan's isolations the spare budget admitted.
        applied: usize,
    },
    /// The degraded-stream guard refused the event (guarded ingestion
    /// only); it was counted but not recorded into any bank history.
    Rejected {
        /// Why the event was refused.
        reason: RejectReason,
    },
}

/// Running totals of a monitoring session.
///
/// The per-[`IngestOutcome`] split is complete: every ingested event lands
/// in exactly one of `outcomes_recorded`, `uers_absorbed`
/// ([`IngestOutcome::AbsorbedByIsolation`]), `banks_planned`
/// ([`IngestOutcome::Planned`]), `rejected_duplicates` or `rejected_late`
/// (the two [`IngestOutcome::Rejected`] reasons). The sparing fields are
/// derived from the isolation engine at [`CordialMonitor::stats`] time.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct MonitorStats {
    /// Events ingested (including rejected ones; excluding events still
    /// buffered in the reorder window).
    pub events: usize,
    /// Events that returned [`IngestOutcome::Recorded`] (no action).
    pub outcomes_recorded: usize,
    /// UER events absorbed by earlier isolations.
    pub uers_absorbed: usize,
    /// UER events that reached live data.
    pub uers_missed: usize,
    /// Banks that received a plan.
    pub banks_planned: usize,
    /// Row isolations admitted by the budget.
    pub rows_isolated: usize,
    /// Banks spared wholesale.
    pub banks_spared: usize,
    /// Duplicate events suppressed by the guard.
    pub rejected_duplicates: usize,
    /// Events rejected for arriving beyond the reorder bound.
    pub rejected_late: usize,
    /// Out-of-order events the guard buffered and re-released in order
    /// (these also land in one of the regular outcome buckets).
    pub recovered_reordered: usize,
    /// Plans whose isolations the spare budget admitted only partially
    /// (or not at all): the saturating-degradation path.
    pub plans_saturated: usize,
    /// Planned banks whose isolations have absorbed at least one UER so
    /// far: the numerator of [`MonitorStats::live_precision`], the live
    /// health signal a serving fleet watches for model drift.
    pub plans_absorbing: usize,
    /// Sum of plan→absorbed-UER lead times in stream milliseconds (one
    /// term per absorbed UER); integer so the stat stays `Eq` and
    /// bit-identical across runs.
    pub lead_time_ms_total: u64,
    /// The sparing budget the isolation engine was created with.
    pub budget: SparingBudget,
    /// Spare rows still unused across banks that have consumed at least
    /// one (untouched banks sit at the full per-bank budget).
    pub spare_rows_remaining: u64,
    /// Spare banks still unused across HBMs that have consumed at least
    /// one.
    pub spare_banks_remaining: u64,
}

impl MonitorStats {
    /// Fraction of UER events absorbed by proactive isolation.
    pub fn absorption_rate(&self) -> f64 {
        let total = self.uers_absorbed + self.uers_missed;
        if total == 0 {
            0.0
        } else {
            self.uers_absorbed as f64 / total as f64
        }
    }

    /// Total events the degraded-stream guard refused.
    pub fn rejected(&self) -> usize {
        self.rejected_duplicates + self.rejected_late
    }

    /// Fraction of planned banks whose plan has absorbed at least one UER:
    /// the online analogue of prediction precision, computable without
    /// ground truth. `1.0` while nothing has been planned yet (no evidence
    /// of a bad model).
    pub fn live_precision(&self) -> f64 {
        if self.banks_planned == 0 {
            1.0
        } else {
            self.plans_absorbing as f64 / self.banks_planned as f64
        }
    }

    /// Mean plan→absorption lead time over all absorbed UERs, in stream
    /// milliseconds (0 when nothing has been absorbed).
    pub fn mean_lead_time_ms(&self) -> f64 {
        if self.uers_absorbed == 0 {
            0.0
        } else {
            self.lead_time_ms_total as f64 / self.uers_absorbed as f64
        }
    }

    /// Whether every counted event landed in exactly one outcome bucket —
    /// the completeness invariant the chaos harness asserts.
    pub fn split_is_complete(&self) -> bool {
        self.outcomes_recorded + self.uers_absorbed + self.banks_planned + self.rejected()
            == self.events
    }
}

/// Tuning of the degraded-stream guard in front of a [`CordialMonitor`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct GuardConfig {
    /// Maximum tolerated timestamp disorder, in milliseconds: an event
    /// whose timestamp is more than this behind the stream's watermark is
    /// rejected as [`RejectReason::LateArrival`], and buffered events are
    /// released (in time order) only once the watermark has moved past
    /// their timestamp by more than this bound.
    pub reorder_bound_ms: u64,
}

impl Default for GuardConfig {
    fn default() -> Self {
        // Five simulated minutes: generous against BMC scrape jitter while
        // keeping the reorder buffer small relative to fleet event rates.
        Self {
            reorder_bound_ms: 300_000,
        }
    }
}

/// Dedup/ordering key of one event: exact equality means duplicate.
type EventKey = (Timestamp, CellAddress, ErrorType);

fn event_key(event: &ErrorEvent) -> EventKey {
    (event.time, event.addr, event.error_type)
}

/// Degraded-stream front end: bounded reorder buffer plus duplicate
/// suppression. Events are admitted in arrival order but released to the
/// monitor in timestamp order; the buffer holds exactly the events within
/// `reorder_bound_ms` of the watermark, so memory stays bounded by the
/// stream rate times the bound.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct StreamGuard {
    config: GuardConfig,
    /// Admitted-but-unreleased events, sorted by [`event_key`].
    pending: Vec<ErrorEvent>,
    /// Highest event timestamp admitted so far.
    watermark: Timestamp,
    /// Whether any event has been admitted (gives `watermark` meaning).
    started: bool,
    /// Total events offered to the guard (admitted + rejected): the resume
    /// cursor for checkpointed ingestion.
    offered: usize,
}

impl StreamGuard {
    fn new(config: GuardConfig) -> Self {
        Self {
            config,
            pending: Vec::new(),
            watermark: Timestamp::ZERO,
            started: false,
            offered: 0,
        }
    }

    fn bound(&self) -> Duration {
        Duration::from_millis(self.config.reorder_bound_ms)
    }
}

/// Stateful online monitor over a trained pipeline.
///
/// # Example
///
/// ```
/// use cordial::monitor::CordialMonitor;
/// use cordial::prelude::*;
/// use cordial_faultsim::SparingBudget;
///
/// let dataset = generate_fleet_dataset(&FleetDatasetConfig::small(), 3);
/// let banks: Vec<BankAddress> = dataset.truth.keys().copied().collect();
/// let cordial = Cordial::fit(&dataset, &banks, &CordialConfig::default())?;
///
/// let mut monitor = CordialMonitor::new(cordial, SparingBudget::typical());
/// for event in dataset.log.events() {
///     monitor.ingest(*event);
/// }
/// println!("absorbed {:.1}%", monitor.stats().absorption_rate() * 100.0);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone)]
pub struct CordialMonitor {
    /// The serving model, shared with every other monitor of the same
    /// host; never part of a checkpoint.
    model: Arc<Cordial>,
    engine: IsolationEngine,
    /// Per-bank incremental state.
    banks: BTreeMap<BankAddress, BankState>,
    /// Per-bank incrementally maintained §IV-B features — the ingest→plan
    /// fast path. Not checkpointed: rebuilt by replaying the persisted
    /// per-bank event buffers on restore.
    features: BTreeMap<BankAddress, IncrementalBankFeatures>,
    /// Memory bounds applied to every per-bank feature state; persisted in
    /// checkpoints so restore replays under the same caps.
    feature_caps: FeatureCaps,
    stats: MonitorStats,
    /// Degraded-stream front end for the `*_guarded` ingestion paths.
    guard: StreamGuard,
    /// Rolling health watchdogs; derived state, never checkpointed.
    health: MonitorHealth,
}

/// Configuration for the monitor's telemetry health watchdogs
/// ([`MonitorHealth`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HealthConfig {
    /// Drift detector over the classified pattern mix of planned banks
    /// (double-row / single-row / scattered shares).
    pub pattern_mix: DriftConfig,
    /// Drift detector over lead-time histogram bucket occupancy
    /// (plan → first absorbed UER, simulated stream time).
    pub lead_time: DriftConfig,
    /// SLO burn gauge over guard rejections (rejected / offered events).
    pub rejected: BurnConfig,
    /// SLO burn gauge over inline planning latency. Wall clock by nature,
    /// so it is routed through the obs layer's `wallclock` metric families
    /// and excluded from deterministic telemetry digests.
    pub plan_latency: BurnConfig,
    /// Inline planning latency budget in seconds; a plan slower than this
    /// burns one slot of the `plan_latency` window.
    pub plan_latency_slo: f64,
}

impl Default for HealthConfig {
    fn default() -> Self {
        Self {
            pattern_mix: DriftConfig {
                window: 32,
                threshold: 0.35,
            },
            lead_time: DriftConfig {
                window: 64,
                threshold: 0.35,
            },
            rejected: BurnConfig {
                window: 256,
                budget: 0.05,
            },
            plan_latency: BurnConfig {
                window: 64,
                budget: 0.25,
            },
            plan_latency_slo: 0.25,
        }
    }
}

/// Rolling telemetry health watchdogs fed by the ingest stream.
///
/// Every detector except `plan_latency` is a pure function of the event
/// stream (simulated time and arrival order), so alert counts and shift
/// gauges are identical across thread counts and ingestion paths.
/// Watchdog state is derived, in-memory state: it is intentionally *not*
/// checkpointed — a restored monitor restarts with empty windows and the
/// default [`HealthConfig`] (re-apply
/// [`CordialMonitor::with_health_config`] after restore if customised).
#[derive(Debug, Clone)]
pub struct MonitorHealth {
    config: HealthConfig,
    pattern_mix: MixDriftDetector,
    lead_time: MixDriftDetector,
    rejected: BurnRate,
    plan_latency: BurnRate,
}

impl MonitorHealth {
    fn new(config: HealthConfig) -> Self {
        Self {
            config,
            pattern_mix: MixDriftDetector::new(
                "pattern_mix",
                CoarsePattern::ALL.len(),
                config.pattern_mix,
            ),
            lead_time: MixDriftDetector::new(
                "lead_time",
                cordial_obs::LEAD_TIME_BOUNDS.len() + 1,
                config.lead_time,
            ),
            rejected: BurnRate::new("rejected", config.rejected),
            plan_latency: BurnRate::new_wallclock("plan_latency.wallclock", config.plan_latency),
        }
    }

    /// Drift detector over the classified pattern mix of planned banks.
    pub fn pattern_mix(&self) -> &MixDriftDetector {
        &self.pattern_mix
    }

    /// Drift detector over lead-time histogram bucket occupancy.
    pub fn lead_time(&self) -> &MixDriftDetector {
        &self.lead_time
    }

    /// Burn-rate gauge over guard rejections.
    pub fn rejected(&self) -> &BurnRate {
        &self.rejected
    }

    /// Wall-clock burn-rate gauge over inline planning latency.
    pub fn plan_latency(&self) -> &BurnRate {
        &self.plan_latency
    }

    /// Total alerts raised across the stream-deterministic watchdogs
    /// (pattern mix, lead time, rejections). The wall-clock
    /// `plan_latency` alerts are deliberately excluded so the total is
    /// reproducible across machines.
    pub fn alerts(&self) -> u64 {
        self.pattern_mix.alerts() + self.lead_time.alerts() + self.rejected.alerts()
    }
}

#[derive(Debug, Clone, Default, Serialize, Deserialize)]
struct BankState {
    events: Vec<ErrorEvent>,
    distinct_uer_rows: Vec<RowId>,
    planned: bool,
    /// Simulated time the bank's plan was applied; anchors the lead-time
    /// histogram (plan → first absorbed UER). Simulated rather than wall
    /// clock, so the distribution is identical across thread counts.
    planned_at: Option<Timestamp>,
    /// Whether the bank's plan has absorbed at least one UER (feeds
    /// [`MonitorStats::plans_absorbing`] exactly once per bank).
    absorbed_once: bool,
}

/// Serialisable capture of a [`CordialMonitor`]'s complete mutable state:
/// isolation engine, per-bank histories, session stats and the guard's
/// reorder buffer. Produced by [`CordialMonitor::checkpoint`], consumed by
/// [`CordialMonitor::restore`]; the trained pipeline travels separately.
///
/// The fields are intentionally opaque — a checkpoint is a resume token,
/// not an inspection surface (use [`CordialMonitor::stats`] after restore).
///
/// Serialization is hand-written rather than derived so that a checkpoint
/// written **before** versioning existed (no `schema_version` entry) still
/// *deserializes* — as version 0, with its state left empty — and the
/// incompatibility surfaces as a typed [`CheckpointVersionMismatch`] from
/// [`CordialMonitor::restore`] instead of an opaque missing-field error.
#[derive(Debug, Clone)]
pub struct MonitorCheckpoint {
    schema_version: u32,
    engine: IsolationSnapshot,
    banks: Vec<(BankAddress, BankState)>,
    stats: MonitorStats,
    guard: StreamGuard,
    /// Fast-path memory bounds the monitor ran with; restore replays the
    /// per-bank feature states under the same caps so the fast/fallback
    /// choice matches the uninterrupted run. Optional in the wire format
    /// (same-version checkpoints written before the field existed read
    /// back with the defaults), so no schema-version bump is needed.
    feature_caps: FeatureCaps,
}

impl MonitorCheckpoint {
    /// Events offered to the guard when the checkpoint was taken: how many
    /// stream records to skip when resuming guarded ingestion.
    pub fn events_offered(&self) -> usize {
        self.guard.offered
    }

    /// The wire-format version this checkpoint was written with (0 for
    /// checkpoints that predate versioning).
    pub fn schema_version(&self) -> u32 {
        self.schema_version
    }
}

impl Serialize for MonitorCheckpoint {
    fn to_value(&self) -> serde::Value {
        serde::Value::Map(vec![
            (
                String::from("schema_version"),
                self.schema_version.to_value(),
            ),
            (String::from("engine"), self.engine.to_value()),
            (String::from("banks"), self.banks.to_value()),
            (String::from("stats"), self.stats.to_value()),
            (String::from("guard"), self.guard.to_value()),
            (String::from("feature_caps"), self.feature_caps.to_value()),
        ])
    }
}

impl<'de> Deserialize<'de> for MonitorCheckpoint {
    fn from_value(value: &serde::Value) -> Result<Self, serde::Error> {
        // Missing field (pre-versioning checkpoint) defaults to 0, which
        // can never equal a real CHECKPOINT_SCHEMA_VERSION.
        let schema_version: u32 = match value.get("schema_version") {
            Some(v) => Deserialize::from_value(v)?,
            None => 0,
        };
        if schema_version != CHECKPOINT_SCHEMA_VERSION {
            // A foreign version's field layout is unknown; carry only the
            // version so `restore` can report the mismatch precisely.
            return Ok(Self {
                schema_version,
                engine: IsolationSnapshot {
                    budget: SparingBudget::default(),
                    isolated_rows: Vec::new(),
                    isolated_banks: Vec::new(),
                    spare_banks_used: Vec::new(),
                },
                banks: Vec::new(),
                stats: MonitorStats::default(),
                guard: StreamGuard::new(GuardConfig::default()),
                feature_caps: FeatureCaps::default(),
            });
        }
        Ok(Self {
            schema_version,
            engine: serde::de_field(value, "engine")?,
            banks: serde::de_field(value, "banks")?,
            stats: serde::de_field(value, "stats")?,
            guard: serde::de_field(value, "guard")?,
            // Absent in same-version checkpoints written before the caps
            // existed: default rather than reject.
            feature_caps: match value.get("feature_caps") {
                Some(v) => Deserialize::from_value(v)?,
                None => FeatureCaps::default(),
            },
        })
    }
}

impl CordialMonitor {
    /// Wraps a serving model with a fresh isolation engine.
    ///
    /// Pass an `Arc<Cordial>` to share one model between monitors; a bare
    /// [`Cordial`] is moved into an `Arc` for this monitor alone.
    pub fn new(model: impl Into<Arc<Cordial>>, budget: SparingBudget) -> Self {
        Self {
            model: model.into(),
            engine: IsolationEngine::new(budget),
            banks: BTreeMap::new(),
            features: BTreeMap::new(),
            feature_caps: FeatureCaps::default(),
            stats: MonitorStats::default(),
            guard: StreamGuard::new(GuardConfig::default()),
            health: MonitorHealth::new(HealthConfig::default()),
        }
    }

    /// Replaces the degraded-stream guard configuration (builder style).
    ///
    /// Only meaningful before the first `*_guarded` ingestion; changing the
    /// bound mid-stream would retroactively reclassify buffered events.
    pub fn with_guard_config(mut self, config: GuardConfig) -> Self {
        self.guard = StreamGuard::new(config);
        self
    }

    /// Replaces the fast-path memory bounds (builder style).
    ///
    /// Only meaningful before ingestion starts: per-bank feature states
    /// capture the caps when their bank is first seen. The caps travel in
    /// checkpoints, so a restored monitor keeps the bounds it ran with.
    pub fn with_feature_caps(mut self, caps: FeatureCaps) -> Self {
        self.feature_caps = caps;
        self
    }

    /// Replaces the health-watchdog configuration (builder style).
    ///
    /// Resets every rolling window, so it is only meaningful before
    /// ingestion starts (or immediately after [`CordialMonitor::restore`],
    /// whose windows start empty anyway).
    pub fn with_health_config(mut self, config: HealthConfig) -> Self {
        self.health = MonitorHealth::new(config);
        self
    }

    /// The telemetry health watchdogs' current state.
    pub fn health(&self) -> &MonitorHealth {
        &self.health
    }

    /// Ingests one event from the BMC stream.
    ///
    /// Events are expected in roughly time order (the per-bank history is
    /// re-sorted at planning time, so modest reordering is harmless).
    pub fn ingest(&mut self, event: ErrorEvent) -> IngestOutcome {
        self.ingest_with_cache(event, &mut BTreeMap::new())
    }

    /// [`CordialMonitor::ingest`], consuming a plan pre-computed for the
    /// bank's first trigger when one is cached (the batch fast path).
    fn ingest_with_cache(
        &mut self,
        event: ErrorEvent,
        cache: &mut BTreeMap<BankAddress, MitigationPlan>,
    ) -> IngestOutcome {
        self.stats.events += 1;
        cordial_obs::counter!("monitor.events").inc();
        let bank = event.addr.bank;

        // An access into an isolated region is absorbed by the spare.
        if event.is_uer() {
            if self.engine.is_isolated(&bank, event.addr.row) {
                self.stats.uers_absorbed += 1;
                cordial_obs::counter!("monitor.outcome.absorbed").inc();
                // Lead time from the plan to this absorbed UER, in
                // simulated stream time (deterministic across runs).
                if let Some(state) = self.banks.get_mut(&bank) {
                    if let Some(planned_at) = state.planned_at {
                        if !state.absorbed_once {
                            state.absorbed_once = true;
                            self.stats.plans_absorbing += 1;
                            // Timeline instant on the *first* absorption
                            // per bank only (the plan-validated moment):
                            // per-UER instants would dominate the
                            // recorder's hot-path budget for nothing.
                            if cordial_obs::recorder::enabled() {
                                cordial_obs::recorder::instant(
                                    "ingest",
                                    "absorbed",
                                    format!("{bank} row {}", event.addr.row),
                                );
                            }
                        }
                        let lead = event.time.saturating_since(planned_at);
                        self.stats.lead_time_ms_total += lead.as_millis() as u64;
                        let lead_secs = lead.as_secs_f64();
                        cordial_obs::histogram!(
                            "monitor.lead_time.seconds",
                            cordial_obs::LEAD_TIME_BOUNDS
                        )
                        .observe(lead_secs);
                        // Same bucketing as the histogram: the drift
                        // detector watches the bucket-occupancy mix.
                        let bucket = cordial_obs::LEAD_TIME_BOUNDS
                            .iter()
                            .position(|b| lead_secs <= *b)
                            .unwrap_or(cordial_obs::LEAD_TIME_BOUNDS.len());
                        self.health.lead_time.observe(bucket);
                    }
                }
                return IngestOutcome::AbsorbedByIsolation;
            }
            self.stats.uers_missed += 1;
        }

        let k_uers = self.model.config().k_uers;
        let state = self.banks.entry(bank).or_default();
        // Incremental features are valid only at the *first* completion of
        // the observation window: there the buffered events are exactly the
        // window the pipeline would observe, so a sorted-arrival stream can
        // reuse the incrementally maintained vector instead of rescanning.
        // A retrigger after `InsufficientData` has trailing events beyond
        // the cut and must take the reference scan.
        let completes_window = !state.planned
            && event.is_uer()
            && !state.distinct_uer_rows.contains(&event.addr.row)
            && state.distinct_uer_rows.len() + 1 == k_uers;
        // The event buffer and incremental features exist to materialise
        // the observation window; once the bank is planned the window is
        // closed, and feeding them further would grow per-bank state (and
        // per-event cost) without bound on a long-running stream.
        if !state.planned {
            state.events.push(event);
            let feature_caps = self.feature_caps;
            let features = self
                .features
                .entry(bank)
                .or_insert_with(|| IncrementalBankFeatures::with_caps(feature_caps));
            let was_capped = features.is_capped();
            features.absorb(&event);
            if features.is_capped() && !was_capped {
                // A memory cap just forced this bank onto the reference-scan
                // fallback (see `FeatureCaps`); once per bank.
                cordial_obs::counter!("monitor.features.capped").inc();
            }
            if event.is_uer() && !state.distinct_uer_rows.contains(&event.addr.row) {
                state.distinct_uer_rows.push(event.addr.row);
            }
        }

        // Plan exactly once, the moment the observation window completes.
        if !state.planned && state.distinct_uer_rows.len() >= k_uers {
            state.planned = true;
            let plan = match cache.remove(&bank) {
                Some(plan) => plan,
                None => {
                    // Wall-clock planning latency feeds the `wallclock`
                    // SLO burn gauge only (kept out of deterministic
                    // digests); timing is skipped entirely when metrics
                    // are off.
                    let started = cordial_obs::enabled().then(std::time::Instant::now);
                    let fast = if completes_window {
                        self.features
                            .get(&bank)
                            .and_then(|f| f.vector(self.model.classifier().geom()))
                    } else {
                        None
                    };
                    let plan = match fast {
                        Some(raw) => {
                            cordial_obs::counter!("monitor.features.incremental").inc();
                            self.model.plan_request(&PlanRequest::Window {
                                window: ObservedWindow::from_sorted_events(bank, &state.events),
                                features: &raw,
                            })
                        }
                        None => {
                            cordial_obs::counter!("monitor.features.reference_scan").inc();
                            let history = BankErrorHistory::new(bank, state.events.clone());
                            self.model.plan(&history)
                        }
                    };
                    if let Some(started) = started {
                        let slow =
                            started.elapsed().as_secs_f64() > self.health.config.plan_latency_slo;
                        self.health.plan_latency.observe(slow);
                    }
                    plan
                }
            };
            if plan == MitigationPlan::InsufficientData {
                // Extremely rare (duplicate timestamps can reorder the cut);
                // allow a later event to retrigger.
                state.planned = false;
                self.stats.outcomes_recorded += 1;
                cordial_obs::counter!("monitor.outcome.recorded").inc();
                return IngestOutcome::Recorded;
            }
            state.planned_at = Some(event.time);
            let applied = apply_plan(&mut self.engine, bank, &plan);
            self.stats.banks_planned += 1;
            cordial_obs::counter!("monitor.outcome.planned").inc();
            // Budget saturation is a degradation, not an error: the plan
            // still lands (partially), later events keep being ingested,
            // and the shortfall is surfaced as telemetry.
            let intended = match &plan {
                MitigationPlan::RowSparing { rows, .. } => rows.len(),
                MitigationPlan::BankSparing => 1,
                MitigationPlan::InsufficientData => 0,
            };
            if applied < intended {
                self.stats.plans_saturated += 1;
                cordial_obs::counter!("monitor.plans_saturated").inc();
            }
            match &plan {
                MitigationPlan::RowSparing { .. } => {
                    self.stats.rows_isolated += applied;
                    cordial_obs::counter!("monitor.rows_isolated").add(applied as u64);
                }
                MitigationPlan::BankSparing => {
                    self.stats.banks_spared += applied;
                    cordial_obs::counter!("monitor.banks_spared").add(applied as u64);
                }
                MitigationPlan::InsufficientData => {}
            }
            // Plan decisions feed the pattern-mix drift watchdog and land
            // in the flight recorder as causal timeline instants.
            let class = match &plan {
                MitigationPlan::RowSparing { pattern, .. } => pattern.class_index(),
                // `InsufficientData` returned above; bank sparing is the
                // scattered class's mitigation.
                _ => CoarsePattern::Scattered.class_index(),
            };
            self.health.pattern_mix.observe(class);
            if cordial_obs::recorder::enabled() {
                let (name, detail) = match &plan {
                    MitigationPlan::RowSparing { pattern, rows } => (
                        "row_sparing",
                        format!("{bank} {pattern:?} rows={} applied={applied}", rows.len()),
                    ),
                    _ => ("bank_sparing", format!("{bank} applied={applied}")),
                };
                cordial_obs::recorder::instant("plan", name, detail);
            }
            self.update_gauges();
            return IngestOutcome::Planned { plan, applied };
        }
        self.stats.outcomes_recorded += 1;
        cordial_obs::counter!("monitor.outcome.recorded").inc();
        IngestOutcome::Recorded
    }

    /// Refreshes the registry gauges that mirror monitor state.
    fn update_gauges(&self) {
        if !cordial_obs::enabled() {
            return;
        }
        cordial_obs::gauge!("monitor.banks_tracked").set(self.banks.len() as f64);
        cordial_obs::gauge!("monitor.spare_rows_remaining")
            .set(self.engine.spare_rows_remaining() as f64);
        cordial_obs::gauge!("monitor.spare_banks_remaining")
            .set(self.engine.spare_banks_remaining() as f64);
    }

    /// Ingests a whole batch, returning the triggered plans.
    ///
    /// Equivalent to calling [`CordialMonitor::ingest`] per event, but the
    /// expensive model inference is hoisted into one parallel
    /// [`Cordial::plan_batch`] call. Three passes:
    ///
    /// 1. scan the stream to find each unplanned bank's first trigger
    ///    point and the event prefix it will plan from — valid because a
    ///    bank has isolations only once planned, so its pre-trigger prefix
    ///    is bank-local and independent of the other banks;
    /// 2. plan every triggering bank in parallel;
    /// 3. replay the stream sequentially, applying the cached plan the
    ///    moment each bank triggers, so spare-budget admission and
    ///    absorption accounting stay order-exact.
    pub fn ingest_all(
        &mut self,
        events: impl IntoIterator<Item = ErrorEvent>,
    ) -> Vec<(BankAddress, MitigationPlan)> {
        let _span = cordial_obs::span!("ingest_all");
        let events: Vec<ErrorEvent> = events.into_iter().collect();
        let k_uers = self.model.config().k_uers;
        let geom = self.model.classifier().geom();

        struct Probe {
            /// This batch's events for the bank, up to its trigger point.
            /// The stored pre-batch history is *not* cloned here: the full
            /// observed window is materialised after the scan, and only
            /// for banks that actually trigger — cloning it per batch per
            /// touched bank made long-running ingestion quadratic.
            fresh: Vec<ErrorEvent>,
            distinct_uer_rows: Vec<RowId>,
            features: IncrementalBankFeatures,
            /// Incremental feature vector captured at the trigger point,
            /// when the probe's prefix is exactly the observed window.
            fast: Option<Vec<f64>>,
            done: bool,
            triggered: bool,
        }
        let mut probes: BTreeMap<BankAddress, Probe> = BTreeMap::new();
        for event in &events {
            let bank = event.addr.bank;
            let probe = probes.entry(bank).or_insert_with(|| {
                let state = self.banks.get(&bank);
                if state.is_some_and(|s| s.planned) {
                    // Already planned: every event of the batch falls
                    // through to the sequential replay, so the probe
                    // carries no state at all.
                    Probe {
                        fresh: Vec::new(),
                        distinct_uer_rows: Vec::new(),
                        features: IncrementalBankFeatures::with_caps(self.feature_caps),
                        fast: None,
                        done: true,
                        triggered: false,
                    }
                } else {
                    Probe {
                        fresh: Vec::new(),
                        distinct_uer_rows: state
                            .map(|s| s.distinct_uer_rows.clone())
                            .unwrap_or_default(),
                        features: self.features.get(&bank).cloned().unwrap_or_else(|| {
                            IncrementalBankFeatures::with_caps(self.feature_caps)
                        }),
                        fast: None,
                        done: false,
                        triggered: false,
                    }
                }
            });
            if probe.done {
                continue;
            }
            let completes_window = event.is_uer()
                && !probe.distinct_uer_rows.contains(&event.addr.row)
                && probe.distinct_uer_rows.len() + 1 == k_uers;
            probe.fresh.push(*event);
            probe.features.absorb(event);
            if event.is_uer() && !probe.distinct_uer_rows.contains(&event.addr.row) {
                probe.distinct_uer_rows.push(event.addr.row);
            }
            if probe.distinct_uer_rows.len() >= k_uers {
                probe.done = true;
                probe.triggered = true;
                if completes_window {
                    probe.fast = probe.features.vector(geom);
                }
            }
        }

        enum Prepared {
            /// Sorted-arrival window plus its incrementally computed
            /// features: plan without rescanning or re-sorting.
            Fast(Vec<ErrorEvent>, Vec<f64>),
            /// Fallback: sort into a history and rescan.
            Slow(BankErrorHistory),
        }
        let triggering: Vec<(BankAddress, Prepared)> = probes
            .into_iter()
            .filter(|(_, probe)| probe.triggered)
            .map(|(bank, probe)| {
                // Materialise the observed window only now, only for the
                // banks that trigger: the stored history as of the start
                // of this batch (the scan never mutates `self.banks`)
                // plus the batch's own prefix, in arrival order.
                let mut window = self
                    .banks
                    .get(&bank)
                    .map(|s| s.events.clone())
                    .unwrap_or_default();
                window.extend(probe.fresh);
                match probe.fast {
                    Some(raw) => {
                        cordial_obs::counter!("monitor.features.incremental").inc();
                        (bank, Prepared::Fast(window, raw))
                    }
                    None => {
                        cordial_obs::counter!("monitor.features.reference_scan").inc();
                        (bank, Prepared::Slow(BankErrorHistory::new(bank, window)))
                    }
                }
            })
            .collect();
        let requests: Vec<PlanRequest<'_>> = triggering
            .iter()
            .map(|(bank, prepared)| match prepared {
                Prepared::Fast(events, raw) => PlanRequest::Window {
                    window: ObservedWindow::from_sorted_events(*bank, events),
                    features: raw,
                },
                Prepared::Slow(history) => PlanRequest::History(history),
            })
            .collect();
        // Most batches trigger no bank; skip the planning call (and its
        // span and batch-size observation) outright.
        let batch_plans = if requests.is_empty() {
            Vec::new()
        } else {
            self.model.plan_requests(&requests)
        };
        let mut cache: BTreeMap<BankAddress, MitigationPlan> = triggering
            .iter()
            .map(|(bank, _)| *bank)
            .zip(batch_plans)
            .collect();

        let mut plans = Vec::new();
        for event in events {
            let bank = event.addr.bank;
            if let IngestOutcome::Planned { plan, .. } = self.ingest_with_cache(event, &mut cache) {
                plans.push((bank, plan));
            }
        }
        self.update_gauges();
        plans
    }

    /// Admits one event into the guard, or rejects it outright.
    ///
    /// Returns `Some(outcome)` when the event is refused (late or
    /// duplicate), `None` when it was buffered. Rejections are final: they
    /// are counted into the stats split immediately.
    fn guard_admit(&mut self, event: ErrorEvent) -> Option<IngestOutcome> {
        self.guard.offered += 1;
        if self.guard.started
            && self.guard.watermark.saturating_since(event.time) > self.guard.bound()
        {
            self.stats.events += 1;
            self.stats.rejected_late += 1;
            cordial_obs::counter!("monitor.outcome.rejected.late").inc();
            self.health.rejected.observe(true);
            if cordial_obs::recorder::enabled() {
                cordial_obs::recorder::instant(
                    "ingest",
                    "rejected.late",
                    format!("{} at {:?}", event.addr.bank, event.time),
                );
            }
            return Some(IngestOutcome::Rejected {
                reason: RejectReason::LateArrival,
            });
        }
        let key = event_key(&event);
        match self
            .guard
            .pending
            .binary_search_by(|e| event_key(e).cmp(&key))
        {
            Ok(_) => {
                self.stats.events += 1;
                self.stats.rejected_duplicates += 1;
                cordial_obs::counter!("monitor.outcome.rejected.duplicate").inc();
                self.health.rejected.observe(true);
                if cordial_obs::recorder::enabled() {
                    cordial_obs::recorder::instant(
                        "ingest",
                        "rejected.duplicate",
                        format!("{} at {:?}", event.addr.bank, event.time),
                    );
                }
                Some(IngestOutcome::Rejected {
                    reason: RejectReason::Duplicate,
                })
            }
            Err(pos) => {
                self.health.rejected.observe(false);
                if self.guard.started && event.time < self.guard.watermark {
                    self.stats.recovered_reordered += 1;
                    cordial_obs::counter!("monitor.guard.reordered").inc();
                }
                self.guard.pending.insert(pos, event);
                self.guard.started = true;
                self.guard.watermark = self.guard.watermark.max(event.time);
                if cordial_obs::enabled() {
                    cordial_obs::gauge!("monitor.guard.pending")
                        .set(self.guard.pending.len() as f64);
                }
                None
            }
        }
    }

    /// Pops the buffered events that are safe to release: those whose
    /// timestamp the watermark has passed by more than the reorder bound
    /// (every admissible future event must sort after them), or everything
    /// when `flush_all` is set.
    fn guard_due(&mut self, flush_all: bool) -> Vec<ErrorEvent> {
        let bound = self.guard.bound();
        let due = if flush_all {
            self.guard.pending.len()
        } else {
            self.guard
                .pending
                .partition_point(|e| self.guard.watermark.saturating_since(e.time) > bound)
        };
        self.guard.pending.drain(..due).collect()
    }

    /// Ingests one event from a **degraded** stream: duplicates are
    /// suppressed, bounded timestamp reordering is repaired through the
    /// guard's buffer, and events beyond the reorder bound are rejected
    /// rather than corrupting bank histories.
    ///
    /// Returns the outcomes finalised by this call: a rejection yields the
    /// offered event's [`IngestOutcome::Rejected`]; an admission yields the
    /// (possibly empty) list of buffered events the watermark advance
    /// released, each with its regular ingest outcome. Call
    /// [`CordialMonitor::flush_guarded`] at end of stream to drain the
    /// buffer.
    pub fn ingest_guarded(&mut self, event: ErrorEvent) -> Vec<(ErrorEvent, IngestOutcome)> {
        if let Some(outcome) = self.guard_admit(event) {
            return vec![(event, outcome)];
        }
        self.guard_due(false)
            .into_iter()
            .map(|released| {
                let outcome = self.ingest(released);
                (released, outcome)
            })
            .collect()
    }

    /// Drains the guard's reorder buffer through regular ingestion: the end
    /// of a guarded stream (or a checkpoint-before-shutdown).
    pub fn flush_guarded(&mut self) -> Vec<(ErrorEvent, IngestOutcome)> {
        self.guard_due(true)
            .into_iter()
            .map(|released| {
                let outcome = self.ingest(released);
                (released, outcome)
            })
            .collect()
    }

    /// Guarded batch ingestion: admits the whole batch through the guard
    /// (counting rejections), then runs the sanitised ordered sub-stream
    /// through the parallel [`CordialMonitor::ingest_all`] fast path.
    ///
    /// The batch is treated as the complete remainder of the stream: the
    /// reorder buffer is flushed at the end, so the result equals calling
    /// [`CordialMonitor::ingest_guarded`] per event followed by
    /// [`CordialMonitor::flush_guarded`].
    pub fn ingest_all_guarded(
        &mut self,
        events: impl IntoIterator<Item = ErrorEvent>,
    ) -> Vec<(BankAddress, MitigationPlan)> {
        let _span = cordial_obs::span!("ingest_all_guarded");
        let mut sanitized = Vec::new();
        for event in events {
            if self.guard_admit(event).is_none() {
                sanitized.extend(self.guard_due(false));
            }
        }
        sanitized.extend(self.guard_due(true));
        self.ingest_all(sanitized)
    }

    /// Number of events currently buffered in the guard's reorder window.
    pub fn guard_pending(&self) -> usize {
        self.guard.pending.len()
    }

    /// Total events offered through the guarded ingestion paths (admitted
    /// or rejected): the resume cursor for checkpointed streams.
    pub fn events_offered(&self) -> usize {
        self.guard.offered
    }

    /// Captures the monitor's complete mutable state (bank histories,
    /// isolation engine, stats, guard buffer) as a serialisable
    /// checkpoint. The trained pipeline is *not* included — persist it
    /// separately (it is immutable) and pass it back to
    /// [`CordialMonitor::restore`].
    pub fn checkpoint(&self) -> MonitorCheckpoint {
        MonitorCheckpoint {
            schema_version: CHECKPOINT_SCHEMA_VERSION,
            engine: self.engine.snapshot(),
            banks: self
                .banks
                .iter()
                .map(|(bank, state)| (*bank, state.clone()))
                .collect(),
            stats: self.stats,
            guard: self.guard.clone(),
            feature_caps: self.feature_caps,
        }
    }

    /// Rebuilds a monitor from a [`CordialMonitor::checkpoint`] capture
    /// and the pipeline it was running.
    ///
    /// Resumed ingestion is bit-equivalent to never having stopped: final
    /// stats and isolation state match the uninterrupted run's for any
    /// checkpoint index.
    ///
    /// # Errors
    ///
    /// [`CheckpointVersionMismatch`] when the checkpoint was written with a
    /// different [`CHECKPOINT_SCHEMA_VERSION`] (including pre-versioning
    /// checkpoints, which read back as version 0).
    pub fn restore(
        model: impl Into<Arc<Cordial>>,
        checkpoint: MonitorCheckpoint,
    ) -> Result<Self, CheckpointVersionMismatch> {
        if checkpoint.schema_version != CHECKPOINT_SCHEMA_VERSION {
            return Err(CheckpointVersionMismatch {
                found: checkpoint.schema_version,
                expected: CHECKPOINT_SCHEMA_VERSION,
            });
        }
        let banks: BTreeMap<BankAddress, BankState> = checkpoint.banks.into_iter().collect();
        // Incremental feature state is derived, not persisted: replay each
        // bank's buffered events (arrival order) under the checkpointed
        // caps so a restored monitor's fast/fallback path choice — sorted
        // and capped flags included — matches an uninterrupted run's.
        let features = banks
            .iter()
            .map(|(bank, state)| {
                (
                    *bank,
                    IncrementalBankFeatures::replay_with_caps(
                        &state.events,
                        checkpoint.feature_caps,
                    ),
                )
            })
            .collect();
        Ok(Self {
            model: model.into(),
            engine: IsolationEngine::from_snapshot(checkpoint.engine),
            banks,
            features,
            feature_caps: checkpoint.feature_caps,
            stats: checkpoint.stats,
            guard: checkpoint.guard,
            // Watchdog windows are derived, short-horizon state: they
            // restart empty rather than being persisted (see
            // [`MonitorHealth`]).
            health: MonitorHealth::new(HealthConfig::default()),
        })
    }

    /// Session totals so far, including the engine-derived sparing-budget
    /// fields.
    pub fn stats(&self) -> MonitorStats {
        let mut stats = self.stats;
        stats.budget = self.engine.budget();
        stats.spare_rows_remaining = self.engine.spare_rows_remaining();
        stats.spare_banks_remaining = self.engine.spare_banks_remaining();
        stats
    }

    /// The hardware isolation state.
    pub fn engine(&self) -> &IsolationEngine {
        &self.engine
    }

    /// The trained pipeline currently serving this monitor.
    pub fn pipeline(&self) -> &Cordial {
        &self.model
    }

    /// The shared pointer behind [`CordialMonitor::pipeline`].
    pub fn model(&self) -> &Arc<Cordial> {
        &self.model
    }

    /// Replaces the serving model in place, returning the previous one.
    ///
    /// A pointer store: all monitor state (bank histories, isolation
    /// engine, stats, guard buffer) is preserved, plans already applied
    /// stay applied, and only banks that trigger *after* the swap are
    /// planned by the new model. This is the model promotion/rollback hook
    /// a fleet supervisor uses.
    pub fn swap_model(&mut self, model: Arc<Cordial>) -> Arc<Cordial> {
        std::mem::replace(&mut self.model, model)
    }

    /// Number of banks currently tracked.
    pub fn tracked_banks(&self) -> usize {
        self.banks.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::CordialConfig;
    use crate::split::split_banks;
    use cordial_faultsim::{generate_fleet_dataset, FleetDatasetConfig};
    use cordial_mcelog::{ErrorType, Timestamp};
    use cordial_topology::ColId;

    fn trained_monitor() -> (cordial_faultsim::FleetDataset, CordialMonitor) {
        let dataset = generate_fleet_dataset(&FleetDatasetConfig::small(), 17);
        let split = split_banks(&dataset, 0.7, 17);
        let cordial = Cordial::fit(&dataset, &split.train, &CordialConfig::default()).unwrap();
        let monitor = CordialMonitor::new(cordial, SparingBudget::typical());
        (dataset, monitor)
    }

    #[test]
    fn replaying_a_fleet_produces_plans_and_absorption() {
        let (dataset, mut monitor) = trained_monitor();
        let plans = monitor.ingest_all(dataset.log.events().iter().copied());
        let stats = monitor.stats();
        assert_eq!(stats.events, dataset.log.len());
        assert!(!plans.is_empty());
        assert_eq!(stats.banks_planned, plans.len());
        assert!(stats.uers_absorbed > 0, "isolations must absorb some UERs");
        assert!(stats.absorption_rate() > 0.0 && stats.absorption_rate() < 1.0);
        // Each planned bank is planned exactly once.
        let mut banks: Vec<BankAddress> = plans.iter().map(|(b, _)| *b).collect();
        banks.sort();
        let before = banks.len();
        banks.dedup();
        assert_eq!(before, banks.len());
    }

    #[test]
    fn plans_trigger_exactly_at_the_kth_distinct_uer_row() {
        let (_, mut monitor) = trained_monitor();
        let bank = BankAddress::default();
        let uer = |row: u32, t: u64| {
            ErrorEvent::new(
                bank.cell(RowId(row), ColId(0)),
                Timestamp::from_secs(t),
                ErrorType::Uer,
            )
        };
        assert_eq!(monitor.ingest(uer(100, 1)), IngestOutcome::Recorded);
        // Repeat of the same row does not advance the distinct count.
        assert_eq!(monitor.ingest(uer(100, 2)), IngestOutcome::Recorded);
        assert_eq!(monitor.ingest(uer(103, 3)), IngestOutcome::Recorded);
        let outcome = monitor.ingest(uer(106, 4));
        assert!(
            matches!(outcome, IngestOutcome::Planned { .. }),
            "third distinct UER row must trigger planning, got {outcome:?}"
        );
        assert_eq!(monitor.stats().banks_planned, 1);
    }

    #[test]
    fn isolated_rows_absorb_subsequent_uers() {
        let (_, mut monitor) = trained_monitor();
        let bank = BankAddress::default();
        let uer = |row: u32, t: u64| {
            ErrorEvent::new(
                bank.cell(RowId(row), ColId(0)),
                Timestamp::from_secs(t),
                ErrorType::Uer,
            )
        };
        monitor.ingest(uer(1000, 1));
        monitor.ingest(uer(1003, 2));
        let outcome = monitor.ingest(uer(1006, 3));
        let IngestOutcome::Planned { plan, .. } = outcome else {
            panic!("expected a plan");
        };
        if let MitigationPlan::RowSparing { rows, .. } = &plan {
            if let Some(&row) = rows.first() {
                assert_eq!(
                    monitor.ingest(uer(row.index(), 10)),
                    IngestOutcome::AbsorbedByIsolation
                );
            }
        }
    }

    #[test]
    fn ce_events_never_trigger_planning() {
        let (_, mut monitor) = trained_monitor();
        let bank = BankAddress::default();
        for i in 0..50u32 {
            let outcome = monitor.ingest(ErrorEvent::new(
                bank.cell(RowId(i), ColId(0)),
                Timestamp::from_secs(i as u64),
                ErrorType::Ce,
            ));
            assert_eq!(outcome, IngestOutcome::Recorded);
        }
        assert_eq!(monitor.stats().banks_planned, 0);
        assert_eq!(monitor.tracked_banks(), 1);
    }

    #[test]
    fn stats_outcome_split_is_complete_and_budget_tracked() {
        let (dataset, mut monitor) = trained_monitor();
        monitor.ingest_all(dataset.log.events().iter().copied());
        let stats = monitor.stats();
        // Every event lands in exactly one outcome bucket.
        assert_eq!(
            stats.outcomes_recorded + stats.uers_absorbed + stats.banks_planned,
            stats.events
        );
        assert_eq!(stats.budget, SparingBudget::typical());
        // Consumed + remaining spare rows add up to whole per-bank budgets.
        assert!(stats.rows_isolated > 0);
        let per_bank = u64::from(stats.budget.spare_rows_per_bank);
        assert_eq!(
            (stats.spare_rows_remaining + stats.rows_isolated as u64) % per_bank,
            0
        );
    }

    #[test]
    fn batch_and_single_ingestion_agree() {
        let (dataset, mut batch_monitor) = trained_monitor();
        let (_, mut single_monitor) = trained_monitor();
        batch_monitor.ingest_all(dataset.log.events().iter().copied());
        for event in dataset.log.events() {
            single_monitor.ingest(*event);
        }
        assert_eq!(batch_monitor.stats(), single_monitor.stats());
    }

    fn guard_event(row: u32, millis: u64) -> ErrorEvent {
        ErrorEvent::new(
            BankAddress::default().cell(RowId(row), ColId(0)),
            Timestamp::from_millis(millis),
            ErrorType::Ce,
        )
    }

    #[test]
    fn guard_suppresses_duplicates_within_the_window() {
        let (_, mut monitor) = trained_monitor();
        assert!(monitor.ingest_guarded(guard_event(1, 1000)).is_empty());
        let outcomes = monitor.ingest_guarded(guard_event(1, 1000));
        assert_eq!(
            outcomes,
            vec![(
                guard_event(1, 1000),
                IngestOutcome::Rejected {
                    reason: RejectReason::Duplicate
                }
            )]
        );
        monitor.flush_guarded();
        let stats = monitor.stats();
        assert_eq!(stats.rejected_duplicates, 1);
        assert_eq!(stats.events, 2);
        assert!(stats.split_is_complete());
    }

    #[test]
    fn guard_rejects_events_beyond_the_reorder_bound() {
        let (_, mut monitor) = trained_monitor();
        let monitor = &mut monitor;
        // Watermark moves to t=400s; bound is 300s, so t=50s is too late
        // while t=150s is still admissible.
        assert!(monitor.ingest_guarded(guard_event(1, 400_000)).is_empty());
        let outcomes = monitor.ingest_guarded(guard_event(2, 50_000));
        assert_eq!(
            outcomes,
            vec![(
                guard_event(2, 50_000),
                IngestOutcome::Rejected {
                    reason: RejectReason::LateArrival
                }
            )]
        );
        assert!(monitor.ingest_guarded(guard_event(3, 150_000)).is_empty());
        assert_eq!(monitor.guard_pending(), 2);
        monitor.flush_guarded();
        let stats = monitor.stats();
        assert_eq!(stats.rejected_late, 1);
        assert_eq!(stats.recovered_reordered, 1);
        assert!(stats.split_is_complete());
    }

    #[test]
    fn guard_releases_events_in_timestamp_order() {
        let (_, mut monitor) = trained_monitor();
        assert!(monitor.ingest_guarded(guard_event(1, 200_000)).is_empty());
        assert!(monitor.ingest_guarded(guard_event(2, 100_000)).is_empty());
        // Watermark jumps far ahead: both buffered events become due, and
        // they must come out re-sorted (100s before 200s).
        let released = monitor.ingest_guarded(guard_event(3, 900_000));
        let times: Vec<u64> = released.iter().map(|(e, _)| e.time.as_millis()).collect();
        assert_eq!(times, vec![100_000, 200_000]);
    }

    #[test]
    fn guarded_incremental_and_batch_ingestion_agree_on_degraded_input() {
        let (dataset, mut incremental) = trained_monitor();
        let (_, mut batch) = trained_monitor();
        // Degrade the stream: duplicate every 7th event, swap adjacent
        // pairs every 5th, inject one hopelessly late event.
        let mut events: Vec<ErrorEvent> = dataset.log.events().to_vec();
        let mut degraded = Vec::new();
        for (i, event) in events.drain(..).enumerate() {
            degraded.push(event);
            if i % 7 == 0 {
                degraded.push(event);
            }
            if i % 5 == 0 && degraded.len() >= 2 {
                let n = degraded.len();
                degraded.swap(n - 1, n - 2);
            }
        }
        degraded.push(guard_event(9, 0));

        for event in &degraded {
            incremental.ingest_guarded(*event);
        }
        incremental.flush_guarded();
        batch.ingest_all_guarded(degraded.iter().copied());

        let a = incremental.stats();
        let b = batch.stats();
        assert_eq!(a, b);
        assert!(a.rejected_duplicates > 0);
        assert!(a.split_is_complete(), "split must stay complete: {a:?}");
        assert_eq!(incremental.events_offered(), degraded.len());
    }

    #[test]
    fn guarded_ingestion_of_a_clean_stream_matches_plain_ingestion() {
        let (dataset, mut guarded) = trained_monitor();
        let (_, mut plain) = trained_monitor();
        guarded.ingest_all_guarded(dataset.log.events().iter().copied());
        plain.ingest_all(dataset.log.events().iter().copied());
        assert_eq!(guarded.stats(), plain.stats());
        assert_eq!(guarded.stats().rejected(), 0);
    }

    #[test]
    fn incompatible_checkpoint_versions_are_rejected_with_a_typed_error() {
        let (_, monitor) = trained_monitor();
        let mut checkpoint = monitor.checkpoint();
        checkpoint.schema_version = CHECKPOINT_SCHEMA_VERSION + 1;
        let (_, template) = trained_monitor();
        let err = CordialMonitor::restore(template.model, checkpoint).unwrap_err();
        assert_eq!(
            err,
            CheckpointVersionMismatch {
                found: CHECKPOINT_SCHEMA_VERSION + 1,
                expected: CHECKPOINT_SCHEMA_VERSION,
            }
        );
        assert!(err.to_string().contains("schema version"));
    }

    #[test]
    fn pre_versioning_checkpoints_deserialize_as_version_zero() {
        let (_, monitor) = trained_monitor();
        let json = serde_json::to_string(&monitor.checkpoint()).unwrap();
        // A checkpoint written before versioning existed has no
        // `schema_version` entry; strip ours to simulate one.
        let legacy = json.replacen("\"schema_version\":1,", "", 1);
        assert_ne!(legacy, json, "fixture must actually strip the field");
        let checkpoint: MonitorCheckpoint = serde_json::from_str(&legacy).unwrap();
        assert_eq!(checkpoint.schema_version(), 0);
        let (_, template) = trained_monitor();
        let err = CordialMonitor::restore(template.model, checkpoint).unwrap_err();
        assert_eq!(err.found, 0);
        assert_eq!(err.expected, CHECKPOINT_SCHEMA_VERSION);
    }

    #[test]
    fn live_precision_and_lead_time_track_absorption() {
        let (_, mut monitor) = trained_monitor();
        assert_eq!(monitor.stats().live_precision(), 1.0, "no plans yet");
        let bank = BankAddress::default();
        let uer = |row: u32, t: u64| {
            ErrorEvent::new(
                bank.cell(RowId(row), ColId(0)),
                Timestamp::from_secs(t),
                ErrorType::Uer,
            )
        };
        monitor.ingest(uer(1000, 1));
        monitor.ingest(uer(1003, 2));
        let IngestOutcome::Planned { plan, .. } = monitor.ingest(uer(1006, 3)) else {
            panic!("expected a plan");
        };
        // A fresh plan has not absorbed anything yet: precision dips to 0.
        assert_eq!(monitor.stats().plans_absorbing, 0);
        assert_eq!(monitor.stats().live_precision(), 0.0);
        if let MitigationPlan::RowSparing { rows, .. } = &plan {
            if let Some(&row) = rows.first() {
                monitor.ingest(uer(row.index(), 63));
                monitor.ingest(uer(row.index(), 123));
                let stats = monitor.stats();
                // Two absorbed UERs, one absorbing plan.
                assert_eq!(stats.plans_absorbing, 1);
                assert_eq!(stats.live_precision(), 1.0);
                assert_eq!(stats.lead_time_ms_total, 60_000 + 120_000);
                assert_eq!(stats.mean_lead_time_ms(), 90_000.0);
            }
        }
    }

    #[test]
    fn swap_model_preserves_monitor_state() {
        let (dataset, mut monitor) = trained_monitor();
        let events: Vec<ErrorEvent> = dataset.log.events().to_vec();
        let half = events.len() / 2;
        monitor.ingest_all(events[..half].iter().copied());
        let mid = monitor.stats();
        let (_, replacement) = trained_monitor();
        let old = monitor.swap_model(Arc::clone(&replacement.model));
        assert!(Arc::ptr_eq(monitor.model(), &replacement.model));
        assert_eq!(monitor.stats(), mid, "swap must not disturb stats");
        // Swapping back the original model reproduces the single-model
        // run exactly.
        monitor.swap_model(old);
        monitor.ingest_all(events[half..].iter().copied());
        let (_, mut reference) = trained_monitor();
        reference.ingest_all(events.iter().copied());
        assert_eq!(monitor.stats(), reference.stats());
    }

    #[test]
    fn checkpoint_restore_is_equivalent_to_an_uninterrupted_run() {
        let (dataset, mut reference) = trained_monitor();
        let events: Vec<ErrorEvent> = dataset.log.events().to_vec();
        for event in &events {
            reference.ingest_guarded(*event);
        }
        reference.flush_guarded();
        let expected = reference.stats();

        for kill_at in [0, 1, events.len() / 2, events.len() - 1, events.len()] {
            let (_, mut first) = trained_monitor();
            for event in &events[..kill_at] {
                first.ingest_guarded(*event);
            }
            let checkpoint = first.checkpoint();
            let json = serde_json::to_string(&checkpoint).unwrap();
            let checkpoint: MonitorCheckpoint = serde_json::from_str(&json).unwrap();
            assert_eq!(checkpoint.events_offered(), kill_at);
            assert_eq!(checkpoint.schema_version(), CHECKPOINT_SCHEMA_VERSION);

            let (_, template) = trained_monitor();
            let mut resumed = CordialMonitor::restore(template.model, checkpoint).unwrap();
            for event in &events[kill_at..] {
                resumed.ingest_guarded(*event);
            }
            resumed.flush_guarded();
            assert_eq!(
                resumed.stats(),
                expected,
                "kill at {kill_at} must not change the final stats"
            );
            assert_eq!(resumed.engine(), reference.engine());
        }
    }
}
