//! Model lifecycle: shadow scoring, the promotion gate, and the
//! last-known-good registry behind automatic rollback.
//!
//! A candidate model is never swapped into the serving fleet on faith: it
//! is *shadow-scored* on a held-out calibration stream (block-prediction F1
//! plus replayed mean lead time) and promoted only if it clears the
//! incumbent by a configured margin. The previous incumbent is retained as
//! last-known-good so the supervisor can roll back the moment live
//! precision degrades past its floor.
//!
//! Models are held as shared [`ServingModel`]s: promotion and rollback
//! move `Arc` pointers, and every serving monitor points at the same
//! incumbent.

use std::collections::BTreeSet;
use std::fmt;
use std::sync::Arc;

use serde::{Deserialize, Serialize};

use cordial::monitor::{CordialMonitor, GuardConfig};
use cordial::pipeline::ServingModel;
use cordial::prelude::evaluate_pipeline;
use cordial_faultsim::{FleetDataset, SparingBudget};
use cordial_topology::BankAddress;

/// What the gate compares: held-out quality plus replayed serving health.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ShadowScore {
    /// Positive-class F1 of block prediction on the calibration banks.
    pub f1: f64,
    /// Isolation coverage rate on the calibration banks.
    pub icr: f64,
    /// Mean plan→absorption lead time (ms) when the calibration stream is
    /// replayed through a shadow monitor.
    pub mean_lead_time_ms: f64,
    /// Live precision the shadow monitor reached on the replay.
    pub live_precision: f64,
}

impl fmt::Display for ShadowScore {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "f1={:.4} icr={:.4} lead={:.0}ms precision={:.4}",
            self.f1, self.icr, self.mean_lead_time_ms, self.live_precision
        )
    }
}

/// Margins a candidate must clear to displace the incumbent.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct GateConfig {
    /// Candidate F1 must exceed incumbent F1 by at least this much (a
    /// strictly positive margin also rejects re-promoting the incumbent).
    pub f1_margin: f64,
    /// Tolerated *relative* lead-time regression: the candidate's mean lead
    /// time must stay above `(1 - tolerance) ×` the incumbent's.
    pub lead_time_tolerance: f64,
}

impl Default for GateConfig {
    fn default() -> Self {
        Self {
            f1_margin: 0.01,
            lead_time_tolerance: 0.25,
        }
    }
}

/// Outcome of asking the gate about one candidate.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum PromotionDecision {
    /// The candidate cleared every margin and now serves.
    Promoted {
        /// Candidate's shadow score.
        candidate: ShadowScore,
        /// The score of the model it displaced.
        incumbent: ShadowScore,
    },
    /// The candidate stays out; the incumbent keeps serving.
    Rejected {
        /// Candidate's shadow score.
        candidate: ShadowScore,
        /// The incumbent's score it failed to clear.
        incumbent: ShadowScore,
        /// Which margin failed, in human-readable form.
        reason: String,
    },
}

impl PromotionDecision {
    /// Whether the candidate was promoted.
    pub fn promoted(&self) -> bool {
        matches!(self, Self::Promoted { .. })
    }
}

/// Shadow-scores a model on the calibration banks: held-out F1/ICR from
/// the batch evaluator plus lead time and precision from a full monitor
/// replay of the calibration banks' event stream. The shadow monitor
/// shares `model`; nothing is copied.
pub fn shadow_score(
    model: &Arc<ServingModel>,
    dataset: &FleetDataset,
    calibration: &[BankAddress],
    budget: SparingBudget,
    guard: GuardConfig,
) -> ShadowScore {
    let eval = evaluate_pipeline(model.pipeline(), dataset, calibration);
    let banks: BTreeSet<BankAddress> = calibration.iter().copied().collect();
    let mut monitor = CordialMonitor::new(Arc::clone(model), budget).with_guard_config(guard);
    monitor.ingest_all_guarded(
        dataset
            .log
            .events()
            .iter()
            .copied()
            .filter(|e| banks.contains(&e.addr.bank)),
    );
    let stats = monitor.stats();
    ShadowScore {
        f1: eval.block_scores.f1,
        icr: eval.icr,
        mean_lead_time_ms: stats.mean_lead_time_ms(),
        live_precision: stats.live_precision(),
    }
}

/// Applies the gate margins; `Err` carries the failure reason.
pub fn clears_gate(
    candidate: &ShadowScore,
    incumbent: &ShadowScore,
    config: &GateConfig,
) -> Result<(), String> {
    if candidate.f1 < incumbent.f1 + config.f1_margin {
        return Err(format!(
            "f1 {:.4} does not clear incumbent {:.4} by margin {:.4}",
            candidate.f1, incumbent.f1, config.f1_margin
        ));
    }
    let lead_floor = incumbent.mean_lead_time_ms * (1.0 - config.lead_time_tolerance);
    if candidate.mean_lead_time_ms < lead_floor {
        return Err(format!(
            "mean lead time {:.0}ms regresses past {:.0}ms (incumbent {:.0}ms, tolerance {:.0}%)",
            candidate.mean_lead_time_ms,
            lead_floor,
            incumbent.mean_lead_time_ms,
            config.lead_time_tolerance * 100.0
        ));
    }
    Ok(())
}

/// The incumbent/last-known-good pair plus lifecycle counters.
#[derive(Debug, Clone)]
pub struct ModelRegistry {
    incumbent: Arc<ServingModel>,
    last_known_good: Arc<ServingModel>,
    promotions: u64,
    rejections: u64,
    rollbacks: u64,
}

impl ModelRegistry {
    /// Seeds the registry: the initial model is both incumbent and
    /// last-known-good.
    pub fn new(initial: impl Into<Arc<ServingModel>>) -> Self {
        let initial = initial.into();
        Self {
            last_known_good: Arc::clone(&initial),
            incumbent: initial,
            promotions: 0,
            rejections: 0,
            rollbacks: 0,
        }
    }

    /// The model currently serving.
    pub fn incumbent(&self) -> &Arc<ServingModel> {
        &self.incumbent
    }

    /// The rollback target.
    pub fn last_known_good(&self) -> &Arc<ServingModel> {
        &self.last_known_good
    }

    /// Installs a new incumbent; the displaced one becomes last-known-good.
    pub fn promote(&mut self, candidate: Arc<ServingModel>) {
        self.last_known_good = std::mem::replace(&mut self.incumbent, candidate);
        self.promotions += 1;
    }

    /// Records a gate rejection.
    pub fn note_rejection(&mut self) {
        self.rejections += 1;
    }

    /// Reverts to last-known-good and returns it for the caller to swap
    /// into serving monitors.
    pub fn rollback(&mut self) -> Arc<ServingModel> {
        self.incumbent = Arc::clone(&self.last_known_good);
        self.rollbacks += 1;
        Arc::clone(&self.incumbent)
    }

    /// Gated promotions performed.
    pub fn promotions(&self) -> u64 {
        self.promotions
    }

    /// Gate rejections recorded.
    pub fn rejections(&self) -> u64 {
        self.rejections
    }

    /// Rollbacks performed.
    pub fn rollbacks(&self) -> u64 {
        self.rollbacks
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn score(f1: f64, lead: f64) -> ShadowScore {
        ShadowScore {
            f1,
            icr: 0.2,
            mean_lead_time_ms: lead,
            live_precision: 0.5,
        }
    }

    #[test]
    fn gate_requires_a_strict_f1_improvement() {
        let gate = GateConfig::default();
        let incumbent = score(0.80, 1_000.0);
        assert!(clears_gate(&score(0.82, 1_000.0), &incumbent, &gate).is_ok());
        // Equal F1 fails a positive margin: re-promoting the incumbent is
        // pointless churn.
        let err = clears_gate(&score(0.80, 1_000.0), &incumbent, &gate).unwrap_err();
        assert!(err.contains("f1"), "{err}");
    }

    #[test]
    fn gate_rejects_a_lead_time_collapse_even_with_better_f1() {
        let gate = GateConfig::default();
        let incumbent = score(0.80, 10_000.0);
        let err = clears_gate(&score(0.95, 1_000.0), &incumbent, &gate).unwrap_err();
        assert!(err.contains("lead time"), "{err}");
        // Within tolerance is fine.
        assert!(clears_gate(&score(0.95, 8_000.0), &incumbent, &gate).is_ok());
    }
}
