//! The end-to-end Cordial pipeline (paper Fig. 5): observe → classify →
//! predict → recommend a mitigation.

use serde::{Deserialize, Serialize};

use cordial_faultsim::{CoarsePattern, FleetDataset};
use cordial_mcelog::{BankErrorHistory, ObservedWindow};
use cordial_topology::{BankAddress, RowId};

use crate::classifier::PatternClassifier;
use crate::config::CordialConfig;
use crate::crossrow::CrossRowPredictor;
use crate::error::CordialError;
use crate::features::bank_features;

/// The mitigation Cordial recommends for a bank.
///
/// This is the part existing predictors leave out (paper §I: "predicting
/// failures without recommending corresponding mitigation strategies limits
/// the actionable insights"): each prediction comes with the sparing action
/// to take.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum MitigationPlan {
    /// The bank has not yet accumulated enough distinct UER rows to
    /// classify; keep monitoring.
    InsufficientData,
    /// Aggregation pattern: spare the listed rows (the predicted blocks).
    RowSparing {
        /// Classified failure pattern.
        pattern: CoarsePattern,
        /// Rows to isolate, ascending and distinct.
        rows: Vec<RowId>,
    },
    /// Scattered pattern: row isolation cannot keep up; spare the bank.
    BankSparing,
}

impl MitigationPlan {
    /// Rows this plan isolates (empty for bank sparing, which covers
    /// everything, and for insufficient data).
    pub fn rows(&self) -> &[RowId] {
        match self {
            MitigationPlan::RowSparing { rows, .. } => rows,
            _ => &[],
        }
    }

    /// Whether the plan protects accesses to `row`.
    pub fn covers(&self, row: RowId) -> bool {
        match self {
            MitigationPlan::InsufficientData => false,
            MitigationPlan::BankSparing => true,
            // `rows` is ascending and distinct by construction.
            MitigationPlan::RowSparing { rows, .. } => rows.binary_search(&row).is_ok(),
        }
    }
}

/// The trained Cordial predictor.
///
/// Each stage's model carries its flat inference form (built at fit and at
/// deserialise time, never persisted), so a `Cordial` is ready to serve as
/// it stands. Serving hosts build one per model and share it behind an
/// `Arc`: every [`CordialMonitor`](crate::monitor::CordialMonitor) of a
/// daemon or fleet points at the same `Cordial`, so onboarding a device,
/// restoring it from a checkpoint and swapping its model are pointer
/// operations, never a copy of the trees.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Cordial {
    classifier: PatternClassifier,
    crossrow: CrossRowPredictor,
    config: CordialConfig,
}

impl Cordial {
    /// Trains both stages on the given training banks.
    ///
    /// # Errors
    ///
    /// Propagates stage-level training errors.
    pub fn fit(
        dataset: &FleetDataset,
        train_banks: &[BankAddress],
        config: &CordialConfig,
    ) -> Result<Self, CordialError> {
        Self::fit_warm(dataset, train_banks, config, None)
    }

    /// As [`Cordial::fit`], but warm-starts both stages from a previously
    /// trained pipeline when the model family supports it (LightGBM
    /// reuses its fitted quantile bin mapper; other families fall back to
    /// a cold fit). This is the online-retraining path: the candidate is
    /// a full retrain on the fresh window, warm start only removes the
    /// fixed per-refit binning cost.
    ///
    /// # Errors
    ///
    /// As [`Cordial::fit`].
    pub fn fit_warm(
        dataset: &FleetDataset,
        train_banks: &[BankAddress],
        config: &CordialConfig,
        previous: Option<&Self>,
    ) -> Result<Self, CordialError> {
        let _span = cordial_obs::span!("fit");
        cordial_obs::counter!("fit.train_banks").add(train_banks.len() as u64);
        let classifier = {
            let _span = cordial_obs::span!("classifier");
            PatternClassifier::fit_warm(
                dataset,
                train_banks,
                config,
                previous.map(|p| &p.classifier),
            )?
        };
        let crossrow = {
            let _span = cordial_obs::span!("crossrow");
            CrossRowPredictor::fit_warm(
                dataset,
                train_banks,
                config,
                previous.map(|p| &p.crossrow),
            )?
        };
        Ok(Self {
            classifier,
            crossrow,
            config: *config,
        })
    }

    /// The trained pattern classifier.
    pub fn classifier(&self) -> &PatternClassifier {
        &self.classifier
    }

    /// The trained cross-row predictors.
    pub fn crossrow(&self) -> &CrossRowPredictor {
        &self.crossrow
    }

    /// The configuration the pipeline was trained with.
    pub fn config(&self) -> &CordialConfig {
        &self.config
    }

    /// Produces a mitigation plan for a bank's observed history.
    ///
    /// * fewer than `k_uers` distinct UER rows → [`MitigationPlan::InsufficientData`];
    /// * classified scattered → [`MitigationPlan::BankSparing`];
    /// * classified aggregation → [`MitigationPlan::RowSparing`] with the
    ///   rows of every positively predicted block.
    ///
    /// Both stages predict through their models' flat inference form.
    pub fn plan(&self, history: &BankErrorHistory) -> MitigationPlan {
        self.plan_request(&PlanRequest::History(history))
    }

    /// Plans a whole fleet of banks at once: [`Cordial::plan`] for each
    /// history, fanned out over `config.n_threads` worker threads.
    ///
    /// The returned plans are in input order and each is exactly what
    /// [`Cordial::plan`] returns for that history — inference is
    /// per-bank independent, so threading cannot change any plan.
    pub fn plan_batch(&self, histories: &[&BankErrorHistory]) -> Vec<MitigationPlan> {
        let requests: Vec<PlanRequest<'_>> =
            histories.iter().map(|h| PlanRequest::History(h)).collect();
        self.plan_requests(&requests)
    }

    /// [`Cordial::plan_batch`] over the monitor's requests: per bank either
    /// a raw history or a pre-extracted window with its incremental
    /// features. Plans come back in input order and are identical for
    /// every thread count.
    pub(crate) fn plan_requests(&self, requests: &[PlanRequest<'_>]) -> Vec<MitigationPlan> {
        let _span = cordial_obs::span!("plan_batch");
        cordial_obs::histogram!("plan.batch_size", cordial_obs::COUNT_BOUNDS)
            .observe(requests.len() as f64);
        cordial_trees::parallel::ordered_map(requests, self.config.n_threads, |request| {
            self.plan_request(request)
        })
    }

    /// Plans one request. A [`PlanRequest::Window`] is the incremental
    /// ingest fast path: the monitor maintains the features under O(1)
    /// updates and skips the observe-cut and rescan of a history.
    pub(crate) fn plan_request(&self, request: &PlanRequest<'_>) -> MitigationPlan {
        // Root span: plans run inline for 1 thread but on workers for
        // more, so a stack-derived path would vary with the thread count.
        let _span = cordial_obs::span_root!("plan");
        cordial_obs::counter!("plan.requests").inc();
        match request {
            PlanRequest::History(history) => {
                let Some((window, _)) = history.observe_until_k_uers(self.config.k_uers) else {
                    cordial_obs::counter!("plan.insufficient_data").inc();
                    return MitigationPlan::InsufficientData;
                };
                // The §IV-B features are computed once and shared by both
                // stages.
                let raw = bank_features(&window, self.classifier.geom());
                self.plan_prepared(&window, &raw)
            }
            PlanRequest::Window { window, features } => self.plan_prepared(window, features),
        }
    }

    /// Shared classify → predict tail of every plan.
    fn plan_prepared(&self, window: &ObservedWindow<'_>, raw_features: &[f64]) -> MitigationPlan {
        let pattern = self.classifier.classify_from_features(raw_features);
        if !pattern.is_aggregation() {
            cordial_obs::counter!("plan.bank_sparing").inc();
            return MitigationPlan::BankSparing;
        }
        let mut rows = self
            .crossrow
            .predicted_rows_from_features(window, pattern, raw_features);
        rows.sort();
        rows.dedup();
        cordial_obs::counter!("plan.row_sparing").inc();
        cordial_obs::histogram!("plan.rows_per_plan", cordial_obs::COUNT_BOUNDS)
            .observe(rows.len() as f64);
        MitigationPlan::RowSparing { pattern, rows }
    }
}

/// One bank to plan, as the monitor hands it to [`Cordial`].
#[derive(Debug)]
pub(crate) enum PlanRequest<'a> {
    /// A raw bank history: observe-cut plus reference feature scan.
    History(&'a BankErrorHistory),
    /// A pre-extracted classification window with its pre-computed raw
    /// §IV-B features. The caller guarantees `window` is the
    /// classification cut (it ends at the event completing the `k`-th
    /// distinct UER row) and that `features` equals the reference scan of
    /// `window`; the plan is then identical to [`Cordial::plan`] on the
    /// equivalent history.
    Window {
        /// The observed window at the classification cut.
        window: ObservedWindow<'a>,
        /// Raw (unmasked) bank features of `window`.
        features: &'a [f64],
    },
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::split::split_banks;
    use cordial_faultsim::{generate_fleet_dataset, FleetDatasetConfig};

    fn trained() -> (FleetDataset, crate::split::BankSplit, Cordial) {
        let dataset = generate_fleet_dataset(&FleetDatasetConfig::small(), 41);
        let split = split_banks(&dataset, 0.7, 41);
        let cordial = Cordial::fit(&dataset, &split.train, &CordialConfig::default()).unwrap();
        (dataset, split, cordial)
    }

    #[test]
    fn plans_are_produced_for_every_test_bank() {
        let (dataset, split, cordial) = trained();
        let by_bank = dataset.log.by_bank();
        let mut row_sparing = 0;
        let mut bank_sparing = 0;
        for bank in &split.test {
            match cordial.plan(&by_bank[bank]) {
                MitigationPlan::RowSparing { rows, .. } => {
                    row_sparing += 1;
                    assert!(rows.windows(2).all(|w| w[0] < w[1]), "rows sorted+dedup");
                }
                MitigationPlan::BankSparing => bank_sparing += 1,
                MitigationPlan::InsufficientData => {}
            }
        }
        // Aggregation dominates the pattern mix, so row sparing must
        // dominate the plans.
        assert!(
            row_sparing > bank_sparing,
            "{row_sparing} vs {bank_sparing}"
        );
    }

    #[test]
    fn empty_history_yields_insufficient_data() {
        let (_, _, cordial) = trained();
        let history = BankErrorHistory::new(BankAddress::default(), vec![]);
        assert_eq!(cordial.plan(&history), MitigationPlan::InsufficientData);
    }

    #[test]
    fn plan_coverage_semantics() {
        let row_plan = MitigationPlan::RowSparing {
            pattern: CoarsePattern::SingleRow,
            rows: vec![RowId(5), RowId(6)],
        };
        assert!(row_plan.covers(RowId(5)));
        assert!(!row_plan.covers(RowId(7)));
        assert!(MitigationPlan::BankSparing.covers(RowId(31_000)));
        assert!(!MitigationPlan::InsufficientData.covers(RowId(0)));
        assert!(MitigationPlan::BankSparing.rows().is_empty());
    }

    #[test]
    fn row_sparing_rows_stay_near_observed_failures() {
        let (dataset, split, cordial) = trained();
        let by_bank = dataset.log.by_bank();
        for bank in &split.test {
            let history = &by_bank[bank];
            if let MitigationPlan::RowSparing { rows, .. } = cordial.plan(history) {
                let Some((window, _)) = history.observe_until_k_uers(3) else {
                    continue;
                };
                let anchor = window.last_uer_row().unwrap();
                for row in rows {
                    assert!(row.distance(anchor) <= 72);
                }
            }
        }
    }
}
