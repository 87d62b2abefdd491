//! A Calchas-style hierarchical **in-row** ML predictor — the related-work
//! foil (paper §I, §VI).
//!
//! Calchas-like frameworks predict failures *in the same rows* that already
//! showed errors, using features from several device levels (row, bank,
//! HBM). This module implements that paradigm faithfully so the paper's
//! central claim is testable inside this repository: however good the
//! model, an in-row method can only ever isolate rows that have history —
//! and ~95% of row UERs are sudden, so its coverage is capped by the
//! in-row ceiling that Cordial's cross-row paradigm escapes.

use std::collections::BTreeMap;

use cordial_faultsim::FleetDataset;
use cordial_mcelog::{ErrorType, ObservedWindow, Timestamp};
use cordial_topology::{BankAddress, MicroLevel, RowId, UnitKey};
use cordial_trees::{Classifier, Dataset};

use crate::config::CordialConfig;
use crate::error::CordialError;
use crate::model::CompiledModel;

/// Names of the hierarchical in-row features (row, bank and HBM levels).
pub const IN_ROW_FEATURE_NAMES: [&str; 11] = [
    "row_ce_count",
    "row_ueo_count",
    "row_uer_count",
    "row_event_count",
    "row_seconds_since_last_event",
    "bank_ce_count",
    "bank_ueo_count",
    "bank_uer_count",
    "bank_distinct_uer_rows",
    "hbm_event_count_before_cut",
    "hbm_uer_count_before_cut",
];

/// A trained hierarchical in-row predictor.
#[derive(Debug, Clone, PartialEq)]
pub struct HierarchicalInRowPredictor {
    model: CompiledModel,
    threshold: f64,
    k_uers: usize,
}

/// Per-HBM event tallies used as the coarse hierarchy level.
#[derive(Debug, Clone, Default)]
pub struct HbmTally {
    /// (time, is_uer) of every event in the HBM, time-sorted.
    events: Vec<(Timestamp, bool)>,
}

impl HbmTally {
    /// `(all events, UER events)` strictly before `cut` in this HBM.
    pub fn counts_before(&self, cut: Timestamp) -> (f64, f64) {
        let upto = self.events.partition_point(|(t, _)| *t < cut);
        let uers = self.events[..upto].iter().filter(|(_, u)| *u).count();
        (upto as f64, uers as f64)
    }
}

fn hbm_tallies(dataset: &FleetDataset) -> BTreeMap<UnitKey, HbmTally> {
    let mut map: BTreeMap<UnitKey, HbmTally> = BTreeMap::new();
    for event in dataset.log.events() {
        let key = event.addr.project(MicroLevel::Hbm);
        map.entry(key)
            .or_default()
            .events
            .push((event.time, event.is_uer()));
    }
    map
}

/// Builds the per-row feature vectors of one observed window: one sample
/// per row that has at least one event (rows without history are invisible
/// to an in-row method — that is the point).
fn row_samples(window: &ObservedWindow<'_>, hbm: Option<&HbmTally>) -> Vec<(RowId, Vec<f64>)> {
    let events = window.events();
    let cut = events.last().map_or(Timestamp::ZERO, |e| e.time);

    let mut bank_counts = [0.0f64; 3];
    for e in events {
        bank_counts[match e.error_type {
            ErrorType::Ce => 0,
            ErrorType::Ueo => 1,
            ErrorType::Uer => 2,
        }] += 1.0;
    }
    let distinct_uer_rows = window.uer_rows().len() as f64;
    let (hbm_events, hbm_uers) = hbm.map_or((0.0, 0.0), |t| t.counts_before(cut));

    let mut per_row: BTreeMap<RowId, ([f64; 3], Timestamp)> = BTreeMap::new();
    for e in events {
        let entry = per_row
            .entry(e.addr.row)
            .or_insert(([0.0; 3], Timestamp::ZERO));
        entry.0[match e.error_type {
            ErrorType::Ce => 0,
            ErrorType::Ueo => 1,
            ErrorType::Uer => 2,
        }] += 1.0;
        entry.1 = entry.1.max(e.time);
    }

    per_row
        .into_iter()
        .map(|(row, (counts, last))| {
            let features = vec![
                counts[0],
                counts[1],
                counts[2],
                counts.iter().sum(),
                cut.saturating_since(last).as_secs_f64(),
                bank_counts[0],
                bank_counts[1],
                bank_counts[2],
                distinct_uer_rows,
                hbm_events,
                hbm_uers,
            ];
            (row, features)
        })
        .collect()
}

impl HierarchicalInRowPredictor {
    /// Trains the in-row predictor on the training banks: one binary sample
    /// per (bank, row-with-history), labelled by whether that row has a
    /// future UER.
    ///
    /// # Errors
    ///
    /// Returns [`CordialError::NoTrainableBanks`] when no samples exist.
    pub fn fit(
        dataset: &FleetDataset,
        train_banks: &[BankAddress],
        config: &CordialConfig,
    ) -> Result<Self, CordialError> {
        let by_bank = dataset.log.by_bank();
        let tallies = hbm_tallies(dataset);
        let mut data = Dataset::new(IN_ROW_FEATURE_NAMES.len(), 2);

        for bank in train_banks {
            let Some(history) = by_bank.get(bank) else {
                continue;
            };
            let Some((window, future)) = history.observe_until_k_uers(config.k_uers) else {
                continue;
            };
            let hbm_key = window
                .events()
                .first()
                .map(|e| e.addr.project(MicroLevel::Hbm));
            let tally = hbm_key.and_then(|k| tallies.get(&k));
            let future_uer_rows: Vec<RowId> = future
                .iter()
                .filter(|e| e.is_uer())
                .map(|e| e.addr.row)
                .collect();
            for (row, features) in row_samples(&window, tally) {
                let label = usize::from(future_uer_rows.contains(&row));
                data.push_row(&features, label)?;
            }
        }
        if data.is_empty() {
            return Err(CordialError::NoTrainableBanks);
        }
        let model = CompiledModel::new(config.model.fit_threaded(
            &data,
            config.seed,
            config.n_threads,
        )?);
        // Recall-friendly fixed threshold: in-row methods isolate every row
        // their model flags — the candidate set is tiny anyway.
        Ok(Self {
            model,
            threshold: 0.3,
            k_uers: config.k_uers,
        })
    }

    /// Number of distinct UER rows observed before prediction.
    pub fn k_uers(&self) -> usize {
        self.k_uers
    }

    /// The rows this method would isolate for an observed window: rows with
    /// history whose predicted failure probability clears the threshold.
    pub fn predicted_rows(
        &self,
        window: &ObservedWindow<'_>,
        hbm: Option<&HbmTally>,
    ) -> Vec<RowId> {
        row_samples(window, hbm)
            .into_iter()
            .filter(|(_, features)| self.model.predict_proba(features)[1] >= self.threshold)
            .map(|(row, _)| row)
            .collect()
    }

    /// Evaluates the in-row coverage over test banks: the fraction of *new*
    /// future UER rows the method isolates in advance.
    ///
    /// Because an in-row model can only flag rows that already erred, and
    /// new future rows by definition have no UER history, its coverage is
    /// bounded by the fraction of future rows with CE/UEO precursors — the
    /// in-row ceiling of §V-B.
    pub fn evaluate_icr(&self, dataset: &FleetDataset, test_banks: &[BankAddress]) -> f64 {
        let by_bank = dataset.log.by_bank();
        let tallies = hbm_tallies(dataset);
        let mut covered = 0usize;
        let mut total = 0usize;
        for bank in test_banks {
            let Some(history) = by_bank.get(bank) else {
                continue;
            };
            let Some((window, future)) = history.observe_until_k_uers(self.k_uers) else {
                continue;
            };
            let hbm_key = window
                .events()
                .first()
                .map(|e| e.addr.project(MicroLevel::Hbm));
            let predicted = self.predicted_rows(&window, hbm_key.and_then(|k| tallies.get(&k)));
            let future_rows = crate::isolation::future_new_uer_rows(&window, future);
            covered += future_rows.iter().filter(|r| predicted.contains(r)).count();
            total += future_rows.len();
        }
        crate::isolation::icr(covered, total)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::baseline::InRowPredictor;
    use crate::eval::evaluate_cordial;
    use crate::split::split_banks;
    use cordial_faultsim::{generate_fleet_dataset, FleetDatasetConfig};

    #[test]
    fn in_row_ml_is_capped_by_the_ceiling_and_beaten_by_cordial() {
        let dataset = generate_fleet_dataset(&FleetDatasetConfig::medium(), 23);
        let split = split_banks(&dataset, 0.7, 23);
        let config = CordialConfig::default();

        let in_row = HierarchicalInRowPredictor::fit(&dataset, &split.train, &config).unwrap();
        let in_row_icr = in_row.evaluate_icr(&dataset, &split.test);

        // The oracle ceiling: isolate *every* row with history.
        let ceiling = crate::eval::evaluate_in_row_ceiling(&dataset, &split.test, &config);
        assert!(
            in_row_icr <= ceiling + 1e-9,
            "learned in-row {in_row_icr:.4} cannot exceed the oracle ceiling {ceiling:.4}"
        );

        // Cordial's cross-row coverage escapes the cap.
        let (_, cordial_eval) =
            evaluate_cordial(&dataset, &split.train, &split.test, &config).unwrap();
        assert!(
            cordial_eval.icr > 1.5 * ceiling.max(1e-6),
            "cross-row {:.4} must clearly exceed the in-row ceiling {:.4}",
            cordial_eval.icr,
            ceiling
        );
    }

    #[test]
    fn predicted_rows_are_a_subset_of_rows_with_history() {
        let dataset = generate_fleet_dataset(&FleetDatasetConfig::small(), 24);
        let split = split_banks(&dataset, 0.7, 24);
        let config = CordialConfig::default();
        let in_row = HierarchicalInRowPredictor::fit(&dataset, &split.train, &config).unwrap();
        let by_bank = dataset.log.by_bank();
        let oracle = InRowPredictor::new();
        for bank in split.test.iter().take(10) {
            let Some((window, _)) = by_bank[bank].observe_until_k_uers(3) else {
                continue;
            };
            let seen_rows: Vec<RowId> = window.events().iter().map(|e| e.addr.row).collect();
            for row in in_row.predicted_rows(&window, None) {
                assert!(
                    seen_rows.contains(&row),
                    "in-row prediction must only flag rows with history"
                );
            }
            // The oracle's candidate set (rows with CE/UEO) is itself a
            // subset of rows with history.
            for row in oracle.predicted_rows(&window) {
                assert!(seen_rows.contains(&row));
            }
        }
    }

    #[test]
    fn training_requires_samples() {
        let dataset = generate_fleet_dataset(&FleetDatasetConfig::small(), 25);
        let err =
            HierarchicalInRowPredictor::fit(&dataset, &[], &CordialConfig::default()).unwrap_err();
        assert_eq!(err, CordialError::NoTrainableBanks);
    }

    #[test]
    fn hbm_tally_counts_respect_the_cut() {
        let dataset = generate_fleet_dataset(&FleetDatasetConfig::small(), 26);
        let tallies = hbm_tallies(&dataset);
        for tally in tallies.values() {
            let (all, uers) = tally.counts_before(Timestamp::from_millis(u64::MAX));
            assert!(uers <= all);
            let (none, _) = tally.counts_before(Timestamp::ZERO);
            assert_eq!(none, 0.0);
        }
    }
}
