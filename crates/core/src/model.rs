//! Model selection: the three tree-ensemble families the paper evaluates.

use serde::{Deserialize, Serialize};

use cordial_trees::{
    Classifier, Dataset, FitError, FlatEnsemble, Gbdt, GbdtConfig, LightGbm, LightGbmConfig,
    RandomForest, RandomForestConfig,
};

/// Which tree-ensemble family to train (paper §IV-C: "Random Forest,
/// XGBoost, and LightGBM because they are lightweight, easy to deploy, and
/// have low computation costs").
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum ModelKind {
    /// Bagged CART forest with probability averaging.
    RandomForest {
        /// Number of trees.
        n_trees: usize,
        /// Maximum tree depth.
        max_depth: usize,
    },
    /// XGBoost-style second-order GBDT.
    Xgboost {
        /// Boosting rounds.
        n_rounds: usize,
        /// Maximum tree depth.
        max_depth: usize,
        /// Learning rate.
        learning_rate: f64,
    },
    /// LightGBM-style histogram, leaf-wise GBDT.
    LightGbm {
        /// Boosting rounds.
        n_rounds: usize,
        /// Maximum leaves per tree.
        max_leaves: usize,
        /// Learning rate.
        learning_rate: f64,
    },
}

impl ModelKind {
    /// Default random-forest configuration.
    pub fn random_forest() -> Self {
        ModelKind::RandomForest {
            n_trees: 100,
            max_depth: 12,
        }
    }

    /// Default XGBoost-style configuration.
    pub fn xgboost() -> Self {
        ModelKind::Xgboost {
            n_rounds: 60,
            max_depth: 5,
            learning_rate: 0.15,
        }
    }

    /// Default LightGBM-style configuration.
    pub fn lightgbm() -> Self {
        ModelKind::LightGbm {
            n_rounds: 60,
            max_leaves: 31,
            learning_rate: 0.15,
        }
    }

    /// The three model families in the paper's Table IV order
    /// (LGBM, XGB, RF).
    pub fn paper_lineup() -> [ModelKind; 3] {
        [Self::lightgbm(), Self::xgboost(), Self::random_forest()]
    }

    /// Display name used in result tables.
    pub fn name(&self) -> &'static str {
        match self {
            ModelKind::RandomForest { .. } => "Random Forest",
            ModelKind::Xgboost { .. } => "XGBoost",
            ModelKind::LightGbm { .. } => "LightGBM",
        }
    }

    /// Short suffix used in the paper's Table IV method names
    /// (`Cordial-RF` etc.).
    pub fn short_name(&self) -> &'static str {
        match self {
            ModelKind::RandomForest { .. } => "RF",
            ModelKind::Xgboost { .. } => "XGB",
            ModelKind::LightGbm { .. } => "LGBM",
        }
    }

    /// Fits the selected family on a dataset with the family's default
    /// worker-thread count.
    ///
    /// # Errors
    ///
    /// Propagates the underlying [`FitError`].
    pub fn fit(&self, data: &Dataset, seed: u64) -> Result<TrainedModel, FitError> {
        self.fit_threaded(data, seed, RandomForestConfig::default().n_threads)
    }

    /// Fits the selected family with an explicit worker-thread count
    /// (1 = sequential; the fitted model is the same either way).
    ///
    /// # Errors
    ///
    /// Propagates the underlying [`FitError`].
    pub fn fit_threaded(
        &self,
        data: &Dataset,
        seed: u64,
        n_threads: usize,
    ) -> Result<TrainedModel, FitError> {
        match *self {
            ModelKind::RandomForest { n_trees, max_depth } => {
                let config = RandomForestConfig {
                    n_trees,
                    base: cordial_trees::TreeConfig {
                        max_depth,
                        min_samples_leaf: 2,
                        ..Default::default()
                    },
                    seed,
                    n_threads,
                    ..Default::default()
                };
                RandomForest::fit(data, &config).map(TrainedModel::Forest)
            }
            ModelKind::Xgboost {
                n_rounds,
                max_depth,
                learning_rate,
            } => {
                // The depth-wise GBDT has no parallel fit path.
                let config = GbdtConfig {
                    n_rounds,
                    max_depth,
                    learning_rate,
                    seed,
                    ..Default::default()
                };
                Gbdt::fit(data, &config).map(TrainedModel::Xgb)
            }
            ModelKind::LightGbm {
                n_rounds,
                max_leaves,
                learning_rate,
            } => {
                let config = LightGbmConfig {
                    n_rounds,
                    max_leaves,
                    learning_rate,
                    seed,
                    n_threads,
                    ..Default::default()
                };
                LightGbm::fit(data, &config).map(TrainedModel::Lgbm)
            }
        }
    }

    /// As [`ModelKind::fit_threaded`], but warm-starts from `previous`
    /// when possible. Only the LightGBM family has a warm path (the
    /// fitted quantile bin mapper is reused via
    /// [`LightGbm::refit_warm`], skipping the dataset scan); any other
    /// family, a family mismatch, or a feature-count mismatch falls back
    /// to a cold fit. The fallback is silent by design: warm start is an
    /// optimisation, never a requirement.
    ///
    /// # Errors
    ///
    /// As [`ModelKind::fit_threaded`].
    pub fn fit_threaded_warm(
        &self,
        data: &Dataset,
        seed: u64,
        n_threads: usize,
        previous: Option<&TrainedModel>,
    ) -> Result<TrainedModel, FitError> {
        if let ModelKind::LightGbm {
            n_rounds,
            max_leaves,
            learning_rate,
        } = *self
        {
            if let Some(TrainedModel::Lgbm(prev)) = previous {
                if prev.n_features() == data.n_features() {
                    let config = LightGbmConfig {
                        n_rounds,
                        max_leaves,
                        learning_rate,
                        seed,
                        n_threads,
                        ..Default::default()
                    };
                    return prev.refit_warm(data, &config).map(TrainedModel::Lgbm);
                }
            }
        }
        self.fit_threaded(data, seed, n_threads)
    }
}

impl Default for ModelKind {
    /// Random forest: the paper's best performer (§V-B).
    fn default() -> Self {
        Self::random_forest()
    }
}

impl std::fmt::Display for ModelKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// A fitted model of any of the three families.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum TrainedModel {
    /// Random forest.
    Forest(RandomForest),
    /// XGBoost-style GBDT.
    Xgb(Gbdt),
    /// LightGBM-style GBDT.
    Lgbm(LightGbm),
}

impl TrainedModel {
    /// Gain-based feature importance of the underlying ensemble,
    /// normalised to sum to 1.
    pub fn feature_importance(&self) -> Vec<f64> {
        match self {
            TrainedModel::Forest(m) => m.feature_importance(),
            TrainedModel::Xgb(m) => m.feature_importance(),
            TrainedModel::Lgbm(m) => m.feature_importance(),
        }
    }

    /// Flattens the model into its branchless inference form
    /// ([`FlatEnsemble`]). Infallible for every family.
    pub fn flatten(&self) -> FlatEnsemble {
        match self {
            TrainedModel::Forest(m) => FlatEnsemble::from_forest(m),
            TrainedModel::Xgb(m) => FlatEnsemble::from_gbdt(m),
            TrainedModel::Lgbm(m) => FlatEnsemble::from_lightgbm(m),
        }
    }
}

/// A fitted model as the pipeline holds it: the pointer model, which is
/// the training structure, the persisted form and the test oracle, plus
/// its flat inference form, which answers every prediction.
///
/// The flat form is built when the model is fitted or deserialised and is
/// never persisted: a `CompiledModel` serialises exactly as its bare
/// [`TrainedModel`], so pipeline JSON is unchanged, and equality compares
/// the pointer models only (the flat form is a function of them).
#[derive(Debug, Clone)]
pub struct CompiledModel {
    trained: TrainedModel,
    flat: FlatEnsemble,
}

impl CompiledModel {
    /// Flattens `trained` and keeps both forms.
    pub fn new(trained: TrainedModel) -> Self {
        let flat = trained.flatten();
        Self { trained, flat }
    }

    /// The pointer model (warm starts, feature importances, test oracle).
    pub fn trained(&self) -> &TrainedModel {
        &self.trained
    }

    /// The flat inference form.
    pub fn flat(&self) -> &FlatEnsemble {
        &self.flat
    }
}

impl PartialEq for CompiledModel {
    fn eq(&self, other: &Self) -> bool {
        self.trained == other.trained
    }
}

impl Serialize for CompiledModel {
    fn to_value(&self) -> serde::Value {
        self.trained.to_value()
    }
}

impl<'de> Deserialize<'de> for CompiledModel {
    fn from_value(value: &serde::Value) -> Result<Self, serde::Error> {
        TrainedModel::from_value(value).map(Self::new)
    }
}

impl Classifier for CompiledModel {
    fn n_classes(&self) -> usize {
        self.flat.n_classes()
    }

    fn predict_proba(&self, row: &[f64]) -> Vec<f64> {
        self.flat.predict_proba(row)
    }
}

impl Classifier for TrainedModel {
    fn n_classes(&self) -> usize {
        match self {
            TrainedModel::Forest(m) => m.n_classes(),
            TrainedModel::Xgb(m) => m.n_classes(),
            TrainedModel::Lgbm(m) => m.n_classes(),
        }
    }

    fn predict_proba(&self, row: &[f64]) -> Vec<f64> {
        match self {
            TrainedModel::Forest(m) => m.predict_proba(row),
            TrainedModel::Xgb(m) => m.predict_proba(row),
            TrainedModel::Lgbm(m) => m.predict_proba(row),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn blobs() -> Dataset {
        let mut data = Dataset::new(2, 2);
        for i in 0..40 {
            let v = (i % 10) as f64;
            data.push_row(&[v, v], 0).unwrap();
            data.push_row(&[100.0 + v, 100.0 + v], 1).unwrap();
        }
        data
    }

    #[test]
    fn every_family_fits_and_predicts() {
        let data = blobs();
        for kind in ModelKind::paper_lineup() {
            let model = kind.fit(&data, 1).unwrap();
            assert_eq!(model.predict(&[1.0, 1.0]), 0, "{kind}");
            assert_eq!(model.predict(&[105.0, 105.0]), 1, "{kind}");
            assert_eq!(model.n_classes(), 2);
            let p = model.predict_proba(&[1.0, 1.0]);
            assert!((p.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        }
    }

    #[test]
    fn names_match_paper_terminology() {
        assert_eq!(ModelKind::random_forest().name(), "Random Forest");
        assert_eq!(ModelKind::xgboost().short_name(), "XGB");
        assert_eq!(ModelKind::lightgbm().short_name(), "LGBM");
        assert_eq!(ModelKind::default().name(), "Random Forest");
    }

    #[test]
    fn lineup_order_matches_table_iv() {
        let names: Vec<_> = ModelKind::paper_lineup()
            .iter()
            .map(|m| m.short_name())
            .collect();
        assert_eq!(names, ["LGBM", "XGB", "RF"]);
    }

    #[test]
    fn compiled_model_predicts_like_its_pointer_model_and_serialises_as_it() {
        let data = blobs();
        for kind in ModelKind::paper_lineup() {
            let trained = kind.fit(&data, 1).unwrap();
            let compiled = CompiledModel::new(trained.clone());
            for row in [[1.0, 1.0], [50.0, 50.0], [105.0, 105.0], [f64::NAN, 3.0]] {
                let (p, f) = (trained.predict_proba(&row), compiled.predict_proba(&row));
                assert!(
                    p.iter().zip(&f).all(|(a, b)| a.to_bits() == b.to_bits()),
                    "{kind}: {p:?} vs {f:?}"
                );
            }
            let json = serde_json::to_string(&compiled).unwrap();
            assert_eq!(json, serde_json::to_string(&trained).unwrap(), "{kind}");
            let restored: CompiledModel = serde_json::from_str(&json).unwrap();
            assert_eq!(restored, compiled);
            assert_eq!(restored.flat(), compiled.flat(), "{kind}");
        }
    }

    #[test]
    fn fit_errors_propagate() {
        let empty = Dataset::new(2, 2);
        assert!(ModelKind::random_forest().fit(&empty, 0).is_err());
    }
}
