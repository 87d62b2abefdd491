//! CART decision trees: exact-split classification trees with optional
//! per-split feature subsampling (the building block of [`RandomForest`]).
//!
//! [`RandomForest`]: crate::RandomForest

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

use crate::data::Dataset;
use crate::error::FitError;
use crate::Classifier;

/// Split-impurity criterion.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ImpurityKind {
    /// Gini impurity `1 - Σ p²` (CART default).
    #[default]
    Gini,
    /// Shannon entropy `-Σ p·log₂ p`.
    Entropy,
}

impl ImpurityKind {
    fn impurity(self, counts: &[f64], total: f64) -> f64 {
        if total <= 0.0 {
            return 0.0;
        }
        match self {
            ImpurityKind::Gini => {
                1.0 - counts
                    .iter()
                    .map(|&c| {
                        let p = c / total;
                        p * p
                    })
                    .sum::<f64>()
            }
            ImpurityKind::Entropy => counts
                .iter()
                .filter(|&&c| c > 0.0)
                .map(|&c| {
                    let p = c / total;
                    -p * p.log2()
                })
                .sum(),
        }
    }
}

/// Hyperparameters of a [`DecisionTree`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TreeConfig {
    /// Maximum tree depth (root at depth 0).
    pub max_depth: usize,
    /// Minimum rows a node needs to be considered for splitting.
    pub min_samples_split: usize,
    /// Minimum rows each child must keep after a split.
    pub min_samples_leaf: usize,
    /// Number of features sampled per split; `None` uses every feature.
    pub max_features: Option<usize>,
    /// Impurity criterion.
    pub impurity: ImpurityKind,
    /// RNG seed (relevant only when `max_features` subsamples).
    pub seed: u64,
}

impl Default for TreeConfig {
    fn default() -> Self {
        Self {
            max_depth: 16,
            min_samples_split: 2,
            min_samples_leaf: 1,
            max_features: None,
            impurity: ImpurityKind::Gini,
            seed: 0,
        }
    }
}

impl TreeConfig {
    /// Returns the config with a different seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }
}

/// A CART node; crate-visible so [`crate::flat::FlatEnsemble`] can
/// flatten fitted trees.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub(crate) enum Node {
    Leaf {
        proba: Vec<f64>,
    },
    Split {
        feature: usize,
        threshold: f64,
        left: usize,
        right: usize,
    },
}

/// A fitted CART classification tree.
///
/// Missing values (`NaN`) always route to the left child, both during
/// training and prediction.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DecisionTree {
    pub(crate) nodes: Vec<Node>,
    n_features: usize,
    n_classes: usize,
    gains: Vec<f64>,
}

impl DecisionTree {
    /// Fits a tree on the whole dataset.
    ///
    /// # Errors
    ///
    /// Returns [`FitError::EmptyDataset`] when `data` has no rows.
    pub fn fit(data: &Dataset, config: &TreeConfig) -> Result<Self, FitError> {
        let indices: Vec<usize> = (0..data.n_rows()).collect();
        Self::fit_indices(data, &indices, config)
    }

    /// Fits a tree on the given row indices (repetitions allowed — this is
    /// how [`RandomForest`](crate::RandomForest) passes bootstrap samples).
    ///
    /// # Errors
    ///
    /// Returns [`FitError::EmptyDataset`] when `indices` is empty.
    pub fn fit_indices(
        data: &Dataset,
        indices: &[usize],
        config: &TreeConfig,
    ) -> Result<Self, FitError> {
        if indices.is_empty() || data.is_empty() {
            return Err(FitError::EmptyDataset);
        }
        if config.min_samples_leaf == 0 {
            return Err(FitError::InvalidConfig("min_samples_leaf must be >= 1"));
        }
        let mut tree = DecisionTree {
            nodes: Vec::new(),
            n_features: data.n_features(),
            n_classes: data.n_classes(),
            gains: vec![0.0; data.n_features()],
        };
        let mut rng = StdRng::seed_from_u64(config.seed);
        let mut work = indices.to_vec();
        tree.build(data, &mut work, 0, config, &mut rng);
        Ok(tree)
    }

    fn build(
        &mut self,
        data: &Dataset,
        indices: &mut [usize],
        depth: usize,
        config: &TreeConfig,
        rng: &mut StdRng,
    ) -> usize {
        let counts = class_counts(data, indices, self.n_classes);
        let total = indices.len() as f64;
        let node_impurity = config.impurity.impurity(&counts, total);

        let stop = depth >= config.max_depth
            || indices.len() < config.min_samples_split
            || node_impurity == 0.0;
        if !stop {
            if let Some(split) = self.best_split(data, indices, &counts, node_impurity, config, rng)
            {
                // Partition in place: left = value <= threshold or NaN.
                let mid = partition(data, indices, split.feature, split.threshold);
                if mid >= config.min_samples_leaf && indices.len() - mid >= config.min_samples_leaf
                {
                    self.gains[split.feature] += split.gain * total;
                    let node_idx = self.nodes.len();
                    self.nodes.push(Node::Leaf { proba: Vec::new() }); // placeholder
                    let (left_slice, right_slice) = indices.split_at_mut(mid);
                    let left = self.build(data, left_slice, depth + 1, config, rng);
                    let right = self.build(data, right_slice, depth + 1, config, rng);
                    self.nodes[node_idx] = Node::Split {
                        feature: split.feature,
                        threshold: split.threshold,
                        left,
                        right,
                    };
                    return node_idx;
                }
            }
        }
        let proba: Vec<f64> = counts.iter().map(|&c| c / total).collect();
        let node_idx = self.nodes.len();
        self.nodes.push(Node::Leaf { proba });
        node_idx
    }

    fn best_split(
        &self,
        data: &Dataset,
        indices: &[usize],
        parent_counts: &[f64],
        parent_impurity: f64,
        config: &TreeConfig,
        rng: &mut StdRng,
    ) -> Option<SplitCandidate> {
        let n_features = data.n_features();
        let feature_pool: Vec<usize> = match config.max_features {
            Some(k) if k < n_features => {
                let mut all: Vec<usize> = (0..n_features).collect();
                all.shuffle(rng);
                all.truncate(k.max(1));
                all
            }
            _ => (0..n_features).collect(),
        };

        let total = indices.len() as f64;
        let mut best: Option<SplitCandidate> = None;
        let mut sorted: Vec<(f64, usize)> = Vec::with_capacity(indices.len());
        for &feature in &feature_pool {
            sorted.clear();
            sorted.extend(
                indices
                    .iter()
                    .map(|&i| (data.value(i, feature), data.label(i))),
            );
            // NaN sorts first so missing rows stay in the left prefix.
            sorted.sort_by(|a, b| {
                nan_first(a.0)
                    .partial_cmp(&nan_first(b.0))
                    .expect("nan_first removes NaN")
            });

            let mut left_counts = vec![0.0f64; self.n_classes];
            for pos in 0..sorted.len().saturating_sub(1) {
                left_counts[sorted[pos].1] += 1.0;
                let (value, next_value) = (sorted[pos].0, sorted[pos + 1].0);
                // No threshold can separate NaN rows or equal values.
                if value.is_nan() || next_value.is_nan() || value == next_value {
                    continue;
                }
                let left_total = (pos + 1) as f64;
                let right_total = total - left_total;
                let right_counts: Vec<f64> = parent_counts
                    .iter()
                    .zip(&left_counts)
                    .map(|(p, l)| p - l)
                    .collect();
                let weighted = (left_total / total)
                    * config.impurity.impurity(&left_counts, left_total)
                    + (right_total / total) * config.impurity.impurity(&right_counts, right_total);
                let gain = parent_impurity - weighted;
                if gain > best.as_ref().map_or(1e-12, |b| b.gain) {
                    let threshold = midpoint(value, next_value);
                    best = Some(SplitCandidate {
                        feature,
                        threshold,
                        gain,
                    });
                }
            }
        }
        best
    }

    /// Class-probability vector at the leaf reached by `row`.
    fn leaf_proba(&self, row: &[f64]) -> &[f64] {
        assert_eq!(row.len(), self.n_features, "feature count mismatch");
        let mut idx = 0;
        loop {
            match &self.nodes[idx] {
                Node::Leaf { proba } => return proba,
                Node::Split {
                    feature,
                    threshold,
                    left,
                    right,
                } => {
                    let v = row[*feature];
                    idx = if v.is_nan() || v <= *threshold {
                        *left
                    } else {
                        *right
                    };
                }
            }
        }
    }

    /// Number of nodes in the fitted tree.
    pub fn n_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// Depth of the fitted tree (a lone leaf has depth 0).
    pub fn depth(&self) -> usize {
        fn walk(nodes: &[Node], idx: usize) -> usize {
            match &nodes[idx] {
                Node::Leaf { .. } => 0,
                Node::Split { left, right, .. } => 1 + walk(nodes, *left).max(walk(nodes, *right)),
            }
        }
        walk(&self.nodes, 0)
    }

    /// Total impurity gain contributed by each feature, normalised to sum
    /// to 1 (all zeros when the tree is a single leaf).
    pub fn feature_importance(&self) -> Vec<f64> {
        let total: f64 = self.gains.iter().sum();
        if total <= 0.0 {
            return vec![0.0; self.n_features];
        }
        self.gains.iter().map(|&g| g / total).collect()
    }
}

impl Classifier for DecisionTree {
    fn n_classes(&self) -> usize {
        self.n_classes
    }

    fn predict_proba(&self, row: &[f64]) -> Vec<f64> {
        self.leaf_proba(row).to_vec()
    }
}

struct SplitCandidate {
    feature: usize,
    threshold: f64,
    gain: f64,
}

fn class_counts(data: &Dataset, indices: &[usize], n_classes: usize) -> Vec<f64> {
    let mut counts = vec![0.0f64; n_classes];
    for &i in indices {
        counts[data.label(i)] += 1.0;
    }
    counts
}

/// Partitions `indices` so rows with `value <= threshold` (or NaN) come
/// first; returns the boundary position.
fn partition(data: &Dataset, indices: &mut [usize], feature: usize, threshold: f64) -> usize {
    let mut mid = 0;
    for i in 0..indices.len() {
        let v = data.value(indices[i], feature);
        if v.is_nan() || v <= threshold {
            indices.swap(i, mid);
            mid += 1;
        }
    }
    mid
}

fn nan_first(v: f64) -> f64 {
    if v.is_nan() {
        f64::NEG_INFINITY
    } else {
        v
    }
}

fn midpoint(a: f64, b: f64) -> f64 {
    let m = a + (b - a) / 2.0;
    // Guard against degenerate midpoints when a and b are adjacent floats.
    if m > a && m <= b {
        m
    } else {
        a
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A near-XOR dataset: a perfectly balanced XOR gives every root split
    /// exactly zero impurity gain (greedy CART correctly refuses it), so the
    /// (0,0) corner is slightly over-represented to break the tie.
    fn xor_dataset() -> Dataset {
        let mut data = Dataset::new(2, 2);
        for _ in 0..2 {
            data.push_row(&[0.0, 0.0], 0).unwrap();
        }
        for _ in 0..10 {
            data.push_row(&[0.0, 0.0], 0).unwrap();
            data.push_row(&[1.0, 1.0], 0).unwrap();
            data.push_row(&[0.0, 1.0], 1).unwrap();
            data.push_row(&[1.0, 0.0], 1).unwrap();
        }
        data
    }

    #[test]
    fn fits_xor_exactly() {
        let tree = DecisionTree::fit(&xor_dataset(), &TreeConfig::default()).unwrap();
        assert_eq!(tree.predict(&[0.0, 0.0]), 0);
        assert_eq!(tree.predict(&[1.0, 1.0]), 0);
        assert_eq!(tree.predict(&[0.0, 1.0]), 1);
        assert_eq!(tree.predict(&[1.0, 0.0]), 1);
        assert!(tree.depth() >= 2);
    }

    #[test]
    fn pure_node_becomes_leaf() {
        let mut data = Dataset::new(1, 2);
        for i in 0..5 {
            data.push_row(&[i as f64], 0).unwrap();
        }
        let tree = DecisionTree::fit(&data, &TreeConfig::default()).unwrap();
        assert_eq!(tree.n_nodes(), 1);
        assert_eq!(tree.depth(), 0);
        assert_eq!(tree.predict_proba(&[2.0]), vec![1.0, 0.0]);
    }

    #[test]
    fn max_depth_zero_yields_majority_leaf() {
        let mut data = Dataset::new(1, 2);
        for i in 0..8 {
            data.push_row(&[i as f64], usize::from(i >= 5)).unwrap();
        }
        let config = TreeConfig {
            max_depth: 0,
            ..TreeConfig::default()
        };
        let tree = DecisionTree::fit(&data, &config).unwrap();
        assert_eq!(tree.n_nodes(), 1);
        assert_eq!(tree.predict(&[7.0]), 0); // majority class
    }

    #[test]
    fn min_samples_leaf_prevents_tiny_children() {
        let mut data = Dataset::new(1, 2);
        for i in 0..10 {
            data.push_row(&[i as f64], usize::from(i == 9)).unwrap();
        }
        let config = TreeConfig {
            min_samples_leaf: 3,
            ..TreeConfig::default()
        };
        let tree = DecisionTree::fit(&data, &config).unwrap();
        // Separating the lone positive would need a 1-row leaf.
        assert_eq!(tree.n_nodes(), 1);
    }

    #[test]
    fn nan_rows_follow_left_branch() {
        let mut data = Dataset::new(1, 2);
        for _ in 0..5 {
            data.push_row(&[f64::NAN], 0).unwrap();
            data.push_row(&[10.0], 1).unwrap();
        }
        let tree = DecisionTree::fit(&data, &TreeConfig::default()).unwrap();
        // NaN cannot be separated from finite values by any threshold, so the
        // tree stays a leaf — but prediction must still be well defined.
        assert!(tree.predict(&[f64::NAN]) < 2);

        // With a finite co-feature the NaN rows are separable.
        let mut data = Dataset::new(2, 2);
        for i in 0..5 {
            data.push_row(&[f64::NAN, i as f64], 0).unwrap();
            data.push_row(&[10.0, 100.0 + i as f64], 1).unwrap();
        }
        let tree = DecisionTree::fit(&data, &TreeConfig::default()).unwrap();
        assert_eq!(tree.predict(&[f64::NAN, 2.0]), 0);
        assert_eq!(tree.predict(&[10.0, 103.0]), 1);
    }

    #[test]
    fn empty_input_is_rejected() {
        let data = Dataset::new(2, 2);
        assert_eq!(
            DecisionTree::fit(&data, &TreeConfig::default()),
            Err(FitError::EmptyDataset)
        );
    }

    #[test]
    fn zero_min_samples_leaf_is_rejected() {
        let config = TreeConfig {
            min_samples_leaf: 0,
            ..TreeConfig::default()
        };
        assert!(matches!(
            DecisionTree::fit(&xor_dataset(), &config),
            Err(FitError::InvalidConfig(_))
        ));
    }

    #[test]
    fn entropy_criterion_also_fits() {
        let config = TreeConfig {
            impurity: ImpurityKind::Entropy,
            ..TreeConfig::default()
        };
        let tree = DecisionTree::fit(&xor_dataset(), &config).unwrap();
        assert_eq!(tree.predict(&[0.0, 1.0]), 1);
    }

    #[test]
    fn feature_importance_sums_to_one_when_split() {
        let tree = DecisionTree::fit(&xor_dataset(), &TreeConfig::default()).unwrap();
        let importance = tree.feature_importance();
        assert_eq!(importance.len(), 2);
        let sum: f64 = importance.iter().sum();
        assert!((sum - 1.0).abs() < 1e-9);
    }

    #[test]
    fn probabilities_sum_to_one() {
        let tree = DecisionTree::fit(&xor_dataset(), &TreeConfig::default()).unwrap();
        let proba = tree.predict_proba(&[0.5, 0.5]);
        assert!((proba.iter().sum::<f64>() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn deterministic_under_same_seed_with_subsampling() {
        let config = TreeConfig {
            max_features: Some(1),
            seed: 9,
            ..TreeConfig::default()
        };
        let a = DecisionTree::fit(&xor_dataset(), &config).unwrap();
        let b = DecisionTree::fit(&xor_dataset(), &config).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn bootstrap_indices_with_repetition_work() {
        let data = xor_dataset();
        let indices: Vec<usize> = (0..data.n_rows()).chain(0..data.n_rows()).collect();
        let tree = DecisionTree::fit_indices(&data, &indices, &TreeConfig::default()).unwrap();
        assert_eq!(tree.predict(&[1.0, 0.0]), 1);
    }

    #[test]
    #[should_panic(expected = "feature count mismatch")]
    fn predict_rejects_wrong_arity() {
        let tree = DecisionTree::fit(&xor_dataset(), &TreeConfig::default()).unwrap();
        tree.predict(&[1.0]);
    }

    #[test]
    fn impurity_values_are_sane() {
        assert_eq!(ImpurityKind::Gini.impurity(&[5.0, 0.0], 5.0), 0.0);
        assert!((ImpurityKind::Gini.impurity(&[5.0, 5.0], 10.0) - 0.5).abs() < 1e-12);
        assert!((ImpurityKind::Entropy.impurity(&[5.0, 5.0], 10.0) - 1.0).abs() < 1e-12);
        assert_eq!(ImpurityKind::Entropy.impurity(&[], 0.0), 0.0);
    }
}
