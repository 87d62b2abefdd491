//! Flattened, branchless inference for every fitted ensemble of the crate.
//!
//! [`RandomForest`], [`Gbdt`] and [`LightGbm`] predict by walking
//! heap-allocated node vectors with an enum `match` per node — a
//! pointer-chasing, branch-mispredicting hot loop when a monitor replans on
//! every ingested batch. This module flattens a fitted ensemble into one
//! contiguous node pool:
//!
//! ```text
//! nodes:       [FlatNode]  one 16-byte record per split node: feature
//!                          (u32), threshold bin (u32) and the child pair
//!                          [left, right] (i32). A non-negative child is a
//!                          pool index, a negative child `!slot` a leaf.
//! leaf_values: [f64]       leaf_width values per leaf slot: one weight for
//!                          a boosted tree, one probability per class for
//!                          a forest tree.
//! roots:       [i32]       per-tree entry reference in the reference's
//!                          accumulation order; a single-leaf tree's root
//!                          is its leaf.
//! ```
//!
//! Traversal is predicated rather than branched: each step loads one node
//! record and selects the child with `usize::from(bin > threshold)`, with
//! no data-dependent branch until the leaf test.
//!
//! Raw feature values are quantised to bins up front, so traversal
//! compares integers only. Every family uses the same rule: per feature, a
//! sorted, deduplicated table `t` of split points, with `bin(x) = 1 +
//! #{t_j : t_j < x}` and NaN ↦ bin 0.
//!
//! * LightGBM trees already split on bins of the model's own [`BinMapper`],
//!   whose edges follow exactly this rule; the edges are the tables.
//! * GBDT and random-forest (CART) trees split on raw `f64` midpoints with
//!   the predicate `x.is_nan() || x <= t`. Per feature, every threshold
//!   used anywhere in the ensemble becomes the table. A split on threshold
//!   `t_i` (the `i`-th table entry) then routes left iff `bin(x) <= i + 1`,
//!   which is exactly the raw predicate — NaN maps to bin 0, which is `<=`
//!   every index, and for finite `x`, `bin(x) <= i + 1 ⟺ #{t < x} <= i ⟺
//!   x <= t_i` because the table is sorted and `t_i` is at index `i`.
//!
//! Bins are `u32`, so a table of any size a model can hold is addressable
//! and flattening never fails: there is no pointer-walk fallback.
//!
//! Leaves are combined the way each reference model combines them:
//!
//! * boosted (GBDT, LightGBM): raw score `base + Σ learning_rate · weight`
//!   per class in `(round, class)` order, then softmax;
//! * forest: the trees' leaf probability vectors summed in tree order from
//!   zero, then divided by the tree count — [`RandomForest::predict_proba`]'s
//!   exact operations.
//!
//! Every prediction, single-row or batch, runs one tree-major kernel: each
//! tree walks every row of the call before the next tree starts, so a tree
//! stays in cache across the batch. Per row, the additions happen in the
//! same tree order as the reference, so scores, probabilities and argmax
//! classes are bit-identical to the pointer models (NaN handling included)
//! for every batch size and thread count.
//! The pointer models stay as the training structures and as the test
//! oracle.

use crate::forest::RandomForest;
use crate::gbdt::{softmax, Gbdt, RegNode};
use crate::lgbm::{HistNode, LightGbm};
use crate::tree::Node;
use crate::Classifier;

/// Minimum rows per worker chunk in
/// [`FlatEnsemble::predict_proba_batch_threaded`]: below twice this the
/// batch runs sequentially, since spawn overhead dwarfs the work.
const MIN_CHUNK: usize = 8;

/// One split node: `bin_row[feature] > threshold` selects `children[1]`,
/// otherwise `children[0]`. A child `c >= 0` is a pool index; a negative
/// child is the leaf slot `!c`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct FlatNode {
    feature: u32,
    threshold: u32,
    children: [i32; 2],
}

/// How per-tree leaf values become class probabilities.
#[derive(Debug, Clone, PartialEq)]
enum Combine {
    /// `base_score + Σ learning_rate · weight` per class, trees in
    /// `(round, class)` order, then softmax.
    Boosted {
        base_score: Vec<f64>,
        learning_rate: f64,
    },
    /// Sum of per-tree probability vectors, then divided by the tree count.
    Forest,
}

/// A node of a pointer tree as the flattener sees it; `T` is the split
/// threshold: a raw `f64` for CART and GBDT trees, a bin for LightGBM.
enum NodeView<'a, T> {
    Split {
        feature: usize,
        threshold: T,
        left: usize,
        right: usize,
    },
    Leaf(&'a [f64]),
}

/// A fitted ensemble flattened into contiguous arrays with branchless
/// predicated traversal. See the [module docs](self) for the data layout,
/// the quantisation rule and the bit-identity argument.
#[derive(Debug, Clone, PartialEq)]
pub struct FlatEnsemble {
    /// Per-feature sorted bin tables: `bin(x) = 1 + #{t < x}`, NaN ↦ 0.
    tables: Vec<Vec<f64>>,
    nodes: Vec<FlatNode>,
    /// `leaf_width` values per leaf, shared across all trees.
    leaf_values: Vec<f64>,
    leaf_width: usize,
    /// Per-tree entry references in accumulation order.
    roots: Vec<i32>,
    combine: Combine,
    n_classes: usize,
    n_features: usize,
}

impl FlatEnsemble {
    /// Flattens a fitted random forest: thresholds quantised through
    /// per-feature tables, leaves carrying the trees' class-probability
    /// vectors.
    pub fn from_forest(model: &RandomForest) -> Self {
        let trees: Vec<&[Node]> = model.trees().iter().map(|t| t.nodes.as_slice()).collect();
        Self::from_raw_splits(
            &trees,
            |node| match node {
                Node::Split {
                    feature,
                    threshold,
                    left,
                    right,
                } => NodeView::Split {
                    feature: *feature,
                    threshold: *threshold,
                    left: *left,
                    right: *right,
                },
                Node::Leaf { proba } => NodeView::Leaf(proba),
            },
            model.n_classes(),
            model.n_features(),
            Combine::Forest,
        )
    }

    /// Flattens a fitted GBDT (XGBoost-style) model by quantising every
    /// split threshold to its index in a per-feature sorted threshold
    /// table.
    pub fn from_gbdt(model: &Gbdt) -> Self {
        let trees: Vec<&[RegNode]> = model
            .tree_rounds()
            .iter()
            .flatten()
            .map(|t| t.nodes.as_slice())
            .collect();
        let combine = Combine::Boosted {
            base_score: model.base_scores().to_vec(),
            learning_rate: model.shrinkage(),
        };
        Self::from_raw_splits(
            &trees,
            |node| match node {
                RegNode::Split {
                    feature,
                    threshold,
                    left,
                    right,
                } => NodeView::Split {
                    feature: *feature,
                    threshold: *threshold,
                    left: *left,
                    right: *right,
                },
                RegNode::Leaf { weight } => NodeView::Leaf(std::slice::from_ref(weight)),
            },
            model.n_classes(),
            model.n_features(),
            combine,
        )
    }

    /// Flattens trees that split on raw `f64` thresholds: every threshold
    /// joins its feature's sorted, deduplicated table first, then each
    /// split is quantised to its table index.
    fn from_raw_splits<N>(
        trees: &[&[N]],
        view: impl for<'a> Fn(&'a N) -> NodeView<'a, f64>,
        n_classes: usize,
        n_features: usize,
        combine: Combine,
    ) -> Self {
        let mut tables: Vec<Vec<f64>> = vec![Vec::new(); n_features];
        for node in trees.iter().flat_map(|nodes| nodes.iter()) {
            if let NodeView::Split {
                feature, threshold, ..
            } = view(node)
            {
                debug_assert!(!threshold.is_nan(), "split thresholds are never NaN");
                tables[feature].push(threshold);
            }
        }
        for table in &mut tables {
            table.sort_by(f64::total_cmp);
            table.dedup();
        }
        let mut flat = Self::empty(tables, n_classes, n_features, combine);
        for nodes in trees {
            flat.push_tree(nodes, |node, tables| match view(node) {
                NodeView::Split {
                    feature,
                    threshold,
                    left,
                    right,
                } => NodeView::Split {
                    feature,
                    threshold: threshold_bin(&tables[feature], threshold),
                    left,
                    right,
                },
                NodeView::Leaf(values) => NodeView::Leaf(values),
            });
        }
        flat
    }

    /// Flattens a fitted LightGBM-style model. Histogram trees already
    /// split on bins of the model's own mapper, whose edges become the bin
    /// tables verbatim.
    pub fn from_lightgbm(model: &LightGbm) -> Self {
        let mut flat = Self::empty(
            model.bin_mapper().boundaries().to_vec(),
            model.n_classes(),
            model.n_features(),
            Combine::Boosted {
                base_score: model.base_scores().to_vec(),
                learning_rate: model.shrinkage(),
            },
        );
        for tree in model.tree_rounds().iter().flatten() {
            flat.push_tree(&tree.nodes, |node, _| match node {
                HistNode::Split {
                    feature,
                    bin_threshold,
                    left,
                    right,
                } => NodeView::Split {
                    feature: *feature,
                    threshold: u32::from(*bin_threshold),
                    left: *left,
                    right: *right,
                },
                HistNode::Leaf { weight } => NodeView::Leaf(std::slice::from_ref(weight)),
            });
        }
        flat
    }

    fn empty(tables: Vec<Vec<f64>>, n_classes: usize, n_features: usize, combine: Combine) -> Self {
        let leaf_width = match combine {
            Combine::Boosted { .. } => 1,
            Combine::Forest => n_classes,
        };
        Self {
            tables,
            nodes: Vec::new(),
            leaf_values: Vec::new(),
            leaf_width,
            roots: Vec::new(),
            combine,
            n_classes,
            n_features,
        }
    }

    /// Appends one pointer tree (root at index 0) to the pool: its split
    /// nodes get consecutive pool slots in pointer order, its leaves
    /// consecutive leaf slots.
    fn push_tree<N>(
        &mut self,
        nodes: &[N],
        view: impl for<'a> Fn(&'a N, &[Vec<f64>]) -> NodeView<'a, u32>,
    ) {
        let views: Vec<NodeView<'_, u32>> =
            nodes.iter().map(|node| view(node, &self.tables)).collect();
        let mut next_split = self.nodes.len();
        let refs: Vec<i32> = views
            .iter()
            .map(|view| match view {
                NodeView::Split { .. } => {
                    next_split += 1;
                    (next_split - 1) as i32
                }
                NodeView::Leaf(values) => {
                    debug_assert_eq!(values.len(), self.leaf_width);
                    let slot = self.leaf_values.len() / self.leaf_width;
                    self.leaf_values.extend_from_slice(values);
                    !(slot as i32)
                }
            })
            .collect();
        for view in &views {
            if let NodeView::Split {
                feature,
                threshold,
                left,
                right,
            } = *view
            {
                self.nodes.push(FlatNode {
                    feature: feature as u32,
                    threshold,
                    children: [refs[left], refs[right]],
                });
            }
        }
        self.roots.push(refs[0]);
    }

    /// Quantises one raw feature row into this ensemble's bin space.
    pub fn bin_row(&self, row: &[f64]) -> Vec<u32> {
        let mut bins = vec![0u32; self.n_features];
        self.bin_row_into(row, &mut bins);
        bins
    }

    /// [`FlatEnsemble::bin_row`] into a caller-owned scratch buffer.
    pub fn bin_row_into(&self, row: &[f64], out: &mut [u32]) {
        assert_eq!(row.len(), self.n_features, "feature count mismatch");
        assert_eq!(out.len(), self.n_features, "scratch length mismatch");
        for ((&value, bin), table) in row.iter().zip(out.iter_mut()).zip(&self.tables) {
            *bin = if value.is_nan() {
                0
            } else {
                (table.partition_point(|&t| t < value) + 1) as u32
            };
        }
    }

    /// Walks one tree from `root` over a pre-binned row to its leaf slot.
    #[inline]
    fn leaf(&self, root: i32, bin_row: &[u32]) -> usize {
        let mut at = root;
        while at >= 0 {
            let node = &self.nodes[at as usize];
            at = node.children[usize::from(bin_row[node.feature as usize] > node.threshold)];
        }
        !at as usize
    }

    /// The tree-major kernel behind every prediction: raw accumulations
    /// (`n_classes` per row, row-major) for a batch of pre-binned rows.
    /// Boosted ensembles accumulate raw scores, forests the un-normalised
    /// sum of leaf probability vectors.
    fn accumulate(&self, bins: &[u32]) -> Vec<f64> {
        let nc = self.n_classes;
        let rows = bins.chunks_exact(self.n_features);
        match &self.combine {
            Combine::Boosted {
                base_score,
                learning_rate,
            } => {
                let mut acc = base_score.repeat(rows.len());
                // Rounds are contiguous runs of `n_classes` roots, so the
                // class of each tree is its position within the run.
                for round in self.roots.chunks_exact(nc) {
                    for (class, &root) in round.iter().enumerate() {
                        for (bin_row, scores) in rows.clone().zip(acc.chunks_exact_mut(nc)) {
                            scores[class] +=
                                learning_rate * self.leaf_values[self.leaf(root, bin_row)];
                        }
                    }
                }
                acc
            }
            Combine::Forest => {
                let mut acc = vec![0.0f64; rows.len() * nc];
                for &root in &self.roots {
                    for (bin_row, sums) in rows.clone().zip(acc.chunks_exact_mut(nc)) {
                        let leaf = self.leaf(root, bin_row) * nc;
                        for (sum, value) in sums.iter_mut().zip(&self.leaf_values[leaf..leaf + nc])
                        {
                            *sum += value;
                        }
                    }
                }
                acc
            }
        }
    }

    /// Class probabilities from one row's raw accumulation.
    fn probabilities(&self, raw: &[f64]) -> Vec<f64> {
        match self.combine {
            Combine::Boosted { .. } => softmax(raw),
            Combine::Forest => {
                let n = self.roots.len() as f64;
                raw.iter().map(|sum| sum / n).collect()
            }
        }
    }

    /// Raw scores for one raw feature row: pre-softmax scores for a boosted
    /// ensemble (bit-identical to `Gbdt::raw_scores` /
    /// `LightGbm::raw_scores`), the summed leaf probability vectors for a
    /// forest.
    pub fn raw_scores(&self, row: &[f64]) -> Vec<f64> {
        self.accumulate(&self.bin_row(row))
    }

    /// Class probabilities for a batch of rows, in input order;
    /// bit-identical to calling [`Classifier::predict_proba`] per row.
    ///
    /// All rows are quantised into one shared bin buffer, then each tree
    /// walks every row before the next tree starts.
    pub fn predict_proba_batch(&self, rows: &[&[f64]]) -> Vec<Vec<f64>> {
        let mut bins = vec![0u32; rows.len() * self.n_features];
        for (row, out) in rows.iter().zip(bins.chunks_exact_mut(self.n_features)) {
            self.bin_row_into(row, out);
        }
        self.accumulate(&bins)
            .chunks_exact(self.n_classes)
            .map(|raw| self.probabilities(raw))
            .collect()
    }

    /// [`FlatEnsemble::predict_proba_batch`] sharded over up to `n_threads`
    /// scoped worker threads.
    ///
    /// Rows are split into contiguous chunks mapped in input order through
    /// [`crate::parallel::ordered_map`]; each row's probabilities are
    /// computed by the same kernel whichever chunk it lands in, so the
    /// result is bit-identical to the single-threaded (and per-row) paths
    /// for every thread count.
    pub fn predict_proba_batch_threaded(&self, rows: &[&[f64]], n_threads: usize) -> Vec<Vec<f64>> {
        if n_threads <= 1 || rows.len() < 2 * MIN_CHUNK {
            return self.predict_proba_batch(rows);
        }
        let chunk_len = rows.len().div_ceil(n_threads).max(MIN_CHUNK);
        let chunks: Vec<&[&[f64]]> = rows.chunks(chunk_len).collect();
        crate::parallel::ordered_map(&chunks, n_threads, |chunk| self.predict_proba_batch(chunk))
            .into_iter()
            .flatten()
            .collect()
    }

    /// Number of input features the ensemble was fitted on.
    pub fn n_features(&self) -> usize {
        self.n_features
    }

    /// Number of interior (split) nodes in the pool.
    pub fn n_split_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// Number of leaves in the pool.
    pub fn n_leaves(&self) -> usize {
        self.leaf_values.len() / self.leaf_width
    }

    /// Number of flattened trees (`rounds * classes` for a boosted
    /// ensemble, the tree count for a forest).
    pub fn n_trees(&self) -> usize {
        self.roots.len()
    }
}

impl Classifier for FlatEnsemble {
    fn n_classes(&self) -> usize {
        self.n_classes
    }

    fn predict_proba(&self, row: &[f64]) -> Vec<f64> {
        self.probabilities(&self.raw_scores(row))
    }
}

/// The bin a split on raw `threshold` compares against: its 1-based index
/// in the feature's table (`bin <= index` ⟺ `x.is_nan() || x <= threshold`).
fn threshold_bin(table: &[f64], threshold: f64) -> u32 {
    let idx = table.partition_point(|&t| t < threshold);
    debug_assert!(
        table.get(idx) == Some(&threshold),
        "every split threshold is in its feature's table"
    );
    (idx + 1) as u32
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Dataset, GbdtConfig, LightGbmConfig, RandomForestConfig};

    fn xor_ish_dataset(with_nans: bool) -> Dataset {
        let mut data = Dataset::new(3, 3);
        for i in 0..120 {
            let v = i as f64;
            let noise = ((i * 37) % 11) as f64 / 7.0;
            let (row, label) = match i % 3 {
                0 => ([v % 13.0, 50.0 + noise, v], 0),
                1 => ([100.0 + (v % 7.0), noise, -v], 1),
                _ => ([v % 5.0, -40.0 - noise, v * 0.5], 2),
            };
            let mut row = row;
            if with_nans && i % 9 == 0 {
                row[i % 3] = f64::NAN;
            }
            data.push_row(&row, label).unwrap();
        }
        data
    }

    fn probe_rows() -> Vec<Vec<f64>> {
        let mut rows = Vec::new();
        for i in 0..60 {
            let v = i as f64;
            rows.push(vec![v % 17.0, 60.0 - v, v * 1.5 - 40.0]);
        }
        rows.push(vec![f64::NAN, 1.0, 2.0]);
        rows.push(vec![1.0, f64::NAN, 2.0]);
        rows.push(vec![f64::NAN, f64::NAN, f64::NAN]);
        rows
    }

    fn assert_bit_identical(reference: &[f64], flat: &[f64]) {
        assert_eq!(reference.len(), flat.len());
        for (r, f) in reference.iter().zip(flat) {
            assert_eq!(r.to_bits(), f.to_bits(), "reference {r} vs flat {f}");
        }
    }

    #[test]
    fn flat_lightgbm_matches_pointer_twin_bit_for_bit() {
        for with_nans in [false, true] {
            let data = xor_ish_dataset(with_nans);
            let model = LightGbm::fit(&data, &LightGbmConfig::default().with_seed(5)).unwrap();
            let flat = FlatEnsemble::from_lightgbm(&model);
            assert_eq!(flat.n_classes(), model.n_classes());
            assert!(flat.n_trees() > 0);
            for row in probe_rows() {
                assert_bit_identical(&model.raw_scores(&row), &flat.raw_scores(&row));
                assert_bit_identical(&model.predict_proba(&row), &flat.predict_proba(&row));
                assert_eq!(model.predict(&row), flat.predict(&row));
            }
        }
    }

    #[test]
    fn flat_gbdt_matches_pointer_twin_bit_for_bit() {
        for with_nans in [false, true] {
            let data = xor_ish_dataset(with_nans);
            let model = Gbdt::fit(&data, &GbdtConfig::default().with_seed(5)).unwrap();
            let flat = FlatEnsemble::from_gbdt(&model);
            for row in probe_rows() {
                assert_bit_identical(&model.raw_scores(&row), &flat.raw_scores(&row));
                assert_bit_identical(&model.predict_proba(&row), &flat.predict_proba(&row));
                assert_eq!(model.predict(&row), flat.predict(&row));
            }
        }
    }

    #[test]
    fn flat_forest_matches_pointer_twin_bit_for_bit() {
        for with_nans in [false, true] {
            let data = xor_ish_dataset(with_nans);
            let config = RandomForestConfig::default().with_trees(30).with_seed(5);
            let model = RandomForest::fit(&data, &config).unwrap();
            let flat = FlatEnsemble::from_forest(&model);
            assert_eq!(flat.n_trees(), 30);
            for row in probe_rows() {
                assert_bit_identical(&model.predict_proba(&row), &flat.predict_proba(&row));
                assert_eq!(model.predict(&row), flat.predict(&row));
            }
        }
    }

    #[test]
    fn lightgbm_mapper_edges_are_the_bin_tables() {
        let data = xor_ish_dataset(true);
        let model = LightGbm::fit(&data, &LightGbmConfig::default().with_seed(9)).unwrap();
        let flat = FlatEnsemble::from_lightgbm(&model);
        for row in probe_rows() {
            let mapper_bins: Vec<u32> = model
                .bin_mapper()
                .bin_row(&row)
                .into_iter()
                .map(u32::from)
                .collect();
            assert_eq!(mapper_bins, flat.bin_row(&row), "binners agree");
        }
    }

    #[test]
    fn threshold_quantisation_preserves_raw_split_predicate() {
        // For a sorted dedup'd table and a split on table entry i,
        // `bin(x) <= i + 1  ⟺  x.is_nan() || x <= t_i`.
        let table = vec![-3.5, -0.25, 0.0, 1.0, 2.5, 1e12];
        let flat = FlatEnsemble::empty(vec![table.clone()], 2, 1, Combine::Forest);
        let probes = [
            f64::NAN,
            f64::NEG_INFINITY,
            -1e13,
            -3.5,
            -3.4999,
            -0.0,
            0.0,
            0.5,
            1.0,
            2.5,
            2.6,
            1e12,
            f64::INFINITY,
        ];
        for (i, &t) in table.iter().enumerate() {
            assert_eq!(threshold_bin(&table, t), (i + 1) as u32);
            for &x in &probes {
                let raw = x.is_nan() || x <= t;
                let binned = flat.bin_row(&[x])[0] <= (i + 1) as u32;
                assert_eq!(raw, binned, "x={x}, t={t}");
            }
        }
    }

    #[test]
    fn oversized_threshold_table_addresses_bins_past_u16() {
        // More distinct thresholds than a u16 bin index can address: the
        // u32 bins keep every split's predicate exact.
        let n = usize::from(u16::MAX) + 1_000;
        let table: Vec<f64> = (0..n).map(|i| i as f64 + 0.5).collect();
        let flat = FlatEnsemble::empty(vec![table.clone()], 2, 1, Combine::Forest);
        for i in [0, 65_533, 65_534, 65_535, 65_536, n - 1] {
            let t = table[i];
            let bin = threshold_bin(&table, t);
            assert_eq!(bin as usize, i + 1);
            for x in [t - 0.5, t, t + 0.25, t + 0.5, t + 1.0] {
                assert_eq!(flat.bin_row(&[x])[0] <= bin, x <= t, "x={x}, t={t}");
            }
        }
    }

    #[test]
    fn single_leaf_trees_predict_through_leaf_roots() {
        // A constant-label dataset yields trees that never split.
        let mut data = Dataset::new(2, 2);
        for i in 0..20 {
            data.push_row(&[i as f64, 1.0], 0).unwrap();
        }
        data.push_row(&[1000.0, -1.0], 1).unwrap();
        let gbdt = Gbdt::fit(&data, &GbdtConfig::default().with_seed(3)).unwrap();
        let flat = FlatEnsemble::from_gbdt(&gbdt);
        let mut constant = Dataset::new(2, 2);
        for i in 0..20 {
            constant.push_row(&[i as f64, 1.0], 0).unwrap();
        }
        let forest =
            RandomForest::fit(&constant, &RandomForestConfig::default().with_trees(5)).unwrap();
        let flat_forest = FlatEnsemble::from_forest(&forest);
        assert_eq!(flat_forest.n_split_nodes(), 0);
        for row in [[0.5, 1.0], [1000.0, -1.0], [f64::NAN, f64::NAN]] {
            assert_bit_identical(&gbdt.predict_proba(&row), &flat.predict_proba(&row));
            assert_bit_identical(
                &forest.predict_proba(&row),
                &flat_forest.predict_proba(&row),
            );
        }
    }
}
