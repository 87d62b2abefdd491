//! Equivalence pin of the flat inference engine: for every fitted
//! ensemble — random forest, GBDT and LightGBM — [`FlatEnsemble`] must
//! reproduce the pointer model's probabilities (and, for the boosted
//! families, raw scores) **bit-for-bit**, including on NaN-laced probe
//! rows, and the flattening must be invariant under the fit-time
//! worker-thread count (fits are thread-invariant, so their flat forms
//! must be too). The pointer models are the oracle.

use cordial_trees::{
    Classifier, Dataset, FlatEnsemble, Gbdt, GbdtConfig, LightGbm, LightGbmConfig, RandomForest,
    RandomForestConfig,
};

/// Four features, three classes, with NaN holes so missing-value routing
/// is part of what the equivalence pins.
fn dataset_with_nans() -> Dataset {
    let mut data = Dataset::new(4, 3);
    let mut noise = 1.0f64;
    let mut next = || {
        noise = (noise * 9301.0 + 49_297.0) % 233_280.0;
        noise / 233_280.0 * 12.0 - 6.0
    };
    for i in 0..90 {
        let v = (i % 15) as f64 * 0.3;
        let hole = if i % 7 == 0 { f64::NAN } else { next() };
        data.push_row(&[v, -v, hole, next()], 0).unwrap();
        data.push_row(&[6.0 + v, 6.0 - v, next(), hole], 1).unwrap();
        data.push_row(&[-6.0 - v, 12.0 + v, hole, hole], 2).unwrap();
    }
    data
}

/// Probe rows spanning the training range, the far tails, exact zeros of
/// both signs, infinities, and every NaN placement.
fn probe_rows() -> Vec<Vec<f64>> {
    let mut rows = vec![
        vec![0.0, 0.0, 0.0, 0.0],
        vec![-0.0, -0.0, -0.0, -0.0],
        vec![1.5, -1.5, 2.0, -2.0],
        vec![7.0, 5.0, -1.0, 1.0],
        vec![-8.0, 13.0, 0.3, -0.3],
        vec![1e9, -1e9, 1e-9, -1e-9],
        vec![f64::INFINITY, f64::NEG_INFINITY, 0.0, 0.0],
    ];
    for i in 0..4 {
        let mut row = vec![0.5, -0.5, 1.0, -1.0];
        row[i] = f64::NAN;
        rows.push(row);
    }
    rows.push(vec![f64::NAN; 4]);
    rows
}

fn assert_bitwise_equal(pointer: &[f64], flat: &[f64], what: &str) {
    assert_eq!(pointer.len(), flat.len(), "{what}: length");
    for (i, (p, f)) in pointer.iter().zip(flat).enumerate() {
        assert_eq!(
            p.to_bits(),
            f.to_bits(),
            "{what}[{i}]: pointer {p} vs flat {f}"
        );
    }
}

fn assert_flat_matches_pointer(pointer: &dyn Classifier, flat: &FlatEnsemble, label: &str) {
    for (r, row) in probe_rows().iter().enumerate() {
        assert_bitwise_equal(
            &pointer.predict_proba(row),
            &flat.predict_proba(row),
            &format!("{label} probe {r} proba"),
        );
        assert_eq!(
            pointer.predict(row),
            flat.predict(row),
            "{label} probe {r} class"
        );
    }
}

#[test]
fn flat_lightgbm_matches_pointer_across_fit_thread_counts() {
    let data = dataset_with_nans();
    let mut flats: Vec<FlatEnsemble> = Vec::new();
    for n_threads in [1, 2, 4, 8] {
        let config = LightGbmConfig::default()
            .with_rounds(12)
            .with_seed(7)
            .with_threads(n_threads);
        let model = LightGbm::fit(&data, &config).unwrap();
        let flat = FlatEnsemble::from_lightgbm(&model);
        assert_flat_matches_pointer(&model, &flat, &format!("lgbm t{n_threads}"));
        for (r, row) in probe_rows().iter().enumerate() {
            assert_bitwise_equal(
                &model.raw_scores(row),
                &flat.raw_scores(row),
                &format!("lgbm t{n_threads} probe {r} raw"),
            );
        }
        flats.push(flat);
    }
    // Fits are thread-invariant, so the flat twins must be identical too.
    for flat in &flats[1..] {
        assert_eq!(flat, &flats[0], "flat form must not depend on n_threads");
    }
}

#[test]
fn flat_gbdt_matches_pointer_bit_for_bit() {
    let data = dataset_with_nans();
    let config = GbdtConfig::default().with_rounds(12).with_seed(7);
    let model = Gbdt::fit(&data, &config).unwrap();
    let flat = FlatEnsemble::from_gbdt(&model);
    assert_flat_matches_pointer(&model, &flat, "gbdt");
    for (r, row) in probe_rows().iter().enumerate() {
        assert_bitwise_equal(
            &model.raw_scores(row),
            &flat.raw_scores(row),
            &format!("gbdt probe {r} raw"),
        );
    }
}

/// The batch kernels (shared binning buffer, each tree walked across
/// every row) and their threaded wrappers must be bit-identical to the
/// per-row path and to the pointer model for every batch size and worker
/// count — including batches smaller than a chunk and counts exceeding the
/// (single) host core.
#[test]
fn flat_batch_kernels_match_per_row_across_thread_counts() {
    let data = dataset_with_nans();
    let lgbm = LightGbm::fit(
        &data,
        &LightGbmConfig::default().with_rounds(12).with_seed(7),
    )
    .unwrap();
    let lgbm_flat = FlatEnsemble::from_lightgbm(&lgbm);
    let gbdt = Gbdt::fit(&data, &GbdtConfig::default().with_rounds(12).with_seed(7)).unwrap();
    let gbdt_flat = FlatEnsemble::from_gbdt(&gbdt);

    let probes = probe_rows();
    let models: [(&str, &dyn Classifier, &FlatEnsemble); 2] =
        [("lgbm", &lgbm, &lgbm_flat), ("gbdt", &gbdt, &gbdt_flat)];
    for (label, pointer, flat) in models {
        for batch in [1usize, 7, 9, 67] {
            // Cycle the probe rows (NaN placements included) out to `batch`.
            let rows: Vec<&[f64]> = (0..batch)
                .map(|i| probes[i % probes.len()].as_slice())
                .collect();
            let per_row: Vec<Vec<f64>> = rows.iter().map(|row| flat.predict_proba(row)).collect();
            let batched = flat.predict_proba_batch(&rows);
            assert_eq!(batched.len(), rows.len());
            for (i, (reference, got)) in per_row.iter().zip(&batched).enumerate() {
                assert_bitwise_equal(reference, got, &format!("{label} batch {batch} row {i}"));
                let oracle = pointer.predict_proba(rows[i]);
                assert_bitwise_equal(&oracle, got, &format!("{label} batch {batch} row {i}"));
            }
            for n_threads in [1, 2, 4, 8] {
                let threaded = flat.predict_proba_batch_threaded(&rows, n_threads);
                assert_eq!(
                    threaded, batched,
                    "{label} batch {batch}: t{n_threads} differs from sequential"
                );
            }
        }
    }
}

/// Random forests fit with 1, 2 and 4 worker threads: each flat form is
/// bit-identical to its pointer forest per row, in one batch and in a
/// threaded batch, and the flat forms do not depend on the thread count.
#[test]
fn flat_forest_matches_pointer_across_fit_and_batch_thread_counts() {
    let data = dataset_with_nans();
    let probes = probe_rows();
    let mut flats: Vec<FlatEnsemble> = Vec::new();
    for n_threads in [1, 2, 4] {
        let config = RandomForestConfig {
            n_threads,
            ..RandomForestConfig::default().with_trees(40).with_seed(7)
        };
        let forest = RandomForest::fit(&data, &config).unwrap();
        let flat = FlatEnsemble::from_forest(&forest);
        assert_eq!(flat.n_trees(), 40);
        assert_flat_matches_pointer(&forest, &flat, &format!("rf t{n_threads}"));
        for batch in [1usize, 9, 67] {
            let rows: Vec<&[f64]> = (0..batch)
                .map(|i| probes[i % probes.len()].as_slice())
                .collect();
            let batched = flat.predict_proba_batch(&rows);
            for (i, (row, got)) in rows.iter().zip(&batched).enumerate() {
                assert_bitwise_equal(
                    &forest.predict_proba(row),
                    got,
                    &format!("rf t{n_threads} batch {batch} row {i}"),
                );
            }
            for batch_threads in [2, 4] {
                assert_eq!(
                    flat.predict_proba_batch_threaded(&rows, batch_threads),
                    batched,
                    "rf t{n_threads} batch {batch}: t{batch_threads} differs from sequential"
                );
            }
        }
        flats.push(flat);
    }
    for flat in &flats[1..] {
        assert_eq!(flat, &flats[0], "flat form must not depend on n_threads");
    }
}

/// A hand-built forest whose single feature splits on more distinct
/// thresholds than a `u16` bin index can address: flattening still
/// succeeds and stays bit-identical to the pointer walk on both sides of
/// every probed threshold.
#[test]
fn flat_forest_with_oversized_threshold_table_matches_pointer() {
    use serde_json::Value;
    // A right-leaning chain: split i sends `x <= i + 0.5` to a leaf whose
    // class alternates with i, everything else on to split i + 1.
    let n_splits = usize::from(u16::MAX) + 500;
    let leaf = |i: usize| {
        let p = if i.is_multiple_of(2) {
            [1.0, 0.0]
        } else {
            [0.25, 0.75]
        };
        Value::Map(vec![(
            "Leaf".into(),
            Value::Map(vec![(
                "proba".into(),
                Value::Seq(p.iter().map(|&v| Value::F64(v)).collect()),
            )]),
        )])
    };
    let mut nodes = Vec::with_capacity(2 * n_splits + 1);
    for i in 0..n_splits {
        // Node 2i is split i; node 2i + 1 its left leaf; node 2i + 2 the
        // next split (or the final leaf).
        nodes.push(Value::Map(vec![(
            "Split".into(),
            Value::Map(vec![
                ("feature".into(), Value::U64(0)),
                ("threshold".into(), Value::F64(i as f64 + 0.5)),
                ("left".into(), Value::U64(2 * i as u64 + 1)),
                ("right".into(), Value::U64(2 * i as u64 + 2)),
            ]),
        )]));
        nodes.push(leaf(i));
    }
    nodes.push(leaf(n_splits));
    let tree = Value::Map(vec![
        ("nodes".into(), Value::Seq(nodes)),
        ("n_features".into(), Value::U64(1)),
        ("n_classes".into(), Value::U64(2)),
        ("gains".into(), Value::Seq(vec![Value::F64(1.0)])),
    ]);
    let forest = Value::Map(vec![
        ("trees".into(), Value::Seq(vec![tree])),
        ("n_classes".into(), Value::U64(2)),
        ("n_features".into(), Value::U64(1)),
    ]);
    let json = serde_json::to_string(&forest).unwrap();
    let forest: RandomForest = serde_json::from_str(&json).unwrap();
    let flat = FlatEnsemble::from_forest(&forest);
    assert_eq!(flat.n_split_nodes(), n_splits);
    assert!(
        flat.bin_row(&[n_splits as f64])[0] > u32::from(u16::MAX),
        "bins past u16 must be addressable"
    );
    let mut probes = vec![f64::NAN, f64::NEG_INFINITY, f64::INFINITY, -1.0];
    for i in [0, 1, 65_533, 65_534, 65_535, 65_536, n_splits - 1] {
        let t = i as f64 + 0.5;
        probes.extend([t - 0.25, t, t + 0.25]);
    }
    for x in probes {
        assert_bitwise_equal(
            &forest.predict_proba(&[x]),
            &flat.predict_proba(&[x]),
            &format!("oversized table x={x}"),
        );
    }
}

#[test]
fn flat_form_survives_pointer_model_serde_round_trip() {
    // Deserialising a pipeline re-flattens each deserialised pointer
    // model; the result must equal the flat form of the original.
    let data = dataset_with_nans();
    let lgbm = LightGbm::fit(
        &data,
        &LightGbmConfig::default().with_rounds(8).with_seed(3),
    )
    .unwrap();
    let json = serde_json::to_string(&lgbm).unwrap();
    let restored: LightGbm = serde_json::from_str(&json).unwrap();
    assert_eq!(
        FlatEnsemble::from_lightgbm(&lgbm),
        FlatEnsemble::from_lightgbm(&restored)
    );

    let forest = RandomForest::fit(
        &data,
        &RandomForestConfig::default().with_trees(12).with_seed(3),
    )
    .unwrap();
    let json = serde_json::to_string(&forest).unwrap();
    let restored: RandomForest = serde_json::from_str(&json).unwrap();
    assert_eq!(
        FlatEnsemble::from_forest(&forest),
        FlatEnsemble::from_forest(&restored)
    );
}

#[test]
fn flat_layout_is_contiguous_and_complete() {
    let data = dataset_with_nans();
    let model = LightGbm::fit(
        &data,
        &LightGbmConfig::default().with_rounds(10).with_seed(5),
    )
    .unwrap();
    let flat = FlatEnsemble::from_lightgbm(&model);
    assert_eq!(flat.n_trees(), 10 * 3, "one tree per (round, class)");
    assert_eq!(flat.n_features(), 4);
    // Every split node holds exactly one feature/threshold and two child
    // refs; every leaf is referenced by exactly one negative ref or root.
    assert_eq!(
        flat.n_leaves(),
        flat.n_split_nodes() + flat.n_trees(),
        "binary trees: leaves = splits + trees"
    );
}
