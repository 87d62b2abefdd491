//! Performance-layer benchmarks: the speedups claimed by the suite-wide
//! parallel/pre-binned training paths, measured against their sequential
//! twins. Every compared pair produces bit-identical models (enforced by
//! the determinism tests), so these benches measure *only* time.
//!
//! Run with `cargo bench -p cordial-bench --bench perf`.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use std::hint::black_box;
use std::time::{Duration, Instant};

use cordial::crossrow::block_samples;
use cordial::incremental::IncrementalBankFeatures;
use cordial::pipeline::{Cordial, MitigationPlan};
use cordial::{CompiledModel, CordialConfig, ModelKind, TrainedModel};
use cordial_bench::{bench_dataset, bench_split, BENCH_SEED};
use cordial_faultsim::CoarsePattern;
use cordial_mcelog::{BankErrorHistory, ErrorEvent, ErrorType, ObservedWindow, Timestamp};
use cordial_topology::{BankAddress, ColId, HbmGeometry, NodeId, RowId};
use cordial_trees::parallel::ordered_map;
use cordial_trees::{
    BinnedDataset, Classifier, Dataset, FlatEnsemble, Gbdt, GbdtConfig, LightGbm, LightGbmConfig,
};

/// A synthetic multi-class matrix big enough for the parallel paths to
/// engage (the per-feature histogram fan-out gates on rows × features).
fn synthetic_dataset(n_rows: usize, n_features: usize, n_classes: usize) -> Dataset {
    let mut data = Dataset::new(n_features, n_classes);
    let mut x = 0.0f64;
    for i in 0..n_rows {
        let row: Vec<f64> = (0..n_features)
            .map(|f| {
                x = (x * 1103515245.0 + 12345.0) % 1000.0;
                x / 100.0 + (i % n_classes) as f64 * (f % 5) as f64
            })
            .collect();
        data.push_row(&row, i % n_classes).expect("row");
    }
    data
}

fn bench_lgbm_fit(c: &mut Criterion) {
    let data = synthetic_dataset(2000, 27, 3);
    let binned = BinnedDataset::fit(&data, LightGbmConfig::default().max_bins);
    let mut group = c.benchmark_group("lgbm_fit");
    group.sample_size(10);
    for threads in [1, 4] {
        let config = LightGbmConfig::default()
            .with_seed(BENCH_SEED)
            .with_threads(threads);
        group.bench_function(format!("raw_{threads}_threads"), |b| {
            b.iter(|| black_box(LightGbm::fit(&data, &config).expect("fit")))
        });
        group.bench_function(format!("prebinned_{threads}_threads"), |b| {
            b.iter(|| black_box(LightGbm::fit_prebinned(&data, &binned, &config).expect("fit")))
        });
    }
    group.finish();
}

fn bench_cordial_fit(c: &mut Criterion) {
    let dataset = bench_dataset();
    let split = bench_split(&dataset);
    let mut group = c.benchmark_group("cordial_fit");
    group.sample_size(10);
    for threads in [1, 4] {
        let config = CordialConfig::default()
            .with_seed(BENCH_SEED)
            .with_threads(threads);
        group.bench_function(format!("{threads}_threads"), |b| {
            b.iter(|| black_box(Cordial::fit(&dataset, &split.train, &config).expect("fit")))
        });
    }
    group.finish();
}

fn bench_plan_batch(c: &mut Criterion) {
    let dataset = bench_dataset();
    let split = bench_split(&dataset);
    let by_bank = dataset.log.by_bank();
    let histories: Vec<_> = split.test.iter().map(|b| &by_bank[b]).collect();

    let mut group = c.benchmark_group("plan_batch");
    group.throughput(Throughput::Elements(histories.len() as u64));
    for threads in [1, 4] {
        let config = CordialConfig::default()
            .with_seed(BENCH_SEED)
            .with_threads(threads);
        let cordial = Cordial::fit(&dataset, &split.train, &config).expect("train");
        group.bench_function(format!("{threads}_threads"), |b| {
            b.iter(|| black_box(cordial.plan_batch(black_box(&histories))))
        });
    }
    group.finish();
}

/// Telemetry overhead on the hot path. Two claims are checked:
///
/// * criterion numbers for `plan_batch` with recording disabled (every
///   instrumentation site collapses to one relaxed atomic load) vs
///   enabled (counters, histograms and spans actually record);
/// * a hard pin that the disabled path is never more than 2% slower than
///   the enabled path — the disabled path does strictly less work, so any
///   violation beyond noise means the no-op gate is broken.
fn bench_obs_overhead(c: &mut Criterion) {
    let dataset = bench_dataset();
    let split = bench_split(&dataset);
    let by_bank = dataset.log.by_bank();
    let histories: Vec<_> = split.test.iter().map(|b| &by_bank[b]).collect();
    let config = CordialConfig::default()
        .with_seed(BENCH_SEED)
        .with_threads(4);
    let cordial = Cordial::fit(&dataset, &split.train, &config).expect("train");

    let mut group = c.benchmark_group("obs_overhead");
    group.throughput(Throughput::Elements(histories.len() as u64));
    cordial_obs::set_enabled(false);
    group.bench_function("plan_batch_disabled", |b| {
        b.iter(|| black_box(cordial.plan_batch(black_box(&histories))))
    });
    cordial_obs::set_enabled(true);
    group.bench_function("plan_batch_enabled", |b| {
        b.iter(|| black_box(cordial.plan_batch(black_box(&histories))))
    });
    cordial_obs::set_enabled(false);
    group.finish();

    // The hard pin, measured interleaved so clock drift and cache warmth
    // hit both modes equally, over enough pairs that the medians settle:
    // a flat-inference `plan_batch` call is short enough for worker-spawn
    // jitter to move a 15-pair median by more than the 2% bound.
    let time_once = |enabled: bool| {
        cordial_obs::set_enabled(enabled);
        let start = std::time::Instant::now();
        black_box(cordial.plan_batch(black_box(&histories)));
        start.elapsed().as_secs_f64()
    };
    for _ in 0..3 {
        time_once(false);
        time_once(true);
    }
    let mut disabled = Vec::new();
    let mut enabled = Vec::new();
    for _ in 0..61 {
        disabled.push(time_once(false));
        enabled.push(time_once(true));
    }
    cordial_obs::set_enabled(false);
    let median = |samples: &mut Vec<f64>| {
        samples.sort_by(f64::total_cmp);
        samples[samples.len() / 2]
    };
    let disabled = median(&mut disabled);
    let enabled = median(&mut enabled);
    println!(
        "obs no-op pin: disabled {disabled:.6}s vs enabled {enabled:.6}s ({:+.2}%)",
        (disabled / enabled - 1.0) * 100.0
    );
    assert!(
        disabled <= enabled * 1.02,
        "disabled instrumentation must be a no-op: {disabled:.6}s vs {enabled:.6}s enabled"
    );
}

/// Flight-recorder overhead pin (`BENCH_obs.json` at the workspace
/// root): a full monitor replay of the bench fleet log with the recorder
/// off vs on, metrics enabled in both modes so the pair isolates the
/// recorder's own cost (ring push per span/instant). Interleaved samples,
/// like the obs no-op pin, so clock drift and cache warmth hit both
/// modes equally. Schema and the ≤5% overhead ceiling are pinned by
/// `crates/bench/tests/bench_schema.rs`.
fn bench_recorder_overhead(c: &mut Criterion) {
    if !c.matches("obs_recorder") {
        return;
    }
    let sample_size = c.sample_size();
    let dataset = bench_dataset();
    let split = bench_split(&dataset);
    let config = CordialConfig::default()
        .with_seed(BENCH_SEED)
        .with_threads(4);
    let cordial = Cordial::fit(&dataset, &split.train, &config).expect("train");
    let budget = cordial_faultsim::SparingBudget::typical();
    let events = dataset.log.events();

    cordial_obs::set_enabled(true);
    let time_once = |recorder_on: bool| {
        cordial_obs::recorder::set_enabled(recorder_on);
        let mut monitor = cordial::monitor::CordialMonitor::new(cordial.clone(), budget);
        let start = Instant::now();
        black_box(monitor.ingest_all(events.iter().copied()));
        let elapsed = start.elapsed().as_secs_f64();
        if recorder_on {
            cordial_obs::recorder::clear();
        }
        elapsed
    };
    for _ in 0..3 {
        time_once(false);
        time_once(true);
    }
    let mut disabled = Vec::new();
    let mut enabled = Vec::new();
    for _ in 0..sample_size.max(5) {
        disabled.push(time_once(false));
        enabled.push(time_once(true));
    }
    cordial_obs::recorder::set_enabled(false);
    cordial_obs::set_enabled(false);
    let median = |samples: &mut Vec<f64>| {
        samples.sort_by(f64::total_cmp);
        samples[samples.len() / 2]
    };
    let disabled_ns = median(&mut disabled) * 1e9;
    let enabled_ns = median(&mut enabled) * 1e9;
    let overhead = enabled_ns / disabled_ns;
    println!(
        "obs_recorder/monitor_replay       off: {disabled_ns:>12.0} ns   on: {enabled_ns:>12.0} ns   overhead {:.2}%",
        (overhead - 1.0) * 100.0
    );
    write_obs_json(sample_size, disabled_ns, enabled_ns);
}

/// Serialises the recorder-overhead pin (`BENCH_obs.json` at the
/// workspace root). Schema pinned by `crates/bench/tests/bench_schema.rs`.
fn write_obs_json(sample_size: usize, disabled_ns: f64, enabled_ns: f64) {
    use serde_json::Value;
    let doc = Value::Map(vec![
        ("schema_version".into(), Value::U64(1)),
        (
            "source".into(),
            Value::Str("cargo bench -p cordial-bench --bench perf -- obs_recorder".into()),
        ),
        ("sample_size".into(), Value::U64(sample_size as u64)),
        (
            "benches".into(),
            Value::Map(vec![(
                "recorder_replay".into(),
                Value::Map(vec![
                    ("disabled".into(), Value::Str("recorder_off".into())),
                    ("enabled".into(), Value::Str("recorder_on".into())),
                    ("disabled_median_ns".into(), Value::F64(disabled_ns)),
                    ("enabled_median_ns".into(), Value::F64(enabled_ns)),
                    ("overhead".into(), Value::F64(enabled_ns / disabled_ns)),
                ]),
            )]),
        ),
    ]);
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_obs.json");
    let body = serde_json::to_string_pretty(&doc).expect("serialise") + "\n";
    if let Err(e) = std::fs::write(path, body) {
        println!("obs_recorder: could not write {path}: {e}");
    } else {
        println!("obs_recorder: wrote {path}");
    }
}

/// Median per-iteration time of `f` in nanoseconds, measured like the
/// vendored harness (calibrated repetition count, median of
/// `sample_size` samples) but returning the number so the hot-path
/// benches can compute speedup ratios and emit `BENCH_hotpath.json`.
fn measure_median_ns<F: FnMut()>(sample_size: usize, mut f: F) -> f64 {
    let start = Instant::now();
    f();
    let est = start.elapsed();
    let target = Duration::from_millis(10);
    let iters = if est.is_zero() {
        1_000
    } else {
        (target.as_nanos() / est.as_nanos().max(1)).clamp(1, 10_000) as u64
    };
    let mut samples: Vec<f64> = (0..sample_size.max(1))
        .map(|_| {
            let start = Instant::now();
            for _ in 0..iters {
                f();
            }
            start.elapsed().as_secs_f64() * 1e9 / iters as f64
        })
        .collect();
    samples.sort_by(f64::total_cmp);
    samples[samples.len() / 2]
}

/// One measured baseline/optimised pair of the hot-path suite.
struct HotpathPair {
    key: &'static str,
    baseline: &'static str,
    optimised: &'static str,
    baseline_median_ns: f64,
    optimised_median_ns: f64,
}

impl HotpathPair {
    fn speedup(&self) -> f64 {
        self.baseline_median_ns / self.optimised_median_ns
    }

    fn report(&self) {
        println!(
            "hotpath/{:<28} {}: {:>12.0} ns   {}: {:>12.0} ns   speedup {:.2}x",
            self.key,
            self.baseline,
            self.baseline_median_ns,
            self.optimised,
            self.optimised_median_ns,
            self.speedup()
        );
    }
}

/// A warm observation window for one bank: `n_ce` scattered correctable
/// errors followed by three far-apart UER rows, the last of which is the
/// trigger. Returned pre-sorted by arrival (= sort-key) order.
fn warm_window_events(bank: BankAddress, n_ce: usize, uer_rows: [u32; 3]) -> Vec<ErrorEvent> {
    let rows = HbmGeometry::hbm2e_8hi().rows;
    let mut x = 1u64;
    let mut events: Vec<ErrorEvent> = (0..n_ce)
        .map(|i| {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ErrorEvent::new(
                bank.cell(RowId((x >> 33) as u32 % rows), ColId(0)),
                Timestamp::from_millis(i as u64 + 1),
                ErrorType::Ce,
            )
        })
        .collect();
    for (i, row) in uer_rows.into_iter().enumerate() {
        events.push(ErrorEvent::new(
            bank.cell(RowId(row), ColId(0)),
            Timestamp::from_millis((n_ce + i + 1) as u64),
            ErrorType::Uer,
        ));
    }
    events
}

/// A copy of the monitor's fast-path plan, composed from the public stage
/// APIs: a sorted window plus its incremental raw features, classified and
/// (for aggregation patterns) block-predicted without a rescan. The
/// production tail (`Cordial::plan_prepared` behind the crate-private
/// window request) is not public, so the `ingest_plan` and `batch_plan`
/// pairs time this copy, not the monitor's own call. The copy leaves out
/// the production path's spans and counters; the hot-path suite runs with
/// recording disabled, where those sites are no-ops on both sides. Equal
/// to [`Cordial::plan`] on the same window; each pair pins that in setup.
fn plan_from_features(
    pipeline: &Cordial,
    bank: BankAddress,
    events: &[ErrorEvent],
    raw: &[f64],
) -> MitigationPlan {
    let pattern = pipeline.classifier().classify_from_features(raw);
    if !pattern.is_aggregation() {
        return MitigationPlan::BankSparing;
    }
    let window = ObservedWindow::from_sorted_events(bank, events);
    let mut rows = pipeline
        .crossrow()
        .predicted_rows_from_features(&window, pattern, raw);
    rows.sort();
    rows.dedup();
    MitigationPlan::RowSparing { pattern, rows }
}

/// Ingest→plan on a warm window: the monitor's incremental fast path
/// (clone warm state, absorb the trigger UER, assemble the feature vector,
/// plan on the borrowed sorted buffer) against the reference twin (clone +
/// re-sort the buffer into a history, rescan the features, plan). Both
/// produce the identical plan — pinned in setup — so the pair measures
/// only time.
fn hotpath_ingest_plan(pipeline: &Cordial, sample_size: usize) -> HotpathPair {
    let geom = HbmGeometry::hbm2e_8hi();
    let bank = BankAddress::default();

    // A bank-level pattern (scattered UERs) keeps the plan at
    // `BankSparing`: row sparing would add 16 O(n) block scans to both
    // twins and drown the feature delta being measured. The classifier is
    // data-dependent, so probe candidate layouts and pin the first that
    // the fitted model calls bank-level.
    let rows = geom.rows;
    let candidates = [
        [5, rows / 2, rows - 10],
        [100, rows / 3, 2 * rows / 3],
        [1, rows / 4, rows - 1],
    ];
    let events = candidates
        .into_iter()
        .map(|uer_rows| warm_window_events(bank, 6000, uer_rows))
        .find(|events| {
            let history = BankErrorHistory::new(bank, events.clone());
            pipeline.plan(&history) == MitigationPlan::BankSparing
        })
        .expect("no candidate window classifies as bank-level; adjust layouts");

    let (pre_events, trigger) = events.split_at(events.len() - 1);
    let trigger = trigger[0];
    let warm = IncrementalBankFeatures::replay(pre_events);
    let fast_path = || {
        let mut state = warm.clone();
        state.absorb(&trigger);
        let raw = state.vector(&geom).expect("sorted stream");
        plan_from_features(pipeline, bank, &events, &raw)
    };

    // Equivalence pin: the fast path's plan is identical to the reference.
    let reference_plan = pipeline.plan(&BankErrorHistory::new(bank, events.clone()));
    assert_eq!(fast_path(), reference_plan);
    assert_eq!(reference_plan, MitigationPlan::BankSparing);

    let baseline_median_ns = measure_median_ns(sample_size, || {
        let history = BankErrorHistory::new(bank, events.clone());
        black_box(pipeline.plan(&history));
    });
    let optimised_median_ns = measure_median_ns(sample_size, || {
        black_box(fast_path());
    });
    HotpathPair {
        key: "ingest_plan",
        baseline: "reference_rescan",
        optimised: "incremental_fast_path",
        baseline_median_ns,
        optimised_median_ns,
    }
}

/// Banks the batch-plan bench serves per iteration.
const BATCH_BANKS: usize = 12;

/// Batch serving across a fleet of warm banks, where every bank already
/// carries current incremental features, against the reference twin that
/// re-derives everything from raw histories. Baseline:
/// [`Cordial::plan_batch`] over [`BankErrorHistory`] values (observe-cut,
/// O(n) reference feature scan per bank). Optimised: the same plans built
/// from each bank's incremental feature vector by [`plan_from_features`]
/// on the borrowed sorted window, fanned out over the pipeline's worker
/// threads.
/// Identical plan vectors — pinned in setup — so the pair measures only
/// time.
fn hotpath_batch_plan(pipeline: &Cordial, sample_size: usize) -> HotpathPair {
    let geom = HbmGeometry::hbm2e_8hi();
    let rows = geom.rows;
    let banks: Vec<BankAddress> = (0..BATCH_BANKS)
        .map(|i| BankAddress {
            node: NodeId(i as u32),
            ..BankAddress::default()
        })
        .collect();
    // Vary the CE count and UER rows per bank so the requests are not
    // byte-identical; the twins are pinned equal regardless of which plan
    // each bank classifies to.
    let per_bank: Vec<Vec<ErrorEvent>> = banks
        .iter()
        .enumerate()
        .map(|(i, &bank)| {
            let i = i as u32;
            warm_window_events(
                bank,
                5000 + 200 * i as usize,
                [5 + i, rows / 2 + 3 * i, rows - 10 - i],
            )
        })
        .collect();
    let histories: Vec<BankErrorHistory> = banks
        .iter()
        .zip(&per_bank)
        .map(|(&bank, events)| BankErrorHistory::new(bank, events.clone()))
        .collect();
    let history_refs: Vec<&BankErrorHistory> = histories.iter().collect();

    // The monitor's steady state: warm per-bank incremental features.
    let features: Vec<Vec<f64>> = per_bank
        .iter()
        .map(|events| {
            IncrementalBankFeatures::replay(events)
                .vector(&geom)
                .expect("sorted stream")
        })
        .collect();
    let windows: Vec<(BankAddress, &[ErrorEvent], &[f64])> = banks
        .iter()
        .zip(&per_bank)
        .zip(&features)
        .map(|((&bank, events), features)| (bank, events.as_slice(), features.as_slice()))
        .collect();
    let plan_windows = || -> Vec<MitigationPlan> {
        ordered_map(
            &windows,
            pipeline.config().n_threads,
            |&(bank, events, raw)| plan_from_features(pipeline, bank, events, raw),
        )
    };

    // Equivalence pin: identical plan vector from both twins.
    assert_eq!(plan_windows(), pipeline.plan_batch(&history_refs));

    let baseline_median_ns = measure_median_ns(sample_size, || {
        black_box(pipeline.plan_batch(black_box(&history_refs)));
    });
    let optimised_median_ns = measure_median_ns(sample_size, || {
        black_box(plan_windows());
    });
    HotpathPair {
        key: "batch_plan",
        baseline: "reference_rescan",
        optimised: "incremental_flat_batch",
        baseline_median_ns,
        optimised_median_ns,
    }
}

/// Planned banks whose block rows the RF inference pair replays.
const RF_PLANS: usize = 64;

/// Random-forest block inference as a plan runs it: the 16 block-feature
/// rows of each planned bank of the bench fleet, scored by the default
/// pipeline's block model for the bank's classified pattern. Baseline: the
/// pointer forest, row by row. Optimised: the flat form, one batch per
/// plan. Bit-identical probabilities — pinned in setup — so the pair
/// measures only time.
fn hotpath_rf_inference(sample_size: usize) -> HotpathPair {
    let dataset = bench_dataset();
    let split = bench_split(&dataset);
    let config = CordialConfig::default()
        .with_seed(BENCH_SEED)
        .with_threads(4);
    let pipeline = Cordial::fit(&dataset, &split.train, &config).expect("train");
    let (single, double) = pipeline.crossrow().models();
    let spec = pipeline.crossrow().spec();
    let geom = HbmGeometry::hbm2e_8hi();
    let by_bank = dataset.log.by_bank();
    // (block model, the plan's block rows) for every row-sparing plan.
    let plans: Vec<(&CompiledModel, Vec<Vec<f64>>)> = by_bank
        .values()
        .filter_map(|history| {
            let MitigationPlan::RowSparing { pattern, .. } = pipeline.plan(history) else {
                return None;
            };
            let (window, future) = history.observe_until_k_uers(config.k_uers)?;
            let model = match pattern {
                CoarsePattern::DoubleRow => double,
                _ => single,
            };
            let rows = block_samples(&window, future, &spec, &geom)
                .into_iter()
                .map(|(features, _)| features)
                .collect();
            Some((model, rows))
        })
        .take(RF_PLANS)
        .collect();
    assert!(!plans.is_empty(), "the bench fleet must plan row sparing");
    let batches: Vec<(&CompiledModel, Vec<&[f64]>)> = plans
        .iter()
        .map(|(model, rows)| (*model, rows.iter().map(Vec::as_slice).collect()))
        .collect();
    for (model, rows) in &batches {
        assert!(matches!(model.trained(), TrainedModel::Forest(_)));
        for (row, flat) in rows.iter().zip(model.flat().predict_proba_batch(rows)) {
            let pointer = model.trained().predict_proba(row);
            assert!(
                pointer
                    .iter()
                    .zip(&flat)
                    .all(|(a, b)| a.to_bits() == b.to_bits()),
                "flat form must be bit-identical before timing"
            );
        }
    }
    let baseline_median_ns = measure_median_ns(sample_size, || {
        for (model, rows) in &batches {
            for row in rows {
                black_box(model.trained().predict_proba(black_box(row)));
            }
        }
    });
    let optimised_median_ns = measure_median_ns(sample_size, || {
        for (model, rows) in &batches {
            black_box(model.flat().predict_proba_batch(black_box(rows)));
        }
    });
    HotpathPair {
        key: "rf_inference",
        baseline: "pointer_per_row",
        optimised: "flat_plan_batch",
        baseline_median_ns,
        optimised_median_ns,
    }
}

/// Rows the inference benches sweep per iteration.
const INFER_BATCH: usize = 256;

/// Batch `predict_proba` over a fitted boosted ensemble: per-row
/// pointer-chasing node traversal vs the flat form's batch kernel (bin
/// every row once into a shared buffer, then each tree walks every row).
/// Bit-identical probabilities — pinned in setup — so the pair measures
/// only time.
fn hotpath_inference(
    key: &'static str,
    pointer: &dyn Classifier,
    flat: &FlatEnsemble,
    data: &Dataset,
    sample_size: usize,
) -> HotpathPair {
    let rows: Vec<&[f64]> = (0..INFER_BATCH.min(data.n_rows()))
        .map(|i| data.row(i))
        .collect();
    for (row, f) in rows.iter().zip(flat.predict_proba_batch(&rows)) {
        let p = pointer.predict_proba(row);
        assert!(
            p.iter().zip(&f).all(|(a, b)| a.to_bits() == b.to_bits()),
            "flat twin must be bit-identical before timing"
        );
    }
    let baseline_median_ns = measure_median_ns(sample_size, || {
        for row in &rows {
            black_box(pointer.predict_proba(black_box(row)));
        }
    });
    let optimised_median_ns = measure_median_ns(sample_size, || {
        black_box(flat.predict_proba_batch(black_box(&rows)));
    });
    HotpathPair {
        key,
        baseline: "pointer_per_row",
        optimised: "flat_soa_batch",
        baseline_median_ns,
        optimised_median_ns,
    }
}

/// The committed machine-readable trajectory artefact
/// (`BENCH_hotpath.json` at the workspace root): medians and speedup
/// ratios for the ingest→plan, batch-plan and flat-inference hot paths.
/// Schema pinned by `crates/bench/tests/bench_schema.rs`.
fn write_hotpath_json(sample_size: usize, pairs: &[HotpathPair]) {
    use serde_json::Value;
    let benches: Vec<(String, Value)> = pairs
        .iter()
        .map(|p| {
            (
                p.key.to_string(),
                Value::Map(vec![
                    ("baseline".into(), Value::Str(p.baseline.into())),
                    ("optimised".into(), Value::Str(p.optimised.into())),
                    (
                        "baseline_median_ns".into(),
                        Value::F64(p.baseline_median_ns),
                    ),
                    (
                        "optimised_median_ns".into(),
                        Value::F64(p.optimised_median_ns),
                    ),
                    ("speedup".into(), Value::F64(p.speedup())),
                ]),
            )
        })
        .collect();
    let doc = Value::Map(vec![
        ("schema_version".into(), Value::U64(1)),
        (
            "source".into(),
            Value::Str("cargo bench -p cordial-bench --bench perf -- hotpath".into()),
        ),
        ("sample_size".into(), Value::U64(sample_size as u64)),
        ("benches".into(), Value::Map(benches)),
    ]);
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_hotpath.json");
    let body = serde_json::to_string_pretty(&doc).expect("serialise") + "\n";
    if let Err(e) = std::fs::write(path, body) {
        println!("hotpath: could not write {path}: {e}");
    } else {
        println!("hotpath: wrote {path}");
    }
}

/// The hot-path suite: measured outside `Bencher::iter` because the JSON
/// artefact needs the raw medians, but honouring the harness's filter and
/// `--sample-size` configuration. The artefact is only (re)written when
/// every pair ran, so a narrower filter cannot commit a partial file.
fn bench_hotpath(c: &mut Criterion) {
    if !c.matches("hotpath") {
        return;
    }
    // Neither twin of a pair records telemetry: the plan pairs' baselines
    // run the instrumented production path, their optimised twins a copy
    // without instrumentation (see `plan_from_features`).
    cordial_obs::set_enabled(false);
    let sample_size = c.sample_size();
    let dataset = bench_dataset();
    let split = bench_split(&dataset);
    let config = CordialConfig::with_model(ModelKind::lightgbm())
        .with_seed(BENCH_SEED)
        .with_threads(4);
    let pipeline = Cordial::fit(&dataset, &split.train, &config).expect("train");
    let mut pairs = vec![
        hotpath_ingest_plan(&pipeline, sample_size),
        hotpath_batch_plan(&pipeline, sample_size),
        hotpath_rf_inference(sample_size),
    ];

    let data = synthetic_dataset(2000, 27, 3);
    let lgbm = LightGbm::fit(
        &data,
        &LightGbmConfig::default()
            .with_rounds(60)
            .with_seed(BENCH_SEED),
    )
    .expect("fit");
    let lgbm_flat = FlatEnsemble::from_lightgbm(&lgbm);
    pairs.push(hotpath_inference(
        "lgbm_inference",
        &lgbm,
        &lgbm_flat,
        &data,
        sample_size,
    ));

    let gbdt = Gbdt::fit(
        &data,
        &GbdtConfig::default().with_rounds(40).with_seed(BENCH_SEED),
    )
    .expect("fit");
    let gbdt_flat = FlatEnsemble::from_gbdt(&gbdt);
    pairs.push(hotpath_inference(
        "gbdt_inference",
        &gbdt,
        &gbdt_flat,
        &data,
        sample_size,
    ));

    for pair in &pairs {
        pair.report();
    }
    write_hotpath_json(sample_size, &pairs);
}

criterion_group!(
    perf,
    bench_lgbm_fit,
    bench_cordial_fit,
    bench_plan_batch,
    bench_obs_overhead,
    bench_recorder_overhead,
    bench_hotpath
);
criterion_main!(perf);
