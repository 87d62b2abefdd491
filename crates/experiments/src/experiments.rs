//! The experiment implementations: one function per paper artifact.

use std::cell::OnceCell;
use std::path::PathBuf;

use serde::Serialize;

use cordial::classifier::{pattern_confusion, PatternClassifier};
use cordial::empirical::{
    self, render_pattern_distribution, render_sudden_ratio_table, render_summary_table,
};
use cordial::eval::{
    evaluate_cordial, evaluate_in_row_ceiling, evaluate_neighbor_rows, PredictionEval,
};
use cordial::locality::{chi_square_sweep, peak_threshold, LocalityPoint, PAPER_THRESHOLDS};
use cordial::split::{split_banks, BankSplit};
use cordial::{CordialConfig, ModelKind};
use cordial_faultsim::{
    generate_fleet_dataset, CoarsePattern, FleetDataset, FleetDatasetConfig, GrowthDirection,
    LocalityKernel, PatternKind, PatternLayout, PlanConfig,
};
use cordial_topology::HbmGeometry;
use cordial_trees::metrics::PrfScores;

use crate::report::{write_csv, write_json};

/// Shared experiment context: dataset scale, seed, output directory, and a
/// lazily generated dataset reused across experiments.
pub struct Context {
    config: FleetDatasetConfig,
    seed: u64,
    out_dir: PathBuf,
    scale_name: String,
    dataset: OnceCell<FleetDataset>,
    split: OnceCell<BankSplit>,
}

impl Context {
    /// Builds a context for the named scale.
    pub fn new(scale: &str, seed: u64, out_dir: &str) -> Result<Self, String> {
        let config = match scale {
            "small" => FleetDatasetConfig::small(),
            "medium" => FleetDatasetConfig::medium(),
            "paper" => FleetDatasetConfig::paper_scale(),
            other => return Err(format!("unknown scale `{other}` (small|medium|paper)")),
        };
        Ok(Self {
            config,
            seed,
            out_dir: PathBuf::from(out_dir),
            scale_name: scale.to_string(),
            dataset: OnceCell::new(),
            split: OnceCell::new(),
        })
    }

    fn dataset(&self) -> &FleetDataset {
        self.dataset.get_or_init(|| {
            cordial_obs::info!(
                "[setup] generating synthetic fleet (scale={}, seed={}, {} UER banks)...",
                self.scale_name,
                self.seed,
                self.config.n_uer_banks
            );
            generate_fleet_dataset(&self.config, self.seed)
        })
    }

    fn split(&self) -> &BankSplit {
        self.split
            .get_or_init(|| split_banks(self.dataset(), 0.7, self.seed))
    }

    fn geometry(&self) -> HbmGeometry {
        self.config.fleet.geometry
    }

    /// The directory experiment artifacts are written to.
    pub fn out_dir(&self) -> &std::path::Path {
        &self.out_dir
    }
}

// ---------------------------------------------------------------------------
// Table I
// ---------------------------------------------------------------------------

/// Paper Table I reference values: (level, sudden, non-sudden, ratio %).
const PAPER_TABLE1: [(&str, u32, u32, f64); 7] = [
    ("NPU", 243, 175, 41.86),
    ("HBM", 246, 175, 41.56),
    ("SID", 260, 180, 40.91),
    ("PS-CH", 311, 185, 37.29),
    ("BG", 434, 252, 36.73),
    ("Bank", 760, 314, 29.23),
    ("Row", 4980, 229, 4.39),
];

/// Runs Table I: in-row predictable ratio of UERs per micro-level.
pub fn run_table1(ctx: &Context) -> Result<(), String> {
    let rows = empirical::sudden_ratio_table(&ctx.dataset().log);
    println!("== Table I: In-row Predictable Ratio of UERs ==");
    println!("{}", render_sudden_ratio_table(&rows));
    println!("paper reference (predictable ratio): NPU 41.86% ... Bank 29.23% ... Row 4.39%");
    println!(
        "measured row-level predictable ratio: {:.2}%",
        rows.last().map_or(0.0, |r| r.predictable_ratio * 100.0)
    );
    println!(
        "UER burst ratio (follow-up UER within 1h of previous event): {:.1}%\n",
        empirical::uer_burst_ratio(&ctx.dataset().log) * 100.0
    );

    #[derive(Serialize)]
    struct Record<'a> {
        measured: &'a [cordial::empirical::SuddenRatioRow],
        paper_predictable_ratio_percent: Vec<(&'static str, f64)>,
    }
    let record = Record {
        measured: &rows,
        paper_predictable_ratio_percent: PAPER_TABLE1.iter().map(|r| (r.0, r.3)).collect(),
    };
    let path = write_json(&ctx.out_dir, "table1_sudden_ratio", &record)?;
    println!("[written] {}", path.display());
    Ok(())
}

// ---------------------------------------------------------------------------
// Table II
// ---------------------------------------------------------------------------

/// Paper Table II reference values: (level, with CE, with UEO, with UER, total).
const PAPER_TABLE2: [(&str, u32, u32, u32, u32); 7] = [
    ("NPU", 5497, 327, 418, 5703),
    ("HBM", 5944, 330, 421, 6155),
    ("SID", 6049, 341, 440, 6277),
    ("PS-CH", 6856, 360, 496, 7136),
    ("BG", 7571, 423, 686, 7970),
    ("Bank", 8557, 537, 1074, 9318),
    ("Row", 51518, 4888, 5209, 60693),
];

/// Runs Table II: the per-level dataset summary.
pub fn run_table2(ctx: &Context) -> Result<(), String> {
    let rows = empirical::dataset_summary(&ctx.dataset().log);
    println!("== Table II: Summary of the Synthetic Fleet Dataset ==");
    println!("{}", render_summary_table(&rows));
    println!("paper reference totals: NPU 5703, Bank 9318, Row 60693 (proprietary fleet)\n");

    #[derive(Serialize)]
    struct Record<'a> {
        measured: &'a [cordial::empirical::SummaryRow],
        paper: Vec<(&'static str, u32, u32, u32, u32)>,
    }
    let record = Record {
        measured: &rows,
        paper: PAPER_TABLE2.to_vec(),
    };
    let path = write_json(&ctx.out_dir, "table2_dataset_summary", &record)?;
    println!("[written] {}", path.display());
    Ok(())
}

// ---------------------------------------------------------------------------
// Table III
// ---------------------------------------------------------------------------

/// `(model name, [double-row, single-row, scattered, weighted] × (P, R, F1))`.
type PaperTable3Entry = (&'static str, [(f64, f64, f64); 4]);

/// Paper Table III reference: per model, per class + weighted (P, R, F1).
const PAPER_TABLE3: [PaperTable3Entry; 3] = [
    (
        "LightGBM",
        [
            (0.600, 0.474, 0.529),
            (0.921, 0.972, 0.946),
            (0.672, 0.629, 0.650),
            (0.833, 0.844, 0.837),
        ],
    ),
    (
        "XGBoost",
        [
            (0.611, 0.289, 0.393),
            (0.881, 1.000, 0.937),
            (0.698, 0.597, 0.643),
            (0.803, 0.835, 0.813),
        ],
    ),
    (
        "Random Forest",
        [
            (0.633, 0.500, 0.559),
            (0.921, 0.981, 0.950),
            (0.696, 0.629, 0.661),
            (0.842, 0.859, 0.854),
        ],
    ),
];

#[derive(Serialize)]
struct Table3Row {
    model: &'static str,
    class: String,
    precision: f64,
    recall: f64,
    f1: f64,
    paper_precision: f64,
    paper_recall: f64,
    paper_f1: f64,
}

/// Runs Table III: failure-pattern classification with all three families.
pub fn run_table3(ctx: &Context) -> Result<(), String> {
    let dataset = ctx.dataset();
    let split = ctx.split();
    println!("== Table III: Performance of Failure Pattern Classification ==");
    println!(
        "{:<14} {:<26} {:>9} {:>7} {:>8}   (paper P/R/F1)",
        "Model", "Pattern", "Precision", "Recall", "F1"
    );

    let mut records: Vec<Table3Row> = Vec::new();
    for (model, paper_rows) in [
        (ModelKind::lightgbm(), &PAPER_TABLE3[0]),
        (ModelKind::xgboost(), &PAPER_TABLE3[1]),
        (ModelKind::random_forest(), &PAPER_TABLE3[2]),
    ] {
        let config = CordialConfig::with_model(model).with_seed(ctx.seed);
        let classifier = PatternClassifier::fit(dataset, &split.train, &config)
            .map_err(|e| format!("training {model}: {e}"))?;
        let pairs = classifier.evaluate(dataset, &split.test);
        let matrix = pattern_confusion(&pairs);

        let mut lines: Vec<(String, PrfScores, (f64, f64, f64))> = Vec::new();
        for class in CoarsePattern::ALL {
            lines.push((
                class.name().to_string(),
                matrix.class_scores(class.class_index()),
                paper_rows.1[class.class_index()],
            ));
        }
        lines.push((
            "Weighted Average".to_string(),
            matrix.weighted_scores(),
            paper_rows.1[3],
        ));

        for (class, scores, paper) in &lines {
            println!(
                "{:<14} {:<26} {:>9.3} {:>7.3} {:>8.3}   ({:.3}/{:.3}/{:.3})",
                model.name(),
                class,
                scores.precision,
                scores.recall,
                scores.f1,
                paper.0,
                paper.1,
                paper.2
            );
            records.push(Table3Row {
                model: model.name(),
                class: class.clone(),
                precision: scores.precision,
                recall: scores.recall,
                f1: scores.f1,
                paper_precision: paper.0,
                paper_recall: paper.1,
                paper_f1: paper.2,
            });
        }
        println!();
    }

    let path = write_json(&ctx.out_dir, "table3_pattern_classification", &records)?;
    println!("[written] {}", path.display());
    Ok(())
}

// ---------------------------------------------------------------------------
// Table IV
// ---------------------------------------------------------------------------

/// Paper Table IV reference: (method, P, R, F1, ICR %).
const PAPER_TABLE4: [(&str, f64, f64, f64, f64); 4] = [
    ("Neighbor Rows", 0.322, 0.393, 0.347, 13.31),
    ("Cordial-LGBM", 0.642, 0.504, 0.563, 18.60),
    ("Cordial-XGB", 0.732, 0.509, 0.591, 18.87),
    ("Cordial-RF", 0.806, 0.550, 0.662, 19.58),
];

#[derive(Serialize)]
struct Table4Row {
    method: String,
    precision: f64,
    recall: f64,
    f1: f64,
    icr_percent: f64,
    rows_isolated: usize,
    banks_spared: usize,
    paper_f1: f64,
    paper_icr_percent: f64,
}

fn table4_row(
    method: &str,
    eval: &PredictionEval,
    paper: &(&str, f64, f64, f64, f64),
) -> Table4Row {
    Table4Row {
        method: method.to_string(),
        precision: eval.block_scores.precision,
        recall: eval.block_scores.recall,
        f1: eval.block_scores.f1,
        icr_percent: eval.icr * 100.0,
        rows_isolated: eval.rows_isolated,
        banks_spared: eval.banks_spared,
        paper_f1: paper.3,
        paper_icr_percent: paper.4,
    }
}

/// Runs Table IV: cross-row prediction vs. the neighbor-rows baseline.
pub fn run_table4(ctx: &Context) -> Result<(), String> {
    let dataset = ctx.dataset();
    let split = ctx.split();
    let base_config = CordialConfig::default().with_seed(ctx.seed);

    println!("== Table IV: Performance of Failure Prediction Methods ==");
    println!(
        "{:<15} {:>9} {:>7} {:>8} {:>8}   (paper F1 / ICR)",
        "Method", "Precision", "Recall", "F1", "ICR"
    );

    let mut records = Vec::new();

    let baseline = evaluate_neighbor_rows(dataset, &split.test, &base_config);
    print_t4("Neighbor Rows", &baseline, &PAPER_TABLE4[0]);
    records.push(table4_row("Neighbor Rows", &baseline, &PAPER_TABLE4[0]));

    for (model, paper) in [
        (ModelKind::lightgbm(), &PAPER_TABLE4[1]),
        (ModelKind::xgboost(), &PAPER_TABLE4[2]),
        (ModelKind::random_forest(), &PAPER_TABLE4[3]),
    ] {
        let config = CordialConfig::with_model(model).with_seed(ctx.seed);
        let (_, eval) = evaluate_cordial(dataset, &split.train, &split.test, &config)
            .map_err(|e| format!("training Cordial-{}: {e}", model.short_name()))?;
        let name = format!("Cordial-{}", model.short_name());
        print_t4(&name, &eval, paper);
        records.push(table4_row(&name, &eval, paper));
    }

    let in_row = evaluate_in_row_ceiling(dataset, &split.test, &base_config);
    println!(
        "\nin-row prediction ceiling (perfect history-based method): ICR {:.2}%  (paper: 4.39%)",
        in_row * 100.0
    );
    let hierarchical =
        cordial::hierarchical::HierarchicalInRowPredictor::fit(dataset, &split.train, &base_config)
            .map_err(|e| format!("training hierarchical in-row baseline: {e}"))?;
    println!(
        "Calchas-style in-row ML (related work, §I/§VI):          ICR {:.2}%  (capped by the ceiling)",
        hierarchical.evaluate_icr(dataset, &split.test) * 100.0
    );

    let path = write_json(&ctx.out_dir, "table4_prediction_methods", &records)?;
    println!("[written] {}", path.display());
    Ok(())
}

fn print_t4(name: &str, eval: &PredictionEval, paper: &(&str, f64, f64, f64, f64)) {
    println!(
        "{:<15} {:>9.3} {:>7.3} {:>8.3} {:>7.2}%   ({:.3} / {:.2}%)",
        name,
        eval.block_scores.precision,
        eval.block_scores.recall,
        eval.block_scores.f1,
        eval.icr * 100.0,
        paper.3,
        paper.4
    );
}

// ---------------------------------------------------------------------------
// Figure 3
// ---------------------------------------------------------------------------

/// Runs Figure 3: example per-pattern bank layouts (3a) and the fleet
/// pattern distribution (3b).
pub fn run_fig3(ctx: &Context) -> Result<(), String> {
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    let geom = ctx.geometry();
    let kernel = LocalityKernel::paper();
    let plan_config = PlanConfig::paper();
    let mut rng = StdRng::seed_from_u64(ctx.seed);

    // --- 3(a): one example bank per pattern --------------------------------
    println!("== Figure 3(a): Example Bank-level Failure Patterns ==");
    let mut csv_rows = Vec::new();
    for kind in PatternKind::ALL {
        let layout = PatternLayout::sample(kind, &geom, &mut rng);
        let mut cells = Vec::new();
        let n = plan_config.uer_event_count(kind, &mut rng).max(12);
        let mut prev = None;
        for _ in 0..n {
            let (row, col) =
                layout.sample_next_cell(prev, &kernel, GrowthDirection::Up, &geom, &mut rng);
            prev = Some(row);
            cells.push((row, col));
            csv_rows.push(format!("{},{},{}", kind.name(), row.index(), col.index()));
        }
        println!("\n{kind} — {} error addresses:", cells.len());
        println!("{}", ascii_bank_map(&cells, &geom));
    }
    let csv_path = write_csv(
        &ctx.out_dir,
        "fig3a_pattern_examples",
        "pattern,row,col",
        &csv_rows,
    )?;

    // --- 3(b): distribution -------------------------------------------------
    let distribution = empirical::pattern_distribution(ctx.dataset());
    println!("== Figure 3(b): Bank Failure Pattern Distribution ==");
    println!("{}", render_pattern_distribution(&distribution));
    println!(
        "aggregation fraction (paper: ~0.78-0.80): {:.3}\n",
        empirical::aggregation_fraction(ctx.dataset())
    );

    #[derive(Serialize)]
    struct Record {
        distribution: Vec<(String, f64, f64)>,
        aggregation_fraction: f64,
    }
    let record = Record {
        distribution: distribution
            .iter()
            .map(|(k, f)| (k.name().to_string(), *f, k.paper_fraction()))
            .collect(),
        aggregation_fraction: empirical::aggregation_fraction(ctx.dataset()),
    };
    let json_path = write_json(&ctx.out_dir, "fig3b_pattern_distribution", &record)?;
    println!("[written] {}", csv_path.display());
    println!("[written] {}", json_path.display());
    Ok(())
}

/// Renders a coarse ASCII scatter of error cells in a bank (rows downward,
/// columns across), mirroring the paper's Fig. 3(a) panels.
fn ascii_bank_map(
    cells: &[(cordial_topology::RowId, cordial_topology::ColId)],
    geom: &HbmGeometry,
) -> String {
    const HEIGHT: usize = 16;
    const WIDTH: usize = 32;
    let mut grid = vec![vec!['.'; WIDTH]; HEIGHT];
    for (row, col) in cells {
        let r = (row.index() as usize * HEIGHT / geom.rows as usize).min(HEIGHT - 1);
        let c = (col.index() as usize * WIDTH / geom.cols as usize).min(WIDTH - 1);
        grid[r][c] = '*';
    }
    let mut out = String::new();
    out.push_str(&format!(
        "    rows 0..{} (down), cols 0..{} (across)\n",
        geom.rows, geom.cols
    ));
    for line in grid {
        out.push_str("    ");
        out.extend(line);
        out.push('\n');
    }
    out
}

// ---------------------------------------------------------------------------
// Figure 4
// ---------------------------------------------------------------------------

/// Runs Figure 4: the chi-square locality sweep over row-distance thresholds.
pub fn run_fig4(ctx: &Context) -> Result<(), String> {
    let points = chi_square_sweep(&ctx.dataset().log, &ctx.geometry(), &PAPER_THRESHOLDS);
    let peak = peak_threshold(&points);

    println!("== Figure 4: Statistical Significance of Distance Thresholds ==");
    println!(
        "{:>10} {:>16} {:>12} {:>14}",
        "threshold", "chi-square", "obs within", "exp within"
    );
    let max_chi = points.iter().map(|p| p.chi_square).fold(1.0, f64::max);
    for p in &points {
        let bar_len = ((p.chi_square / max_chi) * 40.0).round() as usize;
        println!(
            "{:>10} {:>16.1} {:>12} {:>14.1}  {}",
            p.threshold,
            p.chi_square,
            p.observed_within,
            p.expected_within,
            "#".repeat(bar_len)
        );
    }
    println!("\npeak threshold: {peak:?}  (paper: strongest significance at 128)\n");

    let csv_rows: Vec<String> = points
        .iter()
        .map(|p| {
            format!(
                "{},{},{},{}",
                p.threshold, p.chi_square, p.observed_within, p.expected_within
            )
        })
        .collect();
    let csv_path = write_csv(
        &ctx.out_dir,
        "fig4_locality_sweep",
        "threshold,chi_square,observed_within,expected_within",
        &csv_rows,
    )?;

    #[derive(Serialize)]
    struct Record<'a> {
        points: &'a [LocalityPoint],
        peak_threshold: Option<u32>,
        paper_peak_threshold: u32,
    }
    let json_path = write_json(
        &ctx.out_dir,
        "fig4_locality_sweep",
        &Record {
            points: &points,
            peak_threshold: peak,
            paper_peak_threshold: 128,
        },
    )?;
    println!("[written] {}", csv_path.display());
    println!("[written] {}", json_path.display());
    Ok(())
}

// ---------------------------------------------------------------------------
// Ablations
// ---------------------------------------------------------------------------

#[derive(Serialize)]
struct AblationRow {
    dimension: &'static str,
    setting: String,
    f1: f64,
    icr_percent: f64,
    rows_isolated: usize,
}

/// Runs the design-choice ablations of DESIGN.md §3: the number of UERs
/// observed before classification (§IV-C's trade-off), the prediction-window
/// geometry (§IV-D's 16×8 blocks), and the calibrated-vs-fixed block
/// threshold.
pub fn run_ablations(ctx: &Context) -> Result<(), String> {
    use cordial::crossrow::BlockSpec;

    let dataset = ctx.dataset();
    let split = ctx.split();
    let mut records: Vec<AblationRow> = Vec::new();

    let eval_with = |config: &CordialConfig| -> Result<(f64, f64, usize), String> {
        let (_, eval) = evaluate_cordial(dataset, &split.train, &split.test, config)
            .map_err(|e| format!("ablation training failed: {e}"))?;
        Ok((eval.block_scores.f1, eval.icr * 100.0, eval.rows_isolated))
    };

    println!("== Ablations: Cordial design choices (Random Forest) ==");
    println!(
        "{:<22} {:<18} {:>8} {:>8} {:>10}",
        "Dimension", "Setting", "F1", "ICR", "rows/plan"
    );

    // (1) Number of UERs observed before classification.
    for k in [1usize, 2, 3, 5] {
        let config = CordialConfig {
            k_uers: k,
            ..CordialConfig::default().with_seed(ctx.seed)
        };
        let (f1, icr, rows) = eval_with(&config)?;
        let marker = if k == 3 { "  <- paper" } else { "" };
        println!(
            "{:<22} {:<18} {:>8.3} {:>7.2}% {:>10}{}",
            "k UERs observed",
            format!("k={k}"),
            f1,
            icr,
            rows,
            marker
        );
        records.push(AblationRow {
            dimension: "k_uers",
            setting: format!("{k}"),
            f1,
            icr_percent: icr,
            rows_isolated: rows,
        });
    }

    // (2) Prediction-window geometry.
    for (n_blocks, rows_per_block) in [(8usize, 8u32), (16, 8), (16, 16), (32, 4), (32, 8)] {
        let block = BlockSpec {
            n_blocks,
            rows_per_block,
        };
        let config = CordialConfig {
            block,
            ..CordialConfig::default().with_seed(ctx.seed)
        };
        let (f1, icr, rows) = eval_with(&config)?;
        let marker = if (n_blocks, rows_per_block) == (16, 8) {
            "  <- paper"
        } else {
            ""
        };
        println!(
            "{:<22} {:<18} {:>8.3} {:>7.2}% {:>10}{}",
            "window geometry",
            format!("{n_blocks}x{rows_per_block} (±{})", block.radius()),
            f1,
            icr,
            rows,
            marker
        );
        records.push(AblationRow {
            dimension: "block_spec",
            setting: format!("{n_blocks}x{rows_per_block}"),
            f1,
            icr_percent: icr,
            rows_isolated: rows,
        });
    }

    // (3) Feature-group ablation (§IV-B groups).
    {
        use cordial::features::{FeatureGroup, FeatureMask};
        let masks = [
            FeatureMask::ALL,
            FeatureMask::only(FeatureGroup::Spatial),
            FeatureMask::only(FeatureGroup::Temporal),
            FeatureMask::only(FeatureGroup::Count),
            FeatureMask::without(FeatureGroup::Spatial),
        ];
        for mask in masks {
            let config = CordialConfig {
                feature_mask: mask,
                ..CordialConfig::default().with_seed(ctx.seed)
            };
            let (f1, icr, rows) = eval_with(&config)?;
            let marker = if mask == FeatureMask::ALL {
                "  <- paper"
            } else {
                ""
            };
            println!(
                "{:<22} {:<18} {:>8.3} {:>7.2}% {:>10}{}",
                "feature groups",
                mask.describe(),
                f1,
                icr,
                rows,
                marker
            );
            records.push(AblationRow {
                dimension: "feature_mask",
                setting: mask.describe(),
                f1,
                icr_percent: icr,
                rows_isolated: rows,
            });
        }
    }

    // (3b) Feature groups for classification alone (Table III's task).
    {
        use cordial::features::{FeatureGroup, FeatureMask};
        for mask in [
            FeatureMask::ALL,
            FeatureMask::only(FeatureGroup::Spatial),
            FeatureMask::only(FeatureGroup::Temporal),
            FeatureMask::only(FeatureGroup::Count),
        ] {
            let config = CordialConfig {
                feature_mask: mask,
                ..CordialConfig::default().with_seed(ctx.seed)
            };
            let classifier = PatternClassifier::fit(dataset, &split.train, &config)
                .map_err(|e| format!("classification ablation: {e}"))?;
            let matrix = pattern_confusion(&classifier.evaluate(dataset, &split.test));
            let f1 = matrix.weighted_scores().f1;
            let marker = if mask == FeatureMask::ALL {
                "  <- paper"
            } else {
                ""
            };
            println!(
                "{:<22} {:<18} {:>8.3} {:>8} {:>10}{}",
                "classifier features",
                mask.describe(),
                f1,
                "-",
                "-",
                marker
            );
            records.push(AblationRow {
                dimension: "classifier_feature_mask",
                setting: mask.describe(),
                f1,
                icr_percent: 0.0,
                rows_isolated: 0,
            });
        }
    }

    // (4) Decision threshold policy.
    for (name, threshold) in [
        ("calibrated", None),
        ("fixed 0.5", Some(0.5)),
        ("fixed 0.25", Some(0.25)),
    ] {
        let config = CordialConfig {
            block_threshold: threshold,
            ..CordialConfig::default().with_seed(ctx.seed)
        };
        let (f1, icr, rows) = eval_with(&config)?;
        let marker = if threshold.is_none() {
            "  <- default"
        } else {
            ""
        };
        println!(
            "{:<22} {:<18} {:>8.3} {:>7.2}% {:>10}{}",
            "block threshold", name, f1, icr, rows, marker
        );
        records.push(AblationRow {
            dimension: "threshold",
            setting: name.to_string(),
            f1,
            icr_percent: icr,
            rows_isolated: rows,
        });
    }

    let path = write_json(&ctx.out_dir, "ablations", &records)?;
    println!("\n[written] {}", path.display());
    Ok(())
}

// ---------------------------------------------------------------------------
// Feature importance
// ---------------------------------------------------------------------------

/// Which §IV-B feature group a bank feature belongs to.
fn feature_group(name: &str) -> &'static str {
    if name.contains("count") || name == "total_event_count" {
        "count"
    } else if name.contains("time") {
        "temporal"
    } else {
        "spatial"
    }
}

/// Prints the pattern classifier's gain-based feature importances — an
/// analysis of *which* §IV-B signals carry the classification.
pub fn run_importance(ctx: &Context) -> Result<(), String> {
    let dataset = ctx.dataset();
    let split = ctx.split();
    let config = CordialConfig::default().with_seed(ctx.seed);
    let classifier = PatternClassifier::fit(dataset, &split.train, &config)
        .map_err(|e| format!("training failed: {e}"))?;

    let mut ranked = classifier.feature_importance();
    ranked.sort_by(|a, b| b.1.partial_cmp(&a.1).expect("importances are finite"));

    println!("== Pattern-classifier feature importance (Random Forest) ==");
    println!("{:<28} {:<10} {:>10}", "Feature", "Group", "Importance");
    for (name, importance) in &ranked {
        if *importance < 0.005 {
            continue;
        }
        let bar = "#".repeat((importance * 120.0).round() as usize);
        println!(
            "{:<28} {:<10} {:>9.1}%  {bar}",
            name,
            feature_group(name),
            importance * 100.0
        );
    }

    let mut group_totals = std::collections::BTreeMap::new();
    for (name, importance) in &ranked {
        *group_totals.entry(feature_group(name)).or_insert(0.0f64) += importance;
    }
    println!("\nper-group totals (§IV-B groups):");
    for (group, total) in &group_totals {
        println!("  {group:<10} {:>5.1}%", total * 100.0);
    }

    let record: Vec<(String, f64)> = ranked
        .iter()
        .map(|(name, importance)| (name.to_string(), *importance))
        .collect();
    let path = write_json(&ctx.out_dir, "feature_importance", &record)?;
    println!("\n[written] {}", path.display());
    Ok(())
}

// ---------------------------------------------------------------------------
// Generator sensitivity
// ---------------------------------------------------------------------------

#[derive(Serialize)]
struct SensitivityRow {
    parameter: &'static str,
    value: f64,
    cordial_f1: f64,
    cordial_icr_percent: f64,
    baseline_f1: f64,
    baseline_icr_percent: f64,
    cordial_wins_icr: bool,
}

/// Sweeps the simulator's free parameters and checks whether the headline
/// conclusion — Cordial-RF beats the neighbor-rows baseline — survives.
///
/// A simulation-based reproduction is only as strong as its robustness to
/// the knobs nobody can calibrate against ground truth; this experiment
/// makes that robustness measurable.
pub fn run_sensitivity(ctx: &Context) -> Result<(), String> {
    println!("== Generator sensitivity: does 'Cordial beats the baseline' survive? ==");
    println!(
        "{:<24} {:>7} {:>18} {:>18} {:>7}",
        "Parameter", "Value", "Cordial F1 / ICR", "Baseline F1 / ICR", "wins?"
    );
    let mut records = Vec::new();

    let mut run_one = |name: &'static str,
                       value: f64,
                       make: &dyn Fn(&mut FleetDatasetConfig)|
     -> Result<(), String> {
        let mut config = FleetDatasetConfig::medium();
        make(&mut config);
        let dataset = generate_fleet_dataset(&config, ctx.seed);
        let split = split_banks(&dataset, 0.7, ctx.seed);
        let cordial_config = CordialConfig::default().with_seed(ctx.seed);
        let (_, c) = evaluate_cordial(&dataset, &split.train, &split.test, &cordial_config)
            .map_err(|e| format!("sensitivity {name}={value}: {e}"))?;
        let b = evaluate_neighbor_rows(&dataset, &split.test, &cordial_config);
        let wins = c.icr > b.icr;
        println!(
            "{:<24} {:>7} {:>8.3} / {:>6.2}% {:>8.3} / {:>6.2}% {:>7}",
            name,
            value,
            c.block_scores.f1,
            c.icr * 100.0,
            b.block_scores.f1,
            b.icr * 100.0,
            if wins { "yes" } else { "NO" }
        );
        records.push(SensitivityRow {
            parameter: name,
            value,
            cordial_f1: c.block_scores.f1,
            cordial_icr_percent: c.icr * 100.0,
            baseline_f1: b.block_scores.f1,
            baseline_icr_percent: b.icr * 100.0,
            cordial_wins_icr: wins,
        });
        Ok(())
    };

    for revisit in [0.1, 0.3, 0.5, 0.7] {
        run_one("revisit_prob", revisit, &|c| {
            c.plan.revisit_prob = revisit;
        })?;
    }
    for half_width in [64.0, 128.0, 256.0] {
        run_one("kernel_half_width", half_width, &|c| {
            c.plan.kernel.half_width = half_width;
        })?;
    }
    for growth in [12.0, 24.0, 48.0] {
        run_one("kernel_growth_step", growth, &|c| {
            c.plan.kernel.growth_step = growth;
        })?;
    }
    for precursor in [0.1, 0.2923, 0.5] {
        run_one("bank_precursor_prob", precursor, &|c| {
            c.plan.bank_precursor_prob = precursor;
        })?;
    }

    let wins = records.iter().filter(|r| r.cordial_wins_icr).count();
    println!(
        "\nCordial wins ICR in {wins}/{} generator configurations",
        records.len()
    );
    let path = write_json(&ctx.out_dir, "sensitivity", &records)?;
    println!("[written] {}", path.display());
    Ok(())
}

// ---------------------------------------------------------------------------
// Drift recovery scenario
// ---------------------------------------------------------------------------

/// One side of the drift scenario in the JSON record.
#[derive(Serialize)]
struct DriftSideRecord {
    block_f1: f64,
    block_precision: f64,
    block_recall: f64,
    icr: f64,
}

impl From<&PredictionEval> for DriftSideRecord {
    fn from(eval: &PredictionEval) -> Self {
        Self {
            block_f1: eval.block_scores.f1,
            block_precision: eval.block_scores.precision,
            block_recall: eval.block_scores.recall,
            icr: eval.icr,
        }
    }
}

/// The machine-readable drift scenario record (`drift.json`).
#[derive(Serialize)]
struct DriftRecord {
    seed: u64,
    scale: String,
    phase1_mix: [f64; 5],
    phase2_mix: [f64; 5],
    refits_started: u64,
    refits_promoted: u64,
    refits_rejected: u64,
    refits_rolled_back: u64,
    adaptive: DriftSideRecord,
    frozen: DriftSideRecord,
}

/// Shifts every event (and every plan's first-UER time) by `offset_ms`,
/// so a phase generated independently lands after an earlier one on the
/// shared stream clock.
fn shift_dataset(dataset: &mut FleetDataset, offset_ms: u64) {
    use cordial_mcelog::{ErrorEvent, MceLog, Timestamp};
    let events: Vec<ErrorEvent> = dataset
        .log
        .events()
        .iter()
        .map(|e| {
            ErrorEvent::new(
                e.addr,
                Timestamp::from_millis(e.time.as_millis() + offset_ms),
                e.error_type,
            )
        })
        .collect();
    dataset.log = MceLog::from_events(events);
    for truth in dataset.truth.values_mut() {
        truth.plan.first_uer =
            cordial_mcelog::Timestamp::from_millis(truth.plan.first_uer.as_millis() + offset_ms);
    }
}

/// The self-healing lifecycle scenario: the fleet's failure-pattern mix
/// drifts mid-stream. A supervisor with the continuous-learning loop on
/// retrains from its sliding window, routes the candidate through the
/// promotion gate, and recovers; a frozen twin keeps serving the
/// pre-drift model and decays. Both are scored on a held-out fleet drawn
/// from the *drifted* distribution that neither ever streamed.
pub fn run_drift(ctx: &Context) -> Result<(), String> {
    use cordial_faultsim::PatternMix;
    use cordial_fleet::{FleetSupervisor, SupervisorConfig};
    use cordial_relearn::RelearnConfig;

    let seed = ctx.seed;
    // Weights in PatternKind::ALL order: single-row, double-row,
    // half-total, scattered, whole-column. Phase 1 is single-row
    // dominated; phase 2 flips towards double-row and scattered.
    let phase1_mix = [0.85, 0.05, 0.01, 0.05, 0.04];
    let phase2_mix = [0.10, 0.45, 0.10, 0.25, 0.10];

    let mut config1 = ctx.config;
    config1.pattern_mix = PatternMix::new(phase1_mix);
    // Pre-drift clusters grow wide and loose; the initial model learns
    // broad spatial priors.
    config1.plan.kernel = LocalityKernel {
        half_width: 256.0,
        growth_step: 64.0,
    };
    let mut config2 = ctx.config;
    config2.pattern_mix = PatternMix::new(phase2_mix);
    // The drift also changes the *dynamics* block prediction learns:
    // clusters tighten sharply and failures re-erupt on known-bad rows,
    // so the pre-drift model's broad spatial priors go stale.
    config2.plan.kernel = LocalityKernel {
        half_width: 64.0,
        growth_step: 12.0,
    };
    config2.plan.revisit_prob = 0.50;
    // The drifted era streams more failing banks, so the sliding window
    // holds enough labelled banks to retrain from.
    config2.n_uer_banks = ctx.config.n_uer_banks * 2;

    println!("== Drift scenario: mid-stream pattern-mix shift ==");
    println!("[setup] generating phase 1 (pre-drift), phase 2 (drifted), held-out eval fleets...");
    let phase1 = generate_fleet_dataset(&config1, seed);
    let mut phase2 = generate_fleet_dataset(&config2, seed ^ 0xD21F);
    let holdout = generate_fleet_dataset(&config2, seed ^ 0x3AB7);

    let phase1_end = phase1
        .log
        .events()
        .iter()
        .map(|e| e.time.as_millis())
        .max()
        .unwrap_or(0);
    // Place the drifted era far enough after phase 1 that a stream-time
    // training window spanning all of phase 2 never reaches back into
    // phase 1: the gap exceeds the window span by a safety margin.
    let phase2_times = || phase2.log.events().iter().map(|e| e.time.as_millis());
    let phase2_first = phase2_times().min().unwrap_or(0);
    let phase2_span = phase2_times().max().unwrap_or(0) - phase2_first;
    const MARGIN_MS: u64 = 3_600_000;
    let window_span_ms = phase2_span + MARGIN_MS;
    shift_dataset(
        &mut phase2,
        phase1_end + window_span_ms + MARGIN_MS - phase2_first,
    );

    // The initial model: trained on the pre-drift distribution only.
    let model_config = CordialConfig::with_model(ModelKind::lightgbm()).with_seed(seed);
    let split1 = split_banks(&phase1, 0.7, seed);
    let initial = cordial::pipeline::Cordial::fit(&phase1, &split1.train, &model_config)
        .map_err(|e| e.to_string())?;
    let initial = std::sync::Arc::new(initial);

    let relearn = RelearnConfig {
        refit_every_events: 1024,
        // High floors: a refit right after the shift would train on a
        // sliver of the new era and promote a poor generalizer — wait
        // until the window holds most of the drifted population.
        min_window_events: 2048,
        min_window_banks: 80,
        // The stream-time span covers one era but not both: the moment
        // the stream enters the drifted era, pre-drift events fall out of
        // the window and every refit trains and calibrates on the drifted
        // distribution alone.
        window_span_ms,
        max_window_events: 1 << 18,
        background: false,
        seed,
        ..RelearnConfig::default()
    };
    let mut adaptive = FleetSupervisor::new(
        SupervisorConfig {
            relearn: Some(relearn),
            ..SupervisorConfig::default()
        },
        std::sync::Arc::clone(&initial),
        [],
    );
    let mut frozen = FleetSupervisor::new(SupervisorConfig::default(), initial, []);

    println!("[run] streaming phase 1 then phase 2 through adaptive and frozen supervisors...");
    for dataset in [&phase1, &phase2] {
        for event in dataset.log.events() {
            adaptive.route(*event);
            frozen.route(*event);
        }
    }
    adaptive.finish();
    frozen.finish();

    let outcomes = adaptive
        .relearn_outcomes()
        .ok_or("adaptive supervisor must run with relearn enabled")?;
    println!(
        "relearn: started {} promoted {} rejected {} failed {} timed_out {} rolled_back {}",
        outcomes.started,
        outcomes.promoted,
        outcomes.rejected,
        outcomes.failed,
        outcomes.timed_out,
        outcomes.rolled_back,
    );
    if outcomes.promoted == 0 {
        return Err(format!(
            "no refit cleared the promotion gate under drift: {outcomes:?}"
        ));
    }
    println!(
        "promotion accepted: {} candidate(s) cleared the gate",
        outcomes.promoted
    );

    // Score both serving models on the held-out drifted fleet.
    let holdout_split = split_banks(&holdout, 0.7, seed);
    let adaptive_eval =
        cordial::eval::evaluate_pipeline(adaptive.incumbent(), &holdout, &holdout_split.test);
    let frozen_eval =
        cordial::eval::evaluate_pipeline(frozen.incumbent(), &holdout, &holdout_split.test);
    println!(
        "recovered F1: adaptive={:.4} frozen={:.4} (block-level, held-out drifted fleet)",
        adaptive_eval.block_scores.f1, frozen_eval.block_scores.f1
    );
    println!(
        "recovered ICR: adaptive={:.4} frozen={:.4}",
        adaptive_eval.icr, frozen_eval.icr
    );

    let record = DriftRecord {
        seed,
        scale: ctx.scale_name.clone(),
        phase1_mix,
        phase2_mix,
        refits_started: outcomes.started,
        refits_promoted: outcomes.promoted,
        refits_rejected: outcomes.rejected,
        refits_rolled_back: outcomes.rolled_back,
        adaptive: DriftSideRecord::from(&adaptive_eval),
        frozen: DriftSideRecord::from(&frozen_eval),
    };
    let path = write_json(&ctx.out_dir, "drift", &record)?;
    println!("[written] {}", path.display());

    if adaptive_eval.block_scores.f1 <= frozen_eval.block_scores.f1 {
        return Err(format!(
            "adaptive model failed to recover: F1 {:.4} vs frozen {:.4}",
            adaptive_eval.block_scores.f1, frozen_eval.block_scores.f1
        ));
    }
    Ok(())
}
