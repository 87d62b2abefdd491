//! Schema and acceptance pins for the committed benchmark artefacts:
//! `BENCH_hotpath.json` (written by `cargo bench -p cordial-bench --bench
//! perf -- hotpath`), `BENCH_obs.json` (written by `-- obs_recorder`),
//! `BENCH_serve.json` (written by `--bench serve`), `BENCH_store.json`
//! (written by `--bench store`) and `BENCH_refit.json` (written by
//! `--bench refit`).
//! CI runs a `--sample-size 10` smoke of those benches and then this
//! test, so a bench change that breaks an artefact's shape — or regresses
//! the committed hot-path ratios / recorder overhead / serving saturation
//! rate past their acceptance bounds — fails the build rather than
//! silently rotting the committed files.

use serde_json::Value;

/// Benches every artefact must carry, with the speedup floor each one is
/// pinned to. The boosted inference kernel pairs are trajectory records
/// (the pointer walk over these shallow trees is already near-optimal, see
/// DESIGN.md §12) and only pin a sanity floor; the two serving-path pairs
/// and the default Random Forest's block inference pin acceptance ratios.
const REQUIRED_BENCHES: &[(&str, f64)] = &[
    ("ingest_plan", 5.0),
    ("batch_plan", 2.0),
    ("rf_inference", 1.2),
    ("lgbm_inference", 0.1),
    ("gbdt_inference", 0.1),
];

fn get<'a>(map: &'a Value, key: &str) -> &'a Value {
    match map {
        Value::Map(entries) => entries
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v)
            .unwrap_or_else(|| panic!("missing key {key:?}")),
        other => panic!("expected map for key {key:?}, got {other:?}"),
    }
}

fn as_f64(value: &Value, what: &str) -> f64 {
    match value {
        Value::F64(v) => *v,
        Value::U64(v) => *v as f64,
        Value::I64(v) => *v as f64,
        other => panic!("{what}: expected number, got {other:?}"),
    }
}

#[test]
fn committed_obs_artefact_matches_schema_and_overhead_ceiling() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_obs.json");
    let body = std::fs::read_to_string(path)
        .unwrap_or_else(|e| panic!("BENCH_obs.json must be committed at {path}: {e}"));
    let doc = serde_json::parse_value_str(&body).expect("valid JSON");

    assert_eq!(as_f64(get(&doc, "schema_version"), "schema_version"), 1.0);
    match get(&doc, "source") {
        Value::Str(s) => assert!(
            s.contains("cargo bench") && s.contains("obs_recorder"),
            "source must record the producing command, got {s:?}"
        ),
        other => panic!("source: expected string, got {other:?}"),
    }
    assert!(as_f64(get(&doc, "sample_size"), "sample_size") >= 1.0);

    let bench = get(get(&doc, "benches"), "recorder_replay");
    for label in ["disabled", "enabled"] {
        match get(bench, label) {
            Value::Str(s) => assert!(!s.is_empty(), "recorder_replay.{label} must name the mode"),
            other => panic!("recorder_replay.{label}: expected string, got {other:?}"),
        }
    }
    let disabled = as_f64(get(bench, "disabled_median_ns"), "disabled_median_ns");
    let enabled = as_f64(get(bench, "enabled_median_ns"), "enabled_median_ns");
    let overhead = as_f64(get(bench, "overhead"), "overhead");
    assert!(
        disabled.is_finite() && disabled > 0.0,
        "disabled median must be positive, got {disabled}"
    );
    assert!(
        enabled.is_finite() && enabled > 0.0,
        "enabled median must be positive, got {enabled}"
    );
    assert!(
        (overhead - enabled / disabled).abs() <= 1e-9 * overhead.abs(),
        "overhead {overhead} inconsistent with medians {enabled}/{disabled}"
    );
    // The always-on acceptance ceiling: the flight recorder may cost at
    // most 5% of the full monitor-replay hot path.
    assert!(
        overhead <= 1.05,
        "committed recorder overhead {:.2}% breaches the 5% ceiling",
        (overhead - 1.0) * 100.0
    );
}

#[test]
fn committed_serve_artefact_matches_schema_and_saturation_floor() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_serve.json");
    let body = std::fs::read_to_string(path)
        .unwrap_or_else(|e| panic!("BENCH_serve.json must be committed at {path}: {e}"));
    let doc = serde_json::parse_value_str(&body).expect("valid JSON");

    assert_eq!(as_f64(get(&doc, "schema_version"), "schema_version"), 1.0);
    match get(&doc, "source") {
        Value::Str(s) => assert!(
            s.contains("cargo bench") && s.contains("serve"),
            "source must record the producing command, got {s:?}"
        ),
        other => panic!("source: expected string, got {other:?}"),
    }

    let config = get(&doc, "config");
    for key in ["shards", "queue_capacity", "batch_size", "repeats"] {
        assert!(
            as_f64(get(config, key), key) >= 1.0,
            "config.{key} must be at least 1"
        );
    }

    let load = get(&doc, "load");
    let events = as_f64(get(load, "events"), "load.events");
    let batches = as_f64(get(load, "batches"), "load.batches");
    let elapsed = as_f64(get(load, "elapsed_s"), "load.elapsed_s");
    let rate = as_f64(get(load, "events_per_sec"), "load.events_per_sec");
    as_f64(get(load, "retries"), "load.retries");
    assert!(
        events >= 1_000_000.0,
        "the saturation run must stream at least a million events, got {events}"
    );
    assert!(batches >= 1.0 && elapsed > 0.0 && elapsed.is_finite());
    assert!(
        (rate - events / elapsed).abs() <= 1e-6 * rate.abs(),
        "events_per_sec {rate} inconsistent with {events}/{elapsed}"
    );
    // The serving acceptance floor: the daemon must admit, ack and
    // monitor at least a million simulated events per second end to end.
    assert!(
        rate >= 1_000_000.0,
        "committed saturation rate {rate:.0} events/sec below the 1M floor"
    );

    let server = get(&doc, "server");
    let served_events = as_f64(get(server, "events"), "server.events");
    assert!(
        (served_events - events).abs() < 0.5,
        "daemon-side event count {served_events} must equal acked count {events}: \
         a mismatch means acks were sent for events that never reached a monitor"
    );
    assert!(as_f64(get(server, "devices"), "server.devices") >= 1.0);
    as_f64(get(server, "banks_planned"), "server.banks_planned");
}

#[test]
fn committed_store_artefact_matches_schema_and_throughput_floors() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_store.json");
    let body = std::fs::read_to_string(path)
        .unwrap_or_else(|e| panic!("BENCH_store.json must be committed at {path}: {e}"));
    let doc = serde_json::parse_value_str(&body).expect("valid JSON");

    assert_eq!(as_f64(get(&doc, "schema_version"), "schema_version"), 1.0);
    match get(&doc, "source") {
        Value::Str(s) => assert!(
            s.contains("cargo bench") && s.contains("store"),
            "source must record the producing command, got {s:?}"
        ),
        other => panic!("source: expected string, got {other:?}"),
    }

    let config = get(&doc, "config");
    for key in [
        "append_batch",
        "fsync_every_records",
        "segment_max_bytes",
        "repeats",
    ] {
        assert!(
            as_f64(get(config, key), key) >= 1.0,
            "config.{key} must be at least 1"
        );
    }

    let append = get(&doc, "append");
    let events = as_f64(get(append, "events"), "append.events");
    let append_elapsed = as_f64(get(append, "elapsed_s"), "append.elapsed_s");
    let append_rate = as_f64(get(append, "events_per_sec"), "append.events_per_sec");
    let segments = as_f64(get(append, "segments"), "append.segments");
    as_f64(get(append, "bytes"), "append.bytes");
    assert!(
        events >= 1_000_000.0,
        "the journaling run must append at least a million events, got {events}"
    );
    assert!(append_elapsed > 0.0 && append_elapsed.is_finite());
    assert!(
        (append_rate - events / append_elapsed).abs() <= 1e-6 * append_rate.abs(),
        "events_per_sec {append_rate} inconsistent with {events}/{append_elapsed}"
    );
    assert!(
        segments >= 2.0,
        "the run must roll segments so the measured rate includes roll fsyncs, got {segments}"
    );

    let replay = get(&doc, "replay");
    let records = as_f64(get(replay, "records"), "replay.records");
    let replay_elapsed = as_f64(get(replay, "elapsed_s"), "replay.elapsed_s");
    let replay_rate = as_f64(get(replay, "records_per_sec"), "replay.records_per_sec");
    assert!(
        (records - events).abs() < 0.5,
        "replay must return every appended record: {records} vs {events}"
    );
    assert!(replay_elapsed > 0.0 && replay_elapsed.is_finite());
    assert!(
        (replay_rate - records / replay_elapsed).abs() <= 1e-6 * replay_rate.abs(),
        "records_per_sec {replay_rate} inconsistent with {records}/{replay_elapsed}"
    );

    // The durability acceptance floors: journal-before-ack must not be
    // what caps the daemon (admission floor is 1M events/sec, so the
    // journal must append well past 200k under batched fsync), and a
    // crash restart must replay a full journal at at least 200k
    // records/sec so catch-up stays in seconds, not minutes.
    assert!(
        append_rate >= 200_000.0,
        "committed append rate {append_rate:.0} events/sec below the 200k floor"
    );
    assert!(
        replay_rate >= 200_000.0,
        "committed replay rate {replay_rate:.0} records/sec below the 200k floor"
    );
}

/// The refit artefact's pairs and their speedup floors. The pipeline pair
/// is a regression guard — a full `Cordial` fit is dominated by feature
/// extraction and boosting, so bin-mapper reuse buys little there and the
/// floor only asserts warm starting never becomes a slowdown. The
/// trees-level pair isolates the regime warm starting targets (wide
/// matrix, short boosting schedule, measured ~1.15x) and pins a real
/// floor with noise margin.
const REQUIRED_REFIT_BENCHES: &[(&str, f64)] = &[("pipeline_refit", 0.85), ("lgbm_refit", 1.02)];

#[test]
fn committed_refit_artefact_matches_schema_and_floors() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_refit.json");
    let body = std::fs::read_to_string(path)
        .unwrap_or_else(|e| panic!("BENCH_refit.json must be committed at {path}: {e}"));
    let doc = serde_json::parse_value_str(&body).expect("valid JSON");

    assert_eq!(as_f64(get(&doc, "schema_version"), "schema_version"), 1.0);
    match get(&doc, "source") {
        Value::Str(s) => assert!(
            s.contains("cargo bench") && s.contains("refit"),
            "source must record the producing command, got {s:?}"
        ),
        other => panic!("source: expected string, got {other:?}"),
    }
    assert!(as_f64(get(&doc, "sample_size"), "sample_size") >= 1.0);
    match get(&doc, "model") {
        Value::Str(s) => assert_eq!(
            s, "lightgbm",
            "warm starting only exists for the boosted model"
        ),
        other => panic!("model: expected string, got {other:?}"),
    }

    let benches = get(&doc, "benches");
    let n_benches = match benches {
        Value::Map(entries) => entries.len(),
        other => panic!("benches: expected map, got {other:?}"),
    };
    assert_eq!(
        n_benches,
        REQUIRED_REFIT_BENCHES.len(),
        "exactly the required refit benches, no strays"
    );

    for &(key, floor) in REQUIRED_REFIT_BENCHES {
        let bench = get(benches, key);
        for label in ["baseline", "optimised"] {
            match get(bench, label) {
                Value::Str(s) => assert!(!s.is_empty(), "{key}.{label} must name the twin"),
                other => panic!("{key}.{label}: expected string, got {other:?}"),
            }
        }
        let baseline = as_f64(get(bench, "baseline_median_s"), key);
        let optimised = as_f64(get(bench, "optimised_median_s"), key);
        let speedup = as_f64(get(bench, "speedup"), key);
        assert!(
            baseline.is_finite() && baseline > 0.0,
            "{key}: baseline median must be positive, got {baseline}"
        );
        assert!(
            optimised.is_finite() && optimised > 0.0,
            "{key}: optimised median must be positive, got {optimised}"
        );
        assert!(
            (speedup - baseline / optimised).abs() <= 1e-9 * speedup.abs(),
            "{key}: speedup {speedup} inconsistent with medians {baseline}/{optimised}"
        );
        assert!(
            speedup >= floor,
            "{key}: committed speedup {speedup:.2}x below its {floor}x floor"
        );
    }
}

#[test]
fn committed_hotpath_artefact_matches_schema_and_floors() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_hotpath.json");
    let body = std::fs::read_to_string(path)
        .unwrap_or_else(|e| panic!("BENCH_hotpath.json must be committed at {path}: {e}"));
    let doc = serde_json::parse_value_str(&body).expect("valid JSON");

    assert_eq!(as_f64(get(&doc, "schema_version"), "schema_version"), 1.0);
    match get(&doc, "source") {
        Value::Str(s) => assert!(
            s.contains("cargo bench") && s.contains("hotpath"),
            "source must record the producing command, got {s:?}"
        ),
        other => panic!("source: expected string, got {other:?}"),
    }
    assert!(as_f64(get(&doc, "sample_size"), "sample_size") >= 1.0);

    let benches = get(&doc, "benches");
    let n_benches = match benches {
        Value::Map(entries) => entries.len(),
        other => panic!("benches: expected map, got {other:?}"),
    };
    assert_eq!(
        n_benches,
        REQUIRED_BENCHES.len(),
        "exactly the required benches, no strays"
    );

    for &(key, floor) in REQUIRED_BENCHES {
        let bench = get(benches, key);
        for label in ["baseline", "optimised"] {
            match get(bench, label) {
                Value::Str(s) => assert!(!s.is_empty(), "{key}.{label} must name the twin"),
                other => panic!("{key}.{label}: expected string, got {other:?}"),
            }
        }
        let baseline = as_f64(get(bench, "baseline_median_ns"), key);
        let optimised = as_f64(get(bench, "optimised_median_ns"), key);
        let speedup = as_f64(get(bench, "speedup"), key);
        assert!(
            baseline.is_finite() && baseline > 0.0,
            "{key}: baseline median must be positive, got {baseline}"
        );
        assert!(
            optimised.is_finite() && optimised > 0.0,
            "{key}: optimised median must be positive, got {optimised}"
        );
        assert!(
            (speedup - baseline / optimised).abs() <= 1e-9 * speedup.abs(),
            "{key}: speedup {speedup} inconsistent with medians {baseline}/{optimised}"
        );
        assert!(
            speedup >= floor,
            "{key}: committed speedup {speedup:.2}x below its {floor}x floor"
        );
    }
}
