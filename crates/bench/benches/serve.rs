//! Serving-path saturation bench: an in-process cordial-served daemon on
//! loopback, driven by the crate's own load generator until millions of
//! simulated events have been admitted, acked and monitored. The measured
//! admission rate is honest end-to-end throughput — once the shard queues
//! fill, backpressure pins it to the monitors' processing rate.
//!
//! Run with `cargo bench -p cordial-bench --bench serve` (release: the
//! committed `BENCH_serve.json` floor assumes optimised builds). Schema
//! and the ≥1M events/sec acceptance floor are pinned by
//! `crates/bench/tests/bench_schema.rs`.

use std::sync::Arc;

use cordial::pipeline::Cordial;
use cordial::CordialConfig;
use cordial_bench::{bench_dataset, bench_split, BENCH_SEED};
use cordial_served::{run_load, Client, LoadReport, ServeConfig, ServedStats, Server};
use serde_json::Value;

/// Events the load generator streams in total (repeated, re-timed passes
/// over the bench fleet's log). Modest enough that the per-bank event
/// buffers held by thousands of monitors stay well inside CI memory.
const TARGET_EVENTS: usize = 8_000_000;

/// Events per wire batch. Large batches amortise the ack round-trip the
/// same way real collectors batch their scrape windows.
const BATCH_SIZE: usize = 16384;

/// Shard queue depth; deep enough that the client stays busy while the
/// workers drain, shallow enough that backpressure engages within one
/// pass.
const QUEUE_CAPACITY: usize = 256;

/// Worker shards. The bench host can be a single hardware thread, where
/// extra workers only add context switching; two keeps the decode thread
/// and the monitors pipelined without oversubscribing small machines.
const SHARDS: usize = 2;

/// Backpressure nap suggested to the saturating client. The default 50ms
/// is tuned for polite production collectors; a saturation bench wants
/// the client back sooner — but not so fast that retry spin steals the
/// workers' CPU on a single-core host.
const RETRY_AFTER_MS: u32 = 20;

/// The wireless twin: the same per-device `ingest_all` batching the
/// daemon's workers run, minus sockets, codec and queues. The gap between
/// this rate and the measured wire rate is the serving stack's true
/// overhead.
fn direct_replay(
    model: &Arc<Cordial>,
    dataset: &cordial_faultsim::FleetDataset,
    repeats: u32,
) -> f64 {
    use std::collections::BTreeMap;
    let budget = cordial_faultsim::SparingBudget::typical();
    let mut monitors: BTreeMap<cordial_fleet::DeviceId, cordial::monitor::CordialMonitor> =
        BTreeMap::new();
    let events = dataset.log.events();
    let span_ms = events
        .iter()
        .map(|e| e.time.as_millis())
        .max()
        .map_or(1, |max| max + 1);
    let mut total = 0u64;
    let started = std::time::Instant::now();
    for repeat in 0..repeats {
        let shift_ms = span_ms * u64::from(repeat);
        let mut by_device: BTreeMap<cordial_fleet::DeviceId, Vec<cordial_mcelog::ErrorEvent>> =
            BTreeMap::new();
        for event in events {
            let mut event = *event;
            event.time = cordial_mcelog::Timestamp::from_millis(event.time.as_millis() + shift_ms);
            by_device
                .entry(cordial_fleet::DeviceId::of(&event.addr.bank))
                .or_default()
                .push(event);
        }
        for (device, batch) in by_device {
            total += batch.len() as u64;
            monitors
                .entry(device)
                .or_insert_with(|| cordial::monitor::CordialMonitor::new(Arc::clone(model), budget))
                .ingest_all(batch);
        }
    }
    total as f64 / started.elapsed().as_secs_f64()
}

fn main() {
    let dataset = bench_dataset();
    let split = bench_split(&dataset);
    let config = CordialConfig::default()
        .with_seed(BENCH_SEED)
        .with_threads(4);
    let model = Arc::new(Cordial::fit(&dataset, &split.train, &config).expect("train"));

    let direct_repeats = 200u32;
    let direct_rate = direct_replay(&model, &dataset, direct_repeats);
    println!("serve/direct_replay   {direct_rate:.0} events/sec (monitor path, no wire)");

    let serve_config = ServeConfig {
        shards: SHARDS,
        queue_capacity: QUEUE_CAPACITY,
        retry_after_ms: RETRY_AFTER_MS,
        ..ServeConfig::default()
    };
    let shards = serve_config.shards;
    let server =
        Server::bind(model, serve_config, "127.0.0.1:0", None).expect("bind loopback daemon");
    let addr = server.addr().to_string();

    let events = dataset.log.events();
    let repeats = TARGET_EVENTS.div_ceil(events.len().max(1)).max(1) as u32;
    let report = run_load(&addr, events, BATCH_SIZE, repeats).expect("load run");

    Client::connect(&addr)
        .and_then(|mut client| client.shutdown())
        .expect("shutdown rpc");
    let shutdown = server.wait().expect("drain");

    println!(
        "serve/saturation   {} events in {:.2}s over {} devices   {:.0} events/sec   ({} batches, {} retries)",
        report.events,
        report.elapsed_s,
        shutdown.stats.devices,
        report.events_per_sec,
        report.batches,
        report.retries
    );
    write_serve_json(shards, repeats, &report, &shutdown.stats);
}

/// Serialises the committed saturation artefact (`BENCH_serve.json` at
/// the workspace root). Schema pinned by
/// `crates/bench/tests/bench_schema.rs`.
fn write_serve_json(shards: usize, repeats: u32, report: &LoadReport, stats: &ServedStats) {
    let doc = Value::Map(vec![
        ("schema_version".into(), Value::U64(1)),
        (
            "source".into(),
            Value::Str("cargo bench -p cordial-bench --bench serve".into()),
        ),
        (
            "config".into(),
            Value::Map(vec![
                ("shards".into(), Value::U64(shards as u64)),
                ("queue_capacity".into(), Value::U64(QUEUE_CAPACITY as u64)),
                ("batch_size".into(), Value::U64(BATCH_SIZE as u64)),
                ("repeats".into(), Value::U64(u64::from(repeats))),
            ]),
        ),
        (
            "load".into(),
            Value::Map(vec![
                ("events".into(), Value::U64(report.events)),
                ("batches".into(), Value::U64(report.batches)),
                ("retries".into(), Value::U64(report.retries)),
                ("elapsed_s".into(), Value::F64(report.elapsed_s)),
                ("events_per_sec".into(), Value::F64(report.events_per_sec)),
            ]),
        ),
        (
            "server".into(),
            Value::Map(vec![
                ("devices".into(), Value::U64(stats.devices as u64)),
                ("events".into(), Value::U64(stats.events as u64)),
                (
                    "banks_planned".into(),
                    Value::U64(stats.banks_planned as u64),
                ),
            ]),
        ),
    ]);
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_serve.json");
    let body = serde_json::to_string_pretty(&doc).expect("serialise") + "\n";
    if let Err(e) = std::fs::write(path, body) {
        println!("serve: could not write {path}: {e}");
    } else {
        println!("serve: wrote {path}");
    }
}
