//! In-process replay of a workload stream through each layer's public
//! functions: the correctness reference for the daemon runs and, with
//! tracing on, the source of every per-layer metric.
//!
//! The replay mirrors the daemon's data path call for call: each wire
//! batch is encoded and decoded (`codec`), journaled (`store`), split by
//! device, and handed to that device's `CordialMonitor::ingest_all`
//! (`monitor`), whose monitor is created exactly as the daemon creates
//! it. Plans are then recomputed with `Cordial::plan_batch` (`pipeline`)
//! and must equal the monitors' plans.

use std::collections::{BTreeMap, HashMap};
use std::path::Path;

use cordial::prelude::{Cordial, CordialConfig, CordialMonitor, MitigationPlan};
use cordial::split::split_banks;
use cordial_faultsim::{generate_fleet_dataset, FleetDatasetConfig};
use cordial_fleet::DeviceId;
use cordial_mcelog::{BankErrorHistory, ErrorEvent};
use cordial_served::codec::encode_ingest_batch;
use cordial_served::{decode_frame, Decoded, Frame, PlanRecord, ServeConfig, ServedStats};
use cordial_store::{FsyncPolicy, Record, ReplayFilter, Store, StoreConfig};
use cordial_topology::BankAddress;

use crate::trace::Tracer;

/// The model seed `cordial-cli serve` trains with when given no `--seed`.
pub const SERVE_MODEL_SEED: u64 = 2025;

/// Trains the pipeline exactly as `cordial-cli serve` does with its
/// defaults: the `small` fleet at the serve seed, a 70/30 bank split at
/// the same seed, and the default (Random-Forest) configuration. The
/// `Cordial::fit` call is timed as `pipeline.fit`.
///
/// # Errors
///
/// Training failures.
pub fn train_like_serve(tracer: &mut Tracer) -> Result<Cordial, String> {
    let dataset = generate_fleet_dataset(&FleetDatasetConfig::small(), SERVE_MODEL_SEED);
    let split = split_banks(&dataset, 0.7, SERVE_MODEL_SEED);
    tracer
        .span("pipeline.fit", || {
            Cordial::fit(&dataset, &split.train, &CordialConfig::default())
        })
        .map_err(|e| format!("training failed: {e}"))
}

/// What the replay produced.
#[derive(Debug)]
pub struct Replay {
    /// Every plan, in the daemon's `PlanQuery` form, sorted.
    pub plans: Vec<PlanRecord>,
    /// Aggregate monitor statistics, in the daemon's `StatsQuery` form.
    pub stats: ServedStats,
    /// Monitors created.
    pub monitors: usize,
    /// Rows named by every plan.
    pub planned_rows: usize,
    /// Resident-set growth of this process across the monitor replay.
    pub rss_growth_bytes: i64,
    /// Wire bytes the codec produced (traced runs only).
    pub wire_bytes: usize,
    /// Journal bytes on disk after the replay (traced runs only).
    pub journal_bytes: u64,
    /// The recorder-clock window of the per-batch data path (codec,
    /// journal append, monitor creation and ingestion).
    pub data_path_ns: (u64, u64),
    /// Whether every `Cordial::plan_batch` plan equals the monitor's.
    pub plans_agree: bool,
    /// Whether the journal replayed exactly the stream (traced runs only;
    /// `true` otherwise).
    pub journal_agrees: bool,
}

/// The daemon's `PlanQuery` record for one plan.
fn plan_record(device: DeviceId, bank: BankAddress, plan: &MitigationPlan) -> PlanRecord {
    PlanRecord {
        device: device.to_string(),
        bank: bank.to_string(),
        plan: format!("{plan:?}"),
    }
}

/// This process's resident set, in bytes, from `/proc/self/status`.
pub fn self_rss_bytes() -> i64 {
    crate::daemon::proc_status_kb("self", "VmRSS").map_or(0, |kb| kb as i64 * 1024)
}

/// Replays `events` in wire batches of `batch` through the layers.
///
/// With `journal` set (traced runs), every batch also goes through the
/// codec and is appended to a fresh store in that directory under
/// `fsync`, and the finished journal is re-opened and replayed.
///
/// # Errors
///
/// Codec, store or pipeline failures.
pub fn replay(
    pipeline: &Cordial,
    events: &[ErrorEvent],
    batch: usize,
    journal: Option<(&Path, FsyncPolicy)>,
    tracer: &mut Tracer,
) -> Result<Replay, String> {
    let budget = ServeConfig::default().budget;
    let mut store = match journal {
        Some((dir, fsync)) => Some(
            Store::open(
                dir,
                StoreConfig {
                    fsync,
                    ..StoreConfig::default()
                },
            )
            .map_err(|e| format!("store open: {e}"))?,
        ),
        None => None,
    };
    let mut monitors: BTreeMap<DeviceId, CordialMonitor> = BTreeMap::new();
    let mut plans: Vec<PlanRecord> = Vec::new();
    let mut monitor_plans: BTreeMap<BankAddress, MitigationPlan> = BTreeMap::new();
    let mut wire_bytes = 0usize;
    let rss_before = self_rss_bytes();
    let loop_start = tracer.clock_ns();
    for chunk in events.chunks(batch.max(1)) {
        let decoded = if store.is_some() {
            let bytes = tracer.span("codec.encode", || encode_ingest_batch(chunk));
            wire_bytes += bytes.len();
            match tracer.span("codec.decode", || decode_frame(&bytes)) {
                Decoded::Frame(Frame::IngestBatch(events), _) => events,
                other => return Err(format!("codec round trip failed: {other:?}")),
            }
        } else {
            chunk.to_vec()
        };
        if let Some(store) = store.as_mut() {
            tracer
                .span("store.append", || store.append_events(&decoded))
                .map_err(|e| format!("store append: {e}"))?;
        }
        // The daemon's per-batch grouping: device monitors are
        // independent, so only per-device order matters.
        let mut by_device: HashMap<DeviceId, Vec<ErrorEvent>> = HashMap::new();
        for event in decoded {
            by_device
                .entry(DeviceId::of(&event.addr.bank))
                .or_default()
                .push(event);
        }
        for (device, device_events) in by_device {
            let monitor = monitors.entry(device).or_insert_with(|| {
                tracer.span("monitor.new", || {
                    CordialMonitor::new(pipeline.clone(), budget)
                })
            });
            let planned = tracer.span("monitor.ingest", || monitor.ingest_all(device_events));
            for (bank, plan) in planned {
                plans.push(plan_record(device, bank, &plan));
                monitor_plans.insert(bank, plan);
            }
        }
    }
    let data_path_ns = (loop_start, tracer.clock_ns());
    let rss_growth_bytes = self_rss_bytes() - rss_before;
    plans.sort();

    let mut stats = ServedStats::default();
    for monitor in monitors.values() {
        let s = monitor.stats();
        stats.devices += 1;
        stats.events += s.events;
        stats.banks_planned += s.banks_planned;
        stats.rows_isolated += s.rows_isolated;
        stats.banks_spared += s.banks_spared;
        stats.uers_absorbed += s.uers_absorbed;
        stats.uers_missed += s.uers_missed;
    }
    let monitor_count = monitors.len();
    drop(monitors);

    // The journal as a restarted daemon reads it: open, then replay
    // events only.
    let mut journal_bytes = 0;
    let mut journal_agrees = true;
    if let (Some(store), Some((dir, fsync))) = (store.take(), journal) {
        drop(store);
        let reopened = tracer
            .span("store.open", || {
                Store::open(
                    dir,
                    StoreConfig {
                        fsync,
                        ..StoreConfig::default()
                    },
                )
            })
            .map_err(|e| format!("store reopen: {e}"))?;
        let records = tracer
            .span("store.replay", || {
                reopened.replay(&ReplayFilter {
                    events_only: true,
                    ..ReplayFilter::default()
                })
            })
            .map_err(|e| format!("store replay: {e}"))?;
        journal_agrees = records.len() == events.len()
            && records.iter().zip(events).all(
                |(record, sent)| matches!(record, Record::Event { event, .. } if event == sent),
            );
        journal_bytes = reopened.inspect().bytes;
    }

    // Every planned bank's history, re-planned in one batch.
    let mut histories: BTreeMap<BankAddress, Vec<ErrorEvent>> = monitor_plans
        .keys()
        .map(|bank| (*bank, Vec::new()))
        .collect();
    for event in events {
        if let Some(history) = histories.get_mut(&event.addr.bank) {
            history.push(*event);
        }
    }
    let histories: Vec<BankErrorHistory> = histories
        .into_iter()
        .map(|(bank, events)| BankErrorHistory::new(bank, events))
        .collect();
    let refs: Vec<&BankErrorHistory> = histories.iter().collect();
    let batch_plans = tracer.span("pipeline.plan_batch", || pipeline.plan_batch(&refs));
    let plans_agree = histories
        .iter()
        .zip(&batch_plans)
        .all(|(history, plan)| monitor_plans.get(&history.bank()) == Some(plan));

    Ok(Replay {
        planned_rows: monitor_plans.values().map(|p| p.rows().len()).sum(),
        plans,
        stats,
        monitors: monitor_count,
        rss_growth_bytes,
        data_path_ns,
        wire_bytes,
        journal_bytes,
        plans_agree,
        journal_agrees,
    })
}
