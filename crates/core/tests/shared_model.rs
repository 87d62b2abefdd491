//! Sharing one `Arc<ServingModel>` between monitors deletes copies and
//! nothing else: per-device monitors that share a model must produce
//! exactly what monitors each built from their own deep copy of the
//! pipeline produce — plans, stats and serialised checkpoints — on every
//! ingestion path, across a checkpoint/restore in mid-stream.

use std::collections::BTreeMap;
use std::sync::Arc;

use cordial::pipeline::ServingModel;
use cordial::prelude::*;

/// Events per `ingest_all*` call: several batches per device, so batch
/// boundaries fall inside observation windows.
const CHUNK: usize = 64;

#[derive(Debug, Clone, Copy)]
enum Path {
    Ingest,
    IngestAll,
    IngestAllGuarded,
}

/// The fleet's events grouped per HBM device, in arrival order.
fn by_device(dataset: &FleetDataset) -> BTreeMap<(u32, u8, u8), Vec<ErrorEvent>> {
    let mut devices: BTreeMap<(u32, u8, u8), Vec<ErrorEvent>> = BTreeMap::new();
    for event in dataset.log.events() {
        let bank = event.addr.bank;
        let key = (bank.node.index(), bank.npu.index(), bank.hbm.index());
        devices.entry(key).or_default().push(*event);
    }
    devices
}

fn feed(
    monitor: &mut CordialMonitor,
    events: &[ErrorEvent],
    path: Path,
) -> Vec<(BankAddress, MitigationPlan)> {
    match path {
        Path::Ingest => events
            .iter()
            .filter_map(|event| match monitor.ingest(*event) {
                IngestOutcome::Planned { plan, .. } => Some((event.addr.bank, plan)),
                _ => None,
            })
            .collect(),
        Path::IngestAll => events
            .chunks(CHUNK)
            .flat_map(|chunk| monitor.ingest_all(chunk.iter().copied()))
            .collect(),
        Path::IngestAllGuarded => events
            .chunks(CHUNK)
            .flat_map(|chunk| monitor.ingest_all_guarded(chunk.iter().copied()))
            .collect(),
    }
}

/// Everything a device's monitor leaves behind.
#[derive(Debug, PartialEq)]
struct Outcome {
    plans: Vec<(BankAddress, MitigationPlan)>,
    stats: MonitorStats,
    checkpoint: String,
}

/// Runs one device's stream through a `fresh` monitor: the first half,
/// a serialised checkpoint passed to `restore`, the second half.
fn run_device(
    fresh: impl Fn() -> CordialMonitor,
    restore: impl Fn(MonitorCheckpoint) -> CordialMonitor,
    events: &[ErrorEvent],
    path: Path,
) -> (CordialMonitor, Outcome) {
    let (first, second) = events.split_at(events.len() / 2);
    let mut monitor = fresh();
    let mut plans = feed(&mut monitor, first, path);
    let json = serde_json::to_string(&monitor.checkpoint()).unwrap();
    let mut monitor = restore(serde_json::from_str(&json).unwrap());
    plans.extend(feed(&mut monitor, second, path));
    let outcome = Outcome {
        plans,
        stats: monitor.stats(),
        checkpoint: serde_json::to_string(&monitor.checkpoint()).unwrap(),
    };
    (monitor, outcome)
}

#[test]
fn shared_and_owned_models_produce_identical_monitors() {
    let budget = SparingBudget::typical();
    for seed in [23, 61] {
        let dataset = generate_fleet_dataset(&FleetDatasetConfig::small(), seed);
        let split = split_banks(&dataset, 0.7, seed);
        let cordial = Cordial::fit(&dataset, &split.train, &CordialConfig::default()).unwrap();
        let model = Arc::new(ServingModel::new(cordial.clone()));
        let devices = by_device(&dataset);
        assert!(
            devices.len() > 1,
            "seed {seed}: the fleet must span devices"
        );

        for path in [Path::Ingest, Path::IngestAll, Path::IngestAllGuarded] {
            let mut shared_monitors = Vec::new();
            let mut plans = 0;
            for (device, events) in &devices {
                let (_, owned) = run_device(
                    || CordialMonitor::new(cordial.clone(), budget),
                    |state| CordialMonitor::restore(cordial.clone(), state).unwrap(),
                    events,
                    path,
                );
                let (monitor, shared) = run_device(
                    || CordialMonitor::new(Arc::clone(&model), budget),
                    |state| CordialMonitor::restore(Arc::clone(&model), state).unwrap(),
                    events,
                    path,
                );
                assert_eq!(shared, owned, "seed {seed}, {path:?}, device {device:?}");
                plans += shared.plans.len();
                shared_monitors.push(monitor);
            }
            assert!(plans > 0, "seed {seed}, {path:?}: the fleet must plan");
            assert!(shared_monitors
                .iter()
                .all(|monitor| Arc::ptr_eq(monitor.model(), &model)));
            // One reference per live monitor plus `model` itself: no
            // monitor kept a private copy alongside the shared one.
            assert_eq!(Arc::strong_count(&model), shared_monitors.len() + 1);
        }
    }
}
