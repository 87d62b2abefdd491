//! Every fleet lifecycle path hands its monitors the registry's one
//! incumbent model: after a promotion, a rollback, a breaker restore and
//! an eviction rebuild from the store, each device slot points at
//! `registry().incumbent()` itself rather than at a copy.

use std::sync::Arc;

use cordial::pipeline::Cordial;
use cordial::split::split_banks;
use cordial::CordialConfig;
use cordial_faultsim::{generate_fleet_dataset, FleetDataset, FleetDatasetConfig, SparingBudget};
use cordial_fleet::{DeviceId, FleetSupervisor, SupervisorConfig};
use cordial_mcelog::{ErrorEvent, ErrorType, Timestamp};
use cordial_store::{Store, StoreConfig};
use cordial_topology::{ColId, RowId};

fn fitted(dataset: &FleetDataset, seed: u64, config: CordialConfig) -> Cordial {
    let split = split_banks(dataset, 0.7, seed);
    Cordial::fit(dataset, &split.train, &config.with_seed(seed)).unwrap()
}

fn assert_slots_share_the_incumbent(supervisor: &FleetSupervisor, after: &str) {
    let incumbent = supervisor.registry().incumbent();
    let ids = supervisor.device_ids();
    assert!(!ids.is_empty(), "{after}: no devices registered");
    for id in ids {
        let monitor = supervisor.monitor(id).unwrap();
        assert!(
            Arc::ptr_eq(monitor.model(), incumbent),
            "{after}: device {id} does not share the incumbent"
        );
    }
}

#[test]
fn promotion_and_rollback_move_every_slot_to_the_incumbent() {
    let dataset = generate_fleet_dataset(&FleetDatasetConfig::small(), 7);
    let good = fitted(&dataset, 7, CordialConfig::default());
    // An overconfident threshold: plans isolate almost nothing, so the
    // live-precision canary rolls it back.
    let bad = fitted(
        &dataset,
        7,
        CordialConfig {
            block_threshold: Some(0.999),
            ..CordialConfig::default()
        },
    );
    let devices: std::collections::BTreeSet<DeviceId> = dataset
        .log
        .events()
        .iter()
        .map(|e| DeviceId::of(&e.addr.bank))
        .collect();
    let config = SupervisorConfig {
        precision_floor: 0.10,
        min_planned: 5,
        budget: SparingBudget {
            spare_rows_per_bank: 64,
            spare_banks_per_hbm: 0,
        },
        ..SupervisorConfig::default()
    };
    let mut supervisor = FleetSupervisor::new(config, good, devices);
    assert_slots_share_the_incumbent(&supervisor, "registration");
    let original = Arc::clone(supervisor.registry().incumbent());

    supervisor.force_promote(bad);
    assert!(!Arc::ptr_eq(supervisor.registry().incumbent(), &original));
    assert_slots_share_the_incumbent(&supervisor, "force_promote");

    for event in dataset.log.events() {
        supervisor.route(*event);
    }
    supervisor.finish();
    // The canary runs at routing sweeps too, so the rollback may already
    // have happened; this call covers the case where it has not.
    supervisor.maybe_rollback();
    assert_eq!(supervisor.registry().rollbacks(), 1, "the canary must fire");
    assert!(
        Arc::ptr_eq(supervisor.registry().incumbent(), &original),
        "rollback reinstates the original model, not a copy of it"
    );
    assert_slots_share_the_incumbent(&supervisor, "maybe_rollback");
}

#[test]
fn breaker_restores_and_store_rebuilds_share_the_incumbent() {
    let dir = std::env::temp_dir().join(format!("fleet-shared-model-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let dataset = generate_fleet_dataset(&FleetDatasetConfig::small(), 23);
    let pipeline = fitted(&dataset, 23, CordialConfig::default());
    let config = SupervisorConfig {
        checkpoint_every: 16,
        ..SupervisorConfig::default()
    };
    let store = Store::open(&dir, StoreConfig::default()).unwrap();
    let mut supervisor =
        FleetSupervisor::new(config, pipeline.clone(), Vec::new()).with_store(store);
    let events = dataset.log.events();
    for event in events {
        supervisor.route(*event);
    }
    // A promotion before the faults: restores and rebuilds must pick up
    // the model serving now, not the one the supervisor started with.
    supervisor.force_promote(pipeline.clone());
    assert_slots_share_the_incumbent(&supervisor, "force_promote");

    let victim = supervisor
        .statuses()
        .into_iter()
        .max_by_key(|s| s.routed)
        .map(|s| s.id)
        .unwrap();
    let victim_bank = events
        .iter()
        .map(|e| e.addr.bank)
        .find(|bank| DeviceId::of(bank) == victim)
        .unwrap();
    supervisor.inject_panic_after(victim, 1);
    let mut t = supervisor.watermark_ms();
    let mut checked_restore = false;
    for row in 0..200u32 {
        t += 120_000;
        supervisor.route(ErrorEvent::new(
            victim_bank.cell(RowId(row % 8), ColId(0)),
            Timestamp::from_millis(t),
            ErrorType::Ce,
        ));
        if !checked_restore && supervisor.status(victim).unwrap().restores > 0 {
            assert_slots_share_the_incumbent(&supervisor, "breaker restore");
            checked_restore = true;
        }
        if supervisor.evicted_devices().contains(&victim) {
            break;
        }
    }
    assert!(
        checked_restore,
        "the panic must trip and restore the device"
    );
    assert!(supervisor.evicted_devices().contains(&victim));

    assert!(supervisor.rebuild_from_store(victim));
    assert_slots_share_the_incumbent(&supervisor, "rebuild_from_store");

    // A restarted supervisor re-registers every device from the store.
    supervisor.finish();
    let ids = supervisor.device_ids();
    drop(supervisor);
    let store = Store::open(&dir, StoreConfig::default()).unwrap();
    let mut resumed = FleetSupervisor::new(config, pipeline, Vec::new()).with_store(store);
    for id in ids {
        resumed.register_device(id);
    }
    assert_slots_share_the_incumbent(&resumed, "registration from the store");
    let _ = std::fs::remove_dir_all(&dir);
}
