//! Property-based tests for the ingest guard's reorder buffer: bounded
//! disorder is repaired exactly, unbounded disorder is survived, and the
//! outcome split stays complete either way.

use std::sync::{Arc, OnceLock};

use proptest::prelude::*;

use cordial::monitor::{CordialMonitor, GuardConfig, IngestOutcome};
use cordial::pipeline::{Cordial, ServingModel};
use cordial::split::split_banks;
use cordial::CordialConfig;
use cordial_faultsim::{generate_fleet_dataset, FleetDatasetConfig, SparingBudget};
use cordial_mcelog::{ErrorEvent, ErrorType, Timestamp};
use cordial_topology::{BankAddress, ColId, RowId};

/// Milliseconds between consecutive true event times.
const STEP_MS: u64 = 2_000;

/// Fitting a pipeline dominates a proptest case, so train once and share.
fn model() -> &'static Arc<ServingModel> {
    static MODEL: OnceLock<Arc<ServingModel>> = OnceLock::new();
    MODEL.get_or_init(|| {
        let dataset = generate_fleet_dataset(&FleetDatasetConfig::small(), 11);
        let split = split_banks(&dataset, 0.7, 11);
        let config = CordialConfig::default().with_seed(11);
        Cordial::fit(&dataset, &split.train, &config)
            .expect("fit")
            .into()
    })
}

fn guarded_monitor(reorder_bound_ms: u64) -> CordialMonitor {
    CordialMonitor::new(Arc::clone(model()), SparingBudget::typical())
        .with_guard_config(GuardConfig { reorder_bound_ms })
}

/// Distinct CE events on one bank, one per row, `STEP_MS` apart.
fn base_events(n: usize) -> Vec<ErrorEvent> {
    let bank = BankAddress::default();
    (0..n)
        .map(|i| {
            ErrorEvent::new(
                bank.cell(RowId(i as u32), ColId(0)),
                Timestamp::from_millis((i as u64 + 1) * STEP_MS),
                ErrorType::Ce,
            )
        })
        .collect()
}

/// Arrival order induced by jittering each true time by less than half the
/// reorder bound: any two events swap by strictly less than the bound.
fn jittered_order(events: &[ErrorEvent], jitter_ms: &[i64]) -> Vec<ErrorEvent> {
    let mut order: Vec<usize> = (0..events.len()).collect();
    order.sort_by_key(|&i| (events[i].time.as_millis() as i128 + jitter_ms[i] as i128, i));
    order.into_iter().map(|i| events[i]).collect()
}

/// A reorder bound plus one sub-half-bound jitter per event.
fn arb_bounded_disorder() -> impl Strategy<Value = (u64, Vec<i64>)> {
    (10_000u64..120_000, 8usize..48).prop_flat_map(|(bound, n)| {
        let half = (bound / 2).saturating_sub(1) as i64;
        (Just(bound), proptest::collection::vec(-half..=half, n))
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Any permutation whose pairwise displacement stays inside the reorder
    /// bound is repaired exactly: nothing is rejected as late, the released
    /// stream is sorted by timestamp, every event is accounted for, and the
    /// outcome split is complete after `flush_guarded`.
    #[test]
    fn bounded_disorder_is_repaired_exactly((bound, jitter) in arb_bounded_disorder()) {
        let events = base_events(jitter.len());
        let arrival = jittered_order(&events, &jitter);

        let mut monitor = guarded_monitor(bound);
        let mut released = Vec::new();
        for event in &arrival {
            released.extend(monitor.ingest_guarded(*event));
        }
        released.extend(monitor.flush_guarded());

        let stats = monitor.stats();
        prop_assert_eq!(stats.rejected_late, 0, "disorder < bound must never reject");
        prop_assert_eq!(released.len(), events.len());
        for pair in released.windows(2) {
            prop_assert!(
                pair[0].0.time <= pair[1].0.time,
                "guard must release in timestamp order: {:?} then {:?}",
                pair[0].0,
                pair[1].0
            );
        }
        prop_assert_eq!(stats.events, events.len());
        prop_assert!(stats.split_is_complete(), "split incomplete: {stats:?}");
    }

    /// An *arbitrary* permutation (no bound) is still survivable: late events
    /// are rejected rather than ingested out of order, the released stream
    /// stays sorted, and released + rejected accounts for every event.
    #[test]
    fn unbounded_shuffles_are_survived(
        shuffle_seed in 0u64..10_000,
        bound_steps in 1u64..8,
    ) {
        use rand::seq::SliceRandom;
        use rand::SeedableRng;
        let mut order: Vec<usize> = (0..32).collect();
        order.shuffle(&mut rand::rngs::StdRng::seed_from_u64(shuffle_seed));
        let events = base_events(order.len());
        let bound = bound_steps * STEP_MS;

        let mut monitor = guarded_monitor(bound);
        let mut released = Vec::new();
        let mut rejected = 0usize;
        for &i in &order {
            for (event, outcome) in monitor.ingest_guarded(events[i]) {
                if matches!(outcome, IngestOutcome::Rejected { .. }) {
                    rejected += 1;
                } else {
                    released.push(event);
                }
            }
        }
        for (event, _) in monitor.flush_guarded() {
            released.push(event);
        }

        let stats = monitor.stats();
        prop_assert_eq!(released.len() + rejected, events.len());
        for pair in released.windows(2) {
            prop_assert!(pair[0].time <= pair[1].time);
        }
        prop_assert_eq!(stats.events, events.len());
        prop_assert!(stats.split_is_complete(), "split incomplete: {stats:?}");
    }
}
