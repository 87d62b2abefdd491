//! Workload generator: a pure function of workload, seed and size.
//!
//! Every workload is built from passes over one base fleet, the `small`
//! simulated fleet at [`BASE_SEED`] (3,509 events on 147 devices and 505
//! banks). A pass is the whole base log, re-timed past the previous
//! pass's horizon and relabelled so that no pass re-times a bank that an
//! earlier pass already planned:
//!
//! * `onboard` moves each pass onto fresh device IDs, so every device is
//!   new to the daemon;
//! * `steady` and `journaled` keep a fixed set of device IDs and move
//!   each pass's banks onto bank slots their device has not used yet.
//!
//! Relabelling keeps each device's HBM socket index, so the daemon's
//! device-to-shard routing (`DeviceId::salt` modulo the shard count)
//! spreads every pass the way it spreads the base fleet.

use std::collections::{BTreeMap, BTreeSet};

use cordial_faultsim::{generate_fleet_dataset, FleetDatasetConfig};
use cordial_fleet::DeviceId;
use cordial_mcelog::{ErrorEvent, Timestamp};
use cordial_store::FsyncPolicy;
use cordial_topology::{
    BankAddress, BankGroup, BankIndex, Channel, HbmGeometry, NodeId, PseudoChannel, StackId,
};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// Seed of the base fleet every workload is cut from.
pub const BASE_SEED: u64 = 99;

/// Events per wire batch, on every workload. It is the largest power of
/// two at which `onboard`, whose memory cost keeps a round at 6 passes,
/// still acks more than 1,000 batches in a 30-second run; at the default
/// of `cordial-cli load --batch` (1,024) it acks about 300 to 500. Smaller
/// batches drop the share of `steady` and `journaled` batches that meet
/// `RetryAfter` to about 1%, where `ack_p99_ms` flips between an immediate
/// ack and a back-off (see `perfbench/README.md`).
pub const BATCH_SIZE: usize = 256;

/// The journal's fsync policy on `journaled`: once per 4,096 events, every
/// sixteenth batch. The traced runs of every workload time the store
/// layer under it.
pub const JOURNAL_FSYNC: FsyncPolicy = FsyncPolicy::Batch(4096);

/// The benchmark's traffic mixes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Every pass on fresh devices: monitor construction dominates.
    Onboard,
    /// A fixed device set whose banks keep reaching their plan trigger:
    /// features and inference dominate.
    Steady,
    /// `steady`'s traffic into a journaling daemon restarted from a
    /// crash: journal-before-ack, recovery and boot replay.
    Journaled,
}

impl Workload {
    /// Parses a workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        match name {
            "onboard" => Some(Workload::Onboard),
            "steady" => Some(Workload::Steady),
            "journaled" => Some(Workload::Journaled),
            _ => None,
        }
    }

    /// The workload's name, as `--workload` takes it.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Onboard => "onboard",
            Workload::Steady => "steady",
            Workload::Journaled => "journaled",
        }
    }

    /// Passes over the base fleet in one daemon round.
    pub fn passes(self) -> usize {
        match self {
            // 6 × 147 = 882 fresh devices: ~0.8 GB of daemon RSS while
            // every monitor holds its own copy of the model.
            Workload::Onboard => 6,
            Workload::Steady => 96,
            Workload::Journaled => 96,
        }
    }

    /// Copies of the base device set the passes rotate over (`steady`
    /// and `journaled`; `onboard` uses fresh devices per pass).
    pub fn device_sets(self) -> usize {
        match self {
            Workload::Onboard => 0,
            Workload::Steady | Workload::Journaled => 2,
        }
    }

    /// Passes sent before the timed window: they build every monitor of
    /// the fixed device set (`steady`), or go into the journal of the
    /// daemon that is killed before the timed restart (`journaled`).
    pub fn lead_passes(self) -> usize {
        match self {
            Workload::Onboard => 0,
            Workload::Steady => 2,
            Workload::Journaled => 32,
        }
    }
}

/// The `small` simulated fleet at [`BASE_SEED`], in log order.
pub fn base_fleet() -> Vec<ErrorEvent> {
    generate_fleet_dataset(&FleetDatasetConfig::small(), BASE_SEED)
        .log
        .events()
        .to_vec()
}

/// A generated event stream.
#[derive(Debug, Clone, PartialEq)]
pub struct Stream {
    /// Every event, in send order.
    pub events: Vec<ErrorEvent>,
    /// Events per pass (the base fleet's length).
    pub pass_len: usize,
    /// Passes in `events`.
    pub passes: usize,
}

impl Stream {
    /// The events of passes `from..to`.
    pub fn passes(&self, from: usize, to: usize) -> &[ErrorEvent] {
        &self.events[from * self.pass_len..to * self.pass_len]
    }
}

/// The bank at `slot` (0..banks_per_hbm) of a device.
fn bank_at(device: DeviceId, slot: usize, geom: &HbmGeometry) -> BankAddress {
    let mut rest = slot;
    let mut digit = |radix: u8| {
        let value = (rest % usize::from(radix)) as u8;
        rest /= usize::from(radix);
        value
    };
    let bank = BankIndex(digit(geom.banks_per_group));
    let bank_group = BankGroup(digit(geom.bank_groups));
    let pseudo_channel = PseudoChannel(digit(geom.pseudo_channels));
    let channel = Channel(digit(geom.channels));
    let sid = StackId(digit(geom.sids));
    BankAddress::new(
        device.node,
        device.npu,
        device.hbm,
        sid,
        channel,
        pseudo_channel,
        bank_group,
        bank,
    )
}

/// Builds `passes` passes of `workload` over `base`.
///
/// # Panics
///
/// When a `steady`/`journaled` device would run out of unused bank
/// slots (more passes than `device_sets × banks_per_hbm / banks`).
pub fn generate(workload: Workload, seed: u64, passes: usize, base: &[ErrorEvent]) -> Stream {
    let geom = FleetDatasetConfig::small().fleet.geometry;
    let span_ms = base
        .iter()
        .map(|e| e.time.as_millis())
        .max()
        .map_or(1, |max| max + 1);
    let devices: Vec<DeviceId> = base
        .iter()
        .map(|e| DeviceId::of(&e.addr.bank))
        .collect::<BTreeSet<_>>()
        .into_iter()
        .collect();
    let device_index: BTreeMap<DeviceId, usize> =
        devices.iter().enumerate().map(|(i, d)| (*d, i)).collect();
    // Each base device's banks, in address order.
    let mut banks_of: Vec<Vec<BankAddress>> = vec![Vec::new(); devices.len()];
    for event in base {
        let banks = &mut banks_of[device_index[&DeviceId::of(&event.addr.bank)]];
        if !banks.contains(&event.addr.bank) {
            banks.push(event.addr.bank);
        }
    }
    for banks in &mut banks_of {
        banks.sort();
    }
    let n = devices.len();
    // A device's new identity: its base npu/hbm on a node no other
    // device of the stream uses.
    let relabel = |base: DeviceId, node: usize| DeviceId {
        node: NodeId(node as u32),
        ..base
    };

    // A seeded permutation of `0..len`, drawn from `rng`'s stream.
    let permutation = |len: usize, rng: &mut StdRng| {
        let mut items: Vec<usize> = (0..len).collect();
        items.shuffle(rng);
        items
    };
    let mut rng = StdRng::seed_from_u64(seed);

    let mut events = Vec::with_capacity(base.len() * passes);
    match workload {
        Workload::Onboard => {
            for pass in 0..passes {
                let order = permutation(n, &mut rng);
                for event in base {
                    let i = device_index[&DeviceId::of(&event.addr.bank)];
                    let device = relabel(devices[i], pass * n + order[i]);
                    let mut event = *event;
                    event.addr.bank.node = device.node;
                    event.time =
                        Timestamp::from_millis(event.time.as_millis() + span_ms * pass as u64);
                    events.push(event);
                }
            }
        }
        Workload::Steady | Workload::Journaled => {
            let sets = workload.device_sets();
            let order = permutation(n, &mut rng);
            let slots_per_device = geom.banks_per_hbm() as usize;
            // One slot permutation per (device set, device): round r of a
            // device with m banks uses slots r*m .. r*m + m.
            let slots: Vec<Vec<usize>> = (0..sets * n)
                .map(|_| permutation(slots_per_device, &mut rng))
                .collect();
            for pass in 0..passes {
                let (set, round) = (pass % sets, pass / sets);
                let mut moved: BTreeMap<BankAddress, BankAddress> = BTreeMap::new();
                for (i, banks) in banks_of.iter().enumerate() {
                    let device = relabel(devices[i], set * n + order[i]);
                    let slot_order = &slots[set * n + i];
                    for (j, bank) in banks.iter().enumerate() {
                        let slot = round * banks.len() + j;
                        assert!(
                            slot < slots_per_device,
                            "{passes} passes exhaust the bank slots of a device with {} banks",
                            banks.len()
                        );
                        moved.insert(*bank, bank_at(device, slot_order[slot], &geom));
                    }
                }
                for event in base {
                    let mut event = *event;
                    event.addr.bank = moved[&event.addr.bank];
                    event.time =
                        Timestamp::from_millis(event.time.as_millis() + span_ms * pass as u64);
                    events.push(event);
                }
            }
        }
    }
    Stream {
        events,
        pass_len: base.len(),
        passes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cordial::prelude::{Cordial, CordialConfig, CordialMonitor, SparingBudget};
    use cordial::split::split_banks;

    fn device_ids(events: &[ErrorEvent]) -> BTreeSet<DeviceId> {
        events.iter().map(|e| DeviceId::of(&e.addr.bank)).collect()
    }

    fn banks(events: &[ErrorEvent]) -> BTreeSet<BankAddress> {
        events.iter().map(|e| e.addr.bank).collect()
    }

    #[test]
    fn generator_is_a_pure_function_of_workload_seed_and_size() {
        let base = base_fleet();
        for workload in [Workload::Onboard, Workload::Steady, Workload::Journaled] {
            let a = generate(workload, 7, 4, &base);
            assert_eq!(a, generate(workload, 7, 4, &base), "{}", workload.name());
            assert_ne!(a, generate(workload, 8, 4, &base), "{}", workload.name());
            assert_eq!(a.events.len(), 4 * base.len());
            let shorter = generate(workload, 7, 3, &base);
            assert_eq!(shorter.events[..], a.events[..shorter.events.len()]);
        }
        assert_ne!(
            generate(Workload::Onboard, 7, 4, &base),
            generate(Workload::Steady, 7, 4, &base)
        );
    }

    #[test]
    fn onboard_never_reuses_a_device_across_passes() {
        let base = base_fleet();
        let stream = generate(Workload::Onboard, 11, 5, &base);
        let base_devices = device_ids(&base).len();
        let mut seen = BTreeSet::new();
        for pass in 0..stream.passes {
            let ids = device_ids(stream.passes(pass, pass + 1));
            assert_eq!(ids.len(), base_devices);
            for id in ids {
                assert!(seen.insert(id), "{id} reused in pass {pass}");
            }
        }
    }

    #[test]
    fn steady_never_reuses_a_bank_and_keeps_its_device_set() {
        let base = base_fleet();
        let workload = Workload::Steady;
        let passes = 51 * workload.device_sets();
        let stream = generate(workload, 5, passes, &base);
        let fixed = device_ids(stream.passes(0, workload.device_sets()));
        assert_eq!(
            fixed.len(),
            workload.device_sets() * device_ids(&base).len()
        );
        let mut seen = BTreeSet::new();
        for pass in 0..stream.passes {
            let events = stream.passes(pass, pass + 1);
            assert!(
                device_ids(events).is_subset(&fixed),
                "pass {pass} left the device set"
            );
            let pass_banks = banks(events);
            assert_eq!(pass_banks.len(), banks(&base).len());
            for bank in pass_banks {
                assert!(seen.insert(bank), "{bank} reused in pass {pass}");
            }
        }
    }

    /// Banks planned when `events` stream through fresh monitors.
    fn planned(pipeline: &Cordial, events: &[ErrorEvent]) -> usize {
        let mut by_device: BTreeMap<DeviceId, Vec<ErrorEvent>> = BTreeMap::new();
        for event in events {
            by_device
                .entry(DeviceId::of(&event.addr.bank))
                .or_default()
                .push(*event);
        }
        by_device
            .into_values()
            .map(|events| {
                let mut monitor = CordialMonitor::new(pipeline.clone(), SparingBudget::typical());
                monitor.ingest_all(events).len()
            })
            .sum()
    }

    #[test]
    fn every_pass_plans_as_many_banks_as_the_base_fleet() {
        let base = base_fleet();
        let dataset = generate_fleet_dataset(&FleetDatasetConfig::small(), 2025);
        let split = split_banks(&dataset, 0.7, 2025);
        let pipeline = Cordial::fit(&dataset, &split.train, &CordialConfig::default()).unwrap();
        let per_pass = planned(&pipeline, &base);
        assert!(per_pass > 0, "the base fleet must plan");
        for workload in [Workload::Onboard, Workload::Steady] {
            let passes = 4;
            let stream = generate(workload, 3, passes, &base);
            assert_eq!(
                planned(&pipeline, &stream.events),
                passes * per_pass,
                "{}",
                workload.name()
            );
        }
    }
}
