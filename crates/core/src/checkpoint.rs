//! Migration-aware checkpoint loading.
//!
//! [`MonitorCheckpoint`](crate::monitor::MonitorCheckpoint) used to
//! hand-roll its versioning: deserialization peeked at `schema_version`
//! and [`CordialMonitor::restore`](crate::monitor::CordialMonitor::restore)
//! refused anything but the current value, so a checkpoint written by an
//! older release was simply unloadable. This module moves that handling
//! onto the store's numbered [`MigrationRegistry`]: each version step is a
//! small pure JSON rewrite (`migrate_v0_v1`-style), registered once, and
//! every loader — the CLI's `--resume`, the serving daemon's checkpoint
//! directory, the durable event store — goes through [`load_checkpoint_value`]
//! so old checkpoints upgrade instead of erroring.
//!
//! Payloads from a *newer* release still fail, with the greppable
//! "unsupported future schema version" message of
//! [`MigrationError::FutureVersion`].

use std::fmt;

use cordial_store::{migrate::set_version, Migration, MigrationError, MigrationRegistry};
use serde::{Deserialize, Value};

use crate::monitor::{MonitorCheckpoint, CHECKPOINT_SCHEMA_VERSION};

/// The migration chain for [`MonitorCheckpoint`] payloads, reaching
/// [`CHECKPOINT_SCHEMA_VERSION`].
///
/// Version history:
///
/// * **v0 → v1** (`migrate_v0_v1`): the pre-versioning era. Field layout
///   is already v1's; the step validates the required fields and stamps
///   `schema_version`.
pub fn checkpoint_migrations() -> MigrationRegistry {
    let mut registry = MigrationRegistry::new(u64::from(CHECKPOINT_SCHEMA_VERSION));
    registry.register(Migration {
        from: 0,
        name: "migrate_v0_v1",
        apply: migrate_v0_v1,
    });
    registry
}

/// v0 (pre-versioning) checkpoints carry the same fields as v1 minus the
/// version stamp; upgrading is validating the shape and adding the stamp.
fn migrate_v0_v1(mut value: Value) -> Result<Value, String> {
    for required in ["engine", "banks", "stats", "guard"] {
        if value.get(required).is_none() {
            return Err(format!(
                "pre-versioning checkpoint is missing its `{required}` field"
            ));
        }
    }
    set_version(&mut value, 1)?;
    Ok(value)
}

/// Why a checkpoint payload could not be loaded.
#[derive(Debug)]
pub enum CheckpointLoadError {
    /// The payload is not valid JSON.
    Parse(String),
    /// The payload could not be migrated to the current schema (including
    /// the typed future-version refusal).
    Migration(MigrationError),
    /// The migrated payload still failed to deserialize.
    Decode(serde::Error),
}

impl fmt::Display for CheckpointLoadError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckpointLoadError::Parse(why) => write!(f, "checkpoint is not valid JSON: {why}"),
            CheckpointLoadError::Migration(err) => write!(f, "{err}"),
            CheckpointLoadError::Decode(err) => {
                write!(f, "migrated checkpoint failed to decode: {err}")
            }
        }
    }
}

impl std::error::Error for CheckpointLoadError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CheckpointLoadError::Migration(err) => Some(err),
            _ => None,
        }
    }
}

impl From<MigrationError> for CheckpointLoadError {
    fn from(err: MigrationError) -> Self {
        CheckpointLoadError::Migration(err)
    }
}

/// Loads a checkpoint from its JSON [`Value`] tree, migrating it to the
/// current schema first. Returns the checkpoint and the schema version the
/// payload started at (so callers can log "migrated from v0").
///
/// # Errors
///
/// [`CheckpointLoadError::Migration`] when no chain reaches the current
/// version (notably [`MigrationError::FutureVersion`] for payloads from
/// newer releases), [`CheckpointLoadError::Decode`] when the upgraded tree
/// still does not deserialize.
pub fn load_checkpoint_value(
    value: Value,
) -> Result<(MonitorCheckpoint, u64), CheckpointLoadError> {
    let (upgraded, started_at) = checkpoint_migrations().upgrade(value)?;
    let checkpoint =
        MonitorCheckpoint::from_value(&upgraded).map_err(CheckpointLoadError::Decode)?;
    Ok((checkpoint, started_at))
}

/// Loads a checkpoint from JSON text via [`load_checkpoint_value`].
///
/// # Errors
///
/// [`CheckpointLoadError::Parse`] on malformed JSON, plus everything
/// [`load_checkpoint_value`] reports.
pub fn load_checkpoint_json(text: &str) -> Result<(MonitorCheckpoint, u64), CheckpointLoadError> {
    let value =
        serde_json::parse_value_str(text).map_err(|e| CheckpointLoadError::Parse(e.to_string()))?;
    load_checkpoint_value(value)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::CordialConfig;
    use crate::monitor::CordialMonitor;
    use crate::pipeline::Cordial;
    use crate::split::split_banks;
    use cordial_faultsim::{generate_fleet_dataset, FleetDatasetConfig, SparingBudget};
    use serde::Serialize;
    use std::sync::Arc;

    fn sample_monitor() -> CordialMonitor {
        let dataset = generate_fleet_dataset(&FleetDatasetConfig::small(), 17);
        let split = split_banks(&dataset, 0.7, 17);
        let cordial = Cordial::fit(&dataset, &split.train, &CordialConfig::default())
            .expect("fit must succeed");
        let mut monitor = CordialMonitor::new(cordial, SparingBudget::typical());
        monitor.ingest_all(dataset.log.events().iter().copied());
        monitor
    }

    fn strip_version(value: Value) -> Value {
        match value {
            Value::Map(fields) => Value::Map(
                fields
                    .into_iter()
                    .filter(|(key, _)| key != "schema_version")
                    .collect(),
            ),
            other => other,
        }
    }

    #[test]
    fn v0_checkpoints_load_through_the_migration_chain() {
        let monitor = sample_monitor();
        let checkpoint = monitor.checkpoint();
        let v0 = strip_version(checkpoint.to_value());
        assert_eq!(MigrationRegistry::version_of(&v0), Ok(0));

        let (loaded, started_at) = load_checkpoint_value(v0).expect("v0 must migrate");
        assert_eq!(started_at, 0);
        assert_eq!(loaded.schema_version(), CHECKPOINT_SCHEMA_VERSION);

        // The migrated checkpoint restores to the same monitor state.
        let restored =
            CordialMonitor::restore(Arc::clone(monitor.model()), loaded).expect("restore");
        assert_eq!(restored.stats(), monitor.stats());
    }

    #[test]
    fn current_checkpoints_round_trip_unchanged() {
        let monitor = sample_monitor();
        let json = serde_json::to_string(&monitor.checkpoint()).expect("serialize");
        let (loaded, started_at) = load_checkpoint_json(&json).expect("load");
        assert_eq!(started_at, u64::from(CHECKPOINT_SCHEMA_VERSION));
        let restored =
            CordialMonitor::restore(Arc::clone(monitor.model()), loaded).expect("restore");
        assert_eq!(restored.stats(), monitor.stats());
    }

    #[test]
    fn future_versions_fail_with_the_greppable_error() {
        let mut value = sample_monitor().checkpoint().to_value();
        set_version(&mut value, u64::from(CHECKPOINT_SCHEMA_VERSION) + 7).expect("set");
        let err = load_checkpoint_value(value).expect_err("future version must fail");
        assert!(
            err.to_string()
                .contains("unsupported future schema version"),
            "got: {err}"
        );
    }

    #[test]
    fn truncated_v0_payloads_name_the_missing_field() {
        let v0 = Value::Map(vec![("engine".to_string(), Value::Map(vec![]))]);
        let err = load_checkpoint_value(v0).expect_err("incomplete v0 must fail");
        assert!(err.to_string().contains("banks"), "got: {err}");
    }
}
