//! The checkpoint store of recoverable studies.
//!
//! Checkpoints are keyed by string and hold serde_json-encoded values,
//! so any serializable intermediate result (a completed trial, a scored
//! ligand) can be parked where a recovering rank finds it. One type has
//! two backings, with the same encoding and ledger accounting:
//!
//! - [`CheckpointStore::new`] keeps checkpoints in memory, shared by
//!   every clone. Enough when the ranks are threads of one process,
//!   useless when the crashing thing is the process itself.
//! - [`CheckpointStore::open`] keeps one file per key in a directory,
//!   written atomically (tmp + rename). A checkpoint survives the death
//!   of the process that saved it, so a wire-mode survivor that opens the
//!   same directory restores exactly the keys a killed rank saved.

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use parking_lot::Mutex;
use serde::de::DeserializeOwned;
use serde::Serialize;

use crate::injector::FaultLog;

/// Shared, thread-safe checkpoint store, in memory or on disk.
#[derive(Clone)]
pub struct CheckpointStore {
    slots: Slots,
    log: Arc<FaultLog>,
}

/// Where a store's checkpoints live.
#[derive(Clone)]
enum Slots {
    /// Key → JSON, shared by every clone.
    Memory(Arc<Mutex<HashMap<String, String>>>),
    /// One `<key>.ckpt` file per key in this directory.
    Dir(PathBuf),
}

impl CheckpointStore {
    /// New empty in-memory store reporting into `log`.
    pub fn new(log: Arc<FaultLog>) -> Self {
        Self {
            slots: Slots::Memory(Arc::default()),
            log,
        }
    }

    /// Open (creating if needed) the on-disk store rooted at `dir`,
    /// reporting into `log`. Keys map to file names with `/` flattened to
    /// `_`; keys must be distinct under that mapping.
    pub fn open(dir: impl Into<PathBuf>, log: Arc<FaultLog>) -> std::io::Result<Self> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir)?;
        Ok(Self {
            slots: Slots::Dir(dir),
            log,
        })
    }

    /// Save a checkpoint (overwrites an existing key). On disk the write
    /// is atomic, so a reader in any process sees a key's complete old
    /// value or its complete new one, never a torn file.
    pub fn save<T: Serialize>(&self, key: &str, value: &T) {
        let json = serde_json::to_string(value).expect("checkpoint value serializes");
        match &self.slots {
            Slots::Memory(map) => {
                map.lock().insert(key.to_string(), json);
            }
            Slots::Dir(dir) => {
                let path = key_path(dir, key);
                let tmp = path.with_extension("ckpt.tmp");
                std::fs::write(&tmp, json).expect("checkpoint tmp write");
                std::fs::rename(&tmp, &path).expect("checkpoint rename");
            }
        }
        self.log.checkpoint_saved();
    }

    /// Load a checkpoint, counting a restore when one decodes.
    pub fn load<T: DeserializeOwned>(&self, key: &str) -> Option<T> {
        let value = self.peek(key)?;
        self.log.checkpoint_restored();
        Some(value)
    }

    /// Read a checkpoint *without* counting a restore — for final
    /// assembly of results, where reading back is bookkeeping rather
    /// than recovered work.
    pub fn peek<T: DeserializeOwned>(&self, key: &str) -> Option<T> {
        let json = match &self.slots {
            Slots::Memory(map) => map.lock().get(key).cloned()?,
            Slots::Dir(dir) => std::fs::read_to_string(key_path(dir, key)).ok()?,
        };
        serde_json::from_str(&json).ok()
    }

    /// True if a checkpoint exists for `key` (no restore is counted).
    pub fn contains(&self, key: &str) -> bool {
        match &self.slots {
            Slots::Memory(map) => map.lock().contains_key(key),
            Slots::Dir(dir) => key_path(dir, key).exists(),
        }
    }

    /// Number of stored checkpoints.
    pub fn len(&self) -> usize {
        match &self.slots {
            Slots::Memory(map) => map.lock().len(),
            Slots::Dir(dir) => std::fs::read_dir(dir).map_or(0, |entries| {
                entries
                    .filter_map(Result::ok)
                    .filter(|e| e.path().extension().is_some_and(|x| x == "ckpt"))
                    .count()
            }),
        }
    }

    /// True when nothing has been checkpointed.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// The file that holds `key` in the store rooted at `dir`.
fn key_path(dir: &Path, key: &str) -> PathBuf {
    let name: String = key
        .chars()
        .map(|c| if c == '/' || c == '\\' { '_' } else { c })
        .collect();
    dir.join(format!("{name}.ckpt"))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A fresh, empty scratch directory for one test.
    fn scratch(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("pdc-ckpt-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    /// Run `body` against an in-memory store and an on-disk one, each
    /// with its own ledger. The on-disk store's directory is removed
    /// afterwards.
    fn on_both_backings(name: &str, body: impl Fn(&CheckpointStore, &FaultLog)) {
        let log = Arc::new(FaultLog::default());
        body(&CheckpointStore::new(Arc::clone(&log)), &log);
        let dir = scratch(name);
        let log = Arc::new(FaultLog::default());
        body(
            &CheckpointStore::open(&dir, Arc::clone(&log)).unwrap(),
            &log,
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn save_load_round_trip_counts() {
        on_both_backings("rt", |store, log| {
            assert!(store.is_empty());
            store.save("fire/0/3", &vec![0.25f64, 0.5]);
            assert!(store.contains("fire/0/3"));
            assert_eq!(store.len(), 1);
            let back: Vec<f64> = store.load("fire/0/3").unwrap();
            assert_eq!(back, vec![0.25, 0.5]);
            assert_eq!(store.peek::<Vec<f64>>("fire/0/3"), Some(vec![0.25, 0.5]));
            let s = log.stats();
            assert_eq!((s.checkpoints_saved, s.checkpoints_restored), (1, 1));
        });
    }

    #[test]
    fn missing_or_undecodable_key_is_none_and_uncounted() {
        on_both_backings("none", |store, log| {
            assert_eq!(store.load::<u32>("nope"), None);
            store.save("word", &"not a number");
            assert_eq!(store.load::<u32>("word"), None);
            assert_eq!(log.stats().checkpoints_restored, 0);
        });
    }

    #[test]
    fn clones_share_slots() {
        on_both_backings("clone", |store, _| {
            let other = store.clone();
            store.save("k", &7u32);
            assert_eq!(other.load::<u32>("k"), Some(7));
        });
    }

    #[test]
    fn garbage_file_loads_as_none_and_counts_no_restore() {
        let dir = scratch("garbage");
        let log = Arc::new(FaultLog::default());
        let store = CheckpointStore::open(&dir, Arc::clone(&log)).unwrap();
        std::fs::write(dir.join("fire_4.ckpt"), b"\x00{torn").unwrap();
        assert!(store.contains("fire/4"));
        assert_eq!(store.load::<u32>("fire/4"), None);
        assert_eq!(log.stats().checkpoints_restored, 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn file_store_survives_reopening() {
        // The point of the on-disk backing: a fresh handle (a survivor
        // adopting a dead rank's work) sees everything saved before the
        // kill.
        let dir = scratch("reopen");
        {
            let store = CheckpointStore::open(&dir, Arc::new(FaultLog::default())).unwrap();
            store.save("k", &41u32);
        }
        let store = CheckpointStore::open(&dir, Arc::new(FaultLog::default())).unwrap();
        assert_eq!(store.load::<u32>("k"), Some(41));
        assert_eq!(store.len(), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
