//! Durable generation storage with deterministic crash recovery.
//!
//! A [`SnapshotStore`] is a directory of epoch-named snapshot files
//! (`gen-<epoch>.snap`), each written through the crash-safe
//! [`CsrGraph::write_to_path`] protocol (write temp sibling, fsync, atomic
//! rename). Recovery scans the directory **newest epoch first** and restores
//! the first snapshot that decodes cleanly — so after a torn or interrupted
//! write the service deterministically falls back to the last durable
//! generation, reporting (not panicking over) everything it skipped.
//! Stray `.tmp` staging files from interrupted writes are ignored outright.
//!
//! The store keeps no reader for retired snapshot format versions: a
//! generation written in an older version is skipped like a corrupt one.
//! Moving to a new format version therefore makes every older generation
//! unrecoverable, and the service must be re-seeded from its source graph.

use std::fs;
use std::path::{Path, PathBuf};

use avglocal_graph::{CsrGraph, GraphError};

/// Epoch-named snapshot file prefix.
const FILE_PREFIX: &str = "gen-";
/// Epoch-named snapshot file suffix.
const FILE_SUFFIX: &str = ".snap";

/// A directory of durable snapshot generations.
#[derive(Debug, Clone)]
pub struct SnapshotStore {
    dir: PathBuf,
}

/// What [`SnapshotStore::recover`] found.
#[derive(Debug)]
pub struct Recovery {
    /// The newest generation that decoded cleanly, if any.
    pub durable: Option<(u64, CsrGraph)>,
    /// Snapshot files that were skipped, newest first, each with the typed
    /// reason (torn writes surface as
    /// [`GraphError::CorruptSnapshot`]).
    pub skipped: Vec<(PathBuf, GraphError)>,
}

impl SnapshotStore {
    /// Opens (creating if needed) the store directory.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::SnapshotIo`] when the directory cannot be
    /// created.
    pub fn open(dir: impl Into<PathBuf>) -> Result<SnapshotStore, GraphError> {
        let dir = dir.into();
        fs::create_dir_all(&dir).map_err(|e| GraphError::SnapshotIo {
            path: dir.display().to_string(),
            reason: e.to_string(),
        })?;
        Ok(SnapshotStore { dir })
    }

    /// The directory the store persists into.
    #[must_use]
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The file a given epoch is stored at.
    #[must_use]
    pub fn path_for(&self, epoch: u64) -> PathBuf {
        self.dir.join(format!("{FILE_PREFIX}{epoch:020}{FILE_SUFFIX}"))
    }

    /// Durably persists `csr` as generation `epoch`.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::SnapshotIo`] when a filesystem step fails; see
    /// [`CsrGraph::write_to_path`] for the crash-safety protocol.
    pub fn persist(&self, epoch: u64, csr: &CsrGraph) -> Result<PathBuf, GraphError> {
        let path = self.path_for(epoch);
        csr.write_to_path(&path)?;
        Ok(path)
    }

    /// Recovers the newest durable generation, deterministically.
    ///
    /// Scans the store for `gen-*.snap` files, sorts them by epoch descending
    /// and then by path (directory enumeration order never matters), and
    /// decodes each file it found, once, until one snapshot passes full
    /// validation. Files that fail — torn writes, truncations, bit flips —
    /// are recorded in [`Recovery::skipped`] with their typed error and
    /// skipped; nothing in the scan panics. An unreadable or empty directory
    /// recovers to `None`.
    #[must_use]
    pub fn recover(&self) -> Recovery {
        let mut found: Vec<(u64, PathBuf)> = Vec::new();
        if let Ok(entries) = fs::read_dir(&self.dir) {
            for entry in entries.flatten() {
                if let Some(epoch) = parse_epoch(&entry.file_name()) {
                    found.push((epoch, entry.path()));
                }
            }
        }
        found.sort_unstable_by(|a, b| b.0.cmp(&a.0).then_with(|| a.1.cmp(&b.1)));
        let mut skipped = Vec::new();
        for (epoch, path) in found {
            match CsrGraph::read_from_path(&path) {
                Ok(csr) => return Recovery { durable: Some((epoch, csr)), skipped },
                Err(e) => skipped.push((path, e)),
            }
        }
        Recovery { durable: None, skipped }
    }
}

/// Parses `gen-<epoch>.snap` file names; anything else (including `.tmp`
/// staging leftovers) is `None`.
fn parse_epoch(name: &std::ffi::OsStr) -> Option<u64> {
    let name = name.to_str()?;
    let digits = name.strip_prefix(FILE_PREFIX)?.strip_suffix(FILE_SUFFIX)?;
    if digits.is_empty() || !digits.bytes().all(|b| b.is_ascii_digit()) {
        return None;
    }
    digits.parse().ok()
}

#[cfg(test)]
mod tests {
    use super::*;
    use avglocal_graph::generators;

    fn scratch_store(tag: &str) -> SnapshotStore {
        use std::sync::atomic::{AtomicU32, Ordering};
        static SEQ: AtomicU32 = AtomicU32::new(0);
        let seq = SEQ.fetch_add(1, Ordering::Relaxed);
        let dir =
            std::env::temp_dir().join(format!("avglocal-store-{tag}-{}-{seq}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        SnapshotStore::open(dir).unwrap()
    }

    fn teardown(store: &SnapshotStore) {
        let _ = std::fs::remove_dir_all(store.dir());
    }

    #[test]
    fn empty_store_recovers_to_none() {
        let store = scratch_store("empty");
        let recovery = store.recover();
        assert!(recovery.durable.is_none());
        assert!(recovery.skipped.is_empty());
        teardown(&store);
    }

    #[test]
    fn newest_durable_epoch_wins() {
        let store = scratch_store("newest");
        let old = generators::cycle(6).unwrap().freeze();
        let new = generators::grid(3, 3).unwrap().freeze();
        store.persist(3, &old).unwrap();
        store.persist(7, &new).unwrap();
        let (epoch, csr) = store.recover().durable.unwrap();
        assert_eq!(epoch, 7);
        assert_eq!(csr, new);
        teardown(&store);
    }

    #[test]
    fn torn_newest_falls_back_to_last_durable() {
        let store = scratch_store("torn");
        let durable = generators::cycle(6).unwrap().freeze();
        store.persist(4, &durable).unwrap();
        // Epoch 9 was torn mid-write (simulated: truncated bytes under the
        // final name) — recovery must skip it with a typed error and fall
        // back to epoch 4, deterministically.
        let bytes = generators::grid(3, 3).unwrap().freeze().to_bytes();
        std::fs::write(store.path_for(9), &bytes[..bytes.len() / 2]).unwrap();
        let recovery = store.recover();
        let (epoch, csr) = recovery.durable.unwrap();
        assert_eq!(epoch, 4);
        assert_eq!(csr, durable);
        assert_eq!(recovery.skipped.len(), 1);
        assert!(matches!(recovery.skipped[0].1, GraphError::CorruptSnapshot { .. }));
        teardown(&store);
    }

    #[test]
    fn tmp_staging_files_are_ignored() {
        let store = scratch_store("tmp");
        let durable = generators::cycle(6).unwrap().freeze();
        store.persist(2, &durable).unwrap();
        // A crash between temp write and rename leaves `gen-5.snap.tmp`.
        std::fs::write(store.dir().join("gen-00000000000000000005.snap.tmp"), b"junk").unwrap();
        let recovery = store.recover();
        assert_eq!(recovery.durable.as_ref().unwrap().0, 2);
        assert!(recovery.skipped.is_empty());
        teardown(&store);
    }

    #[test]
    fn foreign_files_are_ignored() {
        let store = scratch_store("foreign");
        std::fs::write(store.dir().join("README"), b"not a snapshot").unwrap();
        std::fs::write(store.dir().join("gen-abc.snap"), b"bad epoch").unwrap();
        std::fs::write(store.dir().join("gen-.snap"), b"empty epoch").unwrap();
        let recovery = store.recover();
        assert!(recovery.durable.is_none());
        assert!(recovery.skipped.is_empty());
        teardown(&store);
    }

    #[test]
    fn recovery_reads_the_file_it_found() {
        // `gen-7.snap` names epoch 7 without `path_for`'s zero padding.
        let store = scratch_store("unpadded");
        let csr = generators::cycle(6).unwrap().freeze();
        csr.write_to_path(store.dir().join("gen-7.snap")).unwrap();
        let recovery = store.recover();
        assert_eq!(recovery.durable, Some((7, csr.clone())));
        assert!(recovery.skipped.is_empty());
        // A torn file under the padded name is one more file for epoch 7:
        // it is read once, skipped, and the unpadded file still recovers.
        let bytes = csr.to_bytes();
        std::fs::write(store.path_for(7), &bytes[..bytes.len() / 2]).unwrap();
        let recovery = store.recover();
        assert_eq!(recovery.durable, Some((7, csr)));
        let skipped: Vec<&PathBuf> = recovery.skipped.iter().map(|(path, _)| path).collect();
        assert_eq!(skipped, vec![&store.path_for(7)]);
        teardown(&store);
    }

    /// Persists `csr` as generation `epoch`, then rewrites its version field
    /// to `version`, as a binary of an older format version left it. The
    /// field lies outside the checksummed region, so only the version check
    /// can reject the file.
    fn persist_as_version(store: &SnapshotStore, epoch: u64, csr: &CsrGraph, version: u32) {
        let path = store.persist(epoch, csr).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[8..12].copy_from_slice(&version.to_le_bytes());
        std::fs::write(&path, &bytes).unwrap();
    }

    #[test]
    fn generations_of_a_retired_format_version_are_skipped() {
        let store = scratch_store("retired");
        let current = generators::cycle(6).unwrap().freeze();
        store.persist(3, &current).unwrap();
        persist_as_version(&store, 8, &generators::grid(3, 3).unwrap().freeze(), 2);
        let recovery = store.recover();
        assert_eq!(recovery.durable, Some((3, current)));
        assert_eq!(recovery.skipped.len(), 1);
        let (path, err) = &recovery.skipped[0];
        assert_eq!(path, &store.path_for(8));
        assert!(matches!(err, GraphError::CorruptSnapshot { .. }), "{err}");
        assert!(err.to_string().contains("unsupported format version 2"), "{err}");

        // A store of nothing but such files recovers nothing.
        std::fs::remove_file(store.path_for(3)).unwrap();
        persist_as_version(&store, 5, &generators::cycle(4).unwrap().freeze(), 2);
        let recovery = store.recover();
        assert!(recovery.durable.is_none());
        let skipped: Vec<&PathBuf> = recovery.skipped.iter().map(|(path, _)| path).collect();
        assert_eq!(skipped, vec![&store.path_for(8), &store.path_for(5)]);
        assert!(recovery.skipped.iter().all(|(_, e)| e.to_string().contains("version 2")));
        teardown(&store);
    }

    #[test]
    fn every_generation_is_independently_recoverable() {
        let store = scratch_store("all");
        for (epoch, n) in [(1u64, 4usize), (2, 5), (3, 6)] {
            store.persist(epoch, &generators::cycle(n).unwrap().freeze()).unwrap();
        }
        // Corrupt the newest two; the oldest still recovers.
        for epoch in [2u64, 3] {
            let path = store.path_for(epoch);
            let mut bytes = std::fs::read(&path).unwrap();
            let len = bytes.len();
            bytes[len - 1] ^= 1;
            std::fs::write(&path, &bytes).unwrap();
        }
        let recovery = store.recover();
        assert_eq!(recovery.durable.as_ref().unwrap().0, 1);
        assert_eq!(recovery.skipped.len(), 2);
        teardown(&store);
    }
}
