//! The snapshot catalog: a directory of `.dcfsnap` files served by name.
//!
//! `reproduce serve --catalog DIR` scans `DIR` at startup: every
//! `name.dcfsnap` file is read
//! ([`dcf_trace::io::snapshot::read_snapshot`]), decoded into a columnar
//! trace, digest-checked, and pinned in the response cache under the
//! scenario name `name` and its trace digest. The file's bytes are
//! dropped once decoded: the columns own their storage. From then on
//! every request for that snapshot (`/report/{section}?scenario=name`,
//! `/trace/{digest}/fots`) renders off the one shared, already-decoded
//! column store: the file is never re-read and the trace never copied
//! per request or per connection.
//!
//! The catalog is live: dropping a new `.dcfsnap` into the directory and
//! sending the server SIGHUP — or `POST /catalog/reload` — picks it up
//! without a restart; files removed from the directory are unpinned on
//! the same pass. Entries are keyed by file stem, and a published
//! snapshot file is treated as immutable (replace by adding a new name,
//! not rewriting bytes in place — a name keeps meaning the trace first
//! loaded under it). A truncated or corrupt file is an error that names
//! it. `GET /v1/catalog` lists what is currently served.

use std::collections::BTreeMap;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};

use dcf_obs::MetricsRegistry;

use crate::cache::{ResponseCache, RunArtifacts, RunEntry};
use crate::sections::Obj;

/// File extension a catalog entry must carry.
pub const SNAPSHOT_EXT: &str = "dcfsnap";

/// One loaded catalog entry's public identity (for `/catalog` listings).
#[derive(Debug, Clone)]
pub struct CatalogEntryInfo {
    /// Scenario name the entry is served under (the file stem).
    pub name: String,
    /// 16-hex FNV-1a trace digest (also its `/trace/{digest}` address).
    pub digest: String,
    /// Number of failure-occurrence tickets in the trace.
    pub fots: u64,
    /// On-disk snapshot size in bytes.
    pub bytes: u64,
}

/// Outcome of a catalog rescan (SIGHUP or `POST /catalog/reload`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReloadSummary {
    /// Entries newly loaded on this pass.
    pub added: usize,
    /// Entries dropped because their file disappeared.
    pub removed: usize,
    /// Entries served after the pass.
    pub total: usize,
}

struct Slot {
    entry: Arc<RunEntry>,
    info: CatalogEntryInfo,
}

/// The set of pinned, name-addressed snapshot entries.
///
/// Thread-safe: the worker pool resolves names while a reload (driven
/// from the supervisor thread on SIGHUP, or from a worker on
/// `POST /catalog/reload`) mutates the set under the same lock.
pub struct Catalog {
    /// Scan root.
    dir: PathBuf,
    metrics: MetricsRegistry,
    slots: Mutex<BTreeMap<String, Slot>>,
}

impl std::fmt::Debug for Catalog {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Catalog")
            .field("dir", &self.dir)
            .field("entries", &self.len())
            .finish()
    }
}

impl Catalog {
    /// Opens a catalog over `dir`, loading and pinning every `.dcfsnap`
    /// file found.
    ///
    /// # Errors
    ///
    /// Startup is strict: an unreadable directory or any corrupt snapshot
    /// fails the whole open, so a bad deploy is caught before the server
    /// binds.
    pub fn open(
        dir: &str,
        cache: &ResponseCache,
        metrics: &MetricsRegistry,
    ) -> io::Result<Catalog> {
        let catalog = Catalog {
            dir: PathBuf::from(dir),
            metrics: metrics.clone(),
            slots: Mutex::new(BTreeMap::new()),
        };
        let summary = catalog.reload(cache)?;
        debug_assert_eq!(summary.removed, 0);
        Ok(catalog)
    }

    /// Rescans the catalog directory: loads snapshots whose name is new,
    /// unpins entries whose file disappeared. Existing names are left
    /// untouched (snapshot files are immutable once published).
    ///
    /// # Errors
    ///
    /// Fails on an unreadable directory or a corrupt new snapshot;
    /// entries already applied on this pass stay applied.
    pub fn reload(&self, cache: &ResponseCache) -> io::Result<ReloadSummary> {
        let mut on_disk = BTreeMap::new();
        for entry in std::fs::read_dir(&self.dir)? {
            let path = entry?.path();
            let is_snap = path.extension().and_then(|e| e.to_str()) == Some(SNAPSHOT_EXT);
            if !is_snap || !path.is_file() {
                continue;
            }
            let Some(stem) = path.file_stem().and_then(|s| s.to_str()) else {
                continue;
            };
            on_disk.insert(stem.to_string(), path.clone());
        }

        let mut added = 0usize;
        let mut removed = 0usize;
        // Load outside the lock (decoding is slow); apply under it.
        let current: Vec<String> = {
            let slots = self.slots.lock().expect("catalog poisoned");
            slots.keys().cloned().collect()
        };
        for name in &current {
            if !on_disk.contains_key(name) {
                let mut slots = self.slots.lock().expect("catalog poisoned");
                if let Some(slot) = slots.remove(name) {
                    cache.unpin(&slot.info.digest);
                    removed += 1;
                }
            }
        }
        for (name, path) in &on_disk {
            if current.contains(name) {
                continue;
            }
            let slot = self.load_slot(name, path, cache)?;
            self.slots
                .lock()
                .expect("catalog poisoned")
                .insert(name.clone(), slot);
            added += 1;
        }
        let total = self.len();
        self.metrics
            .set_gauge("serve.catalog.entries", total as f64);
        Ok(ReloadSummary {
            added,
            removed,
            total,
        })
    }

    /// Reads, decodes, digests, and pins one snapshot file.
    fn load_slot(&self, name: &str, path: &Path, cache: &ResponseCache) -> io::Result<Slot> {
        let span = self.metrics.phase("trace.snapshot_load");
        let named = |e: &dyn std::fmt::Display| {
            io::Error::other(format!("snapshot {}: {e}", path.display()))
        };
        let bytes = std::fs::metadata(path).map_err(|e| named(&e))?.len();
        let trace = dcf_trace::io::snapshot::read_snapshot(path).map_err(|e| named(&e))?;
        drop(span);
        let artifacts = Arc::new(RunArtifacts::new(trace));
        let info = CatalogEntryInfo {
            name: name.to_string(),
            digest: artifacts.digest.clone(),
            fots: artifacts.trace.len() as u64,
            bytes,
        };
        let entry = Arc::new(RunEntry::preloaded(name, Arc::clone(&artifacts)));
        cache.pin(&info.digest, Arc::clone(&entry));
        self.metrics.add("serve.catalog.bytes_loaded", bytes);
        Ok(Slot { entry, info })
    }

    /// Resolves a scenario name to its pinned entry.
    pub fn get(&self, name: &str) -> Option<Arc<RunEntry>> {
        self.slots
            .lock()
            .expect("catalog poisoned")
            .get(name)
            .map(|slot| Arc::clone(&slot.entry))
    }

    /// Identities of every served entry, name-sorted.
    pub fn entries(&self) -> Vec<CatalogEntryInfo> {
        self.slots
            .lock()
            .expect("catalog poisoned")
            .values()
            .map(|slot| slot.info.clone())
            .collect()
    }

    /// Number of served entries.
    pub fn len(&self) -> usize {
        self.slots.lock().expect("catalog poisoned").len()
    }

    /// Whether the catalog currently serves nothing.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Renders the `/catalog` listing body.
    pub fn render_listing(&self) -> String {
        let entries = self.entries();
        let mut body = String::from("{\"entries\":[");
        for (i, info) in entries.iter().enumerate() {
            if i > 0 {
                body.push(',');
            }
            let mut obj = Obj::new();
            obj.str("name", &info.name)
                .str("digest", &info.digest)
                .uint("total_fots", info.fots)
                .uint("snapshot_bytes", info.bytes);
            body.push_str(&obj.finish());
        }
        body.push_str("],\"total\":");
        body.push_str(&entries.len().to_string());
        body.push('}');
        body
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn snapshot_bytes() -> Vec<u8> {
        let trace = dcf_sim::Scenario::small()
            .seed(11)
            .simulate(&dcf_sim::RunOptions::new())
            .expect("small scenario simulates");
        dcf_trace::io::snapshot::snapshot_to_bytes(&trace)
    }

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("dcf-catalog-{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn scans_loads_and_reloads_a_directory() {
        let dir = temp_dir("scan");
        let bytes = snapshot_bytes();
        std::fs::write(dir.join("alpha.dcfsnap"), &bytes).unwrap();
        std::fs::write(dir.join("ignored.txt"), b"not a snapshot").unwrap();

        let cache = ResponseCache::new(4);
        let metrics = MetricsRegistry::disabled();
        let catalog = Catalog::open(dir.to_str().unwrap(), &cache, &metrics).expect("open");
        assert_eq!(catalog.len(), 1);
        let entry = catalog.get("alpha").expect("alpha served");
        let digest = catalog.entries()[0].digest.clone();
        assert!(cache.lookup_digest(&digest).is_some(), "digest pinned");
        assert!(Arc::ptr_eq(&entry, &cache.lookup_digest(&digest).unwrap()));

        // New file appears → reload picks it up; removed file unpins.
        std::fs::write(dir.join("beta.dcfsnap"), &bytes).unwrap();
        std::fs::remove_file(dir.join("alpha.dcfsnap")).unwrap();
        let summary = catalog.reload(&cache).expect("reload");
        assert_eq!((summary.added, summary.removed, summary.total), (1, 1, 1));
        assert!(catalog.get("alpha").is_none());
        assert!(catalog.get("beta").is_some());

        std::fs::remove_dir_all(&dir).ok();
    }

    /// A snapshot cut short in its header, inside a column, or by its
    /// last byte fails `open` with an error naming the file; the same
    /// file turning up at `reload` fails the reload and leaves the
    /// entries loaded earlier served.
    #[test]
    fn truncated_snapshots_fail_open_and_reload_by_name() {
        let dir = temp_dir("truncated");
        let bytes = snapshot_bytes();
        let cache = ResponseCache::new(4);
        let metrics = MetricsRegistry::disabled();
        for cut in [6, bytes.len() * 3 / 4, bytes.len() - 1] {
            let path = dir.join("cut.dcfsnap");
            std::fs::write(&path, &bytes[..cut]).unwrap();
            let err = Catalog::open(dir.to_str().unwrap(), &cache, &metrics)
                .expect_err("a truncated snapshot fails open");
            assert!(
                err.to_string().contains("cut.dcfsnap"),
                "cut at {cut}: {err}"
            );
            std::fs::remove_file(&path).unwrap();
        }

        std::fs::write(dir.join("alpha.dcfsnap"), &bytes).unwrap();
        let catalog = Catalog::open(dir.to_str().unwrap(), &cache, &metrics).expect("open");
        let digest = catalog.entries()[0].digest.clone();
        std::fs::write(dir.join("beta.dcfsnap"), &bytes[..bytes.len() - 1]).unwrap();
        let err = catalog
            .reload(&cache)
            .expect_err("a truncated snapshot fails reload");
        assert!(err.to_string().contains("beta.dcfsnap"), "{err}");
        assert!(catalog.get("alpha").is_some());
        assert!(catalog.get("beta").is_none());
        assert!(cache.lookup_digest(&digest).is_some(), "alpha stays pinned");

        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn corrupt_snapshot_fails_open() {
        let dir = temp_dir("corrupt");
        std::fs::write(dir.join("bad.dcfsnap"), b"DCFSNAPX garbage").unwrap();
        let cache = ResponseCache::new(4);
        let metrics = MetricsRegistry::disabled();
        assert!(Catalog::open(dir.to_str().unwrap(), &cache, &metrics).is_err());
        std::fs::remove_dir_all(&dir).ok();
    }
}
