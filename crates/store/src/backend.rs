//! Runtime ownership.
//!
//! A [`StoreRuntime`] owns the directory the store files live in, hands
//! out file paths, and aggregates every page cache's statistics into one
//! [`StoreReport`], split by [`StorePartition`].

use crate::cache::SharedStats;
use crate::{Result, StoreConfig, StorePartition, StoreReport, StoreStats};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Distinguishes runtimes created by one process (temp-dir naming without
/// the wall clock).
static RUNTIME_SEQ: AtomicU64 = AtomicU64::new(0);

/// Owner of one run's store files: the directory, the page-cache budget
/// split, and the shared statistics. Dropping the runtime removes the
/// directory if the runtime created it.
#[derive(Debug)]
pub struct StoreRuntime {
    dir: PathBuf,
    owned: bool,
    config: StoreConfig,
    stats: Arc<SharedStats>,
    /// Per-partition counters, in [`StorePartition::ALL`] order; each
    /// also feeds `stats`.
    partitions: [Arc<SharedStats>; 4],
    file_seq: AtomicU64,
}

impl StoreRuntime {
    /// Creates the backing directory (a fresh one under the system temp
    /// dir unless [`StoreConfig::dir`] pins it).
    pub fn create(config: StoreConfig) -> Result<Arc<Self>> {
        let (dir, owned) = match &config.dir {
            Some(dir) => (dir.clone(), false),
            None => {
                let seq = RUNTIME_SEQ.fetch_add(1, Ordering::Relaxed);
                let name = format!("smartcrawl-store-{}-{seq}", std::process::id());
                (std::env::temp_dir().join(name), true)
            }
        };
        std::fs::create_dir_all(&dir)?;
        let stats = Arc::new(SharedStats::default());
        let partitions = StorePartition::ALL.map(|_| SharedStats::partition_of(&stats));
        Ok(Arc::new(Self {
            dir,
            owned,
            config,
            stats,
            partitions,
            file_seq: AtomicU64::new(0),
        }))
    }

    /// The sizing this runtime was created with.
    pub fn config(&self) -> &StoreConfig {
        &self.config
    }

    /// The directory holding this runtime's files.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// A fresh file path under the runtime's directory.
    pub fn file_path(&self, tag: &str) -> PathBuf {
        let seq = self.file_seq.fetch_add(1, Ordering::Relaxed);
        self.dir.join(format!("{tag}-{seq}.pages"))
    }

    /// The counters every cache created from this runtime feeds into.
    pub fn shared_stats(&self) -> Arc<SharedStats> {
        Arc::clone(&self.stats)
    }

    /// The counters of one partition's caches (they also feed the
    /// totals of [`shared_stats`](Self::shared_stats)).
    pub fn partition_stats(&self, part: StorePartition) -> Arc<SharedStats> {
        let [postings, records, aux, staging] = &self.partitions;
        Arc::clone(match part {
            StorePartition::Postings => postings,
            StorePartition::Records => records,
            StorePartition::Aux => aux,
            StorePartition::Staging => staging,
        })
    }

    /// Snapshot of the aggregated cache counters.
    pub fn stats(&self) -> StoreStats {
        self.stats.snapshot()
    }

    /// The run-level report: configured bounds plus observed activity.
    pub fn report(&self) -> StoreReport {
        let [postings, records, aux, staging] = &self.partitions;
        StoreReport {
            page_size: self.config.page_size,
            cache_budget_pages: self.config.cache_pages,
            stats: self.stats(),
            postings: postings.snapshot(),
            records: records.snapshot(),
            aux: aux.snapshot(),
            staging: staging.snapshot(),
        }
    }
}

impl Drop for StoreRuntime {
    fn drop(&mut self) {
        if self.owned {
            let _ = std::fs::remove_dir_all(&self.dir);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn runtime_cleans_up_its_temp_dir() {
        let rt = StoreRuntime::create(StoreConfig::default()).unwrap();
        let dir = rt.dir().to_path_buf();
        assert!(dir.is_dir());
        drop(rt);
        assert!(!dir.exists());
    }
}
