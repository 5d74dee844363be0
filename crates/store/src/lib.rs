//! `smartcrawl-store`: the out-of-core storage substrate.
//!
//! The paper's efficient implementation keeps its indexes in RAM, which
//! caps the hidden database at what one process can hold. This crate is
//! the paged, versioned, checksummed on-disk layer under the disk-backed
//! hidden database (`smartcrawl-hidden`) and the query-cache files
//! (`smartcrawl-cache`). The crawler's own side — the local database `D`
//! and the sample `Hs` — stays in RAM.
//!
//! * [`file`] — the block/offset file layout: fixed-size pages behind a
//!   versioned header, each page guarded by a word-wise 64-bit checksum
//!   ([`format::checksum`]), written once by a single
//!   [`PagedWriter`](file::PagedWriter) and then read by any number of
//!   [`PagedReader`](file::PagedReader)s (single-writer → multi-reader
//!   discipline). Truncation or bit-rot surfaces as a clean
//!   [`StoreError::Corrupt`], never a panic.
//! * [`cache`] — a fixed-budget page cache with pinned/LRU eviction.
//!   Eviction order is an intrusive recency list driven by the access
//!   sequence, *never* the wall clock, so cached reads stay deterministic.
//! * [`postings`] — delta- plus varint-encoded posting lists with skip
//!   entries every [`postings::SKIP_INTERVAL`] elements, enabling
//!   galloping intersection over encoded lists without full decode.
//! * [`blob`] — a byte-stream abstraction over the paged file: encoded
//!   lists are appended back to back (straddling page boundaries) and
//!   addressed by compact [`Locator`](blob::Locator)s.
//! * [`backend`] — the [`StoreRuntime`] owning the on-disk files, their
//!   cache budget, and shared access statistics.

pub mod backend;
pub mod blob;
pub mod cache;
pub mod file;
pub mod format;
pub mod postings;

pub use backend::StoreRuntime;
pub use blob::{BlobReader, BlobWriter, Locator};
pub use cache::{PageCache, SharedStats};
pub use file::{PagedReader, PagedWriter};

use std::path::PathBuf;

/// Errors surfaced by the storage layer. Query-time reads on an
/// already-validated store treat failures as fatal (the crawl cannot
/// recover from its index disappearing mid-run); everything at open,
/// build, and page-read time returns `Result` so corruption is a clean
/// error, never a panic.
#[derive(Debug)]
pub enum StoreError {
    /// An underlying I/O operation failed.
    Io(std::io::Error),
    /// The file exists but its contents fail validation (bad magic,
    /// checksum mismatch, truncation, impossible lengths).
    Corrupt {
        /// The offending file.
        path: PathBuf,
        /// What failed to validate.
        detail: String,
    },
}

impl StoreError {
    pub(crate) fn corrupt(path: &std::path::Path, detail: impl Into<String>) -> Self {
        StoreError::Corrupt {
            path: path.to_path_buf(),
            detail: detail.into(),
        }
    }
}

impl std::fmt::Display for StoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StoreError::Io(e) => write!(f, "store I/O error: {e}"),
            StoreError::Corrupt { path, detail } => {
                write!(f, "corrupt store file {}: {detail}", path.display())
            }
        }
    }
}

impl std::error::Error for StoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StoreError::Io(e) => Some(e),
            StoreError::Corrupt { .. } => None,
        }
    }
}

impl From<std::io::Error> for StoreError {
    fn from(e: std::io::Error) -> Self {
        StoreError::Io(e)
    }
}

/// Result alias for store operations.
pub type Result<T> = std::result::Result<T, StoreError>;

/// Unwraps a store result at query time. Build- and open-time validation
/// returns `Result`; once a store validated, a read failing mid-crawl
/// means the index vanished under the engine — unrecoverable by design,
/// so the one panic in this crate lives here. Public so the disk-backed
/// hidden engine applies the same policy without minting its own panic
/// site.
pub fn expect_store<T>(r: Result<T>, what: &str) -> T {
    match r {
        Ok(v) => v,
        // lint:allow(panic-freedom) a query-time read failure on a validated store is fatal by design
        Err(e) => panic!("smartcrawl-store: {what} failed: {e}"),
    }
}

/// Sizing and placement knobs for one store runtime.
#[derive(Debug, Clone)]
pub struct StoreConfig {
    /// On-disk page size in bytes (payload capacity is 12 bytes less).
    pub page_size: usize,
    /// Total page-cache budget, in pages, shared by every cache the
    /// runtime hosts. The default is a ~50 MB-class cache
    /// (12800 × 4 KiB), the resident-memory bound the out-of-core claim
    /// is about.
    pub cache_pages: usize,
    /// Directory for the store files. `None` (the default) creates a
    /// unique directory under the system temp dir and removes it when the
    /// runtime drops.
    pub dir: Option<PathBuf>,
}

impl Default for StoreConfig {
    fn default() -> Self {
        Self {
            page_size: 4096,
            cache_pages: 12_800,
            dir: None,
        }
    }
}

/// A point-in-time snapshot of a runtime's page-cache activity.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StoreStats {
    /// Page requests served from a resident frame.
    pub hits: u64,
    /// Page requests that went to disk.
    pub misses: u64,
    /// Frames evicted to stay inside the cache budget.
    pub evictions: u64,
    /// Pages currently resident across all caches.
    pub resident_pages: u64,
    /// High-water mark of `resident_pages`.
    pub peak_resident_pages: u64,
}

impl StoreStats {
    /// Fraction of page requests served without touching disk.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            return 0.0;
        }
        self.hits as f64 / total as f64
    }
}

/// The page-cache partitions of a disk-backed hidden database. The
/// runtime's total budget is split ½ postings, ¼ records, 1⁄16 aux and
/// 1⁄16 staging, and each part keeps its own counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StorePartition {
    /// Rank-space posting lists.
    Postings,
    /// Encoded records.
    Records,
    /// Fixed-width side tables: the row directory and the id maps.
    Aux,
    /// Build-time spill files.
    Staging,
}

impl StorePartition {
    /// Every partition, in report order.
    pub const ALL: [StorePartition; 4] = [
        StorePartition::Postings,
        StorePartition::Records,
        StorePartition::Aux,
        StorePartition::Staging,
    ];

    /// Short label for reports.
    pub fn label(self) -> &'static str {
        match self {
            StorePartition::Postings => "postings",
            StorePartition::Records => "records",
            StorePartition::Aux => "aux",
            StorePartition::Staging => "staging",
        }
    }
}

/// What a disk-backed hidden database reports about its store: the
/// configured bounds plus the observed cache activity, so the out-of-core
/// claim is tracked, not anecdotal.
///
/// Cache *statistics* are schedule-dependent when prefetch workers read
/// the store concurrently (hit/miss interleavings vary), so they are
/// reported but never folded into any result digest.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StoreReport {
    /// Configured page size in bytes.
    pub page_size: usize,
    /// Configured total cache budget in pages.
    pub cache_budget_pages: usize,
    /// Observed cache activity, over every cache of the runtime.
    pub stats: StoreStats,
    /// The postings partition's share of `stats`.
    pub postings: StoreStats,
    /// The records partition's share of `stats`.
    pub records: StoreStats,
    /// The aux partition's share of `stats`.
    pub aux: StoreStats,
    /// The staging partition's share of `stats`.
    pub staging: StoreStats,
}

impl StoreReport {
    /// Peak resident index memory in bytes (pages × page size).
    pub fn peak_resident_bytes(&self) -> u64 {
        self.stats.peak_resident_pages * self.page_size as u64
    }

    /// The counters of one partition.
    pub fn partition(&self, part: StorePartition) -> StoreStats {
        match part {
            StorePartition::Postings => self.postings,
            StorePartition::Records => self.records,
            StorePartition::Aux => self.aux,
            StorePartition::Staging => self.staging,
        }
    }
}
