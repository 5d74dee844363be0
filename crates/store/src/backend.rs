//! Runtime ownership and RAM/disk dispatch.
//!
//! A [`StoreRuntime`] owns the directory the store files live in, hands
//! out file paths, and aggregates every page cache's statistics into one
//! [`StoreReport`]. [`AnyPostings`] and [`AnyForward`] are the per-run
//! switch between the in-RAM indexes of `smartcrawl-index` and the paged
//! disk backends of this crate: call sites hold the enum and never know
//! which side they are on. [`IndexBackendConfig`] is the user-facing
//! knob the bench harness threads through a run spec.

use crate::cache::SharedStats;
use crate::forward::DiskForwardIndex;
use crate::inverted::DiskInvertedIndex;
use crate::{Result, StoreConfig, StorePartition, StoreReport, StoreStats};
use smartcrawl_index::{ForwardBackend, ForwardIndex, InvertedIndex, PostingsBackend, QueryId};
use smartcrawl_text::{Document, RecordId, TokenId};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Distinguishes runtimes created by one process (temp-dir naming without
/// the wall clock).
static RUNTIME_SEQ: AtomicU64 = AtomicU64::new(0);

/// Which index backend a run uses.
#[derive(Debug, Clone, Default)]
pub enum IndexBackendConfig {
    /// In-RAM indexes (the paper's efficient implementation).
    #[default]
    Ram,
    /// Paged on-disk indexes with the given sizing.
    Disk(StoreConfig),
}

impl IndexBackendConfig {
    /// Disk backend with default sizing.
    pub fn disk() -> Self {
        IndexBackendConfig::Disk(StoreConfig::default())
    }

    /// Short label for reports and logs.
    pub fn label(&self) -> &'static str {
        match self {
            IndexBackendConfig::Ram => "ram",
            IndexBackendConfig::Disk(_) => "disk",
        }
    }
}

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

    /// Cache budget of one inverted-index shard: half the total budget
    /// split across shards (the other half goes to the forward index).
    pub fn shard_cache_budget(&self) -> usize {
        (self.config.cache_pages / 2 / self.config.shards.max(1)).max(2)
    }

    /// Cache budget of the forward index.
    pub fn forward_cache_budget(&self) -> usize {
        (self.config.cache_pages / 2).max(2)
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

/// An inverted index that is either RAM-resident or disk-backed.
#[derive(Debug)]
pub enum AnyPostings {
    /// The in-RAM index of `smartcrawl-index`.
    Ram(InvertedIndex),
    /// The sharded paged index of this crate.
    Disk(DiskInvertedIndex),
}

impl AnyPostings {
    /// Builds over `docs` with the backend selected by `runtime`:
    /// `None` → RAM, `Some` → disk files owned by that runtime.
    pub fn build(
        docs: &[Document],
        vocab_size: usize,
        runtime: Option<&StoreRuntime>,
    ) -> Result<Self> {
        match runtime {
            None => Ok(AnyPostings::Ram(InvertedIndex::build(docs, vocab_size))),
            Some(rt) => Ok(AnyPostings::Disk(DiskInvertedIndex::build(
                docs, vocab_size, rt,
            )?)),
        }
    }

    /// Number of indexed documents.
    pub fn num_docs(&self) -> usize {
        match self {
            AnyPostings::Ram(i) => i.num_docs(),
            AnyPostings::Disk(i) => i.num_docs(),
        }
    }

    /// Document frequency of a single token.
    pub fn doc_frequency(&self, token: TokenId) -> usize {
        match self {
            AnyPostings::Ram(i) => i.doc_frequency(token),
            AnyPostings::Disk(i) => i.doc_frequency(token),
        }
    }

    /// Appends `I(w)` to `out` (ascending record ids, no clear).
    pub fn postings_into(&self, token: TokenId, out: &mut Vec<RecordId>) {
        match self {
            AnyPostings::Ram(i) => out.extend_from_slice(i.postings(token)),
            AnyPostings::Disk(i) => i.postings_into(token, out),
        }
    }

    /// Materializes `q(D)` in ascending record-id order.
    pub fn matching(&self, query: &[TokenId]) -> Vec<RecordId> {
        match self {
            AnyPostings::Ram(i) => i.matching(query),
            AnyPostings::Disk(i) => i.matching(query),
        }
    }

    /// `|q(D)|` without materializing the match set.
    pub fn frequency(&self, query: &[TokenId]) -> usize {
        match self {
            AnyPostings::Ram(i) => i.frequency(query),
            AnyPostings::Disk(i) => i.frequency(query),
        }
    }

    /// Whether at least one document satisfies the query.
    pub fn any_match(&self, query: &[TokenId]) -> bool {
        match self {
            AnyPostings::Ram(i) => i.any_match(query),
            AnyPostings::Disk(i) => i.any_match(query),
        }
    }
}

impl PostingsBackend for AnyPostings {
    fn num_docs(&self) -> usize {
        AnyPostings::num_docs(self)
    }

    fn doc_frequency(&self, token: TokenId) -> usize {
        AnyPostings::doc_frequency(self, token)
    }

    fn postings_into(&self, token: TokenId, out: &mut Vec<RecordId>) {
        AnyPostings::postings_into(self, token, out)
    }

    fn matching(&self, query: &[TokenId]) -> Vec<RecordId> {
        AnyPostings::matching(self, query)
    }

    fn frequency(&self, query: &[TokenId]) -> usize {
        AnyPostings::frequency(self, query)
    }

    fn any_match(&self, query: &[TokenId]) -> bool {
        AnyPostings::any_match(self, query)
    }
}

/// A forward index that is either RAM-resident or disk-backed.
#[derive(Debug)]
pub enum AnyForward {
    /// The in-RAM CSR index of `smartcrawl-index`.
    Ram(ForwardIndex),
    /// The paged row store of this crate (boxed: it carries a page cache
    /// inline, far larger than the RAM variant's three vectors).
    Disk(Box<DiskForwardIndex>),
}

impl AnyForward {
    /// Builds for `num_records` records from the per-query match sets,
    /// with the backend selected by `runtime` (as in
    /// [`AnyPostings::build`]).
    pub fn build(
        num_records: usize,
        query_matches: &[Vec<RecordId>],
        runtime: Option<&StoreRuntime>,
    ) -> Result<Self> {
        match runtime {
            None => Ok(AnyForward::Ram(ForwardIndex::build(
                num_records,
                query_matches,
            ))),
            Some(rt) => Ok(AnyForward::Disk(Box::new(DiskForwardIndex::build(
                num_records,
                query_matches,
                rt,
            )?))),
        }
    }

    /// Number of records covered by the index.
    pub fn num_records(&self) -> usize {
        match self {
            AnyForward::Ram(i) => i.num_records(),
            AnyForward::Disk(i) => i.num_records(),
        }
    }

    /// Pool size the index was built against.
    pub fn num_queries(&self) -> usize {
        match self {
            AnyForward::Ram(i) => i.num_queries(),
            AnyForward::Disk(i) => i.num_queries(),
        }
    }

    /// Total number of (record, query) incidences.
    pub fn total_incidences(&self) -> usize {
        match self {
            AnyForward::Ram(i) => i.total_incidences(),
            AnyForward::Disk(i) => i.total_incidences(),
        }
    }

    /// Replaces `out` with `F(rid)` (ascending query ids).
    pub fn queries_of_into(&self, rid: RecordId, out: &mut Vec<QueryId>) {
        match self {
            AnyForward::Ram(i) => {
                out.clear();
                out.extend_from_slice(i.queries_of(rid));
            }
            AnyForward::Disk(i) => i.queries_of_into(rid, out),
        }
    }
}

impl ForwardBackend for AnyForward {
    fn num_records(&self) -> usize {
        AnyForward::num_records(self)
    }

    fn num_queries(&self) -> usize {
        AnyForward::num_queries(self)
    }

    fn total_incidences(&self) -> usize {
        AnyForward::total_incidences(self)
    }

    fn queries_of_into(&self, rid: RecordId, out: &mut Vec<QueryId>) {
        AnyForward::queries_of_into(self, rid, out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn docs(specs: &[&[u32]]) -> Vec<Document> {
        specs
            .iter()
            .map(|s| Document::from_tokens(s.iter().map(|&t| TokenId(t)).collect()))
            .collect()
    }

    #[test]
    fn runtime_cleans_up_its_temp_dir() {
        let rt = StoreRuntime::create(StoreConfig::default()).unwrap();
        let dir = rt.dir().to_path_buf();
        assert!(dir.is_dir());
        drop(rt);
        assert!(!dir.exists());
    }

    #[test]
    fn both_backends_expose_the_same_surface() {
        let corpus = docs(&[&[0, 1], &[1, 2], &[0, 1, 2]]);
        let config = StoreConfig {
            page_size: 64,
            cache_pages: 8,
            shards: 2,
            dir: None,
        };
        let rt = StoreRuntime::create(config).unwrap();
        let ram = AnyPostings::build(&corpus, 3, None).unwrap();
        let disk = AnyPostings::build(&corpus, 3, Some(&rt)).unwrap();
        let q = [TokenId(0), TokenId(1)];
        assert_eq!(ram.matching(&q), disk.matching(&q));
        assert_eq!(ram.frequency(&q), disk.frequency(&q));

        let matches = vec![ram.matching(&q), ram.matching(&[TokenId(2)])];
        let ram_f = AnyForward::build(3, &matches, None).unwrap();
        let disk_f = AnyForward::build(3, &matches, Some(&rt)).unwrap();
        let (mut a, mut b) = (Vec::new(), Vec::new());
        for r in 0..3 {
            ram_f.queries_of_into(RecordId(r), &mut a);
            disk_f.queries_of_into(RecordId(r), &mut b);
            assert_eq!(a, b);
        }
        let report = rt.report();
        assert!(report.stats.misses > 0);
        assert!(report.stats.peak_resident_pages > 0);
    }
}
