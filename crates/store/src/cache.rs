//! Fixed-budget page cache with pinned/LRU eviction.
//!
//! Each [`PageCache`] fronts one [`PagedReader`] and keeps at most
//! `budget` verified pages resident. Frames are recycled in
//! least-recently-used order: an intrusive doubly linked recency list
//! over the frame slots, where every pin moves its frame to the
//! most-recent end, and a miss takes its victim from the least-recent
//! end. Order is a pure function of the access sequence — never the
//! wall clock — so which page gets evicted replays identically across
//! runs.
//!
//! Pinning is load-bearing for correctness, not just performance:
//! [`read_span`](PageCache::read_span) pins *every* page a span touches
//! before copying, so a span that covers more pages than the budget
//! cannot evict its own tail mid-copy (the cache grows past budget
//! rather than deadlock, and shrinks back through normal eviction).
//! Eviction skips pinned frames.

use crate::file::{PagedReader, PAGE_HEADER_LEN};
use crate::{Result, StoreError, StoreStats};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Cache counters shared (lock-free) by the caches that feed them. A
/// partition's counters ([`partition_of`](Self::partition_of)) also
/// feed the run-level totals they were created from.
#[derive(Debug, Default)]
pub struct SharedStats {
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
    resident: AtomicU64,
    peak: AtomicU64,
    /// Run-level totals every event is forwarded to, if any.
    total: Option<Arc<SharedStats>>,
}

impl SharedStats {
    /// Fresh counters for one cache partition whose every event also
    /// counts in `total`.
    pub fn partition_of(total: &Arc<SharedStats>) -> Arc<SharedStats> {
        Arc::new(SharedStats {
            total: Some(Arc::clone(total)),
            ..SharedStats::default()
        })
    }

    /// Snapshot the counters. Counts are schedule-dependent under
    /// concurrent query evaluation — report them, never digest them.
    pub fn snapshot(&self) -> StoreStats {
        StoreStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            resident_pages: self.resident.load(Ordering::Relaxed),
            peak_resident_pages: self.peak.load(Ordering::Relaxed),
        }
    }

    fn hit(&self) {
        self.hits.fetch_add(1, Ordering::Relaxed);
        if let Some(total) = &self.total {
            total.hit();
        }
    }

    fn miss(&self) {
        self.misses.fetch_add(1, Ordering::Relaxed);
        if let Some(total) = &self.total {
            total.miss();
        }
    }

    fn evicted(&self) {
        self.evictions.fetch_add(1, Ordering::Relaxed);
        if let Some(total) = &self.total {
            total.evicted();
        }
    }

    fn resident_up(&self) {
        let now = self.resident.fetch_add(1, Ordering::Relaxed) + 1;
        self.peak.fetch_max(now, Ordering::Relaxed);
        if let Some(total) = &self.total {
            total.resident_up();
        }
    }
}

/// End marker of the recency list (`frames.get(NIL)` is `None`).
const NIL: usize = usize::MAX;

#[derive(Debug)]
struct Frame {
    /// Page held by this frame; `u64::MAX` marks a vacated frame.
    page: u64,
    /// The whole on-disk page, verified in place by
    /// [`PagedReader::load_page`].
    bytes: Vec<u8>,
    /// Payload length: the payload is `bytes[PAGE_HEADER_LEN..][..len]`.
    len: usize,
    /// Pin count; pinned frames are never evicted.
    pinned: u32,
    /// Neighbour towards the least-recent end of the recency list.
    older: usize,
    /// Neighbour towards the most-recent end of the recency list.
    newer: usize,
}

impl Frame {
    fn vacant() -> Self {
        Frame {
            page: u64::MAX,
            bytes: Vec::new(),
            len: 0,
            pinned: 0,
            older: NIL,
            newer: NIL,
        }
    }

    fn payload(&self) -> &[u8] {
        self.bytes
            .get(PAGE_HEADER_LEN..PAGE_HEADER_LEN + self.len)
            .unwrap_or_default()
    }
}

/// A bounded set of resident pages over one paged file.
#[derive(Debug)]
pub struct PageCache {
    reader: PagedReader,
    frames: Vec<Frame>,
    slot_of: HashMap<u64, usize>,
    budget: usize,
    /// Least-recently pinned frame (first eviction candidate).
    oldest: usize,
    /// Most-recently pinned frame.
    newest: usize,
    stats: Arc<SharedStats>,
}

impl PageCache {
    /// Wraps `reader` with a cache of at most `budget` resident pages
    /// (clamped to at least one).
    pub fn new(reader: PagedReader, budget: usize, stats: Arc<SharedStats>) -> Self {
        let budget = budget.max(1);
        Self {
            reader,
            frames: Vec::with_capacity(budget.min(1024)),
            slot_of: HashMap::new(),
            budget,
            oldest: NIL,
            newest: NIL,
            stats,
        }
    }

    /// Payload bytes one page of the underlying file holds.
    pub fn payload_capacity(&self) -> usize {
        self.reader.payload_capacity()
    }

    fn frame_gone(&self) -> StoreError {
        StoreError::corrupt(self.reader.path(), "cache frame vanished")
    }

    /// Takes `slot` out of the recency list.
    fn unlink(&mut self, slot: usize) {
        let Some(frame) = self.frames.get(slot) else {
            return;
        };
        let (older, newer) = (frame.older, frame.newer);
        match self.frames.get_mut(older) {
            Some(f) => f.newer = newer,
            None => self.oldest = newer,
        }
        match self.frames.get_mut(newer) {
            Some(f) => f.older = older,
            None => self.newest = older,
        }
    }

    /// Links an unlinked `slot` in at the most-recent end.
    fn link_newest(&mut self, slot: usize) {
        let prev = self.newest;
        if let Some(f) = self.frames.get_mut(slot) {
            f.older = prev;
            f.newer = NIL;
        }
        match self.frames.get_mut(prev) {
            Some(f) => f.newer = slot,
            None => self.oldest = slot,
        }
        self.newest = slot;
    }

    /// Links an unlinked `slot` in at the least-recent end.
    fn link_oldest(&mut self, slot: usize) {
        let next = self.oldest;
        if let Some(f) = self.frames.get_mut(slot) {
            f.older = NIL;
            f.newer = next;
        }
        match self.frames.get_mut(next) {
            Some(f) => f.older = slot,
            None => self.newest = slot,
        }
        self.oldest = slot;
    }

    /// Marks `slot` most recently used.
    fn touch(&mut self, slot: usize) {
        if self.newest != slot {
            self.unlink(slot);
            self.link_newest(slot);
        }
    }

    /// Makes `page` resident and pins it; returns its frame slot. The
    /// caller must [`unpin`](Self::unpin) the slot when done with the
    /// payload.
    pub fn pin(&mut self, page: u64) -> Result<usize> {
        if let Some(&slot) = self.slot_of.get(&page) {
            if let Some(frame) = self.frames.get_mut(slot) {
                frame.pinned += 1;
                self.stats.hit();
                self.touch(slot);
                return Ok(slot);
            }
        }
        self.stats.miss();
        let slot = self.claim_slot();
        // Split borrows: the reader verifies the page in the frame itself.
        let Self { reader, frames, .. } = self;
        let Some(frame) = frames.get_mut(slot) else {
            return Err(self.frame_gone());
        };
        match reader.load_page(page, &mut frame.bytes) {
            Ok(len) => {
                frame.page = page;
                frame.len = len;
                frame.pinned = 1;
            }
            Err(e) => {
                // The frame stays vacant: first in line for reuse.
                frame.len = 0;
                self.unlink(slot);
                self.link_oldest(slot);
                return Err(e);
            }
        }
        self.slot_of.insert(page, slot);
        self.touch(slot);
        Ok(slot)
    }

    /// Releases one pin on `slot`.
    pub fn unpin(&mut self, slot: usize) {
        if let Some(frame) = self.frames.get_mut(slot) {
            frame.pinned = frame.pinned.saturating_sub(1);
        }
    }

    /// Finds a frame to load into: a fresh one while under budget, else
    /// the least-recently-used unpinned frame, else (everything pinned)
    /// a temporary over-budget frame.
    fn claim_slot(&mut self) -> usize {
        if self.frames.len() < self.budget {
            return self.push_frame();
        }
        let mut slot = self.oldest;
        while let Some(frame) = self.frames.get_mut(slot) {
            if frame.pinned == 0 {
                self.slot_of.remove(&frame.page);
                frame.page = u64::MAX;
                self.stats.evicted();
                return slot;
            }
            slot = frame.newer;
        }
        self.push_frame()
    }

    /// Appends a vacant frame at the most-recent end.
    fn push_frame(&mut self) -> usize {
        self.frames.push(Frame::vacant());
        self.stats.resident_up();
        let slot = self.frames.len() - 1;
        self.link_newest(slot);
        slot
    }

    fn copy_from(&self, slot: usize, start: usize, len: usize, out: &mut Vec<u8>) -> Result<()> {
        let frame = self.frames.get(slot).ok_or_else(|| self.frame_gone())?;
        let bytes = frame.payload().get(start..start + len).ok_or_else(|| {
            StoreError::corrupt(self.reader.path(), "byte span runs past its page payload")
        })?;
        out.extend_from_slice(bytes);
        Ok(())
    }

    /// Reads `len` logical payload bytes starting at logical offset `off`
    /// into `out` (replacing its contents). Logical offsets treat the
    /// file as the concatenation of page payloads, each of
    /// [`payload_capacity`](Self::payload_capacity) bytes; every page the
    /// span touches is pinned before the first copy.
    pub fn read_span(&mut self, off: u64, len: usize, out: &mut Vec<u8>) -> Result<()> {
        out.clear();
        if len == 0 {
            return Ok(());
        }
        let cap = self.payload_capacity() as u64;
        let file_end = self.reader.num_pages().saturating_mul(cap);
        let end = off
            .checked_add(len as u64)
            .filter(|&end| end <= file_end)
            .ok_or_else(|| StoreError::corrupt(self.reader.path(), "byte span runs past the file"))?;
        out.reserve(len);
        let first = off / cap;
        let last = (end - 1) / cap;
        if first == last {
            let slot = self.pin(first)?;
            let res = self.copy_from(slot, (off % cap) as usize, len, out);
            self.unpin(slot);
            return res;
        }
        let mut slots = Vec::with_capacity((last - first + 1) as usize);
        let mut res = Ok(());
        for page in first..=last {
            match self.pin(page) {
                Ok(slot) => slots.push(slot),
                Err(e) => {
                    res = Err(e);
                    break;
                }
            }
        }
        if res.is_ok() {
            let mut cursor = off;
            let mut remaining = len;
            for &slot in &slots {
                let start = (cursor % cap) as usize;
                let take = remaining.min(cap as usize - start);
                if let Err(e) = self.copy_from(slot, start, take, out) {
                    res = Err(e);
                    break;
                }
                cursor += take as u64;
                remaining -= take;
            }
        }
        for &slot in &slots {
            self.unpin(slot);
        }
        res
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::file::PagedWriter;
    use std::path::{Path, PathBuf};

    fn tmp(name: &str) -> PathBuf {
        std::env::temp_dir().join(format!(
            "smartcrawl_store_cache_{}_{name}",
            std::process::id()
        ))
    }

    /// Writes `pages` full pages where page i is filled with byte i.
    fn build(path: &Path, pages: u8) -> PageCache {
        let mut w = PagedWriter::create(path, 64).unwrap();
        let cap = w.payload_capacity();
        for i in 0..pages {
            w.append_page(&vec![i; cap]).unwrap();
        }
        w.finish().unwrap();
        PageCache::new(
            PagedReader::open(path).unwrap(),
            2,
            Arc::new(SharedStats::default()),
        )
    }

    #[test]
    fn lru_evicts_the_coldest_unpinned_frame() {
        let path = tmp("lru");
        let mut cache = build(&path, 3);
        let s0 = cache.pin(0).unwrap();
        cache.unpin(s0);
        let s1 = cache.pin(1).unwrap();
        cache.unpin(s1);
        // Budget 2: loading page 2 must evict page 0 (the colder one).
        let s2 = cache.pin(2).unwrap();
        cache.unpin(s2);
        assert!(cache.slot_of.contains_key(&1));
        assert!(cache.slot_of.contains_key(&2));
        assert!(!cache.slot_of.contains_key(&0));
        let stats = cache.stats.snapshot();
        assert_eq!(stats.misses, 3);
        assert_eq!(stats.evictions, 1);
        assert_eq!(stats.resident_pages, 2);
        assert_eq!(stats.peak_resident_pages, 2);
        // Re-pinning page 1 is a hit.
        let s1 = cache.pin(1).unwrap();
        cache.unpin(s1);
        assert_eq!(cache.stats.snapshot().hits, 1);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn pinned_frames_survive_pressure() {
        let path = tmp("pinned");
        let mut cache = build(&path, 4);
        let hold = cache.pin(0).unwrap();
        for page in 1..4 {
            let s = cache.pin(page).unwrap();
            cache.unpin(s);
        }
        // Page 0 was pinned throughout: still resident.
        assert!(cache.slot_of.contains_key(&0));
        cache.unpin(hold);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn span_wider_than_budget_reads_whole() {
        let path = tmp("span");
        let mut cache = build(&path, 4);
        let cap = cache.payload_capacity();
        let mut out = Vec::new();
        // A span over 4 pages with budget 2: pins force over-budget growth.
        cache.read_span(0, cap * 4, &mut out).unwrap();
        assert_eq!(out.len(), cap * 4);
        for (i, chunk) in out.chunks(cap).enumerate() {
            assert!(chunk.iter().all(|&b| b == i as u8));
        }
        assert!(cache.stats.snapshot().peak_resident_pages >= 4);
        // Mid-file, page-straddling span.
        cache.read_span(cap as u64 - 3, 6, &mut out).unwrap();
        assert_eq!(out, [0, 0, 0, 1, 1, 1]);
        std::fs::remove_file(&path).ok();
    }

    /// The frame-scanning LRU the recency list replaced: the victim is
    /// the unpinned frame with the oldest access tick (lowest slot on a
    /// tie), found by scanning every frame.
    struct ScanModel {
        /// `(page, last_used, pinned)` per slot.
        frames: Vec<(u64, u64, u32)>,
        slot_of: HashMap<u64, usize>,
        budget: usize,
        tick: u64,
        hits: u64,
        misses: u64,
        evictions: u64,
    }

    impl ScanModel {
        fn new(budget: usize) -> Self {
            ScanModel {
                frames: Vec::new(),
                slot_of: HashMap::new(),
                budget,
                tick: 0,
                hits: 0,
                misses: 0,
                evictions: 0,
            }
        }

        fn pin(&mut self, page: u64) -> usize {
            self.tick += 1;
            if let Some(&slot) = self.slot_of.get(&page) {
                self.frames[slot].1 = self.tick;
                self.frames[slot].2 += 1;
                self.hits += 1;
                return slot;
            }
            self.misses += 1;
            let victim = self
                .frames
                .iter()
                .enumerate()
                .filter(|(_, f)| f.2 == 0)
                .min_by_key(|&(i, f)| (f.1, i))
                .map(|(i, _)| i);
            let slot = match victim {
                Some(slot) if self.frames.len() >= self.budget => {
                    self.slot_of.remove(&self.frames[slot].0);
                    self.evictions += 1;
                    slot
                }
                _ => {
                    self.frames.push((u64::MAX, 0, 0));
                    self.frames.len() - 1
                }
            };
            self.frames[slot] = (page, self.tick, 1);
            self.slot_of.insert(page, slot);
            slot
        }

        fn unpin(&mut self, slot: usize) {
            self.frames[slot].2 = self.frames[slot].2.saturating_sub(1);
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(64))]

        /// Random pin/unpin/span sequences evict exactly as the frame
        /// scan did: same slot per pin, same resident pages, same hits,
        /// misses and evictions after every step.
        #[test]
        fn recency_list_matches_the_frame_scan(
            case in 0u64..1_000_000,
            budget in 1usize..6,
            ops in proptest::collection::vec((0u8..3, 0u64..12, 0usize..64), 1..160),
        ) {
            let path = tmp(&format!("model_{case}"));
            let pages = 12u8;
            let mut cache = build(&path, pages);
            cache.budget = budget;
            let mut model = ScanModel::new(budget);
            let cap = cache.payload_capacity() as u64;
            let mut held: Vec<usize> = Vec::new();
            let mut out = Vec::new();
            for (kind, page, pick) in ops {
                match kind {
                    0 => {
                        let slot = cache.pin(page).unwrap();
                        proptest::prop_assert_eq!(slot, model.pin(page));
                        proptest::prop_assert_eq!(cache.frames[slot].payload()[0], page as u8);
                        held.push(slot);
                    }
                    1 if !held.is_empty() => {
                        let slot = held.swap_remove(pick % held.len());
                        cache.unpin(slot);
                        model.unpin(slot);
                    }
                    _ => {
                        // A span over up to 3 pages starting inside `page`.
                        let off = page * cap + (pick as u64 % cap);
                        let len = (1 + pick * 7) % (3 * cap as usize) + 1;
                        let len = len.min((u64::from(pages) * cap - off) as usize);
                        cache.read_span(off, len, &mut out).unwrap();
                        let (first, last) = (off / cap, (off + len as u64 - 1) / cap);
                        let slots: Vec<usize> = (first..=last).map(|p| model.pin(p)).collect();
                        for slot in slots {
                            model.unpin(slot);
                        }
                        let expect: Vec<u8> =
                            (off..off + len as u64).map(|b| (b / cap) as u8).collect();
                        proptest::prop_assert_eq!(&out, &expect);
                    }
                }
                let stats = cache.stats.snapshot();
                proptest::prop_assert_eq!(
                    (stats.hits, stats.misses, stats.evictions),
                    (model.hits, model.misses, model.evictions)
                );
                proptest::prop_assert_eq!(&cache.slot_of, &model.slot_of);
            }
            std::fs::remove_file(&path).ok();
        }
    }
}
