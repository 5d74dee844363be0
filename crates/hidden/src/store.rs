//! Disk-backed hidden-database backend.
//!
//! The RAM engine holds `Vec<HiddenRecord>` plus a pre-materialized
//! `Vec<Retrieved>` — fine at 10⁵ records, hopeless at the ROADMAP's
//! scale-100 target. This backend keeps the whole record set on disk in
//! `smartcrawl-store`'s paged format and keeps only O(vocabulary) +
//! O(page-cache budget) bytes resident:
//!
//! * **records blob** — each record varint-encoded once behind a varint
//!   length prefix, in insertion order (the order the generator yielded
//!   them, which every digest in the workspace is keyed to). The prefixes
//!   make the blob a self-delimiting stream, so a full sweep is one
//!   sequential pass that never touches the aux blob.
//! * **postings blob** — one delta/varint posting list per token over
//!   *rank-space* ids: records are renumbered by their global ranking
//!   position before encoding, so every list is simultaneously ascending
//!   and rank-sorted. A conjunctive top-k is then a rarest-first cursor
//!   intersection that emits winners in final page order and *stops at
//!   `k`* — non-winning records are never touched, let alone decoded.
//! * **aux blob** — three fixed-width arrays: the rank-indexed row
//!   directory (rank → record locator), insertion id → rank (for
//!   [`DiskHidden::record_at`]), and the external-id lookup as a sorted
//!   `(external, rank)` array probed by binary search. All are read
//!   through the page cache, so resident memory stays O(cache), not
//!   O(|H|).
//!
//! A result row is a rank, so it costs one directory read plus one record
//! read. `Retrieved` views are materialized lazily through a bounded
//! two-generation cache keyed by rank, so a row whose view is cached
//! costs no store read at all. Build-time
//! postings construction is chunked over token ranges with the tokenized
//! documents spilled to a staging blob, so peak build memory is bounded
//! by the chunk budget rather than the corpus' total token count. (The
//! per-record fixed-width side tables — locators, sort keys — are still
//! O(|H|) *transiently* during the build; see DESIGN.md §15.)
//!
//! Failure policy matches the store crate: everything at build/open time
//! returns `Result`; query-time reads on the validated store go through
//! [`expect_store`], because an index vanishing mid-crawl is
//! unrecoverable by design.

use crate::ranking::Ranking;
use crate::record::{ExternalId, HiddenRecord, Retrieved};
use smartcrawl_store::format::{read_varint, write_varint};
use smartcrawl_store::postings::{decode_postings_into, encode_postings, PostingCursor};
use smartcrawl_store::{
    expect_store, BlobReader, BlobWriter, Locator, Result, StoreError, StorePartition, StoreReport,
    StoreRuntime,
};
use smartcrawl_text::{TokenId, Tokenizer, Vocabulary};
use std::collections::HashMap;
use std::sync::{Arc, Mutex};

/// Bytes of one external-id lookup entry: `u64` external + `u32` rank.
const EXT_ENTRY: u64 = 12;
/// Bytes of one row-directory entry: record `u64` offset + `u32` length.
const ROW_ENTRY: u64 = 12;
/// Bytes of one insertion → rank entry: `u32` rank.
const RANK_ENTRY: u64 = 4;
/// Longest LEB128 varint (a `u64`), the most a length prefix can span.
const MAX_VARINT: u64 = 10;
/// Posting ids (× 4 bytes) one build chunk may hold in RAM.
const CHUNK_IDS: usize = 4 << 20;
/// Lazily materialized `Retrieved` views kept per cache generation.
const VIEW_CACHE_CAP: usize = 4096;

fn le_u32(buf: &[u8], off: usize) -> Option<u32> {
    buf.get(off..off + 4)?.try_into().ok().map(u32::from_le_bytes)
}

fn le_u64(buf: &[u8], off: usize) -> Option<u64> {
    buf.get(off..off + 8)?.try_into().ok().map(u64::from_le_bytes)
}

fn corrupt(runtime: &StoreRuntime, detail: &str) -> StoreError {
    StoreError::Corrupt {
        path: runtime.dir().to_path_buf(),
        detail: detail.to_string(),
    }
}

fn short_read() -> StoreError {
    StoreError::Io(std::io::Error::new(
        std::io::ErrorKind::UnexpectedEof,
        "aux entry short read",
    ))
}

/// Encodes one record: external id, rank-signal bits, then length-prefixed
/// field and payload cells.
fn encode_record(r: &HiddenRecord, out: &mut Vec<u8>) {
    out.clear();
    write_varint(out, r.external_id.0);
    out.extend_from_slice(&r.rank_signal.to_bits().to_le_bytes());
    write_varint(out, r.searchable.fields().len() as u64);
    for f in r.searchable.fields() {
        write_varint(out, f.len() as u64);
        out.extend_from_slice(f.as_bytes());
    }
    write_varint(out, r.payload.len() as u64);
    for p in &r.payload {
        write_varint(out, p.len() as u64);
        out.extend_from_slice(p.as_bytes());
    }
}

fn read_cells(buf: &[u8], pos: &mut usize) -> Option<Vec<String>> {
    let n = usize::try_from(read_varint(buf, pos)?).ok()?;
    if n > buf.len() {
        return None;
    }
    let mut cells = Vec::with_capacity(n);
    for _ in 0..n {
        let len = usize::try_from(read_varint(buf, pos)?).ok()?;
        let bytes = buf.get(*pos..pos.checked_add(len)?)?;
        *pos += len;
        cells.push(String::from_utf8(bytes.to_vec()).ok()?);
    }
    Some(cells)
}

/// Splits an encoded record into its external id, rank-signal bits,
/// searchable fields and payload.
fn decode_cells(buf: &[u8]) -> Option<(u64, u64, Vec<String>, Vec<String>)> {
    let mut pos = 0usize;
    let ext = read_varint(buf, &mut pos)?;
    let bits = le_u64(buf, pos)?;
    pos += 8;
    let fields = read_cells(buf, &mut pos)?;
    let payload = read_cells(buf, &mut pos)?;
    (pos == buf.len()).then_some((ext, bits, fields, payload))
}

fn decode_record(buf: &[u8]) -> Option<HiddenRecord> {
    let (ext, bits, fields, payload) = decode_cells(buf)?;
    Some(HiddenRecord::new(
        ext,
        smartcrawl_text::Record::new(fields),
        payload,
        f64::from_bits(bits),
    ))
}

/// The interface view of an encoded record, its cells moved straight in.
fn decode_view(buf: &[u8]) -> Option<Retrieved> {
    let (ext, _, fields, payload) = decode_cells(buf)?;
    Some(Retrieved::new(ExternalId(ext), fields, payload))
}

/// Bounded two-generation view cache: O(1) insert/lookup, at most
/// `2 × cap` resident views, promotion on hit. Eviction is a pure
/// function of the access sequence — no wall clock anywhere.
#[derive(Debug)]
struct ViewCache {
    cap: usize,
    hot: HashMap<u32, Retrieved>,
    cold: HashMap<u32, Retrieved>,
}

impl ViewCache {
    fn new(cap: usize) -> Self {
        Self {
            cap: cap.max(1),
            hot: HashMap::new(),
            cold: HashMap::new(),
        }
    }

    fn get(&mut self, rank: u32) -> Option<Retrieved> {
        if let Some(v) = self.hot.get(&rank) {
            return Some(v.clone());
        }
        let v = self.cold.remove(&rank)?;
        self.insert(rank, v.clone());
        Some(v)
    }

    fn insert(&mut self, rank: u32, view: Retrieved) {
        if self.hot.len() >= self.cap {
            self.cold = std::mem::take(&mut self.hot);
        }
        self.hot.insert(rank, view);
    }
}

/// The mutable half of the backend: blob readers with their page caches
/// and scratch buffers, serialized behind one mutex (readers reposition
/// files and recycle cache frames, so they need `&mut`).
#[derive(Debug)]
struct Readers {
    records: BlobReader,
    postings: BlobReader,
    aux: BlobReader,
    /// Scratch for aux/record span reads.
    scratch: Vec<u8>,
    views: ViewCache,
}

/// Disk-backed record/ranking backend behind the `HiddenDb` API.
#[derive(Debug)]
pub(crate) struct DiskHidden {
    runtime: Arc<StoreRuntime>,
    /// Number of records `|H|`.
    n: u32,
    /// Per-token locator of the rank-space posting list (O(vocab)).
    post_locs: Vec<Locator>,
    /// Per-token document frequency (O(vocab)).
    post_counts: Vec<u32>,
    /// Logical offsets of the three aux runs: the row directory,
    /// insertion → rank, and the sorted external-id lookup.
    row_base: u64,
    rank_base: u64,
    ext_base: u64,
    /// Logical length of the records blob (end of the last record).
    records_end: u64,
    reader: Mutex<Readers>,
}

impl DiskHidden {
    /// Streams `records` into the store format and opens the query-time
    /// readers. `vocab` is grown in place (the owning `HiddenDb` keeps it
    /// for query normalization).
    pub(crate) fn build<I>(
        records: I,
        tokenizer: &Tokenizer,
        vocab: &mut Vocabulary,
        ranking: Ranking,
        runtime: Arc<StoreRuntime>,
    ) -> Result<Self>
    where
        I: IntoIterator<Item = HiddenRecord>,
    {
        let page_size = runtime.config().page_size;
        let rec_path = runtime.file_path("hidden-records");
        let doc_path = runtime.file_path("hidden-docs-staging");
        let mut rec_writer = BlobWriter::create(&rec_path, page_size)?;
        let mut doc_writer = BlobWriter::create(&doc_path, page_size)?;

        // Pass 1: stream records once — serialize each into the records
        // blob, spill its tokenized document to the staging blob, and keep
        // only fixed-width per-record side data (locator, sort key,
        // external id).
        let mut rec_locs: Vec<Locator> = Vec::new();
        let mut doc_locs: Vec<Locator> = Vec::new();
        let mut keys: Vec<(u64, u64)> = Vec::new();
        let mut exts: Vec<u64> = Vec::new();
        let mut tok_counts: Vec<u32> = Vec::new();
        let mut buf = Vec::new();
        let mut prefix = Vec::with_capacity(MAX_VARINT as usize);
        for r in records {
            let doc = r.searchable.document(tokenizer, vocab);
            buf.clear();
            write_varint(&mut buf, doc.len() as u64);
            let mut prev = 0u32;
            for t in doc.iter() {
                write_varint(&mut buf, u64::from(t.0 - prev));
                prev = t.0;
                if tok_counts.len() <= t.index() {
                    tok_counts.resize(t.index() + 1, 0);
                }
                if let Some(c) = tok_counts.get_mut(t.index()) {
                    *c += 1;
                }
            }
            doc_locs.push(doc_writer.append(&buf)?);
            encode_record(&r, &mut buf);
            prefix.clear();
            write_varint(&mut prefix, buf.len() as u64);
            rec_writer.append(&prefix)?;
            rec_locs.push(rec_writer.append(&buf)?);
            keys.push((ranking.key(r.external_id.0, r.rank_signal), r.external_id.0));
            exts.push(r.external_id.0);
        }
        let records_end = rec_locs
            .last()
            .map_or(0, |loc| loc.off + u64::from(loc.len));
        rec_writer.finish()?;
        doc_writer.finish()?;
        tok_counts.resize(vocab.len(), 0);
        let n = u32::try_from(rec_locs.len())
            .map_err(|_| corrupt(&runtime, "more than u32::MAX hidden records"))?;

        // The global ranking permutation: rank-space id = position in the
        // order sorted by (ranking key, external id) — the exact key the
        // RAM engine uses for `rank_pos`, so both backends agree on every
        // tie-break.
        let mut order: Vec<u32> = (0..n).collect();
        order.sort_unstable_by_key(|&i| keys.get(i as usize).copied());
        drop(keys);
        let mut ins_to_rank = vec![0u32; n as usize];
        for (rank, &ins) in order.iter().enumerate() {
            if let Some(slot) = ins_to_rank.get_mut(ins as usize) {
                *slot = rank as u32;
            }
        }

        // Pass 2: postings over rank-space ids, built a token-range chunk
        // at a time. Each chunk re-streams the staging blob sequentially
        // and holds at most ~CHUNK_IDS ids in RAM; chunks are contiguous
        // ascending token ranges, so appending them in order keeps the
        // postings blob token-ordered.
        let post_path = runtime.file_path("hidden-postings");
        let mut post_writer = BlobWriter::create(&post_path, page_size)?;
        let mut post_locs: Vec<Locator> = Vec::with_capacity(vocab.len());
        let mut post_counts: Vec<u32> = Vec::with_capacity(vocab.len());
        let mut staging = BlobReader::open(
            &doc_path,
            staging_budget(&runtime),
            runtime.partition_stats(StorePartition::Staging),
        )?;
        let mut chunk_lo = 0usize;
        let mut doc_buf: Vec<u8> = Vec::new();
        let mut encoded: Vec<u8> = Vec::new();
        while chunk_lo < vocab.len() {
            let mut chunk_hi = chunk_lo;
            let mut chunk_ids = 0usize;
            while chunk_hi < vocab.len() {
                let c = tok_counts.get(chunk_hi).copied().unwrap_or(0) as usize;
                if chunk_ids + c > CHUNK_IDS && chunk_hi > chunk_lo {
                    break;
                }
                chunk_ids += c;
                chunk_hi += 1;
            }
            let mut lists: Vec<Vec<u32>> = vec![Vec::new(); chunk_hi - chunk_lo];
            for (ins, &loc) in doc_locs.iter().enumerate() {
                staging.read(loc, &mut doc_buf)?;
                let mut pos = 0usize;
                let count = read_varint(&doc_buf, &mut pos)
                    .ok_or_else(|| corrupt(&runtime, "undecodable staged document"))?;
                let mut tok = 0u32;
                let rank = ins_to_rank.get(ins).copied().unwrap_or(0);
                for step in 0..count {
                    let gap = read_varint(&doc_buf, &mut pos)
                        .ok_or_else(|| corrupt(&runtime, "undecodable staged document"))?;
                    tok = if step == 0 { gap as u32 } else { tok + gap as u32 };
                    let t = tok as usize;
                    if t >= chunk_lo && t < chunk_hi {
                        if let Some(list) = lists.get_mut(t - chunk_lo) {
                            list.push(rank);
                        }
                    }
                }
            }
            for list in &mut lists {
                list.sort_unstable();
                encoded.clear();
                encode_postings(list, &mut encoded);
                post_counts.push(list.len() as u32);
                post_locs.push(post_writer.append(&encoded)?);
            }
            chunk_lo = chunk_hi;
        }
        post_writer.finish()?;
        drop(staging);
        drop(doc_locs);
        std::fs::remove_file(&doc_path)?;

        // Aux blob: the three fixed-width arrays, appended entry by entry
        // (blob offsets are contiguous, so entry i of a run lives at
        // `base + i × ENTRY`).
        let aux_path = runtime.file_path("hidden-aux");
        let mut aux_writer = BlobWriter::create(&aux_path, page_size)?;
        let mut row_base = 0u64;
        let mut rank_base = 0u64;
        let mut ext_base = 0u64;
        let mut entry: Vec<u8> = Vec::with_capacity(ROW_ENTRY as usize);
        for (rank, &ins) in order.iter().enumerate() {
            let loc = rec_locs.get(ins as usize).copied().unwrap_or_default();
            entry.clear();
            entry.extend_from_slice(&loc.off.to_le_bytes());
            entry.extend_from_slice(&loc.len.to_le_bytes());
            let at = aux_writer.append(&entry)?;
            if rank == 0 {
                row_base = at.off;
            }
        }
        drop(order);
        drop(rec_locs);
        for (ins, &rank) in ins_to_rank.iter().enumerate() {
            let at = aux_writer.append(&rank.to_le_bytes())?;
            if ins == 0 {
                rank_base = at.off;
            }
        }
        let mut ext_pairs: Vec<(u64, u32)> = exts
            .into_iter()
            .zip(&ins_to_rank)
            .map(|(ext, &rank)| (ext, rank))
            .collect();
        drop(ins_to_rank);
        ext_pairs.sort_unstable();
        for (i, &(ext, rank)) in ext_pairs.iter().enumerate() {
            entry.clear();
            entry.extend_from_slice(&ext.to_le_bytes());
            entry.extend_from_slice(&rank.to_le_bytes());
            let at = aux_writer.append(&entry)?;
            if i == 0 {
                ext_base = at.off;
            }
        }
        aux_writer.finish()?;
        drop(ext_pairs);

        let part = |p| runtime.partition_stats(p);
        let reader = Readers {
            records: BlobReader::open(
                &rec_path,
                record_budget(&runtime),
                part(StorePartition::Records),
            )?,
            postings: BlobReader::open(
                &post_path,
                postings_budget(&runtime),
                part(StorePartition::Postings),
            )?,
            aux: BlobReader::open(&aux_path, aux_budget(&runtime), part(StorePartition::Aux))?,
            scratch: Vec::new(),
            views: ViewCache::new(VIEW_CACHE_CAP),
        };
        Ok(Self {
            runtime,
            n,
            post_locs,
            post_counts,
            row_base,
            rank_base,
            ext_base,
            records_end,
            reader: Mutex::new(reader),
        })
    }

    pub(crate) fn len(&self) -> usize {
        self.n as usize
    }

    pub(crate) fn report(&self) -> StoreReport {
        self.runtime.report()
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Readers> {
        self.reader.lock().unwrap_or_else(|p| p.into_inner())
    }

    /// Reads one fixed-width aux entry into the scratch buffer.
    fn aux_entry(r: &mut Readers, off: u64, len: u64) -> Result<()> {
        let loc = Locator {
            off,
            len: len as u32,
        };
        r.aux.read(loc, &mut r.scratch)
    }

    /// Record locator of the row ranked `rank` (one directory read).
    fn row_of(&self, r: &mut Readers, rank: u32) -> Result<Locator> {
        Self::aux_entry(r, self.row_base + u64::from(rank) * ROW_ENTRY, ROW_ENTRY)?;
        match (le_u64(&r.scratch, 0), le_u32(&r.scratch, 8)) {
            (Some(off), Some(len)) => Ok(Locator { off, len }),
            _ => Err(short_read()),
        }
    }

    /// Rank of insertion id `ins`.
    fn rank_of(&self, r: &mut Readers, ins: u32) -> Result<u32> {
        Self::aux_entry(r, self.rank_base + u64::from(ins) * RANK_ENTRY, RANK_ENTRY)?;
        le_u32(&r.scratch, 0).ok_or_else(short_read)
    }

    /// Binary search of the sorted `(external, rank)` array.
    fn lookup_external(&self, r: &mut Readers, ext: u64) -> Result<Option<u32>> {
        let (mut lo, mut hi) = (0u64, u64::from(self.n));
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            Self::aux_entry(r, self.ext_base + mid * EXT_ENTRY, EXT_ENTRY)?;
            let entry_ext = le_u64(&r.scratch, 0).ok_or_else(short_read)?;
            match entry_ext.cmp(&ext) {
                std::cmp::Ordering::Less => lo = mid + 1,
                std::cmp::Ordering::Greater => hi = mid,
                std::cmp::Ordering::Equal => return Ok(le_u32(&r.scratch, 8)),
            }
        }
        Ok(None)
    }

    /// Decodes the full record ranked `rank`.
    fn record_of(&self, r: &mut Readers, rank: u32) -> Result<HiddenRecord> {
        let loc = self.row_of(r, rank)?;
        r.records.read(loc, &mut r.scratch)?;
        decode_record(&r.scratch).ok_or_else(|| corrupt(&self.runtime, "undecodable record"))
    }

    /// The interface view of the row ranked `rank`, through the bounded
    /// lazy cache.
    fn view_of(&self, r: &mut Readers, rank: u32) -> Result<Retrieved> {
        if let Some(v) = r.views.get(rank) {
            return Ok(v);
        }
        let loc = self.row_of(r, rank)?;
        r.records.read(loc, &mut r.scratch)?;
        let view =
            decode_view(&r.scratch).ok_or_else(|| corrupt(&self.runtime, "undecodable record"))?;
        r.views.insert(rank, view.clone());
        Ok(view)
    }

    /// The page for a list of rank-space ids (already in final order).
    fn page_of_ranks(&self, r: &mut Readers, ranks: &[u32]) -> Result<Vec<Retrieved>> {
        let mut page = Vec::with_capacity(ranks.len());
        for &rank in ranks {
            page.push(self.view_of(r, rank)?);
        }
        Ok(page)
    }

    /// Rarest-first conjunctive intersection over rank-space postings.
    /// Ids come out ascending — i.e. best-ranked first — so `limit`
    /// truncates to the top-k without ever visiting a non-winning record.
    fn intersect(
        &self,
        r: &mut Readers,
        tokens: &[TokenId],
        limit: Option<usize>,
    ) -> Result<Vec<u32>> {
        let mut metas: Vec<(u32, u32, Locator)> = Vec::with_capacity(tokens.len());
        for t in tokens {
            let count = self.post_counts.get(t.index()).copied().unwrap_or(0);
            if count == 0 {
                return Ok(Vec::new());
            }
            let loc = self
                .post_locs
                .get(t.index())
                .copied()
                .ok_or_else(|| corrupt(&self.runtime, "token beyond posting directory"))?;
            metas.push((count, t.0, loc));
        }
        metas.sort_unstable_by_key(|&(count, tok, _)| (count, tok));
        let Some((&(_, _, seed_loc), rest)) = metas.split_first() else {
            return Ok(Vec::new());
        };
        let mut seed_bytes = Vec::new();
        r.postings.read(seed_loc, &mut seed_bytes)?;
        let mut seed: Vec<u32> = Vec::new();
        decode_postings_into(&seed_bytes, &mut seed)
            .ok_or_else(|| corrupt(&self.runtime, "undecodable posting list"))?;
        let mut bufs: Vec<Vec<u8>> = Vec::with_capacity(rest.len());
        for &(_, _, loc) in rest {
            let mut b = Vec::new();
            r.postings.read(loc, &mut b)?;
            bufs.push(b);
        }
        let mut cursors = Vec::with_capacity(bufs.len());
        for b in &bufs {
            cursors.push(
                PostingCursor::new(b)
                    .ok_or_else(|| corrupt(&self.runtime, "undecodable posting list"))?,
            );
        }
        let mut out = Vec::new();
        'cand: for &id in &seed {
            for c in cursors.iter_mut() {
                match c.advance_to(id) {
                    Some(hit) if hit == id => {}
                    Some(_) => continue 'cand,
                    None => break 'cand,
                }
            }
            out.push(id);
            if limit.is_some_and(|k| out.len() >= k) {
                break;
            }
        }
        Ok(out)
    }

    /// The conjunctive top-`k` page.
    pub(crate) fn conjunctive_page(&self, tokens: &[TokenId], k: usize) -> Vec<Retrieved> {
        let mut r = self.lock();
        let ranks = expect_store(
            self.intersect(&mut r, tokens, Some(k)),
            "hidden conjunctive search",
        );
        expect_store(self.page_of_ranks(&mut r, &ranks), "hidden page read")
    }

    /// `|q(H)|` under conjunctive semantics (no early stop).
    pub(crate) fn frequency(&self, tokens: &[TokenId]) -> usize {
        let mut r = self.lock();
        expect_store(self.intersect(&mut r, tokens, None), "hidden frequency scan").len()
    }

    /// The disjunctive top-`k` page: full matches first, then partials,
    /// both ordered by rank — identical keys to the RAM engine because a
    /// rank-space id *is* the rank position.
    pub(crate) fn disjunctive_page(&self, tokens: &[TokenId], k: usize) -> Vec<Retrieved> {
        let mut r = self.lock();
        let mut hits: HashMap<u32, u32> = HashMap::new();
        let mut bytes = Vec::new();
        let mut ids: Vec<u32> = Vec::new();
        for t in tokens {
            if self.post_counts.get(t.index()).copied().unwrap_or(0) == 0 {
                continue;
            }
            let Some(loc) = self.post_locs.get(t.index()).copied() else {
                continue;
            };
            expect_store(r.postings.read(loc, &mut bytes), "hidden postings read");
            expect_store(
                decode_postings_into(&bytes, &mut ids)
                    .ok_or_else(|| corrupt(&self.runtime, "undecodable posting list")),
                "hidden postings decode",
            );
            for &id in &ids {
                *hits.entry(id).or_insert(0) += 1;
            }
        }
        let n_query = tokens.len() as u32;
        let mut scored: Vec<(u32, bool)> = hits
            .into_iter()
            .map(|(rank, m)| (rank, m == n_query))
            .collect();
        scored.sort_unstable_by_key(|&(rank, full)| (std::cmp::Reverse(full), rank));
        scored.truncate(k);
        let ranks: Vec<u32> = scored.into_iter().map(|(rank, _)| rank).collect();
        expect_store(self.page_of_ranks(&mut r, &ranks), "hidden page read")
    }

    /// Ground-truth record access by external id.
    pub(crate) fn get(&self, id: ExternalId) -> Option<HiddenRecord> {
        let mut r = self.lock();
        let rank = expect_store(self.lookup_external(&mut r, id.0), "hidden external lookup")?;
        Some(expect_store(self.record_of(&mut r, rank), "hidden record read"))
    }

    /// The interface view by external id.
    pub(crate) fn retrieved_of(&self, id: ExternalId) -> Option<Retrieved> {
        let mut r = self.lock();
        let rank = expect_store(self.lookup_external(&mut r, id.0), "hidden external lookup")?;
        Some(expect_store(self.view_of(&mut r, rank), "hidden view read"))
    }

    /// The full record at insertion position `ins` (iteration support).
    pub(crate) fn record_at(&self, ins: usize) -> HiddenRecord {
        let mut r = self.lock();
        let record = u32::try_from(ins)
            .map_err(|_| corrupt(&self.runtime, "insertion id beyond u32"))
            .and_then(|ins| self.rank_of(&mut r, ins))
            .and_then(|rank| self.record_of(&mut r, rank));
        expect_store(record, "hidden record read")
    }

    /// Reads the next length-delimited record of the records blob at
    /// `*cursor` into the scratch buffer and advances `*cursor` past it.
    fn next_record(&self, r: &mut Readers, cursor: &mut u64) -> Result<()> {
        let span = MAX_VARINT.min(self.records_end.saturating_sub(*cursor));
        let prefix = Locator {
            off: *cursor,
            len: span as u32,
        };
        r.records.read(prefix, &mut r.scratch)?;
        let mut pos = 0usize;
        let len = read_varint(&r.scratch, &mut pos)
            .and_then(|len| u32::try_from(len).ok())
            .ok_or_else(|| corrupt(&self.runtime, "undecodable record length"))?;
        let loc = Locator {
            off: *cursor + pos as u64,
            len,
        };
        *cursor = loc.off + u64::from(len);
        r.records.read(loc, &mut r.scratch)
    }

    /// Streams every record's interface view in insertion order without
    /// materializing the set — one sequential pass over the
    /// length-delimited records blob, bypassing the view cache (and the
    /// aux blob) so a full sweep cannot evict the working set.
    pub(crate) fn for_each_retrieved(&self, mut f: impl FnMut(Retrieved)) {
        let mut r = self.lock();
        let mut cursor = 0u64;
        for _ in 0..self.n {
            let view = self.next_record(&mut r, &mut cursor).and_then(|()| {
                decode_view(&r.scratch).ok_or_else(|| corrupt(&self.runtime, "undecodable record"))
            });
            f(expect_store(view, "hidden record sweep"));
        }
    }
}

/// Budget split of the runtime's total page-cache budget. The splits sum
/// to strictly less than the configured total so transient build-time
/// readers and over-budget span pins stay under `cache_pages` overall.
fn postings_budget(rt: &StoreRuntime) -> usize {
    (rt.config().cache_pages / 2).max(2)
}

fn record_budget(rt: &StoreRuntime) -> usize {
    (rt.config().cache_pages / 4).max(2)
}

fn aux_budget(rt: &StoreRuntime) -> usize {
    (rt.config().cache_pages / 16).max(2)
}

fn staging_budget(rt: &StoreRuntime) -> usize {
    (rt.config().cache_pages / 16).max(2)
}
