//! Property tests of the storage substrate: codec round-trips over
//! arbitrary ascending id sets, cursor-vs-linear equivalence, blob runs
//! straddling tiny pages under a tiny cache, and — the recovery
//! contract — truncated or bit-flipped files surfacing as clean
//! `StoreError`s, never panics. The fuzz properties at the end feed the
//! paged and blob readers arbitrary bytes, forged headers and arbitrary
//! locators: every one must come back `Err`, never panic.

use proptest::collection::{btree_set, vec};
use proptest::prelude::*;
use smartcrawl_store::postings::{decode_postings_into, encode_postings, PostingCursor};
use smartcrawl_store::file::{HEADER_SPAN, MAGIC};
use smartcrawl_store::format::checksum;
use smartcrawl_store::{
    BlobReader, BlobWriter, Locator, PagedReader, PagedWriter, SharedStats, StoreError,
};
use std::path::PathBuf;
use std::sync::Arc;

fn tmp(name: &str, case: u64) -> PathBuf {
    std::env::temp_dir().join(format!(
        "smartcrawl_store_prop_{}_{name}_{case}",
        std::process::id()
    ))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Encode → decode is the identity on any ascending id set, with any
    /// skip-interval crossing the set size happens to produce.
    #[test]
    fn posting_codec_round_trips(ids in btree_set(0u32..5_000, 0..600)) {
        let ids: Vec<u32> = ids.into_iter().collect();
        let mut buf = Vec::new();
        encode_postings(&ids, &mut buf);
        let mut out = Vec::new();
        prop_assert_eq!(decode_postings_into(&buf, &mut out), Some(ids.len()));
        prop_assert_eq!(out, ids);
    }

    /// A skip-jumping cursor visits exactly the elements a linear scan
    /// finds, for any ascending target sequence.
    #[test]
    fn cursor_agrees_with_linear_scan(
        ids in btree_set(0u32..10_000, 1..500),
        raw_targets in vec(0u32..11_000, 1..200),
    ) {
        let ids: Vec<u32> = ids.into_iter().collect();
        let mut targets = raw_targets;
        targets.sort_unstable();
        let mut buf = Vec::new();
        encode_postings(&ids, &mut buf);
        let mut cursor = PostingCursor::new(&buf).expect("header parses");
        for &t in &targets {
            let expect = ids.iter().copied().find(|&id| id >= t);
            prop_assert_eq!(cursor.advance_to(t), expect, "target {}", t);
        }
    }

    /// Blob runs write/read back byte-identically across page boundaries,
    /// with a cache far smaller than the file.
    #[test]
    fn blob_runs_round_trip_across_pages(
        case in 0u64..1_000_000,
        runs in vec(vec(0u8..=255, 0..120), 1..40),
    ) {
        let path = tmp("blob", case);
        // 32-byte pages → 20-byte payloads: most runs straddle pages.
        let mut w = BlobWriter::create(&path, 32).expect("create");
        let locs: Vec<_> = runs.iter().map(|r| w.append(r).expect("append")).collect();
        w.finish().expect("finish");
        let mut r = BlobReader::open(&path, 3, Arc::new(SharedStats::default())).expect("open");
        let mut out = Vec::new();
        // Forward then backward: the backward pass defeats any residual
        // cache warmth from the forward pass.
        for (loc, run) in locs.iter().zip(&runs).chain(locs.iter().zip(&runs).rev()) {
            r.read(*loc, &mut out).expect("read");
            prop_assert_eq!(&out, run);
        }
        std::fs::remove_file(&path).ok();
    }

    /// Any truncation of a finished file is either rejected at open or at
    /// the first page read — never a panic, never silent bad data.
    #[test]
    fn truncation_is_a_clean_error(
        case in 0u64..1_000_000,
        pages in 1usize..6,
        cut in 1usize..200,
    ) {
        let path = tmp("trunc", case);
        let mut w = PagedWriter::create(&path, 64).expect("create");
        for i in 0..pages {
            w.append_page(&[i as u8; 20]).expect("append");
        }
        w.finish().expect("finish");
        let full = std::fs::read(&path).expect("read file");
        let keep = full.len().saturating_sub(cut % full.len());
        std::fs::write(&path, &full[..keep]).expect("truncate");
        match PagedReader::open(&path) {
            Err(StoreError::Corrupt { .. } | StoreError::Io(_)) => {}
            Ok(reader) => {
                // Open may succeed if the header survived; the torn page
                // itself must then fail its read.
                let mut out = Vec::new();
                let mut failures = 0;
                for p in 0..reader.num_pages() {
                    if reader.read_page(p, &mut out).is_err() {
                        failures += 1;
                    }
                }
                prop_assert!(failures > 0, "truncated file read back clean");
            }
        }
        std::fs::remove_file(&path).ok();
    }

    /// A single flipped bit anywhere in the file is caught by the header
    /// or page checksum — reads that reach the flipped byte error out.
    #[test]
    fn bit_rot_is_detected(
        case in 0u64..1_000_000,
        victim in 0usize..300,
        bit in 0u8..8,
    ) {
        let path = tmp("rot", case);
        let mut w = PagedWriter::create(&path, 64).expect("create");
        for i in 0..4u8 {
            w.append_page(&[i; 20]).expect("append");
        }
        w.finish().expect("finish");
        let mut bytes = std::fs::read(&path).expect("read file");
        let idx = victim % bytes.len();
        bytes[idx] ^= 1 << bit;
        std::fs::write(&path, &bytes).expect("rewrite");
        match PagedReader::open(&path) {
            Err(_) => {} // header rejected the flip
            Ok(reader) => {
                let mut out = Vec::new();
                let mut clean = Vec::new();
                for p in 0..reader.num_pages() {
                    match reader.read_page(p, &mut out) {
                        Ok(()) => clean.push((p, out.clone())),
                        Err(StoreError::Corrupt { .. }) => {}
                        Err(e) => panic!("unexpected error kind: {e}"),
                    }
                }
                // Pages that still read clean must be the untouched ones.
                for (p, payload) in clean {
                    prop_assert_eq!(payload, vec![p as u8; 20], "flipped page read back clean");
                }
            }
        }
        std::fs::remove_file(&path).ok();
    }

    /// Arbitrary bytes, with or without the magic line in front, never
    /// open as a paged file.
    #[test]
    fn arbitrary_bytes_fail_open(
        case in 0u64..1_000_000,
        with_magic in 0u8..2,
        body in vec(0u8..=255, 0..400),
    ) {
        let path = tmp("fuzz_open", case);
        let mut bytes = if with_magic == 1 { MAGIC.to_vec() } else { Vec::new() };
        bytes.extend_from_slice(&body);
        std::fs::write(&path, &bytes).expect("write");
        prop_assert!(PagedReader::open(&path).is_err());
        std::fs::remove_file(&path).ok();
    }

    /// A header whose checksum is right but whose sizes are arbitrary,
    /// over arbitrary page bytes: open rejects impossible sizes and short
    /// files, and every page read of what does open fails its checksum.
    #[test]
    fn forged_headers_over_arbitrary_pages_never_read_clean(
        case in 0u64..1_000_000,
        page_size in prop_oneof![0u32..64, Just(64u32), Just(u32::MAX)],
        num_pages in prop_oneof![0u64..8, Just(u64::MAX / 2), Just(u64::MAX)],
        body in vec(0u8..=255, 0..600),
        cut in 0usize..64,
    ) {
        let path = tmp("fuzz_forged", case);
        let mut bytes = MAGIC.to_vec();
        bytes.extend_from_slice(&page_size.to_le_bytes());
        bytes.extend_from_slice(&num_pages.to_le_bytes());
        let sum = checksum(&bytes);
        bytes.extend_from_slice(&sum.to_le_bytes());
        bytes.resize(HEADER_SPAN, 0);
        bytes.extend_from_slice(&body);
        bytes.truncate(bytes.len().saturating_sub(cut));
        std::fs::write(&path, &bytes).expect("write");
        if let Ok(reader) = PagedReader::open(&path) {
            let mut out = Vec::new();
            for p in 0..reader.num_pages().min(16) + 1 {
                prop_assert!(reader.read_page(p, &mut out).is_err(), "page {} read clean", p);
            }
        }
        std::fs::remove_file(&path).ok();
    }

    /// Blob reads through a damaged file or at arbitrary locators return
    /// `Err` or the bytes that were written — never a panic, never wrong
    /// bytes.
    #[test]
    fn blob_reads_of_damaged_files_and_wild_locators_fail_clean(
        case in 0u64..1_000_000,
        runs in vec(vec(0u8..=255, 0..90), 1..12),
        damage in 0u8..3,
        at in 0usize..2_000,
        wild_off in prop_oneof![0u64..2_000, Just(u64::MAX - 3)],
        wild_len in prop_oneof![0u32..200, Just(u32::MAX)],
    ) {
        let path = tmp("fuzz_blob", case);
        let mut w = BlobWriter::create(&path, 32).expect("create");
        let locs: Vec<Locator> = runs.iter().map(|r| w.append(r).expect("append")).collect();
        w.finish().expect("finish");
        let mut bytes = std::fs::read(&path).expect("read file");
        let idx = at % bytes.len();
        match damage {
            0 => bytes.truncate(idx),
            1 => bytes[idx] ^= 0x10,
            _ => {}
        }
        std::fs::write(&path, &bytes).expect("rewrite");
        if let Ok(mut r) = BlobReader::open(&path, 2, Arc::new(SharedStats::default())) {
            let mut out = Vec::new();
            for (loc, run) in locs.iter().zip(&runs) {
                if r.read(*loc, &mut out).is_ok() {
                    prop_assert_eq!(&out, run);
                }
            }
            let wild = Locator { off: wild_off, len: wild_len };
            let end = locs.last().map_or(0, |l| l.off + u64::from(l.len));
            let beyond = wild_off.saturating_add(u64::from(wild_len)) > end + 32;
            let res = r.read(wild, &mut out);
            if beyond {
                prop_assert!(res.is_err(), "read past the file at {:?}", wild);
            }
        }
        std::fs::remove_file(&path).ok();
    }
}
