//! Robustness of the persisted readers: sample files (`load_sample`) and
//! query-cache files (`load_cache`) are shared between users and
//! processes, so their contents are outside input. Arbitrary bytes,
//! truncations of a valid file and crafted counts must come back as an
//! `Err` — never a panic, and never a load that silently differs from
//! what was written.

use proptest::collection::vec;
use proptest::prelude::*;
use smartcrawl_cache::{load_cache, save_cache, CachePolicy, QueryCache};
use smartcrawl_hidden::{ExternalId, Retrieved, SearchPage};
use smartcrawl_sampler::{load_sample, save_sample, HiddenSample};
use smartcrawl_store::file::MAGIC;
use smartcrawl_store::PagedWriter;
use std::io::ErrorKind;
use std::path::PathBuf;

/// First line of every sample file.
const SAMPLE_MAGIC: &[u8] = b"#smartcrawl-sample v1\n";
/// Stream tag at the start of every query-cache file's paged stream.
const CACHE_TAG: &[u8] = b"#smartcrawl-query-cache v2\n";

fn tmp(name: &str, case: u64) -> PathBuf {
    std::env::temp_dir().join(format!(
        "smartcrawl_persist_fuzz_{}_{name}_{case}",
        std::process::id()
    ))
}

fn retrieved(id: u64, fields: &[&str], payload: &[&str]) -> Retrieved {
    Retrieved::new(
        ExternalId(id),
        fields.iter().map(|s| (*s).to_owned()).collect(),
        payload.iter().map(|s| (*s).to_owned()).collect(),
    )
}

fn valid_sample() -> HiddenSample {
    HiddenSample {
        records: vec![
            retrieved(7, &["thai\thouse", "line\nbreak"], &["4.5"]),
            retrieved(42, &["back\\slash"], &[]),
            retrieved(9, &["noodle bar", "main st"], &["3.0", "$$"]),
        ],
        theta: 0.025,
    }
}

fn valid_cache() -> QueryCache {
    let mut c = QueryCache::default();
    c.insert(
        vec!["house".into(), "thai".into()],
        SearchPage {
            records: vec![retrieved(10, &["thai house", "tab\there"], &["4.5"])],
        },
    );
    c.insert(vec!["empty".into()], SearchPage::default());
    c
}

/// A count no record line can match: at least 2^32.
fn huge_count() -> impl Strategy<Value = u64> {
    prop_oneof![
        Just(u64::MAX),
        (u64::MAX - 8)..u64::MAX,
        (1u64 << 32)..(1u64 << 40),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Arbitrary bytes, with or without the sample magic line in front,
    /// never load as a sample.
    #[test]
    fn load_sample_rejects_arbitrary_bytes(
        case in 0u64..1_000_000,
        with_magic in 0u8..2,
        body in vec(0u8..=255, 0..400),
    ) {
        let path = tmp("sample_bytes", case);
        let mut bytes = if with_magic == 1 { SAMPLE_MAGIC.to_vec() } else { Vec::new() };
        bytes.extend_from_slice(&body);
        std::fs::write(&path, &bytes).expect("write");
        prop_assert!(load_sample(&path).is_err());
        std::fs::remove_file(&path).ok();
    }

    /// A record line whose field or payload count is huge is rejected as
    /// `InvalidData`, whatever cells follow it: the arity check must not
    /// overflow, and must not wrap into a pass.
    #[test]
    fn load_sample_rejects_crafted_counts(
        case in 0u64..1_000_000,
        big in huge_count(),
        small in 0u64..4,
        big_is_fields in 0u8..2,
        cells in 0usize..6,
    ) {
        let path = tmp("sample_counts", case);
        let (nf, np) = if big_is_fields == 1 { (big, small) } else { (small, big) };
        let mut text = format!("#smartcrawl-sample v1\ntheta\t0.5\n1\t{nf}\t{np}");
        for i in 0..cells {
            text.push_str(&format!("\tcell{i}"));
        }
        text.push('\n');
        std::fs::write(&path, text).expect("write");
        let err = load_sample(&path).expect_err("crafted counts must not load");
        prop_assert_eq!(err.kind(), ErrorKind::InvalidData);
        std::fs::remove_file(&path).ok();
    }

    /// A truncated sample file never panics. The text format carries no
    /// length trailer, so a cut that leaves whole lines loads as a shorter
    /// sample, and a cut inside the theta line can leave a shorter number.
    /// Once the header survives, what loads must be a prefix of what was
    /// written (the last record may have lost the tail of its final cell).
    #[test]
    fn load_sample_survives_truncation(case in 0u64..1_000_000, cut in 1usize..400) {
        let path = tmp("sample_trunc", case);
        let orig = valid_sample();
        save_sample(&path, &orig).expect("save");
        let full = std::fs::read(&path).expect("read file");
        let keep = full.len().saturating_sub(cut % full.len());
        std::fs::write(&path, &full[..keep]).expect("truncate");
        let loaded = load_sample(&path);
        let header_kept = keep >= SAMPLE_MAGIC.len() + "theta\t0.025\n".len();
        if let (Ok(loaded), true) = (loaded, header_kept) {
            prop_assert_eq!(loaded.theta, orig.theta);
            prop_assert!(loaded.records.len() <= orig.records.len());
            let whole = loaded.records.len().saturating_sub(1);
            for (got, want) in loaded.records.iter().zip(&orig.records).take(whole) {
                prop_assert_eq!(got.external_id, want.external_id);
                prop_assert_eq!(&got.fields, &want.fields);
                prop_assert_eq!(&got.payload, &want.payload);
            }
        }
        std::fs::remove_file(&path).ok();
    }

    /// Arbitrary bytes, with or without the paged-file magic in front,
    /// never load as a query cache.
    #[test]
    fn load_cache_rejects_arbitrary_bytes(
        case in 0u64..1_000_000,
        with_magic in 0u8..2,
        body in vec(0u8..=255, 0..400),
    ) {
        let path = tmp("cache_bytes", case);
        let mut bytes = if with_magic == 1 { MAGIC.to_vec() } else { Vec::new() };
        bytes.extend_from_slice(&body);
        std::fs::write(&path, &bytes).expect("write");
        prop_assert!(load_cache(&path, CachePolicy::default()).is_err());
        std::fs::remove_file(&path).ok();
    }

    /// Every truncation of a saved cache is rejected: the paged layer
    /// writes its header last and checksums every page.
    #[test]
    fn load_cache_rejects_truncation(case in 0u64..1_000_000, cut in 1usize..400) {
        let path = tmp("cache_trunc", case);
        save_cache(&path, &valid_cache()).expect("save");
        let full = std::fs::read(&path).expect("read file");
        let keep = full.len().saturating_sub(cut % full.len());
        std::fs::write(&path, &full[..keep]).expect("truncate");
        prop_assert!(load_cache(&path, CachePolicy::default()).is_err());
        std::fs::remove_file(&path).ok();
    }

    /// Page checksums are not a MAC: anyone can write a checksum-valid
    /// file around an arbitrary stream. Such a stream, with or without the
    /// cache tag, never panics the decoder. A stream that happens to be a
    /// well-formed encoding may load, and must then save and load back to
    /// the same entries.
    #[test]
    fn load_cache_survives_checksummed_arbitrary_streams(
        case in 0u64..1_000_000,
        with_tag in 0u8..2,
        body in vec(0u8..=255, 0..600),
    ) {
        let path = tmp("cache_stream", case);
        let mut stream = if with_tag == 1 { CACHE_TAG.to_vec() } else { Vec::new() };
        stream.extend_from_slice(&body);
        let mut w = PagedWriter::create(&path, 64).expect("create");
        for chunk in stream.chunks(w.payload_capacity()) {
            w.append_page(chunk).expect("append");
        }
        w.finish().expect("finish");
        match load_cache(&path, CachePolicy::default()) {
            Err(e) => prop_assert_eq!(e.kind(), ErrorKind::InvalidData),
            Ok(loaded) => {
                prop_assert!(with_tag == 1, "an untagged stream loaded");
                let again = tmp("cache_stream_again", case);
                save_cache(&again, &loaded).expect("re-save");
                let reloaded = load_cache(&again, CachePolicy::default()).expect("reload");
                prop_assert_eq!(
                    reloaded.iter_lru().collect::<Vec<_>>(),
                    loaded.iter_lru().collect::<Vec<_>>()
                );
                std::fs::remove_file(&again).ok();
            }
        }
        std::fs::remove_file(&path).ok();
    }
}
