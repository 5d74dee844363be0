//! Pins `QueryPool::generate` against a reference pool built the obvious
//! way (paper §3.1): Apriori for the frequent keyword sets, the
//! immediate-subset dominance rule, naive per-record queries deduplicated
//! against everything before them, the seeded shuffle, and `q(D)` by
//! scanning every local document. The generator may compute any of these
//! steps however it likes; the queries, their order, their match sets and
//! the provenance counters must come out identical.

use deeper::core::{PoolStats, Query};
use deeper::fpm::{apriori, MinerConfig};
use deeper::index::QueryId;
use deeper::par::with_threads;
use deeper::text::{Record, RecordId, TokenId};
use deeper::{LocalDb, PoolConfig, QueryPool, TextContext};
use proptest::prelude::*;
use rand::{rngs::StdRng, seq::SliceRandom, SeedableRng};
use std::collections::HashSet;

const WORDS: [&str; 9] = [
    "thai", "noodle", "house", "jade", "express", "garden", "palace", "golden", "pearl",
];

/// A local database whose records are word lists drawn from [`WORDS`]
/// (repeats within a record collapse under the tokenizer's set semantics).
fn local_db(records: &[Vec<usize>]) -> LocalDb {
    let records = records
        .iter()
        .map(|r| {
            let text: Vec<&str> = r.iter().map(|&w| WORDS[w]).collect();
            Record::from([text.join(" ").as_str()])
        })
        .collect();
    LocalDb::build(records, &mut TextContext::new())
}

/// The reference pool: (queries in pool order, `q(D)` per query, stats).
fn reference_pool(
    local: &LocalDb,
    cfg: &PoolConfig,
) -> (Vec<Query>, Vec<Vec<RecordId>>, PoolStats) {
    let mined = apriori(local.docs(), MinerConfig::new(cfg.min_support, cfg.max_len));
    let support_of = |items: &[TokenId]| mined.iter().find(|s| s.items == items).map(|s| s.support);
    let mut dominated: HashSet<Vec<TokenId>> = HashSet::new();
    for set in &mined {
        for drop in 0..set.items.len() {
            let mut sub = set.items.clone();
            sub.remove(drop);
            if !sub.is_empty() && support_of(&sub) == Some(set.support) {
                dominated.insert(sub);
            }
        }
    }
    let mut stats = PoolStats {
        mined: mined.len(),
        dominated: dominated.len(),
        ..Default::default()
    };
    let mut queries: Vec<Query> = mined
        .iter()
        .filter(|s| !dominated.contains(&s.items))
        .map(|s| Query::new(s.items.clone()))
        .collect();
    for doc in local.docs() {
        if doc.is_empty() {
            continue;
        }
        if queries.iter().any(|q| q.tokens() == doc.tokens()) {
            stats.naive_deduped += 1;
        } else {
            stats.naive += 1;
            queries.push(Query::new(doc.tokens().to_vec()));
        }
    }
    queries.shuffle(&mut StdRng::seed_from_u64(cfg.seed));
    let matches = queries
        .iter()
        .map(|q| {
            (0..local.len())
                .filter(|&i| local.doc(i).contains_all(q.tokens()))
                .map(|i| RecordId(i as u32))
                .collect()
        })
        .collect();
    (queries, matches, stats)
}

fn corpus_strategy() -> impl Strategy<Value = Vec<Vec<usize>>> {
    prop::collection::vec(prop::collection::vec(0usize..WORDS.len(), 0..7), 0..18)
}

fn assert_matches_reference(records: &[Vec<usize>], cfg: &PoolConfig) {
    let local = local_db(records);
    let (queries, matches, stats) = reference_pool(&local, cfg);
    let pool = QueryPool::generate(&local, cfg);
    assert_eq!(
        pool.queries(),
        queries.as_slice(),
        "queries or their order, {cfg:?}"
    );
    assert_eq!(pool.all_matches(), matches.as_slice(), "q(D), {cfg:?}");
    assert_eq!(pool.stats(), stats, "stats, {cfg:?}");
}

proptest! {
    #[test]
    fn pool_equals_the_reference_construction(
        records in corpus_strategy(),
        min_support in 1usize..4,
        max_len in 1usize..5,
        seed in 0u64..1_000,
    ) {
        let cfg = PoolConfig { min_support, max_len, seed };
        assert_matches_reference(&records, &cfg);
    }

    #[test]
    fn pool_equals_the_reference_on_two_threads(records in corpus_strategy(), max_len in 1usize..5) {
        let cfg = PoolConfig { min_support: 2, max_len, seed: 0x5A17 };
        with_threads(2, || assert_matches_reference(&records, &cfg));
    }
}

#[test]
fn dominance_and_both_dedups_match_the_reference() {
    // "noodle" always co-occurs with "house" (dominated at t = 2); record 2
    // duplicates the mined pair {thai, house}; records 3 and 4 are equal
    // and, below `max_len` = 4, too long to be mined, so only the naive
    // dedup can catch them.
    let records = vec![
        vec![0, 1, 2],
        vec![3, 1, 2],
        vec![0, 2],
        vec![5, 6, 7, 8],
        vec![8, 7, 6, 5],
    ];
    for max_len in 1..=4 {
        for min_support in 1..=3 {
            let cfg = PoolConfig {
                min_support,
                max_len,
                seed: 7,
            };
            assert_matches_reference(&records, &cfg);
        }
    }
    let local = local_db(&records);
    let pool = QueryPool::generate(
        &local,
        &PoolConfig {
            min_support: 2,
            max_len: 2,
            seed: 7,
        },
    );
    let st = pool.stats();
    assert!(st.dominated > 0 && st.naive_deduped == 2, "{st:?}");
    assert!((0..pool.len()).all(|i| !pool.matches(QueryId(i as u32)).is_empty()));
}
