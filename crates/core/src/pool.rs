//! Query pool generation (paper §3.1).
//!
//! The pool is `Q_naive ∪ { q : |q(D)| ≥ t }`, dominance-pruned:
//!
//! * **Naive queries** — one per local record, containing the record's full
//!   document (what NaiveCrawl would issue), so every record has at least
//!   one query able to reach it;
//! * **Frequent queries** — keyword sets occurring in at least `t` local
//!   records (default `t = 2`), mined with FP-Growth, capped at
//!   `max_len` keywords (see `smartcrawl-fpm` docs for why the cap exists);
//! * **Dominance pruning** — `q1` dominates `q2` iff `|q1(D)| = |q2(D)|`
//!   and `q1 ⊇ q2`; dominated queries are redundant (same local reach,
//!   fewer keywords ⇒ no more selective on the hidden side). We prune by
//!   the immediate-superset rule: a mined set is dropped when some mined
//!   one-keyword extension has the same support. By downward closure this
//!   catches all dominations within the mined lattice.
//!
//! The pool is shuffled once (seeded) so that equal-benefit ties during
//! selection break pseudo-randomly, as in the paper, while staying
//! reproducible.
//!
//! The mined sets double as a prefix trie (`MinedTrie`) that serves the
//! dominance probes, the naive dedup and `q(D)`: a one-keyword set's
//! `q(D)` is its posting list, and a longer set's comes from one scan of
//! its parent's documents, so no two-list intersection runs for a mined
//! set. Only the naive queries intersect posting lists.

use crate::context::TextContext;
use crate::local::LocalDb;
use crate::query::Query;
use rand::{rngs::StdRng, seq::SliceRandom, SeedableRng};
use smartcrawl_fpm::{fpgrowth, Itemset, MinerConfig};
use smartcrawl_par::{par_chunks, par_map};
use smartcrawl_index::QueryId;
use smartcrawl_text::{RecordId, TokenId};
use std::collections::HashSet;
use std::ops::Range;

/// Pool-generation parameters.
#[derive(Debug, Clone, Copy)]
pub struct PoolConfig {
    /// Support threshold `t` for mined queries (paper default: 2).
    pub min_support: usize,
    /// Maximum keywords per mined query.
    pub max_len: usize,
    /// Shuffle seed for tie-breaking order.
    pub seed: u64,
}

impl Default for PoolConfig {
    fn default() -> Self {
        Self { min_support: 2, max_len: 2, seed: 0x5A17 }
    }
}

/// Provenance counters from pool generation (§3.1's two principles plus
/// dominance pruning).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Frequent itemsets mined (before pruning).
    pub mined: usize,
    /// Mined itemsets removed by dominance pruning.
    pub dominated: usize,
    /// Naive (per-record) queries added.
    pub naive: usize,
    /// Naive queries that duplicated an existing pool entry.
    pub naive_deduped: usize,
}

/// The generated pool: queries plus their build-time match sets.
///
/// # Examples
///
/// ```
/// use smartcrawl_core::{LocalDb, PoolConfig, QueryPool, TextContext};
/// use smartcrawl_text::Record;
///
/// let mut ctx = TextContext::new();
/// let local = LocalDb::build(
///     vec![
///         Record::from(["thai noodle house"]),
///         Record::from(["jade noodle house"]),
///     ],
///     &mut ctx,
/// );
/// let pool = QueryPool::generate(&local, &PoolConfig::default());
/// // Shared keywords become general queries; each record also gets its
/// // specific (naive) query.
/// assert!(pool.len() >= 2);
/// assert!(pool.queries().iter().all(|q| q.len() >= 1));
/// ```
#[derive(Debug)]
pub struct QueryPool {
    queries: Vec<Query>,
    /// `q(D)` at build time, per query (sorted record ids).
    matches: Vec<Vec<RecordId>>,
    stats: PoolStats,
}

impl QueryPool {
    /// Generates the pool for a local database (see module docs).
    pub fn generate(local: &LocalDb, cfg: &PoolConfig) -> Self {
        assert!(cfg.min_support >= 1 && cfg.max_len >= 1, "invalid pool config");

        // -- Frequent queries (second principle). --------------------------
        let mined = fpgrowth(local.docs(), MinerConfig::new(cfg.min_support, cfg.max_len));
        let trie = MinedTrie::build(&mined);
        // Dominance pruning via immediate subsets. Probing is
        // embarrassingly parallel: each mined set's immediate subsets are
        // checked independently and only marked, so chunk order is
        // immaterial. One scratch buffer per chunk.
        let mut dominated = vec![false; mined.len()];
        let probes = par_chunks(&mined, |_, chunk| {
            let mut sub: Vec<TokenId> = Vec::new();
            let mut found: Vec<usize> = Vec::new();
            for set in chunk.iter().filter(|s| s.items.len() >= 2) {
                for drop in 0..set.items.len() {
                    sub.clear();
                    sub.extend(
                        set.items.iter().enumerate().filter(|&(i, _)| i != drop).map(|(_, &t)| t),
                    );
                    // `set` dominates `sub`: same |q(D)|, superset keywords.
                    if let Some(i) = trie.find(&sub) {
                        if mined.get(i).is_some_and(|s| s.support == set.support) {
                            found.push(i);
                        }
                    }
                }
            }
            found
        });
        for i in probes.into_iter().flatten() {
            if let Some(d) = dominated.get_mut(i) {
                *d = true;
            }
        }
        let n_dominated = dominated.iter().filter(|&&d| d).count();
        let mut stats =
            PoolStats { mined: mined.len(), dominated: n_dominated, ..Default::default() };

        // -- Naive queries (first principle), deduplicated against the kept
        // mined sets (a trie probe) and against each other. ----------------
        let mut seen: HashSet<&[TokenId]> = HashSet::new();
        let mut naive: Vec<usize> = Vec::new();
        for (i, doc) in local.docs().iter().enumerate() {
            if doc.is_empty() {
                continue; // a record with no keywords cannot be queried
            }
            let tokens = doc.tokens();
            let kept_mined = trie.find(tokens).is_some_and(|j| dominated.get(j) == Some(&false));
            if !kept_mined && seen.insert(tokens) {
                naive.push(i);
            } else {
                stats.naive_deduped += 1;
            }
        }
        stats.naive = naive.len();

        // -- Materialize q(D): the mined sets' from the trie, each naive
        // query's by rarest-first intersection. Pre-shuffle order: the kept
        // mined sets in canonical order, then the naive queries. ----------
        let n = mined.len() - n_dominated + naive.len();
        let (mut queries, mut matches) = (Vec::with_capacity(n), Vec::with_capacity(n));
        let mined_matches = trie.matches(&mined, local);
        for ((set, m), &dom) in mined.into_iter().zip(mined_matches).zip(&dominated) {
            if !dom {
                queries.push(Query::new(set.items));
                matches.push(m);
            }
        }
        queries.extend(naive.iter().map(|&i| Query::new(local.doc(i).tokens().to_vec())));
        matches.extend(par_map(&naive, |&i| local.index().matching(local.doc(i).tokens())));

        // -- Deterministic shuffle for pseudo-random tie-breaking. Fisher–
        // Yates draws depend only on the length, so the same seed applies
        // the same permutation to the queries and to their match sets. ----
        queries.shuffle(&mut StdRng::seed_from_u64(cfg.seed));
        matches.shuffle(&mut StdRng::seed_from_u64(cfg.seed));
        debug_assert!(matches.iter().all(|m| !m.is_empty()), "pool queries must have |q(D)| ≥ 1");

        Self { queries, matches, stats }
    }

    /// Provenance counters from generation.
    pub fn stats(&self) -> PoolStats {
        self.stats
    }

    /// Number of queries in the pool.
    pub fn len(&self) -> usize {
        self.queries.len()
    }

    /// Whether the pool is empty.
    pub fn is_empty(&self) -> bool {
        self.queries.is_empty()
    }

    /// The query behind `id`.
    pub fn query(&self, id: QueryId) -> &Query {
        &self.queries[id.index()]
    }

    /// All queries in pool order.
    pub fn queries(&self) -> &[Query] {
        &self.queries
    }

    /// `q(D)` at build time for query `id`.
    pub fn matches(&self, id: QueryId) -> &[RecordId] {
        &self.matches[id.index()]
    }

    /// All build-time match sets, pool order.
    pub fn all_matches(&self) -> &[Vec<RecordId>] {
        &self.matches
    }

    /// Build-time `|q(D)|` per query, pool order.
    pub fn frequencies(&self) -> Vec<u32> {
        self.matches.iter().map(|m| m.len() as u32).collect()
    }

    /// Renders a query's keywords (convenience).
    pub fn render(&self, id: QueryId, ctx: &TextContext) -> Vec<String> {
        self.query(id).render(ctx)
    }
}

/// The mined itemsets as a prefix trie with no node storage of its own.
/// FP-growth returns every frequent set up to `max_len`, so the family is
/// downward closed: each set's prefix (all items but the last) is itself a
/// mined set. Each set is thus the trie node for its own items, and in the
/// canonical order (length, then items) the children of a set, the sets one
/// item longer that extend it, form one contiguous run sorted by last item.
#[derive(Debug)]
struct MinedTrie {
    /// Last item of each mined set: the label of the edge into its node.
    label: Vec<TokenId>,
    /// Mined-index range of each set's children (empty for leaves).
    children: Vec<Range<usize>>,
    /// Mined-index range of the one-item sets.
    roots: Range<usize>,
}

impl MinedTrie {
    /// Links canonical-order `mined` sets to their children with one
    /// cursor that walks the parents in step with the children.
    fn build(mined: &[Itemset]) -> Self {
        let label = mined.iter().map(|s| s.items.last().copied().unwrap_or(TokenId(0))).collect();
        let roots_end = mined.iter().position(|s| s.items.len() > 1).unwrap_or(mined.len());
        let mut children = vec![0..0; mined.len()];
        let mut parent = 0usize;
        for (i, set) in mined.iter().enumerate().skip(roots_end) {
            let Some((_, prefix)) = set.items.split_last() else { continue };
            let key = (prefix.len(), prefix);
            while mined.get(parent).is_some_and(|p| (p.items.len(), p.items.as_slice()) < key) {
                parent += 1;
            }
            match (mined.get(parent), children.get_mut(parent)) {
                (Some(p), Some(run)) if p.items == prefix => {
                    if run.end == 0 {
                        run.start = i;
                    }
                    run.end = i + 1;
                }
                _ => debug_assert!(false, "mined sets must be downward closed"),
            }
        }
        Self { label, children, roots: 0..roots_end }
    }

    /// Mined index of the set with exactly `items` (sorted), if mined.
    fn find(&self, items: &[TokenId]) -> Option<usize> {
        let mut run = self.roots.clone();
        let mut node = None;
        for t in items {
            let at = run.start + self.label.get(run.clone())?.binary_search(t).ok()?;
            node = Some(at);
            run = self.children.get(at)?.clone();
        }
        node
    }

    /// `q(D)` of every mined set, in mined order, with no list
    /// intersection. A one-item set's is its posting list. Every other
    /// set's comes from its parent's: one scan over the parent's documents,
    /// past the parent's last item, looking each token up in a dense
    /// token → child map. Children follow their parent in mined order, so
    /// a parent's list is final when it is scanned and ids land in
    /// ascending order. The work is the tokens scanned plus the ids
    /// emitted, and every list is sized once from its support, which is
    /// exactly `|q(D)|`.
    fn matches(&self, mined: &[Itemset], local: &LocalDb) -> Vec<Vec<RecordId>> {
        let mut lists: Vec<Vec<RecordId>> =
            mined.iter().map(|s| Vec::with_capacity(s.support)).collect();
        for (list, &t) in lists.iter_mut().zip(&self.label).take(self.roots.end) {
            list.extend_from_slice(local.index().postings(t));
        }
        let width = self.label.iter().map(|t| t.index() + 1).max().unwrap_or(0);
        // Token → offset of the child it labels, `usize::MAX` for none.
        let mut child_of = vec![usize::MAX; width];
        for (node, run) in self.children.iter().enumerate() {
            let (Some(&last), Some(labels)) = (self.label.get(node), self.label.get(run.clone()))
            else {
                continue;
            };
            if labels.is_empty() {
                continue;
            }
            for (k, t) in labels.iter().enumerate() {
                if let Some(slot) = child_of.get_mut(t.index()) {
                    *slot = k;
                }
            }
            if let Some((done, rest)) = lists.split_at_mut_checked(run.start) {
                if let (Some(docs), Some(kids)) = (done.get(node), rest.get_mut(..labels.len())) {
                    for &rid in docs {
                        let tokens = local.docs().get(rid.index()).map_or(&[][..], |d| d.tokens());
                        let after = tokens.partition_point(|&t| t <= last);
                        for t in tokens.get(after..).unwrap_or_default() {
                            if let Some(list) = child_of.get(t.index()).and_then(|&k| kids.get_mut(k)) {
                                list.push(rid);
                            }
                        }
                    }
                }
            }
            for t in labels {
                if let Some(slot) = child_of.get_mut(t.index()) {
                    *slot = usize::MAX;
                }
            }
        }
        lists
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use smartcrawl_text::Record;

    /// The running example's local database (Figure 1(a) stand-in).
    fn running_example() -> (LocalDb, TextContext) {
        let mut ctx = TextContext::new();
        let db = LocalDb::build(
            vec![
                Record::from(["thai noodle house"]),
                Record::from(["jade noodle house"]),
                Record::from(["thai house"]),
                Record::from(["thai noodle express"]),
            ],
            &mut ctx,
        );
        (db, ctx)
    }

    fn pool_words(pool: &QueryPool, ctx: &TextContext) -> Vec<Vec<String>> {
        let mut out: Vec<Vec<String>> = pool
            .queries()
            .iter()
            .map(|q| {
                let mut w = q.render(ctx);
                w.sort();
                w
            })
            .collect();
        out.sort();
        out
    }

    #[test]
    fn running_example_pool_matches_the_paper() {
        // Example 2 (adapted to this instance): naive queries = the four
        // full names; frequent itemsets with t = 2 after dominance pruning.
        let (db, ctx) = running_example();
        let pool = QueryPool::generate(&db, &PoolConfig { min_support: 2, max_len: 3, seed: 1 });
        let words = pool_words(&pool, &ctx);
        // Frequent with t=2: house(3), thai(3), noodle(3), thai+house(2),
        // thai+noodle(2), noodle+house(2); no pair is dominated (all
        // supports drop from 3 to 2) and no single is dominated (3 ≠ 2).
        // Naive: the four record documents.
        let expect: Vec<Vec<String>> = vec![
            vec!["house"],
            vec!["house", "jade", "noodle"],
            vec!["house", "noodle"],
            vec!["house", "noodle", "thai"],
            vec!["house", "thai"],
            vec!["express", "noodle", "thai"],
            vec!["noodle"],
            vec!["noodle", "thai"],
            vec!["thai"],
        ]
        .into_iter()
        .map(|v| v.into_iter().map(str::to_owned).collect())
        .collect();
        let mut expect = expect;
        expect.sort();
        assert_eq!(words, expect);
    }

    #[test]
    fn dominated_queries_are_pruned() {
        // "noodle" always co-occurs with "house": same support ⇒ "noodle"
        // dominated by "noodle house" (paper Example 2's pruning).
        let mut ctx = TextContext::new();
        let db = LocalDb::build(
            vec![
                Record::from(["thai noodle house"]),
                Record::from(["jade noodle house"]),
                Record::from(["thai house"]),
            ],
            &mut ctx,
        );
        let pool = QueryPool::generate(&db, &PoolConfig { min_support: 2, max_len: 2, seed: 1 });
        let words = pool_words(&pool, &ctx);
        assert!(!words.contains(&vec!["noodle".to_owned()]), "{words:?}");
        assert!(words.contains(&vec!["house".to_owned(), "noodle".to_owned()]));
    }

    #[test]
    fn every_local_record_is_reachable() {
        let (db, _ctx) = running_example();
        let pool = QueryPool::generate(&db, &PoolConfig::default());
        // Union of q(D) over the pool covers all records (first principle).
        let mut reached = vec![false; db.len()];
        for m in pool.all_matches() {
            for &RecordId(i) in m {
                reached[i as usize] = true;
            }
        }
        assert!(reached.iter().all(|&r| r));
    }

    #[test]
    fn matches_agree_with_frequencies() {
        let (db, _ctx) = running_example();
        let pool = QueryPool::generate(&db, &PoolConfig::default());
        let freqs = pool.frequencies();
        for (i, &f) in freqs.iter().enumerate() {
            let id = QueryId(i as u32);
            assert_eq!(pool.matches(id).len() as u32, f);
            assert!(f >= 1);
        }
    }

    #[test]
    fn shuffle_is_deterministic_per_seed() {
        let (db, _ctx) = running_example();
        let cfg = PoolConfig { min_support: 2, max_len: 2, seed: 99 };
        let a = QueryPool::generate(&db, &cfg);
        let b = QueryPool::generate(&db, &cfg);
        assert_eq!(a.queries(), b.queries());
        let c = QueryPool::generate(&db, &PoolConfig { seed: 100, ..cfg });
        // Same set, very likely different order.
        assert_eq!(a.len(), c.len());
    }

    #[test]
    fn stats_track_provenance() {
        let (db, _ctx) = running_example();
        let pool = QueryPool::generate(&db, &PoolConfig { min_support: 2, max_len: 2, seed: 1 });
        let st = pool.stats();
        // 6 frequent itemsets, none dominated; 4 naive records, one of
        // which ("thai house") duplicates the mined pair.
        assert_eq!(st.mined, 6);
        assert_eq!(st.dominated, 0);
        assert_eq!(st.naive, 3);
        assert_eq!(st.naive_deduped, 1);
        assert_eq!(pool.len(), st.mined - st.dominated + st.naive);
    }

    #[test]
    fn duplicate_records_collapse_to_one_naive_query() {
        let mut ctx = TextContext::new();
        let db = LocalDb::build(
            vec![Record::from(["unique alpha beta"]), Record::from(["unique alpha beta"])],
            &mut ctx,
        );
        let pool = QueryPool::generate(&db, &PoolConfig { min_support: 5, max_len: 2, seed: 1 });
        // No frequent sets (t=5); one naive query despite two records.
        assert_eq!(pool.len(), 1);
        assert_eq!(pool.matches(QueryId(0)).len(), 2);
    }
}
