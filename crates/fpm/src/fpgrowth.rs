//! FP-Growth miner (Han, Pei, Yin — SIGMOD 2000; paper reference \[24\]).
//!
//! The production miner behind SmartCrawl's query pool. Builds a compact
//! FP-tree over the corpus once and mines frequent itemsets by recursing
//! into per-item conditional trees, never generating candidates that cannot
//! be frequent. Supports within a conditional base are counted in one dense
//! rank-indexed counter, and the last level (`max_len`) builds no tree at
//! all: it emits the counted ranks that reach `min_support`.

use crate::fptree::FpTree;
use crate::{Itemset, MinerConfig};
use smartcrawl_text::{Document, TokenId};

/// Mines all itemsets with support ≥ `cfg.min_support` and length ≤
/// `cfg.max_len`, in canonical order (length, then item ids). Equivalent to
/// [`crate::apriori`](fn@crate::apriori) (property-tested).
pub fn fpgrowth(transactions: &[Document], cfg: MinerConfig) -> Vec<Itemset> {
    // Pass 1: global item counts, dense over the token ids present.
    let width = transactions.iter().flat_map(|t| t.iter()).map(|t| t.index() + 1).max().unwrap_or(0);
    let mut counts = vec![0usize; width];
    for t in transactions {
        for item in t.iter() {
            counts[item.index()] += 1;
        }
    }
    // Rank frequent items: descending frequency, ties by ascending TokenId,
    // so the rank assignment (and hence the tree shape) is deterministic.
    let mut frequent: Vec<(TokenId, usize)> = counts
        .iter()
        .enumerate()
        .filter(|&(_, &c)| c >= cfg.min_support)
        .map(|(i, &c)| (TokenId(i as u32), c))
        .collect();
    frequent.sort_unstable_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
    let rank_to_item: Vec<TokenId> = frequent.iter().map(|&(t, _)| t).collect();
    // Token → rank, `u32::MAX` for infrequent tokens.
    let mut item_to_rank = vec![u32::MAX; width];
    for (r, t) in rank_to_item.iter().enumerate() {
        item_to_rank[t.index()] = r as u32;
    }

    // Pass 2: build the global FP-tree.
    let mut tree = FpTree::new();
    let mut ranks_buf = Vec::new();
    for t in transactions {
        ranks_buf.clear();
        ranks_buf.extend(t.iter().map(|item| item_to_rank[item.index()]).filter(|&r| r != u32::MAX));
        ranks_buf.sort_unstable();
        if !ranks_buf.is_empty() {
            tree.insert(&ranks_buf, 1);
        }
    }

    let mut miner = Miner {
        cfg,
        rank_to_item: &rank_to_item,
        suffix: Vec::new(),
        counts: vec![0; rank_to_item.len()],
        touched: Vec::new(),
        out: Vec::new(),
    };
    miner.mine(&tree);
    crate::canonicalize(miner.out)
}

/// Recursion state: the configuration, the rank → item map, the ranks
/// already fixed on the way down, the prefix-path counters and the
/// itemsets found so far.
struct Miner<'a> {
    cfg: MinerConfig,
    rank_to_item: &'a [TokenId],
    /// Ranks already fixed (each frequent in every transaction of the tree
    /// being mined).
    suffix: Vec<u32>,
    /// Dense rank-indexed supports within one item's prefix paths (its
    /// conditional pattern base); all zero between uses.
    counts: Vec<usize>,
    /// Ranks whose counter is nonzero, so resetting costs what counting did.
    touched: Vec<u32>,
    out: Vec<Itemset>,
}

impl Miner<'_> {
    /// Mines `tree`, the conditional tree of the current suffix.
    fn mine(&mut self, tree: &FpTree) {
        if tree.is_empty() || self.suffix.len() >= self.cfg.max_len {
            return;
        }
        for rank in tree.ranks().collect::<Vec<_>>() {
            let support = tree.support(rank);
            if support < self.cfg.min_support {
                continue;
            }
            self.suffix.push(rank);
            self.emit(support);
            if self.suffix.len() < self.cfg.max_len {
                tree.count_prefix_ranks(rank, &mut self.counts, &mut self.touched);
                if self.suffix.len() + 1 == self.cfg.max_len {
                    self.emit_counted();
                } else {
                    let cond = self.conditional_tree(tree, rank);
                    self.mine(&cond);
                }
            }
            self.suffix.pop();
        }
    }

    /// The last level, without a conditional tree: that tree would only be
    /// read for its per-rank supports, which are the counts just taken.
    /// Emits the suffix extended by each counted rank that reaches
    /// `min_support`, and zeroes the counters.
    fn emit_counted(&mut self) {
        let mut touched = std::mem::take(&mut self.touched);
        for &r in &touched {
            let support = std::mem::take(&mut self.counts[r as usize]);
            if support >= self.cfg.min_support {
                self.suffix.push(r);
                self.emit(support);
                self.suffix.pop();
            }
        }
        touched.clear();
        self.touched = touched;
    }

    /// The conditional tree of `rank`: its prefix paths, keeping only the
    /// ranks the counters show frequent within that base. Zeroes the
    /// counters.
    fn conditional_tree(&mut self, tree: &FpTree, rank: u32) -> FpTree {
        let mut cond = FpTree::new();
        let mut filtered = Vec::new();
        for (path, count) in tree.prefix_paths(rank) {
            filtered.clear();
            filtered.extend(
                path.iter().copied().filter(|&r| self.counts[r as usize] >= self.cfg.min_support),
            );
            if !filtered.is_empty() {
                cond.insert(&filtered, count);
            }
        }
        for r in self.touched.drain(..) {
            self.counts[r as usize] = 0;
        }
        cond
    }

    /// Records the current suffix as an itemset of `support`.
    fn emit(&mut self, support: usize) {
        let mut items: Vec<TokenId> =
            self.suffix.iter().map(|&r| self.rank_to_item[r as usize]).collect();
        items.sort_unstable();
        self.out.push(Itemset { items, support });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::apriori;

    fn docs(specs: &[&[u32]]) -> Vec<Document> {
        specs
            .iter()
            .map(|s| Document::from_tokens(s.iter().map(|&t| TokenId(t)).collect()))
            .collect()
    }

    #[test]
    fn agrees_with_apriori_on_textbook_example() {
        let txs = docs(&[&[0, 1, 2], &[0, 1], &[0, 2], &[1, 2], &[0, 1, 2]]);
        let cfg = MinerConfig::new(3, 3);
        assert_eq!(fpgrowth(&txs, cfg), apriori(&txs, cfg));
    }

    #[test]
    fn running_example_finds_noodle_house() {
        // tokens: 0=thai 1=noodle 2=house 3=jade 4=express
        let txs = docs(&[&[0, 1, 2], &[3, 1, 2], &[0, 2], &[0, 1, 4]]);
        let out = fpgrowth(&txs, MinerConfig::new(2, 4));
        let has = |items: &[u32], support: usize| {
            out.iter().any(|s| {
                s.items == items.iter().map(|&t| TokenId(t)).collect::<Vec<_>>()
                    && s.support == support
            })
        };
        assert!(has(&[2], 3), "house freq 3");
        assert!(has(&[0], 3), "thai freq 3");
        assert!(has(&[1, 2], 2), "noodle house freq 2");
        assert_eq!(out.len(), 6);
    }

    #[test]
    fn near_duplicate_documents_do_not_explode_under_cap() {
        // Two identical 16-token documents: the uncapped lattice would have
        // 2^16 − 1 itemsets; the cap keeps it polynomial.
        let big: Vec<u32> = (0..16).collect();
        let txs = docs(&[&big, &big]);
        let out = fpgrowth(&txs, MinerConfig::new(2, 2));
        // 16 singles + C(16,2)=120 pairs.
        assert_eq!(out.len(), 16 + 120);
        assert!(out.iter().all(|s| s.support == 2));
    }

    #[test]
    fn infrequent_items_never_appear() {
        let txs = docs(&[&[0, 1], &[0, 2], &[0, 3]]);
        let out = fpgrowth(&txs, MinerConfig::new(2, 3));
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].items, vec![TokenId(0)]);
        assert_eq!(out[0].support, 3);
    }

    #[test]
    fn empty_transactions_are_fine() {
        let txs = docs(&[&[], &[], &[0], &[0]]);
        let out = fpgrowth(&txs, MinerConfig::new(2, 3));
        assert_eq!(out.len(), 1);
    }
}
