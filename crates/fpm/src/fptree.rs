//! FP-tree: the prefix-tree with per-item node links used by FP-Growth.
//!
//! Items are stored as *global ranks* (0 = most frequent item), assigned
//! once from the full corpus; conditional trees reuse the same rank space,
//! so no re-ranking is needed when descending into conditional bases.

use std::collections::BTreeMap;

#[derive(Debug)]
struct Node {
    rank: u32,
    count: usize,
    parent: usize,
    /// (child rank, node index); small fan-out in practice, linear scan.
    children: Vec<(u32, usize)>,
}

/// Prefix tree over rank-encoded transactions.
#[derive(Debug)]
pub(crate) struct FpTree {
    nodes: Vec<Node>,
    /// rank → indices of all nodes carrying that rank, in insertion order.
    header: BTreeMap<u32, Vec<usize>>,
}

impl FpTree {
    pub(crate) fn new() -> Self {
        Self {
            nodes: vec![Node { rank: u32::MAX, count: 0, parent: usize::MAX, children: Vec::new() }],
            header: BTreeMap::new(),
        }
    }

    /// Inserts a transaction (ranks strictly ascending = most-frequent
    /// first) with multiplicity `count`.
    pub(crate) fn insert(&mut self, ranks: &[u32], count: usize) {
        debug_assert!(ranks.windows(2).all(|w| w[0] < w[1]));
        let mut at = 0usize;
        for &rank in ranks {
            let found = self.nodes[at].children.iter().find(|&&(r, _)| r == rank).map(|&(_, i)| i);
            at = match found {
                Some(child) => {
                    self.nodes[child].count += count;
                    child
                }
                None => {
                    let idx = self.nodes.len();
                    self.nodes.push(Node { rank, count, parent: at, children: Vec::new() });
                    self.nodes[at].children.push((rank, idx));
                    self.header.entry(rank).or_default().push(idx);
                    idx
                }
            };
        }
    }

    /// Ranks present in the tree, ascending.
    pub(crate) fn ranks(&self) -> impl Iterator<Item = u32> + '_ {
        self.header.keys().copied()
    }

    /// Total support of `rank` in this tree.
    pub(crate) fn support(&self, rank: u32) -> usize {
        self.header.get(&rank).map_or(0, |nodes| nodes.iter().map(|&i| self.nodes[i].count).sum())
    }

    /// The conditional pattern base of `rank`: for every node carrying it,
    /// the prefix path (ranks ascending, excluding `rank` itself) with the
    /// node's count.
    pub(crate) fn prefix_paths(&self, rank: u32) -> Vec<(Vec<u32>, usize)> {
        let Some(nodes) = self.header.get(&rank) else { return Vec::new() };
        let mut paths = Vec::with_capacity(nodes.len());
        for &i in nodes {
            let count = self.nodes[i].count;
            let mut path = Vec::new();
            let mut at = self.nodes[i].parent;
            while at != usize::MAX && self.nodes[at].rank != u32::MAX {
                path.push(self.nodes[at].rank);
                at = self.nodes[at].parent;
            }
            path.reverse();
            paths.push((path, count));
        }
        paths
    }

    /// Adds, for every node carrying `rank`, the node's count to
    /// `counts[r]` for each rank `r` on its prefix path: the supports
    /// `rank`'s conditional tree would hold, before its infrequent ranks are
    /// dropped. Each rank whose counter leaves zero is appended to
    /// `touched`; `counts` must cover every rank in the tree.
    pub(crate) fn count_prefix_ranks(&self, rank: u32, counts: &mut [usize], touched: &mut Vec<u32>) {
        let Some(nodes) = self.header.get(&rank) else { return };
        for &i in nodes {
            let count = self.nodes[i].count;
            let mut at = self.nodes[i].parent;
            // Node 0 is the root, which carries no rank.
            while at != 0 {
                let node = &self.nodes[at];
                let slot = &mut counts[node.rank as usize];
                if *slot == 0 {
                    touched.push(node.rank);
                }
                *slot += count;
                at = node.parent;
            }
        }
    }

    /// Whether the tree contains no items.
    pub(crate) fn is_empty(&self) -> bool {
        self.header.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_shares_prefixes() {
        let mut t = FpTree::new();
        t.insert(&[0, 1, 2], 1);
        t.insert(&[0, 1], 1);
        t.insert(&[0, 3], 1);
        // Root + nodes {0, 1, 2, 3}: prefix 0 and 0-1 shared.
        assert_eq!(t.nodes.len(), 5);
        assert_eq!(t.support(0), 3);
        assert_eq!(t.support(1), 2);
        assert_eq!(t.support(2), 1);
        assert_eq!(t.support(3), 1);
    }

    #[test]
    fn prefix_paths_exclude_the_item() {
        let mut t = FpTree::new();
        t.insert(&[0, 1, 2], 2);
        t.insert(&[1, 2], 1);
        let paths = t.prefix_paths(2);
        assert_eq!(paths, vec![(vec![0, 1], 2), (vec![1], 1)]);
        assert_eq!(t.prefix_paths(0), vec![(vec![], 2)]);
    }

    #[test]
    fn prefix_rank_counts_match_the_prefix_paths() {
        let mut t = FpTree::new();
        t.insert(&[0, 1, 2], 2);
        t.insert(&[1, 2], 1);
        t.insert(&[0, 3], 4);
        let (mut counts, mut touched) = (vec![0; 4], Vec::new());
        t.count_prefix_ranks(2, &mut counts, &mut touched);
        assert_eq!(counts, vec![2, 3, 0, 0]);
        assert_eq!(touched, vec![1, 0]);
        t.count_prefix_ranks(0, &mut counts, &mut touched);
        assert_eq!(counts, vec![2, 3, 0, 0], "a root child has an empty prefix");
    }

    #[test]
    fn multiplicity_accumulates() {
        let mut t = FpTree::new();
        t.insert(&[4], 3);
        t.insert(&[4], 2);
        assert_eq!(t.support(4), 5);
    }

    #[test]
    fn empty_tree_is_empty() {
        let t = FpTree::new();
        assert!(t.is_empty());
        assert_eq!(t.support(0), 0);
        assert!(t.prefix_paths(0).is_empty());
    }
}
