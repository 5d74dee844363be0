//! Indexing substrate for the SmartCrawl reproduction (paper §6.3, Fig. 3).
//!
//! The efficient implementation of QSel-Est relies on three structures:
//!
//! * an [`InvertedIndex`] per database (`D` and the sample `Hs`) to compute
//!   query frequencies `|q(D)|`, `|q(Hs)|` by posting-list intersection
//!   (Fig. 3(a));
//! * a [`ForwardIndex`] mapping each local record to the pool queries it
//!   satisfies, so that removing a covered record touches only the affected
//!   queries (Fig. 3(b));
//! * a [`LazyQueue`] — a max-priority queue with a delta-update mechanism
//!   that defers priority recomputation until a query actually reaches the
//!   top (Fig. 3(c), Algorithm 4 lines 16–27).
//!
//! As in the paper, all three live in RAM: `D` and `Hs` are the small
//! side of a crawl.

pub mod forward;
pub mod inverted;
pub mod lazy_queue;

pub use forward::{ForwardIndex, RemovalScratch};
pub use inverted::InvertedIndex;
pub use lazy_queue::{LazyQueue, Refresh};

/// Position of a query within the query pool (dense, 0-based).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct QueryId(pub u32);

impl QueryId {
    /// The id as a usize, for indexing side tables.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}
