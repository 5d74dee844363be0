//! # SmartCrawl — progressive deep-web crawling for data enrichment
//!
//! Reproduction of *Progressive Deep Web Crawling Through Keyword Queries
//! For Data Enrichment* (Wang, Shea, Wang, Wu — SIGMOD 2019).
//!
//! Given a local database `D`, a hidden database `H` reachable only through
//! a top-`k` keyword-search interface, and a query budget `b`, the
//! **DeepEnrich** problem asks for `b` queries whose combined results cover
//! as many local records as possible (Problem 1). The SmartCrawl framework
//! solves it in two stages:
//!
//! 1. **Query pool generation** ([`pool`]) — per-record "naive" queries plus
//!    frequent keyword sets mined from `D` (support ≥ t), dominance-pruned;
//! 2. **Query selection** ([`select`], [`crawl`]) — iteratively issue the
//!    query with the largest (estimated) benefit, maintaining benefits with
//!    an inverted index, a forward index, and a lazily-updated priority
//!    queue (§6.3).
//!
//! The selection strategies from the paper are all here:
//!
//! | Strategy | Benefit | Notes |
//! |---|---|---|
//! | [`Strategy::Ideal`] | true `|q(D)_cover|` via an oracle | upper bound (QSel-Ideal, Alg. 1) |
//! | [`Strategy::Simple`] | `|q(D)|` | QSel-Simple (Alg. 2) |
//! | [`Strategy::Bound`] | `|q(D)|` + re-insertion | QSel-Bound (Alg. 3), `(1 − |ΔD|/b)·N_ideal` guarantee |
//! | [`Strategy::Est`] | sample-based estimators of Table 1 | QSel-Est (Alg. 4), biased or unbiased |
//!
//! The baselines ([`crawl::naive_crawl`], [`crawl::full_crawl`]) and the
//! evaluation-only oracle crawler complete the experimental cast.
//!
//! ## Quick start
//!
//! ```
//! use smartcrawl_core::{
//!     crawl::{smart_crawl, SmartCrawlConfig},
//!     pool::PoolConfig,
//!     select::Strategy,
//!     LocalDb, TextContext,
//! };
//! use smartcrawl_hidden::{HiddenDbBuilder, HiddenRecord, Metered};
//! use smartcrawl_match::Matcher;
//! use smartcrawl_sampler::bernoulli_sample;
//! use smartcrawl_text::Record;
//!
//! // A toy hidden database and a two-record local database.
//! let hidden = HiddenDbBuilder::new()
//!     .k(10)
//!     .records([
//!         HiddenRecord::new(0, Record::from(["thai noodle house"]), vec!["4.5".into()], 1.0),
//!         HiddenRecord::new(1, Record::from(["steak house"]), vec!["4.0".into()], 2.0),
//!         HiddenRecord::new(2, Record::from(["ramen bar"]), vec!["3.8".into()], 3.0),
//!     ])
//!     .build();
//! let mut ctx = TextContext::default();
//! let local = LocalDb::build(
//!     vec![Record::from(["thai noodle house"]), Record::from(["ramen bar"])],
//!     &mut ctx,
//! );
//! let sample = bernoulli_sample(&hidden, 0.5, 7);
//!
//! let mut iface = Metered::new(&hidden, Some(2));
//! let cfg = SmartCrawlConfig {
//!     budget: 2,
//!     strategy: Strategy::est_biased(),
//!     matcher: Matcher::Exact,
//!     pool: PoolConfig::default(),
//!     omega: 1.0,
//! };
//! let report = smart_crawl(&local, &sample, &mut iface, &cfg, ctx);
//! assert!(report.enriched.len() <= 2);
//! ```

pub mod arena;
pub mod context;
pub mod crawl;
pub mod estimate;
pub mod local;
pub mod nch;
pub mod pool;
pub mod query;
pub mod sample;
pub mod select;

#[cfg(test)]
mod fixture;

pub use arena::RecordArena;
pub use context::TextContext;
pub use crawl::{
    CountingObserver, CrawlEvent, CrawlObserver, CrawlReport, CrawlSession, CrawlStep, EventCounts,
    EventStamp, NullObserver, PhaseTimings, QuerySource, TraceLog,
};
pub use estimate::{Estimator, EstimatorKind};
pub use local::{LocalDb, LocalMatchIndex};
pub use nch::fisher_nch_mean;
pub use pool::{PoolConfig, PoolStats, QueryPool};
pub use query::Query;
pub use sample::SampleIndex;
pub use select::{probe_engine_setup, DeltaRemoval, SelectionStats, SetupProbe, Strategy};
pub use smartcrawl_store::{StoreConfig, StorePartition, StoreReport, StoreStats};
