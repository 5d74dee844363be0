//! Deterministic fault injection for search interfaces.
//!
//! Real hidden-database APIs fail: Yelp throttles past its daily quota,
//! backends drop connections, load balancers return 5xx. A crawler that
//! cannot survive a transient failure wastes whatever budget it already
//! spent. [`FlakyInterface`] wraps any [`SearchInterface`] and injects
//! [`SearchError::Transient`] / [`SearchError::RateLimited`] failures from
//! a seeded generator, so robustness ablations are reproducible and every
//! crawler can be tested under the same failure trace.
//!
//! Fault decisions are keyed, not sequenced: each draw is a stateless
//! hash of `(seed, query index, attempt)`, where the query index comes
//! from the driver via [`SearchInterface::begin_query`] and the attempt
//! counter distinguishes retries of the same query. An injected failure
//! therefore belongs to *the query*, independent of when its call
//! happens — the property that keeps failure traces byte-identical
//! at every crawl pipeline depth, whatever order in-flight pages
//! complete in. Callers that never call `begin_query` fall back to an
//! auto-incrementing index (one per search call), which is the old
//! call-order behaviour.
//!
//! Failures are injected *before* the inner interface is consulted: a
//! failed attempt neither consumes the inner [`Metered`](crate::Metered)
//! budget nor appears in its audit log — exactly like a request that never
//! reached the backend.

use crate::interface::{SearchError, SearchInterface, SearchPage};

/// SplitMix64: a tiny, high-quality, dependency-free PRNG. Good enough for
/// fault injection; deliberately not `rand` so this crate stays leaf-level.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Seeded fault-injection wrapper: each call fails with the configured
/// probability (as [`SearchError::Transient`]), and optionally every `n`-th
/// *served* call is throttled (as [`SearchError::RateLimited`]).
#[derive(Debug)]
pub struct FlakyInterface<I> {
    inner: I,
    transient_rate: f64,
    rate_limit_every: Option<usize>,
    seed: u64,
    /// The in-progress query: `(index, next attempt)`. Set by
    /// [`SearchInterface::begin_query`]; each draw consumes one attempt.
    current: Option<(usize, u32)>,
    /// Fallback index for callers that never call `begin_query`: each
    /// call is its own query, first attempt.
    auto_index: usize,
    served: usize,
    transient_failures: usize,
    rate_limit_failures: usize,
}

impl<I: SearchInterface> FlakyInterface<I> {
    /// Wraps `inner`; each search fails transiently with probability
    /// `transient_rate` (clamped to `[0, 1]`), deterministically per
    /// `(seed, query index, attempt)`.
    pub fn new(inner: I, transient_rate: f64, seed: u64) -> Self {
        Self {
            inner,
            transient_rate: transient_rate.clamp(0.0, 1.0),
            rate_limit_every: None,
            seed,
            current: None,
            auto_index: 0,
            served: 0,
            transient_failures: 0,
            rate_limit_failures: 0,
        }
    }

    /// Additionally throttle every `n`-th otherwise-served call with
    /// [`SearchError::RateLimited`] (`n ≥ 1`).
    pub fn with_rate_limit_every(mut self, n: usize) -> Self {
        assert!(n >= 1, "rate-limit period must be at least 1");
        self.rate_limit_every = Some(n);
        self
    }

    /// Number of injected transient failures so far.
    pub fn transient_failures(&self) -> usize {
        self.transient_failures
    }

    /// Number of injected rate-limit failures so far.
    pub fn rate_limit_failures(&self) -> usize {
        self.rate_limit_failures
    }

    /// Total injected failures of both kinds.
    pub fn failures_injected(&self) -> usize {
        self.transient_failures + self.rate_limit_failures
    }

    /// Shared access to the wrapped interface (e.g. to read a
    /// [`Metered`](crate::Metered) audit log after the crawl).
    pub fn inner(&self) -> &I {
        &self.inner
    }

    /// Unwraps the inner interface.
    pub fn into_inner(self) -> I {
        self.inner
    }

    /// A uniform draw in `[0, 1]` keyed by `(seed, query index, attempt)`.
    /// Stateless per key: reordering the *calls* cannot move a failure
    /// from one query to another.
    fn fault_draw(&mut self) -> f64 {
        let (index, attempt) = match &mut self.current {
            Some((index, attempt)) => {
                let key = (*index, *attempt);
                *attempt += 1;
                key
            }
            None => {
                let index = self.auto_index;
                self.auto_index += 1;
                (index, 0)
            }
        };
        // Avoid the all-zeros weak state without perturbing other seeds;
        // the odd multipliers spread index/attempt across the word before
        // SplitMix64's finalizer mixes them.
        let mut state = self.seed
            ^ 0x6A09_E667_F3BC_C909
            ^ (index as u64).wrapping_mul(0xA076_1D64_78BD_642F)
            ^ u64::from(attempt).wrapping_mul(0xE703_7ED1_A0B4_28DB);
        splitmix64(&mut state) as f64 / u64::MAX as f64
    }

    /// The fault gate shared by `search` and `commit_prefetched`: one
    /// keyed draw, then the served-count throttle. Both entry points burn
    /// exactly the same draws and counters, so a pipelined commit is
    /// indistinguishable from the search it replaces.
    fn inject_fault(&mut self) -> Result<(), SearchError> {
        let draw = self.fault_draw();
        if draw < self.transient_rate {
            self.transient_failures += 1;
            return Err(SearchError::Transient);
        }
        if let Some(n) = self.rate_limit_every {
            if (self.served + 1).is_multiple_of(n) {
                self.served += 1;
                self.rate_limit_failures += 1;
                return Err(SearchError::RateLimited);
            }
        }
        self.served += 1;
        Ok(())
    }
}

impl<I: SearchInterface> SearchInterface for FlakyInterface<I> {
    fn k(&self) -> usize {
        self.inner.k()
    }

    fn search(&mut self, keywords: &[String]) -> Result<SearchPage, SearchError> {
        self.inject_fault()?;
        self.inner.search(keywords)
    }

    fn queries_issued(&self) -> usize {
        // Injected failures never reached the backend, so they are not
        // issued queries; delegate to the wrapped meter.
        self.inner.queries_issued()
    }

    fn cache_stats(&self) -> Option<crate::interface::CacheStats> {
        self.inner.cache_stats()
    }

    fn record_cache_hit(
        &mut self,
        keywords: &[String],
        results: usize,
        charge: bool,
    ) -> Result<(), SearchError> {
        // A cache hit above this wrapper bypasses fault injection entirely
        // (the request never goes out); pass the notification inward so a
        // wrapped meter can audit/charge it.
        self.inner.record_cache_hit(keywords, results, charge)
    }

    fn begin_query(&mut self, index: usize) {
        self.current = Some((index, 0));
        self.inner.begin_query(index);
    }

    fn prefetch_handle<'h>(&self) -> Option<&'h crate::engine::HiddenDb>
    where
        Self: 'h,
    {
        self.inner.prefetch_handle()
    }

    fn commit_prefetched(
        &mut self,
        keywords: &[String],
        prefetched: &SearchPage,
    ) -> Result<SearchPage, SearchError> {
        self.inject_fault()?;
        self.inner.commit_prefetched(keywords, prefetched)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{HiddenDb, HiddenDbBuilder};
    use crate::interface::Metered;
    use crate::record::HiddenRecord;
    use smartcrawl_text::Record;

    fn tiny_db() -> HiddenDb {
        HiddenDbBuilder::new()
            .k(2)
            .records([
                HiddenRecord::new(0, Record::from(["thai house"]), vec![], 1.0),
                HiddenRecord::new(1, Record::from(["steak house"]), vec![], 2.0),
            ])
            .build()
    }

    #[test]
    fn zero_rate_never_fails() {
        let db = tiny_db();
        let mut f = FlakyInterface::new(&db, 0.0, 7);
        for _ in 0..50 {
            assert!(f.search(&["house".into()]).is_ok());
        }
        assert_eq!(f.failures_injected(), 0);
    }

    #[test]
    fn unit_rate_always_fails_transiently() {
        let db = tiny_db();
        let mut f = FlakyInterface::new(&db, 1.0, 7);
        for _ in 0..10 {
            assert_eq!(f.search(&["house".into()]), Err(SearchError::Transient));
        }
        assert_eq!(f.transient_failures(), 10);
    }

    #[test]
    fn failure_trace_is_deterministic_per_seed() {
        let db = tiny_db();
        let trace = |seed: u64| -> Vec<bool> {
            let mut f = FlakyInterface::new(&db, 0.3, seed);
            (0..40).map(|_| f.search(&["house".into()]).is_ok()).collect()
        };
        assert_eq!(trace(3), trace(3));
        assert_ne!(trace(3), trace(4), "different seeds give different traces");
        let failures = trace(3).iter().filter(|ok| !**ok).count();
        assert!((4..=20).contains(&failures), "≈30% of 40: got {failures}");
    }

    #[test]
    fn failed_attempts_do_not_consume_metered_budget() {
        let db = tiny_db();
        let mut f = FlakyInterface::new(Metered::new(&db, Some(5)), 0.5, 11);
        let mut ok = 0;
        for _ in 0..20 {
            if f.search(&["house".into()]).is_ok() {
                ok += 1;
            }
        }
        // Only served calls count against the wrapped meter.
        assert_eq!(f.queries_issued(), ok);
        assert!(f.queries_issued() <= 5);
        assert!(f.failures_injected() > 0);
    }

    #[test]
    fn rate_limit_every_throttles_periodically() {
        let db = tiny_db();
        let mut f = FlakyInterface::new(&db, 0.0, 0).with_rate_limit_every(3);
        let results: Vec<bool> =
            (0..9).map(|_| f.search(&["house".into()]).is_ok()).collect();
        assert_eq!(results, vec![true, true, false, true, true, false, true, true, false]);
        assert_eq!(f.rate_limit_failures(), 3);
    }

    /// The satellite regression: a fault decision belongs to the query
    /// *index*, so serving queries in a different order (as a pipelined
    /// driver's workers may complete them) cannot move a failure from one
    /// query to another.
    #[test]
    fn fault_decisions_key_on_query_index_not_call_order() {
        let db = tiny_db();
        let kw = vec!["house".to_string()];
        // Find a seed whose 8-query trace is mixed, so the assertion
        // below distinguishes per-index keying from "always fails".
        let outcome_by_index = |seed: u64, order: &[usize]| -> Vec<(usize, bool)> {
            let mut f = FlakyInterface::new(&db, 0.5, seed);
            let mut out: Vec<(usize, bool)> = order
                .iter()
                .map(|&i| {
                    f.begin_query(i);
                    (i, f.search(&kw).is_ok())
                })
                .collect();
            out.sort_unstable();
            out
        };
        let forward: Vec<usize> = (0..8).collect();
        let shuffled = [5usize, 0, 7, 2, 6, 1, 3, 4];
        let mut checked_mixed = false;
        for seed in [3u64, 11, 29] {
            let a = outcome_by_index(seed, &forward);
            let b = outcome_by_index(seed, &shuffled);
            assert_eq!(a, b, "seed {seed}: per-index outcomes moved with call order");
            checked_mixed |= a.iter().any(|(_, ok)| *ok) && a.iter().any(|(_, ok)| !*ok);
        }
        assert!(checked_mixed, "every trace degenerate — assertions prove nothing");
    }

    /// Retries of one query draw distinct attempts, deterministically:
    /// re-running the same (index, attempt) schedule reproduces the same
    /// outcomes, and the attempt axis actually varies the draw.
    #[test]
    fn retry_attempts_draw_distinct_deterministic_faults() {
        let db = tiny_db();
        let kw = vec!["house".to_string()];
        let attempts = |seed: u64| -> Vec<bool> {
            let mut f = FlakyInterface::new(&db, 0.5, seed);
            f.begin_query(0);
            (0..16).map(|_| f.search(&kw).is_ok()).collect()
        };
        for seed in 0..20u64 {
            assert_eq!(attempts(seed), attempts(seed));
        }
        // Across seeds, some schedule mixes successes and failures — the
        // attempt counter is reaching the draw.
        assert!(
            (0..20u64).any(|s| {
                let t = attempts(s);
                t.iter().any(|ok| *ok) && t.iter().any(|ok| !*ok)
            }),
            "attempt axis never varied a draw"
        );
    }

    /// `commit_prefetched` burns exactly the draws and throttle slots
    /// `search` would: a run that commits prefetched pages sees the same
    /// failure trace as one that searches.
    #[test]
    fn commit_prefetched_replays_the_search_fault_trace() {
        let db = tiny_db();
        let kw = vec!["house".to_string()];
        let page = SearchPage { records: HiddenDb::search(&db, &kw) };
        let mut searched = FlakyInterface::new(&db, 0.4, 17).with_rate_limit_every(4);
        let mut committed = FlakyInterface::new(&db, 0.4, 17).with_rate_limit_every(4);
        for i in 0..24 {
            searched.begin_query(i);
            committed.begin_query(i);
            assert_eq!(
                searched.search(&kw),
                committed.commit_prefetched(&kw, &page),
                "query {i} diverged"
            );
        }
        assert_eq!(searched.transient_failures(), committed.transient_failures());
        assert_eq!(searched.rate_limit_failures(), committed.rate_limit_failures());
    }
}
