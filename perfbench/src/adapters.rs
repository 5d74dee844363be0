//! Delegating adapters that time the crawl from outside the program.
//!
//! [`TimedIface`] sits on top of the crawler's interface stack and stamps
//! every call that reaches the hidden site; [`StepObserver`] keeps the
//! session's own `QueryIssued` stamps and pins the session's start on the
//! benchmark's clock. Neither changes what the crawl does: the adapter
//! tests pin per-crawl digests and prefetch counts with and without them.

use crate::stats::now;
use smartcrawl_core::{CrawlEvent, CrawlObserver, EventStamp};
use smartcrawl_hidden::{CacheStats, HiddenDb, SearchError, SearchInterface, SearchPage};
use std::time::Instant;

/// One call into the interface stack, on the benchmark's clock.
#[derive(Debug, Clone, Copy)]
pub struct SearchCall {
    /// When the call entered the stack.
    pub start: Instant,
    /// When it returned.
    pub end: Instant,
    /// `true` for [`SearchInterface::commit_prefetched`] (the page was
    /// computed by a pipeline worker), `false` for a plain search.
    pub committed: bool,
}

/// A [`SearchInterface`] wrapper that records a [`SearchCall`] per call.
///
/// It overrides every trait method and delegates each one inward: the
/// trait's defaults would hide the inner stack's prefetch handle (turning
/// speculation off) or redo every prefetched search.
#[derive(Debug)]
pub struct TimedIface<I> {
    inner: I,
    calls: Vec<SearchCall>,
}

impl<I: SearchInterface> TimedIface<I> {
    /// Wraps `inner`.
    pub fn new(inner: I) -> Self {
        Self {
            inner,
            calls: Vec::new(),
        }
    }

    /// Unwraps into the recorded calls.
    pub fn into_calls(self) -> Vec<SearchCall> {
        self.calls
    }

    fn timed(
        &mut self,
        committed: bool,
        run: impl FnOnce(&mut I) -> Result<SearchPage, SearchError>,
    ) -> Result<SearchPage, SearchError> {
        let start = now();
        let result = run(&mut self.inner);
        self.calls.push(SearchCall {
            start,
            end: now(),
            committed,
        });
        result
    }
}

impl<I: SearchInterface> SearchInterface for TimedIface<I> {
    fn k(&self) -> usize {
        self.inner.k()
    }

    fn search(&mut self, keywords: &[String]) -> Result<SearchPage, SearchError> {
        // lint:allow(budget-safety) pass-through above the meter, which still charges the call
        self.timed(false, |inner| inner.search(keywords))
    }

    fn queries_issued(&self) -> usize {
        self.inner.queries_issued()
    }

    fn cache_stats(&self) -> Option<CacheStats> {
        self.inner.cache_stats()
    }

    fn record_cache_hit(
        &mut self,
        keywords: &[String],
        results: usize,
        charge: bool,
    ) -> Result<(), SearchError> {
        self.inner.record_cache_hit(keywords, results, charge)
    }

    fn begin_query(&mut self, index: usize) {
        self.inner.begin_query(index);
    }

    fn prefetch_handle<'h>(&self) -> Option<&'h HiddenDb>
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
        self.timed(true, |inner| inner.commit_prefetched(keywords, prefetched))
    }
}

/// A [`CrawlObserver`] that keeps the `QueryIssued` stamps (nanoseconds
/// since session start, taken by the session itself) and anchors the
/// session start on the benchmark's clock at the first event.
#[derive(Debug, Default)]
pub struct StepObserver {
    issued: Vec<u64>,
    anchor: Option<(Instant, u64)>,
    /// Resident set size (bytes) read at the first event, when asked for.
    rss_at_start: Option<u64>,
    read_rss: bool,
}

impl StepObserver {
    /// An observer; with `read_rss` it also samples the resident set size
    /// when the session starts (a `/proc` read, so traced runs only).
    pub fn new(read_rss: bool) -> Self {
        Self {
            read_rss,
            ..Self::default()
        }
    }

    /// `QueryIssued` stamps, nanoseconds since session start.
    pub fn issued(&self) -> &[u64] {
        &self.issued
    }

    /// The session's start on the benchmark's clock: the first event's
    /// arrival minus its session-relative stamp. `None` if the session
    /// emitted no event.
    pub fn session_start(&self) -> Option<Instant> {
        self.anchor.map(|(seen, nanos)| {
            seen.checked_sub(std::time::Duration::from_nanos(nanos))
                .unwrap_or(seen)
        })
    }

    /// Resident set size at session start, if sampled.
    pub fn rss_at_start(&self) -> Option<u64> {
        self.rss_at_start
    }
}

impl CrawlObserver for StepObserver {
    fn on_event(&mut self, at: EventStamp, event: &CrawlEvent) {
        if self.anchor.is_none() {
            self.anchor = Some((now(), at.nanos));
            if self.read_rss {
                self.rss_at_start = crate::stats::proc_status_bytes("VmRSS");
            }
        }
        if matches!(event, CrawlEvent::QueryIssued { .. }) {
            self.issued.push(at.nanos);
        }
    }
}
