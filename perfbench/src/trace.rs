//! In-memory spans of a traced run, written out when the run ends.
//!
//! A span is a named interval on the run's clock with the span that caused
//! it and the crawl it belongs to. A layer's self time is its span's
//! duration minus the part its child spans cover.

use crate::crawl::{nanos, CrawlRun};
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One recorded interval.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer name (`crawl.loop`, `hidden.search`, …).
    pub name: &'static str,
    /// Start, nanoseconds since the run began.
    pub start: u64,
    /// End, nanoseconds since the run began.
    pub end: u64,
    /// Index of the causing span.
    pub parent: Option<usize>,
    /// Index of the crawl in the sweep, for spans inside one.
    pub crawl: Option<usize>,
}

/// Aggregate of every span sharing a name.
#[derive(Debug, Clone, Default)]
pub struct SelfTime {
    /// Number of spans.
    pub count: usize,
    /// Summed durations, nanoseconds.
    pub total_ns: u64,
    /// Summed self times, nanoseconds.
    pub self_ns: u64,
}

/// The span recorder.
#[derive(Debug)]
pub struct Tracer {
    t0: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    /// A recorder whose clock starts at `t0`.
    pub fn new(t0: Instant) -> Self {
        Self {
            t0,
            spans: Vec::new(),
        }
    }

    /// Records a span and returns its index.
    pub fn push(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: Option<usize>,
        crawl: Option<usize>,
    ) -> usize {
        self.spans.push(Span {
            name,
            start: nanos(self.t0, start),
            end: nanos(self.t0, end),
            parent,
            crawl,
        });
        self.spans.len() - 1
    }

    /// Records the span tree of one crawl under `parent` (the crawl id
    /// names the approach): set-up (local build, sample draw), the loop
    /// with one span per step and one per interface call, and evaluation.
    pub fn push_crawl(&mut self, run: &CrawlRun, crawl: usize, parent: Option<usize>) {
        let id = Some(crawl);
        let root = self.push("crawl", run.entry, run.evaluated, parent, id);
        let setup = self.push("crawl.setup", run.entry, run.session_start, Some(root), id);
        self.push(
            "core.local.build",
            run.entry,
            run.local_built,
            Some(setup),
            id,
        );
        if let Some((start, end)) = run.sample_drawn {
            self.push("sampler.draw", start, end, Some(setup), id);
        }
        let lp = self.push(
            "crawl.loop",
            run.session_start,
            run.returned,
            Some(root),
            id,
        );
        let at = |ns: u64| run.session_start + std::time::Duration::from_nanos(ns);
        let steps: Vec<usize> = run
            .issued
            .iter()
            .enumerate()
            .map(|(i, &start)| {
                let end = run.issued.get(i + 1).map_or(run.returned, |&next| at(next));
                self.push("crawl.step", at(start), end, Some(lp), id)
            })
            .collect();
        // Calls and steps are both in time order: each call belongs to the
        // last step that started before it.
        let mut step = 0usize;
        for call in &run.calls {
            let start = nanos(self.t0, call.start);
            let started = |i: usize| {
                steps
                    .get(i)
                    .and_then(|&s| self.spans.get(s))
                    .map(|s| s.start)
            };
            while started(step + 1).is_some_and(|s| s <= start) {
                step += 1;
            }
            let name = if call.committed {
                "hidden.commit"
            } else {
                "hidden.search"
            };
            let owner = steps.get(step).copied().unwrap_or(lp);
            self.push(name, call.start, call.end, Some(owner), id);
        }
        self.push("crawl.eval", run.returned, run.evaluated, Some(root), id);
    }

    /// Per-name totals and self times, in first-recorded order.
    pub fn self_times(&self) -> Vec<(&'static str, SelfTime)> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(total) = s.parent.and_then(|p| child_ns.get_mut(p)) {
                *total += s.end.saturating_sub(s.start);
            }
        }
        let mut out: Vec<(&'static str, SelfTime)> = Vec::new();
        for (s, &children) in self.spans.iter().zip(&child_ns) {
            let dur = s.end.saturating_sub(s.start);
            if !out.iter().any(|(n, _)| *n == s.name) {
                out.push((s.name, SelfTime::default()));
            }
            let Some((_, agg)) = out.iter_mut().find(|(n, _)| *n == s.name) else {
                continue;
            };
            agg.count += 1;
            agg.total_ns += dur;
            agg.self_ns += dur.saturating_sub(children);
        }
        out
    }

    /// Writes every span as a tab-separated line:
    /// `id parent crawl name start_ns end_ns`.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "id\tparent\tcrawl\tname\tstart_ns\tend_ns")?;
        let opt = |v: Option<usize>| v.map_or_else(|| "-".to_string(), |v| v.to_string());
        for (i, s) in self.spans.iter().enumerate() {
            writeln!(
                out,
                "{i}\t{}\t{}\t{}\t{}\t{}",
                opt(s.parent),
                opt(s.crawl),
                s.name,
                s.start,
                s.end
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn self_time_subtracts_child_spans() {
        let t0 = Instant::now();
        let at = |ms| t0 + Duration::from_millis(ms);
        let mut tracer = Tracer::new(t0);
        let root = tracer.push("outer", at(0), at(10), None, None);
        tracer.push("inner", at(2), at(5), Some(root), Some(0));
        tracer.push("inner", at(6), at(7), Some(root), Some(0));
        let times = tracer.self_times();
        assert_eq!(times[0].0, "outer");
        assert_eq!(times[0].1.self_ns, 6_000_000);
        assert_eq!(times[1].0, "inner");
        assert_eq!((times[1].1.count, times[1].1.total_ns), (2, 4_000_000));
    }
}
