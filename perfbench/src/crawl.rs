//! One crawl, timed from outside through the public entry points.
//!
//! [`run_crawl`] does what a user running one crawl would do — build the
//! local database, draw the sample the approach needs, call the
//! approach's `*_crawl_with` entry point, evaluate coverage — and stamps
//! each boundary on the benchmark's clock. The crawl is configured by the
//! bench harness's [`RunSpec`], so its result digests are directly
//! comparable with `harness::run_approach_report` for the same spec.

use crate::adapters::{SearchCall, StepObserver, TimedIface};
use crate::stats::now;
use smartcrawl_bench::eval::coverage_curve;
use smartcrawl_bench::harness::{digest_outcomes, Approach, RunOutcome, RunSpec};
use smartcrawl_core::crawl::PipelineStats;
use smartcrawl_core::crawl::{
    full_crawl_with, ideal_crawl_with, naive_crawl_with, smart_crawl_with, IdealCrawlConfig,
    SmartCrawlConfig,
};
use smartcrawl_core::{
    CrawlObserver, CrawlReport, EstimatorKind, LocalDb, PhaseTimings, SelectionStats, Strategy,
    TextContext,
};
use smartcrawl_data::Scenario;
use smartcrawl_hidden::{Metered, RetryPolicy, SearchInterface};
use smartcrawl_sampler::{bernoulli_sample, HiddenSample};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

/// Everything one crawl left behind: its result and its boundary stamps.
#[derive(Debug)]
pub struct CrawlRun {
    /// The approach crawled.
    pub approach: Approach,
    /// Result digest (see `harness::digest_outcomes`); `None` if the crawl
    /// panicked.
    pub digest: Option<u64>,
    /// Ground-truth local records covered at the budget.
    pub covered: usize,
    /// Queries the crawl attempted (`QueryIssued` events; the budget for a
    /// crawl that panicked).
    pub attempted: usize,
    /// Why the crawl failed its correctness checks, if it did.
    pub failure: Option<String>,
    /// The report's profile counters (`None` if the crawl panicked).
    pub profile: Option<Profile>,
    /// Entry into the crawl.
    pub entry: Instant,
    /// End of the local-database build (it starts at `entry`).
    pub local_built: Instant,
    /// Start and end of the sample draw, for approaches that sample.
    pub sample_drawn: Option<(Instant, Instant)>,
    /// Start of the crawl session (the budget loop).
    pub session_start: Instant,
    /// Return from the entry point.
    pub returned: Instant,
    /// End of coverage evaluation and digesting.
    pub evaluated: Instant,
    /// `QueryIssued` stamps, nanoseconds since `session_start`.
    pub issued: Vec<u64>,
    /// Interface calls (traced crawls only).
    pub calls: Vec<SearchCall>,
    /// Resident set size at session start (traced crawls only).
    pub rss_at_start: Option<u64>,
}

impl CrawlRun {
    /// Nanoseconds from entry to session start: the crawl's set-up.
    pub fn setup_ns(&self) -> u64 {
        nanos(self.entry, self.session_start)
    }

    /// Nanoseconds inside the crawl loop.
    pub fn loop_ns(&self) -> u64 {
        nanos(self.session_start, self.returned)
    }

    /// Per-query latencies in nanoseconds: from each `QueryIssued` to the
    /// next, the last one to the crawl's return.
    pub fn step_ns(&self) -> Vec<u64> {
        let end = self.loop_ns();
        let next = self.issued.iter().skip(1);
        let mut steps: Vec<u64> = self
            .issued
            .iter()
            .zip(next)
            .map(|(a, b)| b.saturating_sub(*a))
            .collect();
        if let Some(&last) = self.issued.last() {
            steps.push(end.saturating_sub(last));
        }
        steps
    }
}

/// The counters a [`CrawlReport`] exposes, kept after the report itself
/// is dropped so a sweep's memory does not grow with its crawls.
#[derive(Debug, Clone, Copy)]
pub struct Profile {
    /// Per-phase wall time inside the crawl loop.
    pub timing: PhaseTimings,
    /// Selection-machinery counters and page-match/removal time.
    pub selection: SelectionStats,
    /// Speculation accounting (pipelined crawls only).
    pub pipeline: Option<PipelineStats>,
    /// Enrichment pairs the crawl asserted.
    pub enriched: usize,
    /// Served pages that hit the top-`k` limit.
    pub full_pages: usize,
}

impl Profile {
    fn of(r: &CrawlReport) -> Self {
        Self {
            timing: r.timing,
            selection: r.selection,
            pipeline: r.pipeline,
            enriched: r.enriched.len(),
            full_pages: r.steps.iter().filter(|s| s.full_page).count(),
        }
    }
}

/// Nanoseconds from `a` to `b` (0 if `b` is earlier).
pub fn nanos(a: Instant, b: Instant) -> u64 {
    b.saturating_duration_since(a).as_nanos() as u64
}

/// Whether `approach` draws a sample from the hidden database.
pub fn samples(approach: Approach) -> bool {
    matches!(
        approach,
        Approach::SmartB | Approach::SmartU | Approach::Full
    )
}

/// The sample `spec`'s approach crawls with, drawn as the harness draws it.
pub fn draw_sample(world: &Scenario, spec: &RunSpec) -> HiddenSample {
    match spec.approach {
        Approach::Full => bernoulli_sample(&world.hidden, spec.full_theta, spec.seed ^ 0xF011),
        _ => bernoulli_sample(&world.hidden, spec.theta, spec.seed ^ 0x005A_3B1E),
    }
}

/// The selection strategy of a SmartCrawl-family approach.
pub fn strategy(spec: &RunSpec) -> Option<Strategy> {
    let est = |kind| Strategy::Est {
        kind,
        delta_removal: spec.delta_removal,
    };
    match spec.approach {
        Approach::SmartB => Some(est(EstimatorKind::Biased)),
        Approach::SmartU => Some(est(EstimatorKind::Unbiased)),
        Approach::Simple => Some(Strategy::Simple),
        Approach::Bound => Some(Strategy::Bound),
        Approach::Ideal | Approach::Naive | Approach::Full => None,
    }
}

/// Runs `spec` against `world` at `spec.pipeline_depth`, under the calling
/// thread's thread budget. With `traced`, the interface stack is wrapped
/// in a [`TimedIface`] and the session's start samples the resident set.
pub fn run_crawl(world: &Scenario, spec: &RunSpec, traced: bool) -> CrawlRun {
    let entry = now();
    let mut ctx = TextContext::new();
    let local = LocalDb::build(world.local.clone(), &mut ctx);
    let local_built = now();
    let sample = samples(spec.approach).then(|| {
        let start = now();
        let sample = draw_sample(world, spec);
        (sample, start, now())
    });
    let sample_drawn = sample.as_ref().map(|&(_, start, end)| (start, end));
    let sample = sample.map(|(s, _, _)| s).unwrap_or(HiddenSample {
        records: vec![],
        theta: 0.0,
    });

    let mut observer = StepObserver::new(traced);
    let metered = Metered::new(&world.hidden, Some(spec.budget));
    let (result, calls) = if traced {
        let mut iface = TimedIface::new(metered);
        let result = crawl(world, spec, &local, &sample, &mut iface, &mut observer, ctx);
        (result, iface.into_calls())
    } else {
        let mut iface = metered;
        (
            crawl(world, spec, &local, &sample, &mut iface, &mut observer, ctx),
            Vec::new(),
        )
    };
    let returned = now();
    let session_start = observer.session_start().unwrap_or(returned);

    let (digest, covered, attempted, failure, profile) = match result {
        Ok(report) => {
            let outcome = RunOutcome {
                curve: coverage_curve(
                    spec.approach.label(),
                    &report,
                    &world.truth,
                    &spec.checkpoints,
                ),
                report,
            };
            let failure = check(&outcome, world, spec).err();
            let digest = digest_outcomes(std::slice::from_ref(&outcome));
            let attempted = outcome.report.events.queries_issued;
            let profile = Profile::of(&outcome.report);
            (
                Some(digest),
                outcome.curve.final_coverage(),
                attempted,
                failure,
                Some(profile),
            )
        }
        Err(panic) => (
            None,
            0,
            spec.budget,
            Some(format!("crawl panicked: {panic}")),
            None,
        ),
    };
    CrawlRun {
        approach: spec.approach,
        digest,
        covered,
        attempted,
        failure,
        profile,
        entry,
        local_built,
        sample_drawn,
        session_start,
        returned,
        evaluated: now(),
        issued: observer.issued().to_vec(),
        calls,
        rss_at_start: observer.rss_at_start(),
    }
}

/// Calls the approach's entry point, turning a panic into an error.
fn crawl<I: SearchInterface>(
    world: &Scenario,
    spec: &RunSpec,
    local: &LocalDb,
    sample: &HiddenSample,
    iface: &mut I,
    observer: &mut dyn CrawlObserver,
    ctx: TextContext,
) -> Result<CrawlReport, String> {
    let retry = RetryPolicy::none();
    let run = || {
        smartcrawl_par::with_pipeline_depth(spec.pipeline_depth, || {
            if let Some(strategy) = strategy(spec) {
                let cfg = SmartCrawlConfig {
                    budget: spec.budget,
                    strategy,
                    matcher: spec.matcher,
                    pool: spec.pool,
                    omega: spec.omega,
                };
                return smart_crawl_with(local, sample, iface, &cfg, retry, observer, ctx);
            }
            match spec.approach {
                Approach::Ideal => ideal_crawl_with(
                    local,
                    iface,
                    &world.hidden,
                    &IdealCrawlConfig {
                        budget: spec.budget,
                        matcher: spec.matcher,
                        pool: spec.pool,
                    },
                    retry,
                    observer,
                    ctx,
                ),
                Approach::Naive => naive_crawl_with(
                    local,
                    iface,
                    spec.budget,
                    spec.matcher,
                    spec.seed,
                    retry,
                    observer,
                    ctx,
                ),
                // Full, and the SmartCrawl family already returned above.
                _ => full_crawl_with(
                    local,
                    sample,
                    iface,
                    spec.budget,
                    spec.matcher,
                    retry,
                    observer,
                    ctx,
                ),
            }
        })
    };
    catch_unwind(AssertUnwindSafe(run)).map_err(|payload| {
        payload
            .downcast_ref::<&str>()
            .map(|s| s.to_string())
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_else(|| "non-string panic payload".to_string())
    })
}

/// The per-crawl correctness gate: the budget holds, the session's event
/// tallies agree with its own bookkeeping, and ground-truth coverage never
/// exceeds what is matchable.
pub fn check(outcome: &RunOutcome, world: &Scenario, spec: &RunSpec) -> Result<(), String> {
    let r = &outcome.report;
    let steps = r.steps.len();
    let mut problems = Vec::new();
    if steps > spec.budget {
        problems.push(format!(
            "{steps} queries issued over budget {}",
            spec.budget
        ));
    }
    let tallies = [
        ("queries_issued", r.events.queries_issued, steps),
        ("pages_received", r.events.pages_received, steps),
        ("matched", r.events.matched, r.enriched.len()),
        (
            "records_removed",
            r.events.records_removed,
            r.records_removed,
        ),
    ];
    for (name, events, own) in tallies {
        if events != own {
            problems.push(format!("{name} events {events} != {own}"));
        }
    }
    let covered = outcome.curve.final_coverage();
    let matchable = world.truth.matchable_count();
    if covered > matchable {
        problems.push(format!("coverage {covered} exceeds matchable {matchable}"));
    }
    if problems.is_empty() {
        Ok(())
    } else {
        Err(problems.join("; "))
    }
}
