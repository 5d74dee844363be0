//! Acceptance tests for the pipelined crawl driver: speculative
//! prefetching must be *invisible* at the result level. For every
//! approach, the crawl digest at pipeline depths {2, 4, 8} — with real
//! worker threads and in inline fallback mode — must be byte-identical
//! to the strictly sequential run, on the RAM world, on a world whose
//! hidden database lives in the out-of-core disk store, and through the
//! flaky-interface retry stack. This is the tentpole contract: all
//! stateful accounting (budget, failure draws, cache) happens at commit
//! time on the driver thread in issue order, so overlap can only move
//! wall-clock, never results.

use smartcrawl_bench::harness::{
    digest_outcomes, run_approach_flaky, run_approach_report, Approach, RunOutcome, RunSpec,
};
use smartcrawl_data::{Scenario, ScenarioConfig};
use smartcrawl_hidden::RetryPolicy;
use smartcrawl_par::with_threads;
use smartcrawl_store::{StoreConfig, StoreRuntime};

const APPROACHES: [Approach; 7] = [
    Approach::Ideal,
    Approach::SmartB,
    Approach::SmartU,
    Approach::Simple,
    Approach::Bound,
    Approach::Naive,
    Approach::Full,
];

fn specs(depth: usize) -> Vec<RunSpec> {
    APPROACHES
        .iter()
        .map(|&a| {
            let mut spec = RunSpec::new(a, 15);
            spec.theta = 0.05;
            spec.pipeline_depth = depth;
            spec
        })
        .collect()
}

/// Runs the specs one by one on the calling thread. Deliberately NOT
/// `run_specs`: its coarse-grained fan-out would execute each run inside a
/// `par_map` worker, where the pipeline degrades to inline mode — the
/// overlapped path would never be exercised. Running on the main thread
/// with a thread budget > 1 gives the pipeline real workers.
fn outcomes_on_main(scenario: &Scenario, specs: &[RunSpec]) -> Vec<RunOutcome> {
    specs
        .iter()
        .map(|spec| run_approach_report(scenario, spec))
        .collect()
}

fn run_on_main(scenario: &Scenario, specs: &[RunSpec]) -> u64 {
    digest_outcomes(&outcomes_on_main(scenario, specs))
}

#[test]
fn pipelined_digests_match_sequential_at_every_depth_and_thread_count() {
    let scenario = Scenario::build(ScenarioConfig::tiny(13));
    let reference = with_threads(1, || run_on_main(&scenario, &specs(1)));
    for depth in [1usize, 2, 4, 8] {
        for threads in [1usize, 4] {
            // threads = 1 leaves no worker budget, so the pipeline takes
            // its inline fallback; threads = 4 runs real prefetch workers.
            let digest = with_threads(threads, || run_on_main(&scenario, &specs(depth)));
            assert_eq!(
                digest, reference,
                "pipeline depth {depth} @ {threads} threads diverged from \
                 the sequential driver"
            );
        }
    }
}

#[test]
fn pipelined_digests_match_sequential_on_the_disk_backend() {
    let ram = Scenario::build(ScenarioConfig::tiny(13));
    let reference = with_threads(1, || run_on_main(&ram, &specs(1)));
    // Small pages and a tight cache: prefetch workers reading the hidden
    // store's shared page cache while the driver evicts from it is the
    // configuration most likely to betray an ordering bug.
    let runtime = StoreRuntime::create(StoreConfig {
        page_size: 256,
        cache_pages: 8,
        dir: None,
    })
    .expect("create store runtime");
    let disk =
        Scenario::build_with_store(ScenarioConfig::tiny(13), runtime).expect("stream scenario");
    for depth in [1usize, 4] {
        let outcomes = with_threads(4, || outcomes_on_main(&disk, &specs(depth)));
        assert_eq!(
            digest_outcomes(&outcomes),
            reference,
            "disk store at pipeline depth {depth} diverged from the \
             sequential RAM run"
        );
        if depth > 1 {
            let prefetches: usize = outcomes
                .iter()
                .filter_map(|o| o.report.pipeline.as_ref())
                .map(|p| p.prefetches)
                .sum();
            assert!(
                prefetches > 0,
                "depth {depth} must prefetch against the disk store"
            );
        }
    }
}

#[test]
fn pipelined_digests_match_sequential_through_the_flaky_retry_stack() {
    // Failure draws are keyed on (session seed, query ordinal), and the
    // pipelined driver assigns ordinals at commit time in issue order —
    // so the same queries fail, retry, and get dropped whether or not
    // their pages were prefetched.
    let scenario = Scenario::build(ScenarioConfig::tiny(13));
    let flaky_digest = |depth: usize, threads: usize| {
        with_threads(threads, || {
            digest_outcomes(
                &specs(depth)
                    .iter()
                    .map(|spec| run_approach_flaky(&scenario, spec, 0.2, RetryPolicy::standard()))
                    .collect::<Vec<_>>(),
            )
        })
    };
    let reference = flaky_digest(1, 1);
    for depth in [2usize, 4, 8] {
        for threads in [1usize, 4] {
            assert_eq!(
                flaky_digest(depth, threads),
                reference,
                "flaky stack at pipeline depth {depth} @ {threads} threads \
                 diverged from the sequential driver"
            );
        }
    }
}

#[test]
fn pipelined_runs_report_a_speculation_profile() {
    // The profile is pure observability — never part of any digest — but
    // it must actually be populated when the pipeline engages, and absent
    // when it does not.
    let scenario = Scenario::build(ScenarioConfig::tiny(13));
    let mut spec = RunSpec::new(Approach::SmartB, 15);
    spec.theta = 0.05;
    let sequential = run_approach_report(&scenario, &spec);
    assert!(sequential.report.pipeline.is_none(), "depth 1 must not profile");

    spec.pipeline_depth = 4;
    let pipelined = with_threads(4, || run_approach_report(&scenario, &spec));
    let stats = pipelined
        .report
        .pipeline
        .as_ref()
        .expect("depth 4 with workers must report a pipeline profile");
    assert_eq!(stats.depth, 4);
    assert!(
        stats.prefetches > 0,
        "a fixed-order source must trigger speculative prefetches"
    );
    assert!(stats.prefetch_hits <= stats.prefetches);
}
