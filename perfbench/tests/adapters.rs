//! The timing adapters must not change what a crawl does, and the
//! correctness gate must reject a report that breaks its invariants.

use perfbench::crawl::{check, run_crawl};
use perfbench::workload::ALL;
use smartcrawl_bench::harness::{digest_outcomes, run_approach_report, RunSpec};
use smartcrawl_core::CrawlStep;
use smartcrawl_data::{Scenario, ScenarioConfig};

fn tiny_spec(approach: smartcrawl_bench::harness::Approach, depth: usize) -> RunSpec {
    let mut spec = RunSpec::new(approach, 15);
    spec.theta = 0.05;
    spec.seed = 9;
    spec.pipeline_depth = depth;
    spec
}

#[test]
fn adapters_leave_digests_and_prefetches_unchanged_at_depths_1_and_2() {
    let world = Scenario::build(ScenarioConfig::tiny(5));
    // Two threads: the driver plus one prefetch worker at depth 2.
    smartcrawl_par::with_threads(2, || {
        for depth in [1, 2] {
            let mut speculated = false;
            for approach in ALL {
                let spec = tiny_spec(approach, depth);
                // No adapters at all: the harness's metered interface and
                // its null observer.
                let plain = run_approach_report(&world, &spec);
                let plain_digest = digest_outcomes(std::slice::from_ref(&plain));
                let plain_prefetches = plain.report.pipeline.map(|p| p.prefetches);
                for traced in [false, true] {
                    let run = run_crawl(&world, &spec, traced);
                    let label = format!("{} depth {depth} traced {traced}", approach.label());
                    assert_eq!(run.digest, Some(plain_digest), "{label}: digest");
                    assert_eq!(run.failure, None, "{label}: gate");
                    let profile = run.profile.expect("crawl did not panic");
                    assert_eq!(
                        profile.pipeline.map(|p| p.prefetches),
                        plain_prefetches,
                        "{label}: prefetches"
                    );
                    assert_eq!(
                        run.issued.len(),
                        plain.report.events.queries_issued,
                        "{label}"
                    );
                    assert!(run.entry <= run.session_start && run.session_start <= run.returned);
                    if traced {
                        assert_eq!(run.calls.len(), plain.report.steps.len(), "{label}: calls");
                    }
                }
                speculated |= plain_prefetches.is_some_and(|p| p > 0);
            }
            assert_eq!(
                speculated,
                depth > 1,
                "depth {depth}: speculation on iff pipelined"
            );
        }
    });
}

#[test]
fn the_gate_rejects_broken_reports() {
    let world = Scenario::build(ScenarioConfig::tiny(6));
    let spec = tiny_spec(smartcrawl_bench::harness::Approach::SmartB, 1);
    let outcome = run_approach_report(&world, &spec);
    assert_eq!(check(&outcome, &world, &spec), Ok(()));

    let mut over_budget = outcome.clone();
    let extra = CrawlStep {
        keywords: vec!["x".into()],
        returned: vec![],
        full_page: false,
    };
    over_budget
        .report
        .steps
        .extend(std::iter::repeat_n(extra, spec.budget + 1));
    let err = check(&over_budget, &world, &spec).expect_err("over budget");
    assert!(
        err.contains("over budget") && err.contains("queries_issued events"),
        "{err}"
    );

    let mut overcovered = outcome;
    if let Some(last) = overcovered.curve.covered.last_mut() {
        *last = world.truth.matchable_count() + 1;
    }
    let err = check(&overcovered, &world, &spec).expect_err("coverage above matchable");
    assert!(err.contains("exceeds matchable"), "{err}");
}
