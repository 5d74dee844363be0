//! IdealCrawl's lazy greedy against a plain eager greedy (paper
//! Algorithm 1): each round, oracle-evaluate the live cover of every
//! remaining pool query, issue the maximum (ties to the smaller query id),
//! and remove its covered records; stop at benefit 0 or at the budget.
//!
//! The lazy queue may only skip oracle calls whose outcome cannot change
//! the pick, so both must issue the same query sequence under every
//! matcher and search mode, including a local database with duplicated
//! documents, where one hidden record covers several local ones.

use smartcrawl_core::crawl::{ideal_crawl, IdealCrawlConfig};
use smartcrawl_core::{LocalDb, PoolConfig, QueryPool, TextContext};
use smartcrawl_data::{Scenario, ScenarioConfig};
use smartcrawl_hidden::{HiddenDb, Metered, SearchMode};
use smartcrawl_index::QueryId;
use smartcrawl_match::Matcher;
use smartcrawl_text::Record;

const BUDGET: usize = 60;

/// Tiny worlds with ΔD > 0 at error 0% and 20%; the last one appends
/// copies of a fifth of its local records.
fn worlds(mode: SearchMode) -> Vec<(Vec<Record>, HiddenDb)> {
    let mut out = Vec::new();
    for (seed, error_pct, duplicate) in [
        (1, 0.0, false),
        (2, 0.2, false),
        (3, 0.0, false),
        (4, 0.2, false),
        (5, 0.2, true),
    ] {
        let mut cfg = ScenarioConfig::tiny(seed);
        cfg.local_size = 60;
        cfg.hidden_size = 300;
        cfg.delta_d = 6;
        cfg.k = 8;
        cfg.error_pct = error_pct;
        cfg.mode = mode;
        let s = Scenario::build(cfg);
        let mut local = s.local.clone();
        if duplicate {
            let copies: Vec<Record> = local.iter().step_by(5).cloned().collect();
            local.extend(copies);
        }
        out.push((local, s.hidden));
    }
    out
}

fn pool_config(seed: u64) -> PoolConfig {
    PoolConfig {
        min_support: 2,
        max_len: 2,
        seed,
    }
}

/// The eager greedy's issued keywords, in order.
fn eager_greedy(records: &[Record], hidden: &HiddenDb, matcher: Matcher) -> Vec<Vec<String>> {
    let mut ctx = TextContext::new();
    let local = LocalDb::build(records.to_vec(), &mut ctx);
    let pool = QueryPool::generate(&local, &pool_config(7));
    // A query's cover over all of D is fixed (the oracle page does not
    // depend on D); only its live part shrinks.
    let covers: Vec<Vec<usize>> = (0..pool.len())
        .map(|i| {
            let page = hidden.search(&pool.render(QueryId(i as u32), &ctx));
            let docs: Vec<_> = page
                .iter()
                .map(|r| ctx.doc_of_fields(&r.fields[..]))
                .collect();
            (0..local.len())
                .filter(|&d| docs.iter().any(|h| matcher.matches(local.doc(d), h)))
                .collect()
        })
        .collect();
    let mut live = vec![true; local.len()];
    let mut remaining = vec![true; pool.len()];
    let mut issued = Vec::new();
    while issued.len() < BUDGET {
        let mut best: Option<(usize, usize)> = None;
        for (q, cover) in covers.iter().enumerate() {
            if !remaining[q] {
                continue;
            }
            let benefit = cover.iter().filter(|&&d| live[d]).count();
            if best.is_none_or(|(_, b)| benefit > b) {
                best = Some((q, benefit));
            }
        }
        let Some((q, benefit)) = best else { break };
        if benefit == 0 {
            break;
        }
        remaining[q] = false;
        for &d in &covers[q] {
            live[d] = false;
        }
        issued.push(pool.render(QueryId(q as u32), &ctx));
    }
    issued
}

fn lazy_ideal(records: &[Record], hidden: &HiddenDb, matcher: Matcher) -> Vec<Vec<String>> {
    let mut ctx = TextContext::new();
    let local = LocalDb::build(records.to_vec(), &mut ctx);
    let mut iface = Metered::new(hidden, Some(BUDGET));
    let cfg = IdealCrawlConfig {
        budget: BUDGET,
        matcher,
        pool: pool_config(7),
    };
    let report = ideal_crawl(&local, &mut iface, hidden, &cfg, ctx);
    report.steps.into_iter().map(|s| s.keywords).collect()
}

fn assert_lazy_matches_eager(matcher: Matcher, mode: SearchMode) {
    for (w, (records, hidden)) in worlds(mode).iter().enumerate() {
        let eager = eager_greedy(records, hidden, matcher);
        assert!(!eager.is_empty(), "world {w}: the greedy issues something");
        let lazy = lazy_ideal(records, hidden, matcher);
        let first_diff = eager.iter().zip(&lazy).position(|(a, b)| a != b);
        assert!(
            eager == lazy,
            "world {w}, {matcher:?}, {mode:?}: lazy issued {} queries, eager {}; first \
             difference at step {first_diff:?}",
            lazy.len(),
            eager.len(),
        );
    }
}

#[test]
fn exact_conjunctive() {
    assert_lazy_matches_eager(Matcher::Exact, SearchMode::Conjunctive);
}

#[test]
fn exact_disjunctive() {
    assert_lazy_matches_eager(Matcher::Exact, SearchMode::Disjunctive);
}

#[test]
fn jaccard_09_conjunctive() {
    assert_lazy_matches_eager(Matcher::Jaccard { threshold: 0.9 }, SearchMode::Conjunctive);
}

#[test]
fn jaccard_09_disjunctive() {
    assert_lazy_matches_eager(Matcher::Jaccard { threshold: 0.9 }, SearchMode::Disjunctive);
}

#[test]
fn jaccard_07_conjunctive() {
    assert_lazy_matches_eager(Matcher::Jaccard { threshold: 0.7 }, SearchMode::Conjunctive);
}

#[test]
fn jaccard_07_disjunctive() {
    assert_lazy_matches_eager(Matcher::Jaccard { threshold: 0.7 }, SearchMode::Disjunctive);
}
