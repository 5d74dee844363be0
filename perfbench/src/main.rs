//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload (README.md), checks every crawl, prints each metric by
//! name with its unit, and ends with one JSON line:
//! `{"correct": …, "attempted": …, "failed": …, "metrics": {…}}`.
//! `--trace 0` reports the end-to-end metrics, `--trace 1` the per-layer
//! ones from a traced run.

use perfbench::crawl::{nanos, CrawlRun, Profile};
use perfbench::stats::{beyond, mb, median, proc_status_bytes, quantile, ratio};
use perfbench::sweep::{probe_setup, sweep, ScratchDir, SetupProbe, World};
use perfbench::trace::Tracer;
use perfbench::workload::{
    self, short_name, Storage, Workload, MAX_THREADS, PIPELINE_PROBE_DEPTH, RAM_SWEEP,
    WORLD_BUILDS,
};
use smartcrawl_bench::harness::Approach;
use smartcrawl_core::crawl::PipelineStats;
use smartcrawl_core::StoreStats;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    /// `--reference a,b,…`: print `ram-sweep`'s digests for these
    /// approaches and exit (the child process other workloads gate on).
    reference: Option<Vec<Approach>>,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut reference = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                let found = workload::by_name(&value);
                workload = Some(found.ok_or_else(|| format!("unknown workload {value:?}"))?);
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .map_err(|e| format!("--seconds: {e}"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value:?}")),
                })
            }
            "--reference" => {
                let list: Result<Vec<Approach>, String> = value
                    .split(',')
                    .map(|n| {
                        workload::approach_by_short_name(n)
                            .ok_or_else(|| format!("unknown approach {n:?}"))
                    })
                    .collect();
                reference = Some(list?);
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    let seed = seed.ok_or("--seed is required")?;
    if reference.is_some() {
        return Ok(Args {
            workload: RAM_SWEEP,
            seed,
            seconds: 0.0,
            trace: false,
            reference,
        });
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        reference: None,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                workload::WORKLOADS.map(|w| w.name).join("|")
            );
            return ExitCode::from(2);
        }
    };
    let result = match &args.reference {
        Some(approaches) => reference(args.seed, approaches),
        None => run(&args),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn threads() -> usize {
    MAX_THREADS.min(nproc())
}

/// Child mode: crawls `approaches` exactly as `ram-sweep` does and prints
/// their digests.
fn reference(seed: u64, approaches: &[Approach]) -> Result<(), String> {
    let scratch = ScratchDir::create().map_err(|e| format!("scratch dir: {e}"))?;
    let world = World::build(RAM_SWEEP.storage, seed, scratch.path())?;
    let only = Workload {
        approaches: Box::leak(approaches.to_vec().into_boxed_slice()),
        ..RAM_SWEEP
    };
    let runs = smartcrawl_par::with_threads(threads(), || sweep(&world, &only, 1, seed, false));
    for r in &runs {
        match &r.failure {
            // A crawl that failed its own checks is no reference: its
            // digest is replaced by a word no real digest matches.
            Some(_) => println!("digest {} failed-checks", short_name(r.approach)),
            None => println!("{}", digest_line(r)),
        }
    }
    Ok(())
}

fn digest_line(r: &CrawlRun) -> String {
    match r.digest {
        Some(d) => format!("digest {} {d:#018x}", short_name(r.approach)),
        None => format!("digest {} panicked", short_name(r.approach)),
    }
}

/// What a child process reported.
struct ChildReport {
    digests: BTreeMap<String, String>,
    wall_s: Option<f64>,
    correct: bool,
}

/// Reads the `digest`, `metric wall_s` and JSON lines of a run's output.
fn parse_report(text: &str) -> ChildReport {
    let mut report = ChildReport {
        digests: BTreeMap::new(),
        wall_s: None,
        correct: true,
    };
    for line in text.lines() {
        let words: Vec<&str> = line.split_whitespace().collect();
        match words.as_slice() {
            ["digest", name, value] => {
                report.digests.insert(name.to_string(), value.to_string());
            }
            ["metric", "wall_s", "=", value, ..] => report.wall_s = value.parse().ok(),
            _ if line.starts_with('{') => report.correct = line.contains("\"correct\": true"),
            _ => {}
        }
    }
    report
}

/// Runs this binary with `args` and waits for it.
fn run_child(args: &[&str]) -> Result<ChildReport, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let out = Command::new(exe)
        .args(args)
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("spawn {args:?}: {e}"))?;
    if !out.status.success() {
        return Err(format!("child {args:?} failed: {}", out.status));
    }
    Ok(parse_report(&String::from_utf8_lossy(&out.stdout)))
}

/// The child run whose digests this run must reproduce: for a traced run,
/// the untraced run of the same workload (which does its own reference
/// check); otherwise `ram-sweep`'s crawls for the same seed, except for
/// `ram-sweep` itself. Children run first, while this process is small.
fn expectations(args: &Args) -> Result<Option<ChildReport>, String> {
    let w = args.workload;
    let seed = args.seed.to_string();
    if args.trace {
        let seconds = args.seconds.to_string();
        let child = run_child(&[
            "--workload",
            w.name,
            "--seed",
            &seed,
            "--seconds",
            &seconds,
            "--trace",
            "0",
        ])?;
        Ok(Some(child))
    } else if w.needs_reference() {
        let names: Vec<&str> = w.approaches.iter().map(|&a| short_name(a)).collect();
        let list = names.join(",");
        Ok(Some(run_child(&["--seed", &seed, "--reference", &list])?))
    } else {
        Ok(None)
    }
}

/// One sweep: every crawl of the workload, one after another.
struct Sweep {
    wall_ns: u64,
    runs: Vec<CrawlRun>,
}

impl Sweep {
    fn loop_ns(&self) -> u64 {
        self.runs.iter().map(CrawlRun::loop_ns).sum()
    }

    fn queries(&self) -> usize {
        self.runs.iter().map(|r| r.issued.len()).sum()
    }

    /// Every per-query latency of the sweep, nanoseconds, sorted.
    fn steps(&self) -> Vec<u64> {
        let mut steps: Vec<u64> = self.runs.iter().flat_map(CrawlRun::step_ns).collect();
        steps.sort_unstable();
        steps
    }
}

type Metric = (String, f64, &'static str);

/// Everything a run measured.
struct Measured {
    world: World,
    world_build_s: f64,
    rss_world: u64,
    store_after_build: Option<StoreStats>,
    /// The store's counters right after the measured sweeps, before the
    /// pipeline sweep and the probes touch the store again.
    store_after_sweeps: Option<StoreStats>,
    sweeps: Vec<Sweep>,
    /// The traced run's extra sweep at [`PIPELINE_PROBE_DEPTH`], if any.
    depth2: Option<Sweep>,
    attempted: usize,
    failed: usize,
}

impl Measured {
    fn runs(&self) -> impl Iterator<Item = &CrawlRun> {
        self.sweeps.iter().flat_map(|s| s.runs.iter())
    }

    /// Median over the run's sweeps.
    fn per_sweep(&self, f: impl Fn(&Sweep) -> f64) -> f64 {
        median(&self.sweeps.iter().map(f).collect::<Vec<f64>>())
    }

    /// Mean per sweep of a quantity summed over crawls.
    fn per_crawl_sum(&self, f: impl Fn(&CrawlRun) -> f64) -> f64 {
        self.runs().map(f).sum::<f64>() / self.sweeps.len() as f64
    }

    /// [`Measured::per_crawl_sum`] over the reports' counters.
    fn profile_sum(&self, f: impl Fn(&Profile) -> u64) -> f64 {
        self.per_crawl_sum(|r| r.profile.as_ref().map_or(0, &f) as f64)
    }

    /// A speculation counter summed over the depth-2 sweep (0 without one).
    fn pipeline_sum(&self, f: impl Fn(&PipelineStats) -> u64) -> f64 {
        let stats = self.depth2.iter().flat_map(|s| s.runs.iter());
        let stats = stats.filter_map(|r| r.profile.as_ref()?.pipeline.as_ref());
        stats.map(f).sum::<u64>() as f64
    }

    fn wall_s(&self) -> f64 {
        self.world_build_s + self.per_sweep(|s| s.wall_ns as f64 / 1e9)
    }

    fn setup_s(&self) -> f64 {
        let crawl_setup = |s: &Sweep| s.runs.iter().map(|r| r.setup_ns() as f64 / 1e9).sum();
        self.world_build_s + self.per_sweep(crawl_setup)
    }

    fn end_to_end(&self) -> Vec<Metric> {
        let step_ms = |q: f64| self.per_sweep(|s| quantile(&s.steps(), q) as f64 / 1e6);
        let first = &self.sweeps[0].runs;
        let d = self.world.scenario.truth.num_local() as f64;
        let coverage = first.iter().map(|r| r.covered as f64 / d).sum::<f64>() / first.len() as f64;
        let ok = (self.attempted - self.failed) as f64;
        vec![
            ("wall_s".into(), self.wall_s(), "s"),
            ("setup_s".into(), self.setup_s(), "s"),
            (
                "queries_per_s".into(),
                self.per_sweep(|s| ratio(s.queries() as f64, s.loop_ns() as f64 / 1e9)),
                "1/s",
            ),
            ("step_ms.p50".into(), step_ms(0.5), "ms"),
            ("step_ms.p99".into(), step_ms(0.99), "ms"),
            (
                "peak_rss_mb".into(),
                mb(proc_status_bytes("VmHWM").unwrap_or(0)),
                "MB",
            ),
            ("coverage".into(), coverage, "ratio"),
            (
                "success_ratio".into(),
                ratio(ok, self.attempted as f64),
                "ratio",
            ),
        ]
    }

    /// The per-layer metrics (README.md has the definitions). Sums and
    /// counters are per measured sweep; `probes` are the standalone set-up
    /// timings.
    fn layers(&self, probes: &[SetupProbe], untraced_wall_s: Option<f64>) -> Vec<Metric> {
        let s = |ns: f64| ns / 1e9;
        let local_build_s = s(self.per_crawl_sum(|r| nanos(r.entry, r.local_built) as f64));
        let draw_s =
            s(self.per_crawl_sum(|r| r.sample_drawn.map_or(0, |(a, b)| nanos(a, b)) as f64));
        let probe_s = |f: fn(&SetupProbe) -> u64| s(probes.iter().map(f).sum::<u64>() as f64);
        let pool_s = probe_s(|p| p.pool_ns);
        let sample_build_s = probe_s(|p| p.sample_index_ns);
        let init_s = probe_s(|p| p.engine_init_ns);
        let selection_s = s(self.profile_sum(|p| p.timing.selection_ns));
        let absorb_s = s(self.profile_sum(|p| p.timing.matching_ns));
        let loop_s = s(self.per_crawl_sum(|r| r.loop_ns() as f64));
        let attributed = selection_s + s(self.profile_sum(|p| p.timing.search_ns)) + absorb_s;
        let crawl_unattributed_s = loop_s - attributed;
        let qps = |sw: &Sweep| ratio(sw.queries() as f64, s(sw.loop_ns() as f64));
        let depth2_loop_s = self
            .depth2
            .as_ref()
            .map_or(0.0, |sw| s(sw.loop_ns() as f64));
        let depth2_qps = self.depth2.as_ref().map_or(0.0, qps);
        let speculation_s = s(self.pipeline_sum(|p| p.speculation_ns));
        let wait_s = s(self.pipeline_sum(|p| p.wait_ns));
        let worker_s = s(self.pipeline_sum(|p| p.worker_search_ns));
        let prefetches = self.pipeline_sum(|p| p.prefetches as u64);
        let setup_s = self.setup_s();
        let setup_unattributed_s = setup_s
            - (self.world_build_s + local_build_s + draw_s + pool_s + sample_build_s + init_s);
        let queries = self.per_crawl_sum(|r| r.issued.len() as f64);

        // Every interface call the driver waits on: a search, or the
        // commit of a page a pipeline worker already fetched.
        let mut calls: Vec<u64> = self
            .runs()
            .flat_map(|r| r.calls.iter().map(|c| nanos(c.start, c.end)))
            .collect();
        calls.sort_unstable();

        let per_sweep = |n: u64| n as f64 / self.sweeps.len() as f64;
        let (hits, misses, evictions, peak) =
            match (self.store_after_build, self.store_after_sweeps) {
                (Some(b), Some(a)) => (
                    per_sweep(a.hits - b.hits),
                    per_sweep(a.misses - b.misses),
                    per_sweep(a.evictions - b.evictions),
                    a.peak_resident_pages as f64,
                ),
                _ => (0.0, 0.0, 0.0, 0.0),
            };
        let disk_bytes: u64 = self
            .world
            .store_files()
            .iter()
            .filter(|(tag, _)| tag.starts_with("hidden-"))
            .map(|(_, bytes)| bytes)
            .sum();
        let user_bytes = if self.world.runtime.is_some() {
            user_bytes(&self.world)
        } else {
            0
        };

        let mut m: Vec<Metric> = vec![
            ("data.world_build_s".into(), self.world_build_s, "s"),
            ("core.local.build_s".into(), local_build_s, "s"),
            ("sampler.draw_s".into(), draw_s, "s"),
            ("core.sample.build_s".into(), sample_build_s, "s"),
            ("core.pool.generate_s".into(), pool_s, "s"),
            (
                "core.pool.queries".into(),
                probes.iter().map(|p| p.pool_queries).max().unwrap_or(0) as f64,
                "count",
            ),
            ("core.select.init_s".into(), init_s, "s"),
            ("core.select.s".into(), selection_s, "s"),
            (
                "core.select.stale_recomputes".into(),
                self.profile_sum(|p| p.selection.stale_recomputes as u64),
                "count",
            ),
            (
                "core.select.incremental_updates".into(),
                self.profile_sum(|p| p.selection.incremental_updates as u64),
                "count",
            ),
            (
                "core.select.stamp_skips".into(),
                self.profile_sum(|p| p.selection.stamp_skips),
                "count",
            ),
            (
                "hidden.search.s".into(),
                s(calls.iter().sum::<u64>() as f64) / self.sweeps.len() as f64,
                "s",
            ),
            (
                "hidden.search.ms.p50".into(),
                quantile(&calls, 0.5) as f64 / 1e6,
                "ms",
            ),
            (
                "hidden.search.ms.p99".into(),
                quantile(&calls, 0.99) as f64 / 1e6,
                "ms",
            ),
            (
                "hidden.search.calls".into(),
                calls.len() as f64 / self.sweeps.len() as f64,
                "count",
            ),
            (
                "hidden.search.full_page_ratio".into(),
                ratio(self.profile_sum(|p| p.full_pages as u64), queries),
                "ratio",
            ),
            ("core.absorb.s".into(), absorb_s, "s"),
            (
                "core.absorb.page_match_s".into(),
                s(self.profile_sum(|p| p.selection.page_match_ns)),
                "s",
            ),
            (
                "core.absorb.removal_s".into(),
                s(self.profile_sum(|p| p.selection.removal_ns)),
                "s",
            ),
            (
                "core.absorb.pairs_per_query".into(),
                ratio(self.profile_sum(|p| p.enriched as u64), queries),
                "ratio",
            ),
            ("store.hits".into(), hits, "count"),
            ("store.misses".into(), misses, "count"),
            ("store.evictions".into(), evictions, "count"),
            (
                "store.hit_rate".into(),
                ratio(hits, hits + misses),
                "ratio",
            ),
            ("store.peak_resident_pages".into(), peak, "count"),
            ("store.disk_bytes".into(), disk_bytes as f64, "bytes"),
            (
                "store.disk_bytes_per_record_byte".into(),
                ratio(disk_bytes as f64, user_bytes as f64),
                "ratio",
            ),
            (
                "par.pipeline.speculation_share".into(),
                ratio(speculation_s, depth2_loop_s),
                "ratio",
            ),
            (
                "par.pipeline.wait_share".into(),
                ratio(wait_s, depth2_loop_s),
                "ratio",
            ),
            (
                "par.pipeline.worker_search_share".into(),
                ratio(worker_s, depth2_loop_s),
                "ratio",
            ),
            ("par.pipeline.prefetches".into(), prefetches, "count"),
            (
                "par.pipeline.mispredict_ratio".into(),
                ratio(self.pipeline_sum(|p| p.mispredicts as u64), prefetches),
                "ratio",
            ),
            (
                "par.pipeline.overlap_ratio".into(),
                ratio(worker_s - wait_s, worker_s),
                "ratio",
            ),
            (
                "par.pipeline.queries_per_s_ratio".into(),
                ratio(depth2_qps, self.per_sweep(qps)),
                "ratio",
            ),
        ];
        for a in workload::ALL {
            let (q, ns) = self
                .runs()
                .filter(|r| r.approach == a)
                .fold((0, 0), |(q, ns), r| (q + r.issued.len(), ns + r.loop_ns()));
            m.push((
                format!("crawl.{}.queries_per_s", short_name(a)),
                ratio(q as f64, s(ns as f64)),
                "1/s",
            ));
        }
        m.extend([
            ("rss.world_mb".into(), mb(self.rss_world), "MB"),
            (
                "rss.after_setup_mb".into(),
                mb(self
                    .runs()
                    .filter_map(|r| r.rss_at_start)
                    .max()
                    .unwrap_or(0)),
                "MB",
            ),
            (
                "core.crawl.unattributed_s".into(),
                crawl_unattributed_s,
                "s",
            ),
            (
                "core.crawl.unattributed_ratio".into(),
                ratio(crawl_unattributed_s, loop_s),
                "ratio",
            ),
            ("setup.unattributed_s".into(), setup_unattributed_s, "s"),
            (
                "setup.unattributed_ratio".into(),
                ratio(setup_unattributed_s, setup_s),
                "ratio",
            ),
            (
                "trace.overhead_ratio".into(),
                ratio(self.wall_s(), untraced_wall_s.unwrap_or(0.0)),
                "ratio",
            ),
        ]);
        println!(
            "traced: setup_s {setup_s:.4} s ({:.1}% unattributed), crawl loop {loop_s:.4} s \
             ({:.1}% unattributed), wall_s {:.4} s vs untraced {untraced_wall_s:?}",
            100.0 * ratio(setup_unattributed_s, setup_s),
            100.0 * ratio(crawl_unattributed_s, loop_s),
            self.wall_s(),
        );
        m
    }
}

fn run(args: &Args) -> Result<(), String> {
    let w = args.workload;
    let threads = threads();
    let expected = expectations(args)?;

    let scratch = ScratchDir::create().map_err(|e| format!("scratch dir: {e}"))?;
    let t0 = Instant::now();

    // Set up several times and report the median; keep the last world.
    let mut builds = Vec::new();
    let mut build_spans = Vec::new();
    let mut world = None;
    for i in 0..WORLD_BUILDS {
        if let Some(old) = world.take() {
            drop(old);
            let _ = std::fs::remove_dir_all(scratch.path().join(format!("world-{}", i - 1)));
        }
        let start = Instant::now();
        let dir = scratch.path().join(format!("world-{i}"));
        let built = World::build(w.storage, args.seed, &dir)?;
        build_spans.push((start, Instant::now()));
        builds.push(built.build_ns as f64 / 1e9);
        world = Some(built);
    }
    let world = world.expect("WORLD_BUILDS >= 1");
    let rss_world = proc_status_bytes("VmRSS").unwrap_or(0);
    let store_after_build = world.scenario.hidden.store_report().map(|r| r.stats);

    // Measure whole sweeps until `--seconds` have passed, and at least
    // the workload's minimum number of them.
    let measure_start = Instant::now();
    let mut sweeps: Vec<Sweep> = Vec::new();
    while sweeps.len() < w.min_sweeps.max(1) || measure_start.elapsed().as_secs_f64() < args.seconds
    {
        let start = Instant::now();
        let runs =
            smartcrawl_par::with_threads(threads, || sweep(&world, &w, 1, args.seed, args.trace));
        let wall_ns = nanos(start, Instant::now());
        sweeps.push(Sweep { wall_ns, runs });
    }
    let run_end = Instant::now();
    let store_after_sweeps = world.scenario.hidden.store_report().map(|r| r.stats);
    // The pipeline layer: one more sweep at depth 2 on the same world,
    // right after the depth-1 sweeps it is compared with.
    let depth2 = (args.trace && w.storage == Storage::Ram).then(|| {
        let start = Instant::now();
        let runs = smartcrawl_par::with_threads(threads, || {
            sweep(&world, &w, PIPELINE_PROBE_DEPTH, args.seed, true)
        });
        let wall_ns = nanos(start, Instant::now());
        Sweep { wall_ns, runs }
    });

    // The correctness gate: every crawl of every sweep.
    let mut failures: Vec<String> = Vec::new();
    let (mut attempted, mut failed) = (0usize, 0usize);
    for (si, s) in sweeps.iter().chain(&depth2).enumerate() {
        for (ci, r) in s.runs.iter().enumerate() {
            let name = short_name(r.approach);
            let mut bad = r.failure.clone();
            let digest = r.digest.map(|d| format!("{d:#018x}"));
            if let Some(child) = &expected {
                let want = child.digests.get(name);
                if !child.correct {
                    bad.get_or_insert_with(|| "the untraced run failed its checks".into());
                } else if want != digest.as_ref() {
                    bad.get_or_insert_with(|| format!("digest {digest:?} != reference {want:?}"));
                }
            }
            if si > 0 && r.digest != sweeps[0].runs[ci].digest {
                bad.get_or_insert_with(|| "digest differs between sweeps".into());
            }
            attempted += r.attempted;
            if let Some(why) = bad {
                failed += r.attempted;
                failures.push(format!("sweep {si} {name}: {why}"));
            }
        }
    }

    println!(
        "perfbench: workload {} seed {} nproc {} threads {threads} depth 1 \
         |H| {} |D| {} k {} b {} sweeps {}",
        w.name,
        args.seed,
        nproc(),
        world.scenario.hidden.len(),
        world.scenario.local.len(),
        world.scenario.hidden.k(),
        workload::BUDGET,
        sweeps.len(),
    );
    println!("world builds (s): {builds:?}");
    for (tag, bytes) in world.store_files() {
        println!("store file {tag}: {bytes} bytes");
    }
    for r in &sweeps[0].runs {
        println!(
            "crawl {:<8} setup {:>8.3} s  loop {:>8.3} s  queries {:>5}  covered {:>5}",
            short_name(r.approach),
            r.setup_ns() as f64 / 1e9,
            r.loop_ns() as f64 / 1e9,
            r.issued.len(),
            r.covered
        );
    }
    for (i, s) in sweeps.iter().enumerate() {
        let steps = s.steps();
        println!(
            "sweep {i}: wall {:.4} s, step samples {}: {} beyond p50, {} beyond p99",
            s.wall_ns as f64 / 1e9,
            steps.len(),
            beyond(&steps, 0.5),
            beyond(&steps, 0.99)
        );
    }
    for f in &failures {
        println!("FAILED {f}");
    }
    for r in &sweeps[0].runs {
        println!("{}", digest_line(r));
    }

    let measured = Measured {
        world,
        world_build_s: median(&builds),
        rss_world,
        store_after_build,
        store_after_sweeps,
        sweeps,
        depth2,
        attempted,
        failed,
    };
    let metrics = if args.trace {
        for (name, value, unit) in measured.end_to_end() {
            println!("traced-run {name} = {value} {unit}");
        }
        // Standalone probes of the set-up hidden inside each entry point,
        // after the measured sweeps.
        let probes_start = Instant::now();
        let probes: Vec<SetupProbe> = smartcrawl_par::with_threads(threads, || {
            w.approaches
                .iter()
                .map(|&a| probe_setup(&measured.world, args.seed, a))
                .collect()
        });
        let mut tracer = Tracer::new(t0);
        let root = tracer.push("run", t0, run_end, None, None);
        for (start, end) in build_spans {
            tracer.push("data.world_build", start, end, Some(root), None);
        }
        for (ci, r) in measured.sweeps[0].runs.iter().enumerate() {
            tracer.push_crawl(r, ci, Some(root));
        }
        tracer.push("probes", probes_start, Instant::now(), None, None);
        println!("span self times, first sweep (s):");
        for (name, t) in tracer.self_times() {
            println!(
                "  {name:<20} count {:>7}  total {:>10.4}  self {:>10.4}",
                t.count,
                t.total_ns as f64 / 1e9,
                t.self_ns as f64 / 1e9
            );
        }
        let path =
            PathBuf::from(".bench_out").join(format!("spans-{}-seed{}.tsv", w.name, args.seed));
        tracer
            .write(&path)
            .map_err(|e| format!("write {}: {e}", path.display()))?;
        println!("spans written to {}", path.display());
        measured.layers(&probes, expected.and_then(|c| c.wall_s))
    } else {
        measured.end_to_end()
    };

    for (name, value, unit) in &metrics {
        println!("metric {name} = {value} {unit}");
    }
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            let value = if value.is_finite() { *value } else { 0.0 };
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        failures.is_empty(),
        measured.attempted.max(1),
        measured.failed,
        body.join(", ")
    );
    Ok(())
}

/// Bytes of user data in the hidden database: every field and payload
/// cell of every record, read once after the measured sweeps.
fn user_bytes(world: &World) -> u64 {
    let mut total = 0u64;
    world.scenario.hidden.for_each_retrieved(|r| {
        let cells = r.fields.iter().chain(r.payload.iter());
        total += cells.map(|c| c.len() as u64).sum::<u64>();
    });
    total
}
