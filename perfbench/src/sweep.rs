//! World builds, the crawl sweep, and the standalone set-up probes.

use crate::crawl::{draw_sample, run_crawl, samples, strategy, CrawlRun};
use crate::stats::now;
use crate::workload::{
    crawl_seed, world_config, Storage, Workload, BUDGET, FULL_THETA, OOC_CACHE_PAGES, THETA,
};
use smartcrawl_bench::harness::{Approach, RunSpec};
use smartcrawl_core::{probe_engine_setup, LocalDb, QueryPool, SampleIndex, TextContext};
use smartcrawl_data::Scenario;
use smartcrawl_store::{StoreConfig, StoreRuntime};
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// A built world: the scenario, plus its store runtime when out of core.
pub struct World {
    /// The generated scenario (local table, hidden database, truth).
    pub scenario: Scenario,
    /// The disk-backed store holding the hidden database, if any.
    pub runtime: Option<Arc<StoreRuntime>>,
    /// Wall time of the build, nanoseconds.
    pub build_ns: u64,
}

impl World {
    /// Builds the world for `seed`, streaming H into a fresh store under
    /// `store_dir` when `storage` is [`Storage::Disk`].
    pub fn build(storage: Storage, seed: u64, store_dir: &Path) -> Result<Self, String> {
        let cfg = world_config(seed);
        let t0 = now();
        let (scenario, runtime) = match storage {
            Storage::Ram => (Scenario::build(cfg), None),
            Storage::Disk => {
                let runtime = StoreRuntime::create(StoreConfig {
                    cache_pages: OOC_CACHE_PAGES,
                    dir: Some(store_dir.to_path_buf()),
                    ..Default::default()
                })
                .map_err(|e| format!("create store runtime: {e}"))?;
                let scenario = Scenario::build_with_store(cfg, Arc::clone(&runtime))
                    .map_err(|e| format!("stream world into the store: {e}"))?;
                (scenario, Some(runtime))
            }
        };
        let build_ns = t0.elapsed().as_nanos() as u64;
        Ok(Self {
            scenario,
            runtime,
            build_ns,
        })
    }

    /// Sizes of the store's files, summed by tag (`hidden-records`, …).
    pub fn store_files(&self) -> Vec<(String, u64)> {
        let Some(rt) = &self.runtime else {
            return Vec::new();
        };
        let mut files: Vec<(String, u64)> = Vec::new();
        for entry in std::fs::read_dir(rt.dir()).into_iter().flatten().flatten() {
            let name = entry.file_name().to_string_lossy().into_owned();
            let tag = name
                .rsplit_once('-')
                .map_or(name.as_str(), |(tag, _)| tag)
                .to_string();
            let len = entry.metadata().map(|m| m.len()).unwrap_or(0);
            match files.iter_mut().find(|(t, _)| *t == tag) {
                Some((_, total)) => *total += len,
                None => files.push((tag, len)),
            }
        }
        files.sort();
        files
    }
}

/// The harness spec of one crawl at pipeline `depth` for benchmark seed
/// `seed`.
pub fn spec(approach: Approach, depth: usize, seed: u64) -> RunSpec {
    let mut spec = RunSpec::new(approach, BUDGET);
    spec.theta = THETA;
    spec.full_theta = FULL_THETA;
    spec.seed = crawl_seed(seed);
    spec.pipeline_depth = depth;
    spec
}

/// Crawls every approach of `workload` one after another at pipeline
/// `depth` (1 = sequential).
pub fn sweep(
    world: &World,
    workload: &Workload,
    depth: usize,
    seed: u64,
    traced: bool,
) -> Vec<CrawlRun> {
    workload
        .approaches
        .iter()
        .map(|&a| run_crawl(&world.scenario, &spec(a, depth, seed), traced))
        .collect()
}

/// Standalone timings of the set-up work hidden inside one crawl's entry
/// point, each measured by calling the public constructor directly.
#[derive(Debug, Clone, Copy, Default)]
pub struct SetupProbe {
    /// `QueryPool::generate`, nanoseconds (0 for pool-free approaches).
    pub pool_ns: u64,
    /// Queries in the generated pool.
    pub pool_queries: usize,
    /// `SampleIndex::build`, nanoseconds (0 without a sample).
    pub sample_index_ns: u64,
    /// Engine initialisation through `probe_engine_setup`, nanoseconds
    /// (0 for approaches it cannot probe: IdealCrawl's oracle engine and
    /// the pool-free baselines).
    pub engine_init_ns: u64,
}

/// Probes the set-up of `approach`'s entry point on `world`.
pub fn probe_setup(world: &World, seed: u64, approach: Approach) -> SetupProbe {
    let spec = spec(approach, 1, seed);
    let mut probe = SetupProbe::default();
    if matches!(approach, Approach::Naive | Approach::Full) {
        return probe;
    }
    let mut ctx = TextContext::new();
    let local = LocalDb::build(world.scenario.local.clone(), &mut ctx);
    let t = now();
    let pool = QueryPool::generate(&local, &spec.pool);
    probe.pool_ns = t.elapsed().as_nanos() as u64;
    probe.pool_queries = pool.len();
    let Some(strategy) = strategy(&spec) else {
        return probe;
    };
    let sample_index = if samples(approach) {
        let sample = draw_sample(&world.scenario, &spec);
        let t = now();
        let index = SampleIndex::build(&sample, &mut ctx);
        probe.sample_index_ns = t.elapsed().as_nanos() as u64;
        index
    } else {
        SampleIndex::empty()
    };
    let t = now();
    let setup = probe_engine_setup(
        &local,
        &sample_index,
        pool,
        strategy,
        spec.matcher,
        world.scenario.hidden.k(),
        spec.omega,
        ctx,
    );
    probe.engine_init_ns = t.elapsed().as_nanos() as u64;
    std::hint::black_box(setup);
    probe
}

/// A scratch directory inside the working directory, removed on drop.
pub struct ScratchDir(PathBuf);

impl ScratchDir {
    /// Creates `.perfbench-tmp/<pid>` under the working directory.
    pub fn create() -> std::io::Result<Self> {
        let dir = PathBuf::from(".perfbench-tmp").join(std::process::id().to_string());
        std::fs::create_dir_all(&dir)?;
        Ok(Self(dir))
    }

    /// The directory.
    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        // Leave the parent only if another run still uses it.
        if let Some(parent) = self.0.parent() {
            let _ = std::fs::remove_dir(parent);
        }
    }
}
