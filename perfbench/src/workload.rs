//! The workloads and the paper-scale parameters they share.
//!
//! Every workload crawls the paper's Table 3 default world at scale 1
//! (|H| = 100 000, |D| = 10 000, k = 100, b = 2 000, θ = 0.5%, exact
//! matching). They differ in where the hidden database lives, so each one
//! exercises a layer the other holds still (README.md has the table of
//! which metric each workload should move).

use smartcrawl_bench::harness::Approach;
use smartcrawl_data::ScenarioConfig;

/// Query budget `b` of every crawl.
pub const BUDGET: usize = 2_000;
/// SmartCrawl's sampling ratio θ (Table 3 default).
pub const THETA: f64 = 0.005;
/// FullCrawl's own sampling ratio (paper Appendix C).
pub const FULL_THETA: f64 = 0.01;
/// Page-cache budget of the out-of-core hidden store: 512 pages × 4 KiB =
/// 2 MiB. At the store's ½ / ¼ / 1⁄16 split every store file at scale 1 is
/// larger than its share, so no partition fits in cache.
pub const OOC_CACHE_PAGES: usize = 512;
/// Upper bound of the thread budget (the driver plus one prefetch worker
/// at depth 2); capped further by the host's available parallelism.
pub const MAX_THREADS: usize = 2;
/// Pipeline depth of the extra sweep in a RAM workload's traced run: the
/// driver plus one prefetch worker. A depth-2 workload of its own varied
/// too much from run to run on a shared 2-core host to carry end-to-end
/// bounds, so the pipeline is measured next to its depth-1 sweep instead.
pub const PIPELINE_PROBE_DEPTH: usize = 2;
/// World builds per run; the run reports their median build time.
pub const WORLD_BUILDS: usize = 3;

/// Every approach, in sweep order.
pub const ALL: [Approach; 7] = [
    Approach::Ideal,
    Approach::SmartB,
    Approach::SmartU,
    Approach::Simple,
    Approach::Bound,
    Approach::Naive,
    Approach::Full,
];

/// The non-oracle approaches: IdealCrawl's oracle selection would be most
/// of an out-of-core sweep, and no user can run it against a real site.
pub const NON_ORACLE: [Approach; 6] = [
    Approach::SmartB,
    Approach::SmartU,
    Approach::Simple,
    Approach::Bound,
    Approach::Naive,
    Approach::Full,
];

/// Where the hidden database lives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Storage {
    /// Fully in RAM (`Scenario::build`).
    Ram,
    /// Streamed into the disk-backed store with an
    /// [`OOC_CACHE_PAGES`]-page cache (`Scenario::build_with_store`).
    Disk,
}

/// One benchmark workload.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    /// Name given on the command line.
    pub name: &'static str,
    /// Approaches crawled one after another, in this order.
    pub approaches: &'static [Approach],
    /// Hidden-database storage.
    pub storage: Storage,
    /// Least number of measured sweeps per run, so the run's medians rest
    /// on several sweeps where sweep-to-sweep noise is high.
    pub min_sweeps: usize,
}

impl Workload {
    /// Whether the run must fetch reference digests from a `ram-sweep`
    /// child process for the same seed: every workload except `ram-sweep`
    /// itself is gated on reproducing its crawls byte for byte.
    pub fn needs_reference(&self) -> bool {
        self.name != RAM_SWEEP.name
    }
}

/// All seven approaches, H in RAM, sequential driver.
pub const RAM_SWEEP: Workload = Workload {
    name: "ram-sweep",
    approaches: &ALL,
    storage: Storage::Ram,
    min_sweeps: 2,
};

/// The six non-oracle approaches against the out-of-core hidden store.
pub const OOC_SWEEP: Workload = Workload {
    name: "ooc-sweep",
    approaches: &NON_ORACLE,
    storage: Storage::Disk,
    min_sweeps: 1,
};

/// Every workload, in the order the README lists them.
pub const WORKLOADS: [Workload; 2] = [RAM_SWEEP, OOC_SWEEP];

/// Looks a workload up by name.
pub fn by_name(name: &str) -> Option<Workload> {
    WORKLOADS.iter().copied().find(|w| w.name == name)
}

/// Short metric-name form of an approach (`crawl.<short>.…`).
pub fn short_name(a: Approach) -> &'static str {
    match a {
        Approach::Ideal => "ideal",
        Approach::SmartB => "smart-b",
        Approach::SmartU => "smart-u",
        Approach::Simple => "simple",
        Approach::Bound => "bound",
        Approach::Naive => "naive",
        Approach::Full => "full",
    }
}

/// Inverse of [`short_name`].
pub fn approach_by_short_name(name: &str) -> Option<Approach> {
    ALL.iter().copied().find(|&a| short_name(a) == name)
}

/// SplitMix64 finalizer: derives independent seeds from the benchmark's
/// `--seed` so the world and the crawlers' sampling never share a stream.
fn mix(seed: u64, lane: u64) -> u64 {
    let mut z = seed
        .wrapping_add(lane.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The world generator's configuration for `seed`.
pub fn world_config(seed: u64) -> ScenarioConfig {
    let mut cfg = ScenarioConfig::paper_default();
    cfg.seed = mix(seed, 1);
    cfg
}

/// The crawlers' seed (sampling and NaiveCrawl's order) for `seed`.
pub fn crawl_seed(seed: u64) -> u64 {
    mix(seed, 2)
}
