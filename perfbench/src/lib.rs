//! End-to-end and per-layer benchmark of the SmartCrawl crawl sweep.
//!
//! The benchmark times the program only from outside, through its public
//! entry points and the counters its reports already expose; README.md
//! lists the workloads, the metrics and which layer should move which
//! end-to-end number.

pub mod adapters;
pub mod crawl;
pub mod stats;
pub mod sweep;
pub mod trace;
pub mod workload;
