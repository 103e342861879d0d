//! [`RunOptions`]: the consolidated knob struct for simulation entry points.

use std::path::PathBuf;

use dcf_obs::MetricsRegistry;

/// Execution options for [`crate::simulate`] / [`crate::Scenario::simulate`]
/// and [`crate::simulate_sharded`].
///
/// One struct gathers every run-time knob that is *not* part of the
/// simulated world: the metrics registry, the engine worker-thread count,
/// and the sharding knobs (shard count, shard worker pool, spill dir).
/// None of the fields affect the generated trace — a run is a pure
/// function of `(SimConfig, seed)`.
///
/// Every run is a [`crate::ShardPlan`]. One shard (the default) merges
/// the per-thread chunks in memory and writes no spill file; with
/// [`RunOptions::shards`] ≥ 2 the fleet is split into contiguous server
/// ranges, each spilled to disk and k-way merged (SCALING.md), which
/// bounds memory. The result is byte-identical either way.
///
/// # Examples
///
/// ```
/// use dcf_obs::MetricsRegistry;
/// use dcf_sim::{RunOptions, Scenario};
///
/// // The default is uninstrumented, one shard, auto thread count.
/// let trace = Scenario::small().seed(3).simulate(&RunOptions::default()).unwrap();
///
/// // Instrumented run on two engine workers: byte-identical trace.
/// let metrics = MetricsRegistry::new();
/// let options = RunOptions::new().metrics(&metrics).threads(2);
/// let same = Scenario::small().seed(3).simulate(&options).unwrap();
/// assert_eq!(trace.fots(), same.fots());
///
/// // Sharded execution is a pure strategy: still byte-identical.
/// let sharded = Scenario::small()
///     .seed(3)
///     .simulate(&RunOptions::new().shards(4))
///     .unwrap();
/// assert_eq!(trace.fots(), sharded.fots());
/// ```
#[derive(Debug, Clone, Default)]
pub struct RunOptions {
    /// Metrics sink for phase timings and event counters. The default
    /// (disabled) registry records nothing at near-zero cost. Counters
    /// never consume RNG draws, so instrumented and plain runs produce
    /// bit-identical traces.
    pub metrics: MetricsRegistry,
    /// Worker threads for the per-server engine phase: `0` (the default)
    /// means auto-detect, other values are clamped to `[1, 16]`. A
    /// multi-shard run splits them across its shard workers. The trace is
    /// byte-identical at any value.
    pub threads: usize,
    /// Shard count. `0` or `1` (the default) runs one shard, merged in
    /// memory with no spill; ≥ 2 partitions the fleet into contiguous
    /// server-id ranges, spills each shard to disk, and k-way merges
    /// ([`crate::ShardPlan`]). Clamped to the fleet size. The trace is
    /// byte-identical at any shard count.
    pub shards: u32,
    /// Worker threads simulating shards concurrently (multi-shard runs
    /// only). `0` resolves to the machine's available parallelism (capped
    /// at 16); any value is clamped to the shard count. Peak memory grows
    /// by one in-flight shard's tickets per extra worker; the digest never
    /// moves.
    pub shard_workers: u32,
    /// Directory for the per-shard spill files (multi-shard runs only).
    /// `None` uses a run-unique directory under the system temp dir. The
    /// run removes every spill it wrote when it ends.
    pub spill_dir: Option<PathBuf>,
}

impl RunOptions {
    /// Default options: no instrumentation, one shard, auto thread count.
    pub fn new() -> Self {
        Self::default()
    }

    /// Attaches a metrics registry (cloned; clones share the same state).
    pub fn metrics(mut self, metrics: &MetricsRegistry) -> Self {
        self.metrics = metrics.clone();
        self
    }

    /// Sets the engine worker-thread count (`0` = auto-detect).
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Sets the shard count (`0`/`1` = one shard, no spill).
    pub fn shards(mut self, shards: u32) -> Self {
        self.shards = shards;
        self
    }

    /// Sets the shard-worker pool size (`0` = auto).
    pub fn shard_workers(mut self, workers: u32) -> Self {
        self.shard_workers = workers;
        self
    }

    /// Sets the spill directory for multi-shard runs.
    pub fn spill_dir(mut self, dir: impl Into<PathBuf>) -> Self {
        self.spill_dir = Some(dir.into());
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_uninstrumented_one_shard_auto_threads() {
        let options = RunOptions::default();
        assert!(!options.metrics.is_enabled());
        assert_eq!(options.threads, 0);
        assert_eq!(options.shards, 0);
        assert_eq!(options.spill_dir, None);
    }

    #[test]
    fn builders_set_fields() {
        let metrics = MetricsRegistry::new();
        let options = RunOptions::new()
            .metrics(&metrics)
            .threads(4)
            .shards(8)
            .shard_workers(2)
            .spill_dir("/tmp/spills");
        assert!(options.metrics.is_enabled());
        assert_eq!(options.threads, 4);
        assert_eq!(options.shards, 8);
        assert_eq!(options.shard_workers, 2);
        assert_eq!(
            options.spill_dir.as_deref(),
            Some(std::path::Path::new("/tmp/spills"))
        );
    }
}
