//! Engine metrics: lock-free counters, a log₂ latency histogram, and
//! per-pipeline-stage timing aggregation over
//! [`upsim_core::pipeline::StepTiming`].

use std::sync::atomic::{AtomicU64, Ordering};
use upsim_core::pipeline::StepTiming;

/// The four automated pipeline stages (Steps 5–8), in execution order.
/// Indexes the per-stage timing accumulators in [`EngineMetrics`].
pub const STAGES: [&str; 4] = [
    "5-import-models",
    "6-import-mapping",
    "7-path-discovery",
    "8-generate-upsim",
];

const BUCKETS: usize = 24;

/// Power-of-two microsecond latency histogram: bucket `i` counts
/// evaluations with `latency_us in [2^(i-1), 2^i)` (bucket 0 is `< 1 µs`).
#[derive(Default)]
pub struct LatencyHistogram {
    buckets: [AtomicU64; BUCKETS],
    count: AtomicU64,
    sum_micros: AtomicU64,
}

impl LatencyHistogram {
    pub fn record(&self, micros: u64) {
        let idx = (64 - micros.leading_zeros() as usize).min(BUCKETS - 1);
        self.buckets[idx].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum_micros.fetch_add(micros, Ordering::Relaxed);
    }

    /// Upper bound (µs) of the first bucket at which the cumulative count
    /// reaches quantile `q` (0.0..=1.0). Zero when nothing was recorded.
    pub fn quantile_upper_bound(&self, q: f64) -> u64 {
        let total = self.count.load(Ordering::Relaxed);
        if total == 0 {
            return 0;
        }
        let target = ((total as f64) * q).ceil() as u64;
        let mut seen = 0;
        for (idx, bucket) in self.buckets.iter().enumerate() {
            seen += bucket.load(Ordering::Relaxed);
            if seen >= target.max(1) {
                return if idx == 0 { 1 } else { 1u64 << idx };
            }
        }
        1u64 << (BUCKETS - 1)
    }

    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    pub fn mean_micros(&self) -> f64 {
        let count = self.count.load(Ordering::Relaxed);
        if count == 0 {
            return 0.0;
        }
        self.sum_micros.load(Ordering::Relaxed) as f64 / count as f64
    }
}

/// A plain (non-atomic) accumulator over one or more [`LatencyHistogram`]s,
/// used to fold per-shard histograms into the global `STATS` rollup. The
/// quantile and mean algorithms mirror the histogram's exactly, so a
/// rollup over a single histogram reproduces its numbers bit-for-bit.
#[derive(Default)]
pub struct LatencyCounts {
    buckets: [u64; BUCKETS],
    count: u64,
    sum_micros: u64,
}

impl LatencyCounts {
    /// Adds one histogram's current contents into the accumulator.
    pub fn absorb(&mut self, hist: &LatencyHistogram) {
        for (acc, bucket) in self.buckets.iter_mut().zip(hist.buckets.iter()) {
            *acc += bucket.load(Ordering::Relaxed);
        }
        self.count += hist.count.load(Ordering::Relaxed);
        self.sum_micros += hist.sum_micros.load(Ordering::Relaxed);
    }

    pub fn count(&self) -> u64 {
        self.count
    }

    pub fn mean_micros(&self) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        self.sum_micros as f64 / self.count as f64
    }

    /// Same contract as [`LatencyHistogram::quantile_upper_bound`].
    pub fn quantile_upper_bound(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let target = ((self.count as f64) * q).ceil() as u64;
        let mut seen = 0;
        for (idx, bucket) in self.buckets.iter().enumerate() {
            seen += bucket;
            if seen >= target.max(1) {
                return if idx == 0 { 1 } else { 1u64 << idx };
            }
        }
        1u64 << (BUCKETS - 1)
    }
}

/// Connection-layer counters owned by the TCP front-end (the reactor),
/// kept separate from [`EngineMetrics`] because they describe the wire,
/// not the engine. Rendered as a suffix on the `STATS` line — appended
/// after the engine snapshot so single-connection responses stay
/// prefix-compatible with the pre-reactor server.
#[derive(Default)]
pub struct ServerMetrics {
    /// Currently open client connections (a gauge, not a counter).
    pub open_connections: AtomicU64,
    /// `accept(2)` failures (e.g. fd exhaustion) — each one also triggers
    /// a bounded accept backoff instead of a hot retry loop.
    pub accept_errors: AtomicU64,
    /// Connections shed with a one-line `ERR server busy` close because
    /// the server was at its connection cap.
    pub busy_rejections: AtomicU64,
    /// Distribution of per-connection pipeline depth, sampled as each
    /// request is parsed: how many requests that connection had
    /// outstanding at that moment (the new one included). A strictly
    /// request-reply client records a flat `1`.
    pub pipelined_depth: LatencyHistogram,
}

impl ServerMetrics {
    pub fn new() -> Self {
        Self::default()
    }

    /// The `STATS` suffix (leading space included):
    /// `open_connections= accept_errors= busy_rejections= pipelined_*`.
    pub fn render_suffix(&self) -> String {
        format!(
            " open_connections={} accept_errors={} busy_rejections={} \
             pipelined_requests={} pipelined_depth_p50<={} pipelined_depth_p99<={}",
            self.open_connections.load(Ordering::Relaxed),
            self.accept_errors.load(Ordering::Relaxed),
            self.busy_rejections.load(Ordering::Relaxed),
            self.pipelined_depth.count(),
            self.pipelined_depth.quantile_upper_bound(0.50),
            self.pipelined_depth.quantile_upper_bound(0.99),
        )
    }
}

/// Shared engine counters. All loads/stores are `Relaxed`: the numbers are
/// for observability, never for synchronization.
#[derive(Default)]
pub struct EngineMetrics {
    pub queries: AtomicU64,
    pub cache_hits: AtomicU64,
    pub cache_misses: AtomicU64,
    /// Evaluations whose result was rejected by the cache for a stale
    /// epoch (a concurrent update superseded them mid-flight). Counted
    /// separately from `cache_misses` so `hits + misses` tracks entries
    /// the cache actually admitted.
    pub stale_results: AtomicU64,
    /// Failed queries answered from the per-epoch negative cache without
    /// touching the pipeline (unknown device, deterministic model error).
    pub negative_hits: AtomicU64,
    pub batches: AtomicU64,
    /// `MC` requests served (the sampled estimate itself; the underlying
    /// perspective lookup is also counted under `queries`).
    pub mc_queries: AtomicU64,
    /// Monte-Carlo trials drawn on this shard — `MC` requests plus every
    /// sampled campaign pricing (baselines and scenarios).
    pub mc_trials_total: AtomicU64,
    /// `CAMPAIGN` requests completed against this shard.
    pub campaigns_run: AtomicU64,
    /// Scenarios evaluated across all campaigns on this shard.
    pub scenarios_evaluated: AtomicU64,
    /// Draw words campaign scenarios served from their perspective's
    /// shared baseline table instead of re-packing (CRN reuse).
    pub campaign_crn_reuse: AtomicU64,
    pub updates: AtomicU64,
    pub invalidations: AtomicU64,
    /// Transition events accepted by `OBSERVE`/`OBSERVE BATCH` on this
    /// shard (rejected non-monotone events are not counted — they leave
    /// no state behind).
    pub observations_total: AtomicU64,
    pub errors: AtomicU64,
    /// Nanoseconds pool workers spent executing this shard's jobs
    /// (requests and their claim runs' helpers) — busy time, not
    /// wall time, so `worker_busy_ns / (wall * workers)` is utilization.
    pub worker_busy_ns: AtomicU64,
    /// Pool jobs executed for this shard (every `Job` variant).
    pub tasks_executed: AtomicU64,
    /// Pool jobs this shard's campaigns ran as: each prepared campaign's
    /// own job plus the helper jobs of its claim run, re-posted ones
    /// included (vs. `scenarios_evaluated`, the per-item count). `MC` and
    /// `BATCH` helpers count only in `tasks_executed`.
    pub scatter_chunks: AtomicU64,
    pub eval_latency: LatencyHistogram,
    /// Cumulative nanoseconds per stage, indexed like [`STAGES`].
    stage_nanos: [AtomicU64; 4],
}

impl EngineMetrics {
    pub fn new() -> Self {
        Self::default()
    }

    #[inline]
    pub fn bump(counter: &AtomicU64) {
        counter.fetch_add(1, Ordering::Relaxed);
    }

    pub fn add(counter: &AtomicU64, n: u64) {
        counter.fetch_add(n, Ordering::Relaxed);
    }

    /// Folds one evaluation's step timings into the per-stage totals.
    pub fn record_timings(&self, timings: &[StepTiming]) {
        for timing in timings {
            if let Some(idx) = STAGES.iter().position(|stage| *stage == timing.step) {
                self.stage_nanos[idx]
                    .fetch_add(timing.duration.as_nanos() as u64, Ordering::Relaxed);
            }
        }
    }

    pub fn snapshot(&self, cache_len: usize, epoch: u64, workers: usize) -> MetricsSnapshot {
        let mut snapshot = EngineMetrics::rollup(std::iter::once(self), workers);
        snapshot.cache_len = cache_len;
        snapshot.epoch = epoch;
        snapshot
    }

    /// Sums counters, stage timings, and latency histograms across shards
    /// into one [`MetricsSnapshot`] — the global line of a multi-model
    /// `STATS`. Cache/epoch/persistence fields are left at their defaults
    /// for the caller to fill (they live on the shards, not here). Over a
    /// single `EngineMetrics` this is exactly [`EngineMetrics::snapshot`].
    pub fn rollup<'a>(
        parts: impl IntoIterator<Item = &'a EngineMetrics>,
        workers: usize,
    ) -> MetricsSnapshot {
        let mut queries = 0u64;
        let mut hits = 0u64;
        let mut misses = 0u64;
        let mut stale_results = 0u64;
        let mut negative_hits = 0u64;
        let mut batches = 0u64;
        let mut mc_queries = 0u64;
        let mut mc_trials_total = 0u64;
        let mut campaigns_run = 0u64;
        let mut scenarios_evaluated = 0u64;
        let mut campaign_crn_reuse = 0u64;
        let mut updates = 0u64;
        let mut invalidations = 0u64;
        let mut observations_total = 0u64;
        let mut errors = 0u64;
        let mut worker_busy_ns = 0u64;
        let mut tasks_executed = 0u64;
        let mut scatter_chunks = 0u64;
        let mut latency = LatencyCounts::default();
        let mut stage_nanos = [0u64; 4];
        for metrics in parts {
            queries += metrics.queries.load(Ordering::Relaxed);
            hits += metrics.cache_hits.load(Ordering::Relaxed);
            misses += metrics.cache_misses.load(Ordering::Relaxed);
            stale_results += metrics.stale_results.load(Ordering::Relaxed);
            negative_hits += metrics.negative_hits.load(Ordering::Relaxed);
            batches += metrics.batches.load(Ordering::Relaxed);
            mc_queries += metrics.mc_queries.load(Ordering::Relaxed);
            mc_trials_total += metrics.mc_trials_total.load(Ordering::Relaxed);
            campaigns_run += metrics.campaigns_run.load(Ordering::Relaxed);
            scenarios_evaluated += metrics.scenarios_evaluated.load(Ordering::Relaxed);
            campaign_crn_reuse += metrics.campaign_crn_reuse.load(Ordering::Relaxed);
            updates += metrics.updates.load(Ordering::Relaxed);
            invalidations += metrics.invalidations.load(Ordering::Relaxed);
            observations_total += metrics.observations_total.load(Ordering::Relaxed);
            errors += metrics.errors.load(Ordering::Relaxed);
            worker_busy_ns += metrics.worker_busy_ns.load(Ordering::Relaxed);
            tasks_executed += metrics.tasks_executed.load(Ordering::Relaxed);
            scatter_chunks += metrics.scatter_chunks.load(Ordering::Relaxed);
            latency.absorb(&metrics.eval_latency);
            for (acc, nanos) in stage_nanos.iter_mut().zip(metrics.stage_nanos.iter()) {
                *acc += nanos.load(Ordering::Relaxed);
            }
        }
        let lookups = hits + misses;
        MetricsSnapshot {
            queries,
            cache_hits: hits,
            cache_misses: misses,
            stale_results,
            negative_hits,
            hit_rate: if lookups == 0 {
                0.0
            } else {
                hits as f64 / lookups as f64
            },
            batches,
            mc_queries,
            mc_trials_total,
            campaigns_run,
            scenarios_evaluated,
            campaign_crn_reuse,
            updates,
            invalidations,
            observations_total,
            observed_components: 0,
            errors,
            worker_busy_ns,
            tasks_executed,
            scatter_chunks,
            evals: latency.count(),
            eval_mean_micros: latency.mean_micros(),
            eval_p50_micros: latency.quantile_upper_bound(0.50),
            eval_p99_micros: latency.quantile_upper_bound(0.99),
            stage_millis: std::array::from_fn(|i| stage_nanos[i] as f64 / 1.0e6),
            cache_len: 0,
            cache_capacity: 0,
            cache_evictions: 0,
            epoch: 0,
            workers,
            state_dir: None,
            journal_len: 0,
            last_save_epoch: 0,
            per_model: Vec::new(),
        }
    }
}

/// A point-in-time copy of the counters, renderable as one `STATS` line.
#[derive(Debug, Clone)]
pub struct MetricsSnapshot {
    pub queries: u64,
    pub cache_hits: u64,
    pub cache_misses: u64,
    /// Results computed against an epoch an update superseded mid-flight.
    pub stale_results: u64,
    /// Failed queries replayed from the per-epoch negative cache.
    pub negative_hits: u64,
    pub hit_rate: f64,
    pub batches: u64,
    /// Monte-Carlo (`MC`) requests served from compiled programs.
    pub mc_queries: u64,
    /// Monte-Carlo trials drawn (`MC` requests + sampled campaign pricing).
    pub mc_trials_total: u64,
    /// `CAMPAIGN` requests completed.
    pub campaigns_run: u64,
    /// Scenarios evaluated across all campaigns.
    pub scenarios_evaluated: u64,
    /// Draw words served from shared campaign baseline tables (CRN reuse).
    pub campaign_crn_reuse: u64,
    pub updates: u64,
    pub invalidations: u64,
    /// Transition events accepted by the `OBSERVE` verbs (summed over
    /// shards).
    pub observations_total: u64,
    /// Components whose MTBF/MTTR are observation-refined (at least one
    /// closed sojourn), summed over shards. Filled by the engine — it
    /// lives on the shards' parameter layers, not in the counters.
    pub observed_components: u64,
    pub errors: u64,
    /// Nanoseconds pool workers spent busy on jobs (summed over shards).
    pub worker_busy_ns: u64,
    /// Pool jobs executed (every `Job` variant, summed over shards).
    pub tasks_executed: u64,
    /// Pool jobs campaigns ran as: their own jobs plus their helpers
    /// (re-posted ones included).
    pub scatter_chunks: u64,
    pub evals: u64,
    pub eval_mean_micros: f64,
    pub eval_p50_micros: u64,
    pub eval_p99_micros: u64,
    /// Cumulative milliseconds per stage, indexed like [`STAGES`].
    pub stage_millis: [f64; 4],
    pub cache_len: usize,
    /// LRU capacity bound of the perspective cache.
    pub cache_capacity: usize,
    /// Entries evicted by the capacity bound (not invalidation sweeps).
    pub cache_evictions: u64,
    pub epoch: u64,
    pub workers: usize,
    /// Persistence directory, when the engine journals to disk.
    pub state_dir: Option<String>,
    /// Committed journal entries (`-`-free rendering: `0` when disabled).
    pub journal_len: u64,
    /// Epoch of the last published `snapshot.xml` (`0` before any save).
    pub last_save_epoch: u64,
    /// Per-model rollup rows, in registration order. Empty on a
    /// single-unnamed-model engine, where the global line already *is*
    /// the one shard and the wire format must stay byte-identical to the
    /// pre-registry `STATS`.
    pub per_model: Vec<ShardRollup>,
}

/// One model's slice of a multi-model `STATS` line.
#[derive(Debug, Clone)]
pub struct ShardRollup {
    pub model: String,
    pub epoch: u64,
    pub queries: u64,
    pub cache_len: usize,
    pub cache_capacity: usize,
    /// Entries this shard's LRU bound evicted (per-shard, not global).
    pub cache_evictions: u64,
    /// Failures this shard replayed from its negative cache.
    pub negative_hits: u64,
    /// `CAMPAIGN` requests completed against this shard.
    pub campaigns_run: u64,
    /// Scenarios evaluated across this shard's campaigns.
    pub scenarios_evaluated: u64,
    /// Transition events this shard's `OBSERVE` verbs accepted.
    pub observations_total: u64,
    /// Components with observation-refined parameters on this shard.
    pub observed_components: u64,
    pub journal_len: u64,
    pub last_save_epoch: u64,
}

impl MetricsSnapshot {
    /// Single-line `key=value` rendering used by the `STATS` response.
    pub fn render(&self) -> String {
        let mut line = format!(
            "queries={} cache_hits={} cache_misses={} stale_results={} negative_hits={} \
             hit_rate={:.3} batches={} mc_queries={} mc_trials={} campaigns={} scenarios={} \
             crn_reuse={} observations_total={} observed_components={} updates={} \
             invalidations={} errors={} evals={} \
             eval_mean_us={:.1} eval_p50_us<={} eval_p99_us<={} cache_len={} \
             cache_residency={}/{} cache_evictions={} epoch={} workers={} \
             worker_busy_ms={:.2} tasks_executed={} scatter_chunks={} state_dir={} \
             journal_len={} last_save_epoch={}",
            self.queries,
            self.cache_hits,
            self.cache_misses,
            self.stale_results,
            self.negative_hits,
            self.hit_rate,
            self.batches,
            self.mc_queries,
            self.mc_trials_total,
            self.campaigns_run,
            self.scenarios_evaluated,
            self.campaign_crn_reuse,
            self.observations_total,
            self.observed_components,
            self.updates,
            self.invalidations,
            self.errors,
            self.evals,
            self.eval_mean_micros,
            self.eval_p50_micros,
            self.eval_p99_micros,
            self.cache_len,
            self.cache_len,
            self.cache_capacity,
            self.cache_evictions,
            self.epoch,
            self.workers,
            self.worker_busy_ns as f64 / 1.0e6,
            self.tasks_executed,
            self.scatter_chunks,
            self.state_dir.as_deref().unwrap_or("-"),
            self.journal_len,
            self.last_save_epoch,
        );
        for (stage, millis) in STAGES.iter().zip(self.stage_millis.iter()) {
            line.push_str(&format!(" stage[{stage}]_ms={millis:.2}"));
        }
        for shard in &self.per_model {
            line.push_str(&format!(
                " model[{}]=epoch:{},queries:{},cache:{}/{},evictions:{},negative_hits:{},campaigns:{},scenarios:{},observations:{},observed:{},journal:{},saved:{}",
                shard.model,
                shard.epoch,
                shard.queries,
                shard.cache_len,
                shard.cache_capacity,
                shard.cache_evictions,
                shard.negative_hits,
                shard.campaigns_run,
                shard.scenarios_evaluated,
                shard.observations_total,
                shard.observed_components,
                shard.journal_len,
                shard.last_save_epoch,
            ));
        }
        line
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn histogram_buckets_and_quantiles() {
        let hist = LatencyHistogram::default();
        for micros in [1, 2, 3, 100, 1000] {
            hist.record(micros);
        }
        assert_eq!(hist.count(), 5);
        assert!(hist.mean_micros() > 0.0);
        // The median of {1,2,3,100,1000} falls in the bucket covering 3 µs.
        assert!(hist.quantile_upper_bound(0.5) <= 4);
        assert!(hist.quantile_upper_bound(1.0) >= 1000 / 2);
    }

    #[test]
    fn stage_timings_fold_by_label() {
        let metrics = EngineMetrics::new();
        metrics.record_timings(&[
            StepTiming {
                step: "5-import-models",
                duration: Duration::from_millis(2),
                cached: false,
            },
            StepTiming {
                step: "7-path-discovery",
                duration: Duration::from_millis(5),
                cached: false,
            },
            StepTiming {
                step: "5-import-models",
                duration: Duration::from_millis(1),
                cached: true,
            },
        ]);
        let snap = metrics.snapshot(0, 0, 1);
        assert!((snap.stage_millis[0] - 3.0).abs() < 1e-6);
        assert!((snap.stage_millis[2] - 5.0).abs() < 1e-6);
        assert_eq!(snap.stage_millis[1], 0.0);
    }

    #[test]
    fn snapshot_hit_rate_and_render() {
        let metrics = EngineMetrics::new();
        EngineMetrics::add(&metrics.queries, 4);
        EngineMetrics::add(&metrics.cache_hits, 3);
        EngineMetrics::bump(&metrics.cache_misses);
        let snap = metrics.snapshot(3, 7, 2);
        assert!((snap.hit_rate - 0.75).abs() < 1e-9);
        let line = snap.render();
        assert!(line.contains("hit_rate=0.750"));
        assert!(line.contains("epoch=7"));
        assert!(line.contains("stale_results=0"));
        assert!(line.contains("negative_hits=0"));
        assert!(line.contains("state_dir=- journal_len=0 last_save_epoch=0"));
        assert!(!line.contains('\n'));
    }

    #[test]
    fn cache_residency_and_evictions_render() {
        let metrics = EngineMetrics::new();
        EngineMetrics::add(&metrics.negative_hits, 2);
        let mut snap = metrics.snapshot(3, 1, 1);
        snap.cache_capacity = 8;
        snap.cache_evictions = 5;
        let line = snap.render();
        assert!(line.contains("cache_residency=3/8"));
        assert!(line.contains("cache_evictions=5"));
        assert!(line.contains("negative_hits=2"));
    }

    #[test]
    fn rollup_sums_counters_and_histograms_across_shards() {
        let a = EngineMetrics::new();
        let b = EngineMetrics::new();
        EngineMetrics::add(&a.queries, 4);
        EngineMetrics::add(&b.queries, 6);
        EngineMetrics::add(&a.cache_hits, 2);
        EngineMetrics::bump(&a.cache_misses);
        EngineMetrics::bump(&b.cache_misses);
        EngineMetrics::add(&a.negative_hits, 3);
        EngineMetrics::add(&b.negative_hits, 5);
        EngineMetrics::add(&a.worker_busy_ns, 1_500_000);
        EngineMetrics::add(&b.worker_busy_ns, 2_500_000);
        EngineMetrics::add(&a.tasks_executed, 7);
        EngineMetrics::add(&b.tasks_executed, 9);
        EngineMetrics::add(&a.scatter_chunks, 2);
        EngineMetrics::add(&b.scatter_chunks, 4);
        a.eval_latency.record(10);
        b.eval_latency.record(30);
        let rolled = EngineMetrics::rollup([&a, &b], 2);
        assert_eq!(rolled.queries, 10);
        assert_eq!(rolled.negative_hits, 8);
        assert_eq!(rolled.worker_busy_ns, 4_000_000);
        assert_eq!(rolled.tasks_executed, 16);
        assert_eq!(rolled.scatter_chunks, 6);
        assert_eq!(rolled.evals, 2);
        let line = rolled.render();
        assert!(line.contains("worker_busy_ms=4.00"), "line: {line}");
        assert!(
            line.contains("tasks_executed=16 scatter_chunks=6"),
            "line: {line}"
        );
        assert!((rolled.eval_mean_micros - 20.0).abs() < 1e-9);
        // hit_rate over the summed lookups: 2 hits / 4 lookups.
        assert!((rolled.hit_rate - 0.5).abs() < 1e-9);
        // Over a single shard the rollup is exactly that shard's snapshot.
        let solo = a.snapshot(0, 0, 2);
        let via_rollup = EngineMetrics::rollup([&a], 2);
        assert_eq!(solo.render(), {
            let mut s = via_rollup;
            s.cache_len = 0;
            s.epoch = 0;
            s.render()
        });
    }

    #[test]
    fn campaign_counters_roll_up_and_render() {
        let a = EngineMetrics::new();
        let b = EngineMetrics::new();
        EngineMetrics::bump(&a.campaigns_run);
        EngineMetrics::add(&a.scenarios_evaluated, 358);
        EngineMetrics::add(&b.campaigns_run, 2);
        EngineMetrics::add(&b.scenarios_evaluated, 90);
        EngineMetrics::add(&a.mc_trials_total, 1_000_000);
        EngineMetrics::add(&b.mc_trials_total, 500_000);
        EngineMetrics::add(&a.campaign_crn_reuse, 4096);
        EngineMetrics::add(&b.campaign_crn_reuse, 1024);
        EngineMetrics::add(&a.observations_total, 40);
        EngineMetrics::add(&b.observations_total, 2);
        let rolled = EngineMetrics::rollup([&a, &b], 2);
        assert_eq!(rolled.campaigns_run, 3);
        assert_eq!(rolled.scenarios_evaluated, 448);
        assert_eq!(rolled.mc_trials_total, 1_500_000);
        assert_eq!(rolled.campaign_crn_reuse, 5120);
        // Observation counters roll up as plain sums too; the refined
        // component count is the engine's to fill (it lives on the shards'
        // parameter layers, not in the atomic counters).
        assert_eq!(rolled.observations_total, 42);
        assert_eq!(rolled.observed_components, 0);
        let line = rolled.render();
        assert!(line.contains("mc_trials=1500000"), "line: {line}");
        assert!(line.contains("campaigns=3 scenarios=448"), "line: {line}");
        assert!(line.contains("crn_reuse=5120"), "line: {line}");
        assert!(
            line.contains("observations_total=42 observed_components=0"),
            "line: {line}"
        );
    }

    #[test]
    fn per_model_rows_render_after_the_global_line() {
        let metrics = EngineMetrics::new();
        let mut snap = metrics.snapshot(0, 0, 1);
        assert!(!snap.render().contains("model["), "empty rows add nothing");
        snap.per_model.push(ShardRollup {
            model: "campus".into(),
            epoch: 3,
            queries: 7,
            cache_len: 2,
            cache_capacity: 8,
            cache_evictions: 1,
            negative_hits: 4,
            campaigns_run: 2,
            scenarios_evaluated: 450,
            observations_total: 12,
            observed_components: 3,
            journal_len: 3,
            last_save_epoch: 2,
        });
        let line = snap.render();
        assert!(line.contains(
            "model[campus]=epoch:3,queries:7,cache:2/8,evictions:1,negative_hits:4,campaigns:2,scenarios:450,observations:12,observed:3,journal:3,saved:2"
        ));
        assert!(!line.contains('\n'));
    }

    #[test]
    fn persistence_fields_render_when_set() {
        let metrics = EngineMetrics::new();
        let mut snap = metrics.snapshot(0, 3, 1);
        snap.state_dir = Some("/var/lib/upsim".into());
        snap.journal_len = 12;
        snap.last_save_epoch = 2;
        let line = snap.render();
        assert!(line.contains("state_dir=/var/lib/upsim journal_len=12 last_save_epoch=2"));
    }
}
