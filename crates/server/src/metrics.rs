//! Engine metrics: one table of lock-free counters ([`Counter`]), a log₂
//! latency histogram, and per-pipeline-stage timing over
//! [`upsim_core::pipeline::StepTiming`]. Each shard loads its
//! [`EngineMetrics`] into a [`MetricsSnapshot`], and the `STATS` line is
//! the [`MetricsSnapshot::merge`] of those snapshots, so a counter is
//! declared once, in [`Counter`], and named again only where it is
//! bumped, rendered or asserted.

use std::ops::Index;
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

/// The engine's counters: one relaxed atomic each per shard, summed
/// across shards into `STATS`. The discriminant indexes the arrays of
/// [`EngineMetrics`] and [`MetricsSnapshot`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Counter {
    /// Perspective lookups: each `QUERY`, each `BATCH` pair, each `MC`.
    Queries,
    CacheHits,
    CacheMisses,
    /// Evaluations whose result the cache rejected for a stale epoch (a
    /// concurrent update superseded them mid-flight). Counted apart from
    /// `CacheMisses`, so hits plus misses track entries the cache admitted.
    StaleResults,
    /// Failed queries answered from the negative cache, which holds a
    /// refusal until the topology or the service changes, without touching
    /// the pipeline (unknown device, deterministic model error).
    NegativeHits,
    Batches,
    /// `MC` requests served (their perspective lookup also counts under
    /// `Queries`).
    McQueries,
    /// Monte-Carlo trials drawn: `MC` requests plus every sampled campaign
    /// pricing (baselines and scenarios).
    McTrials,
    /// `CAMPAIGN` requests completed.
    CampaignsRun,
    /// Scenarios evaluated across all campaigns.
    ScenariosEvaluated,
    /// Draw words campaign scenarios served from their perspective's
    /// shared baseline table instead of re-packing (CRN reuse).
    CampaignCrnReuse,
    Updates,
    Invalidations,
    /// Transition events `OBSERVE`/`OBSERVE BATCH` accepted (a rejected
    /// non-monotone event leaves no state behind and is not counted).
    ObservationsTotal,
    Errors,
    /// Nanoseconds pool workers spent executing the shard's jobs (requests
    /// and their claim runs' helpers): busy time, not wall time, so
    /// `worker_busy_ns / (wall * workers)` is utilization.
    WorkerBusyNs,
    /// Pool jobs executed (every `Job` variant).
    TasksExecuted,
    /// Pool jobs campaigns ran as: each prepared campaign's own job plus
    /// the helper jobs of its claim run, re-posted ones included (against
    /// `ScenariosEvaluated`, the per-item count). `MC` and `BATCH` helpers
    /// count only in `TasksExecuted`.
    ScatterChunks,
}

impl Counter {
    /// How many counters there are. `ScatterChunks` must stay the last
    /// variant.
    pub const COUNT: usize = Counter::ScatterChunks as usize + 1;
}

fn load(value: &AtomicU64) -> u64 {
    value.load(Ordering::Relaxed)
}

/// Power-of-two microsecond latency histogram: bucket `i` counts
/// latencies in `[2^(i-1), 2^i)` µs (bucket 0 is `< 1 µs`). It only
/// records; [`LatencyHistogram::snapshot`] hands its contents to
/// [`LatencyCounts`] for reading.
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

    pub fn snapshot(&self) -> LatencyCounts {
        // The count first: `record` bumps a bucket before the count, so
        // buckets loaded afterwards cover at least `count` samples.
        let count = load(&self.count);
        LatencyCounts {
            buckets: self.buckets.each_ref().map(load),
            count,
            sum_micros: load(&self.sum_micros),
        }
    }
}

/// The contents of one [`LatencyHistogram`], or of several summed with
/// [`LatencyCounts::merge`]: where every quantile and mean is computed.
#[derive(Debug, Clone, Default)]
pub struct LatencyCounts {
    buckets: [u64; BUCKETS],
    count: u64,
    sum_micros: u64,
}

impl LatencyCounts {
    pub fn merge(&mut self, other: &LatencyCounts) {
        for (acc, n) in self.buckets.iter_mut().zip(other.buckets) {
            *acc += n;
        }
        self.count += other.count;
        self.sum_micros += other.sum_micros;
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

    /// Upper bound (µs) of the first bucket at which the cumulative count
    /// reaches quantile `q` (0.0..=1.0). Zero when nothing was recorded.
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
        let depth = self.pipelined_depth.snapshot();
        format!(
            " open_connections={} accept_errors={} busy_rejections={} \
             pipelined_requests={} pipelined_depth_p50<={} pipelined_depth_p99<={}",
            load(&self.open_connections),
            load(&self.accept_errors),
            load(&self.busy_rejections),
            depth.count(),
            depth.quantile_upper_bound(0.50),
            depth.quantile_upper_bound(0.99),
        )
    }
}

/// One shard's counters, evaluation latencies and stage totals. All
/// loads and stores are `Relaxed`: the numbers are for observability,
/// never for synchronization.
#[derive(Default)]
pub struct EngineMetrics {
    counters: [AtomicU64; Counter::COUNT],
    pub eval_latency: LatencyHistogram,
    /// Cumulative nanoseconds per stage, indexed like [`STAGES`].
    stage_nanos: [AtomicU64; 4],
}

impl EngineMetrics {
    #[inline]
    pub fn bump(&self, counter: Counter) {
        self.add(counter, 1);
    }

    #[inline]
    pub fn add(&self, counter: Counter, n: u64) {
        self.counters[counter as usize].fetch_add(n, Ordering::Relaxed);
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

    /// The counters, latencies and stage totals as they stand; the caller
    /// fills the gauges.
    pub fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            counters: self.counters.each_ref().map(load),
            eval_latency: self.eval_latency.snapshot(),
            stage_nanos: self.stage_nanos.each_ref().map(load),
            ..MetricsSnapshot::default()
        }
    }
}

/// A point-in-time copy of one shard's metrics, or of several merged,
/// renderable as one `STATS` line. Index it by [`Counter`] to read a
/// counter.
#[derive(Debug, Clone, Default)]
pub struct MetricsSnapshot {
    /// The counters, indexed by [`Counter`].
    pub counters: [u64; Counter::COUNT],
    pub eval_latency: LatencyCounts,
    /// Cumulative nanoseconds per stage, indexed like [`STAGES`].
    pub stage_nanos: [u64; 4],
    /// Components whose MTBF/MTTR are observation-refined (at least one
    /// closed sojourn). It lives on a shard's parameter layer, not in the
    /// counters.
    pub observed_components: u64,
    pub cache_len: usize,
    /// LRU capacity bound of the perspective cache.
    pub cache_capacity: usize,
    /// Entries evicted by the capacity bound (not invalidation sweeps).
    pub cache_evictions: u64,
    pub epoch: u64,
    /// Committed journal entries (`0` when persistence is off).
    pub journal_len: u64,
    /// Epoch of the last published `snapshot.xml` (`0` before any save).
    pub last_save_epoch: u64,
    /// Worker threads; set on the engine-wide snapshot.
    pub workers: usize,
    /// Persistence directory, when the engine journals to disk.
    pub state_dir: Option<String>,
    /// Per-model rows, in registration order. Empty on a
    /// single-unnamed-model engine, where the global line already *is*
    /// the one shard and the wire format must stay byte-identical to the
    /// pre-registry `STATS`.
    pub per_model: Vec<ModelInfo>,
}

/// One registered model: its name and its shard's snapshot. A row of
/// `MODELS` and of a multi-model `STATS`.
#[derive(Debug, Clone)]
pub struct ModelInfo {
    pub name: String,
    pub stats: MetricsSnapshot,
}

impl Index<Counter> for MetricsSnapshot {
    type Output = u64;

    fn index(&self, counter: Counter) -> &u64 {
        &self.counters[counter as usize]
    }
}

impl MetricsSnapshot {
    /// Adds `other` into `self`: counters, latencies, stage totals and
    /// sizes sum, and each epoch keeps the later of the two. The
    /// engine-wide fields (`workers`, `state_dir`, `per_model`) stay.
    pub fn merge(&mut self, other: &MetricsSnapshot) {
        for (acc, n) in self.counters.iter_mut().zip(other.counters) {
            *acc += n;
        }
        self.eval_latency.merge(&other.eval_latency);
        for (acc, n) in self.stage_nanos.iter_mut().zip(other.stage_nanos) {
            *acc += n;
        }
        self.observed_components += other.observed_components;
        self.cache_len += other.cache_len;
        self.cache_capacity += other.cache_capacity;
        self.cache_evictions += other.cache_evictions;
        self.journal_len += other.journal_len;
        self.epoch = self.epoch.max(other.epoch);
        self.last_save_epoch = self.last_save_epoch.max(other.last_save_epoch);
    }

    /// Cache hits over hits plus misses; `0` before the first lookup.
    pub fn hit_rate(&self) -> f64 {
        let hits = self[Counter::CacheHits];
        let lookups = hits + self[Counter::CacheMisses];
        if lookups == 0 {
            0.0
        } else {
            hits as f64 / lookups as f64
        }
    }

    /// Single-line `key=value` rendering used by the `STATS` response.
    pub fn render(&self) -> String {
        use Counter::*;
        let latency = &self.eval_latency;
        let mut line = format!(
            "queries={} cache_hits={} cache_misses={} stale_results={} negative_hits={} \
             hit_rate={:.3} batches={} mc_queries={} mc_trials={} campaigns={} scenarios={} \
             crn_reuse={} observations_total={} observed_components={} updates={} \
             invalidations={} errors={} evals={} \
             eval_mean_us={:.1} eval_p50_us<={} eval_p99_us<={} cache_len={} \
             cache_residency={}/{} cache_evictions={} epoch={} workers={} \
             worker_busy_ms={:.2} tasks_executed={} scatter_chunks={} state_dir={} \
             journal_len={} last_save_epoch={}",
            self[Queries],
            self[CacheHits],
            self[CacheMisses],
            self[StaleResults],
            self[NegativeHits],
            self.hit_rate(),
            self[Batches],
            self[McQueries],
            self[McTrials],
            self[CampaignsRun],
            self[ScenariosEvaluated],
            self[CampaignCrnReuse],
            self[ObservationsTotal],
            self.observed_components,
            self[Updates],
            self[Invalidations],
            self[Errors],
            latency.count(),
            latency.mean_micros(),
            latency.quantile_upper_bound(0.50),
            latency.quantile_upper_bound(0.99),
            self.cache_len,
            self.cache_len,
            self.cache_capacity,
            self.cache_evictions,
            self.epoch,
            self.workers,
            self[WorkerBusyNs] as f64 / 1.0e6,
            self[TasksExecuted],
            self[ScatterChunks],
            self.state_dir.as_deref().unwrap_or("-"),
            self.journal_len,
            self.last_save_epoch,
        );
        for (stage, nanos) in STAGES.iter().zip(self.stage_nanos) {
            line.push_str(&format!(" stage[{stage}]_ms={:.2}", nanos as f64 / 1.0e6));
        }
        for ModelInfo { name, stats } in &self.per_model {
            line.push_str(&format!(
                " model[{name}]=epoch:{},queries:{},cache:{}/{},evictions:{},negative_hits:{},campaigns:{},scenarios:{},observations:{},observed:{},journal:{},saved:{}",
                stats.epoch,
                stats[Queries],
                stats.cache_len,
                stats.cache_capacity,
                stats.cache_evictions,
                stats[NegativeHits],
                stats[CampaignsRun],
                stats[ScenariosEvaluated],
                stats[ObservationsTotal],
                stats.observed_components,
                stats.journal_len,
                stats.last_save_epoch,
            ));
        }
        line
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    /// The `STATS` line [`full_snapshot`] renders. Clients parse it by
    /// key, so it is fixed byte for byte.
    const FULL_LINE: &str = "queries=100 cache_hits=107 cache_misses=114 stale_results=121 \
        negative_hits=128 hit_rate=0.484 batches=135 mc_queries=142 mc_trials=149 campaigns=156 \
        scenarios=163 crn_reuse=170 observations_total=191 observed_components=5 updates=177 \
        invalidations=184 errors=198 evals=4 eval_mean_us=240.0 eval_p50_us<=32 \
        eval_p99_us<=1024 cache_len=11 cache_residency=11/64 cache_evictions=13 epoch=17 \
        workers=3 worker_busy_ms=12.35 tasks_executed=212 scatter_chunks=219 \
        state_dir=/var/lib/upsim journal_len=19 last_save_epoch=15 \
        stage[5-import-models]_ms=2.50 stage[6-import-mapping]_ms=0.75 \
        stage[7-path-discovery]_ms=1.23 stage[8-generate-upsim]_ms=0.57";

    /// The two per-model rows [`FULL_LINE`] gains, fixed the same way.
    const MODEL_ROWS: &str = " model[usi]=epoch:4,queries:21,cache:3/32,evictions:2,\
        negative_hits:6,campaigns:1,scenarios:37,observations:8,observed:2,journal:4,saved:3 \
        model[campus]=epoch:9,queries:55,cache:12/48,evictions:7,negative_hits:10,campaigns:2,\
        scenarios:90,observations:14,observed:5,journal:9,saved:8";

    fn timing(step: &'static str, micros: u64) -> StepTiming {
        StepTiming {
            step,
            duration: Duration::from_micros(micros),
            cached: false,
        }
    }

    /// A distinct value in every counter, gauge and stage, and latencies
    /// in four buckets.
    fn full_snapshot() -> MetricsSnapshot {
        let metrics = EngineMetrics::default();
        for micros in [3, 40, 900, 17] {
            metrics.eval_latency.record(micros);
        }
        metrics.record_timings(&[
            timing("5-import-models", 2_500),
            timing("6-import-mapping", 750),
            timing("7-path-discovery", 1_234),
            timing("8-generate-upsim", 567),
        ]);
        let mut snap = metrics.snapshot();
        for (i, count) in snap.counters.iter_mut().enumerate() {
            *count = 100 + 7 * i as u64;
        }
        snap.counters[Counter::WorkerBusyNs as usize] = 12_345_678;
        MetricsSnapshot {
            observed_components: 5,
            cache_len: 11,
            cache_capacity: 64,
            cache_evictions: 13,
            epoch: 17,
            journal_len: 19,
            last_save_epoch: 15,
            workers: 3,
            state_dir: Some("/var/lib/upsim".into()),
            ..snap
        }
    }

    /// A per-model row: `counts` fills queries, negative hits, campaigns,
    /// scenarios and observations; `gauges` the epoch, cache length and
    /// capacity, evictions, observed components, journal and save epoch.
    fn row(name: &str, counts: [u64; 5], gauges: [u64; 7]) -> ModelInfo {
        let mut stats = MetricsSnapshot::default();
        let counters = [
            Counter::Queries,
            Counter::NegativeHits,
            Counter::CampaignsRun,
            Counter::ScenariosEvaluated,
            Counter::ObservationsTotal,
        ];
        for (counter, n) in counters.into_iter().zip(counts) {
            stats.counters[counter as usize] = n;
        }
        let [epoch, len, cap, evictions, observed, journal, saved] = gauges;
        stats.epoch = epoch;
        stats.cache_len = len as usize;
        stats.cache_capacity = cap as usize;
        stats.cache_evictions = evictions;
        stats.observed_components = observed;
        stats.journal_len = journal;
        stats.last_save_epoch = saved;
        ModelInfo {
            name: name.into(),
            stats,
        }
    }

    #[test]
    fn histogram_buckets_and_quantiles() {
        let hist = LatencyHistogram::default();
        for micros in [1, 2, 3, 100, 1000] {
            hist.record(micros);
        }
        let counts = hist.snapshot();
        assert_eq!(counts.count(), 5);
        assert!((counts.mean_micros() - 221.2).abs() < 1e-9);
        // The median of {1,2,3,100,1000} falls in the bucket covering 3 µs.
        assert_eq!(counts.quantile_upper_bound(0.5), 4);
        assert_eq!(counts.quantile_upper_bound(1.0), 1024);
        let empty = LatencyCounts::default();
        assert_eq!((empty.count(), empty.quantile_upper_bound(0.5)), (0, 0));
        assert_eq!(empty.mean_micros(), 0.0);
    }

    #[test]
    fn stage_timings_fold_by_label() {
        let metrics = EngineMetrics::default();
        metrics.record_timings(&[
            timing("5-import-models", 2_000),
            timing("7-path-discovery", 5_000),
            timing("5-import-models", 1_000),
            timing("not-a-stage", 9_000),
        ]);
        assert_eq!(metrics.snapshot().stage_nanos, [3_000_000, 0, 5_000_000, 0]);
    }

    /// Every counter, gauge, latency and stage renders byte for byte.
    #[test]
    fn snapshot_hit_rate_and_render() {
        let snap = full_snapshot();
        assert!((snap.hit_rate() - 107.0 / 221.0).abs() < 1e-12);
        assert_eq!(snap.render(), FULL_LINE);
        assert_eq!(MetricsSnapshot::default().hit_rate(), 0.0);
    }

    #[test]
    fn per_model_rows_render_after_the_global_line() {
        let mut snap = full_snapshot();
        snap.per_model = vec![
            row("usi", [21, 6, 1, 37, 8], [4, 3, 32, 2, 2, 4, 3]),
            row("campus", [55, 10, 2, 90, 14], [9, 12, 48, 7, 5, 9, 8]),
        ];
        assert_eq!(snap.render(), format!("{FULL_LINE}{MODEL_ROWS}"));
    }

    #[test]
    fn cache_residency_and_evictions_render() {
        let snap = MetricsSnapshot {
            cache_len: 3,
            cache_capacity: 8,
            cache_evictions: 5,
            ..MetricsSnapshot::default()
        };
        let line = snap.render();
        assert!(line.contains(" cache_len=3 cache_residency=3/8 cache_evictions=5 "));
        assert!(!line.contains('\n'));
    }

    #[test]
    fn persistence_fields_render_when_set() {
        let unset = MetricsSnapshot::default().render();
        assert!(unset.contains(" state_dir=- journal_len=0 last_save_epoch=0 "));
        assert!(full_snapshot()
            .render()
            .contains(" state_dir=/var/lib/upsim journal_len=19 last_save_epoch=15 "));
    }

    /// `bump` and `add` land in their own counter and nowhere else.
    #[test]
    fn campaign_counters_roll_up_and_render() {
        let metrics = EngineMetrics::default();
        metrics.bump(Counter::CampaignsRun);
        metrics.add(Counter::ScenariosEvaluated, 358);
        metrics.add(Counter::McTrials, 1_500_000);
        metrics.add(Counter::CampaignCrnReuse, 5120);
        let snap = metrics.snapshot();
        let mut expected = [0; Counter::COUNT];
        expected[Counter::CampaignsRun as usize] = 1;
        expected[Counter::ScenariosEvaluated as usize] = 358;
        expected[Counter::McTrials as usize] = 1_500_000;
        expected[Counter::CampaignCrnReuse as usize] = 5120;
        assert_eq!(snap.counters, expected);
        let line = snap.render();
        assert!(line.contains(" mc_trials=1500000 campaigns=1 scenarios=358 crn_reuse=5120 "));
    }

    /// Merging sums counters, latencies, stages and sizes and keeps the
    /// later epochs; merging one snapshot into an empty one reproduces it.
    #[test]
    fn rollup_sums_counters_and_histograms_across_shards() {
        let a = full_snapshot();
        let mut b = full_snapshot();
        b.epoch = 4;
        b.last_save_epoch = 30;
        b.eval_latency = LatencyCounts::default();
        let mut total = MetricsSnapshot::default();
        total.merge(&a);
        let engine_wide = MetricsSnapshot {
            workers: 0,
            state_dir: None,
            ..a.clone()
        };
        assert_eq!(total.render(), engine_wide.render());
        total.merge(&b);
        assert_eq!(total.counters, a.counters.map(|n| 2 * n));
        assert_eq!(total.stage_nanos, a.stage_nanos.map(|n| 2 * n));
        assert_eq!(total.eval_latency.count(), 4);
        assert_eq!(
            (
                total.observed_components,
                total.cache_len,
                total.cache_capacity
            ),
            (10, 22, 128)
        );
        assert_eq!((total.cache_evictions, total.journal_len), (26, 38));
        assert_eq!((total.epoch, total.last_save_epoch), (17, 30));
        assert_eq!((total.workers, total.state_dir), (0, None));
    }
}
