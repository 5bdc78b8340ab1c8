//! Serving-side statistics: latency distributions, batch-size histogram,
//! per-stage time rollups, queue and shed counters, and data-path
//! counter rollups — with a Prometheus text exporter.
//!
//! Each latency distribution (queue wait, service time, end-to-end) is a
//! log-linear [`Histogram`]: recording is O(1) with no allocation,
//! quantiles are an O(buckets) walk, and the fleet rollup merges
//! **exactly** (bucket-wise addition over the full history), so a
//! rare-but-slow tenant's tail stays visible in fleet percentiles no
//! matter how much traffic its neighbours push.

use crate::PlanCacheStats;
use epim_obs::{Histogram, HistogramSnapshot, PromWriter};
use epim_pim::datapath::DataPathStats;
use serde::Serialize;
use std::time::Duration;

/// Static description of one plan stage, supplied by the executor so the
/// scheduler can pre-size its per-stage rollup (index-aligned with the
/// `stage_ns` slice each batch reports).
#[derive(Debug, Clone)]
pub(crate) struct StageMeta {
    /// The stage's display name (the lowered program's stage name).
    pub name: String,
    /// The stage's op kind (e.g. `"conv2d"`, `"epitome"`).
    pub op: &'static str,
}

/// Per-stage execution-time accumulator.
#[derive(Debug, Clone)]
struct StageAgg {
    name: String,
    op: &'static str,
    calls: u64,
    ns: u64,
}

/// One stage's execution-time rollup in a [`RuntimeStats`] snapshot.
///
/// A group that a heavy plan splits into sub-batches (see
/// [`crate::NetworkPlan::sub_batches`]) still counts as one call; its time
/// is the busy time summed over the sub-batches, which ran side by side,
/// so it can exceed the group's wall time. Each `Stage` trace span carries
/// its own sub-batch's image count.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct StageRollup {
    /// The stage's display name (the lowered program's stage name).
    pub name: String,
    /// The stage's op kind (e.g. `"conv2d"`, `"epitome"`).
    pub op: String,
    /// Groups this stage has executed (once per group, split or not).
    pub calls: u64,
    /// Total busy time spent in this stage, nanoseconds, summed over the
    /// sub-batches of split groups.
    pub total_ns: u64,
}

/// A point-in-time snapshot of serving statistics, for one tenant or the
/// whole fleet.
///
/// Returned by `MultiEngine::{tenant_stats, fleet_stats}`; all counters
/// and distributions are totals since the fleet was built (nothing is
/// windowed or sampled).
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct RuntimeStats {
    /// Requests completed (delivered to their submitters).
    pub requests: u64,
    /// Batches executed on the data path.
    pub batches: u64,
    /// `batch_histogram[i]` = batches that coalesced `i + 1` requests.
    pub batch_histogram: Vec<u64>,
    /// Median request latency (submission to delivery), microseconds.
    pub p50_latency_us: u64,
    /// 99th-percentile request latency, microseconds.
    pub p99_latency_us: u64,
    /// Submission-to-execution-start wait, nanoseconds (how long requests
    /// sat in the bounded queue — the autoscaling input signal).
    pub queue_wait: HistogramSnapshot,
    /// Execution time of the batch each request rode in, nanoseconds.
    pub service: HistogramSnapshot,
    /// Submission-to-delivery end-to-end latency, nanoseconds (the
    /// distribution behind `p50_latency_us`/`p99_latency_us`).
    pub e2e: HistogramSnapshot,
    /// Per-stage execution-time rollups, one per plan stage.
    pub stages: Vec<StageRollup>,
    /// Rollup of every executed batch's [`DataPathStats`] (via
    /// `accumulate`) — equals the sum a sequential `execute` per request
    /// would have produced, because the batched path counts identically.
    pub datapath: DataPathStats,
    /// Requests waiting in the bounded submission queue right now.
    pub queue_depth: usize,
    /// Most requests ever waiting in the queue at once (high-water mark)
    /// — with `queue_wait`, the input signal for worker autoscaling.
    pub queue_depth_high_water: usize,
    /// Requests rejected because their tenant's queue was full
    /// (`try_infer` calls) since engine construction.
    pub shed: u64,
    /// Requests shed because their own deadline passed before execution
    /// started (at admission or in the drain loop) — the
    /// [`crate::RuntimeError::DeadlineExceeded`] count.
    pub deadline_exceeded: u64,
    /// Worker panics recovered in place, fleet-wide: each is a scheduler
    /// worker that panicked outside a batch and restarted its own loop.
    /// Fleet-wide (workers are shared by all tenants), so per-tenant
    /// snapshots of a multi-tenant engine all report the same value.
    pub worker_restarts: u64,
    /// Counters of the plan cache the fleet was built from.
    /// `warm_network` effectiveness is visible here: a fully warmed fleet
    /// compiles with zero additional misses.
    pub plan_cache: PlanCacheStats,
    /// Peak activation-arena bytes for one full `max_batch` group under
    /// the liveness-planned arena (summed over tenants in the fleet
    /// rollup).
    pub arena_bytes: u64,
}

impl RuntimeStats {
    /// Mean coalesced batch size (`requests / batches`), 0 when idle.
    pub fn mean_batch_size(&self) -> f64 {
        if self.batches == 0 {
            0.0
        } else {
            self.requests as f64 / self.batches as f64
        }
    }

    /// Total time requests have spent waiting in the submission queue —
    /// the integral the autoscaling signal wants alongside
    /// [`RuntimeStats::queue_depth_high_water`].
    pub fn time_in_queue(&self) -> Duration {
        Duration::from_nanos(self.queue_wait.sum)
    }

    /// Writes this snapshot's serving metrics into `w` under `labels`
    /// (e.g. `[("tenant", name)]`), grouping with samples other snapshots
    /// already wrote for the same metric names. Plan-cache and
    /// supervision counters are *not* written here — they are
    /// fleet-level, so `MultiEngine::render_prometheus` adds them once.
    pub fn write_prometheus(&self, w: &mut PromWriter, labels: &[(&str, &str)]) {
        w.counter(
            "epim_requests_total",
            "Requests completed (delivered to their submitters).",
            labels,
            self.requests,
        );
        w.counter(
            "epim_batches_total",
            "Coalesced batches executed.",
            labels,
            self.batches,
        );
        w.counter(
            "epim_shed_total",
            "Requests rejected because the tenant's queue was full.",
            labels,
            self.shed,
        );
        w.counter(
            "epim_deadline_exceeded_total",
            "Requests shed because their deadline passed before execution.",
            labels,
            self.deadline_exceeded,
        );
        w.gauge(
            "epim_queue_depth",
            "Requests waiting in the bounded submission queue.",
            labels,
            self.queue_depth as f64,
        );
        w.gauge(
            "epim_queue_depth_high_water",
            "Most requests ever waiting in the queue at once.",
            labels,
            self.queue_depth_high_water as f64,
        );
        w.counter_f64(
            "epim_time_in_queue_seconds_total",
            "Total time requests have spent waiting in the queue.",
            labels,
            self.queue_wait.sum as f64 * 1e-9,
        );
        w.histogram(
            "epim_queue_wait_seconds",
            "Submission-to-execution-start queue wait.",
            labels,
            &self.queue_wait,
            1e-9,
        );
        w.histogram(
            "epim_service_seconds",
            "Batch execution (service) time per request.",
            labels,
            &self.service,
            1e-9,
        );
        w.histogram(
            "epim_request_seconds",
            "End-to-end submission-to-delivery latency.",
            labels,
            &self.e2e,
            1e-9,
        );
        for (i, &count) in self.batch_histogram.iter().enumerate() {
            if count == 0 {
                continue;
            }
            let size = (i + 1).to_string();
            let mut with_size: Vec<(&str, &str)> = labels.to_vec();
            with_size.push(("size", size.as_str()));
            w.counter(
                "epim_batch_size_total",
                "Batches by coalesced size.",
                &with_size,
                count,
            );
        }
        for stage in &self.stages {
            let mut with_stage: Vec<(&str, &str)> = labels.to_vec();
            with_stage.push(("stage", stage.name.as_str()));
            with_stage.push(("op", stage.op.as_str()));
            w.counter(
                "epim_stage_calls_total",
                "Batches each plan stage has executed.",
                &with_stage,
                stage.calls,
            );
            w.counter_f64(
                "epim_stage_seconds_total",
                "Total execution time per plan stage.",
                &with_stage,
                stage.total_ns as f64 * 1e-9,
            );
        }
        w.gauge(
            "epim_arena_bytes",
            "Peak liveness-planned activation-arena bytes per full group.",
            labels,
            self.arena_bytes as f64,
        );
        w.counter(
            "epim_datapath_rounds_total",
            "Crossbar activation rounds executed.",
            labels,
            self.datapath.rounds,
        );
        w.counter(
            "epim_datapath_word_line_activations_total",
            "Word lines driven across all rounds.",
            labels,
            self.datapath.word_line_activations,
        );
        w.counter(
            "epim_datapath_bit_line_activations_total",
            "Bit lines sensed across all rounds.",
            labels,
            self.datapath.bit_line_activations,
        );
        w.counter(
            "epim_datapath_wrapped_elements_total",
            "Output elements produced by wrapping replication.",
            labels,
            self.datapath.wrapped_elements,
        );
    }
}

/// Writes fleet-level supervision counters (once per exposition — worker
/// threads are shared by every tenant, so this is never labeled).
pub(crate) fn write_supervision_prometheus(w: &mut PromWriter, worker_restarts: u64) {
    w.counter(
        "epim_worker_restarts_total",
        "Worker panics recovered in place, fleet-wide.",
        &[],
        worker_restarts,
    );
}

/// Writes fleet-level plan-cache counters (once per exposition, never
/// per tenant).
pub(crate) fn write_cache_prometheus(w: &mut PromWriter, cache: &PlanCacheStats) {
    w.counter(
        "epim_plan_cache_hits_total",
        "Plan-cache lookups served from memory.",
        &[],
        cache.hits,
    );
    w.counter(
        "epim_plan_cache_misses_total",
        "Plan-cache lookups that compiled a new plan.",
        &[],
        cache.misses,
    );
    w.gauge(
        "epim_plan_cache_entries",
        "Compiled plans resident in the cache.",
        &[],
        cache.entries as f64,
    );
}

/// Mutable accumulator behind a tenant's stats mutex.
#[derive(Debug, Default)]
pub(crate) struct StatsInner {
    requests: u64,
    batches: u64,
    histogram: Vec<u64>,
    queue_wait: Histogram,
    service: Histogram,
    e2e: Histogram,
    stages: Vec<StageAgg>,
    datapath: DataPathStats,
    shed: u64,
    deadline_exceeded: u64,
}

/// Saturating nanoseconds of a `Duration` (latencies never realistically
/// exceed u64 nanoseconds ≈ 584 years, but don't wrap if they do).
pub(crate) fn ns(d: Duration) -> u64 {
    d.as_nanos().min(u64::MAX as u128) as u64
}

impl StatsInner {
    /// An accumulator pre-sized for a plan's stages (index-aligned with
    /// the `stage_ns` slices its executor reports per batch).
    pub fn with_stages(meta: Vec<StageMeta>) -> Self {
        StatsInner {
            stages: meta
                .into_iter()
                .map(|m| StageAgg {
                    name: m.name,
                    op: m.op,
                    calls: 0,
                    ns: 0,
                })
                .collect(),
            ..StatsInner::default()
        }
    }

    /// Records requests rejected because the tenant's queue was full.
    pub fn record_shed(&mut self, count: u64) {
        self.shed += count;
    }

    /// Records requests shed because their deadline expired before
    /// execution started.
    pub fn record_deadline_exceeded(&mut self, count: u64) {
        self.deadline_exceeded += count;
    }

    /// Records one executed batch: size histogram, data-path rollup, and
    /// the per-stage wall times its executor measured (`stage_ns` is empty
    /// for executors without stage structure, otherwise index-aligned
    /// with the stage metadata this accumulator was built with).
    pub fn record_batch(&mut self, batch_size: usize, stats: &DataPathStats, stage_ns: &[u64]) {
        debug_assert!(batch_size > 0);
        self.batches += 1;
        self.requests += batch_size as u64;
        if self.histogram.len() < batch_size {
            self.histogram.resize(batch_size, 0);
        }
        self.histogram[batch_size - 1] += 1;
        self.datapath.accumulate(stats);
        for (agg, &t) in self.stages.iter_mut().zip(stage_ns) {
            agg.calls += 1;
            agg.ns += t;
        }
    }

    /// Records one delivered request's latency decomposition: time queued
    /// before its batch started, the batch's execution (service) time,
    /// and the end-to-end submission-to-delivery latency.
    pub fn record_request(&mut self, queue_wait: Duration, service: Duration, e2e: Duration) {
        self.queue_wait.record(ns(queue_wait));
        self.service.record(ns(service));
        self.e2e.record(ns(e2e));
    }

    /// Merges another accumulator into this one — the fleet-level rollup
    /// across tenants. Counters and data-path rollups sum, the batch and
    /// latency histograms merge **exactly** (bucket-wise addition over
    /// each tenant's full history — no window, so fleet percentiles are
    /// true percentiles of the union), and stage rollups merge by
    /// `(name, op)`.
    pub fn absorb(&mut self, other: &StatsInner) {
        self.requests += other.requests;
        self.batches += other.batches;
        if self.histogram.len() < other.histogram.len() {
            self.histogram.resize(other.histogram.len(), 0);
        }
        for (mine, theirs) in self.histogram.iter_mut().zip(&other.histogram) {
            *mine += theirs;
        }
        self.queue_wait.merge(&other.queue_wait);
        self.service.merge(&other.service);
        self.e2e.merge(&other.e2e);
        for theirs in &other.stages {
            match self
                .stages
                .iter_mut()
                .find(|s| s.name == theirs.name && s.op == theirs.op)
            {
                Some(mine) => {
                    mine.calls += theirs.calls;
                    mine.ns += theirs.ns;
                }
                None => self.stages.push(theirs.clone()),
            }
        }
        self.shed += other.shed;
        self.deadline_exceeded += other.deadline_exceeded;
        self.datapath.accumulate(&other.datapath);
    }

    /// Builds the public snapshot; queue depth, its high-water mark and
    /// the cache counters are sampled by the caller (they live outside
    /// the stats mutex).
    pub fn snapshot(
        &self,
        queue_depth: usize,
        queue_depth_high_water: usize,
        plan_cache: PlanCacheStats,
    ) -> RuntimeStats {
        RuntimeStats {
            requests: self.requests,
            batches: self.batches,
            batch_histogram: self.histogram.clone(),
            p50_latency_us: self.e2e.quantile(0.5) / 1000,
            p99_latency_us: self.e2e.quantile(0.99) / 1000,
            queue_wait: self.queue_wait.snapshot(),
            service: self.service.snapshot(),
            e2e: self.e2e.snapshot(),
            stages: self
                .stages
                .iter()
                .map(|s| StageRollup {
                    name: s.name.clone(),
                    op: s.op.to_string(),
                    calls: s.calls,
                    total_ns: s.ns,
                })
                .collect(),
            datapath: self.datapath,
            queue_depth,
            queue_depth_high_water,
            shed: self.shed,
            deadline_exceeded: self.deadline_exceeded,
            // Fleet-wide, sampled outside the stats mutex: the owning
            // scheduler fills it in (as `MultiEngine` does arena_bytes).
            worker_restarts: 0,
            plan_cache,
            arena_bytes: 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record_e2e(inner: &mut StatsInner, us: u64) {
        let d = Duration::from_micros(us);
        inner.record_request(Duration::ZERO, d, d);
    }

    #[test]
    fn histogram_and_rollup_accumulate() {
        let mut inner = StatsInner::default();
        let dp = DataPathStats {
            rounds: 3,
            ..DataPathStats::default()
        };
        inner.record_batch(1, &dp, &[]);
        inner.record_batch(4, &dp, &[]);
        inner.record_batch(4, &dp, &[]);
        record_e2e(&mut inner, 10);
        record_e2e(&mut inner, 30);
        inner.record_shed(3);
        let snap = inner.snapshot(2, 5, PlanCacheStats::default());
        assert_eq!(snap.requests, 9);
        assert_eq!(snap.shed, 3);
        assert_eq!(snap.queue_depth, 2);
        assert_eq!(snap.queue_depth_high_water, 5);
        assert_eq!(snap.batches, 3);
        assert_eq!(snap.batch_histogram, vec![1, 0, 0, 2]);
        assert_eq!(snap.datapath.rounds, 9);
        assert!((snap.mean_batch_size() - 3.0).abs() < 1e-12);
        assert_eq!(snap.p50_latency_us, 10);
        assert_eq!(snap.p99_latency_us, 30);
        assert_eq!(snap.e2e.count, 2);
    }

    #[test]
    fn absorb_rolls_up_counters_histograms_and_latencies() {
        let dp = DataPathStats {
            rounds: 2,
            ..DataPathStats::default()
        };
        let mut a = StatsInner::default();
        a.record_batch(1, &dp, &[]);
        record_e2e(&mut a, 10);
        a.record_shed(1);
        let mut b = StatsInner::default();
        b.record_batch(3, &dp, &[]);
        b.record_batch(3, &dp, &[]);
        record_e2e(&mut b, 30);
        record_e2e(&mut b, 50);

        let mut rollup = StatsInner::default();
        rollup.absorb(&a);
        rollup.absorb(&b);
        let snap = rollup.snapshot(0, 0, PlanCacheStats::default());
        assert_eq!(snap.requests, 7);
        assert_eq!(snap.batches, 3);
        assert_eq!(snap.shed, 1);
        assert_eq!(snap.batch_histogram, vec![1, 0, 2]);
        assert_eq!(snap.datapath.rounds, 6);
        // Percentiles cover the union of both sample sets.
        assert_eq!(snap.p50_latency_us, 30);
        assert_eq!(snap.p99_latency_us, 50);
    }

    #[test]
    fn fleet_percentiles_survive_what_a_sample_window_forgets() {
        // Satellite regression test for the old union-of-samples rollup:
        // tenant A pushes far more traffic than the old 2^16-sample ring
        // retained, tenant B contributes a few huge latencies. With raw
        // sample concatenation the rollup's p99 depended on how much of
        // A's history the window had already discarded; histogram merge
        // is exact over the full history, so the fleet p99 is the true
        // 99th percentile of the union — ~10µs, NOT the 10ms that
        // max-of-tenant-p99s (or a B-skewed window) would report.
        let mut a = StatsInner::default();
        for _ in 0..70_000 {
            record_e2e(&mut a, 10);
        }
        let mut b = StatsInner::default();
        for _ in 0..700 {
            record_e2e(&mut b, 10_000);
        }
        let pa = a.snapshot(0, 0, PlanCacheStats::default()).p99_latency_us;
        let pb = b.snapshot(0, 0, PlanCacheStats::default()).p99_latency_us;
        assert_eq!(pa, 10);
        assert_eq!(pb, 10_000);

        let mut fleet = StatsInner::default();
        fleet.absorb(&a);
        fleet.absorb(&b);
        let snap = fleet.snapshot(0, 0, PlanCacheStats::default());
        assert_eq!(snap.e2e.count, 70_700, "no sample was windowed away");
        // B is 700/70700 ≈ 0.99% of traffic, so the 99th percentile of
        // the union still sits in A's 10µs cluster.
        assert_eq!(snap.p50_latency_us, 10);
        assert_eq!(snap.p99_latency_us, 10);
        // The tail is still fully visible past its quantile.
        assert_eq!(snap.e2e.quantile(0.999) / 1000, 10_000);
        assert_ne!(
            snap.p99_latency_us,
            pa.max(pb),
            "fleet p99 must not be the max of tenant p99s"
        );
    }

    #[test]
    fn stage_rollups_record_and_merge() {
        let meta = vec![
            StageMeta {
                name: "conv1".into(),
                op: "conv2d",
            },
            StageMeta {
                name: "fc".into(),
                op: "linear",
            },
        ];
        let dp = DataPathStats::default();
        let mut a = StatsInner::with_stages(meta.clone());
        a.record_batch(2, &dp, &[100, 50]);
        a.record_batch(2, &dp, &[120, 60]);
        // Fallback batches report no stage times; rollup is unaffected.
        a.record_batch(1, &dp, &[]);
        let mut b = StatsInner::with_stages(meta);
        b.record_batch(4, &dp, &[10, 5]);

        let mut fleet = StatsInner::default();
        fleet.absorb(&a);
        fleet.absorb(&b);
        let snap = fleet.snapshot(0, 0, PlanCacheStats::default());
        assert_eq!(snap.stages.len(), 2);
        assert_eq!(snap.stages[0].name, "conv1");
        assert_eq!(snap.stages[0].op, "conv2d");
        assert_eq!(snap.stages[0].calls, 3);
        assert_eq!(snap.stages[0].total_ns, 230);
        assert_eq!(snap.stages[1].calls, 3);
        assert_eq!(snap.stages[1].total_ns, 115);
    }

    #[test]
    fn queue_wait_and_service_distributions_are_separate() {
        let mut inner = StatsInner::default();
        inner.record_request(
            Duration::from_micros(100),
            Duration::from_micros(400),
            Duration::from_micros(500),
        );
        inner.record_request(
            Duration::from_micros(300),
            Duration::from_micros(400),
            Duration::from_micros(700),
        );
        let snap = inner.snapshot(0, 0, PlanCacheStats::default());
        assert_eq!(snap.queue_wait.count, 2);
        assert_eq!(snap.queue_wait.quantile(1.0), 300_000);
        assert_eq!(snap.service.quantile(1.0), 400_000);
        assert_eq!(snap.e2e.quantile(1.0), 700_000);
        assert_eq!(snap.time_in_queue(), Duration::from_micros(400));
    }

    #[test]
    fn prometheus_exposition_contains_serving_metrics() {
        let mut inner = StatsInner::with_stages(vec![StageMeta {
            name: "conv1".into(),
            op: "conv2d",
        }]);
        inner.record_batch(2, &DataPathStats::default(), &[1_000_000]);
        inner.record_request(
            Duration::from_micros(20),
            Duration::from_micros(80),
            Duration::from_micros(100),
        );
        inner.record_request(
            Duration::from_micros(20),
            Duration::from_micros(80),
            Duration::from_micros(100),
        );
        inner.record_shed(1);
        let snap = inner.snapshot(3, 4, PlanCacheStats::default());
        let mut w = PromWriter::new();
        snap.write_prometheus(&mut w, &[("tenant", "resnet")]);
        write_cache_prometheus(&mut w, &snap.plan_cache);
        let text = w.render();
        assert!(text.contains("# TYPE epim_requests_total counter"));
        assert!(text.contains("epim_requests_total{tenant=\"resnet\"} 2"));
        assert!(text.contains("epim_shed_total{tenant=\"resnet\"} 1"));
        assert!(text.contains("epim_queue_depth{tenant=\"resnet\"} 3"));
        assert!(text.contains("epim_queue_depth_high_water{tenant=\"resnet\"} 4"));
        assert!(text.contains("# TYPE epim_queue_wait_seconds histogram"));
        assert!(text.contains("epim_queue_wait_seconds_count{tenant=\"resnet\"} 2"));
        assert!(text.contains("epim_request_seconds_bucket{tenant=\"resnet\",le=\"+Inf\"} 2"));
        assert!(text.contains("epim_batch_size_total{tenant=\"resnet\",size=\"2\"} 1"));
        assert!(text
            .contains("epim_stage_calls_total{tenant=\"resnet\",stage=\"conv1\",op=\"conv2d\"} 1"));
        assert!(text.contains(
            "epim_stage_seconds_total{tenant=\"resnet\",stage=\"conv1\",op=\"conv2d\"} 0.001"
        ));
        // Plan-cache counters are fleet-level: written once, unlabeled.
        assert!(text.contains("epim_plan_cache_entries 0"));
    }

    #[test]
    fn prometheus_exposition_contains_failure_counters() {
        let mut inner = StatsInner::default();
        inner.record_shed(2);
        inner.record_deadline_exceeded(5);
        let snap = inner.snapshot(0, 0, PlanCacheStats::default());
        let mut w = PromWriter::new();
        snap.write_prometheus(&mut w, &[("tenant", "resnet")]);
        let labeled = w.render();
        assert!(labeled.contains("# TYPE epim_deadline_exceeded_total counter"));
        assert!(labeled.contains("epim_deadline_exceeded_total{tenant=\"resnet\"} 5"));
        // The restart counter is fleet-level: never written per tenant.
        assert!(!labeled.contains("epim_worker_restarts_total"));
        write_supervision_prometheus(&mut w, 3);
        let text = w.render();
        assert!(text.contains("# TYPE epim_worker_restarts_total counter"));
        assert!(text.contains("epim_worker_restarts_total 3"));
    }

    #[test]
    fn deadline_counter_absorbs_into_fleet_rollup() {
        let mut a = StatsInner::default();
        a.record_deadline_exceeded(1);
        let mut b = StatsInner::default();
        b.record_deadline_exceeded(4);
        let mut fleet = StatsInner::default();
        fleet.absorb(&a);
        fleet.absorb(&b);
        let snap = fleet.snapshot(0, 0, PlanCacheStats::default());
        assert_eq!(snap.deadline_exceeded, 5);
    }
}
