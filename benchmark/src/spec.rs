//! What the benchmark measures: the workloads and every metric by name.
//!
//! `BENCHMARK.json` at the root of the repository states the same lists
//! for the driver; a test below fails when the two disagree. A run
//! emits exactly the metrics listed here (see [`Metrics::into_rows`]), so
//! a metric can be neither forgotten nor emitted twice.

use crate::summary::Tail;
use std::fmt;

/// One workload: a fixed system under test driven by a fixed traffic shape.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    R50Epim,
    R50Dense,
    ZooWireBurst,
    ZooWirePaced,
    DesignR50,
}

impl Workload {
    pub const ALL: [Workload; 5] = [
        Workload::R50Epim,
        Workload::R50Dense,
        Workload::ZooWireBurst,
        Workload::ZooWirePaced,
        Workload::DesignR50,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::R50Epim => "r50_epim",
            Workload::R50Dense => "r50_dense",
            Workload::ZooWireBurst => "zoo_wire_burst",
            Workload::ZooWirePaced => "zoo_wire_paced",
            Workload::DesignR50 => "design_r50",
        }
    }

    /// Why the workload is in the set (also the `why` of `BENCHMARK.json`).
    pub fn why(self) -> &'static str {
        match self {
            Workload::R50Epim => {
                "paper-scale deployment: ResNet-50 @224 with uniform 1024x256 epitomes, closed loop; the pim data path does most of the work, serve and scheduler almost none"
            }
            Workload::R50Dense => {
                "the paper's baseline row: dense ResNet-50 @224; tensor conv/GEMM does ~95% and pim runs zero epitome stages, so a pim change must not move it and a GEMM change must"
            }
            Workload::ZooWireBurst => {
                "default 3-tenant zoo over loopback TCP, closed loop, 2 connections x 8 outstanding: tiny kernels, so wire, Mux and scheduler coalescing set the saturated throughput"
            }
            Workload::ZooWirePaced => {
                "same fleet, open loop: seeded Poisson arrivals at 2000 rps timed from when due; sparse arrivals make the coalesce window and wake-ups cost latency instead of buying throughput"
            }
            Workload::DesignR50 => {
                "design-time pipeline (designer, evolutionary search, epitome-aware quantization, cost model) for ResNet-50 Tables 1+2; no serving code runs; outputs pinned by a golden file"
            }
        }
    }

    /// What `client.latency_tail_ms` is on this workload: one fixed
    /// percentile, whatever the number of samples a window produced. The
    /// ResNet-50 and design workloads complete 40 to 120 operations in a
    /// window, so p75 is the highest with ten samples beyond it.
    /// `zoo_wire_paced` completes 2000 a second: with twenty samples beyond
    /// it in a second, its p99 was decided by whether the machine had a
    /// hiccup of 10 ms in that second. `zoo_wire_burst` keeps sixteen
    /// requests outstanding on two saturated cores, where everything past
    /// p90 is the operating system's time slices: its p99 spread twice as
    /// wide as its p90 (12.7 % against 7.0 % over ten runs).
    /// `client.latency_p99_ms` and `client.latency_p999_ms` are over the
    /// whole window on every workload.
    pub fn tail(self) -> Tail {
        match self {
            Workload::R50Epim | Workload::R50Dense | Workload::DesignR50 => Tail::Window(0.75),
            Workload::ZooWirePaced => Tail::MedianOfSeconds(0.95),
            Workload::ZooWireBurst => Tail::MedianOfSeconds(0.90),
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

impl fmt::Display for Workload {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One metric's definition. `bound` is the share of the parent's median by
/// which an end-to-end metric may worsen; per-layer metrics have none.
#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound,
    }
}

const fn lower(name: &'static str, unit: &'static str) -> MetricDef {
    e2e(name, unit, Better::Lower, 0.0)
}

const fn higher(name: &'static str, unit: &'static str) -> MetricDef {
    e2e(name, unit, Better::Higher, 0.0)
}

/// The end-to-end metrics, emitted by the untraced run of every workload.
///
/// The bounds of the time-based metrics are the 0.25 the driver allows at
/// most: on the machine the benchmark was sized on (a shared 2-vCPU
/// virtual machine whose speed moves by 10-25 % from one minute to the
/// next) their run-to-run spread (interquartile range over the median of
/// ten runs) is 4-16 % in a calm half hour and 20-36 % in a poor one.
/// `ok_share` is exactly 1 at this commit, and its bound is less than one
/// failure in the busiest window.
///
/// The tail latency and the CPU time per operation are per-layer metrics
/// (`client.latency_tail_ms`, `client.cpu_ms_per_op`), printed by every
/// run: a bounded metric must stay inside its bound between two sets of
/// runs of one build, and on that machine these two do not. Upper
/// percentiles collect the machine's slow stretches, so a tail spreads a
/// fifth wider than its median (25.5 % against 21.9 %); the CPU time of a
/// request that arrives at an idle processor is mostly cache misses and
/// wake-ups (32-44 % on `zoo_wire_paced`). See the README.
pub const END_TO_END: &[MetricDef] = &[
    e2e("setup_s", "s", Better::Lower, 0.25),
    e2e("throughput_ops_s", "ops/s", Better::Higher, 0.25),
    e2e("latency_p50_ms", "ms", Better::Lower, 0.25),
    e2e("peak_rss_mb", "MB", Better::Lower, 0.15),
    e2e("ok_share", "ratio", Better::Higher, 0.000001),
];

/// The per-layer metrics, emitted by the traced run of every workload. The
/// prefix is the crate directory the number belongs to (`client`, `budget`
/// and `trace` are the benchmark's own). A metric that does not apply to a
/// workload reads 0 there.
pub const PER_LAYER: &[MetricDef] = &[
    // tensor: absolute kernel rates, and its share of plan stage time.
    higher("tensor.gemm_gflops", "GFLOP/s"),
    higher("tensor.conv3x3_gflops", "GFLOP/s"),
    higher("tensor.conv1x1_gflops", "GFLOP/s"),
    higher("tensor.pool_gb_s", "GB/s"),
    higher("tensor.conv_busy_share", "ratio"),
    // simd
    higher("simd.add_relu_gb_s", "GB/s"),
    // pim: data path rates, share of stage time, exact work per request.
    higher("pim.datapath_mpix_s", "Mpix/s"),
    higher("pim.quantize_gb_s", "GB/s"),
    higher("pim.epitome_busy_share", "ratio"),
    lower("pim.rounds_per_req", "count"),
    lower("pim.wordline_acts_per_req", "count"),
    lower("pim.table_lookups_per_req", "count"),
    higher("pim.wrapped_elems_per_req", "count"),
    lower("pim.cost_sim_us", "us"),
    // core, search, quant, prune: the design-time pipeline.
    higher("core.reconstruct_gb_s", "GB/s"),
    higher("core.candidates_per_s", "1/s"),
    higher("search.evals_per_s", "1/s"),
    lower("search.run_ms", "ms"),
    lower("quant.epitome_quant_ms", "ms"),
    lower("prune.block_prune_ms", "ms"),
    // models and runtime: what set-up is made of.
    lower("models.lower_ms", "ms"),
    lower("models.optimize_ms", "ms"),
    lower("models.stages_after_fusion", "count"),
    lower("models.reference_forward_ms", "ms"),
    lower("runtime.plan_compile_ms", "ms"),
    higher("runtime.plan_cache_hit_share", "ratio"),
    lower("runtime.arena_mb", "MB"),
    // parallel
    lower("parallel.fork_join_us", "us"),
    higher("parallel.speedup_2t", "ratio"),
    // runtime: plan execution without the scheduler, then the scheduler.
    lower("runtime.plan_exec_b1_us", "us"),
    lower("runtime.plan_exec_b8_us", "us"),
    lower("runtime.inproc_rtt_p50_us", "us"),
    lower("runtime.queue_wait_p50_us", "us"),
    lower("runtime.queue_wait_p99_us", "us"),
    lower("runtime.service_p50_us", "us"),
    higher("runtime.mean_batch", "count"),
    lower("runtime.batches_per_s", "1/s"),
    lower("runtime.queue_depth_high_water", "count"),
    lower("runtime.shed", "count"),
    lower("runtime.deadline_exceeded", "count"),
    lower("runtime.worker_restarts", "count"),
    // serve: the wire.
    lower("serve.encode_req_us", "us"),
    lower("serve.decode_req_us", "us"),
    higher("serve.encode_mb_s", "MB/s"),
    higher("serve.decode_mb_s", "MB/s"),
    lower("serve.health_rtt_us", "us"),
    lower("serve.bytes_per_req", "B"),
    lower("serve.wire_tax_ratio", "ratio"),
    // client: what the load generator saw in the traced window.
    higher("client.attempted", "count"),
    higher("client.ok", "count"),
    lower("client.shed", "count"),
    lower("client.errored", "count"),
    lower("client.transport_failed", "count"),
    lower("client.mismatched", "count"),
    higher("client.samples", "count"),
    lower("client.latency_tail_ms", "ms"),
    higher("client.tail_pct", "%"),
    lower("client.latency_p99_ms", "ms"),
    lower("client.latency_p999_ms", "ms"),
    lower("client.send_lag_p99_ms", "ms"),
    lower("client.cpu_ms_per_op", "ms"),
    // budget: the caller's median split into rows that sum to it.
    lower("budget.client_p50_us", "us"),
    lower("budget.wire_us", "us"),
    lower("budget.queue_wait_us", "us"),
    lower("budget.service_us", "us"),
    lower("budget.residual_us", "us"),
    lower("budget.residual_share", "ratio"),
    // trace
    lower("trace.overhead_share", "ratio"),
];

/// The per-layer metrics that count work and so must repeat exactly from
/// run to run (`--agree` checks that they do).
pub const EXACT_COUNTS: &[&str] = &[
    "pim.rounds_per_req",
    "pim.wordline_acts_per_req",
    "pim.table_lookups_per_req",
    "pim.wrapped_elems_per_req",
    "models.stages_after_fusion",
];

/// `BENCHMARK.json` as these lists give it (`--print-spec` writes it; a
/// test holds the committed file to it).
pub fn benchmark_json(run_seconds: u64) -> serde::Value {
    use crate::json::{object, text};
    use serde::Value;
    object(vec![
        (
            "command",
            Value::Array(vec![text("bash"), text("benchmark/run.sh")]),
        ),
        ("paths", Value::Array(vec![text("benchmark")])),
        ("run_seconds", Value::U64(run_seconds)),
        (
            "workloads",
            Value::Array(
                Workload::ALL
                    .iter()
                    .map(|w| object(vec![("name", text(w.name())), ("why", text(w.why()))]))
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Value::Array(
                END_TO_END
                    .iter()
                    .map(|d| {
                        object(vec![
                            ("name", text(d.name)),
                            ("unit", text(d.unit)),
                            ("better", text(d.better.as_str())),
                            ("bound", Value::F64(d.bound)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "per_layer",
            Value::Array(
                PER_LAYER
                    .iter()
                    .map(|d| {
                        object(vec![
                            ("name", text(d.name)),
                            ("unit", text(d.unit)),
                            ("better", text(d.better.as_str())),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

/// The values of one run, keyed by metric name.
#[derive(Debug, Default)]
pub struct Metrics {
    values: Vec<(&'static str, f64)>,
}

impl Metrics {
    /// Records `name`. Panics on a second value for the same name or on a
    /// value JSON cannot carry: both are bugs in the benchmark.
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(value.is_finite(), "metric {name} is not finite: {value}");
        assert!(
            !self.values.iter().any(|(n, _)| *n == name),
            "metric {name} set twice"
        );
        self.values.push((name, value));
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.values
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, v)| *v)
    }

    /// The values in the order of `defs`. Panics when a listed metric was
    /// never set or a value was set that `defs` does not list.
    pub fn into_rows(self, defs: &[MetricDef]) -> Vec<(MetricDef, f64)> {
        for (name, _) in &self.values {
            assert!(
                defs.iter().any(|d| d.name == *name),
                "metric {name} is not in the list this run emits"
            );
        }
        defs.iter()
            .map(|def| {
                let value = self
                    .get(def.name)
                    .unwrap_or_else(|| panic!("metric {} was never measured", def.name));
                (*def, value)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_well_formed() {
        let well_formed = |s: &str| {
            !s.is_empty()
                && s.len() <= 64
                && s.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
                && s.chars()
                    .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
        };
        let mut seen = std::collections::BTreeSet::new();
        for def in END_TO_END.iter().chain(PER_LAYER) {
            assert!(well_formed(def.name), "{}", def.name);
            assert!(seen.insert(def.name), "{} listed twice", def.name);
            assert!(def.unit.len() <= 16, "{}", def.unit);
        }
        for w in Workload::ALL {
            assert!(well_formed(w.name()));
            assert!(seen.insert(w.name()), "{} listed twice", w.name());
            assert!(w.why().len() <= 200 && !w.why().contains('\n'), "{w}");
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
        assert!(PER_LAYER.len() <= 128);
        assert!(END_TO_END.iter().all(|d| d.bound > 0.0 && d.bound <= 0.25));
        for name in EXACT_COUNTS {
            assert!(PER_LAYER.iter().any(|d| d.name == *name), "{name}");
        }
    }

    #[test]
    fn benchmark_json_at_the_root_states_these_lists() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json is at the root");
        let committed: serde::Value = serde_json::from_str(&text).expect("it parses");
        let serde::Value::Object(fields) = &committed else {
            panic!("BENCHMARK.json holds an object");
        };
        let run_seconds = match fields.iter().find(|(k, _)| k == "run_seconds") {
            Some((_, serde::Value::U64(s))) if (1..=60).contains(s) => *s,
            other => panic!("run_seconds is a whole number from 1 to 60, got {other:?}"),
        };
        // Compare through the printer: the parser reads `0.1` and `1` as
        // different number types than the lists hold.
        let print = |v: &serde::Value| serde_json::to_string_pretty(v).unwrap();
        assert_eq!(
            print(&committed),
            print(&benchmark_json(run_seconds)),
            "regenerate with `epim-benchmark --print-spec > BENCHMARK.json`"
        );
        assert!(text.len() <= 64 * 1024);
    }

    #[test]
    #[should_panic(expected = "never measured")]
    fn a_missing_metric_is_a_bug() {
        let mut m = Metrics::default();
        m.set("setup_s", 1.0);
        let _ = m.into_rows(END_TO_END);
    }
}
