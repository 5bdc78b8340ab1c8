//! One run of one workload: set up, drive, check, reduce to metrics.
//!
//! An untraced run (`--trace 0`) times [`SETUP_SAMPLES`] cold set-ups of
//! the system under test (`setup_s` is their median), warms up, measures
//! for `--seconds` and emits the end-to-end metrics. A traced run
//! (`--trace 1`) drives two windows of a third of `--seconds` each (one
//! second at least) on one build — the first untraced, the second with
//! spans on, so their throughputs give the tracing overhead — then runs
//! the layer probes and emits the per-layer metrics from the traced
//! window, the fleet's own statistics snapshots around it, and the probes.

use crate::design;
use crate::inputs::{permutation, poisson_schedule, SplitMix64};
use crate::loadgen::{
    closed_inproc, closed_wire, paced_receiver, paced_sender, ClientLog, PacedPlan, PacedProgress,
    Window,
};
use crate::probes;
use crate::procstat::{cpu_seconds, peak_rss_mb, stolen_seconds};
use crate::spec::{MetricDef, Metrics, Workload, END_TO_END, PER_LAYER};
use crate::summary::{median, quantile, summarize, Summary};
use crate::system::{self, Clients, Conn, System, TenantModel, TenantOracle};
use crate::trace::{self, now_ns, sleep_until, Lane};
use epim_bench::experiments::search_problem;
use epim_models::resnet::resnet50;
use epim_obs::HistogramSnapshot;
use epim_runtime::{MultiEngine, RuntimeStats};
use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::Command;
use std::time::{Duration, Instant};

/// Set-up samples per untraced run; `setup_s` is their median. A traced
/// run reports no set-up time and builds once.
const SETUP_SAMPLES: usize = 5;
/// A set-up sample is the mean time of cold builds repeated until they
/// have taken this long: one build of ResNet-50 (0.2-0.9 s), so that
/// `setup_s` is the median of five builds there, and forty to six hundred
/// of the zoo fleet or the design problem (0.3-5 ms). One build that
/// short is no sample: the server polls for connections every 2 ms, so a
/// build of `zoo_wire_burst` takes 3.2 ms or 5.3 ms depending on which
/// thread got going first, and the median of five builds read either from
/// run to run. (Samples of 50 ms still spread by 18 % over ten runs.)
const SETUP_SAMPLE_SECONDS: f64 = 0.2;
/// The shortest window of a traced run: long enough for every caller of
/// the slowest workload to start a request in it.
const MIN_TRACED_SECONDS: f64 = 1.0;
/// Closed-loop callers of the in-process fleet.
const INPROC_CLIENTS: usize = 2;
/// How late the open-loop sender may run at its 99th percentile before a
/// run says that it cannot resolve latency differences that small.
const PACED_LAG_LIMIT_MS: f64 = 0.2;
/// Mean arrival rate of `zoo_wire_paced`, requests per second: about a
/// fifth of the rate at which the default zoo starts shedding on the
/// machine the benchmark was sized on.
const PACED_RATE: f64 = 2000.0;

/// What to run.
#[derive(Debug, Clone)]
pub struct RunCfg {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Where trace files go.
    pub out_dir: PathBuf,
}

/// What a run found.
pub struct RunOutput {
    /// Every reply was bit-identical to the oracle (and every design pass
    /// equal to the golden file), warm-up included.
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub rows: Vec<(MetricDef, f64)>,
    /// Human-readable findings: sample counts, the budget, self times.
    pub notes: String,
}

/// Warm-up before a measured window: a sixth of it, so that the 3 s + 20 s
/// the benchmark was designed with scales to any `--seconds`.
fn warmup_seconds(seconds: f64) -> f64 {
    (seconds / 6.0).max(0.25)
}

fn nanos(seconds: f64) -> u64 {
    (seconds * 1e9) as u64
}

/// What the main thread saw around the measured window.
struct Observed {
    before: Option<RuntimeStats>,
    after: Option<RuntimeStats>,
    cpu_s: f64,
    wall_s: f64,
    /// The process's peak resident memory when the window closed: before
    /// the samples are reduced, which takes 24 bytes a request and made the
    /// figure follow the throughput.
    peak_rss_mb: f64,
    /// CPU seconds the host kept from this machine's processors while they
    /// had work (`steal`), all processors summed.
    stolen_s: f64,
}

fn observe(engine: Option<&MultiEngine>, window: Window) -> Observed {
    sleep_until(window.warm_end_ns);
    let (t0, cpu0, stolen0) = (now_ns(), cpu_seconds(), stolen_seconds());
    let before = engine.map(MultiEngine::fleet_stats);
    sleep_until(window.end_ns);
    let (t1, cpu1, stolen1) = (now_ns(), cpu_seconds(), stolen_seconds());
    let peak_rss_mb = peak_rss_mb();
    let after = engine.map(MultiEngine::fleet_stats);
    Observed {
        before,
        after,
        cpu_s: cpu1 - cpu0,
        wall_s: (t1 - t0) as f64 / 1e9,
        peak_rss_mb,
        stolen_s: stolen1 - stolen0,
    }
}

struct Drive {
    logs: Vec<ClientLog>,
    summary: Summary,
    observed: Observed,
}

/// One warm-up plus one measured window. `drive_no` separates the seeded
/// streams and request ids of the two windows of a traced run.
#[derive(Clone, Copy)]
struct Phase {
    drive_no: u64,
    warm_s: f64,
    measure_s: f64,
    traced: bool,
}

/// Drives one [`Phase`] against `system` (or runs design passes when there
/// is none) and reduces the clients' logs.
fn drive(
    cfg: &RunCfg,
    system: Option<&mut System>,
    oracles: &[TenantOracle],
    golden: Option<&serde::Value>,
    phase: Phase,
) -> Drive {
    let Phase {
        drive_no,
        warm_s,
        measure_s,
        traced,
    } = phase;
    let (workload, seed) = (cfg.workload, cfg.seed);
    let picks = |client: usize| SplitMix64::new(seed, 1000 + 16 * drive_no + client as u64);
    let tenant_order = permutation(seed, 2000, oracles.len().max(1));
    let open_loop = workload == Workload::ZooWirePaced;
    let offsets = if open_loop {
        poisson_schedule(seed, 3000 + drive_no, PACED_RATE, nanos(warm_s + measure_s))
    } else {
        Vec::new()
    };

    // Leave the threads time to start before the first request is due.
    let start_ns = now_ns() + 5_000_000;
    let window = Window {
        warm_end_ns: start_ns + nanos(warm_s),
        end_ns: start_ns + nanos(warm_s + measure_s),
    };
    let mut paced_picks = picks(0);
    let plan = PacedPlan {
        id_base: (drive_no + 1) << 32,
        tenant: (0..offsets.len())
            .map(|seq| tenant_order[seq % tenant_order.len()])
            .collect(),
        input: (0..offsets.len())
            .map(|seq| {
                let tenant = tenant_order[seq % tenant_order.len()];
                paced_picks.below(oracles[tenant].pool.len())
            })
            .collect(),
        due_ns: offsets.iter().map(|o| start_ns + o).collect(),
    };
    let progress = PacedProgress::new(plan.due_ns.len());
    let lane = |label: String| Lane::new(label, traced);

    let (logs, observed) = std::thread::scope(|scope| {
        let mut clients = Vec::new();
        let engine =
            match system.map(System::parts) {
                None => {
                    let golden = golden.expect("the design workload has a golden file");
                    let lane = lane("designer".to_string());
                    clients.push(scope.spawn(move || design::closed_design(window, lane, golden)));
                    None
                }
                Some((engine, Clients::InProc(id))) => {
                    for c in 0..INPROC_CLIENTS {
                        let (picks, lane) = (picks(c), lane(format!("client-{c}")));
                        clients.push(scope.spawn(move || {
                            closed_inproc(engine, id, &oracles[0], picks, window, lane)
                        }));
                    }
                    Some(engine)
                }
                Some((engine, Clients::Wire(conns))) if open_loop => {
                    let Conn { tx, rx } = &mut conns[0];
                    let (plan, progress) = (&plan, &progress);
                    let (send_lane, recv_lane) =
                        (lane("sender".to_string()), lane("receiver".to_string()));
                    clients.push(scope.spawn(move || {
                        paced_sender(tx, plan, oracles, progress, window, send_lane)
                    }));
                    clients.push(scope.spawn(move || {
                        paced_receiver(rx, plan, oracles, progress, window, recv_lane)
                    }));
                    Some(engine)
                }
                Some((engine, Clients::Wire(conns))) => {
                    for (c, conn) in conns.iter_mut().enumerate() {
                        let (picks, lane) = (picks(c), lane(format!("connection-{c}")));
                        let order = &tenant_order;
                        clients.push(scope.spawn(move || {
                            closed_wire(conn, oracles, order, c, picks, window, lane)
                        }));
                    }
                    Some(engine)
                }
            };
        let observed = observe(engine, window);
        let logs: Vec<ClientLog> = clients
            .into_iter()
            .map(|c| c.join().expect("a load-generator thread panicked"))
            .collect();
        (logs, observed)
    });
    let summary = summarize(&logs, window, open_loop, workload.tail());
    Drive {
        logs,
        summary,
        observed,
    }
}

/// The samples recorded between two snapshots of one histogram.
fn hist_delta(before: &HistogramSnapshot, after: &HistogramSnapshot) -> HistogramSnapshot {
    let earlier = |bound: u64| {
        before
            .buckets
            .iter()
            .find(|b| b.0 == bound)
            .map_or(0, |b| b.1)
    };
    HistogramSnapshot {
        count: after.count - before.count,
        sum: after.sum - before.sum,
        max: after.max,
        buckets: after
            .buckets
            .iter()
            .map(|&(bound, count)| (bound, count - earlier(bound)))
            .filter(|b| b.1 > 0)
            .collect(),
    }
}

/// Nanoseconds the plan stages of kind `ops` ran between two snapshots.
fn stage_ns(before: &RuntimeStats, after: &RuntimeStats, ops: &[&str]) -> u64 {
    let total = |stats: &RuntimeStats| -> u64 {
        stats
            .stages
            .iter()
            .filter(|s| ops.is_empty() || ops.contains(&s.op.as_str()))
            .map(|s| s.total_ns)
            .sum()
    };
    total(after) - total(before)
}

/// CPU the process used per operation over a drive's window: CPU-seconds
/// per wall-second, divided by the rate (the window's edges cut requests,
/// so a count of completions inside it would be off by up to one request;
/// the rate is not). The open-loop sender's busy wait is the generator's
/// CPU, not the system's, and is left out. Also notes the busy cores.
fn cpu_ms_per_op(notes: &mut String, drive: &Drive) -> f64 {
    let pacing_cpu_s: f64 = drive.logs.iter().map(|l| l.pacing_cpu_s).sum();
    let busy_cores = (drive.observed.cpu_s - pacing_cpu_s).max(0.0) / drive.observed.wall_s;
    let per_op_ms = if drive.summary.throughput_ops_s > 0.0 {
        busy_cores * 1e3 / drive.summary.throughput_ops_s
    } else {
        0.0
    };
    let _ = writeln!(
        notes,
        "cpu: {busy_cores:.3} cores busy over the window ({per_op_ms:.4} ms an operation), plus \
         {:.3} in the open-loop sender's wait; the host kept {:.0} ms of CPU from this machine",
        pacing_cpu_s / drive.observed.wall_s,
        drive.observed.stolen_s * 1e3,
    );
    per_op_ms
}

/// Megabytes of the clients' sample logs that are resident: what the load
/// generator itself added to the process's memory during the window.
fn log_mb(logs: &[ClientLog]) -> f64 {
    let bytes: usize = logs
        .iter()
        .map(|l| {
            std::mem::size_of_val(&l.latency_ms[..])
                + std::mem::size_of_val(&l.second[..])
                + std::mem::size_of_val(&l.send_lag_ms[..])
        })
        .sum();
    bytes as f64 / (1u64 << 20) as f64
}

/// The end-to-end metrics of an untraced drive.
fn end_to_end(m: &mut Metrics, notes: &mut String, setup_s: &mut [f64], drive: &Drive) {
    let s = &drive.summary;
    let _ = writeln!(notes, "set-up: median of the samples {setup_s:.6?} s");
    m.set("setup_s", median(setup_s));
    m.set("throughput_ops_s", s.throughput_ops_s);
    m.set("latency_p50_ms", s.p50_ms());
    // Printed with the run; the metrics are the traced run's.
    cpu_ms_per_op(notes, drive);
    // The sample logs grow with the throughput (five bytes a request, 2 MB
    // of `zoo_wire_burst`'s 8 MB) and are the generator's, not the
    // system's: with them in, the figure followed the throughput.
    m.set(
        "peak_rss_mb",
        drive.observed.peak_rss_mb - log_mb(&drive.logs),
    );
    m.set("ok_share", s.ok_share());
}

/// What the load generator saw in the traced window.
fn client_metrics(m: &mut Metrics, notes: &mut String, workload: Workload, drive: &Drive) {
    let s = &drive.summary;
    m.set("client.cpu_ms_per_op", cpu_ms_per_op(notes, drive));
    m.set("client.attempted", s.attempted as f64);
    m.set("client.ok", s.ok as f64);
    m.set("client.shed", s.shed as f64);
    m.set("client.errored", s.errored as f64);
    m.set("client.transport_failed", s.transport_failed as f64);
    m.set("client.mismatched", s.mismatched as f64);
    m.set("client.samples", s.latency_ms.len() as f64);
    m.set("client.latency_tail_ms", s.tail_ms);
    m.set("client.tail_pct", workload.tail().quantile() * 100.0);
    m.set("client.latency_p99_ms", quantile(&s.latency_ms, 0.99));
    m.set("client.latency_p999_ms", quantile(&s.latency_ms, 0.999));
    m.set("client.send_lag_p99_ms", quantile(&s.send_lag_ms, 0.99));
}

/// What the fleet's own statistics say about the traced window, and the
/// exact work per request from its totals once it is quiescent.
fn fleet_metrics(m: &mut Metrics, engine: &MultiEngine, observed: &Observed) {
    let (before, after) = (
        observed.before.as_ref().expect("a fleet was observed"),
        observed.after.as_ref().expect("a fleet was observed"),
    );
    let all = stage_ns(before, after, &[]).max(1) as f64;
    m.set(
        "tensor.conv_busy_share",
        stage_ns(before, after, &["conv2d", "linear"]) as f64 / all,
    );
    m.set(
        "pim.epitome_busy_share",
        stage_ns(before, after, &["epitome"]) as f64 / all,
    );
    let queue_wait = hist_delta(&before.queue_wait, &after.queue_wait);
    let service = hist_delta(&before.service, &after.service);
    m.set(
        "runtime.queue_wait_p50_us",
        queue_wait.quantile(0.5) as f64 / 1e3,
    );
    m.set(
        "runtime.queue_wait_p99_us",
        queue_wait.quantile(0.99) as f64 / 1e3,
    );
    m.set("runtime.service_p50_us", service.quantile(0.5) as f64 / 1e3);
    let (requests, batches) = (
        after.requests - before.requests,
        after.batches - before.batches,
    );
    m.set(
        "runtime.mean_batch",
        if batches == 0 {
            0.0
        } else {
            requests as f64 / batches as f64
        },
    );
    m.set("runtime.batches_per_s", batches as f64 / observed.wall_s);
    m.set(
        "runtime.queue_depth_high_water",
        after.queue_depth_high_water as f64,
    );
    m.set("runtime.shed", (after.shed - before.shed) as f64);
    m.set(
        "runtime.deadline_exceeded",
        (after.deadline_exceeded - before.deadline_exceeded) as f64,
    );
    m.set(
        "runtime.worker_restarts",
        (after.worker_restarts - before.worker_restarts) as f64,
    );

    // Every request of a tenant does the same work, so a tenant's totals
    // over its request count are exact; the mean over tenants is what one
    // request of the round-robin mix costs.
    let names = engine.tenant_names();
    let per_request = |field: fn(&RuntimeStats) -> u64| -> f64 {
        names
            .iter()
            .map(|name| {
                let id = engine.tenant_id(name).expect("a listed tenant");
                let stats = engine.tenant_stats(id).expect("a listed tenant");
                field(&stats) as f64 / stats.requests.max(1) as f64
            })
            .sum::<f64>()
            / names.len() as f64
    };
    m.set("pim.rounds_per_req", per_request(|s| s.datapath.rounds));
    m.set(
        "pim.wordline_acts_per_req",
        per_request(|s| s.datapath.word_line_activations),
    );
    m.set(
        "pim.table_lookups_per_req",
        per_request(|s| s.datapath.table_lookups),
    );
    m.set(
        "pim.wrapped_elems_per_req",
        per_request(|s| s.datapath.wrapped_elements),
    );
}

/// `NetworkPlan::execute_batch` at one thread over the same at the pool's
/// width, each measured in a child process (the pool is sized once per
/// process). The base is one thread.
fn speedup_over_one_thread(workload: Workload) -> f64 {
    let child = |threads: Option<&str>| -> f64 {
        let exe = std::env::current_exe().expect("the benchmark knows its own path");
        let mut command = Command::new(exe);
        command.args(["--plan-exec", workload.name()]);
        if let Some(n) = threads {
            command.env("EPIM_THREADS", n);
        }
        let output = command.output().expect("the child process starts");
        assert!(output.status.success(), "the plan-exec child failed");
        String::from_utf8_lossy(&output.stdout)
            .trim()
            .parse()
            .expect("the child prints seconds")
    };
    child(Some("1")) / child(None)
}

fn set_zero(m: &mut Metrics, names: &[&'static str]) {
    for name in names {
        m.set(name, 0.0);
    }
}

/// Per-layer metrics that only a served fleet has.
const FLEET_ONLY: &[&str] = &[
    "tensor.conv_busy_share",
    "pim.epitome_busy_share",
    "pim.rounds_per_req",
    "pim.wordline_acts_per_req",
    "pim.table_lookups_per_req",
    "pim.wrapped_elems_per_req",
    "models.lower_ms",
    "models.optimize_ms",
    "models.stages_after_fusion",
    "models.reference_forward_ms",
    "runtime.plan_compile_ms",
    "runtime.plan_cache_hit_share",
    "runtime.arena_mb",
    "parallel.speedup_2t",
    "runtime.queue_wait_p50_us",
    "runtime.queue_wait_p99_us",
    "runtime.service_p50_us",
    "runtime.mean_batch",
    "runtime.batches_per_s",
    "runtime.queue_depth_high_water",
    "runtime.shed",
    "runtime.deadline_exceeded",
    "runtime.worker_restarts",
];

/// Per-layer metrics that only the wire workloads have.
const WIRE_ONLY: &[&str] = &[
    "serve.bytes_per_req",
    "budget.client_p50_us",
    "budget.wire_us",
    "budget.queue_wait_us",
    "budget.service_us",
    "budget.residual_us",
    "budget.residual_share",
];

/// The caller's median split into rows that sum to it. The wire row is
/// the codec both ways plus a health round trip (socket and session
/// wake-ups with no engine behind them); queue wait and service are the
/// fleet's own medians over the window; the residual is what is left, and
/// is reported, not hidden: medians of parts need not sum to the median
/// of the whole, and the reply's trip through the `Mux` is in no row.
fn budget(m: &mut Metrics, notes: &mut String, client_p50_us: f64, codec_us: f64) {
    let get = |m: &Metrics, name: &str| m.get(name).expect("measured before the budget");
    let wire_us = codec_us + get(m, "serve.health_rtt_us");
    let queue_us = get(m, "runtime.queue_wait_p50_us");
    let service_us = get(m, "runtime.service_p50_us");
    let residual_us = client_p50_us - wire_us - queue_us - service_us;
    m.set("budget.client_p50_us", client_p50_us);
    m.set("budget.wire_us", wire_us);
    m.set("budget.queue_wait_us", queue_us);
    m.set("budget.service_us", service_us);
    m.set("budget.residual_us", residual_us);
    m.set(
        "budget.residual_share",
        if client_p50_us > 0.0 {
            residual_us / client_p50_us
        } else {
            0.0
        },
    );
    let _ = writeln!(
        notes,
        "budget: client p50 {client_p50_us:.1} us = wire {wire_us:.1} + queue wait {queue_us:.1} \
         + service {service_us:.1} + residual {residual_us:.1}"
    );
}

/// Builds the design workload's inputs: the ResNet-50 inventory and the
/// layer-wise search problem over it (candidate ladders for every layer
/// the uniform design compresses).
fn design_setup() -> usize {
    search_problem(&resnet50()).len()
}

/// Runs `cfg` and returns its metrics: the end-to-end ones without
/// tracing, the per-layer ones with.
pub fn run(cfg: &RunCfg) -> RunOutput {
    let workload = cfg.workload;
    let mut notes = String::new();
    let mut m = Metrics::default();
    let mut main_lane = Lane::new("main", cfg.trace);
    let serving = workload != Workload::DesignR50;

    // The oracle comes first and is no part of set-up time.
    let models: Vec<TenantModel> = system::tenant_models(workload);
    let golden = (!serving).then(design::golden);
    let (oracles, reference_ms) = main_lane.leaf("oracle", trace::NO_REQUEST, || {
        system::oracles(&models, cfg.seed)
    });

    let mut setup_s = Vec::new();
    let mut system: Option<System> = None;
    for _ in 0..if cfg.trace { 1 } else { SETUP_SAMPLES } {
        let (mut spent_s, mut builds) = (0.0, 0u32);
        while builds == 0 || (!cfg.trace && spent_s < SETUP_SAMPLE_SECONDS) {
            // Tearing the previous build down is no part of the next.
            if let Some(previous) = system.take() {
                previous.teardown();
            }
            let started = Instant::now();
            main_lane.leaf("setup", trace::NO_REQUEST, || {
                if serving {
                    system = Some(System::build(workload, &models));
                } else {
                    std::hint::black_box(design_setup());
                }
            });
            spent_s += started.elapsed().as_secs_f64();
            builds += 1;
        }
        setup_s.push(spent_s / f64::from(builds));
    }

    let warm_s = warmup_seconds(cfg.seconds);
    let drive = |system: &mut Option<System>, phase| {
        drive(cfg, system.as_mut(), &oracles, golden.as_ref(), phase)
    };
    let (measured, correct) = if !cfg.trace {
        let d = drive(
            &mut system,
            Phase {
                drive_no: 0,
                warm_s,
                measure_s: cfg.seconds,
                traced: false,
            },
        );
        if let Some(system) = system.take() {
            system.teardown();
        }
        end_to_end(&mut m, &mut notes, &mut setup_s, &d);
        let correct = d.summary.correct();
        (d.summary, correct)
    } else {
        let plain_phase = Phase {
            drive_no: 0,
            warm_s,
            measure_s: (cfg.seconds / 3.0).max(MIN_TRACED_SECONDS),
            traced: false,
        };
        let plain = drive(&mut system, plain_phase);
        let traced = drive(
            &mut system,
            Phase {
                drive_no: 1,
                warm_s: warm_s / 2.0,
                traced: true,
                ..plain_phase
            },
        );
        client_metrics(&mut m, &mut notes, workload, &traced);
        m.set(
            "trace.overhead_share",
            if plain.summary.throughput_ops_s > 0.0 {
                1.0 - traced.summary.throughput_ops_s / plain.summary.throughput_ops_s
            } else {
                0.0
            },
        );
        if let Some(system) = system.take() {
            fleet_metrics(&mut m, system.engine(), &traced.observed);
            system.teardown();
        }

        // The layer probes, with the machine otherwise idle.
        let budget_per_probe = Duration::from_secs_f64(cfg.seconds * 0.005);
        probes::standalone(&mut main_lane, budget_per_probe, &mut m);
        probes::zoo(&mut main_lane, budget_per_probe, &mut m);
        if serving {
            probes::setup_breakdown(&mut main_lane, &models, &mut m);
            m.set("models.reference_forward_ms", reference_ms);
            m.set("parallel.speedup_2t", speedup_over_one_thread(workload));
        } else {
            set_zero(&mut m, FLEET_ONLY);
        }
        if matches!(workload, Workload::ZooWireBurst | Workload::ZooWirePaced) {
            let outputs = oracles.iter().map(|o| o.expected[0].len()).sum::<usize>();
            let cost = probes::wire_cost(&mut main_lane, budget_per_probe, outputs / oracles.len());
            m.set("serve.bytes_per_req", cost.bytes_per_req);
            budget(
                &mut m,
                &mut notes,
                traced.summary.p50_ms() * 1e3,
                cost.codec_us,
            );
        } else {
            set_zero(&mut m, WIRE_ONLY);
        }

        let correct = plain.summary.correct() && traced.summary.correct();
        let requests: Vec<(u64, u64, u64)> = traced
            .logs
            .iter()
            .flat_map(|l| l.requests.iter().copied())
            .collect();
        let mut lanes: Vec<Lane> = traced.logs.into_iter().map(|l| l.lane).collect();
        lanes.push(main_lane);
        write_trace(cfg, &lanes, &requests, &mut notes);
        (traced.summary, correct)
    };

    let _ = writeln!(
        notes,
        "window: attempted {} ok {} shed {} errored {} transport-failed {} mismatched {}; \
         {} latency samples, tail ({:?}) {:.4} ms",
        measured.attempted,
        measured.ok,
        measured.shed,
        measured.errored,
        measured.transport_failed,
        measured.mismatched,
        measured.latency_ms.len(),
        workload.tail(),
        measured.tail_ms,
    );
    if !measured.send_lag_ms.is_empty() {
        let lag = |q| quantile(&measured.send_lag_ms, q);
        let _ = writeln!(
            notes,
            "open-loop sender lateness: p50 {:.3} ms, p90 {:.3} ms, p99 {:.3} ms, max {:.3} ms",
            lag(0.5),
            lag(0.9),
            lag(0.99),
            lag(1.0)
        );
        if lag(0.99) > PACED_LAG_LIMIT_MS {
            let _ = writeln!(
                notes,
                "open-loop sender lateness p99 is above {PACED_LAG_LIMIT_MS} ms: latency differences \
                 of this run smaller than it are unresolved"
            );
        }
    }
    RunOutput {
        correct,
        attempted: measured.attempted,
        failed: measured.failed(),
        rows: m.into_rows(if cfg.trace { PER_LAYER } else { END_TO_END }),
        notes,
    }
}

/// Writes the chrome://tracing file of a traced run and notes where the
/// time went: per span name, total and self time (self = the span minus
/// what its child spans cover).
fn write_trace(cfg: &RunCfg, lanes: &[Lane], requests: &[(u64, u64, u64)], notes: &mut String) {
    let path = cfg.out_dir.join(format!("trace-{}.json", cfg.workload));
    std::fs::create_dir_all(&cfg.out_dir).expect("the output directory can be created");
    std::fs::write(&path, trace::chrome_trace(lanes, requests)).expect("the trace file is written");
    let dropped: u64 = lanes.iter().map(|l| l.dropped).sum();
    let _ = writeln!(
        notes,
        "trace: {} spans ({dropped} dropped) written to {}",
        lanes.iter().map(|l| l.spans.len()).sum::<usize>(),
        path.display()
    );
    let _ = writeln!(
        notes,
        "{:<28}{:>9}{:>14}{:>14}",
        "span", "count", "total ms", "self ms"
    );
    for row in trace::self_times(lanes) {
        let _ = writeln!(
            notes,
            "{:<28}{:>9}{:>14.3}{:>14.3}",
            row.name,
            row.count,
            row.total_ns as f64 / 1e6,
            row.self_ns as f64 / 1e6
        );
    }
}
