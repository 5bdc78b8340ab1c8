//! Layer probes: each crate timed from outside, through its public
//! functions, on a fixed input. They run after the traced window, in the
//! same process, with nothing else going on; every timed call is also a
//! span in the trace.
//!
//! A probe reports the median of its samples. The inputs are fixed (not
//! drawn from `--seed`): a probe is a ruler for one function, and a ruler
//! that changed with the seed could not be compared across runs.

use crate::spec::{Metrics, Workload};
use crate::summary::median;
use crate::system::{tenant_models, TenantModel, Wire};
use crate::trace::{Lane, NO_REQUEST};
use epim_bench::experiments::{cost_model, designer, search_problem, uniform_epim};
use epim_core::{ConvShape, Epitome};
use epim_models::resnet::resnet50;
use epim_pim::datapath::DataPath;
use epim_pim::Precision;
use epim_prune::{prune_blocks, BlockPruneConfig};
use epim_quant::{quantize_epitome, QuantGranularity, RangeEstimator};
use epim_runtime::{NetworkPlan, PlanCache};
use epim_search::{EvoSearch, SearchConfig, SearchLayer};
use epim_serve::fleet::INPUT_SHAPE;
use epim_serve::wire::{Message, WireRequest, WireResponse};
use epim_tensor::ops::{self, Conv2dCfg, PoolCfg};
use epim_tensor::{init, rng, Tensor};
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Times `f`: one untimed call to fill caches and finish lazy set-up, then
/// at least three samples of `inner` calls each, continuing until `budget`
/// is spent. Returns the median seconds per call.
fn time_median(
    lane: &mut Lane,
    name: &'static str,
    budget: Duration,
    inner: usize,
    mut f: impl FnMut(),
) -> f64 {
    f();
    let mut samples = Vec::new();
    let started = Instant::now();
    while samples.len() < 3 || (started.elapsed() < budget && samples.len() < 10_000) {
        let span = lane.begin(name, NO_REQUEST);
        let t = Instant::now();
        for _ in 0..inner {
            f();
        }
        samples.push(t.elapsed().as_secs_f64() / inner as f64);
        lane.end(span);
    }
    median(&mut samples)
}

fn uniform(shape: &[usize], seed: u64) -> Tensor {
    init::uniform(shape, -1.0, 1.0, &mut rng::seeded(seed))
}

const MIB_F32: usize = (1 << 20) / 4;

/// The probes that need nothing but the crates: kernels, the data path,
/// the design-time pipeline and the wire codec.
pub fn standalone(lane: &mut Lane, budget: Duration, m: &mut Metrics) {
    // tensor
    let (a, b) = (uniform(&[512, 512], 1), uniform(&[512, 512], 2));
    let mut c = vec![0.0f32; 512 * 512];
    let s = time_median(lane, "tensor.gemm", budget, 1, || {
        ops::gemm::gemm(512, 512, 512, a.data(), b.data(), &mut c);
        black_box(&mut c);
    });
    m.set("tensor.gemm_gflops", 2.0 * 512f64.powi(3) / s / 1e9);

    let x = uniform(&[1, 64, 56, 56], 3);
    let w = uniform(&[64, 64, 3, 3], 4);
    let cfg = Conv2dCfg {
        stride: 1,
        padding: 1,
    };
    let s = time_median(lane, "tensor.conv3x3", budget, 1, || {
        black_box(ops::conv2d(&x, &w, None, cfg).expect("conv3x3 runs"));
    });
    m.set(
        "tensor.conv3x3_gflops",
        2.0 * (64 * 64 * 9 * 56 * 56) as f64 / s / 1e9,
    );

    let x = uniform(&[1, 256, 56, 56], 5);
    let w = uniform(&[64, 256, 1, 1], 6);
    let cfg = Conv2dCfg {
        stride: 1,
        padding: 0,
    };
    let s = time_median(lane, "tensor.conv1x1", budget, 1, || {
        black_box(ops::conv2d(&x, &w, None, cfg).expect("conv1x1 runs"));
    });
    m.set(
        "tensor.conv1x1_gflops",
        2.0 * (256 * 64 * 56 * 56) as f64 / s / 1e9,
    );

    // The ResNet stem's pool: 3x3, stride 2, padding 1. Bytes moved are
    // computed from the tensor sizes (input read once, output written).
    let x = uniform(&[1, 64, 112, 112], 7);
    let pool = PoolCfg {
        window: 3,
        stride: 2,
        padding: 1,
    };
    let mut out_len = 0;
    let s = time_median(lane, "tensor.max_pool", budget, 1, || {
        out_len = black_box(ops::max_pool2d(&x, pool).expect("pool runs")).len();
    });
    m.set(
        "tensor.pool_gb_s",
        ((x.len() + out_len) * 4) as f64 / s / 1e9,
    );

    // simd: two 1 MiB operands read, one written.
    let (a, b) = (uniform(&[MIB_F32], 8), uniform(&[MIB_F32], 9));
    let mut dst = vec![0.0f32; MIB_F32];
    let s = time_median(lane, "simd.add_relu", budget, 4, || {
        ops::add_relu_slice(a.data(), b.data(), &mut dst);
        black_box(&mut dst);
    });
    m.set("simd.add_relu_gb_s", (3 * MIB_F32 * 4) as f64 / s / 1e9);

    // pim: the uniform design's epitome for a 64->64 3x3 layer at 56x56
    // (ResNet-50's stage-1 3x3), one image.
    let conv = ConvShape::new(64, 64, 3, 3);
    let spec = designer()
        .design(conv, 1024, 256)
        .expect("the design is legal");
    let epitome = Epitome::from_tensor(spec.clone(), uniform(&spec.shape().dims(), 10))
        .expect("the tensor fits the spec");
    let analog = tenant_models(Workload::R50Epim)[0].analog;
    let datapath = DataPath::with_analog(
        &epitome,
        Conv2dCfg {
            stride: 1,
            padding: 1,
        },
        true,
        analog,
    )
    .expect("the data path builds");
    let x = uniform(&[1, 64, 56, 56], 11);
    let s = time_median(lane, "pim.datapath", budget, 1, || {
        black_box(datapath.execute_batch(&[&x]).expect("the data path runs"));
    });
    m.set("pim.datapath_mpix_s", (56 * 56) as f64 / s / 1e6);

    // A 9-bit DAC sweep over 1 MiB, in place (read and written once).
    let src = uniform(&[MIB_F32], 12);
    let mut vals = src.data().to_vec();
    let s = time_median(lane, "pim.quantize", budget, 4, || {
        vals.copy_from_slice(src.data());
        epim_pim::quantize::quantize_slice(&mut vals, 1.0 / 255.0, 255.0);
        black_box(&mut vals);
    });
    m.set("pim.quantize_gb_s", (2 * MIB_F32 * 4) as f64 / s / 1e9);

    let uniform_net = uniform_epim(resnet50());
    let model = cost_model(true);
    let s = time_median(lane, "pim.cost_sim", budget, 1, || {
        black_box(uniform_net.simulate(&model, Precision::new(9, 9)));
    });
    m.set("pim.cost_sim_us", s * 1e6);

    // core
    let conv = ConvShape::new(512, 256, 3, 3);
    let spec = designer()
        .design(conv, 1024, 256)
        .expect("the design is legal");
    let epitome = Epitome::from_tensor(
        spec.clone(),
        init::kaiming_normal(&spec.shape().dims(), &mut rng::seeded(13)),
    )
    .expect("the tensor fits the spec");
    let mut bytes = 0;
    let s = time_median(lane, "core.reconstruct", budget, 1, || {
        bytes = black_box(epitome.reconstruct().expect("reconstructs")).len() * 4;
    });
    m.set("core.reconstruct_gb_s", bytes as f64 / s / 1e9);

    let d = designer();
    let mut count = 0;
    let s = time_median(lane, "core.candidates", budget, 1, || {
        count = black_box(d.candidates(conv).expect("candidates exist")).len();
    });
    m.set("core.candidates_per_s", count as f64 / s);

    // search: the ResNet-50 layer-wise problem at W9A9.
    let layers: Vec<SearchLayer> = search_problem(&resnet50())
        .into_iter()
        .map(|(_, layer)| layer)
        .collect();
    let genome = vec![0usize; layers.len()];
    let search = EvoSearch::new(
        layers,
        cost_model(true),
        Precision::new(9, 9),
        SearchConfig::default(),
    )
    .expect("a valid search problem");
    let s = time_median(lane, "search.evaluate", budget, 8, || {
        black_box(search.evaluate(&genome));
    });
    m.set("search.evals_per_s", 1.0 / s);
    let s = time_median(lane, "search.run", budget, 1, || {
        black_box(search.run());
    });
    m.set("search.run_ms", s * 1e3);

    // quant: 3 bits, one scale per 128x128 crossbar, overlap-weighted.
    let s = time_median(lane, "quant.quantize_epitome", budget, 1, || {
        black_box(
            quantize_epitome(
                &epitome,
                3,
                QuantGranularity::PerCrossbar {
                    rows: 128,
                    cols: 128,
                },
                &RangeEstimator::overlap_default(),
            )
            .expect("quantizes"),
        );
    });
    m.set("quant.epitome_quant_ms", s * 1e3);

    // prune: the mapped matrix of a 512->512 3x3 layer, half the blocks.
    let matrix = uniform(&[4608, 512], 14);
    let config = BlockPruneConfig {
        block_rows: 128,
        block_cols: 128,
        ratio: 0.5,
    };
    let s = time_median(lane, "prune.prune_blocks", budget, 1, || {
        black_box(prune_blocks(&matrix, &config).expect("prunes"));
    });
    m.set("prune.block_prune_ms", s * 1e3);

    // parallel: an empty region, one chunk per pool thread.
    let mut chunks = vec![0u8; epim_parallel::num_threads()];
    let s = time_median(lane, "parallel.fork_join", budget, 64, || {
        epim_parallel::for_each_chunk_mut(&mut chunks, 1, |_, c| {
            black_box(c);
        });
    });
    m.set("parallel.fork_join_us", s * 1e6);

    // serve: the codec on a zoo request and on a ResNet-50 request.
    let frame = |shape: &[usize]| {
        Message::Request(WireRequest {
            id: 1,
            tenant: "resnet-a".to_string(),
            deadline_ms: 0,
            input: uniform(shape, 15),
        })
    };
    let small = frame(&INPUT_SHAPE);
    let small_body = small.encode().expect("encodes");
    let s = time_median(lane, "serve.encode_req", budget, 64, || {
        black_box(small.encode().expect("encodes"));
    });
    m.set("serve.encode_req_us", s * 1e6);
    let s = time_median(lane, "serve.decode_req", budget, 64, || {
        black_box(Message::decode(&small_body).expect("decodes"));
    });
    m.set("serve.decode_req_us", s * 1e6);
    let large = frame(&[1, 3, 224, 224]);
    let large_body = large.encode().expect("encodes");
    let s = time_median(lane, "serve.encode_large", budget, 1, || {
        black_box(large.encode().expect("encodes"));
    });
    m.set("serve.encode_mb_s", large_body.len() as f64 / s / 1e6);
    let s = time_median(lane, "serve.decode_large", budget, 1, || {
        black_box(Message::decode(&large_body).expect("decodes"));
    });
    m.set("serve.decode_mb_s", large_body.len() as f64 / s / 1e6);
}

/// What one zoo request costs on the wire, both directions: the codec
/// times for the budget's `wire` row, and the bytes.
pub struct WireCost {
    pub codec_us: f64,
    pub bytes_per_req: f64,
}

/// Encode and decode of a zoo request and of its response, summed, and
/// their framed sizes (body plus the 4-byte length prefix).
pub fn wire_cost(lane: &mut Lane, budget: Duration, output_len: usize) -> WireCost {
    let request = Message::Request(WireRequest {
        id: 1,
        tenant: "resnet-a".to_string(),
        deadline_ms: 0,
        input: uniform(&INPUT_SHAPE, 16),
    });
    let response = Message::Response(WireResponse {
        id: 1,
        batch_size: 1,
        latency_ns: 1,
        output: uniform(&[1, output_len], 17),
    });
    let mut codec_s = 0.0;
    let mut bytes = 0;
    for message in [&request, &response] {
        let body = message.encode().expect("encodes");
        bytes += body.len() + 4;
        codec_s += time_median(lane, "wire.encode", budget, 64, || {
            black_box(message.encode().expect("encodes"));
        });
        codec_s += time_median(lane, "wire.decode", budget, 64, || {
            black_box(Message::decode(&body).expect("decodes"));
        });
    }
    WireCost {
        codec_us: codec_s * 1e6,
        bytes_per_req: bytes as f64,
    }
}

/// The probes that need a served zoo fleet: plan execution without the
/// scheduler, the scheduler without the wire, and the wire without the
/// engine. Builds its own fleet and tears it down.
pub fn zoo(lane: &mut Lane, budget: Duration, m: &mut Metrics) {
    let mut wire = Wire::build(1);
    let xs: Vec<Tensor> = (0..8).map(|i| uniform(&INPUT_SHAPE, 20 + i)).collect();
    let refs: Vec<&Tensor> = xs.iter().collect();
    let tenant = wire.engine().tenant_names()[0].clone();
    let id = wire
        .engine()
        .tenant_id(&tenant)
        .expect("the first tenant exists");

    let plan = wire
        .engine()
        .plan(id)
        .expect("the tenant has a plan")
        .clone();
    let s = time_median(lane, "runtime.plan_exec_b1", budget, 1, || {
        black_box(plan.execute_batch(&refs[..1]).expect("the plan runs"));
    });
    m.set("runtime.plan_exec_b1_us", s * 1e6);
    let s = time_median(lane, "runtime.plan_exec_b8", budget, 1, || {
        black_box(plan.execute_batch(&refs).expect("the plan runs"));
    });
    m.set("runtime.plan_exec_b8_us", s * 1e6);

    // One request at a time through the scheduler: queue, coalesce window,
    // execution, delivery.
    let engine = wire.engine();
    let s = time_median(lane, "runtime.inproc_rtt", budget, 1, || {
        black_box(engine.infer(id, xs[0].clone()).expect("infers"));
    });
    m.set("runtime.inproc_rtt_p50_us", s * 1e6);

    // The same 8-request burst, in process and over the wire.
    let inproc_s = time_median(lane, "runtime.infer_many_b8", budget, 1, || {
        for result in engine
            .infer_many(id, xs.clone())
            .expect("the burst is accepted")
        {
            black_box(result.expect("infers"));
        }
    });
    let conn = &mut wire.conns[0];
    let wire_s = time_median(lane, "serve.burst_b8", budget, 1, || {
        for x in &xs {
            conn.tx.submit(&tenant, x.clone()).expect("submits");
        }
        for _ in &xs {
            black_box(
                conn.rx
                    .recv_reply()
                    .expect("receives")
                    .expect("no error frame"),
            );
        }
    });
    m.set("serve.wire_tax_ratio", wire_s / inproc_s);

    // A health round trip: socket, session reader and writer wake-ups, no
    // engine.
    let s = time_median(lane, "serve.health_rtt", budget, 1, || {
        conn.tx.probe_health().expect("probes");
        black_box(conn.rx.recv_health().expect("health answers"));
    });
    m.set("serve.health_rtt_us", s * 1e6);
    wire.teardown();
}

/// What set-up is made of, for one workload's tenants: lowering, fusion,
/// plan compilation through a fresh cache (tenants in registration order,
/// so later ones hit plans earlier ones compiled), and the arena.
pub fn setup_breakdown(lane: &mut Lane, models: &[TenantModel], m: &mut Metrics) {
    let cache = PlanCache::new();
    let (mut lower_s, mut optimize_s, mut compile_s) = (0.0, 0.0, 0.0);
    let (mut stages, mut arena_bytes) = (0usize, 0u64);
    for model in models {
        let weights = model.weights();
        let (h, w) = model.input_hw;
        let t = Instant::now();
        let program = lane.leaf("models.lower", NO_REQUEST, || {
            model.network.lower(h, w).expect("the tenant lowers")
        });
        lower_s += t.elapsed().as_secs_f64();
        let t = Instant::now();
        let fused = lane.leaf("models.optimize", NO_REQUEST, || program.optimize());
        optimize_s += t.elapsed().as_secs_f64();
        stages += fused.stages().len();
        let t = Instant::now();
        let plan = lane.leaf("runtime.plan_compile", NO_REQUEST, || {
            NetworkPlan::compile(
                &cache,
                &model.network,
                &weights,
                model.input_hw,
                true,
                model.analog,
                true,
            )
            .expect("the plan compiles")
        });
        compile_s += t.elapsed().as_secs_f64();
        arena_bytes += plan.arena_bytes(model.max_batch);
    }
    let cache = cache.stats();
    let lookups = cache.hits + cache.misses;
    m.set("models.lower_ms", lower_s * 1e3);
    m.set("models.optimize_ms", optimize_s * 1e3);
    m.set("models.stages_after_fusion", stages as f64);
    m.set("runtime.plan_compile_ms", compile_s * 1e3);
    m.set(
        "runtime.plan_cache_hit_share",
        if lookups == 0 {
            0.0
        } else {
            cache.hits as f64 / lookups as f64
        },
    );
    m.set("runtime.arena_mb", arena_bytes as f64 / 1e6);
}

/// Median seconds of one `NetworkPlan::execute_batch` of one image on the
/// first tenant of `workload`, at whatever pool width this process has.
/// Run in a child process per width by [`crate::run`], since the pool's
/// width is fixed when it is first used.
pub fn plan_exec_seconds(workload: Workload) -> f64 {
    let models = tenant_models(workload);
    let model = &models[0];
    let plan = NetworkPlan::compile(
        &PlanCache::new(),
        &model.network,
        &model.weights(),
        model.input_hw,
        true,
        model.analog,
        true,
    )
    .expect("the plan compiles");
    let x = uniform(&model.input_shape(), 30);
    let mut lane = Lane::new("child", false);
    time_median(
        &mut lane,
        "plan_exec",
        Duration::from_millis(200),
        1,
        || {
            black_box(plan.execute_batch(&[&x]).expect("the plan runs"));
        },
    )
}
