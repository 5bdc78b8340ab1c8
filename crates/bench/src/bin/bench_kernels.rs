//! Kernel tracking: seed baselines vs the current kernels, and the
//! bit-identity gate.
//!
//! Each entry times the *seed repository's* implementation of a hot loop
//! (naive ikj matmul, unfused im2col conv with a per-pixel bias lookup, the
//! per-pixel table-walking data path) against the current path on
//! identical inputs, records the speedup and how far the outputs differ.
//! Results go to `BENCH_kernels.json`; later PRs extend the entry list
//! rather than replacing it.
//!
//! Run: `cargo run --release -p epim-bench --bin bench_kernels`
//! (add `-- --quick` for a faster, noisier pass). Regeneration runs the
//! sweep three times and commits each entry's median-by-speedup
//! observation, with the worst observed `max_abs_diff`.
//!
//! ## Identity gate (`--check <baseline.json>`)
//!
//! `-- --check BENCH_kernels.json` re-runs the sweep at `--quick` reps,
//! writes the fresh report to `BENCH_kernels.check.json` (leaving the
//! committed baseline untouched) and compares it with the baseline:
//!
//! - **Correctness**: any entry whose committed `max_abs_diff` is exactly
//!   `0` is a bit-identity gate (batching/serving restructurings); a
//!   nonzero fresh value fails.
//! - **Coverage**: every committed entry must still be produced (the
//!   entry list is append-only history).
//!
//! Speedups are printed but never fail the gate: a seed-relative ratio
//! timed once on a shared machine cannot tell a regression from drift.
//! Speed is measured by the repo benchmark (`benchmark/`) over alternating
//! parent/change pairs. The process exits nonzero on any failure.

use epim::core::{ConvShape, Epitome, EpitomeDesigner, EpitomeShape, EpitomeSpec};
use epim::models::lower::NetworkWeights;
use epim::models::resnet::resnet50;
use epim::models::zoo;
use epim::pim::datapath::{AnalogModel, CompiledPlan, DataPath};
use epim::pim::mvm::{crossbar_mvm, crossbar_mvm_portable, CrossbarRound};
use epim::pim::{LayerCosts, Precision};
use epim::quant::{quantize_epitome, QuantGranularity, QuantReport, Quantizer, RangeEstimator};
use epim::runtime::{MultiEngine, NetworkPlan, PlanCache, TenantConfig, TenantId};
use epim::search::{EvoSearch, SearchConfig, SearchLayer};
use epim::tensor::ops::gemm::{gemm_nt_bias_row, reference_matmul};
use epim::tensor::ops::{
    add_relu_slice, add_slice, conv2d, conv2d_into, conv2d_out_dims, conv2d_ref, global_avg_pool,
    im2col, max_pool2d, relu, relu_slice, softmax_rows, softmax_rows_scalar, Conv2dCfg, PoolCfg,
};
use epim::tensor::{init, rng, Tensor};
use epim_bench::experiments::{cost_model, search_problem};
use serde::Serialize;
use std::time::Instant;

/// One benchmark comparison.
#[derive(Debug, Serialize, serde::Deserialize)]
struct Entry {
    name: String,
    /// Seed-implementation wall time, milliseconds (best of N).
    baseline_ms: f64,
    /// Optimized-implementation wall time, milliseconds (best of N).
    optimized_ms: f64,
    /// `baseline_ms / optimized_ms`.
    speedup: f64,
    /// Maximum absolute output difference between the two implementations.
    max_abs_diff: f64,
}

/// The emitted report.
#[derive(Debug, Serialize, serde::Deserialize)]
struct Report {
    schema_version: u32,
    generated_by: String,
    num_threads: usize,
    entries: Vec<Entry>,
}

/// Times `f` (best of `reps` after one warmup call) in milliseconds.
fn time_best<R>(reps: usize, mut f: impl FnMut() -> R) -> (f64, R) {
    let mut out = f(); // warmup; also the value used for verification
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let t0 = Instant::now();
        out = f();
        best = best.min(t0.elapsed().as_secs_f64() * 1e3);
    }
    (best, out)
}

fn max_abs_diff(a: &[f32], b: &[f32]) -> f64 {
    a.iter()
        .zip(b)
        .map(|(x, y)| (x - y).abs() as f64)
        .fold(0.0, f64::max)
}

fn bench_gemm(entries: &mut Vec<Entry>, reps: usize, sizes: &[usize]) {
    for &s in sizes {
        let mut r = rng::seeded(100 + s as u64);
        let a = init::uniform(&[s, s], -1.0, 1.0, &mut r);
        let b = init::uniform(&[s, s], -1.0, 1.0, &mut r);
        let mut c_base = vec![0.0f32; s * s];
        let (baseline_ms, _) = time_best(reps, || {
            reference_matmul(s, s, s, a.data(), b.data(), &mut c_base)
        });
        let (optimized_ms, c_opt) = time_best(reps, || a.matmul(&b).expect("square matmul"));
        entries.push(Entry {
            name: format!("gemm_{s}x{s}x{s}"),
            baseline_ms,
            optimized_ms,
            speedup: baseline_ms / optimized_ms,
            max_abs_diff: max_abs_diff(&c_base, c_opt.data()),
        });
    }
}

/// The seed's conv2d: im2col, naive ikj matmul against an explicitly
/// materialized transposed weight, then a second rearrange pass with the
/// bias resolved per output pixel.
fn seed_conv2d(x: &Tensor, weight: &Tensor, bias: Option<&Tensor>, cfg: Conv2dCfg) -> Tensor {
    let (n, c_in) = (x.shape()[0], x.shape()[1]);
    let (c_out, kh, kw) = (weight.shape()[0], weight.shape()[2], weight.shape()[3]);
    let (h, w) = (x.shape()[2], x.shape()[3]);
    let (oh, ow) = epim::tensor::ops::conv2d_out_dims(h, w, kh, kw, cfg).expect("geometry");
    let cols = im2col(x, kh, kw, cfg).expect("geometry");
    let wmat = weight.reshape(&[c_out, c_in * kh * kw]).expect("reshape");
    let wt = wmat.transpose().expect("transpose");
    let rows = n * oh * ow;
    let ckk = c_in * kh * kw;
    let mut out_mat = vec![0.0f32; rows * c_out];
    reference_matmul(rows, c_out, ckk, cols.data(), wt.data(), &mut out_mat);
    let mut out = Tensor::zeros(&[n, c_out, oh, ow]);
    let od = out.data_mut();
    for ni in 0..n {
        for oy in 0..oh {
            for ox in 0..ow {
                let row = (ni * oh + oy) * ow + ox;
                for co in 0..c_out {
                    let b = bias.map(|bb| bb.data()[co]).unwrap_or(0.0);
                    od[((ni * c_out + co) * oh + oy) * ow + ox] = out_mat[row * c_out + co] + b;
                }
            }
        }
    }
    out
}

fn bench_conv(entries: &mut Vec<Entry>, reps: usize) {
    // A mid-network ResNet-ish layer on a CIFAR-sized feature map.
    let mut r = rng::seeded(7);
    let x = init::uniform(&[1, 32, 32, 32], -1.0, 1.0, &mut r);
    let wt = init::uniform(&[64, 32, 3, 3], -1.0, 1.0, &mut r);
    let b = init::uniform(&[64], -1.0, 1.0, &mut r);
    let cfg = Conv2dCfg {
        stride: 1,
        padding: 1,
    };

    let (baseline_ms, y_base) = time_best(reps, || seed_conv2d(&x, &wt, Some(&b), cfg));
    let (optimized_ms, y_opt) =
        time_best(reps, || conv2d(&x, &wt, Some(&b), cfg).expect("geometry"));
    entries.push(Entry {
        name: "conv2d_64x32x3x3_on_32x32".to_string(),
        baseline_ms,
        optimized_ms,
        speedup: baseline_ms / optimized_ms,
        max_abs_diff: max_abs_diff(y_base.data(), y_opt.data()),
    });

    // The unfused-but-current-matmul path, to isolate the fusion win.
    let (ref_ms, y_ref) = time_best(reps, || {
        conv2d_ref(&x, &wt, Some(&b), cfg).expect("geometry")
    });
    entries.push(Entry {
        name: "conv2d_fused_vs_unfused_64x32x3x3".to_string(),
        baseline_ms: ref_ms,
        optimized_ms,
        speedup: ref_ms / optimized_ms,
        max_abs_diff: max_abs_diff(y_ref.data(), y_opt.data()),
    });
}

fn bench_datapath(entries: &mut Vec<Entry>, reps: usize) {
    // A small 3x3 layer with wrapping on: the seed loop against the
    // executor at a batch of one.
    let spec = EpitomeSpec::new(ConvShape::new(32, 16, 3, 3), EpitomeShape::new(16, 8, 2, 2))
        .expect("legal spec");
    let mut r = rng::seeded(3);
    let data = init::kaiming_normal(&spec.shape().dims(), &mut r);
    let epi = Epitome::from_tensor(spec, data).expect("shape matches");
    let dp = DataPath::new(
        &epi,
        Conv2dCfg {
            stride: 1,
            padding: 1,
        },
        true,
    )
    .expect("data path builds");
    let x = init::uniform(&[1, 16, 8, 8], -1.0, 1.0, &mut r);

    let (baseline_ms, y_base) = time_best(reps, || {
        dp.execute_reference(&x).expect("execution succeeds").0
    });
    let (optimized_ms, y_opt) = time_best(reps, || dp.execute(&x).expect("execution succeeds").0);
    entries.push(Entry {
        name: "datapath_execute_32x16x3x3_on_8x8".to_string(),
        baseline_ms,
        optimized_ms,
        speedup: baseline_ms / optimized_ms,
        max_abs_diff: max_abs_diff(y_base.data(), y_opt.data()),
    });
}

/// The data path's batched crossbar MVM on the paper-scale design of
/// ResNet-50's stage-1 3x3 layer (64 -> 64 channels at 56x56, one image,
/// 64-pixel tiles as the data path cuts them): the portable SSE2 block
/// against the `epim-simd` op on identical operands. A bit-identity gate.
fn bench_datapath_mvm(entries: &mut Vec<Entry>, reps: usize) {
    let conv = ConvShape::new(64, 64, 3, 3);
    let spec = EpitomeDesigner::new(128, 128)
        .design(conv, 1024, 256)
        .expect("the design is legal");
    let eshape = spec.shape();
    let (word_lines, ld) = (eshape.matrix_rows(), eshape.cout);
    let mut r = rng::seeded(17);
    let epi = init::kaiming_normal(&eshape.dims(), &mut r);
    // Crossbar form: one row per (ci, y, x) word line, one column per
    // epitome output channel.
    let mut matrix = vec![0.0f32; word_lines * ld];
    for (i, &v) in epi.data().iter().enumerate() {
        matrix[i % word_lines * ld + i / word_lines] = v;
    }
    // The input buffer: a 56x56 image padded by one, every output pixel's
    // window origin in it, and per round the (word line, window offset)
    // taps composed from the compiled IFAT/IFRT/OFAT tables.
    let (side, padded) = (56, 58);
    let input = init::uniform(&[conv.cin * padded * padded], -1.0, 1.0, &mut r);
    let origins: Vec<usize> = (0..side * side)
        .map(|p| p / side * padded + p % side)
        .collect();
    let plan = CompiledPlan::compile(&spec).expect("the plan compiles");
    let rounds: Vec<_> = (0..plan.rounds_per_pixel())
        .map(|r| {
            let offsets: Vec<usize> = plan.ifat().entries[r]
                .iter()
                .flat_map(|range| range.start..range.stop)
                .map(|rf| {
                    let (ci, ky, kx) = (rf / 9, rf / 3 % 3, rf % 3);
                    (ci * padded + ky) * padded + kx
                })
                .collect();
            let taps: Vec<(usize, usize)> = plan.ifrt().sequences[r]
                .iter()
                .enumerate()
                .filter_map(|(wl, pos)| pos.map(|p| (wl, offsets[p])))
                .collect();
            let ofat = plan.ofat().entries[r];
            (taps, ofat.src_col_start, ofat.range.len())
        })
        .collect();
    let out_len: usize = rounds.iter().map(|r| r.2).sum::<usize>() * origins.len();
    let run = |kernel: fn(CrossbarRound<'_>, &mut [f32])| {
        let mut out = vec![0.0f32; out_len];
        let mut at = 0;
        for origins in origins.chunks(64) {
            for (taps, col0, width) in &rounds {
                let n = origins.len() * width;
                let round = CrossbarRound {
                    input: input.data(),
                    origins,
                    matrix: &matrix,
                    ld,
                    col0: *col0,
                    width: *width,
                    taps,
                };
                kernel(round, &mut out[at..at + n]);
                at += n;
            }
        }
        out
    };
    let (baseline_ms, y_base) = time_best(reps, || run(crossbar_mvm_portable));
    let (optimized_ms, y_opt) = time_best(reps, || run(crossbar_mvm));
    entries.push(Entry {
        name: "datapath_mvm_64x64x3x3_on_56x56".to_string(),
        baseline_ms,
        optimized_ms,
        speedup: baseline_ms / optimized_ms,
        max_abs_diff: max_abs_diff(&y_base, &y_opt),
    });
}

fn bench_reconstruct(entries: &mut Vec<Entry>, reps: usize) {
    // The paper's uniform epitome for a 512x256x3x3 conv; baseline is the
    // seed's element-at-a-time reconstruction replayed over the same plan.
    let spec = EpitomeSpec::new(
        ConvShape::new(512, 256, 3, 3),
        EpitomeShape::new(256, 256, 2, 2),
    )
    .expect("legal spec");
    let mut r = rng::seeded(9);
    let data = init::kaiming_normal(&spec.shape().dims(), &mut r);
    let epi = Epitome::from_tensor(spec, data).expect("shape matches");

    let seed_reconstruct = || {
        let spec = epi.spec();
        let mut out = Tensor::zeros(&spec.conv().dims());
        for patch in spec.plan().patches() {
            for a in 0..patch.size[0] {
                for bb in 0..patch.size[1] {
                    for c in 0..patch.size[2] {
                        for d in 0..patch.size[3] {
                            let src = [
                                patch.src[0] + a,
                                patch.src[1] + bb,
                                patch.src[2] + c,
                                patch.src[3] + d,
                            ];
                            let dst = [
                                patch.dst[0] + a,
                                patch.dst[1] + bb,
                                patch.dst[2] + c,
                                patch.dst[3] + d,
                            ];
                            let v = epi.tensor().at(&src);
                            out.set(&dst, v).expect("dst within conv shape");
                        }
                    }
                }
            }
        }
        out
    };
    let (baseline_ms, y_base) = time_best(reps, seed_reconstruct);
    let (optimized_ms, y_opt) = time_best(reps, || epi.reconstruct().expect("reconstructs"));
    entries.push(Entry {
        name: "epitome_reconstruct_512x256x3x3".to_string(),
        baseline_ms,
        optimized_ms,
        speedup: baseline_ms / optimized_ms,
        max_abs_diff: max_abs_diff(y_base.data(), y_opt.data()),
    });
}

/// The serving-runtime layer: batched data-path execution and the engine's
/// micro-batcher vs per-request execution on the same inputs. Outputs must
/// be bit-identical (batching is a pure restructuring), so `max_abs_diff`
/// doubles as a correctness gate here.
fn bench_runtime(entries: &mut Vec<Entry>, reps: usize) {
    let spec = EpitomeSpec::new(ConvShape::new(32, 16, 3, 3), EpitomeShape::new(16, 8, 2, 2))
        .expect("legal spec");
    let mut r = rng::seeded(3);
    let data = init::kaiming_normal(&spec.shape().dims(), &mut r);
    let epi = Epitome::from_tensor(spec, data).expect("shape matches");
    let cfg = Conv2dCfg {
        stride: 1,
        padding: 1,
    };
    let xs: Vec<Tensor> = (0..8)
        .map(|_| init::uniform(&[1, 16, 16, 16], -1.0, 1.0, &mut r))
        .collect();
    let refs: Vec<&Tensor> = xs.iter().collect();
    let a9adc8 = AnalogModel {
        adc_bits: Some(8),
        dac_bits: Some(9),
        ..AnalogModel::ideal()
    };

    // execute_batch vs 8 per-request execute calls, ideal and quantized.
    for (analog, label) in [(AnalogModel::ideal(), "ideal"), (a9adc8, "a9adc8")] {
        let dp = DataPath::with_analog(&epi, cfg, true, analog).expect("data path builds");
        let (baseline_ms, seq) = time_best(reps, || {
            refs.iter()
                .map(|x| dp.execute(x).expect("executes").0)
                .collect::<Vec<_>>()
        });
        let (optimized_ms, batched) =
            time_best(reps, || dp.execute_batch(&refs).expect("executes").0);
        let diff = seq
            .iter()
            .zip(&batched)
            .map(|(a, b)| max_abs_diff(a.data(), b.data()))
            .fold(0.0, f64::max);
        entries.push(Entry {
            name: format!("runtime_batch_datapath_{label}_batch8"),
            baseline_ms,
            optimized_ms,
            speedup: baseline_ms / optimized_ms,
            max_abs_diff: diff,
        });
    }

    // The whole serving engine (queue + scheduler thread + plan cache),
    // as a one-tenant fleet over the one-layer network, vs a bare
    // sequential loop over the same data path.
    let dp = DataPath::with_analog(&epi, cfg, true, a9adc8).expect("data path builds");
    let (net, weights) = zoo::epitome_layer(&epi, 16).expect("one-layer network");
    let (engine, id) = burst_fleet(&net, &weights, 16, a9adc8, true);
    let (baseline_ms, seq) = time_best(reps, || {
        refs.iter()
            .map(|x| dp.execute(x).expect("executes").0)
            .collect::<Vec<_>>()
    });
    let (optimized_ms, served) = time_best(reps, || serve_burst(&engine, id, &xs));
    let diff = seq
        .iter()
        .zip(&served)
        .map(|(a, b)| max_abs_diff(a.data(), b.data()))
        .fold(0.0, f64::max);
    entries.push(Entry {
        name: "runtime_engine_serve_burst8".to_string(),
        baseline_ms,
        optimized_ms,
        speedup: baseline_ms / optimized_ms,
        max_abs_diff: diff,
    });
}

/// Batched conv2d: N per-image `conv2d` calls vs one call on the stacked
/// batch, whose GEMM runs all N images' pixels as one N axis under one
/// worker-pool dispatch while keeping every image's arithmetic untouched,
/// so `max_abs_diff` doubles as a correctness gate (must be exactly 0).
fn bench_conv_batched(entries: &mut Vec<Entry>, reps: usize) {
    for &(n, c_in, c_out, hw) in &[(16usize, 8usize, 16usize, 8usize), (8, 16, 32, 14)] {
        let mut r = rng::seeded(400 + n as u64);
        let x = init::uniform(&[n, c_in, hw, hw], -1.0, 1.0, &mut r);
        let wt = init::uniform(&[c_out, c_in, 3, 3], -1.0, 1.0, &mut r);
        let b = init::uniform(&[c_out], -1.0, 1.0, &mut r);
        let cfg = Conv2dCfg {
            stride: 1,
            padding: 1,
        };
        let plane = c_in * hw * hw;
        let images: Vec<Tensor> = (0..n)
            .map(|ni| {
                Tensor::from_vec(
                    x.data()[ni * plane..(ni + 1) * plane].to_vec(),
                    &[1, c_in, hw, hw],
                )
                .expect("image slice")
            })
            .collect();

        let (baseline_ms, per_image) = time_best(reps, || {
            images
                .iter()
                .map(|xi| conv2d(xi, &wt, Some(&b), cfg).expect("geometry"))
                .collect::<Vec<_>>()
        });
        let (optimized_ms, stacked) =
            time_best(reps, || conv2d(&x, &wt, Some(&b), cfg).expect("geometry"));
        let oplane = stacked.len() / n;
        let diff = per_image
            .iter()
            .enumerate()
            .map(|(ni, yi)| {
                max_abs_diff(yi.data(), &stacked.data()[ni * oplane..(ni + 1) * oplane])
            })
            .fold(0.0, f64::max);
        entries.push(Entry {
            name: format!("conv2d_batched_gemm_{c_out}x{c_in}x3x3_on_{hw}x{hw}_n{n}"),
            baseline_ms,
            optimized_ms,
            speedup: baseline_ms / optimized_ms,
            max_abs_diff: diff,
        });
    }
}

/// The materialised convolution the implicit GEMM replaced, kept here as
/// the reference: lower every patch with `im2col`, then one `gemm_nt` per
/// image against its block of the lowered matrix, bias folded in.
fn materialised_conv2d(x: &Tensor, weight: &Tensor, bias: &Tensor, cfg: Conv2dCfg) -> Tensor {
    let (n, c_out) = (x.shape()[0], weight.shape()[0]);
    let (kh, kw) = (weight.shape()[2], weight.shape()[3]);
    let (oh, ow) = conv2d_out_dims(x.shape()[2], x.shape()[3], kh, kw, cfg).expect("geometry");
    let cols = im2col(x, kh, kw, cfg).expect("geometry");
    let (pixels, ckk) = (oh * ow, cols.shape()[1]);
    let mut out = Tensor::zeros(&[n, c_out, oh, ow]);
    for (ni, out_n) in out.data_mut().chunks_mut(c_out * pixels).enumerate() {
        gemm_nt_bias_row(
            c_out,
            pixels,
            ckk,
            weight.data(),
            &cols.data()[ni * pixels * ckk..(ni + 1) * pixels * ckk],
            bias.data(),
            out_n,
        );
    }
    out
}

/// The dense convolution path at ResNet-50 scale, batch 2: the materialised
/// `im2col` + `gemm_nt` pipeline vs `conv2d`'s implicit GEMM on the four
/// layer shapes that bracket the network (a 56x56 pointwise and 3x3, the
/// deepest 7x7 3x3, the stride-2 stem). Both run the same micro-kernels in
/// the same order per element, so `max_abs_diff` is a hard `0` gate.
fn bench_conv_r50(entries: &mut Vec<Entry>, reps: usize) {
    for &(name, c_in, c_out, hw, k, stride, padding) in &[
        (
            "1x1_256to64_on_56x56",
            256usize,
            64usize,
            56usize,
            1usize,
            1usize,
            0usize,
        ),
        ("3x3_64_on_56x56", 64, 64, 56, 3, 1, 1),
        ("3x3_512_on_7x7", 512, 512, 7, 3, 1, 1),
        ("stem_7x7s2", 3, 64, 224, 7, 2, 3),
    ] {
        let mut r = rng::seeded(1500 + c_in as u64);
        let x = init::uniform(&[2, c_in, hw, hw], -1.0, 1.0, &mut r);
        let wt = init::uniform(&[c_out, c_in, k, k], -1.0, 1.0, &mut r);
        let b = init::uniform(&[c_out], -1.0, 1.0, &mut r);
        let cfg = Conv2dCfg { stride, padding };
        let (baseline_ms, y_base) = time_best(reps, || materialised_conv2d(&x, &wt, &b, cfg));
        let (optimized_ms, y_opt) =
            time_best(reps, || conv2d(&x, &wt, Some(&b), cfg).expect("geometry"));
        entries.push(Entry {
            name: format!("conv2d_r50_{name}_b2"),
            baseline_ms,
            optimized_ms,
            speedup: baseline_ms / optimized_ms,
            max_abs_diff: max_abs_diff(y_base.data(), y_opt.data()),
        });
    }
}

/// A one-tenant fleet over `net` on `hw × hw` inputs that serves a burst
/// of 8 as one group (`max_batch` 8, no coalescing window). Its plan runs
/// the graph-fusion pass when `optimize` is set.
fn burst_fleet(
    net: &epim::models::network::Network,
    weights: &NetworkWeights,
    hw: usize,
    analog: AnalogModel,
    optimize: bool,
) -> (MultiEngine, TenantId) {
    let cache = PlanCache::new();
    cache.warm_network(net).expect("cache warms");
    let plan = NetworkPlan::compile(&cache, net, weights, (hw, hw), true, analog, optimize)
        .expect("plan compiles");
    let config = TenantConfig {
        max_batch: 8,
        batch_window: std::time::Duration::ZERO,
        ..TenantConfig::default()
    };
    let mut builder = MultiEngine::builder(&cache);
    let id = builder
        .register_plan("burst", std::sync::Arc::new(plan), config)
        .expect("tenant registers");
    (builder.build().expect("fleet builds"), id)
}

/// Serves `xs` as one burst and returns the outputs in order.
fn serve_burst(engine: &MultiEngine, id: TenantId, xs: &[Tensor]) -> Vec<Tensor> {
    engine
        .infer_many(id, xs.to_vec())
        .expect("engine accepts the burst")
        .into_iter()
        .map(|res| res.expect("inference succeeds").output)
        .collect()
}

/// Whole-network pipelined serving: a burst of 8 requests through a
/// one-tenant fleet (lower -> plan -> serve) vs sequential per-stage
/// reference execution of the same requests. Outputs must be bit-identical
/// (`max_abs_diff` exactly 0 is the correctness gate).
///
/// Emits two entries from one interleaved measurement so they stay
/// directly comparable under machine load:
/// - `network_pipeline_resnet_burst8`: the plan compiled without the
///   graph-fusion pass — the pipelining win alone;
/// - `network_fused_resnet_burst8`: the fused plan — fused epilogues,
///   folded stages and the smaller liveness-planned arena on top.
fn bench_network(entries: &mut Vec<Entry>, reps: usize) {
    // The zoo's tiny ResNet (stem 8, inner width 8, 10 classes) is the
    // exact backbone+spec this entry has always timed.
    let (net, _) = zoo::tiny_epitome_network(8, 8, 10).expect("legal spec");
    let weights = NetworkWeights::random(&net, 7).expect("weights build");
    let analog = AnalogModel {
        adc_bits: Some(8),
        dac_bits: Some(9),
        ..AnalogModel::ideal()
    };
    let program = net.lower(16, 16).expect("lowers");

    let mut r = rng::seeded(401);
    let xs: Vec<Tensor> = (0..8)
        .map(|_| init::uniform(&[1, 3, 16, 16], -1.0, 1.0, &mut r))
        .collect();

    let (baseline_ms, seq) = time_best(reps, || {
        xs.iter()
            .map(|x| {
                program
                    .forward_reference(&weights, true, analog, x)
                    .expect("reference executes")
                    .0
            })
            .collect::<Vec<_>>()
    });

    let raw = burst_fleet(&net, &weights, 16, analog, false);
    let fused = burst_fleet(&net, &weights, 16, analog, true);
    let serve = |(engine, id): &(MultiEngine, TenantId)| serve_burst(engine, *id, &xs);
    // Alternate the two engines within one loop: a load spike hits both
    // the same way instead of skewing whichever happened to run under it.
    // The high repetition count is what separates the ~10% fusion win
    // from worker-wakeup jitter (each serve is only ~0.4 ms).
    let mut raw_out = serve(&raw);
    let mut fused_out = serve(&fused);
    let (mut raw_ms, mut fused_ms) = (f64::INFINITY, f64::INFINITY);
    for _ in 0..25 * reps {
        let t0 = Instant::now();
        raw_out = serve(&raw);
        raw_ms = raw_ms.min(t0.elapsed().as_secs_f64() * 1e3);
        let t0 = Instant::now();
        fused_out = serve(&fused);
        fused_ms = fused_ms.min(t0.elapsed().as_secs_f64() * 1e3);
    }
    let diff_vs_seq = |served: &[Tensor]| {
        seq.iter()
            .zip(served)
            .map(|(a, b)| max_abs_diff(a.data(), b.data()))
            .fold(0.0, f64::max)
    };
    entries.push(Entry {
        name: "network_pipeline_resnet_burst8".to_string(),
        baseline_ms,
        optimized_ms: raw_ms,
        speedup: baseline_ms / raw_ms,
        max_abs_diff: diff_vs_seq(&raw_out),
    });
    entries.push(Entry {
        name: "network_fused_resnet_burst8".to_string(),
        baseline_ms,
        optimized_ms: fused_ms,
        speedup: baseline_ms / fused_ms,
        max_abs_diff: diff_vs_seq(&fused_out),
    });
}

/// The graph-fusion layer: fused kernel epilogues and the fused serving
/// engine vs their unfused two-pass forms on identical inputs. Fusion is
/// bit-identity-safe by construction (the ReLU clamp lands on exactly the
/// value the separate pass would have read), so every entry's
/// `max_abs_diff` is a hard `0` gate.
fn bench_fusion(entries: &mut Vec<Entry>, reps: usize) {
    // conv2d + bias then a separate relu pass over the output vs the
    // ReLU-in-epilogue writeback, on identical preallocated buffers (same
    // geometry family as `datapath_execute_32x16x3x3`). The fused form
    // must also match the plain `relu(conv2d(..))` tensor path bit for
    // bit — that diff feeds the identity gate.
    let mut r = rng::seeded(600);
    let (n, c_in, c_out, hw) = (4usize, 16usize, 32usize, 16usize);
    let x = init::uniform(&[n, c_in, hw, hw], -1.0, 1.0, &mut r);
    let wt = init::uniform(&[c_out, c_in, 3, 3], -1.0, 1.0, &mut r);
    let b = init::uniform(&[c_out], -1.0, 1.0, &mut r);
    let cfg = Conv2dCfg {
        stride: 1,
        padding: 1,
    };
    let (oh, ow) = conv2d_out_dims(hw, hw, 3, 3, cfg).expect("geometry");
    let mut pre = vec![0.0f32; n * c_out * oh * ow];
    let mut two_pass = vec![0.0f32; n * c_out * oh * ow];
    let mut fused = vec![0.0f32; n * c_out * oh * ow];
    let (baseline_ms, ()) = time_best(5 * reps, || {
        conv2d_into(
            x.data(),
            (n, c_in, hw, hw),
            &wt,
            Some(&b),
            cfg,
            false,
            &mut pre,
        )
        .expect("geometry");
        relu_slice(&pre, &mut two_pass);
    });
    let (optimized_ms, ()) = time_best(5 * reps, || {
        conv2d_into(
            x.data(),
            (n, c_in, hw, hw),
            &wt,
            Some(&b),
            cfg,
            true,
            &mut fused,
        )
        .expect("geometry")
    });
    let y_tensor = relu(&conv2d(&x, &wt, Some(&b), cfg).expect("geometry"));
    entries.push(Entry {
        name: "fused_conv_bias_relu_32x16".to_string(),
        baseline_ms,
        optimized_ms,
        speedup: baseline_ms / optimized_ms,
        max_abs_diff: max_abs_diff(&two_pass, &fused).max(max_abs_diff(y_tensor.data(), &fused)),
    });

    // Residual add + relu: two traversals vs the single-traversal fused
    // kernel (the shape of every post-shortcut rectification).
    const LEN: usize = 1 << 18;
    let a = init::uniform(&[LEN], -1.0, 1.0, &mut r);
    let bb = init::uniform(&[LEN], -1.0, 1.0, &mut r);
    let mut tmp = vec![0.0f32; LEN];
    let mut two_pass = vec![0.0f32; LEN];
    let mut one_pass = vec![0.0f32; LEN];
    let (baseline_ms, ()) = time_best(reps, || {
        add_slice(a.data(), bb.data(), &mut tmp);
        relu_slice(&tmp, &mut two_pass);
    });
    let (optimized_ms, ()) = time_best(reps, || add_relu_slice(a.data(), bb.data(), &mut one_pass));
    entries.push(Entry {
        name: "fused_add_relu".to_string(),
        baseline_ms,
        optimized_ms,
        speedup: baseline_ms / optimized_ms,
        max_abs_diff: max_abs_diff(&two_pass, &one_pass),
    });
}

/// Observability overhead: the fused serving burst with tracing disabled
/// (one relaxed atomic load per hook) as the baseline vs the same burst
/// with the trace ring recording every span. The "speedup" is the
/// disabled/enabled wall-time ratio — expected within timing noise of
/// 1.0x; it *dropping* means recording got more expensive, which is
/// exactly what the CI gate's one-sided slowdown check catches. Both
/// modes must stay bit-identical to sequential reference execution
/// (`max_abs_diff` exactly 0 is the correctness gate: tracing must never
/// perturb the arithmetic). The absolute perf of the disabled path is
/// separately gated by `network_fused_resnet_burst8`, whose serve now
/// runs through the same (disabled) hooks.
fn bench_tracing(entries: &mut Vec<Entry>, reps: usize) {
    let (net, _) = zoo::tiny_epitome_network(8, 8, 10).expect("legal spec");
    let weights = NetworkWeights::random(&net, 7).expect("weights build");
    let analog = AnalogModel {
        adc_bits: Some(8),
        dac_bits: Some(9),
        ..AnalogModel::ideal()
    };
    let program = net.lower(16, 16).expect("lowers");

    let mut r = rng::seeded(701);
    let xs: Vec<Tensor> = (0..8)
        .map(|_| init::uniform(&[1, 3, 16, 16], -1.0, 1.0, &mut r))
        .collect();
    let seq: Vec<Tensor> = xs
        .iter()
        .map(|x| {
            program
                .forward_reference(&weights, true, analog, x)
                .expect("reference executes")
                .0
        })
        .collect();

    let (engine, id) = burst_fleet(&net, &weights, 16, analog, true);
    let serve = || serve_burst(&engine, id, &xs);
    // Alternate enabled/disabled serves in one loop so a load spike hits
    // both modes the same way (same discipline as `bench_network`).
    epim::obs::set_enabled(true);
    let mut traced_out = serve();
    epim::obs::set_enabled(false);
    let mut plain_out = serve();
    let (mut traced_ms, mut plain_ms) = (f64::INFINITY, f64::INFINITY);
    for _ in 0..25 * reps {
        epim::obs::set_enabled(true);
        let t0 = Instant::now();
        traced_out = serve();
        traced_ms = traced_ms.min(t0.elapsed().as_secs_f64() * 1e3);
        epim::obs::set_enabled(false);
        let t0 = Instant::now();
        plain_out = serve();
        plain_ms = plain_ms.min(t0.elapsed().as_secs_f64() * 1e3);
    }
    let diff_vs_seq = |served: &[Tensor]| {
        seq.iter()
            .zip(served)
            .map(|(a, b)| max_abs_diff(a.data(), b.data()))
            .fold(0.0, f64::max)
    };
    entries.push(Entry {
        name: "tracing_overhead_serve_burst8".to_string(),
        baseline_ms: plain_ms,
        optimized_ms: traced_ms,
        speedup: plain_ms / traced_ms,
        max_abs_diff: diff_vs_seq(&traced_out).max(diff_vs_seq(&plain_out)),
    });
}

/// Fault-harness overhead: the fused serving burst with no fault plan
/// installed (one relaxed atomic load per injection point) as the
/// baseline vs the same burst with a plan installed whose rules never
/// fire — the "armed but silent" worst case of the always-on cost, since
/// every hook now takes the slow path through per-point hit accounting.
/// The "speedup" is the disabled/armed wall-time ratio — expected within
/// timing noise of 1.0x. Both modes must stay bit-identical to
/// sequential reference execution (`max_abs_diff` exactly 0 is the
/// correctness gate: an armed harness must never perturb the
/// arithmetic).
fn bench_faults(entries: &mut Vec<Entry>, reps: usize) {
    use epim::faults::{FaultPlan, FaultRule, ALL_POINTS};
    let (net, _) = zoo::tiny_epitome_network(8, 8, 10).expect("legal spec");
    let weights = NetworkWeights::random(&net, 7).expect("weights build");
    let analog = AnalogModel {
        adc_bits: Some(8),
        dac_bits: Some(9),
        ..AnalogModel::ideal()
    };
    let program = net.lower(16, 16).expect("lowers");

    let mut r = rng::seeded(901);
    let xs: Vec<Tensor> = (0..8)
        .map(|_| init::uniform(&[1, 3, 16, 16], -1.0, 1.0, &mut r))
        .collect();
    let seq: Vec<Tensor> = xs
        .iter()
        .map(|x| {
            program
                .forward_reference(&weights, true, analog, x)
                .expect("reference executes")
                .0
        })
        .collect();

    let (engine, id) = burst_fleet(&net, &weights, 16, analog, true);
    let serve = || serve_burst(&engine, id, &xs);
    let arm = || {
        let mut plan = FaultPlan::new(42);
        for point in ALL_POINTS {
            plan = plan.with_rule(point, FaultRule::never());
        }
        epim::faults::install(plan);
    };
    // Alternate armed/disabled serves in one loop so a load spike hits
    // both modes the same way (same discipline as `bench_tracing`).
    arm();
    let mut armed_out = serve();
    epim::faults::clear();
    let mut plain_out = serve();
    let (mut armed_ms, mut plain_ms) = (f64::INFINITY, f64::INFINITY);
    for _ in 0..25 * reps {
        arm();
        let t0 = Instant::now();
        armed_out = serve();
        armed_ms = armed_ms.min(t0.elapsed().as_secs_f64() * 1e3);
        epim::faults::clear();
        let t0 = Instant::now();
        plain_out = serve();
        plain_ms = plain_ms.min(t0.elapsed().as_secs_f64() * 1e3);
    }
    let diff_vs_seq = |served: &[Tensor]| {
        seq.iter()
            .zip(served)
            .map(|(a, b)| max_abs_diff(a.data(), b.data()))
            .fold(0.0, f64::max)
    };
    entries.push(Entry {
        name: "faults_overhead_serve_burst8".to_string(),
        baseline_ms: plain_ms,
        optimized_ms: armed_ms,
        speedup: plain_ms / armed_ms,
        max_abs_diff: diff_vs_seq(&armed_out).max(diff_vs_seq(&plain_out)),
    });
}

/// Multi-network tenancy: two epitome networks served as tenants of one
/// `MultiEngine` (shared plan cache and scheduler threads, weighted-fair
/// draining) vs sequential per-stage reference execution of both tenants'
/// bursts. Outputs must be bit-identical per tenant (`max_abs_diff`
/// exactly 0 is the correctness gate).
fn bench_tenancy(entries: &mut Vec<Entry>, reps: usize) {
    use epim::runtime::{MultiEngine, TenantConfig};
    let (net_a, _) = zoo::tiny_epitome_network(8, 8, 10).expect("legal spec");
    let (net_b, _) = zoo::tiny_epitome_network(8, 4, 10).expect("legal spec");
    let weights_a = NetworkWeights::random(&net_a, 7).expect("weights build");
    let weights_b = NetworkWeights::random(&net_b, 8).expect("weights build");
    let analog = AnalogModel {
        adc_bits: Some(8),
        dac_bits: Some(9),
        ..AnalogModel::ideal()
    };
    let prog_a = net_a.lower(16, 16).expect("lowers");
    let prog_b = net_b.lower(16, 16).expect("lowers");

    let mut r = rng::seeded(501);
    let xs_a: Vec<Tensor> = (0..8)
        .map(|_| init::uniform(&[1, 3, 16, 16], -1.0, 1.0, &mut r))
        .collect();
    let xs_b: Vec<Tensor> = (0..8)
        .map(|_| init::uniform(&[1, 3, 16, 16], -1.0, 1.0, &mut r))
        .collect();

    let (baseline_ms, seq) = time_best(reps, || {
        let run = |prog: &epim::models::lower::NetworkProgram,
                   weights: &NetworkWeights,
                   xs: &[Tensor]| {
            xs.iter()
                .map(|x| {
                    prog.forward_reference(weights, true, analog, x)
                        .expect("reference executes")
                        .0
                })
                .collect::<Vec<_>>()
        };
        (
            run(&prog_a, &weights_a, &xs_a),
            run(&prog_b, &weights_b, &xs_b),
        )
    });

    let cache = PlanCache::new();
    let tenant_cfg = TenantConfig {
        max_batch: 8,
        batch_window: std::time::Duration::ZERO,
        ..TenantConfig::default()
    };
    let mut builder = MultiEngine::builder(&cache).workers(2);
    let id_a = builder
        .register("a", &net_a, &weights_a, (16, 16), true, analog, tenant_cfg)
        .expect("tenant registers");
    let id_b = builder
        .register("b", &net_b, &weights_b, (16, 16), true, analog, tenant_cfg)
        .expect("tenant registers");
    let engine = builder.build().expect("engine builds");
    let (optimized_ms, served) = time_best(reps, || {
        std::thread::scope(|scope| {
            let ha = scope.spawn(|| {
                engine
                    .infer_many(id_a, xs_a.clone())
                    .expect("burst accepted")
                    .into_iter()
                    .map(|res| res.expect("inference succeeds").output)
                    .collect::<Vec<_>>()
            });
            let hb = scope.spawn(|| {
                engine
                    .infer_many(id_b, xs_b.clone())
                    .expect("burst accepted")
                    .into_iter()
                    .map(|res| res.expect("inference succeeds").output)
                    .collect::<Vec<_>>()
            });
            (
                ha.join().expect("tenant a client"),
                hb.join().expect("tenant b client"),
            )
        })
    });
    let diff_of = |want: &[Tensor], got: &[Tensor]| {
        want.iter()
            .zip(got)
            .map(|(a, b)| max_abs_diff(a.data(), b.data()))
            .fold(0.0, f64::max)
    };
    let diff = diff_of(&seq.0, &served.0).max(diff_of(&seq.1, &served.1));
    entries.push(Entry {
        name: "multi_tenant_two_networks_burst8".to_string(),
        baseline_ms,
        optimized_ms,
        speedup: baseline_ms / optimized_ms,
        max_abs_diff: diff,
    });
}

/// Fork-join dispatch: the seed's per-call scoped-thread spawn vs the
/// persistent parked-worker pool, on a copy-bound kernel small enough that
/// dispatch overhead matters. On a 1-core machine both run serially
/// (parity is the expected result there).
fn bench_pool(entries: &mut Vec<Entry>, reps: usize) {
    const N: usize = 1 << 16;
    const CHUNK: usize = 1024;
    let mut data = vec![0.0f32; N];
    let work = |i: usize, c: &mut [f32]| {
        for (j, v) in c.iter_mut().enumerate() {
            *v = ((i * CHUNK + j) as f32).sqrt();
        }
    };
    let threads = epim::tensor::ops::gemm::num_threads_in_use();
    let (baseline_ms, _) = time_best(reps, || {
        if threads <= 1 {
            for (i, c) in data.chunks_mut(CHUNK).enumerate() {
                work(i, c);
            }
        } else {
            // The seed's dispatch: spawn scoped threads on every call.
            let queue = std::sync::Mutex::new(data.chunks_mut(CHUNK).enumerate());
            std::thread::scope(|s| {
                for _ in 0..threads {
                    s.spawn(|| loop {
                        let next = queue.lock().expect("queue lock").next();
                        match next {
                            Some((i, c)) => work(i, c),
                            None => break,
                        }
                    });
                }
            });
        }
    });
    let (optimized_ms, _) = time_best(reps, || {
        epim_parallel::for_each_chunk_mut(&mut data, CHUNK, work)
    });
    entries.push(Entry {
        name: "pool_fork_join_vs_scoped_spawn".to_string(),
        baseline_ms,
        optimized_ms,
        speedup: baseline_ms / optimized_ms,
        max_abs_diff: 0.0,
    });
}

/// The epim-simd vectorized serving stages vs the scalar implementations
/// they replaced (reproduced here verbatim as bench-local baselines). Every
/// new SIMD path is pinned bitwise to its scalar reference — the house
/// invariant is "vectorize across independent outputs, never change an
/// output's FP op sequence" — so `max_abs_diff` is a hard `0` gate on all
/// four entries.
fn bench_simd_ops(entries: &mut Vec<Entry>, reps: usize) {
    // Max pooling, ResNet-stem geometry (3x3 window, stride 2, padding 1).
    // Baseline: the pre-SIMD core — gather each window into a Vec, fold
    // with `f32::max`.
    let seed_max_pool = |x: &Tensor, cfg: PoolCfg| {
        let (n, c, h, w) = (x.shape()[0], x.shape()[1], x.shape()[2], x.shape()[3]);
        let conv_cfg = Conv2dCfg {
            stride: cfg.stride,
            padding: cfg.padding,
        };
        let (oh, ow) = conv2d_out_dims(h, w, cfg.window, cfg.window, conv_cfg).expect("geometry");
        let mut out = Tensor::zeros(&[n, c, oh, ow]);
        let od = out.data_mut();
        let xd = x.data();
        for ni in 0..n {
            for ci in 0..c {
                let plane = &xd[(ni * c + ci) * h * w..(ni * c + ci + 1) * h * w];
                for oy in 0..oh {
                    for ox in 0..ow {
                        let mut vals = Vec::with_capacity(cfg.window * cfg.window);
                        for ky in 0..cfg.window {
                            let y = (oy * cfg.stride + ky) as isize - cfg.padding as isize;
                            if y < 0 || y >= h as isize {
                                continue;
                            }
                            for kx in 0..cfg.window {
                                let xx = (ox * cfg.stride + kx) as isize - cfg.padding as isize;
                                if xx < 0 || xx >= w as isize {
                                    continue;
                                }
                                vals.push(plane[y as usize * w + xx as usize]);
                            }
                        }
                        od[((ni * c + ci) * oh + oy) * ow + ox] =
                            vals.into_iter().fold(f32::NEG_INFINITY, f32::max);
                    }
                }
            }
        }
        out
    };
    // The canonical user: a ResNet stem pool on an ImageNet-sized map
    // (112x112 -> 56x56; wide enough rows for full vector interiors).
    let mut r = rng::seeded(800);
    let x = init::uniform(&[1, 64, 112, 112], -1.0, 1.0, &mut r);
    let cfg = PoolCfg {
        window: 3,
        stride: 2,
        padding: 1,
    };
    let (baseline_ms, y_base) = time_best(reps, || seed_max_pool(&x, cfg));
    let (optimized_ms, y_opt) = time_best(reps, || max_pool2d(&x, cfg).expect("geometry"));
    entries.push(Entry {
        name: "maxpool_3x3s2".to_string(),
        baseline_ms,
        optimized_ms,
        speedup: baseline_ms / optimized_ms,
        max_abs_diff: max_abs_diff(y_base.data(), y_opt.data()),
    });

    // Global average pooling: one latency-bound scalar sum chain per
    // channel (the pre-SIMD loop) vs one channel per vector lane.
    let x = init::uniform(&[8, 256, 16, 16], -1.0, 1.0, &mut r);
    let seed_gap = |x: &Tensor| {
        let (n, c, h, w) = (x.shape()[0], x.shape()[1], x.shape()[2], x.shape()[3]);
        let mut out = Tensor::zeros(&[n, c]);
        let od = out.data_mut();
        let xd = x.data();
        let inv = 1.0 / (h * w) as f32;
        for (slot, plane) in od.iter_mut().zip(xd.chunks_exact(h * w)).take(n * c) {
            let mut acc = 0.0f32;
            for &v in plane {
                acc += v;
            }
            *slot = acc * inv;
        }
        out
    };
    let (baseline_ms, y_base) = time_best(reps, || seed_gap(&x));
    let (optimized_ms, y_opt) = time_best(reps, || global_avg_pool(&x).expect("geometry"));
    entries.push(Entry {
        name: "global_avg_pool".to_string(),
        baseline_ms,
        optimized_ms,
        speedup: baseline_ms / optimized_ms,
        max_abs_diff: max_abs_diff(y_base.data(), y_opt.data()),
    });

    // Softmax over classifier logits: `softmax_rows_scalar` (the retained
    // scalar reference, lanewise-identical exp) vs the vectorized passes.
    let x = init::uniform(&[8, 1000], -5.0, 5.0, &mut r);
    let (baseline_ms, y_base) = time_best(reps, || softmax_rows_scalar(&x).expect("rank 2"));
    let (optimized_ms, y_opt) = time_best(reps, || softmax_rows(&x).expect("rank 2"));
    entries.push(Entry {
        name: "softmax_rows_8x1000".to_string(),
        baseline_ms,
        optimized_ms,
        speedup: baseline_ms / optimized_ms,
        max_abs_diff: max_abs_diff(y_base.data(), y_opt.data()),
    });

    // Epitome replay: the pre-SIMD run loop (one `copy_from_slice` call
    // per contiguous kx run — ~590k two-float memcpys for this spec) vs
    // the dispatched run copies. Same spec as
    // `epitome_reconstruct_512x256x3x3`, but that entry's baseline is the
    // seed's element-at-a-time replay; this one isolates the SIMD step.
    let spec = EpitomeSpec::new(
        ConvShape::new(512, 256, 3, 3),
        EpitomeShape::new(256, 256, 2, 2),
    )
    .expect("legal spec");
    let data = init::kaiming_normal(&spec.shape().dims(), &mut r);
    let epi = Epitome::from_tensor(spec, data).expect("shape matches");
    let pre_pr_reconstruct = || {
        let spec = epi.spec();
        let conv = spec.conv();
        let eshape = spec.shape();
        let (e1, e2, e3) = (
            eshape.cin * eshape.h * eshape.w,
            eshape.h * eshape.w,
            eshape.w,
        );
        let (c1, c2, c3) = (conv.cin * conv.kh * conv.kw, conv.kh * conv.kw, conv.kw);
        let mut out = Tensor::zeros(&conv.dims());
        let od = out.data_mut();
        let ed = epi.tensor().data();
        for patch in spec.plan().patches() {
            for a in 0..patch.size[0] {
                let src_a = (patch.src[0] + a) * e1;
                let dst_a = (patch.dst[0] + a) * c1;
                for b in 0..patch.size[1] {
                    let src_b = src_a + (patch.src[1] + b) * e2;
                    let dst_b = dst_a + (patch.dst[1] + b) * c2;
                    for c in 0..patch.size[2] {
                        let src_flat = src_b + (patch.src[2] + c) * e3 + patch.src[3];
                        let dst_flat = dst_b + (patch.dst[2] + c) * c3 + patch.dst[3];
                        od[dst_flat..dst_flat + patch.size[3]]
                            .copy_from_slice(&ed[src_flat..src_flat + patch.size[3]]);
                    }
                }
            }
        }
        out
    };
    let (baseline_ms, y_base) = time_best(reps, pre_pr_reconstruct);
    let (optimized_ms, y_opt) = time_best(reps, || epi.reconstruct().expect("reconstructs"));
    entries.push(Entry {
        name: "epitome_reconstruct".to_string(),
        baseline_ms,
        optimized_ms,
        speedup: baseline_ms / optimized_ms,
        max_abs_diff: max_abs_diff(y_base.data(), y_opt.data()),
    });
}

/// Network serving over loopback TCP vs the same fleet driven in-process.
///
/// `serve_tcp_resnet_burst8` times an 8-request pipelined burst through the
/// wire protocol against the identical burst submitted straight to the
/// in-process `MultiEngine`, and pins the wire outputs bitwise to the
/// in-process outputs (`max_abs_diff` exactly 0 is the gate: the network
/// boundary must never perturb a single bit).
fn bench_serve_tcp(entries: &mut Vec<Entry>, reps: usize) {
    use epim::serve::fleet::{FleetConfig, INPUT_SHAPE};
    use epim::serve::{Client, Server};
    use std::sync::atomic::Ordering;

    // One fleet config, two builds: deterministic weight seeds make the
    // served fleet and the in-process reference bit-identical.
    let cfg = FleetConfig::default_zoo();
    let reference = cfg.build().expect("fleet builds");
    let server =
        Server::bind(cfg.build().expect("fleet builds"), "127.0.0.1:0").expect("bind loopback");
    let addr = server.local_addr().expect("local addr").to_string();
    let shutdown = server.shutdown_flag();
    let server_thread = std::thread::spawn(move || server.serve());

    let tenant = &cfg.tenants[0].name;
    let tid = reference.tenant_id(tenant).expect("tenant registered");
    let mut r = rng::seeded(907);
    let xs: Vec<Tensor> = (0..8)
        .map(|_| init::uniform(&INPUT_SHAPE, -1.0, 1.0, &mut r))
        .collect();

    let (baseline_ms, inproc) = time_best(reps, || {
        reference
            .infer_many(tid, xs.clone())
            .expect("burst accepted")
            .into_iter()
            .map(|res| res.expect("inference succeeds").output)
            .collect::<Vec<_>>()
    });

    let mut client = Client::connect(&addr).expect("connect");
    let (optimized_ms, wire_out) = time_best(reps, || {
        let ids: Vec<u64> = xs
            .iter()
            .map(|x| client.submit(tenant, x.clone()).expect("submit"))
            .collect();
        let mut by_id = std::collections::HashMap::new();
        for _ in &ids {
            let resp = client.recv_reply().expect("recv").expect("no error frames");
            by_id.insert(resp.id, resp.output);
        }
        ids.iter()
            .map(|id| by_id.remove(id).expect("every id answered"))
            .collect::<Vec<Tensor>>()
    });
    client.close().expect("orderly close");
    let diff = inproc
        .iter()
        .zip(&wire_out)
        .map(|(a, b)| max_abs_diff(a.data(), b.data()))
        .fold(0.0, f64::max);
    entries.push(Entry {
        name: "serve_tcp_resnet_burst8".to_string(),
        baseline_ms,
        optimized_ms,
        speedup: baseline_ms / optimized_ms,
        max_abs_diff: diff,
    });

    shutdown.store(true, Ordering::SeqCst);
    server_thread
        .join()
        .expect("server thread")
        .expect("server drains cleanly");
}

/// The patch walk `Epitome::repetition_map` replaced: every kx run of
/// every patch bumps the epitome elements it reads, one increment per
/// *convolution* element.
fn patch_walk_repetition_map(epi: &Epitome) -> Tensor {
    let (conv, shape) = (epi.spec().conv(), epi.spec().shape());
    let (e1, e2, e3) = (shape.cin * shape.h * shape.w, shape.h * shape.w, shape.w);
    let mut counts = vec![0.0f32; shape.params()];
    for patch in epi.spec().plan().patches() {
        for a in 0..patch.size[0] {
            for b in 0..patch.size[1] {
                for c in 0..patch.size[2] {
                    let src = (patch.src[0] + a) * e1
                        + (patch.src[1] + b) * e2
                        + (patch.src[2] + c) * e3
                        + patch.src[3];
                    for n in &mut counts[src..src + patch.size[3]] {
                        *n += 1.0;
                    }
                }
            }
        }
    }
    debug_assert_eq!(counts.iter().sum::<f32>() as usize, conv.params());
    Tensor::from_vec(counts, &shape.dims()).expect("one count per epitome element")
}

/// The per-element `quantize_epitome` the slice kernel replaced, for
/// per-crossbar tiles with overlap-weighted ranges: both tensors
/// transposed to matrix form through `from_fn`/`at`, a gathered `Vec` per
/// tile, scalar quantize/dequantize through `at`/`set`, a scatter back and
/// a whole-epitome clone.
fn per_element_quantize_epitome(
    epi: &Epitome,
    bits: u8,
    (tile_rows, tile_cols): (usize, usize),
    (w1, w2): (f32, f32),
) -> (Epitome, QuantReport) {
    let shape = epi.spec().shape();
    let (rows, cols) = (shape.matrix_rows(), shape.cout);
    let to_matrix = |t: &Tensor| {
        Tensor::from_fn(&[rows, cols], |idx| {
            let (row, co) = (idx[0], idx[1]);
            let (x, y) = (row % shape.w, (row / shape.w) % shape.h);
            t.at(&[co, row / (shape.w * shape.h), y, x])
        })
    };
    let matrix = to_matrix(epi.tensor());
    let reps = to_matrix(&patch_walk_repetition_map(epi));
    let (w1, w2) = (w1 / (w1 + w2), w2 / (w1 + w2));
    let mut out = matrix.clone();
    let mut groups = 0;
    for r0 in (0..rows).step_by(tile_rows) {
        for c0 in (0..cols).step_by(tile_cols) {
            let (r1, c1) = ((r0 + tile_rows).min(rows), (c0 + tile_cols).min(cols));
            let (mut vals, mut counts) = (Vec::new(), Vec::new());
            for r in r0..r1 {
                for c in c0..c1 {
                    vals.push(matrix.at(&[r, c]));
                    counts.push(reps.at(&[r, c]));
                }
            }
            let threshold = counts.iter().copied().fold(f32::INFINITY, f32::min);
            let mut ov = (f32::INFINITY, f32::NEG_INFINITY);
            let mut rest = ov;
            for (&v, &c) in vals.iter().zip(&counts) {
                let slot = if c > threshold { &mut ov } else { &mut rest };
                *slot = (slot.0.min(v), slot.1.max(v));
            }
            let ov = if ov.0.is_finite() { ov } else { rest };
            let rest = if rest.0.is_finite() { rest } else { ov };
            let (alpha, beta) = (w1 * ov.0 + w2 * rest.0, w1 * ov.1 + w2 * rest.1);
            let q = Quantizer::from_range(bits, alpha.min(beta), alpha.max(beta))
                .expect("finite weights");
            groups += 1;
            for r in r0..r1 {
                for c in c0..c1 {
                    let v = q.dequantize(q.quantize(matrix.at(&[r, c])));
                    out.set(&[r, c], v).expect("inside the matrix");
                }
            }
        }
    }
    let mse = matrix.mse(&out).expect("same shape") as f64;
    let p_sig = matrix.norm_sq() as f64 / matrix.len() as f64;
    let report = QuantReport {
        bits,
        groups,
        mse,
        sqnr_db: 10.0 * (p_sig / mse).log10(),
    };
    let data = Tensor::from_fn(&shape.dims(), |idx| {
        out.at(&[(idx[1] * shape.h + idx[2]) * shape.w + idx[3], idx[0]])
    });
    let mut quantized = epi.clone();
    quantized.set_tensor(data).expect("same shape");
    (quantized, report)
}

/// The design-time kernels against the per-element implementations they
/// replaced, each a hard `0` gate:
/// - `quantize_epitome_1024x256_3bit_xbar_overlap`: the paper's uniform
///   epitome at 3 bits, one scale per 128x128 crossbar, overlap-weighted
///   ranges; the diff covers the values and both report figures;
/// - `repetition_map_512x512x3x3`: the separable product against the patch
///   walk on the same epitome shape for a 512->512 3x3 layer;
/// - `evo_search_r50_40x32`: the evaluations of one published-size search
///   (40 generations of 32) over the ResNet-50 problem, a fixed stream of
///   genomes: simulating every layer of every genome against building the
///   cost table once and summing entries; the diff covers reward, latency,
///   energy, utilization and crossbars;
/// - `kaiming_normal_1024x256x3x3_blocks`: the block-parallel initializer
///   against the serial `from_fn` loop, weights and the generator's end
///   state.
fn bench_design_time(entries: &mut Vec<Entry>, reps: usize) {
    let design = |conv| {
        let spec = EpitomeDesigner::new(128, 128)
            .design(conv, 1024, 256)
            .expect("legal design");
        let data = init::kaiming_normal(&spec.shape().dims(), &mut rng::seeded(1600));
        Epitome::from_tensor(spec, data).expect("shape matches")
    };

    let epi = design(ConvShape::new(512, 256, 3, 3));
    let overlap = RangeEstimator::overlap_default();
    let RangeEstimator::OverlapWeighted { w1, w2 } = overlap else {
        unreachable!("the default is overlap-weighted")
    };
    let (baseline_ms, (q_base, rep_base)) = time_best(reps, || {
        per_element_quantize_epitome(&epi, 3, (128, 128), (w1, w2))
    });
    let tiles = QuantGranularity::PerCrossbar {
        rows: 128,
        cols: 128,
    };
    let (optimized_ms, (q_opt, rep_opt)) = time_best(reps, || {
        quantize_epitome(&epi, 3, tiles, &overlap).expect("quantizes")
    });
    assert_eq!(rep_base.groups, rep_opt.groups);
    entries.push(Entry {
        name: "quantize_epitome_1024x256_3bit_xbar_overlap".to_string(),
        baseline_ms,
        optimized_ms,
        speedup: baseline_ms / optimized_ms,
        max_abs_diff: max_abs_diff(q_base.tensor().data(), q_opt.tensor().data())
            .max((rep_base.mse - rep_opt.mse).abs())
            .max((rep_base.sqnr_db - rep_opt.sqnr_db).abs()),
    });

    let epi = design(ConvShape::new(512, 512, 3, 3));
    // Eight maps per timed call: one separable map takes ~40 us, too
    // short for a steady ratio.
    let eight = |map: &dyn Fn() -> Tensor| {
        let mut last = map();
        for _ in 1..8 {
            last = map();
        }
        last
    };
    let (baseline_ms, reps_base) = time_best(reps, || eight(&|| patch_walk_repetition_map(&epi)));
    let (optimized_ms, reps_opt) = time_best(reps, || eight(&|| epi.repetition_map()));
    entries.push(Entry {
        name: "repetition_map_512x512x3x3".to_string(),
        baseline_ms,
        optimized_ms,
        speedup: baseline_ms / optimized_ms,
        max_abs_diff: max_abs_diff(reps_base.data(), reps_opt.data()),
    });

    let layers: Vec<SearchLayer> = search_problem(&resnet50())
        .into_iter()
        .map(|(_, layer)| layer)
        .collect();
    let (model, precision) = (cost_model(true), Precision::new(9, 9));
    let mut r = rng::seeded(1601);
    let genomes: Vec<Vec<usize>> = (0..40 * 32)
        .map(|_| {
            layers
                .iter()
                .map(|l| rng::uniform(&mut r, 0.0, l.candidates.len() as f32) as usize)
                .collect()
        })
        .collect();
    // The default configuration maximises `1 / latency` with no budget.
    let figures = |c: &LayerCosts, reward: f64| {
        [
            reward,
            c.latency_ns,
            c.energy_pj,
            c.utilization,
            c.crossbars as f64,
        ]
    };
    let (baseline_ms, base) = time_best(reps, || {
        genomes
            .iter()
            .map(|g| {
                let total = layers
                    .iter()
                    .zip(g)
                    .map(|(l, &gi)| model.epitome_layer(&l.candidates[gi], l.out_pixels, precision))
                    .reduce(|total, c| total.combine(&c))
                    .expect("at least one layer");
                figures(&total, 1.0 / total.latency_ns)
            })
            .collect::<Vec<_>>()
    });
    // `EvoSearch::new` takes its layers by value: one copy per timed call,
    // made outside the timing.
    let mut copies: Vec<_> = (0..=reps).map(|_| layers.clone()).collect();
    let (optimized_ms, opt) = time_best(reps, || {
        let layers = copies.pop().expect("one copy per call");
        let search = EvoSearch::new(layers, model, precision, SearchConfig::default())
            .expect("valid problem");
        genomes
            .iter()
            .map(|g| {
                let (total, reward) = search.evaluate(g);
                figures(&total, reward)
            })
            .collect::<Vec<_>>()
    });
    entries.push(Entry {
        name: "evo_search_r50_40x32".to_string(),
        baseline_ms,
        optimized_ms,
        speedup: baseline_ms / optimized_ms,
        max_abs_diff: base
            .iter()
            .flatten()
            .zip(opt.iter().flatten())
            .map(|(a, b)| (a - b).abs())
            .fold(0.0, f64::max),
    });

    // The block-parallel Kaiming fill against the serial loop it replaced;
    // the diff also covers where each leaves the caller's generator.
    let shape = [1024, 256, 3, 3];
    let std = (2.0f32 / (256 * 9) as f32).sqrt();
    let (baseline_ms, (w_base, r_base)) = time_best(reps, || {
        let mut r = rng::seeded(1602);
        let w = Tensor::from_fn(&shape, |_| rng::normal(&mut r, 0.0, std));
        (w, r)
    });
    let (optimized_ms, (w_opt, r_opt)) = time_best(reps, || {
        let mut r = rng::seeded(1602);
        (init::kaiming_normal(&shape, &mut r), r)
    });
    let next_draw_diff = if r_base == r_opt { 0.0 } else { 1.0 };
    entries.push(Entry {
        name: "kaiming_normal_1024x256x3x3_blocks".to_string(),
        baseline_ms,
        optimized_ms,
        speedup: baseline_ms / optimized_ms,
        max_abs_diff: max_abs_diff(w_base.data(), w_opt.data()).max(next_draw_diff),
    });
}

/// Compares a fresh report against the committed baseline, returning one
/// message per violated gate (empty = pass). Only identity and coverage
/// gate; timings never do.
fn regressions(baseline: &Report, fresh: &Report) -> Vec<String> {
    let mut problems = Vec::new();
    for base in &baseline.entries {
        match fresh.entries.iter().find(|e| e.name == base.name) {
            None => problems.push(format!(
                "{}: entry missing from the fresh run (the list is append-only)",
                base.name
            )),
            Some(now) if base.max_abs_diff == 0.0 && now.max_abs_diff != 0.0 => {
                problems.push(format!(
                    "{}: bit-identity gate broken (max|diff| {} was exactly 0 in the baseline)",
                    base.name, now.max_abs_diff
                ))
            }
            Some(_) => {}
        }
    }
    problems
}

/// Runs the full sweep at the given repetition count.
fn run_sweep(reps: usize) -> Report {
    let mut entries = Vec::new();
    bench_gemm(&mut entries, reps, &[128, 256, 512]);
    bench_conv(&mut entries, reps);
    bench_datapath(&mut entries, reps);
    bench_reconstruct(&mut entries, reps);
    bench_runtime(&mut entries, reps);
    bench_pool(&mut entries, reps);
    bench_conv_batched(&mut entries, reps);
    bench_network(&mut entries, reps);
    bench_tenancy(&mut entries, reps);
    bench_fusion(&mut entries, reps);
    bench_tracing(&mut entries, reps);
    bench_faults(&mut entries, reps);
    bench_simd_ops(&mut entries, reps);
    bench_serve_tcp(&mut entries, reps);
    bench_datapath_mvm(&mut entries, reps);
    bench_conv_r50(&mut entries, reps);
    bench_design_time(&mut entries, reps);
    Report {
        schema_version: 1,
        generated_by: "epim-bench bench_kernels".to_string(),
        num_threads: epim::tensor::ops::gemm::num_threads_in_use(),
        entries,
    }
}

fn print_report(report: &Report) {
    println!(
        "{:<44} {:>12} {:>12} {:>9} {:>12}",
        "kernel", "seed (ms)", "now (ms)", "speedup", "max|diff|"
    );
    for e in &report.entries {
        println!(
            "{:<44} {:>12.3} {:>12.3} {:>8.2}x {:>12.2e}",
            e.name, e.baseline_ms, e.optimized_ms, e.speedup, e.max_abs_diff
        );
    }
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let quick = args.iter().any(|a| a == "--quick");
    let check: Option<String> = args.iter().position(|a| a == "--check").map(|i| {
        // The baseline path is optional; a following flag is not a path.
        match args.get(i + 1) {
            Some(next) if !next.starts_with("--") => next.clone(),
            _ => "BENCH_kernels.json".to_string(),
        }
    });
    // The gate runs at --quick reps: it checks identity, not timings.
    let reps = if quick || check.is_some() { 3 } else { 7 };

    let mut report = run_sweep(reps);
    let Some(baseline_path) = check else {
        // The committed baseline is what every future CI gate run is
        // measured against, so commit a *stable* estimate: three sweeps,
        // per-entry median by speedup (and the worst observed
        // max_abs_diff — correctness is never averaged away).
        let more = [run_sweep(reps), run_sweep(reps)];
        for entry in &mut report.entries {
            // (speedup, baseline_ms, optimized_ms, max_abs_diff) per run.
            let mut candidates: Vec<(f64, f64, f64, f64)> = more
                .iter()
                .filter_map(|r| r.entries.iter().find(|e| e.name == entry.name))
                .map(|e| (e.speedup, e.baseline_ms, e.optimized_ms, e.max_abs_diff))
                .collect();
            candidates.push((
                entry.speedup,
                entry.baseline_ms,
                entry.optimized_ms,
                entry.max_abs_diff,
            ));
            candidates.sort_by(|a, b| a.0.total_cmp(&b.0));
            let (speedup, baseline_ms, optimized_ms, _) = candidates[candidates.len() / 2];
            entry.speedup = speedup;
            entry.baseline_ms = baseline_ms;
            entry.optimized_ms = optimized_ms;
            entry.max_abs_diff = candidates.iter().map(|c| c.3).fold(0.0, f64::max);
        }
        print_report(&report);
        let json = serde_json::to_string_pretty(&report).expect("report serializes");
        std::fs::write("BENCH_kernels.json", json + "\n").expect("BENCH_kernels.json writable");
        println!("\nwrote BENCH_kernels.json");
        return;
    };

    let baseline_json = std::fs::read_to_string(&baseline_path)
        .unwrap_or_else(|e| panic!("cannot read baseline {baseline_path}: {e}"));
    let baseline: Report = serde_json::from_str(&baseline_json).expect("baseline parses");
    let problems = regressions(&baseline, &report);
    print_report(&report);
    // Never clobber the committed baseline from the gate; the fresh
    // report goes to a sibling file (uploaded by CI as an artifact).
    let json = serde_json::to_string_pretty(&report).expect("report serializes");
    std::fs::write("BENCH_kernels.check.json", json + "\n")
        .expect("BENCH_kernels.check.json writable");
    println!("\nwrote BENCH_kernels.check.json");
    if problems.is_empty() {
        println!(
            "bench gate: PASS ({} entries present, every exact-0 entry still 0 in {baseline_path})",
            baseline.entries.len()
        );
    } else {
        eprintln!("bench gate: FAIL against {baseline_path}");
        for p in &problems {
            eprintln!("  - {p}");
        }
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(name: &str, speedup: f64, max_abs_diff: f64) -> Entry {
        Entry {
            name: name.to_string(),
            baseline_ms: speedup,
            optimized_ms: 1.0,
            speedup,
            max_abs_diff,
        }
    }

    fn report(entries: Vec<Entry>) -> Report {
        Report {
            schema_version: 1,
            generated_by: "test".to_string(),
            num_threads: 1,
            entries,
        }
    }

    #[test]
    fn an_inflated_committed_speedup_passes() {
        let baseline = report(vec![entry("k", 7.21, 0.0)]);
        let fresh = report(vec![entry("k", 1.03, 0.0)]);
        assert!(regressions(&baseline, &fresh).is_empty());
    }

    #[test]
    fn any_diff_on_an_exact_zero_entry_fails() {
        let baseline = report(vec![entry("k", 1.0, 0.0)]);
        let fresh = report(vec![entry("k", 1.0, 1e-7)]);
        let problems = regressions(&baseline, &fresh);
        assert_eq!(problems.len(), 1);
        assert!(problems[0].contains("bit-identity"), "{problems:?}");
    }

    #[test]
    fn a_missing_entry_fails() {
        let baseline = report(vec![entry("a", 1.0, 1e-6), entry("b", 1.0, 1e-6)]);
        let fresh = report(vec![entry("a", 1.0, 1e-6)]);
        let problems = regressions(&baseline, &fresh);
        assert_eq!(problems.len(), 1);
        assert!(problems[0].starts_with("b: entry missing"), "{problems:?}");
    }

    #[test]
    fn a_nonzero_diff_entry_never_fails() {
        let baseline = report(vec![entry("k", 3.0, 1e-6)]);
        let fresh = report(vec![entry("k", 0.1, 1.0)]);
        assert!(regressions(&baseline, &fresh).is_empty());
    }
}
