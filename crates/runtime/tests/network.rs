//! Integration tests for whole-network serving: a one-tenant
//! `MultiEngine` must be **bit-identical** to sequential per-stage
//! reference execution (outputs and `DataPathStats` rollup), the bounded
//! queue must shed `try_infer` and make `infer` wait, and plan-cache
//! warming must make compilation miss-free.

use epim_core::{ConvShape, EpitomeDesigner, EpitomeSpec};
use epim_models::lower::NetworkWeights;
use epim_models::network::{Network, OperatorChoice};
use epim_models::resnet::{resnet50, Backbone, LayerInfo};
use epim_models::zoo;
use epim_pim::datapath::{AnalogModel, DataPathStats};
use epim_runtime::{MultiEngine, NetworkPlan, PlanCache, RuntimeError, TenantConfig, TenantId};
use epim_tensor::{init, rng, Tensor};
use proptest::prelude::*;
use std::sync::Arc;
use std::time::Duration;

fn layer(name: &str, conv: ConvShape, res: usize) -> LayerInfo {
    LayerInfo {
        name: name.to_string(),
        conv,
        out_h: res,
        out_w: res,
    }
}

fn window(max_batch: usize, ms: u64) -> TenantConfig {
    TenantConfig {
        max_batch,
        batch_window: Duration::from_millis(ms),
        ..TenantConfig::default()
    }
}

/// The zoo's tiny ResNet (stem 8, inner width 4, 10 classes) with its two
/// 3×3 convolutions replaced by a shared epitome spec (so the plan cache
/// can pay off across layers).
fn tiny_resnet_network() -> (Network, EpitomeSpec) {
    zoo::tiny_epitome_network(8, 4, 10).unwrap()
}

/// A one-tenant fleet serving `net` with `workers` scheduler threads.
fn fleet(
    net: &Network,
    weights: &NetworkWeights,
    input_hw: (usize, usize),
    analog: AnalogModel,
    config: TenantConfig,
    workers: usize,
) -> (MultiEngine, TenantId) {
    let mut builder = MultiEngine::builder(&PlanCache::new()).workers(workers);
    let id = builder
        .register("net", net, weights, input_hw, true, analog, config)
        .unwrap();
    (builder.build().unwrap(), id)
}

/// The zoo network's default fleet: ideal analog model, one worker.
fn tiny_fleet(seed: u64, config: TenantConfig) -> (MultiEngine, TenantId) {
    let (net, _) = tiny_resnet_network();
    let weights = NetworkWeights::random(&net, seed).unwrap();
    fleet(&net, &weights, (16, 16), AnalogModel::ideal(), config, 1)
}

/// Serves `requests` through a fresh fleet and checks outputs and stats
/// against sequential per-request reference execution, bit for bit.
fn assert_serves_like_reference(
    net: &Network,
    weights: &NetworkWeights,
    input_hw: (usize, usize),
    analog: AnalogModel,
    config: TenantConfig,
    workers: usize,
    requests: Vec<Tensor>,
) {
    let prog = net.lower(input_hw.0, input_hw.1).unwrap();
    let mut want_stats = DataPathStats::default();
    let want: Vec<Tensor> = requests
        .iter()
        .map(|x| {
            let (y, s) = prog.forward_reference(weights, true, analog, x).unwrap();
            want_stats.accumulate(&s);
            y
        })
        .collect();

    let (engine, id) = fleet(net, weights, input_hw, analog, config, workers);
    let results = engine.infer_many(id, requests).unwrap();
    for (i, (res, w)) in results.iter().zip(&want).enumerate() {
        let inference = res.as_ref().expect("inference succeeds");
        assert_eq!(inference.output, *w, "request {i} diverged from reference");
    }
    let stats = engine.fleet_stats();
    assert_eq!(stats.requests, want.len() as u64);
    assert_eq!(
        stats.datapath, want_stats,
        "stats rollup diverged from sequential reference"
    );
}

/// The tentpole invariant on the ResNet-style network: a burst served
/// through the pipelined engine equals per-request reference execution.
#[test]
fn resnet_style_network_serves_bit_identically() {
    let (net, _) = tiny_resnet_network();
    let weights = NetworkWeights::random(&net, 11).unwrap();
    let analog = AnalogModel {
        adc_bits: Some(8),
        dac_bits: Some(9),
        ..AnalogModel::ideal()
    };
    let mut r = rng::seeded(12);
    let requests: Vec<Tensor> = (0..8)
        .map(|_| init::uniform(&[1, 3, 16, 16], -1.0, 1.0, &mut r))
        .collect();
    assert_serves_like_reference(&net, &weights, (16, 16), analog, window(4, 20), 1, requests);
}

/// Same invariant with pipelined workers and mixed request sizes (N=1 and
/// N=2 requests form their own shape groups).
#[test]
fn pipelined_workers_and_mixed_batch_sizes_stay_bit_identical() {
    let (net, _) = tiny_resnet_network();
    let weights = NetworkWeights::random(&net, 21).unwrap();
    let mut r = rng::seeded(22);
    let requests: Vec<Tensor> = (0..10)
        .map(|i| init::uniform(&[1 + (i % 2), 3, 16, 16], -1.0, 1.0, &mut r))
        .collect();
    assert_serves_like_reference(
        &net,
        &weights,
        (16, 16),
        AnalogModel::ideal(),
        window(4, 10),
        3,
        requests,
    );
}

// Random small chain networks with random epitome choices: the property
// form of the tentpole invariant.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn network_engine_matches_reference_on_random_networks(
        c0 in 2usize..=6,
        c1 in 2usize..=6,
        classes in 2usize..=8,
        epi0 in any::<bool>(),
        epi1 in any::<bool>(),
        quantized in any::<bool>(),
        workers in 1usize..=3,
        seed in 0u64..10_000,
    ) {
        let bb = Backbone {
            name: "chain".to_string(),
            layers: vec![
                layer("l0", ConvShape::new(c0, 3, 3, 3), 8),
                layer("l1", ConvShape::new(c1, c0, 3, 3), 4),
                layer("head", ConvShape::new(classes, c1, 1, 1), 1),
            ],
        };
        let designer = EpitomeDesigner::new(16, 16);
        let mut net = Network::baseline(bb.clone());
        if epi0 {
            let conv = bb.layers[0].conv;
            let spec = designer.design(conv, conv.matrix_rows() / 2, c0).unwrap();
            net.set_choice(0, OperatorChoice::Epitome(spec)).unwrap();
        }
        if epi1 {
            let conv = bb.layers[1].conv;
            let spec =
                designer.design(conv, conv.matrix_rows() / 2, (c1 / 2).max(1)).unwrap();
            net.set_choice(1, OperatorChoice::Epitome(spec)).unwrap();
        }
        let weights = NetworkWeights::random(&net, seed).unwrap();
        let analog = if quantized {
            AnalogModel {
                weight_noise_std: 0.02,
                adc_bits: Some(8),
                dac_bits: Some(9),
                noise_seed: seed,
                ..AnalogModel::ideal()
            }
        } else {
            AnalogModel::ideal()
        };
        let mut r = rng::seeded(seed ^ 0x9e37);
        let requests: Vec<Tensor> =
            (0..5).map(|_| init::uniform(&[1, 3, 8, 8], -1.0, 1.0, &mut r)).collect();
        assert_serves_like_reference(
            &net,
            &weights,
            (8, 8),
            analog,
            window(3, 10),
            workers,
            requests,
        );
    }
}

/// Warming the cache with the network's specs makes plan compilation
/// miss-free, and the engine surfaces the cache counters in its stats.
#[test]
fn warmed_cache_compiles_with_zero_misses() {
    let (net, spec) = tiny_resnet_network();
    let weights = NetworkWeights::random(&net, 31).unwrap();
    let cache = PlanCache::new();
    let plans = cache.warm_network(&net).unwrap();
    assert_eq!(plans.len(), 2, "two epitome layers");
    assert_eq!(cache.stats().entries, 1, "shared spec compiles once");
    let misses_after_warm = cache.stats().misses;
    assert_eq!(misses_after_warm, 1);

    let plan = Arc::new(
        NetworkPlan::compile(
            &cache,
            &net,
            &weights,
            (16, 16),
            true,
            AnalogModel::ideal(),
            true,
        )
        .unwrap(),
    );
    assert_eq!(
        cache.stats().misses,
        misses_after_warm,
        "warm compilation must not miss"
    );
    assert_eq!(plan.program().epitome_specs(), vec![&spec]);

    // The fleet reports the shared cache's counters.
    let mut builder = MultiEngine::builder(&cache);
    builder
        .register_plan("net", plan, TenantConfig::default())
        .unwrap();
    let stats = builder.build().unwrap().fleet_stats();
    assert_eq!(stats.plan_cache.misses, misses_after_warm);
    assert_eq!(stats.plan_cache.entries, 1);
    assert!(stats.plan_cache.hits >= 2);
}

/// `try_infer` sheds at once when the bounded queue is full; nothing
/// hangs.
#[test]
fn shed_policy_rejects_under_load() {
    let (engine, id) = tiny_fleet(
        41,
        TenantConfig {
            max_batch: 4,
            // A long window parks the queued requests in the queue while
            // the scheduler waits for the batch to fill.
            batch_window: Duration::from_millis(400),
            queue_capacity: 2,
        },
    );
    let x = || init::uniform(&[1, 3, 16, 16], -1.0, 1.0, &mut rng::seeded(43));

    std::thread::scope(|scope| {
        // Two requests fill the queue and sit in the coalescing window.
        let h1 = scope.spawn({
            let engine = &engine;
            let x = x();
            move || engine.infer(id, x)
        });
        let h2 = scope.spawn({
            let engine = &engine;
            let x = x();
            move || engine.infer(id, x)
        });
        std::thread::sleep(Duration::from_millis(100));
        // The queue is full: try_infer sheds immediately.
        let shed = engine.try_infer(id, x(), |_| {});
        assert!(
            matches!(shed, Err(RuntimeError::Overloaded { capacity: 2, .. })),
            "{shed:?}"
        );
        // The queued requests still complete once the window expires.
        assert!(h1.join().unwrap().is_ok());
        assert!(h2.join().unwrap().is_ok());
    });
    let stats = engine.fleet_stats();
    assert_eq!(stats.shed, 1, "shed counter must record the rejection");
    assert_eq!(stats.requests, 2);
    assert_eq!(stats.queue_depth, 0);
}

/// `infer` waits for queue space but never drops: every submission beyond
/// the queue capacity completes.
#[test]
fn block_policy_never_drops() {
    let (engine, id) = tiny_fleet(
        51,
        TenantConfig {
            max_batch: 2,
            batch_window: Duration::ZERO,
            queue_capacity: 2,
        },
    );
    const CLIENTS: usize = 4;
    const PER_CLIENT: usize = 4;
    std::thread::scope(|scope| {
        for c in 0..CLIENTS {
            let engine = &engine;
            scope.spawn(move || {
                let mut r = rng::seeded(60 + c as u64);
                for _ in 0..PER_CLIENT {
                    let x = init::uniform(&[1, 3, 16, 16], -1.0, 1.0, &mut r);
                    engine.infer(id, x).expect("infer never sheds");
                }
            });
        }
    });
    let stats = engine.fleet_stats();
    assert_eq!(stats.requests, (CLIENTS * PER_CLIENT) as u64);
    assert_eq!(stats.shed, 0);
    assert_eq!(stats.queue_depth, 0);
}

/// Invalid configurations and oversized bursts fail with typed errors
/// instead of hanging or panicking a scheduler thread.
#[test]
fn invalid_configs_rejected_with_typed_errors() {
    let (net, _) = tiny_resnet_network();
    let weights = NetworkWeights::random(&net, 61).unwrap();
    let cache = PlanCache::new();
    let register = |builder: &mut epim_runtime::MultiEngineBuilder, config: TenantConfig| {
        builder.register(
            "net",
            &net,
            &weights,
            (16, 16),
            true,
            AnalogModel::ideal(),
            config,
        )
    };
    for bad in [
        TenantConfig {
            max_batch: 0,
            ..TenantConfig::default()
        },
        TenantConfig {
            queue_capacity: 0,
            ..TenantConfig::default()
        },
    ] {
        let mut builder = MultiEngine::builder(&cache);
        assert!(
            matches!(
                register(&mut builder, bad),
                Err(RuntimeError::InvalidConfig { .. })
            ),
            "{bad:?}"
        );
    }
    let mut builder = MultiEngine::builder(&cache).workers(0);
    register(&mut builder, TenantConfig::default()).unwrap();
    assert!(matches!(
        builder.build(),
        Err(RuntimeError::InvalidConfig { .. })
    ));

    // A burst larger than the queue can ever hold fails whole.
    let mut builder = MultiEngine::builder(&cache);
    let id = register(
        &mut builder,
        TenantConfig {
            queue_capacity: 2,
            ..TenantConfig::default()
        },
    )
    .unwrap();
    let engine = builder.build().unwrap();
    let mut r = rng::seeded(62);
    let burst: Vec<Tensor> = (0..3)
        .map(|_| init::uniform(&[1, 3, 16, 16], -1.0, 1.0, &mut r))
        .collect();
    assert!(matches!(
        engine.infer_many(id, burst),
        Err(RuntimeError::InvalidConfig { .. })
    ));

    // Bad requests fail alone without poisoning the engine.
    let wrong_channels = Tensor::zeros(&[1, 5, 16, 16]);
    assert!(matches!(
        engine.infer(id, wrong_channels),
        Err(RuntimeError::Pim(_))
    ));
    let good = init::uniform(&[1, 3, 16, 16], -1.0, 1.0, &mut r);
    assert!(engine.infer(id, good).is_ok());
}

/// The graph-fusion pass is invisible to callers: a fused tenant and an
/// unfused one (`NetworkPlan::compile(.., false)` through
/// `register_plan`) serve bitwise-identical outputs and stats, equal to
/// sequential reference execution, while the fused plan runs fewer
/// stages, and both activation arenas stay below the footprint of every
/// activation kept resident.
#[test]
fn fused_engine_matches_unfused_and_shrinks_the_arena() {
    let (net, _) = tiny_resnet_network();
    let weights = NetworkWeights::random(&net, 81).unwrap();
    let analog = AnalogModel {
        adc_bits: Some(8),
        dac_bits: Some(9),
        ..AnalogModel::ideal()
    };
    let mut r = rng::seeded(82);
    let requests: Vec<Tensor> = (0..8)
        .map(|_| init::uniform(&[1, 3, 16, 16], -1.0, 1.0, &mut r))
        .collect();
    let serve = |optimize: bool| {
        let cache = PlanCache::new();
        let plan =
            NetworkPlan::compile(&cache, &net, &weights, (16, 16), true, analog, optimize).unwrap();
        let mut builder = MultiEngine::builder(&cache);
        let id = builder
            .register_plan("net", Arc::new(plan), window(4, 10))
            .unwrap();
        let engine = builder.build().unwrap();
        let outs: Vec<Tensor> = engine
            .infer_many(id, requests.clone())
            .unwrap()
            .into_iter()
            .map(|res| res.unwrap().output)
            .collect();
        let stages = engine.plan(id).unwrap().program().stages().len();
        (outs, engine.fleet_stats(), stages)
    };
    let (fused_outs, fused_stats, fused_stages) = serve(true);
    let (raw_outs, raw_stats, raw_stages) = serve(false);
    assert_eq!(fused_outs, raw_outs, "fusion must be bitwise invisible");
    assert_eq!(fused_stats.datapath, raw_stats.datapath);
    assert!(fused_stages < raw_stages, "relu stages must fold away");
    // The unfused pipeline is itself the sequential reference, bitwise.
    let raw_prog = net.lower(16, 16).unwrap();
    for (x, got) in requests.iter().zip(&raw_outs) {
        let (want, _) = raw_prog
            .forward_reference(&weights, true, analog, x)
            .unwrap();
        assert_eq!(*got, want, "unfused serving diverged from reference");
    }
    // Both liveness-planned arenas stay strictly below keeping every
    // unfused activation (and the source) resident for a full group.
    let resident: usize = raw_prog.input_shape().iter().product::<usize>()
        + raw_prog
            .stages()
            .iter()
            .map(|s| s.out_shape.iter().product::<usize>())
            .sum::<usize>();
    let resident_bytes = (resident * 4 * std::mem::size_of::<f32>()) as u64;
    assert!(fused_stats.arena_bytes > 0);
    assert!(fused_stats.arena_bytes < resident_bytes);
    assert!(raw_stats.arena_bytes < resident_bytes);
    assert!(
        fused_stats.arena_bytes <= raw_stats.arena_bytes,
        "fusion must never grow the arena"
    );
}

/// A heavy plan splits every group whose size is a multiple of the pool
/// width into one sub-batch per pool thread, and serving stays bitwise
/// equal to per-request reference execution for every group size up to
/// two full splits, down to the summed `DataPathStats`. Each stage still
/// counts one call per group.
#[test]
fn heavy_plan_splits_groups_and_stays_bit_identical() {
    // Uniform-epitome ResNet-50 at 32×32: its stem convolution (2.4 M
    // multiply-adds) and stage-1 epitome stages (16 384 outputs) each fork
    // across the pool for a single image.
    let net =
        Network::uniform_epitome(resnet50(), &EpitomeDesigner::new(128, 128), 1024, 256).unwrap();
    let weights = NetworkWeights::random(&net, 91).unwrap();
    let analog = AnalogModel {
        adc_bits: Some(8),
        dac_bits: Some(9),
        ..AnalogModel::ideal()
    };
    let width = epim_parallel::num_threads();
    let (engine, id) = fleet(&net, &weights, (32, 32), analog, window(2 * width, 0), 1);
    let plan = engine.plan(id).unwrap();
    let prog = net.lower(32, 32).unwrap();
    let mut r = rng::seeded(92);
    let mut want_stats = DataPathStats::default();
    for group in 1..=2 * width {
        let splits = width >= 2 && group % width == 0;
        assert_eq!(plan.sub_batches(group), if splits { width } else { 1 });
        let requests: Vec<Tensor> = (0..group)
            .map(|_| init::uniform(&[1, 3, 32, 32], -1.0, 1.0, &mut r))
            .collect();
        let results = engine.infer_many(id, requests.clone()).unwrap();
        for (x, res) in requests.iter().zip(results) {
            let (want, s) = prog.forward_reference(&weights, true, analog, x).unwrap();
            want_stats.accumulate(&s);
            let inference = res.unwrap();
            assert_eq!(inference.batch_size, group, "one burst is one group");
            assert!(
                inference
                    .output
                    .data()
                    .iter()
                    .zip(want.data())
                    .all(|(a, b)| a.to_bits() == b.to_bits()),
                "group of {group} diverged from reference"
            );
        }
    }
    let stats = engine.fleet_stats();
    assert_eq!(stats.datapath, want_stats);
    assert_eq!(stats.batches, 2 * width as u64);
    assert!(stats.stages.iter().all(|s| s.calls == 2 * width as u64));
}

/// The paper's baseline row served: dense ResNet-50 at 64×64, in groups
/// of 1 to twice the pool width, equals per-request reference execution
/// bit for bit. Its classifier is the 1000×2048 product on packed weights,
/// and its stage-4 3×3 convolutions (K = 4608) span 18 `KC` slices.
#[test]
fn dense_resnet50_serves_bit_identically() {
    let net = Network::baseline(resnet50());
    let weights = NetworkWeights::random(&net, 93).unwrap();
    let width = epim_parallel::num_threads();
    let analog = AnalogModel::ideal();
    let (engine, id) = fleet(&net, &weights, (64, 64), analog, window(2 * width, 0), 1);
    let prog = net.lower(64, 64).unwrap();
    let mut r = rng::seeded(94);
    let inputs: Vec<Tensor> = (0..2 * width)
        .map(|_| init::uniform(&[1, 3, 64, 64], -1.0, 1.0, &mut r))
        .collect();
    let wants: Vec<Tensor> = inputs
        .iter()
        .map(|x| prog.forward_reference(&weights, true, analog, x).unwrap().0)
        .collect();
    for group in 1..=2 * width {
        let results = engine.infer_many(id, inputs[..group].to_vec()).unwrap();
        for (want, res) in wants.iter().zip(results) {
            let inference = res.unwrap();
            assert_eq!(inference.batch_size, group, "one burst is one group");
            assert_eq!(inference.output.shape(), &[1, 1000]);
            assert!(
                inference
                    .output
                    .data()
                    .iter()
                    .zip(want.data())
                    .all(|(a, b)| a.to_bits() == b.to_bits()),
                "group of {group} diverged from reference"
            );
        }
    }
}

/// `try_infer`'s reply receives the reference output.
#[test]
fn try_infer_reply_delivers() {
    let (net, _) = tiny_resnet_network();
    let weights = NetworkWeights::random(&net, 71).unwrap();
    let (engine, id) = fleet(
        &net,
        &weights,
        (16, 16),
        AnalogModel::ideal(),
        window(16, 0),
        1,
    );
    let mut r = rng::seeded(72);
    let x = init::uniform(&[1, 3, 16, 16], -1.0, 1.0, &mut r);
    let prog = net.lower(16, 16).unwrap();
    let (want, _) = prog
        .forward_reference(&weights, true, AnalogModel::ideal(), &x)
        .unwrap();
    let (tx, rx) = std::sync::mpsc::channel();
    engine
        .try_infer(id, x, move |result| {
            let _ = tx.send(result);
        })
        .unwrap();
    assert_eq!(rx.recv().unwrap().unwrap().output, want);
}
