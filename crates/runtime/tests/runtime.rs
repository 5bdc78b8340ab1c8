//! Integration tests for the serving engine on a single epitome layer (a
//! one-tenant fleet over `zoo::epitome_layer`): batching must be
//! invisible to callers (bit-identical outputs, additive stats) under
//! concurrency, shape divergence, bursts and shutdown.

use epim_core::{ConvShape, Epitome, EpitomeShape, EpitomeSpec};
use epim_models::zoo;
use epim_pim::datapath::{AnalogModel, DataPath, DataPathStats};
use epim_runtime::{MultiEngine, PlanCache, RuntimeError, TenantConfig, TenantId};
use epim_tensor::ops::Conv2dCfg;
use epim_tensor::{init, rng, Tensor};
use std::time::Duration;

const CFG: Conv2dCfg = Conv2dCfg {
    stride: 1,
    padding: 1,
};

fn a9adc8() -> AnalogModel {
    AnalogModel {
        adc_bits: Some(8),
        dac_bits: Some(9),
        ..AnalogModel::ideal()
    }
}

fn test_epitome(seed: u64) -> Epitome {
    let spec = EpitomeSpec::new(ConvShape::new(8, 4, 3, 3), EpitomeShape::new(4, 4, 2, 2)).unwrap();
    let mut r = rng::seeded(seed);
    let data = init::uniform(&[4, 4, 2, 2], -1.0, 1.0, &mut r);
    Epitome::from_tensor(spec, data).unwrap()
}

/// A one-tenant fleet serving `epi` on `hw × hw` inputs through `cache`.
fn layer_fleet(
    cache: &PlanCache,
    epi: &Epitome,
    hw: usize,
    wrapping: bool,
    analog: AnalogModel,
    config: TenantConfig,
) -> (MultiEngine, TenantId) {
    let (net, weights) = zoo::epitome_layer(epi, hw).unwrap();
    let mut builder = MultiEngine::builder(cache);
    let id = builder
        .register("layer", &net, &weights, (hw, hw), wrapping, analog, config)
        .unwrap();
    (builder.build().unwrap(), id)
}

/// The A9/ADC8 test layer on `hw × hw` inputs, with the data path it must
/// reproduce.
fn test_engine(seed: u64, hw: usize, config: TenantConfig) -> (MultiEngine, TenantId, DataPath) {
    let epi = test_epitome(seed);
    let dp = DataPath::with_analog(&epi, CFG, true, a9adc8()).unwrap();
    let (engine, id) = layer_fleet(&PlanCache::new(), &epi, hw, true, a9adc8(), config);
    (engine, id, dp)
}

fn window(max_batch: usize, ms: u64) -> TenantConfig {
    TenantConfig {
        max_batch,
        batch_window: Duration::from_millis(ms),
        ..TenantConfig::default()
    }
}

/// The tentpole invariant: N concurrent submissions through the
/// micro-batcher produce exactly the outputs and (rolled-up) stats of N
/// sequential `DataPath::execute` calls, regardless of how the batcher
/// happened to group them.
#[test]
fn concurrent_submissions_match_sequential_execute() {
    let (engine, id, dp) = test_engine(1, 8, window(8, 5));
    let mut r = rng::seeded(2);
    const N: usize = 24;
    let inputs: Vec<Tensor> = (0..N)
        .map(|_| init::uniform(&[1, 4, 8, 8], -1.0, 1.0, &mut r))
        .collect();

    // Sequential ground truth.
    let mut want_stats = DataPathStats::default();
    let want: Vec<Tensor> = inputs
        .iter()
        .map(|x| {
            let (out, s) = dp.execute(x).unwrap();
            want_stats.accumulate(&s);
            out
        })
        .collect();

    // Concurrent serving.
    let got: Vec<Tensor> = std::thread::scope(|scope| {
        let handles: Vec<_> = inputs
            .iter()
            .map(|x| {
                let engine = &engine;
                scope.spawn(move || engine.infer(id, x.clone()).unwrap().output)
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    for (g, w) in got.iter().zip(&want) {
        assert_eq!(g, w, "batched serving changed an output");
    }
    let stats = engine.fleet_stats();
    assert_eq!(stats.requests, N as u64);
    assert_eq!(
        stats.datapath, want_stats,
        "stats rollup diverged from sequential execution"
    );
    assert!(stats.batches <= N as u64);
    let histogram_total: u64 = stats
        .batch_histogram
        .iter()
        .enumerate()
        .map(|(i, &count)| (i as u64 + 1) * count)
        .sum();
    assert_eq!(histogram_total, N as u64);
}

/// A single-threaded burst through `infer_many` coalesces deterministically
/// into `max_batch`-sized groups and matches sequential execution.
#[test]
fn burst_coalesces_into_full_batches() {
    let (engine, id, dp) = test_engine(3, 6, window(8, 50));
    let mut r = rng::seeded(4);
    let inputs: Vec<Tensor> = (0..16)
        .map(|_| init::uniform(&[1, 4, 6, 6], -1.0, 1.0, &mut r))
        .collect();
    let results = engine.infer_many(id, inputs.clone()).unwrap();
    for (x, res) in inputs.iter().zip(&results) {
        let inference = res.as_ref().unwrap();
        let (want, _) = dp.execute(x).unwrap();
        assert_eq!(inference.output, want);
        assert_eq!(inference.batch_size, 8, "burst should fill max_batch");
    }
    let stats = engine.fleet_stats();
    assert_eq!(stats.requests, 16);
    assert_eq!(stats.batches, 2);
    assert_eq!(stats.batch_histogram.get(7), Some(&2));
    assert!((stats.mean_batch_size() - 8.0).abs() < 1e-12);
    assert!(stats.p99_latency_us >= stats.p50_latency_us);
}

/// Mixed request sizes in one burst: the batcher groups by shape, here by
/// the images per request N, and every result is still bit-identical to
/// per-request execution.
#[test]
fn diverging_shapes_group_separately() {
    let (engine, id, dp) = test_engine(5, 6, window(8, 20));
    let mut r = rng::seeded(6);
    let inputs: Vec<Tensor> = (0..12)
        .map(|i| {
            let n = 1 + (i % 3); // three distinct shapes interleaved
            init::uniform(&[n, 4, 6, 6], -1.0, 1.0, &mut r)
        })
        .collect();
    let results = engine.infer_many(id, inputs.clone()).unwrap();
    for (x, res) in inputs.iter().zip(&results) {
        let inference = res.as_ref().unwrap();
        let (want, _) = dp.execute(x).unwrap();
        assert_eq!(inference.output, want);
        // A shape group can only coalesce its own four requests.
        assert!(inference.batch_size <= 4);
    }
    assert_eq!(engine.fleet_stats().requests, 12);
}

/// Invalid requests get their own error without poisoning batchmates.
#[test]
fn bad_request_fails_alone() {
    let (engine, id, dp) = test_engine(7, 6, window(4, 20));
    let mut r = rng::seeded(8);
    let good = init::uniform(&[1, 4, 6, 6], -1.0, 1.0, &mut r);
    let bad = Tensor::zeros(&[1, 3, 6, 6]); // wrong channel count
    let results = engine.infer_many(id, vec![good.clone(), bad]).unwrap();
    let (want, _) = dp.execute(&good).unwrap();
    assert_eq!(results[0].as_ref().unwrap().output, want);
    assert!(matches!(results[1], Err(RuntimeError::Pim(_))));
}

/// The plan cache is shared across fleets: the second fleet for the same
/// spec reuses the compiled plan.
#[test]
fn engines_share_cached_plans() {
    let cache = PlanCache::new();
    let epi = test_epitome(9);
    let make = || {
        layer_fleet(
            &cache,
            &epi,
            8,
            true,
            AnalogModel::ideal(),
            TenantConfig::default(),
        )
    };
    let _a = make();
    let _b = make();
    let stats = cache.stats();
    assert_eq!(stats.misses, 1);
    assert_eq!(stats.hits, 1);
    assert_eq!(stats.entries, 1);

    // Warming a network whose choices repeat a spec hits the cache: three
    // epitome layers, one conv layer, one distinct plan allocation.
    use epim_models::network::{Network, OperatorChoice};
    use epim_models::resnet::{Backbone, LayerInfo};
    let spec = epi.spec().clone();
    let layer = |name: &str| LayerInfo {
        name: name.to_string(),
        conv: spec.conv(),
        out_h: 8,
        out_w: 8,
    };
    let backbone = Backbone {
        name: "tiny".to_string(),
        layers: vec![layer("l0"), layer("l1"), layer("l2"), layer("l3")],
    };
    let mut net = Network::baseline(backbone);
    for i in 0..3 {
        net.set_choice(i, OperatorChoice::Epitome(spec.clone()))
            .unwrap();
    }
    let plans = cache.warm_network(&net).unwrap();
    assert_eq!(plans.len(), 3);
    assert_eq!(
        plans.iter().map(|(i, _)| *i).collect::<Vec<_>>(),
        vec![0, 1, 2]
    );
    // All warmed layers share the single cached allocation — the same plan
    // the fleets above already compiled for this spec.
    for (_, plan) in &plans {
        assert!(std::sync::Arc::ptr_eq(plan, &plans[0].1));
    }
    assert_eq!(cache.stats().misses, 1);
    assert_eq!(cache.stats().entries, 1);
}

/// Dropping the engine drains in-flight work and joins its workers: drop
/// must neither hang nor panic.
#[test]
fn drop_joins_batcher() {
    let (engine, id, _) = test_engine(10, 5, window(4, 1));
    let mut r = rng::seeded(11);
    for _ in 0..3 {
        let x = init::uniform(&[1, 4, 5, 5], -1.0, 1.0, &mut r);
        engine.infer(id, x).unwrap();
    }
    drop(engine); // must not deadlock
}

/// A one-tenant fleet over the zoo's one-layer network is the single-layer
/// data path: outputs and `DataPathStats` equal the seed-style reference
/// loop bit for bit, ideal and A9/ADC8, with and without channel wrapping.
#[test]
fn one_layer_fleet_equals_execute_reference() {
    for (seed, analog, wrapping) in [
        (12, AnalogModel::ideal(), true),
        (13, AnalogModel::ideal(), false),
        (14, a9adc8(), true),
        (15, a9adc8(), false),
    ] {
        let epi = test_epitome(seed);
        let dp = DataPath::with_analog(&epi, CFG, wrapping, analog).unwrap();
        let (engine, id) = layer_fleet(&PlanCache::new(), &epi, 8, wrapping, analog, window(4, 5));
        let mut r = rng::seeded(seed + 100);
        let inputs: Vec<Tensor> = (0..6)
            .map(|_| init::uniform(&[1, 4, 8, 8], -1.0, 1.0, &mut r))
            .collect();
        let mut want_stats = DataPathStats::default();
        let results = engine.infer_many(id, inputs.clone()).unwrap();
        for (x, res) in inputs.iter().zip(results) {
            let (want, s) = dp.execute_reference(x).unwrap();
            want_stats.accumulate(&s);
            assert_eq!(res.unwrap().output, want, "wrapping {wrapping}, {analog:?}");
        }
        assert_eq!(engine.fleet_stats().datapath, want_stats);
    }
}
