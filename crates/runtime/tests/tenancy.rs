//! Integration tests for multi-network tenancy: a fleet of compiled
//! plans behind one round-robin scheduler must serve every tenant
//! **bit-identically** to a dedicated one-tenant fleet (outputs and
//! `DataPathStats` rollups), drain fairly (a heavy tenant
//! cannot starve a light one), isolate admission per tenant (one
//! tenant shedding never drops another tenant's waiting requests), and
//! share compiled plans across tenants with equal `EpitomeSpec`s.

use epim_models::lower::NetworkWeights;
use epim_models::network::Network;
use epim_models::zoo;
use epim_pim::datapath::AnalogModel;
use epim_runtime::{MultiEngine, PlanCache, RuntimeError, TenantConfig};
use epim_tensor::{init, rng, Tensor};
use std::sync::mpsc;
use std::time::Duration;

fn requests(n: usize, seed: u64) -> Vec<Tensor> {
    let mut r = rng::seeded(seed);
    (0..n)
        .map(|_| init::uniform(&[1, 3, 16, 16], -1.0, 1.0, &mut r))
        .collect()
}

/// The tenancy invariant: serving two tenants through one
/// `MultiEngine` produces, for each tenant, exactly the outputs and
/// `DataPathStats` rollup of running that tenant alone in a dedicated
/// one-tenant fleet, itself equal to sequential reference execution.
/// Runs serially and, via the CI matrix, with `EPIM_THREADS=4`.
#[test]
fn two_tenant_serving_is_bit_identical_to_dedicated_engines() {
    let (net_a, _) = zoo::tiny_epitome_network(8, 4, 10).unwrap();
    let (net_b, _) = zoo::tiny_epitome_network(8, 8, 12).unwrap();
    let weights_a = NetworkWeights::random(&net_a, 11).unwrap();
    let weights_b = NetworkWeights::random(&net_b, 22).unwrap();
    let analog = AnalogModel {
        adc_bits: Some(8),
        dac_bits: Some(9),
        ..AnalogModel::ideal()
    };
    let reqs_a = requests(6, 101);
    let reqs_b = requests(6, 202);

    let tenant_cfg = TenantConfig {
        max_batch: 4,
        batch_window: Duration::from_millis(5),
        ..TenantConfig::default()
    };

    // Dedicated one-tenant runs: the ground truth for each tenant.
    let dedicated = |net: &Network, weights: &NetworkWeights, reqs: &[Tensor]| {
        let mut builder = MultiEngine::builder(&PlanCache::new());
        let id = builder
            .register("solo", net, weights, (16, 16), true, analog, tenant_cfg)
            .unwrap();
        let engine = builder.build().unwrap();
        let outs: Vec<Tensor> = engine
            .infer_many(id, reqs.to_vec())
            .unwrap()
            .into_iter()
            .map(|r| r.unwrap().output)
            .collect();
        let prog = net.lower(16, 16).unwrap();
        for (x, got) in reqs.iter().zip(&outs) {
            let (want, _) = prog.forward_reference(weights, true, analog, x).unwrap();
            assert_eq!(*got, want, "dedicated fleet diverged from reference");
        }
        (outs, engine.fleet_stats())
    };
    let (want_a, dedicated_a) = dedicated(&net_a, &weights_a, &reqs_a);
    let (want_b, dedicated_b) = dedicated(&net_b, &weights_b, &reqs_b);

    // The shared engine, with concurrent traffic on both tenants.
    let cache = PlanCache::new();
    let mut builder = MultiEngine::builder(&cache).workers(2);
    let id_a = builder
        .register("a", &net_a, &weights_a, (16, 16), true, analog, tenant_cfg)
        .unwrap();
    let id_b = builder
        .register("b", &net_b, &weights_b, (16, 16), true, analog, tenant_cfg)
        .unwrap();
    let engine = builder.build().unwrap();

    let (got_a, got_b) = std::thread::scope(|scope| {
        let ha = scope.spawn(|| engine.infer_many(id_a, reqs_a.clone()).unwrap());
        let hb = scope.spawn(|| engine.infer_many(id_b, reqs_b.clone()).unwrap());
        (ha.join().unwrap(), hb.join().unwrap())
    });
    for (i, (res, want)) in got_a.iter().zip(&want_a).enumerate() {
        assert_eq!(
            res.as_ref().unwrap().output,
            *want,
            "tenant a request {i} diverged"
        );
    }
    for (i, (res, want)) in got_b.iter().zip(&want_b).enumerate() {
        assert_eq!(
            res.as_ref().unwrap().output,
            *want,
            "tenant b request {i} diverged"
        );
    }

    // Per-tenant stats rollups equal the dedicated engines' rollups.
    let stats_a = engine.tenant_stats(id_a).unwrap();
    let stats_b = engine.tenant_stats(id_b).unwrap();
    assert_eq!(stats_a.requests, dedicated_a.requests);
    assert_eq!(stats_b.requests, dedicated_b.requests);
    assert_eq!(
        stats_a.datapath, dedicated_a.datapath,
        "tenant a stats rollup diverged"
    );
    assert_eq!(
        stats_b.datapath, dedicated_b.datapath,
        "tenant b stats rollup diverged"
    );

    // The fleet rollup is the per-tenant sum.
    let fleet = engine.fleet_stats();
    assert_eq!(fleet.requests, stats_a.requests + stats_b.requests);
    let mut want_dp = stats_a.datapath;
    want_dp.accumulate(&stats_b.datapath);
    assert_eq!(fleet.datapath, want_dp);
    assert_eq!(fleet.queue_depth, 0);

    // Ids map to names in registration order, and back.
    assert_eq!(engine.tenant_names()[id_a.index()], "a");
    assert_eq!(engine.tenant_id("b"), Some(id_b));
}

/// Starvation-freedom: with a heavy tenant's backlog queued ahead, a
/// light tenant drained round-robin beside it still gets served long
/// before the heavy backlog drains.
#[test]
fn light_tenant_is_not_starved_by_heavy_backlog() {
    const HEAVY_BACKLOG: usize = 900;
    let (net, _) = zoo::tiny_epitome_network(8, 4, 10).unwrap();
    let weights = NetworkWeights::random(&net, 33).unwrap();
    let cache = PlanCache::new();
    let mut builder = MultiEngine::builder(&cache);
    let heavy = builder
        .register(
            "heavy",
            &net,
            &weights,
            (16, 16),
            true,
            AnalogModel::ideal(),
            TenantConfig {
                max_batch: 4,
                batch_window: Duration::ZERO,
                queue_capacity: 1024,
            },
        )
        .unwrap();
    // The light tenant shares the same compiled plan via the cache but
    // has its own queue and stats.
    let light = builder
        .register(
            "light",
            &net,
            &weights,
            (16, 16),
            true,
            AnalogModel::ideal(),
            TenantConfig {
                max_batch: 4,
                batch_window: Duration::ZERO,
                queue_capacity: 16,
            },
        )
        .unwrap();
    let engine = builder.build().unwrap();

    // Queue the heavy backlog without waiting on it (its replies send
    // into one channel), then submit one light request from this thread.
    // The inputs are drawn first, so the backlog is queued faster than
    // the workers serve it.
    let mut r = rng::seeded(44);
    let mut xs: Vec<_> = (0..=HEAVY_BACKLOG)
        .map(|_| init::uniform(&[1, 3, 16, 16], -1.0, 1.0, &mut r))
        .collect();
    let light_x = xs.pop().expect("one input per request");
    let (done_tx, done) = mpsc::channel();
    for x in xs {
        let done_tx = done_tx.clone();
        engine
            .try_infer(heavy, x, move |result| {
                let _ = done_tx.send(result);
            })
            .expect("heavy queue has capacity");
    }
    drop(done_tx);
    engine
        .infer(light, light_x)
        .expect("light tenant must be served");

    // Fair draining: the light request completed while the heavy
    // backlog was still being worked through.
    let heavy_done = engine.tenant_stats(heavy).unwrap().requests;
    assert!(
        heavy_done < HEAVY_BACKLOG as u64,
        "light tenant waited out the whole heavy backlog ({heavy_done} done)"
    );

    // Nothing is lost: the heavy backlog fully drains afterwards.
    let mut answered = 0;
    for result in done {
        result.expect("heavy requests all complete");
        answered += 1;
    }
    assert_eq!(answered, HEAVY_BACKLOG);
    let heavy_stats = engine.tenant_stats(heavy).unwrap();
    assert_eq!(heavy_stats.requests, HEAVY_BACKLOG as u64);
    assert_eq!(heavy_stats.shed, 0);
}

/// Admission isolation: a tenant flooded through `try_infer` rejects its
/// own overflow, while another tenant's waiting `infer` calls are all
/// served — shedding on one tenant never drops (or sheds) another
/// tenant's traffic.
#[test]
fn shed_tenant_never_drops_block_tenant_requests() {
    const BLOCK_REQUESTS: usize = 12;
    let (net, _) = zoo::tiny_epitome_network(8, 4, 10).unwrap();
    let weights = NetworkWeights::random(&net, 55).unwrap();
    let cache = PlanCache::new();
    let mut builder = MultiEngine::builder(&cache);
    let shedding = builder
        .register(
            "shedding",
            &net,
            &weights,
            (16, 16),
            true,
            AnalogModel::ideal(),
            TenantConfig {
                max_batch: 2,
                // A long window parks requests in the tiny queue so the
                // flood reliably overflows it.
                batch_window: Duration::from_millis(50),
                queue_capacity: 2,
            },
        )
        .unwrap();
    let blocking = builder
        .register(
            "blocking",
            &net,
            &weights,
            (16, 16),
            true,
            AnalogModel::ideal(),
            TenantConfig {
                max_batch: 2,
                batch_window: Duration::ZERO,
                queue_capacity: 4,
            },
        )
        .unwrap();
    let engine = builder.build().unwrap();

    std::thread::scope(|scope| {
        // Waiting clients of the blocking tenant: every request completes.
        let blockers: Vec<_> = (0..3)
            .map(|c| {
                let engine = &engine;
                scope.spawn(move || {
                    let mut r = rng::seeded(70 + c as u64);
                    for _ in 0..BLOCK_REQUESTS / 3 {
                        let x = init::uniform(&[1, 3, 16, 16], -1.0, 1.0, &mut r);
                        engine.infer(blocking, x).expect("infer never sheds");
                    }
                })
            })
            .collect();
        // Flood on the shedding tenant: overflow is rejected with its name.
        let mut r = rng::seeded(80);
        let (done_tx, done) = mpsc::channel();
        let mut shed_seen = 0usize;
        for _ in 0..32 {
            let x = init::uniform(&[1, 3, 16, 16], -1.0, 1.0, &mut r);
            let done_tx = done_tx.clone();
            let submitted = engine.try_infer(shedding, x, move |result| {
                let _ = done_tx.send(result);
            });
            match submitted {
                Ok(()) => {}
                Err(RuntimeError::Overloaded { tenant, capacity }) => {
                    assert_eq!(tenant.as_deref(), Some("shedding"));
                    assert_eq!(capacity, 2);
                    shed_seen += 1;
                }
                Err(e) => panic!("unexpected error: {e}"),
            }
        }
        assert!(shed_seen > 0, "the flood must overflow the tiny queue");
        // The channel disconnects once every accepted request's reply ran.
        drop(done_tx);
        for _ in done {}
        for h in blockers {
            h.join().unwrap();
        }
    });

    let block_stats = engine.tenant_stats(blocking).unwrap();
    assert_eq!(block_stats.requests, BLOCK_REQUESTS as u64);
    assert_eq!(block_stats.shed, 0, "a waiting tenant must never shed");
    let shed_stats = engine.tenant_stats(shedding).unwrap();
    assert!(
        shed_stats.shed > 0,
        "shed counter records the tenant's own rejections"
    );
    // The fleet rollup attributes the sheds without inflating requests.
    let fleet = engine.fleet_stats();
    assert_eq!(fleet.shed, shed_stats.shed);
    assert_eq!(fleet.requests, block_stats.requests + shed_stats.requests);
}

/// Cross-tenant plan sharing: two tenants whose networks use the same
/// `EpitomeSpec` compile exactly one plan through the shared cache.
#[test]
fn equal_spec_tenants_compile_one_plan() {
    // Same inner width (= same spec), different classifier widths
    // (= distinct networks and weights).
    let (net_a, spec_a) = zoo::tiny_epitome_network(8, 4, 10).unwrap();
    let (net_b, spec_b) = zoo::tiny_epitome_network(8, 4, 16).unwrap();
    assert_eq!(spec_a, spec_b);
    let weights_a = NetworkWeights::random(&net_a, 1).unwrap();
    let weights_b = NetworkWeights::random(&net_b, 2).unwrap();

    let cache = PlanCache::new();
    let mut builder = MultiEngine::builder(&cache);
    let a = builder
        .register(
            "a",
            &net_a,
            &weights_a,
            (16, 16),
            true,
            AnalogModel::ideal(),
            TenantConfig::default(),
        )
        .unwrap();
    let b = builder
        .register(
            "b",
            &net_b,
            &weights_b,
            (16, 16),
            true,
            AnalogModel::ideal(),
            TenantConfig::default(),
        )
        .unwrap();
    let engine = builder.build().unwrap();

    // One compile total: tenant a's two epitome layers share the spec,
    // and tenant b's two layers hit the cached plan again.
    let stats = engine.fleet_stats();
    assert_eq!(
        stats.plan_cache.misses, 1,
        "identical specs must compile once"
    );
    assert_eq!(stats.plan_cache.entries, 1);
    assert!(stats.plan_cache.hits >= 3);
    assert_eq!(engine.tenant_stats(a).unwrap().plan_cache, stats.plan_cache);

    // Both tenants actually serve through the shared plan.
    let mut r = rng::seeded(5);
    let x = init::uniform(&[1, 3, 16, 16], -1.0, 1.0, &mut r);
    assert_eq!(engine.infer(a, x.clone()).unwrap().output.shape(), &[1, 10]);
    assert_eq!(engine.infer(b, x).unwrap().output.shape(), &[1, 16]);
}

/// Registration and submission reject bad input with typed errors:
/// foreign tenant ids, duplicate or empty names, zero knobs, empty
/// fleets.
#[test]
fn tenancy_misuse_yields_typed_errors() {
    let (net, _) = zoo::tiny_epitome_network(8, 4, 10).unwrap();
    let weights = NetworkWeights::random(&net, 9).unwrap();
    let cache = PlanCache::new();

    // An empty fleet refuses to build.
    assert!(matches!(
        MultiEngine::builder(&cache).build(),
        Err(RuntimeError::InvalidConfig { .. })
    ));

    let register =
        |builder: &mut epim_runtime::MultiEngineBuilder, name: &str, config: TenantConfig| {
            builder.register(
                name,
                &net,
                &weights,
                (16, 16),
                true,
                AnalogModel::ideal(),
                config,
            )
        };

    let mut builder = MultiEngine::builder(&cache);
    let id_a = register(&mut builder, "a", TenantConfig::default()).unwrap();
    let id_b = register(&mut builder, "b", TenantConfig::default()).unwrap();
    assert_ne!(id_a, id_b);
    // Duplicate and empty names, and zero knobs, are rejected.
    assert!(matches!(
        register(&mut builder, "a", TenantConfig::default()),
        Err(RuntimeError::InvalidConfig { .. })
    ));
    assert!(matches!(
        register(&mut builder, "", TenantConfig::default()),
        Err(RuntimeError::InvalidConfig { .. })
    ));
    assert!(matches!(
        register(
            &mut builder,
            "q0",
            TenantConfig {
                queue_capacity: 0,
                ..TenantConfig::default()
            }
        ),
        Err(RuntimeError::InvalidConfig { .. })
    ));
    let two_tenants = builder.build().unwrap();

    // A one-tenant engine rejects the two-tenant engine's second id.
    let mut builder = MultiEngine::builder(&cache);
    register(&mut builder, "solo", TenantConfig::default()).unwrap();
    let solo = builder.build().unwrap();
    let mut r = rng::seeded(10);
    let x = init::uniform(&[1, 3, 16, 16], -1.0, 1.0, &mut r);
    assert!(matches!(
        solo.infer(id_b, x.clone()),
        Err(RuntimeError::UnknownTenant { id: 1 })
    ));
    // Even an id whose *index* exists here is foreign: it must error, not
    // silently route to whichever tenant shares the index.
    assert!(matches!(
        solo.infer(id_a, x.clone()),
        Err(RuntimeError::UnknownTenant { id: 0 })
    ));
    assert!(matches!(
        solo.tenant_stats(id_b),
        Err(RuntimeError::UnknownTenant { .. })
    ));
    assert!(solo.plan(id_b).is_err());
    assert_eq!(solo.tenant_id("nope"), None);

    // The ids remain valid on their own engine.
    assert!(two_tenants.infer(id_b, x).is_ok());
}
