//! Multi-network tenancy demo: a fleet of compressed models behind one
//! scheduler.
//!
//! Builds two distinct epitome-compressed networks from the model zoo,
//! registers them as tenants of one `MultiEngine` — *large* and *small* —
//! and serves concurrent client fleets for both through the shared
//! scheduler threads (which drain the two queues round-robin) and plan
//! cache. Along the way it verifies the house invariant: each tenant's
//! outputs are bit-identical to sequential per-request reference
//! execution of its network. A final act shows per-tenant admission: the
//! small tenant, flooded through the non-waiting `try_infer`, sheds its
//! overflow while the large tenant's waiting `infer` traffic all
//! completes.
//!
//! Run with: `cargo run --release -p epim --example serve_tenants`
//! Knobs: `EPIM_THREADS` pins the worker pool width.

use epim::models::lower::NetworkWeights;
use epim::models::zoo;
use epim::pim::datapath::AnalogModel;
use epim::runtime::{MultiEngine, PlanCache, RuntimeError, TenantConfig};
use epim::tensor::{init, rng, Tensor};
use std::sync::mpsc;
use std::time::Duration;

const CLIENTS_PER_TENANT: usize = 2;
const REQUESTS_PER_CLIENT: usize = 8;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Two structurally distinct small networks (inner widths 8 and 4),
    // each with both 3x3 convolutions epitome-compressed.
    let (large_net, _) = zoo::tiny_epitome_network(8, 8, 10)?;
    let (small_net, _) = zoo::tiny_epitome_network(8, 4, 10)?;
    let large_weights = NetworkWeights::random(&large_net, 7)?;
    let small_weights = NetworkWeights::random(&small_net, 8)?;
    let analog = AnalogModel {
        adc_bits: Some(8),
        dac_bits: Some(9),
        ..AnalogModel::ideal()
    };

    // One shared plan cache for the whole fleet.
    let cache = PlanCache::new();
    let tenant_cfg = TenantConfig {
        max_batch: 4,
        batch_window: Duration::from_micros(500),
        ..TenantConfig::default()
    };
    let mut builder = MultiEngine::builder(&cache).workers(2);
    let large = builder.register(
        "large",
        &large_net,
        &large_weights,
        (16, 16),
        true,
        analog,
        tenant_cfg,
    )?;
    let small = builder.register(
        "small",
        &small_net,
        &small_weights,
        (16, 16),
        true,
        analog,
        tenant_cfg,
    )?;
    let engine = builder.build()?;
    println!(
        "fleet: {:?}, shared plan cache: {:?}",
        engine.tenant_names(),
        engine.fleet_stats().plan_cache
    );

    // Concurrent client fleets on both tenants.
    let mut r = rng::seeded(9);
    let mut gen = |n: usize| -> Vec<Tensor> {
        (0..n)
            .map(|_| init::uniform(&[1, 3, 16, 16], -1.0, 1.0, &mut r))
            .collect()
    };
    let large_reqs = gen(CLIENTS_PER_TENANT * REQUESTS_PER_CLIENT);
    let small_reqs = gen(CLIENTS_PER_TENANT * REQUESTS_PER_CLIENT);

    let (large_outs, small_outs): (Vec<Tensor>, Vec<Tensor>) = std::thread::scope(|scope| {
        let serve = |id, reqs: &[Tensor]| {
            let engine = &engine;
            let chunks: Vec<Vec<Tensor>> = reqs
                .chunks(REQUESTS_PER_CLIENT)
                .map(<[Tensor]>::to_vec)
                .collect();
            scope.spawn(move || {
                let mut outs = Vec::new();
                for chunk in chunks {
                    for res in engine.infer_many(id, chunk).expect("burst accepted") {
                        outs.push(res.expect("inference succeeds").output);
                    }
                }
                outs
            })
        };
        let hl = serve(large, &large_reqs);
        let hs = serve(small, &small_reqs);
        (
            hl.join().expect("large clients"),
            hs.join().expect("small clients"),
        )
    });

    // House invariant: each tenant matches sequential per-request
    // reference execution of its network, bit for bit — tenancy is a
    // resource-sharing decision, never a semantic one.
    let reference = |net: &epim::models::network::Network,
                     weights: &NetworkWeights,
                     reqs: &[Tensor]|
     -> Result<Vec<Tensor>, Box<dyn std::error::Error>> {
        let program = net.lower(16, 16)?;
        let mut outs = Vec::with_capacity(reqs.len());
        for x in reqs {
            outs.push(program.forward_reference(weights, true, analog, x)?.0);
        }
        Ok(outs)
    };
    let large_ref = reference(&large_net, &large_weights, &large_reqs)?;
    let small_ref = reference(&small_net, &small_weights, &small_reqs)?;
    let exact = large_outs == large_ref && small_outs == small_ref;
    println!("tenants == forward_reference, bitwise: {exact}");
    assert!(
        exact,
        "multi-tenant serving must be bit-identical per tenant"
    );

    for (name, id) in [("large", large), ("small", small)] {
        let s = engine.tenant_stats(id)?;
        println!(
            "{name:>9}: {} requests in {} batches (mean {:.2}), p50 {} us, p99 {} us, \
             {} rounds, shed {}",
            s.requests,
            s.batches,
            s.mean_batch_size(),
            s.p50_latency_us,
            s.p99_latency_us,
            s.datapath.rounds,
            s.shed,
        );
    }
    let fleet = engine.fleet_stats();
    println!(
        "{:>9}: {} requests in {} batches, {} rounds, queue depth {}, cache {:?}",
        "fleet",
        fleet.requests,
        fleet.batches,
        fleet.datapath.rounds,
        fleet.queue_depth,
        fleet.plan_cache,
    );

    // Per-tenant admission: rebuild the fleet with a tiny queue for the
    // small tenant and flood it through `try_infer`. Its overflow is
    // rejected with a typed, tenant-tagged error; the large tenant's
    // `infer` calls wait for space and never drop.
    let mut builder = MultiEngine::builder(&cache).workers(1);
    let large = builder.register(
        "large",
        &large_net,
        &large_weights,
        (16, 16),
        true,
        analog,
        tenant_cfg,
    )?;
    let small = builder.register(
        "small",
        &small_net,
        &small_weights,
        (16, 16),
        true,
        analog,
        TenantConfig {
            max_batch: 4,
            batch_window: Duration::from_millis(50),
            queue_capacity: 2,
        },
    )?;
    let engine = builder.build()?;
    let mut accepted = 0usize;
    let mut shed = 0usize;
    let (done_tx, done) = mpsc::channel();
    for x in small_reqs.iter().take(8) {
        let done_tx = done_tx.clone();
        let submitted = engine.try_infer(small, x.clone(), move |result| {
            let _ = done_tx.send(result);
        });
        match submitted {
            Ok(()) => accepted += 1,
            Err(RuntimeError::Overloaded { tenant, .. }) => {
                assert_eq!(tenant.as_deref(), Some("small"));
                shed += 1;
            }
            Err(e) => return Err(e.into()),
        }
    }
    // Large-tenant requests ride through untouched while small sheds.
    for x in large_reqs.iter().take(4) {
        engine.infer(large, x.clone())?;
    }
    // Every accepted reply runs once; then the channel disconnects.
    drop(done_tx);
    for _ in done {}
    println!(
        "\nshed demo (small queue_capacity 2): accepted {accepted}, shed {shed} \
         (small counter: {}, large counter: {})",
        engine.tenant_stats(small)?.shed,
        engine.tenant_stats(large)?.shed,
    );
    assert_eq!(engine.tenant_stats(large)?.shed, 0);
    Ok(())
}
