//! Multi-network tenancy demo: a fleet of compressed models behind one
//! scheduler.
//!
//! Builds two distinct epitome-compressed networks from the model zoo,
//! registers them as tenants of one `MultiEngine` — a *premium* tenant
//! with drain weight 3 and a *standard* tenant with weight 1 — and
//! serves concurrent client fleets for both through the shared scheduler
//! threads and plan cache. Along the way it verifies the house
//! invariant: each tenant's outputs are bit-identical to sequential
//! per-request reference execution of its network. A final act
//! shows per-tenant flow control: the standard tenant sheds its overflow
//! while the premium tenant's `Block` traffic all completes.
//!
//! Run with: `cargo run --release -p epim --example serve_tenants`
//! Knobs: `EPIM_THREADS` pins the worker pool width.

use epim::models::lower::NetworkWeights;
use epim::models::zoo;
use epim::pim::datapath::AnalogModel;
use epim::runtime::{FlowControl, MultiEngine, PlanCache, RuntimeError, TenantConfig};
use epim::tensor::{init, rng, Tensor};
use std::time::Duration;

const CLIENTS_PER_TENANT: usize = 2;
const REQUESTS_PER_CLIENT: usize = 8;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Two structurally distinct small networks (inner widths 8 and 4),
    // each with both 3x3 convolutions epitome-compressed.
    let (premium_net, _) = zoo::tiny_epitome_network(8, 8, 10)?;
    let (standard_net, _) = zoo::tiny_epitome_network(8, 4, 10)?;
    let premium_weights = NetworkWeights::random(&premium_net, 7)?;
    let standard_weights = NetworkWeights::random(&standard_net, 8)?;
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
    let premium = builder.register(
        "premium",
        &premium_net,
        &premium_weights,
        (16, 16),
        true,
        analog,
        // Weight 3: up to three request groups per fair-drain turn.
        tenant_cfg.with_weight(3),
    )?;
    let standard = builder.register(
        "standard",
        &standard_net,
        &standard_weights,
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
    let premium_reqs = gen(CLIENTS_PER_TENANT * REQUESTS_PER_CLIENT);
    let standard_reqs = gen(CLIENTS_PER_TENANT * REQUESTS_PER_CLIENT);

    let (premium_outs, standard_outs): (Vec<Tensor>, Vec<Tensor>) = std::thread::scope(|scope| {
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
        let hp = serve(premium, &premium_reqs);
        let hs = serve(standard, &standard_reqs);
        (
            hp.join().expect("premium clients"),
            hs.join().expect("standard clients"),
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
    let premium_ref = reference(&premium_net, &premium_weights, &premium_reqs)?;
    let standard_ref = reference(&standard_net, &standard_weights, &standard_reqs)?;
    let exact = premium_outs == premium_ref && standard_outs == standard_ref;
    println!("tenants == forward_reference, bitwise: {exact}");
    assert!(
        exact,
        "multi-tenant serving must be bit-identical per tenant"
    );

    for (name, id) in [("premium", premium), ("standard", standard)] {
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

    // Per-tenant flow control: rebuild the fleet with a tiny shedding
    // queue for the standard tenant. Its overflow is rejected with a
    // typed, tenant-tagged error; premium Block traffic never drops.
    let mut builder = MultiEngine::builder(&cache).workers(1);
    let premium = builder.register(
        "premium",
        &premium_net,
        &premium_weights,
        (16, 16),
        true,
        analog,
        tenant_cfg.with_weight(3),
    )?;
    let standard = builder.register(
        "standard",
        &standard_net,
        &standard_weights,
        (16, 16),
        true,
        analog,
        TenantConfig {
            max_batch: 4,
            batch_window: Duration::from_millis(50),
            queue_capacity: 2,
            flow: FlowControl::Shed {
                timeout: Duration::ZERO,
            },
            weight: 1,
        },
    )?;
    let engine = builder.build()?;
    let mut accepted = 0usize;
    let mut shed = 0usize;
    let mut pending = Vec::new();
    for x in standard_reqs.iter().take(8) {
        match engine.try_infer(standard, x.clone()) {
            Ok(p) => {
                accepted += 1;
                pending.push(p);
            }
            Err(RuntimeError::Overloaded { tenant, .. }) => {
                assert_eq!(tenant.as_deref(), Some("standard"));
                shed += 1;
            }
            Err(e) => return Err(e.into()),
        }
    }
    // Premium requests ride through untouched while standard sheds.
    for x in premium_reqs.iter().take(4) {
        engine.infer(premium, x.clone())?;
    }
    for p in pending {
        let _ = p.wait();
    }
    println!(
        "\nshed demo (standard queue_capacity 2): accepted {accepted}, shed {shed} \
         (standard counter: {}, premium counter: {})",
        engine.tenant_stats(standard)?.shed,
        engine.tenant_stats(premium)?.shed,
    );
    assert_eq!(engine.tenant_stats(premium)?.shed, 0);
    Ok(())
}
