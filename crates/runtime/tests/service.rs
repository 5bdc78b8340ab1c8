//! Integration tests for the submission surface: `MultiEngine::try_infer`
//! hands every accepted request's result to its reply function exactly
//! once — the bits `infer` returns, or the request's typed error — and
//! drops the reply uncalled when it refuses the request.
//!
//! One case installs process-global fault plans, so every test here
//! serializes on a static mutex.

use epim_core::{ConvShape, Epitome, EpitomeShape, EpitomeSpec};
use epim_faults::{FaultPlan, FaultPoint, FaultRule};
use epim_models::zoo;
use epim_pim::datapath::AnalogModel;
use epim_runtime::{
    InferRequest, Inference, MultiEngine, PlanCache, RuntimeError, TenantConfig, TenantId,
    DEFAULT_RESTART_BUDGET,
};
use epim_tensor::{init, rng, Tensor};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc::{self, Receiver, TryRecvError};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::{Duration, Instant};

static GATE: Mutex<()> = Mutex::new(());

/// A one-tenant fleet serving one A9/ADC8 epitome layer on 8x8 inputs.
fn layer_engine(config: TenantConfig, restart_budget: u32) -> (MultiEngine, TenantId) {
    let spec = EpitomeSpec::new(ConvShape::new(8, 4, 3, 3), EpitomeShape::new(4, 4, 2, 2)).unwrap();
    let mut r = rng::seeded(5);
    let epi = Epitome::from_tensor(spec, init::uniform(&[4, 4, 2, 2], -1.0, 1.0, &mut r)).unwrap();
    let (net, weights) = zoo::epitome_layer(&epi, 8).unwrap();
    let analog = AnalogModel {
        adc_bits: Some(8),
        dac_bits: Some(9),
        ..AnalogModel::ideal()
    };
    let mut builder = MultiEngine::builder(&PlanCache::new()).restart_budget(restart_budget);
    let id = builder
        .register("layer", &net, &weights, (8, 8), true, analog, config)
        .unwrap();
    (builder.build().unwrap(), id)
}

fn window(max_batch: usize, ms: u64) -> TenantConfig {
    TenantConfig {
        max_batch,
        batch_window: Duration::from_millis(ms),
        ..TenantConfig::default()
    }
}

fn inputs(n: usize, seed: u64) -> Vec<Tensor> {
    let mut r = rng::seeded(seed);
    (0..n)
        .map(|_| init::uniform(&[1, 4, 8, 8], -1.0, 1.0, &mut r))
        .collect()
}

/// What one reply was given, and how often it ran.
struct Probe {
    calls: Arc<AtomicUsize>,
    results: Receiver<Result<Inference, RuntimeError>>,
}

impl Probe {
    /// A probe and the reply that feeds it.
    fn new() -> (
        Probe,
        impl FnOnce(Result<Inference, RuntimeError>) + Send + 'static,
    ) {
        let calls = Arc::new(AtomicUsize::new(0));
        let (tx, results) = mpsc::channel();
        let counter = Arc::clone(&calls);
        let reply = move |result: Result<Inference, RuntimeError>| {
            counter.fetch_add(1, Ordering::SeqCst);
            let _ = tx.send(result);
        };
        (Probe { calls, results }, reply)
    }

    /// The result the reply was given; it must have run exactly once.
    fn result(&self) -> Result<Inference, RuntimeError> {
        let result = self
            .results
            .recv_timeout(Duration::from_secs(30))
            .expect("the reply was never called");
        assert_eq!(self.calls.load(Ordering::SeqCst), 1);
        result
    }

    /// Whether the reply was dropped without running.
    fn dropped_uncalled(&self) -> bool {
        self.calls.load(Ordering::SeqCst) == 0
            && matches!(self.results.try_recv(), Err(TryRecvError::Disconnected))
    }
}

/// Every accepted request's reply runs once with the bits `infer`
/// returns; a refused request's reply never runs; dropping the engine
/// answers what it still holds.
#[test]
fn reply_runs_once_with_the_bits_infer_returns() {
    let _gate = GATE.lock().unwrap_or_else(PoisonError::into_inner);
    epim_faults::clear();

    let (engine, id) = layer_engine(window(4, 2), DEFAULT_RESTART_BUDGET);
    let xs = inputs(6, 7);
    let want: Vec<Tensor> = xs
        .iter()
        .map(|x| engine.infer(id, x.clone()).unwrap().output)
        .collect();
    // Submit everything up front, so the batcher still coalesces.
    let probes: Vec<Probe> = xs
        .iter()
        .map(|x| {
            let (probe, reply) = Probe::new();
            engine.try_infer(id, x.clone(), reply).unwrap();
            probe
        })
        .collect();
    for (probe, want) in probes.iter().zip(&want) {
        let got = probe.result().unwrap().output;
        assert_eq!(got.shape(), want.shape());
        assert!(
            got.data()
                .iter()
                .zip(want.data())
                .all(|(a, b)| a.to_bits() == b.to_bits()),
            "a reply's output differs from infer's"
        );
    }

    // A one-slot shedding queue, held open by a long window: the first
    // request waits in it, the second is refused, and so is an id from
    // another engine. Neither refused reply ever runs.
    let (held_engine, held_id) = layer_engine(
        TenantConfig {
            queue_capacity: 1,
            ..window(8, 400)
        },
        DEFAULT_RESTART_BUDGET,
    );
    let (held, reply) = Probe::new();
    held_engine
        .try_infer(held_id, xs[0].clone(), reply)
        .unwrap();
    let (shed, reply) = Probe::new();
    let refused = held_engine.try_infer(held_id, xs[1].clone(), reply);
    assert!(
        matches!(refused, Err(RuntimeError::Overloaded { capacity: 1, .. })),
        "{refused:?}"
    );
    assert!(shed.dropped_uncalled());
    let (foreign, reply) = Probe::new();
    let refused = held_engine.try_infer(id, xs[1].clone(), reply);
    assert!(
        matches!(refused, Err(RuntimeError::UnknownTenant { .. })),
        "{refused:?}"
    );
    assert!(foreign.dropped_uncalled());

    // Dropping the engine flushes the held group and joins its threads:
    // the reply has run by the time `drop` returns, with the served bits.
    drop(held_engine);
    assert_eq!(held.calls.load(Ordering::SeqCst), 1);
    assert_eq!(held.result().unwrap().output, want[0]);
}

/// Deadline shedding, a panicking batch and a crash-looped fleet each
/// reach the reply as their typed error, once.
#[test]
fn every_failure_reaches_the_reply_as_its_typed_error() {
    let _gate = GATE.lock().unwrap_or_else(PoisonError::into_inner);
    epim_faults::clear();
    let xs = inputs(2, 8);

    // A deadline that expires while the batch window holds the request.
    let (engine, id) = layer_engine(window(8, 100), DEFAULT_RESTART_BUDGET);
    let (doomed, reply) = Probe::new();
    let req =
        InferRequest::new(xs[0].clone()).with_deadline(Instant::now() + Duration::from_millis(20));
    engine.try_infer(id, req, reply).unwrap();
    assert_eq!(doomed.result().unwrap_err(), RuntimeError::DeadlineExceeded);
    drop(engine);

    // A batch that panics while its results are being recorded.
    let (engine, id) = layer_engine(window(1, 0), DEFAULT_RESTART_BUDGET);
    epim_faults::install(
        FaultPlan::new(42).with_rule(FaultPoint::LockPanic, FaultRule::once_at(1)),
    );
    let (panicked, reply) = Probe::new();
    engine.try_infer(id, xs[0].clone(), reply).unwrap();
    assert_eq!(
        panicked.result().unwrap_err(),
        RuntimeError::ExecutionPanicked
    );
    epim_faults::clear();
    drop(engine);

    // A fleet that may not restart its one worker: after the kill, a
    // request is either failed with the fleet or refused at the door.
    let (engine, id) = layer_engine(window(1, 0), 0);
    epim_faults::install(
        FaultPlan::new(42).with_rule(FaultPoint::WorkerPanic, FaultRule::once_at(1)),
    );
    engine.infer(id, xs[0].clone()).unwrap();
    let (orphan, reply) = Probe::new();
    match engine.try_infer(id, xs[1].clone(), reply) {
        Ok(()) => assert!(
            matches!(
                orphan.result(),
                Err(RuntimeError::CrashLoop { .. } | RuntimeError::ShuttingDown)
            ),
            "a queued request outlived its fleet"
        ),
        Err(RuntimeError::ShuttingDown) => assert!(orphan.dropped_uncalled()),
        Err(e) => panic!("unexpected refusal: {e}"),
    }
    epim_faults::clear();
}
