//! Chaos tests for the runtime's self-healing scheduler, driven by the
//! deterministic `epim-faults` injection harness.
//!
//! The contract under fault injection is the serving invariant with one
//! word changed: every submitted request gets **a bit-identical answer or
//! a typed error** — never a hang, never a wrong bit. These tests kill
//! scheduler workers, panic inside the stats critical section (poisoning
//! the mutex), and expire request deadlines, then assert the engine
//! recovers and keeps serving outputs bitwise equal to a fault-free
//! engine's.
//!
//! Fault state is process-global (`epim_faults::install`/`clear`), so
//! every test serializes on a static mutex — the same pattern the faults
//! crate uses for its own tests.

use epim_faults::{FaultPlan, FaultPoint, FaultRule};
use epim_models::lower::NetworkWeights;
use epim_models::zoo;
use epim_pim::datapath::AnalogModel;
use epim_runtime::{
    InferRequest, MultiEngine, PlanCache, RuntimeError, RuntimeStats, TenantConfig, TenantId,
};
use epim_tensor::{init, rng, Tensor};
use std::sync::{Mutex, PoisonError};
use std::time::{Duration, Instant};

/// Serializes tests that install process-global fault plans. Recovers
/// from poisoning so one failed chaos test does not cascade.
static GATE: Mutex<()> = Mutex::new(());

fn requests(n: usize, seed: u64) -> Vec<Tensor> {
    let mut r = rng::seeded(seed);
    (0..n)
        .map(|_| init::uniform(&[1, 3, 16, 16], -1.0, 1.0, &mut r))
        .collect()
}

/// A one-tenant, single-worker fleet over the tiny epitome network,
/// serving one request per batch: one scheduler lane makes crash/respawn
/// sequencing deterministic.
fn build_engine(restart_budget: u32) -> (MultiEngine, TenantId) {
    let (net, _) = zoo::tiny_epitome_network(8, 4, 10).unwrap();
    let weights = NetworkWeights::random(&net, 7).unwrap();
    let mut builder = MultiEngine::builder(&PlanCache::new()).restart_budget(restart_budget);
    let serial = TenantConfig {
        max_batch: 1,
        batch_window: Duration::ZERO,
        ..TenantConfig::default()
    };
    let id = builder
        .register(
            "chaos",
            &net,
            &weights,
            (16, 16),
            true,
            AnalogModel::ideal(),
            serial,
        )
        .unwrap();
    (builder.build().unwrap(), id)
}

fn serial_engine() -> (MultiEngine, TenantId) {
    build_engine(epim_runtime::DEFAULT_RESTART_BUDGET)
}

/// Polls until the submission queue drains (the worker took the head
/// request into execution), so a follow-up submission cannot coalesce
/// into the same batch.
fn wait_queue_empty(engine: &MultiEngine) -> RuntimeStats {
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        let stats = engine.fleet_stats();
        if stats.queue_depth == 0 {
            return stats;
        }
        assert!(Instant::now() < deadline, "queue never drained");
        std::thread::sleep(Duration::from_millis(2));
    }
}

/// An injected worker kill after the first batch must cost a thread, not
/// an answer: every request (including the one whose batch triggered the
/// kill) completes, the supervisor respawns the lane, and the
/// post-restart burst is bitwise equal to a fault-free engine's outputs.
#[test]
fn worker_kill_is_survived_bit_identically() {
    let _gate = GATE.lock().unwrap_or_else(PoisonError::into_inner);
    epim_faults::clear();

    let reqs = requests(5, 33);

    // Ground truth from a fault-free engine over the same plan + inputs.
    let (healthy, healthy_id) = serial_engine();
    let want: Vec<Tensor> = reqs
        .iter()
        .map(|r| healthy.infer(healthy_id, r.clone()).unwrap().output)
        .collect();
    drop(healthy);

    let (engine, id) = serial_engine();
    epim_faults::install(
        FaultPlan::new(42).with_rule(FaultPoint::WorkerPanic, FaultRule::once_at(1)),
    );
    // Serial submission: request 0 rides the batch that kills the worker
    // (delivery happens before the injected panic), requests 1.. are
    // served by the respawned lane.
    let got: Vec<Tensor> = reqs
        .iter()
        .map(|r| engine.infer(id, r.clone()).unwrap().output)
        .collect();
    let fired = epim_faults::fire_count(FaultPoint::WorkerPanic);
    epim_faults::clear();

    assert_eq!(got, want, "post-restart outputs diverged from reference");
    assert_eq!(fired, 1, "worker-kill fault fired {fired} times, not once");
    let stats = engine.fleet_stats();
    assert!(
        stats.worker_restarts >= 1,
        "supervisor recorded no restart: {stats:?}"
    );
}

/// With the restart budget exhausted (`restart_budget(0)`), a worker
/// crash fails the fleet: queued and subsequent submissions resolve to
/// the typed [`RuntimeError::CrashLoop`] / [`RuntimeError::ShuttingDown`]
/// — they never hang and never return a wrong answer.
#[test]
fn crash_loop_fails_typed_instead_of_hanging() {
    let _gate = GATE.lock().unwrap_or_else(PoisonError::into_inner);
    epim_faults::clear();

    let reqs = requests(2, 44);
    let (engine, id) = build_engine(0);
    epim_faults::install(
        FaultPlan::new(42).with_rule(FaultPoint::WorkerPanic, FaultRule::once_at(1)),
    );

    // The batch that triggers the kill still answers.
    let first = engine.infer(id, reqs[0].clone());
    assert!(first.is_ok(), "pre-crash request failed: {first:?}");

    // The lone worker is dead and the supervisor may not respawn it; the
    // next submission must resolve to a typed terminal error. (It may
    // block briefly until the supervisor sweeps the queue — that bounded
    // wait is the test: a hang here is the bug.)
    let second = engine.infer(id, reqs[1].clone());
    match second {
        Err(RuntimeError::CrashLoop { .. }) | Err(RuntimeError::ShuttingDown) => {}
        other => panic!("expected CrashLoop/ShuttingDown, got {other:?}"),
    }
    epim_faults::clear();
}

/// A panic while *holding the stats mutex* poisons it with a batch in
/// flight. The delivery guard must fail that batch with the typed
/// [`RuntimeError::ExecutionPanicked`], the supervisor respawns the
/// worker, lock recovery un-poisons the mutex — and the engine then
/// serves bit-identical answers and readable statistics.
#[test]
fn stats_lock_poisoning_recovers() {
    let _gate = GATE.lock().unwrap_or_else(PoisonError::into_inner);
    epim_faults::clear();

    let reqs = requests(3, 55);
    let (healthy, healthy_id) = serial_engine();
    let want: Vec<Tensor> = reqs
        .iter()
        .map(|r| healthy.infer(healthy_id, r.clone()).unwrap().output)
        .collect();
    drop(healthy);

    let (engine, id) = serial_engine();
    epim_faults::install(
        FaultPlan::new(42).with_rule(FaultPoint::LockPanic, FaultRule::once_at(1)),
    );

    // The batch that panics under the lock fails typed, not silently.
    match engine.infer(id, reqs[0].clone()) {
        Err(RuntimeError::ExecutionPanicked) => {}
        other => panic!("expected ExecutionPanicked, got {other:?}"),
    }
    // Subsequent requests are served by the respawned worker through the
    // recovered (formerly poisoned) stats mutex, bit-identically.
    for (i, req) in reqs.iter().enumerate().skip(1) {
        let out = engine.infer(id, req.clone()).unwrap().output;
        assert_eq!(out, want[i], "request {i} diverged after lock recovery");
    }
    epim_faults::clear();

    // The poisoned mutex is readable again and the books balance.
    let stats = engine.fleet_stats();
    assert!(stats.worker_restarts >= 1, "no restart recorded: {stats:?}");
    assert!(
        stats.requests >= 2,
        "post-recovery requests missing from stats"
    );
}

/// A request whose deadline has already passed at submission is shed at
/// admission with the typed error — it never spends a batch slot.
#[test]
fn expired_deadline_is_shed_at_admission() {
    let _gate = GATE.lock().unwrap_or_else(PoisonError::into_inner);
    epim_faults::clear();

    let (engine, id) = serial_engine();
    let input = requests(1, 66).pop().unwrap();
    let already_expired = Instant::now();
    std::thread::sleep(Duration::from_millis(2));

    match engine.infer(id, InferRequest::new(input).with_deadline(already_expired)) {
        Err(RuntimeError::DeadlineExceeded) => {}
        other => panic!("expected DeadlineExceeded, got {other:?}"),
    }
    let stats = engine.fleet_stats();
    assert!(
        stats.deadline_exceeded >= 1,
        "admission shed not counted: {stats:?}"
    );
}

/// A request that expires *while queued behind a slow batch* is shed by
/// the scheduler's drain-loop sweep: the slow request still answers, the
/// expired one gets the typed error, and the counter records it.
#[test]
fn queued_request_expiring_behind_slow_batch_is_shed() {
    let _gate = GATE.lock().unwrap_or_else(PoisonError::into_inner);
    epim_faults::clear();

    let (engine, id) = serial_engine();
    let mut reqs = requests(2, 77);
    let slow_input = reqs.remove(0);
    let doomed_input = reqs.remove(0);

    // Stall the first batch's execution for 250ms on the lone worker.
    epim_faults::install(FaultPlan::new(42).with_rule(
        FaultPoint::StageDelay,
        FaultRule {
            delay_ms: 250,
            ..FaultRule::once_at(1)
        },
    ));

    let slow = engine.try_infer(id, InferRequest::new(slow_input)).unwrap();
    // Wait until the worker has taken the slow request into execution so
    // the doomed one queues behind it instead of coalescing with it.
    wait_queue_empty(&engine);
    let doomed = engine
        .try_infer(
            id,
            InferRequest::new(doomed_input)
                .with_deadline(Instant::now() + Duration::from_millis(30)),
        )
        .unwrap();

    let slow_result = slow.wait();
    assert!(slow_result.is_ok(), "stalled batch failed: {slow_result:?}");
    match doomed.wait() {
        Err(RuntimeError::DeadlineExceeded) => {}
        other => panic!("expected DeadlineExceeded, got {other:?}"),
    }
    epim_faults::clear();

    let stats = engine.fleet_stats();
    assert!(
        stats.deadline_exceeded >= 1,
        "drain-loop shed not counted: {stats:?}"
    );
}

/// Installing a plan whose rules never fire must not change served bits —
/// the "armed but silent" mode the overhead bench runs in.
#[test]
fn armed_but_silent_faults_change_no_bits() {
    let _gate = GATE.lock().unwrap_or_else(PoisonError::into_inner);
    epim_faults::clear();

    let reqs = requests(4, 88);
    let (healthy, healthy_id) = serial_engine();
    let want: Vec<Tensor> = reqs
        .iter()
        .map(|r| healthy.infer(healthy_id, r.clone()).unwrap().output)
        .collect();
    drop(healthy);

    let mut plan = FaultPlan::new(42);
    for point in epim_faults::ALL_POINTS {
        plan = plan.with_rule(point, FaultRule::never());
    }
    epim_faults::install(plan);

    let (engine, id) = serial_engine();
    let got: Vec<Tensor> = reqs
        .iter()
        .map(|r| engine.infer(id, r.clone()).unwrap().output)
        .collect();
    epim_faults::clear();

    assert_eq!(got, want, "armed-but-silent fault plan changed served bits");
    assert_eq!(engine.fleet_stats().worker_restarts, 0);
}
