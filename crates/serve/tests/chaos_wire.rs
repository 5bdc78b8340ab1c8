//! Wire-level chaos tests: injected connection resets, torn frames,
//! idle peers, connection-cap pressure and expiring deadlines — under
//! all of which the serving contract must hold: every request gets a
//! **bit-identical answer or a typed error**, never a hang, never a
//! wrong bit, and a drain always completes.
//!
//! Fault state is process-global (`epim_faults::install`/`clear`), so
//! every test — including the ones that install nothing — serializes on
//! a static mutex.

use epim_faults::{FaultPlan, FaultPoint, FaultRule};
use epim_runtime::{MultiEngine, RuntimeError, TenantId};
use epim_serve::client::Client;
use epim_serve::fleet::{FleetConfig, TenantSpec, INPUT_SHAPE};
use epim_serve::server::{ServeReport, Server};
use epim_serve::wire::{self, Message};
use epim_tensor::{init, rng, Tensor};
use std::collections::HashMap;
use std::io::Write;
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Serializes tests around the process-global fault plan.
static GATE: Mutex<()> = Mutex::new(());

fn small_fleet() -> FleetConfig {
    FleetConfig {
        workers: 1,
        tenants: vec![TenantSpec::new("t", 8, 4, 10, 7)],
    }
}

fn start_with(
    cfg: &FleetConfig,
    tweak: impl FnOnce(Server) -> Server,
) -> (SocketAddr, Arc<AtomicBool>, JoinHandle<ServeReport>) {
    let engine = cfg.build().unwrap();
    let server = tweak(Server::bind(engine, "127.0.0.1:0").unwrap());
    let addr = server.local_addr().unwrap();
    let flag = server.shutdown_flag();
    let handle = std::thread::spawn(move || server.serve().unwrap());
    (addr, flag, handle)
}

fn inputs(n: usize, seed: u64) -> Vec<Tensor> {
    let mut r = rng::seeded(seed);
    (0..n)
        .map(|_| init::uniform(&INPUT_SHAPE, -1.0, 1.0, &mut r))
        .collect()
}

/// Reads replies until the injected cut: each reply read before it must
/// be bitwise-equal to `reference` and is removed from `unanswered`; the
/// cut itself must surface as a transport error, never as a decoded
/// reply.
fn read_until_cut(
    client: &mut Client,
    unanswered: &mut HashMap<u64, Tensor>,
    reference: &MultiEngine,
    tid: TenantId,
) {
    while !unanswered.is_empty() {
        match client.recv_reply() {
            Ok(reply) => {
                let resp = reply.expect("no error frames expected");
                let input = unanswered.remove(&resp.id).expect("known, unanswered id");
                let want = reference.infer(tid, input).unwrap().output;
                assert_eq!(want.data(), resp.output.data());
            }
            Err(RuntimeError::Io(_)) => return,
            Err(e) => panic!("the cut must surface as an I/O error, got {e:?}"),
        }
    }
    panic!("every request was answered: the cut never surfaced");
}

/// Resubmits every unanswered input on a fresh connection and checks each
/// reply bitwise against `reference`.
fn resubmit_and_check(
    addr: SocketAddr,
    unanswered: HashMap<u64, Tensor>,
    reference: &MultiEngine,
    tid: TenantId,
) {
    let mut client = Client::connect(&addr.to_string()).unwrap();
    let mut by_id = HashMap::new();
    for input in unanswered.into_values() {
        let id = client.submit("t", input.clone()).unwrap();
        by_id.insert(id, input);
    }
    while !by_id.is_empty() {
        let resp = client.recv_reply().unwrap().expect("no error frames");
        let input = by_id.remove(&resp.id).expect("known, unanswered id");
        let want = reference.infer(tid, input).unwrap().output;
        assert_eq!(
            want.data(),
            resp.output.data(),
            "resubmitted reply diverged from in-process reference"
        );
    }
    client.close().unwrap();
}

/// An injected connection reset mid-reply-stream reaches the client as an
/// I/O error; resubmitting everything unanswered on a new connection
/// yields output bitwise-equal to an in-process fleet built from the same
/// config.
#[test]
fn conn_reset_is_survived_bit_identically() {
    let _gate = GATE.lock().unwrap_or_else(PoisonError::into_inner);
    epim_faults::clear();

    let cfg = small_fleet();
    let (addr, flag, server) = start_with(&cfg, |s| s);
    let reference = cfg.build().unwrap();
    let tid = reference.tenant_id("t").unwrap();

    // The second reply write severs the socket instead of answering.
    epim_faults::install(
        FaultPlan::new(42).with_rule(FaultPoint::ConnReset, FaultRule::once_at(2)),
    );

    let mut client = Client::connect(&addr.to_string()).unwrap();
    let xs = inputs(4, 1100);
    let mut unanswered = HashMap::new();
    for x in &xs {
        let id = client.submit("t", x.clone()).unwrap();
        unanswered.insert(id, x.clone());
    }
    read_until_cut(&mut client, &mut unanswered, &reference, tid);
    assert!(unanswered.len() >= xs.len() - 1, "the second reply was cut");
    let fired = epim_faults::fire_count(FaultPoint::ConnReset);
    epim_faults::clear();
    assert_eq!(fired, 1, "the reset must have actually been injected");

    drop(client);
    resubmit_and_check(addr, unanswered, &reference, tid);
    flag.store(true, Ordering::SeqCst);
    let report = server.join().unwrap();
    assert_eq!(report.connections, 2, "report: {report:?}");
}

/// A frame torn mid-body (length prefix promises more bytes than
/// arrive) must be detected as a transport failure — never decoded into
/// wrong bits — and resubmission on a new connection recovers every
/// answer exactly.
#[test]
fn torn_frame_is_detected_and_recovered() {
    let _gate = GATE.lock().unwrap_or_else(PoisonError::into_inner);
    epim_faults::clear();

    let cfg = small_fleet();
    let (addr, flag, server) = start_with(&cfg, |s| s);
    let reference = cfg.build().unwrap();
    let tid = reference.tenant_id("t").unwrap();

    // The very first reply is written half-way, then the socket severs.
    epim_faults::install(
        FaultPlan::new(42).with_rule(FaultPoint::TornFrame, FaultRule::once_at(1)),
    );

    let mut client = Client::connect(&addr.to_string()).unwrap();
    let xs = inputs(3, 1200);
    let mut unanswered = HashMap::new();
    for x in &xs {
        let id = client.submit("t", x.clone()).unwrap();
        unanswered.insert(id, x.clone());
    }
    read_until_cut(&mut client, &mut unanswered, &reference, tid);
    assert_eq!(unanswered.len(), xs.len(), "the first reply was torn");
    let fired = epim_faults::fire_count(FaultPoint::TornFrame);
    epim_faults::clear();
    assert_eq!(fired, 1);

    drop(client);
    resubmit_and_check(addr, unanswered, &reference, tid);
    flag.store(true, Ordering::SeqCst);
    server.join().unwrap();
}

/// A peer that goes silent past the idle timeout is disconnected with a
/// typed error frame (and counted), instead of pinning session threads
/// forever.
#[test]
fn idle_peer_is_disconnected_with_typed_error() {
    let _gate = GATE.lock().unwrap_or_else(PoisonError::into_inner);
    epim_faults::clear();

    let cfg = small_fleet();
    let (addr, flag, server) =
        start_with(&cfg, |s| s.with_idle_timeout(Duration::from_millis(100)));

    // Handshake, then say nothing.
    let mut stream = TcpStream::connect(addr).unwrap();
    wire::write_hello(&mut stream).unwrap();
    wire::read_hello(&mut stream).unwrap();
    match Message::read(&mut stream, wire::MAX_FRAME).unwrap() {
        Some(Message::Error(err)) => {
            assert_eq!(err.id, wire::NO_REQUEST);
            assert_eq!(err.code, wire::code::IO);
            assert!(err.message.contains("idle"), "{}", err.message);
        }
        other => panic!("want an idle-timeout error frame, got {other:?}"),
    }
    assert!(
        Message::read(&mut stream, wire::MAX_FRAME)
            .unwrap()
            .is_none(),
        "connection must close after the idle timeout"
    );

    flag.store(true, Ordering::SeqCst);
    let report = server.join().unwrap();
    assert_eq!(report.idle_disconnects, 1, "report: {report:?}");
}

/// A connection over the cap is answered — hello plus one typed
/// `overloaded` error frame — and closed; established sessions keep
/// serving untouched.
#[test]
fn connection_cap_rejects_with_typed_overload() {
    let _gate = GATE.lock().unwrap_or_else(PoisonError::into_inner);
    epim_faults::clear();

    let cfg = small_fleet();
    let (addr, flag, server) = start_with(&cfg, |s| s.with_max_connections(1));
    let reference = cfg.build().unwrap();
    let tid = reference.tenant_id("t").unwrap();

    // Session A establishes itself with a full round trip.
    let mut a = Client::connect(&addr.to_string()).unwrap();
    let xs = inputs(2, 1300);
    let resp = a.infer("t", xs[0].clone()).unwrap().expect("served");
    let want = reference.infer(tid, xs[0].clone()).unwrap().output;
    assert_eq!(want.data(), resp.output.data());

    // Connection B is over the cap: typed rejection, then close.
    let mut b = TcpStream::connect(addr).unwrap();
    wire::write_hello(&mut b).unwrap();
    wire::read_hello(&mut b).unwrap();
    match Message::read(&mut b, wire::MAX_FRAME).unwrap() {
        Some(Message::Error(err)) => {
            assert_eq!(err.id, wire::NO_REQUEST);
            assert_eq!(err.code, wire::code::OVERLOADED);
            assert!(err.message.contains("connection limit"), "{}", err.message);
        }
        other => panic!("want an overloaded error frame, got {other:?}"),
    }
    assert!(Message::read(&mut b, wire::MAX_FRAME).unwrap().is_none());

    // Session A is unaffected by B's rejection.
    let resp = a.infer("t", xs[1].clone()).unwrap().expect("still served");
    let want = reference.infer(tid, xs[1].clone()).unwrap().output;
    assert_eq!(want.data(), resp.output.data());
    a.close().unwrap();

    flag.store(true, Ordering::SeqCst);
    let report = server.join().unwrap();
    assert_eq!(report.connections, 1, "report: {report:?}");
    assert_eq!(report.connections_rejected, 1, "report: {report:?}");
}

/// The health frame reports the fleet's tenant list (and the draining
/// flag) without touching any tenant queue.
#[test]
fn health_frame_reports_fleet_snapshot() {
    let _gate = GATE.lock().unwrap_or_else(PoisonError::into_inner);
    epim_faults::clear();

    let cfg = FleetConfig {
        workers: 1,
        tenants: vec![
            TenantSpec::new("alpha", 8, 4, 10, 7),
            TenantSpec::new("beta", 8, 8, 12, 9),
        ],
    };
    let (addr, flag, server) = start_with(&cfg, |s| s);

    let mut client = Client::connect(&addr.to_string()).unwrap();
    let health = client.health().unwrap();
    assert!(!health.draining);
    assert_eq!(
        health.tenants,
        vec!["alpha".to_string(), "beta".to_string()]
    );
    client.close().unwrap();

    flag.store(true, Ordering::SeqCst);
    let report = server.join().unwrap();
    assert_eq!(report.requests, 0, "health probes are not requests");
    assert_eq!(report.error_frames, 0);
}

/// A wire-carried deadline that expires while the batch window holds the
/// request open comes back as a typed `deadline` error frame — the slot
/// is never spent on an answer nobody is waiting for.
#[test]
fn wire_deadline_expires_into_typed_error_frame() {
    let _gate = GATE.lock().unwrap_or_else(PoisonError::into_inner);
    epim_faults::clear();

    // A long batch window holds the lone request open well past its
    // 30 ms deadline; the scheduler's sweep sheds it.
    let mut spec = TenantSpec::new("slow", 8, 4, 10, 7);
    spec.max_batch = 8;
    spec.batch_window_ms = 300;
    let cfg = FleetConfig {
        workers: 1,
        tenants: vec![spec],
    };
    let (addr, flag, server) = start_with(&cfg, |s| s);

    let mut client = Client::connect(&addr.to_string()).unwrap();
    let x = inputs(1, 1400).pop().unwrap();
    let id = client.submit_with_deadline("slow", x, 30).unwrap();
    match client.recv_reply().unwrap() {
        Err(err) => {
            assert_eq!(err.id, id);
            assert_eq!(err.code, wire::code::DEADLINE, "{}", err.message);
        }
        Ok(resp) => panic!("expected a deadline error frame, got response {}", resp.id),
    }
    client.close().unwrap();

    flag.store(true, Ordering::SeqCst);
    let report = server.join().unwrap();
    assert_eq!(report.error_frames, 1, "report: {report:?}");
}

/// A reply is written when its request completes, not when the writer
/// next looks. With a stalled request in flight on the connection, a
/// stream of fast ones and a health probe are each answered as they
/// complete — every hand-off wakes the writer, where it used to sleep out
/// a 10 ms nap first — and all of them before the stalled reply.
#[test]
fn fast_replies_overtake_a_stalled_request_on_the_same_connection() {
    let _gate = GATE.lock().unwrap_or_else(PoisonError::into_inner);
    epim_faults::clear();

    // Two workers, so `fast` runs beside the stalled `slow`; no
    // coalescing, so nothing but the writer can hold a reply back.
    let mut slow = TenantSpec::new("slow", 8, 4, 10, 7);
    let mut fast = TenantSpec::new("fast", 8, 4, 10, 8);
    for spec in [&mut slow, &mut fast] {
        spec.max_batch = 1;
        spec.batch_window_ms = 0;
    }
    let cfg = FleetConfig {
        workers: 2,
        tenants: vec![slow, fast],
    };
    let (addr, flag, server) = start_with(&cfg, |s| s);
    let mut client = Client::connect(&addr.to_string()).unwrap();
    let xs = inputs(2, 1500);

    // The first stage to execute sleeps 500 ms: wait until the slow
    // request has taken that stall before sending anything else.
    epim_faults::install(FaultPlan::new(42).with_rule(
        FaultPoint::StageDelay,
        FaultRule {
            delay_ms: 500,
            ..FaultRule::once_at(1)
        },
    ));
    let slow_id = client.submit("slow", xs[0].clone()).unwrap();
    let armed = Instant::now();
    while epim_faults::fire_count(FaultPoint::StageDelay) == 0 {
        assert!(
            armed.elapsed() < Duration::from_secs(10),
            "stall never fired"
        );
        std::thread::sleep(Duration::from_millis(2));
    }

    const FAST: usize = 10;
    let mut lag = Duration::ZERO;
    for _ in 0..FAST {
        let t0 = Instant::now();
        let id = client.submit("fast", xs[1].clone()).unwrap();
        let resp = client.recv_reply().unwrap().expect("no error frames");
        assert_eq!(resp.id, id, "a fast reply must not wait for the slow one");
        // What the reply spent outside the scheduler: wire plus writer.
        lag += t0
            .elapsed()
            .saturating_sub(Duration::from_nanos(resp.latency_ns));
    }
    let t0 = Instant::now();
    assert_eq!(client.health().unwrap().tenants, ["slow", "fast"]);
    lag += t0.elapsed();
    // 108-116 ms with the 10 ms nap (each closed-loop reply sat one out),
    // 0.2-0.4 ms without.
    assert!(
        lag < Duration::from_millis(20),
        "{FAST} fast replies and a health probe lagged {lag:?} behind their completion"
    );
    let resp = client.recv_reply().unwrap().expect("no error frames");
    assert_eq!(resp.id, slow_id);
    epim_faults::clear();

    client.close().unwrap();
    flag.store(true, Ordering::SeqCst);
    let report = server.join().unwrap();
    assert_eq!(report.requests, 1 + FAST as u64);
    assert_eq!(report.error_frames, 0);
}

/// Graceful drain under hostile clients: sessions that vanish abruptly
/// and a peer that dies mid-frame must not stall the drain — the
/// well-behaved client still gets every answer (bit-identical) and the
/// server joins cleanly.
#[test]
fn drain_survives_concurrent_disconnects_and_midframe_resets() {
    let _gate = GATE.lock().unwrap_or_else(PoisonError::into_inner);
    epim_faults::clear();

    let cfg = small_fleet();
    let (addr, flag, server) = start_with(&cfg, |s| s);
    let reference = cfg.build().unwrap();
    let tid = reference.tenant_id("t").unwrap();

    // A well-behaved client with work in flight.
    let mut good = Client::connect(&addr.to_string()).unwrap();
    let xs = inputs(3, 1500);
    let mut by_id = std::collections::HashMap::new();
    for x in &xs {
        let id = good.submit("t", x.clone()).unwrap();
        by_id.insert(id, x.clone());
    }

    // A client that submits and then vanishes without a goodbye.
    let mut rude = Client::connect(&addr.to_string()).unwrap();
    rude.submit("t", xs[0].clone()).unwrap();
    drop(rude);

    // A peer that dies mid-frame: the length prefix promises 100 bytes,
    // 10 arrive, then the socket drops.
    let mut torn = TcpStream::connect(addr).unwrap();
    wire::write_hello(&mut torn).unwrap();
    wire::read_hello(&mut torn).unwrap();
    torn.write_all(&100u32.to_le_bytes()).unwrap();
    torn.write_all(&[0u8; 10]).unwrap();
    drop(torn);

    // Pull the plug while all of the above is in flight.
    std::thread::sleep(Duration::from_millis(50));
    flag.store(true, Ordering::SeqCst);

    for _ in 0..xs.len() {
        let resp = good
            .recv_reply()
            .unwrap()
            .expect("drain must answer the surviving client");
        let input = by_id.remove(&resp.id).unwrap();
        let want = reference.infer(tid, input).unwrap().output;
        assert_eq!(want.data(), resp.output.data());
    }
    let (_, receiver) = good.split();
    receiver
        .await_goodbye()
        .expect("drain must end with a goodbye");

    // The drain completing at all is the core assertion: no session —
    // vanished, torn or healthy — may stall the join.
    let report = server.join().unwrap();
    assert_eq!(report.connections, 3, "report: {report:?}");
}

/// The server's Prometheus exposition carries both the fleet's serving
/// metrics (worker restarts, deadline sheds) and the transport counters,
/// readable while `serve` runs on another thread.
#[test]
fn prometheus_exposition_includes_resilience_counters() {
    let _gate = GATE.lock().unwrap_or_else(PoisonError::into_inner);
    epim_faults::clear();

    let cfg = small_fleet();
    let engine = cfg.build().unwrap();
    let server = Arc::new(
        Server::bind(engine, "127.0.0.1:0")
            .unwrap()
            .with_max_connections(4),
    );
    let addr = server.local_addr().unwrap();
    let flag = server.shutdown_flag();
    let serving = Arc::clone(&server);
    let handle = std::thread::spawn(move || serving.serve().unwrap());

    let reference = cfg.build().unwrap();
    let tid = reference.tenant_id("t").unwrap();
    let mut client = Client::connect(&addr.to_string()).unwrap();
    let x = inputs(1, 1600).pop().unwrap();
    let resp = client.infer("t", x.clone()).unwrap().expect("served");
    let want = reference.infer(tid, x).unwrap().output;
    assert_eq!(want.data(), resp.output.data());

    let text = server.render_prometheus();
    for metric in [
        "# TYPE epim_serve_connections_total counter",
        "epim_serve_connections_total 1",
        "epim_serve_requests_total 1",
        "epim_serve_error_frames_total 0",
        "epim_serve_connections_rejected_total 0",
        "epim_serve_idle_disconnects_total 0",
        "# TYPE epim_worker_restarts_total counter",
        "epim_worker_restarts_total 0",
        "# TYPE epim_deadline_exceeded_total counter",
    ] {
        assert!(text.contains(metric), "missing `{metric}` in:\n{text}");
    }

    client.close().unwrap();
    flag.store(true, Ordering::SeqCst);
    handle.join().unwrap();
}
