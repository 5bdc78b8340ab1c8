//! Loopback integration tests: a real TCP server on an ephemeral port
//! must serve the default three-tenant zoo **bit-identically** to an
//! in-process fleet built from the same `FleetConfig`, reply with typed
//! error frames for overload / unknown tenants / protocol violations,
//! and drain gracefully — answering everything in flight before closing.

use epim_serve::client::Client;
use epim_serve::fleet::{FleetConfig, TenantSpec, INPUT_SHAPE};
use epim_serve::server::{ServeReport, Server};
use epim_serve::wire::{self, Message};
use epim_tensor::{init, rng, Tensor};
use std::io::Write;
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

fn start(
    cfg: &FleetConfig,
    max_frame: Option<u32>,
) -> (SocketAddr, Arc<AtomicBool>, JoinHandle<ServeReport>) {
    let engine = cfg.build().unwrap();
    let mut server = Server::bind(engine, "127.0.0.1:0").unwrap();
    if let Some(mf) = max_frame {
        server = server.with_max_frame(mf);
    }
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

/// The serving invariant: three tenants, three concurrent
/// clients, every wire output bitwise-equal to a direct in-process
/// `MultiEngine` built from the same fleet config.
#[test]
fn loopback_serving_is_bit_identical_to_in_process() {
    let cfg = FleetConfig::default_zoo();
    let (addr, flag, server) = start(&cfg, None);
    let reference = cfg.build().unwrap();

    const PER_CLIENT: usize = 9;
    let tenant_names: Vec<String> = cfg.tenants.iter().map(|t| t.name.clone()).collect();
    let wire_outputs: Vec<Vec<(String, Tensor, Tensor)>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..3)
            .map(|c| {
                let addr = addr.to_string();
                let tenant_names = &tenant_names;
                scope.spawn(move || {
                    let mut client = Client::connect(&addr).unwrap();
                    let xs = inputs(PER_CLIENT, 500 + c as u64);
                    // Pipeline everything, then collect by id.
                    let mut by_id = std::collections::HashMap::new();
                    for (k, x) in xs.iter().enumerate() {
                        let tenant = &tenant_names[(c + k) % tenant_names.len()];
                        let id = client.submit(tenant, x.clone()).unwrap();
                        by_id.insert(id, (tenant.clone(), x.clone()));
                    }
                    let mut got = Vec::new();
                    for _ in 0..xs.len() {
                        let resp = client.recv_reply().unwrap().expect("no error frames");
                        assert!(resp.batch_size >= 1);
                        let (tenant, input) = by_id.remove(&resp.id).expect("known id");
                        got.push((tenant, input, resp.output));
                    }
                    client.close().unwrap();
                    got
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    let mut compared = 0;
    for (tenant, input, wire_out) in wire_outputs.into_iter().flatten() {
        let tid = reference.tenant_id(&tenant).unwrap();
        let want = reference.infer(tid, input).unwrap().output;
        assert_eq!(want.shape(), wire_out.shape());
        assert_eq!(
            want.data(),
            wire_out.data(),
            "wire output differs from in-process output for tenant `{tenant}`"
        );
        compared += 1;
    }
    assert_eq!(compared, 3 * PER_CLIENT);

    flag.store(true, Ordering::SeqCst);
    let report = server.join().unwrap();
    assert_eq!(report.connections, 3);
    assert_eq!(report.requests, (3 * PER_CLIENT) as u64);
    assert_eq!(report.error_frames, 0);
}

/// A saturated tenant sheds into typed `overloaded` error frames while
/// the accepted requests still come back correct; an unknown tenant gets
/// its own error code without poisoning the connection.
#[test]
fn overload_and_unknown_tenant_reply_with_typed_errors() {
    // One tiny tenant, no batching, queue of one: a pipelined burst far
    // outpaces execution, so some requests must shed.
    let mut spec = TenantSpec::new("only", 8, 4, 10, 7);
    spec.max_batch = 1;
    spec.batch_window_ms = 0;
    spec.queue_capacity = 1;
    let cfg = FleetConfig {
        workers: 1,
        tenants: vec![spec],
    };
    let (addr, flag, server) = start(&cfg, None);
    let reference = cfg.build().unwrap();
    let only = reference.tenant_id("only").unwrap();

    let mut client = Client::connect(&addr.to_string()).unwrap();
    const BURST: usize = 64;
    let xs = inputs(BURST, 900);
    let mut by_id = std::collections::HashMap::new();
    for x in &xs {
        let id = client.submit("only", x.clone()).unwrap();
        by_id.insert(id, x.clone());
    }
    let mut ok = 0usize;
    let mut shed = 0usize;
    for _ in 0..BURST {
        match client.recv_reply().unwrap() {
            Ok(resp) => {
                let input = by_id.remove(&resp.id).unwrap();
                let want = reference.infer(only, input).unwrap().output;
                assert_eq!(want.data(), resp.output.data());
                ok += 1;
            }
            Err(err) => {
                assert_eq!(err.code, wire::code::OVERLOADED, "{}", err.message);
                assert!(err.message.contains("queue full"), "{}", err.message);
                shed += 1;
            }
        }
    }
    assert!(ok >= 1, "at least the first request must be served");
    assert!(
        shed >= 1,
        "a {BURST}-deep pipelined burst into a 1-slot queue must shed"
    );

    // Unknown tenant: typed error, connection survives.
    let reply = client.infer("nope", xs[0].clone()).unwrap();
    let err = reply.expect_err("unknown tenant must be an error frame");
    assert_eq!(err.code, wire::code::UNKNOWN_TENANT);
    assert!(err.message.contains("nope"), "{}", err.message);
    let reply = client.infer("only", xs[0].clone()).unwrap();
    let resp = reply.expect("connection must survive an unknown-tenant error");
    let want = reference.infer(only, xs[0].clone()).unwrap().output;
    assert_eq!(want.data(), resp.output.data());

    client.close().unwrap();
    flag.store(true, Ordering::SeqCst);
    let report = server.join().unwrap();
    assert_eq!(report.error_frames as usize, shed + 1);
}

/// Protocol violations — bad hello, malformed frame, oversize frame —
/// each get a typed `protocol` error frame and a closed connection.
#[test]
fn protocol_violations_are_rejected_with_error_frames() {
    let cfg = FleetConfig::default_zoo();
    let (addr, flag, server) = start(&cfg, Some(4096));

    // Bad magic in the hello.
    let mut stream = TcpStream::connect(addr).unwrap();
    stream.write_all(b"EVIL\x01\x00").unwrap();
    match Message::read(&mut stream, wire::MAX_FRAME).unwrap() {
        Some(Message::Error(err)) => assert_eq!(err.code, wire::code::PROTOCOL),
        other => panic!("want a protocol error frame, got {other:?}"),
    }
    assert!(
        Message::read(&mut stream, wire::MAX_FRAME)
            .unwrap()
            .is_none(),
        "connection must close after a protocol error"
    );

    // Unknown frame type after a valid hello.
    let mut stream = TcpStream::connect(addr).unwrap();
    wire::write_hello(&mut stream).unwrap();
    wire::read_hello(&mut stream).unwrap();
    wire::write_frame(&mut stream, &[0x7f, 1, 2, 3]).unwrap();
    match Message::read(&mut stream, wire::MAX_FRAME).unwrap() {
        Some(Message::Error(err)) => {
            assert_eq!(err.code, wire::code::PROTOCOL);
            assert!(err.message.contains("0x7f"), "{}", err.message);
        }
        other => panic!("want a protocol error frame, got {other:?}"),
    }
    assert!(Message::read(&mut stream, wire::MAX_FRAME)
        .unwrap()
        .is_none());

    // Oversize frame: rejected from the length prefix alone.
    let mut stream = TcpStream::connect(addr).unwrap();
    wire::write_hello(&mut stream).unwrap();
    wire::read_hello(&mut stream).unwrap();
    stream.write_all(&1_000_000u32.to_le_bytes()).unwrap();
    match Message::read(&mut stream, wire::MAX_FRAME).unwrap() {
        Some(Message::Error(err)) => {
            assert_eq!(err.code, wire::code::PROTOCOL);
            assert!(err.message.contains("4096"), "{}", err.message);
        }
        other => panic!("want a protocol error frame, got {other:?}"),
    }

    flag.store(true, Ordering::SeqCst);
    let report = server.join().unwrap();
    assert_eq!(report.error_frames, 3);
}

/// Graceful drain: a shutdown with requests held open by a long batching
/// window still answers every in-flight request and says goodbye before
/// the server returns.
#[test]
fn drain_answers_in_flight_requests() {
    // A long window with a small burst keeps requests in flight: the
    // batcher holds them open hoping for `max_batch` peers.
    let mut spec = TenantSpec::new("slow", 8, 4, 10, 7);
    spec.max_batch = 8;
    spec.batch_window_ms = 400;
    let cfg = FleetConfig {
        workers: 1,
        tenants: vec![spec],
    };
    let (addr, flag, server) = start(&cfg, None);
    let reference = cfg.build().unwrap();
    let slow = reference.tenant_id("slow").unwrap();

    let mut client = Client::connect(&addr.to_string()).unwrap();
    let xs = inputs(3, 321);
    let mut by_id = std::collections::HashMap::new();
    for x in &xs {
        let id = client.submit("slow", x.clone()).unwrap();
        by_id.insert(id, x.clone());
    }
    // Let the submissions land in the scheduler, then pull the plug
    // while the batch window still holds them all in flight.
    std::thread::sleep(Duration::from_millis(100));
    flag.store(true, Ordering::SeqCst);

    for _ in 0..xs.len() {
        let resp = client
            .recv_reply()
            .unwrap()
            .expect("drain must answer in-flight requests, not drop them");
        let input = by_id.remove(&resp.id).unwrap();
        let want = reference.infer(slow, input).unwrap().output;
        assert_eq!(want.data(), resp.output.data());
    }
    let (_, receiver) = client.split();
    receiver
        .await_goodbye()
        .expect("drain must end with a goodbye frame");

    let report = server.join().unwrap();
    assert_eq!(report.requests, 3);
    assert_eq!(report.error_frames, 0);
}
