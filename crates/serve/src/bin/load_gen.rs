//! Load generator for the TCP serving front-end.
//!
//! ```text
//! load_gen [--connect ADDR] [--connections N] [--requests M]
//!          [--rate QPS] [--config FLEET.toml] [--seed S]
//!          [--deadline-ms MS] [--check]
//! ```
//!
//! Opens `N` connections and drives `M` requests over each — closed-loop
//! (next request after the previous reply) by default, or open-loop at a
//! fixed aggregate submission rate with `--rate` (pipelined: a sender
//! thread paces submissions while a receiver thread collects replies).
//! An open-loop request's latency runs from when its schedule made it
//! due, not from when it was sent, so a sender that falls behind shows
//! in the percentiles instead of hiding (no coordinated omission).
//! Requests round-robin over the fleet's tenants with deterministic
//! seeded inputs. Reports sustained QPS and p50/p99/p999 end-to-end
//! latency, as a human summary plus one machine-readable JSON line.
//!
//! `--deadline-ms` attaches a relative completion deadline to every
//! request; replies shed server-side come back as typed `deadline` error
//! frames. Typed error frames are counted per class (`overloaded`,
//! `deadline`, `protocol`, `other`) separately from transport failures
//! in both the human summary and the JSON line.
//!
//! `--check` rebuilds the same fleet in-process (the weights are
//! deterministically seeded, so server and checker agree bit-for-bit)
//! and asserts every wire output equals the in-process output exactly;
//! any mismatch or error frame exits nonzero.

use epim_serve::client::Client;
use epim_serve::fleet::{FleetConfig, INPUT_SHAPE};
use epim_serve::wire;
use epim_tensor::{init, rng, Tensor};
use std::time::{Duration, Instant};

struct Args {
    connect: String,
    connections: usize,
    requests: usize,
    rate: f64,
    config: Option<String>,
    seed: u64,
    deadline_ms: u32,
    check: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        connect: "127.0.0.1:7878".to_string(),
        connections: 1,
        requests: 32,
        rate: 0.0,
        config: None,
        seed: 1000,
        deadline_ms: 0,
        check: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().ok_or(format!("{name} wants a value"));
        match flag.as_str() {
            "--connect" => args.connect = value("--connect")?,
            "--connections" => {
                args.connections = value("--connections")?
                    .parse()
                    .map_err(|_| "--connections wants an integer".to_string())?
            }
            "--requests" => {
                args.requests = value("--requests")?
                    .parse()
                    .map_err(|_| "--requests wants an integer".to_string())?
            }
            "--rate" => {
                args.rate = value("--rate")?
                    .parse()
                    .map_err(|_| "--rate wants a number".to_string())?
            }
            "--config" => args.config = Some(value("--config")?),
            "--seed" => {
                args.seed = value("--seed")?
                    .parse()
                    .map_err(|_| "--seed wants an integer".to_string())?
            }
            "--deadline-ms" => {
                args.deadline_ms = value("--deadline-ms")?
                    .parse()
                    .map_err(|_| "--deadline-ms wants an integer".to_string())?
            }
            "--check" => args.check = true,
            "--help" | "-h" => {
                println!(
                    "usage: load_gen [--connect ADDR] [--connections N] [--requests M] \
                     [--rate QPS] [--config FLEET.toml] [--seed S] \
                     [--deadline-ms MS] [--check]"
                );
                std::process::exit(0);
            }
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    if args.connections == 0 || args.requests == 0 {
        return Err("--connections and --requests must be positive".to_string());
    }
    Ok(args)
}

/// One completed request's outcome.
struct Sample {
    latency: Duration,
    /// Index into this connection's input list (for `--check`).
    input_idx: usize,
    output: Option<Tensor>,
    error: Option<(u16, String)>,
}

/// The deterministic workload for one connection: inputs and the tenant
/// each one targets. Shared verbatim by the driver and the checker.
fn connection_workload(
    tenants: &[String],
    requests: usize,
    seed: u64,
    conn: usize,
) -> Vec<(String, Tensor)> {
    let mut r = rng::seeded(seed.wrapping_add(conn as u64));
    (0..requests)
        .map(|k| {
            let tenant = tenants[(conn + k) % tenants.len()].clone();
            (tenant, init::uniform(&INPUT_SHAPE, -1.0, 1.0, &mut r))
        })
        .collect()
}

fn drive_closed_loop(
    addr: &str,
    workload: &[(String, Tensor)],
    deadline_ms: u32,
) -> Result<Vec<Sample>, String> {
    let mut client = Client::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    let mut samples = Vec::with_capacity(workload.len());
    for (k, (tenant, input)) in workload.iter().enumerate() {
        let started = Instant::now();
        client
            .submit_with_deadline(tenant, input.clone(), deadline_ms)
            .map_err(|e| format!("request {k}: {e}"))?;
        let reply = client
            .recv_reply()
            .map_err(|e| format!("request {k}: {e}"))?;
        let latency = started.elapsed();
        samples.push(match reply {
            Ok(resp) => Sample {
                latency,
                input_idx: k,
                output: Some(resp.output),
                error: None,
            },
            Err(err) => Sample {
                latency,
                input_idx: k,
                output: None,
                error: Some((err.code, err.message)),
            },
        });
    }
    client.close().map_err(|e| format!("close: {e}"))?;
    Ok(samples)
}

fn drive_open_loop(
    addr: &str,
    workload: Vec<(String, Tensor)>,
    interval: Duration,
    deadline_ms: u32,
) -> Result<Vec<Sample>, String> {
    let client = Client::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    let (mut sender, mut receiver) = client.split();
    let n = workload.len();
    // Request `k` is due at `epoch + k·interval` and timed from then, not
    // from when the sender got it out: a sender that falls behind delays
    // every later submission, and a client arriving at this rate would
    // wait that delay too. Ids are monotonic from 1 in submission order,
    // so the receiver recovers `k` (and the due time) from the reply id.
    let epoch = Instant::now();
    let due = |k: usize| epoch + interval.mul_f64(k as f64);

    std::thread::scope(|scope| {
        let send = scope.spawn(move || -> Result<_, String> {
            for (k, (tenant, input)) in workload.into_iter().enumerate() {
                if let Some(wait) = due(k).checked_duration_since(Instant::now()) {
                    std::thread::sleep(wait);
                }
                sender
                    .submit_with_deadline(&tenant, input, deadline_ms)
                    .map_err(|e| format!("submit {k}: {e}"))?;
            }
            Ok(sender)
        });
        let recv = scope.spawn(move || -> Result<Vec<Sample>, String> {
            let mut samples = Vec::with_capacity(n);
            for _ in 0..n {
                let reply = receiver.recv_reply().map_err(|e| format!("recv: {e}"))?;
                let done = Instant::now();
                let (id, output, error) = match reply {
                    Ok(resp) => (resp.id, Some(resp.output), None),
                    Err(err) => (err.id, None, Some((err.code, err.message))),
                };
                let k = (id.wrapping_sub(1)) as usize;
                samples.push(Sample {
                    latency: done.saturating_duration_since(due(k)),
                    input_idx: k,
                    output,
                    error,
                });
            }
            // All replies are in; confirm the orderly close.
            receiver
                .await_goodbye()
                .map_err(|e| format!("goodbye: {e}"))?;
            Ok(samples)
        });
        // Goodbye goes out only after the last submission; the receiver
        // drains every reply and then the server's goodbye.
        let sender = send.join().expect("sender thread panicked")?;
        sender.goodbye().map_err(|e| format!("goodbye: {e}"))?;
        recv.join().expect("receiver thread panicked")
    })
}

fn percentile_ms(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let idx = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[idx.clamp(1, sorted.len()) - 1]
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("load_gen: {e}");
            std::process::exit(2);
        }
    };
    let fleet_cfg = match &args.config {
        None => FleetConfig::default_zoo(),
        Some(path) => match std::fs::read_to_string(path)
            .map_err(|e| e.to_string())
            .and_then(|text| FleetConfig::parse(&text).map_err(|e| e.to_string()))
        {
            Ok(cfg) => cfg,
            Err(e) => {
                eprintln!("load_gen: fleet config `{path}`: {e}");
                std::process::exit(2);
            }
        },
    };
    let tenants: Vec<String> = fleet_cfg.tenants.iter().map(|t| t.name.clone()).collect();
    let interval = if args.rate > 0.0 {
        // The aggregate rate spreads evenly over the connections.
        Some(Duration::from_secs_f64(args.connections as f64 / args.rate))
    } else {
        None
    };

    let started = Instant::now();
    let per_conn: Vec<Result<Vec<Sample>, String>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..args.connections)
            .map(|conn| {
                let addr = args.connect.clone();
                let workload = connection_workload(&tenants, args.requests, args.seed, conn);
                let deadline_ms = args.deadline_ms;
                scope.spawn(move || match interval {
                    None => drive_closed_loop(&addr, &workload, deadline_ms),
                    Some(iv) => drive_open_loop(&addr, workload, iv, deadline_ms),
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("connection thread panicked"))
            .collect()
    });
    let elapsed = started.elapsed();

    let mut samples_by_conn: Vec<Vec<Sample>> = Vec::with_capacity(per_conn.len());
    let mut transport_failures = 0u64;
    for (conn, result) in per_conn.into_iter().enumerate() {
        match result {
            Ok(samples) => samples_by_conn.push(samples),
            Err(e) => {
                // A transport failure (reset, refused, mid-frame EOF) is
                // a different failure class than a typed error frame:
                // the server never answered. Count it; an empty sample
                // list keeps `--check` indexing consistent.
                eprintln!("load_gen: connection {conn}: transport failure: {e}");
                transport_failures += 1;
                samples_by_conn.push(Vec::new());
            }
        }
    }
    if transport_failures > 0 && args.check {
        eprintln!(
            "load_gen: check FAILED: {transport_failures} connection(s) lost to transport failures"
        );
        std::process::exit(1);
    }

    let mut latencies_ms: Vec<f64> = Vec::new();
    let mut completed = 0u64;
    let mut errors = 0u64;
    let (mut err_overloaded, mut err_deadline, mut err_protocol, mut err_other) =
        (0u64, 0u64, 0u64, 0u64);
    for samples in &samples_by_conn {
        for s in samples {
            completed += 1;
            if let Some((code, message)) = &s.error {
                errors += 1;
                match *code {
                    wire::code::OVERLOADED => err_overloaded += 1,
                    wire::code::DEADLINE => err_deadline += 1,
                    wire::code::PROTOCOL => err_protocol += 1,
                    _ => err_other += 1,
                }
                eprintln!("load_gen: error frame code={code}: {message}");
            }
            latencies_ms.push(s.latency.as_secs_f64() * 1e3);
        }
    }
    latencies_ms.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let qps = completed as f64 / elapsed.as_secs_f64();
    let p50 = percentile_ms(&latencies_ms, 50.0);
    let p99 = percentile_ms(&latencies_ms, 99.0);
    let p999 = percentile_ms(&latencies_ms, 99.9);

    let mut check_status = "skipped";
    if args.check {
        check_status = "ok";
        let engine = match fleet_cfg.build() {
            Ok(e) => e,
            Err(e) => {
                eprintln!("load_gen: building check fleet: {e}");
                std::process::exit(1);
            }
        };
        let mut compared = 0u64;
        for (conn, samples) in samples_by_conn.iter().enumerate() {
            let workload = connection_workload(&tenants, args.requests, args.seed, conn);
            for s in samples {
                let (tenant, input) = &workload[s.input_idx];
                let Some(wire_out) = &s.output else {
                    eprintln!(
                        "load_gen: check FAILED: connection {conn} request {} got an error frame",
                        s.input_idx
                    );
                    std::process::exit(1);
                };
                let tid = engine.tenant_id(tenant).expect("checker fleet has tenant");
                let want = match engine.infer(tid, input.clone()) {
                    Ok(inf) => inf.output,
                    Err(e) => {
                        eprintln!("load_gen: check inference failed: {e}");
                        std::process::exit(1);
                    }
                };
                if wire_out.shape() != want.shape() || wire_out.data() != want.data() {
                    eprintln!(
                        "load_gen: check FAILED: connection {conn} request {} differs from \
                         in-process output (tenant `{tenant}`)",
                        s.input_idx
                    );
                    std::process::exit(1);
                }
                compared += 1;
            }
        }
        println!("load_gen: check OK — {compared} outputs bit-identical to in-process fleet");
    }

    println!(
        "load_gen: {completed} requests over {} connection(s) in {:.3}s — \
         {qps:.1} QPS, latency p50={p50:.3}ms p99={p99:.3}ms p999={p999:.3}ms, \
         {errors} error frames (overloaded={err_overloaded} deadline={err_deadline} \
         protocol={err_protocol} other={err_other}), {transport_failures} transport failures",
        args.connections,
        elapsed.as_secs_f64(),
    );
    println!(
        "{{\"qps\":{qps:.3},\"p50_ms\":{p50:.4},\"p99_ms\":{p99:.4},\"p999_ms\":{p999:.4},\
         \"requests\":{completed},\"errors\":{errors},\
         \"errors_overloaded\":{err_overloaded},\"errors_deadline\":{err_deadline},\
         \"errors_protocol\":{err_protocol},\"errors_other\":{err_other},\
         \"transport_failures\":{transport_failures},\
         \"elapsed_s\":{:.3},\"check\":\"{check_status}\"}}",
        elapsed.as_secs_f64(),
    );
    if errors > 0 && args.check {
        std::process::exit(1);
    }
}
