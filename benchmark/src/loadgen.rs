//! The benchmark's own load generator.
//!
//! Three traffic shapes, each checking every reply bitwise against the
//! oracle:
//!
//! - [`closed_inproc`]: a caller in a loop on an in-process fleet;
//! - [`closed_wire`]: one thread per connection keeping a fixed number of
//!   requests outstanding;
//! - [`paced_sender`] / [`paced_receiver`]: an open loop on one
//!   connection. Requests go out on a seeded Poisson schedule whether or
//!   not earlier ones have come back, and each is timed **from when it was
//!   due**, so a stall charges the requests queued behind it (the shipped
//!   `load_gen` stamps at the actual send, which hides exactly that). How
//!   late the sender ran is reported with the result.
//!
//! No thread here allocates per request beyond the input tensor the
//! submission API takes by value, and the only state threads share while
//! measuring is the open loop's pair of progress counters.

use crate::inputs::SplitMix64;
use crate::procstat::thread_cpu_seconds;
use crate::system::{bits_equal, Conn, TenantOracle};
use crate::trace::{now_ns, Lane, NO_REQUEST};
use epim_runtime::{MultiEngine, RuntimeError, TenantId};
use epim_serve::wire;
use epim_serve::{ClientReceiver, ClientSender, Reply};
use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Duration;

/// The measured part of a drive on the [`now_ns`] clock: requests that
/// start before `warm_end_ns` are warm-up and discarded; none starts at or
/// after `end_ns`.
#[derive(Debug, Clone, Copy)]
pub struct Window {
    pub warm_end_ns: u64,
    pub end_ns: u64,
}

/// How one request ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum Outcome {
    /// Answered, and bit-identical to the oracle.
    Ok,
    /// Refused by flow control (a typed `overloaded` error).
    Shed,
    /// Any other typed error.
    Errored,
    /// The connection failed before the reply arrived.
    TransportFailed,
    /// Answered with different bits than the oracle's.
    Mismatched,
}

/// One request as its caller saw it.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    pub id: u64,
    /// When the caller submitted it (closed loop) or when it was due (open
    /// loop).
    pub start_ns: u64,
    pub end_ns: u64,
    pub outcome: Outcome,
}

/// What one load-generator thread recorded. Kept small and independent of
/// how many requests went through — five bytes a request — because the
/// process's peak memory is one of the metrics: a log of whole samples made
/// `peak_rss_mb` follow the throughput.
pub struct ClientLog {
    window: Window,
    /// Requests of the measured window, by [`Outcome`].
    pub outcomes: [u64; 5],
    /// Mismatches during the warm-up, which fail the run all the same.
    pub warmup_mismatched: u64,
    /// Latency, in ms, of every bit-correct request of the measured window,
    /// in completion order, and the second of the window it started in.
    pub latency_ms: Vec<f32>,
    pub second: Vec<u8>,
    /// First and last bit-correct completion of the measured window.
    pub first_ok_ns: u64,
    pub last_ok_ns: u64,
    /// `(id, start_ns, end_ns)` of every request: traced runs only.
    pub requests: Vec<(u64, u64, u64)>,
    /// How late each open-loop send of the measured window was, in ms.
    pub send_lag_ms: Vec<f32>,
    /// CPU seconds the open-loop sender used over the measured window,
    /// nearly all of it waiting for due times.
    pub pacing_cpu_s: f64,
    pub lane: Lane,
}

/// Room for a client's requests, so that recording never reallocates: 60 s
/// at far more than this machine's request rate. (Untouched capacity is
/// not resident.)
const CAPACITY: usize = 1 << 21;

impl ClientLog {
    pub fn new(window: Window, lane: Lane) -> Self {
        ClientLog {
            window,
            outcomes: [0; 5],
            warmup_mismatched: 0,
            latency_ms: Vec::with_capacity(CAPACITY),
            second: Vec::with_capacity(CAPACITY),
            first_ok_ns: u64::MAX,
            last_ok_ns: 0,
            requests: Vec::new(),
            send_lag_ms: Vec::new(),
            pacing_cpu_s: 0.0,
            lane,
        }
    }

    /// Records one finished request.
    pub fn record(&mut self, sample: Sample) {
        if self.lane.is_on() {
            self.requests
                .push((sample.id, sample.start_ns, sample.end_ns));
        }
        if sample.start_ns < self.window.warm_end_ns {
            self.warmup_mismatched += u64::from(sample.outcome == Outcome::Mismatched);
            return;
        }
        self.outcomes[sample.outcome as usize] += 1;
        if sample.outcome == Outcome::Ok {
            let latency_ns = sample.end_ns.saturating_sub(sample.start_ns);
            self.latency_ms.push((latency_ns as f64 / 1e6) as f32);
            self.second
                .push(((sample.start_ns - self.window.warm_end_ns) / 1_000_000_000) as u8);
            self.first_ok_ns = self.first_ok_ns.min(sample.end_ns);
            self.last_ok_ns = self.last_ok_ns.max(sample.end_ns);
        }
    }
}

fn check(got: &epim_tensor::Tensor, want: &epim_tensor::Tensor) -> Outcome {
    if bits_equal(got, want) {
        Outcome::Ok
    } else {
        Outcome::Mismatched
    }
}

/// A closed-loop caller of tenant `id` on an in-process fleet: the next
/// request is submitted when the previous one has returned.
pub fn closed_inproc(
    engine: &MultiEngine,
    id: TenantId,
    oracle: &TenantOracle,
    mut picks: SplitMix64,
    window: Window,
    lane: Lane,
) -> ClientLog {
    let mut log = ClientLog::new(window, lane);
    let root = log.lane.begin("client", NO_REQUEST);
    for seq in 0u64.. {
        let k = picks.below(oracle.pool.len());
        let input = oracle.pool[k].clone();
        let start_ns = now_ns();
        if start_ns >= window.end_ns {
            break;
        }
        let span = log.lane.begin("infer", seq);
        let result = engine.infer(id, input);
        log.lane.end(span);
        let end_ns = now_ns();
        let outcome = match &result {
            Ok(inference) => log.lane.leaf("check", seq, || {
                check(&inference.output, &oracle.expected[k])
            }),
            Err(RuntimeError::Overloaded { .. }) => Outcome::Shed,
            Err(_) => Outcome::Errored,
        };
        log.record(Sample {
            id: seq,
            start_ns,
            end_ns,
            outcome,
        });
    }
    log.lane.end(root);
    log
}

fn reply_outcome(reply: &Reply, want: &epim_tensor::Tensor) -> Outcome {
    match reply {
        Ok(response) => check(&response.output, want),
        Err(err) if err.code == wire::code::OVERLOADED => Outcome::Shed,
        Err(_) => Outcome::Errored,
    }
}

fn reply_id(reply: &Reply) -> u64 {
    match reply {
        Ok(response) => response.id,
        Err(err) => err.id,
    }
}

/// Requests each connection of the closed wire loop keeps outstanding.
const WIRE_DEPTH: usize = 8;

/// A closed loop over one connection with [`WIRE_DEPTH`] requests
/// outstanding: each reply triggers the next submission. Tenants are
/// visited round-robin in `tenant_order`, starting at `first_slot`.
pub fn closed_wire(
    conn: &mut Conn,
    oracles: &[TenantOracle],
    tenant_order: &[usize],
    first_slot: usize,
    mut picks: SplitMix64,
    window: Window,
    lane: Lane,
) -> ClientLog {
    struct Inflight {
        start_ns: u64,
        tenant: usize,
        input: usize,
    }
    let mut log = ClientLog::new(window, lane);
    let mut inflight: HashMap<u64, Inflight> = HashMap::with_capacity(2 * WIRE_DEPTH);
    let mut slot = first_slot;
    let root = log.lane.begin("client", NO_REQUEST);

    // Returns false when the connection failed on the write.
    let mut submit = |log: &mut ClientLog, inflight: &mut HashMap<u64, Inflight>| -> bool {
        let tenant = tenant_order[slot % tenant_order.len()];
        slot += 1;
        let oracle = &oracles[tenant];
        let input = picks.below(oracle.pool.len());
        let tensor = oracle.pool[input].clone();
        let start_ns = now_ns();
        let span = log.lane.begin("submit", NO_REQUEST);
        let sent = conn.tx.submit(&oracle.name, tensor);
        match sent {
            Ok(id) => {
                log.lane.end_for(span, id);
                inflight.insert(
                    id,
                    Inflight {
                        start_ns,
                        tenant,
                        input,
                    },
                );
                true
            }
            Err(_) => {
                log.lane.end(span);
                log.record(Sample {
                    id: NO_REQUEST,
                    start_ns,
                    end_ns: now_ns(),
                    outcome: Outcome::TransportFailed,
                });
                false
            }
        }
    };

    let mut alive = (0..WIRE_DEPTH).all(|_| submit(&mut log, &mut inflight));
    while alive && !inflight.is_empty() {
        let span = log.lane.begin("recv", NO_REQUEST);
        let reply = conn.rx.recv_reply();
        let end_ns = now_ns();
        let Ok(reply) = reply else {
            log.lane.end(span);
            break;
        };
        let id = reply_id(&reply);
        log.lane.end_for(span, id);
        // An error frame that answers no request (`wire::NO_REQUEST`) is a
        // connection-level complaint; the requests it concerns fail when
        // the connection closes.
        let Some(request) = inflight.remove(&id) else {
            continue;
        };
        let want = &oracles[request.tenant].expected[request.input];
        let outcome = log.lane.leaf("check", id, || reply_outcome(&reply, want));
        log.record(Sample {
            id,
            start_ns: request.start_ns,
            end_ns,
            outcome,
        });
        if end_ns < window.end_ns {
            alive = submit(&mut log, &mut inflight);
        }
    }
    // Whatever is still outstanding went down with the connection.
    let end_ns = now_ns();
    for (id, request) in inflight {
        log.record(Sample {
            id,
            start_ns: request.start_ns,
            end_ns,
            outcome: Outcome::TransportFailed,
        });
    }
    log.lane.end(root);
    log
}

/// The open-loop schedule: for each request, when it is due and what it
/// asks. Shared read-only by the sender and the receiver; request ids are
/// `id_base + index`.
pub struct PacedPlan {
    pub id_base: u64,
    /// Absolute, on the [`now_ns`] clock.
    pub due_ns: Vec<u64>,
    pub tenant: Vec<usize>,
    pub input: Vec<usize>,
}

/// How long before a request is due the sender stops sleeping and spins.
/// On the machine the benchmark was sized on (2 vCPUs) a sleeping thread
/// wakes up late by 0.1 ms as a rule, by 0.3 ms often and by 10 ms at
/// times, and a request sent that late would be measured as the server's
/// latency. A margin of 0.2 ms absorbs the common oversleep; a much longer
/// one keeps the sender runnable nearly all the time, which on two cores
/// makes the scheduler hold it back for milliseconds (a spin of 1 ms was
/// measured to be late by 70 ms at the 99th percentile). The CPU the spin
/// burns is the generator's, so the sender measures it and
/// `cpu_ms_per_op` leaves it out.
const SPIN_NS: u64 = 200_000;

fn wait_until(due_ns: u64) {
    loop {
        let now = now_ns();
        if now >= due_ns {
            return;
        }
        if due_ns - now > SPIN_NS {
            std::thread::sleep(Duration::from_nanos(due_ns - now - SPIN_NS));
        } else {
            std::hint::spin_loop();
        }
    }
}

/// Most requests the open loop keeps outstanding. In normal operation one
/// or two are (2000 rps at 0.6 ms each), so the cap never binds; after a
/// stall of the machine it does, and keeps the sender from dumping the
/// whole backlog into the tenants' 64-deep shedding queues at once — one
/// half-second stall was seen to turn into 1131 shed requests. Waiting at
/// the cap makes the sender late, and lateness is charged to latency.
const MAX_OUTSTANDING: usize = 48;

/// The two counters the halves of the open loop share: how many requests
/// will have gone out (lowered by the sender if the connection fails on a
/// write), which is what the receiver waits for, and how many replies have
/// come back.
pub struct PacedProgress {
    sent: AtomicUsize,
    received: AtomicUsize,
}

impl PacedProgress {
    pub fn new(planned: usize) -> Self {
        PacedProgress {
            sent: AtomicUsize::new(planned),
            received: AtomicUsize::new(0),
        }
    }
}

/// Sends every request of `plan` when it is due, or as soon after as the
/// sender gets to it and fewer than [`MAX_OUTSTANDING`] are outstanding.
pub fn paced_sender(
    tx: &mut ClientSender,
    plan: &PacedPlan,
    oracles: &[TenantOracle],
    progress: &PacedProgress,
    window: Window,
    lane: Lane,
) -> ClientLog {
    let mut log = ClientLog::new(window, lane);
    log.send_lag_ms = Vec::with_capacity(plan.due_ns.len());
    let mut cpu_at_warm_end = None;
    let root = log.lane.begin("sender", NO_REQUEST);
    for (seq, &due_ns) in plan.due_ns.iter().enumerate() {
        let oracle = &oracles[plan.tenant[seq]];
        let tensor = oracle.pool[plan.input[seq]].clone();
        if cpu_at_warm_end.is_none() && due_ns >= window.warm_end_ns {
            cpu_at_warm_end = Some(thread_cpu_seconds());
        }
        wait_until(due_ns);
        // Relaxed: the count publishes nothing else, and a stale value only
        // delays the send by one more look.
        while seq - progress.received.load(Ordering::Relaxed) >= MAX_OUTSTANDING
            && progress.sent.load(Ordering::Relaxed) > seq
        {
            std::thread::yield_now();
        }
        let id = plan.id_base + seq as u64;
        let sent_ns = now_ns();
        let ok = log.lane.leaf("submit", id, || {
            tx.submit_with_id(id, &oracle.name, tensor, 0).is_ok()
        });
        if !ok {
            progress.sent.store(seq, Ordering::Release);
            break;
        }
        if due_ns >= window.warm_end_ns {
            log.send_lag_ms
                .push(((sent_ns - due_ns) as f64 / 1e6) as f32);
        }
    }
    let at_end = thread_cpu_seconds();
    log.pacing_cpu_s = at_end - cpu_at_warm_end.unwrap_or(at_end);
    log.lane.end(root);
    log
}

/// Receives the reply of every request the sender got out, timing each
/// from when it was due.
pub fn paced_receiver(
    rx: &mut ClientReceiver,
    plan: &PacedPlan,
    oracles: &[TenantOracle],
    progress: &PacedProgress,
    window: Window,
    lane: Lane,
) -> ClientLog {
    let mut log = ClientLog::new(window, lane);
    let mut answered = vec![false; plan.due_ns.len()];
    let mut received = 0;
    let root = log.lane.begin("receiver", NO_REQUEST);
    while received < progress.sent.load(Ordering::Acquire) {
        let span = log.lane.begin("recv", NO_REQUEST);
        let reply = rx.recv_reply();
        let end_ns = now_ns();
        let Ok(reply) = reply else {
            log.lane.end(span);
            // Nothing more will come back: release a sender waiting at the
            // cap (its next write fails, or it runs the schedule out).
            progress.sent.store(0, Ordering::Release);
            break;
        };
        let id = reply_id(&reply);
        log.lane.end_for(span, id);
        let seq = id.wrapping_sub(plan.id_base) as usize;
        if seq >= answered.len() || std::mem::replace(&mut answered[seq], true) {
            continue;
        }
        received += 1;
        progress.received.store(received, Ordering::Relaxed);
        let want = &oracles[plan.tenant[seq]].expected[plan.input[seq]];
        let outcome = log.lane.leaf("check", id, || reply_outcome(&reply, want));
        log.record(Sample {
            id,
            start_ns: plan.due_ns[seq],
            end_ns,
            outcome,
        });
    }
    // Requests that never got an answer: sent into a connection that
    // failed, or not sent at all because it had failed already.
    let end_ns = now_ns();
    for (seq, _) in answered.iter().enumerate().filter(|(_, a)| !**a) {
        log.record(Sample {
            id: plan.id_base + seq as u64,
            start_ns: plan.due_ns[seq],
            end_ns,
            outcome: Outcome::TransportFailed,
        });
    }
    log.lane.end(root);
    log
}
