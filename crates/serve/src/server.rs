//! The TCP serving front-end: accept loop, per-connection session
//! threads and graceful drain.
//!
//! Each accepted connection gets two threads. The **reader** decodes
//! request frames, resolves the wire tenant name against the fleet and
//! submits through the non-blocking [`MultiEngine::try_infer`] — tagging
//! every submission with the connection id, which the scheduler threads
//! into its `Enqueue` trace spans — then hands the in-flight
//! [`epim_runtime::Pending`] to the **writer**. The writer multiplexes all of the connection's
//! in-flight requests through a [`Mux`] (waker-parked, never
//! busy-polling) and streams responses back in completion order; request
//! ids, not arrival order, correlate replies. The writer parks in one
//! place, on the `Mux`'s waker, which both a completion and a reader
//! hand-off fire — so a reply never waits behind a slower one that was
//! submitted before it. A full tenant queue turns
//! into a typed `overloaded` error frame; a malformed frame turns into a
//! `protocol` error frame and a close.
//!
//! Resilience controls:
//!
//! - [`Server::with_max_connections`] caps concurrent sessions; a
//!   connection over the cap is answered with its hello plus a typed
//!   `overloaded` error frame and closed (counted in
//!   [`ServeReport::connections_rejected`]).
//! - [`Server::with_idle_timeout`] disconnects sessions that go silent
//!   (counted in [`ServeReport::idle_disconnects`]), so abandoned peers
//!   cannot pin session threads forever.
//! - A request frame may carry a relative deadline; the server converts
//!   it to an absolute [`std::time::Instant`] at decode and the
//!   scheduler sheds it with a typed `deadline` error frame if it
//!   expires before execution starts.
//! - A `HealthReq` frame is answered with the fleet's tenant list and
//!   the draining flag, without touching any tenant queue.
//!
//! Drain: setting the shutdown flag (SIGTERM in the binary, or
//! [`Server::shutdown_flag`] in-process) stops the accept loop, shuts
//! down the read half of every live connection (the reader sees EOF and
//! stops taking new work), lets every in-flight request finish and be
//! answered, sends `Goodbye` frames and joins every session thread
//! before [`Server::serve`] returns.
//!
//! Fault injection (`epim-faults`, disabled at one relaxed atomic load
//! per site): `conn_reset` severs a connection instead of writing a
//! response, `torn_frame` writes half a response frame then severs, and
//! `accept_stall` delays the accept loop.

use crate::mux::Mux;
use crate::wire::{self, Message, WireError, WireHealth, WireResponse};
use epim_faults as faults;
use epim_runtime::{InferRequest, MultiEngine, RuntimeError, TenantId};
use std::collections::HashMap;
use std::io::{BufReader, BufWriter, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{Receiver, Sender, TryRecvError};
use std::sync::Arc;
use std::task::Waker;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// What a finished [`Server::serve`] saw.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServeReport {
    /// Connections accepted over the server's lifetime.
    pub connections: u64,
    /// Request frames decoded.
    pub requests: u64,
    /// Error frames sent (overload, unknown tenant, protocol, ...).
    pub error_frames: u64,
    /// Connections turned away at the [`Server::with_max_connections`]
    /// cap (answered with a typed error frame, never counted in
    /// [`ServeReport::connections`]).
    pub connections_rejected: u64,
    /// Sessions closed by the [`Server::with_idle_timeout`] watchdog.
    pub idle_disconnects: u64,
}

#[derive(Default)]
struct Counters {
    connections: AtomicU64,
    requests: AtomicU64,
    error_frames: AtomicU64,
    connections_rejected: AtomicU64,
    idle_disconnects: AtomicU64,
}

/// A bound TCP serving front-end over one [`MultiEngine`] fleet.
pub struct Server {
    listener: TcpListener,
    engine: Arc<MultiEngine>,
    shutdown: Arc<AtomicBool>,
    counters: Arc<Counters>,
    max_frame: u32,
    max_connections: usize,
    idle_timeout: Option<Duration>,
}

impl Server {
    /// Binds `addr` (port 0 picks an ephemeral port — read it back with
    /// [`Server::local_addr`]) over `engine`.
    ///
    /// # Errors
    ///
    /// Bind failures as [`RuntimeError::Io`].
    pub fn bind(engine: MultiEngine, addr: &str) -> Result<Self, RuntimeError> {
        let listener = TcpListener::bind(addr)?;
        Ok(Server {
            listener,
            engine: Arc::new(engine),
            shutdown: Arc::new(AtomicBool::new(false)),
            counters: Arc::new(Counters::default()),
            max_frame: wire::MAX_FRAME,
            max_connections: 0,
            idle_timeout: None,
        })
    }

    /// Caps accepted frame bodies at `max_frame` bytes.
    pub fn with_max_frame(mut self, max_frame: u32) -> Self {
        self.max_frame = max_frame;
        self
    }

    /// Caps concurrent sessions at `max_connections` (`0`, the default,
    /// means unlimited). A connection over the cap gets the hello
    /// exchange plus one typed `overloaded` error frame and is closed —
    /// a load balancer sees a fast, diagnosable rejection instead of a
    /// thread-exhausted hang.
    pub fn with_max_connections(mut self, max_connections: usize) -> Self {
        self.max_connections = max_connections;
        self
    }

    /// Disconnects a session whose peer sends nothing for `timeout`
    /// (default: never). In-flight requests still complete and are
    /// answered before the close; the timer only bounds silence on the
    /// read half.
    pub fn with_idle_timeout(mut self, timeout: Duration) -> Self {
        self.idle_timeout = Some(timeout);
        self
    }

    /// The bound address (resolves an ephemeral port).
    ///
    /// # Errors
    ///
    /// Socket introspection failures as [`RuntimeError::Io`].
    pub fn local_addr(&self) -> Result<SocketAddr, RuntimeError> {
        Ok(self.listener.local_addr()?)
    }

    /// The fleet this server fronts.
    pub fn engine(&self) -> &Arc<MultiEngine> {
        &self.engine
    }

    /// The drain flag: store `true` to make [`Server::serve`] stop
    /// accepting, drain in-flight work and return.
    pub fn shutdown_flag(&self) -> Arc<AtomicBool> {
        Arc::clone(&self.shutdown)
    }

    /// The fleet's Prometheus exposition plus the server's own
    /// transport counters (`epim_serve_connections_rejected_total`,
    /// `epim_serve_idle_disconnects_total`, accepted connections,
    /// request and error frames). Callable while [`Server::serve`] runs
    /// on another thread.
    pub fn render_prometheus(&self) -> String {
        let mut text = self.engine.render_prometheus();
        let mut w = epim_obs::PromWriter::new();
        let c = &self.counters;
        let mut counter = |name: &str, help: &'static str, value: u64| {
            w.counter(name, help, &[], value);
        };
        counter(
            "epim_serve_connections_total",
            "Connections accepted over the server's lifetime",
            c.connections.load(Ordering::Relaxed),
        );
        counter(
            "epim_serve_requests_total",
            "Request frames decoded",
            c.requests.load(Ordering::Relaxed),
        );
        counter(
            "epim_serve_error_frames_total",
            "Typed error frames sent to clients",
            c.error_frames.load(Ordering::Relaxed),
        );
        counter(
            "epim_serve_connections_rejected_total",
            "Connections turned away at the connection cap",
            c.connections_rejected.load(Ordering::Relaxed),
        );
        counter(
            "epim_serve_idle_disconnects_total",
            "Sessions closed by the idle timeout watchdog",
            c.idle_disconnects.load(Ordering::Relaxed),
        );
        text.push_str(&w.render());
        text
    }

    /// Runs the accept loop until the shutdown flag is set, then drains:
    /// read halves are shut down, in-flight requests finish and are
    /// answered, `Goodbye` frames go out, and every session thread is
    /// joined before this returns.
    ///
    /// # Errors
    ///
    /// Only setup failures (making the listener non-blocking) error;
    /// per-connection failures are absorbed into the report.
    pub fn serve(&self) -> Result<ServeReport, RuntimeError> {
        self.listener.set_nonblocking(true)?;
        let counters = Arc::clone(&self.counters);
        // Tenant names resolve per request; snapshot the map once.
        let tenants: Arc<HashMap<String, TenantId>> = Arc::new(
            self.engine
                .tenant_names()
                .iter()
                .filter_map(|n| self.engine.tenant_id(n).map(|id| (n.clone(), id)))
                .collect(),
        );
        let names: Arc<Vec<String>> = Arc::new(self.engine.tenant_names().to_vec());
        let mut sessions: Vec<(TcpStream, JoinHandle<()>)> = Vec::new();
        let mut conn_seq: u64 = 0;
        while !self.shutdown.load(Ordering::SeqCst) {
            // Fault-injection point: stall the accept loop (simulates a
            // wedged acceptor; live sessions keep serving).
            if let Some(delay) = faults::fire_delay(faults::FaultPoint::AcceptStall) {
                std::thread::sleep(delay);
            }
            match self.listener.accept() {
                Ok((stream, _peer)) => {
                    sessions.retain(|(_, h)| !h.is_finished());
                    if self.max_connections > 0 && sessions.len() >= self.max_connections {
                        counters
                            .connections_rejected
                            .fetch_add(1, Ordering::Relaxed);
                        reject_connection(stream);
                        continue;
                    }
                    conn_seq += 1;
                    counters.connections.fetch_add(1, Ordering::Relaxed);
                    let _ = stream.set_nodelay(true);
                    if let Some(timeout) = self.idle_timeout {
                        let _ = stream.set_read_timeout(Some(timeout));
                    }
                    match stream.try_clone() {
                        Ok(keep) => {
                            let ctx = SessionCtx {
                                engine: Arc::clone(&self.engine),
                                tenants: Arc::clone(&tenants),
                                names: Arc::clone(&names),
                                counters: Arc::clone(&counters),
                                shutdown: Arc::clone(&self.shutdown),
                                max_frame: self.max_frame,
                            };
                            let conn_id = conn_seq;
                            let handle = std::thread::spawn(move || {
                                session(ctx, stream, conn_id);
                            });
                            sessions.push((keep, handle));
                        }
                        Err(_) => drop(stream),
                    }
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    sessions.retain(|(_, h)| !h.is_finished());
                    std::thread::sleep(Duration::from_millis(2));
                }
                Err(_) => std::thread::sleep(Duration::from_millis(2)),
            }
        }
        // Drain: closing the read half makes each session's reader see a
        // clean EOF — it stops taking requests while the writer still
        // answers everything in flight and says goodbye.
        for (stream, _) in &sessions {
            let _ = stream.shutdown(Shutdown::Read);
        }
        for (_, handle) in sessions {
            let _ = handle.join();
        }
        Ok(ServeReport {
            connections: counters.connections.load(Ordering::Relaxed),
            requests: counters.requests.load(Ordering::Relaxed),
            error_frames: counters.error_frames.load(Ordering::Relaxed),
            connections_rejected: counters.connections_rejected.load(Ordering::Relaxed),
            idle_disconnects: counters.idle_disconnects.load(Ordering::Relaxed),
        })
    }
}

/// Answers an over-cap connection with its hello and one typed
/// `overloaded` error frame, then closes. Runs on a detached thread so a
/// slow (or silent) peer cannot stall the accept loop; the short read
/// timeout bounds how long the thread lives.
fn reject_connection(stream: TcpStream) {
    std::thread::spawn(move || {
        let _ = stream.set_read_timeout(Some(Duration::from_millis(500)));
        let write_half = match stream.try_clone() {
            Ok(s) => s,
            Err(_) => return,
        };
        let mut reader = BufReader::new(stream);
        let mut writer = BufWriter::new(write_half);
        if wire::read_hello(&mut reader).is_err() {
            return;
        }
        if wire::write_hello(&mut writer).is_err() {
            return;
        }
        let _ = Message::Error(WireError {
            id: wire::NO_REQUEST,
            code: wire::code::OVERLOADED,
            message: "connection limit reached; try another replica".to_string(),
        })
        .write(&mut writer);
        let _ = writer.flush();
    });
}

/// The shared state one session needs, bundled so the accept loop clones
/// one struct per connection.
#[derive(Clone)]
struct SessionCtx {
    engine: Arc<MultiEngine>,
    tenants: Arc<HashMap<String, TenantId>>,
    names: Arc<Vec<String>>,
    counters: Arc<Counters>,
    shutdown: Arc<AtomicBool>,
    max_frame: u32,
}

/// Reader-to-writer handoff for one connection.
enum SessionMsg {
    /// A submitted request whose completion the writer multiplexes.
    InFlight(u64, epim_runtime::Pending),
    /// A request that failed at submission: reply immediately.
    Immediate(u64, u16, String),
    /// A health probe: reply with the fleet snapshot.
    Health(WireHealth),
    /// A protocol violation: reply with the error frame, then close
    /// without a goodbye.
    Fatal(u64, u16, String),
    /// Orderly end of requests: answer what is in flight, say goodbye.
    Bye,
}

/// The reader's end of the hand-off. Every message is followed by a wake
/// of the writer's [`Mux`]: a hand-off the writer has not polled yet has
/// no waker registered, so without it a writer parked on a slow request
/// would sit on a fast one (or a health reply) handed over meanwhile.
struct Handoff {
    tx: Sender<SessionMsg>,
    waker: Waker,
}

impl Handoff {
    fn send(&self, msg: SessionMsg) {
        // Sending only fails once the writer is gone, and then nobody is
        // left to answer.
        let _ = self.tx.send(msg);
        self.waker.wake_by_ref();
    }
}

fn session(ctx: SessionCtx, stream: TcpStream, conn_id: u64) {
    let write_half = match stream.try_clone() {
        Ok(s) => s,
        Err(_) => return,
    };
    let mut reader = BufReader::new(stream);
    let mut writer = BufWriter::new(write_half);

    // Handshake: expect the client hello, answer with ours.
    if wire::read_hello(&mut reader).is_err() {
        ctx.counters.error_frames.fetch_add(1, Ordering::Relaxed);
        let _ = Message::Error(WireError {
            id: wire::NO_REQUEST,
            code: wire::code::PROTOCOL,
            message: "bad hello".to_string(),
        })
        .write(&mut writer);
        let _ = writer.flush();
        return;
    }
    if wire::write_hello(&mut writer).is_err() {
        return;
    }

    let (tx, rx) = std::sync::mpsc::channel::<SessionMsg>();
    let mux = Mux::new();
    let tx = Handoff {
        tx,
        waker: mux.waker(),
    };
    let writer_counters = Arc::clone(&ctx.counters);
    let writer_handle = std::thread::spawn(move || writer_loop(writer, rx, mux, writer_counters));
    reader_loop(&ctx, &mut reader, &tx, conn_id);
    drop(tx);
    let _ = writer_handle.join();
}

fn reader_loop(ctx: &SessionCtx, reader: &mut impl std::io::Read, tx: &Handoff, conn_id: u64) {
    loop {
        match Message::read(reader, ctx.max_frame) {
            // Clean close — from the client, or from the server's drain
            // shutting the read half down.
            Ok(None) => {
                tx.send(SessionMsg::Bye);
                return;
            }
            Ok(Some(Message::Request(req))) => {
                ctx.counters.requests.fetch_add(1, Ordering::Relaxed);
                if ctx.shutdown.load(Ordering::SeqCst) {
                    let err = RuntimeError::ShuttingDown;
                    tx.send(SessionMsg::Immediate(
                        req.id,
                        wire::error_code(&err),
                        err.to_string(),
                    ));
                    continue;
                }
                let Some(&tid) = ctx.tenants.get(&req.tenant) else {
                    tx.send(SessionMsg::Immediate(
                        req.id,
                        wire::code::UNKNOWN_TENANT,
                        format!("unknown tenant `{}`", req.tenant),
                    ));
                    continue;
                };
                let mut infer_req = InferRequest::new(req.input).with_client(conn_id);
                if req.deadline_ms > 0 {
                    // The wire carries the deadline relative to decode so
                    // client/server clock skew cannot expire it.
                    infer_req = infer_req.with_deadline(
                        Instant::now() + Duration::from_millis(req.deadline_ms.into()),
                    );
                }
                tx.send(match ctx.engine.try_infer(tid, infer_req) {
                    Ok(pending) => SessionMsg::InFlight(req.id, pending),
                    Err(e) => SessionMsg::Immediate(req.id, wire::error_code(&e), e.to_string()),
                });
            }
            Ok(Some(Message::HealthReq)) => {
                tx.send(SessionMsg::Health(WireHealth {
                    draining: ctx.shutdown.load(Ordering::SeqCst),
                    tenants: ctx.names.as_ref().clone(),
                }));
            }
            Ok(Some(Message::Goodbye)) => {
                tx.send(SessionMsg::Bye);
                return;
            }
            Ok(Some(_)) => {
                tx.send(SessionMsg::Fatal(
                    wire::NO_REQUEST,
                    wire::code::PROTOCOL,
                    "unexpected frame type from client".to_string(),
                ));
                return;
            }
            Err(RuntimeError::Protocol { reason }) => {
                tx.send(SessionMsg::Fatal(
                    wire::NO_REQUEST,
                    wire::code::PROTOCOL,
                    reason,
                ));
                return;
            }
            // The idle watchdog: a read timeout means the peer has sent
            // nothing for the configured window. Answer with a typed
            // error frame and close.
            Err(RuntimeError::Io(e))
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) =>
            {
                ctx.counters
                    .idle_disconnects
                    .fetch_add(1, Ordering::Relaxed);
                tx.send(SessionMsg::Fatal(
                    wire::NO_REQUEST,
                    wire::code::IO,
                    "idle timeout: no frames received within the configured window".to_string(),
                ));
                return;
            }
            // Transport failure: the peer is gone, nothing to answer.
            Err(_) => {
                tx.send(SessionMsg::Bye);
                return;
            }
        }
    }
}

/// Writes `msg`, honoring the `conn_reset` / `torn_frame` fault points:
/// `conn_reset` severs the socket instead of writing; `torn_frame`
/// writes the length prefix and half the body, then severs. Both return
/// an error so the writer loop tears the session down.
fn write_msg(writer: &mut BufWriter<TcpStream>, msg: &Message) -> Result<(), RuntimeError> {
    if faults::fires(faults::FaultPoint::ConnReset) {
        let _ = writer.get_ref().shutdown(Shutdown::Both);
        return Err(std::io::Error::new(
            std::io::ErrorKind::ConnectionReset,
            "injected fault: connection reset before response",
        )
        .into());
    }
    if faults::fires(faults::FaultPoint::TornFrame) {
        let body = msg.encode()?;
        let torn = &body[..body.len() / 2];
        let _ = writer.write_all(&(body.len() as u32).to_le_bytes());
        let _ = writer.write_all(torn);
        let _ = writer.flush();
        let _ = writer.get_ref().shutdown(Shutdown::Both);
        return Err(std::io::Error::new(
            std::io::ErrorKind::ConnectionReset,
            "injected fault: frame torn mid-body",
        )
        .into());
    }
    msg.write(writer)
}

/// What [`handle_msg`] decided about the session.
enum Handled {
    /// Keep going.
    Continue,
    /// The reader reported an orderly end of requests.
    SawBye,
    /// The session is over (fatal frame sent or transport failure).
    Close,
}

/// Processes one reader handoff inside [`writer_loop`].
fn handle_msg(
    writer: &mut BufWriter<TcpStream>,
    counters: &Counters,
    mux: &mut Mux,
    msg: SessionMsg,
) -> Handled {
    match msg {
        SessionMsg::InFlight(id, pending) => mux.push(id, pending),
        SessionMsg::Immediate(id, code, message) => {
            counters.error_frames.fetch_add(1, Ordering::Relaxed);
            if write_msg(writer, &Message::Error(WireError { id, code, message })).is_err() {
                return Handled::Close;
            }
        }
        SessionMsg::Health(health) => {
            if write_msg(writer, &Message::Health(health)).is_err() {
                return Handled::Close;
            }
        }
        SessionMsg::Fatal(id, code, message) => {
            counters.error_frames.fetch_add(1, Ordering::Relaxed);
            let _ = write_msg(writer, &Message::Error(WireError { id, code, message }));
            let _ = writer.flush();
            return Handled::Close;
        }
        SessionMsg::Bye => return Handled::SawBye,
    }
    Handled::Continue
}

/// Writes one completed request's reply: its response, or its typed
/// error frame.
fn write_result(
    writer: &mut BufWriter<TcpStream>,
    counters: &Counters,
    id: u64,
    result: Result<epim_runtime::Inference, RuntimeError>,
) -> Result<(), RuntimeError> {
    let msg = match result {
        Ok(inference) => Message::Response(WireResponse {
            id,
            batch_size: inference.batch_size as u32,
            latency_ns: inference.latency.as_nanos().min(u64::MAX as u128) as u64,
            output: inference.output,
        }),
        Err(e) => {
            counters.error_frames.fetch_add(1, Ordering::Relaxed);
            Message::Error(WireError {
                id,
                code: wire::error_code(&e),
                message: e.to_string(),
            })
        }
    };
    write_msg(writer, &msg)
}

fn writer_loop(
    mut writer: BufWriter<TcpStream>,
    rx: Receiver<SessionMsg>,
    mut mux: Mux,
    counters: Arc<Counters>,
) {
    let mut saw_bye = false;
    let mut disconnected = false;
    loop {
        // Take everything the reader has handed over so far.
        loop {
            match rx.try_recv() {
                Ok(msg) => match handle_msg(&mut writer, &counters, &mut mux, msg) {
                    Handled::Continue => {}
                    Handled::SawBye => saw_bye = true,
                    Handled::Close => return,
                },
                Err(TryRecvError::Empty) => break,
                Err(TryRecvError::Disconnected) => {
                    disconnected = true;
                    break;
                }
            }
        }
        // Answer everything that has completed; polling also registers
        // the waker with everything that has not.
        for (id, result) in mux.poll_ready() {
            if write_result(&mut writer, &counters, id, result).is_err() {
                return;
            }
        }
        if writer.flush().is_err() {
            return;
        }
        if (saw_bye || disconnected) && mux.is_empty() {
            if saw_bye {
                let _ = Message::Goodbye.write(&mut writer);
                let _ = writer.flush();
            }
            return;
        }
        // Every event acted on above wakes the mux (completions through
        // the polled handles, hand-offs through `Handoff::send`); the
        // timeout only bounds how long a reader that died without a last
        // message goes unnoticed.
        mux.park(Duration::from_millis(50));
    }
}
