//! # epim-serve
//!
//! The network serving front-end: a TCP wire protocol over the
//! multi-tenant inference runtime, built entirely on `std` (no async
//! runtime, no external networking crates).
//!
//! Layers:
//!
//! - [`wire`] — the length-prefixed binary protocol: `"EPIM"` + version
//!   hello, then framed `Request` / `Response` / `Error` / `Goodbye`
//!   messages with typed error codes, oversize and malformed-frame
//!   rejection.
//! - [`fleet`] — the model zoo a server exposes as tenants:
//!   deterministic seeds and a pinned analog model make any two builds of
//!   the same [`fleet::FleetConfig`] bit-identical, which is what the
//!   load generator's `--check` mode and the bench identity gate compare
//!   against.
//! - [`mux`] — the waker-driven completion multiplexer: one writer
//!   thread parks on a condvar while polling every in-flight
//!   [`epim_runtime::Pending`] as a `Future`; the scheduler's delivery
//!   wakes it. No busy-polling anywhere on the serving path.
//! - [`server`] — accept loop, per-connection reader/writer session
//!   threads mapping wire tenants onto [`epim_runtime::MultiEngine`]
//!   tenants, and graceful drain (stop accepting, answer in-flight,
//!   goodbye, join).
//! - [`client`] — a blocking pipelining client, splittable into
//!   sender/receiver halves for open-loop load generation, plus
//!   [`client::ResilientClient`]: automatic reconnection with jittered
//!   exponential backoff and id-stable resubmission of unanswered
//!   requests.
//!
//! Binaries: `epim_serve` (the server) and `load_gen` (closed- or
//! open-loop load with QPS + p50/p99/p999 reporting and a `--check` mode
//! asserting wire outputs are bit-identical to an in-process fleet).

#![deny(missing_docs)]

pub mod client;
pub mod fleet;
pub mod mux;
pub mod server;
pub mod wire;

pub use client::{Client, ClientReceiver, ClientSender, Reply, ResilientClient};
pub use fleet::{FleetConfig, TenantSpec};
pub use mux::Mux;
pub use server::{ServeReport, Server};
pub use wire::{Message, WireError, WireHealth, WireRequest, WireResponse};
