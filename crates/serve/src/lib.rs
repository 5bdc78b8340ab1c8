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
//!   load generator's `--check` mode and the loopback tests compare
//!   against.
//! - [`server`] — accept loop, per-connection reader/writer session
//!   threads mapping wire tenants onto [`epim_runtime::MultiEngine`]
//!   tenants, and graceful drain (stop accepting, answer in-flight,
//!   goodbye, join). Each finished request's reply sends its result
//!   into the connection's channel, and the writer blocks on that
//!   channel: no polling anywhere on the serving path.
//! - [`client`] — a blocking pipelining client, splittable into
//!   sender/receiver halves for open-loop load generation. A broken
//!   connection surfaces as a typed I/O error; reconnecting is the
//!   caller's move.
//!
//! Binaries: `epim_serve` (the server) and `load_gen` (closed- or
//! open-loop load with QPS + p50/p99/p999 reporting and a `--check` mode
//! asserting wire outputs are bit-identical to an in-process fleet).

#![deny(missing_docs)]

pub mod client;
pub mod fleet;
pub mod server;
pub mod wire;

pub use client::{Client, ClientReceiver, ClientSender, Reply};
pub use fleet::{FleetConfig, TenantSpec};
pub use server::{ServeReport, Server};
pub use wire::{Message, WireError, WireHealth, WireRequest, WireResponse};
