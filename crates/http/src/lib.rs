//! A small HTTP/1.1 stack on `std::net`: event-loop server, router with
//! conditional-GET (`If-None-Match` -> `304`) handling, and a blocking
//! client with optional keep-alive pooling.
//!
//! This is the 3-tier glue of the reproduction: the dashboard's backend
//! (Rails in the paper) serves JSON API routes and HTML shells over this
//! server; the headless browser (`hpcdash-client`) talks to it with the
//! client half. The server is a dependency-light epoll-style readiness
//! loop (raw-FFI `epoll` on Linux, `poll` elsewhere — see [`sys`]): a few
//! identical threads share one poller, and whichever is handed a
//! connection's readiness event serves the request to completion, so
//! concurrent dashboard tabs are bounded by file descriptors, not threads.
//! Handlers still run inside `catch_unwind`, so one crashing route degrades
//! to a 500 for that component only — the modularity property the paper
//! calls out (§2.4) and the fault-isolation tests verify.

pub mod client;
mod conn;
pub mod longpoll;
mod reactor;
pub mod request;
pub mod response;
pub mod router;
pub mod server;
pub mod sys;

pub use client::{ClientError, ClientResponse, HttpClient};
pub use conn::ConnState;
pub use longpoll::{
    ParkBudget, ParkDirective, ParkPermit, ParkWaker, CONN_PARK_HEADER, PARK_FINAL_HEADER,
};
pub use request::{Method, ParseError, ParseStatus, Request};
pub use response::{Body, Response};
pub use router::{Router, TRACE_HEADER};
pub use server::{Server, ServerConfig};
