//! # dr-serve — repair-as-a-service
//!
//! A long-lived HTTP server over the repair pipeline (DESIGN.md §5): named
//! knowledge bases are loaded once at startup — match indexes prewarmed,
//! value caches created through the shared [`CacheRegistry`] so `.drsnap`
//! snapshots warm-load at boot — and every request then repairs an
//! uploaded relation against them, streaming repaired tuples with per-cell
//! provenance back as NDJSON.
//!
//! The build environment is fully offline (no tokio/hyper), so the wire
//! layer is a hand-rolled HTTP/1.1 subset over `std::net` with a
//! thread-per-connection accept pool. That is a deliberate fit, not a
//! compromise: each repair request fans out over the work-stealing
//! parallel repairer, so the connection thread is a coordinator that
//! spends its life blocked on compute, and a handful of them saturate the
//! machine.
//!
//! On top of the pipeline sits the survival layer (DESIGN.md §9):
//! admission control sheds excess repair load with `429 Retry-After`
//! instead of queueing it unboundedly ([`admission`]), connections are
//! keep-alive with idle timeouts and per-connection request caps, each
//! KB carries a health breaker that fails fast when repairs keep failing,
//! and [`Server::drain`] turns SIGTERM into a graceful exit: `/readyz`
//! goes 503, accepting stops, in-flight streams finish under a deadline,
//! and `.drsnap` snapshots are flushed.
//!
//! Endpoints:
//!
//! | route                  | method | body                                |
//! |------------------------|--------|-------------------------------------|
//! | `/healthz`             | GET    | liveness + uptime                   |
//! | `/readyz`              | GET    | readiness (503 while draining)      |
//! | `/kbs`                 | GET    | served KBs, schemas, generations, health |
//! | `/metrics`             | GET    | live Prometheus text                |
//! | `/v1/repair/{kb}`      | POST   | CSV or JSON relation → NDJSON repair stream |
//! | `/v1/kbs/{kb}/delta`   | POST   | TSV KB delta → next generation (incremental cache invalidation) |
//! | `/v1/kbs/{kb}`         | DELETE | unload the KB (404 afterwards, memory released) |
//! | `/v1/traces`           | GET    | tail-sampled trace index (id, route, duration, why kept) |
//! | `/v1/traces/{id}`      | GET    | one retained trace's full span tree (feed to `dr_traceview`) |
//!
//! Repair requests are armed with a live span capture (DESIGN.md §11):
//! the root `request` span forks through [`MatchContext::fork`] into the
//! scheduler's per-row spans and down to per-rule checks, and tail
//! sampling keeps the capture only when it was forced (`?trace=1`), the
//! request errored or degraded, or it crossed the slow threshold. A
//! `traceparent` request header adopts the caller's trace id.
//!
//! [`CacheRegistry`]: dr_core::CacheRegistry
//! [`MatchContext::fork`]: dr_core::MatchContext::fork

#![warn(missing_docs)]
// Resilience hygiene (DESIGN.md §4c): library code must surface failures
// as typed errors, not panics.
#![cfg_attr(not(test), warn(clippy::unwrap_used))]

pub mod admission;
pub mod client;
pub mod handlers;
pub mod http;
pub mod json;
pub mod state;

use std::io::{BufReader, BufWriter};
use std::net::{TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crate::admission::AcceptBackoff;

pub use admission::{Admission, AdmissionConfig, AdmissionGate, Permit, ShedReason};
pub use handlers::{handle, Body, Response};
pub use state::{
    build_state, Breaker, DeltaApplyError, DeltaOutcome, ImageFamily, KbCore, KbEntry, KbSpec,
    Lifecycle, OwnedKb, RequestTrace, ServeConfig, ServerState,
};

/// A bound, running server: a shared listener drained by a fixed pool of
/// acceptor threads, each serving one connection at a time end to end.
pub struct Server {
    state: Arc<ServerState>,
    addr: std::net::SocketAddr,
    shutdown: Arc<AtomicBool>,
    workers: Vec<JoinHandle<()>>,
}

impl Server {
    /// Binds `addr` (port 0 picks a free port) and starts `http_threads`
    /// acceptors (minimum 1).
    pub fn bind(
        addr: impl ToSocketAddrs,
        state: ServerState,
        http_threads: usize,
    ) -> std::io::Result<Server> {
        let listener = Arc::new(TcpListener::bind(addr)?);
        let addr = listener.local_addr()?;
        let state = Arc::new(state);
        let shutdown = Arc::new(AtomicBool::new(false));

        let mut workers = Vec::new();
        for i in 0..http_threads.max(1) {
            let listener = Arc::clone(&listener);
            let state = Arc::clone(&state);
            let shutdown = Arc::clone(&shutdown);
            workers.push(
                std::thread::Builder::new()
                    .name(format!("dr-serve-http-{i}"))
                    .spawn(move || {
                        let mut backoff = AcceptBackoff::new();
                        while !shutdown.load(Ordering::Acquire) {
                            match listener.accept() {
                                Ok((stream, _peer)) => {
                                    backoff.on_success();
                                    serve_connection(&state, &shutdown, stream);
                                }
                                Err(_) if shutdown.load(Ordering::Acquire) => break,
                                Err(e) => {
                                    // Transient accept failures (EMFILE,
                                    // ECONNABORTED, ...) must not busy-spin
                                    // the acceptor: back off, and log once
                                    // per error streak.
                                    let (delay, log) = backoff.on_error();
                                    if log {
                                        eprintln!("dr-serve: accept error (backing off): {e}");
                                    }
                                    std::thread::sleep(delay);
                                }
                            }
                        }
                    })?,
            );
        }

        drop(listener); // each worker holds its own Arc
        Ok(Server {
            state,
            addr,
            shutdown,
            workers,
        })
    }

    /// The bound address (useful after binding port 0).
    pub fn addr(&self) -> std::net::SocketAddr {
        self.addr
    }

    /// The shared state (for in-process inspection in tests and the load
    /// generator).
    pub fn state(&self) -> &Arc<ServerState> {
        &self.state
    }

    /// Blocks until every acceptor exits (i.e. until
    /// [`shutdown`](Self::shutdown) is called from another thread, or
    /// never).
    pub fn join(mut self) {
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }

    /// Asks the acceptors to stop and unblocks them with a self-connect.
    /// Idempotent; in-flight requests finish first.
    pub fn shutdown(&self) {
        self.shutdown.store(true, Ordering::Release);
        // `accept` has no timeout; poke each blocked acceptor awake.
        for _ in 0..self.workers.len() {
            let _ = TcpStream::connect(self.addr);
        }
    }

    /// Graceful drain (DESIGN.md §9): flips `/readyz` to 503 and refuses
    /// new repairs, stops accepting, waits up to `deadline` for in-flight
    /// requests to finish, then flushes `.drsnap` snapshots. Returns
    /// whether every in-flight request completed within the deadline.
    ///
    /// Keep-alive connections close after their current response (the
    /// connection loop checks the drain flag), so an idle connection never
    /// holds the drain hostage; a *streaming* response runs to completion
    /// because the client paid for those bytes.
    pub fn drain(&self, deadline: Duration) -> bool {
        self.state.lifecycle.begin_drain();
        self.shutdown();
        let started = Instant::now();
        while self.state.lifecycle.active() > 0 && started.elapsed() < deadline {
            std::thread::sleep(Duration::from_millis(10));
        }
        let drained = self.state.lifecycle.active() == 0;
        // Flush snapshots even on a missed deadline: whatever finished is
        // worth keeping, and persist() publishes atomically.
        self.state.registry.persist();
        drained
    }
}

/// Serves one connection: a keep-alive loop of parse → handle → serialize,
/// until the client closes, asks to close, idles out, hits the
/// per-connection request cap, or the server starts draining.
///
/// Responses go through one [`http::response_buffer`] per connection and
/// are flushed once each, on a `TCP_NODELAY` socket.
fn serve_connection(state: &ServerState, shutdown: &AtomicBool, stream: TcpStream) {
    let metrics = state.obs.metrics();
    metrics.counter("serve_connections_total", &[]).inc();
    stream.set_nodelay(true).ok();
    stream.set_write_timeout(Some(http::IO_TIMEOUT)).ok();
    let Ok(read_half) = stream.try_clone() else {
        return;
    };
    let mut reader = BufReader::new(read_half);
    let mut out = http::response_buffer(stream);
    let mut served = 0usize;

    loop {
        // First request: the client connected to talk, give it the full
        // header window. Later requests: an idle keep-alive connection
        // only ties up this acceptor, so time out sooner.
        let read_timeout = if served == 0 {
            state.config.header_timeout
        } else {
            state.config.idle_timeout
        };
        reader.get_ref().set_read_timeout(Some(read_timeout)).ok();

        let request = match http::read_request(&mut reader) {
            Ok(Some(request)) => request,
            Ok(None) => return, // probe, clean close, or idle timeout
            Err(e) => {
                let _ = http::write_response(
                    &mut out,
                    e.status,
                    "application/json",
                    handlers::error_body(&e.message).as_bytes(),
                    false,
                    &[],
                );
                discard(out);
                return;
            }
        };
        served += 1;
        if served > 1 {
            metrics.counter("serve_keepalive_reuse_total", &[]).inc();
        }

        let _active = state.lifecycle.track();
        let response = handlers::handle(state, &request);
        let cap = state.config.max_requests_per_conn;
        let keep_alive = request.wants_keep_alive()
            && (cap == 0 || served < cap)
            && !state.lifecycle.is_draining()
            && !shutdown.load(Ordering::Acquire);
        let result = match &response.body {
            Body::Full(bytes) => http::write_response(
                &mut out,
                response.status,
                response.content_type,
                bytes,
                keep_alive,
                &response.headers,
            ),
            Body::Lines(lines) => (|| {
                let mut chunked = http::ChunkedResponse::begin(
                    &mut out,
                    response.status,
                    response.content_type,
                    keep_alive,
                    &response.headers,
                )?;
                for line in lines {
                    chunked.line(line)?;
                }
                chunked.finish()
            })(),
        };
        if let Err(_e) = result {
            // A client hanging up mid-stream is its business; count it,
            // close, and this worker moves on to the next connection. The
            // error may surface on any buffer-sized write or only at the
            // final flush; either way it lands here.
            metrics.counter("serve_client_disconnect_total", &[]).inc();
            discard(out);
            return;
        }
        if !keep_alive {
            return;
        }
    }
}

/// Closes a connection whose last write may have failed without retrying
/// the unsent bytes: dropping a `BufWriter` would flush them again and
/// could wait out a second write timeout on a stalled peer.
fn discard(out: BufWriter<TcpStream>) {
    drop(out.into_parts());
}
