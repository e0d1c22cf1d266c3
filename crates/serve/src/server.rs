//! The TCP front end: std-only listener, N acceptor threads, capped
//! request reading, clean shutdown.
//!
//! Each acceptor owns a clone of the listener and handles accepted
//! connections inline, answering their batches on its own thread
//! ([`crate::answer_batch`]), so N acceptors serve N connections at once.
//! Shutdown is cooperative: `POST /shutdown` (or [`ServeHandle::shutdown`])
//! raises the flag, and each acceptor that observes it makes one wake
//! connection so the next blocked `accept` returns and the cascade drains
//! every thread.

use crate::http::{handle_request, ServerState};
use crate::release::ServeError;
use std::io::BufReader;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;
use stpt_obs::httpd;

/// Telemetry: connections currently being handled.
static IN_FLIGHT: stpt_obs::Gauge = stpt_obs::Gauge::new("serve.in_flight");
/// Telemetry: connections accepted over the daemon's lifetime.
static CONNECTIONS_TOTAL: stpt_obs::Counter = stpt_obs::Counter::new("serve.connections_total");

/// Backing count for the [`IN_FLIGHT`] gauge (gauges are set, not
/// incremented, so the true count lives here).
static IN_FLIGHT_COUNT: AtomicU64 = AtomicU64::new(0);

/// Per-connection socket timeout: a client that stalls longer than this
/// mid-request is dropped rather than pinning an acceptor.
const SOCKET_TIMEOUT: Duration = Duration::from_secs(5);

/// Bytes of unread request we drain before answering an error, so the
/// kernel does not RST the response away on close.
const ERROR_DRAIN_CAP: usize = 256 * 1024;

/// A running daemon: the bound address plus the acceptor threads.
#[derive(Debug)]
pub struct ServeHandle {
    /// Address the listener actually bound (port resolved if `:0`).
    pub addr: SocketAddr,
    state: Arc<ServerState>,
    acceptors: Vec<JoinHandle<()>>,
}

impl ServeHandle {
    /// Raise the shutdown flag and wake one blocked acceptor; the exit
    /// cascade wakes the rest. Safe to call more than once.
    pub fn shutdown(&self) {
        self.state
            .shutdown
            .store(true, std::sync::atomic::Ordering::SeqCst);
        wake(self.addr);
    }

    /// Block until every acceptor thread has exited. Call after
    /// [`ServeHandle::shutdown`] (or after a client posted `/shutdown`).
    pub fn join(self) -> Result<(), ServeError> {
        for handle in self.acceptors {
            handle
                .join()
                .map_err(|_| ServeError::Io("acceptor thread panicked".to_string()))?;
        }
        Ok(())
    }

    /// The shared server state (release cache, shutdown flag).
    pub fn state(&self) -> &Arc<ServerState> {
        &self.state
    }
}

/// Bind `addr` and start `acceptors` acceptor threads over `state`.
/// Returns once the listener is bound and every thread is running; the
/// daemon then serves until shutdown is requested.
pub fn serve(
    state: Arc<ServerState>,
    addr: &str,
    acceptors: usize,
) -> Result<ServeHandle, ServeError> {
    let listener =
        TcpListener::bind(addr).map_err(|e| ServeError::Io(format!("bind {addr}: {e}")))?;
    let bound = listener
        .local_addr()
        .map_err(|e| ServeError::Io(format!("local_addr: {e}")))?;
    let n = acceptors.max(1);
    let mut handles = Vec::with_capacity(n);
    for _ in 0..n {
        let listener = listener
            .try_clone()
            .map_err(|e| ServeError::Io(format!("clone listener: {e}")))?;
        let state = Arc::clone(&state);
        // xtask-allow(XT07): acceptor threads are the daemon's front end — blocking accept() cannot run on the rayon seam
        let handle = std::thread::spawn(move || acceptor_loop(&listener, &state, bound));
        handles.push(handle);
    }
    Ok(ServeHandle {
        addr: bound,
        state,
        acceptors: handles,
    })
}

/// One acceptor: accept → handle → check shutdown, until the flag goes
/// high. On exit, sends one wake connection so a sibling blocked in
/// `accept` also observes the flag.
fn acceptor_loop(listener: &TcpListener, state: &ServerState, bound: SocketAddr) {
    loop {
        if state.shutdown.load(std::sync::atomic::Ordering::SeqCst) {
            break;
        }
        let stream = match listener.accept() {
            Ok((stream, _peer)) => stream,
            Err(_) => continue,
        };
        if state.shutdown.load(std::sync::atomic::Ordering::SeqCst) {
            // Raised while we were blocked (possibly by the wake
            // connection we just accepted): exit without handling.
            break;
        }
        handle_conn(state, stream);
    }
    wake(bound);
}

/// Connect-and-drop against our own listener to unblock one `accept`.
fn wake(addr: SocketAddr) {
    let _ = TcpStream::connect_timeout(&addr, Duration::from_millis(200));
}

/// Handle one connection: capped read, route, respond. Every failure
/// mode is a status code or a dropped connection — never a panic.
fn handle_conn(state: &ServerState, stream: TcpStream) {
    CONNECTIONS_TOTAL.add(1);
    let current = IN_FLIGHT_COUNT.fetch_add(1, Ordering::SeqCst) + 1;
    IN_FLIGHT.set(current as f64);
    serve_conn(state, stream);
    let current = IN_FLIGHT_COUNT.fetch_sub(1, Ordering::SeqCst) - 1;
    IN_FLIGHT.set(current as f64);
}

fn serve_conn(state: &ServerState, mut stream: TcpStream) {
    let _ = stream.set_read_timeout(Some(SOCKET_TIMEOUT));
    let _ = stream.set_write_timeout(Some(SOCKET_TIMEOUT));
    let reader = match stream.try_clone() {
        Ok(clone) => clone,
        Err(_) => return,
    };
    let mut reader = BufReader::new(reader);
    match httpd::read_request(
        &mut reader,
        httpd::DEFAULT_HEAD_CAP,
        httpd::DEFAULT_BODY_CAP,
    ) {
        Ok(req) => {
            let resp = handle_request(state, &req);
            httpd::write_response(&mut stream, resp.status, resp.content_type, &resp.body);
        }
        Err(e) => {
            // Discard what the client is still sending (bounded) so our
            // error response is not destroyed by a kernel RST on close.
            httpd::drain(&mut reader, ERROR_DRAIN_CAP);
            httpd::error_response(&mut stream, e);
        }
    }
}
