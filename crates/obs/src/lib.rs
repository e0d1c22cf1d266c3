//! Hermetic observability for the STPT reproduction.
//!
//! Three instruments:
//!
//! * [`trace`] — span-based hierarchical phase timers. `obs::span!("x")`
//!   returns an RAII guard; nested guards build `/`-separated paths and
//!   wall time aggregates per path.
//! * [`metrics`] — a static registry of atomic [`Counter`]s, [`Gauge`]s and
//!   [`Histogram`]s. Recording is lock-free and allocation-free, so hot
//!   paths (e.g. the zero-alloc training loop in `stpt-nn`) can be
//!   instrumented without violating their no-allocation guarantees.
//! * [`ledger`] — the privacy-budget audit ledger: `stpt-dp`'s
//!   `BudgetAccountant` appends one [`LedgerEntry`] per spend and publishes
//!   the replay check here, so telemetry exports carry the runtime-verified
//!   composition argument and the [`NoiseStatus`] label of the noise
//!   self-check that `stpt-dp` runs on each release's own draws.
//!
//! Recording is gated by three plain atomics — [`enabled`] (`STPT_TRACE`),
//! [`events_enabled`] (`STPT_TRACE_EVENTS`) and [`live_enabled`]
//! (`STPT_METRICS_ADDR`) — all off until [`init_from_env`], the one reader
//! of the environment, or an explicit `set_*` call switches them on. When
//! they are off, every recording call is a single relaxed atomic load —
//! near-zero overhead. [`export::telemetry_json`] renders the collected
//! state as the one telemetry document of a run (the result envelope's
//! `telemetry` block), and [`export::chrome_trace_json`] the span events.
//!
//! The crate is dependency-free (std only) so every workspace crate —
//! including the `stpt-dp` privacy kernel — can depend on it without
//! cycles or new external surface.
//!
//! # Output routing
//!
//! Workspace rule XT06 (`cargo xtask lint`) bans raw `println!` /
//! `eprintln!` in library crates: human-readable runtime output must flow
//! through [`report!`] (stdout — results, tables) or [`diag!`] (stderr —
//! warnings and diagnostics) so there is exactly one choke point for
//! console output.

#![forbid(unsafe_code)]

pub mod events;
pub mod export;
pub mod httpd;
pub mod ledger;
pub mod metrics;
pub mod prometheus;
pub mod resources;
pub mod timeseries;
pub mod trace;

pub use ledger::{Composition, LedgerCheck, LedgerEntry, NoiseStatus, PostProcessProof};
pub use metrics::{Counter, Gauge, Histogram};
pub use trace::SpanGuard;

use std::sync::atomic::{AtomicBool, Ordering};

/// Aggregate gate (`STPT_TRACE`): spans, metrics and the telemetry document.
static TRACE: AtomicBool = AtomicBool::new(false);

/// Span-event gate (`STPT_TRACE_EVENTS`): timestamped events for the
/// Chrome trace.
static EVENTS: AtomicBool = AtomicBool::new(false);

/// Live-monitoring gate (`STPT_METRICS_ADDR`): metric recording for the
/// Prometheus scrape, without any export file.
static LIVE: AtomicBool = AtomicBool::new(false);

/// Whether tracing/metrics collection is enabled. One relaxed atomic load.
#[inline]
pub fn enabled() -> bool {
    TRACE.load(Ordering::Relaxed)
}

/// Switch the aggregate gate on or off.
pub fn set_enabled(on: bool) {
    TRACE.store(on, Ordering::Relaxed);
}

/// Whether timestamped span-event recording is enabled. Independent of
/// [`enabled`]: events can be recorded without the aggregate tables and
/// vice versa — a span fires when either gate is on.
#[inline]
pub fn events_enabled() -> bool {
    EVENTS.load(Ordering::Relaxed)
}

/// Switch the span-event gate on or off.
pub fn set_events_enabled(on: bool) {
    EVENTS.store(on, Ordering::Relaxed);
}

/// Whether live monitoring (the Prometheus scrape and its resource
/// sampler) is enabled. One relaxed atomic load.
#[inline]
pub fn live_enabled() -> bool {
    LIVE.load(Ordering::Relaxed)
}

/// Switch the live-monitoring gate on or off.
pub fn set_live_enabled(on: bool) {
    LIVE.store(on, Ordering::Relaxed);
}

/// Whether metric/span recording should happen at all: post-mortem tracing
/// (`STPT_TRACE`) *or* live monitoring. Recording sites check this; export
/// surfaces stay gated on the switch they serve ([`enabled`] for the
/// envelope's telemetry block, [`live_enabled`] for the scrape endpoint), so
/// turning the exporter on never changes what a result envelope contains.
#[inline]
pub fn collecting() -> bool {
    enabled() || live_enabled()
}

/// Read the observability environment, once per process. This is the one
/// place any `STPT_TRACE*`/`STPT_METRICS_ADDR` value is read (the XT10
/// choke point); everything else consults the gates.
///
/// * `STPT_TRACE` — any value other than empty or `0` switches
///   [`enabled`] on;
/// * `STPT_TRACE_EVENTS` — likewise for [`events_enabled`];
/// * `STPT_METRICS_ADDR` — bind address (`127.0.0.1:9184`) of the
///   Prometheus scrape listener. Switches [`live_enabled`] on and starts
///   the 1 s resource sampler; a busy port is reported on stderr and
///   never takes down the run.
///
/// An unset variable leaves its gate as it is. Later calls are no-ops.
pub fn init_from_env() {
    static INIT: std::sync::Once = std::sync::Once::new();
    INIT.call_once(|| {
        let flag = |name: &str| std::env::var(name).is_ok_and(|v| !v.is_empty() && v != "0");
        if flag("STPT_TRACE") {
            set_enabled(true);
        }
        if flag("STPT_TRACE_EVENTS") {
            set_events_enabled(true);
        }
        if let Ok(addr) = std::env::var("STPT_METRICS_ADDR") {
            set_live_enabled(true);
            timeseries::start_collector(std::time::Duration::from_secs(1));
            match prometheus::serve(&addr) {
                Ok(bound) => diag!("live telemetry: serving /metrics on http://{bound}/metrics"),
                Err(err) => diag!("live telemetry: could not bind {addr}: {err}"),
            }
        }
    });
}

/// Clear all collected state (spans, metric values, ledger, span events,
/// sampler bookkeeping) without touching the gates. Metric *registrations*
/// survive — statics stay registered; their values reset to zero.
///
/// Integration tests share one process (and therefore one set of statics);
/// any test that snapshots telemetry, or asserts on ledger/metric contents,
/// must call this first so it does not observe residue from tests that ran
/// earlier in the same binary.
pub fn reset() {
    trace::reset();
    metrics::reset();
    ledger::reset();
    events::reset();
    resources::reset();
}

/// Print one line of primary output (results, table rows) to stdout.
/// The sanctioned implementation behind [`report!`].
pub fn output_line(line: &str) {
    // The raw macro is correct exactly here — this is the choke point.
    // xtask-allow(XT06): the single sanctioned stdout choke point
    println!("{line}");
}

/// Print one line of diagnostic output (warnings, progress) to stderr.
/// The sanctioned implementation behind [`diag!`].
pub fn diag_line(line: &str) {
    // xtask-allow(XT06): single stderr choke point for the workspace.
    eprintln!("{line}");
}

/// Open a timed span: `let _guard = obs::span!("stpt.pattern");`.
/// Nested spans aggregate under `outer/inner` paths. No-op (and
/// allocation-free) when the gate is off.
#[macro_export]
macro_rules! span {
    ($name:expr) => {
        $crate::trace::SpanGuard::enter($name)
    };
}

/// Open a timed *phase* span: like [`span!`], but the guard also captures
/// process CPU time and RSS from `/proc` at its boundaries, so the span
/// table attributes `cpu_secs`, CPU efficiency and peak RSS to the path
/// (see [`resources`]). Use for coarse pipeline phases, not hot loops.
#[macro_export]
macro_rules! phase_span {
    ($name:expr) => {
        $crate::trace::SpanGuard::enter_phase($name)
    };
}

/// Primary-output line (stdout), `format!` syntax. The workspace's
/// sanctioned replacement for `println!` (see rule XT06).
#[macro_export]
macro_rules! report {
    ($($t:tt)*) => {
        $crate::output_line(&::std::format!($($t)*))
    };
}

/// Diagnostic line (stderr), `format!` syntax. The workspace's sanctioned
/// replacement for `eprintln!` (see rule XT06).
#[macro_export]
macro_rules! diag {
    ($($t:tt)*) => {
        $crate::diag_line(&::std::format!($($t)*))
    };
}

/// Serialises tests that toggle the global gate or inspect the global
/// tables — the test harness runs tests on multiple threads.
#[cfg(test)]
pub(crate) fn test_lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    LOCK.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gate_toggles() {
        let _lock = test_lock();
        set_enabled(false);
        assert!(!enabled());
        set_enabled(true);
        assert!(enabled());
        set_enabled(false);
        assert!(!enabled());
    }
}
