//! The background resource sampler behind the live `/metrics` gauges.
//!
//! The Prometheus exporter renders the cumulative registry; what it cannot
//! refresh by itself are the OS-level families (`process.rss_bytes`,
//! `process.cpu_ms`), which only move when [`crate::resources::sample`]
//! runs. [`start_collector`] runs it at start-up and then on a fixed
//! period for the life of the process, so a scrape of a long-lived daemon
//! or a running experiment sees current values.

use std::sync::Once;
use std::time::Duration;

/// Spawn the background sampler thread (`stpt-metrics`), once per process:
/// it takes one [`crate::resources::sample`] into the registry at once and
/// then one every `period` (a no-op unless [`crate::collecting`] is on and
/// `/proc` is readable). The thread is detached and runs for the life of
/// the process; `crates/obs` is the sanctioned home for such
/// infrastructure threads (XT07 exemption).
pub fn start_collector(period: Duration) {
    static STARTED: Once = Once::new();
    STARTED.call_once(|| {
        let spawned = std::thread::Builder::new()
            .name("stpt-metrics".into())
            .spawn(move || loop {
                crate::resources::sample();
                std::thread::sleep(period);
            });
        if spawned.is_err() {
            crate::diag!("live telemetry: could not spawn stpt-metrics sampler thread");
        }
    });
}
