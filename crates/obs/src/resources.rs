//! OS-level resource sampling from `/proc` — std-only, degradation-first.
//!
//! The logical instruments in this crate (spans, counters, the ledger) see
//! only in-process facts. This module adds the physical side: resident-set
//! size and process CPU time (utime + stime), both read from the Linux
//! `/proc` filesystem with plain file I/O — no libc, no syscall wrappers,
//! `forbid(unsafe_code)` stands. Per-worker time is the vendored pool's
//! own `worker.{i}.busy_us`.
//!
//! # Degradation policy
//!
//! Every raw read returns `Option`: off-Linux, inside a stripped-down
//! sandbox without `/proc`, or with the gate switched off in code
//! ([`set_resources_enabled`]), [`available`] is `false`, [`sample`] is a
//! no-op, phase spans skip their CPU/RSS capture, exports omit the resource
//! fields and `cargo xtask regress` skips resource checks with a named
//! reason. Nothing in the result envelope ever depends on whether sampling
//! ran — resource data flows only into telemetry, never into the `data`
//! payload.
//!
//! # Cadence and units
//!
//! [`sample`] is called by the 1 s live sampler
//! ([`crate::timeseries::start_collector`], so a `/metrics` scrape sees
//! current RSS and CPU time) and is cheap enough for phase boundaries too:
//! two small files under `/proc/self`. CPU time is converted from clock
//! ticks via `AT_CLKTCK` from `/proc/self/auxv` (fallback 100 Hz), RSS from
//! pages via `AT_PAGESZ` (fallback 4096).

use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, MutexGuard, OnceLock};

/// Last sampled resident-set size in bytes.
static RSS_BYTES: crate::Gauge = crate::Gauge::new("process.rss_bytes");
/// Running maximum of every RSS observation since the last reset.
static PEAK_RSS_BYTES: crate::Gauge = crate::Gauge::new("process.peak_rss_bytes");
/// Cumulative process CPU time (utime + stime, all threads), milliseconds.
static PROCESS_CPU_MS: crate::Counter = crate::Counter::new("process.cpu_ms");

/// Resource-sampling gate; on unless switched off in code.
static GATE: AtomicBool = AtomicBool::new(true);

/// Whether resource sampling is switched on (default on). One relaxed
/// atomic load. This is a *gate*, not a capability: sampling additionally
/// requires a readable `/proc` (see [`available`]).
#[inline]
pub fn resources_enabled() -> bool {
    GATE.load(Ordering::Relaxed)
}

/// Switch the resource gate on or off.
pub fn set_resources_enabled(on: bool) {
    GATE.store(on, Ordering::Relaxed);
}

/// Test-only injection point for the degradation path: override the
/// directory read instead of `/proc/self`. `Some(path)` redirects every
/// read (a nonexistent path simulates a `/proc`-less host); `None`
/// restores the real `/proc/self`.
pub fn set_proc_root_override(root: Option<PathBuf>) {
    let cell = proc_root_override();
    let mut guard = cell.lock().unwrap_or_else(|p| p.into_inner());
    *guard = root;
}

fn proc_root_override() -> &'static Mutex<Option<PathBuf>> {
    static OVERRIDE: OnceLock<Mutex<Option<PathBuf>>> = OnceLock::new();
    OVERRIDE.get_or_init(|| Mutex::new(None))
}

fn proc_root() -> PathBuf {
    let cell = proc_root_override();
    let guard = cell.lock().unwrap_or_else(|p| p.into_inner());
    guard.clone().unwrap_or_else(|| PathBuf::from("/proc/self"))
}

/// Whether sampling can actually run: the gate is on and the (possibly
/// overridden) proc root exposes a parseable `statm`. Computed per call.
/// Recording paths do not ask first: their own RSS read is the probe.
pub fn available() -> bool {
    resources_enabled() && rss_bytes().is_some()
}

// ---- auxv-derived unit constants -----------------------------------------

const AT_PAGESZ: u64 = 6;
const AT_CLKTCK: u64 = 17;

/// Scan the ELF auxiliary vector (`/proc/self/auxv`, binary `usize` key /
/// value pairs) for one key. The real `/proc/self/auxv` is used even under
/// a root override — page size and tick rate are machine constants, and a
/// missing file just falls back to the documented defaults.
fn auxv_value(key: u64) -> Option<u64> {
    let bytes = std::fs::read("/proc/self/auxv").ok()?;
    let word = std::mem::size_of::<usize>();
    for pair in bytes.chunks_exact(2 * word) {
        let k = usize::from_ne_bytes(pair[..word].try_into().ok()?) as u64;
        let v = usize::from_ne_bytes(pair[word..].try_into().ok()?) as u64;
        if k == key {
            return Some(v);
        }
    }
    None
}

/// Bytes per page (`AT_PAGESZ`, fallback 4096). Cached after the first call.
pub fn page_size() -> u64 {
    static PAGE: OnceLock<u64> = OnceLock::new();
    *PAGE.get_or_init(|| auxv_value(AT_PAGESZ).filter(|&v| v > 0).unwrap_or(4096))
}

/// Clock ticks per second (`AT_CLKTCK`, fallback 100). Cached after the
/// first call.
pub fn clock_ticks_per_sec() -> u64 {
    static TICKS: OnceLock<u64> = OnceLock::new();
    *TICKS.get_or_init(|| auxv_value(AT_CLKTCK).filter(|&v| v > 0).unwrap_or(100))
}

fn ticks_to_ms(ticks: u64) -> u64 {
    ticks.saturating_mul(1000) / clock_ticks_per_sec()
}

// ---- raw /proc readers and pure parsers ----------------------------------

/// Parse the second field of `/proc/self/statm` (resident pages).
fn parse_statm_resident_pages(text: &str) -> Option<u64> {
    text.split_whitespace().nth(1)?.parse().ok()
}

/// Parse utime + stime (clock ticks) out of a `/proc/*/stat` line. The
/// comm field is parenthesised and may itself contain spaces or `)`, so
/// fields are counted from the *last* `)`: state is the 1st token after
/// it, utime the 12th, stime the 13th.
fn parse_stat_cpu_ticks(line: &str) -> Option<u64> {
    let (_, rest) = line.rsplit_once(')')?;
    let mut fields = rest.split_whitespace();
    let utime: u64 = fields.clone().nth(11)?.parse().ok()?;
    let stime: u64 = fields.nth(12)?.parse().ok()?;
    Some(utime.saturating_add(stime))
}

/// Current resident-set size in bytes, or `None` when `/proc` (or the
/// test override root) cannot be read. Does **not** consult the gate;
/// recording paths go through `observe_rss`, which does.
pub fn rss_bytes() -> Option<u64> {
    let text = std::fs::read_to_string(proc_root().join("statm")).ok()?;
    let pages = parse_statm_resident_pages(&text)?;
    Some(pages.saturating_mul(page_size()))
}

/// Cumulative process CPU time (utime + stime across all threads) in
/// clock ticks, or `None` when `/proc` cannot be read.
pub fn process_cpu_ticks() -> Option<u64> {
    let text = std::fs::read_to_string(proc_root().join("stat")).ok()?;
    parse_stat_cpu_ticks(&text)
}

/// Cumulative process CPU time in seconds.
pub fn process_cpu_secs() -> Option<f64> {
    process_cpu_ticks().map(|t| t as f64 / clock_ticks_per_sec() as f64)
}

// ---- sampler state -------------------------------------------------------

#[derive(Default)]
struct SamplerState {
    /// Cumulative process CPU ticks at the previous sample.
    prev_cpu_ticks: u64,
    /// Leftover ticks not yet large enough to emit a whole millisecond.
    cpu_ms_emitted: u64,
    /// Running peak of every RSS observation.
    peak_rss: u64,
}

static STATE: OnceLock<Mutex<SamplerState>> = OnceLock::new();

fn state() -> MutexGuard<'static, SamplerState> {
    STATE
        .get_or_init(|| Mutex::new(SamplerState::default()))
        .lock()
        .unwrap_or_else(|p| p.into_inner())
}

/// Record one RSS observation: update the gauge and the running peak.
/// Called by [`sample`] and by phase spans at entry/exit so short-lived
/// allocation spikes between collector ticks still move the peak. This is
/// also the layer's probe: `None` when the gate is off or `statm` cannot
/// be read, with nothing recorded.
pub(crate) fn observe_rss() -> Option<u64> {
    if !resources_enabled() {
        return None;
    }
    let rss = rss_bytes()?;
    let mut st = state();
    RSS_BYTES.set(rss as f64);
    if rss > st.peak_rss {
        st.peak_rss = rss;
    }
    PEAK_RSS_BYTES.set(st.peak_rss as f64);
    Some(rss)
}

/// Take one resource sample into the metrics registry: RSS gauge + peak
/// and the process CPU counter delta. No-op unless collection is on
/// ([`crate::collecting`]), the gate is on and `/proc` is readable — so a
/// disabled or degraded layer costs one atomic load plus (at worst) one
/// failed `open`.
pub fn sample() {
    if !crate::collecting() || observe_rss().is_none() {
        return;
    }
    if let Some(ticks) = process_cpu_ticks() {
        let mut st = state();
        let cum = ticks.max(st.prev_cpu_ticks);
        st.prev_cpu_ticks = cum;
        // Emit against a cumulative-ms ledger so repeated small deltas
        // below one tick-to-ms quantum are not lost to truncation.
        let target_ms = ticks_to_ms(cum);
        let delta = target_ms.saturating_sub(st.cpu_ms_emitted);
        if delta > 0 {
            PROCESS_CPU_MS.add(delta);
            st.cpu_ms_emitted = target_ms;
        }
    }
}

/// Clear sampler bookkeeping (previous cumulatives, the RSS peak). Metric
/// values are cleared separately by [`crate::metrics::reset`]; the
/// resource gate and the test root override are left untouched.
pub fn reset() {
    let mut st = state();
    *st = SamplerState::default();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn statm_parser_reads_resident_pages() {
        assert_eq!(
            parse_statm_resident_pages("627 363 338 6 0 89 0"),
            Some(363)
        );
        assert_eq!(parse_statm_resident_pages("627"), None);
        assert_eq!(parse_statm_resident_pages(""), None);
        assert_eq!(parse_statm_resident_pages("a b"), None);
    }

    #[test]
    fn stat_parser_handles_hostile_comm_fields() {
        // comm may contain spaces and parens; fields count from the LAST ')'.
        let line = "42 (stpt worker) ) R 1 1 1 0 -1 4194304 100 0 0 0 7 3 0 0 20 0 1 0 100 1000 50";
        assert_eq!(parse_stat_cpu_ticks(line), Some(10));
        assert_eq!(parse_stat_cpu_ticks("1 (x)"), None);
        assert_eq!(parse_stat_cpu_ticks("no parens here"), None);
    }

    #[test]
    fn unit_constants_have_sane_fallbacks() {
        assert!(page_size() >= 1024);
        let tck = clock_ticks_per_sec();
        assert!(tck > 0);
        assert_eq!(ticks_to_ms(tck), 1000);
    }

    #[test]
    fn live_proc_reads_are_consistent_when_available() {
        let _lock = crate::test_lock();
        set_proc_root_override(None);
        set_resources_enabled(true);
        if !available() {
            return; // degraded host: nothing to assert
        }
        let rss = rss_bytes().unwrap();
        assert!(rss > 0, "a running process has resident pages");
        let t1 = process_cpu_ticks().unwrap();
        let t2 = process_cpu_ticks().unwrap();
        assert!(t2 >= t1, "cumulative CPU time is monotone");
    }

    #[test]
    fn override_to_missing_root_degrades_cleanly() {
        let _lock = crate::test_lock();
        set_resources_enabled(true);
        set_proc_root_override(Some(PathBuf::from("/nonexistent/proc-root")));
        assert!(!available());
        assert_eq!(rss_bytes(), None);
        assert_eq!(process_cpu_ticks(), None);
        sample(); // must be a silent no-op
        set_proc_root_override(None);
    }

    #[test]
    fn gate_off_disables_sampling_even_with_proc_present() {
        let _lock = crate::test_lock();
        set_proc_root_override(None);
        set_resources_enabled(false);
        assert!(!available());
        set_resources_enabled(true);
    }
}
