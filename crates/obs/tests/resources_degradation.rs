//! Degradation tests for the `/proc` resource layer: when the proc root
//! is unreadable (injected via the test-only root override) or the
//! resource gate is switched off, sampling disables cleanly — phase spans
//! fall back to plain spans, the telemetry document carries no resource
//! fields, and the rest of the pipeline is untouched.

use std::sync::{Mutex, MutexGuard};

/// The obs tables and gates are process-global; tests in this binary run
/// on multiple harness threads and must take turns.
fn lock() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// Guard restoring gates, the proc-root override and the registry even if
/// a test panics.
struct Restore;
impl Drop for Restore {
    fn drop(&mut self) {
        stpt_obs::resources::set_proc_root_override(None);
        stpt_obs::resources::set_resources_enabled(true);
        stpt_obs::set_enabled(false);
        stpt_obs::reset();
    }
}

/// Trace one phase-span workload and export its telemetry document.
fn traced_run(run: &str) -> String {
    stpt_obs::reset();
    stpt_obs::set_enabled(true);
    {
        let _phase = stpt_obs::phase_span!("stpt");
        let _inner = stpt_obs::phase_span!("sanitize");
        std::thread::sleep(std::time::Duration::from_millis(2));
    }
    stpt_obs::resources::sample();
    stpt_obs::set_enabled(false);
    stpt_obs::export::telemetry_json(run)
}

#[test]
fn missing_proc_disables_sampling_and_strips_resource_fields() {
    let _lock = lock();
    let _restore = Restore;

    stpt_obs::resources::set_proc_root_override(Some(
        std::env::temp_dir().join("stpt_no_such_proc_root"),
    ));
    assert!(
        !stpt_obs::resources::available(),
        "an unreadable proc root must disable the layer"
    );
    assert_eq!(stpt_obs::resources::rss_bytes(), None);
    assert_eq!(stpt_obs::resources::process_cpu_ticks(), None);

    let doc = traced_run("degraded");
    // The workload itself is still fully traced…
    assert!(doc.contains("\"path\": \"stpt\""), "{doc}");
    assert!(doc.contains("\"path\": \"stpt/sanitize\""), "{doc}");
    // …but no resource attribution and no process gauges appear.
    assert!(!doc.contains("cpu_secs"), "{doc}");
    assert!(!doc.contains("cpu_efficiency"), "{doc}");
    assert!(!doc.contains("peak_rss_bytes"), "{doc}");
    assert!(!doc.contains("process.rss_bytes"), "{doc}");
}

#[test]
fn gate_off_disables_sampling_even_with_a_real_proc() {
    let _lock = lock();
    let _restore = Restore;

    stpt_obs::resources::set_resources_enabled(false);
    assert!(
        !stpt_obs::resources::available(),
        "a switched-off gate must disable the layer regardless of /proc"
    );

    let doc = traced_run("gated");
    assert!(doc.contains("\"path\": \"stpt/sanitize\""), "{doc}");
    assert!(!doc.contains("cpu_secs"), "{doc}");
    assert!(!doc.contains("process.rss_bytes"), "{doc}");
}

#[test]
fn degraded_and_gated_runs_export_identical_telemetry_shape() {
    let _lock = lock();
    let _restore = Restore;

    // Same workload, two different degradation causes: the exported
    // documents must be structurally identical (the consumer cannot tell
    // WHY the resource layer was off, only that it cleanly was).
    stpt_obs::resources::set_proc_root_override(Some(
        std::env::temp_dir().join("stpt_no_such_proc_root"),
    ));
    let degraded = traced_run("shape");
    stpt_obs::resources::set_proc_root_override(None);
    stpt_obs::resources::set_resources_enabled(false);
    let gated = traced_run("shape");
    stpt_obs::resources::set_resources_enabled(true);

    let strip_timings = |doc: &str| -> Vec<String> {
        // Wall-clock fields differ run to run; compare the key structure.
        doc.lines()
            .map(|l| {
                l.split("_ms\":")
                    .next()
                    .unwrap_or(l)
                    .split("\"value\":")
                    .next()
                    .unwrap_or(l)
                    .to_owned()
            })
            .collect()
    };
    assert_eq!(strip_timings(&degraded), strip_timings(&gated));
}

#[test]
fn reenabled_layer_resumes_attribution_when_proc_is_real() {
    let _lock = lock();
    let _restore = Restore;

    if !stpt_obs::resources::available() {
        return; // No /proc on this platform: nothing to resume.
    }
    let doc = traced_run("resumed");
    assert!(doc.contains("\"cpu_secs\":"), "{doc}");
    assert!(doc.contains("\"cpu_efficiency\":"), "{doc}");
    assert!(doc.contains("\"process.peak_rss_bytes\""), "{doc}");
}
