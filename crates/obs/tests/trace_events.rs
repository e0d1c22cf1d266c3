//! Integration tests for the span recorder and the Chrome-trace exporter:
//! per-thread path isolation, aggregate summation across threads, and the
//! structural contract of the emitted `trace_event` JSON (B/E pairing,
//! monotone timestamps, one track per thread).

use serde::Value;
use std::sync::{Mutex, MutexGuard};

/// The obs tables and gates are process-global; tests in this binary run on
/// multiple harness threads and must take turns.
fn lock() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// Guard restoring both gates to off even if the test panics, so one
/// failure does not cascade through unrelated tests.
struct GatesOff;
impl Drop for GatesOff {
    fn drop(&mut self) {
        stpt_obs::set_enabled(false);
        stpt_obs::set_events_enabled(false);
    }
}

#[test]
fn spans_stay_per_thread_and_aggregate_counts_sum() {
    let _lock = lock();
    let _off = GatesOff;
    stpt_obs::reset();
    stpt_obs::set_enabled(true);
    stpt_obs::set_events_enabled(false);

    // Each worker opens its own `worker/step` nest; the paths must never
    // interleave across threads (no `worker/worker` or `step/worker`
    // hybrids), and the aggregate counts must sum over all threads.
    const THREADS: usize = 4;
    const REPS: u64 = 25;
    std::thread::scope(|scope| {
        for _ in 0..THREADS {
            scope.spawn(|| {
                for _ in 0..REPS {
                    let _outer = stpt_obs::span!("worker");
                    for _ in 0..2 {
                        let _inner = stpt_obs::span!("step");
                    }
                }
            });
        }
    });
    stpt_obs::set_enabled(false);

    let snap = stpt_obs::trace::snapshot();
    let paths: Vec<&str> = snap.iter().map(|(p, _)| p.as_str()).collect();
    assert_eq!(
        paths,
        vec!["worker", "worker/step"],
        "thread-local stacks must not leak across threads"
    );
    let stat = |p: &str| snap.iter().find(|(q, _)| q == p).unwrap().1;
    assert_eq!(stat("worker").count, (THREADS as u64) * REPS);
    assert_eq!(stat("worker/step").count, (THREADS as u64) * REPS * 2);
}

#[test]
fn chrome_trace_round_trips_through_a_json_parser() {
    let _lock = lock();
    let _off = GatesOff;
    stpt_obs::reset();
    stpt_obs::set_events_enabled(true);

    // Two threads, nested spans — the export must keep one well-nested
    // B/E sequence per tid with monotone timestamps.
    std::thread::scope(|scope| {
        for _ in 0..2 {
            scope.spawn(|| {
                for _ in 0..3 {
                    let _a = stpt_obs::span!("phase");
                    let _b = stpt_obs::span!("kernel");
                }
            });
        }
    });
    stpt_obs::set_events_enabled(false);

    let doc = stpt_obs::export::chrome_trace_json("roundtrip");
    let value: Value = serde_json::from_str(&doc).expect("exporter must emit valid JSON");

    let top = value.as_object().expect("top level is an object");
    let get = |k: &str| top.iter().find(|(n, _)| n == k).map(|(_, v)| v);
    let other = get("otherData").unwrap().as_object().unwrap();
    assert!(other
        .iter()
        .any(|(n, v)| n == "run" && v.as_str() == Some("roundtrip")));
    let events = get("traceEvents").unwrap().as_array().unwrap();

    // Validate against the trace-event schema subset we emit: every record
    // has ph/pid/tid, B events carry name+args.path, E events pair LIFO
    // with the B of the same tid, and ts is monotone per tid.
    let field = |e: &Value, k: &str| {
        e.as_object()
            .unwrap()
            .iter()
            .find(|(n, _)| n == k)
            .map(|(_, v)| v.clone())
    };
    let mut stacks: std::collections::HashMap<u64, Vec<String>> = Default::default();
    let mut last_ts: std::collections::HashMap<u64, f64> = Default::default();
    let mut b_count = 0u64;
    let mut e_count = 0u64;
    for e in events {
        let ph = field(e, "ph").unwrap().as_str().unwrap().to_owned();
        let tid = field(e, "tid").unwrap().as_f64().unwrap() as u64;
        match ph.as_str() {
            "M" => continue,
            "B" => {
                b_count += 1;
                let name = field(e, "name").unwrap().as_str().unwrap().to_owned();
                let args = field(e, "args").unwrap();
                let path = args
                    .as_object()
                    .unwrap()
                    .iter()
                    .find(|(n, _)| n == "path")
                    .map(|(_, v)| v.as_str().unwrap().to_owned())
                    .expect("B events carry the full span path");
                assert!(
                    path.ends_with(&name),
                    "path {path:?} must end with leaf {name:?}"
                );
                stacks.entry(tid).or_default().push(name);
            }
            "E" => {
                e_count += 1;
                let name = field(e, "name").unwrap().as_str().unwrap().to_owned();
                let open = stacks.entry(tid).or_default().pop();
                assert_eq!(
                    open.as_deref(),
                    Some(name.as_str()),
                    "E must close the innermost open B on its tid"
                );
            }
            other => panic!("unexpected phase {other:?}"),
        }
        let ts = field(e, "ts").unwrap().as_f64().unwrap();
        let prev = last_ts.insert(tid, ts).unwrap_or(f64::NEG_INFINITY);
        assert!(ts >= prev, "timestamps must be monotone per tid");
    }
    assert_eq!(b_count, 12, "2 threads x 3 reps x 2 spans");
    assert_eq!(b_count, e_count, "every B pairs with an E");
    assert!(
        stacks.values().all(Vec::is_empty),
        "no span left open at end of trace"
    );
    assert_eq!(stacks.len(), 2, "one track per thread");
}

#[test]
fn still_open_spans_are_closed_synthetically() {
    let _lock = lock();
    let _off = GatesOff;
    stpt_obs::reset();
    stpt_obs::set_events_enabled(true);
    let guard = stpt_obs::span!("open_at_export");
    let doc = stpt_obs::export::chrome_trace_json("open");
    drop(guard);
    stpt_obs::set_events_enabled(false);

    let value: Value = serde_json::from_str(&doc).expect("valid JSON");
    let events = value
        .as_object()
        .unwrap()
        .iter()
        .find(|(n, _)| n == "traceEvents")
        .map(|(_, v)| v.as_array().unwrap().to_vec())
        .unwrap();
    let phases: Vec<String> = events
        .iter()
        .filter_map(|e| {
            e.as_object()
                .unwrap()
                .iter()
                .find(|(n, _)| n == "ph")
                .map(|(_, v)| v.as_str().unwrap().to_owned())
        })
        .filter(|p| p != "M")
        .collect();
    assert_eq!(phases, vec!["B", "E"], "open span gets a synthetic E");
}

#[test]
fn telemetry_histograms_export_quantiles() {
    static HIST: stpt_obs::Histogram = stpt_obs::Histogram::new("test.export_quantiles");
    let _lock = lock();
    let _off = GatesOff;
    stpt_obs::reset();
    stpt_obs::set_enabled(true);
    for _ in 0..10 {
        HIST.observe(3.0);
    }
    let doc = stpt_obs::export::telemetry_json("quantiles");
    stpt_obs::set_enabled(false);

    let value: Value = serde_json::from_str(&doc).expect("valid JSON");
    let hists = value
        .as_object()
        .unwrap()
        .iter()
        .find(|(n, _)| n == "histograms")
        .map(|(_, v)| v.as_array().unwrap().to_vec())
        .unwrap();
    let h = hists
        .iter()
        .find(|h| {
            h.as_object()
                .unwrap()
                .iter()
                .any(|(n, v)| n == "name" && v.as_str() == Some("test.export_quantiles"))
        })
        .expect("observed histogram is exported");
    for key in ["p50", "p95", "p99"] {
        let v = h
            .as_object()
            .unwrap()
            .iter()
            .find(|(n, _)| n == key)
            .map(|(_, v)| v.as_f64().unwrap())
            .unwrap_or_else(|| panic!("{key} missing"));
        // All mass in the [2,4) bucket: every quantile lies inside it.
        assert!((2.0..=4.0).contains(&v), "{key} = {v}");
    }
}
