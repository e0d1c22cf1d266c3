//! Telemetry JSON rendering.
//!
//! Serialisation is hand-rolled (this crate is dependency-free by design)
//! and produces two documents, neither of which touches the file system:
//!
//! * [`telemetry_json`] — the run's one telemetry document, inlined by
//!   `stpt_bench::emit_result` as the `telemetry` block of
//!   `results/<run>.json`:
//!
//!   ```json
//!   {
//!     "run": "table2",
//!     "spans": [ { "path": "stpt/pattern", "count": 3, "total_ms": 1.2 } ],
//!     "counters": [ { "name": "dp.noise_draws.laplace", "value": 96 } ],
//!     "gauges": [ { "name": "nn.windows_per_sec", "value": 1234.5 } ],
//!     "histograms": [ { "name": "nn.grad_norm", "count": 8, "sum": 3.1,
//!                       "buckets": [ [0.25, 5], [0.5, 3] ] } ],
//!     "events": { "recorded": 0, "dropped": 0, "capacity": 65536 },
//!     "ledger": { "check": { ... }, "proofs": [ ... ], "runs": 1 }
//!   }
//!   ```
//!
//! * [`chrome_trace_json`] — the span events as a Chrome trace, which the
//!   caller writes next to the envelope.
//!
//! Non-finite floats serialise as `null` — JSON has no NaN/Inf and a
//! telemetry reader must see *that it happened* rather than a parse error.

use std::fmt::Write as _;

use crate::ledger;
use crate::metrics;
use crate::trace;

/// Escape a string for a JSON string literal (without the quotes).
fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// Format an `f64` as a JSON number, mapping non-finite values to `null`.
fn json_f64(v: f64) -> String {
    if v.is_finite() {
        let mut s = format!("{v}");
        // `format!("{}", 1.0)` yields "1" — keep it valid JSON either way,
        // but make integral floats round-trip as floats for readability.
        if !s.contains('.') && !s.contains('e') && !s.contains("inf") {
            s.push_str(".0");
        }
        s
    } else {
        "null".to_owned()
    }
}

/// Render the telemetry document for a run label: spans, metrics, event
/// ring health and the budget ledger's audit verdict with its
/// post-processing proofs. The per-draw ledger entries are not rendered;
/// they stay with the release (`Release.ledger`).
pub fn telemetry_json(run: &str) -> String {
    let spans = trace::snapshot();
    let metrics::MetricsSnapshot {
        counters,
        gauges,
        histograms,
    } = metrics::snapshot();
    let published = ledger::ledger_snapshot();

    // Pool width for CPU-efficiency attribution: the vendored pool
    // publishes a `pool.threads` gauge; absent (no parallel region ran, or
    // collection started late) it defaults to one.
    let pool_threads = gauges
        .iter()
        .find(|&&(n, _)| n == "pool.threads")
        .map(|&(_, v)| v)
        .filter(|&v| v >= 1.0)
        .unwrap_or(1.0);

    let mut out = String::with_capacity(4096);
    out.push_str("{\n");
    let _ = writeln!(out, "  \"run\": \"{}\",", json_escape(run));

    out.push_str("  \"spans\": [");
    for (i, (path, stat)) in spans.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "\n    {{ \"path\": \"{}\", \"count\": {}, \"total_ms\": {}",
            json_escape(path),
            stat.count,
            json_f64(stat.total_ms())
        );
        // Resource attribution rides only on phase spans that completed
        // with `/proc` readable; degraded runs keep the plain shape.
        if stat.resourced > 0 {
            let wall_secs = stat.total_ns as f64 / 1e9;
            let efficiency = if wall_secs > 0.0 {
                stat.cpu_secs / wall_secs / pool_threads
            } else {
                f64::NAN
            };
            let _ = write!(
                out,
                ", \"cpu_secs\": {}, \"cpu_efficiency\": {}, \"peak_rss_bytes\": {}",
                json_f64(stat.cpu_secs),
                json_f64(efficiency),
                stat.peak_rss_bytes
            );
        }
        out.push_str(" }");
    }
    out.push_str(if spans.is_empty() { "],\n" } else { "\n  ],\n" });

    out.push_str("  \"counters\": [");
    for (i, (name, value)) in counters.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "\n    {{ \"name\": \"{}\", \"value\": {} }}",
            json_escape(name),
            value
        );
    }
    out.push_str(if counters.is_empty() {
        "],\n"
    } else {
        "\n  ],\n"
    });

    out.push_str("  \"gauges\": [");
    for (i, (name, value)) in gauges.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "\n    {{ \"name\": \"{}\", \"value\": {} }}",
            json_escape(name),
            json_f64(*value)
        );
    }
    out.push_str(if gauges.is_empty() {
        "],\n"
    } else {
        "\n  ],\n"
    });

    out.push_str("  \"histograms\": [");
    for (i, h) in histograms.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let quant = |q: f64| match h.quantile(q) {
            Some(v) => json_f64(v),
            None => "null".to_owned(),
        };
        let _ = write!(
            out,
            "\n    {{ \"name\": \"{}\", \"count\": {}, \"sum\": {}, \
             \"min\": {}, \"max\": {}, \
             \"p50\": {}, \"p95\": {}, \"p99\": {}, \"buckets\": [",
            json_escape(h.name),
            h.count,
            json_f64(h.sum),
            json_f64(h.min),
            json_f64(h.max),
            quant(0.5),
            quant(0.95),
            quant(0.99)
        );
        for (j, (lb, c)) in h.buckets.iter().enumerate() {
            if j > 0 {
                out.push_str(", ");
            }
            let _ = write!(out, "[{}, {}]", json_f64(*lb), c);
        }
        out.push_str("] }");
    }
    out.push_str(if histograms.is_empty() {
        "],\n"
    } else {
        "\n  ],\n"
    });

    // Span-event ring health: a monitoring consumer (and `cargo xtask
    // regress --require-telemetry`) must be able to see lossy traces.
    let _ = writeln!(
        out,
        "  \"events\": {{ \"recorded\": {}, \"dropped\": {}, \"capacity\": {} }},",
        crate::events::recorded(),
        crate::events::dropped(),
        crate::events::CAPACITY
    );

    match published {
        None => out.push_str("  \"ledger\": null\n"),
        Some((proofs, check)) => {
            out.push_str("  \"ledger\": {\n");
            let _ = writeln!(
                out,
                "    \"check\": {{ \"total\": {}, \"replayed\": {}, \"spent\": {}, \
                 \"entries\": {}, \"postprocess\": {}, \"consistent\": {}, \
                 \"noise\": \"{}\" }},",
                json_f64(check.total),
                json_f64(check.replayed),
                json_f64(check.spent),
                check.entries,
                check.postprocess_stages,
                check.consistent,
                check.noise.label()
            );
            out.push_str("    \"proofs\": [");
            for (i, p) in proofs.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                let _ = write!(
                    out,
                    "\n      {{ \"stage\": \"{}\", \"epsilon\": {}, \"spends_during\": {}, \
                     \"ledger_at\": {} }}",
                    json_escape(&p.stage),
                    json_f64(p.epsilon),
                    p.spends_during,
                    p.ledger_at
                );
            }
            out.push_str(if proofs.is_empty() {
                "],\n"
            } else {
                "\n    ],\n"
            });
            let _ = writeln!(out, "    \"runs\": {}", ledger::published_runs());
            out.push_str("  }\n");
        }
    }
    out.push('}');
    out.push('\n');
    out
}

/// Render the recorded span events ([`crate::events`]) as a Chrome
/// `trace_event` JSON object — loadable in Perfetto (<https://ui.perfetto.dev>)
/// or `chrome://tracing`.
///
/// Format notes:
/// * one `"B"`/`"E"` duration-event pair per span, timestamps in
///   microseconds from the process trace epoch, one `tid` track per OS
///   thread (named via `"M"` metadata events);
/// * full `/`-joined span paths ride in `args.path` (the event `name` is
///   the leaf, which is what the timeline labels show);
/// * begins left unmatched at export time — a still-open span, or a pair
///   whose end fell off the full ring buffer — are closed synthetically at
///   the thread's last seen timestamp so the document is always well
///   nested; the number of dropped events is reported in
///   `otherData.dropped_events`.
pub fn chrome_trace_json(run: &str) -> String {
    // Read the names before taking the ring lock, so no one holds both:
    // recording takes them one after the other, names first.
    let names: std::collections::HashMap<u64, String> =
        crate::events::thread_names().into_iter().collect();
    crate::events::with_events(|events| render_chrome_trace(run, events, &names))
}

/// [`chrome_trace_json`]'s body, over the event ring read in place.
fn render_chrome_trace(
    run: &str,
    events: &[crate::events::TraceEvent],
    names: &std::collections::HashMap<u64, String>,
) -> String {
    let dropped = crate::events::dropped();

    let mut out = String::with_capacity(events.len() * 96 + 256);
    out.push_str("{\n");
    let _ = writeln!(
        out,
        "  \"displayTimeUnit\": \"ms\",\n  \"otherData\": {{ \"run\": \"{}\", \"dropped_events\": {} }},",
        json_escape(run),
        dropped
    );
    out.push_str("  \"traceEvents\": [");

    let mut first = true;
    let mut push_event = |out: &mut String, body: String| {
        if !first {
            out.push(',');
        }
        first = false;
        out.push_str("\n    ");
        out.push_str(&body);
    };

    // One thread_name metadata record per track, using the OS thread name
    // where one was recorded (the pool's `stpt-worker-N` threads) so the
    // fan-out is legible in the timeline.
    let mut tids: Vec<u64> = events.iter().map(|e| e.tid).collect();
    tids.sort_unstable();
    tids.dedup();
    for tid in &tids {
        let label = names
            .get(tid)
            .cloned()
            .unwrap_or_else(|| format!("thread {tid}"));
        push_event(
            &mut out,
            format!(
                "{{ \"ph\": \"M\", \"pid\": 1, \"tid\": {tid}, \"name\": \"thread_name\", \
                 \"args\": {{ \"name\": \"{}\" }} }}",
                json_escape(&label)
            ),
        );
    }

    // Per-thread stacks of open begins, to synthesize ends for unmatched
    // ones (span still open at export, or end lost to the ring cap).
    let mut open: std::collections::HashMap<u64, Vec<&crate::events::TraceEvent>> =
        std::collections::HashMap::new();
    let mut last_ts: std::collections::HashMap<u64, u128> = std::collections::HashMap::new();

    for e in events {
        let ts_us = e.ts_ns as f64 / 1e3;
        last_ts
            .entry(e.tid)
            .and_modify(|t| *t = (*t).max(e.ts_ns))
            .or_insert(e.ts_ns);
        match e.phase {
            crate::events::EventPhase::Begin => {
                open.entry(e.tid).or_default().push(e);
                push_event(
                    &mut out,
                    format!(
                        "{{ \"ph\": \"B\", \"pid\": 1, \"tid\": {}, \"ts\": {}, \"name\": \"{}\", \
                         \"cat\": \"span\", \"args\": {{ \"path\": \"{}\" }} }}",
                        e.tid,
                        json_f64(ts_us),
                        json_escape(e.name),
                        json_escape(&e.path)
                    ),
                );
            }
            crate::events::EventPhase::End => {
                open.entry(e.tid).or_default().pop();
                push_event(
                    &mut out,
                    format!(
                        "{{ \"ph\": \"E\", \"pid\": 1, \"tid\": {}, \"ts\": {}, \"name\": \"{}\" }}",
                        e.tid,
                        json_f64(ts_us),
                        json_escape(e.name)
                    ),
                );
            }
        }
    }

    // Close unmatched begins innermost-first at the thread's last timestamp.
    let mut open: Vec<(u64, Vec<&crate::events::TraceEvent>)> = open.into_iter().collect();
    open.sort_by_key(|(tid, _)| *tid);
    for (tid, stack) in open {
        let ts_us = last_ts.get(&tid).copied().unwrap_or_default() as f64 / 1e3;
        for e in stack.iter().rev() {
            push_event(
                &mut out,
                format!(
                    "{{ \"ph\": \"E\", \"pid\": 1, \"tid\": {tid}, \"ts\": {}, \"name\": \"{}\" }}",
                    json_f64(ts_us),
                    json_escape(e.name)
                ),
            );
        }
    }

    out.push_str(if first { "]\n" } else { "\n  ]\n" });
    out.push_str("}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ledger::{LedgerCheck, PostProcessProof};

    #[test]
    fn json_f64_handles_degenerate_values() {
        assert_eq!(json_f64(1.0), "1.0");
        assert_eq!(json_f64(0.5), "0.5");
        assert_eq!(json_f64(f64::NAN), "null");
        assert_eq!(json_f64(f64::INFINITY), "null");
    }

    #[test]
    fn json_escape_controls_and_quotes() {
        assert_eq!(json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(json_escape("\u{1}"), "\\u0001");
    }

    #[test]
    fn document_is_structurally_sound() {
        let _lock = crate::test_lock();
        crate::set_enabled(true);
        crate::reset();
        {
            let _s = crate::span!("export_test");
        }
        crate::ledger::publish_ledger(
            &[PostProcessProof {
                stage: "consistency".to_owned(),
                epsilon: 0.0,
                spends_during: 0,
                ledger_at: 1,
            }],
            LedgerCheck {
                total: 0.5,
                replayed: 0.5,
                spent: 0.5,
                entries: 1,
                postprocess_stages: 1,
                consistent: true,
                noise: crate::NoiseStatus::Consistent,
            },
        );
        let doc = telemetry_json("unit/test");
        crate::set_enabled(false);
        crate::reset();
        assert!(doc.contains("\"run\": \"unit/test\""));
        assert!(doc.contains("\"path\": \"export_test\""));
        assert!(doc.contains("\"consistent\": true"));
        assert!(doc.contains("\"noise\": \"consistent\""));
        assert!(doc.contains("\"events\": { \"recorded\": "));
        assert!(doc.contains("\"capacity\": "));
        assert!(doc.contains("\"postprocess\": 1"));
        assert!(doc.contains("\"stage\": \"consistency\""));
        assert!(doc.contains("\"spends_during\": 0"));
        // Balanced braces/brackets — cheap structural sanity without a
        // JSON parser in the dependency-free crate.
        let opens = doc.matches('{').count();
        let closes = doc.matches('}').count();
        assert_eq!(opens, closes);
        assert_eq!(doc.matches('[').count(), doc.matches(']').count());
    }

    #[test]
    fn phase_span_resource_fields_ride_the_telemetry_doc() {
        let _lock = crate::test_lock();
        crate::reset();
        crate::resources::set_proc_root_override(None);
        if !crate::resources::available() {
            return; // degraded host: the fields are (correctly) absent
        }
        crate::set_enabled(true);
        {
            let _p = crate::phase_span!("resourced_phase");
            std::thread::sleep(std::time::Duration::from_millis(2));
        }
        let doc = telemetry_json("resource test");
        crate::set_enabled(false);
        crate::reset();
        assert!(doc.contains("\"path\": \"resourced_phase\""), "{doc}");
        assert!(doc.contains("\"cpu_secs\": "), "{doc}");
        assert!(doc.contains("\"cpu_efficiency\": "), "{doc}");
        assert!(doc.contains("\"peak_rss_bytes\": "), "{doc}");
    }
}
