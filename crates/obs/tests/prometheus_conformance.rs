//! Conformance tests for the Prometheus text exposition: the full
//! `/metrics` render is parsed line-by-line and checked against the 0.0.4
//! format contract — HELP before TYPE for every family, cumulative
//! histogram buckets monotone in both bound and count, `le="+Inf"` equal
//! to `_count` — including the resource families the `/proc` sampler
//! contributes and the `_ms`/`_us` → `_seconds_total` unit rewrite.
#![allow(clippy::float_cmp)] // exposition values are parsed, not computed

use std::sync::{Mutex, MutexGuard};

/// The obs tables and gates are process-global; tests in this binary run
/// on multiple harness threads and must take turns.
fn lock() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// Guard restoring gates and the registry even if a test panics.
struct Restore;
impl Drop for Restore {
    fn drop(&mut self) {
        stpt_obs::set_enabled(false);
        stpt_obs::reset();
    }
}

static CONF_HIST: stpt_obs::Histogram = stpt_obs::Histogram::new("conftest.latency");
static CONF_BUSY_US: stpt_obs::Counter = stpt_obs::Counter::new("conftest.busy_us");
static CONF_PLAIN: stpt_obs::Counter = stpt_obs::Counter::new("conftest.items");

/// One parsed exposition document.
struct Exposition {
    /// Families announced by a `# HELP` line, in order.
    help: Vec<String>,
    /// Families announced by a `# TYPE` line, with their kind.
    types: Vec<(String, String)>,
    /// Sample lines: (metric name incl. suffix, labels-or-empty, value).
    samples: Vec<(String, String, f64)>,
}

fn parse(text: &str) -> Exposition {
    let mut doc = Exposition {
        help: Vec::new(),
        types: Vec::new(),
        samples: Vec::new(),
    };
    for line in text.lines() {
        if let Some(rest) = line.strip_prefix("# HELP ") {
            let family = rest.split_whitespace().next().unwrap_or("");
            assert!(!family.is_empty(), "HELP without a family: {line}");
            doc.help.push(family.to_owned());
        } else if let Some(rest) = line.strip_prefix("# TYPE ") {
            let mut it = rest.split_whitespace();
            let family = it.next().unwrap_or("").to_owned();
            let kind = it.next().unwrap_or("").to_owned();
            assert!(
                matches!(kind.as_str(), "counter" | "gauge" | "histogram"),
                "unknown TYPE kind: {line}"
            );
            doc.types.push((family, kind));
        } else if line.starts_with('#') {
            panic!("unrecognised comment line: {line}");
        } else {
            let (name_labels, value) = line.rsplit_once(' ').unwrap_or_else(|| {
                panic!("sample line without a value: {line}");
            });
            let v = match value {
                "+Inf" => f64::INFINITY,
                "NaN" => f64::NAN,
                other => other
                    .parse::<f64>()
                    .unwrap_or_else(|e| panic!("bad value `{other}` in {line}: {e}")),
            };
            let (name, labels) = match name_labels.split_once('{') {
                Some((n, l)) => (n.to_owned(), format!("{{{l}")),
                None => (name_labels.to_owned(), String::new()),
            };
            doc.samples.push((name, labels, v));
        }
    }
    doc
}

/// The base family a sample line belongs to, given the declared histogram
/// families (whose samples carry `_bucket`/`_sum`/`_count` suffixes).
fn family_of<'a>(name: &'a str, histograms: &[&str]) -> &'a str {
    for suffix in ["_bucket", "_sum", "_count"] {
        if let Some(stem) = name.strip_suffix(suffix) {
            if histograms.contains(&stem) {
                return stem;
            }
        }
    }
    name
}

#[test]
fn full_exposition_is_conformant_including_resource_families() {
    let _lock = lock();
    let _restore = Restore;
    stpt_obs::reset();
    stpt_obs::set_enabled(true);

    // Drive every family kind: a multi-bucket histogram, a plain counter,
    // a duration counter in µs, and — when /proc is readable — the
    // resource sampler's gauges and CPU counters.
    CONF_PLAIN.add(3);
    CONF_BUSY_US.add(1_500_000);
    for v in [0.3, 0.7, 1.5, 6.0, 100.0] {
        CONF_HIST.observe(v);
    }
    // Burn a little CPU so the sampler's cumulative-ms ledger has
    // something to emit on its first tick.
    let t0 = std::time::Instant::now();
    let mut acc = 0u64;
    while t0.elapsed() < std::time::Duration::from_millis(30) {
        acc = acc.wrapping_add(acc ^ 0x9e37_79b9_7f4a_7c15).rotate_left(7);
    }
    std::hint::black_box(acc);
    let resourced = stpt_obs::resources::available();
    stpt_obs::resources::sample();
    stpt_obs::set_enabled(false);

    let text = stpt_obs::prometheus::render();
    let doc = parse(&text);

    // HELP precedes TYPE for every declared family, 1:1.
    assert_eq!(
        doc.help,
        doc.types.iter().map(|(f, _)| f.clone()).collect::<Vec<_>>()
    );

    // Every sample line belongs to a declared family of the right shape.
    let histograms: Vec<&str> = doc
        .types
        .iter()
        .filter(|(_, k)| k == "histogram")
        .map(|(f, _)| f.as_str())
        .collect();
    let declared: Vec<&str> = doc.types.iter().map(|(f, _)| f.as_str()).collect();
    for (name, _, _) in &doc.samples {
        let family = family_of(name, &histograms);
        assert!(
            declared.contains(&family),
            "undeclared family for sample `{name}`"
        );
    }

    // Histogram contract: bucket bounds strictly increasing, cumulative
    // counts non-decreasing, the `+Inf` bucket equal to `_count`.
    for hist in &histograms {
        let bucket_name = format!("{hist}_bucket");
        let buckets: Vec<(&str, f64)> = doc
            .samples
            .iter()
            .filter(|(n, _, _)| n == &bucket_name)
            .map(|(_, l, v)| (l.as_str(), *v))
            .collect();
        assert!(!buckets.is_empty(), "{hist} exposes no buckets");
        let bound = |labels: &str| -> f64 {
            let le = labels
                .strip_prefix("{le=\"")
                .and_then(|r| r.strip_suffix("\"}"))
                .unwrap_or_else(|| panic!("{hist}: bad bucket labels {labels}"));
            match le {
                "+Inf" => f64::INFINITY,
                v => v
                    .parse()
                    .unwrap_or_else(|e| panic!("{hist}: bad le {v}: {e}")),
            }
        };
        for pair in buckets.windows(2) {
            assert!(
                bound(pair[0].0) < bound(pair[1].0),
                "{hist}: bucket bounds not increasing"
            );
            assert!(pair[0].1 <= pair[1].1, "{hist}: cumulative counts decrease");
        }
        let (last_labels, last_count) = buckets.last().unwrap();
        assert_eq!(bound(last_labels), f64::INFINITY, "{hist}: no +Inf bucket");
        let count = doc
            .samples
            .iter()
            .find(|(n, _, _)| n == &format!("{hist}_count"))
            .map(|(_, _, v)| *v)
            .unwrap_or_else(|| panic!("{hist}: no _count sample"));
        assert_eq!(*last_count, count, "{hist}: +Inf bucket != _count");
    }

    // Duration counters are rewritten to base seconds.
    let sample = |name: &str| {
        doc.samples
            .iter()
            .find(|(n, _, _)| n == name)
            .map(|(_, _, v)| *v)
    };
    assert_eq!(sample("stpt_conftest_busy_seconds_total"), Some(1.5));
    assert!(sample("stpt_conftest_busy_us_total").is_none());
    assert_eq!(sample("stpt_conftest_items_total"), Some(3.0));

    // Resource families ride the same exposition when /proc is readable.
    if resourced {
        let rss = sample("stpt_process_rss_bytes").expect("no process RSS gauge");
        assert!(rss > 0.0, "RSS gauge not positive: {rss}");
        let peak = sample("stpt_process_peak_rss_bytes").expect("no peak-RSS gauge");
        assert!(peak >= rss, "peak {peak} below current {rss}");
        assert!(
            doc.types
                .iter()
                .any(|(f, k)| f == "stpt_process_cpu_seconds_total" && k == "counter"),
            "no process CPU seconds counter family"
        );
    }

    // Meta-signals are always present.
    assert!(sample("stpt_obs_events_dropped_total").is_some());
    assert!(sample("stpt_obs_ledger_published_runs").is_some());
}
