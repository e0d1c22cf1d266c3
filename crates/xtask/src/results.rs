//! Loader for the result envelopes written by `stpt_bench::emit_result`.
//!
//! Every `results/<name>.json` is expected to be a schema-2 envelope:
//!
//! ```json
//! { "name": "fig6", "schema": 2, "created_unix": 1723…,
//!   "env": { "reps": 3, "queries": 300, "grid": 32, "hours": 220, "t_train": 100 },
//!   "data": …, "telemetry": { … } | null }
//! ```
//!
//! Legacy pre-envelope files (a bare array/object) are rejected with a
//! pointed message — the regression gate must never silently compare
//! against a document whose provenance it cannot see. The inline
//! `telemetry` block is the run's only telemetry document: `null` means the
//! run was untraced, whatever else lies in `results/`.

use std::path::Path;

use serde::Value;

/// Experiment scale knobs, as recorded in the envelope.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EnvScale {
    /// Repetitions averaged per configuration (`STPT_REPS`).
    pub reps: u64,
    /// Queries per workload class (`STPT_QUERIES`).
    pub queries: u64,
    /// Grid side (`STPT_GRID`).
    pub grid: u64,
    /// Series length (`STPT_HOURS`).
    pub hours: u64,
    /// Training prefix (`STPT_TRAIN`).
    pub t_train: u64,
    /// Consistency post-processing stage enabled (`STPT_POSTPROCESS`).
    /// Release-stage provenance: a baseline recorded with one setting must
    /// never be compared against a run at the other.
    pub pp: bool,
}

impl EnvScale {
    /// Compact `reps=3 queries=300 …` rendering for reports.
    pub fn render(&self) -> String {
        format!(
            "reps={} queries={} grid={} hours={} t_train={} pp={}",
            self.reps, self.queries, self.grid, self.hours, self.t_train, self.pp
        )
    }

    /// Parse from the envelope's `env` object. `pp` is optional (envelopes
    /// written before the post-processing stage existed lack it) and
    /// defaults to false — those runs were all raw-stage.
    pub fn from_value(v: &Value) -> Result<EnvScale, String> {
        let get = |k: &str| -> Result<u64, String> {
            crate::jsonsel::select(v, k)
                .and_then(crate::jsonsel::scalar_of)
                .map(|f| f as u64)
        };
        let pp = match crate::jsonsel::select(v, "pp") {
            Ok(Value::Bool(b)) => *b,
            _ => false,
        };
        Ok(EnvScale {
            reps: get("reps")?,
            queries: get("queries")?,
            grid: get("grid")?,
            hours: get("hours")?,
            t_train: get("t_train")?,
            pp,
        })
    }

    /// Serialise back into a JSON object.
    pub fn to_value(self) -> Value {
        Value::Object(vec![
            ("reps".to_owned(), Value::Number(self.reps as f64)),
            ("queries".to_owned(), Value::Number(self.queries as f64)),
            ("grid".to_owned(), Value::Number(self.grid as f64)),
            ("hours".to_owned(), Value::Number(self.hours as f64)),
            ("t_train".to_owned(), Value::Number(self.t_train as f64)),
            ("pp".to_owned(), Value::Bool(self.pp)),
        ])
    }
}

/// One loaded result envelope.
#[derive(Debug, Clone)]
pub struct RunDoc {
    /// Run label (`fig6`, `table2`, …).
    pub name: String,
    /// Experiment scale the run was produced at.
    pub env: EnvScale,
    /// The experiment payload.
    pub data: Value,
    /// The envelope's telemetry block; `None` when it is `null`.
    pub telemetry: Option<Value>,
}

impl RunDoc {
    /// Look up a counter value in the telemetry snapshot.
    pub fn counter(&self, name: &str) -> Option<u64> {
        let t = self.telemetry.as_ref()?;
        let counters = crate::jsonsel::select(t, "counters").ok()?.as_array()?;
        counters
            .iter()
            .find_map(|c| {
                let fields = c.as_object()?;
                let n = fields.iter().find(|(k, _)| k == "name")?.1.as_str()?;
                if n != name {
                    return None;
                }
                fields.iter().find(|(k, _)| k == "value")?.1.as_f64()
            })
            .map(|v| v as u64)
    }

    /// Total wall-clock milliseconds recorded under a span path.
    pub fn span_total_ms(&self, path: &str) -> Option<f64> {
        let t = self.telemetry.as_ref()?;
        let spans = crate::jsonsel::select(t, "spans").ok()?.as_array()?;
        spans.iter().find_map(|s| {
            let fields = s.as_object()?;
            let p = fields.iter().find(|(k, _)| k == "path")?.1.as_str()?;
            if p != path {
                return None;
            }
            fields.iter().find(|(k, _)| k == "total_ms")?.1.as_f64()
        })
    }

    /// Look up a gauge value in the telemetry snapshot.
    pub fn gauge(&self, name: &str) -> Option<f64> {
        let t = self.telemetry.as_ref()?;
        let gauges = crate::jsonsel::select(t, "gauges").ok()?.as_array()?;
        gauges.iter().find_map(|g| {
            let fields = g.as_object()?;
            let n = fields.iter().find(|(k, _)| k == "name")?.1.as_str()?;
            if n != name {
                return None;
            }
            fields.iter().find(|(k, _)| k == "value")?.1.as_f64()
        })
    }

    /// A numeric resource-attribution field on a span entry
    /// (`cpu_secs`, `cpu_efficiency`, `peak_rss_bytes`). `None` when the
    /// run's resource layer was degraded — the fields are simply absent.
    pub fn span_resource_field(&self, path: &str, field_name: &str) -> Option<f64> {
        let t = self.telemetry.as_ref()?;
        let spans = crate::jsonsel::select(t, "spans").ok()?.as_array()?;
        spans.iter().find_map(|s| {
            let fields = s.as_object()?;
            let p = fields.iter().find(|(k, _)| k == "path")?.1.as_str()?;
            if p != path {
                return None;
            }
            fields.iter().find(|(k, _)| k == field_name)?.1.as_f64()
        })
    }

    /// `cpu_efficiency = cpu_secs / wall_secs / pool_threads` of a phase
    /// span, when the run captured resources.
    pub fn span_cpu_efficiency(&self, path: &str) -> Option<f64> {
        self.span_resource_field(path, "cpu_efficiency")
    }

    /// The ledger's `consistent` verdict, if a ledger was exported.
    pub fn ledger_consistent(&self) -> Option<bool> {
        let t = self.telemetry.as_ref()?;
        match crate::jsonsel::select(t, "ledger/check/consistent").ok()? {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The noise self-check verdict label (`"consistent"`, `"unchecked"`,
    /// `"inconsistent"`), if a ledger was exported with one.
    pub fn noise_status(&self) -> Option<String> {
        let t = self.telemetry.as_ref()?;
        match crate::jsonsel::select(t, "ledger/check/noise").ok()? {
            Value::String(s) => Some(s.clone()),
            _ => None,
        }
    }

    /// Number of span events dropped by the fixed-capacity event ring.
    pub fn events_dropped(&self) -> Option<u64> {
        let t = self.telemetry.as_ref()?;
        crate::jsonsel::select(t, "events/dropped")
            .ok()
            .and_then(Value::as_f64)
            .map(|v| v as u64)
    }

    /// The event ring's capacity, as recorded in the telemetry document.
    pub fn events_capacity(&self) -> Option<u64> {
        let t = self.telemetry.as_ref()?;
        crate::jsonsel::select(t, "events/capacity")
            .ok()
            .and_then(Value::as_f64)
            .map(|v| v as u64)
    }
}

/// Load and validate the envelope for `name` from `results_dir`.
pub fn load_run(results_dir: &Path, name: &str) -> Result<RunDoc, String> {
    let path = results_dir.join(format!("{name}.json"));
    let text = std::fs::read_to_string(&path)
        .map_err(|e| format!("could not read {}: {e}", path.display()))?;
    let value: Value = serde_json::from_str(&text)
        .map_err(|e| format!("could not parse {}: {e}", path.display()))?;

    let Some(fields) = value.as_object() else {
        return Err(format!(
            "{}: legacy pre-envelope result (top level is not an object) — \
             regenerate with `./run_experiments.sh`",
            path.display()
        ));
    };
    let field = |k: &str| fields.iter().find(|(n, _)| n == k).map(|(_, v)| v);
    let schema = field("schema").and_then(Value::as_f64).unwrap_or(0.0) as u64;
    if schema < 2 {
        return Err(format!(
            "{}: envelope schema {schema} predates the regression gate — \
             regenerate with `./run_experiments.sh`",
            path.display()
        ));
    }
    let env = field("env")
        .ok_or_else(|| format!("{}: envelope has no `env`", path.display()))
        .and_then(|v| EnvScale::from_value(v).map_err(|e| format!("{}: {e}", path.display())))?;
    let data = field("data")
        .cloned()
        .ok_or_else(|| format!("{}: envelope has no `data`", path.display()))?;

    let telemetry = field("telemetry")
        .filter(|t| !matches!(t, Value::Null))
        .cloned();

    Ok(RunDoc {
        name: name.to_owned(),
        env,
        data,
        telemetry,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn write(dir: &Path, name: &str, body: &str) {
        std::fs::create_dir_all(dir).unwrap();
        std::fs::write(dir.join(name), body).unwrap();
    }

    #[test]
    fn loads_schema2_envelopes_and_rejects_legacy() {
        let dir = std::env::temp_dir().join("xtask_results_loader_test");
        let _ = std::fs::remove_dir_all(&dir);
        write(
            &dir,
            "good.json",
            r#"{ "name": "good", "schema": 2, "created_unix": 1,
                 "env": { "reps": 3, "queries": 300, "grid": 32, "hours": 220, "t_train": 100 },
                 "data": [1.0, 2.0],
                 "telemetry": { "counters": [ { "name": "c", "value": 7 } ],
                                "gauges": [ { "name": "process.peak_rss_bytes", "value": 1048576.0 } ],
                                "spans": [ { "path": "stpt", "count": 1, "total_ms": 10.0,
                                             "cpu_secs": 0.009, "cpu_efficiency": 0.9,
                                             "peak_rss_bytes": 1048576 } ],
                                "ledger": { "check": { "consistent": true } } } }"#,
        );
        write(&dir, "legacy.json", r#"[ { "dataset": "CER" } ]"#);

        let run = load_run(&dir, "good");
        let run = match run {
            Ok(r) => r,
            Err(e) => {
                panic!("good envelope should load: {e}")
            }
        };
        assert_eq!(run.env.reps, 3);
        assert_eq!(run.counter("c"), Some(7));
        assert_eq!(run.counter("missing"), None);
        assert_eq!(run.span_total_ms("stpt"), Some(10.0));
        assert_eq!(run.gauge("process.peak_rss_bytes"), Some(1048576.0));
        assert_eq!(run.gauge("missing.gauge"), None);
        assert_eq!(run.span_cpu_efficiency("stpt"), Some(0.9));
        assert_eq!(
            run.span_resource_field("stpt", "peak_rss_bytes"),
            Some(1048576.0)
        );
        assert_eq!(run.span_cpu_efficiency("no.such.span"), None);
        assert_eq!(run.ledger_consistent(), Some(true));

        let err = load_run(&dir, "legacy").err().unwrap_or_default();
        assert!(err.contains("legacy"), "{err}");
        let err = load_run(&dir, "absent").err().unwrap_or_default();
        assert!(err.contains("could not read"), "{err}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn untraced_envelope_ignores_a_stale_telemetry_file() {
        let dir = std::env::temp_dir().join("xtask_results_stale_telemetry_test");
        let _ = std::fs::remove_dir_all(&dir);
        write(
            &dir,
            "untraced.json",
            r#"{ "name": "untraced", "schema": 2, "created_unix": 1,
                 "env": { "reps": 1, "queries": 60, "grid": 8, "hours": 48, "t_train": 28 },
                 "data": [], "telemetry": null }"#,
        );
        write(
            &dir.join("telemetry"),
            "untraced.json",
            r#"{ "counters": [ { "name": "c", "value": 7 } ],
                 "ledger": { "check": { "consistent": true } } }"#,
        );
        let run = load_run(&dir, "untraced").expect("envelope loads");
        let _ = std::fs::remove_dir_all(&dir);
        assert!(run.telemetry.is_none(), "{:?}", run.telemetry);
        assert_eq!(run.ledger_consistent(), None);
    }
}
