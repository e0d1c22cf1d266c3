//! What one run measured and checked, and how it is printed.

use serde::Value;
use std::collections::BTreeMap;

/// Requests (or publications) of one class: sent, and how many failed
/// with a wrong status, an I/O error or a timeout.
#[derive(Debug, Default, Clone, Copy)]
pub struct Counts {
    pub attempted: u64,
    pub failed: u64,
}

/// Metrics, request counts and correctness checks of one run.
#[derive(Debug, Default)]
pub struct Report {
    metrics: Vec<(String, f64, &'static str)>,
    classes: BTreeMap<&'static str, Counts>,
    checks: Vec<(String, bool, String)>,
    notes: Vec<(String, Value)>,
}

impl Report {
    /// Record a metric under its `BENCHMARK.json` name and unit.
    pub fn metric(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.push((name.into(), value, unit));
    }

    /// Add request counts for a class.
    pub fn count(&mut self, class: &'static str, counts: Counts) {
        let c = self.classes.entry(class).or_default();
        c.attempted += counts.attempted;
        c.failed += counts.failed;
    }

    /// Record one correctness check; any failed check fails the run.
    pub fn check(&mut self, name: impl Into<String>, ok: bool, detail: impl std::fmt::Display) {
        self.checks.push((name.into(), ok, detail.to_string()));
    }

    /// Record a context value that is not a metric (sample counts,
    /// per-phase numbers).
    pub fn note(&mut self, key: impl Into<String>, value: f64) {
        self.notes.push((key.into(), finite_or_null(value)));
    }

    /// Record a textual context value, such as the first error seen.
    pub fn note_text(&mut self, key: impl Into<String>, text: impl Into<String>) {
        self.notes.push((key.into(), Value::String(text.into())));
    }

    /// Every check passed and every metric is a finite number.
    pub fn correct(&self) -> bool {
        self.checks.iter().all(|(_, ok, _)| *ok)
            && self.metrics.iter().all(|(_, v, _)| v.is_finite())
    }

    fn totals(&self) -> Counts {
        self.classes
            .values()
            .fold(Counts::default(), |acc, c| Counts {
                attempted: acc.attempted + c.attempted,
                failed: acc.failed + c.failed,
            })
    }

    /// Print the run context (one JSON line) and then the result line,
    /// which must be the last line of stdout.
    pub fn print(&self, mut context: Vec<(String, Value)>) {
        let classes = self
            .classes
            .iter()
            .map(|(name, c)| {
                (
                    name.to_string(),
                    object([
                        ("attempted", Value::Number(c.attempted as f64)),
                        ("failed", Value::Number(c.failed as f64)),
                    ]),
                )
            })
            .collect();
        let checks = self
            .checks
            .iter()
            .map(|(name, ok, detail)| {
                object([
                    ("name", Value::String(name.clone())),
                    ("ok", Value::Bool(*ok)),
                    ("detail", Value::String(detail.clone())),
                ])
            })
            .collect();
        context.push(("classes".into(), Value::Object(classes)));
        context.push(("checks".into(), Value::Array(checks)));
        context.push(("notes".into(), Value::Object(self.notes.clone())));
        println!("{}", to_json(&Value::Object(context)));

        // A non-finite value cannot be written as JSON; it already makes
        // the run incorrect, so it is printed as null.
        let metrics = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                let value = finite_or_null(*value);
                (
                    name.clone(),
                    object([("value", value), ("unit", Value::String(unit.to_string()))]),
                )
            })
            .collect();
        let totals = self.totals();
        let result = object([
            ("correct", Value::Bool(self.correct())),
            // The result format counts at least one attempt; a run that
            // attempted nothing has already failed a check.
            ("attempted", Value::Number(totals.attempted.max(1) as f64)),
            ("failed", Value::Number(totals.failed as f64)),
            ("metrics", Value::Object(metrics)),
        ]);
        println!("{}", to_json(&result));
    }
}

/// A number, or null when it cannot be written as JSON.
pub fn finite_or_null(v: f64) -> Value {
    if v.is_finite() {
        Value::Number(v)
    } else {
        Value::Null
    }
}

/// A field of a JSON object.
pub fn field<'a>(v: &'a Value, name: &str) -> Option<&'a Value> {
    v.as_object()?
        .iter()
        .find(|(k, _)| k == name)
        .map(|(_, v)| v)
}

/// An object from literal keys.
pub fn object<const N: usize>(fields: [(&str, Value); N]) -> Value {
    Value::Object(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

/// Serialise a value that holds only finite numbers.
pub fn to_json(v: &Value) -> String {
    serde_json::to_string(v).expect("benchmark output holds only finite numbers")
}
