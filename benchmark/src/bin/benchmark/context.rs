//! The facts a result depends on besides the code: machine, thread
//! count, commit, and the process's observability switches.

use serde::Value;

/// Environment variables that switch on observability inside the
/// program. Children of end-to-end runs never see them, and this
/// process pins the matching gates off, so ambient settings cannot change
/// what is measured.
pub fn is_obs_switch(name: &str) -> bool {
    name.starts_with("STPT_TRACE") || name.starts_with("STPT_METRICS_") || name == "STPT_RESOURCES"
}

/// Pin every observability gate to its default (tracing and span events
/// off, `/proc` resource sampling on) regardless of the environment.
/// Tracing is switched on only by the traced run, around the calls it
/// measures.
pub fn pin_obs_gates() {
    stpt_obs::set_enabled(false);
    stpt_obs::set_events_enabled(false);
    stpt_obs::resources::set_resources_enabled(true);
}

/// Logical CPUs this process may run on.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Peak resident set size of this process (`VmHWM`), MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .unwrap_or_default()
        .lines()
        .find_map(|l| l.strip_prefix("model name"))
        .map(|rest| rest.trim_start_matches([' ', '\t', ':']).to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

/// Commit of the checkout the benchmark runs in, read from `.git` in the
/// working directory; "unknown" outside a git checkout.
fn commit() -> String {
    let head = std::fs::read_to_string(".git/HEAD").unwrap_or_default();
    let head = head.trim();
    match head.strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(format!(".git/{r}"))
            .ok()
            .or_else(|| {
                let packed = std::fs::read_to_string(".git/packed-refs").ok()?;
                packed
                    .lines()
                    .find(|l| l.ends_with(r))
                    .map(|l| l.split(' ').next().unwrap_or_default().to_string())
            })
            .map_or_else(|| "unknown".to_string(), |s| s.trim().to_string()),
        None if !head.is_empty() => head.to_string(),
        None => "unknown".to_string(),
    }
}

/// `STPT_*` variables present in the environment, recorded with every
/// result.
fn stpt_env() -> Vec<(String, Value)> {
    let mut vars: Vec<(String, Value)> = std::env::vars_os()
        .filter_map(|(k, v)| {
            let k = k.into_string().ok()?;
            k.starts_with("STPT_")
                .then(|| (k, Value::String(v.to_string_lossy().into_owned())))
        })
        .collect();
    vars.sort_by(|a, b| a.0.cmp(&b.0));
    vars
}

/// The run context printed before every result.
pub fn describe(fields: Vec<(&str, Value)>) -> Vec<(String, Value)> {
    let mut ctx: Vec<(String, Value)> = fields
        .into_iter()
        .map(|(k, v)| (k.to_string(), v))
        .collect();
    ctx.extend([
        ("nproc".to_string(), Value::Number(nproc() as f64)),
        (
            "threads".to_string(),
            Value::Number(rayon::current_num_threads() as f64),
        ),
        ("stpt_env".to_string(), Value::Object(stpt_env())),
        ("cpu_model".to_string(), Value::String(cpu_model())),
        ("commit".to_string(), Value::String(commit())),
    ]);
    ctx
}
