//! `stpt-serve`: the long-lived DP query-serving daemon.
//!
//! Sanitizes each configured dataset × ε release **once** at startup,
//! then answers spatio-temporal range queries over HTTP until a client
//! posts `/shutdown`. All configuration comes from CLI flags — the
//! daemon reads no configuration from the environment (the seam's
//! `STPT_THREADS` only sizes the start-up training, never a release), so
//! its DP behaviour is fully determined by its argv (hermeticity rule
//! XT10).
//!
//! ```text
//! stpt-serve --addr 127.0.0.1:7878 --dataset CER --grid 16 --hours 64 \
//!            --eps 30 --eps 7.5 --seed 42 --acceptors 4
//! ```
//!
//! Endpoints: `GET /healthz`, `GET /metrics` (Prometheus), `GET
//! /releases` (summaries + ε-freeness proofs), `GET /query?...`, `POST
//! /query` (JSON batch), `POST /shutdown`.

use std::process::ExitCode;
use std::sync::Arc;
use std::time::Duration;
use stpt_serve::{serve, ReleaseCache, ReleaseSpec, ServerState};

/// Parsed command line.
struct Args {
    addr: String,
    dataset: String,
    grid: usize,
    hours: usize,
    /// Total budgets ε_tot, one release per value (split 1/3 pattern,
    /// 2/3 sanitize as in the paper's ε_pattern:ε_sanitize = 10:20).
    eps: Vec<f64>,
    seed: u64,
    acceptors: usize,
    smoke: bool,
    postprocess: bool,
}

impl Default for Args {
    fn default() -> Self {
        Args {
            addr: "127.0.0.1:7878".to_string(),
            dataset: "CER".to_string(),
            grid: 16,
            hours: 64,
            eps: Vec::new(),
            seed: 42,
            acceptors: 4,
            smoke: false,
            postprocess: true,
        }
    }
}

const USAGE: &str = "usage: stpt-serve [--addr HOST:PORT] [--dataset CER|CA|MI|TX] \
[--grid N] [--hours N] [--eps TOTAL]... [--seed N] [--acceptors N] [--smoke] [--no-postprocess]";

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args::default();
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = |name: &str| -> Result<&String, String> {
            it.next().ok_or_else(|| format!("{name} needs a value"))
        };
        match flag.as_str() {
            "--addr" => args.addr = value("--addr")?.clone(),
            "--dataset" => args.dataset = value("--dataset")?.clone(),
            "--grid" => {
                args.grid = value("--grid")?
                    .parse()
                    .map_err(|e| format!("--grid: {e}"))?;
            }
            "--hours" => {
                args.hours = value("--hours")?
                    .parse()
                    .map_err(|e| format!("--hours: {e}"))?;
            }
            "--eps" => {
                args.eps
                    .push(value("--eps")?.parse().map_err(|e| format!("--eps: {e}"))?);
            }
            "--seed" => {
                args.seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?;
            }
            "--acceptors" => {
                args.acceptors = value("--acceptors")?
                    .parse()
                    .map_err(|e| format!("--acceptors: {e}"))?;
            }
            "--smoke" => args.smoke = true,
            "--no-postprocess" => args.postprocess = false,
            "--help" | "-h" => return Err(USAGE.to_string()),
            other => return Err(format!("unknown flag '{other}'\n{USAGE}")),
        }
    }
    if args.eps.is_empty() {
        args.eps.push(30.0);
    }
    Ok(args)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::FAILURE;
        }
    };

    // Live telemetry: record the metrics the /metrics endpoint renders,
    // with the /proc resource gauges refreshed every second.
    stpt_obs::set_live_enabled(true);
    stpt_obs::timeseries::start_collector(Duration::from_secs(1));

    let mut cache = ReleaseCache::new();
    for &eps_total in &args.eps {
        let spec = ReleaseSpec {
            dataset: args.dataset.clone(),
            grid: args.grid,
            hours: args.hours,
            eps_pattern: eps_total / 3.0,
            eps_sanitize: eps_total * 2.0 / 3.0,
            seed: args.seed,
            postprocess: args.postprocess,
            smoke: args.smoke,
        };
        let id = spec.id();
        println!("sanitizing release {id} (eps_total={eps_total}) ...");
        match cache.insert(&spec) {
            Ok(release) => {
                let (cx, cy, ct) = release.shape;
                println!(
                    "  ready: shape {cx}x{cy}x{ct}, spent eps={:.3}, audit consistent={}",
                    release.epsilon_spent_sanitize, release.audit.consistent
                );
            }
            Err(e) => {
                eprintln!("failed to build release {id}: {e}");
                return ExitCode::FAILURE;
            }
        }
    }

    let state = Arc::new(ServerState::new(cache));
    let handle = match serve(Arc::clone(&state), &args.addr, args.acceptors) {
        Ok(h) => h,
        Err(e) => {
            eprintln!("failed to start server: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!(
        "stpt-serve listening on {} ({} acceptors); POST /shutdown to stop",
        handle.addr, args.acceptors
    );
    match handle.join() {
        Ok(()) => {
            println!("stpt-serve: clean shutdown");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("stpt-serve: {e}");
            ExitCode::FAILURE
        }
    }
}
