//! The traced run: per-layer numbers. Every number is timed in this
//! file around a call into one crate's public API, so the program itself
//! is unchanged; tracing inside the program (`stpt_obs` spans) is on for
//! those calls and off for the untraced references they are compared
//! with. Each traced run measures every layer, whatever its workload;
//! the workload only selects what `obs.trace_overhead` compares.

use crate::context::nproc;
use crate::release;
use crate::report::{Counts, Report};
use crate::serve::{self, Mix};
use crate::stats::median;
use rand::rngs::StdRng;
use rand::SeedableRng;
use rayon::prelude::*;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;
use stpt_core::pattern::{recognize_patterns, PatternConfig};
use stpt_core::quantize::{k_quantize_with, PartitionScheme};
use stpt_core::sanitize::{sanitize_partitions, SanitizeConfig};
use stpt_core::{run_stpt, GroupedRelease, StptConfig};
use stpt_data::{ConsumptionMatrix, Dataset, Granularity, SpatialDistribution};
use stpt_dp::{BudgetAccountant, DpRng, Epsilon};
use stpt_nn::seq::{make_windows, ModelKind, NetConfig, SequenceRegressor};
use stpt_postprocess::{project_hierarchy, Hierarchy};
use stpt_queries::{
    default_rho, evaluate_workload_with, generate_queries, PrefixSum3D, QueryClass,
};
use stpt_serve::http::handle_bytes;
use stpt_serve::{CachedRelease, ReleaseCache, ServerState};

/// Display name and metric stem of each baseline, in roster order.
const BASELINES: [(&str, &str); 8] = [
    ("Identity", "identity"),
    ("Fourier-10", "fourier10"),
    ("Fourier-20", "fourier20"),
    ("Wavelet-10", "wavelet10"),
    ("Wavelet-20", "wavelet20"),
    ("FAST", "fast"),
    ("LGAN-DP", "lgan_dp"),
    ("WPO", "wpo"),
];

/// Longest half of the tracing-overhead comparison, seconds: the traced
/// run already spends about 35 s on the layers themselves.
const OVERHEAD_HALF_MAX_S: f64 = 5.0;

/// Proof count at which `serve.proof_us_20k` is read: `prove()` replays
/// every earlier proof, so its cost grows with the daemon's uptime.
const PROOFS: usize = 20_000;

fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// Median over `blocks` timings of `reps` calls of `f`, per call, in µs.
fn per_call_us(blocks: usize, reps: usize, mut f: impl FnMut()) -> f64 {
    let samples: Vec<f64> = (0..blocks)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..reps {
                f();
            }
            secs(t) * 1e6 / reps as f64
        })
        .collect();
    median(&samples)
}

/// Run the probe for `workload` and record every per-layer metric.
pub fn measure(mix: Option<Mix>, seed: u64, seconds: f64, quick: bool, report: &mut Report) {
    let mut probe = Counts::default();
    let release_overhead = pipeline_layers(seed, quick, report, &mut probe);
    let serve_overhead = serving_layers(mix, seed, seconds, quick, report, &mut probe);
    report.count("probe", probe);
    let overhead = match mix {
        None => release_overhead,
        Some(_) => serve_overhead,
    };
    report.metric("obs.trace_overhead", overhead, "ratio");
}

/// Data, queries, core, nn, dp, postprocess and baselines, at the
/// `release` workload's scale. Returns the tracing overhead of one STPT
/// release: traced call-by-call time over the untraced `run_stpt` time.
fn pipeline_layers(seed: u64, quick: bool, report: &mut Report, probe: &mut Counts) -> f64 {
    let env = release::env(quick);
    let spec = release::SPEC;
    stpt_obs::set_enabled(true);

    let mut rng = StdRng::seed_from_u64(seed);
    let t = Instant::now();
    let ds = Dataset::generate_at(
        spec,
        SpatialDistribution::Uniform,
        Granularity::Daily,
        env.hours,
        &mut rng,
    );
    report.metric("data.generate_s", secs(t), "s");
    let t = Instant::now();
    let clipped = ds.consumption_matrix(env.grid, env.grid, true);
    report.metric("data.matrix_s", secs(t), "s");
    let t = Instant::now();
    let truth = PrefixSum3D::new(&clipped);
    report.metric("queries.prefix_build_s", secs(t), "s");

    let queries = generate_queries(QueryClass::Random, 100_000, clipped.shape(), &mut rng);
    let passes: Vec<f64> = (0..5)
        .map(|_| {
            let t = Instant::now();
            let sum: f64 = queries
                .iter()
                .map(|q| truth.try_range_sum(black_box(q)).unwrap_or(0.0))
                .sum();
            black_box(sum);
            secs(t) * 1e9 / queries.len() as f64
        })
        .collect();
    report.metric("queries.range_sum_ns", median(&passes), "ns");

    // The reference: STPT as one untraced call.
    let cfg = release::config(&env, seed, quick);
    stpt_obs::set_enabled(false);
    let t = Instant::now();
    let reference = run_stpt(&clipped, &cfg);
    let reference_s = secs(t);
    stpt_obs::set_enabled(true);
    probe.attempted += 1;
    let out = match reference {
        Ok(out) => out,
        Err(e) => {
            probe.failed += 1;
            report.check("run_stpt", false, e);
            return f64::NAN;
        }
    };

    // The same release call by call, in run_stpt's order, with the
    // pipeline's seed and accountant.
    let t_all = Instant::now();
    let mut acc = BudgetAccountant::new(Epsilon::new(cfg.eps_total()));
    let mut rng = DpRng::seed_from_u64(cfg.seed);
    let c_norm = clipped.map(|v| v / cfg.clip);
    let pattern_cfg = PatternConfig {
        epsilon: cfg.eps_pattern,
        t_train: cfg.t_train,
        depth: cfg.depth,
        net: cfg.net.clone(),
    };
    probe.attempted += 1;
    let train_span_before = span(TRAIN_SPAN);
    let t = Instant::now();
    let decomposed =
        recognize_patterns(&c_norm, &pattern_cfg, &mut acc, &mut rng).and_then(|pattern| {
            let pattern_s = secs(t);
            let t = Instant::now();
            let partitions = k_quantize_with(&pattern.pattern, cfg.quantization, scheme(&cfg));
            let partition_s = secs(t);
            let sanitize_cfg = SanitizeConfig {
                epsilon: cfg.eps_sanitize,
                clip: cfg.clip,
                allocation: cfg.allocation,
            };
            let t = Instant::now();
            let (sanitized, _) =
                sanitize_partitions(&clipped, &partitions, &sanitize_cfg, &mut acc, &mut rng)?;
            let sanitize_s = secs(t);
            acc.audit(cfg.eps_total())?;
            Ok((
                pattern,
                pattern_s,
                partitions.len(),
                partition_s,
                sanitized,
                sanitize_s,
            ))
        });
    let decomposed_s = secs(t_all);
    let (pattern, pattern_s, n_partitions, partition_s, sanitized, sanitize_s) = match decomposed {
        Ok(d) => d,
        Err(e) => {
            probe.failed += 1;
            report.check("stpt_call_by_call", false, e);
            return f64::NAN;
        }
    };
    let matches = same_bits(&sanitized, &out.sanitized);
    report.check(
        "core.decomposition_matches",
        matches,
        "call-by-call release is bit-equal to run_stpt's",
    );
    report.metric("core.pattern_s", pattern_s, "s");
    report.metric("core.partition_s", partition_s, "s");
    report.metric("core.partitions", n_partitions as f64, "count");
    report.metric("core.sanitize_s", sanitize_s, "s");
    report.metric(
        "core.decomposition_matches",
        f64::from(u8::from(matches)),
        "bool",
    );

    // The network alone, on the windows pattern recognition trained on.
    let series: Vec<Vec<f64>> = pattern.sanitized_levels.iter().flatten().cloned().collect();
    let (windows, targets) = make_windows(&series, cfg.net.window);
    let mut model = SequenceRegressor::new(cfg.net.clone());
    let t = Instant::now();
    let stats = model.train(&windows, &targets);
    let train_s = secs(t);
    let losses_match = stats.epoch_losses.len() == out.pattern.train_stats.epoch_losses.len()
        && stats
            .epoch_losses
            .iter()
            .zip(&out.pattern.train_stats.epoch_losses)
            .all(|(a, b)| a.to_bits() == b.to_bits());
    report.check(
        "nn.losses_match",
        losses_match,
        "epoch losses bit-equal to run_stpt's",
    );
    report.metric("nn.train_s", train_s, "s");
    report.metric(
        "nn.windows_per_s",
        (stats.samples_used * cfg.net.epochs) as f64 / train_s,
        "1/s",
    );
    // Training inside the call-by-call release, from the program's own
    // span, so the difference comes from one execution.
    let (count, ns) = span(TRAIN_SPAN);
    report.check(
        "nn.train_span_recorded",
        count == train_span_before.0 + 1,
        format!("{TRAIN_SPAN} completions: {count}"),
    );
    let in_pattern_train_s = (ns - train_span_before.1) as f64 / 1e9;
    report.metric("core.pattern_nonnn_s", pattern_s - in_pattern_train_s, "s");
    let fast = NetConfig {
        seed: cfg.net.seed,
        window: cfg.net.window,
        ..NetConfig::fast(ModelKind::Gru)
    };
    let t = Instant::now();
    black_box(SequenceRegressor::new(fast).train(&windows, &targets));
    report.metric("nn.train_fast_s", secs(t), "s");

    report.metric("dp.ledger_entries", out.ledger.len() as f64, "count");
    let replays: Vec<f64> = (0..5)
        .map(|_| {
            probe.attempted += 1;
            let t = Instant::now();
            let replayed = BudgetAccountant::replay(Epsilon::new(cfg.eps_total()), &out.ledger);
            let s = secs(t);
            if replayed.is_err() {
                probe.failed += 1;
            }
            s
        })
        .collect();
    report.metric("dp.replay_s", median(&replays), "s");

    let grouped = GroupedRelease::from_partitions(&out.partitions, &out.releases);
    let hierarchy = Hierarchy::flat(grouped.sums.len());
    let mut sums = grouped.sums.clone();
    report.metric(
        "postprocess.project_us",
        per_call_us(20, 10, || {
            sums.copy_from_slice(&grouped.sums);
            black_box(project_hierarchy(&hierarchy, &mut sums));
        }),
        "us",
    );

    let mre_queries = generate_queries(QueryClass::Random, env.queries, clipped.shape(), &mut rng);
    let rho = default_rho(&clipped);
    report.metric(
        "core.stpt_mre",
        evaluate_workload_with(&truth, rho, &out.sanitized, &mre_queries).mre,
        "%",
    );

    for (i, (mech, (display, stem))) in release::roster(&env).iter().zip(BASELINES).enumerate() {
        let mut rng = DpRng::seed_from_u64(seed ^ (i as u64 + 1));
        let t = Instant::now();
        black_box(mech.raw_release(&clipped, ds.clip_bound(), cfg.eps_total(), &mut rng));
        report.metric(format!("baselines.{stem}_s"), secs(t), "s");
        report.check(
            format!("baselines.{stem}_is_{display}"),
            mech.name() == display,
            mech.name(),
        );
    }
    stpt_obs::set_enabled(false);
    decomposed_s / reference_s
}

/// Path of the network-training span inside `recognize_patterns`.
const TRAIN_SPAN: &str = "train/nn.train";

/// Completions and total nanoseconds of one span path so far.
fn span(path: &str) -> (u64, u128) {
    stpt_obs::trace::snapshot()
        .into_iter()
        .find(|(p, _)| p == path)
        .map_or((0, 0), |(_, s)| (s.count, s.total_ns))
}

/// `run_stpt`'s choice of partition scheme for a configuration.
fn scheme(cfg: &StptConfig) -> PartitionScheme {
    match (cfg.partition_block, cfg.partition_t_block) {
        (Some(block), Some(t_block)) => PartitionScheme::Local {
            block,
            t_boundary: cfg.t_train,
            t_block,
        },
        (Some(block), None) => PartitionScheme::Adaptive {
            block,
            t_boundary: cfg.t_train,
        },
        (None, _) => PartitionScheme::Global,
    }
}

fn same_bits(a: &ConsumptionMatrix, b: &ConsumptionMatrix) -> bool {
    a.shape() == b.shape()
        && a.data()
            .iter()
            .zip(b.data())
            .all(|(x, y)| x.to_bits() == y.to_bits())
}

/// Serve, seam and obs layers over the serving workloads' release.
/// Returns the tracing overhead of `mix`: traced p50 over untraced p50,
/// each measured over half of `seconds`, at least one second and at most
/// [`OVERHEAD_HALF_MAX_S`] (NaN when `mix` is `None`).
fn serving_layers(
    mix: Option<Mix>,
    seed: u64,
    seconds: f64,
    quick: bool,
    report: &mut Report,
    probe: &mut Counts,
) -> f64 {
    serve::enable_live_telemetry();
    stpt_obs::set_enabled(true);
    probe.attempted += 1;
    let t = Instant::now();
    let release = match serve::spec(seed, quick).build() {
        Ok(r) => Arc::new(r),
        Err(e) => {
            probe.failed += 1;
            report.check("serve.release_build", false, e);
            return f64::NAN;
        }
    };
    report.metric("serve.release_build_s", secs(t), "s");
    let t = Instant::now();
    let first_proof = release.prove();
    report.metric("serve.proof_us_1", secs(t) * 1e6, "us");
    report.check(
        "serve.first_proof",
        first_proof.is_ok(),
        "first proof verifies",
    );

    let mut rng = StdRng::seed_from_u64(seed ^ 0x5e7e);
    let point = generate_queries(QueryClass::Random, 1, release.shape, &mut rng);
    let batch = generate_queries(QueryClass::Random, 1024, release.shape, &mut rng);
    let batch64 = generate_queries(QueryClass::Random, 64, release.shape, &mut rng);
    engine_and_seam(&release, &point, &batch, report);

    let mut cache = ReleaseCache::new();
    cache.insert_prebuilt(Arc::clone(&release));
    let state = ServerState::new(cache);
    let get = serve::point_request(&point[0]);
    let post = serve::batch_request(&batch);
    let post64 = serve::batch_request(&batch64);
    let all_ok = [&get, &post, &post64]
        .iter()
        .all(|raw| handle_bytes(&state, raw).is_some_and(|r| r.is_ok()));
    report.check(
        "serve.handle_ok",
        all_ok,
        "in-process requests answered 200",
    );
    let handle_point = per_call_us(20, 500, || {
        black_box(handle_bytes(&state, &get));
    });
    let handle_batch = per_call_us(20, 5, || {
        black_box(handle_bytes(&state, &post));
    });
    report.metric("serve.handle_point_us", handle_point, "us");
    report.metric("serve.handle_batch_us", handle_batch, "us");
    report.metric(
        "serve.handle_batch64_us",
        per_call_us(20, 50, || {
            black_box(handle_bytes(&state, &post64));
        }),
        "us",
    );

    let mut cache = ReleaseCache::new();
    cache.insert_prebuilt(Arc::clone(&release));
    probe.attempted += 1;
    let handle = match serve::start_daemon(cache) {
        Ok(h) => h,
        Err(e) => {
            probe.failed += 1;
            report.check("serve.daemon", false, e);
            return f64::NAN;
        }
    };
    let before = counters();
    let rtt_us = |raw: &[u8], n: usize, probe: &mut Counts| {
        let samples: Vec<f64> = (0..n)
            .filter_map(|_| {
                probe.attempted += 1;
                let t = Instant::now();
                match serve::round_trip(handle.addr, raw) {
                    Ok((200, _)) => Some(secs(t) * 1e6),
                    _ => {
                        probe.failed += 1;
                        None
                    }
                }
            })
            .collect();
        median(&samples)
    };
    let wire_point = rtt_us(&get, 2000, probe) - handle_point;
    let wire_batch = rtt_us(&post, 200, probe) - handle_batch;
    let after = counters();
    report.metric("serve.wire_point_us", wire_point, "us");
    report.metric("serve.wire_batch_us", wire_batch, "us");
    report.metric(
        "serve.connections_per_request",
        (after.0 - before.0) as f64 / (after.1 - before.1) as f64,
        "ratio",
    );
    report.metric(
        "obs.render_us",
        per_call_us(20, 10, || {
            black_box(stpt_obs::prometheus::render());
        }),
        "us",
    );

    let overhead = match mix {
        Some(mix) => {
            let half = (seconds / 2.0).clamp(1.0, OVERHEAD_HALF_MAX_S);
            let warmup = if quick { 0.2 } else { 1.0 };
            stpt_obs::set_enabled(false);
            let untraced = serve::drive(mix, handle.addr, &release, seed, warmup, half);
            stpt_obs::set_enabled(true);
            let traced = serve::drive(mix, handle.addr, &release, seed, 0.0, half);
            untraced.record(report, "untraced.");
            traced.record(report, "traced.");
            traced.summary.p50_ms / untraced.summary.p50_ms
        }
        None => f64::NAN,
    };
    serve::stop(handle);

    let mut last = Vec::new();
    loop {
        let t = Instant::now();
        let proof = release.prove();
        let us = secs(t) * 1e6;
        match proof {
            Ok(p) if p.stages < PROOFS => {}
            Ok(_) => {
                last.push(us);
                if last.len() > 100 {
                    break;
                }
            }
            Err(e) => {
                report.check("serve.proofs", false, e);
                break;
            }
        }
    }
    report.metric("serve.proof_us_20k", median(&last), "us");
    serve::verify_zero_spend(&release, report);
    stpt_obs::set_enabled(false);
    overhead
}

/// Range-query engine and the rayon seam under it.
fn engine_and_seam(
    release: &CachedRelease,
    point: &[stpt_queries::RangeQuery],
    batch: &[stpt_queries::RangeQuery],
    report: &mut Report,
) {
    let engine = |qs: &[stpt_queries::RangeQuery], reps: usize| {
        per_call_us(20, reps, || {
            black_box(stpt_serve::answer_batch(&release.prefix, qs));
        })
    };
    report.metric("serve.engine_point_us", engine(point, 1000), "us");
    let batch_nt = engine(batch, 10);
    rayon::set_num_threads(1);
    let batch_1t = engine(batch, 10);
    rayon::set_num_threads(nproc());
    let items: Vec<usize> = (0..64).collect();
    let region = per_call_us(20, 100, || {
        black_box(items.par_iter().map(|&i| i).collect::<Vec<usize>>());
    });
    rayon::set_num_threads(0);
    report.metric("serve.engine_batch_us", batch_nt, "us");
    report.metric("serve.engine_batch_1t_us", batch_1t, "us");
    report.metric("seam.batch_speedup", batch_1t / batch_nt, "ratio");
    report.metric("seam.region_us", region, "us");
}

/// Daemon counters `(serve.connections_total, serve.requests_total)`.
fn counters() -> (u64, u64) {
    let snap = stpt_obs::metrics::snapshot();
    let get = |name: &str| {
        snap.counters
            .iter()
            .find(|&&(n, _)| n == name)
            .map_or(0, |&(_, v)| v)
    };
    (get("serve.connections_total"), get("serve.requests_total"))
}
