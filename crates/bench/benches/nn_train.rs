//! Training-throughput benchmark for the sequence forecasters.
//!
//! Measures training windows/second (`samples_used x epochs / elapsed`)
//! for `NetConfig::fast` on every `ModelKind`, plus the paper's network
//! (`NetConfig::paper_default(AttentionGru)`, two epochs), once on one
//! thread and once at `available_parallelism`. Each minibatch's gradient is
//! sharded over the rayon seam, so the ratio of the two columns is the
//! data-parallel speedup; the benchmark also checks that both runs train
//! bit-identical losses. Writes `BENCH_nn_train.json` at the repo root,
//! with the core count it was measured on.
//!
//! Run with `cargo bench --bench nn_train`. `cargo bench --no-run` (CI)
//! only compiles it.

use std::time::Instant;
use stpt_nn::seq::{make_windows, ModelKind, NetConfig, SequenceRegressor, GRAD_SHARDS};

/// Training windows (a sine series of `WINDOWS + 6` points, window 6).
const WINDOWS: usize = 1024;

/// Timed runs per configuration and thread count; the best one is kept
/// (the least scheduler noise).
const RUNS: usize = 3;

/// The benchmarked networks: `NetConfig::fast` per kind, then the paper's.
fn configs() -> Vec<(&'static str, NetConfig)> {
    let mut paper = NetConfig::paper_default(ModelKind::AttentionGru);
    paper.epochs = 2;
    vec![
        ("Rnn", NetConfig::fast(ModelKind::Rnn)),
        ("Gru", NetConfig::fast(ModelKind::Gru)),
        ("Lstm", NetConfig::fast(ModelKind::Lstm)),
        ("Transformer", NetConfig::fast(ModelKind::Transformer)),
        ("AttentionGru", NetConfig::fast(ModelKind::AttentionGru)),
        ("AttentionGru (paper network)", paper),
    ]
}

/// One timed training run on `threads` threads; returns windows/sec and
/// the epoch losses' bit patterns.
fn measure(
    cfg: &NetConfig,
    threads: usize,
    windows: &[Vec<f64>],
    targets: &[f64],
) -> (f64, Vec<u64>) {
    rayon::set_num_threads(threads);
    let mut model = SequenceRegressor::new(cfg.clone());
    let start = Instant::now();
    let stats = model.train(windows, targets);
    let elapsed = start.elapsed().as_secs_f64();
    let rate = (stats.samples_used * cfg.epochs) as f64 / elapsed;
    (
        rate,
        stats.epoch_losses.iter().map(|l| l.to_bits()).collect(),
    )
}

fn main() {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let series: Vec<f64> = (0..WINDOWS + 6)
        .map(|i| (i as f64 * 0.3).sin() * 0.5 + 0.5)
        .collect();
    let (windows, targets) = make_windows(&[series], 6);

    // Warm-up pass so the first measured kind is not penalised by cold
    // caches.
    let _ = measure(&NetConfig::fast(ModelKind::Rnn), nproc, &windows, &targets);

    let mut rows = Vec::new();
    println!("nproc = {nproc}");
    println!("| network | 1 thread w/s | {nproc} threads w/s | speedup |");
    println!("|---------|-------------:|-------------:|--------:|");
    for (name, cfg) in configs() {
        let (mut one, mut all) = (f64::NEG_INFINITY, f64::NEG_INFINITY);
        // Interleave the two thread counts so drift in machine load hits
        // both columns alike.
        for _ in 0..RUNS {
            let (rate_one, losses_one) = measure(&cfg, 1, &windows, &targets);
            let (rate_all, losses_all) = measure(&cfg, nproc, &windows, &targets);
            assert_eq!(
                losses_one, losses_all,
                "{name}: training losses depend on the thread count"
            );
            one = one.max(rate_one);
            all = all.max(rate_all);
        }
        let speedup = all / one;
        println!("| {name} | {one:.0} | {all:.0} | {speedup:.2}x |");
        rows.push(format!(
            "  {{ \"network\": \"{name}\", \"windows_per_sec_1_thread\": {one:.1}, \
             \"windows_per_sec_nproc_threads\": {all:.1}, \"speedup\": {speedup:.3} }}"
        ));
    }
    rayon::set_num_threads(0);

    let json = format!(
        "{{\n  \"benchmark\": \"nn_train\",\n  \"config\": \"NetConfig::fast per kind, and \
         NetConfig::paper_default(AttentionGru) at 2 epochs; {} windows, window=6; best of {RUNS}\",\n  \
         \"unit\": \"training windows per second\",\n  \"nproc\": {nproc},\n  \
         \"grad_shards\": {GRAD_SHARDS},\n  \"results\": [\n{}\n  ]\n}}\n",
        windows.len(),
        rows.join(",\n")
    );
    // Written at the repo root (bench runs from the workspace root or the
    // crate dir; walk up until Cargo.lock is found).
    let mut dir = std::env::current_dir().unwrap_or_else(|_| ".".into());
    while !dir.join("Cargo.lock").exists() {
        if !dir.pop() {
            break;
        }
    }
    let path = dir.join("BENCH_nn_train.json");
    match std::fs::write(&path, json) {
        Ok(()) => println!("wrote {}", path.display()),
        Err(e) => eprintln!("warning: could not write {}: {e}", path.display()),
    }
}
