//! Training-throughput benchmark for the sequence forecasters.
//!
//! Measures training windows/second (`samples_used x epochs / elapsed`)
//! for `NetConfig::fast` on every `ModelKind`, plus the paper's network
//! (`NetConfig::paper_default(AttentionGru)`, two epochs), once on one
//! thread and once at `available_parallelism`. Each minibatch's gradient is
//! sharded over the rayon seam, so the ratio of the two columns is the
//! data-parallel speedup; the benchmark also checks that both runs train
//! bit-identical losses.
//!
//! It then times every op one paper-network training window runs, at the
//! paper's shapes (embedding 128, GRU 64, window 6), on one thread: each
//! product kernel as the training loop calls it, the gate activations, the
//! attention softmax and one RMSProp step. Each op's µs per call (best of
//! several batches) times its calls per window gives its µs per window;
//! their sum is printed next to the measured 1-thread window time, and the
//! gap is what the table leaves out (element-wise gradient ops, copies,
//! the shard fan-out).
//!
//! Writes `BENCH_nn_train.json` at the repo root, with the core count it
//! was measured on.
//!
//! Run with `cargo bench --bench nn_train`. `cargo bench --no-run` (CI)
//! only compiles it.

use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;
use std::time::Instant;
use stpt_nn::activation::sigmoid;
use stpt_nn::optim::{Optimizer, RmsProp};
use stpt_nn::seq::{make_windows, ModelKind, NetConfig, SequenceRegressor, GRAD_SHARDS};
use stpt_nn::{Matrix, Parameterized};

/// Training windows (a sine series of `WINDOWS + 6` points, window 6).
const WINDOWS: usize = 1024;

/// Timed runs per configuration and thread count; the best one is kept
/// (the least scheduler noise).
const RUNS: usize = 3;

/// Timed batches per op; the fastest one is kept.
const OP_BATCHES: usize = 15;

/// Shortest timed batch, in seconds: calls per batch double until a batch
/// takes this long, so timer overhead stays negligible.
const OP_BATCH_S: f64 = 2e-4;

/// The paper network's widths (Appendix C) and window length.
const EMBED: usize = 128;
const HIDDEN: usize = 64;
const T: usize = 6;

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

/// One row of the op table: an op at one shape, run `calls` times per
/// paper-network training window.
struct Op {
    op: &'static str,
    shape: String,
    role: &'static str,
    calls: f64,
    run: Box<dyn FnMut()>,
}

impl Op {
    /// µs per call: the fastest of [`OP_BATCHES`] timed batches.
    fn time_us(&mut self) -> f64 {
        let mut reps = 1usize;
        loop {
            let start = Instant::now();
            (0..reps).for_each(|_| (self.run)());
            if start.elapsed().as_secs_f64() >= OP_BATCH_S {
                break;
            }
            reps *= 2;
        }
        let mut best = f64::INFINITY;
        for _ in 0..OP_BATCHES {
            let start = Instant::now();
            (0..reps).for_each(|_| (self.run)());
            best = best.min(start.elapsed().as_secs_f64());
        }
        best / reps as f64 * 1e6
    }
}

/// A `Matrix` product kernel as the training loop calls it: an m×n result
/// summed over k, written into (or added onto) a reused output.
#[derive(Clone, Copy)]
enum Product {
    /// `a · b`, `a` m×k.
    MatMul,
    /// `a · bᵀ`, `b` n×k.
    MatMulT,
    /// `out += a · bᵀ`.
    AddMatMulT,
    /// `aᵀ · b`, `a` k×m.
    TMatMul,
    /// `out += aᵀ · b`, the weight-gradient accumulate.
    AddTMatMul,
}

impl Product {
    fn op(self, (m, k, n): (usize, usize, usize), calls: usize, role: &'static str) -> Op {
        use Product::*;
        let (a_t, b_t) = (
            matches!(self, TMatMul | AddTMatMul),
            matches!(self, MatMulT | AddMatMulT),
        );
        let (ar, ac) = if a_t { (k, m) } else { (m, k) };
        let (br, bc) = if b_t { (n, k) } else { (k, n) };
        let mut rng = StdRng::seed_from_u64(0x0b5);
        let (a, b) = (
            Matrix::xavier(ar, ac, &mut rng),
            Matrix::xavier(br, bc, &mut rng),
        );
        let mut out = Matrix::zeros(m, n);
        let (op, run): (_, Box<dyn FnMut()>) = match self {
            MatMul => (
                "matmul",
                Box::new(move || black_box(&a).matmul_into(&b, &mut out)),
            ),
            MatMulT => (
                "matmul_transpose",
                Box::new(move || black_box(&a).matmul_transpose_into(&b, &mut out)),
            ),
            AddMatMulT => (
                "add_matmul_transpose",
                Box::new(move || out.add_matmul_transpose(black_box(&a), &b)),
            ),
            TMatMul => (
                "transpose_matmul",
                Box::new(move || black_box(&a).transpose_matmul_into(&b, &mut out)),
            ),
            AddTMatMul => (
                "add_transpose_matmul",
                Box::new(move || out.add_transpose_matmul(black_box(&a), &b)),
            ),
        };
        let operand = |r, c, t| {
            if t {
                format!("({r}x{c})T")
            } else {
                format!("{r}x{c}")
            }
        };
        let shape = format!("{} . {}", operand(ar, ac, a_t), operand(br, bc, b_t));
        Op {
            op,
            shape,
            role,
            calls: calls as f64,
            run,
        }
    }
}

/// An element-wise activation (`Matrix::map_into`) into a reused output.
fn activation(
    op: &'static str,
    f: fn(f64) -> f64,
    (rows, cols): (usize, usize),
    calls: usize,
    role: &'static str,
) -> Op {
    let x = Matrix::xavier(rows, cols, &mut StdRng::seed_from_u64(0x0b5));
    let mut out = Matrix::zeros(rows, cols);
    Op {
        op,
        shape: format!("{rows}x{cols}"),
        role,
        calls: calls as f64,
        run: Box::new(move || black_box(&x).map_into(f, &mut out)),
    }
}

/// The op table: every op of one paper-network training window with its
/// calls per window, read off the layers' `forward_into` and
/// `backward_into` (the embedding, the self-attention, a GRU stepped `T`
/// times and the linear head), then one RMSProp step per minibatch.
fn paper_window_ops() -> Vec<Op> {
    use Product::*;
    let (e, h) = (EMBED, HIDDEN);
    let mut ops = vec![
        MatMul.op((T, 1, e), 1, "embedding"),
        MatMul.op((T, e, e), 3, "attention Q, K, V"),
        MatMulT.op((T, e, T), 2, "attention scores, dL/dattn"),
        MatMul.op((T, T, e), 2, "attention output, dL/dQ"),
        MatMul.op((1, e, h), 3 * T, "GRU x.W, 3 gates"),
        MatMul.op((1, h, h), 3 * T, "GRU h.U, 3 gates"),
        MatMul.op((1, h, 1), 1, "head"),
        AddTMatMul.op((h, 1, 1), 1, "head dW"),
        MatMulT.op((1, 1, h), 1, "head dx"),
        AddTMatMul.op((e, 1, h), 3 * T, "GRU dW, 3 gates"),
        AddTMatMul.op((h, 1, h), 3 * T, "GRU dU, 3 gates"),
        MatMulT.op((1, h, e), T, "GRU dx, candidate"),
        AddMatMulT.op((1, h, e), 2 * T, "GRU dx, z and r gates"),
        MatMulT.op((1, h, h), T, "GRU d(r*h)"),
        AddMatMulT.op((1, h, h), 2 * T, "GRU dh, z and r gates"),
        TMatMul.op((T, T, e), 2, "attention dV, dK"),
        AddTMatMul.op((e, T, e), 3, "attention dWq, dWk, dWv"),
        MatMulT.op((T, e, e), 1, "attention dx via Wq"),
        AddMatMulT.op((T, e, e), 2, "attention dx via Wk, Wv"),
        AddTMatMul.op((1, T, e), 1, "embedding dW"),
        MatMulT.op((T, e, 1), 1, "embedding dx"),
        activation("sigmoid", sigmoid, (1, h), 2 * T, "GRU z and r gates"),
        activation("tanh", f64::tanh, (1, h), T, "GRU candidate"),
        activation("tanh", f64::tanh, (T, e), 1, "embedding"),
    ];
    let mut scores = Matrix::xavier(T, T, &mut StdRng::seed_from_u64(0x0b5));
    ops.push(Op {
        op: "softmax_rows_in_place",
        shape: format!("{T}x{T}"),
        role: "attention",
        calls: 1.0,
        run: Box::new(move || black_box(&mut scores).softmax_rows_in_place()),
    });
    let cfg = NetConfig::paper_default(ModelKind::AttentionGru);
    let batch = cfg.batch_size as f64;
    let mut model = SequenceRegressor::new(cfg);
    for p in model.params_mut() {
        p.grad.data_mut().fill(1e-3);
    }
    let mut opt = RmsProp::paper_default();
    ops.push(Op {
        op: "RmsProp::step",
        shape: "all parameters".into(),
        role: "one step per minibatch",
        calls: 1.0 / batch,
        run: Box::new(move || opt.step(black_box(&mut model))),
    });
    ops
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
    let mut paper_window_us = f64::NAN;
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
        if cfg.embed_dim == EMBED && cfg.kind == ModelKind::AttentionGru {
            paper_window_us = 1e6 / one;
        }
        println!("| {name} | {one:.0} | {all:.0} | {speedup:.2}x |");
        rows.push(format!(
            "  {{ \"network\": \"{name}\", \"windows_per_sec_1_thread\": {one:.1}, \
             \"windows_per_sec_nproc_threads\": {all:.1}, \"speedup\": {speedup:.3} }}"
        ));
    }
    rayon::set_num_threads(0);

    println!();
    println!("| op | shape | role | us/call | calls/window | us/window |");
    println!("|----|-------|------|--------:|-------------:|----------:|");
    let mut op_rows = Vec::new();
    let mut ops_sum_us = 0.0;
    for mut op in paper_window_ops() {
        let us = op.time_us();
        let per_window = us * op.calls;
        ops_sum_us += per_window;
        let (name, shape, role, calls) = (op.op, op.shape, op.role, op.calls);
        println!("| {name} | {shape} | {role} | {us:.3} | {calls:.3} | {per_window:.2} |");
        op_rows.push(format!(
            "    {{ \"op\": \"{name}\", \"shape\": \"{shape}\", \"role\": \"{role}\", \
             \"us_per_call\": {us:.4}, \"calls_per_window\": {calls:.4}, \
             \"us_per_window\": {per_window:.3} }}"
        ));
    }
    println!(
        "sum of ops: {ops_sum_us:.1} us/window; measured paper-network window at 1 thread: \
         {paper_window_us:.1} us"
    );

    let json = format!(
        "{{\n  \"benchmark\": \"nn_train\",\n  \"config\": \"NetConfig::fast per kind, and \
         NetConfig::paper_default(AttentionGru) at 2 epochs; {} windows, window=6; best of {RUNS}\",\n  \
         \"unit\": \"training windows per second\",\n  \"nproc\": {nproc},\n  \
         \"grad_shards\": {GRAD_SHARDS},\n  \"results\": [\n{}\n  ],\n  \
         \"paper_window_ops\": {{\n    \"config\": \"NetConfig::paper_default(AttentionGru): \
         embedding {EMBED}, GRU {HIDDEN}, window {T}; one thread; us per call is the best of \
         {OP_BATCHES} batches\",\n    \"ops_sum_us_per_window\": {ops_sum_us:.1},\n    \
         \"measured_us_per_window_1_thread\": {paper_window_us:.1},\n    \"ops\": [\n{}\n    ]\n  }}\n}}\n",
        windows.len(),
        rows.join(",\n"),
        op_rows.join(",\n")
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
