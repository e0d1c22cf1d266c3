//! Sliding-window sequence forecasters.
//!
//! The pattern-recognition step of STPT sweeps a window of `ws` points over
//! each (sanitised) time series and trains a network to predict the next
//! point (Section 4.2). This module provides that network in the variants
//! the paper evaluates (Figure 8i): vanilla RNN, GRU, LSTM, a transformer
//! encoder, and the Appendix-C default of self-attention followed by a GRU.
//!
//! All variants share the same scaffold: a scalar-to-embedding projection,
//! a [`SeqBody`] (the unified body trait), and a linear regression head
//! reading the final state. Training routes every variant through one
//! generic loop over `&mut dyn SeqBody`, with all intermediates held in a
//! recycled [`Workspace`] so the per-window path never allocates.
//!
//! Each minibatch is split into [`GRAD_SHARDS`] contiguous shards whose
//! gradients are computed in parallel on model replicas, then summed into
//! the master parameters in shard order before one optimizer step. The
//! shard count is a constant, so the float sums, and with them the trained
//! weights, are bit-identical at any thread count.

use crate::dense::{Activation, Dense};
use crate::gru::GruCell;
use crate::loss::mse_into;
use crate::lstm::LstmCell;
use crate::optim::{Optimizer, RmsProp};
use crate::param::{Param, Parameterized};
use crate::rnn_cell::RnnCell;
use crate::transformer::TransformerBlock;
use crate::workspace::{AttentionGruBody, SeqBody, Workspace};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use rayon::prelude::*;
use serde::{Deserialize, Serialize};

/// Which sequence body to use.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ModelKind {
    /// Vanilla Elman RNN.
    Rnn,
    /// Gated recurrent unit.
    Gru,
    /// Long short-term memory.
    Lstm,
    /// Transformer encoder block with positional encodings.
    Transformer,
    /// Self-attention followed by a GRU — the paper's default (Appendix C).
    AttentionGru,
}

/// Hyper-parameters of a sequence forecaster.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct NetConfig {
    /// Body architecture.
    pub kind: ModelKind,
    /// Scalar-to-token embedding width.
    pub embed_dim: usize,
    /// Recurrent state width (ignored by `Transformer`, which reads the
    /// last token directly).
    pub hidden_dim: usize,
    /// Window length `ws` (the paper uses 6).
    pub window: usize,
    /// Training epochs.
    pub epochs: usize,
    /// Minibatch size.
    pub batch_size: usize,
    /// RMSProp learning rate.
    pub lr: f64,
    /// Element-wise gradient clip.
    pub grad_clip: f64,
    /// Cap on the number of training windows; extra windows are subsampled
    /// deterministically. `0` disables the cap.
    pub max_samples: usize,
    /// Seed for weight init, shuffling and subsampling.
    pub seed: u64,
}

impl NetConfig {
    /// The paper's configuration (Appendix C): embedding 128, hidden 64,
    /// window 6, 20 epochs, batch 32, RMSProp 1e-3.
    pub fn paper_default(kind: ModelKind) -> Self {
        NetConfig {
            kind,
            embed_dim: 128,
            hidden_dim: 64,
            window: 6,
            epochs: 20,
            batch_size: 32,
            lr: 1e-3,
            grad_clip: 5.0,
            max_samples: 4096,
            seed: 0x5eed,
        }
    }

    /// A smaller configuration for parameter sweeps: same architecture,
    /// reduced widths/epochs so the full Figure-6 grid runs in minutes.
    pub fn fast(kind: ModelKind) -> Self {
        NetConfig {
            kind,
            embed_dim: 32,
            hidden_dim: 32,
            window: 6,
            epochs: 10,
            batch_size: 32,
            lr: 2e-3,
            grad_clip: 5.0,
            max_samples: 2048,
            seed: 0x5eed,
        }
    }
}

/// Per-epoch training statistics.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TrainStats {
    /// Mean training loss per epoch.
    pub epoch_losses: Vec<f64>,
    /// Number of windows actually trained on (after subsampling).
    pub samples_used: usize,
}

/// The five body architectures, each a [`SeqBody`] implementor.
#[derive(Debug, Clone, Serialize, Deserialize)]
enum Body {
    Rnn(RnnCell),
    Gru(GruCell),
    Lstm(LstmCell),
    Transformer(TransformerBlock),
    AttentionGru(AttentionGruBody),
}

/// View the active body as the unified trait (shared).
fn seq_body(body: &Body) -> &dyn SeqBody {
    match body {
        Body::Rnn(c) => c,
        Body::Gru(c) => c,
        Body::Lstm(c) => c,
        Body::Transformer(b) => b,
        Body::AttentionGru(b) => b,
    }
}

/// View the active body as the unified trait (exclusive).
fn seq_body_mut(body: &mut Body) -> &mut dyn SeqBody {
    match body {
        Body::Rnn(c) => c,
        Body::Gru(c) => c,
        Body::Lstm(c) => c,
        Body::Transformer(b) => b,
        Body::AttentionGru(b) => b,
    }
}

/// A next-value forecaster over fixed-length windows.
///
/// Serializable with serde: a trained forecaster can be persisted and
/// reloaded (weights, gradients and configuration round-trip).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SequenceRegressor {
    config: NetConfig,
    embed: Dense,
    body: Body,
    head: Dense,
}

impl SequenceRegressor {
    /// Build a forecaster from its configuration.
    pub fn new(config: NetConfig) -> Self {
        assert!(config.window >= 2, "window must cover at least two points");
        let mut rng = StdRng::seed_from_u64(config.seed);
        let embed = Dense::new(1, config.embed_dim, Activation::Tanh, &mut rng);
        let body = match config.kind {
            ModelKind::Rnn => {
                Body::Rnn(RnnCell::new(config.embed_dim, config.hidden_dim, &mut rng))
            }
            ModelKind::Gru => {
                Body::Gru(GruCell::new(config.embed_dim, config.hidden_dim, &mut rng))
            }
            ModelKind::Lstm => {
                Body::Lstm(LstmCell::new(config.embed_dim, config.hidden_dim, &mut rng))
            }
            ModelKind::Transformer => {
                Body::Transformer(TransformerBlock::new(config.embed_dim, &mut rng))
            }
            ModelKind::AttentionGru => Body::AttentionGru(AttentionGruBody::new(
                config.embed_dim,
                config.hidden_dim,
                &mut rng,
            )),
        };
        let head_in = seq_body(&body).state_dim();
        let head = Dense::new(head_in, 1, Activation::Identity, &mut rng);
        SequenceRegressor {
            config,
            embed,
            body,
            head,
        }
    }

    /// The forecaster's configuration.
    pub fn config(&self) -> &NetConfig {
        &self.config
    }

    /// Predict the next value for a single window of length `config.window`.
    ///
    /// Allocates a fresh [`Workspace`] per call; batch callers should
    /// prefer [`Self::predict_with`] with a reused workspace.
    pub fn predict(&self, window: &[f64]) -> f64 {
        let mut ws = Workspace::new();
        self.predict_with(&mut ws, window)
    }

    /// Predict the next value for a single window, reusing `ws` buffers.
    pub fn predict_with(&self, ws: &mut Workspace, window: &[f64]) -> f64 {
        assert_eq!(window.len(), self.config.window, "window length mismatch");
        self.forward_with(ws, window);
        ws.head.out()[(0, 0)]
    }

    /// Predict the next value for each window.
    pub fn predict_batch(&self, windows: &[Vec<f64>]) -> Vec<f64> {
        let mut ws = Workspace::new();
        windows
            .iter()
            .map(|w| self.predict_with(&mut ws, w))
            .collect()
    }

    /// Roll the model forward `steps` times starting from `seed_window`,
    /// feeding each prediction back in (autoregressive generation).
    pub fn generate(&self, seed_window: &[f64], steps: usize) -> Vec<f64> {
        assert_eq!(seed_window.len(), self.config.window);
        let mut ws = Workspace::new();
        let mut window = seed_window.to_vec();
        let mut out = Vec::with_capacity(steps);
        for _ in 0..steps {
            let next = self.predict_with(&mut ws, &window);
            out.push(next);
            window.rotate_left(1);
            if let Some(last) = window.last_mut() {
                *last = next;
            }
        }
        out
    }

    /// Train on `(window, next_value)` pairs with RMSProp, returning the
    /// loss trajectory.
    ///
    /// Every minibatch fans out over [`GRAD_SHARDS`] gradient shards on the
    /// rayon seam; the shard gradients are then summed in shard order, so
    /// the result does not depend on the thread count.
    pub fn train(&mut self, windows: &[Vec<f64>], targets: &[f64]) -> TrainStats {
        assert_eq!(windows.len(), targets.len(), "windows/targets mismatch");
        assert!(!windows.is_empty(), "cannot train on an empty dataset");
        let mut rng = StdRng::seed_from_u64(self.config.seed ^ TRAIN_SEED_SALT);
        let mut indices: Vec<usize> = (0..windows.len()).collect();
        if self.config.max_samples > 0 && indices.len() > self.config.max_samples {
            indices.shuffle(&mut rng);
            indices.truncate(self.config.max_samples);
        }
        let _train_span = stpt_obs::span!("nn.train");
        let mut opt = RmsProp::new(self.config.lr, 0.99);
        let mut epoch_losses = Vec::with_capacity(self.config.epochs);
        let mut shards: Vec<Shard> = (0..GRAD_SHARDS)
            .map(|index| Shard {
                index,
                model: self.clone(),
                ws: Workspace::new(),
                loss: 0.0,
            })
            .collect();
        let started = std::time::Instant::now();
        // Workspace buffers grow to their steady-state sizes during the
        // first minibatch; after that the per-window path is
        // allocation-free (the per-minibatch fan-out is not).
        // hot-path:begin
        for _epoch in 0..self.config.epochs {
            indices.shuffle(&mut rng);
            let mut epoch_loss = 0.0;
            let mut batches = 0.0;
            for chunk in indices.chunks(self.config.batch_size) {
                shards
                    .par_iter_mut()
                    .for_each(|shard| shard.accumulate(chunk, windows, targets));
                let batch_loss = self.reduce_shards(&mut shards);
                self.clip_grads(self.config.grad_clip);
                if stpt_obs::enabled() {
                    TRAIN_GRAD_NORM.observe(self.grad_l2_norm());
                }
                opt.step(self);
                self.sync_weights(&mut shards);
                epoch_loss += batch_loss / chunk.len() as f64;
                batches += 1.0;
            }
            let mean_loss = epoch_loss / batches;
            TRAIN_EPOCHS.add(1);
            TRAIN_EPOCH_LOSS.observe(mean_loss);
            epoch_losses.push(mean_loss);
        }
        // hot-path:end
        let elapsed = started.elapsed().as_secs_f64();
        if elapsed > 0.0 {
            TRAIN_WINDOWS_PER_SEC.set((indices.len() * self.config.epochs) as f64 / elapsed);
        }
        TrainStats {
            epoch_losses,
            samples_used: indices.len(),
        }
    }

    /// Forward one window through embed → body → head into `ws`; the
    /// prediction lands in `ws.head.out()`.
    // hot-path:begin
    fn forward_with(&self, ws: &mut Workspace, window: &[f64]) {
        ws.x.resize(window.len(), 1);
        ws.x.data_mut().copy_from_slice(window);
        self.embed.forward_into(&ws.x, &mut ws.embed);
        ws.tokens.copy_from(ws.embed.out());
        seq_body(&self.body).forward_into(ws);
        self.head.forward_into(&ws.final_state, &mut ws.head);
    }

    /// Forward + backward for one sample, accumulating gradients scaled for
    /// a batch of `batch_len`; returns the sample loss.
    fn accumulate_sample(
        &mut self,
        ws: &mut Workspace,
        window: &[f64],
        target: f64,
        batch_len: usize,
    ) -> f64 {
        let scale = 1.0 / batch_len as f64;
        self.forward_with(ws, window);

        ws.target.resize(1, 1);
        ws.target.data_mut()[0] = target;
        let loss = mse_into(ws.head.out(), &ws.target, &mut ws.dpred);
        ws.dpred.map_in_place(|v| v * scale);

        self.head
            .backward_into(&mut ws.head, &ws.dpred, &mut ws.dfinal);
        seq_body_mut(&mut self.body).backward_into(ws);
        self.embed
            .backward_into(&mut ws.embed, &ws.dtokens, &mut ws.dembed_x);
        loss
    }

    /// Set the master gradients to the sum of the shard gradients, added in
    /// shard order; returns the minibatch's summed loss, in the same order.
    fn reduce_shards(&mut self, shards: &mut [Shard]) -> f64 {
        let mut master = self.params_mut();
        for p in master.iter_mut() {
            p.zero_grad();
        }
        let mut loss = 0.0;
        for shard in shards.iter_mut() {
            for (dst, src) in master.iter_mut().zip(shard.model.params_mut()) {
                dst.grad.add_assign(&src.grad);
            }
            loss += shard.loss;
        }
        loss
    }

    /// Copy the master weights into every shard replica after a step.
    fn sync_weights(&mut self, shards: &mut [Shard]) {
        let master = self.params_mut();
        for shard in shards.iter_mut() {
            for (dst, src) in shard.model.params_mut().into_iter().zip(&master) {
                dst.value.copy_from(&src.value);
            }
        }
    }
}

/// Gradient shards per minibatch. A constant, not a knob and not the
/// thread count: the shard boundaries fix the order of every gradient and
/// loss sum, so training is bit-identical at any `STPT_THREADS`.
pub const GRAD_SHARDS: usize = 4;

/// One gradient shard's state, built once per `train` call: a model
/// replica whose `Param::grad`s collect the shard's gradient, its own
/// scratch arena, and the summed loss of its windows.
struct Shard {
    index: usize,
    model: SequenceRegressor,
    ws: Workspace,
    loss: f64,
}

impl Shard {
    /// Forward + backward over this shard's contiguous slice of `chunk`,
    /// starting from zeroed gradients. A shard of a minibatch shorter than
    /// [`GRAD_SHARDS`] may be empty.
    fn accumulate(&mut self, chunk: &[usize], windows: &[Vec<f64>], targets: &[f64]) {
        let lo = chunk.len() * self.index / GRAD_SHARDS;
        let hi = chunk.len() * (self.index + 1) / GRAD_SHARDS;
        self.model.zero_grad();
        self.loss = 0.0;
        for &i in &chunk[lo..hi] {
            self.loss +=
                self.model
                    .accumulate_sample(&mut self.ws, &windows[i], targets[i], chunk.len());
        }
    }
}
// hot-path:end

impl Parameterized for SequenceRegressor {
    fn params_mut(&mut self) -> Vec<&mut Param> {
        let mut out = self.embed.params_mut();
        out.extend(seq_body_mut(&mut self.body).params_mut());
        out.extend(self.head.params_mut());
        out
    }
}

/// Build `(window, target)` training pairs by sweeping a window of length
/// `ws` over each series independently (series are stacked, not
/// concatenated — Section 4.2).
pub fn make_windows(series: &[Vec<f64>], ws: usize) -> (Vec<Vec<f64>>, Vec<f64>) {
    let mut windows = Vec::new();
    let mut targets = Vec::new();
    for s in series {
        if s.len() <= ws {
            continue;
        }
        for start in 0..s.len() - ws {
            windows.push(s[start..start + ws].to_vec());
            targets.push(s[start + ws]);
        }
    }
    (windows, targets)
}

/// Salt mixed into the training-shuffle seed so it differs from the
/// weight-initialisation stream.
const TRAIN_SEED_SALT: u64 = 0x7e57_5eed_0042_1337;

// Training telemetry. Recording is lock- and allocation-free (and a single
// relaxed atomic load when `STPT_TRACE` is off), so these calls are legal
// inside the zero-alloc hot paths below.
static TRAIN_EPOCHS: stpt_obs::Counter = stpt_obs::Counter::new("nn.train.epochs");
static TRAIN_WINDOWS_PER_SEC: stpt_obs::Gauge = stpt_obs::Gauge::new("nn.train.windows_per_sec");
static TRAIN_EPOCH_LOSS: stpt_obs::Histogram = stpt_obs::Histogram::new("nn.train.epoch_loss");
static TRAIN_GRAD_NORM: stpt_obs::Histogram = stpt_obs::Histogram::new("nn.train.grad_norm");

#[cfg(test)]
// Exact float assertions in these tests are deliberate (bitwise-reproducible
// quantities); float_cmp stays deny in library code.
#[allow(clippy::float_cmp)]
mod tests {
    use super::*;

    fn sine_series(n: usize) -> Vec<f64> {
        (0..n).map(|i| (i as f64 * 0.3).sin() * 0.5 + 0.5).collect()
    }

    fn tiny_config(kind: ModelKind) -> NetConfig {
        NetConfig {
            kind,
            embed_dim: 8,
            hidden_dim: 8,
            window: 6,
            epochs: 30,
            batch_size: 16,
            lr: 5e-3,
            grad_clip: 5.0,
            max_samples: 0,
            seed: 1,
        }
    }

    #[test]
    fn make_windows_counts_and_alignment() {
        let series = vec![vec![0.0, 1.0, 2.0, 3.0, 4.0], vec![10.0, 11.0, 12.0]];
        let (w, t) = make_windows(&series, 2);
        assert_eq!(w.len(), 3 + 1);
        assert_eq!(w[0], vec![0.0, 1.0]);
        assert_eq!(t[0], 2.0);
        assert_eq!(w[3], vec![10.0, 11.0]);
        assert_eq!(t[3], 12.0);
    }

    #[test]
    fn make_windows_skips_short_series() {
        let series = vec![vec![1.0, 2.0]];
        let (w, t) = make_windows(&series, 4);
        assert!(w.is_empty() && t.is_empty());
    }

    #[test]
    fn training_reduces_loss_for_every_model_kind() {
        let series = vec![sine_series(80)];
        let (windows, targets) = make_windows(&series, 6);
        for kind in [
            ModelKind::Rnn,
            ModelKind::Gru,
            ModelKind::Lstm,
            ModelKind::Transformer,
            ModelKind::AttentionGru,
        ] {
            let mut model = SequenceRegressor::new(tiny_config(kind));
            let stats = model.train(&windows, &targets);
            let first = stats.epoch_losses[0];
            let last = *stats.epoch_losses.last().unwrap();
            assert!(
                last < first,
                "{kind:?}: loss did not decrease ({first} -> {last})"
            );
        }
    }

    #[test]
    fn gru_learns_sine_to_reasonable_accuracy() {
        let series = vec![sine_series(120)];
        let (windows, targets) = make_windows(&series, 6);
        let mut cfg = tiny_config(ModelKind::Gru);
        cfg.epochs = 150;
        let mut model = SequenceRegressor::new(cfg);
        model.train(&windows, &targets);
        let preds = model.predict_batch(&windows);
        let mae: f64 = preds
            .iter()
            .zip(&targets)
            .map(|(p, t)| (p - t).abs())
            .sum::<f64>()
            / preds.len() as f64;
        assert!(mae < 0.08, "MAE {mae} too high");
    }

    #[test]
    fn generate_rolls_forward() {
        let mut model = SequenceRegressor::new(tiny_config(ModelKind::Gru));
        let series = vec![sine_series(60)];
        let (windows, targets) = make_windows(&series, 6);
        model.train(&windows, &targets);
        let out = model.generate(&windows[0], 10);
        assert_eq!(out.len(), 10);
        assert!(out.iter().all(|v| v.is_finite()));
    }

    #[test]
    fn trained_model_roundtrips_through_serde() {
        let series = vec![sine_series(50)];
        let (windows, targets) = make_windows(&series, 6);
        let mut model = SequenceRegressor::new(tiny_config(ModelKind::AttentionGru));
        model.train(&windows, &targets);
        let json = serde_json::to_string(&model).unwrap();
        let back: SequenceRegressor = serde_json::from_str(&json).unwrap();
        for w in windows.iter().take(5) {
            // JSON float formatting can lose the last ulp.
            let (a, b) = (model.predict(w), back.predict(w));
            assert!((a - b).abs() < 1e-12 * a.abs().max(1.0), "{a} vs {b}");
        }
    }

    #[test]
    fn training_is_deterministic_given_seed() {
        let series = vec![sine_series(50)];
        let (windows, targets) = make_windows(&series, 6);
        let run = || {
            let mut m = SequenceRegressor::new(tiny_config(ModelKind::Rnn));
            m.train(&windows, &targets);
            m.predict(&windows[0])
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn predict_with_shared_workspace_matches_fresh_workspace() {
        let series = vec![sine_series(60)];
        let (windows, targets) = make_windows(&series, 6);
        for kind in [
            ModelKind::Rnn,
            ModelKind::Gru,
            ModelKind::Lstm,
            ModelKind::Transformer,
            ModelKind::AttentionGru,
        ] {
            let mut cfg = tiny_config(kind);
            cfg.epochs = 2;
            let mut model = SequenceRegressor::new(cfg);
            model.train(&windows, &targets);
            let mut ws = Workspace::new();
            for w in windows.iter().take(8) {
                assert_eq!(
                    model.predict_with(&mut ws, w),
                    model.predict(w),
                    "{kind:?}: dirty-workspace prediction diverged"
                );
            }
        }
    }

    /// Thread-count override restored even if an assertion fails.
    struct ResetThreads;
    impl Drop for ResetThreads {
        fn drop(&mut self) {
            rayon::set_num_threads(0);
        }
    }

    #[test]
    fn training_is_bit_identical_at_one_and_four_threads() {
        let _reset = ResetThreads;
        // 50 windows: at batch 16 the final minibatch holds 2 windows, fewer
        // than GRAD_SHARDS, so two of its shards are empty; at batch 3 every
        // minibatch is smaller than the shard count.
        let series = vec![sine_series(56)];
        let (windows, targets) = make_windows(&series, 6);
        assert_eq!(windows.len(), 50);
        let bits = |xs: &[f64]| xs.iter().map(|x| x.to_bits()).collect::<Vec<u64>>();
        for kind in [
            ModelKind::Rnn,
            ModelKind::Gru,
            ModelKind::Lstm,
            ModelKind::Transformer,
            ModelKind::AttentionGru,
        ] {
            for batch_size in [16, 3] {
                let run = |threads: usize| {
                    rayon::set_num_threads(threads);
                    let mut cfg = tiny_config(kind);
                    cfg.epochs = 3;
                    cfg.batch_size = batch_size;
                    let mut model = SequenceRegressor::new(cfg);
                    let stats = model.train(&windows, &targets);
                    (
                        bits(&stats.epoch_losses),
                        bits(&model.predict_batch(&windows)),
                    )
                };
                assert_eq!(
                    run(1),
                    run(4),
                    "{kind:?}, batch {batch_size}: training depends on the thread count"
                );
            }
        }
    }

    #[test]
    fn max_samples_caps_training_set() {
        let series = vec![sine_series(200)];
        let (windows, targets) = make_windows(&series, 6);
        let mut cfg = tiny_config(ModelKind::Rnn);
        cfg.max_samples = 10;
        cfg.epochs = 1;
        let mut m = SequenceRegressor::new(cfg);
        let stats = m.train(&windows, &targets);
        assert_eq!(stats.samples_used, 10);
    }

    #[test]
    #[should_panic(expected = "window length mismatch")]
    fn predict_rejects_wrong_window_length() {
        let model = SequenceRegressor::new(tiny_config(ModelKind::Gru));
        let _ = model.predict(&[0.0; 3]);
    }

    /// The marked hot-path regions are the steady-state training loop; they
    /// must not construct matrices or otherwise allocate per sample
    /// (buffers come from the [`Workspace`]). Marker and banned tokens are
    /// assembled from pieces so this test's own source never matches.
    #[test]
    fn hot_paths_do_not_allocate() {
        let src = include_str!("seq.rs");
        let begin = format!("hot-path:{}", "begin");
        let end = format!("hot-path:{}", "end");
        let banned: Vec<String> = ["Matrix", "clone", "to_vec", "with_capacity", "collect"]
            .iter()
            .map(|t| format!("{t}("))
            .chain([
                format!("Matrix{}", "::"),
                format!("Box{}", "::"),
                format!("vec{}", "!"),
            ])
            .collect();
        let mut in_hot = false;
        let mut regions = 0;
        for (idx, line) in src.lines().enumerate() {
            if line.contains(&begin) {
                in_hot = true;
                regions += 1;
                continue;
            }
            if line.contains(&end) {
                in_hot = false;
                continue;
            }
            if in_hot {
                for tok in &banned {
                    assert!(
                        !line.contains(tok),
                        "allocation `{tok}` inside hot path at seq.rs:{}: {line}",
                        idx + 1
                    );
                }
            }
        }
        assert!(!in_hot, "unterminated hot-path region");
        assert_eq!(regions, 2, "expected the train loop and sample paths");
    }
}
