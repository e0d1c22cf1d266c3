//! Tier-1 guarantees for the unified `SeqBody` layer:
//!
//! 1. Every body implementor (RNN, GRU, LSTM, transformer, attention+GRU)
//!    passes a finite-difference gradient check through the `Workspace`
//!    interface it is trained with.
//! 2. Training through the workspace-recycling, gradient-sharded generic
//!    loop is bitwise-deterministic, pinned to recorded final-loss values —
//!    any change to floating-point operation order in the kernels or the
//!    training loop trips this.

use rand::rngs::StdRng;
use rand::SeedableRng;
use stpt_suite::nn::gradcheck::check_seq_body;
use stpt_suite::nn::gru::GruCell;
use stpt_suite::nn::lstm::LstmCell;
use stpt_suite::nn::rnn_cell::RnnCell;
use stpt_suite::nn::seq::{make_windows, ModelKind, NetConfig, SequenceRegressor};
use stpt_suite::nn::transformer::TransformerBlock;
use stpt_suite::nn::workspace::AttentionGruBody;
use stpt_suite::nn::Matrix;

#[test]
fn rnn_body_passes_gradcheck() {
    let mut rng = StdRng::seed_from_u64(10);
    let mut body = RnnCell::new(3, 4, &mut rng);
    let tokens = Matrix::xavier(5, 3, &mut rng);
    check_seq_body(&mut body, &tokens, 2e-4);
}

#[test]
fn gru_body_passes_gradcheck() {
    let mut rng = StdRng::seed_from_u64(11);
    let mut body = GruCell::new(3, 4, &mut rng);
    let tokens = Matrix::xavier(5, 3, &mut rng);
    check_seq_body(&mut body, &tokens, 2e-4);
}

#[test]
fn lstm_body_passes_gradcheck() {
    let mut rng = StdRng::seed_from_u64(12);
    let mut body = LstmCell::new(3, 4, &mut rng);
    let tokens = Matrix::xavier(5, 3, &mut rng);
    check_seq_body(&mut body, &tokens, 2e-4);
}

#[test]
fn transformer_body_passes_gradcheck() {
    let mut rng = StdRng::seed_from_u64(13);
    let mut body = TransformerBlock::new(3, &mut rng);
    let tokens = Matrix::xavier(4, 3, &mut rng);
    check_seq_body(&mut body, &tokens, 5e-4);
}

#[test]
fn attention_gru_body_passes_gradcheck() {
    let mut rng = StdRng::seed_from_u64(14);
    let mut body = AttentionGruBody::new(3, 4, &mut rng);
    let tokens = Matrix::xavier(5, 3, &mut rng);
    check_seq_body(&mut body, &tokens, 3e-4);
}

/// Final epoch loss of `NetConfig::fast(kind)` on a fixed sine series,
/// recorded as exact f64 bit patterns. The generic loop must reproduce
/// them bit for bit, at any thread count.
///
/// Re-pinned once when minibatches became data-parallel: each minibatch's
/// gradient and loss are now summed per gradient shard (`GRAD_SHARDS`
/// contiguous shards), then across shards in fixed shard order, instead of
/// window by window. Float addition is not associative, so the last few
/// bits of every kind's loss moved; nothing else did.
#[test]
fn fast_config_training_matches_recorded_losses_bitwise() {
    let series: Vec<f64> = (0..150)
        .map(|i| (i as f64 * 0.3).sin() * 0.5 + 0.5)
        .collect();
    let (windows, targets) = make_windows(&[series], 6);
    let recorded: [(ModelKind, u64); 5] = [
        (ModelKind::Rnn, 0x3f3e_7eb0_aad0_6d7a),
        (ModelKind::Gru, 0x3f5f_a181_0d59_37cb),
        (ModelKind::Lstm, 0x3f39_2443_0318_b3d2),
        (ModelKind::Transformer, 0x3f95_5011_e3be_1710),
        (ModelKind::AttentionGru, 0x3fb7_4722_55cd_46ed),
    ];
    for (kind, bits) in recorded {
        let mut model = SequenceRegressor::new(NetConfig::fast(kind));
        let stats = model.train(&windows, &targets);
        let last = stats.epoch_losses.last().copied().unwrap_or(f64::NAN);
        assert_eq!(
            last.to_bits(),
            bits,
            "{kind:?}: final loss {last:e} (bits {:#018x}) drifted from the recorded value",
            last.to_bits()
        );
    }
}
