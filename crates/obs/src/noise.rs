//! Debug-only statistical accumulator for DP noise draws.
//!
//! When the trace gate (`STPT_TRACE`) is on, `crates/dp` reports every
//! Laplace draw here via [`record_laplace`], keyed by the calibrated scale
//! `b`. The accumulator keeps per-scale count / sum / sum-of-squares plus a
//! fixed prefix reservoir of raw draws, so the audit step can compare the
//! empirical mean, variance and a Kolmogorov–Smirnov statistic against the
//! Laplace(b) the ledger says was used — catching implementation drift
//! (wrong scale, broken sampler, RNG misuse) that budget accounting alone
//! cannot see.
//!
//! **Privacy note:** raw noise draws reveal the noise that protects the
//! release, so this instrumentation is debug telemetry only. It is gated on
//! [`crate::enabled`] (never the live-monitoring gate), excluded from
//! result envelopes, and never serialised anywhere — only the pass/fail
//! verdict ([`NoiseStatus`]) leaves this module.
//!
//! Recording is lock-free and allocation-free: a scale claims one of
//! [`MAX_SCALES`] static slots by CAS on its `f64` bit pattern (zero is the
//! empty sentinel — a zero scale is never sampled, `crates/dp` returns
//! exact zero noise without drawing), then accumulates with atomic RMWs.
//! Reservoir writes deliberately tolerate a benign race (a reader may see
//! a just-claimed, not-yet-stored cell as 0.0); readers run at audit time,
//! after sampling has quiesced, so this does not affect verdicts.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

/// Maximum number of distinct noise scales tracked per process.
pub const MAX_SCALES: usize = 64;

/// Raw draws retained per scale for the KS statistic (first N draws).
pub const RESERVOIR: usize = 1024;

/// Verdict of the statistical noise self-check, carried by
/// `LedgerCheck::noise`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum NoiseStatus {
    /// No verdict: tracing was off, or too few draws per scale to test.
    #[default]
    Unchecked,
    /// Every sufficiently-sampled scale matched its calibrated Laplace(b).
    Consistent,
    /// At least one scale's draws are statistically incompatible with the
    /// distribution the ledger claims — the audit fails closed.
    Inconsistent,
}

impl NoiseStatus {
    /// Stable lowercase label used in telemetry JSON and regress output.
    pub fn label(self) -> &'static str {
        match self {
            NoiseStatus::Unchecked => "unchecked",
            NoiseStatus::Consistent => "consistent",
            NoiseStatus::Inconsistent => "inconsistent",
        }
    }
}

struct ScaleSlot {
    /// Bit pattern of the scale; 0 = empty (never a valid recorded scale).
    scale_bits: AtomicU64,
    count: AtomicU64,
    sum_bits: AtomicU64,
    sumsq_bits: AtomicU64,
    /// Number of reservoir cells claimed (may exceed [`RESERVOIR`]).
    claimed: AtomicUsize,
    reservoir: [AtomicU64; RESERVOIR],
}

static SLOTS: [ScaleSlot; MAX_SCALES] = [const {
    ScaleSlot {
        scale_bits: AtomicU64::new(0),
        count: AtomicU64::new(0),
        sum_bits: AtomicU64::new(0),
        sumsq_bits: AtomicU64::new(0),
        claimed: AtomicUsize::new(0),
        reservoir: [const { AtomicU64::new(0) }; RESERVOIR],
    }
}; MAX_SCALES];

/// Draws dropped because more than [`MAX_SCALES`] distinct scales appeared.
static SCALE_OVERFLOW: AtomicU64 = AtomicU64::new(0);

/// Record one Laplace draw `x` taken at scale `b`. No-op unless the trace
/// gate is on (debug-only by design — see the module docs).
#[inline]
pub fn record_laplace(scale: f64, x: f64) {
    if !crate::enabled() {
        return;
    }
    let bits = scale.to_bits();
    if bits == 0 {
        return; // zero scale never draws; keep the empty sentinel unambiguous
    }
    let Some(slot) = slot_for(bits) else {
        SCALE_OVERFLOW.fetch_add(1, Ordering::Relaxed);
        return;
    };
    slot.count.fetch_add(1, Ordering::Relaxed);
    add_f64(&slot.sum_bits, x);
    add_f64(&slot.sumsq_bits, x * x);
    let idx = slot.claimed.fetch_add(1, Ordering::Relaxed);
    if idx < RESERVOIR {
        slot.reservoir[idx].store(x.to_bits(), Ordering::Relaxed);
    }
}

/// Find or claim the slot for a scale's bit pattern.
fn slot_for(bits: u64) -> Option<&'static ScaleSlot> {
    for slot in &SLOTS {
        let cur = slot.scale_bits.load(Ordering::Relaxed);
        if cur == bits {
            return Some(slot);
        }
        if cur == 0
            && slot
                .scale_bits
                .compare_exchange(0, bits, Ordering::Relaxed, Ordering::Relaxed)
                .is_ok()
        {
            return Some(slot);
        }
        // Lost the claim race: re-check whether the winner is us-shaped.
        if slot.scale_bits.load(Ordering::Relaxed) == bits {
            return Some(slot);
        }
    }
    None
}

/// CAS-accumulate `v` onto an `f64`-bits cell.
fn add_f64(cell: &AtomicU64, v: f64) {
    let mut cur = cell.load(Ordering::Relaxed);
    loop {
        let next = (f64::from_bits(cur) + v).to_bits();
        match cell.compare_exchange_weak(cur, next, Ordering::Relaxed, Ordering::Relaxed) {
            Ok(_) => break,
            Err(seen) => cur = seen,
        }
    }
}

/// Empirical statistics of the draws recorded at one scale.
#[derive(Debug, Clone)]
pub struct ScaleStats {
    /// The calibrated Laplace scale `b` the draws were keyed under.
    pub scale: f64,
    /// Total draws recorded (may exceed `samples.len()`).
    pub count: u64,
    /// Empirical mean of all draws.
    pub mean: f64,
    /// Empirical (population) variance of all draws.
    pub variance: f64,
    /// The retained raw draws (first [`RESERVOIR`] at this scale).
    pub samples: Vec<f64>,
}

fn read_slot(slot: &ScaleSlot) -> Option<ScaleStats> {
    let bits = slot.scale_bits.load(Ordering::Relaxed);
    if bits == 0 {
        return None;
    }
    let count = slot.count.load(Ordering::Relaxed);
    if count == 0 {
        return None;
    }
    let sum = f64::from_bits(slot.sum_bits.load(Ordering::Relaxed));
    let sumsq = f64::from_bits(slot.sumsq_bits.load(Ordering::Relaxed));
    let n = count as f64;
    let mean = sum / n;
    let variance = (sumsq / n - mean * mean).max(0.0);
    let kept = slot.claimed.load(Ordering::Relaxed).min(RESERVOIR);
    let samples = slot.reservoir[..kept]
        .iter()
        .map(|c| f64::from_bits(c.load(Ordering::Relaxed)))
        .collect();
    Some(ScaleStats {
        scale: f64::from_bits(bits),
        count,
        mean,
        variance,
        samples,
    })
}

/// Statistics for every scale that recorded at least one draw, sorted by
/// scale.
pub fn stats() -> Vec<ScaleStats> {
    let mut out: Vec<ScaleStats> = SLOTS.iter().filter_map(read_slot).collect();
    out.sort_by(|a, b| a.scale.total_cmp(&b.scale));
    out
}

/// Statistics for one exact scale (bit-pattern match), if recorded.
pub fn stats_for(scale: f64) -> Option<ScaleStats> {
    let bits = scale.to_bits();
    SLOTS
        .iter()
        .find(|s| s.scale_bits.load(Ordering::Relaxed) == bits)
        .and_then(read_slot)
}

/// Draws dropped due to scale-table overflow.
pub fn scale_overflow() -> u64 {
    SCALE_OVERFLOW.load(Ordering::Relaxed)
}

/// Clear all accumulated noise statistics. Used by [`crate::reset`].
pub fn reset() {
    for slot in &SLOTS {
        slot.scale_bits.store(0, Ordering::Relaxed);
        slot.count.store(0, Ordering::Relaxed);
        slot.sum_bits.store(0, Ordering::Relaxed);
        slot.sumsq_bits.store(0, Ordering::Relaxed);
        slot.claimed.store(0, Ordering::Relaxed);
        for c in &slot.reservoir {
            c.store(0, Ordering::Relaxed);
        }
    }
    SCALE_OVERFLOW.store(0, Ordering::Relaxed);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn status_labels_are_stable() {
        assert_eq!(NoiseStatus::Unchecked.label(), "unchecked");
        assert_eq!(NoiseStatus::Consistent.label(), "consistent");
        assert_eq!(NoiseStatus::Inconsistent.label(), "inconsistent");
        assert_eq!(NoiseStatus::default(), NoiseStatus::Unchecked);
    }

    #[test]
    fn records_moments_and_reservoir_per_scale() {
        let _lock = crate::test_lock();
        crate::reset();
        crate::set_enabled(true);
        for i in 0..10 {
            record_laplace(0.125, i as f64 - 4.5); // mean 0, known spread
            record_laplace(0.75, 1.0);
        }
        crate::set_enabled(false);
        let a = stats_for(0.125).unwrap();
        assert_eq!(a.count, 10);
        assert!(a.mean.abs() < 1e-12);
        assert!((a.variance - 8.25).abs() < 1e-9); // Var of {-4.5..4.5}
        assert_eq!(a.samples.len(), 10);
        let b = stats_for(0.75).unwrap();
        assert_eq!(b.count, 10);
        assert!((b.mean - 1.0).abs() < 1e-12);
        assert!(b.variance.abs() < 1e-12);
        assert!(stats_for(0.5).is_none());
        assert_eq!(stats().len(), 2);
        crate::reset();
        assert!(stats().is_empty());
    }

    #[test]
    fn gate_off_records_nothing() {
        let _lock = crate::test_lock();
        crate::reset();
        crate::set_enabled(false);
        // Live monitoring alone must NOT record raw noise draws.
        crate::set_live_enabled(true);
        record_laplace(0.25, 1.0);
        crate::set_live_enabled(false);
        assert!(stats().is_empty());
    }
}
