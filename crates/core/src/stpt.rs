//! The end-to-end STPT pipeline (Algorithm 1).
//!
//! ```text
//! readings ──clip──> C_cons ──/clip──> C_norm
//! C_norm ──quadtree + Laplace + RNN──> C_pattern   (spends ε_pattern)
//! C_pattern ──k-quantise──> partitions
//! C_cons + partitions ──Laplace (Thm 8 budgets)──> C_sanitized (spends ε_sanitize)
//! ```
//!
//! The release is `(ε_pattern + ε_sanitize)`-DP by sequential composition of
//! the two phases (Theorem 1); everything else is post-processing
//! (Theorem 3).

use crate::allocation::BudgetAllocation;
use crate::pattern::{prediction_error, recognize_patterns, PatternConfig, PatternOutput};
use crate::pipeline::{postprocess, GroupedRelease};
use crate::quantize::{k_quantize_with, Partition, PartitionScheme};
use crate::sanitize::{sanitize_partitions, PartitionRelease, SanitizeConfig};
use serde::{Deserialize, Serialize};
use stpt_data::{ConsumptionMatrix, Dataset};
use stpt_dp::prelude::*;
use stpt_nn::seq::{ModelKind, NetConfig};
use stpt_obs::LedgerCheck;
use stpt_postprocess::{PostProcessRecord, ReleaseStage};

/// Full STPT configuration (the inputs of Algorithm 1).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct StptConfig {
    /// Pattern-recognition budget ε_pattern.
    pub eps_pattern: f64,
    /// Sanitisation budget ε_sanitize.
    pub eps_sanitize: f64,
    /// Training prefix length `T_train`.
    pub t_train: usize,
    /// Quadtree depth.
    pub depth: usize,
    /// Quantisation levels `k`.
    pub quantization: usize,
    /// Spatial tile side for locality-aware partitioning; `None` uses the
    /// paper's global Definition-4 partitioning (kept for ablation). The
    /// time boundary of the locality scheme is always `t_train`.
    pub partition_block: Option<usize>,
    /// Temporal tiling for locality-aware partitioning: `Some(0)` keeps only
    /// the `t_train` boundary, `Some(n)` adds a split every `n` steps, and
    /// `None` splits adaptively where the pattern's buckets change.
    pub partition_t_block: Option<usize>,
    /// Per-reading contribution bound (Table 2 clipping factor).
    pub clip: f64,
    /// How ε_sanitize is split across partitions.
    pub allocation: BudgetAllocation,
    /// Sequence-model hyper-parameters.
    pub net: NetConfig,
    /// Noise seed.
    pub seed: u64,
    /// Run the ε-free consistency projection (non-negativity + hierarchical
    /// sum-consistency) on the release. Pure post-processing (Theorem 3):
    /// the audit ledger proves the stage spends no budget.
    pub postprocess: bool,
}

impl StptConfig {
    /// The paper's hyper-parameters (Appendix C): ε_tot = 30 split 10/20,
    /// `T_train` = 100, window 6, attention+GRU with embedding 128 and
    /// hidden 64. The paper does not state its default quantisation level or
    /// depth; k = 16 and depth = 3 are the optima of our Figure 8c/8e
    /// sweeps.
    pub fn paper_default(clip: f64) -> Self {
        StptConfig {
            eps_pattern: 10.0,
            eps_sanitize: 20.0,
            t_train: 100,
            depth: 3,
            quantization: 16,
            partition_block: Some(2),
            partition_t_block: None,
            clip,
            allocation: BudgetAllocation::Optimal,
            net: NetConfig::paper_default(ModelKind::AttentionGru),
            seed: 42,
            postprocess: false,
        }
    }

    /// Same pipeline with the smaller network used for wide parameter
    /// sweeps.
    pub fn fast(clip: f64) -> Self {
        StptConfig {
            net: NetConfig::fast(ModelKind::Gru),
            ..StptConfig::paper_default(clip)
        }
    }

    /// Total privacy budget ε_tot = ε_pattern + ε_sanitize (Equation 7).
    pub fn eps_total(&self) -> f64 {
        self.eps_pattern + self.eps_sanitize
    }
}

/// Everything STPT produces for one release.
#[derive(Debug, Clone)]
pub struct StptOutput {
    /// The ε_tot-DP sanitised consumption matrix `C_sanitized`.
    pub sanitized: ConsumptionMatrix,
    /// Provenance of `sanitized`: raw out of the sanitizer, or projected
    /// onto the consistency polytope. Carried into the result envelope so
    /// baseline regeneration never mixes the two.
    pub stage: ReleaseStage,
    /// Evidence of the consistency projection when `stage` is
    /// [`ReleaseStage::PostProcessed`].
    pub post: Option<PostProcessRecord>,
    /// The private pattern estimate `C_pattern` (normalised space).
    pub pattern: PatternOutput,
    /// The partitioning derived from `C_pattern`.
    pub partitions: Vec<Partition>,
    /// Per-partition audit trail of the sanitisation step.
    pub releases: Vec<PartitionRelease>,
    /// Budget actually spent (should equal ε_tot).
    pub epsilon_spent: f64,
    /// The accountant's full spend ledger, carried so downstream consumers
    /// (the `stpt-serve` daemon) can replay it into a fresh accountant and
    /// keep proving ε-freeness while they post-process the release.
    pub ledger: Vec<stpt_obs::LedgerEntry>,
    /// Result of the budget-ledger audit: the accountant's spend ledger
    /// replayed through the composition rules and verified to telescope to
    /// ε_tot. `run_stpt` fails closed if the audit does, so a returned
    /// output always carries `audit.consistent == true`.
    pub audit: LedgerCheck,
    /// MAE/RMSE of the pattern predictions on the forecast horizon,
    /// measured against the true normalised matrix (Figures 8a/8b).
    pub pattern_mae: f64,
    /// See [`StptOutput::pattern_mae`].
    pub pattern_rmse: f64,
}

/// Run STPT on a consumption matrix built from **clipped** readings.
///
/// `c_cons_clipped` must be produced with
/// [`Dataset::consumption_matrix`]`(cx, cy, true)` (or equivalent) so that
/// each reading is bounded by `config.clip` — the DP guarantee is calibrated
/// to that bound.
///
/// Runs pattern recognition, k-quantisation and partition sanitisation on
/// one accountant and one noise stream seeded from `config.seed`, then the
/// optional consistency stage ([`postprocess`]), and fails closed unless
/// the ledger audit replays to ε_tot (and, under `STPT_TRACE`, unless the
/// release's own noise draws match the ledger's scales).
pub fn run_stpt(
    c_cons_clipped: &ConsumptionMatrix,
    config: &StptConfig,
) -> Result<StptOutput, DpError> {
    let _stpt_span = stpt_obs::phase_span!("stpt");
    let mut accountant = BudgetAccountant::new(Epsilon::new(config.eps_total()));
    let mut rng = DpRng::seed_from_u64(config.seed);
    // Under STPT_TRACE the audit judges this release's own noise draws; the
    // guard closes the log on every exit path.
    let _draws = stpt_dp::noisecheck::open_log();

    // Normalise by the public clip bound: each *user reading* maps into
    // [0, 1], so a cell (a sum of readings, one per user) has sensitivity 1
    // (Theorem 4). This is the DP-safe variant of Equation 6's min-max
    // normalisation — the clip factor is public, the true min/max are not.
    let c_norm = c_cons_clipped.map(|v| v / config.clip);

    let pattern_cfg = PatternConfig {
        epsilon: config.eps_pattern,
        t_train: config.t_train,
        depth: config.depth,
        net: config.net.clone(),
    };
    let pattern_span = stpt_obs::phase_span!("pattern");
    let pattern = recognize_patterns(&c_norm, &pattern_cfg, &mut accountant, &mut rng)?;
    let (pattern_mae, pattern_rmse) = prediction_error(&c_norm, &pattern.pattern, config.t_train);
    drop(pattern_span);

    let partition_span = stpt_obs::phase_span!("partition");
    let scheme = match (config.partition_block, config.partition_t_block) {
        (Some(block), Some(t_block)) => PartitionScheme::Local {
            block,
            t_boundary: config.t_train,
            t_block,
        },
        (Some(block), None) => PartitionScheme::Adaptive {
            block,
            t_boundary: config.t_train,
        },
        (None, _) => PartitionScheme::Global,
    };
    let partitions = k_quantize_with(&pattern.pattern, config.quantization, scheme);
    drop(partition_span);

    let sanitize_cfg = SanitizeConfig {
        epsilon: config.eps_sanitize,
        clip: config.clip,
        allocation: config.allocation,
    };
    let sanitize_span = stpt_obs::phase_span!("sanitize");
    let (mut sanitized, releases) = sanitize_partitions(
        c_cons_clipped,
        &partitions,
        &sanitize_cfg,
        &mut accountant,
        &mut rng,
    )?;
    drop(sanitize_span);

    let post = config.postprocess.then(|| {
        let grouped = GroupedRelease::from_partitions(&partitions, &releases);
        postprocess(&mut accountant, &mut sanitized, Some(&grouped))
    });
    // Full replay: composition telescopes to ε_tot AND every
    // post-processing stage proves ε-freeness, else fail closed.
    let audit = accountant.audit(config.eps_total())?;

    Ok(StptOutput {
        sanitized,
        stage: if post.is_some() {
            ReleaseStage::PostProcessed
        } else {
            ReleaseStage::Raw
        },
        post,
        pattern,
        partitions,
        releases,
        epsilon_spent: accountant.spent(),
        ledger: accountant.ledger().to_vec(),
        audit,
        pattern_mae,
        pattern_rmse,
    })
}

/// Convenience wrapper: build the clipped matrix from a dataset and run
/// STPT on a `cx × cy` grid.
pub fn run_stpt_on_dataset(
    dataset: &Dataset,
    cx: usize,
    cy: usize,
    config: &StptConfig,
) -> Result<StptOutput, DpError> {
    let clipped = dataset.consumption_matrix(cx, cy, true);
    run_stpt(&clipped, config)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use stpt_data::{DatasetSpec, SpatialDistribution};

    fn tiny_config() -> StptConfig {
        let mut cfg = StptConfig::fast(1.85);
        cfg.t_train = 30;
        cfg.depth = 2;
        cfg.quantization = 4;
        cfg.net.embed_dim = 8;
        cfg.net.hidden_dim = 8;
        cfg.net.window = 4;
        cfg.net.epochs = 3;
        cfg
    }

    fn tiny_dataset() -> Dataset {
        let mut rng = rand::rngs::StdRng::seed_from_u64(11);
        let mut spec = DatasetSpec::CER;
        spec.households = 150;
        Dataset::generate(spec, SpatialDistribution::Uniform, 48, &mut rng)
    }

    #[test]
    fn pipeline_spends_exactly_eps_total() {
        let ds = tiny_dataset();
        let cfg = tiny_config();
        let out = run_stpt_on_dataset(&ds, 4, 4, &cfg).unwrap();
        assert!(
            (out.epsilon_spent - cfg.eps_total()).abs() < 1e-9,
            "spent {}",
            out.epsilon_spent
        );
        // The ledger audit ran (run_stpt fails closed otherwise) and the
        // replay reproduced the live accountant bit-exactly.
        assert!(out.audit.consistent);
        assert_eq!(out.audit.replayed.to_bits(), out.audit.spent.to_bits());
        assert!((out.audit.total - cfg.eps_total()).abs() < 1e-12);
    }

    #[test]
    fn output_shapes_match_input() {
        let ds = tiny_dataset();
        let cfg = tiny_config();
        let clipped = ds.consumption_matrix(4, 4, true);
        let out = run_stpt(&clipped, &cfg).unwrap();
        assert_eq!(out.sanitized.shape(), clipped.shape());
        assert_eq!(out.pattern.pattern.shape(), clipped.shape());
        assert!(out.sanitized.data().iter().all(|v| v.is_finite()));
    }

    #[test]
    fn partitions_tile_matrix() {
        let ds = tiny_dataset();
        let out = run_stpt_on_dataset(&ds, 4, 4, &tiny_config()).unwrap();
        let total_cells: usize = out.partitions.iter().map(|p| p.cells.len()).sum();
        assert_eq!(total_cells, 4 * 4 * 48);
    }

    #[test]
    fn deterministic_given_seed() {
        let ds = tiny_dataset();
        let cfg = tiny_config();
        let a = run_stpt_on_dataset(&ds, 4, 4, &cfg).unwrap();
        let b = run_stpt_on_dataset(&ds, 4, 4, &cfg).unwrap();
        assert_eq!(a.sanitized.data(), b.sanitized.data());
    }

    #[test]
    fn huge_budget_approaches_partition_truth() {
        let ds = tiny_dataset();
        let mut cfg = tiny_config();
        cfg.eps_pattern = 1e6;
        cfg.eps_sanitize = 1e7;
        let clipped = ds.consumption_matrix(4, 4, true);
        let out = run_stpt(&clipped, &cfg).unwrap();
        // With virtually no noise, each partition's mass is preserved.
        for p in &out.partitions {
            let truth: f64 = p.cells.iter().map(|&c| clipped.data()[c]).sum();
            let released: f64 = p.cells.iter().map(|&c| out.sanitized.data()[c]).sum();
            assert!(
                (truth - released).abs() < 1e-2 * truth.abs().max(1.0),
                "partition level {}: {truth} vs {released}",
                p.level
            );
        }
    }

    #[test]
    fn eps_total_is_sum_of_phases() {
        let cfg = StptConfig::paper_default(1.85);
        assert!((cfg.eps_total() - 30.0).abs() < 1e-12);
    }
}
