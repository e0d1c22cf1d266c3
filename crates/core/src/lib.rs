//! STPT — Spatio-Temporal Private Timeseries (EDBT 2025).
//!
//! A from-scratch reproduction of *"Differentially Private Publication of
//! Smart Electricity Grid Data"*. STPT publishes a 3-D electricity
//! consumption matrix under user-level ε-differential privacy in two phases:
//!
//! 1. **Pattern recognition** ([`pattern`]): a spatio-temporal quadtree
//!    ([`quadtree`]) turns the training prefix into hierarchical
//!    representative series whose sensitivity shrinks geometrically with
//!    depth (Theorem 6); the sanitised series train a sequence model that
//!    predicts the private pattern matrix `C_pattern`.
//! 2. **Sanitisation** ([`sanitize`]): `C_pattern` is k-quantised
//!    ([`quantize`]) into homogeneous partitions, each released with Laplace
//!    noise calibrated to its pillar sensitivity (Theorem 7) under the
//!    optimal `ε_i ∝ s_i^(2/3)` allocation ([`allocation`], Theorem 8).
//!
//! The entry point is [`run_stpt`] / [`run_stpt_on_dataset`] with an
//! [`StptConfig`].
//!
//! ```
//! use rand::SeedableRng;
//! use stpt_core::{run_stpt_on_dataset, StptConfig};
//! use stpt_data::{Dataset, DatasetSpec, SpatialDistribution};
//!
//! let mut rng = rand::rngs::StdRng::seed_from_u64(1);
//! let mut spec = DatasetSpec::CER;
//! spec.households = 100; // doctest-sized
//! let ds = Dataset::generate(spec, SpatialDistribution::Uniform, 48, &mut rng);
//!
//! let mut cfg = StptConfig::fast(spec.clip);
//! cfg.t_train = 30;
//! cfg.depth = 2;
//! cfg.net.embed_dim = 8;
//! cfg.net.hidden_dim = 8;
//! cfg.net.window = 4;
//! cfg.net.epochs = 2;
//! let out = run_stpt_on_dataset(&ds, 4, 4, &cfg).unwrap();
//! assert!((out.epsilon_spent - 30.0).abs() < 1e-9);
//! ```

#![forbid(unsafe_code)]

pub mod allocation;
pub mod ldp;
pub mod pattern;
pub mod pipeline;
pub mod quadtree;
pub mod quantize;
pub mod sanitize;
pub mod stpt;

pub use allocation::{allocate, total_noise_variance, BudgetAllocation};
pub use ldp::{cell_noise_std, ldp_release, LdpConfig};
pub use pattern::{prediction_error, recognize_patterns, PatternConfig, PatternOutput};
pub use pipeline::{postprocess, GroupedRelease};
pub use quadtree::{neighborhoods, representative_series, time_segments, Region};
pub use quantize::{k_quantize, Partition};
pub use sanitize::{sanitize_partitions, PartitionRelease, SanitizeConfig};
pub use stpt::{run_stpt, run_stpt_on_dataset, StptConfig, StptOutput};

// Re-export the release value types so downstream crates can consume
// releases without a direct `stpt-postprocess` dependency.
pub use stpt_postprocess::{PostProcessRecord, Release, ReleaseStage};
