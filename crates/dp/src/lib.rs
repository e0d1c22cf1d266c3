//! Differential-privacy primitives used throughout the STPT reproduction.
//!
//! This crate provides the mechanisms and accounting machinery from the
//! paper's preliminaries (Section 2):
//!
//! * [`mechanism`] — the Laplace mechanism (Definition 1, Equation 4),
//!   plus exact inverse-CDF Laplace sampling.
//! * [`budget`] — an enforcing [`budget::BudgetAccountant`] implementing
//!   sequential composition (Theorem 1) and parallel composition
//!   (Theorem 2).
//! * [`sensitivity`] — L1 sensitivity bookkeeping (Definition 2) and
//!   contribution clipping.
//! * [`rng`] — deterministic, forkable random-number generation so every
//!   experiment in the repository is reproducible bit-for-bit.
//!
//! # Example
//!
//! ```
//! use stpt_dp::prelude::*;
//!
//! let mut rng = DpRng::seed_from_u64(7);
//! let mech = LaplaceMechanism::new(Sensitivity::new(1.0), Epsilon::new(0.5));
//! let noisy = mech.release(42.0, &mut rng);
//! assert!((noisy - 42.0).abs() < 200.0); // wildly improbable to be farther
//! ```

#![forbid(unsafe_code)]

pub mod budget;
pub mod error;
pub mod mechanism;
pub mod noisecheck;
pub mod rng;
pub mod sensitivity;

pub use budget::{BudgetAccountant, Epsilon, SpendInfo};
pub use error::DpError;
pub use mechanism::{is_exact_zero, laplace_sample, LaplaceMechanism};
pub use rng::DpRng;
pub use sensitivity::{clip_series, Sensitivity};

/// Convenience re-exports for downstream crates.
pub mod prelude {
    pub use crate::budget::{BudgetAccountant, Epsilon, SpendInfo};
    pub use crate::error::DpError;
    pub use crate::mechanism::{is_exact_zero, laplace_sample, LaplaceMechanism};
    pub use crate::rng::DpRng;
    pub use crate::sensitivity::{clip_series, Sensitivity};
    pub use rand::SeedableRng;
}
