//! Range-query evaluation for the STPT reproduction (Section 3.2).
//!
//! * [`query`] — 3-orthotope range queries (Definition 3) and the Figure 6
//!   workload generators (small / large / random).
//! * [`prefix`] — 3-D prefix sums for O(1) range sums.
//! * [`metrics`] — Mean Relative Error (Equation 5) with the standard
//!   small-denominator floor.

#![forbid(unsafe_code)]

pub mod metrics;
pub mod prefix;
pub mod query;

pub use metrics::{
    default_rho, evaluate_workload, evaluate_workload_with, relative_error, WorkloadResult,
};
pub use prefix::PrefixSum3D;
pub use query::{generate_queries, InvalidRangeQuery, QueryClass, RangeQuery};
