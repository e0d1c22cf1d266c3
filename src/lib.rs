//! STPT suite — umbrella crate re-exporting the whole reproduction of
//! *"Differentially Private Publication of Smart Electricity Grid Data"*
//! (EDBT 2025).
//!
//! The workspace is organised as:
//!
//! * [`dp`] (`stpt-dp`) — DP primitives: the Laplace mechanism, budget
//!   accounting with enforced sequential/parallel composition.
//! * [`nn`] (`stpt-nn`) — a from-scratch neural-network library (RNN, GRU,
//!   LSTM, self-attention, transformer) with manual backprop.
//! * [`data`] (`stpt-data`) — the 3-D consumption matrix and synthetic
//!   digital twins of the CER/CA/MI/TX datasets.
//! * [`queries`] (`stpt-queries`) — spatio-temporal range queries and the
//!   MRE metric.
//! * [`core`] (`stpt-core`) — the STPT algorithm itself.
//! * [`baselines`] (`stpt-baselines`) — Identity, Fourier, Wavelet, FAST,
//!   LGAN-DP and WPO.
//! * [`obs`] (`stpt-obs`) — hermetic observability: phase spans, the
//!   metrics registry and the DP budget audit ledger (gated by
//!   `STPT_TRACE`).
//!
//! See `examples/quickstart.rs` for an end-to-end tour.

#![forbid(unsafe_code)]

pub use stpt_baselines as baselines;
pub use stpt_core as core;
pub use stpt_data as data;
pub use stpt_dp as dp;
pub use stpt_nn as nn;
pub use stpt_obs as obs;
pub use stpt_queries as queries;
