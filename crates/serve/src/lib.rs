//! `stpt-serve`: a long-lived daemon answering spatio-temporal range
//! queries over sanitized STPT releases.
//!
//! The paper's releases are one-shot batch artifacts; this crate turns
//! them into a serving system. The daemon sanitizes **once** per
//! dataset × ε (each cached release is keyed by a deterministic release
//! id), holds the release's 3-D prefix-sum table in memory, and answers
//! arbitrary range queries from concurrent clients over a std-only
//! TCP/HTTP protocol — the same dependency-free style as
//! [`stpt_obs::prometheus`], sharing its byte-capped request reader
//! ([`stpt_obs::httpd`]) so hostile clients cannot grow buffers without
//! bound.
//!
//! **Privacy.** Answering queries over a sanitized release is pure
//! post-processing (Theorem 3): it spends zero ε no matter how many
//! queries are asked. This crate makes that claim *checkable at runtime*:
//! each cached release replays its sanitization ledger into a fresh
//! [`stpt_dp::budget::BudgetAccountant`] and brackets the daemon's entire
//! serving lifetime with `begin_postprocess`/`end_postprocess`
//! ([`ledger::ServingLedger`]). `GET /releases` closes the bracket,
//! verifies every stage window is empty, and reopens it — a ledger-backed
//! ε-freeness proof on demand, failing closed if any spend ever landed
//! while serving.
//!
//! **Hostile-query hardening.** The wire path is panic-free by
//! construction: queries deserialize through [`stpt_queries::RangeQuery`]'s
//! validating `Deserialize` impl (rejects empty/inverted ranges), bounds
//! are checked by the fallible
//! [`stpt_queries::PrefixSum3D::try_range_sum`], and malformed requests
//! are answered `400`/`413`, never unwound. A batch is answered in order
//! on the acceptor thread that read it.

#![forbid(unsafe_code)]

pub mod engine;
pub mod http;
pub mod ledger;
pub mod release;
pub mod server;

pub use engine::answer_batch;
pub use http::{handle_request, Response, ServerState};
pub use ledger::{ServingLedger, ServingProof};
pub use release::{CachedRelease, ReleaseCache, ReleaseSpec, ServeError};
pub use server::{serve, ServeHandle};
