//! Release building and caching: sanitize once per dataset × ε, serve
//! forever.

use crate::ledger::ServingLedger;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use stpt_core::stpt::{run_stpt, StptConfig};
use stpt_data::{Dataset, DatasetSpec, Granularity, SpatialDistribution};
use stpt_dp::budget::Epsilon;
use stpt_dp::DpError;
use stpt_obs::LedgerCheck;
use stpt_queries::PrefixSum3D;

/// Telemetry: releases sanitized by this process (cache misses).
static RELEASES_BUILT: stpt_obs::Counter = stpt_obs::Counter::new("serve.releases_built");

/// Everything needed to (re)build one release deterministically. Two
/// specs with equal fields produce the same [`ReleaseSpec::id`] and the
/// cache will sanitize only once for them.
#[derive(Debug, Clone, PartialEq)]
pub struct ReleaseSpec {
    /// Dataset short name: `CER`, `CA`, `MI` or `TX` (Table 2).
    pub dataset: String,
    /// Grid side `cx = cy`.
    pub grid: usize,
    /// Series length `C_t` in day granules.
    pub hours: usize,
    /// Pattern-recognition budget ε_pattern.
    pub eps_pattern: f64,
    /// Sanitisation budget ε_sanitize.
    pub eps_sanitize: f64,
    /// Noise seed (data generation and DP noise derive from it).
    pub seed: u64,
    /// Run the ε-free consistency projection on the release.
    pub postprocess: bool,
    /// Shrink the network and training prefix for smoke runs (CI boots).
    pub smoke: bool,
}

impl Default for ReleaseSpec {
    fn default() -> Self {
        ReleaseSpec {
            dataset: "CER".to_string(),
            grid: 16,
            hours: 64,
            eps_pattern: 10.0,
            eps_sanitize: 20.0,
            seed: 42,
            postprocess: true,
            smoke: false,
        }
    }
}

impl ReleaseSpec {
    /// Deterministic cache key: every field that changes the released
    /// data participates.
    pub fn id(&self) -> String {
        format!(
            "{}-g{}-h{}-ep{}-es{}-s{}{}{}",
            self.dataset.to_ascii_lowercase(),
            self.grid,
            self.hours,
            self.eps_pattern,
            self.eps_sanitize,
            self.seed,
            if self.postprocess { "-pp" } else { "" },
            if self.smoke { "-smoke" } else { "" },
        )
    }

    /// Total budget ε_tot of the release this spec describes.
    pub fn eps_total(&self) -> f64 {
        self.eps_pattern + self.eps_sanitize
    }

    /// Validate the spec without sanitizing. All checks a hostile or
    /// fat-fingered configuration could fail land here as errors, not
    /// panics further down the pipeline.
    pub fn validate(&self) -> Result<DatasetSpec, ServeError> {
        let spec = DatasetSpec::ALL
            .into_iter()
            .find(|s| s.name.eq_ignore_ascii_case(&self.dataset))
            .ok_or_else(|| {
                ServeError::BadSpec(format!(
                    "unknown dataset '{}' (expected CER, CA, MI or TX)",
                    self.dataset
                ))
            })?;
        Epsilon::try_new(self.eps_pattern)
            .and_then(|_| Epsilon::try_new(self.eps_sanitize))
            .map_err(|e| ServeError::BadSpec(e.to_string()))?;
        if !self.grid.is_power_of_two() || self.hours < 8 {
            return Err(ServeError::BadSpec(format!(
                "degenerate shape: grid={} hours={} (need a power-of-two grid, hours ≥ 8)",
                self.grid, self.hours
            )));
        }
        Ok(spec)
    }

    /// Build the release this spec describes: generate the dataset, run
    /// STPT (audited), build the prefix-sum table, and resume the audit
    /// ledger for serving.
    pub fn build(&self) -> Result<CachedRelease, ServeError> {
        let spec = self.validate()?;
        let mut rng = StdRng::seed_from_u64(self.seed ^ hash_name(spec.name));
        let ds = Dataset::generate_at(
            spec,
            SpatialDistribution::Uniform,
            Granularity::Daily,
            self.hours,
            &mut rng,
        );
        let clipped = ds.consumption_matrix(self.grid, self.grid, true);

        let mut cfg = StptConfig::fast(spec.clip * 24.0);
        cfg.eps_pattern = self.eps_pattern;
        cfg.eps_sanitize = self.eps_sanitize;
        cfg.seed = self.seed;
        cfg.net.seed = self.seed ^ 0xabcd;
        cfg.t_train = cfg.t_train.min(self.hours / 2).max(4);
        cfg.depth = cfg.depth.min(self.grid.trailing_zeros() as usize);
        cfg.postprocess = self.postprocess;
        if self.smoke {
            cfg.t_train = cfg.t_train.min(16);
            cfg.depth = cfg.depth.min(2);
            cfg.quantization = 4;
            cfg.net.embed_dim = 8;
            cfg.net.hidden_dim = 8;
        }
        // Pattern recognition partitions the training prefix into
        // `depth + 1` segments and sweeps `net.window` over each: keep the
        // segments long enough to yield at least one training window.
        while cfg.depth > 0 && cfg.t_train.div_ceil(cfg.depth + 1) <= 2 {
            cfg.depth -= 1;
        }
        let seg = cfg.t_train.div_ceil(cfg.depth + 1);
        cfg.net.window = cfg.net.window.min(seg - 1).max(2);

        let out = run_stpt(&clipped, &cfg)?;
        let serving = ServingLedger::resume(
            Epsilon::try_new(cfg.eps_total()).map_err(ServeError::Dp)?,
            &out.ledger,
        )?;
        RELEASES_BUILT.add(1);
        Ok(CachedRelease {
            id: self.id(),
            spec: self.clone(),
            shape: out.sanitized.shape(),
            prefix: PrefixSum3D::new(&out.sanitized),
            audit: out.audit,
            epsilon_spent_sanitize: out.epsilon_spent,
            serving: Mutex::new(serving),
            queries_answered: AtomicU64::new(0),
        })
    }
}

/// FNV-1a of a dataset name, mixed into the generation seed so distinct
/// datasets at the same user seed draw distinct streams (mirrors the
/// bench harness's per-spec seeding).
fn hash_name(name: &str) -> u64 {
    name.bytes().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
        (h ^ b as u64).wrapping_mul(0x1000_0000_01b3)
    })
}

/// A sanitized release held in memory for serving.
#[derive(Debug)]
pub struct CachedRelease {
    /// Cache key ([`ReleaseSpec::id`]).
    pub id: String,
    /// The spec this release was built from.
    pub spec: ReleaseSpec,
    /// Shape of the released matrix.
    pub shape: (usize, usize, usize),
    /// Prefix-sum table over the sanitized matrix: every answer is eight
    /// O(1) lookups, no raw data retained.
    pub prefix: PrefixSum3D,
    /// The sanitize-time budget audit (always `consistent` — `run_stpt`
    /// fails closed otherwise).
    pub audit: LedgerCheck,
    /// ε spent sanitizing (equals ε_tot).
    pub epsilon_spent_sanitize: f64,
    /// Serving-time accountant; locked only to issue proofs.
    pub serving: Mutex<ServingLedger>,
    /// Queries answered against this release (includes rejected ones —
    /// they cost the same to the engine).
    pub queries_answered: AtomicU64,
}

impl CachedRelease {
    /// Issue an ε-freeness proof for the serving window so far. Fails
    /// closed if any spend landed while serving (and keeps failing — see
    /// [`ServingLedger::prove`]).
    pub fn prove(&self) -> Result<crate::ledger::ServingProof, DpError> {
        match self.serving.lock() {
            Ok(mut guard) => guard.prove(),
            Err(poisoned) => {
                // A panic while holding the lock cannot corrupt the
                // accountant (prove() mutates it transactionally), but
                // surface it as a failed proof rather than unwinding.
                drop(poisoned);
                Err(DpError::AuditFailed {
                    expected: 0.0,
                    replayed: f64::NAN,
                    detail: "serving ledger lock poisoned".to_string(),
                })
            }
        }
    }

    /// Record `n` answered queries.
    pub fn note_queries(&self, n: u64) {
        self.queries_answered.fetch_add(n, Ordering::Relaxed);
    }
}

/// The daemon's release cache, keyed by release id. Built once at
/// startup; lookups at query time never sanitize — a client cannot make
/// the daemon burn CPU on a fresh DP release.
#[derive(Debug, Default)]
pub struct ReleaseCache {
    releases: BTreeMap<String, Arc<CachedRelease>>,
    /// Id of the first inserted release: the target for queries that do
    /// not name one.
    default_id: Option<String>,
}

impl ReleaseCache {
    /// Empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Build (or reuse) the release for `spec`. Returns the cached entry
    /// when a release with the same id already exists — the "sanitize
    /// once per dataset × ε" guarantee.
    pub fn insert(&mut self, spec: &ReleaseSpec) -> Result<Arc<CachedRelease>, ServeError> {
        let id = spec.id();
        if let Some(existing) = self.releases.get(&id) {
            return Ok(Arc::clone(existing));
        }
        let built = Arc::new(spec.build()?);
        if self.default_id.is_none() {
            self.default_id = Some(id.clone());
        }
        self.releases.insert(id, Arc::clone(&built));
        Ok(built)
    }

    /// Insert an already-built release under its id (used to share one
    /// sanitized release between caches, e.g. across test daemons).
    /// Keeps the existing entry on id collision, like [`ReleaseCache::insert`].
    pub fn insert_prebuilt(&mut self, release: Arc<CachedRelease>) {
        if self.releases.contains_key(&release.id) {
            return;
        }
        if self.default_id.is_none() {
            self.default_id = Some(release.id.clone());
        }
        self.releases.insert(release.id.clone(), release);
    }

    /// Look up a release by id, or the default release when `id` is
    /// `None`.
    pub fn get(&self, id: Option<&str>) -> Option<Arc<CachedRelease>> {
        match id {
            Some(id) => self.releases.get(id).map(Arc::clone),
            None => self
                .default_id
                .as_deref()
                .and_then(|d| self.releases.get(d))
                .map(Arc::clone),
        }
    }

    /// All cached releases in id order.
    pub fn iter(&self) -> impl Iterator<Item = &Arc<CachedRelease>> {
        self.releases.values()
    }

    /// Number of cached releases.
    pub fn len(&self) -> usize {
        self.releases.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.releases.is_empty()
    }
}

/// Errors surfaced by the serving layer. Never panics: the daemon maps
/// these to HTTP statuses.
#[derive(Debug)]
pub enum ServeError {
    /// A release spec that cannot be built (unknown dataset, bad ε, …).
    BadSpec(String),
    /// The DP pipeline refused (budget inconsistency, failed audit, …).
    Dp(DpError),
    /// Socket-level failure (bind, accept).
    Io(String),
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::BadSpec(msg) => write!(f, "bad release spec: {msg}"),
            ServeError::Dp(e) => write!(f, "dp pipeline: {e}"),
            ServeError::Io(msg) => write!(f, "i/o: {msg}"),
        }
    }
}

impl std::error::Error for ServeError {}

impl From<DpError> for ServeError {
    fn from(e: DpError) -> Self {
        ServeError::Dp(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spec_ids_are_deterministic_and_distinguishing() {
        let a = ReleaseSpec::default();
        let b = ReleaseSpec::default();
        assert_eq!(a.id(), b.id());
        let c = ReleaseSpec {
            eps_sanitize: 21.0,
            ..ReleaseSpec::default()
        };
        assert_ne!(a.id(), c.id());
        let d = ReleaseSpec {
            dataset: "CA".to_string(),
            ..ReleaseSpec::default()
        };
        assert_ne!(a.id(), d.id());
    }

    #[test]
    fn validate_rejects_hostile_specs_without_panicking() {
        let bad_ds = ReleaseSpec {
            dataset: "EVIL".to_string(),
            ..ReleaseSpec::default()
        };
        assert!(matches!(bad_ds.validate(), Err(ServeError::BadSpec(_))));
        let bad_eps = ReleaseSpec {
            eps_pattern: -3.0,
            ..ReleaseSpec::default()
        };
        assert!(matches!(bad_eps.validate(), Err(ServeError::BadSpec(_))));
        let bad_eps = ReleaseSpec {
            eps_sanitize: f64::NAN,
            ..ReleaseSpec::default()
        };
        assert!(matches!(bad_eps.validate(), Err(ServeError::BadSpec(_))));
        let degenerate = ReleaseSpec {
            grid: 0,
            ..ReleaseSpec::default()
        };
        assert!(matches!(degenerate.validate(), Err(ServeError::BadSpec(_))));
        // Pattern recognition requires a power-of-two grid.
        let ragged = ReleaseSpec {
            grid: 12,
            ..ReleaseSpec::default()
        };
        assert!(matches!(ragged.validate(), Err(ServeError::BadSpec(_))));
    }
}
