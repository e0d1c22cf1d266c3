//! Par == seq: thread count may change wall-clock, never bytes.
//!
//! Inside the library, only training fans out through the rayon seam: each
//! minibatch gradient is summed over a fixed number of shards in shard
//! order, so the whole pipeline must produce bit-identical output whether
//! it runs on one worker or many. These tests pin that contract on the
//! full STPT pipeline (sanitised release, audit ledger and workload
//! metrics), raw and post-processed.

use std::sync::{Mutex, MutexGuard, OnceLock};

use rand::SeedableRng;
use stpt_suite::core::{run_stpt_on_dataset, ReleaseStage, StptConfig};
use stpt_suite::data::{Dataset, DatasetSpec, Granularity, SpatialDistribution};
use stpt_suite::queries::{evaluate_workload, generate_queries, QueryClass, WorkloadResult};

const GRID: usize = 8;
const DAYS: usize = 48;
const T_TRAIN: usize = 28;

/// `rayon::set_num_threads` is process-global, so tests in this binary
/// serialise around it and restore the env-driven default on drop (the
/// same lock + reset-guard pattern the shim's own tests use).
fn lock_threads() -> MutexGuard<'static, ()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    LOCK.get_or_init(Mutex::default)
        .lock()
        .unwrap_or_else(|e| e.into_inner())
}

struct ResetThreads;
impl Drop for ResetThreads {
    fn drop(&mut self) {
        rayon::set_num_threads(0);
    }
}

fn test_dataset(seed: u64) -> Dataset {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let mut spec = DatasetSpec::CER;
    spec.households = 300;
    Dataset::generate_at(
        spec,
        SpatialDistribution::Uniform,
        Granularity::Daily,
        DAYS,
        &mut rng,
    )
}

fn test_config(ds: &Dataset) -> StptConfig {
    let mut cfg = StptConfig::fast(ds.clip_bound());
    cfg.t_train = T_TRAIN;
    cfg.depth = 2;
    cfg.net.embed_dim = 8;
    cfg.net.hidden_dim = 8;
    cfg.net.window = 4;
    cfg.net.epochs = 3;
    cfg
}

fn bits(xs: &[f64]) -> Vec<u64> {
    xs.iter().map(|v| v.to_bits()).collect()
}

/// Run the full pipeline + workload evaluation at a given worker count.
fn pipeline_at(
    threads: usize,
    ds: &Dataset,
    postprocess: bool,
) -> (Vec<u64>, f64, u64, u64, WorkloadResult) {
    rayon::set_num_threads(threads);
    let mut cfg = test_config(ds);
    cfg.postprocess = postprocess;
    let out = run_stpt_on_dataset(ds, GRID, GRID, &cfg).expect("pipeline runs");
    let want = if postprocess {
        ReleaseStage::PostProcessed
    } else {
        ReleaseStage::Raw
    };
    assert_eq!(out.stage, want, "release-stage provenance mismatch");
    let truth = ds.consumption_matrix(GRID, GRID, true);
    let mut qrng = rand::rngs::StdRng::seed_from_u64(41);
    let queries = generate_queries(QueryClass::Random, 120, truth.shape(), &mut qrng);
    let wl = evaluate_workload(&truth, &out.sanitized, &queries);
    (
        bits(out.sanitized.data()),
        out.epsilon_spent,
        out.audit.replayed.to_bits(),
        out.audit.spent.to_bits(),
        wl,
    )
}

/// The expensive anchor: the whole STPT pipeline — quadtree, pattern
/// recognition, per-partition Laplace noise, audit ledger, query metrics
/// — is bit-identical at one worker and at four.
#[test]
fn full_pipeline_is_bit_identical_across_thread_counts() {
    let _lock = lock_threads();
    let _reset = ResetThreads;
    let ds = test_dataset(1234);
    let (seq_data, seq_eps, seq_rep, seq_spent, seq_wl) = pipeline_at(1, &ds, false);
    let (par_data, par_eps, par_rep, par_spent, par_wl) = pipeline_at(4, &ds, false);

    assert_eq!(seq_data, par_data, "sanitised release diverged");
    assert_eq!(seq_eps.to_bits(), par_eps.to_bits());
    assert_eq!(
        (seq_rep, seq_spent),
        (par_rep, par_spent),
        "audit ledger diverged"
    );
    assert_eq!(seq_wl.queries, par_wl.queries);
    assert_eq!(seq_wl.mre.to_bits(), par_wl.mre.to_bits(), "MRE diverged");
    assert_eq!(
        seq_wl.median_re.to_bits(),
        par_wl.median_re.to_bits(),
        "median RE diverged"
    );
}

/// Same anchor with the consistency projection enabled: the stage is pure
/// deterministic arithmetic over an already-deterministic release, so the
/// post-processed output (and the ledger that proves the stage spent
/// ε = 0) must also be byte-identical across worker counts.
#[test]
fn postprocessed_pipeline_is_bit_identical_across_thread_counts() {
    let _lock = lock_threads();
    let _reset = ResetThreads;
    let ds = test_dataset(1234);
    let (seq_data, seq_eps, seq_rep, seq_spent, seq_wl) = pipeline_at(1, &ds, true);
    let (par_data, par_eps, par_rep, par_spent, par_wl) = pipeline_at(4, &ds, true);

    assert_eq!(seq_data, par_data, "post-processed release diverged");
    assert_eq!(seq_eps.to_bits(), par_eps.to_bits());
    assert_eq!(
        (seq_rep, seq_spent),
        (par_rep, par_spent),
        "audit ledger diverged"
    );
    assert_eq!(seq_wl.queries, par_wl.queries);
    assert_eq!(seq_wl.mre.to_bits(), par_wl.mre.to_bits(), "MRE diverged");
    // Projection output is non-negative by construction.
    let zero_neg = seq_data.iter().all(|&b| f64::from_bits(b) >= 0.0);
    assert!(zero_neg, "projection left a negative cell");
}
