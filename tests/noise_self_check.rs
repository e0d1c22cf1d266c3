//! The audit's noise self-check judges each release on its own draws.
//!
//! Its own test binary: it switches the process-global trace gate on, which
//! must not leak into the other integration tests.

use rand::SeedableRng;
use stpt_suite::core::{run_stpt, StptConfig};
use stpt_suite::data::{Dataset, DatasetSpec, Granularity, SpatialDistribution};
use stpt_suite::obs::NoiseStatus;

/// Three traced releases in a row on one thread, at the fig_pp smoke
/// scale: each must reach a `consistent` verdict from the draws it made
/// itself, whatever releases ran before it in the process.
#[test]
fn every_traced_release_is_judged_on_its_own_draws() {
    let mut rng = rand::rngs::StdRng::seed_from_u64(5);
    let ds = Dataset::generate_at(
        DatasetSpec::CER,
        SpatialDistribution::Uniform,
        Granularity::Daily,
        48,
        &mut rng,
    );
    let clipped = ds.consumption_matrix(8, 8, true);
    let mut cfg = StptConfig::fast(ds.clip_bound());
    cfg.t_train = 28;
    let eps_total = cfg.eps_total();

    stpt_suite::obs::set_enabled(true);
    let verdicts: Vec<(f64, Result<NoiseStatus, String>)> = [1.0, 2.0, 5.0]
        .into_iter()
        .map(|eps| {
            let mut cfg = cfg.clone();
            cfg.eps_pattern *= eps / eps_total;
            cfg.eps_sanitize *= eps / eps_total;
            let verdict = run_stpt(&clipped, &cfg)
                .map(|out| out.audit.noise)
                .map_err(|e| e.to_string());
            (eps, verdict)
        })
        .collect();
    stpt_suite::obs::set_enabled(false);

    for (eps, verdict) in verdicts {
        match verdict {
            Ok(noise) => assert_eq!(noise, NoiseStatus::Consistent, "release at eps {eps}"),
            Err(e) => panic!("release at eps {eps} failed: {e}"),
        }
    }
}
