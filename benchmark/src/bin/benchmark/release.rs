//! The `release` workload: what a publisher waits for. One publication
//! runs STPT with the paper's network and then the Fig. 8d roster of
//! baselines over one generated CER instance.

use crate::report::{Counts, Report};
use crate::stats::{median, nearest_rank};
use std::time::Instant;
use stpt_baselines::Mechanism;
use stpt_bench::{
    baseline_roster, make_instance, mre_of, run_baseline, run_stpt_timed, stpt_config, wpo,
    ExperimentEnv, Instance,
};
use stpt_core::{Release, StptConfig, StptOutput};
use stpt_data::{DatasetSpec, SpatialDistribution};
use stpt_nn::seq::{ModelKind, NetConfig};
use stpt_queries::QueryClass;

/// The paper's largest dataset, which every figure of the evaluation uses.
pub const SPEC: DatasetSpec = DatasetSpec::CER;

/// Instances (seeds `s`, `s+1`, `s+2`) built per run; publications cycle
/// through them. Building several also gives `setup_s` a median.
const INSTANCES: u64 = 3;

/// A literal scale, so no `STPT_*` knob of the harness can change it: the
/// paper's 32×32 grid and 220-day release, ε_tot = 30 split 10/20, no
/// post-processing; or a 32×32×48 smoke release (STPT's advantage over
/// Identity needs the paper's grid).
pub fn env(quick: bool) -> ExperimentEnv {
    let (grid, hours, t_train) = if quick { (32, 48, 28) } else { (32, 220, 100) };
    ExperimentEnv {
        reps: 1,
        queries: 300,
        grid,
        hours,
        t_train,
        pp: false,
    }
}

/// STPT as the paper publishes it (AttentionGru 128/64, 20 epochs), with
/// the harness's per-repetition seeds; the smoke scale shrinks the network.
pub fn config(env: &ExperimentEnv, rep: u64, quick: bool) -> StptConfig {
    let mut cfg = stpt_config(env, &SPEC, rep);
    cfg.net = NetConfig {
        seed: cfg.net.seed,
        ..NetConfig::paper_default(ModelKind::AttentionGru)
    };
    if quick {
        cfg.net.embed_dim = 8;
        cfg.net.hidden_dim = 8;
        cfg.net.epochs = 2;
    }
    cfg
}

/// The Fig. 8d roster: the seven Fig. 6 baselines and WPO.
pub fn roster(env: &ExperimentEnv) -> Vec<Box<dyn Mechanism + Send + Sync>> {
    let mut roster = baseline_roster(&SPEC, env.hours);
    roster.push(wpo());
    roster
}

/// Run the workload for at least `seconds` (and at least one publication).
pub fn measure(seed: u64, seconds: f64, quick: bool, report: &mut Report) {
    let env = env(quick);
    let mut setups = Vec::new();
    let instances: Vec<(u64, Instance)> = (0..INSTANCES)
        .map(|k| {
            let t0 = Instant::now();
            let inst = make_instance(&env, SPEC, SpatialDistribution::Uniform, seed + k);
            setups.push(t0.elapsed().as_secs_f64());
            (seed + k, inst)
        })
        .collect();
    let roster = roster(&env);

    let mut latencies = Vec::new();
    let mut stpt_secs = Vec::new();
    let mut baseline_secs = Vec::new();
    let mut counts = Counts::default();
    let window = Instant::now();
    while latencies.is_empty() || window.elapsed().as_secs_f64() < seconds {
        let (rep, inst) = &instances[latencies.len() % instances.len()];
        let cfg = config(&env, *rep, quick);
        counts.attempted += 1;
        let t0 = Instant::now();
        let stpt = run_stpt_timed(inst, &cfg);
        let baselines: Vec<_> = roster
            .iter()
            .map(|m| run_baseline(&env, m.as_ref(), inst, cfg.eps_total(), *rep).0)
            .collect();
        latencies.push(t0.elapsed().as_secs_f64());

        let (out, stpt_s) = match stpt {
            Ok(ok) => ok,
            Err(e) => {
                counts.failed += 1;
                report.check(format!("stpt_release.seed{rep}"), false, e);
                continue;
            }
        };
        stpt_secs.push(stpt_s);
        baseline_secs.push(latencies[latencies.len() - 1] - stpt_s);
        if latencies.len() <= instances.len() {
            check(&env, inst, *rep, &cfg, &out, &baselines[0], report);
        }
    }
    let wall = window.elapsed().as_secs_f64();
    report.count("publication", counts);

    let mut sorted = latencies.clone();
    sorted.sort_by(f64::total_cmp);
    report.metric("setup_s", median(&setups), "s");
    report.metric("throughput_per_s", latencies.len() as f64 / wall, "1/s");
    report.metric("latency_p50_ms", median(&latencies) * 1e3, "ms");
    report.metric("latency_p99_ms", nearest_rank(&sorted, 99.0) * 1e3, "ms");
    report.metric("stpt_release_s", median(&stpt_secs), "s");
    report.note("publications", latencies.len() as f64);
    report.note("baseline_release_s", median(&baseline_secs));
}

/// The first publication of each instance must spend exactly ε_tot, pass
/// its ledger audit, and beat Identity on Random queries (the paper's
/// claim). Later publications of an instance repeat the same work.
fn check(
    env: &ExperimentEnv,
    inst: &Instance,
    rep: u64,
    cfg: &StptConfig,
    out: &StptOutput,
    identity: &Release,
    report: &mut Report,
) {
    let spent = out.epsilon_spent;
    report.check(
        format!("epsilon_spent.seed{rep}"),
        (spent - cfg.eps_total()).abs() < 1e-9,
        format!("spent {spent} of {}", cfg.eps_total()),
    );
    report.check(
        format!("audit_consistent.seed{rep}"),
        out.audit.consistent,
        format!("replayed {} spent {}", out.audit.replayed, out.audit.spent),
    );
    let stpt_mre = mre_of(env, inst, &out.sanitized, QueryClass::Random, rep);
    let identity_mre = mre_of(env, inst, &identity.data, QueryClass::Random, rep);
    report.check(
        format!("stpt_beats_identity.seed{rep}"),
        identity.mechanism == "Identity" && stpt_mre < identity_mre,
        format!("Random MRE: STPT {stpt_mre} vs Identity {identity_mre}"),
    );
}
