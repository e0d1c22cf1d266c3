//! The live sampler publishes its first resource sample at start-up, not
//! one period later. `start_collector` runs once per process, so this
//! check is a test binary of its own.

use std::time::{Duration, Instant};

#[test]
fn first_sample_lands_without_waiting_a_period() {
    if !stpt_obs::resources::available() {
        return; // no readable /proc: the sampler has nothing to publish
    }
    stpt_obs::set_live_enabled(true);
    stpt_obs::timeseries::start_collector(Duration::from_secs(3600));
    let deadline = Instant::now() + Duration::from_secs(5);
    while !stpt_obs::metrics::snapshot()
        .gauges
        .iter()
        .any(|&(name, _)| name == "process.rss_bytes")
    {
        assert!(
            Instant::now() < deadline,
            "no process.rss_bytes sample within 5 s of start-up"
        );
        std::thread::sleep(Duration::from_millis(10));
    }
}
