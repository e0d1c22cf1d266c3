//! Violating: the live-metrics address (`STPT_METRICS_ADDR`) is read only
//! by `stpt_obs::init_from_env`, and a retired telemetry directory
//! (`STPT_TELEMETRY_DIR`) or resource-sampling toggle (`STPT_RESOURCES`)
//! read anywhere else would fork the exporter's configuration surface and
//! break hermeticity.
pub fn rogue_scrape_addr() -> Option<String> {
    std::env::var("STPT_METRICS_ADDR").ok()
}

pub fn rogue_telemetry_dir() -> bool {
    std::env::var_os("STPT_TELEMETRY_DIR").is_some()
}

pub fn rogue_resource_gate() -> bool {
    std::env::var("STPT_RESOURCES").map_or(true, |v| v != "0")
}
