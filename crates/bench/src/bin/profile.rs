//! Traced solve with Perfetto export and roofline check.
//! Run: `cargo run --release -p gmg-bench --bin profile`.
fn main() {
    // `GMG_TRACE` is left out: this harness owns its trace capture.
    let hooks = gmg_trace::ObsConfig {
        trace: None,
        ..gmg_trace::ObsConfig::from_env()
    };
    let v = gmg_bench::profile::with_hooks(&hooks, gmg_bench::profile::run);
    gmg_bench::report::save("profile", &v);
}
