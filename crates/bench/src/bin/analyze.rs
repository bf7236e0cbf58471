//! Trace-analysis report: critical path, wait states, imbalance,
//! roofline, a failure dump's verdict, diffing. The flags are listed in
//! `gmg_bench::analyze`; a bad one exits 2 with a message.

use gmg_bench::analyze::{run, AnalyzeOpts};

fn main() {
    let opts = AnalyzeOpts::parse(std::env::args().skip(1)).unwrap_or_else(|e| {
        eprintln!("analyze: {e}");
        std::process::exit(2);
    });
    // `GMG_TRACE` is left out: it is where this harness saves its own
    // (possibly injection-scaled) capture of the solve; an outer capture
    // would overwrite it with a capture of the analyzer.
    let hooks = gmg_trace::ObsConfig {
        trace: None,
        ..gmg_trace::ObsConfig::from_env()
    };
    std::process::exit(gmg_bench::report::with_hooks(&hooks, || run(&opts)));
}
