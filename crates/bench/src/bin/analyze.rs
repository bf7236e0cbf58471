//! Trace-analysis report: critical path, imbalance, roofline, diffing.
//!
//! ```text
//! cargo run --release -p gmg-bench --bin analyze               # traced 2-rank solve
//!   --trace <file>            analyze an existing Chrome trace JSON
//!   --diff <a> <b>            compare two traces or two bench/BENCH_<n>.json entries
//!   --inject-slowdown OP:PCT  scale one op's durations before analyzing
//!   --min-coverage <pct>      exit 2 below this critical-path coverage (default 95)
//!   --threshold <pct>         diff regression threshold (default 10)
//! ```

use gmg_bench::analyze::{run, AnalyzeOpts};

fn main() {
    let mut opts = AnalyzeOpts::default();
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--trace" => {
                opts.trace_path = Some(args.next().expect("--trace needs a path").into());
            }
            "--diff" => {
                let a = args.next().expect("--diff needs two paths");
                let b = args.next().expect("--diff needs two paths");
                opts.diff = Some((a.into(), b.into()));
            }
            "--inject-slowdown" => {
                let spec = args.next().expect("--inject-slowdown needs OP:PCT");
                let (op, pct) = spec
                    .rsplit_once(':')
                    .expect("--inject-slowdown needs OP:PCT");
                let pct: f64 = pct.parse().expect("--inject-slowdown PCT must be numeric");
                opts.inject_slowdown = Some((op.to_string(), pct));
            }
            "--min-coverage" => {
                opts.min_coverage_pct = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--min-coverage needs a number");
            }
            "--threshold" => {
                opts.threshold_pct = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--threshold needs a number");
            }
            other => {
                eprintln!("unknown argument: {other}");
                std::process::exit(2);
            }
        }
    }
    // `GMG_TRACE` is left out: it is this harness's *export* channel
    // (the analyzed — possibly injection-scaled — trace); an outer
    // capture would overwrite it with a trace of the analyzer.
    let hooks = gmg_trace::ObsConfig {
        trace: None,
        ..gmg_trace::ObsConfig::from_env()
    };
    std::process::exit(gmg_bench::profile::with_hooks(&hooks, || run(&opts)));
}
