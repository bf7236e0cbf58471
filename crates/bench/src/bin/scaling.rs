//! Scaling observatory: contention-modeled schedule simulation of the
//! V-cycle at up to 100k ranks, with flight-grade wait attribution and
//! gated weak/strong scaling reports.
//! Run: `cargo run --release -p gmg-bench --bin scaling`.
//! `--ranks N` sets the headline rank count (default 10648 = 22³);
//! `--system perlmutter|frontier` picks the machine model;
//! `--inject-slowdown LEVEL:PCT` sets the planted slowdown for the
//! positive-polarity attribution self-test (the clean negative control
//! always runs too); `--window A:B` picks the rank window for the
//! Perfetto/critical-path forensics. Exit code 1 unless every gate
//! (model fit ≤ 10% misfit, ≥ 90% classified waits, both injection
//! polarities) passes.
use gmg_bench::scaling::ScalingOpts;

fn parse_inject(s: &str) -> Option<(usize, f64)> {
    let (l, p) = s.split_once(':')?;
    Some((l.parse().ok()?, p.parse().ok()?))
}

fn parse_window(s: &str) -> Option<(usize, usize)> {
    let (a, b) = s.split_once(':')?;
    let (a, b) = (a.parse().ok()?, b.parse().ok()?);
    (a < b).then_some((a, b))
}

fn main() {
    let mut opts = ScalingOpts::default();
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--ranks" => match args.next().and_then(|v| v.parse().ok()) {
                Some(r) if r >= 8 => opts.ranks = r,
                _ => {
                    eprintln!("--ranks needs an integer >= 8");
                    std::process::exit(2);
                }
            },
            "--system" => match args.next().as_deref() {
                Some("perlmutter") => opts.system = gmg_machine::gpu::System::Perlmutter,
                Some("frontier") => opts.system = gmg_machine::gpu::System::Frontier,
                _ => {
                    eprintln!("--system needs `perlmutter` or `frontier`");
                    std::process::exit(2);
                }
            },
            "--inject-slowdown" => match args.next().as_deref().and_then(parse_inject) {
                Some(inj) => opts.inject = inj,
                None => {
                    eprintln!("--inject-slowdown needs LEVEL:PCT (e.g. 2:30)");
                    std::process::exit(2);
                }
            },
            "--window" => match args.next().as_deref().and_then(parse_window) {
                Some(w) => opts.window = w,
                None => {
                    eprintln!("--window needs A:B with A < B (e.g. 0:8)");
                    std::process::exit(2);
                }
            },
            "--help" | "-h" => {
                println!(
                    "usage: scaling [--ranks N] [--system perlmutter|frontier] \
                     [--inject-slowdown LEVEL:PCT] [--window A:B]"
                );
                return;
            }
            other => {
                eprintln!("unknown argument: {other} (try --help)");
                std::process::exit(2);
            }
        }
    }
    let dir = gmg_bench::report::results_dir();
    let v = gmg_bench::profile::with_env_hooks(|| gmg_bench::scaling::run_in(&dir, &opts));
    gmg_bench::report::save("scaling", &v);
    if v["ok"] != gmg_trace::Json::Bool(true) {
        std::process::exit(1);
    }
}
