//! Live telemetry demo: multi-process solve with per-rank gmg-live
//! shippers, a controller-embedded collector serving Prometheus text,
//! a mid-solve endpoint scrape, and exit-code-enforced alert polarity.
//! Run: `cargo run --release -p gmg-bench --bin live -- --seed N`.
//! `--inject-slowdown R` plants an observation-layer straggler that the
//! alert engine must name; `--kill-process R` SIGKILLs rank R mid-solve
//! and the silent-rank detector must catch it (with the endpoint
//! parseable before and after the rejoin epoch). The clean leg always
//! runs as the negative control and must raise zero alerts.
//! `--transport thread` runs the single-process local-shim campaign
//! instead. `GMG_LIVE=0` disables all shipping; `GMG_PROM_ADDR` pins
//! the endpoint address.
fn main() {
    // If this process was spawned as a rank of a multi-process world,
    // run that rank's entry and exit — never returns in a child.
    #[cfg(unix)]
    gmg_comm::process::run_child_if_spawned(|entry, mut ctx, args| match entry {
        "live" => gmg_bench::live::live_child(&mut ctx, args),
        other => panic!("unknown live process entry {other:?}"),
    });

    let mut seed = 7u64;
    let mut process_mode = cfg!(unix);
    let mut slow: Option<usize> = None;
    let mut kill: Option<usize> = None;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--seed" => match args.next().and_then(|v| v.parse().ok()) {
                Some(s) => seed = s,
                None => {
                    eprintln!("--seed needs an unsigned integer");
                    std::process::exit(2);
                }
            },
            "--transport" => match args.next().as_deref() {
                Some("thread") => process_mode = false,
                Some("process") => process_mode = true,
                _ => {
                    eprintln!("--transport needs `thread` or `process`");
                    std::process::exit(2);
                }
            },
            "--inject-slowdown" => match args.next().and_then(|v| v.parse().ok()) {
                Some(r) => slow = Some(r),
                None => {
                    eprintln!("--inject-slowdown needs a rank number");
                    std::process::exit(2);
                }
            },
            "--kill-process" => match args.next().and_then(|v| v.parse().ok()) {
                Some(r) => kill = Some(r),
                None => {
                    eprintln!("--kill-process needs a rank number");
                    std::process::exit(2);
                }
            },
            "--help" | "-h" => {
                println!(
                    "usage: live [--seed N] [--transport thread|process] \
                     [--inject-slowdown R] [--kill-process R]"
                );
                return;
            }
            other => {
                eprintln!("unknown argument: {other} (try --help)");
                std::process::exit(2);
            }
        }
    }
    if (kill.is_some() || slow.is_some()) && !process_mode {
        eprintln!("--kill-process / --inject-slowdown require --transport process");
        std::process::exit(2);
    }
    let v = if process_mode {
        #[cfg(unix)]
        {
            gmg_bench::profile::with_env_hooks(|| {
                gmg_bench::live::run_process_campaign(seed, kill, slow)
            })
        }
        #[cfg(not(unix))]
        {
            eprintln!("--transport process needs a unix host");
            std::process::exit(2);
        }
    } else {
        gmg_bench::profile::with_env_hooks(|| gmg_bench::live::run_with_seed(seed))
    };
    gmg_bench::report::save("live", &v);
    if v["ok"] != gmg_trace::Json::Bool(true) {
        std::process::exit(1);
    }
}
