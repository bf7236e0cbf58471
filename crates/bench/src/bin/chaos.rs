//! Seeded chaos soak: fault-injected distributed solves, self-healing, and
//! graceful failure reporting.
//! Run: `cargo run --release -p gmg-bench --bin chaos -- --seed N`.
//! `--transport process` reruns the campaign with every rank as a real OS
//! process over the UDS datagram transport; add `--kill-process R` to
//! SIGKILL rank R mid-solve and demonstrate checkpoint-based rejoin (the
//! merged flight dump's `analyze_report.md` names the culprit). Each kill
//! leg's dump is analyzed in place; `chaos.json` names it under
//! `kill.forensics.dump_dir`.
//! Set `GMG_TRACE=<dir>` to also save a capture of the run there (fault
//! and recovery events appear on the dedicated fault track).
fn main() {
    // If this process was spawned as a rank of a multi-process world,
    // run that rank's entry and exit — never returns in a child.
    #[cfg(unix)]
    gmg_comm::process::run_child_if_spawned(|entry, mut ctx, args| match entry {
        "elastic" => gmg_bench::chaos::elastic_child(&mut ctx, args),
        other => panic!("unknown chaos process entry {other:?}"),
    });

    let mut seed = 7u64;
    let mut process_mode = false;
    let mut kill_process: Option<usize> = None;
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
            "--kill-process" => match args.next().and_then(|v| v.parse().ok()) {
                Some(r) => kill_process = Some(r),
                None => {
                    eprintln!("--kill-process needs a rank number");
                    std::process::exit(2);
                }
            },
            "--help" | "-h" => {
                println!("usage: chaos [--seed N] [--transport thread|process] [--kill-process R]");
                return;
            }
            other => {
                eprintln!("unknown argument: {other} (try --help)");
                std::process::exit(2);
            }
        }
    }
    if kill_process.is_some() && !process_mode {
        eprintln!("--kill-process requires --transport process");
        std::process::exit(2);
    }
    let v = if process_mode {
        #[cfg(unix)]
        {
            gmg_bench::report::with_env_hooks(|| {
                gmg_bench::chaos::run_process_campaign(seed, kill_process)
            })
        }
        #[cfg(not(unix))]
        {
            eprintln!("--transport process needs a unix host");
            std::process::exit(2);
        }
    } else {
        gmg_bench::report::with_env_hooks(|| gmg_bench::chaos::run_with_seed(seed))
    };
    gmg_bench::report::save("chaos", &v);
    if v["ok"] != gmg_trace::Json::Bool(true) {
        std::process::exit(1);
    }
}
