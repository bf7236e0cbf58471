//! Flight-recorder crash postmortem.
//! `--seed N` (default 5): run a seeded killed-rank chaos solve, capture
//! the automatic flight dump, and self-analyze it — the CI acceptance
//! path. `--dump DIR`: analyze an existing dump directory in place.
//! Both modes write `postmortem.md` + `postmortem_trace.json` beside the
//! ring data and exit non-zero unless the analysis succeeds.
fn main() {
    let mut seed = 5u64;
    let mut dump: Option<std::path::PathBuf> = None;
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
            "--dump" => match args.next() {
                Some(d) => dump = Some(d.into()),
                None => {
                    eprintln!("--dump needs a directory");
                    std::process::exit(2);
                }
            },
            "--help" | "-h" => {
                println!("usage: postmortem [--seed N | --dump DIR]");
                return;
            }
            other => {
                eprintln!("unknown argument: {other} (try --help)");
                std::process::exit(2);
            }
        }
    }
    let v = gmg_bench::profile::with_env_hooks(|| match dump {
        Some(dir) => gmg_bench::postmortem::analyze_dump(&dir),
        None => gmg_bench::postmortem::run_seeded(seed),
    });
    gmg_bench::report::save("postmortem", &v);
    if v["ok"] != gmg_trace::Json::Bool(true) {
        std::process::exit(1);
    }
}
