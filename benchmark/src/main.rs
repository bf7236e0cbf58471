//! gmgbench — absolute time-to-solution ledger over six solve workloads,
//! decomposed by layer. See `benchmark/README.md`.
//!
//! * `gmgbench --workload <name> [--seed S] [--seconds T] [--trace 0|1]`
//!   runs one workload in this process and ends its output with one JSON
//!   line (`--trace 0`: the end-to-end metrics; `--trace 1`: the
//!   per-layer metrics). `--workload probes` runs the probes alone.
//! * `gmgbench` with no workload runs every workload, each in a process
//!   of its own, end-to-end pass then traced pass, prints the derived
//!   cross-workload ratios and writes `benchmark/out/<unix-time>.json`.
//! * `gmgbench --repeat-check` runs the end-to-end pass twice and fails
//!   unless the two sets agree within every metric's bound.

mod host;
mod layers;
mod metrics;
mod probes;
mod rhs;
mod single;
mod stats;
mod suite;
mod workloads;

use std::process::ExitCode;
use workloads::{RunSpec, WORKLOADS};

/// `run_seconds` of `BENCHMARK.json` and the default `--seconds`.
pub const RUN_SECONDS: u64 = 10;

pub struct Args {
    pub workload: Option<String>,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub repeat_check: bool,
    pub print_benchmark_json: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut a = Args {
        workload: None,
        seed: 1,
        seconds: RUN_SECONDS as f64,
        trace: false,
        repeat_check: false,
        print_benchmark_json: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => a.workload = Some(value()?),
            "--seed" => a.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                a.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(a.seconds > 0.0 && a.seconds <= 60.0) {
                    return Err("--seconds must be in (0, 60]".into());
                }
            }
            "--trace" => {
                a.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            "--repeat-check" => a.repeat_check = true,
            "--print-benchmark-json" => a.print_benchmark_json = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(a)
}

fn main() -> ExitCode {
    // A rank process spawned by a `ProcessWorld` re-enters here and
    // never returns from this call.
    gmg_comm::process::run_child_if_spawned(|entry, mut ctx, args| match entry {
        "solve" => {
            let spec = RunSpec::decode(args).expect("controller passes a valid run spec");
            workloads::solve_rank(&mut ctx, &spec).encode()
        }
        "comm-probe" => probes::comm_rank(&mut ctx).encode(),
        "noop" => String::new(),
        other => panic!("unknown process-world entry {other:?}"),
    });

    let result = parse_args().and_then(|args| {
        if args.print_benchmark_json {
            print!("{}", suite::benchmark_json());
            return Ok(true);
        }
        match args.workload.as_deref() {
            None => suite::run_all(&args),
            Some("probes") => single::run_probes_only(),
            Some(name) => {
                let w = workloads::find(name).ok_or_else(|| {
                    let known: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
                    format!("unknown workload {name:?}; known: probes, {}", known.join(", "))
                })?;
                single::run_one(w, &args)
            }
        }
    });
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("gmgbench: {e}");
            ExitCode::from(2)
        }
    }
}
