//! # gmg-bench — harnesses regenerating every table and figure
//!
//! One module per artifact of the paper's evaluation, all listed in
//! [`PAPER`] and regenerated by one binary: `cargo run -p gmg-bench --bin
//! paper` writes all twelve, `-- figure4 table2` only those.
//!
//! | paper element | module |
//! |---|---|
//! | Figure 3 — time per level             | [`figure3`] |
//! | Figure 4 — vs HPGMG                   | [`figure4`] |
//! | Figure 5 — kernel GStencil/s + model  | [`figure5`] |
//! | Figure 6 — exchange GB/s + model      | [`figure6`] |
//! | Figure 7 — potential speedup scatter  | [`figure7`] |
//! | Figure 8 — weak scaling               | [`figure8`] |
//! | Figure 9 — strong scaling             | [`figure9`] |
//! | Table II — finest-level op fractions  | [`table2`] |
//! | Table III — Φ (roofline basis)        | [`table3`] |
//! | Table IV — theoretical AI             | [`table4`] |
//! | Table V — Φ (theoretical-AI basis)    | [`table5`] |
//! | Section V — design-choice ablations   | [`ablations`] |
//!
//! The other binaries are one per job: [`measured`] — the real 7-point
//! kernels timed on this host and fitted to the paper's latency model,
//! run via `--bin measured` — [`chaos`] — the seeded fault-injection soak
//! (transport faults, solver self-healing, graceful rank death and the
//! forensics of the dump it leaves: the culprit named, the waits
//! classified), run via `--bin chaos -- --seed N` — and [`gate`] — the perfgate hot-kernel
//! macro-benchmark and noise-robust regression gate over the committed
//! `bench/BENCH_<n>.json` trajectory, run via `--bin perfgate`
//! (`-- --check` in CI) — and [`analyze`] — the one trace report
//! (per-V-cycle critical path, wait classes, load imbalance, roofline
//! attribution, outliers, a failure's verdict, run-vs-run diffing, and
//! flamegraph folded stacks of the span tree) over a traced solve or any
//! flight dump — a failure's or a `GMG_TRACE` capture — run via `--bin
//! analyze` (`-- --dump DIR`, `-- --diff a b` to compare runs) — and
//! [`scaling`] — the
//! 10k-rank scaling observatory (contention-modeled schedule simulation
//! via `gmg-scale`, weak/strong sweeps, alpha–beta+contention model fit,
//! flight-grade wait attribution, rank-window Perfetto forensics, and
//! the planted-slowdown polarity self-test), run via `--bin scaling`
//! (`--ranks N`, `--inject-slowdown LEVEL:PCT`, `--window A:B`).
//! Every binary runs inside [`report::with_env_hooks`], so it honours
//! `GMG_TRACE=<dir>` to save a capture of its run there as a flight dump,
//! with its Perfetto export `trace.json` (`analyze --dump <dir>` reports
//! on it).
//!
//! Each `run()` prints the same rows/series the paper reports and returns a
//! JSON value; binaries also persist it under `results/`. The *real* CPU
//! kernels are timed by [`gate`] and by `gmgbench` (`benchmark/`).

use gmg_trace::Json;

pub mod ablations;
pub mod analyze;
pub mod chaos;
pub mod figure3;
pub mod figure4;
pub mod figure5;
pub mod figure6;
pub mod figure7;
pub mod figure8;
pub mod figure9;
pub mod gate;
pub mod measured;
pub mod plot;
pub mod report;
pub mod scaling;
pub mod table2;
pub mod table3;
pub mod table4;
pub mod table5;

/// One artifact of the paper's evaluation: its `results/<name>.json` stem
/// and the harness that regenerates it.
pub type Artifact = (&'static str, fn() -> Json);

/// The paper's twelve artifacts, in the order `--bin paper` writes them.
pub const PAPER: &[Artifact] = &[
    ("figure3", figure3::run),
    ("figure4", figure4::run),
    ("figure5", figure5::run),
    ("figure6", figure6::run),
    ("figure7", figure7::run),
    ("figure8", figure8::run),
    ("figure9", figure9::run),
    ("table2", table2::run),
    ("table3", table3::run),
    ("table4", table4::run),
    ("table5", table5::run),
    ("ablations", ablations::run),
];

/// The artifacts `names` asks for, in the order given; every artifact, in
/// table order, when `names` is empty. A name not in [`PAPER`] is an
/// error whose message lists the valid ones.
pub fn select(names: &[String]) -> Result<Vec<Artifact>, String> {
    if names.is_empty() {
        return Ok(PAPER.to_vec());
    }
    names
        .iter()
        .map(|name| {
            PAPER
                .iter()
                .find(|(n, _)| n == name)
                .copied()
                .ok_or_else(|| {
                    let valid: Vec<&str> = PAPER.iter().map(|(n, _)| *n).collect();
                    format!("unknown artifact {name:?}; valid: {}", valid.join(" "))
                })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn names(arts: &[Artifact]) -> Vec<&'static str> {
        arts.iter().map(|(n, _)| *n).collect()
    }

    #[test]
    fn select_nothing_is_every_artifact_in_table_order() {
        let all = select(&[]).unwrap();
        assert_eq!(all.len(), 12);
        assert_eq!(names(&all), names(PAPER));
    }

    #[test]
    fn select_names_one_artifact() {
        assert_eq!(
            names(&select(&["ablations".into()]).unwrap()),
            ["ablations"]
        );
    }

    #[test]
    fn select_rejects_an_unknown_name_and_lists_the_valid_ones() {
        let err = select(&["figure4".into(), "profile".into()]).unwrap_err();
        assert!(err.contains("\"profile\""), "{err}");
        for (name, _) in PAPER {
            assert!(err.contains(name), "{name} missing from: {err}");
        }
    }
}
