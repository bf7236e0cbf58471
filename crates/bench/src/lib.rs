//! # gmg-bench — harnesses regenerating every table and figure
//!
//! One module (and one `cargo run -p gmg-bench --bin <name>` binary) per
//! experiment in the paper's evaluation:
//!
//! | paper element | module / binary |
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
//!
//! Plus [`ablations`] — the Section V design-choice studies (CA on/off,
//! GPU-aware MPI, rendezvous thresholds, brick size, ordering, CPU
//! offload), run via `--bin ablations` — [`profile`] — a traced solve
//! with Perfetto (Chrome trace-event) export and a roofline check, run via
//! `--bin profile` — and [`chaos`] — the seeded fault-injection soak
//! (transport faults, solver self-healing, graceful rank death), run via
//! `--bin chaos -- --seed N` — and [`gate`] — the perfgate hot-kernel
//! macro-benchmark and noise-robust regression gate over the committed
//! `bench/BENCH_<n>.json` trajectory, run via `--bin perfgate`
//! (`-- --check` in CI) — and [`analyze`] — the trace-analysis report
//! (per-V-cycle critical path, load imbalance, roofline attribution,
//! outliers, run-vs-run diffing) over a traced solve or any `GMG_TRACE`
//! capture, run via `--bin analyze` (`-- --diff a b` to compare runs) —
//! and [`postmortem`] — the flight-recorder crash forensics pipeline
//! (seeded killed-rank solve → automatic dump → culprit naming,
//! wait-state attribution, edge-exact critical path, Perfetto timeline
//! with cross-rank flow arrows), run via `--bin postmortem -- --seed N`
//! or `-- --dump DIR` — and [`flame`] — the sampled kernel efficiency
//! observatory (gmg-prof folded stacks, per-phase decomposition of the
//! bricked applyOp, roofline columns, sampled-vs-traced cross-validation,
//! `--inject-slowdown PHASE:PCT` attribution self-test), run via
//! `--bin flame` — and [`live`] — the cross-process live telemetry demo
//! (per-rank gmg-live shippers, mid-solve Prometheus scrape, straggler /
//! silent-rank alerting with both polarities exit-code-enforced), run via
//! `--bin live -- --seed N` (`--inject-slowdown R` plants a straggler,
//! `--kill-process R` SIGKILLs a rank mid-solve) — and [`scaling`] — the
//! 10k-rank scaling observatory (contention-modeled schedule simulation
//! via `gmg-scale`, weak/strong sweeps, alpha–beta+contention model fit,
//! flight-grade wait attribution, rank-window Perfetto forensics, and
//! the planted-slowdown polarity self-test), run via `--bin scaling`
//! (`--ranks N`, `--inject-slowdown LEVEL:PCT`, `--window A:B`).
//! Every binary honours `GMG_TRACE=<path>` to capture a trace of its run,
//! `GMG_PROF=<path>` to write folded sampling stacks of its run, and
//! `GMG_METRICS=<path>` to write its final metrics snapshot as JSON.
//!
//! Each `run()` prints the same rows/series the paper reports and returns a
//! JSON value; binaries also persist it under `results/`. The *real* CPU
//! kernels are timed by [`gate`] and by `gmgbench` (`benchmark/`).

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
pub mod flame;
pub mod gate;
pub mod live;
pub mod measured;
pub mod plot;
pub mod postmortem;
pub mod profile;
pub mod report;
pub mod scaling;
pub mod table2;
pub mod table3;
pub mod table4;
pub mod table5;
