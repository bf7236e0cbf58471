//! analyze — trace-analysis reports: per-V-cycle critical path, load
//! imbalance, comm/compute overlap, roofline attribution against the
//! `gmg-machine` model, outlier detection, and run-vs-run diffing. Next
//! to the report it writes `flame.folded`: the span tree folded into
//! flamegraph stacks of self time (`gmg_trace::folded::fold`).
//!
//! The analysis engine itself lives in `gmg_metrics::analysis` (it only
//! needs a [`gmg_trace::Trace`]); this module supplies the machine
//! envelope from `gmg-machine` measurements, the traced reference solve,
//! artifact loading, and the markdown report plumbing.
//!
//! ```text
//! cargo run --release -p gmg-bench --bin analyze              # traced 2-rank solve
//!   --trace <file>            analyze an existing Chrome trace JSON (GMG_TRACE output)
//!   --diff <a> <b>            compare two traces, or two bench/BENCH_<n>.json entries
//!   --inject-slowdown OP:PCT  scale one op's durations before analyzing
//!   --min-coverage <pct>      exit 2 below this critical-path coverage (default 95)
//!   --threshold <pct>         diff regression threshold (default 10)
//! ```
//!
//! In the default mode the binary captures its own trace, so `GMG_TRACE`
//! is honoured by exporting that capture rather than nesting a second
//! scope around it.

use gmg_comm::runtime::RankWorld;
use gmg_core::solver::{GmgSolver, SolverConfig};
use gmg_machine::microbench::measure_host;
use gmg_machine::model::LatencyThroughput;
use gmg_mesh::{Box3, Decomposition, Point3};
use gmg_metrics::analysis::{self, MachineEnvelope};
use gmg_metrics::Analysis;
use gmg_trace::{folded, Json, Trace, TraceSummary, Track};
use std::fmt::Write as _;
use std::path::{Path, PathBuf};

/// Harness options (the binary's command line).
#[derive(Clone, Debug)]
pub struct AnalyzeOpts {
    /// Analyze this Chrome trace JSON instead of running a solve.
    pub trace_path: Option<PathBuf>,
    /// Compare two artifacts (traces or perfgate trajectory entries).
    pub diff: Option<(PathBuf, PathBuf)>,
    /// Scale every compute span of this op by `1 + pct/100` first.
    pub inject_slowdown: Option<(String, f64)>,
    /// Fail (exit 2) when critical-path coverage falls below this.
    pub min_coverage_pct: f64,
    /// Regression threshold for `--diff`, in percent.
    pub threshold_pct: f64,
}

impl Default for AnalyzeOpts {
    fn default() -> Self {
        Self {
            trace_path: None,
            diff: None,
            inject_slowdown: None,
            min_coverage_pct: 95.0,
            threshold_pct: 10.0,
        }
    }
}

/// The deterministic reference problem: 32³ split across two ranks, three
/// levels, four V-cycles, so the trace shows real send/recv/pack/unpack
/// activity.
pub fn traced_solve() -> Trace {
    let decomp = Decomposition::new(Box3::cube(32), Point3::new(2, 1, 1));
    let cfg = SolverConfig {
        num_levels: 3,
        tolerance: 0.0,
        max_vcycles: 4,
        ..SolverConfig::test_default()
    };
    let d = &decomp;
    let (_, trace) = gmg_trace::capture(|| {
        RankWorld::run(2, move |mut ctx| {
            let mut s = GmgSolver::new(d.clone(), ctx.rank(), cfg);
            s.solve(&mut ctx);
        })
    });
    trace
}

/// Fit the comm α/β to the trace's own send spans (message bytes vs
/// seconds). None when there are too few distinct sizes or the fitted
/// slope would be non-positive (tiny runs where noise swamps the trend).
fn fitted_comm(trace: &Trace) -> Option<LatencyThroughput> {
    let samples: Vec<(f64, f64)> = trace
        .events
        .iter()
        .filter(|e| e.track == Track::Comm && e.op.name() == "send" && e.counters.message_bytes > 0)
        .map(|e| (e.counters.message_bytes as f64, e.dur_ns as f64 / 1e9))
        .collect();
    let mut xs: Vec<u64> = samples.iter().map(|&(x, _)| x as u64).collect();
    xs.sort_unstable();
    xs.dedup();
    if xs.len() < 2 {
        return None;
    }
    // Pre-check the OLS slope so `fit_time`'s degenerate-data assertion
    // cannot fire on a pathological trace.
    let n = samples.len() as f64;
    let sx: f64 = samples.iter().map(|(x, _)| x).sum();
    let st: f64 = samples.iter().map(|(_, t)| t).sum();
    let sxx: f64 = samples.iter().map(|(x, _)| x * x).sum();
    let sxt: f64 = samples.iter().map(|(x, t)| x * t).sum();
    let denom = n * sxx - sx * sx;
    if denom.abs() == 0.0 || (n * sxt - sx * st) / denom <= 0.0 {
        return None;
    }
    Some(LatencyThroughput::fit_time(&samples))
}

/// Build the envelope the roofline attribution compares against: the
/// host's measured STREAM triad and copy latency, plus a comm model
/// fitted to this trace's send spans (host copy numbers as the fallback).
pub fn envelope_for(trace: &Trace) -> MachineEnvelope {
    let host = measure_host();
    let comm = fitted_comm(trace)
        .unwrap_or_else(|| LatencyThroughput::new(host.copy_alpha_s, host.copy_beta_gbs * 1e9));
    MachineEnvelope {
        triad_gbs: host.triad_gbs,
        launch_alpha_s: host.copy_alpha_s,
        comm_alpha_s: comm.alpha_s,
        comm_beta_gbs: comm.beta / 1e9,
    }
}

/// A loaded `--diff` operand.
enum Artifact {
    Trace(Trace),
    Bench(Json),
}

/// Load a diff operand, detecting perfgate trajectory entries by their
/// `benchmarks` array; anything else must parse as a Chrome trace.
fn load_artifact(path: &Path) -> Result<Artifact, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("read {path:?}: {e}"))?;
    if let Ok(v) = Json::parse(&text) {
        if v["benchmarks"].as_arr().is_some() {
            return Ok(Artifact::Bench(v));
        }
    }
    Trace::from_chrome_str(&text)
        .map(Artifact::Trace)
        .map_err(|e| format!("parse {path:?}: {e}"))
}

/// Compare two perfgate trajectory entries on their gated speedup ratios
/// (higher is better, so a drop beyond the threshold regresses). Returns
/// the markdown report and the regression count.
pub fn diff_bench_entries(a: &Json, b: &Json, threshold: f64) -> (String, usize) {
    let rows_of = |v: &Json| -> Vec<(String, f64)> {
        v["benchmarks"]
            .as_arr()
            .into_iter()
            .flatten()
            .filter_map(|r| Some((r["id"].as_str()?.to_string(), r["ratio"].as_f64()?)))
            .collect()
    };
    let (ra, rb) = (rows_of(a), rows_of(b));
    let mut ids: Vec<String> = ra.iter().map(|(id, _)| id.clone()).collect();
    for (id, _) in &rb {
        if !ids.contains(id) {
            ids.push(id.clone());
        }
    }
    let mut out = String::new();
    let _ = writeln!(out, "## Benchmark-entry diff (gated speedup ratios)\n");
    let _ = writeln!(out, "| benchmark | ratio A | ratio B | change | |");
    let _ = writeln!(out, "|---|---:|---:|---:|---|");
    let mut regressions = 0usize;
    for id in &ids {
        let va = ra.iter().find(|(i, _)| i == id).map(|&(_, r)| r);
        let vb = rb.iter().find(|(i, _)| i == id).map(|&(_, r)| r);
        match (va, vb) {
            (Some(x), Some(y)) => {
                let flag = if y < x * (1.0 - threshold) {
                    regressions += 1;
                    "**REGRESSED**"
                } else if y > x * (1.0 + threshold) {
                    "improved"
                } else {
                    ""
                };
                let _ = writeln!(
                    out,
                    "| {id} | {x:.3} | {y:.3} | {:+.1}% | {flag} |",
                    100.0 * (y / x - 1.0)
                );
            }
            (Some(x), None) => {
                let _ = writeln!(out, "| {id} | {x:.3} | — | | only in A |");
            }
            (None, Some(y)) => {
                let _ = writeln!(out, "| {id} | — | {y:.3} | | only in B |");
            }
            (None, None) => {}
        }
    }
    if regressions > 0 {
        let _ = writeln!(out, "\n{regressions} regression(s) detected.");
    } else {
        let _ = writeln!(out, "\nNo regressions.");
    }
    (out, regressions)
}

fn run_diff(dir: &Path, a: &Path, b: &Path, threshold: f64) -> i32 {
    crate::report::heading("analyze --diff — run-vs-run per-op comparison");
    let (report, regressions) = match (load_artifact(a), load_artifact(b)) {
        (Ok(Artifact::Bench(va)), Ok(Artifact::Bench(vb))) => {
            diff_bench_entries(&va, &vb, threshold)
        }
        (Ok(Artifact::Trace(ta)), Ok(Artifact::Trace(tb))) => {
            let rows = analysis::diff_summaries(
                &TraceSummary::from_trace(&ta),
                &TraceSummary::from_trace(&tb),
                threshold,
            );
            let n = rows.iter().filter(|r| r.regressed).count();
            (analysis::render_diff(&rows, threshold), n)
        }
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("analyze: {e}");
            return 2;
        }
        _ => {
            eprintln!("analyze: cannot diff a trace against a bench entry");
            return 2;
        }
    };
    let path = crate::report::save_raw_in(dir, "analyze_diff.md", &report);
    print!("{report}");
    println!("\n[diff -> {path:?}]");
    if regressions > 0 {
        1
    } else {
        0
    }
}

/// Core of [`run`] with the output directory and (for tests) the machine
/// envelope injectable; `env: None` measures the host.
pub fn run_with(dir: &Path, opts: &AnalyzeOpts, env: Option<MachineEnvelope>) -> i32 {
    if let Some((a, b)) = &opts.diff {
        return run_diff(dir, a, b, opts.threshold_pct / 100.0);
    }
    crate::report::heading("analyze — critical path, imbalance, roofline attribution");
    let trace = match &opts.trace_path {
        Some(p) => match load_artifact(p) {
            Ok(Artifact::Trace(t)) => t,
            Ok(Artifact::Bench(_)) => {
                eprintln!("analyze: {p:?} is a bench entry; use --diff to compare entries");
                return 2;
            }
            Err(e) => {
                eprintln!("analyze: {e}");
                return 2;
            }
        },
        None => {
            println!("running the traced 2-rank reference solve ...");
            traced_solve()
        }
    };
    let trace = match &opts.inject_slowdown {
        Some((op, pct)) => {
            println!("injecting a {pct}% slowdown into every '{op}' span");
            analysis::scale_op(&trace, op, 1.0 + pct / 100.0)
        }
        None => trace,
    };
    // Export after injection so a `GMG_TRACE= --inject-slowdown OP:PCT`
    // run yields a trace that `--diff` against a clean run must flag.
    if opts.trace_path.is_none() {
        if let Some(path) = gmg_trace::ObsConfig::from_env().trace {
            let p = crate::report::save_at(&path, "trace.json", &trace.to_chrome_string());
            eprintln!("[trace: {} events -> {p:?}]", trace.events.len());
        }
    }
    let env = env.unwrap_or_else(|| envelope_for(&trace));
    let analysis = Analysis::from_trace(&trace, Some(&env));
    let report = analysis.render();
    let path = crate::report::save_raw_in(dir, "analyze_report.md", &report);
    print!("{report}");
    println!("\n[report -> {path:?}]");
    let folded = folded::encode(&folded::fold(&trace));
    let path = crate::report::save_raw_in(dir, "flame.folded", &folded);
    println!("[flamegraph stacks -> {path:?}]");
    let coverage_pct = 100.0 * analysis.path.coverage;
    if coverage_pct < opts.min_coverage_pct {
        eprintln!(
            "analyze: critical-path coverage {coverage_pct:.1}% below the {:.1}% floor",
            opts.min_coverage_pct
        );
        return 2;
    }
    0
}

/// Run the harness; returns the process exit code (0 ok, 1 diff found
/// regressions, 2 load error or coverage below the floor).
pub fn run(opts: &AnalyzeOpts) -> i32 {
    run_with(&crate::report::results_dir(), opts, None)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fake_env() -> MachineEnvelope {
        MachineEnvelope {
            triad_gbs: 100.0,
            launch_alpha_s: 1e-6,
            comm_alpha_s: 5e-6,
            comm_beta_gbs: 10.0,
        }
    }

    fn test_dir(name: &str) -> PathBuf {
        let d = std::env::temp_dir().join(name);
        std::fs::create_dir_all(&d).unwrap();
        d
    }

    /// A capture keeps each message's wire seq: every `recv` of a
    /// captured 2-rank halo exchange and allreduce names exactly one send
    /// by `(peer, seq)`, and the Chrome export round-trips it, collective
    /// tags beyond 2^53 included.
    #[test]
    fn every_traced_recv_names_one_send_by_seq() {
        let decomp = Decomposition::new(Box3::cube(16), Point3::new(2, 1, 1));
        let d = &decomp;
        let (_, trace) = gmg_trace::capture(|| {
            RankWorld::run(2, move |mut ctx| {
                let sub = d.subdomain(ctx.rank());
                let mut a = gmg_mesh::Array3::from_fn(sub, 1, |p| p.x as f64);
                gmg_comm::runtime::exchange_array(&mut ctx, d, &mut a, 1, 6);
                ctx.allreduce_sum(ctx.rank() as f64)
            });
        });
        let recvs: Vec<_> = trace
            .events
            .iter()
            .filter(|e| e.op.name() == "recv")
            .collect();
        assert!(
            recvs.iter().any(|r| r.tag.is_some_and(|t| t >= 1 << 53)),
            "no collective recv"
        );
        for r in &recvs {
            let sends = trace.events.iter().filter(|s| {
                s.op.name() == "send" && Some(s.rank) == r.peer && s.peer == Some(r.rank)
            });
            assert_eq!(sends.filter(|s| s.seq == r.seq).count(), 1, "{r:?}");
        }
        assert_eq!(trace.messages().len(), recvs.len());
        assert_eq!(Trace::from_chrome_str(&trace.to_chrome_string()), Ok(trace));
    }

    /// The acceptance bar: on the traced 2-rank solve the per-V-cycle
    /// critical path covers ≥ 95% of wall time, the report carries every
    /// section, and rendering is byte-identical across reruns.
    #[test]
    fn reference_solve_meets_coverage_and_renders_deterministically() {
        let trace = traced_solve();
        let a = Analysis::from_trace(&trace, Some(&fake_env()));
        assert!(
            a.path.coverage >= 0.95,
            "critical-path coverage {:.3} below 0.95",
            a.path.coverage
        );
        let r1 = a.render();
        let r2 = Analysis::from_trace(&trace, Some(&fake_env())).render();
        assert_eq!(r1, r2, "analysis must be deterministic");
        for section in [
            "Per-level op time fractions (Table II)",
            "Critical path",
            "Load imbalance",
            "Rank utilization",
            "Roofline attribution",
        ] {
            assert!(r1.contains(section), "missing section {section:?}");
        }
    }

    /// The traced solve runs the communication-avoiding schedule, whose
    /// pre-smooth restricts as it goes: its four V-cycles are still found,
    /// one segment each.
    #[test]
    fn reference_solve_segments_into_its_vcycles() {
        let trace = traced_solve();
        assert!(!trace.events.iter().any(|e| e.op.name() == "restriction"));
        assert_eq!(analysis::cycle_starts(&trace).len(), 4);
        assert_eq!(analysis::critical_path(&trace).cycles.len(), 4);
    }

    /// End-to-end `--diff`: a 30% slowdown injected into
    /// `interpolation+increment` is flagged in exactly the affected ops,
    /// and the binary path exits nonzero.
    #[test]
    fn diff_flags_injected_slowdown_in_exactly_the_affected_ops() {
        let trace = traced_solve();
        let slowed = analysis::scale_op(&trace, "interpolation+increment", 1.3);
        let rows = analysis::diff_summaries(
            &TraceSummary::from_trace(&trace),
            &TraceSummary::from_trace(&slowed),
            0.10,
        );
        let regressed: Vec<&analysis::DiffRow> = rows.iter().filter(|r| r.regressed).collect();
        assert!(!regressed.is_empty(), "slowdown not flagged");
        assert!(
            regressed.iter().all(|r| r.op == "interpolation+increment"),
            "unrelated ops flagged: {regressed:?}"
        );

        let dir = test_dir("gmg_analyze_diff_test");
        let pa = dir.join("a_trace.json");
        let pb = dir.join("b_trace.json");
        std::fs::write(&pa, trace.to_chrome_string()).unwrap();
        std::fs::write(&pb, slowed.to_chrome_string()).unwrap();
        let code = run_diff(&dir, &pa, &pb, 0.10);
        assert_eq!(code, 1, "diff must exit nonzero on a regression");
        let report = std::fs::read_to_string(dir.join("analyze_diff.md")).unwrap();
        assert!(report.contains("interpolation+increment"));
        assert!(report.contains("REGRESSED"));
    }

    #[test]
    fn bench_entry_diff_flags_ratio_drop() {
        let a = Json::parse(
            r#"{"schema":2,"benchmarks":[
                {"id":"applyop_bricked_vs_array","ratio":1.5},
                {"id":"multismooth_fused_vs_sweep","ratio":1.3}]}"#,
        )
        .unwrap();
        let b = Json::parse(
            r#"{"schema":2,"benchmarks":[
                {"id":"applyop_bricked_vs_array","ratio":1.48},
                {"id":"multismooth_fused_vs_sweep","ratio":1.0}]}"#,
        )
        .unwrap();
        let (report, regressions) = diff_bench_entries(&a, &b, 0.10);
        assert_eq!(regressions, 1, "{report}");
        assert!(report.contains("multismooth_fused_vs_sweep | 1.300 | 1.000"));
        assert!(report.contains("**REGRESSED**"));
        assert!(!report.contains("applyop_bricked_vs_array | 1.500 | 1.480 | -1.3% | **"));
    }

    #[test]
    fn artifacts_are_detected_by_shape() {
        let dir = test_dir("gmg_analyze_artifact_test");
        let bench = dir.join("BENCH_9.json");
        std::fs::write(&bench, r#"{"schema":2,"benchmarks":[]}"#).unwrap();
        assert!(matches!(load_artifact(&bench), Ok(Artifact::Bench(_))));
        let (_, trace) = gmg_trace::capture(|| {
            gmg_trace::span(0, 0, "applyOp", Track::Compute);
        });
        let tp = dir.join("t.json");
        std::fs::write(&tp, trace.to_chrome_string()).unwrap();
        assert!(matches!(load_artifact(&tp), Ok(Artifact::Trace(_))));
        assert!(load_artifact(&dir.join("missing.json")).is_err());
    }

    /// `run_with` end to end on a saved trace: the export round-trips
    /// through the Chrome trace parser as a Perfetto-loadable multi-rank
    /// timeline, the report lands in the requested directory and the
    /// coverage gate passes.
    #[test]
    fn run_with_reports_on_a_saved_trace() {
        let dir = test_dir("gmg_analyze_run_test");
        let tp = dir.join("solve_trace.json");
        let text = traced_solve().to_chrome_string();
        std::fs::write(&tp, &text).unwrap();
        let trace = Trace::from_chrome_str(&text).expect("perfetto JSON parses");
        let ranks = trace.ranks();
        assert!(ranks.len() >= 2, "expected >= 2 ranks, got {ranks:?}");
        for &r in &ranks {
            assert!(
                !trace.track_events(r, Track::Comm).is_empty(),
                "rank {r} has no comm spans"
            );
            assert!(
                trace.track_is_serial(r, Track::Comm),
                "rank {r} comm overlaps"
            );
        }
        let opts = AnalyzeOpts {
            trace_path: Some(tp),
            ..AnalyzeOpts::default()
        };
        let code = run_with(&dir, &opts, Some(fake_env()));
        assert_eq!(code, 0);
        let report = std::fs::read_to_string(dir.join("analyze_report.md")).unwrap();
        assert!(report.contains("critical-path coverage"));
        assert!(report.contains("Roofline attribution"));
        let stacks = std::fs::read_to_string(dir.join("flame.folded")).unwrap();
        assert_eq!(stacks, folded::encode(&folded::fold(&trace)));
    }

    /// The span tree of the reference solve folds into stacks under one
    /// `rank<r>` root per rank, whose self times add up to the rank's
    /// root spans: no time is lost or counted twice.
    #[test]
    fn reference_solve_folds_into_stacks_that_account_for_every_root_span() {
        let trace = traced_solve();
        let stacks = folded::fold(&trace);
        for rank in trace.ranks() {
            let mut spans: Vec<_> = trace.events.iter().filter(|e| e.rank == rank).collect();
            spans.sort_by_key(|e| (e.ts_ns, std::cmp::Reverse(e.dur_ns)));
            // Roots: spans no earlier span still open contains.
            let (mut roots_ns, mut open_until) = (0u64, 0u64);
            for e in spans {
                if e.ts_ns + e.dur_ns > open_until {
                    roots_ns += e.dur_ns;
                    open_until = e.ts_ns + e.dur_ns;
                }
            }
            let root = format!("rank{rank};");
            let folded_ns: u64 = (stacks.iter())
                .filter(|(stack, _)| stack.starts_with(&root))
                .map(|(_, n)| n)
                .sum();
            assert!(roots_ns > 0, "rank {rank} has no spans");
            assert_eq!(folded_ns, roots_ns, "rank {rank}");
        }
    }
}
