//! analyze — the one trace report: per-V-cycle critical path, wait
//! classes, load imbalance, comm/compute overlap, roofline attribution
//! against the `gmg-machine` model, outlier detection, run-vs-run
//! diffing, and for a failure dump the verdict (the culprit rank and its
//! last op, stragglers and ARQ storms). Next to the report it writes
//! `flame.folded`: the span tree folded into flamegraph stacks of self
//! time (`gmg_trace::folded::fold`).
//!
//! It reads one file format, the flight dump (`gmg_flight::load_dump`):
//! a world-failure or health dump, a merged process-world dump, or the
//! capture any harness saves under `GMG_TRACE=<dir>`. The Perfetto
//! `trace.json` beside it is a view, and nothing reads it back.
//!
//! The analysis engine lives in `gmg_metrics::analysis`; this module
//! supplies the machine envelope from `gmg-machine` measurements, the
//! traced reference solve, dump loading, and the report plumbing.
//!
//! ```text
//! cargo run --release -p gmg-bench --bin analyze              # traced 2-rank solve
//!   --dump <dir>              analyze a flight dump in place (a failure's or a GMG_TRACE capture)
//!   --diff <a> <b>            compare two dumps, or two bench/BENCH_<n>.json entries
//!   --inject-slowdown OP:PCT  scale one op's durations before analyzing
//!   --min-coverage <pct>      exit 2 below this critical-path coverage (default 95)
//!   --threshold <pct>         diff regression threshold (default 10)
//! ```
//!
//! A bad argument, or a dump that does not load, exits 2 with a message.
//! `--dump DIR` writes its report, stacks and `trace.json` into DIR. The
//! default mode saves its own capture under `GMG_TRACE`, after any
//! injection, instead of nesting a second scope around it.

use gmg_comm::runtime::RankWorld;
use gmg_core::solver::{GmgSolver, SolverConfig};
use gmg_flight::{load_dump, rebuild_trace, DumpBundle, RankLog};
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
    /// Analyze this flight dump instead of running a solve.
    pub dump: Option<PathBuf>,
    /// Compare two artifacts (dumps or perfgate trajectory entries).
    pub diff: Option<(PathBuf, PathBuf)>,
    /// Scale every compute op of this name by `1 + pct/100` first.
    pub inject_slowdown: Option<(String, f64)>,
    /// Fail (exit 2) when critical-path coverage falls below this.
    pub min_coverage_pct: f64,
    /// Regression threshold for `--diff`, in percent.
    pub threshold_pct: f64,
}

impl Default for AnalyzeOpts {
    fn default() -> Self {
        Self {
            dump: None,
            diff: None,
            inject_slowdown: None,
            min_coverage_pct: 95.0,
            threshold_pct: 10.0,
        }
    }
}

impl AnalyzeOpts {
    /// Parse the command line (program name excluded). A flag without its
    /// value, a malformed value or an unknown flag is an error naming it.
    pub fn parse(args: impl IntoIterator<Item = String>) -> Result<AnalyzeOpts, String> {
        let mut opts = AnalyzeOpts::default();
        let mut args = args.into_iter();
        while let Some(flag) = args.next() {
            let mut value = |what: &str| args.next().ok_or_else(|| format!("{flag} needs {what}"));
            let number = |v: String| {
                v.parse::<f64>()
                    .map_err(|_| format!("{flag} needs a number, not {v:?}"))
            };
            match flag.as_str() {
                "--dump" => opts.dump = Some(value("a dump directory")?.into()),
                "--diff" => {
                    let a = value("two paths")?;
                    opts.diff = Some((a.into(), value("two paths")?.into()));
                }
                "--inject-slowdown" => {
                    let spec = value("OP:PCT")?;
                    let (op, pct) = spec
                        .rsplit_once(':')
                        .ok_or_else(|| format!("{flag} needs OP:PCT, not {spec:?}"))?;
                    opts.inject_slowdown = Some((op.to_string(), number(pct.to_string())?));
                }
                "--min-coverage" => opts.min_coverage_pct = number(value("a number")?)?,
                "--threshold" => opts.threshold_pct = number(value("a number")?)?,
                other => return Err(format!("unknown argument: {other}")),
            }
        }
        Ok(opts)
    }
}

/// The `reason` a `GMG_TRACE` capture is saved under; any other dump
/// records a failure, and its report carries the verdict.
pub(crate) const CAPTURE: &str = "capture";

/// The deterministic reference problem — 32³ split across two ranks,
/// three levels, four V-cycles, so the trace shows real
/// send/recv/pack/unpack activity — as its capture's ring logs.
fn traced_logs() -> Vec<RankLog> {
    let decomp = Decomposition::new(Box3::cube(32), Point3::new(2, 1, 1));
    let cfg = SolverConfig {
        num_levels: 3,
        tolerance: 0.0,
        max_vcycles: 4,
        ..SolverConfig::test_default()
    };
    let d = &decomp;
    let (_, logs) = crate::report::capture_logs(|| {
        RankWorld::run(2, move |mut ctx| {
            let mut s = GmgSolver::new(d.clone(), ctx.rank(), cfg);
            s.solve(&mut ctx);
        })
    });
    logs
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

/// A dump's bundle, or why it did not load: the directory, the error
/// and its kind (`NotFound`, `InvalidData`, …).
fn load(dir: &Path) -> Result<DumpBundle, String> {
    load_dump(dir).map_err(|e| format!("load {}: {e} ({:?})", dir.display(), e.kind()))
}

/// The analysis of a run's trace; for a dump that records a failure (any
/// reason but [`CAPTURE`]) with its verdict, `known` naming a culprit the
/// caller already knows and why.
fn analysis_of(
    trace: &Trace,
    dump: Option<&DumpBundle>,
    env: Option<&MachineEnvelope>,
    known: Option<(usize, &str)>,
) -> Analysis {
    let analysis = Analysis::from_trace(trace, env);
    match dump {
        Some(b) if b.reason != CAPTURE => {
            let failure = format!("{} ({})", b.reason, b.detail);
            analysis.with_verdict(trace, b.nranks, failure, known)
        }
        _ => analysis,
    }
}

/// Write the report, the folded stacks and, for a dump, its Perfetto
/// export `trace.json` into `dir`; returns the report's path.
fn write_report(dir: &Path, report: &str, trace: &Trace, export: bool) -> PathBuf {
    let path = crate::report::save_raw_in(dir, "analyze_report.md", report);
    crate::report::save_raw_in(dir, "flame.folded", &folded::encode(&folded::fold(trace)));
    if export {
        crate::report::save_raw_in(dir, "trace.json", &trace.to_chrome_string());
    }
    path
}

/// Analyze a flight dump in place, without a machine envelope (so no
/// roofline section): the report — the verdict first, `known` naming a
/// culprit the caller already knows and why — the folded stacks and the
/// Perfetto export land beside its rank files. `chaos` analyzes the dumps
/// its kill legs leave through this.
pub(crate) fn analyze_dump(dir: &Path, known: Option<(usize, &str)>) -> Result<Analysis, String> {
    let bundle = load(dir)?;
    let trace = rebuild_trace(&bundle.logs);
    let analysis = analysis_of(&trace, Some(&bundle), None, known);
    write_report(dir, &analysis.render(), &trace, true);
    Ok(analysis)
}

/// A loaded `--diff` operand.
enum Artifact {
    Trace(Trace),
    Bench(Json),
}

/// Load a diff operand: a directory is a flight dump, a file a perfgate
/// trajectory entry (it has a `benchmarks` array).
fn load_artifact(path: &Path) -> Result<Artifact, String> {
    if path.is_dir() {
        return load(path).map(|b| Artifact::Trace(rebuild_trace(&b.logs)));
    }
    let text = std::fs::read_to_string(path).map_err(|e| format!("read {path:?}: {e}"))?;
    match Json::parse(&text) {
        Ok(v) if v["benchmarks"].as_arr().is_some() => Ok(Artifact::Bench(v)),
        _ => Err(format!(
            "{path:?} is neither a dump directory nor a bench entry"
        )),
    }
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
            eprintln!("analyze: cannot diff a dump against a bench entry");
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
    crate::report::heading("analyze — critical path, wait states, imbalance, roofline attribution");
    let (logs, bundle) = match &opts.dump {
        Some(d) => match load(d) {
            Ok(mut b) => (std::mem::take(&mut b.logs), Some(b)),
            Err(e) => {
                eprintln!("analyze: {e}");
                return 2;
            }
        },
        None => {
            println!("running the traced 2-rank reference solve ...");
            (traced_logs(), None)
        }
    };
    let logs = match &opts.inject_slowdown {
        Some((op, pct)) => {
            println!("injecting a {pct}% slowdown into every '{op}' op");
            analysis::scale_op(&logs, op, 1.0 + pct / 100.0)
        }
        None => logs,
    };
    // Save after injection so a `GMG_TRACE= --inject-slowdown OP:PCT`
    // run leaves a dump that `--diff` against a clean run must flag.
    let trace = match (&bundle, gmg_trace::ObsConfig::from_env().trace) {
        (None, Some(capture_dir)) => crate::report::save_capture(&capture_dir, &logs),
        _ => rebuild_trace(&logs),
    };
    let env = env.unwrap_or_else(|| envelope_for(&trace));
    let analysis = analysis_of(&trace, bundle.as_ref(), Some(&env), None);
    let (out, report) = (opts.dump.as_deref().unwrap_or(dir), analysis.render());
    let path = write_report(out, &report, &trace, bundle.is_some());
    print!("{report}");
    println!("\n[report -> {path:?}]");
    println!("[flamegraph stacks -> {:?}]", out.join("flame.folded"));
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
pub(crate) mod tests {
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
        let d = std::env::temp_dir().join(format!("{name}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        std::fs::create_dir_all(&d).unwrap();
        d
    }

    /// The Perfetto export of `trace`, parsed back as plain JSON: one `X`
    /// event per span, in trace order, with its rank, track, times and
    /// args, and one `s` / `f` arrow pair per [`Trace::messages`] join.
    pub(crate) fn assert_exports(trace: &Trace) {
        let doc = Json::parse(&trace.to_chrome_string()).expect("the export is JSON");
        let events = doc["traceEvents"].as_arr().expect("traceEvents");
        let phase = |ph: &str| -> Vec<&Json> {
            events
                .iter()
                .filter(|e| e["ph"].as_str() == Some(ph))
                .collect()
        };
        let ns = |j: &Json| (j.as_f64().expect("a time") * 1000.0).round() as u64;
        let arg = |x: &Json, k: &str| match x["args"].get(k) {
            Some(Json::Str(s)) => s.parse().ok(),
            j => j.and_then(Json::as_u64),
        };
        let spans = phase("X");
        assert_eq!(spans.len(), trace.events.len());
        for (x, e) in spans.into_iter().zip(&trace.events) {
            assert_eq!(x["name"].as_str(), Some(e.op.name()));
            let (pid, tid) = (x["pid"].as_u64(), x["tid"].as_u64());
            assert_eq!((pid, tid), (Some(e.rank as u64), Some(e.track.tid())));
            assert_eq!((ns(&x["ts"]), ns(&x["dur"])), (e.ts_ns, e.dur_ns));
            let level = (e.level != gmg_trace::LEVEL_NONE).then_some(e.level as u64);
            assert_eq!(arg(x, "level"), level);
            assert_eq!(arg(x, "peer"), e.peer.map(|p| p as u64));
            assert_eq!((arg(x, "tag"), arg(x, "seq")), (e.tag, e.seq));
            let c = &e.counters;
            for (field, v) in [
                ("bytes_read", c.bytes_read),
                ("bytes_written", c.bytes_written),
                ("flops", c.flops),
                ("stencil_points", c.stencil_points),
                ("messages", c.messages),
                ("message_bytes", c.message_bytes),
            ] {
                assert_eq!(arg(x, field).unwrap_or(0), v, "{field}");
            }
        }
        let (starts, finishes) = (phase("s"), phase("f"));
        let joins = trace.messages();
        assert_eq!((starts.len(), finishes.len()), (joins.len(), joins.len()));
        for (id, ((s, f), (send, recv))) in starts.iter().zip(&finishes).zip(joins).enumerate() {
            let (send, recv) = (&trace.events[send], &trace.events[recv]);
            assert_eq!(
                (s["id"].as_u64(), f["id"].as_u64()),
                (Some(id as u64), Some(id as u64))
            );
            assert_eq!(
                (s["pid"].as_u64(), ns(&s["ts"])),
                (Some(send.rank as u64), send.ts_ns)
            );
            let end = recv.ts_ns + recv.dur_ns;
            assert_eq!(
                (f["pid"].as_u64(), ns(&f["ts"])),
                (Some(recv.rank as u64), end)
            );
            assert_eq!(f["bp"].as_str(), Some("e"));
        }
    }

    fn args(line: &str) -> Result<AnalyzeOpts, String> {
        AnalyzeOpts::parse(line.split_whitespace().map(String::from))
    }

    #[test]
    fn the_command_line_parses_every_flag() {
        let o =
            args("--dump d --inject-slowdown smooth:30 --min-coverage 90 --threshold 5").unwrap();
        assert_eq!(o.dump, Some(PathBuf::from("d")));
        assert_eq!(o.inject_slowdown, Some(("smooth".to_string(), 30.0)));
        assert_eq!((o.min_coverage_pct, o.threshold_pct), (90.0, 5.0));
        let o = args("--diff a b").unwrap();
        assert_eq!(o.diff, Some((PathBuf::from("a"), PathBuf::from("b"))));
    }

    /// Every bad argument is an error naming it (the binary exits 2 with
    /// it), never a panic.
    #[test]
    fn a_bad_argument_is_an_error_not_a_panic() {
        for (line, says) in [
            ("--dump", "--dump needs a dump directory"),
            ("--diff a", "--diff needs two paths"),
            ("--inject-slowdown", "--inject-slowdown needs OP:PCT"),
            ("--inject-slowdown smooth", "needs OP:PCT, not \"smooth\""),
            (
                "--inject-slowdown smooth:lots",
                "needs a number, not \"lots\"",
            ),
            ("--min-coverage", "--min-coverage needs a number"),
            (
                "--min-coverage high",
                "--min-coverage needs a number, not \"high\"",
            ),
            ("--threshold 1%", "--threshold needs a number, not \"1%\""),
            ("--trace t.json", "unknown argument: --trace"),
        ] {
            let err = args(line).unwrap_err();
            assert!(err.contains(says), "{line}: {err}");
        }
    }

    /// A capture keeps each message's wire seq: every `recv` of a
    /// captured 2-rank halo exchange and allreduce names exactly one send
    /// by `(peer, seq)`, and the Perfetto export carries it, collective
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
        assert_exports(&trace);
    }

    /// The acceptance bar: on the traced 2-rank solve the per-V-cycle
    /// critical path covers ≥ 95% of wall time, the report carries every
    /// section, and rendering is byte-identical across reruns.
    #[test]
    fn reference_solve_meets_coverage_and_renders_deterministically() {
        let trace = rebuild_trace(&traced_logs());
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
            "Wait states",
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
        let trace = rebuild_trace(&traced_logs());
        assert!(!trace.events.iter().any(|e| e.op.name() == "restriction"));
        assert_eq!(analysis::cycle_starts(&trace).len(), 4);
        assert_eq!(analysis::critical_path(&trace).cycles.len(), 4);
    }

    /// End-to-end `--diff` on two saved captures: a 30% slowdown injected
    /// into the ring events of `interpolation+increment` before the save
    /// is flagged in exactly the affected ops, and the binary path exits
    /// nonzero.
    #[test]
    fn diff_flags_injected_slowdown_in_exactly_the_affected_ops() {
        let logs = traced_logs();
        let slowed = analysis::scale_op(&logs, "interpolation+increment", 1.3);
        let rows = analysis::diff_summaries(
            &TraceSummary::from_trace(&rebuild_trace(&logs)),
            &TraceSummary::from_trace(&rebuild_trace(&slowed)),
            0.10,
        );
        let regressed: Vec<&analysis::DiffRow> = rows.iter().filter(|r| r.regressed).collect();
        assert!(!regressed.is_empty(), "slowdown not flagged");
        assert!(
            regressed.iter().all(|r| r.op == "interpolation+increment"),
            "unrelated ops flagged: {regressed:?}"
        );

        let dir = test_dir("gmg_analyze_diff_test");
        let (pa, pb) = (dir.join("a"), dir.join("b"));
        crate::report::save_capture(&pa, &logs);
        crate::report::save_capture(&pb, &slowed);
        let code = run_diff(&dir, &pa, &pb, 0.10);
        assert_eq!(code, 1, "diff must exit nonzero on a regression");
        let report = std::fs::read_to_string(dir.join("analyze_diff.md")).unwrap();
        assert!(report.contains("interpolation+increment"));
        assert!(report.contains("REGRESSED"));
        let _ = std::fs::remove_dir_all(&dir);
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
        let (_, logs) = crate::report::capture_logs(|| {
            gmg_trace::span(0, 0, "applyOp", Track::Compute);
        });
        crate::report::save_capture(&dir.join("capture"), &logs);
        assert!(matches!(
            load_artifact(&dir.join("capture")),
            Ok(Artifact::Trace(_))
        ));
        // The capture's Perfetto export is a view, not an operand.
        assert!(load_artifact(&dir.join("capture/trace.json")).is_err());
        assert!(load_artifact(&dir.join("missing.json")).is_err());
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// The one report over the one file: the report `analyze --dump`
    /// writes of a saved capture is byte for byte the report of the live
    /// capture, because the dump rebuilds the same `Trace` — a wrapped
    /// ring's loss included, and with a rank the capture did not cover
    /// saved as an empty log.
    #[test]
    fn a_saved_capture_reports_like_the_live_one() {
        let ((), logs) = crate::report::capture_logs(|| {
            let decomp = Decomposition::new(Box3::cube(16), Point3::new(2, 1, 1));
            let d = &decomp;
            RankWorld::run(2, move |mut ctx| {
                let cfg = SolverConfig {
                    num_levels: 2,
                    max_vcycles: 2,
                    ..SolverConfig::test_default()
                };
                GmgSolver::new(d.clone(), ctx.rank(), cfg).solve(&mut ctx);
            });
            let world = gmg_flight::FlightWorld::with_capacity(4, 16);
            let _ring = world.install(3);
            for _ in 0..40 {
                gmg_trace::probe::event(gmg_trace::Kind::Control, "tick");
            }
        });
        let live = rebuild_trace(&logs);
        assert_eq!(live.lost, vec![(3, 24)]);
        let dir = test_dir("gmg_analyze_capture_test");
        let capture = dir.join("capture");
        assert_eq!(crate::report::save_capture(&capture, &logs), live);
        let bundle = load_dump(&capture).unwrap();
        assert_eq!((bundle.reason.as_str(), bundle.nranks), (CAPTURE, 4));
        assert!(bundle.logs[2].events.is_empty());
        assert_eq!(rebuild_trace(&bundle.logs), live);

        let opts = AnalyzeOpts {
            dump: Some(capture.clone()),
            min_coverage_pct: 0.0,
            ..AnalyzeOpts::default()
        };
        assert_eq!(run_with(&dir, &opts, Some(fake_env())), 0);
        let report = std::fs::read_to_string(capture.join("analyze_report.md")).unwrap();
        assert_eq!(
            report,
            Analysis::from_trace(&live, Some(&fake_env())).render()
        );
        assert!(report.contains("rank 3 lost 24 events"), "{report}");
        assert!(
            !report.contains("Verdict"),
            "a capture is no failure: {report}"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// `run_with` end to end on a saved capture: its export is a
    /// Perfetto-loadable multi-rank timeline, the report and the stacks
    /// land in the dump and the coverage gate passes.
    #[test]
    fn run_with_reports_on_a_saved_capture() {
        let dir = test_dir("gmg_analyze_run_test");
        let capture = dir.join("solve");
        let trace = crate::report::save_capture(&capture, &traced_logs());
        let text = std::fs::read_to_string(capture.join("trace.json")).unwrap();
        assert_eq!(text, trace.to_chrome_string());
        assert_exports(&trace);
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
            dump: Some(capture.clone()),
            ..AnalyzeOpts::default()
        };
        let code = run_with(&dir, &opts, Some(fake_env()));
        assert_eq!(code, 0);
        let report = std::fs::read_to_string(capture.join("analyze_report.md")).unwrap();
        assert!(report.contains("critical-path coverage"));
        assert!(report.contains("Roofline attribution"));
        assert!(report.contains("## Wait states"));
        let stacks = std::fs::read_to_string(capture.join("flame.folded")).unwrap();
        assert_eq!(stacks, folded::encode(&folded::fold(&trace)));
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A dump that does not exist is a clean error naming its kind, and
    /// the binary path exits 2.
    #[test]
    fn analyzing_a_missing_dump_is_a_clean_error() {
        let missing = Path::new("/nonexistent/flightdump_0");
        let err = analyze_dump(missing, None).unwrap_err();
        assert!(err.contains("load") && err.contains("NotFound"), "{err}");
        let opts = AnalyzeOpts {
            dump: Some(missing.to_path_buf()),
            ..AnalyzeOpts::default()
        };
        let dir = test_dir("gmg_analyze_missing_test");
        assert_eq!(run_with(&dir, &opts, Some(fake_env())), 2);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A dump whose rank file was cut short is `InvalidData`, named, and
    /// exits 2; nothing is written into it.
    #[test]
    fn a_truncated_rank_file_is_a_clean_error() {
        let dir = test_dir("gmg_analyze_truncated_test");
        let capture = dir.join("capture");
        crate::report::save_capture(&capture, &traced_logs());
        let rank0 = capture.join("rank0.json");
        let text = std::fs::read_to_string(&rank0).unwrap();
        std::fs::write(&rank0, &text[..text.len() / 2]).unwrap();
        let err = analyze_dump(&capture, None).unwrap_err();
        assert!(
            err.contains("rank0.json") && err.contains("InvalidData"),
            "{err}"
        );
        let opts = AnalyzeOpts {
            dump: Some(capture.clone()),
            ..AnalyzeOpts::default()
        };
        assert_eq!(run_with(&dir, &opts, Some(fake_env())), 2);
        assert!(!capture.join("analyze_report.md").exists());
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// The span tree of the reference solve folds into stacks under one
    /// `rank<r>` root per rank, whose self times add up to the rank's
    /// root spans: no time is lost or counted twice.
    #[test]
    fn reference_solve_folds_into_stacks_that_account_for_every_root_span() {
        let trace = rebuild_trace(&traced_logs());
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
