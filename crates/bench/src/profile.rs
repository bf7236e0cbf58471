//! Roofline-aware profiling harness: run a traced distributed solve, export
//! a Perfetto-loadable trace, and cross-check the trace-derived per-op time
//! fractions against the solver's own [`OpTimer`] report.
//!
//! Run: `cargo run --release -p gmg-bench --bin profile`. The Chrome
//! trace-event JSON lands in `results/profile_trace.json`; open it at
//! <https://ui.perfetto.dev> to see one process per rank with separate
//! compute and comm tracks.
//!
//! Any other harness binary can be traced too by setting
//! `GMG_TRACE=<path>` in the environment — see [`with_env_hooks`].
//!
//! [`OpTimer`]: gmg_core::timers::OpTimer

use gmg_comm::runtime::RankWorld;
use gmg_core::solver::{GmgSolver, SolverConfig};
use gmg_core::timers::TimerReport;
use gmg_machine::microbench::{measure_host, HostRoofline};
use gmg_mesh::{Box3, Decomposition, Point3};
use gmg_trace::{json, Json};
use gmg_trace::{ObsConfig, TraceSummary};
use std::path::Path;

/// Run `f` under every sink `cfg` names an artifact for, then write the
/// artifacts: `trace` → a capture's Chrome trace-event JSON, `prof` → a
/// sampling session's folded stacks (interval `prof_interval`), `metrics`
/// → what the global registry grew by during the run, as schema-1 JSON
/// (a *delta*: the registry is process-global and may already hold rows).
/// With none set `f` runs directly and every probe stays inert.
pub fn with_hooks<T>(cfg: &ObsConfig, f: impl FnOnce() -> T) -> T {
    let session = cfg
        .prof
        .as_ref()
        .map(|_| gmg_prof::start(cfg.prof_interval));
    let metrics = (cfg.metrics.as_ref()).map(|_| {
        (
            gmg_metrics::Registry::global().snapshot(),
            gmg_metrics::enable(),
        )
    });
    let (out, trace) = match &cfg.trace {
        Some(_) => {
            let (out, trace) = gmg_trace::capture(f);
            (out, Some(trace))
        }
        None => (f(), None),
    };
    let profile = session.map(|s| s.stop());
    let delta = metrics.map(|(before, was_enabled)| {
        if !was_enabled {
            gmg_metrics::disable();
        }
        gmg_metrics::Registry::global()
            .snapshot()
            .delta_since(&before)
    });
    if let (Some(path), Some(trace)) = (&cfg.trace, trace) {
        let path = crate::report::save_at(path, "trace.json", &trace.to_chrome_string());
        eprintln!("[trace: {} events -> {path:?}]", trace.events.len());
    }
    if let (Some(path), Some(profile)) = (&cfg.prof, profile) {
        let path = crate::report::save_at(path, "prof.folded", &profile.to_folded());
        eprintln!(
            "[prof: {} samples / {} ticks, {} dropped -> {path:?}]",
            profile.samples, profile.ticks, profile.dropped
        );
    }
    if let (Some(path), Some(delta)) = (&cfg.metrics, delta) {
        let path = crate::report::save_at(path, "metrics.json", &delta.to_json().to_string());
        eprintln!("[metrics: {} rows -> {path:?}]", delta.entries.len());
    }
    out
}

/// [`with_hooks`] as the environment asks: `GMG_TRACE`, `GMG_PROF`
/// (+ `GMG_PROF_INTERVAL_US`) and `GMG_METRICS`. Every harness binary
/// wraps its `run()` in this.
pub fn with_env_hooks<T>(f: impl FnOnce() -> T) -> T {
    with_hooks(&ObsConfig::from_env(), f)
}

/// Problem the profiler runs: a fixed number of V-cycles so the timed work
/// is deterministic, split across two ranks so the trace shows real
/// send/recv/pack/unpack activity.
fn profile_config() -> (Decomposition, usize, SolverConfig) {
    let decomp = Decomposition::new(Box3::cube(32), Point3::new(2, 1, 1));
    let cfg = SolverConfig {
        num_levels: 3,
        tolerance: 0.0,
        max_vcycles: 4,
        ..SolverConfig::test_default()
    };
    (decomp, 2, cfg)
}

/// Traced solve: returns rank 0's aggregated [`TimerReport`] plus the trace.
fn traced_solve() -> (TimerReport, gmg_trace::Trace) {
    let (decomp, nranks, cfg) = profile_config();
    let d = &decomp;
    let (mut reports, trace) = gmg_trace::capture(|| {
        RankWorld::run(nranks, move |mut ctx| {
            let mut s = GmgSolver::new(d.clone(), ctx.rank(), cfg);
            s.solve(&mut ctx);
            s.timers.aggregate(&mut ctx)
        })
    });
    (reports.swap_remove(0), trace)
}

/// Run the harness, writing the trace under `dir` and comparing achieved
/// rates against `host`'s measured memory roofline.
pub fn run_in(dir: &Path, host: &HostRoofline) -> Json {
    crate::report::heading("profile — traced V-cycles, Perfetto export, roofline check");
    let (report, trace) = traced_solve();
    let summary = TraceSummary::from_trace(&trace);

    let trace_path =
        crate::report::save_raw_in(dir, "profile_trace.json", &trace.to_chrome_string());
    println!(
        "wrote {} events from {} ranks -> {trace_path:?}",
        trace.events.len(),
        summary.nranks
    );

    print!("{}", summary.render());

    // Level-0 fractions two ways: the solver's OpTimer and the trace. They
    // observe the same (t0, t1) pairs, so they must agree.
    println!("\nlevel-0 fractions: OpTimer vs trace");
    let timer_fr = report.level_fractions(0);
    let trace_fr = summary.level_fractions(0);
    let mut fraction_rows = Vec::new();
    let mut max_diff = 0.0f64;
    for ((op, tf), (top, cf)) in timer_fr.iter().zip(trace_fr.iter()) {
        assert_eq!(op, top, "fraction rows out of order");
        let diff = (tf - cf).abs();
        max_diff = max_diff.max(diff);
        println!(
            "  {op:<28} {:>7.2}% {:>7.2}%  (|diff| {diff:.2e})",
            tf * 100.0,
            cf * 100.0
        );
        fraction_rows.push(json!({"op": op.as_str(), "timer": *tf, "trace": *cf}));
    }
    println!("  max |diff| {max_diff:.2e}");

    // Roofline: achieved GStencil/s per op vs the memory-bandwidth ceiling
    // from the op's static traffic (Table IV doubles per point).
    println!(
        "\nroofline (STREAM triad {:.1} GB/s, one thread)",
        host.triad_gbs
    );
    let mut roofline_rows = Vec::new();
    for (op, _) in &timer_fr {
        let Some(t) = gmg_core::trace::per_point(op) else {
            continue;
        };
        let Some(achieved) = summary.gstencil_per_s(0, op) else {
            continue;
        };
        let doubles = t.reads + t.writes;
        let ceiling = host.gstencil_ceiling(doubles);
        let frac = host.roofline_fraction(achieved * 1e9, doubles);
        println!(
            "  {op:<28} {achieved:>8.3} GStencil/s  ceiling {ceiling:>8.3}  ({:.1}% of roofline)",
            frac * 100.0
        );
        roofline_rows.push(json!({
            "op": op.as_str(),
            "achieved_gstencil_per_s": achieved,
            "ceiling_gstencil_per_s": ceiling,
            "roofline_fraction": frac,
        }));
    }

    let comm = json!({
        "messages": summary.comm.messages,
        "message_bytes": summary.comm.message_bytes,
        "seconds": summary.comm_seconds
    });
    json!({
        "nranks": summary.nranks,
        "events": trace.events.len(),
        "trace_path": trace_path.display().to_string(),
        "wall_seconds": summary.wall_seconds,
        "level0_fractions": fraction_rows,
        "max_fraction_diff": max_diff,
        "roofline": roofline_rows,
        "comm": comm,
        "triad_gbs": host.triad_gbs
    })
}

/// Run the harness against the measured host roofline, writing under the
/// conventional results directory.
pub fn run() -> Json {
    run_in(&crate::report::results_dir(), &measure_host())
}

#[cfg(test)]
mod tests {
    use super::*;
    use gmg_trace::{Trace, Track};

    fn fake_host() -> HostRoofline {
        HostRoofline {
            triad_gbs: 100.0,
            copy_alpha_s: 1e-6,
            copy_beta_gbs: 120.0,
        }
    }

    #[test]
    fn profile_writes_perfetto_loadable_trace_with_two_ranks_and_comm() {
        let dir = std::env::temp_dir().join("gmg_profile_test");
        std::fs::create_dir_all(&dir).unwrap();
        let v = run_in(&dir, &fake_host());

        // The written file must round-trip through the Chrome trace parser.
        let text = std::fs::read_to_string(dir.join("profile_trace.json")).unwrap();
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

        // Acceptance criterion: trace fractions agree with OpTimer within 1%.
        assert!(v["max_fraction_diff"].as_f64().unwrap() < 0.01);
        assert!(v["comm"]["messages"].as_u64().unwrap() > 0);
        assert!(!v["level0_fractions"].as_arr().unwrap().is_empty());
        assert!(!v["roofline"].as_arr().unwrap().is_empty());
    }

    #[test]
    fn hooks_write_each_requested_artifact_and_pass_the_result_through() {
        let dir = std::env::temp_dir().join(format!("gmg_hooks_test_{}", std::process::id()));
        let at = |name: &str| Some(dir.join(name));
        let cfg = ObsConfig {
            trace: at("t.json"),
            metrics: at("m.json"),
            prof: at("p.folded"),
            ..ObsConfig::from_lookup(|_| None)
        };
        let out = with_hooks(&cfg, || {
            gmg_trace::span(0, 0, "applyOp", Track::Compute);
            gmg_trace::probe::op(0, "hooks_test_op").finish();
            42
        });
        assert_eq!(out, 42);
        let text = std::fs::read_to_string(dir.join("t.json")).unwrap();
        let trace = Trace::from_chrome_str(&text).unwrap();
        assert_eq!(trace.events.len(), 2);
        let metrics = std::fs::read_to_string(dir.join("m.json")).unwrap();
        assert!(metrics.contains("hooks_test_op"), "{metrics}");
        let folded = std::fs::read_to_string(dir.join("p.folded")).unwrap();
        assert!(gmg_prof::folded::parse(&folded).is_ok());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn no_hooks_is_passthrough() {
        assert_eq!(with_hooks(&ObsConfig::from_lookup(|_| None), || 7), 7);
    }
}
