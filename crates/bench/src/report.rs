//! Shared output helpers for the experiment harnesses, and the env hooks
//! every harness binary wraps its run in.

use gmg_flight::{rebuild_trace, RankLog};
use gmg_trace::{Json, ObsConfig, Trace, TraceScope};
use std::fs;
use std::path::{Path, PathBuf};

/// Run `f` under a trace capture when `cfg` names a trace directory,
/// then save the capture there (`save_capture`). With none set `f`
/// runs directly and the capture-only probes stay inert.
pub fn with_hooks<T>(cfg: &ObsConfig, f: impl FnOnce() -> T) -> T {
    let Some(dir) = &cfg.trace else {
        return f();
    };
    let (out, logs) = capture_logs(f);
    save_capture(dir, &logs);
    out
}

/// Run `f` under a fresh capture; return its result and the capture's
/// ring logs, the form a capture is saved in.
pub(crate) fn capture_logs<T>(f: impl FnOnce() -> T) -> (T, Vec<RankLog>) {
    let scope = TraceScope::default();
    let guard = scope.install();
    let out = f();
    drop(guard);
    (out, scope.logs())
}

/// Save a capture's ring logs as a flight dump in `dir` (created if
/// needed), its Perfetto export `trace.json` beside the rank files, and
/// say so on stderr. Returns the capture's trace.
pub(crate) fn save_capture(dir: &Path, logs: &[RankLog]) -> Trace {
    let trace = rebuild_trace(logs);
    gmg_flight::dump_logs(dir, logs, crate::analyze::CAPTURE, "")
        .unwrap_or_else(|e| panic!("save the capture in {dir:?}: {e}"));
    save_raw_in(dir, "trace.json", &trace.to_chrome_string());
    eprintln!("{}", trace_note(&trace, dir));
    trace
}

/// What [`save_capture`] says about a capture it wrote: the event count
/// and, for a window that wrapped its ring, what each rank lost.
fn trace_note(trace: &Trace, path: &Path) -> String {
    let mut note = format!("[trace: {} events -> {path:?}", trace.events.len());
    if !trace.lost.is_empty() {
        let lost: Vec<String> = trace
            .lost
            .iter()
            .map(|(rank, n)| format!("rank {rank} lost {n}"))
            .collect();
        note += &format!("; the ring window wrapped: {}", lost.join(", "));
    }
    note + "]"
}

/// [`with_hooks`] as the environment asks (`GMG_TRACE`). Every harness
/// binary wraps its `run()` in this.
pub fn with_env_hooks<T>(f: impl FnOnce() -> T) -> T {
    with_hooks(&ObsConfig::from_env(), f)
}

/// Directory for machine-readable experiment outputs (created on demand):
/// `$GMG_RESULTS_DIR`, or `results/` when unset.
pub fn results_dir() -> PathBuf {
    ensure_dir(gmg_trace::ObsConfig::from_env().results_dir)
}

/// Resolve and create the results directory from an explicit override.
/// Tests go through this (with a temp dir) rather than mutating the
/// process-global `GMG_RESULTS_DIR`, which would race with tests running
/// in parallel threads.
pub fn ensure_dir(overridden: Option<PathBuf>) -> PathBuf {
    let dir = resolve_dir(overridden);
    fs::create_dir_all(&dir).expect("create results dir");
    dir
}

/// The results directory an override names, or `results/` without one.
fn resolve_dir(overridden: Option<PathBuf>) -> PathBuf {
    overridden.unwrap_or_else(|| PathBuf::from("results"))
}

/// Persist a harness result as pretty JSON under `results/<name>.json`.
pub fn save(name: &str, value: &Json) {
    let path = save_in(&results_dir(), name, value);
    println!("\n[saved {path:?}]");
}

/// Persist a harness result as pretty JSON under an explicit directory;
/// returns the written path.
pub fn save_in(dir: &Path, name: &str, value: &Json) -> PathBuf {
    let path = dir.join(format!("{name}.json"));
    fs::write(&path, value.pretty()).unwrap_or_else(|e| panic!("write {path:?}: {e}"));
    path
}

/// Persist an already-serialized artifact (e.g. a Perfetto trace JSON
/// string) as `file_name` under `dir` — the results directory
/// ([`results_dir`], which honours `GMG_RESULTS_DIR`) or a dump's;
/// returns the written path.
pub fn save_raw_in(dir: &Path, file_name: &str, contents: &str) -> PathBuf {
    let path = dir.join(file_name);
    fs::write(&path, contents).unwrap_or_else(|e| panic!("write {path:?}: {e}"));
    path
}

/// Print a section header.
pub fn heading(title: &str) {
    println!("\n=== {title} ===");
}

/// Format seconds in engineering units.
pub fn fmt_time(s: f64) -> String {
    if s >= 1.0 {
        format!("{s:.3} s")
    } else if s >= 1e-3 {
        format!("{:.3} ms", s * 1e3)
    } else {
        format!("{:.2} µs", s * 1e6)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fmt_time_units() {
        assert_eq!(fmt_time(2.5), "2.500 s");
        assert_eq!(fmt_time(0.0025), "2.500 ms");
        assert_eq!(fmt_time(2.5e-6), "2.50 µs");
    }

    #[test]
    fn save_and_readback() {
        // Exercises the same code path `save` uses, through the explicit
        // directory parameter — no process-global env mutation.
        let dir = ensure_dir(Some(std::env::temp_dir().join("gmg_results_test")));
        let v = gmg_trace::json!({"a": 1});
        let p = save_in(&dir, "unit_test_artifact", &v);
        assert_eq!(p, dir.join("unit_test_artifact.json"));
        let back = Json::parse(&std::fs::read_to_string(&p).unwrap()).unwrap();
        assert_eq!(back, v);
    }

    #[test]
    fn save_raw_honours_explicit_dir() {
        let dir = ensure_dir(Some(std::env::temp_dir().join("gmg_results_raw_test")));
        let p = save_raw_in(&dir, "unit_test_trace.json", "[]");
        assert_eq!(p, dir.join("unit_test_trace.json"));
        assert_eq!(std::fs::read_to_string(&p).unwrap(), "[]");
    }

    /// `GMG_TRACE` names a directory, which the hooks fill with a dump
    /// of the capture and its Perfetto export.
    #[test]
    fn hooks_save_the_capture_as_a_dump_and_pass_the_result_through() {
        use gmg_trace::Track;
        let dir = std::env::temp_dir().join(format!("gmg_hooks_test_{}", std::process::id()));
        let cfg = ObsConfig {
            trace: Some(dir.join("solve")),
            ..ObsConfig::from_lookup(|_| None)
        };
        let out = with_hooks(&cfg, || {
            gmg_trace::span(0, 0, "applyOp", Track::Compute);
            gmg_trace::probe::op(0, "hooks_test_op").finish();
            42
        });
        assert_eq!(out, 42);
        let bundle = gmg_flight::load_dump(&dir.join("solve")).unwrap();
        assert_eq!(bundle.reason, crate::analyze::CAPTURE);
        let trace = rebuild_trace(&bundle.logs);
        assert_eq!(trace.events.len(), 2);
        let text = std::fs::read_to_string(dir.join("solve/trace.json")).unwrap();
        assert_eq!(text, trace.to_chrome_string());
        crate::analyze::tests::assert_exports(&trace);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A capture longer than its ring reports what it lost, and the hooks
    /// say so.
    #[test]
    fn a_wrapped_window_is_reported() {
        let world = gmg_flight::FlightWorld::with_capacity(1, 16);
        let (_, trace) = gmg_trace::capture(|| {
            let _ring = world.install(0);
            for _ in 0..40 {
                gmg_trace::probe::event(gmg_trace::Kind::Control, "tick");
            }
        });
        assert_eq!(trace.events.len(), 16);
        assert_eq!(trace.lost, vec![(0, 24)]);
        let note = trace_note(&trace, Path::new("t.json"));
        assert!(note.contains("rank 0 lost 24"), "{note}");
    }

    #[test]
    fn no_hooks_is_passthrough() {
        assert_eq!(with_hooks(&ObsConfig::from_lookup(|_| None), || 7), 7);
    }

    #[test]
    fn ensure_dir_defaults_without_override() {
        // No override → the conventional relative path, checked without
        // creating it in the crate directory.
        assert_eq!(resolve_dir(None), PathBuf::from("results"));
    }
}
