//! Shared output helpers for the experiment harnesses, and the env hooks
//! every harness binary wraps its run in.

use gmg_trace::{Json, ObsConfig};
use std::fs;
use std::path::{Path, PathBuf};

/// Run `f` under a trace capture when `cfg` names a trace path, then
/// write the capture's Chrome trace-event JSON there. With none set `f`
/// runs directly and the capture-only probes stay inert.
pub fn with_hooks<T>(cfg: &ObsConfig, f: impl FnOnce() -> T) -> T {
    let Some(path) = &cfg.trace else {
        return f();
    };
    let (out, trace) = gmg_trace::capture(f);
    let path = save_at(path, "trace.json", &trace.to_chrome_string());
    eprintln!("{}", trace_note(&trace, &path));
    out
}

/// What [`with_hooks`] says about a capture it wrote: the event count
/// and, for a window that wrapped its ring, what each rank lost.
fn trace_note(trace: &gmg_trace::Trace, path: &Path) -> String {
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

/// Persist an already-serialized artifact (e.g. a Chrome trace JSON
/// string) under the results directory, honouring `GMG_RESULTS_DIR` like
/// [`save`]; returns the written path. Binaries must route *every*
/// results-file write through here or [`save`]/[`save_in`] so the
/// redirect is honoured everywhere.
pub fn save_raw(file_name: &str, contents: &str) -> PathBuf {
    save_raw_in(&results_dir(), file_name, contents)
}

/// [`save_raw`] with an explicit directory (tests use a temp dir rather
/// than mutating the process-global `GMG_RESULTS_DIR`).
pub fn save_raw_in(dir: &Path, file_name: &str, contents: &str) -> PathBuf {
    let path = dir.join(file_name);
    fs::write(&path, contents).unwrap_or_else(|e| panic!("write {path:?}: {e}"));
    path
}

/// Persist an artifact at a user-given `path` (an env hook's value):
/// its parent directory is created like any results directory. A path
/// that names a directory — no file name, a trailing separator, or an
/// existing directory — gets `default_name` inside it. Returns the
/// written path.
pub fn save_at(path: &Path, default_name: &str, contents: &str) -> PathBuf {
    let names_dir = path.file_name().is_none()
        || path.is_dir()
        || path.to_string_lossy().ends_with(std::path::is_separator);
    let path = if names_dir {
        path.join(default_name)
    } else {
        path.to_path_buf()
    };
    let dir = path
        .parent()
        .filter(|p| !p.as_os_str().is_empty())
        .unwrap_or(Path::new("."));
    let name = path.file_name().expect("the path ends in a file name");
    save_raw_in(
        &ensure_dir(Some(dir.to_path_buf())),
        &name.to_string_lossy(),
        contents,
    )
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

    #[test]
    fn save_at_puts_the_default_name_inside_a_directory_path() {
        let base = std::env::temp_dir().join(format!("gmg_save_at_test_{}", std::process::id()));
        // An existing directory, spelled without a trailing separator.
        let existing = ensure_dir(Some(base.join("existing")));
        let p = save_at(&existing, "trace.json", "[1]");
        assert_eq!(p, existing.join("trace.json"));
        assert_eq!(std::fs::read_to_string(&p).unwrap(), "[1]");
        // A directory yet to be made, spelled with one.
        let fresh = base.join("fresh");
        let spelled = format!("{}{}", fresh.display(), std::path::MAIN_SEPARATOR);
        let p = save_at(Path::new(&spelled), "trace.json", "[2]");
        assert_eq!(p, fresh.join("trace.json"));
        assert_eq!(std::fs::read_to_string(&p).unwrap(), "[2]");
        // A file path is written as given.
        let p = save_at(&base.join("t.json"), "trace.json", "[3]");
        assert_eq!(p, base.join("t.json"));
        let _ = std::fs::remove_dir_all(&base);
    }

    #[test]
    fn hooks_write_the_requested_trace_and_pass_the_result_through() {
        use gmg_trace::{Trace, Track};
        let dir = std::env::temp_dir().join(format!("gmg_hooks_test_{}", std::process::id()));
        let at = |name: &str| Some(dir.join(name));
        let cfg = ObsConfig {
            trace: at("t.json"),
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
