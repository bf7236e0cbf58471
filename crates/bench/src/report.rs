//! Shared output helpers for the experiment harnesses.

use gmg_trace::Json;
use std::fs;
use std::path::{Path, PathBuf};

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
/// its parent directory is created like any results directory, a path
/// with no file name gets `default_name`. Returns the written path.
pub fn save_at(path: &Path, default_name: &str, contents: &str) -> PathBuf {
    let dir = ensure_dir(Some(
        path.parent()
            .filter(|p| !p.as_os_str().is_empty())
            .map(Path::to_path_buf)
            .unwrap_or_else(|| PathBuf::from(".")),
    ));
    let name = path
        .file_name()
        .map(|n| n.to_string_lossy().into_owned())
        .unwrap_or_else(|| default_name.into());
    save_raw_in(&dir, &name, contents)
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
    fn ensure_dir_defaults_without_override() {
        // No override → the conventional relative path, checked without
        // creating it in the crate directory.
        assert_eq!(resolve_dir(None), PathBuf::from("results"));
    }
}
