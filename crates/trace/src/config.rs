//! The observability environment, parsed in one place.
//!
//! Three `GMG_*` variables say where a run's artifacts land.
//! [`ObsConfig::from_env`] is the only code that reads them; it is called
//! where a context is installed or an artifact is written (a rank world
//! starting, a harness wrapping its run, a dump being placed), never on
//! a hot path, and not cached — a test or driver that changes the
//! environment sees the change at the next world.

use std::ffi::OsString;
use std::path::PathBuf;

/// Typed view of the observability variables.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ObsConfig {
    /// `GMG_TRACE`: the directory a harness saves its run's capture in,
    /// as a flight dump with its Perfetto export `trace.json`.
    pub trace: Option<PathBuf>,
    /// `GMG_FLIGHT_DIR`: where crash dumps land (falls back to
    /// [`ObsConfig::results_dir`], then `results/`).
    pub flight_dir: Option<PathBuf>,
    /// `GMG_RESULTS_DIR`: where harness artifacts land (default
    /// `results/`).
    pub results_dir: Option<PathBuf>,
}

impl ObsConfig {
    /// Parse the process environment.
    pub fn from_env() -> ObsConfig {
        ObsConfig::from_lookup(|name| std::env::var_os(name))
    }

    /// Parse from any `name → value` lookup. An unset or empty value
    /// means the default; a path is taken as given.
    pub fn from_lookup(get: impl Fn(&str) -> Option<OsString>) -> ObsConfig {
        let path = |name: &str| get(name).filter(|v| !v.is_empty()).map(PathBuf::from);
        ObsConfig {
            trace: path("GMG_TRACE"),
            flight_dir: path("GMG_FLIGHT_DIR"),
            results_dir: path("GMG_RESULTS_DIR"),
        }
    }

    /// Where flight dumps land: `GMG_FLIGHT_DIR`, else `GMG_RESULTS_DIR`,
    /// else `results/` relative to the working directory.
    pub fn dump_dir(&self) -> PathBuf {
        self.flight_dir
            .clone()
            .or_else(|| self.results_dir.clone())
            .unwrap_or_else(|| PathBuf::from("results"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(vars: &[(&str, &str)]) -> ObsConfig {
        ObsConfig::from_lookup(|name| {
            vars.iter()
                .find(|(k, _)| *k == name)
                .map(|(_, v)| OsString::from(v))
        })
    }

    #[test]
    fn unset_means_defaults() {
        let c = parse(&[]);
        assert_eq!(c.trace, None);
        assert_eq!(c.results_dir, None);
        assert_eq!(c.dump_dir(), PathBuf::from("results"));
    }

    #[test]
    fn empty_values_mean_defaults() {
        let empty: Vec<(&str, &str)> = ["GMG_TRACE", "GMG_FLIGHT_DIR", "GMG_RESULTS_DIR"]
            .iter()
            .map(|k| (*k, ""))
            .collect();
        assert_eq!(parse(&empty), parse(&[]));
    }

    #[test]
    fn set_values_are_honoured() {
        let c = parse(&[
            ("GMG_TRACE", "/tmp/solve"),
            ("GMG_FLIGHT_DIR", "/tmp/dumps"),
            ("GMG_RESULTS_DIR", "/tmp/results"),
        ]);
        assert_eq!(c.trace, Some(PathBuf::from("/tmp/solve")));
        assert_eq!(c.dump_dir(), PathBuf::from("/tmp/dumps"));
    }

    #[test]
    fn dumps_fall_back_to_the_results_dir() {
        let c = parse(&[("GMG_RESULTS_DIR", "/tmp/results")]);
        assert_eq!(c.dump_dir(), PathBuf::from("/tmp/results"));
    }
}
