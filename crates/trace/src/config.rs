//! The observability environment, parsed in one place.
//!
//! Twelve `GMG_*` variables steer the sinks. [`ObsConfig::from_env`] is
//! the only code that reads them; it is called where a context is
//! installed or an artifact is written (a rank world starting, a harness
//! wrapping its run, a dump being placed), never on a hot path, and not
//! cached — a test or driver that changes the environment sees the
//! change at the next world.

use std::ffi::OsString;
use std::path::PathBuf;
use std::time::Duration;

/// Typed view of the observability variables.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ObsConfig {
    /// `GMG_TRACE`: write the run's Chrome trace here.
    pub trace: Option<PathBuf>,
    /// `GMG_PROF`: write the run's folded sampling stacks here.
    pub prof: Option<PathBuf>,
    /// `GMG_PROF_INTERVAL_US`: sampling interval (positive integer,
    /// default 200 µs).
    pub prof_interval: Duration,
    /// `GMG_METRICS`: write the run's final metrics snapshot here.
    pub metrics: Option<PathBuf>,
    /// `GMG_FLIGHT`: the flight recorder is on unless this is `0`, `off`
    /// or `false`.
    pub flight: bool,
    /// `GMG_FLIGHT_CAPACITY`: events per rank ring (default 65536).
    pub flight_capacity: usize,
    /// `GMG_FLIGHT_DIR`: where crash dumps land (falls back to
    /// [`ObsConfig::results_dir`], then `results/`).
    pub flight_dir: Option<PathBuf>,
    /// `GMG_FLIGHT_MAX_DUMPS`: dumps one process may write (default 32).
    pub flight_max_dumps: u64,
    /// `GMG_LIVE`: live telemetry ships unless this is `0`.
    pub live: bool,
    /// `GMG_LIVE_SILENT_MS`: silent-rank alert threshold (positive
    /// integer, default 750 ms).
    pub live_silent: Duration,
    /// `GMG_PROM_ADDR`: Prometheus endpoint bind address (default an
    /// ephemeral loopback port).
    pub prom_addr: String,
    /// `GMG_RESULTS_DIR`: where harness artifacts land (default
    /// `results/`).
    pub results_dir: Option<PathBuf>,
}

impl ObsConfig {
    /// Parse the process environment.
    pub fn from_env() -> ObsConfig {
        ObsConfig::from_lookup(|name| std::env::var_os(name))
    }

    /// Parse from any `name → value` lookup. An unset, empty or
    /// unparsable value means the default; a path is taken as given.
    pub fn from_lookup(get: impl Fn(&str) -> Option<OsString>) -> ObsConfig {
        let text = |name: &str| {
            get(name)
                .and_then(|v| v.into_string().ok())
                .map(|s| s.trim().to_string())
                .filter(|s| !s.is_empty())
        };
        let path = |name: &str| get(name).filter(|v| !v.is_empty()).map(PathBuf::from);
        let positive = |name: &str, default: u64| {
            text(name)
                .and_then(|s| s.parse::<u64>().ok())
                .filter(|&n| n > 0)
                .unwrap_or(default)
        };
        ObsConfig {
            trace: path("GMG_TRACE"),
            prof: path("GMG_PROF"),
            prof_interval: Duration::from_micros(positive("GMG_PROF_INTERVAL_US", 200)),
            metrics: path("GMG_METRICS"),
            flight: !matches!(
                text("GMG_FLIGHT").as_deref(),
                Some("0") | Some("off") | Some("false")
            ),
            flight_capacity: positive("GMG_FLIGHT_CAPACITY", 1 << 16) as usize,
            flight_dir: path("GMG_FLIGHT_DIR"),
            flight_max_dumps: text("GMG_FLIGHT_MAX_DUMPS")
                .and_then(|s| s.parse().ok())
                .unwrap_or(32),
            live: text("GMG_LIVE").as_deref() != Some("0"),
            live_silent: Duration::from_millis(positive("GMG_LIVE_SILENT_MS", 750)),
            prom_addr: text("GMG_PROM_ADDR").unwrap_or_else(|| "127.0.0.1:0".to_string()),
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
        assert_eq!(c.prof, None);
        assert_eq!(c.prof_interval, Duration::from_micros(200));
        assert_eq!(c.metrics, None);
        assert!(c.flight);
        assert_eq!(c.flight_capacity, 65536);
        assert_eq!(c.flight_max_dumps, 32);
        assert!(c.live);
        assert_eq!(c.live_silent, Duration::from_millis(750));
        assert_eq!(c.prom_addr, "127.0.0.1:0");
        assert_eq!(c.results_dir, None);
        assert_eq!(c.dump_dir(), PathBuf::from("results"));
    }

    #[test]
    fn empty_values_mean_defaults() {
        let empty: Vec<(&str, &str)> = [
            "GMG_TRACE",
            "GMG_PROF",
            "GMG_PROF_INTERVAL_US",
            "GMG_METRICS",
            "GMG_FLIGHT",
            "GMG_FLIGHT_CAPACITY",
            "GMG_FLIGHT_DIR",
            "GMG_FLIGHT_MAX_DUMPS",
            "GMG_LIVE",
            "GMG_LIVE_SILENT_MS",
            "GMG_PROM_ADDR",
            "GMG_RESULTS_DIR",
        ]
        .iter()
        .map(|k| (*k, ""))
        .collect();
        assert_eq!(parse(&empty), parse(&[]));
    }

    #[test]
    fn garbage_numbers_and_switches_mean_defaults() {
        let c = parse(&[
            ("GMG_PROF_INTERVAL_US", "fast"),
            ("GMG_FLIGHT", "maybe"),
            ("GMG_FLIGHT_CAPACITY", "-4"),
            ("GMG_FLIGHT_MAX_DUMPS", "1e3"),
            ("GMG_LIVE", "no"),
            ("GMG_LIVE_SILENT_MS", "0"),
        ]);
        assert_eq!(c, parse(&[]));
        for silent in ["banana", "-5"] {
            assert_eq!(parse(&[("GMG_LIVE_SILENT_MS", silent)]), parse(&[]));
        }
        // The kill switch is exactly "0"; anything else leaves live on.
        assert!(parse(&[("GMG_LIVE", "1")]).live);
    }

    #[test]
    fn set_values_are_honoured() {
        let c = parse(&[
            ("GMG_TRACE", "/tmp/t.json"),
            ("GMG_PROF", "p.folded"),
            ("GMG_PROF_INTERVAL_US", " 50 "),
            ("GMG_METRICS", "m.json"),
            ("GMG_FLIGHT", "off"),
            ("GMG_FLIGHT_CAPACITY", "1024"),
            ("GMG_FLIGHT_DIR", "/tmp/dumps"),
            ("GMG_FLIGHT_MAX_DUMPS", "0"),
            ("GMG_LIVE", "0"),
            ("GMG_LIVE_SILENT_MS", " 2000 "),
            ("GMG_PROM_ADDR", "127.0.0.1:9100"),
            ("GMG_RESULTS_DIR", "/tmp/results"),
        ]);
        assert_eq!(c.trace, Some(PathBuf::from("/tmp/t.json")));
        assert_eq!(c.prof, Some(PathBuf::from("p.folded")));
        assert_eq!(c.prof_interval, Duration::from_micros(50));
        assert_eq!(c.metrics, Some(PathBuf::from("m.json")));
        assert!(!c.flight);
        assert_eq!(c.flight_capacity, 1024);
        assert_eq!(c.flight_max_dumps, 0);
        assert!(!c.live);
        assert_eq!(c.live_silent, Duration::from_millis(2000));
        assert_eq!(c.prom_addr, "127.0.0.1:9100");
        assert_eq!(c.dump_dir(), PathBuf::from("/tmp/dumps"));
        for off in ["0", "false"] {
            assert!(!parse(&[("GMG_FLIGHT", off)]).flight);
        }
    }

    #[test]
    fn dumps_fall_back_to_the_results_dir() {
        let c = parse(&[("GMG_RESULTS_DIR", "/tmp/results")]);
        assert_eq!(c.dump_dir(), PathBuf::from("/tmp/results"));
    }
}
