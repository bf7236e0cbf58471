//! Alert engine over the merged telemetry stream.
//!
//! Four detectors, each firing once per episode and re-arming when the
//! condition clears (or never, for one-way conditions like divergence):
//!
//! * **divergence** — a beacon residual goes non-finite or grows by more
//!   than `divergence_factor` over the best residual that rank reported;
//! * **silent-rank** — a rank that has beaconed before goes quiet for
//!   longer than `silent_after` (a large multiple of the 20 ms membership
//!   heartbeat cadence) without having reported completion;
//! * **straggler** — one rank's per-cycle seconds at some level sit
//!   outside the robust MAD envelope of its peers
//!   ([`gmg_metrics::analysis::mad_outliers`], the same machinery behind
//!   the offline trace outlier report);
//! * **ARQ storm** — a rank's cumulative `arq_retransmits_total` crosses
//!   `arq_storm_retransmits` (retransmits are routine under seeded loss;
//!   a storm is an order of magnitude above the expected rate).
//!
//! Every fired alert is a structured [`Alert`] that lands in three
//! places: the global metrics registry (`gmg_live_alerts_total`), the
//! flight recorder (a control event, so postmortems see it on the
//! timeline), and the collector's live status output / Prometheus
//! exposition.

use gmg_metrics::analysis::mad_outliers;
use gmg_trace::probe::{self, Kind};
use std::collections::{BTreeMap, BTreeSet};
use std::time::Duration;

/// What went wrong.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum AlertKind {
    Divergence,
    SilentRank,
    Straggler,
    ArqStorm,
}

impl AlertKind {
    pub fn name(self) -> &'static str {
        match self {
            AlertKind::Divergence => "divergence",
            AlertKind::SilentRank => "silent_rank",
            AlertKind::Straggler => "straggler",
            AlertKind::ArqStorm => "arq_storm",
        }
    }

    /// The alert as a control-plane probe event.
    fn flight_op(self) -> &'static str {
        match self {
            AlertKind::Divergence => "live:alert:divergence",
            AlertKind::SilentRank => "live:alert:silent_rank",
            AlertKind::Straggler => "live:alert:straggler",
            AlertKind::ArqStorm => "live:alert:arq_storm",
        }
    }
}

/// One fired alert.
#[derive(Clone, Debug, PartialEq)]
pub struct Alert {
    pub kind: AlertKind,
    /// The culprit rank.
    pub rank: usize,
    /// Level the condition localized to, when it did (stragglers).
    pub level: Option<usize>,
    /// Human-readable evidence.
    pub detail: String,
    /// Collector-clock timestamp (ns since the collector started).
    pub at_ns: u64,
}

/// Detector thresholds. Defaults are sized for the bench worlds (4–8
/// ranks, paced cycles in the tens of milliseconds).
#[derive(Clone, Debug)]
pub struct AlertConfig {
    /// Fire divergence when `residual > factor * best_residual_seen`.
    pub divergence_factor: f64,
    /// Beacon gap before a rank counts as silent (heartbeat cadence is
    /// 20 ms; beacons arrive at least once per V-cycle). The default is
    /// overridable via `GMG_LIVE_SILENT_MS` (positive integer,
    /// milliseconds) for slow CI machines and simulated time bases.
    pub silent_after: Duration,
    /// Cycles every rank must complete before straggler statistics run
    /// (early cycles carry startup noise).
    pub straggler_min_cycles: u64,
    /// Absolute per-cycle-seconds floor under which level timings are
    /// never flagged (suppresses jitter on trivially fast levels).
    pub straggler_abs_floor_s: f64,
    /// Cumulative per-rank retransmit count that counts as a storm.
    pub arq_storm_retransmits: u64,
}

impl Default for AlertConfig {
    fn default() -> Self {
        AlertConfig {
            divergence_factor: 1e4,
            silent_after: gmg_trace::ObsConfig::from_env().live_silent,
            straggler_min_cycles: 3,
            straggler_abs_floor_s: 2e-3,
            arq_storm_retransmits: 200,
        }
    }
}

/// Per-rank view the detectors read (assembled by the collector).
#[derive(Clone, Debug)]
pub struct RankObservation {
    pub rank: usize,
    /// Completed V-cycles from the latest beacon.
    pub cycle: u64,
    /// Latest residual.
    pub residual: f64,
    /// Cumulative per-level op seconds from the latest beacon.
    pub level_seconds: Vec<f64>,
    /// ns (collector clock) since this rank was last heard from.
    pub quiet_ns: u64,
    /// The rank reported a final beacon (solve finished).
    pub done: bool,
    /// Cumulative ARQ retransmits from this rank's metric deltas.
    pub arq_retransmits: u64,
}

/// Stateful detector set; owned by the collector.
pub struct AlertEngine {
    cfg: AlertConfig,
    fired: Vec<Alert>,
    best_residual: BTreeMap<usize, f64>,
    diverged: BTreeSet<usize>,
    silent: BTreeSet<usize>,
    stragglers: BTreeSet<(usize, usize)>,
    storms: BTreeSet<usize>,
}

impl AlertEngine {
    pub fn new(cfg: AlertConfig) -> AlertEngine {
        AlertEngine {
            cfg,
            fired: Vec::new(),
            best_residual: BTreeMap::new(),
            diverged: BTreeSet::new(),
            silent: BTreeSet::new(),
            stragglers: BTreeSet::new(),
            storms: BTreeSet::new(),
        }
    }

    /// Every alert fired so far, in firing order.
    pub fn alerts(&self) -> &[Alert] {
        &self.fired
    }

    fn fire(
        &mut self,
        kind: AlertKind,
        rank: usize,
        level: Option<usize>,
        detail: String,
        at_ns: u64,
    ) {
        if gmg_metrics::enabled() {
            gmg_metrics::counter("gmg_live_alerts_total", rank, level, kind.name()).inc();
        }
        probe::event(Kind::Control, kind.flight_op());
        self.fired.push(Alert {
            kind,
            rank,
            level,
            detail,
            at_ns,
        });
    }

    /// Run every detector over the current per-rank observations.
    /// `now_ns` is the collector clock.
    pub fn evaluate(&mut self, obs: &[RankObservation], now_ns: u64) {
        self.check_divergence(obs, now_ns);
        self.check_silent(obs, now_ns);
        self.check_stragglers(obs, now_ns);
        self.check_arq_storm(obs, now_ns);
    }

    fn check_divergence(&mut self, obs: &[RankObservation], now_ns: u64) {
        for o in obs.iter().filter(|o| o.cycle > 0) {
            if self.diverged.contains(&o.rank) {
                continue;
            }
            let best = {
                let slot = self.best_residual.entry(o.rank).or_insert(f64::INFINITY);
                if o.residual.is_finite() {
                    *slot = slot.min(o.residual);
                }
                *slot
            };
            let blown = !o.residual.is_finite()
                || (best.is_finite() && o.residual > self.cfg.divergence_factor * best);
            if blown {
                let detail = format!(
                    "rank {} residual {:e} at cycle {} (best seen {:e}, factor {:e})",
                    o.rank, o.residual, o.cycle, best, self.cfg.divergence_factor
                );
                self.diverged.insert(o.rank);
                self.fire(AlertKind::Divergence, o.rank, None, detail, now_ns);
            }
        }
    }

    fn check_silent(&mut self, obs: &[RankObservation], now_ns: u64) {
        let after = self.cfg.silent_after.as_nanos() as u64;
        for o in obs {
            if o.done || o.cycle == 0 {
                // Never flag a rank that finished, or one that has not
                // produced its first beacon yet (startup ramp).
                self.silent.remove(&o.rank);
                continue;
            }
            if o.quiet_ns <= after {
                // Heard from again: re-arm for the next episode.
                self.silent.remove(&o.rank);
                continue;
            }
            if self.silent.insert(o.rank) {
                let detail = format!(
                    "rank {} silent for {:.0} ms at cycle {} (threshold {:.0} ms)",
                    o.rank,
                    o.quiet_ns as f64 / 1e6,
                    o.cycle,
                    after as f64 / 1e6
                );
                self.fire(AlertKind::SilentRank, o.rank, None, detail, now_ns);
            }
        }
    }

    fn check_stragglers(&mut self, obs: &[RankObservation], now_ns: u64) {
        // Wait until the whole surviving fleet has enough cycles for the
        // per-cycle normalization to mean something.
        let live: Vec<&RankObservation> = obs.iter().filter(|o| o.cycle > 0).collect();
        if live.len() < 3 || live.iter().any(|o| o.cycle < self.cfg.straggler_min_cycles) {
            return;
        }
        let levels = live
            .iter()
            .map(|o| o.level_seconds.len())
            .max()
            .unwrap_or(0);
        for level in 0..levels {
            // mad_outliers' robust-σ floor is 1 in the sample's unit, a
            // value sized for nanoseconds — so feed it ns, not seconds.
            let per_cycle: Vec<f64> = live
                .iter()
                .map(|o| {
                    o.level_seconds.get(level).copied().unwrap_or(0.0) / o.cycle.max(1) as f64 * 1e9
                })
                .collect();
            let floor_ns = self.cfg.straggler_abs_floor_s * 1e9;
            if per_cycle.iter().all(|&s| s < floor_ns) {
                continue;
            }
            let verdicts = mad_outliers(&per_cycle, 3, floor_ns);
            for (i, (o, v)) in live.iter().zip(&verdicts).enumerate() {
                if v.flagged && self.stragglers.insert((o.rank, level)) {
                    let detail = format!(
                        "rank {} level {}: {:.1} ms/cycle vs median {:.1} ms/cycle \
                         (robust z {:.1})",
                        o.rank,
                        level,
                        per_cycle[i] / 1e6,
                        v.median / 1e6,
                        v.score
                    );
                    self.fire(AlertKind::Straggler, o.rank, Some(level), detail, now_ns);
                }
            }
        }
    }

    fn check_arq_storm(&mut self, obs: &[RankObservation], now_ns: u64) {
        for o in obs {
            if o.arq_retransmits > self.cfg.arq_storm_retransmits && self.storms.insert(o.rank) {
                let detail = format!(
                    "rank {}: {} cumulative ARQ retransmits (threshold {})",
                    o.rank, o.arq_retransmits, self.cfg.arq_storm_retransmits
                );
                self.fire(AlertKind::ArqStorm, o.rank, None, detail, now_ns);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ob(rank: usize, cycle: u64, residual: f64, level_seconds: Vec<f64>) -> RankObservation {
        RankObservation {
            rank,
            cycle,
            residual,
            level_seconds,
            quiet_ns: 0,
            done: false,
            arq_retransmits: 0,
        }
    }

    #[test]
    fn clean_world_raises_nothing() {
        let mut e = AlertEngine::new(AlertConfig::default());
        for cycle in 1..=6 {
            let obs: Vec<_> = (0..4)
                .map(|r| {
                    ob(
                        r,
                        cycle,
                        1e-3 / cycle as f64,
                        vec![0.02 * cycle as f64, 0.01 * cycle as f64],
                    )
                })
                .collect();
            e.evaluate(&obs, cycle * 1_000_000);
        }
        assert!(e.alerts().is_empty(), "{:?}", e.alerts());
    }

    #[test]
    fn divergence_fires_once_on_blowup_or_nan() {
        let mut e = AlertEngine::new(AlertConfig::default());
        e.evaluate(&[ob(0, 1, 1e-6, vec![]), ob(1, 1, 1e-6, vec![])], 0);
        e.evaluate(&[ob(0, 2, 1e3, vec![]), ob(1, 2, f64::NAN, vec![])], 1);
        e.evaluate(&[ob(0, 3, 1e5, vec![]), ob(1, 3, f64::NAN, vec![])], 2);
        let kinds: Vec<_> = e.alerts().iter().map(|a| (a.kind, a.rank)).collect();
        assert_eq!(
            kinds,
            [(AlertKind::Divergence, 0), (AlertKind::Divergence, 1)]
        );
    }

    #[test]
    fn silent_rank_fires_per_episode_and_skips_done_ranks() {
        let cfg = AlertConfig::default();
        let quiet = cfg.silent_after.as_nanos() as u64 + 1;
        let mut e = AlertEngine::new(cfg);
        let mut o = ob(2, 4, 1e-6, vec![]);
        o.quiet_ns = quiet;
        e.evaluate(std::slice::from_ref(&o), 0);
        e.evaluate(std::slice::from_ref(&o), 1); // still silent: no re-fire
        assert_eq!(e.alerts().len(), 1);
        assert_eq!(e.alerts()[0].kind, AlertKind::SilentRank);
        // Beacon arrives (re-arm), then silence again: second episode.
        o.quiet_ns = 0;
        e.evaluate(std::slice::from_ref(&o), 2);
        o.quiet_ns = quiet;
        e.evaluate(std::slice::from_ref(&o), 3);
        assert_eq!(e.alerts().len(), 2);
        // A done rank is never silent.
        o.done = true;
        o.quiet_ns = quiet * 10;
        let mut e2 = AlertEngine::new(AlertConfig::default());
        e2.evaluate(std::slice::from_ref(&o), 0);
        assert!(e2.alerts().is_empty());
    }

    #[test]
    fn straggler_names_the_slow_rank_and_level() {
        let mut e = AlertEngine::new(AlertConfig::default());
        let obs: Vec<_> = (0..4)
            .map(|r| {
                let slow = if r == 2 { 0.50 } else { 0.05 };
                ob(r, 5, 1e-6, vec![5.0 * slow, 5.0 * 0.01])
            })
            .collect();
        e.evaluate(&obs, 0);
        let hits: Vec<_> = e
            .alerts()
            .iter()
            .filter(|a| a.kind == AlertKind::Straggler)
            .collect();
        assert_eq!(hits.len(), 1, "{:?}", e.alerts());
        assert_eq!((hits[0].rank, hits[0].level), (2, Some(0)));
        // Same world again: one episode, one alert.
        e.evaluate(&obs, 1);
        assert_eq!(e.alerts().len(), 1);
    }

    #[test]
    fn arq_storm_crosses_threshold_once() {
        let mut e = AlertEngine::new(AlertConfig::default());
        let mut o = ob(1, 2, 1e-6, vec![]);
        o.arq_retransmits = 10;
        e.evaluate(std::slice::from_ref(&o), 0);
        assert!(e.alerts().is_empty());
        o.arq_retransmits = 500;
        e.evaluate(std::slice::from_ref(&o), 1);
        e.evaluate(std::slice::from_ref(&o), 2);
        assert_eq!(e.alerts().len(), 1);
        assert_eq!(e.alerts()[0].kind, AlertKind::ArqStorm);
    }
}
