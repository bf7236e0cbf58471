//! The live collector: merges per-rank telemetry into one global view.
//!
//! The collector owns a per-rank state machine (seq tracking with gap
//! accounting, epoch fencing, latest beacon, folded metric deltas) and
//! the [`AlertEngine`]. It is transport-agnostic: a process world feeds
//! it raw sidecar datagrams through `ProcessWorld::telemetry_sink`, a
//! thread world feeds it the same encoded bytes directly from local
//! shippers — either way every frame passes through the real wire codec.
//!
//! Deltas fold per rank in seq order: counters add, histograms merge,
//! gauges take the newest value. The cross-rank [`Collector::merged`]
//! view then folds rank snapshots with [`Snapshot::merge`], whose
//! order-independence is what makes "merge order must not match" a
//! property rather than a hope (see `tests/proptests.rs`).
//!
//! Time is the collector's own monotonic clock (ns since construction);
//! nothing here trusts sender clocks.

use crate::alert::{Alert, AlertConfig, AlertEngine, RankObservation};
use crate::ship::Beacon;
use crate::wire::{parse_telemetry, TAG_BEACON, TAG_DELTA, TAG_DIGEST};
use gmg_comm::frame::{Frame, FrameKind};
use gmg_metrics::{Key, Snapshot, SnapshotEntry, Value};
use gmg_trace::Json;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Shared collector handle: the controller sink, the HTTP listener, and
/// the driver all hold one of these.
pub type CollectorHandle = Arc<Mutex<Collector>>;

/// Per-rank live state.
#[derive(Default)]
struct RankLive {
    last_seq: Option<u64>,
    epoch: u64,
    lost: u64,
    frames: u64,
    last_heard_ns: u64,
    beacon: Option<Beacon>,
    snapshot: Snapshot,
    digest: Option<Json>,
}

struct StatusFile {
    base: PathBuf,
    every: Duration,
    last: Option<Instant>,
}

/// The global live registry + alert engine.
pub struct Collector {
    t0: Instant,
    /// Highest membership epoch seen (controller-fed); frames below it
    /// are fenced.
    epoch: u64,
    ranks: BTreeMap<usize, RankLive>,
    engine: AlertEngine,
    fenced: u64,
    malformed: u64,
    merged_at_ns: u64,
    status: Option<StatusFile>,
}

impl Collector {
    pub fn new(cfg: AlertConfig) -> Collector {
        Collector {
            t0: Instant::now(),
            epoch: 0,
            ranks: BTreeMap::new(),
            engine: AlertEngine::new(cfg),
            fenced: 0,
            malformed: 0,
            merged_at_ns: 0,
            status: None,
        }
    }

    /// Wrap into the shared handle everything downstream wants.
    pub fn into_handle(self) -> CollectorHandle {
        Arc::new(Mutex::new(self))
    }

    /// Also write a status file pair (`<base>.json`, `<base>.md`) at
    /// most once per `every` on the tick path.
    pub fn with_status_file(mut self, base: PathBuf, every: Duration) -> Collector {
        self.status = Some(StatusFile {
            base,
            every,
            last: None,
        });
        self
    }

    fn now_ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// Ingest one raw sidecar datagram. `controller_epoch` is the
    /// feeder's current membership epoch (0 where there is none); it
    /// advances the fence, and any frame from an older epoch is dropped.
    pub fn ingest(&mut self, bytes: &[u8], controller_epoch: u64) {
        self.epoch = self.epoch.max(controller_epoch);
        let f = match Frame::decode(bytes) {
            Ok(f) => f,
            Err(_) => {
                self.malformed += 1;
                return;
            }
        };
        if f.kind != FrameKind::Telemetry {
            // ARQ/control traffic can never contaminate the live view.
            self.malformed += 1;
            return;
        }
        if f.epoch < self.epoch {
            self.fenced += 1;
            return;
        }
        self.epoch = f.epoch;
        let Some((tag, text)) = parse_telemetry(&f) else {
            self.malformed += 1;
            return;
        };
        let now = self.now_ns();
        let rank = self.ranks.entry(f.src as usize).or_default();
        if f.epoch > rank.epoch {
            // New membership epoch: the rank's seq space restarts (a
            // respawned replacement counts from zero again).
            rank.epoch = f.epoch;
            rank.last_seq = None;
        }
        match rank.last_seq {
            Some(last) if f.seq <= last => return, // duplicate / reordered
            Some(last) => rank.lost += f.seq - last - 1,
            None => {}
        }
        rank.last_seq = Some(f.seq);
        rank.frames += 1;
        rank.last_heard_ns = now;
        let doc = match Json::parse(&text) {
            Ok(d) => d,
            Err(_) => {
                self.malformed += 1;
                return;
            }
        };
        match tag {
            TAG_BEACON => {
                if let Some(b) = Beacon::from_json(&doc) {
                    rank.beacon = Some(b);
                } else {
                    self.malformed += 1;
                }
            }
            TAG_DELTA => match doc.get("snapshot").map(Snapshot::from_json) {
                Some(Ok(delta)) => {
                    apply_delta(&mut rank.snapshot, &delta);
                    self.merged_at_ns = now;
                }
                _ => self.malformed += 1,
            },
            TAG_DIGEST => rank.digest = Some(doc),
            _ => self.malformed += 1,
        }
        self.tick();
    }

    /// Run the alert detectors (and the periodic status writer). Driven
    /// from every ingest, and independently on a timer by the HTTP
    /// listener — a silent rank produces no frames, so something other
    /// than ingest has to keep evaluating.
    pub fn tick(&mut self) {
        let now = self.now_ns();
        let merged = self.merged_raw();
        let obs: Vec<RankObservation> = self
            .ranks
            .iter()
            .map(|(&rank, r)| {
                let b = r.beacon.as_ref();
                RankObservation {
                    rank,
                    cycle: b.map_or(0, |b| b.cycle),
                    residual: b.map_or(f64::NAN, |b| b.residual),
                    level_seconds: b.map_or_else(Vec::new, |b| b.level_seconds.clone()),
                    quiet_ns: now.saturating_sub(r.last_heard_ns),
                    done: b.is_some_and(|b| b.done),
                    arq_retransmits: merged
                        .entries
                        .iter()
                        .filter(|e| e.name == "arq_retransmits_total" && e.key.rank == rank)
                        .filter_map(|e| match &e.value {
                            Value::Counter(c) => Some(*c),
                            _ => None,
                        })
                        .sum(),
                }
            })
            .collect();
        self.engine.evaluate(&obs, now);
        self.write_status_if_due();
    }

    /// Every alert fired so far.
    pub fn alerts(&self) -> Vec<Alert> {
        self.engine.alerts().to_vec()
    }

    /// Sum of known-lost telemetry frames (per-rank seq gaps).
    pub fn frames_lost(&self) -> u64 {
        self.ranks.values().map(|r| r.lost).sum()
    }

    /// Frames dropped by the membership-epoch fence.
    pub fn frames_fenced(&self) -> u64 {
        self.fenced
    }

    /// ns since the merged metric view last changed (0 before any delta).
    pub fn snapshot_age_ns(&self) -> u64 {
        if self.merged_at_ns == 0 {
            0
        } else {
            self.now_ns().saturating_sub(self.merged_at_ns)
        }
    }

    /// The collector's current membership-epoch fence.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Ranks heard from so far.
    pub fn ranks_seen(&self) -> Vec<usize> {
        self.ranks.keys().copied().collect()
    }

    fn merged_raw(&self) -> Snapshot {
        self.ranks
            .values()
            .fold(Snapshot::default(), |acc, r| acc.merge(&r.snapshot))
    }

    /// The merged live registry: every rank's folded deltas, plus
    /// progress gauges from the latest beacons and the alert counters —
    /// this is what the Prometheus endpoint serves.
    pub fn merged(&self) -> Snapshot {
        let mut snap = self.merged_raw();
        for (&rank, r) in &self.ranks {
            if let Some(b) = &r.beacon {
                snap.entries.push(SnapshotEntry {
                    name: "gmg_live_progress_cycles".to_string(),
                    key: Key::new(rank, None, "live"),
                    value: Value::Gauge(b.cycle as f64),
                });
                snap.entries.push(SnapshotEntry {
                    name: "gmg_live_rank_epoch".to_string(),
                    key: Key::new(rank, None, "live"),
                    value: Value::Gauge(b.epoch as f64),
                });
            }
        }
        let mut alert_counts: BTreeMap<(usize, Option<usize>, &'static str), u64> = BTreeMap::new();
        for a in self.engine.alerts() {
            *alert_counts
                .entry((a.rank, a.level, a.kind.name()))
                .or_default() += 1;
        }
        for ((rank, level, kind), n) in alert_counts {
            snap.entries.push(SnapshotEntry {
                name: "gmg_live_alerts_total".to_string(),
                key: Key::new(rank, level, kind),
                value: Value::Counter(n),
            });
        }
        snap.entries
            .sort_by(|a, b| (&a.name, &a.key).cmp(&(&b.name, &b.key)));
        snap
    }

    /// Structured live status (the JSON half of the status file).
    pub fn status_json(&self) -> Json {
        let ranks = self
            .ranks
            .iter()
            .map(|(&rank, r)| {
                let mut fields = vec![
                    ("rank".to_string(), Json::Num(rank as f64)),
                    ("epoch".to_string(), Json::Num(r.epoch as f64)),
                    ("frames".to_string(), Json::Num(r.frames as f64)),
                    ("lost".to_string(), Json::Num(r.lost as f64)),
                    (
                        "quiet_ms".to_string(),
                        Json::Num(self.now_ns().saturating_sub(r.last_heard_ns) as f64 / 1e6),
                    ),
                ];
                if let Some(b) = &r.beacon {
                    fields.push(("cycle".to_string(), Json::Num(b.cycle as f64)));
                    fields.push(("residual".to_string(), Json::Str(format!("{}", b.residual))));
                    fields.push(("done".to_string(), Json::Bool(b.done)));
                }
                if let Some(d) = &r.digest {
                    fields.push(("digest".to_string(), d.clone()));
                }
                Json::Obj(fields)
            })
            .collect();
        let alerts = self
            .engine
            .alerts()
            .iter()
            .map(|a| {
                Json::Obj(vec![
                    ("kind".to_string(), Json::Str(a.kind.name().to_string())),
                    ("rank".to_string(), Json::Num(a.rank as f64)),
                    (
                        "level".to_string(),
                        a.level.map_or(Json::Null, |l| Json::Num(l as f64)),
                    ),
                    ("detail".to_string(), Json::Str(a.detail.clone())),
                    ("at_ns".to_string(), Json::Num(a.at_ns as f64)),
                ])
            })
            .collect();
        Json::Obj(vec![
            ("schema".to_string(), Json::Num(1.0)),
            ("epoch".to_string(), Json::Num(self.epoch as f64)),
            ("now_ns".to_string(), Json::Num(self.now_ns() as f64)),
            ("fenced".to_string(), Json::Num(self.fenced as f64)),
            ("malformed".to_string(), Json::Num(self.malformed as f64)),
            (
                "frames_lost".to_string(),
                Json::Num(self.frames_lost() as f64),
            ),
            ("ranks".to_string(), Json::Arr(ranks)),
            ("alerts".to_string(), Json::Arr(alerts)),
        ])
    }

    /// Human-readable status (the markdown half of the status file).
    pub fn status_markdown(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::from("# gmg-live status\n\n");
        let _ = writeln!(
            out,
            "epoch {} · {} rank(s) · {} frame(s) lost · {} fenced\n",
            self.epoch,
            self.ranks.len(),
            self.frames_lost(),
            self.fenced
        );
        out.push_str("| rank | epoch | cycle | residual | done | quiet (ms) | frames | lost |\n");
        out.push_str("|---:|---:|---:|---|---|---:|---:|---:|\n");
        for (&rank, r) in &self.ranks {
            let (cycle, residual, done) = match &r.beacon {
                Some(b) => (b.cycle.to_string(), format!("{:e}", b.residual), b.done),
                None => ("-".to_string(), "-".to_string(), false),
            };
            let _ = writeln!(
                out,
                "| {} | {} | {} | {} | {} | {:.0} | {} | {} |",
                rank,
                r.epoch,
                cycle,
                residual,
                done,
                self.now_ns().saturating_sub(r.last_heard_ns) as f64 / 1e6,
                r.frames,
                r.lost
            );
        }
        let alerts = self.engine.alerts();
        if alerts.is_empty() {
            out.push_str("\nNo alerts.\n");
        } else {
            out.push_str("\n## Alerts\n\n");
            for a in alerts {
                let _ = writeln!(
                    out,
                    "- **{}** rank {} — {}",
                    a.kind.name(),
                    a.rank,
                    a.detail
                );
            }
        }
        out
    }

    fn write_status_if_due(&mut self) {
        let due = match &self.status {
            Some(s) => s.last.map_or(true, |t| t.elapsed() >= s.every),
            None => return,
        };
        if !due {
            return;
        }
        let json = self.status_json().to_string();
        let md = self.status_markdown();
        if let Some(s) = &mut self.status {
            s.last = Some(Instant::now());
            let _ = std::fs::write(s.base.with_extension("json"), json);
            let _ = std::fs::write(s.base.with_extension("md"), md);
        }
    }
}

/// Fold one same-rank delta into the running snapshot: counters add,
/// histograms merge, gauges take the delta's (newer) value. Seq ordering
/// is enforced by the caller, so "newer" is well-defined.
fn apply_delta(base: &mut Snapshot, delta: &Snapshot) {
    for e in &delta.entries {
        match base
            .entries
            .iter_mut()
            .find(|b| b.name == e.name && b.key == e.key)
        {
            Some(b) => {
                b.value = match (&b.value, &e.value) {
                    (Value::Counter(a), Value::Counter(d)) => Value::Counter(a.saturating_add(*d)),
                    (Value::Histogram(a), Value::Histogram(d)) => {
                        let mut h = a.clone();
                        h.merge(d);
                        Value::Histogram(h)
                    }
                    (_, newer) => newer.clone(),
                };
            }
            None => base.entries.push(e.clone()),
        }
    }
    base.entries
        .sort_by(|a, b| (&a.name, &a.key).cmp(&(&b.name, &b.key)));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::telemetry_frame;
    use gmg_metrics::hist::bucket_high;
    use gmg_metrics::prom::{render_prometheus_with_self, SelfMetrics};
    use gmg_metrics::Histogram;

    fn beacon_bytes(rank: usize, seq: u64, epoch: u64, cycle: u64, residual: f64) -> Vec<u8> {
        let b = Beacon {
            rank,
            cycle,
            residual,
            epoch,
            level_seconds: vec![0.01 * cycle as f64],
            done: false,
        };
        telemetry_frame(rank, TAG_BEACON, seq, epoch, &beacon_text(&b))
    }

    fn beacon_text(b: &Beacon) -> String {
        Json::Obj(vec![
            ("kind".to_string(), Json::Str("beacon".to_string())),
            ("rank".to_string(), Json::Num(b.rank as f64)),
            ("cycle".to_string(), Json::Num(b.cycle as f64)),
            ("residual".to_string(), Json::Str(format!("{}", b.residual))),
            ("epoch".to_string(), Json::Num(b.epoch as f64)),
            (
                "level_seconds".to_string(),
                Json::Arr(b.level_seconds.iter().map(|&s| Json::Num(s)).collect()),
            ),
            ("done".to_string(), Json::Bool(b.done)),
        ])
        .to_string()
    }

    fn delta_bytes(rank: usize, seq: u64, epoch: u64, snap: &Snapshot) -> Vec<u8> {
        let doc = Json::Obj(vec![
            ("kind".to_string(), Json::Str("delta".to_string())),
            ("rank".to_string(), Json::Num(rank as f64)),
            ("snapshot".to_string(), snap.to_json()),
        ]);
        telemetry_frame(rank, TAG_DELTA, seq, epoch, &doc.to_string())
    }

    fn counter_snap(rank: usize, name: &str, n: u64) -> Snapshot {
        Snapshot {
            entries: vec![SnapshotEntry {
                name: name.to_string(),
                key: Key::new(rank, None, "arq"),
                value: Value::Counter(n),
            }],
        }
    }

    #[test]
    fn deltas_fold_and_seq_gaps_count_as_lost() {
        let mut c = Collector::new(AlertConfig::default());
        c.ingest(&delta_bytes(1, 0, 0, &counter_snap(1, "x_total", 2)), 0);
        // seq 1 lost on the wire.
        c.ingest(&delta_bytes(1, 2, 0, &counter_snap(1, "x_total", 3)), 0);
        // A duplicate of seq 2 must not double-count.
        c.ingest(&delta_bytes(1, 2, 0, &counter_snap(1, "x_total", 3)), 0);
        assert_eq!(c.frames_lost(), 1);
        assert_eq!(c.merged().counter_total("x_total"), 5);
    }

    #[test]
    fn stale_epoch_frames_are_fenced() {
        let mut c = Collector::new(AlertConfig::default());
        c.ingest(&delta_bytes(0, 0, 0, &counter_snap(0, "x_total", 1)), 0);
        // Controller advances to epoch 1; an epoch-0 straggler frame is
        // dropped, an epoch-1 frame (fresh seq space) lands.
        c.ingest(&delta_bytes(0, 1, 0, &counter_snap(0, "x_total", 10)), 1);
        c.ingest(&delta_bytes(0, 0, 1, &counter_snap(0, "x_total", 4)), 1);
        assert_eq!(c.frames_fenced(), 1);
        assert_eq!(c.merged().counter_total("x_total"), 5);
        assert_eq!(c.epoch(), 1);
    }

    #[test]
    fn non_telemetry_bytes_never_contaminate() {
        let mut c = Collector::new(AlertConfig::default());
        c.ingest(b"garbage", 0);
        let data = gmg_comm::Frame {
            kind: FrameKind::Data,
            src: 0,
            dst: 1,
            tag: 9,
            seq: 9,
            epoch: 0,
            frag_index: 0,
            frag_count: 1,
            arq_checksum: 0,
            payload: vec![1.0],
        }
        .encode();
        c.ingest(&data, 0);
        assert!(c.ranks_seen().is_empty());
        assert_eq!(c.merged().entries.len(), 0);
        assert_eq!(c.frames_lost(), 0);
    }

    #[test]
    fn beacons_feed_progress_gauges_and_status() {
        let mut c = Collector::new(AlertConfig::default());
        for rank in 0..3 {
            c.ingest(&beacon_bytes(rank, 0, 0, 4, 1e-7), 0);
        }
        let m = c.merged();
        assert_eq!(
            m.get("gmg_live_progress_cycles", &Key::new(2, None, "live")),
            Some(&Value::Gauge(4.0))
        );
        let status = c.status_json().to_string();
        let parsed = Json::parse(&status).unwrap();
        assert_eq!(parsed.get("ranks").unwrap().as_arr().unwrap().len(), 3);
        assert!(c.status_markdown().contains("| rank |"));
    }

    #[test]
    fn near_max_histogram_deltas_saturate_through_merge_render_and_quantiles() {
        // Two delta frames, each holding valid histograms of 2^63 samples,
        // whose fold carries counts past u64::MAX: `one_bucket` overflows a
        // bucket and the count, `two_buckets` the running sums of the
        // quantile and of the cumulative `_bucket` lines.
        let half = 1u64 << 63;
        let entry = |name: &str, bucket: usize| {
            let h = Histogram::from_parts(&[(bucket, half)], half, 0, 0, bucket_high(bucket));
            SnapshotEntry {
                name: name.to_string(),
                key: Key::new(0, None, "x"),
                value: Value::Histogram(h.unwrap()),
            }
        };
        let frame = |seq: u64, bucket: usize| {
            let entries = vec![entry("one_bucket", 3), entry("two_buckets", bucket)];
            delta_bytes(0, seq, 0, &Snapshot { entries })
        };
        let mut c = Collector::new(AlertConfig::default());
        c.ingest(&frame(0, 3), 0);
        c.ingest(&frame(1, 5), 0);
        let merged = c.merged();
        for name in ["one_bucket", "two_buckets"] {
            let Some(Value::Histogram(h)) = merged.get(name, &Key::new(0, None, "x")) else {
                panic!("{name} missing from {merged:?}");
            };
            assert_eq!(h.count(), u64::MAX, "{name}");
            let (min, max) = (h.min().unwrap(), h.max().unwrap());
            for q in [0.0, 0.5, 0.99, 1.0] {
                let v = h.quantile(q).unwrap();
                assert!(min <= v && v <= max, "{name} q={q}: {v}");
            }
        }
        let text = render_prometheus_with_self(&merged, &SelfMetrics::default());
        let cumulative: Vec<u64> = text
            .lines()
            .filter(|l| l.starts_with("two_buckets_bucket"))
            .map(|l| l.rsplit(' ').next().unwrap().parse().unwrap())
            .collect();
        assert_eq!(cumulative, [half, u64::MAX, u64::MAX]);
        assert!(text.contains(&format!(
            "one_bucket_count{{rank=\"0\",level=\"none\",op=\"x\"}} {}",
            u64::MAX
        )));
    }
}
