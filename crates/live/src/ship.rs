//! Per-rank telemetry shipper.
//!
//! Hangs off the solver's `progress_hook`: every V-cycle produces a
//! beacon (cycle, residual, per-level op seconds, membership epoch),
//! metric deltas go out on a period (and always with the final beacon),
//! and a compact flight/trace digest rides along at the end. Everything
//! is best-effort fire-and-forget over a datagram sidecar — a send that
//! fails is a lost frame, which the collector's seq-gap accounting
//! *counts* and the plane tolerates by design. No ARQ, no blocking, no
//! impact on the solve: residual histories with the shipper attached are
//! bit-identical to `GMG_LIVE=0` runs (test-enforced in gmg-bench).
//!
//! Two targets:
//! * **process worlds** ([`Shipper::from_proc_env`]) — datagrams to the
//!   controller's sidecar socket (`t.sock` in `GMG_PROC_DIR`);
//! * **thread worlds** ([`Shipper::local`]) — the same encoded bytes
//!   handed straight to an in-process collector, so single-process runs
//!   exercise the identical codec and get the identical live view.

use crate::collect::CollectorHandle;
use crate::wire::{telemetry_frame, MAX_TEXT_BYTES, TAG_BEACON, TAG_DELTA, TAG_DIGEST};
use gmg_metrics::{Registry, Snapshot};
use gmg_trace::Json;
#[cfg(unix)]
use std::os::unix::net::UnixDatagram;
#[cfg(unix)]
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// One solve-progress observation, in shipper vocabulary. (Mirrors
/// `gmg_core::SolveProgress`; redeclared here so gmg-live stays below
/// the solver in the dependency order.)
#[derive(Clone, Debug, PartialEq)]
pub struct Beacon {
    pub rank: usize,
    /// Completed V-cycles.
    pub cycle: u64,
    pub residual: f64,
    /// Membership epoch at observation time.
    pub epoch: u64,
    /// Cumulative per-level op seconds.
    pub level_seconds: Vec<f64>,
    /// Final beacon of the solve.
    pub done: bool,
}

impl Beacon {
    fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("kind".to_string(), Json::Str("beacon".to_string())),
            ("rank".to_string(), Json::Num(self.rank as f64)),
            ("cycle".to_string(), Json::Num(self.cycle as f64)),
            // Shortest-roundtrip decimal keeps finite residuals
            // bit-exact; a string survives NaN/Inf too (Json::Num cannot).
            (
                "residual".to_string(),
                Json::Str(format!("{}", self.residual)),
            ),
            ("epoch".to_string(), Json::Num(self.epoch as f64)),
            (
                "level_seconds".to_string(),
                Json::Arr(self.level_seconds.iter().map(|&s| Json::Num(s)).collect()),
            ),
            ("done".to_string(), Json::Bool(self.done)),
        ])
    }

    /// Parse a beacon document (collector side).
    pub fn from_json(v: &Json) -> Option<Beacon> {
        Some(Beacon {
            rank: v.get("rank")?.as_u64()? as usize,
            cycle: v.get("cycle")?.as_u64()?,
            residual: v.get("residual")?.as_str()?.parse().ok()?,
            epoch: v.get("epoch")?.as_u64()?,
            level_seconds: v
                .get("level_seconds")?
                .as_arr()?
                .iter()
                .map(|s| s.as_f64())
                .collect::<Option<Vec<f64>>>()?,
            done: matches!(v.get("done"), Some(Json::Bool(true))),
        })
    }
}

enum Target {
    /// Datagrams to the process-world controller's sidecar socket.
    #[cfg(unix)]
    Uds { sock: UnixDatagram, path: PathBuf },
    /// Direct hand-off to an in-process collector (thread worlds).
    Local(CollectorHandle),
}

/// Per-rank telemetry shipper. Construct once per solve.
pub struct Shipper {
    rank: usize,
    seq: u64,
    epoch: u64,
    target: Target,
    /// What the last delta already shipped (global-registry baseline).
    last_snapshot: Snapshot,
    last_delta: Instant,
    delta_every: Duration,
    /// Thread worlds share one global registry across rank shippers, so
    /// exactly one of them (rank 0) ships deltas for everybody.
    ship_deltas: bool,
}

impl Shipper {
    /// Shipper for a process-world rank, addressed from the child's
    /// environment (`GMG_PROC_DIR`, `GMG_PROC_RANK`). `None` when live
    /// telemetry is disabled or this process is not a spawned rank.
    #[cfg(unix)]
    pub fn from_proc_env() -> Option<Shipper> {
        if !gmg_trace::ObsConfig::from_env().live {
            return None;
        }
        let dir = std::env::var("GMG_PROC_DIR").ok()?;
        let rank: usize = std::env::var("GMG_PROC_RANK").ok()?.parse().ok()?;
        let path = gmg_comm::telemetry_sock_path(std::path::Path::new(&dir));
        let sock = UnixDatagram::unbound().ok()?;
        sock.set_nonblocking(true).ok();
        Some(Shipper {
            rank,
            seq: 0,
            epoch: 0,
            target: Target::Uds { sock, path },
            last_snapshot: Snapshot::default(),
            last_delta: Instant::now(),
            delta_every: Duration::from_millis(100),
            ship_deltas: true,
        })
    }

    /// Thread-transport shim: ships the same encoded frames straight
    /// into `collector`. Deltas come from the (shared) global registry,
    /// so only the rank-0 shipper sends them.
    pub fn local(rank: usize, collector: CollectorHandle) -> Option<Shipper> {
        if !gmg_trace::ObsConfig::from_env().live {
            return None;
        }
        Some(Shipper {
            rank,
            seq: 0,
            epoch: 0,
            target: Target::Local(collector),
            last_snapshot: Snapshot::default(),
            last_delta: Instant::now(),
            delta_every: Duration::from_millis(100),
            ship_deltas: rank == 0,
        })
    }

    /// How often metric deltas ship (beacons go every cycle regardless).
    pub fn delta_every(mut self, d: Duration) -> Shipper {
        self.delta_every = d;
        self
    }

    /// Ship one progress beacon; also ships a metrics delta when the
    /// delta period has elapsed (always, on the final beacon, plus the
    /// digest).
    pub fn beacon(&mut self, b: &Beacon) {
        self.epoch = b.epoch;
        self.send(TAG_BEACON, &b.to_json().to_string());
        if b.done {
            self.ship_delta();
            self.ship_digest();
        } else if self.last_delta.elapsed() >= self.delta_every {
            self.ship_delta();
        }
    }

    /// Ship the global registry's growth since the previous delta.
    pub fn ship_delta(&mut self) {
        self.last_delta = Instant::now();
        if !self.ship_deltas || !gmg_metrics::enabled() {
            return;
        }
        let now = Registry::global().snapshot();
        let delta = now.delta_since(&self.last_snapshot);
        self.last_snapshot = now;
        if delta.entries.is_empty() {
            return;
        }
        // One frame per chunk: each chunk is an independent, complete
        // snapshot document, so any one frame lost loses only its rows.
        for chunk in chunk_snapshot(&delta) {
            let doc = Json::Obj(vec![
                ("kind".to_string(), Json::Str("delta".to_string())),
                ("rank".to_string(), Json::Num(self.rank as f64)),
                ("snapshot".to_string(), chunk.to_json()),
            ]);
            self.send(TAG_DELTA, &doc.to_string());
        }
    }

    /// Ship a compact flight-recorder/trace digest.
    pub fn ship_digest(&mut self) {
        let flight = match gmg_flight::installed() {
            Some((world, rank)) => {
                let logs = world.snapshot();
                match logs.iter().find(|l| l.rank == rank) {
                    Some(log) => Json::Obj(vec![
                        ("capacity".to_string(), Json::Num(log.capacity as f64)),
                        ("written".to_string(), Json::Num(log.written as f64)),
                        ("lost".to_string(), Json::Num(log.lost as f64)),
                    ]),
                    None => Json::Null,
                }
            }
            None => Json::Null,
        };
        let doc = Json::Obj(vec![
            ("kind".to_string(), Json::Str("digest".to_string())),
            ("rank".to_string(), Json::Num(self.rank as f64)),
            ("flight".to_string(), flight),
            ("trace_active".to_string(), Json::Bool(gmg_trace::enabled())),
        ]);
        self.send(TAG_DIGEST, &doc.to_string());
    }

    fn send(&mut self, tag: u64, text: &str) {
        let bytes = telemetry_frame(self.rank, tag, self.seq, self.epoch, text);
        self.seq += 1;
        match &self.target {
            #[cfg(unix)]
            Target::Uds { sock, path } => {
                // Fire-and-forget: ENOBUFS/ENOENT/EAGAIN are all just
                // lost frames to the loss-tolerant plane.
                let _ = sock.send_to(&bytes, path);
            }
            Target::Local(collector) => {
                let epoch = self.epoch;
                collector.lock().unwrap().ingest(&bytes, epoch);
            }
        }
    }
}

/// Split a snapshot into chunks whose JSON each fits one telemetry
/// frame. Greedy row packing against a conservative per-row bound.
fn chunk_snapshot(snap: &Snapshot) -> Vec<Snapshot> {
    let budget = MAX_TEXT_BYTES.saturating_sub(256);
    let mut chunks = Vec::new();
    let mut cur = Snapshot::default();
    let mut cur_bytes = 0usize;
    for e in &snap.entries {
        // Histogram rows dominate; measure the row as rendered.
        let row_bytes = Snapshot {
            entries: vec![e.clone()],
        }
        .to_json()
        .to_string()
        .len();
        if !cur.entries.is_empty() && cur_bytes + row_bytes > budget {
            chunks.push(std::mem::take(&mut cur));
            cur_bytes = 0;
        }
        cur.entries.push(e.clone());
        cur_bytes += row_bytes;
    }
    if !cur.entries.is_empty() {
        chunks.push(cur);
    }
    chunks
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn beacon_json_round_trips_including_non_finite_residuals() {
        for residual in [3.25e-11, 0.0, f64::NAN, f64::INFINITY, -1.5] {
            let b = Beacon {
                rank: 3,
                cycle: 7,
                residual,
                epoch: 2,
                level_seconds: vec![0.25, 0.125],
                done: true,
            };
            let text = b.to_json().to_string();
            let back = Beacon::from_json(&Json::parse(&text).unwrap()).unwrap();
            assert_eq!(back.rank, 3);
            assert_eq!(back.cycle, 7);
            assert_eq!(back.epoch, 2);
            assert_eq!(back.level_seconds, vec![0.25, 0.125]);
            assert!(back.done);
            if residual.is_nan() {
                assert!(back.residual.is_nan());
            } else {
                assert_eq!(back.residual.to_bits(), residual.to_bits());
            }
        }
    }

    #[test]
    fn chunking_preserves_every_row() {
        let mut snap = Snapshot::default();
        for i in 0..5000 {
            snap.entries.push(gmg_metrics::SnapshotEntry {
                name: format!("metric_{i:04}_total"),
                key: gmg_metrics::Key::new(i % 8, Some(i % 4), "op"),
                value: gmg_metrics::Value::Counter(i as u64),
            });
        }
        let chunks = chunk_snapshot(&snap);
        assert!(chunks.len() >= 2, "expected multiple chunks");
        let total: usize = chunks.iter().map(|c| c.entries.len()).sum();
        assert_eq!(total, 5000);
        for c in &chunks {
            assert!(c.to_json().to_string().len() <= MAX_TEXT_BYTES);
        }
    }
}
