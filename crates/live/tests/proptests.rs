//! Property tests for the live telemetry plane.
//!
//! Two families:
//! * algebra of [`Snapshot::merge`] — associative, commutative,
//!   identity on the empty snapshot — which is what makes the
//!   collector's cross-rank fold order-independent;
//! * frame interleaving — telemetry frames mixed into ARQ-style data
//!   traffic (including adversarial src/tag/seq collisions) never
//!   contaminate the collector, and the collector's merged view is
//!   invariant under any interleaving that preserves per-rank order.

use gmg_comm::{Frame, FrameKind};
use gmg_live::{AlertConfig, Collector};
use gmg_metrics::{Histogram, Key, Snapshot, SnapshotEntry, Value};
use gmg_proptest::prelude::*;
use gmg_trace::Json;

const OPS: [&str; 3] = ["smooth", "residual", "exchange"];

/// One generated metric row. Kind is a function of the name (as in a
/// real registry, where a metric name has exactly one kind).
fn entry(name_idx: usize, rank: usize, level: usize, seed: u64) -> SnapshotEntry {
    let level = if level == 0 { None } else { Some(level - 1) };
    let key = Key::new(rank, level, OPS[name_idx % OPS.len()]);
    let (name, value) = match name_idx % 3 {
        0 => (format!("prop_{name_idx}_total"), Value::Counter(seed)),
        1 => (
            format!("prop_{name_idx}_gauge"),
            Value::Gauge(seed as f64 * 0.5),
        ),
        _ => {
            let mut h = Histogram::new();
            for i in 0..(seed % 5 + 1) {
                h.record(seed.wrapping_mul(31).wrapping_add(i) % 10_000 + 1);
            }
            (format!("prop_{name_idx}_ns"), Value::Histogram(h))
        }
    };
    SnapshotEntry { name, key, value }
}

/// Build a snapshot from raw seeds: rows decode from seed bits.
fn snapshot_from(seeds: &[u64]) -> Snapshot {
    let mut entries: Vec<SnapshotEntry> = Vec::new();
    for &s in seeds {
        let e = entry(
            (s % 6) as usize,
            ((s >> 3) % 4) as usize,
            ((s >> 5) % 4) as usize,
            (s >> 7) % 1000,
        );
        // One row per (name, key), like a real registry snapshot.
        if !entries.iter().any(|x| x.name == e.name && x.key == e.key) {
            entries.push(e);
        }
    }
    entries.sort_by(|a, b| (&a.name, &a.key).cmp(&(&b.name, &b.key)));
    Snapshot { entries }
}

/// Encode a delta document the way the shipper does.
fn delta_bytes(rank: usize, seq: u64, snap: &Snapshot) -> Vec<u8> {
    let doc = Json::Obj(vec![
        ("kind".to_string(), Json::Str("delta".to_string())),
        ("rank".to_string(), Json::Num(rank as f64)),
        ("snapshot".to_string(), snap.to_json()),
    ]);
    gmg_live::wire::telemetry_frame(rank, gmg_live::wire::TAG_DELTA, seq, 0, &doc.to_string())
}

/// An ARQ-plane data frame deliberately colliding with telemetry
/// src/tag/seq numbering.
fn data_bytes(src: usize, tag: u64, seq: u64) -> Vec<u8> {
    Frame {
        kind: FrameKind::Data,
        src: src as u32,
        dst: 0,
        tag,
        seq,
        epoch: 0,
        frag_index: 0,
        frag_count: 1,
        arq_checksum: 0,
        payload: vec![tag as f64, seq as f64],
    }
    .encode()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// merge is commutative and associative, with the empty snapshot as
    /// identity — the collector may fold ranks in any order.
    #[test]
    fn merge_is_commutative_associative_with_identity(
        a_seeds in prop::collection::vec(any::<u64>(), 0..12),
        b_seeds in prop::collection::vec(any::<u64>(), 0..12),
        c_seeds in prop::collection::vec(any::<u64>(), 0..12),
    ) {
        let (a, b, c) = (
            snapshot_from(&a_seeds),
            snapshot_from(&b_seeds),
            snapshot_from(&c_seeds),
        );
        prop_assert_eq!(a.merge(&b), b.merge(&a));
        prop_assert_eq!(a.merge(&b).merge(&c), a.merge(&b.merge(&c)));
        let empty = Snapshot::default();
        prop_assert_eq!(a.merge(&empty), normalized(&a));
        prop_assert_eq!(empty.merge(&a), normalized(&a));
    }

    /// Telemetry deltas interleaved with colliding ARQ data traffic:
    /// the collector's counters come out exactly equal to the telemetry
    /// sum, the data frames create no rank state, and the result is
    /// invariant under the interleaving order (per-rank telemetry order
    /// preserved).
    #[test]
    fn arq_interleaving_never_contaminates_the_collector(
        counts in prop::collection::vec(1u64..50, 1..5),
        n_noise in 0usize..12,
        pick_noise_first in prop::collection::vec(any::<bool>(), 0..32),
    ) {
        // Per-rank telemetry streams: rank r ships `counts[r]` split
        // over two deltas (so per-rank ordering matters).
        let mut streams: Vec<Vec<Vec<u8>>> = Vec::new();
        for (r, &total) in counts.iter().enumerate() {
            let first = total / 2;
            let snap = |n: u64| Snapshot {
                entries: vec![SnapshotEntry {
                    name: "prop_interleave_total".to_string(),
                    key: Key::new(r, None, "smooth"),
                    value: Value::Counter(n),
                }],
            };
            streams.push(vec![
                delta_bytes(r, 0, &snap(first)),
                delta_bytes(r, 1, &snap(total - first)),
            ]);
        }
        // Colliding noise: data frames reusing telemetry src/tag/seq.
        let noise: Vec<Vec<u8>> = (0..n_noise)
            .map(|i| data_bytes(i % counts.len(), (i as u64 % 3) + 1, i as u64 % 2))
            .collect();

        let run = |order_noise_first: bool, rotate: bool| {
            let mut c = Collector::new(AlertConfig::default());
            let mut streams = streams.clone();
            let mut noise = noise.clone();
            let mut flip = pick_noise_first.iter().cycle().copied();
            let mut turn = 0usize;
            loop {
                let noise_turn = order_noise_first == flip.next().unwrap_or(false);
                let frame = if noise_turn && !noise.is_empty() {
                    Some(noise.remove(0))
                } else {
                    // Rotate across rank streams (or drain in rank
                    // order); per-rank ordering holds either way.
                    let len = streams.len();
                    let start = if rotate { turn % len } else { 0 };
                    turn += 1;
                    (0..len)
                        .map(|i| (start + i) % len)
                        .find(|&i| !streams[i].is_empty())
                        .map(|i| streams[i].remove(0))
                };
                match frame.or_else(|| noise.pop()) {
                    Some(f) => c.ingest(&f, 0),
                    None => break,
                }
            }
            c
        };

        let c1 = run(false, false);
        let c2 = run(true, true);
        let expected: u64 = counts.iter().sum();
        prop_assert_eq!(c1.merged().counter_total("prop_interleave_total"), expected);
        // Invariant under interleaving order.
        prop_assert_eq!(c1.merged(), c2.merged());
        // Data frames never created rank state or seq-gap losses.
        prop_assert_eq!(c1.ranks_seen().len(), counts.len());
        prop_assert_eq!(c1.frames_lost(), 0);
    }

    /// A telemetry frame round-trips with its own tag/seq spaces intact
    /// even when a data frame uses the identical numbers — the kind byte
    /// alone keeps the planes apart.
    #[test]
    fn kind_byte_separates_planes(tag in 1u64..4, seq in 0u64..100, rank in 0usize..8) {
        let t = Frame::decode(&gmg_live::wire::telemetry_frame(rank, tag, seq, 0, "{}")).unwrap();
        let d = Frame::decode(&data_bytes(rank, tag, seq)).unwrap();
        prop_assert_eq!((t.src, t.tag, t.seq), (d.src, d.tag, d.seq));
        prop_assert!(t.kind != d.kind);
        prop_assert!(gmg_live::wire::parse_telemetry(&t).is_some());
        prop_assert!(gmg_live::wire::parse_telemetry(&d).is_none());
    }
}

/// merge normalizes row order; compare against the same normalization.
fn normalized(s: &Snapshot) -> Snapshot {
    let mut s = s.clone();
    s.entries
        .sort_by(|a, b| (&a.name, &a.key).cmp(&(&b.name, &b.key)));
    s
}
