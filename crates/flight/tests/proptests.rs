//! Property tests for the flight ring: wrap-around retention, per-rank
//! seq monotonicity, capacity bounds, and torn-write freedom under
//! concurrent writers.
//!
//! Every recorded event carries a derived invariant
//! `bytes == tag * 1_000_003 + msg_seq`; any torn read (fields from two
//! different writes) breaks it, so checking the invariant over every
//! snapshot is a whole-event oracle that needs no locks of its own.

use gmg_flight::{EventKind, FlightEvent, FlightRing};
use gmg_proptest::prelude::*;

const MIX: u64 = 1_000_003;

fn stamped(tag: u64, msg_seq: u64) -> FlightEvent {
    FlightEvent {
        ts_ns: tag.wrapping_mul(31).wrapping_add(msg_seq),
        dur_ns: 1,
        kind: EventKind::Send,
        op: "prop",
        peer: (tag % 97) as u32,
        tag,
        msg_seq,
        bytes: tag * MIX + msg_seq,
        ..FlightEvent::empty()
    }
}

fn whole(ev: &FlightEvent) -> bool {
    ev.bytes == ev.tag * MIX + ev.msg_seq
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// A snapshot after n single-threaded records holds exactly the
    /// newest min(n, capacity) events, in strictly increasing seq order.
    #[test]
    fn wrap_around_keeps_newest_in_seq_order(n in 1u64..400, cap in 8u64..64) {
        let ring = FlightRing::new(0, cap as usize);
        let cap = ring.capacity() as u64; // rounded to a power of two
        for i in 0..n {
            ring.record(stamped(i % 13, i));
        }
        let snap = ring.snapshot();
        prop_assert_eq!(snap.len() as u64, n.min(cap));
        prop_assert_eq!(ring.written(), n);
        prop_assert_eq!(ring.overwritten(), n.saturating_sub(cap));
        // Strictly monotonic seqs covering exactly the newest window.
        let first = n - n.min(cap);
        for (k, ev) in snap.iter().enumerate() {
            prop_assert_eq!(ev.seq, first + k as u64);
            prop_assert_eq!(ev.msg_seq, first + k as u64);
            prop_assert!(whole(ev));
        }
    }

    /// Concurrent writers plus a racing reader: snapshots never exceed
    /// capacity, never contain a torn event, and never repeat a seq.
    #[test]
    fn concurrent_writers_never_tear(threads in 2usize..5, per_thread in 40usize..160) {
        let ring = FlightRing::new(0, 64);
        let cap = ring.capacity() as u64;
        std::thread::scope(|s| {
            for t in 0..threads {
                let ring = &ring;
                s.spawn(move || {
                    for j in 0..per_thread {
                        ring.record(stamped(t as u64 + 1, j as u64));
                    }
                });
            }
            // Racing reader: every mid-flight snapshot must already hold
            // the invariants.
            let ring = &ring;
            s.spawn(move || {
                for _ in 0..20 {
                    let snap = ring.snapshot();
                    assert!(snap.len() as u64 <= cap);
                    assert!(snap.iter().all(whole), "torn event in racing snapshot");
                    assert!(snap.windows(2).all(|w| w[0].seq < w[1].seq));
                    std::thread::yield_now();
                }
            });
        });
        let total = (threads * per_thread) as u64;
        prop_assert_eq!(ring.written(), total);
        let snap = ring.snapshot();
        prop_assert!(snap.len() as u64 <= cap);
        // Quiescent ring: the only events unavailable are those
        // overwritten by wrap or abandoned to a slot collision.
        prop_assert!(snap.len() as u64 + ring.lost() >= total.min(cap));
        for ev in &snap {
            prop_assert!(whole(ev));
            prop_assert!(ev.seq < total);
        }
        prop_assert!(snap.windows(2).all(|w| w[0].seq < w[1].seq));
    }
}

// ---------------------------------------------------------------------
// Wait-state classifier on adversarial synthetic worlds: this is the
// seam the `gmg-scale` schedule simulator feeds, so the classifier must
// hold its invariants for *any* event ordering the builder emits — not
// just the tidy timelines real solves produce.

use gmg_flight::{analyze, into_logs, RankLog, SynthLog, WaitClass, NO_MSG_SEQ, NO_TAG};

/// One synthetic message exchange, fields deliberately unconstrained so
/// proptest explores pathological interleavings (waits starting before
/// sends, arrivals without waits, ARQ on unrelated messages, …).
#[derive(Clone, Debug)]
struct MsgSpec {
    src: usize,
    dst: usize,
    send_ts: u64,
    /// Delivery offset from the send; `None` = the message never landed.
    arrive_dt: Option<u64>,
    wait_ts: u64,
    wait_dur: u64,
    arq: bool,
    /// Record the wait as a failed match (`NO_MSG_SEQ`) instead.
    failed: bool,
}

/// Decode one spec from 61 random bits (a plain `u64` strategy keeps
/// the generator portable across proptest implementations).
fn spec_from_bits(x: u64, ranks: usize) -> MsgSpec {
    MsgSpec {
        src: (x & 0x7) as usize % ranks,
        dst: ((x >> 3) & 0x7) as usize % ranks,
        send_ts: (x >> 6) & 0x3FFF,
        arrive_dt: ((x >> 20) & 1 == 1).then_some((x >> 21) & 0xFFF),
        wait_ts: (x >> 33) & 0x3FFF,
        wait_dur: (x >> 47) & 0xFFF,
        arq: (x >> 59) & 1 == 1,
        failed: (x >> 60) & 1 == 1,
    }
}

/// Build per-rank logs from specs; events land in spec order, which is
/// *not* time order — the classifier may not rely on intra-log ordering.
/// `drop_send(i)` elides message i's send event (the edge-removal knob).
fn build_world(ranks: usize, msgs: &[MsgSpec], drop_send: impl Fn(usize) -> bool) -> Vec<RankLog> {
    let mut builders: Vec<SynthLog> = (0..ranks).map(SynthLog::new).collect();
    for (i, m) in msgs.iter().enumerate() {
        if m.src == m.dst {
            continue; // self-sends don't occur in real worlds
        }
        let seq = i as u64; // globally unique ⇒ unique per (src, seq)
        let level = (i % 4) as u32;
        if !drop_send(i) {
            builders[m.src].send(level, m.send_ts, m.dst as u32, i as u64, seq, 4096);
        }
        if let Some(dt) = m.arrive_dt {
            builders[m.dst].arrive(level, m.send_ts + dt, m.src as u32, i as u64, seq, 4096);
        }
        if m.failed {
            builders[m.dst].recv_wait(
                level,
                m.wait_ts,
                m.wait_dur,
                m.src as u32,
                NO_TAG,
                NO_MSG_SEQ,
            );
        } else {
            builders[m.dst].recv_wait(level, m.wait_ts, m.wait_dur, m.src as u32, i as u64, seq);
        }
        if m.arq {
            builders[m.src].arq("arq:retransmit", m.send_ts + 1, m.dst as u32, seq);
        }
    }
    into_logs(builders)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Every recorded wait lands in exactly one class: counts and
    /// nanoseconds are conserved between the sample list, the per-class
    /// totals, and the per-level breakdown — and the analysis is
    /// invariant under log reordering.
    #[test]
    fn every_wait_classified_into_exactly_one_class(
        ranks in 3usize..6,
        bits in prop::collection::vec(any::<u64>(), 1..40),
    ) {
        let msgs: Vec<MsgSpec> = bits.iter().map(|&x| spec_from_bits(x, ranks)).collect();
        let logs = build_world(ranks, &msgs, |_| false);
        let wa = analyze(&logs);

        // Count conservation: one sample per wait, totalled once.
        prop_assert_eq!(wa.total.count as usize, wa.samples.len());
        // ns conservation per class: samples ↔ totals.
        for &class in WaitClass::ALL.iter() {
            let sampled: u64 = wa.samples.iter()
                .filter(|s| s.class == class)
                .map(|s| s.dur_ns)
                .sum();
            prop_assert_eq!(sampled, wa.total.class_ns(class));
        }
        // The five classes partition the total exactly.
        let class_sum: u64 = WaitClass::ALL.iter().map(|&c| wa.total.class_ns(c)).sum();
        prop_assert_eq!(class_sum, wa.total.total_ns());
        // Per-level stats are a partition of the same totals.
        let level_count: u64 = wa.per_level.values().map(|s| s.count).sum();
        prop_assert_eq!(level_count, wa.total.count);
        for &class in WaitClass::ALL.iter() {
            let level_ns: u64 = wa.per_level.values().map(|s| s.class_ns(class)).sum();
            prop_assert_eq!(level_ns, wa.total.class_ns(class));
        }
        // Log order must not matter (the simulator emits rank-major,
        // real dumps arrive in discovery order).
        let mut rev = logs.clone();
        rev.reverse();
        let wb = analyze(&rev);
        prop_assert_eq!(wa.total, wb.total);
        prop_assert_eq!(wa.samples, wb.samples);
        prop_assert_eq!(wa.edges, wb.edges);
    }

    /// Removing send events can only lose attribution, never gain it:
    /// `classified_fraction` is monotone non-increasing under edge
    /// removal, while the wait population itself is unchanged.
    #[test]
    fn classified_fraction_monotone_under_edge_removal(
        ranks in 3usize..6,
        bits in prop::collection::vec(any::<u64>(), 1..40),
        mask in prop::collection::vec(any::<bool>(), 40),
    ) {
        let msgs: Vec<MsgSpec> = bits.iter().map(|&x| spec_from_bits(x, ranks)).collect();
        let full = analyze(&build_world(ranks, &msgs, |_| false));
        let cut = analyze(&build_world(ranks, &msgs, |i| mask[i]));
        // Same waits observed either way.
        prop_assert_eq!(full.total.count, cut.total.count);
        prop_assert_eq!(full.total.total_ns(), cut.total.total_ns());
        // Attribution can only degrade without send context.
        prop_assert!(
            cut.total.classified_fraction() <= full.total.classified_fraction() + 1e-12,
            "classified fraction rose from {} to {} after dropping sends",
            full.total.classified_fraction(),
            cut.total.classified_fraction()
        );
        // And the surviving edge set can only shrink.
        prop_assert!(cut.edges.len() <= full.edges.len());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The trace the rings rebuild into joins exactly the messages the
    /// classifier joins: `Trace::messages` (what the critical path and the
    /// Perfetto arrows read) names one `(src, seq) → dst` pair per
    /// `WaitAnalysis::edges` entry, with the same send and receive times.
    /// Worlds are causal (no receive ends before its send), with sends
    /// dropped and waits failed at random.
    #[test]
    fn the_rebuilt_trace_joins_exactly_the_classifier_edges(
        ranks in 3usize..6,
        bits in prop::collection::vec(any::<u64>(), 1..40),
        mask in prop::collection::vec(any::<bool>(), 40),
    ) {
        let msgs: Vec<MsgSpec> = bits
            .iter()
            .map(|&x| {
                let m = spec_from_bits(x, ranks);
                MsgSpec { send_ts: m.send_ts.min(m.wait_ts + m.wait_dur), ..m }
            })
            .collect();
        let logs = build_world(ranks, &msgs, |i| mask[i]);
        let trace = gmg_flight::rebuild_trace(&logs);
        let mut joins: Vec<_> = trace
            .messages()
            .into_iter()
            .map(|(s, r)| {
                let (s, r) = (&trace.events[s], &trace.events[r]);
                (s.rank, s.seq.unwrap(), r.rank, s.ts_ns, r.ts_ns + r.dur_ns)
            })
            .collect();
        joins.sort_unstable();
        let mut edges: Vec<_> = analyze(&logs)
            .edges
            .iter()
            .map(|e| (e.src, e.msg_seq, e.dst, e.send_ts_ns, e.recv_end_ns))
            .collect();
        edges.sort_unstable();
        prop_assert_eq!(joins, edges);
    }
}

// ---------------------------------------------------------------------
// Hostile dump directories: a dump is outside input to the postmortem
// tools, so whatever is on disk — truncated, bit-flipped, oversized —
// `load_dump` answers with a typed error or a bundle no larger than the
// files warrant. It never panics and never trusts a manifest number.

use gmg_flight::{dump_world_to, load_dump, FlightWorld, MAX_DUMP_RANKS};
use std::path::PathBuf;

/// A fresh directory holding a valid two-rank dump.
fn valid_dump(tag: &str, case: u64) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "gmg_flight_hostile_{tag}_{}_{case}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    let world = FlightWorld::with_capacity(2, 64);
    for rank in 0..2 {
        for i in 0..20 {
            world.ring(rank).record(stamped(i % 5, i));
        }
    }
    dump_world_to(&dir, &world, "test", "hostile-input fixture").unwrap();
    dir
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Bit flips and truncation anywhere in any file of a valid dump.
    #[test]
    fn damaged_dumps_load_or_fail_typed(
        case in any::<u64>(),
        damage in prop::collection::vec(any::<u64>(), 1..6),
    ) {
        let dir = valid_dump("damage", case);
        let files = ["manifest.json", "rank0.json", "rank1.json"];
        let mut total_len = 0;
        for d in &damage {
            let path = dir.join(files[(*d % 3) as usize]);
            let mut bytes = std::fs::read(&path).unwrap();
            let at = (*d >> 8) as usize % bytes.len();
            if d & 4 == 0 {
                bytes[at] ^= 1 << ((d >> 3) & 7);
            } else {
                bytes.truncate(at);
            }
            std::fs::write(&path, &bytes).unwrap();
        }
        for f in files {
            total_len += std::fs::read(dir.join(f)).unwrap().len();
        }
        match load_dump(&dir) {
            Ok(bundle) => {
                prop_assert!(bundle.nranks <= 2);
                prop_assert!(bundle.logs.len() <= 2);
                let events: usize = bundle.logs.iter().map(|l| l.events.len()).sum();
                // An encoded event is far longer than 16 bytes.
                prop_assert!(events * 16 <= total_len);
            }
            Err(e) => prop_assert!(matches!(
                e.kind(),
                std::io::ErrorKind::InvalidData | std::io::ErrorKind::NotFound
            ), "untyped failure: {e}"),
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A manifest may claim any rank count and any rank ids; only what
    /// the directory's rank files back is believed.
    #[test]
    fn manifest_numbers_are_not_trusted(case in any::<u64>(), claimed in any::<u64>(), listed in any::<bool>()) {
        let dir = valid_dump("manifest", case);
        let claimed = 3 + claimed % (1 << 52);
        let ranks = if listed { format!(",\"ranks\":[0,1,{}]", claimed - 1) } else { String::new() };
        std::fs::write(
            dir.join("manifest.json"),
            format!("{{\"reason\":\"r\",\"detail\":\"d\",\"nranks\":{claimed}{ranks}}}"),
        ).unwrap();
        let err = load_dump(&dir).expect_err("more ranks claimed than rank files present");
        prop_assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        prop_assert!(claimed as usize > 2 && MAX_DUMP_RANKS >= 2);
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// A dump naming more distinct ops than any vocabulary holds leaks a
/// bounded number of them: past the interner's cap every new name loads
/// as `"?"`.
#[test]
fn endless_op_names_are_capped() {
    let dir = valid_dump("names", 0);
    let events: Vec<String> = (0..6000)
        .map(|i| {
            format!("{{\"seq\":{i},\"ts_ns\":{i},\"kind\":\"compute\",\"op\":\"hostile-op-{i}\"}}")
        })
        .collect();
    std::fs::write(
        dir.join("rank0.json"),
        format!(
            "{{\"rank\":0,\"capacity\":64,\"events\":[{}]}}",
            events.join(",")
        ),
    )
    .unwrap();
    let bundle = load_dump(&dir).unwrap();
    let ops: std::collections::BTreeSet<&str> =
        bundle.logs[0].events.iter().map(|e| e.op).collect();
    assert_eq!(bundle.logs[0].events.len(), 6000);
    assert!(ops.contains("?"), "the cap never engaged");
    assert!(ops.len() <= 4097, "{} names interned", ops.len());
    let _ = std::fs::remove_dir_all(&dir);
}
