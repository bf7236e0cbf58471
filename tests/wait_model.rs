//! The wait model end to end: flight-ring events → [`rebuild_trace`] →
//! [`classify_waits`], the classifier over the same `Trace` (and the same
//! `Trace::messages` join) the critical path walks.

use gmg_flight::{
    into_logs, rebuild_trace, EventKind, FlightEvent, RankLog, SynthLog, NO_MSG_SEQ, NO_PEER,
    NO_TAG,
};
use gmg_metrics::analysis::{classify_waits, killed_ranks, WaitClass};
use gmg_proptest::prelude::*;

fn event(
    kind: EventKind,
    op: &'static str,
    ts: u64,
    dur: u64,
    peer: usize,
    msg: u64,
) -> FlightEvent {
    FlightEvent {
        ts_ns: ts,
        dur_ns: dur,
        kind,
        op,
        peer: if peer == usize::MAX {
            NO_PEER
        } else {
            peer as u32
        },
        tag: 1,
        msg_seq: msg,
        ..FlightEvent::empty()
    }
}

fn log(rank: usize, events: Vec<FlightEvent>) -> RankLog {
    RankLog {
        rank,
        capacity: 1024,
        written: events.len() as u64,
        lost: 0,
        events,
    }
}

/// `(src, dst, send ts, recv end)` of every message the trace joins.
fn joins(logs: &[RankLog]) -> Vec<(usize, usize, u64, u64)> {
    let trace = rebuild_trace(logs);
    let mut v: Vec<_> = trace
        .messages()
        .into_iter()
        .map(|(s, r)| {
            let (s, r) = (&trace.events[s], &trace.events[r]);
            (s.rank, r.rank, s.ts_ns, r.ts_ns + r.dur_ns)
        })
        .collect();
    v.sort_unstable();
    v
}

#[test]
fn classifies_the_four_canonical_scenarios() {
    // Rank 0 sends; rank 1 waits, under four different timings.
    let logs = vec![
        log(
            0,
            vec![
                event(EventKind::Send, "send", 100, 0, 1, 0), // late-sender: send@100
                event(EventKind::Send, "send", 10, 0, 1, 1),  // late-receiver: send@10
                event(EventKind::Send, "send", 10, 0, 1, 2),  // arq-stall
                event(EventKind::Arq, "arq:retransmit", 60, 5, 1, 2),
                event(EventKind::Send, "send", 10, 0, 1, 3), // starvation
            ],
        ),
        log(
            1,
            vec![
                event(EventKind::RecvWait, "recv", 50, 100, 0, 0),
                event(EventKind::MsgArrive, "arrive", 20, 0, 0, 1),
                event(EventKind::RecvWait, "recv", 40, 10, 0, 1),
                event(EventKind::MsgArrive, "arrive", 70, 0, 0, 2),
                event(EventKind::RecvWait, "recv", 55, 25, 0, 2),
                event(EventKind::MsgArrive, "arrive", 30, 0, 0, 3),
                event(EventKind::RecvWait, "recv", 20, 15, 0, 3),
            ],
        ),
    ];
    let a = classify_waits(&rebuild_trace(&logs));
    let classes: Vec<WaitClass> = a.samples.iter().map(|s| s.class).collect();
    assert_eq!(
        classes,
        vec![
            WaitClass::Starvation,   // wait@20: send@10, arrive@30 mid-wait
            WaitClass::LateReceiver, // wait@40: arrived@20 already
            WaitClass::LateSender,   // wait@50: send@100
            WaitClass::ArqStall,     // wait@55 on msg 2: retransmitted
        ]
    );
    assert_eq!(a.total.count, 4);
    assert_eq!(a.total.late_sender_ns, 100);
    assert_eq!(a.total.late_receiver_ns, 10);
    assert_eq!(a.total.arq_stall_ns, 25);
    assert_eq!(a.total.starvation_ns, 15);
    assert_eq!(a.total.unattributed_ns, 0);
    assert!((a.total.classified_fraction() - 1.0).abs() < 1e-12);
    // Every wait was joined to its send, message 0 with its exact times.
    assert_eq!(a.joined, 4);
    assert!(joins(&logs).contains(&(0, 1, 100, 150)));
}

#[test]
fn timeout_on_killed_peer_is_late_sender() {
    let logs = vec![
        log(
            0,
            vec![event(
                EventKind::Control,
                "fault:kill",
                40,
                0,
                usize::MAX,
                NO_MSG_SEQ,
            )],
        ),
        log(
            1,
            vec![event(
                EventKind::RecvWait,
                "recv:timeout",
                50,
                500,
                0,
                NO_MSG_SEQ,
            )],
        ),
    ];
    let trace = rebuild_trace(&logs);
    let a = classify_waits(&trace);
    assert_eq!(a.samples[0].class, WaitClass::LateSender);
    assert_eq!(killed_ranks(&trace), vec![0]);
}

#[test]
fn missing_send_is_unattributed_not_guessed() {
    let logs = vec![log(
        1,
        vec![event(EventKind::RecvWait, "recv", 50, 30, 0, 7)],
    )];
    let a = classify_waits(&rebuild_trace(&logs));
    assert_eq!(a.samples[0].class, WaitClass::Unattributed);
    assert!(a.total.classified_fraction() < 1.0);
    assert_eq!(a.joined, 0);
}

#[test]
fn per_level_rows_and_table_render() {
    let mut w0 = event(EventKind::RecvWait, "recv", 50, 100, 0, 0);
    w0.level = 0;
    let mut w1 = event(EventKind::RecvWait, "recv", 200, 40, 0, 1);
    w1.level = 1;
    let logs = vec![
        log(
            0,
            vec![
                event(EventKind::Send, "send", 100, 0, 1, 0),
                event(EventKind::Send, "send", 230, 0, 1, 1),
            ],
        ),
        log(1, vec![w0, w1]),
    ];
    let a = classify_waits(&rebuild_trace(&logs));
    assert_eq!(a.per_level.len(), 2);
    assert_eq!(a.per_level[&Some(0)].late_sender_ns, 100);
    assert_eq!(a.per_level[&Some(1)].late_sender_ns, 40);
    let t = a.render_table();
    assert!(t.contains("| 0 |"), "{t}");
    assert!(t.contains("| 1 |"), "{t}");
    assert!(t.contains("**all**"), "{t}");
}

/// Two synthetic ranks, one late-sender wait: the classifier must see
/// the simulator's logs exactly as real ring snapshots.
#[test]
fn synth_logs_feed_the_classifier() {
    let mut r0 = SynthLog::new(0);
    let mut r1 = SynthLog::new(1);
    // Rank 1 starts waiting at t=100 for (rank0, seq 7); rank 0 only
    // posts the send at t=500; delivery at 900; wait ends 1000.
    r1.recv_wait(2, 100, 900, 0, 42, 7);
    r0.send(2, 500, 1, 42, 7, 4096);
    r1.arrive(2, 900, 0, 42, 7, 4096);
    let logs = into_logs(vec![r1, r0]);
    assert_eq!(logs[0].rank, 0);
    let wa = classify_waits(&rebuild_trace(&logs));
    assert_eq!(wa.total.count, 1);
    assert_eq!(wa.total.class_ns(WaitClass::LateSender), 900);
    assert_eq!(wa.total.classified_fraction(), 1.0);
    assert_eq!(wa.joined, 1);
    assert_eq!(joins(&logs), vec![(0, 1, 500, 1000)]);
}

// ---------------------------------------------------------------------
// Adversarial synthetic worlds: the simulator feeds the classifier
// through the same seam, so it must hold its invariants for *any* event
// ordering the builder emits — not just the tidy timelines real solves
// produce.

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
        let wa = classify_waits(&rebuild_trace(&logs));

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
        let wb = classify_waits(&rebuild_trace(&rev));
        prop_assert_eq!(wa.total, wb.total);
        prop_assert_eq!(wa.samples, wb.samples);
        prop_assert_eq!(wa.joined, wb.joined);
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
        let full = classify_waits(&rebuild_trace(&build_world(ranks, &msgs, |_| false)));
        let cut = classify_waits(&rebuild_trace(&build_world(ranks, &msgs, |i| mask[i])));
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
        // And the surviving joins can only shrink.
        prop_assert!(cut.joined <= full.joined);
    }
}
