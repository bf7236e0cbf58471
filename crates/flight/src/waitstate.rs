//! Wait-state attribution and causal message edges.
//!
//! The flight rings record three sides of every message — the send post,
//! the delivery, and the receive wait — all carrying the sender's wire
//! sequence number. Joining them across ranks turns each blocking wait
//! into a classified diagnosis:
//!
//! * **late-sender** — the matching send was posted *after* the wait
//!   began (or never: a killed / silent peer), so the receiver idled on
//!   the sender's critical path.
//! * **late-receiver** — the message had already arrived before the wait
//!   began; the "wait" is local matching overhead, the receiver was late
//!   to ask.
//! * **ARQ-stall** — the reliability layer was busy recovering this very
//!   message (retransmit, drop, reject): transport loss, not solver
//!   imbalance, paid for the wait.
//! * **progress-starvation** — the send was posted before the wait and
//!   no fault intervened, yet delivery happened mid-wait: the message
//!   was in flight or the receiver's progress engine had not drained it.
//!
//! Anything that cannot be joined (its counterpart was overwritten out
//! of a ring) stays **unattributed** — counted, never hidden, so the
//! classified fraction is an honest coverage metric.

use std::collections::{BTreeMap, HashMap, HashSet};

use gmg_trace::{Counters, OpId, Trace, TraceEvent, Track, LEVEL_NONE};

use crate::ring::{EventKind, FlightEvent, NO_LEVEL, NO_MSG_SEQ, NO_PEER, NO_TAG};

/// One rank's snapshotted ring plus its health counters.
#[derive(Clone, Debug)]
pub struct RankLog {
    pub rank: usize,
    pub capacity: u64,
    pub written: u64,
    pub lost: u64,
    pub events: Vec<FlightEvent>,
}

/// Why a receive wait took as long as it did.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum WaitClass {
    LateSender,
    LateReceiver,
    ArqStall,
    Starvation,
    Unattributed,
}

impl WaitClass {
    pub const ALL: [WaitClass; 5] = [
        WaitClass::LateSender,
        WaitClass::LateReceiver,
        WaitClass::ArqStall,
        WaitClass::Starvation,
        WaitClass::Unattributed,
    ];

    pub fn name(self) -> &'static str {
        match self {
            WaitClass::LateSender => "late-sender",
            WaitClass::LateReceiver => "late-receiver",
            WaitClass::ArqStall => "arq-stall",
            WaitClass::Starvation => "starvation",
            WaitClass::Unattributed => "unattributed",
        }
    }
}

/// Wait time accumulated per class.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct WaitStats {
    pub count: u64,
    pub late_sender_ns: u64,
    pub late_receiver_ns: u64,
    pub arq_stall_ns: u64,
    pub starvation_ns: u64,
    pub unattributed_ns: u64,
}

impl WaitStats {
    fn add(&mut self, class: WaitClass, dur_ns: u64) {
        self.count += 1;
        match class {
            WaitClass::LateSender => self.late_sender_ns += dur_ns,
            WaitClass::LateReceiver => self.late_receiver_ns += dur_ns,
            WaitClass::ArqStall => self.arq_stall_ns += dur_ns,
            WaitClass::Starvation => self.starvation_ns += dur_ns,
            WaitClass::Unattributed => self.unattributed_ns += dur_ns,
        }
    }

    pub fn class_ns(&self, class: WaitClass) -> u64 {
        match class {
            WaitClass::LateSender => self.late_sender_ns,
            WaitClass::LateReceiver => self.late_receiver_ns,
            WaitClass::ArqStall => self.arq_stall_ns,
            WaitClass::Starvation => self.starvation_ns,
            WaitClass::Unattributed => self.unattributed_ns,
        }
    }

    pub fn total_ns(&self) -> u64 {
        WaitClass::ALL.iter().map(|&c| self.class_ns(c)).sum()
    }

    /// Share of total wait time attributed to one of the four concrete
    /// classes (1.0 when there was no wait time at all).
    pub fn classified_fraction(&self) -> f64 {
        let total = self.total_ns();
        if total == 0 {
            1.0
        } else {
            (total - self.unattributed_ns) as f64 / total as f64
        }
    }
}

/// A cross-rank happens-before edge: the receive at `(dst, recv_end_ns)`
/// cannot complete before the send at `(src, send_ts_ns)`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MessageEdge {
    pub src: usize,
    pub dst: usize,
    pub msg_seq: u64,
    pub tag: u64,
    pub send_ts_ns: u64,
    pub arrive_ts_ns: Option<u64>,
    pub recv_end_ns: u64,
}

/// One classified wait, for per-rank / per-peer drill-down.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct WaitSample {
    pub rank: usize,
    pub level: Option<usize>,
    pub peer: usize,
    pub tag: u64,
    pub ts_ns: u64,
    pub dur_ns: u64,
    pub class: WaitClass,
}

/// The full analysis over a set of rank logs.
#[derive(Clone, Debug, Default)]
pub struct WaitAnalysis {
    /// Per-level wait-state rows (`None` = outside any level scope),
    /// deterministic order.
    pub per_level: BTreeMap<Option<usize>, WaitStats>,
    pub total: WaitStats,
    pub samples: Vec<WaitSample>,
    /// Exact cross-rank message edges for every joined wait.
    pub edges: Vec<MessageEdge>,
}

/// Join sends, arrivals, ARQ activity, and waits across all rank logs.
pub fn analyze(logs: &[RankLog]) -> WaitAnalysis {
    // (src, msg_seq) → send event. A message is sent once (retransmits
    // are ARQ events), so first wins.
    let mut sends: HashMap<(usize, u64), &FlightEvent> = HashMap::new();
    // (dst, src, msg_seq) → delivery ts.
    let mut arrivals: HashMap<(usize, usize, u64), u64> = HashMap::new();
    // (src, msg_seq) → ARQ recovery happened for this message.
    let mut arq: HashSet<(usize, u64)> = HashSet::new();
    // (src, msg_seq) → latest ARQ activity window end on the sender.
    let mut arq_last_ns: HashMap<(usize, u64), u64> = HashMap::new();

    for log in logs {
        for ev in &log.events {
            match ev.kind {
                EventKind::Send => {
                    sends.entry((log.rank, ev.msg_seq)).or_insert(ev);
                }
                EventKind::MsgArrive => {
                    arrivals
                        .entry((log.rank, ev.peer as usize, ev.msg_seq))
                        .or_insert(ev.ts_ns);
                }
                EventKind::Arq if ev.msg_seq != NO_MSG_SEQ => {
                    // Sender-side events (retransmit/drop) key by this
                    // rank; receiver-side (reject/dedup) by the peer.
                    let src = if ev.op == "arq:reject" || ev.op == "arq:dedup" {
                        ev.peer as usize
                    } else {
                        log.rank
                    };
                    arq.insert((src, ev.msg_seq));
                    let end = ev.end_ns();
                    arq_last_ns
                        .entry((src, ev.msg_seq))
                        .and_modify(|e| *e = (*e).max(end))
                        .or_insert(end);
                }
                _ => {}
            }
        }
    }

    let mut out = WaitAnalysis::default();
    for log in logs {
        for ev in log.events.iter().filter(|e| e.kind == EventKind::RecvWait) {
            let peer = ev.peer as usize;
            let level = (ev.level != NO_LEVEL).then_some(ev.level as usize);
            let wait_end = ev.end_ns();
            let class = if ev.msg_seq != NO_MSG_SEQ {
                match sends.get(&(peer, ev.msg_seq)) {
                    None => WaitClass::Unattributed, // send overwritten
                    Some(send) => {
                        let arrive = arrivals.get(&(log.rank, peer, ev.msg_seq)).copied();
                        out.edges.push(MessageEdge {
                            src: peer,
                            dst: log.rank,
                            msg_seq: ev.msg_seq,
                            tag: ev.tag,
                            send_ts_ns: send.ts_ns,
                            arrive_ts_ns: arrive,
                            recv_end_ns: wait_end,
                        });
                        if arrive.is_some_and(|a| a <= ev.ts_ns) {
                            // Already delivered before we started waiting.
                            WaitClass::LateReceiver
                        } else if arq.contains(&(peer, ev.msg_seq)) {
                            WaitClass::ArqStall
                        } else if send.ts_ns >= ev.ts_ns {
                            WaitClass::LateSender
                        } else {
                            WaitClass::Starvation
                        }
                    }
                }
            } else {
                // The wait failed: no message was ever matched.
                let peer_arq_active = arq_last_ns.iter().any(|(&(src, seq), &last)| {
                    src == peer
                        && last >= ev.ts_ns
                        && sends
                            .get(&(src, seq))
                            .is_some_and(|s| s.peer as usize == log.rank)
                });
                if peer_arq_active {
                    // The protocol was still fighting for a message to us.
                    WaitClass::ArqStall
                } else {
                    // Killed or silent peer: the sender never delivered.
                    // Either is the sender's fault (`killed_ranks` tells
                    // them apart).
                    WaitClass::LateSender
                }
            };
            out.total.add(class, ev.dur_ns);
            out.per_level
                .entry(level)
                .or_default()
                .add(class, ev.dur_ns);
            out.samples.push(WaitSample {
                rank: log.rank,
                level,
                peer,
                tag: ev.tag,
                ts_ns: ev.ts_ns,
                dur_ns: ev.dur_ns,
                class,
            });
        }
    }
    // Deterministic output regardless of input log order.
    out.edges.sort_by_key(|e| (e.src, e.msg_seq, e.dst));
    out.samples
        .sort_by_key(|s| (s.rank, s.ts_ns, s.peer, s.tag));
    out
}

/// The rings as one merged distributed [`Trace`], so the trace analysis
/// and the Perfetto exporter read flight data: compute ops on the compute
/// track, the three sides of a message on the comm track (each with its
/// wire `seq`, which [`Trace::messages`] joins by), ARQ and control
/// instants on the fault track.
pub fn rebuild_trace(logs: &[RankLog]) -> Trace {
    let mut events = Vec::new();
    for log in logs {
        for ev in &log.events {
            let (op, track, counters) = match ev.kind {
                EventKind::Compute => (
                    ev.op,
                    Track::Compute,
                    Counters {
                        stencil_points: ev.bytes,
                        ..Default::default()
                    },
                ),
                EventKind::Send => (
                    "send",
                    Track::Comm,
                    Counters {
                        messages: 1,
                        message_bytes: ev.bytes,
                        ..Default::default()
                    },
                ),
                EventKind::RecvWait => (ev.op, Track::Comm, Counters::default()),
                EventKind::MsgArrive => (
                    "arrive",
                    Track::Comm,
                    Counters {
                        message_bytes: ev.bytes,
                        ..Default::default()
                    },
                ),
                EventKind::Arq | EventKind::Control => (ev.op, Track::Fault, Counters::default()),
            };
            events.push(TraceEvent {
                rank: log.rank,
                level: if ev.level == NO_LEVEL {
                    LEVEL_NONE
                } else {
                    ev.level as usize
                },
                op: OpId(op),
                track,
                ts_ns: ev.ts_ns,
                dur_ns: ev.dur_ns,
                counters,
                peer: (ev.peer != NO_PEER).then_some(ev.peer as usize),
                tag: (ev.tag != NO_TAG).then_some(ev.tag),
                seq: (ev.msg_seq != NO_MSG_SEQ).then_some(ev.msg_seq),
            });
        }
    }
    events.sort_by_key(|e| (e.ts_ns, e.dur_ns));
    Trace { events }
}

impl WaitAnalysis {
    /// Ranks that recorded a `fault:kill` control event in `logs`.
    pub fn killed_ranks(logs: &[RankLog]) -> Vec<usize> {
        let mut v: Vec<usize> = logs
            .iter()
            .filter(|l| {
                l.events
                    .iter()
                    .any(|e| e.kind == EventKind::Control && e.op == "fault:kill")
            })
            .map(|l| l.rank)
            .collect();
        v.sort_unstable();
        v
    }

    /// Render the per-level wait-state table as markdown (times in ms).
    pub fn render_table(&self) -> String {
        let ms = |ns: u64| ns as f64 / 1e6;
        let mut s = String::new();
        s.push_str(
            "| level | waits | late-sender (ms) | late-receiver (ms) | arq-stall (ms) \
             | starvation (ms) | unattributed (ms) | total (ms) |\n",
        );
        s.push_str("|---|---|---|---|---|---|---|---|\n");
        let mut rows: Vec<(String, &WaitStats)> = self
            .per_level
            .iter()
            .map(|(lvl, st)| {
                let name = match lvl {
                    Some(l) => l.to_string(),
                    None => "(none)".to_string(),
                };
                (name, st)
            })
            .collect();
        rows.push(("**all**".to_string(), &self.total));
        for (name, st) in rows {
            s.push_str(&format!(
                "| {name} | {} | {:.3} | {:.3} | {:.3} | {:.3} | {:.3} | {:.3} |\n",
                st.count,
                ms(st.late_sender_ns),
                ms(st.late_receiver_ns),
                ms(st.arq_stall_ns),
                ms(st.starvation_ns),
                ms(st.unattributed_ns),
                ms(st.total_ns()),
            ));
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ring::NO_PEER;

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
        let a = analyze(&logs);
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
        // Every joined wait produced an exact message edge.
        assert_eq!(a.edges.len(), 4);
        let e0 = a.edges.iter().find(|e| e.msg_seq == 0).unwrap();
        assert_eq!((e0.src, e0.dst), (0, 1));
        assert_eq!(e0.send_ts_ns, 100);
        assert_eq!(e0.recv_end_ns, 150);
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
        let a = analyze(&logs);
        assert_eq!(a.samples[0].class, WaitClass::LateSender);
        assert_eq!(WaitAnalysis::killed_ranks(&logs), vec![0]);
    }

    #[test]
    fn missing_send_is_unattributed_not_guessed() {
        let logs = vec![log(
            1,
            vec![event(EventKind::RecvWait, "recv", 50, 30, 0, 7)],
        )];
        let a = analyze(&logs);
        assert_eq!(a.samples[0].class, WaitClass::Unattributed);
        assert!(a.total.classified_fraction() < 1.0);
        assert!(a.edges.is_empty());
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
                    event(EventKind::Send, "send", 260, 0, 1, 1),
                ],
            ),
            log(1, vec![w0, w1]),
        ];
        let a = analyze(&logs);
        assert_eq!(a.per_level.len(), 2);
        assert_eq!(a.per_level[&Some(0)].late_sender_ns, 100);
        assert_eq!(a.per_level[&Some(1)].late_sender_ns, 40);
        let t = a.render_table();
        assert!(t.contains("| 0 |"), "{t}");
        assert!(t.contains("| 1 |"), "{t}");
        assert!(t.contains("**all**"), "{t}");
    }
}
