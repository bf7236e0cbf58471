//! Chrome trace-event / Perfetto JSON export and import.
//!
//! The exported document loads directly in <https://ui.perfetto.dev> (or
//! `chrome://tracing`): each rank appears as a Perfetto *process*
//! (`pid = rank`) with two named *thread* tracks — `compute` (tid 0) and
//! `comm` (tid 1) — so solver kernels and exchange-runtime send/recv
//! intervals render as parallel lanes per rank. Every message whose send
//! and `recv` the trace holds ([`Trace::messages`]) is drawn as a flow
//! arrow from the one to the other.
//!
//! Spans are emitted as `ph:"X"` complete events with `ts`/`dur` in
//! microseconds (the format's unit), carried as f64. Nanosecond values
//! round-trip exactly through `ns / 1000.0` → `round(us * 1000.0)` for
//! any timestamp below ~2^52 ns (~52 days), which [`from_chrome_str`]'s
//! tests rely on.
//!
//! [`from_chrome_str`]: Trace::from_chrome_str

use crate::capture::{intern, Counters, Trace, TraceEvent, Track, LEVEL_NONE};
use crate::json::Json;

const COUNTER_FIELDS: [&str; 6] = [
    "bytes_read",
    "bytes_written",
    "flops",
    "stencil_points",
    "messages",
    "message_bytes",
];

fn counter_get(c: &Counters, field: &str) -> u64 {
    match field {
        "bytes_read" => c.bytes_read,
        "bytes_written" => c.bytes_written,
        "flops" => c.flops,
        "stencil_points" => c.stencil_points,
        "messages" => c.messages,
        "message_bytes" => c.message_bytes,
        _ => unreachable!(),
    }
}

fn counter_set(c: &mut Counters, field: &str, v: u64) {
    match field {
        "bytes_read" => c.bytes_read = v,
        "bytes_written" => c.bytes_written = v,
        "flops" => c.flops = v,
        "stencil_points" => c.stencil_points = v,
        "messages" => c.messages = v,
        "message_bytes" => c.message_bytes = v,
        _ => unreachable!(),
    }
}

/// One end of a message arrow: `ph:"s"` (flow start) at the start of the
/// send slice, `ph:"f"` (flow finish, binding point `bp:"e"` = the
/// enclosing slice) at the end of the `recv` slice it completed. The pair
/// shares `id`, which no other arrow in the document uses.
fn flow_event(ph: &str, e: &TraceEvent, ts_ns: u64, id: usize) -> Json {
    let mut fields = vec![
        ("name".into(), Json::Str("msg".into())),
        ("cat".into(), Json::Str("msg".into())),
        ("ph".into(), Json::Str(ph.into())),
        ("id".into(), Json::Num(id as f64)),
        ("ts".into(), Json::Num(ts_ns as f64 / 1000.0)),
        ("pid".into(), Json::Num(e.rank as f64)),
        ("tid".into(), Json::Num(e.track.tid() as f64)),
    ];
    if ph == "f" {
        // Bind to the *enclosing* slice rather than the next one.
        fields.insert(3, ("bp".into(), Json::Str("e".into())));
    }
    Json::Obj(fields)
}

fn metadata_event(pid: usize, tid: u64, name: &str, value: String) -> Json {
    Json::Obj(vec![
        ("ph".into(), Json::Str("M".into())),
        ("pid".into(), Json::Num(pid as f64)),
        ("tid".into(), Json::Num(tid as f64)),
        ("name".into(), Json::Str(name.into())),
        (
            "args".into(),
            Json::Obj(vec![("name".into(), Json::Str(value))]),
        ),
    ])
}

fn span_event(e: &TraceEvent) -> Json {
    let mut args: Vec<(String, Json)> = Vec::new();
    if e.level != LEVEL_NONE {
        args.push(("level".into(), Json::Num(e.level as f64)));
    }
    for field in COUNTER_FIELDS {
        let v = counter_get(&e.counters, field);
        if v != 0 {
            args.push((field.into(), Json::Num(v as f64)));
        }
    }
    if let Some(peer) = e.peer {
        args.push(("peer".into(), Json::Num(peer as f64)));
    }
    // Collective tags live near `u64::MAX`, beyond the 2^53 an f64
    // holds: those travel as decimal strings.
    if let Some(tag) = e.tag {
        let tag = match tag {
            t if t >= 1 << 53 => Json::Str(t.to_string()),
            t => Json::Num(t as f64),
        };
        args.push(("tag".into(), tag));
    }
    if let Some(seq) = e.seq {
        args.push(("seq".into(), Json::Num(seq as f64)));
    }
    Json::Obj(vec![
        ("name".into(), Json::Str(e.op.name().into())),
        ("ph".into(), Json::Str("X".into())),
        ("ts".into(), Json::Num(e.ts_ns as f64 / 1000.0)),
        ("dur".into(), Json::Num(e.dur_ns as f64 / 1000.0)),
        ("pid".into(), Json::Num(e.rank as f64)),
        ("tid".into(), Json::Num(e.track.tid() as f64)),
        ("args".into(), Json::Obj(args)),
    ])
}

impl Trace {
    /// Build the Chrome trace-event document as a JSON value: the spans,
    /// and one flow arrow from send to `recv` per joined message
    /// ([`Trace::messages`]).
    pub fn to_chrome_json(&self) -> Json {
        let mut events = Vec::new();
        for rank in self.ranks() {
            events.push(metadata_event(
                rank,
                0,
                "process_name",
                format!("rank {rank}"),
            ));
            for track in [Track::Compute, Track::Comm] {
                events.push(metadata_event(
                    rank,
                    track.tid(),
                    "thread_name",
                    track.name().to_string(),
                ));
            }
            // The fault track only exists for ranks that actually saw
            // injections — fault-free exports stay byte-identical.
            if self
                .events
                .iter()
                .any(|e| e.rank == rank && e.track == Track::Fault)
            {
                events.push(metadata_event(
                    rank,
                    Track::Fault.tid(),
                    "thread_name",
                    Track::Fault.name().to_string(),
                ));
            }
        }
        events.extend(self.events.iter().map(span_event));
        for (id, (send, recv)) in self.messages().into_iter().enumerate() {
            let (send, recv) = (&self.events[send], &self.events[recv]);
            events.push(flow_event("s", send, send.ts_ns, id));
            events.push(flow_event("f", recv, recv.ts_ns + recv.dur_ns, id));
        }
        Json::Obj(vec![
            ("displayTimeUnit".into(), Json::Str("ms".into())),
            ("traceEvents".into(), Json::Arr(events)),
        ])
    }

    /// Serialize to a Perfetto-loadable JSON string.
    pub fn to_chrome_string(&self) -> String {
        self.to_chrome_json().to_string()
    }

    /// Parse a document produced by [`Trace::to_chrome_string`] back into
    /// a [`Trace`]. Metadata (`ph:"M"`) and flow (`ph:"s"` / `ph:"f"`)
    /// events are skipped; unknown `tid`s are rejected. Exact inverse of
    /// the exporter (the round-trip test checks event-for-event equality).
    pub fn from_chrome_str(s: &str) -> Result<Trace, String> {
        let doc = Json::parse(s).map_err(|e| e.to_string())?;
        let raw = doc
            .get("traceEvents")
            .and_then(Json::as_arr)
            .ok_or("missing traceEvents array")?;
        let mut events = Vec::new();
        for ev in raw {
            match ev.get("ph").and_then(Json::as_str) {
                Some("X") => {}
                // Metadata and flow arrows carry no span payload.
                Some("M") | Some("s") | Some("f") => continue,
                other => return Err(format!("unsupported event phase {other:?}")),
            }
            let name = ev
                .get("name")
                .and_then(Json::as_str)
                .ok_or("span without name")?;
            let ts = ev
                .get("ts")
                .and_then(Json::as_f64)
                .ok_or("span without ts")?;
            let dur = ev
                .get("dur")
                .and_then(Json::as_f64)
                .ok_or("span without dur")?;
            let pid = ev
                .get("pid")
                .and_then(Json::as_u64)
                .ok_or("span without pid")?;
            let tid = ev
                .get("tid")
                .and_then(Json::as_u64)
                .ok_or("span without tid")?;
            let track = Track::from_tid(tid).ok_or_else(|| format!("unknown tid {tid}"))?;
            let args = ev.get("args");
            let field = |key: &str| match args.and_then(|a| a.get(key)) {
                Some(Json::Str(s)) => s.parse().ok(),
                j => j.and_then(Json::as_u64),
            };
            let mut counters = Counters::default();
            for f in COUNTER_FIELDS {
                counter_set(&mut counters, f, field(f).unwrap_or(0));
            }
            events.push(TraceEvent {
                rank: pid as usize,
                level: field("level").map(|l| l as usize).unwrap_or(LEVEL_NONE),
                op: intern(name),
                track,
                ts_ns: (ts * 1000.0).round() as u64,
                dur_ns: (dur * 1000.0).round() as u64,
                counters,
                peer: field("peer").map(|p| p as usize),
                tag: field("tag"),
                seq: field("seq"),
            });
        }
        // A trace's order: rank by rank, each in start order.
        events.sort_by_key(|e| (e.rank, e.ts_ns, e.dur_ns));
        Ok(Trace {
            events,
            lost: Vec::new(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::capture::{capture, span, OpId};

    fn sample_trace() -> Trace {
        let mut events = Vec::new();
        for rank in 0..2 {
            events.push(TraceEvent {
                rank,
                level: 0,
                op: intern("applyOp"),
                track: Track::Compute,
                ts_ns: 1_000 + rank as u64 * 10_000,
                dur_ns: 4_567,
                counters: Counters {
                    bytes_read: 8 * 4096,
                    bytes_written: 8 * 4096,
                    flops: 8 * 4096,
                    stencil_points: 4096,
                    ..Default::default()
                },
                peer: None,
                tag: None,
                seq: None,
            });
            events.push(TraceEvent {
                rank,
                level: LEVEL_NONE,
                op: intern("send"),
                track: Track::Comm,
                ts_ns: 2_000 + rank as u64 * 10_000,
                dur_ns: 333,
                counters: Counters {
                    messages: 1,
                    message_bytes: 1024,
                    ..Default::default()
                },
                peer: Some(1 - rank),
                tag: Some(77),
                seq: Some(rank as u64),
            });
        }
        Trace {
            events,
            ..Trace::default()
        }
    }

    #[test]
    fn roundtrip_preserves_all_events_exactly() {
        let trace = sample_trace();
        let text = trace.to_chrome_string();
        let back = Trace::from_chrome_str(&text).expect("parse back");
        assert_eq!(back.events, trace.events);
    }

    /// A collective's tag sits near `u64::MAX`, past what an f64 holds
    /// exactly; it is written as a string and read back bit for bit.
    #[test]
    fn roundtrip_keeps_tags_beyond_two_to_the_53() {
        let mut trace = sample_trace();
        trace.events[1].tag = Some(u64::MAX - 3);
        trace.events[3].tag = Some((1 << 53) + 1);
        let back = Trace::from_chrome_str(&trace.to_chrome_string()).expect("parse back");
        assert_eq!(back.events, trace.events);
    }

    #[test]
    fn roundtrip_is_exact_for_odd_nanosecond_values() {
        // Values that don't divide evenly by 1000 exercise the
        // ns → µs f64 → ns rounding path.
        let mut events = Vec::new();
        for (i, ts) in [1u64, 999, 123_456_789_123, 7_777_777_777_777]
            .into_iter()
            .enumerate()
        {
            events.push(TraceEvent {
                rank: 0,
                level: i,
                op: intern("odd"),
                track: Track::Compute,
                ts_ns: ts,
                dur_ns: ts / 3 + 1,
                counters: Counters::default(),
                peer: None,
                tag: None,
                seq: None,
            });
        }
        let trace = Trace {
            events,
            ..Trace::default()
        };
        let back = Trace::from_chrome_str(&trace.to_chrome_string()).unwrap();
        assert_eq!(back.events, trace.events);
    }

    #[test]
    fn schema_has_required_fields_and_metadata() {
        let trace = sample_trace();
        let doc = trace.to_chrome_json();
        assert_eq!(
            doc.get("displayTimeUnit").and_then(Json::as_str),
            Some("ms")
        );
        let events = doc.get("traceEvents").and_then(Json::as_arr).unwrap();
        let mut saw_process_name = 0;
        let mut saw_thread_name = 0;
        let mut saw_span = 0;
        for ev in events {
            let ph = ev.get("ph").and_then(Json::as_str).unwrap();
            // Every event carries the full required field set.
            assert!(ev.get("pid").and_then(Json::as_u64).is_some());
            assert!(ev.get("tid").and_then(Json::as_u64).is_some());
            match ph {
                "M" => match ev.get("name").and_then(Json::as_str).unwrap() {
                    "process_name" => saw_process_name += 1,
                    "thread_name" => saw_thread_name += 1,
                    other => panic!("unexpected metadata {other}"),
                },
                "X" => {
                    assert!(ev.get("ts").and_then(Json::as_f64).is_some());
                    assert!(ev.get("dur").and_then(Json::as_f64).is_some());
                    assert!(ev.get("name").and_then(Json::as_str).is_some());
                    saw_span += 1;
                }
                other => panic!("unexpected phase {other}"),
            }
        }
        // One process_name per rank, one thread_name per (rank, track).
        assert_eq!(saw_process_name, 2);
        assert_eq!(saw_thread_name, 4);
        assert_eq!(saw_span, 4);
    }

    #[test]
    fn comm_track_and_level_encoding() {
        let trace = sample_trace();
        let doc = trace.to_chrome_json();
        let events = doc.get("traceEvents").and_then(Json::as_arr).unwrap();
        let sends: Vec<_> = events
            .iter()
            .filter(|e| e.get("name").and_then(Json::as_str) == Some("send"))
            .collect();
        assert_eq!(sends.len(), 2);
        for s in &sends {
            assert_eq!(s.get("tid").and_then(Json::as_u64), Some(1));
            let args = s.get("args").unwrap();
            // LEVEL_NONE is encoded by omission, not as a huge number.
            assert!(args.get("level").is_none());
            assert!(args.get("peer").and_then(Json::as_u64).is_some());
            assert_eq!(args.get("tag").and_then(Json::as_u64), Some(77));
            assert_eq!(args.get("message_bytes").and_then(Json::as_u64), Some(1024));
            // Zero counters are omitted to keep files small.
            assert!(args.get("flops").is_none());
        }
    }

    #[test]
    fn fault_track_exports_and_roundtrips() {
        let trace = Trace {
            events: vec![TraceEvent {
                rank: 1,
                level: LEVEL_NONE,
                op: intern("fault:drop"),
                track: Track::Fault,
                ts_ns: 5_000,
                dur_ns: 0,
                counters: Counters::default(),
                peer: Some(0),
                tag: Some(33),
                seq: None,
            }],
            ..Trace::default()
        };
        let text = trace.to_chrome_string();
        let back = Trace::from_chrome_str(&text).expect("parse back");
        assert_eq!(back.events, trace.events);
        // The fault thread metadata appears only for the rank with fault
        // events, and a fault-free trace never emits it.
        let doc = trace.to_chrome_json();
        let events = doc.get("traceEvents").and_then(Json::as_arr).unwrap();
        let fault_threads: Vec<_> = events
            .iter()
            .filter(|e| {
                e.get("ph").and_then(Json::as_str) == Some("M")
                    && e.get("tid").and_then(Json::as_u64) == Some(2)
            })
            .collect();
        assert_eq!(fault_threads.len(), 1);
        assert_eq!(fault_threads[0].get("pid").and_then(Json::as_u64), Some(1));
        assert!(!sample_trace().to_chrome_string().contains("\"fault\""));
    }

    /// Two ranks trade two messages each under one tag; both number
    /// their sends from 0. Each receive must get its own arrow, from the
    /// send slice of the same `(src, seq)` to its own slice.
    #[test]
    fn arrows_have_unique_ids_and_join_send_and_recv_of_one_message() {
        let comm = |rank, op: &str, ts_ns, peer, seq| TraceEvent {
            rank,
            level: LEVEL_NONE,
            op: intern(op),
            track: Track::Comm,
            ts_ns,
            dur_ns: 100,
            counters: Counters::default(),
            peer: Some(peer),
            tag: Some(5),
            seq: Some(seq),
        };
        let mut events = Vec::new();
        for rank in 0..2 {
            for seq in 0..2 {
                let t = 1_000 * (1 + seq) + 10 * rank as u64;
                events.push(comm(rank, "send", t, 1 - rank, seq));
                events.push(comm(1 - rank, "recv", t + 400, rank, seq));
            }
        }
        events.sort_by_key(|e| (e.rank, e.ts_ns, e.dur_ns));
        let trace = Trace {
            events,
            ..Trace::default()
        };
        assert_eq!(trace.messages().len(), 4);
        let text = trace.to_chrome_string();
        let doc = Json::parse(&text).unwrap();
        let all = doc.get("traceEvents").and_then(Json::as_arr).unwrap();
        let num = |e: &Json, k: &str| e.get(k).and_then(Json::as_f64).unwrap();
        let arg = |e: &Json, k: &str| e.get("args").and_then(|a| a.get(k)).and_then(Json::as_u64);
        // The span of `name` on `pid` whose interval holds `ts`.
        let slice = |name: &str, pid: f64, ts: f64| -> Vec<&Json> {
            all.iter()
                .filter(|e| e.get("name").and_then(Json::as_str) == Some(name))
                .filter(|e| num(e, "pid") == pid)
                .filter(|e| num(e, "ts") <= ts && ts <= num(e, "ts") + num(e, "dur"))
                .collect()
        };
        let phase = |ph: &str| -> Vec<&Json> {
            all.iter()
                .filter(|e| e.get("ph").and_then(Json::as_str) == Some(ph))
                .collect()
        };
        let (starts, finishes) = (phase("s"), phase("f"));
        assert_eq!((starts.len(), finishes.len()), (4, 4));
        let mut ids: Vec<u64> = starts.iter().map(|e| num(e, "id") as u64).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), 4, "arrow ids repeat: {text}");
        for s in &starts {
            let f = finishes
                .iter()
                .find(|f| num(f, "id") == num(s, "id"))
                .unwrap();
            assert_eq!(f.get("bp").and_then(Json::as_str), Some("e"));
            let [send] = slice("send", num(s, "pid"), num(s, "ts"))[..] else {
                panic!("arrow start in no single send slice: {text}")
            };
            let [recv] = slice("recv", num(f, "pid"), num(f, "ts"))[..] else {
                panic!("arrow finish in no single recv slice: {text}")
            };
            assert_eq!(arg(recv, "peer"), Some(num(s, "pid") as u64));
            assert_eq!(arg(send, "peer"), Some(num(f, "pid") as u64));
            assert_eq!(arg(recv, "seq"), arg(send, "seq"));
        }
        // The parser skips the arrows: the same spans, `seq` included.
        assert_eq!(Trace::from_chrome_str(&text).unwrap(), trace);
    }

    #[test]
    fn parser_rejects_malformed_documents() {
        assert!(Trace::from_chrome_str("{}").is_err());
        assert!(Trace::from_chrome_str("not json").is_err());
        let no_ts = r#"{"traceEvents":[{"ph":"X","name":"a","pid":0,"tid":0,"dur":1}]}"#;
        assert!(Trace::from_chrome_str(no_ts).is_err());
        let bad_tid = r#"{"traceEvents":[{"ph":"X","name":"a","pid":0,"tid":9,"ts":0,"dur":1}]}"#;
        assert!(Trace::from_chrome_str(bad_tid).is_err());
    }

    #[test]
    fn live_span_roundtrips_through_chrome_format() {
        let (_, trace) = capture(|| {
            let mut s = span(1, 3, "smooth+residual", Track::Compute);
            s.counters(Counters {
                flops: 10 * 512,
                stencil_points: 512,
                ..Default::default()
            });
            drop(s);
        });
        let back = Trace::from_chrome_str(&trace.to_chrome_string()).unwrap();
        assert_eq!(back.events.len(), 1);
        let (a, b) = (&trace.events[0], &back.events[0]);
        assert_eq!(a, b);
        assert_eq!(b.op.name(), "smooth+residual");
        assert_eq!(b.level, 3);
        // OpId interning is global, so ids survive the round trip too.
        assert_eq!(a.op, OpId(b.op.0));
    }
}
