//! Property tests for the flight ring: wrap-around retention, claim
//! order, capacity bounds, and torn-write freedom under concurrent
//! writers.
//!
//! Every recorded event carries a derived invariant
//! `bytes == tag * 1_000_003 + msg_seq`; any torn read (fields from two
//! different writes) breaks it, so checking the invariant over every
//! snapshot is a whole-event oracle that needs no locks of its own.

use gmg_flight::{FlightEvent, FlightRing, Kind};
use gmg_proptest::prelude::*;

const MIX: u64 = 1_000_003;

fn stamped(tag: u64, msg_seq: u64) -> FlightEvent {
    FlightEvent {
        ts_ns: tag.wrapping_mul(31).wrapping_add(msg_seq),
        dur_ns: 1,
        kind: Kind::Send,
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

/// Whether each writer's events (writer `tag`, its `msg_seq`-th record)
/// appear in the order it recorded them, none twice: one thread's claims
/// are ordered, so a snapshot in claim order keeps them so.
fn in_claim_order(snap: &[FlightEvent]) -> bool {
    let mut last = std::collections::HashMap::new();
    snap.iter()
        .all(|ev| last.insert(ev.tag, ev.msg_seq) < Some(ev.msg_seq))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// A snapshot after n single-threaded records holds exactly the
    /// newest min(n, capacity) events, in claim order.
    #[test]
    fn wrap_around_keeps_newest_in_claim_order(n in 1u64..400, cap in 8u64..64) {
        let ring = FlightRing::new(0, cap as usize);
        let cap = ring.capacity() as u64; // rounded to a power of two
        for i in 0..n {
            ring.record(stamped(i % 13, i));
        }
        let snap = ring.snapshot();
        prop_assert_eq!(snap.len() as u64, n.min(cap));
        prop_assert_eq!(ring.written(), n);
        // Exactly the newest window, oldest first.
        let first = n - n.min(cap);
        for (k, ev) in snap.iter().enumerate() {
            prop_assert_eq!(ev.msg_seq, first + k as u64);
            prop_assert!(whole(ev));
        }
    }

    /// Concurrent writers plus a racing reader: snapshots never exceed
    /// capacity, never contain a torn event, and never repeat or reorder
    /// a writer's events.
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
                    assert!(in_claim_order(&snap));
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
            prop_assert!(ev.msg_seq < per_thread as u64);
        }
        prop_assert!(in_claim_order(&snap));
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
