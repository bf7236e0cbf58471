//! Black-box dumps: persist every rank's ring to disk on failure.
//!
//! A dump is a directory — `flightdump_<unix-ns>/` for a failure, the
//! `GMG_TRACE` directory for a capture ([`dump_logs`]) — containing a
//! `manifest.json` (reason, detail, world size, rank list, and where the
//! events' time base sits on the wall clock) and one `rank<k>.json` per
//! rank the dumping process records — every rank of a thread world, its
//! own of a process world — with its counters and the validated events
//! in claim order. It is the one file format a run's events persist in.
//! Encoding rides on [`gmg_trace::json`] — no new dependencies, and the
//! files load back losslessly for offline analysis (`analyze --dump`).
//!
//! Dumping is crash-path code: it must never panic and never wedge a
//! dying process, so every IO error degrades to "no dump" and a
//! per-process cap ([`MAX_DUMPS`]) stops a flaky loop from filling the
//! disk. Loading is the mirror image: a dump directory is outside input,
//! so [`load_dump`] answers truncated, corrupted or oversized files with
//! a typed error and never allocates more than the files' own length
//! warrants.

use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{SystemTime, UNIX_EPOCH};

use gmg_trace::json::Json;
use gmg_trace::ObsConfig;

use gmg_trace::{FlightEvent, Kind, RankLog, NO_LEVEL, NO_MSG_SEQ, NO_PEER, NO_TAG};

use crate::recorder::FlightWorld;

/// Dumps one process may attempt.
pub const MAX_DUMPS: u64 = 32;

/// Dumps this process has attempted so far (the cap counts attempts).
static DUMPS: AtomicU64 = AtomicU64::new(0);

/// Most ranks a dump may claim, whatever its manifest says.
pub const MAX_DUMP_RANKS: usize = 1 << 20;

/// Latest time base a dump may claim: nanoseconds since the Unix epoch
/// that fit an `i64`, as a Unix `SystemTime` does (until 2262).
const MAX_EPOCH_UNIX_NS: u64 = i64::MAX as u64;

/// Where this process's trace epoch ([`gmg_trace::epoch`], the zero of
/// every event's `ts_ns`) sits on the wall clock, in nanoseconds since
/// the Unix epoch. Read when a dump is written, never while recording.
fn epoch_unix_ns() -> u64 {
    let wall = SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map_or(0, |d| d.as_nanos() as u64);
    wall.saturating_sub(gmg_trace::now_ns())
}

// JSON cannot carry u64::MAX (or anything past 2^53) through an f64, so
// sentinels become null and other large values decimal strings.
fn enc_u64(v: u64, sentinel: u64) -> Json {
    if v == sentinel {
        Json::Null
    } else if v >= (1u64 << 53) {
        Json::Str(v.to_string())
    } else {
        Json::Num(v as f64)
    }
}

fn dec_u64(j: Option<&Json>, sentinel: u64) -> u64 {
    match j {
        None | Some(Json::Null) => sentinel,
        Some(Json::Str(s)) => s.parse().unwrap_or(sentinel),
        Some(j) => j.as_u64().unwrap_or(sentinel),
    }
}

fn encode_event(ev: &FlightEvent) -> Json {
    Json::Obj(vec![
        ("ts_ns".to_string(), enc_u64(ev.ts_ns, u64::MAX)),
        ("dur_ns".to_string(), enc_u64(ev.dur_ns, u64::MAX)),
        ("kind".to_string(), Json::Str(ev.kind.name().to_string())),
        ("op".to_string(), Json::Str(ev.op.to_string())),
        (
            "level".to_string(),
            enc_u64(ev.level as u64, NO_LEVEL as u64),
        ),
        ("peer".to_string(), enc_u64(ev.peer as u64, NO_PEER as u64)),
        ("tag".to_string(), enc_u64(ev.tag, NO_TAG)),
        ("msg_seq".to_string(), enc_u64(ev.msg_seq, NO_MSG_SEQ)),
        ("bytes".to_string(), enc_u64(ev.bytes, u64::MAX)),
        (
            "bytes_written".to_string(),
            enc_u64(ev.bytes_written, u64::MAX),
        ),
    ])
}

fn decode_event(j: &Json) -> FlightEvent {
    let kind = j
        .get("kind")
        .and_then(Json::as_str)
        .and_then(Kind::from_name)
        .unwrap_or(Kind::Control);
    FlightEvent {
        ts_ns: dec_u64(j.get("ts_ns"), 0),
        dur_ns: dec_u64(j.get("dur_ns"), 0),
        kind,
        // Through the workspace's one (capped) interner: a hostile dump
        // with endless distinct names gets "?" once the table is full.
        op: gmg_trace::intern(j.get("op").and_then(Json::as_str).unwrap_or("?")).name(),
        level: dec_u64(j.get("level"), NO_LEVEL as u64) as u32,
        peer: dec_u64(j.get("peer"), NO_PEER as u64) as u32,
        tag: dec_u64(j.get("tag"), NO_TAG),
        msg_seq: dec_u64(j.get("msg_seq"), NO_MSG_SEQ),
        bytes: dec_u64(j.get("bytes"), u64::MAX),
        bytes_written: dec_u64(j.get("bytes_written"), 0),
    }
}

/// A loaded dump, ready for [`crate::rebuild_trace`].
#[derive(Clone, Debug)]
pub struct DumpBundle {
    pub reason: String,
    pub detail: String,
    pub nranks: usize,
    /// Wall-clock nanoseconds since the Unix epoch of the events'
    /// `ts_ns` 0 (`None` in a dump written without one).
    pub epoch_unix_ns: Option<u64>,
    pub logs: Vec<RankLog>,
}

/// Write a dump of `world` into `dir` (created if needed).
pub fn dump_world_to(
    dir: &Path,
    world: &FlightWorld,
    reason: &str,
    detail: &str,
) -> io::Result<()> {
    let (logs, epoch) = (world.snapshot(), Some(epoch_unix_ns()));
    write_logs(dir, world.nranks(), &logs, epoch, reason, detail)
}

/// Write a dump directory from already-snapshotted rank logs whose
/// `ts_ns` count from `epoch_unix_ns`.
fn write_logs(
    dir: &Path,
    nranks: usize,
    logs: &[RankLog],
    epoch_unix_ns: Option<u64>,
    reason: &str,
    detail: &str,
) -> io::Result<()> {
    fs::create_dir_all(dir)?;
    let ranks = Json::Arr(logs.iter().map(|l| Json::Num(l.rank as f64)).collect());
    let manifest = Json::Obj(vec![
        ("reason".to_string(), Json::Str(reason.to_string())),
        ("detail".to_string(), Json::Str(detail.to_string())),
        ("nranks".to_string(), Json::Num(nranks as f64)),
        ("ranks".to_string(), ranks),
        (
            "epoch_unix_ns".to_string(),
            epoch_unix_ns.map_or(Json::Null, |ns| enc_u64(ns, u64::MAX)),
        ),
    ]);
    fs::write(dir.join("manifest.json"), manifest.to_string())?;
    for log in logs {
        let body = Json::Obj(vec![
            ("rank".to_string(), Json::Num(log.rank as f64)),
            ("capacity".to_string(), Json::Num(log.capacity as f64)),
            ("written".to_string(), enc_u64(log.written, u64::MAX)),
            ("lost".to_string(), enc_u64(log.lost, u64::MAX)),
            (
                "events".to_string(),
                Json::Arr(log.events.iter().map(encode_event).collect()),
            ),
        ]);
        fs::write(dir.join(format!("rank{}.json", log.rank)), body.to_string())?;
    }
    Ok(())
}

/// Write `logs` as a whole dump into `dir` (created if needed), on this
/// process's time base: one log per rank up to the highest they name, a
/// rank without one getting an empty log, as [`merge_dumps`] writes a
/// rank no process dumped. A capture saves itself through this; it is
/// not crash-path code, so the dump cap does not apply.
pub fn dump_logs(dir: &Path, logs: &[RankLog], reason: &str, detail: &str) -> io::Result<()> {
    let nranks = logs.iter().map(|l| l.rank + 1).max().unwrap_or(0);
    let logs = whole(nranks, logs.iter().cloned());
    write_logs(dir, nranks, &logs, Some(epoch_unix_ns()), reason, detail)
}

/// One log per rank of an `nranks`-rank world: of several logs for a
/// rank, the one with the most recorded events; for a rank with none,
/// an empty log.
fn whole(nranks: usize, parts: impl IntoIterator<Item = RankLog>) -> Vec<RankLog> {
    let mut logs: Vec<RankLog> = (0..nranks)
        .map(|rank| RankLog {
            rank,
            ..RankLog::default()
        })
        .collect();
    for log in parts {
        let slot = &mut logs[log.rank];
        if (log.events.len(), log.written) >= (slot.events.len(), slot.written) {
            *slot = log;
        }
    }
    logs
}

/// Claim a fresh `flightdump_<unix-ns>` directory under `base` and fill
/// it with `write`; `None` once [`MAX_DUMPS`] attempts are spent or on
/// any IO failure — crash paths must not die twice.
fn dump_under(base: &Path, write: impl FnOnce(&Path) -> io::Result<()>) -> Option<PathBuf> {
    if DUMPS.fetch_add(1, Ordering::Relaxed) >= MAX_DUMPS {
        return None;
    }
    let ns = SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map(|d| d.as_nanos() as u64)
        .unwrap_or(0);
    // Two failures in the same nanosecond (or a frozen clock) collide;
    // probe a handful of suffixed names rather than overwrite.
    let dir = (0..16u32)
        .map(|k| match k {
            0 => base.join(format!("flightdump_{ns}")),
            k => base.join(format!("flightdump_{ns}_{k}")),
        })
        .find(|dir| !dir.exists())?;
    write(&dir).ok().map(|()| dir)
}

/// Best-effort black-box dump under the world's dump directory. Returns
/// the dump directory, or `None` if disabled by the cap or any IO failed.
pub fn dump_world(world: &FlightWorld, reason: &str, detail: &str) -> Option<PathBuf> {
    dump_under(&world.dump_dir, |dir| {
        dump_world_to(dir, world, reason, detail)
    })
}

/// Dump the world installed on *this* thread (solver-side failure hook).
pub fn dump_installed(reason: &str, detail: &str) -> Option<PathBuf> {
    crate::recorder::installed().and_then(|(world, _rank)| dump_world(&world, reason, detail))
}

fn invalid(msg: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg)
}

fn read_manifest(dir: &Path) -> io::Result<Json> {
    Json::parse(&fs::read_to_string(dir.join("manifest.json"))?)
        .map_err(|e| invalid(format!("manifest.json: {e}")))
}

/// The ranks whose `rank<k>.json` files `dir` holds.
fn rank_files(dir: &Path) -> io::Result<Vec<usize>> {
    Ok(fs::read_dir(dir)?
        .flatten()
        .filter_map(|e| {
            let name = e.file_name();
            let k = name.to_str()?.strip_prefix("rank")?.strip_suffix(".json")?;
            k.parse().ok()
        })
        .collect())
}

/// The manifest's time base: nanoseconds since 1970 that an `i64` holds,
/// or `None` for a dump written without one.
fn manifest_epoch(manifest: &Json) -> io::Result<Option<u64>> {
    match manifest.get("epoch_unix_ns") {
        None | Some(Json::Null) => Ok(None),
        j => match dec_u64(j, u64::MAX) {
            ns if ns <= MAX_EPOCH_UNIX_NS => Ok(Some(ns)),
            _ => Err(invalid("manifest.json: bad epoch_unix_ns".to_string())),
        },
    }
}

/// Load `rank`'s log from `dir`.
fn load_log(dir: &Path, rank: usize) -> io::Result<RankLog> {
    let body = Json::parse(&fs::read_to_string(dir.join(format!("rank{rank}.json")))?)
        .map_err(|e| invalid(format!("rank{rank}.json: {e}")))?;
    let events = match body.get("events") {
        Some(Json::Arr(a)) => a.iter().map(decode_event).collect(),
        _ => Vec::new(),
    };
    Ok(RankLog {
        rank,
        capacity: dec_u64(body.get("capacity"), 0),
        written: dec_u64(body.get("written"), 0),
        lost: dec_u64(body.get("lost"), 0),
        events,
    })
}

/// Load a dump directory written by [`dump_world_to`] for a whole world.
/// Anything the writer could not have produced — a manifest claiming
/// more ranks than the directory has rank files (or than
/// [`MAX_DUMP_RANKS`]), a rank id out of range, a time base that is not
/// a count of nanoseconds since 1970 an `i64` holds, malformed JSON — is
/// `InvalidData`. A process-world child's dump holds its own rank only,
/// so it is not whole: [`merge_dumps`] reads those.
pub fn load_dump(dir: &Path) -> io::Result<DumpBundle> {
    let manifest = read_manifest(dir)?;
    let text = |key, default| manifest.get(key).and_then(Json::as_str).unwrap_or(default);
    let (reason, detail) = (
        text("reason", "?").to_string(),
        text("detail", "").to_string(),
    );
    // The rank files actually present bound everything the manifest may
    // claim: a whole dump holds one file per rank of its world.
    let present = rank_files(dir)?;
    let nranks = manifest
        .get("nranks")
        .and_then(Json::as_u64)
        .and_then(|n| usize::try_from(n).ok())
        .filter(|&n| n <= MAX_DUMP_RANKS && n <= present.len())
        .ok_or_else(|| {
            invalid(format!(
                "manifest.json: nranks missing or beyond the {} rank files present",
                present.len()
            ))
        })?;
    let mut ranks: Vec<usize> = match manifest.get("ranks") {
        Some(Json::Arr(a)) => a
            .iter()
            .map(|r| {
                r.as_u64()
                    .and_then(|r| usize::try_from(r).ok())
                    .filter(|&r| r < nranks)
                    .ok_or_else(|| invalid(format!("manifest.json: bad rank id {r}")))
            })
            .collect::<io::Result<_>>()?,
        _ => present.into_iter().filter(|&r| r < nranks).collect(),
    };
    let epoch_unix_ns = manifest_epoch(&manifest)?;
    ranks.sort_unstable();
    ranks.dedup();
    let logs = (ranks.into_iter())
        .map(|rank| load_log(dir, rank))
        .collect::<io::Result<_>>()?;
    Ok(DumpBundle {
        reason,
        detail,
        nranks,
        epoch_unix_ns,
        logs,
    })
}

/// Merge the dumps of an `nranks`-rank process world — one or more per
/// OS process, each holding that process's own rank — into one whole
/// dump under `cfg`'s dump directory. Each process stamps events from
/// its own epoch, so a log is shifted onto the earliest source's time
/// base (a source without one is taken as already on it). A rank two
/// processes dumped — one that died and the replacement that rejoined
/// for it — keeps the log with the most recorded events; a rank no
/// process dumped gets an empty log. Unreadable sources and ranks
/// outside the world are skipped; returns `None` when nothing merged or
/// the dump cap is spent.
pub fn merge_dumps(
    cfg: &ObsConfig,
    nranks: usize,
    sources: &[PathBuf],
    reason: &str,
    detail: &str,
) -> Option<PathBuf> {
    let mut parts: Vec<(Option<u64>, RankLog)> = Vec::new();
    for dir in sources {
        let Ok(epoch) = read_manifest(dir).and_then(|m| manifest_epoch(&m)) else {
            continue;
        };
        for rank in rank_files(dir).unwrap_or_default() {
            if rank < nranks {
                parts.extend(load_log(dir, rank).ok().map(|log| (epoch, log)));
            }
        }
    }
    if parts.is_empty() {
        return None;
    }
    let base = parts.iter().filter_map(|(epoch, _)| *epoch).min();
    let logs = whole(
        nranks,
        parts.into_iter().map(|(epoch, mut log)| {
            let shift = epoch.zip(base).map_or(0, |(e, base)| e - base);
            for ev in &mut log.events {
                ev.ts_ns = ev.ts_ns.saturating_add(shift);
            }
            log
        }),
    );
    dump_under(&cfg.dump_dir(), |dir| {
        write_logs(dir, nranks, &logs, base, reason, detail)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use gmg_trace::probe::{self, Kind};

    fn scratch_dir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("gmg_flight_dump_{tag}_{}", std::process::id()));
        let _ = fs::remove_dir_all(&d);
        d
    }

    #[test]
    fn dump_round_trips_events_and_sentinels() {
        let world = FlightWorld::with_capacity(2, 64);
        world.ring(0).record(FlightEvent {
            ts_ns: 100,
            dur_ns: 50,
            kind: Kind::Send,
            op: "send",
            level: 3,
            peer: 1,
            tag: 7,
            msg_seq: 42,
            bytes: 4096,
            ..FlightEvent::empty()
        });
        // Sentinel-heavy event plus a value beyond 2^53.
        world.ring(1).record(FlightEvent {
            ts_ns: 200,
            dur_ns: 0,
            kind: Kind::Control,
            op: "fault:kill",
            tag: (1u64 << 60) + 5,
            ..FlightEvent::empty()
        });
        let dir = scratch_dir("roundtrip");
        dump_world_to(&dir, &world, "test", "synthetic").unwrap();
        let bundle = load_dump(&dir).unwrap();
        assert_eq!(bundle.reason, "test");
        assert_eq!(bundle.nranks, 2);
        assert_eq!(bundle.logs.len(), 2);
        let e0 = &bundle.logs[0].events[0];
        assert_eq!(e0.kind, Kind::Send);
        assert_eq!(e0.op, "send");
        assert_eq!(
            (e0.ts_ns, e0.dur_ns, e0.level, e0.peer, e0.tag, e0.msg_seq, e0.bytes),
            (100, 50, 3, 1, 7, 42, 4096)
        );
        let e1 = &bundle.logs[1].events[0];
        assert_eq!(e1.op, "fault:kill");
        assert_eq!(e1.tag, (1u64 << 60) + 5, "big u64 must survive via string");
        assert_eq!(e1.level, NO_LEVEL);
        assert_eq!(e1.peer, NO_PEER);
        assert_eq!(e1.msg_seq, NO_MSG_SEQ);
        let _ = fs::remove_dir_all(&dir);
    }

    /// Per-process dumps of a 3-rank world: ranks 0 and 1 dumped by their
    /// own processes, rank 1 also by the predecessor that died before its
    /// replacement rejoined, rank 2 by nobody.
    #[test]
    fn merge_makes_one_whole_dump_of_per_process_parts() {
        let base = scratch_dir("merge");
        let cfg = ObsConfig::from_lookup(|k| (k == "GMG_FLIGHT_DIR").then(|| base.clone().into()));
        let parts = [(0usize, "send", 1), (1, "died", 1), (1, "recv", 2)];
        let mut sources = Vec::new();
        for (k, &(rank, op, n)) in parts.iter().enumerate() {
            let world = FlightWorld::for_rank(3, rank, &cfg);
            for _ in 0..n {
                world.ring(rank).record(FlightEvent {
                    ts_ns: 1,
                    kind: Kind::Control,
                    op,
                    ..FlightEvent::empty()
                });
            }
            let dir = base.join(format!("flightdump_{k}"));
            dump_world_to(&dir, &world, "membership-park", "per-process").unwrap();
            assert_eq!(rank_files(&dir).unwrap(), vec![rank]);
            sources.push(dir);
        }
        let merged = merge_dumps(&cfg, 3, &sources, "process-world", "rank 1 died");
        let bundle = load_dump(&merged.expect("merged dump")).unwrap();
        assert_eq!(bundle.reason, "process-world");
        assert_eq!(bundle.detail, "rank 1 died");
        assert_eq!((bundle.nranks, bundle.logs.len()), (3, 3));
        assert_eq!(bundle.logs[0].events[0].op, "send");
        assert_eq!(bundle.logs[1].events.len(), 2);
        assert_eq!(bundle.logs[1].events[0].op, "recv");
        assert!(bundle.logs[2].events.is_empty());
        let _ = fs::remove_dir_all(&base);
    }

    /// A capture of ranks 0 and 2 saves as a whole 3-rank dump: rank 1
    /// gets an empty log, and every log loads back as written.
    #[test]
    fn saved_logs_make_a_whole_dump() {
        let dir = scratch_dir("logs");
        let log = |rank, written| RankLog {
            rank,
            capacity: 4,
            written,
            lost: 0,
            events: vec![FlightEvent {
                ts_ns: 7,
                kind: Kind::Send,
                op: "send",
                ..FlightEvent::empty()
            }],
        };
        dump_logs(&dir, &[log(0, 1), log(2, 9)], "capture", "").unwrap();
        let bundle = load_dump(&dir).unwrap();
        assert_eq!((bundle.reason.as_str(), bundle.nranks), ("capture", 3));
        let shape: Vec<_> = (bundle.logs.iter())
            .map(|l| (l.rank, l.written, l.events.len()))
            .collect();
        assert_eq!(shape, [(0, 1, 1), (1, 0, 0), (2, 9, 1)]);
        assert!(bundle.epoch_unix_ns.is_some());
        let _ = fs::remove_dir_all(&dir);
    }

    /// Two processes whose epochs sit 5 ms apart on the wall clock: the
    /// merge shifts the later one's events onto the earlier base, and
    /// the merged manifest names that base.
    #[test]
    fn merge_puts_every_source_on_the_earliest_time_base() {
        let base = scratch_dir("timebase");
        let (a, b) = (base.join("flightdump_a"), base.join("flightdump_b"));
        let epoch = 1_700_000_000_000_000_000u64;
        for (dir, rank, at) in [(&a, 0usize, epoch + 5_000_000), (&b, 1, epoch)] {
            let log = RankLog {
                rank,
                capacity: 64,
                written: 1,
                lost: 0,
                events: vec![FlightEvent {
                    ts_ns: 1_000,
                    kind: Kind::Send,
                    op: "send",
                    ..FlightEvent::empty()
                }],
            };
            write_logs(dir, 2, &[log], Some(at), "membership-park", "per-process").unwrap();
        }
        let cfg = ObsConfig::from_lookup(|k| (k == "GMG_FLIGHT_DIR").then(|| base.clone().into()));
        let merged = merge_dumps(&cfg, 2, &[a, b], "process-world", "two epochs").unwrap();
        let bundle = load_dump(&merged).unwrap();
        assert_eq!(bundle.epoch_unix_ns, Some(epoch));
        assert_eq!(bundle.logs[0].events[0].ts_ns, 5_001_000);
        assert_eq!(bundle.logs[1].events[0].ts_ns, 1_000);
        let _ = fs::remove_dir_all(&base);
    }

    /// A time base no wall clock could have written is refused like any
    /// other bad manifest number.
    #[test]
    fn an_impossible_time_base_is_invalid_data() {
        let dir = scratch_dir("bad_epoch");
        dump_world_to(&dir, &FlightWorld::with_capacity(1, 4), "test", "").unwrap();
        assert!(load_dump(&dir).unwrap().epoch_unix_ns.is_some());
        let path = dir.join("manifest.json");
        let Json::Obj(fields) = Json::parse(&fs::read_to_string(&path).unwrap()).unwrap() else {
            panic!("manifest is an object");
        };
        for bad in [Json::Str("soon".into()), Json::Num(-1.0), Json::Num(1e300)] {
            let mut m = fields.clone();
            m.retain(|(k, _)| k != "epoch_unix_ns");
            m.push(("epoch_unix_ns".to_string(), bad));
            fs::write(&path, Json::Obj(m).to_string()).unwrap();
            let err = load_dump(&dir).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn dump_installed_uses_the_thread_local_world() {
        let dir = scratch_dir("installed");
        let cfg = ObsConfig::from_lookup(|k| (k == "GMG_FLIGHT_DIR").then(|| dir.clone().into()));
        let world = FlightWorld::for_run(1, &cfg);
        let _g = world.install(0);
        probe::event(Kind::Control, "health:diverged");
        let out = dump_installed("health-divergence", "residual blew up");
        let out = out.expect("dump under cap should succeed");
        let bundle = load_dump(&out).unwrap();
        assert_eq!(bundle.reason, "health-divergence");
        assert!(bundle.logs[0]
            .events
            .iter()
            .any(|e| e.op == "health:diverged"));
        let _ = fs::remove_dir_all(&dir);
    }
}
