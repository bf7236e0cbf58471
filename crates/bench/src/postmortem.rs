//! Crash postmortem: turn a flight-recorder dump into a diagnosis.
//!
//! The flight recorder (`gmg-flight`) rings are dumped automatically when
//! a world dies ([`gmg_comm::WorldFailure`]) or the solver's health
//! monitor trips. This module is the other half of that story: load the
//! dump, rebuild the per-rank rings into one distributed `Trace`, and
//! answer from it the three questions an on-call engineer asks first:
//!
//! 1. **Who?** — the culprit rank: a rank that recorded an injected
//!    `fault:kill`, else the peer that cost everyone else the most
//!    late-sender wait time, else the rank whose ring went silent first.
//! 2. **Doing what?** — the culprit's last recorded operation.
//! 3. **Why was everyone waiting?** — every blocking receive classified
//!    (late-sender / late-receiver / ARQ-stall / starvation) per level,
//!    plus the true distributed critical path, which follows each
//!    receive to the send of the same wire sequence number.
//!
//! It also names stragglers and retransmit storms
//! (`stragglers_and_storms`) from the same trace. Only ring health
//! (events lost per rank) is read from the dump itself.
//!
//! Outputs land next to the dump: `postmortem.md` (human report) and
//! `postmortem_trace.json` (Perfetto timeline with cross-rank flow
//! arrows for every joined message).
//!
//! Run: `cargo run --release -p gmg-bench --bin postmortem -- --seed N`
//! (seeded kill-rank chaos solve, then self-analysis), or
//! `-- --dump DIR` to analyze an existing dump.

use gmg_comm::fault::{FaultConfig, FaultPlan};
use gmg_flight::{load_dump, rebuild_trace, DumpBundle};
use gmg_metrics::analysis::{
    classify_waits, critical_path, is_wait, killed_ranks, mad_outliers, CriticalPath, WaitAnalysis,
    WaitClass,
};
use gmg_trace::{json, Json, Trace, TraceEvent, Track, LEVEL_NONE};
use std::collections::BTreeMap;
use std::path::Path;
use std::time::Duration;

/// Fewest ranks whose compute times make a population to judge.
const STRAGGLER_MIN_RANKS: usize = 3;
/// Compute time per (rank, level) under which a level is never judged:
/// jitter on trivially fast levels is not a straggler.
const STRAGGLER_FLOOR_NS: f64 = 2e6;
/// Retransmits one rank may record before they count as a storm
/// (retransmits are routine under seeded loss; a storm is an order of
/// magnitude above that rate).
const ARQ_STORM_RETRANSMITS: usize = 200;

/// The last operation a rank recorded — the span or instant that ends
/// last (of two ending together, the enclosing one: a ring records a
/// span when it ends) — named with the ring kind it was recorded as.
fn last_op(trace: &Trace, rank: usize) -> String {
    let kind = |e: &TraceEvent| match (e.track, e.op.name()) {
        (Track::Compute, _) => "compute",
        (Track::Comm, op @ ("send" | "arrive")) => op,
        (Track::Comm, _) if is_wait(e) => "recv-wait",
        (Track::Comm, _) => "comm",
        (Track::Fault, op) if op.starts_with("arq:") || op.starts_with("frame:") => "arq",
        (Track::Fault, _) => "control",
    };
    trace
        .events
        .iter()
        .filter(|e| e.rank == rank)
        .max_by_key(|e| (e.ts_ns + e.dur_ns, e.dur_ns))
        .map(|e| format!("{} ({})", e.op.name(), kind(e)))
        .unwrap_or_else(|| "(empty ring)".to_string())
}

/// The culprit rank: the first rank `killed`, else the peer everyone
/// else spent the most late-sender time on, else whichever of the
/// `nranks` stopped recording first.
fn culprit(trace: &Trace, nranks: usize, killed: &[usize], waits: &WaitAnalysis) -> usize {
    // An injected kill is definitive.
    if let Some(&r) = killed.first() {
        return r;
    }
    let mut blame: BTreeMap<usize, u64> = BTreeMap::new();
    for s in &waits.samples {
        if let (WaitClass::LateSender, Some(peer)) = (s.class, s.peer) {
            *blame.entry(peer).or_default() += s.dur_ns;
        }
    }
    if let Some((&r, _)) = blame.iter().max_by_key(|&(_, &ns)| ns) {
        return r;
    }
    let mut last_end = vec![0; nranks];
    for e in trace.events.iter().filter(|e| e.rank < nranks) {
        last_end[e.rank] = last_end[e.rank].max(e.ts_ns + e.dur_ns);
    }
    (0..nranks).min_by_key(|&r| last_end[r]).unwrap_or(0)
}

/// A rank a post-hoc check singles out of a dump.
#[derive(Clone, Debug, PartialEq)]
pub(crate) struct Flag {
    /// `"straggler"` or `"arq_storm"`.
    kind: &'static str,
    rank: usize,
    /// The level a straggler is slow on.
    level: Option<usize>,
    /// Human-readable evidence.
    detail: String,
}

/// Stragglers and retransmit storms in a dump's trace.
///
/// * **Straggler:** a rank whose compute time on a level — its compute
///   spans less the receive waits ([`is_wait`]) inside them, which
///   inherit the level of the op they wait in — sits above the robust MAD
///   envelope of its peers ([`mad_outliers`], fed nanoseconds, the unit
///   its σ floor of 1 is sized for). Needs [`STRAGGLER_MIN_RANKS`] ranks;
///   levels where every rank is under [`STRAGGLER_FLOOR_NS`] are skipped.
/// * **ARQ storm:** a rank that recorded more than
///   [`ARQ_STORM_RETRANSMITS`] `arq:retransmit` events.
pub(crate) fn stragglers_and_storms(trace: &Trace) -> Vec<Flag> {
    let mut busy: BTreeMap<usize, BTreeMap<usize, f64>> = BTreeMap::new();
    let mut retransmits: BTreeMap<usize, usize> = BTreeMap::new();
    for e in &trace.events {
        let sign = match e.track {
            Track::Compute => 1.0,
            _ if is_wait(e) => -1.0,
            Track::Fault if e.op.name() == "arq:retransmit" => {
                *retransmits.entry(e.rank).or_default() += 1;
                continue;
            }
            _ => continue,
        };
        if e.level != LEVEL_NONE {
            *busy.entry(e.level).or_default().entry(e.rank).or_default() += sign * e.dur_ns as f64;
        }
    }
    let mut flags: Vec<Flag> = retransmits
        .into_iter()
        .filter(|&(_, n)| n > ARQ_STORM_RETRANSMITS)
        .map(|(rank, n)| Flag {
            kind: "arq_storm",
            rank,
            level: None,
            detail: format!("{n} ARQ retransmits (threshold {ARQ_STORM_RETRANSMITS})"),
        })
        .collect();
    for (level, per_rank) in busy {
        let (ranks, ns): (Vec<usize>, Vec<f64>) = per_rank.into_iter().unzip();
        if ranks.len() < STRAGGLER_MIN_RANKS || ns.iter().all(|&t| t < STRAGGLER_FLOOR_NS) {
            continue;
        }
        let verdicts = mad_outliers(&ns, STRAGGLER_MIN_RANKS, STRAGGLER_FLOOR_NS);
        for ((rank, t), v) in ranks.into_iter().zip(&ns).zip(verdicts) {
            if v.flagged {
                flags.push(Flag {
                    kind: "straggler",
                    rank,
                    level: Some(level),
                    detail: format!(
                        "{:.1} ms compute vs median {:.1} ms (robust z {:.1})",
                        t / 1e6,
                        v.median / 1e6,
                        v.score
                    ),
                });
            }
        }
    }
    flags
}

fn render_report(
    dir: &Path,
    bundle: &DumpBundle,
    culprit: &str,
    waits: &WaitAnalysis,
    path: &CriticalPath,
) -> String {
    let mut md = String::new();
    md.push_str(&format!(
        "# Postmortem — {} ({})\n\n",
        bundle.reason, bundle.detail
    ));
    md.push_str(&format!(
        "dump: `{}`, {} ranks\n\n",
        dir.display(),
        bundle.nranks
    ));
    md.push_str(&format!("{culprit}.\n\n"));
    for log in &bundle.logs {
        if log.lost > 0 {
            md.push_str(&format!(
                "note: rank {} lost {} events to writer contention\n\n",
                log.rank, log.lost
            ));
        }
    }
    md.push_str("## Wait-state attribution\n\n");
    md.push_str(&waits.render_table());
    md.push_str(&format!(
        "\nclassified fraction: {:.1}% of {:.3} ms total wait\n",
        100.0 * waits.total.classified_fraction(),
        waits.total.total_ns() as f64 / 1e6,
    ));
    md.push_str("\n## Distributed critical path (exact message edges)\n\n");
    md.push_str("| op | seconds |\n|---|---|\n");
    for (op, secs) in path.op_totals.iter().take(12) {
        md.push_str(&format!("| {op} | {secs:.6} |\n"));
    }
    md.push_str(&format!(
        "\npath coverage: {:.1}% · message edges: {} · timeline: `postmortem_trace.json`\n",
        100.0 * path.coverage,
        waits.joined,
    ));
    md
}

fn render_flags(flags: &[Flag]) -> String {
    let mut md = String::from("\n## Stragglers and retransmit storms\n\n");
    if flags.is_empty() {
        md.push_str("none\n");
    }
    for f in flags {
        let level = f.level.map(|l| format!(" level {l}")).unwrap_or_default();
        md.push_str(&format!(
            "- {}: rank {}{level} — {}\n",
            f.kind, f.rank, f.detail
        ));
    }
    md
}

/// Analyze a dump directory in place: classify waits, name the culprit,
/// write `postmortem.md` + `postmortem_trace.json` beside the ring data.
pub fn analyze_dump(dir: &Path) -> Json {
    analyze_dump_with(dir, None)
}

/// Like [`analyze_dump`], but with an authoritative culprit the caller
/// already knows (e.g. the membership controller SIGKILLed that rank
/// itself): the rank overrides the wait-state heuristics and `cause` is
/// quoted verbatim on the report's Culprit line.
pub fn analyze_dump_with(dir: &Path, known: Option<(usize, &str)>) -> Json {
    let bundle = match load_dump(dir) {
        Ok(b) => b,
        Err(e) => return json!({ "ok": false, "error": format!("load {}: {e}", dir.display()) }),
    };
    let trace = rebuild_trace(&bundle.logs);
    let waits = classify_waits(&trace);
    let killed = killed_ranks(&trace);
    let (culprit_rank, cause) = match known {
        Some((r, cause)) => (r, Some(cause)),
        None => (culprit(&trace, bundle.nranks, &killed, &waits), None),
    };
    let culprit_op = last_op(&trace, culprit_rank);
    let mut line = format!("**Culprit: rank {culprit_rank}**, last seen in `{culprit_op}`");
    if killed.contains(&culprit_rank) {
        line.push_str(" — recorded an injected kill");
    }
    if let Some(cause) = cause {
        line.push_str(&format!(" — {cause}"));
    }
    let path = critical_path(&trace);
    let flags = stragglers_and_storms(&trace);
    let mut md = render_report(dir, &bundle, &line, &waits, &path);
    md.push_str(&render_flags(&flags));
    let report_path = dir.join("postmortem.md");
    let trace_path = dir.join("postmortem_trace.json");
    let wrote = std::fs::write(&report_path, &md)
        .and_then(|_| std::fs::write(&trace_path, trace.to_chrome_string()));
    println!("{md}");
    let flags: Vec<Json> = flags
        .iter()
        .map(|f| {
            json!({
                "kind": f.kind,
                "rank": f.rank,
                "level": f.level.map_or(Json::Null, Json::from),
                "detail": f.detail.as_str(),
            })
        })
        .collect();
    json!({
        "ok": wrote.is_ok(),
        "reason": bundle.reason,
        "detail": bundle.detail,
        "nranks": bundle.nranks,
        "culprit_rank": culprit_rank,
        "culprit_op": culprit_op,
        "killed_ranks": killed,
        "classified_fraction": waits.total.classified_fraction(),
        "total_wait_ms": waits.total.total_ns() as f64 / 1e6,
        "message_edges": waits.joined,
        "path_coverage": path.coverage,
        "flags": flags,
        "report": report_path.display().to_string(),
        "trace": trace_path.display().to_string(),
    })
}

/// Seeded black-box exercise: kill one rank mid-solve with the flight
/// recorder on, then load the automatic dump and verify the postmortem
/// blames the right rank with ≥ 90 % of wait time classified.
pub fn run_seeded(seed: u64) -> Json {
    crate::report::heading(&format!(
        "Postmortem — seeded kill + dump analysis (seed {seed})"
    ));
    let was_on = gmg_flight::set_enabled(true);
    let victim = (seed % 8) as usize;
    let at_op = 40 + seed % 29;
    let mut plan = FaultPlan::new(FaultConfig::kill_rank(victim, at_op), seed);
    plan.retry.op_timeout = Duration::from_millis(500);
    plan.retry.max_attempts = 6;
    let outcome = crate::chaos::faulted_solve(&plan, crate::chaos::chaos_solver_config());
    gmg_flight::set_enabled(was_on);
    let failure = match outcome {
        Ok(_) => {
            return json!({ "ok": false, "seed": seed, "victim": victim,
                           "error": "world unexpectedly survived the kill" })
        }
        Err(f) => f,
    };
    let Some(dump_dir) = failure.flight_dump.clone() else {
        return json!({ "ok": false, "seed": seed, "victim": victim,
                       "error": "world failed but left no flight dump" });
    };
    println!("world failed as planned; dump at {}\n", dump_dir.display());
    let pm = analyze_dump(&dump_dir);
    let named = pm["culprit_rank"].as_u64() == Some(victim as u64);
    let classified = pm["classified_fraction"].as_f64().unwrap_or(0.0);
    let ok = pm["ok"] == true && named && classified >= 0.9;
    println!(
        "postmortem verdict: culprit named={named} (rank {victim}), \
         classified {:.1}% → {}",
        100.0 * classified,
        if ok { "OK" } else { "NOT OK" }
    );
    json!({
        "ok": ok,
        "seed": seed,
        "victim": victim,
        "at_op": at_op,
        "dump_dir": dump_dir.display().to_string(),
        "culprit_named": named,
        "postmortem": pm,
    })
}

/// Default seeded run (seed 5).
pub fn run() -> Json {
    run_seeded(5)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::{Mutex, MutexGuard};

    /// The flight enable switch is process-global; serialize the tests
    /// that toggle it.
    fn lock() -> MutexGuard<'static, ()> {
        static LOCK: Mutex<()> = Mutex::new(());
        LOCK.lock().unwrap_or_else(|p| p.into_inner())
    }

    /// The acceptance criterion end to end: a seeded killed-rank solve
    /// must leave a dump whose postmortem names the victim and classifies
    /// at least 90 % of all comm wait time.
    #[test]
    fn postmortem_names_killed_rank_and_classifies_waits() {
        let _l = lock();
        let v = run_seeded(5);
        assert_eq!(v["ok"], true, "{v}");
        assert_eq!(v["culprit_named"], true, "{v}");
        let pm = &v["postmortem"];
        assert_eq!(pm["culprit_rank"], v["victim"], "{v}");
        assert!(pm["classified_fraction"].as_f64().unwrap() >= 0.9, "{v}");
        // The rendered artifacts exist inside the dump directory.
        let dir = std::path::PathBuf::from(v["dump_dir"].as_str().unwrap());
        assert!(dir.join("postmortem.md").is_file());
        assert!(dir.join("postmortem_trace.json").is_file());
        // The markdown names the culprit rank explicitly.
        let md = std::fs::read_to_string(dir.join("postmortem.md")).unwrap();
        assert!(
            md.contains(&format!("Culprit: rank {}", v["victim"])),
            "{md}"
        );
        // The timeline parses as a valid Chrome trace (flows skipped).
        let text = std::fs::read_to_string(dir.join("postmortem_trace.json")).unwrap();
        let back = gmg_trace::Trace::from_chrome_str(&text).expect("timeline parses");
        assert!(!back.events.is_empty());
        assert!(text.contains("\"ph\":\"s\""), "flow arrows present");
    }

    /// Flight recording must never perturb the numerics: the same solve
    /// with the recorder on and off yields bit-identical residuals.
    #[test]
    fn recorder_on_off_residual_histories_are_bit_identical() {
        let _l = lock();
        let cfg = crate::chaos::chaos_solver_config();
        let was_on = gmg_flight::set_enabled(false);
        let off = crate::chaos::baseline_solve(cfg);
        gmg_flight::set_enabled(true);
        let on = crate::chaos::baseline_solve(cfg);
        gmg_flight::set_enabled(was_on);
        for (a, b) in off.iter().zip(&on) {
            assert_eq!(a.residual_history, b.residual_history);
            assert_eq!(a.converged, b.converged);
            assert_eq!(a.vcycles, b.vcycles);
        }
    }

    /// A lock-step 4-rank world over five cycles: every rank smooths
    /// `ms[rank]` milliseconds on level 0, then waits inside a level-0
    /// exchange until the slowest rank is done, then smooths 1 ms on
    /// level 1; and it records `retransmits[rank]` ARQ retransmits.
    /// Every rank's level-0 spans add up to the same time, so only the
    /// waits inside them tell the slow rank apart.
    fn world(ms: [u64; 4], retransmits: [usize; 4]) -> Trace {
        let slowest = ms.iter().max().copied().unwrap_or(0);
        let builders = (0..4)
            .map(|r| {
                let mut b = gmg_flight::synth::SynthLog::new(r);
                let peer = ((r + 1) % 4) as u32;
                let (smooth, wait) = (ms[r] * 200_000, (slowest - ms[r]) * 200_000);
                let mut t = 0;
                for cycle in 0..5 {
                    b.compute("smooth", 0, t, smooth, 512);
                    t += smooth;
                    b.recv_wait(0, t, wait, peer, 1, cycle);
                    b.compute("exchange", 0, t, wait, 0);
                    t += wait;
                    b.compute("smooth", 1, t, 200_000, 64);
                    t += 200_000;
                }
                for seq in 0..retransmits[r] as u64 {
                    b.arq("arq:retransmit", t + seq, peer, seq);
                }
                b
            })
            .collect();
        rebuild_trace(&gmg_flight::synth::into_logs(builders))
    }

    #[test]
    fn a_clean_world_flags_nothing() {
        assert_eq!(stragglers_and_storms(&world([50; 4], [10; 4])), vec![]);
    }

    #[test]
    fn a_slow_rank_is_named_with_its_level() {
        let flags = stragglers_and_storms(&world([50, 50, 500, 50], [0; 4]));
        let named: Vec<_> = flags.iter().map(|f| (f.kind, f.rank, f.level)).collect();
        assert_eq!(named, [("straggler", 2, Some(0))], "{flags:?}");
    }

    #[test]
    fn a_storm_is_more_than_two_hundred_retransmits() {
        let flags = stragglers_and_storms(&world([50; 4], [0, 201, 200, 0]));
        let named: Vec<_> = flags.iter().map(|f| (f.kind, f.rank, f.level)).collect();
        assert_eq!(named, [("arq_storm", 1, None)], "{flags:?}");
    }

    /// A dump that does not exist reports a structured error.
    #[test]
    fn analyzing_a_missing_dump_is_a_clean_error() {
        let v = analyze_dump(Path::new("/nonexistent/flightdump_0"));
        assert_eq!(v["ok"], false);
        assert!(v["error"].as_str().unwrap().contains("load"));
    }
}
