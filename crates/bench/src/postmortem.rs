//! Crash postmortem: turn a flight-recorder dump into a diagnosis.
//!
//! The flight recorder (`gmg-flight`) rings are dumped automatically when
//! a world dies ([`gmg_comm::WorldFailure`]) or the solver's health
//! monitor trips. This module is the other half of that story: load the
//! dump, join the per-rank rings into one distributed timeline, and
//! answer the three questions an on-call engineer asks first:
//!
//! 1. **Who?** — the culprit rank: a rank that recorded an injected
//!    `fault:kill`, else the peer that cost everyone else the most
//!    late-sender wait time, else the rank whose ring went silent first.
//! 2. **Doing what?** — the culprit's last recorded operation.
//! 3. **Why was everyone waiting?** — every blocking receive classified
//!    (late-sender / late-receiver / ARQ-stall / starvation) per level,
//!    plus the true distributed critical path computed over exact
//!    cross-rank message edges rather than tag heuristics.
//!
//! Outputs land next to the dump: `postmortem.md` (human report) and
//! `postmortem_trace.json` (Perfetto timeline with cross-rank flow
//! arrows for every joined message).
//!
//! Run: `cargo run --release -p gmg-bench --bin postmortem -- --seed N`
//! (seeded kill-rank chaos solve, then self-analysis), or
//! `-- --dump DIR` to analyze an existing dump.

use gmg_comm::fault::{FaultConfig, FaultPlan};
use gmg_flight::{analyze, load_dump, DumpBundle, EventKind, RankLog, WaitAnalysis, WaitClass};
use gmg_metrics::analysis::{critical_path_with_edges, CriticalPath};
use gmg_trace::{intern, Counters, FlowArrow, Trace, TraceEvent, Track, LEVEL_NONE};
use gmg_trace::{json, Json};
use std::path::Path;
use std::time::Duration;

/// The last operation a rank's ring recorded.
fn last_op(logs: &[RankLog], rank: usize) -> String {
    logs.iter()
        .find(|l| l.rank == rank)
        .and_then(|l| l.events.last())
        .map(|e| format!("{} ({})", e.op, e.kind.name()))
        .unwrap_or_else(|| "(empty ring)".to_string())
}

/// The culprit rank and what it was last seen doing.
fn culprit(logs: &[RankLog], waits: &WaitAnalysis) -> (usize, String) {
    let last_op = |rank: usize| last_op(logs, rank);
    // An injected kill is definitive.
    if let Some(&r) = WaitAnalysis::killed_ranks(logs).first() {
        return (r, last_op(r));
    }
    // Else: the peer everyone else spent the most late-sender time on.
    let mut blame: std::collections::BTreeMap<usize, u64> = Default::default();
    for s in &waits.samples {
        if s.class == WaitClass::LateSender {
            *blame.entry(s.peer).or_default() += s.dur_ns;
        }
    }
    if let Some((&r, _)) = blame.iter().max_by_key(|&(_, &ns)| ns) {
        return (r, last_op(r));
    }
    // Else: whoever stopped recording first went silent first.
    let r = logs
        .iter()
        .min_by_key(|l| l.events.last().map(|e| e.end_ns()).unwrap_or(0))
        .map(|l| l.rank)
        .unwrap_or(0);
    (r, last_op(r))
}

/// Reconstruct a merged distributed [`Trace`] from the dumped rings, so
/// the generic analysis/exporter stack can consume flight data. Shared
/// with the scaling observatory, which rebuilds its simulated rank
/// window the same way.
pub(crate) fn rebuild_trace(logs: &[RankLog]) -> Trace {
    let mut events = Vec::new();
    for log in logs {
        for ev in &log.events {
            let level = if ev.level == gmg_flight::NO_LEVEL {
                LEVEL_NONE
            } else {
                ev.level as usize
            };
            let peer = (ev.peer != gmg_flight::NO_PEER).then_some(ev.peer as usize);
            let tag = (ev.tag != gmg_flight::NO_TAG).then_some(ev.tag);
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
                level,
                op: intern(op),
                track,
                ts_ns: ev.ts_ns,
                dur_ns: ev.dur_ns,
                counters,
                peer,
                tag,
            });
        }
    }
    events.sort_by_key(|e| (e.ts_ns, e.dur_ns));
    Trace { events }
}

/// Exact happens-before edges in the two downstream vocabularies.
pub(crate) fn exact_edges(waits: &WaitAnalysis) -> (Vec<gmg_metrics::MessageEdge>, Vec<FlowArrow>) {
    let metric = waits
        .edges
        .iter()
        .map(|e| gmg_metrics::MessageEdge {
            src: e.src,
            // Flight sends are instants: end == ts.
            send_end_ns: e.send_ts_ns,
            dst: e.dst,
            recv_end_ns: e.recv_end_ns,
        })
        .collect();
    let flows = waits
        .edges
        .iter()
        .map(|e| FlowArrow {
            src_rank: e.src,
            src_ts_ns: e.send_ts_ns,
            dst_rank: e.dst,
            dst_ts_ns: e.recv_end_ns,
            id: e.msg_seq,
        })
        .collect();
    (metric, flows)
}

fn render_report(
    dir: &Path,
    bundle: &DumpBundle,
    waits: &WaitAnalysis,
    culprit_rank: usize,
    culprit_op: &str,
    cause: Option<&str>,
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
    let killed = WaitAnalysis::killed_ranks(&bundle.logs);
    md.push_str(&format!(
        "**Culprit: rank {culprit_rank}**, last seen in `{culprit_op}`"
    ));
    if killed.contains(&culprit_rank) {
        md.push_str(" — recorded an injected kill");
    }
    if let Some(cause) = cause {
        md.push_str(&format!(" — {cause}"));
    }
    md.push_str(".\n\n");
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
        waits.edges.len(),
    ));
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
    let waits = analyze(&bundle.logs);
    let (culprit_rank, culprit_op, cause) = match known {
        Some((r, cause)) => (r, last_op(&bundle.logs, r), Some(cause)),
        None => {
            let (r, op) = culprit(&bundle.logs, &waits);
            (r, op, None)
        }
    };
    let (medges, flows) = exact_edges(&waits);
    let trace = rebuild_trace(&bundle.logs);
    let path = critical_path_with_edges(&trace, &medges);
    let md = render_report(
        dir,
        &bundle,
        &waits,
        culprit_rank,
        &culprit_op,
        cause,
        &path,
    );
    let report_path = dir.join("postmortem.md");
    let trace_path = dir.join("postmortem_trace.json");
    let wrote = std::fs::write(&report_path, &md)
        .and_then(|_| std::fs::write(&trace_path, trace.to_chrome_string_with_flows(&flows)));
    println!("{md}");
    let killed = WaitAnalysis::killed_ranks(&bundle.logs);
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
        "message_edges": waits.edges.len(),
        "path_coverage": path.coverage,
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
        let back = Trace::from_chrome_str(&text).expect("timeline parses");
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

    /// A dump that does not exist reports a structured error.
    #[test]
    fn analyzing_a_missing_dump_is_a_clean_error() {
        let v = analyze_dump(Path::new("/nonexistent/flightdump_0"));
        assert_eq!(v["ok"], false);
        assert!(v["error"].as_str().unwrap().contains("load"));
    }
}
