//! Live telemetry demo: the gmg-live cross-process observability plane
//! end to end, self-gating on its own correctness in both polarities:
//!
//! 1. **Mid-solve scrape** — every rank of a real multi-process world
//!    ships beacons + metric deltas over the telemetry sidecar; the
//!    controller-embedded collector serves Prometheus text, and a
//!    scraper thread must observe per-rank per-level `solver_op_ns`
//!    rows from *all* ranks while the solve is still running.
//! 2. **Negative control** — the clean run must raise **zero** alerts.
//! 3. **Planted straggler** (`--inject-slowdown R`) — rank R's shipped
//!    level-0 seconds are inflated at the observation layer (same idiom
//!    as `analyze --inject-slowdown`: the solve itself is untouched, so
//!    histories stay bit-identical); the alert engine must name exactly
//!    that rank and level.
//! 4. **Silent rank** (`--kill-process R`) — rank R is SIGKILLed
//!    mid-solve; the silent-rank detector must name it, and the
//!    endpoint must stay parseable before *and* after the rejoin epoch.
//!
//! Telemetry is observation-only: every leg's residual history is
//! verified bit-for-bit against a hook-free thread-transport baseline.
//!
//! Run: `cargo run --release -p gmg-bench --bin live -- --seed N
//! [--inject-slowdown R] [--kill-process R]`.

use gmg_comm::runtime::RankWorld;
use gmg_core::solver::{GmgSolver, SolveStats, SolverConfig};
use gmg_live::{AlertConfig, AlertKind, Beacon, Collector, PromServer, Shipper};
use gmg_mesh::{Box3, Decomposition, Point3};
use gmg_trace::{json, Json};
use std::sync::{Arc, Mutex};
use std::time::Duration;

const N: i64 = 16;

/// Observation-plane slowdown planted by `--inject-slowdown`: seconds
/// added to the victim's shipped level-0 time per completed cycle.
const INJECT_SLOW_S: f64 = 0.06;

/// How long a respawned rank holds back before rejoining (models a slow
/// restart, and makes the dead rank's quiet gap unambiguous to the
/// silent-rank detector, whose threshold is 750 ms).
#[cfg(unix)]
const REJOIN_HOLDBACK: Duration = Duration::from_millis(1200);

pub(crate) fn live_decomp() -> Decomposition {
    // The acceptance geometry: 4 ranks in a 2×2×1 grid.
    Decomposition::new(Box3::cube(N), Point3::new(2, 2, 1))
}

pub(crate) fn live_solver_config() -> SolverConfig {
    let mut cfg = SolverConfig::test_default();
    cfg.num_levels = 2;
    cfg.max_vcycles = 12;
    cfg.tolerance = 1e-8;
    cfg
}

/// Build the beacon for one solver progress observation, applying the
/// planted observation-layer slowdown when this rank is the victim.
fn beacon_for(
    rank: usize,
    p: &gmg_core::solver::SolveProgress,
    slow: Option<usize>,
    done: bool,
) -> Beacon {
    let mut b = Beacon {
        rank,
        cycle: p.cycle as u64,
        residual: p.residual,
        epoch: p.epoch,
        level_seconds: p.level_seconds.clone(),
        done,
    };
    if slow == Some(rank) {
        if let Some(s0) = b.level_seconds.first_mut() {
            *s0 += INJECT_SLOW_S * p.cycle as f64;
        }
    }
    b
}

/// A slot the progress hook and the rank body both reach.
type Shared<T> = Arc<Mutex<Option<T>>>;

/// Attach a shipper to a solver: a beacon per completed V-cycle, plus a
/// final `done` beacon (which flushes the closing delta + digest) after
/// the solve returns. The shipper is `None` when `GMG_LIVE=0`.
fn attach_shipper(
    s: &mut GmgSolver,
    rank: usize,
    shipper: Option<Shipper>,
    slow: Option<usize>,
) -> (Shared<Shipper>, Shared<Beacon>) {
    let shipper = Arc::new(Mutex::new(shipper));
    let last = Arc::new(Mutex::new(None::<Beacon>));
    let sh = Arc::clone(&shipper);
    let la = Arc::clone(&last);
    s.progress_hook = Some(Box::new(move |p| {
        let b = beacon_for(rank, p, slow, false);
        if let Some(sh) = sh.lock().unwrap().as_mut() {
            sh.beacon(&b);
        }
        *la.lock().unwrap() = Some(b);
    }));
    (shipper, last)
}

/// Ship the final beacon of a finished solve.
fn ship_done(shipper: &Arc<Mutex<Option<Shipper>>>, last: &Arc<Mutex<Option<Beacon>>>) {
    if let Some(sh) = shipper.lock().unwrap().as_mut() {
        if let Some(mut b) = last.lock().unwrap().clone() {
            b.done = true;
            sh.beacon(&b);
        }
    }
}

/// Hook-free thread-transport reference run.
fn baseline_solve(cfg: SolverConfig) -> Vec<SolveStats> {
    let decomp = live_decomp();
    let nranks = decomp.num_ranks();
    let d = &decomp;
    RankWorld::run(nranks, move |mut ctx| {
        let mut s = GmgSolver::new(d.clone(), ctx.rank(), cfg);
        s.solve(&mut ctx)
    })
}

// ---------------------------------------------------------------------
// Thread-transport campaign (`live --transport thread`)
// ---------------------------------------------------------------------

/// Thread-mode campaign: the local collector shim. Every rank ships
/// beacons into an in-process collector through the identical codec;
/// the leg gates on bit-identical residual histories vs the hook-free
/// baseline, a fully-populated live view, zero alerts, and a parseable
/// Prometheus endpoint.
pub fn run_with_seed(seed: u64) -> Json {
    crate::report::heading(&format!(
        "Live telemetry — thread-transport campaign (seed {seed})"
    ));
    gmg_metrics::enable();
    let cfg = live_solver_config();
    let baseline = baseline_solve(cfg);
    assert!(
        baseline
            .iter()
            .all(|s| s.residual_history == baseline[0].residual_history),
        "baseline ranks disagree"
    );
    println!(
        "baseline: converged={} in {} cycles, final residual {:.3e}",
        baseline[0].converged,
        baseline[0].vcycles,
        baseline[0].final_residual()
    );

    let collector = Collector::new(AlertConfig::default()).into_handle();
    let decomp = live_decomp();
    let nranks = decomp.num_ranks();
    let d = &decomp;
    let h = &collector;
    let stats = RankWorld::run(nranks, move |mut ctx| {
        let rank = ctx.rank();
        let mut s = GmgSolver::new(d.clone(), rank, cfg);
        let (shipper, last) =
            attach_shipper(&mut s, rank, Shipper::local(rank, Arc::clone(h)), None);
        let st = s.solve(&mut ctx);
        ship_done(&shipper, &last);
        st
    });

    let identical = stats
        .iter()
        .zip(&baseline)
        .all(|(a, b)| a.residual_history == b.residual_history);
    let converged = stats.iter().all(|s| s.converged);
    let (ranks_seen, alerts, lost) = {
        let c = collector.lock().unwrap();
        (c.ranks_seen(), c.alerts(), c.frames_lost())
    };
    let fleet = ranks_seen.len() == nranks;
    let final_cycle = stats[0].vcycles as f64;
    let progress_complete = {
        let m = collector.lock().unwrap().merged();
        (0..nranks).all(|r| {
            m.get(
                "gmg_live_progress_cycles",
                &gmg_metrics::Key::new(r, None, "live"),
            ) == Some(&gmg_metrics::Value::Gauge(final_cycle))
        })
    };

    // The endpoint over the finished (still merged) live view.
    let endpoint_ok = match PromServer::start(Arc::clone(&collector)) {
        Ok(srv) => {
            let addr = srv.addr();
            let parse = gmg_live::http_get(addr, "/metrics")
                .ok()
                .and_then(|body| gmg_metrics::prom::parse_prometheus(&body).ok());
            let status = gmg_live::http_get(addr, "/status").ok().and_then(|body| {
                gmg_trace::Json::parse(&body)
                    .ok()
                    .and_then(|v| v.get("schema")?.as_u64())
            });
            parse.is_some_and(|s| !s.entries.is_empty()) && status == Some(1)
        }
        Err(e) => {
            println!("  prom endpoint unavailable: {e}");
            false
        }
    };

    let ok = identical
        && converged
        && fleet
        && progress_complete
        && alerts.is_empty()
        && lost == 0
        && endpoint_ok;
    println!(
        "thread live leg: identical={identical} converged={converged} ranks_seen={} \
         alerts={} lost={lost} endpoint={endpoint_ok} → {}",
        ranks_seen.len(),
        alerts.len(),
        if ok { "OK" } else { "NOT OK" }
    );
    let alert_details: Vec<String> = alerts.iter().map(|a| a.detail.clone()).collect();
    json!({
        "seed": seed,
        "mode": "thread",
        "identical": identical,
        "converged": converged,
        "ranks_seen": ranks_seen.len() as u64,
        "progress_complete": progress_complete,
        "alerts": alert_details,
        "frames_lost": lost,
        "endpoint_ok": endpoint_ok,
        "ok": ok,
    })
}

/// Default thread campaign (seed 7).
pub fn run() -> Json {
    run_with_seed(7)
}

// ---------------------------------------------------------------------
// Multi-process campaign (`live --transport process`)
// ---------------------------------------------------------------------

/// Entry body for the ranks of the live multi-process campaign; the
/// live binary's (and the test binary's) `run_child_if_spawned` hook
/// dispatches spawned children here by entry name.
#[cfg(unix)]
pub fn live_child(ctx: &mut gmg_comm::RankCtx, args: &str) -> String {
    use gmg_core::RecoveryPolicy;
    // A respawned rank holds back before rejoining: the quiet gap the
    // SIGKILL opened must outlast the silent-rank threshold.
    if ctx.membership_rejoining() {
        std::thread::sleep(REJOIN_HOLDBACK);
    }
    gmg_metrics::enable();
    let mut cfg = live_solver_config();
    cfg.recovery = RecoveryPolicy::Rejoin;
    let rank = ctx.rank();
    let mut s = GmgSolver::new(live_decomp(), rank, cfg);
    // Pace the solve so the controller's scraper (and its progress-
    // triggered SIGKILL) land mid-run instead of after the finish line.
    s.phase_hook = Some(Box::new(|_cycle, _phase, _level| {
        std::thread::sleep(Duration::from_millis(8));
    }));
    let slow = args
        .split(',')
        .find_map(|a| a.strip_prefix("slow="))
        .and_then(|r| r.parse::<usize>().ok());
    let (shipper, last) = attach_shipper(&mut s, rank, Shipper::from_proc_env(), slow);
    let st = s.solve(ctx);
    ship_done(&shipper, &last);
    let hist: Vec<String> = st
        .residual_history
        .iter()
        .map(|r| format!("{:x}", r.to_bits()))
        .collect();
    format!("{}|{}|{}", hist.join(","), st.rejoin_epochs, st.converged)
}

/// Parse [`live_child`]'s result string: (history bits, rejoin epochs,
/// converged).
#[cfg(unix)]
fn parse_live(result: &str) -> (Vec<u64>, usize, bool) {
    let mut it = result.trim().split('|');
    let hist = it
        .next()
        .unwrap_or_default()
        .split(',')
        .map(|h| u64::from_str_radix(h, 16).expect("hex residual"))
        .collect();
    let epochs = it.next().and_then(|s| s.parse().ok()).unwrap_or(0);
    let converged = it.next() == Some("true");
    (hist, epochs, converged)
}

/// What the scraper thread saw: whether a scrape observed `solver_op_ns`
/// rows with level labels from every rank *while the solve ran*, plus
/// one `(collector epoch, parse ok)` record per scrape.
#[cfg(unix)]
struct ScrapeLog {
    mid_run_fleet: bool,
    scrapes: Vec<(u64, bool)>,
    sample: String,
}

/// One multi-process live solve over the UDS datagram transport (plus
/// seeded loss): children ship telemetry to the controller sidecar, the
/// collector aggregates and serves Prometheus, a scraper polls the
/// endpoint throughout, and the alert verdicts are gated per leg.
#[cfg(unix)]
fn process_leg(
    seed: u64,
    kill: Option<usize>,
    slow: Option<usize>,
    child_args: &[&str],
    baseline: &[u64],
) -> Json {
    use gmg_comm::fault::{FaultConfig, FaultPlan};
    use gmg_comm::{ProcessWorld, SocketKind};
    use std::sync::atomic::{AtomicBool, Ordering};

    let nranks = live_decomp().num_ranks();
    let leg = match (kill, slow) {
        (Some(_), _) => "kill",
        (None, Some(_)) => "straggler",
        (None, None) => "clean",
    };
    let status_base = std::env::temp_dir().join(format!(
        "gmg_live_status_{}_{seed}_{leg}",
        std::process::id()
    ));
    let collector = Collector::new(AlertConfig::default())
        .with_status_file(status_base.clone(), Duration::from_millis(200))
        .into_handle();
    let server = match PromServer::start(Arc::clone(&collector)) {
        Ok(s) => s,
        Err(e) => {
            println!("  prom endpoint unavailable: {e}");
            return json!({ "seed": seed, "leg": leg, "survived": false,
                           "failure": e.to_string(), "ok": false });
        }
    };

    let args_s = match slow {
        Some(r) => format!("paced,slow={r}"),
        None => "paced".to_string(),
    };
    let sink = {
        let h = Arc::clone(&collector);
        Box::new(move |bytes: &[u8], epoch: u64| {
            h.lock().unwrap().ingest(bytes, epoch);
        })
    };
    let mut world = ProcessWorld::new(nranks, "live")
        .transport(SocketKind::Uds)
        .args(&args_s)
        .child_args(child_args)
        .faults(FaultPlan::new(FaultConfig::lossy(0.002), seed))
        .deadline(Duration::from_secs(180))
        .telemetry_sink(sink);
    if let Some(victim) = kill {
        world = world.kill_process_at(victim, 3);
    }

    // The scraper: hits the live endpoint every 25 ms for the whole
    // solve (plus one final scrape), recording parseability and the
    // collector epoch at each hit.
    let running = Arc::new(AtomicBool::new(true));
    let scraper = {
        let addr = server.addr();
        let running = Arc::clone(&running);
        let h = Arc::clone(&collector);
        std::thread::spawn(move || {
            let mut log = ScrapeLog {
                mid_run_fleet: false,
                scrapes: Vec::new(),
                sample: String::new(),
            };
            loop {
                let was_running = running.load(Ordering::SeqCst);
                let epoch = h.lock().unwrap().epoch();
                if let Ok(body) = gmg_live::http_get(addr, "/metrics") {
                    match gmg_metrics::prom::parse_prometheus(&body) {
                        Ok(snap) => {
                            let ranks: std::collections::BTreeSet<usize> = snap
                                .entries
                                .iter()
                                .filter(|e| e.name == "solver_op_ns" && e.key.level.is_some())
                                .map(|e| e.key.rank)
                                .collect();
                            if was_running && ranks.len() == nranks && !log.mid_run_fleet {
                                log.mid_run_fleet = true;
                                log.sample = body;
                            }
                            log.scrapes.push((epoch, true));
                        }
                        Err(_) => log.scrapes.push((epoch, false)),
                    }
                }
                if !was_running {
                    return log;
                }
                std::thread::sleep(Duration::from_millis(25));
            }
        })
    };

    let outcome = world.run();
    running.store(false, Ordering::SeqCst);
    let log = scraper.join().expect("scraper thread");
    let report = match outcome {
        Ok(r) => r,
        Err(e) => {
            println!("  live process world FAILED: {e}");
            return json!({ "seed": seed, "leg": leg, "survived": false,
                           "failure": e, "ok": false });
        }
    };

    let mut exact = true;
    let mut converged_all = true;
    let mut epochs: Vec<usize> = Vec::new();
    for res in &report.results {
        let (hist, ep, conv) = parse_live(res);
        exact &= hist == baseline;
        converged_all &= conv;
        epochs.push(ep);
    }
    let membership_ok = match kill {
        Some(v) => {
            report.rejoins.len() == 1
                && report.rejoins[0].rank == v
                && epochs.iter().all(|&e| e == 1)
        }
        None => report.rejoins.is_empty() && epochs.iter().all(|&e| e == 0),
    };

    // Alert polarity for this leg.
    let alerts = collector.lock().unwrap().alerts();
    let silent_hits: Vec<usize> = alerts
        .iter()
        .filter(|a| a.kind == AlertKind::SilentRank)
        .map(|a| a.rank)
        .collect();
    let straggler_hits: Vec<(usize, Option<usize>)> = alerts
        .iter()
        .filter(|a| a.kind == AlertKind::Straggler)
        .map(|a| (a.rank, a.level))
        .collect();
    let other_kinds = alerts
        .iter()
        .any(|a| matches!(a.kind, AlertKind::Divergence | AlertKind::ArqStorm));
    let alerts_ok = match (kill, slow) {
        // Negative control: a clean world raises nothing at all.
        (None, None) => alerts.is_empty(),
        // The planted straggler — and nothing else — is named.
        (None, Some(r)) => {
            straggler_hits == [(r, Some(0))] && silent_hits.is_empty() && !other_kinds
        }
        // The killed rank goes silent. Peers parked through the rejoin
        // may legitimately trip the detector too; what must not fire is
        // anything *numeric* (divergence / straggler / storm).
        (Some(v), _) => silent_hits.contains(&v) && straggler_hits.is_empty() && !other_kinds,
    };

    // Endpoint availability: every scrape parses; a kill leg must have
    // parseable scrapes both before and after the rejoin epoch.
    let parse_all = !log.scrapes.is_empty() && log.scrapes.iter().all(|&(_, ok)| ok);
    let epoch_spans = match kill {
        Some(_) => {
            log.scrapes.iter().any(|&(e, ok)| ok && e == 0)
                && log.scrapes.iter().any(|&(e, ok)| ok && e >= 1)
        }
        None => true,
    };

    // The periodic status file pair.
    let status_ok = status_base.with_extension("md").exists()
        && std::fs::read_to_string(status_base.with_extension("json"))
            .ok()
            .and_then(|s| gmg_trace::Json::parse(&s).ok())
            .and_then(|v| v.get("schema")?.as_u64())
            == Some(1);
    let _ = std::fs::remove_file(status_base.with_extension("json"));
    let _ = std::fs::remove_file(status_base.with_extension("md"));

    let lost = collector.lock().unwrap().frames_lost();
    let ok = exact
        && converged_all
        && membership_ok
        && alerts_ok
        && log.mid_run_fleet
        && parse_all
        && epoch_spans
        && status_ok;
    println!(
        "  {leg:<9} seed {seed}: exact={exact} converged={converged_all} membership={membership_ok} \
         alerts_ok={alerts_ok} mid_run_fleet={} scrapes={} lost={lost} status={status_ok} → {}",
        log.mid_run_fleet,
        log.scrapes.len(),
        if ok { "OK" } else { "NOT OK" }
    );
    for a in &alerts {
        println!("    alert[{}] {}", a.kind.name(), a.detail);
    }
    if leg == "clean" && !log.sample.is_empty() {
        let excerpt: Vec<&str> = log
            .sample
            .lines()
            .filter(|l| l.contains("solver_op_ns_count") || l.contains("gmg_live_"))
            .take(8)
            .collect();
        println!("    mid-run scrape excerpt:");
        for l in excerpt {
            println!("      {l}");
        }
    }
    let alert_details: Vec<String> = alerts
        .iter()
        .map(|a| format!("{}: {}", a.kind.name(), a.detail))
        .collect();
    json!({
        "seed": seed,
        "leg": leg,
        "survived": true,
        "transport": report.transport,
        "kill_rank": kill.map_or(-1, |v| v as i64),
        "slow_rank": slow.map_or(-1, |v| v as i64),
        "exact_match": exact,
        "converged": converged_all,
        "membership_ok": membership_ok,
        "rejoins": report.rejoins.len() as u64,
        "alerts": alert_details,
        "alerts_ok": alerts_ok,
        "mid_run_fleet_scrape": log.mid_run_fleet,
        "scrapes": log.scrapes.len() as u64,
        "scrapes_parse_all": parse_all,
        "epoch_spans_ok": epoch_spans,
        "status_file_ok": status_ok,
        "frames_lost": lost,
        "ok": ok,
    })
}

/// The full multi-process campaign: a clean leg (negative control) plus
/// optional planted-straggler and SIGKILL legs, each self-gating.
#[cfg(unix)]
pub fn run_process_campaign(seed: u64, kill: Option<usize>, slow: Option<usize>) -> Json {
    run_process_campaign_with(seed, kill, slow, &[])
}

/// [`run_process_campaign`] with explicit child argv (the in-crate test
/// harness passes a libtest filter so spawned copies of the test binary
/// land in their entry hook instead of running the whole suite).
#[cfg(unix)]
pub fn run_process_campaign_with(
    seed: u64,
    kill: Option<usize>,
    slow: Option<usize>,
    child_args: &[&str],
) -> Json {
    use gmg_core::RecoveryPolicy;
    crate::report::heading(&format!(
        "Live telemetry — multi-process campaign (base seed {seed})"
    ));
    gmg_metrics::enable();

    let mut cfg = live_solver_config();
    cfg.recovery = RecoveryPolicy::Rejoin;
    let baseline = baseline_solve(cfg);
    let base_hist: Vec<u64> = baseline[0]
        .residual_history
        .iter()
        .map(|r| r.to_bits())
        .collect();
    assert!(
        baseline
            .iter()
            .all(|s| s.residual_history == baseline[0].residual_history),
        "baseline ranks disagree"
    );
    println!(
        "thread baseline: converged={} in {} cycles, final residual {:.3e}\n",
        baseline[0].converged,
        baseline[0].vcycles,
        baseline[0].final_residual()
    );

    println!("clean live solve (mid-run fleet scrape, zero alerts):");
    let clean = process_leg(seed, None, None, child_args, &base_hist);
    let straggler = slow.map(|r| {
        println!("\nplanted straggler (observation-layer slowdown on rank {r}):");
        process_leg(seed, None, Some(r), child_args, &base_hist)
    });
    let kill_leg = kill.map(|v| {
        println!("\nsilent rank (SIGKILL rank {v} at V-cycle 3, checkpoint rejoin):");
        process_leg(seed, Some(v), None, child_args, &base_hist)
    });

    let ok = clean["ok"] == true
        && straggler.as_ref().map_or(true, |s| s["ok"] == true)
        && kill_leg.as_ref().map_or(true, |k| k["ok"] == true);
    println!(
        "\nlive verdict: clean={} straggler={} kill={} → {}",
        clean["ok"],
        straggler
            .as_ref()
            .map_or("skipped".to_string(), |s| s["ok"].to_string()),
        kill_leg
            .as_ref()
            .map_or("skipped".to_string(), |k| k["ok"].to_string()),
        if ok { "OK" } else { "NOT OK" }
    );
    let baseline_v = json!({
        "converged": baseline[0].converged,
        "vcycles": baseline[0].vcycles,
        "final_residual": baseline[0].final_residual(),
    });
    json!({
        "seed": seed,
        "mode": "process",
        "baseline": baseline_v,
        "clean": clean,
        "straggler": straggler.unwrap_or(Json::Null),
        "kill": kill_leg.unwrap_or(Json::Null),
        "ok": ok,
    })
}
