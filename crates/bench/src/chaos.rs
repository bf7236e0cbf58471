//! Chaos soak harness: the distributed V-cycle under deterministic,
//! seeded fault injection (`gmg_comm::fault`), exercising every layer of
//! the robustness story end to end:
//!
//! 1. **Transport faults absorbed exactly** — drops, duplicates,
//!    reorderings, and detected corruption at swept rates must leave the
//!    converged residual history bit-identical to the fault-free baseline
//!    (the ARQ layer retransmits; numerics never see the chaos).
//! 2. **Solver-level self-healing** — a seeded one-shot silent corruption
//!    of the iterate (past any checksum) trips the health guards and is
//!    repaired by rollback recovery; the solve still converges.
//! 3. **Graceful structured failure** — a rank killed mid-exchange must
//!    surface as a [`WorldFailure`] listing every affected rank, with no
//!    panic reaching the caller.
//!
//! Run: `cargo run --release -p gmg-bench --bin chaos -- --seed N`.

use gmg_brick::BrickedField;
use gmg_comm::fault::{FaultConfig, FaultPlan};
use gmg_comm::runtime::RankWorld;
use gmg_comm::{ArqStats, WorldFailure};
use gmg_core::solver::{GmgSolver, SolveStats, SolverConfig};
use gmg_core::RecoveryPolicy;
use gmg_mesh::{Box3, Decomposition, Point3};
use gmg_trace::{json, Json};
use std::time::{Duration, Instant};

const N: i64 = 16;

pub(crate) fn chaos_decomp() -> Decomposition {
    // The acceptance geometry: a 2×2×2 rank grid.
    Decomposition::new(Box3::cube(N), Point3::splat(2))
}

pub(crate) fn chaos_solver_config() -> SolverConfig {
    let mut cfg = SolverConfig::test_default();
    cfg.num_levels = 2;
    cfg.max_vcycles = 12;
    cfg.tolerance = 1e-8;
    cfg
}

/// Distributed solve under a fault plan; per-rank stats with each rank's
/// ARQ tally, or the structured world failure.
pub(crate) fn faulted_solve(
    plan: &FaultPlan,
    cfg: SolverConfig,
) -> Result<Vec<(SolveStats, ArqStats)>, WorldFailure> {
    let decomp = chaos_decomp();
    let nranks = decomp.num_ranks();
    let d = &decomp;
    RankWorld::run_with_faults(nranks, plan, move |mut ctx| {
        let mut s = GmgSolver::new(d.clone(), ctx.rank(), cfg);
        (s.solve(&mut ctx), ctx.arq_stats())
    })
}

/// Add one run's per-rank ARQ tallies to the campaign's.
fn tally(campaign: &mut [ArqStats], run: &[(SolveStats, ArqStats)]) {
    for (c, (_, a)) in campaign.iter_mut().zip(run) {
        *c += *a;
    }
}

/// The campaign's per-rank ARQ tallies as a markdown table, its total
/// last.
fn arq_table(per_rank: &[ArqStats], total: &ArqStats) -> String {
    let row = |who: String, a: &ArqStats| {
        format!(
            "| {who} | {} | {} | {} |\n",
            a.retransmits, a.checksum_failures, a.dedup_drops
        )
    };
    let mut t = String::from(
        "| rank | retransmits | checksum failures | dedup drops |\n|---|---|---|---|\n",
    );
    for (r, a) in per_rank.iter().enumerate() {
        t += &row(r.to_string(), a);
    }
    t + &row("**all**".to_string(), total)
}

/// Fault-free reference run (same geometry and config).
pub(crate) fn baseline_solve(cfg: SolverConfig) -> Vec<SolveStats> {
    let decomp = chaos_decomp();
    let nranks = decomp.num_ranks();
    let d = &decomp;
    RankWorld::run(nranks, move |mut ctx| {
        let mut s = GmgSolver::new(d.clone(), ctx.rank(), cfg);
        s.solve(&mut ctx)
    })
}

/// One transport-fault soak run: drop + duplicate + delay + corrupt all at
/// `rate`, seeded; reports whether the world survived, converged, and
/// reproduced the baseline history exactly, and adds its ARQ tallies to
/// `arq`.
fn transport_run(
    rate: f64,
    seed: u64,
    cfg: SolverConfig,
    baseline: &[f64],
    arq: &mut [ArqStats],
) -> Json {
    let plan = FaultPlan::new(FaultConfig::lossy(rate), seed);
    let t0 = Instant::now();
    let outcome = faulted_solve(&plan, cfg);
    let seconds = t0.elapsed().as_secs_f64();
    match outcome {
        Ok(stats) => {
            tally(arq, &stats);
            let exact = stats.iter().all(|(s, _)| s.residual_history == baseline);
            let converged = stats.iter().all(|(s, _)| s.converged);
            println!(
                "  rate {rate:>5.3}  seed {seed:>20}  survived  converged={converged}  \
                 exact={exact}  {seconds:.2}s"
            );
            json!({
                "rate": rate, "seed": seed, "survived": true,
                "converged": converged, "exact_match": exact, "seconds": seconds,
            })
        }
        Err(f) => {
            println!("  rate {rate:>5.3}  seed {seed:>20}  FAILED: {f}");
            json!({
                "rate": rate, "seed": seed, "survived": false,
                "converged": false, "exact_match": false, "seconds": seconds,
                "failure": f.to_string(),
            })
        }
    }
}

/// The self-healing demonstration: a seeded one-shot corruption of one
/// rank's iterate (a "silent" upset that no transport checksum can catch)
/// under lossy transport, with rollback recovery enabled; its ARQ tallies
/// are added to `arq`.
fn recovery_run(seed: u64, arq: &mut [ArqStats]) -> Json {
    let mut cfg = chaos_solver_config();
    cfg.recovery = RecoveryPolicy::Rollback;
    cfg.max_vcycles = 25;
    let victim = (seed % 8) as usize;
    let at_cycle = 2 + (seed % 3) as usize;
    let plan = FaultPlan::new(FaultConfig::lossy(0.01), seed);
    let decomp = chaos_decomp();
    let nranks = decomp.num_ranks();
    let d = &decomp;
    let outcome = RankWorld::run_with_faults(nranks, &plan, move |mut ctx| {
        let mut s = GmgSolver::new(d.clone(), ctx.rank(), cfg);
        let rank = ctx.rank();
        s.fault_hook = Some(Box::new(move |cycle, level| {
            if cycle == at_cycle && rank == victim {
                // Scale the iterate by 1e9: a silent data corruption the
                // transport layer cannot see.
                let old = level.x.clone();
                level.x = BrickedField::from_fn(level.layout.clone(), move |p| old.get(p) * 1e9);
            }
        }));
        (s.solve(&mut ctx), ctx.arq_stats())
    });
    match outcome {
        Ok(stats) => {
            tally(arq, &stats);
            let s0 = &stats[0].0;
            let agree = stats
                .iter()
                .all(|(s, _)| s.residual_history == s0.residual_history);
            println!(
                "  corrupt rank {victim} at cycle {at_cycle}: converged={} after {} cycles, \
                 {} rollback(s), health {:?}, ranks agree={agree}",
                s0.converged, s0.vcycles, s0.recoveries, s0.health
            );
            json!({
                "seed": seed, "victim": victim, "at_cycle": at_cycle, "survived": true,
                "converged": s0.converged, "recoveries": s0.recoveries,
                "health": format!("{:?}", s0.health),
                "final_residual": s0.final_residual(), "ranks_agree": agree,
            })
        }
        Err(f) => {
            println!("  recovery run FAILED: {f}");
            json!({ "seed": seed, "survived": false, "failure": f.to_string() })
        }
    }
}

/// The graceful-failure demonstration: kill one rank mid-exchange and show
/// the world reports a structured [`WorldFailure`] instead of hanging or
/// propagating a bare panic.
pub(crate) fn kill_run(seed: u64) -> Json {
    let victim = (seed % 8) as usize;
    let at_op = 40 + seed % 29; // lands inside the first cycle's exchanges
    let mut plan = FaultPlan::new(FaultConfig::kill_rank(victim, at_op), seed);
    // Tighten the timeouts so peer ranks discover the death quickly.
    plan.retry.op_timeout = Duration::from_millis(500);
    plan.retry.max_attempts = 6;
    let outcome = faulted_solve(&plan, chaos_solver_config());
    match outcome {
        Ok(_) => {
            println!("  kill rank {victim} at op {at_op}: world unexpectedly survived");
            json!({ "seed": seed, "victim": victim, "structured_failure": false })
        }
        Err(f) => {
            let ranks = f.ranks();
            let killed_reported = ranks.contains(&victim);
            println!(
                "  kill rank {victim} at op {at_op}: {} of {} ranks reported, \
                 failed ranks {ranks:?} (no panic reached the caller)",
                f.failures.len(),
                f.nranks
            );
            json!({
                "seed": seed, "victim": victim, "at_op": at_op,
                "structured_failure": true, "failed_ranks": ranks,
                "killed_rank_reported": killed_reported,
                "report": f.to_string(),
            })
        }
    }
}

/// Run the full chaos campaign with the given base seed.
pub fn run_with_seed(seed: u64) -> Json {
    crate::report::heading(&format!(
        "Chaos — seeded fault injection soak (base seed {seed})"
    ));
    let cfg = chaos_solver_config();
    let baseline = baseline_solve(cfg);
    let base_history = baseline[0].residual_history.clone();
    assert!(
        baseline.iter().all(|s| s.residual_history == base_history),
        "baseline ranks disagree"
    );
    println!(
        "baseline: converged={} in {} cycles, final residual {:.3e}\n",
        baseline[0].converged,
        baseline[0].vcycles,
        baseline[0].final_residual()
    );

    // Meter the ARQ layer across the whole campaign: every rank's tally
    // of every run that completes (the killed world returns none).
    let mut arq = vec![ArqStats::default(); chaos_decomp().num_ranks()];

    println!("transport faults (drop+dup+delay+corrupt, ARQ must absorb exactly):");
    let mut sweep = Vec::new();
    for (i, &rate) in [0.002, 0.01, 0.03].iter().enumerate() {
        for k in 0..3u64 {
            let run_seed = seed
                .wrapping_mul(0x9e37_79b9_7f4a_7c15)
                .wrapping_add(1000 * i as u64 + k);
            sweep.push(transport_run(rate, run_seed, cfg, &base_history, &mut arq));
        }
    }
    let sweep_ok = sweep
        .iter()
        .all(|r| r["survived"] == true && r["exact_match"] == true);

    println!("\nself-healing (silent iterate corruption + rollback recovery):");
    let recovery = recovery_run(seed, &mut arq);
    let recovery_ok =
        recovery["converged"] == true && recovery["recoveries"].as_u64().unwrap_or(0) >= 1;

    println!("\ngraceful failure (rank killed mid-exchange):");
    let kill = kill_run(seed);
    let kill_ok = kill["structured_failure"] == true && kill["killed_rank_reported"] == true;

    let mut arq_total = ArqStats::default();
    for a in &arq {
        arq_total += *a;
    }
    let arq_table = arq_table(&arq, &arq_total);
    println!("\nfault-handling counts (ARQ layer, campaign total):\n\n{arq_table}");

    let ok = sweep_ok && recovery_ok && kill_ok;
    println!(
        "\nchaos verdict: transport={} recovery={} kill-report={} → {}",
        sweep_ok,
        recovery_ok,
        kill_ok,
        if ok { "OK" } else { "NOT OK" }
    );
    let baseline_v = json!({
        "converged": baseline[0].converged,
        "vcycles": baseline[0].vcycles,
        "final_residual": baseline[0].final_residual(),
    });
    json!({
        "seed": seed,
        "baseline": baseline_v,
        "transport_sweep": sweep,
        "transport_ok": sweep_ok,
        "recovery": recovery,
        "recovery_ok": recovery_ok,
        "kill": kill,
        "kill_ok": kill_ok,
        "arq_retransmits": arq_total.retransmits,
        "arq_checksum_failures": arq_total.checksum_failures,
        "arq_dedup_drops": arq_total.dedup_drops,
        "arq_metrics_table": arq_table,
        "ok": ok,
    })
}

/// Default campaign (seed 7).
pub fn run() -> Json {
    run_with_seed(7)
}

// ---------------------------------------------------------------------
// Elastic multi-process campaign (`chaos --transport process`)
// ---------------------------------------------------------------------

/// Entry body for the ranks of the elastic multi-process campaign. The
/// chaos binary's (and the test binary's) `run_child_if_spawned` hook
/// dispatches spawned children here by entry name.
#[cfg(unix)]
pub fn elastic_child(ctx: &mut gmg_comm::RankCtx, args: &str) -> String {
    let mut cfg = chaos_solver_config();
    cfg.recovery = RecoveryPolicy::Rejoin;
    let mut s = GmgSolver::new(chaos_decomp(), ctx.rank(), cfg);
    if args.contains("paced") {
        // Stretch the solve so the controller's progress-triggered
        // SIGKILL lands mid-run instead of after the finish line.
        s.phase_hook = Some(Box::new(|_cycle, _phase, _level| {
            std::thread::sleep(Duration::from_millis(8));
        }));
    }
    let st = s.solve(ctx);
    let hist: Vec<String> = st
        .residual_history
        .iter()
        .map(|r| format!("{:x}", r.to_bits()))
        .collect();
    let arq = ctx.arq_stats();
    format!(
        "{}|{}|{}|{}|{}",
        hist.join(","),
        st.rejoin_epochs,
        st.converged,
        arq.first_sends,
        arq.retransmits
    )
}

/// One rank's [`elastic_child`] result.
#[cfg(unix)]
struct ElasticResult {
    history: Vec<u64>,
    rejoin_epochs: usize,
    converged: bool,
    /// Messages this rank's reliable layer sent, and retransmissions on
    /// top of them.
    messages: u64,
    retransmits: u64,
}

#[cfg(unix)]
fn parse_elastic(result: &str) -> ElasticResult {
    let mut it = result.trim().split('|');
    let history = it
        .next()
        .unwrap_or_default()
        .split(',')
        .map(|h| u64::from_str_radix(h, 16).expect("hex residual"))
        .collect();
    let rejoin_epochs = it.next().and_then(|s| s.parse().ok()).unwrap_or(0);
    let converged = it.next() == Some("true");
    let mut count = || it.next().and_then(|s| s.parse().ok()).unwrap_or(0);
    ElasticResult {
        history,
        rejoin_epochs,
        converged,
        messages: count(),
        retransmits: count(),
    }
}

/// One multi-process solve over the UDS datagram transport, with seeded
/// packet loss at rate `loss` the ARQ layer must absorb, optionally
/// SIGKILLing `kill` once its reported progress passes V-cycle 3.
/// Verifies the per-rank histories against the thread-transport
/// `baseline` bit-for-bit, and for a kill run writes the merged flight
/// dump's postmortem naming the victim. A fault-free leg (`loss == 0`)
/// must also be nearly retransmission-free: with nothing lost, every
/// retransmission is the timer mistaking a busy peer for a lossy link.
#[cfg(unix)]
fn process_leg(
    seed: u64,
    kill: Option<usize>,
    loss: f64,
    child_args: &[&str],
    baseline: &[u64],
) -> Json {
    use gmg_comm::{ProcessWorld, SocketKind};
    let nranks = chaos_decomp().num_ranks();
    let mut world = ProcessWorld::new(nranks, "elastic")
        .transport(SocketKind::Uds)
        .args(if kill.is_some() { "paced" } else { "fast" })
        .child_args(child_args)
        .faults(FaultPlan::new(FaultConfig::lossy(loss), seed))
        .deadline(Duration::from_secs(180));
    if let Some(victim) = kill {
        world = world.kill_process_at(victim, 3);
    }
    let report = match world.run() {
        Ok(r) => r,
        Err(e) => {
            println!("  process world FAILED: {e}");
            return json!({ "seed": seed, "survived": false, "failure": e, "ok": false });
        }
    };

    let mut exact = true;
    let mut converged_all = true;
    let mut epochs: Vec<usize> = Vec::new();
    let (mut messages, mut retransmits) = (0u64, 0u64);
    for res in &report.results {
        let r = parse_elastic(res);
        exact &= r.history == baseline;
        converged_all &= r.converged;
        epochs.push(r.rejoin_epochs);
        messages += r.messages;
        retransmits += r.retransmits;
    }
    let timer_ok = loss > 0.0 || retransmits * 100 <= messages;
    let rejoined_once = report.rejoins.len() == 1
        && kill.is_some_and(|v| report.rejoins[0].rank == v)
        && epochs.iter().all(|&e| e == 1);
    let clean = kill.is_none() && report.rejoins.is_empty() && epochs.iter().all(|&e| e == 0);

    // Forensics: the merged flight dump's postmortem must name the
    // killed rank (the controller knows who it killed — authoritative).
    let mut postmortem_path = String::new();
    let mut culprit_named = kill.is_none();
    if let (Some(victim), Some(dump)) = (kill, report.flight_dump.as_ref()) {
        let ev = &report.rejoins[0];
        let cause = format!(
            "SIGKILLed by the chaos controller and rejoined at epoch {} \
             from the cycle-{} checkpoint",
            ev.epoch, ev.resume_cycle
        );
        let pm = crate::postmortem::analyze_dump_with(dump, Some((victim, &cause)));
        postmortem_path = pm["report"].as_str().unwrap_or_default().to_string();
        culprit_named = pm["ok"] == true
            && std::fs::read_to_string(&postmortem_path)
                .map(|md| md.contains(&format!("Culprit: rank {victim}")))
                .unwrap_or(false);
    }

    let ok = exact && converged_all && culprit_named && timer_ok && (clean || rejoined_once);
    println!(
        "  {}  seed {seed}: exact={exact} converged={converged_all} rejoins={} epochs={epochs:?} \
         culprit_named={culprit_named} retransmits={retransmits}/{messages} → {}",
        match (kill, loss > 0.0) {
            (Some(_), _) => "kill      ",
            (None, true) => "lossy     ",
            (None, false) => "fault-free",
        },
        report.rejoins.len(),
        if ok { "OK" } else { "NOT OK" }
    );
    json!({
        "seed": seed,
        "survived": true,
        "transport": report.transport,
        "kill_rank": kill.map_or(-1, |v| v as i64),
        "exact_match": exact,
        "converged": converged_all,
        "rejoins": report.rejoins.len(),
        "rejoin_epochs": epochs,
        "resume_cycle": report.rejoins.first().map_or(-2, |e| e.resume_cycle),
        "culprit_named": culprit_named,
        "postmortem": postmortem_path,
        "messages": messages,
        "retransmits": retransmits,
        "ok": ok,
    })
}

/// The elastic multi-process campaign: every rank is a real OS process
/// on the UDS datagram transport. One run is fault-free (and must
/// retransmit at most 1 % of its messages), one runs under seeded packet
/// loss, and with `kill` one rank is SIGKILLed mid-solve, respawned, and
/// rejoined from its durable checkpoints. Every run must reproduce the
/// thread-transport baseline bit-for-bit.
#[cfg(unix)]
pub fn run_process_campaign(seed: u64, kill: Option<usize>) -> Json {
    run_process_campaign_with(seed, kill, &[])
}

/// [`run_process_campaign`] with explicit child argv (the in-crate test
/// harness must pass a libtest filter so spawned copies of the test
/// binary land in their entry hook instead of running the whole suite).
#[cfg(unix)]
pub fn run_process_campaign_with(seed: u64, kill: Option<usize>, child_args: &[&str]) -> Json {
    crate::report::heading(&format!(
        "Chaos — elastic multi-process campaign (base seed {seed})"
    ));

    // Thread-transport ground truth: under Rejoin without a membership
    // world the same config is a plain solve.
    let mut cfg = chaos_solver_config();
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

    const LOSS: f64 = 0.005;
    println!(
        "process transport (uds datagrams, thread equivalence; fault-free, then seeded loss):"
    );
    let fault_free = process_leg(seed, None, 0.0, child_args, &base_hist);
    let clean = process_leg(seed, None, LOSS, child_args, &base_hist);
    let kill_leg = kill.map(|v| {
        println!("\nprocess kill + checkpoint rejoin (SIGKILL rank {v} at V-cycle 3):");
        process_leg(seed, Some(v), LOSS, child_args, &base_hist)
    });

    let ok = fault_free["ok"] == true
        && clean["ok"] == true
        && kill_leg.as_ref().map_or(true, |k| k["ok"] == true);
    println!(
        "\nprocess chaos verdict: fault-free={} clean={} kill={} → {}",
        fault_free["ok"],
        clean["ok"],
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
        "fault_free": fault_free,
        "clean": clean,
        "kill": kill_leg.unwrap_or(Json::Null),
        "ok": ok,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lossy_transport_reproduces_baseline_exactly() {
        let cfg = chaos_solver_config();
        let baseline = baseline_solve(cfg);
        let hist = &baseline[0].residual_history;
        let v = transport_run(0.01, 42, cfg, hist, &mut [ArqStats::default(); 8]);
        assert_eq!(v["survived"], true, "{v}");
        assert_eq!(v["exact_match"], true, "{v}");
        assert_eq!(v["converged"], true, "{v}");
    }

    #[test]
    fn rollback_recovery_demo_converges() {
        let v = recovery_run(5, &mut [ArqStats::default(); 8]);
        assert_eq!(v["survived"], true, "{v}");
        assert_eq!(v["converged"], true, "{v}");
        assert!(v["recoveries"].as_u64().unwrap() >= 1, "{v}");
        assert_eq!(v["ranks_agree"], true, "{v}");
    }

    #[test]
    fn killed_rank_yields_structured_report() {
        let v = kill_run(11);
        assert_eq!(v["structured_failure"], true, "{v}");
        assert_eq!(v["killed_rank_reported"], true, "{v}");
    }

    #[cfg(unix)]
    const CHILD_ARGS: &[&str] = &["chaos_child_entry", "--test-threads=1", "--nocapture"];

    /// The hook a spawned copy of this test binary lands in (the process
    /// controller passes a libtest filter selecting exactly this test).
    /// In a normal run it is an instant no-op.
    #[cfg(unix)]
    #[test]
    fn chaos_child_entry() {
        gmg_comm::process::run_child_if_spawned(|entry, mut ctx, args| match entry {
            "elastic" => elastic_child(&mut ctx, args),
            other => panic!("unknown chaos process entry {other:?}"),
        });
    }

    /// The milestone's acceptance demo end to end: real processes over
    /// datagrams with seeded loss, SIGKILL rank 3 mid-solve, respawn +
    /// checkpoint rejoin, bit-identical history vs the thread world, and
    /// a merged-flight postmortem naming the killed rank.
    #[cfg(unix)]
    #[test]
    fn process_campaign_kill_and_rejoin_names_culprit() {
        let v = run_process_campaign_with(3, Some(3), CHILD_ARGS);
        assert_eq!(v["ok"], true, "{v}");
        assert_eq!(v["fault_free"]["exact_match"], true, "{v}");
        let ff = &v["fault_free"];
        assert!(
            ff["retransmits"].as_u64().unwrap() * 100 <= ff["messages"].as_u64().unwrap(),
            "{v}"
        );
        assert_eq!(v["clean"]["exact_match"], true, "{v}");
        assert!(v["clean"]["retransmits"].as_u64().unwrap() > 0, "{v}");
        let kill = &v["kill"];
        assert_eq!(kill["exact_match"], true, "{v}");
        assert_eq!(kill["rejoins"].as_u64(), Some(1), "{v}");
        assert_eq!(kill["culprit_named"], true, "{v}");
        let pm = std::path::PathBuf::from(kill["postmortem"].as_str().unwrap());
        let md = std::fs::read_to_string(&pm).unwrap();
        assert!(md.contains("Culprit: rank 3"), "{md}");
        if let Some(dir) = pm.parent() {
            let _ = std::fs::remove_dir_all(dir);
        }
    }

    /// The one-pass smoother must compose with checkpoint / rollback
    /// recovery: under the same seeded silent corruption and lossy
    /// transport, the default communication-avoiding schedule and the
    /// exchange-every-smooth split schedule both trip the health guards,
    /// both recover, and — because the two are bit-identical — leave
    /// identical residual histories.
    #[test]
    fn one_pass_smoothing_composes_with_rollback_recovery() {
        let run = |communication_avoiding: bool| {
            let mut cfg = chaos_solver_config();
            cfg.recovery = RecoveryPolicy::Rollback;
            cfg.max_vcycles = 25;
            cfg.communication_avoiding = communication_avoiding;
            let plan = FaultPlan::new(FaultConfig::lossy(0.01), 7);
            let decomp = chaos_decomp();
            let d = &decomp;
            RankWorld::run_with_faults(decomp.num_ranks(), &plan, move |mut ctx| {
                let mut s = GmgSolver::new(d.clone(), ctx.rank(), cfg);
                let rank = ctx.rank();
                s.fault_hook = Some(Box::new(move |cycle, level| {
                    if cycle == 2 && rank == 3 {
                        let old = level.x.clone();
                        level.x =
                            BrickedField::from_fn(level.layout.clone(), move |p| old.get(p) * 1e9);
                    }
                }));
                s.solve(&mut ctx)
            })
            .expect("world survives the corruption")
        };
        let one_pass = run(true);
        let split = run(false);
        for (f, s) in one_pass.iter().zip(&split) {
            assert!(f.converged && s.converged, "both schedules must converge");
            assert!(
                f.recoveries >= 1 && s.recoveries >= 1,
                "both schedules must roll back at least once"
            );
            assert_eq!(
                f.residual_history, s.residual_history,
                "one-pass and split recovery histories must be bit-identical"
            );
        }
    }
}
