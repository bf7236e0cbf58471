//! Scaling observatory: gated 10k-rank weak/strong-scaling reports from
//! the `gmg-scale` schedule simulator.
//!
//! The campaign:
//!
//! 1. **Weak sweep** (clock-only): the observatory per-rank problem at a
//!    ladder of rank counts up to the headline, parallel efficiency per
//!    point.
//! 2. **Model fit**: least-squares alpha–beta+contention fit
//!    ([`gmg_scale::fit_scaling_model`]) over the sweep — relative RMS
//!    misfit must stay ≤ 10% or the observatory is lying about its own
//!    cost model. A ladder too short to fit (a small headline) skips
//!    this gate and says so in the report.
//! 3. **Strong sweep** (clock-only): a fixed global problem divided ever
//!    finer.
//! 4. **Flight-grade attribution** at the headline rank count
//!    ([`RecordMode::Events`]): synthetic rank logs rebuilt into one
//!    trace (the path a crash dump takes into `analyze`) and through the *production*
//!    wait classifier — classified wait fraction must be ≥ 90% — plus
//!    the planted-slowdown self-test in both polarities: a clean run must
//!    flag nothing, an injected `LEVEL:PCT` run must flag exactly that
//!    level. Both are exit-code-enforced.
//! 5. **Window forensics**: the headline trace filtered to the
//!    configured rank window and every rank it waited on, its critical
//!    path over the messages that trace joins, per-window-rank
//!    utilization via [`gmg_trace::Trace::rank_window`], and a Perfetto
//!    timeline with cross-rank flow arrows.
//! 6. **CPU-offload ablation**: per-level time decomposition all-GPU vs
//!    host-offloaded coarse levels, naming the crossover level.
//!
//! Artifacts: `results/scaling_report.md`, `results/scaling.json`,
//! `results/scaling_window_trace.json`.
//!
//! Run: `cargo run --release -p gmg-bench --bin scaling`
//! (`--ranks N`, `--system S`, `--inject-slowdown LEVEL:PCT`,
//! `--window A:B`).

use gmg_machine::gpu::System;
use gmg_machine::CpuModel;
use gmg_metrics::analysis::{
    classify_waits, critical_path, imbalance_from_seconds, utilization, WaitAnalysis, WaitClass,
};
use gmg_scale::{fit_scaling_model, simulate, RecordMode, ScaleConfig, ScaleResult, SweepPoint};
use gmg_trace::{json, Json, Trace};
use std::path::Path;

/// Attribution threshold on per-level compute excess over the analytic
/// prediction (fractional). Jitter is symmetric, so a clean run sits at
/// ~0 excess; the default planted slowdown (30%) clears it 3× over.
pub const FLAG_THRESHOLD: f64 = 0.08;
/// Gate: classified wait fraction at the headline rank count.
pub const MIN_CLASSIFIED: f64 = 0.90;
/// Gate: relative RMS misfit of the scaling-model fit.
pub const MAX_FIT_ERR: f64 = 0.10;
/// Why a weak sweep gets no model fit: the fit's three coefficients
/// need three sweep points at independent scales.
const NO_FIT: &str = "too few scales to fit";
/// The report and the rank-window trace, in the output directory. The
/// JSON summary names them relative to it, so a rerun anywhere writes
/// the same bytes.
const REPORT: &str = "scaling_report.md";
const WINDOW_TRACE: &str = "scaling_window_trace.json";

/// Campaign options (the binary's command line).
#[derive(Clone, Debug)]
pub struct ScalingOpts {
    /// Headline rank count — the attribution runs and the top of the
    /// weak sweep.
    pub ranks: usize,
    pub system: System,
    /// Planted per-level slowdown for the positive polarity
    /// (`LEVEL:PCT`); the clean negative control always runs too.
    pub inject: (usize, f64),
    /// Rank window `[lo, hi)` for the Perfetto/critical-path forensics.
    pub window: (usize, usize),
}

impl Default for ScalingOpts {
    fn default() -> Self {
        ScalingOpts {
            ranks: 10_648, // 22³
            system: System::Perlmutter,
            inject: (2, 30.0),
            window: (0, 8),
        }
    }
}

/// Weak-sweep ladder: observatory-preset points up to (and including)
/// the headline rank count.
fn weak_ladder(headline: usize) -> Vec<usize> {
    let mut pts: Vec<usize> = [8usize, 64, 512, 1_000, 4_096, 10_648, 32_768, 104_976]
        .iter()
        .copied()
        .filter(|&r| r < headline)
        .collect();
    pts.push(headline);
    pts
}

fn weak_config(opts: &ScalingOpts, ranks: usize) -> ScaleConfig {
    ScaleConfig::observatory(opts.system, ranks)
}

/// Event-mode config for the attribution / forensics runs: one V-cycle
/// keeps the 10k-rank event volume laptop-sized (comm events on every
/// rank, compute spans only inside the window).
fn event_config(opts: &ScalingOpts, ranks: usize) -> ScaleConfig {
    let mut cfg = ScaleConfig::observatory(opts.system, ranks);
    cfg.vcycles = 1;
    cfg.record = RecordMode::Events;
    cfg.window = (opts.window.0.min(ranks), opts.window.1.min(ranks));
    cfg
}

/// One wait-attribution run: simulate with events, rebuild the logs
/// into one trace, classify every wait.
struct Attribution {
    ranks: usize,
    result: ScaleResult,
    trace: Trace,
    waits: WaitAnalysis,
}

fn attribute(cfg: &ScaleConfig) -> Attribution {
    let mut result = simulate(cfg);
    // The logs are dropped once rebuilt: the trace is all that is read.
    let trace = gmg_flight::rebuild_trace(&result.logs.take().unwrap_or_default());
    let waits = classify_waits(&trace);
    Attribution {
        ranks: cfg.ranks,
        result,
        trace,
        waits,
    }
}

fn pct(x: f64) -> String {
    format!("{:.1}%", 100.0 * x)
}

/// Markdown + JSON of the whole campaign, with the report and the
/// rank-window trace written under `dir`. `ok` in the returned JSON is
/// the AND of every gate.
pub fn run_in(dir: &Path, opts: &ScalingOpts) -> Json {
    crate::report::heading(&format!(
        "scaling observatory — {:?}, headline {} ranks",
        opts.system, opts.ranks
    ));
    let mut md = String::new();
    md.push_str(&format!(
        "# Scaling observatory — {:?}, {} ranks headline\n\n",
        opts.system, opts.ranks
    ));
    let base = weak_config(opts, 1);
    md.push_str(&format!(
        "Per-rank problem {}³ × {} levels, {} + {} smooths, {} V-cycles, \
         communication-avoiding: {}. Contention: Slingshot-class \
         (radix-{} switches, {} ranks/node).\n\n",
        base.sub_extent.x,
        base.num_levels,
        base.smooths_per_level,
        base.bottom_smooths,
        base.vcycles,
        base.communication_avoiding,
        base.contention.switch_radix,
        base.ranks_per_node,
    ));

    // ---- 1. weak sweep (clock-only) -----------------------------------
    let ladder = weak_ladder(opts.ranks);
    println!("weak sweep over {ladder:?} ranks ...");
    let weak: Vec<ScaleResult> = ladder
        .iter()
        .map(|&r| simulate(&weak_config(opts, r)))
        .collect();
    let sweep: Vec<SweepPoint> = weak
        .iter()
        .map(|r| SweepPoint {
            ranks: r.ranks,
            nodes: r.nodes,
            seconds: r.per_vcycle_seconds,
        })
        .collect();

    // ---- 2. model fit --------------------------------------------------
    let contention = base.contention.clone();
    let fit = fit_scaling_model(&sweep, &contention);
    let fit_ok = fit.as_ref().is_none_or(|f| f.rel_rms_err <= MAX_FIT_ERR);
    let fit_verdict = if fit.is_none() {
        "SKIP"
    } else if fit_ok {
        "PASS"
    } else {
        "FAIL"
    };
    let fit_err = fit
        .as_ref()
        .map_or(NO_FIT.to_string(), |f| pct(f.rel_rms_err));

    md.push_str("## Weak scaling (fixed per-rank problem)\n\n");
    md.push_str(
        "| ranks | nodes | grid | s/V-cycle | efficiency | model s/V-cycle | model eff |\n\
         |---|---|---|---|---|---|---|\n",
    );
    let base_pt = sweep[0];
    for (i, r) in weak.iter().enumerate() {
        let (model_s, model_eff) = fit.as_ref().map_or(("—".into(), "—".into()), |f| {
            (
                format!("{:.6}", f.predicted[i]),
                pct(f.predicted_weak_efficiency(&base_pt, &sweep[i], &contention)),
            )
        });
        md.push_str(&format!(
            "| {} | {} | {}×{}×{} | {:.6} | {} | {model_s} | {model_eff} |\n",
            r.ranks,
            r.nodes,
            r.grid[0],
            r.grid[1],
            r.grid[2],
            r.per_vcycle_seconds,
            pct(r.weak_efficiency(&weak[0])),
        ));
    }
    md.push_str(&match &fit {
        Some(f) => format!(
            "\nFit `t = α + σ·stages + τ·log₂ranks`: α = {:.3e} s, σ = {:.3e} s/stage, \
             τ = {:.3e} s/level; relative RMS misfit {fit_err} (gate ≤ {}) → **{fit_verdict}**\n\n",
            f.alpha_s,
            f.per_stage_s,
            f.per_tree_level_s,
            pct(MAX_FIT_ERR),
        ),
        None => format!(
            "\nNo model fit: {NO_FIT} ({} sweep points; `t = α + σ·stages + τ·log₂ranks` \
             needs three at independent scales) → **{fit_verdict}**\n\n",
            sweep.len(),
        ),
    });

    // ---- 3. strong sweep (fixed global problem) ------------------------
    // The headline's global problem divided ever finer: per-rank extent
    // halves as ranks grow 8×. Levels are clamped so the coarsest extent
    // stays ≥ 2 cells on the smallest subdomain.
    println!("strong sweep ...");
    let strong_ranks: Vec<usize> = [64usize, 512, 4_096]
        .iter()
        .copied()
        .filter(|&r| r <= opts.ranks)
        .collect();
    let strong: Vec<ScaleResult> = strong_ranks
        .iter()
        .enumerate()
        .map(|(i, &r)| {
            let mut cfg = weak_config(opts, r);
            // 64 ranks at 64³ = a 256³ global problem, held fixed.
            cfg.sub_extent = gmg_mesh::Point3::splat(64 >> i);
            cfg.num_levels = (4 - i).max(2);
            simulate(&cfg)
        })
        .collect();
    md.push_str("## Strong scaling (fixed 256³ global problem)\n\n");
    md.push_str(
        "| ranks | cells/rank | s/V-cycle | speedup | efficiency |\n|---|---|---|---|---|\n",
    );
    for r in &strong {
        md.push_str(&format!(
            "| {} | {} | {:.6} | {:.2}× | {} |\n",
            r.ranks,
            r.levels[0].cells_per_rank,
            r.per_vcycle_seconds,
            strong[0].total_seconds / r.total_seconds,
            pct(r.strong_efficiency(&strong[0])),
        ));
    }
    md.push('\n');

    // ---- 4. wait attribution across the ladder + polarity self-test ----
    let event_ranks: Vec<usize> = [64usize, 1_000]
        .iter()
        .copied()
        .filter(|&r| r < opts.ranks)
        .chain(std::iter::once(opts.ranks))
        .collect();
    println!("event-mode attribution at {event_ranks:?} ranks ...");
    let attrs: Vec<Attribution> = event_ranks
        .iter()
        .map(|&r| attribute(&event_config(opts, r)))
        .collect();
    let headline = attrs.last().expect("at least one attribution run");
    let classified = headline.waits.total.classified_fraction();
    let classified_ok = classified >= MIN_CLASSIFIED;

    md.push_str("## Wait-state attribution vs scale\n\n");
    md.push_str(
        "| ranks | total wait (s/rank) | late-sender | late-recv | arq-stall | starvation | classified |\n\
         |---|---|---|---|---|---|---|\n",
    );
    for a in &attrs {
        let t = &a.waits.total;
        let total_ns = t.total_ns().max(1);
        let share = |c| t.class_ns(c) as f64 / total_ns as f64;
        use WaitClass::*;
        md.push_str(&format!(
            "| {} | {:.6} | {} | {} | {} | {} | {} |\n",
            a.ranks,
            t.total_ns() as f64 / 1e9 / a.ranks as f64,
            pct(share(LateSender)),
            pct(share(LateReceiver)),
            pct(share(ArqStall)),
            pct(share(Starvation)),
            pct(t.classified_fraction()),
        ));
    }
    md.push_str(&format!(
        "\nHeadline classified fraction {} (gate ≥ {}) → **{}**\n\n",
        pct(classified),
        pct(MIN_CLASSIFIED),
        if classified_ok { "PASS" } else { "FAIL" },
    ));

    // Injection polarity: the clean headline run is the negative control;
    // the positive run plants `inject` and must flag exactly that level.
    let clean_flagged = headline.result.flagged_levels(FLAG_THRESHOLD);
    let clean_ok = clean_flagged.is_empty();
    let (inj_level, inj_pct) = opts.inject;
    println!("planted-slowdown polarity check (level {inj_level}, {inj_pct}%) ...");
    let mut hot_cfg = event_config(opts, opts.ranks);
    hot_cfg.record = RecordMode::ClockOnly; // attribution is clock math
    hot_cfg.inject_slowdown = Some((inj_level, inj_pct));
    let hot = simulate(&hot_cfg);
    let hot_flagged = hot.flagged_levels(FLAG_THRESHOLD);
    let inject_ok = hot_flagged == vec![inj_level];
    md.push_str("## Attribution self-test (planted slowdown)\n\n");
    md.push_str(&format!(
        "- clean run flags {:?} (must be empty) → **{}**\n\
         - `--inject-slowdown {inj_level}:{inj_pct}` flags {:?} (must be exactly [{inj_level}]) → **{}**\n\n",
        clean_flagged,
        if clean_ok { "PASS" } else { "FAIL" },
        hot_flagged,
        if inject_ok { "PASS" } else { "FAIL" },
    ));

    // ---- per-level decomposition + imbalance at the headline -----------
    md.push_str(&format!(
        "## Per-level time decomposition at {} ranks\n\n",
        opts.ranks
    ));
    md.push_str(
        "| level | cells/rank | compute s | predicted s | exchange s | exchanges |\n\
         |---|---|---|---|---|---|\n",
    );
    for l in &headline.result.levels {
        md.push_str(&format!(
            "| {} | {} | {:.6} | {:.6} | {:.6} | {} |\n",
            l.level,
            l.cells_per_rank,
            l.compute_mean_s,
            l.compute_predicted_s,
            l.exchange_mean_s,
            l.exchanges,
        ));
    }
    md.push_str(&format!(
        "\nallreduce {:.6} s/rank · receive waits {:.6} s/rank · aggregate {:.2} GStencil/s\n\n",
        headline.result.allreduce_mean_s,
        headline.result.wait_mean_s,
        headline.result.gstencil_per_s,
    ));

    let imb = imbalance_from_seconds(headline.result.imbalance_rows(), headline.result.ranks);
    md.push_str("### Worst cross-rank imbalance (top 5)\n\n");
    md.push_str("| level | op | mean s | max s | factor | max rank |\n|---|---|---|---|---|---|\n");
    let mut by_factor = imb.clone();
    by_factor.sort_by(|a, b| b.factor.partial_cmp(&a.factor).unwrap());
    for r in by_factor.iter().take(5) {
        md.push_str(&format!(
            "| {} | {} | {:.6} | {:.6} | {:.3} | {} |\n",
            r.level, r.op, r.mean_s, r.max_s, r.factor, r.max_rank
        ));
    }
    md.push('\n');

    // ---- 5. window forensics through the crash-dump analysis pipes ------
    let (wlo, whi) = (opts.window.0.min(opts.ranks), opts.window.1.min(opts.ranks));
    println!("window forensics over ranks {wlo}..{whi} ...");
    // The window's critical path needs sender context: the window ranks
    // plus every rank a window rank waited on.
    let mut keep: std::collections::BTreeSet<usize> = (wlo..whi).collect();
    keep.extend(
        headline
            .waits
            .samples
            .iter()
            .filter(|s| (wlo..whi).contains(&s.rank))
            .filter_map(|s| s.peer),
    );
    let trace = Trace {
        events: headline
            .trace
            .events
            .iter()
            .filter(|e| keep.contains(&e.rank))
            .cloned()
            .collect(),
        ..Trace::default()
    };
    let window_joins = trace.messages().len();
    let path = critical_path(&trace);
    // Utilization over the pure window (peers carry no compute spans and
    // would read as idle).
    let util = utilization(&trace.rank_window(wlo, whi));
    crate::report::save_raw_in(dir, WINDOW_TRACE, &trace.to_chrome_string());
    md.push_str(&format!("## Rank-window forensics ({wlo}..{whi})\n\n"));
    md.push_str(&format!(
        "{} ranks in view ({} window + {} message peers), {} events, \
         {} exact message edges, critical-path coverage {}.\n\n",
        keep.len(),
        whi - wlo,
        keep.len() - (whi - wlo),
        trace.events.len(),
        window_joins,
        pct(path.coverage),
    ));
    md.push_str("| rank | compute | comm | idle |\n|---|---|---|---|\n");
    for u in &util {
        let extent = (u.compute_s + u.comm_s + u.idle_s).max(1e-30);
        md.push_str(&format!(
            "| {} | {} | {} | {} |\n",
            u.rank,
            pct(u.compute_s / extent),
            pct(u.comm_s / extent),
            pct(u.idle_s / extent),
        ));
    }
    md.push_str("\nCritical-path op totals (top 8):\n\n| op | seconds |\n|---|---|\n");
    for (op, secs) in path.op_totals.iter().take(8) {
        md.push_str(&format!("| {op} | {secs:.6} |\n"));
    }
    md.push_str(&format!(
        "\nPerfetto timeline with flow arrows: `{WINDOW_TRACE}`\n\n"
    ));

    // ---- 6. CPU-offload ablation ---------------------------------------
    println!("cpu-offload ablation ...");
    let gpu_cfg = {
        let mut c = weak_config(opts, opts.ranks);
        c.vcycles = 1;
        c.jitter_pct = 0.0;
        c.loss_rate = 0.0;
        c
    };
    let mut off_cfg = gpu_cfg.clone();
    off_cfg.cpu_offload_below_cells = Some(16 * 16 * 16);
    let gpu_run = simulate(&gpu_cfg);
    let off_run = simulate(&off_cfg);
    let mut crossover: Option<usize> = None;
    md.push_str("## Coarse-level CPU offload ablation\n\n");
    md.push_str(
        "| level | cells/rank | all-GPU s | offload s | where | faster |\n\
         |---|---|---|---|---|---|\n",
    );
    for (g, o) in gpu_run.levels.iter().zip(&off_run.levels) {
        let gt = g.compute_mean_s + g.exchange_mean_s;
        let ot = o.compute_mean_s + o.exchange_mean_s;
        let on_cpu = CpuModel::offloads(off_cfg.cpu_offload_below_cells, g.cells_per_rank);
        if on_cpu && ot < gt && crossover.is_none() {
            crossover = Some(g.level);
        }
        md.push_str(&format!(
            "| {} | {} | {:.6} | {:.6} | {} | {} |\n",
            g.level,
            g.cells_per_rank,
            gt,
            ot,
            if on_cpu { "host" } else { "device" },
            if ot < gt { "offload" } else { "all-GPU" },
        ));
    }
    md.push_str(&match crossover {
        Some(l) => format!(
            "\nOffload wins from level {l} down: kernel-launch overhead \
             dominates device time at coarse extents, and the host comm \
             path skips staging.\n\n"
        ),
        None => "\nOffload never wins at this scale/config.\n\n".to_string(),
    });

    // ---- verdict --------------------------------------------------------
    let ok = fit_ok && classified_ok && clean_ok && inject_ok;
    md.push_str(&format!(
        "## Verdict\n\n\
         | gate | value | bar | result |\n|---|---|---|---|\n\
         | model fit rel RMS | {fit_err} | ≤ {} | {fit_verdict} |\n\
         | classified waits @ {} ranks | {} | ≥ {} | {} |\n\
         | clean run flags | {:?} | empty | {} |\n\
         | injected run flags | {:?} | [{}] | {} |\n\n**{}**\n",
        pct(MAX_FIT_ERR),
        opts.ranks,
        pct(classified),
        pct(MIN_CLASSIFIED),
        if classified_ok { "PASS" } else { "FAIL" },
        clean_flagged,
        if clean_ok { "PASS" } else { "FAIL" },
        hot_flagged,
        inj_level,
        if inject_ok { "PASS" } else { "FAIL" },
        if ok {
            "SCALING GATES PASS"
        } else {
            "SCALING GATES FAIL"
        },
    ));
    let md_path = crate::report::save_raw_in(dir, REPORT, &md);
    println!("{md}");
    println!("[report: {md_path:?}]");

    // JSON summary.
    let weak_rows: Vec<Json> = weak
        .iter()
        .enumerate()
        .map(|(i, r)| {
            json!({
                "ranks": r.ranks,
                "nodes": r.nodes,
                "per_vcycle_s": r.per_vcycle_seconds,
                "efficiency": r.weak_efficiency(&weak[0]),
                "model_per_vcycle_s": fit.as_ref().map_or(Json::Null, |f| f.predicted[i].into()),
                "sim_events": r.sim_events,
            })
        })
        .collect();
    let strong_rows: Vec<Json> = strong
        .iter()
        .map(|r| {
            json!({
                "ranks": r.ranks,
                "cells_per_rank": r.levels[0].cells_per_rank,
                "per_vcycle_s": r.per_vcycle_seconds,
                "efficiency": r.strong_efficiency(&strong[0]),
            })
        })
        .collect();
    let wait_rows: Vec<Json> = attrs
        .iter()
        .map(|a| {
            json!({
                "ranks": a.ranks,
                "classified_fraction": a.waits.total.classified_fraction(),
                "total_wait_s": a.waits.total.total_ns() as f64 / 1e9,
                "message_edges": a.waits.joined,
            })
        })
        .collect();
    let level_rows: Vec<Json> = headline
        .result
        .levels
        .iter()
        .map(|l| {
            json!({
                "level": l.level,
                "cells_per_rank": l.cells_per_rank,
                "compute_s": l.compute_mean_s,
                "predicted_s": l.compute_predicted_s,
                "exchange_s": l.exchange_mean_s,
            })
        })
        .collect();
    let fit_v = match &fit {
        Some(f) => json!({
            "alpha_s": f.alpha_s,
            "per_stage_s": f.per_stage_s,
            "per_tree_level_s": f.per_tree_level_s,
            "rel_rms_err": f.rel_rms_err,
            "pass": fit_ok,
        }),
        None => json!({ "skipped": NO_FIT, "pass": fit_ok }),
    };
    let gates = json!({
        "fit_ok": fit_ok,
        "classified_ok": classified_ok,
        "clean_ok": clean_ok,
        "inject_ok": inject_ok,
    });
    let window_v = json!({
        "lo": wlo,
        "hi": whi,
        "ranks_in_view": keep.len(),
        "trace_events": trace.events.len(),
        "message_edges": window_joins,
        "path_coverage": path.coverage,
        "trace": WINDOW_TRACE,
    });
    json!({
        "ok": ok,
        "system": format!("{:?}", opts.system),
        "ranks": opts.ranks,
        "classified_fraction": classified,
        "clean_flagged": clean_flagged,
        "injected_flagged": hot_flagged,
        "inject_level": inj_level,
        "inject_pct": inj_pct,
        "crossover_level": crossover.map(|l| l as i64).unwrap_or(-1),
        "fit": fit_v,
        "gates": gates,
        "weak": weak_rows,
        "strong": strong_rows,
        "waits": wait_rows,
        "levels": level_rows,
        "window": window_v,
        "report": REPORT,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Laptop-sized campaign options: headline 512 ranks exercises every
    /// stage (sweep, fit, attribution, window, ablation) in well under a
    /// second of simulated-event volume.
    fn tiny_opts() -> ScalingOpts {
        ScalingOpts {
            ranks: 512,
            ..ScalingOpts::default()
        }
    }

    /// A fresh directory of this test's own, so parallel tests never
    /// overwrite (or read back) each other's report.
    fn test_dir(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("gmg_scaling_{name}"));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn campaign_passes_all_gates_at_small_scale() {
        let dir = test_dir("campaign");
        let v = run_in(&dir, &tiny_opts());
        assert_eq!(v["ok"], true, "{v}");
        assert_eq!(v["gates"]["fit_ok"], true, "{v}");
        assert_eq!(v["gates"]["classified_ok"], true, "{v}");
        assert_eq!(v["gates"]["clean_ok"], true, "{v}");
        assert_eq!(v["gates"]["inject_ok"], true, "{v}");
        assert!(v["classified_fraction"].as_f64().unwrap() >= MIN_CLASSIFIED);
        // The weak sweep covers the ladder up to the headline.
        let weak = v["weak"].as_arr().unwrap();
        assert!(weak.len() >= 3);
        assert_eq!(weak.last().unwrap()["ranks"].as_u64(), Some(512));
        // The report exists under the given directory and carries the
        // verdict.
        let report = dir.join(v["report"].as_str().unwrap());
        assert_eq!(report, dir.join("scaling_report.md"));
        let md = std::fs::read_to_string(report).unwrap();
        assert!(md.contains("SCALING GATES PASS"), "{md}");
        assert!(md.contains("## Rank-window forensics"));
        // The window trace is Perfetto JSON: one `X` event per span with
        // its pid, tid, ts, dur and args, one `s` / `f` arrow pair per join.
        let text =
            std::fs::read_to_string(dir.join(v["window"]["trace"].as_str().unwrap())).unwrap();
        let doc = Json::parse(&text).expect("window trace parses");
        let events = doc["traceEvents"].as_arr().unwrap();
        let phase = |ph: &'static str| events.iter().filter(move |e| e["ph"].as_str() == Some(ph));
        assert_eq!(
            phase("X").count() as u64,
            v["window"]["trace_events"].as_u64().unwrap()
        );
        for x in phase("X") {
            for key in ["pid", "tid", "ts", "dur"] {
                assert!(x[key].as_f64().is_some(), "{key} missing: {x}");
            }
            assert!(matches!(x["args"], Json::Obj(_)), "{x}");
        }
        let joins = v["window"]["message_edges"].as_u64().unwrap();
        assert!(joins > 0);
        assert_eq!(
            (phase("s").count() as u64, phase("f").count() as u64),
            (joins, joins)
        );
    }

    /// At 64 ranks the weak ladder is two points: the fit gate is skipped
    /// with its reason, and every other gate still runs and passes.
    #[test]
    fn a_ladder_too_short_to_fit_skips_only_the_fit_gate() {
        let dir = test_dir("short_ladder");
        let opts = ScalingOpts {
            ranks: 64,
            ..ScalingOpts::default()
        };
        let v = run_in(&dir, &opts);
        assert_eq!(v["ok"], true, "{v}");
        assert_eq!(v["fit"]["skipped"].as_str(), Some(NO_FIT), "{v}");
        assert_eq!(v["gates"]["classified_ok"], true, "{v}");
        assert_eq!(v["gates"]["clean_ok"], true, "{v}");
        assert_eq!(v["gates"]["inject_ok"], true, "{v}");
        assert!(v["weak"].as_arr().unwrap().len() < 3);
        let md = std::fs::read_to_string(dir.join(v["report"].as_str().unwrap())).unwrap();
        assert!(md.contains(NO_FIT) && md.contains("SKIP"), "{md}");
        assert!(md.contains("SCALING GATES PASS"), "{md}");
    }

    #[test]
    fn wrong_level_injection_does_not_satisfy_the_gate() {
        // The polarity check must compare the flagged *set*, not just
        // non-emptiness: plant level 1 but expect level 3.
        let mut opts = tiny_opts();
        opts.inject = (1, 30.0);
        let v = run_in(&test_dir("wrong_level"), &opts);
        assert_eq!(v["gates"]["inject_ok"], true);
        let flagged = v["injected_flagged"].as_arr().unwrap();
        assert_eq!(flagged.len(), 1);
        assert_eq!(flagged[0].as_u64(), Some(1));
    }
}
