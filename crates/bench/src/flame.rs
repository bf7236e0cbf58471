//! flame — the kernel efficiency observatory.
//!
//! Runs the perfgate hot kernels (bricked applyOp, array applyOp, fused
//! multi-smooth) under a gmg-prof sampling session, writes the folded
//! flamegraph stacks (`results/flame.folded`) and the kernel efficiency
//! report (`results/efficiency.md`), and gates on two self-checks:
//!
//! * **Consistency** — the sampled wall share of each kernel's root phase
//!   must agree with the gmg-trace span share recorded around the same
//!   invocations (tolerance stated in the report).
//! * **Coverage** — ≥ `min_coverage` of the bricked applyOp's samples
//!   must land in a *named* sub-phase (`interior`, `index`), so the gap
//!   decomposition actually decomposes. (The row-streamed kernel folded
//!   the old `brick_boundary` pass into `interior`.)
//!
//! `--inject-slowdown PHASE:PCT` is the attribution self-test: deliberately
//! stretch one phase, re-run, and require that exactly that phase dominates
//! the share diff — a profiler that cannot see a planted regression cannot
//! be trusted on a real one. Exit nonzero on misattribution.
//!
//! Run: `cargo run --release -p gmg-bench --bin flame`.

use gmg_brick::{BrickLayout, BrickOrdering, BrickedField};
use gmg_mesh::{Array3, Box3, Point3};
use gmg_metrics::MachineEnvelope;
use gmg_prof::{KernelReport, Profile};
use gmg_stencil::exec_array::apply_star7_array;
use gmg_stencil::exec_brick::apply_star7_bricked;
use gmg_stencil::exec_fused::fused_multismooth_bricked;
use gmg_trace::Track;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Options for the flame harness (the binary's command line).
#[derive(Clone, Debug)]
pub struct FlameOpts {
    /// Fine-grid cube side for the kernels.
    pub grid: i64,
    /// Target sampling time per kernel, seconds.
    pub seconds_per_kernel: f64,
    /// Sampling interval, microseconds.
    pub interval_us: u64,
    /// Attribution self-test: slow every phase containing the pattern by
    /// the given percentage and require it to dominate the report diff.
    pub inject: Option<(String, f64)>,
    /// Minimum fraction of bricked-applyOp samples that must land in a
    /// named sub-phase.
    pub min_coverage: f64,
}

impl Default for FlameOpts {
    fn default() -> Self {
        Self {
            grid: 96,
            seconds_per_kernel: 0.6,
            interval_us: 200,
            inject: None,
            min_coverage: 0.90,
        }
    }
}

/// One sampled pass over the three kernels.
pub struct FlamePass {
    pub profile: Profile,
    pub kernels: Vec<KernelReport>,
}

fn median(samples: &mut [f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples.sort_by(f64::total_cmp);
    samples[samples.len() / 2]
}

/// Repeat `call` for ~`seconds`, recording one gmg-trace span per
/// invocation under `root` so the trace and the sampler observe the same
/// window. Returns per-call seconds.
fn drive(seconds: f64, root: &'static str, mut call: impl FnMut()) -> Vec<f64> {
    let mut secs = Vec::new();
    let start = Instant::now();
    loop {
        let span = gmg_trace::span(0, 0, root, Track::Compute);
        call();
        secs.push(span.finish());
        if start.elapsed().as_secs_f64() >= seconds {
            return secs;
        }
    }
}

fn init_x(p: Point3) -> f64 {
    ((p.x * 7 + p.y * 3 - p.z * 5).rem_euclid(13)) as f64 * 0.125
}

fn init_b(p: Point3) -> f64 {
    ((p.x * 2 - p.y * 5 + p.z * 11).rem_euclid(9)) as f64 * 0.25 - 1.0
}

/// Run the three perfgate hot kernels under one sampling session,
/// cross-recording gmg-trace spans for the consistency gate.
pub fn run_pass(opts: &FlameOpts) -> FlamePass {
    let n = opts.grid;
    let bd = 8i64;
    let owned = Box3::cube(n);
    let layout = Arc::new(BrickLayout::new(owned, bd, 1, BrickOrdering::SurfaceMajor));
    let ph = gmg_prof::brick_phases(bd);
    let points = owned.volume() as u64;

    // Bricked + array applyOp operands (mirrors perfgate's setup).
    let src = BrickedField::from_fn(layout.clone(), init_x);
    let mut dst = BrickedField::new(layout.clone());
    let a_src = Array3::from_fn(owned, 1, init_x);
    let mut a_dst = Array3::from_fn(owned, 1, |_| 0.0);
    // Fused multi-smooth operands (3 fused iterations per call).
    let mut x = BrickedField::from_fn(layout.clone(), init_x);
    let bf = BrickedField::from_fn(layout.clone(), init_b);
    let mut r = BrickedField::new(layout.clone());
    let (alpha, beta) = (-6.0, 1.0);
    // Damped Jacobi (ω = 2/3) for α = −6, β = 1: an averaging step, so
    // the iterate stays finite running on from call to call.
    let gamma = 0.5 / 6.0 * (2.0 / 3.0);
    let depth = 3usize;
    let mut y = BrickedField::new(layout.clone());

    let session = gmg_prof::start(Duration::from_micros(opts.interval_us));
    let mut fused_stats = None;
    let ((mut bricked, mut array, mut fused), trace) = gmg_trace::capture(|| {
        let bricked = drive(opts.seconds_per_kernel, ph.apply_root, || {
            apply_star7_bricked(&mut dst, &src, alpha, beta, owned)
        });
        let array = drive(opts.seconds_per_kernel, gmg_prof::APPLYOP_ARRAY, || {
            apply_star7_array(&mut a_dst, &a_src, alpha, beta, owned)
        });
        // No reset of `x` between calls: a field copy inside the traced
        // span but outside the sampled phase would skew the consistency
        // gate, now that the kernel itself copies no ghost brick.
        let fused = drive(opts.seconds_per_kernel, ph.fused_root, || {
            fused_stats = Some(fused_multismooth_bricked(
                &mut x,
                &bf,
                Some(&mut r),
                alpha,
                beta,
                gamma,
                owned,
                depth,
                &mut y,
            ));
        });
        (bricked, array, fused)
    });
    let profile = session.stop();
    let wall = profile.wall_s.max(1e-9);

    let traced_secs = |root: &str| -> f64 {
        trace
            .events
            .iter()
            .filter(|e| e.op.name() == root)
            .map(|e| e.dur_ns as f64 / 1e9)
            .sum()
    };
    let stats = fused_stats.expect("fused kernel ran at least once");
    let kernels = vec![
        KernelReport {
            label: format!("bricked applyOp (b={bd}, {n}^3)"),
            root: ph.apply_root.to_string(),
            seconds_per_call: median(&mut bricked),
            calls: bricked.len() as u64,
            points_per_call: points,
            doubles_per_point: 2.0,
            traced_share: Some(traced_secs(ph.apply_root) / wall),
        },
        KernelReport {
            label: format!("array applyOp ({n}^3)"),
            root: gmg_prof::APPLYOP_ARRAY.to_string(),
            seconds_per_call: median(&mut array),
            calls: array.len() as u64,
            points_per_call: points,
            doubles_per_point: 2.0,
            traced_share: Some(traced_secs(gmg_prof::APPLYOP_ARRAY) / wall),
        },
        KernelReport {
            label: format!("fused multi-smooth (b={bd}, s={depth}, {n}^3)"),
            root: ph.fused_root.to_string(),
            seconds_per_call: median(&mut fused),
            calls: fused.len() as u64,
            points_per_call: stats.points_updated,
            doubles_per_point: stats.doubles_per_point(),
            traced_share: Some(traced_secs(ph.fused_root) / wall),
        },
    ];
    FlamePass { profile, kernels }
}

/// The attribution self-test verdict: the sub-phase whose *absolute time*
/// (within-kernel sampled share × the kernel's seconds per call) grew by
/// the largest factor between the clean and slowed passes.
///
/// Time growth, not share delta: a planted slowdown multiplies its
/// phase's time, so the injected phase wins by ~the injection factor even
/// when it already dominated its kernel (share deltas saturate near 1.0
/// and lose to share *reshuffling* noise in the other kernels).
///
/// A pass runs its kernels on the calling thread, so a phase's time is
/// `share × seconds_per_call`. Phases with fewer than 16 samples over the
/// two passes, or below 2% of their kernel's slowed-pass samples, are
/// skipped: a handful of ticks cannot support a growth-ratio
/// estimate (a 6-tick phase jitters ×3 on its own), so an injection must
/// be large enough to lift its phase above the floor — which any
/// few-hundred-percent slowdown does.
pub fn attribution_winner(clean: &FlamePass, slowed: &FlamePass) -> Option<(String, f64)> {
    let support_floor = 16u64;
    let mut best: Option<(String, f64)> = None;
    for (k0, k1) in clean.kernels.iter().zip(&slowed.kernels) {
        debug_assert_eq!(k0.root, k1.root);
        let b0 = clean.profile.under_root(&k0.root);
        let b1 = slowed.profile.under_root(&k1.root);
        let mut names: Vec<&String> = b0.children.keys().collect();
        names.extend(b1.children.keys());
        names.sort();
        names.dedup();
        for name in names {
            let support = b0.children.get(name.as_str()).copied().unwrap_or(0)
                + b1.children.get(name.as_str()).copied().unwrap_or(0);
            if support < support_floor || b1.child_share(name) < 0.02 {
                continue;
            }
            let t0 = (b0.child_share(name) * k0.seconds_per_call).max(1e-12);
            let t1 = b1.child_share(name) * k1.seconds_per_call;
            let growth = t1 / t0;
            if best.as_ref().map_or(true, |(_, g)| growth > *g) {
                best = Some((name.clone(), growth));
            }
        }
    }
    best
}

/// Measure the machine envelope for the roofline columns (host microbench;
/// comm model falls back to host copy numbers — flame records no sends).
pub fn measure_env() -> MachineEnvelope {
    crate::analyze::envelope_for(&gmg_trace::Trace { events: Vec::new() })
}

/// Run the full harness: sampled pass, artifacts, gates, optional
/// attribution self-test. Returns the process exit code.
pub fn run_with(dir: &Path, opts: &FlameOpts, env: Option<&MachineEnvelope>) -> i32 {
    crate::report::heading("flame — sampled kernel efficiency observatory");
    let clean = run_pass(opts);

    let folded_path = crate::report::save_raw_in(dir, "flame.folded", &clean.profile.to_folded());
    println!(
        "sampled {} stacks over {:.2} s ({} ticks, {} dropped) -> {folded_path:?}",
        clean.profile.samples, clean.profile.wall_s, clean.profile.ticks, clean.profile.dropped
    );

    let (mut md, verdict) = gmg_prof::render(&clean.profile, &clean.kernels, env);
    let mut code = 0;

    let bricked_root = &clean.kernels[0].root;
    let cov = verdict.coverage_of(bricked_root).unwrap_or(0.0);
    if cov < opts.min_coverage {
        println!(
            "FAIL coverage: {:.1}% of bricked applyOp samples in named sub-phases (< {:.1}%)",
            cov * 100.0,
            opts.min_coverage * 100.0
        );
        code = 1;
    } else {
        println!(
            "coverage ok: {:.1}% of bricked applyOp samples in named sub-phases",
            cov * 100.0
        );
    }
    if !verdict.consistent {
        println!("FAIL consistency: sampled phase shares disagree with gmg-trace span shares");
        for (root, sampled, traced, ok) in &verdict.consistency {
            if !ok {
                println!("  {root}: sampled {sampled:.3} vs traced {traced:.3}");
            }
        }
        code = 1;
    } else {
        println!("consistency ok: sampled shares match traced spans within tolerance");
    }

    if let Some((pattern, pct)) = &opts.inject {
        gmg_prof::set_slowdown(Some((pattern.as_str(), *pct)));
        let slowed = run_pass(opts);
        gmg_prof::set_slowdown(None);
        let winner = attribution_winner(&clean, &slowed);
        md.push_str("## Attribution self-test\n\n");
        let ok = match &winner {
            Some((name, growth)) => {
                md.push_str(&format!(
                    "Injected a {pct}% slowdown into phases matching `{pattern}`; the \
                     phase whose absolute time grew most was **{name}** (×{growth:.2}).\n\n"
                ));
                name.contains(pattern.as_str())
            }
            None => {
                md.push_str("No sub-phase shares were observed in either pass.\n\n");
                false
            }
        };
        if ok {
            println!(
                "attribution ok: slowed phase `{pattern}` dominates the diff ({:?})",
                winner
            );
        } else {
            println!("FAIL attribution: injected `{pattern}` but the dominant diff was {winner:?}");
            code = 1;
        }
    }

    let md_path = crate::report::save_raw_in(dir, "efficiency.md", &md);
    println!("efficiency report -> {md_path:?}");
    code
}

/// Binary entry point: measure the envelope, write under `results/`.
pub fn run(opts: &FlameOpts) -> i32 {
    run_with(&crate::report::results_dir(), opts, Some(&measure_env()))
}
