//! perfgate — a deterministic macro-benchmark of the hot kernels plus a
//! noise-robust regression gate over a committed benchmark trajectory.
//!
//! Run: `cargo run --release -p gmg-bench --bin perfgate` (record mode:
//! appends `bench/BENCH_<n+1>.json`) or `-- --check` (gate mode: compare
//! against the latest committed entry and exit nonzero on a regression or
//! a hard-floor violation, without writing anything).
//!
//! The gate is machine-portable because it scores dimensionless *ratios*
//! (optimized kernel vs its in-tree baseline), not absolute seconds:
//!
//! | id | candidate | baseline |
//! |---|---|---|
//! | `applyop_bricked_vs_array`   | bricked 7-point apply at [`APPLYOP_BLOCK`]³ (no floor) | conventional array apply |
//! | `applyop_bricked_vs_array_stream` | same kernels at `--grid` (no floor) | conventional array apply |
//! | `smooth_residual_fused_vs_split` | one-pass smooth+residual | smooth then residual |
//! | `multismooth_fused_vs_sweep` | one-pass multi-smooth (≥ [`MULTISMOOTH_FLOOR`] floor, at [`MULTISMOOTH_BLOCK`]³) | sweep-by-sweep CA |
//! | `multismooth_fused_vs_sweep_stream` | same schedules at `--grid` (≥ [`MULTISMOOTH_STREAM_FLOOR`] floor) | sweep-by-sweep CA |
//! | `exchange_packfree_vs_packed` | surface-major gather | lexicographic gather |
//! | `sim_events_per_sec`         | gmg-scale 1000-rank V-cycle simulation (≥ 1.0× floor) | [`SIM_EVENT_BUDGET_NS`] ns/event budget |
//!
//! The bricked-vs-array applyOp comparison is recorded at a fixed
//! cache-blocked size and at `--grid`, and carries no hard floor at
//! either: the standalone bricked apply reads ~0.9× of the array kernel's
//! plain row loop in cache and ~0.6× streaming from DRAM (the 1.0× floor
//! entries up to `BENCH_7` carried held only while the array kernel paid a
//! thread pool's per-slab dispatch). Both entries stay under the
//! no-regression rule. The multi-smooth comparison is floored at both
//! sizes: the one-pass smoother does the sweep pair's
//! arithmetic in half the passes with 3 doubles per point of compulsory
//! traffic instead of 5 (4 instead of 7 on the one iteration of a group
//! that stores the residual — both sides store it there and only there),
//! so it has to win in cache and must not lose once the fields stream
//! from memory.
//!
//! Each side is timed `samples` times; the score is the ratio of medians
//! and the noise estimate is the relative MAD (median absolute deviation)
//! of each sample set. A benchmark regresses when its ratio falls below
//! the trajectory baseline by more than `max(10%, 3·max(mad_now,
//! mad_then))` — so a noisy box widens its own tolerance instead of
//! flapping the gate, without quiet components compounding into a
//! tolerance that hides a real regression. `multismooth_fused_vs_sweep`
//! and its `_stream` twin additionally carry their hard floors and a
//! deterministic traffic check (the kernel's own count must equal what the
//! group geometry dictates: 3 doubles/point on every iteration, one more
//! on the last of the group).
//!
//! Every kernel runs on the calling thread (entries up to `BENCH_7`
//! also record a pool width, always 1). Every `extra` records the
//! execution context's `transport` (what the rank world the benchmark ran
//! reported, `thread` for the in-process kernel benchmarks) and `ranks`
//! (`GMG_PROC_NRANKS` when spawned into a process world, else 1), so
//! entries taken under different transports never get compared as
//! like-for-like silently.
//!
//! Absolute medians — and, since schema 2, per-side p50/p90/p99 plus the
//! full log-bucketed nanosecond sample histograms (mergeable across
//! entries via `gmg_metrics::Histogram`) — are recorded in every entry
//! purely as trajectory context; they are never gated on, and schema-1
//! entries gate exactly as before.

use gmg_brick::{BrickLayout, BrickOrdering, BrickedField};
use gmg_mesh::ghost::DIRECTIONS_26;
use gmg_mesh::{Array3, Box3, Point3};
use gmg_stencil::exec_array::apply_star7_array;
use gmg_stencil::exec_brick::{apply_star7_bricked, pointwise_mut1, pointwise_mut2};
use gmg_stencil::exec_fused::{fused_multismooth_bricked, ResidualSink};
use gmg_trace::{json, Json};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

/// Hard floor for the fused multi-smooth speedup at the cache-blocked
/// size (ISSUE acceptance bar).
pub const MULTISMOOTH_FLOOR: f64 = 1.15;
/// Hard floor for the same comparison at `--grid`: the one-pass smoother
/// must not lose to the sweep pair in the streaming regime real finest
/// levels live in (ROADMAP item 2's success test).
pub const MULTISMOOTH_STREAM_FLOOR: f64 = 1.0;
/// Doubles the one-pass smoother moves per point on every iteration: read
/// `x`, `b`, write `x`. The last iteration of a group writes `r` as well.
pub const FUSED_DOUBLES_PER_POINT: u64 = 3;
/// Cube side of the cache-regime applyOp comparison: a block whose
/// working set is L2-resident, the regime fine-grain data blocking
/// targets, so the ratio measures per-brick set-up and instructions, not
/// memory-system noise. The DRAM-streaming regime is recorded by the
/// `_stream` twin at `--grid`.
pub const APPLYOP_BLOCK: i64 = 24;
/// Cube side of the gated cache-regime multi-smooth comparison (same
/// rationale as [`APPLYOP_BLOCK`]): at 32³ the owned bricks of all four
/// fields are L2-resident, so the ratio measures instructions and passes
/// saved, not memory-system noise.
pub const MULTISMOOTH_BLOCK: i64 = 32;
/// Minimum relative regression tolerated before the MAD widening kicks in.
pub const BASE_TOLERANCE: f64 = 0.10;

/// Per-simulated-event time budget for the scaling observatory's
/// schedule simulator, nanoseconds. The budget is the *baseline* of the
/// `sim_events_per_sec` entry: the 1000-rank clock-only observatory
/// V-cycle simulation must process events at least this fast (measured
/// ~5 ns/event single-threaded, so 50 ns is ~10× headroom for CI noise)
/// or the 10k-rank sweep stops being a laptop-class operation.
pub const SIM_EVENT_BUDGET_NS: f64 = 50.0;

/// Gate options (the binary's command line).
#[derive(Clone, Copy, Debug)]
pub struct GateOpts {
    /// Fine-grid cube side for the kernel benchmarks.
    pub grid: i64,
    /// Median-of-k sample count per timed side.
    pub samples: usize,
    /// Artificially slow every *candidate* kernel by this percentage —
    /// used once to prove the gate actually fails (`--inject-slowdown`).
    pub inject_slowdown_pct: f64,
    /// Gate only: compare against the committed trajectory and exit
    /// nonzero on violation without appending a new entry.
    pub check_only: bool,
}

impl Default for GateOpts {
    fn default() -> Self {
        Self {
            grid: 128,
            samples: 5,
            inject_slowdown_pct: 0.0,
            check_only: false,
        }
    }
}

/// Robust summary of one timed side.
#[derive(Clone, Debug)]
pub struct Stats {
    /// Median seconds across the samples.
    pub median: f64,
    /// Median absolute deviation relative to the median.
    pub rel_mad: f64,
    /// 50th/90th/99th percentile seconds, estimated from the log-bucketed
    /// sample histogram (exact to one bucket, i.e. ≤ 1/8 relative error).
    pub p50: f64,
    pub p90: f64,
    pub p99: f64,
    /// Raw nanosecond sample histogram — recorded into the trajectory
    /// entry so later runs can merge distributions across entries instead
    /// of comparing lossy point statistics.
    pub hist: gmg_metrics::Histogram,
}

impl Stats {
    /// Noise-free synthetic stats (single sample at `median`) for gate-math
    /// tests and schema fixtures.
    pub fn synthetic(median: f64, rel_mad: f64) -> Self {
        let mut hist = gmg_metrics::Histogram::new();
        hist.record((median * 1e9).max(0.0) as u64);
        Stats {
            median,
            rel_mad,
            p50: median,
            p90: median,
            p99: median,
            hist,
        }
    }
}

/// One benchmark's outcome.
#[derive(Clone, Debug)]
pub struct BenchOut {
    pub id: &'static str,
    pub baseline_label: &'static str,
    pub candidate_label: &'static str,
    pub baseline: Stats,
    pub candidate: Stats,
    /// Speedup of candidate over baseline (median/median, > 1 is faster).
    pub ratio: f64,
    /// Hard floor on `ratio`, if this benchmark carries one.
    pub floor: Option<f64>,
    /// Benchmark-specific context recorded into the trajectory entry.
    pub extra: Json,
}

/// Median of a sample set (panics on empty input).
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of empty sample set");
    let mut v = xs.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("non-finite sample"));
    let m = v.len() / 2;
    if v.len() % 2 == 1 {
        v[m]
    } else {
        0.5 * (v[m - 1] + v[m])
    }
}

/// Median absolute deviation around the median.
pub fn mad(xs: &[f64]) -> f64 {
    let m = median(xs);
    let dev: Vec<f64> = xs.iter().map(|x| (x - m).abs()).collect();
    median(&dev)
}

fn stats_of(samples: &[f64]) -> Stats {
    let m = median(samples);
    let mut hist = gmg_metrics::Histogram::new();
    for &s in samples {
        hist.record((s * 1e9).max(0.0) as u64);
    }
    let q = |p: f64| hist.quantile(p).map_or(m, |ns| ns as f64 * 1e-9);
    Stats {
        median: m,
        rel_mad: if m > 0.0 { mad(samples) / m } else { 0.0 },
        p50: q(0.50),
        p90: q(0.90),
        p99: q(0.99),
        hist,
    }
}

/// Collect `k` samples from a self-timing closure (the closure does its
/// own untimed prep, then returns the measured seconds — one closure, so
/// prep and work can share mutable state) and summarize with median +
/// relative MAD.
pub fn time_median(k: usize, mut sample: impl FnMut() -> f64) -> Stats {
    let samples: Vec<f64> = (0..k).map(|_| sample()).collect();
    stats_of(&samples)
}

/// Time one closure invocation.
pub fn timed(work: impl FnOnce()) -> f64 {
    let t0 = Instant::now();
    work();
    t0.elapsed().as_secs_f64()
}

/// Trajectory directory: `$GMG_BENCH_DIR`, or the in-repo `bench/`.
pub fn bench_dir() -> PathBuf {
    crate::report::ensure_dir(Some(
        std::env::var_os("GMG_BENCH_DIR")
            .map(PathBuf::from)
            .unwrap_or_else(|| PathBuf::from("bench")),
    ))
}

fn entry_index(name: &str) -> Option<u64> {
    name.strip_prefix("BENCH_")?
        .strip_suffix(".json")?
        .parse()
        .ok()
}

/// Latest committed trajectory entry in `dir`, if any.
pub fn latest_entry(dir: &std::path::Path) -> Option<(u64, Json)> {
    let mut best: Option<(u64, PathBuf)> = None;
    for e in std::fs::read_dir(dir).ok()? {
        let e = e.ok()?;
        if let Some(i) = entry_index(&e.file_name().to_string_lossy()) {
            if best.as_ref().map_or(true, |(b, _)| i > *b) {
                best = Some((i, e.path()));
            }
        }
    }
    let (i, path) = best?;
    let text = std::fs::read_to_string(path).ok()?;
    let v = Json::parse(&text).ok()?;
    Some((i, v))
}

fn init_x(p: Point3) -> f64 {
    ((p.x * 7 + p.y * 3 - p.z * 5).rem_euclid(13)) as f64 * 0.125
}

fn init_b(p: Point3) -> f64 {
    ((p.x * 2 - p.y * 5 + p.z * 11).rem_euclid(9)) as f64 * 0.25 - 1.0
}

/// Star-7 coefficients of the unit-spacing Poisson operator plus the
/// matching Jacobi damping (mirrors `Level`'s `alpha/beta/gamma`).
fn coeffs() -> (f64, f64, f64) {
    (-6.0, 1.0, -0.5 / 6.0 * (2.0 / 3.0))
}

fn mk_layout(n: i64, bd: i64) -> Arc<BrickLayout> {
    Arc::new(BrickLayout::new(
        Box3::cube(n),
        bd,
        1,
        BrickOrdering::SurfaceMajor,
    ))
}

fn applyop_at(n: i64, id: &'static str, opts: &GateOpts) -> BenchOut {
    let owned = Box3::cube(n);
    let layout = mk_layout(n, 8);
    let src = BrickedField::from_fn(layout.clone(), init_x);
    let mut dst = BrickedField::new(layout);
    let (alpha, beta, _) = coeffs();
    // Batch repetitions per timed sample on small grids so the ratio is
    // not dominated by timer resolution (the cache-regime block and the
    // self-tests run at grid 16–32, where one apply is microseconds).
    // Both sides batch identically, so the ratio of medians is unchanged.
    let reps = {
        let r = (128 / n).max(1) as usize;
        r * r
    };
    let cand = time_median(opts.samples, || {
        timed(|| {
            for _ in 0..reps {
                apply_star7_bricked(&mut dst, &src, alpha, beta, owned);
            }
        })
    });

    let a_src = Array3::from_fn(owned, 1, init_x);
    let mut a_dst = Array3::from_fn(owned, 1, |_| 0.0);
    let base = time_median(opts.samples, || {
        timed(|| {
            for _ in 0..reps {
                apply_star7_array(&mut a_dst, &a_src, alpha, beta, owned);
            }
        })
    });
    let extra = json!({ "grid": n, "brick_dim": 8i64,
                        "transport": IN_PROCESS_TRANSPORT, "ranks": run_ranks() });
    finish(
        id,
        "array applyOp",
        "bricked applyOp",
        base,
        cand,
        None,
        extra,
        opts,
    )
}

/// Comparison at the L2-resident block size (see [`APPLYOP_BLOCK`]).
fn bench_applyop(opts: &GateOpts) -> BenchOut {
    applyop_at(APPLYOP_BLOCK, "applyop_bricked_vs_array", opts)
}

/// Full-`--grid` twin: how the same kernels compare in the
/// DRAM-streaming regime.
fn bench_applyop_stream(opts: &GateOpts) -> BenchOut {
    applyop_at(opts.grid, "applyop_bricked_vs_array_stream", opts)
}

fn bench_smooth_residual(opts: &GateOpts) -> BenchOut {
    let n = opts.grid;
    let owned = Box3::cube(n);
    let layout = mk_layout(n, 8);
    let x0 = BrickedField::from_fn(layout.clone(), init_x);
    let bf = BrickedField::from_fn(layout.clone(), init_b);
    let mut x = x0.clone();
    let mut ax = BrickedField::new(layout.clone());
    let mut r = BrickedField::new(layout.clone());
    let (alpha, beta, gamma) = coeffs();
    let pieces = layout.slots_intersecting(owned);

    // Candidate: applyOp + one pointwise pass updating x *and* r.
    let cand = time_median(opts.samples, || {
        x.as_mut_slice().copy_from_slice(x0.as_slice());
        timed(|| {
            apply_star7_bricked(&mut ax, &x, alpha, beta, owned);
            pointwise_mut2(&mut x, &mut r, &ax, &bf, &pieces, move |x, r, ax, b| {
                *r = b - ax;
                *x += gamma * (ax - b);
            });
        })
    });
    // Baseline: applyOp + smooth, then a second applyOp + residual pass.
    let base = time_median(opts.samples, || {
        x.as_mut_slice().copy_from_slice(x0.as_slice());
        timed(|| {
            apply_star7_bricked(&mut ax, &x, alpha, beta, owned);
            pointwise_mut1(&mut x, &ax, &bf, &pieces, move |x, ax, b| {
                *x += gamma * (ax - b);
            });
            apply_star7_bricked(&mut ax, &x, alpha, beta, owned);
            pointwise_mut1(&mut r, &ax, &bf, &pieces, move |r, ax, b| {
                *r = b - ax;
            });
        })
    });
    finish(
        "smooth_residual_fused_vs_split",
        "smooth then residual",
        "fused smooth+residual",
        base,
        cand,
        None,
        json!({ "grid": n, "brick_dim": 8i64,
                "transport": IN_PROCESS_TRANSPORT, "ranks": run_ranks() }),
        opts,
    )
}

fn multismooth_at(n: i64, id: &'static str, floor: Option<f64>, opts: &GateOpts) -> BenchOut {
    let bd = 8i64;
    let owned = Box3::cube(n);
    let layout = mk_layout(n, bd);
    let x0 = BrickedField::from_fn(layout.clone(), init_x);
    let bf = BrickedField::from_fn(layout.clone(), init_b);
    let mut x = x0.clone();
    let mut r = BrickedField::new(layout.clone());
    let mut ax = BrickedField::new(layout.clone());
    let (alpha, beta, gamma) = coeffs();
    // The paper's 12 smooths as 3 fused groups of 4 (the solver default),
    // vs the identical logical schedule sweep-by-sweep: iteration k of a
    // group updates owned.shrink(k), the last one also stores the residual
    // — same points, same FLOPs, same stores. (A group leaves `x`
    // unspecified outside owned.shrink(3); the next one smooths those
    // finite leftovers, which costs what smoothing anything costs.)
    let (groups, depth) = (3usize, 4usize);

    // One untimed pass of each schedule first: with `--samples 1` (the
    // self-tests) the single timed sample must not carry the cold-cache /
    // first-allocation cost of whichever side runs first.
    fused_multismooth_bricked(
        &mut x,
        &bf,
        Some(ResidualSink::Store(&mut r)),
        alpha,
        beta,
        gamma,
        owned,
        depth,
        &mut ax,
    );
    apply_star7_bricked(&mut ax, &x, alpha, beta, owned);

    let mut last_stats = None;
    let cand = time_median(opts.samples, || {
        x.as_mut_slice().copy_from_slice(x0.as_slice());
        timed(|| {
            for _ in 0..groups {
                last_stats = Some(fused_multismooth_bricked(
                    &mut x,
                    &bf,
                    Some(ResidualSink::Store(&mut r)),
                    alpha,
                    beta,
                    gamma,
                    owned,
                    depth,
                    &mut ax,
                ));
            }
        })
    });
    let base = time_median(opts.samples, || {
        x.as_mut_slice().copy_from_slice(x0.as_slice());
        timed(|| {
            for _ in 0..groups {
                for k in 0..depth as i64 {
                    let rk = owned.shrink(k);
                    apply_star7_bricked(&mut ax, &x, alpha, beta, rk);
                    let pieces = layout.slots_intersecting(rk);
                    if k + 1 < depth as i64 {
                        pointwise_mut1(&mut x, &ax, &bf, &pieces, move |x, ax, b| {
                            *x += gamma * (ax - b);
                        });
                        continue;
                    }
                    pointwise_mut2(&mut x, &mut r, &ax, &bf, &pieces, move |x, r, ax, b| {
                        *r = b - ax;
                        *x += gamma * (ax - b);
                    });
                }
            }
        })
    });
    let stats = last_stats.expect("fused smoother ran");
    // `points_updated` already counts every point-iteration, so this is
    // doubles per point per smooth iteration — and the group geometry says
    // exactly what it has to be: 3 on every point of every R_k, one more
    // on R_{s−1}. The sweep pair moves 5, plus 2 on those.
    let fused_dpp = stats.doubles_per_point();
    let cells = |k: usize| owned.shrink(k as i64).volume() as u64;
    let points: u64 = (0..depth).map(cells).sum();
    let expected_dpp = (FUSED_DOUBLES_PER_POINT * points + cells(depth - 1)) as f64 / points as f64;
    finish(
        id,
        "sweep-by-sweep CA smooth",
        "fused multi-smooth",
        base,
        cand,
        floor,
        json!({
            "grid": n,
            "brick_dim": bd,
            "smooths": (groups * depth) as u64,
            "fused_depth": depth as u64,
            "fused_doubles_per_point_per_iter": fused_dpp,
            "expected_doubles_per_point_per_iter": expected_dpp,
            "sweep_doubles_per_point_per_iter": 5.0 + 2.0 * (fused_dpp - 3.0),
            "transport": IN_PROCESS_TRANSPORT,
            "ranks": run_ranks(),
        }),
        opts,
    )
}

/// Gated comparison at the cache-blocked size (see [`MULTISMOOTH_BLOCK`]).
fn bench_multismooth(opts: &GateOpts) -> BenchOut {
    multismooth_at(
        MULTISMOOTH_BLOCK,
        "multismooth_fused_vs_sweep",
        Some(MULTISMOOTH_FLOOR),
        opts,
    )
}

/// Full-`--grid` twin of the fused-vs-sweep comparison: the
/// DRAM-streaming regime real finest levels live in.
fn bench_multismooth_stream(opts: &GateOpts) -> BenchOut {
    multismooth_at(
        opts.grid,
        "multismooth_fused_vs_sweep_stream",
        Some(MULTISMOOTH_STREAM_FLOOR),
        opts,
    )
}

fn bench_exchange(opts: &GateOpts) -> BenchOut {
    let n = (opts.grid / 2).max(16);
    let v = Box3::cube(n);
    let time_gather = |ord: BrickOrdering, samples: usize| {
        let layout = Arc::new(BrickLayout::new(v, 8, 1, ord));
        let field = BrickedField::from_fn(layout.clone(), init_x);
        let sends: Vec<Vec<u32>> = DIRECTIONS_26
            .iter()
            .map(|&d| layout.send_slots(d))
            .collect();
        let mut buf = Vec::new();
        time_median(samples, || {
            timed(|| {
                for slots in &sends {
                    field.gather_bricks(slots, &mut buf);
                    std::hint::black_box(buf.len());
                }
            })
        })
    };
    let cand = time_gather(BrickOrdering::SurfaceMajor, opts.samples);
    let base = time_gather(BrickOrdering::Lexicographic, opts.samples);
    finish(
        "exchange_packfree_vs_packed",
        "lexicographic gather",
        "surface-major gather",
        base,
        cand,
        None,
        json!({ "grid": n, "brick_dim": 8i64, "directions": 26u64,
                "transport": IN_PROCESS_TRANSPORT, "ranks": run_ranks() }),
        opts,
    )
}

/// Simulator throughput vs a fixed per-event budget: the candidate is
/// the measured wall time of the 1000-rank clock-only observatory
/// simulation, the baseline is [`SIM_EVENT_BUDGET_NS`] per simulated
/// event. Floor 1.0 ⇒ the simulator must beat its budget outright, so
/// the scaling observatory itself can't silently regress below
/// laptop-class feasibility.
fn bench_sim_throughput(opts: &GateOpts) -> BenchOut {
    let cfg = gmg_scale::ScaleConfig::observatory(gmg_machine::gpu::System::Perlmutter, 1000);
    let events = gmg_scale::simulate(&cfg).sim_events; // warmup + event count
    let cand = time_median(opts.samples, || {
        timed(|| {
            gmg_scale::simulate(&cfg);
        })
    });
    let base = Stats::synthetic(events as f64 * SIM_EVENT_BUDGET_NS * 1e-9, 0.0);
    let events_per_sec = events as f64 / cand.median;
    finish(
        "sim_events_per_sec",
        "event budget",
        "schedule simulation",
        base,
        cand,
        Some(SIM_THROUGHPUT_FLOOR),
        json!({ "sim_ranks": 1000u64, "sim_events": events, "events_per_sec": events_per_sec,
                "budget_ns_per_event": SIM_EVENT_BUDGET_NS,
                "transport": IN_PROCESS_TRANSPORT, "ranks": run_ranks() }),
        opts,
    )
}

/// Hard floor of the [`bench_sim_throughput`] comparison (budget time /
/// measured time must be ≥ 1 — the simulator beats its budget).
pub const SIM_THROUGHPUT_FLOOR: f64 = 1.0;

/// Execution context recorded in every entry's extras: the transport of
/// the rank world the benchmark ran (the in-process kernel benchmarks run
/// none, which is the `thread` context) and the world size
/// (`GMG_PROC_NRANKS` when spawned as a process-world rank, else 1).
const IN_PROCESS_TRANSPORT: &str = "thread";

fn run_ranks() -> u64 {
    std::env::var("GMG_PROC_NRANKS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(1)
}

#[allow(clippy::too_many_arguments)]
fn finish(
    id: &'static str,
    baseline_label: &'static str,
    candidate_label: &'static str,
    baseline: Stats,
    mut candidate: Stats,
    floor: Option<f64>,
    extra: Json,
    opts: &GateOpts,
) -> BenchOut {
    if opts.inject_slowdown_pct > 0.0 {
        let f = 1.0 + opts.inject_slowdown_pct / 100.0;
        candidate.median *= f;
        candidate.p50 *= f;
        candidate.p90 *= f;
        candidate.p99 *= f;
    }
    let ratio = baseline.median / candidate.median;
    BenchOut {
        id,
        baseline_label,
        candidate_label,
        baseline,
        candidate,
        ratio,
        floor,
        extra,
    }
}

/// Run the full suite.
pub fn run_suite(opts: &GateOpts) -> Vec<BenchOut> {
    crate::report::heading("perfgate — hot-kernel macro-benchmarks");
    let mut out = Vec::new();
    for (name, f) in [
        ("applyop", bench_applyop as fn(&GateOpts) -> BenchOut),
        ("applyop-stream", bench_applyop_stream),
        ("smooth+residual", bench_smooth_residual),
        ("multi-smooth", bench_multismooth),
        ("multi-smooth-stream", bench_multismooth_stream),
        ("exchange", bench_exchange),
        ("sim-throughput", bench_sim_throughput),
    ] {
        println!("running {name} ...");
        let b = f(opts);
        println!(
            "  {:<32} {:>9} vs {:>9}  ratio {:.3}{} (±{:.1}% MAD)",
            b.id,
            crate::report::fmt_time(b.candidate.median),
            crate::report::fmt_time(b.baseline.median),
            b.ratio,
            b.floor.map(|f| format!(" [floor {f}]")).unwrap_or_default(),
            100.0 * (b.baseline.rel_mad + b.candidate.rel_mad),
        );
        out.push(b);
    }
    out
}

/// A gate violation (printed and counted toward the exit code).
#[derive(Clone, Debug, PartialEq)]
pub struct Violation {
    pub id: String,
    pub what: String,
}

/// Noise-widened regression tolerance for one comparison: 3× the *worst*
/// relative MAD in play (either side now, or the recorded entry), floored
/// at [`BASE_TOLERANCE`]. The worst component — not the sum — so one
/// noisy side widens the gate proportionally but three quiet-ish sides
/// cannot compound into a tolerance that swallows a real 30% regression.
pub fn tolerance(now: &BenchOut, then_rel_mad: f64) -> f64 {
    let worst = now
        .baseline
        .rel_mad
        .max(now.candidate.rel_mad)
        .max(then_rel_mad);
    BASE_TOLERANCE.max(3.0 * worst)
}

/// Apply the gate rules: hard floors, deterministic traffic invariants,
/// and regression against the latest trajectory entry (if present).
pub fn check(benches: &[BenchOut], trajectory: Option<&Json>) -> Vec<Violation> {
    let mut v = Vec::new();
    for b in benches {
        if let Some(floor) = b.floor {
            if b.ratio < floor {
                v.push(Violation {
                    id: b.id.to_string(),
                    what: format!("ratio {:.3} below hard floor {floor}", b.ratio),
                });
            }
        }
        if b.id.starts_with("multismooth_fused_vs_sweep") {
            let dpp = b.extra["fused_doubles_per_point_per_iter"].as_f64();
            let expected = b.extra["expected_doubles_per_point_per_iter"].as_f64();
            if dpp.is_none() || dpp != expected {
                v.push(Violation {
                    id: b.id.to_string(),
                    what: format!(
                        "fused traffic {dpp:?} doubles/pt/iter, expected exactly {expected:?}"
                    ),
                });
            }
        }
        if let Some(t) = trajectory {
            let rows = match t["benchmarks"].as_arr() {
                Some(r) => r,
                None => continue,
            };
            let prev = rows.iter().find(|r| r["id"].as_str() == Some(b.id));
            if let Some(prev) = prev {
                let (Some(prev_ratio), prev_mad) = (
                    prev["ratio"].as_f64(),
                    prev["rel_mad"].as_f64().unwrap_or(0.0),
                ) else {
                    continue;
                };
                let tol = tolerance(b, prev_mad);
                if b.ratio < prev_ratio * (1.0 - tol) {
                    v.push(Violation {
                        id: b.id.to_string(),
                        what: format!(
                            "ratio {:.3} regressed {:.0}% vs trajectory {:.3} (tolerance {:.0}%)",
                            b.ratio,
                            100.0 * (1.0 - b.ratio / prev_ratio),
                            prev_ratio,
                            100.0 * tol
                        ),
                    });
                }
            }
        }
    }
    v
}

/// Serialize one sample histogram: summary fields plus the sparse
/// `[bucket_index, count]` pairs `gmg_metrics::Histogram::from_parts`
/// reconstructs from.
fn hist_to_json(h: &gmg_metrics::Histogram) -> Json {
    let buckets: Vec<Json> = h
        .nonzero_buckets()
        .map(|(i, c)| json!(vec![i as u64, c]))
        .collect();
    json!({
        "count": h.count(),
        "sum_ns": h.sum(),
        "min_ns": h.min().unwrap_or(0),
        "max_ns": h.max().unwrap_or(0),
        "buckets": buckets,
    })
}

/// Serialize one trajectory entry. Schema 2 adds per-side p50/p90/p99 and
/// the nanosecond sample histograms; `check()` reads every field
/// defensively, so schema-1 entries (BENCH_1) still gate cleanly.
pub fn entry_to_json(opts: &GateOpts, index: u64, benches: &[BenchOut]) -> Json {
    let rows: Vec<Json> = benches
        .iter()
        .map(|b| {
            json!({
                "id": b.id,
                "baseline": b.baseline_label,
                "candidate": b.candidate_label,
                "baseline_seconds": b.baseline.median,
                "candidate_seconds": b.candidate.median,
                "baseline_p50": b.baseline.p50,
                "baseline_p90": b.baseline.p90,
                "baseline_p99": b.baseline.p99,
                "candidate_p50": b.candidate.p50,
                "candidate_p90": b.candidate.p90,
                "candidate_p99": b.candidate.p99,
                "baseline_hist": hist_to_json(&b.baseline.hist),
                "candidate_hist": hist_to_json(&b.candidate.hist),
                "ratio": b.ratio,
                "rel_mad": b.baseline.rel_mad.max(b.candidate.rel_mad),
                "floor": b.floor.unwrap_or(0.0),
                "extra": b.extra.clone(),
            })
        })
        .collect();
    json!({
        "schema": 2u64,
        "entry": index,
        "grid": opts.grid,
        "samples": opts.samples,
        "threads": std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1),
        "injected_slowdown_pct": opts.inject_slowdown_pct,
        "benchmarks": rows,
    })
}

/// Full perfgate run; returns the process exit code.
pub fn run(opts: &GateOpts) -> i32 {
    let dir = bench_dir();
    let benches = run_suite(opts);
    let latest = latest_entry(&dir);
    let trajectory = latest.as_ref().map(|(_, v)| v);
    let violations = check(&benches, trajectory);
    for v in &violations {
        eprintln!("VIOLATION [{}]: {}", v.id, v.what);
    }
    if !opts.check_only {
        let index = latest.map(|(i, _)| i).unwrap_or(0) + 1;
        let entry = entry_to_json(opts, index, &benches);
        let text = entry.pretty() + "\n";
        let path = crate::report::save_raw_in(&dir, &format!("BENCH_{index}.json"), &text);
        println!("[appended trajectory entry {path:?}]");
    }
    if violations.is_empty() {
        println!("perfgate: PASS ({} benchmarks)", benches.len());
        0
    } else {
        eprintln!("perfgate: FAIL ({} violations)", violations.len());
        1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_opts() -> GateOpts {
        GateOpts {
            grid: 32,
            samples: 3,
            inject_slowdown_pct: 0.0,
            check_only: true,
        }
    }

    /// A fixed outcome for gate-math tests: no timing, so the arithmetic
    /// under test is exact.
    fn fixed(
        id: &'static str,
        ratio: f64,
        rel_mad: f64,
        floor: Option<f64>,
        extra: Json,
    ) -> BenchOut {
        BenchOut {
            id,
            baseline_label: "b",
            candidate_label: "c",
            baseline: Stats::synthetic(ratio, rel_mad),
            candidate: Stats::synthetic(1.0, rel_mad),
            ratio,
            floor,
            extra,
        }
    }

    /// The multi-smooth entries' traffic extras: `dpp` doubles/point
    /// counted where the geometry dictates `expected`.
    fn traffic(dpp: f64, expected: f64) -> Json {
        json!({
            "fused_doubles_per_point_per_iter": dpp,
            "expected_doubles_per_point_per_iter": expected,
        })
    }

    #[test]
    fn median_and_mad_are_robust() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        // One wild outlier barely moves either statistic.
        assert_eq!(median(&[1.0, 1.1, 0.9, 100.0, 1.0]), 1.0);
        assert!(mad(&[1.0, 1.1, 0.9, 100.0, 1.0]) <= 0.1 + 1e-12);
    }

    /// The committed trajectory, whatever directory the tests run from.
    fn committed_bench_dir() -> PathBuf {
        PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/../../bench"))
    }

    /// Key structure of a document: objects by their sorted keys and the
    /// values' shapes, arrays by the distinct shapes of their elements,
    /// scalars by kind.
    fn shape(v: &Json) -> String {
        match v {
            Json::Obj(fields) => {
                let mut keys: Vec<String> = fields
                    .iter()
                    .map(|(k, v)| format!("{k}:{}", shape(v)))
                    .collect();
                keys.sort();
                format!("{{{}}}", keys.join(","))
            }
            Json::Arr(items) => {
                let mut shapes: Vec<String> = items.iter().map(shape).collect();
                shapes.sort();
                shapes.dedup();
                format!("[{}]", shapes.join("|"))
            }
            Json::Num(_) => "num".into(),
            Json::Str(_) => "str".into(),
            Json::Bool(_) => "bool".into(),
            Json::Null => "null".into(),
        }
    }

    #[test]
    fn committed_trajectory_still_reads_and_gates() {
        const IDS: [&str; 7] = [
            "applyop_bricked_vs_array",
            "applyop_bricked_vs_array_stream",
            "smooth_residual_fused_vs_split",
            "multismooth_fused_vs_sweep",
            "multismooth_fused_vs_sweep_stream",
            "exchange_packfree_vs_packed",
            "sim_events_per_sec",
        ];
        let dir = committed_bench_dir();
        let (latest, _) = latest_entry(&dir).expect("committed trajectory");
        assert!(latest >= 8);
        for i in 1..=latest {
            let text = std::fs::read_to_string(dir.join(format!("BENCH_{i}.json"))).unwrap();
            let entry = Json::parse(&text).unwrap_or_else(|e| panic!("BENCH_{i}: {e}"));
            // Today's benchmarks at the ratios the entry recorded pass its
            // gate; ten times slower, every one of them regresses.
            let outcomes = |slowdown: f64| -> Vec<BenchOut> {
                let rows = entry["benchmarks"].as_arr().expect("benchmarks");
                rows.iter()
                    .filter_map(|row| {
                        let id = IDS.iter().find(|id| row["id"].as_str() == Some(id))?;
                        let ratio = row["ratio"].as_f64().expect("ratio") / slowdown;
                        Some(fixed(id, ratio, 0.0, None, traffic(3.2, 3.2)))
                    })
                    .collect()
            };
            assert!(outcomes(1.0).len() >= 4, "BENCH_{i}");
            assert_eq!(check(&outcomes(1.0), Some(&entry)), vec![], "BENCH_{i}");
            let regressed = check(&outcomes(10.0), Some(&entry));
            assert_eq!(regressed.len(), outcomes(10.0).len(), "BENCH_{i}");
        }
    }

    #[test]
    fn suite_runs_and_produces_sane_ratios() {
        let opts = tiny_opts();
        let benches = run_suite(&opts);
        assert_eq!(benches.len(), 7);
        // The entry this run would append, through the file: the schema of
        // the latest committed entry.
        let dir = std::env::temp_dir().join("gmg_perfgate_schema_test");
        let entry = entry_to_json(&opts, 1, &benches);
        crate::report::save_raw_in(
            &crate::report::ensure_dir(Some(dir.clone())),
            "BENCH_1.json",
            &entry.pretty(),
        );
        let (_, written) = latest_entry(&dir).expect("entry written");
        let (_, mut committed) =
            latest_entry(&committed_bench_dir()).expect("committed trajectory");
        // Rows of benchmarks the suite no longer runs, and the sampled
        // `phase_breakdown` extra it no longer records, stay in the
        // history but say nothing about the schema of a new entry.
        if let Json::Obj(fields) = &mut committed {
            if let Some((_, Json::Arr(rows))) = fields.iter_mut().find(|(k, _)| k == "benchmarks") {
                rows.retain(|r| benches.iter().any(|b| r["id"].as_str() == Some(b.id)));
                for row in rows.iter_mut() {
                    if let Json::Obj(row) = row {
                        for (_, extra) in row.iter_mut().filter(|(k, _)| k == "extra") {
                            if let Json::Obj(extra) = extra {
                                extra.retain(|(k, _)| k != "phase_breakdown");
                            }
                        }
                    }
                }
            }
        }
        assert_eq!(shape(&written), shape(&committed));
        for b in &benches {
            assert!(b.ratio.is_finite() && b.ratio > 0.0, "{}: {:?}", b.id, b);
            assert!(b.baseline.median > 0.0 && b.candidate.median > 0.0);
            // Every entry's extras must name the execution context: the
            // suite only ever runs in-process thread worlds, whatever the
            // environment says (`ranks` depends on the harness).
            assert_eq!(b.extra["transport"].as_str(), Some("thread"), "{}", b.id);
            assert!(b.extra["ranks"].as_u64().is_some(), "{}", b.id);
        }
        // The traffic invariant is deterministic at any size.
        for ms in benches
            .iter()
            .filter(|b| b.id.starts_with("multismooth_fused_vs_sweep"))
        {
            let dpp = ms.extra["fused_doubles_per_point_per_iter"]
                .as_f64()
                .unwrap();
            let expected = ms.extra["expected_doubles_per_point_per_iter"].as_f64();
            assert_eq!(Some(dpp), expected, "{}", ms.id);
            assert!(3.0 < dpp && dpp < 3.25, "{}: {dpp}", ms.id);
        }
    }

    #[test]
    fn injected_slowdown_trips_the_gate() {
        let mk = |ratio: f64| {
            let floor = Some(MULTISMOOTH_FLOOR);
            fixed(
                "multismooth_fused_vs_sweep",
                ratio,
                0.0,
                floor,
                traffic(3.2, 3.2),
            )
        };
        // Healthy: above floor, matches trajectory.
        let prev = entry_to_json(&tiny_opts(), 1, &[mk(1.3)]);
        assert!(check(&[mk(1.3)], Some(&prev)).is_empty());
        // A 30% injected slowdown divides the ratio by 1.3: floor AND
        // trajectory regression both fire.
        let slowed = mk(1.3 / 1.3);
        let v = check(&[slowed], Some(&prev));
        assert_eq!(v.len(), 2, "{v:?}");
        assert!(v[0].what.contains("hard floor"));
        assert!(v[1].what.contains("regressed"));
    }

    #[test]
    fn traffic_invariant_fires_when_model_regresses() {
        // `r` stored on two of a group's four iterations instead of one.
        let bad = fixed(
            "multismooth_fused_vs_sweep",
            2.0,
            0.0,
            None,
            traffic(3.47, 3.23),
        );
        let v = check(&[bad], None);
        assert_eq!(v.len(), 1);
        assert!(v[0].what.contains("doubles/pt"));
    }

    #[test]
    fn noisy_samples_widen_the_tolerance() {
        let noisy = fixed("exchange_packfree_vs_packed", 1.0, 0.08, None, json!({}));
        // 3·max(0.08, 0.08, 0.04) = 24% — above the 10% base tolerance,
        // but the components do not compound.
        assert!((tolerance(&noisy, 0.04) - 0.24).abs() < 1e-12);
    }

    #[test]
    fn stats_record_quantiles_and_histogram() {
        let s = stats_of(&[0.001, 0.002, 0.003, 0.010]);
        assert_eq!(s.hist.count(), 4);
        assert!(s.p50 <= s.p90 && s.p90 <= s.p99, "{s:?}");
        // Quantiles are bucket-midpoint estimates clamped to the observed
        // sample range [1ms, 10ms].
        assert!(s.p50 >= 0.0009 && s.p99 <= 0.0101, "{s:?}");
        let entry = entry_to_json(
            &tiny_opts(),
            1,
            &[BenchOut {
                id: "exchange_packfree_vs_packed",
                baseline_label: "b",
                candidate_label: "c",
                baseline: s.clone(),
                candidate: s.clone(),
                ratio: 1.0,
                floor: None,
                extra: json!({}),
            }],
        );
        assert_eq!(entry["schema"].as_u64(), Some(2));
        let row = &entry["benchmarks"].as_arr().unwrap()[0];
        assert_eq!(row["candidate_hist"]["count"].as_u64(), Some(4));
        assert!(row["candidate_p99"].as_f64().unwrap() > 0.0);
        // The sparse bucket pairs reconstruct the identical histogram.
        let h = &row["candidate_hist"];
        let pairs: Vec<(usize, u64)> = h["buckets"]
            .as_arr()
            .unwrap()
            .iter()
            .map(|p| {
                let p = p.as_arr().unwrap();
                (p[0].as_u64().unwrap() as usize, p[1].as_u64().unwrap())
            })
            .collect();
        let rebuilt = gmg_metrics::Histogram::from_parts(
            &pairs,
            h["count"].as_u64().unwrap(),
            h["sum_ns"].as_u64().unwrap(),
            h["min_ns"].as_u64().unwrap(),
            h["max_ns"].as_u64().unwrap(),
        )
        .unwrap();
        assert_eq!(rebuilt, s.hist);
    }

    #[test]
    fn schema1_trajectory_entries_still_gate() {
        // BENCH_1 predates the quantile/histogram fields; the gate must
        // read it exactly as before.
        let prev = Json::parse(
            r#"{"schema":1,"entry":1,"benchmarks":[
                {"id":"exchange_packfree_vs_packed","ratio":1.2,"rel_mad":0.0}]}"#,
        )
        .unwrap();
        let mk = |ratio: f64| fixed("exchange_packfree_vs_packed", ratio, 0.0, None, json!({}));
        assert!(check(&[mk(1.19)], Some(&prev)).is_empty());
        let v = check(&[mk(0.9)], Some(&prev));
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].what.contains("regressed"));
    }

    #[test]
    fn trajectory_files_index_and_roundtrip() {
        let dir = std::env::temp_dir().join("gmg_perfgate_test");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        assert!(latest_entry(&dir).is_none());
        let opts = tiny_opts();
        // Fixed outcomes, not a timed run: what is under test is the file
        // format and the gate arithmetic, not this host's speed.
        let b = [
            fixed("applyop_bricked_vs_array", 0.9, 0.02, None, json!({})),
            fixed(
                "multismooth_fused_vs_sweep",
                1.22,
                0.02,
                Some(MULTISMOOTH_FLOOR),
                traffic(3.2, 3.2),
            ),
            fixed("exchange_packfree_vs_packed", 0.95, 0.02, None, json!({})),
        ];
        for i in 1..=2u64 {
            let entry = entry_to_json(&opts, i, &b);
            crate::report::save_raw_in(&dir, &format!("BENCH_{i}.json"), &entry.pretty());
        }
        let (i, v) = latest_entry(&dir).unwrap();
        assert_eq!(i, 2);
        assert_eq!(v["entry"].as_u64(), Some(2));
        let rows = v["benchmarks"].as_arr().unwrap();
        assert_eq!(rows.len(), b.len());
        for (row, bench) in rows.iter().zip(&b) {
            assert_eq!(row["id"].as_str(), Some(bench.id));
            assert_eq!(row["ratio"].as_f64(), Some(bench.ratio));
            assert_eq!(row["rel_mad"].as_f64(), Some(0.02));
            assert_eq!(row["floor"].as_f64(), Some(bench.floor.unwrap_or(0.0)));
        }
        // And the same outcomes gate cleanly against their own entry.
        let violations = check(&b, Some(&v));
        assert!(violations.is_empty(), "{violations:?}");
    }
}
