//! The six solve workloads and the repetition loop every rank runs.

use crate::layers;
use crate::rhs::Rhs;
use crate::stats::Samples;
use gmg_brick::BrickedField;
use gmg_comm::runtime::{RankCtx, RankWorld};
use gmg_comm::{ProcessWorld, SocketKind};
use gmg_core::{GmgSolver, SolverConfig};
use gmg_hpgmg::HpgmgSolver;
use gmg_mesh::{Box3, Decomposition, Point3};
use std::time::{Duration, Instant};

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Solver {
    /// `gmg_core::GmgSolver`, `SolverConfig::paper_default()` except `num_levels`.
    Brick,
    /// `gmg_hpgmg::HpgmgSolver` (12 smooths, 100 bottom): the conventional-array baseline.
    Hpgmg,
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum World {
    /// `RankWorld` over `ThreadTransport`.
    Thread,
    /// `ProcessWorld` over Unix-domain datagram sockets.
    Proc,
}

pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
    /// Global grid is `n³`.
    pub n: i64,
    /// 1, or 2 as a 2×1×1 process grid.
    pub ranks: usize,
    pub levels: usize,
    pub solver: Solver,
    pub world: World,
    /// Timed repetitions never go below this, whatever `--seconds` says.
    pub min_reps: usize,
    /// `max|b|` of the generated right-hand side. Chosen per grid so the
    /// 1e-10 crossing falls midway (in log space, a factor of 6–10 either
    /// side) between the residuals of two consecutive V-cycles: the count
    /// to tolerance is then a property of the solver, not a coin flip on
    /// the last digit of one residual.
    pub amplitude: f64,
}

pub const TOLERANCE: f64 = 1e-10;
pub const MAX_VCYCLES: usize = 20;
/// Ceiling on repetitions, so a fast host cannot turn a run into
/// thousands of samples and minutes of checking.
const MAX_REPS: usize = 400;

pub const WORKLOADS: [Workload; 6] = [
    Workload {
        name: "solve128_r1",
        why: "Kernel-bound: 128^3 on one rank, ~85% of the solve in gmg-stencil/gmg-brick smoothing on level 0, only self-exchange; a kernel or layout change shows here, a comm change does not.",
        n: 128,
        ranks: 1,
        levels: 5,
        solver: Solver::Brick,
        world: World::Thread,
        min_reps: 4,
        amplitude: 5.5,
    },
    Workload {
        name: "solve128_r2_thread",
        why: "Strong-scaling twin of solve128_r1: 2x1x1 thread ranks add real halo exchange, allreduce and shared memory bandwidth; fused-vs-sweep and CA-depth choices flip sign here.",
        n: 128,
        ranks: 2,
        levels: 5,
        solver: Solver::Brick,
        world: World::Thread,
        min_reps: 3,
        amplitude: 5.5,
    },
    Workload {
        name: "solve256_r2_thread",
        why: "DRAM-streaming: 256^3 on 2 thread ranks, ~640 MB of fields that no cache holds; prefetch, NT-store and row-shape work must show here, cache-tiling tricks may not.",
        n: 256,
        ranks: 2,
        levels: 6,
        solver: Solver::Brick,
        world: World::Thread,
        min_reps: 1,
        amplitude: 1.8,
    },
    Workload {
        name: "solve64_r2_proc",
        why: "Transport-bound: 64^3 on 2 OS-process ranks over UDS datagrams; frame codec, sockets, ARQ bookkeeping and heartbeat dominate, kernels are the thread runs' code.",
        n: 64,
        ranks: 2,
        levels: 4,
        solver: Solver::Brick,
        world: World::Proc,
        min_reps: 3,
        amplitude: 0.31,
    },
    Workload {
        name: "solve32_r2_thread",
        why: "Latency-bound coarse-grid regime: 32^3 on 2 thread ranks, ~ms V-cycles made of per-op overhead (index setup, tile staging, exchange latency, instrumentation fan-out); stencil throughput is irrelevant.",
        n: 32,
        ranks: 2,
        levels: 3,
        solver: Solver::Brick,
        world: World::Thread,
        min_reps: 20,
        amplitude: 3.1,
    },
    Workload {
        name: "hpgmg128_r1",
        why: "Conventional-array baseline of Fig. 4 on the 128^3 problem: exec_array, pack/unpack exchange_array, exchange every smooth; a brick speed-up bought by slowing shared array paths shows as a loss here.",
        n: 128,
        ranks: 1,
        levels: 5,
        solver: Solver::Hpgmg,
        world: World::Thread,
        min_reps: 3,
        amplitude: 1.0,
    },
];

pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// What one world run is asked to do; travels to child rank processes
/// as a string.
#[derive(Clone, Copy)]
pub struct RunSpec {
    pub workload: &'static Workload,
    pub seed: u64,
    /// Time box for the timed repetitions (never cuts below `min_reps`).
    pub seconds: f64,
    /// Alternate untraced and traced repetitions and compute the
    /// per-layer metrics from the traced ones.
    pub traced: bool,
}

impl RunSpec {
    pub fn encode(&self) -> String {
        format!("{} {} {} {}", self.workload.name, self.seed, self.seconds, self.traced as u8)
    }

    pub fn decode(s: &str) -> Option<RunSpec> {
        let f: Vec<&str> = s.split(' ').collect();
        let [name, seed, seconds, traced] = f[..] else {
            return None;
        };
        Some(RunSpec {
            workload: find(name)?,
            seed: seed.parse().ok()?,
            seconds: seconds.parse().ok()?,
            traced: traced == "1",
        })
    }
}

/// Run the spec's world and return one [`Samples`] per rank plus the wall
/// time of the world call itself.
pub fn run_world(spec: &RunSpec) -> Result<(Vec<Samples>, f64), String> {
    let w = spec.workload;
    let t0 = Instant::now();
    let ranks = match w.world {
        World::Thread => {
            RankWorld::try_run(w.ranks, |mut ctx| solve_rank(&mut ctx, spec)).map_err(|f| f.to_string())?
        }
        World::Proc => ProcessWorld::new(w.ranks, "solve")
            .args(&spec.encode())
            .transport(SocketKind::Uds)
            .deadline(Duration::from_secs(170))
            .run()?
            .results
            .iter()
            .map(|s| Samples::decode(s))
            .collect::<Result<_, _>>()?,
    };
    Ok((ranks, t0.elapsed().as_secs_f64()))
}

/// The same decomposition over `ThreadTransport`, warm-up plus the
/// minimum repetitions: the bit-identity reference for a process-world
/// residual history, and a thread-transport time to set beside it.
pub fn run_thread_reference(spec: &RunSpec) -> Result<Vec<Samples>, String> {
    let reference = RunSpec { seconds: 0.0, traced: false, ..*spec };
    RankWorld::try_run(spec.workload.ranks, |mut ctx| solve_rank(&mut ctx, &reference)).map_err(|f| f.to_string())
}

/// Wall times of a world that does nothing: thread spawn and join, or
/// process spawn, HELLO/GO handshake, result collection and reaping.
pub fn noop_world_samples(world: World, ranks: usize, n: usize) -> Result<Vec<f64>, String> {
    (0..n)
        .map(|_| {
            let t0 = Instant::now();
            match world {
                World::Thread => {
                    RankWorld::try_run(ranks, |_ctx| ()).map_err(|f| f.to_string())?;
                }
                World::Proc => {
                    ProcessWorld::new(ranks, "noop").transport(SocketKind::Uds).run()?;
                }
            }
            Ok(t0.elapsed().as_secs_f64())
        })
        .collect()
}

/// A run reports its set-up time from at least this many constructions.
const MIN_SETUP_SAMPLES: usize = 5;

/// The body every rank runs: an untimed warm-up, then fresh-solver
/// repetitions until the time box is used up. Every loop decision is
/// taken on an all-reduced clock so the ranks stay in lockstep.
pub fn solve_rank(ctx: &mut RankCtx, spec: &RunSpec) -> Samples {
    let entered = Instant::now();
    let w = spec.workload;
    let decomp = Decomposition::new(Box3::cube(w.n), Point3::new(w.ranks as i64, 1, 1));
    let rhs = Rhs::new(w.n, spec.seed, w.amplitude);
    let mut out = Samples::default();

    // Warm-up: a whole solve where that is cheap, one V-cycle where a
    // solve costs seconds — enough to fault the code in, size the
    // allocator's arenas and run every level once.
    let warm_cycles = if w.n <= 64 { MAX_VCYCLES } else { 1 };
    let warm_reps = if w.n <= 32 { 5 } else { 1 };
    for _ in 0..warm_reps {
        one_rep(ctx, w, &decomp, &rhs, warm_cycles, false, &mut Samples::default());
    }

    let t_loop = Instant::now();
    let mut reps = 0usize;
    loop {
        // Traced runs pair each untraced repetition with a traced one,
        // so the cost of tracing is measured inside the run.
        let traced_rep = spec.traced && !reps.is_multiple_of(2);
        one_rep(ctx, w, &decomp, &rhs, MAX_VCYCLES, traced_rep, &mut out);
        out.push("traced", traced_rep as u8 as f64);
        reps += 1;
        let elapsed = ctx.allreduce_max(t_loop.elapsed().as_secs_f64());
        // A traced run leaves the other half of its time box to the probes.
        let (min, boxed) = if spec.traced { (2, spec.seconds / 2.0) } else { (w.min_reps, spec.seconds) };
        let paired = !spec.traced || reps.is_multiple_of(2);
        if paired && reps >= min && (elapsed >= boxed || reps >= MAX_REPS) {
            break;
        }
    }
    // Workloads with few repetitions set up a few more times (and drop
    // the solver unused), so set-up time is a median too.
    for _ in reps..MIN_SETUP_SAMPLES {
        out.push("setup_s", build(w, &decomp, ctx.rank(), MAX_VCYCLES).1);
    }
    out.push("inside_s", entered.elapsed().as_secs_f64());
    out.push("peak_rss_mib", crate::host::peak_rss_mib());
    out
}

enum AnySolver {
    Brick(Box<GmgSolver>),
    Hpgmg(Box<HpgmgSolver>),
}

/// Construct the workload's solver for `rank`; the second value is the
/// constructor's wall time, one `setup_s` sample.
fn build(w: &Workload, decomp: &Decomposition, rank: usize, max_vcycles: usize) -> (AnySolver, f64) {
    let t0 = Instant::now();
    let solver = match w.solver {
        Solver::Brick => {
            let config = SolverConfig {
                num_levels: w.levels,
                tolerance: TOLERANCE,
                max_vcycles,
                ..SolverConfig::paper_default()
            };
            AnySolver::Brick(Box::new(GmgSolver::new(decomp.clone(), rank, config)))
        }
        Solver::Hpgmg => AnySolver::Hpgmg(Box::new(HpgmgSolver::new(
            decomp.clone(),
            rank,
            w.levels,
            12,
            100,
            TOLERANCE,
            max_vcycles,
        ))),
    };
    (solver, t0.elapsed().as_secs_f64())
}

/// `solve()` under a capture when `traced`, wrapped in the harness's own
/// span so the per-layer fractions have their denominator in the trace.
fn timed_solve<S>(rank: usize, traced: bool, solve: impl FnOnce() -> S) -> (S, Option<gmg_trace::Trace>) {
    if !traced {
        return (solve(), None);
    }
    let (stats, trace) = gmg_trace::capture(|| {
        let _solve = gmg_trace::span(rank, gmg_trace::LEVEL_NONE, layers::SOLVE_SPAN, gmg_trace::Track::Compute);
        solve()
    });
    (stats, Some(trace))
}

/// One repetition: a fresh solver, the generated input, one solve, the
/// error check — each pushed into `out` as this repetition's sample. A
/// traced repetition also pushes its per-layer samples.
fn one_rep(
    ctx: &mut RankCtx,
    w: &Workload,
    decomp: &Decomposition,
    rhs: &Rhs,
    max_vcycles: usize,
    traced: bool,
    out: &mut Samples,
) {
    let rank = ctx.rank();
    let (solver, setup_s) = build(w, decomp, rank, max_vcycles);
    out.push("setup_s", setup_s);
    let mut record = |seconds: f64, vcycles: usize, converged: bool, history: Vec<f64>, rel_error: f64| {
        out.set(&format!("hist{}", out.get("solve_s").len()), history);
        out.push("solve_s", seconds);
        out.push("vcycles", vcycles as f64);
        out.push("converged", converged as u8 as f64);
        out.push("rel_error", rel_error);
    };
    match solver {
        AnySolver::Brick(mut s) => {
            // The generated input: owned cells and the ghost shell, the
            // way the constructor fills its own right-hand side.
            s.levels[0].b = BrickedField::from_fn(s.levels[0].layout.clone(), |p| rhs.b(p));
            ctx.barrier();
            let (stats, trace) = timed_solve(rank, traced, || s.solve(ctx));
            // Max error against the harness's exact discrete solution,
            // relative to its scale.
            let err = s.levels[0].max_error(|p| rhs.exact(p)) / rhs.exact_scale();
            record(stats.total_seconds, stats.vcycles, stats.converged, stats.residual_history, err);
            if let Some(trace) = trace {
                layers::record(out, "core", &s.timers, &trace, stats.vcycles, rank);
            }
        }
        AnySolver::Hpgmg(mut s) => {
            ctx.barrier();
            let (stats, trace) = timed_solve(rank, traced, || s.solve(ctx));
            // Its levels are private: no field to compare, error reads 0.
            record(stats.total_seconds, stats.vcycles, stats.converged, stats.residual_history, 0.0);
            if let Some(trace) = trace {
                layers::record(out, "hpgmg", &s.timers, &trace, stats.vcycles, rank);
            }
        }
    }
}
