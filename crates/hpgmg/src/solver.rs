//! The conventional-layout GMG solver (numerically identical to
//! `gmg-core`'s bricked solver).

use gmg_comm::runtime::{exchange_array, RankCtx};
use gmg_core::timers::OpTimer;
use gmg_core::trace::op_counters;
use gmg_core::PoissonProblem;
use gmg_mesh::{Array3, Box3, Decomposition, Point3};
use gmg_stencil::exec_array::apply_star7_array;
use gmg_stencil::{OpKind, VcycleSchedule, VcycleShape, VcycleStep};
use gmg_trace::probe;
use std::time::Instant;

/// One level of the conventional hierarchy.
struct ArrayLevel {
    decomp: Decomposition,
    owned: Box3,
    x: Array3<f64>,
    b: Array3<f64>,
    ax: Array3<f64>,
    r: Array3<f64>,
    alpha: f64,
    beta: f64,
    gamma: f64,
}

impl ArrayLevel {
    fn new(decomp: Decomposition, rank: usize, h: f64) -> Self {
        let owned = decomp.subdomain(rank);
        Self {
            decomp,
            owned,
            x: Array3::new(owned, 1),
            b: Array3::new(owned, 1),
            ax: Array3::new(owned, 1),
            r: Array3::new(owned, 1),
            alpha: -6.0 / (h * h),
            beta: 1.0 / (h * h),
            gamma: h * h / 12.0,
        }
    }

    fn apply_op(&mut self) {
        apply_star7_array(&mut self.ax, &self.x, self.alpha, self.beta, self.owned);
    }

    /// Pointwise triad over the owned region:
    /// `f(&mut out, a, b)` per cell. Out must share the storage box with
    /// `a` and `b` (all level fields do).
    fn pointwise(
        out: &mut Array3<f64>,
        a: &Array3<f64>,
        b: &Array3<f64>,
        region: Box3,
        f: impl Fn(&mut f64, f64, f64),
    ) {
        if region.is_empty() {
            return;
        }
        let (sa, sb) = (a.as_slice(), b.as_slice());
        let n = (region.hi.x - region.lo.x) as usize;
        for z in region.lo.z..region.hi.z {
            for y in region.lo.y..region.hi.y {
                let g = a.offset(Point3::new(region.lo.x, y, z));
                let row = &mut out.as_mut_slice()[g..g + n];
                for i in 0..n {
                    f(&mut row[i], sa[g + i], sb[g + i]);
                }
            }
        }
    }

    fn smooth(&mut self) {
        let gamma = self.gamma;
        Self::pointwise(
            &mut self.x,
            &self.ax,
            &self.b,
            self.owned,
            move |x, ax, b| {
                *x += gamma * (ax - b);
            },
        );
    }

    fn smooth_residual(&mut self) {
        let gamma = self.gamma;
        // Two passes (residual then smooth) — the conventional code path;
        // numerics identical to the fused kernel because r uses the same ax.
        Self::pointwise(&mut self.r, &self.ax, &self.b, self.owned, |r, ax, b| {
            *r = b - ax;
        });
        Self::pointwise(
            &mut self.x,
            &self.ax,
            &self.b,
            self.owned,
            move |x, ax, b| {
                *x += gamma * (ax - b);
            },
        );
    }

    fn residual(&mut self) {
        Self::pointwise(&mut self.r, &self.ax, &self.b, self.owned, |r, ax, b| {
            *r = b - ax;
        });
    }

    fn max_norm_r(&self) -> f64 {
        self.r.reduce(self.owned, 0.0, |_, v| v.abs(), f64::max)
    }
}

/// Solver statistics (same shape as the bricked solver's).
#[derive(Clone, Debug)]
pub struct HpgmgStats {
    pub vcycles: usize,
    pub residual_history: Vec<f64>,
    pub converged: bool,
    pub total_seconds: f64,
}

/// Conventional-layout GMG solver for one rank.
pub struct HpgmgSolver {
    levels: Vec<ArrayLevel>,
    pub num_levels: usize,
    pub max_smooths: usize,
    pub bottom_smooths: usize,
    pub tolerance: f64,
    pub max_vcycles: usize,
    /// Per-`(level, op)` timings — the same instrument as the bricked
    /// solver's, so brick-vs-baseline comparisons report per-op
    /// breakdowns, not just wall time.
    pub timers: OpTimer,
    tag_counter: u64,
}

impl HpgmgSolver {
    /// Build the hierarchy and initialize the Poisson right-hand side
    /// (identical model problem to `gmg-core`: the same
    /// [`PoissonProblem::rhs_tables`]).
    pub fn new(
        decomp: Decomposition,
        rank: usize,
        num_levels: usize,
        max_smooths: usize,
        bottom_smooths: usize,
        tolerance: f64,
        max_vcycles: usize,
    ) -> Self {
        let n = decomp.domain().extent().x;
        let h0 = 1.0 / n as f64;
        // Built before the level arrays, as `GmgSolver::new` does.
        let tables = PoissonProblem::new(n).rhs_tables(decomp.subdomain(rank).grow(1));
        let mut levels = Vec::with_capacity(num_levels);
        let mut d = decomp;
        for li in 0..num_levels {
            levels.push(ArrayLevel::new(d.clone(), rank, h0 * (1 << li) as f64));
            if li + 1 < num_levels {
                d = d.coarsen(2);
            }
        }
        let b = &mut levels[0].b;
        b.for_each_mut(b.storage_box(), |p, v| *v = tables.rhs(p));
        Self {
            levels,
            num_levels,
            max_smooths,
            bottom_smooths,
            tolerance,
            max_vcycles,
            timers: OpTimer::new(),
            tag_counter: 0,
        }
    }

    fn next_tag(&mut self) -> u64 {
        self.tag_counter += 1;
        self.tag_counter
    }

    fn exchange_x(&mut self, ctx: &mut RankCtx, li: usize) {
        let tag = self.next_tag();
        let op = probe::op(li, "exchange").points(0, op_counters);
        let level = &mut self.levels[li];
        let d = level.decomp.clone();
        exchange_array(ctx, &d, &mut level.x, 1, tag);
        self.timers.close(op);
    }

    /// One V-cycle: [`VcycleSchedule`]'s steps without communication
    /// avoiding, on a depth-1 ghost shell on all three axes — an exchange
    /// before every smooth, the paper's op mix kernel for kernel.
    fn vcycle(&mut self, ctx: &mut RankCtx) {
        let shape = VcycleShape::halving(
            self.levels[0].owned.extent(),
            self.num_levels,
            1,
            self.max_smooths,
            self.bottom_smooths,
            false,
        );
        VcycleSchedule::new(shape).vcycle(|step| match step {
            VcycleStep::Exchange { level } => self.exchange_x(ctx, level),
            VcycleStep::Smooth { .. } => {}
            VcycleStep::Kernel { level, op, points } => {
                // Inter-level ops count per *coarse* point (Table IV
                // convention).
                let per_coarse = op.traffic().coarse_granularity;
                let points = if per_coarse { points / 8 } else { points };
                let span = probe::op(level, op.name()).points(points as u64, op_counters);
                let (fine, coarse) = self.levels.split_at_mut(level + 1);
                match op {
                    OpKind::ApplyOp => fine[level].apply_op(),
                    OpKind::Smooth => fine[level].smooth(),
                    OpKind::SmoothResidual => fine[level].smooth_residual(),
                    OpKind::Restriction => restrict_array(&fine[level], &mut coarse[0]),
                    OpKind::InterpolationIncrement => {
                        interpolate_increment_array(&coarse[0], &mut fine[level])
                    }
                }
                self.timers.close(span);
            }
            VcycleStep::InitZero { level, .. } => {
                let points = self.levels[level].owned.volume() as u64;
                let span = probe::op(level, "initZero").points(points, op_counters);
                self.levels[level].x.fill(0.0);
                self.timers.close(span);
            }
        });
    }

    fn max_norm_residual(&mut self, ctx: &mut RankCtx) -> f64 {
        self.exchange_x(ctx, 0);
        let level = &mut self.levels[0];
        level.apply_op();
        level.residual();
        let local = level.max_norm_r();
        ctx.allreduce_max(local)
    }

    /// Algorithm 1: V-cycle to convergence.
    pub fn solve(&mut self, ctx: &mut RankCtx) -> HpgmgStats {
        let t0 = Instant::now();
        let r0 = self.max_norm_residual(ctx);
        let mut history = vec![r0];
        let mut converged = r0 < self.tolerance;
        let mut vcycles = 0;
        while !converged && vcycles < self.max_vcycles {
            self.vcycle(ctx);
            vcycles += 1;
            let r = self.max_norm_residual(ctx);
            history.push(r);
            converged = r < self.tolerance;
        }
        HpgmgStats {
            vcycles,
            residual_history: history,
            converged,
            total_seconds: t0.elapsed().as_secs_f64(),
        }
    }
}

fn restrict_array(fine: &ArrayLevel, coarse: &mut ArrayLevel) {
    let owned = coarse.owned;
    let fr = &fine.r;
    owned.for_each(|c| {
        let mut sum = 0.0;
        for dz in 0..2 {
            for dy in 0..2 {
                for dx in 0..2 {
                    sum += fr[Point3::new(2 * c.x + dx, 2 * c.y + dy, 2 * c.z + dz)];
                }
            }
        }
        coarse.b[c] = 0.125 * sum;
    });
}

fn interpolate_increment_array(coarse: &ArrayLevel, fine: &mut ArrayLevel) {
    let owned = fine.owned;
    let cx = &coarse.x;
    owned.for_each(|p| fine.x[p] += cx[p.div_floor(Point3::splat(2))]);
}

#[cfg(test)]
mod tests {
    use super::*;
    use gmg_comm::runtime::RankWorld;

    fn run(n: i64, grid: Point3, levels: usize, vcycles: usize) -> Vec<HpgmgStats> {
        let decomp = Decomposition::new(Box3::cube(n), grid);
        let ranks = decomp.num_ranks();
        let d = &decomp;
        RankWorld::run(ranks, move |mut ctx| {
            let mut s = HpgmgSolver::new(d.clone(), ctx.rank(), levels, 8, 50, 0.0, vcycles);
            s.solve(&mut ctx)
        })
    }

    #[test]
    fn baseline_converges() {
        let decomp = Decomposition::single(Box3::cube(32));
        let d = &decomp;
        let out = RankWorld::run(1, move |mut ctx| {
            let mut s = HpgmgSolver::new(d.clone(), ctx.rank(), 3, 8, 50, 1e-9, 30);
            s.solve(&mut ctx)
        });
        assert!(out[0].converged, "history {:?}", out[0].residual_history);
    }

    #[test]
    fn residual_monotone_multi_rank() {
        let out = run(16, Point3::splat(2), 2, 5);
        for s in out {
            for w in s.residual_history.windows(2) {
                assert!(w[1] < w[0], "{:?}", s.residual_history);
            }
        }
    }

    #[test]
    fn exchange_time_is_tracked() {
        let decomp = Decomposition::new(Box3::cube(16), Point3::new(2, 1, 1));
        let d = &decomp;
        RankWorld::run(2, move |mut ctx| {
            let mut s = HpgmgSolver::new(d.clone(), ctx.rank(), 2, 8, 50, 0.0, 2);
            let stats = s.solve(&mut ctx);
            let exchange: f64 = (0..2).map(|l| s.timers.total(l, "exchange")).sum();
            assert!(exchange > 0.0);
            assert!(exchange < stats.total_seconds);
        });
    }

    #[test]
    fn baseline_reports_per_op_timer_breakdown() {
        let decomp = Decomposition::new(Box3::cube(16), Point3::splat(1));
        let d = &decomp;
        let smooths = 8;
        RankWorld::run(1, move |mut ctx| {
            let mut s = HpgmgSolver::new(d.clone(), ctx.rank(), 2, smooths, 50, 0.0, 1);
            s.solve(&mut ctx);
            // One V-cycle: pre+post smooth at level 0, bottom at level 1.
            assert_eq!(s.timers.count(0, "applyOp"), 2 * smooths);
            assert_eq!(s.timers.count(0, "smooth+residual"), 2 * smooths);
            assert_eq!(s.timers.count(1, "smooth"), 50);
            assert_eq!(s.timers.count(0, "restriction"), 1);
            assert_eq!(s.timers.count(0, "interpolation+increment"), 1);
            assert_eq!(s.timers.count(1, "initZero"), 1);
            // Exchange every smooth (no CA), plus the residual checks.
            assert!(s.timers.count(0, "exchange") >= 2 * smooths + 2);
            // The per-op rows account for most of the exchange wall time.
            assert!(s.timers.level_total(0) > 0.0);
        });
    }

    #[test]
    fn baseline_trace_shows_pack_unpack_attribution() {
        // The Figure 4 attribution gap: the baseline's exchange cost is
        // dominated by pack/unpack staging. A trace of the distributed
        // baseline must carry comm-track pack and unpack spans alongside
        // the compute rows.
        let decomp = Decomposition::new(Box3::cube(16), Point3::new(2, 1, 1));
        let d = &decomp;
        let (_, trace) = gmg_trace::capture(|| {
            RankWorld::run(2, move |mut ctx| {
                let mut s = HpgmgSolver::new(d.clone(), ctx.rank(), 2, 4, 10, 0.0, 1);
                s.solve(&mut ctx)
            });
        });
        assert_eq!(trace.ranks().len(), 2);
        for rank in trace.ranks() {
            let comm_ops: Vec<_> = trace
                .track_events(rank, gmg_trace::Track::Comm)
                .iter()
                .map(|e| e.op.name())
                .collect();
            for needed in ["pack", "send", "recv", "unpack"] {
                assert!(comm_ops.contains(&needed), "rank {rank} missing {needed}");
            }
            let compute_ops: Vec<_> = trace
                .track_events(rank, gmg_trace::Track::Compute)
                .iter()
                .map(|e| e.op.name())
                .collect();
            for needed in ["applyOp", "smooth+residual", "restriction", "exchange"] {
                assert!(
                    compute_ops.contains(&needed),
                    "rank {rank} missing {needed}"
                );
            }
        }
        // Aggregation sees both solvers' worth of message traffic.
        let summary = gmg_trace::TraceSummary::from_trace(&trace);
        assert!(summary.comm.messages > 0);
        assert!(summary.comm.message_bytes > 0);
    }

    #[test]
    fn trace_counters_match_stencil_analysis_exactly() {
        // The smoothing region is exactly the owned box (16³ = 4096 points
        // on one rank), so every traced applyOp span must carry byte/FLOP
        // counters equal to the gmg-stencil static analysis — exactly, not
        // approximately.
        let decomp = Decomposition::single(Box3::cube(16));
        let d = &decomp;
        let smooths = 8;
        let (_, trace) = gmg_trace::capture(|| {
            RankWorld::run(1, move |mut ctx| {
                let mut s = HpgmgSolver::new(d.clone(), ctx.rank(), 2, smooths, 50, 0.0, 1);
                s.solve(&mut ctx);
            });
        });
        let analysis = gmg_stencil::ops::apply_op_def().analysis();
        let points = 16u64 * 16 * 16;
        let applies: Vec<_> = trace
            .events
            .iter()
            .filter(|e| e.level == 0 && e.op.name() == "applyOp")
            .collect();
        assert_eq!(applies.len(), 2 * smooths);
        for e in &applies {
            assert_eq!(e.counters.stencil_points, points);
            assert_eq!(e.counters.flops, analysis.flops_per_point as u64 * points);
            assert_eq!(
                e.counters.bytes_read + e.counters.bytes_written,
                analysis.doubles_moved_per_point as u64 * 8 * points
            );
        }
        // And in aggregate.
        let total = trace.counters_where(|e| e.level == 0 && e.op.name() == "applyOp");
        let n = applies.len() as u64;
        assert_eq!(total.flops, n * analysis.flops_per_point as u64 * points);
        assert_eq!(
            total.bytes_read + total.bytes_written,
            n * analysis.doubles_moved_per_point as u64 * 8 * points
        );
    }

    #[test]
    fn one_self_exchange_span_per_exchange() {
        // On one rank all 26 directions wrap onto the rank itself: each
        // `exchange` op records one `self-exchange` span covering them all,
        // with the bytes of every direction's halo summed.
        let n = 16i64;
        let decomp = Decomposition::single(Box3::cube(n));
        let d = &decomp;
        let (_, trace) = gmg_trace::capture(|| {
            RankWorld::run(1, move |mut ctx| {
                let mut s = HpgmgSolver::new(d.clone(), ctx.rank(), 2, 4, 10, 0.0, 1);
                s.solve(&mut ctx)
            });
        });
        let count = |op: &str| trace.events.iter().filter(|e| e.op.name() == op).count();
        assert!(count("exchange") > 0);
        assert_eq!(count("self-exchange"), count("exchange"));
        // The halo of a depth-1 shell around each level's owned box.
        let halo = |n: i64| ((n + 2).pow(3) - n.pow(3)) as u64 * 8;
        for e in trace
            .events
            .iter()
            .filter(|e| e.op.name() == "self-exchange")
        {
            let bytes = e.counters.bytes_read;
            assert!(bytes == halo(n) || bytes == halo(n / 2), "{bytes} B");
        }
    }
}
