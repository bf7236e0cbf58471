//! The geometric multigrid solver: Algorithm 1 (solve loop) and
//! Algorithm 2 (V-cycle) from the paper, distributed over the rank runtime.

use crate::diagnostics::{HealthMonitor, LocalNorms, RecoveryPolicy, SolveHealth};
use crate::level::{interpolation_increment, Level};
use crate::ops::{try_exchange_b, try_exchange_x, try_max_norm_residual};
use crate::problem::PoissonProblem;
use crate::rejoin::{RejoinStore, SolverCheckpoint};
use crate::timers::OpTimer;
use crate::trace::op_counters;
use gmg_brick::{BrickOrdering, BrickShape};
use gmg_comm::runtime::RankCtx;
use gmg_comm::CommError;
use gmg_mesh::Decomposition;
use gmg_stencil::{OpKind, VcycleSchedule, VcycleShape, VcycleStep};
use gmg_trace::probe::{self, Kind};
use gmg_trace::Counters;
use std::time::Instant;

/// Communication-avoiding smooth iterations grouped into
/// one call of the one-pass smoother (`gmg_stencil::exec_fused`, one
/// `fusedSmooth` timer row per group), ghost margin permitting.
const FUSED_GROUP: usize = 4;

/// Rollbacks a [`RecoveryPolicy::Rollback`] solve may spend; the next
/// unhealthy verdict stops it on its best iterate.
const MAX_ROLLBACKS: usize = 2;

/// Solver configuration (the artifact's command-line parameters).
#[derive(Clone, Copy, Debug)]
pub struct SolverConfig {
    /// V-cycle depth (`-l 6` in the artifact: levels 0..=5).
    pub num_levels: usize,
    /// Smooth iterations per level on both sweeps (12 in the paper).
    pub max_smooths: usize,
    /// Smooth iterations of the bottom solver (100 in the paper).
    pub bottom_smooths: usize,
    /// Convergence: max-norm residual threshold (1e-10 in the paper).
    pub tolerance: f64,
    /// Maximum V-cycles (`-n 20`).
    pub max_vcycles: usize,
    /// Deep-ghost communication-avoiding smoothing (Section V). Without it
    /// every smoothing iteration follows its own exchange.
    pub communication_avoiding: bool,
    /// Brick side: 2, 4 or 8 (8 on Perlmutter/Frontier, 4 on Sunspot), shrunk
    /// per level to its smallest extent. `GmgSolver::new` rejects a level
    /// width with no star-7 kernel ([`BrickShape`]), or an odd one that restricts.
    pub brick_dim: i64,
    /// Physical brick ordering.
    pub ordering: BrickOrdering,
    /// What to do when the health guards detect divergence or a
    /// non-finite residual mid-solve.
    pub recovery: RecoveryPolicy,
}

impl Default for SolverConfig {
    fn default() -> Self {
        Self::paper_default()
    }
}

impl SolverConfig {
    /// The paper's configuration for the 8-node experiments, scaled-down
    /// brick-compatible defaults.
    pub fn paper_default() -> Self {
        Self {
            num_levels: 6,
            max_smooths: 12,
            bottom_smooths: 100,
            tolerance: 1e-10,
            max_vcycles: 20,
            communication_avoiding: true,
            brick_dim: 8,
            ordering: BrickOrdering::SurfaceMajor,
            recovery: RecoveryPolicy::Abort,
        }
    }

    /// A small configuration suitable for tests: shallower hierarchy,
    /// smaller bricks.
    pub fn test_default() -> Self {
        Self {
            num_levels: 3,
            max_smooths: 8,
            bottom_smooths: 50,
            tolerance: 1e-9,
            max_vcycles: 30,
            communication_avoiding: true,
            brick_dim: 4,
            ordering: BrickOrdering::SurfaceMajor,
            recovery: RecoveryPolicy::Abort,
        }
    }
}

/// Result of a solve.
#[derive(Clone, Debug)]
pub struct SolveStats {
    /// V-cycles executed.
    pub vcycles: usize,
    /// Residual max-norm after each V-cycle (index 0 = initial residual).
    pub residual_history: Vec<f64>,
    /// Whether the tolerance was reached.
    pub converged: bool,
    /// Wall-clock seconds of the solve loop on this rank.
    pub total_seconds: f64,
    /// Health verdict the solve ended with ([`SolveHealth::Healthy`] even
    /// after successful rollbacks — `recoveries` records those).
    pub health: SolveHealth,
    /// Rollback recoveries performed during the solve.
    pub recoveries: usize,
    /// Membership rejoin epochs this rank lived through (elastic
    /// multi-process solves under [`RecoveryPolicy::Rejoin`]; always 0
    /// otherwise). Counts both surviving a peer's death (park + resume)
    /// and being the respawned replacement.
    pub rejoin_epochs: usize,
}

impl SolveStats {
    /// Final residual.
    pub fn final_residual(&self) -> f64 {
        *self.residual_history.last().expect("history non-empty")
    }

    /// Geometric-mean residual reduction factor per V-cycle.
    pub fn mean_reduction(&self) -> f64 {
        let h = &self.residual_history;
        if h.len() < 2 || h[0] == 0.0 {
            return 0.0;
        }
        (h[h.len() - 1] / h[0]).powf(1.0 / (h.len() - 1) as f64)
    }
}

/// See [`GmgSolver::fault_hook`].
pub type FaultHook = Box<dyn FnMut(usize, &mut Level) + Send>;
/// See [`GmgSolver::phase_hook`].
pub type PhaseHook = Box<dyn FnMut(usize, &'static str, usize) + Send>;

/// One rank's multigrid solver state.
pub struct GmgSolver {
    pub problem: PoissonProblem,
    pub config: SolverConfig,
    pub levels: Vec<Level>,
    pub timers: OpTimer,
    /// Deterministic fault hook for tests and chaos campaigns: called
    /// after each V-cycle with `(cycle_index, finest_level)` so the
    /// iterate can be corrupted without a comm layer in the loop.
    pub fault_hook: Option<FaultHook>,
    /// Phase hook for tests and chaos campaigns: called at each V-cycle
    /// phase boundary with `(cycle_index, phase, level)` where `phase` is
    /// one of `"smooth"`, `"restrict"`, `"coarse"`, `"prolong"`. The
    /// rejoin battery uses this to make a rank die at an exact point in
    /// the schedule.
    pub phase_hook: Option<PhaseHook>,
    rank: usize,
    tag_counter: u64,
    /// 1-based index of the cycle currently executing (feeds `phase_hook`).
    current_cycle: usize,
}

impl GmgSolver {
    /// Build the hierarchy for `rank` of `decomp` (the finest-level
    /// decomposition) and initialize the Poisson right-hand side —
    /// including its analytically-known ghost values, which is what lets
    /// level 0 skip a `b` exchange.
    pub fn new(decomp: Decomposition, rank: usize, config: SolverConfig) -> Self {
        let n = decomp.domain().extent();
        assert_eq!(n.x, n.y, "cubic domains only");
        assert_eq!(n.x, n.z, "cubic domains only");
        let problem = PoissonProblem::new(n.x);
        // b on the finest level everywhere (owned + ghost shell, at most a
        // brick deep), from the periodic right-hand side's per-axis
        // tables. They are built before any level field, so that once b is
        // filled and they are freed they leave no hole between the level
        // buffers of the no-trim heap (`keep_freed_memory`).
        let tables = problem.rhs_tables(decomp.subdomain(rank).grow(config.brick_dim));
        let mut levels = Vec::with_capacity(config.num_levels);
        let mut d = decomp;
        for li in 0..config.num_levels {
            let e = d.sub_extent();
            // Bricks shrink with the subdomain on very coarse levels so the
            // hierarchy can go as deep as the geometry allows.
            let bd = config.brick_dim.min(e.x).min(e.y).min(e.z);
            assert!(
                BrickShape::try_of(bd).is_some(),
                "level {li}: no star-7 kernel for {bd}-wide bricks (subdomain {e:?})"
            );
            // Its pre-smooth restricts, folding whole coarse cells out of
            // each fine brick.
            assert!(
                li + 1 == config.num_levels || (bd % 2 == 0 && config.max_smooths > 0),
                "level {li} restricts in its pre-smooth: it needs smooths and even bricks, not {bd}-wide"
            );
            for a in 0..3 {
                assert_eq!(
                    e[a] % bd,
                    0,
                    "level {li} subdomain {e:?} not brick-aligned (brick {bd})"
                );
            }
            levels.push(Level::new(
                &problem,
                d.clone(),
                rank,
                li,
                bd,
                config.ordering,
            ));
            if li + 1 < config.num_levels {
                d = d.coarsen(2);
            }
        }
        levels[0].b.fill_with(|p| tables.rhs(p));
        Self {
            problem,
            config,
            levels,
            timers: OpTimer::new(),
            fault_hook: None,
            phase_hook: None,
            rank,
            tag_counter: 0,
            current_cycle: 0,
        }
    }

    /// This rank's id.
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Advance and return the exchange tag counter.
    fn next_tag(&mut self) -> u64 {
        self.tag_counter += 1;
        self.tag_counter
    }

    /// The shape of this rank's hierarchy — the V-cycle [`VcycleSchedule`]
    /// walks for [`GmgSolver::vcycle`] and the simulators price. Built from
    /// the levels and the current config on every call: a rollback doubles
    /// `max_smooths` mid-solve.
    pub fn shape(&self) -> VcycleShape {
        VcycleShape {
            extents: self.levels.iter().map(|l| l.owned.extent()).collect(),
            ghost_depth: self.levels.iter().map(|l| l.ghost_cells()).collect(),
            halo_axes: self.levels[0].layout.wrap().map(|w| !w),
            smooths: self.config.max_smooths,
            bottom_smooths: self.config.bottom_smooths,
            communication_avoiding: self.config.communication_avoiding,
        }
    }

    /// Run `its` smoothing iterations of level `li` from a schedule step
    /// reaching `reach` as one call of the one-pass smoother
    /// (`gmg_stencil::exec_fused`, one `fusedSmooth` timer row), and leave
    /// the margin the walker does. A group that feeds restriction
    /// (`restrict`) restricts its last iteration's residual as it goes,
    /// into level `li + 1`'s `b`.
    fn smooth_group(&mut self, li: usize, reach: i64, its: usize, restrict: bool) {
        let (fine, coarse) = self.levels.split_at_mut(li + 1);
        let level = &mut fine[li];
        debug_assert!(
            !level.has_halo() || reach <= level.margin,
            "level {li}: the schedule reaches {reach} cells into a margin of {}",
            level.margin
        );
        let region = level.layout.grow_halo(level.owned, reach - 1);
        let mut op = probe::op(li, "fusedSmooth");
        let gamma = level.gamma;
        let stats = if restrict {
            level.fused_multi_smooth_restrict(region, its, gamma, &mut coarse[0])
        } else {
            level.fused_multi_smooth(region, its, gamma, false)
        };
        // The kernel's own counters: the generic per-op tables price
        // one iteration, a group covers `its` shrinking regions.
        op.counters(Counters {
            bytes_read: stats.doubles_read * 8,
            bytes_written: stats.doubles_written * 8,
            flops: stats.flops,
            stencil_points: stats.points_updated,
            ..Default::default()
        });
        self.timers.close(op);
        // 0 at the end of every pass and throughout one without a halo.
        level.margin = (reach - its as i64).max(0);
    }

    /// The convergence check of Algorithm 1 on the finest level, under its
    /// own `residualNorm` timer row: the global max-norm residual and this
    /// rank's residual moments from the same read-only pass.
    fn residual_check(&mut self, ctx: &mut RankCtx) -> Result<(f64, LocalNorms), CommError> {
        let tag = self.next_tag();
        let points = self.levels[0].owned.volume() as u64;
        let op = probe::op(0, "residualNorm").points(points, op_counters);
        let out = try_max_norm_residual(ctx, &mut self.levels[0], tag)?;
        self.timers.close(op);
        Ok(out)
    }

    /// Fire the phase hook (if any) at a V-cycle phase boundary.
    fn phase_event(&mut self, phase: &'static str, level: usize) {
        let cycle = self.current_cycle;
        if let Some(h) = self.phase_hook.as_mut() {
            h(cycle, phase, level);
        }
    }

    /// One V-cycle (Algorithm 2): each coarser level is visited once.
    /// Panicking wrapper around [`GmgSolver::try_vcycle`].
    pub fn vcycle(&mut self, ctx: &mut RankCtx) {
        if let Err(e) = self.try_vcycle(ctx) {
            panic!("comm failure: {e}");
        }
    }

    /// Fallible [`GmgSolver::vcycle`]: comm failures — including the
    /// elastic membership park — surface as errors instead of panics.
    /// Executes [`VcycleSchedule`]'s steps for [`GmgSolver::shape`] from
    /// level 0's actual margin. A run of smoothing steps with no exchange
    /// between them goes in groups of up to four from its front (of one
    /// without communication avoiding); the group before a `Restriction`
    /// makes it as it goes.
    pub fn try_vcycle(&mut self, ctx: &mut RankCtx) -> Result<(), CommError> {
        let mut steps = Vec::new();
        VcycleSchedule::new(self.shape())
            .with_finest_margin(self.levels[0].margin)
            .vcycle(|step| match step {
                // A smoothing iteration executes as its `Smooth` step.
                VcycleStep::Kernel {
                    op: OpKind::ApplyOp | OpKind::Smooth | OpKind::SmoothResidual,
                    ..
                } => {}
                step => steps.push(step),
            });
        let top = self.levels.len() - 1;
        let group = if self.config.communication_avoiding {
            FUSED_GROUP
        } else {
            1
        };
        // `entered`: the levels whose pass down has opened its phase.
        let (mut entered, mut b_next) = (0, false);
        let mut i = 0;
        while let Some(&step) = steps.get(i) {
            i += 1;
            if let VcycleStep::Exchange { level } | VcycleStep::Smooth { level, .. } = step {
                if level == entered && !b_next {
                    self.phase_event(if level == top { "coarse" } else { "smooth" }, level);
                    entered += 1;
                }
            }
            match step {
                VcycleStep::Exchange { level } => {
                    let tag = self.next_tag();
                    let op = probe::op(level, "exchange").points(0, op_counters);
                    if std::mem::take(&mut b_next) {
                        try_exchange_b(ctx, &mut self.levels[level], tag)?;
                    } else {
                        try_exchange_x(ctx, &mut self.levels[level], tag)?;
                    }
                    self.timers.close(op);
                }
                VcycleStep::Smooth { level, reach } => {
                    let start = i - 1;
                    let run = steps[i..].iter().take(group - 1);
                    i += run
                        .take_while(|s| matches!(s, VcycleStep::Smooth { .. }))
                        .count();
                    let next = steps.get(i).copied();
                    let restrict = matches!(
                        next,
                        Some(VcycleStep::Kernel {
                            op: OpKind::Restriction,
                            ..
                        })
                    );
                    self.smooth_group(level, reach, i - start, restrict);
                }
                VcycleStep::Kernel { level, op, .. } => {
                    let restrict = op == OpKind::Restriction;
                    self.phase_event(if restrict { "restrict" } else { "prolong" }, level);
                    if restrict {
                        // Made by the smoothing group before it.
                        continue;
                    }
                    let (fine, coarse) = self.levels.split_at_mut(level + 1);
                    // Inter-level ops count per *coarse* point (Table IV
                    // convention).
                    let points = coarse[0].owned.volume() as u64;
                    let span = probe::op(level, op.name()).points(points, op_counters);
                    interpolation_increment(&coarse[0], &mut fine[level]);
                    self.timers.close(span);
                }
                VcycleStep::InitZero { level, exchange_b } => {
                    let points = self.levels[level].owned.volume() as u64;
                    let op = probe::op(level, "initZero").points(points, op_counters);
                    self.levels[level].init_zero();
                    self.timers.close(op);
                    b_next = exchange_b;
                }
            }
        }
        Ok(())
    }

    /// Mark a health verdict or recovery action on the control plane.
    fn health_event(&self, op: &'static str) {
        probe::event(Kind::Control, op);
    }

    /// React to an unhealthy verdict. Returns the health to carry forward:
    /// `Healthy` when the solve should continue from a restored checkpoint,
    /// the verdict itself when it should stop. Only
    /// [`RecoveryPolicy::Rollback`] holds a `best` checkpoint; without one
    /// the verdict stops the solve (Rejoin handles *process* deaths, so a
    /// numerical fault under it aborts like the baseline policy). Every
    /// branch is driven purely by globally-reduced quantities, so all
    /// ranks take it in lockstep.
    fn attempt_recovery(
        &mut self,
        verdict: SolveHealth,
        best: Option<&SolverCheckpoint>,
        monitor: &mut HealthMonitor,
        recoveries: &mut usize,
    ) -> SolveHealth {
        let (op, detail) = match verdict {
            SolveHealth::NonFinite => ("health:non-finite", "non-finite residual detected"),
            _ => ("health:diverged", "residual divergence detected"),
        };
        self.health_event(op);
        // Black-box the run at the moment of divergence. Every rank
        // reaches this branch in lockstep (the verdict is globally
        // reduced); rank 0 dumps once for the world.
        if self.rank == 0 {
            gmg_flight::dump_installed(op, detail);
        }
        let Some(best) = best else {
            self.health_event("recover:abort");
            return verdict;
        };
        self.restore(best);
        if *recoveries == MAX_ROLLBACKS {
            // Budget spent: stop on the best iterate.
            self.health_event("recover:best-iterate");
            return verdict;
        }
        *recoveries += 1;
        // Retry with twice the sweeps: double the per-level smooths (more
        // damping per cycle, same schedule on every rank).
        self.config.max_smooths *= 2;
        *monitor = HealthMonitor::new(best.residual());
        self.health_event("recover:rollback");
        SolveHealth::Healthy
    }

    /// Algorithm 1: V-cycle until the global max-norm residual drops below
    /// the tolerance (or `max_vcycles` is hit), guarded by the health
    /// watchdog and the configured [`RecoveryPolicy`]. Under
    /// [`RecoveryPolicy::Rejoin`] in a membership world (one OS process
    /// per rank) the solve is *elastic*: it checkpoints every cycle and
    /// survives rank deaths by parking, restoring the world-agreed cycle,
    /// and resuming bit-identically.
    pub fn solve(&mut self, ctx: &mut RankCtx) -> SolveStats {
        let t_start = Instant::now();
        if self.config.recovery == RecoveryPolicy::Rejoin && ctx.membership_active() {
            return self.solve_elastic(ctx, t_start);
        }
        self.solve_cycles(ctx, None, None, t_start)
            .unwrap_or_else(|e| panic!("comm failure: {e}"))
    }

    /// The elastic solve driver: announce (rejoin) or run, and on every
    /// membership park restore the minimum cycle any rank reported and
    /// re-enter the solve loop. Terminates because each epoch either
    /// finishes the solve or is ended by the controller (which gives up
    /// after its rejoin budget).
    fn solve_elastic(&mut self, ctx: &mut RankCtx, t_start: Instant) -> SolveStats {
        let dir = ctx
            .checkpoint_dir()
            .expect("membership worlds provide a checkpoint directory");
        let store = RejoinStore::new(&dir, self.rank)
            .unwrap_or_else(|e| panic!("rank {}: cannot open rejoin store: {e}", self.rank));
        let mut rejoin_epochs = 0usize;
        let mut pending_resume: Option<u64> = None;
        if ctx.membership_rejoining() {
            // A respawned replacement enters through the membership
            // barrier: report the newest locally valid checkpoint, wait
            // for the world-agreed resume point.
            let (_epoch, enc) = ctx.rejoin_ready(store.latest_cycle());
            pending_resume = Some(enc);
            rejoin_epochs += 1;
        }
        loop {
            let start = match pending_resume.take() {
                None => None,
                Some(0) => {
                    // No rank had a usable checkpoint: restart from the
                    // zero guess, exactly like a fresh solve.
                    self.levels[0].init_zero();
                    self.tag_counter = 0;
                    self.health_event("rejoin:restart");
                    None
                }
                Some(enc) => {
                    let cycle = enc - 1;
                    let ck = store.load(cycle).unwrap_or_else(|| {
                        panic!(
                            "rank {}: world-agreed rejoin checkpoint (cycle {cycle}) is unreadable",
                            self.rank
                        )
                    });
                    self.health_event("rejoin:restore");
                    Some(ck)
                }
            };
            match self.solve_cycles(ctx, start, Some(&store), t_start) {
                Ok(mut stats) => {
                    stats.rejoin_epochs = rejoin_epochs;
                    return stats;
                }
                Err(CommError::Parked { .. }) => {
                    // A peer died; the controller is reconfiguring the
                    // world. Report the newest cycle we can restore and
                    // wait at the membership barrier.
                    let (_epoch, enc) = ctx.park_for_rejoin(store.latest_cycle());
                    rejoin_epochs += 1;
                    pending_resume = Some(enc);
                }
                Err(e) => panic!("comm failure: {e}"),
            }
        }
    }

    /// Snapshot what resuming after the last entry of `history` needs: the
    /// finest level's full `x` storage, its margin and the exchange tag
    /// counter. Taken right after a convergence check, whose exchange left
    /// the ghost shell current and the margin at full depth.
    fn checkpoint(&self, history: &[f64]) -> SolverCheckpoint {
        let level = &self.levels[0];
        SolverCheckpoint {
            cycle: (history.len() - 1) as u64,
            tag_counter: self.tag_counter,
            margin: level.margin,
            history: history.to_vec(),
            x: level.x.as_slice().to_vec(),
        }
    }

    /// Restore the finest level and the exchange tag counter from a
    /// checkpoint, bit-exactly and in place: the full bricked storage
    /// (owned + ghosts) and the communication-avoiding margin come back as
    /// saved, so the next exchange happens where it would have after the
    /// checkpointed cycle, with the same tag, on the same data. The
    /// history stays the caller's: a rollback keeps the one it has.
    fn restore(&mut self, ck: &SolverCheckpoint) {
        let level = &mut self.levels[0];
        let dst = level.x.as_mut_slice();
        assert_eq!(
            dst.len(),
            ck.x.len(),
            "checkpoint shape does not match the finest level"
        );
        dst.copy_from_slice(&ck.x);
        level.margin = ck.margin;
        self.tag_counter = ck.tag_counter;
    }

    /// The solve loop proper, from the current iterate or — `start` — from
    /// a restored checkpoint, continuing its history. `store` persists a
    /// durable checkpoint after every healthy cycle and reports solve
    /// progress to the membership heartbeat.
    fn solve_cycles(
        &mut self,
        ctx: &mut RankCtx,
        start: Option<SolverCheckpoint>,
        store: Option<&RejoinStore>,
        t_start: Instant,
    ) -> Result<SolveStats, CommError> {
        let (mut history, mut vcycles) = match start {
            Some(ck) => {
                self.restore(&ck);
                (ck.history, ck.cycle as usize)
            }
            None => (vec![self.residual_check(ctx)?.0], 0),
        };
        let r0 = history[0];
        let r_last = *history.last().expect("history non-empty");
        let mut converged = r_last < self.config.tolerance;
        let mut health = if r_last.is_finite() {
            SolveHealth::Healthy
        } else {
            SolveHealth::NonFinite
        };
        // Replay the (globally agreed) history through a fresh watchdog so
        // a resumed solve carries the exact monitor state the unfaulted
        // run would have at this cycle.
        let mut monitor = HealthMonitor::new(r0);
        for &r in &history[1..] {
            let _ = monitor.observe(r);
        }
        // Rollback's best iterate, seeded with the current one so a
        // first-cycle fault still has somewhere to roll back to.
        let mut best =
            (self.config.recovery == RecoveryPolicy::Rollback).then(|| self.checkpoint(&history));
        let mut recoveries = 0;
        while health == SolveHealth::Healthy && !converged && vcycles < self.config.max_vcycles {
            self.current_cycle = vcycles + 1;
            self.try_vcycle(ctx)?;
            vcycles += 1;
            if let Some(hook) = self.fault_hook.as_mut() {
                hook(vcycles, &mut self.levels[0]);
            }
            let (r, norms) = self.residual_check(ctx)?;
            history.push(r);
            // `max`-reductions silently drop NaN (`f64::max(NaN, x) = x`),
            // so non-finite state is detected through the summing residual
            // norms, which propagate it — and globally, so every rank
            // reaches the same verdict.
            let finite = r.is_finite() && norms.try_global(ctx)?.is_finite();
            let verdict = if finite {
                monitor.observe(r)
            } else {
                SolveHealth::NonFinite
            };
            match verdict {
                SolveHealth::Healthy => {
                    converged = r < self.config.tolerance;
                    // Checkpoint on every cycle that improves on the best.
                    if best.as_ref().is_some_and(|cp| r < cp.residual()) {
                        best = Some(self.checkpoint(&history));
                        self.health_event("health:checkpoint");
                    }
                    if let Some(store) = store {
                        store.save(&self.checkpoint(&history)).unwrap_or_else(|e| {
                            panic!("rank {}: rejoin checkpoint write failed: {e}", self.rank)
                        });
                        self.health_event("rejoin:checkpoint");
                        ctx.membership_progress(vcycles as u64);
                    }
                }
                bad => {
                    health =
                        self.attempt_recovery(bad, best.as_ref(), &mut monitor, &mut recoveries);
                }
            }
        }
        Ok(SolveStats {
            vcycles,
            residual_history: history,
            converged,
            total_seconds: t_start.elapsed().as_secs_f64(),
            health,
            recoveries,
            rejoin_epochs: 0,
        })
    }

    /// Max-norm error of the current iterate against the exact *discrete*
    /// solution (the separable sine divided by the discrete eigenvalue).
    pub fn max_error_vs_discrete(&self) -> f64 {
        let lambda = self.problem.discrete_eigenvalue();
        let b = self.problem.rhs_tables(self.levels[0].owned);
        self.levels[0].max_error(|p| b.rhs(p) / lambda)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gmg_comm::runtime::RankWorld;
    use gmg_mesh::{Box3, Point3};

    fn solve_with(n: i64, grid: Point3, config: SolverConfig) -> Vec<(SolveStats, f64)> {
        let decomp = Decomposition::new(Box3::cube(n), grid);
        let ranks = decomp.num_ranks();
        let d = &decomp;
        RankWorld::run(ranks, move |mut ctx| {
            let mut s = GmgSolver::new(d.clone(), ctx.rank(), config);
            let stats = s.solve(&mut ctx);
            let err = s.max_error_vs_discrete();
            (stats, err)
        })
    }

    #[test]
    fn single_rank_solve_converges() {
        let mut cfg = SolverConfig::test_default();
        cfg.num_levels = 3;
        cfg.tolerance = 1e-9;
        let out = solve_with(32, Point3::splat(1), cfg);
        let (stats, err) = &out[0];
        assert!(stats.converged, "history {:?}", stats.residual_history);
        assert!(stats.vcycles <= 20, "took {} cycles", stats.vcycles);
        // Residual decreases monotonically.
        for w in stats.residual_history.windows(2) {
            assert!(w[1] < w[0], "history {:?}", stats.residual_history);
        }
        // The iterate approaches the exact discrete solution.
        assert!(*err < 1e-10, "discrete error {err}");
    }

    #[test]
    fn multi_rank_solve_matches_single_rank() {
        let mut cfg = SolverConfig::test_default();
        cfg.num_levels = 2;
        cfg.max_vcycles = 6;
        cfg.tolerance = 0.0; // run exactly 6 cycles
        let single = solve_with(16, Point3::splat(1), cfg);
        let multi = solve_with(16, Point3::splat(2), cfg);
        let h1 = &single[0].0.residual_history;
        let h8 = &multi[0].0.residual_history;
        assert_eq!(h1.len(), h8.len());
        for (a, b) in h1.iter().zip(h8) {
            assert!(
                (a - b).abs() <= 1e-9 * a.max(1e-30),
                "histories diverge: {a} vs {b}"
            );
        }
        // All ranks agree on the history.
        for r in &multi[1..] {
            assert_eq!(r.0.residual_history, *h8);
        }
    }

    #[test]
    fn vcycle_beats_smoothing_alone() {
        // A 2-level V-cycle must reduce the residual much faster than the
        // same number of fine-grid smooths.
        let mut cfg = SolverConfig::test_default();
        cfg.num_levels = 2;
        cfg.max_vcycles = 3;
        cfg.tolerance = 0.0;
        let mg = solve_with(16, Point3::splat(1), cfg);
        let mut flat = cfg;
        flat.num_levels = 1;
        flat.bottom_smooths = 2 * cfg.max_smooths + cfg.bottom_smooths; // same work at level 0
        let sm = solve_with(16, Point3::splat(1), flat);
        let mg_red = mg[0].0.final_residual() / mg[0].0.residual_history[0];
        let sm_red = sm[0].0.final_residual() / sm[0].0.residual_history[0];
        assert!(
            mg_red < sm_red * 0.5,
            "multigrid {mg_red:.2e} vs smoothing {sm_red:.2e}"
        );
    }

    #[test]
    fn timers_populated_per_level() {
        // Default config: every smooth iteration runs through the
        // one-pass smoother in groups of `FUSED_GROUP` (bounded by the
        // ghost depth), so the per-iteration applyOp/smooth rows are
        // replaced by one `fusedSmooth` row per group — including the
        // leftover group of one that 9 = 4 + 4 + 1 and 49 = 12·4 + 1 leave.
        let mut cfg = SolverConfig::test_default();
        cfg.max_smooths = 9;
        cfg.bottom_smooths = 49;
        cfg.num_levels = 2;
        cfg.max_vcycles = 1;
        cfg.tolerance = 0.0;
        let decomp = Decomposition::new(Box3::cube(16), Point3::splat(1));
        let d = &decomp;
        RankWorld::run(1, move |mut ctx| {
            let mut s = GmgSolver::new(d.clone(), ctx.rank(), cfg);
            s.solve(&mut ctx);
            // ghost depth (= brick_dim here) caps the fusion depth.
            let group = FUSED_GROUP.min(cfg.brick_dim as usize);
            let groups_of = |n: usize| n.div_ceil(group);
            assert_eq!(
                s.timers.count(0, "fusedSmooth"),
                2 * groups_of(cfg.max_smooths)
            );
            assert_eq!(
                s.timers.count(1, "fusedSmooth"),
                groups_of(cfg.bottom_smooths)
            );
            // The split rows are no solver step.
            for level in 0..2 {
                for op in ["applyOp", "smooth", "smooth+residual"] {
                    assert_eq!(s.timers.count(level, op), 0, "level {level} {op}");
                }
            }
            // The pre-smooth's last group restricts as it goes: no
            // separate restriction pass.
            assert_eq!(s.timers.count(0, "restriction"), 0);
            assert_eq!(s.timers.count(0, "interpolation+increment"), 1);
            // One rank is its own neighbor on every axis: no exchange op.
            assert_eq!(s.timers.count(0, "exchange"), 0);
            assert_eq!(s.timers.count(1, "exchange"), 0);
            assert_eq!(s.timers.count(1, "initZero"), 1);
        });
        // Where a halo exists the grouping is invisible to the numerics
        // (a group is bit-identical to its iterations one by one), so pin
        // it. With a 4-cell margin, `|` an exchange: level 0 smooths
        // 9 = 4 | 4 | 1 both ways, the convergence check's exchange
        // opening the pass down (6 groups, 5 exchanges); level 1 smooths
        // 49 = 4 | 4 | … | 1 behind its `b` exchange (13 and 13).
        for grid in [Point3::new(2, 1, 1), Point3::new(2, 2, 1)] {
            let decomp = Decomposition::new(Box3::cube(16), grid);
            let d = &decomp;
            RankWorld::run(decomp.num_ranks(), move |mut ctx| {
                let mut s = GmgSolver::new(d.clone(), ctx.rank(), cfg);
                s.solve(&mut ctx);
                for (level, groups, exchanges) in [(0, 6, 5), (1, 13, 13)] {
                    assert_eq!(s.timers.count(level, "fusedSmooth"), groups, "{grid:?}");
                    assert_eq!(s.timers.count(level, "exchange"), exchanges, "{grid:?}");
                }
            });
        }
    }

    #[test]
    fn timers_populated_per_level_split_schedule() {
        // Without communication avoiding an exchange precedes every
        // smoothing iteration, and each iteration is one `fusedSmooth`
        // call; the pre-smooth's last restricts as it goes.
        let mut cfg = SolverConfig::test_default();
        cfg.num_levels = 2;
        cfg.max_vcycles = 1;
        cfg.tolerance = 0.0;
        cfg.communication_avoiding = false;
        let decomp = Decomposition::new(Box3::cube(16), Point3::new(2, 1, 1));
        let d = &decomp;
        RankWorld::run(2, move |mut ctx| {
            let mut s = GmgSolver::new(d.clone(), ctx.rank(), cfg);
            s.solve(&mut ctx);
            assert_eq!(s.timers.count(0, "fusedSmooth"), 2 * cfg.max_smooths);
            assert_eq!(s.timers.count(1, "fusedSmooth"), cfg.bottom_smooths);
            for level in 0..2 {
                for op in ["applyOp", "smooth", "smooth+residual", "restriction"] {
                    assert_eq!(s.timers.count(level, op), 0, "level {level} {op}");
                }
            }
            // Both convergence checks land in their own row.
            assert_eq!(s.timers.count(0, "residualNorm"), 2);
            assert_eq!(s.timers.count(0, "interpolation+increment"), 1);
            // An exchange before every smooth, on the halo axis.
            assert_eq!(s.timers.count(0, "exchange"), 2 * cfg.max_smooths);
            assert_eq!(s.timers.count(1, "exchange"), cfg.bottom_smooths);
            assert_eq!(s.timers.count(1, "initZero"), 1);
        });
    }

    #[test]
    fn ca_one_pass_and_split_schedule_produce_identical_histories() {
        // The default schedule (communication avoiding: groups of
        // iterations over shrinking regions) against an exchange before
        // every single iteration over the owned box. Every owned cell sees
        // the same arithmetic on the same inputs either way, so the
        // residual histories must match exactly — no tolerance — on one
        // rank and across a 2×1×1 decomposition.
        let mut ca = SolverConfig::test_default();
        ca.num_levels = 2;
        ca.max_vcycles = 4;
        ca.tolerance = 0.0;
        assert!(
            ca.communication_avoiding,
            "default must exercise the one-pass smoother"
        );
        let mut plain = ca;
        plain.communication_avoiding = false;
        for ranks in [Point3::splat(1), Point3::new(2, 1, 1)] {
            let a = solve_with(16, ranks, ca);
            let b = solve_with(16, ranks, plain);
            assert_eq!(
                a[0].0.residual_history, b[0].0.residual_history,
                "CA one-pass vs split histories diverge at ranks {ranks:?}"
            );
        }
    }

    #[test]
    fn solves_never_allocate_the_fine_residual() {
        // Every level's pre-smooth restricts as it goes, with and without
        // communication avoiding: after `solve` on 1, 2 and 8 ranks — brick
        // pairs 8→8, 8→4, 4→2 — no level holds `r`.
        let mut cfg = SolverConfig::test_default();
        cfg.brick_dim = 8;
        cfg.num_levels = 4;
        cfg.max_vcycles = 2;
        cfg.tolerance = 0.0;
        let mut plain = cfg;
        plain.communication_avoiding = false;
        let grids = [Point3::splat(1), Point3::new(2, 1, 1), Point3::splat(2)];
        for (cfg, grid) in [cfg, plain].into_iter().flat_map(|c| grids.map(|g| (c, g))) {
            let decomp = Decomposition::new(Box3::cube(32), grid);
            let d = &decomp;
            RankWorld::run(decomp.num_ranks(), move |mut ctx| {
                let mut s = GmgSolver::new(d.clone(), ctx.rank(), cfg);
                let stats = s.solve(&mut ctx);
                assert_eq!(stats.vcycles, cfg.max_vcycles);
                for l in &s.levels {
                    assert!(!l.r.is_allocated(), "level {} {grid:?}", l.index);
                }
            });
        }
    }

    /// `GmgSolver::new` on 12³, one rank, two levels, with `brick_dim`.
    fn new_with_brick_dim(brick_dim: i64) -> GmgSolver {
        let mut cfg = SolverConfig::test_default();
        cfg.brick_dim = brick_dim;
        cfg.num_levels = 2;
        GmgSolver::new(Decomposition::single(Box3::cube(12)), 0, cfg)
    }

    #[test]
    #[should_panic(expected = "level 0: no star-7 kernel for 3-wide bricks")]
    fn odd_bricks_are_rejected_up_front() {
        new_with_brick_dim(3);
    }

    #[test]
    #[should_panic(expected = "level 0: no star-7 kernel for 6-wide bricks")]
    fn unsupported_bricks_are_rejected_up_front() {
        new_with_brick_dim(6);
    }

    #[test]
    #[should_panic(
        expected = "level 0 restricts in its pre-smooth: it needs smooths and even bricks, not 1-wide"
    )]
    fn one_cell_bricks_are_rejected_on_a_level_that_restricts() {
        new_with_brick_dim(1);
    }

    #[test]
    fn brick_dim_8_also_works() {
        let mut cfg = SolverConfig::test_default();
        cfg.brick_dim = 8;
        cfg.num_levels = 3; // level 2 is 8³ — exactly one brick
        cfg.max_vcycles = 15;
        cfg.tolerance = 1e-8;
        let out = solve_with(32, Point3::splat(1), cfg);
        assert!(
            out[0].0.converged,
            "history {:?}",
            out[0].0.residual_history
        );
    }

    /// The solver feeds one measurement to both its `OpTimer` and the
    /// flight ring a capture reads: per rank, every `(level, op)` total in
    /// the timer is that rank's `TraceSummary` row, to the ring's
    /// nanosecond rounding per invocation.
    #[test]
    fn timer_and_trace_book_one_measurement_per_op() {
        let mut cfg = SolverConfig::test_default();
        cfg.num_levels = 2;
        cfg.max_vcycles = 2;
        cfg.tolerance = 0.0;
        let decomp = Decomposition::new(Box3::cube(16), Point3::new(2, 1, 1));
        let d = &decomp;
        let (timers, trace) = gmg_trace::capture(|| {
            RankWorld::run(2, move |mut ctx| {
                let mut s = GmgSolver::new(d.clone(), ctx.rank(), cfg);
                s.solve(&mut ctx);
                s.timers
            })
        });
        for (rank, timer) in timers.iter().enumerate() {
            let summary = gmg_trace::TraceSummary::from_trace(&trace.rank_window(rank, rank + 1));
            let rows: Vec<_> = summary
                .rows
                .iter()
                .map(|r| (r.level, r.op.as_str()))
                .collect();
            assert_eq!(rows, timer.keys(), "rank {rank}");
            for row in &summary.rows {
                let (level, op) = (row.level, row.op.as_str());
                let n = timer.count(level, op);
                assert_eq!(row.invocations, n, "rank {rank} level {level} {op}");
                let (booked, traced) = (timer.total(level, op), row.seconds);
                assert!(
                    (booked - traced).abs() <= n as f64 * 1e-9,
                    "rank {rank} level {level} {op}: timer {booked:e} s vs trace {traced:e} s"
                );
            }
        }
        // Comm spans from the exchange runtime rode along in the capture.
        assert!(gmg_trace::TraceSummary::from_trace(&trace).comm.messages > 0);
    }

    /// Rebuild the finest-level iterate through `f(old_value, point)` —
    /// the corruption primitive the fault-hook tests share.
    fn corrupt_x(level: &mut Level, f: impl Fn(f64, Point3) -> f64 + Send + Sync + 'static) {
        let old = level.x.clone();
        level.x.fill_with(|p| f(old.get(p), p));
    }

    #[test]
    fn nan_injection_is_detected_despite_max_reduction() {
        // Poison a single cell with NaN after cycle 2. The max-norm
        // reduction silently drops NaN, so this exercises the summing
        //-norms detection path; Abort must stop the solve right there
        // with structured diagnostics instead of iterating on garbage.
        let decomp = Decomposition::new(Box3::cube(16), Point3::splat(1));
        let d = &decomp;
        let out = RankWorld::run(1, move |mut ctx| {
            let mut cfg = SolverConfig::test_default();
            cfg.num_levels = 2;
            cfg.max_vcycles = 10;
            cfg.tolerance = 1e-12;
            let mut s = GmgSolver::new(d.clone(), ctx.rank(), cfg);
            s.fault_hook = Some(Box::new(|cycle, level: &mut Level| {
                if cycle == 2 {
                    let target = level.owned.lo;
                    corrupt_x(level, move |v, p| if p == target { f64::NAN } else { v });
                }
            }));
            s.solve(&mut ctx)
        });
        let stats = &out[0];
        assert_eq!(stats.health, SolveHealth::NonFinite);
        assert!(stats.health.is_diverged());
        assert!(!stats.converged);
        assert_eq!(stats.vcycles, 2, "must stop at the detection cycle");
    }

    #[test]
    fn rollback_recovers_from_transient_corruption() {
        // Rank 0's iterate is scaled by 1e9 after cycle 3 (a one-shot
        // upset). The divergence shows up in the *global* residual, so
        // both ranks must roll back in lockstep, retry with twice the
        // sweeps, and still converge to the discrete solution — with
        // the recovery visible on the trace's fault track.
        let decomp = Decomposition::new(Box3::cube(16), Point3::new(2, 1, 1));
        let d = &decomp;
        let (out, trace) = gmg_trace::capture(|| {
            RankWorld::run(2, move |mut ctx| {
                let mut cfg = SolverConfig::test_default();
                cfg.num_levels = 2;
                cfg.recovery = RecoveryPolicy::Rollback;
                cfg.max_vcycles = 30;
                let mut s = GmgSolver::new(d.clone(), ctx.rank(), cfg);
                let rank = ctx.rank();
                s.fault_hook = Some(Box::new(move |cycle, level: &mut Level| {
                    if cycle == 3 && rank == 0 {
                        corrupt_x(level, |v, _| v * 1e9);
                    }
                }));
                let stats = s.solve(&mut ctx);
                (stats, s.max_error_vs_discrete())
            })
        });
        for (stats, err) in &out {
            assert!(stats.converged, "history {:?}", stats.residual_history);
            assert_eq!(stats.recoveries, 1);
            assert_eq!(stats.health, SolveHealth::Healthy);
            assert!(*err < 1e-7, "discrete error {err}");
            // The spike is recorded in the history (diagnostics), even
            // though the solve recovered.
            assert!(stats.residual_history.iter().any(|r| *r > 1.0));
        }
        // Both ranks agree on the entire history including the recovery.
        assert_eq!(out[0].0.residual_history, out[1].0.residual_history);
        let summary = gmg_trace::TraceSummary::from_trace(&trace);
        for kind in ["health:diverged", "recover:rollback", "health:checkpoint"] {
            assert!(
                summary.faults.iter().any(|(k, _)| k == kind),
                "missing {kind} in {:?}",
                summary.faults
            );
        }
    }

    #[test]
    fn rollback_with_exhausted_budget_returns_the_best_iterate() {
        // Every cycle from 4 on is poisoned: two rollbacks are spent on it,
        // then the third verdict stops the solve on the best checkpoint.
        let decomp = Decomposition::new(Box3::cube(16), Point3::splat(1));
        let d = &decomp;
        let out = RankWorld::run(1, move |mut ctx| {
            let mut cfg = SolverConfig::test_default();
            cfg.num_levels = 2;
            cfg.recovery = RecoveryPolicy::Rollback;
            let mut s = GmgSolver::new(d.clone(), ctx.rank(), cfg);
            let e0 = s.max_error_vs_discrete();
            s.fault_hook = Some(Box::new(|cycle, level: &mut Level| {
                if cycle >= 4 {
                    corrupt_x(level, |v, _| v * -1e9);
                }
            }));
            let stats = s.solve(&mut ctx);
            (stats, e0, s.max_error_vs_discrete())
        });
        let (stats, e0, e1) = &out[0];
        assert!(!stats.converged);
        assert!(stats.health.is_diverged());
        assert_eq!(stats.recoveries, 2);
        // The returned iterate is the checkpointed best, not the poisoned
        // one: finite and clearly better than the zero guess.
        assert!(e1.is_finite());
        assert!(*e1 < e0 * 0.5, "best iterate error {e1} vs zero-guess {e0}");
    }

    #[test]
    fn health_guards_do_not_perturb_fault_free_numerics() {
        // Checkpointing and monitoring must be pure observers: identical
        // residual histories under every policy, and no recovery events,
        // on two thread ranks (Rejoin outside a membership world is a
        // plain solve).
        let histories: Vec<Vec<f64>> = [
            RecoveryPolicy::Abort,
            RecoveryPolicy::Rollback,
            RecoveryPolicy::Rejoin,
        ]
        .into_iter()
        .map(|policy| {
            let mut cfg = SolverConfig::test_default();
            cfg.num_levels = 2;
            cfg.max_vcycles = 5;
            cfg.tolerance = 0.0;
            cfg.recovery = policy;
            let out = solve_with(16, Point3::new(2, 1, 1), cfg);
            for (stats, _) in &out {
                assert_eq!(stats.health, SolveHealth::Healthy);
                assert_eq!(stats.recoveries, 0);
                assert_eq!(stats.residual_history, out[0].0.residual_history);
            }
            out[0].0.residual_history.clone()
        })
        .collect();
        assert_eq!(histories[0], histories[1]);
        assert_eq!(histories[0], histories[2]);
    }

    #[test]
    fn held_and_stored_checkpoints_restore_identical_storage() {
        // The checkpoint Rollback holds in memory and the record Rejoin's
        // store writes and reads back are one value: restoring either
        // after the iterate moved on yields bit-identical level storage,
        // margin and tag counter.
        let dir = std::env::temp_dir().join(format!("gmg-ckpt-agree-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let decomp = Decomposition::new(Box3::cube(16), Point3::new(2, 1, 1));
        let (d, dir) = (&decomp, &dir);
        RankWorld::run(2, move |mut ctx| {
            let mut cfg = SolverConfig::test_default();
            cfg.num_levels = 2;
            cfg.max_vcycles = 2;
            cfg.tolerance = 0.0;
            let mut s = GmgSolver::new(d.clone(), ctx.rank(), cfg);
            let stats = s.solve(&mut ctx);
            let held = s.checkpoint(&stats.residual_history);
            let store = RejoinStore::new(dir, ctx.rank()).unwrap();
            store.save(&held).unwrap();
            let stored = store.load(held.cycle).expect("saved record loads");
            assert_eq!(stored, held);
            let mut after = Vec::new();
            for ck in [&held, &stored] {
                s.vcycle(&mut ctx);
                s.restore(ck);
                let level = &s.levels[0];
                let bits: Vec<u64> = level.x.as_slice().iter().map(|v| v.to_bits()).collect();
                after.push((bits, level.margin, s.tag_counter));
            }
            assert_eq!(after[0], after[1]);
            let x_bits: Vec<u64> = held.x.iter().map(|v| v.to_bits()).collect();
            assert_eq!(after[0].0, x_bits);
        });
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn lexicographic_ordering_same_numerics() {
        let mut cfg = SolverConfig::test_default();
        cfg.num_levels = 2;
        cfg.max_vcycles = 3;
        cfg.tolerance = 0.0;
        let mut lex = cfg;
        lex.ordering = BrickOrdering::Lexicographic;
        let a = solve_with(16, Point3::new(1, 2, 1), cfg);
        let b = solve_with(16, Point3::new(1, 2, 1), lex);
        for (x, y) in a[0].0.residual_history.iter().zip(&b[0].0.residual_history) {
            assert!((x - y).abs() <= 1e-12 * x.max(1e-30));
        }
    }
}

/// Kill-and-rejoin battery (the robustness milestone's acceptance test):
/// a rank aborts itself at an exact V-cycle phase of an exact cycle, the
/// membership controller respawns it, and the whole world resumes from
/// the durable per-cycle checkpoints. The recovered run's residual
/// history must be *bit-identical* to an unfaulted run's — on both the
/// process transport and the in-process thread transport — because the
/// checkpoint restores the full finest-level storage, the
/// communication-avoiding margin, and the exchange tag counter.
#[cfg(all(test, unix))]
mod battery {
    use super::*;
    use gmg_comm::process::run_child_if_spawned;
    use gmg_comm::runtime::RankWorld;
    use gmg_comm::{ProcessWorld, SocketKind};
    use gmg_mesh::{Box3, Point3};
    use std::time::Duration;

    const CHILD_ARGS: &[&str] = &["battery_child_entry", "--test-threads=1", "--nocapture"];
    const KILL_CYCLE: usize = 3;

    fn battery_config() -> SolverConfig {
        let mut cfg = SolverConfig::test_default();
        cfg.num_levels = 4;
        cfg.brick_dim = 4;
        cfg.tolerance = 0.0;
        cfg.max_vcycles = 6;
        cfg.recovery = RecoveryPolicy::Rejoin;
        cfg
    }

    fn battery_decomp() -> Decomposition {
        Decomposition::new(Box3::cube(64), Point3::new(2, 1, 1))
    }

    /// The solve both worlds run. `kill` is `"none"` or
    /// `"victim:phase"`: that rank aborts at the first `phase` event of
    /// cycle [`KILL_CYCLE`] — only in its original incarnation (the
    /// respawned replacement starts in rejoining state and must not
    /// re-arm the bomb; neither may a parked survivor re-running the
    /// cycle, which the rank gate covers).
    fn battery_solve(ctx: &mut RankCtx, kill: &str) -> String {
        let mut s = GmgSolver::new(battery_decomp(), ctx.rank(), battery_config());
        if kill != "none" {
            let (victim, phase) = kill.split_once(':').expect("victim:phase");
            let victim: usize = victim.parse().unwrap();
            let phase = phase.to_string();
            if ctx.rank() == victim && !ctx.membership_rejoining() {
                s.phase_hook = Some(Box::new(move |c, p, _level| {
                    if c == KILL_CYCLE && p == phase {
                        std::process::abort();
                    }
                }));
            }
        }
        let stats = s.solve(ctx);
        let hist: Vec<String> = stats
            .residual_history
            .iter()
            .map(|r| format!("{:x}", r.to_bits()))
            .collect();
        format!("{}|{}", hist.join(","), stats.rejoin_epochs)
    }

    fn dispatch(entry: &str, mut ctx: RankCtx, args: &str) -> String {
        assert_eq!(entry, "battery", "unknown battery entry {entry:?}");
        battery_solve(&mut ctx, args)
    }

    /// The hook a spawned copy of this test binary lands in (the
    /// controller passes a libtest filter selecting exactly this test).
    /// In a normal run it is an instant no-op.
    #[test]
    fn battery_child_entry() {
        run_child_if_spawned(dispatch);
    }

    fn parse(result: &str) -> (Vec<u64>, usize) {
        let (hist, epochs) = result.split_once('|').expect("hist|epochs");
        (
            hist.split(',')
                .map(|h| u64::from_str_radix(h, 16).unwrap())
                .collect(),
            epochs.parse().unwrap(),
        )
    }

    fn process_run(kill: &str) -> gmg_comm::ProcessReport {
        ProcessWorld::new(2, "battery")
            .args(kill)
            .transport(SocketKind::Uds)
            .child_args(CHILD_ARGS)
            .deadline(Duration::from_secs(180))
            .run()
            .expect("battery process world")
    }

    #[test]
    fn kill_and_rejoin_at_every_phase_is_bit_exact() {
        // Ground truth 1: the thread transport (no membership, Rejoin
        // degrades to a plain solve).
        let thread_hists: Vec<Vec<u64>> = RankWorld::run(2, |mut ctx| {
            let (h, e) = parse(&battery_solve(&mut ctx, "none"));
            assert_eq!(e, 0);
            h
        });

        // Ground truth 2: an unfaulted multi-process run matches the
        // thread world bit-for-bit (transport equivalence at solver
        // level).
        let clean = process_run("none");
        assert!(clean.rejoins.is_empty());
        for (r, res) in clean.results.iter().enumerate() {
            let (h, epochs) = parse(res);
            assert_eq!(h, thread_hists[r], "rank {r}: process vs thread history");
            assert_eq!(epochs, 0);
        }

        // The battery: SIGABRT rank 1 at each phase of V-cycle 3. Every
        // run must rejoin exactly once, resume from the cycle-2
        // checkpoint, and finish with the unfaulted history bit-for-bit.
        let victim = 1usize;
        for phase in ["smooth", "restrict", "coarse", "prolong"] {
            let report = process_run(&format!("{victim}:{phase}"));
            assert_eq!(report.rejoins.len(), 1, "{phase}: exactly one rejoin epoch");
            let ev = &report.rejoins[0];
            assert_eq!(ev.rank, victim, "{phase}");
            assert_eq!(
                ev.resume_cycle,
                KILL_CYCLE as i64 - 1,
                "{phase}: world resumes from the last pre-kill checkpoint"
            );
            for (r, res) in report.results.iter().enumerate() {
                let (h, epochs) = parse(res);
                assert_eq!(
                    h, thread_hists[r],
                    "{phase} rank {r}: recovered history must be bit-identical"
                );
                assert_eq!(epochs, 1, "{phase} rank {r}: one rejoin epoch lived");
                // The milestone's stated bound, implied by bit-equality.
                let fin = f64::from_bits(*h.last().unwrap());
                let want = f64::from_bits(*thread_hists[r].last().unwrap());
                assert!((fin - want).abs() <= 1e-12);
            }
        }
    }
}
