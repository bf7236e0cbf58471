//! One rank's V-cycles, priced step by step on a [`Platform`].
//!
//! Walks the schedule both solvers execute ([`gmg_stencil::VcycleSchedule`],
//! Algorithm 2 with communication-avoiding margins) without computing
//! numerics: the paper-scale experiments (512³ per rank, 512 GPUs) come
//! from calibrated models here, the numerics from the real solvers at
//! small scale. [`simulate`] prices the bricked code, [`simulate_hpgmg`]
//! the conventional baseline of Figure 4.

use crate::platform::Platform;
use gmg_machine::gpu::System;
use gmg_mesh::Point3;
use gmg_stencil::{VcycleSchedule, VcycleShape};
use std::collections::BTreeMap;

/// Configuration of a simulated run.
#[derive(Clone, Debug)]
pub struct ScheduleConfig {
    pub system: System,
    /// Per-rank subdomain extent at the finest level.
    pub sub_extent: Point3,
    pub num_levels: usize,
    pub smooths_per_level: usize,
    pub bottom_smooths: usize,
    pub vcycles: usize,
    /// Nodes in the job (drives network contention).
    pub nodes: usize,
    /// MPI ranks (GPUs) per node.
    pub ranks_per_node: usize,
    pub communication_avoiding: bool,
    /// Use GPU-aware MPI (overrides the system default when `Some`).
    pub gpu_aware_override: Option<bool>,
    /// Offload levels with at most this many cells per rank to the host
    /// CPU ([`CpuModel`](gmg_machine::CpuModel)). `None` keeps everything on the GPU (the
    /// paper's measured configuration).
    pub cpu_offload_below_cells: Option<usize>,
}

impl ScheduleConfig {
    /// The paper's Section VI configuration: 8 nodes, one rank per node,
    /// 512³ per rank, 6 levels, 12 smooths, 100 bottom smooths, 12 V-cycles.
    pub fn paper_section6(system: System) -> Self {
        Self {
            system,
            sub_extent: Point3::splat(512),
            num_levels: 6,
            smooths_per_level: 12,
            bottom_smooths: 100,
            vcycles: 12,
            nodes: 8,
            ranks_per_node: 1,
            communication_avoiding: true,
            gpu_aware_override: None,
            cpu_offload_below_cells: None,
        }
    }

    /// The V-cycle shape this config runs: per-level extents (halving),
    /// ghost depths (the system's brick, clamped to the shrinking
    /// subdomain) and smooth counts. Panics if a level's extent vanishes.
    pub fn shape(&self) -> VcycleShape {
        VcycleShape::halving(
            self.sub_extent,
            self.num_levels,
            self.system.gpu().optimal_brick_dim,
            self.smooths_per_level,
            self.bottom_smooths,
            self.communication_avoiding,
        )
    }

    /// Total MPI ranks.
    pub fn nranks(&self) -> usize {
        self.nodes * self.ranks_per_node
    }
}

/// Simulated per-level time breakdown over the whole run.
#[derive(Clone, Debug)]
pub struct SimLevelBreakdown {
    pub level: usize,
    pub cells_per_rank: usize,
    /// Seconds per op name over the full run.
    pub op_seconds: BTreeMap<String, f64>,
    pub total_seconds: f64,
    /// Exchange invocations over the full run.
    pub exchanges: usize,
}

impl SimLevelBreakdown {
    /// Seconds recorded under `op`.
    pub fn op(&self, name: &str) -> f64 {
        self.op_seconds.get(name).copied().unwrap_or(0.0)
    }
}

/// Result of a simulated run.
#[derive(Clone, Debug)]
pub struct SimResult {
    pub system: System,
    pub nranks: usize,
    pub levels: Vec<SimLevelBreakdown>,
    /// Per-rank wall-clock of the full run (all ranks congruent).
    pub total_seconds: f64,
    /// Seconds per V-cycle.
    pub per_vcycle_seconds: f64,
    /// Aggregate throughput: global finest-grid cells × V-cycles / time.
    pub gstencil_per_s: f64,
}

impl SimResult {
    /// Weak-scaling parallel efficiency of `self` against a baseline run
    /// with fewer ranks and the same per-rank problem.
    pub fn weak_efficiency(&self, baseline: &SimResult) -> f64 {
        let per_rank_self = self.gstencil_per_s / self.nranks as f64;
        let per_rank_base = baseline.gstencil_per_s / baseline.nranks as f64;
        per_rank_self / per_rank_base
    }

    /// Strong-scaling efficiency: speedup over baseline divided by the
    /// rank ratio.
    pub fn strong_efficiency(&self, baseline: &SimResult) -> f64 {
        (baseline.total_seconds / self.total_seconds)
            / (self.nranks as f64 / baseline.nranks as f64)
    }
}

/// Walk `vcycles` V-cycles of `shape` on `platform`, charging every
/// step's `(level, op, seconds)` in schedule order.
fn walk(
    platform: &Platform,
    shape: VcycleShape,
    offload_below_cells: Option<usize>,
    vcycles: usize,
    mut charge: impl FnMut(usize, &'static str, f64),
) {
    let levels = platform.levels(&shape, offload_below_cells);
    let mut schedule = VcycleSchedule::new(shape);
    for _ in 0..vcycles {
        schedule.vcycle(|step| platform.price(&levels, step, &mut charge));
    }
}

/// Run the simulation.
pub fn simulate(cfg: &ScheduleConfig) -> SimResult {
    let shape = cfg.shape();
    let mut acc = vec![BTreeMap::<String, f64>::new(); cfg.num_levels];
    let mut exchanges = vec![0; cfg.num_levels];
    let mut platform = Platform::paper(cfg.system);
    if let Some(v) = cfg.gpu_aware_override {
        platform.net = platform.net.with_gpu_aware(v);
    }
    platform.net = platform.net.at_scale(cfg.nodes);
    walk(
        &platform,
        shape.clone(),
        cfg.cpu_offload_below_cells,
        cfg.vcycles,
        |li, op, s| {
            *acc[li].entry(op.to_string()).or_insert(0.0) += s;
            exchanges[li] += usize::from(op == "exchange");
        },
    );
    let levels: Vec<SimLevelBreakdown> = acc
        .into_iter()
        .zip(exchanges)
        .enumerate()
        .map(|(li, (op_seconds, exchanges))| SimLevelBreakdown {
            level: li,
            cells_per_rank: shape.cells(li),
            total_seconds: op_seconds.values().sum(),
            op_seconds,
            exchanges,
        })
        .collect();
    let total_seconds: f64 = levels.iter().map(|l| l.total_seconds).sum();
    let finest_cells_global = cfg.sub_extent.product() as f64 * cfg.nranks() as f64;
    SimResult {
        system: cfg.system,
        nranks: cfg.nranks(),
        total_seconds,
        per_vcycle_seconds: total_seconds / cfg.vcycles as f64,
        gstencil_per_s: finest_cells_global * cfg.vcycles as f64 / total_seconds / 1e9,
        levels,
    }
}

/// Result of a modeled HPGMG run.
#[derive(Clone, Debug)]
pub struct HpgmgSimResult {
    pub total_seconds: f64,
    pub per_vcycle_seconds: f64,
    /// Seconds spent in exchange (incl. pack/unpack) over the run.
    pub exchange_seconds: f64,
}

/// Simulate the HPGMG-style baseline of Figure 4 on
/// [`Platform::hpgmg`]: `sub_extent` per rank, `num_levels` levels, the
/// paper's smooth counts, over `vcycles` V-cycles on `nodes` nodes.
pub fn simulate_hpgmg(
    system: System,
    sub_extent: Point3,
    num_levels: usize,
    smooths_per_level: usize,
    bottom_smooths: usize,
    vcycles: usize,
    nodes: usize,
) -> HpgmgSimResult {
    let mut platform = Platform::hpgmg(system);
    platform.net = platform.net.at_scale(nodes);
    // Depth-1 ghosts, exchanged before every smooth: the schedule with
    // communication avoiding off.
    let shape = VcycleShape::halving(
        sub_extent,
        num_levels,
        1,
        smooths_per_level,
        bottom_smooths,
        false,
    );
    // Two running sums in step order (kernels, exchanges), not a
    // per-level table: the per-V-cycle time is stored at full precision.
    let mut sums = [0.0; 2];
    walk(&platform, shape, None, vcycles, |_, op, s| {
        sums[usize::from(op == "exchange")] += s;
    });
    let [kernel_s, exch_s] = sums;
    let total = kernel_s + exch_s;
    HpgmgSimResult {
        total_seconds: total,
        per_vcycle_seconds: total / vcycles as f64,
        exchange_seconds: exch_s,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gmg_machine::CpuModel;

    fn small(system: System) -> ScheduleConfig {
        let mut c = ScheduleConfig::paper_section6(system);
        c.sub_extent = Point3::splat(128);
        c.num_levels = 4;
        c.vcycles = 2;
        c
    }

    #[test]
    fn paper_config_shape() {
        let cfg = ScheduleConfig::paper_section6(System::Perlmutter);
        assert_eq!(cfg.nranks(), 8);
        let shape = cfg.shape();
        assert_eq!(shape.extents[5], Point3::splat(16));
        assert_eq!(shape.ghost_depth[0], 8);
        assert_eq!(shape.ghost_depth[5], 8); // 16³ still fits 8³ bricks
    }

    #[test]
    fn brick_dim_clamps_on_tiny_levels() {
        let mut cfg = ScheduleConfig::paper_section6(System::Perlmutter);
        cfg.sub_extent = Point3::splat(64);
        cfg.num_levels = 5; // level 4 = 4³
        assert_eq!(cfg.shape().ghost_depth[4], 4);
    }

    #[test]
    #[should_panic(expected = "not aligned to brick dim")]
    fn unaligned_brick_level_panics() {
        // Level 3 is 12 × 16 × 16 cells: 8³ bricks do not tile it, so
        // pricing refuses the level as a brick layout would.
        let mut cfg = small(System::Perlmutter);
        cfg.sub_extent = Point3::new(96, 128, 128);
        simulate(&cfg);
    }

    #[test]
    fn level_times_decrease_but_flatten() {
        // Figure 3 shape: per-level totals decrease roughly 4–8× on fine
        // levels and flatten (latency/bottom-solve bound) on coarse ones.
        let r = simulate(&ScheduleConfig::paper_section6(System::Perlmutter));
        assert_eq!(r.levels.len(), 6);
        let t: Vec<f64> = r.levels.iter().map(|l| l.total_seconds).collect();
        for w in t.windows(2).take(3) {
            let ratio = w[0] / w[1];
            assert!(
                (2.0..10.0).contains(&ratio),
                "fine-level ratio {ratio} out of range: {t:?}"
            );
        }
        // The coarsest level (100 bottom smooths) is NOT negligible.
        assert!(t[5] > 0.01 * t[0], "bottom solve vanished: {t:?}");
    }

    #[test]
    fn finest_level_fractions_match_table2_shape() {
        // Table II: smooth+residual ≈ 50–55%, applyOp ≈ 22–31%,
        // exchange ≈ 13–20%, restriction ≈ 1%, interpolation ≈ 2–5%.
        for sys in System::ALL {
            let r = simulate(&ScheduleConfig::paper_section6(sys));
            let l0 = &r.levels[0];
            let total = l0.total_seconds;
            let frac = |op: &str| l0.op(op) / total;
            assert!(
                (0.40..0.62).contains(&frac("smooth+residual")),
                "{sys:?} smooth+residual {:.2}",
                frac("smooth+residual")
            );
            assert!(
                (0.15..0.40).contains(&frac("applyOp")),
                "{sys:?} applyOp {:.2}",
                frac("applyOp")
            );
            assert!(
                (0.02..0.30).contains(&frac("exchange")),
                "{sys:?} exchange {:.2}",
                frac("exchange")
            );
            assert!(frac("restriction") < 0.05, "{sys:?}");
            assert!(frac("interpolation+increment") < 0.10, "{sys:?}");
        }
    }

    #[test]
    fn ca_reduces_exchanges_and_total_time_at_coarse_levels() {
        let mut ca = small(System::Frontier);
        ca.vcycles = 4;
        let mut plain = ca.clone();
        plain.communication_avoiding = false;
        let rc = simulate(&ca);
        let rp = simulate(&plain);
        // CA needs far fewer exchanges at every level.
        for (a, b) in rc.levels.iter().zip(&rp.levels) {
            assert!(a.exchanges < b.exchanges, "level {}", a.level);
        }
        // And wins on total time at the latency-bound coarsest level.
        let last = ca.num_levels - 1;
        assert!(rc.levels[last].total_seconds < rp.levels[last].total_seconds);
    }

    #[test]
    fn gpu_aware_matters() {
        let mut on = small(System::Perlmutter);
        on.gpu_aware_override = Some(true);
        let mut off = on.clone();
        off.gpu_aware_override = Some(false);
        let t_on = simulate(&on).total_seconds;
        let t_off = simulate(&off).total_seconds;
        assert!(t_off > t_on, "host staging must cost time");
    }

    #[test]
    fn weak_scaling_efficiency_above_87_percent() {
        // Figure 8's headline: ≥87% parallel efficiency at 128 nodes.
        for sys in [System::Perlmutter, System::Frontier] {
            let mut base = ScheduleConfig::paper_section6(sys);
            base.nodes = 2;
            base.ranks_per_node = sys.ranks_per_node();
            let mut big = base.clone();
            big.nodes = 128;
            let rb = simulate(&base);
            let rg = simulate(&big);
            let eff = rg.weak_efficiency(&rb);
            assert!(
                (0.87..=1.0).contains(&eff),
                "{sys:?} weak efficiency {eff:.3}"
            );
        }
    }

    #[test]
    fn frontier_nodes_deliver_about_double_perlmutter() {
        // Figure 8: Frontier ≈ 2× Perlmutter GStencil/s at equal node
        // counts (8 GCD-ranks vs 4 GPU-ranks per node).
        let mk = |sys: System| {
            let mut c = ScheduleConfig::paper_section6(sys);
            c.nodes = 16;
            c.ranks_per_node = sys.ranks_per_node();
            simulate(&c)
        };
        let p = mk(System::Perlmutter);
        let f = mk(System::Frontier);
        let ratio = f.gstencil_per_s / p.gstencil_per_s;
        assert!((1.5..2.5).contains(&ratio), "ratio {ratio:.2}");
    }

    #[test]
    fn strong_scaling_efficiency_degrades() {
        // Figure 9: fixed total problem; efficiency nose-dives as per-rank
        // size shrinks into the latency-bound regime.
        let mk = |nodes: usize| {
            let mut c = ScheduleConfig::paper_section6(System::Perlmutter);
            c.ranks_per_node = 4;
            c.nodes = nodes;
            // Fixed 1024³ total: per-rank = 1024/cbrt(4·nodes) per axis.
            let ranks = (4 * nodes) as f64;
            let per = (1024.0 / ranks.cbrt()).round() as i64;
            c.sub_extent = Point3::splat((per as u64).next_power_of_two() as i64);
            c.num_levels = 5;
            simulate(&c)
        };
        let small = mk(2); // 8 ranks, 512³ each
        let big = mk(128); // 512 ranks, 128³ each
        let eff = big.strong_efficiency(&small);
        assert!(eff < 0.85, "strong efficiency should degrade: {eff:.2}");
        assert!(eff > 0.05, "but not vanish: {eff:.2}");
    }

    #[test]
    fn cpu_offload_helps_latency_bound_coarse_levels() {
        // The discussion-section remedy: running tiny coarse levels on the
        // CPU (0.5 µs launch overhead vs 5–20 µs) should cut their time.
        let mut gpu_only = ScheduleConfig::paper_section6(System::Sunspot);
        gpu_only.sub_extent = Point3::splat(128);
        gpu_only.num_levels = 5;
        let mut offload = gpu_only.clone();
        offload.cpu_offload_below_cells = Some(16 * 16 * 16);
        let on_cpu =
            |li| CpuModel::offloads(offload.cpu_offload_below_cells, offload.shape().cells(li));
        assert!(on_cpu(4)); // 8³ per rank
        assert!(!on_cpu(0));
        let g = simulate(&gpu_only);
        let o = simulate(&offload);
        let last = gpu_only.num_levels - 1;
        assert!(
            o.levels[last].total_seconds < g.levels[last].total_seconds,
            "offloaded coarsest {:.4} vs GPU {:.4}",
            o.levels[last].total_seconds,
            g.levels[last].total_seconds
        );
        // Fine levels are untouched.
        assert!((o.levels[0].total_seconds - g.levels[0].total_seconds).abs() < 1e-9);
    }

    #[test]
    fn cpu_offload_improves_strong_scaling_tail() {
        // At 512 ranks of a fixed 1024³ the per-rank problem is 128³ and
        // the coarse levels dominate as latency; offloading them improves
        // total time.
        let mk = |offload: Option<usize>| {
            let mut c = ScheduleConfig::paper_section6(System::Perlmutter);
            c.nodes = 128;
            c.ranks_per_node = 4;
            c.sub_extent = Point3::splat(128);
            c.num_levels = 5;
            c.cpu_offload_below_cells = offload;
            simulate(&c).total_seconds
        };
        let plain = mk(None);
        let offloaded = mk(Some(32 * 32 * 32));
        assert!(
            offloaded < plain,
            "offload {offloaded:.3}s should beat {plain:.3}s"
        );
    }

    #[test]
    fn sunspot_lags_due_to_network() {
        let p = simulate(&ScheduleConfig::paper_section6(System::Perlmutter));
        let s = simulate(&ScheduleConfig::paper_section6(System::Sunspot));
        // Sunspot total is slower despite similar GPU throughput.
        assert!(s.total_seconds > p.total_seconds);
        // Communication is part of the gap: Sunspot's 4-cell ghost shell is
        // exchanged 6 times per V-cycle at the finest level, an 8-cell one
        // 4 times, which costs Sunspot more seconds there than either other
        // system and a larger share of that level than Frontier (Table II:
        // 20.4 % against 12.8 %). Against Perlmutter (17.5 %) the model
        // reads 18.4 % against 20.4 %: no smooth pass leaves a margin
        // behind, so the deeper shell saves one exchange in three, not one
        // in two (EXPERIMENTS.md, Table II).
        let f = simulate(&ScheduleConfig::paper_section6(System::Frontier));
        let exchange = |r: &SimResult| r.levels[0].op("exchange");
        assert!(exchange(&s) > exchange(&p) && exchange(&s) > exchange(&f));
        let share = |r: &SimResult| exchange(r) / r.levels[0].total_seconds;
        assert!(share(&s) > share(&f));
    }

    fn figure4_ratio(system: System) -> f64 {
        let brick = simulate(&ScheduleConfig::paper_section6(system));
        let base = simulate_hpgmg(system, Point3::splat(512), 6, 12, 100, 12, 8);
        base.per_vcycle_seconds / brick.per_vcycle_seconds
    }

    #[test]
    fn figure4_perlmutter_ratio() {
        let r = figure4_ratio(System::Perlmutter);
        assert!(
            (1.4..1.8).contains(&r),
            "Perlmutter brick speedup {r:.2} vs paper 1.58"
        );
    }

    #[test]
    fn figure4_frontier_ratio() {
        let r = figure4_ratio(System::Frontier);
        assert!(
            (1.25..1.7).contains(&r),
            "Frontier brick speedup {r:.2} vs paper 1.46"
        );
    }

    #[test]
    fn figure4_sunspot_vs_hpgmg_cuda_is_similar() {
        // The paper compares its Sunspot result against HPGMG-CUDA (there
        // is no SYCL HPGMG); the outcome is "similar performance".
        let brick_sunspot = simulate(&ScheduleConfig::paper_section6(System::Sunspot));
        let hpgmg_cuda = simulate_hpgmg(System::Perlmutter, Point3::splat(512), 6, 12, 100, 12, 8);
        let r = hpgmg_cuda.per_vcycle_seconds / brick_sunspot.per_vcycle_seconds;
        assert!((0.7..1.35).contains(&r), "Sunspot ratio {r:.2} vs paper ≈1");
    }

    #[test]
    fn exchange_share_is_larger_than_bricked() {
        // Without CA the baseline exchanges 24× per level per V-cycle.
        let base = simulate_hpgmg(System::Perlmutter, Point3::splat(256), 5, 12, 100, 2, 8);
        let mut cfg = ScheduleConfig::paper_section6(System::Perlmutter);
        cfg.sub_extent = Point3::splat(256);
        cfg.num_levels = 5;
        cfg.vcycles = 2;
        let brick = simulate(&cfg);
        let brick_exchange: f64 = brick.levels.iter().map(|l| l.op("exchange")).sum();
        let base_share = base.exchange_seconds / base.total_seconds;
        let brick_share = brick_exchange / brick.total_seconds;
        assert!(
            base_share > brick_share,
            "baseline {base_share:.3} vs brick {brick_share:.3}"
        );
    }
}
