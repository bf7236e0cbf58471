//! GPU machine descriptions for the three evaluated platforms.
//!
//! Hardware numbers come from the paper's Section IV-A. Sustained HBM
//! bandwidth uses the paper's measured 1420 GB/s on the A100 (91.3% of the
//! 1555 GB/s spec); the same sustained/spec ratio is applied to the other
//! two parts, whose specs the paper quotes at 1.6 TB/s (MI250X GCD) and
//! 1.64 TB/s (PVC stack).

use gmg_stencil::OpKind;

/// The three GPU-accelerated systems of the study.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum System {
    /// NERSC Perlmutter: 4 × NVIDIA A100 per node, CUDA.
    Perlmutter,
    /// OLCF Frontier: 4 × AMD MI250X (8 GCDs) per node, HIP.
    Frontier,
    /// ALCF Sunspot: 6 × Intel PVC (12 tiles) per node, SYCL.
    Sunspot,
}

impl System {
    /// All systems in the paper's reporting order.
    pub const ALL: [System; 3] = [System::Perlmutter, System::Frontier, System::Sunspot];

    /// The system's display name.
    pub fn name(&self) -> &'static str {
        match self {
            System::Perlmutter => "Perlmutter",
            System::Frontier => "Frontier",
            System::Sunspot => "Sunspot",
        }
    }

    /// GPU ranks (MPI ranks) per node: one per A100 / GCD / tile.
    pub fn ranks_per_node(&self) -> usize {
        match self {
            System::Perlmutter => 4,
            System::Frontier => 8,
            System::Sunspot => 12,
        }
    }

    /// The GPU model for one rank of this system.
    pub fn gpu(&self) -> GpuModel {
        match self {
            System::Perlmutter => GpuModel::a100(),
            System::Frontier => GpuModel::mi250x_gcd(),
            System::Sunspot => GpuModel::pvc_tile(),
        }
    }
}

/// Per-operation efficiencies calibrated from the paper's Tables III and V.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct OpEfficiency {
    /// Fraction of the (empirical-AI) roofline attained — Table III.
    pub roofline_fraction: f64,
    /// Fraction of the theoretical arithmetic intensity attained (data
    /// movement close to compulsory misses) — Table V.
    pub ai_fraction: f64,
}

/// A machine model for one GPU execution unit (a whole A100, one MI250X
/// GCD, or one PVC tile — the per-MPI-rank unit of the study).
#[derive(Clone, Debug, PartialEq)]
pub struct GpuModel {
    pub name: String,
    pub system: System,
    pub programming_model: &'static str,
    /// Peak FP64 throughput in GFLOP/s.
    pub peak_fp64_gflops: f64,
    /// Sustained HBM bandwidth in GB/s.
    pub hbm_gbs: f64,
    /// Kernel launch + scheduling overhead in microseconds (the α of the
    /// latency-throughput model; paper Section VI-A: 5–20 µs, NVIDIA
    /// lowest).
    pub kernel_overhead_us: f64,
    /// SIMD/warp width used for the generated stencil kernels (Section V).
    pub simd_width: usize,
    /// Optimal brick dimension found by the paper (8 for A100/MI250X, 4 for
    /// PVC).
    pub optimal_brick_dim: i64,
}

/// Measured-to-spec HBM derating (paper: 1420/1555 on A100).
const HBM_DERATE: f64 = 1420.0 / 1555.0;

impl GpuModel {
    /// NVIDIA A100 (Perlmutter), CUDA.
    pub fn a100() -> Self {
        Self {
            name: "NVIDIA A100".into(),
            system: System::Perlmutter,
            programming_model: "CUDA",
            peak_fp64_gflops: 9_770.0,
            hbm_gbs: 1420.0,
            kernel_overhead_us: 5.0,
            simd_width: 32,
            optimal_brick_dim: 8,
        }
    }

    /// One GCD of an AMD MI250X (Frontier), HIP.
    pub fn mi250x_gcd() -> Self {
        Self {
            name: "AMD MI250X GCD".into(),
            system: System::Frontier,
            programming_model: "HIP",
            peak_fp64_gflops: 24_000.0,
            hbm_gbs: 1600.0 * HBM_DERATE,
            kernel_overhead_us: 10.0,
            simd_width: 64,
            optimal_brick_dim: 8,
        }
    }

    /// One tile (stack) of an Intel PVC (Sunspot), SYCL.
    pub fn pvc_tile() -> Self {
        Self {
            name: "Intel PVC tile".into(),
            system: System::Sunspot,
            programming_model: "SYCL",
            peak_fp64_gflops: 16_000.0,
            hbm_gbs: 1640.0 * HBM_DERATE,
            kernel_overhead_us: 20.0,
            simd_width: 16,
            optimal_brick_dim: 4,
        }
    }

    /// The machine balance point (FLOP/B at which the roofline bends).
    pub fn balance_ai(&self) -> f64 {
        self.peak_fp64_gflops / self.hbm_gbs
    }

    /// Modeled time of one kernel that streams `bytes` through HBM.
    pub fn stream_time_s(&self, bytes: f64) -> f64 {
        self.kernel_overhead_us * 1e-6 + bytes / (self.hbm_gbs * 1e9)
    }

    /// Theoretical GStencil/s ceiling for op `op`: bandwidth divided by the
    /// op's compulsory bytes per (fine) point. This is the colored dashed
    /// line of the paper's Figure 5 (e.g. 1420/16 = 88.75 GStencil/s for
    /// applyOp on Perlmutter).
    pub fn gstencil_ceiling(&self, op: OpKind) -> f64 {
        let t = op.traffic().per_fine_point();
        self.hbm_gbs / t.bytes_per_point()
    }

    /// Calibrated per-op efficiencies (paper Tables III and V).
    pub fn op_efficiency(&self, op: OpKind) -> OpEfficiency {
        use OpKind::*;
        let (r, a) = match (self.system, op) {
            (System::Perlmutter, ApplyOp) => (0.90, 0.98),
            (System::Perlmutter, Smooth) => (0.98, 0.96),
            (System::Perlmutter, SmoothResidual) => (0.94, 1.00),
            (System::Perlmutter, Restriction) => (0.95, 0.99),
            (System::Perlmutter, InterpolationIncrement) => (0.88, 1.00),
            (System::Frontier, ApplyOp) => (0.77, 0.88),
            (System::Frontier, Smooth) => (0.87, 1.00),
            (System::Frontier, SmoothResidual) => (0.87, 1.00),
            (System::Frontier, Restriction) => (0.79, 0.99),
            (System::Frontier, InterpolationIncrement) => (0.42, 0.74),
            (System::Sunspot, ApplyOp) => (0.66, 0.86),
            (System::Sunspot, Smooth) => (0.64, 0.94),
            (System::Sunspot, SmoothResidual) => (0.71, 0.71),
            (System::Sunspot, Restriction) => (0.62, 0.86),
            (System::Sunspot, InterpolationIncrement) => (0.52, 1.00),
        };
        OpEfficiency {
            roofline_fraction: r,
            ai_fraction: a,
        }
    }

    /// Sustained GStencil/s plateau for `op`: the theoretical ceiling
    /// derated by both efficiency fractions. Derivation: achieved FLOP/s =
    /// e_roofline × (e_ai × AI_theo) × BW, so achieved stencil/s =
    /// e_roofline × e_ai × BW / bytes_per_point.
    pub fn gstencil_plateau(&self, op: OpKind) -> f64 {
        let e = self.op_efficiency(op);
        self.gstencil_ceiling(op) * e.roofline_fraction * e.ai_fraction
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_hardware_numbers() {
        let a = GpuModel::a100();
        assert_eq!(a.hbm_gbs, 1420.0);
        assert_eq!(a.peak_fp64_gflops, 9770.0);
        assert_eq!(a.simd_width, 32);
        assert_eq!(a.optimal_brick_dim, 8);

        let m = GpuModel::mi250x_gcd();
        // More than twice the A100's FP64 peak (paper Section IV-A).
        assert!(m.peak_fp64_gflops > 2.0 * a.peak_fp64_gflops);
        // Comparable HBM bandwidth.
        assert!((m.hbm_gbs / a.hbm_gbs - 1.0).abs() < 0.1);

        let p = GpuModel::pvc_tile();
        // ~1.6× the A100 peak, ~0.6× of MI250X (paper wording).
        assert!((p.peak_fp64_gflops / a.peak_fp64_gflops - 1.6).abs() < 0.1);
        assert!(p.peak_fp64_gflops < m.peak_fp64_gflops);
        assert_eq!(p.optimal_brick_dim, 4);
        assert_eq!(p.simd_width, 16);
    }

    #[test]
    fn ranks_per_node() {
        assert_eq!(System::Perlmutter.ranks_per_node(), 4);
        assert_eq!(System::Frontier.ranks_per_node(), 8);
        assert_eq!(System::Sunspot.ranks_per_node(), 12);
    }

    #[test]
    fn gmg_ops_are_memory_bound() {
        let g = GpuModel::a100();
        let b = g.balance_ai();
        // AI well below the machine balance.
        for op in gmg_stencil::ALL_OPS {
            assert!(op.traffic().theoretical_ai() < b);
        }
    }

    #[test]
    fn apply_op_ceiling_matches_paper() {
        // Paper: 1420 GB/s ÷ (2 doubles × 8 B) = 88.75 GStencil/s.
        let g = GpuModel::a100();
        let c = g.gstencil_ceiling(OpKind::ApplyOp);
        assert!((c - 88.75).abs() < 1e-9, "{c}");
    }

    #[test]
    fn plateau_below_ceiling() {
        for sys in System::ALL {
            let g = sys.gpu();
            for op in gmg_stencil::ALL_OPS {
                let e = g.op_efficiency(op);
                assert!(e.roofline_fraction > 0.0 && e.roofline_fraction <= 1.0);
                assert!(e.ai_fraction > 0.0 && e.ai_fraction <= 1.0);
                assert!(g.gstencil_plateau(op) <= g.gstencil_ceiling(op));
            }
        }
    }

    #[test]
    fn nvidia_has_lowest_overhead_highest_applyop_throughput() {
        // Paper headline: NVIDIA lowest overhead, highest throughput/rank.
        let a = GpuModel::a100();
        let m = GpuModel::mi250x_gcd();
        let p = GpuModel::pvc_tile();
        assert!(a.kernel_overhead_us < m.kernel_overhead_us);
        assert!(m.kernel_overhead_us < p.kernel_overhead_us);
        for op in gmg_stencil::ALL_OPS {
            assert!(a.gstencil_plateau(op) >= m.gstencil_plateau(op), "{:?}", op);
            assert!(a.gstencil_plateau(op) >= p.gstencil_plateau(op));
        }
    }
}
