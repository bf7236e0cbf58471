//! Host-CPU execution model for offloaded coarse levels — the
//! strong-scaling remedy the paper's discussion proposes ("solving small
//! size problems on the CPU where latency/overhead timings could be
//! significantly less than the GPU ones").

use gmg_stencil::OpKind;

/// An EPYC-class socket: much lower launch overhead, much lower bandwidth
/// than HBM.
#[derive(Clone, Copy, Debug)]
pub struct CpuModel {
    pub kernel_overhead_us: f64,
    pub dram_gbs: f64,
    /// PCIe transfer bandwidth for migrating a level between device and
    /// host (paid once per V-cycle per offloaded boundary).
    pub pcie_gbs: f64,
    pub pcie_latency_us: f64,
}

impl Default for CpuModel {
    fn default() -> Self {
        Self {
            kernel_overhead_us: 0.5,
            dram_gbs: 180.0,
            pcie_gbs: 32.0,
            pcie_latency_us: 10.0,
        }
    }
}

impl CpuModel {
    /// Whether a level of `cells` cells per rank runs on the host when
    /// levels of at most `below_cells` cells are offloaded (`None` keeps
    /// everything on the GPU, the paper's measured configuration).
    pub fn offloads(below_cells: Option<usize>, cells: usize) -> bool {
        below_cells.is_some_and(|t| cells <= t)
    }

    /// Modeled time of `op` over `points` fine cells on the host:
    /// launch overhead plus streaming the op's traffic from DRAM.
    pub fn kernel_time_s(&self, op: OpKind, points: usize) -> f64 {
        self.stream_time_s(points as f64 * op.traffic().per_fine_point().bytes_per_point())
    }

    /// Modeled time of one host kernel that moves `bytes` through DRAM.
    pub fn stream_time_s(&self, bytes: f64) -> f64 {
        self.kernel_overhead_us * 1e-6 + bytes / (self.dram_gbs * 1e9)
    }
}
