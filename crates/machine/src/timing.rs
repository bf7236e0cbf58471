//! Kernel timing engine: turns (machine model, operation, problem size)
//! into simulated execution time via the latency-throughput model.

use crate::gpu::GpuModel;
use crate::model::LatencyThroughput;
use gmg_stencil::OpKind;

/// Simulated timing of one V-cycle kernel on one GPU.
#[derive(Clone, Debug)]
pub struct KernelTiming {
    pub op: OpKind,
    /// Fine-grid stencil points processed per invocation.
    pub points: usize,
    /// Simulated time per invocation, seconds.
    pub time_s: f64,
    /// Achieved GStencil/s at this size.
    pub gstencil_per_s: f64,
}

impl KernelTiming {
    /// Model the execution of `op` over `points` fine-grid cells on `gpu`.
    ///
    /// The kernel's latency-throughput model has α = the GPU's kernel
    /// overhead and β = the op's sustained GStencil/s plateau (theoretical
    /// ceiling derated by the calibrated roofline and AI fractions).
    pub fn model(gpu: &GpuModel, op: OpKind, points: usize) -> Self {
        let lt = Self::latency_model(gpu, op);
        let x = points as f64;
        let t = lt.time_s(x);
        Self {
            op,
            points,
            time_s: t,
            gstencil_per_s: lt.rate(x) / 1e9,
        }
    }

    /// The op's latency-throughput model on `gpu` (x in stencil points).
    pub fn latency_model(gpu: &GpuModel, op: OpKind) -> LatencyThroughput {
        LatencyThroughput::new(
            gpu.kernel_overhead_us * 1e-6,
            gpu.gstencil_plateau(op) * 1e9,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gpu::System;

    #[test]
    fn large_kernels_hit_plateau() {
        let g = System::Perlmutter.gpu();
        let k = KernelTiming::model(&g, OpKind::ApplyOp, 512 * 512 * 512);
        let plateau = g.gstencil_plateau(OpKind::ApplyOp);
        assert!(k.gstencil_per_s / plateau > 0.95, "{}", k.gstencil_per_s);
    }

    #[test]
    fn small_kernels_are_latency_bound() {
        let g = System::Sunspot.gpu();
        let points = 16 * 16 * 16;
        let k = KernelTiming::model(&g, OpKind::ApplyOp, points);
        // Time ≈ overhead when latency dominates.
        assert!(k.time_s < 1.1 * g.kernel_overhead_us * 1e-6 + 1e-6);
        // Rate is far below plateau.
        assert!(k.gstencil_per_s < 0.3 * g.gstencil_plateau(OpKind::ApplyOp));
    }

    #[test]
    fn level_scaling_is_8x_when_bandwidth_bound() {
        // Fine levels: time ratio between adjacent levels approaches 8×
        // (volume ratio); coarse levels flatten to the overhead floor.
        let g = System::Perlmutter.gpu();
        let t0 = KernelTiming::model(&g, OpKind::SmoothResidual, 512usize.pow(3)).time_s;
        let t1 = KernelTiming::model(&g, OpKind::SmoothResidual, 256usize.pow(3)).time_s;
        assert!((t0 / t1 - 8.0).abs() < 0.5, "{}", t0 / t1);
        let t4 = KernelTiming::model(&g, OpKind::SmoothResidual, 32usize.pow(3)).time_s;
        let t5 = KernelTiming::model(&g, OpKind::SmoothResidual, 16usize.pow(3)).time_s;
        assert!(t4 / t5 < 3.0, "coarse levels latency-bound: {}", t4 / t5);
    }

    #[test]
    fn empirical_latency_in_paper_range() {
        // Paper Figure 5: empirical kernel latencies between 5 and 20 µs.
        for sys in System::ALL {
            let g = sys.gpu();
            let lt = KernelTiming::latency_model(&g, OpKind::ApplyOp);
            assert!((4.9e-6..=20.1e-6).contains(&lt.alpha_s), "{:?}", sys);
        }
    }
}
