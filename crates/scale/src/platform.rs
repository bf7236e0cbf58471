//! One cost model for every simulated V-cycle: a [`Platform`] prices the
//! steps [`VcycleSchedule`](gmg_stencil::VcycleSchedule) yields through
//! the paper's two models, the roofline and `t = α + x/β`.

use gmg_comm::model::NetworkModel;
use gmg_comm::plan::message_bytes;
use gmg_machine::gpu::System;
use gmg_machine::timing::KernelTiming;
use gmg_machine::{CpuModel, GpuModel};
use gmg_mesh::Point3;
use gmg_stencil::{OpKind, VcycleShape, VcycleStep};

/// How a level's ghost shell travels.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ExchangeKind {
    /// Whole ghost bricks, sent in place (surface-major: nothing packed).
    Bricked,
    /// A ghost shell on `ijk` arrays, packed and unpacked around each send.
    ArrayPacked,
}

/// The machine a simulated V-cycle runs on: kernels on the GPU (or, for
/// offloaded coarse levels, the host CPU), ghost exchanges on the network.
#[derive(Clone, Debug)]
pub struct Platform {
    pub gpu: GpuModel,
    pub cpu: CpuModel,
    pub net: NetworkModel,
    pub exchange: ExchangeKind,
    /// Fraction of the bricked kernels' sustained rate the kernels reach.
    pub derate: f64,
}

/// What one level of a shape costs on a [`Platform`], kernels aside.
#[derive(Clone, Debug)]
pub(crate) struct PricedLevel {
    pub(crate) on_cpu: bool,
    pub(crate) exchange_s: f64,
    pub(crate) init_zero_s: f64,
    /// PCIe round trip (`b` down, the correction up) of the first host
    /// level below a device level.
    pub(crate) migrate_s: Option<f64>,
}

/// Bytes per message of a brick level's exchange: a shell one brick
/// (`brick_dim` cells) deep, which only a brick-aligned extent has.
pub(crate) fn brick_shell_bytes(extent: Point3, brick_dim: i64) -> [usize; 26] {
    assert!(
        (0..3).all(|a| extent[a] % brick_dim == 0),
        "level extent {extent:?} not aligned to brick dim {brick_dim}"
    );
    message_bytes(extent, brick_dim)
}

impl Platform {
    /// The bricked code on one of the paper's systems. This is the one
    /// table from `System` to the calibrated network presets.
    pub fn paper(system: System) -> Self {
        Self {
            gpu: system.gpu(),
            cpu: CpuModel::default(),
            net: match system {
                System::Perlmutter => NetworkModel::perlmutter(),
                System::Frontier => NetworkModel::frontier(),
                System::Sunspot => NetworkModel::sunspot(),
            },
            exchange: ExchangeKind::Bricked,
            derate: 1.0,
        }
    }

    /// The HPGMG-style baseline on `system`: packed array exchanges, and
    /// kernels derated for the conventional layout's extra address streams
    /// and data movement. The derate is against the *bricked* kernels
    /// (HPGMG-CUDA is a tuned code), calibrated so the per-V-cycle ratio
    /// lands on the paper's 1.58× on Perlmutter and 1.46× on Frontier.
    pub fn hpgmg(system: System) -> Self {
        Self {
            exchange: ExchangeKind::ArrayPacked,
            derate: match system {
                System::Perlmutter => 0.578,
                System::Frontier => 0.633,
                System::Sunspot => 0.58,
            },
            ..Self::paper(system)
        }
    }

    /// Modeled time of one kernel of `op` over `points` fine cells:
    /// `α + x/(β·derate)` on the GPU, the streaming model on the host.
    pub(crate) fn kernel_s(&self, op: OpKind, points: usize, on_cpu: bool) -> f64 {
        if on_cpu {
            return self.cpu.kernel_time_s(op, points);
        }
        let lt = KernelTiming::latency_model(&self.gpu, op);
        lt.alpha_s + points as f64 / (lt.beta * self.derate)
    }

    /// The per-level costs of `shape`, levels of at most
    /// `offload_below_cells` cells per rank on the host CPU.
    pub(crate) fn levels(&self, shape: &VcycleShape, offload: Option<usize>) -> Vec<PricedLevel> {
        let on_cpu = |li: usize| CpuModel::offloads(offload, shape.cells(li));
        (0..shape.extents.len())
            .map(|li| {
                let (extent, depth) = (shape.extents[li], shape.ghost_depth[li]);
                let owned = shape.cells(li) as f64;
                // A bricked zero fill covers the ghost shell too. Pack and
                // unpack each read and write the array surface.
                let (bytes, zero_cells, pack_s) = match self.exchange {
                    ExchangeKind::Bricked => {
                        let bytes = brick_shell_bytes(extent, depth);
                        let shell = bytes.iter().sum::<usize>() as f64 / 8.0;
                        (bytes, owned + shell, None)
                    }
                    ExchangeKind::ArrayPacked => {
                        let bytes = message_bytes(extent, depth);
                        let total = bytes.iter().sum::<usize>() as f64;
                        let pack = 2.0 * self.gpu.stream_time_s(2.0 * total);
                        (bytes, owned, Some(pack))
                    }
                };
                // Host-resident data skips device staging and the GPU's
                // progress engine on the way to the NIC.
                let exchange_s = if on_cpu(li) {
                    0.5 * self
                        .net
                        .clone()
                        .with_gpu_aware(true)
                        .exchange_time_s(&bytes)
                } else {
                    let wire = self.net.exchange_time_s(&bytes);
                    pack_s.map_or(wire, |pack| wire + pack)
                };
                PricedLevel {
                    on_cpu: on_cpu(li),
                    exchange_s,
                    init_zero_s: self.gpu.stream_time_s(zero_cells * 8.0),
                    migrate_s: (li > 0 && on_cpu(li) && !on_cpu(li - 1)).then(|| {
                        2.0 * (self.cpu.pcie_latency_us * 1e-6
                            + owned * 8.0 / (self.cpu.pcie_gbs * 1e9))
                    }),
                }
            })
            .collect()
    }

    /// Price one step over `levels` (from [`Platform::levels`]), charging
    /// `(level, op, seconds)`: kernels under their op name, then
    /// `"exchange"`, `"initZero"` and `"pcie-migrate"`.
    pub(crate) fn price(
        &self,
        levels: &[PricedLevel],
        step: VcycleStep,
        mut charge: impl FnMut(usize, &'static str, f64),
    ) {
        match step {
            VcycleStep::Kernel { level, op, points } => charge(
                level,
                op.name(),
                self.kernel_s(op, points, levels[level].on_cpu),
            ),
            VcycleStep::Exchange { level } => charge(level, "exchange", levels[level].exchange_s),
            // Priced as the two kernels that follow it.
            VcycleStep::Smooth { .. } => {}
            VcycleStep::InitZero { level, .. } => {
                charge(level, "initZero", levels[level].init_zero_s);
                if let Some(t) = levels[level].migrate_s {
                    charge(level, "pcie-migrate", t);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_derate_of_one_is_the_machine_models_kernel_cost() {
        // A derate of 1 is exact: the bricked platform's kernel cost is
        // `KernelTiming::model` bit for bit.
        for sys in System::ALL {
            let p = Platform::paper(sys);
            for op in [OpKind::ApplyOp, OpKind::SmoothResidual, OpKind::Restriction] {
                for points in [1, 4096, 512 * 512 * 512] {
                    let model = KernelTiming::model(&p.gpu, op, points).time_s;
                    assert_eq!(p.kernel_s(op, points, false).to_bits(), model.to_bits());
                }
            }
        }
    }
}
