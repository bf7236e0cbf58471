//! Figure 5: GStencil/s per invocation for `applyOp` and `smooth+residual`
//! across the V-cycle levels, against the latency-throughput model and the
//! theoretical per-machine ceilings.

use gmg_machine::gpu::System;
use gmg_machine::model::LatencyThroughput;
use gmg_machine::timing::KernelTiming;
use gmg_stencil::OpKind;
use gmg_trace::{json, Json};

/// One measured series: GStencil/s per level for one op on one system.
pub struct KernelSeries {
    pub system: System,
    pub op: OpKind,
    /// `(points, gstencil_per_s)` per level, finest first.
    pub samples: Vec<(usize, f64)>,
    /// Theoretical ceiling (GStencil/s) from bandwidth / compulsory bytes.
    pub ceiling: f64,
    /// Fitted latency α (s) and throughput β (stencil/s) of the model.
    pub fit: LatencyThroughput,
    /// R² of the fit — the paper notes the model is "well-correlated".
    pub r_squared: f64,
}

/// Build the series for one op on one system over the paper's level sizes
/// (512³ … 16³).
pub fn series(system: System, op: OpKind) -> KernelSeries {
    let gpu = system.gpu();
    let samples: Vec<(usize, f64)> = (0..6)
        .map(|l| {
            let n = 512usize >> l;
            let points = n * n * n;
            let k = KernelTiming::model(&gpu, op, points);
            (points, k.gstencil_per_s)
        })
        .collect();
    let time_samples: Vec<(f64, f64)> = samples
        .iter()
        .map(|&(p, g)| (p as f64, p as f64 / (g * 1e9)))
        .collect();
    let fit = LatencyThroughput::fit_time(&time_samples);
    let r2 = fit.r_squared(&time_samples);
    KernelSeries {
        system,
        op,
        samples,
        ceiling: gpu.gstencil_ceiling(op),
        fit,
        r_squared: r2,
    }
}

/// Run the harness.
pub fn run() -> Json {
    crate::report::heading("Figure 5 — kernel GStencil/s vs per-level problem size");
    let mut out = Vec::new();
    for op in [OpKind::ApplyOp, OpKind::SmoothResidual] {
        println!("\n-- {} --", op.name());
        println!(
            "{:<12} {:>10} {:>10} {:>10} {:>10} {:>10} {:>10}  {:>9} {:>11} {:>7}",
            "system",
            "512^3",
            "256^3",
            "128^3",
            "64^3",
            "32^3",
            "16^3",
            "ceiling",
            "fit alpha",
            "R^2"
        );
        for sys in System::ALL {
            let s = series(sys, op);
            print!("{:<12}", format!("{:?}", s.system));
            for (_, g) in &s.samples {
                print!(" {g:>10.2}");
            }
            println!(
                "  {:>9.2} {:>9.1}us {:>7.4}",
                s.ceiling,
                s.fit.alpha_s * 1e6,
                s.r_squared
            );
            out.push(json!({
                "system": format!("{:?}", s.system),
                "op": op.name(),
                "points": s.samples.iter().map(|(p, _)| p).collect::<Vec<_>>(),
                "gstencil_per_s": s.samples.iter().map(|(_, g)| g).collect::<Vec<_>>(),
                "ceiling_gstencil_per_s": s.ceiling,
                "fit_alpha_us": s.fit.alpha_s * 1e6,
                "fit_beta_gstencil_per_s": s.fit.beta / 1e9,
                "r_squared": s.r_squared,
            }));
        }
    }
    // ASCII rendering of the figure (levels on x, GStencil/s on y).
    for op in [OpKind::ApplyOp, OpKind::SmoothResidual] {
        let series: Vec<crate::plot::Series> = System::ALL
            .iter()
            .zip(['P', 'F', 'S'])
            .map(|(&sys, glyph)| {
                let s = series(sys, op);
                crate::plot::Series::new(
                    format!("{sys:?}"),
                    glyph,
                    s.samples.iter().map(|&(p, g)| (p as f64, g)).collect(),
                )
            })
            .collect();
        println!(
            "
{}",
            crate::plot::loglog(
                &format!("{} — GStencil/s vs points", op.name()),
                &series,
                60,
                12
            )
        );
    }
    json!({ "series": out })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn finest_levels_near_ceiling_coarse_levels_latency_bound() {
        for sys in System::ALL {
            for op in [OpKind::ApplyOp, OpKind::SmoothResidual] {
                let s = series(sys, op);
                let finest = s.samples[0].1;
                let coarsest = s.samples[5].1;
                assert!(
                    finest / s.ceiling > 0.4,
                    "{sys:?} {} finest {finest:.1} vs ceiling {:.1}",
                    op.name(),
                    s.ceiling
                );
                assert!(finest <= s.ceiling * 1.0001);
                // 16³ sits deep in the latency regime.
                assert!(coarsest < 0.2 * finest, "{sys:?} {}", op.name());
            }
        }
    }

    #[test]
    fn fitted_latency_in_5_to_20_us_band() {
        // Paper Figure 5: empirical latencies between 5 µs and 20 µs.
        for sys in System::ALL {
            for op in [OpKind::ApplyOp, OpKind::SmoothResidual] {
                let s = series(sys, op);
                assert!(
                    (4e-6..22e-6).contains(&s.fit.alpha_s),
                    "{sys:?} {} alpha {:.1}us",
                    op.name(),
                    s.fit.alpha_s * 1e6
                );
                assert!(s.r_squared > 0.999, "model should correlate");
            }
        }
    }

    #[test]
    fn nvidia_highest_throughput_per_process() {
        let a = series(System::Perlmutter, OpKind::ApplyOp).samples[0].1;
        let m = series(System::Frontier, OpKind::ApplyOp).samples[0].1;
        let p = series(System::Sunspot, OpKind::ApplyOp).samples[0].1;
        assert!(a > m && a > p, "A100 {a:.1}, GCD {m:.1}, PVC {p:.1}");
    }
}
