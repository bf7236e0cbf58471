//! Measured (real hardware) companion to Figure 5: run the actual bricked
//! and conventional 7-point kernels on this host across the V-cycle level
//! sizes, fit the latency-throughput model to the measurements, and report
//! empirical α, β and R² — demonstrating the paper's methodology end to
//! end on hardware we really have.

use gmg_brick::{BrickLayout, BrickOrdering, BrickedField};
use gmg_machine::model::LatencyThroughput;
use gmg_mesh::{Array3, Box3, Point3};
use gmg_stencil::exec_array::apply_star7_array;
use gmg_stencil::exec_brick::apply_star7_bricked;
use gmg_trace::{json, Json};
use std::sync::Arc;
use std::time::Instant;

/// One measured sweep: layout name, per-size `(points, seconds)` samples,
/// and the fitted model.
pub struct MeasuredSweep {
    pub layout: &'static str,
    pub samples: Vec<(usize, f64)>,
    pub fit: LatencyThroughput,
    pub r_squared: f64,
}

fn time_best_of(reps: usize, mut f: impl FnMut()) -> f64 {
    f(); // warm
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let t0 = Instant::now();
        f();
        best = best.min(t0.elapsed().as_secs_f64());
    }
    best
}

/// Sweep the bricked kernel over cubic sizes.
pub fn sweep_bricked(sizes: &[i64], brick_dim: i64) -> MeasuredSweep {
    let mut samples = Vec::with_capacity(sizes.len());
    for &n in sizes {
        let bd = brick_dim.min(n);
        let layout = Arc::new(BrickLayout::new(
            Box3::cube(n),
            bd,
            1,
            BrickOrdering::SurfaceMajor,
        ));
        let src = BrickedField::from_fn(layout.clone(), |p| (p.x + p.y + p.z) as f64 * 1e-3);
        let mut dst = BrickedField::new(layout);
        let t = time_best_of(5, || {
            apply_star7_bricked(&mut dst, &src, -6.0, 1.0, Box3::cube(n));
        });
        samples.push(((n * n * n) as usize, t));
    }
    finish("bricked", samples)
}

/// Sweep the conventional-array kernel over cubic sizes.
pub fn sweep_array(sizes: &[i64]) -> MeasuredSweep {
    let mut samples = Vec::with_capacity(sizes.len());
    for &n in sizes {
        let v = Box3::cube(n);
        let src = Array3::from_fn(v, 1, |p: Point3| (p.x + p.y + p.z) as f64 * 1e-3);
        let mut dst = Array3::new(v, 1);
        let t = time_best_of(5, || {
            apply_star7_array(&mut dst, &src, -6.0, 1.0, v);
        });
        samples.push(((n * n * n) as usize, t));
    }
    finish("array", samples)
}

fn finish(layout: &'static str, samples: Vec<(usize, f64)>) -> MeasuredSweep {
    let ts: Vec<(f64, f64)> = samples.iter().map(|&(p, t)| (p as f64, t)).collect();
    let fit = LatencyThroughput::fit_time(&ts);
    let r_squared = fit.r_squared(&ts);
    MeasuredSweep {
        layout,
        samples,
        fit,
        r_squared,
    }
}

/// Run the measured harness (small sizes so it stays quick).
pub fn run() -> Json {
    crate::report::heading("Measured — real applyOp on this host, Figure 5 methodology");
    let sizes = [16i64, 24, 32, 48, 64, 96];
    let sweeps = [sweep_bricked(&sizes, 8), sweep_array(&sizes)];
    println!(
        "{:<9} {:>11} {:>11} {:>11}  {:>11} {:>12} {:>7}",
        "layout", "16^3", "32^3", "96^3", "fit alpha", "fit beta", "R^2"
    );
    let mut out = Vec::new();
    for s in &sweeps {
        let pick = |n: i64| {
            s.samples
                .iter()
                .find(|(p, _)| *p == (n * n * n) as usize)
                .map(|(p, t)| *p as f64 / t / 1e9)
                .unwrap_or(f64::NAN)
        };
        println!(
            "{:<9} {:>10.3}G {:>10.3}G {:>10.3}G  {:>9.1} µs {:>7.3} G/s {:>7.3}",
            s.layout,
            pick(16),
            pick(32),
            pick(96),
            s.fit.alpha_s * 1e6,
            s.fit.beta / 1e9,
            s.r_squared
        );
        out.push(json!({
            "layout": s.layout,
            "points": s.samples.iter().map(|(p, _)| p).collect::<Vec<_>>(),
            "seconds": s.samples.iter().map(|(_, t)| t).collect::<Vec<_>>(),
            "fit_alpha_us": s.fit.alpha_s * 1e6,
            "fit_beta_gstencil_per_s": s.fit.beta / 1e9,
            "r_squared": s.r_squared,
        }));
    }
    println!(
        "\n(GStencil/s per size; α and β are least-squares fits of t = α + points/β,\n\
         the same extraction the paper applies to its GPU measurements.)"
    );
    json!({ "sweeps": out })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn measured_sweep_fits_reasonably() {
        // Tiny sweep; the linear model should describe real kernels well.
        let s = sweep_bricked(&[8, 16, 24, 32], 8);
        assert_eq!(s.samples.len(), 4);
        for w in s.samples.windows(2) {
            assert!(w[1].0 > w[0].0);
            assert!(w[1].1 > 0.0);
        }
        assert!(s.fit.beta > 0.0);
        assert!(
            s.r_squared > 0.8,
            "linear model should fit real kernels: R² = {}",
            s.r_squared
        );
    }

    #[test]
    fn array_sweep_runs() {
        let s = sweep_array(&[8, 16, 24]);
        assert_eq!(s.samples.len(), 3);
        assert!(s.fit.beta > 1e5); // > 0.1 MStencil/s on any machine
    }
}
