//! Host micro-benchmarks: the mixbench / Empirical Roofline Toolkit analog.
//!
//! The paper extracts each GPU's *empirical* roofline with mixbench (A100,
//! MI250X) and Intel Advisor (PVC). We cannot run those, but the same
//! methodology applies to the machine this reproduction executes on: this
//! module measures sustained memory bandwidth with a STREAM-style triad,
//! fits the memcpy latency-throughput curve, and packages both as a
//! [`HostRoofline`] so measured CPU kernel results (perfgate, gmgbench)
//! can be judged as a *fraction of this host's roofline* — the
//! exact metric of the paper's Table III, applied honestly to the hardware
//! we actually have.

use crate::model::LatencyThroughput;
use std::time::Instant;

/// Empirical memory-hierarchy characteristics of the executing host.
#[derive(Clone, Debug)]
pub struct HostRoofline {
    /// Sustained triad bandwidth (GB/s) of one thread — the roof one
    /// rank's kernels stream against.
    pub triad_gbs: f64,
    /// Single-thread copy throughput model (x = bytes).
    pub copy_alpha_s: f64,
    pub copy_beta_gbs: f64,
}

impl HostRoofline {
    /// GStencil/s ceiling on this host for a kernel moving
    /// `doubles_per_point` doubles per stencil point (the CPU analog of
    /// [`crate::GpuModel::gstencil_ceiling`]).
    pub fn gstencil_ceiling(&self, doubles_per_point: f64) -> f64 {
        self.triad_gbs / (8.0 * doubles_per_point)
    }

    /// Fraction of this host's roofline achieved by a measured kernel
    /// (points per second at `doubles_per_point` traffic).
    pub fn roofline_fraction(&self, points_per_s: f64, doubles_per_point: f64) -> f64 {
        let achieved_gbs = points_per_s * 8.0 * doubles_per_point / 1e9;
        achieved_gbs / self.triad_gbs
    }
}

/// Measure a STREAM-style triad `a[i] = b[i] + s·c[i]` on the calling
/// thread. `bytes_per_array` should comfortably exceed the last-level cache.
pub fn measure_triad_gbs(bytes_per_array: usize, repeats: usize) -> f64 {
    let n = (bytes_per_array / 8).max(1024);
    let b: Vec<f64> = (0..n).map(|i| i as f64 * 0.5).collect();
    let c: Vec<f64> = (0..n).map(|i| (n - i) as f64).collect();
    let mut a = vec![0.0f64; n];
    let s = 3.0f64;
    let triad = |a: &mut [f64]| {
        for (ai, (bi, ci)) in a.iter_mut().zip(b.iter().zip(&c)) {
            *ai = bi + s * ci;
        }
    };
    // Warm-up pass also faults the pages in.
    triad(&mut a);
    let mut best = f64::INFINITY;
    for _ in 0..repeats.max(1) {
        let t0 = Instant::now();
        triad(&mut a);
        // `a` is never read again, so without this the optimizer may delete
        // the timed stores outright (observed: hundreds of TB/s).
        std::hint::black_box(a.as_slice());
        best = best.min(t0.elapsed().as_secs_f64());
    }
    // Triad traffic: read b, read c, write a (no write-allocate accounting).
    let bytes = 3.0 * n as f64 * 8.0;
    bytes / best / 1e9
}

/// Fit the single-thread memcpy latency-throughput curve over a geometric
/// sweep of sizes — the paper's `f(x) = x/(α + x/β)` applied to this
/// host's memory system.
pub fn fit_copy_curve() -> LatencyThroughput {
    let sizes: Vec<usize> = (10..=24).step_by(2).map(|p| 1usize << p).collect();
    let mut samples = Vec::with_capacity(sizes.len());
    for &bytes in &sizes {
        let n = bytes / 8;
        let src = vec![1.0f64; n];
        let mut dst = vec![0.0f64; n];
        dst.copy_from_slice(&src); // warm
        let reps = (1 << 22) / bytes.max(1) + 3;
        let t0 = Instant::now();
        for _ in 0..reps {
            dst.copy_from_slice(&src);
            std::hint::black_box(&dst);
        }
        let t = t0.elapsed().as_secs_f64() / reps as f64;
        samples.push((bytes as f64, t));
    }
    LatencyThroughput::fit_time(&samples)
}

/// Measure the full host roofline (triad + copy fit).
pub fn measure_host() -> HostRoofline {
    let lt = fit_copy_curve();
    HostRoofline {
        triad_gbs: measure_triad_gbs(64 << 20, 3),
        copy_alpha_s: lt.alpha_s,
        copy_beta_gbs: lt.beta / 1e9,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn triad_measures_something_sane() {
        // Tiny arrays keep the test fast; any functioning machine moves
        // well over 0.1 GB/s.
        let gbs = measure_triad_gbs(4 << 20, 2);
        assert!(gbs > 0.1, "triad {gbs} GB/s");
        assert!(gbs < 10_000.0, "triad {gbs} GB/s is implausible");
    }

    #[test]
    fn copy_fit_is_positive_and_finite() {
        let lt = fit_copy_curve();
        assert!(lt.alpha_s >= 0.0);
        assert!(lt.beta > 1e8, "copy β {} B/s", lt.beta); // > 0.1 GB/s
    }

    #[test]
    fn roofline_fraction_algebra() {
        let h = HostRoofline {
            triad_gbs: 100.0,
            copy_alpha_s: 1e-7,
            copy_beta_gbs: 50.0,
        };
        // applyOp traffic (2 doubles/point): ceiling = 100/16 GStencil/s.
        let ceiling = h.gstencil_ceiling(2.0);
        assert!((ceiling - 6.25).abs() < 1e-12);
        // Achieving exactly the ceiling is fraction 1.
        let f = h.roofline_fraction(ceiling * 1e9, 2.0);
        assert!((f - 1.0).abs() < 1e-12);
    }
}
