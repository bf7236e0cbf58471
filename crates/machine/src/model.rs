//! The latency-throughput model `f(x) = x / (α + x/β)` and its fitting.
//!
//! The paper uses this single linear model (linear in *time*:
//! `t(x) = α + x/β`) for both computation kernels (x = stencil points,
//! f(x) = GStencil/s) and communication (x = message bytes, f(x) = GB/s).
//! Fitting α and β to measured `(x, t)` samples is ordinary least squares
//! on the time form.

/// A fitted (or constructed) latency-throughput model.
///
/// Units are carried by convention: `alpha_s` is seconds; `beta` is
/// *units of x per second* (stencil points/s or bytes/s).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct LatencyThroughput {
    /// Latency/overhead per invocation, in seconds.
    pub alpha_s: f64,
    /// Asymptotic throughput, in x-units per second.
    pub beta: f64,
}

impl LatencyThroughput {
    /// Construct from latency (seconds) and throughput (x-units/second).
    pub fn new(alpha_s: f64, beta: f64) -> Self {
        assert!(alpha_s >= 0.0, "negative latency");
        assert!(beta > 0.0, "throughput must be positive");
        Self { alpha_s, beta }
    }

    /// Time for one invocation of size `x`: `t = α + x/β`.
    #[inline]
    pub fn time_s(&self, x: f64) -> f64 {
        self.alpha_s + x / self.beta
    }

    /// Achieved rate at size `x`: `f(x) = x / (α + x/β)`. Approaches β as
    /// `x → ∞`; linear in `x` when latency dominates.
    #[inline]
    pub fn rate(&self, x: f64) -> f64 {
        x / self.time_s(x)
    }

    /// The size at which half the asymptotic throughput is achieved
    /// (`x_half = α·β` — the "N-half" metric of network analysis).
    pub fn half_throughput_size(&self) -> f64 {
        self.alpha_s * self.beta
    }

    /// Least-squares fit of `t = α + x/β` to `(x, t_seconds)` samples.
    /// Requires at least two samples with distinct `x`. A negative fitted
    /// intercept is clamped to zero (measured rates can exceed the linear
    /// model at small sizes due to caching).
    pub fn fit_time(samples: &[(f64, f64)]) -> Self {
        assert!(samples.len() >= 2, "need at least two samples");
        let n = samples.len() as f64;
        let sx: f64 = samples.iter().map(|(x, _)| x).sum();
        let st: f64 = samples.iter().map(|(_, t)| t).sum();
        let sxx: f64 = samples.iter().map(|(x, _)| x * x).sum();
        let sxt: f64 = samples.iter().map(|(x, t)| x * t).sum();
        let denom = n * sxx - sx * sx;
        assert!(denom.abs() > 0.0, "samples must have distinct x");
        let slope = (n * sxt - sx * st) / denom;
        let intercept = (st - slope * sx) / n;
        assert!(slope > 0.0, "non-positive fitted slope: degenerate data");
        Self {
            alpha_s: intercept.max(0.0),
            beta: 1.0 / slope,
        }
    }

    /// Coefficient of determination (R²) of the time-form fit against the
    /// given `(x, t)` samples — the paper notes the linear model is
    /// "well-correlated" with measurements; this quantifies it.
    pub fn r_squared(&self, samples: &[(f64, f64)]) -> f64 {
        let n = samples.len() as f64;
        if n < 2.0 {
            return 1.0;
        }
        let mean_t: f64 = samples.iter().map(|(_, t)| t).sum::<f64>() / n;
        let ss_tot: f64 = samples.iter().map(|(_, t)| (t - mean_t).powi(2)).sum();
        let ss_res: f64 = samples
            .iter()
            .map(|(x, t)| (t - self.time_s(*x)).powi(2))
            .sum();
        if ss_tot == 0.0 {
            return 1.0;
        }
        1.0 - ss_res / ss_tot
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rate_asymptotes_to_beta() {
        let m = LatencyThroughput::new(10e-6, 25e9); // 10 µs, 25 GB/s
        assert!(m.rate(1e12) / 25e9 > 0.999);
        // At tiny sizes, rate ≈ x/α (latency-bound).
        let x = 100.0;
        assert!((m.rate(x) - x / 10e-6).abs() / (x / 10e-6) < 0.01);
    }

    #[test]
    fn time_is_affine() {
        let m = LatencyThroughput::new(1e-6, 1e9);
        assert!((m.time_s(0.0) - 1e-6).abs() < 1e-18);
        assert!((m.time_s(1e9) - (1e-6 + 1.0)).abs() < 1e-12);
    }

    #[test]
    fn half_throughput_size() {
        let m = LatencyThroughput::new(2e-6, 5e9);
        let xh = m.half_throughput_size();
        assert!((m.rate(xh) / m.beta - 0.5).abs() < 1e-12);
    }

    #[test]
    fn fit_recovers_exact_parameters() {
        let truth = LatencyThroughput::new(15e-6, 14e9);
        let samples: Vec<(f64, f64)> = [1e3, 1e4, 1e5, 1e6, 1e7, 1e8]
            .iter()
            .map(|&x| (x, truth.time_s(x)))
            .collect();
        let fit = LatencyThroughput::fit_time(&samples);
        assert!((fit.alpha_s - truth.alpha_s).abs() / truth.alpha_s < 1e-9);
        assert!((fit.beta - truth.beta).abs() / truth.beta < 1e-9);
        assert!(fit.r_squared(&samples) > 0.999999);
    }

    #[test]
    fn fit_with_noise_is_close() {
        let truth = LatencyThroughput::new(20e-6, 10e9);
        // Deterministic ±5% "noise".
        let samples: Vec<(f64, f64)> = (0..10)
            .map(|i| {
                let x = 1e4 * (4.0f64).powi(i);
                let wiggle = 1.0 + 0.05 * if i % 2 == 0 { 1.0 } else { -1.0 };
                (x, truth.time_s(x) * wiggle)
            })
            .collect();
        let fit = LatencyThroughput::fit_time(&samples);
        assert!((fit.beta - truth.beta).abs() / truth.beta < 0.1);
        assert!(fit.r_squared(&samples) > 0.98);
    }

    #[test]
    fn negative_intercept_clamped() {
        // Times that decrease with size at the small end force a negative
        // intercept; we clamp to zero latency.
        let samples = vec![(1e3, 1.0e-6), (1e6, 1.0e-4), (1e9, 1.0e-1)];
        let fit = LatencyThroughput::fit_time(&samples);
        assert!(fit.alpha_s >= 0.0);
    }

    #[test]
    #[should_panic]
    fn single_sample_panics() {
        LatencyThroughput::fit_time(&[(1.0, 1.0)]);
    }
}
