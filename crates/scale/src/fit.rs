//! Alpha–beta+contention model fitting over a scaling sweep.
//!
//! The simulator produces per-V-cycle times at a list of rank counts;
//! this module fits the three-term analytic form the contention model
//! predicts for a weak-scaling sweep:
//!
//! `t(ranks) = α + σ · stages(nodes) + τ · ⌈log₂ ranks⌉`
//!
//! where α absorbs the scale-invariant work (kernels, per-rank posting,
//! uncontended wire time), σ the per-switch-stage penalty (hop latency
//! plus bandwidth taper), and τ the allreduce tree depth cost. The
//! report gates on the relative RMS misfit: if the simulated times
//! cannot be explained by the model that generated them to ≤10%, the
//! observatory is broken and CI should say so.

use gmg_machine::contention::ContentionModel;

/// One sweep sample.
#[derive(Clone, Copy, Debug)]
pub struct SweepPoint {
    pub ranks: usize,
    pub nodes: usize,
    /// Simulated seconds per V-cycle.
    pub seconds: f64,
}

/// Fitted coefficients and fit quality.
#[derive(Clone, Debug)]
pub struct ScalingFit {
    /// Scale-invariant seconds per V-cycle.
    pub alpha_s: f64,
    /// Seconds per switch stage.
    pub per_stage_s: f64,
    /// Seconds per allreduce tree level.
    pub per_tree_level_s: f64,
    /// Model prediction at each input point, input order.
    pub predicted: Vec<f64>,
    /// Relative RMS misfit over the sweep.
    pub rel_rms_err: f64,
}

impl ScalingFit {
    /// Predicted seconds per V-cycle at an arbitrary scale.
    pub fn predict(&self, ranks: usize, nodes: usize, contention: &ContentionModel) -> f64 {
        self.alpha_s
            + self.per_stage_s * contention.fabric_stages(nodes) as f64
            + self.per_tree_level_s * contention.allreduce_depth(ranks) as f64
    }

    /// Predicted weak-scaling efficiency of `point` against `base`
    /// (per-rank work constant ⇒ efficiency is the time ratio).
    pub fn predicted_weak_efficiency(
        &self,
        base: &SweepPoint,
        point: &SweepPoint,
        contention: &ContentionModel,
    ) -> f64 {
        self.predict(base.ranks, base.nodes, contention)
            / self.predict(point.ranks, point.nodes, contention)
    }
}

/// Least-squares fit of the three-term model over `points`. Needs at
/// least three samples; returns `None` on a degenerate system (e.g.
/// every sample at the same scale).
pub fn fit_scaling_model(
    points: &[SweepPoint],
    contention: &ContentionModel,
) -> Option<ScalingFit> {
    if points.len() < 3 {
        return None;
    }
    let rows: Vec<[f64; 3]> = points
        .iter()
        .map(|p| {
            [
                1.0,
                contention.fabric_stages(p.nodes) as f64,
                contention.allreduce_depth(p.ranks) as f64,
            ]
        })
        .collect();
    // Normal equations AᵀA c = Aᵀy.
    let mut ata = [[0.0f64; 3]; 3];
    let mut aty = [0.0f64; 3];
    for (row, p) in rows.iter().zip(points) {
        for i in 0..3 {
            for j in 0..3 {
                ata[i][j] += row[i] * row[j];
            }
            aty[i] += row[i] * p.seconds;
        }
    }
    let coef = solve3(ata, aty)?;
    let predicted: Vec<f64> = rows
        .iter()
        .map(|r| coef[0] * r[0] + coef[1] * r[1] + coef[2] * r[2])
        .collect();
    let mut sq = 0.0;
    for (pred, p) in predicted.iter().zip(points) {
        if p.seconds > 0.0 {
            let rel = (pred - p.seconds) / p.seconds;
            sq += rel * rel;
        }
    }
    Some(ScalingFit {
        alpha_s: coef[0],
        per_stage_s: coef[1],
        per_tree_level_s: coef[2],
        predicted,
        rel_rms_err: (sq / points.len() as f64).sqrt(),
    })
}

/// 3×3 Gaussian elimination with partial pivoting.
fn solve3(mut a: [[f64; 3]; 3], mut b: [f64; 3]) -> Option<[f64; 3]> {
    for col in 0..3 {
        let pivot =
            (col..3).max_by(|&i, &j| a[i][col].abs().partial_cmp(&a[j][col].abs()).unwrap())?;
        if a[pivot][col].abs() < 1e-12 {
            return None;
        }
        a.swap(col, pivot);
        b.swap(col, pivot);
        for row in col + 1..3 {
            let pivot_row = a[col];
            let f = a[row][col] / pivot_row[col];
            for (x, p) in a[row][col..].iter_mut().zip(&pivot_row[col..]) {
                *x -= f * p;
            }
            b[row] -= f * b[col];
        }
    }
    let mut x = [0.0f64; 3];
    for row in (0..3).rev() {
        let mut s = b[row];
        for k in row + 1..3 {
            s -= a[row][k] * x[k];
        }
        x[row] = s / a[row][row];
    }
    Some(x)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sweep(c: &ContentionModel) -> Vec<SweepPoint> {
        [8usize, 64, 512, 1000, 4096, 10648]
            .iter()
            .map(|&ranks| {
                let nodes = ranks.div_ceil(4);
                let seconds = 0.010
                    + 0.002 * c.fabric_stages(nodes) as f64
                    + 0.0005 * c.allreduce_depth(ranks) as f64;
                SweepPoint {
                    ranks,
                    nodes,
                    seconds,
                }
            })
            .collect()
    }

    #[test]
    fn recovers_exact_coefficients() {
        let c = ContentionModel::slingshot();
        let pts = sweep(&c);
        let fit = fit_scaling_model(&pts, &c).unwrap();
        assert!((fit.alpha_s - 0.010).abs() < 1e-9, "{fit:?}");
        assert!((fit.per_stage_s - 0.002).abs() < 1e-9);
        assert!((fit.per_tree_level_s - 0.0005).abs() < 1e-9);
        assert!(fit.rel_rms_err < 1e-9);
    }

    #[test]
    fn noisy_data_fits_within_tolerance() {
        let c = ContentionModel::slingshot();
        let mut pts = sweep(&c);
        for (i, p) in pts.iter_mut().enumerate() {
            // ±2% deterministic perturbation.
            p.seconds *= 1.0 + 0.02 * if i % 2 == 0 { 1.0 } else { -1.0 };
        }
        let fit = fit_scaling_model(&pts, &c).unwrap();
        assert!(fit.rel_rms_err < 0.05, "err {}", fit.rel_rms_err);
        // Prediction at an unseen scale is sane.
        let t = fit.predict(100_000, 25_000, &c);
        assert!(t > 0.0 && t < 1.0);
    }

    #[test]
    fn degenerate_sweep_is_rejected() {
        let c = ContentionModel::slingshot();
        let pts = vec![
            SweepPoint {
                ranks: 64,
                nodes: 16,
                seconds: 0.01
            };
            5
        ];
        assert!(fit_scaling_model(&pts, &c).is_none());
        assert!(fit_scaling_model(&pts[..2], &c).is_none());
    }

    #[test]
    fn efficiency_prediction_declines_with_scale() {
        let c = ContentionModel::slingshot();
        let pts = sweep(&c);
        let fit = fit_scaling_model(&pts, &c).unwrap();
        let base = pts[0];
        let eff_1k = fit.predicted_weak_efficiency(&base, &pts[3], &c);
        let eff_10k = fit.predicted_weak_efficiency(&base, &pts[5], &c);
        assert!(eff_10k < eff_1k && eff_1k < 1.0);
        assert!(eff_10k > 0.5, "model efficiency collapse: {eff_10k}");
    }
}
