//! Seeded right-hand side and its exact discrete solution.
//!
//! The input of every bricked workload is `b = Σ_k a_k·sin(2π m_k·x + φ_k)`
//! with four plane-wave modes drawn from `--seed`; the solver only ever
//! sees the resulting field. Each mode is an eigenvector of the periodic
//! 7-point operator with eigenvalue `λ(m) = Σ_axis 2(cos(2π m h) − 1)/h²`,
//! so the exact *discrete* solution is `Σ_k a_k/λ(m_k)·sin(…)` — an
//! oracle that shares no code with `gmg_core::PoissonProblem`.

use gmg_mesh::Point3;
use std::f64::consts::PI;

const MODES: usize = 4;
/// Every mode's wavevector is a permutation of (1, 2, 3): all share one
/// eigenvalue and, by the operator's symmetry, one V-cycle convergence
/// history, so the V-cycle count to tolerance does not depend on the seed
/// (with components drawn freely from {1,2,3} it flips between 6 and 7).
const WAVEVECTORS: [[i64; 3]; 6] = [[1, 2, 3], [1, 3, 2], [2, 1, 3], [2, 3, 1], [3, 1, 2], [3, 2, 1]];

struct Mode {
    amp: f64,
    lambda: f64,
    /// `(sin, cos)` of `2π m_axis (i + ½) h` per global cell index; the
    /// phase is folded into the x table. Indexing by *global* index keeps
    /// the field bit-identical under any decomposition.
    tab: [Vec<(f64, f64)>; 3],
}

impl Mode {
    /// `sin(X + Y + Z)` from the per-axis tables (angle addition), so the
    /// 272³ fill costs multiplications instead of four `sin` calls per cell.
    fn wave(&self, p: Point3) -> f64 {
        let (sx, cx) = self.tab[0][p.x as usize];
        let (sy, cy) = self.tab[1][p.y as usize];
        let (sz, cz) = self.tab[2][p.z as usize];
        let s_xy = sx * cy + cx * sy;
        let c_xy = cx * cy - sx * sy;
        s_xy * cz + c_xy * sz
    }
}

pub struct Rhs {
    n: i64,
    modes: Vec<Mode>,
}

/// xorshift64* — the harness's only randomness.
struct XorShift(u64);

impl XorShift {
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    fn unit(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }
}

impl Rhs {
    /// The seed's four modes on an `n³` grid, scaled so that `max|b|`
    /// — the initial residual of a zero guess — equals `amplitude`.
    pub fn new(n: i64, seed: u64, amplitude: f64) -> Self {
        // The maximum of the continuous field, sampled on 32³ (ten
        // points per period of the highest mode): within a few percent
        // of the discrete maximum on any finer grid, at a cost that does
        // not grow with `n`.
        let coarse = Self::unscaled(32, seed);
        let mut peak = 0.0f64;
        gmg_mesh::Box3::cube(32).for_each(|p| peak = peak.max(coarse.b(p).abs()));
        let mut rhs = Self::unscaled(n, seed);
        for m in &mut rhs.modes {
            m.amp *= amplitude / peak;
        }
        rhs
    }

    fn unscaled(n: i64, seed: u64) -> Self {
        let mut rng = XorShift(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1);
        for _ in 0..8 {
            rng.next();
        }
        let h = 1.0 / n as f64;
        let modes = (0..MODES)
            .map(|_| {
                let m = WAVEVECTORS[(rng.next() % 6) as usize];
                let amp = (0.5 + 0.5 * rng.unit()) * if rng.next() & 1 == 0 { 1.0 } else { -1.0 };
                let phase = 2.0 * PI * rng.unit();
                let lambda = m.iter().map(|&ma| 2.0 * ((2.0 * PI * ma as f64 * h).cos() - 1.0) / (h * h)).sum();
                let tab = std::array::from_fn(|axis| {
                    (0..n)
                        .map(|i| {
                            let ph = if axis == 0 { phase } else { 0.0 };
                            (2.0 * PI * m[axis] as f64 * (i as f64 + 0.5) * h + ph).sin_cos()
                        })
                        .collect()
                });
                Mode { amp, lambda, tab }
            })
            .collect();
        Self { n, modes }
    }

    fn wrap(&self, p: Point3) -> Point3 {
        p.rem_euclid(Point3::splat(self.n))
    }

    /// Right-hand side at global cell `p` (any integer index; periodic).
    pub fn b(&self, p: Point3) -> f64 {
        let q = self.wrap(p);
        self.modes.iter().map(|m| m.amp * m.wave(q)).sum()
    }

    /// Exact discrete solution at global cell `p`.
    pub fn exact(&self, p: Point3) -> f64 {
        let q = self.wrap(p);
        self.modes.iter().map(|m| m.amp / m.lambda * m.wave(q)).sum()
    }

    /// Upper bound on `max|exact|` (the scale the error tolerance is
    /// relative to; tight within a small factor for four low modes).
    pub fn exact_scale(&self) -> f64 {
        self.modes.iter().map(|m| (m.amp / m.lambda).abs()).sum()
    }
}
