//! Rank topology for simulated worlds: a near-cubic periodic 3D process
//! grid at arbitrary rank counts, plus the rank↔node mapping.
//!
//! The real rank runtime builds its process grid from
//! `gmg_mesh::decomp`; at 10k–100k simulated ranks we only need the
//! *shape* — who neighbors whom across the six faces — so this module
//! factors any rank count into the most cubic `dx × dy × dz` box and
//! serves periodic face neighbors in a fixed direction order.

/// Receiver-side face-direction order used everywhere in the simulator:
/// `-x, +x, -y, +y, -z, +z`. Opposite of direction `i` is `i ^ 1`.
pub const FACE_DIRS: usize = 6;

/// A periodic 3D process grid.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RankGrid {
    pub dims: [usize; 3],
}

impl RankGrid {
    /// Factor `n` ranks into the most cubic `dx ≤ dy ≤ dz` box (the
    /// triple minimizing `dz/dx`). Exact: every rank is used, so `n`
    /// must equal `dx·dy·dz` — any `n ≥ 1` works because `1×1×n` is
    /// always available.
    pub fn near_cubic(n: usize) -> RankGrid {
        assert!(n >= 1, "rank grid needs at least one rank");
        let mut best = [1, 1, n];
        let mut best_ratio = n as f64;
        let mut dx = 1;
        while dx * dx * dx <= n {
            if n.is_multiple_of(dx) {
                let rest = n / dx;
                let mut dy = dx;
                while dy * dy <= rest {
                    if rest.is_multiple_of(dy) {
                        let dz = rest / dy;
                        let ratio = dz as f64 / dx as f64;
                        if ratio < best_ratio {
                            best_ratio = ratio;
                            best = [dx, dy, dz];
                        }
                    }
                    dy += 1;
                }
            }
            dx += 1;
        }
        RankGrid { dims: best }
    }

    pub fn len(&self) -> usize {
        self.dims[0] * self.dims[1] * self.dims[2]
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Rank → grid coordinates (x fastest).
    pub fn coords(&self, rank: usize) -> [usize; 3] {
        let [dx, dy, _] = self.dims;
        [rank % dx, (rank / dx) % dy, rank / (dx * dy)]
    }

    /// Grid coordinates → rank.
    pub fn rank(&self, c: [usize; 3]) -> usize {
        let [dx, dy, _] = self.dims;
        c[0] + dx * (c[1] + dy * c[2])
    }

    /// Periodic face neighbors of `rank` in [`FACE_DIRS`] order
    /// (`-x, +x, -y, +y, -z, +z`). Degenerate axes (extent 1) map a
    /// rank to itself, mirroring periodic wrap on a one-cell axis.
    pub fn face_neighbors(&self, rank: usize) -> [usize; FACE_DIRS] {
        let c = self.coords(rank);
        let mut out = [0usize; FACE_DIRS];
        for axis in 0..3 {
            let d = self.dims[axis];
            let mut lo = c;
            lo[axis] = (c[axis] + d - 1) % d;
            let mut hi = c;
            hi[axis] = (c[axis] + 1) % d;
            out[2 * axis] = self.rank(lo);
            out[2 * axis + 1] = self.rank(hi);
        }
        out
    }
}

/// Node hosting `rank` when nodes hold `ranks_per_node` ranks each.
pub fn node_of(rank: usize, ranks_per_node: usize) -> usize {
    rank / ranks_per_node.max(1)
}

/// Nodes needed for `ranks` ranks at `ranks_per_node` per node.
pub fn nodes_for(ranks: usize, ranks_per_node: usize) -> usize {
    ranks.div_ceil(ranks_per_node.max(1)).max(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn near_cubic_factors_exactly() {
        for n in [1usize, 2, 7, 8, 64, 100, 1000, 10648, 12288, 99991] {
            let g = RankGrid::near_cubic(n);
            assert_eq!(g.len(), n, "grid {:?} for n={n}", g.dims);
            assert!(g.dims[0] <= g.dims[1] && g.dims[1] <= g.dims[2]);
        }
        // Perfect cubes come out cubic.
        assert_eq!(RankGrid::near_cubic(10648).dims, [22, 22, 22]);
        assert_eq!(RankGrid::near_cubic(64).dims, [4, 4, 4]);
        // Primes degrade to a pencil — the only exact option.
        assert_eq!(RankGrid::near_cubic(99991).dims, [1, 1, 99991]);
    }

    #[test]
    fn coords_roundtrip() {
        let g = RankGrid::near_cubic(1000);
        for r in [0usize, 1, 999, 500, 123] {
            assert_eq!(g.rank(g.coords(r)), r);
        }
    }

    #[test]
    fn neighbors_are_symmetric_and_periodic() {
        let g = RankGrid::near_cubic(64);
        for r in 0..g.len() {
            let nb = g.face_neighbors(r);
            for (d, &p) in nb.iter().enumerate() {
                // The neighbor's opposite-direction neighbor is me.
                assert_eq!(g.face_neighbors(p)[d ^ 1], r, "rank {r} dir {d} peer {p}");
            }
        }
        // Periodic wrap on the boundary plane.
        let edge = g.rank([0, 2, 2]);
        assert_eq!(g.face_neighbors(edge)[0], g.rank([3, 2, 2]));
    }

    #[test]
    fn node_mapping() {
        assert_eq!(node_of(0, 4), 0);
        assert_eq!(node_of(7, 4), 1);
        assert_eq!(nodes_for(10648, 4), 2662);
        assert_eq!(nodes_for(3, 4), 1);
        assert_eq!(nodes_for(1, 0), 1);
    }
}
