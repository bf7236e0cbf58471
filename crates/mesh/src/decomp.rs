//! Periodic Cartesian domain decomposition over MPI-like ranks.

use crate::box3::Box3;
use crate::ghost::DIRECTIONS_26;
use crate::point::Point3;

/// A rank's coordinates in the 3D process grid.
pub type RankCoords = Point3;

/// A neighbor relationship: the direction of the exchange and the rank on
/// the other end (which may be this rank itself for periodic wrap on a
/// 1-wide process grid axis).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Neighbor {
    /// Halo direction from this rank toward the neighbor.
    pub dir: Point3,
    /// Rank id of the neighbor.
    pub rank: usize,
    /// Global-coordinate shift that maps the neighbor's cells into this
    /// rank's (possibly out-of-domain) halo coordinates. Zero except when the
    /// exchange wraps around the periodic boundary, where it is ±domain
    /// extent along the wrapped axes.
    pub wrap_shift: Point3,
}

/// A periodic Cartesian decomposition of a global cell domain `[0, n)³`
/// (more generally any box anchored at the origin) over a `px × py × pz`
/// process grid. Cells are block-distributed; all axes must divide evenly so
/// subdomains are congruent (the paper's experiments are all uniform cubes).
#[derive(Clone, Debug)]
pub struct Decomposition {
    domain: Box3,
    process_grid: Point3,
    sub_extent: Point3,
}

impl Decomposition {
    /// Create a decomposition of `domain` over `process_grid` ranks. Panics
    /// unless every axis of the domain divides evenly by the process grid.
    pub fn new(domain: Box3, process_grid: Point3) -> Self {
        assert!(
            process_grid.x > 0 && process_grid.y > 0 && process_grid.z > 0,
            "process grid must be positive"
        );
        assert_eq!(domain.lo, Point3::zero(), "domain must be origin-anchored");
        let e = domain.extent();
        for a in 0..3 {
            assert_eq!(
                e[a] % process_grid[a],
                0,
                "domain extent {e:?} not divisible by process grid {process_grid:?} on axis {a}"
            );
        }
        let sub_extent = Point3::new(
            e.x / process_grid.x,
            e.y / process_grid.y,
            e.z / process_grid.z,
        );
        Self {
            domain,
            process_grid,
            sub_extent,
        }
    }

    /// Single-rank decomposition (the whole domain on rank 0).
    pub fn single(domain: Box3) -> Self {
        Self::new(domain, Point3::splat(1))
    }

    /// The global domain.
    #[inline]
    pub fn domain(&self) -> Box3 {
        self.domain
    }

    /// The process grid extents.
    #[inline]
    pub fn process_grid(&self) -> Point3 {
        self.process_grid
    }

    /// Per axis: `true` where the process grid is 1 wide, so every rank is
    /// its own periodic neighbor there and needs no halo on that axis.
    #[inline]
    pub fn self_neighbor_axes(&self) -> [bool; 3] {
        [0, 1, 2].map(|a| self.process_grid[a] == 1)
    }

    /// Number of ranks.
    #[inline]
    pub fn num_ranks(&self) -> usize {
        self.process_grid.product() as usize
    }

    /// Per-rank subdomain extent (identical for all ranks).
    #[inline]
    pub fn sub_extent(&self) -> Point3 {
        self.sub_extent
    }

    /// Rank id for process-grid coordinates (x fastest, like cell storage).
    #[inline]
    pub fn rank_of(&self, c: RankCoords) -> usize {
        debug_assert!(Box3::from_extent(self.process_grid).contains(c));
        ((c.z * self.process_grid.y + c.y) * self.process_grid.x + c.x) as usize
    }

    /// Process-grid coordinates of a rank id.
    #[inline]
    pub fn coords_of(&self, rank: usize) -> RankCoords {
        let r = rank as i64;
        let px = self.process_grid.x;
        let py = self.process_grid.y;
        debug_assert!(r < self.process_grid.product());
        Point3::new(r % px, (r / px) % py, r / (px * py))
    }

    /// The global cell region owned by `rank`.
    pub fn subdomain(&self, rank: usize) -> Box3 {
        let c = self.coords_of(rank);
        let lo = c.hadamard(self.sub_extent);
        Box3::new(lo, lo + self.sub_extent)
    }

    /// The neighbor of `rank` in halo direction `dir`, with periodic wrap.
    pub fn neighbor(&self, rank: usize, dir: Point3) -> Neighbor {
        let c = self.coords_of(rank);
        let raw = c + dir;
        let wrapped = raw.rem_euclid(self.process_grid);
        let mut wrap_shift = Point3::zero();
        let e = self.domain.extent();
        for a in 0..3 {
            if raw[a] < 0 {
                wrap_shift[a] = -e[a];
            } else if raw[a] >= self.process_grid[a] {
                wrap_shift[a] = e[a];
            }
        }
        Neighbor {
            dir,
            rank: self.rank_of(wrapped),
            wrap_shift,
        }
    }

    /// All 26 neighbors of `rank` in [`DIRECTIONS_26`] order.
    pub fn neighbors(&self, rank: usize) -> Vec<Neighbor> {
        DIRECTIONS_26
            .iter()
            .map(|&d| self.neighbor(rank, d))
            .collect()
    }

    /// Coarsen the decomposition by `r`: same process grid, each subdomain
    /// `r×` smaller per axis. Panics if the subdomain extent does not divide.
    #[must_use]
    pub fn coarsen(&self, r: i64) -> Decomposition {
        let e = self.sub_extent;
        for a in 0..3 {
            assert_eq!(e[a] % r, 0, "subdomain {e:?} not divisible by {r}");
        }
        Decomposition::new(self.domain.coarsen(r), self.process_grid)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_rank() {
        let d = Decomposition::single(Box3::cube(16));
        assert_eq!(d.num_ranks(), 1);
        assert_eq!(d.subdomain(0), Box3::cube(16));
        // All neighbors are self with wrap shifts.
        for n in d.neighbors(0) {
            assert_eq!(n.rank, 0);
            assert_eq!(n.wrap_shift, n.dir * 16);
        }
    }

    #[test]
    fn rank_coords_roundtrip() {
        let d = Decomposition::new(Box3::cube(24), Point3::new(2, 3, 4));
        assert_eq!(d.num_ranks(), 24);
        for r in 0..24 {
            assert_eq!(d.rank_of(d.coords_of(r)), r);
        }
    }

    #[test]
    fn subdomains_tile_domain() {
        let d = Decomposition::new(Box3::cube(16), Point3::new(2, 2, 2));
        let total: usize = (0..8).map(|r| d.subdomain(r).volume()).sum();
        assert_eq!(total, Box3::cube(16).volume());
        for i in 0..8 {
            for j in (i + 1)..8 {
                assert!(d.subdomain(i).intersect(&d.subdomain(j)).is_empty());
            }
        }
        assert_eq!(d.sub_extent(), Point3::splat(8));
    }

    #[test]
    fn neighbor_interior_no_wrap() {
        let d = Decomposition::new(Box3::cube(32), Point3::new(4, 4, 4));
        // Rank at coords (1,1,1): +x neighbor is (2,1,1), no wrap.
        let r = d.rank_of(Point3::new(1, 1, 1));
        let n = d.neighbor(r, Point3::new(1, 0, 0));
        assert_eq!(d.coords_of(n.rank), Point3::new(2, 1, 1));
        assert_eq!(n.wrap_shift, Point3::zero());
    }

    #[test]
    fn neighbor_periodic_wrap() {
        let d = Decomposition::new(Box3::cube(32), Point3::new(4, 1, 1));
        // Rank 0 in -x direction wraps to rank 3, shift -32 in x.
        let n = d.neighbor(0, Point3::new(-1, 0, 0));
        assert_eq!(n.rank, 3);
        assert_eq!(n.wrap_shift, Point3::new(-32, 0, 0));
        // And +x from rank 3 wraps to rank 0 with +32.
        let m = d.neighbor(3, Point3::new(1, 0, 0));
        assert_eq!(m.rank, 0);
        assert_eq!(m.wrap_shift, Point3::new(32, 0, 0));
        // y/z axes are width-1: every dir with y or z wraps to self on that axis.
        let k = d.neighbor(2, Point3::new(0, 1, 1));
        assert_eq!(d.coords_of(k.rank), Point3::new(2, 0, 0));
        assert_eq!(k.wrap_shift, Point3::new(0, 32, 32));
    }

    #[test]
    fn neighbor_symmetry() {
        // If B is my neighbor in dir d, then I am B's neighbor in -d, and
        // the wrap shifts are opposite.
        let d = Decomposition::new(Box3::cube(24), Point3::new(2, 3, 1));
        for r in 0..d.num_ranks() {
            for dir in DIRECTIONS_26 {
                let n = d.neighbor(r, dir);
                let back = d.neighbor(n.rank, -dir);
                assert_eq!(back.rank, r);
                assert_eq!(back.wrap_shift, -n.wrap_shift);
            }
        }
    }

    #[test]
    fn coarsen_keeps_grid() {
        let d = Decomposition::new(Box3::cube(64), Point3::splat(2));
        let c = d.coarsen(2);
        assert_eq!(c.domain(), Box3::cube(32));
        assert_eq!(c.process_grid(), Point3::splat(2));
        assert_eq!(c.sub_extent(), Point3::splat(16));
    }

    #[test]
    #[should_panic]
    fn indivisible_domain_panics() {
        Decomposition::new(Box3::cube(10), Point3::new(3, 1, 1));
    }
}
