//! Multigrid level geometry.
//!
//! A V-cycle works on a nested hierarchy of grids: level 0 is the finest; each
//! coarser level halves the cell count per dimension (×8 fewer cells, grid
//! spacing ×2). This module captures the per-level geometry the solver and
//! the performance models both consume.

use crate::box3::Box3;
use crate::decomp::Decomposition;
use crate::point::Point3;

/// Geometry of one multigrid level.
#[derive(Clone, Debug)]
pub struct LevelGeometry {
    /// Level index; 0 is the finest.
    pub level: usize,
    /// Grid spacing `h` on this level (finest level spacing × 2^level).
    pub h: f64,
    /// Global cell domain on this level.
    pub domain: Box3,
    /// Per-rank subdomain extent on this level.
    pub sub_extent: Point3,
}

impl LevelGeometry {
    /// Cells per rank on this level.
    pub fn cells_per_rank(&self) -> usize {
        self.sub_extent.product() as usize
    }

    /// Total cells across the level.
    pub fn total_cells(&self) -> usize {
        self.domain.volume()
    }

    /// Surface cells of one subdomain at ghost depth `d` (communication
    /// volume per rank per exchange, in cells).
    pub fn shell_cells(&self, d: i64) -> usize {
        crate::ghost::shell_volume(Box3::from_extent(self.sub_extent), d)
    }
}

/// The full level hierarchy for a decomposed domain. All ranks share the
/// same hierarchy (congruent subdomains).
#[derive(Clone, Debug)]
pub struct Hierarchy {
    levels: Vec<LevelGeometry>,
    decomps: Vec<Decomposition>,
}

impl Hierarchy {
    /// Build a hierarchy of `num_levels` levels over `decomp` with finest
    /// grid spacing `h0 = 1 / n_finest` (unit cube convention: `h·n = 1`
    /// along x). Panics if any level's subdomain extent fails to halve
    /// evenly — the caller must pick `num_levels` compatible with the
    /// subdomain size (e.g. 512³ per rank supports ≥ 6 levels, reaching
    /// 16³ per rank at level 5).
    pub fn new(decomp: Decomposition, num_levels: usize) -> Self {
        assert!(num_levels >= 1);
        let n0 = decomp.domain().extent().x;
        let h0 = 1.0 / n0 as f64;
        let mut levels = Vec::with_capacity(num_levels);
        let mut decomps = Vec::with_capacity(num_levels);
        let mut d = decomp;
        for l in 0..num_levels {
            levels.push(LevelGeometry {
                level: l,
                h: h0 * (1 << l) as f64,
                domain: d.domain(),
                sub_extent: d.sub_extent(),
            });
            if l + 1 < num_levels {
                let e = d.sub_extent();
                assert!(
                    e.x % 2 == 0 && e.y % 2 == 0 && e.z % 2 == 0 && e.x >= 2,
                    "cannot coarsen subdomain {e:?} at level {l}; reduce num_levels"
                );
                let next = d.coarsen(2);
                decomps.push(d);
                d = next;
            } else {
                decomps.push(d.clone());
            }
        }
        Self { levels, decomps }
    }

    /// Maximum number of levels a subdomain extent supports (halving until
    /// any axis goes odd or reaches 1).
    pub fn max_levels(sub_extent: Point3) -> usize {
        let mut e = sub_extent;
        let mut n = 1;
        while e.x % 2 == 0 && e.y % 2 == 0 && e.z % 2 == 0 && e.x >= 2 && e.y >= 2 && e.z >= 2 {
            e = Point3::new(e.x / 2, e.y / 2, e.z / 2);
            n += 1;
        }
        n
    }

    /// Number of levels.
    pub fn num_levels(&self) -> usize {
        self.levels.len()
    }

    /// Geometry of level `l`.
    pub fn level(&self, l: usize) -> &LevelGeometry {
        &self.levels[l]
    }

    /// Decomposition at level `l` (same process grid at every level).
    pub fn decomp(&self, l: usize) -> &Decomposition {
        &self.decomps[l]
    }

    /// Iterate over all levels, finest first.
    pub fn iter(&self) -> impl Iterator<Item = &LevelGeometry> {
        self.levels.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn six_levels_of_512_cubed() {
        // The paper's per-rank configuration: 512³ per rank, 6 levels.
        let d = Decomposition::new(Box3::cube(512), Point3::splat(1));
        let h = Hierarchy::new(d, 6);
        assert_eq!(h.num_levels(), 6);
        assert_eq!(h.level(0).sub_extent, Point3::splat(512));
        assert_eq!(h.level(5).sub_extent, Point3::splat(16));
        // Factor-of-8 volume ratio between adjacent levels.
        for l in 0..5 {
            assert_eq!(h.level(l).total_cells(), 8 * h.level(l + 1).total_cells());
        }
    }

    #[test]
    fn grid_spacing_doubles() {
        let d = Decomposition::new(Box3::cube(64), Point3::splat(1));
        let h = Hierarchy::new(d, 4);
        assert!((h.level(0).h - 1.0 / 64.0).abs() < 1e-15);
        for l in 0..3 {
            assert!((h.level(l + 1).h - 2.0 * h.level(l).h).abs() < 1e-15);
        }
    }

    #[test]
    fn surface_ratio_between_levels_is_4x() {
        // The paper's observation: communication volume scales ~4× between
        // levels (2D surface of a 3D region) for large subdomains.
        let d = Decomposition::new(Box3::cube(512), Point3::splat(1));
        let h = Hierarchy::new(d, 6);
        for l in 0..5 {
            let fine = h.level(l).shell_cells(1) as f64;
            let coarse = h.level(l + 1).shell_cells(1) as f64;
            let ratio = fine / coarse;
            assert!(
                (3.0..5.0).contains(&ratio),
                "level {l} surface ratio {ratio}"
            );
        }
    }

    #[test]
    fn max_levels() {
        assert_eq!(Hierarchy::max_levels(Point3::splat(512)), 10);
        assert_eq!(Hierarchy::max_levels(Point3::splat(16)), 5);
        assert_eq!(Hierarchy::max_levels(Point3::new(8, 8, 6)), 2);
        assert_eq!(Hierarchy::max_levels(Point3::splat(7)), 1);
    }

    #[test]
    fn decomp_per_level_tracks_domain() {
        let d = Decomposition::new(Box3::cube(64), Point3::splat(2));
        let h = Hierarchy::new(d, 3);
        assert_eq!(h.decomp(0).domain(), Box3::cube(64));
        assert_eq!(h.decomp(1).domain(), Box3::cube(32));
        assert_eq!(h.decomp(2).domain(), Box3::cube(16));
        for l in 0..3 {
            assert_eq!(h.decomp(l).num_ranks(), 8);
            assert_eq!(h.decomp(l).sub_extent(), h.level(l).sub_extent);
        }
    }

    #[test]
    #[should_panic]
    fn too_many_levels_panics() {
        let d = Decomposition::new(Box3::cube(8), Point3::splat(1));
        let _ = Hierarchy::new(d, 5);
    }
}
