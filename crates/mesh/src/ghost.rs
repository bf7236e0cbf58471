//! Halo (ghost-zone) exchange geometry.
//!
//! A subdomain in a 3D periodic decomposition exchanges with all 26
//! neighbors — 6 faces, 12 edges, 8 corners — because the 7-point stencil
//! composed over multiple communication-avoiding smooth steps (and any
//! stencil with corner reach) needs the full shell. This module enumerates
//! directions and builds the send/receive region pairs at arbitrary depth.

use crate::box3::Box3;
use crate::point::Point3;

/// All 26 halo directions in a fixed, deterministic order: lexicographic in
/// `(z, y, x)` skipping the zero direction. The order matters because both
/// sides of an exchange must agree on message matching.
pub const DIRECTIONS_26: [Point3; 26] = build_directions();

const fn build_directions() -> [Point3; 26] {
    let mut out = [Point3::zero(); 26];
    let mut n = 0;
    let mut z = -1;
    while z <= 1 {
        let mut y = -1;
        while y <= 1 {
            let mut x = -1;
            while x <= 1 {
                if !(x == 0 && y == 0 && z == 0) {
                    out[n] = Point3::new(x, y, z);
                    n += 1;
                }
                x += 1;
            }
            y += 1;
        }
        z += 1;
    }
    out
}

/// Index of `dir` in [`DIRECTIONS_26`]; panics for the zero direction or
/// components outside `{-1, 0, 1}`.
pub fn direction_index(dir: Point3) -> usize {
    let code = (dir.z + 1) * 9 + (dir.y + 1) * 3 + (dir.x + 1);
    assert!((0..27).contains(&code), "invalid direction {dir:?}");
    assert!(code != 13, "zero direction has no index");
    (code - (code > 13) as i64) as usize
}

/// One side of a halo exchange: the region of cells involved and the
/// neighbor direction.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct GhostRegion {
    /// Direction to the neighbor this region is exchanged with.
    pub dir: Point3,
    /// The cell region (inside the subdomain for sends, outside for
    /// receives).
    pub region: Box3,
}

/// The 26 regions of *interior* cells that must be sent to each neighbor for
/// a ghost depth of `d`.
pub fn send_region(subdomain: Box3, dir: Point3, d: i64) -> GhostRegion {
    GhostRegion {
        dir,
        region: subdomain.face_region(dir, d),
    }
}

/// The 26 regions of *ghost* cells filled from each neighbor at depth `d`.
pub fn recv_region(subdomain: Box3, dir: Point3, d: i64) -> GhostRegion {
    GhostRegion {
        dir,
        region: subdomain.halo_region(dir, d),
    }
}

/// Total number of cells communicated (sent) by one subdomain per exchange
/// at depth `d`: the full `d`-shell around the box. For a cube of side `n`,
/// this is `(n+2d)³ − n³`.
pub fn shell_volume(subdomain: Box3, d: i64) -> usize {
    subdomain.grow(d).volume() - subdomain.volume()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn directions_are_26_unique_nonzero() {
        assert_eq!(DIRECTIONS_26.len(), 26);
        let mut set = std::collections::HashSet::new();
        for d in DIRECTIONS_26 {
            assert_ne!(d, Point3::zero());
            assert!(d.x.abs() <= 1 && d.y.abs() <= 1 && d.z.abs() <= 1);
            assert!(set.insert(d));
        }
    }

    #[test]
    fn direction_index_roundtrip() {
        for (i, d) in DIRECTIONS_26.iter().enumerate() {
            assert_eq!(direction_index(*d), i);
        }
    }

    #[test]
    #[should_panic]
    fn zero_direction_has_no_index() {
        direction_index(Point3::zero());
    }

    #[test]
    fn codim_census() {
        let faces = DIRECTIONS_26.iter().filter(|d| d.codim() == 1).count();
        let edges = DIRECTIONS_26.iter().filter(|d| d.codim() == 2).count();
        let corners = DIRECTIONS_26.iter().filter(|d| d.codim() == 3).count();
        assert_eq!((faces, edges, corners), (6, 12, 8));
    }

    #[test]
    fn send_recv_volumes_by_codim() {
        let b = Box3::cube(8);
        let d = 2;
        for dir in DIRECTIONS_26 {
            let s = send_region(b, dir, d);
            let r = recv_region(b, dir, d);
            let expect = match dir.codim() {
                1 => 2 * 8 * 8,
                2 => 2 * 2 * 8,
                3 => 2 * 2 * 2,
                _ => unreachable!(),
            };
            assert_eq!(s.region.volume(), expect, "send {dir:?}");
            assert_eq!(r.region.volume(), expect, "recv {dir:?}");
            // Send regions are interior; recv regions are exterior.
            assert!(b.contains_box(&s.region));
            assert!(b.intersect(&r.region).is_empty());
        }
    }

    #[test]
    fn recv_regions_tile_the_shell() {
        let b = Box3::cube(8);
        let d = 3;
        let regions = DIRECTIONS_26.map(|dir| recv_region(b, dir, d));
        let total: usize = regions.iter().map(|g| g.region.volume()).sum();
        assert_eq!(total, shell_volume(b, d));
        // Pairwise disjoint.
        for i in 0..regions.len() {
            for j in (i + 1)..regions.len() {
                assert!(
                    regions[i].region.intersect(&regions[j].region).is_empty(),
                    "{:?} overlaps {:?}",
                    regions[i],
                    regions[j]
                );
            }
        }
    }

    #[test]
    fn shell_volume_formula() {
        let b = Box3::cube(8);
        assert_eq!(shell_volume(b, 1), 10 * 10 * 10 - 8 * 8 * 8);
        assert_eq!(shell_volume(b, 8), 24usize.pow(3) - 8usize.pow(3));
    }
}
