//! Property-based tests of the brick layout invariants.

use gmg_brick::{BrickLayout, BrickOrdering, SlotClass, NO_BRICK};
use gmg_mesh::ghost::DIRECTIONS_26;
use gmg_mesh::{Box3, Point3};
use gmg_proptest::prelude::*;

/// Cubic all-halo layouts (mask 0) and non-cubic ones, 1 to 4 bricks per
/// axis, under each of the 7 masks that wrap an axis.
fn arb_layout() -> impl Strategy<Value = BrickLayout> {
    (
        (
            prop::sample::select(vec![1i64, 2, 4, 8]),
            2i64..5,
            0i64..3,
            any::<bool>(),
        ),
        (0usize..8, 1i64..5, 1i64..5),
    )
        .prop_map(|((bd, mult, ghost, lex), (mask, my, mz))| {
            let ord = if lex {
                BrickOrdering::Lexicographic
            } else {
                BrickOrdering::SurfaceMajor
            };
            if mask == 0 {
                return BrickLayout::new(Box3::cube(bd * mult), bd, ghost, ord);
            }
            let cells = Box3::from_extent(Point3::new(mult, my, mz) * bd);
            let wrap = [mask & 1 != 0, mask & 2 != 0, mask & 4 != 0];
            BrickLayout::with_wrap(cells, bd, ghost, ord, wrap)
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// slot ↔ brick is a bijection over the storage shell.
    #[test]
    fn slot_brick_bijection(layout in arb_layout()) {
        let mut seen = std::collections::HashSet::new();
        for s in 0..layout.num_slots() as u32 {
            let b = layout.brick_of_slot(s);
            prop_assert!(layout.storage_brick_box().contains(b));
            prop_assert!(seen.insert(b));
            prop_assert_eq!(layout.slot_of_brick(b), s);
        }
        prop_assert_eq!(seen.len(), layout.storage_brick_box().volume());
    }

    /// Every cell of the storage shell locates to exactly one
    /// (slot, offset), and offsets enumerate the brick exactly.
    #[test]
    fn cell_location_partition(layout in arb_layout()) {
        let bvol = layout.brick_volume();
        let mut counts = vec![0usize; layout.num_slots() * bvol];
        layout.storage_cell_box().for_each(|p| {
            let (slot, off) = layout.locate(p).expect("inside storage");
            counts[slot as usize * bvol + off] += 1;
        });
        prop_assert!(counts.iter().all(|&c| c == 1));
    }

    /// Adjacency agrees with brick index arithmetic everywhere, crossing
    /// the seam of a wrapped axis: a step and its reverse return to the
    /// same slot, an owned brick inside a ghost shell (or on a full torus)
    /// has all 27 neighbors, and a ghost slab wraps within itself.
    #[test]
    fn adjacency_consistency(layout in arb_layout()) {
        let wrap = layout.wrap();
        let ext = layout.brick_box().extent();
        let lo = layout.brick_box().lo;
        let complete = layout.ghost_bricks() >= 1 || wrap == [true; 3];
        for s in 0..layout.num_slots() as u32 {
            let b = layout.brick_of_slot(s);
            let class = layout.class_of_slot(s);
            for dz in -1..=1i64 {
                for dy in -1..=1i64 {
                    for dx in -1..=1i64 {
                        let d = Point3::new(dx, dy, dz);
                        let mut nb = b + d;
                        for a in 0..3 {
                            if wrap[a] {
                                nb[a] = lo[a] + (nb[a] - lo[a]).rem_euclid(ext[a]);
                            }
                        }
                        let expect = if layout.storage_brick_box().contains(nb) {
                            layout.slot_of_brick(nb)
                        } else {
                            NO_BRICK
                        };
                        let n = layout.neighbor_slot(s, d);
                        prop_assert_eq!(n, expect);
                        prop_assert_eq!(n, layout.slot_of_brick(b + d));
                        if n == NO_BRICK {
                            prop_assert!(!complete || matches!(class, SlotClass::Ghost(_)));
                            continue;
                        }
                        prop_assert_eq!(layout.neighbor_slot(n, -d), s);
                        let along_wrapped = (0..3).all(|a| d[a] == 0 || wrap[a]);
                        if let (SlotClass::Ghost(g), true) = (class, along_wrapped) {
                            prop_assert_eq!(layout.class_of_slot(n), SlotClass::Ghost(g));
                        }
                    }
                }
            }
        }
    }

    /// Ghost + surface + interior classes partition the slots, and ghost
    /// counts match the shell volume.
    #[test]
    fn classification_partition(layout in arb_layout()) {
        let mut ghost = 0usize;
        let mut owned = 0usize;
        for s in 0..layout.num_slots() as u32 {
            match layout.class_of_slot(s) {
                SlotClass::Ghost(d) => {
                    ghost += 1;
                    prop_assert!(d != Point3::zero());
                    prop_assert!((0..3).all(|a| d[a] == 0 || !layout.wrap()[a]));
                }
                SlotClass::Surface(c) => {
                    owned += 1;
                    prop_assert!(c != Point3::zero());
                }
                SlotClass::Interior => owned += 1,
            }
        }
        prop_assert_eq!(owned, layout.brick_box().volume());
        prop_assert_eq!(
            ghost,
            layout.storage_brick_box().volume() - layout.brick_box().volume()
        );
    }

    /// With the surface-major ordering every ghost direction is a single
    /// contiguous run, for every geometry and ghost depth ≥ 1.
    #[test]
    fn surface_major_recv_is_contiguous(
        bd in prop::sample::select(vec![2i64, 4]),
        mult in 2i64..5,
    ) {
        let layout = BrickLayout::new(
            Box3::cube(bd * mult),
            bd,
            1,
            BrickOrdering::SurfaceMajor,
        );
        for dir in DIRECTIONS_26 {
            let slots = layout.ghost_slots(dir);
            prop_assert_eq!(BrickLayout::contiguous_runs(&slots).len(), 1, "{:?}", dir);
        }
    }

    /// send_slots and ghost_slots are congruent sets related by the
    /// subdomain extent shift (periodic pairing invariant).
    #[test]
    fn send_ghost_congruence(layout in arb_layout()) {
        if layout.ghost_bricks() == 0 {
            return Ok(());
        }
        for dir in DIRECTIONS_26 {
            let send: Vec<Point3> = layout
                .send_slots(dir)
                .iter()
                .map(|&s| layout.brick_of_slot(s))
                .collect();
            let ghost: Vec<Point3> = layout
                .ghost_slots(dir)
                .iter()
                .map(|&s| layout.brick_of_slot(s))
                .collect();
            prop_assert_eq!(send.len(), ghost.len());
            let halo = (0..3).all(|a| dir[a] == 0 || !layout.wrap()[a]);
            prop_assert_eq!(!send.is_empty(), halo, "{:?}", dir);
            // Depth-1 identity: the ghost shell in direction d is exactly
            // the send layer translated one brick outward, ghost(d) =
            // send(d) + d (both in lexicographic order).
            if layout.ghost_bricks() == 1 {
                let shifted: Vec<Point3> = send.iter().map(|&b| b + dir).collect();
                prop_assert_eq!(shifted, ghost, "{:?}", dir);
            }
        }
    }
}
