//! Property-based tests over the core data structures and invariants.

use gmg_proptest::prelude::*;
use gmg_repro::prelude::*;
use gmg_repro::stencil::exec_array::apply_star7_array;
use gmg_repro::stencil::exec_brick::{apply_star7_bricked, pointwise_mut1, pointwise_mut2};
use gmg_repro::stencil::exec_fused::{fused_multismooth_bricked, ResidualSink};
use gmg_repro::stencil::expr::StencilDef;
use gmg_repro::stencil::interp::run_stencil;
use gmg_stencil::expr::ExprHandle;
use std::sync::Arc;

fn field_fn(seed: i64) -> impl Fn(Point3) -> f64 + Copy {
    move |p: Point3| {
        let h =
            p.x.wrapping_mul(6364136223846793005)
                .wrapping_add(p.y.wrapping_mul(1442695040888963407))
                .wrapping_add(p.z.wrapping_mul(seed | 1));
        ((h >> 33) % 1_000) as f64 / 257.0
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Bricked and conventional storage agree after a roundtrip, for any
    /// compatible (n, brick size, ordering).
    #[test]
    fn brick_array_roundtrip(
        bd in prop::sample::select(vec![1i64, 2, 4, 8]),
        mult in 2i64..5,
        lex in any::<bool>(),
        seed in any::<i64>(),
    ) {
        let n = bd * mult;
        let ord = if lex { BrickOrdering::Lexicographic } else { BrickOrdering::SurfaceMajor };
        let layout = Arc::new(BrickLayout::new(Box3::cube(n), bd, 1, ord));
        let f = BrickedField::from_fn(layout.clone(), field_fn(seed));
        let a = f.to_array3();
        let f2 = BrickedField::from_array3(layout.clone(), &a);
        let mut ok = true;
        layout.storage_cell_box().for_each(|p| ok &= f.get(p) == f2.get(p));
        prop_assert!(ok);
    }

    /// Array pack/unpack is the identity on any in-bounds region.
    #[test]
    fn pack_unpack_identity(
        lo in 0i64..6,
        ex in 1i64..6,
        seed in any::<i64>(),
    ) {
        let v = Box3::cube(12);
        let a = Array3::from_fn(v, 2, field_fn(seed));
        let region = Box3::new(Point3::splat(lo - 2), Point3::splat(lo - 2 + ex));
        let region = region.intersect(&a.storage_box());
        prop_assume!(!region.is_empty());
        let mut buf = Vec::new();
        a.pack(region, &mut buf);
        let mut b = Array3::new(v, 2);
        b.unpack(region, &buf);
        let mut ok = true;
        region.for_each(|p| ok &= a[p] == b[p]);
        prop_assert!(ok);
    }

    /// A random radius-1 star stencil evaluates bit for bit the same over
    /// bricked and conventional storage: one interpreter, one `Expr::eval`
    /// per point.
    #[test]
    fn random_stencil_brick_matches_array(
        coeffs in prop::collection::vec(-3.0f64..3.0, 7),
        bd in prop::sample::select(vec![2i64, 4]),
        seed in any::<i64>(),
    ) {
        let n = 4 * bd;
        let offsets = [
            (0i64, 0i64, 0i64), (1, 0, 0), (-1, 0, 0),
            (0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1),
        ];
        let cs = coeffs.clone();
        let def = StencilDef::build("rand", move |b| {
            let x = b.input("x");
            let mut expr: Option<ExprHandle> = None;
            for (c, (dx, dy, dz)) in cs.iter().zip(offsets) {
                let term = b.constant(*c) * x.at(dx, dy, dz);
                expr = Some(match expr {
                    Some(e) => e + term,
                    None => term,
                });
            }
            b.assign("y", expr.unwrap());
        });
        let v = Box3::cube(n);
        // Array path.
        let src_a = Array3::from_fn(v, bd, field_fn(seed));
        let mut dst_a = Array3::new(v, bd);
        run_stencil(&def, &[&src_a], &[], &mut [&mut dst_a], v);
        // Brick path.
        let layout = Arc::new(BrickLayout::new(v, bd, 1, BrickOrdering::SurfaceMajor));
        let src_b = BrickedField::from_fn(layout.clone(), field_fn(seed));
        let mut dst_b = BrickedField::new(layout);
        run_stencil(&def, &[&src_b], &[], &mut [&mut dst_b], v);
        let mut differ = Vec::new();
        v.for_each(|p| {
            if dst_a[p].to_bits() != dst_b.get(p).to_bits() {
                differ.push(p);
            }
        });
        prop_assert!(differ.is_empty(), "layouts differ at {differ:?}");
    }

    /// The latency-throughput fit recovers arbitrary positive (α, β).
    #[test]
    fn latency_fit_recovers_parameters(
        alpha_us in 0.1f64..500.0,
        beta_g in 0.5f64..200.0,
    ) {
        use gmg_repro::machine::LatencyThroughput;
        let truth = LatencyThroughput::new(alpha_us * 1e-6, beta_g * 1e9);
        let samples: Vec<(f64, f64)> = (0..8)
            .map(|i| {
                let x = 1e3 * 8f64.powi(i);
                (x, truth.time_s(x))
            })
            .collect();
        let fit = LatencyThroughput::fit_time(&samples);
        prop_assert!((fit.alpha_s - truth.alpha_s).abs() / truth.alpha_s < 1e-6);
        prop_assert!((fit.beta - truth.beta).abs() / truth.beta < 1e-6);
    }

    /// Exchange over any process grid reproduces the periodic image one
    /// brick around every rank's owned box: through messages on the axes
    /// with a neighbor rank, through the adjacency on the 1-wide ones.
    #[test]
    fn exchange_matches_periodic_image(
        grid in prop::sample::select(vec![
            Point3::new(1, 1, 1),
            Point3::new(2, 1, 1),
            Point3::new(1, 2, 2),
            Point3::new(2, 2, 2),
        ]),
        seed in any::<i64>(),
    ) {
        let n = 8i64;
        let decomp = Decomposition::new(Box3::cube(n), grid);
        let ranks = decomp.num_ranks();
        let d = &decomp;
        let f = field_fn(seed);
        let oks = RankWorld::run(ranks, move |mut ctx| {
            let sub = d.subdomain(ctx.rank());
            let wrap = d.self_neighbor_axes();
            let layout =
                Arc::new(BrickLayout::with_wrap(sub, 2, 1, BrickOrdering::SurfaceMajor, wrap));
            let mut field = BrickedField::from_fn(layout.clone(), |p| {
                if sub.contains(p) { f(p) } else { f64::NAN }
            });
            gmg_repro::comm::runtime::exchange_bricked(&mut ctx, d, &mut field, 1);
            let mut ok = true;
            sub.grow(layout.ghost_cells()).for_each(|p| {
                ok &= field.get(p) == f(p.rem_euclid(Point3::splat(n)));
            });
            ok
        });
        prop_assert!(oks.into_iter().all(|x| x));
    }

    /// A wrapped axis is the all-halo layout with a periodically filled
    /// shell: for brick dims down to 1, non-cubic extents down to a lone
    /// brick per axis (its own ± neighbor), both orderings and every wrap
    /// mask, `fused_multismooth_bricked` (every depth the margin allows,
    /// with and without `r`) and `apply_star7_bricked` on the wrapped
    /// layout equal, bit for bit on its valid region, the same kernel on
    /// the all-halo layout. Everything the contract says a kernel may not
    /// read is NaN on entry.
    #[test]
    fn torus_layout_bit_identical_to_periodic_ghost_shell(
        bd in prop::sample::select(vec![1i64, 2, 4, 8]),
        bricks in (1i64..4, 1i64..4, 1i64..3),
        mask in 1usize..8,
        lex in any::<bool>(),
        (grow, depth) in (0i64..8, 0usize..8),
        with_r in any::<bool>(),
        seed in any::<i64>(),
    ) {
        let ord = if lex { BrickOrdering::Lexicographic } else { BrickOrdering::SurfaceMajor };
        let wrap = [mask & 1 != 0, mask & 2 != 0, mask & 4 != 0];
        let cells = Box3::from_extent(Point3::new(bricks.0, bricks.1, bricks.2) * bd);
        let torus = Arc::new(BrickLayout::with_wrap(cells, bd, 1, ord, wrap));
        let shell = Arc::new(BrickLayout::new(cells, bd, 1, ord));
        // The periodic copy: a shell cell across a wrapped axis holds the
        // value of its image inside the box.
        let image = move |p: Point3| {
            let mut q = p;
            for a in 0..3 {
                if wrap[a] {
                    q[a] = p[a].rem_euclid(cells.hi[a]);
                }
            }
            q
        };
        let periodic = |seed: i64, seen: Box3| {
            let f = field_fn(seed);
            move |p: Point3| if seen.contains(p) { f(image(p)) } else { f64::NAN }
        };
        let everywhere = cells.grow(bd);
        let (alpha, beta, gamma) = (-6.0, 1.0, -0.5 / 6.0 * (2.0 / 3.0));
        let m = grow % bd;
        let s = 1 + depth % (m + 1) as usize;
        let region = cells.grow(m);
        let valid = torus.grow_halo(cells, m + 1 - s as i64);
        prop_assert!(valid.contains_box(&cells));

        // applyOp over the grown region.
        let apply = |layout: &Arc<BrickLayout>| {
            let src = BrickedField::from_fn(layout.clone(), periodic(seed, region.grow(1)));
            let mut dst = BrickedField::from_fn(layout.clone(), |_| f64::NAN);
            apply_star7_bricked(&mut dst, &src, alpha, beta, region);
            dst
        };
        let (at, ah) = (apply(&torus), apply(&shell));
        let mut ok = true;
        torus.grow_halo(cells, m).for_each(|p| ok &= at.get(p) == ah.get(p) && at.get(p).is_finite());
        prop_assert!(ok, "applyOp differs");

        // `s` fused smooths.
        let smooth = |layout: &Arc<BrickLayout>| {
            let mut x = BrickedField::from_fn(layout.clone(), periodic(seed, region.grow(1)));
            let b = BrickedField::from_fn(layout.clone(), periodic(seed ^ 0x5a5a, everywhere));
            let mut r = BrickedField::from_fn(layout.clone(), |_| f64::NAN);
            let mut y = r.clone();
            let stats = fused_multismooth_bricked(
                &mut x, &b, with_r.then_some(ResidualSink::Store(&mut r)), alpha, beta, gamma, region, s, &mut y,
            );
            (x, r, stats)
        };
        let ((xt, rt, stats), (xh, rh, _)) = (smooth(&torus), smooth(&shell));
        let mut ok = true;
        valid.for_each(|p| {
            ok &= xt.get(p) == xh.get(p) && xt.get(p).is_finite();
            ok &= !with_r || (rt.get(p) == rh.get(p) && rt.get(p).is_finite());
        });
        prop_assert!(ok, "fused smooth differs");
        let expect: u64 =
            (0..s as i64).map(|k| torus.grow_halo(cells, m - k).volume() as u64).sum();
        prop_assert_eq!(stats.points_updated, expect);
    }

    /// The one-pass multi-smooth kernel is bit-identical on its valid region
    /// `R_{s−1}` to `s − 1` sequential `applyOp` + `smooth` sweeps and one
    /// `applyOp` + `smooth+residual`, for everything the solver feeds it:
    /// brick dims down to 1, both orderings, any region `owned.grow(m)`
    /// (clipped on all six sides), any depth the margin allows, with and
    /// without `r`, whatever `y` holds on entry.
    #[test]
    fn fused_multismooth_bit_identical_to_sweeps(
        bd in prop::sample::select(vec![1i64, 2, 4, 8]),
        lex in any::<bool>(),
        grow in 0i64..8,
        depth in 0usize..8,
        with_r in any::<bool>(),
        seed in any::<i64>(),
    ) {
        let n = 2 * bd;
        let ord = if lex { BrickOrdering::Lexicographic } else { BrickOrdering::SurfaceMajor };
        let layout = Arc::new(BrickLayout::new(Box3::cube(n), bd, 1, ord));
        // `region.grow(1)` must stay within the bd-cell ghost shell.
        let region = Box3::cube(n).grow(grow % bd);
        let s = 1 + depth % bd as usize;
        let (alpha, beta, gamma) = (-6.0, 1.0, -0.5 / 6.0 * (2.0 / 3.0));
        let mut x1 = BrickedField::from_fn(layout.clone(), field_fn(seed));
        let b = BrickedField::from_fn(layout.clone(), field_fn(seed ^ 0x5a5a));
        let mut r1 = BrickedField::from_fn(layout.clone(), field_fn(seed ^ 0x3c3c));
        let mut x2 = x1.clone();
        let mut r2 = r1.clone();
        // Sequential reference: sweep k updates region.shrink(k); only the
        // last one stores the residual.
        let mut ax = BrickedField::new(layout.clone());
        for k in 0..s {
            let rk = region.shrink(k as i64);
            apply_star7_bricked(&mut ax, &x1, alpha, beta, rk);
            let pieces = layout.slots_intersecting(rk);
            if with_r && k + 1 == s {
                pointwise_mut2(&mut x1, &mut r1, &ax, &b, &pieces, move |x, r, ax, b| {
                    *r = b - ax;
                    *x += gamma * (ax - b);
                });
            } else {
                pointwise_mut1(&mut x1, &ax, &b, &pieces, move |x, ax, b| {
                    *x += gamma * (ax - b);
                });
            }
        }
        let mut y = BrickedField::from_fn(layout.clone(), |_| f64::NAN);
        let stats = fused_multismooth_bricked(
            &mut x2, &b, with_r.then_some(ResidualSink::Store(&mut r2)), alpha, beta, gamma, region, s, &mut y,
        );
        let valid = region.shrink(s as i64 - 1);
        let mut ok = true;
        valid.for_each(|p| ok &= x1.get(p) == x2.get(p) && r1.get(p) == r2.get(p));
        prop_assert!(ok);
        let expect: u64 = (0..s).map(|k| region.shrink(k as i64).volume() as u64).sum();
        prop_assert_eq!(stats.points_updated, expect);
        let residual_stores = if with_r { valid.volume() as u64 } else { 0 };
        prop_assert_eq!(stats.doubles_written, expect + residual_stores);
    }

    /// The bricked applyOp, at every brick shape, is bit-identical to the
    /// DSL interpreter and to the array executor over regions that are not
    /// brick-aligned (partial bricks on every face).
    /// All share the FP grouping
    /// `α·c + β·((xm+xp) + (ym+yp) + (zm+zp))`, so equality is exact.
    #[test]
    fn bricked_applyop_paths_bit_identical_to_array(
        bd in prop::sample::select(vec![1i64, 2, 4, 8]),
        lo in -1i64..3,
        seed in any::<i64>(),
    ) {
        let n = 3 * bd.max(2);
        let v = Box3::cube(n);
        // Not brick-aligned: partial bricks on every face. `region.grow(1)`
        // stays inside the ghost shell (`ghost · bd >= 2` cells) since
        // `lo - 1 >= -2`.
        let region = Box3::new(Point3::new(lo, lo + 1, lo), Point3::new(n - 1, n, n - 2));
        let ghost = if bd == 1 { 2 } else { 1 };
        let (alpha, beta) = (-6.0, 1.0);
        let layout = Arc::new(BrickLayout::new(v, bd, ghost, BrickOrdering::SurfaceMajor));
        let src = BrickedField::from_fn(layout.clone(), field_fn(seed));
        let mut fast = BrickedField::new(layout.clone());
        apply_star7_bricked(&mut fast, &src, alpha, beta, region);
        // The interpreter reference, on the same layout.
        let mut reference = BrickedField::new(layout.clone());
        let def = gmg_repro::stencil::ops::apply_op_def();
        run_stencil(&def, &[&src], &[alpha, beta], &mut [&mut reference], region);
        let bits = |f: &BrickedField| f.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        prop_assert!(bits(&fast) == bits(&reference), "bricked != interpreter in {region:?}");
        // Array executor reference, same seed field in conventional storage.
        let src_a = Array3::from_fn(v, ghost * bd, field_fn(seed));
        let mut dst_a = Array3::new(v, ghost * bd);
        apply_star7_array(&mut dst_a, &src_a, alpha, beta, region);
        let mut ok = true;
        region.for_each(|p| ok &= fast.get(p).to_bits() == dst_a[p].to_bits());
        prop_assert!(ok, "bricked != array somewhere in {region:?}");
    }

    /// Contiguous-run computation: runs are sorted, disjoint, cover the
    /// input exactly, and are maximal.
    #[test]
    fn contiguous_runs_invariants(mut slots in prop::collection::btree_set(0u32..200, 1..40)) {
        let v: Vec<u32> = slots.iter().copied().collect();
        let runs = BrickLayout::contiguous_runs(&v);
        // Coverage and disjointness.
        let mut covered = 0usize;
        for r in &runs {
            covered += (r.end - r.start) as usize;
            for s in r.clone() {
                prop_assert!(slots.remove(&s), "run covers non-member {s}");
            }
        }
        prop_assert_eq!(covered, v.len());
        prop_assert!(slots.is_empty());
        // Maximality: adjacent runs are separated by a gap.
        for w in runs.windows(2) {
            prop_assert!(w[1].start > w[0].end);
        }
    }
}

/// Byte offset of a rejoin record's history length field (after magic,
/// rank, cycle, tag counter and margin).
const HISTORY_LEN_AT: usize = 40;

/// Re-seal a rejoin record's FNV-1a trailer over its edited body, so the
/// loader's later checks — not the checksum — must reject the edit.
fn reseal(record: &mut [u8]) {
    let body = record.len() - 8;
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in &record[..body] {
        h = (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
    }
    record[body..].copy_from_slice(&h.to_le_bytes());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Hostile rejoin checkpoints: every proper prefix of a saved record,
    /// every single-bit flip, a length field claiming more doubles than
    /// the file holds (re-sealed, so the checksum passes), and a record
    /// written for another rank or cycle all load as `None` — never a
    /// panic, and never an allocation the file's bytes do not back (a
    /// claim up to `u64::MAX` doubles would abort the process).
    #[test]
    fn damaged_rejoin_records_load_as_none(
        cycle in 0u64..5,
        nx in 0usize..24,
        rank in 0usize..4,
        seed in any::<i64>(),
        claim in any::<u64>(),
    ) {
        use gmg_repro::gmg::{RejoinStore, SolverCheckpoint};
        let dir = std::env::temp_dir().join(format!("gmg-rejoin-prop-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = RejoinStore::new(&dir, rank).unwrap();
        let f = field_fn(seed);
        let ck = |cycle: u64| SolverCheckpoint {
            cycle,
            tag_counter: seed as u64,
            margin: seed % 9,
            history: (0..=cycle as i64).map(|i| f(Point3::splat(i))).collect(),
            x: (0..nx as i64).map(|i| f(Point3::new(i, 1, 2))).collect(),
        };
        let path = |rank: usize, cycle: u64| dir.join(format!("r{rank}_c{cycle}.gmgck"));
        store.save(&ck(cycle)).unwrap();
        let record = std::fs::read(path(rank, cycle)).unwrap();
        prop_assert_eq!(store.load(cycle), Some(ck(cycle)));
        let loads_none = |bytes: &[u8]| {
            std::fs::write(path(rank, cycle), bytes).unwrap();
            store.load(cycle).is_none()
        };

        for len in 0..record.len() {
            prop_assert!(loads_none(&record[..len]), "prefix of {len} bytes loaded");
        }
        for bit in 0..8 * record.len() {
            let mut flipped = record.clone();
            flipped[bit / 8] ^= 1 << (bit % 8);
            prop_assert!(loads_none(&flipped), "flip of bit {bit} loaded");
        }
        // Both length fields, claiming one double past the end of the
        // record and then an arbitrary larger count.
        let x_len_at = HISTORY_LEN_AT + 8 * (cycle as usize + 2);
        for at in [HISTORY_LEN_AT, x_len_at] {
            let held = (record.len() - 8 - (at + 8)) as u64 / 8;
            for n in [held + 1, claim.max(held + 1)] {
                let mut oversized = record.clone();
                oversized[at..at + 8].copy_from_slice(&n.to_le_bytes());
                reseal(&mut oversized);
                prop_assert!(loads_none(&oversized), "length {n} at byte {at} loaded");
            }
        }
        // Intact records of another rank, and of this rank's other cycle,
        // under this rank's and cycle's name.
        RejoinStore::new(&dir, rank + 1).unwrap().save(&ck(cycle)).unwrap();
        store.save(&ck(cycle + 1)).unwrap();
        for (r, c) in [(rank + 1, cycle), (rank, cycle + 1)] {
            let foreign = std::fs::read(path(r, c)).unwrap();
            prop_assert!(loads_none(&foreign), "record of rank {r} cycle {c} loaded");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
