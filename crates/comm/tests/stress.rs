//! Stress and adversarial-ordering tests of the rank runtime: the tag
//! matching must survive heavy out-of-order traffic, interleaved
//! collectives, and repeated exchanges on many simultaneous fields.

use gmg_brick::{BrickLayout, BrickOrdering, BrickedField};
use gmg_comm::runtime::{exchange_array, exchange_bricked, RankWorld};
use gmg_mesh::{Array3, Box3, Decomposition, Point3};
use std::sync::Arc;

#[test]
fn many_tags_delivered_out_of_order() {
    // Rank 0 floods rank 1 with 200 tagged messages; rank 1 receives them
    // in reverse order. Every payload must match its tag.
    RankWorld::run(2, |mut ctx| {
        let n = 200u64;
        if ctx.rank() == 0 {
            for t in 0..n {
                ctx.send(1, t, vec![t as f64, (t * t) as f64]);
            }
        } else {
            for t in (0..n).rev() {
                let m = ctx.recv(0, t);
                assert_eq!(m, vec![t as f64, (t * t) as f64]);
            }
        }
    });
}

#[test]
fn all_to_all_with_interleaved_reductions() {
    let out = RankWorld::run(6, |mut ctx| {
        let me = ctx.rank();
        let n = ctx.nranks();
        // Everyone sends to everyone (including a self-copy via channel).
        for to in 0..n {
            if to != me {
                ctx.send(to, 1000 + me as u64, vec![me as f64]);
            }
        }
        let mut sum = me as f64;
        for from in 0..n {
            if from != me {
                sum += ctx.recv(from, 1000 + from as u64)[0];
            }
        }
        // Interleave a collective to shake the stash.
        let total = ctx.allreduce_sum(1.0);
        assert_eq!(total, n as f64);
        ctx.barrier();
        sum
    });
    let expect: f64 = (0..6).map(|r| r as f64).sum();
    for s in out {
        assert_eq!(s, expect);
    }
}

#[test]
fn repeated_bricked_exchanges_many_fields() {
    // Three fields exchanged in round-robin over 5 rounds with distinct
    // tag bases; all ghosts must be the periodic image of the owning
    // field's data each round.
    let decomp = Decomposition::new(Box3::cube(16), Point3::new(2, 2, 1));
    let d = &decomp;
    RankWorld::run(4, move |mut ctx| {
        let sub = d.subdomain(ctx.rank());
        let layout = Arc::new(BrickLayout::with_wrap(
            sub,
            4,
            1,
            BrickOrdering::SurfaceMajor,
            d.self_neighbor_axes(),
        ));
        let dom = d.domain().extent();
        let mut fields: Vec<BrickedField> = (0..3)
            .map(|k| {
                BrickedField::from_fn(layout.clone(), move |p| {
                    let q = p.rem_euclid(dom);
                    (q.x + 100 * q.y + 10_000 * q.z + 1_000_000 * k) as f64
                })
            })
            .collect();
        let mut tag = 1;
        let mut total_delta = [0.0f64; 3];
        for round in 0..5 {
            for (k, f) in fields.iter_mut().enumerate() {
                // Perturb all local data so each round has fresh values
                // (every rank applies the same delta, so the global field
                // stays consistent and ghosts must track it).
                let delta = (round * 10 + k) as f64;
                total_delta[k] += delta;
                for v in f.as_mut_slice() {
                    *v += delta;
                }
                exchange_bricked(&mut ctx, d, f, tag);
                tag += 1;
            }
        }
        // Every storage cell equals the analytic value plus the cumulative
        // perturbation — including all ghosts.
        for (k, f) in fields.iter().enumerate() {
            let lay = f.layout().clone();
            lay.storage_cell_box().for_each(|p| {
                let q = p.rem_euclid(dom);
                let expect = (q.x + 100 * q.y + 10_000 * q.z) as f64
                    + 1_000_000.0 * k as f64
                    + total_delta[k];
                assert_eq!(f.get(p), expect, "field {k} at {p:?}");
            });
        }
    });
}

#[test]
fn mixed_array_and_brick_exchanges_share_tag_space() {
    let decomp = Decomposition::new(Box3::cube(16), Point3::new(2, 1, 1));
    let d = &decomp;
    RankWorld::run(2, move |mut ctx| {
        let sub = d.subdomain(ctx.rank());
        let dom = d.domain().extent();
        let layout = Arc::new(BrickLayout::with_wrap(
            sub,
            4,
            1,
            BrickOrdering::SurfaceMajor,
            d.self_neighbor_axes(),
        ));
        let mut bf = BrickedField::from_fn(layout, move |p| {
            let q = p.rem_euclid(dom);
            (q.x + 20 * q.y + 400 * q.z) as f64
        });
        let mut af = Array3::from_fn(sub, 2, |p| {
            let q = p.rem_euclid(dom);
            (q.x * 3 + q.y) as f64
        });
        // Alternate exchange kinds with strictly increasing tag bases.
        for round in 0..4u64 {
            exchange_bricked(&mut ctx, d, &mut bf, 100 + round * 2);
            exchange_array(&mut ctx, d, &mut af, 2, 101 + round * 2);
        }
        sub.grow(2).for_each(|p| {
            let q = p.rem_euclid(dom);
            assert_eq!(af[p], (q.x * 3 + q.y) as f64);
        });
    });
}

#[test]
fn large_world_allreduce() {
    let out = RankWorld::run(16, |mut ctx| {
        let m = ctx.allreduce_max((ctx.rank() * 7 % 13) as f64);
        let s = ctx.allreduce_sum(ctx.rank() as f64);
        (m, s)
    });
    let expect_max = (0..16).map(|r| (r * 7 % 13) as f64).fold(0.0, f64::max);
    let expect_sum: f64 = (0..16).map(|r| r as f64).sum();
    for (m, s) in out {
        assert_eq!(m, expect_max);
        assert_eq!(s, expect_sum);
    }
}

#[test]
#[should_panic]
fn rank_panic_propagates() {
    RankWorld::run(2, |ctx| {
        if ctx.rank() == 1 {
            panic!("deliberate failure injection");
        }
    });
}

#[test]
fn same_tag_messages_do_not_overtake_through_the_stash() {
    // MPI's non-overtaking rule: the two tag-5 messages are stashed while
    // rank 1 waits for tags 7 and 9, and must still come out in send
    // order.
    RankWorld::run(2, |mut ctx| {
        if ctx.rank() == 0 {
            ctx.send(1, 9, vec![9.0]);
            ctx.send(1, 5, vec![1.0]);
            ctx.send(1, 5, vec![2.0]);
            ctx.send(1, 7, vec![7.0]);
        } else {
            assert_eq!(ctx.recv(0, 7), vec![7.0]);
            assert_eq!(ctx.recv(0, 9), vec![9.0]);
            assert_eq!(ctx.recv(0, 5), vec![1.0]);
            assert_eq!(ctx.recv(0, 5), vec![2.0]);
        }
    });
}
