//! Property-based coverage of the resilient runtime: tag matching must be
//! correct under arbitrary seeded reordering/duplication/loss, and a
//! failed `recv_timeout` must never lose a message that arrived meanwhile.

use std::time::Duration;

use gmg_comm::fault::{CommError, FaultConfig, FaultPlan};
use gmg_comm::runtime::{exchange_array, RankWorld};
use gmg_mesh::{Array3, Box3, Decomposition, Point3};
use gmg_proptest::prelude::*;

fn idx_fn(p: Point3) -> f64 {
    (p.x + 1000 * p.y + 1_000_000 * p.z) as f64
}

/// A 2×2×1 ghost exchange + allreduce under a random fault plan must
/// produce exactly the fault-free result (the ARQ layer absorbs drops,
/// reorderings, duplicates, and detected corruption).
fn lossy_exchange_world(plan: &FaultPlan) -> Result<Vec<f64>, gmg_comm::WorldFailure> {
    let decomp = Decomposition::new(Box3::cube(8), Point3::new(2, 2, 1));
    let n = decomp.num_ranks();
    let d = &decomp;
    RankWorld::run_with_faults(n, plan, move |mut ctx| {
        let sub = d.subdomain(ctx.rank());
        let mut a = Array3::from_fn(
            sub,
            1,
            |p| {
                if sub.contains(p) {
                    idx_fn(p)
                } else {
                    f64::NAN
                }
            },
        );
        exchange_array(&mut ctx, d, &mut a, 1, 2);
        let dom = d.domain().extent();
        let mut sum = 0.0;
        sub.grow(1).for_each(|p| {
            assert_eq!(a[p], idx_fn(p.rem_euclid(dom)), "ghost cell {p:?} wrong");
            sum += a[p];
        });
        ctx.allreduce_sum(sum)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn exchange_tag_matching_survives_arbitrary_fault_seeds(
        seed in any::<u64>(),
        drop in 0.0f64..0.08,
        dup in 0.0f64..0.08,
        delay in 0.0f64..0.08,
        corrupt in 0.0f64..0.08,
    ) {
        let config = FaultConfig {
            drop_rate: drop,
            duplicate_rate: dup,
            delay_rate: delay,
            max_delay_slots: 4,
            corrupt_rate: corrupt,
            ..Default::default()
        };
        let sums = lossy_exchange_world(&FaultPlan::new(config, seed))
            .map_err(|f| TestCaseError::fail(format!("world failed: {f}")))?;
        // Every rank agrees on the (fault-free) global sum.
        for w in sums.windows(2) {
            prop_assert_eq!(w[0], w[1]);
        }
    }

    #[test]
    fn recv_timeout_never_loses_a_stashed_message(
        seed in any::<u64>(),
        tags in prop::collection::vec(0u64..16, 1..6),
        lossy in any::<bool>(),
    ) {
        // Rank 0 sends one message per tag (values encode the send index);
        // rank 1 first waits on a tag that never comes, then must still be
        // able to receive every real message — arrivals during the failed
        // wait are stashed, not dropped.
        let rate = if lossy { 0.05 } else { 0.0 };
        let plan = FaultPlan::new(FaultConfig::lossy(rate), seed);
        let tags_ref = &tags;
        let result = RankWorld::run_with_faults(2, &plan, move |mut ctx| {
            if ctx.rank() == 0 {
                for (i, &t) in tags_ref.iter().enumerate() {
                    // Tag 100+t keeps duplicate tags distinct per index.
                    ctx.send(1, 100 + t * 16 + i as u64, vec![i as f64]);
                }
            } else {
                let err = ctx
                    .recv_timeout(0, 99, Duration::from_millis(30))
                    .unwrap_err();
                assert!(
                    matches!(err, CommError::Timeout { from: 0, tag: 99, .. }),
                    "unexpected error {err}"
                );
                // Drain in reverse order to force stash traffic.
                for (i, &t) in tags_ref.iter().enumerate().rev() {
                    let got = ctx.recv(0, 100 + t * 16 + i as u64);
                    assert_eq!(got, vec![i as f64], "message {i} (tag {t}) lost");
                }
            }
        });
        prop_assert!(result.is_ok(), "{}", result.unwrap_err());
    }
}
