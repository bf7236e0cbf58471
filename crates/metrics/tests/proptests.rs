//! Histograms at the edge of `u64`.
//!
//! `Snapshot::histogram_total` merges one metric's histograms across
//! keys, and a long soak can push a count toward `u64::MAX`: merging any
//! two histograms must saturate, never overflow or panic.

use gmg_metrics::hist::bucket_index;
use gmg_metrics::Histogram;
use gmg_proptest::prelude::*;

/// A histogram [`Histogram::from_parts`] accepts, drawn so that two of
/// them often overflow when merged: ascending bucket indices (twelve
/// candidates, packed at the bottom or spread over the whole range) whose
/// counts each take a draw from what the earlier buckets left of
/// `u64::MAX`, a `count` mostly drawn from the whole range, any `sum`,
/// and `min ≤ max`.
fn extreme_histogram() -> impl Strategy<Value = Histogram> {
    let stride = [1, bucket_index(u64::MAX) / 11];
    (
        prop::collection::btree_set(0..12usize, 0..5),
        (prop::collection::vec(any::<u64>(), 5), any::<bool>()),
        (any::<u64>(), prop::sample::select(vec![0u32, 0, 0, 8, 63])),
        (any::<u64>(), any::<u64>(), any::<u64>()),
    )
        .prop_map(
            move |(indices, (draws, spread), (count, shift), (sum, a, b))| {
                let mut left = u64::MAX;
                let buckets: Vec<(usize, u64)> = indices
                    .into_iter()
                    .zip(draws)
                    .map(|(i, d)| {
                        let c = left.checked_add(1).map_or(d, |m| d % m);
                        left -= c;
                        (i * stride[spread as usize], c)
                    })
                    .collect();
                Histogram::from_parts(&buckets, count >> shift, sum, a.min(b), a.max(b))
                    .expect("ascending in-range buckets within u64")
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Merging two histograms never panics (the harness catches one), its
    /// count is the saturating sum, and every quantile lies in the merged
    /// `[min, max]`.
    #[test]
    fn merging_histograms_saturates(a in extreme_histogram(), b in extreme_histogram()) {
        let mut m = a.clone();
        m.merge(&b);
        prop_assert_eq!(m.count(), a.count().saturating_add(b.count()));
        if let (Some(min), Some(max)) = (m.min(), m.max()) {
            for q in [0.0, 0.01, 0.5, 0.99, 1.0] {
                let v = m.quantile(q).unwrap();
                prop_assert!(min <= v && v <= max, "q={} gives {} outside [{}, {}]", q, v, min, max);
            }
        }
    }
}
