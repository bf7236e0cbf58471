//! Mergeable log-linear bucketed histogram over `u64` samples.
//!
//! Buckets follow the HDR-histogram scheme: each power-of-two octave is
//! split into [`SUB`] linear sub-buckets, so the bucket boundary relative
//! error is bounded by `1 / SUB` (12.5%) at any magnitude, values below
//! `2·SUB` are exact, and the whole `u64` range needs under 500 buckets.
//! Merging two histograms is element-wise addition of bucket counts,
//! saturating at `u64::MAX` — associative, commutative, and
//! count-preserving below saturation (the proptests below pin all three) — which is what lets per-rank histograms roll up into
//! job-wide ones and lets a *delta* be computed by subtraction.

/// log2 of the sub-buckets per octave.
pub const SUB_BITS: u32 = 3;
/// Linear sub-buckets per power-of-two octave.
pub const SUB: usize = 1 << SUB_BITS;

/// Bucket index for a sample value.
pub fn bucket_index(v: u64) -> usize {
    if v < (2 * SUB) as u64 {
        return v as usize; // exact small values
    }
    let msb = 63 - v.leading_zeros() as u64;
    let shift = msb - SUB_BITS as u64;
    ((shift << SUB_BITS) + (v >> shift)) as usize
}

/// Inclusive lower bound of bucket `i` (the smallest value mapping to it).
pub fn bucket_low(i: usize) -> u64 {
    if i < 2 * SUB {
        return i as u64;
    }
    let shift = (i >> SUB_BITS) - 1;
    (((i & (SUB - 1)) | SUB) as u64) << shift
}

/// Inclusive upper bound of bucket `i`.
pub fn bucket_high(i: usize) -> u64 {
    if i < 2 * SUB - 1 {
        return i as u64;
    }
    // The top bucket's successor starts past `u64::MAX`: its low wraps to
    // 0, and 0 − 1 wraps back to the right answer.
    bucket_low(i + 1).wrapping_sub(1)
}

/// A mergeable log-bucketed histogram with exact count/sum/min/max.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Histogram {
    /// Per-bucket counts, indexed by [`bucket_index`]; trailing zero
    /// buckets are not stored.
    buckets: Vec<u64>,
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram::new()
    }
}

impl Histogram {
    pub fn new() -> Histogram {
        Histogram {
            buckets: Vec::new(),
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    /// Record one sample.
    pub fn record(&mut self, v: u64) {
        let i = bucket_index(v);
        if self.buckets.len() <= i {
            self.buckets.resize(i + 1, 0);
        }
        self.buckets[i] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(v);
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Element-wise accumulate `other` into `self`. Counts saturate at
    /// `u64::MAX`, like `sum`: decoded histograms may carry any count.
    pub fn merge(&mut self, other: &Histogram) {
        if other.buckets.len() > self.buckets.len() {
            self.buckets.resize(other.buckets.len(), 0);
        }
        for (b, &c) in self.buckets.iter_mut().zip(&other.buckets) {
            *b = b.saturating_add(c);
        }
        self.count = self.count.saturating_add(other.count);
        self.sum = self.sum.saturating_add(other.sum);
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Per-bucket subtraction (for the delta between two readings of one
    /// monotonically growing histogram). Count and sum subtract exactly;
    /// min/max are re-derived from the surviving buckets' bounds, so they
    /// are bucket-resolution approximations in the delta.
    pub fn delta_since(&self, earlier: &Histogram) -> Histogram {
        let mut buckets = self.buckets.clone();
        for (i, c) in buckets.iter_mut().enumerate() {
            *c = c.saturating_sub(earlier.buckets.get(i).copied().unwrap_or(0));
        }
        while buckets.last() == Some(&0) {
            buckets.pop();
        }
        let first = buckets.iter().position(|&c| c > 0);
        let (min, max) = match first {
            Some(lo) => (bucket_low(lo), bucket_high(buckets.len() - 1)),
            None => (u64::MAX, 0),
        };
        Histogram {
            buckets,
            count: self.count.saturating_sub(earlier.count),
            sum: self.sum.saturating_sub(earlier.sum),
            min,
            max,
        }
    }

    pub fn count(&self) -> u64 {
        self.count
    }

    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Smallest recorded sample (None when empty).
    pub fn min(&self) -> Option<u64> {
        (self.count > 0).then_some(self.min)
    }

    /// Largest recorded sample (None when empty).
    pub fn max(&self) -> Option<u64> {
        (self.count > 0).then_some(self.max)
    }

    pub fn mean(&self) -> Option<f64> {
        (self.count > 0).then(|| self.sum as f64 / self.count as f64)
    }

    /// Quantile estimate (`q` in `[0, 1]`): the midpoint of the bucket
    /// holding the `ceil(q·count)`-th sample, clamped to `[min, max]`.
    pub fn quantile(&self, q: f64) -> Option<u64> {
        if self.count == 0 {
            return None;
        }
        let target = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen = seen.saturating_add(c);
            if seen >= target {
                let mid = bucket_low(i) + (bucket_high(i) - bucket_low(i)) / 2;
                return Some(mid.clamp(self.min, self.max));
            }
        }
        Some(self.max)
    }

    /// Occupied buckets as `(index, count)`, ascending, zeros skipped.
    pub fn nonzero_buckets(&self) -> impl Iterator<Item = (usize, u64)> + '_ {
        self.buckets
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(i, &c)| (i, c))
    }

    /// Rebuild from serialized parts (the inverse of
    /// [`Histogram::nonzero_buckets`] plus the summary fields). `buckets` holds `(bucket_index, count)`
    /// pairs as [`Histogram::nonzero_buckets`] lists them: indices strictly
    /// ascending and at most `bucket_index(u64::MAX)`, counts summing to
    /// at most `u64::MAX`; and a nonempty histogram has `min ≤ max`.
    /// Anything else is an error, so hostile input can neither size the
    /// bucket table nor overflow a count nor invert a quantile's clamp.
    pub fn from_parts(
        buckets: &[(usize, u64)],
        count: u64,
        sum: u64,
        min: u64,
        max: u64,
    ) -> Result<Self, String> {
        let top = bucket_index(u64::MAX);
        let mut total = 0u64;
        for (k, &(i, c)) in buckets.iter().enumerate() {
            if i > top {
                return Err(format!("bucket index {i} past the last bucket {top}"));
            }
            if k > 0 && i <= buckets[k - 1].0 {
                return Err(format!("bucket index {i} out of ascending order"));
            }
            total = total.checked_add(c).ok_or("bucket counts overflow u64")?;
        }
        if count > 0 && min > max {
            return Err(format!("min {min} above max {max}"));
        }
        let mut h = Histogram::new();
        if let Some(&(last, _)) = buckets.last() {
            h.buckets.resize(last + 1, 0);
        }
        for &(i, c) in buckets {
            h.buckets[i] = c;
        }
        h.count = count;
        h.sum = sum;
        h.min = min;
        h.max = max;
        Ok(h)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gmg_proptest::prelude::*;

    #[test]
    fn bucket_mapping_is_monotone_and_self_consistent() {
        let mut prev = 0usize;
        for v in 0..10_000u64 {
            let i = bucket_index(v);
            assert!(i >= prev, "index not monotone at {v}");
            prev = i;
            assert!(bucket_low(i) <= v && v <= bucket_high(i), "v={v} i={i}");
        }
        // Exactness below 2·SUB.
        for v in 0..(2 * SUB as u64) {
            assert_eq!(bucket_low(bucket_index(v)), v);
            assert_eq!(bucket_high(bucket_index(v)), v);
        }
        // Relative bucket width is bounded by 1/SUB at any magnitude.
        for v in [100u64, 10_000, 1 << 30, 1 << 50, u64::MAX] {
            let i = bucket_index(v);
            let width = bucket_high(i) - bucket_low(i);
            assert!((width as f64) <= bucket_low(i) as f64 / SUB as f64 + 1.0);
        }
        assert!(bucket_index(u64::MAX) < 500);
    }

    #[test]
    fn records_and_summarizes() {
        let mut h = Histogram::new();
        assert!(h.quantile(0.5).is_none());
        for v in [1u64, 2, 3, 4, 100] {
            h.record(v);
        }
        assert_eq!(h.count(), 5);
        assert_eq!(h.sum(), 110);
        assert_eq!(h.min(), Some(1));
        assert_eq!(h.max(), Some(100));
        assert_eq!(h.quantile(0.5), Some(3));
        // p99 lands in the bucket holding 100 (within 12.5%).
        let p99 = h.quantile(0.99).unwrap() as f64;
        assert!((p99 - 100.0).abs() / 100.0 <= 0.125, "{p99}");
    }

    #[test]
    fn delta_subtracts_counts() {
        let mut a = Histogram::new();
        a.record(5);
        a.record(1000);
        let before = a.clone();
        a.record(5);
        a.record(70);
        let d = a.delta_since(&before);
        assert_eq!(d.count(), 2);
        assert_eq!(d.sum(), 75);
        // The delta's min/max are bucket bounds around 5 and 70.
        assert!(d.min().unwrap() <= 5 && d.max().unwrap() >= 70);
    }

    #[test]
    fn from_parts_roundtrip() {
        let mut h = Histogram::new();
        for v in [0u64, 7, 8, 9, 255, 1 << 20] {
            h.record(v);
        }
        let parts: Vec<(usize, u64)> = h.nonzero_buckets().collect();
        let back = Histogram::from_parts(&parts, h.count(), h.sum(), h.min, h.max).unwrap();
        assert_eq!(back, h);
        // What no histogram lists: an index past the u64 range, a repeated
        // or descending index, counts past u64::MAX.
        let top = bucket_index(u64::MAX);
        for bad in [
            vec![(top + 1, 1)],
            vec![(1 << 40, 1)],
            vec![(3, 1), (3, 1)],
            vec![(5, 1), (3, 1)],
            vec![(3, u64::MAX), (4, 1)],
        ] {
            assert!(Histogram::from_parts(&bad, 2, 0, 0, 0).is_err(), "{bad:?}");
        }
        assert!(Histogram::from_parts(&parts, h.count(), h.sum(), 9, 8).is_err());
        assert!(Histogram::from_parts(&[(top, u64::MAX)], 0, 0, 0, 0).is_ok());
    }

    fn from_values(vs: &[u64]) -> Histogram {
        let mut h = Histogram::new();
        for &v in vs {
            h.record(v);
        }
        h
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Merge is commutative: a⊕b == b⊕a.
        #[test]
        fn merge_commutative(a in prop::collection::vec(any::<u64>(), 0..40),
                             b in prop::collection::vec(any::<u64>(), 0..40)) {
            let (ha, hb) = (from_values(&a), from_values(&b));
            let mut ab = ha.clone(); ab.merge(&hb);
            let mut ba = hb.clone(); ba.merge(&ha);
            prop_assert_eq!(ab, ba);
        }

        /// Merge is associative: (a⊕b)⊕c == a⊕(b⊕c).
        #[test]
        fn merge_associative(a in prop::collection::vec(any::<u64>(), 0..30),
                             b in prop::collection::vec(any::<u64>(), 0..30),
                             c in prop::collection::vec(any::<u64>(), 0..30)) {
            let (ha, hb, hc) = (from_values(&a), from_values(&b), from_values(&c));
            let mut l = ha.clone(); l.merge(&hb); l.merge(&hc);
            let mut rbc = hb.clone(); rbc.merge(&hc);
            let mut r = ha.clone(); r.merge(&rbc);
            prop_assert_eq!(l, r);
        }

        /// Merge preserves counts, and merging equals recording the
        /// concatenation.
        #[test]
        fn merge_count_preserving(a in prop::collection::vec(any::<u64>(), 0..40),
                                  b in prop::collection::vec(any::<u64>(), 0..40)) {
            let (ha, hb) = (from_values(&a), from_values(&b));
            let mut m = ha.clone(); m.merge(&hb);
            prop_assert_eq!(m.count(), (a.len() + b.len()) as u64);
            let mut cat = a.clone(); cat.extend_from_slice(&b);
            prop_assert_eq!(m, from_values(&cat));
        }

        /// Quantiles stay within the recorded range and within one bucket
        /// width of an exact rank statistic.
        #[test]
        fn quantile_bounded(mut vs in prop::collection::vec(0u64..1_000_000, 1..50),
                            qi in 0usize..5) {
            let q = [0.0, 0.25, 0.5, 0.9, 1.0][qi];
            let h = from_values(&vs);
            let est = h.quantile(q).unwrap();
            vs.sort_unstable();
            prop_assert!(est >= vs[0] && est <= vs[vs.len() - 1]);
            let rank = ((q * vs.len() as f64).ceil() as usize).clamp(1, vs.len()) - 1;
            let exact = vs[rank];
            // Same bucket, one off at most (ties across bucket edges).
            let (bi, be) = (bucket_index(est), bucket_index(exact));
            prop_assert!(bi.abs_diff(be) <= 1, "est {est} exact {exact}");
        }
    }
}
