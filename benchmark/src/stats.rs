//! Sample bookkeeping: named sample vectors that survive the trip out of
//! a child rank process bit-exactly, medians, and tail percentiles.

use std::collections::BTreeMap;

/// Named sample vectors produced by one rank. Index `i` of every
/// per-repetition vector belongs to repetition `i`.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Samples(pub BTreeMap<String, Vec<f64>>);

impl Samples {
    pub fn push(&mut self, name: &str, v: f64) {
        self.0.entry(name.to_string()).or_default().push(v);
    }

    pub fn set(&mut self, name: &str, v: Vec<f64>) {
        self.0.insert(name.to_string(), v);
    }

    pub fn get(&self, name: &str) -> &[f64] {
        self.0.get(name).map(Vec::as_slice).unwrap_or(&[])
    }

    /// One `name hex hex …` line per vector; `f64` bits in hex so residual
    /// histories compare bit-for-bit across the process boundary.
    pub fn encode(&self) -> String {
        let mut out = String::new();
        for (k, v) in &self.0 {
            out.push_str(k);
            for x in v {
                out.push_str(&format!(" {:016x}", x.to_bits()));
            }
            out.push('\n');
        }
        out
    }

    pub fn decode(text: &str) -> Result<Samples, String> {
        let mut s = Samples::default();
        for line in text.lines() {
            let mut it = line.split(' ');
            let name = it.next().filter(|n| !n.is_empty()).ok_or("empty sample line")?;
            let v = it
                .map(|h| u64::from_str_radix(h, 16).map(f64::from_bits))
                .collect::<Result<Vec<_>, _>>()
                .map_err(|e| format!("bad sample value in {name:?}: {e}"))?;
            s.set(name, v);
        }
        Ok(s)
    }
}

/// Element-wise maximum over ranks of one per-repetition vector (the
/// "slowest rank" reading of a timing).
pub fn max_over_ranks(ranks: &[Samples], name: &str) -> Vec<f64> {
    let n = ranks.iter().map(|r| r.get(name).len()).min().unwrap_or(0);
    (0..n).map(|i| ranks.iter().map(|r| r.get(name)[i]).fold(f64::MIN, f64::max)).collect()
}

pub fn median(v: &[f64]) -> f64 {
    assert!(!v.is_empty(), "median of no samples");
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let m = s.len() / 2;
    if s.len() % 2 == 1 {
        s[m]
    } else {
        0.5 * (s[m - 1] + s[m])
    }
}

/// The highest of a fixed percentile ladder that still has at least ten
/// samples beyond it, with its label — `None` below 40 samples.
pub fn tail_percentile(v: &[f64]) -> Option<(&'static str, f64)> {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    // Nearest-rank index of the `pct`-th percentile, in whole numbers.
    let rank = |pct: usize| (n * pct).div_ceil(100).max(1);
    [("p99", 99), ("p95", 95), ("p90", 90), ("p75", 75)]
        .into_iter()
        .find(|&(_, pct)| n >= rank(pct) + 10)
        .map(|(label, pct)| (label, s[rank(pct) - 1]))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn samples_round_trip_bit_exactly() {
        let mut s = Samples::default();
        s.set("hist0", vec![1.0 / 3.0, 5e-324, -0.0, 1e300]);
        s.push("solve_s", 0.1 + 0.2);
        s.set("empty", vec![]);
        let back = Samples::decode(&s.encode()).unwrap();
        assert_eq!(back, s);
        assert_eq!(back.get("hist0")[2].to_bits(), (-0.0f64).to_bits());
    }

    #[test]
    fn decode_rejects_garbage() {
        assert!(Samples::decode("x zz").is_err());
    }

    #[test]
    fn median_and_tail() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(tail_percentile(&v), Some(("p90", 90.0)));
        assert_eq!(tail_percentile(&v[..19]), None);
        let w: Vec<f64> = (1..=40).map(f64::from).collect();
        assert_eq!(tail_percentile(&w), Some(("p75", 30.0)));
    }
}
