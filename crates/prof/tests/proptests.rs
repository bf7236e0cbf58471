//! Property tests for the folded-stack codec: encode → parse is the
//! identity for any valid stack map, encoding is deterministic,
//! duplicate-line accumulation matches map merging, and hostile text —
//! truncated, bit-flipped, oversized — ends in a typed error or a map no
//! larger than the text, never a panic.

use gmg_proptest::prelude::*;
use std::collections::BTreeMap;

/// Frame names as the profiler produces them: static identifiers plus
/// the `@bN` brick-shape suffix — never spaces, newlines, or `;`.
const NAMES: &[&str] = &[
    "applyop_bricked@b8",
    "applyop_array",
    "interior@b8",
    "brick_boundary@b8",
    "index@b4",
    "fused_multismooth@b8",
    "brick_smooth@b2",
    "exchange",
    "smooth+residual",
    "restriction",
];

fn frames() -> impl Strategy<Value = Vec<&'static str>> {
    prop::collection::vec(prop::sample::select(NAMES.to_vec()), 1..5)
}

fn folded_raw() -> impl Strategy<Value = Vec<Vec<&'static str>>> {
    prop::collection::vec(frames(), 0..20)
}

fn build_map(stacks: Vec<Vec<&'static str>>, counts: &[u64]) -> BTreeMap<String, u64> {
    let mut m = BTreeMap::new();
    for (i, s) in stacks.into_iter().enumerate() {
        let n = counts[i % counts.len().max(1)].max(1);
        *m.entry(s.join(";")).or_insert(0) += n;
    }
    m
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// parse(encode(m)) == m for any valid folded map.
    #[test]
    fn encode_parse_roundtrip(
        stacks in folded_raw(),
        counts in prop::collection::vec(1u64..1_000_000, 8usize),
    ) {
        let m = build_map(stacks, &counts);
        let text = gmg_prof::folded::encode(&m);
        let back = gmg_prof::folded::parse(&text).unwrap();
        prop_assert_eq!(back, m);
    }

    /// Encoding the parse of an encoding is a fixed point (deterministic,
    /// sorted output).
    #[test]
    fn encode_is_canonical(
        stacks in folded_raw(),
        counts in prop::collection::vec(1u64..1_000_000, 8usize),
    ) {
        let m = build_map(stacks, &counts);
        let text = gmg_prof::folded::encode(&m);
        let again = gmg_prof::folded::encode(&gmg_prof::folded::parse(&text).unwrap());
        prop_assert_eq!(text, again);
    }

    /// Concatenating two encodings parses to the merged (count-summed) map.
    #[test]
    fn concatenation_accumulates(
        s1 in folded_raw(),
        s2 in folded_raw(),
        counts in prop::collection::vec(1u64..1_000_000, 8usize),
    ) {
        let a = build_map(s1, &counts);
        let b = build_map(s2, &counts);
        let mut text = gmg_prof::folded::encode(&a);
        text.push_str(&gmg_prof::folded::encode(&b));
        let merged = gmg_prof::folded::parse(&text).unwrap();
        let mut want = a.clone();
        for (k, v) in &b {
            *want.entry(k.clone()).or_insert(0) += v;
        }
        prop_assert_eq!(merged, want);
    }

    /// Any damage to a valid encoding is survived: the parser answers
    /// with a typed error or a map, and what it allocates is bounded by
    /// the text it was given.
    #[test]
    fn damaged_text_never_panics_and_stays_bounded(
        stacks in folded_raw(),
        counts in prop::collection::vec(1u64..1_000_000, 8usize),
        damage in prop::collection::vec(any::<u64>(), 1..8),
    ) {
        let mut bytes = gmg_prof::folded::encode(&build_map(stacks, &counts)).into_bytes();
        bytes.extend_from_slice(b"tail;frame 18446744073709551615\ntail;frame 7\n");
        for d in &damage {
            let at = (*d >> 8) as usize % bytes.len();
            match d & 3 {
                0 => bytes[at] ^= 1 << ((d >> 2) & 7), // bit flip
                1 => bytes.truncate(at.max(1)),         // truncation
                2 => bytes.insert(at, b' '),            // stray separator
                _ => bytes[at] = b"9;\n "[(d >> 2) as usize % 4],
            }
        }
        let text = String::from_utf8_lossy(&bytes);
        if let Ok(map) = gmg_prof::folded::parse(&text) {
            let held: usize = map.keys().map(|k| k.len()).sum();
            prop_assert!(held <= text.len());
            prop_assert!(map.len() <= text.lines().count());
        }
    }

    /// Oversized input: a million-digit count and a megabyte-long frame
    /// are a typed error and one bounded entry, respectively.
    #[test]
    fn oversized_tokens_are_handled(digits in 20usize..100_000, frame in 1usize..200_000) {
        let huge_count = format!("a {}\n", "9".repeat(digits));
        prop_assert_eq!(
            gmg_prof::folded::parse(&huge_count),
            Err(gmg_prof::folded::FoldedError::BadCount { line: 1 })
        );
        let long_frame = format!("{} 1\n", "x".repeat(frame));
        let map = gmg_prof::folded::parse(&long_frame).unwrap();
        prop_assert_eq!(map.len(), 1);
    }
}
