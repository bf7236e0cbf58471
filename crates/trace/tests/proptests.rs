//! Property tests of the JSON codec: both written forms parse back to the
//! value they were written from, and damaged text is an error, not a panic.

use gmg_proptest::prelude::*;
use gmg_trace::json::JsonError;
use gmg_trace::Json;

/// A document decoded from seed words: scalars of every kind (escapes,
/// non-ASCII, fractions, large integers), arrays and objects nested up to
/// `depth`. Object keys are unique and sorted, the order `pretty` writes.
fn tree(words: &mut impl Iterator<Item = u64>, depth: u32) -> Json {
    let mut next = || words.next().unwrap_or(0);
    let w = next();
    let kind = if depth == 0 { w % 5 } else { w % 7 };
    match kind {
        0 => Json::Null,
        1 => Json::Bool(w & 8 != 0),
        2 => Json::Num((w >> 3) as i64 as f64 / [1.0, 8.0, 1e3, 1e9][(w >> 60) as usize % 4]),
        // NaN has no JSON spelling (it is written as null).
        3 if f64::from_bits(w).is_nan() => Json::Null,
        3 => Json::Num(f64::from_bits(w).clamp(-1e300, 1e300)),
        4 => Json::Str(
            (0..w % 6)
                .map(|i| {
                    ['a', '"', '\\', '\n', '\u{1}', 'µ', '😀', '/'][(w >> (4 + 3 * i)) as usize % 8]
                })
                .collect(),
        ),
        5 => Json::Arr((0..next() % 4).map(|_| tree(words, depth - 1)).collect()),
        _ => Json::Obj(
            (0..next() % 4)
                .map(|i| (format!("k{i}\"{}", w % 3), tree(words, depth - 1)))
                .collect(),
        ),
    }
}

fn doc(seeds: &[u64]) -> Json {
    tree(&mut seeds.iter().copied(), 4)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// parse(compact(v)) == v and parse(pretty(v)) == v.
    #[test]
    fn both_written_forms_parse_back(seeds in prop::collection::vec(any::<u64>(), 1..60)) {
        let v = doc(&seeds);
        prop_assert_eq!(Json::parse(&v.to_string()), Ok(v.clone()));
        prop_assert_eq!(Json::parse(&v.pretty()), Ok(v));
    }

    /// Truncated and bit-flipped text ends in a `JsonError` or a value,
    /// never in a panic; a proper prefix of a container is always an error.
    #[test]
    fn damaged_text_is_an_error_not_a_panic(
        seeds in prop::collection::vec(any::<u64>(), 1..60),
        damage in prop::collection::vec(any::<u64>(), 1..8),
    ) {
        let v = Json::Arr(vec![doc(&seeds)]);
        for text in [v.to_string(), v.pretty()] {
            for &d in &damage {
                let mut cut = d as usize % text.len();
                while !text.is_char_boundary(cut) {
                    cut -= 1;
                }
                let r: Result<Json, JsonError> = Json::parse(&text[..cut]);
                prop_assert!(r.is_err(), "prefix {cut} of {text:?} parsed");
                let mut bytes = text.clone().into_bytes();
                bytes[cut] ^= 1 << ((d >> 32) % 8);
                let _ = Json::parse(&String::from_utf8_lossy(&bytes));
            }
        }
    }
}
