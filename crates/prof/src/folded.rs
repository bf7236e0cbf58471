//! Folded-stack text codec — the `a;b;c N` line format consumed by
//! Brendan Gregg's `flamegraph.pl` and every compatible viewer
//! (speedscope, inferno, Firefox Profiler). One line per unique stack,
//! frames joined by `;`, a space, then the sample count. The parser is
//! the encoder's inverse so `results/flame.folded` round-trips in tests.

use std::collections::BTreeMap;
use std::fmt;

/// Why a folded-stack text did not parse; `line` is 1-based.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum FoldedError {
    /// No space-separated sample count at the end of the line.
    NoCount { line: usize },
    /// The count is not a `u64`.
    BadCount { line: usize },
    /// An empty stack, or an empty frame inside it.
    EmptyFrame { line: usize },
    /// Duplicate stacks whose counts do not sum in a `u64`.
    CountOverflow { line: usize },
}

impl fmt::Display for FoldedError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FoldedError::NoCount { line } => write!(f, "line {line}: no sample count"),
            FoldedError::BadCount { line } => write!(f, "line {line}: bad sample count"),
            FoldedError::EmptyFrame { line } => write!(f, "line {line}: empty frame"),
            FoldedError::CountOverflow { line } => {
                write!(f, "line {line}: duplicate stack counts overflow")
            }
        }
    }
}

impl std::error::Error for FoldedError {}

/// Render folded stacks as flamegraph text. Lines are emitted in key
/// order (the map is ordered), so output is deterministic.
pub fn encode(folded: &BTreeMap<String, u64>) -> String {
    let mut out = String::new();
    for (stack, n) in folded {
        out.push_str(stack);
        out.push(' ');
        out.push_str(&n.to_string());
        out.push('\n');
    }
    out
}

/// Parse flamegraph folded text back into a stack → count map. Counts on
/// duplicate stacks accumulate. Blank lines are ignored; a line without
/// a trailing integer count, with an empty stack or empty frame, or
/// whose accumulated count leaves `u64`, is an error.
pub fn parse(text: &str) -> Result<BTreeMap<String, u64>, FoldedError> {
    let mut out = BTreeMap::new();
    for (ln, line) in text.lines().enumerate() {
        let (line, ln) = (line.trim_end(), ln + 1);
        if line.is_empty() {
            continue;
        }
        let (stack, count) = line
            .rsplit_once(' ')
            .ok_or(FoldedError::NoCount { line: ln })?;
        let n: u64 = count
            .parse()
            .map_err(|_| FoldedError::BadCount { line: ln })?;
        if stack.is_empty() || stack.split(';').any(|f| f.is_empty()) {
            return Err(FoldedError::EmptyFrame { line: ln });
        }
        let total = out.entry(stack.to_string()).or_insert(0u64);
        *total = total
            .checked_add(n)
            .ok_or(FoldedError::CountOverflow { line: ln })?;
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn map(pairs: &[(&str, u64)]) -> BTreeMap<String, u64> {
        pairs.iter().map(|(k, v)| (k.to_string(), *v)).collect()
    }

    #[test]
    fn encode_parse_roundtrip() {
        let m = map(&[
            ("applyop_bricked@b8;interior@b8", 840),
            ("applyop_bricked@b8;brick_boundary@b8", 120),
            ("applyop_bricked@b8", 11),
            ("exchange", 40),
        ]);
        let text = encode(&m);
        assert_eq!(parse(&text).unwrap(), m);
        // Encoding is deterministic (sorted).
        assert_eq!(encode(&parse(&text).unwrap()), text);
    }

    #[test]
    fn parse_accumulates_duplicates() {
        let m = parse("a;b 3\na;b 4\n").unwrap();
        assert_eq!(m, map(&[("a;b", 7)]));
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(parse("no-count-here\n").is_err());
        assert!(parse("a;b notanumber\n").is_err());
        assert!(parse("a;;b 3\n").is_err());
        assert!(parse(" 3\n").is_err());
        assert!(parse("").unwrap().is_empty());
    }

    #[test]
    fn parse_rejects_counts_that_overflow_when_summed() {
        assert_eq!(
            parse("a 18446744073709551615\na 1\n"),
            Err(FoldedError::CountOverflow { line: 2 })
        );
        assert_eq!(
            parse("a 18446744073709551616\n"),
            Err(FoldedError::BadCount { line: 1 })
        );
        assert_eq!(parse("lonely\n"), Err(FoldedError::NoCount { line: 1 }));
        assert_eq!(parse("a;;b 3\n"), Err(FoldedError::EmptyFrame { line: 1 }));
    }
}
