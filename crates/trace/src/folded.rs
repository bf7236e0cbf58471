//! Folded stacks — the `a;b;c N` line format consumed by Brendan
//! Gregg's `flamegraph.pl` and every compatible viewer (speedscope,
//! inferno, Firefox Profiler). One line per unique stack, frames joined
//! by `;`, a space, then the count. [`fold`] builds the stacks from a
//! trace's span tree; the parser is the encoder's inverse, so a written
//! `flame.folded` round-trips in tests.

use crate::{Trace, TraceEvent, LEVEL_NONE};
use std::cmp::Reverse;
use std::collections::BTreeMap;
use std::fmt;

/// Fold a trace's spans into flamegraph stacks whose counts are self
/// time in nanoseconds.
///
/// Per rank the spans are walked by start time, the longer first on a
/// tie. A span's parent is the innermost open span that fully contains
/// it; one that overlaps an open span only partly closes it and tries
/// the next one out, and becomes a root when none contains it. A stack
/// reads `rank<r>;<frame>;…`, where a frame is `op@L<level>`, or `op`
/// outside any level; its count is the span's duration less its
/// children's, saturating at 0. Every span's stack is present, so with
/// properly nested spans a rank's counts sum to its root spans' time.
pub fn fold(trace: &Trace) -> BTreeMap<String, u64> {
    let mut ranks: BTreeMap<usize, Vec<&TraceEvent>> = BTreeMap::new();
    for e in &trace.events {
        ranks.entry(e.rank).or_default().push(e);
    }
    let mut out = BTreeMap::new();
    let mut close = |(_, stack, self_ns): (u64, String, u64)| {
        let n: &mut u64 = out.entry(stack).or_default();
        *n = n.saturating_add(self_ns);
    };
    for (rank, mut spans) in ranks {
        spans.sort_by_key(|e| (e.ts_ns, Reverse(e.dur_ns)));
        // The open spans, outermost first: (end, stack, self time left).
        let mut open: Vec<(u64, String, u64)> = Vec::new();
        for e in spans {
            let end = e.ts_ns.saturating_add(e.dur_ns);
            while open.last().is_some_and(|top| top.0 < end) {
                close(open.pop().expect("non-empty"));
            }
            let stack = match open.last_mut() {
                Some(parent) => {
                    parent.2 = parent.2.saturating_sub(e.dur_ns);
                    format!("{};{}", parent.1, frame(e))
                }
                None => format!("rank{rank};{}", frame(e)),
            };
            open.push((end, stack, e.dur_ns));
        }
        open.into_iter().rev().for_each(&mut close);
    }
    out
}

/// `op@L<level>`, or `op` outside any level; the separators of the
/// folded format (`;`, whitespace) in a name become `_`.
fn frame(e: &TraceEvent) -> String {
    let op = (e.op.name()).replace(|c: char| c == ';' || c.is_whitespace(), "_");
    let op = if op.is_empty() { "?".to_string() } else { op };
    match e.level {
        LEVEL_NONE => op,
        level => format!("{op}@L{level}"),
    }
}

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

    fn span(rank: usize, level: usize, op: &'static str, ts_ns: u64, dur_ns: u64) -> TraceEvent {
        TraceEvent {
            rank,
            level,
            op: crate::OpId(op),
            track: crate::Track::Compute,
            ts_ns,
            dur_ns,
            counters: Default::default(),
            peer: None,
            tag: None,
            seq: None,
        }
    }

    /// Nesting, a zero-self-time parent, spans outside any level, a
    /// partial overlap that becomes a root, and two ranks kept apart.
    #[test]
    fn fold_nests_spans_by_containment_and_counts_self_time() {
        let trace = Trace {
            events: vec![
                span(1, 1, "interpolation", 30, 30),
                span(0, 0, "smooth", 0, 100),
                span(0, 0, "exchange", 10, 30),
                span(0, LEVEL_NONE, "send", 10, 15),
                span(0, LEVEL_NONE, "recv", 25, 15),
                span(0, 1, "restriction", 90, 30),
                span(1, LEVEL_NONE, "allreduce", 5, 15),
            ],
            ..Trace::default()
        };
        let text = encode(&fold(&trace));
        assert_eq!(
            text,
            "rank0;restriction@L1 30\n\
             rank0;smooth@L0 70\n\
             rank0;smooth@L0;exchange@L0 0\n\
             rank0;smooth@L0;exchange@L0;recv 15\n\
             rank0;smooth@L0;exchange@L0;send 15\n\
             rank1;allreduce 15\n\
             rank1;interpolation@L1 30\n"
        );
        assert_eq!(parse(&text).unwrap(), fold(&trace));
    }

    #[test]
    fn fold_keeps_hostile_names_parseable() {
        let trace = Trace {
            events: vec![span(0, 2, "a b;c", 0, 5), span(0, LEVEL_NONE, "", 1, 2)],
            ..Trace::default()
        };
        let text = encode(&fold(&trace));
        assert_eq!(text, "rank0;a_b_c@L2 3\nrank0;a_b_c@L2;? 2\n");
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
