//! Folded stacks — the `a;b;c N` line format consumed by Brendan
//! Gregg's `flamegraph.pl` and every compatible viewer (speedscope,
//! inferno, Firefox Profiler). One line per unique stack, frames joined
//! by `;`, a space, then the count. [`fold`] builds the stacks from a
//! trace's span tree and [`encode`] writes them; the viewers read the
//! text, and nothing here parses it back.

use crate::{Trace, TraceEvent, LEVEL_NONE};
use std::cmp::Reverse;
use std::collections::BTreeMap;

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

    /// One line per stack in key order: frames as given, a space, the
    /// count in decimal, `\n` — `u64::MAX` and 0 included.
    #[test]
    fn encode_writes_one_sorted_line_per_stack() {
        let m = map(&[
            ("rank1;exchange@L0", u64::MAX),
            ("rank0;smooth@L0;recv", 0),
            ("rank0;smooth@L0", 11),
        ]);
        assert_eq!(
            encode(&m),
            "rank0;smooth@L0 11\n\
             rank0;smooth@L0;recv 0\n\
             rank1;exchange@L0 18446744073709551615\n"
        );
        assert_eq!(encode(&BTreeMap::new()), "");
    }
}
