//! Prometheus text exposition for [`Snapshot`]s, plus a parser for the
//! same subset so exposition round-trips in tests.
//!
//! Counters and gauges map directly. Histograms use the standard
//! `_bucket{le=...}` cumulative encoding with an `+Inf` bucket, `_sum`
//! and `_count`; the `le` value of each bucket is its inclusive upper
//! bound from [`crate::hist::bucket_high`], which the parser maps back
//! to a bucket index, so the cycle is exact. Two non-standard gauge
//! lines, `_min` and `_max`, carry the histogram's exact extrema (the
//! standard encoding has no place for them).
//!
//! Numeric values go through f64 on the way back in, so integers are
//! exact up to 2^53 — the same contract as `gmg_trace::Json`, and far
//! beyond any realistic counter or nanosecond value (2^53 ns ≈ 104
//! days).

use crate::hist::{bucket_high, bucket_index, Histogram};
use crate::registry::Key;
use crate::snapshot::{Snapshot, SnapshotEntry, Value};
use std::collections::BTreeMap;
use std::fmt::Write as _;

fn escape_label(v: &str) -> String {
    let mut out = String::with_capacity(v.len());
    for c in v.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

fn unescape_label(v: &str) -> String {
    let mut out = String::with_capacity(v.len());
    let mut chars = v.chars();
    while let Some(c) = chars.next() {
        if c == '\\' {
            match chars.next() {
                Some('n') => out.push('\n'),
                Some(other) => out.push(other),
                None => out.push('\\'),
            }
        } else {
            out.push(c);
        }
    }
    out
}

fn labels(key: &Key, extra: Option<(&str, &str)>) -> String {
    let level = match key.level {
        Some(l) => l.to_string(),
        None => "none".to_string(),
    };
    let mut s = format!(
        "rank=\"{}\",level=\"{}\",op=\"{}\"",
        key.rank,
        level,
        escape_label(key.op)
    );
    if let Some((k, v)) = extra {
        let _ = write!(s, ",{k}=\"{v}\"");
    }
    s
}

/// Render a snapshot in the Prometheus text exposition format.
pub fn render_prometheus(snap: &Snapshot) -> String {
    let mut out = String::new();
    let mut last_name = "";
    for e in &snap.entries {
        if e.name != last_name {
            let kind = match &e.value {
                Value::Counter(_) => "counter",
                Value::Gauge(_) => "gauge",
                Value::Histogram(_) => "histogram",
            };
            let _ = writeln!(out, "# TYPE {} {}", e.name, kind);
            last_name = &e.name;
        }
        match &e.value {
            Value::Counter(c) => {
                let _ = writeln!(out, "{}{{{}}} {}", e.name, labels(&e.key, None), c);
            }
            Value::Gauge(g) => {
                let _ = writeln!(out, "{}{{{}}} {}", e.name, labels(&e.key, None), g);
            }
            Value::Histogram(h) => {
                // Saturates: merged bucket counts may sum past u64::MAX.
                let mut cum = 0u64;
                for (i, c) in h.nonzero_buckets() {
                    cum = cum.saturating_add(c);
                    let le = bucket_high(i).to_string();
                    let _ = writeln!(
                        out,
                        "{}_bucket{{{}}} {}",
                        e.name,
                        labels(&e.key, Some(("le", &le))),
                        cum
                    );
                }
                let _ = writeln!(
                    out,
                    "{}_bucket{{{}}} {}",
                    e.name,
                    labels(&e.key, Some(("le", "+Inf"))),
                    h.count()
                );
                let _ = writeln!(
                    out,
                    "{}_sum{{{}}} {}",
                    e.name,
                    labels(&e.key, None),
                    h.sum()
                );
                let _ = writeln!(
                    out,
                    "{}_count{{{}}} {}",
                    e.name,
                    labels(&e.key, None),
                    h.count()
                );
                // Non-standard extrema lines so exposition is lossless.
                let _ = writeln!(
                    out,
                    "{}_min{{{}}} {}",
                    e.name,
                    labels(&e.key, None),
                    h.min().unwrap_or(0)
                );
                let _ = writeln!(
                    out,
                    "{}_max{{{}}} {}",
                    e.name,
                    labels(&e.key, None),
                    h.max().unwrap_or(0)
                );
            }
        }
    }
    out
}

#[derive(Default)]
struct HistParts {
    buckets: Vec<(usize, u64)>, // (bucket index, cumulative count)
    sum: u64,
    count: u64,
    min: u64,
    max: u64,
}

/// A sample line's metric name, `(label, value)` pairs and value.
type Sample = (String, Vec<(String, String)>, f64);

/// Parse one `name{k="v",...} value` sample line.
fn parse_sample(line: &str) -> Result<Sample, String> {
    let open = line.find('{').ok_or_else(|| format!("no labels: {line}"))?;
    let close = line
        .rfind('}')
        .filter(|&close| close > open)
        .ok_or_else(|| format!("no '}}' after the labels open: {line}"))?;
    let name = line[..open].to_string();
    let mut labels = Vec::new();
    let body = &line[open + 1..close];
    let mut rest = body;
    while !rest.is_empty() {
        let eq = rest
            .find("=\"")
            .ok_or_else(|| format!("bad label in {line}"))?;
        let key = rest[..eq].trim_start_matches(',').to_string();
        let mut val = String::new();
        let mut chars = rest[eq + 2..].char_indices();
        let close = loop {
            let (i, c) = chars
                .next()
                .ok_or_else(|| format!("unterminated label: {line}"))?;
            match c {
                '\\' => {
                    let (_, e) = chars
                        .next()
                        .ok_or_else(|| format!("dangling escape: {line}"))?;
                    val.push('\\');
                    val.push(e);
                }
                '"' => break i,
                c => val.push(c),
            }
        };
        labels.push((key, unescape_label(&val)));
        rest = &rest[eq + 2 + close + 1..];
    }
    let value: f64 = line[close + 1..]
        .trim()
        .parse()
        .map_err(|_| format!("bad value in {line}"))?;
    Ok((name, labels, value))
}

fn key_from_labels(labels: &[(String, String)]) -> Result<Key, String> {
    let find = |k: &str| labels.iter().find(|(n, _)| n == k).map(|(_, v)| v.as_str());
    let rank = find("rank")
        .and_then(|v| v.parse().ok())
        .ok_or("missing rank label")?;
    let level = match find("level").ok_or("missing level label")? {
        "none" => None,
        l => Some(l.parse().map_err(|_| "bad level label")?),
    };
    let op = gmg_trace::intern(find("op").ok_or("missing op label")?).name();
    Ok(Key { rank, level, op })
}

/// Parse the subset of the Prometheus text format that
/// [`render_prometheus`] produces, back into a [`Snapshot`].
pub fn parse_prometheus(text: &str) -> Result<Snapshot, String> {
    let mut kinds: BTreeMap<String, String> = BTreeMap::new();
    let mut scalars: BTreeMap<(String, Key), Value> = BTreeMap::new();
    let mut hists: BTreeMap<(String, Key), HistParts> = BTreeMap::new();

    for line in text.lines() {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            let mut it = rest.split_whitespace();
            let name = it.next().ok_or("bad TYPE line")?.to_string();
            let kind = it.next().ok_or("bad TYPE line")?.to_string();
            kinds.insert(name, kind);
            continue;
        }
        if line.starts_with('#') {
            continue;
        }
        let (name, labels, value) = parse_sample(line)?;
        // Histogram component lines have a suffixed name whose base has
        // TYPE histogram.
        let hist_base = ["_bucket", "_sum", "_count", "_min", "_max"]
            .iter()
            .find_map(|suf| {
                let base = name.strip_suffix(suf)?;
                (kinds.get(base).map(String::as_str) == Some("histogram"))
                    .then(|| (base.to_string(), *suf))
            });
        if let Some((base, suffix)) = hist_base {
            let key = key_from_labels(&labels)?;
            let parts = hists.entry((base, key)).or_default();
            match suffix {
                "_bucket" => {
                    let le = labels
                        .iter()
                        .find(|(n, _)| n == "le")
                        .map(|(_, v)| v.as_str())
                        .ok_or("bucket line without le")?;
                    if le != "+Inf" {
                        let bound: u64 = le.parse().map_err(|_| "bad le bound")?;
                        parts.buckets.push((bucket_index(bound), value as u64));
                    }
                }
                "_sum" => parts.sum = value as u64,
                "_count" => parts.count = value as u64,
                "_min" => parts.min = value as u64,
                "_max" => parts.max = value as u64,
                _ => unreachable!(),
            }
        } else {
            let key = key_from_labels(&labels)?;
            let v = match kinds.get(&name).map(String::as_str) {
                Some("counter") => Value::Counter(value as u64),
                _ => Value::Gauge(value),
            };
            scalars.insert((name, key), v);
        }
    }

    let mut entries: Vec<SnapshotEntry> = Vec::new();
    for ((name, key), value) in scalars {
        entries.push(SnapshotEntry { name, key, value });
    }
    for ((name, key), parts) in hists {
        // De-cumulate the bucket counts, which must not decrease;
        // `from_parts` checks the bucket order.
        let mut prev = 0u64;
        let buckets = parts
            .buckets
            .iter()
            .map(|&(i, cum)| {
                let c = cum.checked_sub(prev)?;
                prev = cum;
                Some((i, c))
            })
            .collect::<Option<Vec<_>>>()
            .ok_or_else(|| format!("{name}: cumulative bucket counts decrease"))?;
        let min = if parts.count > 0 { parts.min } else { u64::MAX };
        let h = Histogram::from_parts(&buckets, parts.count, parts.sum, min, parts.max)
            .map_err(|e| format!("{name}: {e}"))?;
        entries.push(SnapshotEntry {
            name,
            key,
            value: Value::Histogram(h),
        });
    }
    entries.sort_by(|a, b| (&a.name, &a.key).cmp(&(&b.name, &b.key)));
    Ok(Snapshot { entries })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::Registry;

    #[test]
    fn exposition_roundtrip_is_exact() {
        let r = Registry::new();
        r.counter("arq_retransmits_total", Key::new(0, None, "arq"))
            .add(7);
        r.gauge("residual_norm", Key::new(1, Some(0), "solve"))
            .set(3.25e-11);
        let h = r.histogram("solver_op_ns", Key::new(0, Some(2), "smooth+residual"));
        // 1<<52 stays within the codec's exact-integer domain (2^53).
        for v in [9u64, 17, 17, 4096, 1_000_000, 1 << 52] {
            h.record(v);
        }
        let snap = r.snapshot();
        let text = render_prometheus(&snap);
        let back = parse_prometheus(&text).unwrap();
        assert_eq!(back, snap);
    }

    #[test]
    fn exposition_shape() {
        let r = Registry::new();
        let h = r.histogram("lat_ns", Key::new(0, None, "send"));
        h.record(10);
        h.record(100);
        let text = render_prometheus(&r.snapshot());
        assert!(text.contains("# TYPE lat_ns histogram"));
        assert!(text.contains("lat_ns_bucket{rank=\"0\",level=\"none\",op=\"send\",le=\"+Inf\"} 2"));
        assert!(text.contains("lat_ns_sum{rank=\"0\",level=\"none\",op=\"send\"} 110"));
        assert!(text.contains("lat_ns_count{rank=\"0\",level=\"none\",op=\"send\"} 2"));
        // Cumulative counts are nondecreasing in bucket order.
        let cums: Vec<u64> = text
            .lines()
            .filter(|l| l.starts_with("lat_ns_bucket"))
            .map(|l| l.rsplit(' ').next().unwrap().parse().unwrap())
            .collect();
        assert!(cums.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn label_escaping_roundtrips() {
        let r = Registry::new();
        r.counter("c", Key::new(0, None, "odd\"op\\name")).inc();
        let snap = r.snapshot();
        let back = parse_prometheus(&render_prometheus(&snap)).unwrap();
        assert_eq!(back, snap);
    }
}
