//! Trace-analysis engine: critical path, load imbalance, roofline
//! attribution, outlier detection, and run diffing over a captured
//! [`gmg_trace::Trace`].
//!
//! The paper argues from derived metrics (Table II fractions, achieved
//! vs modeled GStencil/s and GB/s); this module extracts the *why*
//! behind those numbers:
//!
//! - **Critical path**: a backward walk over the per-rank timelines that
//!   follows cross-rank message dependencies (a recv's send, joined by
//!   [`Trace::messages`]) through each V-cycle, so every nanosecond of
//!   wall time is attributed to the op on the rank that gated it (or to
//!   idle).
//! - **Wait states**: every receive classified over the same join
//!   ([`classify_waits`]): late-sender, late-receiver, ARQ-stall,
//!   starvation, or honestly unattributed.
//! - **Load imbalance**: per-`(level, op)` max/mean seconds across
//!   ranks, plus per-rank compute/comm/idle utilization.
//! - **Roofline attribution**: achieved GB/s and GStencil/s per kernel
//!   against a [`MachineEnvelope`] (numbers from `gmg-machine`,
//!   passed as plain floats so this crate stays leaf-level), with each
//!   gap classified bandwidth-, latency-, or launch-bound.
//! - **Outliers**: MAD-based straggler detection over span durations,
//!   which is what surfaces fault-injected stalls.
//!
//! Everything here is deterministic: same trace in, byte-identical
//! report out (the analyze binary's determinism test pins this).

use gmg_trace::TraceSummary;
use gmg_trace::{Trace, TraceEvent, Track, LEVEL_NONE};
use std::collections::{BTreeMap, HashMap, HashSet};
use std::fmt::Write as _;

/// Machine-model numbers the roofline attribution compares against.
/// Constructed by the caller from `gmg-machine` measurements/fits;
/// plain floats so `gmg-metrics` has no dependency on that crate.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct MachineEnvelope {
    /// Host STREAM-triad bandwidth ceiling, GB/s.
    pub triad_gbs: f64,
    /// Per-invocation launch/dispatch overhead, seconds.
    pub launch_alpha_s: f64,
    /// Per-message latency (α of the latency-throughput comm model),
    /// seconds.
    pub comm_alpha_s: f64,
    /// Link bandwidth (β of the comm model), GB/s.
    pub comm_beta_gbs: f64,
}

/// Why a kernel or the exchange falls short of its ceiling.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Bound {
    /// At or near the bandwidth roof — the kernel is doing as well as
    /// the memory system allows.
    Bandwidth,
    /// Message/access sizes below n_1/2 — time dominated by per-message
    /// or per-access latency.
    Latency,
    /// Invocations so short that per-invocation launch overhead
    /// dominates.
    Launch,
}

impl Bound {
    pub fn name(self) -> &'static str {
        match self {
            Bound::Bandwidth => "bandwidth-bound",
            Bound::Latency => "latency-bound",
            Bound::Launch => "launch-bound",
        }
    }
}

/// Pseudo-op name for time the critical path cannot attribute to any
/// span (gaps in every rank's timeline).
pub const IDLE_OP: &str = "(idle)";

/// One attributed interval of the critical path.
#[derive(Clone, Debug, PartialEq)]
pub struct PathSegment {
    pub rank: usize,
    /// Multigrid level (None for level-less spans like comm and idle).
    pub level: Option<usize>,
    pub op: String,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl PathSegment {
    pub fn seconds(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e9
    }
}

/// The critical path through one V-cycle (or the whole run when cycles
/// cannot be segmented).
#[derive(Clone, Debug, PartialEq)]
pub struct CyclePath {
    /// 1-based cycle number. Cycle 1 includes setup; the last includes
    /// the tail (norm checks etc.).
    pub cycle: usize,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Path segments in time order, tiling `[start_ns, end_ns]`.
    pub segments: Vec<PathSegment>,
    /// Fraction of the cycle's wall time attributed to real ops (the
    /// rest is idle).
    pub coverage: f64,
}

/// Critical path over the whole trace.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct CriticalPath {
    pub cycles: Vec<CyclePath>,
    /// Non-idle path seconds over total wall seconds.
    pub coverage: f64,
    /// Seconds on the path per op (including [`IDLE_OP`]), descending.
    pub op_totals: Vec<(String, f64)>,
}

/// Per-`(level, op)` cross-rank imbalance.
#[derive(Clone, Debug, PartialEq)]
pub struct ImbalanceRow {
    pub level: usize,
    pub op: String,
    /// Mean per-rank seconds in this op.
    pub mean_s: f64,
    /// Seconds on the slowest rank.
    pub max_s: f64,
    /// `max_s / mean_s` (1.0 = perfectly balanced).
    pub factor: f64,
    /// The slowest rank.
    pub max_rank: usize,
}

/// Per-rank busy/idle split over the trace extent.
#[derive(Clone, Debug, PartialEq)]
pub struct RankUtil {
    pub rank: usize,
    pub compute_s: f64,
    /// Comm spans not nested inside a compute span on the same rank
    /// (nested exchange traffic is already inside compute time).
    pub comm_s: f64,
    /// Trace extent minus the union of this rank's busy intervals.
    pub idle_s: f64,
}

/// One flagged straggler span.
#[derive(Clone, Debug, PartialEq)]
pub struct Outlier {
    pub rank: usize,
    pub level: Option<usize>,
    pub op: String,
    pub ts_ns: u64,
    pub dur_ns: u64,
    /// Median duration of this `(level, op)` population.
    pub median_ns: u64,
    /// Robust z-score: `(dur − median) / (1.4826 · MAD)`.
    pub score: f64,
}

/// Roofline comparison for one `(level, op)` kernel row.
#[derive(Clone, Debug, PartialEq)]
pub struct RooflineRow {
    pub level: usize,
    pub op: String,
    pub achieved_gbs: f64,
    pub ceiling_gbs: f64,
    /// `achieved / ceiling`.
    pub fraction: f64,
    pub gstencil: Option<f64>,
    pub bound: Bound,
}

/// Exchange-bandwidth attribution against the comm α-β model.
#[derive(Clone, Debug, PartialEq)]
pub struct CommAttribution {
    pub avg_msg_bytes: f64,
    /// Half-performance message size `n_1/2 = α · β` of the model.
    pub n_half_bytes: f64,
    pub achieved_gbs: f64,
    /// Model-predicted GB/s at the observed average message size.
    pub model_gbs: f64,
    pub bound: Bound,
}

/// Everything the analyze report is rendered from.
#[derive(Clone, Debug, PartialEq)]
pub struct Analysis {
    pub summary: TraceSummary,
    pub path: CriticalPath,
    pub imbalance: Vec<ImbalanceRow>,
    pub utilization: Vec<RankUtil>,
    pub outliers: Vec<Outlier>,
    /// Empty when no [`MachineEnvelope`] was supplied.
    pub roofline: Vec<RooflineRow>,
    pub comm: Option<CommAttribution>,
}

// ---------------------------------------------------------------------------
// Timeline model
// ---------------------------------------------------------------------------

/// Flattened view of one event for the path walk.
#[derive(Clone, Copy, Debug)]
struct TEv {
    rank: usize,
    level: usize,
    op: &'static str,
    track: Track,
    ts: u64,
    end: u64,
    /// For a `recv` joined to its send: when the send released it (the
    /// send's end, or the recv's own end if the send span outlasted it)
    /// and the sending rank.
    sent: Option<(u64, usize)>,
}

impl TEv {
    fn from(e: &TraceEvent, sent: Option<&TraceEvent>) -> TEv {
        TEv {
            rank: e.rank,
            level: e.level,
            op: e.op.name(),
            track: e.track,
            ts: e.ts_ns,
            end: e.ts_ns + e.dur_ns,
            sent: sent.map(|s| ((s.ts_ns + s.dur_ns).min(e.ts_ns + e.dur_ns), s.rank)),
        }
    }

    fn opt_level(&self) -> Option<usize> {
        (self.level != LEVEL_NONE).then_some(self.level)
    }
}

/// Per-rank timelines: the *top-level* timeline (compute spans plus comm
/// spans not nested inside a same-rank compute span — the latter fills
/// allreduce gaps), plus the joined receives every wait is made of.
struct Timelines {
    ranks: Vec<usize>,
    /// rank → top-level events, ts order.
    top: BTreeMap<usize, Vec<TEv>>,
    /// rank → receives [`Trace::messages`] joins to a send, ts order.
    waits: BTreeMap<usize, Vec<TEv>>,
}

impl Timelines {
    fn build(trace: &Trace) -> Timelines {
        let ranks = trace.ranks();
        let mut sent: Vec<Option<&TraceEvent>> = vec![None; trace.events.len()];
        for (send, recv) in trace.messages() {
            sent[recv] = Some(&trace.events[send]);
        }
        // Bucket per (rank, track) in ONE pass over the event list. A
        // per-rank `track_events` filter would be O(ranks × events) —
        // ruinous for the 10k-rank simulated traces the scaling
        // observatory feeds through here.
        let mut compute_by: BTreeMap<usize, Vec<TEv>> = BTreeMap::new();
        let mut comm_by: BTreeMap<usize, Vec<TEv>> = BTreeMap::new();
        for (e, sent) in trace.events.iter().zip(sent) {
            match e.track {
                Track::Compute => compute_by
                    .entry(e.rank)
                    .or_default()
                    .push(TEv::from(e, sent)),
                Track::Comm => comm_by.entry(e.rank).or_default().push(TEv::from(e, sent)),
                Track::Fault => {}
            }
        }
        let mut top: BTreeMap<usize, Vec<TEv>> = BTreeMap::new();
        let mut waits: BTreeMap<usize, Vec<TEv>> = BTreeMap::new();
        for &r in &ranks {
            let mut compute = compute_by.remove(&r).unwrap_or_default();
            let mut comms = comm_by.remove(&r).unwrap_or_default();
            // Bucketing preserves file order; the nesting check below
            // needs strict ts order regardless of how the trace was
            // assembled.
            compute.sort_by_key(|e| (e.ts, e.end));
            comms.sort_by_key(|e| (e.ts, e.end));
            // A comm span is nested if the last compute span starting at
            // or before it also ends at or after it (compute tracks are
            // serial, so at most one candidate).
            let mut merged = compute.clone();
            for c in &comms {
                let nested = match compute.partition_point(|e| e.ts <= c.ts) {
                    0 => false,
                    i => compute[i - 1].end >= c.end,
                };
                if !nested {
                    merged.push(*c);
                }
            }
            merged.sort_by_key(|e| (e.ts, e.end));
            top.insert(r, merged);
            comms.retain(|c| c.sent.is_some());
            waits.insert(r, comms);
        }
        Timelines { ranks, top, waits }
    }

    /// Last top-level event on `rank` starting strictly before `t`.
    fn last_before(&self, rank: usize, t: u64) -> Option<TEv> {
        let evs = self.top.get(&rank)?;
        let i = evs.partition_point(|e| e.ts < t);
        (i > 0).then(|| evs[i - 1])
    }

    /// Across all ranks, the event that best explains time just below
    /// `t`: maximize `min(end, t)`, then later start, then lower rank.
    fn best_candidate(&self, t: u64) -> Option<TEv> {
        let mut best: Option<TEv> = None;
        for &r in &self.ranks {
            if let Some(e) = self.last_before(r, t) {
                let better = match &best {
                    None => true,
                    Some(b) => {
                        let (ec, bc) = (e.end.min(t), b.end.min(t));
                        ec > bc || (ec == bc && (e.ts > b.ts || (e.ts == b.ts && e.rank < b.rank)))
                    }
                };
                if better {
                    best = Some(e);
                }
            }
        }
        best
    }

    /// For an event on the path, the latest cross-rank dependency end
    /// strictly before `frontier`, as `(send_end, send_rank)`: the sends
    /// of the joined receives inside it, at any nesting depth (a
    /// top-level receive lies inside itself). Whatever op encloses the
    /// wait — an exchange, a norm's allreduce — is the op that waited.
    fn dependency(&self, ev: &TEv, frontier: u64) -> Option<(u64, usize)> {
        let waits = self.waits.get(&ev.rank)?;
        let first = waits.partition_point(|w| w.ts < ev.ts);
        waits[first..]
            .iter()
            .take_while(|w| w.ts <= ev.end)
            .filter(|w| w.end <= ev.end)
            .filter_map(|w| w.sent)
            .filter(|&(end, rank)| end < frontier && end > ev.ts && rank != ev.rank)
            .max_by_key(|&(end, _)| end)
    }
}

// ---------------------------------------------------------------------------
// V-cycle segmentation
// ---------------------------------------------------------------------------

/// The smoothing ops that open a V-cycle's level-0 pre-smooth run.
fn is_level0_smooth(e: &TraceEvent) -> bool {
    e.level == 0 && matches!(e.op.name(), "smooth" | "fusedSmooth" | "smooth+residual")
}

/// Start timestamps of each V-cycle segment; the segments tile the whole
/// trace (setup lands in cycle 1, the tail in the last cycle).
///
/// Anchoring: each V-cycle performs exactly one level-0
/// `interpolation+increment`, with and without communication avoiding (a
/// communication-avoiding pre-smooth restricts as it goes, so there is no
/// level-0 `restriction` to anchor on). The pre-smooth run length `L` is
/// read off the first cycle (the level-0 smooth-type events before its
/// interpolation); cycle `k ≥ 2` then starts at the first of the last `L`
/// smooth-type level-0 events between interpolations `k−1` and `k`.
pub fn cycle_starts(trace: &Trace) -> Vec<u64> {
    let Some((t0, _)) = trace.time_bounds() else {
        return Vec::new();
    };
    let Some(&rank0) = trace.ranks().first() else {
        return vec![t0];
    };
    let evs = trace.track_events(rank0, Track::Compute);
    let interp: Vec<usize> = evs
        .iter()
        .enumerate()
        .filter(|(_, e)| e.level == 0 && e.op.name() == "interpolation+increment")
        .map(|(i, _)| i)
        .collect();
    if interp.len() <= 1 {
        return vec![t0];
    }
    // Pre-smooth run length from the first cycle.
    let run_len = evs[..interp[0]]
        .iter()
        .filter(|e| is_level0_smooth(e))
        .count();
    let mut starts = vec![t0];
    for w in interp.windows(2) {
        let window = &evs[w[0] + 1..w[1]];
        let smooth_ts: Vec<u64> = window
            .iter()
            .filter(|e| is_level0_smooth(e))
            .map(|e| e.ts_ns)
            .collect();
        let boundary = if smooth_ts.is_empty() || run_len == 0 {
            evs[w[1]].ts_ns
        } else {
            smooth_ts[smooth_ts.len().saturating_sub(run_len)]
        };
        if boundary > *starts.last().unwrap() {
            starts.push(boundary);
        }
    }
    starts
}

// ---------------------------------------------------------------------------
// Critical path
// ---------------------------------------------------------------------------

/// Backward walk from `seg_end` to `seg_start`, producing segments that
/// tile the interval. At each step the walk sits at a `frontier` and
/// asks: which event explains the time just below it? Inside an event,
/// the event is charged; at an op holding a joined receive whose send on
/// a peer ends inside the op, the walk charges the wait tail then jumps
/// to the peer; in a gap it charges idle and jumps to whichever rank was
/// last busy.
fn walk_segment(tl: &Timelines, seg_start: u64, seg_end: u64, nevents: usize) -> Vec<PathSegment> {
    let mut segs: Vec<PathSegment> = Vec::new();
    let mut frontier = seg_end;
    let mut cur: Option<usize> = None;
    let mut guard = 4 * nevents + 64;
    while frontier > seg_start && guard > 0 {
        guard -= 1;
        let inside = cur
            .and_then(|r| tl.last_before(r, frontier))
            .filter(|e| e.end >= frontier);
        if let Some(ev) = inside {
            let mut lo = ev.ts.max(seg_start);
            let mut next_frontier = ev.ts;
            let mut next_rank = Some(ev.rank);
            if let Some((dep_end, dep_rank)) = tl.dependency(&ev, frontier) {
                if dep_end > lo && dep_end < frontier {
                    lo = dep_end;
                    next_frontier = dep_end;
                    next_rank = Some(dep_rank);
                }
            }
            if frontier > lo {
                segs.push(PathSegment {
                    rank: ev.rank,
                    level: ev.opt_level(),
                    op: ev.op.to_string(),
                    start_ns: lo,
                    end_ns: frontier,
                });
            }
            frontier = next_frontier.min(frontier).max(seg_start);
            cur = next_rank;
        } else {
            match tl.best_candidate(frontier) {
                Some(c) => {
                    let cend = c.end.min(frontier).max(seg_start);
                    if cend < frontier {
                        segs.push(PathSegment {
                            rank: cur.unwrap_or(c.rank),
                            level: None,
                            op: IDLE_OP.to_string(),
                            start_ns: cend,
                            end_ns: frontier,
                        });
                    }
                    frontier = cend;
                    cur = Some(c.rank);
                }
                None => {
                    segs.push(PathSegment {
                        rank: cur.unwrap_or(0),
                        level: None,
                        op: IDLE_OP.to_string(),
                        start_ns: seg_start,
                        end_ns: frontier,
                    });
                    frontier = seg_start;
                }
            }
        }
    }
    segs.reverse();
    // Coalesce adjacent same-(rank, op, level) segments.
    let mut merged: Vec<PathSegment> = Vec::with_capacity(segs.len());
    for s in segs {
        match merged.last_mut() {
            Some(last)
                if last.end_ns == s.start_ns
                    && last.rank == s.rank
                    && last.op == s.op
                    && last.level == s.level =>
            {
                last.end_ns = s.end_ns;
            }
            _ => merged.push(s),
        }
    }
    merged
}

/// Compute the critical path over the whole trace, one walk per V-cycle.
/// A receive waits on the send [`Trace::messages`] joins it to; a
/// receive with no joined send (a trace without `seq`, or a send outside
/// the trace) is charged to the waiting rank.
pub fn critical_path(trace: &Trace) -> CriticalPath {
    let Some((t0, t1)) = trace.time_bounds() else {
        return CriticalPath::default();
    };
    let tl = Timelines::build(trace);
    let starts = cycle_starts(trace);
    let mut cycles = Vec::new();
    let mut op_totals: BTreeMap<String, f64> = BTreeMap::new();
    let mut busy_ns = 0u64;
    for (i, &s) in starts.iter().enumerate() {
        let e = starts.get(i + 1).copied().unwrap_or(t1);
        if e <= s {
            continue;
        }
        let segments = walk_segment(&tl, s, e, trace.events.len());
        let cyc_busy: u64 = segments
            .iter()
            .filter(|g| g.op != IDLE_OP)
            .map(|g| g.end_ns - g.start_ns)
            .sum();
        busy_ns += cyc_busy;
        for g in &segments {
            *op_totals.entry(g.op.clone()).or_insert(0.0) += g.seconds();
        }
        cycles.push(CyclePath {
            cycle: i + 1,
            start_ns: s,
            end_ns: e,
            coverage: cyc_busy as f64 / (e - s) as f64,
            segments,
        });
    }
    let wall = (t1 - t0) as f64;
    let mut totals: Vec<(String, f64)> = op_totals.into_iter().collect();
    totals.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap().then(a.0.cmp(&b.0)));
    CriticalPath {
        cycles,
        coverage: if wall > 0.0 {
            busy_ns as f64 / wall
        } else {
            0.0
        },
        op_totals: totals,
    }
}

// ---------------------------------------------------------------------------
// Wait states
// ---------------------------------------------------------------------------

/// Why a receive wait took as long as it did — the late-sender /
/// late-receiver split of Scalasca's wait-state taxonomy, plus what the
/// reliability layer and the progress engine cost:
///
/// * **late-sender** — the joined send was posted *after* the wait began
///   (or never: a failed wait on a killed or silent peer), so the
///   receiver idled on the sender's critical path.
/// * **late-receiver** — the message had already arrived before the wait
///   began; the "wait" is local matching overhead.
/// * **ARQ-stall** — the reliability layer was recovering this very
///   message (retransmit, drop, reject): transport loss paid for it.
/// * **starvation** — the send was posted before the wait and no fault
///   intervened, yet delivery happened mid-wait: the message was in
///   flight or the receiver's progress engine had not drained it.
/// * **unattributed** — a receive of a message whose send is not in the
///   trace (overwritten out of a ring) or was posted after the receive
///   ended: counted, never guessed, so the classified fraction is an
///   honest coverage metric.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum WaitClass {
    LateSender,
    LateReceiver,
    ArqStall,
    Starvation,
    Unattributed,
}

impl WaitClass {
    pub const ALL: [WaitClass; 5] = [
        WaitClass::LateSender,
        WaitClass::LateReceiver,
        WaitClass::ArqStall,
        WaitClass::Starvation,
        WaitClass::Unattributed,
    ];
}

/// Wait time accumulated per class.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct WaitStats {
    pub count: u64,
    pub late_sender_ns: u64,
    pub late_receiver_ns: u64,
    pub arq_stall_ns: u64,
    pub starvation_ns: u64,
    pub unattributed_ns: u64,
}

impl WaitStats {
    fn slot(&mut self, class: WaitClass) -> &mut u64 {
        match class {
            WaitClass::LateSender => &mut self.late_sender_ns,
            WaitClass::LateReceiver => &mut self.late_receiver_ns,
            WaitClass::ArqStall => &mut self.arq_stall_ns,
            WaitClass::Starvation => &mut self.starvation_ns,
            WaitClass::Unattributed => &mut self.unattributed_ns,
        }
    }

    fn add(&mut self, class: WaitClass, dur_ns: u64) {
        self.count += 1;
        *self.slot(class) += dur_ns;
    }

    pub fn class_ns(&self, class: WaitClass) -> u64 {
        let mut copy = *self;
        *copy.slot(class)
    }

    pub fn total_ns(&self) -> u64 {
        WaitClass::ALL.iter().map(|&c| self.class_ns(c)).sum()
    }

    /// Share of total wait time attributed to one of the four concrete
    /// classes (1.0 when there was no wait time at all).
    pub fn classified_fraction(&self) -> f64 {
        let total = self.total_ns();
        if total == 0 {
            1.0
        } else {
            (total - self.unattributed_ns) as f64 / total as f64
        }
    }
}

/// One classified wait, for per-rank / per-peer drill-down.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct WaitSample {
    pub rank: usize,
    pub level: Option<usize>,
    /// The rank waited on.
    pub peer: Option<usize>,
    pub tag: Option<u64>,
    pub ts_ns: u64,
    pub dur_ns: u64,
    pub class: WaitClass,
}

/// Every wait of a trace, classified.
#[derive(Clone, Debug, Default)]
pub struct WaitAnalysis {
    /// Per-level wait-state rows (`None` = outside any level scope),
    /// deterministic order.
    pub per_level: BTreeMap<Option<usize>, WaitStats>,
    pub total: WaitStats,
    /// Ordered by `(rank, ts, peer, tag)`, whatever the trace order.
    pub samples: Vec<WaitSample>,
    /// Waits [`Trace::messages`] joined to their send.
    pub joined: usize,
}

/// Whether `e` is a receive wait: a `recv` span on the comm track, or
/// the flight ring's `recv:timeout` for a wait that matched no message.
pub fn is_wait(e: &TraceEvent) -> bool {
    e.track == Track::Comm && matches!(e.op.name(), "recv" | "recv:timeout")
}

/// Classify every receive wait in `trace` ([`WaitClass`]). A wait's send
/// is the one [`Trace::messages`] joins it to — the join the critical
/// path walks; its delivery is the receiving rank's `arrive` instant of
/// the same `(sender, seq)`; ARQ recovery is a fault-track instant about
/// the message. A wait without a `seq` matched nothing: it is an
/// ARQ-stall while the protocol still worked on a message from that peer
/// to this rank, a late-sender otherwise (a killed or silent peer).
pub fn classify_waits(trace: &Trace) -> WaitAnalysis {
    let mut sent: Vec<Option<&TraceEvent>> = vec![None; trace.events.len()];
    let joins = trace.messages();
    for &(send, recv) in &joins {
        sent[recv] = Some(&trace.events[send]);
    }
    // (dst, src, seq) → earliest delivery.
    let mut arrived: HashMap<(usize, usize, u64), u64> = HashMap::new();
    // (src, seq) the ARQ layer recovered.
    let mut recovered: HashSet<(usize, u64)> = HashSet::new();
    // (src, dst) → end of the latest ARQ activity on that link.
    let mut arq_until: HashMap<(usize, usize), u64> = HashMap::new();
    for e in &trace.events {
        let (Some(peer), Some(seq)) = (e.peer, e.seq) else {
            continue;
        };
        match (e.track, e.op.name()) {
            (Track::Comm, "arrive") => {
                let t = arrived.entry((e.rank, peer, seq)).or_insert(e.ts_ns);
                *t = (*t).min(e.ts_ns);
            }
            (Track::Fault, op) => {
                // A receiver-side instant names the message's origin as
                // its peer, a sender-side one the destination.
                let (src, dst) = match op {
                    "arq:reject" | "arq:dedup" => (peer, e.rank),
                    _ => (e.rank, peer),
                };
                recovered.insert((src, seq));
                let until = arq_until.entry((src, dst)).or_insert(0);
                *until = (*until).max(e.ts_ns + e.dur_ns);
            }
            _ => {}
        }
    }
    let mut out = WaitAnalysis {
        joined: joins.len(),
        ..WaitAnalysis::default()
    };
    for (e, send) in trace.events.iter().zip(sent) {
        if !is_wait(e) {
            continue;
        }
        let class = match (e.seq, send) {
            (Some(seq), Some(send)) => {
                if arrived
                    .get(&(e.rank, send.rank, seq))
                    .is_some_and(|&a| a <= e.ts_ns)
                {
                    WaitClass::LateReceiver
                } else if recovered.contains(&(send.rank, seq)) {
                    WaitClass::ArqStall
                } else if send.ts_ns >= e.ts_ns {
                    WaitClass::LateSender
                } else {
                    WaitClass::Starvation
                }
            }
            (Some(_), None) => WaitClass::Unattributed,
            (None, _) => {
                let arq_busy = e
                    .peer
                    .and_then(|p| arq_until.get(&(p, e.rank)))
                    .is_some_and(|&until| until >= e.ts_ns);
                if arq_busy {
                    WaitClass::ArqStall
                } else {
                    WaitClass::LateSender
                }
            }
        };
        let level = (e.level != LEVEL_NONE).then_some(e.level);
        out.total.add(class, e.dur_ns);
        out.per_level.entry(level).or_default().add(class, e.dur_ns);
        out.samples.push(WaitSample {
            rank: e.rank,
            level,
            peer: e.peer,
            tag: e.tag,
            ts_ns: e.ts_ns,
            dur_ns: e.dur_ns,
            class,
        });
    }
    out.samples
        .sort_by_key(|s| (s.rank, s.ts_ns, s.peer, s.tag));
    out
}

/// Ranks that recorded an injected `fault:kill`, ascending: what tells a
/// killed peer's late-sender waits from a silent one's.
pub fn killed_ranks(trace: &Trace) -> Vec<usize> {
    let killed: std::collections::BTreeSet<usize> = trace
        .events
        .iter()
        .filter(|e| e.track == Track::Fault && e.op.name() == "fault:kill")
        .map(|e| e.rank)
        .collect();
    killed.into_iter().collect()
}

impl WaitAnalysis {
    /// Render the per-level wait-state table as markdown (times in ms).
    pub fn render_table(&self) -> String {
        let ms = |ns: u64| ns as f64 / 1e6;
        let mut s = String::new();
        s.push_str(
            "| level | waits | late-sender (ms) | late-receiver (ms) | arq-stall (ms) \
             | starvation (ms) | unattributed (ms) | total (ms) |\n",
        );
        s.push_str("|---|---|---|---|---|---|---|---|\n");
        let rows = self
            .per_level
            .iter()
            .map(|(lvl, st)| (lvl.map_or("(none)".to_string(), |l| l.to_string()), st))
            .chain(std::iter::once(("**all**".to_string(), &self.total)));
        for (name, st) in rows {
            let _ = write!(s, "| {name} | {} |", st.count);
            for c in WaitClass::ALL {
                let _ = write!(s, " {:.3} |", ms(st.class_ns(c)));
            }
            let _ = writeln!(s, " {:.3} |", ms(st.total_ns()));
        }
        s
    }
}

// ---------------------------------------------------------------------------
// Load imbalance and utilization
// ---------------------------------------------------------------------------

/// Per-`(level, op)` cross-rank imbalance over compute spans.
pub fn imbalance(trace: &Trace) -> Vec<ImbalanceRow> {
    let ranks = trace.ranks();
    if ranks.is_empty() {
        return Vec::new();
    }
    let rows = trace
        .events
        .iter()
        .filter(|e| e.track == Track::Compute)
        .map(|e| {
            (
                e.level,
                e.op.name().to_string(),
                e.rank,
                e.dur_ns as f64 / 1e9,
            )
        });
    imbalance_from_seconds(rows, ranks.len())
}

/// [`imbalance`] over pre-aggregated `(level, op, rank, seconds)` rows —
/// for producers (e.g. the `gmg-scale` simulator) that track per-rank
/// op seconds directly and would otherwise have to materialize a
/// multi-million-event `Trace` just to compute a max/mean table. Rows
/// for the same `(level, op, rank)` accumulate; `n_ranks` is the world
/// size the mean is taken over (absent ranks count as zero, matching
/// the trace-based path).
pub fn imbalance_from_seconds(
    rows: impl IntoIterator<Item = (usize, String, usize, f64)>,
    n_ranks: usize,
) -> Vec<ImbalanceRow> {
    if n_ranks == 0 {
        return Vec::new();
    }
    let mut per: BTreeMap<(usize, String), BTreeMap<usize, f64>> = BTreeMap::new();
    for (level, op, rank, seconds) in rows {
        *per.entry((level, op))
            .or_default()
            .entry(rank)
            .or_insert(0.0) += seconds;
    }
    per.into_iter()
        .map(|((level, op), by_rank)| {
            let total: f64 = by_rank.values().sum();
            let mean = total / n_ranks as f64;
            let (&max_rank, &max_s) = by_rank
                .iter()
                .max_by(|a, b| a.1.partial_cmp(b.1).unwrap().then(b.0.cmp(a.0)))
                .unwrap();
            ImbalanceRow {
                level,
                op,
                mean_s: mean,
                max_s,
                factor: if mean > 0.0 { max_s / mean } else { 1.0 },
                max_rank,
            }
        })
        .collect()
}

/// Per-rank compute/comm/idle split over the trace extent. Comm time
/// counts only spans not nested inside a same-rank compute span; idle is
/// the extent minus the union of busy intervals.
pub fn utilization(trace: &Trace) -> Vec<RankUtil> {
    let Some((t0, t1)) = trace.time_bounds() else {
        return Vec::new();
    };
    let tl = Timelines::build(trace);
    let wall = (t1 - t0) as f64 / 1e9;
    tl.ranks
        .iter()
        .map(|&r| {
            let top = &tl.top[&r];
            let mut compute_s = 0.0;
            let mut comm_s = 0.0;
            let mut busy_ns = 0u64;
            let mut cover_end = t0;
            for e in top {
                match e.track {
                    Track::Compute => compute_s += (e.end - e.ts) as f64 / 1e9,
                    Track::Comm => comm_s += (e.end - e.ts) as f64 / 1e9,
                    Track::Fault => {}
                }
                let lo = e.ts.max(cover_end);
                if e.end > lo {
                    busy_ns += e.end - lo;
                    cover_end = e.end;
                }
            }
            RankUtil {
                rank: r,
                compute_s,
                comm_s,
                idle_s: (wall - busy_ns as f64 / 1e9).max(0.0),
            }
        })
        .collect()
}

// ---------------------------------------------------------------------------
// Outlier detection
// ---------------------------------------------------------------------------

/// Smallest population per `(level, op)` before MAD statistics apply.
const OUTLIER_MIN_SAMPLES: usize = 8;

/// One sample's verdict from [`mad_outliers`].
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct MadVerdict {
    pub flagged: bool,
    /// Robust z-score `(sample - median) / σ_MAD`.
    pub score: f64,
    pub median: f64,
    pub threshold: f64,
}

/// The reusable robust-outlier core shared by [`outliers`] and the
/// postmortem's straggler check: each sample is judged against
/// `median + max(5·σ_MAD, 0.5·median, abs_floor)` where
/// `σ_MAD = max(1.4826·MAD, 1)`. Returns one verdict per input sample
/// (in input order); fewer than `min_samples` inputs flag nothing.
pub fn mad_outliers(samples: &[f64], min_samples: usize, abs_floor: f64) -> Vec<MadVerdict> {
    let mut sorted: Vec<f64> = samples.iter().copied().filter(|v| v.is_finite()).collect();
    sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
    if sorted.len() < min_samples.max(1) {
        return samples
            .iter()
            .map(|&s| MadVerdict {
                flagged: false,
                score: 0.0,
                median: s,
                threshold: f64::INFINITY,
            })
            .collect();
    }
    let median = sorted[sorted.len() / 2];
    let mut devs: Vec<f64> = sorted.iter().map(|&d| (d - median).abs()).collect();
    devs.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let mad = devs[devs.len() / 2];
    let sigma = (1.4826 * mad).max(1.0);
    let threshold = median + (5.0 * sigma).max(0.5 * median).max(abs_floor);
    samples
        .iter()
        .map(|&s| MadVerdict {
            flagged: s.is_finite() && s > threshold,
            score: if s.is_finite() {
                (s - median) / sigma
            } else {
                0.0
            },
            median,
            threshold,
        })
        .collect()
}

/// MAD-based straggler detection over compute-span durations. A span is
/// flagged when it exceeds `median + max(5·σ_MAD, 0.5·median, 10 µs)` —
/// the robust-z threshold catches stalls, the relative and absolute
/// floors suppress noise on very uniform or very short populations.
pub fn outliers(trace: &Trace) -> Vec<Outlier> {
    let mut groups: BTreeMap<(usize, &'static str), Vec<&TraceEvent>> = BTreeMap::new();
    for e in &trace.events {
        if e.track == Track::Compute {
            groups.entry((e.level, e.op.name())).or_default().push(e);
        }
    }
    let mut out = Vec::new();
    for ((level, op), evs) in groups {
        if evs.len() < OUTLIER_MIN_SAMPLES {
            continue;
        }
        let durs: Vec<f64> = evs.iter().map(|e| e.dur_ns as f64).collect();
        let verdicts = mad_outliers(&durs, OUTLIER_MIN_SAMPLES, 10_000.0);
        for (e, v) in evs.iter().zip(&verdicts) {
            if v.flagged {
                out.push(Outlier {
                    rank: e.rank,
                    level: (level != LEVEL_NONE).then_some(level),
                    op: op.to_string(),
                    ts_ns: e.ts_ns,
                    dur_ns: e.dur_ns,
                    median_ns: v.median as u64,
                    score: v.score,
                });
            }
        }
    }
    out.sort_by(|a, b| {
        b.score
            .partial_cmp(&a.score)
            .unwrap()
            .then(a.ts_ns.cmp(&b.ts_ns))
    });
    out
}

// ---------------------------------------------------------------------------
// Roofline attribution
// ---------------------------------------------------------------------------

/// Per-kernel roofline rows for every summary row that tracked byte
/// traffic, classified against the envelope.
pub fn roofline(summary: &TraceSummary, env: &MachineEnvelope) -> Vec<RooflineRow> {
    let mut rows = Vec::new();
    for r in &summary.rows {
        let bytes = r.counters.bytes_read + r.counters.bytes_written;
        let Some(achieved) = summary.achieved_gb_per_s(r.level, &r.op) else {
            continue;
        };
        if bytes == 0 || env.triad_gbs <= 0.0 {
            continue;
        }
        let fraction = achieved / env.triad_gbs;
        let per_invocation_s = if r.invocations > 0 {
            r.seconds / r.invocations as f64
        } else {
            0.0
        };
        let bound = if fraction >= 0.5 {
            Bound::Bandwidth
        } else if per_invocation_s <= 20.0 * env.launch_alpha_s {
            Bound::Launch
        } else {
            Bound::Latency
        };
        rows.push(RooflineRow {
            level: r.level,
            op: r.op.clone(),
            achieved_gbs: achieved,
            ceiling_gbs: env.triad_gbs,
            fraction,
            gstencil: summary.gstencil_per_s(r.level, &r.op),
            bound,
        });
    }
    rows
}

/// Exchange-bandwidth attribution: observed average message size against
/// the comm model's half-performance size `n_1/2 = α·β`.
pub fn comm_attribution(summary: &TraceSummary, env: &MachineEnvelope) -> Option<CommAttribution> {
    if summary.comm.messages == 0 {
        return None;
    }
    let achieved = summary.comm_gb_per_s()?;
    let avg = summary.comm.message_bytes as f64 / summary.comm.messages as f64;
    let n_half = env.comm_alpha_s * env.comm_beta_gbs * 1e9;
    let model_time = env.comm_alpha_s + avg / (env.comm_beta_gbs * 1e9);
    let model_gbs = if model_time > 0.0 {
        avg / model_time / 1e9
    } else {
        env.comm_beta_gbs
    };
    Some(CommAttribution {
        avg_msg_bytes: avg,
        n_half_bytes: n_half,
        achieved_gbs: achieved,
        model_gbs,
        bound: if avg < n_half {
            Bound::Latency
        } else {
            Bound::Bandwidth
        },
    })
}

// ---------------------------------------------------------------------------
// Diffing and slowdown injection
// ---------------------------------------------------------------------------

/// One `(level, op)` comparison between two runs.
#[derive(Clone, Debug, PartialEq)]
pub struct DiffRow {
    pub level: usize,
    pub op: String,
    /// Mean seconds per invocation in run A (None if absent there).
    pub a_mean_s: Option<f64>,
    /// Mean seconds per invocation in run B.
    pub b_mean_s: Option<f64>,
    /// `b_mean / a_mean` when both present.
    pub ratio: Option<f64>,
    /// B is slower than A by more than the threshold.
    pub regressed: bool,
    /// B is faster than A by more than the threshold.
    pub improved: bool,
}

/// Compare two runs per `(level, op)` on mean seconds per invocation;
/// ratios beyond `1 ± threshold` are flagged. Per-invocation means (not
/// totals) keep the comparison valid when cycle counts differ.
pub fn diff_summaries(a: &TraceSummary, b: &TraceSummary, threshold: f64) -> Vec<DiffRow> {
    let mean_of = |s: &TraceSummary| -> BTreeMap<(usize, String), f64> {
        s.rows
            .iter()
            .filter(|r| r.invocations > 0)
            .map(|r| ((r.level, r.op.clone()), r.seconds / r.invocations as f64))
            .collect()
    };
    let (ma, mb) = (mean_of(a), mean_of(b));
    let mut keys: Vec<&(usize, String)> = ma.keys().chain(mb.keys()).collect();
    keys.sort();
    keys.dedup();
    keys.into_iter()
        .map(|k| {
            let (a_mean, b_mean) = (ma.get(k).copied(), mb.get(k).copied());
            let ratio = match (a_mean, b_mean) {
                (Some(x), Some(y)) if x > 0.0 => Some(y / x),
                _ => None,
            };
            DiffRow {
                level: k.0,
                op: k.1.clone(),
                a_mean_s: a_mean,
                b_mean_s: b_mean,
                ratio,
                regressed: ratio.is_some_and(|r| r >= 1.0 + threshold),
                improved: ratio.is_some_and(|r| r <= 1.0 / (1.0 + threshold)),
            }
        })
        .collect()
}

/// Testing/diagnostic utility: return a copy of `trace` in which every
/// compute span named `op` has its duration scaled by `factor`, with all
/// later events on the same rank shifted to keep per-rank timelines
/// serial. Events nested inside a scaled span shift by the accumulated
/// offset at their start, so the transform is only faithful for ops
/// without nested comm (the smoothers and residual kernels) — which is
/// exactly what the `--inject-slowdown` diff check targets.
pub fn scale_op(trace: &Trace, op: &str, factor: f64) -> Trace {
    let ranks = trace.ranks();
    let mut events: Vec<TraceEvent> = Vec::with_capacity(trace.events.len());
    for r in ranks {
        let mut shift: i64 = 0;
        for e in trace.events.iter().filter(|e| e.rank == r) {
            let mut ev = *e;
            ev.ts_ns = (ev.ts_ns as i64 + shift).max(0) as u64;
            if e.track == Track::Compute && e.op.name() == op {
                let new_dur = (e.dur_ns as f64 * factor).round() as u64;
                shift += new_dur as i64 - e.dur_ns as i64;
                ev.dur_ns = new_dur;
            }
            events.push(ev);
        }
    }
    events.sort_by_key(|e| (e.rank, e.ts_ns, e.dur_ns));
    Trace {
        events,
        lost: trace.lost.clone(),
    }
}

// ---------------------------------------------------------------------------
// Top-level analysis + report rendering
// ---------------------------------------------------------------------------

impl Analysis {
    /// Run every analysis over a captured trace. Roofline sections are
    /// produced only when a machine envelope is supplied.
    pub fn from_trace(trace: &Trace, env: Option<&MachineEnvelope>) -> Analysis {
        let summary = TraceSummary::from_trace(trace);
        let (roofline_rows, comm) = match env {
            Some(env) => (roofline(&summary, env), comm_attribution(&summary, env)),
            None => (Vec::new(), None),
        };
        Analysis {
            path: critical_path(trace),
            imbalance: imbalance(trace),
            utilization: utilization(trace),
            outliers: outliers(trace),
            roofline: roofline_rows,
            comm,
            summary,
        }
    }

    /// Render the markdown analysis report. Deterministic: the same
    /// trace yields a byte-identical report.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let s = &self.summary;
        out.push_str("# GMG trace analysis\n\n");
        let _ = writeln!(
            out,
            "- ranks: {}\n- wall time: {:.6} s\n- V-cycles segmented: {}\n- critical-path coverage: {:.1}% of wall time",
            s.nranks,
            s.wall_seconds,
            self.path.cycles.len(),
            self.path.coverage * 100.0
        );
        out.push('\n');

        out.push_str("## Per-level op time fractions (Table II)\n\n");
        out.push_str("| level | op | time/rank (s) | fraction | invocations |\n");
        out.push_str("|---:|---|---:|---:|---:|\n");
        for level in s.levels() {
            for (op, frac) in s.level_fractions(level) {
                let row = s.level_rows(level).find(|r| r.op == op).unwrap();
                let per_rank = if s.nranks > 0 {
                    row.seconds / s.nranks as f64
                } else {
                    row.seconds
                };
                let _ = writeln!(
                    out,
                    "| {} | {} | {:.6} | {:.2}% | {} |",
                    level,
                    op,
                    per_rank,
                    frac * 100.0,
                    row.invocations
                );
            }
        }
        out.push('\n');

        out.push_str("## Critical path\n\n");
        out.push_str("| cycle | span (ms) | coverage | gating ops (top 3) |\n");
        out.push_str("|---:|---:|---:|---|\n");
        for c in &self.path.cycles {
            let mut per_op: BTreeMap<&str, f64> = BTreeMap::new();
            for g in &c.segments {
                *per_op.entry(&g.op).or_insert(0.0) += g.seconds();
            }
            let mut tops: Vec<(&str, f64)> = per_op.into_iter().collect();
            tops.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap().then(a.0.cmp(b.0)));
            let gating = tops
                .iter()
                .take(3)
                .map(|(op, t)| format!("{op} {:.3} ms", t * 1e3))
                .collect::<Vec<_>>()
                .join(", ");
            let _ = writeln!(
                out,
                "| {} | {:.3} | {:.1}% | {} |",
                c.cycle,
                (c.end_ns - c.start_ns) as f64 / 1e6,
                c.coverage * 100.0,
                gating
            );
        }
        out.push('\n');
        out.push_str("Time on the critical path per op:\n\n");
        out.push_str("| op | seconds | share of wall |\n");
        out.push_str("|---|---:|---:|\n");
        let wall = s.wall_seconds.max(f64::MIN_POSITIVE);
        for (op, secs) in &self.path.op_totals {
            let _ = writeln!(
                out,
                "| {} | {:.6} | {:.1}% |",
                op,
                secs,
                secs / wall * 100.0
            );
        }
        out.push('\n');

        out.push_str("## Load imbalance\n\n");
        out.push_str("| level | op | mean/rank (s) | max (s) | factor | slowest rank |\n");
        out.push_str("|---:|---|---:|---:|---:|---:|\n");
        for r in &self.imbalance {
            let _ = writeln!(
                out,
                "| {} | {} | {:.6} | {:.6} | {:.2} | {} |",
                r.level, r.op, r.mean_s, r.max_s, r.factor, r.max_rank
            );
        }
        out.push('\n');

        out.push_str("## Rank utilization\n\n");
        out.push_str("| rank | compute (s) | comm (s) | idle (s) | busy |\n");
        out.push_str("|---:|---:|---:|---:|---:|\n");
        for u in &self.utilization {
            let busy = 1.0 - u.idle_s / s.wall_seconds.max(f64::MIN_POSITIVE);
            let _ = writeln!(
                out,
                "| {} | {:.6} | {:.6} | {:.6} | {:.1}% |",
                u.rank,
                u.compute_s,
                u.comm_s,
                u.idle_s,
                busy.max(0.0) * 100.0
            );
        }
        out.push('\n');

        if !self.roofline.is_empty() || self.comm.is_some() {
            out.push_str("## Roofline attribution\n\n");
            if !self.roofline.is_empty() {
                out.push_str(
                    "| level | op | achieved GB/s | ceiling GB/s | fraction | GStencil/s | classification |\n",
                );
                out.push_str("|---:|---|---:|---:|---:|---:|---|\n");
                for r in &self.roofline {
                    let g = match r.gstencil {
                        Some(g) => format!("{g:.3}"),
                        None => "-".to_string(),
                    };
                    let _ = writeln!(
                        out,
                        "| {} | {} | {:.2} | {:.2} | {:.1}% | {} | {} |",
                        r.level,
                        r.op,
                        r.achieved_gbs,
                        r.ceiling_gbs,
                        r.fraction * 100.0,
                        g,
                        r.bound.name()
                    );
                }
                out.push('\n');
            }
            if let Some(c) = &self.comm {
                let _ = writeln!(
                    out,
                    "Exchange: {:.2} GB/s achieved vs {:.2} GB/s modeled at avg message {:.0} B (n_1/2 = {:.0} B) — {}.",
                    c.achieved_gbs,
                    c.model_gbs,
                    c.avg_msg_bytes,
                    c.n_half_bytes,
                    c.bound.name()
                );
                out.push('\n');
            }
        }

        out.push_str("## Outliers\n\n");
        if self.outliers.is_empty() {
            out.push_str("No straggler spans detected (MAD-based, per (level, op)).\n\n");
        } else {
            out.push_str("| rank | level | op | at (ms) | dur (ms) | median (ms) | robust z |\n");
            out.push_str("|---:|---:|---|---:|---:|---:|---:|\n");
            for o in self.outliers.iter().take(20) {
                let lvl = match o.level {
                    Some(l) => l.to_string(),
                    None => "-".to_string(),
                };
                let _ = writeln!(
                    out,
                    "| {} | {} | {} | {:.3} | {:.3} | {:.3} | {:.1} |",
                    o.rank,
                    lvl,
                    o.op,
                    o.ts_ns as f64 / 1e6,
                    o.dur_ns as f64 / 1e6,
                    o.median_ns as f64 / 1e6,
                    o.score
                );
            }
            if self.outliers.len() > 20 {
                let _ = writeln!(out, "\n({} more not shown)", self.outliers.len() - 20);
            }
            out.push('\n');
        }

        if !s.faults.is_empty() {
            out.push_str("## Fault events\n\n");
            out.push_str("| kind | count |\n|---|---:|\n");
            for (kind, n) in &s.faults {
                let _ = writeln!(out, "| {} | {} |", kind, n);
            }
            out.push('\n');
        }
        out
    }
}

/// Render a diff of two runs as markdown, flagging regressions.
pub fn render_diff(rows: &[DiffRow], threshold: f64) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "# GMG run diff\n\nPer-invocation mean seconds, B vs A; flagged beyond ±{:.0}%.\n",
        threshold * 100.0
    );
    out.push_str("| level | op | A mean (ms) | B mean (ms) | ratio | flag |\n");
    out.push_str("|---:|---|---:|---:|---:|---|\n");
    for r in rows {
        let fmt = |v: Option<f64>| match v {
            Some(x) => format!("{:.4}", x * 1e3),
            None => "-".to_string(),
        };
        let ratio = match r.ratio {
            Some(x) => format!("{x:.3}"),
            None => "-".to_string(),
        };
        let flag = if r.regressed {
            "**REGRESSED**"
        } else if r.improved {
            "improved"
        } else {
            ""
        };
        let _ = writeln!(
            out,
            "| {} | {} | {} | {} | {} | {} |",
            r.level,
            r.op,
            fmt(r.a_mean_s),
            fmt(r.b_mean_s),
            ratio,
            flag
        );
    }
    let n = rows.iter().filter(|r| r.regressed).count();
    let _ = writeln!(
        out,
        "\n{} regression{} detected.",
        n,
        if n == 1 { "" } else { "s" }
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use gmg_trace::{intern, Counters};

    fn ev(
        rank: usize,
        level: usize,
        op: &str,
        track: Track,
        ts_ms: u64,
        dur_ms: u64,
    ) -> TraceEvent {
        TraceEvent {
            rank,
            level,
            op: intern(op),
            track,
            ts_ns: ts_ms * 1_000_000,
            dur_ns: dur_ms * 1_000_000,
            counters: Counters::default(),
            peer: None,
            tag: None,
            seq: None,
        }
    }

    /// `e` as one end of message `seq` with `peer`, under tag 7.
    fn msg(mut e: TraceEvent, peer: usize, seq: u64) -> TraceEvent {
        (e.peer, e.tag, e.seq) = (Some(peer), Some(7), Some(seq));
        e
    }

    fn mk_trace(mut events: Vec<TraceEvent>) -> Trace {
        events.sort_by_key(|e| (e.rank, e.ts_ns, e.dur_ns));
        Trace {
            events,
            ..Trace::default()
        }
    }

    /// Two ranks. Rank 1's smooth is slow (30 ms vs 10 ms); rank 0's
    /// exchange waits on rank 1's send. The path must jump to rank 1.
    fn dependency_trace() -> Trace {
        let send_r1 = msg(ev(1, LEVEL_NONE, "send", Track::Comm, 30, 2), 0, 0);
        let recv_r0 = msg(ev(0, LEVEL_NONE, "recv", Track::Comm, 11, 21), 1, 0);
        mk_trace(vec![
            // rank 0: fast smooth then a long exchange waiting on rank 1
            ev(0, 0, "smooth", Track::Compute, 0, 10),
            ev(0, 0, "exchange", Track::Compute, 10, 23), // ends at 33
            recv_r0,                                      // nested in exchange
            ev(0, 0, "applyOp", Track::Compute, 33, 7),   // ends at 40
            // rank 1: slow smooth, then its send at 30..32
            ev(1, 0, "smooth", Track::Compute, 0, 30),
            send_r1,
            ev(1, 0, "exchange", Track::Compute, 32, 2),
            ev(1, 0, "applyOp", Track::Compute, 34, 5),
        ])
    }

    #[test]
    fn path_follows_send_dependency_across_ranks() {
        let trace = dependency_trace();
        let path = critical_path(&trace);
        assert_eq!(path.cycles.len(), 1);
        let segs = &path.cycles[0].segments;
        // The walk starts at rank 0's applyOp (latest end), crosses the
        // exchange wait to rank 1's send, and lands in rank 1's smooth.
        let on_r1_smooth = segs
            .iter()
            .any(|g| g.rank == 1 && g.op == "smooth" && g.seconds() > 0.025);
        assert!(
            on_r1_smooth,
            "path must charge rank 1's slow smooth: {segs:#?}"
        );
        // Rank 0's fast smooth is NOT on the path.
        assert!(
            !segs.iter().any(|g| g.rank == 0 && g.op == "smooth"),
            "rank 0's smooth is shadowed by rank 1: {segs:#?}"
        );
        // Segments tile the cycle exactly.
        let total: f64 = segs.iter().map(|g| g.seconds()).sum();
        assert!((total - 0.040).abs() < 1e-9, "tiling broken: {total}");
        assert!(
            path.coverage > 0.99,
            "no idle in this trace: {}",
            path.coverage
        );
        // Deterministic: identical reruns give identical paths.
        assert_eq!(path, critical_path(&trace));
    }

    /// The only wait is an allreduce `recv` nested in rank 0's
    /// `residualNorm`, on rank 1's slow smooth: the norm is the op that
    /// waited, and the path crosses to the sender through the message.
    #[test]
    fn a_wait_nested_in_any_op_crosses_to_its_sender() {
        let trace = mk_trace(vec![
            ev(0, 0, "smooth", Track::Compute, 0, 10),
            ev(0, 0, "residualNorm", Track::Compute, 10, 23), // ends at 33
            msg(ev(0, LEVEL_NONE, "recv", Track::Comm, 11, 21), 1, 0),
            ev(0, 0, "applyOp", Track::Compute, 33, 7),
            ev(1, 0, "smooth", Track::Compute, 0, 30),
            ev(1, 0, "residualNorm", Track::Compute, 30, 4),
            msg(ev(1, LEVEL_NONE, "send", Track::Comm, 30, 1), 0, 0),
            ev(1, 0, "applyOp", Track::Compute, 34, 5),
        ]);
        let segs = &critical_path(&trace).cycles[0].segments;
        let on = |rank, op: &str| segs.iter().find(|g| g.rank == rank && g.op == op);
        assert_eq!(on(0, "residualNorm").map(|g| g.start_ns), Some(31_000_000));
        assert!(
            on(1, "smooth").is_some_and(|g| g.seconds() > 0.025),
            "{segs:#?}"
        );
        assert!(on(0, "smooth").is_none(), "{segs:#?}");
    }

    /// Two sends from rank 1 to rank 0 under the same tag; the receive
    /// waited on the *earlier* one (seq 0), not on the latest send that
    /// ends before it. The path must cross into rank 1's prep, not its
    /// slow work.
    #[test]
    fn the_join_follows_the_seq_not_the_latest_same_tag_send() {
        let early_send = msg(ev(1, LEVEL_NONE, "send", Track::Comm, 15, 1), 0, 0);
        let late_send = msg(ev(1, LEVEL_NONE, "send", Track::Comm, 28, 2), 0, 1);
        let recv = msg(ev(0, LEVEL_NONE, "recv", Track::Comm, 11, 21), 1, 0); // ends at 32
        let trace = mk_trace(vec![
            ev(0, 0, "smooth", Track::Compute, 0, 10),
            ev(0, 0, "exchange", Track::Compute, 10, 23), // ends at 33
            recv,
            ev(1, 0, "prep", Track::Compute, 0, 15),
            early_send,
            ev(1, 0, "slowwork", Track::Compute, 17, 11),
            late_send,
        ]);
        let path = critical_path(&trace);
        let on = |op: &str| {
            path.op_totals
                .iter()
                .find(|(o, _)| o == op)
                .map_or(0.0, |(_, s)| *s)
        };
        assert!(on("slowwork") < 0.001, "{:#?}", path.op_totals);
        assert!(on("prep") > 0.004, "{:#?}", path.op_totals);
    }

    /// All of one exchange's receives end on the same nanosecond. Each
    /// joins its own send, so the exchange waits on the latest of them:
    /// rank 1's, whose slow smooth gates the cycle. (A join keyed by the
    /// receiving rank and the receive's end kept one of the two.)
    #[test]
    fn receives_ending_together_each_join_their_own_send() {
        let mut events = vec![
            ev(0, 0, "exchange", Track::Compute, 0, 40),
            ev(1, 0, "smooth", Track::Compute, 0, 30),
            msg(ev(1, LEVEL_NONE, "send", Track::Comm, 30, 1), 0, 0),
            ev(2, 0, "smooth", Track::Compute, 0, 10),
            msg(ev(2, LEVEL_NONE, "send", Track::Comm, 10, 1), 0, 0),
        ];
        for (peer, ts) in [(1, 2), (2, 4)] {
            events.push(msg(
                ev(0, LEVEL_NONE, "recv", Track::Comm, ts, 36 - ts),
                peer,
                0,
            ));
        }
        let trace = mk_trace(events);
        assert_eq!(trace.messages().len(), 2);
        let path = critical_path(&trace);
        let segs = &path.cycles[0].segments;
        assert!(
            segs.iter()
                .any(|g| g.rank == 1 && g.op == "smooth" && g.seconds() > 0.029),
            "{segs:#?}"
        );
        assert!(
            !segs.iter().any(|g| g.rank == 2 && g.op == "smooth"),
            "{segs:#?}"
        );
    }

    /// A trace written before `seq` was recorded joins nothing: every
    /// wait is charged to the waiting rank.
    #[test]
    fn a_trace_without_seq_charges_waits_to_the_waiting_rank() {
        let mut trace = dependency_trace();
        for e in &mut trace.events {
            e.seq = None;
        }
        let path = critical_path(&trace);
        assert!(path.cycles[0]
            .segments
            .iter()
            .all(|g| g.rank == 0 || g.op != "smooth"));
        assert!(path.cycles[0]
            .segments
            .iter()
            .any(|g| g.rank == 0 && g.op == "exchange" && g.seconds() > 0.02));
    }

    #[test]
    fn path_charges_idle_for_unexplained_gaps() {
        let trace = mk_trace(vec![
            ev(0, 0, "smooth", Track::Compute, 0, 10),
            ev(0, 0, "applyOp", Track::Compute, 20, 10),
        ]);
        let path = critical_path(&trace);
        let idle: f64 = path
            .cycles
            .iter()
            .flat_map(|c| &c.segments)
            .filter(|g| g.op == IDLE_OP)
            .map(|g| g.seconds())
            .sum();
        assert!(
            (idle - 0.010).abs() < 1e-9,
            "10 ms gap must be idle: {idle}"
        );
        assert!((path.coverage - 2.0 / 3.0).abs() < 1e-6);
    }

    #[test]
    fn cycle_starts_segment_on_presmooth_runs() {
        // Two V-cycles: smooth, smooth+residual, restriction, coarse,
        // interpolation, post-smooth — then the same again.
        let cyc = |base: u64| {
            vec![
                ev(0, 0, "smooth", Track::Compute, base, 5),
                ev(0, 0, "smooth+residual", Track::Compute, base + 5, 5),
                ev(0, 0, "restriction", Track::Compute, base + 10, 2),
                ev(0, 1, "smooth", Track::Compute, base + 12, 3),
                ev(
                    0,
                    0,
                    "interpolation+increment",
                    Track::Compute,
                    base + 15,
                    2,
                ),
                ev(0, 0, "smooth", Track::Compute, base + 17, 5),
            ]
        };
        let mut events = cyc(0);
        events.extend(cyc(22));
        let trace = mk_trace(events);
        let starts = cycle_starts(&trace);
        // Cycle 2 starts at its first pre-smooth (ts 22 ms), not at the
        // post-smooth of cycle 1 (ts 17 ms) and not at an inter-level op.
        assert_eq!(starts, vec![0, 22_000_000]);
        let path = critical_path(&trace);
        assert_eq!(path.cycles.len(), 2);
    }

    #[test]
    fn cycle_starts_need_no_restriction_span() {
        // The communication-avoiding shape: two fused pre-smooth groups, the
        // second of which restricts, so no `restriction` span — three
        // cycles must still segment at their first pre-smooth group.
        let cyc = |base: u64| {
            vec![
                ev(0, 0, "fusedSmooth", Track::Compute, base, 5),
                ev(0, 0, "fusedSmooth", Track::Compute, base + 5, 5),
                ev(0, 1, "initZero", Track::Compute, base + 10, 1),
                ev(0, 1, "fusedSmooth", Track::Compute, base + 11, 4),
                ev(
                    0,
                    0,
                    "interpolation+increment",
                    Track::Compute,
                    base + 15,
                    2,
                ),
                ev(0, 0, "fusedSmooth", Track::Compute, base + 17, 5),
                ev(0, 0, "fusedSmooth", Track::Compute, base + 22, 5),
                ev(0, 0, "residualNorm", Track::Compute, base + 27, 2),
            ]
        };
        let events: Vec<_> = [0, 30, 60].into_iter().flat_map(cyc).collect();
        let trace = mk_trace(events);
        assert_eq!(cycle_starts(&trace), vec![0, 30_000_000, 60_000_000]);
        assert_eq!(critical_path(&trace).cycles.len(), 3);
    }

    #[test]
    fn imbalance_flags_slow_rank() {
        let trace = mk_trace(vec![
            ev(0, 0, "smooth", Track::Compute, 0, 10),
            ev(1, 0, "smooth", Track::Compute, 0, 30),
        ]);
        let rows = imbalance(&trace);
        assert_eq!(rows.len(), 1);
        let r = &rows[0];
        assert_eq!((r.level, r.op.as_str(), r.max_rank), (0, "smooth", 1));
        assert!((r.factor - 1.5).abs() < 1e-9); // 30 / mean(20)
    }

    #[test]
    fn imbalance_from_seconds_matches_trace_path() {
        let trace = mk_trace(vec![
            ev(0, 0, "smooth", Track::Compute, 0, 10),
            ev(1, 0, "smooth", Track::Compute, 0, 30),
            ev(0, 1, "applyOp", Track::Compute, 40, 4),
        ]);
        let via_trace = imbalance(&trace);
        // `ev` takes milliseconds; mirror the same durations in seconds.
        let rows = vec![
            (0usize, "smooth".to_string(), 0usize, 10e-3),
            (0, "smooth".to_string(), 1, 30e-3),
            (1, "applyOp".to_string(), 0, 4e-3),
        ];
        let via_agg = imbalance_from_seconds(rows, 2);
        assert_eq!(via_trace.len(), via_agg.len());
        for (a, b) in via_trace.iter().zip(&via_agg) {
            assert_eq!((a.level, &a.op, a.max_rank), (b.level, &b.op, b.max_rank));
            assert!((a.mean_s - b.mean_s).abs() < 1e-15);
            assert!((a.factor - b.factor).abs() < 1e-12);
        }
        // Duplicate (level, op, rank) rows accumulate.
        let dup = imbalance_from_seconds(
            vec![
                (0usize, "smooth".to_string(), 1usize, 10e-9),
                (0, "smooth".to_string(), 1, 20e-9),
                (0, "smooth".to_string(), 0, 10e-9),
            ],
            2,
        );
        assert!((dup[0].max_s - 30e-9).abs() < 1e-15);
        assert_eq!(dup[0].max_rank, 1);
    }

    #[test]
    fn utilization_counts_only_toplevel_comm_and_gaps() {
        let mut nested = ev(0, LEVEL_NONE, "recv", Track::Comm, 2, 3);
        nested.peer = Some(1);
        let trace = mk_trace(vec![
            ev(0, 0, "exchange", Track::Compute, 0, 10),
            nested, // inside the exchange: not counted as comm time
            ev(0, LEVEL_NONE, "send", Track::Comm, 10, 5), // top-level
            ev(0, 0, "applyOp", Track::Compute, 25, 5),
            ev(1, 0, "smooth", Track::Compute, 0, 30),
        ]);
        let u = utilization(&trace);
        assert_eq!(u.len(), 2);
        assert!((u[0].compute_s - 0.015).abs() < 1e-9);
        assert!((u[0].comm_s - 0.005).abs() < 1e-9);
        assert!((u[0].idle_s - 0.010).abs() < 1e-9); // 15..25 ms gap
        assert!(u[1].idle_s.abs() < 1e-9);
    }

    #[test]
    fn outliers_flag_injected_stall() {
        let mut events: Vec<TraceEvent> = (0..12)
            .map(|i| ev(0, 0, "smooth", Track::Compute, i * 12, 10))
            .collect();
        // One 8× straggler.
        events.push(ev(1, 0, "smooth", Track::Compute, 0, 80));
        // A uniform population that must NOT be flagged.
        events.extend((0..12).map(|i| ev(1, 0, "applyOp", Track::Compute, 200 + i * 12, 10)));
        let trace = mk_trace(events);
        let out = outliers(&trace);
        assert_eq!(out.len(), 1, "{out:#?}");
        assert_eq!((out[0].rank, out[0].op.as_str()), (1, "smooth"));
        assert_eq!(out[0].median_ns, 10_000_000);
        assert!(out[0].score > 5.0);
    }

    #[test]
    fn mad_outliers_core_flags_straggler_and_respects_min_samples() {
        // A 4-sample population (one per rank, as the live alert engine
        // sees it): three uniform ranks and one 10× straggler.
        let samples = [1.0e6, 1.1e6, 0.9e6, 1.0e7];
        let v = mad_outliers(&samples, 3, 10_000.0);
        assert_eq!(
            v.iter().map(|x| x.flagged).collect::<Vec<_>>(),
            [false, false, false, true]
        );
        assert!(v[3].score > 5.0);
        // Below min_samples nothing flags, whatever the spread.
        assert!(mad_outliers(&samples, 5, 10_000.0)
            .iter()
            .all(|x| !x.flagged));
        // Uniform populations never flag.
        assert!(mad_outliers(&[5.0; 8], 3, 10_000.0)
            .iter()
            .all(|x| !x.flagged));
    }

    fn env() -> MachineEnvelope {
        MachineEnvelope {
            triad_gbs: 20.0,
            launch_alpha_s: 1e-6,
            comm_alpha_s: 1e-6,
            comm_beta_gbs: 10.0,
        }
    }

    #[test]
    fn roofline_classifies_bandwidth_latency_launch() {
        let mut fast = ev(0, 0, "smooth", Track::Compute, 0, 100);
        // 1.5 GB in 0.1 s = 15 GB/s = 75% of the 20 GB/s roof.
        fast.counters.bytes_read = 1_000_000_000;
        fast.counters.bytes_written = 500_000_000;
        fast.counters.stencil_points = 1_000_000;
        let mut tiny = ev(0, 3, "smooth", Track::Compute, 100, 1);
        // 1 ms invocation but trivial bytes → low fraction; 1 ms is
        // > 20 µs launch floor, so latency-bound.
        tiny.counters.bytes_read = 1_000;
        let mut launch = ev(0, 4, "applyOp", Track::Compute, 101, 0);
        launch.dur_ns = 10_000; // 10 µs ≤ 20·launch_alpha
        launch.counters.bytes_read = 1_000;
        let summary = TraceSummary::from_trace(&mk_trace(vec![fast, tiny, launch]));
        let rows = roofline(&summary, &env());
        let by = |level: usize| rows.iter().find(|r| r.level == level).unwrap();
        assert_eq!(by(0).bound, Bound::Bandwidth);
        assert!((by(0).achieved_gbs - 15.0).abs() < 1e-6);
        assert_eq!(by(3).bound, Bound::Latency);
        assert_eq!(by(4).bound, Bound::Launch);
    }

    #[test]
    fn comm_attribution_splits_on_n_half() {
        let mut small = ev(0, LEVEL_NONE, "send", Track::Comm, 0, 1);
        small.counters.messages = 10;
        small.counters.message_bytes = 10_000; // 1 kB avg < n_1/2 = 10 kB
        let s = TraceSummary::from_trace(&mk_trace(vec![small]));
        let c = comm_attribution(&s, &env()).unwrap();
        assert_eq!(c.bound, Bound::Latency);
        assert!((c.n_half_bytes - 10_000.0).abs() < 1e-6);
        assert!(c.model_gbs < env().comm_beta_gbs);
    }

    #[test]
    fn diff_flags_scaled_op_only() {
        let trace = dependency_trace();
        let slowed = scale_op(&trace, "smooth", 1.3);
        let a = TraceSummary::from_trace(&trace);
        let b = TraceSummary::from_trace(&slowed);
        let rows = diff_summaries(&a, &b, 0.15);
        let regressed: Vec<&str> = rows
            .iter()
            .filter(|r| r.regressed)
            .map(|r| r.op.as_str())
            .collect();
        assert_eq!(regressed, vec!["smooth"], "{rows:#?}");
        let smooth = rows.iter().find(|r| r.op == "smooth").unwrap();
        assert!((smooth.ratio.unwrap() - 1.3).abs() < 1e-6);
        // Scaling keeps per-rank serial-track invariants.
        assert!(slowed.track_is_serial(0, Track::Compute));
        assert!(slowed.track_is_serial(1, Track::Compute));
        // No-op scaling is the identity.
        assert_eq!(scale_op(&trace, "smooth", 1.0), trace);
        // And the diff report names the regression.
        let text = render_diff(&rows, 0.15);
        assert!(text.contains("**REGRESSED**"));
        assert!(text.contains("1 regression detected"));
    }

    #[test]
    fn full_analysis_renders_every_section() {
        let analysis = Analysis::from_trace(&dependency_trace(), Some(&env()));
        let text = analysis.render();
        for needle in [
            "# GMG trace analysis",
            "critical-path coverage",
            "Table II",
            "## Critical path",
            "## Load imbalance",
            "## Rank utilization",
            "## Outliers",
        ] {
            assert!(text.contains(needle), "missing {needle:?}");
        }
        // Byte-identical on rerun.
        assert_eq!(
            text,
            Analysis::from_trace(&dependency_trace(), Some(&env())).render()
        );
    }

    #[test]
    fn empty_trace_is_harmless() {
        let a = Analysis::from_trace(&Trace::default(), None);
        assert!(a.path.cycles.is_empty());
        assert!(a.imbalance.is_empty());
        assert!(a.utilization.is_empty());
        assert!(a.outliers.is_empty());
        assert!(!a.render().is_empty());
    }
}
