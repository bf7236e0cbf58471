//! The instrumentation seam end to end: one `probe` guard per solver op
//! must feed the solver's own `OpTimer`, the flight ring and the capture
//! read from it the *same* measurement, for the bricked solver and the
//! conventional-array baseline alike, and comm events recorded inside an
//! op must carry that op's level.

use gmg_repro::flight::{self, FlightEvent, Kind, NO_LEVEL};
use gmg_repro::gmg::timers::OpTimer;
use gmg_repro::hpgmg::HpgmgSolver;
use gmg_repro::prelude::*;
use gmg_repro::trace::{self, Trace, TraceSummary, Track};

fn decomp() -> Decomposition {
    Decomposition::new(Box3::cube(16), Point3::new(2, 1, 1))
}

/// What one rank saw: its timer table and its flight ring.
type RankView = (OpTimer, Vec<FlightEvent>);

/// Run `solve` on two ranks with a capture and the flight recorder
/// both listening; return each rank's view and the trace.
fn observed(solve: impl Fn(&mut RankCtx) -> OpTimer + Sync) -> (Vec<RankView>, Trace) {
    trace::capture(|| {
        RankWorld::run(2, |mut ctx| {
            let timers = solve(&mut ctx);
            let (world, rank) = flight::installed().expect("the world installs a ring");
            (timers, world.ring(rank).snapshot())
        })
    })
}

fn bricked(ctx: &mut RankCtx) -> OpTimer {
    let cfg = SolverConfig {
        num_levels: 2,
        max_vcycles: 2,
        tolerance: 0.0,
        ..SolverConfig::test_default()
    };
    let mut s = GmgSolver::new(decomp(), ctx.rank(), cfg);
    s.solve(ctx);
    s.timers
}

fn baseline(ctx: &mut RankCtx) -> OpTimer {
    let mut s = HpgmgSolver::new(decomp(), ctx.rank(), 2, 4, 10, 0.0, 2);
    s.solve(ctx);
    s.timers
}

/// Every `(level, op)` the timer table holds appears the same number of
/// times in the ring and in the capture, and the two agree on each
/// op's `(ts_ns, dur_ns)` to the nanosecond.
fn assert_one_measurement_everywhere(views: &[RankView], trace: &Trace) {
    for (rank, (timers, ring)) in views.iter().enumerate() {
        assert!(!timers.keys().is_empty());
        let spans = trace.track_events(rank, Track::Compute);
        let computes: Vec<_> = ring.iter().filter(|e| e.kind == Kind::Compute).collect();
        assert_eq!(
            spans.len(),
            computes.len(),
            "rank {rank}: ops in trace vs ring"
        );
        for (level, op) in timers.keys() {
            let n = timers.count(level, op);
            let in_trace = |e: &&&trace::TraceEvent| e.level == level && e.op.name() == op;
            let in_ring = |e: &&&FlightEvent| e.level as usize == level && e.op == op;
            assert_eq!(
                spans.iter().filter(in_trace).count(),
                n,
                "trace: level {level} {op}"
            );
            assert_eq!(
                computes.iter().filter(in_ring).count(),
                n,
                "ring: level {level} {op}"
            );
        }
        let mut from_trace: Vec<_> = spans
            .iter()
            .map(|e| (e.ts_ns, e.dur_ns, e.level, e.op.name()))
            .collect();
        let mut from_ring: Vec<_> = computes
            .iter()
            .map(|e| (e.ts_ns, e.dur_ns, e.level as usize, e.op))
            .collect();
        from_trace.sort_unstable();
        from_ring.sort_unstable();
        assert_eq!(
            from_trace, from_ring,
            "rank {rank}: capture vs ring timings"
        );
    }
}

#[test]
fn bricked_solver_feeds_every_sink_one_measurement() {
    let (views, trace) = observed(bricked);
    assert_one_measurement_everywhere(&views, &trace);
}

#[test]
fn baseline_solver_feeds_every_sink_one_measurement() {
    let (views, trace) = observed(baseline);
    assert_one_measurement_everywhere(&views, &trace);
}

#[test]
fn comm_events_inside_an_op_inherit_its_level() {
    let (views, trace) = observed(bricked);
    for (rank, (_, ring)) in views.iter().enumerate() {
        // Every message event lies inside exactly one solver op (an
        // exchange, or the convergence check's exchange + reduction) and
        // carries that op's level; the ring and the capture agree.
        let ops: Vec<_> = ring.iter().filter(|e| e.kind == Kind::Compute).collect();
        let comm = |e: &&FlightEvent| matches!(e.kind, Kind::Send | Kind::RecvWait | Kind::Arrive);
        let mut inside = 0;
        for e in ring.iter().filter(comm) {
            match ops
                .iter()
                .find(|op| op.ts_ns <= e.ts_ns && e.ts_ns <= op.end_ns())
            {
                Some(op) => {
                    assert_eq!(e.level, op.level, "rank {rank}: {} inside {}", e.op, op.op);
                    assert!(matches!(op.op, "exchange" | "residualNorm"), "{}", op.op);
                    inside += 1;
                }
                None => assert_eq!(e.level, NO_LEVEL, "rank {rank}: {} outside any op", e.op),
            }
        }
        assert!(inside > 0, "rank {rank}: no message inside an op");
        for level in [0u32, 1] {
            let waits = |e: &FlightEvent| e.kind == Kind::RecvWait && e.level == level;
            assert!(ring.iter().any(waits), "rank {rank}: no level-{level} wait");
        }
        let span_levels = |op: &str| -> Vec<usize> {
            let mut v: Vec<_> = trace
                .track_events(rank, Track::Comm)
                .iter()
                .filter(|e| e.op.name() == op)
                .map(|e| e.level)
                .collect();
            v.sort_unstable();
            v
        };
        let ring_levels = |kind: Kind| -> Vec<usize> {
            let mut v: Vec<_> = ring
                .iter()
                .filter(|e| e.kind == kind)
                .map(|e| {
                    if e.level == NO_LEVEL {
                        trace::LEVEL_NONE
                    } else {
                        e.level as usize
                    }
                })
                .collect();
            v.sort_unstable();
            v
        };
        assert_eq!(span_levels("send"), ring_levels(Kind::Send));
        assert_eq!(span_levels("recv"), ring_levels(Kind::RecvWait));
    }
}

/// A message counts once in the comm totals, on its send: as many
/// messages as the rings posted, and exactly their payload bytes.
#[test]
fn the_comm_totals_count_each_message_once() {
    let (views, trace) = observed(bricked);
    let posted = views.iter().flat_map(|(_, ring)| ring);
    let (n, bytes) = posted
        .filter(|e| e.kind == Kind::Send)
        .fold((0, 0), |(n, b), e| (n + 1, b + e.bytes));
    let sends = trace.events.iter().filter(|e| e.op.name() == "send");
    assert!(n > 0);
    assert_eq!(sends.count() as u64, n);
    let comm = TraceSummary::from_trace(&trace).comm;
    assert_eq!((comm.messages, comm.message_bytes), (n, bytes));
}

/// A capture and a flight dump of the same run read one store through
/// one conversion: the same `Trace`, event for event.
#[test]
fn a_capture_and_a_dump_of_one_run_give_the_same_trace() {
    let (worlds, captured) = trace::capture(|| {
        RankWorld::run(2, |mut ctx| {
            bricked(&mut ctx);
            flight::installed().expect("the world installs a ring").0
        })
    });
    let dir = std::env::temp_dir().join(format!("gmg_capture_vs_dump_{}", std::process::id()));
    flight::dump_world_to(&dir, &worlds[0], "test", "capture vs dump").unwrap();
    let dumped = flight::rebuild_trace(&flight::load_dump(&dir).unwrap().logs);
    let _ = std::fs::remove_dir_all(&dir);
    assert!(captured.lost.is_empty());
    assert_eq!(captured.events.len(), dumped.events.len());
    for (c, d) in captured.events.iter().zip(&dumped.events) {
        assert_eq!(c, d);
    }
    assert_eq!(captured, dumped);
}
