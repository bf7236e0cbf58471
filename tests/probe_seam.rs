//! The instrumentation seam end to end: one `probe` guard per solver op
//! must feed the solver's own `OpTimer`, the span log, the flight ring
//! and the metrics registry the *same* measurement, for the bricked
//! solver and the conventional-array baseline alike, and comm events
//! recorded inside an op must carry that op's level.
//!
//! These tests own their process: the registry is global, so exact counts
//! are only checkable where no unrelated solve records beside them (the
//! tests below serialise on one lock).

use gmg_repro::flight::{self, EventKind, FlightEvent, NO_LEVEL};
use gmg_repro::gmg::timers::OpTimer;
use gmg_repro::hpgmg::HpgmgSolver;
use gmg_repro::metrics::{self, Key, Registry, Snapshot, Value};
use gmg_repro::prelude::*;
use gmg_repro::trace::{self, Trace, Track};
use std::sync::{Mutex, MutexGuard};

fn lock() -> MutexGuard<'static, ()> {
    static L: Mutex<()> = Mutex::new(());
    L.lock().unwrap_or_else(|e| e.into_inner())
}

fn decomp() -> Decomposition {
    Decomposition::new(Box3::cube(16), Point3::new(2, 1, 1))
}

/// What one rank saw: its timer table and its flight ring.
type RankView = (OpTimer, Vec<FlightEvent>);

/// Run `solve` on two ranks with a capture, the registry and the flight
/// recorder all listening; return each rank's view, the trace and what
/// the registry grew by.
fn observed(solve: impl Fn(&mut RankCtx) -> OpTimer + Sync) -> (Vec<RankView>, Trace, Snapshot) {
    let before = Registry::global().snapshot();
    let was_on = flight::set_enabled(true);
    metrics::enable();
    let (views, trace) = trace::capture(|| {
        RankWorld::run(2, |mut ctx| {
            let timers = solve(&mut ctx);
            let (world, rank) = flight::installed().expect("the world installs a ring");
            (timers, world.ring(rank).snapshot())
        })
    });
    metrics::disable();
    flight::set_enabled(was_on);
    let delta = Registry::global().snapshot().delta_since(&before);
    (views, trace, delta)
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
/// times in every sink, and the span log and the ring agree on each
/// op's `(ts_ns, dur_ns)` to the nanosecond.
fn assert_one_measurement_everywhere(views: &[RankView], trace: &Trace, delta: &Snapshot) {
    for (rank, (timers, ring)) in views.iter().enumerate() {
        assert!(!timers.keys().is_empty());
        let spans = trace.track_events(rank, Track::Compute);
        let computes: Vec<_> = ring
            .iter()
            .filter(|e| e.kind == EventKind::Compute)
            .collect();
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
            match delta.get("solver_op_ns", &Key::new(rank, Some(level), op)) {
                Some(Value::Histogram(h)) => {
                    assert_eq!(h.count() as usize, n, "registry: level {level} {op}")
                }
                other => panic!("rank {rank} level {level} {op}: no solver_op_ns row ({other:?})"),
            }
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
            "rank {rank}: span log vs ring timings"
        );
    }
}

#[test]
fn bricked_solver_feeds_every_sink_one_measurement() {
    let _l = lock();
    let (views, trace, delta) = observed(bricked);
    assert_one_measurement_everywhere(&views, &trace, &delta);
}

#[test]
fn baseline_solver_feeds_every_sink_one_measurement() {
    let _l = lock();
    let (views, trace, delta) = observed(baseline);
    assert_one_measurement_everywhere(&views, &trace, &delta);
}

#[test]
fn comm_events_inside_an_op_inherit_its_level() {
    let _l = lock();
    let (views, trace, _) = observed(bricked);
    for (rank, (_, ring)) in views.iter().enumerate() {
        // Every message event lies inside exactly one solver op (an
        // exchange, or the convergence check's exchange + reduction) and
        // carries that op's level; the ring and the span log agree.
        let ops: Vec<_> = ring
            .iter()
            .filter(|e| e.kind == EventKind::Compute)
            .collect();
        let comm = |e: &&FlightEvent| {
            matches!(
                e.kind,
                EventKind::Send | EventKind::RecvWait | EventKind::MsgArrive
            )
        };
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
            let waits = |e: &FlightEvent| e.kind == EventKind::RecvWait && e.level == level;
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
        let ring_levels = |kind: EventKind| -> Vec<usize> {
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
        assert_eq!(span_levels("send"), ring_levels(EventKind::Send));
        assert_eq!(span_levels("recv"), ring_levels(EventKind::RecvWait));
    }
}
