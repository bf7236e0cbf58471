//! Per-layer metrics of one traced solve, computed on the rank that ran
//! it from the solver's public `OpTimer` and the captured trace.

use crate::stats::Samples;
use gmg_core::OpTimer;
use gmg_trace::{Trace, TraceSummary, Track};

pub const SMOOTH_OPS: [&str; 4] = ["applyOp", "smooth", "smooth+residual", "fusedSmooth"];
pub const INTERLEVEL_OPS: [&str; 3] = ["restriction", "interpolation+increment", "initZero"];
/// Deepest hierarchy any workload builds (`solve256_r2_thread`).
pub const MAX_LEVELS: usize = 6;
/// The span the harness opens around `solve`; its duration is the wall
/// time every fraction divides by.
pub const SOLVE_SPAN: &str = "harness:solve";

/// Push one sample of every trace-derived metric for this repetition.
/// `solver` is `"core"` or `"hpgmg"`: the crate whose `OpTimer` this is.
pub fn record(out: &mut Samples, solver: &str, timers: &OpTimer, trace: &Trace, vcycles: usize, rank: usize) {
    let wall = trace
        .events
        .iter()
        .find(|e| e.op.name() == SOLVE_SPAN)
        .map(|e| e.dur_ns as f64 / 1e9)
        .expect("traced solve is wrapped in the harness span");
    let cycles = vcycles.max(1) as f64;
    let sum_ops = |ops: &[&str]| -> f64 {
        timers.keys().into_iter().filter(|(_, op)| ops.contains(op)).map(|(l, op)| timers.total(l, op)).sum()
    };
    let all: f64 = timers.keys().into_iter().map(|(l, op)| timers.total(l, op)).sum();
    let smooth = sum_ops(&SMOOTH_OPS);
    let exchange = sum_ops(&["exchange"]);
    out.push(&format!("{solver}.smooth_frac"), smooth / wall);
    out.push(&format!("{solver}.exchange_frac"), exchange / wall);
    if solver == "core" {
        out.push("core.interlevel_frac", sum_ops(&INTERLEVEL_OPS) / wall);
        out.push("core.unattributed_frac", 1.0 - all / wall);
        for l in 0..MAX_LEVELS {
            out.push(&format!("core.level{l}_s"), timers.level_total(l) / cycles);
        }
    } else {
        out.push("hpgmg.level0_frac", timers.level_total(0) / wall);
    }

    // Level-0 smoother throughput from the trace's own counters; the op
    // that carries most of the level-0 smoothing time stands for it
    // (fusedSmooth under the default config, applyOp for the baseline).
    let summary = TraceSummary::from_trace(trace);
    let smoother = SMOOTH_OPS
        .iter()
        .copied()
        .max_by(|a, b| timers.total(0, a).total_cmp(&timers.total(0, b)))
        .expect("non-empty op list");
    out.push("core.smooth_gstencil_s_L0", summary.gstencil_per_s(0, smoother).unwrap_or(0.0));
    out.push("smooth_gbs_L0", summary.achieved_gb_per_s(0, smoother).unwrap_or(0.0));

    let comm: Vec<_> = trace.events.iter().filter(|e| e.rank == rank && e.track == Track::Comm).collect();
    let of = |op: &'static str| comm.iter().filter(move |e| e.op.name() == op);
    let seconds = |op: &'static str| of(op).map(|e| e.dur_ns as f64 / 1e9).sum::<f64>();
    out.push("comm.msgs_per_vcycle", of("send").count() as f64 / cycles);
    out.push("comm.bytes_per_vcycle", of("send").map(|e| e.counters.message_bytes as f64).sum::<f64>() / cycles);
    out.push("comm.wait_frac", seconds("recv") / wall);
    out.push("comm.pack_frac", (seconds("pack") + seconds("unpack")) / wall);
}
