//! Per-layer probes: public functions of each crate timed directly, one
//! thread, brick dim 8, `SurfaceMajor`. 32³ is cache-resident, 256³
//! streams from DRAM. Every probe warms up once, then takes the median of
//! its timed calls; a call that costs a large share of a second is
//! repeated at least three times, a cheap one up to its target count.

use crate::host;
use crate::metrics::Row;
use crate::stats::{median, Samples};
use crate::workloads::{noop_world_samples, World};
use gmg_brick::{BrickLayout, BrickOrdering, BrickedField};
use gmg_comm::runtime::{exchange_array, RankCtx, RankWorld};
use gmg_comm::{ArrayExchangePlan, BrickExchangePlan, Frame, FrameKind, ProcessWorld, SocketKind};
use gmg_core::level::{interpolation_increment, restriction};
use gmg_core::{ops, Level, PoissonProblem};
use gmg_machine::{microbench, LatencyThroughput};
use gmg_mesh::{Array3, Box3, Decomposition, Point3};
use gmg_stencil::exec_array::apply_star7_array;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

const BRICK: i64 = 8;
const ORDER: BrickOrdering = BrickOrdering::SurfaceMajor;
/// Wall-time share one probe may spend on timed calls before it stops
/// short of its target count (never below [`MIN_CALLS`]).
const PROBE_BUDGET_S: f64 = 0.4;
const MIN_CALLS: usize = 3;
const CALLS: usize = 11;
const COMM_CALLS: usize = 200;

/// Warm up once, then time `f` call by call.
fn time_calls(target: usize, mut f: impl FnMut()) -> Vec<f64> {
    time_calls_in(&mut (), target, |_, warm| warm, |_| f())
}

/// [`time_calls`] over a context `f` needs mutably (a `RankCtx` for
/// collective calls). `agree` turns this caller's warm-up time into the
/// one every participant sizes its loop by.
fn time_calls_in<C>(
    ctx: &mut C,
    target: usize,
    agree: impl FnOnce(&mut C, f64) -> f64,
    mut f: impl FnMut(&mut C),
) -> Vec<f64> {
    let t0 = Instant::now();
    f(ctx);
    let warm = agree(ctx, t0.elapsed().as_secs_f64()).max(1e-9);
    let calls = ((PROBE_BUDGET_S / warm) as usize).clamp(MIN_CALLS, target);
    (0..calls)
        .map(|_| {
            let t0 = Instant::now();
            f(ctx);
            t0.elapsed().as_secs_f64()
        })
        .collect()
}

/// A deterministic, non-constant field value (the kernels' speed does
/// not depend on it; denormals and constants are avoided).
fn fill_value(p: Point3) -> f64 {
    ((p.x * 3 + p.y * 5 + p.z * 7) % 17) as f64 * 0.0625 - 0.5
}

fn single_level(n: i64) -> Level {
    let problem = PoissonProblem::new(n);
    let mut l = Level::new(&problem, Decomposition::single(Box3::cube(n)), 0, 0, BRICK.min(n), ORDER);
    l.x = BrickedField::from_fn(l.layout.clone(), fill_value);
    l.b.fill(0.5);
    l
}

fn gs(points: f64, seconds: f64) -> f64 {
    points / seconds / 1e9
}

fn machine(rows: &mut Vec<Row>) -> f64 {
    // Three 128 MiB arrays: a 384 MiB working set, 1.5x the LLC sysfs
    // reports on the builder's host and far beyond this guest's share of
    // it (the triad rate is flat from 128 MiB up). The 4x-LLC-per-array
    // rule would need 1 GiB arrays, and `measure_triad_gbs` spends 20 s
    // initialising those — more than the rest of a traced run.
    let dram_bytes = (128usize << 20).min((host::mem_available_bytes() / 8) as usize);
    println!("# machine.triad_dram_gbs array_bytes={dram_bytes} llc_bytes={} (best of 3 passes)", host::llc_bytes());
    let dram = microbench::measure_triad_gbs(dram_bytes, 3);
    rows.push(Row::new("machine.triad_dram_gbs", dram, "GB/s", 3));
    println!("# machine.triad_llc_gbs array_bytes={} (best of {CALLS} passes)", 8 << 20);
    rows.push(Row::new("machine.triad_llc_gbs", microbench::measure_triad_gbs(8 << 20, CALLS), "GB/s", CALLS));
    let copy = microbench::fit_copy_curve();
    rows.push(Row::new("machine.copy_alpha_us", copy.alpha_s * 1e6, "us", 8));
    rows.push(Row::new("machine.copy_beta_gbs", copy.beta / 1e9, "GB/s", 8));
    dram
}

/// The kernels of one level size. Returns the applyOp median seconds
/// (for the latency-throughput fit).
fn stencil_at(rows: &mut Vec<Row>, n: i64, full: bool, triad_dram_gbs: f64) -> f64 {
    let mut l = single_level(n);
    let owned = l.owned;
    let points = owned.volume() as f64;
    let t = time_calls(CALLS, || l.apply_op(owned));
    let apply_s = median(&t);
    if !full {
        return apply_s;
    }
    let rate = gs(points, apply_s);
    rows.push(Row::new(&format!("stencil.applyop_brick_gstencil_s_{n}"), rate, "GStencil/s", t.len()));
    if n == 256 {
        // Computed bytes (Table IV convention), not measured traffic.
        let bytes = gmg_core::trace::per_point("applyOp").expect("applyOp is modelled").bytes_per_point();
        rows.push(Row::new("stencil.applyop_brick_roof_frac_256", rate * bytes / triad_dram_gbs, "frac", t.len()));
        let t = time_calls(CALLS, || l.smooth_residual(owned));
        rows.push(Row::new("stencil.smoothres_gstencil_s_256", gs(points, median(&t)), "GStencil/s", t.len()));
    }

    // Four smooths the way the solver schedules them after an exchange:
    // shrinking regions inside the 8-cell ghost margin.
    let margin = l.ghost_cells();
    let gamma = l.gamma;
    let mut stats = Default::default();
    let t = time_calls(CALLS, || stats = l.fused_multi_smooth(owned.grow(margin - 1), 4, gamma, true));
    rows.push(Row::new(
        &format!("stencil.fused4_gstencil_s_{n}"),
        gs(stats.points_updated as f64, median(&t)),
        "GStencil/s",
        t.len(),
    ));
    if n == 256 {
        rows.push(Row::new("stencil.fused4_doubles_per_pt", stats.doubles_per_point(), "count", 1));
    }
    let t = time_calls(CALLS, || {
        for k in 0..4 {
            let region = owned.grow(margin - 1 - k);
            l.apply_op(region);
            l.smooth_residual(region);
        }
    });
    rows.push(Row::new(
        &format!("stencil.sweep4_gstencil_s_{n}"),
        gs(stats.points_updated as f64, median(&t)),
        "GStencil/s",
        t.len(),
    ));
    drop(l);

    let valid = Box3::cube(n);
    let src = Array3::from_fn(valid, 1, fill_value);
    let mut dst = Array3::new(valid, 1);
    let (alpha, beta) = (-6.0 * (n * n) as f64, (n * n) as f64);
    let t = time_calls(CALLS, || apply_star7_array(&mut dst, &src, alpha, beta, valid));
    rows.push(Row::new(
        &format!("stencil.applyop_array_gstencil_s_{n}"),
        gs(points, median(&t)),
        "GStencil/s",
        t.len(),
    ));
    apply_s
}

fn stencil(rows: &mut Vec<Row>, triad_dram_gbs: f64) {
    // The Fig. 5 fit: applyOp time against points over 8³…256³.
    let fit: Vec<(f64, f64)> = [8i64, 16, 32, 64, 128, 256]
        .into_iter()
        .map(|n| ((n * n * n) as f64, stencil_at(rows, n, n == 32 || n == 256, triad_dram_gbs)))
        .collect();
    let lt = LatencyThroughput::fit_time(&fit);
    rows.push(Row::new("stencil.applyop_brick_alpha_us", lt.alpha_s * 1e6, "us", fit.len()));
    rows.push(Row::new("stencil.applyop_brick_beta_gstencil_s", lt.beta / 1e9, "GStencil/s", fit.len()));
}

fn brick(rows: &mut Vec<Row>) {
    let cells = Box3::cube(128);
    let t = time_calls(CALLS, || {
        black_box(BrickLayout::new(cells, BRICK, 1, ORDER));
    });
    rows.push(Row::new("brick.layout_build_ms_128", median(&t) * 1e3, "ms", t.len()));
    let layout = Arc::new(BrickLayout::new(cells, BRICK, 1, ORDER));
    let storage = layout.storage_cells() as f64;
    let t = time_calls(CALLS, || {
        black_box(BrickedField::from_fn(layout.clone(), fill_value));
    });
    rows.push(Row::new("brick.from_fn_mpts_s_128", storage / median(&t) / 1e6, "Mpt/s", t.len()));
    let mut field = BrickedField::from_fn(layout.clone(), fill_value);
    let t = time_calls(CALLS, || field.fill(0.25));
    rows.push(Row::new("brick.fill_gbs_128", storage * 8.0 / median(&t) / 1e9, "GB/s", t.len()));

    let plus_x = Point3::new(1, 0, 0);
    let send = layout.send_slots(plus_x);
    let ghost = layout.ghost_slots(plus_x);
    let face_bytes = (send.len() * layout.brick_volume() * 8) as f64;
    let mut buf = Vec::new();
    let t = time_calls(COMM_CALLS, || field.gather_bricks(&send, &mut buf));
    rows.push(Row::new("brick.gather_gbs_face128", face_bytes / median(&t) / 1e9, "GB/s", t.len()));
    let t = time_calls(COMM_CALLS, || field.scatter_bricks(&ghost, &buf));
    rows.push(Row::new("brick.scatter_gbs_face128", face_bytes / median(&t) / 1e9, "GB/s", t.len()));
    rows.push(Row::new("brick.face_runs_128", BrickLayout::contiguous_runs(&send).len() as f64, "count", 1));
}

fn core(rows: &mut Vec<Row>) -> Result<(), String> {
    let problem = PoissonProblem::new(256);
    let decomp = Decomposition::single(Box3::cube(256));
    let mut fine = Level::new(&problem, decomp.clone(), 0, 0, BRICK, ORDER);
    let mut coarse = Level::new(&problem, decomp.coarsen(2), 0, 1, BRICK, ORDER);
    fine.r = BrickedField::from_fn(fine.layout.clone(), fill_value);
    coarse.x = BrickedField::from_fn(coarse.layout.clone(), fill_value);
    let coarse_points = coarse.owned.volume() as f64;
    let t = time_calls(CALLS, || restriction(&fine, &mut coarse));
    rows.push(Row::new("core.restriction_gstencil_s_256", gs(coarse_points, median(&t)), "GStencil/s", t.len()));
    let t = time_calls(CALLS, || interpolation_increment(&coarse, &mut fine));
    rows.push(Row::new("core.interp_gstencil_s_256", gs(coarse_points, median(&t)), "GStencil/s", t.len()));
    drop((fine, coarse));

    let t = RankWorld::try_run(1, |mut ctx| {
        let mut l = single_level(128);
        let mut tag = 0;
        time_calls(CALLS, || {
            tag += 32;
            black_box(ops::max_norm_residual(&mut ctx, &mut l, tag));
        })
    })
    .map_err(|f| f.to_string())?
    .remove(0);
    rows.push(Row::new("core.residual_check_ms_128", median(&t) * 1e3, "ms", t.len()));
    Ok(())
}

/// The 2-rank comm probes, run by both ranks of a world; rank 0's
/// timings are the ones reported.
pub fn comm_rank(ctx: &mut RankCtx) -> Samples {
    let rank = ctx.rank();
    let peer = 1 - rank;
    let mut out = Samples::default();
    let mut tag = 1000u64;

    for (name, doubles) in [("pingpong_8b", 1usize), ("pingpong_1mib", (1 << 20) / 8)] {
        let t = time_calls_lockstep(ctx, COMM_CALLS, |ctx| {
            tag += 2;
            if rank == 0 {
                ctx.send(peer, tag, vec![1.0; doubles]);
                black_box(ctx.recv(peer, tag + 1));
            } else {
                let m = ctx.recv(peer, tag);
                ctx.send(peer, tag + 1, m);
            }
        });
        out.set(name, t);
    }
    let t = time_calls_lockstep(ctx, COMM_CALLS, |ctx| {
        black_box(ctx.allreduce_max(rank as f64));
    });
    out.set("allreduce", t);

    // One brick per rank: pure latency. 64×128×128 per rank: bandwidth.
    for (name, n, calls) in
        [("exchange_sub8", Point3::new(16, 8, 8), COMM_CALLS), ("exchange_sub64", Point3::splat(128), CALLS)]
    {
        let decomp = Decomposition::new(Box3::from_extent(n), Point3::new(2, 1, 1));
        let problem = PoissonProblem::new(n.x);
        let mut l = Level::new(&problem, decomp, rank, 0, BRICK, ORDER);
        l.x = BrickedField::from_fn(l.layout.clone(), fill_value);
        let t = time_calls_lockstep(ctx, calls, |ctx| {
            tag += 32;
            ops::exchange_x(ctx, &mut l, tag);
        });
        out.set(name, t);
    }
    if ctx.transport_kind() == "thread" {
        let decomp = Decomposition::new(Box3::cube(128), Point3::new(2, 1, 1));
        let mut a = Array3::from_fn(decomp.subdomain(rank), 1, fill_value);
        let t = time_calls_lockstep(ctx, CALLS, |ctx| {
            tag += 32;
            exchange_array(ctx, &decomp, &mut a, 1, tag);
        });
        out.set("array_exchange_sub64", t);
    }
    out
}

/// [`time_calls`] for collective operations: rank 0's warm-up time
/// sizes the loop on every rank, so both ranks make the same calls.
fn time_calls_lockstep(ctx: &mut RankCtx, target: usize, f: impl FnMut(&mut RankCtx)) -> Vec<f64> {
    let agree = |ctx: &mut RankCtx, warm: f64| ctx.allreduce_max(if ctx.rank() == 0 { warm } else { 0.0 });
    time_calls_in(ctx, target, agree, f)
}

fn comm(rows: &mut Vec<Row>) -> Result<(), String> {
    let sub64 = Point3::new(64, 128, 128);
    let brick_bytes = BrickExchangePlan::new(sub64, BRICK, 1, ORDER).total_bytes() as f64;
    let array_bytes = ArrayExchangePlan::new(sub64, 1).total_bytes() as f64;
    for kind in ["thread", "proc"] {
        let rank0 = if kind == "thread" {
            RankWorld::try_run(2, |mut ctx| comm_rank(&mut ctx)).map_err(|f| f.to_string())?.remove(0)
        } else {
            let report = ProcessWorld::new(2, "comm-probe").transport(SocketKind::Uds).run()?;
            Samples::decode(&report.results[0])?
        };
        let us = |name: &str| median(rank0.get(name)) * 1e6;
        let n = |name: &str| rank0.get(name).len();
        rows.push(Row::new(&format!("comm.{kind}.pingpong_us_8b"), us("pingpong_8b"), "us", n("pingpong_8b")));
        // A round trip moves the payload twice.
        rows.push(Row::new(
            &format!("comm.{kind}.pingpong_gbs_1mib"),
            2.0 * (1 << 20) as f64 / median(rank0.get("pingpong_1mib")) / 1e9,
            "GB/s",
            n("pingpong_1mib"),
        ));
        rows.push(Row::new(&format!("comm.{kind}.allreduce_us"), us("allreduce"), "us", n("allreduce")));
        rows.push(Row::new(&format!("comm.{kind}.exchange_us_sub8"), us("exchange_sub8"), "us", n("exchange_sub8")));
        rows.push(Row::new(
            &format!("comm.{kind}.exchange_gbs_sub64"),
            brick_bytes / median(rank0.get("exchange_sub64")) / 1e9,
            "GB/s",
            n("exchange_sub64"),
        ));
        if kind == "thread" {
            rows.push(Row::new(
                "comm.array.exchange_gbs_sub64",
                array_bytes / median(rank0.get("array_exchange_sub64")) / 1e9,
                "GB/s",
                n("array_exchange_sub64"),
            ));
        }
    }

    let frame = Frame {
        kind: FrameKind::Data,
        src: 0,
        dst: 1,
        tag: 7,
        seq: 1,
        epoch: 0,
        frag_index: 0,
        frag_count: 1,
        arq_checksum: 0,
        payload: (0..gmg_comm::frame::MAX_FRAGMENT_DOUBLES).map(|i| i as f64).collect(),
    };
    let payload_bytes = (frame.payload.len() * 8) as f64;
    let t = time_calls(COMM_CALLS, || {
        black_box(frame.encode());
    });
    rows.push(Row::new("comm.frame.encode_gbs", payload_bytes / median(&t) / 1e9, "GB/s", t.len()));
    let wire = frame.encode();
    let t = time_calls(COMM_CALLS, || {
        black_box(Frame::decode(&wire).expect("own frame decodes"));
    });
    rows.push(Row::new("comm.frame.decode_gbs", payload_bytes / median(&t) / 1e9, "GB/s", t.len()));

    let spawn = noop_world_samples(World::Proc, 2, 5)?;
    rows.push(Row::new("comm.proc.spawn_ms", median(&spawn) * 1e3, "ms", spawn.len()));
    Ok(())
}

/// The solver's per-op instrumentation fan-out with nothing listening:
/// two enable checks, a flight-ring record and a profiler phase guard.
fn obs(rows: &mut Vec<Row>) -> Result<(), String> {
    const BATCH: u64 = 100_000;
    let t = RankWorld::try_run(1, |_ctx| {
        time_calls(CALLS, || {
            for i in 0..BATCH {
                black_box(gmg_trace::enabled());
                black_box(gmg_metrics::enabled());
                gmg_flight::record_compute(0, "probe", i, 1, 1);
                let _phase = gmg_prof::phase("probe");
            }
        })
    })
    .map_err(|f| f.to_string())?
    .remove(0);
    rows.push(Row::new("obs.disabled_op_ns", median(&t) / BATCH as f64 * 1e9, "ns", t.len()));
    Ok(())
}

/// Run every probe. Returns the rows in [`crate::metrics::PER_LAYER`]'s
/// probe block.
pub fn run() -> Result<Vec<Row>, String> {
    let mut rows = Vec::new();
    let triad_dram_gbs = machine(&mut rows);
    stencil(&mut rows, triad_dram_gbs);
    brick(&mut rows);
    core(&mut rows)?;
    comm(&mut rows)?;
    obs(&mut rows)?;
    Ok(rows)
}
