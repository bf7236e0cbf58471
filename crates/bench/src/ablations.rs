//! Ablation studies for the design choices called out in the paper's
//! Section V (and its discussion-section proposals):
//!
//! 1. communication-avoiding smoothing on/off,
//! 2. GPU-aware MPI vs host staging,
//! 3. the `FI_CXI_RDZV_*` rendezvous-threshold settings,
//! 4. brick size (4³ vs 8³ vs 16³ ghost depth trade-off),
//! 5. surface-major vs lexicographic brick ordering (pack-free property),
//! 6. CPU offload of latency-bound coarse levels (future-work remedy).

use gmg_brick::{BrickLayout, BrickOrdering};
use gmg_comm::model::NetworkModel;
use gmg_comm::plan::message_bytes;
use gmg_machine::gpu::System;
use gmg_mesh::ghost::DIRECTIONS_26;
use gmg_mesh::Point3;
use gmg_scale::vcycle::{simulate, ScheduleConfig};
use gmg_trace::{json, Json};

/// Ablation 1: CA on/off — total and coarsest-level time per system.
pub fn communication_avoiding() -> Json {
    let mut rows = Vec::new();
    for sys in System::ALL {
        let on = simulate(&ScheduleConfig::paper_section6(sys));
        let mut cfg = ScheduleConfig::paper_section6(sys);
        cfg.communication_avoiding = false;
        let off = simulate(&cfg);
        let last = on.levels.len() - 1;
        rows.push(json!({
            "system": format!("{sys:?}"),
            "total_on_s": on.total_seconds,
            "total_off_s": off.total_seconds,
            "coarsest_on_s": on.levels[last].total_seconds,
            "coarsest_off_s": off.levels[last].total_seconds,
            "exchanges_on": on.levels.iter().map(|l| l.exchanges).sum::<usize>(),
            "exchanges_off": off.levels.iter().map(|l| l.exchanges).sum::<usize>(),
        }));
    }
    json!({ "rows": rows })
}

/// Ablation 2: GPU-aware MPI vs host staging, per system.
pub fn gpu_aware() -> Json {
    let mut rows = Vec::new();
    for sys in System::ALL {
        let mut on = ScheduleConfig::paper_section6(sys);
        on.gpu_aware_override = Some(true);
        let mut off = on.clone();
        off.gpu_aware_override = Some(false);
        rows.push(json!({
            "system": format!("{sys:?}"),
            "gpu_aware_s": simulate(&on).total_seconds,
            "host_staged_s": simulate(&off).total_seconds,
        }));
    }
    json!({ "rows": rows })
}

/// Ablation 3: rendezvous threshold sweep — coarse-level exchange time on
/// Frontier (where the paper observed the CXI settings matter most).
pub fn rendezvous_threshold() -> Json {
    let bytes = message_bytes(Point3::splat(32), 8);
    let mut rows = Vec::new();
    for threshold in [0usize, 4 << 10, 16 << 10, 64 << 10, usize::MAX] {
        let net = NetworkModel::frontier().with_rendezvous_threshold(threshold);
        rows.push(json!({
            "threshold": if threshold == usize::MAX { -1i64 } else { threshold as i64 },
            "exchange_us": net.exchange_time_s(&bytes) * 1e6,
        }));
    }
    json!({ "level_extent": 32, "rows": rows })
}

/// Ablation 4: brick size — ghost depth vs redundant work vs message size.
pub fn brick_size() -> Json {
    let mut rows = Vec::new();
    for bd in [4i64, 8, 16] {
        // The trade-off is purely geometric (message bytes, exchange
        // frequency, redundant ghost work), so it is derived from the
        // message sizes directly rather than a full schedule run.
        let bytes_per_exchange: usize = message_bytes(Point3::splat(512), bd).iter().sum();
        let exchanges_per_24_smooths = (24 + bd - 1) / bd;
        // Mean of ((512 + 2(m-1))³/512³ − 1) over margins m = bd..1.
        let mut acc = 0.0;
        for m in 1..=bd {
            let g = 512.0 + 2.0 * (m as f64 - 1.0);
            acc += (g / 512.0).powi(3) - 1.0;
        }
        let redundant_compute_fraction = acc / bd as f64;
        rows.push(json!({
            "brick_dim": bd,
            "ghost_cells": bd,
            "bytes_per_exchange": bytes_per_exchange,
            "exchanges_per_24_smooths": exchanges_per_24_smooths,
            "bytes_per_24_smooths": bytes_per_exchange as i64 * exchanges_per_24_smooths,
            "redundant_compute_fraction": redundant_compute_fraction,
        }));
    }
    json!({ "rows": rows })
}

/// Ablation 5: ordering — contiguous-run counts for a full 26-neighbor
/// exchange (the pack-free figure of merit).
pub fn ordering_runs() -> Json {
    let mut rows = Vec::new();
    for (name, ord) in [
        ("surface-major", BrickOrdering::SurfaceMajor),
        ("lexicographic", BrickOrdering::Lexicographic),
    ] {
        let layout = BrickLayout::new(gmg_mesh::Box3::cube(64), 8, 1, ord);
        let send: usize = DIRECTIONS_26
            .iter()
            .map(|&d| BrickLayout::contiguous_runs(&layout.send_slots(d)).len())
            .sum();
        let recv: usize = DIRECTIONS_26
            .iter()
            .map(|&d| BrickLayout::contiguous_runs(&layout.ghost_slots(d)).len())
            .sum();
        rows.push(json!({
            "ordering": name,
            "send_runs": send,
            "recv_runs": recv,
            "total_runs": send + recv,
        }));
    }
    json!({ "rows": rows })
}

/// Ablation 6: CPU offload of coarse levels in the strong-scaling tail.
pub fn cpu_offload() -> Json {
    let mk = |offload: Option<usize>| {
        let mut c = ScheduleConfig::paper_section6(System::Perlmutter);
        c.nodes = 128;
        c.ranks_per_node = 4;
        c.sub_extent = Point3::splat(128);
        c.num_levels = 5;
        c.cpu_offload_below_cells = offload;
        simulate(&c)
    };
    let plain = mk(None);
    let offloaded = mk(Some(32 * 32 * 32));
    json!({
        "config": "strong-scaling tail: 512 ranks, 128^3/rank, offload levels <= 32^3",
        "gpu_only_s": plain.total_seconds,
        "cpu_offload_s": offloaded.total_seconds,
        "speedup": plain.total_seconds / offloaded.total_seconds,
        "coarse_level_seconds_gpu": plain.levels.iter().skip(2).map(|l| l.total_seconds).sum::<f64>(),
        "coarse_level_seconds_offload": offloaded.levels.iter().skip(2).map(|l| l.total_seconds).sum::<f64>(),
    })
}

/// Run every ablation, print a condensed report, return the JSON bundle.
pub fn run() -> Json {
    crate::report::heading("Ablations — Section V optimizations, one at a time");
    let ca = communication_avoiding();
    println!("\n1. communication-avoiding (total seconds on/off, exchange counts):");
    for r in ca["rows"].as_arr().unwrap() {
        println!(
            "   {:<12} {:>8.2}s -> {:>8.2}s without CA   (exchanges {} -> {})",
            r["system"].as_str().unwrap(),
            r["total_on_s"].as_f64().unwrap(),
            r["total_off_s"].as_f64().unwrap(),
            r["exchanges_on"],
            r["exchanges_off"],
        );
    }
    let ga = gpu_aware();
    println!("\n2. GPU-aware MPI vs host staging (total seconds):");
    for r in ga["rows"].as_arr().unwrap() {
        println!(
            "   {:<12} aware {:>8.2}s   staged {:>8.2}s",
            r["system"].as_str().unwrap(),
            r["gpu_aware_s"].as_f64().unwrap(),
            r["host_staged_s"].as_f64().unwrap(),
        );
    }
    let rz = rendezvous_threshold();
    println!("\n3. rendezvous threshold (Frontier, 32^3-level exchange):");
    for r in rz["rows"].as_arr().unwrap() {
        println!(
            "   threshold {:>8}: {:>8.1} µs",
            r["threshold"],
            r["exchange_us"].as_f64().unwrap()
        );
    }
    let bs = brick_size();
    println!("\n4. brick size (512^3 level, 24 smooths):");
    for r in bs["rows"].as_arr().unwrap() {
        println!(
            "   {}³: {:>6.1} MB/exchange × {} exchanges, redundant compute {:>4.1}%",
            r["brick_dim"],
            r["bytes_per_exchange"].as_f64().unwrap() / 1e6,
            r["exchanges_per_24_smooths"],
            r["redundant_compute_fraction"].as_f64().unwrap() * 100.0
        );
    }
    let runs = ordering_runs();
    println!("\n5. ordering (26-neighbor exchange, 64^3 of 8^3 bricks):");
    for r in runs["rows"].as_arr().unwrap() {
        println!(
            "   {:<14} send {:>4} + recv {:>3} = {:>4} contiguous runs",
            r["ordering"].as_str().unwrap(),
            r["send_runs"],
            r["recv_runs"],
            r["total_runs"]
        );
    }
    let off = cpu_offload();
    println!(
        "\n6. CPU offload of coarse levels (strong-scaling tail): {:.3}s -> {:.3}s ({:.2}x)",
        off["gpu_only_s"].as_f64().unwrap(),
        off["cpu_offload_s"].as_f64().unwrap(),
        off["speedup"].as_f64().unwrap()
    );
    json!({
        "communication_avoiding": ca,
        "gpu_aware": ga,
        "rendezvous_threshold": rz,
        "brick_size": bs,
        "ordering_runs": runs,
        "cpu_offload": off,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ca_always_wins_overall() {
        let v = communication_avoiding();
        for r in v["rows"].as_arr().unwrap() {
            assert!(r["total_on_s"].as_f64().unwrap() < r["total_off_s"].as_f64().unwrap());
            assert!(r["exchanges_on"].as_u64().unwrap() < r["exchanges_off"].as_u64().unwrap());
        }
    }

    #[test]
    fn gpu_aware_always_wins() {
        let v = gpu_aware();
        for r in v["rows"].as_arr().unwrap() {
            assert!(r["gpu_aware_s"].as_f64().unwrap() < r["host_staged_s"].as_f64().unwrap());
        }
    }

    #[test]
    fn forced_rendezvous_fastest_for_small_messages() {
        let v = rendezvous_threshold();
        let rows = v["rows"].as_arr().unwrap();
        let t0 = rows[0]["exchange_us"].as_f64().unwrap(); // threshold 0
        let teager = rows.last().unwrap()["exchange_us"].as_f64().unwrap(); // all eager
        assert!(t0 < teager, "forced rendezvous {t0} vs all-eager {teager}");
    }

    #[test]
    fn bigger_bricks_fewer_exchanges_more_redundancy() {
        let v = brick_size();
        let rows = v["rows"].as_arr().unwrap();
        let ex: Vec<u64> = rows
            .iter()
            .map(|r| r["exchanges_per_24_smooths"].as_u64().unwrap())
            .collect();
        assert!(ex[0] > ex[1] && ex[1] > ex[2]);
        let red: Vec<f64> = rows
            .iter()
            .map(|r| r["redundant_compute_fraction"].as_f64().unwrap())
            .collect();
        assert!(red[0] < red[1] && red[1] < red[2]);
    }

    #[test]
    fn surface_major_is_pack_free() {
        let v = ordering_runs();
        let rows = v["rows"].as_arr().unwrap();
        assert_eq!(rows[0]["recv_runs"].as_u64().unwrap(), 26);
        assert!(
            rows[1]["total_runs"].as_u64().unwrap() > 3 * rows[0]["total_runs"].as_u64().unwrap()
        );
    }

    #[test]
    fn cpu_offload_speedup_above_one() {
        let v = cpu_offload();
        assert!(v["speedup"].as_f64().unwrap() > 1.0);
    }
}
