//! Figure 6: exchange bandwidth (GB/s) per V-cycle level against the
//! latency-throughput model, single NIC per rank.

use gmg_comm::plan::message_bytes;
use gmg_machine::gpu::System;
use gmg_mesh::Point3;
use gmg_scale::Platform;
use gmg_trace::{json, Json};

/// One system's exchange series over the V-cycle levels.
pub struct ExchangeSeries {
    pub system: System,
    /// `(total message bytes, GB/s)` per level, finest first.
    pub samples: Vec<(usize, f64)>,
    /// Model-equivalent α (s) and β (GB/s) for a 26-message exchange.
    pub alpha_s: f64,
    pub beta_gbs: f64,
}

/// Build one system's series (512³ per rank, brick ghost exchange at each
/// level, brick dim from the machine model).
pub fn series(system: System) -> ExchangeSeries {
    let net = Platform::paper(system).net;
    let bd = system.gpu().optimal_brick_dim;
    let samples = (0..6)
        .map(|l| {
            let n = 512i64 >> l;
            let bytes = message_bytes(Point3::splat(n), bd.min(n));
            (bytes.iter().sum(), net.exchange_gbs(&bytes))
        })
        .collect();
    let (alpha_s, beta_gbs) = net.effective_alpha_beta(26);
    ExchangeSeries {
        system,
        samples,
        alpha_s,
        beta_gbs,
    }
}

/// Run the harness.
pub fn run() -> Json {
    crate::report::heading("Figure 6 — exchange GB/s vs total message size (single NIC)");
    println!(
        "{:<12} {:>12} {:>12} {:>12} {:>12} {:>12} {:>12} {:>11} {:>9}",
        "system", "L0", "L1", "L2", "L3", "L4", "L5", "alpha", "beta"
    );
    let mut out = Vec::new();
    for sys in System::ALL {
        let s = series(sys);
        print!("{:<12}", format!("{:?}", s.system));
        for (_, gbs) in &s.samples {
            print!(" {gbs:>12.2}");
        }
        println!("  {:>8.0} µs {:>6.1} GB/s", s.alpha_s * 1e6, s.beta_gbs);
        out.push(json!({
            "system": format!("{:?}", s.system),
            "total_bytes": s.samples.iter().map(|(b, _)| b).collect::<Vec<_>>(),
            "gbs": s.samples.iter().map(|(_, g)| g).collect::<Vec<_>>(),
            "alpha_us": s.alpha_s * 1e6,
            "beta_gbs": s.beta_gbs,
            "nic_peak_gbs": 25.0,
        }));
    }
    println!("\ntheoretical NIC ceiling: 25 GB/s (Slingshot 11)");
    let plot_series: Vec<crate::plot::Series> = System::ALL
        .iter()
        .zip(['P', 'F', 'S'])
        .map(|(&sys, glyph)| {
            let s = series(sys);
            crate::plot::Series::new(
                format!("{sys:?}"),
                glyph,
                s.samples.iter().map(|&(b, g)| (b as f64, g)).collect(),
            )
        })
        .collect();
    println!(
        "\n{}",
        crate::plot::loglog("exchange GB/s vs total message bytes", &plot_series, 60, 12)
    );
    json!({ "series": out })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frontier_best_sunspot_worst() {
        let f = series(System::Frontier);
        let p = series(System::Perlmutter);
        let s = series(System::Sunspot);
        // Paper: Frontier ~16 GB/s best, Perlmutter close behind, Sunspot
        // behind (no GPU-aware MPI); peak bandwidths 7–16 GB/s.
        assert!(f.samples[0].1 > p.samples[0].1);
        assert!(p.samples[0].1 > s.samples[0].1);
        assert!(f.beta_gbs <= 16.5 && f.beta_gbs > 14.0);
        assert!((6.0..15.0).contains(&s.beta_gbs));
        assert!((6.0..15.0).contains(&p.beta_gbs));
    }

    #[test]
    fn latency_dominates_below_one_megabyte() {
        // Paper: latency dominates for total message size < 1 MB.
        for sys in System::ALL {
            let s = series(sys);
            for &(bytes, gbs) in &s.samples {
                if bytes < 1 << 20 {
                    assert!(
                        gbs < 0.5 * s.beta_gbs,
                        "{sys:?}: {bytes}B at {gbs:.1} GB/s should be latency-bound"
                    );
                }
            }
        }
    }

    #[test]
    fn all_below_nic_peak() {
        for sys in System::ALL {
            for (_, gbs) in series(sys).samples {
                assert!(gbs < 25.0);
            }
        }
    }
}
