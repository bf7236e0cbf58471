//! End-to-end checks that the reproduction reproduces the *shape* of every
//! headline result in the paper — the cross-crate contract the harnesses
//! rely on. (Per-figure detail checks live in the harness modules.)

use gmg_bench as bench;
use gmg_repro::prelude::*;

#[test]
fn headline_portability_73_and_92_percent() {
    let t3 = bench::table3::table();
    let t5 = bench::table5::table();
    assert!((t3.overall_phi - 0.73).abs() < 0.02);
    assert!((t5.overall_phi - 0.92).abs() < 0.02);
}

#[test]
fn headline_hpgmg_speedups() {
    let bars = bench::figure4::bars();
    assert!((bars[0].speedup - 1.58).abs() < 0.15);
    assert!((bars[1].speedup - 1.46).abs() < 0.15);
}

#[test]
fn headline_weak_scaling_efficiency() {
    for sys in System::ALL {
        let c = bench::figure8::curve(sys);
        let last = c.points.last().unwrap();
        assert!(last.3 >= 0.87, "{sys:?}: {:.3}", last.3);
    }
}

#[test]
fn figure3_level_scaling_near_4x_where_comm_bound() {
    // Paper: "good scaling between levels, closer to 4×, which is the
    // ratio of the surface size between levels since communication
    // dominates over computation" — the mid-hierarchy ratios must sit
    // between the 8× volume ratio (compute-bound) and ~1× (pure latency).
    for r in bench::figure3::simulate_all() {
        for l in 1..4 {
            let ratio = r.levels[l].total_seconds / r.levels[l + 1].total_seconds;
            assert!(
                (1.2..8.5).contains(&ratio),
                "{:?} level {l}->{}: {ratio:.2}",
                r.system,
                l + 1
            );
        }
    }
}

#[test]
fn table4_exact_values() {
    for (op, ai, paper) in bench::table4::rows() {
        assert!((ai - paper).abs() < 0.006, "{}: {ai}", op.name());
    }
}

#[test]
fn exchange_alpha_beta_within_paper_bands() {
    // Figure 6: α in 25–200 µs, β in 7–16 GB/s, Frontier best.
    let f = bench::figure6::series(System::Frontier);
    let p = bench::figure6::series(System::Perlmutter);
    let s = bench::figure6::series(System::Sunspot);
    for e in [&f, &p, &s] {
        assert!((15e-6..=230e-6).contains(&e.alpha_s), "{:?}", e.system);
        assert!((6.0..=16.5).contains(&e.beta_gbs), "{:?}", e.system);
    }
    assert!(f.alpha_s < p.alpha_s && p.alpha_s < s.alpha_s);
    assert!(f.beta_gbs > p.beta_gbs && p.beta_gbs > s.beta_gbs);
}

#[test]
fn kernel_latency_band_5_to_20_us() {
    use gmg_repro::machine::timing::KernelTiming;
    use gmg_repro::stencil::OpKind;
    let alphas: Vec<f64> = System::ALL
        .iter()
        .map(|s| KernelTiming::latency_model(&s.gpu(), OpKind::ApplyOp).alpha_s)
        .collect();
    assert!(alphas.iter().all(|a| (4.9e-6..=20.1e-6).contains(a)));
    // NVIDIA lowest overhead (paper headline).
    assert!(alphas[0] < alphas[1] && alphas[1] < alphas[2]);
}

#[test]
fn communication_overhead_dwarfs_kernel_launch() {
    // Discussion section: "communication overheads being close to ten
    // times larger than kernel launching overheads".
    for sys in System::ALL {
        let (alpha, _) = gmg_repro::scale::Platform::paper(sys)
            .net
            .effective_alpha_beta(26);
        let kernel = sys.gpu().kernel_overhead_us * 1e-6;
        let ratio = alpha / kernel;
        assert!(
            ratio > 2.0,
            "{sys:?}: comm/kernel overhead ratio {ratio:.1}"
        );
    }
}

/// Each artifact `--bin paper` writes, regenerated and compared with
/// `results/<name>.json` as parsed values: key order and float spelling
/// (`1.0` / `1`) are the writer's business, the numbers are not. Every
/// mismatching artifact is named before the test fails.
///
/// Runs in every profile, so Tier-1's debug `cargo test -q` checks that
/// the paper still reproduces. That is cheap because the simulators take
/// message sizes in closed form (`gmg_comm::plan::message_bytes`) instead
/// of building a brick layout per level to count them.
#[test]
fn every_paper_artifact_equals_its_committed_result() {
    use gmg_repro::trace::Json;
    let results = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("results");
    let parse =
        |text: &str, what: &str| Json::parse(text).unwrap_or_else(|e| panic!("{what}: {e}"));
    let mismatched: Vec<&str> = bench::PAPER
        .iter()
        .filter(|(name, run)| {
            let path = results.join(format!("{name}.json"));
            let committed =
                std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path:?}: {e}"));
            parse(&run().pretty(), name) != parse(&committed, &path.display().to_string())
        })
        .map(|(name, _)| *name)
        .collect();
    assert!(
        mismatched.is_empty(),
        "regenerated artifacts differ from results/: {}",
        mismatched.join(" ")
    );
}
