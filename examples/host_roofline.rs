//! Measure this host's empirical roofline and judge the *real* bricked
//! stencil kernel against it — the paper's Table III methodology
//! (fraction of the measured roofline) applied to the machine the
//! reproduction actually runs on.
//!
//! ```sh
//! cargo run --release --example host_roofline
//! ```

use gmg_repro::machine::microbench::measure_host;
use gmg_repro::prelude::*;
use gmg_repro::stencil::exec_brick::apply_star7_bricked;
use gmg_repro::stencil::OpKind;
use std::sync::Arc;
use std::time::Instant;

fn main() {
    println!("measuring host memory system (STREAM triad + memcpy sweep)...");
    let host = measure_host();
    println!(
        "  triad bandwidth : {:.1} GB/s (single thread)",
        host.triad_gbs
    );
    println!(
        "  memcpy model    : α = {:.2} µs, β = {:.1} GB/s (single thread)",
        host.copy_alpha_s * 1e6,
        host.copy_beta_gbs
    );

    // Run the real bricked applyOp at 128³ and place it on the roofline.
    let n = 128i64;
    let layout = Arc::new(BrickLayout::new(
        Box3::cube(n),
        8,
        1,
        BrickOrdering::SurfaceMajor,
    ));
    let src = BrickedField::from_fn(layout.clone(), |p| (p.x + p.y - p.z) as f64 * 1e-3);
    let mut dst = BrickedField::new(layout);
    apply_star7_bricked(&mut dst, &src, -6.0, 1.0, Box3::cube(n)); // warm
    let reps = 20;
    let t0 = Instant::now();
    for _ in 0..reps {
        apply_star7_bricked(&mut dst, &src, -6.0, 1.0, Box3::cube(n));
    }
    let per = t0.elapsed().as_secs_f64() / reps as f64;
    let points = (n * n * n) as f64;
    let gstencil = points / per / 1e9;

    let doubles = OpKind::ApplyOp.traffic().reads + OpKind::ApplyOp.traffic().writes;
    let ceiling = host.gstencil_ceiling(doubles);
    let fraction = host.roofline_fraction(points / per, doubles);
    println!("\nbricked applyOp at {n}^3:");
    println!("  achieved        : {gstencil:.2} GStencil/s");
    println!("  host ceiling    : {ceiling:.2} GStencil/s (compulsory traffic)");
    println!(
        "  roofline frac.  : {:.0}%  (paper's Table III metric, on this host)",
        fraction * 100.0
    );
    println!(
        "\n(The paper's GPUs reach 66–90% of their rooflines for applyOp; CPU cache\n\
         behaviour and thread scheduling make the attainable fraction machine-specific.)"
    );
}
