//! The benchmark's metric vocabulary: the single table `BENCHMARK.json`,
//! the per-run JSON line, `--repeat-check` and the README glossary are
//! all generated from or checked against.

/// The contract's two directions.
pub const LOWER: &str = "lower";
pub const HIGHER: &str = "higher";

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
}

pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
}

/// The bounds are what this host can resolve, not what one would like:
/// ten seeds of one build spread (interquartile range over median) up to
/// 0.16 on the timings of the 128^3 and 32^3 workloads and 0.06 on the
/// peak RSS of `solve128_r2_thread`, because single solves swing +-20 %
/// with the neighbours of this 2-vCPU guest (see benchmark/README.md). A
/// bound under a spread would reject the benchmark's own parent.
pub const END_TO_END: [EndToEnd; 5] = [
    EndToEnd { name: "solve_s", unit: "s", better: LOWER, bound: 0.25 },
    EndToEnd { name: "vcycle_s", unit: "s", better: LOWER, bound: 0.25 },
    EndToEnd { name: "setup_s", unit: "s", better: LOWER, bound: 0.25 },
    EndToEnd { name: "vcycles_to_tol", unit: "count", better: LOWER, bound: 0.05 },
    EndToEnd { name: "peak_rss_mib", unit: "MiB", better: LOWER, bound: 0.2 },
];

const fn pl(name: &'static str, unit: &'static str, better: &'static str) -> PerLayer {
    PerLayer { name, unit, better }
}

/// Metrics of the traced repetitions (first block) and of the probes
/// (second block). Every traced run prints all of them; one whose layer
/// the workload does not run (e.g. `hpgmg.*` on a bricked solve, or
/// `core.level5_s` on a 3-level hierarchy) reads 0.
pub const PER_LAYER: [PerLayer; 61] = [
    pl("core.smooth_frac", "frac", HIGHER),
    pl("core.exchange_frac", "frac", LOWER),
    pl("core.interlevel_frac", "frac", LOWER),
    pl("core.unattributed_frac", "frac", LOWER),
    pl("core.level0_s", "s", LOWER),
    pl("core.level1_s", "s", LOWER),
    pl("core.level2_s", "s", LOWER),
    pl("core.level3_s", "s", LOWER),
    pl("core.level4_s", "s", LOWER),
    pl("core.level5_s", "s", LOWER),
    pl("core.smooth_gstencil_s_L0", "GStencil/s", HIGHER),
    pl("core.smooth_roof_frac_L0", "frac", HIGHER),
    pl("comm.msgs_per_vcycle", "count", LOWER),
    pl("comm.bytes_per_vcycle", "B", LOWER),
    pl("comm.wait_frac", "frac", LOWER),
    pl("comm.pack_frac", "frac", LOWER),
    pl("hpgmg.smooth_frac", "frac", HIGHER),
    pl("hpgmg.exchange_frac", "frac", LOWER),
    pl("hpgmg.level0_frac", "frac", HIGHER),
    pl("obs.trace_overhead_frac", "frac", LOWER),
    // probes
    pl("machine.triad_dram_gbs", "GB/s", HIGHER),
    pl("machine.triad_llc_gbs", "GB/s", HIGHER),
    pl("machine.copy_alpha_us", "us", LOWER),
    pl("machine.copy_beta_gbs", "GB/s", HIGHER),
    pl("stencil.applyop_brick_gstencil_s_32", "GStencil/s", HIGHER),
    pl("stencil.applyop_brick_gstencil_s_256", "GStencil/s", HIGHER),
    pl("stencil.applyop_array_gstencil_s_32", "GStencil/s", HIGHER),
    pl("stencil.applyop_array_gstencil_s_256", "GStencil/s", HIGHER),
    pl("stencil.applyop_brick_roof_frac_256", "frac", HIGHER),
    pl("stencil.smoothres_gstencil_s_256", "GStencil/s", HIGHER),
    pl("stencil.fused4_gstencil_s_32", "GStencil/s", HIGHER),
    pl("stencil.fused4_gstencil_s_256", "GStencil/s", HIGHER),
    pl("stencil.sweep4_gstencil_s_32", "GStencil/s", HIGHER),
    pl("stencil.sweep4_gstencil_s_256", "GStencil/s", HIGHER),
    pl("stencil.fused4_doubles_per_pt", "count", LOWER),
    pl("stencil.applyop_brick_alpha_us", "us", LOWER),
    pl("stencil.applyop_brick_beta_gstencil_s", "GStencil/s", HIGHER),
    pl("brick.layout_build_ms_128", "ms", LOWER),
    pl("brick.from_fn_mpts_s_128", "Mpt/s", HIGHER),
    pl("brick.fill_gbs_128", "GB/s", HIGHER),
    pl("brick.gather_gbs_face128", "GB/s", HIGHER),
    pl("brick.scatter_gbs_face128", "GB/s", HIGHER),
    pl("brick.face_runs_128", "count", LOWER),
    pl("core.restriction_gstencil_s_256", "GStencil/s", HIGHER),
    pl("core.interp_gstencil_s_256", "GStencil/s", HIGHER),
    pl("core.residual_check_ms_128", "ms", LOWER),
    pl("comm.thread.pingpong_us_8b", "us", LOWER),
    pl("comm.proc.pingpong_us_8b", "us", LOWER),
    pl("comm.thread.pingpong_gbs_1mib", "GB/s", HIGHER),
    pl("comm.proc.pingpong_gbs_1mib", "GB/s", HIGHER),
    pl("comm.thread.allreduce_us", "us", LOWER),
    pl("comm.proc.allreduce_us", "us", LOWER),
    pl("comm.thread.exchange_us_sub8", "us", LOWER),
    pl("comm.proc.exchange_us_sub8", "us", LOWER),
    pl("comm.thread.exchange_gbs_sub64", "GB/s", HIGHER),
    pl("comm.proc.exchange_gbs_sub64", "GB/s", HIGHER),
    pl("comm.array.exchange_gbs_sub64", "GB/s", HIGHER),
    pl("comm.frame.encode_gbs", "GB/s", HIGHER),
    pl("comm.frame.decode_gbs", "GB/s", HIGHER),
    pl("comm.proc.spawn_ms", "ms", LOWER),
    pl("obs.disabled_op_ns", "ns", LOWER),
];

/// One printed metric: `workload metric value unit n=<samples>`.
#[derive(Clone, Debug, PartialEq)]
pub struct Row {
    pub metric: String,
    pub value: f64,
    pub unit: String,
    pub n: usize,
}

impl Row {
    pub fn new(metric: &str, value: f64, unit: &str, n: usize) -> Row {
        // `+ 0.0` turns the `-0.0` an empty `f64` sum yields into `0.0`.
        Row { metric: metric.into(), value: value + 0.0, unit: unit.into(), n }
    }

    pub fn line(&self, workload: &str) -> String {
        format!("{workload} {} {} {} n={}", self.metric, self.value, self.unit, self.n)
    }

    /// Inverse of [`Row::line`] for lines that belong to `workload`.
    pub fn parse(workload: &str, line: &str) -> Option<Row> {
        let f: Vec<&str> = line.split(' ').collect();
        let [w, metric, value, unit, n] = f[..] else {
            return None;
        };
        (w == workload).then_some(())?;
        Some(Row {
            metric: metric.into(),
            value: value.parse().ok()?,
            unit: unit.into(),
            n: n.strip_prefix("n=")?.parse().ok()?,
        })
    }
}

pub fn find<'a>(rows: &'a [Row], metric: &str) -> Option<&'a Row> {
    rows.iter().find(|r| r.metric == metric)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_within_the_contract() {
        let mut names: Vec<&str> = END_TO_END.iter().map(|m| m.name).collect();
        names.extend(PER_LAYER.iter().map(|m| m.name));
        for n in &names {
            assert!(n.len() <= 64 && n.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)), "{n}");
        }
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total);
        assert!(END_TO_END.iter().all(|m| m.bound <= 0.25));
        for u in END_TO_END.iter().map(|m| m.unit).chain(PER_LAYER.iter().map(|m| m.unit)) {
            assert!(u.len() <= 16 && u.chars().all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)), "{u}");
        }
        for w in &crate::workloads::WORKLOADS {
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}: {} chars", w.name, w.why.len());
        }
    }

    #[test]
    fn row_line_round_trips() {
        let r = Row::new("vcycle_s", 0.123456789012, "s", 7);
        assert_eq!(Row::parse("w", &r.line("w")), Some(r.clone()));
        assert_eq!(Row::parse("other", &r.line("w")), None);
        assert_eq!(Row::parse("w", "# w note"), None);
    }
}
