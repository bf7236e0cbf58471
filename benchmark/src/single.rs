//! One workload (or the probes alone) in this process: run the world,
//! gate correctness, print every metric and the contract's result line.

use crate::metrics::{find, Row, END_TO_END, PER_LAYER};
use crate::stats::{max_over_ranks, median, tail_percentile, Samples};
use crate::workloads::{self, RunSpec, Solver, Workload, World};
use crate::{host, probes, Args};
use gmg_trace::Json;

/// A repetition's max error against the exact discrete solution must stay
/// below this share of the solution's scale (measured: ~1e-14).
const MAX_REL_ERROR: f64 = 1e-9;

pub fn print_facts() {
    for (k, v) in host::facts() {
        println!("# {k}: {v}");
    }
}

pub fn json_text(j: &Json) -> String {
    let mut out = String::new();
    j.write(&mut out);
    out
}

/// `{"metric": {"value": v, "unit": "u"[, "n": n]}, …}`
pub fn metrics_object(rows: &[Row], with_n: bool) -> Json {
    let fields = rows.iter().map(|r| {
        let mut o = vec![("value".to_string(), Json::Num(r.value)), ("unit".to_string(), Json::Str(r.unit.clone()))];
        if with_n {
            o.push(("n".to_string(), Json::Num(r.n as f64)));
        }
        (r.metric.clone(), Json::Obj(o))
    });
    Json::Obj(fields.collect())
}

/// The contract's last stdout line. `declared` fixes which metrics it
/// carries and in what order; a missing or non-finite one is an error.
fn result_line(declared: &[&str], rows: &[Row], attempted: usize, failed: usize) -> Result<String, String> {
    let picked = declared
        .iter()
        .map(|name| {
            find(rows, name).filter(|r| r.value.is_finite()).cloned().ok_or(format!("metric {name} was not measured"))
        })
        .collect::<Result<Vec<Row>, String>>()?;
    Ok(json_text(&Json::Obj(vec![
        ("correct".to_string(), Json::Bool(failed == 0)),
        ("attempted".to_string(), Json::Num(attempted as f64)),
        ("failed".to_string(), Json::Num(failed as f64)),
        ("metrics".to_string(), metrics_object(&picked, false)),
    ])))
}

/// The correctness gate: `(attempted, failed)` repetitions, with the
/// reason for each failure printed.
fn check_reps(w: &Workload, ranks: &[Samples], reference: Option<&[Samples]>) -> (usize, usize) {
    let reps = ranks[0].get("vcycles").len();
    let bits = |s: &Samples, name: &str| -> Vec<u64> { s.get(name).iter().map(|v| v.to_bits()).collect() };
    let mut failed = 0;
    for i in 0..reps {
        let hist = format!("hist{i}");
        let mut why = Vec::new();
        if ranks.iter().any(|r| r.get("converged")[i] != 1.0) {
            why.push("did not converge".to_string());
        }
        if let Some(e) = ranks.iter().map(|r| r.get("rel_error")[i]).find(|e| e.is_nan() || *e >= MAX_REL_ERROR) {
            why.push(format!("error vs exact discrete solution {e:e} of its scale"));
        }
        if ranks.iter().any(|r| bits(r, &hist) != bits(&ranks[0], &hist)) {
            why.push("residual histories differ across ranks".to_string());
        }
        if ranks[0].get("vcycles")[i] != ranks[0].get("vcycles")[0] {
            why.push("V-cycle count differs from the first repetition".to_string());
        }
        if reference.is_some_and(|t| bits(&t[0], "hist0") != bits(&ranks[0], &hist)) {
            why.push("residual history is not bit-identical to the thread-transport solve".to_string());
        }
        if !why.is_empty() {
            failed += 1;
            println!("# {} repetition {i} FAILED: {}", w.name, why.join("; "));
        }
    }
    (reps, failed)
}

/// What one world run measured, reduced over ranks (slowest rank per
/// repetition) and split into untraced and traced repetitions.
struct Measured {
    ranks: Vec<Samples>,
    /// The thread-transport twin of a process world.
    reference: Option<Vec<Samples>>,
    /// Wall times of do-nothing worlds of the workload's kind.
    world_start: Vec<f64>,
    /// `run` wall time minus the longest time a rank spent in its entry.
    outside_entry_s: f64,
    /// `GmgSolver::new` / `HpgmgSolver::new` wall times.
    solver_new: Vec<f64>,
    untraced_solve: Vec<f64>,
    untraced_cycle: Vec<f64>,
    traced_cycle: Vec<f64>,
}

fn measure(w: &'static Workload, args: &Args) -> Result<Measured, String> {
    let spec = RunSpec { workload: w, seed: args.seed, seconds: args.seconds, traced: args.trace };
    let world_start = workloads::noop_world_samples(w.world, w.ranks, 5)?;
    let (ranks, world_wall) = workloads::run_world(&spec)?;
    let reference = match w.world {
        World::Proc => Some(workloads::run_thread_reference(&spec)?),
        World::Thread => None,
    };
    let solve = max_over_ranks(&ranks, "solve_s");
    let cycle: Vec<f64> = solve.iter().zip(ranks[0].get("vcycles")).map(|(s, v)| s / v.max(1.0)).collect();
    let pick = |v: &[f64], traced: bool| -> Vec<f64> {
        v.iter().zip(ranks[0].get("traced")).filter(|(_, t)| (**t == 1.0) == traced).map(|(x, _)| *x).collect()
    };
    let inside = ranks.iter().map(|r| r.get("inside_s")[0]).fold(0.0, f64::max);
    Ok(Measured {
        world_start,
        outside_entry_s: world_wall - inside,
        solver_new: max_over_ranks(&ranks, "setup_s"),
        untraced_solve: pick(&solve, false),
        untraced_cycle: pick(&cycle, false),
        traced_cycle: pick(&cycle, true),
        reference,
        ranks,
    })
}

fn e2e_rows(w: &Workload, m: &Measured) -> Vec<Row> {
    let vcycles = m.ranks[0].get("vcycles");
    let rss = match w.world {
        World::Thread => host::peak_rss_mib(),
        World::Proc => m.ranks.iter().map(|r| r.get("peak_rss_mib")[0]).sum(),
    };
    let mut rows = vec![
        Row::new("solve_s", median(&m.untraced_solve), "s", m.untraced_solve.len()),
        Row::new("vcycle_s", median(&m.untraced_cycle), "s", m.untraced_cycle.len()),
        Row::new("setup_s", median(&m.world_start) + median(&m.solver_new), "s", m.solver_new.len()),
        Row::new("vcycles_to_tol", vcycles[0], "count", vcycles.len()),
        Row::new("peak_rss_mib", rss, "MiB", 1),
        // Information beside the contract metrics.
        Row::new("dof_per_s", (w.n * w.n * w.n) as f64 / median(&m.untraced_cycle), "1/s", m.untraced_cycle.len()),
        Row::new("world_start_s", median(&m.world_start), "s", m.world_start.len()),
        Row::new("solver_new_s", median(&m.solver_new), "s", m.solver_new.len()),
        Row::new("world_outside_entry_s", m.outside_entry_s, "s", 1),
    ];
    if let Some(t) = &m.reference {
        // The thread-vs-process gap, as information.
        let solves = max_over_ranks(t, "solve_s");
        rows.push(Row::new("thread_reference_vcycle_s", median(&solves) / t[0].get("vcycles")[0], "s", solves.len()));
    }
    for (name, v) in [("solve_s", &m.untraced_solve), ("vcycle_s", &m.untraced_cycle), ("solver_new_s", &m.solver_new)]
    {
        if let Some((label, q)) = tail_percentile(v) {
            rows.push(Row::new(&format!("{name}_{label}"), q, "s", v.len()));
        }
    }
    rows
}

/// Every [`PER_LAYER`] metric, in order: the probes' rows as measured,
/// the rest from the traced repetitions (0 where the workload has none).
fn per_layer_rows(m: &Measured) -> Result<Vec<Row>, String> {
    let probe_rows = probes::run()?;
    let triad = find(&probe_rows, "machine.triad_dram_gbs").expect("probe always reports it").value;
    // core.* / hpgmg.* read the slowest rank, comm.* rank 0.
    let traced_solve = |r: &Samples| -> f64 {
        r.get("solve_s").iter().zip(r.get("traced")).filter(|(_, t)| **t == 1.0).map(|(s, _)| *s).sum()
    };
    let slowest = m.ranks.iter().max_by(|a, b| traced_solve(a).total_cmp(&traced_solve(b))).expect("at least one rank");
    let median_or_zero = |v: &[f64]| if v.is_empty() { 0.0 } else { median(v) };
    let base = median(&m.untraced_cycle);
    let mut rows = vec![
        Row::new("untraced_vcycle_s", base, "s", m.untraced_cycle.len()),
        Row::new("traced_vcycle_s", median(&m.traced_cycle), "s", m.traced_cycle.len()),
    ];
    for def in &PER_LAYER {
        rows.push(match (find(&probe_rows, def.name), def.name) {
            (Some(row), _) => row.clone(),
            (None, "obs.trace_overhead_frac") => {
                Row::new(def.name, (median(&m.traced_cycle) - base) / base, def.unit, m.traced_cycle.len())
            }
            (None, "core.smooth_roof_frac_L0") => {
                // Computed bytes over the triad roof measured in this run.
                let gbs = slowest.get("smooth_gbs_L0");
                Row::new(def.name, median_or_zero(gbs) / triad, def.unit, gbs.len())
            }
            (None, name) => {
                let v = if name.starts_with("comm.") { m.ranks[0].get(name) } else { slowest.get(name) };
                Row::new(name, median_or_zero(v), def.unit, v.len())
            }
        });
    }
    Ok(rows)
}

pub fn run_one(w: &'static Workload, args: &Args) -> Result<bool, String> {
    print_facts();
    println!("# workload: {} — {}", w.name, w.why);
    if w.solver == Solver::Hpgmg {
        println!(
            "# {}: HpgmgSolver's levels are private, so it keeps its fixed analytic right-hand side; \
             --seed is ignored and the exact-solution check does not apply",
            w.name
        );
    }
    let m = measure(w, args)?;
    let (attempted, failed) = check_reps(w, &m.ranks, m.reference.as_deref());
    let history: Vec<String> = m.ranks[0].get("hist0").iter().map(|r| format!("{r:.3e}")).collect();
    println!("# residual history (repetition 0): {}", history.join(" "));

    let (rows, declared): (Vec<Row>, Vec<&str>) = if args.trace {
        (per_layer_rows(&m)?, PER_LAYER.iter().map(|d| d.name).collect())
    } else {
        (e2e_rows(w, &m), END_TO_END.iter().map(|d| d.name).collect())
    };
    for r in &rows {
        println!("{}", r.line(w.name));
    }
    println!("{}", result_line(&declared, &rows, attempted, failed)?);
    Ok(failed == 0)
}

pub fn run_probes_only() -> Result<bool, String> {
    print_facts();
    let rows = probes::run()?;
    for r in &rows {
        println!("{}", r.line("probes"));
    }
    let declared: Vec<&str> = rows.iter().map(|r| r.metric.as_str()).collect();
    println!("{}", result_line(&declared, &rows, 1, 0)?);
    Ok(true)
}
