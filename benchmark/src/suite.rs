//! Every workload, one process each: the default invocation,
//! `--repeat-check`, the result file and `BENCHMARK.json`.

use crate::metrics::{find, Row, END_TO_END, PER_LAYER};
use crate::single::{json_text, metrics_object, print_facts};
use crate::workloads::{Workload, WORKLOADS};
use crate::{host, Args, RUN_SECONDS};
use gmg_trace::Json;
use std::io::{BufRead, BufReader};
use std::process::{Command, Stdio};

const OUT_DIR: &str = "benchmark/out";

struct ChildRun {
    rows: Vec<Row>,
    attempted: u64,
    failed: u64,
}

impl ChildRun {
    fn value(&self, metric: &str) -> f64 {
        find(&self.rows, metric).map_or(f64::NAN, |r| r.value)
    }
}

/// Run `gmgbench --workload …` as a child (so `VmHWM` is the
/// workload's own), echo its output and collect its metric rows.
fn run_child(w: &Workload, args: &Args, trace: bool) -> Result<ChildRun, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut child = Command::new(exe)
        .args(["--workload", w.name, "--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .stdout(Stdio::piped())
        .spawn()
        .map_err(|e| format!("spawn {}: {e}", w.name))?;
    let mut rows = Vec::new();
    let mut last = String::new();
    for line in BufReader::new(child.stdout.take().expect("piped stdout")).lines() {
        let line = line.map_err(|e| e.to_string())?;
        if let Some(r) = Row::parse(w.name, &line) {
            rows.push(r);
        }
        if !line.starts_with('{') {
            println!("{line}");
        }
        last = line;
    }
    let status = child.wait().map_err(|e| e.to_string())?;
    let result = Json::parse(&last).ok();
    let count = |key: &str| result.as_ref()?.get(key)?.as_u64();
    match (count("attempted"), count("failed")) {
        (Some(attempted), Some(failed)) => Ok(ChildRun { rows, attempted, failed }),
        _ => Err(format!("{} (trace {}) ended without a result line ({status})", w.name, trace as u8)),
    }
}

fn run_pass(args: &Args, trace: bool) -> Result<Vec<ChildRun>, String> {
    WORKLOADS.iter().map(|w| run_child(w, args, trace)).collect()
}

pub fn run_all(args: &Args) -> Result<bool, String> {
    print_facts();
    if args.repeat_check {
        return repeat_check(args);
    }
    let e2e = run_pass(args, false)?;
    let traced = run_pass(args, true)?;
    let ok = e2e.iter().chain(&traced).all(|r| r.failed == 0);

    let cycle = |name: &str| {
        let wi = WORKLOADS.iter().position(|w| w.name == name).expect("known workload");
        e2e[wi].value("vcycle_s")
    };
    let thread_reference =
        e2e.iter().map(|r| r.value("thread_reference_vcycle_s")).find(|v| v.is_finite()).unwrap_or(f64::NAN);
    // Ungated: each compounds two noisy medians.
    let derived = [
        Row::new("derived.strong_eff_128", cycle("solve128_r1") / (2.0 * cycle("solve128_r2_thread")), "frac", 1),
        Row::new("derived.brick_vs_hpgmg_128", cycle("hpgmg128_r1") / cycle("solve128_r1"), "frac", 1),
        // The same 64^3 2-rank solve over sockets and over channels.
        Row::new("derived.proc_vs_thread_64", cycle("solve64_r2_proc") / thread_reference, "frac", 1),
    ];
    for r in &derived {
        println!("{}", r.line("all"));
    }

    let obj = |fields: Vec<(&str, Json)>| Json::Obj(fields.into_iter().map(|(k, v)| (k.to_string(), v)).collect());
    let per_workload = WORKLOADS.iter().zip(e2e.iter().zip(&traced)).map(|(w, (e, t))| {
        let run = obj(vec![
            ("attempted", Json::Num((e.attempted + t.attempted) as f64)),
            ("failed", Json::Num((e.failed + t.failed) as f64)),
            ("end_to_end", metrics_object(&e.rows, true)),
            ("per_layer", metrics_object(&t.rows, true)),
        ]);
        (w.name.to_string(), run)
    });
    let doc = obj(vec![
        ("host", Json::Obj(host::facts().into_iter().map(|(k, v)| (k.to_string(), Json::Str(v))).collect())),
        ("seed", Json::Num(args.seed as f64)),
        ("seconds", Json::Num(args.seconds)),
        ("workloads", Json::Obj(per_workload.collect())),
        ("derived", metrics_object(&derived, false)),
    ]);
    let stamp =
        std::time::SystemTime::now().duration_since(std::time::UNIX_EPOCH).map_err(|e| e.to_string())?.as_secs();
    let path = format!("{OUT_DIR}/{stamp}.json");
    std::fs::create_dir_all(OUT_DIR)
        .and_then(|()| std::fs::write(&path, json_text(&doc) + "\n"))
        .map_err(|e| format!("{path}: {e}"))?;
    println!("# wrote {path}");
    Ok(ok)
}

/// Two end-to-end passes of the same build, back to back: every metric
/// of every workload must agree between them within its own bound.
fn repeat_check(args: &Args) -> Result<bool, String> {
    let sets = [run_pass(args, false)?, run_pass(args, false)?];
    let mut ok = sets.iter().flatten().all(|r| r.failed == 0);
    println!("# repeat-check: two end-to-end sets of the same build");
    println!("# workload metric set1 set2 rel_diff bound verdict");
    for (wi, w) in WORKLOADS.iter().enumerate() {
        for m in &END_TO_END {
            let (a, b) = (sets[0][wi].value(m.name), sets[1][wi].value(m.name));
            let diff = (a - b).abs() / a.min(b);
            let pass = diff <= m.bound;
            ok &= pass;
            println!("{} {} {a} {b} {diff:.4} {} {}", w.name, m.name, m.bound, if pass { "ok" } else { "DISAGREE" });
        }
    }
    Ok(ok)
}

/// `BENCHMARK.json`, generated from the same tables the runs print from
/// (one entry per line, so a diff of the file reads metric by metric).
pub fn benchmark_json() -> String {
    let entry = |fields: Vec<(&str, Json)>| {
        let o = Json::Obj(fields.into_iter().map(|(k, v)| (k.to_string(), v)).collect());
        format!("    {}", json_text(&o))
    };
    let s = |v: &str| Json::Str(v.to_string());
    let workloads: Vec<String> =
        WORKLOADS.iter().map(|w| entry(vec![("name", s(w.name)), ("why", s(w.why))])).collect();
    let e2e: Vec<String> = END_TO_END
        .iter()
        .map(|m| {
            entry(vec![
                ("name", s(m.name)),
                ("unit", s(m.unit)),
                ("better", s(m.better)),
                ("bound", Json::Num(m.bound)),
            ])
        })
        .collect();
    let layers: Vec<String> = PER_LAYER
        .iter()
        .map(|m| entry(vec![("name", s(m.name)), ("unit", s(m.unit)), ("better", s(m.better))]))
        .collect();
    format!(
        "{{\n  \"command\": [\"sh\", \"benchmark/run.sh\"],\n  \"paths\": [\"benchmark\"],\n  \"run_seconds\": {RUN_SECONDS},\n  \
         \"workloads\": [\n{}\n  ],\n  \"end_to_end\": [\n{}\n  ],\n  \"per_layer\": [\n{}\n  ]\n}}\n",
        workloads.join(",\n"),
        e2e.join(",\n"),
        layers.join(",\n")
    )
}
