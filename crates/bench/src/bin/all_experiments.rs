//! Run every table/figure harness in sequence and persist all results.
//! Set `GMG_TRACE=<path>` to capture one Perfetto trace covering the
//! whole sweep.
type Harness = fn() -> gmg_trace::Json;

fn main() {
    let runs: Vec<(&str, Harness)> = vec![
        ("figure3", gmg_bench::figure3::run),
        ("figure4", gmg_bench::figure4::run),
        ("figure5", gmg_bench::figure5::run),
        ("figure6", gmg_bench::figure6::run),
        ("figure7", gmg_bench::figure7::run),
        ("figure8", gmg_bench::figure8::run),
        ("figure9", gmg_bench::figure9::run),
        ("table2", gmg_bench::table2::run),
        ("table3", gmg_bench::table3::run),
        ("table4", gmg_bench::table4::run),
        ("table5", gmg_bench::table5::run),
    ];
    gmg_bench::profile::with_env_hooks(|| {
        for (name, f) in runs {
            let v = f();
            gmg_bench::report::save(name, &v);
        }
    });
}
