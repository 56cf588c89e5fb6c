//! Regenerates every table and figure in one run — the source of
//! EXPERIMENTS.md. `--sites N` caps corpus sizes for a quick pass;
//! `--workers N` sets the parallelism of the deterministic executor; `--only fig13,ablation_rtt` prints just those
//! sections, framed as in the full report. Stdout is byte-identical for
//! every worker count; timing goes to stderr only.

#![forbid(unsafe_code)]

fn main() {
    let args = vroom_bench::args_from_env();
    let t0 = std::time::Instant::now();
    print!(
        "{}",
        vroom::experiment::run_sections(&args.cfg, &args.sections)
    );
    eprintln!("total wall time: {:.1}s", t0.elapsed().as_secs_f64());
}
