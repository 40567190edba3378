//! Regeneration of the paper's evaluation figures.
//!
//! * Figures 2–4: cumulative latency distributions for traces 1a, 1b, 5
//!   under the four §5.1 policies;
//! * Figure 5: mean latencies for every trace × policy.

use cnp_sim::run_cells;
use cnp_trace::{preset, PRESETS};

use crate::cli::CliArgs;
use crate::experiment::{
    cdf_header, cdf_row, run_experiment, ExperimentConfig, ExperimentResult, Policy, POLICIES,
};

/// One trace's cells: a configuration per policy, in [`POLICIES`] order.
fn policy_cells(
    trace_name: &str,
    scale: f64,
    seed: u64,
    queue_depth: u32,
) -> [ExperimentConfig; 4] {
    let trace = preset(trace_name).expect("known trace");
    POLICIES.map(|policy| ExperimentConfig {
        scale,
        seed,
        queue_depth,
        ..ExperimentConfig::new(policy, trace.clone())
    })
}

/// Runs one CDF figure (2, 3 or 4): a row per policy, in [`POLICIES`]
/// order.
pub fn run_figure_cdf(
    trace_name: &str,
    scale: f64,
    seed: u64,
    queue_depth: u32,
    threads: usize,
) -> Vec<ExperimentResult> {
    run_cells(&policy_cells(trace_name, scale, seed, queue_depth), threads, run_experiment)
}

/// Formats a CDF figure's rows as the series `patsy fig2|fig3|fig4`
/// prints.
pub fn format_figure_cdf(
    trace_name: &str,
    scale: f64,
    seed: u64,
    queue_depth: u32,
    rows: &[ExperimentResult],
) -> String {
    let mut s = format!("== Figure (CDF of file-system latencies), trace {trace_name} ==\n");
    s.push_str(&format!(
        "   (scale {scale} of the 24-hour trace; seed {seed}; queue depth {queue_depth})\n"
    ));
    s.push_str(&format!(
        "{:<18} {}  {:>9} {:>7} {:>7} {:>9} {:>6} {:>6}\n",
        "policy",
        cdf_header(),
        "mean(ms)",
        "hit%",
        "abs%",
        "ops",
        "qmean",
        "ovl%"
    ));
    for r in rows {
        s.push_str(&format!(
            "{:<18} {}  {:>9.3} {:>7.1} {:>7.1} {:>9} {:>6.2} {:>6.1}\n",
            r.policy.label(),
            cdf_row(&r.report.latency),
            r.report.mean_ms(),
            r.hit_rate * 100.0,
            r.absorption * 100.0,
            r.report.ops,
            r.mean_queue,
            r.overlap * 100.0,
        ));
    }
    s.push_str(
        "\nQualitative checks (paper §5.1):\n  \
         - ops completing <2 ms are cache-served; the 17 ms region is the\n    \
         full-rotation bump of the 4002 rpm HP 97560;\n  \
         - expected mean ordering: ups < nvram-whole <= nvram-partial < write-delay.\n",
    );
    s
}

/// Runs Figure 5: every trace × every policy, trace-major (a trace's
/// four policies are adjacent, in [`POLICIES`] order).
pub fn run_figure5(scale: f64, seed: u64, threads: usize) -> Vec<ExperimentResult> {
    let cells: Vec<ExperimentConfig> =
        PRESETS.iter().flat_map(|trace_name| policy_cells(trace_name, scale, seed, 1)).collect();
    run_cells(&cells, threads, run_experiment)
}

/// Formats Figure 5's rows as the mean-latency table `patsy fig5`
/// prints.
pub fn format_figure5(scale: f64, seed: u64, rows: &[ExperimentResult]) -> String {
    let mut s = String::from("== Figure 5 (mean file-system latencies, ms) ==\n");
    s.push_str(&format!("   (scale {scale} of each 24-hour trace; seed {seed})\n"));
    s.push_str(&format!("{:<8}", "trace"));
    for p in POLICIES {
        s.push_str(&format!("{:>18}", p.label()));
    }
    s.push('\n');
    for trace_rows in rows.chunks(POLICIES.len()) {
        s.push_str(&format!("{:<8}", trace_rows[0].trace));
        for r in trace_rows {
            s.push_str(&format!("{:>18.3}", r.report.mean_ms()));
        }
        s.push('\n');
    }
    s.push_str(
        "\nPaper shape: UPS fastest on most traces; NVRAM ≈2x faster than\n\
         write-delay except trace 1b (NVRAM drain bottleneck) and trace 5\n\
         (dirty data clutters the cache and read hit-rates drop).\n",
    );
    s
}

/// One experiment with full detail (the `run` subcommand). With
/// `--trace-out`, a virtual-time span tracer is installed for the run
/// and the resulting Chrome trace_event JSON is written to that path
/// (load it in Perfetto; one lane per client plus one per disk).
pub fn run_one(a: &CliArgs) {
    let policy = a.policy.unwrap_or(Policy::Ups);
    let trace = preset(&a.trace).expect("--trace validated by parse_cli");
    let mut cfg = ExperimentConfig::new(policy, trace);
    cfg.scale = a.scale;
    cfg.seed = a.seed;
    cfg.queue_depth = a.qd;
    if let Some(layout) = a.layout {
        cfg.layout = layout;
    }
    cfg.hw = a.hw;
    let (trace_name, trace_out, hw) = (&a.trace, a.trace_out.as_deref(), &a.hw);
    let tracer = trace_out.map(|_| cnp_obs::trace::Tracer::default());
    let guard = tracer.as_ref().map(cnp_obs::trace::install);
    let r = run_experiment(&cfg);
    drop(guard);
    let layout = cfg.layout.name();
    if hw.is_default() {
        println!("trace {trace_name} policy {} layout {layout}", policy.label());
    } else {
        println!(
            "trace {trace_name} policy {} layout {layout} disk {}",
            policy.label(),
            hw.label()
        );
    }
    println!("  ops {} errors {}", r.report.ops, r.report.errors);
    for e in &r.report.error_sample {
        println!("    sample error: {e}");
    }
    println!(
        "  latency mean {:.3} ms  p50 {:.3}  p90 {:.3}  p99 {:.3}",
        r.report.latency.mean(),
        r.report.latency.quantile(0.5),
        r.report.latency.quantile(0.9),
        r.report.latency.quantile(0.99)
    );
    println!(
        "  reads mean {:.3} ms, writes mean {:.3} ms",
        r.report.read_latency.mean(),
        r.report.write_latency.mean()
    );
    println!(
        "  cache hit {:.1}%  absorption {:.1}%  nvram stalls {}",
        r.hit_rate * 100.0,
        r.absorption * 100.0,
        r.nvram_stalls
    );
    println!(
        "  flushed {} blocks, queue mean {:.2} max {:.0}",
        r.blocks_flushed, r.mean_queue, r.max_queue
    );
    println!(
        "  device: mean in-flight {:.2}, overlap {:.1}%, mean service {:.3} ms",
        r.mean_inflight,
        r.overlap * 100.0,
        r.mean_service_ms
    );
    println!(
        "  layout: {} segments written, {} cleaned, {} ckpts",
        r.layout.segments_written, r.layout.segments_cleaned, r.layout.checkpoints
    );
    println!("  15-minute intervals:");
    for row in &r.report.intervals {
        println!(
            "    t={:>6}s ops={:<7} mean={:.3} ms max={:.1} ms",
            row.start.as_millis() / 1000,
            row.count,
            row.mean,
            row.max
        );
    }
    println!("  metrics:");
    for line in r.metrics.to_table().lines() {
        println!("    {line}");
    }
    if let (Some(path), Some(tracer)) = (trace_out, &tracer) {
        let json = cnp_obs::chrome::to_chrome_json(tracer);
        match std::fs::write(path, json) {
            Ok(()) => println!("  trace: {} events -> {path}", tracer.event_count()),
            Err(e) => {
                eprintln!("failed to write {path}: {e}");
                std::process::exit(1);
            }
        }
    }
}
