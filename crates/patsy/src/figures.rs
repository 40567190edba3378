//! Regeneration of the paper's evaluation figures.
//!
//! * Figures 2–4: cumulative latency distributions for traces 1a, 1b, 5
//!   under the four §5.1 policies;
//! * Figure 5: mean latencies for every trace × policy.

use cnp_trace::{preset, PRESETS};

use crate::cli::CliArgs;
use crate::experiment::{cdf_header, cdf_row, run_experiment, ExperimentConfig, Policy, POLICIES};

/// Runs one CDF figure (2, 3 or 4) and prints the series.
pub fn figure_cdf(trace_name: &str, scale: f64, seed: u64, queue_depth: u32) {
    let trace = preset(trace_name).expect("known trace");
    println!("== Figure (CDF of file-system latencies), trace {trace_name} ==");
    println!("   (scale {scale} of the 24-hour trace; seed {seed}; queue depth {queue_depth})");
    println!(
        "{:<18} {}  {:>9} {:>7} {:>7} {:>9} {:>6} {:>6}",
        "policy",
        cdf_header(),
        "mean(ms)",
        "hit%",
        "abs%",
        "ops",
        "qmean",
        "ovl%"
    );
    for policy in POLICIES {
        let mut cfg = ExperimentConfig::new(policy, trace.clone());
        cfg.scale = scale;
        cfg.seed = seed;
        cfg.queue_depth = queue_depth;
        let r = run_experiment(&cfg);
        println!(
            "{:<18} {}  {:>9.3} {:>7.1} {:>7.1} {:>9} {:>6.2} {:>6.1}",
            policy.label(),
            cdf_row(&r.report.latency),
            r.report.mean_ms(),
            r.hit_rate * 100.0,
            r.absorption * 100.0,
            r.report.ops,
            r.mean_queue,
            r.overlap * 100.0,
        );
    }
    println!();
    println!("Qualitative checks (paper §5.1):");
    println!("  - ops completing <2 ms are cache-served; the 17 ms region is the");
    println!("    full-rotation bump of the 4002 rpm HP 97560;");
    println!("  - expected mean ordering: ups < nvram-whole <= nvram-partial < write-delay.");
}

/// Runs Figure 5: mean latency for all traces × all policies.
pub fn figure5(scale: f64, seed: u64) {
    println!("== Figure 5 (mean file-system latencies, ms) ==");
    println!("   (scale {scale} of each 24-hour trace; seed {seed})");
    print!("{:<8}", "trace");
    for p in POLICIES {
        print!("{:>18}", p.label());
    }
    println!();
    for trace_name in PRESETS {
        let trace = preset(trace_name).expect("known trace");
        print!("{trace_name:<8}");
        for policy in POLICIES {
            let mut cfg = ExperimentConfig::new(policy, trace.clone());
            cfg.scale = scale;
            cfg.seed = seed;
            let r = run_experiment(&cfg);
            print!("{:>18.3}", r.report.mean_ms());
        }
        println!();
    }
    println!();
    println!("Paper shape: UPS fastest on most traces; NVRAM ≈2x faster than");
    println!("write-delay except trace 1b (NVRAM drain bottleneck) and trace 5");
    println!("(dirty data clutters the cache and read hit-rates drop).");
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
