//! Ablations A1–A6: the design choices DESIGN.md calls out.

use cnp_core::FlushMode;
use cnp_trace::preset;

use crate::experiment::{run_experiment, ExperimentConfig, Policy};

/// A1 — simple vs detailed disk model (the Ruemmler & Wilkes warning).
pub fn ablate_diskmodel(scale: f64, seed: u64) {
    println!("== A1: simple vs detailed disk model (trace 1a, write-delay) ==");
    let trace = preset("1a").expect("preset");
    let mut detailed = ExperimentConfig::new(Policy::WriteDelay, trace.clone());
    detailed.scale = scale;
    detailed.seed = seed;
    let mut simple = detailed.clone();
    simple.hw.disk = "simple";
    let rd = run_experiment(&detailed);
    let rs = run_experiment(&simple);
    let d = rd.report.mean_ms();
    let s = rs.report.mean_ms();
    println!("  detailed HP 97560 model: mean {:.3} ms", d);
    println!("  naive fixed-cost model : mean {:.3} ms", s);
    println!(
        "  divergence: {:.1}% (Ruemmler & Wilkes report up to 112% for naive models)",
        ((s - d) / d * 100.0).abs()
    );
}

/// A2 — synchronous vs asynchronous cache flush (§5.2 lesson).
pub fn ablate_flushmode(scale: f64, seed: u64) {
    println!("== A2: synchronous vs asynchronous flush (trace 1b, nvram-whole) ==");
    let trace = preset("1b").expect("preset");
    for (label, mode) in [("async", FlushMode::Async), ("sync", FlushMode::Sync)] {
        let mut cfg = ExperimentConfig::new(Policy::NvramWhole, trace.clone());
        cfg.scale = scale;
        cfg.seed = seed;
        cfg.flush_mode = mode;
        let r = run_experiment(&cfg);
        println!(
            "  {label:<6} flush: mean {:.3} ms  p99 {:.3} ms  write-mean {:.3} ms",
            r.report.mean_ms(),
            r.report.latency.quantile(0.99),
            r.report.write_latency.mean()
        );
    }
    println!("  (paper: making the flush asynchronous removed a thread-stall bottleneck)");
}

/// A3 — driver queue disciplines.
pub fn ablate_iosched(scale: f64, seed: u64) {
    println!("== A3: disk queue scheduling (trace 1a, write-delay) ==");
    let trace = preset("1a").expect("preset");
    for sched in ["fcfs", "sstf", "scan", "c-scan", "look", "c-look"] {
        let mut cfg = ExperimentConfig::new(Policy::WriteDelay, trace.clone());
        cfg.scale = scale;
        cfg.seed = seed;
        cfg.iosched = sched.to_string();
        let r = run_experiment(&cfg);
        println!(
            "  {sched:<7}: mean {:.3} ms  p99 {:.3} ms  mean-queue {:.2}",
            r.report.mean_ms(),
            r.report.latency.quantile(0.99),
            r.mean_queue
        );
    }
}

/// A4 — disk controller cache features on/off.
pub fn ablate_diskcache(scale: f64, seed: u64) {
    println!("== A4: disk cache (immediate-report + read-ahead) on/off (trace 1a) ==");
    let trace = preset("1a").expect("preset");
    for (label, off) in [("on", false), ("off", true)] {
        let mut cfg = ExperimentConfig::new(Policy::WriteDelay, trace.clone());
        cfg.scale = scale;
        cfg.seed = seed;
        cfg.no_disk_cache = off;
        let r = run_experiment(&cfg);
        println!(
            "  disk cache {label:<3}: mean {:.3} ms  write-mean {:.3} ms",
            r.report.mean_ms(),
            r.report.write_latency.mean()
        );
    }
}

/// A5 — NVRAM size sweep (Baker et al.'s open question).
pub fn ablate_nvram(scale: f64, seed: u64) {
    println!("== A5: NVRAM size sweep (trace 1b, nvram-whole) ==");
    let trace = preset("1b").expect("preset");
    for mb in [1u64, 2, 4, 8, 16, 32] {
        let mut cfg = ExperimentConfig::new(Policy::NvramWhole, trace.clone());
        cfg.scale = scale;
        cfg.seed = seed;
        cfg.nvram_bytes = mb * 1024 * 1024;
        let r = run_experiment(&cfg);
        println!(
            "  {mb:>3} MB: mean {:.3} ms  stalls {:>6}  flushed {:>7} blocks",
            r.report.mean_ms(),
            r.nvram_stalls,
            r.blocks_flushed
        );
    }
    println!("  (diminishing returns justify the paper's move to a UPS instead)");
}

/// A6 — LFS cleaner policies (greedy vs cost-benefit) lives in the
/// `lfs_cleaner` example, which drives the cleaner directly; here we
/// compare end-to-end under trace load with small segments.
pub fn ablate_cleaner(scale: f64, seed: u64) {
    println!("== A6: LFS cleaner under trace load — see also examples/lfs_cleaner ==");
    // End-to-end effect is indirect; report segment churn per policy.
    let trace = preset("1a").expect("preset");
    let mut cfg = ExperimentConfig::new(Policy::Ups, trace);
    cfg.scale = scale;
    cfg.seed = seed;
    let r = run_experiment(&cfg);
    println!(
        "  cost-benefit (default): {} segments written, {} cleaned, {} blocks moved",
        r.layout.segments_written, r.layout.segments_cleaned, r.layout.cleaner_moved
    );
    println!("  (the disk is large relative to scaled traces; run examples/lfs_cleaner");
    println!("   for a utilization-controlled greedy-vs-cost-benefit comparison)");
}
