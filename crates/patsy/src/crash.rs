//! The crash-sweep experiment: power cuts across the trace presets,
//! recovery + fsck verification, and data-loss windows per flush policy.
//!
//! This is the scenario family the paper's off-line/on-line duality
//! exists for: a crash experiment that would be destructive on-line
//! runs here at simulation speed, deterministically. Each cell of the
//! sweep replays a trace prefix (the cut point), captures the crash
//! state (on-disk image + NVRAM contents), recovers on a fresh stack,
//! repairs with the fsck walker, replays NVRAM, and accounts losses
//! against what the workload had acknowledged — extending the paper's
//! Fig. 5 NVRAM axis to crash safety.

use cnp_cache::CacheConfig;
use cnp_core::{DataMode, FsConfig};
use cnp_disk::{FaultPlan, Hardware};
use cnp_fault::{cut_points, verify_crash_state, CrashState, LayoutKind, LossReport, Stack};
use cnp_obs::Json;
use cnp_sim::{run_cells, Sim};
use cnp_trace::{replay, ReplayOptions, SpriteParams, SyntheticSprite};

use crate::cli::CliArgs;
use crate::experiment::{Policy, POLICIES};

/// Crash-sweep configuration.
#[derive(Debug, Clone)]
pub struct CrashConfig {
    /// Workload personality.
    pub trace: SpriteParams,
    /// Cut points per (layout, policy) pair.
    pub cuts: u32,
    /// Base seed; every cell derives its own deterministic seed.
    pub seed: u64,
    /// Trace scale (fraction of the 24-hour day).
    pub scale: f64,
    /// Layouts to sweep.
    pub layouts: Vec<LayoutKind>,
    /// Flush policies to sweep.
    pub policies: Vec<Policy>,
    /// I/O pipeline depth for the doomed stack (default 1). With a
    /// depth above 1 the cut lands while a batch is in flight, so what
    /// is durable at capture reflects pipelined ordering. (Disk-level
    /// power cuts can additionally retire a seeded prefix of the
    /// outstanding writes — see [`cnp_disk::FaultPlan::cut_retire_ops`]
    /// and `cnp_fault::FaultPlanBuilder::random_cut_retire`.)
    pub queue_depth: u32,
}

impl CrashConfig {
    /// The default sweep: both recoverable layouts × all four §5.1
    /// policies.
    pub fn new(trace: SpriteParams, cuts: u32, seed: u64, scale: f64) -> Self {
        CrashConfig {
            trace,
            cuts,
            seed,
            scale,
            layouts: vec![LayoutKind::Lfs, LayoutKind::Ffs],
            policies: POLICIES.to_vec(),
            queue_depth: 1,
        }
    }
}

/// One (layout, policy, cut) cell's outcome.
#[derive(Debug, Clone)]
pub struct CrashCell {
    /// Layout name.
    pub layout: &'static str,
    /// Flush policy.
    pub policy: Policy,
    /// Operation count at which the workload was cut.
    pub cut_op: u64,
    /// Operations the workload completed before the cut.
    pub ops: u64,
    /// Segment summaries recovery read to find the log tail (LFS).
    pub scanned_segments: u64,
    /// Post-checkpoint segments rolled forward (LFS).
    pub rolled_segments: u64,
    /// Block pointers patched during roll-forward.
    pub patched_blocks: u64,
    /// Walker violations straight after recovery.
    pub violations_pre: u64,
    /// Directory entries dropped + files truncated by repair.
    pub repairs: u64,
    /// Walker violations after repair (must be 0).
    pub violations_post: u64,
    /// NVRAM blocks replayed into the recovered system.
    pub nvram_replayed: u64,
    /// Unreachable inodes the walker attached to `lost+found`.
    pub orphans_attached: u64,
    /// Recovery + repair time in virtual milliseconds.
    pub recovery_ms: f64,
    /// Time-weighted mean driver queue length in the doomed run.
    pub mean_queue: f64,
    /// Device overlap fraction in the doomed run (0 at queue depth 1).
    pub overlap: f64,
    /// Acknowledged-write loss accounting.
    pub loss: LossReport,
    /// Unified metrics of the doomed run, captured at the cut (what the
    /// engine had done when power died).
    pub metrics: cnp_obs::MetricsSnapshot,
}

/// Runs the full sweep across `threads` host threads; deterministic in
/// `cfg` (same config + seed → byte-identical cells).
pub fn run_crash_sweep(cfg: &CrashConfig, threads: usize) -> Vec<CrashCell> {
    // Generate the workload once; every cell replays a clone of it.
    let records = SyntheticSprite::new(cfg.trace.clone(), cfg.seed ^ 0xabcd).generate(cfg.scale);
    let cuts = cut_points(records.len() as u64, cfg.cuts);
    let mut specs = Vec::new();
    for (li, layout) in cfg.layouts.iter().enumerate() {
        for (pi, policy) in cfg.policies.iter().enumerate() {
            for (ci, &cut_op) in cuts.iter().enumerate() {
                let cell_seed = cfg
                    .seed
                    .wrapping_mul(0x9e37_79b9_7f4a_7c15)
                    .wrapping_add(((li as u64) << 32) ^ ((pi as u64) << 16) ^ ci as u64);
                specs.push((*layout, *policy, cut_op, cell_seed));
            }
        }
    }
    run_cells(&specs, threads, |&(layout, policy, cut_op, cell_seed)| {
        run_cell(layout, policy, cut_op, cell_seed, records.clone(), cfg.queue_depth)
    })
}

fn run_cell(
    layout_kind: LayoutKind,
    policy: Policy,
    cut_op: u64,
    cell_seed: u64,
    records: Vec<cnp_trace::TraceRecord>,
    queue_depth: u32,
) -> CrashCell {
    let sim = Sim::new(cell_seed);
    let h = sim.handle();

    // Phase A: the doomed stack.
    let (flush, nvram) = policy.cache_settings(4 * 1024 * 1024);
    let fs_cfg = FsConfig {
        cache: CacheConfig { block_size: 4096, mem_bytes: 8 * 1024 * 1024, nvram_bytes: nvram },
        flush: flush.to_string(),
        queue_depth,
        data_mode: DataMode::Simulated,
        ..FsConfig::default()
    };
    let (hw, plan) = (Hardware::default(), FaultPlan::default());
    let Stack { fs, disks, .. } =
        Stack::build(&h, "crash0", layout_kind, hw.device(), fs_cfg.clone(), plan);

    sim.block_on("crash-cell", async move {
        fs.format().await.expect("format");
        let report =
            replay(&h, &fs, records, ReplayOptions { max_ops: Some(cut_op), track_acks: true })
                .await;
        // The cut: everything volatile dies right now.
        let doomed_stats = fs.driver_stats();
        let doomed_metrics = fs.metrics();
        let state = CrashState::capture(&fs, &disks[0]).await;
        fs.shutdown();

        // Phase B: power-on, recover, verify, replay NVRAM, account —
        // the same cell verification the cnp-check enumerator runs.
        // Failures must abort the cell loudly: a half-replayed file
        // system would misattribute replay bugs as crash loss.
        let verified = verify_crash_state(&h, layout_kind, &state, &report.acked, fs_cfg)
            .await
            .expect("recovery + nvram replay");
        let loss = LossReport::account(&report.acked, &verified.sizes, state.cut_at);
        let (outcome, nvram_replayed) = (verified.outcome, verified.nvram_replayed);

        CrashCell {
            layout: layout_kind.name(),
            policy,
            cut_op,
            ops: report.ops,
            scanned_segments: outcome.stats.scanned_segments,
            rolled_segments: outcome.stats.rolled_segments,
            patched_blocks: outcome.stats.patched_blocks,
            violations_pre: outcome.pre.violations.len() as u64,
            repairs: outcome.repairs.entries_removed
                + outcome.repairs.files_truncated
                + outcome.repairs.dirs_reset,
            violations_post: outcome.post.violations.len() as u64,
            nvram_replayed,
            orphans_attached: outcome.repairs.orphans_attached,
            recovery_ms: outcome.recovery_time.as_nanos() as f64 / 1e6,
            mean_queue: doomed_stats.mean_queue_len,
            overlap: doomed_stats.overlap_fraction,
            loss,
            metrics: doomed_metrics,
        }
    })
}

/// Formats the sweep as the report the CLI prints (stable across runs:
/// the determinism check compares these bytes).
pub fn format_crash_sweep(cfg: &CrashConfig, cells: &[CrashCell]) -> String {
    let mut s = String::new();
    s.push_str(&format!(
        "crash sweep: trace {} | {} cuts | seed {} | scale {} | qd {}\n",
        cfg.trace.name, cfg.cuts, cfg.seed, cfg.scale, cfg.queue_depth
    ));
    s.push_str(
        "layout policy            cut    ops scanned  rolled patched  viol  fix  post  orph  nvram  qmean  ovl%  rec-ms  lostF  lostKB  window-ms\n",
    );
    let mut all_clean = true;
    for c in cells {
        all_clean &= c.violations_post == 0;
        s.push_str(&format!(
            "{:<6} {:<17} {:>5} {:>6} {:>7} {:>7} {:>7} {:>5} {:>4} {:>5} {:>5} {:>6} {:>6.2} {:>5.1} {:>7.2} {:>6} {:>7.1} {:>10.1}\n",
            c.layout,
            c.policy.label(),
            c.cut_op,
            c.ops,
            c.scanned_segments,
            c.rolled_segments,
            c.patched_blocks,
            c.violations_pre,
            c.repairs,
            c.violations_post,
            c.orphans_attached,
            c.nvram_replayed,
            c.mean_queue,
            c.overlap * 100.0,
            c.recovery_ms,
            c.loss.lost_files,
            c.loss.lost_bytes as f64 / 1024.0,
            c.loss.loss_window_ms,
        ));
    }
    s.push_str(&format!(
        "cells: {} | post-repair violations: {}\n",
        cells.len(),
        if all_clean {
            "none (all cells verified clean)".to_string()
        } else {
            "PRESENT".to_string()
        }
    ));
    s
}

/// Formats the sweep as a JSON document (stable bytes, like the table).
pub fn format_crash_sweep_json(cfg: &CrashConfig, cells: &[CrashCell]) -> String {
    let cell = |c: &CrashCell| {
        Json::block([
            ("layout", c.layout.into()),
            ("policy", c.policy.label().into()),
            ("cut_op", c.cut_op.into()),
            ("ops", c.ops.into()),
            ("scanned_segments", c.scanned_segments.into()),
            ("rolled_segments", c.rolled_segments.into()),
            ("patched_blocks", c.patched_blocks.into()),
            ("violations_pre", c.violations_pre.into()),
            ("repairs", c.repairs.into()),
            ("violations_post", c.violations_post.into()),
            ("nvram_replayed", c.nvram_replayed.into()),
            ("orphans_attached", c.orphans_attached.into()),
            ("recovery_ms", c.recovery_ms.into()),
            ("mean_queue", c.mean_queue.into()),
            ("overlap", c.overlap.into()),
            ("lost_files", c.loss.lost_files.into()),
            ("lost_bytes", c.loss.lost_bytes.into()),
            ("loss_window_ms", c.loss.loss_window_ms.into()),
            ("metrics", (&c.metrics).into()),
        ])
    };
    Json::block([
        ("trace", cfg.trace.name.into()),
        ("cuts", cfg.cuts.into()),
        ("seed", cfg.seed.into()),
        ("scale", Json::Exact(cfg.scale)),
        ("queue_depth", cfg.queue_depth.into()),
        ("cells", Json::Rows(cells.iter().map(cell).collect())),
        ("clean", cells.iter().all(|c| c.violations_post == 0).into()),
    ])
    .document()
}

/// CLI entry: runs the sweep and prints the report.
pub fn crash_cli(a: &CliArgs) {
    let params = cnp_trace::preset(&a.trace).expect("--trace validated by parse_cli");
    // Crash cells are numerous (layouts × policies × cuts); a smaller
    // default workload keeps the sweep snappy.
    let mut cfg = CrashConfig::new(params, a.cuts, a.seed, a.scale.unwrap_or(0.002));
    cfg.queue_depth = a.qd.unwrap_or(1);
    if let Some(layout) = a.layout {
        cfg.layouts = vec![layout];
    }
    if let Some(policy) = a.policy {
        cfg.policies = vec![policy];
    }
    let cells = run_crash_sweep(&cfg, a.threads());
    if a.json {
        print!("{}", format_crash_sweep_json(&cfg, &cells));
    } else {
        print!("{}", format_crash_sweep(&cfg, &cells));
    }
}
