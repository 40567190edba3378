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

use std::cell::RefCell;
use std::rc::Rc;

use cnp_cache::CacheConfig;
use cnp_core::{DataMode, FlushMode, FsConfig};
use cnp_disk::{FaultPlan, Hardware};
use cnp_fault::{cut_points, verify_crash_state, CrashState, LayoutKind, LossReport, Stack};
use cnp_sim::{Sim, SimTime};
use cnp_trace::{replay_with, ReplayOptions, SpriteParams, SyntheticSprite};

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
    /// I/O pipeline depth for the doomed stack (1 = lock-step). With a
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

/// Runs the full sweep; deterministic in `cfg` (same config + seed →
/// byte-identical cells).
pub fn run_crash_sweep(cfg: &CrashConfig) -> Vec<CrashCell> {
    // Generate the workload once; every cell replays a clone of it.
    let records = SyntheticSprite::new(cfg.trace.clone(), cfg.seed ^ 0xabcd).generate(cfg.scale);
    let cuts = cut_points(records.len() as u64, cfg.cuts);
    let mut cells = Vec::new();
    for (li, layout) in cfg.layouts.iter().enumerate() {
        for (pi, policy) in cfg.policies.iter().enumerate() {
            for (ci, &cut_op) in cuts.iter().enumerate() {
                let cell_seed = cfg
                    .seed
                    .wrapping_mul(0x9e37_79b9_7f4a_7c15)
                    .wrapping_add(((li as u64) << 32) ^ ((pi as u64) << 16) ^ ci as u64);
                cells.push(run_cell(
                    *layout,
                    *policy,
                    cut_op,
                    cell_seed,
                    records.clone(),
                    cfg.queue_depth,
                ));
            }
        }
    }
    cells
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
        flush_mode: FlushMode::Async,
        queue_depth,
        data_mode: DataMode::Simulated,
        ..FsConfig::default()
    };
    let (hw, plan) = (Hardware::default(), FaultPlan::default());
    let Stack { fs, disks, .. } =
        Stack::build(&h, "crash0", layout_kind, &hw, fs_cfg.clone(), plan);

    let out: Rc<RefCell<Option<CrashCell>>> = Rc::new(RefCell::new(None));
    let out2 = out.clone();
    let h2 = h.clone();
    h.spawn("crash-cell", async move {
        fs.format().await.expect("format");
        let report = replay_with(
            &h2,
            &fs,
            records,
            ReplayOptions { max_ops: Some(cut_op), track_acks: true },
        )
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
        let verified = verify_crash_state(&h2, layout_kind, &state, &report.acked, fs_cfg)
            .await
            .expect("recovery + nvram replay");
        let (outcome, nvram_replayed, loss) =
            (verified.outcome, verified.nvram_replayed, verified.loss);

        *out2.borrow_mut() = Some(CrashCell {
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
        });
    });
    sim.run_until(SimTime::from_nanos(u64::MAX / 2));
    let cell = out.borrow_mut().take().expect("crash cell did not finish");
    cell
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
/// Hand-rolled — the repo carries no serialization dependency; every
/// embedded name comes from a fixed internal vocabulary.
pub fn format_crash_sweep_json(cfg: &CrashConfig, cells: &[CrashCell]) -> String {
    let mut s = String::new();
    s.push_str("{\n");
    s.push_str(&format!("  \"trace\": \"{}\",\n", cfg.trace.name));
    s.push_str(&format!("  \"cuts\": {},\n", cfg.cuts));
    s.push_str(&format!("  \"seed\": {},\n", cfg.seed));
    s.push_str(&format!("  \"scale\": {},\n", cfg.scale));
    s.push_str(&format!("  \"queue_depth\": {},\n", cfg.queue_depth));
    s.push_str("  \"cells\": [\n");
    for (i, c) in cells.iter().enumerate() {
        s.push_str("    {\n");
        s.push_str(&format!("      \"layout\": \"{}\",\n", c.layout));
        s.push_str(&format!("      \"policy\": \"{}\",\n", c.policy.label()));
        s.push_str(&format!("      \"cut_op\": {},\n", c.cut_op));
        s.push_str(&format!("      \"ops\": {},\n", c.ops));
        s.push_str(&format!("      \"scanned_segments\": {},\n", c.scanned_segments));
        s.push_str(&format!("      \"rolled_segments\": {},\n", c.rolled_segments));
        s.push_str(&format!("      \"patched_blocks\": {},\n", c.patched_blocks));
        s.push_str(&format!("      \"violations_pre\": {},\n", c.violations_pre));
        s.push_str(&format!("      \"repairs\": {},\n", c.repairs));
        s.push_str(&format!("      \"violations_post\": {},\n", c.violations_post));
        s.push_str(&format!("      \"nvram_replayed\": {},\n", c.nvram_replayed));
        s.push_str(&format!("      \"orphans_attached\": {},\n", c.orphans_attached));
        s.push_str(&format!("      \"recovery_ms\": {:.6},\n", c.recovery_ms));
        s.push_str(&format!("      \"mean_queue\": {:.6},\n", c.mean_queue));
        s.push_str(&format!("      \"overlap\": {:.6},\n", c.overlap));
        s.push_str(&format!("      \"lost_files\": {},\n", c.loss.lost_files));
        s.push_str(&format!("      \"lost_bytes\": {},\n", c.loss.lost_bytes));
        s.push_str(&format!("      \"loss_window_ms\": {:.6},\n", c.loss.loss_window_ms));
        s.push_str(&format!("      \"metrics\": {}\n", c.metrics.to_json(6)));
        s.push_str(&format!("    }}{}\n", if i + 1 < cells.len() { "," } else { "" }));
    }
    s.push_str("  ],\n");
    let all_clean = cells.iter().all(|c| c.violations_post == 0);
    s.push_str(&format!("  \"clean\": {all_clean}\n"));
    s.push_str("}\n");
    s
}

/// CLI entry: runs the sweep and prints the report.
#[allow(clippy::too_many_arguments)]
pub fn crash_cli(
    trace: &str,
    cuts: u32,
    seed: u64,
    scale: f64,
    layout: Option<&str>,
    policy: Option<&str>,
    queue_depth: u32,
    json: bool,
) {
    let Some(params) = cnp_trace::preset(trace) else {
        eprintln!("unknown trace {trace} (1a|1b|2a|2b|5)");
        std::process::exit(2);
    };
    let mut cfg = CrashConfig::new(params, cuts, seed, scale);
    cfg.queue_depth = queue_depth;
    if let Some(l) = layout {
        let Some(kind) = LayoutKind::parse(l) else {
            eprintln!("unknown layout {l} (lfs|ffs)");
            std::process::exit(2);
        };
        cfg.layouts = vec![kind];
    }
    if let Some(p) = policy {
        let Some(policy) = Policy::parse(p) else {
            eprintln!("unknown policy {p} (write-delay|ups|nvram-whole|nvram-partial)");
            std::process::exit(2);
        };
        cfg.policies = vec![policy];
    }
    let cells = run_crash_sweep(&cfg);
    if json {
        print!("{}", format_crash_sweep_json(&cfg, &cells));
    } else {
        print!("{}", format_crash_sweep(&cfg, &cells));
    }
}
