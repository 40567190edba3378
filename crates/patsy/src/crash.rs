//! The crash-sweep experiment: power cuts across the trace presets,
//! recovery + fsck verification, and data-loss windows per flush policy.
//!
//! This is the scenario family the paper's off-line/on-line duality
//! exists for: a crash experiment that would be destructive on-line
//! runs here at simulation speed, deterministically. Each cell of the
//! sweep is the crash checker's graceful boundary cell
//! ([`cnp_check::run_sampled_cell`]) at a sampled cut: it replays the
//! trace prefix up to the cut, captures the crash state (on-disk image
//! and NVRAM contents), recovers it in a simulation of its own, repairs
//! with the fsck walker, replays NVRAM, and judges the result with the
//! checker's oracle — extending the paper's Fig. 5 NVRAM axis to crash
//! safety at the paper's 8 MB cache and 4 MB NVRAM.

use cnp_check::{run_sampled_cell, CellOutcome, CellSpec, CellViolation, RecoveryCounts};
use cnp_fault::{cut_points, LayoutKind, Policy, POLICIES};
use cnp_obs::{Json, MetricsSnapshot};
use cnp_sim::run_cells;
use cnp_trace::{SpriteParams, SyntheticSprite};

use crate::cli::CliArgs;

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
    /// The checker's verdict on the cell: ops run, NVRAM replayed,
    /// post-repair fsck, acked loss and the oracle's violations.
    pub outcome: CellOutcome,
    /// What recovery did.
    pub recovery: RecoveryCounts,
    /// Unified metrics of the doomed run, captured at the cut (what the
    /// engine had done when power died).
    pub metrics: MetricsSnapshot,
}

/// The sweep's cells over a workload of `records` ops, in report order:
/// each cell's policy, cut op and spec.
pub fn sweep_cells(cfg: &CrashConfig, records: usize) -> Vec<(Policy, u64, CellSpec)> {
    let cuts = cut_points(records as u64, cfg.cuts);
    let mut specs = Vec::new();
    for (li, layout) in cfg.layouts.iter().enumerate() {
        for (pi, policy) in cfg.policies.iter().enumerate() {
            for (ci, &cut_op) in cuts.iter().enumerate() {
                let sim_seed = cfg
                    .seed
                    .wrapping_mul(0x9e37_79b9_7f4a_7c15)
                    .wrapping_add(((li as u64) << 32) ^ ((pi as u64) << 16) ^ ci as u64);
                let (mem, nvram) = (8 * 1024 * 1024, 4 * 1024 * 1024);
                let spec = CellSpec::new(*layout, *policy, mem, nvram, cfg.queue_depth, sim_seed);
                specs.push((*policy, cut_op, spec));
            }
        }
    }
    specs
}

/// Runs the full sweep across `threads` host threads; deterministic in
/// `cfg` (same config + seed → byte-identical cells).
pub fn run_crash_sweep(cfg: &CrashConfig, threads: usize) -> Vec<CrashCell> {
    // Generate the workload once; every cell replays a prefix of it.
    let records = SyntheticSprite::new(cfg.trace.clone(), cfg.seed ^ 0xabcd).generate(cfg.scale);
    run_cells(&sweep_cells(cfg, records.len()), threads, |(policy, cut_op, spec)| {
        let prefix = &records[..(*cut_op as usize).min(records.len())];
        let (outcome, recovery, metrics) = run_sampled_cell(spec, prefix);
        let (layout, policy, cut_op) = (spec.layout.name(), *policy, *cut_op);
        CrashCell { layout, policy, cut_op, outcome, recovery, metrics }
    })
}

/// The footer's count of the oracle's violations by kind, or `None`
/// when every cell verified clean.
fn violation_summary(cells: &[CrashCell]) -> Option<String> {
    let (mut fsck, mut loss, mut failed) = (0, 0, 0);
    for v in cells.iter().flat_map(|c| &c.outcome.violations) {
        match v {
            CellViolation::FsckDirty { .. } => fsck += 1,
            CellViolation::AckedLoss { .. } => loss += 1,
            CellViolation::RecoveryFailed { .. } => failed += 1,
        }
    }
    (fsck + loss + failed > 0).then(|| {
        format!("fsck dirty {fsck}, acked loss under NVRAM {loss}, recovery failed {failed}")
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
    for c in cells {
        let (o, r) = (&c.outcome, &c.recovery);
        s.push_str(&format!(
            "{:<6} {:<17} {:>5} {:>6} {:>7} {:>7} {:>7} {:>5} {:>4} {:>5} {:>5} {:>6} {:>6.2} {:>5.1} {:>7.2} {:>6} {:>7.1} {:>10.1}\n",
            c.layout,
            c.policy.label(),
            c.cut_op,
            o.ops,
            r.scanned_segments,
            r.rolled_segments,
            r.patched_blocks,
            r.violations_pre,
            r.repairs,
            o.fsck_post,
            r.orphans_attached,
            o.nvram_replayed,
            c.metrics.gauge_value("disk.mean_queue_len"),
            c.metrics.gauge_value("disk.overlap_fraction") * 100.0,
            r.recovery_ms,
            o.loss.lost_files,
            o.loss.lost_bytes as f64 / 1024.0,
            o.loss.loss_window_ms,
        ));
    }
    s.push_str(&format!(
        "cells: {} | violations: {}\n",
        cells.len(),
        violation_summary(cells).unwrap_or_else(|| "none (all cells verified clean)".to_string())
    ));
    s
}

/// Formats the sweep as a JSON document (stable bytes, like the table).
pub fn format_crash_sweep_json(cfg: &CrashConfig, cells: &[CrashCell]) -> String {
    let cell = |c: &CrashCell| {
        let (o, r) = (&c.outcome, &c.recovery);
        let violations = o.violations.iter().map(|v| Json::Str(v.to_string())).collect();
        Json::block([
            ("layout", c.layout.into()),
            ("policy", c.policy.label().into()),
            ("cut_op", c.cut_op.into()),
            ("ops", o.ops.into()),
            ("scanned_segments", r.scanned_segments.into()),
            ("rolled_segments", r.rolled_segments.into()),
            ("patched_blocks", r.patched_blocks.into()),
            ("violations_pre", r.violations_pre.into()),
            ("repairs", r.repairs.into()),
            ("violations_post", o.fsck_post.into()),
            ("nvram_replayed", o.nvram_replayed.into()),
            ("orphans_attached", r.orphans_attached.into()),
            ("recovery_ms", r.recovery_ms.into()),
            ("mean_queue", c.metrics.gauge_value("disk.mean_queue_len").into()),
            ("overlap", c.metrics.gauge_value("disk.overlap_fraction").into()),
            ("lost_files", o.loss.lost_files.into()),
            ("lost_bytes", o.loss.lost_bytes.into()),
            ("loss_window_ms", o.loss.loss_window_ms.into()),
            ("violations", Json::List(violations)),
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
        ("clean", cells.iter().all(|c| c.outcome.clean()).into()),
    ])
    .document()
}

/// CLI entry: runs the sweep and prints the report. Returns the
/// process exit status: 1 if any cell broke the checker's oracle, as
/// `patsy check` does (2 for a trace preset `parse_cli` should have
/// refused). Rerunning the same command reproduces a failing cell.
pub fn crash_cli(a: &CliArgs) -> i32 {
    let Some(params) = cnp_trace::preset(&a.trace) else {
        eprintln!("unknown trace preset {}", a.trace);
        return 2;
    };
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
    exit_status(&cells)
}

/// 1 if any cell broke the oracle, else 0.
fn exit_status(cells: &[CrashCell]) -> i32 {
    i32::from(cells.iter().any(|c| !c.outcome.clean()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use cnp_fault::LossReport;

    #[test]
    fn an_acked_loss_fails_the_sweep() {
        let cfg = CrashConfig::new(cnp_trace::trace_1a(), 1, 42, 0.002);
        let loss =
            LossReport { acked_files: 3, lost_files: 1, lost_bytes: 4096, loss_window_ms: 2.5 };
        let mut cell = CrashCell {
            layout: "ffs",
            policy: Policy::NvramPartial,
            cut_op: 7,
            outcome: CellOutcome {
                ops: 7,
                errors: 0,
                cut_at_ns: 9_000_000,
                arrival_ns: 8_000_000,
                inflight_batch: 0,
                staging_sealed: true,
                nvram_replayed: 2,
                fsck_post: 0,
                loss,
                violations: vec![CellViolation::AckedLoss { files: 1, bytes: 4096 }],
            },
            recovery: RecoveryCounts::default(),
            metrics: MetricsSnapshot::new(),
        };
        let cells = [cell.clone()];
        let table = format_crash_sweep(&cfg, &cells);
        assert!(
            table.ends_with(
                "cells: 1 | violations: fsck dirty 0, acked loss under NVRAM 1, recovery failed 0\n"
            ),
            "{table}"
        );
        let json = format_crash_sweep_json(&cfg, &cells);
        assert!(json.contains("acked loss under NVRAM (1 files, 4096 bytes)"), "{json}");
        assert!(json.contains("\"clean\": false"), "{json}");
        assert_eq!(exit_status(&cells), 1);

        cell.outcome.violations.clear();
        let cells = [cell];
        assert!(format_crash_sweep(&cfg, &cells).ends_with("none (all cells verified clean)\n"));
        assert_eq!(exit_status(&cells), 0);
    }
}
