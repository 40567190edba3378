//! The `patsy bench-snapshot` subcommand: the repo's per-PR perf
//! trajectory.
//!
//! Runs a canonical set of cells — the seed-42 zipf client sweep at 16
//! and 256 clients, the bounded crash-point check at budget 500, the
//! queue-depth × scheduler sweep (on the HP and on the flash
//! generation), and a 64-client serve cell — and appends one record (headline
//! numbers + per-phase wall-time breakdown) to a trajectory file,
//! `BENCH_trajectory.json` by default. The headline numbers are
//! *virtual-time* figures, so they are deterministic: two runs of the
//! same build append records that differ only in wall times and label.
//!
//! With `--baseline <path>` the run reads the last committed record and
//! fails (exit 1) when the tier-1 cell — 256-client zipf aggregate
//! throughput — regressed by more than [`REGRESSION_TOLERANCE`]. CI
//! runs exactly that against the committed trajectory, so a PR that
//! costs more than 20% of fleet throughput turns the build red.

use std::time::Instant;

use cnp_check::{
    run_check_with, run_history_check, CellCache, CheckConfig, CheckOptions, HistoryCheckConfig,
    LinConfig,
};
use cnp_disk::Hardware;
use cnp_fault::LayoutKind;
use cnp_trace::SyntheticSprite;
use cnp_workload::WorkloadKind;

use crate::clients::{run_client_cell, ClientSweepConfig};
use crate::qdsweep::{run_depth_cell, run_qd_sweep, trace_footprint};
use crate::serve::{run_serve_cell, ServeBenchConfig};

/// The canonical seed every bench cell derives from.
pub const BENCH_SEED: u64 = 42;

/// Default trajectory path (repo root, committed).
pub const DEFAULT_OUT: &str = "BENCH_trajectory.json";

/// Allowed fractional drop of the tier-1 throughput vs the baseline
/// before the gate fails (0.20 = fail below 80% of the baseline).
pub const REGRESSION_TOLERANCE: f64 = 0.20;

/// One phase's outcome: a name, its wall time, and the headline
/// key/value numbers it contributes to the record.
struct Phase {
    name: &'static str,
    wall_ms: f64,
    /// `(key, formatted JSON value)` pairs, already stable-formatted.
    values: Vec<(String, String)>,
}

fn timed<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let t0 = Instant::now();
    let r = f();
    (r, t0.elapsed().as_secs_f64() * 1000.0)
}

/// Runs the canonical cells and returns the phases in reporting order.
fn run_phases() -> Vec<Phase> {
    let mut phases = Vec::new();

    // Phase 1+2: the client sweep at 16 and 256 clients. The 256-client
    // cell is the tier-1 number the regression gate watches.
    let workload = WorkloadKind::parse("zipf").expect("zipf is a known workload");
    let cfg = ClientSweepConfig::new(workload, vec![16, 256], BENCH_SEED, 0.02);
    for &n in &[16u32, 256] {
        let (cell, wall_ms) = timed(|| run_client_cell(&cfg, n));
        let tier1 = n == 256;
        let prefix = if tier1 { "tier1".to_string() } else { format!("c{n}") };
        let mut values = vec![
            (format!("{prefix}_agg_ops_per_sec"), format!("{:.6}", cell.agg_ops_per_sec)),
            (format!("{prefix}_mean_ms"), format!("{:.6}", cell.report.mean_ms())),
            (format!("{prefix}_p99_ms"), format!("{:.6}", cell.report.p99_ms())),
            (format!("{prefix}_fairness"), format!("{:.6}", cell.fairness)),
            (format!("{prefix}_ops"), format!("{}", cell.report.ops)),
        ];
        if tier1 {
            values.push(("tier1_lock_wait_ms".to_string(), format!("{:.6}", cell.lock_wait_ms())));
        }
        phases.push(Phase {
            name: if tier1 { "sweep-clients-256" } else { "sweep-clients-16" },
            wall_ms,
            values,
        });
    }

    // Phase 3: the bounded crash-point check (budget 500) plus the
    // history (linearizability) leg — the correctness canary. Seed and
    // queue depth mirror CI's tier-1 `patsy check` cell (seed 365,
    // qd 8), so `check_clean` going false means a regression
    // against the same cell CI already gates on. The cold leg runs
    // threaded (the host's parallelism) and fills an in-memory cell
    // cache; the warm leg reruns against it, so the trajectory records
    // both the parallel wall time and the incremental replay time.
    let threads = crate::check::default_threads();
    let mut cell_cache = CellCache::new();
    let ((check, lin), wall_ms) = timed(|| {
        let params = cnp_trace::preset("1a").expect("known trace");
        let records = SyntheticSprite::new(params, 365 ^ 0xabcd).generate(0.002);
        let mut check_cfg = CheckConfig::new(records, "1a", 500);
        check_cfg.seed = 365;
        check_cfg.queue_depth = 8;
        let report = run_check_with(
            &check_cfg,
            CheckOptions { threads, cache: Some(&mut cell_cache), progress: None },
        );
        let lin_cfg = HistoryCheckConfig {
            kind: workload,
            clients: 4,
            seed: 365,
            scale: 0.002,
            layout: LayoutKind::Lfs,
            queue_depth: 8,
            lin: LinConfig::default(),
        };
        let lin = run_history_check(&lin_cfg);
        (report, lin)
    });
    phases.push(Phase {
        name: "check-budget-500",
        wall_ms,
        values: vec![
            ("check_cells".to_string(), format!("{}", check.cells)),
            ("check_violations".to_string(), format!("{}", check.violations)),
            ("check_clean".to_string(), format!("{}", check.clean())),
            ("check_threads".to_string(), format!("{threads}")),
            ("linearizable".to_string(), format!("{}", lin.outcome.is_linearizable())),
        ],
    });

    // Phase 3b: the warm-cache rerun of the same enumeration — the
    // incremental checker's headline. Hit rate is deterministic (1.0:
    // nothing changed between the legs); the wall time is the cost of
    // re-verifying an unchanged tree.
    let (warm, warm_wall_ms) = timed(|| {
        let params = cnp_trace::preset("1a").expect("known trace");
        let records = SyntheticSprite::new(params, 365 ^ 0xabcd).generate(0.002);
        let mut check_cfg = CheckConfig::new(records, "1a", 500);
        check_cfg.seed = 365;
        check_cfg.queue_depth = 8;
        run_check_with(
            &check_cfg,
            CheckOptions { threads, cache: Some(&mut cell_cache), progress: None },
        )
    });
    phases.push(Phase {
        name: "check-budget-500-warm",
        wall_ms: warm_wall_ms,
        values: vec![
            ("check_warm_hit_rate".to_string(), format!("{:.6}", warm.stats.hit_rate())),
            ("check_warm_cells".to_string(), format!("{}", warm.cells)),
        ],
    });

    // Phase 4: the queue-depth × scheduler sweep; the headline is the
    // deepest C-LOOK cell (the schedulers' whole reason to exist).
    let hp_hw = Hardware::default();
    let (rows, wall_ms) = timed(|| run_qd_sweep("1a", 0.05, BENCH_SEED, &hp_hw));
    let qd = hp_hw.depths().last().expect("the sweep visits at least one depth");
    let mut values = Vec::new();
    if let Some((_, cells)) = rows.iter().find(|(s, _)| *s == "c-look") {
        if let Some(c) = cells.last() {
            values.push((format!("clook_qd{qd}_service_ms"), format!("{:.6}", c.mean_service_ms)));
            values.push((format!("clook_qd{qd}_makespan_ms"), format!("{:.6}", c.makespan_ms)));
        }
    }
    if let Some((_, cells)) = rows.iter().find(|(s, _)| *s == "fcfs") {
        if let Some(c) = cells.last() {
            values.push((format!("fcfs_qd{qd}_service_ms"), format!("{:.6}", c.mean_service_ms)));
        }
    }
    phases.push(Phase { name: "sweep-qd", wall_ms, values });

    // Phase 5: the serving tier — 64 NFS clients through the full wire
    // path (XDR, sessions, file handles, admission, the attr/lookup
    // cache). Wire throughput and cache hit rates are virtual-time
    // figures, so they are deterministic like every other headline.
    let serve_cfg = ServeBenchConfig::new(workload, vec![64], BENCH_SEED, 0.02);
    let (cell, wall_ms) = timed(|| run_serve_cell(&serve_cfg, 64));
    phases.push(Phase {
        name: "serve-bench-64",
        wall_ms,
        values: vec![
            ("serve_wire_ops_per_sec".to_string(), format!("{:.6}", cell.wire_ops_per_sec)),
            ("serve_requests".to_string(), format!("{}", cell.wire_requests)),
            ("serve_errors".to_string(), format!("{}", cell.errors)),
            ("serve_lookup_hit_rate".to_string(), format!("{:.6}", cell.lookup_hit_rate)),
            ("serve_attr_hit_rate".to_string(), format!("{:.6}", cell.attr_hit_rate)),
        ],
    });

    // Phase 6: the second hardware generation. FCFS at qd 64 is the
    // flash headline (on flash the scheduler choice stops mattering and
    // the queue depth starts to); the C-LOOK/FCFS makespan ratio
    // documents the scheduler tie the generation is supposed to produce
    // (~1.0, vs the clear win C-LOOK shows on the HP above). Keys are
    // append-only, so the tier-1 lexical scan and gate are untouched.
    let ssd_hw = Hardware { disk: "ssd", ..Hardware::default() };
    let (ssd_values, wall_ms) = timed(|| {
        use cnp_disk::DiskModel as _;
        let capacity = cnp_disk::Ssd::new().geometry().capacity_sectors();
        let reqs = trace_footprint("1a", 0.05, BENCH_SEED, capacity);
        let fcfs8 = run_depth_cell(&reqs, "fcfs", 8, BENCH_SEED, &ssd_hw);
        let fcfs64 = run_depth_cell(&reqs, "fcfs", 64, BENCH_SEED, &ssd_hw);
        let clook64 = run_depth_cell(&reqs, "c-look", 64, BENCH_SEED, &ssd_hw);
        vec![
            ("ssd_fcfs_qd8_makespan_ms".to_string(), format!("{:.6}", fcfs8.makespan_ms)),
            ("ssd_fcfs_qd64_makespan_ms".to_string(), format!("{:.6}", fcfs64.makespan_ms)),
            ("ssd_fcfs_qd64_service_ms".to_string(), format!("{:.6}", fcfs64.mean_service_ms)),
            ("ssd_fcfs_qd64_overlap".to_string(), format!("{:.6}", fcfs64.overlap)),
            (
                "ssd_clook_over_fcfs_qd64".to_string(),
                format!("{:.6}", clook64.makespan_ms / fcfs64.makespan_ms),
            ),
        ]
    });
    phases.push(Phase { name: "sweep-qd-ssd", wall_ms, values: ssd_values });

    phases
}

/// Formats one trajectory record. Everything except `wall_ms` values
/// and the label is deterministic.
fn format_record(label: Option<&str>, phases: &[Phase]) -> String {
    let mut s = String::new();
    s.push_str("  {\n");
    s.push_str(&format!(
        "    \"label\": \"{}\",\n",
        cnp_obs::metrics::json_escape(label.unwrap_or("unlabeled"))
    ));
    s.push_str(&format!("    \"seed\": {BENCH_SEED},\n"));
    s.push_str("    \"phases\": [\n");
    for (i, p) in phases.iter().enumerate() {
        s.push_str(&format!(
            "      {{\"name\": \"{}\", \"wall_ms\": {:.1}}}{}\n",
            p.name,
            p.wall_ms,
            if i + 1 < phases.len() { "," } else { "" },
        ));
    }
    s.push_str("    ],\n");
    let values: Vec<&(String, String)> = phases.iter().flat_map(|p| &p.values).collect();
    for (i, (k, v)) in values.iter().enumerate() {
        s.push_str(&format!("    \"{k}\": {v}{}\n", if i + 1 < values.len() { "," } else { "" }));
    }
    s.push_str("  }");
    s
}

/// Appends `record` to the JSON array at `path`, creating the file if
/// missing. Pure text splicing — the array stays human-diffable and no
/// JSON parser enters the tree.
fn append_record(path: &str, record: &str) -> std::io::Result<()> {
    let body = match std::fs::read_to_string(path) {
        Ok(s) => s,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => String::new(),
        Err(e) => return Err(e),
    };
    let out = match body.rfind(']') {
        Some(close) => {
            // Non-empty array? Splice `, record` before the closer.
            let has_records = body[..close].contains('{');
            let sep = if has_records { ",\n" } else { "" };
            format!("{}{sep}{record}\n]\n", body[..close].trim_end())
        }
        None => format!("[\n{record}\n]\n"),
    };
    std::fs::write(path, out)
}

/// Scans a trajectory file for the *last* `"tier1_agg_ops_per_sec"`
/// value (the most recent committed record). No JSON parser: the key is
/// machine-written by `format_record`, so a lexical scan suffices.
pub fn baseline_tier1(body: &str) -> Option<f64> {
    let key = "\"tier1_agg_ops_per_sec\":";
    let at = body.rfind(key)?;
    let rest = body[at + key.len()..].trim_start();
    let end = rest.find([',', '\n', '}']).unwrap_or(rest.len());
    rest[..end].trim().parse().ok()
}

/// CLI entry. Runs the canonical cells, appends the record to `out`
/// (default [`DEFAULT_OUT`]), and — when `baseline` names a trajectory
/// file with a tier-1 number — enforces the regression gate. Returns
/// the process exit code.
pub fn bench_snapshot_cli(out: Option<&str>, label: Option<&str>, baseline: Option<&str>) -> i32 {
    // Read the baseline *before* appending: the baseline and the output
    // are usually the same committed file.
    let baseline_value = match baseline {
        Some(path) => match std::fs::read_to_string(path) {
            Ok(body) => match baseline_tier1(&body) {
                Some(v) => Some(v),
                None => {
                    eprintln!("baseline {path} has no tier1_agg_ops_per_sec record");
                    return 2;
                }
            },
            Err(e) => {
                eprintln!("failed to read baseline {path}: {e}");
                return 2;
            }
        },
        None => None,
    };

    let phases = run_phases();
    println!("== bench-snapshot (seed {BENCH_SEED}) ==");
    for p in &phases {
        println!("  {:<18} {:>8.1} ms wall", p.name, p.wall_ms);
        for (k, v) in &p.values {
            println!("    {k:<28} {v}");
        }
    }
    let record = format_record(label, &phases);
    let path = out.unwrap_or(DEFAULT_OUT);
    if let Err(e) = append_record(path, &record) {
        eprintln!("failed to append to {path}: {e}");
        return 2;
    }
    println!("  appended record -> {path}");

    if let Some(base) = baseline_value {
        let tier1: f64 = phases
            .iter()
            .flat_map(|p| &p.values)
            .find(|(k, _)| k == "tier1_agg_ops_per_sec")
            .and_then(|(_, v)| v.parse().ok())
            .expect("the 256-client phase always reports tier1_agg_ops_per_sec");
        let floor = base * (1.0 - REGRESSION_TOLERANCE);
        println!("  tier-1 gate: {tier1:.1} agg-ops/s vs baseline {base:.1} (floor {floor:.1})");
        if tier1 < floor {
            eprintln!(
                "REGRESSION: tier-1 256-client throughput {tier1:.1} fell below \
                 {:.0}% of the baseline {base:.1}",
                (1.0 - REGRESSION_TOLERANCE) * 100.0
            );
            return 1;
        }
    }
    0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn baseline_scan_finds_last_record() {
        let body =
            "[\n  {\"tier1_agg_ops_per_sec\": 100.5},\n  {\"tier1_agg_ops_per_sec\": 200.25}\n]\n";
        assert_eq!(baseline_tier1(body), Some(200.25));
        assert_eq!(baseline_tier1("[]"), None);
    }

    #[test]
    fn record_append_splices_into_array() {
        let dir = std::env::temp_dir().join(format!("cnp-bench-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("traj.json");
        let path = path.to_str().unwrap();
        let _ = std::fs::remove_file(path);
        let rec1 = "  {\n    \"tier1_agg_ops_per_sec\": 1.000000\n  }";
        append_record(path, rec1).unwrap();
        let rec2 = "  {\n    \"tier1_agg_ops_per_sec\": 2.000000\n  }";
        append_record(path, rec2).unwrap();
        let body = std::fs::read_to_string(path).unwrap();
        assert!(body.starts_with("[\n"), "{body}");
        assert!(body.trim_end().ends_with(']'), "{body}");
        assert_eq!(body.matches("tier1_agg_ops_per_sec").count(), 2, "{body}");
        assert_eq!(baseline_tier1(&body), Some(2.0));
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn record_format_is_labeled_and_closed() {
        let phases = vec![Phase {
            name: "sweep-qd",
            wall_ms: 12.5,
            values: vec![("tier1_agg_ops_per_sec".to_string(), "42.000000".to_string())],
        }];
        let r = format_record(Some("pr7"), &phases);
        assert!(r.contains("\"label\": \"pr7\""), "{r}");
        assert!(r.contains("\"tier1_agg_ops_per_sec\": 42.000000"), "{r}");
        assert!(r.trim_end().ends_with('}'), "{r}");
    }
}
