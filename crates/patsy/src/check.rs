//! The `patsy check` subcommand: bounded crash-point model checking
//! plus the multi-client history (linearizability) leg.
//!
//! `patsy crash` *samples* cut points; `check` *enumerates* them — for
//! a bounded workload prefix, every op boundary and every legal retire
//! prefix of the in-flight write batch, per layout × flush-policy cell
//! — then runs a multi-client scenario with history recording and
//! demands a sequential witness. Deterministic: the same flags print
//! byte-identical reports. Exit status 1 when any cell or the witness
//! search found a violation (CI turns that into a red build and
//! uploads the emitted repro blobs).

use cnp_check::{
    format_check_report, format_history_report, run_check_with, run_history_check, CellCache,
    CheckConfig, CheckOptions, CheckProgress, CheckReport, HistoryCheckConfig, HistoryCheckReport,
    LinConfig, Repro,
};
use cnp_obs::Json;
use cnp_trace::SyntheticSprite;

use crate::cli::CliArgs;

/// Runs the full `check`: enumeration + history leg. Returns the
/// process exit code (0 = everything verified).
pub fn check_cli(a: &CliArgs) -> i32 {
    // Enumeration replays O(budget²) prefix ops per cell: the crash
    // sweep's small default workload keeps it exhaustive *and*
    // tractable.
    let scale = a.scale.unwrap_or(0.002);
    let check = check_config(a, scale);
    // The incremental cache: a corrupt or version-mismatched file must
    // never fail a check — warn and recheck cold instead.
    let mut cache = match &a.cache_file {
        Some(path) => match CellCache::load(path) {
            Ok(c) => Some(c),
            Err(e) => {
                eprintln!("cache-file {path} unusable ({e}); rechecking cold");
                Some(CellCache::new())
            }
        },
        None => None,
    };
    // Long enumerations print a progress line every 1000 cells to
    // stderr (suppressed under --json: scripted consumers get exactly
    // the report bytes and nothing else).
    let mut print_progress = |p: CheckProgress| {
        let rate = p.cells_done as f64 / p.elapsed.as_secs_f64().max(1e-9);
        eprintln!(
            "check: {} cells | {}/{} boundaries | {:.0} cells/s | eta {:.0}s",
            p.cells_done,
            p.units_done,
            p.units_total,
            rate,
            p.eta_secs(),
        );
    };
    let report = run_check_with(
        &check,
        CheckOptions {
            threads: a.threads(),
            cache: cache.as_mut(),
            progress: (!a.json)
                .then_some(&mut print_progress as &mut (dyn FnMut(CheckProgress) + Send)),
        },
    );
    if let (Some(path), Some(cache)) = (&a.cache_file, &cache) {
        if let Err(e) = cache.save(path) {
            eprintln!("failed to write cache-file {path}: {e}");
        }
    }
    if !a.json {
        // Execution profile — stderr only, so the stdout report stays
        // byte-identical at every thread count and cache state.
        eprint!("{}", report.stats.metrics().to_table());
    }
    let lin_cfg = HistoryCheckConfig {
        kind: a.workload,
        // A small fixed fleet unless asked.
        clients: a.clients.as_ref().map_or(4, |c| c[0]),
        seed: a.seed,
        scale,
        layout: check.layouts[0],
        queue_depth: check.queue_depth,
        lin: LinConfig::default(),
    };
    let lin = run_history_check(&lin_cfg);
    if a.json {
        print!("{}", format_check_json(&check, &report, &lin_cfg, &lin));
    } else {
        print!("{}", format_check_report(&check, &report));
        print!("{}", format_history_report(&lin_cfg, &lin));
    }

    let blobs = report.repro_blobs();
    if let (Some(path), false) = (&a.repro_out, blobs.is_empty()) {
        if let Err(e) = std::fs::write(path, blobs.join("\n") + "\n") {
            eprintln!("failed to write {path}: {e}");
        }
    }
    if report.clean() && lin.outcome.is_linearizable() {
        0
    } else {
        1
    }
}

/// The enumeration `a` asks for, over its trace at `scale`: `--layout`
/// and `--policy` each keep one row of their axis.
pub(crate) fn check_config(a: &CliArgs, scale: f64) -> CheckConfig {
    let params = cnp_trace::preset(&a.trace).expect("--trace validated by parse_cli");
    let records = SyntheticSprite::new(params, a.seed ^ 0xabcd).generate(scale);
    let mut check = CheckConfig::new(records, &a.trace, a.budget as usize);
    check.queue_depth = a.qd.unwrap_or(1);
    check.seed = a.seed;
    if let Some(layout) = a.layout {
        check.layouts = vec![layout];
    }
    if let Some(policy) = a.policy {
        check.policies.retain(|&p| p == policy);
    }
    check
}

/// Formats the check outcome as a JSON summary (stable bytes across
/// identical runs — and across thread counts and cache states: it
/// reads only the deterministic report fields).
pub fn format_check_json(
    check: &CheckConfig,
    report: &CheckReport,
    lin_cfg: &HistoryCheckConfig,
    lin: &HistoryCheckReport,
) -> String {
    let row = |r: &cnp_check::PolicyRow| {
        Json::line([
            ("layout", r.layout.into()),
            ("policy", r.policy.into()),
            ("boundary_cells", r.boundary_cells.into()),
            ("retire_cells", r.retire_cells.into()),
            ("violating_cells", r.violating_cells.into()),
            ("lossy_cells", r.lossy_cells.into()),
        ])
    };
    let linearizable = lin.outcome.is_linearizable();
    Json::block([
        ("trace", check.workload_label.as_str().into()),
        ("budget", check.budget.into()),
        ("seed", check.seed.into()),
        ("queue_depth", check.queue_depth.into()),
        (
            "enumeration",
            Json::block([
                ("cells", report.cells.into()),
                ("violations", report.violations.into()),
                ("rows", Json::Rows(report.rows.iter().map(row).collect())),
            ]),
        ),
        (
            "history",
            Json::block([
                ("workload", lin_cfg.kind.name().into()),
                ("clients", lin_cfg.clients.into()),
                ("events", lin.events.into()),
                ("acked", lin.acked.into()),
                ("failed", lin.failed.into()),
                ("linearizable", linearizable.into()),
            ]),
        ),
        ("clean", (report.clean() && linearizable).into()),
    ])
    .document()
}

/// Re-runs one cell from a repro blob; returns the exit code (0 = the
/// cell now verifies clean — i.e. the bug is fixed; 1 = it reproduces).
pub fn repro_cli(blob: &str) -> i32 {
    let repro = match Repro::parse(blob) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("bad repro blob: {e}");
            return 2;
        }
    };
    let outcome = repro.run();
    println!(
        "repro: {} ops | layout {} | flush {} | qd {} | cut {}",
        repro.records.len(),
        repro.spec.layout.name(),
        repro.spec.flush,
        repro.spec.queue_depth,
        repro.cut.label(),
    );
    if outcome.clean() {
        println!("cell verifies clean (the original violation no longer reproduces)");
        0
    } else {
        for v in &outcome.violations {
            println!("VIOLATION {v}");
        }
        1
    }
}
