//! End-to-end tests of PR 8's parallel + incremental checker: the
//! stdout report — text and JSON — must be byte-identical at every
//! thread count, and a persisted cell cache must skip exactly the
//! cells whose inputs did not change.

use cut_and_paste::check::{
    format_check_report, run_check_with, run_history_check, CellCache, CheckConfig, CheckOptions,
    HistoryCheckConfig, LinConfig, PolicySpec,
};
use cut_and_paste::fault::LayoutKind;
use cut_and_paste::patsy::check::format_check_json;
use cut_and_paste::trace::TraceOp;
use cut_and_paste::workload::{Scenario, WorkloadKind};

fn cfg(budget: usize) -> CheckConfig {
    let records = Scenario::generate(WorkloadKind::Zipf, 4, 777, 0.005).to_trace_records();
    let mut cfg = CheckConfig::new(records, "zipf", budget);
    cfg.queue_depth = 8;
    cfg.seed = 777;
    cfg
}

/// The satellite contract: `--threads {1, 4, 8}` produce the same
/// report bytes — text and `--json` — because the merge replays the
/// exact serial sweep order regardless of which worker ran which cell.
#[test]
fn report_bytes_are_identical_at_threads_1_4_and_8() {
    let base = cfg(40);
    let serial = run_check_with(&base, CheckOptions::default());
    let text = format_check_report(&base, &serial);
    let lin_cfg = HistoryCheckConfig {
        kind: WorkloadKind::Zipf,
        clients: 2,
        seed: 777,
        scale: 0.002,
        layout: LayoutKind::Lfs,
        queue_depth: 8,
        lin: LinConfig::default(),
    };
    let lin = run_history_check(&lin_cfg);
    let json = format_check_json(&base, &serial, &lin_cfg, &lin);
    for threads in [4, 8] {
        let report = run_check_with(&base, CheckOptions { threads, cache: None, progress: None });
        assert_eq!(
            format_check_report(&base, &report),
            text,
            "text report must not depend on --threads {threads}"
        );
        assert_eq!(
            format_check_json(&base, &report, &lin_cfg, &lin),
            json,
            "JSON report must not depend on --threads {threads}"
        );
    }
}

/// Minimization is the one stage where parallel order could leak into
/// the report (repro blobs embed the shrunk prefix). Plant the stale
/// size bug and demand the threaded report — failures, minimized ops,
/// blobs and all — matches the serial bytes.
#[test]
fn parallel_minimization_matches_serial_on_a_planted_bug() {
    let mut planted = cfg(60);
    planted.policies =
        vec![PolicySpec { label: "nvram-whole-file", flush: "nvram-whole", nvram: true }];
    planted.plant_stale_size_bug = true;
    planted.minimize_runs = 48;
    let serial = run_check_with(&planted, CheckOptions::default());
    assert!(!serial.clean(), "the planted bug must be caught");
    let threaded =
        run_check_with(&planted, CheckOptions { threads: 4, cache: None, progress: None });
    assert_eq!(
        format_check_report(&planted, &threaded),
        format_check_report(&planted, &serial),
        "minimized failures must render identically at --threads 4"
    );
}

/// The cache round trip: a cold run populates the file, an unchanged
/// rerun hits 100% and reruns nothing, and mutating one record
/// invalidates exactly the boundaries whose prefix contains it —
/// everything at op indices `1..=m` still replays from cache.
#[test]
fn cache_file_roundtrip_hits_everything_then_rechecks_only_the_mutated_tail() {
    let base = cfg(40);
    let path = std::env::temp_dir().join(format!("cnp-check-cache-{}.bin", std::process::id()));
    let path = path.to_str().expect("utf8 temp path");

    let mut cold_cache = CellCache::new();
    let cold = run_check_with(
        &base,
        CheckOptions { threads: 2, cache: Some(&mut cold_cache), progress: None },
    );
    assert_eq!(cold.stats.cache_hits, 0, "a cold cache cannot hit");
    assert_eq!(cold.stats.cells_run, cold.cells, "a cold run executes every cell");
    cold_cache.save(path).expect("cache file saves");

    let mut warm_cache = CellCache::load(path).expect("cache file loads back");
    let warm = run_check_with(
        &base,
        CheckOptions { threads: 2, cache: Some(&mut warm_cache), progress: None },
    );
    assert_eq!(warm.stats.cache_hits, warm.cells, "an unchanged rerun hits every cell");
    assert_eq!(warm.stats.cells_run, 0, "an unchanged rerun executes nothing");
    assert_eq!(
        format_check_report(&base, &warm),
        format_check_report(&base, &cold),
        "cached outcomes must reproduce the cold report bytes"
    );

    // Mutate the record at op index MUTATED (0-based): prefixes of
    // length <= MUTATED do not contain it, so exactly the cells of a
    // budget-MUTATED check stay valid.
    const MUTATED: usize = 20;
    let unaffected = run_check_with(&cfg(MUTATED), CheckOptions::default()).cells;
    let mut mutated = cfg(40);
    mutated.records[MUTATED].op = TraceOp::Write { path: "/pr8".to_string(), offset: 0, len: 4242 };
    let mut third_cache = CellCache::load(path).expect("cache file loads again");
    let third = run_check_with(
        &mutated,
        CheckOptions { threads: 2, cache: Some(&mut third_cache), progress: None },
    );
    assert_eq!(
        third.stats.cache_hits, unaffected,
        "every boundary before the mutation must still hit"
    );
    assert_eq!(
        third.stats.cells_run,
        third.cells - unaffected,
        "every boundary covering the mutation must recheck"
    );
    let _ = std::fs::remove_file(path);
}
