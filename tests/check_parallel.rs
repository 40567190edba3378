//! End-to-end tests of PR 8's parallel + incremental checker: the
//! stdout report — text and JSON — must be byte-identical at every
//! thread count, and a persisted cell cache must skip exactly the
//! cells whose inputs did not change.

use cut_and_paste::check::cache::encode_outcome;
use cut_and_paste::check::{
    cell_key, format_check_report, run_cell, run_check_with, run_history_check, spec_fingerprint,
    CellCache, CellSpec, CheckConfig, CheckOptions, CutSpec, HistoryCheckConfig, LinConfig,
    PrefixHashes,
};
use cut_and_paste::fault::{LayoutKind, Policy, POLICIES};
use cut_and_paste::patsy::check::format_check_json;
use cut_and_paste::trace::{bounded_prefix, preset, SyntheticSprite, TraceOp};
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
    planted.policies = vec![Policy::NvramWhole];
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
    mutated.records[MUTATED].op = TraceOp::Write { path: "/pr8".into(), offset: 0, len: 4242 };
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

/// The memoised enumeration against its oracle. An enumeration
/// verifies each distinct crash state once and judges every other cell
/// from that verdict; `run_cell` recovers and verifies every cell on
/// its own. Every outcome an enumeration stores in its cell cache must
/// encode to the same bytes as `run_cell` on that cell: on both
/// layouts, at qd 1 and 8, at 1 and 4 threads, on the healthy stack
/// (trace 1a, whose reads leave one crash state to cells with
/// different cuts) and with the planted stale-size bug (the zipf hot
/// set, where it shows). Trace 1a at seed 365 adds qd-1 cuts that find
/// a write in flight on FFS. A unit runs its prefix once when its
/// boundary is quiet and twice otherwise, so the runs counted show both
/// paths were taken, and retire cells past `r = 0` show the writes
/// recorded after a cut were applied.
#[test]
fn every_memoised_outcome_equals_the_unmemoised_cell() {
    let mut violating = 0;
    let (mut units, mut prefix_runs, mut deep_retires) = (0, 0, 0);
    for layout in [LayoutKind::Lfs, LayoutKind::Ffs] {
        for queue_depth in [1, 8] {
            for (seed, plant) in [(42, false), (365, false), (777, true)] {
                if seed == 365 && queue_depth == 8 {
                    continue;
                }
                let budget = if queue_depth == 1 { 16 } else { 12 };
                let mut base = if plant {
                    cfg(budget)
                } else {
                    let trace_1a =
                        SyntheticSprite::new(preset("1a").unwrap(), seed ^ 0xabcd).generate(0.002);
                    CheckConfig { seed, ..CheckConfig::new(trace_1a, "1a", budget) }
                };
                base.layouts = vec![layout];
                base.queue_depth = queue_depth;
                base.plant_stale_size_bug = plant;
                base.minimize_runs = 4;
                base.policies = if seed == 365 {
                    POLICIES.to_vec()
                } else {
                    vec![Policy::Ups, Policy::NvramWhole]
                };
                let at = |threads| {
                    let mut cache = CellCache::new();
                    let opts = CheckOptions { threads, cache: Some(&mut cache), progress: None };
                    let report = run_check_with(&base, opts);
                    assert_eq!(cache.len(), report.cells, "every cell is in the cache");
                    (format_check_report(&base, &report), report, cache)
                };
                let (text, report, serial) = at(1);
                let (threaded_text, _, threaded) = at(4);
                assert_eq!(threaded_text, text, "the report must not depend on --threads");
                violating += report.violations;
                units += budget * base.policies.len();
                prefix_runs += report.stats.prefix_runs;
                let hashes = PrefixHashes::over(&base.records, budget);
                for pi in 0..base.policies.len() {
                    let spec = base.cell_spec(0, pi);
                    let fp = spec_fingerprint(&spec);
                    for k in 1..=budget {
                        let records = bounded_prefix(&base.records, k, &[]);
                        let key = |cut| cell_key(&fp, hashes.prefix(k), &cut);
                        let batch = serial.get(key(CutSpec::Graceful)).unwrap().inflight_batch;
                        deep_retires += batch;
                        let retires = (0..=batch).map(|retire| CutSpec::PowerCut { retire });
                        for cut in std::iter::once(CutSpec::Graceful).chain(retires) {
                            let oracle = encode_outcome(&run_cell(&spec, &records, cut));
                            for (threads, cache) in [(1, &serial), (4, &threaded)] {
                                let memoised = cache.get(key(cut)).expect("every cell is cached");
                                assert_eq!(
                                    encode_outcome(memoised),
                                    oracle,
                                    "{} qd {queue_depth} plant {plant} {} op {k} {} threads {threads}",
                                    layout.name(),
                                    base.policies[pi].label(),
                                    cut.label(),
                                );
                            }
                        }
                    }
                }
            }
        }
    }
    assert!(violating > 0, "the planted bug must give the oracle violating cells to judge");
    assert!(units < prefix_runs && prefix_runs < 2 * units, "{prefix_runs} runs for {units} units");
    assert!(deep_retires > 0, "no retire cell past r = 0");
}

/// The crash sweep samples the checker's cell: every cell of a small
/// `patsy crash` sweep — both layouts, the four policies, three cuts,
/// at qd 1 and 8 — has the outcome `run_cell` gives the graceful cell
/// of the same spec on the trace prefix up to the cut.
#[test]
fn every_crash_sweep_cell_equals_the_checker_cell() {
    use cut_and_paste::fault::cut_points;
    use cut_and_paste::patsy::{run_crash_sweep, CrashConfig};
    use cut_and_paste::sim::run_cells;

    for queue_depth in [1, 8] {
        let mut cfg = CrashConfig::new(preset("1a").unwrap(), 3, 42, 0.002);
        cfg.queue_depth = queue_depth;
        let records = SyntheticSprite::new(cfg.trace.clone(), 42 ^ 0xabcd).generate(0.002);
        let cuts = cut_points(records.len() as u64, cfg.cuts);
        let cells = run_crash_sweep(&cfg, 2);
        let mut specs = Vec::new();
        for (li, &layout) in cfg.layouts.iter().enumerate() {
            for (pi, policy) in cfg.policies.iter().enumerate() {
                for (ci, &cut) in cuts.iter().enumerate() {
                    let sim_seed = 42u64
                        .wrapping_mul(0x9e37_79b9_7f4a_7c15)
                        .wrapping_add(((li as u64) << 32) ^ ((pi as u64) << 16) ^ ci as u64);
                    let (mem, nvram) = (8 * 1024 * 1024, 4 * 1024 * 1024);
                    let spec = CellSpec::new(layout, *policy, mem, nvram, queue_depth, sim_seed);
                    specs.push((spec, cut as usize));
                }
            }
        }
        assert_eq!(cells.len(), specs.len());
        let oracles = run_cells(&specs, 2, |(spec, cut)| {
            encode_outcome(&run_cell(spec, &records[..*cut], CutSpec::Graceful))
        });
        for ((cell, (spec, cut)), oracle) in cells.iter().zip(&specs).zip(oracles) {
            assert_eq!(
                (cell.layout, cell.cut_op as usize),
                (spec.layout.name(), *cut),
                "sweep order"
            );
            assert_eq!(
                encode_outcome(&cell.outcome),
                oracle,
                "{} {} cut {cut} qd {queue_depth}",
                cell.layout,
                cell.policy.label(),
            );
        }
    }
}
