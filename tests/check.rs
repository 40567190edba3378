//! End-to-end tests of the `cnp-check` harness: the crash-point
//! enumerator must catch a deliberately planted bug, minimize it, and
//! reproduce it from its own repro blob — and report nothing on the
//! healthy stack under the same budget.

use cut_and_paste::check::{run_check_with, CheckConfig, CheckOptions, Repro};
use cut_and_paste::fault::Policy;
use cut_and_paste::workload::{Scenario, WorkloadKind};

fn cfg(budget: usize) -> CheckConfig {
    // The zipf hot-set shape (concurrent multi-block first-touch
    // writes + aligned overwrites) is what exercises mid-write flush
    // pressure — the window the planted bug lives in.
    let records = Scenario::generate(WorkloadKind::Zipf, 4, 4242, 0.005).to_trace_records();
    let mut cfg = CheckConfig::new(records, "zipf", budget);
    cfg.queue_depth = 8;
    cfg.seed = 4242;
    // One NVRAM cell: the planted bug is a durability bug, and NVRAM
    // policies are where the zero-acked-loss oracle is armed.
    cfg.policies = vec![Policy::NvramWhole];
    cfg.minimize_runs = 48;
    cfg
}

/// The PR 4 stale-size write bug, reintroduced behind a config flag:
/// the enumerator must catch it (acked loss), delta-debug the op
/// prefix, and emit a repro blob that replays the violation with no
/// other inputs. The same budget on the healthy stack verifies clean,
/// so the catch is attributable to the planted bug alone.
#[test]
fn planted_stale_size_bug_is_caught_minimized_and_reproduced() {
    let mut planted = cfg(60);
    planted.plant_stale_size_bug = true;
    let report = run_check_with(&planted, CheckOptions::default());
    assert!(!report.clean(), "the planted stale-size bug must be caught");
    let failure = report
        .rows
        .iter()
        .find_map(|r| r.first_failure.as_ref())
        .expect("a failing row must package its first failure");
    assert!(
        failure.violations.iter().any(|v| v.contains("acked loss")),
        "stale size loses acked bytes: {:?}",
        failure.violations
    );
    assert!(
        failure.minimized_ops <= failure.cut_op,
        "minimization must not grow the prefix ({} > {})",
        failure.minimized_ops,
        failure.cut_op
    );
    // The blob is self-contained: parse + re-run must reproduce.
    let repro = Repro::parse(&failure.repro).expect("emitted blob parses");
    assert!(repro.spec.plant_stale_size_bug, "the blob must carry the planted flag");
    assert_eq!(repro.records.len(), failure.minimized_ops);
    let outcome = repro.run();
    assert!(
        !outcome.clean(),
        "the minimized repro must still reproduce the violation: {:?}",
        outcome.violations
    );

    // Control: the healthy stack verifies clean under the same budget.
    let healthy = cfg(60);
    let control = run_check_with(&healthy, CheckOptions::default());
    assert!(control.clean(), "healthy stack must verify clean: {:?}", control.rows);
}

/// One label, one flush: for every §5.1 policy, the checker's row and
/// every cell of a crash sweep run the flush and the NVRAM-ness that
/// `Policy::cache_settings` gives it, and the cache knows the name, so
/// a verdict on a label speaks for the configuration every figure
/// measures under it.
#[test]
fn every_policy_label_runs_one_flush_in_the_checker_and_the_crash_sweep() {
    use cut_and_paste::cache::flush_by_name;
    use cut_and_paste::fault::POLICIES;
    use cut_and_paste::patsy::{sweep_cells, CrashConfig};
    use cut_and_paste::trace::preset;

    let check = CheckConfig { policies: POLICIES.to_vec(), ..cfg(4) };
    let sweep = CrashConfig::new(preset("1a").unwrap(), 3, 42, 0.002);
    let cells = sweep_cells(&sweep, 1_000);
    for (pi, policy) in POLICIES.into_iter().enumerate() {
        let (flush, nvram) = policy.cache_settings(1);
        assert!(flush_by_name(flush).is_some(), "{}: no flush {flush}", policy.label());
        let row = check.cell_spec(0, pi);
        assert_eq!((row.flush.as_str(), row.nvram_bytes.is_some()), (flush, nvram.is_some()));
        let mut swept = cells.iter().filter(|(p, ..)| *p == policy).peekable();
        assert!(swept.peek().is_some(), "{}: no sweep cell", policy.label());
        for (_, _, spec) in swept {
            assert_eq!((spec.flush.as_str(), spec.nvram_bytes.is_some()), (flush, nvram.is_some()));
        }
    }
}
