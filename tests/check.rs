//! End-to-end tests of the `cnp-check` harness: the crash-point
//! enumerator must catch a deliberately planted bug, minimize it, and
//! reproduce it from its own repro blob — and report nothing on the
//! healthy stack under the same budget.

use cut_and_paste::check::{run_check_with, CheckConfig, CheckOptions, PolicySpec, Repro};
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
    cfg.policies =
        vec![PolicySpec { label: "nvram-whole-file", flush: "nvram-whole", nvram: true }];
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
