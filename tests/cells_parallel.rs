//! The cell runner under the rigs: the rows a sweep returns — and so
//! every byte printed from them — are the same at any thread count,
//! and a cell that panics on a worker thread fails the sweep by name
//! instead of hanging it. (`tests/check_parallel.rs` holds the checker
//! to the same; `tests/pinned_outputs.rs` pins each sweep's bytes at 1
//! and 4 threads.)

use cut_and_paste::fault::LayoutKind;
use cut_and_paste::patsy::rigs::Rig;
use cut_and_paste::patsy::{
    format_crash_sweep_json, run_client_sweep, run_crash_sweep, ClientSweepConfig, CrashConfig,
};
use cut_and_paste::trace::trace_1a;
use cut_and_paste::workload::WorkloadKind;

/// Figure 5's twenty rows: the table and its claim lines, and every
/// metric of every cell.
fn figure5(threads: usize) -> String {
    let fig5 = Rig::by_name("fig5").expect("fig5 is a rig");
    let rows = fig5.run(0.0002, 365, 1, threads);
    assert_eq!(rows.len(), 5 * 4, "traces x policies");
    let metrics: Vec<String> = rows.iter().map(|(_, r)| r.metrics.to_json(0)).collect();
    fig5.report(0.0002, 365, 1, &rows) + &metrics.concat()
}

#[test]
fn figure5_rows_are_equal_at_1_2_and_4_threads() {
    let serial = figure5(1);
    for threads in [2, 4] {
        assert_eq!(figure5(threads), serial, "figure 5 must not depend on --threads {threads}");
    }
}

#[test]
fn crash_rows_are_equal_at_1_2_and_4_threads() {
    let mut cfg = CrashConfig::new(trace_1a(), 3, 42, 0.002);
    cfg.layouts = vec![LayoutKind::Lfs, LayoutKind::Ffs];
    let serial = run_crash_sweep(&cfg, 1);
    assert_eq!(serial.len(), 2 * 4 * 3, "layouts x policies x cuts");
    let json = format_crash_sweep_json(&cfg, &serial);
    for threads in [2, 4] {
        assert_eq!(
            format_crash_sweep_json(&cfg, &run_crash_sweep(&cfg, threads)),
            json,
            "the crash sweep must not depend on --threads {threads}"
        );
    }
}

/// The middle cell's fleet does not fit a `u32` geometry, so sizing it
/// panics — on a worker thread, while the calling thread runs cell 0.
#[test]
#[should_panic(expected = "cell 1 of 3 panicked: ")]
fn a_panicking_cell_fails_the_sweep_by_index() {
    let cfg = ClientSweepConfig::new(WorkloadKind::Zipf, vec![2, u32::MAX, 2], 42, 0.001);
    run_client_sweep(&cfg, 2);
}
