//! Cost budgets: exact counts of the simulation kernel's work.
//!
//! Host time does not resolve a small change on a shared machine, but
//! what the kernel does for a seed repeats exactly: how many times it
//! polled a task (`steps`) and how many waits on the clock parked
//! (`timer_pushes`). These tests pin both for one engine-level client
//! cell and one served cell, each at queue depth 8, where a write fans
//! out over a window of block commits.
//!
//! A count that moves means a task now wakes, or sleeps, a different
//! number of times for the same seeded work. A change that keeps every
//! seeded output keeps these counts too; one that moves them says why
//! in CHANGES.md and re-pins them here.

use cut_and_paste::patsy::{run_client_cell, run_serve_cell, ClientSweepConfig, ServeBenchConfig};
use cut_and_paste::sim::KernelCounts;
use cut_and_paste::workload::WorkloadKind;

#[test]
fn a_zipf_client_cell_at_qd_8_costs_its_pinned_steps_and_timer_pushes() {
    let cfg = ClientSweepConfig::new(WorkloadKind::Zipf, vec![8], 42, 0.01);
    assert_eq!(cfg.queue_depth, 8);
    let cell = run_client_cell(&cfg, 8);
    assert_eq!(cell.report.errors, 0, "{:?}", cell.report.error_sample);
    assert_eq!(cell.kernel, KernelCounts { steps: 8_310, timer_pushes: 9_805 });
}

#[test]
fn a_served_zipf_cell_at_qd_8_costs_its_pinned_steps_and_timer_pushes() {
    let cfg = ServeBenchConfig::new(WorkloadKind::Zipf, vec![8], 42, 0.01);
    assert_eq!(cfg.queue_depth, 8);
    let cell = run_serve_cell(&cfg, 8);
    assert_eq!(cell.errors, 0);
    assert_eq!(cell.kernel, KernelCounts { steps: 8_483, timer_pushes: 9_975 });
}
