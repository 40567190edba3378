//! Cost budgets: exact counts of the simulation kernel's work.
//!
//! Host time does not resolve a small change on a shared machine, but
//! what the kernel does for a seed repeats exactly: how many times it
//! polled a task (`steps`) and how many waits on the clock parked
//! (`timer_pushes`). These tests pin both for one engine-level client
//! cell and one served cell, each at queue depth 8, where a write fans
//! out over a window of block commits; for an 8-client mail cell, whose
//! creates and unlinks churn the cache's index; and for the §5.1 replay
//! under each of the four flush policies at queue depth 1, where every
//! op goes through a cache miss or a flush batch.
//!
//! A count that moves means a task now wakes, or sleeps, a different
//! number of times for the same seeded work. A change that keeps every
//! seeded output keeps these counts too; one that moves them says why
//! in CHANGES.md and re-pins them here.
//!
//! The same cells pin what the block path costs in bytes
//! (`cnp_disk::block::counts`): those copied into a block and those
//! zeroed in one. Real bytes travel as one shared block from the cache
//! to the platter, so a count that rises means some layer copies a
//! block it could share again. The benchmark's check cell also pins the
//! bytes its crash-state keys hash: a block's bytes are hashed once,
//! into its digest, however many states share it. It counts the stacks
//! it builds too (`cnp_fault::stacks_built`): one per prefix run and one
//! per distinct crash state.

use cut_and_paste::check::{run_check_with, CheckConfig, CheckOptions};
use cut_and_paste::disk::block::counts;
use cut_and_paste::fault::stacks_built;
use cut_and_paste::patsy::{
    run_client_cell, run_experiment, run_serve_cell, ClientSweepConfig, ExperimentConfig, Policy,
    ServeBenchConfig,
};
use cut_and_paste::sim::KernelCounts;
use cut_and_paste::trace::{trace_1a, SyntheticSprite};
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

#[test]
fn a_mail_client_cell_at_qd_8_costs_its_pinned_steps_and_timer_pushes() {
    let cfg = ClientSweepConfig::new(WorkloadKind::Mail, vec![8], 42, 0.01);
    assert_eq!(cfg.queue_depth, 8);
    let cell = run_client_cell(&cfg, 8);
    assert_eq!(cell.report.errors, 0, "{:?}", cell.report.error_sample);
    assert_eq!(cell.kernel, KernelCounts { steps: 5_914, timer_pushes: 6_366 });
}

#[test]
fn a_trace_1a_replay_at_qd_1_costs_its_pinned_steps_and_timer_pushes_under_every_policy() {
    let pinned = [
        (Policy::WriteDelay, KernelCounts { steps: 91_072, timer_pushes: 84_750 }),
        (Policy::Ups, KernelCounts { steps: 81_933, timer_pushes: 78_559 }),
        (Policy::NvramWhole, KernelCounts { steps: 85_881, timer_pushes: 81_150 }),
        (Policy::NvramPartial, KernelCounts { steps: 171_393, timer_pushes: 128_082 }),
    ];
    for (policy, kernel) in pinned {
        let cfg =
            ExperimentConfig { scale: 0.01, seed: 42, ..ExperimentConfig::new(policy, trace_1a()) };
        assert_eq!(cfg.queue_depth, 1);
        let result = run_experiment(&cfg);
        assert_eq!(result.report.errors, 0, "{}", policy.label());
        assert_eq!(result.kernel, kernel, "{}", policy.label());
    }
}

/// The bytes `run` copies into or zeroes in a block, and hashes, on
/// this thread (every cell below runs on the calling thread).
fn block_bytes<T>(run: impl FnOnce() -> T) -> (T, [u64; 3]) {
    let before = counts();
    let out = run();
    let after = counts();
    let spent =
        [after.copied - before.copied, after.zeroed - before.zeroed, after.hashed - before.hashed];
    (out, spent)
}

#[test]
fn a_zipf_client_cell_at_qd_8_copies_and_zeroes_its_pinned_block_bytes() {
    let cfg = ClientSweepConfig::new(WorkloadKind::Zipf, vec![8], 42, 0.01);
    let (cell, spent) = block_bytes(|| run_client_cell(&cfg, 8));
    assert_eq!(cell.report.errors, 0, "{:?}", cell.report.error_sample);
    assert_eq!(spent[..2], [72_873, 1_975_127], "(copied, zeroed)");
}

#[test]
fn a_served_zipf_cell_at_qd_8_copies_and_zeroes_its_pinned_block_bytes() {
    let cfg = ServeBenchConfig::new(WorkloadKind::Zipf, vec![8], 42, 0.01);
    let (cell, spent) = block_bytes(|| run_serve_cell(&cfg, 8));
    assert_eq!(cell.errors, 0);
    assert_eq!(spent[..2], [72_873, 1_975_127], "(copied, zeroed)");
}

#[test]
fn a_mail_client_cell_at_qd_8_copies_and_zeroes_its_pinned_block_bytes() {
    let cfg = ClientSweepConfig::new(WorkloadKind::Mail, vec![8], 42, 0.01);
    let (cell, spent) = block_bytes(|| run_client_cell(&cfg, 8));
    assert_eq!(cell.report.errors, 0, "{:?}", cell.report.error_sample);
    assert_eq!(spent[..2], [79_556, 2_353_468], "(copied, zeroed)");
}

#[test]
fn a_trace_1a_replay_at_qd_1_copies_and_zeroes_its_pinned_block_bytes_under_every_policy() {
    // A fresh LFS usage table's blocks are encoded once a thread, so
    // the first policy run here pays for them.
    let pinned = [
        (Policy::WriteDelay, [854_196, 5_211_980]),
        (Policy::Ups, [231_604, 4_048_716]),
        (Policy::NvramWhole, [338_100, 4_368_204]),
        (Policy::NvramPartial, [342_196, 28_759_884]),
    ];
    let spent = pinned.map(|(policy, _)| {
        let cfg =
            ExperimentConfig { scale: 0.01, seed: 42, ..ExperimentConfig::new(policy, trace_1a()) };
        let (result, spent) = block_bytes(|| run_experiment(&cfg));
        assert_eq!(result.report.errors, 0, "{}", policy.label());
        (policy, [spent[0], spent[1]])
    });
    assert_eq!(spent, pinned, "(copied, zeroed) per policy");
}

/// The benchmark's check cell (`check-lfs-b40`): a block's bytes enter
/// a state key once, as its digest, however many crash states share it;
/// and the check builds one stack per prefix run and powers one on per
/// distinct crash state, no more.
#[test]
fn a_budget_40_check_hashes_its_pinned_state_key_bytes() {
    let records = SyntheticSprite::new(trace_1a(), 42 ^ 0xabcd).generate(0.002);
    let mut cfg = CheckConfig::new(records, "1a", 40);
    cfg.seed = 42;
    cfg.queue_depth = 8;
    let options = CheckOptions { threads: 1, cache: None, progress: None };
    let stacks = stacks_built();
    let (report, spent) = block_bytes(|| run_check_with(&cfg, options));
    let stacks = (stacks_built() - stacks) as usize;
    let stats = &report.stats;
    assert_eq!((report.cells, stats.prefix_runs, stats.states_verified), (320, 192, 64));
    assert_eq!(stacks, 192 + 64, "a stack per prefix run and per verified state");
    assert_eq!(spent, [282_120, 16_007_672, 8_201_140], "(copied, zeroed, hashed)");
}
