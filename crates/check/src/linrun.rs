//! The history leg of `cnp-check`: run a multi-client workload
//! scenario on one shared engine with history recording on, then
//! search the recorded *(invoke, ack)* history for a sequential
//! witness. This replaces the fixed-interleaving comparison of the
//! differential harness with an order-free oracle: whatever
//! interleaving the deterministic scheduler picked, *some* sequential
//! order must explain every observable, or the engine broke
//! linearizability.

use cnp_core::{DataMode, FsConfig, HistoryEvent, HistoryLog};
use cnp_disk::{FaultPlan, Hardware};
use cnp_fault::{LayoutKind, Stack};
use cnp_sim::Sim;
use cnp_workload::{run_clients, RunOptions, Scenario, WorkloadKind};

use crate::linearize::{check_history, LinConfig, LinOutcome};

/// History-leg configuration.
#[derive(Debug, Clone)]
pub struct HistoryCheckConfig {
    /// Scenario family.
    pub kind: WorkloadKind,
    /// Concurrent clients on the shared engine.
    pub clients: u32,
    /// Scenario + scheduler seed.
    pub seed: u64,
    /// Scenario scale (fraction of the nominal per-client day).
    pub scale: f64,
    /// Storage layout.
    pub layout: LayoutKind,
    /// I/O pipeline depth.
    pub queue_depth: u32,
    /// Witness-search budget (deterministic steps, not time).
    pub lin: LinConfig,
}

impl Default for HistoryCheckConfig {
    fn default() -> Self {
        HistoryCheckConfig {
            kind: WorkloadKind::Zipf,
            clients: 4,
            seed: 42,
            scale: 0.002,
            layout: LayoutKind::Lfs,
            queue_depth: 8,
            lin: LinConfig::default(),
        }
    }
}

/// History-leg outcome.
#[derive(Debug, Clone)]
pub struct HistoryCheckReport {
    /// Events recorded (all).
    pub events: usize,
    /// Acknowledged events (what the witness must order).
    pub acked: usize,
    /// Failed (un-acked) events. On a healthy stack these are the
    /// expected races of the shared vocabulary — an open observing
    /// NotFound just before the create — excluded from the witness
    /// because their effects are indeterminate.
    pub failed: u64,
    /// The verdict.
    pub outcome: LinOutcome,
}

/// Runs the scenario with history recording and searches for a
/// sequential witness. Deterministic in `cfg`.
pub fn run_history_check(cfg: &HistoryCheckConfig) -> HistoryCheckReport {
    let events = record_history(cfg);
    let acked = events.iter().filter(|e| e.acked()).count();
    let failed = events.len() as u64 - acked as u64;
    let outcome = check_history(&events, &cfg.lin);
    HistoryCheckReport { events: events.len(), acked, failed, outcome }
}

/// Runs the multi-client scenario on a fresh simulated stack, returning
/// the recorded history.
pub fn record_history(cfg: &HistoryCheckConfig) -> Vec<HistoryEvent> {
    let sim = Sim::new(cfg.seed);
    let h = sim.handle();
    let fs_cfg = FsConfig {
        data_mode: DataMode::Simulated,
        queue_depth: cfg.queue_depth,
        ..FsConfig::default()
    };
    let hw = Hardware::default();
    let fs = Stack::build(&h, "lin0", cfg.layout, hw.device(), fs_cfg, FaultPlan::default()).fs;
    let scenario = Scenario::generate(cfg.kind, cfg.clients, cfg.seed, cfg.scale);
    let log = HistoryLog::new();
    sim.block_on("lin-harness", async move {
        fs.format().await.expect("format");
        let opts = RunOptions { history: Some(log.clone()), ..RunOptions::default() };
        run_clients(&h, &fs, &scenario, opts).await;
        fs.sync().await.expect("sync");
        let events = log.take();
        fs.shutdown();
        events
    })
}

/// Formats the history-leg report (stable across runs).
pub fn format_history_report(cfg: &HistoryCheckConfig, report: &HistoryCheckReport) -> String {
    let verdict = match &report.outcome {
        LinOutcome::Linearizable { steps, .. } => {
            format!("witness found in {steps} steps")
        }
        LinOutcome::NotLinearizable { steps } => {
            format!("NOT LINEARIZABLE (search exhausted in {steps} steps)")
        }
        LinOutcome::BudgetExhausted { steps } => {
            format!("INCONCLUSIVE (step budget {steps} exhausted)")
        }
    };
    format!(
        "history: {} x {} clients | qd {} | {} events ({} acked, {} failed): {}\n",
        cfg.kind.name(),
        cfg.clients,
        cfg.queue_depth,
        report.events,
        report.acked,
        report.failed,
        verdict,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zipf_history_is_linearizable_and_deterministic() {
        let cfg = HistoryCheckConfig { clients: 3, scale: 0.001, ..HistoryCheckConfig::default() };
        let a = run_history_check(&cfg);
        assert!(a.outcome.is_linearizable(), "{:?}", a.outcome);
        assert!(a.events > 30, "too few events to mean anything: {}", a.events);
        assert!(a.acked as u64 >= a.events as u64 - a.failed);
        let b = run_history_check(&cfg);
        assert_eq!(format_history_report(&cfg, &a), format_history_report(&cfg, &b));
    }

    #[test]
    fn churny_workload_histories_linearize_for_both_layouts() {
        for layout in [LayoutKind::Lfs, LayoutKind::Ffs] {
            let cfg = HistoryCheckConfig {
                kind: WorkloadKind::Mail,
                clients: 3,
                scale: 0.001,
                layout,
                ..HistoryCheckConfig::default()
            };
            let report = run_history_check(&cfg);
            assert!(
                report.outcome.is_linearizable(),
                "{} history must linearize: {:?}",
                layout.name(),
                report.outcome
            );
        }
    }
}
