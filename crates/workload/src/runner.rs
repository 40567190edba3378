//! The multi-client engine: N closed-loop clients on one shared
//! `FileSystem`.
//!
//! Each client program becomes its own deterministic `cnp-sim` task
//! driving the abstract client interface through a per-client engine
//! handle (`FileSystem::client`), so the engine's flush accounting can
//! attribute dirty data to the client that produced it. Clients
//! interleave wherever the engine awaits — block I/O, the layout mutex,
//! the namespace lock — which is exactly how the offered queue the disk
//! schedulers feed on gets built: not by one client fanning out, but by
//! many clients being independently blocked.
//!
//! Unlike trace replay (open-loop: dispatch at recorded timestamps),
//! the runner is *closed-loop*: a client issues its next operation only
//! when the previous one completed and its think time elapsed, so a
//! slow system is offered less load — the feedback that makes
//! throughput-vs-clients curves meaningful. The runner itself is
//! `cnp_trace::drive_clients`; this module only paces the programs.

use cnp_core::FileSystem;
use cnp_sim::{Handle, SimDuration};
use cnp_trace::{drive_clients, Pace, RunOptions, RunReport};

use crate::scenario::{ClientOp, Scenario};

/// Runs every client program of `scenario` against the shared engine,
/// each op after its think time; resolves when all clients finish (or
/// the op budget cuts them off).
pub async fn run_clients(
    handle: &Handle,
    fs: &FileSystem,
    scenario: &Scenario,
    opts: RunOptions,
) -> RunReport {
    let clients = scenario.plans.iter().map(|plan| {
        let think = |cop: ClientOp| (Pace::After(SimDuration::from_nanos(cop.think_ns)), cop.op);
        (plan.client, plan.ops.clone().into_iter().map(think))
    });
    drive_clients(handle, fs, clients, opts).await
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::{Scenario, WorkloadKind, WORKLOADS};
    use cnp_core::{DataMode, FsConfig};
    use cnp_disk::{sim_disk_driver, CLook, Hp97560};
    use cnp_layout::{Layout, LfsLayout, LfsParams};
    use cnp_sim::Sim;

    fn run_scenario(kind: WorkloadKind, clients: u32, seed: u64) -> (RunReport, u64) {
        let sim = Sim::new(seed);
        let h = sim.handle();
        let driver = sim_disk_driver(&h, "wl0", Box::new(Hp97560::new()), Box::new(CLook));
        let layout = Layout::Lfs(LfsLayout::new(&h, driver, LfsParams::default()));
        let fs = FileSystem::new(
            &h,
            layout,
            FsConfig { data_mode: DataMode::Simulated, queue_depth: 8, ..FsConfig::default() },
        );
        let report = sim.block_on("harness", async move {
            fs.format().await.unwrap();
            let scenario = Scenario::generate(kind, clients, seed, 0.005);
            let report = run_clients(&h, &fs, &scenario, RunOptions::default()).await;
            fs.sync().await.unwrap();
            fs.shutdown();
            report
        });
        let end = sim.now().as_nanos();
        (report, end)
    }

    #[test]
    fn every_kind_runs_clean_on_a_shared_engine() {
        for kind in WORKLOADS {
            let (report, _) = run_scenario(kind, 3, 21);
            assert_eq!(report.errors, 0, "{}: {:?}", kind.name(), report.error_sample);
            assert!(report.ops > 50, "{}: only {} ops", kind.name(), report.ops);
            assert_eq!(report.per_client.len(), 3);
            assert!(report.fairness() >= 1.0, "{}", kind.name());
            assert!(report.mean_ms() >= 0.0);
        }
    }

    #[test]
    fn multi_client_runs_are_deterministic() {
        let a = run_scenario(WorkloadKind::Mail, 4, 77);
        let b = run_scenario(WorkloadKind::Mail, 4, 77);
        assert_eq!(a.0.ops, b.0.ops);
        assert_eq!(a.1, b.1, "virtual end times must be bit-identical");
        assert_eq!(a.0.latency.mean().to_bits(), b.0.latency.mean().to_bits());
    }

    #[test]
    fn op_budget_cuts_the_run_short() {
        let full = run_scenario(WorkloadKind::Zipf, 2, 5).0.ops;
        let sim = Sim::new(5);
        let h = sim.handle();
        let driver = sim_disk_driver(&h, "wl1", Box::new(Hp97560::new()), Box::new(CLook));
        let layout = Layout::Lfs(LfsLayout::new(&h, driver, LfsParams::default()));
        let fs = FileSystem::new(
            &h,
            layout,
            FsConfig { data_mode: DataMode::Simulated, ..FsConfig::default() },
        );
        let report = sim.block_on("harness", async move {
            fs.format().await.unwrap();
            let scenario = Scenario::generate(WorkloadKind::Zipf, 2, 5, 0.005);
            let opts = RunOptions { max_ops: Some(20), track_acks: true, history: None };
            let report = run_clients(&h, &fs, &scenario, opts).await;
            fs.shutdown();
            report
        });
        assert!(report.ops <= 20, "budget must bound attempts: {}", report.ops);
        assert!(report.ops < full);
        assert!(!report.acked.is_empty(), "acked writes must be tracked at the cut");
        // Even a fully starved client must keep its report row, or
        // fairness would be blind to starvation.
        assert_eq!(report.per_client.len(), 2, "every client needs a row under a budget cut");
    }
}
