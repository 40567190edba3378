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
//! throughput-vs-clients curves meaningful.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;

use cnp_core::FileSystem;
use cnp_obs::Histogram;
use cnp_sim::{Handle, SimDuration};
use cnp_trace::{AckedFile, ClientRun, Completion, Pace};

use crate::scenario::Scenario;

/// Controls for [`run_clients`].
#[derive(Debug, Clone, Default)]
pub struct RunOptions {
    /// Stop after this many operations have been attempted across all
    /// clients — the crash experiments' cut point.
    pub max_ops: Option<u64>,
    /// Track per-file acknowledged sizes (crash loss accounting).
    pub track_acks: bool,
    /// Record every client operation as an *(invoke, ack)* interval
    /// into this shared log — the multi-client history the
    /// linearizability checker consumes (`cnp-check`).
    pub history: Option<cnp_core::HistoryLog>,
}

/// One client's measurements.
#[derive(Debug, Clone)]
pub struct ClientReport {
    /// Client id.
    pub client: u32,
    /// Operations completed.
    pub ops: u64,
    /// Operations that failed.
    pub errors: u64,
    /// Operation latencies (ms).
    pub latency: Histogram,
    /// Completed operations per second of makespan.
    pub ops_per_sec: f64,
}

/// Aggregate outcome of one multi-client run.
#[derive(Debug, Clone)]
pub struct WorkloadReport {
    /// Per-client rows, ordered by client id.
    pub per_client: Vec<ClientReport>,
    /// All-client operation latencies (ms).
    pub latency: Histogram,
    /// Operations completed across clients.
    pub ops: u64,
    /// Failed operations across clients.
    pub errors: u64,
    /// Up to five sample error messages.
    pub error_sample: Vec<String>,
    /// Virtual time from start to the last client finishing.
    pub makespan: SimDuration,
    /// Acknowledged per-file state ([`RunOptions::track_acks`]).
    pub acked: Vec<AckedFile>,
    /// Paths whose delete or truncate failed: their durable state is
    /// indeterminate, so crash oracles must not judge them against
    /// `acked` (see `cnp_trace::ReplayReport::indeterminate`).
    pub indeterminate: Vec<String>,
}

impl WorkloadReport {
    /// Completed operations per second of makespan, all clients.
    pub fn aggregate_ops_per_sec(&self) -> f64 {
        let secs = self.makespan.as_nanos() as f64 / 1e9;
        if secs == 0.0 {
            0.0
        } else {
            self.ops as f64 / secs
        }
    }

    /// Fairness as max/min per-client throughput (1.0 = perfectly
    /// fair); 0.0 when any client completed nothing.
    pub fn fairness(&self) -> f64 {
        let mut min = f64::INFINITY;
        let mut max = 0.0f64;
        for c in &self.per_client {
            min = min.min(c.ops_per_sec);
            max = max.max(c.ops_per_sec);
        }
        if !min.is_finite() || min == 0.0 {
            0.0
        } else {
            max / min
        }
    }

    /// Mean operation latency (ms).
    pub fn mean_ms(&self) -> f64 {
        self.latency.mean()
    }

    /// 99th-percentile operation latency (ms).
    pub fn p99_ms(&self) -> f64 {
        self.latency.quantile(0.99)
    }
}

struct RunState {
    per_client: BTreeMap<u32, (Histogram, u64, u64)>, // hist, ops, errors
    latency: Histogram,
    errors: u64,
    error_sample: Vec<String>,
}

/// Runs every client program of `scenario` against the shared engine;
/// resolves when all clients finish (or the op budget cuts them off).
pub async fn run_clients(
    handle: &Handle,
    fs: &FileSystem,
    scenario: &Scenario,
    opts: RunOptions,
) -> WorkloadReport {
    // Every client gets a row up front: a client the op budget starves
    // completely must still appear (with zero throughput), or
    // `fairness()` would be blind to total starvation.
    let per_client: BTreeMap<u32, (Histogram, u64, u64)> =
        scenario.plans.iter().map(|p| (p.client, (Histogram::latency_default(), 0, 0))).collect();
    let state = Rc::new(RefCell::new(RunState {
        per_client,
        latency: Histogram::latency_default(),
        errors: 0,
        error_sample: Vec::new(),
    }));
    let run = Rc::new(ClientRun::new(opts.max_ops, opts.track_acks));
    let start = handle.now();
    let mut handles = Vec::new();
    for plan in &scenario.plans {
        let fs = fs.clone();
        let h = handle.clone();
        let state = state.clone();
        let run = run.clone();
        let plan = plan.clone();
        let history = opts.history.clone();
        handles.push(handle.spawn(&format!("wl-client{}", plan.client), async move {
            let cfs = match history {
                Some(log) => fs.client(plan.client).with_history(log),
                None => fs.client(plan.client),
            };
            let ops = plan
                .ops
                .iter()
                .map(|cop| (Pace::After(SimDuration::from_nanos(cop.think_ns)), &cop.op));
            run.drive(&h, &cfs, ops, |done| state.borrow_mut().fold(plan.client, done)).await;
        }));
    }
    for jh in handles {
        jh.await;
    }
    let makespan = handle.now() - start;
    let secs = makespan.as_nanos() as f64 / 1e9;
    let st = Rc::try_unwrap(state).ok().expect("clients done").into_inner();
    let per_client: Vec<ClientReport> = st
        .per_client
        .into_iter()
        .map(|(client, (latency, ops, errors))| ClientReport {
            client,
            ops,
            errors,
            latency,
            ops_per_sec: if secs == 0.0 { 0.0 } else { ops as f64 / secs },
        })
        .collect();
    let (ops, errors) = per_client.iter().fold((0, 0), |(o, e), c| (o + c.ops, e + c.errors));
    let (acked, indeterminate) = Rc::try_unwrap(run).ok().expect("clients done").finish();
    WorkloadReport {
        per_client,
        latency: st.latency,
        ops,
        errors,
        error_sample: st.error_sample,
        makespan,
        acked,
        indeterminate,
    }
}

impl RunState {
    fn fold(&mut self, client: u32, done: Completion<'_>) {
        let entry = self
            .per_client
            .get_mut(&client)
            .expect("per_client rows are pre-populated for every plan");
        match done.result {
            Ok(()) => {
                let ms = done.latency.as_millis_f64();
                entry.0.record(ms);
                entry.1 += 1;
                self.latency.record(ms);
            }
            Err(e) => {
                entry.2 += 1;
                self.errors += 1;
                if self.error_sample.len() < 5 {
                    self.error_sample
                        .push(format!("client {client}: {e} on {}", done.op.mnemonic()));
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::{Scenario, WorkloadKind, WORKLOADS};
    use cnp_core::{DataMode, FsConfig};
    use cnp_disk::{sim_disk_driver, CLook, Hp97560};
    use cnp_layout::{Layout, LfsLayout, LfsParams};
    use cnp_sim::Sim;

    fn run_scenario(kind: WorkloadKind, clients: u32, seed: u64) -> (WorkloadReport, u64) {
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
