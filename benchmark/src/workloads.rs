//! The five workloads: what each runs, through which public entry
//! point, and how its outcome is read back.
//!
//! Every workload is closed-loop on one OS thread. A *rep* is one call
//! of the library's public entry point (stack construction, format,
//! run, sync and teardown all inside); the harness times the call from
//! outside and reads counts and virtual-time figures from the public
//! report the call returns. Sizes are chosen so a rep takes 1-2 host
//! seconds on a 2-core sandbox: the benchmark's driver allots each run
//! well under half a minute, and a median needs several reps.

use cnp_check::{format_check_report, run_check_with, CheckConfig, CheckOptions};
use cnp_obs::chrome::to_chrome_json;
use cnp_obs::trace::{install, Tracer};
use cnp_obs::{Metric, MetricsSnapshot};
use cnp_patsy::{
    format_client_sweep_json, format_serve_bench_json, run_client_cell, run_experiment,
    run_serve_cell, ClientSweepConfig, ExperimentConfig, Policy, ServeBenchConfig, POLICIES,
};
use cnp_trace::{trace_1a, SyntheticSprite, TraceRecord};
use cnp_workload::{Scenario, WorkloadKind};

use crate::spans::{fold_chrome_json, Folded};

/// A workload's entry in `BENCHMARK.json` and the README.
pub struct WorkloadSpec {
    pub name: &'static str,
    /// What the workload's throughput counts.
    pub unit: &'static str,
    /// One line, at most 200 characters.
    pub why: &'static str,
    /// The workload on inputs generated from a seed.
    pub make: fn(seed: u64) -> Box<dyn Workload>,
}

fn zipf() -> WorkloadKind {
    WorkloadKind::parse("zipf").expect("zipf is a known workload")
}

pub const WORKLOADS: [WorkloadSpec; 5] = [
    WorkloadSpec {
        name: "trace-1a",
        unit: "trace_ops",
        why:
            "unit trace_ops: the paper's 5.1 replay, 4 flush policies at qd 1; working set larger \
              than the cache, so disk model, cache miss/evict and flush policy do the work",
        make: |seed| Box::new(Trace1a { seed, scale: 0.04 }),
    },
    WorkloadSpec {
        name: "zipf-256",
        unit: "trace_ops",
        why: "unit trace_ops: 256 closed-loop clients on a cache that fits (hit 100%); executor, \
              striped locks, dirty/flush and LFS seals do the work, the disk model little",
        make: |seed| Box::new(Clients { kind: zipf(), clients: 256, seed, scale: 0.004 }),
    },
    WorkloadSpec {
        name: "mail-64",
        unit: "trace_ops",
        why: "unit trace_ops: create/append/unlink churn, layout-bound in virtual time; a change \
              that helps hot-set reads and hurts namespace or layout writes shows here",
        make: |seed| {
            let mail = WorkloadKind::parse("mail").expect("mail is a known workload");
            Box::new(Clients { kind: mail, clients: 64, seed, scale: 0.04 })
        },
    },
    WorkloadSpec {
        name: "serve-zipf-16",
        unit: "wire_requests",
        why: "unit wire_requests: the PFS half, every op XDR-coded through sessions, admission \
              and attr/lookup cache; few clients, so the wire path is about half of host time",
        make: |seed| Box::new(Serve { kind: zipf(), clients: 16, seed, scale: 2.0 }),
    },
    WorkloadSpec {
        name: "check-lfs-b40",
        unit: "cells",
        why: "unit cells: cold crash-point enumeration, budget 40, 4 policies, one thread; every \
              cell builds a stack, replays its prefix from an empty disk, cuts, recovers and fscks",
        make: |seed| Box::new(CheckLfs { seed, budget: 40 }),
    },
];

/// Virtual-time figures of the modelled system; 0 where the workload
/// has none (see the README's applicability table).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Virt {
    pub ops_per_s: f64,
    pub mean_ms: f64,
    pub p99_ms: f64,
    /// Latency samples behind `mean_ms`/`p99_ms`.
    pub samples: u64,
}

/// One rep's outcome, read from the entry point's public report.
pub struct Rep {
    /// Work units completed (the throughput numerator).
    pub units: u64,
    /// Operations attempted and failed: replay/serve errors, or check
    /// cells and violating cells.
    pub attempted: u64,
    pub failed: u64,
    /// The stable virtual report bytes: identical for identical inputs.
    pub report: String,
    pub virt: Virt,
    /// Layer counters of the reported cell (`fs.*`, `cache.*`, `disk.*`,
    /// `layout.*`, `lock.*`, `serve.*`, `check.*`, `policy.*`).
    pub counts: MetricsSnapshot,
    /// Trace ops behind `units` (differs from `units` only on the wire).
    pub trace_ops: u64,
    /// Sum of the op latencies (virtual ms) the report carries, where
    /// its ops are the ones the engine's `op:` spans wrap; else 0.
    pub op_latency_ms_sum: f64,
    /// Spans folded by family, when the rep ran traced.
    pub spans: Option<Folded>,
}

pub trait Workload {
    /// Generates the inputs the entry point will generate again inside
    /// the rep, so set-up time can be measured from outside. Returns
    /// the input size (records or ops) for `black_box`.
    fn generate_inputs(&self) -> usize;

    /// One call of the public entry point. With `traced`, a span tracer
    /// is installed around each simulated cell and folded afterwards.
    fn rep(&self, traced: bool) -> Rep;

    /// The engine-only twin of a wire workload: the same scenario run
    /// straight on the engine. `None` for workloads with no wire path.
    fn engine_twin(&self) -> Option<Rep> {
        None
    }
}

/// Runs `f` with a fresh tracer installed (thread-local, so the library
/// records into it unchanged) and folds what it recorded. One tracer
/// per simulated cell: every cell's virtual clock starts at zero, and
/// spans of two cells on one lane would nest by accident.
fn with_tracer<R>(traced: bool, into: &mut Option<Folded>, f: impl FnOnce() -> R) -> R {
    if !traced {
        return f();
    }
    let tracer = Tracer::new();
    let guard = install(&tracer);
    let r = f();
    drop(guard);
    let folded =
        fold_chrome_json(&to_chrome_json(&tracer)).expect("the tracer's own export must fold");
    let acc = into.get_or_insert_with(Folded::default);
    acc.events += folded.events;
    for (family, t) in folded.families {
        let a = acc.families.entry(family).or_default();
        a.spans += t.spans;
        a.total_ns += t.total_ns;
        a.self_ns += t.self_ns;
    }
    r
}

/// `(samples, mean, p99)` of a histogram summary in a snapshot.
pub fn summary(m: &MetricsSnapshot, key: &str) -> (u64, f64, f64) {
    match m.get(key) {
        Some(Metric::Summary { count, mean, p99, .. }) => (*count, *mean, *p99),
        _ => (0, 0.0, 0.0),
    }
}

/// The paper's §5.1 experiment on synthetic Sprite trace 1a: the four
/// write-saving policies back to back, LFS on the HP 97560, C-LOOK,
/// queue depth 1 (the lock-step path).
struct Trace1a {
    seed: u64,
    scale: f64,
}

impl Workload for Trace1a {
    fn generate_inputs(&self) -> usize {
        SyntheticSprite::new(trace_1a(), self.seed ^ 0xabcd).generate(self.scale).len()
    }

    fn rep(&self, traced: bool) -> Rep {
        let mut rep = Rep {
            units: 0,
            attempted: 0,
            failed: 0,
            report: String::new(),
            virt: Virt::default(),
            counts: MetricsSnapshot::new(),
            trace_ops: 0,
            op_latency_ms_sum: 0.0,
            spans: None,
        };
        for policy in POLICIES {
            let mut cfg = ExperimentConfig::new(policy, trace_1a());
            cfg.scale = self.scale;
            cfg.seed = self.seed;
            let r = with_tracer(traced, &mut rep.spans, || run_experiment(&cfg));
            rep.units += r.report.ops;
            rep.attempted += r.report.ops + r.report.errors;
            rep.failed += r.report.errors;
            rep.report.push_str(&format!(
                "{} ops {} errors {}\n{}\n",
                policy.label(),
                r.report.ops,
                r.report.errors,
                r.metrics.to_json(0)
            ));
            rep.op_latency_ms_sum += r.report.latency.sum();
            let mean = r.report.latency.mean();
            // The UPS cell stands for the workload; the other policies
            // are layer metrics.
            if policy == Policy::Ups {
                rep.virt = Virt {
                    ops_per_s: 0.0, // trace-paced: the trace sets the rate
                    mean_ms: mean,
                    p99_ms: r.report.latency.quantile(0.99),
                    samples: r.report.latency.count(),
                };
                rep.counts.absorb("", &r.metrics);
            }
            rep.counts.gauge(&format!("policy.{}.mean_ms", policy.label()), mean);
        }
        rep.trace_ops = rep.units;
        rep
    }
}

/// `run_client_cell`: a closed-loop fleet on one shared engine, LFS
/// under UPS at queue depth 8.
struct Clients {
    kind: WorkloadKind,
    clients: u32,
    seed: u64,
    scale: f64,
}

impl Clients {
    fn cell(&self, clients: u32, traced: bool) -> Rep {
        let cfg = ClientSweepConfig::new(self.kind, vec![clients], self.seed, self.scale);
        let mut spans = None;
        let cell = with_tracer(traced, &mut spans, || run_client_cell(&cfg, clients));
        Rep {
            units: cell.report.ops,
            attempted: cell.report.ops + cell.report.errors,
            failed: cell.report.errors,
            report: format_client_sweep_json(&cfg, std::slice::from_ref(&cell)),
            virt: Virt {
                ops_per_s: cell.agg_ops_per_sec,
                mean_ms: cell.report.mean_ms(),
                p99_ms: cell.report.p99_ms(),
                samples: cell.report.latency.count(),
            },
            trace_ops: cell.report.ops,
            op_latency_ms_sum: cell.report.latency.sum(),
            counts: cell.metrics,
            spans,
        }
    }
}

impl Workload for Clients {
    fn generate_inputs(&self) -> usize {
        Scenario::generate(self.kind, self.clients, self.seed, self.scale).total_ops() as usize
    }

    fn rep(&self, traced: bool) -> Rep {
        self.cell(self.clients, traced)
    }
}

/// `run_serve_cell`: the same engine behind the NFS-shaped serving tier,
/// every op XDR-encoded through sessions, admission and the caches.
struct Serve {
    kind: WorkloadKind,
    clients: u32,
    seed: u64,
    scale: f64,
}

impl Workload for Serve {
    fn generate_inputs(&self) -> usize {
        Scenario::generate(self.kind, self.clients, self.seed, self.scale).total_ops() as usize
    }

    fn rep(&self, traced: bool) -> Rep {
        let cfg = ServeBenchConfig::new(self.kind, vec![self.clients], self.seed, self.scale);
        let mut spans = None;
        let cell = with_tracer(traced, &mut spans, || run_serve_cell(&cfg, self.clients));
        let (samples, mean_ms, p99_ms) = summary(&cell.metrics, "serve.latency_ms");
        Rep {
            units: cell.wire_requests,
            attempted: cell.wire_requests,
            failed: cell.errors,
            report: format_serve_bench_json(&cfg, std::slice::from_ref(&cell)),
            virt: Virt { ops_per_s: cell.wire_ops_per_sec, mean_ms, p99_ms, samples },
            trace_ops: cell.trace_ops,
            // The wire histogram times requests, not the engine ops
            // the spans wrap.
            op_latency_ms_sum: 0.0,
            counts: cell.metrics,
            spans,
        }
    }

    fn engine_twin(&self) -> Option<Rep> {
        let twin =
            Clients { kind: self.kind, clients: self.clients, seed: self.seed, scale: self.scale };
        Some(twin.cell(self.clients, false))
    }
}

/// `run_check_with`: the bounded crash-point enumeration over a trace-1a
/// prefix — LFS, the four standard policies, queue depth 8, one thread,
/// no cell cache, so every cell replays its prefix from an empty disk.
struct CheckLfs {
    seed: u64,
    budget: usize,
}

impl CheckLfs {
    fn records(&self) -> Vec<TraceRecord> {
        SyntheticSprite::new(trace_1a(), self.seed ^ 0xabcd).generate(0.002)
    }
}

impl Workload for CheckLfs {
    fn generate_inputs(&self) -> usize {
        self.records().len()
    }

    fn rep(&self, traced: bool) -> Rep {
        let mut cfg = CheckConfig::new(self.records(), "1a", self.budget);
        cfg.seed = self.seed;
        cfg.queue_depth = 8;
        // Cells are thousands of tiny simulations with overlapping
        // clocks; their spans do not fold into one tree, so a traced
        // rep records (for the overhead figure) but keeps no families.
        let mut spans = None;
        let report = with_tracer(traced, &mut spans, || {
            run_check_with(&cfg, CheckOptions { threads: 1, cache: None, progress: None })
        });
        let spans = spans.map(|f| Folded { events: f.events, ..Folded::default() });
        let mut counts = report.stats.metrics();
        let boundary: usize = report.rows.iter().map(|r| r.boundary_cells).sum();
        let retire: usize = report.rows.iter().map(|r| r.retire_cells).sum();
        counts.counter("check.boundary_cells", boundary as u64);
        counts.counter("check.retire_cells", retire as u64);
        counts.counter("check.violations", report.violations as u64);
        Rep {
            units: report.cells as u64,
            attempted: report.cells as u64,
            failed: report.violations as u64,
            report: format_check_report(&cfg, &report),
            virt: Virt::default(),
            counts,
            trace_ops: 0,
            op_latency_ms_sum: 0.0,
            spans,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The ruler against the committed record: the historical tier-1
    /// cell (`BENCH_trajectory.json`: zipf, 256 clients, scale 0.02,
    /// seed 42), run through this harness's own workload code, must
    /// print the trajectory's virtual numbers. The timed `zipf-256`
    /// workload is the same cell at a fifth of the ops, so that a rep
    /// fits the run's time allotment. Slow in a debug build:
    /// `cargo test --release -- --ignored`.
    #[test]
    #[ignore = "runs the full 61,696-op tier-1 cell; use --release"]
    fn the_tier1_cell_reproduces_the_committed_trajectory() {
        let rep = Clients { kind: zipf(), clients: 256, seed: 42, scale: 0.02 }.rep(false);
        assert_eq!((rep.units, rep.failed), (61_696, 0));
        assert_eq!(format!("{:.6}", rep.virt.ops_per_s), "56586.841478");
        assert_eq!(format!("{:.6}", rep.virt.mean_ms), "0.591369");
        assert_eq!(format!("{:.6}", rep.virt.p99_ms), "0.934214");
    }
}
