//! Ablations A1–A6: the design choices DESIGN.md calls out. Each is a
//! list of labelled cells; [`Ablation::run`] returns one row per cell
//! and [`Ablation::format`] is the table `patsy ablate-<name>` prints.

use cnp_core::FlushMode;
use cnp_sim::run_cells;
use cnp_trace::preset;

use crate::experiment::{run_experiment, ExperimentConfig, ExperimentResult, Policy};

/// One ablation cell's outcome under its table label.
pub type Row = (&'static str, ExperimentResult);

/// One cell of an ablation: its table label and what it changes in the
/// base configuration.
type Cell = (&'static str, fn(&mut ExperimentConfig));

/// One ablation: the cells it compares and how its table reads.
pub struct Ablation {
    /// Name after `ablate-` on the command line.
    pub name: &'static str,
    title: &'static str,
    /// The Sprite trace and flush policy of the base cell.
    base: (&'static str, Policy),
    /// The cells, in reporting order.
    cells: &'static [Cell],
    /// One row's table line.
    line: fn(&str, &ExperimentResult) -> String,
    /// What the table says under its rows.
    footer: fn(&[Row]) -> String,
}

/// The six ablations, A1–A6 in order.
pub static ABLATIONS: [Ablation; 6] = [
    // A1 — simple vs detailed disk model (the Ruemmler & Wilkes warning).
    Ablation {
        name: "diskmodel",
        title: "A1: simple vs detailed disk model (trace 1a, write-delay)",
        base: ("1a", Policy::WriteDelay),
        cells: &[
            ("detailed HP 97560 model", |_| {}),
            ("naive fixed-cost model ", |c| c.hw.disk = "simple"),
        ],
        line: |label, r| format!("  {label}: mean {:.3} ms\n", r.report.mean_ms()),
        footer: |rows| {
            format!(
                "  divergence: {:.1}% (Ruemmler & Wilkes report up to 112% for naive models)\n",
                diskmodel_divergence(rows) * 100.0
            )
        },
    },
    // A2 — synchronous vs asynchronous cache flush (§5.2 lesson).
    Ablation {
        name: "flushmode",
        title: "A2: synchronous vs asynchronous flush (trace 1b, nvram-whole)",
        base: ("1b", Policy::NvramWhole),
        cells: &[
            ("async", |c| c.flush_mode = FlushMode::Async),
            ("sync", |c| c.flush_mode = FlushMode::Sync),
        ],
        line: |label, r| {
            format!(
                "  {label:<6} flush: mean {:.3} ms  p99 {:.3} ms  write-mean {:.3} ms\n",
                r.report.mean_ms(),
                r.report.latency.quantile(0.99),
                r.report.write_latency.mean()
            )
        },
        footer: |_| {
            "  (paper: making the flush asynchronous removed a thread-stall bottleneck)\n".into()
        },
    },
    // A3 — driver queue disciplines.
    Ablation {
        name: "iosched",
        title: "A3: disk queue scheduling (trace 1a, write-delay)",
        base: ("1a", Policy::WriteDelay),
        cells: &[
            ("fcfs", |c| c.iosched = "fcfs".into()),
            ("sstf", |c| c.iosched = "sstf".into()),
            ("scan", |c| c.iosched = "scan".into()),
            ("c-scan", |c| c.iosched = "c-scan".into()),
            ("look", |c| c.iosched = "look".into()),
            ("c-look", |c| c.iosched = "c-look".into()),
        ],
        line: |sched, r| {
            format!(
                "  {sched:<7}: mean {:.3} ms  p99 {:.3} ms  mean-queue {:.2}\n",
                r.report.mean_ms(),
                r.report.latency.quantile(0.99),
                r.mean_queue
            )
        },
        footer: |_| String::new(),
    },
    // A4 — disk controller cache features on/off.
    Ablation {
        name: "diskcache",
        title: "A4: disk cache (immediate-report + read-ahead) on/off (trace 1a)",
        base: ("1a", Policy::WriteDelay),
        cells: &[("on", |c| c.no_disk_cache = false), ("off", |c| c.no_disk_cache = true)],
        line: |label, r| {
            format!(
                "  disk cache {label:<3}: mean {:.3} ms  write-mean {:.3} ms\n",
                r.report.mean_ms(),
                r.report.write_latency.mean()
            )
        },
        footer: |_| String::new(),
    },
    // A5 — NVRAM size sweep (Baker et al.'s open question).
    Ablation {
        name: "nvram",
        title: "A5: NVRAM size sweep (trace 1b, nvram-whole)",
        base: ("1b", Policy::NvramWhole),
        cells: &[
            ("  1 MB", |c| c.nvram_bytes = 1 << 20),
            ("  2 MB", |c| c.nvram_bytes = 2 << 20),
            ("  4 MB", |c| c.nvram_bytes = 4 << 20),
            ("  8 MB", |c| c.nvram_bytes = 8 << 20),
            (" 16 MB", |c| c.nvram_bytes = 16 << 20),
            (" 32 MB", |c| c.nvram_bytes = 32 << 20),
        ],
        line: |label, r| {
            format!(
                "  {label}: mean {:.3} ms  stalls {:>6}  flushed {:>7} blocks\n",
                r.report.mean_ms(),
                r.nvram_stalls,
                r.blocks_flushed
            )
        },
        footer: |_| "  (diminishing returns justify the paper's move to a UPS instead)\n".into(),
    },
    // A6 — LFS cleaner policies (greedy vs cost-benefit) lives in the
    // `lfs_cleaner` example, which drives the cleaner directly; here the
    // one cell reports segment churn end-to-end under trace load.
    Ablation {
        name: "cleaner",
        title: "A6: LFS cleaner under trace load — see also examples/lfs_cleaner",
        base: ("1a", Policy::Ups),
        cells: &[("cost-benefit (default)", |_| {})],
        line: |label, r| {
            format!(
                "  {label}: {} segments written, {} cleaned, {} blocks moved\n",
                r.layout.segments_written, r.layout.segments_cleaned, r.layout.cleaner_moved
            )
        },
        footer: |_| {
            "  (the disk is large relative to scaled traces; run examples/lfs_cleaner\n   \
             for a utilization-controlled greedy-vs-cost-benefit comparison)\n"
                .into()
        },
    },
];

/// A1's number: how far the naive model's mean is from the detailed
/// one's, as a fraction of the detailed mean.
pub fn diskmodel_divergence(rows: &[Row]) -> f64 {
    let (detailed, naive) = (rows[0].1.report.mean_ms(), rows[1].1.report.mean_ms());
    ((naive - detailed) / detailed).abs()
}

impl Ablation {
    /// The ablation `patsy ablate-<name>` runs.
    pub fn by_name(name: &str) -> Option<&'static Ablation> {
        ABLATIONS.iter().find(|a| a.name == name)
    }

    /// Runs the ablation's cells: one row each, in reporting order.
    pub fn run(&self, scale: f64, seed: u64, threads: usize) -> Vec<Row> {
        let (trace, policy) = self.base;
        let trace = preset(trace).expect("preset");
        let base = ExperimentConfig { scale, seed, ..ExperimentConfig::new(policy, trace) };
        let cells: Vec<ExperimentConfig> = self
            .cells
            .iter()
            .map(|(_, change)| {
                let mut cell = base.clone();
                change(&mut cell);
                cell
            })
            .collect();
        let results = run_cells(&cells, threads, run_experiment);
        self.cells.iter().map(|&(label, _)| label).zip(results).collect()
    }

    /// Formats the rows as the table the subcommand prints.
    pub fn format(&self, rows: &[Row]) -> String {
        let mut s = format!("== {} ==\n", self.title);
        for (label, r) in rows {
            s.push_str(&(self.line)(label, r));
        }
        s + &(self.footer)(rows)
    }
}
