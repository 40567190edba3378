//! The paper's figures and the A1, A4–A6 ablations as one table,
//! [`RIGS`]. A3 is `sweep-qd`. There is no A2 (synchronous against
//! asynchronous flushing): the flush daemon writes every policy batch.
//! Each [`Rig`] is a list of cells over [`ExperimentConfig`], the table
//! its rows print as, and the [`Claim`]s the repository records about
//! those rows. `patsy <rig>` prints the table and then one
//! `[verdict] words: measured` line per claim, judged on the rows just
//! printed, so the tool cannot print an expectation its own table
//! refutes.
//!
//! A claim's predicate is an ordering, a knee or a ratio with a stated
//! slack, never digits; its `source` is where the repository records it
//! (the seed's reading of the paper, not the paper's own figure).

use cnp_disk::Hp97560Params;
use cnp_fault::{Policy, POLICIES};
use cnp_obs::Histogram;
use cnp_sim::run_cells;
use cnp_trace::preset;

use crate::experiment::{run_experiment, ExperimentConfig, ExperimentResult};
use Table::{Cdf, Lines, Means};

/// One cell's outcome under its table label.
pub type Row = (&'static str, ExperimentResult);

/// One cell: its table label and what it changes in the rig's base
/// configuration.
type Cell = (&'static str, fn(&mut ExperimentConfig));

/// What a rig's rows say about a claim.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// The predicate is true of the rows.
    Holds,
    /// The predicate is false of the rows.
    Refuted,
    /// The rig never exercised the claim (no queue formed, nothing was
    /// cleaned).
    Vacuous,
}

/// An expectation the repository records about a rig's results.
pub struct Claim {
    /// Stable name, unique within its rig.
    pub id: &'static str,
    /// The claim in words.
    pub words: &'static str,
    /// Where the repository records it.
    pub source: &'static str,
    /// The verdict on a rig's rows, and the numbers it read.
    pub judge: fn(&[Row]) -> (Verdict, String),
}

/// A figure or an ablation.
pub struct Rig {
    /// The subcommand that runs it.
    pub name: &'static str,
    /// The traces its cells replay (rows are trace-major) and the base
    /// cell's flush policy.
    base: (&'static [&'static str], Policy),
    /// Each trace's cells, in reporting order.
    cells: &'static [Cell],
    table: Table,
    /// What the rows are judged against.
    pub claims: &'static [Claim],
}

/// How a rig's rows print.
enum Table {
    /// Figures 2–4: a CDF row per policy.
    Cdf,
    /// Figure 5: a row of means per trace.
    Means,
    /// An ablation: its title, then `  <label>: <fields>` per row.
    Lines(&'static str, fn(&ExperimentResult) -> String),
}

fn holds(predicate: bool) -> Verdict {
    if predicate {
        Verdict::Holds
    } else {
        Verdict::Refuted
    }
}

impl Rig {
    /// The rig `patsy <name>` runs.
    pub fn by_name(name: &str) -> Option<&'static Rig> {
        RIGS.iter().find(|r| r.name == name)
    }

    /// Runs the rig's cells across `threads` host threads: one row each,
    /// trace-major, in reporting order.
    pub fn run(&self, scale: f64, seed: u64, queue_depth: u32, threads: usize) -> Vec<Row> {
        let (traces, policy) = self.base;
        let specs: Vec<(&'static str, ExperimentConfig)> = traces
            .iter()
            .flat_map(|trace| {
                let mut base = ExperimentConfig::new(policy, preset(trace).expect("known trace"));
                (base.scale, base.seed, base.queue_depth) = (scale, seed, queue_depth);
                self.cells.iter().map(move |&(label, change)| {
                    let mut cell = base.clone();
                    change(&mut cell);
                    (label, cell)
                })
            })
            .collect();
        run_cells(&specs, threads, |(label, cell)| (*label, run_experiment(cell)))
    }

    /// What `patsy <name>` prints: the table, a blank line, and one
    /// verdict line per claim.
    pub fn report(&self, scale: f64, seed: u64, queue_depth: u32, rows: &[Row]) -> String {
        let mut s = match self.table {
            Cdf => cdf_table(scale, seed, queue_depth, rows),
            Means => mean_table(scale, seed, rows),
            Lines(title, fields) => {
                rows.iter().fold(format!("== {title} ==\n"), |s, (label, r)| {
                    s + &format!("  {label}: {}\n", fields(r))
                })
            }
        };
        s.push('\n');
        for claim in self.claims {
            let (verdict, measured) = (claim.judge)(rows);
            s += &format!("[{verdict:?}] {}: {measured}\n", claim.words);
        }
        s
    }
}

/// The latencies (ms) a CDF figure reads its curves at.
const CDF_MS: [f64; 10] = [0.5, 1.0, 2.0, 5.0, 10.0, 17.0, 25.0, 50.0, 100.0, 500.0];

/// Figures 2–4: one CDF row per policy.
fn cdf_table(scale: f64, seed: u64, queue_depth: u32, rows: &[Row]) -> String {
    let trace = rows[0].1.trace;
    let mut s = format!("== Figure (CDF of file-system latencies), trace {trace} ==\n");
    s += &format!(
        "   (scale {scale} of the 24-hour trace; seed {seed}; queue depth {queue_depth})\n"
    );
    s += "policy            ";
    for ms in CDF_MS {
        s += &format!(" {:>6}", format!("{ms}ms"));
    }
    s += "    mean(ms)    hit%    abs%       ops  qmean   ovl%\n";
    for (_, r) in rows {
        s += &format!("{:<18}", r.policy.label());
        for ms in CDF_MS {
            s += &format!(" {:>6.3}", r.report.latency.cdf_at(ms));
        }
        s += &format!(
            "   {:>9.3} {:>7.1} {:>7.1} {:>9} {:>6.2} {:>6.1}\n",
            r.report.mean_ms(),
            r.hit_rate * 100.0,
            r.absorption * 100.0,
            r.report.ops,
            r.mean_queue,
            r.overlap * 100.0,
        );
    }
    s
}

/// Figure 5: a row of means per trace.
fn mean_table(scale: f64, seed: u64, rows: &[Row]) -> String {
    let mut s = String::from("== Figure 5 (mean file-system latencies, ms) ==\n");
    s += &format!("   (scale {scale} of each 24-hour trace; seed {seed})\n{:<8}", "trace");
    for p in POLICIES {
        s += &format!("{:>18}", p.label());
    }
    for trace in rows.chunks(POLICIES.len()) {
        s += &format!("\n{:<8}", trace[0].1.trace);
        for (_, r) in trace {
            s += &format!("{:>18.3}", r.report.mean_ms());
        }
    }
    s + "\n"
}

fn mean_ms(r: &ExperimentResult) -> f64 {
    r.report.mean_ms()
}

fn write_ms(r: &ExperimentResult) -> f64 {
    r.report.write_latency.mean()
}

/// `f` of one trace's rows, in [`POLICIES`] order.
fn per_policy(rows: &[Row], f: fn(&ExperimentResult) -> f64) -> [f64; 4] {
    POLICIES.map(|p| f(&rows.iter().find(|(_, r)| r.policy == p).expect("a row per policy").1))
}

/// `f` of every row, in reporting order.
fn column<T>(rows: &[Row], f: fn(&ExperimentResult) -> T) -> Vec<T> {
    rows.iter().map(|(_, r)| f(r)).collect()
}

/// A figure: the four §5.1 policies on each of `traces`.
const fn figure(
    name: &'static str,
    traces: &'static [&'static str],
    table: Table,
    claims: &'static [Claim],
) -> Rig {
    Rig { name, base: (traces, Policy::Ups), cells: &POLICY_CELLS, table, claims }
}

/// The four §5.1 policies as cells, in [`POLICIES`] order.
static POLICY_CELLS: [Cell; 4] = [
    ("write-delay-30s", |c| c.policy = Policy::WriteDelay),
    ("ups", |c| c.policy = Policy::Ups),
    ("nvram-whole-file", |c| c.policy = Policy::NvramWhole),
    ("nvram-partial", |c| c.policy = Policy::NvramPartial),
];

/// What each CDF figure claims: the §5.1 notes the seed printed under
/// all three.
static CDF_CLAIMS: [Claim; 3] = [
    Claim {
        id: "mean-order",
        words: "mean latency orders ups < nvram-whole <= nvram-partial < write-delay",
        source: "§5.1, the seed's reading (its footer under fig2-fig4)",
        judge: |rows| {
            let [delay, ups, whole, part] = per_policy(rows, mean_ms);
            let measured = format!("{ups:.3} / {whole:.3} / {part:.3} / {delay:.3} ms");
            (holds(ups < whole && whole <= part && part < delay), measured)
        },
    },
    Claim {
        id: "absorption",
        words: "write absorption orders ups > nvram-whole > write-delay",
        source: "§5.1 \"write-saving\", the seed's reading",
        judge: |rows| {
            let [delay, ups, whole, _] = per_policy(rows, |r| r.absorption * 100.0);
            (holds(ups > whole && whole > delay), format!("{ups:.1} / {whole:.1} / {delay:.1}%"))
        },
    },
    Claim {
        id: "rotation-step",
        words: "above 2 ms the CDF's steepest step (20 buckets a decade) is one HP 97560 rotation",
        source: "§5.1, the seed's reading (its footer under fig2-fig4 put the bump at 17 ms)",
        judge: |rows| {
            let rotation = Hp97560Params::default().geometry.rotation_time().as_millis_f64();
            let mut all = Histogram::latency_default();
            rows.iter().for_each(|(_, r)| all.merge(&r.report.latency));
            let steepest = all.buckets().filter(|b| b.0 >= 2.0).max_by_key(|b| b.2);
            let Some((lo, hi, n)) = steepest else {
                return (Verdict::Vacuous, "no op above 2 ms".into());
            };
            let share = n as f64 / all.count() as f64 * 100.0;
            let measured =
                format!("{lo:.2}-{hi:.2} ms, {share:.2}% of ops; one rotation {rotation:.2} ms");
            (holds(lo <= rotation && rotation < hi), measured)
        },
    },
];

/// What Figure 5 claims: the seed's footer under it.
static FIG5_CLAIMS: [Claim; 2] = [
    Claim {
        id: "ups-fastest",
        words: "ups has the lowest mean on most traces (a tie counts for ups)",
        source: "§5.1, the seed's reading (its footer under fig5)",
        judge: |rows| {
            let traces = rows.chunks(POLICIES.len());
            let wins: Vec<&str> = traces
                .clone()
                .filter(|t| {
                    let means = per_policy(t, mean_ms);
                    // Small scales run some traces to the same mean under
                    // three policies (2a at 0.002, 1a and 2a at 0.001).
                    means[1] <= means.into_iter().fold(f64::INFINITY, f64::min)
                })
                .map(|t| t[0].1.trace)
                .collect();
            let measured = format!("{} of {} ({})", wins.len(), traces.len(), wins.join(", "));
            (holds(2 * wins.len() > traces.len()), measured)
        },
    },
    Claim {
        id: "nvram-2x",
        words: "both NVRAM policies are 1.5x or more faster than write-delay but on 1b and 5",
        source: "§5.1, the seed's reading (its footer under fig5 said ≈2x)",
        judge: |rows| {
            let (mut all, mut ratios) = (true, Vec::new());
            for t in rows.chunks(POLICIES.len()).filter(|t| !["1b", "5"].contains(&t[0].1.trace)) {
                let [delay, _, whole, part] = per_policy(t, mean_ms);
                all &= delay >= 1.5 * whole && delay >= 1.5 * part;
                let (trace, whole, part) = (t[0].1.trace, delay / whole, delay / part);
                ratios.push(format!("{trace} {whole:.2}x / {part:.2}x"));
            }
            (holds(all), ratios.join(", "))
        },
    },
];

/// Every figure and ablation, in the order `patsy`'s usage lists them.
pub static RIGS: [Rig; 8] = [
    figure("fig2", &["1a"], Cdf, &CDF_CLAIMS),
    figure("fig3", &["1b"], Cdf, &CDF_CLAIMS),
    figure("fig4", &["5"], Cdf, &CDF_CLAIMS),
    figure("fig5", &["1a", "1b", "2a", "2b", "5"], Means, &FIG5_CLAIMS),
    // A1 — simple vs detailed disk model (the Ruemmler & Wilkes warning).
    Rig {
        name: "ablate-diskmodel",
        base: (&["1a"], Policy::WriteDelay),
        cells: &[
            ("detailed HP 97560 model", |_| {}),
            ("naive fixed-cost model ", |c| c.hw.disk = "simple"),
        ],
        table: Lines("A1: simple vs detailed disk model (trace 1a, write-delay)", |r| {
            format!("mean {:.3} ms", mean_ms(r))
        }),
        claims: &[Claim {
            id: "naive-diverges",
            words: "the naive fixed-cost disk's mean is more than 10% off the detailed model's",
            source: "Ruemmler & Wilkes (up to 112% for naive models), the seed's reading",
            judge: |rows| {
                let (detailed, naive) = (mean_ms(&rows[0].1), mean_ms(&rows[1].1));
                let apart = (naive - detailed).abs() / detailed * 100.0;
                (holds(apart > 10.0), format!("{naive:.3} vs {detailed:.3} ms, {apart:.1}% apart"))
            },
        }],
    },
    // A3, the driver's queue disciplines, is `sweep-qd`: a scheduler only
    // chooses among queued requests, and that rig builds the queue.
    // A4 — disk controller cache features on/off.
    Rig {
        name: "ablate-diskcache",
        base: (&["1a"], Policy::WriteDelay),
        cells: &[
            ("disk cache on ", |c| c.no_disk_cache = false),
            ("disk cache off", |c| c.no_disk_cache = true),
        ],
        table: Lines("A4: disk cache (immediate-report + read-ahead) on/off (trace 1a)", |r| {
            format!("mean {:.3} ms  write-mean {:.3} ms", mean_ms(r), write_ms(r))
        }),
        claims: &[Claim {
            id: "disk-cache-helps",
            words: "immediate-report and read-ahead lower the mean",
            source: "Ruemmler & Wilkes's disk cache, the seed's reading (DESIGN.md's A4)",
            judge: |rows| {
                let (on, off) = (mean_ms(&rows[0].1), mean_ms(&rows[1].1));
                (holds(on < off), format!("on {on:.3} vs off {off:.3} ms"))
            },
        }],
    },
    // A5 — NVRAM size sweep (Baker et al.'s open question).
    Rig {
        name: "ablate-nvram",
        base: (&["1b"], Policy::NvramWhole),
        cells: &[
            ("  1 MB", |c| c.nvram_bytes = 1 << 20),
            ("  2 MB", |c| c.nvram_bytes = 2 << 20),
            ("  4 MB", |c| c.nvram_bytes = 4 << 20),
            ("  8 MB", |c| c.nvram_bytes = 8 << 20),
            (" 16 MB", |c| c.nvram_bytes = 16 << 20),
            (" 32 MB", |c| c.nvram_bytes = 32 << 20),
        ],
        table: Lines("A5: NVRAM size sweep (trace 1b, nvram-whole)", |r| {
            let (stalls, flushed) = (r.nvram_stalls, r.blocks_flushed);
            format!("mean {:.3} ms  stalls {stalls:>6}  flushed {flushed:>7} blocks", mean_ms(r))
        }),
        // Row 3 is the 8 MB cell.
        claims: &[
            Claim {
                id: "nvram-stall-knee",
                words: "NVRAM stalls fall as it grows and vanish from 8 MB",
                source: "Baker et al.'s NVRAM sizing question, the seed's reading",
                judge: |rows| {
                    let stalls = column(rows, |r| r.nvram_stalls);
                    let falls = stalls.windows(2).all(|w| w[0] >= w[1]) && stalls[0] > 0;
                    (holds(falls && stalls[3..].iter().all(|&s| s == 0)), format!("{stalls:?}"))
                },
            },
            Claim {
                id: "nvram-mean-flat",
                words: "the mean never rises with NVRAM size (1% slack) and is flat from 8 MB",
                source: "ablate-nvram's note (diminishing returns, the seed's reading)",
                judge: |rows| {
                    let means = column(rows, mean_ms);
                    let never_rises = means.windows(2).all(|w| w[1] <= w[0] * 1.01);
                    let flat = means[3..].iter().all(|m| (m - means[3]).abs() <= means[3] * 0.01);
                    let measured: Vec<String> = means.iter().map(|m| format!("{m:.3}")).collect();
                    (holds(never_rises && flat), format!("{} ms", measured.join(" / ")))
                },
            },
        ],
    },
    // A6 — LFS cleaner policies (greedy vs cost-benefit) lives in the
    // `lfs_cleaner` example, which drives the cleaner directly; here the
    // one cell reports segment churn end-to-end under trace load.
    Rig {
        name: "ablate-cleaner",
        base: (&["1a"], Policy::Ups),
        cells: &[("cost-benefit (default)", |_| {})],
        table: Lines("A6: LFS cleaner under trace load — see also examples/lfs_cleaner", |r| {
            let count = |name| r.metrics.counter_value(name);
            let (written, cleaned, moved) = (
                count("layout.segments_written"),
                count("layout.segments_cleaned"),
                count("layout.cleaner_moved"),
            );
            format!("{written} segments written, {cleaned} cleaned, {moved} blocks moved")
        }),
        claims: &[Claim {
            id: "cleaner-policy",
            words: "the cleaner's policy matters under trace load",
            source: "ablate-cleaner's note; examples/lfs_cleaner compares greedy and cost-benefit",
            // One policy runs here: the rig cannot tell whether the choice
            // matters, cleaning or not.
            judge: |rows| {
                let count = |name| rows[0].1.metrics.counter_value(name);
                let (cleaned, written) =
                    (count("layout.segments_cleaned"), count("layout.segments_written"));
                (Verdict::Vacuous, format!("{cleaned} of {written} segments cleaned"))
            },
        }],
    },
];
