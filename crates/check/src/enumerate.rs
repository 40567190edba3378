//! The bounded crash-point enumerator: every op boundary × every legal
//! retire prefix of the in-flight write batch, across layout × flush
//! policy cells — the sampled crash sweep made exhaustive.
//!
//! For a bounded workload prefix of `budget` operations the enumerator
//! runs, per (layout, policy):
//!
//! 1. a **boundary cell** at every op boundary `k ∈ 1..=budget` — the
//!    machine stops at op `k` and the power dies (graceful capture of
//!    platter + NVRAM); and
//! 2. for every boundary whose cut found `b` writes still in flight, a
//!    **retire cell** per `r ∈ 0..=b` — a disk-level power cut at the
//!    same instant after which the dying disk durably retires the first
//!    `r` unacknowledged writes it serves, in the driver's dispatch
//!    order ([`cnp_disk::FaultPlan::cut_retire_ops`]).
//!
//! Every failing cell is minimized (delta-debugging the op prefix, then
//! the retire subset) and emitted as a self-contained repro blob
//! (`crate::repro`).
//!
//! ## Parallel execution and determinism
//!
//! A cell is a pure function of `(CellSpec, records, CutSpec)`, so the
//! enumeration is one [`cnp_sim::run_cells`] call: the unit of work is
//! one boundary (the graceful cell plus all of its retire cells, which
//! share its arrival probe), and the finished units are folded in the
//! exact serial sweep order before any report state is touched.
//! [`CheckReport`] is therefore byte-identical at every thread count;
//! only [`CheckStats`] (wall time, utilization) varies. Failure
//! minimization is deferred to the end of the fold and — being per-row
//! pure — is a second `run_cells` over the failing rows.
//!
//! ## At most two runs of a boundary's prefix
//!
//! A power-cut cell is, event for event, the graceful run of its prefix
//! until the disk first checks for the cut at or after its instant, and
//! after the cut it differs from its siblings only in which writes the
//! dead disk retires. So a unit runs its prefix at most twice, whatever
//! its batch: the graceful run, whose disk says whether the boundary is
//! *quiet* (no cut check at or after the instant before the replay
//! joined, so its power-cut cells are read off this run), and otherwise
//! one power-cut run retiring the whole batch, from whose image at the
//! cut and retired writes every retire cell is derived
//! (`cell::doom`). At budget 40 on trace 1a (qd 8, seed 42),
//! 160 units take 192 runs, where one run per cell took 320.
//! [`CheckStats::prefix_runs`] counts them. [`run_cell`], [`minimize`]
//! and [`Repro`] run every cell's own faulted prefix: they are the
//! oracle.
//!
//! ## One verification per distinct crash state
//!
//! Most cells leave a crash state another cell already left: at budget
//! 40 on trace 1a (qd 8, seed 42), 320 cells leave 78. Each cell's
//! verification, a pure function of `(CellSpec, crash state, acked
//! paths)` run in a simulation of its own
//! (`crate::cell`), goes through one memo per enumeration, shared by
//! the workers and keyed by [`crate::cache::state_key`]. A state is
//! recovered once, and every other cell that reaches it is judged from
//! the stored verdict, its loss accounted from its own acks and cut.
//! [`CheckStats::states_verified`] counts the recoveries. [`minimize`]
//! and [`Repro`] verify every cell with no memo: they are the oracle.
//!
//! ## Incremental checking
//!
//! With a [`CellCache`] attached, every cell's inputs are content-
//! hashed (`crate::cache`) and previously computed outcomes are
//! replayed instead of re-simulated. An unchanged tree re-checks at
//! cache-replay speed; mutating one record invalidates exactly the
//! boundaries whose prefix contains it.

use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use cnp_fault::{LayoutKind, Policy, POLICIES};
use cnp_sim::run_cells;
use cnp_trace::TraceRecord;

use crate::cache::{cell_key, spec_fingerprint, state_key, CellCache, PrefixHashes};
use crate::cell::{
    arrival_ns, doom, run_cell, run_cell_at, verify, CellOutcome, CellSpec, CutSpec, Doomed,
    Verdict,
};
use crate::repro::Repro;

/// Enumeration configuration.
#[derive(Debug, Clone)]
pub struct CheckConfig {
    /// The full workload; the enumerator bounds it to `budget` ops.
    pub records: Vec<TraceRecord>,
    /// Report label for the workload (e.g. the trace preset name).
    pub workload_label: String,
    /// Bounded-prefix length: op boundaries `1..=budget` are enumerated.
    pub budget: usize,
    /// Layouts to sweep.
    pub layouts: Vec<LayoutKind>,
    /// Flush policies to sweep.
    pub policies: Vec<Policy>,
    /// I/O pipeline depth for every cell.
    pub queue_depth: u32,
    /// Base seed; each (layout, policy) derives its own sim seed.
    pub seed: u64,
    /// Cache memory per cell.
    pub mem_bytes: u64,
    /// NVRAM bound for the NVRAM policies.
    pub nvram_bytes: u64,
    /// Reintroduce the stale-size write bug (self-test only).
    pub plant_stale_size_bug: bool,
    /// Extra cell runs the minimizer may spend per failure.
    pub minimize_runs: usize,
}

impl CheckConfig {
    /// Defaults: LFS, all four policies — and a deliberately *small*
    /// cache (64 frames) with a 16-block NVRAM. The crash sweep keeps
    /// the paper's 8 MB/4 MB for fidelity; the checker's job is
    /// adversarial coverage, and a bounded prefix only exercises flush
    /// pressure, mid-write stalls, and in-flight batches at crash
    /// instants when the cache is small relative to the workload.
    pub fn new(records: Vec<TraceRecord>, workload_label: &str, budget: usize) -> CheckConfig {
        CheckConfig {
            records,
            workload_label: workload_label.to_string(),
            budget,
            layouts: vec![LayoutKind::Lfs],
            policies: POLICIES.to_vec(),
            queue_depth: 1,
            seed: 42,
            mem_bytes: 64 * 4096,
            nvram_bytes: 16 * 4096,
            plant_stale_size_bug: false,
            minimize_runs: 128,
        }
    }

    /// The spec of every cell in the row of `layouts[li]` x
    /// `policies[pi]`.
    pub fn cell_spec(&self, li: usize, pi: usize) -> CellSpec {
        let sim_seed = self
            .seed
            .wrapping_mul(0x9e37_79b9_7f4a_7c15)
            .wrapping_add(((li as u64) << 24) ^ ((pi as u64) << 8));
        let (layout, policy) = (self.layouts[li], self.policies[pi]);
        let (mem, nvram, qd) = (self.mem_bytes, self.nvram_bytes, self.queue_depth);
        let spec = CellSpec::new(layout, policy, mem, nvram, qd, sim_seed);
        CellSpec { plant_stale_size_bug: self.plant_stale_size_bug, ..spec }
    }
}

/// A failing cell, minimized and packaged.
#[derive(Debug, Clone)]
pub struct Failure {
    /// Layout name.
    pub layout: &'static str,
    /// Policy label.
    pub policy: &'static str,
    /// Op boundary the violation first appeared at.
    pub cut_op: usize,
    /// Crash kind.
    pub cut: CutSpec,
    /// The violations, rendered.
    pub violations: Vec<String>,
    /// Ops in the minimized prefix (≤ `cut_op`).
    pub minimized_ops: usize,
    /// Cell runs the minimizer spent.
    pub minimize_runs: usize,
    /// Self-contained repro blob for the **minimized** cell.
    pub repro: String,
}

/// One (layout, policy) row of the enumeration.
#[derive(Debug, Clone)]
pub struct PolicyRow {
    /// Layout name.
    pub layout: &'static str,
    /// Policy label.
    pub policy: &'static str,
    /// Boundary (graceful) cells run.
    pub boundary_cells: usize,
    /// Retire (disk-level power cut) cells run.
    pub retire_cells: usize,
    /// Cells with oracle violations.
    pub violating_cells: usize,
    /// Boundary cells whose cut found writes in flight.
    pub inflight_boundaries: usize,
    /// Largest in-flight write batch seen at any boundary.
    pub max_inflight_batch: u64,
    /// Boundary cells with (allowed) acked loss — the volatile
    /// policies' data-loss window, reported but not punished.
    pub lossy_cells: usize,
    /// First failure, minimized (None = row verified clean).
    pub first_failure: Option<Failure>,
}

/// Execution statistics of one enumeration run. Everything here is
/// wall-clock / environment dependent and deliberately kept **out** of
/// [`format_check_report`]: the report is byte-identical at any thread
/// count and any cache state; the stats say how fast it got there.
#[derive(Debug, Clone)]
pub struct CheckStats {
    /// Worker threads used.
    pub threads: usize,
    /// End-to-end wall time of the enumeration (excludes the caller's
    /// workload generation, includes merge + minimization).
    pub wall: Duration,
    /// Cells actually simulated this run.
    pub cells_run: usize,
    /// Cells replayed from the incremental cache.
    pub cache_hits: usize,
    /// Crash states recovered and verified; every other cell simulated
    /// reused the verdict of an identical state. At one thread this is
    /// the number of distinct states; two workers that reach one state
    /// at once may both verify it.
    pub states_verified: usize,
    /// Runs of a boundary's prefix (build, format, replay, cut): one or
    /// two per boundary simulated, whatever its in-flight batch.
    pub prefix_runs: usize,
    /// Time spent inside cells, summed over the workers.
    pub busy: Duration,
}

impl CheckStats {
    /// Cache hit rate over all cells (0.0 with no cache attached).
    pub fn hit_rate(&self) -> f64 {
        let total = self.cells_run + self.cache_hits;
        if total == 0 {
            0.0
        } else {
            self.cache_hits as f64 / total as f64
        }
    }

    /// Cells per wall-clock second (simulated + replayed).
    pub fn cells_per_sec(&self) -> f64 {
        let s = self.wall.as_secs_f64();
        if s <= 0.0 {
            0.0
        } else {
            (self.cells_run + self.cache_hits) as f64 / s
        }
    }

    /// Aggregate worker utilization: busy time over `threads × wall`.
    pub fn utilization(&self) -> f64 {
        let denom = self.threads as f64 * self.wall.as_secs_f64();
        if denom <= 0.0 {
            0.0
        } else {
            (self.busy.as_secs_f64() / denom).min(1.0)
        }
    }

    /// Exports the run's execution profile through the unified metrics
    /// registry vocabulary (`check.*` keys, sorted and stable).
    pub fn metrics(&self) -> cnp_obs::metrics::MetricsSnapshot {
        let mut m = cnp_obs::metrics::MetricsSnapshot::new();
        m.counter("check.cells", (self.cells_run + self.cache_hits) as u64);
        m.counter("check.cells_run", self.cells_run as u64);
        m.counter("check.cache.hits", self.cache_hits as u64);
        m.counter("check.states_verified", self.states_verified as u64);
        m.counter("check.prefix_runs", self.prefix_runs as u64);
        m.gauge("check.cache.hit_rate", self.hit_rate());
        m.gauge("check.threads", self.threads as f64);
        m.gauge("check.cells_per_sec", self.cells_per_sec());
        m.gauge("check.wall_s", self.wall.as_secs_f64());
        m.gauge("check.workers.utilization", self.utilization());
        m
    }
}

/// The whole enumeration's outcome.
#[derive(Debug, Clone)]
pub struct CheckReport {
    /// Per-(layout, policy) rows, sweep order.
    pub rows: Vec<PolicyRow>,
    /// Total cells run (boundary + retire).
    pub cells: usize,
    /// Total cells with violations.
    pub violations: usize,
    /// Execution profile (wall-dependent; not part of the stable
    /// report bytes).
    pub stats: CheckStats,
}

impl CheckReport {
    /// True if every cell verified clean.
    pub fn clean(&self) -> bool {
        self.violations == 0
    }

    /// All repro blobs (one per failing row), for artifact upload.
    pub fn repro_blobs(&self) -> Vec<String> {
        self.rows.iter().filter_map(|r| r.first_failure.as_ref().map(|f| f.repro.clone())).collect()
    }
}

/// A progress observation, delivered every 1000 cells as boundary
/// units finish (in completion order, by the worker that finished one).
#[derive(Debug, Clone, Copy)]
pub struct CheckProgress {
    /// Cells finished so far (boundary + retire).
    pub cells_done: usize,
    /// Boundary units finished so far.
    pub units_done: usize,
    /// Total boundary units in the enumeration.
    pub units_total: usize,
    /// Wall time since the enumeration started.
    pub elapsed: Duration,
}

impl CheckProgress {
    /// Estimated seconds remaining, extrapolated from the boundary-unit
    /// completion fraction (cell totals are not known up front — the
    /// retire fan-out per boundary is discovered as boundaries run).
    pub fn eta_secs(&self) -> f64 {
        if self.units_done == 0 {
            return 0.0;
        }
        let rate = self.elapsed.as_secs_f64() / self.units_done as f64;
        rate * (self.units_total - self.units_done) as f64
    }
}

/// Execution options for [`run_check_with`]: thread fan-out, the
/// incremental cell cache, and a progress sink. The default is serial,
/// uncached and silent.
#[derive(Default)]
pub struct CheckOptions<'a> {
    /// Worker threads (0 or 1 = every cell on the calling thread).
    pub threads: usize,
    /// Incremental cache: consulted for every cell, and rewritten on
    /// return to hold exactly the entries this run touched.
    pub cache: Option<&'a mut CellCache>,
    /// Called every 1000 finished cells.
    pub progress: Option<&'a mut (dyn FnMut(CheckProgress) + Send)>,
}

/// One cell's result as it travels from a worker to the merge: the
/// outcome plus its cache identity.
struct CellEntry {
    cut: CutSpec,
    key: u128,
    hit: bool,
    outcome: CellOutcome,
}

/// One work unit's results: the boundary cell and its retire cells, in
/// retire order, and the host time they took.
struct UnitResult {
    boundary: CellEntry,
    retires: Vec<CellEntry>,
    /// Runs of the unit's prefix it took (0 when every cell was cached).
    prefix_runs: usize,
    busy: Duration,
}

/// The verdicts of the crash states one enumeration has verified, by
/// [`state_key`], shared by its workers: a cell whose doomed half left
/// a state already verified is judged from that verdict instead of
/// recovering the state again. Holds digests and small results, never
/// images.
#[derive(Default)]
struct Memo {
    verdicts: Mutex<HashMap<u128, Verdict>>,
    verified: AtomicUsize,
}

impl Memo {
    /// One cell's outcome from its doomed half, verified through the
    /// memo.
    fn judge(&self, spec: &CellSpec, fingerprint: &str, doomed: &Doomed) -> CellOutcome {
        let key = state_key(fingerprint, &doomed.state, &doomed.acked);
        if let Some(verdict) = self.lock().get(&key) {
            return doomed.judge(spec, verdict);
        }
        // Unlocked: two workers that reach one state at once both
        // verify it, and compute the same verdict.
        let verdict = verify(spec, &doomed.state, &doomed.acked);
        self.verified.fetch_add(1, Ordering::Relaxed);
        let outcome = doomed.judge(spec, &verdict);
        self.lock().insert(key, verdict);
        outcome
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, HashMap<u128, Verdict>> {
        self.verdicts.lock().expect("a worker that panicked fails the run")
    }
}

/// Runs one boundary unit: the graceful cell at prefix `records`, then
/// every legal retire cell of its in-flight batch (sharing its arrival
/// instant). The prefix runs at most twice: the graceful run, and one
/// power-cut run retiring the whole batch unless the boundary is quiet
/// (see [`doom`]); every retire cell is read off one of them. Pure in
/// `(spec, records)` modulo the cache.
fn run_unit(
    spec: &CellSpec,
    fingerprint: &str,
    records: &[TraceRecord],
    prefix_hash: u128,
    cache: Option<&CellCache>,
    memo: &Memo,
) -> UnitResult {
    let t0 = Instant::now();
    let key = |cut: &CutSpec| cache.map_or(0, |_| cell_key(fingerprint, prefix_hash, cut));
    let cached = |key: u128| cache.and_then(|c| c.get(key)).cloned();
    let mut prefix_runs = 0;
    let mut cuts = None;
    let bkey = key(&CutSpec::Graceful);
    let (boundary, bhit) = match cached(bkey) {
        Some(o) => (o, true),
        None => {
            prefix_runs += 1;
            let (graceful, quiet, ()) = doom(spec, records, None, true, |_| ());
            cuts = quiet;
            (memo.judge(spec, fingerprint, &graceful), false)
        }
    };
    let batch = boundary.inflight_batch;
    let mut retires = Vec::with_capacity(batch as usize + 1);
    for retire in 0..=batch {
        let cut = CutSpec::PowerCut { retire };
        let key = key(&cut);
        let (outcome, hit) = match cached(key) {
            Some(o) => (o, true),
            None => {
                let cuts = cuts.get_or_insert_with(|| {
                    prefix_runs += 1;
                    let power = Some((boundary.arrival_ns, batch));
                    doom(spec, records, power, true, |_| ()).1.expect("a deriving run derives")
                });
                (memo.judge(spec, fingerprint, &cuts.cell(retire)), false)
            }
        };
        retires.push(CellEntry { cut, key, hit, outcome });
    }
    UnitResult {
        boundary: CellEntry { cut: CutSpec::Graceful, key: bkey, hit: bhit, outcome: boundary },
        retires,
        prefix_runs,
        busy: t0.elapsed(),
    }
}

/// The first failing cell of a row, recorded during the merge and
/// minimized after it (minimization is per-row pure, so failing rows
/// delta-debug in parallel).
struct FailureSite {
    row: usize,
    cut_op: usize,
    cut: CutSpec,
    violations: Vec<String>,
}

/// Folds unit results — in exact serial sweep order — into the report
/// rows. All report state lives here; workers only compute outcomes.
struct Merger {
    rows: Vec<PolicyRow>,
    cells: usize,
    violations: usize,
    cells_run: usize,
    cache_hits: usize,
    prefix_runs: usize,
    busy: Duration,
    /// `Some` when caching: every entry this run touched (hit or run).
    touched: Option<HashMap<u128, CellOutcome>>,
    candidates: Vec<Option<FailureSite>>,
}

impl Merger {
    fn book(&mut self, row: usize, cut_op: usize, entry: &CellEntry) {
        self.cells += 1;
        if entry.hit {
            self.cache_hits += 1;
        } else {
            self.cells_run += 1;
        }
        if let Some(touched) = &mut self.touched {
            touched.insert(entry.key, entry.outcome.clone());
        }
        if entry.outcome.clean() {
            return;
        }
        self.rows[row].violating_cells += 1;
        self.violations += 1;
        if self.candidates[row].is_none() {
            self.candidates[row] = Some(FailureSite {
                row,
                cut_op,
                cut: entry.cut,
                violations: entry.outcome.violations.iter().map(|v| v.to_string()).collect(),
            });
        }
    }

    fn absorb(&mut self, row: usize, k: usize, unit: UnitResult) {
        {
            let r = &mut self.rows[row];
            r.boundary_cells += 1;
            let b = &unit.boundary.outcome;
            if b.loss.lost_files > 0 || b.loss.lost_bytes > 0 {
                r.lossy_cells += 1;
            }
            if b.inflight_batch > 0 {
                r.inflight_boundaries += 1;
                r.max_inflight_batch = r.max_inflight_batch.max(b.inflight_batch);
            }
        }
        self.book(row, k, &unit.boundary);
        for entry in &unit.retires {
            self.rows[row].retire_cells += 1;
            self.book(row, k, entry);
        }
        self.prefix_runs += unit.prefix_runs;
        self.busy += unit.busy;
    }
}

/// The progress sink and the counts it reports, shared by the workers.
struct Progress<'a> {
    sink: &'a mut (dyn FnMut(CheckProgress) + Send),
    cells_done: usize,
    units_done: usize,
    next_at: usize,
}

/// Runs the full bounded enumeration under `opts`: fanned across
/// `opts.threads` OS threads, incrementally against `opts.cache`, with
/// progress delivered to `opts.progress`. The report is byte-identical
/// to the serial run for every thread count and cache state; see the
/// module docs for the determinism argument.
pub fn run_check_with(cfg: &CheckConfig, opts: CheckOptions<'_>) -> CheckReport {
    let started = Instant::now();
    let prefix_cap = cfg.budget.min(cfg.records.len());
    let threads = opts.threads.max(1);

    // Row plans in sweep order; each carries its spec and — for the
    // cache — the spec's canonical fingerprint.
    let mut plans: Vec<(LayoutKind, &'static str, CellSpec)> = Vec::new();
    for (li, &layout) in cfg.layouts.iter().enumerate() {
        for (pi, policy) in cfg.policies.iter().enumerate() {
            plans.push((layout, policy.label(), cfg.cell_spec(li, pi)));
        }
    }
    let fingerprints: Vec<String> = plans.iter().map(|(_, _, s)| spec_fingerprint(s)).collect();
    let prefix_hashes = opts.cache.is_some().then(|| PrefixHashes::over(&cfg.records, prefix_cap));

    // Work units (row, boundary k), longest prefix first: `run_cells`
    // claims in list order, replay cost grows with k, and the expensive
    // units must not pile up at the tail of the run. The fold below
    // goes in serial sweep order, so the claim order is invisible in
    // the report.
    let mut units: Vec<(usize, usize)> =
        (0..plans.len()).flat_map(|row| (1..=prefix_cap).map(move |k| (row, k))).collect();
    units.sort_by_key(|&(_, k)| std::cmp::Reverse(k));

    let mut merger = Merger {
        rows: plans
            .iter()
            .map(|(layout, label, _)| PolicyRow {
                layout: layout.name(),
                policy: label,
                boundary_cells: 0,
                retire_cells: 0,
                violating_cells: 0,
                inflight_boundaries: 0,
                max_inflight_batch: 0,
                lossy_cells: 0,
                first_failure: None,
            })
            .collect(),
        cells: 0,
        violations: 0,
        cells_run: 0,
        cache_hits: 0,
        prefix_runs: 0,
        busy: Duration::ZERO,
        touched: opts.cache.is_some().then(HashMap::new),
        candidates: (0..plans.len()).map(|_| None).collect(),
    };

    let cache_snapshot: Option<&CellCache> = opts.cache.as_deref();
    let memo = Memo::default();
    let progress = opts
        .progress
        .map(|sink| Mutex::new(Progress { sink, cells_done: 0, units_done: 0, next_at: 1000 }));

    let done = run_cells(&units, threads, |&(row, k)| {
        let ph = prefix_hashes.as_ref().map(|p| p.prefix(k)).unwrap_or(0);
        let records = &cfg.records[..k];
        let unit = run_unit(&plans[row].2, &fingerprints[row], records, ph, cache_snapshot, &memo);
        if let Some(progress) = &progress {
            let mut p = progress.lock().expect("a progress sink that panicked fails the run");
            p.cells_done += 1 + unit.retires.len();
            p.units_done += 1;
            while p.cells_done >= p.next_at {
                let update = CheckProgress {
                    cells_done: p.cells_done,
                    units_done: p.units_done,
                    units_total: units.len(),
                    elapsed: started.elapsed(),
                };
                (p.sink)(update);
                p.next_at += 1000;
            }
        }
        unit
    });
    let mut done: Vec<((usize, usize), UnitResult)> = units.iter().copied().zip(done).collect();
    done.sort_unstable_by_key(|&(unit, _)| unit);
    for ((row, k), unit) in done {
        merger.absorb(row, k, unit);
    }

    // Minimize failing rows' first failures — deferred out of the fold:
    // each search is an independent pure function of its row's spec +
    // failing prefix.
    let sites: Vec<FailureSite> = merger.candidates.iter_mut().filter_map(Option::take).collect();
    let failures = run_cells(&sites, threads, |site| {
        let spec = &plans[site.row].2;
        let records = &cfg.records[..site.cut_op];
        let (minimized, min_cut, runs) = minimize(spec, records, site.cut, cfg.minimize_runs);
        let repro = Repro { spec: spec.clone(), cut: min_cut, records: minimized.clone() }.encode();
        Failure {
            layout: merger.rows[site.row].layout,
            policy: merger.rows[site.row].policy,
            cut_op: site.cut_op,
            cut: min_cut,
            violations: site.violations.clone(),
            minimized_ops: minimized.len(),
            minimize_runs: runs,
            repro,
        }
    });
    for (site, failure) in sites.iter().zip(failures) {
        merger.rows[site.row].first_failure = Some(failure);
    }

    if let (Some(cache), Some(touched)) = (opts.cache, merger.touched.take()) {
        cache.retain_touched(touched);
    }

    CheckReport {
        rows: merger.rows,
        cells: merger.cells,
        violations: merger.violations,
        stats: CheckStats {
            threads,
            wall: started.elapsed(),
            cells_run: merger.cells_run,
            cache_hits: merger.cache_hits,
            states_verified: memo.verified.into_inner(),
            prefix_runs: merger.prefix_runs,
            busy: merger.busy,
        },
    }
}

/// Delta-debugs a failing cell: greedily drops ops (newest first, so
/// the structure-establishing early ops survive longest) while the cell
/// still fails, then — for power cuts — shrinks the retire prefix to
/// the smallest still-failing value. The enumeration already visits
/// boundaries in ascending order, so the failing `cut_op` is minimal by
/// construction and only the prefix *content* is left to shrink.
/// Budgeted in cell runs; returns (minimized records, minimized cut,
/// runs spent).
pub fn minimize(
    spec: &CellSpec,
    records: &[TraceRecord],
    cut: CutSpec,
    max_runs: usize,
) -> (Vec<TraceRecord>, CutSpec, usize) {
    let mut kept = records.to_vec();
    let mut runs = 0usize;
    // Power-cut candidates need the cut's virtual instant: the arrival
    // of the candidate's last op. The post-format replay epoch depends
    // only on the spec (not the records), so one graceful probe up
    // front (a doomed half, counted as a run) prices every candidate —
    // re-probing per candidate would silently double the budgeted cost.
    let epoch_ns = match cut {
        CutSpec::PowerCut { .. } => {
            runs += 1;
            Some(arrival_ns(spec, records) - records.last().map(|r| r.time_ns).unwrap_or(0))
        }
        CutSpec::Graceful => None,
    };
    let run_candidate = |candidate: &[TraceRecord], cut: CutSpec| match (cut, epoch_ns) {
        (CutSpec::PowerCut { retire }, Some(epoch)) => {
            let last = candidate.last().map(|r| r.time_ns).unwrap_or(0);
            run_cell_at(spec, candidate, epoch + last, retire)
        }
        _ => run_cell(spec, candidate, cut),
    };
    let mut i = kept.len();
    while i > 0 {
        i -= 1;
        if kept.len() == 1 || runs >= max_runs {
            break;
        }
        let mut candidate = kept.clone();
        candidate.remove(i);
        runs += 1;
        if !run_candidate(&candidate, cut).clean() {
            kept = candidate;
        }
    }
    let mut min_cut = cut;
    if let CutSpec::PowerCut { retire } = cut {
        // The retire dimension: the smallest still-failing prefix wins.
        for r in 0..retire {
            if runs >= max_runs {
                break;
            }
            runs += 1;
            if !run_candidate(&kept, CutSpec::PowerCut { retire: r }).clean() {
                min_cut = CutSpec::PowerCut { retire: r };
                break;
            }
        }
    }
    (kept, min_cut, runs)
}

/// Formats the enumeration as the stable report `patsy check` prints.
pub fn format_check_report(cfg: &CheckConfig, report: &CheckReport) -> String {
    let mut s = String::new();
    s.push_str(&format!(
        "check: workload {} | budget {} (prefix {}) | seed {} | qd {} | layouts {}\n",
        cfg.workload_label,
        cfg.budget,
        cfg.budget.min(cfg.records.len()),
        cfg.seed,
        cfg.queue_depth,
        cfg.layouts.iter().map(|l| l.name()).collect::<Vec<_>>().join("+"),
    ));
    s.push_str("layout policy            boundary  retire  inflight  maxbatch  lossy  viol\n");
    for row in &report.rows {
        s.push_str(&format!(
            "{:<6} {:<17} {:>8} {:>7} {:>9} {:>9} {:>6} {:>5}\n",
            row.layout,
            row.policy,
            row.boundary_cells,
            row.retire_cells,
            row.inflight_boundaries,
            row.max_inflight_batch,
            row.lossy_cells,
            row.violating_cells,
        ));
    }
    s.push_str(&format!(
        "cells: {} | violations: {}\n",
        report.cells,
        if report.clean() {
            "none (every crash point verified)".to_string()
        } else {
            format!("{}", report.violations)
        }
    ));
    for row in &report.rows {
        if let Some(f) = &row.first_failure {
            s.push_str(&format!(
                "FAIL {}/{} at op {} ({}): {} — minimized to {} ops in {} runs\n",
                f.layout,
                f.policy,
                f.cut_op,
                f.cut.label(),
                f.violations.join("; "),
                f.minimized_ops,
                f.minimize_runs,
            ));
            s.push_str(&format!("REPRO {}\n", f.repro));
        }
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use cnp_trace::{preset, SyntheticSprite};

    fn small_cfg(budget: usize) -> CheckConfig {
        let records = SyntheticSprite::new(preset("1a").unwrap(), 42 ^ 0xabcd).generate(0.002);
        let mut cfg = CheckConfig::new(records, "1a", budget);
        cfg.queue_depth = 8;
        cfg.policies = vec![Policy::Ups];
        cfg
    }

    #[test]
    fn small_enumeration_is_clean_and_deterministic() {
        let cfg = small_cfg(12);
        let a = run_check_with(&cfg, CheckOptions::default());
        let b = run_check_with(&cfg, CheckOptions::default());
        assert!(a.clean(), "{:?}", a.rows);
        assert_eq!(a.cells, b.cells);
        assert_eq!(format_check_report(&cfg, &a), format_check_report(&cfg, &b));
        assert_eq!(a.rows[0].boundary_cells, 12);
    }

    /// The report of the benchmark's `check-lfs-b40` cell — trace 1a,
    /// seed 42, qd 8, budget 40, LFS x the four policies — pinned to
    /// the bytes the build with the exhaustive summary scan printed
    /// (commit 85edce7): LFS recovery may read fewer summaries, it may
    /// not reach another verdict in any of the 320 cells.
    #[test]
    fn budget_40_report_is_byte_identical_to_the_full_scan_build() {
        let records = SyntheticSprite::new(preset("1a").unwrap(), 42 ^ 0xabcd).generate(0.002);
        let mut cfg = CheckConfig::new(records, "1a", 40);
        cfg.queue_depth = 8;
        let report = run_check_with(&cfg, CheckOptions::default());
        assert!(report.clean(), "{:?}", report.rows);
        assert_eq!(report.cells, 320);
        let counts: Vec<(usize, usize)> =
            report.rows.iter().map(|r| (r.boundary_cells, r.retire_cells)).collect();
        assert_eq!(counts, [(40, 40); 4], "(boundary, retire) cells per policy");
        let mut hash = crate::cache::InputHash::new();
        hash.update(format_check_report(&cfg, &report).as_bytes());
        assert_eq!(
            hash.digest(),
            0x47c4_b971_1c43_de86_e4da_8b7f_01ac_c88e,
            "FNV-1a 128 of the report:\n{}",
            format_check_report(&cfg, &report)
        );
    }

    /// The benchmark's cells reach 78 distinct crash states, counting
    /// each cell's acked paths: at one thread the memo recovers each
    /// exactly once, and every other cell reuses a verdict. Its 160
    /// boundaries run their prefixes 192 times: every boundary from op
    /// 9 on is quiet, and the 8 before it run a second time with the cut.
    #[test]
    fn budget_40_verifies_each_distinct_crash_state_once() {
        let records = SyntheticSprite::new(preset("1a").unwrap(), 42 ^ 0xabcd).generate(0.002);
        let mut cfg = CheckConfig::new(records, "1a", 40);
        cfg.queue_depth = 8;
        let report = run_check_with(&cfg, CheckOptions::default());
        let stats = &report.stats;
        assert_eq!((report.cells, stats.prefix_runs, stats.states_verified), (320, 192, 78));
        let metrics = stats.metrics().to_table();
        assert!(metrics.contains("check.states_verified"), "{metrics}");
        assert!(metrics.contains("check.prefix_runs"), "{metrics}");
    }

    #[test]
    fn threaded_enumeration_matches_serial_bytes() {
        let cfg = small_cfg(10);
        let serial = run_check_with(&cfg, CheckOptions::default());
        let serial_bytes = format_check_report(&cfg, &serial);
        for threads in [2, 4] {
            let report =
                run_check_with(&cfg, CheckOptions { threads, cache: None, progress: None });
            assert_eq!(
                format_check_report(&cfg, &report),
                serial_bytes,
                "report bytes must be identical at {threads} threads"
            );
            assert_eq!(report.stats.threads, threads);
            assert_eq!(report.stats.cells_run, report.cells, "no cache => every cell simulated");
        }
    }

    #[test]
    fn cached_rerun_hits_every_cell_and_keeps_the_report() {
        let cfg = small_cfg(8);
        let mut cache = CellCache::new();
        let cold = run_check_with(
            &cfg,
            CheckOptions { threads: 1, cache: Some(&mut cache), progress: None },
        );
        assert_eq!(cold.stats.cache_hits, 0);
        assert_eq!(cold.stats.cells_run, cold.cells);
        assert_eq!(cache.len(), cold.cells, "every cell must land in the cache");
        let warm = run_check_with(
            &cfg,
            CheckOptions { threads: 2, cache: Some(&mut cache), progress: None },
        );
        assert_eq!(warm.stats.cache_hits, warm.cells, "unchanged inputs must fully hit");
        assert_eq!(warm.stats.cells_run, 0);
        assert!((warm.stats.hit_rate() - 1.0).abs() < 1e-12);
        assert_eq!(
            format_check_report(&cfg, &warm),
            format_check_report(&cfg, &cold),
            "cache replay must not change a byte of the report"
        );
    }

    #[test]
    fn progress_fires_per_thousand_cells() {
        let cfg = small_cfg(12);
        let mut seen: Vec<usize> = Vec::new();
        let mut cb = |p: CheckProgress| seen.push(p.cells_done);
        let report =
            run_check_with(&cfg, CheckOptions { threads: 1, cache: None, progress: Some(&mut cb) });
        if report.cells >= 1000 {
            assert!(!seen.is_empty(), "1000+ cells must produce progress");
            assert!(seen[0] >= 1000);
        } else {
            assert!(seen.is_empty(), "progress is per-1000-cells only");
        }
    }
}
