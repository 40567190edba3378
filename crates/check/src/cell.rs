//! One crash cell, end to end, in two halves.
//!
//! The **doomed half** (`doom`) replays a bounded workload prefix on
//! a doomed stack, crashes it at the prefix boundary (gracefully, or
//! with a disk-level power cut after which the dying disk durably
//! retires the first writes it serves) and captures what survived. One
//! run can also yield the crash states of its boundary's other
//! power-cut cells (`PowerCuts`), which is how the enumeration runs a
//! boundary's prefix at most twice.
//! The **verification** (`verify`) powers that crash state on in a
//! simulation of its own, seeded like the cell (`Stack::recover`:
//! remount, recover, write the NVRAM back, fsck + repair), and stats
//! each acknowledged path. Loss is accounted per cell from the cell's
//! own acked sizes, ack times and cut (`Doomed::judge`).
//!
//! A cell is a pure function of `(CellSpec, records, CutSpec)` — same
//! inputs, byte-identical outcome — which is what makes every failure a
//! one-line replayable artifact (`crate::repro`). The verification is
//! a pure function of `(CellSpec, crash state, acked paths)`, which is
//! what lets the enumeration verify each distinct state once
//! (`crate::enumerate`). [`run_cell`] and [`run_cell_at`] verify every
//! cell on its own: they are the oracle the enumeration is tested
//! against, and [`run_sampled_cell`] is the same cell with what the
//! crash sweep prints besides (`cnp_patsy::crash`).

use std::cell::RefCell;
use std::rc::Rc;

use cnp_cache::CacheConfig;
use cnp_core::{DataMode, FileSystem, FsConfig, FsError};
use cnp_disk::{retire_onto, FaultPlan, Hardware, RetiredWrite};
use cnp_fault::{recovered_sizes, CrashState, LayoutKind, LossReport, Policy, Stack};
use cnp_obs::MetricsSnapshot;
use cnp_sim::{Sim, SimTime};
use cnp_trace::{replay, AckedFile, RunOptions, TraceRecord};

/// Everything one cell needs besides its workload and cut point.
#[derive(Debug, Clone, PartialEq)]
pub struct CellSpec {
    /// Storage layout under test.
    pub layout: LayoutKind,
    /// Cache flush-policy name (`write-delay`, `ups-whole`,
    /// `nvram-whole`, `nvram-partial`; see [`cnp_cache::flush_by_name`]).
    pub flush: String,
    /// NVRAM bound; `None` models a volatile cache.
    pub nvram_bytes: Option<u64>,
    /// Cache memory.
    pub mem_bytes: u64,
    /// I/O pipeline depth.
    pub queue_depth: u32,
    /// Simulation seed (scheduler interleavings).
    pub sim_seed: u64,
    /// Reintroduce the stale-size write bug (checker self-test only).
    pub plant_stale_size_bug: bool,
}

impl CellSpec {
    /// A cell of `policy` on `layout`, its flush and NVRAM bound
    /// [`Policy::cache_settings`]'s, with the stale-size bug absent.
    pub fn new(
        layout: LayoutKind,
        policy: Policy,
        mem_bytes: u64,
        nvram_bytes: u64,
        queue_depth: u32,
        sim_seed: u64,
    ) -> CellSpec {
        let (flush, nvram_bytes) = policy.cache_settings(nvram_bytes);
        CellSpec {
            layout,
            flush: flush.to_string(),
            nvram_bytes,
            mem_bytes,
            queue_depth,
            sim_seed,
            plant_stale_size_bug: false,
        }
    }

    /// The engine configuration this cell runs (and recovers) under.
    pub fn fs_config(&self) -> FsConfig {
        FsConfig {
            cache: CacheConfig {
                block_size: 4096,
                mem_bytes: self.mem_bytes,
                nvram_bytes: self.nvram_bytes,
            },
            flush: self.flush.clone(),
            queue_depth: self.queue_depth,
            data_mode: DataMode::Simulated,
            plant_stale_size_bug: self.plant_stale_size_bug,
            ..FsConfig::default()
        }
    }

    /// The hardware every cell runs and recovers on.
    fn hardware(&self) -> Hardware {
        Hardware::default()
    }
}

/// Where and how the cell crashes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CutSpec {
    /// The machine stops issuing work at the prefix boundary and the
    /// power dies: the durable image (plus battery-backed state) at
    /// that instant is what recovery sees.
    Graceful,
    /// A disk-level power cut lands at the *scheduled arrival* of the
    /// prefix's last op — the instant other clients' flushes are still
    /// mid-flight — and the dying electronics durably retire the first
    /// `retire` writes the disk serves after the request the cut lands
    /// on, without ever acknowledging any (see
    /// [`cnp_disk::FaultPlan::cut_retire_ops`]).
    PowerCut {
        /// How many writes retire: the first ones served after the cut,
        /// in the driver's dispatch order. A write the engine issues
        /// after the cut counts too while the budget lasts.
        retire: u64,
    },
}

impl CutSpec {
    /// Stable cell label (reports, repro blobs).
    pub fn label(&self) -> String {
        match self {
            CutSpec::Graceful => "graceful".to_string(),
            CutSpec::PowerCut { retire } => format!("power:{retire}"),
        }
    }

    /// Parses [`CutSpec::label`].
    pub fn parse(s: &str) -> Option<CutSpec> {
        if s == "graceful" {
            return Some(CutSpec::Graceful);
        }
        let retire = s.strip_prefix("power:")?.parse().ok()?;
        Some(CutSpec::PowerCut { retire })
    }
}

/// One oracle violation in a cell.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CellViolation {
    /// The fsck walker still found violations after repair.
    FsckDirty {
        /// Post-repair violation count.
        violations: u64,
    },
    /// A battery-backed (NVRAM) configuration lost acknowledged writes.
    AckedLoss {
        /// Files missing entirely.
        files: u64,
        /// Acknowledged bytes unrecovered.
        bytes: u64,
    },
    /// Recovery or NVRAM replay itself failed.
    RecoveryFailed {
        /// Error text.
        detail: String,
    },
}

impl std::fmt::Display for CellViolation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CellViolation::FsckDirty { violations } => {
                write!(f, "fsck dirty after repair ({violations} violations)")
            }
            CellViolation::AckedLoss { files, bytes } => {
                write!(f, "acked loss under NVRAM ({files} files, {bytes} bytes)")
            }
            CellViolation::RecoveryFailed { detail } => write!(f, "recovery failed: {detail}"),
        }
    }
}

/// Outcome of one cell.
#[derive(Debug, Clone)]
pub struct CellOutcome {
    /// Workload operations completed before the cut.
    pub ops: u64,
    /// Workload operations that failed before the cut.
    pub errors: u64,
    /// Virtual time of the cut (ns).
    pub cut_at_ns: u64,
    /// The scheduled arrival instant (ns) of the prefix's last op —
    /// where this boundary's [`CutSpec::PowerCut`] cells aim.
    pub arrival_ns: u64,
    /// Write commands outstanding at the arrival instant — the
    /// in-flight batch whose retire prefixes `0..=inflight_batch` are
    /// this boundary's legal [`CutSpec::PowerCut`] cells.
    pub inflight_batch: u64,
    /// NVRAM blocks replayed into the recovered system.
    pub nvram_replayed: u64,
    /// Post-repair fsck violations.
    pub fsck_post: u64,
    /// Acknowledged-loss accounting (informational for volatile
    /// policies, an oracle input for NVRAM ones).
    pub loss: LossReport,
    /// Oracle violations (empty = the cell verified clean).
    pub violations: Vec<CellViolation>,
}

impl CellOutcome {
    /// True if the oracle flagged nothing.
    pub fn clean(&self) -> bool {
        self.violations.is_empty()
    }
}

/// Runs one cell. A [`CutSpec::PowerCut`] cell first runs the doomed
/// half of a graceful cell on the same records to learn the arrival
/// instant (the cut must land at the same virtual time the boundary
/// cell sampled its in-flight batch at), then the faulted cell; use
/// [`run_cell_at`] when the instant is already known from the boundary
/// cell.
pub fn run_cell(spec: &CellSpec, records: &[TraceRecord], cut: CutSpec) -> CellOutcome {
    match cut {
        CutSpec::Graceful => run_once(spec, records, None, |_| ()).0,
        CutSpec::PowerCut { retire } => {
            run_once(spec, records, Some((arrival_ns(spec, records), retire)), |_| ()).0
        }
    }
}

/// [`run_cell`] with the arrival instant already known (saves the
/// probe when the graceful cell of the same prefix just ran).
pub fn run_cell_at(
    spec: &CellSpec,
    records: &[TraceRecord],
    arrival_ns: u64,
    retire: u64,
) -> CellOutcome {
    run_once(spec, records, Some((arrival_ns, retire)), |_| ()).0
}

/// The scheduled arrival instant (ns) of `records`' last op in a cell
/// of `spec`: a graceful cell's doomed half, with no verification.
pub(crate) fn arrival_ns(spec: &CellSpec, records: &[TraceRecord]) -> u64 {
    doom(spec, records, None, false, |_| ()).0.arrival_ns
}

/// A graceful boundary cell, as [`run_cell`] runs it, that also returns
/// what recovery did and the doomed engine's metrics at the cut: one
/// cell of the crash sweep.
pub fn run_sampled_cell(
    spec: &CellSpec,
    records: &[TraceRecord],
) -> (CellOutcome, RecoveryCounts, MetricsSnapshot) {
    run_once(spec, records, None, FileSystem::metrics)
}

/// One whole cell, verified with no memo: the oracle the enumeration's
/// memoised cells are tested against. `at_cut` reads the doomed engine
/// at the cut (see [`doom`]).
fn run_once<T: 'static>(
    spec: &CellSpec,
    records: &[TraceRecord],
    power: Option<(u64, u64)>,
    at_cut: impl FnOnce(&FileSystem) -> T + 'static,
) -> (CellOutcome, RecoveryCounts, T) {
    let (doomed, _, read) = doom(spec, records, power, false, at_cut);
    let verdict = verify(spec, &doomed.state, &doomed.acked);
    let outcome = doomed.judge(spec, &verdict);
    (outcome, verdict.map(|r| r.counts).unwrap_or_default(), read)
}

/// What recovering a crash state did: the counts the crash sweep
/// prints (all zero when recovery failed).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct RecoveryCounts {
    /// Segment summaries recovery read to find the log tail (LFS).
    pub scanned_segments: u64,
    /// Post-checkpoint segments rolled forward (LFS).
    pub rolled_segments: u64,
    /// Block pointers patched during roll-forward.
    pub patched_blocks: u64,
    /// Walker violations straight after recovery and NVRAM replay.
    pub violations_pre: u64,
    /// Directory entries dropped, files truncated and directories reset
    /// by repair.
    pub repairs: u64,
    /// Unreachable inodes the walker attached to `lost+found`.
    pub orphans_attached: u64,
    /// Recovery, NVRAM replay and fsck + repair time in virtual
    /// milliseconds.
    pub recovery_ms: f64,
}

/// The doomed half of a cell: what the run left behind at its cut.
#[derive(Clone)]
pub(crate) struct Doomed {
    ops: u64,
    errors: u64,
    cut_at_ns: u64,
    arrival_ns: u64,
    inflight_batch: u64,
    /// Everything that survived the cut.
    pub(crate) state: CrashState,
    /// The files acknowledged before the cut that the oracle judges.
    pub(crate) acked: Vec<AckedFile>,
}

/// What recovering one crash state found: everything a cell's outcome
/// reads from the recovered system, or the error the power-on failed
/// with.
pub(crate) type Verdict = Result<Recovered, String>;

/// A recovered system's observables.
pub(crate) struct Recovered {
    /// Post-repair fsck violations.
    fsck_post: u64,
    /// NVRAM blocks replayed.
    nvram_replayed: u64,
    /// The recovered size of each acked path, in order.
    sizes: Vec<Option<u64>>,
    /// What recovery did.
    counts: RecoveryCounts,
}

/// The power-cut cells of one boundary, read off one run of its prefix
/// (see [`doom`]): cell `r` is `base` with the first `r` retired writes
/// stored onto its platter and the battery-backed staging applied over
/// them, the order in which the dead disk and the capture put them there.
pub(crate) struct PowerCuts {
    /// What every cell shares; its platter holds no retired write and
    /// no staging.
    base: Doomed,
    /// The writes the dying disk retired, in served order.
    retired: Vec<RetiredWrite>,
    /// The battery-backed staging buffer at the cut (empty without NVRAM).
    staged: Vec<(cnp_layout::BlockAddr, cnp_disk::Payload)>,
    sector_size: u32,
}

impl PowerCuts {
    /// The doomed half of the power-cut cell that retires `retire`
    /// writes.
    pub(crate) fn cell(&self, retire: u64) -> Doomed {
        let mut doomed = self.base.clone();
        let CrashState { mut image, nvram, cut_at } = doomed.state;
        let ssz = self.sector_size;
        retire_onto(&mut image, ssz as usize, &self.retired, retire);
        doomed.state = CrashState::new(image, nvram, &self.staged, ssz, cut_at);
        doomed
    }
}

/// The doomed half: build, format, replay, cut, capture. `power` =
/// `Some((t_ns, retire))` arms a disk-level cut at virtual time `t_ns`
/// retiring `retire` outstanding writes; `None` is the graceful
/// boundary capture. `at_cut` reads the engine when the replay
/// returns, before the capture; the checker reads nothing.
///
/// Returns the run's own cell and, with `derive`, the power-cut cells
/// the same run determines. A power-cut run determines every retire
/// count up to its own, from the disk's image at the cut and the writes
/// it retired after. A graceful run determines its boundary's power-cut
/// cells if the boundary is *quiet*: its disk checked for no cut at or
/// after the arrival instant `t` before the replay joined (and, under
/// NVRAM, the probe took the staging). A run armed with the cut at `t`
/// is then this run, event for event, up to the join, where its capture
/// reads the disk before it ever died. Without `derive` a run is the
/// oracle: it captures its own cell only, and a graceful run's probe
/// takes nothing the oracle's does not.
pub(crate) fn doom<T: 'static>(
    spec: &CellSpec,
    records: &[TraceRecord],
    power: Option<(u64, u64)>,
    derive: bool,
    at_cut: impl FnOnce(&FileSystem) -> T + 'static,
) -> (Doomed, Option<PowerCuts>, T) {
    let sim = Sim::new(spec.sim_seed);
    let h = sim.handle();
    let plan = match power {
        Some((t_ns, retire)) => FaultPlan {
            power_cut_at: Some(SimTime::from_nanos(t_ns)),
            cut_retire_ops: retire,
            // The whole framework (graceful capture included) states
            // the battery-backed-controller-cache assumption; the
            // enumerator's disk-level cuts judge the same contract.
            cut_preserves_buffer: true,
            ..FaultPlan::default()
        },
        None => FaultPlan::default(),
    };
    let Stack { fs, driver, disks } =
        Stack::build(&h, "cell0", spec.layout, spec.hardware().device(), spec.fs_config(), plan);
    let records = records.to_vec();
    sim.block_on("check-cell", async move {
        fs.format().await.expect("format");
        let budget = records.len() as u64;
        let last_time_ns = records.last().map(|r| r.time_ns).unwrap_or(0);
        // The arrival probe: sample the in-flight write batch at the
        // last op's scheduled dispatch instant — the moment this
        // boundary's disk-level power cuts aim at, while other
        // clients' flushes are still outstanding. Spawned in every
        // cell (graceful and power-cut alike) so the seeded event
        // stream is identical up to the cut.
        let epoch = h.now();
        let arrival = epoch + cnp_sim::SimDuration::from_nanos(last_time_ns);
        let batch: Rc<std::cell::Cell<u64>> = Rc::new(std::cell::Cell::new(0));
        let batch2 = batch.clone();
        // Battery-backed state survives as of the *cut*, not as of the
        // replay join: after a disk-level cut the engine keeps running
        // (failed flushes mark their acked blocks clean), so a
        // join-time snapshot would misreport what the NVRAM held when
        // the power died. The probe captures it at the instant itself.
        let atcut_nvram: Rc<RefCell<cnp_core::NvramSnapshot>> =
            Rc::new(RefCell::new(cnp_core::NvramSnapshot::default()));
        let atcut2 = atcut_nvram.clone();
        // Staging likewise: post-cut churn (failed flushes re-staging
        // blocks) must not bleed into the battery-preserved image. The
        // probe takes it non-blockingly — if the layout lock is held by
        // an in-flight (doomed) operation at the cut, the join-time
        // export stands in as a conservative superset.
        type Staged = Vec<(cnp_layout::BlockAddr, cnp_disk::Payload)>;
        let atcut_staged: Rc<RefCell<Option<Staged>>> = Rc::new(RefCell::new(None));
        let staged2 = atcut_staged.clone();
        let probe_staging = power.is_some() || derive;
        let driver2 = driver.clone();
        let fs2 = fs.clone();
        let h3 = h.clone();
        h.spawn("arrival-probe", async move {
            h3.sleep_until(arrival).await;
            batch2.set(driver2.outstanding_writes());
            *atcut2.borrow_mut() = fs2.nvram_snapshot();
            if probe_staging {
                *staged2.borrow_mut() = fs2.try_staging_image();
            }
        });
        let opts = RunOptions { max_ops: Some(budget), track_acks: true, ..RunOptions::default() };
        let mut report = replay(&h, &fs, records, opts).await;
        // The cut: everything volatile dies.
        let cut_at_ns = h.now().as_nanos();
        let read = at_cut(&fs);
        let arrival_ns = arrival.as_nanos();
        let (ops, errors, inflight_batch) = (report.ops, report.errors, batch.get());
        let doomed = |state, acked| Doomed {
            ops,
            errors,
            cut_at_ns,
            arrival_ns,
            inflight_batch,
            state,
            acked,
        };
        let disk = &disks[0];
        // A disk-level cut at `t` kills the machine mid-replay:
        // operations acknowledged *after* it raced the cut, so they are
        // not judged (their pre-cut acked extent is unknowable from the
        // final accounting alone — conservative, like delete
        // resurrection).
        let t = power.map_or(arrival_ns, |(t, _)| t);
        let indeterminate = std::mem::take(&mut report.indeterminate);
        let judged = |a: &AckedFile| a.last_ack_ns <= t && !indeterminate.contains(&a.path);
        // A disk-level cut's crash state: the platter froze at the cut
        // (plus what the dying electronics retired), and the battery
        // holds what the probe captured at that instant — the dirty
        // cache and the staging buffer, which [`PowerCuts::cell`]
        // applies to the image as the graceful capture does.
        let probed = atcut_staged.take();
        let cuts = |image, retired, staged, acked| PowerCuts {
            base: doomed(
                CrashState { image, nvram: atcut_nvram.take(), cut_at: SimTime::from_nanos(t) },
                acked,
            ),
            retired,
            staged,
            sector_size: driver.sector_size(),
        };
        let (cell, derived) = match power {
            None => {
                let quiet = derive
                    && disk.last_cut_check().is_none_or(|c| c.as_nanos() < t)
                    && probed.is_some();
                let derived = quiet.then(|| {
                    let acked = report.acked.iter().filter(|a| judged(a)).cloned().collect();
                    let staged = probed.unwrap_or_default();
                    cuts(disk.image_with_write_buffer(), Vec::new(), staged, acked)
                });
                let state = CrashState::capture(&fs, disk).await;
                (doomed(state, report.acked), derived)
            }
            Some((_, retire)) => {
                report.acked.retain(judged);
                let (image, retired) = match derive.then(|| disk.image_at_cut()).flatten() {
                    Some(image) => (image, disk.retired_after_cut()),
                    None => (disk.image_with_write_buffer(), Vec::new()),
                };
                let staged = match probed {
                    Some(staged) => staged,
                    None => fs.staging_image().await,
                };
                let cuts = cuts(image, retired, staged, report.acked);
                (cuts.cell(retire), derive.then_some(cuts))
            }
        };
        fs.shutdown();
        (cell, derived, read)
    })
}

/// Recovers `state` in a simulation of its own, seeded like the cell:
/// one power-on ([`Stack::recover`]: restore the platter, recover,
/// write the NVRAM back, fsck and repair), then stat each of `acked`'s
/// paths. A pure function of `(spec, state, acked paths)`, which is
/// what lets the enumeration reuse the verdict of an identical state
/// (`crate::cache::state_key`).
pub(crate) fn verify(spec: &CellSpec, state: &CrashState, acked: &[AckedFile]) -> Verdict {
    let sim = Sim::new(spec.sim_seed);
    let h = sim.handle();
    let (kind, hw, cfg) = (spec.layout, spec.hardware(), spec.fs_config());
    let (state, acked) = (state.clone(), acked.to_vec());
    sim.block_on("verify", async move {
        let recovered = async {
            let (Stack { fs, .. }, outcome) =
                Stack::recover(&h, "verify", kind, &hw, &state, cfg).await?;
            let sizes = recovered_sizes(&fs, &acked).await;
            fs.shutdown();
            let r = &outcome.repairs;
            let counts = RecoveryCounts {
                scanned_segments: outcome.stats.scanned_segments,
                rolled_segments: outcome.stats.rolled_segments,
                patched_blocks: outcome.stats.patched_blocks,
                violations_pre: outcome.pre.violations.len() as u64,
                repairs: r.entries_removed + r.files_truncated + r.dirs_reset,
                orphans_attached: r.orphans_attached,
                recovery_ms: outcome.recovery_time.as_nanos() as f64 / 1e6,
            };
            let (fsck_post, nvram_replayed) =
                (outcome.post.violations.len() as u64, outcome.nvram_replayed);
            Ok::<_, FsError>(Recovered { fsck_post, nvram_replayed, sizes, counts })
        };
        recovered.await.map_err(|e| e.to_string())
    })
}

impl Doomed {
    /// The cell's outcome from its doomed half and the verdict on its
    /// crash state: loss is accounted from this cell's own acked sizes,
    /// ack times and cut.
    pub(crate) fn judge(&self, spec: &CellSpec, verdict: &Verdict) -> CellOutcome {
        // Built in report order: a recovery failure alone, else fsck
        // before acked loss.
        let (nvram_replayed, fsck_post, loss, violations) = match verdict {
            Ok(r) => {
                let loss = LossReport::account(&self.acked, &r.sizes, self.state.cut_at);
                let mut violations = Vec::new();
                if r.fsck_post > 0 {
                    violations.push(CellViolation::FsckDirty { violations: r.fsck_post });
                }
                // Zero-acked-loss is the contract of battery-backed
                // configurations, whose staging buffer every crash
                // state carries (volatile policies trade the loss
                // window for performance, which the report shows but
                // the oracle does not punish).
                if spec.nvram_bytes.is_some() && (loss.lost_files > 0 || loss.lost_bytes > 0) {
                    violations.push(CellViolation::AckedLoss {
                        files: loss.lost_files,
                        bytes: loss.lost_bytes,
                    });
                }
                (r.nvram_replayed, r.fsck_post, loss, violations)
            }
            Err(detail) => (
                0,
                0,
                LossReport::default(),
                vec![CellViolation::RecoveryFailed { detail: detail.clone() }],
            ),
        };
        CellOutcome {
            ops: self.ops,
            errors: self.errors,
            cut_at_ns: self.cut_at_ns,
            arrival_ns: self.arrival_ns,
            inflight_batch: self.inflight_batch,
            nvram_replayed,
            fsck_post,
            loss,
            violations,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cnp_trace::{preset, SyntheticSprite};

    fn spec(flush: &str, nvram: Option<u64>) -> CellSpec {
        CellSpec {
            layout: LayoutKind::Lfs,
            flush: flush.to_string(),
            nvram_bytes: nvram,
            mem_bytes: 8 * 1024 * 1024,
            queue_depth: 8,
            sim_seed: 11,
            plant_stale_size_bug: false,
        }
    }

    fn records(n: usize) -> Vec<TraceRecord> {
        let all = SyntheticSprite::new(preset("1a").unwrap(), 42 ^ 0xabcd).generate(0.002);
        cnp_trace::bounded_prefix(&all, n, &[])
    }

    #[test]
    fn graceful_cell_is_deterministic_and_clean() {
        let s = spec("nvram-whole", Some(4 * 1024 * 1024));
        let recs = records(60);
        let a = run_cell(&s, &recs, CutSpec::Graceful);
        let b = run_cell(&s, &recs, CutSpec::Graceful);
        assert!(a.clean(), "violations: {:?}", a.violations);
        assert_eq!(a.cut_at_ns, b.cut_at_ns, "cells must be byte-identical across runs");
        assert_eq!(a.loss, b.loss);
        assert_eq!(a.inflight_batch, b.inflight_batch);
        assert_eq!(a.ops, 60);
    }

    #[test]
    fn cut_labels_round_trip() {
        for cut in [CutSpec::Graceful, CutSpec::PowerCut { retire: 3 }] {
            assert_eq!(CutSpec::parse(&cut.label()), Some(cut));
        }
        assert_eq!(CutSpec::parse("power:x"), None);
        assert_eq!(CutSpec::parse("bogus"), None);
    }

    /// Every crash state the enumeration reads off a run equals the one
    /// the oracle's own faulted run leaves, byte for byte: a quiet
    /// boundary's from its graceful run, and every other boundary's
    /// from one power-cut run retiring its whole batch, at `r = 0` and
    /// at `r >= 1`. The boundaries are picked to reach each path:
    /// checker cells (`CheckConfig::cell_spec`) at the named seed, qd,
    /// layout and policy.
    #[test]
    fn every_derived_crash_state_equals_the_replayed_one() {
        use LayoutKind::{Ffs, Lfs};
        let cases = [
            // Quiet from op 9 on; before it the disk still writes back
            // the format.
            ("1a", 365, 1, Lfs, 2, 6..=10),
            // Quiet with 20 writes in flight: the replay joins while the
            // disk still serves the write it started before the cut.
            ("1a", 365, 1, Lfs, 2, 56..=56),
            // One write in flight, retired after the cut.
            ("1a", 365, 1, Ffs, 3, 15..=16),
            // Two writes retired after the cut. (Their order never
            // shows in a checker cell; the disk's own test pins it.)
            ("1b", 9, 8, Ffs, 2, 37..=37),
        ];
        // (quiet, recorded r = 0, recorded r >= 1) cells.
        let mut paths = [0usize; 3];
        let mut most_retired = 0;
        for (trace, seed, qd, layout, policy, boundaries) in cases {
            let all = SyntheticSprite::new(preset(trace).unwrap(), seed ^ 0xabcd).generate(0.002);
            let mut cfg = crate::CheckConfig::new(all, trace, 0);
            (cfg.seed, cfg.queue_depth, cfg.layouts) = (seed, qd, vec![layout]);
            let spec = cfg.cell_spec(0, policy);
            for k in boundaries {
                let recs = cnp_trace::bounded_prefix(&cfg.records, k, &[]);
                let (graceful, quiet, ()) = doom(&spec, &recs, None, true, |_| ());
                let (oracle, _, ()) = doom(&spec, &recs, None, false, |_| ());
                assert_same(&graceful, &oracle, k, "graceful");
                let (t, batch, is_quiet) =
                    (graceful.arrival_ns, graceful.inflight_batch, quiet.is_some());
                let cuts = quiet.unwrap_or_else(|| {
                    doom(&spec, &recs, Some((t, batch)), true, |_| ()).1.expect("derived")
                });
                most_retired = most_retired.max(cuts.retired.len());
                for r in 0..=batch {
                    let (oracle, _, ()) = doom(&spec, &recs, Some((t, r)), false, |_| ());
                    let cell = format!("{trace} seed {seed} power:{r} quiet {is_quiet}");
                    assert_same(&cuts.cell(r), &oracle, k, &cell);
                    paths[match (is_quiet, r) {
                        (true, _) => 0,
                        (false, 0) => 1,
                        _ => 2,
                    }] += 1;
                }
            }
        }
        assert!(paths.iter().all(|&n| n > 0), "(quiet, recorded r = 0, r >= 1) cells: {paths:?}");
        assert!(most_retired >= 2, "no run retired two writes after its cut");
    }

    fn assert_same(derived: &Doomed, oracle: &Doomed, k: usize, cell: &str) {
        let counts = |d: &Doomed| {
            (d.ops, d.errors, d.cut_at_ns, d.arrival_ns, d.inflight_batch, d.state.cut_at)
        };
        assert_eq!(counts(derived), counts(oracle), "op {k} {cell}");
        assert_eq!(derived.acked, oracle.acked, "op {k} {cell}");
        assert!(derived.state.image == oracle.state.image, "op {k} {cell}: platters differ");
        let key = |d: &Doomed| crate::cache::state_key("", &d.state, &d.acked);
        assert_eq!(key(derived), key(oracle), "op {k} {cell}: NVRAM or staging differ");
    }

    #[test]
    fn power_cut_cell_recovers_clean() {
        let s = spec("ups", None);
        let recs = records(80);
        let out = run_cell(&s, &recs, CutSpec::PowerCut { retire: 1 });
        assert!(out.clean(), "violations: {:?}", out.violations);
    }
}
