//! One crash cell, end to end, in two halves.
//!
//! The **doomed half** (`doom`) replays a bounded workload prefix on
//! a doomed stack, crashes it at the prefix boundary (gracefully, or
//! with a disk-level power cut that durably retires an arrival-order
//! prefix of the in-flight write batch) and captures what survived.
//! The **verification** (`verify`) remounts that crash state in a
//! simulation of its own, seeded like the cell, then recovers, fscks,
//! replays NVRAM and stats each acknowledged path. Loss is accounted
//! per cell from the cell's own acked sizes, ack times and cut
//! (`Doomed::judge`).
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
use cnp_disk::{FaultPlan, Hardware};
use cnp_fault::{recovered_sizes, replay_nvram, CrashState, LayoutKind, LossReport, Stack};
use cnp_obs::MetricsSnapshot;
use cnp_sim::{Sim, SimTime};
use cnp_trace::{replay, AckedFile, ReplayOptions, TraceRecord};

/// Everything one cell needs besides its workload and cut point.
#[derive(Debug, Clone, PartialEq)]
pub struct CellSpec {
    /// Storage layout under test.
    pub layout: LayoutKind,
    /// Cache flush-policy name (`write-delay`, `ups`, `nvram-whole`,
    /// `nvram-partial`).
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
    /// `retire` outstanding writes, without ever acknowledging any
    /// (see [`cnp_disk::FaultPlan::cut_retire_ops`]).
    PowerCut {
        /// Arrival-order prefix of the outstanding writes that retires.
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
    /// Whether the NVRAM-resident staging buffer reached the image
    /// (always false when a disk-level cut killed the disk first).
    pub staging_sealed: bool,
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
    doom(spec, records, None, |_| ()).0.arrival_ns
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
    let (doomed, read) = doom(spec, records, power, at_cut);
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
    /// Walker violations straight after recovery.
    pub violations_pre: u64,
    /// Directory entries dropped, files truncated and directories reset
    /// by repair.
    pub repairs: u64,
    /// Unreachable inodes the walker attached to `lost+found`.
    pub orphans_attached: u64,
    /// Recovery + repair time in virtual milliseconds.
    pub recovery_ms: f64,
}

/// The doomed half of a cell: what the run left behind at its cut.
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
/// reads from the recovered system, or the error recovery or NVRAM
/// replay failed with.
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

/// The doomed half: build, format, replay, cut, capture. `power` =
/// `Some((t_ns, retire))` arms a disk-level cut at virtual time `t_ns`
/// retiring `retire` outstanding writes; `None` is the graceful
/// boundary capture. `at_cut` reads the engine when the replay
/// returns, before the capture; the checker reads nothing.
pub(crate) fn doom<T: 'static>(
    spec: &CellSpec,
    records: &[TraceRecord],
    power: Option<(u64, u64)>,
    at_cut: impl FnOnce(&FileSystem) -> T + 'static,
) -> (Doomed, T) {
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
    let nvram_backed = spec.nvram_bytes.is_some();
    let records = records.to_vec();
    let power_cut_ns = power.map(|(t, _)| t);
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
        let probe_staging = power_cut_ns.is_some() && nvram_backed;
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
        let mut report =
            replay(&h, &fs, records, ReplayOptions { max_ops: Some(budget), track_acks: true })
                .await;
        // The cut: everything volatile dies.
        let cut_at_ns = h.now().as_nanos();
        let read = at_cut(&fs);
        let arrival_ns = arrival.as_nanos();
        let inflight_batch = batch.get();
        // A disk-level cut kills the machine mid-replay: operations
        // acknowledged *after* it raced the cut, so they are not
        // judged (their pre-cut acked extent is unknowable from the
        // final accounting alone — conservative, like delete
        // resurrection).
        if let Some(t) = power_cut_ns {
            let indeterminate = report.indeterminate.clone();
            report.acked.retain(|a| a.last_ack_ns <= t && !indeterminate.contains(&a.path));
        }
        let state = match power_cut_ns {
            // A disk-level cut: the platter froze at the cut (plus the
            // retire prefix the dying electronics finished), and the
            // battery-backed cache is what the probe captured at that
            // instant. The dead disk took no seal writes, so under an
            // NVRAM configuration the battery-backed staging buffer is
            // applied to the image directly — the same durability
            // contract the graceful path seals through the disk.
            Some(t) => {
                let mut image = disks[0].image_with_write_buffer();
                if nvram_backed {
                    let probed = atcut_staged.borrow_mut().take();
                    let staged = match probed {
                        Some(staged) => staged,
                        None => fs.staging_image().await,
                    };
                    cnp_fault::apply_staged_to_image(&mut image, &staged, driver.sector_size());
                }
                CrashState {
                    image,
                    nvram: atcut_nvram.borrow().clone(),
                    staging_sealed: nvram_backed,
                    cut_at: SimTime::from_nanos(t),
                }
            }
            None => CrashState::capture(&fs, &disks[0]).await,
        };
        fs.shutdown();
        let doomed = Doomed {
            ops: report.ops,
            errors: report.errors,
            cut_at_ns,
            arrival_ns,
            inflight_batch,
            state,
            acked: report.acked,
        };
        (doomed, read)
    })
}

/// Recovers `state` in a simulation of its own, seeded like the cell:
/// restore the platter, recover, fsck and repair, replay NVRAM, and
/// stat each of `acked`'s paths. A pure function of `(spec, state,
/// acked paths)`, which is what lets the enumeration reuse the verdict
/// of an identical state (`crate::cache::state_key`).
pub(crate) fn verify(spec: &CellSpec, state: &CrashState, acked: &[AckedFile]) -> Verdict {
    let sim = Sim::new(spec.sim_seed);
    let h = sim.handle();
    let (kind, hw, cfg) = (spec.layout, spec.hardware(), spec.fs_config());
    let (state, acked) = (state.clone(), acked.to_vec());
    sim.block_on("verify", async move {
        let recovered = async {
            let (Stack { fs, .. }, outcome) =
                Stack::recover(&h, "verify", kind, &hw, &state, cfg).await?;
            let nvram_replayed = replay_nvram(&fs, &state.nvram).await?;
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
            let fsck_post = outcome.post.violations.len() as u64;
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
        let staging_sealed = self.state.staging_sealed;
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
                // configurations — and only judgeable when the
                // NVRAM-resident staging buffer made it into the image
                // (a disk-level cut loses it by definition; volatile
                // policies trade the loss window for performance, which
                // the report shows but the oracle does not punish).
                if spec.nvram_bytes.is_some()
                    && staging_sealed
                    && (loss.lost_files > 0 || loss.lost_bytes > 0)
                {
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
            staging_sealed,
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

    #[test]
    fn power_cut_cell_recovers_clean() {
        let s = spec("ups", None);
        let recs = records(80);
        let out = run_cell(&s, &recs, CutSpec::PowerCut { retire: 1 });
        assert!(out.clean(), "violations: {:?}", out.violations);
    }
}
