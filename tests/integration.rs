//! Cross-crate integration tests: full stack (engine → cache → layout →
//! driver → bus → disk model) on virtual time.

use cut_and_paste::cache::CacheConfig;
use cut_and_paste::core::{DataMode, FileSystem, FsConfig};
use cut_and_paste::disk::{sim_disk_driver, CLook, DiskImage, FaultPlan, Hardware, Hp97560};
use cut_and_paste::fault::{LayoutKind, Stack};
use cut_and_paste::layout::{FfsLayout, FfsParams, FileKind, Layout, LfsLayout, LfsParams};
use cut_and_paste::sim::Sim;
use cut_and_paste::trace::{replay, trace_1a, ReplayOptions, SyntheticSprite};

fn lfs_fs(h: &cut_and_paste::sim::Handle, cfg: FsConfig) -> FileSystem {
    let driver = sim_disk_driver(h, "d0", Box::new(Hp97560::new()), Box::new(CLook));
    let layout = Layout::Lfs(LfsLayout::new(h, driver, LfsParams::default()));
    FileSystem::new(h, layout, cfg)
}

fn run_to_completion<F, Fut>(seed: u64, f: F)
where
    F: FnOnce(cut_and_paste::sim::Handle) -> Fut + 'static,
    Fut: std::future::Future<Output = ()> + 'static,
{
    let sim = Sim::new(seed);
    let h = sim.handle();
    sim.block_on("test", async move { f(h).await });
}

/// The lowest sector two platter images disagree on.
fn first_differing_sector(a: &DiskImage, b: &DiskImage) -> Option<u64> {
    let missing_from = |x: &DiskImage, y: &DiskImage| {
        x.sectors().filter(|&(lba, bytes)| y.sector(lba) != Some(bytes)).map(|(lba, _)| lba).min()
    };
    missing_from(a, b).into_iter().chain(missing_from(b, a)).min()
}

/// Determinism audit regression: two seeded runs must produce
/// byte-identical platter images, per layout. The mail workload's
/// create/append/unlink churn drives `BlockCache::remove_file`, whose
/// HashMap key iteration used to feed hasher-dependent removal order
/// into the free-list (and from there into frame placement and the
/// LFS log) — persistence paths must not inherit hasher state.
#[test]
fn seeded_runs_produce_byte_identical_platters_per_layout() {
    use cut_and_paste::workload::{run_clients, RunOptions, Scenario, WorkloadKind};

    fn image_once(layout: LayoutKind) -> DiskImage {
        let sim = Sim::new(909);
        let h = sim.handle();
        let cfg = FsConfig {
            // Small cache: evictions + replacement churn on top of the
            // mail workload's delete-driven remove_file traffic.
            cache: CacheConfig { block_size: 4096, mem_bytes: 48 * 4096, nvram_bytes: None },
            data_mode: DataMode::Simulated,
            queue_depth: 8,
            ..FsConfig::default()
        };
        let device = Hardware::default().device();
        let Stack { fs, disks, .. } =
            Stack::build(&h, "det0", layout, device, cfg, FaultPlan::default());
        sim.block_on("det", async move {
            fs.format().await.unwrap();
            let scenario = Scenario::generate(WorkloadKind::Mail, 3, 909, 0.004);
            let report = run_clients(&h, &fs, &scenario, RunOptions::default()).await;
            assert_eq!(report.errors, 0, "{:?}", report.error_sample);
            fs.unmount().await.unwrap();
            let image = disks[0].platter_image();
            fs.shutdown();
            image
        })
    }

    for kind in [LayoutKind::Lfs, LayoutKind::Ffs] {
        let (a, b, layout) = (image_once(kind), image_once(kind), kind.name());
        assert_eq!(
            a,
            b,
            "{layout}: seeded runs differ, first at sector {:?}",
            first_differing_sector(&a, &b)
        );
    }
}

#[test]
fn full_stack_trace_replay_no_errors() {
    run_to_completion(1, |h| async move {
        let fs = lfs_fs(&h, FsConfig { data_mode: DataMode::Simulated, ..FsConfig::default() });
        fs.format().await.unwrap();
        let records = SyntheticSprite::new(trace_1a(), 5).generate(0.002);
        assert!(records.len() > 100);
        let report = replay(&h, &fs, records, ReplayOptions::default()).await;
        assert_eq!(report.errors, 0, "samples: {:?}", report.error_sample);
        assert!(report.ops > 100);
        assert!(report.mean_ms() > 0.0);
        fs.shutdown();
    });
}

#[test]
fn same_workload_same_seed_is_deterministic() {
    fn once() -> (u64, u64) {
        let sim = Sim::new(77);
        let h = sim.handle();
        let fs = lfs_fs(&h, FsConfig { data_mode: DataMode::Simulated, ..FsConfig::default() });
        sim.block_on("t", async move {
            fs.format().await.unwrap();
            let records = SyntheticSprite::new(trace_1a(), 5).generate(0.001);
            let report = replay(&h, &fs, records, ReplayOptions::default()).await;
            let out = (report.ops, h.now().as_nanos());
            fs.shutdown();
            out
        })
    }
    let a = once();
    let b = once();
    assert_eq!(a, b, "virtual-time replays must be bit-identical");
}

#[test]
fn ffs_layout_under_the_same_engine() {
    run_to_completion(3, |h| async move {
        let driver = sim_disk_driver(&h, "d0", Box::new(Hp97560::new()), Box::new(CLook));
        let layout = Layout::Ffs(FfsLayout::new(&h, driver, FfsParams::default()));
        let fs = FileSystem::new(
            &h,
            layout,
            FsConfig { data_mode: DataMode::Real, ..FsConfig::default() },
        );
        fs.format().await.unwrap();
        let ino = fs.create("/f", FileKind::Regular).await.unwrap();
        let data = vec![5u8; 40_000];
        fs.write(ino, 0, data.len() as u64, Some(&data)).await.unwrap();
        let (n, got) = fs.read(ino, 0, data.len() as u64).await.unwrap();
        assert_eq!(n, data.len() as u64);
        assert_eq!(got.unwrap(), data);
        fs.shutdown();
    });
}

#[test]
fn crash_recovery_loses_only_post_checkpoint_writes() {
    run_to_completion(11, |h| async move {
        let driver = sim_disk_driver(&h, "d0", Box::new(Hp97560::new()), Box::new(CLook));
        let cfg = FsConfig { data_mode: DataMode::Real, ..FsConfig::default() };
        let fs = FileSystem::new(
            &h,
            Layout::Lfs(LfsLayout::new(&h, driver.clone(), LfsParams::default())),
            cfg.clone(),
        );
        fs.format().await.unwrap();
        let ino = fs.create("/durable", FileKind::Regular).await.unwrap();
        fs.write(ino, 0, 8192, Some(&vec![1u8; 8192])).await.unwrap();
        fs.sync().await.unwrap(); // Checkpoint: /durable is safe.
        let ino2 = fs.create("/volatile", FileKind::Regular).await.unwrap();
        fs.write(ino2, 0, 4096, Some(&vec![2u8; 4096])).await.unwrap();
        // "Crash": no sync/unmount; mount a fresh engine over the disk.
        let fs2 =
            FileSystem::new(&h, Layout::Lfs(LfsLayout::new(&h, driver, LfsParams::default())), cfg);
        fs2.mount().await.unwrap();
        let d = fs2.lookup("/durable").await;
        assert!(d.is_ok(), "checkpointed file must survive the crash");
        let v = fs2.lookup("/volatile").await;
        assert!(v.is_err(), "post-checkpoint file is lost (no roll-forward)");
        fs2.shutdown();
        fs.shutdown();
    });
}

#[test]
fn crash_sweep_is_deterministic_and_verifies_clean() {
    use cut_and_paste::patsy::{format_crash_sweep, run_crash_sweep, CrashConfig};

    // A small sweep: both layouts, all four policies, three cut points.
    let cfg = CrashConfig::new(trace_1a(), 3, 42, 0.002);
    let cells = run_crash_sweep(&cfg, 1);
    assert_eq!(cells.len(), 2 * 4 * 3);
    for c in &cells {
        assert!(
            c.outcome.clean(),
            "cell ({}, {}, cut {}) must pass the checker's oracle: {:?}",
            c.layout,
            c.policy.label(),
            c.cut_op,
            c.outcome.violations
        );
        assert!(c.outcome.ops > 0, "the workload must have run before the cut");
        // Roll-forward reads the log tail, not the 2,637 summaries of
        // this geometry: boundedness in counts, not wall time.
        let r = &c.recovery;
        assert!(r.scanned_segments >= r.rolled_segments);
        assert!(r.scanned_segments < 64, "cut {}: {} scanned", c.cut_op, r.scanned_segments);
        assert_eq!(r.scanned_segments > 0, c.layout == "lfs");
    }
    // Byte-identical across invocations: the whole report string.
    let again = run_crash_sweep(&cfg, 1);
    assert_eq!(
        format_crash_sweep(&cfg, &cells),
        format_crash_sweep(&cfg, &again),
        "crash sweeps must be bit-identical for the same seed"
    );
}

#[test]
fn queue_depth_8_differentiates_schedulers_on_trace_1a() {
    use cut_and_paste::disk::DiskModel;
    use cut_and_paste::patsy::{run_depth_cell, trace_footprint};

    let hw = Hardware::default();
    let capacity = Hp97560::new().geometry().capacity_sectors();
    let reqs = trace_footprint("1a", 0.005, 365, capacity);
    assert!(reqs.len() > 500, "trace footprint too small: {}", reqs.len());

    // Queue depth 1: no queue ever forms, so every policy serves in
    // arrival order and the measurements coincide exactly.
    let fcfs1 = run_depth_cell(&reqs, "fcfs", 1, 7, &hw);
    let sstf1 = run_depth_cell(&reqs, "sstf", 1, 7, &hw);
    let scan1 = run_depth_cell(&reqs, "scan", 1, 7, &hw);
    assert_eq!(fcfs1.mean_service_ms.to_bits(), sstf1.mean_service_ms.to_bits());
    assert_eq!(fcfs1.mean_service_ms.to_bits(), scan1.mean_service_ms.to_bits());
    assert_eq!(fcfs1.makespan_ms.to_bits(), sstf1.makespan_ms.to_bits());

    // Queue depth 8: the outstanding set gives position-aware policies
    // something to reorder; SSTF and SCAN must beat FCFS on mean
    // device service time (and finish the stream sooner).
    let fcfs8 = run_depth_cell(&reqs, "fcfs", 8, 7, &hw);
    let sstf8 = run_depth_cell(&reqs, "sstf", 8, 7, &hw);
    let scan8 = run_depth_cell(&reqs, "scan", 8, 7, &hw);
    assert!(
        sstf8.mean_service_ms < fcfs8.mean_service_ms,
        "sstf {:.3} ms should beat fcfs {:.3} ms at depth 8",
        sstf8.mean_service_ms,
        fcfs8.mean_service_ms
    );
    assert!(
        scan8.mean_service_ms < fcfs8.mean_service_ms,
        "scan {:.3} ms should beat fcfs {:.3} ms at depth 8",
        scan8.mean_service_ms,
        fcfs8.mean_service_ms
    );
    assert!(sstf8.makespan_ms < fcfs8.makespan_ms);
    assert!(fcfs8.mean_queue > 2.0, "depth 8 must actually build a queue");

    // Seeded replays stay bit-identical, pipelined or not.
    let again = run_depth_cell(&reqs, "sstf", 8, 7, &hw);
    assert_eq!(again.mean_service_ms.to_bits(), sstf8.mean_service_ms.to_bits());
    assert_eq!(again.makespan_ms.to_bits(), sstf8.makespan_ms.to_bits());
}

#[test]
fn ssd_generation_ties_the_schedulers_and_absorbs_deep_queues() {
    use cut_and_paste::disk::{DiskModel, Ssd};
    use cut_and_paste::patsy::{run_depth_cell, trace_footprint};

    let capacity = Ssd::new().geometry().capacity_sectors();
    let reqs = trace_footprint("1a", 0.005, 365, capacity);
    assert!(reqs.len() > 500, "trace footprint too small: {}", reqs.len());
    let hw = Hardware { disk: "ssd", ..Hardware::default() };

    // The same depth-8 comparison that separates the schedulers on the
    // HP 97560 must tie on flash: with seeks free and service dominated
    // by per-channel page timing, arrival-order position has nothing
    // for SSTF/SCAN to exploit. "Tie" means within 2% of FCFS — the
    // policies still reorder, but reordering cannot pay.
    let fcfs8 = run_depth_cell(&reqs, "fcfs", 8, 7, &hw);
    let sstf8 = run_depth_cell(&reqs, "sstf", 8, 7, &hw);
    let scan8 = run_depth_cell(&reqs, "scan", 8, 7, &hw);
    for (name, cell) in [("sstf", &sstf8), ("scan", &scan8)] {
        let ratio = cell.makespan_ms / fcfs8.makespan_ms;
        assert!(
            (0.98..=1.02).contains(&ratio),
            "{name} makespan {:.2} ms vs fcfs {:.2} ms: schedulers must tie on flash",
            cell.makespan_ms,
            fcfs8.makespan_ms
        );
    }

    // Deep queues keep paying on flash: the device natively absorbs 64
    // commands across its channels, so makespan keeps dropping past the
    // mechanical generation's 2-outstanding ceiling.
    let fcfs64 = run_depth_cell(&reqs, "fcfs", 64, 7, &hw);
    // At qd 8 random page placement leaves channels idle (collisions);
    // qd 64 keeps all 8 busy. The expected gain is tempered by the
    // serial controller/link costs, so "clearly" means >= 10%.
    assert!(
        fcfs64.makespan_ms < fcfs8.makespan_ms * 0.9,
        "qd 64 ({:.2} ms) must clearly beat qd 8 ({:.2} ms) on flash",
        fcfs64.makespan_ms,
        fcfs8.makespan_ms
    );
    assert!(fcfs64.overlap > 0.5, "deep flash queues must overlap channels");

    // Seeded SSD cells replay bit-identically.
    let again = run_depth_cell(&reqs, "fcfs", 64, 7, &hw);
    assert_eq!(again.mean_service_ms.to_bits(), fcfs64.mean_service_ms.to_bits());
    assert_eq!(again.makespan_ms.to_bits(), fcfs64.makespan_ms.to_bits());
}

#[test]
fn striped_sweep_cells_replay_bit_identically() {
    use cut_and_paste::patsy::qdsweep::{format_qd_sweep_json, run_qd_sweep};

    // A 4-spindle HP stripe and a striped-SSD cell: both seeded sweeps
    // must format to byte-identical JSON across two full runs.
    for hw in [
        Hardware { disks: 4, ..Hardware::default() },
        Hardware { disk: "ssd", disks: 2, ..Hardware::default() },
    ] {
        let rows = run_qd_sweep("1a", 0.002, 42, &hw, 1);
        let again = run_qd_sweep("1a", 0.002, 42, &hw, 1);
        let a = format_qd_sweep_json("1a", 0.002, 42, 100, &rows, &hw);
        let b = format_qd_sweep_json("1a", 0.002, 42, 100, &again, &hw);
        assert_eq!(a, b, "striped sweep must be bit-identical for the same seed ({hw:?})");
        assert!(a.contains("\"disks\""), "non-default hardware must name itself in the JSON");
    }
}

#[test]
fn multi_client_sweep_is_deterministic_and_throughput_scales() {
    use cut_and_paste::patsy::{format_client_sweep, run_client_sweep, ClientSweepConfig};
    use cut_and_paste::workload::WorkloadKind;

    // The acceptance sweep: zipf at queue depth 8 (the config default),
    // client counts 1/4/16, seed 42.
    let cfg = ClientSweepConfig::new(WorkloadKind::Zipf, vec![1, 4, 16], 42, 0.01);
    assert_eq!(cfg.queue_depth, 8);
    let cells = run_client_sweep(&cfg, 1);
    assert_eq!(cells.len(), 3);
    for c in &cells {
        assert_eq!(c.report.errors, 0, "clients {}: {:?}", c.clients, c.report.error_sample);
        assert_eq!(c.report.per_client.len() as u32, c.clients);
        assert!(
            c.fairness >= 1.0 && c.fairness < 3.0,
            "clients {}: fairness {} out of range",
            c.clients,
            c.fairness
        );
    }
    // Closed-loop scaling: more clients, more aggregate throughput
    // while the disk has headroom.
    assert!(
        cells[1].agg_ops_per_sec > cells[0].agg_ops_per_sec,
        "4 clients ({:.1} ops/s) must out-run 1 ({:.1})",
        cells[1].agg_ops_per_sec,
        cells[0].agg_ops_per_sec
    );
    assert!(
        cells[2].agg_ops_per_sec > cells[1].agg_ops_per_sec,
        "16 clients ({:.1} ops/s) must out-run 4 ({:.1})",
        cells[2].agg_ops_per_sec,
        cells[1].agg_ops_per_sec
    );
    // Every client shows up in the cache's flush attribution.
    let attributed: Vec<u32> = cells[2]
        .flush_attr
        .iter()
        .map(|&(c, _)| c)
        .filter(|&c| c != cut_and_paste::cache::UNATTRIBUTED)
        .collect();
    assert_eq!(attributed.len(), 16, "attribution rows: {:?}", cells[2].flush_attr);
    // Byte-identical report across invocations.
    let again = run_client_sweep(&cfg, 1);
    assert_eq!(
        format_client_sweep(&cfg, &cells),
        format_client_sweep(&cfg, &again),
        "client sweeps must be bit-identical for the same seed"
    );
}

/// Sharded-engine determinism at fleet scale: two seeded 256-client
/// runs on the fully striped engine (64 lock/table shards) must
/// produce identical platter images and workload stats. This is the
/// hazard the shard design had to dodge: per-shard iteration feeding
/// flush selection or free-list order would make the platter depend on
/// hash-bucket layout rather than the global dirty sequence.
#[test]
fn sharded_256_client_runs_are_byte_identical() {
    use cut_and_paste::workload::{run_clients, RunOptions, Scenario, WorkloadKind};

    fn run_once() -> (DiskImage, u64, u64) {
        let sim = Sim::new(4242);
        let h = sim.handle();
        let cfg = FsConfig {
            cache: CacheConfig {
                block_size: 4096,
                mem_bytes: 256 * 4 * 1024 * 1024,
                nvram_bytes: None,
            },
            data_mode: DataMode::Simulated,
            queue_depth: 8,
            shards: 64,
            ..FsConfig::default()
        };
        let (kind, hw) = (LayoutKind::Lfs, Hardware::default());
        let Stack { fs, disks, .. } =
            Stack::build(&h, "sh256", kind, hw.device(), cfg, FaultPlan::default());
        sim.block_on("sh256", async move {
            fs.format().await.unwrap();
            let scenario = Scenario::generate(WorkloadKind::Zipf, 256, 4242, 0.001);
            let report = run_clients(&h, &fs, &scenario, RunOptions::default()).await;
            assert_eq!(report.errors, 0, "{:?}", report.error_sample);
            fs.unmount().await.unwrap();
            let out = (disks[0].platter_image(), report.ops, report.makespan.as_nanos());
            fs.shutdown();
            out
        })
    }

    let (image_a, ops_a, lat_a) = run_once();
    let (image_b, ops_b, lat_b) = run_once();
    assert_eq!(ops_a, ops_b, "op counts differ between seeded 256-client runs");
    assert_eq!(lat_a, lat_b, "latency totals differ between seeded 256-client runs");
    assert_eq!(
        image_a,
        image_b,
        "seeded runs differ, first at sector {:?}",
        first_differing_sector(&image_a, &image_b)
    );
}

/// A single client at queue depth 1 issues one op at a time, so the
/// per-directory namespace stripes can never be contended — a nonzero
/// ns wait would mean the engine serializes against itself (the layout
/// and range families are excluded: the background flush daemon
/// legitimately overlaps them with foreground ops even for one
/// client).
#[test]
fn single_client_qd1_sweep_has_zero_ns_lock_waits() {
    use cut_and_paste::patsy::{run_client_cell, ClientSweepConfig};
    use cut_and_paste::workload::WorkloadKind;

    let mut cfg = ClientSweepConfig::new(WorkloadKind::Zipf, vec![1], 42, 0.01);
    cfg.queue_depth = 1;
    let cell = run_client_cell(&cfg, 1);
    assert_eq!(cell.report.errors, 0, "{:?}", cell.report.error_sample);
    let (_, ns) = cell
        .lock_stats
        .iter()
        .find(|(name, _)| *name == "ns")
        .copied()
        .expect("lock stats must report the ns family");
    assert!(ns.acquisitions > 0, "the run must actually exercise the namespace locks");
    assert_eq!(ns.contentions, 0, "single client contended an ns stripe: {ns:?}");
    assert_eq!(
        ns.wait,
        cut_and_paste::sim::SimDuration::from_nanos(0),
        "single client waited on an ns stripe: {ns:?}"
    );
}

#[test]
fn multi_client_crash_preserves_acked_writes_under_nvram_whole() {
    multi_client_crash_cycle(Hardware::default());
}

/// The same crash oracle on the second hardware generation: the cut,
/// the capture and the power-on all run on one flash device.
#[test]
fn multi_client_crash_preserves_acked_writes_on_ssd() {
    multi_client_crash_cycle(Hardware { disk: "ssd", ..Hardware::default() });
}

/// One doom → cut → capture → restore → recover + fsck → NVRAM replay →
/// loss-accounting cycle on `hw` under `nvram-whole`.
fn multi_client_crash_cycle(hw: Hardware) {
    use cut_and_paste::fault::{recovered_sizes, replay_nvram, CrashState, LossReport};
    use cut_and_paste::trace::TraceOp;
    use cut_and_paste::workload::{run_clients, RunOptions, Scenario, WorkloadKind};

    run_to_completion(4242, move |h| async move {
        let cfg = FsConfig {
            cache: CacheConfig {
                block_size: 4096,
                mem_bytes: 256 * 4096,
                nvram_bytes: Some(32 * 4096),
            },
            flush: "nvram-whole".into(),
            queue_depth: 8,
            data_mode: DataMode::Simulated,
            ..FsConfig::default()
        };
        let (device, plan) = (hw.device(), FaultPlan::default());
        let Stack { fs, disks, .. } =
            Stack::build(&h, "mcc0", LayoutKind::Lfs, device, cfg.clone(), plan);
        fs.format().await.unwrap();

        // Make the namespace durable up front (zipf keeps it stable:
        // no deletes), so post-crash loss accounting judges write
        // durability, not file-identity roll-forward.
        let scenario = Scenario::generate(WorkloadKind::Zipf, 4, 4242, 0.005);
        let mut dirs = std::collections::BTreeSet::new();
        let mut files = std::collections::BTreeSet::new();
        for plan in &scenario.plans {
            for cop in &plan.ops {
                match &cop.op {
                    TraceOp::Mkdir { path } => {
                        dirs.insert(path.clone());
                    }
                    op => {
                        files.insert(op.path().to_string());
                    }
                }
            }
        }
        for d in &dirs {
            fs.mkdir(d).await.unwrap();
        }
        for f in &files {
            fs.create(f, FileKind::Regular).await.unwrap();
        }
        fs.sync().await.unwrap();

        // The power cut lands mid-run: half the offered operations.
        let cut = scenario.total_ops() / 2;
        let report = run_clients(
            &h,
            &fs,
            &scenario,
            RunOptions { max_ops: Some(cut), track_acks: true, ..RunOptions::default() },
        )
        .await;
        assert!(report.ops > 0, "the workload must have run before the cut");
        assert!(!report.acked.is_empty(), "clients must have acked writes at the cut");
        let state = CrashState::capture(&fs, &disks[0]).await;
        fs.shutdown();

        // Power-on: recover, verify clean, replay NVRAM, account loss.
        let (Stack { fs: fs2, .. }, outcome) =
            Stack::recover(&h, "mcc1", LayoutKind::Lfs, &hw, &state, cfg).await.expect("recovery");
        assert!(
            outcome.post.clean(),
            "post-recovery fsck must be clean: {:?}",
            outcome.post.violations
        );
        replay_nvram(&fs2, &state.nvram).await.expect("nvram replay");
        // A file whose delete or truncate failed has no acknowledged
        // state to judge (as the checker's cells treat it).
        let mut acked = report.acked;
        acked.retain(|a| !report.indeterminate.contains(&a.path));
        let loss = LossReport::account(&acked, &recovered_sizes(&fs2, &acked).await, state.cut_at);
        assert_eq!(loss.lost_files, 0, "no client's acked file may vanish: {loss:?}");
        assert_eq!(loss.lost_bytes, 0, "no client's acked write may be lost: {loss:?}");
        fs2.shutdown();
    });
}

/// A truncate that fails because the disk died under it was never
/// acknowledged, yet may have partly persisted: the open-loop replay
/// and the closed-loop runner share one ack tracker, so both must
/// report the path as indeterminate (and keep its earlier acked write).
#[test]
fn failed_truncate_on_a_dead_disk_is_indeterminate_on_both_client_loops() {
    use cut_and_paste::sim::{SimDuration, SimTime};
    use cut_and_paste::trace::TraceOp;
    use cut_and_paste::workload::{
        run_clients, ClientOp, ClientPlan, RunOptions, Scenario, WorkloadKind,
    };

    let op = |think_s: u64, op: TraceOp| ClientOp { think_ns: think_s * 1_000_000_000, op };
    let victim = || "/victim".into();
    let ops = vec![
        op(0, TraceOp::Write { path: victim(), offset: 0, len: 8192 }),
        op(0, TraceOp::Close { path: victim() }),
        // Three log segments of filler through an eight-block cache push
        // the root directory out of memory and onto the platter, so the
        // truncate's path walk must read the disk.
        op(0, TraceOp::Write { path: "/filler".into(), offset: 0, len: 384 * 4096 }),
        // The disk dies at 30 s; the truncate arrives at 60 s.
        op(60, TraceOp::Truncate { path: victim(), size: 0 }),
    ];
    let scenario =
        Scenario { kind: WorkloadKind::Zipf, seed: 0, plans: vec![ClientPlan { client: 0, ops }] };

    for closed_loop in [false, true] {
        let scenario = scenario.clone();
        run_to_completion(5, move |h| async move {
            let cfg = FsConfig {
                cache: CacheConfig { block_size: 4096, mem_bytes: 8 * 4096, nvram_bytes: None },
                data_mode: DataMode::Simulated,
                ..FsConfig::default()
            };
            let cut = SimTime::ZERO + SimDuration::from_secs(30);
            let plan = FaultPlan { power_cut_at: Some(cut), ..FaultPlan::default() };
            let hw = Hardware::default();
            let fs = Stack::build(&h, "dead0", LayoutKind::Lfs, hw.device(), cfg, plan).fs;
            fs.format().await.unwrap();
            let (errors, acked, indeterminate) = if closed_loop {
                let opts = RunOptions { track_acks: true, ..RunOptions::default() };
                let r = run_clients(&h, &fs, &scenario, opts).await;
                (r.errors, r.acked, r.indeterminate)
            } else {
                let opts = ReplayOptions { max_ops: None, track_acks: true };
                let r = replay(&h, &fs, scenario.to_trace_records(), opts).await;
                (r.errors, r.acked, r.indeterminate)
            };
            assert_eq!(errors, 1, "closed loop {closed_loop}: only the truncate fails");
            assert_eq!(indeterminate, ["/victim"], "closed loop {closed_loop}");
            let victim = acked.iter().find(|a| a.path == "/victim").expect("the write was acked");
            assert_eq!(victim.size, 8192, "the unacknowledged truncate must not move the size");
            fs.shutdown();
        });
    }
}

#[test]
fn nvram_policy_bounds_dirty_data() {
    run_to_completion(13, |h| async move {
        let cfg = FsConfig {
            cache: CacheConfig {
                block_size: 4096,
                mem_bytes: 256 * 4096,
                nvram_bytes: Some(8 * 4096),
            },
            flush: "nvram-partial".into(),
            data_mode: DataMode::Simulated,
            ..FsConfig::default()
        };
        let fs = lfs_fs(&h, cfg);
        fs.format().await.unwrap();
        let ino = fs.create("/big", FileKind::Regular).await.unwrap();
        fs.write(ino, 0, 64 * 4096, None).await.unwrap();
        let c = fs.cache_stats();
        assert!(c.nvram_stalls > 0);
        assert!(fs.stats().blocks_flushed >= 56, "NVRAM must keep draining");
        fs.shutdown();
    });
}

/// The `"pid":P,"tid":T` of the lane named `lane` in a Chrome trace.
fn chrome_lane(json: &str, lane: &str) -> String {
    let named = format!("\"args\":{{\"name\":\"{lane}\"}}");
    let meta = json
        .lines()
        .find(|l| l.contains("\"thread_name\"") && l.contains(&named))
        .unwrap_or_else(|| panic!("no lane named {lane}"));
    let from = meta.find("\"pid\"").expect("a pid");
    meta[from..meta.find(",\"args\"").expect("args")].to_string()
}

/// Every flush batch a policy chooses is written by the flush daemon,
/// never by the task that asked for it: a UPS writer that finds no clean
/// frame and a write-delay update tick both hand their batch over. Only
/// `sync`, a durability point, flushes inline on its caller's lane.
#[test]
fn policy_flush_batches_run_on_the_flush_daemon_and_sync_flushes_inline() {
    use cut_and_paste::obs::chrome::to_chrome_json;
    use cut_and_paste::obs::trace::{install, Tracer};
    use cut_and_paste::sim::SimDuration;

    for flush in ["ups", "write-delay"] {
        let tracer = Tracer::default();
        let guard = install(&tracer);
        run_to_completion(17, move |h| async move {
            let cfg = FsConfig {
                cache: CacheConfig { block_size: 4096, mem_bytes: 64 * 4096, nvram_bytes: None },
                flush: flush.into(),
                data_mode: DataMode::Simulated,
                ..FsConfig::default()
            };
            let fs = lfs_fs(&h, cfg);
            fs.format().await.unwrap();
            let ino = fs.create("/f", FileKind::Regular).await.unwrap();
            if flush == "ups" {
                // Write 3x the cache size: demand flushing must reclaim.
                for i in 0..3u64 {
                    fs.write(ino, i * 64 * 4096 % (2 * 1024 * 1024 - 64 * 4096), 64 * 4096, None)
                        .await
                        .unwrap();
                }
            } else {
                // Past 30 s, an update tick flushes the aged blocks.
                fs.write(ino, 0, 16 * 4096, None).await.unwrap();
                h.sleep(SimDuration::from_secs(40)).await;
            }
            assert!(fs.stats().blocks_flushed > 0, "{flush}: nothing was flushed");
            let before_sync = to_chrome_json(&tracer);
            fs.write(ino, 0, 4096, None).await.unwrap();
            fs.sync().await.unwrap();
            let synced = to_chrome_json(&tracer);
            fs.shutdown();

            let daemon = format!("{},\"ts\"", chrome_lane(&before_sync, "flush-daemon"));
            let batches = |json: &str, on_daemon: bool| {
                let lines = json.lines().filter(|l| l.contains("\"name\":\"flush:batch\""));
                lines.filter(|l| l.contains(&daemon) == on_daemon).count()
            };
            assert!(batches(&before_sync, true) > 0, "{flush}: no batch on the flush daemon");
            assert_eq!(batches(&before_sync, false), 0, "{flush}: a batch ran off the daemon");
            assert_eq!(batches(&synced, false), 1, "{flush}: sync flushes inline, once");
        });
        drop(guard);
    }
}

#[test]
fn write_delay_policy_flushes_old_data_in_background() {
    run_to_completion(19, |h| async move {
        let fs = lfs_fs(
            &h,
            FsConfig {
                flush: "write-delay".into(),
                data_mode: DataMode::Simulated,
                ..FsConfig::default()
            },
        );
        fs.format().await.unwrap();
        let ino = fs.create("/aging", FileKind::Regular).await.unwrap();
        fs.write(ino, 0, 16 * 4096, None).await.unwrap();
        assert_eq!(fs.stats().blocks_flushed, 0, "young data stays in cache");
        // After >30 s + a scan tick, the update daemon must flush it.
        h.sleep(cut_and_paste::sim::SimDuration::from_secs(40)).await;
        assert!(fs.stats().blocks_flushed >= 16, "30-second update must have fired");
        fs.shutdown();
    });
}

#[test]
fn crash_sweep_json_is_stable_and_wellformed() {
    use cut_and_paste::patsy::{format_crash_sweep_json, run_crash_sweep, CrashConfig};

    let mut cfg = CrashConfig::new(trace_1a(), 2, 42, 0.002);
    cfg.layouts = vec![cut_and_paste::fault::LayoutKind::Lfs];
    cfg.policies = vec![cut_and_paste::patsy::Policy::Ups];
    let a = format_crash_sweep_json(&cfg, &run_crash_sweep(&cfg, 1));
    let b = format_crash_sweep_json(&cfg, &run_crash_sweep(&cfg, 1));
    assert_eq!(a, b, "crash --json must be byte-identical for the same seed");
    for key in [
        "\"trace\"",
        "\"cells\"",
        "\"scanned_segments\"",
        "\"violations_post\"",
        "\"lost_bytes\"",
        "\"loss_window_ms\"",
        "\"violations\"",
        "\"metrics\"",
        "\"fs.ops\"",
        "\"clean\"",
    ] {
        assert!(a.contains(key), "crash JSON must carry {key}: {a}");
    }
    assert!(a.ends_with("}\n"), "report must be one closed JSON object");
}

#[test]
fn qd_sweep_json_is_stable_and_wellformed() {
    use cut_and_paste::patsy::qdsweep::{format_qd_sweep_json, run_qd_sweep};

    let hw = Hardware::default();
    let rows = run_qd_sweep("1a", 0.002, 42, &hw, 1);
    let again = run_qd_sweep("1a", 0.002, 42, &hw, 1);
    let a = format_qd_sweep_json("1a", 0.002, 42, 100, &rows, &hw);
    let b = format_qd_sweep_json("1a", 0.002, 42, 100, &again, &hw);
    assert_eq!(a, b, "sweep-qd --json must be byte-identical for the same seed");
    for key in ["\"rows\"", "\"sched\"", "\"mean_service_ms\"", "\"makespan_ms\"", "\"depths\""] {
        assert!(a.contains(key), "qd JSON must carry {key}: {a}");
    }
    assert_eq!(a.matches("\"sched\"").count(), 4, "one row per scheduler");
}

/// The `run --trace-out` path end to end: a tracer installed around a
/// full experiment yields byte-identical Chrome trace JSON on replay,
/// and the trace accounts for (nearly) all of each op's end-to-end
/// virtual latency — the op root span *is* the client entry/exit.
#[test]
fn experiment_trace_is_deterministic_and_covers_ops() {
    use cut_and_paste::obs::chrome::to_chrome_json;
    use cut_and_paste::obs::trace::{install, Tracer};
    use cut_and_paste::patsy::{run_experiment, ExperimentConfig, Policy};
    use cut_and_paste::trace::trace_1a;

    fn run(queue_depth: u32, mem_bytes: u64) -> (String, cut_and_paste::patsy::ExperimentResult) {
        let mut cfg = ExperimentConfig::new(Policy::Ups, trace_1a());
        cfg.scale = 0.002;
        cfg.seed = 42;
        cfg.queue_depth = queue_depth;
        cfg.mem_bytes = mem_bytes;
        let tracer = Tracer::default();
        let guard = install(&tracer);
        let r = run_experiment(&cfg);
        drop(guard);
        (to_chrome_json(&tracer), r)
    }
    fn run_once() -> (String, f64, u64) {
        let (json, r) = run(8, 8 << 20);
        (json, r.report.latency.sum(), r.report.ops)
    }
    // The trace reconciles with the cache's own counters at every depth,
    // with a cache the working set fits and with one it does not: every
    // hit is an instant; a miss is one unless the reader found another
    // task already loading the block and waited for it.
    for queue_depth in [1, 8] {
        for mem_bytes in [8 << 20, 512 << 10] {
            let (json, r) = run(queue_depth, mem_bytes);
            let instants = |name: &str| json.matches(name).count() as u64;
            let (hits, misses) =
                (r.metrics.counter_value("cache.hits"), r.metrics.counter_value("cache.misses"));
            let what = format!("at qd {queue_depth} with {mem_bytes} bytes of cache");
            assert_eq!(instants("\"cache:hit\""), hits, "cache:hit instants {what}");
            assert!(instants("\"cache:miss\"") <= misses, "cache:miss instants {what}");
            // One load span covers a window's misses: each its own at depth 1.
            let (loads, per_load) = (instants("\"cache:load\""), queue_depth as u64);
            assert!(
                loads <= instants("\"cache:miss\"")
                    && instants("\"cache:miss\"") <= loads * per_load,
                "{loads} cache:load spans {what}"
            );
            assert_eq!(misses > 0, mem_bytes < 8 << 20, "misses {what}");
        }
    }
    let (json_a, total_ms, ops) = run_once();
    let (json_b, total_ms_b, ops_b) = run_once();
    assert_eq!(json_a, json_b, "trace-out bytes must replay identically");
    assert_eq!((total_ms.to_bits(), ops), (total_ms_b.to_bits(), ops_b), "and so must the report");
    assert!(
        json_a.starts_with("[\n") && json_a.ends_with("]\n"),
        "Chrome trace array format expected"
    );
    for name in ["\"op:write\"", "\"op:read\"", "\"io:write\"", "\"lock:ns\""] {
        assert!(json_a.contains(name), "span {name} missing from the trace");
    }
    // Span coverage: summing every op:* complete-event duration must
    // account for >= 95% of the replay's end-to-end virtual latency.
    let mut covered_us = 0.0f64;
    for line in json_a.lines() {
        if !line.contains("\"name\":\"op:") {
            continue;
        }
        let dur = line
            .split("\"dur\":")
            .nth(1)
            .and_then(|rest| rest.split([',', '}']).next()?.trim().parse::<f64>().ok());
        covered_us += dur.expect("op event must carry dur");
    }
    let covered_ms = covered_us / 1000.0;
    assert!(ops > 0 && total_ms > 0.0, "experiment must do work");
    assert!(
        covered_ms >= 0.95 * total_ms,
        "op spans cover {covered_ms:.1} ms of {total_ms:.1} ms total (< 95%)"
    );
}
