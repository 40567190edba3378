//! Property-based tests on core data structures and invariants.

use proptest::prelude::*;

use cut_and_paste::cache::{BlockCache, BlockKey, CacheConfig, FileId, Lru, Reserve, WriteSaving};
use cut_and_paste::core::{DataMode, FileSystem, FsConfig};
use cut_and_paste::disk::{
    scheduler_by_name, sim_disk_driver, striped_sim_disk_driver, CLook, DiskGeometry, DiskModel,
    FaultPlan, Hardware, Hp97560, IoOp, Payload, PendingMeta,
};
use cut_and_paste::fault::{CrashState, LayoutKind, Stack};
use cut_and_paste::layout::dir::{decode, encode, Dirent};
use cut_and_paste::layout::{FileKind, Ino, Inode};
use cut_and_paste::obs::Histogram;
use cut_and_paste::sim::{Handle, Sim, SimDuration, SimTime};
use cut_and_paste::trace::codec;
use cut_and_paste::trace::{TraceOp, TraceRecord};
use cut_and_paste::workload::{Scenario, WORKLOADS};

/// Queue depths the multi-client differential test sweeps. CI pins one
/// depth per matrix leg via `CNP_TEST_QD`; locally both run, so the
/// qd=1 leg doubles as the serial-oracle regression for the pipelined
/// path.
fn qd_matrix() -> Vec<u32> {
    match std::env::var("CNP_TEST_QD") {
        Ok(s) => vec![s.trim().parse().expect("CNP_TEST_QD must be a queue depth >= 1")],
        Err(_) => vec![1, 8],
    }
}

/// Runs a closure on a fresh virtual-time sim to completion.
fn run_sim<F, Fut>(seed: u64, f: F)
where
    F: FnOnce(Handle) -> Fut + 'static,
    Fut: std::future::Future<Output = ()> + 'static,
{
    let sim = Sim::new(seed);
    let h = sim.handle();
    sim.block_on("prop", async move { f(h).await });
}

/// Recovers an LFS from a disk image; returns a logical digest (sorted
/// root listing with sizes and leading bytes), the post-recovery disk
/// image, and how many segments rolled forward.
async fn recover_digest(
    h: &Handle,
    image: cut_and_paste::disk::DiskImage,
    name: &str,
    cfg: FsConfig,
) -> (Vec<(String, u64, Vec<u8>)>, cut_and_paste::disk::DiskImage, u64) {
    let state =
        CrashState { image, nvram: Default::default(), staging_sealed: true, cut_at: h.now() };
    let (Stack { fs, disks, .. }, outcome) =
        Stack::recover(h, name, LayoutKind::Lfs, &Hardware::default(), &state, cfg)
            .await
            .expect("recovery");
    assert!(outcome.post.clean(), "walker dirty after recovery: {:?}", outcome.post.violations);
    let mut digest = Vec::new();
    let mut entries = fs.readdir("/").await.expect("readdir");
    entries.sort_by(|a, b| a.name.cmp(&b.name));
    for e in entries {
        let inode = fs.stat(&format!("/{}", e.name)).await.expect("stat");
        let mut heads = Vec::new();
        let blocks = inode.size.div_ceil(4096);
        for blk in 0..blocks {
            let (_, data) = fs.read(e.ino, blk * 4096, 1).await.expect("read");
            heads.push(data.and_then(|d| d.first().copied()).unwrap_or(0));
        }
        digest.push((e.name, inode.size, heads));
    }
    let image2 = disks[0].platter_image();
    fs.shutdown();
    (digest, image2, outcome.stats.rolled_segments)
}

proptest! {
    /// Inode serialization round-trips for arbitrary field values.
    #[test]
    fn inode_codec_round_trip(
        ino in 1u64..1_000_000,
        size in 0u64..(524 * 4096),
        nlink in 1u32..100,
        mtime in 0u64..u64::MAX / 2,
        kind_tag in 0u8..4,
        directs in prop::collection::vec(0u64..10_000_000, 12),
        indirect in 0u64..10_000_000,
    ) {
        let mut inode = Inode::new(Ino(ino), FileKind::from_tag(kind_tag).unwrap());
        inode.size = size;
        inode.nlink = nlink;
        inode.mtime = mtime;
        for (i, d) in directs.iter().enumerate() {
            inode.direct[i] = cut_and_paste::layout::BlockAddr(*d);
        }
        inode.indirect = cut_and_paste::layout::BlockAddr(indirect);
        let back = Inode::from_bytes(&inode.to_bytes()).expect("parse");
        prop_assert_eq!(back, inode);
    }

    /// Directory encode/decode round-trips arbitrary entry lists.
    #[test]
    fn dirent_codec_round_trip(
        names in prop::collection::vec("[a-zA-Z0-9._-]{1,32}", 0..40),
    ) {
        let mut seen = std::collections::HashSet::new();
        let entries: Vec<Dirent> = names
            .into_iter()
            .filter(|n| seen.insert(n.clone()))
            .enumerate()
            .map(|(i, name)| Dirent { ino: Ino(i as u64 + 2), kind: FileKind::Regular, name })
            .collect();
        let back = decode(&encode(&entries)).expect("decode");
        prop_assert_eq!(back, entries);
    }

    /// Trace text and binary codecs agree and round-trip.
    #[test]
    fn trace_codecs_round_trip(
        ops in prop::collection::vec((0u64..1_000_000_000, 0u32..16, 0u8..8, 0u64..1_000_000, 1u64..100_000), 0..50),
    ) {
        let records: Vec<TraceRecord> = ops
            .into_iter()
            .map(|(t, c, tag, a, b)| {
                let path = format!("/c{c}/f{a}").into();
                let op = match tag {
                    0 => TraceOp::Open { path },
                    1 => TraceOp::Close { path },
                    2 => TraceOp::Read { path, offset: a, len: b },
                    3 => TraceOp::Write { path, offset: a, len: b },
                    4 => TraceOp::Delete { path },
                    5 => TraceOp::Truncate { path, size: a },
                    6 => TraceOp::Stat { path },
                    _ => TraceOp::Mkdir { path },
                };
                TraceRecord { time_ns: t, client: c, op }
            })
            .collect();
        let mut text = Vec::new();
        codec::write_text(&mut text, &records).unwrap();
        prop_assert_eq!(&codec::read_text(std::io::BufReader::new(&text[..])).unwrap(), &records);
        let mut bin = Vec::new();
        codec::write_binary(&mut bin, &records).unwrap();
        prop_assert_eq!(&codec::read_binary(&bin[..]).unwrap(), &records);
    }

    /// Every queue scheduler serves every request exactly once.
    #[test]
    fn ioscheds_are_permutations(
        lbas in prop::collection::vec(0u64..2_000_000, 1..60),
        start in 0u64..2_000_000,
        which in 0usize..6,
    ) {
        let names = ["fcfs", "sstf", "scan", "look", "c-scan", "c-look"];
        let mut sched = scheduler_by_name(names[which]).unwrap();
        let mut queue: Vec<PendingMeta> = lbas
            .iter()
            .enumerate()
            .map(|(i, &lba)| PendingMeta { lba, seq: i as u64 })
            .collect();
        let mut head = start;
        let mut served = Vec::new();
        while !queue.is_empty() {
            let i = sched.pick(&queue, head);
            prop_assert!(i < queue.len());
            let m = queue.remove(i);
            head = m.lba;
            served.push(m.lba);
        }
        served.sort_unstable();
        let mut want = lbas.clone();
        want.sort_unstable();
        prop_assert_eq!(served, want);
    }

    /// Cache accounting: resident count never exceeds capacity, and
    /// arbitrary operation sequences never break list invariants.
    #[test]
    fn cache_never_overflows(
        ops in prop::collection::vec((0u64..6, 0u64..32, 0u64..4), 1..200),
    ) {
        let cfg = CacheConfig { block_size: 4096, mem_bytes: 8 * 4096, nvram_bytes: None };
        let frames = cfg.frames();
        let mut cache = BlockCache::new(
            cfg,
            Box::new(Lru::new(frames)),
            Box::new(WriteSaving { whole_file: true, batch: 1 }),
        );
        let mut t = 0u64;
        for (file, block, action) in ops {
            t += 1;
            let key = BlockKey::new(FileId(file), block);
            let now = SimTime::from_nanos(t * 1_000_000);
            match action {
                0 | 1 => {
                    // Read/insert path.
                    if cache.lookup(key, now).is_none() {
                        match cache.reserve() {
                            Reserve::Frame(f) => cache.commit(f, key, None, now),
                            Reserve::NeedFlush(keys) => {
                                let started = cache.begin_flush(&keys);
                                for k in started {
                                    cache.end_flush(k, now);
                                }
                            }
                        }
                    }
                }
                2 => {
                    if cache.peek(key).is_some() {
                        let _ = cache.mark_dirty(key, now);
                    }
                }
                _ => {
                    cache.remove_file(FileId(file));
                }
            }
            prop_assert!(cache.resident() <= frames);
            prop_assert!(cache.dirty_count() <= cache.resident());
        }
    }

    /// LFS crash recovery is idempotent: recovering a crashed image and
    /// then "re-crashing" immediately (no new work) and recovering again
    /// yields the same logical file system, with nothing left to roll.
    #[test]
    fn lfs_recovery_is_idempotent(
        seed in 0u64..1_000_000,
        nfiles in 1u64..5,
        blocks_per_file in 1u64..6,
    ) {
        run_sim(seed, move |h| async move {
            // Doomed stack: NVRAM policy so cache drains seal segments,
            // leaving post-checkpoint log state to roll forward.
            let cfg = FsConfig {
                cache: CacheConfig {
                    block_size: 4096,
                    mem_bytes: 64 * 4096,
                    nvram_bytes: Some(8 * 4096),
                },
                flush: "nvram-whole".into(),
                data_mode: DataMode::Real,
                ..FsConfig::default()
            };
            let (hw, plan) = (Hardware::default(), FaultPlan::default());
            let Stack { fs, disks, .. } =
                Stack::build(&h, "p0", LayoutKind::Lfs, hw.device(), cfg.clone(), plan);
            let disk = disks[0].clone();
            fs.format().await.unwrap();
            // A synced baseline file, then un-checkpointed writes.
            let base = fs.create("/base", FileKind::Regular).await.unwrap();
            fs.write(base, 0, 4096, Some(&vec![9u8; 4096])).await.unwrap();
            fs.sync().await.unwrap();
            for i in 0..nfiles {
                let ino = fs.create(&format!("/f{i}"), FileKind::Regular).await.unwrap();
                for blk in 0..blocks_per_file {
                    let tag = (7 + i * 31 + blk) as u8;
                    fs.write(ino, blk * 4096, 4096, Some(&vec![tag; 4096])).await.unwrap();
                }
            }
            // Crash.
            let image = disk.platter_image();
            fs.shutdown();
            // Recover once; then recover the recovered image again.
            let (d1, image2, _rolled) = recover_digest(&h, image, "r1", cfg.clone()).await;
            let (d2, _image3, rolled2) = recover_digest(&h, image2, "r2", cfg).await;
            assert_eq!(rolled2, 0, "second recovery must find nothing young");
            assert_eq!(d1, d2, "recover twice must equal recover once");
        });
    }

    /// Under the NVRAM-whole flush policy, a crash loses zero
    /// acknowledged writes to files whose creation reached a checkpoint:
    /// every acked byte is either on the platter or in the NVRAM
    /// snapshot, and replay restores it exactly.
    #[test]
    fn nvram_whole_crash_loses_zero_acked_writes(
        seed in 0u64..1_000_000,
        ops in prop::collection::vec((0u64..4, 0u64..8), 1..24),
    ) {
        run_sim(seed, move |h| async move {
            let cfg = FsConfig {
                cache: CacheConfig {
                    block_size: 4096,
                    mem_bytes: 64 * 4096,
                    // Small NVRAM: many ops overflow it, exercising the
                    // drain-then-seal path, not just pure NVRAM survival.
                    nvram_bytes: Some(4 * 4096),
                },
                flush: "nvram-whole".into(),
                data_mode: DataMode::Real,
                ..FsConfig::default()
            };
            let (hw, plan) = (Hardware::default(), FaultPlan::default());
            let Stack { fs, disks, .. } =
                Stack::build(&h, "n0", LayoutKind::Lfs, hw.device(), cfg.clone(), plan);
            let disk = disks[0].clone();
            fs.format().await.unwrap();
            let mut inos = Vec::new();
            for i in 0..4u64 {
                inos.push(fs.create(&format!("/f{i}"), FileKind::Regular).await.unwrap());
            }
            fs.sync().await.unwrap(); // Namespace durable.
            // Acknowledged tagged writes; the model is the ground truth.
            let mut model: std::collections::BTreeMap<(u64, u64), u8> =
                std::collections::BTreeMap::new();
            let mut sizes: std::collections::BTreeMap<u64, u64> = std::collections::BTreeMap::new();
            for (i, (fidx, blk)) in ops.iter().enumerate() {
                let tag = ((i as u64 * 7 + fidx * 31 + blk * 3) % 251) as u8;
                fs.write(inos[*fidx as usize], blk * 4096, 4096, Some(&vec![tag; 4096]))
                    .await
                    .expect("acked write");
                model.insert((*fidx, *blk), tag);
                let s = sizes.entry(*fidx).or_insert(0);
                *s = (*s).max((blk + 1) * 4096);
            }
            // Crash: platter + NVRAM survive, nothing else.
            let state = CrashState::capture(&fs, &disk).await;
            fs.shutdown();
            // Power-on, recover, verify, replay NVRAM.
            let (Stack { fs: fs2, .. }, outcome) =
                Stack::recover(&h, "n1", LayoutKind::Lfs, &hw, &state, cfg).await.expect("recovery");
            assert!(outcome.post.clean(), "{:?}", outcome.post.violations);
            cut_and_paste::fault::replay_nvram(&fs2, &state.nvram).await.expect("nvram replay");
            // Every acknowledged write must read back exactly.
            for ((fidx, blk), tag) in model {
                let ino = fs2.lookup(&format!("/f{fidx}")).await.expect("file identity survives");
                let (n, data) = fs2.read(ino, blk * 4096, 4096).await.expect("read back");
                assert_eq!(n, 4096, "file {fidx} block {blk} short read");
                let data = data.expect("real mode returns bytes");
                assert!(
                    data.iter().all(|&b| b == tag),
                    "file {fidx} block {blk}: acked write lost (want {tag}, got {})",
                    data[0]
                );
            }
            for (fidx, size) in sizes {
                let inode = fs2.stat(&format!("/f{fidx}")).await.unwrap();
                assert_eq!(inode.size, size, "file {fidx} size must survive");
            }
            fs2.shutdown();
        });
    }

    /// The pipelined I/O path is an exact functional oracle of the
    /// serial path: the same operation sequence produces byte-identical
    /// file contents at queue depth 1 and queue depth 8, and the
    /// depth-1 run itself is byte-identical across invocations.
    #[test]
    fn pipelined_path_is_exact_oracle_of_serial(
        seed in 0u64..1_000_000,
        ops in prop::collection::vec((0u64..3, 0u64..10, 1u64..3), 1..16),
    ) {
        /// Final file contents plus the platter image of one replay.
        type OracleOutcome = (Vec<Vec<u8>>, cut_and_paste::disk::DiskImage);

        /// Replays `ops`, returns (final file contents, platter image).
        fn run_once(
            seed: u64,
            ops: &[(u64, u64, u64)],
            queue_depth: u32,
            kind: LayoutKind,
        ) -> OracleOutcome {
            let ops = ops.to_vec();
            let sim = Sim::new(seed);
            let h = sim.handle();
            let cfg = FsConfig {
                queue_depth,
                data_mode: DataMode::Real,
                ..FsConfig::default()
            };
            let (hw, plan) = (Hardware::default(), FaultPlan::default());
            let Stack { fs, disks, .. } =
                Stack::build(&h, "o0", kind, hw.device(), cfg, plan);
            let disk = disks[0].clone();
            sim.block_on("oracle", async move {
                fs.format().await.unwrap();
                let mut inos = Vec::new();
                for i in 0..3u64 {
                    inos.push(fs.create(&format!("/f{i}"), FileKind::Regular).await.unwrap());
                }
                for (i, (fidx, blk, nblocks)) in ops.iter().enumerate() {
                    let tag = ((i * 13 + 7) % 251) as u8;
                    let len = nblocks * 4096;
                    fs.write(inos[*fidx as usize], blk * 4096, len, Some(&vec![tag; len as usize]))
                        .await
                        .unwrap();
                }
                fs.sync().await.unwrap();
                let mut contents = Vec::new();
                for (i, &ino) in inos.iter().enumerate() {
                    let size = fs.stat(&format!("/f{i}")).await.unwrap().size;
                    let (_, data) = fs.read(ino, 0, size).await.unwrap();
                    contents.push(data.unwrap_or_default());
                }
                fs.unmount().await.unwrap();
                let image = disk.platter_image();
                fs.shutdown();
                (contents, image)
            })
        }
        for kind in [LayoutKind::Lfs, LayoutKind::Ffs] {
            let (serial, image_a) = run_once(seed, &ops, 1, kind);
            let (serial_again, image_b) = run_once(seed, &ops, 1, kind);
            prop_assert_eq!(&serial, &serial_again, "depth-1 contents must replay identically");
            prop_assert_eq!(image_a, image_b, "depth-1 platter must replay byte-identically");
            let (pipelined, _image) = run_once(seed, &ops, 8, kind);
            prop_assert_eq!(serial, pipelined, "queue depth must not change file contents");
        }
    }

    /// The engine's lock striping and table sharding must be pure
    /// partitioning: a single-client seeded run is byte-identical —
    /// file contents AND platter image — at every shard count. One
    /// client can never contend, so every stripe acquisition takes the
    /// uncontended immediate path and the schedule cannot move; the
    /// cache's global dirty sequence keeps flush selection order
    /// shard-count-invariant. Any divergence means sharding leaked into
    /// scheduling or flush order.
    #[test]
    fn shard_count_never_changes_single_client_runs(
        seed in 0u64..1_000_000,
        ops in prop::collection::vec((0u64..3, 0u64..10, 1u64..3), 1..12),
    ) {
        /// Final file contents plus the platter image of one replay.
        type ShardOutcome = (Vec<Vec<u8>>, cut_and_paste::disk::DiskImage);

        fn run_once(
            seed: u64,
            ops: &[(u64, u64, u64)],
            queue_depth: u32,
            shards: u32,
        ) -> ShardOutcome {
            let ops = ops.to_vec();
            let sim = Sim::new(seed);
            let h = sim.handle();
            let cfg = FsConfig {
                queue_depth,
                data_mode: DataMode::Real,
                shards,
                ..FsConfig::default()
            };
            let (hw, plan) = (Hardware::default(), FaultPlan::default());
            let Stack { fs, disks, .. } =
                Stack::build(&h, "sh0", LayoutKind::Lfs, hw.device(), cfg, plan);
            let disk = disks[0].clone();
            sim.block_on("shard-oracle", async move {
                fs.format().await.unwrap();
                let mut inos = Vec::new();
                for i in 0..3u64 {
                    inos.push(fs.create(&format!("/f{i}"), FileKind::Regular).await.unwrap());
                }
                for (i, (fidx, blk, nblocks)) in ops.iter().enumerate() {
                    let tag = ((i * 13 + 7) % 251) as u8;
                    let len = nblocks * 4096;
                    fs.write(inos[*fidx as usize], blk * 4096, len, Some(&vec![tag; len as usize]))
                        .await
                        .unwrap();
                }
                fs.sync().await.unwrap();
                let mut contents = Vec::new();
                for (i, &ino) in inos.iter().enumerate() {
                    let size = fs.stat(&format!("/f{i}")).await.unwrap().size;
                    let (_, data) = fs.read(ino, 0, size).await.unwrap();
                    contents.push(data.unwrap_or_default());
                }
                fs.unmount().await.unwrap();
                let image = disk.platter_image();
                fs.shutdown();
                (contents, image)
            })
        }
        for qd in qd_matrix() {
            let (contents_1, image_1) = run_once(seed, &ops, qd, 1);
            for shards in [4u32, 16] {
                let (contents_n, image_n) = run_once(seed, &ops, qd, shards);
                prop_assert_eq!(
                    &contents_1, &contents_n,
                    "qd {} shards {}: file contents diverged from unsharded", qd, shards
                );
                prop_assert_eq!(
                    &image_1, &image_n,
                    "qd {} shards {}: platter diverged from unsharded", qd, shards
                );
            }
        }
    }

    /// Model-based differential test of the multi-client engine: N
    /// concurrent clients run random programs against their own
    /// namespace shards on one shared `FileSystem`, while a flat
    /// in-memory model applies the same programs in per-client order.
    /// Whatever the interleaving the scheduler picks, every read, stat,
    /// and final read-back must match the model byte-for-byte — for
    /// both layouts, at queue depth 1 (the serial oracle) and 8 (the
    /// pipelined path).
    #[test]
    fn multi_client_differential_matches_flat_model(
        seed in 0u64..1_000_000,
        programs in prop::collection::vec(
            // (file 0..3, action 0..6, block 0..6, blocks 1..3)
            prop::collection::vec((0usize..3, 0u8..6, 0u64..6, 1u64..3), 1..12),
            1..4,
        ),
    ) {
        type Program = Vec<(usize, u8, u64, u64)>;

        async fn client_program(
            h: Handle,
            fs: cut_and_paste::core::FileSystem,
            c: usize,
            prog: Program,
        ) {
            let cfs = fs.client(c as u32);
            let shard = format!("/m{c}");
            cfs.mkdir(&shard).await.unwrap();
            // The flat model: per-file byte images, program order.
            let mut model: Vec<Option<Vec<u8>>> = vec![None; 3];
            for (i, &(fi, action, blk, nblocks)) in prog.iter().enumerate() {
                let path = format!("{shard}/f{fi}");
                // A data-derived think time varies the interleavings.
                let think = (i as u64 * 37 + blk * 11 + c as u64 * 101) % 300 + 1;
                h.sleep(SimDuration::from_micros(think)).await;
                match action {
                    0 | 1 => {
                        // Write `nblocks` tagged blocks at `blk`.
                        if model[fi].is_none() {
                            cfs.create(&path, FileKind::Regular).await.unwrap();
                            model[fi] = Some(Vec::new());
                        }
                        let ino = cfs.lookup(&path).await.unwrap();
                        let tag = ((c * 41 + i * 13 + 7) % 251) as u8;
                        let off = (blk * 4096) as usize;
                        let len = (nblocks * 4096) as usize;
                        cfs.write(ino, off as u64, len as u64, Some(&vec![tag; len]))
                            .await
                            .unwrap();
                        let m = model[fi].as_mut().unwrap();
                        if m.len() < off + len {
                            m.resize(off + len, 0);
                        }
                        m[off..off + len].fill(tag);
                    }
                    2 => {
                        // Read the whole file and compare to the model.
                        if let Some(m) = &model[fi] {
                            let ino = cfs.lookup(&path).await.unwrap();
                            let (n, data) = cfs.read(ino, 0, m.len() as u64).await.unwrap();
                            assert_eq!(n, m.len() as u64, "client {c} op {i}: short read");
                            assert_eq!(&data.unwrap(), m, "client {c} op {i}: content diverged");
                        }
                    }
                    3 => {
                        // Shrinking truncate.
                        if let Some(m) = &mut model[fi] {
                            let new = (blk * 4096).min(m.len() as u64);
                            let ino = cfs.lookup(&path).await.unwrap();
                            cfs.truncate(ino, new).await.unwrap();
                            m.truncate(new as usize);
                        }
                    }
                    4 => {
                        // Unlink; the next write may recreate.
                        if model[fi].is_some() {
                            cfs.unlink(&path).await.unwrap();
                            model[fi] = None;
                        }
                    }
                    _ => {
                        // Stat: sizes must agree mid-flight.
                        if let Some(m) = &model[fi] {
                            let inode = cfs.stat(&path).await.unwrap();
                            assert_eq!(inode.size, m.len() as u64, "client {c} op {i}: size");
                        }
                    }
                }
            }
            // Final read-back: the shard must equal the model exactly.
            for (fi, m) in model.iter().enumerate() {
                let path = format!("{shard}/f{fi}");
                match m {
                    Some(m) => {
                        let ino = cfs.lookup(&path).await.unwrap();
                        let (n, data) = cfs.read(ino, 0, m.len() as u64).await.unwrap();
                        assert_eq!(n, m.len() as u64, "client {c} file {fi}: final size");
                        assert_eq!(&data.unwrap(), m, "client {c} file {fi}: final content");
                    }
                    None => {
                        assert!(
                            cfs.lookup(&path).await.is_err(),
                            "client {c} file {fi}: deleted file resurfaced"
                        );
                    }
                }
            }
        }

        fn run_once(seed: u64, programs: &[Program], kind: LayoutKind, queue_depth: u32) {
            let sim = Sim::new(seed);
            let h = sim.handle();
            let driver = cut_and_paste::disk::sim_disk_driver(
                &h,
                "diff0",
                Box::new(Hp97560::new()),
                Box::new(CLook),
            );
            let layout = kind.build(&h, driver);
            let cfg = FsConfig { data_mode: DataMode::Real, queue_depth, ..FsConfig::default() };
            let fs = FileSystem::new(&h, layout, cfg);
            let programs = programs.to_vec();
            sim.block_on("differential", async move {
                fs.format().await.unwrap();
                let mut handles = Vec::new();
                for (c, prog) in programs.into_iter().enumerate() {
                    let h3 = h.clone();
                    let fs2 = fs.clone();
                    handles.push(h.spawn(&format!("dc{c}"), async move {
                        client_program(h3, fs2, c, prog).await;
                    }));
                }
                for jh in handles {
                    jh.await;
                }
                fs.sync().await.unwrap();
                fs.shutdown();
            });
        }

        for kind in [LayoutKind::Lfs, LayoutKind::Ffs] {
            for qd in qd_matrix() {
                run_once(seed, &programs, kind, qd);
            }
        }
    }

    /// The linearizability oracle over random multi-client runs: the
    /// workload runner records every operation's *(invoke, ack)*
    /// interval and observable outcome, and the witness search must
    /// find a sequential order explaining all of them — the order-free
    /// replacement for fixed-interleaving comparisons: instead of
    /// asserting one precomputed interleaving, it accepts any history a
    /// linearizable engine could produce and rejects everything else.
    #[test]
    fn multi_client_histories_are_linearizable(
        seed in 0u64..1_000_000,
        kidx in 0usize..5,
        clients in 1u32..4,
        layout_sel in 0u8..2,
    ) {
        use cut_and_paste::check::{run_history_check, HistoryCheckConfig, LinConfig};

        for qd in qd_matrix() {
            let cfg = HistoryCheckConfig {
                kind: WORKLOADS[kidx],
                clients,
                seed,
                scale: 0.0005,
                layout: if layout_sel == 1 { LayoutKind::Ffs } else { LayoutKind::Lfs },
                queue_depth: qd,
                lin: LinConfig::default(),
            };
            let report = run_history_check(&cfg);
            prop_assert!(
                report.outcome.is_linearizable(),
                "qd={qd} {}x{}: {:?}",
                cfg.kind.name(),
                clients,
                report.outcome
            );
            prop_assert!(report.acked > 0, "history must contain acked work");
        }
    }

    /// Workload-generated scenarios survive both trace codecs losslessly
    /// (the hand-picked codec cases don't cover generated paths, op
    /// mixes, or timestamp shapes).
    #[test]
    fn workload_scenarios_round_trip_codecs(
        seed in 0u64..u64::MAX / 2,
        kidx in 0usize..5,
        clients in 1u32..4,
    ) {
        let scenario = Scenario::generate(WORKLOADS[kidx], clients, seed, 0.002);
        let records = scenario.to_trace_records();
        prop_assert!(!records.is_empty());
        let mut text = Vec::new();
        codec::write_text(&mut text, &records).unwrap();
        prop_assert_eq!(&codec::read_text(std::io::BufReader::new(&text[..])).unwrap(), &records);
        let mut bin = Vec::new();
        codec::write_binary(&mut bin, &records).unwrap();
        prop_assert_eq!(&codec::read_binary(&bin[..]).unwrap(), &records);
    }

    /// The virtual-time tracer is deterministic and invisible: two
    /// seeded runs emit byte-identical Chrome trace JSON (at queue
    /// depth 1 and at 8), and a traced run leaves the platter image
    /// byte-identical to an untraced run of the same seed — tracing
    /// records but never sleeps, yields, or allocates sim resources,
    /// so it cannot perturb a schedule.
    #[test]
    fn tracing_is_deterministic_and_invisible(
        seed in 0u64..1_000_000,
        ops in prop::collection::vec((0u64..3, 0u64..8, 1u64..3), 1..10),
    ) {
        /// One run's Chrome trace JSON (empty when untraced) + platter.
        type TraceOutcome = (String, cut_and_paste::disk::DiskImage);

        fn run_once(
            seed: u64,
            ops: &[(u64, u64, u64)],
            queue_depth: u32,
            traced: bool,
        ) -> TraceOutcome {
            let tracer = cut_and_paste::obs::trace::Tracer::default();
            let guard = traced.then(|| cut_and_paste::obs::trace::install(&tracer));
            let ops = ops.to_vec();
            let sim = Sim::new(seed);
            let h = sim.handle();
            let cfg = FsConfig {
                queue_depth,
                data_mode: DataMode::Real,
                ..FsConfig::default()
            };
            let (hw, plan) = (Hardware::default(), FaultPlan::default());
            let Stack { fs, disks, .. } =
                Stack::build(&h, "t0", LayoutKind::Lfs, hw.device(), cfg, plan);
            let disk = disks[0].clone();
            let image = sim.block_on("traced", async move {
                fs.format().await.unwrap();
                // Through the per-client handle so op spans open.
                let cfs = fs.client(0);
                let mut inos = Vec::new();
                for i in 0..3u64 {
                    inos.push(cfs.create(&format!("/f{i}"), FileKind::Regular).await.unwrap());
                }
                for (i, (fidx, blk, nblocks)) in ops.iter().enumerate() {
                    let tag = ((i * 11 + 3) % 251) as u8;
                    let len = nblocks * 4096;
                    cfs.write(inos[*fidx as usize], blk * 4096, len, Some(&vec![tag; len as usize]))
                        .await
                        .unwrap();
                    cfs.read(inos[*fidx as usize], blk * 4096, len).await.unwrap();
                }
                fs.sync().await.unwrap();
                fs.unmount().await.unwrap();
                let image = disk.platter_image();
                fs.shutdown();
                image
            });
            drop(guard);
            let json = if traced {
                cut_and_paste::obs::chrome::to_chrome_json(&tracer)
            } else {
                String::new()
            };
            (json, image)
        }
        for qd in [1u32, 8] {
            let (json_a, image_a) = run_once(seed, &ops, qd, true);
            let (json_b, image_b) = run_once(seed, &ops, qd, true);
            prop_assert!(json_a.contains("\"op:create\""), "op spans must appear: {json_a}");
            prop_assert_eq!(&json_a, &json_b, "trace bytes must replay identically at qd {}", qd);
            prop_assert_eq!(&image_a, &image_b, "traced platter must replay identically");
            let (_, image_untraced) = run_once(seed, &ops, qd, false);
            prop_assert_eq!(&image_a, &image_untraced,
                "tracing must not perturb the platter at qd {}", qd);
        }
    }

    /// The LBA ↔ CHS mapping round-trips for arbitrary geometries up to
    /// the largest fleet-scaled disk: `scale_cylinders` multiplies the
    /// cylinder count right up to the u32 ceiling, and every coordinate
    /// of every sector — including the very last one — must narrow to
    /// u32 without wrapping and map back to the same LBA.
    #[test]
    fn lba_chs_round_trip_arbitrary_geometries(
        cylinders in 1u32..20_000,
        heads in 1u32..20,
        spt in 1u32..200,
        factor_sel in 0u32..4,
        lba_frac in 0u64..u64::MAX / 2,
    ) {
        let base = DiskGeometry {
            cylinders,
            heads,
            sectors_per_track: spt,
            sector_size: 512,
            rpm: 4002,
            track_skew: 1,
            cylinder_skew: 2,
        };
        // Fleet scaling in the clients sweep caps at 16x today, but the
        // mapping must hold for any factor the checked multiply accepts.
        let max_factor = u32::MAX / cylinders;
        let factor = match factor_sel {
            0 => 1,
            1 => 16.min(max_factor),
            2 => (max_factor / 2).max(1),
            _ => max_factor,
        };
        let g = base.scale_cylinders(factor);
        let cap = g.capacity_sectors();
        for lba in [lba_frac % cap, 0, cap - 1] {
            let chs = g.lba_to_chs(lba);
            prop_assert!(chs.cylinder < g.cylinders);
            prop_assert!(chs.head < g.heads);
            prop_assert!(chs.sector < g.sectors_per_track);
            prop_assert_eq!(g.chs_to_lba(chs), lba, "round trip failed at lba {}", lba);
        }
    }

    /// `track_chunks` — the splitter under the engine's scatter-gather
    /// runs — covers any run exactly on any geometry:
    /// chunks are contiguous, non-empty, each stays on one track, and
    /// they sum to the requested sector count.
    #[test]
    fn track_chunks_cover_runs_exactly(
        cylinders in 1u32..10_000,
        heads in 1u32..16,
        spt in 1u32..128,
        start_frac in 0u64..u64::MAX / 2,
        want in 1u32..5_000,
    ) {
        let g = DiskGeometry {
            cylinders,
            heads,
            sectors_per_track: spt,
            sector_size: 512,
            rpm: 4002,
            track_skew: 1,
            cylinder_skew: 2,
        };
        let cap = g.capacity_sectors();
        let start = start_frac % cap;
        let sectors = (want as u64).min(cap - start) as u32;
        let chunks: Vec<_> = g.track_chunks(start, sectors).collect();
        let mut cur = start;
        let mut total = 0u64;
        for (lba, n) in &chunks {
            prop_assert_eq!(*lba, cur, "chunks must be contiguous");
            prop_assert!(*n > 0, "empty chunk");
            let track = lba / spt as u64;
            prop_assert_eq!(
                (lba + *n as u64 - 1) / spt as u64, track,
                "chunk at {} crosses a track boundary", lba
            );
            cur += *n as u64;
            total += *n as u64;
        }
        prop_assert_eq!(total, sectors as u64, "chunks must cover the run exactly");
    }

    /// RAID-0 striping is invisible to contents: the same write/read
    /// sequence reads back byte-identical on a plain single disk and on
    /// stripes of 1, 2, and 8 spindles with 8 KiB chunks (small chunks
    /// force multi-chunk scatter-gather splits on most requests).
    #[test]
    fn striping_is_byte_identical_to_single_disk(
        seed in 0u64..1_000_000,
        writes in prop::collection::vec((0u64..2_000, 1u32..40), 1..10),
    ) {
        fn run_once(seed: u64, writes: &[(u64, u32)], disks: Option<u32>) -> Vec<Vec<u8>> {
            let writes = writes.to_vec();
            let sim = Sim::new(seed);
            let h = sim.handle();
            let driver = match disks {
                None => sim_disk_driver(&h, "sd0", Box::new(Hp97560::new()), Box::new(CLook)),
                Some(n) => {
                    let models: Vec<Box<dyn DiskModel>> =
                        (0..n).map(|_| Box::new(Hp97560::new()) as Box<dyn DiskModel>).collect();
                    striped_sim_disk_driver(&h, "sp0", models, Box::new(CLook), 16)
                }
            };
            sim.block_on("stripe-prop", async move {
                for (i, (lba, sectors)) in writes.iter().enumerate() {
                    let tag = ((i * 17 + 3) % 251) as u8;
                    let bytes: Vec<u8> =
                        (0..*sectors as usize * 512).map(|j| tag ^ (j % 251) as u8).collect();
                    driver
                        .submit(IoOp::Write, *lba, *sectors, Payload::Data(bytes))
                        .await
                        .expect("write");
                }
                let mut read_back = Vec::new();
                for (lba, sectors) in &writes {
                    let (payload, _timing) = driver
                        .submit(IoOp::Read, *lba, *sectors, Payload::Simulated(0))
                        .await
                        .expect("read");
                    match payload {
                        Payload::Data(d) => read_back.push(d),
                        Payload::Simulated(_) => {
                            panic!("data-storing disk returned simulated bytes")
                        }
                    }
                }
                driver.shutdown();
                read_back
            })
        }
        let single = run_once(seed, &writes, None);
        for n in [1u32, 2, 8] {
            let striped = run_once(seed, &writes, Some(n));
            prop_assert_eq!(
                &single, &striped,
                "stripe count {} diverged from the single disk", n
            );
        }
    }

    /// Histogram quantiles are monotone and bounded by min/max.
    #[test]
    fn histogram_quantiles_monotone(
        samples in prop::collection::vec(0.0001f64..10_000.0, 1..300),
    ) {
        let mut h = Histogram::latency_default();
        for s in &samples {
            h.record(*s);
        }
        let qs: Vec<f64> = [0.0, 0.25, 0.5, 0.75, 0.9, 0.99, 1.0]
            .iter()
            .map(|q| h.quantile(*q))
            .collect();
        for w in qs.windows(2) {
            prop_assert!(w[0] <= w[1] + 1e-9, "quantiles not monotone: {qs:?}");
        }
        prop_assert!(h.cdf_at(1e12) > 0.999);
    }
}
