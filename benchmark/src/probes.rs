//! Host probes: each layer's public API driven alone and timed with
//! `Instant`, because the end-to-end entry points are single blocking
//! calls whose inside the harness cannot split by layer. A probe is a
//! fixed amount of work, so its number depends on the code and the
//! host, not on the workload; inputs come from the run's seed. Every
//! figure is host nanoseconds (or milliseconds) per call, the fastest
//! of [`BATCHES`] batches: a shared host only ever adds time.

use std::cell::RefCell;
use std::collections::VecDeque;
use std::future::Future;
use std::hint::black_box;
use std::rc::Rc;
use std::time::Instant;

use cnp_cache::{flush_by_name, BlockCache, BlockKey, CacheConfig, FileId, Lru, Reserve};
use cnp_check::{
    run_cell, run_check_with, run_history_check, CellCache, CellSpec, CheckConfig, CheckOptions,
    CutSpec, HistoryCheckConfig, LinConfig,
};
use cnp_core::{FileSystem, FsConfig};
use cnp_disk::{
    sim_disk_driver, striped_sim_disk_driver, CLook, DiskModel, Hp97560, Payload, SimpleDisk, Ssd,
};
use cnp_fault::LayoutKind;
use cnp_layout::{FileKind, StorageLayout, MAX_FILE_BLOCKS};
use cnp_patsy::qdsweep::BlockReq;
use cnp_patsy::trace_footprint;
use cnp_pfs::{client, decode_request, Fhandle, NfsProc, NfsServer, XdrDecoder, XdrEncoder};
use cnp_sim::{channel, Handle, Sim, SimDuration, SimTime, TrackedMutex};
use cnp_trace::{bounded_prefix, trace_1a, SyntheticSprite};
use cnp_workload::{Scenario, WorkloadKind};

/// Batches per probe; the reported figure is the fastest.
const BATCHES: usize = 5;

/// Driver queue depth of the disk probes (the fleet workloads' depth).
const DISK_DEPTH: u32 = 8;

fn fastest(samples: impl IntoIterator<Item = f64>) -> f64 {
    samples.into_iter().fold(f64::INFINITY, f64::min)
}

fn fastest_of(mut batch: impl FnMut() -> f64) -> f64 {
    fastest((0..BATCHES).map(|_| batch()))
}

fn ns_per(t0: Instant, calls: u64) -> f64 {
    t0.elapsed().as_nanos() as f64 / calls as f64
}

fn run_to_quiescence(sim: &Sim) {
    sim.run_until(SimTime::from_nanos(u64::MAX / 2));
}

/// Runs `make(handle)` as a task of a fresh simulation and returns its
/// output once the simulation has nothing left to do.
fn in_sim<T: 'static, F: Future<Output = T> + 'static>(
    seed: u64,
    make: impl FnOnce(Handle) -> F,
) -> T {
    let sim = Sim::new(seed);
    let out = Rc::new(RefCell::new(None));
    let out2 = out.clone();
    let fut = make(sim.handle());
    sim.handle().spawn("probe", async move {
        *out2.borrow_mut() = Some(fut.await);
    });
    run_to_quiescence(&sim);
    let v = out.borrow_mut().take();
    v.expect("probe task did not finish")
}

// ---------------------------------------------------------------- sim

/// Channel round trip between two tasks.
pub fn sim_pingpong_ns() -> f64 {
    const ROUNDS: u64 = 50_000;
    fastest_of(|| {
        let sim = Sim::new(1);
        let h = sim.handle();
        let (to_b, from_a) = channel::<u64>(&h);
        let (to_a, from_b) = channel::<u64>(&h);
        h.spawn("ping", async move {
            for i in 0..ROUNDS {
                to_b.send(i).await.expect("pong is alive");
                from_b.recv().await.expect("pong replies");
            }
        });
        h.spawn("pong", async move {
            while let Some(v) = from_a.recv().await {
                if to_a.send(v).await.is_err() {
                    break;
                }
            }
        });
        let t0 = Instant::now();
        run_to_quiescence(&sim);
        ns_per(t0, ROUNDS)
    })
}

/// One timer sleep, 256 staggered sleepers.
fn sim_timer_ns() -> f64 {
    const TASKS: u64 = 256;
    const SLEEPS: u64 = 200;
    fastest_of(|| {
        let sim = Sim::new(2);
        let h = sim.handle();
        for t in 0..TASKS {
            let h2 = h.clone();
            h.spawn("sleeper", async move {
                for _ in 0..SLEEPS {
                    h2.sleep(SimDuration::from_nanos(1_000 + t * 7)).await;
                }
            });
        }
        let t0 = Instant::now();
        run_to_quiescence(&sim);
        ns_per(t0, TASKS * SLEEPS)
    })
}

/// One contended `TrackedMutex` hand-off, 256 tasks on one lock. The
/// holder yields inside the critical section so every other task queues.
fn sim_mutex_handoff_ns() -> f64 {
    const TASKS: u64 = 256;
    const LOCKS: u64 = 100;
    fastest_of(|| {
        let sim = Sim::new(3);
        let h = sim.handle();
        let m = TrackedMutex::new(&h, 0u64);
        for _ in 0..TASKS {
            let (m, h2) = (m.clone(), h.clone());
            h.spawn("locker", async move {
                for _ in 0..LOCKS {
                    let g = m.lock().await;
                    g.with_mut(|v| *v += 1);
                    h2.yield_now().await;
                }
            });
        }
        let t0 = Instant::now();
        run_to_quiescence(&sim);
        let per = ns_per(t0, TASKS * LOCKS);
        assert_eq!(m.stats().acquisitions, TASKS * LOCKS);
        per
    })
}

/// Spawn + join of one trivial task.
fn sim_spawn_ns() -> f64 {
    const SPAWNS: u64 = 50_000;
    fastest_of(|| {
        let sim = Sim::new(4);
        let h = sim.handle();
        let h2 = h.clone();
        h.spawn("spawner", async move {
            for i in 0..SPAWNS {
                h2.spawn("leaf", async move {
                    black_box(i);
                })
                .await;
            }
        });
        let t0 = Instant::now();
        run_to_quiescence(&sim);
        ns_per(t0, SPAWNS)
    })
}

// --------------------------------------------------------------- disk

/// The block-level footprint of a trace-1a slice, placed within
/// `model`'s capacity.
pub fn disk_footprint(seed: u64, model: &dyn DiskModel) -> Vec<BlockReq> {
    trace_footprint("1a", 0.02, seed, model.geometry().capacity_sectors())
}

/// Host ns per request: `reqs` replayed closed-loop at [`DISK_DEPTH`]
/// through the scheduled driver (C-LOOK) over `models` — one disk, or a
/// RAID-0 stripe of several. `disk.hp97560 - disk.simple` isolates the
/// model's cost from the driver's.
pub fn disk_ns_per_req(reqs: &[BlockReq], make: &dyn Fn() -> Vec<Box<dyn DiskModel>>) -> f64 {
    fastest_of(|| {
        let sim = Sim::new(5);
        let h = sim.handle();
        let mut models = make();
        let driver = if models.len() == 1 {
            sim_disk_driver(&h, "probe", models.remove(0), Box::new(CLook))
        } else {
            striped_sim_disk_driver(&h, "probe", models, Box::new(CLook), 128)
        };
        driver.set_max_inflight(DISK_DEPTH.min(driver.native_depth()));
        let queue: Rc<RefCell<VecDeque<BlockReq>>> =
            Rc::new(RefCell::new(reqs.iter().copied().collect()));
        for _ in 0..DISK_DEPTH {
            let (d, q) = (driver.clone(), queue.clone());
            h.spawn("probe-worker", async move {
                loop {
                    let next = q.borrow_mut().pop_front();
                    let Some((op, lba, sectors)) = next else { break };
                    d.submit(op, lba, sectors, Payload::Simulated(sectors * 512))
                        .await
                        .expect("a healthy disk serves every in-bounds request");
                }
            });
        }
        let t0 = Instant::now();
        run_to_quiescence(&sim);
        let per = ns_per(t0, reqs.len() as u64);
        assert_eq!(driver.stats().completed, reqs.len() as u64);
        per
    })
}

fn disk_probes(seed: u64, out: &mut Vec<(&'static str, f64)>) {
    let simple = disk_footprint(seed, &SimpleDisk::new());
    let hp = disk_footprint(seed, &Hp97560::new());
    let ssd = disk_footprint(seed, &Ssd::new());
    out.push((
        "disk.simple_ns_per_req",
        disk_ns_per_req(&simple, &|| vec![Box::new(SimpleDisk::new())]),
    ));
    out.push(("disk.hp97560_ns_per_req", disk_ns_per_req(&hp, &|| vec![Box::new(Hp97560::new())])));
    out.push(("disk.ssd_ns_per_req", disk_ns_per_req(&ssd, &|| vec![Box::new(Ssd::new())])));
    out.push((
        "disk.striped4_ns_per_req",
        disk_ns_per_req(&hp, &|| {
            (0..4).map(|_| Box::new(Hp97560::new()) as Box<dyn DiskModel>).collect()
        }),
    ));
}

// -------------------------------------------------------------- cache

fn block_cache(frames: u64) -> BlockCache {
    let cfg = CacheConfig { block_size: 4096, mem_bytes: frames * 4096, nvram_bytes: None };
    let n = cfg.frames();
    BlockCache::new(cfg, Box::new(Lru::new(n)), flush_by_name("ups").expect("known policy"))
}

fn key(i: u64) -> BlockKey {
    BlockKey::new(FileId(i / 64), i % 64)
}

fn fill(c: &mut BlockCache, i: u64, now: SimTime) {
    match c.reserve() {
        Reserve::Frame(f) => c.commit(f, key(i), None, now),
        Reserve::NeedFlush(_) => panic!("a clean cache never needs a flush to make room"),
    }
}

fn cache_probes(out: &mut Vec<(&'static str, f64)>) {
    const FRAMES: u64 = 4096;
    let now = SimTime::from_nanos(1);
    // `lookup` hit on a resident block.
    out.push((
        "cache.hit_ns",
        fastest_of(|| {
            const CALLS: u64 = 400_000;
            let mut c = block_cache(FRAMES);
            (0..FRAMES).for_each(|i| fill(&mut c, i, now));
            let t0 = Instant::now();
            for i in 0..CALLS {
                black_box(c.lookup(key(i % FRAMES), now));
            }
            let per = ns_per(t0, CALLS);
            assert_eq!(c.stats().hits, CALLS);
            per
        }),
    ));
    // Miss on a full cache: `lookup` miss, `reserve` (evicting the LRU
    // clean block), `commit`.
    out.push((
        "cache.miss_fill_ns",
        fastest_of(|| {
            const CALLS: u64 = 200_000;
            let mut c = block_cache(FRAMES);
            (0..FRAMES).for_each(|i| fill(&mut c, i, now));
            let t0 = Instant::now();
            for i in FRAMES..FRAMES + CALLS {
                black_box(c.lookup(key(i), now));
                fill(&mut c, i, now);
            }
            let per = ns_per(t0, CALLS);
            assert_eq!(c.stats().evictions, CALLS);
            per
        }),
    ));
    // One block's write-back cycle: `mark_dirty`, `begin_flush`,
    // `end_flush`.
    out.push((
        "cache.dirty_flush_ns",
        fastest_of(|| {
            const CALLS: u64 = 200_000;
            let mut c = block_cache(FRAMES);
            (0..FRAMES).for_each(|i| fill(&mut c, i, now));
            let t0 = Instant::now();
            for i in 0..CALLS {
                let k = key(i % FRAMES);
                black_box(c.mark_dirty(k, now));
                black_box(c.begin_flush(&[k]));
                c.end_flush(k, now);
            }
            let per = ns_per(t0, CALLS);
            assert_eq!(c.stats().flushes, CALLS);
            per
        }),
    ));
}

// ------------------------------------------------------------- layout

/// Files written per layout probe, each [`MAX_FILE_BLOCKS`]-ish long.
const LAYOUT_FILES: u64 = 24;
const LAYOUT_FILE_BLOCKS: u64 = 512;
const LAYOUT_RUN: u64 = 16;

/// `(write ns per block, read ns per block)` for one layout kind on the
/// naive disk, through the `StorageLayout` trait alone: files written
/// in 16-block runs, synced, then read back block by block.
fn layout_ns_per_block(kind: LayoutKind) -> (f64, f64) {
    const { assert!(LAYOUT_FILE_BLOCKS <= MAX_FILE_BLOCKS) };
    let mut writes = Vec::new();
    let mut reads = Vec::new();
    for _ in 0..BATCHES {
        let (w, r) = in_sim(6, |h| async move {
            let driver = sim_disk_driver(&h, "probe", Box::new(SimpleDisk::new()), Box::new(CLook));
            let mut layout = kind.build(&h, driver.clone());
            layout.format().await.expect("format");
            let blocks = LAYOUT_FILES * LAYOUT_FILE_BLOCKS;
            let mut inodes = Vec::new();
            let t0 = Instant::now();
            for _ in 0..LAYOUT_FILES {
                let mut inode = layout.alloc_ino(FileKind::Regular, 0).expect("inode");
                inode.size = LAYOUT_FILE_BLOCKS * 4096;
                for start in (0..LAYOUT_FILE_BLOCKS).step_by(LAYOUT_RUN as usize) {
                    let run = (start..start + LAYOUT_RUN)
                        .map(|b| (b, Payload::Simulated(4096)))
                        .collect();
                    layout.write_file_blocks(&mut inode, run).await.expect("write");
                }
                inodes.push(inode);
            }
            layout.sync().await.expect("sync");
            let w = ns_per(t0, blocks);
            let t0 = Instant::now();
            for inode in &inodes {
                for b in 0..LAYOUT_FILE_BLOCKS {
                    let got = layout.read_file_block(inode, b).await.expect("read");
                    assert!(got.is_some(), "a written block reads back");
                }
            }
            let r = ns_per(t0, blocks);
            driver.shutdown();
            (w, r)
        });
        writes.push(w);
        reads.push(r);
    }
    (fastest(writes), fastest(reads))
}

fn layout_probes(out: &mut Vec<(&'static str, f64)>) {
    let (lfs_w, lfs_r) = layout_ns_per_block(LayoutKind::Lfs);
    let (ffs_w, _) = layout_ns_per_block(LayoutKind::Ffs);
    out.push(("layout.lfs_write_ns_per_block", lfs_w));
    out.push(("layout.ffs_write_ns_per_block", ffs_w));
    out.push(("layout.lfs_read_ns_per_block", lfs_r));
}

// --------------------------------------------------------------- core

/// One engine over LFS on the naive disk, cache large enough that the
/// probes never evict, UPS policy so nothing flushes on a timer.
fn probe_fs(h: &Handle) -> FileSystem {
    let driver = sim_disk_driver(h, "probe", Box::new(SimpleDisk::new()), Box::new(CLook));
    let cfg = FsConfig {
        cache: CacheConfig { block_size: 4096, mem_bytes: 64 << 20, nvram_bytes: None },
        flush: "ups".to_string(),
        queue_depth: 8,
        ..FsConfig::default()
    };
    FileSystem::new(h, LayoutKind::Lfs.build(h, driver), cfg)
}

/// One `ClientFs`, warm cache: 4 KiB read hit, 4 KiB overwrite, `stat`,
/// and a create+unlink pair, each host ns per call.
fn core_probes(out: &mut Vec<(&'static str, f64)>) {
    const CALLS: u64 = 20_000;
    const FILE_BLOCKS: u64 = 256;
    let mut samples: [Vec<f64>; 4] = Default::default();
    for _ in 0..BATCHES {
        let batch = in_sim(7, |h| async move {
            let fs = probe_fs(&h);
            fs.format().await.expect("format");
            let c = fs.client(0);
            c.mkdir("/p").await.expect("mkdir");
            let ino = c.create("/p/hot", FileKind::Regular).await.expect("create");
            c.write(ino, 0, FILE_BLOCKS * 4096, None).await.expect("fill");
            let t0 = Instant::now();
            for i in 0..CALLS {
                black_box(c.read(ino, (i % FILE_BLOCKS) * 4096, 4096).await.expect("read"));
            }
            let read = ns_per(t0, CALLS);
            let t0 = Instant::now();
            for i in 0..CALLS {
                black_box(c.write(ino, (i % FILE_BLOCKS) * 4096, 4096, None).await.expect("write"));
            }
            let write = ns_per(t0, CALLS);
            let t0 = Instant::now();
            for _ in 0..CALLS {
                black_box(c.stat("/p/hot").await.expect("stat"));
            }
            let stat = ns_per(t0, CALLS);
            let pairs = CALLS / 10;
            let t0 = Instant::now();
            for _ in 0..pairs {
                c.create("/p/tmp", FileKind::Regular).await.expect("create");
                c.unlink("/p/tmp").await.expect("unlink");
            }
            let create_unlink = ns_per(t0, pairs);
            assert_eq!(fs.cache_stats().evictions, 0, "the probe cache must not evict");
            fs.shutdown();
            [read, write, stat, create_unlink]
        });
        for (s, v) in samples.iter_mut().zip(batch) {
            s.push(v);
        }
    }
    let names = ["core.read_hit_ns", "core.write_ns", "core.stat_ns", "core.create_unlink_ns"];
    for (name, s) in names.into_iter().zip(&samples) {
        out.push((name, fastest(s.iter().copied())));
    }
}

// --------------------------------------------------- trace + workload

fn input_probes(seed: u64, out: &mut Vec<(&'static str, f64)>) {
    out.push((
        "trace.gen_ns_per_record",
        fastest_of(|| {
            let t0 = Instant::now();
            let records = SyntheticSprite::new(trace_1a(), seed ^ 0xabcd).generate(0.02);
            ns_per(t0, black_box(records).len() as u64)
        }),
    ));
    let zipf = WorkloadKind::parse("zipf").expect("zipf is a known workload");
    out.push((
        "workload.gen_ns_per_op",
        fastest_of(|| {
            let t0 = Instant::now();
            let scenario = Scenario::generate(zipf, 64, seed, 0.05);
            ns_per(t0, black_box(scenario).total_ops())
        }),
    ));
}

// ---------------------------------------------------------------- pfs

/// The request mix of the serve workload's clients, one of each per
/// round: lookup, getattr and read by handle, a 4 KiB write by handle,
/// a truncate, and the path-based create/stat/remove.
fn request_mix() -> Vec<Vec<u8>> {
    let fh = Fhandle { ino: 42, gen: 7 };
    let data = vec![0xa5u8; 4096];
    vec![
        client::path_req(NfsProc::Lookup, "/w3/f17"),
        client::getattr_fh_req(fh),
        client::read_fh_req(fh, 8192, 4096),
        client::write_fh_req(fh, 8192, &data),
        client::setattr_fh_req(fh, 0),
        client::path_req(NfsProc::Create, "/w3/f18"),
        client::path_req(NfsProc::GetAttr, "/w3/f17"),
        client::path_req(NfsProc::Remove, "/w3/f18"),
    ]
}

fn null_req() -> Vec<u8> {
    let mut e = XdrEncoder::new();
    e.put_u32(NfsProc::Null as u32);
    e.finish()
}

/// The status word and, for a Lookup reply, the handle behind it.
fn lookup_fh(reply: &[u8]) -> Fhandle {
    let mut d = XdrDecoder::new(reply);
    assert_eq!(d.get_u32().expect("status"), 0, "lookup failed");
    let ino = d.get_u64().expect("ino");
    let (_kind, _size, _mtime) =
        (d.get_u32().expect("kind"), d.get_u64().expect("size"), d.get_u64().expect("mtime"));
    Fhandle { ino, gen: d.get_u32().expect("gen") }
}

fn pfs_probes(out: &mut Vec<(&'static str, f64)>) {
    const ROUNDS: u64 = 20_000;
    let mix = request_mix();
    out.push((
        "pfs.xdr_encode_ns",
        fastest_of(|| {
            let t0 = Instant::now();
            for _ in 0..ROUNDS {
                black_box(request_mix());
            }
            ns_per(t0, ROUNDS * mix.len() as u64)
        }),
    ));
    out.push((
        "pfs.xdr_decode_ns",
        fastest_of(|| {
            let t0 = Instant::now();
            for _ in 0..ROUNDS {
                for req in &mix {
                    black_box(decode_request(black_box(req)).expect("well-formed"));
                }
            }
            ns_per(t0, ROUNDS * mix.len() as u64)
        }),
    ));
    // One session on a warm server: the decode+admit+dispatch+encode
    // floor (Null), the two cache-hit paths, and 4 KiB data ops.
    const CALLS: u64 = 20_000;
    let mut samples: [Vec<f64>; 5] = Default::default();
    for _ in 0..BATCHES {
        let batch = in_sim(8, |h| async move {
            let fs = probe_fs(&h);
            fs.format().await.expect("format");
            let srv = NfsServer::new(fs.clone());
            let s = srv.session(0);
            let ok = |reply: Vec<u8>| {
                assert_eq!(XdrDecoder::new(&reply).get_u32().expect("status"), 0, "request failed");
            };
            ok(s.handle(&client::path_req(NfsProc::Mkdir, "/p")).await);
            ok(s.handle(&client::path_req(NfsProc::Create, "/p/hot")).await);
            let lookup = client::path_req(NfsProc::Lookup, "/p/hot");
            let fh = lookup_fh(&s.handle(&lookup).await);
            let block = vec![0x5au8; 4096];
            for b in 0..64 {
                ok(s.handle(&client::write_fh_req(fh, b * 4096, &block)).await);
            }
            let mut timed = Vec::new();
            let null = null_req();
            let getattr = client::getattr_fh_req(fh);
            for req in [&null, &getattr, &lookup] {
                let t0 = Instant::now();
                for _ in 0..CALLS {
                    black_box(s.handle(req).await);
                }
                timed.push(ns_per(t0, CALLS));
            }
            let t0 = Instant::now();
            for i in 0..CALLS {
                black_box(s.handle(&client::read_fh_req(fh, (i % 64) * 4096, 4096)).await);
            }
            timed.push(ns_per(t0, CALLS));
            let t0 = Instant::now();
            for i in 0..CALLS {
                black_box(s.handle(&client::write_fh_req(fh, (i % 64) * 4096, &block)).await);
            }
            timed.push(ns_per(t0, CALLS));
            let m = srv.metrics();
            assert_eq!(m.counter_value("serve.errors"), 0, "a probe request failed");
            fs.shutdown();
            timed
        });
        for (s, v) in samples.iter_mut().zip(batch) {
            s.push(v);
        }
    }
    let names = [
        "pfs.null_ns",
        "pfs.getattr_hit_ns",
        "pfs.lookup_hit_ns",
        "pfs.read_fh_ns",
        "pfs.write_fh_ns",
    ];
    for (name, s) in names.into_iter().zip(&samples) {
        out.push((name, fastest(s.iter().copied())));
    }
}

// -------------------------------------------------------------- check

fn check_probes(seed: u64, out: &mut Vec<(&'static str, f64)>) {
    let records = SyntheticSprite::new(trace_1a(), seed ^ 0xabcd).generate(0.002);
    let spec = CellSpec {
        layout: LayoutKind::Lfs,
        flush: "ups".to_string(),
        nvram_bytes: None,
        mem_bytes: 64 * 4096,
        queue_depth: 8,
        sim_seed: seed,
        plant_stale_size_bug: false,
    };
    let ms = |t0: Instant| t0.elapsed().as_secs_f64() * 1e3;
    // One boundary cell cut after k ops: the slope over k is the cost
    // of replaying the prefix from an empty disk.
    for (name, k) in
        [("check.cell_ms_k10", 10), ("check.cell_ms_k40", 40), ("check.cell_ms_k80", 80)]
    {
        let prefix = bounded_prefix(&records, k, &[]);
        out.push((
            name,
            fastest_of(|| {
                let t0 = Instant::now();
                let outcome = run_cell(&spec, &prefix, CutSpec::Graceful);
                assert!(black_box(outcome).clean(), "probe cell found a violation");
                ms(t0)
            }),
        ));
    }
    // A disk-level power cut on the same prefix: the arrival probe plus
    // the faulted run.
    let prefix = bounded_prefix(&records, 80, &[]);
    out.push((
        "check.retire_cell_ms_k80",
        fastest_of(|| {
            let t0 = Instant::now();
            black_box(run_cell(&spec, &prefix, CutSpec::PowerCut { retire: 0 }));
            ms(t0)
        }),
    ));
    // An unchanged enumeration against a filled in-memory cell cache.
    let mut cfg = CheckConfig::new(records, "1a", 16);
    cfg.seed = seed;
    cfg.queue_depth = 8;
    let mut cache = CellCache::new();
    let enumerate = |cache: &mut CellCache| {
        run_check_with(&cfg, CheckOptions { threads: 1, cache: Some(cache), progress: None })
    };
    let cold = enumerate(&mut cache);
    out.push((
        "check.warm_rerun_ms",
        fastest_of(|| {
            let t0 = Instant::now();
            let warm = enumerate(&mut cache);
            assert_eq!(warm.stats.cache_hits, cold.cells, "an unchanged rerun hits every cell");
            ms(t0)
        }),
    ));
    // The linearizability leg: record a 4-client history, search for a
    // sequential witness.
    let lin = HistoryCheckConfig {
        kind: WorkloadKind::parse("zipf").expect("zipf is a known workload"),
        clients: 4,
        seed,
        scale: 0.002,
        layout: LayoutKind::Lfs,
        queue_depth: 8,
        lin: LinConfig::default(),
    };
    out.push((
        "check.lin_ms",
        fastest_of(|| {
            let t0 = Instant::now();
            let report = run_history_check(&lin);
            assert!(report.outcome.is_linearizable(), "probe history is not linearizable");
            ms(t0)
        }),
    ));
}

/// Every host probe, in table order.
pub fn run_all(seed: u64) -> Vec<(&'static str, f64)> {
    let mut out = vec![
        ("sim.pingpong_ns", sim_pingpong_ns()),
        ("sim.timer_ns", sim_timer_ns()),
        ("sim.mutex_handoff_ns", sim_mutex_handoff_ns()),
        ("sim.spawn_ns", sim_spawn_ns()),
    ];
    disk_probes(seed, &mut out);
    cache_probes(&mut out);
    layout_probes(&mut out);
    core_probes(&mut out);
    input_probes(seed, &mut out);
    pfs_probes(&mut out);
    check_probes(seed, &mut out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use cnp_disk::{DiskGeometry, DiskPos, MediaAccess};

    /// A planted slowdown in exactly one layer: any disk model, with
    /// `burn_ns` of host time spun away in every `media_access`. Virtual
    /// results are untouched; only the host gets slower.
    struct SlowDisk<M: DiskModel> {
        inner: M,
        burn_ns: u64,
    }

    impl<M: DiskModel> DiskModel for SlowDisk<M> {
        fn geometry(&self) -> &DiskGeometry {
            self.inner.geometry()
        }
        fn controller_overhead(&self) -> SimDuration {
            self.inner.controller_overhead()
        }
        fn seek_time(&self, from_cyl: u32, to_cyl: u32) -> SimDuration {
            self.inner.seek_time(from_cyl, to_cyl)
        }
        fn head_switch_time(&self) -> SimDuration {
            self.inner.head_switch_time()
        }
        fn media_access(&self, now: SimTime, pos: DiskPos, lba: u64, sectors: u32) -> MediaAccess {
            let t0 = Instant::now();
            while (t0.elapsed().as_nanos() as u64) < self.burn_ns {
                std::hint::spin_loop();
            }
            self.inner.media_access(now, pos, lba, sectors)
        }
        fn native_depth(&self) -> u32 {
            self.inner.native_depth()
        }
        fn channels(&self) -> u32 {
            self.inner.channels()
        }
    }

    /// ROADMAP item 1's "exactly that layer's row turns red", shown from
    /// outside through the public trait: the disk row moves, the
    /// executor row does not.
    #[test]
    fn a_slowdown_planted_in_the_disk_model_moves_only_the_disk_row() {
        let reqs = disk_footprint(42, &Hp97560::new());
        let sim_before = sim_pingpong_ns();
        let base = disk_ns_per_req(&reqs, &|| vec![Box::new(Hp97560::new())]);
        // Burn as long per media access as a whole request costs now.
        let burn_ns = base as u64;
        let slow =
            disk_ns_per_req(&reqs, &|| vec![Box::new(SlowDisk { inner: Hp97560::new(), burn_ns })]);
        let sim_after = sim_pingpong_ns();
        assert!(slow >= 1.5 * base, "disk row moved only {base:.0} -> {slow:.0} ns/req");
        let drift = (sim_after - sim_before).abs() / sim_before;
        assert!(
            drift <= crate::spec::PROBE_BOUND,
            "sim row drifted {drift:.3} ({sim_before:.0} -> {sim_after:.0} ns)"
        );
    }
}
