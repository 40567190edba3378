//! The write-saving experiment harness (§5.1).
//!
//! "We are performing four different experiments with the Sprite traces
//! to analyze the performance effects of these write-saving policies":
//! the 30-second write-delay baseline, the UPS extreme, and the two
//! 4 MB-NVRAM flush variants (whole-file and partial-file).

use cnp_cache::CacheConfig;
use cnp_core::{DataMode, FileSystem, FsConfig};
use cnp_disk::{compose_device, DiskDriver, DiskOpts, FaultPlan, Hardware, ScsiBus};
use cnp_fault::{LayoutKind, Policy};
use cnp_layout::{FfsLayout, FfsParams, Layout, LfsLayout, LfsParams};
use cnp_obs::Histogram;
use cnp_sim::Sim;
use cnp_trace::{preset, replay, ReplayOptions, ReplayReport, SpriteParams, SyntheticSprite};

use std::cell::RefCell;
use std::rc::Rc;

use crate::cli::CliArgs;

/// One experiment run's configuration.
#[derive(Debug, Clone)]
pub struct ExperimentConfig {
    /// Flush policy under test.
    pub policy: Policy,
    /// Workload personality.
    pub trace: SpriteParams,
    /// Fraction of the 24-hour trace to generate (e.g. 0.05 ≈ 72 min).
    pub scale: f64,
    /// RNG seed (scheduler + workload).
    pub seed: u64,
    /// Cache memory per file system.
    pub mem_bytes: u64,
    /// NVRAM size for the NVRAM policies.
    pub nvram_bytes: u64,
    /// Disable the disk's immediate-report + read-ahead cache (A4).
    pub no_disk_cache: bool,
    /// I/O pipeline depth (engine fan-out + device queue depth); 1 keeps
    /// one command at the device at a time.
    pub queue_depth: u32,
    /// Storage layout (default LFS, the paper's production choice).
    /// FFS's update-in-place placement scatters writes, which is what
    /// gives position-aware disk schedulers a queue worth reordering.
    pub layout: LayoutKind,
    /// The hardware behind each file system. A single mechanical disk
    /// sits on the shared-bus topology; flash and every RAID-0 child get
    /// a dedicated bus. `simple` is ablation A1.
    pub hw: Hardware,
}

/// File systems per experiment, each with its own disk, all on one
/// SCSI-2 bus; clients spread round-robin.
const FILESYSTEMS: u32 = 2;

impl ExperimentConfig {
    /// The paper-shaped default: 8 MB cache (LRU) and 4 MB NVRAM per
    /// file system, C-LOOK, detailed disk model.
    pub fn new(policy: Policy, trace: SpriteParams) -> Self {
        ExperimentConfig {
            policy,
            trace,
            scale: 0.05,
            seed: 0x5912e,
            mem_bytes: 8 * 1024 * 1024,
            nvram_bytes: 4 * 1024 * 1024,
            no_disk_cache: false,
            queue_depth: 1,
            layout: LayoutKind::Lfs,
            hw: Hardware::default(),
        }
    }
}

/// Aggregated outcome of one experiment run.
#[derive(Debug, Clone)]
pub struct ExperimentResult {
    /// Label (policy).
    pub policy: Policy,
    /// Trace name.
    pub trace: &'static str,
    /// Merged replay measurements.
    pub report: ReplayReport,
    /// Cache hit rate across file systems.
    pub hit_rate: f64,
    /// Fraction of dirtied blocks absorbed before any disk write.
    pub absorption: f64,
    /// Writer stalls on the NVRAM bound.
    pub nvram_stalls: u64,
    /// Blocks flushed to disk.
    pub blocks_flushed: u64,
    /// Mean and max driver queue lengths (averaged over disks).
    pub mean_queue: f64,
    /// Max queue length over all disks.
    pub max_queue: f64,
    /// Time-weighted mean commands outstanding at the device (averaged
    /// over disks).
    pub mean_inflight: f64,
    /// Fraction of device-busy time with >= 2 commands outstanding
    /// (averaged over disks).
    pub overlap: f64,
    /// Mean device service time (ms) over every completed request.
    pub mean_service_ms: f64,
    /// Unified metrics rolled up across file systems (counters summed,
    /// `layout.*` among them; rate gauges recomputed from the summed
    /// counters where they have a cross-system meaning).
    pub metrics: cnp_obs::MetricsSnapshot,
}

/// Runs one experiment to completion on a fresh virtual-time simulation.
pub fn run_experiment(cfg: &ExperimentConfig) -> ExperimentResult {
    let sim = Sim::new(cfg.seed);
    let h = sim.handle();

    // Topology: one shared bus, one disk + driver + LFS + engine per FS.
    let bus = ScsiBus::new(&h);
    let mut systems: Vec<FileSystem> = Vec::new();
    let mut drivers: Vec<DiskDriver> = Vec::new();
    for i in 0..FILESYSTEMS {
        let models = cfg.hw.models();
        // A single mechanical disk joins the shared SCSI-2 topology, and
        // A4 turns its controller cache off; flash and stripes keep the
        // composer's per-model bus and options.
        let attach = (models.len() == 1 && models[0].channels() <= 1).then(|| {
            let cached = !cfg.no_disk_cache;
            let scsi_id = 1 + i as u8;
            let opts = DiskOpts { scsi_id, readahead: cached, immediate_report: cached };
            (bus.clone(), opts)
        });
        let chunk = cfg.hw.chunk_sectors();
        let plan = FaultPlan::default();
        let sched = Box::new(cnp_disk::CLook);
        let (driver, _) =
            compose_device(&h, &format!("d{i}"), models, chunk, sched, plan, None, attach);
        drivers.push(driver.clone());
        // Not `LayoutKind::build`: the figures' FFS keeps the default
        // inode table, not the crash rigs' small one.
        let layout = match cfg.layout {
            LayoutKind::Ffs => Layout::Ffs(FfsLayout::new(&h, driver, FfsParams::default())),
            LayoutKind::Lfs => Layout::Lfs(LfsLayout::new(&h, driver, LfsParams::default())),
        };
        let (flush, nvram) = cfg.policy.cache_settings(cfg.nvram_bytes);
        let fs_cfg = FsConfig {
            cache: CacheConfig { block_size: 4096, mem_bytes: cfg.mem_bytes, nvram_bytes: nvram },
            flush: flush.to_string(),
            queue_depth: cfg.queue_depth,
            data_mode: DataMode::Simulated,
            ..FsConfig::default()
        };
        systems.push(FileSystem::new(&h, layout, fs_cfg));
    }

    // Generate the workload and split clients round-robin over systems.
    let mut gen = SyntheticSprite::new(cfg.trace.clone(), cfg.seed ^ 0xabcd);
    let records = gen.generate(cfg.scale);
    let mut per_fs: Vec<Vec<cnp_trace::TraceRecord>> = vec![Vec::new(); FILESYSTEMS as usize];
    for r in records {
        per_fs[(r.client % FILESYSTEMS) as usize].push(r);
    }

    let reports: Rc<RefCell<Vec<ReplayReport>>> = Rc::new(RefCell::new(Vec::new()));
    for (fs, recs) in systems.iter().cloned().zip(per_fs) {
        let h2 = h.clone();
        let reports = reports.clone();
        h.spawn("experiment", async move {
            fs.format().await.expect("format");
            let report = replay(&h2, &fs, recs, ReplayOptions::default()).await;
            let _ = fs.sync().await;
            reports.borrow_mut().push(report);
            fs.shutdown();
        });
    }
    sim.run_until(Sim::HORIZON);

    // Merge measurements across file systems.
    let mut reports = reports.borrow_mut();
    assert_eq!(reports.len(), FILESYSTEMS as usize, "an experiment task did not finish");
    let mut merged = reports.remove(0);
    for r in reports.drain(..) {
        merged.latency.merge(&r.latency);
        merged.read_latency.merge(&r.read_latency);
        merged.write_latency.merge(&r.write_latency);
        merged.ops += r.ops;
        merged.errors += r.errors;
    }
    let mut metrics = cnp_obs::MetricsSnapshot::new();
    for fs in &systems {
        metrics.absorb("", &fs.metrics());
    }
    let mut mean_queue = 0.0;
    let mut max_queue: f64 = 0.0;
    let mut mean_inflight = 0.0;
    let mut overlap = 0.0;
    let mut service = Histogram::latency_default();
    for d in &drivers {
        let s = d.stats();
        mean_queue += s.mean_queue_len;
        max_queue = max_queue.max(s.max_queue_len);
        mean_inflight += s.mean_inflight;
        overlap += s.overlap_fraction;
        service.merge(&s.service_time);
    }
    mean_queue /= drivers.len() as f64;
    mean_inflight /= drivers.len() as f64;
    overlap /= drivers.len() as f64;

    // Rates lose their meaning under keep-last absorption; recompute
    // the cross-system ones from the summed counters.
    let ratio = |num: u64, den: u64| if den == 0 { 0.0 } else { num as f64 / den as f64 };
    let hits = metrics.counter_value("cache.hits");
    let hit_rate = ratio(hits, hits + metrics.counter_value("cache.misses"));
    metrics.gauge("cache.hit_rate", hit_rate);
    metrics.gauge("disk.mean_queue_len", mean_queue);
    metrics.gauge("disk.mean_inflight", mean_inflight);
    metrics.gauge("disk.overlap_fraction", overlap);
    metrics.histogram("op.latency_ms", &merged.latency);
    metrics.histogram("op.read_latency_ms", &merged.read_latency);
    metrics.histogram("op.write_latency_ms", &merged.write_latency);

    ExperimentResult {
        policy: cfg.policy,
        trace: cfg.trace.name,
        report: merged,
        hit_rate,
        absorption: ratio(
            metrics.counter_value("cache.absorbed"),
            metrics.counter_value("cache.dirtied"),
        ),
        nvram_stalls: metrics.counter_value("cache.nvram_stalls"),
        blocks_flushed: metrics.counter_value("fs.blocks_flushed"),
        mean_queue,
        max_queue,
        mean_inflight,
        overlap,
        mean_service_ms: service.mean(),
        metrics,
    }
}

/// One experiment with full detail (the `run` subcommand). With
/// `--trace-out`, a virtual-time span tracer is installed for the run
/// and the resulting Chrome trace_event JSON is written to that path
/// (load it in Perfetto; one lane per client plus one per disk).
pub fn run_one(a: &CliArgs) {
    let policy = a.policy.unwrap_or(Policy::Ups);
    let trace = preset(&a.trace).expect("--trace validated by parse_cli");
    // Scale 0.05 and queue depth 1 unless asked: the figures' defaults.
    let mut cfg = ExperimentConfig::new(policy, trace);
    cfg.scale = a.scale.unwrap_or(cfg.scale);
    cfg.seed = a.seed;
    cfg.queue_depth = a.qd.unwrap_or(cfg.queue_depth);
    if let Some(layout) = a.layout {
        cfg.layout = layout;
    }
    cfg.hw = a.hw;
    let (trace_name, trace_out, hw) = (&a.trace, a.trace_out.as_deref(), &a.hw);
    let tracer = trace_out.map(|_| cnp_obs::trace::Tracer::default());
    let guard = tracer.as_ref().map(cnp_obs::trace::install);
    let r = run_experiment(&cfg);
    drop(guard);
    let layout = cfg.layout.name();
    if hw.is_default() {
        println!("trace {trace_name} policy {} layout {layout}", policy.label());
    } else {
        println!(
            "trace {trace_name} policy {} layout {layout} disk {}",
            policy.label(),
            hw.label()
        );
    }
    println!("  ops {} errors {}", r.report.ops, r.report.errors);
    for e in &r.report.error_sample {
        println!("    sample error: {e}");
    }
    println!(
        "  latency mean {:.3} ms  p50 {:.3}  p90 {:.3}  p99 {:.3}",
        r.report.latency.mean(),
        r.report.latency.quantile(0.5),
        r.report.latency.quantile(0.9),
        r.report.latency.quantile(0.99)
    );
    println!(
        "  reads mean {:.3} ms, writes mean {:.3} ms",
        r.report.read_latency.mean(),
        r.report.write_latency.mean()
    );
    println!(
        "  cache hit {:.1}%  absorption {:.1}%  nvram stalls {}",
        r.hit_rate * 100.0,
        r.absorption * 100.0,
        r.nvram_stalls
    );
    println!(
        "  flushed {} blocks, queue mean {:.2} max {:.0}",
        r.blocks_flushed, r.mean_queue, r.max_queue
    );
    println!(
        "  device: mean in-flight {:.2}, overlap {:.1}%, mean service {:.3} ms",
        r.mean_inflight,
        r.overlap * 100.0,
        r.mean_service_ms
    );
    let count = |name| r.metrics.counter_value(name);
    println!(
        "  layout: {} segments written, {} cleaned, {} ckpts",
        count("layout.segments_written"),
        count("layout.segments_cleaned"),
        count("layout.checkpoints")
    );
    println!("  15-minute intervals:");
    for row in &r.report.intervals {
        println!(
            "    t={:>6}s ops={:<7} mean={:.3} ms max={:.1} ms",
            row.start.as_millis() / 1000,
            row.count,
            row.mean,
            row.max
        );
    }
    println!("  metrics:");
    for line in r.metrics.to_table().lines() {
        println!("    {line}");
    }
    if let (Some(path), Some(tracer)) = (trace_out, &tracer) {
        let json = cnp_obs::chrome::to_chrome_json(tracer);
        match std::fs::write(path, json) {
            Ok(()) => println!("  trace: {} events -> {path}", tracer.event_count()),
            Err(e) => {
                eprintln!("failed to write {path}: {e}");
                std::process::exit(1);
            }
        }
    }
}
