//! The queue-depth × I/O-scheduler sweep.
//!
//! This is the experiment the pipelined I/O path exists for: the same
//! trace-derived request stream, replayed closed-loop against the
//! scheduled driver with a fixed number of requests outstanding. At
//! queue depth 1 the device never sees a queue and every scheduler
//! degenerates to FCFS order; from depth ~8 the position-aware policies
//! (SSTF/SCAN/C-LOOK) measurably beat FCFS on mean service time.
//!
//! Placement follows the paper's *educated guess* model (§2): each file
//! named by the trace gets a sticky random home on the disk, so the
//! request stream is scattered the way a real aged file system's is —
//! exactly the workload shape disk schedulers were invented for.

use std::cell::RefCell;
use std::collections::HashMap;
use std::rc::Rc;
use std::sync::Arc;

use cnp_disk::{compose_device, scheduler_by_name, DiskDriver, FaultPlan, Hardware, IoOp, Payload};
use cnp_obs::Json;
use cnp_sim::{run_cells, Handle, Sim};
use cnp_trace::{preset, SyntheticSprite, TraceOp};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::cli::CliArgs;

/// One disk request derived from a trace record.
pub type BlockReq = (IoOp, u64, u32); // (op, lba, sectors)

/// Sectors per 4 KB file-system block on a 512-byte-sector disk.
const SECTORS_PER_BLOCK: u32 = 8;

/// Largest per-request transfer the footprint generator emits (blocks).
const MAX_RUN_BLOCKS: u64 = 16;

/// The scheduled driver over `hw`, fault-free.
fn build_driver(hw: &Hardware, h: &Handle, name: &str, sched_name: &str) -> DiskDriver {
    let sched = scheduler_by_name(sched_name).expect("known scheduler");
    let (models, chunk, plan) = (hw.models(), hw.chunk_sectors(), FaultPlan::default());
    compose_device(h, name, models, chunk, sched, plan, None, None).0
}

/// Derives the block-level footprint of a trace: every read/write
/// becomes a request at the file's sticky random home (sim-guess
/// placement), deterministically from `seed`.
pub fn trace_footprint(
    trace_name: &str,
    scale: f64,
    seed: u64,
    capacity_sectors: u64,
) -> Vec<BlockReq> {
    let params = preset(trace_name).expect("known trace");
    let records = SyntheticSprite::new(params, seed ^ 0xabcd).generate(scale);
    let mut rng = StdRng::seed_from_u64(seed ^ 0x0f00d);
    let mut homes: HashMap<Arc<str>, u64> = HashMap::new();
    // A request can start at block offset 64*MAX_RUN_BLOCKS - 1 past the
    // home and still transfer MAX_RUN_BLOCKS blocks; reserve the full
    // reach so no request can run past the last sector.
    let max_file_sectors = (64 * MAX_RUN_BLOCKS + MAX_RUN_BLOCKS) * SECTORS_PER_BLOCK as u64;
    let span = capacity_sectors.saturating_sub(max_file_sectors).max(1);
    let mut out = Vec::new();
    for r in records {
        let (op, path, offset, len) = match &r.op {
            TraceOp::Read { path, offset, len } => (IoOp::Read, path, *offset, *len),
            TraceOp::Write { path, offset, len } => (IoOp::Write, path, *offset, *len),
            _ => continue,
        };
        if len == 0 {
            continue;
        }
        let home = *homes.entry(path.clone()).or_insert_with(|| {
            rng.gen_range(0..span) / SECTORS_PER_BLOCK as u64 * SECTORS_PER_BLOCK as u64
        });
        let first_blk = offset / 4096;
        let nblocks = len.div_ceil(4096).min(MAX_RUN_BLOCKS);
        let lba = home + (first_blk % (64 * MAX_RUN_BLOCKS)) * SECTORS_PER_BLOCK as u64;
        out.push((op, lba, nblocks as u32 * SECTORS_PER_BLOCK));
    }
    out
}

/// Outcome of one (scheduler, depth) cell.
#[derive(Debug, Clone, Copy)]
pub struct QdCell {
    /// Mean device service time (ms).
    pub mean_service_ms: f64,
    /// Mean end-to-end request latency (ms): queue + service.
    pub mean_latency_ms: f64,
    /// Virtual completion time of the whole stream (ms).
    pub makespan_ms: f64,
    /// Time-weighted mean driver queue length.
    pub mean_queue: f64,
    /// Fraction of device-busy time with >= 2 commands outstanding.
    pub overlap: f64,
}

/// Replays `reqs` closed-loop at `depth` outstanding requests against
/// `hw` behind a driver scheduled by `sched_name`. Deterministic in
/// (reqs, seed).
pub fn run_depth_cell(
    reqs: &[BlockReq],
    sched_name: &str,
    depth: u32,
    seed: u64,
    hw: &Hardware,
) -> QdCell {
    let sim = Sim::new(seed);
    let h = sim.handle();
    let driver = build_driver(hw, &h, "qd0", sched_name);
    // Mirror the engine's wiring: the device keeps its native command
    // count (two for the mechanical generation — bus/mechanics overlap —
    // 64+ across a flash device's channels); the rest of the window
    // waits in the scheduled driver queue.
    driver.set_max_inflight(depth.min(driver.native_depth()));
    let queue: Rc<RefCell<std::collections::VecDeque<BlockReq>>> =
        Rc::new(RefCell::new(reqs.iter().copied().collect()));
    let latency_ns: Rc<RefCell<(u128, u64)>> = Rc::new(RefCell::new((0, 0)));
    for w in 0..depth.max(1) {
        let d = driver.clone();
        let q = queue.clone();
        let h2 = h.clone();
        let lat = latency_ns.clone();
        h.spawn(&format!("qd-worker{w}"), async move {
            loop {
                let next = q.borrow_mut().pop_front();
                let Some((op, lba, sectors)) = next else { break };
                let t0 = h2.now();
                let payload = Payload::Simulated(sectors * 512);
                // A healthy disk must serve every in-bounds request; a
                // silent drop here would skew the sweep's means.
                d.submit(op, lba, sectors, payload)
                    .await
                    .unwrap_or_else(|e| panic!("sweep request at lba {lba} failed: {e}"));
                let mut l = lat.borrow_mut();
                l.0 += (h2.now() - t0).as_nanos() as u128;
                l.1 += 1;
            }
        });
    }
    sim.run_until(Sim::HORIZON);
    let stats = driver.stats();
    let (total_ns, count) = *latency_ns.borrow();
    QdCell {
        mean_service_ms: stats.service_time.mean(),
        mean_latency_ms: if count == 0 { 0.0 } else { total_ns as f64 / count as f64 / 1e6 },
        makespan_ms: sim.now().as_nanos() as f64 / 1e6,
        mean_queue: stats.mean_queue_len,
        overlap: stats.overlap_fraction,
    }
}

/// The schedulers the sweep visits, in reporting order.
pub const SWEEP_SCHEDS: [&str; 4] = ["fcfs", "sstf", "scan", "c-look"];

/// One throwaway sim to learn the configured disk's capacity.
fn probe_capacity(hw: &Hardware) -> u64 {
    let sim = Sim::new(0);
    let d = build_driver(hw, &sim.handle(), "probe", "fcfs");
    let c = d.capacity_sectors();
    d.shutdown();
    sim.run();
    c
}

/// Runs the whole sweep on `hw` across `threads` host threads: one row
/// per scheduler, one [`QdCell`] per depth in [`Hardware::depths`].
/// Deterministic in (trace, scale, seed).
pub fn run_qd_sweep(
    trace_name: &str,
    scale: f64,
    seed: u64,
    hw: &Hardware,
    threads: usize,
) -> Vec<(&'static str, Vec<QdCell>)> {
    let reqs = trace_footprint(trace_name, scale, seed, probe_capacity(hw));
    let depths = hw.depths();
    let specs: Vec<(&str, u32)> =
        SWEEP_SCHEDS.iter().flat_map(|&sched| depths.iter().map(move |&d| (sched, d))).collect();
    let cells = run_cells(&specs, threads, |&(sched, d)| run_depth_cell(&reqs, sched, d, seed, hw));
    SWEEP_SCHEDS.iter().copied().zip(cells.chunks(depths.len()).map(<[QdCell]>::to_vec)).collect()
}

/// Formats the sweep as the CLI table (stable bytes). The default
/// hardware's bytes are identical to every historical sweep; any other
/// names itself in the banner.
pub fn format_qd_sweep(
    trace_name: &str,
    scale: f64,
    seed: u64,
    requests: usize,
    rows: &[(&'static str, Vec<QdCell>)],
    hw: &Hardware,
) -> String {
    let mut s = String::new();
    if hw.is_default() {
        s.push_str(&format!(
            "== Queue-depth sweep, trace {trace_name} ({requests} requests, sim-guess placement) ==\n"
        ));
    } else {
        s.push_str(&format!(
            "== Queue-depth sweep, trace {trace_name} on {} ({requests} requests, sim-guess placement) ==\n",
            hw.label()
        ));
    }
    s.push_str(&format!(
        "   (scale {scale}; seed {seed}; closed-loop; cells: service-mean ms / makespan s / mean queue)\n"
    ));
    s.push_str(&format!("{:<8}", "sched"));
    for &d in hw.depths() {
        s.push_str(&format!("{:>22}", format!("qd={d}")));
    }
    s.push('\n');
    for (sched, cells) in rows {
        s.push_str(&format!("{sched:<8}"));
        for c in cells {
            s.push_str(&format!(
                "{:>22}",
                format!(
                    "{:.2} / {:.0}s / q\u{0304}{:.1}",
                    c.mean_service_ms,
                    c.makespan_ms / 1000.0,
                    c.mean_queue,
                )
            ));
        }
        s.push('\n');
    }
    s.push('\n');
    if hw.disk == "ssd" {
        s.push_str("Reading the table: the flash device has no arm to position, so\n");
        s.push_str("the rows should (near-)coincide at every depth — seek-order\n");
        s.push_str("scheduling buys nothing when seeks are free. What deepening the\n");
        s.push_str("queue buys instead is channel overlap: makespan keeps falling\n");
        s.push_str("past the mechanical generation's qd-2 ceiling.\n");
    } else {
        s.push_str("Reading the table: within a column (fixed depth), a lower service\n");
        s.push_str("mean / makespan is a better scheduler. At qd=1 the rows coincide —\n");
        s.push_str("with no queue every policy serves in arrival order; the spread\n");
        s.push_str("opens as the outstanding set deepens and the position-aware\n");
        s.push_str("policies (SSTF/SCAN) pull ahead of FCFS.\n");
    }
    s
}

/// Formats the sweep as a JSON document (stable bytes). The default
/// hardware's bytes are identical to every historical sweep; any other
/// adds `disk`/`disks`/`chunk_kib` keys.
pub fn format_qd_sweep_json(
    trace_name: &str,
    scale: f64,
    seed: u64,
    requests: usize,
    rows: &[(&'static str, Vec<QdCell>)],
    hw: &Hardware,
) -> String {
    let depths = hw.depths();
    let cell = |(c, &qd): (&QdCell, &u32)| {
        Json::line([
            ("qd", qd.into()),
            ("mean_service_ms", c.mean_service_ms.into()),
            ("mean_latency_ms", c.mean_latency_ms.into()),
            ("makespan_ms", c.makespan_ms.into()),
            ("mean_queue", c.mean_queue.into()),
            ("overlap", c.overlap.into()),
        ])
    };
    let row = |(sched, cells): &(&str, Vec<QdCell>)| {
        Json::block([
            ("sched", (*sched).into()),
            ("cells", Json::Rows(cells.iter().zip(depths).map(cell).collect())),
        ])
    };
    let mut doc =
        vec![("trace", trace_name.into()), ("scale", Json::Exact(scale)), ("seed", seed.into())];
    if !hw.is_default() {
        doc.extend([
            ("disk", hw.disk.into()),
            ("disks", hw.disks.into()),
            ("chunk_kib", hw.chunk_kib.into()),
        ]);
    }
    doc.extend([
        ("requests", requests.into()),
        ("depths", Json::List(depths.iter().map(|&d| d.into()).collect())),
        ("rows", Json::Rows(rows.iter().map(row).collect())),
    ]);
    Json::block(doc).document()
}

/// CLI entry: runs the sweep on `--disk`/`--disks` and prints the table
/// (or JSON).
pub fn sweep_queue_depth(a: &CliArgs) {
    let (trace_name, scale, seed, hw) = (a.trace.as_str(), a.scale.unwrap_or(0.05), a.seed, &a.hw);
    // The request count in the banner comes from the same deterministic
    // footprint the cells replay; regenerate it cheaply for the header.
    let requests = trace_footprint(trace_name, scale, seed, probe_capacity(hw)).len();
    let rows = run_qd_sweep(trace_name, scale, seed, hw, a.threads());
    if a.json {
        print!("{}", format_qd_sweep_json(trace_name, scale, seed, requests, &rows, hw));
    } else {
        print!("{}", format_qd_sweep(trace_name, scale, seed, requests, &rows, hw));
    }
}
