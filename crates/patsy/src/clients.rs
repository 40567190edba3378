//! The multi-client sweep: aggregate throughput, per-client latency,
//! and fairness as the closed-loop client count grows.
//!
//! This is the experiment the multi-client engine exists for: the same
//! seeded scenario family offered by 1, 4, 16, … concurrent clients,
//! all multiplexed onto one `FileSystem`. Each client is its own
//! simulated task with its own think time and namespace shard, so the
//! offered concurrency — and with it the driver queue the I/O
//! schedulers reorder — comes from genuinely independent request
//! streams, not from one client fanning out. Expect aggregate
//! throughput to rise with the client count until the disk saturates,
//! per-client p99 to stretch as queueing sets in, and fairness
//! (max/min per-client throughput) to stay near 1 — the shared engine
//! has no per-client scheduling, so starvation would be a bug.

use cnp_cache::CacheConfig;
use cnp_core::{DataMode, FsConfig};
use cnp_disk::{DiskGeometry, FaultPlan, Hp97560, Hp97560Params};
use cnp_fault::{LayoutKind, Policy, Stack};
use cnp_obs::Json;
use cnp_sim::{run_cells, Handle, LockStats, Sim};
use cnp_workload::{run_clients, RunOptions, Scenario, WorkloadKind, WorkloadReport};

use crate::cli::CliArgs;

/// Multi-client sweep configuration.
#[derive(Debug, Clone)]
pub struct ClientSweepConfig {
    /// Scenario family.
    pub workload: WorkloadKind,
    /// Client counts to sweep (one cell each).
    pub clients: Vec<u32>,
    /// Base seed; scenario and scheduler derive from it.
    pub seed: u64,
    /// Per-client operation scale (1.0 ≈ the nominal day).
    pub scale: f64,
    /// I/O pipeline depth (engine fan-out + device queue).
    pub queue_depth: u32,
    /// Storage layout.
    pub layout: LayoutKind,
    /// Flush policy.
    pub policy: Policy,
    /// Engine lock/table stripe count; `None` derives it per cell from
    /// the client count ([`derive_shards`]).
    pub shards: Option<u32>,
}

impl ClientSweepConfig {
    /// The default sweep: LFS under the UPS policy at the given depth.
    pub fn new(workload: WorkloadKind, clients: Vec<u32>, seed: u64, scale: f64) -> Self {
        ClientSweepConfig {
            workload,
            clients,
            seed,
            scale,
            queue_depth: 8,
            layout: LayoutKind::Lfs,
            policy: Policy::Ups,
            shards: None,
        }
    }
}

/// Default stripe count for an `n`-client cell: the next power of two,
/// capped at 64. Enough stripes that independent clients rarely collide
/// (the birthday bound at 64 stripes keeps pairwise collision per op
/// low), capped because stripes beyond the disk's concurrency only add
/// bookkeeping.
pub fn derive_shards(n: u32) -> u32 {
    n.next_power_of_two().min(64)
}

/// Sizes an `n`-client fleet: the disk geometry and the engine
/// configuration (cache, stripes). A pure function of its arguments, so
/// cells stay deterministic and replayable.
fn fleet_sizing(
    n: u32,
    policy: Policy,
    queue_depth: u32,
    shards: Option<u32>,
) -> (DiskGeometry, FsConfig) {
    // One published HP 97560 is ~1.3 GB — a 1024-client fleet's live
    // file set (≈4 MB/client plus LFS cleaning headroom) does not fit
    // on one 1992-era disk; a real deployment would stripe several.
    // Scale the cylinder count so per-client capacity matches the
    // 256-client cell; cells ≤ 256 keep the published geometry (and
    // with it their historical baselines, byte for byte).
    let geometry = Hp97560Params::default()
        .geometry
        .scale_cylinders(n.div_ceil(256).next_power_of_two().max(1));
    let (flush, nvram) = policy.cache_settings(8 * 1024 * 1024);
    // Server-sized cache, scaled with the fleet: the sweep studies
    // concurrency scaling, so every swept client count's hot set must
    // fit — a fixed 64 MB thrashes from ~64 clients up and the sweep
    // measures the cache, not the clients. 4 MB/client matches the
    // per-client footprint of the scenario generator; the 64 MB floor
    // keeps the small cells (and their historical baselines) unchanged.
    let mem_bytes = (64u64 << 20).max(n as u64 * (4 << 20));
    let cfg = FsConfig {
        cache: CacheConfig { block_size: 4096, mem_bytes, nvram_bytes: nvram },
        flush: flush.to_string(),
        queue_depth,
        data_mode: DataMode::Simulated,
        shards: shards.unwrap_or_else(|| derive_shards(n)),
        ..FsConfig::default()
    };
    (geometry, cfg)
}

/// The stack an `n`-client fleet runs on — shared by `sweep-clients`
/// and `serve-bench`, so the serving tier's overhead is measured
/// against the very stack the engine-level sweep uses.
pub(crate) fn fleet_stack(
    h: &Handle,
    name: &str,
    n: u32,
    layout: LayoutKind,
    policy: Policy,
    queue_depth: u32,
    shards: Option<u32>,
) -> Stack {
    let (geometry, cfg) = fleet_sizing(n, policy, queue_depth, shards);
    let disk = Hp97560::with_params(Hp97560Params { geometry, ..Hp97560Params::default() });
    Stack::build(h, name, layout, (vec![Box::new(disk)], None), cfg, FaultPlan::default())
}

/// One client-count cell's outcome.
#[derive(Debug, Clone)]
pub struct ClientCell {
    /// Concurrent clients in this cell.
    pub clients: u32,
    /// The full workload report (per-client rows included).
    pub report: WorkloadReport,
    /// Aggregate completed operations per second.
    pub agg_ops_per_sec: f64,
    /// Fairness: max/min per-client throughput (1.0 = perfectly fair).
    pub fairness: f64,
    /// Time-weighted mean driver queue length.
    pub mean_queue: f64,
    /// Time-weighted mean commands outstanding at the device.
    pub mean_inflight: f64,
    /// Fraction of device-busy time with ≥ 2 commands outstanding.
    pub overlap: f64,
    /// Per-client flush attribution `(client, blocks)` from the cache.
    pub flush_attr: Vec<(u32, u64)>,
    /// Engine lock contention, per lock family (`ns`, `layout`,
    /// `layout-range`), stripes rolled up.
    pub lock_stats: Vec<(&'static str, LockStats)>,
    /// Stripe count the cell ran with.
    pub shards: u32,
    /// The cell's unified metrics snapshot (captured just before
    /// shutdown).
    pub metrics: cnp_obs::MetricsSnapshot,
}

impl ClientCell {
    /// Total simulated milliseconds spent waiting on engine locks.
    pub fn lock_wait_ms(&self) -> f64 {
        self.lock_stats.iter().map(|(_, s)| s.wait.as_millis_f64()).sum()
    }

    /// Total simulated milliseconds engine locks were held.
    pub fn lock_hold_ms(&self) -> f64 {
        self.lock_stats.iter().map(|(_, s)| s.hold.as_millis_f64()).sum()
    }

    /// Total contended acquisitions across every engine lock.
    pub fn lock_contentions(&self) -> u64 {
        self.lock_stats.iter().map(|(_, s)| s.contentions).sum()
    }
}

/// Runs one cell: `n` clients of the configured scenario on a fresh
/// stack. Deterministic in `(cfg, n)`.
pub fn run_client_cell(cfg: &ClientSweepConfig, n: u32) -> ClientCell {
    // Each cell gets its own derived seed so cells are independent yet
    // replayable; the scenario itself uses the base seed so per-client
    // programs are identical across cells.
    let sim = Sim::new(cfg.seed.wrapping_mul(0x9e37_79b9_7f4a_7c15).wrapping_add(n as u64));
    let h = sim.handle();
    let Stack { fs, driver, .. } =
        fleet_stack(&h, &format!("mc{n}"), n, cfg.layout, cfg.policy, cfg.queue_depth, cfg.shards);
    let shards = fs.shards();
    let scenario = Scenario::generate(cfg.workload, n, cfg.seed, cfg.scale);
    let (report, flush_attr, lock_stats, metrics) = sim.block_on("client-sweep", async move {
        fs.format().await.expect("format");
        let report = run_clients(&h, &fs, &scenario, RunOptions::default()).await;
        fs.sync().await.expect("sync");
        let out = (report, fs.flushes_by_client(), fs.lock_stats(), fs.metrics());
        fs.shutdown();
        out
    });
    let d = driver.stats();
    ClientCell {
        clients: n,
        agg_ops_per_sec: report.aggregate_ops_per_sec(),
        fairness: report.fairness(),
        mean_queue: d.mean_queue_len,
        mean_inflight: d.mean_inflight,
        overlap: d.overlap_fraction,
        flush_attr,
        lock_stats,
        shards,
        metrics,
        report,
    }
}

/// Runs the whole sweep across `threads` host threads, one cell per
/// configured client count.
pub fn run_client_sweep(cfg: &ClientSweepConfig, threads: usize) -> Vec<ClientCell> {
    run_cells(&cfg.clients, threads, |&n| run_client_cell(cfg, n))
}

/// Formats the sweep as the CLI report (stable bytes: the determinism
/// tests compare them).
pub fn format_client_sweep(cfg: &ClientSweepConfig, cells: &[ClientCell]) -> String {
    let mut s = String::new();
    s.push_str(&format!(
        "== Multi-client sweep: workload {} | layout {} | policy {} | qd {} | seed {} | scale {} ==\n",
        cfg.workload.name(),
        cfg.layout.name(),
        cfg.policy.label(),
        cfg.queue_depth,
        cfg.seed,
        cfg.scale,
    ));
    s.push_str(&format!(
        "{:>7} {:>6} {:>8} {:>5} {:>9} {:>9} {:>10} {:>6} {:>6} {:>6} {:>6} {:>9} {:>9} {:>14}\n",
        "clients",
        "shards",
        "ops",
        "err",
        "mean-ms",
        "p99-ms",
        "agg-ops/s",
        "fair",
        "qmean",
        "infl",
        "ovl%",
        "lockw-ms",
        "lockh-ms",
        "flush max/min",
    ));
    for c in cells {
        // Attribution spread over *all* cell clients — a client that
        // never flushed counts as 0, so the min reports the real
        // spread. Engine-internal metadata flushes carry the
        // UNATTRIBUTED tag and are excluded.
        let mut by_client = vec![0u64; c.clients as usize];
        for &(id, n) in &c.flush_attr {
            if id != cnp_cache::UNATTRIBUTED && (id as usize) < by_client.len() {
                by_client[id as usize] = n;
            }
        }
        let (fmax, fmin) = (
            by_client.iter().copied().max().unwrap_or(0),
            by_client.iter().copied().min().unwrap_or(0),
        );
        s.push_str(&format!(
            "{:>7} {:>6} {:>8} {:>5} {:>9.3} {:>9.3} {:>10.1} {:>6.2} {:>6.2} {:>6.2} {:>6.1} \
             {:>9.1} {:>9.1} {:>14}\n",
            c.clients,
            c.shards,
            c.report.ops,
            c.report.errors,
            c.report.mean_ms(),
            c.report.p99_ms(),
            c.agg_ops_per_sec,
            c.fairness,
            c.mean_queue,
            c.mean_inflight,
            c.overlap * 100.0,
            c.lock_wait_ms(),
            c.lock_hold_ms(),
            format!("{fmax}/{fmin}"),
        ));
    }
    s.push_str(
        "\nReading the table: agg-ops/s should climb with the client count while\n\
         the disk has headroom (the closed loop offers more concurrency), p99\n\
         stretches as queueing sets in, and fair(max/min per-client ops/s)\n\
         staying near 1.00 means no client starves on the shared engine.\n\
         lockw-ms/lockh-ms total the simulated time clients spent waiting on\n\
         vs holding the engine's striped locks — wait growing faster than the\n\
         client count means a stripe (or the layout core) is saturating.\n",
    );
    s
}

/// Formats the sweep as a JSON document (stable bytes, like the table:
/// two identical runs emit identical JSON).
pub fn format_client_sweep_json(cfg: &ClientSweepConfig, cells: &[ClientCell]) -> String {
    let cell = |c: &ClientCell| {
        let lock = |(name, ls): &(&str, LockStats)| {
            Json::line([
                ("name", (*name).into()),
                ("acquisitions", ls.acquisitions.into()),
                ("contentions", ls.contentions.into()),
                ("wait_ms", ls.wait.as_millis_f64().into()),
                ("hold_ms", ls.hold.as_millis_f64().into()),
                ("max_wait_ms", ls.max_wait.as_millis_f64().into()),
            ])
        };
        Json::block([
            ("clients", c.clients.into()),
            ("shards", c.shards.into()),
            ("ops", c.report.ops.into()),
            ("errors", c.report.errors.into()),
            ("mean_ms", c.report.mean_ms().into()),
            ("p99_ms", c.report.p99_ms().into()),
            ("agg_ops_per_sec", c.agg_ops_per_sec.into()),
            ("fairness", c.fairness.into()),
            ("mean_queue", c.mean_queue.into()),
            ("mean_inflight", c.mean_inflight.into()),
            ("overlap", c.overlap.into()),
            ("lock_wait_ms", c.lock_wait_ms().into()),
            ("lock_hold_ms", c.lock_hold_ms().into()),
            ("lock_contentions", c.lock_contentions().into()),
            ("locks", Json::Rows(c.lock_stats.iter().map(lock).collect())),
            ("metrics", (&c.metrics).into()),
        ])
    };
    Json::block([
        ("workload", cfg.workload.name().into()),
        ("layout", cfg.layout.name().into()),
        ("policy", cfg.policy.label().into()),
        ("queue_depth", cfg.queue_depth.into()),
        ("seed", cfg.seed.into()),
        ("scale", Json::Exact(cfg.scale)),
        ("cells", Json::Rows(cells.iter().map(cell).collect())),
    ])
    .document()
}

/// CLI entry: runs the sweep and prints the report.
pub fn sweep_clients_cli(a: &CliArgs) {
    // Client cells are numerous and closed-loop; the default
    // full-figure scale would run minutes per cell. The sweep
    // defaults to qd 8 — the depth where client count separates
    // the schedulers — while everything else defaults to depth 1.
    let clients = a.clients.clone().unwrap_or_else(|| vec![1, 4, 16]);
    let mut cfg = ClientSweepConfig::new(a.workload, clients, a.seed, a.scale.unwrap_or(0.02));
    cfg.queue_depth = a.qd.unwrap_or(8);
    cfg.shards = a.shards;
    cfg.layout = a.layout.unwrap_or(cfg.layout);
    cfg.policy = a.policy.unwrap_or(cfg.policy);
    let cells = run_client_sweep(&cfg, a.threads());
    if a.json {
        print!("{}", format_client_sweep_json(&cfg, &cells));
    } else {
        print!("{}", format_client_sweep(&cfg, &cells));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::serve::{run_serve_cell, ServeBenchConfig};
    use cnp_disk::DiskModel;

    /// `sweep-clients` and `serve-bench` size a fleet in one place, so
    /// at the same `n` both cells see the same capacity, cache and
    /// stripes. (The 256- and 1024-client cells themselves are too slow
    /// for a debug-build test; a small one shows both run on the sizing.)
    #[test]
    fn client_and_serve_cells_share_the_fleet_sizing() {
        let base = Hp97560::new().geometry().capacity_sectors();
        for (n, factor) in [(256u32, 1u64), (1024, 4)] {
            let (geometry, cfg) = fleet_sizing(n, Policy::Ups, 8, None);
            assert_eq!(geometry.capacity_sectors(), base * factor, "{n} clients");
            assert_eq!(cfg.cache.mem_bytes, n as u64 * (4 << 20), "{n} clients");
            assert_eq!(cfg.shards, 64, "{n} clients");
        }
        let (n, workload) = (8, WorkloadKind::Zipf);
        let shards = fleet_sizing(n, Policy::Ups, 8, None).1.shards;
        let client = run_client_cell(&ClientSweepConfig::new(workload, vec![n], 42, 0.002), n);
        let serve = run_serve_cell(&ServeBenchConfig::new(workload, vec![n], 42, 0.002), n);
        assert_eq!((client.shards, serve.shards), (shards, shards));
        assert_eq!((client.report.errors, serve.errors), (0, 0));
    }

    #[test]
    #[should_panic(expected = "overflows u32")]
    fn oversized_fleet_geometry_panics_instead_of_wrapping() {
        fleet_sizing(u32::MAX, Policy::Ups, 8, None);
    }
}
