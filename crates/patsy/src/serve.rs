//! The serving-tier benchmark: seeded NFS clients driven through the
//! full wire path.
//!
//! Where `sweep-clients` calls the engine's abstract client interface
//! directly, `serve-bench` puts the whole on-line stack in the loop:
//! every operation is XDR-encoded, dispatched through
//! [`cnp_pfs::NfsServer`] (sessions, file handles, admission batching,
//! the attribute/lookup cache), and XDR-decoded — so the numbers
//! include protocol overhead, cache hit rates, and the rsize/wsize
//! transfer caps, exactly what the engine-level sweep cannot see.
//!
//! Each simulated client behaves like a real NFS client: it looks a
//! path up once, keeps the returned file handle, and rides it for
//! reads/writes/truncates, chunking transfers into `rsize` pieces and
//! retrying once through a fresh Lookup when the server answers
//! `Stale` (the file was removed and its ino reincarnated).
//!
//! Everything is virtual-time deterministic: two runs of the same
//! seeded cell produce byte-identical reports.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;
use std::sync::Arc;

use cnp_fault::{LayoutKind, Policy};
use cnp_obs::Json;
use cnp_pfs::{client, Fhandle, NfsProc, NfsServer, NfsSession, NfsStat, ServeConfig, XdrDecoder};
use cnp_sim::{run_cells, Handle, Sim, SimDuration};
use cnp_trace::TraceOp;
use cnp_workload::{ClientPlan, Scenario, WorkloadKind};

use crate::cli::CliArgs;
use crate::clients::fleet_stack;

/// Default rsize/wsize (largest single wire transfer), matching the
/// serving tier's own default.
pub const DEFAULT_RSIZE: u64 = 64 * 1024;

/// Serve-bench configuration: one cell per client count.
#[derive(Debug, Clone)]
pub struct ServeBenchConfig {
    /// Scenario family.
    pub workload: WorkloadKind,
    /// Client counts to bench (one cell each).
    pub clients: Vec<u32>,
    /// Base seed; scenario and scheduler derive from it.
    pub seed: u64,
    /// Per-client operation scale (1.0 ≈ the nominal day).
    pub scale: f64,
    /// I/O pipeline depth — also the serving tier's admission width.
    pub queue_depth: u32,
    /// Storage layout.
    pub layout: LayoutKind,
    /// Flush policy.
    pub policy: Policy,
    /// Engine stripe count; `None` derives it per cell.
    pub shards: Option<u32>,
    /// Largest single wire transfer (NFS rsize/wsize).
    pub rsize: u64,
}

impl ServeBenchConfig {
    /// The default bench: LFS under UPS at depth 8, default rsize.
    pub fn new(workload: WorkloadKind, clients: Vec<u32>, seed: u64, scale: f64) -> Self {
        ServeBenchConfig {
            workload,
            clients,
            seed,
            scale,
            queue_depth: 8,
            layout: LayoutKind::Lfs,
            policy: Policy::Ups,
            shards: None,
            rsize: DEFAULT_RSIZE,
        }
    }
}

/// One serve-bench cell's outcome.
#[derive(Debug, Clone)]
pub struct ServeCell {
    /// Concurrent clients in this cell.
    pub clients: u32,
    /// Stripe count the cell ran with.
    pub shards: u32,
    /// Trace operations the clients executed.
    pub trace_ops: u64,
    /// Wire requests the server handled (includes retries).
    pub wire_requests: u64,
    /// Client-side stale-handle retries (remove + reincarnate races).
    pub stale_retries: u64,
    /// Stale replies the server issued.
    pub stale_replies: u64,
    /// Unexpected client-visible failures (tolerated NoEnt/Exist
    /// statuses excluded).
    pub errors: u64,
    /// Request bytes into the server.
    pub bytes_in: u64,
    /// Reply bytes out of the server.
    pub bytes_out: u64,
    /// Virtual makespan of the client phase (ms).
    pub makespan_ms: f64,
    /// Wire requests per virtual second.
    pub wire_ops_per_sec: f64,
    /// Lookup-cache hit rate (0..=1).
    pub lookup_hit_rate: f64,
    /// Attribute-cache hit rate (0..=1).
    pub attr_hit_rate: f64,
    /// The serving tier's full metrics snapshot.
    pub metrics: cnp_obs::MetricsSnapshot,
}

/// Per-client driver tallies, rolled up across the fleet.
#[derive(Debug, Clone, Copy, Default)]
struct DriverStats {
    trace_ops: u64,
    stale_retries: u64,
    errors: u64,
}

impl DriverStats {
    fn absorb(&mut self, o: DriverStats) {
        self.trace_ops += o.trace_ops;
        self.stale_retries += o.stale_retries;
        self.errors += o.errors;
    }
}

const OK: u32 = NfsStat::Ok as u32;
const NOENT: u32 = NfsStat::NoEnt as u32;
const EXIST: u32 = NfsStat::Exist as u32;
const STALE: u32 = NfsStat::Stale as u32;
const BADRPC: u32 = NfsStat::BadRpc as u32;

/// Issues one wire request and returns the reply's status word.
async fn wire(session: &NfsSession, req: &[u8]) -> u32 {
    let reply = session.handle(req).await;
    XdrDecoder::new(&reply).get_u32().unwrap_or(BADRPC)
}

/// Resolves `path` to a file handle the NFS way: consult the client's
/// own handle table, else Lookup; on NoEnt, Create (tolerating a lost
/// create race with one more Lookup). Returns `None` on a genuine
/// failure — the caller counts the error.
async fn ensure_fh(
    session: &NfsSession,
    fhs: &mut BTreeMap<Arc<str>, Fhandle>,
    path: &Arc<str>,
) -> Option<Fhandle> {
    if let Some(&fh) = fhs.get(path) {
        return Some(fh);
    }
    for attempt in 0..2 {
        let reply = session.handle(&client::path_req(NfsProc::Lookup, path)).await;
        let mut d = XdrDecoder::new(&reply);
        match d.get_u32().ok()? {
            OK => {
                let ino = d.get_u64().ok()?;
                let _kind = d.get_u32().ok()?;
                let _size = d.get_u64().ok()?;
                let _mtime = d.get_u64().ok()?;
                let gen = d.get_u32().ok()?;
                let fh = Fhandle { ino, gen };
                fhs.insert(path.clone(), fh);
                return Some(fh);
            }
            NOENT if attempt == 0 => {
                let reply = session.handle(&client::path_req(NfsProc::Create, path)).await;
                let mut d = XdrDecoder::new(&reply);
                match d.get_u32().ok()? {
                    OK => {
                        let ino = d.get_u64().ok()?;
                        let gen = d.get_u32().ok()?;
                        let fh = Fhandle { ino, gen };
                        fhs.insert(path.clone(), fh);
                        return Some(fh);
                    }
                    // Lost the create race: someone else made it.
                    // Loop back into the Lookup.
                    EXIST => {}
                    _ => return None,
                }
            }
            _ => return None,
        }
    }
    None
}

/// The stale-handle retry: a `Stale` reply retires `path`'s handle and
/// looks the path up again, once. `None` when that Lookup fails too,
/// which counts as the op's error.
async fn refresh_fh(
    session: &NfsSession,
    fhs: &mut BTreeMap<Arc<str>, Fhandle>,
    path: &Arc<str>,
    st: &mut DriverStats,
) -> Option<Fhandle> {
    st.stale_retries += 1;
    fhs.remove(path);
    let fh = ensure_fh(session, fhs, path).await;
    st.errors += fh.is_none() as u64;
    fh
}

/// Deterministic write payload byte for `(client, offset)`.
fn fill_byte(client: u32, offset: u64) -> u8 {
    ((client as u64).wrapping_mul(131).wrapping_add(offset) & 0xff) as u8
}

/// How many trace ops a client's dentry cache survives before it
/// expires (real NFS clients time name bindings out after seconds;
/// the closed loop's analogue is an op count). Each expiry forces
/// fresh Lookups, which the *server's* lookup cache then absorbs.
const DENTRY_EXPIRY_OPS: u32 = 64;

/// Drives one client program through the wire. Transfers are chunked
/// into `rsize` pieces; a `Stale` reply retires the local handle and
/// retries once through a fresh Lookup. Like a real NFS client it
/// revalidates attributes (GETATTR by handle) before reading through
/// a cached handle, and expires its dentry cache periodically.
async fn drive_client(h: Handle, session: NfsSession, plan: ClientPlan, rsize: u64) -> DriverStats {
    let mut st = DriverStats::default();
    let mut fhs: BTreeMap<Arc<str>, Fhandle> = BTreeMap::new();
    let mut since_expiry = 0u32;
    for cop in &plan.ops {
        if cop.think_ns > 0 {
            h.sleep(SimDuration::from_nanos(cop.think_ns)).await;
        }
        st.trace_ops += 1;
        since_expiry += 1;
        if since_expiry >= DENTRY_EXPIRY_OPS {
            since_expiry = 0;
            fhs.clear();
        }
        match &cop.op {
            TraceOp::Mkdir { path } => {
                let s = wire(&session, &client::path_req(NfsProc::Mkdir, path)).await;
                if s != OK && s != EXIST {
                    st.errors += 1;
                }
            }
            TraceOp::Open { path } => {
                if ensure_fh(&session, &mut fhs, path).await.is_none() {
                    st.errors += 1;
                }
            }
            // NFS is stateless: there is nothing to tell the server on
            // close, and the handle stays good for the next open.
            TraceOp::Close { .. } => {}
            TraceOp::Stat { path } => {
                let s = wire(&session, &client::path_req(NfsProc::GetAttr, path)).await;
                if s != OK && s != NOENT {
                    st.errors += 1;
                }
            }
            TraceOp::Delete { path } => {
                let s = wire(&session, &client::path_req(NfsProc::Remove, path)).await;
                fhs.remove(path);
                if s != OK && s != NOENT {
                    st.errors += 1;
                }
            }
            TraceOp::Truncate { path, size } => {
                let Some(fh) = ensure_fh(&session, &mut fhs, path).await else {
                    st.errors += 1;
                    continue;
                };
                let mut s = wire(&session, &client::setattr_fh_req(fh, *size)).await;
                if s == STALE {
                    let Some(fh) = refresh_fh(&session, &mut fhs, path, &mut st).await else {
                        continue;
                    };
                    s = wire(&session, &client::setattr_fh_req(fh, *size)).await;
                }
                if s != OK {
                    st.errors += 1;
                }
            }
            TraceOp::Read { path, offset, len } | TraceOp::Write { path, offset, len } => {
                let writing = matches!(cop.op, TraceOp::Write { .. });
                let Some(mut fh) = ensure_fh(&session, &mut fhs, path).await else {
                    st.errors += 1;
                    continue;
                };
                if !writing {
                    // Close-to-open consistency: revalidate the cached
                    // handle's attributes before reading through it —
                    // the GETATTR storm that makes real NFS servers
                    // grow attribute caches in the first place.
                    let s = wire(&session, &client::getattr_fh_req(fh)).await;
                    if s == STALE {
                        let Some(nfh) = refresh_fh(&session, &mut fhs, path, &mut st).await else {
                            continue;
                        };
                        fh = nfh;
                    } else if s != OK {
                        st.errors += 1;
                        continue;
                    }
                }
                let mut off = *offset;
                let mut left = *len;
                let mut retried = false;
                loop {
                    let chunk = left.min(rsize).max(1);
                    let req = if writing {
                        let data = vec![fill_byte(plan.client, off); chunk as usize];
                        client::write_fh_req(fh, off, &data)
                    } else {
                        client::read_fh_req(fh, off, chunk)
                    };
                    let s = wire(&session, &req).await;
                    if s == STALE && !retried {
                        retried = true;
                        let Some(nfh) = refresh_fh(&session, &mut fhs, path, &mut st).await else {
                            break;
                        };
                        fh = nfh;
                        continue;
                    }
                    if s != OK {
                        st.errors += 1;
                        break;
                    }
                    if left <= chunk {
                        break;
                    }
                    off += chunk;
                    left -= chunk;
                }
            }
        }
    }
    st
}

/// Runs one cell: `n` NFS clients of the configured scenario against a
/// fresh simulated stack, every op through the wire. Deterministic in
/// `(cfg, n)`.
pub fn run_serve_cell(cfg: &ServeBenchConfig, n: u32) -> ServeCell {
    // Derived seed, mixed differently from the engine-level sweep so
    // the two experiments' cells are independent yet both replayable.
    let sim =
        Sim::new(cfg.seed.wrapping_mul(0x9e37_79b9_7f4a_7c15).wrapping_add(n as u64) ^ 0x53_52_56);
    let h = sim.handle();
    // The engine-level client sweep's stack (see `run_client_cell`), so
    // serve-bench measures the serving tier's overhead, not a different
    // stack.
    let fs =
        fleet_stack(&h, &format!("srv{n}"), n, cfg.layout, cfg.policy, cfg.queue_depth, cfg.shards)
            .fs;
    let shards = fs.shards();
    let srv = NfsServer::with_config(
        fs.clone(),
        ServeConfig { max_transfer: cfg.rsize, ..ServeConfig::default() },
    );
    let scenario = Scenario::generate(cfg.workload, n, cfg.seed, cfg.scale);
    let rsize = cfg.rsize;
    let (totals, makespan, snap) = sim.block_on("serve-bench", async move {
        srv.fs().format().await.expect("format");
        let start = h.now();
        let totals = Rc::new(RefCell::new(DriverStats::default()));
        let mut joins = Vec::new();
        for plan in scenario.plans {
            let session = srv.session(plan.client);
            let h3 = h.clone();
            let totals = totals.clone();
            joins.push(h.spawn(&format!("nfs-client{}", plan.client), async move {
                let st = drive_client(h3, session, plan, rsize).await;
                totals.borrow_mut().absorb(st);
            }));
        }
        for jh in joins {
            jh.await;
        }
        let makespan = h.now() - start;
        srv.fs().sync().await.expect("sync");
        let snap = srv.metrics();
        srv.fs().shutdown();
        let totals = *totals.borrow();
        (totals, makespan, snap)
    });
    let wire_requests = snap.counter_value("serve.requests");
    let secs = makespan.as_nanos() as f64 / 1e9;
    let rate = |hits: u64, misses: u64| {
        if hits + misses == 0 {
            0.0
        } else {
            hits as f64 / (hits + misses) as f64
        }
    };
    ServeCell {
        clients: n,
        shards,
        trace_ops: totals.trace_ops,
        wire_requests,
        stale_retries: totals.stale_retries,
        stale_replies: snap.counter_value("serve.stale"),
        errors: totals.errors,
        bytes_in: snap.counter_value("serve.bytes_in"),
        bytes_out: snap.counter_value("serve.bytes_out"),
        makespan_ms: makespan.as_millis_f64(),
        wire_ops_per_sec: if secs == 0.0 { 0.0 } else { wire_requests as f64 / secs },
        lookup_hit_rate: rate(
            snap.counter_value("serve.lookup_cache.hits"),
            snap.counter_value("serve.lookup_cache.misses"),
        ),
        attr_hit_rate: rate(
            snap.counter_value("serve.attr_cache.hits"),
            snap.counter_value("serve.attr_cache.misses"),
        ),
        metrics: snap,
    }
}

/// Runs the whole bench across `threads` host threads, one cell per
/// configured client count.
pub fn run_serve_bench(cfg: &ServeBenchConfig, threads: usize) -> Vec<ServeCell> {
    run_cells(&cfg.clients, threads, |&n| run_serve_cell(cfg, n))
}

/// Formats the bench as the CLI report (stable bytes: the determinism
/// tests compare them).
pub fn format_serve_bench(cfg: &ServeBenchConfig, cells: &[ServeCell]) -> String {
    let mut s = String::new();
    s.push_str(&format!(
        "== Serve bench: workload {} | layout {} | policy {} | qd {} | rsize {} | seed {} | scale {} ==\n",
        cfg.workload.name(),
        cfg.layout.name(),
        cfg.policy.label(),
        cfg.queue_depth,
        cfg.rsize,
        cfg.seed,
        cfg.scale,
    ));
    s.push_str(&format!(
        "{:>7} {:>6} {:>9} {:>9} {:>5} {:>6} {:>6} {:>11} {:>11} {:>8} {:>8} {:>12} {:>12}\n",
        "clients",
        "shards",
        "ops",
        "wire",
        "err",
        "stale",
        "retry",
        "wire-ops/s",
        "mkspan-ms",
        "lkup-hit",
        "attr-hit",
        "bytes-in",
        "bytes-out",
    ));
    for c in cells {
        s.push_str(&format!(
            "{:>7} {:>6} {:>9} {:>9} {:>5} {:>6} {:>6} {:>11.1} {:>11.1} {:>8.3} {:>8.3} \
             {:>12} {:>12}\n",
            c.clients,
            c.shards,
            c.trace_ops,
            c.wire_requests,
            c.errors,
            c.stale_replies,
            c.stale_retries,
            c.wire_ops_per_sec,
            c.makespan_ms,
            c.lookup_hit_rate,
            c.attr_hit_rate,
            c.bytes_in,
            c.bytes_out,
        ));
    }
    s.push_str(
        "\nReading the table: wire > ops because transfers are chunked into rsize\n\
         pieces and Lookup/Create handshakes ride the wire too. lkup-hit and\n\
         attr-hit are the serving tier's cache hit rates — high lkup-hit means\n\
         \"Lookup happens once\" is working; stale counts the server's ESTALE\n\
         replies and retry the clients' recovery handshakes (both nonzero only\n\
         when deletes race reuse). err must be 0: every other status is a bug\n\
         in the serving tier, not the workload.\n",
    );
    s
}

/// Formats the bench as a JSON document (stable bytes).
pub fn format_serve_bench_json(cfg: &ServeBenchConfig, cells: &[ServeCell]) -> String {
    let cell = |c: &ServeCell| {
        Json::block([
            ("clients", c.clients.into()),
            ("shards", c.shards.into()),
            ("trace_ops", c.trace_ops.into()),
            ("wire_requests", c.wire_requests.into()),
            ("errors", c.errors.into()),
            ("stale_replies", c.stale_replies.into()),
            ("stale_retries", c.stale_retries.into()),
            ("wire_ops_per_sec", c.wire_ops_per_sec.into()),
            ("makespan_ms", c.makespan_ms.into()),
            ("lookup_hit_rate", c.lookup_hit_rate.into()),
            ("attr_hit_rate", c.attr_hit_rate.into()),
            ("bytes_in", c.bytes_in.into()),
            ("bytes_out", c.bytes_out.into()),
            ("metrics", (&c.metrics).into()),
        ])
    };
    Json::block([
        ("workload", cfg.workload.name().into()),
        ("layout", cfg.layout.name().into()),
        ("policy", cfg.policy.label().into()),
        ("queue_depth", cfg.queue_depth.into()),
        ("rsize", cfg.rsize.into()),
        ("seed", cfg.seed.into()),
        ("scale", Json::Exact(cfg.scale)),
        ("cells", Json::Rows(cells.iter().map(cell).collect())),
    ])
    .document()
}

/// CLI entry: runs the bench and prints the report.
pub fn serve_bench_cli(a: &CliArgs) {
    // Same sizing logic as sweep-clients: wire cells are closed-loop
    // and numerous, so they default to the sweep's small scale and its
    // depth-8 pipeline.
    let clients = a.clients.clone().unwrap_or_else(|| vec![1, 4, 16]);
    let mut cfg = ServeBenchConfig::new(a.workload, clients, a.seed, a.scale.unwrap_or(0.02));
    cfg.queue_depth = a.qd.unwrap_or(8);
    cfg.shards = a.shards;
    cfg.rsize = a.rsize;
    cfg.layout = a.layout.unwrap_or(cfg.layout);
    cfg.policy = a.policy.unwrap_or(cfg.policy);
    let cells = run_serve_bench(&cfg, a.threads());
    if a.json {
        print!("{}", format_serve_bench_json(&cfg, &cells));
    } else {
        print!("{}", format_serve_bench(&cfg, &cells));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_cfg() -> ServeBenchConfig {
        let workload = WorkloadKind::parse("zipf").expect("zipf is a known workload");
        let mut cfg = ServeBenchConfig::new(workload, vec![4], 47, 0.01);
        cfg.queue_depth = 4;
        cfg
    }

    #[test]
    fn serve_cell_is_clean_and_cached() {
        let cfg = small_cfg();
        let c = run_serve_cell(&cfg, 4);
        assert_eq!(c.errors, 0, "every non-tolerated status is a serving-tier bug");
        assert!(c.trace_ops > 0);
        assert!(c.wire_requests >= c.trace_ops, "chunking and handshakes add wire traffic");
        assert!(
            c.lookup_hit_rate > 0.2,
            "expired dentries must be re-resolved from the server's lookup cache (got {})",
            c.lookup_hit_rate
        );
        assert!(
            c.attr_hit_rate > 0.3,
            "read revalidation must mostly hit the attr cache (got {})",
            c.attr_hit_rate
        );
        assert!(c.wire_ops_per_sec > 0.0);
        assert!(c.bytes_in > 0 && c.bytes_out > 0);
    }

    #[test]
    fn serve_bench_is_deterministic() {
        let cfg = small_cfg();
        let a = format_serve_bench_json(&cfg, &run_serve_bench(&cfg, 1));
        let b = format_serve_bench_json(&cfg, &run_serve_bench(&cfg, 1));
        assert_eq!(a, b, "two seeded runs must produce byte-identical reports");
    }

    #[test]
    fn rsize_changes_wire_chunking() {
        let mut cfg = small_cfg();
        cfg.rsize = 4096;
        let small = run_serve_cell(&cfg, 2);
        cfg.rsize = 1 << 20;
        let big = run_serve_cell(&cfg, 2);
        assert!(
            small.wire_requests > big.wire_requests,
            "a smaller rsize must cost more wire round trips ({} vs {})",
            small.wire_requests,
            big.wire_requests
        );
        assert_eq!(small.errors, 0);
        assert_eq!(big.errors, 0);
    }
}
