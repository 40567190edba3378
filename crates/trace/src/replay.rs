//! Trace replay: the paper's general simulation class.
//!
//! "Clients are modeled by separate threads of control … The threads read
//! a part of the trace file, group operations that obviously belong
//! together (such as an open, read, read, write, …, close sequence), and
//! call the abstract-client interface to execute the operation on the
//! simulated system. Since all of the trace records have timing
//! information in them, the threads know how long they have to delay
//! themselves before they can dispatch the next operation." (§4)
//!
//! "The overall measurements are taken from the general simulation
//! class. This class measures how long it takes before an operation
//! completes. The measurements are shown every 15 minutes of simulation
//! time and of the overall simulation." (§4)
//!
//! That class is [`drive_clients`] and its [`RunReport`]. The open-loop
//! trace replay ([`replay`]) and `cnp-workload`'s closed-loop runner are
//! both a few lines over it that differ only in their [`Pace`].

use std::cell::{Cell, RefCell};
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::rc::Rc;
use std::sync::Arc;

use cnp_core::{ClientFs, FileSystem, FsError, HistoryLog};
use cnp_layout::{FileKind, Ino};
use cnp_obs::Histogram;
use cnp_sim::stats::IntervalReporter;
use cnp_sim::{Handle, SimDuration, SimTime};

use crate::record::{TraceOp, TraceRecord};

/// Controls for a run of clients ([`drive_clients`] and its adapters).
#[derive(Debug, Clone, Default)]
pub struct RunOptions {
    /// Stop after this many operations have been attempted across all
    /// clients — the crash-experiment "cut at operation N" knob.
    pub max_ops: Option<u64>,
    /// Track per-file acknowledged state (sizes of successful writes),
    /// feeding the crash experiments' data-loss accounting.
    pub track_acks: bool,
    /// Record every client operation as an *(invoke, ack)* interval
    /// into this shared log — the multi-client history the
    /// linearizability checker consumes (`cnp-check`).
    pub history: Option<HistoryLog>,
}

/// The acknowledged state of one file when the run stopped: what a user
/// was told succeeded, against which post-crash recovery is judged.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AckedFile {
    /// Absolute path.
    pub path: String,
    /// Size implied by acknowledged writes/truncates.
    pub size: u64,
    /// Virtual time (ns) of the last acknowledged size-relevant op.
    pub last_ack_ns: u64,
}

/// One client's row of a [`RunReport`].
#[derive(Debug, Clone)]
pub struct ClientReport {
    /// Client id.
    pub client: u32,
    /// Operations completed.
    pub ops: u64,
    /// Operations that failed.
    pub errors: u64,
    /// Completed operations per second of its run's makespan.
    pub ops_per_sec: f64,
}

/// A run's results: the paper's overall + per-15-minutes measurements,
/// one row per client, and what was acknowledged.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// Latency of every completed operation, in milliseconds.
    pub latency: Histogram,
    /// Read-operation latencies (ms).
    pub read_latency: Histogram,
    /// Write-operation latencies (ms).
    pub write_latency: Histogram,
    /// Completed operations by the 15-minute interval they started in,
    /// up to the end of the run.
    pub intervals: IntervalReporter,
    /// One row per client, in spawn order — a client the op budget
    /// starved included, or `fairness()` would be blind to it.
    pub per_client: Vec<ClientReport>,
    /// Operations completed.
    pub ops: u64,
    /// Operations that failed (path races etc.; should be rare).
    pub errors: u64,
    /// Up to five sample error messages (diagnostics).
    pub error_sample: Vec<String>,
    /// Virtual time from the start to the last client finishing.
    pub makespan: SimDuration,
    /// Acknowledged per-file state ([`RunOptions::track_acks`]).
    pub acked: Vec<AckedFile>,
    /// Paths whose *destructive* operations (delete, truncate) failed —
    /// e.g. cut off mid-flight by a power loss. Their on-disk state is
    /// indeterminate: the op was never acknowledged, yet its effects
    /// may have partially persisted, so crash oracles must not judge
    /// these files against the acked map. Sorted, deduplicated.
    pub indeterminate: Vec<String>,
}

impl RunReport {
    fn new() -> RunReport {
        RunReport {
            latency: Histogram::latency_default(),
            read_latency: Histogram::latency_default(),
            write_latency: Histogram::latency_default(),
            intervals: IntervalReporter::paper_default(),
            per_client: Vec::new(),
            ops: 0,
            errors: 0,
            error_sample: Vec::new(),
            makespan: SimDuration::ZERO,
            acked: Vec::new(),
            indeterminate: Vec::new(),
        }
    }

    /// Mean operation latency in milliseconds.
    pub fn mean_ms(&self) -> f64 {
        self.latency.mean()
    }

    /// 99th-percentile operation latency (ms).
    pub fn p99_ms(&self) -> f64 {
        self.latency.quantile(0.99)
    }

    /// Completed operations per second of makespan, all clients.
    pub fn aggregate_ops_per_sec(&self) -> f64 {
        per_sec(self.ops, self.makespan)
    }

    /// Fairness as max/min per-client throughput (1.0 = perfectly
    /// fair); 0.0 when any client completed nothing.
    pub fn fairness(&self) -> f64 {
        let mut min = f64::INFINITY;
        let mut max = 0.0f64;
        for c in &self.per_client {
            min = min.min(c.ops_per_sec);
            max = max.max(c.ops_per_sec);
        }
        if !min.is_finite() || min == 0.0 {
            0.0
        } else {
            max / min
        }
    }

    /// Adds `other`, a run of other clients, to this report: histograms
    /// and intervals merge, rows and acks append, the makespan is the
    /// longer one.
    pub fn merge(&mut self, other: RunReport) {
        self.latency.merge(&other.latency);
        self.read_latency.merge(&other.read_latency);
        self.write_latency.merge(&other.write_latency);
        self.intervals.merge(&other.intervals);
        self.per_client.extend(other.per_client);
        self.ops += other.ops;
        self.errors += other.errors;
        for e in other.error_sample {
            self.sample_error(|| e);
        }
        self.makespan = self.makespan.max(other.makespan);
        self.acked.extend(other.acked);
        self.indeterminate.extend(other.indeterminate);
        self.indeterminate.sort();
        self.indeterminate.dedup();
    }

    /// Folds one attempted operation of client row `i`.
    fn record(
        &mut self,
        i: usize,
        op: &TraceOp,
        start: SimTime,
        latency: SimDuration,
        result: Result<(), FsError>,
    ) {
        let row = &mut self.per_client[i];
        match result {
            Ok(()) => {
                row.ops += 1;
                self.ops += 1;
                let ms = latency.as_millis_f64();
                self.latency.record(ms);
                self.intervals.record(start, ms);
                match op {
                    TraceOp::Read { .. } => self.read_latency.record(ms),
                    TraceOp::Write { .. } => self.write_latency.record(ms),
                    _ => {}
                }
            }
            Err(e) => {
                row.errors += 1;
                self.errors += 1;
                let client = row.client;
                self.sample_error(|| format!("client {client}: {e} on {}", op.mnemonic()));
            }
        }
    }

    fn sample_error(&mut self, message: impl FnOnce() -> String) {
        if self.error_sample.len() < 5 {
            self.error_sample.push(message());
        }
    }
}

/// `ops` per second of `span`; 0 over an empty span.
fn per_sec(ops: u64, span: SimDuration) -> f64 {
    let secs = span.as_nanos() as f64 / 1e9;
    if secs == 0.0 {
        0.0
    } else {
        ops as f64 / secs
    }
}

/// When a client dispatches its next operation — the only difference
/// between the open-loop trace replay and the closed-loop runner.
#[derive(Debug, Clone, Copy)]
pub enum Pace {
    /// At an absolute instant (trace time); late ops dispatch at once.
    At(SimTime),
    /// After a think time measured from the previous completion.
    After(SimDuration),
}

/// path → (acked size, last ack time), keyed by the records' shared
/// paths.
type AckMap = BTreeMap<Arc<str>, (u64, u64)>;

/// What every client of one run shares: the operation budget, the
/// acknowledgement tracker and the report being folded.
struct ClientRun {
    budget: Cell<u64>,
    /// `None` when not tracking.
    acked: RefCell<Option<AckMap>>,
    /// Paths of failed destructive ops (indeterminate outcome).
    indeterminate: RefCell<BTreeSet<String>>,
    report: RefCell<RunReport>,
}

impl ClientRun {
    /// The client loop of row `i`: for each op wait out its pacing,
    /// take one unit of the budget (returning when it is spent — the
    /// crash cut point), apply the op through `fs`, record what was
    /// acknowledged, and fold the completion into the report.
    async fn drive(
        &self,
        h: &Handle,
        fs: &ClientFs,
        i: usize,
        ops: impl IntoIterator<Item = (Pace, TraceOp)>,
    ) {
        // Per-client open-file table (path → ino).
        let mut open: HashMap<Arc<str>, Ino> = HashMap::new();
        for (pace, op) in ops {
            match pace {
                Pace::At(due) if h.now() < due => h.sleep_until(due).await,
                Pace::After(think) if !think.is_zero() => h.sleep(think).await,
                _ => {}
            }
            let remaining = self.budget.get();
            if remaining == 0 {
                return;
            }
            self.budget.set(remaining - 1);
            let start = h.now();
            let result = apply_op(fs, &op, &mut open).await;
            let now = h.now();
            self.track(&op, result.is_ok(), now.as_nanos());
            self.report.borrow_mut().record(i, &op, start, now - start, result);
        }
    }

    fn track(&self, op: &TraceOp, ok: bool, now_ns: u64) {
        if !ok {
            // A failed delete/truncate leaves the file's durable state
            // indeterminate (the op may have partially persisted
            // without ever being acknowledged).
            if matches!(op, TraceOp::Delete { .. } | TraceOp::Truncate { .. }) {
                self.indeterminate.borrow_mut().insert(op.path().to_string());
            }
            return;
        }
        let mut acked = self.acked.borrow_mut();
        let Some(acked) = acked.as_mut() else { return };
        match op {
            TraceOp::Write { path, offset, len } => {
                let e = acked.entry(path.clone()).or_insert((0, now_ns));
                e.0 = e.0.max(offset + len);
                e.1 = now_ns;
            }
            TraceOp::Truncate { path, size } => {
                let e = acked.entry(path.clone()).or_insert((0, now_ns));
                e.0 = *size;
                e.1 = now_ns;
            }
            TraceOp::Delete { path } => {
                acked.remove(path);
            }
            _ => {}
        }
    }
}

/// Runs every client against `fs`; resolves when all of them finish or
/// the op budget cuts them off.
///
/// `clients` yields `(client id, that client's paced ops)` in spawn
/// order. Each client becomes its own simulated task driving the
/// abstract client interface through `fs.client(id)` (with
/// [`RunOptions::history`] attached), and every attempted op is folded
/// into one [`RunReport`], in completion order. This is the only place
/// client tasks are spawned.
pub async fn drive_clients<S>(
    handle: &Handle,
    fs: &FileSystem,
    clients: impl IntoIterator<Item = (u32, S)>,
    opts: RunOptions,
) -> RunReport
where
    S: IntoIterator<Item = (Pace, TraceOp)> + 'static,
{
    let start = handle.now();
    let run = Rc::new(ClientRun {
        budget: Cell::new(opts.max_ops.unwrap_or(u64::MAX)),
        acked: RefCell::new(opts.track_acks.then(BTreeMap::new)),
        indeterminate: RefCell::new(BTreeSet::new()),
        report: RefCell::new(RunReport::new()),
    });
    let mut tasks = Vec::new();
    for (i, (client, ops)) in clients.into_iter().enumerate() {
        let row = ClientReport { client, ops: 0, errors: 0, ops_per_sec: 0.0 };
        run.report.borrow_mut().per_client.push(row);
        let cfs = match &opts.history {
            Some(log) => fs.client(client).with_history(log.clone()),
            None => fs.client(client),
        };
        let (h, run) = (handle.clone(), run.clone());
        tasks.push(handle.spawn("client", async move { run.drive(&h, &cfs, i, ops).await }));
    }
    for task in tasks {
        task.await;
    }
    let end = handle.now();
    let run = Rc::try_unwrap(run).ok().expect("clients done");
    let mut report = run.report.into_inner();
    report.intervals.pad_to(end);
    report.makespan = end - start;
    for row in &mut report.per_client {
        row.ops_per_sec = per_sec(row.ops, report.makespan);
    }
    report.acked = run
        .acked
        .into_inner()
        .unwrap_or_default()
        .into_iter()
        .map(|(path, (size, last_ack_ns))| AckedFile { path: path.to_string(), size, last_ack_ns })
        .collect();
    report.indeterminate = run.indeterminate.into_inner().into_iter().collect();
    report
}

/// Replays a trace against a file system; resolves when every client
/// thread finishes.
///
/// Each client id in the trace becomes its own simulated thread, spawned
/// in ascending id, dispatching each record at its trace time. Files
/// are created on first use (traces do not carry creates explicitly).
/// `opts` may cut the run after an operation budget and track what was
/// acknowledged — the crash experiments cut the workload here and
/// compare recovered state against it.
pub async fn replay(
    handle: &Handle,
    fs: &FileSystem,
    records: Vec<TraceRecord>,
    opts: RunOptions,
) -> RunReport {
    let mut per_client: BTreeMap<u32, Vec<TraceRecord>> = BTreeMap::new();
    for r in records {
        per_client.entry(r.client).or_default().push(r);
    }
    let epoch = handle.now();
    let clients = per_client.into_iter().map(move |(client, recs)| {
        let at = move |r: TraceRecord| (Pace::At(epoch + SimDuration::from_nanos(r.time_ns)), r.op);
        (client, recs.into_iter().map(at))
    });
    drive_clients(handle, fs, clients, opts).await
}

/// Maps one trace op onto the abstract client interface through a
/// per-client engine handle. `open` is the client's open-file table
/// (path → ino), created files are created on demand, and races lost to
/// other clients (create-exists, stat-after-delete) count as served —
/// the shared vocabulary of the replay engine and the closed-loop
/// workload runner (`cnp-workload`).
async fn apply_op(
    fs: &ClientFs,
    op: &TraceOp,
    open: &mut HashMap<Arc<str>, Ino>,
) -> Result<(), FsError> {
    match op {
        TraceOp::Mkdir { path } => match fs.mkdir(path).await {
            Ok(_) | Err(FsError::Exists(_)) => Ok(()),
            Err(e) => Err(e),
        },
        TraceOp::Open { path } => {
            let ino = ensure_open(fs, path, open).await?;
            let _ = ino;
            Ok(())
        }
        TraceOp::Close { path } => {
            if let Some(ino) = open.remove(path) {
                fs.close(ino).await?;
            }
            Ok(())
        }
        TraceOp::Read { path, offset, len } => {
            let ino = ensure_open(fs, path, open).await?;
            fs.read(ino, *offset, *len).await?;
            Ok(())
        }
        TraceOp::Write { path, offset, len } => {
            let ino = ensure_open(fs, path, open).await?;
            fs.write(ino, *offset, *len, None).await?;
            Ok(())
        }
        TraceOp::Delete { path } => {
            if let Some(ino) = open.remove(path) {
                let _ = fs.close(ino).await;
            }
            match fs.unlink(path).await {
                Ok(()) | Err(FsError::NotFound) => Ok(()),
                Err(e) => Err(e),
            }
        }
        TraceOp::Truncate { path, size } => {
            let ino = ensure_open(fs, path, open).await?;
            fs.truncate(ino, *size).await?;
            Ok(())
        }
        TraceOp::Stat { path } => match fs.stat(path).await {
            Ok(_) => Ok(()),
            // Stat chatter may race deletes: treat missing as served.
            Err(FsError::NotFound) => Ok(()),
            Err(e) => Err(e),
        },
    }
}

async fn ensure_open(
    fs: &ClientFs,
    path: &Arc<str>,
    open: &mut HashMap<Arc<str>, Ino>,
) -> Result<Ino, FsError> {
    if let Some(&ino) = open.get(path) {
        return Ok(ino);
    }
    let ino = match fs.open(path).await {
        Ok(ino) => ino,
        Err(FsError::NotFound) => {
            match fs.create(path, FileKind::Regular).await {
                Ok(ino) => ino,
                // Another client raced the create.
                Err(FsError::Exists(_)) => fs.open(path).await?,
                Err(e) => return Err(e),
            }
        }
        Err(e) => return Err(e),
    };
    open.insert(path.clone(), ino);
    Ok(ino)
}
