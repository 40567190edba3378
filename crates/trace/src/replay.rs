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

use std::cell::{Cell, RefCell};
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::rc::Rc;
use std::sync::Arc;

use cnp_core::{ClientFs, FileSystem, FsError};
use cnp_layout::{FileKind, Ino};
use cnp_obs::Histogram;
use cnp_sim::stats::{IntervalReporter, IntervalRow};
use cnp_sim::{Handle, SimDuration, SimTime};

use crate::record::{TraceOp, TraceRecord};

/// Controls for [`replay`].
#[derive(Debug, Clone, Default)]
pub struct ReplayOptions {
    /// Stop after this many operations have been attempted across all
    /// clients — the crash-experiment "cut at operation N" knob.
    pub max_ops: Option<u64>,
    /// Track per-file acknowledged state (sizes of successful writes),
    /// feeding the crash experiments' data-loss accounting.
    pub track_acks: bool,
}

/// The acknowledged state of one file when replay stopped: what a user
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

/// Replay results: the paper's overall + per-15-minutes measurements.
#[derive(Debug, Clone)]
pub struct ReplayReport {
    /// Latency of every completed operation, in milliseconds.
    pub latency: Histogram,
    /// Read-operation latencies (ms).
    pub read_latency: Histogram,
    /// Write-operation latencies (ms).
    pub write_latency: Histogram,
    /// Per-interval rows (15 simulated minutes each).
    pub intervals: Vec<IntervalRow>,
    /// Operations completed.
    pub ops: u64,
    /// Operations that failed (path races etc.; should be rare).
    pub errors: u64,
    /// Up to five sample error messages (diagnostics).
    pub error_sample: Vec<String>,
    /// Acknowledged per-file state ([`ReplayOptions::track_acks`]).
    pub acked: Vec<AckedFile>,
    /// Paths whose *destructive* operations (delete, truncate) failed —
    /// e.g. cut off mid-flight by a power loss. Their on-disk state is
    /// indeterminate: the op was never acknowledged, yet its effects
    /// may have partially persisted, so crash oracles must not judge
    /// these files against the acked map. Sorted, deduplicated.
    pub indeterminate: Vec<String>,
}

impl ReplayReport {
    /// Mean operation latency in milliseconds.
    pub fn mean_ms(&self) -> f64 {
        self.latency.mean()
    }
}

struct ReplayState {
    latency: Histogram,
    read_latency: Histogram,
    write_latency: Histogram,
    intervals: IntervalReporter,
    ops: u64,
    errors: u64,
    error_sample: Vec<String>,
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

/// One attempted operation, as [`ClientRun::drive`] reports it.
pub struct Completion<'a> {
    /// The operation.
    pub op: &'a TraceOp,
    /// Dispatch instant.
    pub start: SimTime,
    /// Dispatch-to-completion time.
    pub latency: SimDuration,
    /// What the abstract client interface answered.
    pub result: Result<(), FsError>,
}

/// path → (acked size, last ack time), keyed by the records' shared
/// paths.
type AckMap = BTreeMap<Arc<str>, (u64, u64)>;

/// What every client of one run shares: the operation budget and the
/// acknowledgement tracker. Both the trace replay and `cnp-workload`'s
/// closed-loop runner spawn one task per client, each calling
/// [`ClientRun::drive`], and fold the completions into their own report.
pub struct ClientRun {
    budget: Cell<u64>,
    /// `None` when not tracking.
    acked: RefCell<Option<AckMap>>,
    /// Paths of failed destructive ops (indeterminate outcome).
    indeterminate: RefCell<BTreeSet<String>>,
}

impl ClientRun {
    /// A run cut after `max_ops` attempted operations (all clients
    /// together), tracking acknowledged file sizes if `track_acks`.
    pub fn new(max_ops: Option<u64>, track_acks: bool) -> ClientRun {
        ClientRun {
            budget: Cell::new(max_ops.unwrap_or(u64::MAX)),
            acked: RefCell::new(track_acks.then(BTreeMap::new)),
            indeterminate: RefCell::new(BTreeSet::new()),
        }
    }

    /// The client loop: for each op wait out its pacing, take one unit
    /// of the budget (returning when it is spent — the crash cut
    /// point), apply the op through `fs`, record what was acknowledged,
    /// and hand the completion to `fold`.
    pub async fn drive<'a>(
        &self,
        h: &Handle,
        fs: &ClientFs,
        ops: impl IntoIterator<Item = (Pace, &'a TraceOp)>,
        mut fold: impl FnMut(Completion<'a>),
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
            let result = apply_op(fs, op, &mut open).await;
            let now = h.now();
            self.track(op, result.is_ok(), now.as_nanos());
            fold(Completion { op, start, latency: now - start, result });
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

    /// The acknowledged per-file state and the (sorted) indeterminate
    /// paths, once every client is done.
    pub fn finish(self) -> (Vec<AckedFile>, Vec<String>) {
        let acked = self
            .acked
            .into_inner()
            .unwrap_or_default()
            .into_iter()
            .map(|(path, (size, last_ack_ns))| AckedFile {
                path: path.to_string(),
                size,
                last_ack_ns,
            })
            .collect();
        (acked, self.indeterminate.into_inner().into_iter().collect())
    }
}

/// Replays a trace against a file system; resolves when every client
/// thread finishes.
///
/// Each client id in the trace becomes its own simulated thread. Files
/// are created on first use (traces do not carry creates explicitly).
/// `opts` may cut the run after an operation budget and track what was
/// acknowledged — the crash experiments cut the workload here and
/// compare recovered state against it.
pub async fn replay(
    handle: &Handle,
    fs: &FileSystem,
    records: Vec<TraceRecord>,
    opts: ReplayOptions,
) -> ReplayReport {
    let state = Rc::new(RefCell::new(ReplayState {
        latency: Histogram::latency_default(),
        read_latency: Histogram::latency_default(),
        write_latency: Histogram::latency_default(),
        intervals: IntervalReporter::paper_default(),
        ops: 0,
        errors: 0,
        error_sample: Vec::new(),
    }));
    let run = Rc::new(ClientRun::new(opts.max_ops, opts.track_acks));
    // Split records per client, preserving order. A BTreeMap keeps the
    // spawn order deterministic (replayability of the whole simulation).
    let mut per_client: BTreeMap<u32, Vec<TraceRecord>> = BTreeMap::new();
    for r in records {
        per_client.entry(r.client).or_default().push(r);
    }
    let mut handles = Vec::new();
    let epoch = handle.now();
    for (client, recs) in per_client {
        let cfs = fs.client(client);
        let h = handle.clone();
        let state = state.clone();
        let run = run.clone();
        handles.push(handle.spawn(&format!("client{client}"), async move {
            let ops =
                recs.iter().map(|r| (Pace::At(epoch + SimDuration::from_nanos(r.time_ns)), &r.op));
            run.drive(&h, &cfs, ops, |done| state.borrow_mut().fold(done)).await;
        }));
    }
    for jh in handles {
        jh.await;
    }
    let end = handle.now();
    let st = Rc::try_unwrap(state).ok().expect("clients done").into_inner();
    let (acked, indeterminate) = Rc::try_unwrap(run).ok().expect("clients done").finish();
    ReplayReport {
        latency: st.latency,
        read_latency: st.read_latency,
        write_latency: st.write_latency,
        intervals: st.intervals.finish(end),
        ops: st.ops,
        errors: st.errors,
        error_sample: st.error_sample,
        acked,
        indeterminate,
    }
}

impl ReplayState {
    fn fold(&mut self, done: Completion<'_>) {
        match done.result {
            Ok(()) => {
                self.ops += 1;
                let ms = done.latency.as_millis_f64();
                self.latency.record(ms);
                self.intervals.record(done.start, ms);
                match done.op {
                    TraceOp::Read { .. } => self.read_latency.record(ms),
                    TraceOp::Write { .. } => self.write_latency.record(ms),
                    _ => {}
                }
            }
            Err(e) => {
                self.errors += 1;
                if self.error_sample.len() < 5 {
                    self.error_sample.push(format!("{e} on {:?}", done.op.mnemonic()));
                }
            }
        }
    }
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
                Ok(()) | Err(FsError::NotFound(_)) => Ok(()),
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
            Err(FsError::NotFound(_)) => Ok(()),
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
        Err(FsError::NotFound(_)) => {
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
