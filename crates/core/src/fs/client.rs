//! The per-client handle onto a shared engine and the envelope every
//! client operation runs in: root trace span, history record.

use cnp_layout::dir::Dirent;
use cnp_layout::{FileKind, Ino, Inode};

use super::FileSystem;
use crate::error::FsResult;
use crate::history::{HistOp, HistOutcome, HistoryEvent, HistoryLog};

impl FileSystem {
    /// A per-client handle onto this (shared) engine: the same file
    /// system, with write traffic attributed to `id`. Clients interleave
    /// at the engine's block-I/O await points under its interior locks —
    /// the namespace lock for directory read-modify-write, the layout
    /// mutex for mapping/allocation, and the in-flight table for
    /// duplicate block loads.
    ///
    /// `id` must not be [`cnp_cache::UNATTRIBUTED`] (`u32::MAX`) — that
    /// value is the engine-internal sentinel, and a client using it
    /// would silently merge into the unattributed flush bucket.
    pub fn client(&self, id: u32) -> ClientFs {
        debug_assert!(
            id != cnp_cache::UNATTRIBUTED,
            "client id {id} collides with the UNATTRIBUTED sentinel"
        );
        ClientFs { fs: self.clone(), id, history: None }
    }
}

/// A client's view of a shared [`FileSystem`]: every engine handle is
/// the same cache + layout + driver, but operations issued through a
/// `ClientFs` are attributed to its client id (today: dirty-block flush
/// accounting; the attribution point for any future per-client QoS).
///
/// Cloneable and cheap — a multi-client workload clones the engine once
/// per client task and drives the abstract client interface through it.
///
/// With a [`HistoryLog`] attached ([`ClientFs::with_history`]), every
/// operation is additionally recorded as an *(invoke, ack)* interval
/// plus its observable outcome — the multi-client history a
/// linearizability checker consumes. A failed operation is recorded
/// with its error and never reads as acknowledged.
#[derive(Clone)]
pub struct ClientFs {
    fs: FileSystem,
    id: u32,
    history: Option<HistoryLog>,
}

impl ClientFs {
    /// The underlying shared engine.
    pub fn fs(&self) -> &FileSystem {
        &self.fs
    }

    /// Attaches a history log: every subsequent operation through this
    /// handle is recorded into `log` (shared across clones, so N
    /// clients recording into one log form a single history).
    pub fn with_history(mut self, log: HistoryLog) -> ClientFs {
        self.history = Some(log);
        self
    }

    /// The envelope every client operation runs in: open the
    /// per-operation root span on this client's trace lane (routing the
    /// current task there, so the engine-internal spans the op runs
    /// through — lock waits, cache loads, flush stalls — nest under
    /// it) with `fields` attached, take the invoke timestamp, run the
    /// engine call `call` makes, record the completed operation, close
    /// the span. The span is free when tracing is disabled; the
    /// timestamp is taken, and `event` evaluated, only when a history
    /// is attached. `call` builds its future here, inside the
    /// envelope's own state, rather than handing one in: moving an
    /// engine future costs a copy of its whole state per operation.
    async fn op<T, Fut: std::future::Future<Output = FsResult<T>>>(
        &self,
        name: &'static str,
        fields: &[(&'static str, u64)],
        call: impl FnOnce() -> Fut,
        event: impl FnOnce(&FsResult<T>) -> Option<(HistOp, HistOutcome)>,
    ) -> FsResult<T> {
        use cnp_obs::trace;
        let h = &self.fs.s.handle;
        let sp = if trace::enabled() {
            let lane = trace::client_lane(self.id);
            trace::set_task_lane(h.task_key(), lane);
            let sp = trace::span_enter_on(lane, name, h.now().as_nanos());
            for &(key, v) in fields {
                trace::span_field(sp, key, trace::Field::U64(v));
            }
            sp
        } else {
            trace::SpanToken::NONE
        };
        let invoke_ns = self.history.as_ref().map(|_| h.now().as_nanos());
        let r = call().await;
        if let (Some(log), Some(invoke_ns)) = (self.history.as_ref(), invoke_ns) {
            let ack_ns = h.now().as_nanos();
            if let Some((op, outcome)) = event(&r) {
                log.record(HistoryEvent { client: self.id, invoke_ns, ack_ns, op, outcome });
            }
        }
        h.trace_exit(sp);
        r
    }

    /// Resolves a path to an inode number.
    pub async fn lookup(&self, path: &str) -> FsResult<Ino> {
        let hist = |r: &_| Some((HistOp::Lookup { path: path.to_string() }, ino_outcome(r)));
        self.op("op:lookup", &[], || self.fs.lookup(path), hist).await
    }

    /// Creates a regular (or typed) file.
    pub async fn create(&self, path: &str, kind: FileKind) -> FsResult<Ino> {
        let hist = |r: &_| {
            let path = path.to_string();
            let op = if kind == FileKind::Directory {
                HistOp::Mkdir { path }
            } else {
                HistOp::Create { path }
            };
            Some((op, ino_outcome(r)))
        };
        self.op("op:create", &[], || self.fs.create(path, kind), hist).await
    }

    /// Creates a directory.
    pub async fn mkdir(&self, path: &str) -> FsResult<Ino> {
        let hist = |r: &_| Some((HistOp::Mkdir { path: path.to_string() }, ino_outcome(r)));
        self.op("op:mkdir", &[], || self.fs.mkdir(path), hist).await
    }

    /// Lists a directory (not recorded in the history — it is not part
    /// of the linearizability vocabulary).
    pub async fn readdir(&self, path: &str) -> FsResult<Vec<Dirent>> {
        self.op("op:readdir", &[], || self.fs.readdir(path), |_| None).await
    }

    /// Opens a file.
    pub async fn open(&self, path: &str) -> FsResult<Ino> {
        let hist = |r: &_| Some((HistOp::Open { path: path.to_string() }, ino_outcome(r)));
        self.op("op:open", &[], || self.fs.open(path), hist).await
    }

    /// Closes an open file.
    pub async fn close(&self, ino: Ino) -> FsResult<()> {
        let hist = |r: &_| Some((HistOp::Close { ino: ino.0 }, unit_outcome(r)));
        self.op("op:close", &[], || self.fs.close(ino), hist).await
    }

    /// Stats a file by path.
    pub async fn stat(&self, path: &str) -> FsResult<Inode> {
        let hist = |r: &_| {
            let size = outcome_of(r, |inode: &Inode| HistOutcome::Size(inode.size));
            Some((HistOp::Stat { path: path.to_string() }, size))
        };
        self.op("op:stat", &[], || self.fs.stat(path), hist).await
    }

    /// Stats a file by inode number (no path walk; not recorded in the
    /// history — like `readdir`, it is not part of the linearizability
    /// vocabulary).
    pub async fn stat_ino(&self, ino: Ino) -> FsResult<Inode> {
        self.op("op:stat_ino", &[], || self.fs.stat_ino(ino), |_| None).await
    }

    /// Reads `len` bytes at `offset`.
    pub async fn read(&self, ino: Ino, offset: u64, len: u64) -> FsResult<(u64, Option<Vec<u8>>)> {
        let hist = |r: &_| {
            let bytes = outcome_of(r, |(n, _): &(u64, _)| HistOutcome::Bytes(*n));
            Some((HistOp::Read { ino: ino.0, offset, len }, bytes))
        };
        let fields = [("ino", ino.0), ("len", len)];
        self.op("op:read", &fields, || self.fs.read(ino, offset, len), hist).await
    }

    /// Writes `len` bytes at `offset`, attributed to this client.
    pub async fn write(
        &self,
        ino: Ino,
        offset: u64,
        len: u64,
        data: Option<&[u8]>,
    ) -> FsResult<u64> {
        let hist = |r: &_| {
            Some((HistOp::Write { ino: ino.0, offset, len }, outcome_of(r, |_| HistOutcome::Ok)))
        };
        let fields = [("ino", ino.0), ("len", len)];
        self.op("op:write", &fields, || self.fs.write_for(self.id, ino, offset, len, data), hist)
            .await
    }

    /// Truncates a file to `new_size` bytes.
    pub async fn truncate(&self, ino: Ino, new_size: u64) -> FsResult<()> {
        let hist = |r: &_| Some((HistOp::Truncate { ino: ino.0, size: new_size }, unit_outcome(r)));
        self.op("op:truncate", &[], || self.fs.truncate(ino, new_size), hist).await
    }

    /// Removes a file.
    pub async fn unlink(&self, path: &str) -> FsResult<()> {
        let hist = |r: &_| Some((HistOp::Unlink { path: path.to_string() }, unit_outcome(r)));
        self.op("op:unlink", &[], || self.fs.unlink(path), hist).await
    }

    /// Removes an empty directory.
    pub async fn rmdir(&self, path: &str) -> FsResult<()> {
        let hist = |r: &_| Some((HistOp::Rmdir { path: path.to_string() }, unit_outcome(r)));
        self.op("op:rmdir", &[], || self.fs.rmdir(path), hist).await
    }

    /// Renames a file or directory.
    pub async fn rename(&self, from: &str, to: &str) -> FsResult<()> {
        let hist = |r: &_| {
            Some((HistOp::Rename { from: from.to_string(), to: to.to_string() }, unit_outcome(r)))
        };
        self.op("op:rename", &[], || self.fs.rename(from, to), hist).await
    }
}

/// A result's history outcome: `ok` of the value, or the failure.
fn outcome_of<T>(r: &FsResult<T>, ok: impl FnOnce(&T) -> HistOutcome) -> HistOutcome {
    match r {
        Ok(v) => ok(v),
        Err(e) => HistOutcome::Failed(e.clone()),
    }
}

/// Outcome of an ino-returning operation.
fn ino_outcome(r: &FsResult<Ino>) -> HistOutcome {
    outcome_of(r, |ino| HistOutcome::Ino(ino.0))
}

/// Outcome of a unit operation.
fn unit_outcome(r: &FsResult<()>) -> HistOutcome {
    outcome_of(r, |()| HistOutcome::Ok)
}
