//! The disk driver: a scheduled I/O queue in front of a device back-end.
//!
//! "Disk-drivers implement one or more disk queues and send new
//! operations to disks whenever they are ready to service new requests."
//! (§3) The same driver serves both worlds — cut-and-paste — behind the
//! [`Backend`] seam: the simulated back-end ships requests over a SCSI
//! bus to a disk *task* ([`crate::disk`]), the on-line back-end really
//! moves bytes to a host file.

use std::cell::RefCell;
use std::fs::File;
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::Path;
use std::rc::Rc;

use cnp_obs::Histogram;
use cnp_sim::stats::TimeWeighted;
use cnp_sim::{join_all, Event, Handle, Replies, ReplyReceiver, ReplySender, SimTime};

use crate::bus::ScsiBus;
use crate::disk::{spawn_disk, DiskClient, DiskImage, DiskOpts, FaultPlan};
use crate::iosched::{PendingMeta, QueueScheduler};
use crate::model::DiskModel;
use crate::request::{IoCompletion, IoError, IoOp, IoRequest, IoTiming, Payload};

/// A device back-end the driver can dispatch to.
pub enum Backend {
    /// Simulated: SCSI bus + disk task (Patsy).
    Sim(SimBackend),
    /// On-line: a host file that really stores the bytes (PFS).
    File(FileBackend),
    /// RAID-0: N simulated spindles/channels behind one address space.
    Striped(StripedDisk),
}

impl Backend {
    /// Device capacity in sectors.
    pub fn capacity_sectors(&self) -> u64 {
        match self {
            Backend::Sim(b) => b.disk.geometry().capacity_sectors(),
            Backend::File(b) => b.capacity_sectors,
            Backend::Striped(s) => s.capacity_sectors(),
        }
    }

    /// Device sector size in bytes.
    pub fn sector_size(&self) -> u32 {
        match self {
            Backend::Sim(b) => b.disk.geometry().sector_size,
            Backend::File(b) => b.sector_size,
            Backend::Striped(s) => s.sector_size(),
        }
    }

    /// The back-end's native command-queue depth: how many commands the
    /// device itself can absorb. The driver clamps its pipeline depth
    /// to this. A host file has no device queue to model; it reports
    /// the 1996 SCSI default of 2 so real-backend runs pace like the
    /// simulated baseline they are compared to.
    pub fn native_depth(&self) -> u32 {
        match self {
            Backend::Sim(b) => b.disk.native_depth(),
            Backend::File(_) => 2,
            Backend::Striped(s) => s.native_depth(),
        }
    }

    async fn issue(&self, mut req: IoRequest) -> IoCompletion {
        match self {
            Backend::Sim(b) => {
                // Command-out phase: ship the command (plus data, for
                // writes) to the target, then disconnect.
                let write_bytes = match req.op {
                    IoOp::Write => req.payload.len() as u64,
                    IoOp::Read => 0,
                };
                let held = b.bus.command_phase(b.host_id, write_bytes).await;
                let mut completion = b.disk.request(req).await;
                completion.timing.bus += held;
                completion
            }
            Backend::File(b) => {
                let timing =
                    IoTiming { queue: req.issued_at - req.queued_at, ..IoTiming::default() };
                let result = b.transfer(&mut req);
                IoCompletion { id: req.id, result, timing }
            }
            Backend::Striped(s) => s.issue(req).await,
        }
    }
}

/// Simulated back-end: a bus plus a disk client. Only
/// [`compose_device`] builds one.
pub struct SimBackend {
    /// The shared host/disk connection.
    pub(crate) bus: ScsiBus,
    /// The target disk.
    pub(crate) disk: DiskClient,
    /// Host adapter SCSI id (arbitration priority).
    pub(crate) host_id: u8,
}

/// On-line back-end: "It uses a Unix-file (ordinary file, or raw-device)
/// as back-end." (§3)
pub struct FileBackend {
    file: RefCell<File>,
    capacity_sectors: u64,
    sector_size: u32,
}

impl FileBackend {
    /// Opens (creating if needed) a backing file sized to the capacity.
    pub fn create(
        path: &Path,
        capacity_sectors: u64,
        sector_size: u32,
    ) -> std::io::Result<FileBackend> {
        let file = std::fs::OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(path)?;
        file.set_len(capacity_sectors * sector_size as u64)?;
        Ok(FileBackend { file: RefCell::new(file), capacity_sectors, sector_size })
    }

    fn transfer(&self, req: &mut IoRequest) -> Result<Payload, IoError> {
        if req.lba + req.sectors as u64 > self.capacity_sectors {
            return Err(IoError::OutOfRange { lba: req.lba, capacity: self.capacity_sectors });
        }
        let offset = req.lba * self.sector_size as u64;
        let len = req.sectors as usize * self.sector_size as usize;
        let mut file = self.file.borrow_mut();
        file.seek(SeekFrom::Start(offset)).map_err(|e| IoError::Host(e.to_string()))?;
        match req.op {
            IoOp::Read => {
                let mut buf = vec![0u8; len];
                file.read_exact(&mut buf).map_err(|e| IoError::Host(e.to_string()))?;
                Ok(Payload::Data(buf))
            }
            IoOp::Write => {
                // The on-line system always moves real bytes; a simulated
                // payload is materialized as zeroes for robustness.
                let zeroes;
                let bytes: &[u8] = match req.payload.bytes() {
                    Some(b) => b,
                    None => {
                        zeroes = vec![0u8; len];
                        &zeroes
                    }
                };
                let mut padded;
                let out: &[u8] = if bytes.len() < len {
                    padded = bytes.to_vec();
                    padded.resize(len, 0);
                    &padded
                } else {
                    &bytes[..len]
                };
                file.write_all(out).map_err(|e| IoError::Host(e.to_string()))?;
                Ok(Payload::Simulated(0))
            }
        }
    }
}

/// One sub-request of a striped command: which child serves which slice.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct StripePart {
    /// Child disk index.
    child: usize,
    /// First LBA in the child's address space.
    child_lba: u64,
    /// Offset of this slice within the parent request, in sectors.
    offset: u64,
    /// Slice length in sectors.
    sectors: u32,
}

/// RAID-0 striped multi-disk back-end: N simulated disks behind one
/// flat address space.
///
/// Chunks of `chunk_sectors` sectors round-robin
/// across the children (`chunk c` lives on disk `c % n` at child chunk
/// `c / n`), so the scatter-gather runs of the engine's read window fan
/// out across spindles/channels. A command crossing chunk boundaries splits
/// into per-child sub-requests issued *concurrently* — the whole point
/// of striping — and merges deterministically:
///
/// * sub-requests are created, issued, and joined in **ascending-LBA
///   order** (the split order), independent of which child answered
///   first, so the merge is a pure function of the request;
/// * the first error in that order wins;
/// * a read reassembles real bytes only if **every** slice returned
///   real bytes — any simulated slice makes the whole payload
///   simulated, exactly like a single disk with a partially-stored
///   platter range;
/// * the reported mechanical timing is the *critical child's* (latest
///   completion; lowest child index on ties), bus time is the sum.
pub struct StripedDisk {
    children: Vec<SimBackend>,
    chunk_sectors: u64,
    sector_size: u32,
    capacity_sectors: u64,
    native_depth: u32,
}

impl StripedDisk {
    /// Builds a stripe over `children` with `chunk_sectors`-sector
    /// chunks.
    ///
    /// # Panics
    ///
    /// Panics if `children` is empty, `chunk_sectors` is 0, or the
    /// children disagree on sector size.
    pub(crate) fn new(children: Vec<SimBackend>, chunk_sectors: u64) -> StripedDisk {
        assert!(!children.is_empty(), "striped disk needs at least one child");
        assert!(chunk_sectors > 0, "chunk_sectors must be > 0");
        let sector_size = children[0].disk.geometry().sector_size;
        assert!(
            children.iter().all(|c| c.disk.geometry().sector_size == sector_size),
            "striped children must share a sector size"
        );
        // RAID-0 capacity: every child contributes the same number of
        // whole chunks as the smallest one.
        let min_child = children
            .iter()
            .map(|c| c.disk.geometry().capacity_sectors())
            .min()
            .expect("children non-empty");
        let chunks_per_child = min_child / chunk_sectors;
        let capacity_sectors = chunks_per_child * chunk_sectors * children.len() as u64;
        let native_depth = children.iter().map(|c| c.disk.native_depth()).sum::<u32>().max(1);
        StripedDisk { children, chunk_sectors, sector_size, capacity_sectors, native_depth }
    }

    /// Aggregate capacity in sectors.
    pub fn capacity_sectors(&self) -> u64 {
        self.capacity_sectors
    }

    /// Common child sector size in bytes.
    pub fn sector_size(&self) -> u32 {
        self.sector_size
    }

    /// Aggregate native queue depth: the sum of the children's — each
    /// child can absorb its own native depth concurrently.
    pub fn native_depth(&self) -> u32 {
        self.native_depth
    }

    /// Splits `[lba, lba+sectors)` into per-child slices in ascending
    /// LBA order, merging slices that stay contiguous on one child (the
    /// single-child stripe degenerates to one slice).
    fn split(&self, lba: u64, sectors: u32) -> Vec<StripePart> {
        let n = self.children.len() as u64;
        let mut parts: Vec<StripePart> = Vec::new();
        let mut cur = lba;
        let end = lba + sectors as u64;
        while cur < end {
            let chunk = cur / self.chunk_sectors;
            let chunk_end = (chunk + 1) * self.chunk_sectors;
            let take = (end.min(chunk_end) - cur) as u32;
            let child = (chunk % n) as usize;
            let child_lba = (chunk / n) * self.chunk_sectors + (cur - chunk * self.chunk_sectors);
            match parts.last_mut() {
                Some(last)
                    if last.child == child && last.child_lba + last.sectors as u64 == child_lba =>
                {
                    last.sectors += take;
                }
                _ => parts.push(StripePart { child, child_lba, offset: cur - lba, sectors: take }),
            }
            cur += take as u64;
        }
        parts
    }

    async fn issue(&self, req: IoRequest) -> IoCompletion {
        let timing0 = IoTiming { queue: req.issued_at - req.queued_at, ..IoTiming::default() };
        if req.lba + req.sectors as u64 > self.capacity_sectors {
            return IoCompletion {
                id: req.id,
                result: Err(IoError::OutOfRange { lba: req.lba, capacity: self.capacity_sectors }),
                timing: timing0,
            };
        }
        let ssz = self.sector_size as usize;
        let parts = self.split(req.lba, req.sectors);
        let subs = parts.iter().map(|p| {
            let payload = match (&req.op, &req.payload) {
                (IoOp::Read, _) => Payload::Simulated(0),
                (IoOp::Write, Payload::Simulated(_)) => {
                    Payload::Simulated(p.sectors * self.sector_size)
                }
                (IoOp::Write, Payload::Data(bytes)) => {
                    // Slice the parent payload; short payloads pad with
                    // zeroes at the child exactly like a single disk.
                    let lo = (p.offset as usize * ssz).min(bytes.len());
                    let hi = (lo + p.sectors as usize * ssz).min(bytes.len());
                    Payload::Data(bytes[lo..hi].to_vec())
                }
            };
            let b = &self.children[p.child];
            let sub = IoRequest {
                id: req.id,
                op: req.op,
                lba: p.child_lba,
                sectors: p.sectors,
                payload,
                queued_at: req.queued_at,
                issued_at: req.issued_at,
            };
            Box::pin(async move {
                let write_bytes = match sub.op {
                    IoOp::Write => sub.payload.len() as u64,
                    IoOp::Read => 0,
                };
                let held = b.bus.command_phase(b.host_id, write_bytes).await;
                let mut c = b.disk.request(sub).await;
                c.timing.bus += held;
                c
            })
        });
        // Concurrent fan-out; results come back in split (ascending-LBA)
        // order regardless of completion order — the deterministic merge.
        let completions = join_all(subs).await;
        let mut timing = timing0;
        let mut crit_service = cnp_sim::SimDuration::ZERO;
        let mut payloads = Vec::with_capacity(completions.len());
        for c in &completions {
            timing.bus += c.timing.bus;
            let mech = c.timing.controller + c.timing.seek + c.timing.rotation + c.timing.transfer;
            if mech > crit_service {
                crit_service = mech;
                timing.controller = c.timing.controller;
                timing.seek = c.timing.seek;
                timing.rotation = c.timing.rotation;
                timing.transfer = c.timing.transfer;
            }
        }
        for c in completions {
            match c.result {
                Ok(p) => payloads.push(p),
                Err(e) => return IoCompletion { id: req.id, result: Err(e), timing },
            }
        }
        let result = match req.op {
            IoOp::Write => Ok(Payload::Simulated(0)),
            IoOp::Read => {
                let total = req.sectors as usize * ssz;
                if payloads.iter().all(|p| p.bytes().is_some()) {
                    let mut out = Vec::with_capacity(total);
                    for p in &payloads {
                        out.extend_from_slice(p.bytes().expect("checked above"));
                    }
                    Ok(Payload::Data(out))
                } else {
                    Ok(Payload::Simulated(total as u32))
                }
            }
        };
        IoCompletion { id: req.id, result, timing }
    }
}

struct QueuedReq {
    meta: PendingMeta,
    req: IoRequest,
    reply: ReplySender<IoCompletion>,
}

struct DriverInner {
    queue: Vec<QueuedReq>,
    sched: Box<dyn QueueScheduler>,
    next_id: u64,
    next_seq: u64,
    head_lba: u64,
    shutdown: bool,
    /// Set when the dispatcher exits: a command submitted after that has
    /// nobody to serve it, and its submitter sees [`IoError::DeviceGone`].
    closed: bool,
    /// Device queue depth: how many commands may be outstanding at the
    /// back-end at once. `1` issues each command inline.
    max_inflight: u32,
    /// Commands currently outstanding at the back-end.
    inflight: u32,
    /// Write commands dispatched to the back-end and not yet completed.
    /// Together with the queued writes this is the in-flight write
    /// batch a power cut lands on — the count whose retire prefixes,
    /// in dispatch order, the crash-point enumerator iterates
    /// ([`FaultPlan::cut_retire_ops`](crate::FaultPlan::cut_retire_ops)).
    inflight_writes: u32,
    // Plug-in statistics (paper: queue-size and rotational-delay
    // histograms are standard detailed statistics objects).
    qlen: TimeWeighted,
    inflight_tw: TimeWeighted,
    /// Accumulated time with >= 1 command outstanding.
    busy_time: cnp_sim::SimDuration,
    /// Accumulated time with >= 2 commands outstanding (overlap).
    overlap_time: cnp_sim::SimDuration,
    /// When `inflight` last changed (closes busy/overlap intervals).
    inflight_since: SimTime,
    queue_time: Histogram,
    service_time: Histogram,
    rotation_time: Histogram,
    reads: u64,
    writes: u64,
    errors: u64,
    retries: u64,
    completed: u64,
}

impl DriverInner {
    /// Moves the outstanding-command count, closing the open
    /// busy/overlap interval first.
    fn set_inflight(&mut self, now: SimTime, n: u32) {
        let span = now.saturating_since(self.inflight_since);
        if self.inflight >= 1 {
            self.busy_time += span;
        }
        if self.inflight >= 2 {
            self.overlap_time += span;
        }
        self.inflight_since = now;
        self.inflight = n;
        self.inflight_tw.set(now, n as f64);
    }
}

/// Re-issues per request on transient failures before giving up.
const TRANSIENT_RETRIES: u32 = 2;

/// Snapshot of driver statistics.
#[derive(Debug, Clone)]
pub struct DriverStats {
    /// Completed requests.
    pub completed: u64,
    /// Reads completed.
    pub reads: u64,
    /// Writes completed.
    pub writes: u64,
    /// Failed requests.
    pub errors: u64,
    /// Transient-failure re-issues performed.
    pub retries: u64,
    /// Time-averaged queue length.
    pub mean_queue_len: f64,
    /// Maximum queue length observed.
    pub max_queue_len: f64,
    /// Time-averaged number of commands outstanding at the device.
    pub mean_inflight: f64,
    /// Maximum commands outstanding at once.
    pub max_inflight_seen: f64,
    /// Fraction of device-busy time with >= 2 commands outstanding
    /// (0 at queue depth 1).
    pub overlap_fraction: f64,
    /// Queue-time histogram (ms).
    pub queue_time: Histogram,
    /// Device service-time histogram (ms).
    pub service_time: Histogram,
    /// Rotational-delay histogram (ms).
    pub rotation_time: Histogram,
}

/// The scheduled disk driver.
#[derive(Clone)]
pub struct DiskDriver {
    handle: Handle,
    inner: Rc<RefCell<DriverInner>>,
    capacity_sectors: u64,
    sector_size: u32,
    native_depth: u32,
    wakeup: Event,
    /// Where each command's completion comes back to its submitter.
    replies: Replies<IoCompletion>,
    /// Display name; also the tracer's disk-lane label.
    name: Rc<str>,
}

impl DiskDriver {
    /// Creates a driver over `backend` with queue policy `sched`, and
    /// spawns its dispatcher task.
    pub fn new(
        handle: &Handle,
        name: &str,
        backend: Backend,
        sched: Box<dyn QueueScheduler>,
    ) -> DiskDriver {
        let now = handle.now();
        let inner = Rc::new(RefCell::new(DriverInner {
            queue: Vec::new(),
            sched,
            next_id: 0,
            next_seq: 0,
            head_lba: 0,
            shutdown: false,
            closed: false,
            max_inflight: 1,
            inflight: 0,
            inflight_writes: 0,
            qlen: TimeWeighted::new(now, 0.0),
            inflight_tw: TimeWeighted::new(now, 0.0),
            busy_time: cnp_sim::SimDuration::ZERO,
            overlap_time: cnp_sim::SimDuration::ZERO,
            inflight_since: now,
            queue_time: Histogram::latency_default(),
            service_time: Histogram::latency_default(),
            rotation_time: Histogram::latency_default(),
            reads: 0,
            writes: 0,
            errors: 0,
            retries: 0,
            completed: 0,
        }));
        let driver = DiskDriver {
            handle: handle.clone(),
            inner,
            capacity_sectors: backend.capacity_sectors(),
            sector_size: backend.sector_size(),
            native_depth: backend.native_depth(),
            wakeup: Event::new(handle),
            replies: Replies::new(handle),
            name: Rc::from(name),
        };
        let d = driver.clone();
        handle.spawn(&format!("driver:{name}"), async move {
            d.dispatch_loop(backend).await;
        });
        driver
    }

    /// Device capacity in sectors.
    pub fn capacity_sectors(&self) -> u64 {
        self.capacity_sectors
    }

    /// Device sector size.
    pub fn sector_size(&self) -> u32 {
        self.sector_size
    }

    /// The back-end's native command-queue depth (the device cap).
    ///
    /// Engines clamp their configured `queue_depth` to this instead of
    /// a hard-coded constant: the 1996 SCSI disks hold 2, a
    /// multi-channel flash device absorbs 64+, and a stripe absorbs the
    /// sum of its children's.
    pub fn native_depth(&self) -> u32 {
        self.native_depth
    }

    /// Sets the device queue depth: how many commands the dispatcher may
    /// keep outstanding at the back-end at once. Depth 1 (the default)
    /// keeps one command at the device; raising it lets the SCSI bus
    /// phases of one command overlap the mechanical work of another and
    /// gives the queue scheduler a real queue to optimise.
    pub fn set_max_inflight(&self, depth: u32) {
        let depth = depth.max(1);
        let changed = {
            let mut inner = self.inner.borrow_mut();
            let changed = inner.max_inflight != depth;
            inner.max_inflight = depth;
            changed
        };
        // Only a real change wakes the dispatcher: a no-op signal would
        // cost one scheduler step and shift the seeded replay stream.
        if changed {
            self.wakeup.signal();
        }
    }

    /// Current device queue depth.
    pub fn max_inflight(&self) -> u32 {
        self.inner.borrow().max_inflight
    }

    fn enqueue(
        &self,
        op: IoOp,
        lba: u64,
        sectors: u32,
        payload: Payload,
    ) -> ReplyReceiver<IoCompletion> {
        let now = self.handle.now();
        let (otx, orx) = self.replies.slot();
        {
            let mut inner = self.inner.borrow_mut();
            if inner.closed {
                return orx;
            }
            let id = inner.next_id;
            inner.next_id += 1;
            let seq = inner.next_seq;
            inner.next_seq += 1;
            let req = IoRequest { id, op, lba, sectors, payload, queued_at: now, issued_at: now };
            inner.queue.push(QueuedReq { meta: PendingMeta { lba, seq }, req, reply: otx });
            let depth = inner.queue.len() as f64;
            inner.qlen.set(now, depth);
        }
        orx
    }

    /// Submits an I/O and awaits its completion.
    pub async fn submit(
        &self,
        op: IoOp,
        lba: u64,
        sectors: u32,
        payload: Payload,
    ) -> Result<(Payload, IoTiming), IoError> {
        let orx = self.enqueue(op, lba, sectors, payload);
        self.wakeup.signal();
        let completion = orx.await.ok_or(IoError::DeviceGone)?;
        match completion.result {
            Ok(p) => Ok((p, completion.timing)),
            Err(e) => Err(e),
        }
    }

    /// Submits a batch of tagged requests at once and awaits every
    /// completion; results come back in submission order.
    ///
    /// The whole batch enters the queue before the dispatcher runs, so
    /// the queue scheduler sees (and reorders) all of it, and with a
    /// queue depth above 1 the members proceed concurrently. This is the
    /// completion-fan-in half of the pipelined I/O path.
    pub async fn submit_batch(
        &self,
        reqs: Vec<(IoOp, u64, u32, Payload)>,
    ) -> Vec<Result<(Payload, IoTiming), IoError>> {
        let receivers: Vec<ReplyReceiver<IoCompletion>> = reqs
            .into_iter()
            .map(|(op, lba, sectors, payload)| self.enqueue(op, lba, sectors, payload))
            .collect();
        self.wakeup.signal();
        join_all(receivers)
            .await
            .into_iter()
            .map(|c| match c {
                Some(c) => match c.result {
                    Ok(p) => Ok((p, c.timing)),
                    Err(e) => Err(e),
                },
                None => Err(IoError::DeviceGone),
            })
            .collect()
    }

    /// Convenience read of whole sectors.
    pub async fn read(&self, lba: u64, sectors: u32) -> Result<(Payload, IoTiming), IoError> {
        self.submit(IoOp::Read, lba, sectors, Payload::Simulated(0)).await
    }

    /// Convenience write.
    pub async fn write(
        &self,
        lba: u64,
        sectors: u32,
        payload: Payload,
    ) -> Result<(Payload, IoTiming), IoError> {
        self.submit(IoOp::Write, lba, sectors, payload).await
    }

    /// Write commands currently outstanding: queued at the driver plus
    /// dispatched to the device and not yet completed. This is the
    /// in-flight write batch a power cut at this instant lands on; a
    /// crash-point enumerator iterates its legal retire prefixes
    /// `0..=outstanding_writes()` via
    /// [`FaultPlan::cut_retire_ops`](crate::FaultPlan::cut_retire_ops).
    pub fn outstanding_writes(&self) -> u64 {
        let inner = self.inner.borrow();
        let queued = inner.queue.iter().filter(|q| q.req.op == IoOp::Write).count() as u64;
        queued + inner.inflight_writes as u64
    }

    /// Asks the dispatcher to exit once the queue drains.
    pub fn shutdown(&self) {
        self.inner.borrow_mut().shutdown = true;
        self.wakeup.signal();
    }

    /// Snapshot of the driver statistics.
    pub fn stats(&self) -> DriverStats {
        let inner = self.inner.borrow();
        let now = self.handle.now();
        // Close the open busy/overlap interval without mutating.
        let open = now.saturating_since(inner.inflight_since);
        let busy = inner.busy_time + if inner.inflight >= 1 { open } else { Default::default() };
        let overlap =
            inner.overlap_time + if inner.inflight >= 2 { open } else { Default::default() };
        let overlap_fraction =
            if busy.is_zero() { 0.0 } else { overlap.as_secs_f64() / busy.as_secs_f64() };
        DriverStats {
            completed: inner.completed,
            reads: inner.reads,
            writes: inner.writes,
            errors: inner.errors,
            retries: inner.retries,
            mean_queue_len: inner.qlen.mean(now),
            max_queue_len: inner.qlen.max(),
            mean_inflight: inner.inflight_tw.mean(now),
            max_inflight_seen: inner.inflight_tw.max(),
            overlap_fraction,
            queue_time: inner.queue_time.clone(),
            service_time: inner.service_time.clone(),
            rotation_time: inner.rotation_time.clone(),
        }
    }

    async fn dispatch_loop(self, backend: Backend) {
        let backend = Rc::new(backend);
        // Scratch for the scheduler's view of the queue, reused across
        // dispatches.
        let mut metas: Vec<PendingMeta> = Vec::new();
        loop {
            // Wait for work and a free device slot (or shutdown).
            loop {
                let (empty, shutdown, slot_free) = {
                    let inner = self.inner.borrow();
                    (inner.queue.is_empty(), inner.shutdown, inner.inflight < inner.max_inflight)
                };
                if !empty && slot_free {
                    break;
                }
                if shutdown && empty {
                    // In-flight commands complete on their own tasks.
                    self.inner.borrow_mut().closed = true;
                    return;
                }
                self.wakeup.wait().await;
            }
            // Pick the next request under the queue policy.
            let (mut req, reply, depth) = {
                let mut inner = self.inner.borrow_mut();
                metas.clear();
                metas.extend(inner.queue.iter().map(|q| q.meta));
                let head = inner.head_lba;
                let idx = inner.sched.pick(&metas, head);
                let q = inner.queue.remove(idx);
                let now = self.handle.now();
                let depth = inner.queue.len() as f64;
                inner.qlen.set(now, depth);
                if q.req.op == IoOp::Write {
                    inner.inflight_writes += 1;
                }
                (q.req, q.reply, inner.max_inflight)
            };
            // The head moves at dispatch, where a real scheduler's
            // knowledge ends; only `pick` reads it.
            let now = self.handle.now();
            req.issued_at = now;
            {
                let mut inner = self.inner.borrow_mut();
                inner.head_lba = req.lba + req.sectors as u64;
                let n = inner.inflight + 1;
                inner.set_inflight(now, n);
            }
            if depth <= 1 {
                // Depth 1 issues inline and only then looks at the queue
                // again. A `driver:io` task per command costs allocations
                // on every command; DESIGN.md "I/O pipeline" has the
                // measurements, and what folding this branch would move.
                let (op, completion) = self.issue_with_retry(&backend, req).await;
                self.complete_tail(op, &completion);
                reply.send(completion);
                continue;
            }
            // Deeper: the command runs on its own task so more can follow
            // while it seeks.
            let driver = self.clone();
            let backend = backend.clone();
            self.handle.spawn("driver:io", async move {
                let (op, completion) = driver.issue_with_retry(&backend, req).await;
                driver.complete_tail(op, &completion);
                // A slot freed up: let the dispatcher refill the device.
                driver.wakeup.signal();
                reply.send(completion);
            });
        }
    }

    /// Issues one request, with bounded retry on transient (bus)
    /// failures. The original payload moves into the first attempt (no
    /// copy on the hot path); re-issues rebuild it where that is free —
    /// reads and length-only writes. Real-byte writes are not re-issued
    /// here: the error propagates and the engine's flush-retry
    /// re-submits them with the authoritative cache copy.
    async fn issue_with_retry(&self, backend: &Backend, req: IoRequest) -> (IoOp, IoCompletion) {
        let op = req.op;
        let (id, lba, sectors, queued_at) = (req.id, req.lba, req.sectors, req.queued_at);
        let retry_payload = match (op, &req.payload) {
            (IoOp::Read, _) => Some(Payload::Simulated(0)),
            (IoOp::Write, Payload::Simulated(n)) => Some(Payload::Simulated(*n)),
            (IoOp::Write, Payload::Data(_)) => None,
        };
        let mut payload = Some(req.payload);
        let mut attempt = 0u32;
        let completion = loop {
            attempt += 1;
            let attempt_payload = match payload.take() {
                Some(p) => p,
                None => retry_payload.clone().expect("loop continues only when rebuildable"),
            };
            let attempt_req = IoRequest {
                id,
                op,
                lba,
                sectors,
                payload: attempt_payload,
                queued_at,
                issued_at: self.handle.now(),
            };
            let completion = backend.issue(attempt_req).await;
            match &completion.result {
                Err(e)
                    if e.is_transient()
                        && attempt <= TRANSIENT_RETRIES
                        && retry_payload.is_some() =>
                {
                    self.inner.borrow_mut().retries += 1;
                }
                _ => break completion,
            }
        };
        (op, completion)
    }

    /// Completion bookkeeping at every depth: the command leaves the
    /// device, and its counters, histograms and trace event land.
    fn complete_tail(&self, op: IoOp, completion: &IoCompletion) {
        let mut inner = self.inner.borrow_mut();
        let n = inner.inflight - 1;
        inner.set_inflight(self.handle.now(), n);
        inner.completed += 1;
        match op {
            IoOp::Read => inner.reads += 1,
            IoOp::Write => {
                inner.writes += 1;
                inner.inflight_writes = inner.inflight_writes.saturating_sub(1);
            }
        }
        if completion.result.is_err() {
            inner.errors += 1;
        }
        let t = completion.timing;
        inner.queue_time.record(t.queue.as_millis_f64());
        inner.service_time.record(t.service().as_millis_f64());
        inner.rotation_time.record(t.rotation.as_millis_f64());
        drop(inner);
        // Disk lane: one complete event per command covering its device
        // service interval (dispatch → completion), so the flamegraph
        // shows each disk's occupancy next to the client lanes.
        if cnp_obs::trace::enabled() {
            let now = self.handle.now().as_nanos();
            let service = t.service().as_nanos();
            let lane = cnp_obs::trace::disk_lane(&self.name);
            cnp_obs::trace::complete_on(
                lane,
                match op {
                    IoOp::Read => "io:read",
                    IoOp::Write => "io:write",
                },
                now.saturating_sub(service),
                now,
                vec![
                    ("queue_ms", cnp_obs::trace::Field::F64(t.queue.as_millis_f64())),
                    ("rotation_ms", cnp_obs::trace::Field::F64(t.rotation.as_millis_f64())),
                ],
            );
        }
    }
}

/// The only composition of a simulated device: bus → disk task(s) →
/// scheduled driver, spawned in that order. Every rig, tool and test
/// reaches a simulated disk through here (DESIGN.md, "Wiring").
///
/// `chunk_sectors` is `None` for one disk directly behind the driver and
/// `Some(chunk)` for a RAID-0 stripe over `models`. Each child gets a
/// dedicated bus and the options natural to its model
/// ([`default_bus_for`], [`default_opts_for`]) unless `attach` overrides
/// them (a shared-SCSI topology, controller cache off); every child
/// executes its own copy of `faults`; `image` is the platter a power-on
/// after a crash starts from. `attach` and `image` describe one disk.
/// Returns the driver and the disk client(s), in child order.
#[allow(clippy::too_many_arguments)]
pub fn compose_device(
    handle: &Handle,
    name: &str,
    models: Vec<Box<dyn DiskModel>>,
    chunk_sectors: Option<u64>,
    sched: Box<dyn QueueScheduler>,
    faults: FaultPlan,
    mut image: Option<DiskImage>,
    mut attach: Option<(ScsiBus, DiskOpts)>,
) -> (DiskDriver, Vec<DiskClient>) {
    assert!(!models.is_empty(), "a device needs at least one disk model");
    assert!(
        models.len() == 1 || (chunk_sectors.is_some() && image.is_none() && attach.is_none()),
        "several models need a stripe chunk, and take no image or bus override"
    );
    let mut children: Vec<SimBackend> = models
        .into_iter()
        .enumerate()
        .map(|(i, model)| {
            let (bus, opts) = attach.take().unwrap_or_else(|| {
                (default_bus_for(handle, model.as_ref()), default_opts_for(model.as_ref()))
            });
            let task = match chunk_sectors {
                Some(_) => format!("disk:{name}.{i}"),
                None => format!("disk:{name}"),
            };
            let platter = image.take().unwrap_or_default();
            let disk = spawn_disk(handle, &task, model, bus.clone(), opts, faults.clone(), platter);
            SimBackend { bus, disk, host_id: 7 }
        })
        .collect();
    let disks = children.iter().map(|c| c.disk.clone()).collect();
    let backend = match chunk_sectors {
        Some(chunk) => Backend::Striped(StripedDisk::new(children, chunk)),
        None => Backend::Sim(children.remove(0)),
    };
    (DiskDriver::new(handle, name, backend, sched), disks)
}

/// A fault-free single disk behind `sched`; see [`compose_device`].
pub fn sim_disk_driver(
    handle: &Handle,
    name: &str,
    model: Box<dyn DiskModel>,
    sched: Box<dyn QueueScheduler>,
) -> DiskDriver {
    compose_device(handle, name, vec![model], None, sched, FaultPlan::default(), None, None).0
}

/// The natural [`DiskOpts`] for a model: mechanical disks keep the
/// controller-cache machinery (read-ahead, immediate-report);
/// multi-channel flash bypasses it — the parallel service path ignores
/// the cache, and idle read-ahead would perturb the channel state.
pub fn default_opts_for(model: &dyn DiskModel) -> DiskOpts {
    if model.channels() > 1 {
        DiskOpts { readahead: false, immediate_report: false, ..DiskOpts::default() }
    } else {
        DiskOpts::default()
    }
}

/// The natural host connection for a model: mechanical disks sit on the
/// paper's 10 MB/s SCSI-2 bus; multi-channel flash gets the
/// [`crate::bus::BusParams::flash`] link so measurements show the
/// device, not a 1996 wire it never shipped behind.
pub fn default_bus_for(handle: &Handle, model: &dyn DiskModel) -> ScsiBus {
    if model.channels() > 1 {
        ScsiBus::with_params(handle, crate::bus::BusParams::flash())
    } else {
        ScsiBus::new(handle)
    }
}

/// A fault-free RAID-0 stripe over `models`, chunked at `chunk_sectors`;
/// see [`compose_device`].
pub fn striped_sim_disk_driver(
    handle: &Handle,
    name: &str,
    models: Vec<Box<dyn DiskModel>>,
    sched: Box<dyn QueueScheduler>,
    chunk_sectors: u64,
) -> DiskDriver {
    let chunk = Some(chunk_sectors);
    compose_device(handle, name, models, chunk, sched, FaultPlan::default(), None, None).0
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hp97560::Hp97560;
    use crate::iosched::{CLook, Fcfs};
    use cnp_sim::{Sim, SimDuration};

    #[test]
    fn submit_read_write_round_trip() {
        let sim = Sim::new(2);
        let h = sim.handle();
        let driver = sim_disk_driver(&h, "d0", Box::new(Hp97560::new()), Box::new(CLook));
        let d2 = driver.clone();
        h.spawn("client", async move {
            let data = vec![0xabu8; 4096];
            d2.write(512, 8, Payload::Data(data.clone())).await.unwrap();
            let (payload, timing) = d2.read(512, 8).await.unwrap();
            assert_eq!(payload.bytes().unwrap(), &data[..]);
            assert!(timing.total() > SimDuration::ZERO);
            d2.shutdown();
        });
        sim.run_until(SimTime::ZERO + SimDuration::from_secs(100));
        assert_eq!(driver.stats().completed, 2);
    }

    #[test]
    fn a_command_submitted_after_shutdown_resolves_to_device_gone() {
        let sim = Sim::new(2);
        let h = sim.handle();
        let driver = sim_disk_driver(&h, "d0", Box::new(Hp97560::new()), Box::new(CLook));
        let (first, late) = sim.block_on("client", async move {
            let first = driver.read(0, 8).await.map(|_| ());
            driver.shutdown();
            h.sleep(SimDuration::from_millis(1)).await;
            (first, driver.read(0, 8).await.map(|_| ()))
        });
        assert_eq!(first, Ok(()));
        assert_eq!(late, Err(IoError::DeviceGone), "the dispatcher has exited");
    }

    #[test]
    fn queue_builds_under_parallel_load() {
        let sim = Sim::new(4);
        let h = sim.handle();
        let driver = sim_disk_driver(&h, "d0", Box::new(Hp97560::new()), Box::new(CLook));
        for i in 0..16u64 {
            let d = driver.clone();
            h.spawn("client", async move {
                // Scatter reads across the disk so each costs a seek.
                d.read(i * 100_000, 8).await.unwrap();
            });
        }
        sim.run_until(SimTime::ZERO + SimDuration::from_secs(100));
        let stats = driver.stats();
        assert_eq!(stats.completed, 16);
        assert!(stats.max_queue_len > 2.0, "queue never built: {}", stats.max_queue_len);
        assert!(stats.queue_time.mean() > 0.0);
    }

    #[test]
    fn clook_beats_fcfs_on_scattered_load() {
        fn total_time(sched: Box<dyn QueueScheduler>, seed: u64) -> u64 {
            let sim = Sim::new(seed);
            let h = sim.handle();
            let driver = sim_disk_driver(&h, "d0", Box::new(Hp97560::new()), sched);
            // Alternating far/near pattern penalizes FCFS.
            let lbas: Vec<u64> = (0..24u64)
                .map(|i| if i % 2 == 0 { i * 1000 } else { 2_000_000 - i * 1000 })
                .collect();
            for lba in lbas {
                let d = driver.clone();
                h.spawn("c", async move {
                    d.read(lba, 8).await.unwrap();
                });
            }
            sim.run_until(SimTime::ZERO + SimDuration::from_secs(200));
            sim.now().as_micros()
        }
        let fcfs = total_time(Box::new(Fcfs), 11);
        let clook = total_time(Box::new(CLook), 11);
        assert!(
            clook < fcfs,
            "c-look ({clook} us) should finish scattered load before fcfs ({fcfs} us)"
        );
    }

    #[test]
    fn deep_queue_overlaps_and_completes() {
        let sim = Sim::new(4);
        let h = sim.handle();
        let driver = sim_disk_driver(&h, "d0", Box::new(Hp97560::new()), Box::new(CLook));
        driver.set_max_inflight(8);
        for i in 0..16u64 {
            let d = driver.clone();
            h.spawn("client", async move {
                d.read(i * 100_000, 8).await.unwrap();
            });
        }
        sim.run_until(SimTime::ZERO + SimDuration::from_secs(100));
        let stats = driver.stats();
        assert_eq!(stats.completed, 16);
        assert!(stats.max_inflight_seen >= 2.0, "no overlap: {}", stats.max_inflight_seen);
        assert!(stats.overlap_fraction > 0.0, "overlap never measured");
        assert!(stats.mean_inflight > 0.0);
    }

    #[test]
    fn depth_one_counts_one_command_in_flight() {
        let sim = Sim::new(4);
        let h = sim.handle();
        let driver = sim_disk_driver(&h, "d0", Box::new(Hp97560::new()), Box::new(CLook));
        for i in 0..8u64 {
            let d = driver.clone();
            h.spawn("client", async move {
                d.read(i * 100_000, 8).await.unwrap();
            });
        }
        sim.run_until(SimTime::ZERO + SimDuration::from_secs(100));
        let stats = driver.stats();
        assert_eq!(stats.completed, 8);
        // The device is busy one command at a time, never two.
        assert_eq!(stats.max_inflight_seen, 1.0);
        assert_eq!(stats.overlap_fraction, 0.0);
        assert!(stats.mean_inflight > 0.0, "a busy device reads as idle");
    }

    #[test]
    fn submit_batch_round_trips_in_submission_order() {
        let sim = Sim::new(6);
        let h = sim.handle();
        let driver = sim_disk_driver(&h, "d0", Box::new(Hp97560::new()), Box::new(CLook));
        driver.set_max_inflight(4);
        let d2 = driver.clone();
        h.spawn("client", async move {
            let writes: Vec<_> = (0..6u64)
                .map(|i| (IoOp::Write, i * 64, 8u32, Payload::Data(vec![i as u8 + 1; 4096])))
                .collect();
            for r in d2.submit_batch(writes).await {
                r.unwrap();
            }
            let reads: Vec<_> =
                (0..6u64).map(|i| (IoOp::Read, i * 64, 8u32, Payload::Simulated(0))).collect();
            let results = d2.submit_batch(reads).await;
            assert_eq!(results.len(), 6);
            for (i, r) in results.into_iter().enumerate() {
                let (payload, _t) = r.unwrap();
                assert_eq!(
                    payload.bytes().unwrap(),
                    &vec![i as u8 + 1; 4096][..],
                    "batch result {i} out of order"
                );
            }
            d2.shutdown();
        });
        sim.run();
        assert_eq!(driver.stats().completed, 12);
    }

    #[test]
    fn sstf_beats_fcfs_at_depth_8() {
        fn total_time(name: &str) -> u64 {
            let sim = Sim::new(21);
            let h = sim.handle();
            let driver = sim_disk_driver(
                &h,
                "d0",
                Box::new(Hp97560::new()),
                crate::iosched::scheduler_by_name(name).unwrap(),
            );
            driver.set_max_inflight(8);
            // Alternating far/near pattern penalizes FCFS.
            let lbas: Vec<u64> = (0..48u64)
                .map(|i| if i % 2 == 0 { i * 1000 } else { 2_000_000 - i * 1000 })
                .collect();
            for lba in lbas {
                let d = driver.clone();
                h.spawn("c", async move {
                    d.read(lba, 8).await.unwrap();
                });
            }
            sim.run_until(SimTime::ZERO + SimDuration::from_secs(200));
            sim.now().as_micros()
        }
        let fcfs = total_time("fcfs");
        let sstf = total_time("sstf");
        assert!(
            sstf < fcfs,
            "sstf ({sstf} us) should finish scattered load before fcfs ({fcfs} us) at depth 8"
        );
    }

    #[test]
    fn transient_failures_are_retried() {
        let sim = Sim::new(3);
        let h = sim.handle();
        // Every 2nd disk-level request fails transiently; the driver's
        // bounded retry must hide that from the client entirely.
        let faults = FaultPlan { transient_every: Some(2), ..FaultPlan::default() };
        let models: Vec<Box<dyn DiskModel>> = vec![Box::new(Hp97560::new())];
        let (driver, _) =
            compose_device(&h, "d0", models, None, Box::new(Fcfs), faults, None, None);
        let d2 = driver.clone();
        h.spawn("client", async move {
            for i in 0..8u64 {
                d2.read(i * 64, 8).await.expect("retry should absorb transients");
            }
            d2.shutdown();
        });
        sim.run();
        let stats = driver.stats();
        assert_eq!(stats.completed, 8);
        assert_eq!(stats.errors, 0);
        assert!(stats.retries >= 4, "half the first attempts fail: {}", stats.retries);
    }

    #[test]
    fn file_backend_round_trip() {
        let dir = std::env::temp_dir().join("cnp-disk-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("file-backend-rt.img");
        let _ = std::fs::remove_file(&path);
        let sim = Sim::new(1);
        let h = sim.handle();
        let backend =
            Backend::File(FileBackend::create(&path, 1024, 512).expect("create backing file"));
        let driver = DiskDriver::new(&h, "file0", backend, Box::new(Fcfs));
        let d2 = driver.clone();
        h.spawn("client", async move {
            let data: Vec<u8> = (0..4096u32).map(|i| (i % 256) as u8).collect();
            d2.write(16, 8, Payload::Data(data.clone())).await.unwrap();
            let (payload, _) = d2.read(16, 8).await.unwrap();
            assert_eq!(payload.bytes().unwrap(), &data[..]);
            // Unwritten region reads back zeroes.
            let (z, _) = d2.read(900, 2).await.unwrap();
            assert!(z.bytes().unwrap().iter().all(|&b| b == 0));
            d2.shutdown();
        });
        sim.run();
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn file_backend_out_of_range() {
        let dir = std::env::temp_dir().join("cnp-disk-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("file-backend-oor.img");
        let _ = std::fs::remove_file(&path);
        let sim = Sim::new(1);
        let h = sim.handle();
        let backend = Backend::File(FileBackend::create(&path, 64, 512).unwrap());
        let driver = DiskDriver::new(&h, "file0", backend, Box::new(Fcfs));
        let d2 = driver.clone();
        h.spawn("client", async move {
            let err = d2.read(60, 8).await.unwrap_err();
            assert!(matches!(err, IoError::OutOfRange { .. }));
            d2.shutdown();
        });
        sim.run();
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn striped_round_trip_matches_writes_across_chunks() {
        let sim = Sim::new(9);
        let h = sim.handle();
        // Two HP children, 16-sector chunks: a 40-sector write spans
        // five chunks on alternating disks.
        let models: Vec<Box<dyn crate::model::DiskModel>> =
            vec![Box::new(Hp97560::new()), Box::new(Hp97560::new())];
        let driver = striped_sim_disk_driver(&h, "s0", models, Box::new(CLook), 16);
        let d2 = driver.clone();
        h.spawn("client", async move {
            let data: Vec<u8> = (0..40 * 512u32).map(|i| (i % 241) as u8).collect();
            // Start mid-chunk so the split is unaligned at both ends.
            d2.write(5, 40, Payload::Data(data.clone())).await.unwrap();
            let (payload, _) = d2.read(5, 40).await.unwrap();
            assert_eq!(payload.bytes().unwrap(), &data[..]);
            // A read overlapping unwritten sectors degrades to simulated,
            // exactly like a single disk.
            let (p2, _) = d2.read(0, 48).await.unwrap();
            assert!(p2.bytes().is_none());
            d2.shutdown();
        });
        sim.run_until(SimTime::ZERO + SimDuration::from_secs(100));
        assert_eq!(driver.stats().completed, 3);
    }

    #[test]
    fn striped_capacity_depth_and_bounds() {
        let sim = Sim::new(9);
        let h = sim.handle();
        let models: Vec<Box<dyn crate::model::DiskModel>> =
            vec![Box::new(Hp97560::new()), Box::new(Hp97560::new())];
        let driver = striped_sim_disk_driver(&h, "s0", models, Box::new(CLook), 128);
        use crate::model::DiskModel as _;
        let single = Hp97560::new().geometry().capacity_sectors();
        // Two children: capacity doubles (modulo chunk rounding)...
        assert!(driver.capacity_sectors() > single);
        assert_eq!(driver.capacity_sectors() % 128, 0);
        // ...and the native depth is the sum of the children's (2 each).
        assert_eq!(driver.native_depth(), 4);
        let cap = driver.capacity_sectors();
        let d2 = driver.clone();
        h.spawn("client", async move {
            let err = d2.read(cap - 4, 8).await.unwrap_err();
            assert!(matches!(err, IoError::OutOfRange { capacity, .. } if capacity == cap));
            d2.shutdown();
        });
        sim.run_until(SimTime::ZERO + SimDuration::from_secs(100));
    }

    #[test]
    fn striping_overlaps_child_service() {
        // The same far-scattered batch finishes sooner on a 4-way
        // stripe than on one spindle: sub-requests really overlap.
        fn total_time(n_disks: usize) -> u64 {
            let sim = Sim::new(13);
            let h = sim.handle();
            let models: Vec<Box<dyn crate::model::DiskModel>> = (0..n_disks)
                .map(|_| Box::new(Hp97560::new()) as Box<dyn crate::model::DiskModel>)
                .collect();
            let driver = striped_sim_disk_driver(&h, "s0", models, Box::new(Fcfs), 64);
            driver.set_max_inflight(8);
            for i in 0..16u64 {
                let d = driver.clone();
                h.spawn("c", async move {
                    d.read(i * 100_000, 8).await.unwrap();
                });
            }
            sim.run_until(SimTime::ZERO + SimDuration::from_secs(200));
            sim.now().as_micros()
        }
        let one = total_time(1);
        let four = total_time(4);
        assert!(four < one, "4-way stripe ({four} us) should beat single ({one} us)");
    }

    #[test]
    fn ssd_driver_advertises_native_depth_64() {
        let sim = Sim::new(2);
        let h = sim.handle();
        let driver = sim_disk_driver(&h, "ssd0", Box::new(crate::ssd::Ssd::new()), Box::new(Fcfs));
        assert_eq!(driver.native_depth(), 64);
        // The HP keeps its 1996 cap of 2.
        let hp = sim_disk_driver(&h, "hp0", Box::new(Hp97560::new()), Box::new(Fcfs));
        assert_eq!(hp.native_depth(), 2);
    }

    #[test]
    fn ssd_absorbs_deep_queues_with_overlap() {
        let sim = Sim::new(8);
        let h = sim.handle();
        let driver = sim_disk_driver(&h, "ssd0", Box::new(crate::ssd::Ssd::new()), Box::new(Fcfs));
        driver.set_max_inflight(driver.native_depth());
        for i in 0..64u64 {
            let d = driver.clone();
            h.spawn("client", async move {
                d.read(i * 4096, 8).await.unwrap();
            });
        }
        sim.run_until(SimTime::ZERO + SimDuration::from_secs(100));
        let stats = driver.stats();
        assert_eq!(stats.completed, 64);
        assert!(
            stats.max_inflight_seen >= 8.0,
            "ssd should hold many commands: {}",
            stats.max_inflight_seen
        );
        assert!(stats.overlap_fraction > 0.5, "channels overlap: {}", stats.overlap_fraction);
    }

    #[test]
    fn ssd_round_trips_real_data() {
        let sim = Sim::new(3);
        let h = sim.handle();
        let driver = sim_disk_driver(&h, "ssd0", Box::new(crate::ssd::Ssd::new()), Box::new(Fcfs));
        driver.set_max_inflight(driver.native_depth());
        let d2 = driver.clone();
        h.spawn("client", async move {
            let data: Vec<u8> = (0..4096u32).map(|i| (i % 253) as u8).collect();
            d2.write(128, 8, Payload::Data(data.clone())).await.unwrap();
            let (payload, _) = d2.read(128, 8).await.unwrap();
            assert_eq!(payload.bytes().unwrap(), &data[..]);
            d2.shutdown();
        });
        sim.run();
    }

    use cnp_sim::SimTime;
}
