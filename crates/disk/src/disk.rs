//! The simulated disk: a thread of control servicing I/O requests.
//!
//! "Internally, a disk is modeled by a separate thread of control that
//! waits for work to arrive … the controller unpacks the request, seeks
//! to the correct cylinder or switches heads. Next, the disk waits for
//! the rotational delay and reads or writes data to disk." (§4)
//!
//! The disk owns a mechanism model ([`DiskModel`]), a controller cache
//! (immediate-reported writes + read-ahead), an optional *platter store*
//! holding real bytes so metadata round-trips even off-line
//! (`disk/store.rs`), and a deterministic fault-injection plan.

#[cfg(test)]
mod reference;
mod store;

use std::cell::{Cell, RefCell};
use std::collections::HashSet;
use std::rc::Rc;

use cnp_sim::{channel, Handle, Receiver, Replies, ReplySender, Sender, SimDuration, SimTime};

use crate::bus::ScsiBus;
use crate::cache::ControllerCache;
use crate::geometry::DiskGeometry;
use crate::model::{DiskModel, DiskPos};
use crate::request::{IoCompletion, IoError, IoOp, IoRequest, IoTiming, Payload};

use store::WriteBuffer;
pub use store::{store_sectors, DiskImage};

/// Deterministic fault-injection plan for a simulated disk.
///
/// All fields compose; the plan is pure data, so a seeded builder (see
/// `cnp-fault`) can derive arbitrary schedules that stay replayable.
#[derive(Debug, Clone, Default)]
pub struct FaultPlan {
    /// Requests touching any of these LBA ranges fail with a media error.
    pub bad_ranges: Vec<(u64, u64)>,
    /// If set, every `n`-th request (by disk-local count) fails.
    pub fail_every: Option<u64>,
    /// Power cut when serving the `n`-th request (0-based): that request
    /// and every later one fail with [`IoError::PowerCut`].
    pub power_cut_at_op: Option<u64>,
    /// Power cut at this virtual time: requests served at or after it
    /// fail with [`IoError::PowerCut`].
    pub power_cut_at: Option<SimTime>,
    /// When a power cut lands on a write, this many sectors of it become
    /// durable before the cut (a torn write). `0` tears the whole write.
    pub torn_write_sectors: u32,
    /// Crash-cut semantics for in-flight batches: with a deep driver
    /// queue, several commands are outstanding when the power dies, and
    /// the electronics may finish some of them before the platters spin
    /// down. The first this many write requests the disk *serves* after
    /// the request the cut lands on still retire durably to the platter
    /// — but are never acknowledged (the host sees [`IoError::PowerCut`]
    /// for the whole outstanding set). Served order is the order the
    /// driver dispatched them in, which its queue scheduler picks; it is
    /// not the order they arrived at the driver. The disk cannot tell a
    /// write outstanding at the cut from one the host issues after it,
    /// so a write issued after the cut retires too while the budget
    /// lasts. Derive it from a seed via `cnp-fault`'s builder to sample
    /// crash interleavings.
    pub cut_retire_ops: u64,
    /// When the power cut fires, retire the controller's acked
    /// immediate-report write buffer to the platter instead of losing
    /// it — the battery-backed-controller-cache assumption the rest of
    /// the framework states for graceful capture
    /// ([`DiskClient::image_with_write_buffer`]). Default `false`: a
    /// volatile buffer dies with the electronics. The crash-point
    /// enumerator sets it so disk-level cuts and boundary captures
    /// judge the same durability contract.
    pub cut_preserves_buffer: bool,
    /// Latent sector errors: reads touching these LBA ranges fail with a
    /// media error until the sector is rewritten (which heals it).
    pub latent_ranges: Vec<(u64, u64)>,
    /// If set, every `n`-th request fails with a transient bus error
    /// (recoverable: the driver's bounded retry will re-issue it).
    pub transient_every: Option<u64>,
}

impl FaultPlan {
    /// True if a request at `[lba, lba+sectors)` (the `count`-th served)
    /// should fail with a (hard) media error.
    fn should_fail(&self, lba: u64, sectors: u32, count: u64) -> bool {
        if let Some(n) = self.fail_every {
            if n > 0 && count % n == n - 1 {
                return true;
            }
        }
        let end = lba + sectors as u64;
        self.bad_ranges.iter().any(|&(lo, hi)| lba < hi && end > lo)
    }

    /// True if the `count`-th request should fail transiently.
    fn transient(&self, count: u64) -> bool {
        match self.transient_every {
            Some(n) => n > 0 && count % n == n - 1,
            None => false,
        }
    }

    /// First latent (unhealed) sector hit by `[lba, lba+sectors)`.
    fn latent_hit(&self, lba: u64, sectors: u32, healed: &HashSet<u64>) -> Option<u64> {
        let end = lba + sectors as u64;
        for &(lo, hi) in &self.latent_ranges {
            let from = lba.max(lo);
            let to = end.min(hi);
            for s in from..to {
                if !healed.contains(&s) {
                    return Some(s);
                }
            }
        }
        None
    }
}

/// Disk-level configuration.
#[derive(Debug, Clone)]
pub struct DiskOpts {
    /// SCSI target id (arbitration priority on the shared bus).
    pub scsi_id: u8,
    /// Enable the controller read-ahead.
    pub readahead: bool,
    /// Enable immediate-reported writes.
    pub immediate_report: bool,
}

impl Default for DiskOpts {
    fn default() -> Self {
        DiskOpts { scsi_id: 1, readahead: true, immediate_report: true }
    }
}

/// Counters exported by a simulated disk.
#[derive(Debug, Clone, Copy, Default)]
pub struct DiskStats {
    /// Read requests served.
    pub reads: u64,
    /// Write requests served.
    pub writes: u64,
    /// Sectors read.
    pub read_sectors: u64,
    /// Sectors written.
    pub write_sectors: u64,
    /// Controller-cache read hits.
    pub cache_hits: u64,
    /// Controller-cache read misses.
    pub cache_misses: u64,
    /// Read-ahead operations performed while idle.
    pub readaheads: u64,
    /// Buffered writes drained to the media.
    pub writebacks: u64,
    /// Requests failed by the fault plan.
    pub faults: u64,
    /// Total mechanical busy time.
    pub busy: SimDuration,
}

/// Message from driver to disk: a request plus its completion channel.
pub struct DiskMsg {
    /// The request to serve.
    pub req: IoRequest,
    /// Where to deliver the completion.
    pub reply: ReplySender<IoCompletion>,
}

/// One write the dying disk retired after a power cut: `sectors`
/// sectors from `lba`.
#[derive(Debug, Clone)]
pub struct RetiredWrite {
    /// First sector.
    pub lba: u64,
    /// Sectors written.
    pub sectors: u32,
    /// What reached the platter.
    pub payload: Payload,
}

/// Stores the first `retire` of `retired` onto `image` in served order:
/// with a run's [`DiskClient::image_at_cut`] and
/// [`DiskClient::retired_after_cut`], the platter the same run leaves
/// with `cut_retire_ops = retire`.
pub fn retire_onto(image: &mut DiskImage, ssz: usize, retired: &[RetiredWrite], retire: u64) {
    for w in retired.iter().take(retire as usize) {
        store_sectors(image, ssz, w.lba, w.sectors, &w.payload);
    }
}

/// What a disk saw of its power cut, kept so a checker can read several
/// cuts' crash states off one run: a run armed with a cut at `t` is,
/// event for event, the run without it until the disk first checks for
/// the cut at or after `t`, and runs that differ only in
/// `cut_retire_ops` differ only in which writes the dead disk retires.
#[derive(Default)]
struct CutLog {
    /// The latest instant the disk checked for a time-scheduled power
    /// cut, whether or not its plan has one.
    last_check: Option<SimTime>,
    /// The platter right after the cut fired and the write buffer met
    /// its fate.
    image: Option<DiskImage>,
    /// The writes retired after the cut, in served order.
    retired: Vec<RetiredWrite>,
}

/// Client side of a spawned simulated disk.
#[derive(Clone)]
pub struct DiskClient {
    tx: Sender<DiskMsg>,
    replies: Replies<IoCompletion>,
    geometry: DiskGeometry,
    native_depth: u32,
    stats: Rc<RefCell<DiskStats>>,
    platter: Rc<RefCell<DiskImage>>,
    pending: Rc<RefCell<WriteBuffer>>,
    dead: Rc<Cell<bool>>,
    cut_log: Rc<RefCell<CutLog>>,
}

impl DiskClient {
    /// Submits a request and awaits its completion.
    pub async fn request(&self, req: IoRequest) -> IoCompletion {
        let id = req.id;
        let (otx, orx) = self.replies.slot();
        if self.tx.send(DiskMsg { req, reply: otx }).await.is_err() {
            return IoCompletion {
                id,
                result: Err(IoError::DeviceGone),
                timing: IoTiming::default(),
            };
        }
        match orx.await {
            Some(c) => c,
            None => {
                IoCompletion { id, result: Err(IoError::DeviceGone), timing: IoTiming::default() }
            }
        }
    }

    /// Disk geometry.
    pub fn geometry(&self) -> &DiskGeometry {
        &self.geometry
    }

    /// The model's native command-queue depth (captured at spawn).
    pub fn native_depth(&self) -> u32 {
        self.native_depth
    }

    /// Snapshot of the disk counters.
    pub fn stats(&self) -> DiskStats {
        *self.stats.borrow()
    }

    /// True once an injected power cut has killed the disk.
    pub fn is_dead(&self) -> bool {
        self.dead.get()
    }

    /// Clones the current durable on-disk image (crash-state capture):
    /// a copy of pointers — the image shares its frames with the
    /// platter, which copies one before it next stores into it.
    ///
    /// The image reflects every media write *retired* so far; writes
    /// still sitting in the controller's immediate-report buffer are
    /// volatile and excluded — the state a remount would observe after
    /// an abrupt power loss with a volatile write cache.
    pub fn platter_image(&self) -> DiskImage {
        self.platter.borrow().clone()
    }

    /// [`DiskClient::platter_image`] plus the contents of the controller
    /// write buffer — the crash image of a disk whose write cache is
    /// battery-backed (the assumption under which immediate-report is
    /// safe at all). After an injected power cut this equals
    /// [`DiskClient::platter_image`]: the dying disk already lost its
    /// buffer.
    pub fn image_with_write_buffer(&self) -> DiskImage {
        self.pending.borrow().over(&self.platter.borrow())
    }

    /// The latest instant the disk checked whether a time-scheduled
    /// power cut ([`FaultPlan::power_cut_at`]) had come; it checks
    /// whether or not its plan has one, and stops once a cut killed it.
    /// `None` before the first check.
    pub fn last_cut_check(&self) -> Option<SimTime> {
        self.cut_log.borrow().last_check
    }

    /// The platter as it was right after the power cut fired and the
    /// write buffer was retired or lost; `None` while the disk lives.
    pub fn image_at_cut(&self) -> Option<DiskImage> {
        self.cut_log.borrow().image.clone()
    }

    /// The writes retired after the power cut
    /// ([`FaultPlan::cut_retire_ops`]), in served order; see
    /// [`retire_onto`].
    pub fn retired_after_cut(&self) -> Vec<RetiredWrite> {
        self.cut_log.borrow().retired.clone()
    }
}

/// Spawns a simulated disk task whose platter starts from `image` (empty
/// for a fresh disk; the [`DiskClient::platter_image`] taken at a cut
/// point "remounts" the crashed platter after power-on). Crate-private:
/// [`crate::driver::compose_device`] is the only caller outside tests.
pub(crate) fn spawn_disk(
    handle: &Handle,
    name: &str,
    model: Box<dyn DiskModel>,
    bus: ScsiBus,
    opts: DiskOpts,
    faults: FaultPlan,
    image: DiskImage,
) -> DiskClient {
    let geometry = model.geometry().clone();
    let native_depth = model.native_depth();
    let (tx, rx) = channel::<DiskMsg>(handle);
    let stats = Rc::new(RefCell::new(DiskStats::default()));
    let platter = Rc::new(RefCell::new(image));
    let pending = Rc::new(RefCell::new(WriteBuffer::default()));
    let dead = Rc::new(Cell::new(false));
    let cut_log = Rc::new(RefCell::new(CutLog::default()));
    let task = DiskTask {
        handle: handle.clone(),
        model,
        bus,
        opts,
        cut_retire_left: faults.cut_retire_ops,
        faults,
        cache: ControllerCache::new(default_cache_bytes(), geometry.sector_size),
        pos: DiskPos::HOME,
        platter: platter.clone(),
        pending: pending.clone(),
        healed: HashSet::new(),
        dead: dead.clone(),
        cut_log: cut_log.clone(),
        readahead_at: None,
        stats: stats.clone(),
        served: 0,
    };
    handle.spawn(name, task.run(rx));
    DiskClient {
        tx,
        replies: Replies::new(handle),
        geometry,
        native_depth,
        stats,
        platter,
        pending,
        dead,
        cut_log,
    }
}

/// The HP 97560's 128 KB controller cache.
fn default_cache_bytes() -> u32 {
    128 * 1024
}

struct DiskTask {
    handle: Handle,
    model: Box<dyn DiskModel>,
    bus: ScsiBus,
    opts: DiskOpts,
    faults: FaultPlan,
    cache: ControllerCache,
    pos: DiskPos,
    /// Sparse store of the sectors holding real bytes; shared with the
    /// client for crash-state capture. Holds *retired* media writes
    /// only.
    platter: Rc<RefCell<DiskImage>>,
    /// Payloads of acked immediate-report writes still awaiting the
    /// media; volatile — a power cut discards them.
    pending: Rc<RefCell<WriteBuffer>>,
    /// Latent sectors rewritten since spawn (reads succeed again).
    healed: HashSet<u64>,
    /// Set once an injected power cut fires; shared with the client.
    dead: Rc<Cell<bool>>,
    /// What the disk saw of its power cut; shared with the client.
    cut_log: Rc<RefCell<CutLog>>,
    /// Next read-ahead start, armed by the latest foreground read.
    readahead_at: Option<u64>,
    stats: Rc<RefCell<DiskStats>>,
    served: u64,
    /// Post-cut write requests that still retire durably (the prefix of
    /// the outstanding set the dying electronics manage to finish).
    cut_retire_left: u64,
}

impl DiskTask {
    async fn run(mut self, rx: Receiver<DiskMsg>) {
        loop {
            // A time-scheduled power cut also stops idle housekeeping:
            // the volatile buffer must not keep retiring past the cut.
            self.check_time_cut();
            let msg = match rx.try_recv() {
                Some(m) => m,
                None if self.dead.get() => match rx.recv().await {
                    Some(m) => m,
                    None => break,
                },
                None => {
                    // Idle-time housekeeping: drain one buffered write,
                    // then read-ahead, then block for new work.
                    if let Some((lba, sectors)) = self.cache.pop_writeback() {
                        self.media_work(lba, sectors, true).await;
                        self.retire_pending(lba, sectors);
                        self.stats.borrow_mut().writebacks += 1;
                        continue;
                    }
                    if let Some(start) = self.readahead_take() {
                        // Real controllers abort read-ahead the moment a
                        // request arrives; we model that by sleeping the
                        // access in 1 ms quanta and checking for work, so
                        // foreground delay is bounded by one quantum.
                        let ra_sectors = (4 * 1024 / self.geometry().sector_size).max(1) as u64;
                        let capacity = self.geometry().capacity_sectors();
                        let n = ra_sectors.min(capacity.saturating_sub(start)) as u32;
                        if n == 0 {
                            continue;
                        }
                        let access = self.model.media_access(self.handle.now(), self.pos, start, n);
                        let total = access.total();
                        let quantum = SimDuration::from_millis(1);
                        let mut slept = SimDuration::ZERO;
                        while slept < total && rx.is_empty() {
                            let step = quantum.min(total - slept);
                            self.handle.sleep(step).await;
                            slept += step;
                        }
                        self.stats.borrow_mut().busy += slept;
                        if slept >= total {
                            // Completed: cache it and move the arm.
                            self.pos = access.end_pos;
                            self.cache.insert(start, n);
                            self.stats.borrow_mut().readaheads += 1;
                        }
                        continue;
                    }
                    match rx.recv().await {
                        Some(m) => m,
                        None => break,
                    }
                }
            };
            self.serve(msg).await;
        }
    }

    fn geometry(&self) -> &DiskGeometry {
        self.model.geometry()
    }

    /// Fires a time-scheduled power cut if its moment has come.
    fn check_time_cut(&mut self) {
        if !self.dead.get() && self.time_cut_due() {
            self.cut();
        }
    }

    /// Whether a time-scheduled power cut is due: the one check of
    /// [`FaultPlan::power_cut_at`], logged whether or not the plan has
    /// one.
    fn time_cut_due(&self) -> bool {
        let now = self.handle.now();
        self.cut_log.borrow_mut().last_check = Some(now);
        self.faults.power_cut_at.is_some_and(|t| now >= t)
    }

    /// Kills the disk. The write buffer's fate: volatile buffers die
    /// with the electronics; a battery-backed buffer
    /// ([`FaultPlan::cut_preserves_buffer`]) retires its acked
    /// contents to the platter — instantaneous state transfer, no
    /// simulated time, so pre-cut replays stay bit-identical.
    fn cut(&mut self) {
        self.dead.set(true);
        let mut platter = self.platter.borrow_mut();
        let mut pending = self.pending.borrow_mut();
        if self.faults.cut_preserves_buffer {
            pending.retire_all(&mut platter);
        } else {
            pending.clear();
        }
        self.cut_log.borrow_mut().image = Some(platter.clone());
    }

    fn readahead_take(&mut self) -> Option<u64> {
        if self.opts.readahead {
            self.readahead_at.take()
        } else {
            None
        }
    }

    /// Performs a mechanical access, charging simulated time.
    async fn media_work(
        &mut self,
        lba: u64,
        sectors: u32,
        write: bool,
    ) -> (SimDuration, SimDuration, SimDuration) {
        let access = self.model.media_access_rw(self.handle.now(), self.pos, lba, sectors, write);
        self.pos = access.end_pos;
        self.stats.borrow_mut().busy += access.total();
        self.handle.sleep(access.total()).await;
        (access.seek, access.rotation, access.transfer)
    }

    async fn serve(&mut self, msg: DiskMsg) {
        let DiskMsg { req, reply } = msg;
        let mut timing = IoTiming { queue: req.issued_at - req.queued_at, ..IoTiming::default() };
        let count = self.served;
        self.served += 1;

        // Controller overhead: command decode.
        timing.controller = self.model.controller_overhead();
        self.handle.sleep(timing.controller).await;

        // Power-cut checks: once dead, the disk answers nothing again.
        let mut just_cut = false;
        if !self.dead.get() {
            let time_cut = self.time_cut_due();
            let op_cut = self.faults.power_cut_at_op == Some(count);
            if time_cut || op_cut {
                // A cut landing on a write tears it: a prefix of the
                // sectors becomes durable before the power dies.
                if req.op == IoOp::Write && self.faults.torn_write_sectors > 0 {
                    let durable = self.faults.torn_write_sectors.min(req.sectors);
                    self.store_payload(req.lba, durable, &req.payload);
                }
                just_cut = true;
                self.cut();
            }
        }
        if self.dead.get() {
            // Retirement after the cut: the first `cut_retire_ops`
            // writes served *after* the landing request still reach the
            // platter — their data is durable, but the host never hears
            // the ack. (The landing write itself is governed by
            // `torn_write_sectors`, not this budget.)
            if !just_cut && req.op == IoOp::Write && self.cut_retire_left > 0 {
                self.cut_retire_left -= 1;
                self.store_payload(req.lba, req.sectors, &req.payload);
                let (lba, sectors, payload) = (req.lba, req.sectors, req.payload);
                self.cut_log.borrow_mut().retired.push(RetiredWrite { lba, sectors, payload });
            }
            self.stats.borrow_mut().faults += 1;
            reply.send(IoCompletion { id: req.id, result: Err(IoError::PowerCut), timing });
            return;
        }

        // Bounds and fault checks.
        let capacity = self.geometry().capacity_sectors();
        if req.lba + req.sectors as u64 > capacity {
            reply.send(IoCompletion {
                id: req.id,
                result: Err(IoError::OutOfRange { lba: req.lba, capacity }),
                timing,
            });
            return;
        }
        if self.faults.transient(count) {
            self.stats.borrow_mut().faults += 1;
            reply.send(IoCompletion {
                id: req.id,
                result: Err(IoError::Transient { lba: req.lba }),
                timing,
            });
            return;
        }
        if self.faults.should_fail(req.lba, req.sectors, count) {
            self.stats.borrow_mut().faults += 1;
            reply.send(IoCompletion {
                id: req.id,
                result: Err(IoError::Media { lba: req.lba }),
                timing,
            });
            return;
        }
        if req.op == IoOp::Read {
            if let Some(bad) = self.faults.latent_hit(req.lba, req.sectors, &self.healed) {
                self.stats.borrow_mut().faults += 1;
                reply.send(IoCompletion {
                    id: req.id,
                    result: Err(IoError::Media { lba: bad }),
                    timing,
                });
                return;
            }
        }

        // Multi-channel flash serves in parallel: the serve loop only
        // does command decode + dispatch; completion runs in a spawned
        // task so other channels' commands overlap in time.
        if self.model.channels() > 1 {
            self.serve_parallel(req, timing, reply);
            return;
        }
        match req.op {
            IoOp::Read => self.serve_read(req, timing, reply).await,
            IoOp::Write => self.serve_write(req, timing, reply).await,
        }
    }

    /// Dispatch half of the multi-channel service path.
    ///
    /// The model's `media_access_rw` is consulted *at dispatch* (in
    /// arrival order — this is what keeps the stateful flash model
    /// deterministic); the sleep-until-done, payload transfer, and
    /// completion reply happen in a spawned per-command task, so the
    /// serve loop is free to dispatch the next command onto another
    /// channel. The mechanical-era controller cache, read-ahead, and
    /// immediate-report machinery are bypassed: channel parallelism is
    /// the flash controller's answer to all three.
    fn serve_parallel(
        &mut self,
        req: IoRequest,
        mut timing: IoTiming,
        reply: ReplySender<IoCompletion>,
    ) {
        let write = req.op == IoOp::Write;
        {
            let mut s = self.stats.borrow_mut();
            if write {
                s.writes += 1;
                s.write_sectors += req.sectors as u64;
            } else {
                s.reads += 1;
                s.read_sectors += req.sectors as u64;
            }
        }
        if write {
            // Writes heal latent sectors exactly like the serial path.
            self.cache.invalidate(req.lba, req.sectors);
            if !self.faults.latent_ranges.is_empty() {
                for s in req.lba..req.lba + req.sectors as u64 {
                    self.healed.insert(s);
                }
            }
        }
        let access =
            self.model.media_access_rw(self.handle.now(), self.pos, req.lba, req.sectors, write);
        // Busy counts channel service, not queue wait: with 8 channels
        // the device is "busy" on each in parallel.
        self.stats.borrow_mut().busy += access.transfer;
        timing.seek = access.seek;
        timing.rotation = access.rotation;
        timing.transfer = access.transfer;
        let handle = self.handle.clone();
        let bus = self.bus.clone();
        let scsi_id = self.opts.scsi_id;
        let ssz = self.geometry().sector_size;
        let pending = self.pending.clone();
        let platter = self.platter.clone();
        let dead = self.dead.clone();
        let stats = self.stats.clone();
        self.handle.spawn("disk:chan", async move {
            handle.sleep(access.total()).await;
            if dead.get() {
                // The power died while this command was in flight: the
                // program/read never completes and nothing is stored.
                stats.borrow_mut().faults += 1;
                reply.send(IoCompletion { id: req.id, result: Err(IoError::PowerCut), timing });
                return;
            }
            let result = if write {
                let (lba, sectors) = (req.lba, req.sectors);
                store_sectors(&mut platter.borrow_mut(), ssz as usize, lba, sectors, &req.payload);
                timing.bus += bus.completion_phase(scsi_id, 0).await;
                Ok(Payload::Simulated(0))
            } else {
                let bytes = req.sectors as u64 * ssz as u64;
                timing.bus += bus.completion_phase(scsi_id, bytes).await;
                Ok(pending.borrow().load(&platter.borrow(), ssz as usize, req.lba, req.sectors))
            };
            reply.send(IoCompletion { id: req.id, result, timing });
        });
    }

    async fn serve_read(
        &mut self,
        req: IoRequest,
        mut timing: IoTiming,
        reply: ReplySender<IoCompletion>,
    ) {
        {
            let mut s = self.stats.borrow_mut();
            s.reads += 1;
            s.read_sectors += req.sectors as u64;
        }
        let hit = self.cache.read_hit(req.lba, req.sectors);
        {
            let mut s = self.stats.borrow_mut();
            if hit {
                s.cache_hits += 1;
            } else {
                s.cache_misses += 1;
            }
        }
        if !hit {
            let (seek, rotation, transfer) = self.media_work(req.lba, req.sectors, false).await;
            timing.seek = seek;
            timing.rotation = rotation;
            timing.transfer = transfer;
            self.cache.insert(req.lba, req.sectors);
        }
        // Arm read-ahead to continue past the end of this read.
        self.readahead_at = Some(req.lba + req.sectors as u64);

        // Reconnect and ship the data back over the bus.
        let bytes = req.sectors as u64 * self.geometry().sector_size as u64;
        timing.bus += self.bus.completion_phase(self.opts.scsi_id, bytes).await;

        let payload = self.load_payload(req.lba, req.sectors);
        reply.send(IoCompletion { id: req.id, result: Ok(payload), timing });
    }

    async fn serve_write(
        &mut self,
        req: IoRequest,
        mut timing: IoTiming,
        reply: ReplySender<IoCompletion>,
    ) {
        {
            let mut s = self.stats.borrow_mut();
            s.writes += 1;
            s.write_sectors += req.sectors as u64;
        }
        // A write makes overlapping cached read data stale, and heals
        // any latent sector errors it covers (reallocation model).
        self.cache.invalidate(req.lba, req.sectors);
        if !self.faults.latent_ranges.is_empty() {
            for s in req.lba..req.lba + req.sectors as u64 {
                self.healed.insert(s);
            }
        }

        let immediate = self.opts.immediate_report;
        if immediate {
            // Drain the buffer until this write fits (stall if needed).
            while !self.cache.write_fits(req.sectors) {
                match self.cache.pop_writeback() {
                    Some((lba, sectors)) => {
                        let (s, r, t) = self.media_work(lba, sectors, true).await;
                        self.retire_pending(lba, sectors);
                        // Drain time delays this request: count as seek etc.
                        timing.seek += s;
                        timing.rotation += r;
                        timing.transfer += t;
                        self.stats.borrow_mut().writebacks += 1;
                    }
                    None => break, // Request larger than the buffer.
                }
            }
            if self.cache.buffer_write(req.lba, req.sectors) {
                // Acked before the media write: the payload stays in the
                // volatile buffer until its write-back retires it.
                self.stash_pending(req.lba, req.sectors, &req.payload);
                timing.bus += self.bus.completion_phase(self.opts.scsi_id, 0).await;
                reply.send(IoCompletion { id: req.id, result: Ok(Payload::Simulated(0)), timing });
                return;
            }
        }
        // Write-through path (or request larger than the write buffer).
        self.store_payload(req.lba, req.sectors, &req.payload);
        let (seek, rotation, transfer) = self.media_work(req.lba, req.sectors, true).await;
        timing.seek += seek;
        timing.rotation += rotation;
        timing.transfer += transfer;
        timing.bus += self.bus.completion_phase(self.opts.scsi_id, 0).await;
        reply.send(IoCompletion { id: req.id, result: Ok(Payload::Simulated(0)), timing });
    }

    /// Stages an acked immediate-report write's payload in the volatile
    /// controller buffer; [`DiskTask::retire_pending`] moves it to the
    /// platter when the media write-back completes.
    fn stash_pending(&mut self, lba: u64, sectors: u32, payload: &Payload) {
        let ssz = self.geometry().sector_size as usize;
        self.pending.borrow_mut().stash(ssz, lba, sectors, payload);
    }

    /// Retires buffered sectors to the platter: their media write is now
    /// durable.
    fn retire_pending(&mut self, lba: u64, sectors: u32) {
        self.pending.borrow_mut().retire(lba, sectors, &mut self.platter.borrow_mut());
    }

    /// Saves real bytes to the platter store; simulated payloads erase
    /// any stale real bytes in the range.
    fn store_payload(&mut self, lba: u64, sectors: u32, payload: &Payload) {
        let ssz = self.geometry().sector_size as usize;
        store_sectors(&mut self.platter.borrow_mut(), ssz, lba, sectors, payload);
    }

    /// Returns real bytes if every sector in range is stored, else a
    /// simulated payload of the right length.
    fn load_payload(&self, lba: u64, sectors: u32) -> Payload {
        let ssz = self.geometry().sector_size as usize;
        self.pending.borrow().load(&self.platter.borrow(), ssz, lba, sectors)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hp97560::Hp97560;
    use cnp_sim::{Sim, SimTime};

    #[test]
    fn a_short_payload_is_zero_padded_and_a_simulated_one_erases() {
        let mut image = DiskImage::default();
        // Six bytes over three 4-byte sectors: one full, one padded, one
        // past the payload's end.
        store_sectors(&mut image, 4, 10, 3, &Payload::Data(vec![1, 2, 3, 4, 5, 6]));
        assert_eq!(image.sector(10), Some(&[1, 2, 3, 4][..]));
        assert_eq!(image.sector(11), Some(&[5, 6, 0, 0][..]));
        assert_eq!(image.sector(12), Some(&[0, 0, 0, 0][..]));
        assert_eq!(image.len(), 3);
        // A simulated write over the middle erases what it covers.
        store_sectors(&mut image, 4, 11, 4, &Payload::Simulated(16));
        assert_eq!(image.sector(10), Some(&[1, 2, 3, 4][..]));
        assert_eq!(image.len(), 1);
        assert_eq!(image.sectors().collect::<Vec<_>>(), [(10, &[1, 2, 3, 4][..])]);
        // The write buffer records the erase, so it shadows the platter.
        let mut buffer = WriteBuffer::default();
        buffer.stash(4, 10, 2, &Payload::Simulated(8));
        assert_eq!(buffer.load(&image, 4, 10, 1), Payload::Simulated(4));
        assert_eq!(buffer.over(&image), DiskImage::default());
    }

    fn make_req(
        id: u64,
        op: IoOp,
        lba: u64,
        sectors: u32,
        payload: Payload,
        now: SimTime,
    ) -> IoRequest {
        IoRequest { id, op, lba, sectors, payload, queued_at: now, issued_at: now }
    }

    fn setup(sim: &Sim, opts: DiskOpts, faults: FaultPlan) -> DiskClient {
        let h = sim.handle();
        let bus = ScsiBus::new(&h);
        spawn_disk(&h, "disk0", Box::new(Hp97560::new()), bus, opts, faults, DiskImage::default())
    }

    #[test]
    fn a_request_whose_disk_is_gone_resolves_to_device_gone() {
        let sim = Sim::new(1);
        let h = sim.handle();
        let mut disk = setup(&sim, DiskOpts::default(), FaultPlan::default());
        // A disk task that takes one command and dies holding it.
        let (tx, rx) = channel::<DiskMsg>(&h);
        h.spawn("dying-disk", async move {
            drop(rx.recv().await);
        });
        disk.tx = tx;
        let read = |id| make_req(id, IoOp::Read, 0, 8, Payload::Simulated(0), SimTime::ZERO);
        let (held, refused) = sim.block_on("t", async move {
            let held = disk.request(read(1)).await;
            let refused = disk.request(read(2)).await;
            (held.result, refused.result)
        });
        assert_eq!(held, Err(IoError::DeviceGone), "the disk died holding the command");
        assert_eq!(refused, Err(IoError::DeviceGone), "no disk left to take the command");
    }

    #[test]
    fn read_miss_then_hit_is_faster() {
        let sim = Sim::new(1);
        let h = sim.handle();
        let disk = setup(&sim, DiskOpts::default(), FaultPlan::default());
        let d2 = disk.clone();
        let h2 = h.clone();
        h.spawn("t", async move {
            let t0 = h2.now();
            let c1 = d2
                .request(make_req(1, IoOp::Read, 1000, 8, Payload::Simulated(4096), h2.now()))
                .await;
            let miss_latency = h2.now() - t0;
            assert!(c1.result.is_ok());
            let t1 = h2.now();
            let c2 = d2
                .request(make_req(2, IoOp::Read, 1000, 8, Payload::Simulated(4096), h2.now()))
                .await;
            let hit_latency = h2.now() - t1;
            assert!(c2.result.is_ok());
            assert!(
                hit_latency < miss_latency,
                "hit {hit_latency} should beat miss {miss_latency}"
            );
            // Hit costs controller + bus only: < 4 ms.
            assert!(hit_latency < SimDuration::from_millis(4), "{hit_latency}");
            assert_eq!(c2.timing.seek, SimDuration::ZERO);
        });
        sim.run();
        let s = disk.stats();
        assert_eq!(s.reads, 2);
        assert!(s.cache_hits >= 1);
    }

    #[test]
    fn immediate_report_write_is_fast() {
        let sim = Sim::new(1);
        let h = sim.handle();
        let disk = setup(&sim, DiskOpts::default(), FaultPlan::default());
        let d2 = disk.clone();
        let h2 = h.clone();
        h.spawn("t", async move {
            let t0 = h2.now();
            let c = d2
                .request(make_req(1, IoOp::Write, 5000, 8, Payload::Simulated(4096), h2.now()))
                .await;
            assert!(c.result.is_ok());
            let latency = h2.now() - t0;
            // Immediate report: controller + status, no mechanics.
            assert!(latency < SimDuration::from_millis(4), "{latency}");
        });
        sim.run();
    }

    #[test]
    fn write_through_costs_mechanics() {
        let sim = Sim::new(1);
        let h = sim.handle();
        let opts = DiskOpts { immediate_report: false, ..DiskOpts::default() };
        let disk = setup(&sim, opts, FaultPlan::default());
        let d2 = disk.clone();
        let h2 = h.clone();
        h.spawn("t", async move {
            let t0 = h2.now();
            let c = d2
                .request(make_req(1, IoOp::Write, 123_456, 8, Payload::Simulated(4096), h2.now()))
                .await;
            assert!(c.result.is_ok());
            let latency = h2.now() - t0;
            assert!(latency > SimDuration::from_millis(5), "{latency}");
            assert!(c.timing.seek > SimDuration::ZERO);
        });
        sim.run();
    }

    #[test]
    fn platter_round_trips_real_data() {
        let sim = Sim::new(1);
        let h = sim.handle();
        let disk = setup(&sim, DiskOpts::default(), FaultPlan::default());
        let d2 = disk.clone();
        let h2 = h.clone();
        h.spawn("t", async move {
            let data: Vec<u8> = (0..4096u32).map(|i| (i % 251) as u8).collect();
            let w = d2
                .request(make_req(1, IoOp::Write, 64, 8, Payload::Data(data.clone()), h2.now()))
                .await;
            assert!(w.result.is_ok());
            let r =
                d2.request(make_req(2, IoOp::Read, 64, 8, Payload::Simulated(0), h2.now())).await;
            match r.result.unwrap() {
                Payload::Data(got) => assert_eq!(got, data),
                Payload::Simulated(_) => panic!("expected real bytes back"),
            }
        });
        sim.run();
    }

    #[test]
    fn simulated_write_erases_real_data() {
        let sim = Sim::new(1);
        let h = sim.handle();
        let disk = setup(&sim, DiskOpts::default(), FaultPlan::default());
        let d2 = disk.clone();
        let h2 = h.clone();
        h.spawn("t", async move {
            let data = vec![7u8; 4096];
            d2.request(make_req(1, IoOp::Write, 0, 8, Payload::Data(data), h2.now())).await;
            d2.request(make_req(2, IoOp::Write, 0, 8, Payload::Simulated(4096), h2.now())).await;
            let r =
                d2.request(make_req(3, IoOp::Read, 0, 8, Payload::Simulated(0), h2.now())).await;
            assert!(matches!(r.result.unwrap(), Payload::Simulated(_)));
        });
        sim.run();
    }

    #[test]
    fn out_of_range_rejected() {
        let sim = Sim::new(1);
        let h = sim.handle();
        let disk = setup(&sim, DiskOpts::default(), FaultPlan::default());
        let d2 = disk.clone();
        let h2 = h.clone();
        let cap = disk.geometry().capacity_sectors();
        h.spawn("t", async move {
            let c = d2
                .request(make_req(1, IoOp::Read, cap - 4, 8, Payload::Simulated(0), h2.now()))
                .await;
            assert!(matches!(c.result, Err(IoError::OutOfRange { .. })));
        });
        sim.run();
    }

    #[test]
    fn fault_injection_bad_range() {
        let sim = Sim::new(1);
        let h = sim.handle();
        let faults = FaultPlan { bad_ranges: vec![(100, 200)], ..FaultPlan::default() };
        let disk = setup(&sim, DiskOpts::default(), faults);
        let d2 = disk.clone();
        let h2 = h.clone();
        h.spawn("t", async move {
            let bad =
                d2.request(make_req(1, IoOp::Read, 150, 8, Payload::Simulated(0), h2.now())).await;
            assert!(matches!(bad.result, Err(IoError::Media { .. })));
            let good =
                d2.request(make_req(2, IoOp::Read, 300, 8, Payload::Simulated(0), h2.now())).await;
            assert!(good.result.is_ok());
        });
        sim.run();
        assert_eq!(disk.stats().faults, 1);
    }

    #[test]
    fn fail_every_nth() {
        let sim = Sim::new(1);
        let h = sim.handle();
        let faults = FaultPlan { fail_every: Some(3), ..FaultPlan::default() };
        let disk = setup(&sim, DiskOpts::default(), faults);
        let d2 = disk.clone();
        let h2 = h.clone();
        h.spawn("t", async move {
            let mut failures = 0;
            for i in 0..9u64 {
                let c = d2
                    .request(make_req(i, IoOp::Read, i * 64, 8, Payload::Simulated(0), h2.now()))
                    .await;
                if c.result.is_err() {
                    failures += 1;
                }
            }
            assert_eq!(failures, 3);
        });
        sim.run();
    }

    #[test]
    fn power_cut_at_op_kills_the_disk() {
        let sim = Sim::new(1);
        let h = sim.handle();
        let faults = FaultPlan { power_cut_at_op: Some(2), ..FaultPlan::default() };
        let disk = setup(&sim, DiskOpts::default(), faults);
        let d2 = disk.clone();
        let h2 = h.clone();
        h.spawn("t", async move {
            for i in 0..2u64 {
                let c = d2
                    .request(make_req(i, IoOp::Read, i * 64, 8, Payload::Simulated(0), h2.now()))
                    .await;
                assert!(c.result.is_ok(), "op {i} precedes the cut");
            }
            for i in 2..5u64 {
                let c = d2
                    .request(make_req(i, IoOp::Read, i * 64, 8, Payload::Simulated(0), h2.now()))
                    .await;
                assert!(matches!(c.result, Err(IoError::PowerCut)), "op {i} is after the cut");
            }
        });
        sim.run();
        assert!(disk.is_dead());
        assert_eq!(disk.stats().faults, 3);
    }

    #[test]
    fn power_cut_tears_the_landing_write() {
        let sim = Sim::new(1);
        let h = sim.handle();
        let faults =
            FaultPlan { power_cut_at_op: Some(1), torn_write_sectors: 4, ..FaultPlan::default() };
        let disk = setup(&sim, DiskOpts::default(), faults);
        let d2 = disk.clone();
        let h2 = h.clone();
        h.spawn("t", async move {
            let data = vec![0xEEu8; 8 * 512];
            let w1 = d2
                .request(make_req(0, IoOp::Write, 0, 8, Payload::Data(data.clone()), h2.now()))
                .await;
            assert!(w1.result.is_ok());
            // Let the idle write-back retire W1 to the media before the
            // cut; a write still in the volatile buffer would be lost.
            h2.sleep(SimDuration::from_millis(60)).await;
            let w2 =
                d2.request(make_req(1, IoOp::Write, 100, 8, Payload::Data(data), h2.now())).await;
            assert!(matches!(w2.result, Err(IoError::PowerCut)));
        });
        sim.run();
        // The torn write left exactly its 4-sector prefix on the platter.
        let image = disk.platter_image();
        for s in 100..104 {
            assert!(image.sector(s).is_some(), "sector {s} should be durable");
        }
        for s in 104..108 {
            assert!(image.sector(s).is_none(), "sector {s} should be lost");
        }
        // The pre-cut write survives in full.
        for s in 0..8 {
            assert!(image.sector(s).is_some());
        }
    }

    #[test]
    fn cut_retires_prefix_of_outstanding_writes() {
        let sim = Sim::new(1);
        let h = sim.handle();
        // Cut lands on op 0; the next two queued writes still retire.
        let faults =
            FaultPlan { power_cut_at_op: Some(0), cut_retire_ops: 2, ..FaultPlan::default() };
        let disk = setup(&sim, DiskOpts::default(), faults);
        let d2 = disk.clone();
        let h2 = h.clone();
        h.spawn("t", async move {
            // An outstanding batch of four writes, arrival-ordered.
            for (i, lba) in [0u64, 100, 200, 300].into_iter().enumerate() {
                let c = d2
                    .request(make_req(
                        i as u64,
                        IoOp::Write,
                        lba,
                        8,
                        Payload::Data(vec![i as u8 + 1; 8 * 512]),
                        h2.now(),
                    ))
                    .await;
                // Nothing after the cut is acknowledged...
                assert!(matches!(c.result, Err(IoError::PowerCut)), "op {i}");
            }
        });
        sim.run();
        let image = disk.platter_image();
        // ...but the first two post-cut writes are durable anyway.
        for s in 100..108 {
            assert!(image.sector(s).is_some(), "sector {s} of retired write lost");
        }
        for s in 200..208 {
            assert!(image.sector(s).is_some(), "sector {s} of retired write lost");
        }
        // The landing write (no torn sectors) and the one past the
        // budget are gone.
        for s in (0..8).chain(300..308) {
            assert!(image.sector(s).is_none(), "sector {s} should be lost");
        }
    }

    /// A cut retires the first `cut_retire_ops` writes the disk serves
    /// after the landing request, in served order, and a write the host
    /// issues after the cut is one of them while the budget lasts. So
    /// one run with budget `b` gives, for every `r <= b`, the platter of
    /// the run with budget `r`: the image at the cut plus the first `r`
    /// retired writes.
    #[test]
    fn one_cut_run_gives_the_platter_of_every_smaller_retire_budget() {
        let write = |id: u64, lba: u64, byte: u8, now: SimTime| {
            make_req(id, IoOp::Write, lba, 8, Payload::Data(vec![byte; 8 * 512]), now)
        };
        let run = |retire: u64| {
            let sim = Sim::new(1);
            let h = sim.handle();
            let faults = FaultPlan {
                power_cut_at: Some(SimTime::from_nanos(100_000_000)),
                cut_retire_ops: retire,
                cut_preserves_buffer: true,
                ..FaultPlan::default()
            };
            let disk = setup(&sim, DiskOpts::default(), faults);
            let (d2, h2) = (disk.clone(), h.clone());
            h.spawn("t", async move {
                // Acked before the cut: the buffer keeps it, the cut
                // retires the buffer.
                assert!(d2.request(write(0, 0, 1, h2.now())).await.result.is_ok());
                h2.sleep_until(SimTime::from_nanos(100_000_000)).await;
                // Three outstanding at the cut: the first lands it, the
                // next two overlap, so their order shows on the platter.
                let batch = [(1, 100, 2), (2, 200, 3), (3, 204, 4)]
                    .map(|(id, lba, byte)| Box::pin(d2.request(write(id, lba, byte, h2.now()))));
                for c in cnp_sim::join_all(batch).await {
                    assert!(matches!(c.result, Err(IoError::PowerCut)));
                }
                // Issued after the cut, and served after the batch.
                h2.sleep(SimDuration::from_millis(10)).await;
                for (id, lba, byte) in [(4, 300, 5), (5, 400, 6)] {
                    let c = d2.request(write(id, lba, byte, h2.now())).await;
                    assert!(matches!(c.result, Err(IoError::PowerCut)));
                }
            });
            sim.run();
            disk
        };
        let full = run(3);
        let at_cut = full.image_at_cut().expect("the cut fired");
        assert!(at_cut.sector(0).is_some() && at_cut.sector(100).is_none());
        let retired = full.retired_after_cut();
        let lbas: Vec<u64> = retired.iter().map(|w| w.lba).collect();
        assert_eq!(lbas, [200, 204, 300], "served order; the write issued after the cut retires");
        assert!(full.last_cut_check() >= Some(SimTime::from_nanos(100_000_000)));
        for r in 0..=3 {
            let mut derived = at_cut.clone();
            retire_onto(&mut derived, 512, &retired, r);
            assert_eq!(run(r).platter_image(), derived, "retire {r}");
        }
        assert!(full.platter_image().sector(400).is_none(), "past the budget");
    }

    #[test]
    fn latent_sector_fails_reads_until_rewritten() {
        let sim = Sim::new(1);
        let h = sim.handle();
        let faults = FaultPlan { latent_ranges: vec![(500, 504)], ..FaultPlan::default() };
        let disk = setup(&sim, DiskOpts::default(), faults);
        let d2 = disk.clone();
        let h2 = h.clone();
        h.spawn("t", async move {
            let r1 =
                d2.request(make_req(0, IoOp::Read, 496, 8, Payload::Simulated(0), h2.now())).await;
            assert!(matches!(r1.result, Err(IoError::Media { lba: 500 })));
            // Rewriting the sectors heals them.
            let w = d2
                .request(make_req(
                    1,
                    IoOp::Write,
                    496,
                    8,
                    Payload::Data(vec![1u8; 8 * 512]),
                    h2.now(),
                ))
                .await;
            assert!(w.result.is_ok());
            let r2 =
                d2.request(make_req(2, IoOp::Read, 496, 8, Payload::Simulated(0), h2.now())).await;
            assert!(r2.result.is_ok());
        });
        sim.run();
    }

    #[test]
    fn image_round_trips_into_a_new_disk() {
        let sim = Sim::new(1);
        let h = sim.handle();
        let disk = setup(&sim, DiskOpts::default(), FaultPlan::default());
        let d2 = disk.clone();
        let h2 = h.clone();
        h.spawn("t", async move {
            let data: Vec<u8> = (0..4096u32).map(|i| (i % 250) as u8).collect();
            d2.request(make_req(0, IoOp::Write, 32, 8, Payload::Data(data.clone()), h2.now()))
                .await;
            // The immediate-reported write still sits in the volatile
            // controller buffer: only the battery-backed image sees it.
            assert!(d2.platter_image().sector(32).is_none(), "write not yet retired");
            assert!(d2.image_with_write_buffer().sector(32).is_some());
            // Idle a moment so the write-back drains it to the media.
            h2.sleep(SimDuration::from_millis(60)).await;
            assert!(d2.platter_image().sector(32).is_some(), "write-back must retire it");
            // Respawn a disk from the captured image and read it back.
            let bus = ScsiBus::new(&h2);
            let d3 = spawn_disk(
                &h2,
                "disk1",
                Box::new(Hp97560::new()),
                bus,
                DiskOpts::default(),
                FaultPlan::default(),
                d2.platter_image(),
            );
            let r =
                d3.request(make_req(0, IoOp::Read, 32, 8, Payload::Simulated(0), h2.now())).await;
            assert_eq!(r.result.unwrap().bytes().unwrap(), &data[..]);
        });
        sim.run();
    }

    #[test]
    fn readahead_turns_sequential_reads_into_hits() {
        let sim = Sim::new(1);
        let h = sim.handle();
        let disk = setup(&sim, DiskOpts::default(), FaultPlan::default());
        let d2 = disk.clone();
        let h2 = h.clone();
        h.spawn("t", async move {
            // Read 4 KB, idle a moment (read-ahead fires), read next 4 KB.
            d2.request(make_req(1, IoOp::Read, 0, 8, Payload::Simulated(0), h2.now())).await;
            h2.sleep(SimDuration::from_millis(60)).await;
            let t0 = h2.now();
            let c =
                d2.request(make_req(2, IoOp::Read, 8, 8, Payload::Simulated(0), h2.now())).await;
            assert!(c.result.is_ok());
            let latency = h2.now() - t0;
            assert!(latency < SimDuration::from_millis(4), "read-ahead should hit: {latency}");
        });
        sim.run();
        assert!(disk.stats().readaheads >= 1);
    }
}
