//! The segmented log-structured file system layout.
//!
//! "Currently, we have implemented a segmented LFS. This system stores
//! file-system updates to the end of the log, and is able to find files
//! through an IFILE. The log-cleaner can be replaced and is plugged into
//! the LFS component when the system starts up." (§2)
//!
//! Structure on disk: superblock, two alternating checkpoint regions,
//! then fixed-size segments of `seg_blocks` blocks (one summary block +
//! payload blocks). All metadata (summaries, inode blocks, IFILE/usage
//! blocks) carries real bytes even off-line, so the same code runs in
//! Patsy and PFS; only file *data* payloads may be simulated.
//!
//! Crash safety: segment payloads are written *before* their checksummed
//! summary block, so a summary that parses implies an intact segment;
//! [`LfsLayout`] (via `StorageLayout::recover`) rolls the log forward
//! from the last checkpoint by replaying exactly the segments whose
//! `(gen, epoch, seq)` identify them as post-checkpoint. It finds them
//! by walking the ring from the checkpoint to the first segment that
//! was free at the checkpoint and still is (`scan_log_tail`), so
//! recovery costs what the log tail holds, not what the disk holds.
//! Remaining simplifications vs. Sprite-LFS, documented in DESIGN.md:
//! inode numbers are not reused, deletions are not logged (a crash can
//! resurrect a file deleted after the last checkpoint), and the usage
//! table persisted at a checkpoint may be a few blocks stale for the
//! checkpoint's own segment.
//!
//! The segment usage table (`usage.rs`) keeps, beside its entries, the
//! block each chunk of 340 entries encodes to. A write to an entry drops
//! only its chunk's block, so a checkpoint encodes the chunks written
//! since the last one (and those its own usage blocks are charged to)
//! and hands out the rest as shared blocks; a power-on keeps the usage
//! blocks it reads, and recovery's rebuild writes only the entries it
//! changes. No path copies, recounts or re-encodes the whole table.

#[cfg(test)]
mod proptests;
mod structs;
mod usage;

pub use structs::{SegSummary, SumEntry};
pub use usage::SegUsage;

use std::cell::{Cell, RefCell};
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::rc::Rc;

use cnp_disk::{Block, Blocks, DiskDriver, Payload};
use cnp_sim::{Event, Handle};

use crate::error::{LResult, LayoutError};
use crate::inode::{Inode, INODES_PER_BLOCK, INODE_SIZE};
use crate::io::BlockIo;
use crate::layout::{LayoutStats, RecoveryStats, StorageLayout};
use crate::types::{block_slot, BlockAddr, BlockSlot, FileKind, Ino, BLOCK_SIZE, NINDIRECT};

use structs::{
    imap_block, imap_from_blocks, imap_pack, imap_unpack, summary_block, summary_from_block,
    Checkpoint, SuperBlock, CKPT_ADDRS, DATA_START, IMAP_NONE, IMAP_PER_BLOCK, SUM_MAX_ENTRIES,
};
use usage::{Charges, UsageTable};

/// Cleaner victim-selection policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CleanerPolicy {
    /// Pick the segment with the fewest live bytes.
    Greedy,
    /// Rosenblum's cost-benefit: maximize `(1-u)·age / (1+u)`.
    #[default]
    CostBenefit,
}

/// LFS tuning parameters.
#[derive(Debug, Clone)]
pub struct LfsParams {
    /// Blocks per segment, summary included (max 239; default 128 =
    /// 512 KB segments).
    pub seg_blocks: u32,
    /// Cleaner victim selection.
    pub cleaner: CleanerPolicy,
    /// Run the cleaner when free segments drop below this.
    pub clean_low_water: u32,
    /// Clean until this many segments are free.
    pub clean_high_water: u32,
}

impl Default for LfsParams {
    fn default() -> Self {
        LfsParams {
            seg_blocks: 128,
            cleaner: CleanerPolicy::CostBenefit,
            clean_low_water: 4,
            clean_high_water: 8,
        }
    }
}

/// A sealed segment queued for its media write.
struct PendingSeal {
    /// Segment index (excluded from free/victim selection while queued).
    seg: u32,
    /// Device address of the summary block (the segment head).
    start: u64,
    /// Serialized summary block.
    summary: Block,
    /// The segment's entries, payload blocks in slot order.
    entries: Vec<(SumEntry, Payload)>,
}

/// Where a segment stands with the seal writer: the index
/// form of "is `seg` in `SealShared::pending`", split by whether the
/// queued segment still holds live bytes so the writer can keep
/// `SealShared::queued_dead` in step without seeing the usage table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Queued {
    /// Not queued (never sealed, or its media write has retired).
    No,
    /// Queued, `live > 0`.
    Live,
    /// Queued, `live == 0`: free but for the queue.
    Dead,
}

impl Queued {
    /// The flag of a queued segment holding `live` bytes.
    fn holding(live: u32) -> Queued {
        if live == 0 {
            Queued::Dead
        } else {
            Queued::Live
        }
    }
}

/// State shared between the layout and its seal writer.
///
/// Every segment seals through the writer task: `flush_current` queues
/// the full segment and returns without touching the device, so an
/// engine holding its layout lock across a seal does not hold every
/// other client behind one ~500 KB media write. A queued segment stays
/// part of the staging buffer (served by [`StorageLayout::staged_block`],
/// exported by [`StorageLayout::staged_image`]) until its write lands,
/// and durability points (`sync`, a checkpoint) drain the queue. One
/// writer serves the queue in seal order, payloads before summary,
/// which is the crash-ordering invariant recovery relies on.
struct SealShared {
    /// Sealed-but-unwritten segments, oldest first. Shared with the
    /// writer, which writes from them in place.
    pending: RefCell<VecDeque<Rc<PendingSeal>>>,
    /// Per segment, whether it is in `pending`. Set by `flush_current`
    /// when it queues the seal, flipped Live <-> Dead by `set_live`,
    /// cleared by the writer task when the write retires.
    queued: Vec<Cell<Queued>>,
    /// Number of `Queued::Dead` segments.
    queued_dead: Cell<u32>,
    /// Signalled when a seal is queued.
    work: Event,
    /// Signalled after each attempted media write.
    done: Event,
    /// First media-write error; poisons later seals and durability
    /// points (the failed segment stays queued, so the battery-backed
    /// staging image still holds its blocks).
    failed: RefCell<Option<LayoutError>>,
}

impl SealShared {
    /// Whether `seg` is sealed but not yet on the media.
    fn holds(&self, seg: u32) -> bool {
        self.queued[seg as usize].get() != Queued::No
    }

    /// Sets `seg`'s flag, keeping `queued_dead` equal to the number of
    /// `Queued::Dead` flags.
    fn mark(&self, seg: u32, state: Queued) {
        let was = self.queued[seg as usize].replace(state);
        let dead = self.queued_dead.get() + (state == Queued::Dead) as u32;
        self.queued_dead.set(dead - (was == Queued::Dead) as u32);
    }

    /// Re-files `seg`, if queued, under its new `live` count.
    fn relive(&self, seg: u32, live: u32) {
        if self.holds(seg) {
            self.mark(seg, Queued::holding(live));
        }
    }
}

/// Spawns the writer task draining `shared.pending` in seal order.
fn spawn_seal_writer(handle: &Handle, io: BlockIo, shared: Rc<SealShared>) {
    let h = handle.clone();
    handle.spawn("lfs:seal-writer", async move {
        if cnp_obs::trace::enabled() {
            let lane = cnp_obs::trace::engine_lane("seal-writer");
            cnp_obs::trace::set_task_lane(h.task_key(), lane);
        }
        loop {
            let job = shared.pending.borrow().front().cloned();
            let Some(job) = job else {
                // Check-then-wait has no await between, so a concurrent
                // seal cannot slip by unnoticed (cooperative scheduler).
                shared.work.wait().await;
                continue;
            };
            // Payloads reach the media before the checksummed summary
            // that describes them, so a summary that parses certifies
            // the whole segment.
            let sp = h.trace_span("layout:seal");
            let r: LResult<()> = async {
                let payloads = job.entries.iter().map(|(_, p)| p);
                io.write_run(BlockAddr(job.start + 1), payloads).await?;
                io.write_block(BlockAddr(job.start), job.summary.clone().into()).await?;
                Ok(())
            }
            .await;
            h.trace_exit(sp);
            drop(job);
            match r {
                Ok(()) => {
                    let retired = shared.pending.borrow_mut().pop_front();
                    if let Some(p) = retired {
                        shared.mark(p.seg, Queued::No);
                    }
                    shared.done.signal();
                }
                Err(e) => {
                    // The driver has retried what it can, and the log
                    // cannot skip a segment (a later summary would
                    // certify a log with a hole in it), so a failed seal
                    // poisons the log. The segment stays queued, and so
                    // staged: a crash capture still applies its blocks.
                    // Every later seal and drain returns the error, so
                    // the engine's flush counts it and its `sync`
                    // returns it; `done` wakes a drain already waiting.
                    *shared.failed.borrow_mut() = Some(e);
                    shared.done.signal();
                    return;
                }
            }
        }
    });
}

/// An open (accumulating) packed-inode block in the current segment.
/// Its bytes are its entry's payload, written in place as inodes land.
struct OpenInodeBlock {
    /// Index of its entry in the current segment.
    slot_idx: usize,
    /// Inode numbers by slot.
    inos: Vec<u64>,
}

/// The in-memory state of the current (unflushed) segment.
struct SegBuilder {
    seg: u32,
    entries: Vec<(SumEntry, Payload)>,
    open_inode: Option<OpenInodeBlock>,
}

/// The segmented log-structured layout.
pub struct LfsLayout {
    handle: Handle,
    io: BlockIo,
    params: LfsParams,
    sb: SuperBlock,
    imap: Vec<u64>,
    /// The segment usage table. It counts its `live == 0` entries (the
    /// current segment and queued seals included); `set_live` is the
    /// only writer of `SegUsage.live`, and `format` and `load_state`
    /// install whole tables through `replace_usage`.
    usage: UsageTable,
    next_ino: u64,
    ckpt_seq: u64,
    /// Mount epoch: bumped every time on-disk state is loaded, so
    /// segment sequence numbers are never reused across mounts.
    epoch: u64,
    /// Sequence number of the last flushed segment in this epoch.
    log_seq: u64,
    cur: SegBuilder,
    /// Blocks holding the current on-disk checkpoint's imap/usage.
    ckpt_meta: Vec<u64>,
    /// The imap and usage address lists of the last checkpoint written,
    /// for the next one to fill.
    ckpt_addrs: (Vec<u64>, Vec<u64>),
    /// Indirect-block cache: address → pointer table (log-immutable),
    /// shared, so a lookup through it copies no table.
    indirect: HashMap<u64, Rc<[u64]>>,
    indirect_fifo: VecDeque<u64>,
    /// The indirect table a write or a truncate edits before appending
    /// it, kept so the copy lands in storage the layout already has.
    /// Measured win, in allocations a unit (removed alone,
    /// `cnp-benchmark --seed 42 --seconds 1`, without -> with):
    /// `trace-1a` 0.488 -> 0.351, `zipf-256` 3.15 -> 3.01.
    table_scratch: Vec<u64>,
    /// The slot list of the last closed packed-inode block, emptied,
    /// for the next one. Measured win, likewise: `trace-1a` 0.374 ->
    /// 0.351, `zipf-256` 3.30 -> 3.01, `mail-64` 1.59 -> 1.45.
    spare_inos: Vec<u64>,
    cleaning: bool,
    mounted: bool,
    /// Inodes whose blocks the cleaner relocated since the last
    /// [`StorageLayout::take_relocated`] drain (cache-coherence signal
    /// for engines holding in-memory inode copies).
    relocated: std::collections::BTreeSet<u64>,
    /// Inodes whose next write/truncate must reconcile caller-held
    /// pointers with the log (consumed by `reconcile_pointers`, so the
    /// hot write path pays the extra inode read only after cleaning).
    stale_pointers: std::collections::BTreeSet<u64>,
    /// Segments free-segment selection must not hand out: during
    /// recovery these are young segments whose orphan data blocks look
    /// free (nothing reachable charges them) until pointer patching
    /// claims them. Lifted by the closing pick of recovery's checkpoint.
    protected_segs: std::collections::BTreeSet<u32>,
    /// The seal writer's queue and flags.
    seal: Rc<SealShared>,
    stats: LayoutStats,
    /// The table the last checkpoint persisted, before its own charges,
    /// and the charges: what its usage blocks must encode.
    #[cfg(test)]
    projection: (Vec<SegUsage>, Charges),
}

const INDIRECT_CACHE_CAP: usize = 1024;

/// A post-checkpoint segment found by recovery: `(seq, seg, entries)`.
type YoungSeg = (u64, u32, Vec<SumEntry>);

impl LfsLayout {
    /// Creates an LFS over `driver`; call [`StorageLayout::format`] or
    /// [`StorageLayout::mount`] before use.
    pub fn new(handle: &Handle, driver: DiskDriver, params: LfsParams) -> Self {
        assert!(
            params.seg_blocks >= 4 && params.seg_blocks as usize <= SUM_MAX_ENTRIES + 1,
            "seg_blocks out of range"
        );
        let io = BlockIo::new(driver);
        let blocks = io.capacity_blocks();
        let nsegs = ((blocks - DATA_START) / params.seg_blocks as u64) as u32;
        assert!(nsegs > params.clean_high_water + 2, "disk too small for LFS");
        let sb = SuperBlock { seg_blocks: params.seg_blocks, nsegs, gen: 0 };
        let seal = Rc::new(SealShared {
            pending: RefCell::new(VecDeque::new()),
            queued: vec![Cell::new(Queued::No); nsegs as usize],
            queued_dead: Cell::new(0),
            work: Event::new(handle),
            done: Event::new(handle),
            failed: RefCell::new(None),
        });
        spawn_seal_writer(handle, io.clone(), seal.clone());
        LfsLayout {
            handle: handle.clone(),
            io,
            params,
            sb,
            imap: Vec::new(),
            usage: UsageTable::default(),
            next_ino: 2,
            ckpt_seq: 0,
            epoch: 0,
            log_seq: 0,
            cur: SegBuilder { seg: 0, entries: Vec::new(), open_inode: None },
            ckpt_meta: Vec::new(),
            ckpt_addrs: Default::default(),
            indirect: HashMap::new(),
            indirect_fifo: VecDeque::new(),
            table_scratch: Vec::new(),
            spare_inos: Vec::new(),
            cleaning: false,
            mounted: false,
            relocated: std::collections::BTreeSet::new(),
            stale_pointers: std::collections::BTreeSet::new(),
            protected_segs: std::collections::BTreeSet::new(),
            seal,
            stats: LayoutStats::default(),
            #[cfg(test)]
            projection: Default::default(),
        }
    }

    /// Number of completely free segments (excluding the current one):
    /// `live == 0` and not queued at the seal writer. Read off the
    /// maintained counts — nothing on the write path scans the table.
    pub fn free_segments(&self) -> u32 {
        let cur_free = self.segment_is_free(self.cur.seg) as u32;
        self.usage.zero_live() - self.seal.queued_dead.get() - cur_free
    }

    /// Whether `seg` holds no live bytes and is not queued for a seal.
    fn segment_is_free(&self, seg: u32) -> bool {
        self.usage.get(seg as usize).is_some_and(|u| u.live == 0) && !self.seal.holds(seg)
    }

    /// The one writer of `SegUsage.live` outside a wholesale table
    /// replacement: keeps the seal writer's dead count in step with the
    /// table.
    fn set_live(&mut self, seg: usize, live: u32) {
        if self.usage.set_live(seg, live) {
            self.seal.relive(seg as u32, live);
        }
    }

    /// Installs a whole table (`format`, `load_state`). It counts its
    /// own `live == 0` entries, so only the seal flags of the segments
    /// the queue holds are refiled (no other segment has one).
    fn replace_usage(&mut self, usage: UsageTable) {
        self.usage = usage;
        for p in self.seal.pending.borrow().iter() {
            self.seal.relive(p.seg, self.usage[p.seg as usize].live);
        }
    }

    /// The from-scratch recount the maintained state must equal: the
    /// usage table walked against the segments the seal queue holds
    /// (the queue is read once, so a long queue costs what the table
    /// costs). Test oracle only.
    #[cfg(any(test, debug_assertions))]
    fn assert_segment_state(&self) {
        let mut in_queue = vec![false; self.usage.len()];
        for p in self.seal.pending.borrow().iter() {
            in_queue[p.seg as usize] = true;
        }
        let free = self
            .usage
            .iter()
            .enumerate()
            .filter(|(s, u)| *s as u32 != self.cur.seg && u.live == 0 && !in_queue[*s])
            .count() as u32;
        assert_eq!(self.free_segments(), free, "maintained free-segment count drifted");
        for (seg, u) in self.usage.iter().enumerate() {
            let want = if in_queue[seg] { Queued::holding(u.live) } else { Queued::No };
            assert_eq!(self.seal.queued[seg].get(), want, "seal flag of segment {seg} drifted");
        }
    }

    /// Segment utilization snapshot (live fraction per segment).
    pub fn utilization(&self) -> Vec<f64> {
        let cap = (self.payload_per_seg() as u64 * BLOCK_SIZE as u64) as f64;
        self.usage.iter().map(|u| u.live as f64 / cap).collect()
    }

    fn payload_per_seg(&self) -> u32 {
        self.sb.seg_blocks - 1
    }

    fn seg_start(&self, seg: u32) -> u64 {
        DATA_START + seg as u64 * self.sb.seg_blocks as u64
    }

    fn seg_of(&self, addr: BlockAddr) -> u32 {
        ((addr.0 - DATA_START) / self.sb.seg_blocks as u64) as u32
    }

    /// Whether `seg` holds imap/usage blocks of the on-disk checkpoint.
    fn holds_ckpt_meta(&self, seg: u32) -> bool {
        let start = self.seg_start(seg);
        let end = start + self.sb.seg_blocks as u64;
        self.ckpt_meta.iter().any(|&a| a >= start && a < end)
    }

    fn payload_addr(&self, seg: u32, idx: usize) -> BlockAddr {
        BlockAddr(self.seg_start(seg) + 1 + idx as u64)
    }

    fn now_ns(&self) -> u64 {
        self.handle.now().as_nanos()
    }

    /// Charges `bytes` of live data to a segment.
    fn usage_add(&mut self, seg: u32, bytes: u32) {
        let seg = seg as usize;
        self.set_live(seg, self.usage[seg].live + bytes);
        self.usage.set_mtime(seg, self.now_ns());
    }

    /// Releases `bytes` of live data from the segment holding `addr`.
    fn supersede(&mut self, addr: BlockAddr, bytes: u32) {
        if !addr.is_some() || addr.0 < DATA_START {
            return;
        }
        let seg = self.seg_of(addr) as usize;
        // Off-device addresses can only come from corrupt pointers; the
        // fsck walker reports them — never let them panic the engine.
        let Some(u) = self.usage.get(seg) else { return };
        self.set_live(seg, u.live.saturating_sub(bytes));
    }

    fn imap_get(&self, ino: Ino) -> Option<(BlockAddr, usize)> {
        let v = *self.imap.get(ino.0 as usize)?;
        if v == IMAP_NONE {
            None
        } else {
            Some(imap_unpack(v))
        }
    }

    fn imap_set(&mut self, ino: Ino, v: u64) {
        let idx = ino.0 as usize;
        if idx >= self.imap.len() {
            self.imap.resize(idx + 1, IMAP_NONE);
        }
        self.imap[idx] = v;
    }

    /// Appends one payload block to the log; may flush the segment.
    /// Not `async`: nothing between a checkpoint's usage appends yields
    /// (see `checkpoint_inner`).
    fn append_block(&mut self, entry: SumEntry, payload: Payload) -> LResult<BlockAddr> {
        if self.cur.entries.len() >= self.payload_per_seg() as usize {
            self.roll_segment()?;
        }
        let idx = self.cur.entries.len();
        let addr = self.payload_addr(self.cur.seg, idx);
        // Inode blocks are charged per packed inode (INODE_SIZE each) by
        // `append_inode`, so a block whose inodes all die frees fully;
        // usage blocks by the checkpoint, once it has encoded them all.
        if !matches!(entry, SumEntry::InodeBlock | SumEntry::Usage) {
            self.usage_add(self.cur.seg, BLOCK_SIZE);
        }
        self.cur.entries.push((entry, payload));
        Ok(addr)
    }

    /// Seals the current segment and opens a free one.
    fn roll_segment(&mut self) -> LResult<()> {
        self.flush_current()?;
        let next = self.pick_free_segment()?;
        self.cur.seg = next;
        Ok(())
    }

    /// Seals the current segment: queues it, summary and payloads, for
    /// the writer task, and returns without touching the device.
    fn flush_current(&mut self) -> LResult<()> {
        if self.cur.entries.is_empty() {
            return Ok(());
        }
        self.close_open_inode();
        self.log_seq += 1;
        // The segment stays staged (its frames readable through
        // `staged_block`, its writes exported by `staged_writes`) until
        // the write lands.
        let seal = &self.seal;
        if let Some(e) = seal.failed.borrow().clone() {
            return Err(e);
        }
        let header = [self.sb.gen, self.epoch, self.log_seq];
        let summary = summary_block(header, self.cur.entries.iter().map(|(e, _)| *e));
        let room = Vec::with_capacity(self.payload_per_seg() as usize);
        let job = PendingSeal {
            seg: self.cur.seg,
            start: self.seg_start(self.cur.seg),
            summary,
            entries: std::mem::replace(&mut self.cur.entries, room),
        };
        seal.mark(self.cur.seg, Queued::holding(self.usage[self.cur.seg as usize].live));
        seal.pending.borrow_mut().push_back(Rc::new(job));
        seal.work.signal();
        self.stats.segments_written += 1;
        self.stats.meta_writes += 1; // Summary block.
        Ok(())
    }

    /// Closes the open packed-inode block, keeping its slot list for
    /// the next one.
    fn close_open_inode(&mut self) {
        if let Some(open) = self.cur.open_inode.take() {
            self.spare_inos = open.inos;
            self.spare_inos.clear();
        }
    }

    /// Writes `inode` into slot `slot` of the open packed-inode block,
    /// entry `slot_idx` of the current segment, and points the inode map
    /// at it.
    fn put_open_slot(&mut self, slot_idx: usize, slot: usize, inode: &Inode) {
        let Payload::Data(Blocks::One(block)) = &mut self.cur.entries[slot_idx].1 else {
            unreachable!("a packed-inode block carries bytes")
        };
        let off = slot * INODE_SIZE;
        block.make_mut()[off..off + INODE_SIZE].copy_from_slice(&inode.to_bytes());
        let addr = self.payload_addr(self.cur.seg, slot_idx);
        self.imap_set(inode.ino, imap_pack(addr, slot));
        self.usage_add(self.cur.seg, INODE_SIZE as u32);
    }

    /// Waits until every sealed segment is on the media.
    async fn drain_seals(&self) -> LResult<()> {
        let seal = &self.seal;
        loop {
            if let Some(e) = seal.failed.borrow().clone() {
                return Err(e);
            }
            if seal.pending.borrow().is_empty() {
                return Ok(());
            }
            seal.done.wait().await;
        }
    }

    /// Seals the current (possibly partial) segment and waits until the
    /// seal writer has put it on the media, with no checkpoint: the
    /// roll-forward tests' way to leave log past the last checkpoint.
    #[cfg(test)]
    async fn flush_staged(&mut self) -> LResult<()> {
        if !self.cur.entries.is_empty() {
            self.roll_segment()?;
        }
        self.drain_seals().await
    }

    /// Exports the staging buffer as the exact device writes that would
    /// seal it — summary first at the segment head, payloads behind —
    /// without touching the device. Crash capture applies these to the
    /// captured image when the staging segment is battery-backed, so a
    /// cut that killed the disk and one that left it alive save the
    /// same bytes.
    fn staged_writes(&self) -> Vec<(BlockAddr, Payload)> {
        // Sealed-but-unwritten segments are still staging: capture must
        // apply them too.
        let mut queued: Vec<(BlockAddr, Payload)> = Vec::new();
        for p in self.seal.pending.borrow().iter() {
            queued.push((BlockAddr(p.start), p.summary.clone().into()));
            for (i, (_, pl)) in p.entries.iter().enumerate() {
                queued.push((BlockAddr(p.start + 1 + i as u64), pl.clone()));
            }
        }
        if self.cur.entries.is_empty() {
            return queued;
        }
        let header = [self.sb.gen, self.epoch, self.log_seq + 1];
        let start = self.seg_start(self.cur.seg);
        let summary = summary_block(header, self.cur.entries.iter().map(|(e, _)| *e));
        queued.push((BlockAddr(start), summary.into()));
        let entries = self.cur.entries.iter().enumerate();
        queued.extend(entries.map(|(i, (_, p))| (BlockAddr(start + 1 + i as u64), p.clone())));
        queued
    }

    fn pick_free_segment(&self) -> LResult<u32> {
        let n = self.sb.nsegs;
        for off in 1..=n {
            let s = (self.cur.seg + off) % n;
            if s != self.cur.seg && self.segment_is_free(s) && !self.protected_segs.contains(&s) {
                return Ok(s);
            }
        }
        Err(LayoutError::NoSpace)
    }

    /// Ensures free segments before a write burst, cleaning if needed.
    async fn ensure_space(&mut self) -> LResult<()> {
        if self.cleaning {
            return Ok(());
        }
        #[cfg(debug_assertions)]
        self.assert_segment_state();
        if self.free_segments() >= self.params.clean_low_water {
            return Ok(());
        }
        self.cleaning = true;
        let result = self.clean_until(self.params.clean_high_water).await;
        self.cleaning = false;
        result
    }

    /// Runs the cleaner until `target` segments are free (public for the
    /// cleaner ablation and the `lfs_cleaner` example).
    ///
    /// Cleaning consumes log space for the moved live blocks, so a round
    /// may not net-gain free segments; the loop gives up after several
    /// rounds without a new best free count rather than spinning. Against
    /// the best, not the last: a count that swings up and down (20, 21,
    /// 20, 21, ... on an unreachable target) must not reset the counter
    /// forever. The best can rise at most `nsegs` times, so this returns.
    pub async fn clean_until(&mut self, target: u32) -> LResult<()> {
        let mut best_free = self.free_segments();
        let mut stalled = 0u32;
        while self.free_segments() < target {
            let Some(victim) = self.pick_victim() else { break };
            self.clean_segment(victim).await?;
            let now_free = self.free_segments();
            if now_free <= best_free {
                stalled += 1;
                if stalled >= 8 {
                    break;
                }
            } else {
                stalled = 0;
                best_free = now_free;
            }
        }
        Ok(())
    }

    /// Picks a cleaner victim under the configured policy.
    fn pick_victim(&self) -> Option<u32> {
        let cap = self.payload_per_seg() as u64 * BLOCK_SIZE as u64;
        let now = self.now_ns();
        let mut best: Option<(f64, u32)> = None;
        for (s, u) in self.usage.iter().enumerate() {
            let s = s as u32;
            // A sealed-but-unwritten segment cannot be cleaned: its
            // bytes are not on the media yet.
            if s == self.cur.seg || u.live == 0 || self.seal.holds(s) {
                continue;
            }
            // Never clean a segment holding live checkpoint metadata: the
            // on-disk checkpoint still references those addresses.
            if self.holds_ckpt_meta(s) {
                continue;
            }
            let u_frac = (u.live as f64 / cap as f64).min(1.0);
            if u_frac >= 0.999 {
                continue; // Nothing to gain.
            }
            let score = match self.params.cleaner {
                CleanerPolicy::Greedy => 1.0 - u_frac,
                CleanerPolicy::CostBenefit => {
                    let age = (now.saturating_sub(u.mtime)) as f64 / 1e9 + 1.0;
                    (1.0 - u_frac) * age / (1.0 + u_frac)
                }
            };
            if best.map(|(b, _)| score > b).unwrap_or(true) {
                best = Some((score, s));
            }
        }
        best.map(|(_, s)| s)
    }

    /// Moves every live block out of `seg`, leaving it free.
    async fn clean_segment(&mut self, seg: u32) -> LResult<()> {
        let sp = self.handle.trace_span("layout:clean-seg");
        let r = self.clean_segment_inner(seg).await;
        self.handle.trace_exit(sp);
        r
    }

    async fn clean_segment_inner(&mut self, seg: u32) -> LResult<()> {
        let sum_payload = self.io.read_block(BlockAddr(self.seg_start(seg))).await?;
        self.stats.meta_reads += 1;
        let bytes =
            sum_payload.block(0).ok_or_else(|| LayoutError::Corrupt("summary lost".into()))?;
        let summary = summary_from_block(bytes)?;
        if summary.gen != self.sb.gen {
            // Stale summary from another format: nothing here is live.
            self.set_live(seg as usize, 0);
            return Ok(());
        }
        for (idx, entry) in summary.entries.into_iter().enumerate() {
            let addr = self.payload_addr(seg, idx);
            match entry {
                SumEntry::Free | SumEntry::Imap | SumEntry::Usage => {
                    // Imap/usage here are from *old* checkpoints (live ones
                    // exclude the segment from victimhood): dead.
                }
                SumEntry::Data { ino, fblk } => {
                    self.clean_data_block(Ino(ino), fblk, addr).await?;
                }
                SumEntry::Indirect { ino } => {
                    self.clean_indirect_block(Ino(ino), addr).await?;
                }
                SumEntry::InodeBlock => {
                    self.clean_inode_block(addr).await?;
                }
            }
        }
        self.set_live(seg as usize, 0);
        self.stats.segments_cleaned += 1;
        Ok(())
    }

    async fn clean_data_block(&mut self, ino: Ino, fblk: u64, addr: BlockAddr) -> LResult<()> {
        let Some(_) = self.imap_get(ino) else { return Ok(()) };
        let mut inode = self.get_inode(ino).await?;
        let mapped = self.map_block(&inode, fblk).await?;
        if mapped != Some(addr) {
            return Ok(()); // Superseded: dead.
        }
        let payload = self.io.read_block(addr).await?;
        self.stats.data_reads += 1;
        // Inner write path: the cleaner must not re-enter ensure_space.
        self.write_blocks_inner(&mut inode, &mut vec![(fblk, payload)]).await?;
        self.relocated.insert(ino.0);
        self.stale_pointers.insert(ino.0);
        self.stats.cleaner_moved += 1;
        Ok(())
    }

    async fn clean_indirect_block(&mut self, ino: Ino, addr: BlockAddr) -> LResult<()> {
        let Some(_) = self.imap_get(ino) else { return Ok(()) };
        let mut inode = self.get_inode(ino).await?;
        if inode.indirect != addr {
            return Ok(());
        }
        let table = self.load_indirect(addr).await?;
        let new_addr = self.append_indirect(ino, &table).await?;
        self.supersede(addr, BLOCK_SIZE);
        inode.indirect = new_addr;
        self.put_inode(&inode).await?;
        self.relocated.insert(ino.0);
        self.stale_pointers.insert(ino.0);
        self.stats.cleaner_moved += 1;
        Ok(())
    }

    async fn clean_inode_block(&mut self, addr: BlockAddr) -> LResult<()> {
        let payload = self.io.read_block(addr).await?;
        self.stats.meta_reads += 1;
        let bytes = payload
            .block(0)
            .ok_or_else(|| LayoutError::Corrupt("inode block lost".into()))?
            .clone();
        for slot in 0..INODES_PER_BLOCK {
            let off = slot * INODE_SIZE;
            let Some(inode) = Inode::from_bytes(&bytes[off..off + INODE_SIZE]) else {
                continue;
            };
            if self.imap_get(inode.ino) == Some((addr, slot)) {
                // Still the live copy: re-append it.
                let ino = inode.ino;
                self.put_inode(&inode).await?;
                self.relocated.insert(ino.0);
                self.stale_pointers.insert(ino.0);
                self.stats.cleaner_moved += 1;
            }
        }
        Ok(())
    }

    /// Loads an indirect pointer table (cached; log blocks are immutable).
    async fn load_indirect(&mut self, addr: BlockAddr) -> LResult<Rc<[u64]>> {
        if let Some(t) = self.indirect.get(&addr.0) {
            return Ok(t.clone());
        }
        let payload = self.meta_block(addr).await?;
        let bytes =
            payload.block(0).ok_or_else(|| LayoutError::Corrupt("indirect block lost".into()))?;
        Ok(self.cache_indirect(addr, |table| {
            for (i, v) in table.iter_mut().enumerate() {
                *v = crate::types::codec::get_u64(bytes, i * 8);
            }
        }))
    }

    /// The metadata block at `addr`: shared from staging (the unflushed
    /// segment, or one queued at the seal writer) while it is there,
    /// else read from the media.
    async fn meta_block(&mut self, addr: BlockAddr) -> LResult<Payload> {
        if let Some(payload) = self.staged_block(addr) {
            return Ok(payload);
        }
        let payload = self.io.read_block(addr).await?;
        self.stats.meta_reads += 1;
        Ok(payload)
    }

    /// Caches the indirect table at `addr`, which `fill` writes over a
    /// table of `NINDIRECT` slots, evicting the oldest entry first when
    /// the cache is full. The
    /// evicted table's storage holds the new one when nothing else still
    /// holds it, so a full cache allocates no table.
    fn cache_indirect(&mut self, addr: BlockAddr, fill: impl FnOnce(&mut [u64])) -> Rc<[u64]> {
        let mut spare = None;
        if self.indirect_fifo.len() >= INDIRECT_CACHE_CAP {
            let evict = self.indirect_fifo.pop_front().expect("the cache is full");
            spare = self.indirect.remove(&evict).filter(|t| Rc::strong_count(t) == 1);
        }
        let mut table = spare.unwrap_or_else(|| (0..NINDIRECT).map(|_| 0).collect());
        fill(Rc::get_mut(&mut table).expect("a fresh or unshared table"));
        self.indirect_fifo.push_back(addr.0);
        self.indirect.insert(addr.0, table.clone());
        table
    }

    /// Appends a new indirect block of file `ino` holding `table`. The
    /// summary entry names the owner: that is how the cleaner finds the
    /// inode to ask whether the block is still live.
    async fn append_indirect(&mut self, ino: Ino, table: &[u64]) -> LResult<BlockAddr> {
        let mut block = Block::zeroed();
        let bytes = block.make_mut();
        for (i, v) in table.iter().enumerate() {
            crate::types::codec::put_u64(bytes, i * 8, *v);
        }
        let entry = SumEntry::Indirect { ino: ino.0 };
        let addr = self.append_block(entry, block.into())?;
        self.stats.meta_writes += 1;
        self.cache_indirect(addr, |t| t.copy_from_slice(table));
        Ok(addr)
    }

    /// Appends an inode into the current packed-inode block.
    async fn append_inode(&mut self, inode: &Inode) -> LResult<()> {
        // Release the previous location.
        if let Some((old_addr, _slot)) = self.imap_get(inode.ino) {
            self.supersede(old_addr, INODE_SIZE as u32);
        }
        // Overwrite in the open block if this ino is already there.
        if let Some(open) = &self.cur.open_inode {
            if let Some(slot) = open.inos.iter().position(|&i| i == inode.ino.0) {
                let slot_idx = open.slot_idx;
                self.put_open_slot(slot_idx, slot, inode);
                return Ok(());
            }
        }
        let need_new = match &self.cur.open_inode {
            None => true,
            Some(open) => open.inos.len() >= INODES_PER_BLOCK,
        };
        if need_new {
            self.close_open_inode();
            // A zeroed block, written in place from here.
            let before_seg = self.cur.seg;
            let block = Block::zeroed().into();
            let _addr = self.append_block(SumEntry::InodeBlock, block)?;
            // `append_block` may have rolled the segment; the new block
            // lives in the (possibly new) current segment's last slot.
            debug_assert!(self.cur.seg == before_seg || self.cur.entries.len() == 1);
            let slot_idx = self.cur.entries.len() - 1;
            let inos = std::mem::take(&mut self.spare_inos);
            self.cur.open_inode = Some(OpenInodeBlock { slot_idx, inos });
            self.stats.meta_writes += 1;
        }
        let open = self.cur.open_inode.as_mut().expect("just ensured");
        let (slot_idx, slot) = (open.slot_idx, open.inos.len());
        open.inos.push(inode.ino.0);
        self.put_open_slot(slot_idx, slot, inode);
        self.stats.meta_writes += 1;
        Ok(())
    }

    /// Reads the slot-`slot` inode from the block at `addr`.
    async fn read_inode_at(&mut self, addr: BlockAddr, slot: usize) -> LResult<Inode> {
        // The block may still be staged: the open packed-inode block, or
        // another in the unflushed segment or in one queued at the seal
        // writer.
        let payload = self.meta_block(addr).await?;
        let bytes =
            payload.block(0).ok_or_else(|| LayoutError::Corrupt("inode block lost".into()))?;
        Inode::from_bytes(&bytes[slot * INODE_SIZE..(slot + 1) * INODE_SIZE])
            .ok_or_else(|| LayoutError::Corrupt(format!("bad inode at {addr}/{slot}")))
    }

    /// Takes a checkpoint: push imap + usage into the log, then write the
    /// alternating checkpoint region.
    async fn checkpoint(&mut self) -> LResult<()> {
        let sp = self.handle.trace_span("layout:checkpoint");
        let r = self.checkpoint_inner().await;
        self.handle.trace_exit(sp);
        r
    }

    async fn checkpoint_inner(&mut self) -> LResult<()> {
        // Seal the current segment; appends below go to a fresh one.
        if !self.cur.entries.is_empty() {
            self.roll_segment()?;
        }
        // Supersede the previous checkpoint's metadata blocks.
        let mut meta = std::mem::take(&mut self.ckpt_meta);
        for &a in &meta {
            self.supersede(BlockAddr(a), BLOCK_SIZE);
        }
        meta.clear();
        // Append imap blocks.
        let (mut imap_addrs, mut usage_addrs) = std::mem::take(&mut self.ckpt_addrs);
        imap_addrs.clear();
        usage_addrs.clear();
        for i in 0..self.imap.len().div_ceil(IMAP_PER_BLOCK) {
            let block = imap_block(&self.imap, i).into();
            let addr = self.append_block(SumEntry::Imap, block)?;
            self.stats.meta_writes += 1;
            imap_addrs.push(addr.0);
        }
        // Pre-account the usage blocks we are about to append so the
        // serialized table includes them: the current segment's free
        // slots, then (approximately; see module docs) the next free
        // segment for the rest, however many rolls they take.
        let n_usage = self.usage.chunks();
        let here = n_usage.min(self.payload_per_seg() as usize - self.cur.entries.len());
        let next = if here < n_usage { self.pick_free_segment()? as usize } else { 0 };
        let charges: Charges = [
            (self.cur.seg as usize, here as u32 * BLOCK_SIZE),
            (next, (n_usage - here) as u32 * BLOCK_SIZE),
        ];
        #[cfg(test)]
        {
            self.projection = (self.usage.iter().copied().collect(), charges);
        }
        // `append_block` leaves usage blocks uncharged and never yields,
        // so each block encodes the table as it stands here; a chunk
        // that no write and no charge touched since it was last encoded
        // goes out as its kept block. The appends are charged after.
        for i in 0..n_usage {
            let block = self.usage.block(i, &charges).into();
            let addr = self.append_block(SumEntry::Usage, block)?;
            self.stats.meta_writes += 1;
            usage_addrs.push(addr.0);
        }
        for &a in &usage_addrs {
            self.usage_add(self.seg_of(BlockAddr(a)), BLOCK_SIZE);
        }
        // Metadata must be durable before the checkpoint references it —
        // including any segments still queued at the seal writer.
        self.flush_current()?;
        self.drain_seals().await?;
        // The closing pick reopens the log at the first segment the
        // table just serialized shows free: `scan_log_tail` stops at
        // such a segment, so nothing else may make this pick skip one.
        // The seal queue is empty now, and recovery's protection has
        // done its job — nothing is written to the picked segment
        // before the checkpoint below is durable.
        self.protected_segs.clear();
        self.cur.seg = self.pick_free_segment()?;
        meta.extend(imap_addrs.iter().chain(&usage_addrs));
        self.ckpt_meta = meta;
        self.ckpt_seq += 1;
        let ckpt = Checkpoint {
            seq: self.ckpt_seq,
            next_ino: self.next_ino,
            gen: self.sb.gen,
            epoch: self.epoch,
            log_seq: self.log_seq,
            imap_addrs,
            usage_addrs,
        };
        let region = CKPT_ADDRS[(self.ckpt_seq % 2) as usize];
        let block = ckpt.to_block();
        self.ckpt_addrs = (ckpt.imap_addrs, ckpt.usage_addrs);
        self.io.write_block(region, block.into()).await?;
        self.stats.meta_writes += 1;
        self.stats.checkpoints += 1;
        Ok(())
    }
}

impl StorageLayout for LfsLayout {
    fn name(&self) -> &'static str {
        "lfs"
    }

    async fn format(&mut self) -> LResult<()> {
        // The format generation stamps every summary and checkpoint so
        // stale structures from an earlier format can never be trusted
        // (notably: the *other* alternating checkpoint region).
        self.sb.gen = format_gen(self.now_ns(), self.sb.nsegs, self.sb.seg_blocks);
        self.io.write_block(structs::SB_ADDR, self.sb.to_block().into()).await?;
        self.imap = vec![IMAP_NONE; 2];
        self.replace_usage(UsageTable::fresh(self.sb.nsegs as usize));
        self.next_ino = 2;
        self.ckpt_seq = 0;
        self.epoch = 1;
        self.log_seq = 0;
        self.ckpt_meta.clear();
        self.cur = SegBuilder { seg: 0, entries: Vec::new(), open_inode: None };
        self.mounted = true;
        // Root directory.
        let mut root = Inode::new(Ino::ROOT, FileKind::Directory);
        root.mtime = self.now_ns();
        self.append_inode(&root).await?;
        self.checkpoint().await?;
        Ok(())
    }

    async fn mount(&mut self) -> LResult<()> {
        self.load_state().await?;
        // Seal the new epoch immediately: post-mount segments are then
        // distinguishable from any stale pre-mount ones, and the next
        // crash rolls forward from here.
        self.checkpoint().await?;
        Ok(())
    }

    async fn recover(&mut self) -> LResult<RecoveryStats> {
        let ckpt = self.load_state().await?;
        let mut stats = RecoveryStats::default();

        // 1. Walk the log tail for intact post-checkpoint segments. The
        //    summary checksum plus payload-before-summary write ordering
        //    make "summary parses and is young" imply "segment intact".
        let (young, scanned) = self.scan_log_tail(&ckpt).await?;
        stats.scanned_segments = scanned;
        stats.rolled_segments = young.len() as u64;

        // 2. Roll forward in log order: inode blocks update the inode
        //    map (later wins); data blocks are remembered so pointers
        //    the crash separated from their inode append can be patched.
        let mut last_data: BTreeMap<(u64, u64), BlockAddr> = BTreeMap::new();
        for (seq, seg, entries) in &young {
            self.log_seq = self.log_seq.max(*seq);
            for (idx, entry) in entries.iter().enumerate() {
                let addr = self.payload_addr(*seg, idx);
                match entry {
                    SumEntry::InodeBlock => {
                        let Ok(payload) = self.io.read_block(addr).await else { continue };
                        self.stats.meta_reads += 1;
                        let Some(bytes) = payload.block(0) else { continue };
                        for slot in 0..INODES_PER_BLOCK {
                            let off = slot * INODE_SIZE;
                            if bytes.len() < off + INODE_SIZE {
                                break;
                            }
                            let Some(inode) = Inode::from_bytes(&bytes[off..off + INODE_SIZE])
                            else {
                                continue;
                            };
                            self.imap_set(inode.ino, imap_pack(addr, slot));
                            self.next_ino = self.next_ino.max(inode.ino.0 + 1);
                            stats.recovered_inodes += 1;
                        }
                    }
                    SumEntry::Data { ino, fblk } => {
                        last_data.insert((*ino, *fblk), addr);
                    }
                    SumEntry::Indirect { .. }
                    | SumEntry::Imap
                    | SumEntry::Usage
                    | SumEntry::Free => {}
                }
            }
        }

        // 3. Rebuild the segment-usage table from the recovered metadata
        //    so free-segment selection cannot overwrite rolled state.
        //    Young segments stay off-limits for recovery's own appends:
        //    a segment holding only orphan data blocks (inode append
        //    lost) charges nothing yet looks free — opening it would
        //    overwrite the very blocks step 4 patches pointers to.
        self.rebuild_usage().await?;
        self.protected_segs = young.iter().map(|&(_, seg, _)| seg).collect();
        self.cur = SegBuilder { seg: 0, entries: Vec::new(), open_inode: None };
        self.cur.seg = self.pick_free_segment()?;
        self.mounted = true;

        // 4. Patch pointers for data blocks whose inode append the crash
        //    cut off (only possible in the tail of the young log).
        let mut by_ino: BTreeMap<u64, Vec<(u64, BlockAddr)>> = BTreeMap::new();
        for ((ino, fblk), addr) in last_data {
            by_ino.entry(ino).or_default().push((fblk, addr));
        }
        for (ino, blocks) in by_ino {
            if self.imap_get(Ino(ino)).is_none() {
                continue; // No durable inode at all: the file never made it.
            }
            let Ok(mut inode) = self.get_inode(Ino(ino)).await else { continue };
            let mut table: Option<Vec<u64>> = None;
            let mut table_dirty = false;
            let mut inode_dirty = false;
            for (fblk, addr) in blocks {
                let Some(slot) = block_slot(fblk) else { continue };
                if self.map_block(&inode, fblk).await? == Some(addr) {
                    continue; // The inode append made it: nothing to patch.
                }
                match slot {
                    BlockSlot::Direct(i) => {
                        self.supersede(inode.direct[i], BLOCK_SIZE);
                        inode.direct[i] = addr;
                    }
                    BlockSlot::Indirect(s) => {
                        if table.is_none() {
                            table = Some(if inode.indirect.is_some() {
                                self.load_indirect(inode.indirect).await?.to_vec()
                            } else {
                                vec![BlockAddr::NONE.0; NINDIRECT]
                            });
                        }
                        let t = table.as_mut().expect("just set");
                        if t[s] != BlockAddr::NONE.0 {
                            self.supersede(BlockAddr(t[s]), BLOCK_SIZE);
                        }
                        t[s] = addr.0;
                        table_dirty = true;
                    }
                }
                self.usage_add(self.seg_of(addr), BLOCK_SIZE);
                // The write implied the file covered this block.
                inode.size = inode.size.max((fblk + 1) * BLOCK_SIZE as u64);
                inode_dirty = true;
                stats.patched_blocks += 1;
            }
            if table_dirty {
                let t = table.expect("dirty implies loaded");
                let new_addr = self.append_indirect(inode.ino, &t).await?;
                self.supersede(inode.indirect, BLOCK_SIZE);
                inode.indirect = new_addr;
            }
            if inode_dirty {
                self.append_inode(&inode).await?;
            }
        }

        // 5. Seal recovery: the checkpoint makes it durable and bumps
        //    the log past everything replayed, so recovery is idempotent.
        //    Patched blocks are charged now, so the young segments that
        //    still matter have live > 0; the rest are genuinely free.
        self.checkpoint().await?;
        Ok(stats)
    }

    async fn unmount(&mut self) -> LResult<()> {
        self.checkpoint().await?;
        self.mounted = false;
        Ok(())
    }

    async fn sync(&mut self) -> LResult<()> {
        self.checkpoint().await
    }

    fn alloc_ino(&mut self, kind: FileKind, now_ns: u64) -> LResult<Inode> {
        let ino = Ino(self.next_ino);
        self.next_ino += 1;
        let mut inode = Inode::new(ino, kind);
        inode.mtime = now_ns;
        Ok(inode)
    }

    async fn get_inode(&mut self, ino: Ino) -> LResult<Inode> {
        let (addr, slot) = self.imap_get(ino).ok_or(LayoutError::BadInode(ino))?;
        self.read_inode_at(addr, slot).await
    }

    async fn put_inode(&mut self, inode: &Inode) -> LResult<()> {
        self.append_inode(inode).await
    }

    async fn free_inode(&mut self, ino: Ino) -> LResult<()> {
        let inode = self.get_inode(ino).await?;
        // Release data blocks.
        for d in inode.direct {
            self.supersede(d, BLOCK_SIZE);
        }
        if inode.indirect.is_some() {
            let table = self.load_indirect(inode.indirect).await?;
            for &v in table.iter() {
                if v != BlockAddr::NONE.0 {
                    self.supersede(BlockAddr(v), BLOCK_SIZE);
                }
            }
            self.supersede(inode.indirect, BLOCK_SIZE);
        }
        if let Some((addr, _slot)) = self.imap_get(ino) {
            self.supersede(addr, INODE_SIZE as u32);
        }
        self.imap_set(ino, IMAP_NONE);
        Ok(())
    }

    async fn map_block(&mut self, inode: &Inode, blk: u64) -> LResult<Option<BlockAddr>> {
        match block_slot(blk).ok_or(LayoutError::FileTooBig(blk))? {
            BlockSlot::Direct(i) => {
                Ok(if inode.direct[i].is_some() { Some(inode.direct[i]) } else { None })
            }
            BlockSlot::Indirect(s) => {
                if !inode.indirect.is_some() {
                    return Ok(None);
                }
                let table = self.load_indirect(inode.indirect).await?;
                let v = table[s];
                Ok(if v == BlockAddr::NONE.0 { None } else { Some(BlockAddr(v)) })
            }
        }
    }

    fn staged_image(&self) -> Vec<(BlockAddr, Payload)> {
        self.staged_writes()
    }

    fn staged_block(&self, addr: BlockAddr) -> Option<Payload> {
        let seg_start = self.seg_start(self.cur.seg);
        if addr.0 > seg_start && addr.0 <= seg_start + self.payload_per_seg() as u64 {
            let idx = (addr.0 - seg_start - 1) as usize;
            if idx < self.cur.entries.len() {
                return Some(self.cur.entries[idx].1.clone());
            }
        }
        // Sealed segments still queued at the writer serve reads from
        // staging until their media write lands.
        let pending = self.seal.pending.borrow();
        let p = pending
            .iter()
            .find(|p| addr.0 > p.start && addr.0 <= p.start + p.entries.len() as u64)?;
        Some(p.entries[(addr.0 - p.start - 1) as usize].1.clone())
    }

    async fn read_file_block(&mut self, inode: &Inode, blk: u64) -> LResult<Option<Payload>> {
        let Some(addr) = self.map_block(inode, blk).await? else { return Ok(None) };
        // Serve from staging if the block has not reached the media yet
        // (the open segment, or one queued at the seal writer).
        if let Some(p) = self.staged_block(addr) {
            return Ok(Some(p));
        }
        self.stats.data_reads += 1;
        Ok(Some(self.io.read_block(addr).await?))
    }

    async fn write_file_blocks_from(
        &mut self,
        inode: &mut Inode,
        blocks: &mut Vec<(u64, Payload)>,
    ) -> LResult<()> {
        let sp = self.handle.trace_span("layout:write");
        if let Err(e) = self.ensure_space().await {
            blocks.clear();
            return Err(e);
        }
        let r = self.write_blocks_inner(inode, blocks).await;
        self.handle.trace_exit(sp);
        r
    }

    async fn truncate(&mut self, inode: &mut Inode, new_blocks: u64) -> LResult<()> {
        self.truncate_inner(inode, new_blocks).await
    }

    fn allocated_inos(&self) -> Vec<Ino> {
        (0..self.imap.len() as u64).map(Ino).filter(|&i| self.imap_get(i).is_some()).collect()
    }

    fn stats(&self) -> LayoutStats {
        self.stats
    }

    fn take_relocated(&mut self) -> Vec<Ino> {
        std::mem::take(&mut self.relocated).into_iter().map(Ino).collect()
    }

    fn driver(&self) -> &DiskDriver {
        self.io.driver()
    }
}

/// Deterministic format-generation stamp (a function of format time and
/// geometry, so identical sim histories stay bit-identical).
fn format_gen(now_ns: u64, nsegs: u32, seg_blocks: u32) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for v in [now_ns, nsegs as u64, seg_blocks as u64, 0x1f5_9e37] {
        for byte in v.to_le_bytes() {
            h ^= byte as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

impl LfsLayout {
    /// Loads superblock + newest matching checkpoint and restores the
    /// in-memory state, entering a fresh mount epoch. Shared by `mount`
    /// and `recover`; neither trusts anything not reachable from the
    /// checkpoint until recovery says otherwise.
    async fn load_state(&mut self) -> LResult<Checkpoint> {
        let sb_payload = self.io.read_block(structs::SB_ADDR).await?;
        let sb_bytes = sb_payload.block(0).ok_or(LayoutError::NotFormatted)?;
        let sb = SuperBlock::from_block(sb_bytes)?;
        if sb.seg_blocks != self.sb.seg_blocks || sb.nsegs != self.sb.nsegs {
            return Err(LayoutError::Corrupt("superblock geometry mismatch".into()));
        }
        self.sb.gen = sb.gen;
        // Pick the newer valid checkpoint of this format generation; a
        // stale region surviving from a previous format loses here.
        let mut best: Option<Checkpoint> = None;
        for region in CKPT_ADDRS {
            let payload = self.io.read_block(region).await?;
            if let Some(bytes) = payload.block(0) {
                if let Some(c) = Checkpoint::from_block(bytes) {
                    if c.gen == sb.gen && best.as_ref().map(|b| c.seq > b.seq).unwrap_or(true) {
                        best = Some(c);
                    }
                }
            }
        }
        let ckpt = best.ok_or(LayoutError::NotFormatted)?;
        let mut imap_blocks = Vec::new();
        for &a in &ckpt.imap_addrs {
            let p = self.io.read_block(BlockAddr(a)).await?;
            self.stats.meta_reads += 1;
            imap_blocks
                .push(p.block(0).ok_or_else(|| LayoutError::Corrupt("imap lost".into()))?.clone());
        }
        let mut usage_blocks = Vec::with_capacity(ckpt.usage_addrs.len());
        for &a in &ckpt.usage_addrs {
            let p = self.io.read_block(BlockAddr(a)).await?;
            self.stats.meta_reads += 1;
            usage_blocks
                .push(p.block(0).ok_or_else(|| LayoutError::Corrupt("usage lost".into()))?.clone());
        }
        self.imap = imap_from_blocks(&imap_blocks)?;
        self.replace_usage(UsageTable::decode(self.sb.nsegs as usize, &usage_blocks)?);
        self.next_ino = ckpt.next_ino;
        self.ckpt_seq = ckpt.seq;
        self.epoch = ckpt.epoch + 1;
        self.log_seq = ckpt.log_seq;
        self.ckpt_meta = ckpt.imap_addrs.iter().chain(ckpt.usage_addrs.iter()).copied().collect();
        self.cur = SegBuilder { seg: 0, entries: Vec::new(), open_inode: None };
        self.cur.seg = self.pick_free_segment()?;
        self.indirect.clear();
        self.indirect_fifo.clear();
        self.mounted = true;
        Ok(ckpt)
    }

    /// Reads the log tail: every intact segment sealed after `ckpt`, as
    /// `(seq, seg, entries)` in log order, plus the number of summary
    /// blocks the walk read.
    ///
    /// The walk is bounded by the checkpoint, not by the disk. It
    /// starts one past the segment holding the checkpoint's last usage
    /// block — the segment sealed with `seq == ckpt.log_seq`, where the
    /// checkpoint's closing pick started probing — and stops at the
    /// first segment that was free at the checkpoint and whose summary
    /// reads fine but is not young. Three facts make that stop sound:
    ///
    /// 1. `pick_free_segment` probes the ring upward from the sealed
    ///    segment and takes the *first* free one, and since the
    ///    checkpoint nothing but liveness makes it skip a segment (the
    ///    seal queue is drained and recovery's protection lifted before
    ///    the checkpoint's closing pick);
    /// 2. a segment free at the checkpoint stays free until the log
    ///    itself writes it (the cleaner and deletions only free more);
    /// 3. seals reach the media in log order, payloads before summary
    ///    (one writer task serves the seal queue in order, and
    ///    `staged_writes` exports it in the same order).
    ///
    /// So when the walk meets a segment that was free at the checkpoint,
    /// the log either wrote it — then its summary is young, or the seal
    /// never became durable and neither did any later one — or never
    /// got that far. Either way no durable post-checkpoint segment lies
    /// beyond it. An unreadable summary proves nothing and is walked
    /// past; without a stop point the walk covers the whole ring, which
    /// is the exhaustive scan (kept as the test oracle
    /// `scan_all_summaries`).
    async fn scan_log_tail(&self, ckpt: &Checkpoint) -> LResult<(Vec<YoungSeg>, u64)> {
        let nsegs = self.sb.nsegs;
        let sealed = ckpt
            .usage_addrs
            .last()
            .filter(|&&a| a >= DATA_START && a < self.seg_start(nsegs))
            .map(|&a| self.seg_of(BlockAddr(a)))
            .ok_or_else(|| {
                LayoutError::Corrupt("checkpoint's last usage block is off the log".into())
            })?;
        let mut young: Vec<YoungSeg> = Vec::new();
        let mut scanned = 0u64;
        for off in 1..=nsegs {
            let seg = (sealed + off) % nsegs;
            scanned += 1;
            let Ok(payload) = self.io.read_block(BlockAddr(self.seg_start(seg))).await else {
                continue; // Unknown: never a stop point.
            };
            let summary = payload
                .block(0)
                .and_then(|b| summary_from_block(b).ok())
                .filter(|s| s.gen == self.sb.gen && s.epoch == ckpt.epoch && s.seq > ckpt.log_seq);
            match summary {
                Some(s) => young.push((s.seq, seg, s.entries)),
                None if self.free_at_checkpoint(seg) => break,
                None => {}
            }
        }
        young.sort_unstable_by_key(|&(seq, _, _)| seq);
        Ok((young, scanned))
    }

    /// The exhaustive scan `scan_log_tail` replaced — every summary on
    /// the disk, in segment order — kept as its executable
    /// specification. Test oracle only.
    #[cfg(test)]
    async fn scan_all_summaries(&self, ckpt: &Checkpoint) -> Vec<YoungSeg> {
        let mut young: Vec<YoungSeg> = Vec::new();
        for seg in 0..self.sb.nsegs {
            let addr = BlockAddr(self.seg_start(seg));
            let Ok(payload) = self.io.read_block(addr).await else { continue };
            let Some(bytes) = payload.block(0) else { continue };
            let Ok(summary) = summary_from_block(bytes) else { continue };
            if summary.gen != self.sb.gen
                || summary.epoch != ckpt.epoch
                || summary.seq <= ckpt.log_seq
            {
                continue;
            }
            young.push((summary.seq, seg, summary.entries));
        }
        young.sort_unstable_by_key(|&(seq, _, _)| seq);
        young
    }

    /// Whether the usage table as loaded from the checkpoint shows
    /// `seg` free. The persisted table can miss the checkpoint's own
    /// usage blocks (see the module docs), so a segment holding
    /// checkpoint metadata never counts as free here.
    fn free_at_checkpoint(&self, seg: u32) -> bool {
        self.usage[seg as usize].live == 0 && !self.holds_ckpt_meta(seg)
    }

    /// Recomputes per-segment live-byte counts from the inode map (the
    /// fsck-style ground truth), dropping unreadable inodes on the way.
    async fn rebuild_usage(&mut self) -> LResult<()> {
        let seg_limit = DATA_START + self.sb.nsegs as u64 * self.sb.seg_blocks as u64;
        let mut charges: Vec<(u64, u32)> = Vec::new();
        for &a in &self.ckpt_meta {
            charges.push((a, BLOCK_SIZE));
        }
        let inos: Vec<u64> =
            (0..self.imap.len() as u64).filter(|&i| self.imap_get(Ino(i)).is_some()).collect();
        for ino in inos {
            let (iaddr, _slot) = self.imap_get(Ino(ino)).expect("filtered above");
            let inode = match self.get_inode(Ino(ino)).await {
                Ok(i) => i,
                Err(_) => {
                    // Unreadable inode: drop it rather than poison mounts.
                    self.imap_set(Ino(ino), IMAP_NONE);
                    continue;
                }
            };
            charges.push((iaddr.0, INODE_SIZE as u32));
            for d in inode.direct {
                if d.is_some() {
                    charges.push((d.0, BLOCK_SIZE));
                }
            }
            if inode.indirect.is_some() {
                charges.push((inode.indirect.0, BLOCK_SIZE));
                if let Ok(table) = self.load_indirect(inode.indirect).await {
                    for &v in table.iter() {
                        if v != BlockAddr::NONE.0 {
                            charges.push((v, BLOCK_SIZE));
                        }
                    }
                }
            }
        }
        // Fold the charges per segment, then write only the entries
        // whose live bytes or age they change.
        charges.retain(|&(addr, _)| addr >= DATA_START && addr < seg_limit);
        for charge in &mut charges {
            charge.0 = self.seg_of(BlockAddr(charge.0)) as u64;
        }
        charges.sort_unstable_by_key(|&(seg, _)| seg);
        let mut folded = charges
            .chunk_by(|a, b| a.0 == b.0)
            .map(|run| (run[0].0 as usize, run.iter().map(|&(_, bytes)| bytes).sum::<u32>()))
            .peekable();
        let now = self.now_ns();
        for seg in 0..self.usage.len() {
            let live = folded.next_if(|&(s, _)| s == seg).map_or(0, |(_, live)| live);
            self.set_live(seg, live);
            if live > 0 && self.usage[seg].mtime == 0 {
                self.usage.set_mtime(seg, now);
            }
        }
        Ok(())
    }

    /// Refreshes a caller-held inode's block pointers from the log's
    /// authoritative copy. The cleaner relocates blocks behind engines
    /// that cache inodes in memory; superseding or loading through such
    /// stale pointers would touch freed (possibly reused) segments.
    /// Size/mtime stay the caller's — only the log knows pointers, only
    /// the caller knows logical state.
    /// Callers must not fork independent copies of one inode across a
    /// cleaning: the marker is consumed by the first reconciling writer.
    async fn reconcile_pointers(&mut self, inode: &mut Inode) {
        if !self.stale_pointers.remove(&inode.ino.0) {
            return;
        }
        if let Some((addr, slot)) = self.imap_get(inode.ino) {
            if let Ok(current) = self.read_inode_at(addr, slot).await {
                inode.direct = current.direct;
                inode.indirect = current.indirect;
            }
        }
    }

    /// Append-path shared by the public write and the cleaner (which
    /// must not re-enter `ensure_space`).
    async fn write_blocks_inner(
        &mut self,
        inode: &mut Inode,
        blocks: &mut Vec<(u64, Payload)>,
    ) -> LResult<()> {
        self.reconcile_pointers(inode).await;
        blocks.sort_by_key(|(b, _)| *b);
        let ino = inode.ino;
        // Copy the current indirect table into the scratch once if any
        // indirect slot is hit. (A write that fails drops the scratch;
        // the next one grows another.)
        let mut table = std::mem::take(&mut self.table_scratch);
        let (mut table_loaded, mut table_dirty) = (false, false);
        for (blk, payload) in blocks.drain(..) {
            let slot = block_slot(blk).ok_or(LayoutError::FileTooBig(blk))?;
            let addr = self.append_block(SumEntry::Data { ino: ino.0, fblk: blk }, payload)?;
            self.stats.data_writes += 1;
            match slot {
                BlockSlot::Direct(i) => {
                    self.supersede(inode.direct[i], BLOCK_SIZE);
                    inode.direct[i] = addr;
                }
                BlockSlot::Indirect(s) => {
                    if !table_loaded {
                        table.clear();
                        if inode.indirect.is_some() {
                            table.extend_from_slice(&self.load_indirect(inode.indirect).await?);
                        } else {
                            table.resize(NINDIRECT, BlockAddr::NONE.0);
                        }
                        table_loaded = true;
                    }
                    if table[s] != BlockAddr::NONE.0 {
                        self.supersede(BlockAddr(table[s]), BLOCK_SIZE);
                    }
                    table[s] = addr.0;
                    table_dirty = true;
                }
            }
        }
        if table_dirty {
            let new_addr = self.append_indirect(ino, &table).await?;
            self.supersede(inode.indirect, BLOCK_SIZE);
            inode.indirect = new_addr;
        }
        self.table_scratch = table;
        inode.mtime = self.now_ns();
        self.append_inode(inode).await?;
        Ok(())
    }

    async fn truncate_inner(&mut self, inode: &mut Inode, new_blocks: u64) -> LResult<()> {
        self.reconcile_pointers(inode).await;
        let old_blocks = inode.blocks();
        for blk in new_blocks..old_blocks {
            match block_slot(blk).ok_or(LayoutError::FileTooBig(blk))? {
                BlockSlot::Direct(i) => {
                    self.supersede(inode.direct[i], BLOCK_SIZE);
                    inode.direct[i] = BlockAddr::NONE;
                }
                BlockSlot::Indirect(_) => {}
            }
        }
        if inode.indirect.is_some() {
            let keep_indirect = new_blocks > crate::types::NDIRECT as u64;
            let table = self.load_indirect(inode.indirect).await?;
            let first_dead = new_blocks.saturating_sub(crate::types::NDIRECT as u64) as usize;
            // The edited copy lands in the write path's scratch table.
            let mut new_table = std::mem::take(&mut self.table_scratch);
            new_table.clear();
            new_table.extend_from_slice(&table);
            let mut changed = false;
            for (s, v) in table.iter().enumerate() {
                if s >= first_dead && *v != BlockAddr::NONE.0 {
                    self.supersede(BlockAddr(*v), BLOCK_SIZE);
                    new_table[s] = BlockAddr::NONE.0;
                    changed = true;
                }
            }
            if !keep_indirect {
                self.supersede(inode.indirect, BLOCK_SIZE);
                inode.indirect = BlockAddr::NONE;
            } else if changed {
                let addr = self.append_indirect(inode.ino, &new_table).await?;
                self.supersede(inode.indirect, BLOCK_SIZE);
                inode.indirect = addr;
            }
            self.table_scratch = new_table;
        }
        inode.size = new_blocks * BLOCK_SIZE as u64;
        inode.mtime = self.now_ns();
        self.append_inode(inode).await?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cnp_disk::{sim_disk_driver, CLook, Hp97560};
    use cnp_sim::Sim;

    fn run_lfs<F, Fut>(f: F)
    where
        F: FnOnce(cnp_sim::Handle, LfsLayout) -> Fut + 'static,
        Fut: std::future::Future<Output = ()> + 'static,
    {
        let sim = Sim::new(11);
        let h = sim.handle();
        let driver = sim_disk_driver(&h, "d0", Box::new(Hp97560::new()), Box::new(CLook));
        let driver2 = driver.clone();
        let layout = LfsLayout::new(&h, driver, LfsParams::default());
        sim.block_on("test", async move {
            f(h, layout).await;
            driver2.shutdown();
        });
    }

    fn data_block(tag: u8) -> Payload {
        Payload::copy_of(&[tag; BLOCK_SIZE as usize])
    }

    #[test]
    fn format_creates_root() {
        run_lfs(|_h, mut lfs| async move {
            lfs.format().await.unwrap();
            let root = lfs.get_inode(Ino::ROOT).await.unwrap();
            assert_eq!(root.kind, FileKind::Directory);
            assert_eq!(root.size, 0);
        });
    }

    #[test]
    fn write_read_direct_blocks() {
        run_lfs(|_h, mut lfs| async move {
            lfs.format().await.unwrap();
            let mut f = lfs.alloc_ino(FileKind::Regular, 1).unwrap();
            f.size = 3 * BLOCK_SIZE as u64;
            lfs.write_file_blocks(
                &mut f,
                vec![(0, data_block(1)), (1, data_block(2)), (2, data_block(3))],
            )
            .await
            .unwrap();
            for (blk, tag) in [(0u64, 1u8), (1, 2), (2, 3)] {
                let p = lfs.read_file_block(&f, blk).await.unwrap().unwrap();
                assert_eq!(p.block(0).unwrap()[0], tag, "block {blk}");
            }
            assert!(lfs.read_file_block(&f, 3).await.unwrap().is_none());
        });
    }

    #[test]
    fn write_read_indirect_blocks() {
        run_lfs(|_h, mut lfs| async move {
            lfs.format().await.unwrap();
            let mut f = lfs.alloc_ino(FileKind::Regular, 1).unwrap();
            // Blocks 12..20 live behind the indirect pointer.
            let blocks: Vec<(u64, Payload)> = (12..20).map(|b| (b, data_block(b as u8))).collect();
            f.size = 20 * BLOCK_SIZE as u64;
            lfs.write_file_blocks(&mut f, blocks).await.unwrap();
            assert!(f.indirect.is_some());
            let p = lfs.read_file_block(&f, 15).await.unwrap().unwrap();
            assert_eq!(p.block(0).unwrap()[0], 15);
            // Hole below the indirect range.
            assert!(lfs.read_file_block(&f, 5).await.unwrap().is_none());
        });
    }

    #[test]
    fn overwrite_supersedes_old_location() {
        run_lfs(|_h, mut lfs| async move {
            lfs.format().await.unwrap();
            let mut f = lfs.alloc_ino(FileKind::Regular, 1).unwrap();
            f.size = BLOCK_SIZE as u64;
            lfs.write_file_blocks(&mut f, vec![(0, data_block(1))]).await.unwrap();
            let a1 = lfs.map_block(&f, 0).await.unwrap().unwrap();
            lfs.write_file_blocks(&mut f, vec![(0, data_block(2))]).await.unwrap();
            let a2 = lfs.map_block(&f, 0).await.unwrap().unwrap();
            assert_ne!(a1, a2, "LFS must relocate on overwrite");
            let p = lfs.read_file_block(&f, 0).await.unwrap().unwrap();
            assert_eq!(p.block(0).unwrap()[0], 2);
        });
    }

    #[test]
    fn remount_recovers_checkpointed_state() {
        let sim = Sim::new(13);
        let h = sim.handle();
        let driver = sim_disk_driver(&h, "d0", Box::new(Hp97560::new()), Box::new(CLook));
        let shutdown_driver = driver.clone();
        sim.block_on("test", async move {
            let mut lfs = LfsLayout::new(&h, driver.clone(), LfsParams::default());
            lfs.format().await.unwrap();
            let mut f = lfs.alloc_ino(FileKind::Regular, 1).unwrap();
            f.size = 2 * BLOCK_SIZE as u64;
            lfs.write_file_blocks(&mut f, vec![(0, data_block(7)), (1, data_block(8))])
                .await
                .unwrap();
            let ino = f.ino;
            lfs.unmount().await.unwrap();
            // Second instance: mount from disk.
            let mut lfs2 = LfsLayout::new(&h, driver, LfsParams::default());
            lfs2.mount().await.unwrap();
            let got = lfs2.get_inode(ino).await.unwrap();
            assert_eq!(got.size, 2 * BLOCK_SIZE as u64);
            let p = lfs2.read_file_block(&got, 1).await.unwrap().unwrap();
            assert_eq!(p.block(0).unwrap()[0], 8);
            let root = lfs2.get_inode(Ino::ROOT).await.unwrap();
            assert_eq!(root.kind, FileKind::Directory);
            shutdown_driver.shutdown();
        });
    }

    #[test]
    fn free_inode_releases_space() {
        run_lfs(|_h, mut lfs| async move {
            lfs.format().await.unwrap();
            let live_before: u32 = lfs.usage.iter().map(|u| u.live).sum();
            let mut f = lfs.alloc_ino(FileKind::Regular, 1).unwrap();
            f.size = 4 * BLOCK_SIZE as u64;
            lfs.write_file_blocks(&mut f, (0..4).map(|b| (b, data_block(b as u8))).collect())
                .await
                .unwrap();
            let ino = f.ino;
            lfs.free_inode(ino).await.unwrap();
            assert!(matches!(lfs.get_inode(ino).await, Err(LayoutError::BadInode(_))));
            let live_after: u32 = lfs.usage.iter().map(|u| u.live).sum();
            // All data released; only metadata churn (inode copies) remains.
            assert!(
                live_after <= live_before + 3 * INODE_SIZE as u32,
                "live {live_after} vs {live_before}"
            );
        });
    }

    #[test]
    fn segment_rolls_and_cleaner_frees_space() {
        let sim = Sim::new(17);
        let h = sim.handle();
        let driver = sim_disk_driver(&h, "d0", Box::new(Hp97560::new()), Box::new(CLook));
        let shutdown_driver = driver.clone();
        sim.block_on("test", async move {
            // Small segments so we roll quickly.
            let params = LfsParams { seg_blocks: 8, ..LfsParams::default() };
            let mut lfs = LfsLayout::new(&h, driver, params);
            lfs.format().await.unwrap();
            // Interleave two files so every segment is half file A, half
            // file B; deleting B leaves many half-live victim segments.
            let mut fa = lfs.alloc_ino(FileKind::Regular, 1).unwrap();
            let mut fb = lfs.alloc_ino(FileKind::Regular, 1).unwrap();
            fa.size = 8 * BLOCK_SIZE as u64;
            fb.size = 8 * BLOCK_SIZE as u64;
            for b in 0..8u64 {
                lfs.write_file_blocks(&mut fa, vec![(b, data_block(100 + b as u8))]).await.unwrap();
                lfs.write_file_blocks(&mut fb, vec![(b, data_block(200u8))]).await.unwrap();
            }
            assert!(lfs.stats().segments_written >= 2);
            lfs.free_inode(fb.ino).await.unwrap();
            let freed_before = lfs.free_segments();
            lfs.clean_until(freed_before + 2).await.unwrap();
            assert!(
                lfs.free_segments() > freed_before,
                "cleaning half-dead segments must free space: {} -> {}",
                freed_before,
                lfs.free_segments()
            );
            assert!(lfs.stats().segments_cleaned > 0);
            assert!(lfs.stats().cleaner_moved > 0);
            // File A's data must survive cleaning.
            for b in 0..8u64 {
                let p = lfs.read_file_block(&fa, b).await.unwrap().unwrap();
                assert_eq!(p.block(0).unwrap()[0], 100 + b as u8, "block {b}");
            }
            shutdown_driver.shutdown();
        });
    }

    #[test]
    fn cleaner_relocates_a_live_indirect_block() {
        run_crash_test(43, |h, driver| async move {
            let params = LfsParams { seg_blocks: 8, ..LfsParams::default() };
            let mut lfs = LfsLayout::new(&h, driver, params);
            lfs.format().await.unwrap();
            let mut f = lfs.alloc_ino(FileKind::Regular, 1).unwrap();
            f.size = 14 * BLOCK_SIZE as u64;
            // Four data blocks and the inode block, then two blocks
            // behind the indirect pointer: those fill the segment, so
            // the indirect block opens the next one, apart from the
            // data it maps.
            lfs.write_file_blocks(&mut f, (0..4).map(|b| (b, data_block(b as u8))).collect())
                .await
                .unwrap();
            lfs.write_file_blocks(&mut f, vec![(12, data_block(12)), (13, data_block(13))])
                .await
                .unwrap();
            lfs.flush_staged().await.unwrap();
            let victim = lfs.seg_of(f.indirect);
            let data_at = lfs.map_block(&f, 13).await.unwrap().unwrap();
            assert_ne!(victim, lfs.seg_of(data_at));
            lfs.clean_segment(victim).await.unwrap();
            assert_eq!(lfs.usage[victim as usize].live, 0);
            let moved = lfs.get_inode(f.ino).await.unwrap();
            assert_ne!(lfs.seg_of(moved.indirect), victim, "the cleaner must take it along");
            let p = lfs.read_file_block(&moved, 13).await.unwrap().expect("still mapped");
            assert_eq!(p.block(0).unwrap()[0], 13);
        });
    }

    /// Shared scenario: format, checkpoint a baseline file, then crash
    /// with un-checkpointed writes in flushed segments. Returns the
    /// inodes of the durable file and the post-checkpoint file.
    async fn crash_scenario(
        h: &cnp_sim::Handle,
        driver: &cnp_disk::DiskDriver,
        params: &LfsParams,
    ) -> (Ino, Ino) {
        let mut lfs = LfsLayout::new(h, driver.clone(), params.clone());
        lfs.format().await.unwrap();
        let mut fa = lfs.alloc_ino(FileKind::Regular, 1).unwrap();
        fa.size = 2 * BLOCK_SIZE as u64;
        lfs.write_file_blocks(&mut fa, vec![(0, data_block(1)), (1, data_block(2))]).await.unwrap();
        lfs.sync().await.unwrap();
        // Post-checkpoint writes: enough to flush several segments,
        // then "crash" (drop the instance without sync/unmount).
        let mut fb = lfs.alloc_ino(FileKind::Regular, 1).unwrap();
        fb.size = 12 * BLOCK_SIZE as u64;
        for b in 0..12u64 {
            lfs.write_file_blocks(&mut fb, vec![(b, data_block(100 + b as u8))]).await.unwrap();
        }
        (fa.ino, fb.ino)
    }

    fn run_crash_test<F, Fut>(seed: u64, f: F)
    where
        F: FnOnce(cnp_sim::Handle, cnp_disk::DiskDriver) -> Fut + 'static,
        Fut: std::future::Future<Output = ()> + 'static,
    {
        let sim = Sim::new(seed);
        let h = sim.handle();
        let driver = sim_disk_driver(&h, "d0", Box::new(Hp97560::new()), Box::new(CLook));
        let shutdown_driver = driver.clone();
        sim.block_on("test", async move {
            f(h, driver).await;
            shutdown_driver.shutdown();
        });
    }

    #[test]
    fn roll_forward_recovers_post_checkpoint_writes() {
        run_crash_test(23, |h, driver| async move {
            let params = LfsParams { seg_blocks: 8, ..LfsParams::default() };
            let (ino_a, ino_b) = crash_scenario(&h, &driver, &params).await;
            let mut rec = LfsLayout::new(&h, driver.clone(), params);
            let stats = rec.recover().await.unwrap();
            assert!(stats.rolled_segments > 0, "young segments must be found");
            assert!(stats.recovered_inodes > 0);
            // The durable file is intact.
            let a = rec.get_inode(ino_a).await.unwrap();
            assert_eq!(rec.read_file_block(&a, 0).await.unwrap().unwrap().block(0).unwrap()[0], 1);
            // The post-checkpoint file rolls forward: every block whose
            // segment was flushed before the crash is back. With 8-block
            // segments (7 payload slots, one taken by the inode block),
            // the first segment flushed holds exactly blocks 0..6; the
            // rest died in the in-memory segment — the loss window.
            let b = rec.get_inode(ino_b).await.expect("rolled-forward inode");
            assert_eq!(b.blocks(), 12, "size travels with the inode");
            for blk in 0..6u64 {
                let p = rec.read_file_block(&b, blk).await.unwrap().expect("mapped block");
                assert_eq!(p.block(0).unwrap()[0], 100 + blk as u8, "block {blk}");
            }
            for blk in 6..12u64 {
                assert!(
                    rec.read_file_block(&b, blk).await.unwrap().is_none(),
                    "block {blk} was never durable and must read as a hole"
                );
            }
        });
    }

    #[test]
    fn recovery_must_not_open_segments_holding_orphan_data() {
        run_crash_test(41, |h, driver| async move {
            let params = LfsParams { seg_blocks: 8, ..LfsParams::default() };
            let mut lfs = LfsLayout::new(&h, driver.clone(), params.clone());
            lfs.format().await.unwrap();
            // The inode (no pointers yet) reaches the checkpoint...
            let mut f = lfs.alloc_ino(FileKind::Regular, 1).unwrap();
            f.size = 20 * BLOCK_SIZE as u64;
            lfs.put_inode(&f).await.unwrap();
            lfs.sync().await.unwrap();
            // ...then ONE multi-segment write: the sealed segments hold
            // only data/indirect entries, the inode append dies in the
            // in-memory segment. Recovery sees pure-orphan segments that
            // charge nothing in the rebuilt usage table.
            let blocks: Vec<(u64, Payload)> = (0..20).map(|b| (b, data_block(b as u8))).collect();
            lfs.write_file_blocks(&mut f, blocks).await.unwrap();
            let ino = f.ino;
            drop(lfs);
            let mut rec = LfsLayout::new(&h, driver.clone(), params);
            let stats = rec.recover().await.unwrap();
            assert!(stats.patched_blocks > 0, "orphan data must be patched in");
            // Every flushed block must survive recovery's own appends:
            // if recovery opened an orphan-data segment as its current
            // segment, these reads would return recovery metadata.
            // (On this disk geometry superseded checkpoint-metadata
            // segments precede the young ones in scan order, so the
            // overwrite needs a nearly-full disk to bite; the
            // protected-segs guard makes it impossible regardless.)
            let got = rec.get_inode(ino).await.unwrap();
            for blk in 0..14u64 {
                let p = rec
                    .read_file_block(&got, blk)
                    .await
                    .unwrap()
                    .unwrap_or_else(|| panic!("block {blk} unmapped"));
                assert_eq!(
                    p.block(0).unwrap()[0],
                    blk as u8,
                    "block {blk} corrupted by recovery appends"
                );
            }
        });
    }

    #[test]
    fn plain_mount_discards_post_checkpoint_state() {
        run_crash_test(29, |h, driver| async move {
            let params = LfsParams { seg_blocks: 8, ..LfsParams::default() };
            let (ino_a, ino_b) = crash_scenario(&h, &driver, &params).await;
            let mut plain = LfsLayout::new(&h, driver.clone(), params);
            plain.mount().await.unwrap();
            assert!(plain.get_inode(ino_a).await.is_ok());
            assert!(
                matches!(plain.get_inode(ino_b).await, Err(LayoutError::BadInode(_))),
                "mount must not see un-checkpointed state"
            );
        });
    }

    #[test]
    fn recover_twice_equals_recover_once() {
        run_crash_test(31, |h, driver| async move {
            let params = LfsParams { seg_blocks: 8, ..LfsParams::default() };
            let (_ino_a, ino_b) = crash_scenario(&h, &driver, &params).await;
            let mut r1 = LfsLayout::new(&h, driver.clone(), params.clone());
            r1.recover().await.unwrap();
            let b1 = r1.get_inode(ino_b).await.expect("first recovery");
            let usage1: Vec<u32> = r1.usage.iter().map(|u| u.live).collect();
            let imap1 = r1.imap.clone();
            drop(r1);
            // A second recovery finds nothing young (the first sealed a
            // checkpoint) and must change nothing.
            let mut r2 = LfsLayout::new(&h, driver.clone(), params);
            let stats = r2.recover().await.unwrap();
            assert_eq!(stats.rolled_segments, 0, "second recovery must be a no-op");
            assert!(stats.scanned_segments < 4, "a free segment ends the walk: {stats:?}");
            assert_eq!(stats.patched_blocks, 0);
            let b2 = r2.get_inode(ino_b).await.expect("second recovery");
            assert_eq!(b1, b2);
            assert_eq!(imap1, r2.imap);
            let usage2: Vec<u32> = r2.usage.iter().map(|u| u.live).collect();
            // Live counts may differ only by the relocated checkpoint
            // metadata; total live data must match.
            let total1: u64 = usage1.iter().map(|&v| v as u64).sum();
            let total2: u64 = usage2.iter().map(|&v| v as u64).sum();
            assert_eq!(total1, total2, "recovery must be idempotent on live data");
        });
    }

    #[test]
    fn stale_checkpoint_from_previous_format_is_rejected() {
        run_crash_test(37, |h, driver| async move {
            let params = LfsParams::default();
            // First life: create a file and unmount (high ckpt seq).
            let mut lfs = LfsLayout::new(&h, driver.clone(), params.clone());
            lfs.format().await.unwrap();
            let mut f = lfs.alloc_ino(FileKind::Regular, 1).unwrap();
            f.size = BLOCK_SIZE as u64;
            lfs.write_file_blocks(&mut f, vec![(0, data_block(9))]).await.unwrap();
            let old_ino = f.ino;
            lfs.sync().await.unwrap();
            lfs.sync().await.unwrap();
            lfs.unmount().await.unwrap();
            // Second life: reformat. One checkpoint region still holds
            // the old format's (higher-seq) checkpoint.
            let mut lfs2 = LfsLayout::new(&h, driver.clone(), params.clone());
            lfs2.format().await.unwrap();
            drop(lfs2);
            let mut lfs3 = LfsLayout::new(&h, driver.clone(), params);
            lfs3.mount().await.unwrap();
            assert!(
                matches!(lfs3.get_inode(old_ino).await, Err(LayoutError::BadInode(_))),
                "the previous format's checkpoint must not win the mount"
            );
        });
    }

    #[test]
    fn truncate_frees_tail_blocks() {
        run_lfs(|_h, mut lfs| async move {
            lfs.format().await.unwrap();
            let mut f = lfs.alloc_ino(FileKind::Regular, 1).unwrap();
            f.size = 16 * BLOCK_SIZE as u64;
            lfs.write_file_blocks(&mut f, (0..16).map(|b| (b, data_block(9))).collect())
                .await
                .unwrap();
            lfs.truncate(&mut f, 2).await.unwrap();
            assert_eq!(f.size, 2 * BLOCK_SIZE as u64);
            assert!(lfs.read_file_block(&f, 0).await.unwrap().is_some());
            assert!(lfs.read_file_block(&f, 2).await.unwrap().is_none());
            assert!(lfs.read_file_block(&f, 13).await.unwrap().is_none());
            assert!(!f.indirect.is_some(), "indirect dropped when unused");
        });
    }

    #[test]
    fn simulated_payloads_flow_through() {
        run_lfs(|_h, mut lfs| async move {
            lfs.format().await.unwrap();
            let mut f = lfs.alloc_ino(FileKind::Regular, 1).unwrap();
            f.size = 2 * BLOCK_SIZE as u64;
            // Off-line mode: user data has no bytes.
            lfs.write_file_blocks(
                &mut f,
                vec![(0, Payload::Simulated(BLOCK_SIZE)), (1, Payload::Simulated(BLOCK_SIZE))],
            )
            .await
            .unwrap();
            let p = lfs.read_file_block(&f, 0).await.unwrap().unwrap();
            assert_eq!(p.len(), BLOCK_SIZE);
            // Metadata still works: inode survives a sync.
            lfs.sync().await.unwrap();
            let got = lfs.get_inode(f.ino).await.unwrap();
            assert_eq!(got.size, f.size);
        });
    }
}
