//! The platter store: real bytes kept by *frame*, not by sector.
//!
//! A frame is [`FRAME_SECTORS`] consecutive sectors — one 4 KiB
//! file-system block at the 512-byte sector every `Hardware` has —
//! keyed by `lba / FRAME_SECTORS`: a presence mask plus one [`Block`]
//! in which absent sectors are zero. A block-sized write at a frame
//! keeps the very block its payload carries (the cache frame's, the
//! log's), and a whole-frame read hands the frame's block back, so
//! neither allocates nor copies; a captured image
//! ([`DiskImage::clone`]) shares its blocks with the live platter.
//! Only a sub-frame (sector) store writes into a frame's block, which
//! copies it first if anyone else holds it.
//!
//! What a power cut can tear stays sector-exact through the masks: a
//! torn prefix, a short payload's zero padding, a simulated payload's
//! erasure and a sub-range retirement all land on exactly the sectors
//! the per-sector maps this replaced would have touched (`reference`
//! keeps those maps as the executable specification, and steps both
//! through random scripts).

use std::borrow::Cow;
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::fmt;

use crate::block::{note, Block, Blocks, BLOCK_BYTES};
use crate::request::Payload;

/// Sectors in a frame.
const FRAME_SECTORS: usize = 8;

/// One write's share of one frame: sectors `[first, first + n)` of
/// frame `frame`, which are sectors `[at, at + n)` of the write.
#[derive(Clone, Copy)]
struct Span {
    frame: u64,
    first: usize,
    n: usize,
    at: usize,
}

impl Span {
    fn mask(&self) -> u8 {
        (((1u16 << self.n) - 1) << self.first) as u8
    }

    /// This span's share of a write's bytes: short, or empty, where
    /// the payload ends before the write does. A whole frame that is
    /// one whole block of the payload is that block.
    fn of<'a>(&self, blocks: &'a Blocks, ssz: usize) -> Share<'a> {
        let len = blocks.byte_len();
        let (from, to) = ((self.at * ssz).min(len), ((self.at + self.n) * ssz).min(len));
        if from == to {
            return Share::Bytes(Cow::Borrowed(&[]));
        }
        let (block, at) = (&blocks[from / BLOCK_BYTES], from % BLOCK_BYTES);
        if at == 0 && self.n == FRAME_SECTORS && block.len() == FRAME_SECTORS * ssz {
            return Share::Block(block);
        }
        if at + (to - from) <= block.len() {
            return Share::Bytes(Cow::Borrowed(&block[at..at + (to - from)]));
        }
        // Across two of the payload's blocks: an unaligned write.
        Share::Bytes(Cow::Owned(blocks.slice(from, to).to_vec()))
    }
}

/// One write's share of one frame.
enum Share<'a> {
    /// The whole frame, as one of the payload's blocks.
    Block(&'a Block),
    /// Bytes for the span's sectors, zero-padded where short.
    Bytes(Cow<'a, [u8]>),
}

/// `[lba, lba + sectors)`, frame by frame.
fn spans(lba: u64, sectors: u32) -> impl Iterator<Item = Span> {
    let per = FRAME_SECTORS as u64;
    let (mut s, end) = (lba, lba + sectors as u64);
    std::iter::from_fn(move || {
        (s < end).then(|| {
            let n = (per - s % per).min(end - s);
            let span = Span {
                frame: s / per,
                first: (s % per) as usize,
                n: n as usize,
                at: (s - lba) as usize,
            };
            s += n;
            span
        })
    })
}

/// The sector numbers set in `mask`.
fn bits(mask: u8) -> impl Iterator<Item = usize> {
    (0..FRAME_SECTORS).filter(move |i| mask >> i & 1 == 1)
}

/// [`FRAME_SECTORS`] sectors of real bytes.
///
/// Two conditions hold whenever a frame sits in a map, and together
/// make `==` on frames `==` on the sectors they hold: `present != 0`
/// (a frame whose last sector is erased leaves the map), and every
/// absent sector's bytes are zero.
#[derive(Clone, PartialEq)]
struct Frame {
    /// Bit `i`: sector `i` holds real bytes.
    present: u8,
    /// The sectors back to back. Shared with every image cloned since
    /// the last store, and with whoever wrote or read the block:
    /// written through [`Block::make_mut`] only.
    bytes: Block,
}

impl Frame {
    fn ssz(&self) -> usize {
        self.bytes.len() / FRAME_SECTORS
    }

    fn sectors(&self, first: usize, n: usize) -> &[u8] {
        let ssz = self.ssz();
        &self.bytes[first * ssz..(first + n) * ssz]
    }

    /// A frame holding `src`, zero-padded, in `span`'s sectors only.
    fn holding(ssz: usize, span: Span, src: &Share) -> Frame {
        let len = FRAME_SECTORS * ssz;
        assert!(len <= BLOCK_BYTES, "a frame of {len} bytes is more than a block");
        let bytes = match src {
            Share::Block(block) => (*block).clone(),
            Share::Bytes(src) => Block::placed(span.first * ssz, src, len),
        };
        Frame { present: span.mask(), bytes }
    }

    /// Overwrites `span`'s sectors with `src`, zero-padded.
    fn put(&mut self, ssz: usize, span: Span, src: &Share) {
        assert_eq!(self.bytes.len(), FRAME_SECTORS * ssz, "an image has one sector size");
        self.present |= span.mask();
        let src = match src {
            Share::Block(block) => {
                self.bytes = (*block).clone();
                return;
            }
            Share::Bytes(src) => src,
        };
        if src.len() == self.bytes.len() && !self.bytes.is_unique() {
            // Every byte is replaced: a shared block is left to its
            // other owners, not copied and then overwritten.
            self.bytes = Block::copy_of(src);
            return;
        }
        let sectors = &mut self.bytes.make_mut()[span.first * ssz..][..span.n * ssz];
        sectors[..src.len()].copy_from_slice(src);
        sectors[src.len()..].fill(0);
        note(src.len(), span.n * ssz - src.len(), 0);
    }

    /// Erases the sectors in `gone`. False when none is left: the
    /// caller then drops the frame.
    fn erase(&mut self, gone: u8) -> bool {
        let gone = gone & self.present;
        self.present &= !gone;
        if gone != 0 && self.present != 0 {
            let ssz = self.ssz();
            let buf = self.bytes.make_mut();
            bits(gone).for_each(|i| buf[i * ssz..][..ssz].fill(0));
            note(0, gone.count_ones() as usize * ssz, 0);
        }
        self.present != 0 || planted(Mutant::EmptiedFrameStays)
    }

    /// Sector by sector over `due`: what `real` holds replaces this
    /// frame's, the rest of `due` is erased. The caller keeps a sector
    /// outside `due` present, so the frame does not empty.
    fn overlay(&mut self, due: u8, real: Option<&Frame>) {
        let copied = due & real.map_or(0, |f| f.present);
        self.erase(due & !copied);
        if let Some(real) = real.filter(|_| copied != 0) {
            let ssz = self.ssz();
            let buf = self.bytes.make_mut();
            bits(copied).for_each(|i| buf[i * ssz..][..ssz].copy_from_slice(real.sectors(i, 1)));
            note(copied.count_ones() as usize * ssz, 0, 0);
            self.present |= copied;
        }
    }
}

/// One write's share of one frame, stored in the frame's slot (`None`:
/// no real sector): real bytes are kept, a simulated payload (`src`
/// `None`) erases what was there.
fn write(slot: &mut Option<Frame>, ssz: usize, span: Span, src: Option<&Share>) {
    match (slot.as_mut(), src) {
        (Some(frame), Some(src)) => frame.put(ssz, span, src),
        (Some(frame), None) => {
            if !frame.erase(span.mask()) {
                *slot = None;
            }
        }
        (None, Some(src)) => *slot = Some(Frame::holding(ssz, span, src)),
        (None, None) => {}
    }
}

/// A captured on-disk image: a sparse store of the sectors that hold
/// real bytes.
///
/// Cloned out of a live disk for crash-state capture and fed back into
/// [`crate::driver::compose_device`] to "remount" the platter after a
/// power cut. A clone copies pointers, not bytes (the platter copies a
/// frame it shares before the next store into it), and `==` compares
/// the sectors two images hold, however each was built.
#[derive(Clone, Default, PartialEq)]
pub struct DiskImage {
    frames: HashMap<u64, Frame>,
}

/// The sector count, not the bytes: a failed `assert_eq!` on two
/// platters must stay readable.
impl fmt::Debug for DiskImage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("DiskImage").field("sectors", &self.len()).finish()
    }
}

impl DiskImage {
    /// The real bytes of sector `lba`, if it holds any.
    pub fn sector(&self, lba: u64) -> Option<&[u8]> {
        let frame = self.frames.get(&(lba / FRAME_SECTORS as u64))?;
        let i = (lba % FRAME_SECTORS as u64) as usize;
        (frame.present >> i & 1 == 1).then(|| frame.sectors(i, 1))
    }

    /// Every sector holding real bytes, as `(lba, bytes)`, in no
    /// particular order.
    pub fn sectors(&self) -> impl Iterator<Item = (u64, &[u8])> + '_ {
        self.frames.iter().flat_map(|(&idx, frame)| {
            bits(frame.present)
                .map(move |i| (idx * FRAME_SECTORS as u64 + i as u64, frame.sectors(i, 1)))
        })
    }

    /// How many sectors hold real bytes.
    pub fn len(&self) -> usize {
        self.frames.values().map(|f| f.present.count_ones() as usize).sum()
    }

    /// True if no sector holds real bytes.
    pub fn is_empty(&self) -> bool {
        self.frames.is_empty()
    }

    /// Every frame holding real bytes, as `(frame index, presence mask,
    /// the frame's sectors back to back)`, in index order; an absent
    /// sector's bytes are zero. Sector `lba` is bit `lba % 8` of frame
    /// `lba / 8`. Two images hold the same sectors exactly when their
    /// frame lists are equal, so a key over this list is a key over
    /// the image, however its frames were shared or built.
    pub fn frames(&self) -> Vec<(u64, u8, &Block)> {
        let mut frames: Vec<_> =
            self.frames.iter().map(|(&idx, f)| (idx, f.present, &f.bytes)).collect();
        frames.sort_unstable_by_key(|&(idx, ..)| idx);
        frames
    }

    /// Lands the sectors `due` of frame `idx`: what `real` holds
    /// replaces the image's, the rest of `due` is erased. `real` holds
    /// nothing outside `due`, so unless some other sector of the
    /// image's frame survives, `real`'s buffer itself moves in.
    fn land(&mut self, idx: u64, due: u8, real: Option<Frame>) {
        match self.frames.entry(idx) {
            Entry::Occupied(mut e) if e.get().present & !due != 0 => {
                e.get_mut().overlay(due, real.as_ref());
            }
            Entry::Occupied(mut e) => match real {
                Some(frame) => {
                    e.insert(frame);
                }
                None => {
                    e.remove();
                }
            },
            Entry::Vacant(v) => {
                if let Some(frame) = real {
                    v.insert(frame);
                }
            }
        }
    }
}

/// Writes `payload` to `sectors` sectors of `image` from `lba`: what a
/// retired media write leaves on the platter, and what a write the dead
/// disk can no longer take leaves on its captured image. Real bytes are
/// cut into `ssz`-byte sectors and zero-padded where the payload runs
/// short of `sectors`; a simulated payload erases any stale real bytes
/// in the range.
pub fn store_sectors(image: &mut DiskImage, ssz: usize, lba: u64, sectors: u32, payload: &Payload) {
    let bytes = payload.blocks();
    for span in spans(lba, sectors) {
        match (image.frames.entry(span.frame), bytes) {
            (Entry::Occupied(mut e), Some(bytes)) => {
                e.get_mut().put(ssz, span, &span.of(bytes, ssz))
            }
            (Entry::Occupied(mut e), None) => {
                if !e.get_mut().erase(span.mask()) {
                    e.remove();
                }
            }
            (Entry::Vacant(v), Some(bytes)) => {
                v.insert(Frame::holding(ssz, span, &span.of(bytes, ssz)));
            }
            (Entry::Vacant(_), None) => {}
        }
    }
}

/// One frame of the controller's write buffer.
struct Buffered {
    /// The sectors a buffered write covers: they shadow the platter
    /// until their write-back retires them.
    shadow: u8,
    /// The real bytes among them (`present` within `shadow`). A
    /// shadowed sector without real bytes is a simulated overwrite: it
    /// erases the platter sector when it retires.
    real: Option<Frame>,
}

impl Buffered {
    /// Takes the sectors `due` out of the buffered real bytes, as a
    /// frame of their own.
    fn take(&mut self, due: u8) -> Option<Frame> {
        let present = self.real.as_ref()?.present;
        if present & !due == 0 {
            return self.real.take();
        }
        if present & due == 0 {
            return None;
        }
        let rest = self.real.as_mut().expect("present");
        let mut part = rest.clone();
        part.erase(!due);
        rest.erase(due);
        Some(part)
    }
}

/// Payloads of acked immediate-report writes still awaiting the media,
/// in the platter's frames. The newest write of a sector is the one
/// buffered; it lands at the first retirement that covers the sector.
#[derive(Default)]
pub(super) struct WriteBuffer {
    frames: HashMap<u64, Buffered>,
}

impl WriteBuffer {
    /// Buffers one acked write.
    pub(super) fn stash(&mut self, ssz: usize, lba: u64, sectors: u32, payload: &Payload) {
        let bytes = payload.blocks();
        for span in spans(lba, sectors) {
            let buffered =
                self.frames.entry(span.frame).or_insert(Buffered { shadow: 0, real: None });
            if planted(Mutant::OlderWriteWins) && buffered.shadow & span.mask() != 0 {
                continue;
            }
            buffered.shadow |= span.mask();
            write(&mut buffered.real, ssz, span, bytes.map(|b| span.of(b, ssz)).as_ref());
        }
    }

    /// Retires the buffered sectors of `[lba, lba + sectors)` to
    /// `platter`: their media write is now durable.
    pub(super) fn retire(&mut self, lba: u64, sectors: u32, platter: &mut DiskImage) {
        for span in spans(lba, sectors) {
            let Entry::Occupied(mut e) = self.frames.entry(span.frame) else { continue };
            let due = e.get().shadow & span.mask();
            if due == 0 {
                continue;
            }
            let real = e.get_mut().take(due);
            e.get_mut().shadow &= !due;
            if e.get().shadow == 0 {
                e.remove();
            }
            platter.land(span.frame, due, real);
        }
    }

    /// Retires everything buffered (a battery-backed buffer at a cut).
    pub(super) fn retire_all(&mut self, platter: &mut DiskImage) {
        for (idx, buffered) in self.frames.drain() {
            platter.land(idx, buffered.shadow, buffered.real);
        }
    }

    /// Loses everything buffered (a volatile buffer at a cut).
    pub(super) fn clear(&mut self) {
        self.frames.clear();
    }

    /// `platter` as it would be with everything buffered retired.
    pub(super) fn over(&self, platter: &DiskImage) -> DiskImage {
        let mut image = platter.clone();
        for (&idx, buffered) in &self.frames {
            image.land(idx, buffered.shadow, buffered.real.clone());
        }
        image
    }

    /// Returns real bytes if every sector in range is stored, else a
    /// simulated payload of the right length. Buffered (not yet
    /// retired) writes shadow the platter. A whole frame read from one
    /// side of the shadow is that side's block, shared.
    pub(super) fn load(&self, platter: &DiskImage, ssz: usize, lba: u64, sectors: u32) -> Payload {
        let total = sectors as usize * ssz;
        // Filled from the first frame found whole: an unwritten range
        // (most of what a recovery scan reads) must not cost a list it
        // then throws away, and a one-block read costs none at all.
        let mut out: Option<Blocks> = None;
        for span in spans(lba, sectors) {
            let want = span.mask();
            let buffered = self.frames.get(&span.frame);
            let shadow = buffered.map_or(0, |b| b.shadow);
            let real = buffered.and_then(|b| b.real.as_ref());
            let below = if shadow & want == want { None } else { platter.frames.get(&span.frame) };
            let readable =
                shadow & real.map_or(0, |f| f.present) | !shadow & below.map_or(0, |f| f.present);
            if readable & want != want {
                return Payload::Simulated(total as u32);
            }
            // `readable` covers `want`, so the frame on a sector's side
            // of the shadow exists.
            let side = |shadowed: bool| if shadowed { real } else { below }.expect("readable");
            let whole = shadow & want == 0 || shadow & want == want;
            let frame = side(shadow & want != 0);
            if whole && span.n == FRAME_SECTORS && frame.bytes.len() == BLOCK_BYTES {
                match out.as_mut() {
                    None if total == BLOCK_BYTES => out = Some(Blocks::One(frame.bytes.clone())),
                    _ => out.get_or_insert_with(|| blocks(total)).append(frame.bytes.clone()),
                }
                continue;
            }
            let out = out.get_or_insert_with(|| blocks(total));
            if whole {
                out.extend_from_slice(frame.sectors(span.first, span.n));
            } else {
                for i in bits(want) {
                    out.extend_from_slice(side(shadow >> i & 1 == 1).sectors(i, 1));
                }
            }
        }
        Payload::Data(out.unwrap_or_else(|| blocks(0)))
    }
}

/// An empty list with room for `bytes`.
fn blocks(bytes: usize) -> Blocks {
    Blocks::with_capacity(bytes.div_ceil(BLOCK_BYTES))
}

/// The bugs `reference`'s differential test plants to show it has
/// teeth; none is ever planted outside that test.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(super) enum Mutant {
    /// A frame whose last sector was erased stays in its map.
    EmptiedFrameStays,
    /// Of two overlapping buffered writes, the older one's bytes retire.
    OlderWriteWins,
}

#[cfg(test)]
thread_local! {
    pub(super) static PLANTED: std::cell::Cell<Option<Mutant>> =
        const { std::cell::Cell::new(None) };
}

#[cfg(test)]
fn planted(mutant: Mutant) -> bool {
    PLANTED.get() == Some(mutant)
}

#[cfg(not(test))]
fn planted(_: Mutant) -> bool {
    false
}
