//! The platter store's executable specification, and the test that
//! holds the framed store ([`super::store`]) to it.
//!
//! The first half is the per-sector store the frames replaced — one
//! boxed sector per map entry, eight map operations per 4 KiB block —
//! kept as it was: `write_sectors`, `put_sector`, `store_sectors`,
//! `load_sectors` verbatim, and [`Spec`], the bodies the disk task ran
//! over them. The second half steps both stores through random scripts
//! and requires, after every step, that every sector, every load, the
//! sector count and `==` agree, and that an image captured earlier has
//! not moved.

use std::cell::RefCell;
use std::collections::HashMap;

use proptest::prelude::*;

use super::store::{self, Mutant, WriteBuffer, PLANTED};
use crate::request::Payload;

/// A sparse sector store, LBA → sector bytes.
type DiskImage = HashMap<u64, Box<[u8]>>;

/// Acked-but-unretired write payloads, sector-granular: `Some(bytes)` is
/// real data awaiting the media, `None` marks a simulated-payload
/// overwrite (erases the platter sector when it retires).
type PendingWrites = HashMap<u64, Option<Box<[u8]>>>;

/// One write as a sparse sector store sees it, sector by sector: real
/// bytes cut into `ssz`-byte sectors, zero-padded where the payload
/// runs short of `sectors`, or `None` for every sector of a simulated
/// payload (any stale real bytes there are erased). The only place a
/// payload is cut up: the platter, the controller's write buffer and a
/// captured image all store through it.
fn write_sectors(
    ssz: usize,
    lba: u64,
    sectors: u32,
    payload: &Payload,
    mut put: impl FnMut(u64, Option<Box<[u8]>>),
) {
    let bytes = payload.to_vec();
    for i in 0..sectors as usize {
        put(
            lba + i as u64,
            bytes.as_ref().map(|bytes| {
                let mut sector = vec![0u8; ssz];
                if let Some(rest) = bytes.get(i * ssz..) {
                    let n = rest.len().min(ssz);
                    sector[..n].copy_from_slice(&rest[..n]);
                }
                sector.into_boxed_slice()
            }),
        );
    }
}

/// Stores one sector of a write in an image: real bytes are kept, a
/// simulated sector erases what was there.
fn put_sector(image: &mut DiskImage, lba: u64, bytes: Option<Box<[u8]>>) {
    match bytes {
        Some(bytes) => image.insert(lba, bytes),
        None => image.remove(&lba),
    };
}

/// Writes `payload` to `sectors` sectors of `image` from `lba`: what a
/// retired media write leaves on the platter, and what a write the dead
/// disk can no longer take leaves on its captured image.
fn store_sectors(image: &mut DiskImage, ssz: usize, lba: u64, sectors: u32, payload: &Payload) {
    write_sectors(ssz, lba, sectors, payload, |s, bytes| put_sector(image, s, bytes));
}

/// Returns real bytes if every sector in range is stored, else a
/// simulated payload of the right length. Buffered (not yet retired)
/// writes shadow the platter.
fn load_sectors(
    pending: &RefCell<PendingWrites>,
    platter: &RefCell<DiskImage>,
    ssz: usize,
    lba: u64,
    sectors: u32,
) -> Payload {
    let total = sectors as usize * ssz;
    let pending = pending.borrow();
    let platter = platter.borrow();
    let sector = |i: u64| -> Option<&[u8]> {
        match pending.get(&(lba + i)) {
            Some(shadow) => shadow.as_deref(),
            None => platter.get(&(lba + i)).map(|s| &**s),
        }
    };
    // Presence first: an unwritten range (most of what a recovery scan
    // reads) must not cost a buffer it then throws away.
    if (0..sectors as u64).any(|i| sector(i).is_none()) {
        return Payload::Simulated(total as u32);
    }
    let mut out = Vec::with_capacity(total);
    for i in 0..sectors as u64 {
        out.extend_from_slice(sector(i).expect("presence checked"));
    }
    Payload::copy_of(&out)
}

/// The store side of the disk task as it ran over the per-sector maps:
/// each method is the body of the `DiskTask` / `DiskClient` method of
/// the same name at the commit that introduced the frames.
#[derive(Default)]
struct Spec {
    platter: RefCell<DiskImage>,
    pending: RefCell<PendingWrites>,
}

impl Spec {
    fn stash_pending(&self, ssz: usize, lba: u64, sectors: u32, payload: &Payload) {
        let mut pending = self.pending.borrow_mut();
        write_sectors(ssz, lba, sectors, payload, |s, bytes| {
            pending.insert(s, bytes);
        });
    }

    fn retire_pending(&self, lba: u64, sectors: u32) {
        let mut pending = self.pending.borrow_mut();
        let mut platter = self.platter.borrow_mut();
        for s in lba..lba + sectors as u64 {
            if let Some(entry) = pending.remove(&s) {
                put_sector(&mut platter, s, entry);
            }
        }
    }

    fn store_payload(&self, ssz: usize, lba: u64, sectors: u32, payload: &Payload) {
        store_sectors(&mut self.platter.borrow_mut(), ssz, lba, sectors, payload);
    }

    fn drop_or_preserve_buffer(&self, cut_preserves_buffer: bool) {
        let mut pending = self.pending.borrow_mut();
        if cut_preserves_buffer {
            let mut platter = self.platter.borrow_mut();
            for (lba, entry) in pending.drain() {
                match entry {
                    Some(bytes) => {
                        platter.insert(lba, bytes);
                    }
                    None => {
                        platter.remove(&lba);
                    }
                }
            }
        } else {
            pending.clear();
        }
    }

    fn platter_image(&self) -> DiskImage {
        self.platter.borrow().clone()
    }

    fn image_with_write_buffer(&self) -> DiskImage {
        let mut image = self.platter.borrow().clone();
        for (&lba, entry) in self.pending.borrow().iter() {
            put_sector(&mut image, lba, entry.clone());
        }
        image
    }
}

/// The framed store, held as the disk task holds it.
#[derive(Default)]
struct Framed {
    platter: store::DiskImage,
    buffer: WriteBuffer,
}

/// Sectors a script writes: five frames, and a sixth its longest writes
/// spill into.
const LBAS: u64 = 40;
const LONGEST: u32 = 20;
const OPS: u8 = 12;

/// One script step: `(op, lba, sectors, flavour)`, reduced modulo
/// [`OPS`], [`LBAS`], [`LONGEST`] and what the op makes of its flavour.
type Step = (u8, u64, u32, u32);

/// What a batch of scripts must reach, in [`Reached`]'s order.
const REACHED: [&str; 17] = [
    "buffered writes",
    "write-through writes",
    "real payloads",
    "short payloads",
    "simulated payloads",
    "unaligned ranges",
    "frame-straddling ranges",
    "buffered writes over buffered sectors",
    "retirements of part of a frame's buffered sectors",
    "retirements of a whole buffered frame",
    "torn prefixes",
    "post-cut retirements",
    "buffers preserved at a cut",
    "buffers dropped at a cut",
    "captures under a loaded buffer",
    "stores into a frame a capture shares",
    "writes after a restore",
];
type Reached = [u32; REACHED.len()];

/// An image captured from both stores at one instant.
struct Capture {
    framed: store::DiskImage,
    spec: DiskImage,
}

/// The framed image holding exactly `spec`'s sectors, built one sector
/// at a time from the highest LBA down — no route the stores under test
/// take.
fn framed_from(spec: &DiskImage, ssz: usize) -> store::DiskImage {
    let mut lbas: Vec<u64> = spec.keys().copied().collect();
    lbas.sort_unstable_by(|a, b| b.cmp(a));
    let mut image = store::DiskImage::default();
    for lba in lbas {
        store::store_sectors(&mut image, ssz, lba, 1, &Payload::copy_of(&spec[&lba]));
    }
    image
}

fn assert_same_image(framed: &store::DiskImage, spec: &DiskImage, ssz: usize, what: &str) {
    for lba in 0..LBAS + LONGEST as u64 {
        assert_eq!(framed.sector(lba), spec.get(&lba).map(|s| &**s), "{what}: sector {lba}");
    }
    assert_eq!(framed.len(), spec.len(), "{what}: len()");
    assert_eq!(framed.is_empty(), spec.is_empty(), "{what}: is_empty()");
    assert_eq!(framed.sectors().count(), spec.len(), "{what}: sectors()");
    let rebuilt = framed_from(spec, ssz);
    assert!(*framed == rebuilt, "{what}: == against a rebuilt image");
    if let Some(&lba) = spec.keys().next() {
        let mut other = rebuilt;
        store::store_sectors(&mut other, ssz, lba, 1, &Payload::Simulated(ssz as u32));
        assert!(*framed != other, "{what}: == must see sector {lba} missing");
    }
}

/// Steps both stores through `script` at sector size `ssz`, checking
/// them against each other after every step. `aliasing` plants the one
/// bug safe code cannot write into the store itself — a store that
/// writes through a shared frame — by replaying each platter store into
/// the images captured before it, which is what aliasing would do.
fn run_script(script: &[Step], ssz: usize, aliasing: bool) -> Reached {
    let (spec, mut framed) = (Spec::default(), Framed::default());
    let mut captures: Vec<Capture> = Vec::new();
    let mut restored = false;
    let mut reached = [0; REACHED.len()];
    for (seq, &(op, lba, sectors, flavour)) in script.iter().enumerate() {
        let op = op % OPS;
        // Half the ranges are whole frames, the shape a file-system
        // block write has; the rest start and end anywhere.
        let (lba, sectors) = match flavour & 1 {
            0 => (lba % LBAS / 8 * 8, 8 * (1 + sectors % 2)),
            _ => (lba % LBAS, 1 + sectors % LONGEST),
        };
        let full = sectors as usize * ssz;
        let real = |len: usize| {
            Payload::copy_of(&(0..len).map(|i| (seq * 37 + i * 11 + 1) as u8).collect::<Vec<u8>>())
        };
        let payload = match flavour >> 1 & 3 {
            0 | 1 => real(full),
            2 => real((flavour >> 3) as usize * full / 32),
            _ => Payload::Simulated(full as u32),
        };
        let shared = |captures: &[Capture]| {
            captures.iter().any(|c| (lba..lba + sectors as u64).any(|s| c.spec.contains_key(&s)))
        };
        let store = |framed: &mut Framed, captures: &mut [Capture], sectors: u32| {
            spec.store_payload(ssz, lba, sectors, &payload);
            store::store_sectors(&mut framed.platter, ssz, lba, sectors, &payload);
            if aliasing {
                for c in captures.iter_mut() {
                    store::store_sectors(&mut c.framed, ssz, lba, sectors, &payload);
                }
            }
        };
        match op {
            0..=4 => {
                // A write: buffered (immediate report) three times in
                // five, else write-through.
                match &payload {
                    Payload::Simulated(_) => reached[4] += 1,
                    Payload::Data(d) if d.byte_len() < full => reached[3] += 1,
                    Payload::Data(_) => reached[2] += 1,
                }
                reached[5] += (lba % 8 != 0 || sectors % 8 != 0) as u32;
                reached[6] += (lba / 8 != (lba + sectors as u64 - 1) / 8) as u32;
                reached[16] += restored as u32;
                if op < 3 {
                    reached[0] += 1;
                    let pending = spec.pending.borrow();
                    reached[7] +=
                        (lba..lba + sectors as u64).any(|s| pending.contains_key(&s)) as u32;
                    drop(pending);
                    spec.stash_pending(ssz, lba, sectors, &payload);
                    framed.buffer.stash(ssz, lba, sectors, &payload);
                } else {
                    reached[1] += 1;
                    reached[15] += shared(&captures) as u32;
                    store(&mut framed, &mut captures, sectors);
                }
            }
            5 | 6 => {
                // A write-back completes: its range retires.
                {
                    let pending = spec.pending.borrow();
                    let buffered = |s: &u64| pending.contains_key(s);
                    for frame in lba / 8..=(lba + sectors as u64 - 1) / 8 {
                        let (all, due) = (
                            (frame * 8..frame * 8 + 8).filter(buffered).count(),
                            (frame * 8..frame * 8 + 8)
                                .filter(|s| (lba..lba + sectors as u64).contains(s))
                                .filter(buffered)
                                .count(),
                        );
                        reached[8] += (0 < due && due < all) as u32;
                        reached[9] += (0 < due && due == all) as u32;
                    }
                }
                reached[15] += shared(&captures) as u32;
                spec.retire_pending(lba, sectors);
                framed.buffer.retire(lba, sectors, &mut framed.platter);
            }
            7 => {
                // The cut lands on a write: a prefix becomes durable.
                let durable = 1 + (flavour >> 3) % sectors;
                reached[10] += 1;
                store(&mut framed, &mut captures, durable);
            }
            8 => {
                // A write served after the cut still retires.
                reached[11] += 1;
                store(&mut framed, &mut captures, sectors);
            }
            9 => {
                let preserve = flavour & 2 != 0;
                let loaded = !spec.pending.borrow().is_empty();
                reached[12] += (preserve && loaded) as u32;
                reached[13] += (!preserve && loaded) as u32;
                spec.drop_or_preserve_buffer(preserve);
                if preserve {
                    framed.buffer.retire_all(&mut framed.platter);
                } else {
                    framed.buffer.clear();
                }
            }
            10 => {
                // Capture, with or without the write buffer.
                let capture = if flavour & 2 != 0 {
                    reached[14] += !spec.pending.borrow().is_empty() as u32;
                    Capture {
                        framed: framed.buffer.over(&framed.platter),
                        spec: spec.image_with_write_buffer(),
                    }
                } else {
                    Capture { framed: framed.platter.clone(), spec: spec.platter_image() }
                };
                assert_same_image(&capture.framed, &capture.spec, ssz, "capture");
                captures.truncate(2);
                captures.insert(0, capture);
            }
            _ => {
                // Power-on from the newest capture; it stays held.
                if let Some(capture) = captures.first() {
                    *spec.platter.borrow_mut() = capture.spec.clone();
                    spec.pending.borrow_mut().clear();
                    framed = Framed { platter: capture.framed.clone(), ..Framed::default() };
                    restored = true;
                }
            }
        }
        let what = format!("step {seq} {:?}", (op, lba, sectors, flavour));
        assert_same_image(&framed.platter, &spec.platter.borrow(), ssz, &what);
        let over = framed.buffer.over(&framed.platter);
        assert_same_image(&over, &spec.image_with_write_buffer(), ssz, &format!("{what}, buffer"));
        for lba in 0..LBAS + LONGEST as u64 {
            for sectors in [1, 7, 8, 9, 17] {
                assert_eq!(
                    framed.buffer.load(&framed.platter, ssz, lba, sectors),
                    load_sectors(&spec.pending, &spec.platter, ssz, lba, sectors),
                    "{what}: load of {sectors} from {lba}"
                );
            }
        }
        for (age, capture) in captures.iter().enumerate() {
            assert_same_image(
                &capture.framed,
                &capture.spec,
                ssz,
                &format!("{what}, capture {age}"),
            );
        }
    }
    reached
}

proptest! {
    #[test]
    fn the_framed_store_equals_the_per_sector_maps_on_random_scripts(
        script in prop::collection::vec((0u8..OPS, 0..LBAS, 0u32..LONGEST, 0u32..256), 1..120),
        wide in 0u8..2,
    ) {
        run_script(&script, if wide == 1 { 512 } else { 4 }, false);
    }
}

/// A fixed batch of scripts, alternating sector sizes 4 and 512.
fn run_batch(aliasing: bool) -> Reached {
    let mut x = 0x2545_F491_4F6C_DD1Du64;
    let mut next = |bound: u64| {
        x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        (x >> 33) % bound
    };
    let mut reached = [0; REACHED.len()];
    for case in 0..48 {
        let script: Vec<Step> = (0..120)
            .map(|_| {
                (next(OPS as u64) as u8, next(LBAS), next(LONGEST as u64) as u32, next(256) as u32)
            })
            .collect();
        let here = run_script(&script, if case % 2 == 1 { 512 } else { 4 }, aliasing);
        (0..REACHED.len()).for_each(|i| reached[i] += here[i]);
    }
    reached
}

#[test]
fn the_scripts_reach_every_transition() {
    // The property above is only as strong as the states its scripts
    // reach.
    for (what, n) in REACHED.iter().zip(run_batch(false)) {
        assert!(n >= 100, "the scripts reached only {n} {what}");
    }
}

#[test]
#[should_panic(expected = "== against a rebuilt image")]
fn an_emptied_frame_left_in_the_map_is_caught() {
    PLANTED.set(Some(Mutant::EmptiedFrameStays));
    run_batch(false);
}

#[test]
#[should_panic(expected = ", buffer: sector")]
fn a_retirement_of_the_older_of_two_buffered_writes_is_caught() {
    PLANTED.set(Some(Mutant::OlderWriteWins));
    run_batch(false);
}

#[test]
#[should_panic(expected = ", capture 0: sector")]
fn a_store_through_a_shared_frame_is_caught() {
    run_batch(true);
}
