//! The name memo: what the name path remembers about single-block
//! directories it has already validated.
//!
//! A lookup reads its directory block through the cache every time (the
//! hit, the LRU touch and the copy delay are simulated events), and the
//! cache hands over the frame's content stamp with the bytes. A stamp
//! names one assignment of a frame's bytes and is never reused, so
//! *stamp equal ⇒ bytes equal ⇒ already validated*: the memo keys what
//! it knows about a directory on `(stamp, size)` and never has to be
//! told that a directory changed — a rewrite, an eviction and reload, a
//! crash-recovery restore all change the stamp, whoever caused them and
//! whenever a reader runs relative to them.
//!
//! What it keeps follows what it observes. The first sighting of a
//! `(stamp, size)` walks and validates the block as `dir::lookup` does
//! and remembers only the pair; a second sighting — the block outlived
//! one lookup unchanged — walks and validates again and keeps each
//! record's name hash and offset, sorted; from the third on a lookup
//! binary-searches the hashes and confirms the name against the bytes in
//! hand, first match in listing order. A directory rewritten between
//! lookups never gets past the first step and pays for no index.

use std::collections::HashMap;
use std::hash::Hasher;

use cnp_cache::{FixedHasher, FixedState};
use cnp_layout::{dir, FileKind, Ino};

/// What the memo knows about one directory.
#[derive(Default)]
struct Memo {
    /// Content stamp and size of the block last looked in; no resident
    /// frame has stamp 0.
    stamp: u64,
    size: usize,
    /// `slots` lists every record of that block.
    indexed: bool,
    /// `(name hash, record offset)`, sorted: equal hashes in listing
    /// order. Kept across rewrites for its capacity.
    slots: Vec<(u64, u32)>,
}

/// How a lookup went through the memo.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(super) enum Step {
    /// A directory the memo holds nothing on: walked.
    First,
    /// Other bytes than last time (the stamp differs): walked.
    Restamped,
    /// The same bytes under another size: walked.
    Resized,
    /// Seen twice unchanged: walked and indexed, answered from the index.
    Built,
    /// Seen twice unchanged, and as corrupt as the first time.
    BuildFailed,
    /// Answered from the index.
    Hit,
}

/// The name memos of one engine, by directory inode.
#[derive(Default)]
pub(super) struct NameMemos {
    dirs: HashMap<Ino, Memo, FixedState>,
    /// Every lookup's step, for the tests that count transitions.
    #[cfg(test)]
    pub(super) log: Vec<(Ino, Step)>,
}

fn name_hash(name: &[u8]) -> u64 {
    let mut h = FixedHasher::default();
    h.write(name);
    h.finish()
}

impl NameMemos {
    /// `dir::lookup(bytes, name)`, value and error, for `bytes` read
    /// from the cache frame holding block 0 of single-block directory
    /// `dir` under content stamp `stamp`.
    pub(super) fn lookup(
        &mut self,
        dir: Ino,
        stamp: u64,
        bytes: &[u8],
        name: &str,
    ) -> Result<Option<(Ino, FileKind)>, String> {
        let (step, found) = self.dirs.entry(dir).or_default().lookup(stamp, bytes, name);
        #[cfg(test)]
        self.log.push((dir, step));
        let _ = step;
        found
    }

    /// Drops what is known of `dir` (it was removed; its number may
    /// come back as another directory).
    pub(super) fn forget(&mut self, dir: Ino) {
        self.dirs.remove(&dir);
    }

    /// Mutant support: what a `set_data` that kept its frame's stamp
    /// looks like from here.
    pub(super) fn restamp(&mut self, old: u64, new: u64) {
        for memo in self.dirs.values_mut().filter(|m| m.stamp == old) {
            memo.stamp = new;
        }
    }
}

impl Memo {
    fn lookup(
        &mut self,
        stamp: u64,
        bytes: &[u8],
        name: &str,
    ) -> (Step, Result<Option<(Ino, FileKind)>, String>) {
        if (self.stamp, self.size) != (stamp, bytes.len()) {
            let step = match self.stamp {
                0 => Step::First,
                seen if seen == stamp => Step::Resized,
                _ => Step::Restamped,
            };
            (self.stamp, self.size, self.indexed) = (stamp, bytes.len(), false);
            return (step, dir::lookup(bytes, name));
        }
        let step = if self.indexed { Step::Hit } else { Step::Built };
        if !self.indexed {
            self.slots.clear();
            let slots = &mut self.slots;
            if let Err(e) = dir::scan(bytes, |rec| slots.push((name_hash(rec.name), rec.at as u32)))
            {
                return (Step::BuildFailed, Err(e));
            }
            self.slots.sort_unstable();
            self.indexed = true;
        }
        let name = name.as_bytes();
        let hash = name_hash(name);
        let from = self.slots.partition_point(|&(h, _)| h < hash);
        let found = self.slots[from..]
            .iter()
            .take_while(|&&(h, _)| h == hash)
            .filter_map(|&(_, at)| dir::record_at(bytes, at as usize)?.ok())
            .find(|rec| rec.name == name || planted(Mutant::SlotsUnconfirmed))
            .map(|rec| (rec.ino, rec.kind));
        (step, Ok(found))
    }
}

/// The bugs the differential test below plants to show it has teeth;
/// none is ever planted outside that test.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(super) enum Mutant {
    /// `BlockCache::set_data` leaves the frame's content stamp as it was.
    SetDataKeepsStamp,
    /// An index hit answers with the first record of the probed hash,
    /// whatever its name.
    SlotsUnconfirmed,
}

#[cfg(test)]
thread_local! {
    pub(super) static PLANTED: std::cell::Cell<Option<Mutant>> =
        const { std::cell::Cell::new(None) };
}

#[cfg(test)]
pub(super) fn planted(mutant: Mutant) -> bool {
    PLANTED.get() == Some(mutant)
}

#[cfg(not(test))]
pub(super) fn planted(_: Mutant) -> bool {
    false
}

#[cfg(test)]
mod tests {
    //! The memo against its specification: after every step of a
    //! random namespace script, every path must resolve through the
    //! engine (and so through the memo) to what `dir::lookup` finds in
    //! the decoded listings, value and error.

    use std::collections::{BTreeSet, HashMap};
    use std::rc::Rc;

    use cnp_cache::CacheConfig;
    use cnp_disk::{sim_disk_driver, CLook, Hp97560};
    use cnp_layout::{FfsLayout, FfsParams, Layout, LayoutError, LfsLayout, LfsParams, BLOCK_SIZE};
    use cnp_sim::{Sim, SimDuration};
    use proptest::prelude::*;

    use super::*;
    use crate::config::{DataMode, FsConfig};
    use crate::error::{FsError, FsResult};
    use crate::fs::{ClientFs, FileSystem};

    /// Entry names: few, so scripts collide; `a` and `a\0` share a hash
    /// (the hasher pads its last word with zeroes); one is not ASCII.
    const NAMES: [&str; 4] = ["a", "a\0", "é", "b"];

    /// Every path of depth one, then every path of depth two.
    fn paths() -> Vec<String> {
        let one = NAMES.iter().map(|n| format!("/{n}"));
        let two = NAMES.iter().flat_map(|d| NAMES.iter().map(move |n| format!("/{d}/{n}")));
        one.chain(two).collect()
    }

    /// One client's part of a step: what to do, to which path (and which
    /// other path), after how many 20 us of standing by.
    type Op = (u8, usize, usize, u64);
    const OPS: u8 = 16;
    const PATHS: usize = NAMES.len() * (NAMES.len() + 1);
    /// A turn: two clients' operations, run interleaved, and which
    /// directory (the root, `/NAMES[i - 1]`, or from `NAMES.len() + 1` on
    /// none) reads as corrupt while the turn is checked.
    type Turn = (Op, Op, usize);
    const SCRIBBLES: usize = 24;

    async fn apply(client: ClientFs, (what, path, other, wait): Op, paths: Rc<Vec<String>>) {
        client.fs().handle().sleep(SimDuration::from_micros(20 * wait)).await;
        let path = &paths[path];
        // Most of these fail, as they should; the check below is what
        // the namespace looks like afterwards.
        match what {
            0..=2 => drop(client.create(path, FileKind::Regular).await),
            3..=5 => drop(client.mkdir(path).await),
            6 => drop(client.unlink(path).await),
            7 => drop(client.rmdir(path).await),
            // Whatever the root's `other`-th entry is, it goes: a
            // directory the memo knows, emptied and removed, is what
            // gives its inode number to the next one.
            8 => {
                let listing = client.readdir("/").await.unwrap_or_default();
                let Some(entry) = listing.get(other % listing.len().max(1)) else { return };
                let victim = format!("/{}", entry.name);
                for name in NAMES {
                    drop(client.unlink(&format!("{victim}/{name}")).await);
                }
                drop(client.rmdir(&victim).await);
                drop(client.unlink(&victim).await);
            }
            9..=10 => drop(client.rename(path, &paths[other]).await),
            // A reader that keeps looking while the other client writes:
            // the one way to see a directory between a rewrite's bytes
            // and its size.
            11..=14 => {
                for _ in 0..4 {
                    drop(client.lookup(path).await);
                }
            }
            _ => drop(client.stat(path).await),
        }
    }

    fn corrupt(detail: String) -> FsError {
        FsError::Layout(LayoutError::Corrupt(detail))
    }

    /// `lookup(path)` by the specification: each directory's bytes read
    /// back through the cache by inode, decoded to a listing, and the
    /// listing searched. Notes the bytes of every directory it reads.
    async fn lookup_by_listing(
        fs: &FileSystem,
        path: &str,
        read: &mut Vec<(Ino, Vec<u8>)>,
    ) -> FsResult<Ino> {
        let mut cur = Ino::ROOT;
        for part in path[1..].split('/') {
            let bytes = fs.scan_dir(cur, path, |bytes, _| Ok(bytes.to_vec())).await?;
            read.push((cur, bytes.clone()));
            let listing = dir::decode(&bytes).map_err(corrupt)?;
            let found = dir::lookup(&dir::encode(&listing), part).map_err(corrupt)?;
            cur = found.ok_or(FsError::NotFound)?.0;
        }
        Ok(cur)
    }

    /// Sets (or clears) the top bit of the first record's kind byte in
    /// `dir`'s block, if it is a directory that has one, through the
    /// engine's block write.
    async fn scribble(fs: &FileSystem, dir: Ino, on: bool) {
        if !fs.stat_ino(dir).await.is_ok_and(|i| i.kind == FileKind::Directory && i.size > 0) {
            return;
        }
        let Ok(Some(mut bytes)) = fs.read_block_cached(dir, 0).await else { return };
        let kind = bytes[8];
        bytes.make_mut()[8] = if on { kind | 0x80 } else { kind & 0x7f };
        fs.write_block_cached(cnp_cache::UNATTRIBUTED, dir, 0, Some(bytes)).await.unwrap();
    }

    /// The memo transitions a script can reach, as [`run_script`] counts
    /// them.
    const REACHED: [&str; 8] = [
        "first sightings",
        "index builds",
        "index hits",
        "stamp mismatches after a rewrite",
        "stamp mismatches after an eviction and reload",
        "size-only mismatches",
        "first sightings of a reused inode number",
        "corrupt blocks on their second sighting",
    ];

    /// Test-side knowledge the counts need: which inode numbers the
    /// memo has held before, and each directory's bytes when the memo
    /// last looked (absent when it looked while clients were running).
    #[derive(Default)]
    struct Seen {
        inos: BTreeSet<Ino>,
        bytes: HashMap<Ino, Vec<u8>>,
        reached: [u64; REACHED.len()],
    }

    impl Seen {
        /// Counts the steps logged since the last call; `read` holds the
        /// bytes of the directories they looked in, if known.
        fn note(&mut self, fs: &FileSystem, read: &[(Ino, Vec<u8>)]) {
            for (ino, step) in fs.s.names.borrow_mut().log.drain(..) {
                let now = read.iter().find(|(i, _)| *i == ino).map(|(_, bytes)| bytes);
                let reached = match step {
                    Step::First if self.inos.insert(ino) => Some(0),
                    Step::First => Some(6),
                    Step::Built => Some(1),
                    Step::Hit => Some(2),
                    Step::Restamped => match (self.bytes.get(&ino), now) {
                        (Some(before), Some(now)) if before != now => Some(3),
                        (Some(_), Some(_)) => Some(4),
                        _ => None,
                    },
                    Step::Resized => Some(5),
                    Step::BuildFailed => Some(7),
                };
                if let Some(i) = reached {
                    self.reached[i] += 1;
                }
                match now {
                    Some(now) => self.bytes.insert(ino, now.clone()),
                    None => self.bytes.remove(&ino),
                };
            }
        }
    }

    /// Runs one script on a cache of three frames (the root and four
    /// directories do not fit, so directory blocks are evicted and
    /// loaded again) and checks every path after every turn; returns how
    /// often each of [`REACHED`] happened. Of the two layouts only FFS
    /// hands a freed inode number out again.
    fn run_script(script: Vec<Turn>, ffs: bool) -> [u64; REACHED.len()] {
        let sim = Sim::new(31);
        let h = sim.handle();
        let driver = sim_disk_driver(&h, "d0", Box::new(Hp97560::new()), Box::new(CLook));
        let layout = match ffs {
            true => Layout::Ffs(FfsLayout::new(&h, driver, FfsParams::default())),
            false => Layout::Lfs(LfsLayout::new(&h, driver, LfsParams::default())),
        };
        let cache = CacheConfig {
            block_size: BLOCK_SIZE,
            mem_bytes: 3 * BLOCK_SIZE as u64,
            nvram_bytes: None,
        };
        let cfg = FsConfig {
            cache,
            flush: "ups".into(),
            data_mode: DataMode::Real,
            ..FsConfig::default()
        };
        let fs = FileSystem::new(&h, layout, cfg);
        sim.block_on("test", async move {
            fs.format().await.unwrap();
            let paths = Rc::new(paths());
            let mut seen = Seen::default();
            for (i, (op0, op1, scribbled)) in script.into_iter().enumerate() {
                let clients = [(0, op0), (1, op1)];
                let ops = clients.map(|(c, op)| Box::pin(apply(fs.client(c), op, paths.clone())));
                cnp_sim::join_all(ops).await;
                seen.note(&fs, &[]);
                let scribbled = match scribbled {
                    0 => Some(Ino::ROOT),
                    n if n <= NAMES.len() => fs.lookup(&paths[n - 1]).await.ok(),
                    _ => None,
                };
                if let Some(dir) = scribbled {
                    scribble(&fs, dir, true).await;
                }
                for path in paths.iter() {
                    let got = fs.lookup(path).await;
                    let mut read = Vec::new();
                    let want = lookup_by_listing(&fs, path, &mut read).await;
                    assert_eq!(got, want, "lookup {path:?} after step {i}");
                    seen.note(&fs, &read);
                }
                if let Some(dir) = scribbled {
                    scribble(&fs, dir, false).await;
                }
            }
            fs.shutdown();
            seen.reached
        })
    }

    proptest! {
        #[test]
        fn every_lookup_equals_dir_lookup_over_the_decoded_listings(
            script in prop::collection::vec(
                (
                    (0..OPS, 0..PATHS, 0..PATHS, 0u64..16),
                    (0..OPS, 0..PATHS, 0..PATHS, 0u64..16),
                    0..SCRIBBLES,
                ),
                1..40,
            ),
            ffs in 0u8..2,
        ) {
            run_script(script, ffs == 1);
        }
    }

    /// Turns that reach, three times over, the two transitions random
    /// scripts seldom do: a reader that looks into the root between an
    /// unlink's bytes and its size (the size-only mismatch follows when
    /// the root is looked into again), and a directory the memo knew
    /// whose inode number FFS hands to the next directory.
    fn directed() -> Vec<Turn> {
        let paths = paths();
        let at = |path: &str| paths.iter().position(|p| p == path).unwrap();
        let (create, mkdir, unlink, rmdir, poll) = (0, 3, 6, 7, 11);
        let alone = |what, path| ((what, at(path), 0, 0), (15, at("/a"), 0, 0), SCRIBBLES - 1);
        let cycle = [
            alone(mkdir, "/a"),
            alone(create, "/b"),
            alone(create, "/a/b"),
            // The unlink's bytes land 180 us in, its size 260 us in;
            // the reader's first look at the root is 200 us in.
            ((unlink, at("/b"), 0, 0), (poll, at("/a"), 0, 5), SCRIBBLES - 1),
            alone(unlink, "/a/b"),
            alone(rmdir, "/a"),
            alone(mkdir, "/é"),
            alone(create, "/é/a"),
            alone(unlink, "/é/a"),
            alone(rmdir, "/é"),
        ];
        cycle.repeat(3)
    }

    /// A fixed batch of scripts: the directed turns, then random ones.
    fn run_batch() -> [u64; REACHED.len()] {
        let mut x = 0x2545_F491_4F6C_DD1Du64;
        let mut next = |bound: u64| {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (x >> 33) % bound
        };
        let mut op = || {
            (
                next(OPS as u64) as u8,
                next(PATHS as u64) as usize,
                next(PATHS as u64) as usize,
                next(16),
            )
        };
        let mut reached = [0; REACHED.len()];
        for case in 0..48 {
            let random = (0..100).map(|_| (op(), op(), op().1 % SCRIBBLES));
            let script = directed().into_iter().chain(random).collect();
            let here = run_script(script, case % 2 == 1);
            (0..REACHED.len()).for_each(|i| reached[i] += here[i]);
        }
        reached
    }

    #[test]
    fn the_scripts_reach_every_memo_transition() {
        // The property above is only as strong as the states its
        // scripts reach.
        for (what, n) in REACHED.iter().zip(run_batch()) {
            assert!(n >= 50, "the scripts reached only {n} {what}");
        }
    }

    #[test]
    #[should_panic(expected = "lookup \"/")]
    fn a_set_data_that_keeps_the_stamp_is_caught() {
        PLANTED.set(Some(Mutant::SetDataKeepsStamp));
        run_batch();
    }

    #[test]
    #[should_panic(expected = "lookup \"/")]
    fn an_index_hit_that_does_not_confirm_the_name_is_caught() {
        PLANTED.set(Some(Mutant::SlotsUnconfirmed));
        run_batch();
    }
}
