//! Fsck-style consistency walker over the abstract storage-layout
//! interface.
//!
//! [`check`] walks the directory tree from the root and verifies the
//! invariants any layout (LFS, FFS, sim-guess) must uphold after a
//! crash + recovery: every dirent references a readable inode of the
//! right kind, directory content decodes, every mapped block address is
//! on the device, and no block is claimed by two files. [`repair`]
//! applies the classic fsck remedies — drop dangling entries, truncate
//! at the first bad pointer — and re-checks until clean.

use std::collections::{BTreeMap, BTreeSet, HashMap};

use cnp_disk::{Block, Payload};
use cnp_layout::dir::{self, Dirent};
use cnp_layout::{BlockAddr, FileKind, Ino, LResult, StorageLayout, BLOCK_SIZE};

/// One invariant violation found by the walker.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Violation {
    /// The root inode is missing or not a directory.
    RootBroken(String),
    /// A directory entry references an unreadable/free inode.
    DanglingDirent {
        /// Directory holding the entry.
        dir: Ino,
        /// Entry name.
        name: String,
        /// Referenced (broken) inode.
        ino: Ino,
    },
    /// A directory entry's kind disagrees with its inode.
    KindMismatch {
        /// Directory holding the entry.
        dir: Ino,
        /// Entry name.
        name: String,
        /// Referenced inode.
        ino: Ino,
    },
    /// An inode is referenced by more than one directory entry.
    MultiplyReferenced {
        /// Directory holding the duplicate entry.
        dir: Ino,
        /// Entry name.
        name: String,
        /// Referenced inode.
        ino: Ino,
    },
    /// A directory block within the directory's size is missing.
    DirDataMissing {
        /// The directory.
        dir: Ino,
        /// Missing file-block index.
        blk: u64,
    },
    /// Directory content failed to decode.
    DirCorrupt {
        /// The directory.
        dir: Ino,
        /// Decoder error.
        detail: String,
    },
    /// Mapping a file block failed at the layout.
    MapError {
        /// Owning inode.
        ino: Ino,
        /// File-block index.
        blk: u64,
        /// Layout error text.
        detail: String,
    },
    /// A block pointer leaves the device.
    AddrOutOfRange {
        /// Owning inode.
        ino: Ino,
        /// File-block index.
        blk: u64,
        /// The offending address.
        addr: BlockAddr,
    },
    /// Two files (or two blocks of one file) claim the same address.
    CrossLink {
        /// Second claimant inode.
        ino: Ino,
        /// Second claimant file-block index.
        blk: u64,
        /// First claimant inode.
        other: Ino,
        /// First claimant file-block index.
        other_blk: u64,
        /// The shared address.
        addr: BlockAddr,
    },
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Violation::RootBroken(d) => write!(f, "root broken: {d}"),
            Violation::DanglingDirent { dir, name, ino } => {
                write!(f, "dangling dirent {dir}/{name} -> {ino}")
            }
            Violation::KindMismatch { dir, name, ino } => {
                write!(f, "kind mismatch {dir}/{name} -> {ino}")
            }
            Violation::MultiplyReferenced { dir, name, ino } => {
                write!(f, "multiply referenced {ino} via {dir}/{name}")
            }
            Violation::DirDataMissing { dir, blk } => {
                write!(f, "directory {dir} block {blk} missing")
            }
            Violation::DirCorrupt { dir, detail } => write!(f, "directory {dir} corrupt: {detail}"),
            Violation::MapError { ino, blk, detail } => {
                write!(f, "map error {ino} block {blk}: {detail}")
            }
            Violation::AddrOutOfRange { ino, blk, addr } => {
                write!(f, "{ino} block {blk} points off-device at {addr}")
            }
            Violation::CrossLink { ino, blk, other, other_blk, addr } => {
                write!(f, "cross-link at {addr}: {ino}:{blk} vs {other}:{other_blk}")
            }
        }
    }
}

/// Walker result: violations plus coverage counters.
#[derive(Debug, Clone, Default)]
pub struct FsckReport {
    /// Invariant violations, in walk order.
    pub violations: Vec<Violation>,
    /// Directories visited.
    pub dirs: u64,
    /// Files visited.
    pub files: u64,
    /// Mapped blocks verified.
    pub blocks: u64,
    /// Every inode reachable from the root (ascending).
    pub reachable: Vec<u64>,
    /// Allocated inodes unreachable from the root: orphans. `repair`
    /// attaches these to `/lost+found`.
    pub orphans: Vec<u64>,
}

impl FsckReport {
    /// True if no violation was found.
    pub fn clean(&self) -> bool {
        self.violations.is_empty()
    }
}

/// What [`repair`] did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RepairReport {
    /// Directory entries dropped (dangling/mismatched/duplicate).
    pub entries_removed: u64,
    /// Directories reset because their content was unreadable.
    pub dirs_reset: u64,
    /// Files truncated at their first bad block pointer.
    pub files_truncated: u64,
    /// Unreachable allocated inodes attached to `/lost+found`.
    pub orphans_attached: u64,
    /// Repair rounds run (each ends with a re-check).
    pub rounds: u64,
}

/// Walks the tree and reports every invariant violation.
pub async fn check<L: StorageLayout>(layout: &mut L) -> FsckReport {
    let mut report = FsckReport::default();
    let capacity_blocks = {
        let driver = layout.driver();
        driver.capacity_sectors() / (BLOCK_SIZE / driver.sector_size()) as u64
    };
    let root = match layout.get_inode(Ino::ROOT).await {
        Ok(i) => i,
        Err(e) => {
            report.violations.push(Violation::RootBroken(e.to_string()));
            return report;
        }
    };
    if root.kind != FileKind::Directory {
        report.violations.push(Violation::RootBroken("root is not a directory".into()));
        return report;
    }
    let mut stack: Vec<Ino> = vec![Ino::ROOT];
    let mut visited: BTreeSet<u64> = BTreeSet::new();
    visited.insert(Ino::ROOT.0);
    // addr -> first claimant (ino, file block). Only probed, never
    // walked, so its order is never seen; one entry per block mapped.
    let mut owners: HashMap<u64, (Ino, u64)> = HashMap::new();
    while let Some(dir_ino) = stack.pop() {
        report.dirs += 1;
        let Ok(dir_inode) = layout.get_inode(dir_ino).await else {
            continue; // Reported when the dirent was checked.
        };
        walk_blocks(layout, &dir_inode, capacity_blocks, &mut owners, &mut report).await;
        let entries = match read_dir(layout, &dir_inode).await {
            Ok(entries) => entries,
            Err(v) => {
                report.violations.push(v);
                continue;
            }
        };
        for entry in entries {
            let inode = match layout.get_inode(entry.ino).await {
                Ok(i) => i,
                Err(_) => {
                    report.violations.push(Violation::DanglingDirent {
                        dir: dir_ino,
                        name: entry.name.clone(),
                        ino: entry.ino,
                    });
                    continue;
                }
            };
            if inode.kind != entry.kind {
                report.violations.push(Violation::KindMismatch {
                    dir: dir_ino,
                    name: entry.name.clone(),
                    ino: entry.ino,
                });
                continue;
            }
            if !visited.insert(entry.ino.0) {
                report.violations.push(Violation::MultiplyReferenced {
                    dir: dir_ino,
                    name: entry.name.clone(),
                    ino: entry.ino,
                });
                continue;
            }
            if inode.kind == FileKind::Directory {
                stack.push(entry.ino);
            } else {
                report.files += 1;
                walk_blocks(layout, &inode, capacity_blocks, &mut owners, &mut report).await;
            }
        }
    }
    report.reachable = visited.iter().copied().collect();
    report.orphans =
        layout.allocated_inos().into_iter().map(|i| i.0).filter(|i| !visited.contains(i)).collect();
    report
}

/// Verifies one inode's block map, feeding the cross-link table.
async fn walk_blocks<L: StorageLayout>(
    layout: &mut L,
    inode: &cnp_layout::Inode,
    capacity_blocks: u64,
    owners: &mut HashMap<u64, (Ino, u64)>,
    report: &mut FsckReport,
) {
    for blk in 0..inode.blocks() {
        let addr = match layout.map_block(inode, blk).await {
            Ok(Some(a)) => a,
            Ok(None) => continue, // Hole: fine for files; dirs check it in read_dir.
            Err(e) => {
                report.violations.push(Violation::MapError {
                    ino: inode.ino,
                    blk,
                    detail: e.to_string(),
                });
                continue;
            }
        };
        if addr.0 >= capacity_blocks {
            report.violations.push(Violation::AddrOutOfRange { ino: inode.ino, blk, addr });
            continue;
        }
        report.blocks += 1;
        if let Some(&(other, other_blk)) = owners.get(&addr.0) {
            if other != inode.ino || other_blk != blk {
                report.violations.push(Violation::CrossLink {
                    ino: inode.ino,
                    blk,
                    other,
                    other_blk,
                    addr,
                });
            }
        } else {
            owners.insert(addr.0, (inode.ino, blk));
        }
    }
}

/// Reads and decodes a directory's content through the layout.
async fn read_dir<L: StorageLayout>(
    layout: &mut L,
    inode: &cnp_layout::Inode,
) -> Result<Vec<Dirent>, Violation> {
    let bytes = read_dir_bytes(layout, inode).await?;
    dir::decode(&bytes).map_err(|e| Violation::DirCorrupt { dir: inode.ino, detail: e })
}

/// Reads a directory's packed content through the layout.
async fn read_dir_bytes<L: StorageLayout>(
    layout: &mut L,
    inode: &cnp_layout::Inode,
) -> Result<Vec<u8>, Violation> {
    let mut bytes = Vec::with_capacity(inode.size as usize);
    for blk in 0..inode.blocks() {
        match layout.read_file_block(inode, blk).await {
            Ok(Some(p)) => match p.block(0) {
                Some(b) => bytes.extend_from_slice(b),
                None => return Err(Violation::DirDataMissing { dir: inode.ino, blk }),
            },
            Ok(None) => return Err(Violation::DirDataMissing { dir: inode.ino, blk }),
            Err(e) => return Err(Violation::DirCorrupt { dir: inode.ino, detail: e.to_string() }),
        }
    }
    bytes.truncate(inode.size as usize);
    Ok(bytes)
}

/// Repairs what [`check`] finds, fsck-style, and re-checks until clean
/// (or a bounded number of rounds).
///
/// Remedies: unreadable directory content resets the directory to
/// empty; dangling, kind-mismatched and duplicate entries are dropped;
/// files with bad pointers are truncated at the first bad block. Once
/// the tree checks clean, allocated-but-unreachable inodes (orphans —
/// e.g. files whose directory entry never became durable before a
/// crash) are attached to `/lost+found` instead of leaking, and the
/// adopted subtrees are re-checked.
pub async fn repair<L: StorageLayout>(layout: &mut L) -> LResult<(RepairReport, FsckReport)> {
    let mut rep = RepairReport::default();
    loop {
        let report = check(layout).await;
        rep.rounds += 1;
        if rep.rounds >= 8 {
            return Ok((rep, report));
        }
        if report.clean() {
            let adopted = adopt_orphans(layout, &report.orphans).await?;
            rep.orphans_attached += adopted;
            if adopted == 0 {
                return Ok((rep, report));
            }
            // Adopted subtrees are now reachable: verify them too.
            continue;
        }
        // Group entry-level drops per directory.
        let mut drops: BTreeMap<u64, Vec<String>> = BTreeMap::new();
        // File-level truncation points (first bad block per inode).
        let mut cuts: BTreeMap<u64, u64> = BTreeMap::new();
        let mut resets: BTreeSet<u64> = BTreeSet::new();
        for v in &report.violations {
            match v {
                Violation::RootBroken(_) => {
                    // Nothing a generic walker can do: the layout's own
                    // recover() is responsible for the root.
                }
                Violation::DanglingDirent { dir, name, .. }
                | Violation::KindMismatch { dir, name, .. }
                | Violation::MultiplyReferenced { dir, name, .. } => {
                    drops.entry(dir.0).or_default().push(name.clone());
                }
                Violation::DirDataMissing { dir, .. } | Violation::DirCorrupt { dir, .. } => {
                    resets.insert(dir.0);
                }
                Violation::MapError { ino, blk, .. }
                | Violation::AddrOutOfRange { ino, blk, .. }
                | Violation::CrossLink { ino, blk, .. } => {
                    let e = cuts.entry(ino.0).or_insert(*blk);
                    *e = (*e).min(*blk);
                }
            }
        }
        for dir in resets {
            let mut inode = layout.get_inode(Ino(dir)).await?;
            layout.truncate(&mut inode, 0).await?;
            inode.size = 0;
            layout.put_inode(&inode).await?;
            rep.dirs_reset += 1;
        }
        for (dir, names) in drops {
            let dir_ino = Ino(dir);
            let Ok(inode) = layout.get_inode(dir_ino).await else { continue };
            let Ok(mut entries) = read_dir(layout, &inode).await else { continue };
            let before = entries.len();
            entries.retain(|e| !names.contains(&e.name));
            rep.entries_removed += (before - entries.len()) as u64;
            write_dir(layout, dir_ino, &dir::encode(&entries)).await?;
        }
        for (ino, blk) in cuts {
            let Ok(mut inode) = layout.get_inode(Ino(ino)).await else { continue };
            layout.truncate(&mut inode, blk).await?;
            rep.files_truncated += 1;
        }
    }
}

/// The classic fsck orphanage directory at the root.
const LOST_FOUND: &str = "lost+found";

/// Attaches unreachable allocated inodes to `/lost+found` (created on
/// first use), naming each `orphan-<ino>`. Returns how many were
/// attached; inodes that cannot be read are skipped (their slots stay
/// leaked rather than risking a dangling entry).
async fn adopt_orphans<L: StorageLayout>(layout: &mut L, orphans: &[u64]) -> LResult<u64> {
    if orphans.is_empty() {
        return Ok(0);
    }
    let root = layout.get_inode(Ino::ROOT).await?;
    let Ok(mut root_bytes) = read_dir_bytes(layout, &root).await else {
        return Ok(0); // Root unreadable: structural repair comes first.
    };
    let lf_ino = match dir::lookup(&root_bytes, LOST_FOUND) {
        Err(_) => return Ok(0), // Root unreadable, as above.
        Ok(Some((ino, FileKind::Directory))) => ino,
        // Something non-directory squats on the name: leave it alone.
        Ok(Some(_)) => return Ok(0),
        Ok(None) => {
            let inode = layout.alloc_ino(FileKind::Directory, 0)?;
            layout.put_inode(&inode).await?;
            dir::append(&mut root_bytes, inode.ino, FileKind::Directory, LOST_FOUND)
                .map_err(cnp_layout::LayoutError::Corrupt)?;
            write_dir(layout, Ino::ROOT, &root_bytes).await?;
            inode.ino
        }
    };
    let lf_inode = layout.get_inode(lf_ino).await?;
    let mut bytes = read_dir_bytes(layout, &lf_inode).await.unwrap_or_default();
    let mut attached = 0u64;
    for &o in orphans {
        if o == lf_ino.0 {
            continue;
        }
        let Ok(inode) = layout.get_inode(Ino(o)).await else { continue };
        // The tree just checked clean, so a lost+found that is there
        // parses: the only refusal is a name already taken.
        if dir::append(&mut bytes, Ino(o), inode.kind, &format!("orphan-{o}")).is_ok() {
            attached += 1;
        }
    }
    if attached > 0 {
        write_dir(layout, lf_ino, &bytes).await?;
    }
    Ok(attached)
}

/// Rewrites a directory's content from its packed bytes.
async fn write_dir<L: StorageLayout>(layout: &mut L, dir_ino: Ino, bytes: &[u8]) -> LResult<()> {
    let bs = BLOCK_SIZE as usize;
    let new_blocks = bytes.len().div_ceil(bs) as u64;
    let mut inode = layout.get_inode(dir_ino).await?;
    layout.truncate(&mut inode, new_blocks).await?;
    inode.size = bytes.len() as u64;
    if bytes.is_empty() {
        layout.put_inode(&inode).await?;
        return Ok(());
    }
    let blocks: Vec<(u64, Payload)> = (0..new_blocks)
        .map(|blk| {
            let lo = blk as usize * bs;
            let hi = (lo + bs).min(bytes.len());
            (blk, Block::padded(&bytes[lo..hi], bs).into())
        })
        .collect();
    layout.write_file_blocks(&mut inode, blocks).await?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use cnp_disk::{sim_disk_driver, CLook, Hp97560};
    use cnp_layout::{FfsLayout, FfsParams, Layout, LfsLayout, LfsParams, StorageLayout};
    use cnp_sim::Sim;

    fn run_sim<F, Fut>(seed: u64, f: F)
    where
        F: FnOnce(cnp_sim::Handle) -> Fut + 'static,
        Fut: std::future::Future<Output = ()> + 'static,
    {
        let sim = Sim::new(seed);
        let h = sim.handle();
        sim.block_on("test", async move { f(h).await });
    }

    /// Builds a small populated tree directly at the layout level.
    async fn populate<L: StorageLayout>(layout: &mut L) {
        layout.format().await.unwrap();
        let now = 1u64;
        let mut sub = layout.alloc_ino(FileKind::Directory, now).unwrap();
        layout.put_inode(&sub).await.unwrap();
        let mut f1 = layout.alloc_ino(FileKind::Regular, now).unwrap();
        f1.size = 2 * BLOCK_SIZE as u64;
        layout
            .write_file_blocks(
                &mut f1,
                vec![
                    (0, Payload::copy_of(&[1; BLOCK_SIZE as usize])),
                    (1, Payload::copy_of(&[2; BLOCK_SIZE as usize])),
                ],
            )
            .await
            .unwrap();
        let mut f2 = layout.alloc_ino(FileKind::Regular, now).unwrap();
        f2.size = BLOCK_SIZE as u64;
        layout
            .write_file_blocks(&mut f2, vec![(0, Payload::copy_of(&[3; BLOCK_SIZE as usize]))])
            .await
            .unwrap();
        // Root: {sub, a}; sub: {b}.
        write_dir(
            layout,
            Ino::ROOT,
            &dir::encode(&[
                Dirent { ino: sub.ino, kind: FileKind::Directory, name: "sub".into() },
                Dirent { ino: f1.ino, kind: FileKind::Regular, name: "a".into() },
            ]),
        )
        .await
        .unwrap();
        let sub_ino = sub.ino;
        sub = layout.get_inode(sub_ino).await.unwrap();
        let _ = &mut sub;
        write_dir(
            layout,
            sub_ino,
            &dir::encode(&[Dirent { ino: f2.ino, kind: FileKind::Regular, name: "b".into() }]),
        )
        .await
        .unwrap();
    }

    #[test]
    fn clean_tree_reports_clean_for_every_layout() {
        run_sim(51, |h| async move {
            // LFS.
            let d = sim_disk_driver(&h, "d0", Box::new(Hp97560::new()), Box::new(CLook));
            let mut lfs = Layout::Lfs(LfsLayout::new(&h, d.clone(), LfsParams::default()));
            populate(&mut lfs).await;
            let r = check(&mut lfs).await;
            assert!(r.clean(), "lfs: {:?}", r.violations);
            assert_eq!(r.dirs, 2);
            assert_eq!(r.files, 2);
            // FFS.
            let d2 = sim_disk_driver(&h, "d1", Box::new(Hp97560::new()), Box::new(CLook));
            let mut ffs = Layout::Ffs(FfsLayout::new(
                &h,
                d2.clone(),
                FfsParams { ninodes: 1024, ngroups: 4 },
            ));
            populate(&mut ffs).await;
            let r = check(&mut ffs).await;
            assert!(r.clean(), "ffs: {:?}", r.violations);
            d.shutdown();
            d2.shutdown();
        });
    }

    #[test]
    fn orphan_inode_is_attached_to_lost_and_found() {
        run_sim(57, |h| async move {
            let d = sim_disk_driver(&h, "d0", Box::new(Hp97560::new()), Box::new(CLook));
            let mut lfs = Layout::Lfs(LfsLayout::new(&h, d.clone(), LfsParams::default()));
            populate(&mut lfs).await;
            // An allocated file with data but no directory entry — what a
            // crash leaves when the dirent never became durable.
            let mut orphan = lfs.alloc_ino(FileKind::Regular, 9).unwrap();
            orphan.size = BLOCK_SIZE as u64;
            lfs.write_file_blocks(
                &mut orphan,
                vec![(0, Payload::copy_of(&[0x42; BLOCK_SIZE as usize]))],
            )
            .await
            .unwrap();
            let orphan_ino = orphan.ino;
            let r = check(&mut lfs).await;
            assert!(r.clean(), "an orphan is a leak, not a violation: {:?}", r.violations);
            assert_eq!(r.orphans, vec![orphan_ino.0]);
            let (rep, fin) = repair(&mut lfs).await.unwrap();
            assert_eq!(rep.orphans_attached, 1);
            assert!(fin.clean(), "{:?}", fin.violations);
            assert!(fin.orphans.is_empty(), "adopted orphan still unreachable");
            // The orphan is now reachable under /lost+found with its data.
            let root = lfs.get_inode(Ino::ROOT).await.unwrap();
            let root_bytes = read_dir_bytes(&mut lfs, &root).await.unwrap();
            let (lf_ino, lf_kind) =
                dir::lookup(&root_bytes, "lost+found").unwrap().expect("lost+found created");
            assert_eq!(lf_kind, FileKind::Directory);
            let lf_inode = lfs.get_inode(lf_ino).await.unwrap();
            let lf_bytes = read_dir_bytes(&mut lfs, &lf_inode).await.unwrap();
            let (adopted, _) = dir::lookup(&lf_bytes, &format!("orphan-{}", orphan_ino.0))
                .unwrap()
                .expect("orphan adopted");
            assert_eq!(adopted, orphan_ino);
            let got = lfs.get_inode(orphan_ino).await.unwrap();
            let p = lfs.read_file_block(&got, 0).await.unwrap().unwrap();
            assert_eq!(p.to_vec().unwrap(), vec![0x42u8; BLOCK_SIZE as usize]);
            // Re-running repair is idempotent: nothing new to adopt.
            let (rep2, _) = repair(&mut lfs).await.unwrap();
            assert_eq!(rep2.orphans_attached, 0);
            d.shutdown();
        });
    }

    #[test]
    fn dangling_dirent_is_found_and_repaired() {
        run_sim(53, |h| async move {
            let d = sim_disk_driver(&h, "d0", Box::new(Hp97560::new()), Box::new(CLook));
            let mut lfs = Layout::Lfs(LfsLayout::new(&h, d.clone(), LfsParams::default()));
            populate(&mut lfs).await;
            // Plant a dirent to a nonexistent inode.
            let root = lfs.get_inode(Ino::ROOT).await.unwrap();
            let mut entries = read_dir(&mut lfs, &root).await.unwrap();
            entries.push(Dirent { ino: Ino(4040), kind: FileKind::Regular, name: "ghost".into() });
            write_dir(&mut lfs, Ino::ROOT, &dir::encode(&entries)).await.unwrap();
            let r = check(&mut lfs).await;
            assert_eq!(r.violations.len(), 1);
            assert!(matches!(r.violations[0], Violation::DanglingDirent { .. }));
            let (rep, fin) = repair(&mut lfs).await.unwrap();
            assert_eq!(rep.entries_removed, 1);
            assert!(fin.clean(), "{:?}", fin.violations);
            // The healthy children survived the repair.
            let root = lfs.get_inode(Ino::ROOT).await.unwrap();
            let names: Vec<String> =
                read_dir(&mut lfs, &root).await.unwrap().into_iter().map(|e| e.name).collect();
            assert_eq!(names, vec!["sub", "a"]);
            d.shutdown();
        });
    }
}
