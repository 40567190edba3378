//! Workspace-wiring smoke test: every module the `cut_and_paste` facade
//! re-exports must resolve and expose its headline types. This guards
//! the Cargo dependency graph — a crate accidentally dropped from the
//! root manifest fails here at compile time.

use cut_and_paste::{cache, core, disk, layout, patsy, pfs, sim, trace};

#[test]
fn all_facade_reexports_resolve_and_construct() {
    // sim: the discrete-event kernel boots and hands out a handle.
    let s = sim::Sim::new(42);
    let _h: sim::Handle = s.handle();

    // disk: the HP 97560 model and an I/O scheduler exist.
    let _disk = disk::Hp97560::new();
    let _sched = disk::CLook;

    // cache: a block cache config computes its frame count.
    let cfg = cache::CacheConfig { block_size: 4096, mem_bytes: 16 * 4096, nvram_bytes: None };
    assert_eq!(cfg.frames(), 16);

    // layout: LFS parameters and the inode type are visible.
    let _params = layout::LfsParams::default();
    let _ino = layout::Ino(1);

    // core: the engine's config defaults are constructible.
    let _fs_cfg = core::FsConfig::default();

    // trace: the paper's trace presets are registered.
    assert!(trace::preset("1a").is_some(), "trace preset 1a must exist");

    // patsy: the experiment policies enumerate.
    assert!(!patsy::POLICIES.is_empty(), "policy table must be populated");

    // pfs: the NFS procedure enum is visible.
    let _proc = pfs::NfsProc::Null;
}

#[test]
fn facade_version_matches_member_crates() {
    // The whole workspace shares one version via [workspace.package].
    assert_eq!(env!("CARGO_PKG_VERSION"), "0.1.0");
}

/// The wiring rule (DESIGN.md, "Wiring"): outside `cnp-disk`, nothing
/// but tests wires a bus, a disk task or a driver by hand — everything
/// goes through `compose_device`. The one other back-end is the host
/// file behind `cnp-pfs::pfs_over_file`, which builds its own driver.
#[test]
fn only_cnp_disk_composes_a_device() {
    use std::path::{Path, PathBuf};

    fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
        for entry in std::fs::read_dir(dir).expect("readable source directory") {
            let path = entry.expect("directory entry").path();
            if path.is_dir() {
                rust_files(&path, out);
            } else if path.extension().is_some_and(|e| e == "rs") {
                out.push(path);
            }
        }
    }

    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut files = Vec::new();
    for dir in ["crates", "src", "examples"] {
        rust_files(&root.join(dir), &mut files);
    }
    assert!(files.len() > 50, "the scan must see the workspace sources: {}", files.len());
    for file in files {
        let rel = file.strip_prefix(root).expect("under the root").to_string_lossy().into_owned();
        if rel.starts_with("crates/disk/src/") || rel.contains("/tests/") {
            continue;
        }
        let text = std::fs::read_to_string(&file).expect("readable source file");
        // Unit tests sit at the bottom of a file, behind `#[cfg(test)]`.
        let code = text.split("#[cfg(test)]").next().unwrap_or("");
        for pat in ["spawn_disk", "SimBackend {", "StripedDisk::new", "DiskDriver::new"] {
            let allowed = pat == "DiskDriver::new" && rel == "crates/pfs/src/lib.rs";
            assert!(
                allowed || !code.contains(pat),
                "{rel} wires a device by hand (`{pat}`): go through cnp_disk::compose_device"
            );
        }
    }
}
