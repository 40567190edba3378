//! # cnp-pfs — the on-line Pegasus-style file system instantiation
//!
//! The paper's PFS (§3): the same cut-and-paste components as Patsy, but
//! with real data movement (a host-file disk back-end), an NFS-like
//! front-end dispatching XDR-encoded procedures onto the abstract client
//! interface. It runs on the same virtual-time kernel as Patsy.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod nfs;
pub mod serve;
pub mod xdr;

pub use cache::{Attr, NfsCache};
pub use nfs::{client, decode_request, Fhandle, NfsProc, NfsStat, Request};
pub use serve::{HandleTable, NfsServer, NfsSession, ServeConfig};
pub use xdr::{XdrDecoder, XdrEncoder};

use cnp_core::{DataMode, FileSystem, FsConfig};
use cnp_disk::{Backend, CLook, DiskDriver, FileBackend};
use cnp_layout::{Layout, LfsLayout, LfsParams};
use cnp_sim::Handle;
use std::path::Path;

/// Builds an on-line PFS over a host backing file: real bytes, LFS
/// layout, C-LOOK driver. The same engine Patsy uses — cut-and-paste.
///
/// `capacity_sectors` of 512-byte sectors are reserved in `path`.
pub fn pfs_over_file(
    handle: &Handle,
    path: &Path,
    capacity_sectors: u64,
    cfg: Option<FsConfig>,
) -> std::io::Result<FileSystem> {
    let backend = Backend::File(FileBackend::create(path, capacity_sectors, 512)?);
    let driver = DiskDriver::new(handle, "pfs0", backend, Box::new(CLook));
    let layout = Layout::Lfs(LfsLayout::new(handle, driver, LfsParams::default()));
    let cfg = cfg.unwrap_or(FsConfig { data_mode: DataMode::Real, ..FsConfig::default() });
    assert_eq!(cfg.data_mode, DataMode::Real, "PFS always moves real bytes");
    Ok(FileSystem::new(handle, layout, cfg))
}
