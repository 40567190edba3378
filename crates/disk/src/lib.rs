//! # cnp-disk — the disk sub-system back-end
//!
//! The paper's Patsy simulator needed "a disk sub-system back-end much
//! like HP Pantheon disk simulator and Dartmouth's disk simulator" (§1).
//! This crate is that back-end, plus the on-line counterpart:
//!
//! * [`geometry`] — cylinders/heads/sectors, skews, LBA ↔ CHS;
//! * [`hardware`] — the one description of disk generation × stripe;
//! * [`model`] — the mechanism abstraction (seek/rotation/transfer);
//! * [`hp97560`] — the detailed HP 97560 model the paper simulates;
//! * [`ssd`] — the second hardware generation: a seek-free,
//!   multi-channel flash model with erase-before-rewrite cost;
//! * [`simple`] — the naive fixed-cost model the paper warns about;
//! * [`cache`] — the controller cache (immediate-report writes,
//!   read-ahead);
//! * [`bus`] — the SCSI-2 connection with arbitration and
//!   disconnect/reconnect;
//! * [`disk`] — the simulated disk task;
//! * [`iosched`] — FCFS/SSTF/SCAN/C-SCAN/LOOK/C-LOOK queue policies;
//! * [`driver`] — the scheduled driver over a simulated, real
//!   (host-file), or RAID-0 striped multi-disk back-end, and
//!   [`compose_device`], the only place a simulated device is wired.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bus;
pub mod cache;
pub mod disk;
pub mod driver;
pub mod geometry;
pub mod hardware;
pub mod hp97560;
pub mod iosched;
pub mod model;
pub mod request;
pub mod simple;
pub mod ssd;

pub use bus::{BusParams, ScsiBus};
pub use disk::{
    retire_onto, store_sectors, DiskClient, DiskImage, DiskOpts, DiskStats, FaultPlan, RetiredWrite,
};
pub use driver::{
    compose_device, sim_disk_driver, striped_sim_disk_driver, Backend, DiskDriver, DriverStats,
    FileBackend, SimBackend, StripedDisk,
};
pub use geometry::{Chs, DiskGeometry};
pub use hardware::{Device, Hardware};
pub use hp97560::{Hp97560, Hp97560Params};
pub use iosched::{
    scheduler_by_name, CLook, CScan, Fcfs, Look, PendingMeta, QueueScheduler, Scan, Sstf,
};
pub use model::{DiskModel, DiskPos, MediaAccess};
pub use request::{IoCompletion, IoError, IoOp, IoRequest, IoTiming, Payload};
pub use simple::{SimpleDisk, SimpleDiskParams};
pub use ssd::{Ssd, SsdParams};
