//! I/O request and result types exchanged between drivers, buses and disks.
//!
//! "Simulation disk drivers package disk operations in I/O-request data
//! structures \[which\] contain all the relevant information for the disk
//! simulator ... and contain timing information to measure the
//! performance of the I/O operation." (§4)

use cnp_sim::{SimDuration, SimTime};

use crate::block::{Block, Blocks};

/// Read or write.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum IoOp {
    /// Transfer data from disk to host.
    Read,
    /// Transfer data from host to disk.
    Write,
}

/// The data carried by a request.
///
/// The simulator "compensates for the lack of real data": simulated
/// payloads carry only a length, while on-line (PFS) payloads — and
/// file-system *metadata in both modes* — carry real bytes. Real bytes
/// travel as [`Block`]s: the cache frame's, the log's and the
/// platter's are the same buffers, so a payload that crosses a layer
/// shares its blocks instead of copying them, and a coalesced run is a
/// list of blocks, not a buffer they are copied into.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Payload {
    /// No bytes; only the length (in bytes) is modelled.
    Simulated(u32),
    /// Real bytes.
    Data(Blocks),
}

impl Payload {
    /// A real payload holding a copy of `bytes`.
    pub fn copy_of(bytes: &[u8]) -> Payload {
        Payload::Data(Blocks::copy_of(bytes))
    }

    /// Length in bytes.
    pub fn len(&self) -> u32 {
        match self {
            Payload::Simulated(n) => *n,
            Payload::Data(d) => d.byte_len() as u32,
        }
    }

    /// True if the payload length is zero.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The real blocks, if any.
    pub fn blocks(&self) -> Option<&Blocks> {
        match self {
            Payload::Simulated(_) => None,
            Payload::Data(d) => Some(d),
        }
    }

    /// Block `i` of the real bytes, if the payload is real and has one.
    pub fn block(&self, i: usize) -> Option<&Block> {
        self.blocks()?.get(i)
    }

    /// A copy of the real bytes, if any.
    pub fn to_vec(&self) -> Option<Vec<u8>> {
        self.blocks().map(Blocks::to_vec)
    }
}

impl From<Block> for Payload {
    fn from(block: Block) -> Payload {
        Payload::Data(Blocks::One(block))
    }
}

/// A disk I/O request travelling driver → bus → disk and back.
#[derive(Debug)]
pub struct IoRequest {
    /// Monotone request id assigned by the driver.
    pub id: u64,
    /// Operation direction.
    pub op: IoOp,
    /// First logical block address.
    pub lba: u64,
    /// Number of sectors.
    pub sectors: u32,
    /// Data for writes ([`Payload::Simulated`] off-line); ignored reads.
    pub payload: Payload,
    /// When the driver accepted the request into its queue.
    pub queued_at: SimTime,
    /// When the driver dispatched it to the device (queue exit).
    pub issued_at: SimTime,
}

/// Timing breakdown of a completed I/O, one field per service phase.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IoTiming {
    /// Time spent waiting in the driver queue.
    pub queue: SimDuration,
    /// Bus acquisition + command/data transfer to the device.
    pub bus: SimDuration,
    /// Controller overhead (the paper's "SCSI-request decoding").
    pub controller: SimDuration,
    /// Mechanical seek (and head switches).
    pub seek: SimDuration,
    /// Rotational delay.
    pub rotation: SimDuration,
    /// Media transfer.
    pub transfer: SimDuration,
}

impl IoTiming {
    /// Total device-side service time (excluding queueing).
    pub fn service(&self) -> SimDuration {
        self.bus + self.controller + self.seek + self.rotation + self.transfer
    }

    /// Total latency including queueing.
    pub fn total(&self) -> SimDuration {
        self.queue + self.service()
    }
}

/// Errors a disk request can produce.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum IoError {
    /// Address beyond the device capacity.
    OutOfRange {
        /// Requested logical block address.
        lba: u64,
        /// Device capacity in sectors.
        capacity: u64,
    },
    /// Injected or modelled media failure.
    Media {
        /// Logical block address that failed.
        lba: u64,
    },
    /// Transient bus/controller failure; a retry may succeed.
    Transient {
        /// Logical block address of the failed request.
        lba: u64,
    },
    /// The disk lost power (injected crash); it serves nothing further.
    PowerCut,
    /// Host-side I/O failure (on-line backend only).
    Host(String),
    /// The device is gone (channel closed).
    DeviceGone,
}

impl IoError {
    /// True for failures a driver retry can plausibly cure.
    pub fn is_transient(&self) -> bool {
        matches!(self, IoError::Transient { .. })
    }
}

impl std::fmt::Display for IoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            IoError::OutOfRange { lba, capacity } => {
                write!(f, "lba {lba} out of range (capacity {capacity} sectors)")
            }
            IoError::Media { lba } => write!(f, "media error at lba {lba}"),
            IoError::Transient { lba } => write!(f, "transient bus error at lba {lba}"),
            IoError::PowerCut => write!(f, "disk power cut"),
            IoError::Host(e) => write!(f, "host i/o error: {e}"),
            IoError::DeviceGone => write!(f, "device gone"),
        }
    }
}

impl std::error::Error for IoError {}

/// A completed I/O: data (for reads) plus its timing breakdown.
#[derive(Debug)]
pub struct IoCompletion {
    /// Request id this completion answers.
    pub id: u64,
    /// Outcome. A read carries the bytes read (a block-aligned read of
    /// real frames, the platter's blocks, shared); a write hands back
    /// the payload it was given once the device holds its bytes (a
    /// device that splits a write, like a stripe, may hand back a
    /// simulated payload instead).
    pub result: Result<Payload, IoError>,
    /// Phase-by-phase timing of the device service.
    pub timing: IoTiming,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn payload_lengths() {
        assert_eq!(Payload::Simulated(4096).len(), 4096);
        assert_eq!(Payload::copy_of(&[0u8; 512]).len(), 512);
        assert_eq!(Payload::copy_of(&[0u8; 9000]).len(), 9000);
        assert!(Payload::Simulated(0).is_empty());
        assert!(Payload::copy_of(&[1, 2]).block(0).is_some());
        assert!(Payload::Simulated(9).blocks().is_none());
    }

    #[test]
    fn timing_sums() {
        let t = IoTiming {
            queue: SimDuration::from_millis(1),
            bus: SimDuration::from_micros(500),
            controller: SimDuration::from_millis(2),
            seek: SimDuration::from_millis(5),
            rotation: SimDuration::from_millis(7),
            transfer: SimDuration::from_micros(400),
        };
        assert_eq!(t.service().as_micros(), 500 + 2000 + 5000 + 7000 + 400);
        assert_eq!(t.total().as_micros(), 1000 + 14_900);
    }

    #[test]
    fn error_display() {
        let e = IoError::OutOfRange { lba: 100, capacity: 50 };
        assert!(e.to_string().contains("100"));
        assert!(IoError::Media { lba: 7 }.to_string().contains("media"));
    }
}
