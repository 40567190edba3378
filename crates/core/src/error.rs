//! File-system error type.

use cnp_disk::IoError;
use cnp_layout::LayoutError;

/// Errors surfaced by the abstract client interface.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FsError {
    /// Path component not found. It names no path: every caller
    /// already holds the path it asked about, and most (an
    /// open-or-create, a stat that expects a miss) drop the error.
    NotFound,
    /// Target already exists.
    Exists(String),
    /// Operation requires a directory.
    NotADirectory(String),
    /// Operation requires a non-directory.
    IsADirectory(String),
    /// Directory not empty on rmdir.
    NotEmpty(String),
    /// Malformed path or name.
    BadPath(String),
    /// Underlying layout failure (non-I/O: corruption, space, inodes).
    Layout(LayoutError),
    /// Device-level I/O failure (media error, power cut, bus fault) —
    /// surfaced as its own variant so callers can distinguish a dying
    /// disk from a confused layout.
    Disk(IoError),
    /// Offset/length beyond the representable file size.
    TooBig,
}

impl FsError {
    /// True if the failure is the disk reporting a power cut.
    pub fn is_power_cut(&self) -> bool {
        matches!(self, FsError::Disk(IoError::PowerCut))
    }
}

impl std::fmt::Display for FsError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FsError::NotFound => f.write_str("not found"),
            FsError::Exists(p) => write!(f, "already exists: {p}"),
            FsError::NotADirectory(p) => write!(f, "not a directory: {p}"),
            FsError::IsADirectory(p) => write!(f, "is a directory: {p}"),
            FsError::NotEmpty(p) => write!(f, "directory not empty: {p}"),
            FsError::BadPath(p) => write!(f, "bad path: {p}"),
            FsError::Layout(e) => write!(f, "layout error: {e}"),
            FsError::Disk(e) => write!(f, "disk error: {e}"),
            FsError::TooBig => write!(f, "file too big"),
        }
    }
}

impl std::error::Error for FsError {}

impl From<LayoutError> for FsError {
    fn from(e: LayoutError) -> Self {
        match e {
            LayoutError::Io(io) => FsError::Disk(io),
            other => FsError::Layout(other),
        }
    }
}

impl From<IoError> for FsError {
    fn from(e: IoError) -> Self {
        FsError::Disk(e)
    }
}

/// Result alias for file-system operations.
pub type FsResult<T> = Result<T, FsError>;
