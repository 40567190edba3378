//! The NFS-like PFS wire protocol.
//!
//! "We use NFS as the external PFS interface. We have constructed a full
//! NFS client interface class, which is a derived class from the
//! abstract client interface class. … Whenever a request is received,
//! the call is dispatched to one (or more) calls in the abstract client
//! interface." (§3)
//!
//! The wire format is XDR-style; transport is in-process (the paper's
//! point is the *mapping* of RPCs onto the abstract client interface —
//! see DESIGN.md §5 for the substitution note). This module owns the
//! protocol itself: procedure numbers, status codes, file handles, and
//! the request decoder. The serving tier that executes decoded requests
//! lives in [`crate::serve`].

use cnp_core::FsError;

use crate::xdr::{XdrDecoder, XdrEncoder};

/// Wire size of a [`Fhandle`].
const FH_LEN: usize = 12;

/// NFS-like procedure numbers. A name is resolved once (Lookup, Create
/// and Mkdir answer with a handle); data moves by handle only.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u32)]
pub enum NfsProc {
    /// Ping.
    Null = 0,
    /// Get file attributes by path.
    GetAttr = 1,
    /// Path lookup (returns attributes + a file handle).
    Lookup = 4,
    /// Create a regular file.
    Create = 9,
    /// Remove a file.
    Remove = 10,
    /// Rename.
    Rename = 11,
    /// Make a directory.
    Mkdir = 14,
    /// Remove a directory.
    Rmdir = 15,
    /// Read directory entries.
    ReadDir = 16,
    /// Get file attributes by handle.
    GetAttrFh = 17,
    /// Read a byte range by handle.
    ReadFh = 18,
    /// Write a byte range by handle.
    WriteFh = 19,
    /// Set attributes by handle (truncate — NFS SETATTR semantics).
    SetAttrFh = 20,
}

impl NfsProc {
    /// Parses a wire procedure number.
    pub fn from_u32(v: u32) -> Option<NfsProc> {
        Some(match v {
            0 => NfsProc::Null,
            1 => NfsProc::GetAttr,
            4 => NfsProc::Lookup,
            9 => NfsProc::Create,
            10 => NfsProc::Remove,
            11 => NfsProc::Rename,
            14 => NfsProc::Mkdir,
            15 => NfsProc::Rmdir,
            16 => NfsProc::ReadDir,
            17 => NfsProc::GetAttrFh,
            18 => NfsProc::ReadFh,
            19 => NfsProc::WriteFh,
            20 => NfsProc::SetAttrFh,
            _ => return None,
        })
    }
}

/// NFS-like status codes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u32)]
pub enum NfsStat {
    /// Success.
    Ok = 0,
    /// No such file or directory.
    NoEnt = 2,
    /// I/O error.
    Io = 5,
    /// File exists.
    Exist = 17,
    /// Not a directory.
    NotDir = 20,
    /// Is a directory.
    IsDir = 21,
    /// File too large.
    FBig = 27,
    /// Directory not empty.
    NotEmpty = 66,
    /// Stale file handle: the file behind it was removed (or its ino
    /// was reincarnated with a new generation).
    Stale = 70,
    /// Malformed request.
    BadRpc = 10_004,
}

pub(crate) fn status_of(e: &FsError) -> NfsStat {
    match e {
        FsError::NotFound(_) => NfsStat::NoEnt,
        FsError::Exists(_) => NfsStat::Exist,
        FsError::NotADirectory(_) => NfsStat::NotDir,
        FsError::IsADirectory(_) => NfsStat::IsDir,
        FsError::NotEmpty(_) => NfsStat::NotEmpty,
        FsError::BadPath(_) => NfsStat::NoEnt,
        FsError::TooBig => NfsStat::FBig,
        FsError::Layout(_) | FsError::Disk(_) => NfsStat::Io,
    }
}

/// A status-only reply.
pub(crate) fn status_reply(status: NfsStat) -> Vec<u8> {
    let mut e = XdrEncoder::with_capacity(4);
    e.put_u32(status as u32);
    e.finish()
}

/// An NFS file handle: inode number + generation. The generation is
/// assigned by the server's handle table when an ino is first served
/// and bumped when the ino is reincarnated (remove + create reusing
/// the number), so a handle to the removed file reads as
/// [`NfsStat::Stale`] instead of silently aliasing the new one.
///
/// Wire form: `ino:u64 gen:u32` (12 bytes).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fhandle {
    /// Inode number.
    pub ino: u64,
    /// Server-assigned generation for this incarnation of `ino`.
    pub gen: u32,
}

impl Fhandle {
    /// Appends the wire form.
    pub fn encode(&self, e: &mut XdrEncoder) {
        e.put_u64(self.ino);
        e.put_u32(self.gen);
    }

    /// Reads the wire form.
    pub fn decode(d: &mut XdrDecoder<'_>) -> Result<Fhandle, String> {
        Ok(Fhandle { ino: d.get_u64()?, gen: d.get_u32()? })
    }
}

/// A fully decoded request — every argument parsed and the buffer
/// verified exhausted, before any file-system side effect.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request {
    /// Ping.
    Null,
    /// Attributes by path.
    GetAttr {
        /// Absolute path.
        path: String,
    },
    /// Path lookup.
    Lookup {
        /// Absolute path.
        path: String,
    },
    /// Create a regular file.
    Create {
        /// Absolute path.
        path: String,
    },
    /// Remove a file.
    Remove {
        /// Absolute path.
        path: String,
    },
    /// Rename.
    Rename {
        /// Source path.
        from: String,
        /// Destination path.
        to: String,
    },
    /// Make a directory.
    Mkdir {
        /// Absolute path.
        path: String,
    },
    /// Remove a directory.
    Rmdir {
        /// Absolute path.
        path: String,
    },
    /// List a directory.
    ReadDir {
        /// Absolute path.
        path: String,
    },
    /// Attributes by handle.
    GetAttrFh {
        /// File handle.
        fh: Fhandle,
    },
    /// Read by handle.
    ReadFh {
        /// File handle.
        fh: Fhandle,
        /// Byte offset.
        offset: u64,
        /// Requested byte count (server caps at `max_transfer`).
        len: u64,
    },
    /// Write by handle.
    WriteFh {
        /// File handle.
        fh: Fhandle,
        /// Byte offset.
        offset: u64,
        /// Payload.
        data: Vec<u8>,
    },
    /// Truncate by handle (SETATTR with a size).
    SetAttrFh {
        /// File handle.
        fh: Fhandle,
        /// New size.
        size: u64,
    },
}

/// Decodes one wire request. Rejects unknown procedures, short bodies,
/// and — the regression the serving tier shipped with for eight PRs —
/// *trailing garbage*: a well-formed body followed by extra bytes is
/// [`NfsStat::BadRpc`], not silently accepted.
pub fn decode_request(bytes: &[u8]) -> Result<Request, NfsStat> {
    let mut d = XdrDecoder::new(bytes);
    let proc =
        NfsProc::from_u32(d.get_u32().map_err(|_| NfsStat::BadRpc)?).ok_or(NfsStat::BadRpc)?;
    let bad = |_e: String| NfsStat::BadRpc;
    let req = match proc {
        NfsProc::Null => Request::Null,
        NfsProc::GetAttr => Request::GetAttr { path: d.get_str().map_err(bad)? },
        NfsProc::Lookup => Request::Lookup { path: d.get_str().map_err(bad)? },
        NfsProc::Create => Request::Create { path: d.get_str().map_err(bad)? },
        NfsProc::Remove => Request::Remove { path: d.get_str().map_err(bad)? },
        NfsProc::Rename => {
            Request::Rename { from: d.get_str().map_err(bad)?, to: d.get_str().map_err(bad)? }
        }
        NfsProc::Mkdir => Request::Mkdir { path: d.get_str().map_err(bad)? },
        NfsProc::Rmdir => Request::Rmdir { path: d.get_str().map_err(bad)? },
        NfsProc::ReadDir => Request::ReadDir { path: d.get_str().map_err(bad)? },
        NfsProc::GetAttrFh => Request::GetAttrFh { fh: Fhandle::decode(&mut d).map_err(bad)? },
        NfsProc::ReadFh => Request::ReadFh {
            fh: Fhandle::decode(&mut d).map_err(bad)?,
            offset: d.get_u64().map_err(bad)?,
            len: d.get_u64().map_err(bad)?,
        },
        NfsProc::WriteFh => Request::WriteFh {
            fh: Fhandle::decode(&mut d).map_err(bad)?,
            offset: d.get_u64().map_err(bad)?,
            data: d.get_opaque().map_err(bad)?,
        },
        NfsProc::SetAttrFh => Request::SetAttrFh {
            fh: Fhandle::decode(&mut d).map_err(bad)?,
            size: d.get_u64().map_err(bad)?,
        },
    };
    if !d.is_done() {
        return Err(NfsStat::BadRpc);
    }
    Ok(req)
}

/// Client-side request builders (used by the load generator, the shell,
/// and tests).
pub mod client {
    use super::{Fhandle, NfsProc, FH_LEN};
    use crate::xdr::{opaque_wire_len, XdrEncoder};

    /// Builds a path-only request (GetAttr/Lookup/Remove/Mkdir/Rmdir/
    /// Create/ReadDir).
    pub fn path_req(proc: NfsProc, path: &str) -> Vec<u8> {
        let mut e = XdrEncoder::with_capacity(4 + opaque_wire_len(path.len()));
        e.put_u32(proc as u32);
        e.put_str(path);
        e.finish()
    }

    /// Builds a rename request.
    pub fn rename_req(from: &str, to: &str) -> Vec<u8> {
        let body = opaque_wire_len(from.len()) + opaque_wire_len(to.len());
        let mut e = XdrEncoder::with_capacity(4 + body);
        e.put_u32(NfsProc::Rename as u32);
        e.put_str(from);
        e.put_str(to);
        e.finish()
    }

    /// Builds an attributes-by-handle request.
    pub fn getattr_fh_req(fh: Fhandle) -> Vec<u8> {
        let mut e = XdrEncoder::with_capacity(4 + FH_LEN);
        e.put_u32(NfsProc::GetAttrFh as u32);
        fh.encode(&mut e);
        e.finish()
    }

    /// Builds a read-by-handle request.
    pub fn read_fh_req(fh: Fhandle, offset: u64, len: u64) -> Vec<u8> {
        let mut e = XdrEncoder::with_capacity(4 + FH_LEN + 16);
        e.put_u32(NfsProc::ReadFh as u32);
        fh.encode(&mut e);
        e.put_u64(offset);
        e.put_u64(len);
        e.finish()
    }

    /// Builds a write-by-handle request.
    pub fn write_fh_req(fh: Fhandle, offset: u64, data: &[u8]) -> Vec<u8> {
        let mut e = XdrEncoder::with_capacity(4 + FH_LEN + 8 + opaque_wire_len(data.len()));
        e.put_u32(NfsProc::WriteFh as u32);
        fh.encode(&mut e);
        e.put_u64(offset);
        e.put_opaque(data);
        e.finish()
    }

    /// Builds a truncate-by-handle request (SETATTR with a size).
    pub fn setattr_fh_req(fh: Fhandle, size: u64) -> Vec<u8> {
        let mut e = XdrEncoder::with_capacity(4 + FH_LEN + 8);
        e.put_u32(NfsProc::SetAttrFh as u32);
        fh.encode(&mut e);
        e.put_u64(size);
        e.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decode_round_trips_every_builder() {
        let fh = Fhandle { ino: 42, gen: 7 };
        let cases: Vec<(Vec<u8>, Request)> = vec![
            (client::path_req(NfsProc::Lookup, "/a"), Request::Lookup { path: "/a".to_string() }),
            (
                client::rename_req("/a", "/b"),
                Request::Rename { from: "/a".to_string(), to: "/b".to_string() },
            ),
            (client::getattr_fh_req(fh), Request::GetAttrFh { fh }),
            (client::read_fh_req(fh, 0, 9), Request::ReadFh { fh, offset: 0, len: 9 }),
            (
                client::write_fh_req(fh, 3, b"z"),
                Request::WriteFh { fh, offset: 3, data: b"z".to_vec() },
            ),
            (client::setattr_fh_req(fh, 123), Request::SetAttrFh { fh, size: 123 }),
        ];
        for (wire, want) in cases {
            assert_eq!(wire.capacity(), wire.len(), "{want:?}: encoder not sized to its shape");
            assert_eq!(decode_request(&wire).unwrap(), want);
        }
        let path_only = client::path_req(NfsProc::Create, "/some/odd-length");
        assert_eq!(path_only.capacity(), path_only.len());
    }

    #[test]
    fn unknown_proc_rejected() {
        // 6 and 8 were READ and WRITE by path: data moves by handle
        // now, so they are unknown with or without a well-formed body.
        for proc in [999, 6, 8] {
            let mut e = XdrEncoder::new();
            e.put_u32(proc);
            assert_eq!(decode_request(&e.finish()), Err(NfsStat::BadRpc));
        }
        let (mut read, mut write) = (XdrEncoder::new(), XdrEncoder::new());
        read.put_u32(6);
        read.put_str("/p");
        read.put_u64(0);
        read.put_u64(8);
        write.put_u32(8);
        write.put_str("/p");
        write.put_u64(0);
        write.put_opaque(b"hi");
        for wire in [read.finish(), write.finish()] {
            assert_eq!(decode_request(&wire), Err(NfsStat::BadRpc));
        }
    }

    #[test]
    fn trailing_garbage_rejected_per_proc() {
        // Every builder's output is valid; the same bytes plus one
        // trailing word must decode as BadRpc — for every procedure.
        let fh = Fhandle { ino: 1, gen: 1 };
        let reqs = vec![
            client::path_req(NfsProc::GetAttr, "/p"),
            client::path_req(NfsProc::Lookup, "/p"),
            client::path_req(NfsProc::Create, "/p"),
            client::path_req(NfsProc::Remove, "/p"),
            client::rename_req("/p", "/q"),
            client::path_req(NfsProc::Mkdir, "/p"),
            client::path_req(NfsProc::Rmdir, "/p"),
            client::path_req(NfsProc::ReadDir, "/p"),
            client::getattr_fh_req(fh),
            client::read_fh_req(fh, 0, 8),
            client::write_fh_req(fh, 0, b"hi"),
            client::setattr_fh_req(fh, 0),
            {
                let mut e = XdrEncoder::new();
                e.put_u32(NfsProc::Null as u32);
                e.finish()
            },
        ];
        for mut wire in reqs {
            assert!(decode_request(&wire).is_ok(), "builder output must decode");
            wire.extend_from_slice(&[0, 0, 0, 0]);
            assert_eq!(decode_request(&wire), Err(NfsStat::BadRpc), "trailing garbage accepted");
        }
    }

    #[test]
    fn truncated_bodies_rejected_per_proc() {
        // Every proper prefix of every builder's output must read as
        // malformed — no procedure's argument list has a valid proper
        // prefix.
        let fh = Fhandle { ino: 3, gen: 1 };
        let reqs = vec![
            client::path_req(NfsProc::GetAttr, "/p"),
            client::path_req(NfsProc::Lookup, "/p"),
            client::path_req(NfsProc::Create, "/p"),
            client::path_req(NfsProc::Remove, "/p"),
            client::rename_req("/p", "/q"),
            client::path_req(NfsProc::Mkdir, "/p"),
            client::path_req(NfsProc::Rmdir, "/p"),
            client::path_req(NfsProc::ReadDir, "/p"),
            client::getattr_fh_req(fh),
            client::read_fh_req(fh, 0, 8),
            client::write_fh_req(fh, 0, b"hi"),
            client::setattr_fh_req(fh, 0),
        ];
        for wire in reqs {
            for cut in 0..wire.len() {
                assert_eq!(
                    decode_request(&wire[..cut]),
                    Err(NfsStat::BadRpc),
                    "truncation at {cut} accepted"
                );
            }
        }
    }
}
