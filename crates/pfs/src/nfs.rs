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

use crate::xdr::{opaque_wire_len, XdrDecoder, XdrEncoder};

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
        FsError::NotFound => NfsStat::NoEnt,
        FsError::Exists(_) => NfsStat::Exist,
        FsError::NotADirectory(_) => NfsStat::NotDir,
        FsError::IsADirectory(_) => NfsStat::IsDir,
        FsError::NotEmpty(_) => NfsStat::NotEmpty,
        FsError::BadPath(_) => NfsStat::NoEnt,
        FsError::TooBig => NfsStat::FBig,
        FsError::Layout(_) | FsError::Disk(_) => NfsStat::Io,
    }
}

/// Writes a status-only reply into `out`.
pub(crate) fn status_reply(status: NfsStat, out: &mut Vec<u8>) {
    XdrEncoder::write_into(out, 4, |e| e.put_u32(status as u32));
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
/// verified exhausted, before any file-system side effect. Paths and
/// the WRITE payload borrow from the wire bytes they were decoded from
/// (or, on the client side, from the caller about to encode them).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Request<'a> {
    /// Ping.
    Null,
    /// Attributes by path.
    GetAttr {
        /// Absolute path.
        path: &'a str,
    },
    /// Path lookup.
    Lookup {
        /// Absolute path.
        path: &'a str,
    },
    /// Create a regular file.
    Create {
        /// Absolute path.
        path: &'a str,
    },
    /// Remove a file.
    Remove {
        /// Absolute path.
        path: &'a str,
    },
    /// Rename.
    Rename {
        /// Source path.
        from: &'a str,
        /// Destination path.
        to: &'a str,
    },
    /// Make a directory.
    Mkdir {
        /// Absolute path.
        path: &'a str,
    },
    /// Remove a directory.
    Rmdir {
        /// Absolute path.
        path: &'a str,
    },
    /// List a directory.
    ReadDir {
        /// Absolute path.
        path: &'a str,
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
        data: &'a [u8],
    },
    /// Truncate by handle (SETATTR with a size).
    SetAttrFh {
        /// File handle.
        fh: Fhandle,
        /// New size.
        size: u64,
    },
}

impl<'a> Request<'a> {
    /// The path-only request `proc` names.
    ///
    /// Panics if `proc` does not carry exactly one path (GetAttr,
    /// Lookup, Create, Remove, Mkdir, Rmdir and ReadDir do).
    fn of_path(proc: NfsProc, path: &'a str) -> Request<'a> {
        match proc {
            NfsProc::GetAttr => Request::GetAttr { path },
            NfsProc::Lookup => Request::Lookup { path },
            NfsProc::Create => Request::Create { path },
            NfsProc::Remove => Request::Remove { path },
            NfsProc::Mkdir => Request::Mkdir { path },
            NfsProc::Rmdir => Request::Rmdir { path },
            NfsProc::ReadDir => Request::ReadDir { path },
            other => panic!("{other:?} is not a path-only procedure"),
        }
    }

    /// Writes the wire form over `out`, the inverse of
    /// [`decode_request`]. `out`'s allocation is reused if it has room,
    /// and otherwise replaced by one of exactly the wire size, so a
    /// buffer reused across requests allocates only when a request
    /// longer than any before comes by.
    pub fn encode(&self, out: &mut Vec<u8>) {
        let path = |out: &mut Vec<u8>, proc, path: &str| {
            message(out, proc, opaque_wire_len(path.len()), |e| e.put_str(path));
        };
        match *self {
            Request::Null => message(out, NfsProc::Null, 0, |_| {}),
            Request::GetAttr { path: p } => path(out, NfsProc::GetAttr, p),
            Request::Lookup { path: p } => path(out, NfsProc::Lookup, p),
            Request::Create { path: p } => path(out, NfsProc::Create, p),
            Request::Remove { path: p } => path(out, NfsProc::Remove, p),
            Request::Rename { from, to } => {
                let len = opaque_wire_len(from.len()) + opaque_wire_len(to.len());
                message(out, NfsProc::Rename, len, |e| {
                    e.put_str(from);
                    e.put_str(to);
                });
            }
            Request::Mkdir { path: p } => path(out, NfsProc::Mkdir, p),
            Request::Rmdir { path: p } => path(out, NfsProc::Rmdir, p),
            Request::ReadDir { path: p } => path(out, NfsProc::ReadDir, p),
            Request::GetAttrFh { fh } => message(out, NfsProc::GetAttrFh, FH_LEN, |e| fh.encode(e)),
            Request::ReadFh { fh, offset, len } => {
                message(out, NfsProc::ReadFh, FH_LEN + 16, |e| {
                    fh.encode(e);
                    e.put_u64(offset);
                    e.put_u64(len);
                });
            }
            Request::WriteFh { fh, offset, data } => {
                let len = FH_LEN + 8 + opaque_wire_len(data.len());
                message(out, NfsProc::WriteFh, len, |e| {
                    fh.encode(e);
                    e.put_u64(offset);
                    e.put_opaque(data);
                });
            }
            Request::SetAttrFh { fh, size } => {
                message(out, NfsProc::SetAttrFh, FH_LEN + 8, |e| {
                    fh.encode(e);
                    e.put_u64(size);
                });
            }
        }
    }
}

/// Writes a request over `out`: `proc`, then the `body_len` bytes that
/// `body` puts.
fn message(out: &mut Vec<u8>, proc: NfsProc, body_len: usize, body: impl FnOnce(&mut XdrEncoder)) {
    XdrEncoder::write_into(out, 4 + body_len, |e| {
        e.put_u32(proc as u32);
        body(e);
    });
}

/// Decodes one wire request. Rejects unknown procedures, short bodies,
/// and — the regression the serving tier shipped with for eight PRs —
/// *trailing garbage*: a well-formed body followed by extra bytes is
/// [`NfsStat::BadRpc`], not silently accepted.
pub fn decode_request(bytes: &[u8]) -> Result<Request<'_>, NfsStat> {
    let mut d = XdrDecoder::new(bytes);
    let proc =
        NfsProc::from_u32(d.get_u32().map_err(|_| NfsStat::BadRpc)?).ok_or(NfsStat::BadRpc)?;
    let bad = |_e: String| NfsStat::BadRpc;
    let req = match proc {
        NfsProc::Null => Request::Null,
        NfsProc::Rename => {
            Request::Rename { from: d.get_str().map_err(bad)?, to: d.get_str().map_err(bad)? }
        }
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
        path_only => Request::of_path(path_only, d.get_str().map_err(bad)?),
    };
    if !d.is_done() {
        return Err(NfsStat::BadRpc);
    }
    Ok(req)
}

/// Client-side request builders (used by the load generator, the shell,
/// and tests): each encodes its [`Request`] into a buffer of its own,
/// sized exactly. A caller sending many requests keeps one buffer and
/// calls [`Request::encode`] instead.
pub mod client {
    use super::{Fhandle, NfsProc, Request};

    fn encoded(req: Request<'_>) -> Vec<u8> {
        let mut out = Vec::new();
        req.encode(&mut out);
        out
    }

    /// Builds a path-only request (GetAttr/Lookup/Remove/Mkdir/Rmdir/
    /// Create/ReadDir). Panics for any other procedure.
    pub fn path_req(proc: NfsProc, path: &str) -> Vec<u8> {
        encoded(Request::of_path(proc, path))
    }

    /// Builds a rename request.
    pub fn rename_req(from: &str, to: &str) -> Vec<u8> {
        encoded(Request::Rename { from, to })
    }

    /// Builds an attributes-by-handle request.
    pub fn getattr_fh_req(fh: Fhandle) -> Vec<u8> {
        encoded(Request::GetAttrFh { fh })
    }

    /// Builds a read-by-handle request.
    pub fn read_fh_req(fh: Fhandle, offset: u64, len: u64) -> Vec<u8> {
        encoded(Request::ReadFh { fh, offset, len })
    }

    /// Builds a write-by-handle request.
    pub fn write_fh_req(fh: Fhandle, offset: u64, data: &[u8]) -> Vec<u8> {
        encoded(Request::WriteFh { fh, offset, data })
    }

    /// Builds a truncate-by-handle request (SETATTR with a size).
    pub fn setattr_fh_req(fh: Fhandle, size: u64) -> Vec<u8> {
        encoded(Request::SetAttrFh { fh, size })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decode_round_trips_every_builder() {
        let fh = Fhandle { ino: 42, gen: 7 };
        let cases: Vec<(Vec<u8>, Request)> = vec![
            (client::path_req(NfsProc::Lookup, "/a"), Request::Lookup { path: "/a" }),
            (client::rename_req("/a", "/b"), Request::Rename { from: "/a", to: "/b" }),
            (client::getattr_fh_req(fh), Request::GetAttrFh { fh }),
            (client::read_fh_req(fh, 0, 9), Request::ReadFh { fh, offset: 0, len: 9 }),
            (client::write_fh_req(fh, 3, b"z"), Request::WriteFh { fh, offset: 3, data: b"z" }),
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

    #[test]
    fn invalid_utf8_path_is_badrpc_on_every_path_procedure() {
        let path_procs = [
            NfsProc::GetAttr,
            NfsProc::Lookup,
            NfsProc::Create,
            NfsProc::Remove,
            NfsProc::Mkdir,
            NfsProc::Rmdir,
            NfsProc::ReadDir,
        ];
        // A lone continuation byte, a truncated two-byte sequence, and
        // an encoded surrogate: none is UTF-8.
        for bad in [&b"/\x80"[..], b"/caf\xc3", b"/\xed\xa0\x80"] {
            let wire = |paths: &[&[u8]], proc: NfsProc| {
                let mut e = XdrEncoder::new();
                e.put_u32(proc as u32);
                for p in paths {
                    e.put_opaque(p);
                }
                e.finish()
            };
            for proc in path_procs {
                assert!(decode_request(&wire(&[b"/ok"], proc)).is_ok(), "{proc:?} control");
                assert_eq!(decode_request(&wire(&[bad], proc)), Err(NfsStat::BadRpc), "{proc:?}");
            }
            for pair in [[bad, b"/ok"], [b"/ok", bad]] {
                assert_eq!(decode_request(&wire(&pair, NfsProc::Rename)), Err(NfsStat::BadRpc));
            }
        }
    }

    /// Paths of every byte length mod 4, with two-, three- and
    /// four-byte characters.
    const PATH: &str = "[/a-zé€😀]{0,12}";

    /// The request `which` (one of the 13 procedures) over the given
    /// arguments.
    fn request<'a>(
        which: u32,
        (from, to): (&'a str, &'a str),
        fh: Fhandle,
        (x, y): (u64, u64),
        data: &'a [u8],
    ) -> Request<'a> {
        match which {
            0 => Request::Null,
            1 => Request::GetAttr { path: from },
            2 => Request::Lookup { path: from },
            3 => Request::Create { path: from },
            4 => Request::Remove { path: from },
            5 => Request::Rename { from, to },
            6 => Request::Mkdir { path: from },
            7 => Request::Rmdir { path: from },
            8 => Request::ReadDir { path: from },
            9 => Request::GetAttrFh { fh },
            10 => Request::ReadFh { fh, offset: x, len: y },
            11 => Request::WriteFh { fh, offset: x, data },
            _ => Request::SetAttrFh { fh, size: y },
        }
    }

    /// Pads `s` with ASCII to a byte length of `rem` mod 4.
    fn to_len_mod_4(mut s: String, rem: usize) -> String {
        while s.len() % 4 != rem {
            s.push('x');
        }
        s
    }

    proptest::proptest! {
        /// `encode` is the inverse of `decode_request` for every
        /// procedure, writes the exact wire size in one reservation
        /// (and over a longer buffer's stale bytes leaves none behind),
        /// and no proper prefix of its output decodes.
        #[test]
        fn every_request_round_trips_at_its_exact_size(
            which in 0u32..13,
            paths in (PATH, PATH, 0usize..4, 0usize..4),
            fh in (0u64..u64::MAX, 0u32..u32::MAX),
            args in (0u64..u64::MAX, 0u64..u64::MAX),
            data in proptest::collection::vec(0u8..255, 0..3000),
        ) {
            let (from, to) = (to_len_mod_4(paths.0, paths.2), to_len_mod_4(paths.1, paths.3));
            let fh = Fhandle { ino: fh.0, gen: fh.1 };
            let req = request(which, (&from, &to), fh, args, &data);
            let mut wire = Vec::new();
            req.encode(&mut wire);
            proptest::prop_assert_eq!(wire.capacity(), wire.len(), "procedure {} regrew", which);
            proptest::prop_assert_eq!(decode_request(&wire), Ok(req));
            let mut reused = vec![0xee; wire.len() + 64];
            req.encode(&mut reused);
            proptest::prop_assert_eq!(&reused, &wire);
            for cut in 0..wire.len() {
                proptest::prop_assert_eq!(decode_request(&wire[..cut]), Err(NfsStat::BadRpc));
            }
        }
    }
}
