//! Directory content encoding: packed variable-length entries.
//!
//! One record is `ino:u64 kind:u8 name_len:u16 name` (little-endian,
//! 11 + `name_len` bytes); records follow each other with no gaps, and a
//! zero inode number — or fewer than 11 remaining bytes — ends the
//! listing. [`entries`] is the only parser and [`lookup`], [`append`]
//! and [`remove`] work on the packed bytes directly, so the name path
//! never builds a listing to move one entry; [`decode`] and [`encode`]
//! are the whole-listing form, kept for `readdir` and as the
//! specification the packed operations are tested against.

use crate::types::codec::{get_u16, get_u64, put_u16, put_u64};
use crate::types::{FileKind, Ino};

/// One directory entry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Dirent {
    /// Target inode.
    pub ino: Ino,
    /// Entry file type (advisory copy of the inode's kind).
    pub kind: FileKind,
    /// Name (no `/`, not empty, max 255 bytes).
    pub name: String,
}

/// Maximum name length in bytes.
pub const MAX_NAME: usize = 255;

/// Bytes of a record before its name.
const HEADER: usize = 11;

/// Borrowing iterator over packed directory bytes; see [`entries`].
#[derive(Debug, Clone)]
pub struct Entries<'a> {
    buf: &'a [u8],
    pos: usize,
}

/// Parses packed directory bytes entry by entry, borrowing each name
/// from `buf`. Trailing zero padding and a tail too short to hold a
/// record end the listing; a malformed record yields one `Err` and then
/// nothing more.
pub fn entries(buf: &[u8]) -> Entries<'_> {
    Entries { buf, pos: 0 }
}

impl Entries<'_> {
    /// Byte offset of the next unparsed record: once the iterator is
    /// exhausted without an error, where the listing ends.
    fn offset(&self) -> usize {
        self.pos
    }
}

impl<'a> Iterator for Entries<'a> {
    type Item = Result<(Ino, FileKind, &'a str), String>;

    fn next(&mut self) -> Option<Self::Item> {
        let parsed = parse_record(&self.buf[self.pos..])?;
        match &parsed {
            Ok((_, _, name)) => self.pos += HEADER + name.len(),
            Err(_) => self.pos = self.buf.len(),
        }
        Some(parsed)
    }
}

/// Parses the record at the start of `rec`; `None` at the end of the
/// listing.
fn parse_record(rec: &[u8]) -> Option<Result<(Ino, FileKind, &str), String>> {
    if rec.len() < HEADER {
        return None;
    }
    let ino = get_u64(rec, 0);
    if ino == 0 {
        return None; // Zero padding marks the end.
    }
    let Some(kind) = FileKind::from_tag(rec[8]) else {
        return Some(Err(format!("bad kind {}", rec[8])));
    };
    let nlen = get_u16(rec, 9) as usize;
    if nlen == 0 || nlen > MAX_NAME || rec.len() < HEADER + nlen {
        return Some(Err(format!("bad name length {nlen}")));
    }
    Some(
        std::str::from_utf8(&rec[HEADER..HEADER + nlen])
            .map(|name| (Ino(ino), kind, name))
            .map_err(|e| e.to_string()),
    )
}

/// Appends one record to `out`.
fn push_record(out: &mut Vec<u8>, ino: Ino, kind: FileKind, name: &str) {
    debug_assert!(!name.is_empty() && name.len() <= MAX_NAME);
    let mut header = [0u8; HEADER];
    put_u64(&mut header, 0, ino.0);
    header[8] = kind.tag();
    put_u16(&mut header, 9, name.len() as u16);
    out.extend_from_slice(&header);
    out.extend_from_slice(name.as_bytes());
}

/// Serializes directory entries to packed bytes.
pub fn encode(entries: &[Dirent]) -> Vec<u8> {
    let mut out = Vec::with_capacity(entries.iter().map(|e| HEADER + e.name.len()).sum());
    for e in entries {
        push_record(&mut out, e.ino, e.kind, &e.name);
    }
    out
}

/// Parses packed directory bytes (ignores trailing zero padding).
pub fn decode(buf: &[u8]) -> Result<Vec<Dirent>, String> {
    entries(buf)
        .map(|e| e.map(|(ino, kind, name)| Dirent { ino, kind, name: name.to_string() }))
        .collect()
}

/// Looks `name` up in packed directory bytes: the first entry carrying
/// it, if any. Every entry is validated, also those after the match, so
/// a corrupt directory reads as corrupt whichever name is asked for.
pub fn lookup(buf: &[u8], name: &str) -> Result<Option<(Ino, FileKind)>, String> {
    let mut found = None;
    for e in entries(buf) {
        let (ino, kind, n) = e?;
        if found.is_none() && n == name {
            found = Some((ino, kind));
        }
    }
    Ok(found)
}

/// Adds an entry at the end of packed directory bytes, dropping any
/// padding or short tail behind the last entry; fails, leaving `buf`
/// untouched, if the bytes are corrupt or the name exists.
pub fn append(buf: &mut Vec<u8>, ino: Ino, kind: FileKind, name: &str) -> Result<(), String> {
    let mut it = entries(buf);
    let mut exists = false;
    for e in it.by_ref() {
        exists |= e?.2 == name;
    }
    if exists {
        return Err(format!("entry {name} exists"));
    }
    let end = it.offset();
    buf.truncate(end);
    push_record(buf, ino, kind, name);
    Ok(())
}

/// Removes the first entry named `name` from packed directory bytes,
/// keeping the order of the others and dropping any padding or short
/// tail behind the last entry; returns what the entry pointed at, or
/// `None` if no entry has the name. Fails, leaving `buf` untouched, if
/// the bytes are corrupt.
pub fn remove(buf: &mut Vec<u8>, name: &str) -> Result<Option<(Ino, FileKind)>, String> {
    let mut it = entries(buf);
    let mut found = None;
    loop {
        let start = it.offset();
        let Some(e) = it.next() else { break };
        let (ino, kind, n) = e?;
        if found.is_none() && n == name {
            found = Some((start..it.offset(), ino, kind));
        }
    }
    let end = it.offset();
    buf.truncate(end);
    Ok(found.map(|(record, ino, kind)| {
        buf.drain(record);
        (ino, kind)
    }))
}

/// Validates a file name for directory insertion.
pub fn valid_name(name: &str) -> bool {
    !name.is_empty() && name.len() <= MAX_NAME && !name.contains('/') && name != "." && name != ".."
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn e(ino: u64, name: &str) -> Dirent {
        Dirent { ino: Ino(ino), kind: FileKind::Regular, name: name.to_string() }
    }

    // The listing-level helpers the packed operations replaced, kept as
    // the model: decode → one of these → encode is the specification.

    fn add_entry(entries: &mut Vec<Dirent>, e: Dirent) -> Result<(), String> {
        if entries.iter().any(|x| x.name == e.name) {
            return Err(format!("entry {} exists", e.name));
        }
        entries.push(e);
        Ok(())
    }

    fn remove_entry(entries: &mut Vec<Dirent>, name: &str) -> Option<Dirent> {
        let i = entries.iter().position(|x| x.name == name)?;
        Some(entries.remove(i))
    }

    fn find<'a>(entries: &'a [Dirent], name: &str) -> Option<&'a Dirent> {
        entries.iter().find(|x| x.name == name)
    }

    /// Checks the three packed operations against the model on one
    /// buffer and one name: same value or same error string, and after
    /// a successful mutation the same bytes.
    fn check_against_model(buf: &[u8], name: &str) {
        let model = decode(buf);
        let want = model.clone().map(|v| find(&v, name).map(|d| (d.ino, d.kind)));
        assert_eq!(lookup(buf, name), want, "lookup {name:?} in {buf:?}");

        let want = model.clone().and_then(|mut v| {
            add_entry(&mut v, Dirent { ino: Ino(77), kind: FileKind::Symlink, name: name.into() })?;
            Ok(encode(&v))
        });
        let mut got = buf.to_vec();
        match append(&mut got, Ino(77), FileKind::Symlink, name) {
            Ok(()) => assert_eq!(Ok(got), want, "append {name:?} to {buf:?}"),
            Err(err) => {
                assert_eq!(Err(err), want, "append {name:?} to {buf:?}");
                assert_eq!(got, buf, "a failed append must not touch the bytes");
            }
        }

        let want = model.map(|mut v| {
            let removed = remove_entry(&mut v, name).map(|d| (d.ino, d.kind));
            (removed, encode(&v))
        });
        let mut got = buf.to_vec();
        match remove(&mut got, name) {
            Ok(removed) => assert_eq!(Ok((removed, got)), want, "remove {name:?} from {buf:?}"),
            Err(err) => {
                assert_eq!(Err(err), want.map(|_| ()), "remove {name:?} from {buf:?}");
                assert_eq!(got, buf, "a failed remove must not touch the bytes");
            }
        }
    }

    /// Damages packed bytes the ways a torn or scribbled-on directory
    /// block can be damaged; `at` picks the victim record or offset.
    fn corrupt(buf: &mut Vec<u8>, how: u8, at: usize, byte: u8) {
        let starts: Vec<usize> = {
            let mut it = entries(buf);
            let mut v = Vec::new();
            loop {
                let start = it.offset();
                match it.next() {
                    Some(Ok(_)) => v.push(start),
                    _ => break v,
                }
            }
        };
        let victim = if starts.is_empty() { None } else { Some(starts[at % starts.len()]) };
        match (how, victim) {
            (0, _) => {}
            // A truncated record (or, cut inside a header, a short tail).
            (1, _) => buf.truncate(at % (buf.len() + 1)),
            (2, Some(r)) => put_u16(buf, r + 9, 0),
            (3, Some(r)) => put_u16(buf, r + 9, MAX_NAME as u16 + 1 + byte as u16),
            (4, Some(r)) => buf[r + 8] = 4 + byte % 252,
            // Invalid UTF-8 in a name: before, at or after any match.
            (5, Some(r)) => buf[r + HEADER] = 0xff,
            (6, _) => buf.resize(buf.len() + 1 + at % 64, 0),
            // A 1–10 byte tail, too short to hold a record.
            (7, _) => buf.extend(std::iter::repeat_n(byte | 1, 1 + at % 10)),
            (8, _) if !buf.is_empty() => {
                let i = at % buf.len();
                buf[i] = byte;
            }
            _ => {}
        }
    }

    proptest! {
        /// The packed operations agree with decode → model → encode on
        /// well-formed and damaged listings alike. Names come from a
        /// small alphabet so probes hit, miss and collide.
        #[test]
        fn packed_ops_match_the_listing_model(
            names in prop::collection::vec("[abc]{1,3}", 0..12),
            probe in "[abc]{1,3}",
            pick in 0usize..64,
            how in 0u8..9,
            at in 0usize..4096,
            byte in 0u8..255,
        ) {
            let listing: Vec<Dirent> = names
                .iter()
                .enumerate()
                .map(|(i, n)| Dirent {
                    ino: Ino(i as u64 + 2),
                    kind: FileKind::from_tag((i % 4) as u8).unwrap(),
                    name: n.clone(),
                })
                .collect();
            let mut buf = encode(&listing);
            corrupt(&mut buf, how, at, byte);
            check_against_model(&buf, &probe);
            if let Some(present) = names.get(pick % names.len().max(1)) {
                check_against_model(&buf, present);
            }
        }

        /// … and on bytes that never were a listing.
        #[test]
        fn packed_ops_match_the_listing_model_on_noise(
            noise in prop::collection::vec(0u8..255, 0..96),
            probe in "[abc]{1,3}",
        ) {
            check_against_model(&noise, &probe);
        }
    }

    #[test]
    fn encode_decode_round_trip() {
        let entries = vec![e(1, "a"), e(2, "some-longer-name.txt"), e(3, "x")];
        let buf = encode(&entries);
        let back = decode(&buf).unwrap();
        assert_eq!(back, entries);
    }

    #[test]
    fn decode_ignores_zero_padding() {
        let entries = vec![e(5, "hello")];
        let mut buf = encode(&entries);
        buf.resize(buf.len() + 64, 0);
        assert_eq!(decode(&buf).unwrap(), entries);
        assert!(decode(&[]).unwrap().is_empty());
    }

    #[test]
    fn add_rejects_duplicates() {
        let mut buf = encode(&[e(1, "a")]);
        assert!(append(&mut buf, Ino(2), FileKind::Regular, "b").is_ok());
        assert_eq!(append(&mut buf, Ino(3), FileKind::Regular, "a"), Err("entry a exists".into()));
        assert_eq!(decode(&buf).unwrap(), vec![e(1, "a"), e(2, "b")]);
    }

    #[test]
    fn remove_and_find() {
        let mut buf = encode(&[e(1, "a"), e(2, "b")]);
        assert_eq!(lookup(&buf, "b").unwrap(), Some((Ino(2), FileKind::Regular)));
        assert_eq!(remove(&mut buf, "a").unwrap(), Some((Ino(1), FileKind::Regular)));
        assert_eq!(remove(&mut buf, "a").unwrap(), None);
        assert_eq!(lookup(&buf, "a").unwrap(), None);
        assert_eq!(buf, encode(&[e(2, "b")]));
    }

    #[test]
    fn lookup_validates_past_the_match() {
        let mut buf = encode(&[e(1, "a"), e(2, "b")]);
        let last = buf.len() - 1;
        buf[last] = 0xff;
        assert!(lookup(&buf, "a").is_err(), "corruption behind the match must still surface");
        assert_eq!(lookup(&buf, "a"), decode(&buf).map(|_| None));
    }

    #[test]
    fn malformed_records_keep_their_error_strings() {
        let good = encode(&[e(1, "a"), e(2, "bc")]);
        let second = HEADER + 1;
        let damaged = |f: &dyn Fn(&mut Vec<u8>)| {
            let mut buf = good.clone();
            f(&mut buf);
            decode(&buf).unwrap_err()
        };
        assert_eq!(damaged(&|b| b[second + 8] = 200), "bad kind 200");
        assert_eq!(damaged(&|b| put_u16(b, second + 9, 0)), "bad name length 0");
        assert_eq!(damaged(&|b| put_u16(b, second + 9, 256)), "bad name length 256");
        // A record cut short reads as a name running off the end.
        assert_eq!(damaged(&|b| b.truncate(b.len() - 1)), "bad name length 2");
        let utf8 = damaged(&|b| b[second + HEADER] = 0xff);
        assert!(utf8.starts_with("invalid utf-8 sequence"), "{utf8}");
        // Not errors: zero padding, and a tail too short for a header.
        let mut padded = good.clone();
        padded.resize(good.len() + 64, 0);
        assert_eq!(decode(&padded), decode(&good));
        let mut tailed = good.clone();
        tailed.extend_from_slice(&[0xff; 10]);
        assert_eq!(decode(&tailed), decode(&good));
    }

    #[test]
    fn name_validation() {
        assert!(valid_name("ok.txt"));
        assert!(!valid_name(""));
        assert!(!valid_name("a/b"));
        assert!(!valid_name("."));
        assert!(!valid_name(".."));
        assert!(!valid_name(&"x".repeat(256)));
        assert!(valid_name(&"x".repeat(255)));
    }

    #[test]
    fn decode_rejects_corrupt_kind() {
        let mut buf = encode(&[e(1, "a")]);
        buf[8] = 200;
        assert!(decode(&buf).is_err());
    }
}
