//! Directory content encoding: packed variable-length entries.
//!
//! One record is `ino:u64 kind:u8 name_len:u16 name` (little-endian,
//! 11 + `name_len` bytes); records follow each other with no gaps, and a
//! zero inode number — or fewer than 11 remaining bytes — ends the
//! listing. [`scan`] is the one reader on the name path: it validates
//! every record where it lies and borrows nothing but bytes, and
//! [`lookup`], [`append`] and [`remove`] are built on it, so the name
//! path never builds a listing to move one entry. [`entries`],
//! [`decode`] and [`encode`] are the whole-listing form, kept for
//! `readdir` and as the specification the walker is tested against.

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
/// from `buf` as a `&str`. Trailing zero padding and a tail too short
/// to hold a record end the listing; a malformed record yields one
/// `Err` and then nothing more.
pub fn entries(buf: &[u8]) -> Entries<'_> {
    Entries { buf, pos: 0 }
}

#[cfg(test)]
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

/// One record as [`scan`] hands it out: validated, its name still the
/// bytes in the buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Record<'a> {
    /// Byte offset of the record in the scanned buffer.
    pub at: usize,
    /// Target inode.
    pub ino: Ino,
    /// Entry file type.
    pub kind: FileKind,
    /// Name bytes (checked to be UTF-8).
    pub name: &'a [u8],
}

impl Record<'_> {
    /// Byte offset just behind the record.
    pub fn end(&self) -> usize {
        self.at + HEADER + self.name.len()
    }
}

/// Reads and validates the record at byte `at` of `buf`, as
/// [`entries`] would on reaching it: `None` where the listing ends, the
/// same error string for the same first fault. The name is compared to
/// nothing and converted to nothing; only a name with a byte above 0x7f
/// is run through the UTF-8 check.
#[inline]
pub fn record_at(buf: &[u8], at: usize) -> Option<Result<Record<'_>, String>> {
    let rec = buf.get(at..).filter(|rec| rec.len() >= HEADER)?;
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
    let name = &rec[HEADER..HEADER + nlen];
    if !name.is_ascii() {
        if let Err(e) = std::str::from_utf8(name) {
            return Some(Err(e.to_string()));
        }
    }
    Some(Ok(Record { at, ino: Ino(ino), kind, name }))
}

/// The validating walker: visits every record of packed directory
/// bytes in listing order and returns the byte offset where the listing
/// ends, or the first malformed record's error. The one reader of
/// directory bytes on the name path — [`lookup`], [`append`] and
/// [`remove`] are built on it — checked record for record against
/// [`entries`], which stays as the specification.
#[inline]
pub fn scan<'a>(buf: &'a [u8], mut visit: impl FnMut(Record<'a>)) -> Result<usize, String> {
    let mut at = 0;
    while let Some(rec) = record_at(buf, at) {
        let rec = rec?;
        at = rec.end();
        visit(rec);
    }
    Ok(at)
}

/// What one walk for a name found; see [`walk`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Walk {
    /// The first entry carrying the name: the byte range of its record
    /// and what it points at.
    pub found: Option<(std::ops::Range<usize>, Ino, FileKind)>,
    /// Byte offset where the listing ends: behind the last entry,
    /// before any padding or short tail.
    pub end: usize,
}

/// Walks packed directory bytes for `name`. Every entry is validated,
/// also those after the match, so a corrupt directory reads as corrupt
/// whichever name is asked for.
pub fn walk(buf: &[u8], name: &str) -> Result<Walk, String> {
    let mut found = None;
    let end = scan(buf, |rec| {
        if found.is_none() && rec.name == name.as_bytes() {
            found = Some((rec.at..rec.end(), rec.ino, rec.kind));
        }
    })?;
    Ok(Walk { found, end })
}

impl Walk {
    /// What the found entry points at.
    pub fn target(&self) -> Option<(Ino, FileKind)> {
        self.found.as_ref().map(|&(_, ino, kind)| (ino, kind))
    }

    /// Adds an entry where the walked listing ends, dropping any
    /// padding or short tail behind the last entry. `buf` must be the
    /// bytes walked, and the walk must not have found `name`.
    pub fn push(&self, buf: &mut Vec<u8>, ino: Ino, kind: FileKind, name: &str) {
        debug_assert!(self.found.is_none());
        buf.truncate(self.end);
        push_record(buf, ino, kind, name);
    }

    /// Takes the found entry out of `buf` (the bytes walked), keeping
    /// the order of the others and dropping any padding or short tail
    /// behind the last entry; returns what the entry pointed at.
    pub fn cut(self, buf: &mut Vec<u8>) -> Option<(Ino, FileKind)> {
        buf.truncate(self.end);
        self.found.map(|(record, ino, kind)| {
            buf.drain(record);
            (ino, kind)
        })
    }
}

/// Looks `name` up in packed directory bytes: the first entry carrying
/// it, if any (see [`walk`]).
pub fn lookup(buf: &[u8], name: &str) -> Result<Option<(Ino, FileKind)>, String> {
    walk(buf, name).map(|w| w.target())
}

/// Adds an entry at the end of packed directory bytes, dropping any
/// padding or short tail behind the last entry; fails, leaving `buf`
/// untouched, if the bytes are corrupt or the name exists.
pub fn append(buf: &mut Vec<u8>, ino: Ino, kind: FileKind, name: &str) -> Result<(), String> {
    let walked = walk(buf, name)?;
    if walked.found.is_some() {
        return Err(format!("entry {name} exists"));
    }
    walked.push(buf, ino, kind, name);
    Ok(())
}

/// Removes the first entry named `name` from packed directory bytes,
/// keeping the order of the others and dropping any padding or short
/// tail behind the last entry; returns what the entry pointed at, or
/// `None` if no entry has the name. Fails, leaving `buf` untouched, if
/// the bytes are corrupt.
pub fn remove(buf: &mut Vec<u8>, name: &str) -> Result<Option<(Ino, FileKind)>, String> {
    Ok(walk(buf, name)?.cut(buf))
}

/// How [`rename`] went.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Renamed {
    /// The entry now carries the new name, at the end of the listing.
    Moved,
    /// No entry carries the old name; `buf` is untouched.
    Missing,
    /// Another entry carries the new name; `buf` is untouched.
    Taken,
}

/// Renames within one listing, in one walk: what [`remove`] of `from`,
/// a [`lookup`] of `to` in what is left and an [`append`] of it do. The
/// first entry named `from` leaves its place and joins at the end as
/// `to` (also when the two names are equal). Fails, leaving `buf`
/// untouched, if the bytes are corrupt.
pub fn rename(buf: &mut Vec<u8>, from: &str, to: &str) -> Result<Renamed, String> {
    let (mut moved, mut taken) = (None, false);
    let end = scan(buf, |rec| {
        if moved.is_none() && rec.name == from.as_bytes() {
            moved = Some((rec.at..rec.end(), rec.ino, rec.kind));
        } else if rec.name == to.as_bytes() {
            taken = true;
        }
    })?;
    let Some((record, ino, kind)) = moved else { return Ok(Renamed::Missing) };
    if taken {
        return Ok(Renamed::Taken);
    }
    buf.truncate(end);
    buf.drain(record);
    push_record(buf, ino, kind, to);
    Ok(Renamed::Moved)
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

    /// [`walk`] as the specification has it: an [`Entries`] walk that
    /// notes where the first match starts and stops.
    fn walk_by_entries(buf: &[u8], name: &str) -> Result<Walk, String> {
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
        Ok(Walk { found, end: it.offset() })
    }

    /// Checks the walker and the three packed operations against the
    /// model on one buffer and one name: same value or same error
    /// string, and after a successful mutation the same bytes.
    fn check_against_model(buf: &[u8], name: &str) {
        assert_eq!(walk(buf, name), walk_by_entries(buf, name), "walk for {name:?} in {buf:?}");
        let mut visited = Vec::new();
        let scanned = scan(buf, |rec| visited.push(rec));
        let listed: Vec<_> = entries(buf).map_while(Result::ok).collect();
        assert_eq!(visited.len(), listed.len(), "records visited in {buf:?}");
        for (rec, &(ino, kind, n)) in visited.iter().zip(&listed) {
            assert_eq!((rec.ino, rec.kind, rec.name), (ino, kind, n.as_bytes()));
            assert_eq!(record_at(buf, rec.at), Some(Ok(*rec)), "record at {} of {buf:?}", rec.at);
        }
        assert_eq!(scanned.map(|_| ()), decode(buf).map(|_| ()), "scan of {buf:?}");

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

        for to in [name, "a", "é", "zz"] {
            let want = decode(buf).map(|mut v| match remove_entry(&mut v, name) {
                None => (Renamed::Missing, buf.to_vec()),
                Some(_) if find(&v, to).is_some() => (Renamed::Taken, buf.to_vec()),
                Some(d) => {
                    v.push(Dirent { name: to.into(), ..d });
                    (Renamed::Moved, encode(&v))
                }
            });
            let mut got = buf.to_vec();
            let how = rename(&mut got, name, to);
            assert_eq!(how.map(|how| (how, got)), want, "rename {name:?} to {to:?} in {buf:?}");
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
            // Invalid UTF-8 in a name, at its first byte or (a lead byte
            // nothing follows) its last: before, at or after any match.
            (5, Some(r)) => buf[r + HEADER] = 0xff,
            (9, Some(r)) => {
                let last = r + HEADER + get_u16(buf, r + 9) as usize - 1;
                buf[last] = 0xc3;
            }
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
        /// small alphabet, one letter of it not ASCII, so probes hit,
        /// miss and collide and the UTF-8 check runs on some names and
        /// is skipped on others.
        #[test]
        fn packed_ops_match_the_listing_model(
            names in prop::collection::vec("[abé]{1,3}", 0..12),
            probe in "[abé]{1,3}",
            pick in 0usize..64,
            how in 0u8..10,
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
            probe in "[abé]{1,3}",
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
    fn the_walker_checks_utf8_where_entries_does_before_at_and_after_the_match() {
        for at in 0..3 {
            // A name that is not ASCII but is UTF-8: before the match,
            // the match itself, and after it.
            let mut names = ["a", "b", "c"];
            names[at] = "é";
            let listing: Vec<Dirent> = (0..3).map(|i| e(i as u64 + 2, names[i])).collect();
            let good = encode(&listing);
            for probe in ["a", "b", "c", "é", "e"] {
                check_against_model(&good, probe);
            }
            assert_eq!(
                walk(&good, "é").unwrap().target(),
                Some((Ino(at as u64 + 2), FileKind::Regular))
            );
            // The same record with a lead byte nothing follows: every
            // probe reads the directory as corrupt, with `entries`' words.
            let mut bad = good.clone();
            let start: usize = names[..at].iter().map(|n| HEADER + n.len()).sum();
            bad[start + HEADER + 1] = b'x';
            for probe in ["a", "b", "c", "é"] {
                check_against_model(&bad, probe);
                let err = walk(&bad, probe).unwrap_err();
                assert!(err.starts_with("invalid utf-8 sequence"), "{err}");
            }
        }
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
