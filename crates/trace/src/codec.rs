//! Trace file codecs: a human-readable text format and a compact binary
//! format, both lossless.

use std::io::{self, BufRead, Write};
use std::sync::Arc;

use crate::record::{TraceOp, TraceRecord};

/// Writes records as text, one per line:
/// `<time_ns> <client> <op> <path> [args...]`.
pub fn write_text<W: Write>(w: &mut W, records: &[TraceRecord]) -> io::Result<()> {
    for r in records {
        match &r.op {
            TraceOp::Open { path } => writeln!(w, "{} {} open {path}", r.time_ns, r.client)?,
            TraceOp::Close { path } => writeln!(w, "{} {} close {path}", r.time_ns, r.client)?,
            TraceOp::Read { path, offset, len } => {
                writeln!(w, "{} {} read {path} {offset} {len}", r.time_ns, r.client)?
            }
            TraceOp::Write { path, offset, len } => {
                writeln!(w, "{} {} write {path} {offset} {len}", r.time_ns, r.client)?
            }
            TraceOp::Delete { path } => writeln!(w, "{} {} delete {path}", r.time_ns, r.client)?,
            TraceOp::Truncate { path, size } => {
                writeln!(w, "{} {} trunc {path} {size}", r.time_ns, r.client)?
            }
            TraceOp::Stat { path } => writeln!(w, "{} {} stat {path}", r.time_ns, r.client)?,
            TraceOp::Mkdir { path } => writeln!(w, "{} {} mkdir {path}", r.time_ns, r.client)?,
        }
    }
    Ok(())
}

/// Parses the text format produced by [`write_text`].
pub fn read_text<R: BufRead>(r: R) -> io::Result<Vec<TraceRecord>> {
    let mut out = Vec::new();
    for (lineno, line) in r.lines().enumerate() {
        let line = line?;
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let mut it = line.split_whitespace();
        let err = |m: &str| {
            io::Error::new(io::ErrorKind::InvalidData, format!("line {}: {m}", lineno + 1))
        };
        let time_ns: u64 =
            it.next().ok_or_else(|| err("missing time"))?.parse().map_err(|_| err("bad time"))?;
        let client: u32 = it
            .next()
            .ok_or_else(|| err("missing client"))?
            .parse()
            .map_err(|_| err("bad client"))?;
        let opname = it.next().ok_or_else(|| err("missing op"))?;
        let path: Arc<str> = it.next().ok_or_else(|| err("missing path"))?.into();
        let mut num = |name: &str| -> io::Result<u64> {
            it.next()
                .ok_or_else(|| err(&format!("missing {name}")))?
                .parse()
                .map_err(|_| err(&format!("bad {name}")))
        };
        let op = match opname {
            "open" => TraceOp::Open { path },
            "close" => TraceOp::Close { path },
            "read" => TraceOp::Read { path, offset: num("offset")?, len: num("len")? },
            "write" => TraceOp::Write { path, offset: num("offset")?, len: num("len")? },
            "delete" => TraceOp::Delete { path },
            "trunc" => TraceOp::Truncate { path, size: num("size")? },
            "stat" => TraceOp::Stat { path },
            "mkdir" => TraceOp::Mkdir { path },
            other => return Err(err(&format!("unknown op {other}"))),
        };
        out.push(TraceRecord { time_ns, client, op });
    }
    Ok(out)
}

const BIN_MAGIC: &[u8; 4] = b"CNPT";

/// Writes records in the compact binary format.
pub fn write_binary<W: Write>(w: &mut W, records: &[TraceRecord]) -> io::Result<()> {
    w.write_all(BIN_MAGIC)?;
    w.write_all(&(records.len() as u64).to_le_bytes())?;
    for r in records {
        w.write_all(&r.time_ns.to_le_bytes())?;
        w.write_all(&r.client.to_le_bytes())?;
        let (tag, path, a, b): (u8, &str, u64, u64) = match &r.op {
            TraceOp::Open { path } => (0, path, 0, 0),
            TraceOp::Close { path } => (1, path, 0, 0),
            TraceOp::Read { path, offset, len } => (2, path, *offset, *len),
            TraceOp::Write { path, offset, len } => (3, path, *offset, *len),
            TraceOp::Delete { path } => (4, path, 0, 0),
            TraceOp::Truncate { path, size } => (5, path, *size, 0),
            TraceOp::Stat { path } => (6, path, 0, 0),
            TraceOp::Mkdir { path } => (7, path, 0, 0),
        };
        w.write_all(&[tag])?;
        w.write_all(&a.to_le_bytes())?;
        w.write_all(&b.to_le_bytes())?;
        let pb = path.as_bytes();
        w.write_all(&(pb.len() as u16).to_le_bytes())?;
        w.write_all(pb)?;
    }
    Ok(())
}

/// Reads the binary format produced by [`write_binary`].
pub fn read_binary<R: io::Read>(mut r: R) -> io::Result<Vec<TraceRecord>> {
    let bad = |m: &str| io::Error::new(io::ErrorKind::InvalidData, m.to_string());
    let mut magic = [0u8; 4];
    r.read_exact(&mut magic)?;
    if &magic != BIN_MAGIC {
        return Err(bad("bad magic"));
    }
    let mut u64buf = [0u8; 8];
    r.read_exact(&mut u64buf)?;
    let n = u64::from_le_bytes(u64buf);
    let mut out = Vec::with_capacity(n.min(1 << 20) as usize);
    let mut pb = Vec::new();
    for _ in 0..n {
        r.read_exact(&mut u64buf)?;
        let time_ns = u64::from_le_bytes(u64buf);
        let mut u32buf = [0u8; 4];
        r.read_exact(&mut u32buf)?;
        let client = u32::from_le_bytes(u32buf);
        let mut tag = [0u8; 1];
        r.read_exact(&mut tag)?;
        r.read_exact(&mut u64buf)?;
        let a = u64::from_le_bytes(u64buf);
        r.read_exact(&mut u64buf)?;
        let b = u64::from_le_bytes(u64buf);
        let mut u16buf = [0u8; 2];
        r.read_exact(&mut u16buf)?;
        let plen = u16::from_le_bytes(u16buf) as usize;
        pb.resize(plen, 0);
        r.read_exact(&mut pb)?;
        let path: Arc<str> = std::str::from_utf8(&pb).map_err(|_| bad("bad path utf8"))?.into();
        let op = match tag[0] {
            0 => TraceOp::Open { path },
            1 => TraceOp::Close { path },
            2 => TraceOp::Read { path, offset: a, len: b },
            3 => TraceOp::Write { path, offset: a, len: b },
            4 => TraceOp::Delete { path },
            5 => TraceOp::Truncate { path, size: a },
            6 => TraceOp::Stat { path },
            7 => TraceOp::Mkdir { path },
            t => return Err(bad(&format!("bad tag {t}"))),
        };
        out.push(TraceRecord { time_ns, client, op });
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Vec<TraceRecord> {
        vec![
            TraceRecord { time_ns: 0, client: 1, op: TraceOp::Mkdir { path: "/d".into() } },
            TraceRecord { time_ns: 10, client: 1, op: TraceOp::Open { path: "/d/f".into() } },
            TraceRecord {
                time_ns: 20,
                client: 2,
                op: TraceOp::Write { path: "/d/f".into(), offset: 4096, len: 8192 },
            },
            TraceRecord {
                time_ns: 30,
                client: 2,
                op: TraceOp::Read { path: "/d/f".into(), offset: 0, len: 100 },
            },
            TraceRecord {
                time_ns: 40,
                client: 1,
                op: TraceOp::Truncate { path: "/d/f".into(), size: 1 },
            },
            TraceRecord { time_ns: 50, client: 1, op: TraceOp::Stat { path: "/d/f".into() } },
            TraceRecord { time_ns: 60, client: 1, op: TraceOp::Close { path: "/d/f".into() } },
            TraceRecord { time_ns: 70, client: 3, op: TraceOp::Delete { path: "/d/f".into() } },
        ]
    }

    #[test]
    fn text_round_trip() {
        let records = sample();
        let mut buf = Vec::new();
        write_text(&mut buf, &records).unwrap();
        let back = read_text(io::BufReader::new(&buf[..])).unwrap();
        assert_eq!(back, records);
    }

    #[test]
    fn text_skips_comments_and_blanks() {
        let input = "# comment\n\n5 1 stat /x\n";
        let recs = read_text(io::BufReader::new(input.as_bytes())).unwrap();
        assert_eq!(recs.len(), 1);
        assert_eq!(recs[0].time_ns, 5);
    }

    #[test]
    fn text_rejects_garbage() {
        assert!(read_text(io::BufReader::new(&b"x y z"[..])).is_err());
        assert!(read_text(io::BufReader::new(&b"5 1 frobnicate /x"[..])).is_err());
        assert!(read_text(io::BufReader::new(&b"5 1 read /x 0"[..])).is_err());
    }

    #[test]
    fn binary_round_trip() {
        let records = sample();
        let mut buf = Vec::new();
        write_binary(&mut buf, &records).unwrap();
        let back = read_binary(&buf[..]).unwrap();
        assert_eq!(back, records);
    }

    #[test]
    fn binary_rejects_bad_magic() {
        assert!(read_binary(&b"NOPE\0\0\0\0\0\0\0\0"[..]).is_err());
    }
}
