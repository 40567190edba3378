//! Self-contained repro blobs: one line that replays one crash cell.
//!
//! A failing cell minimizes to a short operation list; the blob embeds
//! that list verbatim (via the binary trace codec, hex-armored) plus
//! the full cell configuration, so `patsy check --repro <blob>`
//! re-runs the exact cell with **no** dependence on trace presets,
//! generator versions, or the enumeration that found it — the gem5
//! one-line-reproducible-experiment discipline applied to crashes.

use cnp_fault::LayoutKind;
use cnp_trace::{codec, TraceRecord};

use crate::cache::spec_fingerprint;
use crate::cell::{run_cell, CellOutcome, CellSpec, CutSpec};

/// Blob format version tag.
const TAG: &str = "cnpc1";

/// A parsed repro blob: one fully-specified cell.
#[derive(Debug, Clone, PartialEq)]
pub struct Repro {
    /// Cell configuration.
    pub spec: CellSpec,
    /// Crash kind.
    pub cut: CutSpec,
    /// The workload prefix, verbatim.
    pub records: Vec<TraceRecord>,
}

impl Repro {
    /// Encodes the cell as a one-line blob.
    pub fn encode(&self) -> String {
        let mut ops = Vec::new();
        codec::write_binary(&mut ops, &self.records).expect("in-memory codec write");
        let spec = spec_fingerprint(&self.spec);
        format!("{TAG}:{spec},cut={},ops={}", self.cut.label(), hex_encode(&ops))
    }

    /// Parses a blob produced by [`Repro::encode`].
    pub fn parse(blob: &str) -> Result<Repro, String> {
        let body = blob
            .trim()
            .strip_prefix(&format!("{TAG}:"))
            .ok_or_else(|| format!("not a {TAG} repro blob"))?;
        let mut layout = None;
        let mut flush = None;
        let mut nvram = None;
        let mut mem = None;
        let mut qd = None;
        let mut seed = None;
        let mut plant = None;
        let mut cut = None;
        let mut records = None;
        for field in body.split(',') {
            let (key, value) =
                field.split_once('=').ok_or_else(|| format!("malformed field {field:?}"))?;
            match key {
                "layout" => {
                    layout = Some(
                        LayoutKind::parse(value)
                            .ok_or_else(|| format!("bad layout {value:?} (lfs|ffs)"))?,
                    )
                }
                "flush" => flush = Some(value.to_string()),
                "nvram" => {
                    let n: u64 = value.parse().map_err(|_| format!("bad nvram {value:?}"))?;
                    nvram = Some(if n == 0 { None } else { Some(n) });
                }
                "mem" => mem = Some(value.parse().map_err(|_| format!("bad mem {value:?}"))?),
                "qd" => qd = Some(value.parse().map_err(|_| format!("bad qd {value:?}"))?),
                "seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value:?}"))?),
                "plant" => plant = Some(value == "1"),
                "cut" => {
                    cut = Some(CutSpec::parse(value).ok_or_else(|| format!("bad cut {value:?}"))?)
                }
                "ops" => {
                    let bytes = hex_decode(value)?;
                    records = Some(
                        codec::read_binary(&bytes[..])
                            .map_err(|e| format!("ops decode failed: {e}"))?,
                    );
                }
                other => return Err(format!("unknown field {other:?}")),
            }
        }
        Ok(Repro {
            spec: CellSpec {
                layout: layout.ok_or("missing layout")?,
                flush: flush.ok_or("missing flush")?,
                nvram_bytes: nvram.ok_or("missing nvram")?,
                mem_bytes: mem.ok_or("missing mem")?,
                queue_depth: qd.ok_or("missing qd")?,
                sim_seed: seed.ok_or("missing seed")?,
                plant_stale_size_bug: plant.ok_or("missing plant")?,
            },
            cut: cut.ok_or("missing cut")?,
            records: records.ok_or("missing ops")?,
        })
    }

    /// Re-runs the cell.
    pub fn run(&self) -> CellOutcome {
        run_cell(&self.spec, &self.records, self.cut)
    }
}

fn hex_encode(bytes: &[u8]) -> String {
    let mut s = String::with_capacity(bytes.len() * 2);
    for b in bytes {
        s.push_str(&format!("{b:02x}"));
    }
    s
}

fn hex_decode(s: &str) -> Result<Vec<u8>, String> {
    if !s.len().is_multiple_of(2) {
        return Err("odd-length ops hex".to_string());
    }
    (0..s.len())
        .step_by(2)
        .map(|i| {
            u8::from_str_radix(s.get(i..i + 2).ok_or("non-ascii ops hex")?, 16)
                .map_err(|_| format!("bad hex at {i}"))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use cnp_trace::TraceOp;

    #[test]
    fn blob_round_trips() {
        let repro = Repro {
            spec: CellSpec {
                layout: LayoutKind::Ffs,
                flush: "nvram-whole".into(),
                nvram_bytes: Some(16384),
                mem_bytes: 1 << 23,
                queue_depth: 8,
                sim_seed: 99,
                plant_stale_size_bug: true,
            },
            cut: CutSpec::PowerCut { retire: 2 },
            records: vec![
                TraceRecord {
                    time_ns: 10,
                    client: 0,
                    op: TraceOp::Write { path: "/c0/f1".into(), offset: 0, len: 8192 },
                },
                TraceRecord { time_ns: 20, client: 1, op: TraceOp::Stat { path: "/c0/f1".into() } },
            ],
        };
        let blob = repro.encode();
        assert!(!blob.contains('\n'), "a repro must be one line");
        assert!(blob.starts_with(&format!("cnpc1:{}", spec_fingerprint(&repro.spec))));
        assert_eq!(Repro::parse(&blob).unwrap(), repro);
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(Repro::parse("nope").is_err());
        assert!(Repro::parse("cnpc1:layout=zfs,flush=ups").is_err());
        assert!(Repro::parse(
            "cnpc1:layout=lfs,flush=ups,nvram=0,mem=8,qd=1,seed=1,plant=0,cut=graceful,ops=zz"
        )
        .is_err());
        assert!(Repro::parse("cnpc1:layout=lfs").is_err(), "missing fields must be rejected");
    }
}
