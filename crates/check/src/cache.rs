//! Incremental checking: the persisted cell-outcome cache.
//!
//! A crash cell is a pure function of `(CellSpec, records, CutSpec)`
//! (`crate::cell`), so its outcome can be keyed by a content hash of
//! exactly those inputs and replayed on the next run instead of
//! re-simulated. The key is a 128-bit FNV-1a over the spec's canonical
//! fingerprint, the bounded record prefix (via the binary trace codec,
//! so the hash follows the codec's notion of identity), and the cut
//! label — mutate one record and precisely the cells whose prefix
//! contains it change keys; everything earlier still hits.
//!
//! The file format is versioned and byte-stable: entries are written
//! sorted by key, so two saves of the same logical cache are identical
//! bytes. Saving persists only the entries the run *touched* (hit or
//! freshly computed), which keeps the file pruned to the current
//! configuration instead of accreting stale generations.

use std::collections::{BTreeMap, HashMap};
use std::io::{self, Read, Write};

use cnp_fault::CrashState;
use cnp_trace::{codec, AckedFile, TraceRecord};

use crate::cell::{CellOutcome, CellSpec, CellViolation, CutSpec};

/// Cache file magic; the trailing digit is the format version. Bump it
/// whenever [`encode_outcome`] or the key derivation changes — a
/// mismatched file loads as empty rather than replaying stale bytes.
const MAGIC: &[u8; 8] = b"CNPKCH1\n";

/// 128-bit FNV-1a offset basis.
const FNV_OFFSET: u128 = 0x6c62_272e_07bb_0142_62b8_2175_6295_c58d;
/// 128-bit FNV-1a prime.
const FNV_PRIME: u128 = 0x0000_0000_0100_0000_0000_0000_0000_013b;

/// An incremental FNV-1a 128 hasher; implements [`Write`] so the trace
/// codec can stream records straight into it.
#[derive(Debug, Clone, Copy)]
pub struct InputHash(u128);

impl InputHash {
    /// Fresh hasher at the offset basis.
    pub fn new() -> InputHash {
        InputHash(FNV_OFFSET)
    }

    /// Absorbs bytes.
    pub fn update(&mut self, bytes: &[u8]) {
        let mut h = self.0;
        for &b in bytes {
            h ^= b as u128;
            h = h.wrapping_mul(FNV_PRIME);
        }
        self.0 = h;
    }

    /// Absorbs one trace record through the binary codec.
    pub fn update_record(&mut self, r: &TraceRecord) {
        codec::write_binary(self, std::slice::from_ref(r)).expect("in-memory hash write");
    }

    /// The digest.
    pub fn digest(&self) -> u128 {
        self.0
    }
}

impl Default for InputHash {
    fn default() -> Self {
        InputHash::new()
    }
}

impl Write for InputHash {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.update(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

/// The spec half of a cell key: every [`CellSpec`] field, canonically
/// rendered (the repro-blob vocabulary, so two equal specs always
/// fingerprint identically).
pub fn spec_fingerprint(spec: &CellSpec) -> String {
    format!(
        "layout={},flush={},nvram={},mem={},qd={},seed={},plant={}",
        spec.layout.name(),
        spec.flush,
        spec.nvram_bytes.unwrap_or(0),
        spec.mem_bytes,
        spec.queue_depth,
        spec.sim_seed,
        spec.plant_stale_size_bug as u8,
    )
}

/// Rolling prefix hashes over a record list: `hashes()[k]` covers
/// `records[..k]`, so every boundary's key derivation is O(1) after one
/// O(n) pass.
pub struct PrefixHashes(Vec<u128>);

impl PrefixHashes {
    /// Hashes every prefix of `records` (bounded by `cap`).
    pub fn over(records: &[TraceRecord], cap: usize) -> PrefixHashes {
        let mut h = InputHash::new();
        let mut out = Vec::with_capacity(cap + 1);
        out.push(h.digest());
        for r in records.iter().take(cap) {
            h.update_record(r);
            out.push(h.digest());
        }
        PrefixHashes(out)
    }

    /// The hash of `records[..k]`.
    pub fn prefix(&self, k: usize) -> u128 {
        self.0[k]
    }
}

/// The full cell key: spec fingerprint + record-prefix hash + cut.
pub fn cell_key(fingerprint: &str, prefix_hash: u128, cut: &CutSpec) -> u128 {
    let mut h = InputHash::new();
    h.update(MAGIC);
    h.update(fingerprint.as_bytes());
    h.update(&[0]);
    h.update(&prefix_hash.to_le_bytes());
    h.update(cut.label().as_bytes());
    h.digest()
}

/// The key of one crash state's verification: a 128-bit digest of
/// every input [`crate::cell`]'s verification reads — the spec
/// fingerprint, the image (each frame's index, presence mask and
/// bytes, in index order), the NVRAM blocks and sizes, whether staging
/// was sealed, and the acked paths in order. The cut instant, the acked
/// sizes and the ack times are left out: only the per-cell loss
/// accountant reads them.
pub fn state_key(fingerprint: &str, state: &CrashState, acked: &[AckedFile]) -> u128 {
    let mut h = StateHash::default();
    h.bytes(fingerprint.as_bytes());
    let frames = state.image.frames();
    h.word(frames.len() as u64);
    for (idx, present, bytes) in frames {
        h.word(idx);
        h.word(present as u64);
        h.bytes(bytes);
    }
    h.word(state.nvram.blocks.len() as u64);
    for (ino, blk, data) in &state.nvram.blocks {
        h.word(*ino);
        h.word(*blk);
        match data {
            Some(bytes) => {
                h.word(1);
                h.bytes(bytes);
            }
            None => h.word(0),
        }
    }
    h.word(state.nvram.sizes.len() as u64);
    for &(ino, size) in &state.nvram.sizes {
        h.word(ino);
        h.word(size);
    }
    h.word(state.staging_sealed as u64);
    h.word(acked.len() as u64);
    for a in acked {
        h.bytes(a.path.as_bytes());
    }
    h.digest()
}

/// A word-at-a-time hash with two 64-bit lanes, for keys over whole
/// disk images, where [`InputHash`]'s byte loop costs several times as
/// much. Each step is a bijection of a lane's state for a fixed word,
/// so two inputs of one length that differ in one word never collide;
/// the lanes use different multipliers and rotations, and every
/// variable-length field is length-prefixed.
struct StateHash {
    a: u64,
    b: u64,
}

impl Default for StateHash {
    fn default() -> Self {
        StateHash { a: 0x243f_6a88_85a3_08d3, b: 0x1319_8a2e_0370_7344 }
    }
}

impl StateHash {
    fn word(&mut self, w: u64) {
        self.a = (self.a ^ w).wrapping_mul(0x9e37_79b9_7f4a_7c15).rotate_left(29);
        self.b = (self.b ^ w.rotate_left(32)).wrapping_mul(0xc2b2_ae3d_27d4_eb4f).rotate_left(37);
    }

    fn bytes(&mut self, bytes: &[u8]) {
        self.word(bytes.len() as u64);
        let mut words = bytes.chunks_exact(8);
        for w in &mut words {
            self.word(u64::from_le_bytes(w.try_into().expect("8-byte chunk")));
        }
        let tail = words.remainder();
        if !tail.is_empty() {
            let mut w = [0u8; 8];
            w[..tail.len()].copy_from_slice(tail);
            self.word(u64::from_le_bytes(w));
        }
    }

    fn digest(&self) -> u128 {
        // The splitmix64 finalizer per lane: the last words absorbed
        // reach every bit of their lane.
        let mix = |mut z: u64| {
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        };
        (mix(self.a) as u128) << 64 | mix(self.b) as u128
    }
}

/// The persisted outcome cache: `cell_key -> CellOutcome`.
#[derive(Debug, Clone, Default)]
pub struct CellCache {
    entries: HashMap<u128, CellOutcome>,
}

impl CellCache {
    /// An empty cache.
    pub fn new() -> CellCache {
        CellCache::default()
    }

    /// Loads a cache file. A missing file is an empty cache; a
    /// mismatched version or truncated file is an error (callers warn
    /// and fall back to empty — a bad cache must never fail a check).
    pub fn load(path: &str) -> io::Result<CellCache> {
        let bytes = match std::fs::read(path) {
            Ok(b) => b,
            Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(CellCache::new()),
            Err(e) => return Err(e),
        };
        CellCache::decode(&bytes[..])
    }

    /// Saves the cache, entries sorted by key (stable bytes).
    pub fn save(&self, path: &str) -> io::Result<()> {
        let mut out = Vec::new();
        out.extend_from_slice(MAGIC);
        let sorted: BTreeMap<&u128, &CellOutcome> = self.entries.iter().collect();
        out.extend_from_slice(&(sorted.len() as u64).to_le_bytes());
        for (key, outcome) in sorted {
            out.extend_from_slice(&key.to_le_bytes());
            let body = encode_outcome(outcome);
            out.extend_from_slice(&(body.len() as u32).to_le_bytes());
            out.extend_from_slice(&body);
        }
        std::fs::write(path, out)
    }

    /// Parses [`CellCache::save`] bytes.
    pub fn decode<R: Read>(mut r: R) -> io::Result<CellCache> {
        let bad = |m: &str| io::Error::new(io::ErrorKind::InvalidData, m.to_string());
        let mut magic = [0u8; 8];
        r.read_exact(&mut magic)?;
        if &magic != MAGIC {
            return Err(bad("unknown cache-file version"));
        }
        let mut u64b = [0u8; 8];
        r.read_exact(&mut u64b)?;
        let n = u64::from_le_bytes(u64b);
        let mut entries = HashMap::with_capacity(n.min(1 << 22) as usize);
        for _ in 0..n {
            let mut keyb = [0u8; 16];
            r.read_exact(&mut keyb)?;
            let mut u32b = [0u8; 4];
            r.read_exact(&mut u32b)?;
            let len = u32::from_le_bytes(u32b) as usize;
            let mut body = vec![0u8; len];
            r.read_exact(&mut body)?;
            entries.insert(u128::from_le_bytes(keyb), decode_outcome(&body)?);
        }
        Ok(CellCache { entries })
    }

    /// Looks one cell up.
    pub fn get(&self, key: u128) -> Option<&CellOutcome> {
        self.entries.get(&key)
    }

    /// Inserts one cell.
    pub fn insert(&mut self, key: u128, outcome: CellOutcome) {
        self.entries.insert(key, outcome);
    }

    /// Entries held.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Replaces the contents with `touched` — the retention policy
    /// after a run: keep exactly what the run used or produced.
    pub fn retain_touched(&mut self, touched: HashMap<u128, CellOutcome>) {
        self.entries = touched;
    }
}

fn push_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Encodes one outcome (little-endian, fixed field order).
pub fn encode_outcome(o: &CellOutcome) -> Vec<u8> {
    let mut out = Vec::with_capacity(96);
    push_u64(&mut out, o.ops);
    push_u64(&mut out, o.errors);
    push_u64(&mut out, o.cut_at_ns);
    push_u64(&mut out, o.arrival_ns);
    push_u64(&mut out, o.inflight_batch);
    out.push(o.staging_sealed as u8);
    push_u64(&mut out, o.nvram_replayed);
    push_u64(&mut out, o.fsck_post);
    push_u64(&mut out, o.loss.acked_files);
    push_u64(&mut out, o.loss.lost_files);
    push_u64(&mut out, o.loss.lost_bytes);
    push_u64(&mut out, o.loss.loss_window_ms.to_bits());
    out.extend_from_slice(&(o.violations.len() as u32).to_le_bytes());
    for v in &o.violations {
        match v {
            CellViolation::FsckDirty { violations } => {
                out.push(0);
                push_u64(&mut out, *violations);
            }
            CellViolation::AckedLoss { files, bytes } => {
                out.push(1);
                push_u64(&mut out, *files);
                push_u64(&mut out, *bytes);
            }
            CellViolation::RecoveryFailed { detail } => {
                out.push(2);
                let db = detail.as_bytes();
                out.extend_from_slice(&(db.len() as u32).to_le_bytes());
                out.extend_from_slice(db);
            }
        }
    }
    out
}

/// Decodes [`encode_outcome`] bytes.
pub fn decode_outcome(mut b: &[u8]) -> io::Result<CellOutcome> {
    let bad = |m: &str| io::Error::new(io::ErrorKind::InvalidData, m.to_string());
    let mut u64b = [0u8; 8];
    let mut next_u64 = |b: &mut &[u8]| -> io::Result<u64> {
        b.read_exact(&mut u64b)?;
        Ok(u64::from_le_bytes(u64b))
    };
    let ops = next_u64(&mut b)?;
    let errors = next_u64(&mut b)?;
    let cut_at_ns = next_u64(&mut b)?;
    let arrival_ns = next_u64(&mut b)?;
    let inflight_batch = next_u64(&mut b)?;
    let mut flag = [0u8; 1];
    b.read_exact(&mut flag)?;
    let staging_sealed = flag[0] != 0;
    let nvram_replayed = next_u64(&mut b)?;
    let fsck_post = next_u64(&mut b)?;
    let loss = cnp_fault::LossReport {
        acked_files: next_u64(&mut b)?,
        lost_files: next_u64(&mut b)?,
        lost_bytes: next_u64(&mut b)?,
        loss_window_ms: f64::from_bits(next_u64(&mut b)?),
    };
    let mut u32b = [0u8; 4];
    b.read_exact(&mut u32b)?;
    let nviol = u32::from_le_bytes(u32b) as usize;
    let mut violations = Vec::with_capacity(nviol.min(1 << 16));
    for _ in 0..nviol {
        let mut tag = [0u8; 1];
        b.read_exact(&mut tag)?;
        violations.push(match tag[0] {
            0 => CellViolation::FsckDirty { violations: next_u64(&mut b)? },
            1 => CellViolation::AckedLoss { files: next_u64(&mut b)?, bytes: next_u64(&mut b)? },
            2 => {
                b.read_exact(&mut u32b)?;
                let len = u32::from_le_bytes(u32b) as usize;
                if b.len() < len {
                    return Err(bad("truncated violation detail"));
                }
                let (db, rest) = b.split_at(len);
                let detail =
                    String::from_utf8(db.to_vec()).map_err(|_| bad("bad violation utf8"))?;
                b = rest;
                CellViolation::RecoveryFailed { detail }
            }
            _ => return Err(bad("unknown violation tag")),
        });
    }
    Ok(CellOutcome {
        ops,
        errors,
        cut_at_ns,
        arrival_ns,
        inflight_batch,
        staging_sealed,
        nvram_replayed,
        fsck_post,
        loss,
        violations,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use cnp_core::NvramSnapshot;
    use cnp_disk::{store_sectors, DiskImage, Payload};
    use cnp_fault::{LayoutKind, LossReport};
    use cnp_sim::SimTime;
    use cnp_trace::TraceOp;

    fn outcome() -> CellOutcome {
        CellOutcome {
            ops: 7,
            errors: 1,
            cut_at_ns: 123_456,
            arrival_ns: 100_000,
            inflight_batch: 3,
            staging_sealed: true,
            nvram_replayed: 5,
            fsck_post: 2,
            loss: LossReport {
                acked_files: 4,
                lost_files: 1,
                lost_bytes: 4096,
                loss_window_ms: 12.5,
            },
            violations: vec![
                CellViolation::FsckDirty { violations: 2 },
                CellViolation::AckedLoss { files: 1, bytes: 4096 },
                CellViolation::RecoveryFailed { detail: "mount: bad checkpoint".to_string() },
            ],
        }
    }

    fn assert_outcome_eq(a: &CellOutcome, b: &CellOutcome) {
        assert_eq!(a.ops, b.ops);
        assert_eq!(a.errors, b.errors);
        assert_eq!(a.cut_at_ns, b.cut_at_ns);
        assert_eq!(a.arrival_ns, b.arrival_ns);
        assert_eq!(a.inflight_batch, b.inflight_batch);
        assert_eq!(a.staging_sealed, b.staging_sealed);
        assert_eq!(a.nvram_replayed, b.nvram_replayed);
        assert_eq!(a.fsck_post, b.fsck_post);
        assert_eq!(a.loss, b.loss);
        assert_eq!(a.violations, b.violations);
    }

    #[test]
    fn outcome_codec_round_trips() {
        let o = outcome();
        let decoded = decode_outcome(&encode_outcome(&o)).unwrap();
        assert_outcome_eq(&o, &decoded);
        let clean = CellOutcome { violations: Vec::new(), ..o };
        assert_outcome_eq(&clean, &decode_outcome(&encode_outcome(&clean)).unwrap());
    }

    #[test]
    fn cache_file_round_trips_with_stable_bytes() {
        let dir = std::env::temp_dir().join(format!("cnp-cellcache-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("cache.bin");
        let path = path.to_str().unwrap();
        let mut cache = CellCache::new();
        cache.insert(7, outcome());
        cache.insert(3, CellOutcome { violations: Vec::new(), ..outcome() });
        cache.save(path).unwrap();
        let first = std::fs::read(path).unwrap();
        let loaded = CellCache::load(path).unwrap();
        assert_eq!(loaded.len(), 2);
        assert_outcome_eq(loaded.get(7).unwrap(), &outcome());
        loaded.save(path).unwrap();
        assert_eq!(std::fs::read(path).unwrap(), first, "save bytes must be stable");
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn missing_file_loads_empty_and_bad_magic_errors() {
        // Unreachable path components may error instead of reading as
        // missing; both are safe — only a non-empty load would be a bug.
        if let Ok(c) = CellCache::load("/nonexistent/cnp-cell-cache.bin") {
            assert!(c.is_empty(), "a missing file must load as an empty cache");
        }
        assert!(CellCache::decode(&b"NOTACACHE"[..]).is_err());
        assert!(CellCache::decode(&MAGIC[..7]).is_err(), "truncated header must error");
    }

    #[test]
    fn prefix_hashes_change_only_from_the_mutation_on() {
        let records: Vec<TraceRecord> = (0..6)
            .map(|i| TraceRecord {
                time_ns: i * 10,
                client: 0,
                op: TraceOp::Write { path: format!("/f{i}").into(), offset: 0, len: 100 },
            })
            .collect();
        let a = PrefixHashes::over(&records, records.len());
        let mut mutated = records.clone();
        mutated[3].op = TraceOp::Write { path: "/f3".into(), offset: 0, len: 101 };
        let b = PrefixHashes::over(&mutated, mutated.len());
        for k in 0..=3 {
            assert_eq!(a.prefix(k), b.prefix(k), "prefixes before the mutation must hit");
        }
        for k in 4..=6 {
            assert_ne!(a.prefix(k), b.prefix(k), "prefixes covering the mutation must miss");
        }
    }

    fn spec() -> CellSpec {
        CellSpec {
            layout: LayoutKind::Lfs,
            flush: "ups".to_string(),
            nvram_bytes: None,
            mem_bytes: 1 << 18,
            queue_depth: 8,
            sim_seed: 42,
            plant_stale_size_bug: false,
        }
    }

    #[test]
    fn cell_keys_separate_spec_prefix_and_cut() {
        let spec = spec();
        let fp = spec_fingerprint(&spec);
        let k1 = cell_key(&fp, 1, &CutSpec::Graceful);
        assert_eq!(k1, cell_key(&fp, 1, &CutSpec::Graceful));
        assert_ne!(k1, cell_key(&fp, 2, &CutSpec::Graceful));
        assert_ne!(k1, cell_key(&fp, 1, &CutSpec::PowerCut { retire: 0 }));
        assert_ne!(
            cell_key(&fp, 1, &CutSpec::PowerCut { retire: 0 }),
            cell_key(&fp, 1, &CutSpec::PowerCut { retire: 1 }),
        );
        let other = CellSpec { sim_seed: 43, ..spec };
        assert_ne!(k1, cell_key(&spec_fingerprint(&other), 1, &CutSpec::Graceful));
    }

    /// One edit to a crash state or its acked files.
    type Change<'a> = dyn Fn(&mut CrashState, &mut Vec<AckedFile>) + 'a;

    /// Every input verification reads moves the state key; what only the
    /// per-cell loss accountant reads does not.
    #[test]
    fn state_keys_cover_what_verification_reads_and_nothing_else() {
        let fp = spec_fingerprint(&spec());
        let block = vec![7u8; 4096];
        let mut image = DiskImage::default();
        store_sectors(&mut image, 512, 16, 8, &Payload::Data(block.clone()));
        store_sectors(&mut image, 512, 80, 3, &Payload::Data(vec![9u8; 1536]));
        let base = CrashState {
            image,
            nvram: NvramSnapshot {
                blocks: vec![(5, 0, Some(vec![1u8; 4096])), (5, 1, None)],
                sizes: vec![(5, 8192)],
            },
            staging_sealed: true,
            cut_at: SimTime::from_nanos(9_000_000),
        };
        let file = |path: &str| AckedFile { path: path.to_string(), size: 4096, last_ack_ns: 10 };
        let acked = vec![file("/a"), file("/b")];
        let key = state_key(&fp, &base, &acked);
        assert_eq!(key, state_key(&fp, &base.clone(), &acked.clone()), "a key is a function");

        let moved = |f: &Change| {
            let (mut state, mut acked) = (base.clone(), acked.clone());
            f(&mut state, &mut acked);
            state_key(&fp, &state, &acked)
        };
        let flipped = |s: &mut CrashState, _: &mut Vec<AckedFile>| {
            let mut bytes = block.clone();
            bytes[1234] ^= 1;
            store_sectors(&mut s.image, 512, 16, 8, &Payload::Data(bytes));
        };
        // A zero sector made present: the same bytes, another mask.
        let present = |s: &mut CrashState, _: &mut Vec<AckedFile>| {
            store_sectors(&mut s.image, 512, 84, 1, &Payload::Data(vec![0u8; 512]));
        };
        let erased = |s: &mut CrashState, _: &mut Vec<AckedFile>| {
            store_sectors(&mut s.image, 512, 82, 1, &Payload::Simulated(512));
        };
        let nvram_byte = |s: &mut CrashState, _: &mut Vec<AckedFile>| {
            s.nvram.blocks[0].2.as_mut().unwrap()[0] ^= 1;
        };
        let nvram_block = |s: &mut CrashState, _: &mut Vec<AckedFile>| s.nvram.blocks[1].1 = 2;
        let nvram_data = |s: &mut CrashState, _: &mut Vec<AckedFile>| {
            s.nvram.blocks[1].2 = Some(Vec::new());
        };
        let nvram_size = |s: &mut CrashState, _: &mut Vec<AckedFile>| s.nvram.sizes[0].1 += 1;
        let staging = |s: &mut CrashState, _: &mut Vec<AckedFile>| s.staging_sealed = false;
        let path = |_: &mut CrashState, a: &mut Vec<AckedFile>| a[1].path = "/c".to_string();
        let order = |_: &mut CrashState, a: &mut Vec<AckedFile>| a.swap(0, 1);
        let fewer = |_: &mut CrashState, a: &mut Vec<AckedFile>| {
            a.pop();
        };
        let changes: [(&str, &Change<'_>); 11] = [
            ("sector byte", &flipped),
            ("presence mask", &present),
            ("erased sector", &erased),
            ("nvram byte", &nvram_byte),
            ("nvram block", &nvram_block),
            ("nvram payload kind", &nvram_data),
            ("nvram size", &nvram_size),
            ("staging flag", &staging),
            ("acked path", &path),
            ("acked order", &order),
            ("acked count", &fewer),
        ];
        for (what, change) in changes {
            assert_ne!(moved(change), key, "{what} must move the key");
        }
        let other_spec = spec_fingerprint(&CellSpec { sim_seed: 43, ..spec() });
        assert_ne!(state_key(&other_spec, &base, &acked), key, "the spec must move the key");

        let cut = |s: &mut CrashState, _: &mut Vec<AckedFile>| s.cut_at = SimTime::from_nanos(1);
        let size = |_: &mut CrashState, a: &mut Vec<AckedFile>| a[0].size = 1;
        let time = |_: &mut CrashState, a: &mut Vec<AckedFile>| a[1].last_ack_ns = 99;
        for (what, change) in
            [("cut instant", &cut as &Change<'_>), ("ack size", &size), ("ack time", &time)]
        {
            assert_eq!(moved(change), key, "the {what} feeds only the loss accountant");
        }
    }
}
