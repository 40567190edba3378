//! The scenario generator: seeded, diverse, closed-loop workloads.
//!
//! Each scenario is a set of per-client *programs*: sequences of
//! `(think time, operation)` pairs a closed-loop client executes in
//! order — think, issue, wait for completion, repeat. Every client owns
//! a namespace shard (`/w<client>`), so programs never conflict across
//! clients and a client's file contents are a pure function of its own
//! program order, whatever the interleaving (the property the
//! model-based differential tests rely on).
//!
//! Generation is deterministic in `(kind, client, seed, scale)` and —
//! deliberately — *independent of the client count*: client `c`'s
//! program is identical in a 1-client and a 64-client run, so client
//! sweeps vary only the offered concurrency, not the per-client work.

use std::fmt;
use std::sync::Arc;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use cnp_trace::{records_from_streams, PathInterner, TraceOp, TraceRecord};

/// File-system block size the generators align I/O to.
const BLOCK: u64 = 4096;

/// Per-file size cap (under the layout's 524-block maximum).
const FILE_CAP: u64 = 2 * 1024 * 1024;

/// The five scenario families.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorkloadKind {
    /// Zipfian hot-set small I/O: a fixed file set, popularity-skewed
    /// reads with small overwrites. No deletes — the steady-state
    /// serving workload (and the crash experiments' stable namespace).
    Zipf,
    /// Mail-spool churn: message create/append/unlink plus a growing
    /// inbox with periodic compaction. The metadata + early-death
    /// stress.
    Mail,
    /// Build-tree metadata storm: small-file creates, stat bursts,
    /// rebuild deletes across a directory tree.
    Build,
    /// Large sequential: big files scanned end-to-end plus a rotating
    /// append-only log. The bandwidth / pipelining workload.
    Scan,
    /// Mixed "web serve": Zipf-read corpus, access-log appends, stat
    /// chatter.
    Web,
}

/// All kinds, in reporting order.
pub const WORKLOADS: [WorkloadKind; 5] = [
    WorkloadKind::Zipf,
    WorkloadKind::Mail,
    WorkloadKind::Build,
    WorkloadKind::Scan,
    WorkloadKind::Web,
];

impl WorkloadKind {
    /// CLI/report name.
    pub fn name(&self) -> &'static str {
        match self {
            WorkloadKind::Zipf => "zipf",
            WorkloadKind::Mail => "mail",
            WorkloadKind::Build => "build",
            WorkloadKind::Scan => "scan",
            WorkloadKind::Web => "web",
        }
    }

    /// Parses a CLI name.
    pub fn parse(s: &str) -> Option<WorkloadKind> {
        match s {
            "zipf" => Some(WorkloadKind::Zipf),
            "mail" => Some(WorkloadKind::Mail),
            "build" => Some(WorkloadKind::Build),
            "scan" => Some(WorkloadKind::Scan),
            "web" => Some(WorkloadKind::Web),
            _ => None,
        }
    }

    /// Nominal operations per client at scale 1.0.
    fn base_ops(&self) -> u64 {
        match self {
            WorkloadKind::Zipf => 12_000,
            WorkloadKind::Mail => 10_000,
            WorkloadKind::Build => 14_000,
            WorkloadKind::Scan => 6_000,
            WorkloadKind::Web => 12_000,
        }
    }

    /// Per-client base think-time range (ns).
    fn think_range(&self) -> (u64, u64) {
        match self {
            WorkloadKind::Zipf => (500_000, 4_000_000),
            WorkloadKind::Mail => (1_000_000, 6_000_000),
            WorkloadKind::Build => (200_000, 2_000_000),
            WorkloadKind::Scan => (200_000, 1_000_000),
            WorkloadKind::Web => (300_000, 3_000_000),
        }
    }
}

/// One step of a client program: think, then issue `op`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClientOp {
    /// Closed-loop think time before dispatch (ns).
    pub think_ns: u64,
    /// The operation, in the shared trace vocabulary.
    pub op: TraceOp,
}

/// One client's whole program. Its ops share their paths (one
/// allocation per distinct file), so a clone copies the op list and no
/// path text.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClientPlan {
    /// Client id (also the namespace shard `/w<id>`).
    pub client: u32,
    /// Operations in program order.
    pub ops: Vec<ClientOp>,
}

/// A generated scenario: N client programs of one workload kind.
#[derive(Debug, Clone)]
pub struct Scenario {
    /// The workload family.
    pub kind: WorkloadKind,
    /// Generator seed (reports).
    pub seed: u64,
    /// Per-client programs, ordered by client id.
    pub plans: Vec<ClientPlan>,
}

impl Scenario {
    /// Generates `clients` deterministic programs of `kind`. `scale`
    /// scales the per-client operation count (1.0 ≈ the nominal day;
    /// sweeps typically run 0.01–0.1).
    pub fn generate(kind: WorkloadKind, clients: u32, seed: u64, scale: f64) -> Scenario {
        let ops = ((kind.base_ops() as f64 * scale.clamp(0.0001, 10.0)) as u64).max(30);
        let plans = (0..clients)
            .map(|c| {
                // Per-client RNG independent of the client count.
                let client_seed = seed
                    .wrapping_mul(0x9e37_79b9_7f4a_7c15)
                    .wrapping_add((c as u64) << 8)
                    .wrapping_add(kind.base_ops());
                let mut rng = StdRng::seed_from_u64(client_seed);
                let ops = ClientProgram::new(kind, c, &mut rng).generate(ops);
                ClientPlan { client: c, ops }
            })
            .collect();
        Scenario { kind, seed, plans }
    }

    /// Total operations across all clients.
    pub fn total_ops(&self) -> u64 {
        self.plans.iter().map(|p| p.ops.len() as u64).sum()
    }

    /// Projects the closed-loop programs onto open-loop trace records
    /// (`cnp_trace::records_from_streams`), so scenarios replay through
    /// the existing `replay` machinery, codecs included.
    pub fn to_trace_records(&self) -> Vec<TraceRecord> {
        let streams: Vec<(u32, Vec<(u64, TraceOp)>)> = self
            .plans
            .iter()
            .map(|p| (p.client, p.ops.iter().map(|o| (o.think_ns, o.op.clone())).collect()))
            .collect();
        records_from_streams(&streams)
    }
}

/// Zipf(θ) sampler over ranks `0..n` (rank 0 hottest), via the
/// precomputed cumulative weight table.
struct ZipfTable {
    cum: Vec<f64>,
}

impl ZipfTable {
    fn new(n: usize, theta: f64) -> ZipfTable {
        let mut cum = Vec::with_capacity(n);
        let mut total = 0.0;
        for r in 0..n {
            total += 1.0 / ((r + 1) as f64).powf(theta);
            cum.push(total);
        }
        ZipfTable { cum }
    }

    fn sample(&self, rng: &mut StdRng) -> usize {
        let total = *self.cum.last().expect("non-empty table");
        let u: f64 = rng.gen_range(0.0..total);
        self.cum.partition_point(|&c| c <= u).min(self.cum.len() - 1)
    }
}

/// Per-client program builder: shared helpers + the per-kind emitters.
struct ClientProgram<'a> {
    kind: WorkloadKind,
    shard: Arc<str>,
    paths: PathInterner,
    rng: &'a mut StdRng,
    /// Base think time for this client (its "user speed").
    think_base: u64,
    /// Written size per file index (reads stay in-bounds).
    sizes: std::collections::BTreeMap<u64, u64>,
    ops: Vec<ClientOp>,
}

impl<'a> ClientProgram<'a> {
    fn new(kind: WorkloadKind, client: u32, rng: &'a mut StdRng) -> ClientProgram<'a> {
        let (lo, hi) = kind.think_range();
        let think_base = rng.gen_range(lo..hi);
        let mut paths = PathInterner::default();
        ClientProgram {
            kind,
            shard: paths.intern(format_args!("/w{client}")),
            paths,
            rng,
            think_base,
            sizes: std::collections::BTreeMap::new(),
            ops: Vec::new(),
        }
    }

    fn generate(mut self, nops: u64) -> Vec<ClientOp> {
        self.push(0, TraceOp::Mkdir { path: self.shard.clone() });
        match self.kind {
            WorkloadKind::Zipf => self.zipf_body(nops, 64, 0.60, 0.03),
            WorkloadKind::Mail => self.mail_body(nops),
            WorkloadKind::Build => self.build_body(nops),
            WorkloadKind::Scan => self.scan_body(nops),
            WorkloadKind::Web => self.zipf_body(nops, 128, 0.85, 0.05),
        }
        self.ops
    }

    fn push(&mut self, think_ns: u64, op: TraceOp) {
        self.ops.push(ClientOp { think_ns, op });
    }

    /// A think time around the client's base (±50%).
    fn think(&mut self) -> u64 {
        let base = self.think_base;
        self.rng.gen_range(base / 2..base + base / 2)
    }

    /// The shared path of `name` (`format_args!("f{fidx}")`) in the
    /// client's shard.
    fn path(&mut self, name: fmt::Arguments<'_>) -> Arc<str> {
        self.paths.intern(format_args!("{}/{name}", self.shard))
    }

    /// A block-aligned offset so a `len`-byte access stays inside
    /// `size`.
    fn aligned_offset(&mut self, size: u64, len: u64) -> u64 {
        let span = size.saturating_sub(len) / BLOCK;
        self.rng.gen_range(0..span + 1) * BLOCK
    }

    /// Writes `len` bytes at `offset` of file `fidx` (named `f{fidx}`),
    /// tracking the written size.
    fn write_file(&mut self, think: u64, fidx: u64, offset: u64, len: u64) {
        let len = len.min(FILE_CAP.saturating_sub(offset)).max(1);
        let path = self.path(format_args!("f{fidx}"));
        self.push(think, TraceOp::Write { path, offset, len });
        let s = self.sizes.entry(fidx).or_insert(0);
        *s = (*s).max(offset + len);
    }

    /// The Zipf/Web body: popularity-skewed reads over a fixed corpus,
    /// small overwrites, stat chatter. `read_frac`/`stat_frac` split the
    /// op mix; the remainder writes.
    fn zipf_body(&mut self, nops: u64, nfiles: usize, read_frac: f64, stat_frac: f64) {
        let zipf = ZipfTable::new(nfiles, 1.1);
        let log = self.kind == WorkloadKind::Web;
        let mut log_size = 0u64;
        for i in 0..nops {
            let think = self.think();
            // Web: every ~10th op appends the access log instead.
            if log && i % 10 == 9 {
                if log_size + 16 * 1024 > FILE_CAP {
                    let path = self.path(format_args!("access.log"));
                    self.push(think, TraceOp::Truncate { path, size: 0 });
                    log_size = 0;
                    continue;
                }
                let len = self.rng.gen_range(1..=4u64) * BLOCK;
                let path = self.path(format_args!("access.log"));
                self.push(think, TraceOp::Write { path, offset: log_size, len });
                log_size += len;
                continue;
            }
            let fidx = zipf.sample(self.rng) as u64;
            let roll: f64 = self.rng.gen_range(0.0..1.0);
            match self.sizes.get(&fidx).copied() {
                // First touch establishes the file, whatever the roll.
                None => {
                    let size = self.rng.gen_range(4..=16u64) * BLOCK;
                    self.write_file(think, fidx, 0, size);
                }
                Some(size) if roll < read_frac => {
                    let len = (self.rng.gen_range(1..=4u64) * BLOCK).min(size);
                    let offset = self.aligned_offset(size, len);
                    let path = self.path(format_args!("f{fidx}"));
                    self.push(think, TraceOp::Read { path, offset, len });
                }
                Some(_) if roll < read_frac + stat_frac => {
                    let path = self.path(format_args!("f{fidx}"));
                    self.push(think, TraceOp::Stat { path });
                }
                Some(size) => {
                    // Small overwrite inside the hot set.
                    let len = self.rng.gen_range(1..=4u64) * BLOCK;
                    let offset = self.aligned_offset(size.max(len), len);
                    self.write_file(think, fidx, offset, len);
                }
            }
        }
    }

    /// Mail-spool churn: deliveries create messages, most die young,
    /// the inbox grows and gets compacted.
    fn mail_body(&mut self, nops: u64) {
        let mut next_msg = 0u64;
        let mut alive: Vec<u64> = Vec::new();
        let mut inbox = 0u64;
        for _ in 0..nops {
            let think = self.think();
            let roll: f64 = self.rng.gen_range(0.0..1.0);
            if roll < 0.40 || alive.is_empty() {
                // Delivery: a new message file plus an index append.
                let m = next_msg;
                next_msg += 1;
                let len = self.rng.gen_range(1..=4u64) * BLOCK;
                let path = self.path(format_args!("m{m}"));
                self.push(think, TraceOp::Write { path, offset: 0, len });
                alive.push(m);
            } else if roll < 0.65 {
                // Expunge: the oldest message dies.
                let m = alive.remove(0);
                let path = self.path(format_args!("m{m}"));
                self.push(think, TraceOp::Delete { path });
            } else if roll < 0.80 {
                // Read a random live message (its whole first block).
                let m = alive[self.rng.gen_range(0..alive.len())];
                let path = self.path(format_args!("m{m}"));
                self.push(think, TraceOp::Read { path, offset: 0, len: BLOCK });
            } else if roll < 0.90 {
                // Append the inbox; compact when it gets fat.
                if inbox + 8 * BLOCK > FILE_CAP {
                    let path = self.path(format_args!("inbox"));
                    self.push(think, TraceOp::Truncate { path, size: 0 });
                    inbox = 0;
                } else {
                    let len = self.rng.gen_range(1..=8u64) * BLOCK;
                    let path = self.path(format_args!("inbox"));
                    self.push(think, TraceOp::Write { path, offset: inbox, len });
                    inbox += len;
                }
            } else {
                // Status poll.
                let m = alive[self.rng.gen_range(0..alive.len())];
                let path = self.path(format_args!("m{m}"));
                self.push(think, TraceOp::Stat { path });
            }
        }
    }

    /// Build-tree storm: a directory tree of tiny files, stat bursts,
    /// rebuild deletes.
    fn build_body(&mut self, nops: u64) {
        const NDIRS: u64 = 8;
        for d in 0..NDIRS {
            let path = self.path(format_args!("d{d}"));
            self.push(0, TraceOp::Mkdir { path });
        }
        let mut built: Vec<(u64, u64)> = Vec::new(); // (dir, file)
        let mut next_file = 0u64;
        let mut i = 0u64;
        while i < nops.saturating_sub(NDIRS) {
            let think = self.think();
            let roll: f64 = self.rng.gen_range(0.0..1.0);
            if roll < 0.40 || built.is_empty() {
                // Compile: emit a small object file.
                let d = self.rng.gen_range(0..NDIRS);
                let f = next_file;
                next_file += 1;
                let len = self.rng.gen_range(1..=2u64) * BLOCK;
                let path = self.path(format_args!("d{d}/o{f}"));
                self.push(think, TraceOp::Write { path, offset: 0, len });
                built.push((d, f));
                i += 1;
            } else if roll < 0.70 {
                // Dependency-check storm: a burst of stats, no think.
                let burst = self.rng.gen_range(3..=8u64).min(nops - i);
                for b in 0..burst {
                    let (d, f) = built[self.rng.gen_range(0..built.len())];
                    let t = if b == 0 { think } else { 0 };
                    let path = self.path(format_args!("d{d}/o{f}"));
                    self.push(t, TraceOp::Stat { path });
                }
                i += burst;
            } else if roll < 0.90 {
                // Header read.
                let (d, f) = built[self.rng.gen_range(0..built.len())];
                let path = self.path(format_args!("d{d}/o{f}"));
                self.push(think, TraceOp::Read { path, offset: 0, len: BLOCK });
                i += 1;
            } else {
                // Clean: a rebuild deletes an output.
                let idx = self.rng.gen_range(0..built.len());
                let (d, f) = built.remove(idx);
                let path = self.path(format_args!("d{d}/o{f}"));
                self.push(think, TraceOp::Delete { path });
                i += 1;
            }
        }
    }

    /// Large sequential: build big files, scan them end-to-end in
    /// chunks, append a rotating log.
    fn scan_body(&mut self, nops: u64) {
        const NBIG: u64 = 4;
        const CHUNK: u64 = 16 * BLOCK; // 64 KiB
        let mut log_size = 0u64;
        let mut i = 0u64;
        // Lay the big files down first, sequentially — but never spend
        // more than half the budget building; the scans are the point.
        for f in 0..NBIG {
            let blocks = self.rng.gen_range(32..=128u64); // 128 .. 512 KiB
            let mut off = 0u64;
            while off < blocks * BLOCK && i < nops / 2 {
                let think = self.think();
                let len = CHUNK.min(blocks * BLOCK - off);
                self.write_file(think, f, off, len);
                off += len;
                i += 1;
            }
        }
        while i < nops {
            let think = self.think();
            let roll: f64 = self.rng.gen_range(0.0..1.0);
            if roll < 0.65 {
                // Full sequential scan of one big file.
                let f = self.rng.gen_range(0..NBIG);
                let size = self.sizes.get(&f).copied().unwrap_or(CHUNK);
                let path = self.path(format_args!("f{f}"));
                let mut off = 0u64;
                let mut first = true;
                while off < size && i < nops {
                    let len = CHUNK.min(size - off);
                    let t = if first { think } else { 0 };
                    first = false;
                    self.push(t, TraceOp::Read { path: path.clone(), offset: off, len });
                    off += len;
                    i += 1;
                }
            } else if log_size + CHUNK > FILE_CAP {
                // Log rotation.
                let path = self.path(format_args!("journal"));
                self.push(think, TraceOp::Truncate { path, size: 0 });
                log_size = 0;
                i += 1;
            } else {
                let len = self.rng.gen_range(4..=16u64) * BLOCK;
                let path = self.path(format_args!("journal"));
                self.push(think, TraceOp::Write { path, offset: log_size, len });
                log_size += len;
                i += 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ops_of(kind: WorkloadKind, seed: u64) -> Vec<ClientPlan> {
        Scenario::generate(kind, 3, seed, 0.01).plans
    }

    #[test]
    fn names_round_trip() {
        for k in WORKLOADS {
            assert_eq!(WorkloadKind::parse(k.name()), Some(k));
        }
        assert_eq!(WorkloadKind::parse("bogus"), None);
    }

    #[test]
    fn deterministic_for_same_seed() {
        for k in WORKLOADS {
            assert_eq!(ops_of(k, 7), ops_of(k, 7), "{}", k.name());
            assert_ne!(ops_of(k, 7), ops_of(k, 8), "{}", k.name());
        }
    }

    #[test]
    fn per_client_program_is_independent_of_client_count() {
        let one = Scenario::generate(WorkloadKind::Zipf, 1, 42, 0.01);
        let many = Scenario::generate(WorkloadKind::Zipf, 16, 42, 0.01);
        assert_eq!(one.plans[0], many.plans[0], "client 0 must not depend on the fleet size");
    }

    #[test]
    fn all_ops_stay_inside_the_client_shard_and_file_cap() {
        for k in WORKLOADS {
            for plan in ops_of(k, 11) {
                let shard = format!("/w{}", plan.client);
                for cop in &plan.ops {
                    let p = cop.op.path();
                    assert!(
                        p == shard || p.starts_with(&format!("{shard}/")),
                        "{} escaped shard: {p}",
                        k.name()
                    );
                    assert!(!p.contains(' '), "paths must stay codec-safe: {p}");
                    match &cop.op {
                        TraceOp::Write { offset, len, .. } => {
                            assert!(offset + len <= FILE_CAP, "oversized write in {}", k.name())
                        }
                        TraceOp::Read { len, .. } => assert!(*len > 0),
                        _ => {}
                    }
                }
            }
        }
    }

    #[test]
    fn personalities_differ() {
        let count = |k: WorkloadKind, f: &dyn Fn(&TraceOp) -> bool| -> usize {
            ops_of(k, 5).iter().flat_map(|p| &p.ops).filter(|o| f(&o.op)).count()
        };
        let deletes = |op: &TraceOp| matches!(op, TraceOp::Delete { .. });
        let stats = |op: &TraceOp| matches!(op, TraceOp::Stat { .. });
        let reads = |op: &TraceOp| matches!(op, TraceOp::Read { .. });
        let writes = |op: &TraceOp| matches!(op, TraceOp::Write { .. });
        // Zipf keeps a stable namespace; mail and build churn it.
        assert_eq!(count(WorkloadKind::Zipf, &deletes), 0);
        assert!(count(WorkloadKind::Mail, &deletes) > 0);
        assert!(count(WorkloadKind::Build, &deletes) > 0);
        // Build is the stat-heavy one.
        assert!(count(WorkloadKind::Build, &stats) > count(WorkloadKind::Zipf, &stats));
        // Web is more read-skewed than zipf (measured at a scale where
        // the corpus' first-touch writes have amortized); scan moves the
        // most bytes per op through big sequential reads.
        let frac = |k: WorkloadKind| {
            let plans = Scenario::generate(k, 3, 5, 0.05).plans;
            let ops: Vec<&TraceOp> = plans.iter().flat_map(|p| &p.ops).map(|o| &o.op).collect();
            let r = ops.iter().filter(|op| reads(op)).count() as f64;
            let w = ops.iter().filter(|op| writes(op)).count() as f64;
            r / (r + w)
        };
        assert!(frac(WorkloadKind::Web) > frac(WorkloadKind::Zipf));
        let scan_reads: u64 = ops_of(WorkloadKind::Scan, 5)
            .iter()
            .flat_map(|p| &p.ops)
            .filter_map(|o| match &o.op {
                TraceOp::Read { len, .. } => Some(*len),
                _ => None,
            })
            .sum();
        assert!(scan_reads > 1024 * 1024, "scan must stream serious bytes: {scan_reads}");
    }

    #[test]
    fn trace_projection_is_time_sorted_and_complete() {
        for k in WORKLOADS {
            let sc = Scenario::generate(k, 4, 9, 0.01);
            let recs = sc.to_trace_records();
            assert_eq!(recs.len() as u64, sc.total_ops(), "{}", k.name());
            for w in recs.windows(2) {
                assert!(w[0].time_ns <= w[1].time_ns);
            }
        }
    }
}
