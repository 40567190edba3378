//! Synthetic Sprite-like workload generator (trace substitution).
//!
//! The original Sprite traces (Baker et al. '91) are not available, so
//! this module synthesizes traces with the distributional properties the
//! paper's experiments rely on (see DESIGN.md §5): mostly-small files
//! with a heavy tail, open/read/write/close sessions, Zipf-ish file
//! popularity, bursty arrivals, a high overwrite/early-death factor
//! ("Unix file-system write traffic is characterized by a high overwrite
//! factor in the first part of a file's lifetime", §1), plus per-trace
//! personalities: 1b has "many large and parallel write operations";
//! trace 5 mixes large writes with "a fair amount of stat and read
//! operations".

use std::collections::BTreeMap;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::record::{PathInterner, TraceOp, TraceRecord};

/// Tunable workload parameters (one per trace personality).
#[derive(Debug, Clone)]
pub struct SpriteParams {
    /// Trace name (reports).
    pub name: &'static str,
    /// Number of client threads.
    pub clients: u32,
    /// Trace duration in simulated seconds.
    pub duration_s: u64,
    /// Mean sessions per client per minute.
    pub sessions_per_min: f64,
    /// Fraction of sessions that write (vs read).
    pub write_fraction: f64,
    /// Fraction of *write* sessions creating large files.
    pub large_fraction: f64,
    /// Large file size range in bytes (inclusive lo, exclusive hi).
    pub large_size: (u64, u64),
    /// Small file size range in bytes.
    pub small_size: (u64, u64),
    /// Probability a freshly written file is deleted soon after
    /// (the overwrite/early-death factor).
    pub early_death: f64,
    /// Seconds until an early-death delete lands.
    pub death_delay_s: (u64, u64),
    /// Extra stat ops issued per session (trace 5 personality).
    pub stats_per_session: f64,
    /// Working-set size: files per client directory.
    pub files_per_client: u32,
    /// Probability a session re-uses a recently used file (locality).
    pub rehit: f64,
    /// Burstiness: probability the next session follows immediately.
    pub burst: f64,
}

/// Trace 1a: the office/engineering baseline.
pub fn trace_1a() -> SpriteParams {
    SpriteParams {
        name: "1a",
        clients: 8,
        duration_s: 24 * 3600,
        sessions_per_min: 6.0,
        write_fraction: 0.45,
        large_fraction: 0.06,
        large_size: (256 * 1024, 2 * 1024 * 1024),
        small_size: (1024, 64 * 1024),
        early_death: 0.65,
        death_delay_s: (5, 90),
        stats_per_session: 0.5,
        files_per_client: 256,
        rehit: 0.45,
        burst: 0.55,
    }
}

/// Trace 1b: many large and *parallel* writes (NVRAM drain stress).
pub fn trace_1b() -> SpriteParams {
    SpriteParams {
        name: "1b",
        clients: 12,
        duration_s: 24 * 3600,
        sessions_per_min: 8.0,
        write_fraction: 0.7,
        large_fraction: 0.4,
        large_size: (512 * 1024, 2 * 1024 * 1024),
        small_size: (2048, 64 * 1024),
        early_death: 0.5,
        death_delay_s: (10, 120),
        stats_per_session: 0.3,
        files_per_client: 160,
        rehit: 0.4,
        burst: 0.75,
    }
}

/// Trace 2a: permutation of 1a (lighter load, different seed shape).
pub fn trace_2a() -> SpriteParams {
    SpriteParams { name: "2a", clients: 6, sessions_per_min: 4.5, ..trace_1a() }
}

/// Trace 2b: permutation of 1a (heavier read mix).
pub fn trace_2b() -> SpriteParams {
    SpriteParams { name: "2b", write_fraction: 0.35, rehit: 0.7, ..trace_1a() }
}

/// Trace 5: large writes plus "a fair amount of stat and read
/// operations" — the cache-clutter personality.
pub fn trace_5() -> SpriteParams {
    SpriteParams {
        name: "5",
        clients: 10,
        duration_s: 24 * 3600,
        sessions_per_min: 7.0,
        write_fraction: 0.55,
        large_fraction: 0.35,
        large_size: (512 * 1024, 2 * 1024 * 1024),
        small_size: (1024, 32 * 1024),
        early_death: 0.45,
        death_delay_s: (20, 240),
        stats_per_session: 3.0,
        files_per_client: 288,
        rehit: 0.5,
        burst: 0.6,
    }
}

/// Looks a preset up by name (`1a`, `1b`, `2a`, `2b`, `5`).
pub fn preset(name: &str) -> Option<SpriteParams> {
    match name {
        "1a" => Some(trace_1a()),
        "1b" => Some(trace_1b()),
        "2a" => Some(trace_2a()),
        "2b" => Some(trace_2b()),
        "5" => Some(trace_5()),
        _ => None,
    }
}

/// All preset names, in the paper's reporting order.
pub const PRESETS: [&str; 5] = ["1a", "1b", "2a", "2b", "5"];

/// Deterministic synthetic Sprite-like trace generator.
pub struct SyntheticSprite {
    params: SpriteParams,
    rng: StdRng,
}

impl SyntheticSprite {
    /// Creates a generator with an explicit seed.
    pub fn new(params: SpriteParams, seed: u64) -> Self {
        SyntheticSprite { params, rng: StdRng::seed_from_u64(seed) }
    }

    /// Generates the full trace, scaled to `scale` of the nominal
    /// duration (1.0 = the paper's 24 hours), sorted by time.
    pub fn generate(&mut self, scale: f64) -> Vec<TraceRecord> {
        let p = self.params.clone();
        let duration_ns = (p.duration_s as f64 * scale.clamp(0.0001, 10.0) * 1e9) as u64;
        let mut out: Vec<TraceRecord> = Vec::new();
        let mut paths = PathInterner::default();
        // Each client owns a directory; mkdir arrives at t=0.
        for c in 0..p.clients {
            let path = paths.intern(format_args!("/c{c}"));
            out.push(TraceRecord { time_ns: 0, client: c, op: TraceOp::Mkdir { path } });
        }
        for c in 0..p.clients {
            self.client_stream(c, duration_ns, &mut paths, &mut out);
        }
        out.sort_by_key(|r| (r.time_ns, r.client));
        out
    }

    fn client_stream(
        &mut self,
        client: u32,
        duration_ns: u64,
        paths: &mut PathInterner,
        out: &mut Vec<TraceRecord>,
    ) {
        let p = self.params.clone();
        let mean_gap_ns = (60.0 / p.sessions_per_min * 1e9) as u64;
        let mut t: u64 = self.rng.gen_range(0..mean_gap_ns.max(1));
        let mut recent: Vec<u32> = Vec::new();
        // Sizes of files this client has written so far: read sessions
        // target real content, as a replayed trace would.
        let mut written: BTreeMap<u32, u64> = BTreeMap::new();
        while t < duration_ns {
            t = self.session(client, t, &mut recent, &mut written, paths, out);
            // Bursty arrivals: short gap with probability `burst`, else a
            // think-time drawn around the mean.
            let gap = if self.rng.gen_bool(p.burst) {
                self.rng.gen_range(1_000_000..200_000_000) // 1..200 ms
            } else {
                // Exponential-ish around the mean gap.
                let u: f64 = self.rng.gen_range(0.05..1.0f64);
                ((-u.ln()) * mean_gap_ns as f64) as u64
            };
            t = t.saturating_add(gap.max(1));
        }
    }

    /// Emits one open-…-close session; returns the session end time.
    fn session(
        &mut self,
        client: u32,
        start: u64,
        recent: &mut Vec<u32>,
        written: &mut BTreeMap<u32, u64>,
        paths: &mut PathInterner,
        out: &mut Vec<TraceRecord>,
    ) -> u64 {
        let p = self.params.clone();
        let mut writing = self.rng.gen_bool(p.write_fraction);
        if !writing && written.is_empty() {
            // Nothing to read back yet: populate first.
            writing = true;
        }
        // Pick the file: writers pick anywhere (locality re-hit biased);
        // readers pick among files that exist with real content.
        let fidx: u32 = if writing {
            if !recent.is_empty() && self.rng.gen_bool(p.rehit) {
                recent[self.rng.gen_range(0..recent.len())]
            } else {
                self.rng.gen_range(0..p.files_per_client)
            }
        } else {
            // Counted, then indexed in place: the draws a collected list
            // would take, in the same order.
            let hot = || recent.iter().filter(|&f| written.contains_key(f));
            let nhot = hot().count();
            if nhot > 0 && self.rng.gen_bool(p.rehit) {
                *hot().nth(self.rng.gen_range(0..nhot)).expect("index below the count")
            } else {
                let at = self.rng.gen_range(0..written.len());
                *written.keys().nth(at).expect("index below the count")
            }
        };
        if !recent.contains(&fidx) {
            recent.push(fidx);
            if recent.len() > 12 {
                recent.remove(0);
            }
        }
        let path = paths.intern(format_args!("/c{client}/f{fidx}"));
        let large = writing && self.rng.gen_bool(p.large_fraction);
        let size = if writing {
            if large {
                self.rng.gen_range(p.large_size.0..p.large_size.1)
            } else {
                self.rng.gen_range(p.small_size.0..p.small_size.1)
            }
        } else {
            // Read what was last written (whole-file read).
            *written.get(&fidx).expect("reader picked a written file")
        };
        // I/O in ~16 KB chunks for large files, whole-file for small.
        let chunk: u64 = if large { 16 * 1024 } else { size.max(1) };
        let nops = size.div_ceil(chunk).max(1);
        // Session body spans time proportional to the work; reads/writes
        // are placed equidistant between open and close (§4: "the
        // operations are positioned equidistant between the open and
        // close operation").
        let body_ns = 2_000_000 * nops + self.rng.gen_range(0..5_000_000);
        let step = body_ns / (nops + 1);
        out.push(TraceRecord { time_ns: start, client, op: TraceOp::Open { path: path.clone() } });
        let mut offset = 0u64;
        for i in 0..nops {
            let t = start + step * (i + 1);
            let len = chunk.min(size - offset);
            let op = if writing {
                TraceOp::Write { path: path.clone(), offset, len }
            } else {
                TraceOp::Read { path: path.clone(), offset, len }
            };
            out.push(TraceRecord { time_ns: t, client, op });
            offset += len;
        }
        let close_t = start + body_ns;
        // Stat chatter around the session (trace-5 personality).
        let nstats = p.stats_per_session.floor() as u64
            + u64::from(self.rng.gen_bool(p.stats_per_session.fract()));
        for _ in 0..nstats {
            let t = start + self.rng.gen_range(0..body_ns.max(1));
            let sidx = self.rng.gen_range(0..p.files_per_client);
            let path = paths.intern(format_args!("/c{client}/f{sidx}"));
            out.push(TraceRecord { time_ns: t, client, op: TraceOp::Stat { path } });
        }
        out.push(TraceRecord {
            time_ns: close_t,
            client,
            op: TraceOp::Close { path: path.clone() },
        });
        if writing {
            written.insert(fidx, size);
        }
        // Early death: most new bytes die young (delete or truncate).
        if writing && self.rng.gen_bool(p.early_death) {
            let delay_s = self.rng.gen_range(p.death_delay_s.0..=p.death_delay_s.1);
            let t = close_t + delay_s * 1_000_000_000;
            let op = if self.rng.gen_bool(0.7) {
                written.remove(&fidx);
                TraceOp::Delete { path }
            } else {
                written.insert(fidx, 0);
                TraceOp::Truncate { path, size: 0 }
            };
            out.push(TraceRecord { time_ns: t, client, op });
        }
        close_t
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_exist() {
        for name in PRESETS {
            assert!(preset(name).is_some(), "{name}");
        }
        assert!(preset("9z").is_none());
    }

    #[test]
    fn deterministic_for_same_seed() {
        let a = SyntheticSprite::new(trace_1a(), 7).generate(0.001);
        let b = SyntheticSprite::new(trace_1a(), 7).generate(0.001);
        assert_eq!(a, b);
        let c = SyntheticSprite::new(trace_1a(), 8).generate(0.001);
        assert_ne!(a, c);
    }

    #[test]
    fn records_sorted_and_in_range() {
        let recs = SyntheticSprite::new(trace_1a(), 1).generate(0.002);
        assert!(recs.len() > 50, "expected a real workload, got {}", recs.len());
        for w in recs.windows(2) {
            assert!(w[0].time_ns <= w[1].time_ns, "records must be time-sorted");
        }
        // All paths live under client directories.
        for r in &recs {
            assert!(r.op.path().starts_with('/'), "{:?}", r.op);
        }
    }

    #[test]
    fn write_heavy_1b_has_more_writes_than_1a() {
        fn write_byte_share(params: SpriteParams) -> f64 {
            let recs = SyntheticSprite::new(params, 3).generate(0.01);
            let mut wr = 0u64;
            let mut rd = 0u64;
            for r in &recs {
                match &r.op {
                    TraceOp::Write { len, .. } => wr += len,
                    TraceOp::Read { len, .. } => rd += len,
                    _ => {}
                }
            }
            wr as f64 / (wr + rd) as f64
        }
        let a = write_byte_share(trace_1a());
        let b = write_byte_share(trace_1b());
        assert!(b > a, "1b ({b:.2}) must be more write-heavy than 1a ({a:.2})");
    }

    #[test]
    fn trace_5_stats_heavier_than_1a() {
        fn stats_per_session(params: SpriteParams) -> f64 {
            let recs = SyntheticSprite::new(params, 3).generate(0.01);
            let stats = recs.iter().filter(|r| matches!(r.op, TraceOp::Stat { .. })).count();
            let opens = recs.iter().filter(|r| matches!(r.op, TraceOp::Open { .. })).count();
            stats as f64 / opens.max(1) as f64
        }
        assert!(stats_per_session(trace_5()) > 2.0 * stats_per_session(trace_1a()));
    }

    #[test]
    fn early_death_produces_deletes() {
        let recs = SyntheticSprite::new(trace_1a(), 5).generate(0.01);
        let deletes = recs
            .iter()
            .filter(|r| matches!(r.op, TraceOp::Delete { .. } | TraceOp::Truncate { .. }))
            .count();
        let writes = recs.iter().filter(|r| matches!(r.op, TraceOp::Open { .. })).count();
        assert!(deletes > 0, "early-death must generate deletes");
        assert!(deletes < writes, "not everything dies");
    }

    #[test]
    fn file_sizes_respect_engine_maximum() {
        // Largest generated write must fit the layout's 2 MB file cap.
        let recs = SyntheticSprite::new(trace_1b(), 11).generate(0.01);
        for r in &recs {
            if let TraceOp::Write { offset, len, .. } = r.op {
                assert!(offset + len <= 2 * 1024 * 1024 + 16 * 1024, "oversized write");
            }
        }
    }
}
