//! The benchmark's contract as data: which metrics exist, their units,
//! directions and bounds. `BENCHMARK.json` at the repo root is this
//! table rendered by [`manifest_json`]; a test keeps the two equal, so
//! the bounds `compare` applies are the ones the file states.

use crate::workloads::WORKLOADS;

/// How long one run measures, in seconds (`--seconds` default).
pub const RUN_SECONDS: u32 = 15;

/// Relative change beyond which `compare` calls a host probe (and the
/// planted-slowdown test calls the untouched layer's row) moved. As wide
/// as the end-to-end bounds: the sandbox this was written on drifts by
/// +-15% for tens of seconds at a time.
pub const PROBE_BOUND: f64 = 0.25;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn name(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// An end-to-end metric: reported by every workload, never zero, gated.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the baseline's median by which it may worsen.
    pub bound: f64,
}

use Better::{Higher, Lower};

pub const END_TO_END: [EndToEnd; 3] = [
    // Everything before the first timed rep: input generation (median
    // of several) plus the untimed warm-up rep. Build time excluded.
    EndToEnd { name: "setup_s", unit: "s", better: Lower, bound: 0.25 },
    // Work units of one rep / wall time of the fastest timed rep.
    EndToEnd { name: "work_per_host_s", unit: "units/s", better: Higher, bound: 0.25 },
    // Heap allocations over the timed reps / work units done in them.
    EndToEnd { name: "allocs_per_unit", unit: "allocs/unit", better: Lower, bound: 0.25 },
];

/// How a per-layer metric is obtained.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Host probe: the layer's public API timed alone. Noisy.
    Probe,
    /// Count or virtual value read from the cell's public report. Exact.
    Count,
    /// Virtual self time per span family, from the traced rep. Exact.
    Span,
    /// Host figure about the run itself. Noisy.
    Host,
    /// Says whether the run's host figures can be trusted; not compared.
    Validity,
}

pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub kind: Kind,
}

const fn p(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer { name, unit, better: Lower, kind: Kind::Probe }
}

const fn c(name: &'static str, unit: &'static str, better: Better) -> PerLayer {
    PerLayer { name, unit, better, kind: Kind::Count }
}

const fn s(name: &'static str, unit: &'static str, better: Better) -> PerLayer {
    PerLayer { name, unit, better, kind: Kind::Span }
}

const fn h(name: &'static str, unit: &'static str, better: Better) -> PerLayer {
    PerLayer { name, unit, better, kind: Kind::Host }
}

const fn v(name: &'static str, unit: &'static str, better: Better) -> PerLayer {
    PerLayer { name, unit, better, kind: Kind::Validity }
}

/// The per-layer table. The prefix before the first dot names the layer
/// (`fs`/`lock`/`policy`/`span` rows belong to `core`, `serve` to `pfs`,
/// `virt` is the modelled system as a whole).
pub const PER_LAYER: [PerLayer; 94] = [
    // sim: executor and sync primitives.
    p("sim.pingpong_ns", "ns"),
    p("sim.timer_ns", "ns"),
    p("sim.mutex_handoff_ns", "ns"),
    p("sim.spawn_ns", "ns"),
    // disk: models, bus, schedulers, driver.
    p("disk.simple_ns_per_req", "ns"),
    p("disk.hp97560_ns_per_req", "ns"),
    p("disk.ssd_ns_per_req", "ns"),
    p("disk.striped4_ns_per_req", "ns"),
    c("disk.completed", "count", Lower),
    c("disk.service_ms_mean", "ms", Lower),
    c("disk.queue_ms_mean", "ms", Lower),
    c("disk.overlap_fraction", "ratio", Higher),
    c("disk.retries", "count", Lower),
    // cache.
    p("cache.hit_ns", "ns"),
    p("cache.miss_fill_ns", "ns"),
    p("cache.dirty_flush_ns", "ns"),
    c("cache.hit_rate", "ratio", Higher),
    c("cache.evictions", "count", Lower),
    c("cache.flushes", "count", Lower),
    c("cache.absorbed", "count", Higher),
    c("cache.alloc_stalls", "count", Lower),
    c("cache.nvram_stalls", "count", Lower),
    s("span.cache_ms", "ms", Lower),
    // layout: LFS / FFS.
    p("layout.lfs_write_ns_per_block", "ns"),
    p("layout.ffs_write_ns_per_block", "ns"),
    p("layout.lfs_read_ns_per_block", "ns"),
    c("layout.segments_written", "count", Lower),
    c("layout.segments_cleaned", "count", Lower),
    c("layout.cleaner_moved", "count", Lower),
    c("layout.meta_reads", "count", Lower),
    c("layout.meta_writes", "count", Lower),
    c("layout.data_writes", "count", Lower),
    c("layout.checkpoints", "count", Lower),
    c("layout.write_amp", "ratio", Lower),
    s("span.layout_ms", "ms", Lower),
    // core: the FileSystem/ClientFs op envelope and its locks.
    p("core.read_hit_ns", "ns"),
    p("core.write_ns", "ns"),
    p("core.stat_ns", "ns"),
    p("core.create_unlink_ns", "ns"),
    c("fs.ops", "count", Higher),
    c("fs.blocks_flushed", "count", Lower),
    c("lock.ns.wait_ms", "ms", Lower),
    c("lock.layout.wait_ms", "ms", Lower),
    c("lock.layout-range.wait_ms", "ms", Lower),
    c("lock.contentions", "count", Lower),
    c("lock.hold_ms", "ms", Lower),
    s("span.op_ms", "ms", Lower),
    s("span.lock_ms", "ms", Lower),
    s("span.flush_ms", "ms", Lower),
    s("span.io_ms", "ms", Lower),
    s("span.coverage", "ratio", Higher),
    c("policy.write-delay-30s.mean_ms", "ms", Lower),
    c("policy.ups.mean_ms", "ms", Lower),
    c("policy.nvram-whole-file.mean_ms", "ms", Lower),
    c("policy.nvram-partial.mean_ms", "ms", Lower),
    // trace + workload: input generation.
    p("trace.gen_ns_per_record", "ns"),
    p("workload.gen_ns_per_op", "ns"),
    // pfs: XDR, sessions, admission, attr/lookup cache.
    p("pfs.xdr_encode_ns", "ns"),
    p("pfs.xdr_decode_ns", "ns"),
    p("pfs.null_ns", "ns"),
    p("pfs.getattr_hit_ns", "ns"),
    p("pfs.lookup_hit_ns", "ns"),
    p("pfs.read_fh_ns", "ns"),
    p("pfs.write_fh_ns", "ns"),
    c("serve.requests", "count", Lower),
    c("serve.lookup_hit_rate", "ratio", Higher),
    c("serve.attr_hit_rate", "ratio", Higher),
    c("serve.stale_replies", "count", Lower),
    c("serve.bytes_in", "B", Lower),
    c("serve.bytes_out", "B", Lower),
    c("pfs.reqs_per_trace_op", "ratio", Lower),
    h("pfs.wire_tax_host", "ratio", Lower),
    c("pfs.wire_tax_virt", "ratio", Lower),
    // check (+ fault): crash cells, fsck, the witness search.
    p("check.cell_ms_k10", "ms"),
    p("check.cell_ms_k40", "ms"),
    p("check.cell_ms_k80", "ms"),
    p("check.retire_cell_ms_k80", "ms"),
    p("check.warm_rerun_ms", "ms"),
    p("check.lin_ms", "ms"),
    c("check.cells", "count", Higher),
    c("check.boundary_cells", "count", Higher),
    c("check.retire_cells", "count", Higher),
    c("check.cache_hit_rate", "ratio", Higher),
    c("check.violations", "count", Lower),
    // obs: the tracer.
    h("obs.trace_overhead", "ratio", Lower),
    c("obs.events_per_unit", "ratio", Lower),
    // host: validity of the run itself, not performance.
    v("host.cpu_frac", "ratio", Higher),
    v("host.rep_spread", "ratio", Lower),
    h("host.alloc_bytes_per_unit", "B/unit", Lower),
    h("host.peak_rss_mib", "MiB", Lower),
    // virt: the modelled system's own figures. Exact at a given seed;
    // they vary with the seed, which is why they carry no bound here.
    c("virt.ops_per_s", "units/s", Higher),
    c("virt.mean_ms", "ms", Lower),
    c("virt.p99_ms", "ms", Lower),
    c("virt.samples", "count", Higher),
];

fn json_str(s: &str) -> String {
    format!("\"{}\"", crate::json::escape(s))
}

/// `BENCHMARK.json`, rendered from the tables above.
pub fn manifest_json() -> String {
    let mut s = String::from("{\n");
    s.push_str(
        "  \"command\": [\"cargo\", \"run\", \"--offline\", \"--release\", \"--quiet\", \
         \"--manifest-path\", \"benchmark/Cargo.toml\", \"--\"],\n",
    );
    s.push_str("  \"paths\": [\"benchmark\"],\n");
    s.push_str(&format!("  \"run_seconds\": {RUN_SECONDS},\n"));
    let workloads: Vec<String> = WORKLOADS
        .iter()
        .map(|w| format!("    {{\"name\": {}, \"why\": {}}}", json_str(w.name), json_str(w.why)))
        .collect();
    let end_to_end: Vec<String> = END_TO_END
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": {}, \"unit\": {}, \"better\": {}, \"bound\": {}}}",
                json_str(m.name),
                json_str(m.unit),
                json_str(m.better.name()),
                m.bound
            )
        })
        .collect();
    let per_layer: Vec<String> = PER_LAYER
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": {}, \"unit\": {}, \"better\": {}}}",
                json_str(m.name),
                json_str(m.unit),
                json_str(m.better.name())
            )
        })
        .collect();
    s.push_str(&format!(
        "  \"workloads\": [\n{}\n  ],\n  \"end_to_end\": [\n{}\n  ],\n  \"per_layer\": [\n{}\n",
        workloads.join(",\n"),
        end_to_end.join(",\n"),
        per_layer.join(",\n"),
    ));
    s.push_str("  ]\n}\n");
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{parse, Value};
    use std::collections::BTreeSet;

    fn valid_name(n: &str) -> bool {
        n.len() <= 64
            && n.starts_with(|c: char| c.is_ascii_alphanumeric())
            && n.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    fn valid_unit(u: &str) -> bool {
        !u.is_empty()
            && u.len() <= 16
            && u.chars().all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    }

    #[test]
    fn the_tables_meet_the_manifest_limits() {
        let mut names = BTreeSet::new();
        assert!((2..=8).contains(&WORKLOADS.len()));
        for w in &WORKLOADS {
            assert!(valid_name(w.name) && names.insert(w.name), "{}", w.name);
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}: {}", w.name, w.why.len());
            assert!(w.why.starts_with(&format!("unit {}:", w.unit)), "{}", w.name);
        }
        assert!((1..=16).contains(&END_TO_END.len()));
        for m in &END_TO_END {
            assert!(valid_name(m.name) && names.insert(m.name), "{}", m.name);
            assert!(valid_unit(m.unit), "{}", m.unit);
            assert!(m.bound > 0.0 && m.bound <= 0.25, "{}", m.name);
        }
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").expect("setup_s is required");
        assert!(setup.unit == "s" && setup.better == Lower);
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound), "setup_s has the largest bound");
        assert!((1..=128).contains(&PER_LAYER.len()));
        for m in &PER_LAYER {
            assert!(valid_name(m.name) && names.insert(m.name), "{}", m.name);
            assert!(valid_unit(m.unit), "{}", m.unit);
        }
        assert!((1..=60).contains(&RUN_SECONDS));
    }

    #[test]
    fn benchmark_json_at_the_repo_root_is_this_table() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let on_disk = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert_eq!(
            on_disk,
            manifest_json(),
            "regenerate with `cnp-benchmark manifest > BENCHMARK.json`"
        );
        assert!(on_disk.len() <= 64 * 1024);
        let v = parse(&on_disk).expect("BENCHMARK.json parses");
        let keys: Vec<&str> = v.as_obj().unwrap().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(
            keys,
            ["command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"]
        );
        let Some(Value::Arr(command)) = v.get("command") else { panic!("command is a list") };
        assert!(command.len() <= 32);
    }
}
