//! One benchmark run: set-up, timed reps, verification, and the output
//! record.
//!
//! Untraced (`--trace 0`): an untimed warm-up rep, then timed reps for
//! `--seconds` (at least [`MIN_REPS`]); the end-to-end metrics come out.
//! Traced (`--trace 1`): the warm-up, two untraced reps as reference,
//! one rep with a span tracer installed, the engine-only twin of a wire
//! workload, and the host probes; the per-layer metrics come out.
//! End-to-end metrics are always measured with tracing off.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

use cnp_obs::{Metric, MetricsSnapshot};

use crate::spec::{END_TO_END, PER_LAYER};
use crate::stats::{highest_supported_percentile, median, rel_spread};
use crate::workloads::{summary, Rep, Workload, WORKLOADS};
use crate::{alloc, host, json, probes};

/// Timed reps an untraced run makes at the least.
const MIN_REPS: usize = 3;

/// Untraced reps a traced run times as the reference for the tracing
/// overhead.
const TRACED_REFERENCE_REPS: usize = 2;

/// Input generations timed during set-up; their median is reported.
const SETUP_GENS: usize = 5;

/// A run is printed as `noisy` below this CPU share or above this
/// rep-to-rep spread: something else had the processor.
const MIN_CPU_FRAC: f64 = 0.90;
const MAX_REP_SPREAD: f64 = 0.10;

/// Share of op virtual latency the op spans must account for.
const MIN_SPAN_COVERAGE: f64 = 0.95;

pub struct RunArgs {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub traced: bool,
}

/// Times one rep from outside: `Instant` around the one public entry
/// call.
fn timed_rep(w: &dyn Workload, traced: bool) -> (Rep, f64) {
    let t0 = Instant::now();
    let rep = w.rep(traced);
    let secs = t0.elapsed().as_secs_f64();
    (rep, secs)
}

/// The reps of one run, folded as they finish: only the warm-up rep's
/// outcome is kept, so peak memory does not grow with `--seconds`.
struct Reps {
    /// The warm-up rep: the reference every later rep must reproduce.
    first: Rep,
    /// Wall seconds of each timed rep.
    secs: Vec<f64>,
    units_done: u64,
    attempted: u64,
    failed: u64,
    /// Reps (the traced one included) whose virtual report bytes or
    /// work-unit count differ from the warm-up rep's.
    det_mismatch: u64,
}

impl Reps {
    fn push(&mut self, rep: &Rep, secs: Option<f64>) {
        self.secs.extend(secs);
        self.units_done += rep.units;
        self.attempted += rep.attempted;
        self.failed += rep.failed;
        if rep.report != self.first.report || rep.units != self.first.units {
            self.det_mismatch += 1;
        }
    }
}

/// A counter or gauge as a float (0 when the cell has no such layer).
fn scalar(m: &MetricsSnapshot, key: &str) -> f64 {
    match m.get(key) {
        Some(Metric::Counter(v)) => *v as f64,
        Some(Metric::Gauge(v)) => *v,
        _ => 0.0,
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// The `C` rows: counts and virtual values of the reported cell.
fn count_metrics(rep: &Rep, out: &mut BTreeMap<&'static str, f64>) {
    let m = &rep.counts;
    for name in [
        "disk.completed",
        "disk.overlap_fraction",
        "disk.retries",
        "cache.hit_rate",
        "cache.evictions",
        "cache.flushes",
        "cache.absorbed",
        "cache.alloc_stalls",
        "cache.nvram_stalls",
        "layout.segments_written",
        "layout.segments_cleaned",
        "layout.cleaner_moved",
        "layout.meta_reads",
        "layout.meta_writes",
        "layout.data_writes",
        "layout.checkpoints",
        "fs.ops",
        "fs.blocks_flushed",
        "lock.ns.wait_ms",
        "lock.layout.wait_ms",
        "lock.layout-range.wait_ms",
        "policy.write-delay-30s.mean_ms",
        "policy.ups.mean_ms",
        "policy.nvram-whole-file.mean_ms",
        "policy.nvram-partial.mean_ms",
        "serve.requests",
        "serve.bytes_in",
        "serve.bytes_out",
        "check.cells",
        "check.boundary_cells",
        "check.retire_cells",
        "check.violations",
    ] {
        out.insert(name, scalar(m, name));
    }
    out.insert("disk.service_ms_mean", summary(m, "disk.service_ms").1);
    out.insert("disk.queue_ms_mean", summary(m, "disk.queue_ms").1);
    out.insert(
        "layout.write_amp",
        ratio(
            scalar(m, "layout.data_writes") + scalar(m, "layout.meta_writes"),
            scalar(m, "fs.blocks_flushed"),
        ),
    );
    let families = ["ns", "layout", "layout-range"];
    out.insert(
        "lock.contentions",
        families.iter().map(|f| scalar(m, &format!("lock.{f}.contentions"))).sum(),
    );
    out.insert(
        "lock.hold_ms",
        families.iter().map(|f| scalar(m, &format!("lock.{f}.hold_ms"))).sum(),
    );
    out.insert("serve.lookup_hit_rate", scalar(m, "serve.lookup_cache.hit_rate"));
    out.insert("serve.attr_hit_rate", scalar(m, "serve.attr_cache.hit_rate"));
    out.insert("serve.stale_replies", scalar(m, "serve.stale"));
    out.insert("check.cache_hit_rate", scalar(m, "check.cache.hit_rate"));
    let on_the_wire = scalar(m, "serve.requests") > 0.0;
    out.insert(
        "pfs.reqs_per_trace_op",
        if on_the_wire { ratio(rep.units as f64, rep.trace_ops as f64) } else { 0.0 },
    );
    out.insert("virt.ops_per_s", rep.virt.ops_per_s);
    out.insert("virt.mean_ms", rep.virt.mean_ms);
    out.insert("virt.p99_ms", rep.virt.p99_ms);
    out.insert("virt.samples", rep.virt.samples as f64);
}

/// The `S` rows: virtual self time per span family of the traced rep.
fn span_metrics(traced: &Rep, out: &mut BTreeMap<&'static str, f64>) {
    let Some(spans) = &traced.spans else { return };
    let self_ms = |family: &str| spans.family(family).self_ns as f64 / 1e6;
    out.insert("span.op_ms", self_ms("op"));
    out.insert("span.lock_ms", self_ms("lock"));
    out.insert("span.cache_ms", self_ms("cache"));
    out.insert("span.flush_ms", self_ms("flush"));
    out.insert("span.layout_ms", self_ms("layout"));
    out.insert("span.io_ms", self_ms("io"));
    // Defined where the report carries the latencies the op spans claim
    // to cover: the root span *is* the client entry and exit.
    out.insert(
        "span.coverage",
        ratio(spans.family("op").total_ns as f64 / 1e6, traced.op_latency_ms_sum),
    );
    out.insert("obs.events_per_unit", ratio(spans.events as f64, traced.units as f64));
}

fn metrics_json(metrics: &[(&'static str, &'static str, f64)]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, unit, v)| {
            // `{v}`: every digit as measured.
            format!("\"{name}\":{{\"value\":{v},\"unit\":\"{unit}\"}}")
        })
        .collect();
    format!("{{{}}}", body.join(","))
}

/// Runs the named workload and prints: a table of every metric with its
/// unit, one record line (the table plus host fingerprint, for
/// `compare`), and last the result line the benchmark contract names.
/// Returns the process exit code: non-zero when a check failed.
pub fn run(args: &RunArgs) -> i32 {
    let Some(spec) = WORKLOADS.iter().find(|w| w.name == args.workload) else {
        let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        eprintln!("unknown workload {:?} (one of {})", args.workload, names.join(", "));
        return 2;
    };
    let w = (spec.make)(args.seed);

    // Set-up: everything before the first timed rep.
    let gens: Vec<f64> = (0..SETUP_GENS)
        .map(|_| {
            let t0 = Instant::now();
            black_box(w.generate_inputs());
            t0.elapsed().as_secs_f64()
        })
        .collect();
    let (warm, warm_s) = timed_rep(w.as_ref(), false);
    let setup_s = median(&gens) + warm_s;
    let mut reps = Reps {
        first: warm,
        secs: Vec::new(),
        units_done: 0,
        attempted: 0,
        failed: 0,
        det_mismatch: 0,
    };

    let (a0, b0) = alloc::counters();
    let cpu0 = host::cpu_seconds();
    let wall0 = Instant::now();
    let untraced_reps = if args.traced { TRACED_REFERENCE_REPS } else { MIN_REPS };
    while reps.secs.len() < untraced_reps
        || (!args.traced && wall0.elapsed().as_secs_f64() < args.seconds)
    {
        let (rep, secs) = timed_rep(w.as_ref(), false);
        reps.push(&rep, Some(secs));
    }
    let wall = wall0.elapsed().as_secs_f64();
    let (a1, b1) = alloc::counters();
    let (allocs, alloc_bytes) = (a1 - a0, b1 - b0);
    // The high-water mark of the untraced reps: read before the tracer
    // and the probes add their own memory.
    let peak_rss_mib = host::peak_rss_mib().unwrap_or(0.0);
    let cpu_frac = match (cpu0, host::cpu_seconds()) {
        (Some(c0), Some(c1)) => ratio(c1 - c0, wall),
        _ => 0.0,
    };
    // Every rep does identical work and a shared host only ever adds
    // time, so the fastest timed rep is the estimate of the undisturbed
    // cost; the median would report the neighbours' load. The spread
    // between reps is kept as `host.rep_spread` and the `noisy` flag.
    let rep_s = reps.secs.iter().copied().fold(f64::INFINITY, f64::min);
    let rep_spread = rel_spread(&reps.secs);
    let units = reps.first.units;
    let units_done = reps.units_done;
    let mut checks: Vec<String> = Vec::new();

    let metrics: Vec<(&'static str, &'static str, f64)> = if !args.traced {
        let value = |name: &str| match name {
            "setup_s" => setup_s,
            "work_per_host_s" => ratio(units as f64, rep_s),
            "allocs_per_unit" => ratio(allocs as f64, units_done as f64),
            other => unreachable!("end-to-end metric {other} has no measurement"),
        };
        END_TO_END.iter().map(|e| (e.name, e.unit, value(e.name))).collect()
    } else {
        let (traced, traced_s) = timed_rep(w.as_ref(), true);
        reps.push(&traced, None);
        let mut out: BTreeMap<&'static str, f64> = BTreeMap::new();
        count_metrics(&reps.first, &mut out);
        span_metrics(&traced, &mut out);
        if let Some(&cov) = out.get("span.coverage") {
            if cov > 0.0 && cov < MIN_SPAN_COVERAGE {
                checks.push(format!("op spans cover only {cov:.3} of op virtual latency"));
            }
        }
        out.insert("obs.trace_overhead", ratio(traced_s, rep_s));
        let t0 = Instant::now();
        if let Some(twin) = w.engine_twin() {
            let twin_secs = t0.elapsed().as_secs_f64();
            // Host: one wire rep against the same scenario straight on
            // the engine. Virtual: trace ops per virtual second, engine
            // over wire.
            let serve = &reps.first;
            let wire_trace_ops_per_s =
                serve.virt.ops_per_s * ratio(serve.trace_ops as f64, serve.units as f64);
            out.insert("pfs.wire_tax_host", ratio(rep_s, twin_secs));
            out.insert("pfs.wire_tax_virt", ratio(twin.virt.ops_per_s, wire_trace_ops_per_s));
        }
        out.insert("host.cpu_frac", cpu_frac);
        out.insert("host.rep_spread", rep_spread);
        out.insert("host.alloc_bytes_per_unit", ratio(alloc_bytes as f64, units_done as f64));
        out.insert("host.peak_rss_mib", peak_rss_mib);
        for (name, v) in probes::run_all(args.seed) {
            out.insert(name, v);
        }
        PER_LAYER
            .iter()
            .map(|p| (p.name, p.unit, out.get(p.name).copied().unwrap_or(0.0)))
            .collect()
    };

    let Reps { attempted, failed, det_mismatch, .. } = reps;
    if failed > 0 {
        checks.push(format!("{failed} of {attempted} operations failed"));
    }
    if det_mismatch > 0 {
        checks.push(format!("{det_mismatch} reps differ from rep 1 in their virtual report"));
    }
    let correct = checks.is_empty();
    let noisy = cpu_frac < MIN_CPU_FRAC || rep_spread > MAX_REP_SPREAD;

    // The table: every metric by name, with its unit.
    println!(
        "# {} seed {} | {units} {} per rep | {} timed reps, spread {rep_spread:.3}, cpu \
         {cpu_frac:.2}{} | model unvalidated against the paper's figures: no error figure is given",
        spec.name,
        args.seed,
        spec.unit,
        reps.secs.len(),
        if noisy { " | NOISY: something else had the CPU, host figures are suspect" } else { "" },
    );
    let virt = reps.first.virt;
    if virt.samples > 0 {
        let supported = highest_supported_percentile(virt.samples)
            .map_or("none".to_string(), |p| format!("p{}", p * 100.0));
        println!(
            "# virtual latency: {} samples; highest percentile with >= 10 samples beyond it: \
             {supported}",
            virt.samples
        );
    }
    for (name, unit, v) in &metrics {
        println!("{name:<34} {v:>18.6} {unit}");
    }
    for c in &checks {
        eprintln!("CHECK FAILED: {c}");
    }

    let metrics_json = metrics_json(&metrics);
    let rep_s_json: Vec<String> = reps.secs.iter().map(f64::to_string).collect();
    println!(
        "{{\"workload\":\"{}\",\"seed\":{},\"traced\":{},\"unit\":\"{}\",\"units\":{units},\
         \"rep_s\":[{}],\"run_seconds\":{},\"correct\":{correct},\"attempted\":{attempted},\
         \"failed\":{failed},\"det_mismatch\":{det_mismatch},\"noisy\":{noisy},\
         \"model\":\"unvalidated\",\"host\":{},\"metrics\":{metrics_json}}}",
        json::escape(spec.name),
        args.seed,
        args.traced,
        spec.unit,
        rep_s_json.join(","),
        args.seconds,
        host::fingerprint_json(),
    );
    println!(
        "{{\"correct\":{correct},\"attempted\":{attempted},\"failed\":{failed},\
         \"metrics\":{metrics_json}}}"
    );
    i32::from(!correct)
}
