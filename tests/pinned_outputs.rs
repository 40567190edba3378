//! The refactoring contract as a test: one small seeded report per
//! rig, pinned by its FNV-1a 128 hash. Every seeded output of this
//! workspace is a pure function of its inputs, so a change to the rig
//! layer (how a stack is run, how clients are driven, how reports are
//! serialized) that keeps these hashes kept the bytes. A hash that
//! moves is a behaviour change: find out why before re-pinning it.

use cut_and_paste::check::cache::InputHash;
use cut_and_paste::disk::Hardware;
use cut_and_paste::fault::LayoutKind;
use cut_and_paste::obs::chrome::to_chrome_json;
use cut_and_paste::obs::trace::{install, Tracer};
use cut_and_paste::patsy::{self, ExperimentConfig, Policy};
use cut_and_paste::trace::trace_1a;
use cut_and_paste::workload::WorkloadKind;

#[track_caller]
fn assert_pinned(what: &str, bytes: &str, want: u128) {
    let mut hash = InputHash::new();
    hash.update(bytes.as_bytes());
    let head: Vec<&str> = bytes.lines().take(40).collect();
    assert_eq!(
        hash.digest(),
        want,
        "FNV-1a 128 of {what} is {:#034x}; it begins:\n{}",
        hash.digest(),
        head.join("\n")
    );
}

fn experiment(queue_depth: u32) -> ExperimentConfig {
    let mut cfg = ExperimentConfig::new(Policy::Ups, trace_1a());
    cfg.scale = 0.01;
    cfg.seed = 42;
    cfg.queue_depth = queue_depth;
    cfg
}

#[test]
fn run_experiment_metrics_are_pinned_at_qd1_and_qd8() {
    for (qd, want) in
        [(1, 0x22c18e9c8c9a196ebd70cde2bbb3ca86_u128), (8, 0x0b165cf9cdd396052875eaef84f789d7)]
    {
        let r = patsy::run_experiment(&experiment(qd));
        assert_eq!(r.report.errors, 0);
        assert_pinned(&format!("the qd {qd} metrics"), &r.metrics.to_json(0), want);
    }
}

/// The configuration with the most stalls, loads and read-modify-writes:
/// every NVRAM stall flushes one block, and FFS writes it in place.
#[test]
fn nvram_partial_on_ffs_metrics_are_pinned_at_qd1() {
    let mut cfg = experiment(1);
    cfg.policy = Policy::NvramPartial;
    cfg.layout = LayoutKind::Ffs;
    let r = patsy::run_experiment(&cfg);
    assert_eq!(r.report.errors, 0);
    assert_pinned(
        "the qd 1 nvram-partial FFS metrics",
        &r.metrics.to_json(0),
        0xd8cbd01f5e4f28a8026ccf52d28bf53f,
    );
}

fn chrome_trace(cfg: &ExperimentConfig) -> String {
    let tracer = Tracer::default();
    let guard = install(&tracer);
    patsy::run_experiment(cfg);
    drop(guard);
    to_chrome_json(&tracer)
}

fn traced_experiment(queue_depth: u32) -> ExperimentConfig {
    ExperimentConfig { scale: 0.002, ..experiment(queue_depth) }
}

#[test]
fn traced_run_chrome_json_is_pinned() {
    let json = chrome_trace(&traced_experiment(8));
    assert_pinned("the Chrome trace", &json, 0x997ffb451b2b6439718cdb8c2035d00e);
}

/// At depth 1 the engine's window is one block wide and the driver keeps
/// one command at the device; the layout still sends a multi-request
/// write or read as one batch, which then waits in the driver queue. The
/// second run has a cache the working set does not fit, so its trace
/// holds what the first has none of: misses, loads, and the flush stalls
/// inside them.
#[test]
fn traced_run_chrome_json_is_pinned_at_qd1() {
    let json = chrome_trace(&traced_experiment(1));
    assert_pinned("the qd 1 Chrome trace", &json, 0xb23516aa40fff127bd85c577ca505842);
    let small_cache = ExperimentConfig {
        policy: Policy::NvramPartial,
        layout: LayoutKind::Ffs,
        mem_bytes: 512 * 1024,
        nvram_bytes: 64 * 1024,
        ..traced_experiment(1)
    };
    let json = chrome_trace(&small_cache);
    for name in ["cache:miss", "cache:load", "flush:wait"] {
        assert!(json.contains(name), "no {name} in the small-cache trace");
    }
    assert_pinned("the qd 1 small-cache Chrome trace", &json, 0x1896eab028286e02a64ac8de8ad4afa4);
}

#[test]
fn qd_sweep_json_is_pinned_on_three_hardware_configurations() {
    use patsy::qdsweep::{format_qd_sweep_json, run_qd_sweep};
    let ssd = Hardware { disk: "ssd", ..Hardware::default() };
    let stripe = Hardware { disks: 4, ..Hardware::default() };
    for (hw, want) in [
        (Hardware::default(), 0x8f297ec015a9efb8dc26037387664f75_u128),
        (ssd, 0xba59f13258f44038bb9fc61f5ef41b81),
        (stripe, 0x4fd7f1f6a384f98c5e692765e17e3c82),
    ] {
        for threads in [1, 4] {
            let rows = run_qd_sweep("1a", 0.005, 365, &hw, threads);
            let json = format_qd_sweep_json("1a", 0.005, 365, 0, &rows, &hw);
            assert_pinned(&format!("the sweep on {}", hw.label()), &json, want);
        }
    }
}

#[test]
fn client_sweep_json_is_pinned() {
    let cfg = patsy::ClientSweepConfig::new(WorkloadKind::Zipf, vec![8], 42, 0.002);
    for threads in [1, 4] {
        let cells = patsy::run_client_sweep(&cfg, threads);
        assert_pinned(
            "the 8-client cell",
            &patsy::format_client_sweep_json(&cfg, &cells),
            0x456fb93021d69125604bffa03a97b6b9,
        );
    }
}

#[test]
fn serve_bench_json_is_pinned() {
    let cfg = patsy::ServeBenchConfig::new(WorkloadKind::Zipf, vec![8], 42, 0.002);
    for threads in [1, 4] {
        let cells = patsy::run_serve_bench(&cfg, threads);
        assert_pinned(
            "the 8-client wire cell",
            &patsy::format_serve_bench_json(&cfg, &cells),
            0xdaa37ba6988d145a5ccdddd477cabd34,
        );
    }
}

#[test]
fn crash_sweep_json_is_pinned() {
    let mut cfg = patsy::CrashConfig::new(trace_1a(), 2, 42, 0.002);
    cfg.layouts = vec![LayoutKind::Lfs];
    cfg.policies = vec![Policy::Ups, Policy::NvramWhole];
    for threads in [1, 4] {
        let cells = patsy::run_crash_sweep(&cfg, threads);
        assert_pinned(
            "the 2-cut sweep",
            &patsy::format_crash_sweep_json(&cfg, &cells),
            0x8d0031264ce4eab70ce3d5c41ca61f56,
        );
    }
}

#[test]
fn check_json_is_pinned_at_budget_12() {
    assert_pinned("the budget-12 check", &check_json(12), 0x3e1cdb803fd3a751cec818f8f6259542);
}

/// `patsy check --trace 1a --budget <budget> --seed 42 --qd 8 --json`
/// without the process: enumeration, history leg, JSON summary.
fn check_json(budget: usize) -> String {
    use cut_and_paste::check::{
        run_check_with, run_history_check, CheckConfig, CheckOptions, HistoryCheckConfig, LinConfig,
    };
    use cut_and_paste::trace::SyntheticSprite;
    let records = SyntheticSprite::new(trace_1a(), 42 ^ 0xabcd).generate(0.002);
    let mut check = CheckConfig::new(records, "1a", budget);
    check.queue_depth = 8;
    check.seed = 42;
    let report = run_check_with(&check, CheckOptions::default());
    let lin_cfg = HistoryCheckConfig {
        kind: WorkloadKind::Zipf,
        clients: 4,
        seed: 42,
        scale: 0.002,
        layout: LayoutKind::Lfs,
        queue_depth: 8,
        lin: LinConfig::default(),
    };
    let lin = run_history_check(&lin_cfg);
    patsy::check::format_check_json(&check, &report, &lin_cfg, &lin)
}
