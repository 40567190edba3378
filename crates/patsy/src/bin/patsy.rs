//! Patsy command-line interface: regenerates the paper's figures and
//! ablations on the off-line simulator.
//!
//! ```text
//! patsy fig2|fig3|fig4|fig5            # the paper's evaluation figures
//! patsy ablate-diskmodel|ablate-flushmode|ablate-iosched|
//!       ablate-diskcache|ablate-nvram|ablate-cleaner
//! patsy run --trace 1a --policy ups    # one experiment, full detail
//! patsy sweep-qd --trace 1a            # I/O schedulers x queue depths
//! patsy sweep-qd --disk ssd            # same sweep, flash generation
//! patsy sweep-qd --disks 4 --chunk-kib 64   # RAID-0 across 4 spindles
//! patsy sweep-clients --workload zipf --clients 1,4,16 --qd 8
//! patsy serve-bench --clients 256 --qd 8     # NFS clients through the
//!                                            # full wire path
//! patsy crash --trace 1a --cuts 16 --seed 42   # crash-recovery sweep
//! patsy check --trace 1a --qd 8 --budget 500   # exhaustive crash-point
//!                                              # enumeration + history leg
//! patsy check --repro cnpc1:...                # replay one failing cell
//! patsy check --threads 8 --cache-file cells.bin  # parallel + incremental
//! patsy run --trace 1a --trace-out prof.json   # Chrome trace of virtual time
//! patsy bench-snapshot --label pr7             # canonical perf cells ->
//!                                              # BENCH_trajectory.json
//! options: --scale 0.05 --seed 365 --cuts 16 --layout lfs|ffs --qd 1
//! ```

use cnp_patsy::check::{
    check_cli, default_threads as check_default_threads, repro_cli, CheckCliConfig,
};
use cnp_patsy::cli::{parse_cli, usage};
use cnp_patsy::{ablate, bench, clients, crash, figures, serve, Policy};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() {
        eprintln!("{}", usage());
        return;
    }
    let a = match parse_cli(&args) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}");
            eprintln!("{}", usage());
            std::process::exit(2);
        }
    };
    match a.cmd.as_str() {
        "fig2" => figures::figure_cdf("1a", a.scale, a.seed, a.qd),
        "fig3" => figures::figure_cdf("1b", a.scale, a.seed, a.qd),
        "fig4" => figures::figure_cdf("5", a.scale, a.seed, a.qd),
        "fig5" => figures::figure5(a.scale, a.seed),
        "sweep-qd" => {
            cnp_patsy::qdsweep::sweep_queue_depth(&a.trace, a.scale, a.seed, a.json, &a.hw);
        }
        "sweep-clients" => {
            // Client cells are numerous and closed-loop; the default
            // full-figure scale would run minutes per cell. The sweep
            // defaults to qd 8 — the depth where client count separates
            // the schedulers — while everything else keeps lock-step 1.
            let scale = if a.scale_set { a.scale } else { 0.02 };
            let qd = if a.qd_set { a.qd } else { 8 };
            let workload = cnp_workload::WorkloadKind::parse(&a.workload)
                .expect("workload name validated by parse_cli");
            clients::sweep_clients_cli(
                workload,
                &a.clients,
                a.seed,
                scale,
                qd,
                a.layout.as_deref(),
                a.policy_set.then_some(a.policy.as_str()),
                a.shards,
                a.json,
            );
        }
        "serve-bench" => {
            // Same sizing logic as sweep-clients: wire cells are
            // closed-loop and numerous, so they default to the sweep's
            // small scale and its depth-8 pipeline.
            let scale = if a.scale_set { a.scale } else { 0.02 };
            let qd = if a.qd_set { a.qd } else { 8 };
            let workload = cnp_workload::WorkloadKind::parse(&a.workload)
                .expect("workload name validated by parse_cli");
            serve::serve_bench_cli(
                workload,
                &a.clients,
                a.seed,
                scale,
                qd,
                a.layout.as_deref(),
                a.policy_set.then_some(a.policy.as_str()),
                a.shards,
                a.rsize,
                a.json,
            );
        }
        "ablate-diskmodel" => ablate::ablate_diskmodel(a.scale, a.seed),
        "ablate-flushmode" => ablate::ablate_flushmode(a.scale, a.seed),
        "ablate-iosched" => ablate::ablate_iosched(a.scale, a.seed),
        "ablate-diskcache" => ablate::ablate_diskcache(a.scale, a.seed),
        "ablate-nvram" => ablate::ablate_nvram(a.scale, a.seed),
        "ablate-cleaner" => ablate::ablate_cleaner(a.scale, a.seed),
        "run" => {
            let p = Policy::parse(&a.policy).unwrap_or_else(|| {
                eprintln!(
                    "unknown policy {} (write-delay|ups|nvram-whole|nvram-partial)",
                    a.policy
                );
                std::process::exit(2);
            });
            figures::run_one(
                &a.trace,
                p,
                a.scale,
                a.seed,
                a.qd,
                a.layout.as_deref(),
                a.trace_out.as_deref(),
                &a.hw,
            );
        }
        "crash" => {
            // Crash cells are numerous (layouts × policies × cuts); a
            // smaller default workload keeps the sweep snappy.
            let crash_scale = if a.scale_set { a.scale } else { 0.002 };
            let policy_filter = a.policy_set.then_some(a.policy.as_str());
            crash::crash_cli(
                &a.trace,
                a.cuts,
                a.seed,
                crash_scale,
                a.layout.as_deref(),
                policy_filter,
                a.qd,
                a.json,
            );
        }
        "bench-snapshot" => {
            std::process::exit(bench::bench_snapshot_cli(
                a.out.as_deref(),
                a.label.as_deref(),
                a.baseline.as_deref(),
            ));
        }
        "check" => {
            if let Some(blob) = &a.repro {
                std::process::exit(repro_cli(blob));
            }
            // Enumeration replays O(budget²) prefix ops per cell: the
            // crash sweep's small default workload keeps it exhaustive
            // *and* tractable.
            let check_scale = if a.scale_set { a.scale } else { 0.002 };
            let workload = cnp_workload::WorkloadKind::parse(&a.workload)
                .expect("workload name validated by parse_cli");
            let cfg = CheckCliConfig {
                trace: a.trace.clone(),
                budget: a.budget,
                seed: a.seed,
                scale: check_scale,
                layout: a.layout.clone(),
                policy: a.policy_set.then(|| a.policy.clone()),
                queue_depth: a.qd,
                workload,
                clients: if a.clients_set { a.clients[0] } else { 4 },
                repro_out: a.repro_out.clone(),
                json: a.json,
                threads: a.threads.map(|t| t as usize).unwrap_or_else(check_default_threads),
                cache_file: a.cache_file.clone(),
            };
            std::process::exit(check_cli(&cfg));
        }
        other => {
            eprintln!("unknown subcommand {other}");
            eprintln!("{}", usage());
            std::process::exit(2);
        }
    }
}
