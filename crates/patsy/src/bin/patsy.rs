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
//!                                  # (a cache file is valid for one build only)
//! patsy fig5 --threads 4           # every multi-cell subcommand fans its
//!                                  # cells out; no output byte depends on it
//! patsy run --trace 1a --trace-out prof.json   # Chrome trace of virtual time
//! options: --scale 0.05 --seed 365 --cuts 16 --layout lfs|ffs --qd 1
//! ```

use cnp_patsy::ablate::Ablation;
use cnp_patsy::check::{check_cli, repro_cli};
use cnp_patsy::cli::{parse_cli, usage};
use cnp_patsy::{clients, crash, figures, qdsweep, serve};

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
    let figure_cdf = |trace: &str| {
        let rows = figures::run_figure_cdf(trace, a.scale, a.seed, a.qd, a.threads());
        print!("{}", figures::format_figure_cdf(trace, a.scale, a.seed, a.qd, &rows));
    };
    match a.cmd.as_str() {
        "fig2" => figure_cdf("1a"),
        "fig3" => figure_cdf("1b"),
        "fig4" => figure_cdf("5"),
        "fig5" => {
            let rows = figures::run_figure5(a.scale, a.seed, a.threads());
            print!("{}", figures::format_figure5(a.scale, a.seed, &rows));
        }
        "sweep-qd" => qdsweep::sweep_queue_depth(&a),
        "sweep-clients" => clients::sweep_clients_cli(&a),
        "serve-bench" => serve::serve_bench_cli(&a),
        "run" => figures::run_one(&a),
        "crash" => crash::crash_cli(&a),
        "check" => std::process::exit(match &a.repro {
            Some(blob) => repro_cli(blob),
            None => check_cli(&a),
        }),
        other => {
            let ablation = other
                .strip_prefix("ablate-")
                .and_then(Ablation::by_name)
                .expect("parse_cli admits only the subcommands dispatched here");
            print!("{}", ablation.format(&ablation.run(a.scale, a.seed, a.threads())));
        }
    }
}
