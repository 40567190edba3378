//! Patsy command-line interface: regenerates the paper's figures and
//! ablations on the off-line simulator. Each of those is an entry of
//! one table, `cnp_patsy::rigs::RIGS`, and prints its rows and then a
//! verdict line per claim judged on them.
//!
//! ```text
//! patsy fig2|fig3|fig4|fig5            # the paper's evaluation figures
//! patsy ablate-diskmodel|ablate-diskcache|ablate-nvram|ablate-cleaner
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

use cnp_patsy::check::{check_cli, repro_cli};
use cnp_patsy::cli::{parse_cli, usage};
use cnp_patsy::rigs::Rig;
use cnp_patsy::{clients, crash, experiment, qdsweep, serve};

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
        "sweep-qd" => qdsweep::sweep_queue_depth(&a),
        "sweep-clients" => clients::sweep_clients_cli(&a),
        "serve-bench" => serve::serve_bench_cli(&a),
        "run" => experiment::run_one(&a),
        "crash" => std::process::exit(crash::crash_cli(&a)),
        "check" => std::process::exit(match &a.repro {
            Some(blob) => repro_cli(blob),
            None => check_cli(&a),
        }),
        rig => {
            let rig =
                Rig::by_name(rig).expect("parse_cli admits only the subcommands dispatched here");
            // A figure or ablation runs at scale 0.05 and queue depth 1 unless asked.
            let (scale, qd) = (a.scale.unwrap_or(0.05), a.qd.unwrap_or(1));
            print!("{}", rig.report(scale, a.seed, qd, &rig.run(scale, a.seed, qd, a.threads())));
        }
    }
}
