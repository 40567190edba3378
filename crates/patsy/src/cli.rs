//! Command-line parsing and validation for the `patsy` binary.
//!
//! Lives in the library so every rejected value is unit-testable: the
//! binary used to accept nonsensical flags silently (`--scale 0`
//! generated an empty workload, `--qd 0` a stalled pipeline) and report
//! misleading results; now each flag is range-checked and rejected with
//! a usage message — as is a flag the subcommand never reads
//! ([`SUBCOMMANDS`]), which used to print a default-configuration
//! report without a word.

use cnp_disk::Hardware;
use cnp_fault::{LayoutKind, Policy};
use cnp_workload::WorkloadKind;

/// Parsed and validated command line.
#[derive(Debug, Clone, PartialEq)]
pub struct CliArgs {
    /// Subcommand (first positional argument).
    pub cmd: String,
    /// `--scale` when given (fraction of the nominal workload;
    /// 0 < scale ≤ 10); each subcommand states its own default.
    pub scale: Option<f64>,
    /// `--seed`.
    pub seed: u64,
    /// `--trace` preset name.
    pub trace: String,
    /// `--policy` when given (`run` defaults to `ups`; the sweeps to
    /// their own default or to all four).
    pub policy: Option<Policy>,
    /// `--cuts` (crash sweep; ≥ 1).
    pub cuts: u32,
    /// `--layout` (lfs|ffs) when given.
    pub layout: Option<LayoutKind>,
    /// `--qd` queue depth when given (≥ 1).
    pub qd: Option<u32>,
    /// `--clients` counts when given (comma-separated; each ≥ 1).
    pub clients: Option<Vec<u32>>,
    /// `--workload` scenario family (sweep-clients, serve-bench, check).
    pub workload: WorkloadKind,
    /// `--budget` bounded-prefix length for `check` (≥ 1).
    pub budget: u32,
    /// `--repro` blob for `check` (re-runs one cell instead of the
    /// enumeration).
    pub repro: Option<String>,
    /// `--repro-out` path: `check` writes failing repro blobs here (CI
    /// uploads them as artifacts).
    pub repro_out: Option<String>,
    /// `--shards` lock/table stripe count (1 ≤ shards ≤ 4096); `None`
    /// derives it from the cell's client count.
    pub shards: Option<u32>,
    /// `--threads` host threads the subcommand's cells fan out across
    /// (1 ≤ threads ≤ 512); see [`CliArgs::threads`] for the default.
    pub threads: Option<u32>,
    /// `--cache-file` path: `check` consults and rewrites the
    /// incremental cell-outcome cache here. A cell is keyed by its
    /// inputs, not by the code that judged it: the file is valid for
    /// one build only.
    pub cache_file: Option<String>,
    /// `--json`: machine-readable report instead of the table.
    pub json: bool,
    /// `--trace-out` path: `run` writes a Chrome trace_event JSON file
    /// of the virtual-time span tree here (load in Perfetto).
    pub trace_out: Option<String>,
    /// `--rsize` largest single wire transfer for `serve-bench`
    /// (4096 ≤ rsize ≤ 1 MiB — NFS rsize/wsize).
    pub rsize: u64,
    /// `--disk` hardware generation (`hp97560`|`ssd`), `--disks` RAID-0
    /// stripe width (1 ≤ disks ≤ 64; 1 = single disk) and `--chunk-kib`
    /// RAID-0 chunk size (multiple of 4 KiB, ≤ 1024).
    pub hw: Hardware,
}

impl Default for CliArgs {
    fn default() -> Self {
        CliArgs {
            cmd: String::new(),
            scale: None,
            seed: 365,
            trace: "1a".to_string(),
            policy: None,
            cuts: 16,
            layout: None,
            qd: None,
            clients: None,
            workload: WorkloadKind::Zipf,
            budget: 200,
            repro: None,
            repro_out: None,
            shards: None,
            threads: None,
            cache_file: None,
            json: false,
            trace_out: None,
            rsize: 64 * 1024,
            hw: Hardware::default(),
        }
    }
}

impl CliArgs {
    /// Host threads for the subcommand's cells: `--threads`, or the
    /// host's available parallelism, capped — each worker owns a full
    /// simulation stack, so oversubscribing cores only adds scheduler
    /// noise. No report byte depends on it.
    pub fn threads(&self) -> usize {
        self.threads.map_or_else(
            || std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1).min(64),
            |t| t as usize,
        )
    }
}

/// Every subcommand (grouped where the flags agree) with the flags it
/// reads: the lines [`usage`] prints, and the table [`parse_cli`] checks
/// — a flag outside a subcommand's row is a usage error.
pub const SUBCOMMANDS: [(&str, &str); 8] = [
    ("fig2|fig3|fig4", "[--scale F] [--seed N] [--qd N] [--threads N]"),
    (
        "fig5|ablate-diskmodel|ablate-diskcache|ablate-nvram|ablate-cleaner",
        "[--scale F] [--seed N] [--threads N]",
    ),
    (
        "run",
        "[--trace 1a|1b|2a|2b|5] [--policy write-delay|ups|nvram-whole|nvram-partial] \
         [--layout lfs|ffs] [--scale F] [--seed N] [--qd N] [--disk hp97560|ssd] [--disks N] \
         [--chunk-kib N] [--trace-out <prof.json>]",
    ),
    (
        "sweep-qd",
        "[--trace 1a|1b|2a|2b|5] [--scale F] [--seed N] [--disk hp97560|ssd] [--disks N] \
         [--chunk-kib N] [--json] [--threads N]",
    ),
    (
        "sweep-clients",
        "[--workload zipf|mail|build|scan|web] [--clients N,M,...] \
         [--policy write-delay|ups|nvram-whole|nvram-partial] [--layout lfs|ffs] [--scale F] \
         [--seed N] [--qd N] [--shards N] [--json] [--threads N]",
    ),
    (
        "serve-bench",
        "[--workload zipf|mail|build|scan|web] [--clients N,M,...] \
         [--policy write-delay|ups|nvram-whole|nvram-partial] [--layout lfs|ffs] [--scale F] \
         [--seed N] [--qd N] [--shards N] [--rsize BYTES] [--json] [--threads N]",
    ),
    (
        "crash",
        "[--trace 1a|1b|2a|2b|5] [--cuts N] [--policy write-delay|ups|nvram-whole|nvram-partial] \
         [--layout lfs|ffs] [--scale F] [--seed N] [--qd N] [--json] [--threads N]",
    ),
    (
        "check",
        "[--trace 1a|1b|2a|2b|5] [--budget N] \
         [--policy write-delay|ups|nvram-whole|nvram-partial] [--layout lfs|ffs] [--scale F] \
         [--seed N] [--qd N] [--workload zipf|mail|build|scan|web] [--clients N,M,...] [--json] \
         [--threads N] [--cache-file <path; valid for one build only>] [--repro <blob>] \
         [--repro-out <path>]",
    ),
];

/// The flag names in a [`SUBCOMMANDS`] row's flag list.
fn flags_of(row: &str) -> impl Iterator<Item = &str> {
    row.split('[').skip(1).map(|f| f.split([' ', ']']).next().expect("split yields an item"))
}

/// Parses `raw` as the number `flag` takes.
fn number<T: std::str::FromStr>(flag: &str, raw: &str) -> Result<T, String> {
    raw.parse().map_err(|_| format!("bad {flag} {raw:?}"))
}

/// Takes `raw` as the (non-empty) path `flag` names.
fn path(flag: &str, raw: &str) -> Result<String, String> {
    if raw.is_empty() {
        return Err(format!("bad {flag}: empty path"));
    }
    Ok(raw.to_string())
}

/// Parses `args` (subcommand first, no program name). Returns a usage
/// error naming the offending flag and the accepted range.
pub fn parse_cli(args: &[String]) -> Result<CliArgs, String> {
    let mut out = CliArgs::default();
    let mut rest = args.iter();
    let Some(cmd) = rest.next() else {
        return Err("missing subcommand".to_string());
    };
    out.cmd = cmd.clone();
    let Some((_, reads)) = SUBCOMMANDS.iter().find(|(names, _)| names.split('|').any(|n| n == cmd))
    else {
        return Err(format!("unknown subcommand {cmd}"));
    };
    while let Some(flag) = rest.next() {
        let flag = flag.as_str();
        if !flags_of(reads).any(|f| f == flag) {
            return Err(if SUBCOMMANDS.iter().any(|(_, row)| flags_of(row).any(|f| f == flag)) {
                format!("{cmd} does not read {flag}")
            } else {
                format!("unknown option {flag}")
            });
        }
        let mut value = || rest.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag {
            "--scale" => {
                let v: f64 = number(flag, value()?).map_err(|e| e + ": not a number")?;
                if !v.is_finite() || v <= 0.0 || v > 10.0 {
                    return Err(format!(
                        "bad --scale {v}: must satisfy 0 < scale <= 10 (fraction of the nominal workload)"
                    ));
                }
                out.scale = Some(v);
            }
            "--seed" => out.seed = number(flag, value()?).map_err(|e| e + ": not a u64")?,
            "--budget" => {
                out.budget = number(flag, value()?)?;
                if out.budget == 0 {
                    return Err(
                        "bad --budget 0: the bounded prefix needs at least one op".to_string()
                    );
                }
            }
            "--repro" => out.repro = Some(value()?.clone()),
            "--repro-out" => out.repro_out = Some(value()?.clone()),
            "--cuts" => {
                out.cuts = number(flag, value()?)?;
                if out.cuts == 0 {
                    return Err("bad --cuts 0: a crash sweep needs at least one cut".to_string());
                }
            }
            "--qd" => {
                let v = number(flag, value()?)?;
                if v == 0 {
                    return Err(
                        "bad --qd 0: queue depth must be >= 1 (1 = one command at the device)"
                            .to_string(),
                    );
                }
                out.qd = Some(v);
            }
            "--clients" => {
                let raw = value()?;
                let mut clients = Vec::new();
                for part in raw.split(',') {
                    let n: u32 = part
                        .trim()
                        .parse()
                        .map_err(|_| format!("bad --clients {raw:?}: expected N or N,M,…"))?;
                    if n == 0 {
                        return Err(
                            "bad --clients 0: every cell needs at least one client".to_string()
                        );
                    }
                    if n > 4096 {
                        return Err(format!(
                            "bad --clients {n}: at most 4096 clients per cell (the engine \
                             shards by client namespace; beyond that the sweep measures \
                             the host, not the file system)"
                        ));
                    }
                    clients.push(n);
                }
                out.clients = Some(clients);
            }
            "--shards" => {
                let v: u32 = number(flag, value()?)?;
                if v == 0 {
                    return Err("bad --shards 0: the engine needs at least one shard".to_string());
                }
                if v > 4096 {
                    return Err(format!("bad --shards {v}: at most 4096 stripes"));
                }
                out.shards = Some(v);
            }
            "--threads" => {
                let v: u32 = number(flag, value()?)?;
                if v == 0 {
                    return Err("bad --threads 0: the cells need at least one worker".to_string());
                }
                if v > 512 {
                    return Err(format!(
                        "bad --threads {v}: at most 512 workers (each owns a full sim \
                         stack; beyond that the fan-out measures the scheduler, not \
                         the cells)"
                    ));
                }
                out.threads = Some(v);
            }
            "--cache-file" => out.cache_file = Some(path(flag, value()?)?),
            "--trace-out" => out.trace_out = Some(path(flag, value()?)?),
            "--json" => out.json = true,
            "--workload" => {
                let w = value()?;
                out.workload = WorkloadKind::parse(w)
                    .ok_or_else(|| format!("bad --workload {w:?} (zipf|mail|build|scan|web)"))?;
            }
            "--trace" => {
                let t = value()?;
                if cnp_trace::preset(t).is_none() {
                    return Err(format!("bad --trace {t:?} (1a|1b|2a|2b|5)"));
                }
                out.trace = t.clone();
            }
            "--policy" => {
                let p = value()?;
                out.policy = Some(Policy::parse(p).ok_or_else(|| {
                    format!("unknown policy {p} (write-delay|ups|nvram-whole|nvram-partial)")
                })?);
            }
            "--layout" => {
                let l = value()?;
                out.layout = Some(
                    LayoutKind::parse(l).ok_or_else(|| format!("unknown layout {l} (lfs|ffs)"))?,
                );
            }
            "--rsize" => {
                out.rsize = number(flag, value()?)?;
                if !(4096..=(1 << 20)).contains(&out.rsize) {
                    return Err(format!(
                        "bad --rsize {}: must satisfy 4096 <= rsize <= 1048576 (one NFS \
                         transfer; below a block it only measures chunking overhead, \
                         beyond 1 MiB it stops being a transfer cap)",
                        out.rsize
                    ));
                }
            }
            "--disk" => {
                out.hw.disk = match value()?.as_str() {
                    "hp97560" => "hp97560",
                    "ssd" => "ssd",
                    d => return Err(format!("bad --disk {d:?} (hp97560|ssd)")),
                };
            }
            "--disks" => {
                out.hw.disks = number(flag, value()?)?;
                if out.hw.disks == 0 {
                    return Err("bad --disks 0: a stripe needs at least one spindle".to_string());
                }
                if out.hw.disks > 64 {
                    return Err(format!(
                        "bad --disks {}: at most 64 spindles per stripe (each is a full \
                         simulated device; beyond that the sweep measures the fan-out, \
                         not the array)",
                        out.hw.disks
                    ));
                }
            }
            "--chunk-kib" => {
                let v: u32 = number(flag, value()?)?;
                if v == 0 || !v.is_multiple_of(4) || v > 1024 {
                    return Err(format!(
                        "bad --chunk-kib {v}: must be a multiple of 4 and at most 1024 \
                         (a chunk below the 4 KiB block splits every block; beyond 1 MiB \
                         it stops striping)"
                    ));
                }
                out.hw.chunk_kib = v;
            }
            other => unreachable!("{other} is in SUBCOMMANDS and has no arm here"),
        }
    }
    Ok(out)
}

/// The usage banner the binary prints on a parse error: each
/// subcommand with the flags it reads.
pub fn usage() -> String {
    let mut s = "usage: patsy <subcommand> [options]".to_string();
    for (names, flags) in SUBCOMMANDS {
        s.push_str(&format!("\n  {names} {flags}"));
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<CliArgs, String> {
        let v: Vec<String> = args.iter().map(|s| s.to_string()).collect();
        parse_cli(&v)
    }

    #[test]
    fn defaults_and_happy_path() {
        let a = parse(&["sweep-clients", "--workload", "mail", "--clients", "1,4,16", "--qd", "8"])
            .unwrap();
        assert_eq!(a.cmd, "sweep-clients");
        assert_eq!(a.workload, WorkloadKind::Mail);
        assert_eq!(a.clients, Some(vec![1, 4, 16]));
        assert_eq!(a.qd, Some(8));
        assert_eq!(a.scale, None, "each subcommand states its own default");
        let b = parse(&["sweep-clients"]).unwrap();
        assert_eq!((b.qd, b.clients), (None, None), "a default must be distinguishable");
    }

    #[test]
    fn rejects_scale_zero() {
        let e = parse(&["fig2", "--scale", "0"]).unwrap_err();
        assert!(e.contains("--scale"), "{e}");
    }

    #[test]
    fn rejects_negative_scale() {
        let e = parse(&["fig2", "--scale", "-0.5"]).unwrap_err();
        assert!(e.contains("--scale"), "{e}");
    }

    #[test]
    fn rejects_non_numeric_and_non_finite_scale() {
        assert!(parse(&["fig2", "--scale", "lots"]).is_err());
        assert!(parse(&["fig2", "--scale", "nan"]).is_err());
        assert!(parse(&["fig2", "--scale", "inf"]).is_err());
    }

    #[test]
    fn rejects_oversized_scale() {
        let e = parse(&["fig2", "--scale", "11"]).unwrap_err();
        assert!(e.contains("--scale"), "{e}");
    }

    #[test]
    fn rejects_clients_zero() {
        let e = parse(&["sweep-clients", "--clients", "0"]).unwrap_err();
        assert!(e.contains("--clients"), "{e}");
        let e = parse(&["sweep-clients", "--clients", "1,0,4"]).unwrap_err();
        assert!(e.contains("--clients"), "{e}");
    }

    #[test]
    fn rejects_oversized_clients() {
        let e = parse(&["sweep-clients", "--clients", "4097"]).unwrap_err();
        assert!(e.contains("--clients"), "{e}");
        let e = parse(&["sweep-clients", "--clients", "64,100000"]).unwrap_err();
        assert!(e.contains("--clients"), "{e}");
        // The boundary itself is accepted.
        let a = parse(&["sweep-clients", "--clients", "4096"]).unwrap();
        assert_eq!(a.clients, Some(vec![4096]));
    }

    #[test]
    fn shards_flag_parses_and_validates() {
        let a = parse(&["sweep-clients", "--shards", "16"]).unwrap();
        assert_eq!(a.shards, Some(16));
        let b = parse(&["sweep-clients"]).unwrap();
        assert_eq!(b.shards, None, "default must be derivable from the client count");
        let e = parse(&["sweep-clients", "--shards", "0"]).unwrap_err();
        assert!(e.contains("--shards"), "{e}");
        let e = parse(&["sweep-clients", "--shards", "4097"]).unwrap_err();
        assert!(e.contains("--shards"), "{e}");
        assert!(parse(&["sweep-clients", "--shards", "many"]).is_err());
    }

    #[test]
    fn json_flag_parses() {
        let a = parse(&["sweep-clients", "--json"]).unwrap();
        assert!(a.json);
        let b = parse(&["check", "--json", "--budget", "500"]).unwrap();
        assert!(b.json);
        assert_eq!(b.budget, 500, "--json must not eat the following flag");
        assert!(!parse(&["sweep-clients"]).unwrap().json);
    }

    #[test]
    fn trace_out_flag_parses_and_validates() {
        let a = parse(&["run", "--trace-out", "prof.json", "--qd", "8"]).unwrap();
        assert_eq!(a.trace_out.as_deref(), Some("prof.json"));
        assert_eq!(a.qd, Some(8), "--trace-out must consume exactly one value");
        assert_eq!(parse(&["run"]).unwrap().trace_out, None);
        let e = parse(&["run", "--trace-out", ""]).unwrap_err();
        assert!(e.contains("--trace-out"), "{e}");
        assert!(parse(&["run", "--trace-out"]).is_err());
    }

    #[test]
    fn layout_flag_parses_and_validates() {
        assert_eq!(parse(&["run", "--layout", "ffs"]).unwrap().layout, Some(LayoutKind::Ffs));
        assert_eq!(parse(&["crash", "--layout", "lfs"]).unwrap().layout, Some(LayoutKind::Lfs));
        assert_eq!(parse(&["run"]).unwrap().layout, None, "each subcommand owns its default");
        for cmd in ["run", "crash", "check", "sweep-clients", "serve-bench"] {
            let e = parse(&[cmd, "--layout", "zfs"]).unwrap_err();
            assert_eq!(e, "unknown layout zfs (lfs|ffs)", "{cmd}");
        }
        assert!(parse(&["run", "--layout"]).is_err());
    }

    #[test]
    fn policy_flag_parses_and_validates() {
        for (name, policy) in [
            ("write-delay", Policy::WriteDelay),
            ("30s", Policy::WriteDelay),
            ("ups", Policy::Ups),
            ("nvram-whole", Policy::NvramWhole),
            ("nvram-partial", Policy::NvramPartial),
        ] {
            assert_eq!(parse(&["run", "--policy", name]).unwrap().policy, Some(policy));
        }
        assert_eq!(parse(&["crash"]).unwrap().policy, None, "no filter unless asked");
        for cmd in ["run", "crash", "check", "sweep-clients", "serve-bench"] {
            let e = parse(&[cmd, "--policy", "x"]).unwrap_err();
            assert!(e.starts_with("unknown policy x ("), "{cmd}: {e}");
        }
        assert!(parse(&["run", "--policy"]).is_err());
    }

    #[test]
    fn rejects_threads_zero() {
        let e = parse(&["check", "--threads", "0"]).unwrap_err();
        assert!(e.contains("--threads"), "{e}");
    }

    #[test]
    fn rejects_oversized_threads() {
        let e = parse(&["check", "--threads", "513"]).unwrap_err();
        assert!(e.contains("--threads"), "{e}");
        // The boundary itself is accepted.
        assert_eq!(parse(&["check", "--threads", "512"]).unwrap().threads, Some(512));
    }

    #[test]
    fn rejects_non_numeric_threads() {
        let e = parse(&["check", "--threads", "all"]).unwrap_err();
        assert!(e.contains("--threads"), "{e}");
    }

    #[test]
    fn threads_default_is_derivable() {
        let a = parse(&["check"]).unwrap();
        assert_eq!(a.threads, None, "default must be derivable from the host parallelism");
        let b = parse(&["check", "--threads", "8"]).unwrap();
        assert_eq!(b.threads, Some(8));
    }

    #[test]
    fn cache_file_flag_parses_and_validates() {
        let a = parse(&["check", "--cache-file", "cells.bin", "--budget", "50"]).unwrap();
        assert_eq!(a.cache_file.as_deref(), Some("cells.bin"));
        assert_eq!(a.budget, 50, "--cache-file must consume exactly one value");
        assert_eq!(parse(&["check"]).unwrap().cache_file, None);
        let e = parse(&["check", "--cache-file", ""]).unwrap_err();
        assert!(e.contains("--cache-file"), "{e}");
        assert!(parse(&["check", "--cache-file"]).is_err());
    }

    #[test]
    fn rsize_flag_parses_and_validates() {
        let a = parse(&["serve-bench", "--rsize", "8192", "--qd", "4"]).unwrap();
        assert_eq!(a.rsize, 8192);
        assert_eq!(a.qd, Some(4), "--rsize must consume exactly one value");
        assert_eq!(parse(&["serve-bench"]).unwrap().rsize, 65536, "default is one 64 KiB transfer");
        // Both boundaries are accepted.
        assert_eq!(parse(&["serve-bench", "--rsize", "4096"]).unwrap().rsize, 4096);
        assert_eq!(parse(&["serve-bench", "--rsize", "1048576"]).unwrap().rsize, 1 << 20);
        for bad in ["0", "4095", "1048577", "lots", "-1"] {
            let e = parse(&["serve-bench", "--rsize", bad]).unwrap_err();
            assert!(e.contains("--rsize"), "{e}");
        }
        assert!(parse(&["serve-bench", "--rsize"]).is_err());
    }

    #[test]
    fn disk_flag_parses_and_validates() {
        let a = parse(&["sweep-qd", "--disk", "ssd", "--seed", "8"]).unwrap();
        assert_eq!(a.hw.disk, "ssd");
        assert_eq!(a.seed, 8, "--disk must consume exactly one value");
        let b = parse(&["sweep-qd"]).unwrap();
        assert_eq!(b.hw.disk, "hp97560", "the first hardware generation stays the default");
        assert_eq!(parse(&["sweep-qd", "--disk", "hp97560"]).unwrap().hw.disk, "hp97560");
        let e = parse(&["sweep-qd", "--disk", "nvme9000"]).unwrap_err();
        assert!(e.contains("--disk"), "{e}");
        assert!(parse(&["sweep-qd", "--disk"]).is_err());
    }

    #[test]
    fn disks_flag_parses_and_validates() {
        let a = parse(&["sweep-qd", "--disks", "4"]).unwrap();
        assert_eq!(a.hw.disks, 4);
        assert_eq!(parse(&["sweep-qd"]).unwrap().hw.disks, 1, "one disk is the default wiring");
        // Both boundaries are accepted.
        assert_eq!(parse(&["sweep-qd", "--disks", "1"]).unwrap().hw.disks, 1);
        assert_eq!(parse(&["sweep-qd", "--disks", "64"]).unwrap().hw.disks, 64);
        for bad in ["0", "65", "many", "-1"] {
            let e = parse(&["sweep-qd", "--disks", bad]).unwrap_err();
            assert!(e.contains("--disks"), "{e}");
        }
        assert!(parse(&["sweep-qd", "--disks"]).is_err());
    }

    #[test]
    fn chunk_kib_flag_parses_and_validates() {
        let a = parse(&["sweep-qd", "--chunk-kib", "128", "--disks", "2"]).unwrap();
        assert_eq!(a.hw.chunk_kib, 128);
        assert_eq!(a.hw.disks, 2, "--chunk-kib must consume exactly one value");
        assert_eq!(parse(&["sweep-qd"]).unwrap().hw.chunk_kib, 64, "64 KiB chunks by default");
        // Both boundaries are accepted.
        assert_eq!(parse(&["sweep-qd", "--chunk-kib", "4"]).unwrap().hw.chunk_kib, 4);
        assert_eq!(parse(&["sweep-qd", "--chunk-kib", "1024"]).unwrap().hw.chunk_kib, 1024);
        for bad in ["0", "6", "1028", "lots", "-4"] {
            let e = parse(&["sweep-qd", "--chunk-kib", bad]).unwrap_err();
            assert!(e.contains("--chunk-kib"), "{e}");
        }
        assert!(parse(&["sweep-qd", "--chunk-kib"]).is_err());
    }

    #[test]
    fn rejects_garbage_clients_list() {
        assert!(parse(&["sweep-clients", "--clients", "1,,4"]).is_err());
        assert!(parse(&["sweep-clients", "--clients", "many"]).is_err());
    }

    #[test]
    fn rejects_qd_zero() {
        let e = parse(&["run", "--qd", "0"]).unwrap_err();
        assert!(e.starts_with("bad --qd 0"), "{e}");
    }

    #[test]
    fn rejects_cuts_zero() {
        let e = parse(&["crash", "--cuts", "0"]).unwrap_err();
        assert!(e.contains("--cuts"), "{e}");
    }

    #[test]
    fn rejects_unknown_workload_and_option() {
        assert!(parse(&["sweep-clients", "--workload", "bogus"]).is_err());
        assert!(parse(&["fig2", "--frobnicate", "1"]).is_err());
    }

    /// The five silent no-ops the table was written against, then every
    /// subcommand against every flag: one its row lists reaches its
    /// parser (a value-taking flag with no value says so), any other is
    /// rejected by name.
    #[test]
    fn a_flag_the_subcommand_never_reads_is_an_error() {
        for (args, flag) in [
            (&["check", "--disk", "ssd"][..], "--disk"),
            (&["crash", "--disks", "4"], "--disks"),
            (&["serve-bench", "--disk", "ssd"], "--disk"),
            (&["fig5", "--qd", "8", "--policy", "ups", "--layout", "ffs"], "--qd"),
            (&["run", "--threads", "8"], "--threads"),
        ] {
            assert_eq!(parse(args).unwrap_err(), format!("{} does not read {flag}", args[0]));
        }
        let mut all: Vec<&str> = SUBCOMMANDS.iter().flat_map(|(_, row)| flags_of(row)).collect();
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), 21, "one per arm of parse_cli: {all:?}");
        for (names, reads) in SUBCOMMANDS {
            for cmd in names.split('|') {
                for &flag in &all {
                    match parse(&[cmd, flag]) {
                        Ok(a) => assert!(flag == "--json" && a.json, "{cmd} {flag}"),
                        Err(e) if flags_of(reads).any(|f| f == flag) => {
                            assert_eq!(e, format!("{flag} needs a value"), "{cmd}")
                        }
                        Err(e) => assert_eq!(e, format!("{cmd} does not read {flag}")),
                    }
                }
            }
        }
        assert_eq!(parse(&["bench-snapshot"]).unwrap_err(), "unknown subcommand bench-snapshot");
    }

    #[test]
    fn usage_groups_the_flags_by_subcommand() {
        let usage = usage();
        assert!(usage.starts_with("usage: patsy "), "{usage}");
        assert!(
            usage.contains("\n  fig2|fig3|fig4 [--scale F] [--seed N] [--qd N] [--threads N]\n")
        );
        assert_eq!(usage.lines().count(), 1 + SUBCOMMANDS.len());
    }

    #[test]
    fn rejects_missing_value_and_missing_subcommand() {
        assert!(parse(&["fig2", "--scale"]).is_err());
        assert!(parse(&[]).is_err());
    }

    #[test]
    fn rejects_non_numeric_seed() {
        let e = parse(&["fig2", "--seed", "lots"]).unwrap_err();
        assert!(e.contains("--seed"), "{e}");
    }

    #[test]
    fn rejects_negative_seed() {
        let e = parse(&["fig2", "--seed", "-1"]).unwrap_err();
        assert!(e.contains("--seed"), "{e}");
    }

    #[test]
    fn rejects_unknown_trace() {
        let e = parse(&["crash", "--trace", "9z"]).unwrap_err();
        assert!(e.contains("--trace"), "{e}");
        // Every real preset parses.
        for t in ["1a", "1b", "2a", "2b", "5"] {
            assert_eq!(parse(&["crash", "--trace", t]).unwrap().trace, t);
        }
    }

    #[test]
    fn rejects_budget_zero() {
        let e = parse(&["check", "--budget", "0"]).unwrap_err();
        assert!(e.contains("--budget"), "{e}");
    }

    #[test]
    fn rejects_non_numeric_budget() {
        let e = parse(&["check", "--budget", "many"]).unwrap_err();
        assert!(e.contains("--budget"), "{e}");
    }

    #[test]
    fn check_flags_parse() {
        let a = parse(&[
            "check",
            "--trace",
            "1a",
            "--qd",
            "8",
            "--budget",
            "500",
            "--repro-out",
            "blobs.txt",
            "--clients",
            "4",
        ])
        .unwrap();
        assert_eq!(a.cmd, "check");
        assert_eq!(a.budget, 500);
        assert_eq!(a.repro_out.as_deref(), Some("blobs.txt"));
        assert_eq!(a.clients, Some(vec![4]));
        assert!(a.repro.is_none());
        let b = parse(&["check"]).unwrap();
        assert_eq!(b.budget, 200, "check needs a sane default budget");
        assert_eq!(b.clients, None, "default fleet must be distinguishable from an explicit one");
        let c = parse(&["check", "--repro", "cnpc1:xyz"]).unwrap();
        assert_eq!(c.repro.as_deref(), Some("cnpc1:xyz"));
    }

    /// `check --policy` keeps exactly the row of that policy, whose
    /// cells run the flush every other rig runs under its label.
    #[test]
    fn check_policy_keeps_one_row() {
        use crate::check::check_config;
        let all = check_config(&parse(&["check", "--budget", "4"]).unwrap(), 0.002);
        assert_eq!(all.policies, cnp_fault::POLICIES);
        for name in ["write-delay", "ups", "nvram-whole", "nvram-partial"] {
            let args = parse(&["check", "--budget", "4", "--policy", name]).unwrap();
            let check = check_config(&args, 0.002);
            let policy = args.policy.unwrap();
            assert_eq!(check.policies, [policy], "--policy {name}");
            assert_eq!(check.cell_spec(0, 0).flush, policy.cache_settings(0).0, "--policy {name}");
        }
    }
}
