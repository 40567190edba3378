//! `cnp-benchmark`: the repo's ruler. It claims no gain; it measures.
//!
//! ```text
//! cnp-benchmark --workload <name> [--seed <u64>] [--seconds <n>] [--trace <0|1>]
//! cnp-benchmark compare <a.json> <b.json>
//! cnp-benchmark manifest            # prints BENCHMARK.json
//! ```

mod alloc;
mod compare;
mod host;
mod json;
mod probes;
mod run;
mod spans;
mod spec;
mod stats;
mod workloads;

#[global_allocator]
static GLOBAL: alloc::Counting = alloc::Counting;

const USAGE: &str = "usage: cnp-benchmark --workload <name> [--seed <u64>] [--seconds <n>] \
                     [--trace <0|1>]\n       cnp-benchmark compare <a.json> <b.json>\n       \
                     cnp-benchmark manifest";

fn parse_run_args(args: &[String]) -> Result<run::RunArgs, String> {
    let mut out = run::RunArgs {
        workload: String::new(),
        seed: 42,
        seconds: f64::from(spec::RUN_SECONDS),
        traced: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => out.workload = value.clone(),
            "--seed" => out.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                out.seconds = value.parse().map_err(|_| bad())?;
                if !(out.seconds > 0.0 && out.seconds <= 3600.0) {
                    return Err(bad());
                }
            }
            "--trace" => {
                out.traced = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if out.workload.is_empty() {
        return Err("--workload is required".to_string());
    }
    Ok(out)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let code = match args.first().map(String::as_str) {
        Some("compare") if args.len() == 3 => compare::compare(&args[1], &args[2]),
        Some("manifest") if args.len() == 1 => {
            print!("{}", spec::manifest_json());
            0
        }
        Some(flag) if flag.starts_with("--") => match parse_run_args(&args) {
            Ok(run_args) => run::run(&run_args),
            Err(e) => {
                eprintln!("{e}\n{USAGE}");
                2
            }
        },
        _ => {
            eprintln!("{USAGE}");
            2
        }
    };
    std::process::exit(code);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn the_contract_command_line_parses() {
        let a =
            parse_run_args(&args("--workload zipf-256 --seed 7 --seconds 10 --trace 1")).unwrap();
        assert_eq!((a.workload.as_str(), a.seed, a.seconds, a.traced), ("zipf-256", 7, 10.0, true));
        let d = parse_run_args(&args("--workload mail-64")).unwrap();
        assert_eq!((d.seed, d.seconds, d.traced), (42, f64::from(spec::RUN_SECONDS), false));
    }

    #[test]
    fn bad_command_lines_are_rejected() {
        for bad in [
            "",
            "--seed 7",
            "--workload",
            "--workload x --seed -1",
            "--workload x --seconds 0",
            "--workload x --seconds nan",
            "--workload x --trace 2",
            "--workload x --frobnicate 1",
        ] {
            assert!(parse_run_args(&args(bad)).is_err(), "{bad:?} parsed");
        }
    }
}
