//! What the run itself looked like: host fingerprint, process CPU time,
//! peak resident set. A number without its recorded environment is not
//! a result, so every output record carries the fingerprint.

use std::process::Command;

use crate::json::escape;

/// Process CPU seconds (user + system) so far, from `/proc/self/stat`.
/// `None` off Linux or if the file does not parse.
pub fn cpu_seconds() -> Option<f64> {
    let stat = std::fs::read_to_string("/proc/self/stat").ok()?;
    // The command name (field 2) may contain spaces; fields are counted
    // from the closing parenthesis. utime and stime are fields 14 and 15.
    let rest = &stat[stat.rfind(')')? + 1..];
    let mut f = rest.split_ascii_whitespace().skip(11);
    let utime: f64 = f.next()?.parse().ok()?;
    let stime: f64 = f.next()?.parse().ok()?;
    // USER_HZ is 100 on every Linux ABI Rust supports.
    Some((utime + stime) / 100.0)
}

/// Peak resident set (`VmHWM`) in MiB, from `/proc/self/status`.
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_ascii_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

fn first_line(cmd: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(cmd).args(args).output().ok()?;
    if !out.status.success() {
        return None;
    }
    String::from_utf8_lossy(&out.stdout).lines().next().map(str::to_string)
}

/// The fingerprint as a JSON object: cores, CPU model, compiler,
/// profile, threads used, and the commit when the checkout has one.
pub fn fingerprint_json() -> String {
    let nproc = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(0);
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    // The compiler that built this binary, recorded by build.rs.
    let rustc = env!("CNP_BENCHMARK_RUSTC");
    // Ask git only when this directory is itself a repository: a
    // benchmark checkout usually is not, and git would otherwise walk
    // up and report some enclosing repository's commit.
    let commit = std::path::Path::new(".git")
        .exists()
        .then(|| first_line("git", &["rev-parse", "--short=12", "HEAD"]))
        .flatten()
        .unwrap_or_else(|| "unknown".to_string());
    let profile = if cfg!(debug_assertions) { "debug" } else { "release" };
    format!(
        "{{\"nproc\":{nproc},\"cpu\":\"{}\",\"rustc\":\"{}\",\"profile\":\"{profile}\",\
         \"threads_used\":1,\"commit\":\"{}\"}}",
        escape(&cpu),
        escape(rustc),
        escape(&commit),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{parse, Value};

    #[test]
    fn fingerprint_is_one_json_object_with_the_promised_keys() {
        let v = parse(&fingerprint_json()).unwrap();
        for k in ["nproc", "cpu", "rustc", "profile", "threads_used", "commit"] {
            assert!(v.get(k).is_some(), "fingerprint lacks {k}");
        }
        assert_eq!(v.get("threads_used").and_then(Value::as_f64), Some(1.0));
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn proc_readers_see_this_process() {
        assert!(peak_rss_mib().unwrap() > 0.0);
        // Burn a little CPU so the counter is certainly past its first tick.
        let mut x = 0u64;
        let t0 = std::time::Instant::now();
        while t0.elapsed().as_millis() < 30 {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(7));
        }
        assert!(cpu_seconds().unwrap() > 0.0);
    }
}
