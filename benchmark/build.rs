//! Records the compiler that builds the benchmark, for the host
//! fingerprint in every output record (the `rustc` on PATH at run time
//! may be a different one).

use std::process::Command;

fn main() {
    let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".to_string());
    let version = Command::new(rustc)
        .arg("-V")
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string());
    println!("cargo:rustc-env=CNP_BENCHMARK_RUSTC={version}");
    println!("cargo:rerun-if-changed=build.rs");
}
