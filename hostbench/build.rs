//! Records the compiler version and build profile for the provenance
//! header the benchmark prints with every result.

use std::process::Command;

fn main() {
    let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".to_string());
    let version = Command::new(rustc)
        .arg("--version")
        .output()
        .ok()
        .filter(|out| out.status.success())
        .map(|out| String::from_utf8_lossy(&out.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string());
    let profile = std::env::var("PROFILE").unwrap_or_else(|_| "unknown".to_string());
    println!("cargo:rustc-env=HOSTBENCH_RUSTC={version}");
    println!("cargo:rustc-env=HOSTBENCH_PROFILE={profile}");
    println!("cargo:rerun-if-changed=build.rs");
}
