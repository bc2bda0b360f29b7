//! Records the compiler version and the commit in the binary, for the host
//! fingerprint every result carries.

use std::process::Command;

fn output_of(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program).args(args).output().ok()?;
    out.status.success().then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

fn main() {
    let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".into());
    let version = output_of(&rustc, &["--version"]).unwrap_or_else(|| "unknown".into());
    // A checkout that is not a git repository (an archive) has no commit.
    let commit = output_of("git", &["rev-parse", "HEAD"]).unwrap_or_else(|| "unknown".into());
    println!("cargo:rustc-env=BENCH_RUSTC_VERSION={version}");
    println!("cargo:rustc-env=BENCH_GIT_COMMIT={commit}");
    println!("cargo:rerun-if-changed=build.rs");
    // Naming a file that does not exist makes cargo rebuild on every run,
    // and a checkout made from an archive has no `.git`.
    if std::path::Path::new("../.git/HEAD").exists() {
        println!("cargo:rerun-if-changed=../.git/HEAD");
    }
}
