//! End-to-end tests of the `xqd` command-line binary's flag parsing.

use std::process::Command;

/// Each request runs serially on its worker, so `--threads` is an
/// unknown flag: a usage error (EX_USAGE) before anything binds.
#[test]
fn threads_is_an_unknown_flag() {
    let out = Command::new(env!("CARGO_BIN_EXE_xqd"))
        .args(["--listen", "127.0.0.1:0", "--threads", "2"])
        .output()
        .expect("xqd runs");
    assert_eq!(out.status.code(), Some(64));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("unknown flag '--threads'"), "{stderr}");
}
