//! The `figures` command-line contract: a bad command line prints usage
//! and exits 2 before any figure runs.

use std::process::Command;

#[test]
fn bad_command_lines_print_usage_and_exit_2() {
    for line in [
        "fig99_bogus",
        "all --size huge",
        "all --out",
        "all --size",
        "all --threads 4",
        "--size ci",
        "",
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_figures"))
            .args(line.split_whitespace())
            .output()
            .expect("figures runs");
        assert_eq!(out.status.code(), Some(2), "{line:?}");
        assert!(out.stdout.is_empty(), "{line:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("usage: figures"), "{line:?}: {stderr}");
    }
}
