//! The `repro` and `hotpath` command lines: a non-finite `--scale`, an
//! unknown experiment or flag, and a `--check-regress` without ten
//! complete run pairs are usage errors, not a panic or a partial run, and
//! `repro --help` names every experiment.

use std::path::Path;
use std::process::{Command, Output};

use webcache_bench::experiments;

fn run(bin: &str, args: &[&str]) -> Output {
    Command::new(bin)
        .args(args)
        .output()
        .expect("the binary starts")
}

#[test]
fn bad_command_lines_are_usage_errors() {
    // Both exit 2 on a bad command line (`hotpath` keeps 1 for a failed
    // regression check); neither prints a result first.
    let repro = env!("CARGO_BIN_EXE_repro");
    let hotpath = env!("CARGO_BIN_EXE_hotpath");
    let scale = "--scale expects a finite denominator";
    let empty = Path::new(env!("CARGO_TARGET_TMPDIR")).join("hotpath-empty-gate-dir");
    let _ = std::fs::remove_dir_all(&empty);
    std::fs::create_dir_all(&empty).expect("create an empty directory");
    let empty = empty.to_str().expect("a UTF-8 temporary path");
    for (bin, args, code, message) in [
        (repro, &["table1", "--scale", "inf"][..], 2, scale),
        (repro, &["table1", "--scale", "nan"][..], 2, scale),
        (hotpath, &["--quick", "--scale", "inf"][..], 2, scale),
        (hotpath, &["--quick", "--scale", "nan"][..], 2, scale),
        (
            hotpath,
            &["--tolerance", "0.05"][..],
            2,
            "unknown argument `--tolerance`",
        ),
        (
            hotpath,
            &["--check-regress"][..],
            2,
            "--check-regress expects a directory",
        ),
        (
            hotpath,
            &["--check-regress", empty][..],
            2,
            "--check-regress needs 10 complete base-N.json/head-N.json pairs",
        ),
        (
            hotpath,
            &["--check-regress", empty, "--quick"][..],
            2,
            "--check-regress DIR takes no other flag",
        ),
        (
            repro,
            &["table1", "bogus", "--scale", "512"][..],
            2,
            "unknown experiment `bogus`",
        ),
    ] {
        let out = run(bin, args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(code), "{bin} {args:?}: {stderr}");
        assert!(
            stderr.contains(&format!("error: {message}")),
            "{bin} {args:?}: {stderr}"
        );
        assert!(out.stdout.is_empty(), "{bin} {args:?} printed a result");
    }
}

#[test]
fn repro_help_names_every_experiment() {
    let out = run(env!("CARGO_BIN_EXE_repro"), &["--help"]);
    let help = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "{help}");
    let words: Vec<&str> = help.split_whitespace().collect();
    for (name, _) in experiments::ALL {
        assert!(words.contains(&name), "`{name}` missing from: {help}");
    }
}
