//! `rlbsim`'s flags are user input: a flag, value or name it cannot use is one
//! `rlbsim: …` line on stderr and exit status 2 — never a panic, and never a
//! run of something other than what was asked for.

use std::process::{Command, Output};

fn rlbsim(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_rlbsim"))
        .args(args)
        .output()
        .expect("rlbsim starts")
}

/// The run was refused: status 2, nothing on stdout, and stderr is one line
/// that starts `rlbsim: ` and mentions `what`.
fn refused(args: &[&str], what: &str) {
    let out = rlbsim(args);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
    assert!(out.stdout.is_empty(), "{args:?} printed a result");
    assert_eq!(stderr.lines().count(), 1, "{args:?}: {stderr}");
    assert!(
        stderr.starts_with("rlbsim: ") && stderr.contains(what),
        "{args:?}: {stderr}"
    );
}

#[test]
fn unusable_flags_are_refused_with_one_line() {
    // A misspelt flag used to be ignored: DRILL ran and exited 0.
    refused(&["--sceme", "ecmp"], "--sceme");
    // These two used to panic with a backtrace (exit 101) ...
    refused(&["--scheme", "foo"], "letflow");
    // CONGA left the scheme table; the refusal lists exactly what is left.
    refused(
        &["--scheme", "conga"],
        "(known: ecmp, presto, letflow, hermes, drill)",
    );
    refused(&["--load", "abc"], "abc");
    // ... and this one inside the Poisson generator.
    refused(&["--leaves", "0"], "leaves");
    refused(&["--seed"], "--seed needs a value");
}

#[test]
fn a_short_run_exits_zero() {
    // The spellings `rlbsim` has always taken still name the workload.
    let out = rlbsim(&[
        "--scheme",
        "ecmp",
        "--workload",
        "websearch",
        "--horizon-ms",
        "1",
    ]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(0), "{stdout}");
    assert!(stdout.contains("ECMP | Web Search @ 60%"), "{stdout}");
    assert!(stdout.contains("flows completed"), "{stdout}");
}
