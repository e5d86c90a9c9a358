//! `bench --scenario` on spec files that describe no run: each one is a
//! single `error:` diagnostic naming the offending key, and exit code 2 —
//! bad input, like a bad flag — before any job runs.

use std::path::PathBuf;
use std::process::Command;

/// `specs/flap_ramp.toml` with `from` replaced by `to`, in a file of this
/// test's own.
fn degenerate(name: &str, from: &str, to: &str) -> PathBuf {
    let committed = concat!(env!("CARGO_MANIFEST_DIR"), "/../../specs/flap_ramp.toml");
    let spec = std::fs::read_to_string(committed).expect("committed spec");
    assert!(spec.contains(from), "{from}");
    let file = format!("rlb-bench-{}-{name}.toml", std::process::id());
    let path = std::env::temp_dir().join(file);
    std::fs::write(&path, spec.replacen(from, to, 1)).expect("temporary spec");
    path
}

#[test]
fn degenerate_specs_exit_2_naming_the_key() {
    for (name, from, to, key) in [
        (
            "zero-horizon",
            "horizon_ps = 600_000_000",
            "horizon_ps = 0",
            "`horizon_ps`",
        ),
        (
            "short-down",
            "down_ps = 60_000_000",
            "down_ps = 1_000",
            "`down_ps`",
        ),
        ("zero-up", "up_ps = 60_000_000", "up_ps = 0", "`up_ps`"),
    ] {
        let path = degenerate(name, from, to);
        let out = Command::new(env!("CARGO_BIN_EXE_bench"))
            .arg("--scenario")
            .arg(&path)
            .arg("--no-cache")
            .output()
            .expect("bench runs");
        std::fs::remove_file(&path).expect("temporary spec removed");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{name}: {stderr}");
        assert!(
            stderr.starts_with("error: ") && stderr.contains(key),
            "{name}: {stderr}"
        );
        assert!(out.stdout.is_empty(), "{name}: ran before refusing");
    }
}
