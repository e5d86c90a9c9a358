//! Every workload in one command (`run.sh` without `--workload`), and the
//! comparison `selfcheck.sh` makes between two such runs.

use crate::contract::{END_TO_END, PER_LAYER, WORKLOADS};
use crate::Args;
use rlb_bench::json::{self, Json};
use std::path::Path;
use std::process::{Command, Stdio};

fn read_json(path: &Path) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

fn write_json(path: &Path, j: &Json) -> Result<(), String> {
    std::fs::write(path, j.pretty()).map_err(|e| format!("{}: {e}", path.display()))
}

/// Run one workload in a child process of its own — so `peak_rss_mb` is
/// that workload's and nothing carries over — echo what it printed, and
/// return its result line.
fn child(a: &Args, name: &str, trace: bool) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let out = Command::new(exe)
        .arg("--out")
        .arg(&a.out)
        .args(["--workload", name])
        .args(["--seed", &a.seed.to_string()])
        .args(["--seconds", &(a.seconds as u64).to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot start the {name} run: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let (body, last) = stdout
        .trim_end()
        .rsplit_once('\n')
        .unwrap_or(("", stdout.trim_end()));
    println!("{body}");
    if !out.status.success() {
        return Err(format!(
            "the {name} run (trace = {}) failed: {}",
            trace as u8, out.status
        ));
    }
    json::parse(last).map_err(|e| format!("{name}: result line does not parse: {e}"))
}

pub fn run_all(a: &Args) -> Result<(), String> {
    if let Some(only) = &a.only {
        if !WORKLOADS.iter().any(|(name, _)| name == only) {
            return Err(format!("--only {only}: no such workload"));
        }
    }
    std::fs::create_dir_all(&a.out).map_err(|e| format!("{}: {e}", a.out.display()))?;
    let mut workloads = Vec::new();
    let mut spans = Vec::new();
    let (mut attempted, mut failed) = (0, 0);
    for (name, _) in WORKLOADS {
        if a.only.as_deref().is_some_and(|only| only != name) {
            continue;
        }
        // End-to-end numbers come from the untraced run only.
        let plain = child(a, name, false)?;
        let traced = child(a, name, true)?;
        if let Json::Arr(s) = read_json(&a.out.join("trace.json"))? {
            spans.extend(s);
        }
        let count = |j: &Json, key| j.get(key).and_then(Json::as_u64).unwrap_or(0);
        let (att, bad) = (
            count(&plain, "attempted") + count(&traced, "attempted"),
            count(&plain, "failed") + count(&traced, "failed"),
        );
        attempted += att;
        failed += bad;
        workloads.push((
            name.to_string(),
            Json::obj([
                ("attempted", Json::U64(att)),
                ("failed", Json::U64(bad)),
                (
                    "end_to_end",
                    plain.get("metrics").cloned().unwrap_or(Json::Null),
                ),
                (
                    "per_layer",
                    traced.get("metrics").cloned().unwrap_or(Json::Null),
                ),
            ]),
        ));
    }
    write_json(&a.out.join("trace.json"), &Json::Arr(spans))?;
    write_json(
        &a.out.join("metrics.json"),
        &Json::obj([
            ("seed", Json::U64(a.seed)),
            ("run_seconds", Json::U64(a.seconds as u64)),
            ("workloads", Json::Obj(workloads)),
        ]),
    )?;
    println!(
        "failed_share {failed} / {attempted} over all workloads; wrote {0}/metrics.json and {0}/trace.json",
        a.out.display()
    );
    Ok(())
}

/// `selfcheck.sh`: two runs of the same code on the same seed. Every
/// end-to-end metric must agree within its bound, every exact-repeat
/// layer metric exactly; the observed differences are printed so bounds
/// can be tightened later with evidence.
pub fn compare(a: &Path, b: &Path) -> Result<(), String> {
    let (ja, jb) = (read_json(a)?, read_json(b)?);
    let value = |j: &Json, w: &str, group: &str, m: &str| -> Result<f64, String> {
        j.path(&["workloads", w, group, m, "value"])
            .and_then(Json::as_f64)
            .ok_or_else(|| format!("{w}: no {group} value for `{m}`"))
    };
    let mut problems = Vec::new();
    let Some(Json::Obj(workloads)) = ja.get("workloads") else {
        return Err(format!("{}: no workloads", a.display()));
    };
    for (w, _) in workloads {
        println!("{w}");
        for m in &END_TO_END {
            let (x, y) = (
                value(&ja, w, "end_to_end", m.name)?,
                value(&jb, w, "end_to_end", m.name)?,
            );
            let spread = (x - y).abs() / x.abs().min(y.abs());
            let bound = m.bound.unwrap_or(0.0);
            println!(
                "  {:<40} {x:>16.6} {y:>16.6} {}  spread {spread:.4} (bound {bound})",
                m.name, m.unit
            );
            if spread.is_nan() || spread > bound {
                problems.push(format!(
                    "{w}: {} differs by {spread:.4}, bound {bound}",
                    m.name
                ));
            }
        }
        for m in PER_LAYER.iter().filter(|m| m.exact) {
            let (x, y) = (
                value(&ja, w, "per_layer", m.name)?,
                value(&jb, w, "per_layer", m.name)?,
            );
            if x.to_bits() != y.to_bits() {
                problems.push(format!("{w}: exact-repeat {} differs: {x} vs {y}", m.name));
            }
        }
        for j in [&ja, &jb] {
            if j.path(&["workloads", w, "failed"]).and_then(Json::as_u64) != Some(0) {
                problems.push(format!("{w}: failed operations"));
            }
        }
    }
    if problems.is_empty() {
        println!(
            "selfcheck passed: end-to-end medians within bounds, exact-repeat values identical"
        );
        Ok(())
    } else {
        Err(format!("selfcheck failed:\n  {}", problems.join("\n  ")))
    }
}
