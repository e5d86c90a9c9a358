//! End-to-end runner guarantees on a real figure (fig3 at Quick scale):
//!
//!   * cache keys are pure functions of the serialized config — stable
//!     across expansions, changed by any config field change;
//!   * two cold runs produce byte-identical `--stable-json` reports
//!     (simulation + report determinism);
//!   * a warm re-run over the same cache executes zero simulations.
//!
//! The simulations here are the slowest tests in the workspace (~8 quick
//! motivation runs per cold pass), so everything shares one test body.

use rlb_bench::cli::BenchCli;
use rlb_bench::drive::build_report;
use rlb_bench::figures::by_name;
use rlb_bench::runner::{run_jobs, RunSummary, RunnerConfig};
use rlb_bench::Scale;
use std::path::PathBuf;

#[test]
fn cache_keys_are_stable_and_config_sensitive() {
    let fig = by_name("fig3").expect("fig3 registered");
    let keys = |scale, offsets: &[u64]| -> Vec<u64> {
        fig.jobs(scale, offsets, 1)
            .iter()
            .map(|j| j.key())
            .collect()
    };
    // Same config → same hash, independent of when the jobs were expanded.
    assert_eq!(keys(Scale::Quick, &[0]), keys(Scale::Quick, &[0]));
    // Any field change → a new hash: a different seed offset ...
    let base = keys(Scale::Quick, &[0]);
    for k in keys(Scale::Quick, &[1]) {
        assert!(!base.contains(&k), "seed change must change every key");
    }
    // ... or a different scale (horizon/fabric fields in the spec).
    for k in keys(Scale::Paper, &[0]) {
        assert!(!base.contains(&k), "scale change must change every key");
    }
    // And keys are unique within the batch.
    let mut uniq = base.clone();
    uniq.sort_unstable();
    uniq.dedup();
    assert_eq!(uniq.len(), base.len(), "key collision inside fig3's batch");
}

fn run_fig3(cache_dir: PathBuf, cli: &BenchCli) -> (String, RunSummary) {
    let fig = by_name("fig3").expect("fig3 registered");
    let jobs = fig.jobs(Scale::Quick, &[0], cli.shards);
    let summary = run_jobs(
        jobs,
        &RunnerConfig {
            threads: None,
            cache_dir: Some(cache_dir),
            progress: false,
        },
    )
    .expect("fig3 batch");
    let report = fig.reduce(&summary.outcomes);
    let json = build_report(cli, &[(fig, report)], &summary);
    (json.pretty(), summary)
}

#[test]
fn fig3_quick_reports_are_deterministic_and_warm_runs_are_all_cached() {
    let tmp = std::env::temp_dir().join(format!("rlb-bench-it-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&tmp);
    let cli = BenchCli {
        stable_json: true,
        ..BenchCli::default()
    };

    // Two *cold* runs against independent caches: byte-identical reports.
    let (report_a, cold_a) = run_fig3(tmp.join("a"), &cli);
    assert!(
        cold_a.executed > 0 && cold_a.cache_hits == 0,
        "run A must be cold"
    );
    let (report_b, cold_b) = run_fig3(tmp.join("b"), &cli);
    assert_eq!(cold_b.cache_hits, 0, "run B must be cold");
    assert_eq!(
        report_a, report_b,
        "two cold fig3 Quick runs must produce byte-identical stable reports"
    );

    // A *warm* run on A's cache: zero simulations executed, same report.
    let (report_c, warm) = run_fig3(tmp.join("a"), &cli);
    assert_eq!(warm.executed, 0, "warm run must execute no simulations");
    assert_eq!(warm.cache_hits, cold_a.executed + cold_a.cache_hits);
    assert_eq!(report_a, report_c, "cache hits must reproduce the report");

    let _ = std::fs::remove_dir_all(&tmp);
}
