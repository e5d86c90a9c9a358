//! The driver behind the `bench` binary: resolve the requested
//! figures from the registry, expand them into one job batch, run it
//! through the cached parallel runner, reduce per figure, print the
//! tables, and (with `--json`) write the schema-versioned
//! `BENCH_<fig>_<scale>.json` report.

use crate::cli::BenchCli;
use crate::figures::table::{self, f0, ms, pct, text, Col, Sweep};
use crate::figures::{by_name, registry, Figure, FigureReport};
use crate::json::Json;
use crate::runner::{run_jobs, Job, JobOutcome, RunSummary, CACHE_SCHEMA_VERSION};
use rlb_metrics::{Merge, Num};
use rlb_net::sim::PerfStats;
use rlb_net::ScenarioSpec;
use std::path::Path;

/// Resolve the figure list: `--figs`, else the whole registry. Unknown
/// names are an error listing what exists.
pub fn resolve_figures(cli: &BenchCli) -> Result<Vec<&'static dyn Figure>, String> {
    let Some(names) = &cli.figs else {
        return Ok(registry().to_vec());
    };
    names
        .iter()
        .map(|n| {
            by_name(n).ok_or_else(|| {
                format!(
                    "unknown figure `{n}` — known figures: {}",
                    registry()
                        .iter()
                        .map(|f| f.name())
                        .collect::<Vec<_>>()
                        .join(", ")
                )
            })
        })
        .collect()
}

/// Why [`drive`] stopped short.
#[derive(Debug)]
pub enum DriveError {
    /// The `--scenario` spec file cannot be run: unreadable, malformed, or
    /// describing a run that cannot happen. Bad input, like a bad flag: the
    /// `bench` binary exits 2.
    Spec(String),
    /// Anything else.
    Run(String),
}

impl From<String> for DriveError {
    fn from(e: String) -> DriveError {
        DriveError::Run(e)
    }
}

impl std::fmt::Display for DriveError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DriveError::Spec(e) | DriveError::Run(e) => f.write_str(e),
        }
    }
}

/// Run the figures selected by `cli` end to end. Returns the per-figure
/// reports (in run order) alongside the batch summary, after printing
/// tables and writing the JSON report if requested.
pub fn drive(cli: &BenchCli) -> Result<Vec<(&'static dyn Figure, FigureReport)>, DriveError> {
    if let Some(path) = &cli.scenario {
        drive_scenario(cli, path)?;
        return Ok(Vec::new());
    }
    let figures = resolve_figures(cli)?;
    let offsets = cli.seed_offsets();

    // One flat batch: the runner interleaves jobs from all figures across
    // the worker pool, so a slow figure can't serialize the rest.
    let mut jobs = Vec::new();
    let mut ranges = Vec::new();
    for fig in &figures {
        let start = jobs.len();
        jobs.append(&mut fig.jobs(cli.scale, &offsets, cli.shards));
        ranges.push(start..jobs.len());
    }
    let summary = run_jobs(jobs, &cli.runner_config(true))?;

    let mut reports = Vec::new();
    for (fig, range) in figures.iter().zip(ranges) {
        let outcomes = &summary.outcomes[range];
        let report = fig.reduce(outcomes);
        for (title, table) in &report.sections {
            println!("{title}\n{table}");
        }
        if cli.cdf {
            for dump in &report.cdf_dumps {
                println!("{dump}");
            }
        }
        reports.push((*fig, report));
    }
    finish(cli, &reports, &summary)?;
    Ok(reports)
}

/// How every run closes: the batch summary line and, with `--json`, the
/// report.
fn finish(
    cli: &BenchCli,
    reports: &[(&'static dyn Figure, FigureReport)],
    summary: &RunSummary,
) -> Result<(), String> {
    println!(
        "{} point(s): {} executed, {} cached, {:.1}s wall",
        summary.outcomes.len(),
        summary.executed,
        summary.cache_hits,
        summary.total_wall_ms / 1e3
    );
    if let Some(path) = &cli.json {
        let report = build_report(cli, reports, summary);
        std::fs::write(path, report.pretty())
            .map_err(|e| format!("cannot write report {}: {e}", path.display()))?;
        println!("wrote {}", path.display());
    }
    Ok(())
}

/// Expand a parsed spec into runner jobs, one per seed offset. The job's
/// cache identity is the parsed spec itself (seed included), so editing
/// any field of the file — or bumping the seed — re-keys the point while
/// untouched specs stay warm in the cache.
pub fn scenario_jobs(
    spec: &ScenarioSpec,
    offsets: &[u64],
    shards: u16,
) -> Result<Vec<Job>, String> {
    // Surface semantic errors (bad topology ranges, unsorted timelines)
    // before any job runs.
    spec.build()
        .map_err(|e| format!("scenario `{}`: {e}", spec.label()))?;
    let sweep = Sweep {
        fig: "scenario",
        shards,
    };
    let job = |&offset: &u64| {
        let mut s = spec.clone();
        s.seed += offset;
        let (label, coords) = (s.label(), vec![("seed", Json::U64(s.seed))]);
        sweep.point(label.clone(), label, coords, s.seed, s, |s| {
            s.build().expect("spec validated before job expansion")
        })
    };
    Ok(offsets.iter().map(job).collect())
}

const SCENARIO_COLS: [Col; 7] = [
    Col::coord("variant", "scenario", text),
    Col::coord("seed", "seed", text),
    Col::mean("flows", "flows", &["all", "flows_total"], f0),
    Col::mean("avg_fct_ms", "avg_fct_ms", &["all", "avg_fct_ms"], ms),
    Col::mean("p99_fct_ms", "p99_fct_ms", &["all", "p99_fct_ms"], ms),
    Col::mean("ooo_ratio", "ooo_ratio", &["all", "ooo_ratio"], pct),
    Col::mean(
        "faults_applied",
        "faults_applied",
        &["counters", "faults_applied"],
        f0,
    ),
];

/// `--scenario PATH`: parse + validate the spec file (span-quality errors
/// verbatim from the parser), run it through the cached runner, print a
/// summary table, and honor `--json`/`--stable-json` like any figure run.
pub fn drive_scenario(cli: &BenchCli, path: &Path) -> Result<(), DriveError> {
    let text = std::fs::read_to_string(path).map_err(|e| {
        DriveError::Spec(format!("cannot read scenario spec {}: {e}", path.display()))
    })?;
    let spec = ScenarioSpec::parse(&text)
        .map_err(|e| DriveError::Spec(format!("in {}:\n{e}", path.display())))?;
    let jobs = scenario_jobs(&spec, &cli.seed_offsets(), cli.shards).map_err(DriveError::Spec)?;
    let summary = run_jobs(jobs, &cli.runner_config(true))?;

    // One row per seed: replicates of a spec are runs to look at, not a
    // point to average.
    let rows: Vec<Json> = summary
        .outcomes
        .iter()
        .flat_map(|o| table::rows([o], &SCENARIO_COLS))
        .collect();
    let t = table::render(&rows, &SCENARIO_COLS);
    println!("scenario {} ({})\n{t}", spec.label(), path.display());
    Ok(finish(cli, &[], &summary)?)
}

fn point_json(o: &JobOutcome, stable: bool) -> Json {
    let mut metrics = o.metrics.clone();
    if stable {
        // The per-job perf block is wall-clock telemetry; two byte-identical
        // stable reports must not differ because one machine was slower.
        metrics.remove("perf");
    }
    let mut p = Json::obj([
        ("fig", Json::Str(o.fig.to_string())),
        ("label", Json::Str(o.label.clone())),
        ("seed", Json::U64(o.seed)),
        ("metrics", metrics),
    ]);
    if !stable {
        // The cache key hashes the full job spec, which includes the shard
        // count — a cache-layout detail, not simulation output. Stable
        // reports omit it so `--shards 1` and `--shards N` byte-compare.
        p.set("key", Json::Str(o.key_hex.clone()));
        p.set("wall_ms", Json::F64(o.wall_ms));
        p.set("cached", Json::Bool(o.cached));
    }
    p
}

/// Aggregate the per-job `perf` blocks into the report-level summary:
/// total events dispatched, total in-simulation wall time, the batch
/// events/sec rate, and every `PerfStats` field folded over the jobs the
/// way it declares — counts as `<name>_total`; peaks and rates, which do
/// not add across independent runs, as the batch's `<name>_max` (the
/// perf-smoke CI gate reads `aggregate_events_per_sec_max` as the fleet's
/// peak throughput). Cached jobs contribute the numbers recorded when they
/// originally executed, so the rate describes simulator speed rather than
/// cache luck; jobs_executed / jobs_cached disambiguate.
fn perf_aggregate(summary: &RunSummary) -> Json {
    let mut events_total: u64 = 0;
    let mut sim_wall_ms: f64 = 0.0;
    // One accumulator per declared field, starting at its typed zero.
    let mut folded = PerfStats::default().fields();
    for p in summary
        .outcomes
        .iter()
        .filter_map(|o| o.metrics.get("perf"))
    {
        events_total += p
            .get("events_processed")
            .and_then(Json::as_u64)
            .unwrap_or(0);
        sim_wall_ms += p.get("wall_ms").and_then(Json::as_f64).unwrap_or(0.0);
        for ((name, acc), (_, how)) in folded.iter_mut().zip(PerfStats::FIELDS) {
            let v = p.get(name);
            let v = match acc {
                Num::U64(_) => v.and_then(Json::as_u64).map(Num::U64),
                Num::F64(_) => v.and_then(Json::as_f64).map(Num::F64),
            };
            if let Some(v) = v {
                acc.fold(v, *how);
            }
        }
    }
    let rate = if sim_wall_ms > 0.0 {
        events_total as f64 / (sim_wall_ms / 1e3)
    } else {
        0.0
    };
    let mut out = Json::obj([
        ("events_processed_total", Json::U64(events_total)),
        ("sim_wall_ms_total", Json::F64(sim_wall_ms)),
        ("events_per_sec", Json::F64(rate)),
    ]);
    for ((name, acc), (_, how)) in folded.into_iter().zip(PerfStats::FIELDS) {
        let folded_as = match how {
            Merge::Sum => "total",
            Merge::Max => "max",
            Merge::Keep => continue,
        };
        out.set(&format!("{name}_{folded_as}"), acc.into());
    }
    out.set("jobs_executed", Json::U64(summary.executed as u64));
    out.set("jobs_cached", Json::U64(summary.cache_hits as u64));
    out
}

/// The schema-versioned report object. With `--stable-json`, wall-clock
/// and cache fields are omitted so byte-identical inputs yield
/// byte-identical reports (the determinism tests rely on this).
pub fn build_report(
    cli: &BenchCli,
    reports: &[(&'static dyn Figure, FigureReport)],
    summary: &RunSummary,
) -> Json {
    let mut out = Json::obj([
        ("schema_version", Json::U64(CACHE_SCHEMA_VERSION as u64)),
        ("generator", Json::Str("rlb-bench".to_string())),
        ("scale", Json::Str(cli.scale.name().to_string())),
        ("seeds", Json::U64(cli.seeds as u64)),
        (
            "figures",
            Json::Arr(
                reports
                    .iter()
                    .map(|(f, _)| {
                        Json::obj([
                            ("name", Json::Str(f.name().to_string())),
                            ("description", Json::Str(f.description().to_string())),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "rows",
            Json::Obj(
                reports
                    .iter()
                    .map(|(f, r)| (f.name().to_string(), r.rows.clone()))
                    .collect(),
            ),
        ),
        (
            "points",
            Json::Arr(
                summary
                    .outcomes
                    .iter()
                    .map(|o| point_json(o, cli.stable_json))
                    .collect(),
            ),
        ),
    ]);
    if !cli.stable_json {
        out.set(
            "timing",
            Json::obj([
                ("executed", Json::U64(summary.executed as u64)),
                ("cache_hits", Json::U64(summary.cache_hits as u64)),
                ("total_wall_ms", Json::F64(summary.total_wall_ms)),
            ]),
        );
        out.set("perf", perf_aggregate(summary));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn resolves_defaults_and_rejects_unknown() {
        let cli = BenchCli::default();
        let all = resolve_figures(&cli).expect("all figures");
        assert_eq!(all.len(), registry().len());

        let cli = BenchCli {
            figs: Some(vec!["fig3".into(), "nope".into()]),
            ..BenchCli::default()
        };
        let err = match resolve_figures(&cli) {
            Err(e) => e,
            Ok(_) => panic!("unknown figure must be rejected"),
        };
        assert!(err.contains("nope") && err.contains("fig3"), "{err}");
    }

    #[test]
    fn figs_flag_selects_a_subset() {
        let cli = BenchCli {
            figs: Some(vec!["fig9".into()]),
            ..BenchCli::default()
        };
        let figs = resolve_figures(&cli).expect("subset");
        assert_eq!(figs.len(), 1);
        assert_eq!(figs[0].name(), "fig9");
    }

    #[test]
    fn stable_report_omits_timing_fields() {
        let outcome = JobOutcome {
            fig: "fig3",
            label: "x".into(),
            seed: 1,
            key_hex: "00".into(),
            metrics: Json::obj([
                ("m", Json::U64(1)),
                (
                    "perf",
                    Json::obj([
                        ("events_processed", Json::U64(5000)),
                        ("wall_ms", Json::F64(250.0)),
                        ("events_per_sec", Json::F64(20_000.0)),
                    ]),
                ),
            ]),
            wall_ms: 12.0,
            cached: true,
        };
        let summary = RunSummary {
            outcomes: vec![outcome],
            cache_hits: 1,
            executed: 0,
            total_wall_ms: 12.0,
        };
        let mut cli = BenchCli::default();
        let full = build_report(&cli, &[], &summary);
        assert!(full.get("timing").is_some());
        let p = &full.path(&["points"]).unwrap().as_arr().unwrap()[0];
        assert!(p.get("wall_ms").is_some());
        assert!(p.path(&["metrics", "perf", "events_per_sec"]).is_some());
        // Aggregate: 5000 events over 250 ms = 20k events/sec.
        assert_eq!(
            full.path(&["perf", "events_processed_total"])
                .and_then(Json::as_u64),
            Some(5000)
        );
        let rate = full
            .path(&["perf", "events_per_sec"])
            .and_then(Json::as_f64)
            .expect("aggregate rate");
        assert!((rate - 20_000.0).abs() < 1e-9, "rate={rate}");

        cli.stable_json = true;
        let stable = build_report(&cli, &[], &summary);
        assert!(stable.get("timing").is_none());
        assert!(stable.get("perf").is_none());
        let p = &stable.path(&["points"]).unwrap().as_arr().unwrap()[0];
        assert!(p.get("wall_ms").is_none() && p.get("cached").is_none());
        assert!(p.path(&["metrics", "perf"]).is_none());
        assert!(p.path(&["metrics", "m"]).is_some());
        assert_eq!(
            stable.get("schema_version").and_then(Json::as_u64),
            Some(CACHE_SCHEMA_VERSION as u64)
        );
    }
}
