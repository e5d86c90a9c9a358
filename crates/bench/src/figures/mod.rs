//! One module per figure of the paper's evaluation (the paper has no
//! numbered tables), unified behind the [`Figure`] trait.
//!
//! Each figure describes itself as a set of [`Job`]s — one per (variant,
//! sweep point, seed) — its columns, and a `reduce` step that folds the
//! jobs' metrics back into the figure's rows and rendered tables. The
//! generic halves of both — point → job, outcomes → rows → table — live
//! in [`table`]; a figure module is its sweep loops, its config, a
//! `&[Col]` and its section titles. The runner (`crate::runner`) executes
//! any job set in parallel with caching; `crate::drive` never hand-matches
//! on figure names — it goes through [`registry`].

pub mod common;
pub mod dumbbell;
pub mod fig10;
pub mod fig3;
pub mod fig4;
pub mod fig6;
pub mod fig7;
pub mod fig8;
pub mod fig9;
pub mod fig_fail;
pub mod table;

use crate::json::Json;
use crate::runner::{Job, JobOutcome};
use crate::Scale;

/// Reduced output of one figure: rendered tables plus structured rows for
/// the JSON report.
pub struct FigureReport {
    /// `(title, rendered table)` in print order.
    pub sections: Vec<(String, String)>,
    /// Structured rows (an array, figure-specific layout) embedded in the
    /// `BENCH_*.json` report.
    pub rows: Json,
    /// Optional gnuplot-style series dumps (fig6's CDFs), printed only
    /// when `--cdf` is passed.
    pub cdf_dumps: Vec<String>,
}

/// A paper figure as an executable experiment family.
pub trait Figure: Sync {
    /// Registry name (`"fig3"`, ... — what `--figs` matches).
    fn name(&self) -> &'static str;

    /// One-line description for `--help`-ish listings and reports.
    fn description(&self) -> &'static str;

    /// Expand into runnable jobs. `seeds` are *offsets* (0, 1, ..): each
    /// point replicates once per offset, with the figure's base seed
    /// shifted by it; `reduce` averages replicates per point. `shards` is
    /// the window-driver shard count (1 = one replica, no peers) — it is
    /// part of each job's cache-key spec because it changes the perf
    /// telemetry, even though the simulation output is byte-identical.
    fn jobs(&self, scale: Scale, seeds: &[u64], shards: u16) -> Vec<Job>;

    /// The members of each JSON row, in order; the headed ones are the
    /// printed table's columns (a figure with parts may retitle or reorder
    /// them per section).
    fn cols(&self) -> &'static [table::Col];

    /// Fold this figure's outcomes (all seeds) back into rows/tables.
    fn reduce(&self, outcomes: &[JobOutcome]) -> FigureReport;
}

/// Every figure, in paper order, then the tables the paper never ran:
/// `fig_fail` and the three dumbbell tables. The single source of truth
/// driving bare `bench` (every figure) and `--figs` filtering.
pub fn registry() -> &'static [&'static dyn Figure] {
    &[
        &fig3::Fig3,
        &fig4::Fig4,
        &fig6::Fig6,
        &fig7::Fig7,
        &fig8::Fig8,
        &fig9::Fig9,
        &fig10::Fig10,
        &fig_fail::FigFail,
        &dumbbell::SANITY,
        &dumbbell::ABLATIONS,
        &dumbbell::IRN_COMPARE,
    ]
}

/// Look a figure up by registry name.
pub fn by_name(name: &str) -> Option<&'static dyn Figure> {
    registry().iter().copied().find(|f| f.name() == name)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_names_are_unique_and_resolvable() {
        let names: Vec<&str> = registry().iter().map(|f| f.name()).collect();
        for (i, n) in names.iter().enumerate() {
            assert!(!names[..i].contains(n), "duplicate figure name {n}");
            assert_eq!(by_name(n).expect("resolvable").name(), *n);
            assert!(!by_name(n).expect("resolvable").description().is_empty());
        }
        assert!(by_name("fig99").is_none());
        assert_eq!(
            names,
            vec![
                "fig3",
                "fig4",
                "fig6",
                "fig7",
                "fig8",
                "fig9",
                "fig10",
                "fig_fail",
                "sanity",
                "ablations",
                "irn_compare"
            ]
        );
    }

    #[test]
    fn every_figure_expands_jobs_with_correct_fig_tag_and_seeds() {
        for fig in registry() {
            let jobs = fig.jobs(Scale::Quick, &[0, 1], 1);
            assert!(!jobs.is_empty(), "{} has no jobs", fig.name());
            let single = fig.jobs(Scale::Quick, &[0], 1);
            assert_eq!(
                jobs.len(),
                2 * single.len(),
                "{}: seeds scale jobs",
                fig.name()
            );
            for j in &jobs {
                assert_eq!(j.fig, fig.name());
                assert!(!j.spec.is_empty(), "{}: empty spec", fig.name());
                assert!(!j.label.is_empty(), "{}: empty label", fig.name());
            }
            // Same (label, seed) must never repeat — it would collide in
            // the cache and double-count in reduce.
            let mut ids: Vec<(String, u64)> =
                jobs.iter().map(|j| (j.label.clone(), j.seed)).collect();
            let before = ids.len();
            ids.sort();
            ids.dedup();
            assert_eq!(ids.len(), before, "{}: duplicate (label, seed)", fig.name());
        }
    }

    /// What `run_jobs` would return for `fig` at two seeds, without
    /// running anything: each job's coordinates at the head of a canned
    /// run's metrics (a little different per seed, so means are means).
    fn synthetic_outcomes(fig: &dyn Figure) -> Vec<JobOutcome> {
        fig.jobs(Scale::Quick, &[0, 1], 1)
            .into_iter()
            .map(|j| {
                let mut res = common::canned_result();
                res.counters.pause_frames += j.seed;
                res.records[0].finish_ps = Some(2_000_000_000 + j.seed * 1_000_000);
                // The dumbbell tables measure this one after the run.
                let extras = j
                    .coords
                    .iter()
                    .cloned()
                    .chain([("retx_pkts", Json::U64(j.seed))]);
                JobOutcome {
                    fig: j.fig,
                    key_hex: j.key_hex(),
                    metrics: common::metrics_of(&j.label, &res, extras.collect()),
                    label: j.label,
                    seed: j.seed,
                    wall_ms: 0.0,
                    cached: false,
                }
            })
            .collect()
    }

    #[test]
    fn every_figure_reduces_to_its_declared_columns_cold_and_warm_alike() {
        for fig in registry() {
            let name = fig.name();
            let cold = synthetic_outcomes(*fig);
            let report = fig.reduce(&cold);

            let labels = crate::runner::by_label(&cold).len();
            let rows = report.rows.as_arr().expect("rows are an array");
            assert_eq!(rows.len(), labels, "{name}: one row per point label");
            let keys: Vec<&str> = fig.cols().iter().map(|c| c.key).collect();
            for row in rows {
                assert_eq!(
                    row.keys(),
                    keys,
                    "{name}: row members are the declared columns"
                );
                assert!(
                    keys.iter().all(|k| row.get(k) != Some(&Json::Null)),
                    "{name}: {row:?}"
                );
            }

            let headed = fig.cols().iter().filter(|c| !c.head.is_empty()).count();
            assert!(!report.sections.is_empty(), "{name}: no table");
            let mut printed = 0;
            for (title, table) in &report.sections {
                let mut lines = table.lines();
                let heads = lines.next().expect("header line").split("  ");
                assert_eq!(
                    heads.filter(|h| !h.is_empty()).count(),
                    headed,
                    "{name}: {title}"
                );
                printed += lines.count() - 1; // the rule under the header
            }
            assert_eq!(
                printed, labels,
                "{name}: every row is printed in one section"
            );

            // Served from the cache, whole floats come back as `U64` and
            // NaN as `null`; the report must not notice.
            let warm: Vec<JobOutcome> = cold
                .iter()
                .map(|o| JobOutcome {
                    metrics: crate::json::parse(&o.metrics.pretty()).expect("round-trips"),
                    ..o.clone()
                })
                .collect();
            let rewarmed = fig.reduce(&warm);
            assert_eq!(rewarmed.rows.pretty(), report.rows.pretty(), "{name}: rows");
            assert_eq!(rewarmed.sections, report.sections, "{name}: tables");
            assert_eq!(rewarmed.cdf_dumps, report.cdf_dumps, "{name}: CDF dumps");
        }
    }

    #[test]
    fn shard_count_changes_every_cache_key() {
        // `--shards` changes the perf telemetry, so cached metrics from a
        // different shard count must never be served.
        for fig in registry() {
            let seq: Vec<u64> = fig
                .jobs(Scale::Quick, &[0], 1)
                .iter()
                .map(Job::key)
                .collect();
            let par: Vec<u64> = fig
                .jobs(Scale::Quick, &[0], 4)
                .iter()
                .map(Job::key)
                .collect();
            assert_eq!(seq.len(), par.len());
            for (a, b) in seq.iter().zip(&par) {
                assert_ne!(a, b, "{}: shard count missing from a job spec", fig.name());
            }
        }
    }
}
