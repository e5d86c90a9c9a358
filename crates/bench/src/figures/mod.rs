//! One module per figure of the paper's evaluation (the paper has no
//! numbered tables), unified behind the [`Figure`] trait.
//!
//! Each figure describes itself as a set of [`Job`]s — one per (variant,
//! sweep point, seed) — and a `reduce` step that folds the jobs' metrics
//! back into the figure's rows and rendered tables. The runner
//! (`crate::runner`) executes any job set in parallel with caching; the
//! binaries and `crate::drive` never hand-match on figure names — they go
//! through [`registry`].

pub mod common;
pub mod fig10;
pub mod fig3;
pub mod fig4;
pub mod fig6;
pub mod fig7;
pub mod fig8;
pub mod fig9;
pub mod fig_fail;

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

    /// Fold this figure's outcomes (all seeds) back into rows/tables.
    fn reduce(&self, outcomes: &[JobOutcome]) -> FigureReport;
}

/// Every figure, in paper order, then the extras the paper never ran
/// (`fig_fail`). The single source of truth driving bare `bench` (every
/// figure) and `--figs` filtering.
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
            vec!["fig3", "fig4", "fig6", "fig7", "fig8", "fig9", "fig10", "fig_fail"]
        );
    }

    #[test]
    fn every_figure_expands_jobs_with_correct_fig_tag_and_seeds() {
        for fig in registry() {
            let jobs = fig.jobs(Scale::Quick, &[0, 1], 1);
            assert!(!jobs.is_empty(), "{} has no jobs", fig.name());
            let single = fig.jobs(Scale::Quick, &[0], 1);
            assert_eq!(jobs.len(), 2 * single.len(), "{}: seeds scale jobs", fig.name());
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

    #[test]
    fn shard_count_changes_every_cache_key() {
        // `--shards` changes the perf telemetry, so cached metrics from a
        // different shard count must never be served.
        for fig in registry() {
            let seq: Vec<u64> = fig.jobs(Scale::Quick, &[0], 1).iter().map(Job::key).collect();
            let par: Vec<u64> = fig.jobs(Scale::Quick, &[0], 4).iter().map(Job::key).collect();
            assert_eq!(seq.len(), par.len());
            for (a, b) in seq.iter().zip(&par) {
                assert_ne!(a, b, "{}: shard count missing from a job spec", fig.name());
            }
        }
    }
}
