//! The one generic path from a figure's sweep to its report.
//!
//! A figure is its sweep loops, its scenario config and a `&[Col]`; what
//! every figure used to spell out by hand lives here once: [`Sweep::point`]
//! turns one sweep point into a [`Job`] (cache-key spec included),
//! [`rows`] folds finished outcomes into one JSON row per point label, and
//! [`render`] prints those rows as the ASCII table.

use super::common::run_metrics;
use super::FigureReport;
use crate::json::Json;
use crate::runner::{by_label, mean_metric, Job, JobOutcome};
use rlb_metrics::Table;
use rlb_net::Scenario;
use std::fmt::Debug;

/// A path into a job's metrics object (`&["background", "p99_ood"]`).
pub type Path = &'static [&'static str];

/// How a cell of the printed table is formatted from its row member.
pub type Cell = fn(&Json) -> String;

/// Where a column's value comes from.
#[derive(Debug, Clone, Copy)]
pub enum Src {
    /// The top-level metrics member of the column's name, as the point's
    /// first replicate has it: a sweep coordinate or `variant`, which all
    /// replicates share, or a distribution (fig6's CDF), which is reported
    /// as one curve rather than a point-wise mean.
    Coord,
    /// Mean over the point's seed replicates of the number at this path.
    Mean(Path),
    /// That mean, rounded to a whole count.
    MeanRound(Path),
    /// Left `null` by [`rows`] for a step over the finished rows to fill
    /// in (fig10's per-workload normalisation).
    Step,
}

/// One column of a figure: a member of each of its JSON rows and, unless
/// `head` is empty, a column of its printed table.
#[derive(Debug, Clone, Copy)]
pub struct Col {
    pub key: &'static str,
    pub head: &'static str,
    pub src: Src,
    pub cell: Cell,
}

impl Col {
    const fn new(key: &'static str, head: &'static str, src: Src, cell: Cell) -> Col {
        Col {
            key,
            head,
            src,
            cell,
        }
    }

    pub const fn coord(key: &'static str, head: &'static str, cell: Cell) -> Col {
        Col::new(key, head, Src::Coord, cell)
    }

    pub const fn mean(key: &'static str, head: &'static str, path: Path, cell: Cell) -> Col {
        Col::new(key, head, Src::Mean(path), cell)
    }

    /// A mean shown as the whole count it rounds to.
    pub const fn count(key: &'static str, head: &'static str, path: Path) -> Col {
        Col::new(key, head, Src::MeanRound(path), text)
    }

    pub const fn step(key: &'static str, head: &'static str, cell: Cell) -> Col {
        Col::new(key, head, Src::Step, cell)
    }
}

/// Cell formatters. Numbers go through `as_f64`, so a coordinate reads the
/// same whether it is still the `F64` the job wrote or the `U64` a whole
/// value parses back to from the cache.
pub fn text(v: &Json) -> String {
    match v {
        Json::Str(s) => s.clone(),
        Json::U64(n) => n.to_string(),
        Json::Bool(on) => if *on { "on" } else { "off" }.to_string(),
        other => num(other).to_string(),
    }
}

pub fn ms(v: &Json) -> String {
    rlb_metrics::ms(num(v))
}

pub fn pct(v: &Json) -> String {
    rlb_metrics::pct(num(v))
}

pub fn f0(v: &Json) -> String {
    format!("{:.0}", num(v))
}

pub fn num(v: &Json) -> f64 {
    v.as_f64().expect("numeric cell")
}

/// What the points of one figure run share.
pub struct Sweep {
    /// Registry name of the figure.
    pub fig: &'static str,
    /// Window-driver shard count (`--shards`).
    pub shards: u16,
}

impl Sweep {
    /// One sweep point: the run of the scenario `build` makes of `what`,
    /// reduced to the standard metrics object with `coords` at its head
    /// and `variant` as its variant label. `what` is the scheme variant
    /// and the scenario config, as a tuple; whatever else `build` reads
    /// must be a coordinate.
    pub fn point<W: Debug + Send + Sync + 'static>(
        &self,
        label: String,
        variant: String,
        coords: Vec<(&'static str, Json)>,
        seed: u64,
        what: W,
        build: impl Fn(&W) -> Scenario + Send + Sync + 'static,
    ) -> Job {
        let (shards, extras) = (self.shards, coords.clone());
        self.job(label, coords, seed, what, move |what| {
            run_metrics(variant.clone(), build(what), shards, extras.clone())
        })
    }

    /// A job around any metrics closure over `what`. Its cache-key spec is
    /// written here and nowhere else — the shard count (it changes the
    /// perf telemetry), every coordinate, and the `Debug` rendering of
    /// `what` — so a coordinate cannot be left out of a key.
    pub fn job<W: Debug + Send + Sync + 'static>(
        &self,
        label: String,
        coords: Vec<(&'static str, Json)>,
        seed: u64,
        what: W,
        run: impl Fn(&W) -> Json + Send + Sync + 'static,
    ) -> Job {
        let at: String = coords.iter().map(|(k, v)| format!("{k}={v:?}|")).collect();
        Job {
            fig: self.fig,
            label,
            seed,
            spec: format!("shards={}|{at}{what:?}", self.shards),
            coords,
            run: Box::new(move || run(&what)),
        }
    }
}

/// One JSON row per point label, in first-seen order, with one member per
/// column in `cols` order.
pub fn rows<'a>(outcomes: impl IntoIterator<Item = &'a JobOutcome>, cols: &[Col]) -> Vec<Json> {
    by_label(outcomes)
        .into_iter()
        .map(|(label, reps)| {
            let first = &reps[0].metrics;
            Json::obj(cols.iter().map(|c| {
                let v = match c.src {
                    Src::Coord => first.get(c.key).cloned(),
                    Src::Step => Some(Json::Null),
                    Src::Mean(path) => Some(Json::F64(mean_metric(&reps, path))),
                    Src::MeanRound(path) => {
                        Some(Json::U64(mean_metric(&reps, path).round() as u64))
                    }
                };
                let v = v.unwrap_or_else(|| panic!("point `{label}`: metrics lack `{}`", c.key));
                (c.key, v)
            }))
        })
        .collect()
}

/// The rows whose `key` member is the string `value` (fig4/fig8/fig10's
/// parts, fig7's workloads).
pub fn having<'a>(
    rows: &'a [Json],
    key: &'a str,
    value: &'a str,
) -> impl Iterator<Item = &'a Json> + Clone {
    rows.iter().filter(move |r| r.str_of(key) == value)
}

/// One `(title, table)` section per `(part, title)`: the rows of that
/// `part` under `cols`, whose shared `x` column — each part sweeps its own
/// axis along it — is headed by the part's name.
pub fn part_sections<const N: usize>(
    rows: &[Json],
    cols: [Col; N],
    parts: &[(&'static str, &str)],
) -> Vec<(String, String)> {
    let section = |&(part, title): &(&'static str, &str)| {
        let cols = cols.map(|c| {
            if c.key == "x" {
                Col { head: part, ..c }
            } else {
                c
            }
        });
        (title.to_string(), render(having(rows, "part", part), &cols))
    };
    parts.iter().map(section).collect()
}

/// The ASCII table of `rows`: one column per headed `Col`, in `cols` order.
pub fn render<'a>(rows: impl IntoIterator<Item = &'a Json>, cols: &[Col]) -> String {
    let shown: Vec<&Col> = cols.iter().filter(|c| !c.head.is_empty()).collect();
    let mut t = Table::new(shown.iter().map(|c| c.head).collect());
    for row in rows {
        let cell = |c: &&Col| (c.cell)(row.get(c.key).expect("row built from these columns"));
        t.row(shown.iter().map(cell).collect::<Vec<String>>());
    }
    t.render()
}

/// The report of a figure that is one table.
pub fn report(title: &str, outcomes: &[JobOutcome], cols: &[Col]) -> FigureReport {
    let rows = rows(outcomes, cols);
    FigureReport {
        sections: vec![(title.to_string(), render(&rows, cols))],
        rows: Json::Arr(rows),
        cdf_dumps: Vec::new(),
    }
}
