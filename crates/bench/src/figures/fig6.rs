//! Fig. 6 — FCT CDF of every flow, each scheme vs. its RLB-enhanced
//! version, symmetric leaf–spine, Web Search at 60% core load.

use super::common::{pick, Variant};
use super::table::{self, ms, pct, text, Col, Sweep};
use super::{Figure, FigureReport};
use crate::json::Json;
use crate::runner::{Job, JobOutcome};
use crate::Scale;
use rlb_engine::SimTime;
use rlb_net::scenario::{Scenario, SteadyStateConfig};
use rlb_net::TopoConfig;
use rlb_workloads::Workload;

const COLS: [Col; 7] = [
    Col::coord("variant", "scheme", text),
    Col::mean("avg_fct_ms", "avg_ms", &["all", "avg_fct_ms"], ms),
    Col::mean("p50_fct_ms", "p50_ms", &["all", "p50_fct_ms"], ms),
    Col::mean("p99_fct_ms", "p99_ms", &["all", "p99_fct_ms"], ms),
    Col::mean("ooo_ratio", "ooo", &["all", "ooo_ratio"], pct),
    Col::count("pause_frames", "pauses", &["counters", "pause_frames"]),
    // JSON only: no head.
    Col::coord("fct_cdf", "", text),
];

pub fn config(scale: Scale) -> SteadyStateConfig {
    SteadyStateConfig {
        topo: pick(scale, TopoConfig::default(), TopoConfig::paper_scale()),
        workload: Workload::WebSearch,
        load: 0.6,
        horizon: SimTime::from_ms(pick(scale, 10, 25)),
        seed: 7,
    }
}

pub struct Fig6;

impl Figure for Fig6 {
    fn name(&self) -> &'static str {
        "fig6"
    }

    fn description(&self) -> &'static str {
        "FCT under the symmetric topology, Web Search @ 60% load (8 variants)"
    }

    fn cols(&self) -> &'static [Col] {
        &COLS
    }

    fn jobs(&self, scale: Scale, seeds: &[u64], shards: u16) -> Vec<Job> {
        let sweep = Sweep {
            fig: self.name(),
            shards,
        };
        let mut jobs = Vec::new();
        for v in Variant::all_eight() {
            for &offset in seeds {
                let mut sc = config(scale);
                sc.seed += offset;
                jobs.push(sweep.point(
                    v.label(),
                    v.label(),
                    Vec::new(),
                    sc.seed,
                    (v.clone(), sc),
                    |(v, sc)| Scenario::steady_state(sc, v.scheme, v.rlb.clone()),
                ));
            }
        }
        jobs
    }

    fn reduce(&self, outcomes: &[JobOutcome]) -> FigureReport {
        let title = "Fig. 6 — FCT under symmetric topology, Web Search @ 60% load";
        let mut report = table::report(title, outcomes, &COLS);
        report.cdf_dumps = report
            .rows
            .as_arr()
            .unwrap_or(&[])
            .iter()
            .map(cdf_dump)
            .collect();
        report
    }
}

/// The CDF series of one variant's row, as "fct_ms cum_prob" lines (gnuplot
/// friendly), mirroring the curves in Fig. 6.
fn cdf_dump(row: &Json) -> String {
    let mut out = format!("# {} FCT CDF\n", row.str_of("variant"));
    for pair in row.get("fct_cdf").and_then(Json::as_arr).unwrap_or(&[]) {
        if let Some([x, p]) = pair.as_arr() {
            out.push_str(&format!("{:.4} {:.4}\n", table::num(x), table::num(p)));
        }
    }
    out
}
