//! Fig. 8 — incast: out-of-order ratio and incast completion time while
//! varying the incast degree (10–25) and total response size (4–10 MB),
//! for all eight scheme variants.

use super::common::{pick, Variant};
use super::table::{self, ms, pct, text, Col, Sweep};
use super::{Figure, FigureReport};
use crate::json::Json;
use crate::runner::{Job, JobOutcome};
use crate::Scale;
use rlb_engine::SimDuration;
use rlb_net::scenario::{IncastScenarioConfig, Scenario};
use rlb_net::TopoConfig;

/// `x` is the swept value: incast degree or response megabytes, by `part`.
const COLS: [Col; 5] = [
    Col::coord("part", "", text),
    Col::coord("variant", "scheme", text),
    Col::coord("x", "x", text),
    Col::mean("ooo_ratio", "ooo_packets", &["all", "ooo_ratio"], pct),
    Col::mean(
        "incast_completion_ms",
        "incast_completion_ms",
        &["mean_group_completion_ms"],
        ms,
    ),
];

pub const DEGREES: [u32; 4] = [10, 15, 20, 25];
pub const RESPONSE_MB: [u64; 4] = [4, 6, 8, 10];

const PART_DEGREE: &str = "degree";
const PART_RESPONSE: &str = "response_MB";

fn base_config(scale: Scale) -> IncastScenarioConfig {
    // The Quick fabric needs enough other-leaf hosts for the largest
    // incast degree (25): 4 leaves x 12 hosts leaves 36 candidates.
    let quick_topo = TopoConfig {
        hosts_per_leaf: 12,
        ..TopoConfig::default()
    };
    IncastScenarioConfig {
        topo: pick(scale, quick_topo, TopoConfig::paper_scale()),
        degree: 15,
        total_response_bytes: 4_000_000,
        requests: pick(scale, 8, 20),
        request_interval: SimDuration::from_ms(1),
        background_load: 0.2,
        seed: 17,
    }
}

pub struct Fig8;

impl Figure for Fig8 {
    fn name(&self) -> &'static str {
        "fig8"
    }

    fn description(&self) -> &'static str {
        "Incast OOO ratio and completion time vs. degree (a,c) and response size (b,d)"
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
        for (part, xs) in [
            (PART_DEGREE, DEGREES.map(|d| d as u64)),
            (PART_RESPONSE, RESPONSE_MB),
        ] {
            for v in Variant::all_eight() {
                for &x in &xs {
                    for &offset in seeds {
                        let mut ic = base_config(scale);
                        ic.seed += offset;
                        if part == PART_DEGREE {
                            ic.degree = x as u32;
                        } else {
                            ic.total_response_bytes = x * 1_000_000;
                        }
                        jobs.push(sweep.point(
                            format!("{part} {} x={x}", v.label()),
                            v.label(),
                            vec![("part", Json::Str(part.to_string())), ("x", Json::U64(x))],
                            ic.seed,
                            (v.clone(), ic),
                            |(v, ic)| Scenario::incast(ic, v.scheme, v.rlb.clone()),
                        ));
                    }
                }
            }
        }
        jobs
    }

    fn reduce(&self, outcomes: &[JobOutcome]) -> FigureReport {
        let rows = table::rows(outcomes, &COLS);
        let parts = [
            (
                PART_DEGREE,
                "Fig. 8(a,c) — varying incast degree (total response 4MB)",
            ),
            (
                PART_RESPONSE,
                "Fig. 8(b,d) — varying total response size (degree 15)",
            ),
        ];
        // The tables lead with the swept axis; the JSON rows keep the
        // variant first.
        let mut cols = COLS;
        cols.swap(1, 2);
        FigureReport {
            sections: table::part_sections(&rows, cols, &parts),
            rows: Json::Arr(rows),
            cdf_dumps: Vec::new(),
        }
    }
}
