//! Fig. 4 — reordering grows with the number of PFC-affected paths (a)
//! and with the number of continuous bursts (b).
//!
//! Same dumbbell as Fig. 3; sweeps the congested traffic's path fan-out
//! (5–30 of 40) and the burst count (1–6), reporting the out-of-order
//! packet ratio of the background flows under each vanilla scheme.

use super::common::Variant;
use super::table::{self, pct, text, Col, Sweep};
use super::{fig3, Figure, FigureReport};
use crate::json::Json;
use crate::runner::{Job, JobOutcome};
use crate::Scale;
use rlb_lb::Scheme;
use rlb_net::scenario::Scenario;

/// `x` is the swept value: affected paths or burst count, by `part`.
const COLS: [Col; 4] = [
    Col::coord("part", "", text),
    Col::coord("scheme", "scheme", text),
    Col::coord("x", "x", text),
    Col::mean(
        "ooo_ratio",
        "ooo_packets",
        &["background", "ooo_ratio"],
        pct,
    ),
];

pub const AFFECTED_PATHS: [u32; 6] = [5, 10, 15, 20, 25, 30];
pub const BURSTS: [u32; 6] = [1, 2, 3, 4, 5, 6];

const PART_PATHS: &str = "affected_paths";
const PART_BURSTS: &str = "bursts";

pub struct Fig4;

impl Figure for Fig4 {
    fn name(&self) -> &'static str {
        "fig4"
    }

    fn description(&self) -> &'static str {
        "OOO packets vs. PFC-affected paths (a) and continuous bursts (b)"
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
        for (part, xs) in [(PART_PATHS, AFFECTED_PATHS), (PART_BURSTS, BURSTS)] {
            for &scheme in &Scheme::PAPER_SET {
                for &x in &xs {
                    for &offset in seeds {
                        let mut mc = fig3::config(scale);
                        mc.seed += offset;
                        // Keep the congested traffic intense enough that even
                        // a 30-path fan-out can push every affected ingress
                        // over the PFC threshold (the paper's fc is a
                        // sustained 250 MB flow).
                        mc.n_burst_senders = 4;
                        if part == PART_PATHS {
                            mc.flows_per_burst = 60;
                            mc.bursts = 4;
                            mc.congested_flow_bytes = 60_000_000;
                            mc.affected_paths = x;
                        } else {
                            mc.bursts = x;
                        }
                        let v = Variant::vanilla(scheme);
                        jobs.push(sweep.point(
                            format!("{part} {} x={x}", scheme.name()),
                            v.label(),
                            vec![
                                ("part", Json::Str(part.to_string())),
                                ("scheme", Json::Str(scheme.name().to_string())),
                                ("x", Json::U64(x as u64)),
                            ],
                            mc.seed,
                            (v, mc),
                            |(v, mc)| Scenario::motivation(mc, v.scheme, None),
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
                PART_PATHS,
                "Fig. 4(a) — out-of-order packets vs. number of affected paths",
            ),
            (
                PART_BURSTS,
                "Fig. 4(b) — out-of-order packets vs. number of continuous bursts",
            ),
        ];
        FigureReport {
            sections: table::part_sections(&rows, COLS, &parts),
            rows: Json::Arr(rows),
            cdf_dumps: Vec::new(),
        }
    }
}
