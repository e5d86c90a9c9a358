//! Fig. 7 — average FCT vs. load (0.2–0.7) under the asymmetric topology
//! (20% of leaf–spine links degraded 40→10 Gbps), DRILL and Hermes with
//! and without RLB, across all four workloads.

use super::common::{pick, Variant};
use super::table::{self, ms, text, Col, Sweep};
use super::{Figure, FigureReport};
use crate::json::Json;
use crate::runner::{Job, JobOutcome};
use crate::Scale;
use rlb_engine::SimTime;
use rlb_lb::Scheme;
use rlb_net::scenario::{asymmetric_topo, Scenario, SteadyStateConfig};
use rlb_net::TopoConfig;
use rlb_workloads::Workload;

const COLS: [Col; 5] = [
    Col::coord("workload", "workload", text),
    Col::coord("variant", "scheme", text),
    Col::coord("load", "load", |v| format!("{:.1}", table::num(v))),
    Col::mean("avg_fct_ms", "avg_fct_ms", &["all", "avg_fct_ms"], ms),
    Col::mean("p99_fct_ms", "p99_fct_ms", &["all", "p99_fct_ms"], ms),
];

pub const LOADS: [f64; 6] = [0.2, 0.3, 0.4, 0.5, 0.6, 0.7];

pub fn variants() -> Vec<Variant> {
    vec![
        Variant::vanilla(Scheme::Drill),
        Variant::with_rlb(Scheme::Drill),
        Variant::vanilla(Scheme::Hermes),
        Variant::with_rlb(Scheme::Hermes),
    ]
}

pub struct Fig7;

impl Figure for Fig7 {
    fn name(&self) -> &'static str {
        "fig7"
    }

    fn description(&self) -> &'static str {
        "AFCT vs. load, asymmetric topology (20% links at 10G), 4 workloads"
    }

    fn cols(&self) -> &'static [Col] {
        &COLS
    }

    fn jobs(&self, scale: Scale, seeds: &[u64], shards: u16) -> Vec<Job> {
        let sweep = Sweep {
            fig: self.name(),
            shards,
        };
        let base = pick(scale, TopoConfig::default(), TopoConfig::paper_scale());
        let topo = asymmetric_topo(&base, 0.2, 42);
        let mut jobs = Vec::new();
        for workload in Workload::ALL {
            for v in variants() {
                for &load in &LOADS {
                    for &offset in seeds {
                        let sc = SteadyStateConfig {
                            topo: topo.clone(),
                            workload,
                            load,
                            horizon: SimTime::from_ms(pick(scale, 8, 20)),
                            seed: 13 + offset,
                        };
                        jobs.push(sweep.point(
                            format!("{} {} load={load:.1}", workload.name(), v.label()),
                            v.label(),
                            vec![
                                ("workload", Json::Str(workload.name().to_string())),
                                ("load", Json::F64(load)),
                            ],
                            sc.seed,
                            (v.clone(), sc),
                            |(v, sc)| Scenario::steady_state(sc, v.scheme, v.rlb.clone()),
                        ));
                    }
                }
            }
        }
        jobs
    }

    fn reduce(&self, outcomes: &[JobOutcome]) -> FigureReport {
        let rows = table::rows(outcomes, &COLS);
        let sections = Workload::ALL
            .into_iter()
            .filter(|w| table::having(&rows, "workload", w.name()).next().is_some())
            .map(|w| {
                (
                    format!("Fig. 7 — AFCT vs. load, asymmetric topology ({})", w.name()),
                    table::render(table::having(&rows, "workload", w.name()), &COLS),
                )
            })
            .collect();
        FigureReport {
            sections,
            rows: Json::Arr(rows),
            cdf_dumps: Vec::new(),
        }
    }
}
