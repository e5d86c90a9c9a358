//! Fig. 10 — sensitivity of RLB to its two key parameters: the PFC
//! warning threshold Qth (20–80 % of Q_PFC) and the sampling interval Δt
//! (2–5 µs), reported as AFCT normalized to the best setting per workload.
//!
//! Run under DRILL+RLB (the scheme most sensitive to warning quality) on
//! Web Server and Data Mining at 60 % load.

use super::common::{pick, Variant};
use super::dumbbell;
use super::table::{self, ms, text, Col, Sweep};
use super::{Figure, FigureReport};
use crate::json::Json;
use crate::runner::{Job, JobOutcome};
use crate::Scale;
use rlb_core::RlbConfig;
use rlb_engine::{SimDuration, SimTime};
use rlb_lb::Scheme;
use rlb_net::scenario::{Scenario, SteadyStateConfig};
use rlb_net::TopoConfig;
use rlb_workloads::Workload;

/// One part's columns: `param` is the swept parameter as a label ("30%"
/// or "2.5us") under the part's own head, `afct` where the part reads its
/// AFCT, and `normalized_afct` is filled in by [`normalize`].
const fn cols(param_head: &'static str, afct: table::Path) -> [Col; 5] {
    [
        Col::coord("part", "", text),
        Col::coord("workload", "workload", text),
        Col::coord("param", param_head, text),
        Col::mean("avg_fct_ms", "afct_ms", afct, ms),
        Col::step("normalized_afct", "normalized", |v| {
            format!("{:.3}", table::num(v))
        }),
    ]
}

const ALL_AFCT: table::Path = &["all", "avg_fct_ms"];
const COLS: [Col; 5] = cols("param", ALL_AFCT);

pub const QTH_FRACTIONS: [f64; 7] = [0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8];
pub const DT_US: [f64; 7] = [2.0, 2.5, 3.0, 3.5, 4.0, 4.5, 5.0];
pub const WORKLOADS: [Workload; 2] = [Workload::WebServer, Workload::DataMining];

/// Inner seeds averaged per point: single-run deltas on this sweep are
/// within simulation noise, so each point is the mean of three seeds.
/// CLI seed offsets shift all three bases by `offset * 100` so extra
/// replicates stay disjoint from the defaults.
const SEED_BASES: [u64; 3] = [29, 31, 37];

const PART_QTH: &str = "qth";
const PART_DT: &str = "dt";
const PART_QTH_MOTIVATION: &str = "qth_motivation";

/// Set each row's `normalized_afct` to its AFCT over the minimum AFCT of
/// its workload's rows.
pub fn normalize(rows: &mut [Json]) {
    for i in 0..rows.len() {
        let min = table::having(rows, "workload", rows[i].str_of("workload"))
            .map(|r| r.num("avg_fct_ms"))
            .fold(f64::INFINITY, f64::min);
        let normalized = rows[i].num("avg_fct_ms") / min;
        rows[i].set("normalized_afct", Json::F64(normalized));
    }
}

fn inner_seeds(offsets: &[u64]) -> Vec<u64> {
    let mut out = Vec::new();
    for &o in offsets {
        for &base in &SEED_BASES {
            out.push(base + o * 100);
        }
    }
    out
}

fn drill_rlb(rlb: RlbConfig) -> Variant {
    Variant {
        scheme: Scheme::Drill,
        rlb: Some(rlb),
    }
}

fn part_coords(part: &str, workload: Workload, param: &str) -> Vec<(&'static str, Json)> {
    vec![
        ("part", Json::Str(part.to_string())),
        ("workload", Json::Str(workload.name().to_string())),
        ("param", Json::Str(param.to_string())),
    ]
}

fn steady_job(
    sweep: &Sweep,
    scale: Scale,
    part: &'static str,
    workload: Workload,
    rlb: RlbConfig,
    param: String,
    seed: u64,
) -> Job {
    let sc = SteadyStateConfig {
        topo: pick(scale, TopoConfig::default(), TopoConfig::paper_scale()),
        workload,
        load: 0.6,
        horizon: SimTime::from_ms(pick(scale, 16, 30)),
        seed,
    };
    sweep.point(
        format!("{part} {} {param}", workload.name()),
        format!("DRILL+RLB {param}"),
        part_coords(part, workload, &param),
        seed,
        (drill_rlb(rlb), sc),
        |(v, sc)| Scenario::steady_state(sc, v.scheme, v.rlb.clone()),
    )
}

/// Supplementary sweep: the same Qth fractions on the pause-heavy
/// motivation scenario (DRILL+RLB, background AFCT). The paper's
/// steady-state framing leaves the predictor nearly idle at Quick scale
/// (see EXPERIMENTS.md), so this is where the threshold's effect shows.
fn motivation_job(sweep: &Sweep, scale: Scale, q: f64, seed: u64) -> Job {
    let mut mc = dumbbell::config(scale);
    mc.seed = seed;
    let rlb = RlbConfig {
        qth_fraction: q,
        ..RlbConfig::default()
    };
    let param = format!("{:.0}%", q * 100.0);
    sweep.point(
        format!("{PART_QTH_MOTIVATION} {param}"),
        format!("DRILL+RLB qth {param}"),
        // The motivation background is Web Search traffic.
        part_coords(PART_QTH_MOTIVATION, Workload::WebSearch, &param),
        seed,
        (drill_rlb(rlb), mc),
        |(v, mc)| Scenario::motivation(mc, v.scheme, v.rlb.clone()),
    )
}

pub struct Fig10;

impl Figure for Fig10 {
    fn name(&self) -> &'static str {
        "fig10"
    }

    fn description(&self) -> &'static str {
        "RLB sensitivity: Qth fraction and sampling interval dt (normalized AFCT)"
    }

    fn cols(&self) -> &'static [Col] {
        &COLS
    }

    fn jobs(&self, scale: Scale, seeds: &[u64], shards: u16) -> Vec<Job> {
        let sweep = Sweep {
            fig: self.name(),
            shards,
        };
        let inner = inner_seeds(seeds);
        let mut jobs = Vec::new();
        for workload in WORKLOADS {
            for &q in &QTH_FRACTIONS {
                for &seed in &inner {
                    let rlb = RlbConfig {
                        qth_fraction: q,
                        ..RlbConfig::default()
                    };
                    let param = format!("{:.0}%", q * 100.0);
                    jobs.push(steady_job(
                        &sweep, scale, PART_QTH, workload, rlb, param, seed,
                    ));
                }
            }
        }
        for workload in WORKLOADS {
            for &dt_us in &DT_US {
                for &seed in &inner {
                    let rlb = RlbConfig {
                        dt_ps: SimDuration::from_us_f64(dt_us).as_ps(),
                        // Keep the warning lifetime at the same multiple of Δt.
                        warn_lifetime_ps: SimDuration::from_us_f64(dt_us * 10.0).as_ps(),
                        ..RlbConfig::default()
                    };
                    let param = format!("{dt_us}us");
                    jobs.push(steady_job(
                        &sweep, scale, PART_DT, workload, rlb, param, seed,
                    ));
                }
            }
        }
        for &q in &QTH_FRACTIONS {
            for &seed in &inner {
                jobs.push(motivation_job(&sweep, scale, q, seed));
            }
        }
        jobs
    }

    fn reduce(&self, outcomes: &[JobOutcome]) -> FigureReport {
        let mut sections = Vec::new();
        let mut all_rows = Vec::new();
        for (part, title, cols) in [
            (
                PART_QTH,
                "Fig. 10(a) — normalized AFCT vs. Qth fraction (DRILL+RLB)",
                cols("qth", ALL_AFCT),
            ),
            (
                PART_DT,
                "Fig. 10(b) — normalized AFCT vs. sampling interval dt (DRILL+RLB)",
                cols("dt", ALL_AFCT),
            ),
            (
                PART_QTH_MOTIVATION,
                "Fig. 10(a') — Qth sweep on the motivation scenario (background AFCT)",
                cols("qth", &["background", "avg_fct_ms"]),
            ),
        ] {
            let of_part = outcomes.iter().filter(|o| o.metrics.str_of("part") == part);
            let mut rows = table::rows(of_part, &cols);
            if rows.is_empty() {
                continue;
            }
            normalize(&mut rows);
            sections.push((title.to_string(), table::render(&rows, &cols)));
            all_rows.append(&mut rows);
        }
        FigureReport {
            sections,
            rows: Json::Arr(all_rows),
            cdf_dumps: Vec::new(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn normalization_sets_min_to_one() {
        let row = |workload: &str, afct: f64| {
            Json::obj([
                ("workload", Json::Str(workload.to_string())),
                ("avg_fct_ms", Json::F64(afct)),
            ])
        };
        let mut rows = vec![
            row("Web Server", 2.0),
            row("Web Server", 3.0),
            row("Data Mining", 10.0),
        ];
        normalize(&mut rows);
        let normalized = |r: &Json| r.num("normalized_afct");
        assert!((normalized(&rows[0]) - 1.0).abs() < 1e-12);
        assert!((normalized(&rows[1]) - 1.5).abs() < 1e-12);
        assert!(
            (normalized(&rows[2]) - 1.0).abs() < 1e-12,
            "per-workload normalization"
        );
    }

    #[test]
    fn inner_seeds_disjoint_across_offsets() {
        let s = inner_seeds(&[0, 1, 2]);
        assert_eq!(s.len(), 9);
        let mut uniq = s.clone();
        uniq.sort_unstable();
        uniq.dedup();
        assert_eq!(uniq.len(), 9, "offset*100 keeps replicate seeds disjoint");
        assert_eq!(&s[..3], &[29, 31, 37], "offset 0 preserves the defaults");
    }
}
