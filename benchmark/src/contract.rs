//! The benchmark's contract: workloads, metric names, units, directions
//! and regression bounds. `../BENCHMARK.json` is `to_json().pretty()` of
//! these tables (a unit test pins the two together), so a name printed by
//! the benchmark and a name in the contract cannot drift apart.

use rlb_bench::json::Json;
use std::collections::BTreeMap;

/// Seconds one untraced run measures for. Sized so that the contract's
/// 136 runs fit its time cap with a third to spare on a box 1.4× slower
/// than the one this was sized on (`fig6_pipeline` alone needs ~30 s for
/// its three repetitions whatever this says).
pub const RUN_SECONDS: u64 = 8;

pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
    /// Share of the parent's median by which an end-to-end metric may
    /// worsen; `None` for per-layer metrics.
    pub bound: Option<f64>,
    /// A count or simulated statistic: it repeats exactly between two runs
    /// of the same code on the same seed (`selfcheck.sh` fails otherwise).
    pub exact: bool,
}

const fn e2e(name: &'static str, unit: &'static str, better: &'static str, bound: f64) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: Some(bound),
        exact: false,
    }
}

/// A host-time layer metric.
const fn layer(name: &'static str, unit: &'static str, better: &'static str) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: None,
        exact: false,
    }
}

/// An exact-repeat layer metric: a count the program makes or a statistic
/// of simulated time.
const fn exact(name: &'static str, unit: &'static str, better: &'static str) -> Metric {
    Metric {
        exact: true,
        ..layer(name, unit, better)
    }
}

/// `(name, why)`. The order is the order `run.sh` runs them in.
pub const WORKLOADS: [(&str, &str); 6] = [
    (
        "steady_websearch",
        "4x4x8 leaf-spine, WebSearch at 60% load, 20 ms, DRILL+RLB, sequential: the canonical steady-state point where wheel, host/transport and switch dispatch do nearly all the work",
    ),
    (
        "steady_websearch_sharded",
        "byte-identical input on the 2-shard bounded-window driver (barriers, WireMsg mailboxes, journal fold); digest must equal the sequential one, so a gain on one path that costs the other shows",
    ),
    (
        "pfc_storm",
        "motivation dumbbell, 40 spines, 6 bursts, 120 MB congested flow on 5 paths, Hermes+RLB: PFC plane, predictor, warnings, Algorithm 1 and 40-wide path snapshots do most of their work here",
    ),
    (
        "mice_ecmp",
        "4x4x8, WebServer at 50% load, 20 ms, ECMP without RLB: ~15 k small flows, so per-flow work dominates and core/stateful lb are bypassed - the no-change workload for core/lb optimisations",
    ),
    (
        "paper_fabric",
        "paper-scale 12x12x24 fabric (288 hosts), WebSearch at 60%, 2 ms, Hermes+RLB: working set ~10x the quick fabric, where memory and cache-footprint changes show",
    ),
    (
        "fig6_pipeline",
        "rlb-bench fig6 at Quick scale through jobs, cached runner, reduce and JSON report, then a warm re-run: what a user types; the only workload running the runner/cache/JSON layers",
    ),
];

/// What a user of the simulator sees. Every value is normalised by the
/// work the input holds (data-packet switch hops), because the input
/// changes with `--seed` and raw seconds per run change with it. The
/// bounds are as wide as the contract allows: a bound is three observed
/// spreads, and between seeds on the box this was sized on host time
/// spreads by 3–11 % (the same binary on the same seed drifts by ±5 % for
/// minutes at a time) and `paper_fabric`'s peak RSS by 10 % (BASELINE.md).
pub const END_TO_END: [Metric; 4] = [
    e2e("pkt_hops_per_s", "1/s", "higher", 0.25),
    e2e("cpu_ns_per_pkt_hop", "ns", "lower", 0.25),
    e2e("peak_rss_mb", "MB", "lower", 0.25),
    e2e("setup_s", "s", "lower", 0.25),
];

/// Layers are the workspace crates. A metric a workload does not
/// exercise reads 0 there.
pub const PER_LAYER: [Metric; 62] = [
    exact("engine.events", "count", "lower"),
    layer("engine.events_per_s", "1/s", "higher"),
    layer("engine.wheel_ns_per_event", "ns", "lower"),
    layer("engine.wheel_est_share", "share", "lower"),
    layer("engine.arena_ns_per_pkt", "ns", "lower"),
    exact("engine.arena_high_water", "count", "lower"),
    layer("engine.flowtable_ns_per_op", "ns", "lower"),
    layer("workloads.generate_ms", "ms", "lower"),
    exact("workloads.flows", "count", "higher"),
    layer("workloads.cdf_sample_ns", "ns", "lower"),
    layer("transport.gbn_ns_per_pkt", "ns", "lower"),
    layer("transport.dcqcn_ns_per_update", "ns", "lower"),
    exact("transport.naks", "count", "lower"),
    exact("transport.retx_ratio", "share", "lower"),
    layer("lb.select_ns", "ns", "lower"),
    exact("lb.decisions", "count", "lower"),
    layer("lb.est_share", "share", "lower"),
    layer("core.algorithm1_ns", "ns", "lower"),
    layer("core.predictor_sample_ns", "ns", "lower"),
    exact("core.cnm_generated", "count", "lower"),
    exact("core.reroutes", "count", "lower"),
    exact("core.recirculations", "count", "lower"),
    exact("core.warned_decision_ratio", "share", "lower"),
    layer("net.spec_parse_us", "us", "lower"),
    layer("net.spec_write_us", "us", "lower"),
    layer("net.scenario_build_ms", "ms", "lower"),
    layer("net.sim_new_ms", "ms", "lower"),
    layer("net.sim_run_ms", "ms", "lower"),
    layer("net.ns_per_event", "ns", "lower"),
    layer("net.ns_per_pkt_hop", "ns", "lower"),
    exact("net.pause_frames", "count", "lower"),
    exact("net.paused_port_time_ps", "ps", "lower"),
    exact("net.buffer_drops", "count", "lower"),
    exact("net.ecn_marks", "count", "lower"),
    exact("net.snapshot_reuse_ratio", "share", "higher"),
    exact("net.snapshot_rebuilds", "count", "lower"),
    exact("net.snapshot_dirty_spines_per_refresh", "count", "lower"),
    layer("net.shard_wall_ratio", "ratio", "higher"),
    layer("net.shard_cpu_ratio", "ratio", "higher"),
    exact("net.window_advances", "count", "lower"),
    exact("net.cross_shard_messages", "count", "lower"),
    exact("net.barrier_stalls", "count", "lower"),
    exact("net.msgs_per_window", "count", "higher"),
    layer("metrics.summary_ms", "ms", "lower"),
    layer("metrics.percentile_ns_per_sample", "ns", "lower"),
    layer("bench.jobs_expand_ms", "ms", "lower"),
    layer("bench.run_jobs_cold_ms", "ms", "lower"),
    layer("bench.run_jobs_warm_ms", "ms", "lower"),
    layer("bench.reduce_ms", "ms", "lower"),
    layer("bench.report_json_ms", "ms", "lower"),
    layer("bench.json_parse_ms", "ms", "lower"),
    layer("bench.cache_bytes", "count", "lower"),
    layer("bench.harness_overhead_share", "share", "lower"),
    layer("bench.parallel_speedup", "ratio", "higher"),
    exact("model.p99_fct_ms", "ms", "lower"),
    exact("model.avg_fct_ms", "ms", "lower"),
    exact("model.ooo_ratio", "share", "lower"),
    exact("model.flows_completed", "count", "higher"),
    exact("model.end_time_ps", "ps", "lower"),
    exact("model.digest_match", "count", "higher"),
    exact("model.digest48", "count", "higher"),
    layer("trace_overhead_share", "share", "lower"),
];

/// The `BENCHMARK.json` document.
pub fn to_json() -> Json {
    let metric = |m: &Metric| {
        let mut o = Json::obj([
            ("name", Json::Str(m.name.to_string())),
            ("unit", Json::Str(m.unit.to_string())),
            ("better", Json::Str(m.better.to_string())),
        ]);
        if let Some(b) = m.bound {
            o.set("bound", Json::F64(b));
        }
        o
    };
    Json::obj([
        (
            "command",
            Json::Arr(vec![
                Json::Str("bash".into()),
                Json::Str("benchmark/run.sh".into()),
            ]),
        ),
        ("paths", Json::Arr(vec![Json::Str("benchmark".into())])),
        ("run_seconds", Json::U64(RUN_SECONDS)),
        (
            "workloads",
            Json::Arr(
                WORKLOADS
                    .iter()
                    .map(|&(name, why)| {
                        Json::obj([
                            ("name", Json::Str(name.to_string())),
                            ("why", Json::Str(why.to_string())),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Json::Arr(END_TO_END.iter().map(metric).collect()),
        ),
        (
            "per_layer",
            Json::Arr(PER_LAYER.iter().map(metric).collect()),
        ),
    ])
}

/// The `metrics` object of a run's result line: every metric of `table`,
/// in table order, as `{"value": v, "unit": u}`. An end-to-end metric
/// without a value, or a value outside the table, is a harness error; a
/// per-layer metric the workload does not exercise reads 0.
pub fn metrics_json(
    table: &[Metric],
    values: &BTreeMap<&'static str, f64>,
) -> Result<Json, String> {
    if let Some(stray) = values.keys().find(|k| !table.iter().any(|m| m.name == **k)) {
        return Err(format!("metric `{stray}` is not in the contract table"));
    }
    let mut out = Vec::with_capacity(table.len());
    for m in table {
        let value = match (values.get(m.name), m.bound) {
            (Some(&v), _) if v.is_finite() => v,
            (Some(v), _) => return Err(format!("metric `{}` is not finite: {v}", m.name)),
            (None, None) => 0.0,
            (None, Some(_)) => return Err(format!("end-to-end metric `{}` not measured", m.name)),
        };
        out.push((
            m.name.to_string(),
            Json::obj([
                ("value", Json::F64(value)),
                ("unit", Json::Str(m.unit.to_string())),
            ]),
        ));
    }
    Ok(Json::Obj(out))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn benchmark_json_is_the_generated_contract() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let committed = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert_eq!(
            committed,
            to_json().pretty(),
            "regenerate with `benchmark/run.sh --print-contract > BENCHMARK.json`"
        );
    }

    #[test]
    fn tables_obey_the_schema_limits() {
        let ok_name = |n: &str| {
            !n.is_empty()
                && n.len() <= 64
                && n.as_bytes()[0].is_ascii_alphanumeric()
                && n.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
        };
        let mut seen = std::collections::BTreeSet::new();
        for (name, why) in WORKLOADS {
            assert!(ok_name(name) && seen.insert(name), "{name}");
            assert!(
                why.len() <= 200 && !why.contains('\n'),
                "{name}: why is {} chars",
                why.len()
            );
        }
        assert_eq!(WORKLOADS.map(|w| w.0), crate::workloads::NAMES);
        for m in END_TO_END.iter().chain(PER_LAYER.iter()) {
            assert!(ok_name(m.name) && seen.insert(m.name), "{}", m.name);
            assert!(m.unit.len() <= 16, "{}", m.unit);
            assert!(m
                .unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
            assert!(matches!(m.better, "lower" | "higher"));
            assert!(m.bound.is_none_or(|b| b > 0.0 && b <= 0.25));
        }
        assert!(PER_LAYER.len() <= 128 && END_TO_END.len() <= 16);
        let setup = END_TO_END
            .iter()
            .find(|m| m.name == "setup_s")
            .expect("setup_s");
        assert_eq!((setup.unit, setup.better), ("s", "lower"));
        let largest = END_TO_END
            .iter()
            .filter_map(|m| m.bound)
            .fold(0.0, f64::max);
        assert_eq!(
            setup.bound,
            Some(largest),
            "setup_s carries the largest bound"
        );
        assert!(to_json().pretty().len() <= 64 * 1024);
    }

    #[test]
    fn metrics_json_fills_layers_and_rejects_gaps() {
        let mut v = BTreeMap::new();
        v.insert("engine.events", 5.0);
        let j = metrics_json(&PER_LAYER, &v).expect("layers default to 0");
        assert_eq!(
            j.path(&["engine.events", "value"]).and_then(Json::as_f64),
            Some(5.0)
        );
        assert_eq!(
            j.path(&["lb.select_ns", "value"]).and_then(Json::as_f64),
            Some(0.0)
        );
        assert_eq!(
            j.path(&["lb.select_ns", "unit"]).and_then(Json::as_str),
            Some("ns")
        );
        assert!(
            metrics_json(&END_TO_END, &v).is_err(),
            "stray + missing end-to-end"
        );
        assert!(metrics_json(&END_TO_END, &BTreeMap::new()).is_err());
        v.insert("lb.select_ns", f64::NAN);
        assert!(metrics_json(&PER_LAYER, &v).is_err());
    }
}
