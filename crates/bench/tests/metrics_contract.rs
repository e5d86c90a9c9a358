//! The per-job metrics object is a contract read by key from outside this
//! crate — `benchmark/src/run.rs::Counts::add_job`, CI's perf-smoke gates,
//! every committed `BENCH_*.json` — and its `all`/`background`/`counters`/
//! `perf` members are generated from the result records' field lists. The
//! lists below are frozen by hand on purpose: reordering or renaming a
//! record field must fail here, not in a consumer.

use rlb_bench::figures::common::metrics_of;
use rlb_bench::json::Json;
use rlb_engine::SimTime;
use rlb_lb::Scheme;
use rlb_net::{SimConfig, Simulation, TopoConfig};
use rlb_workloads::FlowSpec;

const TOP: [&str; 10] = [
    "x",
    "variant",
    "all",
    "background",
    "counters",
    "sim_seconds",
    "pause_rate_per_sec",
    "mean_group_completion_ms",
    "fct_cdf",
    "perf",
];

const SUMMARY: [&str; 13] = [
    "flows_total",
    "flows_completed",
    "avg_fct_ms",
    "p50_fct_ms",
    "p95_fct_ms",
    "p99_fct_ms",
    "max_fct_ms",
    "ooo_ratio",
    "p99_ood",
    "total_ooo_packets",
    "total_packets_sent",
    "total_naks",
    "total_recirculations",
];

const COUNTERS: [&str; 13] = [
    "pause_frames",
    "resume_frames",
    "paused_port_time_ps",
    "cnm_generated",
    "cnm_relayed",
    "recirculations",
    "reroutes",
    "forwards_unwarned",
    "recirculation_budget_exhausted",
    "buffer_drops",
    "switch_packets",
    "ecn_marks",
    "faults_applied",
];

const PERF: [&str; 32] = [
    "events_processed",
    "wall_ms",
    "events_per_sec",
    "decisions",
    "snapshot_reuses",
    "snapshot_refreshes",
    "snapshot_rebuilds",
    "snapshot_dirty_queue_spines",
    "snapshot_dirty_sig_spines",
    "arena_high_water",
    "arena_capacity",
    "queue_high_water",
    "queue_capacity",
    "shards",
    "window_advances",
    "cross_shard_messages",
    "barrier_stalls",
    "aggregate_events_per_sec",
    "completions_elided",
    "events_flow_start",
    "events_host_wake",
    "events_link_arrive",
    "events_egress_done",
    "events_host_egress_done",
    "events_pause_frame",
    "events_predictor_tick",
    "events_recirculate",
    "events_alpha_tick",
    "events_increase_tick",
    "events_rto_check",
    "events_monitor_tick",
    "events_fault",
];

#[test]
fn per_job_metrics_keys_and_their_order_are_frozen() {
    let cfg = SimConfig {
        topo: TopoConfig {
            n_leaves: 2,
            n_spines: 2,
            hosts_per_leaf: 2,
            ..TopoConfig::default()
        },
        scheme: Scheme::Ecmp,
        hard_stop: SimTime::from_ms(50),
        ..SimConfig::default()
    };
    let res = Simulation::new(cfg, vec![FlowSpec::new(SimTime::ZERO, 0, 2, 100_000)]).run();
    let m = metrics_of("ECMP", &res, vec![("x", Json::U64(1))]);

    assert_eq!(m.keys(), TOP);
    assert_eq!(m.get("all").expect("all").keys(), SUMMARY);
    assert_eq!(m.get("background").expect("background").keys(), SUMMARY);
    assert_eq!(m.get("counters").expect("counters").keys(), COUNTERS);
    assert_eq!(m.get("perf").expect("perf").keys(), PERF);

    // Counts stay `U64` (lossless above 2^53), measurements `F64`.
    assert_eq!(m.path(&["all", "flows_total"]), Some(&Json::U64(1)));
    assert_eq!(
        m.path(&["counters", "switch_packets"]),
        Some(&Json::U64(300))
    );
    assert_eq!(m.path(&["perf", "shards"]), Some(&Json::U64(1)));

    // The per-variant counts split `events_processed` exactly; with the
    // elided completions added back they give what scheduling every
    // completion would have dispatched.
    let count = |name: &str| m.path(&["perf", name]).and_then(Json::as_u64).expect(name);
    let variants = PERF.iter().skip_while(|k| **k != "events_flow_start");
    let by_variant: u64 = variants.map(|k| count(k)).sum();
    assert_eq!(by_variant, count("events_processed"));
    assert!(count("completions_elided") > 0);
    assert!(count("queue_capacity") >= count("queue_high_water"));
    assert!(count("queue_high_water") > 0);
    assert!(matches!(m.path(&["all", "avg_fct_ms"]), Some(Json::F64(_))));
    assert!(matches!(m.path(&["perf", "wall_ms"]), Some(Json::F64(_))));
}
