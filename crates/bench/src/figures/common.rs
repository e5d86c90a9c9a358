//! Shared plumbing for the per-figure experiment modules.

use crate::json::Json;
use crate::Scale;
use rlb_core::RlbConfig;
use rlb_lb::Scheme;
use rlb_metrics::{FabricCounters, FctSummary, FlowRecord};
use rlb_net::scenario::{Scenario, BACKGROUND_GROUP};
use rlb_net::RunResult;
use rlb_workloads::Workload;

/// A scheme variant under test.
#[derive(Debug, Clone)]
pub struct Variant {
    pub scheme: Scheme,
    pub rlb: Option<RlbConfig>,
}

impl Variant {
    pub fn vanilla(scheme: Scheme) -> Variant {
        Variant { scheme, rlb: None }
    }

    pub fn with_rlb(scheme: Scheme) -> Variant {
        Variant {
            scheme,
            rlb: Some(RlbConfig::default()),
        }
    }

    pub fn label(&self) -> String {
        match &self.rlb {
            Some(_) => format!("{}+RLB", self.scheme.name()),
            None => self.scheme.name().to_string(),
        }
    }

    /// The paper's four schemes, vanilla and RLB-enhanced (8 variants).
    pub fn all_eight() -> Vec<Variant> {
        Scheme::PAPER_SET
            .iter()
            .flat_map(|&s| [Variant::vanilla(s), Variant::with_rlb(s)])
            .collect()
    }
}

/// One completed run, reduced to what the figures report.
pub struct RunRow {
    pub label: String,
    /// Summary over all flows.
    pub all: FctSummary,
    /// Summary restricted to the measured background flows (motivation
    /// scenarios tag them; empty scenarios fall back to `all`).
    pub background: FctSummary,
    pub counters: FabricCounters,
    pub sim_seconds: f64,
    /// Mean incast (group) completion time, ms; NaN without groups.
    pub mean_group_completion_ms: f64,
    /// FCT CDF over all completed flows, downsampled.
    pub fct_cdf: Vec<(f64, f64)>,
    /// Events dispatched by the engine during this run.
    pub events_processed: u64,
    /// Wall-clock cost of the run, ms (measurement only — never feeds back
    /// into the simulation, and `--stable-json` strips it from reports).
    pub wall_ms: f64,
    /// Engine throughput, events per wall-clock second.
    pub events_per_sec: f64,
    /// Source-leaf LB decisions and how their path snapshots were served
    /// (cache reuse / in-place refresh / full rebuild).
    pub decisions: u64,
    pub snapshot_reuses: u64,
    pub snapshot_refreshes: u64,
    pub snapshot_rebuilds: u64,
    /// Dirty-spine split of the refresh work (queue-side / signal-side).
    pub snapshot_dirty_queue_spines: u64,
    pub snapshot_dirty_sig_spines: u64,
    /// Packet-arena occupancy telemetry: peak live packets and slots ever
    /// allocated (backing-store footprint).
    pub arena_high_water: u64,
    pub arena_capacity: u64,
    /// Window-driver telemetry: shard count, synchronized bounded-window
    /// rounds, cross-shard wire messages, zero-dispatch (shard, round)
    /// pairs (all three zero on 1 shard, which has no peer to meet), and
    /// the sum of per-shard dispatch throughputs over time spent
    /// dispatching.
    pub shards: u64,
    pub window_advances: u64,
    pub cross_shard_messages: u64,
    pub barrier_stalls: u64,
    pub aggregate_events_per_sec: f64,
}

pub fn reduce(label: String, res: RunResult) -> RunRow {
    let bg: Vec<FlowRecord> = res
        .records
        .iter()
        .zip(res.groups.iter())
        .filter(|(_, g)| **g == BACKGROUND_GROUP)
        .map(|(r, _)| r.clone())
        .collect();
    let background = if bg.is_empty() {
        FctSummary::from_records(&res.records)
    } else {
        FctSummary::from_records(&bg)
    };
    let groups = res.group_completion_ms();
    let mean_group = if groups.is_empty() {
        f64::NAN
    } else {
        groups.iter().map(|(_, t)| t).sum::<f64>() / groups.len() as f64
    };
    let cdf = rlb_metrics::downsample_cdf(&rlb_metrics::fct_cdf(&res.records), 25);
    RunRow {
        label,
        all: res.summary(),
        background,
        counters: res.counters,
        sim_seconds: res.end_time.as_secs_f64(),
        mean_group_completion_ms: mean_group,
        fct_cdf: cdf,
        events_processed: res.events_processed,
        wall_ms: res.perf.wall_ms,
        events_per_sec: res.perf.events_per_sec,
        decisions: res.perf.decisions,
        snapshot_reuses: res.perf.snapshot_reuses,
        snapshot_refreshes: res.perf.snapshot_refreshes,
        snapshot_rebuilds: res.perf.snapshot_rebuilds,
        snapshot_dirty_queue_spines: res.perf.snapshot_dirty_queue_spines,
        snapshot_dirty_sig_spines: res.perf.snapshot_dirty_sig_spines,
        arena_high_water: res.perf.arena_high_water,
        arena_capacity: res.perf.arena_capacity,
        shards: res.perf.shards,
        window_advances: res.perf.window_advances,
        cross_shard_messages: res.perf.cross_shard_messages,
        barrier_stalls: res.perf.barrier_stalls,
        aggregate_events_per_sec: res.perf.aggregate_events_per_sec,
    }
}

pub fn run_variant(label: String, sc: Scenario) -> RunRow {
    reduce(label, sc.run())
}

/// Per-scale knob helper.
pub fn pick<T>(scale: Scale, quick: T, paper: T) -> T {
    match scale {
        Scale::Quick => quick,
        Scale::Paper => paper,
    }
}

/// Inverse of [`Workload::name`], for reduce steps reading metrics back.
pub fn workload_by_name(name: &str) -> Workload {
    Workload::ALL
        .into_iter()
        .find(|w| w.name() == name)
        .unwrap_or_else(|| panic!("unknown workload `{name}` in metrics"))
}

fn summary_json(s: &FctSummary) -> Json {
    Json::obj([
        ("flows_total", Json::U64(s.flows_total as u64)),
        ("flows_completed", Json::U64(s.flows_completed as u64)),
        ("avg_fct_ms", Json::F64(s.avg_fct_ms)),
        ("p50_fct_ms", Json::F64(s.p50_fct_ms)),
        ("p95_fct_ms", Json::F64(s.p95_fct_ms)),
        ("p99_fct_ms", Json::F64(s.p99_fct_ms)),
        ("max_fct_ms", Json::F64(s.max_fct_ms)),
        ("ooo_ratio", Json::F64(s.ooo_ratio)),
        ("p99_ood", Json::F64(s.p99_ood)),
        ("total_ooo_packets", Json::U64(s.total_ooo_packets)),
        ("total_packets_sent", Json::U64(s.total_packets_sent)),
        ("total_naks", Json::U64(s.total_naks)),
        ("total_recirculations", Json::U64(s.total_recirculations)),
    ])
}

fn counters_json(c: &FabricCounters) -> Json {
    Json::obj([
        ("pause_frames", Json::U64(c.pause_frames)),
        ("resume_frames", Json::U64(c.resume_frames)),
        ("paused_port_time_ps", Json::U64(c.paused_port_time_ps)),
        ("cnm_generated", Json::U64(c.cnm_generated)),
        ("cnm_relayed", Json::U64(c.cnm_relayed)),
        ("recirculations", Json::U64(c.recirculations)),
        ("reroutes", Json::U64(c.reroutes)),
        ("forwards_unwarned", Json::U64(c.forwards_unwarned)),
        (
            "recirculation_budget_exhausted",
            Json::U64(c.recirculation_budget_exhausted),
        ),
        ("buffer_drops", Json::U64(c.buffer_drops)),
        ("switch_packets", Json::U64(c.switch_packets)),
        ("ecn_marks", Json::U64(c.ecn_marks)),
        ("faults_applied", Json::U64(c.faults_applied)),
    ])
}

/// The standard metrics object every runner job produces: figure-specific
/// `extras` first (sweep coordinates — scheme, x, load, ...), then the
/// full FCT summaries (all flows and measured background flows), fabric
/// counters, and the downsampled FCT CDF. Reduce steps read from this;
/// the JSON report embeds it verbatim, so the perf trajectory keeps every
/// signal even where a figure's table only shows two columns.
///
/// `shards` selects the parallel bounded-window driver (`--shards`); every
/// shard count produces byte-identical simulation output, so only the
/// perf block (stripped under `--stable-json`) reflects the choice.
pub fn run_metrics(
    label: String,
    sc: Scenario,
    shards: u16,
    extras: Vec<(&'static str, Json)>,
) -> Json {
    let row = reduce(label, sc.run_with_shards(shards));
    let mut m = Json::Obj(Vec::new());
    for (k, v) in extras {
        m.set(k, v);
    }
    m.set("variant", Json::Str(row.label.clone()));
    m.set("all", summary_json(&row.all));
    m.set("background", summary_json(&row.background));
    m.set("counters", counters_json(&row.counters));
    m.set("sim_seconds", Json::F64(row.sim_seconds));
    m.set(
        "pause_rate_per_sec",
        Json::F64(
            row.counters
                .pause_rate_per_sec((row.sim_seconds * 1e12) as u64),
        ),
    );
    m.set(
        "mean_group_completion_ms",
        Json::F64(row.mean_group_completion_ms),
    );
    m.set(
        "fct_cdf",
        Json::Arr(
            row.fct_cdf
                .iter()
                .map(|&(x, p)| Json::Arr(vec![Json::F64(x), Json::F64(p)]))
                .collect(),
        ),
    );
    // Wall-clock telemetry: `drive::point_json` strips this whole block
    // under `--stable-json` (events_processed alone is deterministic, but
    // the block is removed as a unit to keep the stable schema minimal).
    m.set(
        "perf",
        Json::obj([
            ("events_processed", Json::U64(row.events_processed)),
            ("wall_ms", Json::F64(row.wall_ms)),
            ("events_per_sec", Json::F64(row.events_per_sec)),
            ("decisions", Json::U64(row.decisions)),
            ("snapshot_reuses", Json::U64(row.snapshot_reuses)),
            ("snapshot_refreshes", Json::U64(row.snapshot_refreshes)),
            ("snapshot_rebuilds", Json::U64(row.snapshot_rebuilds)),
            (
                "snapshot_dirty_queue_spines",
                Json::U64(row.snapshot_dirty_queue_spines),
            ),
            (
                "snapshot_dirty_sig_spines",
                Json::U64(row.snapshot_dirty_sig_spines),
            ),
            ("arena_high_water", Json::U64(row.arena_high_water)),
            ("arena_capacity", Json::U64(row.arena_capacity)),
            ("shards", Json::U64(row.shards)),
            ("window_advances", Json::U64(row.window_advances)),
            ("cross_shard_messages", Json::U64(row.cross_shard_messages)),
            ("barrier_stalls", Json::U64(row.barrier_stalls)),
            (
                "aggregate_events_per_sec",
                Json::F64(row.aggregate_events_per_sec),
            ),
        ]),
    );
    m
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn variant_labels() {
        assert_eq!(Variant::vanilla(Scheme::Drill).label(), "DRILL");
        assert_eq!(Variant::with_rlb(Scheme::Presto).label(), "Presto+RLB");
        let all = Variant::all_eight();
        assert_eq!(all.len(), 8);
        assert!(all[0].rlb.is_none() && all[1].rlb.is_some());
    }

    #[test]
    fn pick_by_scale() {
        assert_eq!(pick(Scale::Quick, 1, 2), 1);
        assert_eq!(pick(Scale::Paper, 1, 2), 2);
    }
}
