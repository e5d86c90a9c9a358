//! Shared plumbing for the per-figure experiment modules.

use crate::json::Json;
use crate::Scale;
use rlb_core::RlbConfig;
use rlb_lb::Scheme;
use rlb_metrics::{FabricCounters, FctSummary, FlowRecord, Merge, Num};
use rlb_net::scenario::{Scenario, BACKGROUND_GROUP};
use rlb_net::sim::PerfStats;
use rlb_net::RunResult;

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

/// Per-scale knob helper.
pub fn pick<T>(scale: Scale, quick: T, paper: T) -> T {
    match scale {
        Scale::Quick => quick,
        Scale::Paper => paper,
    }
}

/// Top-level members [`metrics_of`] writes after the job's own extras.
const STANDARD_KEYS: [&str; 9] = [
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

/// The one serialization of a result record: its declared fields, in
/// declaration order.
fn record_json(fields: impl IntoIterator<Item = (&'static str, Num)>) -> Json {
    Json::obj(fields.into_iter().map(|(k, v)| (k, Json::from(v))))
}

/// The standard metrics object of one finished run: the job's `extras`
/// first (sweep coordinates — scheme, x, load, ... — and anything the job
/// measured on the side), then the full FCT summaries (all flows, and the
/// measured background flows where the scenario tags them — else all
/// again), fabric counters, the downsampled FCT CDF and the perf block.
/// Reduce steps read from this; the JSON report embeds it verbatim, so the
/// perf trajectory keeps every signal even where a figure's table only
/// shows two columns.
pub fn metrics_of(label: &str, res: &RunResult, extras: Vec<(&'static str, Json)>) -> Json {
    let bg: Vec<FlowRecord> = res
        .records
        .iter()
        .zip(res.groups.iter())
        .filter(|(_, g)| **g == BACKGROUND_GROUP)
        .map(|(r, _)| r.clone())
        .collect();
    let all = res.summary();
    let background = if bg.is_empty() {
        all.clone()
    } else {
        FctSummary::from_records(&bg)
    };
    let groups = res.group_completion_ms();
    let mean_group = if groups.is_empty() {
        f64::NAN
    } else {
        groups.iter().map(|(_, t)| t).sum::<f64>() / groups.len() as f64
    };
    let sim_seconds = res.end_time.as_secs_f64();
    let pause_rate = res.counters.pause_rate_per_sec((sim_seconds * 1e12) as u64);
    let cdf = rlb_metrics::downsample_cdf(&rlb_metrics::fct_cdf(&res.records), 25);
    let cdf = cdf
        .iter()
        .map(|&(x, p)| Json::Arr(vec![Json::F64(x), Json::F64(p)]));
    // Wall-clock telemetry: `drive::point_json` strips this whole block
    // under `--stable-json` (events_processed alone is deterministic, but
    // the block is removed as a unit to keep the stable schema minimal).
    let perf = [("events_processed", Num::U64(res.events_processed))];
    Json::obj(extras.into_iter().chain(STANDARD_KEYS.into_iter().zip([
        Json::Str(label.to_string()),
        record_json(all.fields()),
        record_json(background.fields()),
        record_json(res.counters.fields()),
        Json::F64(sim_seconds),
        Json::F64(pause_rate),
        Json::F64(mean_group),
        Json::Arr(cdf.collect()),
        record_json(perf.into_iter().chain(res.perf.fields())),
    ])))
}

/// [`metrics_of`] the run of `sc`. `shards` selects the parallel
/// bounded-window driver (`--shards`); every shard count produces
/// byte-identical simulation output, so only the perf block (stripped
/// under `--stable-json`) reflects the choice.
pub fn run_metrics(
    label: String,
    sc: Scenario,
    shards: u16,
    extras: Vec<(&'static str, Json)>,
) -> Json {
    metrics_of(&label, &sc.run_with_shards(shards), extras)
}

/// Whether `m` is laid out as [`metrics_of`] lays a job's metrics out
/// today: the job's `coords` lead, the standard members close, and the
/// record blocks hold exactly their declared fields, all numeric. Cache
/// entries are outside input — one written by an older field list, or
/// damaged on disk, must read as a miss, not reach a reduce step.
pub fn metrics_complete(m: &Json, coords: &[(&'static str, Json)]) -> bool {
    let block = |key: &str, lead: &[&str], fields: &[(&'static str, Merge)]| {
        let declared = lead.iter().copied().chain(fields.iter().map(|f| f.0));
        matches!(m.get(key), Some(Json::Obj(members))
            if members.iter().map(|(k, _)| k.as_str()).eq(declared)
                && members.iter().all(|(_, v)| v.as_f64().is_some()))
    };
    let lead: Vec<&str> = coords.iter().map(|c| c.0).collect();
    m.keys().starts_with(&lead)
        && m.keys().ends_with(&STANDARD_KEYS)
        && block("all", &[], FctSummary::FIELDS)
        && block("background", &[], FctSummary::FIELDS)
        && block("counters", &[], FabricCounters::FIELDS)
        && block("perf", &["events_processed"], PerfStats::FIELDS)
}

/// A finished run of one flow, made by hand: what the harness tests feed
/// [`metrics_of`] where running a simulation would only cost time.
#[cfg(test)]
pub(crate) fn canned_result() -> RunResult {
    RunResult {
        records: vec![FlowRecord {
            flow_id: 0,
            src_host: 0,
            dst_host: 9,
            size_bytes: 10_000,
            total_packets: 10,
            start_ps: 0,
            finish_ps: Some(2_000_000_000),
            ooo_packets: 1,
            max_ood: 3,
            packets_sent: 11,
            naks: 1,
            recirculations: 0,
        }],
        counters: FabricCounters {
            pause_frames: 4,
            switch_packets: 33,
            ..FabricCounters::default()
        },
        ood_histogram: Default::default(),
        end_time: rlb_engine::SimTime::from_ms(2),
        events_processed: 500,
        groups: vec![BACKGROUND_GROUP],
        timeseries: Default::default(),
        traces: Default::default(),
        pfc_pauses_by_port: Default::default(),
        perf: PerfStats {
            wall_ms: 1.5,
            decisions: 10,
            snapshot_rebuilds: 10,
            arena_high_water: 7,
            shards: 1,
            ..PerfStats::default()
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_metrics_are_complete_and_damaged_ones_are_not() {
        let coords = vec![("x", Json::U64(3))];
        let m = metrics_of("DRILL", &canned_result(), coords.clone());
        assert!(metrics_complete(&m, &coords));
        // Parsed back from cache text: whole floats are `U64`, NaN `null`.
        let warm = crate::json::parse(&m.pretty()).expect("round-trips");
        assert!(metrics_complete(&warm, &coords));

        assert!(
            !metrics_complete(&m, &[("y", Json::U64(3))]),
            "other coordinate"
        );
        let mut cut = m.clone();
        cut.remove("fct_cdf");
        assert!(!metrics_complete(&cut, &coords), "top-level member gone");
        for (block, member) in [
            ("all", "total_naks"),
            ("background", "p99_ood"),
            ("counters", "reroutes"),
            ("perf", "decisions"),
        ] {
            let with = |b: Json| {
                let mut m = m.clone();
                m.set(block, b);
                m
            };
            let mut b = m.get(block).expect("block").clone();
            b.set(member, Json::Str("7".into()));
            assert!(
                !metrics_complete(&with(b.clone()), &coords),
                "{block}: not a number"
            );
            b.remove(member);
            assert!(
                !metrics_complete(&with(b.clone()), &coords),
                "{block}: member gone"
            );
            b.set(member, Json::U64(7));
            assert!(
                !metrics_complete(&with(b), &coords),
                "{block}: out of order"
            );
        }
    }

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
