//! Shard-count equivalence: `run_with_shards(n)` must be byte-identical
//! for every shard count — the non-negotiable contract of the
//! bounded-window driver — and `run()` is its 1-shard instance.
//!
//! Events are keyed by `(sched_ps, entity rank, per-entity counter)`, so
//! each shard's dispatch order is the restriction of the 1-shard order to
//! the entities it owns and the merged observables agree exactly — not
//! statistically, not approximately. The digest below covers every output
//! the figure pipeline consumes *except* `events_processed`, which
//! legitimately differs between shard counts (global DCQCN ticks are
//! replicated per shard and the final window may dispatch a few events
//! past the last completion; stable figure output excludes it for the
//! same reason).
//!
//! The `GOLDEN_*` constants were recorded from the separate sequential
//! event loop `Simulation::run` had before it became the 1-shard instance
//! of the driver (commit 5cb3e1f): they pin that the one remaining loop
//! reproduces the deleted one bit for bit, `events_processed` included.
//! `GOLDEN_MANY_MICE_*` were recorded at commit e85d097, the last one whose
//! NIC arbiter scanned every listed flow: ~180 listed flows per host, where
//! the other goldens have a few dozen and would not notice a reordered
//! service list. `LEAF_SPINE_FRAMES` was recorded at commit 865a6fb, the
//! last one whose partition put every spine on shard 0. Every
//! `events_processed` golden predates elided completions (DESIGN §9.7) and
//! is held against `events_processed + completions_elided`, and
//! `GOLDEN_PRESTO_STORM` was recorded at fb69e05, the last commit that
//! scheduled every completion.
//!
//! Under `--features audit` the driver additionally asserts global packet
//! conservation from the per-shard cuts at every window barrier, so
//! running this suite with the feature enabled exercises those checks too.

use proptest::prelude::*;
use rlb_core::RlbConfig;
use rlb_engine::{SimDuration, SimTime};
use rlb_lb::Scheme;
use rlb_metrics::Num;
use rlb_net::scenario::{FailSweepConfig, MotivationConfig, Scenario, SteadyStateConfig};
use rlb_net::{
    Fault, MonitorConfig, RunResult, ScenarioSpec, SimConfig, TimedFault, TopoConfig, TraceEvent,
    TransportMode,
};
use rlb_workloads::{FlowSpec, Workload};

type PortKey = ((bool, u32), u16);

/// One flow record flattened for comparison: `(flow_id, src, dst, size,
/// packets, start, finish, ooo, max_ood, sent, naks, recircs)`.
type RecordRow = (
    u64,
    u32,
    u32,
    u64,
    u32,
    u64,
    Option<u64>,
    u64,
    u64,
    u64,
    u64,
    u64,
);

/// Everything observable except `events_processed` (see module docs).
#[derive(Debug, PartialEq)]
struct Digest {
    records: Vec<RecordRow>,
    groups: Vec<u64>,
    counters: Vec<u64>,
    pfc_pauses_by_port: Vec<(PortKey, u64)>,
    ood: (u64, u64, u64),
    end_ps: u64,
}

fn digest(res: &RunResult) -> Digest {
    Digest {
        records: res
            .records
            .iter()
            .map(|r| {
                (
                    r.flow_id,
                    r.src_host,
                    r.dst_host,
                    r.size_bytes,
                    r.total_packets,
                    r.start_ps,
                    r.finish_ps,
                    r.ooo_packets,
                    r.max_ood,
                    r.packets_sent,
                    r.naks,
                    r.recirculations,
                )
            })
            .collect(),
        groups: res.groups.clone(),
        // Every declared counter, in declaration order: the goldens below
        // pin that order along with the values.
        counters: res
            .counters
            .fields()
            .into_iter()
            .map(|(name, v)| match v {
                Num::U64(n) => n,
                Num::F64(_) => panic!("fabric counter `{name}` is not a count"),
            })
            .collect(),
        pfc_pauses_by_port: res
            .pfc_pauses_by_port
            .iter()
            .map(|(k, v)| (*k, *v))
            .collect(),
        ood: (
            res.ood_histogram.count(),
            res.ood_histogram.max(),
            res.ood_histogram.mean().to_bits(),
        ),
        end_ps: res.end_time.as_ps(),
    }
}

/// FNV-1a over a value's `Debug` rendering (integers and `f64::to_bits`
/// only, so the text is stable): the golden constants' fingerprint.
fn fingerprint<T: std::fmt::Debug>(v: &T) -> u64 {
    format!("{v:?}")
        .bytes()
        .fold(0xcbf2_9ce4_8422_2325, |h, b| {
            (h ^ b as u64).wrapping_mul(0x0100_0000_01b3)
        })
}

/// `(fingerprint(digest), events)` of a 1-shard run. `events` counts the
/// completions that were never scheduled as if they had been dispatched
/// (DESIGN §9.7): `events_processed + completions_elided` is exactly what
/// the loop that scheduled every completion dispatched.
fn golden(res: &RunResult) -> (u64, u64) {
    (
        fingerprint(&digest(res)),
        res.events_processed + res.perf.completions_elided,
    )
}

const GOLDEN_MOTIVATION: (u64, u64) = (873_330_274_369_411_462, 1_635_023);
const GOLDEN_FAULTED: (u64, u64) = (166_253_126_751_074_707, 256_380);
const GOLDEN_HARD_STOP: (u64, u64) = (836_646_810_031_338_329, 11_753);
const GOLDEN_MANY_MICE_ECMP: (u64, u64) = (5_781_914_321_385_179_750, 1_874_764);
const GOLDEN_MANY_MICE_DRILL_RLB: (u64, u64) = (7_472_641_191_255_261_341, 3_650_816);
/// Recorded at commit fb69e05, the last one that scheduled every egress
/// completion.
const GOLDEN_PRESTO_STORM: (u64, u64) = (703_359_014_315_700_477, 1_306_580);
/// Frames that travel a leaf↔spine wire in the run of
/// `column_partition_keeps_part_of_the_core_shard_local`: its
/// `perf.cross_shard_messages` at commit 865a6fb, the last one where shard 0
/// owned every spine and so every such frame crossed (2, 3 and 5 shards
/// agree on it).
const LEAF_SPINE_FRAMES: u64 = 602_932;
/// Recorded at commit 3ba3bcf, the last one that scaled the NIC rate on
/// every transmit instead of rewriting the NIC port rates.
const GOLDEN_FLAP_RAMP: (u64, u64) = (17_479_566_106_154_846_103, 724_626);
/// Recorded at commit 5962e2d, the last one that kept every flow's
/// transport state from construction to the end of the run and queued
/// every flow start at construction.
const GOLDEN_SELECTIVE_REPEAT: (u64, u64) = (14_626_618_403_948_698_407, 323_151);
/// Recorded at commit 5962e2d, like `GOLDEN_SELECTIVE_REPEAT`; with it,
/// the sums of per-flow `(naks, ooo_packets, packets_sent)`.
const GOLDEN_LATE_FRAMES: (u64, u64) = (14_934_226_262_599_721_196, 1_855_807);
const LATE_FRAMES_NAKS_OOO_SENT: (u64, u64, u64) = (1_408, 40_939, 127_743);
/// Recorded at commit 5962e2d, like `GOLDEN_SELECTIVE_REPEAT`.
const GOLDEN_OUT_OF_START_ORDER: (u64, u64) = (5_911_249_939_115_965_857, 164_873);
/// `(fingerprint(timeseries samples), fingerprint(flow 0's trace))`.
const GOLDEN_MONITORED_TRACED: (u64, u64) = (791_827_665_799_338_177, 14_562_405_892_184_352_000);

fn small_fabric() -> SimConfig {
    SimConfig {
        topo: TopoConfig {
            n_leaves: 3,
            n_spines: 2,
            hosts_per_leaf: 4,
            ..TopoConfig::default()
        },
        ..SimConfig::default()
    }
}

fn pfc_heavy_scenario(seed: u64) -> MotivationConfig {
    MotivationConfig {
        n_paths: 12,
        n_background: 12,
        n_burst_senders: 2,
        n_burst_senders_dst: 2,
        flows_per_burst: 40,
        bursts: 3,
        affected_paths: 4,
        congested_flow_bytes: 20_000_000,
        background_load: 0.25,
        horizon: SimTime::from_ms(2),
        seed,
    }
}

/// PFC storms, CNM relays and recirculation crossing the leaf↔spine shard
/// boundary all round: every shard count must land on the same bytes.
#[test]
fn motivation_scenario_matches_across_shard_counts() {
    let mk = || {
        Scenario::motivation(
            &pfc_heavy_scenario(42),
            Scheme::Drill,
            Some(RlbConfig::default()),
        )
    };
    let one = mk().run();
    assert_eq!(golden(&one), GOLDEN_MOTIVATION);
    let one = digest(&one);
    assert!(one.counters[0] > 0, "scenario must exercise PFC");
    for shards in [1u16, 2, 3, 5, 13] {
        let sharded = digest(&mk().run_with_shards(shards));
        assert_eq!(one, sharded, "--shards {shards} diverged from run()");
    }
}

/// A packet lives in its replica's arena and crosses a shard boundary by
/// value: the sender frees it into the wire message, the receiver parks it
/// at delivery. Each shard's audit cut counts the handles its queues and
/// pending `LinkArrive`/`Recirculate` events hold and its live arena slots,
/// and at every barrier the driver asserts that the sums over shards
/// balance, so a frame whose sender kept its slot fails the first barrier
/// after it crosses. DRILL+RLB in the PFC-heavy dumbbell sends frames both
/// ways across the cut and recirculates packets under their handles; the
/// 1-shard run is swept every 256 events.
#[cfg(feature = "audit")]
#[test]
fn every_arena_balances_while_frames_cross_shards() {
    let mk = || {
        let mut sc = Scenario::motivation(
            &MotivationConfig {
                horizon: SimTime::from_ms(1),
                ..pfc_heavy_scenario(7)
            },
            Scheme::Drill,
            Some(RlbConfig::default()),
        );
        sc.cfg.audit_every_events = 256;
        sc
    };
    let one = mk().run();
    assert!(
        one.counters.recirculations > 0,
        "packets must loop under their handles"
    );
    let one = digest(&one);
    for shards in [2u16, 3] {
        let res = mk().run_with_shards(shards);
        assert!(
            res.perf.cross_shard_messages > 0,
            "--shards {shards}: nothing crossed"
        );
        assert!(res.perf.arena_high_water > 0);
        assert_eq!(one, digest(&res), "--shards {shards} diverged");
    }
}

/// Presto+RLB in the PFC-storm dumbbell, with a shared pool small enough
/// that it drops under PFC (the one scheme that does, benchmark/
/// BASELINE.md) and no PFC hysteresis, so one release can resume an
/// ingress. PAUSEs land on ingresses with deferred releases pending, whose
/// completions must then be scheduled to send the RESUME, and
/// dynamic-threshold drops release at once beside them.
#[test]
fn presto_storm_pauses_and_drops_alike_across_shard_counts() {
    let mk = || {
        let mut sc = Scenario::motivation(
            &pfc_heavy_scenario(42),
            Scheme::Presto,
            Some(RlbConfig::default()),
        );
        sc.cfg.switch.buffer_bytes = 2_100_000;
        sc.cfg.switch.pfc_hysteresis_bytes = 0;
        sc
    };
    let one = mk().run();
    assert_eq!(golden(&one), GOLDEN_PRESTO_STORM);
    assert!(one.counters.pause_frames > 0 && one.counters.buffer_drops > 0);
    assert!(one.perf.completions_elided > 0);
    let one = digest(&one);
    for shards in [2u16, 3] {
        assert_eq!(
            one,
            digest(&mk().run_with_shards(shards)),
            "--shards {shards} diverged"
        );
    }
}

/// Mid-run link faults are replicated into every shard's construction
/// set and their transmit kicks are owner-filtered; the faulted run must
/// still merge to the 1-shard bytes.
#[test]
fn faulted_runs_match_across_shard_counts() {
    let mk = || {
        let fc = FailSweepConfig {
            n_failures: 3,
            load: 0.4,
            horizon: SimTime::from_us(400),
            fail_at: SimTime::from_us(50),
            fail_stagger: SimDuration::from_us(30),
            fail_duration: SimDuration::from_us(150),
            seed: 13,
            ..FailSweepConfig::default()
        };
        Scenario::fail_sweep(&fc, Scheme::LetFlow, Some(RlbConfig::default()))
    };
    let one = mk().run();
    assert_eq!(golden(&one), GOLDEN_FAULTED);
    let one = digest(&one);
    assert_eq!(one.counters[12], 6, "3 downs + 3 recoveries must fire");
    for shards in [1u16, 2, 4] {
        assert_eq!(
            one,
            digest(&mk().run_with_shards(shards)),
            "faulted --shards {shards} diverged"
        );
    }
}

/// A run the hard stop truncates mid-transfer: the clock ends on the first
/// event past the horizon and nothing at or before it is lost, at every
/// shard count.
#[test]
fn hard_stop_truncated_runs_match_across_shard_counts() {
    let mk = || {
        let cfg = SimConfig {
            hard_stop: SimTime::from_us(60),
            ..small_fabric()
        };
        let flows = [(0, 4), (5, 8), (9, 1)]
            .map(|(src, dst)| FlowSpec::new(SimTime::ZERO, src, dst, 5_000_000));
        Scenario::new(cfg, flows.to_vec())
    };
    let one = mk().run();
    assert_eq!(golden(&one), GOLDEN_HARD_STOP);
    assert!(
        one.records.iter().all(|r| r.finish_ps.is_none()),
        "must truncate"
    );
    assert_eq!(one.end_time.as_ps(), 60_001_600);
    assert_eq!(one.counters.switch_packets, 2390);
    let one = digest(&one);
    for shards in [1u16, 2, 4] {
        assert_eq!(
            one,
            digest(&mk().run_with_shards(shards)),
            "truncated --shards {shards} diverged"
        );
    }
}

/// Thousands of mice: each NIC lists a couple of hundred flows of which a
/// handful are live at a time, so the round-robin order across starts and
/// completions decides these bytes.
#[test]
fn many_mice_match_the_full_scan_arbiter_across_shard_counts() {
    let sc = SteadyStateConfig {
        topo: small_fabric().topo,
        workload: Workload::WebServer,
        load: 0.5,
        horizon: SimTime::from_ms(8),
        seed: 5,
    };
    for (scheme, rlb, want) in [
        (Scheme::Ecmp, None, GOLDEN_MANY_MICE_ECMP),
        (
            Scheme::Drill,
            Some(RlbConfig::default()),
            GOLDEN_MANY_MICE_DRILL_RLB,
        ),
    ] {
        let mk = || Scenario::steady_state(&sc, scheme, rlb.clone());
        // `run()` is the 1-shard run, so the golden is the shards-1 check.
        let one = mk().run();
        assert!(one.records.len() >= 2_000, "{} flows", one.records.len());
        assert_eq!(golden(&one), want, "{scheme:?}");
        assert!(one.records.iter().all(|r| r.finish_ps.is_some()));
        let one = digest(&one);
        for shards in [2u16, 4] {
            assert_eq!(
                one,
                digest(&mk().run_with_shards(shards)),
                "{scheme:?} --shards {shards} diverged"
            );
        }
    }
}

/// The quick fabric (4×4×8) under DRILL+RLB: with leaves and spines cut
/// into the same columns, a leaf↔spine frame crosses shards only when its
/// two ends sit in different columns — `1 − 1/N` of them under an even
/// spray — where the retired "shard 0 = every spine" partition sent every
/// one of them through a mailbox.
#[test]
fn column_partition_keeps_part_of_the_core_shard_local() {
    let sc = SteadyStateConfig {
        horizon: SimTime::from_ms(2),
        seed: 3,
        ..SteadyStateConfig::default()
    };
    assert_eq!(
        (sc.topo.n_leaves, sc.topo.n_spines, sc.topo.hosts_per_leaf),
        (4, 4, 8)
    );
    let mk = || Scenario::steady_state(&sc, Scheme::Drill, Some(RlbConfig::default()));
    let one = mk().run();
    assert_eq!(one.perf.cross_shard_messages, 0);
    assert!(one.records.iter().all(|r| r.finish_ps.is_some()));
    let one = digest(&one);
    for (shards, crossing) in [(2u16, 0.5), (4, 0.75)] {
        let res = mk().run_with_shards(shards);
        assert_eq!(res.perf.shards, shards as u64);
        assert_eq!(one, digest(&res), "--shards {shards} diverged");
        let crossed = res.perf.cross_shard_messages;
        assert!(
            crossed < LEAF_SPINE_FRAMES,
            "--shards {shards}: {crossed} of {LEAF_SPINE_FRAMES} leaf↔spine frames crossed"
        );
        let share = crossed as f64 / LEAF_SPINE_FRAMES as f64;
        assert!(
            (share - crossing).abs() < 0.05,
            "--shards {shards}: share {share}"
        );
    }
}

/// `specs/flap_ramp.toml`, the committed spec with `load_scale` faults:
/// every NIC serializes at half rate from 200 µs to 400 µs while a link
/// flaps and the offered load ramps, so frames launched on both sides of
/// each rate change decide these bytes.
#[test]
fn load_scaled_spec_matches_across_shard_counts() {
    let text = include_str!("../../../specs/flap_ramp.toml");
    let spec = ScenarioSpec::parse(text).expect("flap_ramp parses");
    let mk = || spec.build().expect("flap_ramp builds");
    let one = mk().run();
    assert_eq!(golden(&one), GOLDEN_FLAP_RAMP);
    assert_eq!(
        one.counters.faults_applied, 6,
        "4 flap edges + 2 load scales"
    );
    let one = digest(&one);
    for shards in [1u16, 2, 4] {
        assert_eq!(
            one,
            digest(&mk().run_with_shards(shards)),
            "flap_ramp --shards {shards} diverged"
        );
    }
}

/// Selective repeat (IRN) with PFC off, `irn_compare`'s design point:
/// multi-packet Web Search flows sprayed by DRILL arrive out of order, so
/// NACKs, selective retransmissions and buffered out-of-order arrivals
/// decide these bytes.
#[test]
fn selective_repeat_runs_match_across_shard_counts() {
    let sc = SteadyStateConfig {
        topo: small_fabric().topo,
        workload: Workload::WebSearch,
        load: 0.6,
        horizon: SimTime::from_ms(2),
        seed: 11,
    };
    let mk = || {
        let mut s = Scenario::steady_state(&sc, Scheme::Drill, None);
        s.cfg.transport.mode = TransportMode::SelectiveRepeat;
        s.cfg.switch.pfc_enabled = false;
        s
    };
    let one = mk().run();
    assert_eq!(golden(&one), GOLDEN_SELECTIVE_REPEAT);
    assert!(one.records.iter().filter(|r| r.total_packets > 1).count() >= 10);
    assert!(one.records.iter().all(|r| r.finish_ps.is_some()));
    assert!(one.records.iter().map(|r| r.naks).sum::<u64>() > 0, "NACKs");
    assert!(one.records.iter().map(|r| r.ooo_packets).sum::<u64>() > 0);
    let one = digest(&one);
    for shards in [1u16, 2, 4] {
        assert_eq!(
            one,
            digest(&mk().run_with_shards(shards)),
            "selective repeat --shards {shards} diverged"
        );
    }
}

/// Go-back-N in the pause-heavy DRILL+RLB dumbbell: retransmitted copies
/// of data the receiver already holds are still on the wire when their
/// sender takes its final ACK, so they arrive as duplicates after it
/// finished — some ECN-marked. The per-flow counters those late frames
/// touch are pinned on their own as well as in the digest.
#[test]
fn late_frames_after_the_sender_finished_match_across_shard_counts() {
    let mk = || {
        Scenario::motivation(
            &pfc_heavy_scenario(3),
            Scheme::Drill,
            Some(RlbConfig::default()),
        )
    };
    let one = mk().run();
    assert_eq!(golden(&one), GOLDEN_LATE_FRAMES);
    let sum = |f: fn(&rlb_metrics::FlowRecord) -> u64| one.records.iter().map(f).sum::<u64>();
    let sums = (
        sum(|r| r.naks),
        sum(|r| r.ooo_packets),
        sum(|r| r.packets_sent),
    );
    assert_eq!(sums, LATE_FRAMES_NAKS_OOO_SENT);
    assert!(one.counters.pause_frames > 0 && one.counters.ecn_marks > 0);
    // Traced (1 shard), the same run shows the duplicates that arrive
    // after their sender finished.
    let mut sc = mk();
    sc.cfg.trace_flows = (0..sc.flows.len() as u32).collect();
    let traced = sc.run();
    let late_dups: usize = traced
        .records
        .iter()
        .map(|r| {
            let finish = r.finish_ps.expect("every flow completes");
            let trace = traced.traces.get(r.flow_id as u32).unwrap_or_default();
            trace
                .iter()
                .filter(|e| e.event == TraceEvent::Duplicate && e.t_ps > finish)
                .count()
        })
        .sum();
    assert!(
        late_dups > 0,
        "no duplicate arrived after its sender finished"
    );
    let one = digest(&one);
    assert_eq!(one, digest(&traced));
    for shards in [1u16, 2, 4] {
        assert_eq!(
            one,
            digest(&mk().run_with_shards(shards)),
            "late frames --shards {shards} diverged"
        );
    }
}

/// Flow ids out of start order, with ties: each host lists four flows
/// whose starts do not ascend with their ids, and several flows share a
/// start picosecond, so the start order is `(start, id)`, not id.
#[test]
fn flows_out_of_start_order_match_across_shard_counts() {
    let mk = || {
        let flows = (0..48u32)
            .map(|i| {
                let src = i % 12;
                let dst = (src + 4 + i % 8) % 12;
                let start = SimTime::from_us(((i * 37) % 11) as u64 * 5);
                FlowSpec::new(start, src, dst, 20_000 + (i % 4) as u64 * 60_000)
            })
            .collect();
        Scenario::new(small_fabric(), flows)
    };
    let one = mk().run();
    assert_eq!(golden(&one), GOLDEN_OUT_OF_START_ORDER);
    assert!(one.records.iter().all(|r| r.finish_ps.is_some()));
    let one = digest(&one);
    for shards in [1u16, 2, 4] {
        assert_eq!(
            one,
            digest(&mk().run_with_shards(shards)),
            "out-of-order starts --shards {shards} diverged"
        );
    }
}

/// No flows, three timed faults: there is nothing to complete — `0 == 0`
/// completed flows is not completion — so the run drains: every fault
/// applies and the clock ends on the last one.
#[test]
fn zero_flow_fault_timeline_applies_every_fault() {
    let mk = || {
        let faults = [10, 20, 30].map(|us| TimedFault {
            at: SimTime::from_us(us),
            fault: Fault::LinkDown { leaf: 0, spine: 1 },
        });
        Scenario::new(small_fabric(), Vec::new()).with_faults(faults.to_vec())
    };
    let one = mk().run();
    assert_eq!(one.counters.faults_applied, 3);
    assert_eq!(one.end_time, SimTime::from_us(30));
    for shards in [1u16, 2, 4] {
        let res = mk().run_with_shards(shards);
        assert_eq!(digest(&one), digest(&res), "--shards {shards} diverged");
        assert_eq!(res.events_processed, 3 * res.perf.shards);
    }
}

/// A zero link delay leaves the window protocol no lookahead, so the run
/// stays on 1 shard whatever is asked for.
#[test]
fn zero_link_delay_runs_on_one_shard() {
    let mk = || {
        let mut cfg = small_fabric();
        cfg.topo.link_delay_ps = 0;
        let flows = vec![
            FlowSpec::new(SimTime::ZERO, 0, 5, 300_000),
            FlowSpec::new(SimTime::from_us(3), 9, 2, 200_000),
        ];
        Scenario::new(cfg, flows)
    };
    let one = mk().run();
    assert!(one.records.iter().all(|r| r.finish_ps.is_some()));
    let asked_for_four = mk().run_with_shards(4);
    assert_eq!(asked_for_four.perf.shards, 1);
    assert_eq!(digest(&one), digest(&asked_for_four));
    assert_eq!(one.events_processed, asked_for_four.events_processed);
}

/// Monitoring and per-flow traces observe global state mid-run, so they
/// pin the run to 1 shard; `run_with_shards(4)` must hand back the same
/// time series and traces as `run()`, through the same merge.
#[test]
fn monitored_and_traced_runs_keep_their_observations() {
    let mk = || {
        let mut sc = Scenario::motivation(
            &pfc_heavy_scenario(7),
            Scheme::Hermes,
            Some(RlbConfig::default()),
        );
        sc.cfg.monitor = Some(MonitorConfig {
            interval: SimDuration::from_us(20),
        });
        sc.cfg.trace_flows = vec![0];
        sc
    };
    let series = |r: &RunResult| fingerprint(&r.timeseries.samples);
    let trace = |r: &RunResult| fingerprint(&r.traces.get(0));
    let one = mk().run();
    assert!(one.timeseries.len() > 10 && one.traces.get(0).is_some_and(|t| t.len() > 10));
    assert_eq!((series(&one), trace(&one)), GOLDEN_MONITORED_TRACED);
    let four = mk().run_with_shards(4);
    assert_eq!(four.perf.shards, 1);
    assert_eq!((series(&one), trace(&one)), (series(&four), trace(&four)));
    assert_eq!(digest(&one), digest(&four));
}

fn any_scheme() -> impl Strategy<Value = Scheme> {
    prop_oneof![
        Just(Scheme::Ecmp),
        Just(Scheme::Presto),
        Just(Scheme::LetFlow),
        Just(Scheme::Hermes),
        Just(Scheme::Drill),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 16, // each case is two full simulations
        .. ProptestConfig::default()
    })]

    /// Differential property: arbitrary small workloads across schemes,
    /// RLB on/off, seeds and shard counts produce identical digests.
    #[test]
    fn every_shard_count_equals_run(
        scheme in any_scheme(),
        use_rlb in any::<bool>(),
        seed in 0u64..1000,
        shards in 1u16..=4,
        flow_specs in proptest::collection::vec(
            (0u32..12, 0u32..12, 1u64..200_000, 0u64..500_000),
            1..12
        ),
    ) {
        let cfg = SimConfig {
            scheme,
            rlb: use_rlb.then(RlbConfig::default),
            seed,
            hard_stop: SimTime::from_ms(200),
            ..small_fabric()
        };
        let flows: Vec<FlowSpec> = flow_specs
            .into_iter()
            .filter(|(s, d, _, _)| s != d)
            .map(|(s, d, size, start_ps)| FlowSpec::new(SimTime(start_ps), s, d, size))
            .collect();
        let one = digest(&Scenario::new(cfg.clone(), flows.clone()).run());
        let par = digest(&Scenario::new(cfg, flows).run_with_shards(shards));
        prop_assert_eq!(one, par, "--shards {} diverged", shards);
    }
}
