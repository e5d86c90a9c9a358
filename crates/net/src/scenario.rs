//! Experiment scenarios: the paper's setups plus declarative extensions.
//!
//! [`Scenario`] is the single entry point: a fully built simulation input
//! (config + flows + fault timeline). Construct one through the
//! builder-style constructors ([`Scenario::motivation`],
//! [`Scenario::steady_state`], [`Scenario::incast`],
//! [`Scenario::fail_sweep`]), or declaratively from an on-disk spec file
//! via [`crate::spec::ScenarioSpec`].

use crate::config::{SimConfig, TopoConfig};
use crate::fault::{Fault, TimedFault};
use rand::seq::SliceRandom;
use rand::Rng;
use rlb_core::RlbConfig;
use rlb_engine::{substream, SimDuration, SimTime};
use rlb_lb::Scheme;
use rlb_workloads::{
    congested_flow, incast, BurstConfig, FlowSpec, IncastConfig, LoadCurve, PairPolicy,
    PoissonTraffic, SizeCdf, Workload,
};
use serde::Serialize;

/// The Fig. 2 motivation scenario: a dumbbell of two leaves joined by many
/// parallel spines. Background flows H1..Hn → R1..Rn cross the core, burst
/// senders Hb (on the receiving leaf) plus a long congested flow fc slam a
/// single victim receiver Rc, triggering PFC on the spine paths.
#[derive(Debug, Clone, Serialize)]
pub struct MotivationConfig {
    /// Parallel spine paths between the two leaves (paper: 40).
    pub n_paths: u32,
    /// Background sender/receiver pairs (paper: 100; scaled default 16).
    pub n_background: u32,
    /// Burst senders in Hb on the *source* leaf (their bursts cross the
    /// spines and are what pushes the affected paths' ingress counters at
    /// S2 over the PFC threshold).
    pub n_burst_senders: u32,
    /// Burst senders in Hb attached to the *destination* leaf S2 (the
    /// paper's text placement); they jam the victim's egress port and
    /// deepen the shared-buffer backlog without crossing the core.
    pub n_burst_senders_dst: u32,
    /// Simultaneous 64 KB flows per burst sender per burst (paper: 40).
    pub flows_per_burst: u32,
    /// Continuous bursts (paper default 2; Fig. 4b sweeps 1–6).
    pub bursts: u32,
    /// Paths the congested flow fc may use (Fig. 4a sweeps 5–30).
    pub affected_paths: u32,
    /// Size of fc (paper: 250 MB; scaled default 30 MB).
    pub congested_flow_bytes: u64,
    /// Offered background load as a fraction of the dumbbell core. The
    /// paper does not state it; chosen so per-host utilisation stays
    /// moderate (its 100 senders at 40 Gbps are far from saturated).
    pub background_load: f64,
    /// Background horizon.
    pub horizon: SimTime,
    pub seed: u64,
}

impl Default for MotivationConfig {
    fn default() -> Self {
        MotivationConfig {
            n_paths: 40,
            n_background: 16,
            n_burst_senders: 2,
            n_burst_senders_dst: 2,
            flows_per_burst: 40,
            bursts: 2,
            affected_paths: 5,
            congested_flow_bytes: 30_000_000,
            background_load: 0.25,
            horizon: SimTime::from_ms(4),
            seed: 1,
        }
    }
}

/// Built scenario: the simulation config (including any fault timeline in
/// `cfg.faults`) plus the flows to inject.
#[derive(Debug, Clone)]
pub struct Scenario {
    pub cfg: SimConfig,
    pub flows: Vec<FlowSpec>,
}

impl Scenario {
    /// Wrap an explicit config + flow list.
    pub fn new(cfg: SimConfig, flows: Vec<FlowSpec>) -> Scenario {
        Scenario { cfg, flows }
    }

    /// The Fig. 2/3/4 motivation dumbbell. Host layout:
    /// leaf 0 hosts: background senders H1..Hn, then Hc, then the Hb burst
    /// senders; leaf 1 hosts: background receivers R1..Rn, then Rc.
    ///
    /// Fig. 2 draws burst senders on the sending side as well as at S2; the
    /// mechanism the paper describes — "these paths have the risk of being
    /// paused by PFC due to bursty traffic" — requires the bursts to *cross
    /// the spines*, so that S2's uplink ingress counters (holding burst and fc
    /// packets stuck behind Rc's egress) hit the PFC threshold and pause the
    /// spine-side paths the measured flows share. We therefore place Hb on the
    /// sending leaf (see DESIGN.md, "Known deviations").
    pub fn motivation(mc: &MotivationConfig, scheme: Scheme, rlb: Option<RlbConfig>) -> Scenario {
        let hosts_per_leaf = mc.n_background + 1 + mc.n_burst_senders.max(mc.n_burst_senders_dst);
        let topo = TopoConfig {
            n_leaves: 2,
            n_spines: mc.n_paths,
            hosts_per_leaf,
            ..TopoConfig::default()
        };
        let mut cfg = SimConfig {
            topo,
            scheme,
            rlb,
            seed: mc.seed,
            hard_stop: SimTime::ZERO + mc.horizon.as_duration().mul_u64(20),
            ..SimConfig::default()
        };
        let mut flows = Vec::new();
        let h = |leaf: u32, idx: u32| leaf * hosts_per_leaf + idx;

        // Background: H_i on leaf 0 → R_i on leaf 1, Web Search arrivals.
        let bg_pairs: Vec<(u32, u32)> = (0..mc.n_background).map(|i| (h(0, i), h(1, i))).collect();
        let cdf = SizeCdf::web_search();
        let mut rng = substream(mc.seed, b"motivation-bg", 0);
        let core_bps = mc.n_paths as f64 * cfg.topo.link_rate_bps as f64;
        let lambda = mc.background_load * core_bps / (8.0 * cdf.mean_bytes());
        let mean_gap = 1e12 / lambda;
        let mut t = 0u64;
        loop {
            let u: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
            t += ((-u.ln()) * mean_gap).round().max(1.0) as u64;
            if t >= mc.horizon.as_ps() {
                break;
            }
            let &(src, dst) = bg_pairs.choose(&mut rng).expect("pairs");
            flows.push(
                FlowSpec::new(SimTime(t), src, dst, cdf.sample(&mut rng))
                    .with_group(BACKGROUND_GROUP),
            );
        }

        // Victim receiver Rc and congested sender Hc.
        let rc = h(1, mc.n_background);
        let hc = h(0, mc.n_background);

        // fc as `affected_paths` parallel subflows, all restricted to the first
        // `affected_paths` spines — the paper's control knob: congested traffic
        // may only choose (and therefore only pause) that many paths.
        let limit = mc.affected_paths.max(1).min(mc.n_paths) as u8;
        let sub = (mc.congested_flow_bytes / mc.affected_paths.max(1) as u64).max(1);
        for _ in 0..mc.affected_paths {
            flows.push(congested_flow(hc, rc, sub, SimTime::ZERO).with_path_limit(limit));
        }

        // Continuous bursts from the source-leaf Hb set across the core into
        // Rc, restricted to the same affected paths.
        let burst = BurstConfig {
            senders: (0..mc.n_burst_senders)
                .map(|i| h(0, mc.n_background + 1 + i))
                .collect(),
            dst_host: rc,
            flows_per_burst: mc.flows_per_burst,
            flow_bytes: 64_000,
            bursts: mc.bursts,
            start: SimTime::from_us(100),
            burst_gap: SimDuration::from_us(400),
        };
        flows.extend(
            burst
                .generate()
                .into_iter()
                .map(|f| f.with_path_limit(limit)),
        );

        // Bursts from the destination-leaf Hb set (single hop into Rc): they
        // keep the victim's egress queue and the S2 shared pool deep, so the
        // core-crossing congested traffic stays stuck at S2's uplink ingress.
        let local_burst = BurstConfig {
            senders: (0..mc.n_burst_senders_dst)
                .map(|i| h(1, mc.n_background + 1 + i))
                .collect(),
            dst_host: rc,
            flows_per_burst: mc.flows_per_burst,
            flow_bytes: 64_000,
            bursts: mc.bursts,
            start: SimTime::from_us(100),
            burst_gap: SimDuration::from_us(400),
        };
        flows.extend(local_burst.generate());
        flows.sort_by_key(|f| f.start);
        cfg.seed = mc.seed;
        Scenario { cfg, flows }
    }

    /// §4.1/§4.2 steady-state Poisson traffic between random inter-leaf host
    /// pairs at a target core load.
    pub fn steady_state(
        sc: &SteadyStateConfig,
        scheme: Scheme,
        rlb: Option<RlbConfig>,
    ) -> Scenario {
        let cfg = SimConfig {
            topo: sc.topo.clone(),
            scheme,
            rlb,
            seed: sc.seed,
            hard_stop: SimTime::ZERO + sc.horizon.as_duration().mul_u64(25),
            ..SimConfig::default()
        };
        let traffic = inter_leaf_poisson(&sc.topo, sc.workload.cdf(), sc.load);
        let mut rng = substream(sc.seed, b"steady-state", 0);
        let flows = traffic.generate(sc.horizon, &mut rng);
        Scenario { cfg, flows }
    }

    /// §4.3 incast over optional background traffic.
    pub fn incast(ic: &IncastScenarioConfig, scheme: Scheme, rlb: Option<RlbConfig>) -> Scenario {
        let cfg = SimConfig {
            topo: ic.topo.clone(),
            scheme,
            rlb,
            seed: ic.seed,
            hard_stop: SimTime::ZERO
                + ic.request_interval
                    .mul_u64(ic.requests as u64 + 1)
                    .mul_u64(30),
            ..SimConfig::default()
        };
        let horizon = SimTime::ZERO + ic.request_interval.mul_u64(ic.requests as u64);
        let mut rng = substream(ic.seed, b"incast", 0);
        let mut flows = incast::generate(
            &IncastConfig {
                degree: ic.degree,
                total_response_bytes: ic.total_response_bytes,
                requests: ic.requests,
                request_interval: ic.request_interval,
                num_hosts: ic.topo.n_hosts(),
                hosts_per_leaf: ic.topo.hosts_per_leaf,
            },
            &mut rng,
        );
        if ic.background_load > 0.0 {
            let traffic = inter_leaf_poisson(&ic.topo, SizeCdf::web_search(), ic.background_load);
            flows.extend(traffic.generate(horizon, &mut rng));
        }
        flows.sort_by_key(|f| f.start);
        Scenario { cfg, flows }
    }

    /// Failure sweep the paper never ran (see [`FailSweepConfig`]).
    pub fn fail_sweep(fc: &FailSweepConfig, scheme: Scheme, rlb: Option<RlbConfig>) -> Scenario {
        let n_links = fc.topo.n_leaves * fc.topo.n_spines;
        assert!(
            fc.n_failures <= n_links,
            "cannot fail {} of {} links",
            fc.n_failures,
            n_links
        );
        // Pick the victim links uniformly, deterministically per seed.
        let mut all: Vec<(u32, u32)> = (0..fc.topo.n_leaves)
            .flat_map(|l| (0..fc.topo.n_spines).map(move |s| (l, s)))
            .collect();
        let mut rng = substream(fc.seed, b"fail-sweep-links", 0);
        all.shuffle(&mut rng);
        let mut faults = Vec::with_capacity(fc.n_failures as usize * 2);
        for (i, &(leaf, spine)) in all.iter().take(fc.n_failures as usize).enumerate() {
            let down_at = fc.fail_at + fc.fail_stagger.mul_u64(i as u64);
            faults.push(TimedFault::new(down_at, Fault::LinkDown { leaf, spine }));
            if fc.fail_duration > SimDuration::ZERO {
                faults.push(TimedFault::new(
                    down_at + fc.fail_duration,
                    Fault::LinkUp { leaf, spine },
                ));
            }
        }
        faults.sort_by_key(|tf| tf.at);

        let cfg = SimConfig {
            topo: fc.topo.clone(),
            scheme,
            rlb,
            seed: fc.seed,
            hard_stop: SimTime::ZERO + fc.horizon.as_duration().mul_u64(25),
            faults,
            ..SimConfig::default()
        };
        let traffic = inter_leaf_poisson(&fc.topo, fc.workload.cdf(), fc.load);
        let mut rng = substream(fc.seed, b"fail-sweep-traffic", 0);
        let flows = traffic.generate_modulated(fc.horizon, &fc.load_curve, &mut rng);
        Scenario { cfg, flows }
    }

    /// Replace the fault timeline (validated when the simulation is built).
    #[must_use]
    pub fn with_faults(mut self, faults: Vec<TimedFault>) -> Scenario {
        self.cfg.faults = faults;
        self
    }

    /// Run on 1 shard: `run_with_shards(1)`.
    pub fn run(self) -> crate::sim::RunResult {
        self.run_with_shards(1)
    }

    /// Run on `shards` parallel shards — columns of the fabric, each a band
    /// of leaves with their hosts plus a band of spines, one thread apiece
    /// (bounded-window protocol; see `crate::shard`). Byte-identical for
    /// every shard count; monitoring, packet tracing and a zero link delay
    /// run on 1 shard whatever is asked for, and the count is clamped to
    /// `n_leaves`. Worth asking for when the box has a core per shard.
    pub fn run_with_shards(self, shards: u16) -> crate::sim::RunResult {
        crate::shard::run_sharded(self.cfg, self.flows, shards)
    }
}

/// Group tag labelling the measured background flows f1..fn in the
/// motivation scenario — Fig. 3/4 report metrics over these only, not the
/// bursty or congested traffic that *causes* the pausing.
pub const BACKGROUND_GROUP: u64 = u64::MAX - 1;

/// §4.1/§4.2 steady-state scenario: Poisson arrivals of a realistic
/// workload between random inter-leaf host pairs at a target core load.
#[derive(Debug, Clone, Serialize)]
pub struct SteadyStateConfig {
    pub topo: TopoConfig,
    pub workload: Workload,
    pub load: f64,
    pub horizon: SimTime,
    pub seed: u64,
}

impl Default for SteadyStateConfig {
    fn default() -> Self {
        SteadyStateConfig {
            topo: TopoConfig::default(),
            workload: Workload::WebSearch,
            load: 0.6,
            horizon: SimTime::from_ms(20),
            seed: 1,
        }
    }
}
/// §4.2's asymmetric topology: degrade 20% of randomly chosen leaf–spine
/// links from 40 to 10 Gbps.
pub fn asymmetric_topo(base: &TopoConfig, fraction: f64, seed: u64) -> TopoConfig {
    let mut topo = base.clone();
    let mut all: Vec<(u32, u32)> = (0..topo.n_leaves)
        .flat_map(|l| (0..topo.n_spines).map(move |s| (l, s)))
        .collect();
    let mut rng = substream(seed, b"asymmetry", 0);
    all.shuffle(&mut rng);
    let k = ((all.len() as f64) * fraction).round() as usize;
    topo.degraded_links = all.into_iter().take(k).collect();
    topo
}

/// §4.3 incast scenario, optionally over light background traffic.
#[derive(Debug, Clone, Serialize)]
pub struct IncastScenarioConfig {
    pub topo: TopoConfig,
    pub degree: u32,
    pub total_response_bytes: u64,
    pub requests: u32,
    pub request_interval: SimDuration,
    /// Background load (0 disables background).
    pub background_load: f64,
    pub seed: u64,
}

impl Default for IncastScenarioConfig {
    fn default() -> Self {
        IncastScenarioConfig {
            topo: TopoConfig::default(),
            degree: 15,
            total_response_bytes: 4_000_000,
            requests: 8,
            request_interval: SimDuration::from_ms(1),
            background_load: 0.2,
            seed: 1,
        }
    }
}
/// Failure sweep: steady-state Poisson traffic over a healthy fabric, then
/// `n_failures` distinct leaf–spine links go down mid-run (staggered), each
/// recovering after `fail_duration`. The links are chosen uniformly by seed
/// (the [`asymmetric_topo`] idiom), so replicates fail different links.
///
/// This is the scenario behind `fig_fail` — an experiment the paper never
/// ran, but squarely inside its premise: schemes that cannot perceive PFC
/// pausing keep spraying into paths stalled behind a dead link, while RLB's
/// warning chain steers flows off the failed spine.
#[derive(Debug, Clone, Serialize)]
pub struct FailSweepConfig {
    pub topo: TopoConfig,
    pub workload: Workload,
    /// Offered load as a fraction of the healthy core capacity.
    pub load: f64,
    /// Flow-arrival horizon.
    pub horizon: SimTime,
    /// Distinct leaf–spine links that fail (the sweep's x-axis).
    pub n_failures: u32,
    /// Instant the first link goes down.
    pub fail_at: SimTime,
    /// Gap between successive link failures.
    pub fail_stagger: SimDuration,
    /// Outage length per link; `SimDuration::ZERO` = no recovery.
    pub fail_duration: SimDuration,
    /// Offered-load multiplier over time (flat 1.0 by default).
    pub load_curve: LoadCurve,
    pub seed: u64,
}

impl Default for FailSweepConfig {
    fn default() -> Self {
        FailSweepConfig {
            topo: TopoConfig::default(),
            workload: Workload::WebSearch,
            load: 0.5,
            horizon: SimTime::from_ms(4),
            n_failures: 2,
            fail_at: SimTime::from_us(200),
            fail_stagger: SimDuration::from_us(100),
            fail_duration: SimDuration::from_ms(1),
            load_curve: LoadCurve::flat(),
            seed: 1,
        }
    }
}
/// Poisson arrivals of `cdf`-sized flows between random inter-leaf host
/// pairs, offered at `load` × the fabric's healthy core capacity.
pub(crate) fn inter_leaf_poisson(topo: &TopoConfig, cdf: SizeCdf, load: f64) -> PoissonTraffic {
    PoissonTraffic::with_load(
        cdf,
        topo.n_hosts(),
        PairPolicy::InterLeaf {
            hosts_per_leaf: topo.hosts_per_leaf,
        },
        load,
        topo.core_bits_per_sec(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn motivation_layout() {
        let mc = MotivationConfig {
            n_background: 4,
            n_burst_senders: 2,
            n_burst_senders_dst: 2,
            n_paths: 8,
            affected_paths: 3,
            bursts: 2,
            flows_per_burst: 5,
            horizon: SimTime::from_us(500),
            ..MotivationConfig::default()
        };
        let sc = Scenario::motivation(&mc, Scheme::Drill, None);
        assert_eq!(sc.cfg.topo.n_leaves, 2);
        assert_eq!(sc.cfg.topo.n_spines, 8);
        assert_eq!(sc.cfg.topo.hosts_per_leaf, 7);
        // fc subflows present: 3 flows of ~2/3 MB from Hc (leaf 0, idx 4)
        // to Rc (leaf 1, idx 4).
        let hc = 4;
        let rc = 7 + 4;
        // burst senders live on BOTH leaves: the source-leaf set crosses
        // the spines (path-limited), the destination-leaf set is local.
        let burst_srcs: std::collections::HashSet<u32> = sc
            .flows
            .iter()
            .filter(|f| f.size_bytes == 64_000 && f.dst_host == rc)
            .map(|f| f.src_host)
            .collect();
        assert!(
            burst_srcs.iter().any(|&s| s < 7),
            "need Hb on leaf 0: {burst_srcs:?}"
        );
        assert!(
            burst_srcs.iter().any(|&s| s >= 7),
            "need Hb on leaf 1: {burst_srcs:?}"
        );
        // core-crossing bursts carry the path restriction; local ones don't
        for f in sc
            .flows
            .iter()
            .filter(|f| f.size_bytes == 64_000 && f.dst_host == rc)
        {
            if f.src_host < 7 {
                assert_eq!(f.path_limit, Some(3));
            } else {
                assert_eq!(f.path_limit, None);
            }
        }
        let fc: Vec<_> = sc
            .flows
            .iter()
            .filter(|f| f.src_host == hc && f.dst_host == rc)
            .collect();
        assert_eq!(fc.len(), 3);
        // bursts: (2 src + 2 dst) senders × 5 flows × 2 bursts to Rc.
        let bursts = sc
            .flows
            .iter()
            .filter(|f| f.dst_host == rc && f.size_bytes == 64_000)
            .count();
        assert_eq!(bursts, 40);
        // arrival-sorted
        for w in sc.flows.windows(2) {
            assert!(w[0].start <= w[1].start);
        }
    }

    #[test]
    fn asymmetric_degrades_requested_fraction() {
        let t = asymmetric_topo(&TopoConfig::default(), 0.2, 7);
        // 4×4 = 16 links; 20% → 3 degraded.
        assert_eq!(t.degraded_links.len(), 3);
        t.validate().unwrap();
        // deterministic per seed
        let t2 = asymmetric_topo(&TopoConfig::default(), 0.2, 7);
        assert_eq!(t.degraded_links, t2.degraded_links);
        let t3 = asymmetric_topo(&TopoConfig::default(), 0.2, 8);
        assert_ne!(t.degraded_links, t3.degraded_links);
    }

    #[test]
    fn steady_state_generates_interleaf_poisson() {
        let sc = Scenario::steady_state(
            &SteadyStateConfig {
                horizon: SimTime::from_ms(5),
                load: 0.4,
                ..SteadyStateConfig::default()
            },
            Scheme::Presto,
            None,
        );
        assert!(!sc.flows.is_empty());
        let hpl = sc.cfg.topo.hosts_per_leaf;
        assert!(sc
            .flows
            .iter()
            .all(|f| f.src_host / hpl != f.dst_host / hpl));
    }

    #[test]
    fn incast_scenario_tags_groups() {
        let sc = Scenario::incast(
            &IncastScenarioConfig {
                requests: 3,
                degree: 5,
                background_load: 0.0,
                ..IncastScenarioConfig::default()
            },
            Scheme::Hermes,
            Some(RlbConfig::default()),
        );
        assert_eq!(sc.flows.len(), 15);
        assert!(sc.flows.iter().all(|f| f.group < 3));
        assert!(sc.cfg.rlb.is_some());
    }

    #[test]
    fn fail_sweep_builds_sorted_validated_timeline() {
        let fc = FailSweepConfig {
            n_failures: 3,
            horizon: SimTime::from_ms(1),
            ..FailSweepConfig::default()
        };
        let sc = Scenario::fail_sweep(&fc, Scheme::Drill, Some(RlbConfig::default()));
        // 3 outages, each with a recovery.
        assert_eq!(sc.cfg.faults.len(), 6);
        sc.cfg.validate().expect("fail-sweep config validates");
        let downs: Vec<_> = sc
            .cfg
            .faults
            .iter()
            .filter(|tf| matches!(tf.fault, Fault::LinkDown { .. }))
            .collect();
        assert_eq!(downs.len(), 3);
        assert_eq!(downs[0].at, fc.fail_at);
        // distinct victim links
        let mut links: Vec<(u32, u32)> = sc
            .cfg
            .faults
            .iter()
            .filter_map(|tf| match tf.fault {
                Fault::LinkDown { leaf, spine } => Some((leaf, spine)),
                _ => None,
            })
            .collect();
        links.sort_unstable();
        links.dedup();
        assert_eq!(links.len(), 3);
        assert!(!sc.flows.is_empty());
        // deterministic per seed, different across seeds
        let sc2 = Scenario::fail_sweep(&fc, Scheme::Drill, Some(RlbConfig::default()));
        assert_eq!(sc.cfg.faults, sc2.cfg.faults);
        let sc3 = Scenario::fail_sweep(
            &FailSweepConfig {
                seed: 9,
                ..fc.clone()
            },
            Scheme::Drill,
            None,
        );
        assert_ne!(sc.cfg.faults, sc3.cfg.faults);
    }

    #[test]
    fn with_faults_replaces_the_timeline() {
        let faulted = Scenario::steady_state(&SteadyStateConfig::default(), Scheme::Drill, None)
            .with_faults(vec![TimedFault::new(
                SimTime::from_us(5),
                Fault::SpineDown { spine: 1 },
            )]);
        assert_eq!(faulted.cfg.faults.len(), 1);
        faulted.cfg.validate().expect("faulted scenario validates");
    }
}
