//! The simulation: event dispatch wiring hosts, switches, transport, load
//! balancing and RLB together.
//!
//! One `Simulation` owns the whole fabric. Every interaction is an explicit
//! event with real latency — PFC PAUSE frames take a propagation delay to
//! arrive, CNM warnings serialize onto reverse links hop-by-hop, packets
//! occupy shared buffer from ingress admission to egress completion.
//!
//! A run split over N shards is N such replicas, each built whole and each
//! dispatching only the entities of its column — a band of leaves with
//! their hosts and a band of spines (`Simulation::shard_for`) — under the
//! window driver of `crate::shard`; frames for another column leave
//! through `sched_wire`'s outboxes. One shard is the same code with every
//! entity in column 0.

#[cfg(feature = "audit")]
use crate::audit::{AuditReport, FabricAuditor};
use crate::config::{SimConfig, TopoConfig};
use crate::fault::Fault;
use crate::host::{FlowState, FlowTransport, Host, Rx, TransportMode, Tx};
use crate::monitor::{FabricSample, FabricTimeSeries};
use crate::packet::{Packet, PacketKind, NO_PATH};
use crate::switch::{EgressPort, LbInstance, LeafState, PfcAction, Reserved, Switch};
use crate::topology::{Node, Topology};
use crate::trace::{FlowTraces, TraceEvent};
use rlb_core::{conservative_qth, Decision, PfcPredictor, Prediction, Rlb};
use rlb_engine::{
    shard_key, substream, tx_delay, PacketArena, ShardEventQueue, SimDuration, SimTime,
};
use rlb_lb::{Ctx, PathInfo};
use rlb_metrics::{record, FabricCounters, FctSummary, FlowRecord, LogHistogram};
use rlb_workloads::FlowSpec;

/// Simulation events.
///
/// Deliberately not `Clone`: every event is dispatched exactly once and
/// packets move by value through the fabric (`cargo xtask lint`'s
/// hot-clone rule guards the dispatch arms).
#[derive(Debug)]
pub(crate) enum Event {
    FlowStart(u32),
    /// NIC pacing wake-up.
    HostWake(u32),
    /// A frame finished propagating and arrives at (node, port).
    LinkArrive { node: Node, port: u16, pkt: Packet },
    /// A switch egress or a host NIC (`Host(h)`, port 0) finished
    /// serializing; `release` = (ingress_port, bytes) to free from the
    /// shared buffer for a switch's data frames, `None` otherwise.
    EgressDone {
        node: Node,
        port: u16,
        release: Option<(u16, u32)>,
    },
    /// PFC PAUSE (true) / RESUME (false) takes effect at (node, port).
    PauseFrame { node: Node, port: u16, pause: bool },
    /// RLB Δt sampling tick: one event per switch samples **all** of its
    /// active ingress ports (identical sampling times ⇒ identical
    /// predictions), instead of one event per (node, port).
    PredictorTick(Node),
    /// A recirculated packet re-enters the routing pipeline.
    Recirculate { node: Node, pkt: Packet },
    /// Global DCQCN alpha-update tick over every active flow.
    AlphaTick,
    /// Global DCQCN rate-increase tick over every active flow.
    IncreaseTick,
    /// Per-flow retransmission-timeout probe (kept per-flow: its period is
    /// long and coalescing would skew fresh flows toward spurious timeouts).
    RtoCheck(u32),
    /// Periodic fabric snapshot (only when monitoring is enabled).
    MonitorTick,
    /// Apply entry `i` of the fault timeline (`SimConfig::faults`). The
    /// payload is an index, not the fault itself, so the event stays `Copy`
    /// -cheap and the timeline remains readable in one place.
    Fault(u32),
}

/// Canonical entity ranks for the `(sched_ps, entity, count)` tie key.
///
/// Every event carries a `u128` key packing the simulated time the schedule
/// was *issued*, the rank of the scheduling entity, and that entity's own
/// running schedule counter (`shard_key`). Ranks are a fixed property of
/// the **topology**, never of the shard layout — hosts, leaves and spines
/// get consecutive ranks after the two reserved ones below — so the key a
/// given causal event chain produces is byte-identical whether the fabric
/// runs on one shard or many. (Keying by *shard id* instead would reorder
/// same-picosecond ties from different leaves whenever the leaf→shard map
/// changes, e.g. synchronized incast responders arriving at one spine.)
///
/// `RANK_CONSTRUCT` keys construction-time schedules (flow starts, the
/// fault timeline, the initial DCQCN ticks) under a single global index,
/// and sorts before every runtime rank so time-zero construction events
/// dispatch in insertion order for every shard count. `RANK_GLOBAL` keys
/// fabric-wide clocks (DCQCN tick re-arms, monitor ticks) that are
/// replicated on every shard and therefore advance each replica's counter
/// identically.
pub(crate) const RANK_CONSTRUCT: u16 = 0;
pub(crate) const RANK_GLOBAL: u16 = 1;

/// A timestamped cross-shard event: produced by [`Simulation::sched_wire`]
/// when the receiving entity lives on another shard, carried through the
/// bounded-window driver's mailboxes, and applied at the receiver via
/// `ShardEventQueue::insert_message`. The key is computed by the *sender*
/// with exactly the derivation a local schedule uses, so merge order at
/// the receiver is independent of delivery route and arrival order.
pub(crate) struct WireMsg {
    pub at: SimTime,
    pub key: u128,
    pub ev: Event,
}

/// An output-visible side effect of one dispatched event.
///
/// 1-shard runs apply these immediately: `dispatch_window` stops at the
/// event that completes the last flow. With peers a shard journals them
/// under the dispatching event's canonical key, because the *final* window
/// over-dispatches: shards that cannot see the last completion keep
/// executing until the barrier reports it, so effects keyed after the
/// global completion point `k_c` must be dropped to match the 1-shard
/// run. Which window is final is only known at its barrier, so every
/// window journals and folds (`Simulation::fold_journal`).
///
/// Physical fabric state (queues, PFC flags, reliability windows) is *not*
/// journaled — overshoot there is invisible because nothing after the fold
/// reads it into the result. Receiver-side OOO accounting needs no journal
/// either: past `k_c` every flow is complete, so late data arrivals are
/// duplicates below the cumulative ACK and bump no histogram.
#[derive(Debug, Clone, Copy)]
enum JEffect {
    Pause { id: (bool, u32), port: u16 },
    Resume,
    CnmGen(u64),
    CnmRelay,
    Recirc { flow: u32 },
    SwitchPkt,
    BufferDrop,
    EcnMark,
    PausedDwell(SimDuration),
    RlbStats { re: u64, fw: u64, fo: u64 },
    Fault,
}

record! {
    /// Wall-clock performance telemetry for one run.
    ///
    /// Measurement only: nothing in the simulation reads these values, so
    /// determinism of the simulated results is unaffected by host speed.
    ///
    /// The kind in front of each field says how two values combine: over
    /// the shards of one run (`shard::drive` absorbs the replicas' counts,
    /// then assigns what only the driver knows) and over the jobs of a
    /// batch (the report's `<name>_total` / `<name>_max`).
    #[derive(Debug, Clone, Copy, Default)]
    pub struct PerfStats {
        /// Wall-clock time spent inside the window driver, milliseconds.
        Keep wall_ms: f64,
        /// Events dispatched per wall-clock second.
        Keep events_per_sec: f64,
        /// Source-leaf load-balancing decisions taken (one per data packet
        /// leaving a leaf via the fabric, including recirculation re-decides).
        Sum decisions: u64,
        /// Decisions served from a byte-identical cached path snapshot.
        Sum snapshot_reuses: u64,
        /// Decisions where only the dirty spines were rewritten in place;
        /// everything else in the snapshot was reused.
        Sum snapshot_refreshes: u64,
        /// Decisions that rebuilt the path snapshot from scratch (first touch
        /// of a (leaf, dst_leaf) pair, or a fault-epoch change).
        Sum snapshot_rebuilds: u64,
        /// Spines whose egress-queue generation was stale across all refresh
        /// decisions (the queue-side dirty-bit split of the refresh work).
        Sum snapshot_dirty_queue_spines: u64,
        /// Spines whose warning/RTT/ECN signal generations were stale across
        /// all refresh decisions (the signal-side dirty-bit split).
        Sum snapshot_dirty_sig_spines: u64,
        /// Peak number of packets simultaneously parked in the packet arena.
        Max arena_high_water: u64,
        /// Arena slots ever allocated (its backing-store footprint).
        Max arena_capacity: u64,
        /// Peak number of events pending in the event queue at once.
        Max queue_high_water: u64,
        /// Events the event queue's storage can hold at the end of the
        /// run, spare chunks included (its backing-store footprint; only
        /// level-0 burst storage is given back).
        Max queue_capacity: u64,
        /// Shards the run was partitioned into (1 = one replica owning the
        /// whole fabric, dispatched on the caller's thread).
        Max shards: u64,
        /// Bounded-window rounds the shards synchronized on (0 with 1 shard:
        /// its single window spans the whole horizon and has no peer to meet).
        Sum window_advances: u64,
        /// Cross-shard wire messages exchanged over the run.
        Sum cross_shard_messages: u64,
        /// (shard, window) pairs that dispatched zero events — windows where a
        /// shard only waited at the barrier. Deterministic: a function of the
        /// event timeline, not of thread scheduling.
        Sum barrier_stalls: u64,
        /// Sum over shards of per-shard dispatch throughput (events per second
        /// of that shard's own busy time). Secondary to `events_per_sec`:
        /// barrier waits and mailbox hand-offs are outside busy time, so this
        /// is what the shards would sustain if synchronization were free and
        /// each had a core — it cannot show whether sharding paid off.
        Max aggregate_events_per_sec: f64,
        /// Completions whose event was never scheduled (DESIGN §9.7),
        /// counted once their reserved time has passed. On one shard
        /// `events_processed + completions_elided` is what dispatching every
        /// completion would have counted.
        Sum completions_elided: u64,
        /// Events dispatched, one count per event class; they sum to
        /// `events_processed`. A class is an `Event` variant, except that
        /// `EgressDone` splits into switch ports (`events_egress_done`)
        /// and host NICs (`events_host_egress_done`).
        Sum events_flow_start: u64,
        Sum events_host_wake: u64,
        Sum events_link_arrive: u64,
        Sum events_egress_done: u64,
        Sum events_host_egress_done: u64,
        Sum events_pause_frame: u64,
        Sum events_predictor_tick: u64,
        Sum events_recirculate: u64,
        Sum events_alpha_tick: u64,
        Sum events_increase_tick: u64,
        Sum events_rto_check: u64,
        Sum events_monitor_tick: u64,
        Sum events_fault: u64,
    }
}

/// Outcome of one run.
pub struct RunResult {
    pub records: Vec<FlowRecord>,
    pub counters: FabricCounters,
    /// Distribution of out-of-order degrees over all OOO arrivals.
    pub ood_histogram: LogHistogram,
    /// Simulated time at which the run ended.
    pub end_time: SimTime,
    pub events_processed: u64,
    /// Group tag per flow record (same order as `records`; incast harness).
    pub groups: Vec<u64>,
    /// Periodic fabric snapshots (empty unless monitoring was enabled).
    pub timeseries: FabricTimeSeries,
    /// Per-flow packet traces (empty unless `trace_flows` was set).
    pub traces: FlowTraces,
    /// PFC pause frames sent, keyed by ((is_spine, switch_idx), port).
    /// Deterministic iteration order (BTreeMap) so two runs of the same
    /// scenario can be compared entry-by-entry.
    pub pfc_pauses_by_port: std::collections::BTreeMap<((bool, u32), u16), u64>,
    /// Wall-clock speed of this run (excluded from determinism digests).
    pub perf: PerfStats,
}

impl RunResult {
    pub fn summary(&self) -> FctSummary {
        FctSummary::from_records(&self.records)
    }

    /// Completion time of each flow group (incast request): group id →
    /// (last finish − first start) in ms, only for fully completed groups.
    pub fn group_completion_ms(&self) -> Vec<(u64, f64)> {
        use std::collections::btree_map::Entry;
        use std::collections::BTreeMap;
        // Accumulator per group: (earliest start, latest finish — `None` as
        // soon as any member is unfinished). Seeded from the first record's
        // actual values, never from a sentinel: a `(u64::MAX, Some(0))`
        // seed would fabricate a finish time for groups that should merge
        // from their own data.
        let mut groups: BTreeMap<u64, (u64, Option<u64>)> = BTreeMap::new();
        for (r, g) in self.records.iter().zip(self.groups.iter()) {
            if *g == u64::MAX {
                continue;
            }
            match groups.entry(*g) {
                Entry::Vacant(v) => {
                    v.insert((r.start_ps, r.finish_ps));
                }
                Entry::Occupied(mut o) => {
                    let e = o.get_mut();
                    e.0 = e.0.min(r.start_ps);
                    e.1 = match (e.1, r.finish_ps) {
                        (Some(acc), Some(f)) => Some(acc.max(f)),
                        _ => None,
                    };
                }
            }
        }
        groups
            .into_iter()
            .filter_map(|(g, (start, finish))| {
                finish.map(|f| (g, (f.saturating_sub(start)) as f64 / 1e9))
            })
            .collect()
    }

    /// Fraction of transmitted data packets that arrived out of order.
    pub fn ooo_ratio(&self) -> f64 {
        self.summary().ooo_ratio
    }
}

pub struct Simulation {
    cfg: SimConfig,
    topo: Topology,
    q: ShardEventQueue<Event>,
    leaves: Vec<Switch>,
    spines: Vec<Switch>,
    hosts: Vec<Host>,
    /// Every packet parked in a queue anywhere in the fabric (switch egress
    /// classes, host NIC control queues) lives in this generational arena;
    /// the queues themselves hold 4-byte `PacketHandle`s.
    arena: PacketArena<Packet>,
    flows: Vec<FlowState>,
    /// What each flow's transport halves are built from.
    transport: FlowTransport,
    /// This replica's unstarted flows (source host owned), latest
    /// `(start, id)` first: each `FlowStart` pops itself and arms the new
    /// last, so the queue holds one pending start, not all of them.
    starts: Vec<u32>,
    counters: FabricCounters,
    ood_histogram: LogHistogram,
    completed: usize,
    /// Events this replica has dispatched so far.
    events: u64,
    /// Per-(leaf, dst_leaf) cached path snapshots with per-spine generation
    /// stamps (see `assemble_paths`), indexed `leaf * n_leaves + dst_leaf`.
    path_snaps: Vec<PathSnap>,
    /// Bumped by every fault application; snapshots built under an older
    /// epoch rebuild from scratch (faults may change link state/rate).
    fault_epoch: u64,
    /// This replica's decision and snapshot-cache counts; the arena peaks
    /// join in `into_parts`, the driver owns the rest.
    perf: PerfStats,
    /// Typed accumulator for PFC pause dwell time, folded into
    /// `counters.paused_port_time_ps` once at end of run.
    paused_port_time: SimDuration,
    /// Scratch: ingress ports that warned during one predictor tick.
    warn_scratch: Vec<u16>,
    /// This replica's shard id / total shard count (0 of 1 = the whole fabric).
    shard_id: u16,
    n_shards: u16,
    /// Ranks of leaf 0 and spine 0 (`rank_node` runs once per frame sent).
    rank_leaf0: u16,
    rank_spine0: u16,
    /// Owning shard of every entity, indexed by rank — `shard_for` tabulated
    /// once, so `sched_wire` pays one load per frame instead of the
    /// host→leaf and band divisions.
    shard_map: Vec<u16>,
    /// Per-entity schedule counters backing the canonical tie key
    /// (indexed by rank; see `RANK_CONSTRUCT`).
    ent_cnt: Vec<u64>,
    /// Canonical key of the event currently being dispatched.
    cur_key: u128,
    /// End (exclusive) of the window last dispatched: every reserved
    /// completion before it has passed, every one at or after it is still
    /// pending at the barrier.
    window_end: u64,
    /// `(time, key)` of the latest flow completion seen on this shard.
    last_completion: Option<(u64, u128)>,
    /// Journaled output effects (sharded mode; folded at each barrier).
    journal: Vec<(u64, u128, JEffect)>,
    /// Cross-shard messages produced by the current window, per destination
    /// shard (drained by the driver at the window barrier).
    outbox: Vec<Vec<WireMsg>>,
    /// CNM relay TTL.
    cnm_ttl: u8,
    timeseries: FabricTimeSeries,
    traces: FlowTraces,
    pfc_pauses_by_port: std::collections::BTreeMap<((bool, u32), u16), u64>,
    #[cfg(feature = "audit")]
    auditor: FabricAuditor,
}

/// One (leaf, dst_leaf) cached path snapshot plus the per-spine generation
/// stamps it was built from. A stored `PathInfo` entry stays byte-identical
/// while its spine's egress-queue generation (`EgressPort::q_gen`) and
/// signal generations (`LeafState::{path_sig_gen, uplink_sig_gen}`) hold
/// still, the fault epoch is unchanged, and no armed warning crosses its
/// expiry boundary (`valid_until_ps` — warnings decay by pure passage of
/// time, bumping no counter). Stale spines are rewritten individually, so a
/// single busy uplink no longer invalidates its seven idle siblings.
#[derive(Debug)]
struct PathSnap {
    paths: Vec<PathInfo>,
    /// Per-spine `EgressPort::q_gen` at last (re)build of that entry.
    q_gens: Vec<u64>,
    /// Per-spine `LeafState::path_sig_gen(spine, dst_leaf)` stamp.
    sig_gens: Vec<u64>,
    /// Per-spine `LeafState::uplink_sig_gen(spine)` stamp.
    uplink_gens: Vec<u64>,
    /// Per-spine warning deadline observed at the last signal probe
    /// (0 = no warning recorded then; may sit in the past once expired).
    warned_until_ps: Vec<u64>,
    /// Earliest instant at which any armed warning in `paths` lapses.
    valid_until_ps: u64,
    /// `Simulation::fault_epoch` the snapshot was built under.
    fault_epoch: u64,
    /// The snapshot has been built at least once.
    init: bool,
}

impl PathSnap {
    fn empty(n_spines: usize) -> PathSnap {
        PathSnap {
            paths: Vec::with_capacity(n_spines),
            q_gens: vec![0; n_spines],
            sig_gens: vec![0; n_spines],
            uplink_gens: vec![0; n_spines],
            warned_until_ps: vec![0; n_spines],
            valid_until_ps: 0,
            fault_epoch: 0,
            init: false,
        }
    }
}

/// Encode a switch identity into the CNM origin field.
fn encode_node(n: Node) -> u32 {
    match n {
        Node::Leaf(l) => l,
        Node::Spine(s) => 0x8000_0000 | s,
        Node::Host(_) => unreachable!("hosts never originate CNMs"),
    }
}

fn decode_node(v: u32) -> Node {
    if v & 0x8000_0000 != 0 {
        Node::Spine(v & 0x7FFF_FFFF)
    } else {
        Node::Leaf(v)
    }
}

impl Simulation {
    pub fn new(cfg: SimConfig, specs: Vec<FlowSpec>) -> Simulation {
        Simulation::new_shard(cfg, specs, 0, 1)
    }

    /// Build shard `shard_id` of an `n_shards`-way partitioned run.
    ///
    /// Every shard constructs the **entire** fabric identically — same
    /// switches, hosts, flow table and RNG substreams — and differs only in
    /// which construction events enter its queue: flow starts are armed, one
    /// at a time, on the shard owning the source host; the fault timeline and the
    /// global DCQCN ticks are replicated everywhere (faults mutate link
    /// state every shard may read, ticks drive per-shard flow clocks).
    /// Replication is what keeps per-entity RNG streams and tie keys
    /// automatically identical across shard counts: no state is derived
    /// from the shard layout.
    pub(crate) fn new_shard(
        cfg: SimConfig,
        specs: Vec<FlowSpec>,
        shard_id: u16,
        n_shards: u16,
    ) -> Simulation {
        cfg.validate().expect("invalid SimConfig");
        assert!(shard_id < n_shards.max(1), "shard id out of range");
        let topo = Topology::new(cfg.topo.clone());
        let n_leaves = cfg.topo.n_leaves;
        let n_spines = cfg.topo.n_spines;
        let hpl = cfg.topo.hosts_per_leaf;
        let d = cfg.topo.link_delay_ps;

        // Base RTT estimate seeding the per-path estimators: 8 link hops
        // (4 out, 4 back) of propagation + serialization.
        let mtu_wire = cfg.mtu_wire_bytes() as u64;
        let base_one_way = SimDuration::from_ps(cfg.topo.base_one_way_ps(mtu_wire));
        let base_rtt_ns = base_one_way.mul_u64(2).as_ns_f64();

        let contributor_window = cfg
            .rlb
            .as_ref()
            .map(|r| SimDuration::from_ps(r.warn_lifetime_ps).mul_u64(4).as_ps())
            .unwrap_or(10_000_000);

        let mut leaves = Vec::with_capacity(n_leaves as usize);
        for l in 0..n_leaves {
            let n_ports = (hpl + n_spines) as usize;
            let rates: Vec<u64> = (0..n_ports as u16)
                .map(|p| topo.port_rate_bps(Node::Leaf(l), p))
                .collect();
            let mut sw = Switch::new(
                n_ports,
                cfg.switch.clone(),
                rates,
                contributor_window,
                substream(cfg.seed, b"switch-leaf", l as u64),
            );
            // The deployed LB scheme, optionally wrapped in RLB.
            let inner = rlb_lb::build(
                cfg.scheme,
                cfg.transport.mtu_bytes as u64,
                substream(cfg.seed, b"lb-leaf", l as u64),
            );
            let lb = match &cfg.rlb {
                Some(rcfg) => LbInstance::Rlb(Rlb::new(inner, rcfg.clone())),
                None => LbInstance::Vanilla(inner),
            };
            sw.leaf = Some(LeafState::new(
                lb,
                n_spines as usize,
                n_leaves as usize,
                base_rtt_ns,
            ));
            if let Some(rcfg) = &cfg.rlb {
                sw.predictors = (0..n_ports)
                    .map(|_| {
                        Self::make_predictor(&cfg, rcfg, d)
                    })
                    .collect();
            }
            leaves.push(sw);
        }

        let mut spines = Vec::with_capacity(n_spines as usize);
        for s in 0..n_spines {
            let n_ports = n_leaves as usize;
            let rates: Vec<u64> = (0..n_ports as u16)
                .map(|p| topo.port_rate_bps(Node::Spine(s), p))
                .collect();
            let mut sw = Switch::new(
                n_ports,
                cfg.switch.clone(),
                rates,
                contributor_window,
                substream(cfg.seed, b"switch-spine", s as u64),
            );
            if let Some(rcfg) = &cfg.rlb {
                sw.predictors = (0..n_ports)
                    .map(|_| Self::make_predictor(&cfg, rcfg, d))
                    .collect();
            }
            spines.push(sw);
        }

        let n_hosts = topo.n_hosts();
        let mut hosts: Vec<Host> = (0..n_hosts)
            .map(|h| Host::new(topo.port_rate_bps(Node::Host(h), 0)))
            .collect();

        // IRN window: one bandwidth-delay product of full-size packets
        // (IRN's "BDP-FC"), with a small floor.
        let irn_window = (base_one_way.mul_u64(2).as_secs_f64()
            * cfg.topo.host_link_rate_bps as f64
            / (8.0 * mtu_wire as f64))
            .ceil()
            .max(4.0) as u32;

        // Entity ranks: 2 reserved + one per host, leaf and spine. The tie
        // key gives ranks 16 bits (`shard_key`), which bounds the fabric at
        // ~65k entities — far above the paper-scale 12×12×288 topology;
        // `TopoConfig::validate` (run above) rejects anything larger.
        let n_ranks = 2usize + n_hosts as usize + n_leaves as usize + n_spines as usize;
        // Rank order is hosts, leaves, spines (`rank_node`); the two
        // reserved ranks own nothing.
        let nodes = (0..n_hosts)
            .map(Node::Host)
            .chain((0..n_leaves).map(Node::Leaf))
            .chain((0..n_spines).map(Node::Spine));
        let shard_map: Vec<u16> = [0, 0]
            .into_iter()
            .chain(nodes.map(|node| Self::shard_for(&cfg.topo, n_shards, node)))
            .collect();
        debug_assert_eq!(shard_map.len(), n_ranks);

        let transport = FlowTransport {
            mode: cfg.transport.mode,
            irn_window,
            dcqcn: rlb_transport::DcqcnConfig {
                line_rate_bps: cfg.topo.host_link_rate_bps as f64,
                ..cfg.transport.dcqcn.clone()
            },
        };
        let mut flows = Vec::with_capacity(specs.len());
        let mut starts = Vec::new();
        for (i, spec) in specs.into_iter().enumerate() {
            assert!(spec.src_host < n_hosts && spec.dst_host < n_hosts);
            assert_ne!(spec.src_host, spec.dst_host, "flow to self");
            hosts[spec.src_host as usize].list(i as u32);
            if shard_map[2 + spec.src_host as usize] == shard_id {
                starts.push(i as u32);
            }
            flows.push(FlowState::new(spec, cfg.transport.mtu_bytes));
        }
        starts.sort_unstable_by_key(|&f| std::cmp::Reverse((flows[f as usize].spec.start, f)));
        let n_flows = flows.len() as u64;

        let mut q = ShardEventQueue::new();
        if let Some(&f) = starts.last() {
            Self::arm_start(&mut q, &flows, f);
        }

        // The fault timeline rides the same wheel as everything else: one
        // event per entry, fired in deterministic (time, key) order, and
        // replicated on every shard (faults mutate fabric state that any
        // shard may read — link and NIC rates).
        for (i, tf) in cfg.faults.iter().enumerate() {
            q.insert_message(
                tf.at,
                shard_key(0, RANK_CONSTRUCT, n_flows + i as u64),
                Event::Fault(i as u32),
            );
        }

        // DCQCN's global alpha/rate-increase clocks are armed once here,
        // phase-locked to the earliest flow start, and re-arm
        // unconditionally until the run ends (completion or hard stop). A
        // fixed phase keeps the tick event sequence identical across shard
        // counts — demand-armed ticks would re-phase after idle gaps, which
        // is invisible on 1 shard but breaks the canonical-order contract
        // between replicas.
        if let Some(t0) = flows.iter().map(|f| f.spec.start).min() {
            let base = n_flows + cfg.faults.len() as u64;
            let t = &cfg.transport;
            q.insert_message(
                t0 + SimDuration(t.dcqcn.alpha_timer_ps),
                shard_key(0, RANK_CONSTRUCT, base),
                Event::AlphaTick,
            );
            q.insert_message(
                t0 + SimDuration(t.dcqcn.increase_timer_ps),
                shard_key(0, RANK_CONSTRUCT, base + 1),
                Event::IncreaseTick,
            );
        }

        let cfg_trace_flows = cfg.trace_flows.clone();
        let mut sim = Simulation {
            topo,
            q,
            leaves,
            spines,
            hosts,
            arena: PacketArena::with_capacity(1024),
            flows,
            transport,
            starts,
            counters: FabricCounters::default(),
            ood_histogram: LogHistogram::new(),
            completed: 0,
            events: 0,
            path_snaps: (0..(n_leaves as usize * n_leaves as usize))
                .map(|_| PathSnap::empty(n_spines as usize))
                .collect(),
            fault_epoch: 0,
            perf: PerfStats::default(),
            paused_port_time: SimDuration(0),
            warn_scratch: Vec::new(),
            shard_id,
            n_shards: n_shards.max(1),
            rank_leaf0: 2 + n_hosts as u16,
            rank_spine0: 2 + n_hosts as u16 + n_leaves as u16,
            shard_map,
            ent_cnt: vec![0; n_ranks],
            cur_key: 0,
            window_end: 0,
            last_completion: None,
            journal: Vec::new(),
            outbox: (0..n_shards.max(1)).map(|_| Vec::new()).collect(),
            cnm_ttl: 4,
            timeseries: FabricTimeSeries::default(),
            traces: FlowTraces::new(&cfg_trace_flows),
            pfc_pauses_by_port: std::collections::BTreeMap::new(),
            #[cfg(feature = "audit")]
            auditor: FabricAuditor::default(),
            cfg,
        };
        // Monitoring pins the run to one shard (`shard::shard_count`), so
        // the sampler's first tick is armed exactly once.
        if let Some(m) = &sim.cfg.monitor {
            let at = SimTime(m.interval.as_ps());
            sim.sched(RANK_GLOBAL, at, Event::MonitorTick);
        }
        sim
    }

    /// Queue flow `f`'s start under its construction key
    /// `(0, RANK_CONSTRUCT, f)`: every shard derives the same key for the
    /// same flow, so ownership gaps in the id sequence are harmless, and a
    /// start armed by its predecessor pops exactly where one queued at
    /// construction would.
    fn arm_start(q: &mut ShardEventQueue<Event>, flows: &[FlowState], f: u32) {
        let at = flows[f as usize].spec.start;
        q.insert_message(at, shard_key(0, RANK_CONSTRUCT, f as u64), Event::FlowStart(f));
    }

    fn make_predictor(cfg: &SimConfig, rcfg: &rlb_core::RlbConfig, d_ps: u64) -> PfcPredictor {
        // Fan-in estimate for the conservative Qth range: the worst case at
        // any ingress is the larger of the spine and host port counts.
        let n = cfg.topo.n_spines.max(cfg.topo.hosts_per_leaf);
        let qth = conservative_qth(
            rcfg.qth_fraction,
            d_ps,
            cfg.topo.link_rate_bps,
            n,
            cfg.switch.pfc_threshold_bytes,
        );
        PfcPredictor::new(
            qth.min(cfg.switch.pfc_threshold_bytes),
            cfg.switch.pfc_threshold_bytes,
            rcfg.horizon_ps,
        )
    }

    #[inline]
    fn now(&self) -> SimTime {
        self.q.now()
    }

    /// `node`'s switch; `None` for a host.
    #[inline]
    fn switch_of(&mut self, node: Node) -> Option<&mut Switch> {
        match node {
            Node::Leaf(l) => Some(&mut self.leaves[l as usize]),
            Node::Spine(s) => Some(&mut self.spines[s as usize]),
            Node::Host(_) => None,
        }
    }

    #[inline]
    fn switch_mut(&mut self, node: Node) -> &mut Switch {
        self.switch_of(node).expect("not a switch")
    }

    /// `node`'s egress `port` — a switch port, or a host's NIC (port 0) —
    /// split-borrowed with the packet arena (disjoint fields), for the
    /// paths that park or reclaim packets.
    #[inline(always)]
    fn port_and_arena(
        &mut self,
        node: Node,
        port: u16,
    ) -> (&mut EgressPort, &mut PacketArena<Packet>) {
        let ep = match node {
            Node::Host(h) => &mut self.hosts[h as usize].nic,
            Node::Leaf(l) => &mut self.leaves[l as usize].egress[port as usize],
            Node::Spine(s) => &mut self.spines[s as usize].egress[port as usize],
        };
        (ep, &mut self.arena)
    }

    #[inline]
    fn port_mut(&mut self, node: Node, port: u16) -> &mut EgressPort {
        self.port_and_arena(node, port).0
    }

    /// Every egress port of the fabric, host NICs included.
    fn ports(&self) -> impl Iterator<Item = &EgressPort> + '_ {
        let switches = self.leaves.iter().chain(&self.spines);
        let nics = self.hosts.iter().map(|h| &h.nic);
        switches.flat_map(|sw| &sw.egress).chain(nics)
    }

    /// `node` is a NIC with a live flow. A NIC's flows are its data source,
    /// standing where a switch port's `data_q` stands, so something may
    /// follow the frame it is sending even with its queues empty.
    #[inline(always)]
    fn nic_has_live_flow(&self, node: Node) -> bool {
        matches!(node, Node::Host(h) if !self.hosts[h as usize].live().is_empty())
    }

    /// No live flow of host `h`'s, as the flows stand, gives the
    /// completion of a frame ending at `done_ps` anything to do: under
    /// go-back-N, where only a kick or the clock makes a flow eligible, no
    /// live flow has data left, or every pacing deadline is after
    /// `done_ps` and a wake already armed at `w`, `done_ps ≤ w ≤` the
    /// earliest, sends or re-arms for them. Whatever changes the flows
    /// before `done_ps` kicks the NIC, which then schedules the
    /// completion. Selective repeat keeps the live-flow rule: an ACK there
    /// can hand a flow a PSN (DESIGN §9.7). Out of line: it scans the live
    /// flows, and `launch` is every port's hot path.
    #[inline(never)]
    fn nic_quiet_until(&self, h: u32, done_ps: u64) -> bool {
        if self.transport.mode != TransportMode::GoBackN {
            return false;
        }
        let host = &self.hosts[h as usize];
        match host.earliest_deadline(&self.flows) {
            None => true,
            Some(d) => d > done_ps && host.wake_at.is_some_and(|w| done_ps <= w && w <= d),
        }
    }

    // ------------------------------------------------------------------
    // Shard partition, canonical keys and the effect journal
    // ------------------------------------------------------------------

    /// The ownership partition: `n_shards` *columns*. Shard `i` owns leaf
    /// band `i` (leaf `l` → `l·n / n_leaves`) with its hosts, and spine
    /// band `i` (spine `s` → `s·n / n_spines`). Host↔leaf traffic is
    /// therefore always shard-local, a leaf↔spine wire is local whenever
    /// both ends fall in the same column (`1/n` of them when `n` divides
    /// both counts), and the wires that do cross — data frames and PFC —
    /// carry at least one link propagation delay, which is exactly the
    /// window the driver synchronizes on. Bands differ in size by at most
    /// one; `shard::shard_count` keeps `n ≤ n_leaves`, so no shard is
    /// empty (one may own no spine when `n > n_spines`).
    fn shard_for(topo: &TopoConfig, n_shards: u16, node: Node) -> u16 {
        let n = n_shards.max(1) as u64;
        let band = |i: u32, of: u32| (i as u64 * n / of as u64) as u16;
        match node {
            Node::Spine(s) => band(s, topo.n_spines),
            Node::Leaf(l) => band(l, topo.n_leaves),
            Node::Host(h) => band(h / topo.hosts_per_leaf, topo.n_leaves),
        }
    }

    #[inline]
    fn shard_of(&self, node: Node) -> u16 {
        self.shard_map[self.rank_node(node) as usize]
    }

    #[inline]
    fn owns(&self, node: Node) -> bool {
        self.shard_of(node) == self.shard_id
    }

    /// Canonical rank of a host (see `RANK_CONSTRUCT` for the layout).
    #[inline]
    fn rank_host(&self, h: u32) -> u16 {
        2 + h as u16
    }

    /// Canonical rank of any fabric entity.
    #[inline]
    fn rank_node(&self, node: Node) -> u16 {
        match node {
            Node::Host(h) => 2 + h as u16,
            Node::Leaf(l) => self.rank_leaf0 + l as u16,
            Node::Spine(s) => self.rank_spine0 + s as u16,
        }
    }

    /// Where dispatch stands: the time and canonical key of the event being
    /// dispatched. Whatever sorts before it has happened.
    #[inline]
    fn cursor(&self) -> (u64, u128) {
        (self.q.now().as_ps(), self.cur_key)
    }

    /// Take `rank`'s next canonical key. A schedule consumes it; so does a
    /// completion that is reserved instead (DESIGN §9.7), which keeps every
    /// later key exactly where scheduling it would have put it.
    fn reserve_key(&mut self, rank: u16) -> u128 {
        let cnt = self.ent_cnt[rank as usize];
        self.ent_cnt[rank as usize] = cnt + 1;
        shard_key(self.q.now().as_ps(), rank, cnt)
    }

    /// Schedule a shard-local event under `rank`'s canonical key.
    fn sched(&mut self, rank: u16, at: SimTime, ev: Event) {
        let key = self.reserve_key(rank);
        self.q.insert_message(at, key, ev);
    }

    /// Schedule an event that crosses a wire toward `peer`: inserted
    /// locally if this shard owns the peer, else queued in the outbox for
    /// barrier delivery. The key derivation is identical either way — the
    /// delivery route never affects the canonical merge order.
    fn sched_wire(&mut self, rank: u16, peer: Node, at: SimTime, ev: Event) {
        let key = self.reserve_key(rank);
        let dst = self.shard_of(peer);
        if dst == self.shard_id {
            self.q.insert_message(at, key, ev);
        } else {
            self.outbox[dst as usize].push(WireMsg { at, key, ev });
        }
    }

    /// Record an output-visible effect of the current event (see
    /// [`JEffect`] for why sharded runs defer these to the barrier fold).
    fn jot(&mut self, e: JEffect) {
        if self.n_shards > 1 {
            self.journal.push((self.q.now().as_ps(), self.cur_key, e));
        } else {
            self.apply_effect(e);
        }
    }

    fn apply_effect(&mut self, e: JEffect) {
        match e {
            JEffect::Pause { id, port } => {
                self.counters.pause_frames += 1;
                *self.pfc_pauses_by_port.entry((id, port)).or_insert(0) += 1;
            }
            JEffect::Resume => self.counters.resume_frames += 1,
            JEffect::CnmGen(n) => self.counters.cnm_generated += n,
            JEffect::CnmRelay => self.counters.cnm_relayed += 1,
            JEffect::Recirc { flow } => {
                self.counters.recirculations += 1;
                self.flows[flow as usize].recirculations += 1;
            }
            JEffect::SwitchPkt => self.counters.switch_packets += 1,
            JEffect::BufferDrop => self.counters.buffer_drops += 1,
            JEffect::EcnMark => self.counters.ecn_marks += 1,
            JEffect::PausedDwell(d) => self.paused_port_time += d,
            JEffect::RlbStats { re, fw, fo } => {
                self.counters.reroutes += re;
                self.counters.forwards_unwarned += fw;
                self.counters.recirculation_budget_exhausted += fo;
            }
            JEffect::Fault => self.counters.faults_applied += 1,
        }
    }

    /// Apply journaled effects up to `limit` (inclusive in the canonical
    /// `(time, key)` order) and discard the rest; `None` applies all.
    /// Non-final windows fold with `None` — every entry precedes the
    /// completion point by construction, since completion happens in the
    /// final window.
    pub(crate) fn fold_journal(&mut self, limit: Option<(u64, u128)>) {
        // Taken out only so `apply_effect` can borrow `self`; put back
        // drained, so the next window journals into the same storage.
        let mut journal = std::mem::take(&mut self.journal);
        for (t, key, e) in journal.drain(..) {
            if limit.is_none_or(|lim| (t, key) <= lim) {
                self.apply_effect(e);
            }
        }
        self.journal = journal;
    }

    /// Close the run at `shard::drive`'s terminal decision: fold the journal
    /// up to `limit` like [`fold_journal`](Self::fold_journal), and count
    /// the reserved completions still standing that the run passed — those
    /// before the last window's end and, on completion, before `limit`.
    /// The run stops there, so they would have been dispatched.
    pub(crate) fn conclude(&mut self, limit: Option<(u64, u128)>) {
        self.fold_journal(limit);
        let end = self.window_end;
        let passed = self
            .reservations()
            .filter(|r| r.done_ps < end && limit.is_none_or(|lim| (r.done_ps, r.key) <= lim))
            .count();
        self.perf.completions_elided += passed as u64;
    }

    /// Run to completion: stops when all flows finished, the event queue
    /// drains, or the hard-stop horizon passes. A lone replica is the
    /// 1-shard instance of the bounded-window driver (`crate::shard`): one
    /// window spanning the whole horizon, dispatched on the caller's thread.
    pub fn run(self) -> RunResult {
        crate::shard::drive(vec![self])
    }

    fn build_records(&self) -> Vec<FlowRecord> {
        self.flows
            .iter()
            .enumerate()
            .map(|(i, f)| FlowRecord {
                flow_id: i as u64,
                src_host: f.spec.src_host,
                dst_host: f.spec.dst_host,
                size_bytes: f.spec.size_bytes,
                total_packets: f.total_packets,
                start_ps: f.spec.start.as_ps(),
                finish_ps: f.finish_ps,
                ooo_packets: f.ooo_packets(),
                max_ood: f.max_ood() as u64,
                packets_sent: f.packets_sent(),
                naks: f.naks(),
                recirculations: f.recirculations,
            })
            .collect()
    }

    fn dispatch(&mut self, ev: Event) {
        let n = &mut self.perf;
        *match &ev {
            Event::FlowStart(_) => &mut n.events_flow_start,
            Event::HostWake(_) => &mut n.events_host_wake,
            Event::LinkArrive { .. } => &mut n.events_link_arrive,
            Event::EgressDone { node: Node::Host(_), .. } => &mut n.events_host_egress_done,
            Event::EgressDone { .. } => &mut n.events_egress_done,
            Event::PauseFrame { .. } => &mut n.events_pause_frame,
            Event::PredictorTick(_) => &mut n.events_predictor_tick,
            Event::Recirculate { .. } => &mut n.events_recirculate,
            Event::AlphaTick => &mut n.events_alpha_tick,
            Event::IncreaseTick => &mut n.events_increase_tick,
            Event::RtoCheck(_) => &mut n.events_rto_check,
            Event::MonitorTick => &mut n.events_monitor_tick,
            Event::Fault(_) => &mut n.events_fault,
        } += 1;
        match ev {
            Event::FlowStart(f) => self.on_flow_start(f),
            Event::HostWake(h) => self.on_host_wake(h),
            Event::LinkArrive { node, port, pkt } => self.on_link_arrive(node, port, pkt),
            Event::EgressDone { node, port, release } => self.on_egress_done(node, port, release),
            Event::PauseFrame { node, port, pause } => self.on_pause_frame(node, port, pause),
            Event::PredictorTick(node) => self.on_predictor_tick(node),
            Event::Recirculate { node, pkt } => self.on_recirculate(node, pkt),
            Event::AlphaTick => self.on_alpha_tick(),
            Event::IncreaseTick => self.on_increase_tick(),
            Event::RtoCheck(f) => self.on_rto_check(f),
            Event::MonitorTick => self.on_monitor_tick(),
            Event::Fault(i) => self.on_fault(i),
        }
    }

    fn on_monitor_tick(&mut self) {
        let now = self.now();
        let cursor = self.cursor();
        let mut buffered = 0u64;
        let mut paused_ports = 0u32;
        let mut max_q = 0u64;
        for sw in self.leaves.iter_mut().chain(self.spines.iter_mut()) {
            sw.settle(cursor);
            buffered += sw.shared_used;
            for ep in &sw.egress {
                if ep.paused {
                    paused_ports += 1;
                }
                max_q = max_q.max(ep.data_q_bytes);
            }
        }
        let paused_hosts = self.hosts.iter().filter(|h| h.nic.paused).count() as u32;
        let active_flows = self
            .hosts
            .iter()
            .flat_map(|h| h.live())
            .filter(|&&f| self.flows[f as usize].tx.is_some())
            .count() as u32;
        self.timeseries.samples.push(FabricSample {
            t_ps: now.as_ps(),
            buffered_bytes: buffered,
            paused_ports,
            paused_hosts,
            active_flows,
            max_egress_queue_bytes: max_q,
        });
        if let Some(m) = &self.cfg.monitor {
            let at = now + m.interval;
            self.sched(RANK_GLOBAL, at, Event::MonitorTick);
        }
    }

    // ------------------------------------------------------------------
    // Host side
    // ------------------------------------------------------------------

    fn on_flow_start(&mut self, f: u32) {
        let now = self.now();
        debug_assert_eq!(self.starts.last(), Some(&f));
        self.starts.pop();
        if let Some(&next) = self.starts.last() {
            Self::arm_start(&mut self.q, &self.flows, next);
        }
        let host = {
            let fs = &mut self.flows[f as usize];
            fs.tx = Some(self.transport.sender(fs.total_packets, now.as_ps()));
            fs.spec.src_host
        };
        self.hosts[host as usize].start(f);
        // The global DCQCN ticks are construction-armed (see `new_shard`);
        // only the per-flow RTO probe starts here.
        let rto = SimDuration(self.cfg.transport.rto_ps);
        let rank = self.rank_host(host);
        self.sched(rank, now + rto, Event::RtoCheck(f));
        self.try_transmit(Node::Host(host), 0);
    }

    fn on_host_wake(&mut self, h: u32) {
        if self.hosts[h as usize].wake_at == Some(self.now().as_ps()) {
            self.hosts[h as usize].wake_at = None;
        }
        self.try_transmit(Node::Host(h), 0);
    }

    /// The data source of a free NIC whose data class may leave: one
    /// packet from the round-robin-eligible flow, else a pacing wake-up.
    /// Not inlined: it would triple `try_transmit`, the switch ports' hot
    /// path.
    #[inline(never)]
    fn nic_pull(&mut self, h: u32) {
        let now = self.now();
        let picked = self.hosts[h as usize].pick_eligible(&self.flows, now.as_ps());
        if let Some(f) = picked {
            let pkt = {
                let mtu = self.cfg.transport.mtu_bytes;
                let hdr = self.cfg.transport.hdr_bytes;
                let fs = &mut self.flows[f as usize];
                let psn = fs.tx.as_deref_mut().and_then(|s| s.tx.take_next());
                let psn = psn.expect("eligible flow has data");
                let wire = fs.payload_bytes(psn, mtu) + hdr;
                let s = fs.tx.as_deref_mut().expect("an eligible flow is sending");
                s.dcqcn.on_bytes_sent(wire as u64);
                let gap = s.dcqcn.pacing_delay_ps(wire as u64);
                s.next_eligible_ps = s.next_eligible_ps.max(now.as_ps()) + gap;
                Packet::data(f, psn, wire, fs.spec.src_host, fs.spec.dst_host, now.as_ps())
            };
            if self.traces.wants(f) {
                self.traces.record(f, now.as_ps(), pkt.psn, TraceEvent::Sent);
            }
            self.launch(Node::Host(h), 0, pkt);
            return;
        }
        // Nothing eligible now: wake at the earliest pacing deadline.
        let deadline = self.hosts[h as usize].earliest_deadline(&self.flows);
        if let Some(d) = deadline {
            let d = d.max(now.as_ps());
            let sooner = self.hosts[h as usize]
                .wake_at
                .is_none_or(|w| d < w || w < now.as_ps());
            if sooner {
                self.hosts[h as usize].wake_at = Some(d);
                let rank = self.rank_host(h);
                self.sched(rank, SimTime(d), Event::HostWake(h));
            }
        }
    }

    fn on_host_rx(&mut self, h: u32, pkt: Packet) {
        let now = self.now();
        match pkt.kind {
            PacketKind::Data => {
                debug_assert_eq!(pkt.dst_host, h);
                #[cfg(feature = "audit")]
                self.auditor.on_arrived();
                let ctrl_bytes = self.cfg.transport.ctrl_bytes;
                let cnp_interval = self.cfg.transport.dcqcn.cnp_interval_ps;
                let fs = &mut self.flows[pkt.flow as usize];
                // DCQCN NP: CE-marked arrivals elicit CNPs (rate-limited),
                // regardless of PSN order.
                let mut responses: [Option<Packet>; 2] = [None, None];
                if pkt.ecn && fs.cnp_gen.on_marked_packet(now.as_ps(), cnp_interval) {
                    responses[0] = Some(Packet::response(
                        PacketKind::Cnp,
                        &pkt,
                        0,
                        ctrl_bytes));
                }
                // Once every packet is delivered the receiver half is gone
                // and a late arrival is a duplicate that nothing answers.
                let mut trace_ev = TraceEvent::Duplicate;
                match fs.receiver(&self.transport) {
                    None => {}
                    Some(Rx::Gbn(rx)) => match rx.on_packet(pkt.psn) {
                        rlb_transport::RxAction::Deliver { ack_psn } => {
                            trace_ev = TraceEvent::Delivered;
                            responses[1] =
                                Some(Packet::response(PacketKind::Ack, &pkt, ack_psn, ctrl_bytes));
                        }
                        rlb_transport::RxAction::OutOfOrder { nak_psn, ood } => {
                            trace_ev = TraceEvent::OutOfOrder { ood };
                            self.ood_histogram.record(ood as u64);
                            if let Some(nak) = nak_psn {
                                responses[1] =
                                    Some(Packet::response(PacketKind::Nak, &pkt, nak, ctrl_bytes));
                            }
                        }
                        rlb_transport::RxAction::Duplicate => {}
                    },
                    Some(Rx::Irn(rx)) => {
                        if pkt.psn > rx.cumulative() {
                            self.ood_histogram.record((pkt.psn - rx.cumulative()) as u64);
                        }
                        let ood = pkt.psn.saturating_sub(rx.cumulative());
                        if let Some(ack) = rx.on_packet(pkt.psn) {
                            trace_ev = if ack.nack {
                                TraceEvent::OutOfOrder { ood }
                            } else {
                                TraceEvent::Delivered
                            };
                            let mut resp =
                                Packet::response(PacketKind::Ack, &pkt, ack.sack, ctrl_bytes);
                            resp.cum = ack.cumulative;
                            resp.nack = ack.nack;
                            responses[1] = Some(resp);
                        }
                    }
                }
                fs.settle_receiver();
                if self.traces.wants(pkt.flow) {
                    self.traces.record(pkt.flow, now.as_ps(), pkt.psn, trace_ev);
                }
                for r in responses.into_iter().flatten() {
                    self.enqueue_or_launch(Node::Host(h), 0, r);
                }
            }
            PacketKind::Ack => {
                // RTT sample + CE echo → source-leaf estimators.
                if pkt.path != NO_PATH {
                    let src_leaf = self.topo.leaf_of_host(h);
                    let dst_leaf = self.topo.leaf_of_host(pkt.src_host);
                    let rtt_ns = (now.as_ps().saturating_sub(pkt.sent_ps)) as f64 / 1e3;
                    if let Some(leaf) = self.leaves[src_leaf as usize].leaf.as_mut() {
                        leaf.observe(pkt.path as usize, dst_leaf as usize, rtt_ns, pkt.ecn);
                    }
                }
                let fs = &mut self.flows[pkt.flow as usize];
                let Some(s) = fs.tx.as_deref_mut() else {
                    // A late ACK for a finished flow: all it still counts
                    // is IRN's NACK flag (a go-back-N ACK never carries it).
                    if pkt.nack {
                        fs.late_nak();
                    }
                    return;
                };
                let mut irn_has_retx = false;
                match &mut s.tx {
                    Tx::Gbn(tx) => tx.on_ack(pkt.psn),
                    Tx::Irn(tx) => {
                        tx.on_ack(rlb_transport::IrnAck {
                            cumulative: pkt.cum,
                            sack: pkt.psn,
                            nack: pkt.nack,
                        });
                        irn_has_retx = tx.peek_next().is_some();
                    }
                }
                if s.tx.is_complete() {
                    fs.finish(now.as_ps());
                    self.completed += 1;
                    // Completions arrive in canonical order, so the last
                    // write is this shard's maximum completion point.
                    self.last_completion = Some((now.as_ps(), self.cur_key));
                    let flow_id = pkt.flow as u64;
                    let src_leaf = self.topo.leaf_of_host(h) as usize;
                    if let Some(leaf) = self.leaves[src_leaf].leaf.as_mut() {
                        leaf.lb.on_flow_complete(flow_id);
                    }
                    self.hosts[h as usize].finish(pkt.flow);
                } else if irn_has_retx {
                    // A NACK opened retransmission work (or the window
                    // reopened): kick the NIC.
                    self.try_transmit(Node::Host(h), 0);
                }
            }
            PacketKind::Nak => {
                if self.traces.wants(pkt.flow) {
                    self.traces
                        .record(pkt.flow, now.as_ps(), pkt.psn, TraceEvent::NakReceived);
                }
                let fs = &mut self.flows[pkt.flow as usize];
                match fs.tx.as_deref_mut() {
                    Some(s) => {
                        if let Tx::Gbn(tx) = &mut s.tx {
                            tx.on_nak(pkt.psn);
                        }
                    }
                    // A stale NAK after the final ACK still counts.
                    None => fs.late_nak(),
                }
                self.try_transmit(Node::Host(h), 0);
            }
            PacketKind::Cnp => {
                // A finished flow's rate no longer matters.
                if let Some(s) = self.flows[pkt.flow as usize].tx.as_deref_mut() {
                    s.dcqcn.on_cnp();
                }
            }
            PacketKind::Cnm { .. } => {
                // Hosts do not participate in rerouting; drop.
            }
        }
    }

    // ------------------------------------------------------------------
    // Switch side
    // ------------------------------------------------------------------

    fn on_link_arrive(&mut self, node: Node, port: u16, pkt: Packet) {
        match node {
            Node::Host(h) => self.on_host_rx(h, pkt),
            _ => self.switch_rx(node, port, pkt),
        }
    }

    fn switch_rx(&mut self, node: Node, in_port: u16, mut pkt: Packet) {
        if let PacketKind::Cnm { origin_node, origin_ingress_port, ttl } = pkt.kind {
            self.handle_cnm(node, in_port, origin_node, origin_ingress_port, ttl);
            return;
        }
        if pkt.kind.is_control() {
            let out = self.route_control(node, &pkt);
            self.enqueue_or_launch(node, out, pkt);
            return;
        }
        // Data plane: buffer admission + PFC accounting.
        let cursor = self.cursor();
        let (admitted, action) = {
            let sw = self.switch_mut(node);
            sw.settle(cursor);
            match sw.admit_data(in_port, pkt.size_bytes) {
                Ok(a) => (true, a),
                Err(crate::switch::BufferOverflow) => (false, PfcAction::None),
            }
        };
        if !admitted {
            #[cfg(feature = "audit")]
            self.auditor.on_dropped();
            self.jot(JEffect::BufferDrop);
            return; // tail-dropped; go-back-N will recover end-to-end
        }
        self.apply_pfc_action(node, action);
        pkt.ingress_port = in_port;
        self.jot(JEffect::SwitchPkt);
        self.maybe_activate_sampler(node, in_port);
        self.route_data(node, in_port, pkt);
    }

    /// Egress port for a control frame. Control takes ECMP (hash) at the
    /// leaf — its ordering is irrelevant and it must not perturb the
    /// data-plane LB state.
    fn route_control(&self, node: Node, pkt: &Packet) -> u16 {
        match node {
            Node::Leaf(l) => {
                let dst_leaf = self.topo.leaf_of_host(pkt.dst_host);
                if dst_leaf == l {
                    self.topo.leaf_port_of_host(pkt.dst_host)
                } else {
                    let s = (crate::hash_u64(pkt.flow as u64 ^ 0xC0FFEE)
                        % self.cfg.topo.n_spines as u64) as u32;
                    self.topo.leaf_uplink_port(s)
                }
            }
            Node::Spine(_) => self.topo.leaf_of_host(pkt.dst_host) as u16,
            Node::Host(_) => unreachable!(),
        }
    }

    /// Route a data packet: deterministic except at the source leaf's
    /// uplink choice, where the LB scheme (and RLB) decide.
    fn route_data(&mut self, node: Node, in_port: u16, mut pkt: Packet) {
        let now = self.now();
        let out: u16 = match node {
            Node::Spine(_) => self.topo.leaf_of_host(pkt.dst_host) as u16,
            Node::Leaf(l) => {
                let dst_leaf = self.topo.leaf_of_host(pkt.dst_host);
                if dst_leaf == l {
                    self.topo.leaf_port_of_host(pkt.dst_host)
                } else {
                    // --- the load-balancing decision point ---
                    self.perf.decisions += 1;
                    let snap_idx = self.assemble_paths(l, dst_leaf);
                    let paths = std::mem::take(&mut self.path_snaps[snap_idx].paths);
                    // Path-restricted flows (Fig. 4a's experimental control)
                    // only see a prefix of the uplinks.
                    let visible = match self.flows[pkt.flow as usize].spec.path_limit {
                        Some(k) => &paths[..(k as usize).min(paths.len())],
                        None => &paths[..],
                    };
                    let ctx = Ctx {
                        now_ps: now.as_ps(),
                        flow_id: pkt.flow as u64,
                        dst_leaf,
                        seq: pkt.psn,
                        pkt_bytes: pkt.size_bytes,
                        paths: visible,
                    };
                    let mut rlb_delta = (0u64, 0u64, 0u64);
                    let decision = {
                        let leaf = self.leaves[l as usize].leaf.as_mut().expect("leaf state");
                        match &mut leaf.lb {
                            LbInstance::Vanilla(lb) => Decision::Forward(lb.select(&ctx)),
                            LbInstance::Rlb(rlb) => {
                                // Snapshot the decision counters around the
                                // call: the deltas go through the effect
                                // journal so the sharded final-window trim
                                // sees them (the `Rlb` accumulator itself
                                // is physical state).
                                let b = (
                                    rlb.stats.reroutes,
                                    rlb.stats.forwards_unwarned,
                                    rlb.stats.forced_out,
                                );
                                let d = rlb.decide(&ctx, pkt.recircs as u32);
                                rlb_delta = (
                                    rlb.stats.reroutes - b.0,
                                    rlb.stats.forwards_unwarned - b.1,
                                    rlb.stats.forced_out - b.2,
                                );
                                d
                            }
                        }
                    };
                    // Hand the snapshot back *without* clearing: it stays
                    // valid for later decisions until its stamps go stale.
                    self.path_snaps[snap_idx].paths = paths;
                    if rlb_delta != (0, 0, 0) {
                        self.jot(JEffect::RlbStats {
                            re: rlb_delta.0,
                            fw: rlb_delta.1,
                            fo: rlb_delta.2,
                        });
                    }
                    match decision {
                        Decision::Forward(s) => {
                            pkt.path = s as u8;
                            if self.traces.wants(pkt.flow) {
                                self.traces.record(
                                    pkt.flow,
                                    now.as_ps(),
                                    pkt.psn,
                                    TraceEvent::Routed { path: s as u8 },
                                );
                            }
                            self.topo.leaf_uplink_port(s as u32)
                        }
                        Decision::Recirculate => {
                            if self.traces.wants(pkt.flow) {
                                self.traces.record(
                                    pkt.flow,
                                    now.as_ps(),
                                    pkt.psn,
                                    TraceEvent::Recirculated,
                                );
                            }
                            self.jot(JEffect::Recirc { flow: pkt.flow });
                            pkt.recircs = pkt.recircs.saturating_add(1);
                            let t_rc = self
                                .cfg
                                .rlb
                                .as_ref()
                                .map(|r| r.t_rc_ps)
                                .expect("recirculation without RLB");
                            let rank = self.rank_node(node);
                            self.sched(
                                rank,
                                now + SimDuration(t_rc),
                                Event::Recirculate { node, pkt },
                            );
                            return;
                        }
                    }
                }
            }
            Node::Host(_) => unreachable!(),
        };
        // Dynamic-threshold egress admission, then ECN congestion-point
        // marking against the egress data queue.
        let mark = {
            let sw = self.switch_mut(node);
            if sw.dt_exceeded(out) {
                let action = sw.release_data(pkt.ingress_port, pkt.size_bytes);
                #[cfg(feature = "audit")]
                self.auditor.on_dropped();
                self.jot(JEffect::BufferDrop);
                self.apply_pfc_action(node, action);
                return;
            }
            sw.contributors.record(out as usize, in_port as usize, now.as_ps());
            sw.ecn_mark(out)
        };
        pkt.ecn |= mark;
        if mark {
            self.jot(JEffect::EcnMark);
        }
        self.enqueue_or_launch(node, out, pkt);
    }

    fn on_recirculate(&mut self, node: Node, pkt: Packet) {
        // The packet kept its buffer share while looping; it re-enters the
        // routing pipeline with its original ingress accounting.
        let cursor = self.cursor();
        self.switch_mut(node).settle(cursor);
        let in_port = pkt.ingress_port;
        self.route_data(node, in_port, pkt);
    }

    /// Snapshot every uplink's state for the LB decision; returns the index
    /// of the (leaf, dst_leaf) snapshot in `path_snaps`.
    ///
    /// Incremental with per-spine dirty bits: the stored snapshot carries
    /// one generation stamp per spine for each independent input, and three
    /// tiers apply, cheapest first:
    ///
    /// 1. *Reuse* — every per-spine stamp current, fault epoch unchanged,
    ///    no armed warning expired: the snapshot is byte-identical to a
    ///    rebuild, return as-is.
    /// 2. *Refresh* — some spines went stale: rewrite exactly those entries
    ///    in place (`queue_bytes`/`paused` for a queue-generation bump,
    ///    `rtt_ns`/`ecn_fraction`/`warned` for a signal-generation bump),
    ///    leaving clean spines untouched.
    /// 3. *Rebuild* — first touch of the pair, or the fault epoch moved:
    ///    reconstruct from scratch.
    ///
    /// Every field source is covered by a stamp input — `data_q_bytes` and
    /// PFC `paused` by the per-port `EgressPort::q_gen`; `rtt_ns` /
    /// `ecn_fraction` and warning *insertions* by the per-(spine, dst_leaf)
    /// `path_sig_gen` plus the per-spine `uplink_sig_gen`; warning *expiry*
    /// (time-based, bumps nothing) by `valid_until_ps` against the stored
    /// per-spine deadlines; and `link_rate_bps` / `link_down` change only
    /// through fault events, which bump `fault_epoch` — so a reused or
    /// refreshed entry equals what a rebuild would produce and replays stay
    /// bit-exact (verified by the A/B `--stable-json` acceptance runs).
    fn assemble_paths(&mut self, leaf: u32, dst_leaf: u32) -> usize {
        let now_ps = self.now().as_ps();
        let n_spines = self.cfg.topo.n_spines as usize;
        let n_leaves = self.cfg.topo.n_leaves as usize;
        let hpl = self.cfg.topo.hosts_per_leaf as usize;
        let rlb_on = self.cfg.rlb.is_some();
        let sw = &self.leaves[leaf as usize];
        let ls = sw.leaf.as_ref().expect("leaf state");
        let dst = dst_leaf as usize;
        let snap_idx = leaf as usize * n_leaves + dst;
        let snap = &mut self.path_snaps[snap_idx];

        if !snap.init || snap.fault_epoch != self.fault_epoch || snap.paths.len() != n_spines {
            // Tier 3: full rebuild.
            snap.paths.clear();
            // First instant at which a currently-armed warning lapses; the
            // snapshot's warned bits go stale there. Unwarned paths can
            // only *become* warned through warn_* calls, which bump the
            // signal generations.
            let mut valid_until = u64::MAX;
            for s in 0..n_spines {
                let ep = &sw.egress[hpl + s];
                let until = if rlb_on {
                    ls.warnings.warned_until(s, dst)
                } else {
                    0
                };
                let warned = until > now_ps;
                if warned {
                    valid_until = valid_until.min(until);
                }
                snap.warned_until_ps[s] = until;
                snap.q_gens[s] = ep.q_gen;
                snap.sig_gens[s] = ls.path_sig_gen(s, dst);
                snap.uplink_gens[s] = ls.uplink_sig_gen(s);
                snap.paths.push(PathInfo {
                    queue_bytes: ep.data_q_bytes,
                    paused: ep.data_blocked(),
                    warned,
                    rtt_ns: ls.rtt(s, dst),
                    ecn_fraction: ls.ecn(s, dst),
                    link_rate_bps: ep.rate_bps as f64,
                });
            }
            snap.valid_until_ps = valid_until;
            snap.fault_epoch = self.fault_epoch;
            snap.init = true;
            self.perf.snapshot_rebuilds += 1;
            return snap_idx;
        }

        // Tiers 1 and 2 in one pass: rewrite exactly the spines whose
        // generation went stale (or whose warned bit the expiry boundary
        // can have flipped), counting as we go. A clean, unexpired pass
        // rewrites nothing and classifies as a reuse.
        let expired = now_ps >= snap.valid_until_ps;
        let mut q_dirty = 0u64;
        let mut sig_dirty = 0u64;
        for s in 0..n_spines {
            let ep = &sw.egress[hpl + s];
            if snap.q_gens[s] != ep.q_gen {
                q_dirty += 1;
                let p = &mut snap.paths[s];
                p.queue_bytes = ep.data_q_bytes;
                p.paused = ep.data_blocked();
                snap.q_gens[s] = ep.q_gen;
            }
            let sg = ls.path_sig_gen(s, dst);
            let ug = ls.uplink_sig_gen(s);
            if snap.sig_gens[s] != sg || snap.uplink_gens[s] != ug {
                sig_dirty += 1;
                let until = if rlb_on {
                    ls.warnings.warned_until(s, dst)
                } else {
                    0
                };
                let p = &mut snap.paths[s];
                snap.warned_until_ps[s] = until;
                p.warned = until > now_ps;
                p.rtt_ns = ls.rtt(s, dst);
                p.ecn_fraction = ls.ecn(s, dst);
                snap.sig_gens[s] = sg;
                snap.uplink_gens[s] = ug;
            } else if expired {
                // No new signal, but time crossed the snapshot's earliest
                // warning deadline: recompute the bit from the stored one.
                snap.paths[s].warned = snap.warned_until_ps[s] > now_ps;
            }
        }
        if !expired && q_dirty == 0 && sig_dirty == 0 {
            // Tier 1: byte-identical reuse (nothing was rewritten above).
            self.perf.snapshot_reuses += 1;
            return snap_idx;
        }
        if expired || sig_dirty > 0 {
            let mut valid_until = u64::MAX;
            for &until in &snap.warned_until_ps {
                if until > now_ps {
                    valid_until = valid_until.min(until);
                }
            }
            snap.valid_until_ps = valid_until;
        }
        self.perf.snapshot_refreshes += 1;
        self.perf.snapshot_dirty_queue_spines += q_dirty;
        self.perf.snapshot_dirty_sig_spines += sig_dirty;
        snap_idx
    }

    /// Start the next frame out of `node`'s egress `port` if the port is
    /// free: a queued control frame first (pause-immune), then data unless
    /// the class is paused — the head of a switch port's FIFO, or what a
    /// NIC pulls from its flows (`nic_pull`).
    fn try_transmit(&mut self, node: Node, port: u16) {
        let cursor = self.cursor();
        let (ep, arena) = self.port_and_arena(node, port);
        if ep.busy {
            return;
        }
        if ep.reserved.is_some_and(|r| r.pending_at(cursor)) {
            // The port is mid-frame; once work waits behind it, the
            // completion that ends the frame must fire to pick it up.
            if !ep.queues_empty() || self.nic_has_live_flow(node) {
                self.materialize_egress(node, port);
            }
            return;
        }
        if let Some(pkt) = ep.next_to_transmit(arena) {
            self.launch(node, port, pkt);
        } else if let Node::Host(h) = node {
            if !ep.paused {
                self.nic_pull(h);
            }
        }
    }

    /// Hand `pkt` to `node`'s egress `port`. When the port would transmit
    /// it immediately ([`EgressPort::pass_through`]) the packet launches
    /// directly, skipping the arena alloc/free round trip a queue visit
    /// would cost — the dominant case on quiet ports, and for the ACK a
    /// NIC sends per delivered data packet. Otherwise it parks on the class
    /// queue and the transmitter is kicked. Both paths produce identical
    /// simulation state and events: the bypass fires exactly when
    /// `enqueue` + `next_to_transmit` would hand the same packet straight
    /// back with every queue counter netting to zero.
    fn enqueue_or_launch(&mut self, node: Node, port: u16, pkt: Packet) {
        debug_assert!(
            pkt.kind.is_control() || !matches!(node, Node::Host(_)),
            "a NIC pulls its data from its flows"
        );
        let cursor = self.cursor();
        let (ep, arena) = self.port_and_arena(node, port);
        if ep.pass_through(pkt.kind.is_control(), cursor) {
            self.launch(node, port, pkt);
            return;
        }
        ep.enqueue(arena, pkt, cursor.0);
        self.try_transmit(node, port);
    }

    /// Start serializing `pkt` out of `node`'s idle egress `port`, and
    /// schedule its wire arrival and — when it has anything to do — its
    /// completion (DESIGN §9.7).
    fn launch(&mut self, node: Node, port: u16, pkt: Packet) {
        let now = self.now();
        let prop = SimDuration(self.cfg.topo.link_delay_ps);
        let (peer, peer_port) = self.topo.peer(node, port);
        let rank = self.rank_node(node);
        let key = self.reserve_key(rank);
        // Nothing left to do at `done`: nothing follows this frame — no
        // queued frame, and at a NIC no flow that could send at `done` —
        // and its buffer release cannot resume the ingress it is charged
        // to. Work that arrives later kicks `try_transmit`, and a PAUSE of
        // that ingress goes through `apply_pfc_action`; both schedule the
        // completion then.
        let data = !pkt.kind.is_control();
        let (ep, release, ser, idle) = match node {
            // A NIC frame holds no switch buffer; its data enters the fabric.
            Node::Host(h) => {
                #[cfg(feature = "audit")]
                if data {
                    self.auditor.on_injected();
                }
                let ser = tx_delay(pkt.size_bytes as u64, self.hosts[h as usize].nic.rate_bps);
                let done_ps = (now + ser).as_ps();
                let idle = !self.nic_has_live_flow(node) || self.nic_quiet_until(h, done_ps);
                (&mut self.hosts[h as usize].nic, None, ser, idle)
            }
            Node::Leaf(_) | Node::Spine(_) => {
                let release = data.then_some((pkt.ingress_port, pkt.size_bytes));
                let sw = self.switch_mut(node);
                let idle =
                    release.is_none_or(|(ingress, _)| !sw.paused_upstream[ingress as usize]);
                let ep = &mut sw.egress[port as usize];
                let ser = tx_delay(pkt.size_bytes as u64, ep.rate_bps);
                (ep, release, ser, idle)
            }
        };
        let done = Reserved {
            done_ps: (now + ser).as_ps(),
            key,
        };
        // The port was idle, so any earlier reserved completion has passed.
        let passed = ep.reserved.take().is_some();
        if idle && ser.as_ps() > 0 && ep.queues_empty() {
            ep.reserved = Some(done);
            if let Some((ingress, bytes)) = release {
                self.switch_mut(node).defer_release(done, port, ingress, bytes);
            }
        } else {
            ep.busy = true;
            let ev = Event::EgressDone {
                node,
                port,
                release,
            };
            self.q.insert_message(SimTime(done.done_ps), done.key, ev);
        }
        self.perf.completions_elided += passed as u64;
        self.sched_wire(
            rank,
            peer,
            now + ser + prop,
            Event::LinkArrive {
                node: peer,
                port: peer_port,
                pkt,
            },
        );
    }

    fn on_egress_done(&mut self, node: Node, port: u16, release: Option<(u16, u32)>) {
        let cursor = self.cursor();
        self.port_mut(node, port).busy = false;
        if let Some(sw) = self.switch_of(node) {
            sw.settle(cursor);
            if let Some((ingress, bytes)) = release {
                let action = sw.release_data(ingress, bytes);
                self.apply_pfc_action(node, action);
            }
        }
        self.try_transmit(node, port);
    }

    /// Schedule the completion `port` reserved, under the key it reserved
    /// and with its deferred buffer release: something can now observe it.
    fn materialize_egress(&mut self, node: Node, port: u16) {
        let ep = self.port_mut(node, port);
        let done = ep.reserved.take().expect("a reserved completion");
        ep.busy = true;
        let release = self.switch_of(node).and_then(|sw| sw.reclaim_release(done.key));
        let ev = Event::EgressDone {
            node,
            port,
            release,
        };
        self.q.insert_message(SimTime(done.done_ps), done.key, ev);
    }

    fn apply_pfc_action(&mut self, node: Node, action: PfcAction) {
        let now = self.now();
        let prop = SimDuration(self.cfg.topo.link_delay_ps);
        let (port, pause) = match action {
            PfcAction::None => return,
            PfcAction::SendPause(p) => (p, true),
            PfcAction::SendResume(p) => (p, false),
        };
        if pause {
            // A release charged to this ingress may now send the RESUME,
            // so every completion carrying one must really fire.
            while let Some(out) = self.switch_mut(node).port_charged_to(port) {
                self.materialize_egress(node, out);
            }
        }
        let id = match node {
            Node::Leaf(l) => (false, l),
            Node::Spine(s) => (true, s),
            Node::Host(_) => unreachable!("hosts do not emit PFC"),
        };
        if pause {
            self.jot(JEffect::Pause { id, port });
        } else {
            self.jot(JEffect::Resume);
        }
        #[cfg(feature = "audit")]
        {
            // The auditor ledger tracks *physical* frames, paired against
            // live pause flags — it stays immediate even in sharded mode.
            if pause {
                self.auditor.on_pause_sent(id, port);
            } else {
                self.auditor.on_resume_sent(id, port);
            }
        }
        let (peer, peer_port) = self.topo.peer(node, port);
        let rank = self.rank_node(node);
        self.sched_wire(
            rank,
            peer,
            now + prop,
            Event::PauseFrame {
                node: peer,
                port: peer_port,
                pause,
            },
        );
    }

    /// PAUSE or RESUME of `node`'s egress `port` — a switch port or a NIC
    /// alike: the data class stops, control keeps flowing.
    fn on_pause_frame(&mut self, node: Node, port: u16, pause: bool) {
        let now_ps = self.now().as_ps();
        let ep = self.port_mut(node, port);
        if ep.paused == pause {
            return;
        }
        ep.paused = pause;
        ep.q_gen = ep.q_gen.wrapping_add(1);
        if pause {
            ep.paused_since_ps = now_ps;
        } else {
            let dwell = SimTime(now_ps).saturating_since(SimTime(ep.paused_since_ps));
            self.jot(JEffect::PausedDwell(dwell));
            self.try_transmit(node, port);
        }
    }

    // ------------------------------------------------------------------
    // Fault injection
    // ------------------------------------------------------------------

    /// Apply fault-timeline entry `i` (see [`crate::fault`]).
    ///
    /// Faults mutate link/NIC state and nothing else: no packet is dropped,
    /// no queue is cleared, so the audit ledger balances across every
    /// failure and recovery. Whatever a fault touched, the cached path
    /// snapshot is invalidated wholesale — `link_rate_bps` and link state
    /// are otherwise only read at rebuild time.
    fn on_fault(&mut self, i: u32) {
        match self.cfg.faults[i as usize].fault {
            Fault::LinkDown { leaf, spine } => self.fault_set_link_down(leaf, spine, true),
            Fault::LinkUp { leaf, spine } => self.fault_set_link_down(leaf, spine, false),
            Fault::LinkRate {
                leaf,
                spine,
                rate_bps,
            } => self.fault_set_link_rate(leaf, spine, rate_bps),
            Fault::SpineDown { spine } => {
                for leaf in 0..self.cfg.topo.n_leaves {
                    self.fault_set_link_down(leaf, spine, true);
                }
            }
            Fault::SpineUp { spine } => {
                for leaf in 0..self.cfg.topo.n_leaves {
                    self.fault_set_link_down(leaf, spine, false);
                }
            }
            Fault::LoadScale { permille } => {
                let nominal = self.cfg.topo.host_link_rate_bps;
                let rate = (nominal * permille as u64 / 1000).max(1);
                for host in &mut self.hosts {
                    host.nic.rate_bps = rate;
                }
            }
        }
        // Fault events are replicated on every shard; exactly one replica
        // (shard 0 — the one that exists at every shard count) reports the
        // application.
        if self.shard_id == 0 {
            self.jot(JEffect::Fault);
        }
        self.fault_epoch = self.fault_epoch.wrapping_add(1);
    }

    /// Fail or restore the bidirectional `leaf <-> spine` link. Idempotent.
    /// Queued packets freeze on a downed port (the fault never drops); both
    /// directions are kicked on recovery so frozen queues resume draining.
    fn fault_set_link_down(&mut self, leaf: u32, spine: u32, down: bool) {
        let up_port = self.topo.leaf_uplink_port(spine) as usize;
        // Link state is only read at snapshot-rebuild time; `on_fault`
        // bumps the fault epoch, which forces exactly that.
        let lsw = &mut self.leaves[leaf as usize];
        lsw.egress[up_port].link_down = down;
        let ssw = &mut self.spines[spine as usize];
        ssw.egress[leaf as usize].link_down = down;
        if !down {
            // The state flip above is replicated everywhere; the transmit
            // kicks schedule real events, so only the owner issues them.
            if self.owns(Node::Leaf(leaf)) {
                self.try_transmit(Node::Leaf(leaf), up_port as u16);
            }
            if self.owns(Node::Spine(spine)) {
                self.try_transmit(Node::Spine(spine), leaf as u16);
            }
        }
    }

    /// Re-rate the bidirectional `leaf <-> spine` link (mid-run asymmetric
    /// degradation). Frames already serializing finish at the old rate.
    fn fault_set_link_rate(&mut self, leaf: u32, spine: u32, rate_bps: u64) {
        let up_port = self.topo.leaf_uplink_port(spine) as usize;
        let lsw = &mut self.leaves[leaf as usize];
        lsw.egress[up_port].rate_bps = rate_bps;
        let ssw = &mut self.spines[spine as usize];
        ssw.egress[leaf as usize].rate_bps = rate_bps;
    }

    // ------------------------------------------------------------------
    // RLB: prediction and CNM plumbing
    // ------------------------------------------------------------------

    /// Start Δt sampling for an ingress port once it shows congestion
    /// (half the warning threshold), per §3.2.1's "only performs
    /// prediction when there is congestion". The sampling clock itself is
    /// one `PredictorTick` per switch; activating a port joins it to the
    /// switch's tick (arming the tick if it isn't running).
    fn maybe_activate_sampler(&mut self, node: Node, in_port: u16) {
        let dt = match self.cfg.rlb.as_ref() {
            Some(rcfg) => rcfg.dt_ps,
            None => return,
        };
        let now = self.now();
        let arm = {
            let sw = self.switch_mut(node);
            if sw.predictors.is_empty() || sw.sampler_active[in_port as usize] {
                return;
            }
            let activation = sw.predictors[in_port as usize].qth_bytes() / 2;
            if sw.ingress_bytes[in_port as usize] < activation.max(1) {
                return;
            }
            sw.sampler_active[in_port as usize] = true;
            sw.predictors[in_port as usize].reset();
            let arm = !sw.sampler_tick_armed;
            sw.sampler_tick_armed = true;
            arm
        };
        if arm {
            let rank = self.rank_node(node);
            self.sched(rank, now + SimDuration(dt), Event::PredictorTick(node));
        }
    }

    /// One Δt tick for a switch: sample every active ingress port in
    /// ascending port order (deterministic CNM emission), deactivate ports
    /// that went quiet, and keep ticking while any port stays active.
    fn on_predictor_tick(&mut self, node: Node) {
        let dt = match self.cfg.rlb.as_ref() {
            Some(rcfg) => rcfg.dt_ps,
            None => return,
        };
        let now = self.now();
        let cursor = self.cursor();
        let mut warns = std::mem::take(&mut self.warn_scratch);
        warns.clear();
        let keep_ticking = {
            let sw = self.switch_mut(node);
            sw.settle(cursor);
            let mut any_active = false;
            for port in 0..sw.n_ports() {
                if !sw.sampler_active[port] {
                    continue;
                }
                let qlen = sw.ingress_bytes[port];
                let pred = sw.predictors[port].on_sample(now.as_ps(), qlen);
                if pred == Prediction::Warn {
                    warns.push(port as u16);
                }
                // Keep sampling while the port stays congested.
                let activation = sw.predictors[port].qth_bytes() / 2;
                if qlen >= activation.max(1) || pred == Prediction::Warn {
                    any_active = true;
                } else {
                    sw.sampler_active[port] = false;
                    sw.predictors[port].reset();
                }
            }
            sw.sampler_tick_armed = any_active;
            any_active
        };
        if !warns.is_empty() {
            self.jot(JEffect::CnmGen(warns.len() as u64));
        }
        for &port in &warns {
            self.send_cnm_upstream(node, port, encode_node(node), port, self.cnm_ttl);
        }
        self.warn_scratch = warns;
        if keep_ticking {
            let rank = self.rank_node(node);
            self.sched(rank, now + SimDuration(dt), Event::PredictorTick(node));
        }
    }

    /// Emit a CNM out of `out_port`'s reverse link (toward the upstream
    /// neighbour feeding that ingress). Skips host neighbours — servers
    /// cannot reroute.
    fn send_cnm_upstream(
        &mut self,
        node: Node,
        out_port: u16,
        origin_node: u32,
        origin_port: u16,
        ttl: u8,
    ) {
        let (peer, _) = self.topo.peer(node, out_port);
        if matches!(peer, Node::Host(_)) {
            return;
        }
        let pkt = Packet {
            kind: PacketKind::Cnm {
                origin_node,
                origin_ingress_port: origin_port,
                ttl,
            },
            flow: u32::MAX,
            psn: 0,
            size_bytes: self.cfg.transport.ctrl_bytes,
            src_host: u32::MAX,
            dst_host: u32::MAX,
            ecn: false,
            sent_ps: self.now().as_ps(),
            path: NO_PATH,
            recircs: 0,
            ingress_port: 0,
            cum: 0,
            nack: false,
        };
        self.enqueue_or_launch(node, out_port, pkt);
    }

    /// CNM arrived at `node` on `in_port`.
    ///
    /// * At a **leaf**, arriving from a spine: record the warning —
    ///   path-granular if the origin is a (destination) leaf's uplink
    ///   ingress, uplink-granular if the origin is the spine's own ingress
    ///   from *this* leaf.
    /// * At a **spine**: relay toward the leaves that recently contributed
    ///   traffic to the endangered direction (the paper's flow-table
    ///   driven hop-by-hop propagation).
    fn handle_cnm(&mut self, node: Node, in_port: u16, origin_node: u32, origin_port: u16, ttl: u8) {
        let now = self.now();
        // Copy the one field we need instead of cloning the whole RlbConfig
        // on every CNM (this runs per control frame under congestion).
        let warn_lifetime_ps = match self.cfg.rlb.as_ref() {
            Some(rcfg) => rcfg.warn_lifetime_ps,
            None => return, // CNMs in a fabric without RLB: ignore
        };
        match node {
            Node::Leaf(l) => {
                let Some(via_spine) = self.topo.spine_of_leaf_port(in_port) else {
                    return; // CNM from a host port: not meaningful
                };
                let until = (now + SimDuration(warn_lifetime_ps)).as_ps();
                let origin = decode_node(origin_node);
                let sw = &mut self.leaves[l as usize];
                let ls = sw.leaf.as_mut().expect("leaf state");
                match origin {
                    Node::Leaf(dst_leaf) => {
                        // Congestion predicted at dst_leaf's ingress from
                        // some spine: that (spine, dst_leaf) path is hot.
                        if let Some(s) = self.topo.spine_of_leaf_port(origin_port) {
                            if dst_leaf != l {
                                ls.warnings.warn_path(s as usize, dst_leaf as usize, until);
                                ls.note_path_warn(s as usize, dst_leaf as usize);
                            }
                        }
                    }
                    Node::Spine(s) => {
                        // Congestion at spine s's ingress from leaf
                        // `origin_port`: only relevant if that leaf is us —
                        // then every path through s from here is endangered.
                        if origin_port as u32 == l {
                            ls.warnings.warn_uplink(s as usize, until);
                            ls.note_uplink_warn(s as usize);
                        } else if s == via_spine {
                            // Another leaf overloads this spine's ingress;
                            // its egress toward our destinations may still
                            // pause. Treat as a mild uplink warning too.
                            ls.warnings.warn_uplink(s as usize, until);
                            ls.note_uplink_warn(s as usize);
                        }
                    }
                    Node::Host(_) => {}
                }
            }
            Node::Spine(_) => {
                if ttl == 0 {
                    return;
                }
                // Relay to recent contributors of the egress pointing back
                // at the CNM's arrival direction (the endangered path).
                let targets: Vec<usize> = {
                    let sw = self.switch_mut(node);
                    sw.contributors
                        .contributors(in_port as usize, now.as_ps())
                        .filter(|&p| p != in_port as usize)
                        .collect()
                };
                for p in targets {
                    self.jot(JEffect::CnmRelay);
                    self.send_cnm_upstream(node, p as u16, origin_node, origin_port, ttl - 1);
                }
            }
            Node::Host(_) => unreachable!(),
        }
    }

    // ------------------------------------------------------------------
    // Transport timers
    // ------------------------------------------------------------------

    /// Global alpha-update tick: one *replicated* event per shard services
    /// every live flow of every host — a replica's unowned hosts never see a
    /// `FlowStart`, so their live prefixes are empty — then re-arms
    /// unconditionally: the fixed tick phase is part of the canonical-order
    /// contract between shard replicas (see `new_shard`). The run still
    /// terminates: completion and the hard stop end the event loop, not
    /// queue drain.
    fn on_alpha_tick(&mut self) {
        for &f in self.hosts.iter().flat_map(|h| h.live()) {
            if let Some(s) = self.flows[f as usize].tx.as_deref_mut() {
                s.dcqcn.on_alpha_timer();
            }
        }
        let dt = SimDuration(self.cfg.transport.dcqcn.alpha_timer_ps);
        let at = self.now() + dt;
        self.sched(RANK_GLOBAL, at, Event::AlphaTick);
    }

    /// Global rate-increase tick over the same live prefixes; re-arms like
    /// `on_alpha_tick`. A host is kicked at most once per tick (ascending
    /// host id — deterministic), however many of its flows just got a rate
    /// increase and could be eligible sooner.
    fn on_increase_tick(&mut self) {
        let dt = SimDuration(self.cfg.transport.dcqcn.increase_timer_ps);
        let at = self.now() + dt;
        self.sched(RANK_GLOBAL, at, Event::IncreaseTick);
        for h in 0..self.hosts.len() {
            let mut kick = false;
            for &f in self.hosts[h].live() {
                if let Some(s) = self.flows[f as usize].tx.as_deref_mut() {
                    s.dcqcn.on_increase_timer();
                    kick = true;
                }
            }
            if kick {
                self.try_transmit(Node::Host(h as u32), 0);
            }
        }
    }

    fn on_rto_check(&mut self, f: u32) {
        let fs = &mut self.flows[f as usize];
        let host = fs.spec.src_host;
        // A finished flow's probe stops here, unarmed.
        let Some(s) = fs.tx.as_deref_mut() else {
            return;
        };
        let mark = s.tx.progress_mark();
        let stuck = mark == s.last_una_at_rto && s.tx.has_outstanding();
        s.last_una_at_rto = mark;
        if stuck && s.tx.on_timeout() {
            if self.traces.wants(f) {
                let mark = s.tx.progress_mark();
                self.traces
                    .record(f, self.now().as_ps(), mark, TraceEvent::TimeoutRewind);
            }
            self.try_transmit(Node::Host(host), 0);
        }
        let dt = SimDuration(self.cfg.transport.rto_ps);
        let at = self.now() + dt;
        let rank = self.rank_host(host);
        self.sched(rank, at, Event::RtoCheck(f));
    }

    // ------------------------------------------------------------------
    // Window-driver surface (see `crate::shard`)
    // ------------------------------------------------------------------

    /// Dispatch every pending event strictly before `end`, stopping early
    /// at the event that completes the last flow when this replica sees it
    /// (always the case with 1 shard, so a lone replica never overshoots
    /// and `jot` may apply effects directly); returns the number
    /// dispatched. The bounded-window driver's inner loop — the only event
    /// loop there is: safe because every cross-shard effect carries at
    /// least one link propagation delay, so nothing produced elsewhere
    /// during this window can land before `end`.
    pub(crate) fn dispatch_window(&mut self, end: SimTime) -> u64 {
        let n_flows = self.flows.len();
        self.window_end = end.as_ps();
        let mut dispatched = 0;
        while let Some((_t, key, ev)) = self.q.pop_before(end) {
            self.cur_key = key;
            dispatched += 1;
            self.dispatch(ev);
            #[cfg(feature = "audit")]
            if self.cfg.audit_every_events > 0
                && (self.events + dispatched).is_multiple_of(self.cfg.audit_every_events)
            {
                let cut = self.audit_cut(false);
                // A lone replica holds every packet, so its own books must
                // balance; shards balance at the barrier (`shard::worker`).
                if self.n_shards == 1 {
                    cut.assert_conserved();
                }
            }
            if all_flows_done(self.completed, n_flows) {
                break;
            }
        }
        self.events += dispatched;
        dispatched
    }

    /// Hand this window's sends for shard `dst` over by exchanging the
    /// outbox with `mailbox`, which the receiver left drained (empty,
    /// capacity kept) — so the next window pushes into storage that is
    /// already allocated and nothing is copied. Returns the number sent.
    pub(crate) fn swap_outbox(&mut self, dst: u16, mailbox: &mut Vec<WireMsg>) -> usize {
        debug_assert!(mailbox.is_empty(), "mailbox handed over before it was drained");
        std::mem::swap(&mut self.outbox[dst as usize], mailbox);
        mailbox.len()
    }

    /// Drain `mailbox` into the event queue, in place.
    pub(crate) fn deliver(&mut self, mailbox: &mut Vec<WireMsg>) {
        for m in mailbox.drain(..) {
            self.q.insert_message(m.at, m.key, m.ev);
        }
    }

    /// Every reserved completion on this replica (only owned entities
    /// launch frames, so only they hold any).
    fn reservations(&self) -> impl Iterator<Item = Reserved> + '_ {
        self.ports().filter_map(|ep| ep.reserved)
    }

    /// What this replica publishes at a round barrier.
    pub(crate) fn status(&mut self) -> ShardStatus {
        // A completion reserved past the window is pending exactly as its
        // event would be, so windows and the hard-stop end time come out
        // as if it were queued. (`now` needs no such care: frames mean
        // flows, flows keep the DCQCN ticks armed, and so a run that
        // launched anything never drains.)
        let reserved = self
            .reservations()
            .map(|r| SimTime(r.done_ps))
            .filter(|&t| t.as_ps() >= self.window_end);
        ShardStatus {
            next: self.q.peek_time().into_iter().chain(reserved).min(),
            now: self.q.now(),
            completed: self.completed,
            last_completion: self.last_completion,
            #[cfg(feature = "audit")]
            cut: self.audit_cut(false),
        }
    }

    pub(crate) fn n_flows(&self) -> usize {
        self.flows.len()
    }

    pub(crate) fn cfg(&self) -> &SimConfig {
        &self.cfg
    }

    /// `(src shard, dst shard)` owning flow `i`'s endpoints — the record
    /// merge takes sender-side fields from the former, receiver-side OOO
    /// fields from the latter.
    pub(crate) fn flow_endpoint_shards(&self, i: usize) -> (u16, u16) {
        (
            self.shard_of(Node::Host(self.flows[i].spec.src_host)),
            self.shard_of(Node::Host(self.flows[i].spec.dst_host)),
        )
    }

    /// Tear one shard replica down into the pieces the driver merges.
    pub(crate) fn into_parts(mut self) -> ShardParts {
        self.counters.paused_port_time_ps = self.paused_port_time.as_ps();
        let records = self.build_records();
        ShardParts {
            records,
            counters: self.counters,
            ood_histogram: self.ood_histogram,
            groups: self.flows.iter().map(|f| f.spec.group).collect(),
            timeseries: self.timeseries,
            traces: self.traces,
            pfc_pauses_by_port: self.pfc_pauses_by_port,
            events: self.events,
            perf: PerfStats {
                arena_high_water: self.arena.high_water() as u64,
                arena_capacity: self.arena.capacity() as u64,
                queue_high_water: self.q.high_water() as u64,
                queue_capacity: self.q.capacity() as u64,
                ..self.perf
            },
        }
    }

    /// The audit sweep over this replica, run between events so every
    /// structure is quiescent: arena/queue handle balance, buffer occupancy
    /// (and PFC pairing when `drain`) for its switches, and its itemised
    /// side of the packet-conservation ledger. The caller owns the balance:
    /// a lone replica asserts its own cut, shards sum theirs at the barrier
    /// (a shard alone sees only its side of each flow).
    #[cfg(feature = "audit")]
    pub(crate) fn audit_cut(&mut self, drain: bool) -> AuditReport {
        // Releases not yet due stay charged, as their frames still are.
        let cursor = self.cursor();
        for sw in self.leaves.iter_mut().chain(self.spines.iter_mut()) {
            sw.settle(cursor);
        }
        let (mut in_flight, mut recirc) = (0u64, 0u64);
        for ev in self.q.iter_events() {
            match ev {
                Event::LinkArrive { pkt, .. } if matches!(pkt.kind, PacketKind::Data) => {
                    in_flight += 1
                }
                Event::Recirculate { .. } => recirc += 1,
                _ => {}
            }
        }
        // Handle conservation: every live arena slot is referenced by
        // exactly one queue somewhere in the fabric, and vice versa. A
        // mismatch means a handle leaked (slot never freed) or a queue
        // holds a dangling handle.
        let queued: usize = self
            .ports()
            .map(|ep| ep.data_q.len() + ep.ctrl_q.len())
            .sum();
        assert_eq!(
            queued,
            self.arena.len(),
            "packet arena out of balance on shard {}: {} handles queued, {} slots live",
            self.shard_id,
            queued,
            self.arena.len(),
        );
        let leaves = self
            .leaves
            .iter()
            .enumerate()
            .map(|(i, sw)| ((false, i as u32), sw));
        let spines = self
            .spines
            .iter()
            .enumerate()
            .map(|(i, sw)| ((true, i as u32), sw));
        self.auditor.check(
            self.q.now().as_ps(),
            leaves.chain(spines),
            &self.arena,
            in_flight,
            recirc,
            drain,
        )
    }
}

/// The one completion rule, shared by a replica's dispatch loop (its own
/// count) and the driver's round decision (the sum over shards): a run
/// with no flows never "completes" — it drains or hits the hard stop.
pub(crate) fn all_flows_done(completed: usize, n_flows: usize) -> bool {
    n_flows > 0 && completed == n_flows
}

/// Per-shard state published at each round barrier; every thread reads all
/// of them to compute the (identical) window decision.
#[derive(Debug, Default, Clone, Copy)]
pub(crate) struct ShardStatus {
    /// Earliest pending local event, `None` if the shard's queue drained.
    pub next: Option<SimTime>,
    /// Local clock (time of the last dispatched event).
    pub now: SimTime,
    /// Flows completed so far (completion is detected on the src shard).
    pub completed: usize,
    /// `(t_ps, key)` of this shard's canonically-last flow completion.
    pub last_completion: Option<(u64, u128)>,
    /// This shard's side of the conservation ledger.
    #[cfg(feature = "audit")]
    pub cut: AuditReport,
}

/// Everything the driver needs from one consumed shard replica to assemble
/// the merged [`RunResult`].
pub(crate) struct ShardParts {
    pub records: Vec<FlowRecord>,
    pub counters: FabricCounters,
    pub ood_histogram: LogHistogram,
    pub groups: Vec<u64>,
    pub timeseries: FabricTimeSeries,
    pub traces: FlowTraces,
    pub pfc_pauses_by_port: std::collections::BTreeMap<((bool, u32), u16), u64>,
    pub events: u64,
    pub perf: PerfStats,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cnm_origin_encoding_round_trips() {
        for node in [Node::Leaf(0), Node::Leaf(11), Node::Spine(0), Node::Spine(39)] {
            assert_eq!(decode_node(encode_node(node)), node);
        }
        // Leaves and spines never collide.
        assert_ne!(encode_node(Node::Leaf(3)), encode_node(Node::Spine(3)));
    }

    #[test]
    #[should_panic]
    fn host_origin_is_rejected() {
        encode_node(Node::Host(0));
    }

    /// The column partition over every small fabric shape and every shard
    /// count the driver can ask for (`shard_count` keeps `n ≤ n_leaves`).
    #[test]
    fn shard_for_cuts_the_fabric_into_balanced_columns() {
        for (leaves, spines, hpl) in
            (2..=13u32).flat_map(|l| (1..=13u32).flat_map(move |s| [(l, s, 1), (l, s, 3)]))
        {
            let topo = TopoConfig {
                n_leaves: leaves,
                n_spines: spines,
                hosts_per_leaf: hpl,
                ..TopoConfig::default()
            };
            for n in 1..=leaves as u16 {
                let of = |node| Simulation::shard_for(&topo, n, node);
                let (mut leaf_band, mut spine_band) =
                    (vec![0u32; n as usize], vec![0u32; n as usize]);
                for l in 0..leaves {
                    // `of` is a function, so "exactly one owner" is the range.
                    assert!(of(Node::Leaf(l)) < n);
                    leaf_band[of(Node::Leaf(l)) as usize] += 1;
                    for h in l * hpl..(l + 1) * hpl {
                        assert_eq!(of(Node::Host(h)), of(Node::Leaf(l)), "host {h} left its leaf");
                    }
                }
                for s in 0..spines {
                    assert!(of(Node::Spine(s)) < n);
                    spine_band[of(Node::Spine(s)) as usize] += 1;
                }
                let what = format!("{leaves}x{spines} on {n} shards");
                assert!(leaf_band.iter().all(|&c| c >= 1), "{what}: a shard without a leaf");
                for band in [&leaf_band, &spine_band] {
                    let (lo, hi) = (band.iter().min().unwrap(), band.iter().max().unwrap());
                    assert!(hi - lo <= 1, "{what}: bands {band:?}");
                }
                if leaves % n as u32 == 0 && spines % n as u32 == 0 {
                    let local = (0..leaves)
                        .flat_map(|l| (0..spines).map(move |s| (l, s)))
                        .filter(|&(l, s)| of(Node::Leaf(l)) == of(Node::Spine(s)))
                        .count() as u32;
                    assert_eq!(local, leaves * spines / n as u32, "{what}: local links");
                }
            }
        }
    }

    /// One shard owns everything, and the map the hot path reads is
    /// `shard_for` tabulated by rank.
    #[test]
    fn shard_map_tabulates_shard_for_by_rank() {
        let cfg = SimConfig {
            topo: TopoConfig {
                n_leaves: 5,
                n_spines: 3,
                hosts_per_leaf: 2,
                ..TopoConfig::default()
            },
            ..SimConfig::default()
        };
        for n in [1u16, 2, 5] {
            let sim = Simulation::new_shard(cfg.clone(), Vec::new(), n - 1, n);
            let nodes = (0..10)
                .map(Node::Host)
                .chain((0..5).map(Node::Leaf))
                .chain((0..3).map(Node::Spine));
            for node in nodes {
                assert_eq!(sim.shard_of(node), Simulation::shard_for(&cfg.topo, n, node));
                assert!(n > 1 || sim.owns(node));
            }
        }
    }

    /// The shape of `shard_equivalence.rs`'s late-frame golden (pause-heavy
    /// DRILL+RLB dumbbell, seed 3): the CNPs its receivers send, those for
    /// ECN-marked duplicates after their sender finished included. Recorded
    /// at commit 5962e2d, the last one that kept every flow's transport
    /// state from construction to the end of the run.
    #[test]
    fn late_frame_run_sends_the_recorded_cnps() {
        use crate::scenario::{MotivationConfig, Scenario};
        let mc = MotivationConfig {
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
            seed: 3,
        };
        let rlb = Some(rlb_core::RlbConfig::default());
        let sc = Scenario::motivation(&mc, rlb_lb::Scheme::Drill, rlb);
        let mut s = Simulation::new(sc.cfg, sc.flows);
        s.dispatch_window(SimTime(u64::MAX));
        assert_eq!(s.completed, s.flows.len(), "every flow completes");
        let cnps: u64 = s.flows.iter().map(|f| f.cnp_gen.cnps_sent).sum();
        assert_eq!(cnps, 31_618);
    }

    /// Frames that reach a flow after its transport halves are gone are
    /// answered from the resident record, as the halves answered them
    /// (DESIGN §9.6).
    mod late_frames {
        use super::*;
        use crate::packet::Packet;

        /// Host 0's one-packet flow to host 1 run to its final ACK, under
        /// `mode`: both halves are gone.
        fn finished(mode: TransportMode) -> Simulation {
            let mut cfg = SimConfig {
                topo: TopoConfig {
                    n_leaves: 2,
                    n_spines: 1,
                    hosts_per_leaf: 2,
                    ..TopoConfig::default()
                },
                ..SimConfig::default()
            };
            cfg.transport.mode = mode;
            let flows = vec![FlowSpec::new(SimTime::ZERO, 0, 1, 1000)];
            let mut s = Simulation::new(cfg, flows);
            s.dispatch_window(SimTime(u64::MAX));
            let f = &s.flows[0];
            assert!(f.is_complete() && f.delivered && f.tx.is_none() && f.rx.is_none());
            assert_eq!((f.packets_sent(), f.naks(), f.ooo_packets()), (1, 0, 0));
            s
        }

        fn data(ecn: bool) -> Packet {
            let mut pkt = Packet::data(0, 0, 1048, 0, 1, 0);
            pkt.ecn = ecn;
            pkt
        }

        /// A stale NAK still counts, and still kicks the NIC.
        #[test]
        fn a_nak_after_the_final_ack_counts() {
            let mut s = finished(TransportMode::GoBackN);
            let nak = Packet::response(PacketKind::Nak, &data(false), 0, 64);
            s.on_host_rx(0, nak);
            assert_eq!(s.flows[0].naks(), 1);
            assert_eq!(s.flows[0].packets_sent(), 1, "nothing to resend");
        }

        /// A duplicate after delivery is answered by nothing; an ECN-marked
        /// one still elicits its CNP through the resident generator.
        #[test]
        fn a_duplicate_after_delivery_answers_only_its_ecn_mark() {
            let mut s = finished(TransportMode::GoBackN);
            let nic = |s: &Simulation| (s.hosts[1].nic.busy, s.hosts[1].nic.reserved.map(|r| r.key));
            let before = nic(&s);
            s.on_host_rx(1, data(false));
            assert_eq!(nic(&s), before, "no response");
            assert!(s.flows[0].rx.is_none());
            let cnps = s.flows[0].cnp_gen.cnps_sent;
            s.on_host_rx(1, data(true));
            assert_eq!(s.flows[0].cnp_gen.cnps_sent, cnps + 1);
            assert_ne!(nic(&s), before, "the CNP left");
            assert_eq!(s.flows[0].ooo_packets(), 0);
        }

        /// A late IRN ACK counts its NACK flag; a CNP or an RTO probe for a
        /// finished flow changes nothing and arms nothing.
        #[test]
        fn late_acks_cnps_and_rto_probes_change_nothing_else() {
            let mut s = finished(TransportMode::SelectiveRepeat);
            let mut ack = Packet::response(PacketKind::Ack, &data(false), 0, 64);
            ack.cum = 1;
            s.on_host_rx(0, ack);
            assert_eq!(s.flows[0].naks(), 0);
            ack.nack = true;
            s.on_host_rx(0, ack);
            assert_eq!(s.flows[0].naks(), 1);
            s.on_host_rx(0, Packet::response(PacketKind::Cnp, &data(false), 0, 64));
            let pending = s.q.len();
            s.on_rto_check(0);
            assert_eq!(s.q.len(), pending, "no RTO re-arm");
            assert_eq!((s.flows[0].packets_sent(), s.flows[0].naks()), (1, 1));
        }
    }

    /// The `net/shard_sync` criterion group hands over a stand-in of this
    /// size (the real type is crate-private); keep the two in step.
    #[test]
    fn wire_msg_size_is_what_the_mailbox_bench_assumes() {
        assert_eq!(std::mem::size_of::<WireMsg>(), 96);
    }

    fn rec(start: u64, finish: Option<u64>) -> rlb_metrics::FlowRecord {
        rlb_metrics::FlowRecord {
            flow_id: 0,
            src_host: 0,
            dst_host: 1,
            size_bytes: 1,
            total_packets: 1,
            start_ps: start,
            finish_ps: finish,
            ooo_packets: 0,
            max_ood: 0,
            packets_sent: 1,
            naks: 0,
            recirculations: 0,
        }
    }

    fn result_with(records: Vec<rlb_metrics::FlowRecord>, groups: Vec<u64>) -> RunResult {
        RunResult {
            records,
            counters: FabricCounters::default(),
            ood_histogram: LogHistogram::new(),
            end_time: SimTime::from_ms(10),
            events_processed: 0,
            groups,
            timeseries: Default::default(),
            traces: Default::default(),
            pfc_pauses_by_port: Default::default(),
            perf: PerfStats::default(),
        }
    }

    #[test]
    fn run_result_group_completion() {
        // Build a RunResult by hand to exercise the group reduction.
        let res = result_with(
            vec![
                rec(0, Some(2_000_000_000)),             // group 1
                rec(1_000_000_000, Some(5_000_000_000)), // group 1 (last)
                rec(0, None),                            // group 2, incomplete
                rec(0, Some(1_000_000_000)),             // untagged
            ],
            vec![1, 1, 2, u64::MAX],
        );
        let groups = res.group_completion_ms();
        // Group 1 completes at 5 ms from start 0 → 5.0 ms; group 2 has an
        // unfinished flow → excluded; untagged ignored.
        assert_eq!(groups.len(), 1);
        assert_eq!(groups[0].0, 1);
        assert!((groups[0].1 - 5.0).abs() < 1e-9);
    }

    #[test]
    fn group_with_incomplete_first_record_is_excluded() {
        // The unfinished flow is the group's FIRST record: the accumulator
        // must seed from it (None), not from a Some(0) sentinel that a
        // later finished record would "max" over.
        let res = result_with(
            vec![
                rec(0, None),                            // group 7, incomplete, first
                rec(1_000_000_000, Some(4_000_000_000)), // group 7, finished
            ],
            vec![7, 7],
        );
        assert!(res.group_completion_ms().is_empty());
    }

    #[test]
    fn fully_complete_group_uses_its_own_extremes() {
        // All-complete group: completion = max finish − min start, even
        // when the earliest-starting record is not the first listed.
        let res = result_with(
            vec![
                rec(3_000_000_000, Some(4_000_000_000)), // group 9
                rec(2_000_000_000, Some(9_000_000_000)), // group 9, min start + max finish
                rec(5_000_000_000, Some(6_000_000_000)), // group 9
            ],
            vec![9, 9, 9],
        );
        let groups = res.group_completion_ms();
        assert_eq!(groups.len(), 1);
        assert_eq!(groups[0].0, 9);
        // 9 ms − 2 ms = 7 ms.
        assert!((groups[0].1 - 7.0).abs() < 1e-9);
    }

    /// Elided completions driven by hand (DESIGN §9.7): two leaves, one
    /// spine, two hosts per leaf, and two flows (two packets to host 1, one
    /// to host 2) that start only at 1 s, so
    /// until then every event is one a test put in the queue. Frames are
    /// 1 000 bytes, 200 ns on a 40 Gbps port; a link delay is 2 µs, so no
    /// test window reaches a frame's next hop.
    mod elided {
        use super::*;
        use crate::config::SwitchConfig;
        use crate::fault::TimedFault;
        use crate::packet::Packet;

        const SER: u64 = 200_000;

        fn sim(switch: SwitchConfig, faults: Vec<TimedFault>) -> Simulation {
            let cfg = SimConfig {
                topo: TopoConfig {
                    n_leaves: 2,
                    n_spines: 1,
                    hosts_per_leaf: 2,
                    ..TopoConfig::default()
                },
                switch,
                faults,
                ..SimConfig::default()
            };
            let late = SimTime::from_ms(1000);
            let flows = vec![FlowSpec::new(late, 0, 1, 2_000), FlowSpec::new(late, 0, 2, 1)];
            let s = Simulation::new(cfg, flows);
            assert_eq!(tx_delay(1000, s.cfg.topo.link_rate_bps).as_ps(), SER);
            s
        }

        /// A frame of `flow` (host 0 to host `flow + 1`) arriving at `node`
        /// on `port`.
        fn arrival(node: Node, port: u16, flow: u32, bytes: u32) -> Event {
            let pkt = Packet::data(flow, 0, bytes, 0, flow + 1, 0);
            Event::LinkArrive { node, port, pkt }
        }

        /// Queue `ev`, a frame no host sent, at `at` ps; the auditor counts
        /// it injected, so the run's books balance.
        fn inject(s: &mut Simulation, at: u64, ev: Event) {
            #[cfg(feature = "audit")]
            s.auditor.on_injected();
            s.sched(RANK_GLOBAL, SimTime(at), ev);
        }

        /// Dispatch every event before `t` ps.
        fn run_to(s: &mut Simulation, t: u64) {
            s.dispatch_window(SimTime(t));
            // The books balance with releases pending or not.
            #[cfg(feature = "audit")]
            s.audit_cut(false).assert_conserved();
        }

        /// Leaf 0: a frame from host 0 to host 1 finds the port idle and
        /// nobody behind it, so its completion is only reserved; a second
        /// one queued behind it schedules that completion, which then
        /// launches the second frame at exactly the reserved instant.
        #[test]
        fn a_frame_queued_behind_launches_at_the_reserved_time() {
            let mut s = sim(SwitchConfig::default(), Vec::new());
            let (leaf, out) = (Node::Leaf(0), 1usize);
            inject(&mut s, 0, arrival(leaf, 0, 0, 1000));
            inject(&mut s, 10, arrival(leaf, 0, 0, 1000));
            run_to(&mut s, 1);
            let ep = &s.leaves[0].egress[out];
            assert_eq!(ep.reserved.map(|r| r.done_ps), Some(SER));
            assert!(!ep.busy);
            run_to(&mut s, 11);
            let ep = &s.leaves[0].egress[out];
            assert!(
                ep.busy && ep.reserved.is_none(),
                "the queued frame scheduled it"
            );
            assert_eq!(s.leaves[0].ingress_bytes[0], 2000);
            run_to(&mut s, SER);
            assert_eq!(s.perf.events_egress_done, 0);
            run_to(&mut s, SER + 1);
            assert_eq!(s.perf.events_egress_done, 1);
            let ep = &s.leaves[0].egress[out];
            assert_eq!(
                ep.reserved.map(|r| r.done_ps),
                Some(2 * SER),
                "launched at SER"
            );
            // The first frame released by its event; the second's release waits.
            assert_eq!(s.leaves[0].ingress_bytes[0], 1000);
            assert_eq!(s.perf.completions_elided, 0);
        }

        /// A PAUSE of the ingress a deferred release is charged to: that
        /// release could now resume it, so its completion is scheduled, and
        /// it does send the RESUME.
        #[test]
        fn a_pause_of_the_charged_ingress_schedules_the_completion() {
            let pfc = SwitchConfig {
                pfc_threshold_bytes: 1500,
                pfc_hysteresis_bytes: 400,
                ..SwitchConfig::default()
            };
            let mut s = sim(pfc, Vec::new());
            let leaf = Node::Leaf(0);
            // To host 1, then through the uplink to host 2: the second
            // admission takes ingress 0 to 2 000 bytes, over the threshold.
            inject(&mut s, 0, arrival(leaf, 0, 0, 1000));
            inject(&mut s, 10, arrival(leaf, 0, 1, 1000));
            run_to(&mut s, 1);
            assert!(s.leaves[0].egress[1].reserved.is_some());
            run_to(&mut s, 11);
            assert_eq!(s.counters.pause_frames, 1);
            let ep = &s.leaves[0].egress[1];
            assert!(ep.busy && ep.reserved.is_none(), "the PAUSE scheduled it");
            assert!(
                s.leaves[0].egress[2].busy,
                "a paused ingress's frame schedules"
            );
            run_to(&mut s, SER + 1);
            // 2 000 − 1 000 bytes < 1 500 − 400: the release resumed host 0.
            assert_eq!(s.counters.resume_frames, 1);
            assert_eq!(s.perf.events_egress_done, 1);
        }

        /// Spine 0 toward leaf 1 while the link flaps, with 20 000-byte
        /// frames (4 µs each, so a flap at least one link delay apart fits
        /// inside one). A link-up kick during a reserved completion with
        /// nothing queued schedules nothing; a frame frozen behind the
        /// downed link after the completion passed launches at the next
        /// kick, and the passed completion counts as elided.
        #[test]
        fn a_link_up_kick_launches_the_frozen_frame() {
            const BIG: u64 = 20 * SER;
            let flap = |t: u64, down: bool| {
                let (leaf, spine) = (1, 0);
                let fault = if down {
                    Fault::LinkDown { leaf, spine }
                } else {
                    Fault::LinkUp { leaf, spine }
                };
                TimedFault::new(SimTime(t), fault)
            };
            const US: u64 = 1_000_000;
            let faults = vec![
                flap(US / 2, true),
                flap(5 * US / 2, false),
                flap(9 * US / 2, true),
                flap(7 * US, false),
            ];
            let mut s = sim(SwitchConfig::default(), faults);
            let spine = Node::Spine(0);
            inject(&mut s, 0, arrival(spine, 0, 1, 20_000));
            inject(&mut s, 5 * US, arrival(spine, 0, 1, 20_000));
            run_to(&mut s, 5 * US / 2 + 1);
            let ep = &s.spines[0].egress[1];
            assert_eq!(ep.reserved.map(|r| r.done_ps), Some(BIG));
            assert!(!ep.busy, "kicked, nothing to launch");
            run_to(&mut s, 5 * US + 1);
            assert_eq!(
                s.spines[0].egress[1].data_q.len(),
                1,
                "frozen behind the link"
            );
            run_to(&mut s, 7 * US + 1);
            let ep = &s.spines[0].egress[1];
            assert_eq!(
                ep.reserved.map(|r| r.done_ps),
                Some(7 * US + BIG),
                "launched at 7 µs"
            );
            assert_eq!(s.perf.events_egress_done, 0);
            assert_eq!(s.perf.completions_elided, 1);
            assert_eq!(s.counters.faults_applied, 4);
        }

        /// The hard stop: a reserved completion past it is the pending
        /// event the run ends on, as its event would have been, and one
        /// before it counts as elided when the run concludes.
        #[test]
        fn a_hard_stop_sees_reserved_completions() {
            for (stop, end, elided) in [(SER / 2, SER, 0), (SER + 1, SER + 2_000_000, 1)] {
                let mut s = sim(SwitchConfig::default(), Vec::new());
                s.cfg.hard_stop = SimTime(stop);
                inject(&mut s, 0, arrival(Node::Spine(0), 0, 1, 1000));
                let res = s.run();
                assert_eq!(res.end_time, SimTime(end), "hard stop at {stop}");
                assert_eq!(res.events_processed, 1);
                assert_eq!(res.perf.completions_elided, elided, "hard stop at {stop}");
            }
        }

        /// A frame at exactly the reserved picosecond: keyed before the
        /// reserved completion it finds the port busy and queues, which
        /// schedules the completion; keyed after, it finds the port idle.
        /// Either way it leaves at that picosecond.
        #[test]
        fn same_picosecond_arrivals_order_by_key_around_the_reservation() {
            for before in [true, false] {
                let mut s = sim(SwitchConfig::default(), Vec::new());
                let spine = Node::Spine(0);
                inject(&mut s, 0, arrival(spine, 0, 1, 1000));
                run_to(&mut s, 1);
                let r = s.spines[0].egress[1].reserved.expect("reserved");
                let key = if before { r.key - 1 } else { r.key + 1 };
                #[cfg(feature = "audit")]
                s.auditor.on_injected();
                s.q.insert_message(SimTime(r.done_ps), key, arrival(spine, 0, 1, 1000));
                run_to(&mut s, r.done_ps + 1);
                let ep = &s.spines[0].egress[1];
                assert_eq!(
                    ep.reserved.map(|r| r.done_ps),
                    Some(2 * SER),
                    "before: {before}"
                );
                assert_eq!(s.perf.events_egress_done, before as u64);
                assert_eq!(s.perf.completions_elided, !before as u64);
            }
        }

        /// Host 1 sends no flow, so its NIC has nothing to follow the ACK
        /// for an arriving frame and only reserves that completion. A
        /// second ACK queued behind it schedules the completion under the
        /// reserved key, which launches the second ACK at the reserved
        /// instant.
        #[test]
        fn a_nic_ack_queued_behind_launches_at_the_reserved_time() {
            const ACK_SER: u64 = 12_800;
            let mut s = sim(SwitchConfig::default(), Vec::new());
            let host = Node::Host(1);
            inject(&mut s, 0, arrival(host, 0, 0, 1000));
            let second = Packet::data(0, 1, 1000, 0, 1, 0);
            inject(&mut s, 10, Event::LinkArrive { node: host, port: 0, pkt: second });
            run_to(&mut s, 1);
            let nic = &s.hosts[1].nic;
            let r = nic.reserved.expect("the ACK's completion is reserved");
            assert_eq!(r.done_ps, ACK_SER);
            assert_eq!(tx_delay(64, nic.rate_bps).as_ps(), ACK_SER);
            assert!(!nic.busy);
            run_to(&mut s, 11);
            let nic = &s.hosts[1].nic;
            assert!(nic.busy && nic.reserved.is_none(), "the queued ACK scheduled it");
            assert_eq!(nic.ctrl_q.len(), 1);
            let (at, key, ev) = s.q.pop_before(SimTime(ACK_SER + 1)).expect("scheduled");
            assert_eq!((at.as_ps(), key), (r.done_ps, r.key), "under the reserved key");
            assert!(matches!(ev, Event::EgressDone { node, port: 0, release: None } if node == host));
            s.cur_key = key;
            s.dispatch(ev);
            let nic = &s.hosts[1].nic;
            assert_eq!(nic.reserved.map(|r| r.done_ps), Some(2 * ACK_SER), "launched at done_ps");
            assert!(nic.ctrl_q.is_empty());
            assert_eq!(s.perf.events_host_egress_done, 1);
            assert_eq!(s.perf.events_egress_done, 0);
            assert_eq!(s.perf.completions_elided, 0);
        }

        /// A PAUSE at host 0's NIC holds its flows' data when they start;
        /// the RESUME books the dwell as paused port time and kicks the
        /// NIC, which sends at once.
        #[test]
        fn a_nic_holds_data_while_paused_and_resumes_on_resume() {
            const LATE: u64 = 1_000_000_000_000;
            let mut s = sim(SwitchConfig::default(), Vec::new());
            let nic = Node::Host(0);
            let pfc = |pause| Event::PauseFrame { node: nic, port: 0, pause };
            s.sched(RANK_GLOBAL, SimTime(LATE - 10), pfc(true));
            s.sched(RANK_GLOBAL, SimTime(LATE + 1_000), pfc(false));
            run_to(&mut s, LATE + 1);
            assert!(s.flows.iter().all(|f| f.tx.is_some()), "started");
            let ep = &s.hosts[0].nic;
            assert!(ep.paused && !ep.busy && ep.reserved.is_none(), "data held");
            assert!(s.flows.iter().all(|f| f.packets_sent() == 0));
            run_to(&mut s, LATE + 1_001);
            assert_eq!(s.paused_port_time, SimDuration(1_010));
            let ep = &s.hosts[0].nic;
            assert!(!ep.paused && ep.busy, "the RESUME kicked the NIC");
            assert_eq!(s.flows[0].packets_sent(), 1);
            assert_eq!(s.perf.events_pause_frame, 2);
        }

        /// The `sim` fabric running `flows` under `mode`.
        fn nic_sim(mode: TransportMode, flows: Vec<FlowSpec>) -> Simulation {
            let mut s = sim(SwitchConfig::default(), Vec::new());
            s.cfg.transport.mode = mode;
            Simulation::new(s.cfg, flows)
        }

        const LATE: u64 = 1_000_000_000_000;

        /// Bytes of a full data frame on the wire.
        fn data_wire(s: &Simulation) -> u64 {
            (s.cfg.transport.mtu_bytes + s.cfg.transport.hdr_bytes) as u64
        }

        /// Serialization of a full data frame on host 0's NIC.
        fn data_ser(s: &Simulation) -> u64 {
            tx_delay(data_wire(s), s.hosts[0].nic.rate_bps).as_ps()
        }

        /// A one-packet flow at a go-back-N NIC: once its packet is on the
        /// wire it has nothing left to send, so the completion is only
        /// reserved, though the flow is live until its ACK.
        #[test]
        fn a_nic_whose_flows_have_nothing_to_send_reserves() {
            let flows = vec![FlowSpec::new(SimTime(LATE), 0, 1, 1000)];
            let mut s = nic_sim(TransportMode::GoBackN, flows);
            let ser = data_ser(&s);
            run_to(&mut s, LATE + 1);
            assert_eq!(s.hosts[0].live(), [0]);
            let nic = &s.hosts[0].nic;
            assert_eq!(nic.reserved.map(|r| r.done_ps), Some(LATE + ser));
            assert!(!nic.busy);
            run_to(&mut s, LATE + ser + 1);
            assert_eq!(s.perf.events_host_egress_done, 0);
            assert_eq!(s.flows[0].packets_sent(), 1);
        }

        /// A go-back-N NIC whose one flow with data is pacing-limited past
        /// the frame's end, with the wake for that deadline already armed:
        /// the completion would find nothing to send and arm nothing, so
        /// it is reserved, and the wake sends at the deadline.
        #[test]
        fn a_nic_with_its_wake_armed_before_the_deadline_reserves() {
            // Flow 0 (three packets) paces; flow 1 (one packet) starts
            // once flow 0's second frame is done and its wake is armed.
            let probe = nic_sim(TransportMode::GoBackN, Vec::new());
            let ser = data_ser(&probe);
            let flows = vec![
                FlowSpec::new(SimTime(LATE), 0, 1, 3_000),
                FlowSpec::new(SimTime(LATE + 2 * ser + 1), 0, 2, 1000),
            ];
            let mut s = nic_sim(TransportMode::GoBackN, flows);
            run_to(&mut s, LATE + 1);
            // Two CNPs quarter flow 0's rate: from its second packet on,
            // it may send one frame per four frame times.
            let wire = data_wire(&s);
            let tx = s.flows[0].tx.as_deref_mut().expect("sending");
            tx.dcqcn.on_cnp();
            tx.dcqcn.on_cnp();
            let wake = LATE + ser + tx.dcqcn.pacing_delay_ps(wire);
            let done = LATE + 3 * ser + 1;
            assert!(wake > done);
            run_to(&mut s, LATE + 2 * ser + 1);
            assert_eq!(s.hosts[0].wake_at, Some(wake), "armed by the second completion");
            assert_eq!(s.perf.events_host_egress_done, 2);
            run_to(&mut s, LATE + 2 * ser + 2);
            let nic = &s.hosts[0].nic;
            assert_eq!(nic.reserved.map(|r| r.done_ps), Some(done), "flow 1 sent");
            assert!(!nic.busy, "deadline {wake} > {done}, wake armed between");
            run_to(&mut s, wake + 1);
            assert_eq!(s.perf.events_host_egress_done, 2);
            assert_eq!(s.perf.completions_elided, 1, "passed before the wake sent");
            assert_eq!(s.flows[0].packets_sent(), 3);
        }

        /// A frame queued behind a reserved NIC completion — the ACK for
        /// data arriving at host 0 — schedules it under its key, and the
        /// ACK leaves at the reserved instant.
        #[test]
        fn an_ack_queued_behind_a_quiet_nic_schedules_its_completion() {
            let flows = vec![
                FlowSpec::new(SimTime(LATE), 0, 1, 1000),
                FlowSpec::new(SimTime(2 * LATE), 3, 0, 1000),
            ];
            let mut s = nic_sim(TransportMode::GoBackN, flows);
            let ser = data_ser(&s);
            let pkt = Packet::data(1, 0, 1000, 3, 0, 0);
            inject(&mut s, LATE + 10, Event::LinkArrive { node: Node::Host(0), port: 0, pkt });
            run_to(&mut s, LATE + 1);
            let r = s.hosts[0].nic.reserved.expect("reserved");
            run_to(&mut s, LATE + 11);
            let nic = &s.hosts[0].nic;
            assert!(nic.busy && nic.reserved.is_none(), "the queued ACK scheduled it");
            assert_eq!(nic.ctrl_q.len(), 1);
            let (at, key, ev) = s.q.pop_before(SimTime(LATE + ser + 1)).expect("scheduled");
            assert_eq!((at.as_ps(), key), (r.done_ps, r.key), "under the reserved key");
            s.cur_key = key;
            s.dispatch(ev);
            let nic = &s.hosts[0].nic;
            assert_eq!(nic.reserved.map(|r| r.done_ps), Some(LATE + ser + 12_800), "ACK at done");
            assert_eq!(s.perf.events_host_egress_done, 1);
        }

        /// A NAK before a reserved NIC completion rewinds the flow, which
        /// then has data again: the kick schedules the completion, and the
        /// retransmission leaves when it fires.
        #[test]
        fn a_nak_before_a_quiet_nic_completion_schedules_it() {
            let flows = vec![FlowSpec::new(SimTime(LATE), 0, 1, 1000)];
            let mut s = nic_sim(TransportMode::GoBackN, flows);
            let ser = data_ser(&s);
            let data = Packet::data(0, 0, data_wire(&s) as u32, 0, 1, 0);
            let nak = Packet::response(PacketKind::Nak, &data, 0, 64);
            // A control frame: the audit's books count data only.
            let at = SimTime(LATE + 10);
            s.sched(RANK_GLOBAL, at, Event::LinkArrive { node: Node::Host(0), port: 0, pkt: nak });
            run_to(&mut s, LATE + 1);
            assert!(s.hosts[0].nic.reserved.is_some());
            run_to(&mut s, LATE + 11);
            let nic = &s.hosts[0].nic;
            assert!(nic.busy && nic.reserved.is_none(), "the NAK's kick scheduled it");
            assert_eq!(s.flows[0].naks(), 1);
            run_to(&mut s, LATE + ser + 1);
            assert_eq!(s.perf.events_host_egress_done, 1);
            assert_eq!(s.flows[0].packets_sent(), 2, "resent at done");
        }

        /// Selective repeat keeps the live-flow rule: an IRN flow's NIC
        /// completion is scheduled whatever the flows hold.
        #[test]
        fn an_irn_nic_with_a_live_flow_schedules() {
            let flows = vec![FlowSpec::new(SimTime(LATE), 0, 1, 1000)];
            let mut s = nic_sim(TransportMode::SelectiveRepeat, flows);
            run_to(&mut s, LATE + 1);
            let nic = &s.hosts[0].nic;
            assert!(nic.busy && nic.reserved.is_none());
            assert_eq!(s.flows[0].packets_sent(), 1);
        }
    }
}
