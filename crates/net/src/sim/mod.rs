//! The simulation: event dispatch wiring hosts, switches, transport, load
//! balancing and RLB together.
//!
//! One `Simulation` owns the whole fabric. Every interaction is an explicit
//! event with real latency — PFC PAUSE frames take a propagation delay to
//! arrive, CNM warnings serialize onto reverse links hop-by-hop, packets
//! occupy shared buffer from ingress admission to egress completion.
//!
//! The handlers are split by plane, one `impl Simulation` block each:
//! `hosts` (flow starts, the NIC's data source, receive path, transport
//! timers), `fabric` (switch ingress, routing, PFC, and the one transmitter
//! switch ports and NICs share), `control` (the source leaf's LB decision
//! with RLB's Algorithm 1 on a path view read from the fabric for each
//! packet, the predictor ticks of §3.2.1 and the CNM warnings of §3.2.2),
//! `faults` (the fault timeline) and `window` (what the run driver sees:
//! window dispatch, the effect journal, the audit cut).
//!
//! Two seams keep the planes apart. `Sched` is the only way into the event
//! queue: callers name the scheduling [`Node`] (or a construction index,
//! or the global clock), and it derives the canonical key and routes the
//! event to this shard's queue or another shard's outbox; ranks, counters
//! and the shard map stay inside it. `Control` owns every leaf's LB state
//! and estimators; the host plane reaches it with one typed call per ACK
//! and per completed flow, the fabric plane with one decision call per
//! packet.
//!
//! A run split over N shards is N such replicas, each built whole and each
//! dispatching only the entities of its column — a band of leaves with
//! their hosts and a band of spines — under the window driver of
//! `crate::shard`. One shard is the same code with every entity in column 0.

mod control;
mod fabric;
mod faults;
mod hosts;
mod sched;
mod window;

use crate::config::SimConfig;
use crate::host::{FlowState, FlowTransport, Host};
use crate::monitor::{FabricSample, FabricTimeSeries};
use crate::packet::Packet;
use crate::switch::{EgressPort, Release, Switch};
use crate::topology::{Node, PortId, Topology};
use crate::trace::FlowTraces;
use control::Control;
use rlb_core::{conservative_qth, PfcPredictor};
use rlb_engine::{substream, PacketArena, PacketHandle, SimDuration, SimTime};
use rlb_metrics::{record, FabricCounters, FctSummary, FlowRecord, LogHistogram};
use rlb_workloads::FlowSpec;
use sched::Sched;
use window::JEffect;

pub(crate) use sched::WireMsg;
pub(crate) use window::{all_flows_done, ShardParts, ShardStatus};

/// Simulation events.
///
/// Deliberately not `Clone`: every event is dispatched exactly once
/// (`cargo xtask lint`'s hot-clone rule guards the dispatch arms). An
/// event is 8 bytes, so a wheel entry (time, `u128` key, event) is 32: a
/// port is its 16-bit [`PortId`], a switch its 16-bit node index
/// (`Topology::node_index`), and the packet a `LinkArrive` or
/// `Recirculate` carries stays in the replica's packet arena behind its
/// 4-byte handle; a frame crossing to another shard leaves the arena for
/// the wire message (`Sched::send_frame`).
#[derive(Debug)]
pub(crate) enum Event {
    FlowStart(u32),
    /// NIC pacing wake-up.
    HostWake(u32),
    /// A frame finished propagating and arrives at `port`.
    LinkArrive {
        port: PortId,
        pkt: PacketHandle,
    },
    /// A switch egress or a host NIC finished serializing `port`;
    /// `release` = (ingress port, frame bytes) to free from the shared
    /// buffer for a switch's data frames, `None` otherwise.
    EgressDone {
        port: PortId,
        release: Option<Release>,
    },
    /// PFC PAUSE (true) / RESUME (false) takes effect at `port`.
    PauseFrame {
        port: PortId,
        pause: bool,
    },
    /// RLB Δt sampling tick: one event per switch (by node index) samples
    /// **all** of its active ingress ports (identical sampling times ⇒
    /// identical predictions), instead of one event per (node, port).
    PredictorTick(u16),
    /// A recirculated packet re-enters the routing pipeline of switch
    /// `node` (a node index).
    Recirculate {
        node: u16,
        pkt: PacketHandle,
    },
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
        /// The five `snapshot_*` fields are kept for the report's schema;
        /// every decision reads the fabric directly, so this one reads 0.
        Sum snapshot_reuses: u64,
        /// Reads 0 (see `snapshot_reuses`).
        Sum snapshot_refreshes: u64,
        /// Decisions that built their path view: every one, so this equals
        /// `decisions`.
        Sum snapshot_rebuilds: u64,
        /// Reads 0 (see `snapshot_reuses`).
        Sum snapshot_dirty_queue_spines: u64,
        /// Reads 0 (see `snapshot_reuses`).
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
    /// The scheduling handle: clock, event queue, canonical keys, outboxes.
    sched: Sched,
    leaves: Vec<Switch>,
    spines: Vec<Switch>,
    hosts: Vec<Host>,
    /// Every leaf's load-balancing and RLB state.
    control: Control,
    /// Every packet of this replica, from its creation (a NIC's data, a
    /// receiver's response, a switch's CNM) or its delivery from another
    /// shard until a host consumes it or a switch drops it, lives in this
    /// generational arena; queues and events hold 4-byte `PacketHandle`s.
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
    /// This replica's event and completion counts; the control plane's and
    /// the storage peaks join in `into_parts`, the driver owns the rest.
    perf: PerfStats,
    /// Typed accumulator for PFC pause dwell time, folded into
    /// `counters.paused_port_time_ps` once at end of run.
    paused_port_time: SimDuration,
    /// `(time, key)` of the latest flow completion seen on this shard.
    last_completion: Option<(u64, u128)>,
    /// Journaled output effects under their event's cursor (sharded mode;
    /// folded at each barrier).
    journal: Vec<((u64, u128), JEffect)>,
    timeseries: FabricTimeSeries,
    traces: FlowTraces,
    pfc_pauses_by_port: std::collections::BTreeMap<((bool, u32), u16), u64>,
    #[cfg(feature = "audit")]
    auditor: crate::audit::FabricAuditor,
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
        let (n_leaves, n_spines) = (cfg.topo.n_leaves, cfg.topo.n_spines);
        let (hpl, d) = (cfg.topo.hosts_per_leaf, cfg.topo.link_delay_ps);

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

        // Switch `node`, its RNG substream `(tag, i)`.
        let switch = |node: Node, tag: &[u8], i: u32, n_ports: usize| {
            let rates = (0..n_ports as u16)
                .map(|p| topo.port_rate_bps(node, p))
                .collect();
            let mut sw = Switch::new(
                n_ports,
                cfg.switch.clone(),
                rates,
                contributor_window,
                substream(cfg.seed, tag, i as u64),
            );
            if let Some(rcfg) = &cfg.rlb {
                sw.predictors = (0..n_ports)
                    .map(|_| Self::make_predictor(&cfg, rcfg, d))
                    .collect();
            }
            sw
        };
        let leaves: Vec<Switch> = (0..n_leaves)
            .map(|l| switch(Node::Leaf(l), b"switch-leaf", l, (hpl + n_spines) as usize))
            .collect();
        let spines: Vec<Switch> = (0..n_spines)
            .map(|s| switch(Node::Spine(s), b"switch-spine", s, n_leaves as usize))
            .collect();

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

        let mut sched = Sched::new(&cfg.topo, shard_id, n_shards);
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
            if sched.owns(Node::Host(spec.src_host)) {
                starts.push(i as u32);
            }
            flows.push(FlowState::new(spec, cfg.transport.mtu_bytes));
        }
        starts.sort_unstable_by_key(|&f| std::cmp::Reverse((flows[f as usize].spec.start, f)));
        let n_flows = flows.len() as u64;

        if let Some(&f) = starts.last() {
            Self::arm_start(&mut sched, &flows, f);
        }

        // The fault timeline rides the same wheel as everything else: one
        // event per entry, fired in deterministic (time, key) order, and
        // replicated on every shard (faults mutate fabric state that any
        // shard may read — link and NIC rates).
        for (i, tf) in cfg.faults.iter().enumerate() {
            sched.schedule_construct(tf.at, n_flows + i as u64, Event::Fault(i as u32));
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
            let alpha_at = t0 + SimDuration(t.dcqcn.alpha_timer_ps);
            sched.schedule_construct(alpha_at, base, Event::AlphaTick);
            let increase_at = t0 + SimDuration(t.dcqcn.increase_timer_ps);
            sched.schedule_construct(increase_at, base + 1, Event::IncreaseTick);
        }

        let mut sim = Simulation {
            topo,
            sched,
            leaves,
            spines,
            hosts,
            control: Control::new(&cfg, base_rtt_ns),
            arena: PacketArena::new(),
            flows,
            transport,
            starts,
            counters: FabricCounters::default(),
            ood_histogram: LogHistogram::new(),
            completed: 0,
            events: 0,
            perf: PerfStats::default(),
            paused_port_time: SimDuration(0),
            last_completion: None,
            journal: Vec::new(),
            timeseries: FabricTimeSeries::default(),
            traces: FlowTraces::new(&cfg.trace_flows),
            pfc_pauses_by_port: std::collections::BTreeMap::new(),
            #[cfg(feature = "audit")]
            auditor: Default::default(),
            cfg,
        };
        // Monitoring pins the run to one shard (`shard::shard_count`), so
        // the sampler's first tick is armed exactly once.
        if let Some(m) = &sim.cfg.monitor {
            let at = SimTime(m.interval.as_ps());
            sim.sched.schedule_global(at, Event::MonitorTick);
        }
        sim
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
        self.sched.now()
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
    /// paths that queue or dequeue handles.
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

    /// Every egress port of the fabric, host NICs included.
    fn ports(&self) -> impl Iterator<Item = &EgressPort> + '_ {
        let switches = self.leaves.iter().chain(&self.spines);
        let nics = self.hosts.iter().map(|h| &h.nic);
        switches.flat_map(|sw| &sw.egress).chain(nics)
    }

    /// Run to completion: stops when all flows finished, the event queue
    /// drains, or the hard-stop horizon passes. A lone replica is the
    /// 1-shard instance of the bounded-window driver (`crate::shard`): one
    /// window spanning the whole horizon, dispatched on the caller's thread.
    pub fn run(self) -> RunResult {
        crate::shard::drive(vec![self])
    }

    fn dispatch(&mut self, ev: Event) {
        let n = &mut self.perf;
        *match &ev {
            Event::FlowStart(_) => &mut n.events_flow_start,
            Event::HostWake(_) => &mut n.events_host_wake,
            Event::LinkArrive { .. } => &mut n.events_link_arrive,
            Event::EgressDone { port, .. } if self.topo.is_nic(*port) => {
                &mut n.events_host_egress_done
            }
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
            Event::LinkArrive { port, pkt } => match self.topo.port_at(port) {
                (Node::Host(h), _) => self.on_host_rx(h, pkt),
                (node, port) => self.switch_rx(node, port, pkt),
            },
            Event::EgressDone { port, release } => {
                let (node, port) = self.topo.port_at(port);
                self.on_egress_done(node, port, release)
            }
            Event::PauseFrame { port, pause } => {
                let (node, port) = self.topo.port_at(port);
                self.on_pause_frame(node, port, pause)
            }
            Event::PredictorTick(node) => self.on_predictor_tick(self.topo.node_at(node)),
            Event::Recirculate { node, pkt } => self.on_recirculate(self.topo.node_at(node), pkt),
            Event::AlphaTick => self.on_alpha_tick(),
            Event::IncreaseTick => self.on_increase_tick(),
            Event::RtoCheck(f) => self.on_rto_check(f),
            Event::MonitorTick => self.on_monitor_tick(),
            Event::Fault(i) => self.on_fault(i),
        }
    }

    fn on_monitor_tick(&mut self) {
        let now = self.now();
        let cursor = self.sched.cursor();
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
            self.sched.schedule_global(at, Event::MonitorTick);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Packets ride in events as handles and ports as 16-bit ids, so an
    /// event fits the 8 bytes that make a wheel entry 32 (`rlb_engine`'s
    /// wheel pins that size).
    #[test]
    fn an_event_is_at_most_8_bytes() {
        assert!(
            std::mem::size_of::<Event>() <= 8,
            "{}",
            std::mem::size_of::<Event>()
        );
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
}
