//! What the window driver (`crate::shard`) sees: window dispatch, the effect
//! journal and its fold, barrier status, the audit cut and the teardown.

use super::{PerfStats, Simulation, WireMsg};
#[cfg(feature = "audit")]
use crate::audit::AuditReport;
use crate::config::SimConfig;
use crate::monitor::FabricTimeSeries;
use crate::switch::Reserved;
use crate::topology::{Node, PortId};
use crate::trace::FlowTraces;
use rlb_core::DecisionReason;
use rlb_engine::{SimDuration, SimTime};
use rlb_metrics::{FabricCounters, FlowRecord, LogHistogram};

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
pub(super) enum JEffect {
    /// A PAUSE sent upstream of this ingress port.
    Pause(PortId),
    Resume,
    CnmGen(u64),
    CnmRelay,
    Recirc {
        flow: u32,
    },
    SwitchPkt,
    BufferDrop,
    EcnMark,
    PausedDwell(SimDuration),
    /// RLB's reason for one decision (`LeafState::decide`).
    Rlb(DecisionReason),
    Fault,
}

impl Simulation {
    /// Record an output-visible effect of the current event (see
    /// [`JEffect`] for why sharded runs defer these to the barrier fold).
    #[inline]
    pub(super) fn jot(&mut self, e: JEffect) {
        if self.sched.n_shards() > 1 {
            self.journal.push((self.sched.cursor(), e));
        } else {
            self.apply_effect(e);
        }
    }

    fn apply_effect(&mut self, e: JEffect) {
        match e {
            JEffect::Pause(port) => {
                self.counters.pause_frames += 1;
                *self.pfc_pauses_by_port.entry(port).or_insert(0) += 1;
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
            // A recirculation is counted by its own `Recirc`.
            JEffect::Rlb(reason) => match reason {
                DecisionReason::UnwarnedInitial => self.counters.forwards_unwarned += 1,
                DecisionReason::Rerouted => self.counters.reroutes += 1,
                DecisionReason::ForcedOut => self.counters.recirculation_budget_exhausted += 1,
                DecisionReason::RecirculatedGap | DecisionReason::RecirculatedAllWarned => {}
            },
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
        for (at, e) in journal.drain(..) {
            if limit.is_none_or(|lim| at <= lim) {
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
        let end = self.sched.window_end();
        let passed = self
            .reservations()
            .filter(|r| r.done_ps < end && limit.is_none_or(|lim| (r.done_ps, r.key) <= lim))
            .count();
        self.perf.completions_elided += passed as u64;
    }

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
        let mut dispatched = 0;
        while let Some((_t, _key, ev)) = self.sched.pop_before(end) {
            dispatched += 1;
            self.dispatch(ev);
            #[cfg(feature = "audit")]
            if self.cfg.audit_every_events > 0
                && (self.events + dispatched).is_multiple_of(self.cfg.audit_every_events)
            {
                let cut = self.audit_cut(false);
                // A lone replica holds every packet, so its own books must
                // balance; shards balance at the barrier (`shard::worker`).
                if self.sched.n_shards() == 1 {
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

    /// Hand this window's sends for shard `dst` over; see `Sched`.
    pub(crate) fn swap_outbox(&mut self, dst: u16, mailbox: &mut Vec<WireMsg>) -> usize {
        self.sched.swap_outbox(dst, mailbox)
    }

    /// Drain `mailbox` into the event queue; see `Sched`.
    pub(crate) fn deliver(&mut self, mailbox: &mut Vec<WireMsg>) {
        self.sched.deliver(mailbox, &mut self.arena);
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
            .filter(|&t| t.as_ps() >= self.sched.window_end());
        ShardStatus {
            next: self.sched.peek_time().into_iter().chain(reserved).min(),
            now: self.now(),
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
            self.sched.shard_of(Node::Host(self.flows[i].spec.src_host)),
            self.sched.shard_of(Node::Host(self.flows[i].spec.dst_host)),
        )
    }

    /// Group tag per flow (incast harness). Every replica holds them all,
    /// so `shard::drive_rounds` takes them from one.
    pub(crate) fn groups(&self) -> Vec<u64> {
        self.flows.iter().map(|f| f.spec.group).collect()
    }

    /// Tear one shard replica down into the pieces the driver merges.
    pub(crate) fn into_parts(mut self) -> ShardParts {
        self.counters.paused_port_time_ps = self.paused_port_time.as_ps();
        // In place: each record takes its flow's slot in the same buffer,
        // so the run never holds a flow as state and as record at once.
        let records = std::mem::take(&mut self.flows)
            .into_iter()
            .enumerate()
            .map(|(i, f)| f.into_record(i as u64))
            .collect();
        self.perf.absorb(&self.control.perf);
        let (queue_high_water, queue_capacity) = self.sched.storage();
        // The report names a switch port `((is_spine, index), port)`: the
        // one place the pause counts leave `PortId`s. A switch port's id
        // sorts as that key does, so the map iterates in the same order.
        let pfc_pauses_by_port = self.pfc_pauses_by_port.iter().map(|(&id, &n)| {
            let (node, port) = self.topo.port_at(id);
            let (Node::Leaf(i) | Node::Spine(i) | Node::Host(i)) = node;
            (((matches!(node, Node::Spine(_)), i), port), n)
        });
        ShardParts {
            records,
            counters: self.counters,
            ood_histogram: self.ood_histogram,
            timeseries: self.timeseries,
            traces: self.traces,
            pfc_pauses_by_port: pfc_pauses_by_port.collect(),
            events: self.events,
            perf: PerfStats {
                arena_high_water: self.arena.high_water() as u64,
                arena_capacity: self.arena.capacity() as u64,
                queue_high_water: queue_high_water as u64,
                queue_capacity: queue_capacity as u64,
                ..self.perf
            },
        }
    }

    /// The audit sweep over this replica, run between events so every
    /// structure is quiescent: buffer occupancy (and PFC pairing when
    /// `drain`) for its switches, and its itemised side of the
    /// packet-conservation and arena-handle ledgers. The caller owns the
    /// balance: a lone replica asserts its own cut, shards sum theirs at
    /// the barrier (a shard alone sees only its side of each flow).
    #[cfg(feature = "audit")]
    pub(crate) fn audit_cut(&mut self, drain: bool) -> AuditReport {
        use super::Event;
        // Releases not yet due stay charged, as their frames still are.
        let cursor = self.sched.cursor();
        for sw in &mut self.switches {
            sw.settle(cursor);
        }
        let mut cut = self.auditor.check(
            self.now().as_ps(),
            &self.topo,
            self.topo.switches().zip(&self.switches),
            &self.arena,
            drain,
        );
        // Handle conservation: every live arena slot is referenced by
        // exactly one queue or pending event of this replica, and vice
        // versa; the cut carries both counts for the caller's balance. A
        // frame in an outbox left the arena when it was sent.
        cut.handles = self
            .ports()
            .map(|ep| (ep.data_q.len() + ep.ctrl_q.len()) as u64)
            .sum();
        // Data frames on a wire are counted by reading the arena.
        for ev in self.sched.events() {
            match ev {
                Event::LinkArrive { pkt, .. } => {
                    cut.handles += 1;
                    cut.in_flight_events += !self.arena.is_control(*pkt) as u64;
                }
                Event::Recirculate { .. } => {
                    cut.handles += 1;
                    cut.recirculating += 1;
                }
                _ => {}
            }
        }
        cut.arena_live = self.arena.len() as u64;
        cut
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
/// the merged [`RunResult`](super::RunResult).
pub(crate) struct ShardParts {
    pub records: Vec<FlowRecord>,
    pub counters: FabricCounters,
    pub ood_histogram: LogHistogram,
    pub timeseries: FabricTimeSeries,
    pub traces: FlowTraces,
    pub pfc_pauses_by_port: std::collections::BTreeMap<((bool, u32), u16), u64>,
    pub events: u64,
    pub perf: PerfStats,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::{MotivationConfig, Scenario};

    /// What `into_parts` made of each flow before records were made in
    /// place: the resident record's accessors, field by field.
    fn field_by_field(s: &Simulation) -> Vec<FlowRecord> {
        s.flows
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
                recirculations: f.recirculations as u64,
            })
            .collect()
    }

    /// The teardown holds each flow once: the records are made in the
    /// flows' own buffer, and each equals the field-by-field mapping. The
    /// run is cut mid-way through a pause-heavy DRILL+RLB dumbbell, so
    /// some flows still hold their transport halves and the records see
    /// OOO arrivals, NAKs and recirculations.
    #[test]
    fn records_are_made_in_the_flows_buffer() {
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
        let sc = Scenario::motivation(&mc, rlb_lb::Scheme::Drill, Some(Default::default()));
        let mut s = Simulation::new(sc.cfg, sc.flows);
        s.dispatch_window(SimTime::from_us(1_500));
        let want = field_by_field(&s);
        let live = s.flows.iter().filter(|f| f.tx.is_some() || f.rx.is_some());
        assert!(live.count() > 0, "some flows are mid-transfer");
        let sum = |f: fn(&FlowRecord) -> u64| want.iter().map(f).sum::<u64>();
        assert!(sum(|r| r.ooo_packets) > 0, "OOO arrivals");
        assert!(sum(|r| r.naks) > 0, "NAKs");
        assert!(sum(|r| r.recirculations) > 0, "recirculations");

        let buffer = s.flows.as_ptr() as usize;
        let parts = s.into_parts();
        assert_eq!(
            parts.records.as_ptr() as usize,
            buffer,
            "records reuse the flows' buffer"
        );
        assert_eq!(format!("{:?}", parts.records), format!("{want:?}"));
    }
}
