//! The fault driver: applies the fault timeline's entries, replicated on
//! every shard, as ordinary wheel events.

use super::{JEffect, Simulation};
use crate::fault::Fault;
use crate::topology::Node;

impl Simulation {
    /// Apply fault-timeline entry `i` (see [`crate::fault`]).
    ///
    /// Faults mutate link/NIC state and nothing else: no packet is dropped,
    /// no queue is cleared, so the audit ledger balances across every
    /// failure and recovery. The next LB decision reads the new link state
    /// and rate from the port.
    pub(super) fn on_fault(&mut self, i: u32) {
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
        if self.sched.shard_id() == 0 {
            self.jot(JEffect::Fault);
        }
    }

    /// Fail or restore the bidirectional `leaf <-> spine` link. Idempotent.
    /// Queued packets freeze on a downed port (the fault never drops); both
    /// directions are kicked on recovery so frozen queues resume draining.
    fn fault_set_link_down(&mut self, leaf: u32, spine: u32, down: bool) {
        let up_port = self.topo.leaf_uplink_port(spine) as usize;
        let lsw = &mut self.leaves[leaf as usize];
        lsw.egress[up_port].link_down = down;
        let ssw = &mut self.spines[spine as usize];
        ssw.egress[leaf as usize].link_down = down;
        if !down {
            // The state flip above is replicated everywhere; the transmit
            // kicks schedule real events, so only the owner issues them.
            if self.sched.owns(Node::Leaf(leaf)) {
                self.try_transmit(Node::Leaf(leaf), up_port as u16);
            }
            if self.sched.owns(Node::Spine(spine)) {
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
}
