//! Leaf–spine topology: node addressing, port maps and peer lookup.
//!
//! ```text
//!        spine 0   spine 1  ...  spine S-1
//!        /  |  \   /  |  \
//!    leaf 0   leaf 1  ...  leaf L-1
//!     / | \    / | \
//!   hosts     hosts
//! ```
//!
//! Port conventions:
//! * **Leaf l**: ports `0..H` face its hosts (`host = l·H + p`), ports
//!   `H..H+S` are uplinks (`port H+s` ↔ spine `s`).
//! * **Spine s**: port `l` ↔ leaf `l`.
//! * **Host h**: a single port 0 ↔ its leaf.
//!
//! This module is the one place that numbers the fabric. A node's index
//! runs over hosts, then leaves, then spines ([`Numbering`]); a directed
//! port's 16-bit [`PortId`] numbers the ports in the same node order.
//! Events name ports and switches by them, the scheduler ranks an entity
//! `2 + node index`, the simulation keeps its switches in node order, a
//! CNM names its origin ingress by `PortId`, and PAUSEs are counted and
//! audited by it. `TopoConfig::validate` keeps them all within 16 bits.

use crate::config::TopoConfig;
use serde::Serialize;

/// A node in the fabric. Encoded compactly for event payloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize)]
pub enum Node {
    Host(u32),
    Leaf(u32),
    Spine(u32),
}

/// One directed port of the fabric: its index in the port table. Host
/// `h`'s NIC is `PortId(h)`; leaf `l`'s port `p` and spine `s`'s port `p`
/// follow, in that order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PortId(pub u16);

/// The node order — hosts, then leaves, then spines — as a `Copy` value
/// ([`Topology::numbering`]): an index is one add to a cached offset.
#[derive(Debug, Clone, Copy)]
pub struct Numbering {
    /// Index of leaf 0 (the host count), of spine 0, and nodes in all.
    leaf0: u32,
    spine0: u32,
    count: u32,
}

impl Numbering {
    #[inline]
    fn index(self, node: Node) -> u32 {
        match node {
            Node::Host(h) => h,
            Node::Leaf(l) => self.leaf0 + l,
            Node::Spine(s) => self.spine0 + s,
        }
    }

    /// `node`'s index in the node order.
    #[inline]
    pub fn node_index(self, node: Node) -> u16 {
        self.index(node) as u16
    }

    /// Inverse of [`node_index`](Self::node_index).
    #[inline]
    pub fn node_at(self, index: u16) -> Node {
        let i = index as u32;
        if i < self.leaf0 {
            Node::Host(i)
        } else if i < self.spine0 {
            Node::Leaf(i - self.leaf0)
        } else {
            Node::Spine(i - self.spine0)
        }
    }

    /// Hosts, leaves and spines.
    #[inline]
    pub fn node_count(self) -> u32 {
        self.count
    }
}

/// Static topology with O(1) peer lookup.
#[derive(Debug, Clone)]
pub struct Topology {
    pub cfg: TopoConfig,
    /// The node order, for holders that keep a copy.
    pub numbering: Numbering,
    /// The [`PortId`] of every node's port 0, by node index.
    first_port: Vec<u16>,
    /// `(node, port)` of every [`PortId`], by id.
    ports: Vec<(Node, u16)>,
}

impl Topology {
    pub fn new(cfg: TopoConfig) -> Topology {
        cfg.validate().expect("invalid topology");
        let (leaf0, spine0) = (cfg.n_hosts(), cfg.n_hosts() + cfg.n_leaves);
        let count = spine0 + cfg.n_spines;
        let mut t = Topology {
            numbering: Numbering {
                leaf0,
                spine0,
                count,
            },
            first_port: Vec::with_capacity(count as usize),
            ports: Vec::with_capacity(cfg.n_ports() as usize),
            cfg,
        };
        for i in 0..count {
            let node = t.node_at(i as u16);
            t.first_port.push(t.ports.len() as u16);
            let ports = (0..t.n_ports(node) as u16).map(|p| (node, p));
            t.ports.extend(ports);
        }
        t
    }

    /// `node`'s index in the node order: hosts, then leaves, then spines.
    #[inline]
    pub fn node_index(&self, node: Node) -> u16 {
        self.numbering.node_index(node)
    }

    /// Inverse of [`node_index`](Self::node_index).
    #[inline]
    pub fn node_at(&self, index: u16) -> Node {
        self.numbering.node_at(index)
    }

    /// Every switch in node order: the leaves, then the spines.
    pub fn switches(&self) -> impl Iterator<Item = Node> + '_ {
        let n = self.numbering;
        (n.leaf0..n.count).map(move |i| n.node_at(i as u16))
    }

    /// A switch's place in [`switches`](Self::switches).
    #[inline]
    pub fn switch_index(&self, node: Node) -> usize {
        debug_assert!(!matches!(node, Node::Host(_)), "{node:?} is not a switch");
        (self.numbering.index(node) - self.numbering.leaf0) as usize
    }

    /// The id of `node`'s `port`.
    #[inline]
    pub fn port_id(&self, node: Node, port: u16) -> PortId {
        debug_assert!((port as usize) < self.n_ports(node), "{node:?}:{port}");
        PortId(self.first_port[self.node_index(node) as usize] + port)
    }

    /// Inverse of [`port_id`](Self::port_id): one load from the table.
    #[inline]
    pub fn port_at(&self, id: PortId) -> (Node, u16) {
        self.ports[id.0 as usize]
    }

    /// Whether `id` is a host's NIC.
    #[inline]
    pub fn is_nic(&self, id: PortId) -> bool {
        (id.0 as u32) < self.numbering.leaf0
    }

    #[inline]
    pub fn n_hosts(&self) -> u32 {
        self.cfg.n_hosts()
    }

    #[inline]
    pub fn leaf_of_host(&self, host: u32) -> u32 {
        host / self.cfg.hosts_per_leaf
    }

    /// The leaf port its host is attached to.
    #[inline]
    pub fn leaf_port_of_host(&self, host: u32) -> u16 {
        (host % self.cfg.hosts_per_leaf) as u16
    }

    /// Leaf uplink port for spine `s`.
    #[inline]
    pub fn leaf_uplink_port(&self, spine: u32) -> u16 {
        (self.cfg.hosts_per_leaf + spine) as u16
    }

    /// Inverse of `leaf_uplink_port`; `None` for host-facing ports.
    #[inline]
    pub fn spine_of_leaf_port(&self, port: u16) -> Option<u32> {
        let p = port as u32;
        (p >= self.cfg.hosts_per_leaf).then(|| p - self.cfg.hosts_per_leaf)
    }

    #[inline]
    pub fn n_ports(&self, node: Node) -> usize {
        match node {
            Node::Host(_) => 1,
            Node::Leaf(_) => (self.cfg.hosts_per_leaf + self.cfg.n_spines) as usize,
            Node::Spine(_) => self.cfg.n_leaves as usize,
        }
    }

    /// The other end of (node, port): (peer node, peer port).
    pub fn peer(&self, node: Node, port: u16) -> (Node, u16) {
        match node {
            Node::Host(h) => (Node::Leaf(self.leaf_of_host(h)), self.leaf_port_of_host(h)),
            Node::Leaf(l) => {
                if let Some(s) = self.spine_of_leaf_port(port) {
                    (Node::Spine(s), l as u16)
                } else {
                    (Node::Host(l * self.cfg.hosts_per_leaf + port as u32), 0)
                }
            }
            Node::Spine(s) => (Node::Leaf(port as u32), self.leaf_uplink_port(s)),
        }
    }

    /// Rate of the directed channel leaving (node, port), bits/sec.
    pub fn port_rate_bps(&self, node: Node, port: u16) -> u64 {
        match node {
            Node::Host(_) => self.cfg.host_link_rate_bps,
            Node::Leaf(l) => match self.spine_of_leaf_port(port) {
                Some(s) => self.cfg.uplink_rate_bps(l, s),
                None => self.cfg.host_link_rate_bps,
            },
            Node::Spine(s) => self.cfg.uplink_rate_bps(port as u32, s),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn topo() -> Topology {
        Topology::new(TopoConfig {
            n_leaves: 3,
            n_spines: 4,
            hosts_per_leaf: 2,
            ..TopoConfig::default()
        })
    }

    #[test]
    fn host_to_leaf_mapping() {
        let t = topo();
        assert_eq!(t.leaf_of_host(0), 0);
        assert_eq!(t.leaf_of_host(1), 0);
        assert_eq!(t.leaf_of_host(2), 1);
        assert_eq!(t.leaf_of_host(5), 2);
        assert_eq!(t.leaf_port_of_host(5), 1);
    }

    #[test]
    fn peer_is_symmetric_everywhere() {
        let t = topo();
        let mut nodes = Vec::new();
        for h in 0..t.n_hosts() {
            nodes.push(Node::Host(h));
        }
        for l in 0..3 {
            nodes.push(Node::Leaf(l));
        }
        for s in 0..4 {
            nodes.push(Node::Spine(s));
        }
        for node in nodes {
            for port in 0..t.n_ports(node) as u16 {
                let (pn, pp) = t.peer(node, port);
                let (back_n, back_p) = t.peer(pn, pp);
                assert_eq!(
                    (back_n, back_p),
                    (node, port),
                    "asymmetric peer at {node:?}:{port}"
                );
            }
        }
    }

    #[test]
    fn uplink_port_round_trip() {
        let t = topo();
        for s in 0..4 {
            let p = t.leaf_uplink_port(s);
            assert_eq!(t.spine_of_leaf_port(p), Some(s));
        }
        assert_eq!(t.spine_of_leaf_port(0), None);
        assert_eq!(t.spine_of_leaf_port(1), None);
    }

    #[test]
    fn port_counts() {
        let t = topo();
        assert_eq!(t.n_ports(Node::Host(0)), 1);
        assert_eq!(t.n_ports(Node::Leaf(0)), 6);
        assert_eq!(t.n_ports(Node::Spine(0)), 3);
    }

    #[test]
    fn degraded_link_rates_visible_from_both_ends() {
        let mut cfg = TopoConfig {
            n_leaves: 3,
            n_spines: 4,
            hosts_per_leaf: 2,
            ..TopoConfig::default()
        };
        cfg.degraded_links.push((1, 2));
        let t = Topology::new(cfg);
        assert_eq!(
            t.port_rate_bps(Node::Leaf(1), t.leaf_uplink_port(2)),
            10_000_000_000
        );
        assert_eq!(t.port_rate_bps(Node::Spine(2), 1), 10_000_000_000);
        assert_eq!(
            t.port_rate_bps(Node::Leaf(1), t.leaf_uplink_port(1)),
            40_000_000_000
        );
        assert_eq!(t.port_rate_bps(Node::Host(0), 0), 40_000_000_000);
    }

    proptest! {
        /// Over random fabric shapes, `PortId` ↔ `(node, port)` and the node
        /// index round-trip, and the ids number every port once, in table
        /// order.
        #[test]
        fn port_ids_round_trip(leaves in 2u32..20, spines in 1u32..20, hpl in 1u32..40) {
            let t = Topology::new(TopoConfig {
                n_leaves: leaves,
                n_spines: spines,
                hosts_per_leaf: hpl,
                ..TopoConfig::default()
            });
            let mut next = 0u16;
            for i in 0..t.numbering.node_count() as u16 {
                let node = t.node_at(i);
                prop_assert_eq!(t.node_index(node), i);
                for port in 0..t.n_ports(node) as u16 {
                    let id = t.port_id(node, port);
                    prop_assert_eq!(id, PortId(next));
                    prop_assert_eq!(t.port_at(id), (node, port));
                    prop_assert_eq!(t.is_nic(id), matches!(node, Node::Host(_)));
                    next += 1;
                }
            }
            prop_assert_eq!(next as usize, t.ports.len());
            prop_assert_eq!(next as u64, t.cfg.n_ports());
            let switches: Vec<Node> = t.switches().collect();
            prop_assert_eq!(switches.len() as u32, leaves + spines);
            for (i, &node) in switches.iter().enumerate() {
                prop_assert_eq!(t.switch_index(node), i);
            }
        }

        /// `RunResult::pfc_pauses_by_port` names a switch port
        /// `((is_spine, index), port)`; sorting the switch ports by that key
        /// and by `PortId` gives one order, so the map built from ids at
        /// the end of a run iterates as it did when ports were counted by
        /// that key.
        #[test]
        fn switch_port_ids_sort_as_the_public_pause_key(
            leaves in 2u32..20,
            spines in 1u32..20,
            hpl in 1u32..40,
        ) {
            let t = Topology::new(TopoConfig {
                n_leaves: leaves,
                n_spines: spines,
                hosts_per_leaf: hpl,
                ..TopoConfig::default()
            });
            let key = |id: PortId| match t.port_at(id) {
                (Node::Leaf(l), p) => ((false, l), p),
                (Node::Spine(s), p) => ((true, s), p),
                (Node::Host(_), _) => unreachable!("a NIC is not a switch port"),
            };
            // Every switch port, in id order.
            let by_id: Vec<PortId> = (t.n_hosts()..t.cfg.n_ports() as u32)
                .map(|i| PortId(i as u16))
                .collect();
            let mut by_key = by_id.clone();
            by_key.sort_by_key(|&id| key(id));
            prop_assert_eq!(by_id, by_key);
        }
    }
}
