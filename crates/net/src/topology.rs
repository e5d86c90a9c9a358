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
//! Events name a directed port by one 16-bit [`PortId`], its index in the
//! fabric's port table (host NICs first, then every leaf's ports, then
//! every spine's), and a node by its index in the node order (hosts, then
//! leaves, then spines). `TopoConfig::validate` keeps both within 16 bits.

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
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PortId(pub u16);

/// Static topology with O(1) peer lookup.
#[derive(Debug, Clone)]
pub struct Topology {
    pub cfg: TopoConfig,
    /// `(node, port)` of every [`PortId`], by id.
    ports: Vec<(Node, u16)>,
}

impl Topology {
    pub fn new(cfg: TopoConfig) -> Topology {
        cfg.validate().expect("invalid topology");
        let mut ports = Vec::with_capacity(cfg.n_ports() as usize);
        let mut t = Topology {
            cfg,
            ports: Vec::new(),
        };
        for i in 0..t.node_count() {
            let node = t.node_at(i as u16);
            ports.extend((0..t.n_ports(node) as u16).map(|p| (node, p)));
        }
        t.ports = ports;
        t
    }

    /// Hosts, leaves and spines.
    fn node_count(&self) -> u32 {
        self.n_hosts() + self.cfg.n_leaves + self.cfg.n_spines
    }

    /// `node`'s index in the node order: hosts, then leaves, then spines.
    #[inline]
    pub fn node_index(&self, node: Node) -> u16 {
        let (hosts, leaves) = (self.n_hosts(), self.cfg.n_leaves);
        (match node {
            Node::Host(h) => h,
            Node::Leaf(l) => hosts + l,
            Node::Spine(s) => hosts + leaves + s,
        }) as u16
    }

    /// Inverse of [`node_index`](Self::node_index).
    #[inline]
    pub fn node_at(&self, index: u16) -> Node {
        let (i, hosts, leaves) = (index as u32, self.n_hosts(), self.cfg.n_leaves);
        if i < hosts {
            Node::Host(i)
        } else if i < hosts + leaves {
            Node::Leaf(i - hosts)
        } else {
            Node::Spine(i - hosts - leaves)
        }
    }

    /// The id of `node`'s `port`.
    #[inline]
    pub fn port_id(&self, node: Node, port: u16) -> PortId {
        debug_assert!((port as usize) < self.n_ports(node), "{node:?}:{port}");
        let hosts = self.n_hosts();
        let leaf_ports = self.cfg.hosts_per_leaf + self.cfg.n_spines;
        let first = match node {
            Node::Host(h) => h,
            Node::Leaf(l) => hosts + l * leaf_ports,
            Node::Spine(s) => hosts + self.cfg.n_leaves * leaf_ports + s * self.cfg.n_leaves,
        };
        PortId((first + port as u32) as u16)
    }

    /// Inverse of [`port_id`](Self::port_id): one load from the table.
    #[inline]
    pub fn port_at(&self, id: PortId) -> (Node, u16) {
        self.ports[id.0 as usize]
    }

    /// Whether `id` is a host's NIC.
    #[inline]
    pub fn is_nic(&self, id: PortId) -> bool {
        (id.0 as u32) < self.n_hosts()
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
            for i in 0..t.node_count() as u16 {
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
        }
    }
}
