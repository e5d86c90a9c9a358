//! PFC-warning state: the CNM message, the upstream warning table, and the
//! recent-contributor table used to relay CNMs hop-by-hop (§3.2.1,
//! "Sending PFC warning").

use serde::Serialize;

/// A congestion notification message carrying a PFC warning upstream.
///
/// The paper reuses the QCN CNM format, filling "the identification number
/// of the ingress port that is predicted to trigger PFC" into the QCN
/// field; switches relay it hop-by-hop toward traffic sources.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct Cnm {
    /// Switch at which PFC is predicted to trigger.
    pub origin_node: u32,
    /// The endangered ingress port of that switch.
    pub origin_ingress_port: u32,
    /// Remaining relay hops (TTL) — bounds propagation in larger fabrics.
    pub ttl: u8,
}

/// Warning state a source leaf keeps per (uplink=spine, destination leaf).
///
/// Two granularities, matching where the predicted PFC sits:
/// * congestion at the **destination leaf's** ingress from spine `s` only
///   endangers the path (s, that leaf) → *path warning*;
/// * congestion at **spine s's** ingress from this leaf endangers every
///   path through `s` from here → *uplink warning*.
#[derive(Debug, Clone)]
pub struct WarningTable {
    n_uplinks: usize,
    n_leaves: usize,
    /// warned-until timestamp per (uplink, dst_leaf); 0 = never warned.
    path_until: Vec<u64>,
    /// warned-until per uplink.
    uplink_until: Vec<u64>,
    pub warnings_recorded: u64,
}

impl WarningTable {
    pub fn new(n_uplinks: usize, n_leaves: usize) -> WarningTable {
        WarningTable {
            n_uplinks,
            n_leaves,
            path_until: vec![0; n_uplinks * n_leaves],
            uplink_until: vec![0; n_uplinks],
            warnings_recorded: 0,
        }
    }

    #[inline]
    fn idx(&self, uplink: usize, dst_leaf: usize) -> usize {
        debug_assert!(uplink < self.n_uplinks && dst_leaf < self.n_leaves);
        uplink * self.n_leaves + dst_leaf
    }

    /// Record/refresh a path-granularity warning.
    pub fn warn_path(&mut self, uplink: usize, dst_leaf: usize, until_ps: u64) {
        let i = self.idx(uplink, dst_leaf);
        if until_ps > self.path_until[i] {
            self.path_until[i] = until_ps;
        }
        self.warnings_recorded += 1;
    }

    /// Record/refresh an uplink-granularity warning.
    pub fn warn_uplink(&mut self, uplink: usize, until_ps: u64) {
        if until_ps > self.uplink_until[uplink] {
            self.uplink_until[uplink] = until_ps;
        }
        self.warnings_recorded += 1;
    }

    /// Is the path (uplink, dst_leaf) under an active warning at `now`?
    #[inline]
    pub fn is_warned(&self, uplink: usize, dst_leaf: usize, now_ps: u64) -> bool {
        self.uplink_until[uplink] > now_ps || self.path_until[self.idx(uplink, dst_leaf)] > now_ps
    }

    /// Number of currently-warned uplinks toward `dst_leaf`.
    pub fn warned_count(&self, dst_leaf: usize, now_ps: u64) -> usize {
        (0..self.n_uplinks)
            .filter(|&u| self.is_warned(u, dst_leaf, now_ps))
            .count()
    }
}

/// Recent-contributor tracking: which ingress ports recently forwarded
/// traffic to each egress port.
///
/// This stands in for the paper's "records the source MAC address of the
/// incoming packets in the flow table": when a CNM must travel upstream, it
/// is relayed out of the reverse links of exactly the ingress ports that
/// recently fed the endangered egress — not flooded fabric-wide.
#[derive(Debug, Clone)]
pub struct ContributorTable {
    n_ports: usize,
    window_ps: u64,
    /// last time ingress j forwarded to egress i: row-major [egress][ingress].
    last_seen: Vec<u64>,
}

impl ContributorTable {
    pub fn new(n_ports: usize, window_ps: u64) -> ContributorTable {
        assert!(window_ps > 0);
        ContributorTable {
            n_ports,
            window_ps,
            last_seen: vec![0; n_ports * n_ports],
        }
    }

    #[inline]
    pub fn record(&mut self, egress: usize, ingress: usize, now_ps: u64) {
        self.last_seen[egress * self.n_ports + ingress] = now_ps.max(1);
    }

    /// Ingress ports that fed `egress` within the aging window.
    pub fn contributors(&self, egress: usize, now_ps: u64) -> impl Iterator<Item = usize> + '_ {
        let row = &self.last_seen[egress * self.n_ports..(egress + 1) * self.n_ports];
        let window = self.window_ps;
        row.iter()
            .enumerate()
            .filter(move |(_, &t)| t != 0 && now_ps.saturating_sub(t) <= window)
            .map(|(i, _)| i)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn path_warning_expires() {
        let mut w = WarningTable::new(4, 3);
        w.warn_path(2, 1, 5_000);
        assert!(w.is_warned(2, 1, 4_999));
        assert!(!w.is_warned(2, 1, 5_000), "expiry is exclusive");
        assert!(!w.is_warned(2, 0, 1_000), "other dst unaffected");
        assert!(!w.is_warned(1, 1, 1_000), "other uplink unaffected");
    }

    #[test]
    fn uplink_warning_covers_every_destination() {
        let mut w = WarningTable::new(4, 3);
        w.warn_uplink(0, 9_000);
        for dst in 0..3 {
            assert!(w.is_warned(0, dst, 8_999));
        }
        assert!(!w.is_warned(1, 0, 0));
    }

    #[test]
    fn refresh_extends_not_shrinks() {
        let mut w = WarningTable::new(2, 2);
        w.warn_path(0, 0, 10_000);
        w.warn_path(0, 0, 6_000); // stale refresh must not shorten
        assert!(w.is_warned(0, 0, 9_999));
        w.warn_path(0, 0, 20_000);
        assert!(w.is_warned(0, 0, 19_999));
        assert_eq!(w.warnings_recorded, 3);
    }

    #[test]
    fn warned_count_combines_granularities() {
        let mut w = WarningTable::new(4, 2);
        w.warn_path(0, 1, 10_000);
        w.warn_uplink(3, 10_000);
        assert_eq!(w.warned_count(1, 5_000), 2);
        assert_eq!(w.warned_count(0, 5_000), 1); // only the uplink warning
        assert_eq!(w.warned_count(1, 20_000), 0);
    }

    #[test]
    fn contributors_age_out() {
        let mut c = ContributorTable::new(4, 1_000);
        c.record(2, 0, 500);
        c.record(2, 3, 1_200);
        let at_1300: Vec<usize> = c.contributors(2, 1_300).collect();
        assert_eq!(at_1300, vec![0, 3]);
        let at_1600: Vec<usize> = c.contributors(2, 1_600).collect();
        assert_eq!(at_1600, vec![3], "port 0 aged out");
        assert!(c.contributors(1, 1_300).next().is_none());
    }

    #[test]
    fn record_at_time_zero_still_counts() {
        let mut c = ContributorTable::new(2, 1_000);
        c.record(0, 1, 0);
        assert_eq!(c.contributors(0, 500).collect::<Vec<_>>(), vec![1]);
    }
}
