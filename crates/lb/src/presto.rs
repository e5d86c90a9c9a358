//! Presto (He et al., SIGCOMM 2015): the edge slices each flow into
//! fixed-size *flowcells* (64 KB) and assigns consecutive cells to paths
//! round-robin.
//!
//! We implement the deterministic shadow-MAC flavour: flow `f`'s cell `k`
//! always maps to path `(base(f) + k) mod n`, where `base(f)` is chosen at
//! flow start. Determinism matters in a go-back-N world — a retransmitted
//! PSN re-enters its original cell and takes the same path, just as a real
//! Presto edge would re-emit it with the same shadow MAC.
//!
//! Note: Presto's receiver-side flowcell reassembly buffer (a TCP/GRO
//! feature) does not exist in RoCE NICs (§2.1.2 of the RLB paper: only
//! go-back-N fits in NIC memory), so it is deliberately not modelled.

use crate::api::{Ctx, LoadBalancer, PathIdx};
use crate::ecmp::hash64;
use rlb_engine::FlowTable;

/// Default flowcell size from the Presto paper.
pub const FLOWCELL_BYTES: u64 = 64 * 1024;

#[derive(Debug)]
pub struct Presto {
    cell_bytes: u64,
    mtu_bytes: u64,
    /// Flow → round-robin base path offset, assigned on first packet.
    base: FlowTable<u64>,
    /// Global round-robin cursor seeding new flows' bases, per Presto's
    /// cycle-through-spines behaviour.
    cursor: u64,
}

impl Presto {
    pub fn new(mtu_bytes: u64) -> Presto {
        Presto::with_cell_size(mtu_bytes, FLOWCELL_BYTES)
    }

    pub fn with_cell_size(mtu_bytes: u64, cell_bytes: u64) -> Presto {
        assert!(mtu_bytes > 0 && cell_bytes >= mtu_bytes);
        Presto {
            cell_bytes,
            mtu_bytes,
            base: FlowTable::new(),
            cursor: 0,
        }
    }

    /// Which flowcell a PSN falls into.
    #[inline]
    fn cell_of(&self, seq: u32) -> u64 {
        (seq as u64 * self.mtu_bytes) / self.cell_bytes
    }
}

impl LoadBalancer for Presto {
    fn name(&self) -> &'static str {
        "Presto"
    }

    fn select(&mut self, ctx: &Ctx<'_>) -> PathIdx {
        let n = ctx.paths.len() as u64;
        let cursor = &mut self.cursor;
        let base = *self.base.get_or_insert_with(ctx.flow_id, || {
            let b = *cursor ^ (hash64(ctx.flow_id) % n);
            *cursor = (*cursor + 1) % n;
            b % n
        });
        ((base + self.cell_of(ctx.seq)) % n) as usize
    }

    fn on_flow_complete(&mut self, flow_id: u64) {
        self.base.remove(flow_id);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::PathInfo;

    fn ctx(paths: &[PathInfo], flow_id: u64, seq: u32) -> Ctx<'_> {
        Ctx {
            now_ps: 0,
            flow_id,
            dst_leaf: 0,
            seq,
            pkt_bytes: 1000,
            paths,
        }
    }

    #[test]
    fn packets_within_a_flowcell_share_a_path() {
        let paths = vec![PathInfo::default(); 4];
        let mut lb = Presto::new(1000);
        // 64 KB cell at 1 KB MTU = 65 packets per cell (64*1024/1000 = 65.5).
        let p = lb.select(&ctx(&paths, 7, 0));
        for seq in 1..65 {
            assert_eq!(
                lb.select(&ctx(&paths, 7, seq)),
                p,
                "seq {seq} left the cell"
            );
        }
    }

    #[test]
    fn consecutive_cells_round_robin() {
        let paths = vec![PathInfo::default(); 4];
        let mut lb = Presto::new(1000);
        let pkts_per_cell = (FLOWCELL_BYTES / 1000) as u32 + 1; // first seq of next cell
        let c0 = lb.select(&ctx(&paths, 7, 0));
        let c1 = lb.select(&ctx(&paths, 7, pkts_per_cell));
        let c2 = lb.select(&ctx(&paths, 7, 2 * pkts_per_cell));
        assert_eq!(c1, (c0 + 1) % 4);
        assert_eq!(c2, (c0 + 2) % 4);
    }

    #[test]
    fn retransmissions_reuse_the_original_cell_path() {
        let paths = vec![PathInfo::default(); 8];
        let mut lb = Presto::new(1000);
        let first = lb.select(&ctx(&paths, 3, 10));
        // ... many packets later, PSN 10 is retransmitted:
        for seq in 11..500 {
            lb.select(&ctx(&paths, 3, seq));
        }
        assert_eq!(lb.select(&ctx(&paths, 3, 10)), first);
    }

    #[test]
    fn flows_start_on_spread_bases() {
        let paths = vec![PathInfo::default(); 8];
        let mut lb = Presto::new(1000);
        let mut used = std::collections::HashSet::new();
        for f in 0..64u64 {
            used.insert(lb.select(&ctx(&paths, f, 0)));
        }
        assert!(used.len() >= 6, "bases should spread: {used:?}");
    }

    #[test]
    fn flow_completion_clears_state() {
        let paths = vec![PathInfo::default(); 4];
        let mut lb = Presto::new(1000);
        lb.select(&ctx(&paths, 9, 0));
        assert_eq!(lb.base.len(), 1);
        lb.on_flow_complete(9);
        assert!(lb.base.is_empty());
    }

    #[test]
    #[should_panic]
    fn cell_smaller_than_mtu_rejected() {
        Presto::with_cell_size(9000, 1000);
    }
}
