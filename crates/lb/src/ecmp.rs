//! ECMP: flow-level hashing, the coarse baseline (§5, "flow-level coarse
//! granularity to avoid out-of-order delivery at the cost of low link
//! utilization"). Never reorders, never rebalances.

use crate::api::{Ctx, LoadBalancer, PathIdx};

#[derive(Debug, Default)]
pub struct Ecmp;

/// SplitMix-style hash — stable across runs for a given flow id.
#[inline]
pub(crate) fn hash64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl LoadBalancer for Ecmp {
    fn name(&self) -> &'static str {
        "ECMP"
    }

    fn select(&mut self, ctx: &Ctx<'_>) -> PathIdx {
        (hash64(ctx.flow_id) % ctx.paths.len() as u64) as usize
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
            dst_leaf: 1,
            seq,
            pkt_bytes: 1000,
            paths,
        }
    }

    #[test]
    fn same_flow_always_same_path() {
        let paths = vec![PathInfo::default(); 8];
        let mut lb = Ecmp;
        let p0 = lb.select(&ctx(&paths, 42, 0));
        for seq in 1..100 {
            assert_eq!(lb.select(&ctx(&paths, 42, seq)), p0);
        }
    }

    #[test]
    fn different_flows_spread_over_paths() {
        let paths = vec![PathInfo::default(); 8];
        let mut lb = Ecmp;
        let mut used = std::collections::HashSet::new();
        for f in 0..200u64 {
            used.insert(lb.select(&ctx(&paths, f, 0)));
        }
        assert!(
            used.len() >= 7,
            "hash should cover nearly all paths: {used:?}"
        );
    }

    #[test]
    fn path_index_always_valid() {
        let mut lb = Ecmp;
        for n in 1..10 {
            let paths = vec![PathInfo::default(); n];
            for f in 0..50u64 {
                assert!(lb.select(&ctx(&paths, f, 0)) < n);
            }
        }
    }
}
