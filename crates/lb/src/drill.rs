//! DRILL (Ghorbani et al., SIGCOMM 2017): per-packet micro load balancing.
//!
//! For every packet, sample `d` random uplinks, compare them together with
//! the `m` best ports remembered from previous decisions, and send the
//! packet to the least-loaded (shortest local egress queue). The classic
//! configuration — and ours — is DRILL(d=2, m=1).
//!
//! DRILL only reads *local* queue lengths; it cannot see PFC pauses at the
//! remote downstream switch — which is why the paper finds it suffers the
//! worst reordering once PFC kicks in (§2.2.1: "the local queue length used
//! by DRILL cannot timely sense the PFC pausing on the remote downstream
//! switches").

use crate::api::{Ctx, LoadBalancer, PathIdx};
use rand::Rng;
use rlb_engine::SimRng;

pub struct Drill {
    /// Random samples per decision.
    d: usize,
    /// Remembered least-loaded port from the previous decision (m = 1).
    memory: Option<PathIdx>,
    rng: SimRng,
}

impl Drill {
    pub fn new(rng: SimRng) -> Drill {
        Drill::with_samples(rng, 2)
    }

    pub fn with_samples(rng: SimRng, d: usize) -> Drill {
        assert!(d >= 1);
        Drill {
            d,
            memory: None,
            rng,
        }
    }
}

impl LoadBalancer for Drill {
    fn name(&self) -> &'static str {
        "DRILL"
    }

    fn select(&mut self, ctx: &Ctx<'_>) -> PathIdx {
        let n = ctx.paths.len();
        let mut best: Option<PathIdx> = None;
        let consider = |idx: PathIdx, best: &mut Option<PathIdx>| {
            let better = match *best {
                None => true,
                Some(b) => ctx.paths[idx].queue_bytes < ctx.paths[b].queue_bytes,
            };
            if better {
                *best = Some(idx);
            }
        };
        for _ in 0..self.d.min(n) {
            let idx = self.rng.gen_range(0..n);
            consider(idx, &mut best);
        }
        if let Some(m) = self.memory {
            if m < n {
                consider(m, &mut best);
            }
        }
        let chosen = best.expect("at least one candidate");
        self.memory = Some(chosen);
        chosen
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::PathInfo;
    use rlb_engine::substream;

    fn ctx(paths: &[PathInfo]) -> Ctx<'_> {
        Ctx {
            now_ps: 0,
            flow_id: 1,
            dst_leaf: 0,
            seq: 0,
            pkt_bytes: 1000,
            paths,
        }
    }

    fn lb() -> Drill {
        Drill::new(substream(7, b"drill-test", 0))
    }

    #[test]
    fn prefers_shorter_queue_among_candidates() {
        // With one empty queue among loaded ones, repeated decisions must
        // overwhelmingly land on the empty one (memory locks onto it).
        let mut paths = vec![
            PathInfo {
                queue_bytes: 1_000_000,
                ..PathInfo::default()
            };
            8
        ];
        paths[3].queue_bytes = 0;
        let mut d = lb();
        let mut hits = 0;
        for _ in 0..200 {
            if d.select(&ctx(&paths)) == 3 {
                hits += 1;
            }
        }
        assert!(
            hits > 150,
            "expected memory to lock onto port 3, hits={hits}"
        );
    }

    #[test]
    fn memory_carries_best_port_forward() {
        let mut paths = vec![PathInfo::default(); 4];
        for (i, p) in paths.iter_mut().enumerate() {
            p.queue_bytes = (i as u64 + 1) * 1000;
        }
        paths[0].queue_bytes = 0;
        let mut d = lb();
        // Force memory onto 0 by repeated sampling…
        for _ in 0..50 {
            d.select(&ctx(&paths));
        }
        assert_eq!(d.memory, Some(0));
        // …then make 0 the worst: DRILL should move away once sampling
        // finds anything better.
        paths[0].queue_bytes = 1_000_000;
        let mut moved = false;
        for _ in 0..20 {
            if d.select(&ctx(&paths)) != 0 {
                moved = true;
                break;
            }
        }
        assert!(moved, "DRILL stuck on stale memory");
    }

    #[test]
    fn stale_memory_index_is_ignored_when_out_of_range() {
        let big = vec![PathInfo::default(); 8];
        let small = vec![PathInfo::default(); 2];
        let mut d = lb();
        for _ in 0..20 {
            d.select(&ctx(&big));
        }
        // Now decide over a smaller path set; must not panic.
        let p = d.select(&ctx(&small));
        assert!(p < 2);
    }

    #[test]
    fn single_path_degenerates_gracefully() {
        let one = vec![PathInfo::default()];
        let mut d = lb();
        assert_eq!(d.select(&ctx(&one)), 0);
    }

    #[test]
    fn per_packet_decisions_spread_under_equal_load() {
        let paths = vec![PathInfo::default(); 8];
        let mut d = lb();
        let mut used = std::collections::HashSet::new();
        for _ in 0..300 {
            used.insert(d.select(&ctx(&paths)));
        }
        // Ties keep memory sticky, but random sampling still explores.
        assert!(used.len() >= 2);
    }
}
