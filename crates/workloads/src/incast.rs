//! Incast (partition-aggregate) request generation for §4.3.
//!
//! "A client makes simultaneous requests to fetch responses from multiple
//! servers. By default, the number of involved responders is 15 and the
//! total response traffic is 4MB in each incast initiation." The harness
//! varies the incast degree (10–25) and total response size (4–10 MB) and
//! measures the out-of-order packet ratio and the completion time of the
//! last flow of each request (incast completion time).

use crate::spec::FlowSpec;
use rand::seq::SliceRandom;
use rand::Rng;
use rlb_engine::{SimDuration, SimTime};

#[derive(Debug, Clone)]
pub struct IncastConfig {
    /// Number of responding servers per request (the incast degree).
    pub degree: u32,
    /// Total bytes across all responders for one request.
    pub total_response_bytes: u64,
    /// Number of incast requests to issue.
    pub requests: u32,
    /// Gap between successive requests.
    pub request_interval: SimDuration,
    /// Total hosts in the fabric.
    pub num_hosts: u32,
    /// Hosts per leaf (responders are drawn from other leaves than the
    /// client's so responses traverse the multi-path core).
    pub hosts_per_leaf: u32,
}

/// Generate the response flows for all incast requests. Each request `r`
/// gets group id `r`, so completion of the group's last flow is the incast
/// completion time.
pub fn generate<R: Rng>(cfg: &IncastConfig, rng: &mut R) -> Vec<FlowSpec> {
    assert!(cfg.degree >= 1);
    assert!(
        cfg.num_hosts >= cfg.hosts_per_leaf * 2,
        "need at least two leaves"
    );
    let per_responder = (cfg.total_response_bytes / cfg.degree as u64).max(1);
    let mut flows = Vec::with_capacity((cfg.requests * cfg.degree) as usize);
    for r in 0..cfg.requests {
        let t = SimTime::ZERO + cfg.request_interval.mul_u64(r as u64);
        let client = rng.gen_range(0..cfg.num_hosts);
        let client_leaf = client / cfg.hosts_per_leaf;
        // Candidate responders: every host on a different leaf.
        let mut candidates: Vec<u32> = (0..cfg.num_hosts)
            .filter(|h| h / cfg.hosts_per_leaf != client_leaf)
            .collect();
        candidates.shuffle(rng);
        assert!(
            candidates.len() >= cfg.degree as usize,
            "fabric too small for incast degree {}",
            cfg.degree
        );
        for &server in candidates.iter().take(cfg.degree as usize) {
            flows.push(FlowSpec::new(t, server, client, per_responder).with_group(r as u64));
        }
    }
    flows
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn cfg(degree: u32) -> IncastConfig {
        IncastConfig {
            degree,
            total_response_bytes: 4_000_000,
            requests: 5,
            request_interval: SimDuration::from_ms(1),
            num_hosts: 64,
            hosts_per_leaf: 8,
        }
    }

    #[test]
    fn all_responders_target_the_client_simultaneously() {
        let mut rng = SmallRng::seed_from_u64(4);
        let flows = generate(&cfg(15), &mut rng);
        assert_eq!(flows.len(), 75);
        for r in 0..5u64 {
            let group: Vec<&FlowSpec> = flows.iter().filter(|f| f.group == r).collect();
            assert_eq!(group.len(), 15);
            let dst = group[0].dst_host;
            let t = group[0].start;
            assert!(group.iter().all(|f| f.dst_host == dst && f.start == t));
            // distinct responders
            let mut srcs: Vec<u32> = group.iter().map(|f| f.src_host).collect();
            srcs.sort();
            srcs.dedup();
            assert_eq!(srcs.len(), 15);
            // responders on other leaves
            assert!(group.iter().all(|f| f.src_host / 8 != dst / 8));
        }
    }

    #[test]
    fn response_bytes_split_evenly() {
        let mut rng = SmallRng::seed_from_u64(4);
        let flows = generate(&cfg(16), &mut rng);
        assert!(flows.iter().all(|f| f.size_bytes == 250_000));
    }

    #[test]
    fn requests_spaced_by_interval() {
        let mut rng = SmallRng::seed_from_u64(4);
        let flows = generate(&cfg(10), &mut rng);
        let t1 = flows.iter().find(|f| f.group == 1).unwrap().start;
        assert_eq!(t1, SimTime::from_ms(1));
    }

    #[test]
    #[should_panic(expected = "fabric too small")]
    fn rejects_oversized_degree() {
        let mut c = cfg(60);
        c.num_hosts = 16; // only 8 hosts on other leaves
        let mut rng = SmallRng::seed_from_u64(4);
        generate(&c, &mut rng);
    }
}
