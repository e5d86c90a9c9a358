//! Empirical flow-size distributions.
//!
//! The paper evaluates on four production-trace workloads (§4, "Realistic
//! workloads"): Web Server, Cache Follower, Web Search and Data Mining, with
//! average flow sizes ranging from ~64 KB to ~7.41 MB. The CDF control
//! points below follow the published distributions (Facebook web/cache
//! traces, the DCTCP web-search trace and the VL2 data-mining trace) as used
//! by Hermes and subsequent load-balancing papers. Sampling is
//! inverse-transform with linear interpolation between control points.

use rand::Rng;
use serde::{Deserialize, Serialize};

/// A piecewise-linear empirical CDF over flow sizes in bytes.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SizeCdf {
    name: &'static str,
    /// (size_bytes, cumulative_probability), strictly increasing in both.
    points: Vec<(f64, f64)>,
}

/// The four workloads of the paper's evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Workload {
    WebServer,
    CacheFollower,
    WebSearch,
    DataMining,
}

/// One row per workload, in declaration order: the variant, the name tables
/// print, and the key spec files and CLI flags spell.
const WORKLOADS: [(Workload, &str, &str); 4] = [
    (Workload::WebServer, "Web Server", "web_server"),
    (Workload::CacheFollower, "Cache Follower", "cache_follower"),
    (Workload::WebSearch, "Web Search", "web_search"),
    (Workload::DataMining, "Data Mining", "data_mining"),
];

impl Workload {
    /// Every workload, in declaration order: `ALL[w as usize] == w`.
    pub const ALL: [Workload; 4] = {
        let mut all = [Workload::WebServer; 4];
        let mut i = 0;
        while i < all.len() {
            all[i] = WORKLOADS[i].0;
            i += 1;
        }
        all
    };

    pub fn name(self) -> &'static str {
        WORKLOADS[self as usize].1
    }

    /// The name spec files and CLI flags use for this workload.
    pub fn key(self) -> &'static str {
        WORKLOADS[self as usize].2
    }

    pub fn from_key(key: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.key() == key)
    }

    pub fn cdf(self) -> SizeCdf {
        match self {
            Workload::WebServer => SizeCdf::web_server(),
            Workload::CacheFollower => SizeCdf::cache_follower(),
            Workload::WebSearch => SizeCdf::web_search(),
            Workload::DataMining => SizeCdf::data_mining(),
        }
    }
}

impl SizeCdf {
    /// Build a CDF from (size, probability) control points.
    ///
    /// # Panics
    /// Panics if points are not strictly increasing or do not end at 1.0.
    pub fn from_points(name: &'static str, points: Vec<(f64, f64)>) -> SizeCdf {
        assert!(points.len() >= 2, "{name}: need at least 2 points");
        for w in points.windows(2) {
            assert!(w[0].0 < w[1].0, "{name}: sizes must strictly increase");
            assert!(
                w[0].1 < w[1].1,
                "{name}: probabilities must strictly increase"
            );
        }
        let first = points.first().unwrap();
        let last = points.last().unwrap();
        assert!(
            first.1 >= 0.0 && (last.1 - 1.0).abs() < 1e-9,
            "{name}: CDF must end at 1"
        );
        assert!(first.0 >= 0.0);
        SizeCdf { name, points }
    }

    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Facebook web-server trace: all flows below 1 MB, mean ≈ 53 KB.
    pub fn web_server() -> SizeCdf {
        SizeCdf::from_points(
            "Web Server",
            vec![
                (0.0, 0.0),
                (1_000.0, 0.10),
                (2_000.0, 0.20),
                (5_000.0, 0.35),
                (10_000.0, 0.50),
                (20_000.0, 0.65),
                (50_000.0, 0.80),
                (100_000.0, 0.88),
                (200_000.0, 0.94),
                (500_000.0, 0.98),
                (1_000_000.0, 1.0),
            ],
        )
    }

    /// Facebook cache-follower trace: mean ≈ 0.6–0.7 MB.
    pub fn cache_follower() -> SizeCdf {
        SizeCdf::from_points(
            "Cache Follower",
            vec![
                (0.0, 0.0),
                (1_000.0, 0.05),
                (10_000.0, 0.20),
                (50_000.0, 0.40),
                (100_000.0, 0.55),
                (200_000.0, 0.65),
                (500_000.0, 0.75),
                (1_000_000.0, 0.85),
                (2_000_000.0, 0.92),
                (5_000_000.0, 0.98),
                (10_000_000.0, 1.0),
            ],
        )
    }

    /// DCTCP web-search trace: mean ≈ 1.6–1.7 MB (the paper quotes 1.6 MB).
    pub fn web_search() -> SizeCdf {
        SizeCdf::from_points(
            "Web Search",
            vec![
                (0.0, 0.0),
                (10_000.0, 0.15),
                (20_000.0, 0.20),
                (30_000.0, 0.30),
                (50_000.0, 0.40),
                (80_000.0, 0.53),
                (200_000.0, 0.60),
                (1_000_000.0, 0.70),
                (2_000_000.0, 0.80),
                (5_000_000.0, 0.90),
                (10_000_000.0, 0.97),
                (30_000_000.0, 1.0),
            ],
        )
    }

    /// VL2 data-mining trace: heavy-tailed, mean ≈ 7.4 MB, ~83% of flows
    /// under 100 KB, most bytes from rare multi-MB flows.
    pub fn data_mining() -> SizeCdf {
        SizeCdf::from_points(
            "Data Mining",
            vec![
                (100.0, 0.0),
                (180.0, 0.10),
                (250.0, 0.20),
                (560.0, 0.30),
                (900.0, 0.40),
                (1_100.0, 0.50),
                (1_870.0, 0.60),
                (3_160.0, 0.70),
                (10_000.0, 0.80),
                (100_000.0, 0.855),
                (400_000.0, 0.90),
                (3_160_000.0, 0.95),
                (100_000_000.0, 0.99),
                (1_000_000_000.0, 1.0),
            ],
        )
    }

    /// Inverse-transform sample: flow size in bytes (at least 1).
    pub fn sample<R: Rng>(&self, rng: &mut R) -> u64 {
        let u: f64 = rng.gen();
        self.quantile(u)
    }

    /// The size at cumulative probability `u` (linear interpolation).
    pub fn quantile(&self, u: f64) -> u64 {
        let u = u.clamp(0.0, 1.0);
        let pts = &self.points;
        if u <= pts[0].1 {
            return pts[0].0.max(1.0) as u64;
        }
        for w in pts.windows(2) {
            let (s0, p0) = w[0];
            let (s1, p1) = w[1];
            if u <= p1 {
                let frac = (u - p0) / (p1 - p0);
                return ((s0 + frac * (s1 - s0)).round() as u64).max(1);
            }
        }
        pts.last().unwrap().0 as u64
    }

    /// Analytic mean of the piecewise-linear distribution: each segment is
    /// uniform, contributing `Δp · midpoint`.
    pub fn mean_bytes(&self) -> f64 {
        let mut mean = self.points[0].1 * self.points[0].0;
        for w in self.points.windows(2) {
            let (s0, p0) = w[0];
            let (s1, p1) = w[1];
            mean += (p1 - p0) * 0.5 * (s0 + s1);
        }
        mean
    }

    pub fn max_bytes(&self) -> u64 {
        self.points.last().unwrap().0 as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn means_match_the_papers_workload_characterisation() {
        // Paper §4: "average flow sizes range from 64KB to more than 7.41MB".
        let ws = SizeCdf::web_server().mean_bytes();
        assert!((30e3..100e3).contains(&ws), "web server mean {ws}");
        let cf = SizeCdf::cache_follower().mean_bytes();
        assert!((400e3..900e3).contains(&cf), "cache follower mean {cf}");
        let wsearch = SizeCdf::web_search().mean_bytes();
        assert!(
            (1.3e6..2.0e6).contains(&wsearch),
            "web search mean {wsearch}"
        );
        let dm = SizeCdf::data_mining().mean_bytes();
        assert!((6e6..9e6).contains(&dm), "data mining mean {dm}");
    }

    #[test]
    fn workload_table_is_in_declaration_order() {
        for (i, w) in Workload::ALL.into_iter().enumerate() {
            assert_eq!(w as usize, i, "{w:?} sits at row {i}");
            assert_eq!(Workload::from_key(w.key()), Some(w));
            assert_eq!(w.cdf().name(), w.name());
        }
        assert_eq!(Workload::from_key("websearch"), None);
    }

    #[test]
    fn data_mining_is_heavy_tailed() {
        // Paper: ~83% of Data Mining flows are smaller than 100 KB.
        let cdf = SizeCdf::data_mining();
        // quantile(0.8) = 10 KB < 100 KB; quantile(0.9) = 400 KB.
        assert!(cdf.quantile(0.83) < 100_000);
        assert!(cdf.quantile(0.999) > 35_000_000);
    }

    #[test]
    fn web_server_flows_all_below_1mb() {
        let cdf = SizeCdf::web_server();
        assert_eq!(cdf.max_bytes(), 1_000_000);
        let mut rng = rand::rngs::SmallRng::seed_from_u64(7);
        for _ in 0..10_000 {
            assert!(cdf.sample(&mut rng) <= 1_000_000);
        }
    }

    #[test]
    fn sample_mean_converges_to_analytic_mean() {
        for wl in Workload::ALL {
            let cdf = wl.cdf();
            let mut rng = rand::rngs::SmallRng::seed_from_u64(11);
            let n = 200_000;
            let total: f64 = (0..n).map(|_| cdf.sample(&mut rng) as f64).sum();
            let sample_mean = total / n as f64;
            let analytic = cdf.mean_bytes();
            let rel = (sample_mean - analytic).abs() / analytic;
            assert!(
                rel < 0.05,
                "{}: sample {sample_mean} vs analytic {analytic}",
                wl.name()
            );
        }
    }

    #[test]
    fn quantile_is_monotone() {
        let cdf = SizeCdf::web_search();
        let mut last = 0;
        for i in 0..=100 {
            let q = cdf.quantile(i as f64 / 100.0);
            assert!(q >= last);
            last = q;
        }
    }

    #[test]
    #[should_panic(expected = "strictly increase")]
    fn rejects_non_monotone_points() {
        SizeCdf::from_points("bad", vec![(0.0, 0.0), (10.0, 0.5), (5.0, 1.0)]);
    }

    #[test]
    fn quantile_extremes() {
        let cdf = SizeCdf::web_search();
        assert!(cdf.quantile(0.0) >= 1);
        assert_eq!(cdf.quantile(1.0), 30_000_000);
        // Values above 1 clamp.
        assert_eq!(cdf.quantile(2.0), 30_000_000);
    }
}
