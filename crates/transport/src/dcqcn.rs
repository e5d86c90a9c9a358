//! DCQCN congestion control (Zhu et al., SIGCOMM 2015), the paper's default
//! transport (§4: "We use DCQCN as the default transport protocol and set
//! the related parameters as suggested").
//!
//! Split into the three roles of the protocol:
//!
//! * **CP (congestion point)** — the switch marks ECN with RED-like
//!   probability; implemented in `rlb-net`'s switch.
//! * **NP (notification point)** — the receiver NIC turns marked arrivals
//!   into CNPs, at most one per flow per `cnp_interval` ([`CnpGenerator`]).
//! * **RP (reaction point)** — the sender NIC adjusts its rate
//!   ([`DcqcnRate`]): multiplicative decrease on CNP, then fast recovery /
//!   additive increase / hyper increase driven by a timer and a byte
//!   counter, exactly as in the DCQCN paper's rate-update rules.
//!
//! Everything here is a pure state machine over explicit timestamps
//! (picoseconds), so the algorithm is unit-testable without a simulator.

use serde::{Deserialize, Serialize};

/// DCQCN parameters. Defaults follow the DCQCN paper / Mellanox guidance,
/// with the increase steps chosen for 40 Gbps links.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct DcqcnConfig {
    /// Full line rate, the cap for the flow's sending rate (bits/sec).
    pub line_rate_bps: f64,
    /// Floor for the sending rate (bits/sec).
    pub min_rate_bps: f64,
    /// EWMA gain `g` for alpha.
    pub g: f64,
    /// Alpha-update timer (no-CNP decay), ps. Paper: 55 µs.
    pub alpha_timer_ps: u64,
    /// Rate-increase timer period, ps. Paper: 55 µs (we keep it equal).
    pub increase_timer_ps: u64,
    /// Byte counter triggering a rate-increase event. Paper: 10 MB.
    pub byte_counter: u64,
    /// Stage threshold F: increase events before leaving fast recovery.
    pub f_threshold: u32,
    /// Additive increase step (bits/sec). 40 Mbps default.
    pub rai_bps: f64,
    /// Hyper increase step (bits/sec). 10× Rai default.
    pub rhai_bps: f64,
    /// Minimum gap between CNPs generated per flow at the NP, ps (50 µs).
    pub cnp_interval_ps: u64,
}

impl Default for DcqcnConfig {
    fn default() -> Self {
        DcqcnConfig {
            line_rate_bps: 40e9,
            min_rate_bps: 100e6,
            g: 1.0 / 256.0,
            alpha_timer_ps: 55_000_000,
            increase_timer_ps: 55_000_000,
            byte_counter: 10_000_000,
            f_threshold: 5,
            rai_bps: 40e6,
            rhai_bps: 400e6,
            cnp_interval_ps: 50_000_000,
        }
    }
}

impl DcqcnConfig {
    /// Scale rate constants for a different line rate, keeping ratios.
    pub fn for_line_rate(line_rate_bps: f64) -> DcqcnConfig {
        let base = DcqcnConfig::default();
        let scale = line_rate_bps / base.line_rate_bps;
        DcqcnConfig {
            line_rate_bps,
            min_rate_bps: base.min_rate_bps * scale,
            rai_bps: base.rai_bps * scale,
            rhai_bps: base.rhai_bps * scale,
            ..base
        }
    }
}

/// Reaction-point (sender) rate state for one flow.
#[derive(Debug, Clone, Serialize)]
pub struct DcqcnRate {
    cfg: DcqcnConfig,
    /// Current sending rate Rc (bits/sec).
    rc: f64,
    /// Target rate Rt (bits/sec).
    rt: f64,
    alpha: f64,
    /// CNP seen since the last alpha-timer expiry?
    cnp_since_alpha_timer: bool,
    /// Rate-increase events since the last decrease, per driver.
    timer_events: u32,
    byte_events: u32,
    /// Bytes accumulated toward the next byte-counter event.
    bytes_acc: u64,
    pub cnps_received: u64,
}

impl DcqcnRate {
    pub fn new(cfg: DcqcnConfig) -> DcqcnRate {
        let line = cfg.line_rate_bps;
        DcqcnRate {
            cfg,
            rc: line,
            rt: line,
            alpha: 1.0,
            cnp_since_alpha_timer: false,
            timer_events: 0,
            byte_events: 0,
            bytes_acc: 0,
            cnps_received: 0,
        }
    }

    /// Current sending rate in bits/sec.
    #[inline]
    pub fn rate_bps(&self) -> f64 {
        self.rc
    }

    pub fn alpha(&self) -> f64 {
        self.alpha
    }

    /// Inter-packet gap that paces `bytes` at the current rate, in ps.
    #[inline]
    pub fn pacing_delay_ps(&self, bytes: u64) -> u64 {
        ((bytes as f64 * 8.0 / self.rc) * 1e12).ceil() as u64
    }

    /// A CNP arrived: cut the rate, raise alpha, restart increase stages.
    pub fn on_cnp(&mut self) {
        self.cnps_received += 1;
        self.cnp_since_alpha_timer = true;
        self.rt = self.rc;
        self.rc = (self.rc * (1.0 - self.alpha / 2.0)).max(self.cfg.min_rate_bps);
        self.alpha = (1.0 - self.cfg.g) * self.alpha + self.cfg.g;
        self.timer_events = 0;
        self.byte_events = 0;
        self.bytes_acc = 0;
    }

    /// Alpha-decay timer expired (every `alpha_timer_ps`).
    pub fn on_alpha_timer(&mut self) {
        if !self.cnp_since_alpha_timer {
            self.alpha *= 1.0 - self.cfg.g;
        }
        self.cnp_since_alpha_timer = false;
    }

    /// Rate-increase timer expired (every `increase_timer_ps`).
    pub fn on_increase_timer(&mut self) {
        self.timer_events = self.timer_events.saturating_add(1);
        self.increase();
    }

    /// Account transmitted bytes; may trigger byte-counter increase events.
    pub fn on_bytes_sent(&mut self, bytes: u64) {
        self.bytes_acc += bytes;
        while self.bytes_acc >= self.cfg.byte_counter {
            self.bytes_acc -= self.cfg.byte_counter;
            self.byte_events = self.byte_events.saturating_add(1);
            self.increase();
        }
    }

    /// The DCQCN increase step: stage selected by how many timer/byte
    /// events have elapsed since the last decrease.
    fn increase(&mut self) {
        let f = self.cfg.f_threshold;
        if self.timer_events > f && self.byte_events > f {
            // Hyper increase: both drivers past F.
            self.rt = (self.rt + self.cfg.rhai_bps).min(self.cfg.line_rate_bps);
        } else if self.timer_events > f || self.byte_events > f {
            // Additive increase: one driver past F.
            self.rt = (self.rt + self.cfg.rai_bps).min(self.cfg.line_rate_bps);
        }
        // Fast recovery (and every stage): close half the gap to Rt.
        self.rc = ((self.rt + self.rc) / 2.0).min(self.cfg.line_rate_bps);
    }

    pub fn config(&self) -> &DcqcnConfig {
        &self.cfg
    }
}

/// Notification-point CNP pacing: at most one CNP per flow per interval.
#[derive(Debug, Clone, Default, Serialize)]
pub struct CnpGenerator {
    last_cnp_ps: Option<u64>,
    pub cnps_sent: u64,
}

impl CnpGenerator {
    /// An ECN-marked data packet arrived at `now_ps`; returns true if a CNP
    /// should be sent to the flow's source.
    pub fn on_marked_packet(&mut self, now_ps: u64, interval_ps: u64) -> bool {
        match self.last_cnp_ps {
            Some(last) if now_ps.saturating_sub(last) < interval_ps => false,
            _ => {
                self.last_cnp_ps = Some(now_ps);
                self.cnps_sent += 1;
                true
            }
        }
    }
}

#[cfg(test)]
// Tests assert exact values that are exactly representable in binary floating
// point; the workspace-level float_cmp deny targets simulator arithmetic.
#[allow(clippy::float_cmp)]
mod tests {
    use super::*;

    fn rp() -> DcqcnRate {
        DcqcnRate::new(DcqcnConfig::default())
    }

    #[test]
    fn starts_at_line_rate_with_alpha_one() {
        let r = rp();
        assert_eq!(r.rate_bps(), 40e9);
        assert_eq!(r.alpha(), 1.0);
    }

    #[test]
    fn cnp_halves_rate_initially() {
        let mut r = rp();
        r.on_cnp();
        // alpha was 1.0 → Rc' = Rc(1 - 0.5) = 20G.
        assert!((r.rate_bps() - 20e9).abs() < 1e6);
        // alpha moves toward 1 (stays 1 when already 1 under EWMA with CNP).
        assert!((r.alpha() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn alpha_decays_without_cnps_making_cuts_gentler() {
        let mut r = rp();
        r.on_cnp();
        let after_first = r.rate_bps();
        for _ in 0..200 {
            r.on_alpha_timer();
        }
        assert!(r.alpha() < 0.5);
        let before = r.rate_bps();
        r.on_cnp();
        let cut_fraction = r.rate_bps() / before;
        assert!(
            cut_fraction > 0.75,
            "gentle cut expected, got {cut_fraction}"
        );
        assert!(after_first <= 20e9 + 1e6);
    }

    #[test]
    fn fast_recovery_converges_to_target() {
        let mut r = rp();
        r.on_cnp(); // Rc=20G, Rt=40G
        for _ in 0..5 {
            r.on_increase_timer(); // fast recovery only (timer_events<=F)
        }
        // Rc -> Rt geometrically: after 5 halvings of the gap, within 40G/2^5.
        assert!(r.rate_bps() > 40e9 - 40e9 / 16.0);
        assert!(r.rate_bps() <= 40e9);
    }

    #[test]
    fn additive_then_hyper_increase_push_target_up() {
        let cfg = DcqcnConfig {
            line_rate_bps: 40e9,
            ..DcqcnConfig::default()
        };
        let mut r = DcqcnRate::new(cfg);
        r.on_cnp();
        // Exhaust fast recovery via timer, then additive increases.
        for _ in 0..6 {
            r.on_increase_timer();
        }
        let after_additive = r.rate_bps();
        // Byte events too: now both counters above F → hyper increase.
        for _ in 0..7 {
            r.on_bytes_sent(10_000_000);
        }
        assert!(r.rate_bps() >= after_additive);
        assert!(r.rate_bps() <= 40e9);
    }

    #[test]
    fn rate_never_exceeds_line_or_drops_below_min() {
        let mut r = rp();
        for _ in 0..100 {
            r.on_increase_timer();
            r.on_bytes_sent(10_000_000);
        }
        assert!(r.rate_bps() <= 40e9);
        for _ in 0..500 {
            r.on_cnp();
        }
        assert!(r.rate_bps() >= r.config().min_rate_bps - 1.0);
    }

    #[test]
    fn cnp_resets_increase_stages() {
        let mut r = rp();
        r.on_cnp();
        for _ in 0..10 {
            r.on_increase_timer();
        }
        r.on_cnp();
        // After the reset we are back in fast recovery; a single timer event
        // must not add Rai to the target (gap-halving only).
        let rt_before = r.rt;
        r.on_increase_timer();
        assert_eq!(r.rt, rt_before);
    }

    #[test]
    fn pacing_delay_matches_rate() {
        let mut r = rp();
        // 1000 bytes at 40 Gbps = 200 ns.
        assert_eq!(r.pacing_delay_ps(1000), 200_000);
        r.on_cnp(); // 20 Gbps
        assert_eq!(r.pacing_delay_ps(1000), 400_000);
    }

    #[test]
    fn cnp_generator_rate_limits() {
        let mut g = CnpGenerator::default();
        let int = 50_000_000; // 50 µs
        assert!(g.on_marked_packet(0, int));
        assert!(!g.on_marked_packet(10_000_000, int));
        assert!(!g.on_marked_packet(49_999_999, int));
        assert!(g.on_marked_packet(50_000_000, int));
        assert_eq!(g.cnps_sent, 2);
    }

    #[test]
    fn config_scaling_preserves_ratios() {
        let c10 = DcqcnConfig::for_line_rate(10e9);
        let c40 = DcqcnConfig::default();
        assert!((c10.rai_bps / c10.line_rate_bps - c40.rai_bps / c40.line_rate_bps).abs() < 1e-12);
        assert_eq!(c10.alpha_timer_ps, c40.alpha_timer_ps);
    }
}
