//! RLB configuration (§3.2).

use serde::{Deserialize, Serialize};

/// How Algorithm 1 picks the suboptimal path `ps` among the unwarned
/// candidates whose delay is not below the warned path's (see
/// `reroute::algorithm1` for why faster candidates are avoided).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum SuboptimalPolicy {
    /// Shortest local queue first (RTT breaking ties). Disperses herds:
    /// queues react instantly when many flows reroute at once. Default.
    QueueFirst,
    /// Lowest RTT estimate first (queue breaking ties) — the literal
    /// "suboptimal by delay" reading of Algorithm 1 line 4. Kept for the
    /// ablation harness; funnels simultaneous reroutes onto one path.
    RttFirst,
}

#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RlbConfig {
    /// Queue-derivative sampling interval Δt (§3.2.1). Paper default: the
    /// link delay, 2 µs. Fig. 10(b) sweeps 2–5 µs.
    pub dt_ps: u64,
    /// PFC warning threshold Qth as a fraction of the PFC threshold
    /// Q_PFC (§3.2.3 derives the admissible range; Fig. 10(a) sweeps the
    /// fraction 20%–80%). The absolute threshold additionally gets clamped
    /// into the paper's conservative range by
    /// [`crate::threshold::conservative_qth`].
    pub qth_fraction: f64,
    /// Prediction horizon: warn if, at the current ingress growth rate, the
    /// PFC threshold would be reached within this long. Defaults to twice
    /// the link delay — time for the CNM to travel one hop plus for the
    /// upstream to react.
    pub horizon_ps: u64,
    /// Measured delay of one packet recirculation t_rc (Algorithm 1 input).
    pub t_rc_ps: u64,
    /// Hard cap on recirculations per packet, upholding the paper's
    /// "recirculation will stop to avoid the endless loop".
    pub max_recirculations: u32,
    /// Ablation switch for Fig. 9: with recirculation disabled RLB always
    /// reroutes to the suboptimal path on a warning.
    pub enable_recirculation: bool,
    /// When every visible path is warned, allow one recirculation before
    /// falling back to the inner scheme's choice. Default off: a blanket
    /// warning carries no routing signal, so waiting rarely pays.
    pub recirculate_when_all_warned: bool,
    /// How long a CNM warning stays in force at the upstream switch before
    /// expiring (refreshed by subsequent CNMs while congestion persists).
    pub warn_lifetime_ps: u64,
    /// Suboptimal-path selection policy (see [`SuboptimalPolicy`]).
    pub suboptimal_policy: SuboptimalPolicy,
    /// Cache a flow's reroute target for the warning lifetime so its
    /// packets don't alternate between the original and the safe path on
    /// every warning-refresh edge (self-inflicted reordering). Ablation
    /// knob; see DESIGN.md "Known deviations".
    pub sticky_reroutes: bool,
}

impl Default for RlbConfig {
    fn default() -> Self {
        let link_delay = rlb_engine::SimDuration::from_ps(2_000_000); // 2 µs, the paper's link delay
        RlbConfig {
            dt_ps: link_delay.as_ps(),
            qth_fraction: 0.25,
            horizon_ps: link_delay.mul_u64(2).as_ps(),
            t_rc_ps: 1_000_000, // 1 µs loop through the switch pipeline
            max_recirculations: 8,
            enable_recirculation: true,
            recirculate_when_all_warned: false,
            // Warnings must outlive CNM refresh jitter (CNMs queue behind
            // ACK bursts on reverse links); a flapping warning makes
            // consecutive packets of one flow alternate between rerouting
            // and the original path — reordering by itself. 10 sampling
            // intervals ≈ 20 µs, still well below typical pause durations.
            warn_lifetime_ps: link_delay.mul_u64(10).as_ps(),
            suboptimal_policy: SuboptimalPolicy::QueueFirst,
            sticky_reroutes: true,
        }
    }
}

impl RlbConfig {
    /// Validate invariants; call after deserializing user configs.
    pub fn validate(&self) -> Result<(), String> {
        if self.dt_ps == 0 {
            return Err("dt_ps must be positive".into());
        }
        if !(self.qth_fraction > 0.0 && self.qth_fraction <= 1.0) {
            return Err(format!(
                "qth_fraction must be in (0,1]: {}",
                self.qth_fraction
            ));
        }
        if self.horizon_ps == 0 {
            return Err("horizon_ps must be positive".into());
        }
        if self.warn_lifetime_ps < self.dt_ps {
            return Err("warn_lifetime_ps shorter than the sampling interval would \
                 let warnings expire between refreshes"
                .into());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_valid_and_matches_paper_constants() {
        let c = RlbConfig::default();
        c.validate().unwrap();
        assert_eq!(c.dt_ps, 2_000_000); // 2 µs
        assert!(c.enable_recirculation);
    }

    #[test]
    fn validation_catches_bad_values() {
        let bad = |f: fn(&mut RlbConfig)| {
            let mut c = RlbConfig::default();
            f(&mut c);
            c.validate().is_err()
        };
        assert!(bad(|c| c.qth_fraction = 0.0));
        assert!(bad(|c| c.dt_ps = 0));
        assert!(bad(|c| c.warn_lifetime_ps = c.dt_ps / 2));
    }
}
