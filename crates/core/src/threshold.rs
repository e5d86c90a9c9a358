//! The PFC warning threshold Qth (§3.2.3).
//!
//! The paper derives, for an n:1 incast onto a link of capacity C with
//! one-hop delay d and PFC threshold Q_PFC:
//!
//! * **Upper bound** (Eq. 1): the warning must leave room for one more
//!   link-delay's worth of arrivals before PFC actually fires —
//!   `Qth < Q_PFC − d·C·(n−1)` when every sender blasts at C (the
//!   conservative worst case; the `−d·C·n` arrival term is offset by
//!   `+d·C` of drain).
//! * **Lower bound** (Eq. 2): if everyone reroutes away on the warning,
//!   the queue must not underrun before the warning lifts —
//!   `Qth ≥ d·C` (drain for one link delay with no arrivals).
//!
//! giving the conservative range `[⌊d·C⌋, ⌊Q_PFC − d·C·(n−1)⌋)`.

/// The conservative admissible range `[lo, hi)` for Qth, in bytes.
///
/// `d_ps` — link delay, `c_bps` — link capacity, `n` — worst-case incast
/// fan-in, `q_pfc_bytes` — the PFC PAUSE threshold.
///
/// Returns `None` when the range is empty (Q_PFC too small for the given
/// fan-in — every warning would be late, so prediction degenerates).
pub fn qth_range(d_ps: u64, c_bps: u64, n: u32, q_pfc_bytes: u64) -> Option<(u64, u64)> {
    let dc = d_times_c_bytes(d_ps, c_bps);
    let hi = q_pfc_bytes.checked_sub(dc.saturating_mul(n.saturating_sub(1) as u64))?;
    let lo = dc;
    (lo < hi).then_some((lo, hi))
}

/// Bytes arriving in one link delay at capacity: ⌊d·C⌋.
pub fn d_times_c_bytes(d_ps: u64, c_bps: u64) -> u64 {
    ((d_ps as u128 * c_bps as u128) / (8 * 1_000_000_000_000u128)) as u64
}

/// Resolve the operating Qth: take the requested fraction of Q_PFC and
/// clamp it into the conservative range where one exists.
///
/// Fig. 10(a) sweeps `fraction` from 20% to 80%; values outside the
/// admissible range are clamped, matching the paper's observation that an
/// over-late threshold simply behaves like "prediction after PFC already
/// fired".
pub fn conservative_qth(fraction: f64, d_ps: u64, c_bps: u64, n: u32, q_pfc_bytes: u64) -> u64 {
    let requested = (fraction * q_pfc_bytes as f64).round() as u64;
    match qth_range(d_ps, c_bps, n, q_pfc_bytes) {
        Some((lo, hi)) => requested.clamp(lo, hi.saturating_sub(1)),
        // Degenerate fabric: fall back to the raw fraction, floored at one
        // link-delay of bytes so the predictor still has headroom.
        None => requested.max(d_times_c_bytes(d_ps, c_bps).min(q_pfc_bytes)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // Paper's settings: 40 Gbps links, 2 µs delay, 256 KB PFC threshold.
    const C: u64 = 40_000_000_000;
    const D: u64 = 2_000_000;
    const QPFC: u64 = 256 * 1024;

    #[test]
    fn d_times_c_at_paper_settings() {
        // 2 µs · 40 Gbps = 80 kbit = 10 KB.
        assert_eq!(d_times_c_bytes(D, C), 10_000);
    }

    #[test]
    fn range_matches_paper_formula() {
        let (lo, hi) = qth_range(D, C, 8, QPFC).unwrap();
        assert_eq!(lo, 10_000);
        assert_eq!(hi, QPFC - 7 * 10_000); // Q_PFC − d·C·(n−1)
        assert!(lo < hi);
    }

    #[test]
    fn range_empty_when_fanin_too_large() {
        // 256 KB / 10 KB ≈ 26 senders exhaust the headroom.
        assert!(qth_range(D, C, 27, QPFC).is_none());
        assert!(qth_range(D, C, 100, QPFC).is_none());
    }

    #[test]
    fn conservative_qth_clamps_into_range() {
        let (lo, hi) = qth_range(D, C, 8, QPFC).unwrap();
        // 25% of 256 KB = 64 KB lies inside the range.
        let q = conservative_qth(0.25, D, C, 8, QPFC);
        assert_eq!(q, (0.25 * QPFC as f64) as u64);
        assert!((lo..hi).contains(&q));
        // 99% would exceed the upper bound → clamped just below hi.
        let q_hi = conservative_qth(0.99, D, C, 8, QPFC);
        assert_eq!(q_hi, hi - 1);
        // Tiny fraction clamps up to the lower bound.
        let q_lo = conservative_qth(0.001, D, C, 8, QPFC);
        assert_eq!(q_lo, lo);
    }

    #[test]
    fn degenerate_range_falls_back_to_fraction() {
        let q = conservative_qth(0.5, D, C, 100, QPFC);
        assert_eq!(q, QPFC / 2);
    }

    #[test]
    fn slower_links_need_smaller_headroom() {
        // At 10 Gbps, d·C is 2.5 KB — the admissible range widens.
        let (lo40, hi40) = qth_range(D, C, 10, QPFC).unwrap();
        let (lo10, hi10) = qth_range(D, 10_000_000_000, 10, QPFC).unwrap();
        assert!(lo10 < lo40);
        assert!(hi10 > hi40);
    }
}
