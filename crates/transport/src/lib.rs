//! # rlb-transport — RoCE NIC transport state machines
//!
//! The end-host behaviour that couples packet reordering to flow completion
//! time in lossless DCNs:
//!
//! * [`GbnSender`] / [`GbnReceiver`] — go-back-N reliable delivery: the
//!   receiver discards out-of-order packets and NAKs, the sender rewinds.
//!   This is why a single PFC-paused path inflates tail FCT (§2.1.2).
//! * [`DcqcnRate`] / [`CnpGenerator`] — DCQCN congestion control, the
//!   paper's default transport.
//! * [`IrnSender`] / [`IrnReceiver`] — IRN-style selective repeat (§5's
//!   abandon-PFC alternative), for the lossless-vs-lossy comparison.
//!
//! All types are pure state machines over explicit timestamps; the
//! simulator (`rlb-net`) drives them and owns all scheduling.

// Library code must justify every panic site: bare unwrap() is denied here
// (tests are exempt). Enforced alongside `cargo xtask lint`'s lib-unwrap rule.
#![cfg_attr(not(test), warn(clippy::unwrap_used))]

pub mod dcqcn;
pub mod gbn;
pub mod irn;

pub use dcqcn::{CnpGenerator, DcqcnConfig, DcqcnRate};
pub use gbn::{GbnReceiver, GbnSender, RxAction};
pub use irn::{IrnAck, IrnReceiver, IrnSender};

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    /// Channel that reorders packets by delaying a random subset, modelling
    /// PFC-style overtaking. Go-back-N must still deliver every flow.
    fn run_lossy_gbn(total: u32, seed: u64) -> (GbnSender, GbnReceiver) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut tx = GbnSender::new(total);
        let mut rx = GbnReceiver::new(total);
        let mut in_flight: Vec<u32> = Vec::new();
        let mut steps = 0u32;
        while !tx.is_complete() {
            steps += 1;
            assert!(steps < 200_000, "go-back-N failed to converge");
            // Wire drained with data outstanding and nothing to send: only
            // the retransmission timeout can revive the flow (see
            // GbnSender::on_timeout docs).
            if in_flight.is_empty() && tx.peek_next().is_none() {
                assert!(tx.on_timeout(), "deadlock without timeout progress");
            }
            // Sender pushes a packet if it has one.
            if let Some(psn) = tx.take_next() {
                in_flight.push(psn);
            }
            // Randomly deliver one of the in-flight packets (out of order).
            if !in_flight.is_empty() && (rng.gen_bool(0.7) || tx.peek_next().is_none()) {
                let idx = rng.gen_range(0..in_flight.len());
                let psn = in_flight.swap_remove(idx);
                match rx.on_packet(psn) {
                    RxAction::Deliver { ack_psn } => tx.on_ack(ack_psn),
                    RxAction::OutOfOrder {
                        nak_psn: Some(n), ..
                    } => tx.on_nak(n),
                    _ => {}
                }
            }
        }
        (tx, rx)
    }

    proptest! {
        /// Go-back-N always completes, even under arbitrary reordering, and
        /// the receiver ends expecting exactly `total`.
        #[test]
        fn gbn_always_completes(total in 1u32..200, seed in any::<u64>()) {
            let (tx, rx) = run_lossy_gbn(total, seed);
            prop_assert!(tx.is_complete());
            prop_assert!(rx.is_complete());
            prop_assert_eq!(rx.expected(), total);
            // Retransmissions imply at least total packets were sent.
            prop_assert!(tx.packets_sent >= total as u64);
        }

        /// The sender never emits a PSN at or beyond `total`, and in_flight
        /// is always consistent.
        #[test]
        fn gbn_sender_psn_bounds(total in 1u32..100, naks in proptest::collection::vec(0u32..100, 0..20)) {
            let mut tx = GbnSender::new(total);
            for nak in naks {
                // interleave sends and arbitrary (possibly bogus) NAKs
                if let Some(psn) = tx.take_next() {
                    prop_assert!(psn < total);
                }
                tx.on_nak(nak % total);
                prop_assert!(tx.peek_next().is_none_or(|p| p < total));
                prop_assert!(tx.in_flight() <= total);
            }
        }

        /// DCQCN rate stays within [min_rate, line_rate] under any event mix.
        #[test]
        fn dcqcn_rate_bounded(events in proptest::collection::vec(0u8..4, 1..300)) {
            let mut r = DcqcnRate::new(DcqcnConfig::default());
            let (min, max) = (r.config().min_rate_bps, r.config().line_rate_bps);
            for e in events {
                match e {
                    0 => r.on_cnp(),
                    1 => r.on_alpha_timer(),
                    2 => r.on_increase_timer(),
                    _ => r.on_bytes_sent(3_000_000),
                }
                prop_assert!(r.rate_bps() >= min - 1.0);
                prop_assert!(r.rate_bps() <= max + 1.0);
                prop_assert!(r.alpha() > 0.0 && r.alpha() <= 1.0);
            }
        }

        /// IRN completes under arbitrary reordering AND loss, with
        /// selective (not go-back-N) retransmission.
        #[test]
        fn irn_always_completes_under_loss_and_reorder(
            total in 1u32..150,
            seed in any::<u64>(),
            loss_pct in 0u32..40,
        ) {
            let mut rng = SmallRng::seed_from_u64(seed);
            let mut tx = IrnSender::new(total, 16);
            let mut rx = IrnReceiver::new(total);
            let mut in_flight: Vec<u32> = Vec::new();
            let mut steps = 0u32;
            while !tx.is_complete() {
                steps += 1;
                prop_assert!(steps < 400_000, "IRN failed to converge");
                if in_flight.is_empty() && tx.peek_next().is_none() {
                    prop_assert!(tx.on_timeout(), "deadlock without timeout progress");
                }
                if let Some(psn) = tx.take_next() {
                    // Random loss.
                    if rng.gen_range(0..100) >= loss_pct {
                        in_flight.push(psn);
                    }
                }
                if !in_flight.is_empty() && (rng.gen_bool(0.7) || tx.peek_next().is_none()) {
                    let idx = rng.gen_range(0..in_flight.len());
                    let psn = in_flight.swap_remove(idx);
                    if let Some(ack) = rx.on_packet(psn) {
                        tx.on_ack(ack);
                    }
                }
            }
            prop_assert!(rx.is_complete());
            // Selective repeat: total transmissions bounded by
            // total/(1-loss) plus reorder-induced spurious retransmits —
            // far below go-back-N's quadratic blowup. Generous bound:
            prop_assert!(tx.packets_sent <= (total as u64) * 8 + 64);
        }

        /// CNP generator never emits two CNPs within the interval.
        #[test]
        fn cnp_spacing(mut times in proptest::collection::vec(0u64..10_000_000_000, 1..100)) {
            times.sort();
            let interval = 50_000_000u64;
            let mut g = CnpGenerator::default();
            let mut last_sent: Option<u64> = None;
            for t in times {
                if g.on_marked_packet(t, interval) {
                    if let Some(prev) = last_sent {
                        prop_assert!(t - prev >= interval);
                    }
                    last_sent = Some(t);
                }
            }
        }
    }
}
