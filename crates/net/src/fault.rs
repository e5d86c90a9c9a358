//! Declarative fault timeline: scheduled failures injected into a run.
//!
//! A scenario carries an ordered list of [`TimedFault`]s in
//! [`crate::SimConfig::faults`]. At construction the simulator schedules one
//! wheel event per entry, so faults fire in the same deterministic
//! `(time, seq)` order as every other event and bit-identical replay is
//! preserved — a faulted run is just a run with a few more events.
//!
//! The model is deliberately mechanical: a fault mutates link state (up/down,
//! rate) or host NIC capacity, and *everything else is emergent*. A downed
//! link freezes its egress queues in place — packets are never dropped by the
//! fault itself, so the `audit` feature's packet-conservation sweep holds
//! across failure and recovery. Frozen queues keep their buffer shares, which
//! drives PFC PAUSE upstream, which feeds the predictor/CNM chain — exactly
//! the regime where RLB's warnings pay off and warning-blind schemes keep
//! spraying into a stalled path.
//!
//! Leaf-switch failures are intentionally absent: in a two-tier leaf–spine
//! fabric a dead leaf strands its hosts entirely, which measures nothing
//! about load balancing. Spine failures ([`Fault::SpineDown`]) are the
//! interesting whole-switch case and are modelled as all of the spine's
//! links going down at once.

use crate::config::TopoConfig;
use rlb_engine::{SimDuration, SimTime};
use serde::Serialize;
use std::collections::BTreeMap;

/// One fault kind. All variants are idempotent: downing a downed link or
/// restoring a healthy one is a no-op (beyond counting as applied), so
/// overlapping timelines (e.g. a spine failure spanning a link flap) need no
/// reference counting.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum Fault {
    /// Take the bidirectional `leaf <-> spine` link down. In-flight packets
    /// still deliver (they are already on the wire); queued packets freeze.
    LinkDown { leaf: u32, spine: u32 },
    /// Restore the link. Frozen queues drain from where they stopped.
    LinkUp { leaf: u32, spine: u32 },
    /// Set the link's rate in both directions — mid-run asymmetric
    /// degradation (the static variant lives in `TopoConfig::degraded_links`).
    LinkRate {
        leaf: u32,
        spine: u32,
        rate_bps: u64,
    },
    /// Take every link of one spine switch down (whole-switch failure).
    SpineDown { spine: u32 },
    /// Restore every link of the spine to up, at its configured rate.
    SpineUp { spine: u32 },
    /// Set every host NIC's port rate to `permille`/1000 of the configured
    /// `host_link_rate_bps` — time-varying load scaling (1000 restores
    /// nominal rate). Frames already serializing finish at the old rate.
    LoadScale { permille: u32 },
}

/// A fault bound to the instant it fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct TimedFault {
    pub at: SimTime,
    pub fault: Fault,
}

impl TimedFault {
    pub const fn new(at: SimTime, fault: Fault) -> TimedFault {
        TimedFault { at, fault }
    }
}

/// Expand a link flap into its down/up pairs: `cycles` repetitions of
/// "down for `down_for`, then up for `up_for`", the first outage starting at
/// `start`. Returned entries are time-ordered.
pub fn flap(
    leaf: u32,
    spine: u32,
    start: SimTime,
    down_for: SimDuration,
    up_for: SimDuration,
    cycles: u32,
) -> Vec<TimedFault> {
    let mut out = Vec::with_capacity(cycles as usize * 2);
    let mut t = start;
    for _ in 0..cycles {
        out.push(TimedFault::new(t, Fault::LinkDown { leaf, spine }));
        t += down_for;
        out.push(TimedFault::new(t, Fault::LinkUp { leaf, spine }));
        t += up_for;
    }
    out
}

/// Validate a timeline against a topology: every index in range, every rate
/// and scale non-zero, entries sorted by firing time (so the schedule reads
/// top-to-bottom and replay order is obvious from the spec), and no link
/// brought up or taken down again within one link delay of its last change
/// — not even one frame could cross it in between, so such a flap (a zero
/// one included) measures nothing.
pub fn validate_timeline(faults: &[TimedFault], topo: &TopoConfig) -> Result<(), String> {
    let mut prev = SimTime::ZERO;
    // Per link: the entry that last changed its state, and whether it took
    // the link down.
    let mut changed: BTreeMap<(u32, u32), (usize, bool)> = BTreeMap::new();
    for (i, tf) in faults.iter().enumerate() {
        if tf.at < prev {
            return Err(format!(
                "fault timeline entry {i} fires at {} ps, before entry {} at {} ps \
                 (timeline must be sorted by time)",
                tf.at.as_ps(),
                i - 1,
                prev.as_ps()
            ));
        }
        prev = tf.at;
        let check_link = |leaf: u32, spine: u32| -> Result<(), String> {
            if leaf >= topo.n_leaves {
                return Err(format!(
                    "fault timeline entry {i}: leaf {leaf} out of range (topology has {} leaves)",
                    topo.n_leaves
                ));
            }
            if spine >= topo.n_spines {
                return Err(format!(
                    "fault timeline entry {i}: spine {spine} out of range (topology has {} spines)",
                    topo.n_spines
                ));
            }
            Ok(())
        };
        match tf.fault {
            Fault::LinkDown { leaf, spine } | Fault::LinkUp { leaf, spine } => {
                check_link(leaf, spine)?;
                let down = matches!(tf.fault, Fault::LinkDown { .. });
                let last = changed.get(&(leaf, spine)).copied();
                // The same state again changes nothing.
                if last.is_none_or(|(_, was_down)| was_down != down) {
                    if let Some((j, _)) = last {
                        let gap = tf.at.saturating_since(faults[j].at).as_ps();
                        if gap < topo.link_delay_ps {
                            let (now, then, key) = if down {
                                ("down", "up", "up_ps")
                            } else {
                                ("up", "down", "down_ps")
                            };
                            return Err(format!(
                                "fault timeline entry {i}: link leaf {leaf}–spine {spine} \
                                 goes {now} {gap} ps after entry {j} took it {then}, within \
                                 one link delay (`link_delay_ps` = {}); a link stays {then} \
                                 (a flap's `{key}`) at least that long",
                                topo.link_delay_ps
                            ));
                        }
                    }
                    changed.insert((leaf, spine), (i, down));
                }
            }
            Fault::LinkRate {
                leaf,
                spine,
                rate_bps,
            } => {
                check_link(leaf, spine)?;
                if rate_bps == 0 {
                    return Err(format!(
                        "fault timeline entry {i}: link rate must be non-zero"
                    ));
                }
            }
            Fault::SpineDown { spine } | Fault::SpineUp { spine } => {
                if spine >= topo.n_spines {
                    return Err(format!(
                        "fault timeline entry {i}: spine {spine} out of range \
                         (topology has {} spines)",
                        topo.n_spines
                    ));
                }
            }
            Fault::LoadScale { permille } => {
                if permille == 0 {
                    return Err(format!(
                        "fault timeline entry {i}: load scale must be non-zero \
                         (hosts cannot inject at rate 0)"
                    ));
                }
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn topo() -> TopoConfig {
        TopoConfig::default() // 4 leaves x 4 spines
    }

    #[test]
    fn flap_expands_to_sorted_pairs() {
        let tl = flap(
            1,
            2,
            SimTime::from_us(100),
            SimDuration::from_us(50),
            SimDuration::from_us(25),
            3,
        );
        assert_eq!(tl.len(), 6);
        assert!(tl.windows(2).all(|w| w[0].at <= w[1].at));
        assert_eq!(tl[0].fault, Fault::LinkDown { leaf: 1, spine: 2 });
        assert_eq!(tl[1].at, SimTime::from_us(150));
        assert_eq!(tl[1].fault, Fault::LinkUp { leaf: 1, spine: 2 });
        assert_eq!(tl[4].at, SimTime::from_us(250));
        validate_timeline(&tl, &topo()).expect("flap timeline is valid");
    }

    #[test]
    fn out_of_range_indices_are_rejected() {
        let t = topo();
        let bad_leaf = [TimedFault::new(
            SimTime::ZERO,
            Fault::LinkDown { leaf: 99, spine: 0 },
        )];
        assert!(validate_timeline(&bad_leaf, &t)
            .unwrap_err()
            .contains("leaf 99 out of range"));
        let bad_spine = [TimedFault::new(SimTime::ZERO, Fault::SpineUp { spine: 7 })];
        assert!(validate_timeline(&bad_spine, &t)
            .unwrap_err()
            .contains("spine 7 out of range"));
    }

    #[test]
    fn unsorted_timeline_is_rejected() {
        let tl = [
            TimedFault::new(SimTime::from_us(10), Fault::SpineDown { spine: 0 }),
            TimedFault::new(SimTime::from_us(5), Fault::SpineUp { spine: 0 }),
        ];
        assert!(validate_timeline(&tl, &topo())
            .unwrap_err()
            .contains("must be sorted"));
    }

    /// A flap's down and up periods must each outlast one link delay
    /// (2 µs here); zero ones included. Other links and repeats of the
    /// same state do not count.
    #[test]
    fn flaps_within_a_link_delay_are_rejected() {
        let t = topo();
        let us = SimDuration::from_us;
        let flap_of = |down, up| flap(1, 0, SimTime::from_us(100), down, up, 2);
        for (down, up, key) in [
            (SimDuration::ZERO, us(60), "`down_ps`"),
            (SimDuration(1_000), us(60), "`down_ps`"),
            (us(60), SimDuration(1_000), "`up_ps`"),
            (us(60), SimDuration::ZERO, "`up_ps`"),
        ] {
            let e = validate_timeline(&flap_of(down, up), &t).expect_err("too fast");
            assert!(
                e.contains(key) && e.contains("within one link delay"),
                "{e}"
            );
        }
        validate_timeline(&flap_of(us(2), us(2)), &t).expect("one link delay is enough");
        let elsewhere = [
            TimedFault::new(SimTime::ZERO, Fault::LinkDown { leaf: 0, spine: 0 }),
            TimedFault::new(SimTime::ZERO, Fault::LinkDown { leaf: 0, spine: 0 }),
            TimedFault::new(SimTime::ZERO, Fault::LinkUp { leaf: 1, spine: 0 }),
            TimedFault::new(SimTime::from_us(2), Fault::LinkUp { leaf: 0, spine: 0 }),
        ];
        validate_timeline(&elsewhere, &t).expect("no link flapped within a delay");
    }

    #[test]
    fn zero_rate_and_zero_scale_are_rejected() {
        let t = topo();
        let z = [TimedFault::new(
            SimTime::ZERO,
            Fault::LinkRate {
                leaf: 0,
                spine: 0,
                rate_bps: 0,
            },
        )];
        assert!(validate_timeline(&z, &t).is_err());
        let s = [TimedFault::new(
            SimTime::ZERO,
            Fault::LoadScale { permille: 0 },
        )];
        assert!(validate_timeline(&s, &t).is_err());
    }
}
