//! Simulation time.
//!
//! The simulator clocks everything in **integer picoseconds**. This is the
//! coarsest unit in which every quantity we care about is exact:
//! at 40 Gbps one byte serializes in exactly 200 ps, at 10 Gbps in 800 ps,
//! and at 100 Gbps in 80 ps — so queueing arithmetic never accumulates
//! floating-point drift. A `u64` of picoseconds covers ~213 days of
//! simulated time, far beyond any experiment horizon.

use std::fmt;
use std::ops::{Add, AddAssign, Sub};

/// An absolute instant on the simulation clock, in picoseconds since t=0.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(pub u64);

/// A span of simulated time, in picoseconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimDuration(pub u64);

pub const PS_PER_NS: u64 = 1_000;
pub const PS_PER_US: u64 = 1_000_000;
pub const PS_PER_MS: u64 = 1_000_000_000;
pub const PS_PER_SEC: u64 = 1_000_000_000_000;

impl SimTime {
    pub const ZERO: SimTime = SimTime(0);
    /// A sentinel "never" time greater than any reachable instant.
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// Identity constructor, `const` so bucket widths and tick periods can
    /// be named constants (the timing wheel and benches rely on this).
    #[inline]
    pub const fn from_ps(ps: u64) -> Self {
        SimTime(ps)
    }
    #[inline]
    pub const fn from_ns(ns: u64) -> Self {
        SimTime(ns * PS_PER_NS)
    }
    #[inline]
    pub const fn from_us(us: u64) -> Self {
        SimTime(us * PS_PER_US)
    }
    #[inline]
    pub const fn from_ms(ms: u64) -> Self {
        SimTime(ms * PS_PER_MS)
    }
    #[inline]
    pub fn as_ps(self) -> u64 {
        self.0
    }
    #[inline]
    pub fn as_ns_f64(self) -> f64 {
        self.0 as f64 / PS_PER_NS as f64
    }
    #[inline]
    pub fn as_us_f64(self) -> f64 {
        self.0 as f64 / PS_PER_US as f64
    }
    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / PS_PER_SEC as f64
    }
    /// Elapsed time since `earlier`, saturating at zero if `earlier` is later.
    #[inline]
    pub fn saturating_since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }
    /// The span from the clock origin (t=0) to this instant. Lets callers
    /// scale an instant-valued config field (e.g. a horizon) as a duration
    /// without unwrapping to raw picoseconds.
    #[inline]
    pub const fn as_duration(self) -> SimDuration {
        SimDuration(self.0)
    }
}

impl SimDuration {
    pub const ZERO: SimDuration = SimDuration(0);

    /// Identity constructor, `const` (see [`SimTime::from_ps`]).
    #[inline]
    pub const fn from_ps(ps: u64) -> Self {
        SimDuration(ps)
    }
    #[inline]
    pub const fn from_ns(ns: u64) -> Self {
        SimDuration(ns * PS_PER_NS)
    }
    #[inline]
    pub const fn from_us(us: u64) -> Self {
        SimDuration(us * PS_PER_US)
    }
    #[inline]
    pub const fn from_ms(ms: u64) -> Self {
        SimDuration(ms * PS_PER_MS)
    }
    /// Duration from a floating-point number of microseconds (used by config
    /// sweeps such as the Δt sensitivity experiment, e.g. 2.5 µs).
    #[inline]
    pub fn from_us_f64(us: f64) -> Self {
        SimDuration((us * PS_PER_US as f64).round() as u64)
    }
    #[inline]
    pub fn as_ps(self) -> u64 {
        self.0
    }
    #[inline]
    pub fn as_ns_f64(self) -> f64 {
        self.0 as f64 / PS_PER_NS as f64
    }
    #[inline]
    pub fn as_us_f64(self) -> f64 {
        self.0 as f64 / PS_PER_US as f64
    }
    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / PS_PER_SEC as f64
    }
    #[inline]
    pub fn saturating_sub(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(other.0))
    }
    #[inline]
    pub fn mul_u64(self, k: u64) -> SimDuration {
        SimDuration(self.0 * k)
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    #[inline]
    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0 + rhs.0)
    }
}

impl AddAssign<SimDuration> for SimTime {
    #[inline]
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl Sub<SimTime> for SimTime {
    type Output = SimDuration;
    /// Panics in debug builds if `rhs` is later than `self`.
    #[inline]
    fn sub(self, rhs: SimTime) -> SimDuration {
        debug_assert!(self.0 >= rhs.0, "SimTime subtraction underflow");
        SimDuration(self.0 - rhs.0)
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0 + rhs.0)
    }
}

impl AddAssign for SimDuration {
    #[inline]
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}us", self.as_us_f64())
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}us", self.as_us_f64())
    }
}

/// Transmission (serialization) delay of `bytes` on a link of `bits_per_sec`.
///
/// Exact (rounded down) at every rate. Below about 2.3 MB the product
/// `bytes · 8 · 10^12` fits a `u64` and one 64-bit division does it: that
/// is every frame a launch serializes. Larger sizes take the `u128` path. The standard datacenter rates (10/25/40/100 Gbps) divide
/// 10^12 evenly, so byte-granular sizes come out without rounding.
#[inline]
pub fn tx_delay(bytes: u64, bits_per_sec: u64) -> SimDuration {
    debug_assert!(bits_per_sec > 0);
    let ps = if bytes < TX_DELAY_U64_BYTES {
        bytes * 8 * PS_PER_SEC / bits_per_sec
    } else {
        ((bytes as u128 * 8 * PS_PER_SEC as u128) / bits_per_sec as u128) as u64
    };
    SimDuration(ps)
}

/// Sizes below this take [`tx_delay`]'s `u64` path.
const TX_DELAY_U64_BYTES: u64 = u64::MAX / (8 * PS_PER_SEC);

/// Bytes that a link of `bits_per_sec` can carry in `dur` (rounded down).
#[inline]
pub fn bytes_in(dur: SimDuration, bits_per_sec: u64) -> u64 {
    ((dur.0 as u128 * bits_per_sec as u128) / (8 * PS_PER_SEC as u128)) as u64
}

#[cfg(test)]
// Tests assert exact values that are exactly representable in binary floating
// point; the workspace-level float_cmp deny targets simulator arithmetic.
#[allow(clippy::float_cmp)]
mod tests {
    use super::*;

    #[test]
    fn conversions_round_trip() {
        assert_eq!(SimTime::from_ns(1).as_ps(), 1_000);
        assert_eq!(SimTime::from_us(2).as_ps(), 2_000_000);
        assert_eq!(SimTime::from_ms(3).as_ps(), 3_000_000_000);
        assert_eq!(SimTime::from_us(5).as_us_f64(), 5.0);
        assert_eq!(SimDuration::from_us_f64(2.5).as_ps(), 2_500_000);
    }

    #[test]
    fn tx_delay_is_exact_at_standard_rates() {
        // 1000 bytes at 40 Gbps = 8000 bits / 40e9 bps = 200 ns.
        assert_eq!(tx_delay(1000, 40_000_000_000), SimDuration::from_ns(200));
        // Same packet at 10 Gbps = 800 ns.
        assert_eq!(tx_delay(1000, 10_000_000_000), SimDuration::from_ns(800));
        // One byte at 40 Gbps is exactly 200 ps.
        assert_eq!(tx_delay(1, 40_000_000_000).as_ps(), 200);
        assert_eq!(tx_delay(0, 40_000_000_000), SimDuration::ZERO);
    }

    #[test]
    fn bytes_in_inverts_tx_delay() {
        let rate = 40_000_000_000;
        for n in [1u64, 64, 1000, 1500, 9000, 1 << 20] {
            assert_eq!(bytes_in(tx_delay(n, rate), rate), n);
        }
    }

    #[test]
    fn arithmetic_behaves() {
        let t = SimTime::from_us(10);
        let d = SimDuration::from_us(3);
        assert_eq!((t + d).as_ps(), 13_000_000);
        assert_eq!(((t + d) - t), d);
        assert_eq!(t.saturating_since(t + d), SimDuration::ZERO);
        assert_eq!((t + d).saturating_since(t), d);
        let mut acc = SimDuration::ZERO;
        acc += d;
        acc += d;
        assert_eq!(acc, SimDuration::from_us(6));
    }

    #[test]
    fn display_formats_microseconds() {
        assert_eq!(format!("{}", SimTime::from_us(2)), "2.000us");
        assert_eq!(format!("{}", SimDuration::from_ns(1500)), "1.500us");
    }

    #[test]
    fn bytes_in_rounds_down() {
        // 100 ps at 40G carries half a byte — rounds to 0.
        assert_eq!(bytes_in(SimDuration(100), 40_000_000_000), 0);
        assert_eq!(bytes_in(SimDuration(200), 40_000_000_000), 1);
        assert_eq!(bytes_in(SimDuration::ZERO, 40_000_000_000), 0);
    }

    /// The `u64` path is the `u128` division it replaced, at every size up
    /// to 64 KiB, at the standard rates and at odd ones, and on both sides
    /// of the switch-over.
    #[test]
    fn tx_delay_u64_path_matches_u128() {
        let wide =
            |bytes: u64, bps: u64| (bytes as u128 * 8 * PS_PER_SEC as u128 / bps as u128) as u64;
        let rates = [
            10_000_000_000u64,
            25_000_000_000,
            40_000_000_000,
            100_000_000_000,
            1,
            7,
            999_999_937,
            12_345_678_901,
            33_333_333_333,
            u64::MAX,
        ];
        for bps in rates {
            for bytes in 0..=65_536u64 {
                assert_eq!(
                    tx_delay(bytes, bps).as_ps(),
                    wide(bytes, bps),
                    "{bytes} B at {bps} b/s"
                );
            }
            for bytes in [
                TX_DELAY_U64_BYTES - 1,
                TX_DELAY_U64_BYTES,
                TX_DELAY_U64_BYTES + 1,
            ] {
                assert_eq!(
                    tx_delay(bytes, bps).as_ps(),
                    wide(bytes, bps),
                    "{bytes} B at {bps} b/s"
                );
            }
        }
        // The switch-over is the largest size whose product fits.
        assert!((TX_DELAY_U64_BYTES as u128 + 1) * 8 * PS_PER_SEC as u128 > u64::MAX as u128);
    }

    #[test]
    fn tx_delay_at_other_standard_rates() {
        // 1500 B at 100G = 120 ns; at 25G = 480 ns; at 10G = 1200 ns.
        assert_eq!(tx_delay(1500, 100_000_000_000), SimDuration::from_ns(120));
        assert_eq!(tx_delay(1500, 25_000_000_000), SimDuration::from_ns(480));
        assert_eq!(tx_delay(1500, 10_000_000_000), SimDuration::from_ns(1200));
    }

    #[test]
    fn ordering_is_chronological() {
        assert!(SimTime::from_ns(999) < SimTime::from_us(1));
        assert!(SimTime::MAX > SimTime::from_ms(1_000_000));
    }
}
