//! The virtual-time ↔ wall-clock pacing bridge.
//!
//! The simulator's clock is pure virtual nanoseconds; the service runs in
//! wall time. A [`VirtualClock`] maps the wall-clock interval since server
//! start onto the simulation timeline with a configurable scale factor:
//! `scale` simulated nanoseconds elapse per wall nanosecond. Each request
//! is stamped with the virtual *now* as it enters its shard's inbox and
//! submitted at that instant, and each shard repeatedly advances its
//! simulator up to the virtual now — so a simulated 55-µs read completes
//! roughly `55 µs / scale` of wall time after it was admitted.
//!
//! `scale > 1` is time compression (useful in tests and CI: simulated
//! latencies play out faster than real time); `scale < 1` stretches the
//! simulation out; `scale = 1` is real-time pacing.

use std::time::Instant;

use rif_events::SimTime;

/// Maps wall-clock nanoseconds to virtual nanoseconds: the pure core of
/// the bridge, separated out so tests need no real clock.
pub fn map_elapsed(wall_ns: u64, scale: f64) -> SimTime {
    assert!(
        scale.is_finite() && scale > 0.0,
        "time scale must be positive and finite, got {scale}"
    );
    SimTime::from_ns((wall_ns as f64 * scale) as u64)
}

/// The inverse map: how many wall nanoseconds until virtual time `t`.
/// Returns zero when `t` is already in the virtual past.
pub fn wall_ns_until(now_wall_ns: u64, t: SimTime, scale: f64) -> u64 {
    let target_wall = (t.as_ns() as f64 / scale) as u64;
    target_wall.saturating_sub(now_wall_ns)
}

/// A wall-clock-anchored virtual clock.
#[derive(Debug, Clone)]
pub struct VirtualClock {
    start: Instant,
    scale: f64,
}

impl VirtualClock {
    /// Starts the virtual clock now, at virtual time zero.
    pub fn start(scale: f64) -> Self {
        assert!(
            scale.is_finite() && scale > 0.0,
            "time scale must be positive and finite, got {scale}"
        );
        VirtualClock {
            start: Instant::now(),
            scale,
        }
    }

    /// The configured virtual-ns-per-wall-ns factor.
    pub fn scale(&self) -> f64 {
        self.scale
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        map_elapsed(self.start.elapsed().as_nanos() as u64, self.scale)
    }

    /// Wall time remaining until virtual time `t`, as a `Duration`
    /// suitable for `park_timeout`. Zero if `t` has already passed.
    pub fn wall_until(&self, t: SimTime) -> std::time::Duration {
        let wall_ns = wall_ns_until(self.start.elapsed().as_nanos() as u64, t, self.scale);
        std::time::Duration::from_nanos(wall_ns)
    }

    /// The virtual instant `wall` from now.
    pub(crate) fn after(&self, wall: std::time::Duration) -> SimTime {
        let ns = self.start.elapsed().saturating_add(wall).as_nanos();
        map_elapsed(ns.min(u128::from(u64::MAX)) as u64, self.scale)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identity_scale_maps_one_to_one() {
        assert_eq!(map_elapsed(0, 1.0), SimTime::ZERO);
        assert_eq!(map_elapsed(12_345, 1.0), SimTime::from_ns(12_345));
    }

    #[test]
    fn compression_and_stretch() {
        // 50× compression: 1 wall µs is 50 virtual µs.
        assert_eq!(map_elapsed(1_000, 50.0), SimTime::from_us(50));
        // 0.5× stretch: 1 wall µs is 500 virtual ns.
        assert_eq!(map_elapsed(1_000, 0.5), SimTime::from_ns(500));
    }

    #[test]
    fn inverse_map_round_trips() {
        for scale in [0.25, 1.0, 8.0] {
            let t = SimTime::from_us(400);
            let wall = wall_ns_until(0, t, scale);
            let back = map_elapsed(wall, scale);
            let err = back.as_ns().abs_diff(t.as_ns());
            assert!(err <= 2, "scale {scale}: {back:?} vs {t:?}");
        }
    }

    #[test]
    fn past_targets_need_no_wait() {
        assert_eq!(wall_ns_until(1_000_000, SimTime::from_ns(10), 1.0), 0);
    }

    #[test]
    fn real_clock_is_monotonic_and_scaled() {
        let c = VirtualClock::start(100.0);
        let a = c.now();
        std::thread::sleep(std::time::Duration::from_millis(2));
        let b = c.now();
        assert!(b > a, "virtual time must advance with wall time");
        // 2 ms wall at 100× is at least 200 ms virtual.
        assert!(b.since(a) >= rif_events::SimDuration::from_ms(200));
    }

    #[test]
    fn after_maps_a_wall_delay_onto_the_virtual_timeline() {
        let c = VirtualClock::start(100.0);
        let before = c.now();
        let t = c.after(std::time::Duration::from_millis(10));
        // 10 ms of wall time at 100× is 1 s of virtual time.
        let second = rif_events::SimDuration::from_secs(1);
        assert!(t >= before + second);
        assert!(t <= c.now() + second);
        assert_eq!(c.after(std::time::Duration::MAX), SimTime::MAX);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_scale_is_rejected() {
        let _ = VirtualClock::start(0.0);
    }
}
