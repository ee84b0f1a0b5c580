//! Per-slot data-age tracking.
//!
//! A read's retry probability is driven by the retention age of its data
//! (Fig. 4). Pages written during the simulated window are seconds old —
//! effectively error-free — while *cold* pages (never updated) carry data
//! programmed up to one refresh interval ago (§IV-B footnote 3: modern
//! SSDs refresh stored data roughly monthly). Cold ages are assigned
//! deterministically per slot so every scheme sees the identical stress
//! pattern.

use rif_events::SimTime;

use crate::table::SlotTable;

/// Tracks when each 64-KiB slot (a multi-plane page group) was last
/// written, and assigns pre-trace ages to cold data.
#[derive(Debug, Clone)]
pub struct RetentionTracker {
    refresh_days: f64,
    /// Last write per slot; `SimTime::MAX` marks a cold slot.
    write_time: SlotTable<SimTime>,
    seed: u64,
}

impl RetentionTracker {
    /// Creates a tracker with the given refresh horizon.
    ///
    /// # Panics
    ///
    /// Panics unless `refresh_days` is positive.
    pub fn new(refresh_days: f64, seed: u64) -> Self {
        assert!(refresh_days > 0.0, "refresh horizon must be positive");
        RetentionTracker {
            refresh_days,
            write_time: SlotTable::new(SimTime::MAX),
            seed,
        }
    }

    /// Records a write to `slot` at time `now`.
    pub fn record_write(&mut self, slot: u64, now: SimTime) {
        self.write_time.insert(slot, now);
    }

    /// True when `slot` has never been written during the simulation.
    pub fn is_cold(&self, slot: u64) -> bool {
        self.write_time.get(slot).is_none()
    }

    /// Retention age in days of `slot`'s data at time `now`.
    ///
    /// Written slots age from their write time (microseconds to seconds —
    /// negligible); cold slots carry a deterministic pseudo-random age
    /// uniform in `[0, refresh_days)`.
    pub fn age_days(&self, slot: u64, now: SimTime) -> f64 {
        match self.write_time.get(slot) {
            Some(t) => now.saturating_since(t).as_secs() / 86_400.0,
            None => self.cold_age_days(slot),
        }
    }

    /// The pre-trace age assigned to a cold slot.
    pub fn cold_age_days(&self, slot: u64) -> f64 {
        // SplitMix64-style hash for a uniform, seed-stable draw.
        let mut z = slot
            .wrapping_add(self.seed)
            .wrapping_mul(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
        (z as f64 / u64::MAX as f64) * self.refresh_days
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rif_events::SimDuration;

    #[test]
    fn cold_ages_are_uniform_over_horizon() {
        let t = RetentionTracker::new(30.0, 7);
        let n = 10_000;
        let ages: Vec<f64> = (0..n).map(|s| t.cold_age_days(s)).collect();
        let mean = ages.iter().sum::<f64>() / n as f64;
        assert!((mean - 15.0).abs() < 0.5, "mean {mean}");
        assert!(ages.iter().all(|&a| (0.0..30.0).contains(&a)));
        // A healthy spread: at least a quarter below 10 and above 20 days.
        let low = ages.iter().filter(|&&a| a < 10.0).count();
        let high = ages.iter().filter(|&&a| a > 20.0).count();
        assert!(low > n as usize / 4 && high > n as usize / 4);
    }

    #[test]
    fn writes_reset_age() {
        let mut t = RetentionTracker::new(30.0, 1);
        let now = SimTime::from_secs(100);
        assert!(t.is_cold(42));
        let cold_age = t.age_days(42, now);
        t.record_write(42, now);
        assert!(!t.is_cold(42));
        let fresh_age = t.age_days(42, now + SimDuration::from_secs(10));
        assert!(fresh_age < 1e-3, "fresh age {fresh_age}");
        assert!(cold_age > fresh_age);
    }

    #[test]
    fn ages_are_deterministic_per_seed() {
        let a = RetentionTracker::new(30.0, 5);
        let b = RetentionTracker::new(30.0, 5);
        let c = RetentionTracker::new(30.0, 6);
        assert_eq!(a.cold_age_days(9), b.cold_age_days(9));
        assert_ne!(a.cold_age_days(9), c.cold_age_days(9));
    }

    #[test]
    fn age_never_negative_for_future_writes() {
        let mut t = RetentionTracker::new(30.0, 1);
        t.record_write(1, SimTime::from_secs(100));
        // Querying "before" the write (clock skew in callers) saturates.
        assert_eq!(t.age_days(1, SimTime::from_secs(50)), 0.0);
    }
}
