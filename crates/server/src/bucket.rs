//! Per-tenant token-bucket rate limiting.
//!
//! The bucket is deliberately clock-agnostic: every operation takes the
//! caller's monotonic time in seconds. The server feeds it wall-clock
//! time from one `Instant`; the unit tests feed it hand-picked numbers,
//! so the refill arithmetic is testable without sleeping.

use std::collections::HashMap;

/// A classic token bucket: `rate_per_sec` tokens accrue continuously up
/// to a cap of `burst`; admitting a request costs one token.
///
/// A non-positive `rate_per_sec` disables limiting — every `admit` call
/// succeeds. This is the configuration default: rate limiting is an
/// opt-in protection.
#[derive(Debug, Clone)]
pub struct TokenBucket {
    rate_per_sec: f64,
    burst: f64,
    tokens: f64,
    last: f64,
}

impl TokenBucket {
    /// Creates a bucket that starts full.
    ///
    /// # Panics
    ///
    /// Panics if `burst` is not at least 1 while the rate is positive —
    /// such a bucket could never admit anything.
    pub fn new(rate_per_sec: f64, burst: f64, now: f64) -> Self {
        if rate_per_sec > 0.0 {
            assert!(burst >= 1.0, "burst {burst} can never admit a request");
        }
        TokenBucket {
            rate_per_sec,
            burst,
            tokens: burst,
            last: now,
        }
    }

    /// True when limiting is disabled (non-positive rate).
    pub fn unlimited(&self) -> bool {
        self.rate_per_sec <= 0.0
    }

    fn refill(&mut self, now: f64) {
        // A non-monotonic caller clock must not mint tokens.
        let dt = (now - self.last).max(0.0);
        self.last = self.last.max(now);
        self.tokens = (self.tokens + dt * self.rate_per_sec).min(self.burst);
    }

    /// Tries to admit one request at time `now` (seconds on the caller's
    /// monotonic clock). Returns false when the bucket is empty.
    pub fn admit(&mut self, now: f64) -> bool {
        self.admit_n(now, 1)
    }

    /// Tries to admit `n` requests as one unit: all `n` tokens are taken
    /// or none are. This is what makes BATCH admission all-or-nothing —
    /// a batch is never left half-charged against the rate limit.
    pub fn admit_n(&mut self, now: f64, n: u32) -> bool {
        if self.unlimited() || n == 0 {
            return true;
        }
        self.refill(now);
        let need = f64::from(n);
        if self.tokens >= need {
            self.tokens -= need;
            true
        } else {
            false
        }
    }

    /// Returns `n` tokens to the bucket (capped at `burst`). Used to roll
    /// back tenants already charged when a multi-tenant batch admission
    /// fails partway: with an unchanged `now` the refund is exact.
    pub fn refund(&mut self, n: u32) {
        if self.unlimited() {
            return;
        }
        self.tokens = (self.tokens + f64::from(n)).min(self.burst);
    }

    /// Tokens currently available (after refilling to `now`).
    pub fn available(&mut self, now: f64) -> f64 {
        self.refill(now);
        self.tokens
    }
}

/// One bucket per tenant id, created on first use from a shared template
/// rate. All tenants get the same limit; the map exists so one noisy
/// tenant cannot drain another's tokens.
#[derive(Debug)]
pub struct TenantBuckets {
    rate_per_sec: f64,
    burst: f64,
    buckets: HashMap<u32, TokenBucket>,
}

impl TenantBuckets {
    /// Creates the tenant map with a shared per-tenant rate.
    pub fn new(rate_per_sec: f64, burst: f64) -> Self {
        TenantBuckets {
            rate_per_sec,
            burst,
            buckets: HashMap::new(),
        }
    }

    /// True when limiting is globally disabled.
    pub fn unlimited(&self) -> bool {
        self.rate_per_sec <= 0.0
    }

    /// Admits `n` requests for `tenant` atomically (all tokens or none),
    /// creating the tenant's bucket (full) on first sight.
    pub fn admit_n(&mut self, tenant: u32, now: f64, n: u32) -> bool {
        if self.unlimited() {
            return true;
        }
        let (rate, burst) = (self.rate_per_sec, self.burst);
        self.buckets
            .entry(tenant)
            .or_insert_with(|| TokenBucket::new(rate, burst, now))
            .admit_n(now, n)
    }

    /// Returns `n` tokens to `tenant`'s bucket (no-op for an unseen
    /// tenant — it was never charged).
    pub fn refund(&mut self, tenant: u32, n: u32) {
        if let Some(b) = self.buckets.get_mut(&tenant) {
            b.refund(n);
        }
    }

    /// Number of tenants seen so far.
    pub fn tenants(&self) -> usize {
        self.buckets.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn burst_then_starve_then_refill() {
        let mut b = TokenBucket::new(10.0, 3.0, 0.0);
        // The full burst is admitted instantly.
        assert!(b.admit(0.0));
        assert!(b.admit(0.0));
        assert!(b.admit(0.0));
        // Then the bucket is dry.
        assert!(!b.admit(0.0));
        assert!(!b.admit(0.05)); // 0.5 tokens accrued: still short
                                 // 10 tokens/s: one token back after 100 ms.
        assert!(b.admit(0.1 + 1e-9));
        assert!(!b.admit(0.1 + 1e-9));
    }

    #[test]
    fn refill_caps_at_burst() {
        let mut b = TokenBucket::new(100.0, 5.0, 0.0);
        for _ in 0..5 {
            assert!(b.admit(0.0));
        }
        // An hour of idle time still refills to only `burst` tokens.
        assert!((b.available(3600.0) - 5.0).abs() < 1e-9);
    }

    #[test]
    fn clock_going_backwards_does_not_mint_tokens() {
        let mut b = TokenBucket::new(10.0, 1.0, 100.0);
        assert!(b.admit(100.0));
        // now < last: no refill, and `last` must not move backwards
        // (otherwise the next call would double-count the interval).
        assert!(!b.admit(50.0));
        assert!(!b.admit(100.05));
        assert!(b.admit(100.11));
    }

    #[test]
    fn zero_rate_is_unlimited() {
        let mut b = TokenBucket::new(0.0, 0.0, 0.0);
        assert!(b.unlimited());
        for _ in 0..10_000 {
            assert!(b.admit(0.0));
        }
    }

    #[test]
    fn negative_rate_is_unlimited_too() {
        // A config that computes a nonsense negative rate must fail open
        // (unlimited), not underflow the token count.
        let mut b = TokenBucket::new(-5.0, 0.0, 0.0);
        assert!(b.unlimited());
        for _ in 0..1_000 {
            assert!(b.admit(0.0));
        }
    }

    #[test]
    fn burst_exactly_at_capacity_admits_exactly_burst() {
        // burst = 1: the smallest legal bucket admits exactly one request
        // per refill period, never two.
        let mut b = TokenBucket::new(1.0, 1.0, 0.0);
        assert!(b.admit(0.0));
        assert!(!b.admit(0.0));
        // Exactly one second later: exactly one token, not 1 + ε.
        assert!(b.admit(1.0));
        assert!(!b.admit(1.0));
        // Ten idle seconds refill to the 1-token cap, not 10 tokens.
        assert!(b.admit(11.0));
        assert!(!b.admit(11.0));

        // Integral burst N admits exactly N back-to-back, and the N+1'th
        // is refused even though floating-point refill ran N times.
        let mut b = TokenBucket::new(100.0, 7.0, 0.0);
        for i in 0..7 {
            assert!(b.admit(0.0), "request {i} within burst must pass");
        }
        assert!(!b.admit(0.0), "burst + 1 must be refused");
    }

    #[test]
    fn zigzag_clock_never_mints_extra_tokens() {
        // An injected non-monotonic clock oscillating ±dt around a slowly
        // advancing mean must refill no faster than the forward component
        // alone: backwards jumps are clamped to zero elapsed time and
        // `last` holds the high-water mark, so re-traversing the same
        // interval cannot double-count it.
        let mut b = TokenBucket::new(10.0, 5.0, 0.0);
        for _ in 0..5 {
            assert!(b.admit(0.0));
        }
        assert!(!b.admit(0.0));
        // Zigzag: 0.05 → 0.01 → 0.06 → 0.02 → 0.07 … forward progress is
        // only the envelope maximum (0.08 s → 0.8 tokens), so no token
        // has fully accrued, even though naively summing every positive
        // delta (0.05 s × 5 legs = 0.25 s) would have minted two.
        let mut high = 0.05;
        for step in 0..4 {
            assert!(!b.admit(high), "zigzag high {step} must not admit");
            assert!(!b.admit(high - 0.04), "zigzag low {step} must not admit");
            high += 0.01;
        }
        // By 0.201 s exactly two tokens have accrued on the envelope
        // clock; the naive double-counting clock would have four.
        assert!(b.admit(0.201));
        assert!(b.admit(0.201));
        assert!(!b.admit(0.201));
    }

    #[test]
    fn admit_n_is_all_or_nothing() {
        let mut b = TokenBucket::new(10.0, 5.0, 0.0);
        // 5 tokens: a 6-request batch is refused *without* draining any.
        assert!(!b.admit_n(0.0, 6));
        assert!((b.available(0.0) - 5.0).abs() < 1e-9);
        // A 5-request batch takes exactly the burst.
        assert!(b.admit_n(0.0, 5));
        assert!(!b.admit(0.0));
        // n = 0 is vacuously admitted even when dry.
        assert!(b.admit_n(0.0, 0));
    }

    #[test]
    fn refund_rolls_back_a_failed_group_charge() {
        let mut t = TenantBuckets::new(10.0, 4.0);
        // Tenant 1 charged for 3, tenant 2 refuses its 5 → roll back 1.
        assert!(t.admit_n(1, 0.0, 3));
        assert!(!t.admit_n(2, 0.0, 5));
        t.refund(1, 3);
        // Tenant 1's full burst is intact again.
        assert!(t.admit_n(1, 0.0, 4));
        assert!(!t.admit_n(1, 0.0, 1));
        // Refunds cap at burst and unseen tenants are a no-op.
        t.refund(1, 100);
        assert!(t.admit_n(1, 0.0, 4));
        assert!(!t.admit_n(1, 0.0, 1));
        t.refund(99, 7);
    }

    #[test]
    fn tenants_are_isolated() {
        let mut t = TenantBuckets::new(10.0, 2.0);
        // Tenant 1 burns its burst; tenant 2 is unaffected.
        assert!(t.admit_n(1, 0.0, 1));
        assert!(t.admit_n(1, 0.0, 1));
        assert!(!t.admit_n(1, 0.0, 1));
        assert!(t.admit_n(2, 0.0, 1));
        assert!(t.admit_n(2, 0.0, 1));
        assert!(!t.admit_n(2, 0.0, 1));
        assert_eq!(t.tenants(), 2);
    }
}
