//! Capped exponential backoff with deterministic seeded jitter.
//!
//! Every retry loop in the stack — the result store re-trying a
//! transient journal-append failure, the sweep client re-trying a
//! `BUSY` server or a dropped connection — shares this one policy, so
//! retry behavior is bounded, testable, and reproducible: for a given
//! `(seed, attempt)` the delay is a pure function, never a wall-clock
//! or thread-id accident. Jitter matters even in a deterministic
//! system: many clients retrying a shed server must not re-arrive in
//! lockstep, and seeding the jitter keeps that de-synchronization
//! reproducible in tests.

use std::time::Duration;

use rat_isa::hash::splitmix_finalize;

/// A bounded retry schedule: `base * 2^attempt`, capped at `cap`, plus
/// deterministic jitter in `[0, delay/2)` derived from `seed` and the
/// attempt number.
#[derive(Clone, Copy, Debug)]
pub struct Backoff {
    base: Duration,
    cap: Duration,
    max_retries: u32,
    seed: u64,
}

impl Backoff {
    /// A schedule of up to `max_retries` retries starting at `base` and
    /// doubling up to `cap`.
    pub fn new(base: Duration, cap: Duration, max_retries: u32, seed: u64) -> Backoff {
        Backoff {
            base,
            cap,
            max_retries,
            seed,
        }
    }

    /// How many retries (attempts after the first try) are allowed.
    pub fn max_retries(&self) -> u32 {
        self.max_retries
    }

    /// The delay before retry `attempt` (0-based): exponential growth
    /// from the base, capped, with deterministic seeded jitter. Total
    /// worst-case wait is bounded by `(max_retries) * cap * 1.5`.
    pub fn delay(&self, attempt: u32) -> Duration {
        let base_ns = self.base.as_nanos() as u64;
        let cap_ns = self.cap.as_nanos() as u64;
        let grown = base_ns.saturating_mul(1u64 << attempt.min(20));
        let capped = grown.min(cap_ns);
        // Jitter in [0, capped/2): enough to spread retriers, small
        // enough that the cap stays meaningful.
        let jitter = if capped >= 2 {
            splitmix_finalize(self.seed ^ u64::from(attempt).wrapping_mul(0x9E37_79B9))
                % (capped / 2)
        } else {
            0
        };
        Duration::from_nanos(capped + jitter)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn delays_grow_and_cap() {
        let b = Backoff::new(Duration::from_millis(1), Duration::from_millis(8), 3, 42);
        // Jitter is < delay/2, so the deterministic floor still orders
        // the early attempts and the cap bounds the late ones.
        assert!(b.delay(0) >= Duration::from_millis(1));
        assert!(b.delay(0) < Duration::from_millis(2));
        assert!(b.delay(3) >= Duration::from_millis(8));
        assert!(b.delay(30) <= Duration::from_millis(12), "capped + jitter");
    }

    #[test]
    fn jitter_is_deterministic_per_seed() {
        let x = Backoff::new(Duration::from_millis(4), Duration::from_millis(64), 5, 7);
        let y = Backoff::new(Duration::from_millis(4), Duration::from_millis(64), 5, 7);
        let z = Backoff::new(Duration::from_millis(4), Duration::from_millis(64), 5, 8);
        let xs: Vec<_> = (0..8).map(|a| x.delay(a)).collect();
        assert_eq!(xs, (0..8).map(|a| y.delay(a)).collect::<Vec<_>>());
        assert_ne!(xs, (0..8).map(|a| z.delay(a)).collect::<Vec<_>>());
    }
}
