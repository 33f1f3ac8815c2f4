//! The one retry policy: jittered exponential backoff.
//!
//! Every retry loop — today the bench clients backing off 429 sheds —
//! pulls its delays from [`Backoff`] instead of hand-rolling a sleep, so
//! retry behavior is tuned (and tested) in exactly one place.
//!
//! The jitter is the "equal jitter" variant: each delay is drawn uniformly
//! from `[ceiling/2, ceiling]` where the ceiling doubles per attempt up to
//! `cap`. Half the ceiling is always honored (a floor of zero would defeat
//! the point of backing off), while the random half decorrelates a
//! thundering herd of retriers. The randomness is a tiny xorshift* PRNG:
//! no clock or OS entropy involved, so a seeded instance replays the exact
//! same delay sequence — tests assert on delays directly.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// Process-wide counter so unseeded instances decorrelate from each other
/// without consulting a clock.
static INSTANCES: AtomicU64 = AtomicU64::new(0x9E37_79B9);

/// A jittered exponential backoff schedule. Create one per retry loop;
/// call [`next_delay`](Self::next_delay) (or [`sleep`](Self::sleep)) before
/// each retry and [`reset`](Self::reset) after a success.
#[derive(Debug, Clone)]
pub struct Backoff {
    base: Duration,
    cap: Duration,
    attempt: u32,
    state: u64,
}

impl Backoff {
    /// A backoff growing from `base` and saturating at `cap`, jittered
    /// with a per-instance seed (instances decorrelate automatically).
    pub fn new(base: Duration, cap: Duration) -> Self {
        Self::seeded(base, cap, INSTANCES.fetch_add(1, Ordering::Relaxed))
    }

    /// A deterministically seeded backoff: the same seed replays the same
    /// delay sequence. This is what tests and the multi-tenant bench's
    /// per-worker retry loops use.
    pub fn seeded(base: Duration, cap: Duration, seed: u64) -> Self {
        Self {
            base,
            cap,
            attempt: 0,
            // xorshift* must not start at zero; splash the seed through a
            // couple of multiplies so adjacent seeds diverge immediately.
            state: seed
                .wrapping_mul(0x2545_F491_4F6C_DD1D)
                .wrapping_add(0x9E37_79B9_7F4A_7C15),
        }
    }

    /// How many delays have been drawn since construction or the last
    /// [`reset`](Self::reset).
    pub fn attempt(&self) -> u32 {
        self.attempt
    }

    /// Draw the next delay: uniform in `[ceiling/2, ceiling]`, where
    /// `ceiling = min(base << attempt, cap)`.
    pub fn next_delay(&mut self) -> Duration {
        let shift = self.attempt.min(20);
        self.attempt = self.attempt.saturating_add(1);
        let ceiling = self
            .base
            .saturating_mul(1u32 << shift)
            .min(self.cap)
            .max(self.base);
        let half = ceiling / 2;
        let span = ceiling.saturating_sub(half).as_nanos() as u64;
        let jitter = if span == 0 {
            0
        } else {
            self.next_rand() % (span + 1)
        };
        half + Duration::from_nanos(jitter)
    }

    /// Draw the next delay and sleep it; returns the delay slept.
    pub fn sleep(&mut self) -> Duration {
        let delay = self.next_delay();
        std::thread::sleep(delay);
        delay
    }

    /// Back to the first attempt (call after a success).
    pub fn reset(&mut self) {
        self.attempt = 0;
    }

    /// xorshift* step.
    fn next_rand(&mut self) -> u64 {
        let mut x = self.state;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.state = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeded_backoff_is_deterministic() {
        let mut a = Backoff::seeded(Duration::from_millis(1), Duration::from_millis(64), 42);
        let mut b = Backoff::seeded(Duration::from_millis(1), Duration::from_millis(64), 42);
        let delays_a: Vec<Duration> = (0..10).map(|_| a.next_delay()).collect();
        let delays_b: Vec<Duration> = (0..10).map(|_| b.next_delay()).collect();
        assert_eq!(delays_a, delays_b, "same seed, same schedule");

        let mut c = Backoff::seeded(Duration::from_millis(1), Duration::from_millis(64), 43);
        let delays_c: Vec<Duration> = (0..10).map(|_| c.next_delay()).collect();
        assert_ne!(delays_a, delays_c, "different seed, different jitter");
    }

    #[test]
    fn delays_grow_exponentially_within_bounds() {
        let base = Duration::from_millis(2);
        let cap = Duration::from_millis(100);
        let mut backoff = Backoff::seeded(base, cap, 7);
        let mut previous_ceiling = Duration::ZERO;
        for attempt in 0..12 {
            let ceiling = base.saturating_mul(1u32 << attempt.min(20)).min(cap);
            let delay = backoff.next_delay();
            assert!(
                delay >= ceiling / 2 && delay <= ceiling,
                "attempt {attempt}: {delay:?} outside [{:?}, {ceiling:?}]",
                ceiling / 2
            );
            assert!(ceiling >= previous_ceiling, "ceiling is monotone");
            previous_ceiling = ceiling;
        }
        // Saturated at the cap: every later delay still honors the bounds.
        let late = backoff.next_delay();
        assert!(late >= cap / 2 && late <= cap);
    }

    #[test]
    fn reset_restarts_the_schedule() {
        let mut backoff = Backoff::seeded(Duration::from_millis(4), Duration::from_secs(1), 9);
        for _ in 0..6 {
            backoff.next_delay();
        }
        assert_eq!(backoff.attempt(), 6);
        backoff.reset();
        assert_eq!(backoff.attempt(), 0);
        let first = backoff.next_delay();
        assert!(
            first <= Duration::from_millis(4),
            "after reset the ceiling is back to base, got {first:?}"
        );
    }

    #[test]
    fn unseeded_instances_decorrelate() {
        let mut a = Backoff::new(Duration::from_millis(1), Duration::from_secs(1));
        let mut b = Backoff::new(Duration::from_millis(1), Duration::from_secs(1));
        let delays_a: Vec<Duration> = (0..8).map(|_| a.next_delay()).collect();
        let delays_b: Vec<Duration> = (0..8).map(|_| b.next_delay()).collect();
        assert_ne!(delays_a, delays_b);
    }
}
