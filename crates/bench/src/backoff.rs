//! Capped, jittered, deterministic exponential backoff — shared by the
//! supervisor's process-respawn loop, the remote worker's reconnect
//! loop, and the shard book, whose re-dispatch deadlines the
//! coordinator and the sharded runner wait out without sleeping.
//!
//! Campaign results must never depend on wall clocks or global RNG
//! state, so the jitter PRNG is SplitMix64 keyed on (campaign seed,
//! slot, retry ordinal): the same failure history always backs off by
//! the same delays, and a pool of crash-looping slots never retries in
//! lockstep.

use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

/// Poll cadence for interruptible sleeps and the coordinator's accept
/// loop: long waits are chopped into ticks so a raised stop flag (or a
/// closed connection) is noticed within one tick.
pub(crate) const TICK: Duration = Duration::from_millis(20);

/// SplitMix64: the jitter PRNG. Deterministic, stateless, and good
/// enough to decorrelate retry timing across slots.
pub(crate) fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// The delay before retry `n` (1-based) of `slot`: 50·2ⁿ⁻¹ ms capped
/// at 2 s, plus up to 50 ms of seeded jitter. Pure — callers that need
/// a deadline rather than a sleep (the serve loop must keep ticking)
/// use this directly.
pub(crate) fn backoff_delay(seed: u64, slot: usize, n: u32) -> Duration {
    let base = 50u64
        .saturating_mul(1 << n.saturating_sub(1).min(10))
        .min(2_000);
    let jitter = splitmix64(seed ^ ((slot as u64) << 32) ^ u64::from(n)) % 50;
    Duration::from_millis(base + jitter)
}

/// Sleeps for [`backoff_delay`], polling `stop` every [`TICK`] so a
/// shutting-down campaign never waits out a full backoff.
pub(crate) fn backoff_sleep(seed: u64, slot: usize, n: u32, stop: &AtomicBool) {
    let mut left = backoff_delay(seed, slot, n);
    while !left.is_zero() && !stop.load(Ordering::Relaxed) {
        let nap = left.min(TICK);
        std::thread::sleep(nap);
        left -= nap;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Instant;

    #[test]
    fn jitter_is_deterministic_and_slot_decorrelated() {
        // Same (seed, slot, ordinal) → same jitter; different slot →
        // (almost surely) different jitter; never consults a clock.
        assert_eq!(splitmix64(42), splitmix64(42));
        assert_ne!(splitmix64(1), splitmix64(1 ^ (1u64 << 32)));
        assert_eq!(backoff_delay(7, 3, 4), backoff_delay(7, 3, 4));
        assert_ne!(backoff_delay(7, 3, 4), backoff_delay(7, 4, 4));
    }

    #[test]
    fn delay_doubles_then_caps() {
        // The deterministic base under the ≤50 ms jitter: 50, 100,
        // 200, ... capped at 2000 ms. Strip the jitter by comparing
        // against the known bounds.
        let ms = |n| backoff_delay(99, 0, n).as_millis() as u64;
        for (n, base) in [(1, 50), (2, 100), (3, 200), (4, 400), (5, 800), (6, 1600)] {
            assert!((base..base + 50).contains(&ms(n)), "retry {n}: {}ms", ms(n));
        }
        // From retry 7 on, the cap holds no matter how large n gets —
        // including ordinals whose uncapped shift would overflow.
        for n in [7, 10, 11, 30, u32::MAX] {
            assert!((2000..2050).contains(&ms(n)), "retry {n}: {}ms", ms(n));
        }
    }

    #[test]
    fn every_delay_stays_inside_cap_and_jitter_bounds() {
        // Sweep seeds × slots × ordinals: every delay sits in
        // [base, base + 50) with base ≤ 2000 ms, so no retry loop —
        // submit reconnects included — can ever wait unbounded or
        // strip its jitter.
        for seed in [0u64, 1, 42, u64::MAX] {
            for slot in [0usize, 1, 7, 4096] {
                for n in 1..=16u32 {
                    let base = 50u64
                        .saturating_mul(1 << n.saturating_sub(1).min(10))
                        .min(2_000);
                    let got = backoff_delay(seed, slot, n).as_millis() as u64;
                    assert!(
                        (base..base + 50).contains(&got),
                        "seed {seed} slot {slot} retry {n}: {got}ms outside [{base}, {})",
                        base + 50
                    );
                }
            }
        }
    }

    #[test]
    fn zero_ordinal_never_panics_or_overflows() {
        // Retry 0 is out of contract (ordinals are 1-based) but must
        // degrade to a finite delay, not a shift overflow.
        assert!(backoff_delay(1, 0, 0) <= Duration::from_millis(2050));
    }

    #[test]
    fn sleep_is_interruptible() {
        // A raised stop flag turns any backoff into (at most) one tick.
        let stop = AtomicBool::new(true);
        let begun = Instant::now();
        backoff_sleep(7, 3, 30, &stop); // ordinal 30 would be 2s+ uncapped
        assert!(begun.elapsed() < Duration::from_millis(500));
    }
}
