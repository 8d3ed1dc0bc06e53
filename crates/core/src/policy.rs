//! Bias-enabling policies.
//!
//! Deciding *when* a lock should be reader-biased is the ski-rental-shaped
//! problem at the centre of BRAVO's cost model: enabling bias pays off when
//! many fast readers follow, but costs a full revocation scan as soon as a
//! writer shows up. The paper describes two policies and we implement both:
//!
//! * **Inhibit-until** (the published design): a slow-path reader re-enables
//!   bias only when the current time has passed `InhibitUntil`; a revoking
//!   writer sets `InhibitUntil = now + N × revocation_duration`, which bounds
//!   the worst-case writer slow-down to about `1/(N+1)`. The paper uses
//!   `N = 9` (≈ 10 % bound) for every experiment.
//! * **Bernoulli** (the early prototype): a slow-path reader enables bias
//!   with fixed probability `1/P` using a thread-local xorshift generator,
//!   with no slow-down guard. Kept for the policy-ablation benchmarks.

use std::cell::Cell;

/// The paper's slow-down multiplier: revocation cost is amortized over
/// `N = 9` quiet periods, bounding writer slow-down to roughly 10 %.
pub const DEFAULT_INHIBIT_MULTIPLIER: u64 = 9;

/// Policy controlling when slow-path readers may (re-)enable reader bias.
///
/// # Examples
///
/// The published inhibit-until policy bounds writer slow-down: after a
/// revocation that took `d` nanoseconds, bias stays off for `N × d`, so
/// revocation can consume at most `1/(N+1)` of a writer's time.
///
/// ```
/// use bravo::policy::BiasPolicy;
///
/// let policy = BiasPolicy::paper_default(); // InhibitUntil { n: 9 }
/// assert_eq!(policy.slowdown_bound(), Some(0.1));
///
/// // A revocation ran from t=1000 to t=1200 (200 ns): bias is inhibited
/// // for 9 × 200 ns beyond the finish time.
/// let until = policy.inhibit_until_after_revocation(1000, 1200);
/// assert_eq!(until, 1200 + 9 * 200);
/// assert!(!policy.should_enable(until - 1, until));
/// assert!(policy.should_enable(until, until));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BiasPolicy {
    /// Never enable bias: the BRAVO wrapper degenerates to the underlying
    /// lock. Used as the "RBias disabled" control in the kernel experiments.
    Disabled,
    /// The published inhibit-until policy with slow-down multiplier `n`.
    InhibitUntil {
        /// Multiplier applied to the measured revocation duration.
        n: u64,
    },
    /// The early-prototype policy: enable bias on the slow path with
    /// probability `1 / inverse_p`, and never inhibit.
    Bernoulli {
        /// Inverse of the enable probability (the paper used 100).
        inverse_p: u32,
    },
}

impl Default for BiasPolicy {
    fn default() -> Self {
        BiasPolicy::InhibitUntil {
            n: DEFAULT_INHIBIT_MULTIPLIER,
        }
    }
}

impl BiasPolicy {
    /// The inhibit-until policy with the paper's default `N = 9`.
    pub fn paper_default() -> Self {
        Self::default()
    }

    /// Should a slow-path reader that currently holds read permission enable
    /// bias now? `now_ns` is the current monotonic time and
    /// `inhibit_until_ns` the lock's stored threshold.
    #[inline]
    pub fn should_enable(&self, now_ns: u64, inhibit_until_ns: u64) -> bool {
        match self {
            BiasPolicy::Disabled => false,
            BiasPolicy::InhibitUntil { .. } => now_ns >= inhibit_until_ns,
            BiasPolicy::Bernoulli { inverse_p } => bernoulli_trial(*inverse_p),
        }
    }

    /// New value for the lock's `InhibitUntil` field after a revocation that
    /// started at `start_ns` and finished at `now_ns`.
    #[inline]
    pub fn inhibit_until_after_revocation(&self, start_ns: u64, now_ns: u64) -> u64 {
        match self {
            // The field is unused by these policies, but storing "now" keeps
            // the value monotone and harmless if the policy is later changed.
            BiasPolicy::Disabled | BiasPolicy::Bernoulli { .. } => now_ns,
            BiasPolicy::InhibitUntil { n } => {
                now_ns.saturating_add(now_ns.saturating_sub(start_ns).saturating_mul(*n))
            }
        }
    }

    /// Upper bound on the relative writer slow-down this policy admits, as a
    /// fraction (e.g. `0.1` for `N = 9`). `None` when the policy provides no
    /// bound.
    pub fn slowdown_bound(&self) -> Option<f64> {
        match self {
            BiasPolicy::Disabled => Some(0.0),
            BiasPolicy::InhibitUntil { n } => Some(1.0 / (*n as f64 + 1.0)),
            BiasPolicy::Bernoulli { .. } => None,
        }
    }
}

thread_local! {
    static XORSHIFT_STATE: Cell<u64> = const { Cell::new(0) };
}

/// One Bernoulli trial with probability `1 / inverse_p`, driven by a
/// thread-local Marsaglia xorshift generator (as in the paper's prototype).
fn bernoulli_trial(inverse_p: u32) -> bool {
    if inverse_p <= 1 {
        return true;
    }
    XORSHIFT_STATE.with(|state| {
        let mut x = state.get();
        if x == 0 {
            // Seed lazily from the thread id so every thread gets a distinct,
            // deterministic-enough stream without any global coordination.
            x = 0x9e37_79b9_7f4a_7c15 ^ (topology::current_thread_id().as_usize() as u64 + 1);
        }
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        state.set(x);
        x % (inverse_p as u64) == 0
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_the_paper_policy() {
        assert_eq!(BiasPolicy::default(), BiasPolicy::InhibitUntil { n: 9 });
        assert_eq!(BiasPolicy::default().slowdown_bound(), Some(0.1));
    }

    #[test]
    fn disabled_never_enables() {
        let p = BiasPolicy::Disabled;
        assert!(!p.should_enable(100, 0));
        assert!(!p.should_enable(0, 0));
    }

    #[test]
    fn inhibit_until_gates_on_time() {
        let p = BiasPolicy::paper_default();
        assert!(p.should_enable(100, 100));
        assert!(p.should_enable(101, 100));
        assert!(!p.should_enable(99, 100));
    }

    #[test]
    fn inhibit_window_is_n_times_revocation_cost() {
        let p = BiasPolicy::InhibitUntil { n: 9 };
        // Revocation took 50ns, finishing at t=150: inhibit until 150 + 9*50.
        assert_eq!(p.inhibit_until_after_revocation(100, 150), 150 + 9 * 50);
        // Zero-duration revocation leaves bias immediately re-enableable.
        assert_eq!(p.inhibit_until_after_revocation(100, 100), 100);
    }

    #[test]
    fn inhibit_window_saturates_instead_of_overflowing() {
        let p = BiasPolicy::InhibitUntil { n: u64::MAX };
        assert_eq!(p.inhibit_until_after_revocation(0, u64::MAX), u64::MAX);
    }

    #[test]
    fn bernoulli_rate_is_roughly_one_over_p() {
        let p = BiasPolicy::Bernoulli { inverse_p: 100 };
        let trials = 200_000;
        let hits = (0..trials).filter(|_| p.should_enable(0, u64::MAX)).count();
        let rate = hits as f64 / trials as f64;
        assert!(
            (0.005..0.02).contains(&rate),
            "Bernoulli(1/100) produced rate {rate}"
        );
    }

    #[test]
    fn bernoulli_with_p_one_always_enables() {
        let p = BiasPolicy::Bernoulli { inverse_p: 1 };
        assert!(p.should_enable(0, u64::MAX));
    }

    #[test]
    fn slowdown_bounds() {
        assert_eq!(BiasPolicy::Disabled.slowdown_bound(), Some(0.0));
        assert_eq!(
            BiasPolicy::InhibitUntil { n: 99 }.slowdown_bound(),
            Some(0.01)
        );
        assert_eq!(
            BiasPolicy::Bernoulli { inverse_p: 100 }.slowdown_bound(),
            None
        );
    }
}
