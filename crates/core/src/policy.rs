//! Bias-enabling policies.
//!
//! Deciding *when* a lock should be reader-biased is the ski-rental-shaped
//! problem at the centre of BRAVO's cost model: enabling bias pays off when
//! many fast readers follow, but costs a full revocation scan as soon as a
//! writer shows up. One policy is implemented, plus a switch that turns bias
//! off:
//!
//! * **Inhibit-until** (the published design): a slow-path reader re-enables
//!   bias only when the current time has passed `InhibitUntil`; a revoking
//!   writer sets `InhibitUntil = now + N × revocation_duration`, which bounds
//!   the worst-case writer slow-down to about `1/(N+1)`. The paper uses
//!   `N = 9` (≈ 10 % bound) for every experiment.
//! * **Disabled**: bias is never enabled, so the wrapper behaves as the
//!   underlying lock.
//!
//! The paper also mentions an early prototype that enabled bias with a fixed
//! probability `1/P` and no slow-down guard. It is not implemented: none of
//! the paper's results use it. Commit `db15d71` is the last revision that
//! carries it, as the `Bernoulli` variant of [`BiasPolicy`].

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
/// assert_eq!(policy.slowdown_bound(), 0.1);
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
        }
    }

    /// New value for the lock's `InhibitUntil` field after a revocation that
    /// started at `start_ns` and finished at `now_ns`.
    #[inline]
    pub fn inhibit_until_after_revocation(&self, start_ns: u64, now_ns: u64) -> u64 {
        match self {
            // The field is unused while bias is disabled, but storing "now"
            // keeps the value monotone and harmless if the policy is later
            // changed.
            BiasPolicy::Disabled => now_ns,
            BiasPolicy::InhibitUntil { n } => {
                now_ns.saturating_add(now_ns.saturating_sub(start_ns).saturating_mul(*n))
            }
        }
    }

    /// Upper bound on the relative writer slow-down this policy admits, as a
    /// fraction (e.g. `0.1` for `N = 9`).
    pub fn slowdown_bound(&self) -> f64 {
        match self {
            BiasPolicy::Disabled => 0.0,
            BiasPolicy::InhibitUntil { n } => 1.0 / (*n as f64 + 1.0),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_the_paper_policy() {
        assert_eq!(BiasPolicy::default(), BiasPolicy::InhibitUntil { n: 9 });
        assert_eq!(BiasPolicy::default().slowdown_bound(), 0.1);
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
    fn slowdown_bounds() {
        assert_eq!(BiasPolicy::Disabled.slowdown_bound(), 0.0);
        assert_eq!(BiasPolicy::InhibitUntil { n: 99 }.slowdown_bound(), 0.01);
    }
}
