//! Analytical cost and collision models from the paper.
//!
//! The paper analyses BRAVO with two small probabilistic models, and this
//! module reproduces them so the experiments can compare measured behaviour
//! against prediction:
//!
//! * **Balls-into-bins / birthday-paradox collision model.** Assuming the
//!   slot hash equidistributes `(thread, lock)` pairs over the table,
//!   concurrent fast-path readers are balls thrown into `slots` bins. The
//!   paper's claim (its "Statement 2"): the per-access collision rate is
//!   roughly `threads / (2 × slots)` and — counter-intuitively — does *not*
//!   depend on how many distinct locks are in use.
//! * **Ski-rental-shaped bias cost model.** Enabling reader bias pays off
//!   only if enough fast reads follow before the next write; the published
//!   policy sidesteps estimating that by bounding the damage instead
//!   (inhibit re-biasing for `N×` the revocation cost, giving the
//!   `1/(N+1)` worst-case writer slow-down derived here).

/// Probability that at least two of `balls` uniformly random balls land in
/// the same of `bins` bins (the birthday-paradox probability the paper cites
/// for fast-path collisions).
pub fn birthday_collision_probability(balls: u64, bins: u64) -> f64 {
    if bins == 0 {
        return 1.0;
    }
    if balls > bins {
        return 1.0;
    }
    // P(no collision) = Π_{i=0..balls-1} (1 - i/bins).
    let mut p_clear = 1.0f64;
    for i in 0..balls {
        p_clear *= 1.0 - (i as f64) / (bins as f64);
    }
    1.0 - p_clear
}

/// Expected number of *other* occupied slots a new arrival collides with,
/// i.e. the per-access true-collision rate when `concurrent_readers` are
/// already published in a table of `slots` slots. The paper's rule of thumb
/// is `readers / (2 × slots)` (averaging over arrival order); this returns
/// that estimate.
pub fn expected_collision_rate(concurrent_readers: u64, slots: u64) -> f64 {
    if slots == 0 {
        return 1.0;
    }
    concurrent_readers as f64 / (2.0 * slots as f64)
}

/// Expected number of distinct bins occupied after throwing `balls` balls
/// into `bins` bins: `bins × (1 − (1 − 1/bins)^balls)`. Used to reason about
/// table occupancy as lock diversity grows ("Statement 3").
pub fn expected_occupied_bins(balls: u64, bins: u64) -> f64 {
    if bins == 0 {
        return 0.0;
    }
    let bins_f = bins as f64;
    bins_f * (1.0 - (1.0 - 1.0 / bins_f).powi(balls as i32))
}

/// Worst-case writer slow-down admitted by the inhibit-until policy with
/// multiplier `n`: revocation of cost `R` is followed by at least `n × R` of
/// bias-free time, so revocation overhead is at most `R / (R + nR) =
/// 1 / (n + 1)` of writer-side time.
pub fn worst_case_writer_slowdown(n: u64) -> f64 {
    1.0 / (n as f64 + 1.0)
}

/// The paper's simplified cost model: the net benefit of enabling bias is
/// the aggregate fast-read saving minus the revocation cost paid at the next
/// write. Positive means bias was worth enabling for this interval.
///
/// * `fast_reads` — reads that took the fast path while bias was enabled;
/// * `saving_per_read_ns` — latency saved per fast read versus the
///   underlying lock's contended read path;
/// * `revocation_cost_ns` — measured cost of the revocation (scan + wait)
///   that ended the interval.
pub fn bias_interval_benefit_ns(
    fast_reads: u64,
    saving_per_read_ns: f64,
    revocation_cost_ns: f64,
) -> f64 {
    fast_reads as f64 * saving_per_read_ns - revocation_cost_ns
}

/// Break-even number of fast reads for one bias-enable decision — the
/// ski-rental threshold: below this count the interval was a net loss.
pub fn break_even_fast_reads(saving_per_read_ns: f64, revocation_cost_ns: f64) -> u64 {
    if saving_per_read_ns <= 0.0 {
        return u64::MAX;
    }
    (revocation_cost_ns / saving_per_read_ns).ceil() as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hash::slot_index;

    #[test]
    fn birthday_probability_matches_known_values() {
        // The classic birthday numbers: 23 people / 365 days ≈ 0.507.
        let p = birthday_collision_probability(23, 365);
        assert!((p - 0.507).abs() < 0.01, "got {p}");
        // Degenerate cases.
        assert_eq!(birthday_collision_probability(0, 10), 0.0);
        assert_eq!(birthday_collision_probability(2, 0), 1.0);
        assert_eq!(birthday_collision_probability(11, 10), 1.0);
    }

    #[test]
    fn collision_rate_for_the_paper_configuration_is_small() {
        // 64 concurrent readers, 4096 slots: under 1 %.
        let rate = expected_collision_rate(64, 4096);
        assert!(rate < 0.01);
        // And grows linearly with concurrency.
        assert!((expected_collision_rate(128, 4096) - 2.0 * rate).abs() < 1e-12);
    }

    #[test]
    fn occupied_bins_grow_and_saturate() {
        let low = expected_occupied_bins(10, 4096);
        let mid = expected_occupied_bins(1000, 4096);
        let high = expected_occupied_bins(100_000, 4096);
        assert!(low < mid && mid < high);
        assert!(high <= 4096.0);
        assert!(
            (low - 10.0).abs() < 0.1,
            "sparse occupancy ≈ ball count, got {low}"
        );
    }

    #[test]
    fn slowdown_bound_matches_the_policy() {
        assert!((worst_case_writer_slowdown(9) - 0.1).abs() < 1e-12);
        assert_eq!(worst_case_writer_slowdown(0), 1.0);
        assert_eq!(
            crate::policy::BiasPolicy::InhibitUntil { n: 9 }.slowdown_bound(),
            worst_case_writer_slowdown(9)
        );
    }

    #[test]
    fn cost_model_breaks_even_where_expected() {
        // Revocation costs ~4.5 µs (4096 slots × 1.1 ns); if the fast path
        // saves ~100 ns per read, ~45 fast reads amortize it.
        let threshold = break_even_fast_reads(100.0, 4096.0 * 1.1);
        assert_eq!(threshold, 46);
        assert!(bias_interval_benefit_ns(threshold, 100.0, 4096.0 * 1.1) >= 0.0);
        assert!(bias_interval_benefit_ns(10, 100.0, 4096.0 * 1.1) < 0.0);
        assert_eq!(break_even_fast_reads(0.0, 1000.0), u64::MAX);
    }

    #[test]
    fn measured_hash_collisions_track_the_analytic_model() {
        // Empirical check of the equidistribution assumption: throw
        // `readers` (thread, lock) pairs at the table many times and compare
        // the measured pairwise-collision frequency for a new arrival with
        // the analytic estimate.
        let slots = 4096u64;
        let readers = 64u64;
        let mut collided = 0u64;
        let mut trials = 0u64;
        for round in 0..500u64 {
            let mut occupied = std::collections::HashSet::new();
            for t in 0..readers {
                // Distinct locks per round so rounds are independent draws.
                let lock_addr = ((round * readers + t + 1) * 128) as usize;
                let slot = slot_index(lock_addr, t as usize, slots as usize);
                trials += 1;
                if !occupied.insert(slot) {
                    collided += 1;
                }
            }
        }
        let measured = collided as f64 / trials as f64;
        let predicted = expected_collision_rate(readers, slots);
        assert!(
            measured < predicted * 4.0 + 0.005,
            "measured collision rate {measured:.4} vastly exceeds prediction {predicted:.4}"
        );
    }
}
