//! Closed-form theory predictors for the reproduced results.
//!
//! These express the papers' asymptotic claims as computable quantities so
//! the harness can print "paper predicts / we measured" side by side. The
//! constants hidden in the O(·)s are unspecified in the papers, so the
//! predictors are *scales*, not point predictions; experiments assert
//! shape (monotonicity, ratios, linear fits), not equality.

/// `log₂* x` (iterated logarithm), the additive term in Theorem 1's round
/// bound.
pub fn log_star(mut x: f64) -> u32 {
    let mut k = 0;
    while x > 1.0 {
        x = x.log2();
        k += 1;
        if k > 64 {
            break;
        }
    }
    k
}

/// Expected single-choice gap above `m/n`.
///
/// * Heavy regime `m ≥ n ln n`: `√(2·(m/n)·ln n)` (Chernoff scale).
/// * Balanced `m = n`: `ln n / ln ln n` (classical maximum).
///
/// Interpolates by taking the max of the two scales.
pub fn single_choice_gap(m: u64, n: u32) -> f64 {
    let ratio = m as f64 / n as f64;
    let ln_n = (n as f64).max(2.0).ln();
    let heavy = (2.0 * ratio * ln_n).sqrt();
    let balanced = if n > 15 { ln_n / ln_n.ln() } else { 2.0 };
    heavy.max(balanced)
}

/// Expected sequential 2-choice (GREEDY\[2\]) gap: `log₂ log₂ n + O(1)`,
/// independent of `m` (Berenbrink et al. 2006).
pub fn two_choice_gap(n: u32) -> f64 {
    let n = n as f64;
    if n <= 4.0 {
        1.0
    } else {
        n.log2().log2()
    }
}

/// The threshold recurrence of `A_heavy`: starting from `m̃_0 = m`, iterate
/// `m̃_{i+1} = m̃_i^{2/3} · n^{1/3}` until `m̃ ≤ bound·n`. Returns the
/// per-round estimates (including the final one).
pub fn threshold_schedule(m: u64, n: u32, stop_ratio: f64) -> Vec<f64> {
    let n = n as f64;
    let mut seq = vec![m as f64];
    let mut cur = m as f64;
    while cur > stop_ratio * n && seq.len() < 200 {
        cur = cur.powf(2.0 / 3.0) * n.powf(1.0 / 3.0);
        seq.push(cur);
    }
    seq
}

/// Predicted round count for the threshold phase of `A_heavy`: the number
/// of iterations of the `2/3` recurrence until `m̃ ≤ 2n`, which is
/// `Θ(log log(m/n))` (each step multiplies `log(m̃/n)` by 2/3).
pub fn predicted_rounds_threshold_heavy(m: u64, n: u32) -> u32 {
    (threshold_schedule(m, n, 2.0).len() - 1) as u32
}

/// Predicted total rounds for `A_heavy` including the light phase:
/// threshold rounds + `log* n + O(1)`.
pub fn predicted_rounds_total(m: u64, n: u32) -> u32 {
    predicted_rounds_threshold_heavy(m, n) + log_star(n as f64) + 2
}

/// The lower-bound recurrence of Theorem 2 for fixed-capacity threshold
/// algorithms: remaining balls `M_{i+1} ≈ √(M_i · n) / t` with
/// `t = min(log₂ n, log₂(M_i/n))`. Returns the predicted remaining-ball
/// sequence until `M ≤ stop·n`.
pub fn lower_bound_remaining_sequence(m: u64, n: u32, stop_ratio: f64) -> Vec<f64> {
    let n_f = n as f64;
    let mut seq = vec![m as f64];
    let mut cur = m as f64;
    while cur > stop_ratio * n_f && seq.len() < 100 {
        let t = (n_f.log2()).min((cur / n_f).max(2.0).log2()).max(1.0);
        cur = (cur * n_f).sqrt() / t;
        seq.push(cur);
    }
    seq
}

/// Stemann collision protocol prediction for `m = n`, `d = 2`: the
/// 2-collision protocol finishes in `≈ log₂ log₂ n + O(1)` rounds with
/// max load ≤ c.
pub fn predicted_rounds_collision(n: u32) -> f64 {
    two_choice_gap(n) // same log log n scale
}

/// ACMR98-style r-round non-adaptive prediction: achievable load scale
/// `(log n / log log n)^{1/r}` for constant `r` (up to constants).
pub fn adler_load_scale(n: u32, r: u32) -> f64 {
    let n = (n as f64).max(16.0);
    let base = n.ln() / n.ln().ln();
    base.powf(1.0 / r.max(1) as f64)
}

/// Everything the harness prints for one spec, bundled.
#[derive(Debug, Clone, Copy)]
pub struct Predictions {
    /// Single-choice gap scale.
    pub single_choice_gap: f64,
    /// Sequential two-choice gap scale.
    pub two_choice_gap: f64,
    /// `A_heavy` threshold-phase rounds.
    pub heavy_threshold_rounds: u32,
    /// `A_heavy` total rounds (incl. light phase scale).
    pub heavy_total_rounds: u32,
    /// `log* n`.
    pub log_star_n: u32,
}

impl Predictions {
    /// Compute all predictions for `(m, n)`.
    pub fn for_spec(m: u64, n: u32) -> Self {
        Self {
            single_choice_gap: single_choice_gap(m, n),
            two_choice_gap: two_choice_gap(n),
            heavy_threshold_rounds: predicted_rounds_threshold_heavy(m, n),
            heavy_total_rounds: predicted_rounds_total(m, n),
            log_star_n: log_star(n as f64),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn log_star_matches_core_convention() {
        assert_eq!(log_star(1.0), 0);
        assert_eq!(log_star(2.0), 1);
        assert_eq!(log_star(16.0), 3);
        assert_eq!(log_star(65536.0), 4);
    }

    #[test]
    fn single_choice_gap_scales_with_ratio() {
        let g1 = single_choice_gap(1 << 20, 1 << 10); // m/n = 1024
        let g2 = single_choice_gap(1 << 22, 1 << 10); // m/n = 4096
        assert!(g2 > g1);
        // quadrupling m/n doubles the √ scale
        assert!((g2 / g1 - 2.0).abs() < 0.01);
    }

    #[test]
    fn two_choice_gap_independent_of_m_by_construction() {
        assert_eq!(two_choice_gap(1 << 16), two_choice_gap(1 << 16));
        assert!(two_choice_gap(1 << 20) > two_choice_gap(1 << 10));
        // double-log: tiny growth
        assert!(two_choice_gap(1 << 20) - two_choice_gap(1 << 10) < 1.1);
    }

    #[test]
    fn threshold_schedule_decreases_to_stop() {
        let seq = threshold_schedule(1 << 30, 1 << 10, 2.0);
        assert!(seq.windows(2).all(|w| w[1] < w[0]));
        assert!(*seq.last().unwrap() <= 2.0 * 1024.0);
        assert!(seq[0] == (1u64 << 30) as f64);
    }

    #[test]
    fn heavy_rounds_grow_doubly_logarithmically() {
        let n = 1 << 12;
        let r1 = predicted_rounds_threshold_heavy((1 << 4) * (n as u64), n); // m/n=2^4
        let r2 = predicted_rounds_threshold_heavy((1 << 16) * (n as u64), n); // m/n=2^16
        assert!(r2 > r1);
        // log log(m/n) went from 2 to 4: rounds should roughly double, not
        // grow 4096-fold.
        assert!(r2 <= 3 * r1 + 4, "r1={r1}, r2={r2}");
    }

    #[test]
    fn lower_bound_sequence_shrinks_fast() {
        let seq = lower_bound_remaining_sequence(1 << 30, 1 << 10, 4.0);
        assert!(seq.len() >= 2);
        assert!(seq.windows(2).all(|w| w[1] < w[0]));
    }

    #[test]
    fn adler_scale_decreases_in_rounds() {
        let n = 1 << 16;
        assert!(adler_load_scale(n, 1) > adler_load_scale(n, 2));
        assert!(adler_load_scale(n, 2) > adler_load_scale(n, 4));
        assert!(adler_load_scale(n, 100) < 1.5); // → 1 as r → ∞
    }

    #[test]
    fn predictions_bundle() {
        let p = Predictions::for_spec(1 << 24, 1 << 12);
        assert!(p.single_choice_gap > 0.0);
        assert!(p.heavy_total_rounds >= p.heavy_threshold_rounds);
        assert_eq!(p.log_star_n, log_star((1u64 << 12) as f64));
    }
}
