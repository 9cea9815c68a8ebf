//! Small mathematical helpers shared across the workspace: the double
//! logarithm of the papers' round bounds and saturating float-to-integer
//! conversions.

/// `log₂ log₂ x`, clamped to 0 for `x ≤ 2` (where the double log is
/// non-positive or undefined). The round-count scale of the heavily loaded
/// protocols.
pub fn log_log2(x: f64) -> f64 {
    if x <= 2.0 {
        0.0
    } else {
        x.log2().log2()
    }
}

/// Saturating conversion from `f64` to `u32`, flooring.
#[inline]
pub fn f64_to_u32_floor(x: f64) -> u32 {
    if x <= 0.0 {
        0
    } else if x >= u32::MAX as f64 {
        u32::MAX
    } else {
        x as u32
    }
}

/// Saturating conversion from `f64` to `u64`, flooring.
#[inline]
pub fn f64_to_u64_floor(x: f64) -> u64 {
    if x <= 0.0 {
        0
    } else if x >= u64::MAX as f64 {
        u64::MAX
    } else {
        x as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn log_log_clamps() {
        assert_eq!(log_log2(1.0), 0.0);
        assert_eq!(log_log2(2.0), 0.0);
        assert!((log_log2(16.0) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn saturating_floor_conversions() {
        assert_eq!(f64_to_u32_floor(-1.0), 0);
        assert_eq!(f64_to_u32_floor(3.99), 3);
        assert_eq!(f64_to_u32_floor(1e20), u32::MAX);
        assert_eq!(f64_to_u64_floor(3.99), 3);
        assert_eq!(f64_to_u64_floor(1e40), u64::MAX);
    }
}
