//! Ordinary least-squares line fits.
//!
//! The experiments check *growth rates*, not constants: e.g. measured
//! `A_heavy` round counts regressed against `log log(m/n)` should produce
//! a strong linear fit (R² close to 1) with a positive slope, while a fit
//! against `m/n` itself should be poor. This module provides the fit.

/// Result of fitting `y ≈ intercept + slope · x` by least squares.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinearFit {
    /// Fitted intercept.
    pub intercept: f64,
    /// Fitted slope.
    pub slope: f64,
    /// Coefficient of determination in `[0, 1]`.
    pub r_squared: f64,
    /// Number of points fitted.
    pub points: usize,
}

impl LinearFit {
    /// Fit a line through `(x, y)` pairs.
    ///
    /// # Panics
    ///
    /// Panics with fewer than 2 points or mismatched lengths.
    pub fn fit(xs: &[f64], ys: &[f64]) -> Self {
        assert_eq!(xs.len(), ys.len(), "mismatched lengths");
        assert!(xs.len() >= 2, "need at least 2 points");
        let n = xs.len() as f64;
        let mean_x = xs.iter().sum::<f64>() / n;
        let mean_y = ys.iter().sum::<f64>() / n;
        let mut sxx = 0.0;
        let mut sxy = 0.0;
        let mut syy = 0.0;
        for (&x, &y) in xs.iter().zip(ys) {
            let dx = x - mean_x;
            let dy = y - mean_y;
            sxx += dx * dx;
            sxy += dx * dy;
            syy += dy * dy;
        }
        let slope = if sxx > 0.0 { sxy / sxx } else { 0.0 };
        let intercept = mean_y - slope * mean_x;
        let r_squared = if sxx > 0.0 && syy > 0.0 {
            (sxy * sxy) / (sxx * syy)
        } else if syy == 0.0 {
            1.0 // constant y is perfectly fit
        } else {
            0.0
        };
        Self {
            intercept,
            slope,
            r_squared,
            points: xs.len(),
        }
    }

    /// Predicted `y` at `x`.
    pub fn predict(&self, x: f64) -> f64 {
        self.intercept + self.slope * x
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_line_recovered() {
        let xs: Vec<f64> = (0..10).map(|i| i as f64).collect();
        let ys: Vec<f64> = xs.iter().map(|x| 3.0 + 2.0 * x).collect();
        let f = LinearFit::fit(&xs, &ys);
        assert!((f.slope - 2.0).abs() < 1e-12);
        assert!((f.intercept - 3.0).abs() < 1e-12);
        assert!((f.r_squared - 1.0).abs() < 1e-12);
        assert!((f.predict(20.0) - 43.0).abs() < 1e-12);
    }

    #[test]
    fn noisy_line_good_r2() {
        let xs: Vec<f64> = (0..100).map(|i| i as f64 / 10.0).collect();
        let ys: Vec<f64> = xs
            .iter()
            .enumerate()
            .map(|(i, x)| 1.0 + 0.5 * x + if i % 2 == 0 { 0.05 } else { -0.05 })
            .collect();
        let f = LinearFit::fit(&xs, &ys);
        assert!((f.slope - 0.5).abs() < 0.01);
        assert!(f.r_squared > 0.99);
    }

    #[test]
    fn constant_y_is_flat_perfect() {
        let xs = [1.0, 2.0, 3.0];
        let ys = [5.0, 5.0, 5.0];
        let f = LinearFit::fit(&xs, &ys);
        assert_eq!(f.slope, 0.0);
        assert_eq!(f.intercept, 5.0);
        assert_eq!(f.r_squared, 1.0);
    }

    #[test]
    fn uncorrelated_data_low_r2() {
        let xs = [0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0];
        let ys = [1.0, -1.0, 1.0, -1.0, 1.0, -1.0, 1.0, -1.0];
        let f = LinearFit::fit(&xs, &ys);
        assert!(f.r_squared < 0.1, "r² = {}", f.r_squared);
    }

    #[test]
    #[should_panic(expected = "at least 2")]
    fn one_point_panics() {
        let _ = LinearFit::fit(&[1.0], &[1.0]);
    }
}
