//! ARIMA(p, d) forecasting via ordinary least squares.
//!
//! The auto-regressive coefficients are estimated on the `d`-times
//! differenced series by solving the Yule-Walker-style normal equations
//! with a Cholesky factorization; forecasts are integrated back through the
//! differencing. This is the model class *Serverless in the Wild* (and the
//! paper's Table 1) uses as the classic-statistics baseline; we omit the MA
//! term, which for these traces contributes little and keeps the estimator
//! a closed-form OLS (documented deviation).

use aqua_linalg::{Cholesky, Matrix};

use crate::point::{counts, Forecast, SeriesPoint};
use crate::Predictor;

/// ARIMA(p, d) with OLS-estimated AR coefficients.
///
/// # Examples
///
/// ```
/// use aqua_forecast::{Arima, Predictor, SeriesPoint, TriggerKind};
///
/// let series: Vec<SeriesPoint> = (0..120)
///     .map(|i| SeriesPoint::new(10.0 + (i % 6) as f64, i, TriggerKind::Http))
///     .collect();
/// let mut m = Arima::new(6, 1);
/// m.fit(&series[..100]);
/// let f = m.forecast(&series[..100]);
/// assert!(f.mean >= 0.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Arima {
    p: usize,
    d: usize,
    /// `[intercept, phi_1, ..., phi_p]` on the differenced series.
    coeffs: Vec<f64>,
    residual_std: f64,
}

fn difference(xs: &[f64], d: usize) -> Vec<f64> {
    let mut cur = xs.to_vec();
    for _ in 0..d {
        cur = cur.windows(2).map(|w| w[1] - w[0]).collect();
    }
    cur
}

impl Arima {
    /// Creates an ARIMA(p, d) model.
    ///
    /// # Panics
    ///
    /// Panics if `p == 0` or `d > 2` (higher differencing is never useful
    /// for these traces and destabilizes integration).
    pub fn new(p: usize, d: usize) -> Self {
        assert!(p > 0, "AR order must be positive");
        assert!(d <= 2, "differencing order above 2 is unsupported");
        Arima {
            p,
            d,
            coeffs: vec![0.0; p + 1],
            residual_std: 0.0,
        }
    }

    fn fit_series(&mut self, series: &[f64]) {
        let z = difference(series, self.d);
        let n = z.len();
        assert!(
            n > self.p + 1,
            "need more than p+d+1 observations to fit ARIMA({}, {})",
            self.p,
            self.d
        );
        // Design matrix: rows t = p..n, predictors [1, z_{t-1}, ..., z_{t-p}].
        let rows = n - self.p;
        let cols = self.p + 1;
        let x = Matrix::from_fn(
            rows,
            cols,
            |r, c| {
                if c == 0 {
                    1.0
                } else {
                    z[self.p + r - c]
                }
            },
        );
        let y: Vec<f64> = (self.p..n).map(|t| z[t]).collect();
        // Ridge-regularized normal equations for numerical robustness.
        let xt = x.transpose();
        let mut xtx = xt.matmul(&x);
        xtx.add_diagonal(1e-6 * xtx.max_abs().max(1.0));
        let xty = xt.matvec(&y);
        let chol = Cholesky::new_with_jitter(&xtx).expect("regularized XtX must be SPD");
        self.coeffs = chol.solve_vec(&xty);

        // Residual spread for the (Gaussian) forecast uncertainty.
        let mut sse = 0.0;
        for (r, yr) in y.iter().enumerate().take(rows) {
            let pred: f64 = self.coeffs.iter().zip(x.row(r)).map(|(b, v)| b * v).sum();
            sse += (yr - pred).powi(2);
        }
        self.residual_std = (sse / rows.max(1) as f64).sqrt();
    }

    fn forecast_series(&self, series: &[f64]) -> f64 {
        let z = difference(series, self.d);
        if z.len() < self.p {
            return *series.last().expect("non-empty history");
        }
        let mut pred = self.coeffs[0];
        for k in 1..=self.p {
            pred += self.coeffs[k] * z[z.len() - k];
        }
        // Integrate the differenced forecast back to a level.
        match self.d {
            0 => pred,
            1 => series[series.len() - 1] + pred,
            2 => {
                let last = series[series.len() - 1];
                let prev = series[series.len() - 2];
                2.0 * last - prev + pred
            }
            _ => unreachable!("d validated in constructor"),
        }
    }
}

impl Predictor for Arima {
    fn name(&self) -> &'static str {
        "ARIMA"
    }

    fn fit(&mut self, train: &[SeriesPoint]) {
        self.fit_series(&counts(train));
    }

    fn forecast(&mut self, history: &[SeriesPoint]) -> Forecast {
        let series = counts(history);
        assert!(
            series.len() >= self.min_history(),
            "history shorter than p+d"
        );
        Forecast {
            mean: self.forecast_series(&series).max(0.0),
            std: self.residual_std,
        }
    }

    fn min_history(&self) -> usize {
        self.p + self.d + 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::point::TriggerKind;

    fn pts(xs: &[f64]) -> Vec<SeriesPoint> {
        xs.iter()
            .enumerate()
            .map(|(i, &x)| SeriesPoint::new(x, i as u64, TriggerKind::Http))
            .collect()
    }

    #[test]
    fn difference_orders() {
        assert_eq!(difference(&[1.0, 3.0, 6.0, 10.0], 1), vec![2.0, 3.0, 4.0]);
        assert_eq!(difference(&[1.0, 3.0, 6.0, 10.0], 2), vec![1.0, 1.0]);
        assert_eq!(difference(&[5.0, 5.0], 0), vec![5.0, 5.0]);
    }

    #[test]
    fn learns_ar1_process() {
        // x_t = 0.8 x_{t-1} + 2, fixed point at 10.
        let mut series = vec![0.0];
        for _ in 0..200 {
            let last = *series.last().unwrap();
            series.push(0.8 * last + 2.0);
        }
        let mut m = Arima::new(1, 0);
        m.fit(&pts(&series));
        // phi_1 ≈ 0.8, intercept ≈ 2 (up to collinearity near the fixed point).
        let f = m.forecast(&pts(&series));
        let expect = 0.8 * series.last().unwrap() + 2.0;
        assert!(
            (f.mean - expect).abs() < 0.2,
            "forecast {} expect {expect}",
            f.mean
        );
    }

    #[test]
    fn handles_linear_trend_with_differencing() {
        let series: Vec<f64> = (0..100).map(|i| 3.0 * i as f64 + 5.0).collect();
        let mut m = Arima::new(2, 1);
        m.fit(&pts(&series));
        let f = m.forecast(&pts(&series));
        // Next value should be ≈ 3*100 + 5 = 305.
        assert!((f.mean - 305.0).abs() < 1.5, "forecast {}", f.mean);
    }

    #[test]
    fn periodic_series_beats_naive() {
        let series: Vec<f64> = (0..400).map(|i| 10.0 + 5.0 * ((i % 8) as f64)).collect();
        let mut m = Arima::new(8, 0);
        m.fit(&pts(&series[..300]));
        let mut err_arima = 0.0;
        let mut err_naive = 0.0;
        for t in 300..399 {
            let f = m.forecast(&pts(&series[..t]));
            err_arima += (f.mean - series[t]).abs();
            err_naive += (series[t - 1] - series[t]).abs();
        }
        assert!(
            err_arima < err_naive * 0.5,
            "ARIMA {err_arima} naive {err_naive}"
        );
    }

    #[test]
    fn forecasts_are_non_negative() {
        let series: Vec<f64> = (0..50).map(|i| (50 - i) as f64).collect();
        let mut m = Arima::new(1, 1);
        m.fit(&pts(&series));
        // A falling series extrapolates below zero; the forecast clamps.
        let f = m.forecast(&pts(&series));
        assert!(f.mean >= 0.0);
    }

    #[test]
    #[should_panic(expected = "AR order")]
    fn zero_order_rejected() {
        let _ = Arima::new(0, 0);
    }
}
