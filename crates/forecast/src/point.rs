//! Series points, external features, and forecast values.

/// The trigger type of a serverless function — one of the external features
/// the paper feeds into the hybrid model (§4.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum TriggerKind {
    /// HTTP / API-gateway triggered.
    #[default]
    Http,
    /// Object-storage event.
    ObjectStorage,
    /// Event-hub / message-queue.
    EventHub,
    /// Timer / cron.
    Timer,
}

impl TriggerKind {
    /// One-hot encoding, stable order.
    pub fn one_hot(self) -> [f64; 4] {
        match self {
            TriggerKind::Http => [1.0, 0.0, 0.0, 0.0],
            TriggerKind::ObjectStorage => [0.0, 1.0, 0.0, 0.0],
            TriggerKind::EventHub => [0.0, 0.0, 1.0, 0.0],
            TriggerKind::Timer => [0.0, 0.0, 0.0, 1.0],
        }
    }
}

/// One observation window of an invocation series: the number of active
/// containers in that window plus the external features of the *next*
/// window (time of day / week, trigger type).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SeriesPoint {
    /// Containers active / invocations observed in this window.
    pub count: f64,
    /// Index of this window (minutes since trace start).
    pub minute: u64,
    /// Trigger type of the workflow this series belongs to.
    pub trigger: TriggerKind,
}

impl SeriesPoint {
    /// Creates a point.
    pub fn new(count: f64, minute: u64, trigger: TriggerKind) -> Self {
        SeriesPoint {
            count,
            minute,
            trigger,
        }
    }

    /// Minute within the (simulated) day, assuming 1-minute windows.
    pub fn minute_of_day(&self) -> u64 {
        self.minute % (24 * 60)
    }

    /// The external feature vector `L` of the paper: cyclic encodings of
    /// time-of-day, time-of-week, and minute-of-hour (timer-triggered
    /// functions fire at fixed sub-hourly phases in the Azure dataset),
    /// plus the trigger one-hot (10 dims).
    pub fn external_features(&self) -> Vec<f64> {
        let day_frac = self.minute_of_day() as f64 / (24.0 * 60.0);
        let week_frac = (self.minute % (7 * 24 * 60)) as f64 / (7.0 * 24.0 * 60.0);
        let hour_frac = (self.minute % 60) as f64 / 60.0;
        let tau = std::f64::consts::TAU;
        let mut v = vec![
            (tau * day_frac).sin(),
            (tau * day_frac).cos(),
            (tau * week_frac).sin(),
            (tau * week_frac).cos(),
        ];
        v.extend_from_slice(&self.trigger.one_hot());
        v.push((tau * hour_frac).sin());
        v.push((tau * hour_frac).cos());
        v
    }
}

/// Width of [`SeriesPoint::external_features`].
pub const EXTERNAL_FEATURE_DIM: usize = 10;

/// A probabilistic next-window forecast.
///
/// Deterministic models report `std = 0`.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Forecast {
    /// Predictive mean container count (may be fractional; consumers round).
    pub mean: f64,
    /// Predictive standard deviation (epistemic + aleatoric, model-defined).
    pub std: f64,
}

impl Forecast {
    /// A point forecast with zero uncertainty.
    pub fn point(mean: f64) -> Self {
        Forecast { mean, std: 0.0 }
    }

    /// Upper confidence bound `mean + z·std`, floored at zero.
    pub fn ucb(&self, z: f64) -> f64 {
        (self.mean + z * self.std).max(0.0)
    }
}

/// Extracts the raw count series from points.
pub fn counts(points: &[SeriesPoint]) -> Vec<f64> {
    points.iter().map(|p| p.count).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_hot_is_exclusive() {
        for t in [
            TriggerKind::Http,
            TriggerKind::ObjectStorage,
            TriggerKind::EventHub,
            TriggerKind::Timer,
        ] {
            let v = t.one_hot();
            assert_eq!(v.iter().sum::<f64>(), 1.0);
        }
    }

    #[test]
    fn cyclic_features_wrap_daily() {
        let a = SeriesPoint::new(1.0, 10, TriggerKind::Http);
        let b = SeriesPoint::new(1.0, 10 + 24 * 60 * 7, TriggerKind::Http);
        // Same phase a whole week later.
        let fa = a.external_features();
        let fb = b.external_features();
        for (x, y) in fa.iter().zip(&fb) {
            assert!((x - y).abs() < 1e-9);
        }
        assert_eq!(fa.len(), EXTERNAL_FEATURE_DIM);
    }

    #[test]
    fn day_of_week_advances() {
        let p = SeriesPoint::new(0.0, 3 * 24 * 60 + 5, TriggerKind::Timer);
        assert_eq!(p.minute_of_day(), 5);
    }

    #[test]
    fn ucb_floors_at_zero() {
        let f = Forecast {
            mean: 1.0,
            std: 2.0,
        };
        assert_eq!(f.ucb(-10.0), 0.0);
        assert!((f.ucb(1.0) - 3.0).abs() < 1e-12);
    }
}
