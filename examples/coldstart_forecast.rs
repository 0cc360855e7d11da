//! Invocation-pattern forecasting shoot-out (Table 1 flavour).
//!
//! Generates an Azure-like diurnal trace, extracts the per-minute
//! container-count series, and compares the prediction error (SMAPE) of
//! the naive keep-alive model, ARIMA, the Fourier model (IceBreaker), a
//! vanilla LSTM, and AQUATOPE's hybrid Bayesian NN — which also reports
//! its uncertainty.
//!
//! ```sh
//! cargo run --release --example coldstart_forecast
//! ```

use aquatope::forecast::{
    smape_eval, Arima, FourierPredictor, HybridBayesian, HybridConfig, NaiveLast, Predictor,
    SeriesPoint, TriggerKind, VanillaLstm,
};
use aquatope::prelude::*;
use aquatope::workflows::RateTraceConfig;

fn main() {
    // A two-day diurnal trace with bursts.
    let mut rng = SimRng::seed(5);
    let trace = RateTraceConfig {
        minutes: 2 * 24 * 60,
        mean_rpm: 20.0,
        ..RateTraceConfig::default()
    }
    .generate(&mut rng);
    let counts = trace.counts_per_minute();
    let series: Vec<SeriesPoint> = counts
        .iter()
        .enumerate()
        .map(|(i, &c)| SeriesPoint::new(c, i as u64, TriggerKind::Http))
        .collect();
    let train_len = series.len() * 3 / 4;
    println!(
        "trace: {} minutes ({} train / {} test), mean {:.1} invocations/min\n",
        series.len(),
        train_len,
        series.len() - train_len,
        counts.iter().sum::<f64>() / counts.len() as f64
    );

    let mut models: Vec<Box<dyn Predictor>> = vec![
        Box::new(NaiveLast::new()),
        Box::new(Arima::new(12, 1)),
        Box::new(FourierPredictor::new(8, 256)),
        Box::new(VanillaLstm::with_seed(24, 3, 9)),
        Box::new(HybridBayesian::new(HybridConfig::default())),
    ];
    for model in &mut models {
        let report = smape_eval(model.as_mut(), &series, train_len);
        println!("{report}");
    }

    // Show the Bayesian model's uncertainty on one forecast.
    let mut hybrid = HybridBayesian::new(HybridConfig::default());
    hybrid.fit(&series[..train_len]);
    let f = hybrid.forecast(&series[..train_len]);
    println!(
        "\nhybrid forecast for minute {}: {:.1} ± {:.1} containers (MC-dropout 95% ≈ ±{:.1})",
        train_len,
        f.mean,
        f.std,
        1.96 * f.std
    );
}
