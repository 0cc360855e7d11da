//! Trait-level contract tests over every invocation predictor: uniform
//! checks that each model upholds the `Predictor` interface on the same
//! Azure-like series.

use aquatope::forecast::{
    smape_eval, Arima, FourierPredictor, HybridBayesian, HybridConfig, NaiveLast, Predictor,
    SeriesPoint, TriggerKind, VanillaLstm,
};
use aquatope::prelude::*;
use aquatope::workflows::RateTraceConfig;

fn azure_series(minutes: usize, seed: u64) -> Vec<SeriesPoint> {
    let mut rng = SimRng::seed(seed);
    let counts = RateTraceConfig {
        minutes,
        mean_rpm: 30.0,
        ..RateTraceConfig::default()
    }
    .generate(&mut rng)
    .counts_per_minute();
    counts
        .iter()
        .enumerate()
        .map(|(i, &c)| SeriesPoint::new(c, i as u64, TriggerKind::Http))
        .collect()
}

fn all_models() -> Vec<Box<dyn Predictor>> {
    vec![
        Box::new(NaiveLast::new()),
        Box::new(Arima::new(8, 1)),
        Box::new(FourierPredictor::new(6, 128)),
        Box::new(VanillaLstm::with_seed(16, 1, 3)),
        Box::new(HybridBayesian::new(HybridConfig {
            window: 16,
            horizon: 2,
            enc_hidden: vec![8],
            dec_hidden: vec![6],
            mlp_hidden: vec![12, 8],
            dropout: 0.1,
            pretrain_epochs: 1,
            train_epochs: 2,
            mc_passes: 8,
            seed: 5,
        })),
    ]
}

#[test]
fn every_model_produces_finite_nonnegative_forecasts() {
    let series = azure_series(300, 1);
    for mut model in all_models() {
        model.fit(&series[..240]);
        for t in [240usize, 260, 299] {
            let f = model.forecast(&series[..t]);
            assert!(
                f.mean.is_finite() && f.mean >= 0.0,
                "{}: mean {} at t={t}",
                model.name(),
                f.mean
            );
            assert!(
                f.std.is_finite() && f.std >= 0.0,
                "{}: std {} at t={t}",
                model.name(),
                f.std
            );
        }
    }
}

#[test]
fn every_model_beats_trivial_zero_forecast() {
    // SMAPE of a zero forecast on a nonzero series is 2.0 (the metric's
    // maximum); any sane model must do better.
    let series = azure_series(300, 2);
    for mut model in all_models() {
        let report = smape_eval(model.as_mut(), &series, 240);
        assert!(
            report.smape < 1.0,
            "{}: SMAPE {:.2} worse than sanity bound",
            report.model,
            report.smape
        );
    }
}

#[test]
fn min_history_is_honored_by_eval() {
    // smape_eval must never call forecast with fewer points than declared.
    let series = azure_series(200, 3);
    let mut arima = Arima::new(12, 1);
    assert!(arima.min_history() > 1);
    let report = smape_eval(&mut arima, &series, 150);
    assert_eq!(report.steps, 50);
}

#[test]
fn bayesian_model_reports_uncertainty_others_report_spread() {
    let series = azure_series(240, 4);
    let mut hybrid = HybridBayesian::new(HybridConfig {
        window: 16,
        horizon: 2,
        enc_hidden: vec![8],
        dec_hidden: vec![6],
        mlp_hidden: vec![12, 8],
        dropout: 0.2,
        pretrain_epochs: 1,
        train_epochs: 2,
        mc_passes: 10,
        seed: 6,
    });
    hybrid.fit(&series[..200]);
    let f = hybrid.forecast(&series[..200]);
    assert!(f.std > 0.0, "MC dropout must yield predictive spread");

    // Residual-based deterministic models also report a fitted spread.
    let mut arima = Arima::new(8, 1);
    arima.fit(&series[..200]);
    assert!(arima.forecast(&series[..200]).std > 0.0);
}

#[test]
fn naive_model_is_exactly_last_value() {
    let series = azure_series(100, 7);
    let mut naive = NaiveLast::new();
    naive.fit(&series[..50]);
    for t in [50usize, 80, 99] {
        assert_eq!(naive.forecast(&series[..t]).mean, series[t - 1].count);
    }
}
